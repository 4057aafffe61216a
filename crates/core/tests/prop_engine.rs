//! Property tests of the GTS engine: for any graph, any format, and any
//! engine configuration, results equal the sequential references and the
//! run report stays internally consistent.

use gts_core::engine::{GtsConfig, StorageLocation};
use gts_core::programs::{Bfs, Cc, PageRank, Sssp};
use gts_core::Strategy as MultiGpuStrategy;
use gts_core::{Engine, JobOptions};
use gts_gpu::MicroTechnique;
use gts_graph::{reference, Csr, EdgeList};
use gts_storage::{build_graph_store, PageFormatConfig, PhysicalIdConfig};
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = EdgeList> {
    (2u32..120).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..400)
            .prop_map(move |edges| EdgeList::new(n, edges))
    })
}

fn arb_config() -> impl Strategy<Value = GtsConfig> {
    (
        1usize..4,
        1usize..33,
        prop_oneof![
            Just(MultiGpuStrategy::Performance),
            Just(MultiGpuStrategy::Scalability)
        ],
        prop_oneof![
            Just(MicroTechnique::EdgeCentric { virtual_warp: 32 }),
            Just(MicroTechnique::EdgeCentric { virtual_warp: 4 }),
            Just(MicroTechnique::VertexCentric),
            Just(MicroTechnique::Hybrid { virtual_warp: 8 }),
        ],
        prop_oneof![
            Just(StorageLocation::InMemory),
            Just(StorageLocation::Ssds(1)),
            Just(StorageLocation::Ssds(3)),
            Just(StorageLocation::Hdds(2)),
        ],
        0u64..4096,
        0u32..100,
    )
        .prop_map(
            |(gpus, streams, strategy, technique, storage, cache, mmbuf)| GtsConfig {
                num_gpus: gpus,
                num_streams: streams,
                strategy,
                technique,
                storage,
                cache_limit_bytes: Some(cache * 64),
                mmbuf_percent: mmbuf,
                ..GtsConfig::default()
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn bfs_correct_under_any_configuration(g in arb_graph(), cfg in arb_config(), source in 0u32..120) {
        let source = (source % g.num_vertices) as u64;
        let store = build_graph_store(&g, PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 512)).unwrap();
        let csr = Csr::from_edge_list(&g);
        let mut bfs = Bfs::new(store.num_vertices(), source);
        let report = Engine::new(cfg).unwrap().run_job(&store, &mut bfs, &JobOptions::default()).unwrap();
        prop_assert_eq!(bfs.levels_u32(), reference::bfs(&csr, source as u32));
        // Report consistency.
        prop_assert!(report.cache_hit_rate >= 0.0 && report.cache_hit_rate <= 1.0);
        prop_assert!(report.sweeps >= 1);
    }

    #[test]
    fn sssp_and_cc_correct_under_any_configuration(g in arb_graph(), cfg in arb_config()) {
        let store = build_graph_store(&g, PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 512)).unwrap();
        let csr = Csr::from_edge_list(&g);
        let mut sssp = Sssp::new(store.num_vertices(), 0);
        Engine::new(cfg.clone()).unwrap().run_job(&store, &mut sssp, &JobOptions::default()).unwrap();
        prop_assert_eq!(sssp.distances(), &reference::sssp(&csr, 0)[..]);
        let mut cc = Cc::new(store.num_vertices());
        Engine::new(cfg).unwrap().run_job(&store, &mut cc, &JobOptions::default()).unwrap();
        prop_assert_eq!(cc.labels_u32(), reference::connected_components(&csr));
    }

    #[test]
    fn pagerank_close_under_any_configuration(g in arb_graph(), cfg in arb_config(), iters in 1u32..6) {
        let store = build_graph_store(&g, PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 512)).unwrap();
        let csr = Csr::from_edge_list(&g);
        let mut pr = PageRank::new(store.num_vertices(), iters);
        let report = Engine::new(cfg).unwrap().run_job(&store, &mut pr, &JobOptions::default()).unwrap();
        let want = reference::pagerank(&csr, 0.85, iters);
        for (got, want) in pr.ranks().iter().zip(&want) {
            prop_assert!((*got as f64 - want).abs() < 1e-4);
        }
        prop_assert_eq!(report.sweeps, iters);
        prop_assert_eq!(report.edges_traversed, iters as u64 * g.num_edges() as u64);
    }

    #[test]
    fn elapsed_time_is_deterministic(g in arb_graph(), cfg in arb_config()) {
        let store = build_graph_store(&g, PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 512)).unwrap();
        let run = || {
            let mut bfs = Bfs::new(store.num_vertices(), 0);
            Engine::new(cfg.clone()).unwrap().run_job(&store, &mut bfs, &JobOptions::default()).unwrap().elapsed
        };
        prop_assert_eq!(run(), run());
    }
}
