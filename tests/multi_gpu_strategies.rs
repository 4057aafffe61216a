//! Multi-GPU behaviour: Strategy-P and Strategy-S (paper Sec. 4) across
//! GPU counts — functional equivalence, capacity scaling, speedup shapes,
//! and the peer-to-peer synchronisation advantage.

use gts_core::engine::{EngineError, GtsConfig};
use gts_core::programs::{Bfs, Cc, PageRank, Sssp};
use gts_core::Strategy;
use gts_core::{Engine, JobOptions};
use gts_gpu::GpuConfig;
use gts_graph::generate::rmat;
use gts_graph::{reference, Csr};
use gts_storage::{build_graph_store, GraphStore, PageFormatConfig, PhysicalIdConfig};

fn store() -> GraphStore {
    build_graph_store(
        &rmat(12),
        PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 4096),
    )
    .unwrap()
}

#[test]
fn every_algorithm_is_strategy_and_gpu_count_invariant() {
    let graph = rmat(11);
    let store = build_graph_store(
        &graph,
        PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 2048),
    )
    .unwrap();
    let csr = Csr::from_edge_list(&graph);
    let want_bfs = reference::bfs(&csr, 0);
    let want_sssp = reference::sssp(&csr, 0);
    let want_cc = reference::connected_components(&csr);
    for strategy in [Strategy::Performance, Strategy::Scalability] {
        for gpus in [1usize, 2, 3, 8] {
            let cfg = GtsConfig {
                num_gpus: gpus,
                strategy,
                ..GtsConfig::default()
            };
            let mut bfs = Bfs::new(store.num_vertices(), 0);
            Engine::new(cfg.clone())
                .unwrap()
                .run_job(&store, &mut bfs, &JobOptions::default())
                .unwrap();
            assert_eq!(bfs.levels_u32(), want_bfs, "{strategy:?}/{gpus} BFS");
            let mut sssp = Sssp::new(store.num_vertices(), 0);
            Engine::new(cfg.clone())
                .unwrap()
                .run_job(&store, &mut sssp, &JobOptions::default())
                .unwrap();
            assert_eq!(sssp.distances(), &want_sssp[..], "{strategy:?}/{gpus} SSSP");
            let mut cc = Cc::new(store.num_vertices());
            Engine::new(cfg)
                .unwrap()
                .run_job(&store, &mut cc, &JobOptions::default())
                .unwrap();
            assert_eq!(cc.labels_u32(), want_cc, "{strategy:?}/{gpus} CC");
        }
    }
}

#[test]
fn strategy_p_pagerank_speedup_is_fairly_linear() {
    // Sec. 4.1: "fairly linear parallel speedup with respect to the number
    // of GPUs … as long as the capability of data streaming is sufficient".
    let s = store();
    let elapsed = |gpus| {
        let cfg = GtsConfig {
            num_gpus: gpus,
            strategy: Strategy::Performance,
            cache_limit_bytes: Some(0),
            ..GtsConfig::default()
        };
        let mut pr = PageRank::new(s.num_vertices(), 5);
        Engine::new(cfg)
            .unwrap()
            .run_job(&s, &mut pr, &JobOptions::default())
            .unwrap()
            .elapsed
            .as_secs_f64()
    };
    let one = elapsed(1);
    let two = elapsed(2);
    let four = elapsed(4);
    assert!(one / two > 1.5, "2-GPU speedup {:.2} too low", one / two);
    assert!(one / four > 2.5, "4-GPU speedup {:.2} too low", one / four);
}

#[test]
fn strategy_s_throughput_does_not_scale_but_capacity_does() {
    // Sec. 4.2: "although increasing the number of GPUs, the performance
    // of graph processing itself does not change".
    let s = store();
    let elapsed = |gpus| {
        let cfg = GtsConfig {
            num_gpus: gpus,
            strategy: Strategy::Scalability,
            cache_limit_bytes: Some(0),
            ..GtsConfig::default()
        };
        let mut pr = PageRank::new(s.num_vertices(), 5);
        Engine::new(cfg)
            .unwrap()
            .run_job(&s, &mut pr, &JobOptions::default())
            .unwrap()
            .elapsed
            .as_secs_f64()
    };
    let one = elapsed(1);
    let four = elapsed(4);
    assert!(
        (four / one) > 0.8 && (four / one) < 1.3,
        "Strategy-S elapsed should be roughly flat: 1 GPU {one}, 4 GPUs {four}"
    );
}

#[test]
fn capacity_scales_linearly_with_gpus_under_strategy_s() {
    // Find a device size where 1 GPU OOMs but 4 GPUs fit.
    let s = store();
    let wa = Cc::ALGORITHM.wa_bytes_per_vertex * s.num_vertices();
    let streams = 16u64;
    let page = s.cfg().page_size as u64;
    let buffers = streams * page * 2 + s.rvt().memory_bytes();
    let capacity = buffers + wa / 2;
    let run = |gpus| {
        let cfg = GtsConfig {
            num_gpus: gpus,
            strategy: Strategy::Scalability,
            gpu: GpuConfig::titan_x().with_device_memory(capacity),
            // Fail fast: this test pins the raw capacity boundary, not the
            // engine's degraded-mode rescue (covered by its own tests).
            degrade_on_oom: false,
            ..GtsConfig::default()
        };
        let mut cc = Cc::new(s.num_vertices());
        Engine::new(cfg)
            .unwrap()
            .run_job(&s, &mut cc, &JobOptions::default())
            .map(|_| ())
    };
    assert!(matches!(run(1), Err(EngineError::DeviceOom(_))));
    run(4).expect("4 GPUs split WA into quarters");
}

#[test]
fn p2p_sync_beats_naive_sync_and_gap_grows_with_gpus() {
    // Sec. 4.1: peer-to-peer merging "largely reduces such synchronization
    // overhead" versus N direct copies.
    let s = store();
    let elapsed = |gpus, p2p| {
        let cfg = GtsConfig {
            num_gpus: gpus,
            strategy: Strategy::Performance,
            p2p_sync: p2p,
            ..GtsConfig::default()
        };
        let mut pr = PageRank::new(s.num_vertices(), 5);
        Engine::new(cfg)
            .unwrap()
            .run_job(&s, &mut pr, &JobOptions::default())
            .unwrap()
            .elapsed
            .as_secs_f64()
    };
    // At N = 2 both paths are two serial transfers (P2P merge + one
    // write-back vs two write-backs), so P2P only breaks even; its win
    // comes from merging in parallel across sources as N grows — which is
    // exactly the paper's "as N increases" framing.
    let adv2 = elapsed(2, false) / elapsed(2, true);
    let adv4 = elapsed(4, false) / elapsed(4, true);
    let adv8 = elapsed(8, false) / elapsed(8, true);
    assert!(adv2 > 0.9, "P2P must be near parity at 2 GPUs ({adv2:.3})");
    assert!(adv4 > 1.0, "P2P must win at 4 GPUs ({adv4:.3})");
    assert!(
        adv8 > adv4,
        "P2P advantage must grow with N ({adv4:.3} → {adv8:.3})"
    );
}

#[test]
fn page_assignment_is_balanced_under_strategy_p() {
    let s = store();
    let cfg = GtsConfig {
        num_gpus: 4,
        strategy: Strategy::Performance,
        cache_limit_bytes: Some(0),
        ..GtsConfig::default()
    };
    let mut pr = PageRank::new(s.num_vertices(), 1);
    let report = Engine::new(cfg)
        .unwrap()
        .run_job(&s, &mut pr, &JobOptions::default())
        .unwrap();
    let bytes: Vec<u64> = report.per_gpu.iter().map(|g| g.bytes_h2d).collect();
    let max = *bytes.iter().max().unwrap() as f64;
    let min = *bytes.iter().min().unwrap() as f64;
    assert!(
        max / min < 1.3,
        "h(j) = j mod N must balance the stream: {bytes:?}"
    );
}
