//! End-to-end integration: edge list → CSR → slotted pages → GTS engine →
//! results equal the sequential references, across algorithms, datasets
//! and format configurations.

use gts_core::engine::GtsConfig;
use gts_core::programs::{Bc, Bfs, Cc, PageRank, Sssp};
use gts_core::{Engine, JobOptions};
use gts_graph::generate::{erdos_renyi, rmat, web_like, Rmat};
use gts_graph::{reference, Csr, EdgeList};
use gts_storage::{build_graph_store, GraphStore, PageFormatConfig, PhysicalIdConfig};

fn store_for(graph: &EdgeList, page_size: usize) -> GraphStore {
    build_graph_store(
        graph,
        PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, page_size),
    )
    .expect("store builds")
}

fn graphs() -> Vec<(&'static str, EdgeList)> {
    vec![
        ("rmat10", rmat(10)),
        ("rmat12", rmat(12)),
        ("dense-rmat9", Rmat::new(9).with_edge_factor(40).generate()),
        ("erdos", erdos_renyi(3000, 20_000, 11)),
        ("web", web_like(24, 50, 3, 5)),
        (
            "line",
            EdgeList::new(64, (0..63).map(|i| (i, i + 1)).collect()),
        ),
        ("isolated", EdgeList::new(500, vec![(0, 499), (499, 0)])),
    ]
}

#[test]
fn bfs_matches_reference_everywhere() {
    for (name, graph) in graphs() {
        let store = store_for(&graph, 2048);
        let csr = Csr::from_edge_list(&graph);
        let mut bfs = Bfs::new(store.num_vertices(), 0);
        Engine::new(GtsConfig::default())
            .unwrap()
            .run_job(&store, &mut bfs, &JobOptions::default())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(bfs.levels_u32(), reference::bfs(&csr, 0), "{name}");
    }
}

#[test]
fn pagerank_matches_reference_everywhere() {
    for (name, graph) in graphs() {
        let store = store_for(&graph, 2048);
        let csr = Csr::from_edge_list(&graph);
        let mut pr = PageRank::new(store.num_vertices(), 6);
        Engine::new(GtsConfig::default())
            .unwrap()
            .run_job(&store, &mut pr, &JobOptions::default())
            .unwrap();
        let want = reference::pagerank(&csr, 0.85, 6);
        for (v, (got, want)) in pr.ranks().iter().zip(&want).enumerate() {
            assert!(
                (*got as f64 - want).abs() < 1e-4,
                "{name} vertex {v}: {got} vs {want}"
            );
        }
    }
}

#[test]
fn sssp_matches_reference_everywhere() {
    for (name, graph) in graphs() {
        let store = store_for(&graph, 2048);
        let csr = Csr::from_edge_list(&graph);
        let mut sssp = Sssp::new(store.num_vertices(), 0);
        Engine::new(GtsConfig::default())
            .unwrap()
            .run_job(&store, &mut sssp, &JobOptions::default())
            .unwrap();
        assert_eq!(sssp.distances(), &reference::sssp(&csr, 0)[..], "{name}");
    }
}

#[test]
fn cc_matches_reference_everywhere() {
    for (name, graph) in graphs() {
        let store = store_for(&graph, 2048);
        let csr = Csr::from_edge_list(&graph);
        let mut cc = Cc::new(store.num_vertices());
        Engine::new(GtsConfig::default())
            .unwrap()
            .run_job(&store, &mut cc, &JobOptions::default())
            .unwrap();
        let want = reference::connected_components(&csr);
        assert_eq!(cc.labels_u32(), want, "{name}");
    }
}

#[test]
fn bc_matches_reference_everywhere() {
    for (name, graph) in graphs() {
        let store = store_for(&graph, 2048);
        let csr = Csr::from_edge_list(&graph);
        let mut bc = Bc::new(store.num_vertices(), 0);
        Engine::new(GtsConfig::default())
            .unwrap()
            .run_job(&store, &mut bc, &JobOptions::default())
            .unwrap();
        let want = reference::betweenness(&csr, &[0]);
        for (v, (got, want)) in bc.centrality().iter().zip(&want).enumerate() {
            let scale = want.abs().max(1.0);
            assert!(
                (*got as f64 - want).abs() / scale < 1e-3,
                "{name} vertex {v}: {got} vs {want}"
            );
        }
    }
}

#[test]
fn results_are_invariant_to_page_size() {
    let graph = rmat(11);
    let csr = Csr::from_edge_list(&graph);
    let want = reference::bfs(&csr, 0);
    for page_size in [512usize, 1024, 4096, 65536] {
        let store = store_for(&graph, page_size);
        let mut bfs = Bfs::new(store.num_vertices(), 0);
        Engine::new(GtsConfig::default())
            .unwrap()
            .run_job(&store, &mut bfs, &JobOptions::default())
            .unwrap();
        assert_eq!(bfs.levels_u32(), want, "page size {page_size}");
    }
}

#[test]
fn results_are_invariant_to_physical_id_widths() {
    let graph = rmat(11);
    let csr = Csr::from_edge_list(&graph);
    let want = reference::pagerank(&csr, 0.85, 4);
    for id in [
        PhysicalIdConfig::ORIGINAL,
        PhysicalIdConfig::TRILLION,
        PhysicalIdConfig::new(2, 4),
        PhysicalIdConfig::new(4, 2),
    ] {
        let store = build_graph_store(&graph, PageFormatConfig::new(id, 4096)).expect("store");
        let mut pr = PageRank::new(store.num_vertices(), 4);
        Engine::new(GtsConfig::default())
            .unwrap()
            .run_job(&store, &mut pr, &JobOptions::default())
            .unwrap();
        for (got, want) in pr.ranks().iter().zip(&want) {
            assert!((*got as f64 - want).abs() < 1e-4, "{id}");
        }
    }
}

#[test]
fn bfs_from_every_source_class() {
    // Sources: hub (0), mid-range, isolated-ish tail vertex.
    let graph = rmat(10);
    let store = store_for(&graph, 2048);
    let csr = Csr::from_edge_list(&graph);
    for source in [0u64, 17, 513, 1023] {
        let mut bfs = Bfs::new(store.num_vertices(), source);
        Engine::new(GtsConfig::default())
            .unwrap()
            .run_job(&store, &mut bfs, &JobOptions::default())
            .unwrap();
        assert_eq!(
            bfs.levels_u32(),
            reference::bfs(&csr, source as u32),
            "source {source}"
        );
    }
}
