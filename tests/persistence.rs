//! On-disk store persistence across crates: a store saved to a GTSPAGES
//! file and loaded back must be a drop-in replacement — identical results
//! *and* identical simulated timing under every engine configuration.

use gts_core::engine::{GtsConfig, StorageLocation};
use gts_core::programs::{Bfs, GtsProgram, PageRank};
use gts_core::Strategy;
use gts_core::{Engine, JobOptions};
use gts_graph::generate::rmat;
use gts_graph::EdgeList;
use gts_storage::{
    build_graph_store, load_store, save_store, MutationBatch, PageFormatConfig, PhysicalIdConfig,
};

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("gts-it-persist-{}-{name}", std::process::id()));
    p
}

#[test]
fn loaded_store_is_a_drop_in_replacement() {
    let graph = rmat(11);
    let built = build_graph_store(
        &graph,
        PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 2048),
    )
    .unwrap();
    let path = tmp("dropin");
    save_store(&built, &path).unwrap();
    let loaded = load_store(&path).unwrap();
    std::fs::remove_file(&path).ok();

    for cfg in [
        GtsConfig::default(),
        GtsConfig {
            num_gpus: 2,
            strategy: Strategy::Scalability,
            storage: StorageLocation::Ssds(2),
            mmbuf_percent: 10,
            ..GtsConfig::default()
        },
    ] {
        let mut a = Bfs::new(built.num_vertices(), 0);
        let ra = Engine::new(cfg.clone())
            .unwrap()
            .run_job(&built, &mut a, &JobOptions::default())
            .unwrap();
        let mut b = Bfs::new(loaded.num_vertices(), 0);
        let rb = Engine::new(cfg.clone())
            .unwrap()
            .run_job(&loaded, &mut b, &JobOptions::default())
            .unwrap();
        assert_eq!(a.levels(), b.levels());
        assert_eq!(ra.elapsed, rb.elapsed, "timing must be identical too");
        assert_eq!(ra.pages_streamed, rb.pages_streamed);

        let mut pa = PageRank::new(built.num_vertices(), 3);
        Engine::new(cfg.clone())
            .unwrap()
            .run_job(&built, &mut pa, &JobOptions::default())
            .unwrap();
        let mut pb = PageRank::new(loaded.num_vertices(), 3);
        Engine::new(cfg)
            .unwrap()
            .run_job(&loaded, &mut pb, &JobOptions::default())
            .unwrap();
        assert_eq!(pa.ranks(), pb.ranks(), "f32 ranks must be bit-identical");
    }
}

/// A mutated store whose last base page ends vertex 300's Large run, with
/// the delta page a batch appended for that vertex right after it, runs
/// as its reload does: the same report and result for BFS and PageRank,
/// in memory and out of core.
#[test]
fn a_mutated_store_with_a_tail_run_and_its_reload_run_alike() {
    // A chain 0 → … → 300, and vertex 300's 300 out-edges: the last run.
    let mut edges: Vec<(u32, u32)> = (0..300).map(|v| (v, v + 1)).collect();
    edges.extend((0..300).map(|d| (300, d)));
    let cfg = PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 256);
    let mut store = build_graph_store(&EdgeList::new(301, edges), cfg).unwrap();
    let last_base = store.num_pages() - 1;
    let mut batch = MutationBatch::new();
    for d in 0..60 {
        batch.insert(300, d);
    }
    store.apply_mutations(&batch).unwrap();
    assert_eq!(store.delta_pids_of(300), [last_base + 1]);
    let path = tmp("tail-run");
    save_store(&store, &path).unwrap();
    let loaded = load_store(&path).unwrap();
    std::fs::remove_file(&path).ok();

    for cfg in [
        GtsConfig::default(),
        GtsConfig {
            num_gpus: 2,
            strategy: Strategy::Scalability,
            storage: StorageLocation::Ssds(2),
            cache_limit_bytes: Some(4 * 256),
            ..GtsConfig::default()
        },
    ] {
        let engine = Engine::new(cfg).unwrap();
        let run = |prog: &mut dyn GtsProgram, store| {
            let report = engine.run_job(store, prog, &JobOptions::default()).unwrap();
            (report.to_json(), prog.summary())
        };
        let n = store.num_vertices();
        assert_eq!(
            run(&mut Bfs::new(n, 0), &loaded),
            run(&mut Bfs::new(n, 0), &store)
        );
        assert_eq!(
            run(&mut PageRank::new(n, 3), &loaded),
            run(&mut PageRank::new(n, 3), &store)
        );
    }
}

#[test]
fn save_load_save_is_byte_stable() {
    let graph = rmat(10);
    let store = build_graph_store(
        &graph,
        PageFormatConfig::new(PhysicalIdConfig::TRILLION, 4096),
    )
    .unwrap();
    let p1 = tmp("stable1");
    let p2 = tmp("stable2");
    save_store(&store, &p1).unwrap();
    let loaded = load_store(&p1).unwrap();
    save_store(&loaded, &p2).unwrap();
    let b1 = std::fs::read(&p1).unwrap();
    let b2 = std::fs::read(&p2).unwrap();
    std::fs::remove_file(&p1).ok();
    std::fs::remove_file(&p2).ok();
    assert_eq!(b1, b2, "round-tripping must be byte-identical");
}
