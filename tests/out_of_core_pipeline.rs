//! The out-of-core pipeline across crates: graphs streamed from simulated
//! secondary storage through MMBuf to the GPUs, with correct results and
//! sensible timing relationships.

use gts_core::engine::{GtsConfig, StorageLocation};
use gts_core::programs::{Bfs, PageRank};
use gts_core::{Engine, JobOptions};
use gts_graph::generate::rmat;
use gts_graph::{reference, Csr};
use gts_sim::SimDuration;
use gts_storage::{build_graph_store, GraphStore, PageFormatConfig, PhysicalIdConfig};

fn store() -> GraphStore {
    build_graph_store(
        &rmat(12),
        PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 4096),
    )
    .unwrap()
}

fn pr_elapsed(store: &GraphStore, cfg: GtsConfig) -> SimDuration {
    let mut pr = PageRank::new(store.num_vertices(), 3);
    Engine::new(cfg)
        .unwrap()
        .run_job(store, &mut pr, &JobOptions::default())
        .unwrap()
        .elapsed
}

#[test]
fn results_identical_across_storage_backends() {
    let graph = rmat(12);
    let store = build_graph_store(
        &graph,
        PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 4096),
    )
    .unwrap();
    let want = reference::bfs(&Csr::from_edge_list(&graph), 0);
    for storage in [
        StorageLocation::InMemory,
        StorageLocation::Ssds(1),
        StorageLocation::Ssds(4),
        StorageLocation::Hdds(2),
    ] {
        let cfg = GtsConfig {
            storage,
            mmbuf_percent: 10,
            ..GtsConfig::default()
        };
        let mut bfs = Bfs::new(store.num_vertices(), 0);
        Engine::new(cfg)
            .unwrap()
            .run_job(&store, &mut bfs, &JobOptions::default())
            .unwrap();
        assert_eq!(bfs.levels_u32(), want, "{storage:?}");
    }
}

#[test]
fn storage_hierarchy_ordering_holds() {
    let s = store();
    let cfg = |storage| GtsConfig {
        storage,
        mmbuf_percent: 0,
        cache_limit_bytes: Some(0),
        ..GtsConfig::default()
    };
    let memory = pr_elapsed(&s, cfg(StorageLocation::InMemory));
    let ssd2 = pr_elapsed(&s, cfg(StorageLocation::Ssds(2)));
    let ssd1 = pr_elapsed(&s, cfg(StorageLocation::Ssds(1)));
    let hdd2 = pr_elapsed(&s, cfg(StorageLocation::Hdds(2)));
    assert!(memory <= ssd2, "{memory} vs {ssd2}");
    assert!(ssd2 < ssd1, "{ssd2} vs {ssd1}");
    assert!(ssd1 < hdd2, "{ssd1} vs {hdd2}");
    assert!(
        hdd2.as_secs_f64() > 5.0 * ssd1.as_secs_f64(),
        "HDDs must be dramatically slower (Fig. 9)"
    );
}

#[test]
fn more_ssds_help_when_io_bound() {
    let s = store();
    let cfg = |n| GtsConfig {
        storage: StorageLocation::Ssds(n),
        mmbuf_percent: 0,
        cache_limit_bytes: Some(0),
        ..GtsConfig::default()
    };
    let one = pr_elapsed(&s, cfg(1));
    let two = pr_elapsed(&s, cfg(2));
    assert!(two < one, "striping must increase I/O bandwidth");
}

#[test]
fn mmbuf_absorbs_repeat_fetches() {
    let s = store();
    let run = |percent| {
        let cfg = GtsConfig {
            storage: StorageLocation::Hdds(1),
            mmbuf_percent: percent,
            cache_limit_bytes: Some(0),
            ..GtsConfig::default()
        };
        pr_elapsed(&s, cfg)
    };
    // PageRank revisits every page each iteration: a full-size MMBuf turns
    // iterations 2..n into memory reads.
    let without = run(0);
    let with = run(100);
    assert!(
        with.as_secs_f64() < without.as_secs_f64() * 0.6,
        "MMBuf must absorb most re-reads: {with} vs {without}"
    );
}

#[test]
fn fully_cached_pages_generate_no_storage_or_transfer_traffic() {
    // With the device cache left at its (huge) default, sweep 0 of a
    // multi-iteration PageRank cold-loads every page exactly once; every
    // later sweep must be served entirely from the GPU cache — zero SSD
    // reads, zero MMBuf lookups, zero H2D page transfers beyond sweep 0.
    let s = store();
    let cfg = GtsConfig {
        storage: StorageLocation::Ssds(1),
        mmbuf_percent: 10,
        ..GtsConfig::default()
    };
    let engine = Engine::new(cfg).unwrap();
    let opts = JobOptions::default();
    let mut pr = PageRank::new(s.num_vertices(), 4);
    let report = engine.run_job(&s, &mut pr, &opts).unwrap();
    let tel = &opts.telemetry;
    let pages = s.num_pages();

    // Streaming happened exactly once per page, all in sweep 0.
    assert_eq!(report.pages_streamed, pages);
    assert_eq!(
        tel.counter(gts_telemetry::keys::IO_BYTES_READ),
        pages * 4096
    );
    // MMBuf only ever saw the cold sweep (all misses, no repeat lookups).
    assert_eq!(tel.counter(gts_telemetry::keys::MMBUF_MISSES), pages);
    assert_eq!(tel.counter(gts_telemetry::keys::MMBUF_HITS), 0);
    // Sweeps 1.. ran fully out of the device cache.
    assert_eq!(report.sweeps, 4);
    for j in 1..report.sweeps {
        let swept = tel.counter(gts_telemetry::keys::sweep(
            j,
            gts_telemetry::keys::SWEEP_PAGES,
        ));
        let hits = tel.counter(gts_telemetry::keys::sweep(
            j,
            gts_telemetry::keys::SWEEP_CACHE_HITS,
        ));
        assert_eq!(swept, pages, "sweep {j} must visit every page");
        assert_eq!(hits, pages, "sweep {j} must be fully cache-resident");
    }
    assert_eq!(
        tel.counter(gts_telemetry::keys::sweep(
            0,
            gts_telemetry::keys::SWEEP_CACHE_HITS
        )),
        0,
        "sweep 0 is the cold load"
    );
}

#[test]
fn bfs_streams_only_frontier_pages() {
    // A line graph: each level touches one page's worth of vertices; the
    // engine must not stream the whole store per level.
    let n: u32 = 4096;
    let graph = gts_graph::EdgeList::new(n, (0..n - 1).map(|i| (i, i + 1)).collect());
    let store = build_graph_store(
        &graph,
        PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 1024),
    )
    .unwrap();
    let cfg = GtsConfig {
        cache_limit_bytes: Some(0),
        ..GtsConfig::default()
    };
    let mut bfs = Bfs::new(store.num_vertices(), 0);
    let report = Engine::new(cfg)
        .unwrap()
        .run_job(&store, &mut bfs, &JobOptions::default())
        .unwrap();
    // Each level marks at most 2 pages (the current and next run of
    // consecutive vertices); a full-broadcast engine would stream
    // pages × levels ≈ num_pages × 4095.
    // Frontier streaming touches exactly one page per level here (4096
    // streams); a full-broadcast engine would stream pages × levels.
    let worst = store.num_pages() * report.sweeps as u64;
    assert!(
        report.pages_streamed <= report.sweeps as u64,
        "streamed {} pages over {} levels (worst case {})",
        report.pages_streamed,
        report.sweeps,
        worst
    );
}
