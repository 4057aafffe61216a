//! Host parallelism must be invisible in every observable output: reports,
//! counters, and chrome traces are byte-identical for any `host_threads`
//! value (ISSUE: real wall-clock may improve, simulated numbers may not).

use gts_core::engine::{Gts, GtsConfig, StorageLocation};
use gts_core::programs::{Bfs, GtsProgram, PageRank};
use gts_core::Telemetry;
use gts_graph::generate::rmat;
use gts_storage::{build_graph_store, GraphStore, PageFormatConfig, PhysicalIdConfig};

fn store() -> GraphStore {
    build_graph_store(
        &rmat(11),
        PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 2048),
    )
    .unwrap()
}

/// Run `mk_prog` under `host_threads` and return every observable artifact
/// as strings: the report JSON, the full counter map, and the chrome trace.
fn artifacts(
    s: &GraphStore,
    host_threads: usize,
    mk_prog: impl Fn(u64) -> Box<dyn GtsProgram>,
) -> (String, String, String) {
    let cfg = GtsConfig {
        storage: StorageLocation::Ssds(2),
        num_streams: 8,
        host_threads,
        ..GtsConfig::default()
    };
    let engine = Gts::builder()
        .config(cfg)
        .telemetry(Telemetry::with_spans())
        .build()
        .unwrap();
    let mut prog = mk_prog(s.num_vertices());
    let report = engine.run(s, prog.as_mut()).unwrap();
    let counters = format!("{:?}", engine.telemetry().counters());
    (
        report.to_json(),
        counters,
        engine.telemetry().to_chrome_trace(),
    )
}

#[test]
fn pagerank_artifacts_are_byte_identical_across_thread_counts() {
    // PageRank opts into the shared (parallel) kernel path; its fixed-point
    // accumulator makes the scatter order invisible.
    let s = store();
    let serial = artifacts(&s, 1, |n| Box::new(PageRank::new(n, 5)));
    for threads in [2, 4] {
        let par = artifacts(&s, threads, |n| Box::new(PageRank::new(n, 5)));
        assert_eq!(par.0, serial.0, "report JSON, threads={threads}");
        assert_eq!(par.1, serial.1, "counters, threads={threads}");
        assert_eq!(par.2, serial.2, "chrome trace, threads={threads}");
    }
}

#[test]
fn bfs_artifacts_are_byte_identical_across_thread_counts() {
    // BFS has no shared kernel (claim order matters), so every thread
    // count must take the serial fallback — trivially identical, but this
    // pins the fallback in place.
    let s = store();
    let serial = artifacts(&s, 1, |n| Box::new(Bfs::new(n, 0)));
    let par = artifacts(&s, 4, |n| Box::new(Bfs::new(n, 0)));
    assert_eq!(par, serial);
}

#[test]
fn pagerank_results_match_serial_exactly() {
    // Not just the artifacts: the rank vector itself is bit-identical.
    let s = store();
    let run = |threads| {
        let cfg = GtsConfig {
            host_threads: threads,
            ..GtsConfig::default()
        };
        let mut pr = PageRank::new(s.num_vertices(), 5);
        Gts::new(cfg).run(&s, &mut pr).unwrap();
        pr.ranks().to_vec()
    };
    let serial = run(1);
    for threads in [2, 4, 8] {
        assert_eq!(
            run(threads).iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
            serial.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
            "threads={threads}"
        );
    }
}
