//! Host parallelism must be invisible in every observable output: reports,
//! counters, and chrome traces are byte-identical for any `host_threads`
//! value (ISSUE: real wall-clock may improve, simulated numbers may not).

use gts_core::engine::{GtsConfig, StorageLocation};
use gts_core::programs::{by_name, Bfs, GtsProgram, PageRank};
use gts_core::Telemetry;
use gts_core::{Engine, JobOptions};
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
    run_artifacts(s, host_threads, mk_prog(s.num_vertices()).as_mut())
}

fn run_artifacts(
    s: &GraphStore,
    host_threads: usize,
    prog: &mut dyn GtsProgram,
) -> (String, String, String) {
    let cfg = GtsConfig {
        storage: StorageLocation::Ssds(2),
        num_streams: 8,
        host_threads,
        ..GtsConfig::default()
    };
    let engine = Engine::new(cfg).unwrap();
    let opts = JobOptions::with_telemetry(Telemetry::with_spans());
    let report = engine.run_job(s, prog, &opts).unwrap();
    let counters = format!("{:?}", opts.telemetry.counters());
    (report.to_json(), counters, opts.telemetry.to_chrome_trace())
}

#[test]
fn pagerank_artifacts_are_byte_identical_across_thread_counts() {
    // PageRank is a `Kernel::Sum` (pages run on the pool); its fixed-point
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
    // BFS is a `Kernel::InOrder` (claim order matters), so every thread
    // count runs its pages on the calling thread — trivially identical,
    // but this pins that in place.
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
        Engine::new(cfg)
            .unwrap()
            .run_job(&s, &mut pr, &JobOptions::default())
            .unwrap();
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

#[test]
fn every_lane_program_is_thread_invariant_with_large_pages_and_with_few_pages() {
    // All three sum kernels scatter into per-worker lanes (worker 0's is
    // the program's accumulator). Their result vectors (`save_state` holds
    // them bit for bit) and every artifact must not depend on how many
    // lanes there were — on a store whose hub spans
    // Large-Page chunks, and on one with fewer Small Pages than threads.
    let hub = store();
    assert!(!hub.large_pids().is_empty());
    let tiny = build_graph_store(
        &rmat(7),
        PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 2048),
    )
    .unwrap();
    assert!((2..8).contains(&tiny.small_pids().len()));
    for s in [&hub, &tiny] {
        for name in ["pagerank", "rwr", "degrees"] {
            let run = |threads| {
                let mut prog = by_name(name, s.num_vertices(), 1, 4, 2).unwrap();
                let artifacts = run_artifacts(s, threads, prog.as_mut());
                (artifacts, prog.save_state())
            };
            let serial = run(1);
            for threads in [2, 3, 8] {
                assert!(run(threads) == serial, "{name}, threads={threads}");
            }
        }
    }
}
