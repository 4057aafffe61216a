//! Golden-report regression fixtures.
//!
//! The engine's reports, counter registry, and chrome traces for a fixed
//! set of configurations are checked into `tests/golden/` byte-for-byte.
//! Any refactor of the sweep stages that changes a single simulated
//! number, counter, or span shows up as a diff here — the pipeline must
//! be behavior-preserving. (The fixtures were last blessed when the page
//! format gained its checksum trailer, which shrank per-page capacity
//! and therefore shifted every page count and timing.)
//!
//! To regenerate after an *intentional* timing-model change:
//!
//! ```text
//! GTS_BLESS=1 cargo test -p gts-integration --test golden_report
//! ```

use gts_core::engine::{Gts, GtsConfig, StorageLocation};
use gts_core::programs::{Bfs, GtsProgram, PageRank};
use gts_core::{MutationSchedule, Strategy, Telemetry};
use gts_gpu::GpuConfig;
use gts_graph::generate::rmat;
use gts_storage::{
    build_graph_store, GraphStore, MutationBatch, PageFormatConfig, PhysicalIdConfig,
};
use gts_telemetry::keys;
use std::path::PathBuf;

/// A named factory for fresh program instances (each run needs its own).
type ProgramFactory<'a> = (&'a str, Box<dyn Fn() -> Box<dyn GtsProgram>>);

fn store() -> GraphStore {
    build_graph_store(
        &rmat(8),
        PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 1024),
    )
    .unwrap()
}

/// The golden configurations: the paper's single-GPU and multi-GPU
/// Strategy-P/S settings, in-memory and SSD-backed.
fn golden_configs() -> Vec<(&'static str, GtsConfig)> {
    vec![
        ("1gpu_mem", GtsConfig::default()),
        (
            "1gpu_ssd",
            GtsConfig {
                storage: StorageLocation::Ssds(2),
                ..GtsConfig::default()
            },
        ),
        (
            "4gpu_p_ssd",
            GtsConfig {
                num_gpus: 4,
                strategy: Strategy::Performance,
                storage: StorageLocation::Ssds(2),
                ..GtsConfig::default()
            },
        ),
        (
            "4gpu_s_ssd",
            GtsConfig {
                num_gpus: 4,
                strategy: Strategy::Scalability,
                storage: StorageLocation::Ssds(2),
                ..GtsConfig::default()
            },
        ),
    ]
}

fn golden_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/integration; fixtures live in tests/golden.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

fn counters_json(tel: &Telemetry) -> String {
    let mut out = String::from("{\n");
    let counters = tel.counters();
    let mut first = true;
    for (k, v) in &counters {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&format!("  \"{k}\": {v}"));
    }
    out.push_str("\n}\n");
    out
}

fn check_or_bless(name: &str, got: &str, mismatches: &mut Vec<String>) {
    let path = golden_dir().join(name);
    if std::env::var_os("GTS_BLESS").is_some() {
        std::fs::create_dir_all(golden_dir()).unwrap();
        std::fs::write(&path, got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); run with GTS_BLESS=1 to create it",
            path.display()
        )
    });
    if got != want {
        mismatches.push(name.to_string());
    }
}

#[test]
fn reports_counters_and_traces_match_pre_refactor_goldens() {
    let store = store();
    let mut mismatches = Vec::new();
    for (name, cfg) in golden_configs() {
        // Both execution modes: BFS exercises the traversal path
        // (nextPIDSet, frontier bitmaps, final WA write-back), PageRank the
        // sweep path (per-sweep WA broadcast + write-back).
        let runs: Vec<ProgramFactory> = vec![
            (
                "bfs",
                Box::new({
                    let n = store.num_vertices();
                    move || Box::new(Bfs::new(n, 0))
                }),
            ),
            (
                "pagerank",
                Box::new({
                    let n = store.num_vertices();
                    move || Box::new(PageRank::new(n, 3))
                }),
            ),
        ];
        for (alg, mk) in runs {
            let engine = Gts::builder()
                .config(cfg.clone())
                .telemetry(Telemetry::with_spans())
                .build()
                .unwrap();
            let mut prog = mk();
            let report = engine.run(&store, prog.as_mut()).unwrap();
            let tel = engine.telemetry();
            check_or_bless(
                &format!("{name}_{alg}.report.json"),
                &format!("{}\n", report.to_json()),
                &mut mismatches,
            );
            check_or_bless(
                &format!("{name}_{alg}.counters.json"),
                &counters_json(tel),
                &mut mismatches,
            );
            check_or_bless(
                &format!("{name}_{alg}.trace.json"),
                &tel.to_chrome_trace(),
                &mut mismatches,
            );
        }
    }
    assert!(
        mismatches.is_empty(),
        "outputs diverged from pre-refactor goldens: {mismatches:?}\n\
         (if the timing model changed intentionally, re-bless with GTS_BLESS=1)"
    );
}

/// The blessed degraded run: a 4-GPU Strategy-P configuration whose
/// replicated WA cannot fit any single GPU, so the engine records a
/// `degrade.events` step-down to Strategy-S and completes anyway. The
/// fixture pins the degraded timeline — the step-down must stay visible
/// (and deterministic) in report, counters, and trace.
#[test]
fn degraded_oom_step_down_matches_golden() {
    let store = store();
    let v = store.num_vertices();
    let wa = gts_core::attrs::AlgorithmKind::PageRank.wa_bytes(v);
    let page = store.cfg().page_size as u64;
    let streams = 16u64;
    let max_sp_vertices = page / 14; // VID(6) + OFF(4) + ADJLIST_SZ(4)
    let buffers = streams * page * 2 + streams * max_sp_vertices * 4 + store.rvt().memory_bytes();
    // Room for the streaming buffers plus half the WA: Strategy-P's full
    // replica can never fit, a quarter split under Strategy-S can.
    let cfg = GtsConfig {
        num_gpus: 4,
        strategy: Strategy::Performance,
        storage: StorageLocation::Ssds(2),
        gpu: GpuConfig::titan_x().with_device_memory(buffers + wa / 2),
        ..GtsConfig::default()
    };
    let engine = Gts::builder()
        .config(cfg)
        .telemetry(Telemetry::with_spans())
        .build()
        .unwrap();
    let mut pr = PageRank::new(v, 3);
    let report = engine
        .run(&store, &mut pr)
        .expect("step-down must rescue the run");
    let tel = engine.telemetry();
    assert!(
        tel.counter(keys::DEGRADE_EVENTS) >= 1,
        "no step-down recorded"
    );

    let mut mismatches = Vec::new();
    check_or_bless(
        "degraded_4gpu_p_ssd_pagerank.report.json",
        &format!("{}\n", report.to_json()),
        &mut mismatches,
    );
    check_or_bless(
        "degraded_4gpu_p_ssd_pagerank.counters.json",
        &counters_json(tel),
        &mut mismatches,
    );
    check_or_bless(
        "degraded_4gpu_p_ssd_pagerank.trace.json",
        &tel.to_chrome_trace(),
        &mut mismatches,
    );
    assert!(
        mismatches.is_empty(),
        "degraded run diverged from its blessed fixture: {mismatches:?}\n\
         (if the degradation ladder changed intentionally, re-bless with GTS_BLESS=1)"
    );
}

/// The blessed live run: BFS streaming from the 2-SSD array while one
/// hand-built batch (a burst of inserts on one vertex, enough to spill
/// into a delta page, plus four deletes) lands at the boundary of
/// sweep 1. Pins what a mutation does to the timeline — rewritten and
/// delta pages, cache invalidations, the epoch bump, the re-streamed
/// pages — to the simulated nanosecond.
#[test]
fn live_mutation_run_matches_golden() {
    let mut store = store();
    let mut batch = MutationBatch::new();
    for d in 0..96 {
        batch.insert(3, (7 * d + 5) % store.num_vertices());
    }
    let mut doomed = store.decode_edges();
    doomed.dedup();
    for &(s, d) in &doomed[..4] {
        batch.delete(s, d);
    }
    let engine = Gts::builder()
        .config(GtsConfig {
            storage: StorageLocation::Ssds(2),
            ..GtsConfig::default()
        })
        .build()
        .unwrap();
    let mut bfs = Bfs::new(store.num_vertices(), 0);
    let report = engine
        .run_live(&mut store, &mut bfs, MutationSchedule::new().at(1, batch))
        .unwrap();
    let tel = engine.telemetry();
    assert_eq!(tel.counter(keys::MUT_BATCHES), 1, "the batch applied");
    assert!(tel.counter(keys::MUT_DELTA_PAGES) >= 1, "no delta page");

    let mut mismatches = Vec::new();
    check_or_bless(
        "live_1gpu_ssd_bfs.report.json",
        &format!("{}\n", report.to_json()),
        &mut mismatches,
    );
    check_or_bless(
        "live_1gpu_ssd_bfs.counters.json",
        &counters_json(tel),
        &mut mismatches,
    );
    assert!(
        mismatches.is_empty(),
        "live run diverged from its blessed fixture: {mismatches:?}\n\
         (if the mutation pipeline's timing changed intentionally, re-bless with GTS_BLESS=1)"
    );
}
