//! Golden fixture for every hosted program.
//!
//! Each row of `programs::ALGORITHMS` runs on an `rmat(11)` store whose
//! hub spans Large-Page runs, under two configurations: one GPU in
//! memory, and two GPUs under Strategy-S streaming from two SSDs through
//! an LRU page cache small enough to evict. `tests/golden/programs.txt`
//! pins each run's report JSON, its full counter registry (the job is
//! tenant-tagged, so the registry carries `tenant.t.cache.evictions`) and
//! an fnv1a of the program's saved state. A change to planning, the
//! frontier or the page cache that moves any simulated number or any
//! answer shows up as a diff here.
//!
//! To regenerate after an *intentional* timing-model change:
//!
//! ```text
//! GTS_BLESS=1 cargo test -p gts-integration --test golden_programs
//! ```

use gts_core::engine::{CachePolicyKind, GtsConfig, StorageLocation};
use gts_core::programs::{by_name, ALGORITHMS};
use gts_core::{Engine, JobOptions, Strategy, Telemetry};
use gts_gpu::GpuConfig;
use gts_graph::generate::rmat;
use gts_storage::{build_graph_store, GraphStore, PageFormatConfig, PhysicalIdConfig};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Per-GPU device memory of the streaming configuration: the buffers and
/// the RVT fit, and the leftover page cache holds a fraction of the store.
const SMALL_DEVICE: u64 = 176 << 10;
const EVICTIONS: &str = "tenant.t.cache.evictions";

fn store() -> GraphStore {
    build_graph_store(
        &rmat(11),
        PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 2048),
    )
    .unwrap()
}

fn configs() -> [(&'static str, GtsConfig); 2] {
    [
        ("1gpu_mem", GtsConfig::default()),
        (
            "2gpu_s_ssd_lru",
            GtsConfig {
                num_gpus: 2,
                strategy: Strategy::Scalability,
                storage: StorageLocation::Ssds(2),
                cache_policy: CachePolicyKind::Lru,
                gpu: GpuConfig::titan_x().with_device_memory(SMALL_DEVICE),
                degrade_on_oom: false,
                ..GtsConfig::default()
            },
        ),
    ]
}

/// Every program under every configuration; also returns the streaming
/// configuration's total evictions, so the test can insist they happen.
fn render(store: &GraphStore) -> (String, u64) {
    let mut out = String::new();
    let mut evictions = 0;
    for (label, cfg) in configs() {
        let engine = Engine::new(cfg).unwrap();
        for alg in ALGORITHMS {
            let mut prog = by_name(alg.name, store.num_vertices(), 0, 3, 2).unwrap();
            let opts = JobOptions::with_telemetry(Telemetry::new()).tenant("t");
            let report = engine
                .run_job(store, prog.as_mut(), &opts)
                .unwrap_or_else(|e| panic!("{label} {}: {e}", alg.name));
            let state = gts_ckpt::fnv1a(&prog.save_state());
            writeln!(out, "== {label} {} ==", alg.name).unwrap();
            writeln!(out, "state fnv1a {state:016x}").unwrap();
            writeln!(out, "{}", report.to_json()).unwrap();
            let counters = opts.telemetry.counters();
            for (k, v) in &counters {
                writeln!(out, "{k} {v}").unwrap();
            }
            if label != "1gpu_mem" {
                evictions += counters.get(EVICTIONS).copied().unwrap_or(0);
            }
        }
    }
    (out, evictions)
}

#[test]
fn every_program_matches_its_golden() {
    let store = store();
    assert!(!store.large_pids().is_empty(), "the hub must span LP runs");
    let (got, evictions) = render(&store);
    assert!(evictions > 0, "the streaming config must evict");
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/programs.txt");
    if std::env::var_os("GTS_BLESS").is_some() {
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); run with GTS_BLESS=1 to create it",
            path.display()
        )
    });
    if got != want {
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(got.lines().count().min(want.lines().count()));
        panic!(
            "programs diverged from tests/golden/programs.txt at line {}\n\
             (if the timing model changed intentionally, re-bless with GTS_BLESS=1)",
            line + 1
        );
    }
}
