//! Chaos property tests for the fault-injection subsystem.
//!
//! The contract under test: for ANY seeded [`FaultConfig`], a run either
//! completes with results **byte-identical** to the fault-free run (the
//! injected faults visible only in counters, spans, and added simulated
//! time), or fails with a **typed** [`EngineError`] — never a panic, and
//! never silently wrong ranks/levels. Either way the outcome must be
//! identical at every `--host-threads` value, because all fault decisions
//! are drawn from the serial accounting phase.
//!
//! Like the repo's other sampling-based property tests, this sweeps a
//! fixed seed set rather than pulling in a property-testing framework.

use gts_core::engine::{EngineError, GtsConfig, StorageLocation};
use gts_core::programs::{Bfs, PageRank};
use gts_core::{Engine, JobOptions};
use gts_core::{FaultConfig, Strategy, Telemetry};
use gts_graph::generate::rmat;
use gts_sim::SimDuration;
use gts_storage::{build_graph_store, GraphStore, PageFormatConfig, PhysicalIdConfig};
use gts_telemetry::keys;

fn store() -> GraphStore {
    build_graph_store(
        &rmat(9),
        PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 1024),
    )
    .unwrap()
}

/// The 4-GPU Strategy-P SSD configuration the chaos CI job sweeps: every
/// fault domain is exercised (striped drives, H2D copies, kernel
/// launches) and the MMBuf is disabled so each sweep really re-reads.
fn chaos_config(host_threads: usize) -> GtsConfig {
    GtsConfig {
        num_gpus: 4,
        strategy: Strategy::Performance,
        storage: StorageLocation::Ssds(2),
        mmbuf_percent: 0,
        cache_limit_bytes: Some(0),
        host_threads,
        ..GtsConfig::default()
    }
}

/// One observed run: the program results plus everything the engine
/// reported, so outcomes can be compared byte-for-byte.
struct Observed {
    result: Result<String, EngineError>,
    ranks: Vec<f64>,
    counters: std::collections::BTreeMap<String, u64>,
    elapsed_ns: u64,
}

fn observe(store: &GraphStore, host_threads: usize, faults: Option<FaultConfig>) -> Observed {
    let engine = Engine::new(chaos_config(host_threads)).unwrap();
    let opts = JobOptions {
        faults,
        ..JobOptions::with_telemetry(Telemetry::with_spans())
    };
    let mut pr = PageRank::new(store.num_vertices(), 3);
    let result = engine.run_job(store, &mut pr, &opts).map(|r| r.to_json());
    let tel = &opts.telemetry;
    Observed {
        result,
        ranks: pr.ranks().iter().map(|&r| f64::from(r)).collect(),
        counters: tel.counters(),
        elapsed_ns: tel.counter(keys::RUN_ELAPSED_NS),
    }
}

/// Any seeded plan at the default (recoverable) rates completes with
/// results identical to the fault-free run, faults visible only in the
/// counters and the added simulated time.
#[test]
fn recoverable_fault_seeds_preserve_results_exactly() {
    let store = store();
    let clean = observe(&store, 1, None);
    let clean_json = clean.result.expect("fault-free run completes");
    let mut recovered_something = false;
    for seed in [1u64, 2, 3, 0x5EED, 0xFA157, 0xDEAD_BEEF] {
        let faulty = observe(&store, 1, Some(FaultConfig::with_seed(seed)));
        let json = faulty
            .result
            .unwrap_or_else(|e| panic!("seed {seed}: default rates must recover, got {e}"));
        assert_eq!(faulty.ranks, clean.ranks, "seed {seed}: ranks diverged");
        assert!(
            faulty.elapsed_ns >= clean.elapsed_ns,
            "seed {seed}: recovery cannot be free"
        );
        let retries = faulty
            .counters
            .iter()
            .filter(|(k, _)| k.contains("retries") || k.contains("faults"))
            .map(|(_, v)| v)
            .sum::<u64>();
        if retries > 0 {
            recovered_something = true;
            assert_ne!(json, clean_json, "seed {seed}: retries must cost time");
        }
    }
    assert!(
        recovered_something,
        "seed set too quiet to exercise recovery — pick livelier seeds"
    );
}

/// Hostile plans (high rates, no retry budget) must fail with a *typed*
/// error, not a panic and not silently wrong results; gentler plans must
/// recover. Whatever the outcome, it is identical at 1 and 4 host
/// threads: fault draws live only in the serial accounting phase.
#[test]
fn any_seed_recovers_or_fails_typed_and_host_threads_never_matter() {
    let store = store();
    let clean = observe(&store, 1, None);
    let mut failures = 0u32;
    for seed in 0u64..12 {
        // Escalate rates with the seed index so the sweep crosses the
        // recover/fail boundary instead of clustering on one side.
        let cfg = FaultConfig {
            read_error_ppm: 30_000 * (seed as u32 + 1),
            corrupt_page_ppm: 20_000 * (seed as u32 + 1),
            max_retries: (4u32).saturating_sub(seed as u32 / 3),
            quarantine_after: 2,
            backoff: SimDuration::from_micros(50),
            ..FaultConfig::with_seed(seed)
        };
        let a = observe(&store, 1, Some(cfg.clone()));
        let b = observe(&store, 4, Some(cfg));
        match (&a.result, &b.result) {
            (Ok(ja), Ok(jb)) => {
                assert_eq!(ja, jb, "seed {seed}: report differs across host threads");
                assert_eq!(a.ranks, clean.ranks, "seed {seed}: silently wrong ranks");
            }
            (Err(ea), Err(eb)) => {
                failures += 1;
                assert_eq!(
                    ea.to_string(),
                    eb.to_string(),
                    "seed {seed}: error differs across host threads"
                );
                // Failed runs still flush telemetry (partial trace support).
                assert!(a.counters.iter().any(|(k, _)| k == keys::RUN_GPUS));
            }
            (x, y) => panic!("seed {seed}: outcome depends on host threads: {x:?} vs {y:?}"),
        }
        assert_eq!(
            a.counters, b.counters,
            "seed {seed}: counters differ across host threads"
        );
    }
    assert!(
        failures > 0,
        "escalating rates never produced a typed failure — the failing \
         half of the property is untested"
    );
}

/// BFS exercises the traversal path (frontier bitmaps, nextPIDSet) under
/// the same contract: recoverable faults leave levels untouched.
#[test]
fn bfs_results_survive_recoverable_faults() {
    let store = store();
    let run = |faults: Option<FaultConfig>| {
        let engine = Engine::new(chaos_config(2)).unwrap();
        let opts = JobOptions {
            faults,
            ..JobOptions::default()
        };
        let mut bfs = Bfs::new(store.num_vertices(), 0);
        engine.run_job(&store, &mut bfs, &opts).unwrap();
        bfs.levels().to_vec()
    };
    let clean = run(None);
    for seed in [7u64, 0xB0B] {
        assert_eq!(
            run(Some(FaultConfig::with_seed(seed))),
            clean,
            "seed {seed}"
        );
    }
}
