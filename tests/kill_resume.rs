//! Kill-and-resume chaos tests for crash-consistent checkpoint/restart.
//!
//! The contract under test: a run that is killed at *any* durable I/O
//! step of its checkpoint store or WAL and restarted with `resume`
//! produces a final report, counter registry, and program results
//! **byte-identical** to the same run never having crashed — at every
//! `--host-threads` value. Only the wall-side durability counters are
//! outside the contract (`ckpt.*` measures real snapshot I/O, `wal.*`
//! counts appends a recovery legitimately skips), so comparisons drop
//! them. A published snapshot that has rotted since
//! must be detected by its checksum and the previous snapshot used
//! instead. Watchdog deadlines must surface
//! as typed [`EngineError::DeadlineExceeded`] after flushing a final
//! checkpoint and the telemetry trace — never a panic, never a hang.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use gts_ckpt::{CkptError, CkptStore};
use gts_core::engine::{
    CachePolicyKind, CheckpointConfig, EngineError, Gts, GtsConfig, StorageLocation,
};
use gts_core::programs::{Bfs, PageRank};
use gts_core::{store_fingerprint, FaultConfig, MutationSchedule, Strategy, Telemetry};
use gts_graph::generate::rmat;
use gts_storage::{
    build_graph_store, GraphStore, MutationBatch, PageFormatConfig, PhysicalIdConfig,
};

fn store() -> GraphStore {
    build_graph_store(
        &rmat(9),
        PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 1024),
    )
    .unwrap()
}

/// Fresh per-test scratch directory (removed up-front so reruns of a
/// failed test never resume from stale snapshots).
fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("gts-it-ckpt-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&p).ok();
    p
}

/// The CI kill-resume configuration: 4-GPU Strategy-P over striped SSDs
/// with the MMBuf enabled, so resume must reproduce cold-buffer
/// boundaries, and checkpoints every 2 sweeps.
fn ck_config(host_threads: usize, dir: &Path, seed: u64, crash: Option<u64>) -> GtsConfig {
    GtsConfig {
        num_gpus: 4,
        strategy: Strategy::Performance,
        storage: StorageLocation::Ssds(2),
        mmbuf_percent: 20,
        host_threads,
        faults: Some(FaultConfig {
            crash,
            ..FaultConfig::with_seed(seed)
        }),
        checkpoint: Some(CheckpointConfig::new(dir, 2)),
        ..GtsConfig::default()
    }
}

/// One observed run: report JSON, program ranks, and the counter
/// registry with the wall-side `ckpt.*` / `wal.*` keys dropped.
struct Observed {
    result: Result<String, EngineError>,
    ranks: Vec<f64>,
    counters: BTreeMap<String, u64>,
}

fn observe(store: &GraphStore, cfg: GtsConfig) -> Observed {
    observe_live(&mut store.clone(), cfg, MutationSchedule::new())
}

fn observe_live(store: &mut GraphStore, cfg: GtsConfig, schedule: MutationSchedule) -> Observed {
    let engine = Gts::builder()
        .config(cfg)
        .telemetry(Telemetry::with_spans())
        .build()
        .unwrap();
    let mut pr = PageRank::new(store.num_vertices(), 8);
    let result = engine
        .run_live(store, &mut pr, schedule)
        .map(|r| r.to_json());
    Observed {
        result,
        ranks: pr.ranks().iter().map(|&r| f64::from(r)).collect(),
        counters: engine.telemetry().contract_counters(),
    }
}

/// The exhaustive crash sweep. The configuration is [`ck_config`] plus
/// everything durable a solo run can do: a WAL, one mutation batch at
/// sweep 3, a scrub pass every 2 sweeps and seeded bit rot. Kill the run
/// at durable step `k = 0, 1, 2, …` until one survives (that `k` is the
/// step count). Every kill is the typed crash; the restarted run — fresh
/// store, same directories, `resume` — or, when the kill left no snapshot
/// to resume from, a re-run, is byte-identical to the uncrashed run:
/// report, ranks, contract counters, store fingerprint, and no `*.tmp`
/// left behind. Durable I/O happens only in serial phases, so the step
/// count is the same at 1 and 4 host threads.
#[test]
fn kill_at_every_durable_step_then_resume_is_byte_identical() {
    let base = store();
    let schedule = || {
        let mut batch = MutationBatch::new();
        for d in 0..32 {
            batch.insert(7, 11 * d + 1);
        }
        let mut doomed = base.decode_edges();
        doomed.dedup();
        for &(s, d) in &doomed[..4] {
            batch.delete(s, d);
        }
        MutationSchedule::new().at(3, batch)
    };
    let cfg = |threads: usize, dirs: &[PathBuf; 2], resume: bool, crash: Option<u64>| {
        let ck = CheckpointConfig::new(&dirs[0], 2);
        GtsConfig {
            faults: Some(FaultConfig {
                crash,
                bit_rot_ppm: 10_000,
                ..FaultConfig::with_seed(0xA11CE)
            }),
            checkpoint: Some(if resume { ck.resuming() } else { ck }),
            wal_dir: Some(dirs[1].clone()),
            scrub_every: Some(2),
            ..ck_config(threads, &dirs[0], 0xA11CE, None)
        }
    };
    let mut cells: Vec<(u64, String)> = Vec::new();
    for threads in [1usize, 4] {
        let base_dirs = [
            tmp(&format!("sweep-base-ck-{threads}")),
            tmp(&format!("sweep-base-wal-{threads}")),
        ];
        let mut clean_store = base.clone();
        let clean = observe_live(
            &mut clean_store,
            cfg(threads, &base_dirs, false, None),
            schedule(),
        );
        let clean_json = clean.result.expect("uncrashed run completes");
        assert_eq!(clean_store.epoch(), 1, "the batch applied");
        assert!(clean.counters["scrub.errors"] > 0, "the rot must bite");

        let dirs = [
            tmp(&format!("sweep-ck-{threads}")),
            tmp(&format!("sweep-wal-{threads}")),
        ];
        let mut k = 0u64;
        loop {
            for d in &dirs {
                std::fs::remove_dir_all(d).ok();
            }
            let what = format!("{threads} threads, step {k}");
            let killed = observe_live(
                &mut base.clone(),
                cfg(threads, &dirs, false, Some(k)),
                schedule(),
            );
            match killed.result {
                // No step was left to kill: `k` is the step count.
                Ok(json) => {
                    assert_eq!(json, clean_json, "{what}");
                    break;
                }
                Err(EngineError::InjectedCrash { step }) if step == k => {}
                Err(other) => panic!("{what}: expected the injected crash, got {other:?}"),
            }
            // The dead process's memory is gone: restart over a fresh
            // store. A kill before the first manifest was renamed into
            // place leaves nothing to resume; re-run instead.
            let mut st = base.clone();
            let mut resumed = observe_live(&mut st, cfg(threads, &dirs, true, None), schedule());
            if let Err(EngineError::Checkpoint(CkptError::NoSnapshot { .. })) = resumed.result {
                st = base.clone();
                resumed = observe_live(&mut st, cfg(threads, &dirs, false, None), schedule());
            }
            assert_eq!(
                resumed.result.expect("restart completes"),
                clean_json,
                "{what}"
            );
            assert_eq!(resumed.ranks, clean.ranks, "{what}");
            assert_eq!(resumed.counters, clean.counters, "{what}");
            assert_eq!(
                store_fingerprint(&st),
                store_fingerprint(&clean_store),
                "{what}"
            );
            for d in &dirs {
                for f in std::fs::read_dir(d).unwrap() {
                    let name = f.unwrap().file_name();
                    assert!(
                        !name.to_string_lossy().ends_with(".tmp"),
                        "{what}: {name:?}"
                    );
                }
            }
            k += 1;
        }
        cells.push((k, clean_json));
        for d in base_dirs.iter().chain(&dirs) {
            std::fs::remove_dir_all(d).ok();
        }
    }
    assert_eq!(
        cells[0], cells[1],
        "host threads leaked into the steps or the report"
    );
}

/// A published snapshot that rots afterwards (here: truncated to half)
/// fails its checksum; the manifest-guided load must fall back to the
/// previous good snapshot and the resumed run must still match the
/// uncrashed one exactly.
#[test]
fn torn_snapshot_falls_back_to_previous_and_still_matches() {
    let store = store();
    let base_dir = tmp("torn-base");
    let crash_dir = tmp("torn-crash");

    let clean = observe(&store, ck_config(1, &base_dir, 7, None));
    let clean_json = clean.result.expect("uncrashed run completes");

    // Snapshots 4 and 6 are retained; tear 6, which the manifest names
    // first.
    observe(&store, ck_config(1, &crash_dir, 7, None))
        .result
        .expect("the run that leaves the snapshots completes");
    let newest = crash_dir.join("ckpt-0000000006.snap");
    let bytes = std::fs::read(&newest).unwrap();
    std::fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();

    // The store itself must report the fallback: latest *valid* is 4.
    let ck = CkptStore::open(&crash_dir).unwrap();
    let (seq, _snap) = ck.load_latest().expect("previous snapshot still loads");
    assert_eq!(seq, 4, "torn snapshot 6 must not be the recovery point");

    let resumed = observe(
        &store,
        GtsConfig {
            checkpoint: Some(CheckpointConfig::new(&crash_dir, 2).resuming()),
            ..ck_config(1, &crash_dir, 7, None)
        },
    );
    assert_eq!(
        resumed.result.expect("resume from fallback completes"),
        clean_json,
        "report diverged after torn-snapshot fallback"
    );
    assert_eq!(resumed.ranks, clean.ranks);
    assert_eq!(resumed.counters, clean.counters);

    std::fs::remove_dir_all(&base_dir).ok();
    std::fs::remove_dir_all(&crash_dir).ok();
}

/// The traversal path (frontier bitmaps, per-sweep plans) survives
/// kill-and-resume too: BFS levels, report and contract counters match
/// the uncrashed run, under every cache policy. The cache holds four
/// pages and carries over two sweeps between checkpoints, so it evicts
/// before a boundary and again after it, and what it evicted decides the
/// next sweep's hits: a checkpoint reset that left any replacement state
/// behind (the random policy's RNG included) would split the uncrashed
/// and the resumed schedules. A chain hung off the source keeps the
/// traversal going past three boundaries.
#[test]
fn bfs_traversal_survives_kill_and_resume() {
    let mut graph = rmat(9);
    let n = graph.num_vertices;
    graph.edges.push((0, n));
    graph.edges.extend((n..n + 6).map(|v| (v, v + 1)));
    graph.num_vertices = n + 7;
    let store = build_graph_store(
        &graph,
        PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 1024),
    )
    .unwrap();
    for policy in [
        CachePolicyKind::Lru,
        CachePolicyKind::Fifo,
        CachePolicyKind::Random,
    ] {
        let base_dir = tmp(&format!("bfs-base-{policy:?}"));
        let crash_dir = tmp(&format!("bfs-crash-{policy:?}"));
        let cfg = |dir: &Path, crash: Option<u64>, resume: bool| {
            let ck = CheckpointConfig::new(dir, 2);
            GtsConfig {
                checkpoint: Some(if resume { ck.resuming() } else { ck }),
                cache_policy: policy,
                cache_limit_bytes: Some(4 * 1024),
                ..ck_config(2, dir, 3, crash)
            }
        };
        let run = |c: GtsConfig| {
            let engine = Gts::new(c);
            let mut bfs = Bfs::new(store.num_vertices(), 0);
            let result = engine.run(&store, &mut bfs).map(|r| r.to_json());
            let counters = engine.telemetry().contract_counters();
            (result, bfs.levels().to_vec(), counters)
        };

        let (clean_json, clean_levels, clean_counters) = {
            let (r, l, c) = run(cfg(&base_dir, None, false));
            (r.expect("uncrashed BFS completes"), l, c)
        };
        assert!(
            clean_counters["cache.misses"] > store.num_pages(),
            "{policy:?}: the cache must evict and re-stream"
        );
        // A checkpoint is eight durable steps: die entering checkpoint
        // `b + 1` with checkpoint `b` published, for every `b` until the
        // run outlives the kill.
        let mut resumed_from = 0;
        loop {
            std::fs::remove_dir_all(&crash_dir).ok();
            let step = 8 * (resumed_from + 1);
            let what = format!("{policy:?}, killed at step {step}");
            match run(cfg(&crash_dir, Some(step), false)).0 {
                Ok(json) => {
                    assert_eq!(json, clean_json, "{what}");
                    break;
                }
                Err(EngineError::InjectedCrash { step: s }) if s == step => {}
                Err(other) => panic!("{what}: {other:?}"),
            }
            let (resumed, levels, counters) = run(cfg(&crash_dir, None, true));
            assert_eq!(
                resumed.expect("resumed BFS completes"),
                clean_json,
                "{what}"
            );
            assert_eq!(levels, clean_levels, "{what}: BFS levels diverged");
            assert_eq!(counters, clean_counters, "{what}");
            resumed_from += 1;
        }
        assert_eq!(resumed_from, 3, "{policy:?}: checkpoints resumed from");

        std::fs::remove_dir_all(&base_dir).ok();
        std::fs::remove_dir_all(&crash_dir).ok();
    }
}

/// Blowing the run budget surfaces as a typed error, flushes a final
/// checkpoint, keeps the trace exportable — and the budget-free resume
/// from that checkpoint finishes with the uncrashed run's exact
/// *results*. (The report's simulated timings may differ: the emergency
/// checkpoint can land mid-cadence, adding a cold cache/MMBuf boundary
/// the uncrashed run never had. Kill-and-resume byte-identity is a
/// boundary-checkpoint property; the deadline contract is typed error +
/// valid snapshot + exact results.)
#[test]
fn run_budget_exceeded_checkpoints_then_resumes_to_the_same_answer() {
    let store = store();
    let base_dir = tmp("budget-base");
    let dead_dir = tmp("budget-dead");

    let clean = observe(&store, ck_config(1, &base_dir, 11, None));
    let clean_json = clean.result.expect("uncrashed run completes");

    // A budget of 1 ns trips at the first watchdog check (end of the
    // first sweep), long before the run can finish.
    let engine = Gts::builder()
        .config(GtsConfig {
            run_budget_ns: Some(1),
            ..ck_config(1, &dead_dir, 11, None)
        })
        .telemetry(Telemetry::with_spans())
        .build()
        .unwrap();
    let mut pr = PageRank::new(store.num_vertices(), 8);
    match engine.run(&store, &mut pr) {
        Err(EngineError::DeadlineExceeded {
            what: "run_budget_ns",
            limit_ns: 1,
            elapsed_ns,
        }) => assert!(elapsed_ns > 1, "elapsed must report the overrun"),
        other => panic!("expected run-budget deadline, got {other:?}"),
    }
    // The final checkpoint was flushed and is valid (load_latest decodes
    // the snapshot, which includes its checksum verification)…
    let ck = CkptStore::open(&dead_dir).unwrap();
    let (_, snap) = ck.load_latest().expect("deadline flushes a checkpoint");
    assert!(snap.section("clock").is_ok(), "snapshot decodes intact");
    // …and the trace is still exportable (spans were not lost).
    let trace = engine.telemetry().to_chrome_trace();
    assert!(trace.contains("ckpt"), "trace lost the checkpoint span");

    let resumed = observe(
        &store,
        GtsConfig {
            checkpoint: Some(CheckpointConfig::new(&dead_dir, 2).resuming()),
            ..ck_config(1, &dead_dir, 11, None)
        },
    );
    let resumed_json = resumed.result.expect("resume after deadline completes");
    assert_eq!(resumed.ranks, clean.ranks, "ranks diverged after deadline");
    for key in ["\"sweeps\": ", "\"edges_traversed\": "] {
        let field = |json: &str| {
            let at = json.find(key).map(|i| i + key.len()).unwrap();
            json[at..].split(',').next().unwrap().to_owned()
        };
        assert_eq!(
            field(&resumed_json),
            field(&clean_json),
            "{key} diverged after deadline + resume"
        );
    }

    std::fs::remove_dir_all(&base_dir).ok();
    std::fs::remove_dir_all(&dead_dir).ok();
}

/// The per-sweep deadline trips independently of the run budget and is
/// typed even with no checkpointing configured at all.
#[test]
fn sweep_deadline_is_typed_without_checkpointing() {
    let store = store();
    let cfg = GtsConfig {
        num_gpus: 2,
        strategy: Strategy::Performance,
        storage: StorageLocation::InMemory,
        sweep_deadline_ns: Some(1),
        ..GtsConfig::default()
    };
    let engine = Gts::new(cfg);
    let mut pr = PageRank::new(store.num_vertices(), 4);
    match engine.run(&store, &mut pr) {
        Err(EngineError::DeadlineExceeded {
            what: "sweep_deadline_ns",
            limit_ns: 1,
            elapsed_ns,
        }) => assert!(elapsed_ns > 1),
        other => panic!("expected sweep deadline, got {other:?}"),
    }
}

/// A run that *finishes* under budget never reports a deadline — the
/// watchdog must not fire on the final boundary of a completed run.
#[test]
fn generous_budgets_never_trip() {
    let store = store();
    let cfg = GtsConfig {
        num_gpus: 2,
        strategy: Strategy::Performance,
        storage: StorageLocation::InMemory,
        sweep_deadline_ns: Some(u64::MAX),
        run_budget_ns: Some(u64::MAX),
        ..GtsConfig::default()
    };
    let engine = Gts::new(cfg);
    let mut pr = PageRank::new(store.num_vertices(), 4);
    engine.run(&store, &mut pr).expect("generous budgets pass");
}

/// Resuming against a different configuration (or graph) is refused with
/// a typed fingerprint mismatch, not silently-wrong results.
#[test]
fn resume_refuses_a_mismatched_config_or_store() {
    let store = store();
    let dir = tmp("mismatch");

    // Die entering the second checkpoint (sweep 4): snapshot 2 is whole.
    let killed = observe(&store, ck_config(1, &dir, 5, Some(8)));
    assert!(matches!(
        killed.result,
        Err(EngineError::InjectedCrash { step: 8 })
    ));

    // Same snapshot, different GPU count: config fingerprint mismatch.
    let wrong_cfg = GtsConfig {
        num_gpus: 2,
        checkpoint: Some(CheckpointConfig::new(&dir, 2).resuming()),
        ..ck_config(1, &dir, 5, None)
    };
    match observe(&store, wrong_cfg).result {
        Err(EngineError::Checkpoint(CkptError::Mismatch { what, .. })) => {
            assert_eq!(what, "config fingerprint");
        }
        other => panic!("expected config-fingerprint mismatch, got {other:?}"),
    }

    // Same config, different graph: store fingerprint mismatch.
    let other_store = build_graph_store(
        &rmat(8),
        PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 1024),
    )
    .unwrap();
    let resume_cfg = GtsConfig {
        checkpoint: Some(CheckpointConfig::new(&dir, 2).resuming()),
        ..ck_config(1, &dir, 5, None)
    };
    match observe(&other_store, resume_cfg).result {
        Err(EngineError::Checkpoint(CkptError::Mismatch { what, .. })) => {
            assert_eq!(what, "store fingerprint");
        }
        other => panic!("expected store-fingerprint mismatch, got {other:?}"),
    }

    // An empty directory has nothing to resume from.
    let empty = tmp("mismatch-empty");
    let cold_cfg = GtsConfig {
        checkpoint: Some(CheckpointConfig::new(&empty, 2).resuming()),
        ..ck_config(1, &empty, 5, None)
    };
    assert!(matches!(
        observe(&store, cold_cfg).result,
        Err(EngineError::Checkpoint(CkptError::NoSnapshot { .. }))
    ));

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&empty).ok();
}

/// Checkpoint/watchdog configuration is validated up front with typed
/// errors, not deep-in-the-run surprises.
#[test]
fn checkpoint_and_deadline_config_is_validated() {
    let zero_every = GtsConfig {
        checkpoint: Some(CheckpointConfig::new("unused", 0)),
        ..GtsConfig::default()
    };
    let e = zero_every.validate().unwrap_err();
    assert!(e.to_string().contains("checkpoint.every"), "{e}");

    for (what, cfg) in [
        (
            "sweep_deadline_ns",
            GtsConfig {
                sweep_deadline_ns: Some(0),
                ..GtsConfig::default()
            },
        ),
        (
            "run_budget_ns",
            GtsConfig {
                run_budget_ns: Some(0),
                ..GtsConfig::default()
            },
        ),
    ] {
        let e = cfg.validate().unwrap_err();
        assert!(e.to_string().contains(what), "{what}: {e}");
    }
}

/// One observed live-BFS run over the chain graph of
/// [`live_bfs_killed_at_every_durable_step_resumes_to_the_uncrashed_levels`].
struct BfsRun {
    result: Result<String, EngineError>,
    levels: Vec<u16>,
    counters: BTreeMap<String, u64>,
}

/// The first traversal-mode program through an exhaustive crash sweep,
/// and the shape that loses state a snapshot forgot: a chain `0→1→…→9`
/// plus a detached `10→11→12→13`, BFS from 0 with a checkpoint at every
/// sweep, and `insert 1→10` applied at sweep 3 — so vertex 10 is claimed
/// *off* the `lv == sweep` frontier and the tail is reached only through
/// the program's re-activated set, which has to survive every boundary.
/// Kill at durable step `k = 0, 1, 2, …` until a run survives; every
/// resumed run — or re-run, where the kill left nothing to resume or
/// (without a WAL) the snapshot fingerprints the post-mutation store the
/// restarted process no longer has — ends on the uncrashed levels, report
/// and contract counters, at 1 and 4 host threads.
#[test]
fn live_bfs_killed_at_every_durable_step_resumes_to_the_uncrashed_levels() {
    let mut edges: Vec<(u32, u32)> = (0..9).map(|v| (v, v + 1)).collect();
    edges.extend((10..13).map(|v| (v, v + 1)));
    let base = build_graph_store(
        &gts_graph::EdgeList::new(14, edges),
        PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 1024),
    )
    .unwrap();
    let schedule = || {
        let mut batch = MutationBatch::new();
        batch.insert(1, 10);
        MutationSchedule::new().at(3, batch)
    };
    let run = |store: &mut GraphStore, cfg: GtsConfig| {
        let engine = Gts::new(cfg);
        let mut bfs = Bfs::new(store.num_vertices(), 0);
        let result = engine
            .run_live(store, &mut bfs, schedule())
            .map(|r| r.to_json());
        BfsRun {
            result,
            levels: bfs.levels().to_vec(),
            counters: engine.telemetry().contract_counters(),
        }
    };
    for with_wal in [false, true] {
        let mut cells: Vec<(u64, String)> = Vec::new();
        for threads in [1usize, 4] {
            let dirs = |tag: &str| {
                [
                    tmp(&format!("bfs-{tag}-ck-{with_wal}-{threads}")),
                    tmp(&format!("bfs-{tag}-wal-{with_wal}-{threads}")),
                ]
            };
            let cfg = |dirs: &[PathBuf; 2], resume: bool, crash: Option<u64>| {
                let ck = CheckpointConfig::new(&dirs[0], 1);
                GtsConfig {
                    host_threads: threads,
                    faults: crash.map(|k| FaultConfig {
                        crash: Some(k),
                        ..FaultConfig::quiet(0)
                    }),
                    checkpoint: Some(if resume { ck.resuming() } else { ck }),
                    wal_dir: with_wal.then(|| dirs[1].clone()),
                    ..GtsConfig::default()
                }
            };
            let base_dirs = dirs("base");
            let clean = run(&mut base.clone(), cfg(&base_dirs, false, None));
            let clean_json = clean.result.expect("uncrashed run completes");
            assert_eq!(
                clean.levels,
                [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 2, 3, 4, 5],
                "the inserted edge reaches the tail"
            );

            let dirs = dirs("kill");
            let mut k = 0u64;
            loop {
                for d in &dirs {
                    std::fs::remove_dir_all(d).ok();
                }
                let what = format!("wal {with_wal}, {threads} threads, step {k}");
                let killed = run(&mut base.clone(), cfg(&dirs, false, Some(k)));
                match killed.result {
                    Ok(json) => {
                        assert_eq!(json, clean_json, "{what}");
                        break;
                    }
                    Err(EngineError::InjectedCrash { step }) if step == k => {}
                    Err(other) => panic!("{what}: expected the injected crash, got {other:?}"),
                }
                let mut resumed = run(&mut base.clone(), cfg(&dirs, true, None));
                let rerun = match &resumed.result {
                    Err(EngineError::Checkpoint(CkptError::NoSnapshot { .. })) => true,
                    // DESIGN.md §10: without a WAL a snapshot taken after
                    // the batch applied cannot be reached from a fresh
                    // store, and the resume says so.
                    Err(EngineError::Checkpoint(CkptError::Mismatch { what, .. })) => {
                        !with_wal && *what == "store fingerprint"
                    }
                    _ => false,
                };
                if rerun {
                    resumed = run(&mut base.clone(), cfg(&dirs, false, None));
                }
                assert_eq!(
                    resumed.result.expect("restart completes"),
                    clean_json,
                    "{what}"
                );
                assert_eq!(resumed.levels, clean.levels, "{what}");
                assert_eq!(resumed.counters, clean.counters, "{what}");
                k += 1;
            }
            cells.push((k, clean_json));
            for d in base_dirs.iter().chain(&dirs) {
                std::fs::remove_dir_all(d).ok();
            }
        }
        assert_eq!(
            cells[0], cells[1],
            "host threads leaked into the steps or the report"
        );
    }
}

/// A snapshot whose sections carry hostile element counts — `u64::MAX`,
/// or one more than the bytes that follow hold — is sealed and published
/// like any other, so only the section decoders stand between it and the
/// allocator. Each resumes to a typed checkpoint error: no panic, no
/// abort, nothing allocated from the count.
#[test]
fn hostile_section_counts_resume_to_typed_errors() {
    let store = store();
    let dir = tmp("hostile-counts");
    let cfg = |resume: bool| {
        let ck = CheckpointConfig::new(&dir, 2);
        GtsConfig {
            checkpoint: Some(if resume { ck.resuming() } else { ck }),
            ..GtsConfig::default()
        }
    };
    let resume = || {
        let mut pr = PageRank::new(store.num_vertices(), 4);
        Gts::new(cfg(true)).run(&store, &mut pr)
    };
    let mut pr = PageRank::new(store.num_vertices(), 4);
    Gts::new(cfg(false)).run(&store, &mut pr).unwrap();
    let ck = CkptStore::open(&dir).unwrap();
    let (seq, good) = ck.load_latest().unwrap();
    resume().expect("the untouched snapshot resumes");

    // Element width of each section's leading sequence; a counter is a
    // length-prefixed key and a value, 16 bytes at the least.
    for (section, width) in [("plan", 8), ("storage", 1), ("counters", 16)] {
        let body = good.section(section).unwrap().to_vec();
        let fits = (body.len() as u64 - 8) / width;
        for count in [u64::MAX, fits + 1] {
            let mut bad = good.clone();
            let mut bytes = body.clone();
            bytes[..8].copy_from_slice(&count.to_le_bytes());
            bad.insert(section, bytes);
            ck.write(seq, &bad).unwrap();
            match resume() {
                Err(EngineError::Checkpoint(
                    CkptError::Truncated { .. } | CkptError::Corrupt { .. },
                )) => {}
                other => panic!("{section} count {count}: expected a typed error, got {other:?}"),
            }
        }
    }
    ck.write(seq, &good).unwrap();
    resume().expect("the restored snapshot resumes again");
    std::fs::remove_dir_all(&dir).ok();
}
