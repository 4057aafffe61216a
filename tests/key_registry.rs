//! Every counter key a run can record is declared in
//! `gts_telemetry::keys::KEYS`.
//!
//! The keys come from every golden fixture (solo counters, the serve
//! smoke dumps, and `baselines.txt`, which pins the full registry of
//! every comparator engine's run), plus two runs that reach what the
//! fixtures do not: a checkpointed, WAL-logged live run with faults,
//! bit rot, scrub and host-phase timing that is killed and resumed, and
//! a journaled serve run with retries and shedding that is killed and
//! resumed. A key that `keys::lookup` cannot resolve fails the test.

use gts_ckpt::KillSwitch;
use gts_core::engine::{CheckpointConfig, EngineError, GtsConfig, StorageLocation};
use gts_core::programs::Bfs;
use gts_core::{Engine, FaultConfig, JobOptions, MutationSchedule, Telemetry};
use gts_graph::generate::rmat;
use gts_serve::scheduler::{serve, ServeConfig};
use gts_serve::workload::parse;
use gts_serve::{JournalConfig, ResilienceConfig, ServeError};
use gts_storage::{
    build_graph_store, GraphStore, MutationBatch, PageFormatConfig, PhysicalIdConfig,
};
use gts_telemetry::keys;
use std::collections::BTreeSet;
use std::path::PathBuf;

fn golden(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn tmp(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("gts-it-keys-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&p).ok();
    p
}

fn store() -> GraphStore {
    build_graph_store(
        &rmat(9),
        PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 1024),
    )
    .unwrap()
}

/// The keys of every fixture: the `"key": value` members of the
/// `*.counters.json` files and the `key value` lines of the text dumps.
fn golden_keys() -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
    for entry in std::fs::read_dir(&dir).unwrap() {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        let text = golden(&name);
        if name.ends_with(".counters.json") {
            for line in text.lines() {
                if let Some((k, _)) = line
                    .trim()
                    .strip_prefix('"')
                    .and_then(|l| l.split_once("\":"))
                {
                    out.insert(k.to_owned());
                }
            }
        } else if name.ends_with(".txt") {
            for line in text.lines() {
                let words: Vec<&str> = line.split(' ').collect();
                if let [k, v] = words[..] {
                    if v.parse::<u64>().is_ok() && k.contains('.') {
                        out.insert(k.to_owned());
                    }
                }
            }
        }
    }
    out
}

/// A live BFS with everything durable and every diagnostic on, killed at
/// durable step 14 and resumed: the crashed and the resumed halves'
/// counters.
fn durable_live_keys() -> BTreeSet<String> {
    let base = store();
    let schedule = || {
        let mut batch = MutationBatch::new();
        for d in 0..32 {
            batch.insert(7, 11 * d + 1);
        }
        let (s, d) = base.decode_edges()[0];
        batch.delete(s, d);
        MutationSchedule::new().at(2, batch)
    };
    let (ck, wal) = (tmp("ck"), tmp("wal"));
    let cfg = |resume: bool| {
        let checkpoint = CheckpointConfig::new(&ck, 1);
        GtsConfig {
            num_gpus: 2,
            storage: StorageLocation::Ssds(2),
            mmbuf_percent: 20,
            checkpoint: Some(if resume {
                checkpoint.resuming()
            } else {
                checkpoint
            }),
            wal_dir: Some(wal.clone()),
            scrub_every: Some(1),
            measure_host_phases: true,
            ..GtsConfig::default()
        }
    };
    let mut out = BTreeSet::new();
    for (crash, resume) in [(Some(14), false), (None, true)] {
        let engine = Engine::new(cfg(resume)).unwrap();
        let opts = JobOptions {
            faults: Some(FaultConfig {
                bit_rot_ppm: 10_000,
                read_error_ppm: 20_000,
                ..FaultConfig::with_seed(0xA11CE)
            }),
            kill: crash.map_or_else(KillSwitch::never, KillSwitch::at),
            ..JobOptions::with_telemetry(Telemetry::new())
        };
        let mut bfs = Bfs::new(base.num_vertices(), 0);
        let got = engine.run_job_live(&mut base.clone(), &mut bfs, schedule(), &opts);
        match (crash, got) {
            (Some(_), Err(EngineError::InjectedCrash { .. })) | (None, Ok(_)) => {}
            (_, other) => panic!("unexpected outcome {other:?}"),
        }
        out.extend(opts.telemetry.counters().into_keys());
    }
    for d in [&ck, &wal] {
        std::fs::remove_dir_all(d).ok();
    }
    for key in [
        keys::CKPT_BYTES,
        keys::WAL_APPENDS,
        keys::SCRUB_ERRORS,
        keys::HOST_PHASE_A_NS,
    ] {
        assert!(
            out.contains(key),
            "the durable run must record {key}: {out:?}"
        );
    }
    out
}

/// A journaled, WAL-logged serve run with faults, retries and shedding,
/// killed at durable step 14 and resumed: the service's and every job's
/// counters, the latter as `--jobs-out` renders them.
fn durable_serve_keys() -> BTreeSet<String> {
    let mut text = String::from("at=0 tenant=mut job=bfs mutate-at=1 inserts=16 seed=5\n");
    for i in 0..24 {
        let alg = ["bfs", "pagerank", "cc", "sssp"][i % 4];
        text.push_str(&format!("at={} tenant=t{} job={alg}\n", 10 * i, i % 3));
    }
    let jobs = parse(&text).unwrap();
    let (journal, wal) = (tmp("journal"), tmp("serve-wal"));
    let engine = Engine::new(GtsConfig::default()).unwrap();
    let cfg = |crash: Option<u64>, resume: bool| ServeConfig {
        slots: 2,
        queue_capacity: 8,
        faults: Some(FaultConfig {
            copy_fault_ppm: 5_000,
            launch_fault_ppm: 5_000,
            max_retries: 0,
            ..FaultConfig::with_seed(7)
        }),
        resilience: ResilienceConfig {
            retry_max: 2,
            backoff_base_ns: 500,
            shed_watermark_pct: Some(30),
            ..ResilienceConfig::default()
        },
        journal: Some(JournalConfig {
            resume,
            ..JournalConfig::new(&journal)
        }),
        wal_dir: Some(wal.clone()),
        crash,
        ..ServeConfig::default()
    };
    let base = store();
    let crashed = serve(&engine, &mut base.clone(), &jobs, &cfg(Some(14), false));
    assert!(
        matches!(crashed, Err(ServeError::InjectedCrash { step: 14 })),
        "{crashed:?}"
    );
    let out = serve(&engine, &mut base.clone(), &jobs, &cfg(None, true)).unwrap();
    for d in [&journal, &wal] {
        std::fs::remove_dir_all(d).ok();
    }
    let mut keys_seen: BTreeSet<String> = out.telemetry.counters().into_keys().collect();
    for job in &out.jobs {
        keys_seen.extend(
            job.counters
                .keys()
                .map(|k| format!("job.{}.{k}", job.index)),
        );
    }
    for key in [
        keys::SERVE_RETRY_ATTEMPTS,
        keys::SERVE_SHED_TOTAL,
        keys::SERVE_JOURNAL_RECORDS,
        keys::SERVE_RESUME_CACHED,
    ] {
        assert!(
            keys_seen.contains(key),
            "the serve run must record {key}: {keys_seen:?}"
        );
    }
    keys_seen
}

#[test]
fn every_recorded_key_is_declared() {
    let mut seen = golden_keys();
    // The fixtures really were read: a baseline key, a serve key and a
    // serve job's rendering of a per-GPU one.
    for key in [
        keys::NETWORK_BYTES,
        keys::SERVE_MAKESPAN_NS,
        "job.0.gpu0.kernels",
    ] {
        assert!(seen.contains(key), "the golden fixtures must yield {key}");
    }
    seen.extend(durable_live_keys());
    seen.extend(durable_serve_keys());
    let undeclared: Vec<&String> = seen.iter().filter(|k| keys::lookup(k).is_none()).collect();
    assert!(undeclared.is_empty(), "undeclared keys: {undeclared:?}");
}
