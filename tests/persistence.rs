//! On-disk store persistence across crates: a store saved to a GTSPAGES
//! file and loaded back must be a drop-in replacement — identical results
//! *and* identical simulated timing under every engine configuration.
//! And the durable artifacts of the build that sealed them with FNV-1a
//! — a WAL, a snapshot, a serve journal — are refused by their version,
//! never read as rot.

use gts_ckpt::{fnv1a, CkptError, CkptStore, LogFormat, SealedLog};
use gts_core::engine::{CheckpointConfig, EngineError, GtsConfig, StorageLocation};
use gts_core::programs::{Bfs, GtsProgram, PageRank};
use gts_core::{Engine, JobOptions, MutationSchedule, Strategy};
use gts_graph::generate::rmat;
use gts_graph::EdgeList;
use gts_serve::{serve, JournalConfig, ServeConfig};
use gts_storage::{
    build_graph_store, load_store, save_store, GraphStore, MutationBatch, PageFormatConfig,
    PhysicalIdConfig, Wal, WalError,
};
use std::path::{Path, PathBuf};

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

/// A small store and the tuned-down engine the durable runs below use.
fn durable_setup() -> (GraphStore, GtsConfig) {
    let store = build_graph_store(
        &rmat(9),
        PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 1024),
    )
    .unwrap();
    let cfg = GtsConfig {
        storage: StorageLocation::Ssds(2),
        ..GtsConfig::default()
    };
    (store, cfg)
}

/// A live PageRank over `store` that checkpoints every 2 sweeps into
/// `dir/ck` and logs its one mutation batch into `dir/wal`.
fn durable_run(
    store: &GraphStore,
    cfg: &GtsConfig,
    dir: &Path,
    resume: bool,
) -> Result<(), EngineError> {
    let ck = CheckpointConfig::new(dir.join("ck"), 2);
    let cfg = GtsConfig {
        checkpoint: Some(if resume { ck.resuming() } else { ck }),
        wal_dir: Some(dir.join("wal")),
        ..cfg.clone()
    };
    let mut batch = MutationBatch::new();
    batch
        .insert(3, 5)
        .insert(5, 3)
        .delete(0, store.decode_edges()[0].1);
    let mut pr = PageRank::new(store.num_vertices(), 6);
    Engine::new(cfg)
        .unwrap()
        .run_job_live(
            &mut store.clone(),
            &mut pr,
            MutationSchedule::new().at(3, batch),
            &JobOptions::default(),
        )
        .map(|_| ())
}

/// `raw`, a sealed log this build wrote, as the FNV-sealing build wrote
/// the same log: `version` in the header, and the header and every frame
/// trailed by FNV-1a instead of XXH64 (the layout is otherwise the same).
fn as_fnv_sealed_log(raw: &[u8], version: u32) -> Vec<u8> {
    let le = |at: usize, n: usize| {
        let mut w = [0u8; 8];
        w[..n].copy_from_slice(&raw[at..at + n]);
        u64::from_le_bytes(w) as usize
    };
    // Magic, version, the binding's u64 length and bytes; then frames of
    // a u32 length, the body and the trailer.
    let header_end = 8 + 4 + 8 + le(12, 8);
    let mut old = raw[..header_end].to_vec();
    old[8..12].copy_from_slice(&version.to_le_bytes());
    old.extend_from_slice(&fnv1a(&old).to_le_bytes());
    let mut pos = header_end + 8;
    while pos < raw.len() {
        let body = pos + 4..pos + 4 + le(pos, 4);
        old.extend_from_slice(&raw[pos..body.end]);
        old.extend_from_slice(&fnv1a(&raw[body.clone()]).to_le_bytes());
        pos = body.end + 8;
    }
    assert_eq!(old.len(), raw.len());
    old
}

/// Replace the file at `path` by `rewrite` of its bytes; return them.
fn rewrite(path: &Path, rewrite: impl FnOnce(&[u8]) -> Vec<u8>) -> Vec<u8> {
    let old = rewrite(&std::fs::read(path).unwrap());
    std::fs::write(path, &old).unwrap();
    old
}

fn fresh(name: &str) -> PathBuf {
    let dir = tmp(name);
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn a_wal_the_fnv_sealed_build_wrote_is_refused_by_version() {
    let (store, cfg) = durable_setup();
    let dir = fresh("fnv-wal");
    durable_run(&store, &cfg, &dir, false).unwrap();
    let wal_dir = dir.join("wal");
    assert_eq!(Wal::load(&wal_dir).unwrap().records().len(), 1);
    let old = rewrite(&wal_dir.join(gts_storage::WAL_FILE), |raw| {
        as_fnv_sealed_log(raw, 2)
    });
    let refused = WalError::Log(CkptError::VersionMismatch {
        found: 2,
        expected: 3,
    });
    assert_eq!(Wal::load(&wal_dir).unwrap_err(), refused);
    assert_eq!(Wal::open(&wal_dir, &store).unwrap_err(), refused);
    assert_eq!(
        durable_run(&store, &cfg, &dir, true).unwrap_err(),
        EngineError::Wal(refused)
    );
    let wal = std::fs::read(wal_dir.join(gts_storage::WAL_FILE)).unwrap();
    assert_eq!(wal, old, "a refused log is left as it was");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_snapshot_the_fnv_sealed_build_wrote_is_refused_by_version() {
    let (store, cfg) = durable_setup();
    let dir = fresh("fnv-snap");
    durable_run(&store, &cfg, &dir, false).unwrap();
    let ck = CkptStore::open(dir.join("ck")).unwrap();
    ck.load_latest().unwrap();
    let mut snaps: Vec<PathBuf> = std::fs::read_dir(ck.dir())
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "snap"))
        .collect();
    snaps.sort();
    assert_eq!(snaps.len(), 2, "the newest snapshot and one fallback");
    for snap in &snaps {
        rewrite(snap, |raw| {
            let mut old = raw[..raw.len() - 8].to_vec();
            old[..8].copy_from_slice(b"GTSCKPT1");
            old.extend_from_slice(&fnv1a(&old).to_le_bytes());
            old
        });
    }
    let refused = CkptError::VersionMismatch {
        found: 1,
        expected: 2,
    };
    let bytes = std::fs::read(&snaps[0]).unwrap();
    assert_eq!(gts_ckpt::Snapshot::decode(&bytes).unwrap_err(), refused);
    assert_eq!(ck.load_latest().unwrap_err(), refused);
    assert_eq!(
        durable_run(&store, &cfg, &dir, true).unwrap_err(),
        EngineError::Checkpoint(refused)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_journal_the_fnv_sealed_build_wrote_is_refused_by_version() {
    let (store, cfg) = durable_setup();
    let dir = fresh("fnv-journal");
    let jobs = gts_serve::parse(include_str!("../workloads/serve_smoke.wl")).unwrap();
    let engine = Engine::new(cfg).unwrap();
    let serve_cfg = |resume: bool| ServeConfig {
        slots: 2,
        journal: Some(JournalConfig {
            dir: dir.clone(),
            resume,
        }),
        ..ServeConfig::default()
    };
    serve(&engine, &mut store.clone(), &jobs, &serve_cfg(false)).unwrap();
    let path = dir.join(gts_serve::journal::JOURNAL_FILE);
    let old = rewrite(&path, |raw| as_fnv_sealed_log(raw, 5));
    assert_eq!(
        SealedLog::load(&path, &LogFormat::JOURNAL).unwrap_err(),
        CkptError::VersionMismatch {
            found: 5,
            expected: 6
        }
    );
    for err in [
        gts_serve::inspect_journal(&dir).unwrap_err(),
        serve(&engine, &mut store.clone(), &jobs, &serve_cfg(true)).unwrap_err(),
    ] {
        assert!(
            err.to_string()
                .contains("schema version 5 is not supported"),
            "{err}"
        );
    }
    assert_eq!(
        std::fs::read(&path).unwrap(),
        old,
        "a refused log is left as it was"
    );
    std::fs::remove_dir_all(&dir).ok();
}
