//! Stage 6 — checkpointing: snapshot the sweep loop's resumable state.
//!
//! A snapshot is taken at a *sweep boundary* (the top of the loop, after
//! the previous sweep's `end_sweep`), where every program's accumulators
//! are in their between-sweeps shape. It captures exactly the state a
//! resumed process cannot recompute:
//!
//! * the simulated clock, sweep index, and edge total,
//! * the effective (possibly degraded) execution rung,
//! * the telemetry counter registry — including what the lanes and the
//!   page source would flush at `Job::finish`, folded in through a scratch
//!   registry so the live one is untouched,
//! * the program's attribute vectors ([`GtsProgram::save_state`]),
//! * the next sweep's page plan,
//! * the fault plan's per-entity RNG cursors, and
//! * the storage array's quarantine flags.
//!
//! Deliberately *not* captured: GPU page caches, the MMBuf, GPU timers,
//! and drive queues. Caches and the MMBuf are reset cold at every
//! boundary (statistics banked first) so the checkpointing run and the
//! resumed run see identical schedules; timers and drive queues are fully
//! drained at the boundary barrier, so fresh ones behave identically.

use crate::engine::{EngineError, GtsConfig, StorageLocation};
use crate::job::Job;
use crate::programs::GtsProgram;
use crate::strategy::Strategy;
use crate::sweep::plan::SweepPlan;
use crate::sweep::schedule::GpuLane;
use gts_ckpt::{fnv1a, ByteReader, ByteWriter, CkptError, Snapshot};
use gts_faults::FaultPlan;
use gts_sim::{SimDuration, SimTime};
use gts_storage::builder::GraphStore;
use gts_telemetry::{keys, SpanCat, Telemetry, Track};
use std::collections::BTreeMap;
use std::time::Instant;

/// Payload-schema version of the snapshot sections written here. There
/// is no reader for older versions: version 1 BFS snapshots dropped the
/// re-activated set, so they are refused ([`CkptError::VersionMismatch`]).
pub(crate) const SNAPSHOT_VERSION: u32 = 2;

/// The effective execution rung: what [`crate::job::LaneSetup`] settled
/// on after any O.O.M. degradations, and the snapshot's `rung` section. A
/// resumed run re-enters at this rung directly instead of replaying the
/// ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Rung {
    /// Multi-GPU strategy in effect.
    pub strategy: Strategy,
    /// Streams per GPU in effect (post-clamp, post-degrade).
    pub num_streams: usize,
    /// Whether the page cache was stepped down to off.
    pub cache_off: bool,
}

/// Wire code for a strategy (shared with `run.final_strategy`):
/// 1 = Performance, 2 = Scalability.
pub(crate) fn strategy_code(s: Strategy) -> u8 {
    match s {
        Strategy::Performance => 1,
        Strategy::Scalability => 2,
    }
}

fn strategy_from_code(code: u8) -> Result<Strategy, CkptError> {
    match code {
        1 => Ok(Strategy::Performance),
        2 => Ok(Strategy::Scalability),
        other => Err(CkptError::Corrupt {
            reason: format!("unknown strategy code {other} in rung section"),
        }),
    }
}

/// Fingerprint of the graph store a snapshot belongs to. The mutation
/// epoch is folded in, so a snapshot taken before a mutation batch was
/// applied refuses to resume against the mutated store (typed
/// [`CkptError::Mismatch`] on `"store fingerprint"`) — an in-flight
/// sweep's saved state describes the pre-mutation topology.
pub fn store_fingerprint(store: &GraphStore) -> u64 {
    let mut w = ByteWriter::new();
    w.put_u64(store.num_vertices());
    w.put_u64(store.num_edges());
    w.put_u64(store.num_pages());
    w.put_u64(store.cfg().page_size as u64);
    w.put_u64(store.small_pids().len() as u64);
    w.put_u64(store.large_pids().len() as u64);
    w.put_u64(store.epoch());
    fnv1a(&w.into_bytes())
}

/// Fingerprint of the configuration facets that shape a run's schedule.
/// `host_threads` is excluded (any value is byte-identical by contract),
/// as are the checkpoint block itself, the WAL directory, and the fault
/// plan's crash step — a resumed run differs from the crashed one in
/// exactly those. `scrub_every` and the bit-rot rate ARE folded in: scrub
/// passes draw on the fault plan's per-page streams, so a run scrubbed on
/// a different cadence is a different schedule.
pub(crate) fn config_fingerprint(cfg: &GtsConfig) -> u64 {
    let mut w = ByteWriter::new();
    w.put_u64(cfg.num_gpus as u64);
    w.put_u64(cfg.num_streams as u64);
    w.put_u8(strategy_code(cfg.strategy));
    match cfg.storage {
        StorageLocation::InMemory => w.put_u8(0),
        StorageLocation::Ssds(k) => {
            w.put_u8(1);
            w.put_u64(k as u64);
        }
        StorageLocation::Hdds(k) => {
            w.put_u8(2);
            w.put_u64(k as u64);
        }
    }
    w.put_u32(cfg.mmbuf_percent);
    w.put_u8(cfg.cache_policy as u8);
    w.put_bool(cfg.cache_limit_bytes.is_some());
    w.put_u64(cfg.cache_limit_bytes.unwrap_or(0));
    w.put_bool(cfg.p2p_sync);
    w.put_bool(cfg.degrade_on_oom);
    w.put_bool(cfg.scrub_every.is_some());
    w.put_u32(cfg.scrub_every.unwrap_or(0));
    // A plan with every injection rate at zero never draws a fault, so it
    // is behaviorally identical to no plan at all — normalize it to None.
    // (The CLI hosts `--crash-at-step` in a quiet plan when no
    // `--fault-seed` is given; the resumed run, crash step gone, must
    // still fingerprint-match.)
    let quiet = |f: &gts_faults::FaultConfig| {
        f.read_error_ppm == 0
            && f.corrupt_page_ppm == 0
            && f.copy_fault_ppm == 0
            && f.launch_fault_ppm == 0
            && f.bit_rot_ppm == 0
    };
    match &cfg.faults {
        Some(f) if !quiet(f) => {
            w.put_bool(true);
            w.put_u64(f.seed);
            w.put_u32(f.read_error_ppm);
            w.put_u32(f.corrupt_page_ppm);
            w.put_u32(f.copy_fault_ppm);
            w.put_u32(f.launch_fault_ppm);
            w.put_u32(f.bit_rot_ppm);
            w.put_u32(f.max_retries);
            w.put_u32(f.quarantine_after);
            w.put_u64(f.backoff.as_nanos());
        }
        _ => w.put_bool(false),
    }
    fnv1a(&w.into_bytes())
}

/// The `meta` section: the algorithm's name, then the store and
/// configuration fingerprints.
fn read_meta(snap: &Snapshot) -> Result<(String, u64, u64), CkptError> {
    let mut r = ByteReader::new(snap.section("meta")?);
    let alg = r.take_str("meta algorithm")?;
    let store_fp = r.take_u64("meta store fingerprint")?;
    let cfg_fp = r.take_u64("meta config fingerprint")?;
    r.finish()?;
    Ok((alg, store_fp, cfg_fp))
}

/// Check a loaded snapshot against this run's schema version, algorithm,
/// graph store, and configuration before anything is restored from it.
pub(crate) fn verify_meta(
    snap: &Snapshot,
    store: &GraphStore,
    cfg: &GtsConfig,
    algorithm: &str,
) -> Result<(), CkptError> {
    snap.require_version(SNAPSHOT_VERSION)?;
    let (alg, store_fp, cfg_fp) = read_meta(snap)?;
    if alg != algorithm {
        return Err(CkptError::Corrupt {
            reason: format!("snapshot was taken by {alg}, this run executes {algorithm}"),
        });
    }
    for (what, want, got) in [
        ("store fingerprint", store_fingerprint(store), store_fp),
        ("config fingerprint", config_fingerprint(cfg), cfg_fp),
    ] {
        if got != want {
            return Err(CkptError::Mismatch { what, want, got });
        }
    }
    Ok(())
}

/// The store fingerprint and sweep index a snapshot of this schema
/// version recorded, read ahead of [`verify_meta`]: crash recovery needs
/// the *target* state before the caller's store can be rolled forward to
/// match it.
pub fn snapshot_progress(snap: &Snapshot) -> Result<(u64, u32), CkptError> {
    snap.require_version(SNAPSHOT_VERSION)?;
    let (_alg, store_fp, _cfg_fp) = read_meta(snap)?;
    let mut r = ByteReader::new(snap.section("clock")?);
    let _t = r.take_u64("clock t")?;
    let sweep = r.take_u32("clock sweep")?;
    Ok((store_fp, sweep))
}

/// Crash recovery for a live run: replay `wal` records onto `store`, in
/// chain order, until [`store_fingerprint`] equals `target` — the
/// fingerprint the snapshot about to be restored recorded. The epoch is
/// folded into the fingerprint, so reaching `target` means the store is
/// byte-identical (topology *and* epoch) to the instant the snapshot was
/// taken. Returns how many records were applied.
///
/// Typed [`CkptError::Mismatch`] when the log is exhausted — or a record
/// does not chain onto the store's epoch — before `target` is reached:
/// the WAL does not cover the gap, so the old refusal stands.
pub(crate) fn recover_store(
    store: &mut GraphStore,
    wal: &gts_storage::Wal,
    target: u64,
) -> Result<u64, EngineError> {
    let mut applied = 0u64;
    if store_fingerprint(store) == target {
        return Ok(applied);
    }
    for rec in wal.records() {
        if rec.post_epoch <= store.epoch() {
            continue;
        }
        if rec.pre_epoch != store.epoch() {
            return Err(EngineError::Checkpoint(CkptError::Mismatch {
                what: "wal replay pre-epoch",
                want: store.epoch(),
                got: rec.pre_epoch,
            }));
        }
        store
            .apply_mutations(&rec.batch)
            .map_err(EngineError::Mutation)?;
        applied += 1;
        if store_fingerprint(store) == target {
            return Ok(applied);
        }
    }
    Err(EngineError::Checkpoint(CkptError::Mismatch {
        what: "store fingerprint",
        want: target,
        got: store_fingerprint(store),
    }))
}

/// The execution rung recorded in a snapshot.
pub(crate) fn rung_of(snap: &Snapshot) -> Result<Rung, CkptError> {
    let mut r = ByteReader::new(snap.section("rung")?);
    let strategy = strategy_from_code(r.take_u8("rung strategy")?)?;
    let num_streams = r.take_u64("rung streams")? as usize;
    let cache_off = r.take_bool("rung cache_off")?;
    r.finish()?;
    if num_streams == 0 {
        return Err(CkptError::Corrupt {
            reason: "rung records zero streams".to_string(),
        });
    }
    Ok(Rung {
        strategy,
        num_streams,
        cache_off,
    })
}

impl Job<'_> {
    /// When a checkpoint store is configured: reset the warm state a
    /// resumed run cannot rebuild (page caches, the MMBuf), write a
    /// snapshot of this boundary crash-atomically, and account the write.
    pub(crate) fn write_checkpoint(
        &mut self,
        store: &GraphStore,
        prog: &dyn GtsProgram,
    ) -> Result<(), EngineError> {
        let Some(ck) = &self.ck else {
            return Ok(());
        };
        for lane in &mut self.setup.lanes {
            // Rebuild rather than clear: a resumed run's caches are
            // brand-new policy instances (fresh RNG state for Random), so
            // the checkpointing run must match exactly.
            let fresh = self.cfg.cache_policy.build(lane.cache().capacity());
            lane.checkpoint_reset(fresh);
        }
        self.source.checkpoint_reset();
        let snap = self.build_snapshot(store, prog);
        let started = Instant::now();
        let bytes = ck.write(self.sweep as u64, &snap)?;
        let tel = &self.tel;
        tel.add(keys::CKPT_BYTES, bytes);
        tel.add(keys::CKPT_WRITE_NS, started.elapsed().as_nanos() as u64);
        if tel.spans_enabled() {
            tel.record_span(
                Track::new(keys::pid::ENGINE, 0),
                SpanCat::Checkpoint,
                format!("ckpt sweep {}", self.sweep),
                self.t,
                self.t,
            );
        }
        Ok(())
    }

    /// Encode the full resumable state. Counters are captured through a
    /// scratch registry: copy the live counters, then fold in what every
    /// lane and the source *would* flush at finish (their flushes are
    /// additive and non-destructive), plus the finish-derived cache
    /// aggregates — so restoring the section and adding the post-resume
    /// deltas reproduces the uncrashed totals exactly.
    fn build_snapshot(&self, store: &GraphStore, prog: &dyn GtsProgram) -> Snapshot {
        let mut snap = Snapshot::new(SNAPSHOT_VERSION);
        let mut w = ByteWriter::new();
        w.put_str(prog.name());
        w.put_u64(store_fingerprint(store));
        w.put_u64(config_fingerprint(self.cfg));
        snap.insert("meta", w.into_bytes());

        let mut w = ByteWriter::new();
        w.put_u64((self.t - SimTime::ZERO).as_nanos());
        w.put_u32(self.sweep);
        w.put_u64(self.edges);
        snap.insert("clock", w.into_bytes());

        let rung = self.setup.rung;
        let mut w = ByteWriter::new();
        w.put_u8(strategy_code(rung.strategy));
        w.put_u64(rung.num_streams as u64);
        w.put_bool(rung.cache_off);
        snap.insert("rung", w.into_bytes());

        let lanes = &self.setup.lanes;
        let scratch = Telemetry::new();
        for (k, v) in self.tel.counters() {
            scratch.set(k, v);
        }
        for (i, lane) in lanes.iter().enumerate() {
            lane.flush_to(&scratch, i as u32);
        }
        self.source.flush_to(&scratch);
        let hits: u64 = lanes.iter().map(GpuLane::cache_hits_total).sum();
        let misses: u64 = lanes.iter().map(GpuLane::cache_misses_total).sum();
        scratch.add(keys::CACHE_HITS, hits);
        scratch.add(keys::CACHE_MISSES, misses);
        scratch.add(keys::PAGES_STREAMED, misses);
        let counters = scratch.counters();
        let mut w = ByteWriter::new();
        w.put_u64(counters.len() as u64);
        for (k, v) in &counters {
            w.put_str(k);
            w.put_u64(*v);
        }
        snap.insert("counters", w.into_bytes());

        snap.insert("program", prog.save_state());

        let mut w = ByteWriter::new();
        w.put_seq(self.plan.sp_pids());
        w.put_seq(self.plan.lp_pids());
        snap.insert("plan", w.into_bytes());

        let cursors = self.faults.as_ref().map(FaultPlan::export_cursors);
        let cursors = cursors.unwrap_or_default();
        let mut w = ByteWriter::new();
        w.put_u64(cursors.len() as u64);
        for (&(domain, entity), state) in &cursors {
            w.put_u8(domain);
            w.put_u64(entity);
            for &word in state {
                w.put_u64(word);
            }
        }
        snap.insert("faults", w.into_bytes());

        let (quarantined, failures) = self.source.export_recovery();
        let mut w = ByteWriter::new();
        w.put_seq(&quarantined);
        w.put_seq(&failures);
        snap.insert("storage", w.into_bytes());
        snap
    }

    /// Restore everything [`Job::build_snapshot`] captured ([`Job::open`]
    /// already verified the meta section and rebuilt the lanes from the
    /// rung): the counter registry, the program's vectors, the fault-plan
    /// RNG cursors, the storage quarantine state, and — once every
    /// section has decoded — the loop progress (clock, sweep, edges, plan).
    pub(crate) fn import_snapshot(
        &mut self,
        snap: &Snapshot,
        prog: &mut dyn GtsProgram,
    ) -> Result<(), CkptError> {
        let mut r = ByteReader::new(snap.section("counters")?);
        let n = r.take_u64("counter count")?;
        for _ in 0..n {
            let key = r.take_str("counter key")?;
            let value = r.take_u64("counter value")?;
            self.tel.set(key, value);
        }
        r.finish()?;

        prog.load_state(snap.section("program")?)?;

        let mut r = ByteReader::new(snap.section("plan")?);
        let sp = r.take_seq("plan sp pids")?;
        let lp = r.take_seq("plan lp pids")?;
        r.finish()?;

        let mut r = ByteReader::new(snap.section("faults")?);
        let n = r.take_u64("fault cursor count")?;
        let mut cursors = BTreeMap::new();
        for _ in 0..n {
            let domain = r.take_u8("fault cursor domain")?;
            let entity = r.take_u64("fault cursor entity")?;
            let mut state = [0u64; 4];
            for word in &mut state {
                *word = r.take_u64("fault cursor state")?;
            }
            cursors.insert((domain, entity), state);
        }
        r.finish()?;
        if let Some(plan) = &self.faults {
            plan.restore_cursors(&cursors);
        }

        let mut r = ByteReader::new(snap.section("storage")?);
        let quarantined: Vec<bool> = r.take_seq("storage quarantine flags")?;
        let failures: Vec<u32> = r.take_seq("storage failure counts")?;
        r.finish()?;
        self.source.import_recovery(&quarantined, &failures);

        let mut r = ByteReader::new(snap.section("clock")?);
        let t_ns = r.take_u64("clock t")?;
        let sweep = r.take_u32("clock sweep")?;
        let edges = r.take_u64("clock edges")?;
        r.finish()?;
        self.t = SimTime::ZERO + SimDuration::from_nanos(t_ns);
        (self.sweep, self.edges) = (sweep, edges);
        self.plan = SweepPlan::from_parts(sp, lp);
        Ok(())
    }
}
