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
//! and drive queues. The caches and the MMBuf are one mechanism
//! (`gts_storage::CachePolicy`); every boundary clears them to their
//! freshly built state, counters kept, so the checkpointing run and the
//! resumed run see identical schedules. Timers and drive queues are fully
//! drained at the boundary barrier, so fresh ones behave identically.

use crate::engine::{CheckpointConfig, EngineError, GtsConfig};
use crate::job::Job;
use crate::programs::GtsProgram;
use crate::strategy::Strategy;
use crate::sweep::ingest::StorageSource;
use crate::sweep::plan::SweepPlan;
use gts_ckpt::{fnv1a, ByteReader, ByteWriter, CkptError, Snapshot};
use gts_faults::{FaultConfig, FaultPlan};
use gts_sim::{SimDuration, SimTime};
use gts_storage::builder::{GraphStore, StoreShape};
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
    shape_fingerprint(&store.shape())
}

/// [`store_fingerprint`] of a store's counts, page size and epoch — all
/// it reads — as a mutation call reports them between its batches
/// ([`gts_storage::Wal::replay_until`]).
pub fn shape_fingerprint(shape: &StoreShape) -> u64 {
    let mut w = ByteWriter::new();
    w.put_u64(shape.num_vertices());
    w.put_u64(shape.num_edges());
    w.put_u64(shape.num_pages());
    w.put_u64(shape.page_size() as u64);
    w.put_u64(shape.small_pages());
    w.put_u64(shape.large_pages());
    w.put_u64(shape.epoch());
    fnv1a(&w.into_bytes())
}

/// The identity of a run: what a snapshot records and a resume must
/// match, or be refused with a typed [`CkptError::Mismatch`] on
/// `"config fingerprint"`. It hashes the whole configuration and the
/// job's fault plan, with the resume-neutral fields reset — the ones a
/// resumed run may change without changing a simulated number:
/// `host_threads` and `measure_host_phases` (wall-side only), where the
/// snapshots and the WAL live and whether this run resumes, and the two
/// watchdog budgets (a run resumed after a blown budget runs without
/// it). Every other field is part of the schedule, `checkpoint.every`
/// included: a checkpoint boundary is a cold-cache boundary.
pub fn config_fingerprint(cfg: &GtsConfig, faults: Option<&FaultConfig>) -> u64 {
    let normalized = GtsConfig {
        host_threads: 1,
        measure_host_phases: false,
        checkpoint: cfg
            .checkpoint
            .as_ref()
            .map(|c| CheckpointConfig::new("", c.every)),
        wal_dir: None,
        sweep_deadline_ns: None,
        run_budget_ns: None,
        ..cfg.clone()
    };
    fnv1a(format!("{normalized:?} {faults:?}").as_bytes())
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
/// graph store, and [`config_fingerprint`] before anything is restored
/// from it.
pub(crate) fn verify_meta(
    snap: &Snapshot,
    store: &GraphStore,
    cfg_fp: u64,
    algorithm: &str,
) -> Result<(), CkptError> {
    snap.require_version(SNAPSHOT_VERSION)?;
    let (alg, store_fp, got_cfg_fp) = read_meta(snap)?;
    if alg != algorithm {
        return Err(CkptError::Corrupt {
            reason: format!("snapshot was taken by {alg}, this run executes {algorithm}"),
        });
    }
    for (what, want, got) in [
        ("store fingerprint", store_fingerprint(store), store_fp),
        ("config fingerprint", cfg_fp, got_cfg_fp),
    ] {
        if got != want {
            return Err(CkptError::Mismatch { what, want, got });
        }
    }
    Ok(())
}

/// The store fingerprint and sweep index a snapshot of this schema
/// version recorded, read ahead of `verify_meta`: crash recovery needs
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
/// Typed [`CkptError::Mismatch`] when the log is exhausted before
/// `target` is reached, and [`EngineError::Wal`] when a record does not
/// chain onto the store's epoch: either way the WAL does not cover the
/// gap, so the old refusal stands.
pub(crate) fn recover_store(
    store: &mut GraphStore,
    wal: &gts_storage::Wal,
    target: u64,
) -> Result<u64, EngineError> {
    let applied = wal.replay_until(store, |s| shape_fingerprint(s) == target)?;
    let got = store_fingerprint(store);
    if got != target {
        return Err(EngineError::Checkpoint(CkptError::Mismatch {
            what: "store fingerprint",
            want: target,
            got,
        }));
    }
    Ok(applied)
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
            lane.checkpoint_reset();
        }
        if let Some(source) = &mut self.source {
            source.checkpoint_reset();
        }
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
    /// scratch registry: copy the live counters, then add what `finish`
    /// would flush ([`Job::flush_components`]) — so restoring the section
    /// and adding the post-resume deltas reproduces the uncrashed totals
    /// exactly.
    fn build_snapshot(&self, store: &GraphStore, prog: &dyn GtsProgram) -> Snapshot {
        let mut snap = Snapshot::new(SNAPSHOT_VERSION);
        let mut w = ByteWriter::new();
        w.put_str(prog.algorithm().report_name);
        w.put_u64(store_fingerprint(store));
        let faults = self.faults.as_ref().map(FaultPlan::config);
        w.put_u64(config_fingerprint(self.cfg, faults));
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

        let scratch = Telemetry::new();
        for (k, v) in self.tel.counters() {
            scratch.set(k, v);
        }
        self.flush_components(&scratch);
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

        let recovery = self.source.as_ref().map(StorageSource::export_recovery);
        let (quarantined, failures) = recovery.unwrap_or_default();
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
        if let Some(source) = &mut self.source {
            source.import_recovery(&quarantined, &failures);
        }

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{CachePolicyKind, StorageLocation};
    use gts_gpu::warp::MicroTechnique;
    use gts_gpu::{GpuConfig, PcieConfig};
    use gts_sim::SimDuration;

    /// Every field of `GtsConfig` is classified here: the literal below
    /// names them all (no `..default()`), so adding a field fails to
    /// compile until it is added to it and to exactly one of the two
    /// lists. A neutral field may differ between a run and its resume; a
    /// schedule field must move the fingerprint.
    #[test]
    fn every_config_field_is_either_resume_neutral_or_moves_the_fingerprint() {
        let base = GtsConfig {
            num_gpus: 2,
            num_streams: 8,
            strategy: Strategy::Performance,
            technique: MicroTechnique::default_edge_centric(),
            gpu: GpuConfig::titan_x(),
            pcie: PcieConfig::gen3_x16(),
            storage: StorageLocation::Ssds(2),
            mmbuf_percent: 20,
            cache_policy: CachePolicyKind::Lru,
            cache_limit_bytes: Some(1 << 20),
            p2p_sync: true,
            host_threads: 2,
            measure_host_phases: false,
            degrade_on_oom: true,
            checkpoint: Some(CheckpointConfig::new("ck", 2)),
            wal_dir: Some("wal".into()),
            scrub_every: Some(2),
            sweep_deadline_ns: Some(1_000),
            run_budget_ns: Some(10_000),
        };
        type Edit = (&'static str, fn(&mut GtsConfig));
        let neutral: [Edit; 7] = [
            ("host_threads", |c| c.host_threads = 4),
            ("measure_host_phases", |c| c.measure_host_phases = true),
            ("checkpoint.dir", |c| {
                c.checkpoint = Some(CheckpointConfig::new("elsewhere", 2));
            }),
            ("checkpoint.resume", |c| {
                c.checkpoint = Some(CheckpointConfig::new("ck", 2).resuming());
            }),
            ("wal_dir", |c| c.wal_dir = None),
            ("sweep_deadline_ns", |c| c.sweep_deadline_ns = None),
            ("run_budget_ns", |c| c.run_budget_ns = Some(1)),
        ];
        let schedule: [Edit; 16] = [
            ("num_gpus", |c| c.num_gpus = 4),
            ("num_streams", |c| c.num_streams = 16),
            ("strategy", |c| c.strategy = Strategy::Scalability),
            ("technique", |c| c.technique = MicroTechnique::VertexCentric),
            ("gpu", |c| {
                c.gpu = GpuConfig::titan_x().with_device_memory(300_000)
            }),
            ("pcie", |c| c.pcie.latency = SimDuration::from_micros(7)),
            ("storage", |c| c.storage = StorageLocation::Hdds(2)),
            ("mmbuf_percent", |c| c.mmbuf_percent = 0),
            ("cache_policy", |c| c.cache_policy = CachePolicyKind::Fifo),
            ("cache_limit_bytes", |c| c.cache_limit_bytes = None),
            ("p2p_sync", |c| c.p2p_sync = false),
            ("degrade_on_oom", |c| c.degrade_on_oom = false),
            ("checkpoint", |c| c.checkpoint = None),
            ("checkpoint.every", |c| {
                c.checkpoint = Some(CheckpointConfig::new("ck", 1));
            }),
            ("scrub_every", |c| c.scrub_every = None),
            ("scrub_every value", |c| c.scrub_every = Some(3)),
        ];
        let want = config_fingerprint(&base, None);
        for (field, edit) in neutral {
            let mut cfg = base.clone();
            edit(&mut cfg);
            assert_eq!(config_fingerprint(&cfg, None), want, "{field} is neutral");
        }
        for (field, edit) in schedule {
            let mut cfg = base.clone();
            edit(&mut cfg);
            assert_ne!(config_fingerprint(&cfg, None), want, "{field} is schedule");
        }
    }

    /// The job's fault plan is part of the identity, field by field, and a
    /// quiet plan is not the same run as no plan.
    #[test]
    fn every_fault_field_moves_the_fingerprint() {
        let cfg = GtsConfig::default();
        let plan = FaultConfig {
            seed: 7,
            read_error_ppm: 1,
            corrupt_page_ppm: 2,
            copy_fault_ppm: 3,
            launch_fault_ppm: 4,
            bit_rot_ppm: 5,
            max_retries: 6,
            quarantine_after: 7,
            backoff: SimDuration::from_micros(8),
        };
        let want = config_fingerprint(&cfg, Some(&plan));
        assert_ne!(config_fingerprint(&cfg, None), want);
        let quiet = FaultConfig::quiet(0);
        assert_ne!(
            config_fingerprint(&cfg, Some(&quiet)),
            config_fingerprint(&cfg, None)
        );
        let edits: [fn(&mut FaultConfig); 9] = [
            |f| f.seed = 8,
            |f| f.read_error_ppm = 0,
            |f| f.corrupt_page_ppm = 0,
            |f| f.copy_fault_ppm = 0,
            |f| f.launch_fault_ppm = 0,
            |f| f.bit_rot_ppm = 0,
            |f| f.max_retries = 0,
            |f| f.quarantine_after = 0,
            |f| f.backoff = SimDuration::from_micros(9),
        ];
        for (i, edit) in edits.into_iter().enumerate() {
            let mut other = plan.clone();
            edit(&mut other);
            assert_ne!(config_fingerprint(&cfg, Some(&other)), want, "field {i}");
        }
    }
}
