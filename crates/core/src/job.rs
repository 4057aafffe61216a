//! The long-lived engine, and the `Job` that is one run of it.
//!
//! * [`Engine`] — what outlives a job: the validated configuration. An
//!   `Engine` holds no per-run state, so one instance can execute any
//!   number of jobs, sequentially or (over read-only stores) concurrently
//!   from many threads.
//! * `Job` — everything one run has: its counter registry (a dedicated
//!   [`Telemetry`] handle), fault plan, checkpoint store and WAL, the
//!   per-GPU lanes with their page caches, the page source, and the
//!   progress of Algorithm 1's loop (clock, sweep, plan). The caller keeps
//!   the store handle and the program and lends them to each step.
//!
//! A run is `Job::open` → `Job::run` → `Job::finish`. `open` provisions,
//! and its errors return before anything is flushed: open the WAL (live
//! runs with a `wal_dir`), open the checkpoint store, and — when resuming
//! — load the newest snapshot (the one place it is read), replay the WAL
//! up to the snapshot's store fingerprint, verify its meta section, and
//! take its rung; then build the lanes (degrading on O.O.M. when
//! allowed) and the page source. `run` is Algorithm 1's repeat-until
//! loop, five named steps per sweep: `upkeep` (due checkpoint, then due
//! scrub), `mutation_boundary`, `sweep` (kernels, accounting, barrier,
//! synchronisation), `advance` (the program's verdict and the next plan)
//! and `watchdog`. `finish` is the unconditional counter flush — a failed
//! run still lands its counters, closes its spans, and yields a partial
//! trace.
//!
//! Every run is one job over this API — [`Engine::run_job`] and
//! [`Engine::run_job_live`] for a service or a library caller, and the
//! solo [`crate::Gts`] wrapper, which is an `Engine` plus its own
//! telemetry handle — and is pinned byte-for-byte by the golden
//! fixtures: a job admitted through a service produces the same
//! report/counters as the same job run solo, at any `host_threads`.

use crate::programs::{ExecMode, GtsProgram, KernelScratch, SweepControl};
use crate::report::RunReport;
use crate::strategy::Strategy;
use crate::sweep::account::{self, SweepAccounting};
use crate::sweep::ckpt::{self, Rung};
use crate::sweep::ingest::{self, PageSource};
use crate::sweep::kernels::{self, KernelEnv};
use crate::sweep::live::{MutationSchedule, StoreHandle};
use crate::sweep::plan::SweepPlan;
use crate::sweep::schedule::{self, GpuLane};
use crate::sweep::scrub;
use crate::{ConfigError, EngineError, GtsConfig};
use gts_ckpt::{CkptStore, KillSwitch, Snapshot};
use gts_exec::ThreadPool;
use gts_faults::FaultPlan;
use gts_sim::{SimDuration, SimTime};
use gts_storage::builder::GraphStore;
use gts_storage::Wal;
use gts_telemetry::{keys, SpanCat, Telemetry, Track};
use std::time::Instant;

/// A long-lived engine: the validated configuration, with no per-run
/// state. One `Engine` executes any number of jobs over shared
/// [`GraphStore`]s; each job gets its own `Job` (lanes, caches, fault
/// domains, counter registry), which is what keeps per-job reports
/// byte-identical to solo runs.
#[derive(Debug, Clone)]
pub struct Engine {
    cfg: GtsConfig,
}

/// Per-job knobs that are not part of the engine configuration: where
/// the job's counters land and which tenant it is accounted to.
#[derive(Debug, Clone)]
pub struct JobOptions {
    /// The job's counter registry (and span sink). Each admitted job
    /// should bring its own handle — [`Telemetry::start_run`] clears it.
    pub telemetry: Telemetry,
    /// Tenant tag for per-tenant cache accounting: when set, every lane
    /// attributes its cache probes to `tenant.<tag>.cache.*` keys in the
    /// job's telemetry. `None` (the solo default) writes no tenant keys.
    pub tenant: Option<String>,
    /// Per-job fault domain: when set, this job opens its fault plan
    /// from *this* config instead of the engine-wide
    /// [`GtsConfig::faults`](crate::GtsConfig), so a service can give
    /// every admitted job its own seeded schedule. A fault that exhausts
    /// the job's retry budget surfaces as this job's typed
    /// [`EngineError`] — it never touches any other job's context.
    pub faults: Option<gts_faults::FaultConfig>,
    /// The kill switch the job's checkpoint store and WAL ask before each
    /// durable step, for a caller whose own durable files share one step
    /// numbering with the job's (a service and its journal). A crash step
    /// in the job's fault config takes precedence; the default never
    /// fires.
    pub kill: KillSwitch,
}

impl Default for JobOptions {
    fn default() -> Self {
        JobOptions::with_telemetry(Telemetry::new())
    }
}

impl JobOptions {
    /// Options recording into `tel`, with no tenant attribution.
    pub fn with_telemetry(tel: Telemetry) -> JobOptions {
        JobOptions {
            telemetry: tel,
            tenant: None,
            faults: None,
            kill: KillSwitch::never(),
        }
    }

    /// Attribute this job's cache traffic to `tenant` (builder-style).
    pub fn tenant(mut self, tenant: impl Into<String>) -> JobOptions {
        self.tenant = Some(tenant.into());
        self
    }

    /// Give this job its own fault domain (builder-style), overriding
    /// the engine-wide fault config for this job only.
    pub fn faults(mut self, faults: gts_faults::FaultConfig) -> JobOptions {
        self.faults = Some(faults);
        self
    }
}

impl Engine {
    /// Validate `cfg` and produce an engine.
    pub fn new(cfg: GtsConfig) -> Result<Engine, ConfigError> {
        cfg.validate()?;
        Ok(Engine { cfg })
    }

    /// The engine's configuration.
    pub fn config(&self) -> &GtsConfig {
        &self.cfg
    }

    /// Execute `prog` over a shared read-only `store` as one job. The
    /// job's counters land in `opts.telemetry`; the returned report is
    /// derived from exactly those counters, byte-identical to
    /// [`crate::Gts::run`] of the same job at any `host_threads`.
    pub fn run_job(
        &self,
        store: &GraphStore,
        prog: &mut dyn GtsProgram,
        opts: &JobOptions,
    ) -> Result<RunReport, EngineError> {
        self.run_handle(&mut StoreHandle::Shared(store), prog, opts)
    }

    /// Execute `prog` over a *live* `store` as one job: `schedule`'s
    /// batches apply at sweep boundaries through the epoch pipeline,
    /// exactly as [`crate::Gts::run_live`].
    pub fn run_job_live(
        &self,
        store: &mut GraphStore,
        prog: &mut dyn GtsProgram,
        schedule: MutationSchedule,
        opts: &JobOptions,
    ) -> Result<RunReport, EngineError> {
        let queue = schedule.into_queue();
        self.run_handle(&mut StoreHandle::Live { store, queue }, prog, opts)
    }

    fn run_handle(
        &self,
        handle: &mut StoreHandle<'_>,
        prog: &mut dyn GtsProgram,
        opts: &JobOptions,
    ) -> Result<RunReport, EngineError> {
        let built = handle.store().pages_built();
        let mut job = Job::open(&self.cfg, handle, prog, opts)?;
        let outcome = job.run(handle, prog);
        let name = prog.algorithm().report_name;
        job.finish(name);
        if self.cfg.measure_host_phases {
            let built = handle.store().pages_built() - built;
            job.tel.add(keys::STORAGE_PAGES_BUILT, built);
        }
        outcome.map(|()| RunReport::from_telemetry(&job.tel, name, "GTS"))
    }
}

/// The effective (possibly degraded) execution parameters plus the lanes
/// built under them.
pub(crate) struct LaneSetup {
    pub(crate) lanes: Vec<GpuLane>,
    pub(crate) rung: Rung,
    pub(crate) wa_per_gpu: u64,
}

impl LaneSetup {
    /// Build the per-GPU lanes, degrading the configuration on O.O.M.
    /// when [`GtsConfig::degrade_on_oom`] allows it: Strategy-P drops to
    /// Strategy-S (splitting the WA), then the stream count halves until
    /// 1, then the page cache is turned off. Every step is counted under
    /// `degrade.events` and recorded as a [`SpanCat::Degrade`] span; if
    /// the ladder runs out, the *original* O.O.M. is returned.
    ///
    /// A resume passes the snapshot's (possibly degraded) `rung` and
    /// starts directly on it: the ladder already ran before the snapshot
    /// was taken, and its degrade events live in the restored counters.
    fn provision(
        cfg: &GtsConfig,
        tel: &Telemetry,
        store: &GraphStore,
        prog: &dyn GtsProgram,
        rung: Option<Rung>,
    ) -> Result<LaneSetup, EngineError> {
        let n = cfg.num_gpus;
        let alg = prog.algorithm();
        let wa_total = alg.wa_bytes_per_vertex * store.num_vertices();
        let mut eff = cfg.clone();
        // The effective stream count is capped by the CUDA concurrent-kernel
        // limit the paper cites (32).
        eff.num_streams = cfg.num_streams.min(cfg.gpu.max_concurrent_kernels);
        if let Some(r) = rung {
            eff.strategy = r.strategy;
            eff.num_streams = r.num_streams;
            if r.cache_off {
                eff.cache_limit_bytes = Some(0);
            }
        }
        let mut first_err: Option<EngineError> = None;
        loop {
            let wa_per_gpu = eff.strategy.wa_bytes_per_gpu(wa_total, n);
            let lanes: Result<Vec<GpuLane>, EngineError> = (0..n)
                .map(|i| {
                    let (streams, ra_bpv) = (eff.num_streams, alg.ra_bytes_per_vertex);
                    GpuLane::for_engine(&eff, store, streams, wa_per_gpu, ra_bpv, tel, i as u32)
                })
                .collect();
            let e = match lanes {
                Ok(lanes) => {
                    let rung = Rung {
                        strategy: eff.strategy,
                        num_streams: eff.num_streams,
                        cache_off: eff.cache_limit_bytes == Some(0),
                    };
                    return Ok(LaneSetup {
                        lanes,
                        rung,
                        wa_per_gpu,
                    });
                }
                Err(e) => e,
            };
            let first = first_err.get_or_insert(e).clone();
            if rung.is_some() || !cfg.degrade_on_oom {
                return Err(first);
            }
            // One rung down the ladder; out of rungs → the original error.
            let step = if matches!(eff.strategy, Strategy::Performance) && n > 1 {
                eff.strategy = Strategy::Scalability;
                "strategy P->S".to_string()
            } else if eff.num_streams > 1 {
                let to = eff.num_streams / 2;
                let label = format!("streams {}->{}", eff.num_streams, to);
                eff.num_streams = to;
                label
            } else if eff.cache_limit_bytes != Some(0) {
                eff.cache_limit_bytes = Some(0);
                "cache off".to_string()
            } else {
                return Err(first);
            };
            tel.add(keys::DEGRADE_EVENTS, 1);
            if tel.spans_enabled() {
                tel.record_span(
                    Track::new(keys::pid::ENGINE, 0),
                    SpanCat::Degrade,
                    step,
                    SimTime::ZERO,
                    SimTime::ZERO,
                );
            }
        }
    }
}

/// One run. It owns everything the run has — only the store handle and
/// the program stay with the caller, which lends them to each step — and
/// every step of Algorithm 1's loop is one of its methods, here and in
/// [`crate::sweep::ckpt`] / [`crate::sweep::live`].
pub(crate) struct Job<'e> {
    pub(crate) cfg: &'e GtsConfig,
    pub(crate) tel: Telemetry,
    pub(crate) faults: Option<FaultPlan>,
    pub(crate) ck: Option<CkptStore>,
    /// The mutation log (live runs with [`GtsConfig::wal_dir`] only).
    pub(crate) wal: Option<Wal>,
    /// The snapshot a resuming run enters from, until [`Job::enter`]
    /// imports it.
    resume: Option<Snapshot>,
    /// Newer manifest entries the snapshot's load skipped as torn or
    /// unreadable (surfaced under `ckpt.manifest.skipped`).
    manifest_skipped: u64,
    /// WAL records the recovery in [`Job::open`] replayed.
    wal_replayed: u64,
    pub(crate) setup: LaneSetup,
    pub(crate) source: Box<dyn PageSource>,
    /// Host threads execute kernel bodies (phase A), each into its own
    /// lane of `scratch`; phase B is one serial pass that orders
    /// simulated time, so results are independent of `host_threads`.
    pool: ThreadPool,
    scratch: KernelScratch,
    /// Total degree of every Large-Page vertex (K_PR_LP needs it);
    /// recomputed whenever a mutation boundary changes the topology.
    pub(crate) lp_degrees: Vec<u64>,
    /// The pages the next sweep streams.
    pub(crate) plan: SweepPlan,
    /// Simulated clock, sweep about to run and edges traversed, as of the
    /// last completed sweep — a typed mid-sweep error leaves them
    /// describing the partial run.
    pub(crate) t: SimTime,
    pub(crate) sweep: u32,
    pub(crate) edges: u64,
    /// The boundary a resumed run re-entered at (its snapshot exists).
    resumed_at: Option<u32>,
    /// Post-convergence revival (unapplied batches remain): the next
    /// boundary's mutation may restrict the sweep to its seeds.
    pub(crate) revived: bool,
    /// The current sweep-mode plan is seed-restricted; if it updates
    /// anything, the following sweep falls back to the full plan.
    pub(crate) restricted: bool,
}

impl<'e> Job<'e> {
    /// Provision a run; see the module docs for the order of the fallible
    /// steps. Nothing is flushed when one of them fails.
    fn open(
        cfg: &'e GtsConfig,
        handle: &mut StoreHandle<'_>,
        prog: &dyn GtsProgram,
        opts: &JobOptions,
    ) -> Result<Job<'e>, EngineError> {
        let tel = opts.telemetry.clone();
        tel.start_run();
        if tel.spans_enabled() {
            tel.name_process(keys::pid::ENGINE, "engine");
            tel.name_thread(Track::new(keys::pid::ENGINE, 0), "run");
            tel.name_thread(Track::new(keys::pid::ENGINE, 1), "cache");
        }
        let faults = opts.faults.as_ref().or(cfg.faults.as_ref());
        let kill = match faults.and_then(|f| f.crash) {
            Some(step) => KillSwitch::at(step),
            None => opts.kill.clone(),
        };
        let faults = faults.cloned().map(FaultPlan::new);
        let wal = match (&cfg.wal_dir, &*handle) {
            (Some(dir), StoreHandle::Live { store, .. }) => {
                Some(Wal::open_with(dir, store, kill.clone())?)
            }
            _ => None,
        };
        let ck = match &cfg.checkpoint {
            Some(c) => Some(CkptStore::open_with(&c.dir, kill).map_err(EngineError::Checkpoint)?),
            None => None,
        };
        // WAL recovery runs BEFORE the meta check: a resuming run rolls
        // the store forward to the snapshot's fingerprint first, so a
        // crash between a checkpoint and the next boundary does not refuse
        // with a fingerprint mismatch. A resumed run re-enters at the rung
        // the snapshot recorded — including any degradations.
        let (mut resume, mut rung) = (None, None);
        let (mut manifest_skipped, mut wal_replayed) = (0, 0);
        if let (Some(ck), Some(true)) = (&ck, cfg.checkpoint.as_ref().map(|c| c.resume)) {
            let loaded = ck.load_latest_with_skipped();
            let (_seq, snap, skipped) = loaded.map_err(EngineError::Checkpoint)?;
            if let Some(wal) = &wal {
                wal_replayed = handle.recover(wal, &snap)?;
            }
            ckpt::verify_meta(&snap, handle.store(), cfg, prog.algorithm().report_name)
                .map_err(EngineError::Checkpoint)?;
            rung = Some(ckpt::rung_of(&snap).map_err(EngineError::Checkpoint)?);
            manifest_skipped = skipped.len() as u64;
            resume = Some(snap);
        }
        let store = handle.store();
        let mut setup = LaneSetup::provision(cfg, &tel, store, prog, rung)?;
        for lane in &mut setup.lanes {
            if let Some(plan) = &faults {
                lane.attach_faults(plan.clone());
            }
            if let Some(tenant) = &opts.tenant {
                lane.set_tenant(tenant);
            }
        }
        Ok(Job {
            cfg,
            source: ingest::for_config(cfg, store.num_pages(), &tel, faults.as_ref()),
            tel,
            faults,
            ck,
            wal,
            resume,
            manifest_skipped,
            wal_replayed,
            setup,
            pool: ThreadPool::new(cfg.host_threads),
            scratch: KernelScratch::default(),
            lp_degrees: kernels::lp_total_degrees(store),
            plan: SweepPlan::from_parts(Vec::new(), Vec::new()),
            t: SimTime::ZERO,
            sweep: 0,
            edges: 0,
            resumed_at: None,
            revived: false,
            restricted: false,
        })
    }

    /// The repeat-until loop (Alg. 1 lines 13-31), then the final WA
    /// write-back for traversal programs (the cost models note this is
    /// negligible, but it is part of the data flow).
    fn run(
        &mut self,
        handle: &mut StoreHandle<'_>,
        prog: &mut dyn GtsProgram,
    ) -> Result<(), EngineError> {
        self.enter(handle.store(), prog)?;
        loop {
            self.upkeep(handle.store(), prog)?;
            self.mutation_boundary(handle, prog)?;
            let acc = self.sweep(handle.store(), prog)?;
            let elapsed = acc.stats.elapsed;
            if !self.advance(handle, prog, acc)? {
                break;
            }
            self.watchdog(handle.store(), prog, elapsed)?;
        }
        if prog.mode() != ExecMode::Sweep {
            self.t = self.sync_wa(self.t);
        }
        Ok(())
    }

    /// How a run enters the loop. Resuming re-enters mid-run: counters,
    /// program vectors, fault cursors, quarantine state and loop progress
    /// restore in place, and the initial WA broadcast is already inside
    /// the restored clock. A fresh run performs the initial WA chunk
    /// copy (Alg. 1 line 11 / Fig. 2 step 1; each GPU has its own PCI-E
    /// link, so the broadcast is parallel) and seeds nextPIDSet (Alg. 1
    /// lines 4-7).
    fn enter(&mut self, store: &GraphStore, prog: &mut dyn GtsProgram) -> Result<(), EngineError> {
        if let Some(snap) = self.resume.take() {
            self.import_snapshot(&snap, prog)
                .map_err(EngineError::Checkpoint)?;
            self.resumed_at = Some(self.sweep);
        } else {
            let mut t = SimTime::ZERO;
            if prog.mode() != ExecMode::Sweep {
                t = schedule::broadcast_wa(&mut self.setup.lanes, self.setup.wa_per_gpu, t);
            }
            self.plan = SweepPlan::seeded(store, prog.start_vertex())?;
            self.t = t;
        }
        // Seeded AFTER the snapshot import, which restores the snapshot's
        // counters and would clobber this run's replay count (the
        // snapshot predates the replay by construction).
        if self.wal.is_some() {
            self.tel.set(keys::WAL_REPLAYED, self.wal_replayed);
        }
        if self.manifest_skipped > 0 {
            self.tel
                .set(keys::CKPT_MANIFEST_SKIPPED, self.manifest_skipped);
        }
        Ok(())
    }

    /// Step 1 — upkeep at the top of a sweep, where the previous
    /// `end_sweep` left every accumulator in its between-sweeps shape.
    /// Order matters, and everything here runs BEFORE the mutation
    /// boundary:
    ///
    /// 1. Due checkpoint — written pre-mutation so the snapshot
    ///    fingerprints the pre-mutation epoch and a resume against the
    ///    mutated store is refused with a typed mismatch. The boundary
    ///    the run resumed at is skipped — its snapshot already exists.
    /// 2. Due background scrub — AFTER the checkpoint write (so a
    ///    snapshot restores pre-scrub counters and fault cursors, and a
    ///    resumed run re-runs this boundary's scrub with identical
    ///    draws), verifying the epoch every in-flight sweep read.
    fn upkeep(&mut self, store: &GraphStore, prog: &dyn GtsProgram) -> Result<(), EngineError> {
        let sweep = self.sweep;
        let due = |every: u32| sweep > 0 && sweep.is_multiple_of(every);
        if let Some(c) = &self.cfg.checkpoint {
            if due(c.every) && self.resumed_at != Some(sweep) {
                self.write_checkpoint(store, prog)?;
            }
        }
        if self.cfg.scrub_every.is_some_and(due) {
            let (faults, source) = (self.faults.as_ref(), self.source.as_mut());
            scrub::scrub_pass(store, faults, source, &self.tel, self.t, sweep);
        }
        Ok(())
    }

    /// Step 3 — one sweep: run the functional kernels (phase A,
    /// host-parallel safe) and account their simulated cost (phase B: one
    /// serial pass in page order) per plan phase, then barrier and
    /// synchronise. Commits the clock and the edge total at the end.
    fn sweep(
        &mut self,
        store: &GraphStore,
        prog: &mut dyn GtsProgram,
    ) -> Result<SweepAccounting, EngineError> {
        let (cfg, sweep, spans) = (self.cfg, self.sweep, self.tel.spans_enabled());
        let sweep_mode = prog.mode() == ExecMode::Sweep;
        let sweep_wall = self.t;
        let mut t = sweep_wall;
        if sweep_mode {
            // Each iteration re-initialises WA on device (nextPR reset;
            // Eq. (1)'s first |WA|/c1 term).
            t = schedule::broadcast_wa(&mut self.setup.lanes, self.setup.wa_per_gpu, t);
        }
        let mut acc = SweepAccounting::new(t, store.num_pages());
        // SPs first, then LPs (reduces kernel switching, Sec. 3.2).
        for phase in 0..2 {
            let env = KernelEnv {
                store,
                lp_degrees: &self.lp_degrees,
                technique: cfg.technique,
                sweep,
            };
            let pids = self.plan.phases()[phase];
            let a0 = cfg.measure_host_phases.then(Instant::now);
            let outcomes =
                kernels::run_page_kernels(prog, &self.pool, &env, pids, &mut self.scratch);
            let b0 = cfg.measure_host_phases.then(Instant::now);
            self.account_phase(&mut acc, store, prog, phase, &outcomes)?;
            if let (Some(a0), Some(b0)) = (a0, b0) {
                // Wall-clock, not simulated: the `host.*` keys sit OUTSIDE
                // the determinism contract (like `ckpt.*`).
                let ns = |d: std::time::Duration| d.as_nanos().min(u64::MAX as u128) as u64;
                self.tel.add(keys::HOST_PHASE_A_NS, ns(b0 - a0));
                self.tel.add(keys::HOST_PHASE_B_NS, ns(b0.elapsed()));
            }
        }
        // Barrier: all GPUs finish the sweep (Alg. 1 line 27)...
        t = account::barrier(&self.setup.lanes, t);
        t = if sweep_mode {
            // ...then the per-sweep WA write-back for sweep programs
            // (Fig. 2 step 3; Eq. (1)'s second |WA|/c1 + tsync terms)...
            self.sync_wa(t)
        } else {
            // ...or copy nextPIDSet / cachedPIDMap back (lines 29-30):
            // one small bitmap pair per GPU.
            account::frontier_copy_back(&mut self.setup.lanes, store.num_pages(), t)
        };
        acc.stats.elapsed = t - sweep_wall;
        account::emit_sweep(&self.tel, spans, sweep, &acc.stats, sweep_wall, t);
        self.edges += acc.edges;
        self.t = t;
        Ok(acc)
    }

    /// WA write-back from every GPU, under the effective strategy.
    fn sync_wa(&mut self, t: SimTime) -> SimTime {
        let s = &mut self.setup;
        account::sync_wa(
            &mut s.lanes,
            s.rung.strategy,
            self.cfg.p2p_sync,
            s.wa_per_gpu,
            t,
        )
    }

    /// Step 4 — the program's verdict on the sweep just run (Alg. 1 line
    /// 31's loop condition) and the next sweep's plan. `false` ends the
    /// run; either way the sweep counts as done.
    fn advance(
        &mut self,
        handle: &StoreHandle<'_>,
        prog: &mut dyn GtsProgram,
        acc: SweepAccounting,
    ) -> Result<bool, EngineError> {
        let store = handle.store();
        let sweep_mode = prog.mode() == ExecMode::Sweep;
        let control = prog.end_sweep(self.sweep, acc.next.is_empty(), acc.any_update);
        self.sweep += 1;
        match control {
            SweepControl::Done => {
                let Some(due) = handle.earliest_pending() else {
                    return Ok(false);
                };
                // Converged, but mutation batches are still scheduled:
                // keep the run alive and jump straight to the next due
                // boundary. The state is a fixpoint of the current
                // topology, so the boundary's seeds are sufficient to
                // re-activate exactly what the batch disturbs.
                self.revived = true;
                if !sweep_mode {
                    self.plan = SweepPlan::from_parts(Vec::new(), Vec::new());
                }
                self.sweep = self.sweep.max(due);
            }
            SweepControl::Continue if !sweep_mode => {
                self.plan = SweepPlan::from_marked(store, acc.next.iter())?;
            }
            // The seed-restricted sweep changed something, so the
            // perturbation may have escaped the dirty pages: fall back to
            // the invariant full plan until the program converges again.
            // Sweep programs otherwise keep the full-page plan.
            SweepControl::Continue if self.restricted => self.plan = SweepPlan::full(store),
            SweepControl::Continue => {}
            SweepControl::ContinueWith(pids) => {
                self.plan = SweepPlan::from_marked(store, pids)?;
            }
        }
        Ok(true)
    }

    /// Step 5 — simulated-clock budgets, checked at the sweep boundary so
    /// a final checkpoint (and the caller's trace flush) leave the run
    /// resumable: the per-sweep deadline first, then the whole-run budget.
    fn watchdog(
        &mut self,
        store: &GraphStore,
        prog: &dyn GtsProgram,
        sweep_elapsed: SimDuration,
    ) -> Result<(), EngineError> {
        let cfg = self.cfg;
        let sweep_ns = sweep_elapsed.as_nanos();
        let run_ns = (self.t - SimTime::ZERO).as_nanos();
        let (what, limit_ns, elapsed_ns) = match (cfg.sweep_deadline_ns, cfg.run_budget_ns) {
            (Some(limit), _) if sweep_ns > limit => ("sweep_deadline_ns", limit, sweep_ns),
            (_, Some(limit)) if run_ns > limit => ("run_budget_ns", limit, run_ns),
            _ => return Ok(()),
        };
        self.write_checkpoint(store, prog)?;
        Err(EngineError::DeadlineExceeded {
            what,
            limit_ns,
            elapsed_ns,
        })
    }

    /// Add what every lane and the page source have counted, plus the
    /// run-wide cache aggregates, to `tel`. Every page touch goes through
    /// the per-GPU caches, so misses ARE the streamed pages and hits the
    /// cache serves — no parallel hand-maintained counters to drift. The
    /// flushes are additive and leave the components untouched, so
    /// `finish` and a snapshot's counter section share this.
    pub(crate) fn flush_components(&self, tel: &Telemetry) {
        let lanes = &self.setup.lanes;
        for (i, lane) in lanes.iter().enumerate() {
            lane.flush_to(tel, i as u32);
        }
        self.source.flush_to(tel);
        let hits: u64 = lanes.iter().map(|l| l.cache().hits()).sum();
        let misses: u64 = lanes.iter().map(|l| l.cache().misses()).sum();
        tel.add(keys::CACHE_HITS, hits);
        tel.add(keys::CACHE_MISSES, misses);
        tel.add(keys::PAGES_STREAMED, misses);
    }

    /// Flush every component's counters into the registry and close the
    /// run span. Called on the error path too, so partial runs still
    /// report what they did.
    fn finish(&self, name: &str) {
        let tel = &self.tel;
        self.flush_components(tel);
        tel.add(keys::EDGES_TRAVERSED, self.edges);
        tel.set(keys::RUN_SWEEPS, self.sweep as u64);
        tel.set(keys::RUN_GPUS, self.cfg.num_gpus as u64);
        tel.set(keys::RUN_ELAPSED_NS, (self.t - SimTime::ZERO).as_nanos());
        // Degraded-mode end state: what the run actually executed with,
        // after any O.O.M. step-downs (or a resumed rung).
        let rung = self.setup.rung;
        let strategy = u64::from(ckpt::strategy_code(rung.strategy));
        tel.set(keys::RUN_FINAL_STRATEGY, strategy);
        tel.set(keys::RUN_FINAL_STREAMS, rung.num_streams as u64);
        tel.set(keys::RUN_CACHE_ENABLED, u64::from(!rung.cache_off));
        if tel.spans_enabled() {
            tel.record_span(
                Track::new(keys::pid::ENGINE, 0),
                SpanCat::Run,
                format!("{name} run"),
                SimTime::ZERO,
                self.t,
            );
        }
    }
}
