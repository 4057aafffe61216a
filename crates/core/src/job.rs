//! The long-lived engine and its per-job state.
//!
//! [`crate::Gts`] owns exactly one run; a *service* admits many. This
//! module splits the old monolithic run path along that line:
//!
//! * [`Engine`] — what outlives a job: the validated configuration and
//!   the lane/cache provisioning recipe built from it. An `Engine` holds
//!   no per-run state, so one instance can execute any number of jobs,
//!   sequentially or (over read-only stores) concurrently from many
//!   threads.
//! * [`JobContext`] — what one job owns: its counter registry (a
//!   dedicated [`Telemetry`] handle), fault/RNG domains, checkpoint glue,
//!   the per-GPU lanes with their page caches, and the page source.
//!   Opened by [`Engine::run_job`]/[`Engine::run_job_live`], dropped when
//!   the job's [`RunReport`] is produced.
//!
//! Solo [`crate::Gts::run`] is a thin one-job session over this API and
//! is pinned byte-for-byte by the golden fixtures: a job admitted through
//! a service produces the same report/counters as the same job run solo,
//! at any `host_threads`.

use crate::programs::{ExecMode, GtsProgram, KernelScratch, SweepControl};
use crate::report::RunReport;
use crate::strategy::Strategy;
use crate::sweep::account::{self, AccountCtx, SweepAccounting};
use crate::sweep::ckpt;
use crate::sweep::ingest::{self, PageSource};
use crate::sweep::kernels::{self, KernelEnv};
use crate::sweep::live::{self, BoundaryCtx, MutationSchedule, StoreHandle};
use crate::sweep::plan::SweepPlan;
use crate::sweep::schedule::{self, GpuLane};
use crate::sweep::scrub;
use crate::{ConfigError, EngineError, GtsConfig};
use gts_ckpt::{CkptStore, KillSwitch, Snapshot};
use gts_exec::ThreadPool;
use gts_faults::FaultPlan;
use gts_sim::SimTime;
use gts_storage::builder::GraphStore;
use gts_storage::Wal;
use gts_telemetry::{keys, SpanCat, Telemetry, Track};

/// A long-lived engine: the validated configuration, with no per-run
/// state. One `Engine` executes any number of jobs over shared
/// [`GraphStore`]s; each job gets its own [`JobContext`] (lanes, caches,
/// fault domains, counter registry), which is what keeps per-job
/// reports byte-identical to solo runs.
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

/// One job's run state, opened by the engine and consumed by its
/// execution: the job's telemetry handle, fault plan, checkpoint store
/// and resume snapshot, the per-GPU lanes (with their page caches) and
/// the page source, plus the progress the sweep loop has made so far.
pub struct JobContext {
    tel: Telemetry,
    tenant: Option<String>,
    faults: Option<FaultPlan>,
    ck: Option<CkptStore>,
    resume: Option<Snapshot>,
    /// Newer manifest entries the resume load skipped as torn or
    /// unreadable (surfaced under `ckpt.manifest.skipped`).
    manifest_skipped: u64,
    setup: LaneSetup,
    source: Box<dyn PageSource>,
    out: RunState,
}

impl JobContext {
    /// The job's telemetry handle.
    pub fn telemetry(&self) -> &Telemetry {
        &self.tel
    }
}

impl Engine {
    /// Validate `cfg` and produce an engine.
    pub fn new(cfg: GtsConfig) -> Result<Engine, ConfigError> {
        cfg.validate()?;
        Ok(Engine { cfg })
    }

    /// An engine over a configuration that is already known valid (both
    /// `Gts` construction paths validate).
    pub(crate) fn from_validated(cfg: GtsConfig) -> Engine {
        Engine { cfg }
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
        self.run_handle(
            &mut StoreHandle::Live {
                store,
                queue: schedule.into_queue(),
            },
            prog,
            opts,
        )
    }

    pub(crate) fn run_handle(
        &self,
        handle: &mut StoreHandle<'_>,
        prog: &mut dyn GtsProgram,
        opts: &JobOptions,
    ) -> Result<RunReport, EngineError> {
        // WAL recovery runs FIRST: a resuming run rolls the store forward
        // to the snapshot's fingerprint before `open_job` verifies it, so
        // a crash between a checkpoint and the next boundary no longer
        // refuses with a fingerprint mismatch.
        let faults = opts.faults.as_ref().or(self.cfg.faults.as_ref());
        let kill = match faults.and_then(|f| f.crash) {
            Some(step) => KillSwitch::at(step),
            None => opts.kill.clone(),
        };
        let (mut wal, wal_replayed) = self.open_wal(handle, &kill)?;
        let mut job = self.open_job(handle.store(), prog, opts, kill)?;
        self.execute_job(&mut job, handle, prog, wal.as_mut(), wal_replayed)
    }

    /// Open the mutation WAL (live runs with [`GtsConfig::wal_dir`] only)
    /// and, when the job is a checkpoint resume, recover the store to the
    /// snapshot's fingerprint by replaying the WAL suffix. Returns the
    /// opened log and how many records the recovery replayed.
    ///
    /// Batches the recovery replayed are popped off the schedule queue so
    /// the resumed loop does not apply them twice; leading *empty* batches
    /// due strictly before the snapshot's sweep are also behind us (they
    /// never move the epoch, so the replay cannot see them).
    fn open_wal(
        &self,
        handle: &mut StoreHandle<'_>,
        kill: &KillSwitch,
    ) -> Result<(Option<Wal>, u64), EngineError> {
        let Some(dir) = &self.cfg.wal_dir else {
            return Ok((None, 0));
        };
        let StoreHandle::Live { store, queue } = handle else {
            return Ok((None, 0));
        };
        let wal = Wal::open_with(dir, store, kill.clone())?;
        let mut replayed = 0u64;
        if let Some(c) = &self.cfg.checkpoint {
            if c.resume {
                let ck = CkptStore::open(&c.dir).map_err(EngineError::Checkpoint)?;
                let (_seq, snap) = ck.load_latest().map_err(EngineError::Checkpoint)?;
                let (target_fp, snap_sweep) =
                    ckpt::snapshot_progress(&snap).map_err(EngineError::Checkpoint)?;
                let base_epoch = store.epoch();
                replayed = ckpt::recover_store(store, &wal, target_fp)?;
                let mut to_skip = store.epoch() - base_epoch;
                while to_skip > 0 {
                    let Some((_, batch)) = queue.pop_front() else {
                        break;
                    };
                    if !batch.is_empty() {
                        to_skip -= 1;
                    }
                }
                while queue
                    .front()
                    .is_some_and(|(due, b)| b.is_empty() && *due < snap_sweep)
                {
                    queue.pop_front();
                }
            }
        }
        Ok((Some(wal), replayed))
    }

    /// First half of a run: clear the job's registry, open fault /
    /// checkpoint domains, provision lanes (degrading on O.O.M. when
    /// allowed), and build the page source.
    fn open_job(
        &self,
        store: &GraphStore,
        prog: &mut dyn GtsProgram,
        opts: &JobOptions,
        kill: KillSwitch,
    ) -> Result<JobContext, EngineError> {
        let tel = opts.telemetry.clone();
        tel.start_run();
        if tel.spans_enabled() {
            tel.name_process(keys::pid::ENGINE, "engine");
            tel.name_thread(Track::new(keys::pid::ENGINE, 0), "run");
            tel.name_thread(Track::new(keys::pid::ENGINE, 1), "cache");
        }
        let faults = opts
            .faults
            .clone()
            .or_else(|| self.cfg.faults.clone())
            .map(FaultPlan::new);
        let ck = match &self.cfg.checkpoint {
            Some(c) => Some(CkptStore::open_with(&c.dir, kill).map_err(EngineError::Checkpoint)?),
            None => None,
        };
        let mut resume: Option<Snapshot> = None;
        let mut manifest_skipped = 0u64;
        if let (Some(ck), Some(c)) = (&ck, &self.cfg.checkpoint) {
            if c.resume {
                let (_seq, snap, skipped) = ck
                    .load_latest_with_skipped()
                    .map_err(EngineError::Checkpoint)?;
                manifest_skipped = skipped.len() as u64;
                ckpt::verify_meta(&snap, store, &self.cfg, prog.name())
                    .map_err(EngineError::Checkpoint)?;
                resume = Some(snap);
            }
        }
        // A resumed run re-enters at the rung the snapshot recorded —
        // including any degradations — instead of replaying the ladder.
        let rung = match &resume {
            Some(snap) => Some(ckpt::rung_of(snap).map_err(EngineError::Checkpoint)?),
            None => None,
        };
        let wa_total = prog.wa_bytes_per_vertex() * store.num_vertices();
        let exec = ExecCtx {
            cfg: &self.cfg,
            tel: &tel,
            tenant: opts.tenant.as_deref(),
        };
        let setup = exec.prepare_lanes(
            store,
            wa_total,
            prog.ra_bytes_per_vertex(),
            faults.as_ref(),
            rung,
        )?;
        let source = ingest::for_config(&self.cfg, store.num_pages(), &tel, faults.as_ref());
        Ok(JobContext {
            tel,
            tenant: opts.tenant.clone(),
            faults,
            ck,
            resume,
            manifest_skipped,
            setup,
            source,
            out: RunState {
                t: SimTime::ZERO,
                sweeps: 0,
                edges: 0,
            },
        })
    }

    /// Second half of a run: the sweep loop, then the unconditional
    /// counter flush — a failed run still lands its counters, closes its
    /// spans, and yields a partial trace.
    fn execute_job(
        &self,
        job: &mut JobContext,
        handle: &mut StoreHandle<'_>,
        prog: &mut dyn GtsProgram,
        wal: Option<&mut Wal>,
        wal_replayed: u64,
    ) -> Result<RunReport, EngineError> {
        let exec = ExecCtx {
            cfg: &self.cfg,
            tel: &job.tel,
            tenant: job.tenant.as_deref(),
        };
        let env = SweepEnv {
            faults: job.faults.as_ref(),
            ck: job.ck.as_ref(),
            resume: job.resume.take(),
            wal,
            wal_replayed,
            manifest_skipped: job.manifest_skipped,
        };
        let err = exec
            .sweep_loop(
                handle,
                prog,
                &mut job.setup,
                job.source.as_mut(),
                env,
                &mut job.out,
            )
            .err();
        exec.finalize(prog.name(), &job.setup, job.source.as_ref(), &job.out);
        match err {
            Some(e) => Err(e),
            None => Ok(RunReport::from_telemetry(&job.tel, prog.name(), "GTS")),
        }
    }
}

/// What one job's execution reads everywhere: the engine configuration,
/// the job's counter registry, and its tenant tag. This is the `self` of
/// the run machinery — an `Engine` has no telemetry of its own.
struct ExecCtx<'a> {
    cfg: &'a GtsConfig,
    tel: &'a Telemetry,
    tenant: Option<&'a str>,
}

impl ExecCtx<'_> {
    /// The checkpoint-write context for one boundary: this job's
    /// configuration and registry plus the run's store/checkpoint/fault
    /// handles.
    fn write_ctx<'b>(
        &'b self,
        store: &'b GraphStore,
        ck: &'b CkptStore,
        faults: Option<&'b FaultPlan>,
    ) -> ckpt::WriteCtx<'b> {
        ckpt::WriteCtx {
            cfg: self.cfg,
            tel: self.tel,
            store,
            ck,
            faults,
        }
    }

    /// Build the per-GPU lanes, degrading the configuration on O.O.M.
    /// when [`GtsConfig::degrade_on_oom`] allows it: Strategy-P drops to
    /// Strategy-S (splitting the WA), then the stream count halves until
    /// 1, then the page cache is turned off. Every step is counted under
    /// `degrade.events` and recorded as a [`SpanCat::Degrade`] span; if
    /// the ladder runs out, the *original* O.O.M. is returned.
    fn prepare_lanes(
        &self,
        store: &GraphStore,
        wa_total: u64,
        ra_bpv: u64,
        faults: Option<&FaultPlan>,
        rung: Option<ckpt::Rung>,
    ) -> Result<LaneSetup, EngineError> {
        let cfg = self.cfg;
        let tel = self.tel;
        let n = cfg.num_gpus;
        let mut eff = cfg.clone();
        // The effective stream count is capped by the CUDA concurrent-kernel
        // limit the paper cites (32).
        eff.num_streams = cfg.num_streams.min(cfg.gpu.max_concurrent_kernels);
        // A resume starts directly on the snapshot's (possibly degraded)
        // rung: the ladder already ran before the snapshot was taken, and
        // its degrade events live in the restored counters.
        let resumed = rung.is_some();
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
            let mut lanes = Vec::with_capacity(n);
            let oom = (0..n).find_map(|i| {
                match GpuLane::for_engine(
                    &eff,
                    store,
                    eff.num_streams,
                    wa_per_gpu,
                    ra_bpv,
                    tel,
                    i as u32,
                ) {
                    Ok(mut lane) => {
                        if let Some(plan) = faults {
                            lane.attach_faults(plan.clone());
                        }
                        if let Some(tenant) = self.tenant {
                            lane.set_tenant(tenant);
                        }
                        lanes.push(lane);
                        None
                    }
                    Err(e) => Some(e),
                }
            });
            let Some(e) = oom else {
                return Ok(LaneSetup {
                    lanes,
                    strategy: eff.strategy,
                    wa_per_gpu,
                    num_streams: eff.num_streams,
                    cache_off: eff.cache_limit_bytes == Some(0),
                });
            };
            let first = first_err.get_or_insert(e).clone();
            if resumed || !cfg.degrade_on_oom {
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

    /// How a run enters the sweep loop. Resuming re-enters mid-run:
    /// counters, program vectors, fault cursors, and quarantine state
    /// restore in place, and the initial WA broadcast is already inside
    /// the restored clock. A fresh run performs the initial WA chunk
    /// copy (Alg. 1 line 11 / Fig. 2 step 1; each GPU has its own PCI-E
    /// link, so the broadcast is parallel) and seeds nextPIDSet (Alg. 1
    /// lines 4-7).
    fn enter_run(
        &self,
        resume: Option<&Snapshot>,
        prog: &mut dyn GtsProgram,
        source: &mut dyn PageSource,
        faults: Option<&FaultPlan>,
        setup: &mut LaneSetup,
        store: &GraphStore,
    ) -> Result<RunEntry, EngineError> {
        if let Some(snap) = resume {
            let rs = ckpt::import_snapshot(snap, self.tel, prog, source, faults)
                .map_err(EngineError::Checkpoint)?;
            return Ok(RunEntry {
                t: rs.t,
                sweep: rs.sweep,
                resumed_at: Some(rs.sweep),
                edges: rs.edges,
                plan: rs.plan,
            });
        }
        let t = if prog.mode() == ExecMode::Sweep {
            SimTime::ZERO
        } else {
            schedule::broadcast_wa(&mut setup.lanes, setup.wa_per_gpu, SimTime::ZERO)
        };
        Ok(RunEntry {
            t,
            sweep: 0,
            resumed_at: None,
            edges: 0,
            plan: SweepPlan::seeded(store, prog.start_vertex())?,
        })
    }

    /// The upkeep pass at the top of sweep `sweep`, where the previous
    /// end_sweep left every accumulator in its between-sweeps shape.
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
    fn sweep_top_upkeep(
        &self,
        g: &UpkeepGate<'_>,
        store: &GraphStore,
        lanes: &mut [GpuLane],
        source: &mut dyn PageSource,
        prog: &dyn GtsProgram,
        plan: &SweepPlan,
    ) -> Result<(), EngineError> {
        let (t, sweep) = (g.t, g.sweep);
        if let (Some(c), Some(ck)) = (&self.cfg.checkpoint, g.ck) {
            if sweep > 0 && sweep.is_multiple_of(c.every) && g.resumed_at != Some(sweep) {
                let b = boundary(g.rung, t, sweep, g.edges);
                let w = self.write_ctx(store, ck, g.faults);
                ckpt::write_checkpoint(&w, lanes, source, prog, plan, &b)?;
            }
        }
        if let Some(every) = self.cfg.scrub_every {
            if sweep > 0 && sweep.is_multiple_of(every) {
                scrub::scrub_pass(store, g.faults, source, self.tel, t, sweep);
            }
        }
        Ok(())
    }

    /// The repeat-until loop (Alg. 1 lines 13-31): per sweep, run the
    /// functional kernels (phase A, host-parallel safe), account their
    /// simulated cost (phase B: one serial pass in page order), then
    /// barrier and synchronise. Progress lands in `out` as it is made,
    /// so a typed mid-run error leaves `out` describing the partial run.
    fn sweep_loop(
        &self,
        handle: &mut StoreHandle<'_>,
        prog: &mut dyn GtsProgram,
        setup: &mut LaneSetup,
        source: &mut dyn PageSource,
        env: SweepEnv<'_>,
        out: &mut RunState,
    ) -> Result<(), EngineError> {
        let cfg = self.cfg;
        let tel = self.tel;
        let spans = tel.spans_enabled();
        let rung = ckpt::Rung::of(setup);
        let SweepEnv {
            faults,
            ck,
            resume,
            mut wal,
            wal_replayed,
            manifest_skipped,
        } = env;
        // Total degree of every Large-Page vertex (K_PR_LP needs it);
        // recomputed whenever a mutation boundary changes the topology.
        let mut lp_degrees = kernels::lp_total_degrees(handle.store());

        let sweep_mode = prog.mode() == ExecMode::Sweep;
        // Post-convergence revival (unapplied batches remain): the next
        // boundary's mutation may restrict the sweep to its seeds.
        let mut revived = false;
        // The current sweep-mode plan is seed-restricted; if it updates
        // anything, the following sweep falls back to the full plan.
        // (Assigned at every mutation boundary before it is read.)
        let mut restricted;
        let entry = self.enter_run(resume.as_ref(), prog, source, faults, setup, handle.store())?;
        let RunEntry {
            mut t,
            mut sweep,
            resumed_at,
            edges,
            mut plan,
        } = entry;
        out.edges = edges;
        out.sweeps = sweep;
        let lanes = &mut setup.lanes;
        // Set AFTER the snapshot import: the import restores the
        // snapshot's counters, which would clobber this run's replay
        // count (the snapshot predates the replay by construction).
        seed_recovery_counters(tel, wal.is_some(), wal_replayed, manifest_skipped);
        out.t = t;

        let mut scratch = KernelScratch::default();
        // Host threads execute kernel bodies (phase A), each into its own
        // lane of `scratch`; phase B is one serial pass that orders
        // simulated time, so results are independent of `host_threads`.
        let pool = ThreadPool::new(cfg.host_threads);
        loop {
            // --- Sweep-top upkeep: due checkpoint, then due scrub — both
            // BEFORE the mutation boundary (ordering contract documented
            // on `sweep_top_upkeep`).
            let gate = UpkeepGate {
                ck,
                faults,
                rung,
                resumed_at,
                t,
                sweep,
                edges: out.edges,
            };
            self.sweep_top_upkeep(&gate, handle.store(), lanes, source, &*prog, &plan)?;
            // --- Mutation boundary: apply every batch due at this sweep
            // and invalidate/reseed around it. In-flight state only ever
            // sees the store before or after a whole batch — never mid-
            // rewrite (epoch visibility, DESIGN.md §12).
            restricted = live::mutation_boundary(
                handle,
                prog,
                BoundaryCtx {
                    tel,
                    lanes: lanes.as_mut_slice(),
                    source: &mut *source,
                    lp_degrees: &mut lp_degrees,
                    plan: &mut plan,
                    sweep,
                    sweep_mode,
                    revived,
                    wal: wal.as_deref_mut(),
                },
            )?;
            revived = false;
            let store = handle.store();
            let ctx = AccountCtx {
                store,
                strategy: setup.strategy,
                num_gpus: cfg.num_gpus,
                page_size: store.cfg().page_size as u64,
                ra_bytes_per_vertex: prog.ra_bytes_per_vertex(),
                class: prog.class(),
                tel,
                spans,
            };
            let sweep_wall = t;
            if sweep_mode {
                // Each iteration re-initialises WA on device (nextPR reset;
                // Eq. (1)'s first |WA|/c1 term).
                t = schedule::broadcast_wa(lanes, setup.wa_per_gpu, t);
            }
            let mut acc = SweepAccounting::new(t);

            // SPs first, then LPs (reduces kernel switching, Sec. 3.2).
            for phase in plan.phases() {
                let env = KernelEnv {
                    store,
                    lp_degrees: &lp_degrees,
                    technique: cfg.technique,
                    sweep,
                };
                let a0 = cfg.measure_host_phases.then(std::time::Instant::now);
                let outcomes = kernels::run_page_kernels(prog, &pool, &env, phase, &mut scratch);
                let b0 = cfg.measure_host_phases.then(std::time::Instant::now);
                acc.account_phase(&ctx, lanes, source, phase, &outcomes)?;
                record_host_phases(tel, a0, b0);
            }

            // Barrier: all GPUs finish the sweep (Alg. 1 line 27)...
            t = account::barrier(lanes, t);
            if !sweep_mode {
                // ...then copy nextPIDSet / cachedPIDMap back (lines
                // 29-30): one small bitmap pair per GPU.
                t = account::frontier_copy_back(lanes, store.num_pages(), t);
            } else {
                // ...or the per-sweep WA write-back for sweep programs
                // (Fig. 2 step 3; Eq. (1)'s second |WA|/c1 + tsync terms).
                t = account::sync_wa(lanes, setup.strategy, cfg.p2p_sync, setup.wa_per_gpu, t);
            }

            out.edges += acc.edges;
            let mut stats = acc.stats;
            stats.elapsed = t - sweep_wall;
            account::emit_sweep(tel, spans, sweep, &stats, sweep_wall, t);
            out.t = t;
            out.sweeps = sweep + 1;

            match prog.end_sweep(sweep, acc.next.is_empty(), acc.any_update) {
                SweepControl::Done => {
                    let Some(due) = handle.earliest_pending() else {
                        break;
                    };
                    // Converged, but mutation batches are still scheduled:
                    // keep the run alive and jump straight to the next due
                    // boundary. The state is a fixpoint of the current
                    // topology, so the boundary's seeds are sufficient to
                    // re-activate exactly what the batch disturbs.
                    revived = true;
                    if !sweep_mode {
                        plan = SweepPlan::from_parts(Vec::new(), Vec::new());
                    }
                    sweep = sweep.max(due.saturating_sub(1));
                }
                SweepControl::Continue => {
                    if !sweep_mode {
                        plan = SweepPlan::from_marked(store, acc.next)?;
                    } else if restricted {
                        // The seed-restricted sweep changed something, so
                        // the perturbation may have escaped the dirty
                        // pages: fall back to the invariant full plan
                        // until the program converges again.
                        plan = SweepPlan::full(store);
                    }
                    // Sweep programs otherwise keep the full-page plan.
                }
                SweepControl::ContinueWith(pids) => {
                    plan = SweepPlan::from_marked(store, pids.into_iter().collect())?;
                }
            }
            sweep += 1;

            // --- Watchdog: simulated-clock budgets, checked at the sweep
            // boundary so a final checkpoint (and the caller's trace
            // flush) leave the run resumable.
            let run_ns = (t - SimTime::ZERO).as_nanos();
            if let Some((what, limit_ns, elapsed_ns)) =
                tripped_budget(cfg, stats.elapsed.as_nanos(), run_ns)
            {
                if let (Some(_), Some(ck)) = (&cfg.checkpoint, ck) {
                    let b = boundary(rung, t, sweep, out.edges);
                    let w = self.write_ctx(store, ck, faults);
                    ckpt::write_checkpoint(&w, lanes, source, prog, &plan, &b)?;
                }
                return Err(EngineError::DeadlineExceeded {
                    what,
                    limit_ns,
                    elapsed_ns,
                });
            }
        }

        // Final WA write-back for traversal programs (the cost models note
        // this is negligible, but it is part of the data flow).
        if !sweep_mode {
            t = account::sync_wa(lanes, setup.strategy, cfg.p2p_sync, setup.wa_per_gpu, t);
            out.t = t;
        }
        Ok(())
    }

    /// Flush every component's counters into the registry and close the
    /// run span. Every page touch goes through the per-GPU caches, so
    /// misses ARE the streamed pages and hits the cache serves — no
    /// parallel hand-maintained counters to drift. Called on the error
    /// path too, so partial runs still report what they did.
    fn finalize(&self, name: &str, setup: &LaneSetup, source: &dyn PageSource, out: &RunState) {
        let tel = self.tel;
        let mut hits = 0u64;
        let mut misses = 0u64;
        for (i, lane) in setup.lanes.iter().enumerate() {
            // Bank-inclusive totals: checkpoint boundaries rebuild the
            // caches cold, banking their statistics first.
            hits += lane.cache_hits_total();
            misses += lane.cache_misses_total();
            lane.flush_to(tel, i as u32);
        }
        tel.add(keys::CACHE_HITS, hits);
        tel.add(keys::CACHE_MISSES, misses);
        tel.add(keys::PAGES_STREAMED, misses);
        tel.add(keys::EDGES_TRAVERSED, out.edges);
        source.flush_to(tel);
        tel.set(keys::RUN_SWEEPS, out.sweeps as u64);
        tel.set(keys::RUN_GPUS, self.cfg.num_gpus as u64);
        tel.set(keys::RUN_ELAPSED_NS, (out.t - SimTime::ZERO).as_nanos());
        // Degraded-mode end state: what the run actually executed with,
        // after any O.O.M. step-downs (or a resumed rung).
        tel.set(
            keys::RUN_FINAL_STRATEGY,
            u64::from(ckpt::strategy_code(setup.strategy)),
        );
        tel.set(keys::RUN_FINAL_STREAMS, setup.num_streams as u64);
        tel.set(keys::RUN_CACHE_ENABLED, u64::from(!setup.cache_off));
        if tel.spans_enabled() {
            tel.record_span(
                Track::new(keys::pid::ENGINE, 0),
                SpanCat::Run,
                format!("{name} run"),
                SimTime::ZERO,
                out.t,
            );
        }
    }
}

/// Shorthand for one sweep boundary's progress tuple.
fn boundary(rung: ckpt::Rung, t: SimTime, sweep: u32, edges: u64) -> ckpt::Boundary {
    ckpt::Boundary {
        rung,
        t,
        sweep,
        edges,
    }
}

/// Which simulated-clock budget tripped at this sweep boundary, if any:
/// `(key, limit_ns, elapsed_ns)` for the per-sweep deadline first, then
/// the whole-run budget.
fn tripped_budget(cfg: &GtsConfig, sweep_ns: u64, run_ns: u64) -> Option<(&'static str, u64, u64)> {
    match (cfg.sweep_deadline_ns, cfg.run_budget_ns) {
        (Some(limit), _) if sweep_ns > limit => Some(("sweep_deadline_ns", limit, sweep_ns)),
        (_, Some(limit)) if run_ns > limit => Some(("run_budget_ns", limit, run_ns)),
        _ => None,
    }
}

/// Seed the recovery counters a run starts with: how many WAL records
/// replay applied (any WAL-backed run) and how many manifest entries the
/// resume load skipped as torn or unreadable.
fn seed_recovery_counters(tel: &Telemetry, wal_backed: bool, replayed: u64, skipped: u64) {
    if wal_backed {
        tel.set(keys::WAL_REPLAYED, replayed);
    }
    if skipped > 0 {
        tel.set(keys::CKPT_MANIFEST_SKIPPED, skipped);
    }
}

/// Record one phase's A/B wall-clock split when `measure_host_phases`
/// captured the two instants. Wall-clock, not simulated: the `host.*`
/// keys sit OUTSIDE the determinism contract (like `ckpt.*`) and are
/// only written when explicitly asked for.
fn record_host_phases(
    tel: &Telemetry,
    a0: Option<std::time::Instant>,
    b0: Option<std::time::Instant>,
) {
    if let (Some(a0), Some(b0)) = (a0, b0) {
        tel.add(
            keys::HOST_PHASE_A_NS,
            (b0 - a0).as_nanos().min(u64::MAX as u128) as u64,
        );
        tel.add(
            keys::HOST_PHASE_B_NS,
            b0.elapsed().as_nanos().min(u64::MAX as u128) as u64,
        );
    }
}

/// The effective (possibly degraded) execution parameters plus the lanes
/// built under them.
pub(crate) struct LaneSetup {
    pub(crate) lanes: Vec<GpuLane>,
    pub(crate) strategy: Strategy,
    pub(crate) wa_per_gpu: u64,
    pub(crate) num_streams: usize,
    pub(crate) cache_off: bool,
}

/// Per-run context threaded into the sweep loop: the fault plan, the
/// checkpoint store, the snapshot a resuming run starts from, and the
/// mutation WAL (with how many records recovery already replayed).
struct SweepEnv<'a> {
    faults: Option<&'a FaultPlan>,
    ck: Option<&'a CkptStore>,
    resume: Option<Snapshot>,
    wal: Option<&'a mut Wal>,
    wal_replayed: u64,
    manifest_skipped: u64,
}

/// Where [`ExecCtx::enter_run`] left the run: the starting clock, sweep
/// number, resume marker, prior progress, and the first sweep's plan.
struct RunEntry {
    t: SimTime,
    sweep: u32,
    resumed_at: Option<u32>,
    edges: u64,
    plan: SweepPlan,
}

/// Loop-invariant gates plus this boundary's clock/progress, read by
/// [`ExecCtx::sweep_top_upkeep`].
struct UpkeepGate<'a> {
    ck: Option<&'a CkptStore>,
    faults: Option<&'a FaultPlan>,
    rung: ckpt::Rung,
    resumed_at: Option<u32>,
    t: SimTime,
    sweep: u32,
    edges: u64,
}

/// Progress of one run, updated as it is made so the error path can
/// still report the partial run.
struct RunState {
    t: SimTime,
    sweeps: u32,
    edges: u64,
}
