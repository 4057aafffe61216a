//! The job scheduler: a deterministic multi-tenant queueing layer over
//! [`gts_core::Engine`].
//!
//! ## Model
//!
//! The service owns `slots` concurrent **service slots** — each slot
//! stands for one provisioned set of GPU lanes plus its share of
//! storage bandwidth. Jobs arrive at scripted simulated times and are
//! dispatched FIFO: a read job takes the earliest-free slot, an
//! edge-mutating job is an **all-slots barrier** (topology rewriting
//! owns every lane, exactly like the epoch pipeline's invalidation
//! sweep), so no read ever observes a half-applied batch. Store state
//! is therefore a clean sequence of epochs: every job admitted after a
//! mutation sees it, every job admitted before it does not.
//!
//! ## Admission control
//!
//! A job that cannot start the instant it arrives must wait, and
//! waiting is bounded, surfaced as typed backpressure:
//!
//! * [`ServeError::BreakerOpen`] — the tenant's circuit breaker is
//!   open: it accumulated too many consecutive failures and its
//!   arrivals are shed until the cool-down elapses.
//! * [`ServeError::Shed`] — load-aware overload shedding: service
//!   pressure crossed the job's priority-scaled watermark.
//! * [`ServeError::QueueFull`] — the shared queue already holds
//!   `queue_capacity` waiting jobs.
//! * [`ServeError::Rejected`] — this tenant already has
//!   `tenant_queue_capacity` waiting jobs (one noisy tenant cannot
//!   starve the rest of the queue).
//! * [`ServeError::Deadline`] — the job's start would come more than
//!   `deadline_ns` after arrival; it is dropped at dispatch instead of
//!   running uselessly late, and it frees its queue slot immediately
//!   (a job known dead at decision time never crowds out later
//!   arrivals).
//!
//! ## Faults and resilience
//!
//! With a service fault template configured ([`ServeConfig::faults`]),
//! every `(job, attempt)` execution derives its own fault domain from
//! the one service seed ([`gts_faults::FaultConfig::derived`]), so one
//! tenant's faults never perturb another tenant's counters and the
//! whole service stays deterministic at any `host_threads`. An engine
//! failure becomes a typed [`JobStatus::Failed`] — never a service
//! abort — and the [`resilience`](crate::resilience) layer can
//! re-admit it with capped exponential backoff until quarantine
//! ([`JobStatus::Quarantined`]).
//!
//! ## Crash consistency
//!
//! With a journal configured ([`ServeConfig::journal`]), every scheduler
//! step seals the executions it ran live into one fsynced journal frame;
//! a daemon killed mid-workload (at any durable step of the journal or
//! the WAL — [`ServeConfig::crash`]) resumes by re-running the
//! simulation with settled executions served from the journal — see
//! [`journal`](crate::journal) for the memoization model.
//!
//! ## Structure
//!
//! Admission is one state struct with two mutators
//! ([`resilience`](crate::resilience)): decide an arrival, settle an
//! admitted attempt. Execution is separate: a read wave runs its
//! attempts speculatively in parallel, a mutating job runs once
//! admitted, and either may instead be a journal hit. Every attempt then
//! goes through one settle path — admission, the journal append for a
//! live execution, and the outcome or retry.
//!
//! ## Determinism
//!
//! Service times are each job's *simulated* elapsed time — the same
//! number the job reports when run solo — so queueing dynamics are pure
//! u64 arithmetic over the script. Host threads only change wall-clock
//! speed: read jobs within an epoch execute speculatively in parallel
//! on the `gts-exec` pool (side-effect-free over the shared store), and
//! each runs as its own `Job` (`gts_core::job`), keeping
//! its report and counters byte-identical to a solo run.

use crate::journal::{jerr, wal_binding_fp, ExecRecord, Header, Journal, JournalConfig};
use crate::resilience::{Admission, ResilienceConfig};
use crate::workload::{seeded_batch, JobSpec};
use crate::ServeError;
use gts_ckpt::{fnv1a, CkptError, KillSwitch};
use gts_core::programs;
use gts_core::{config_fingerprint, Engine, EngineError, JobOptions, MutationSchedule, RunReport};
use gts_exec::ThreadPool;
use gts_faults::FaultConfig;
use gts_storage::builder::GraphStore;
use gts_telemetry::{keys, Telemetry};
use std::collections::BTreeMap;

/// Service provisioning and admission-control bounds.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Concurrent service slots (GPU lane sets) the service multiplexes.
    pub slots: usize,
    /// Shared waiting-queue capacity; arrivals beyond it get
    /// [`ServeError::QueueFull`].
    pub queue_capacity: usize,
    /// Per-tenant waiting cap; a tenant over it gets
    /// [`ServeError::Rejected`].
    pub tenant_queue_capacity: usize,
    /// Maximum simulated wait between arrival and start; `None` waits
    /// forever, `Some(d)` drops overdue jobs with
    /// [`ServeError::Deadline`].
    pub deadline_ns: Option<u64>,
    /// The service fault template: each `(job, attempt)` execution
    /// derives its own domain from this seed. `None` (default) serves
    /// fault-free.
    pub faults: Option<FaultConfig>,
    /// Retry/backoff, quarantine, circuit-breaker, and shedding knobs;
    /// all default to off.
    pub resilience: ResilienceConfig,
    /// The crash-consistent service journal; `None` (default) keeps no
    /// journal.
    pub journal: Option<JournalConfig>,
    /// Mutation write-ahead log directory: when set, every mutating
    /// job's batch is logged before it applies (the engine's
    /// log-before-apply path over this directory), the journal header
    /// binds the log's epoch range, and a resumed service re-derives
    /// journaled epoch bumps from the log instead of re-generating
    /// them. `None` (default) keeps no WAL. This is the service's one
    /// WAL: [`serve`] refuses an engine that carries its own `wal_dir`
    /// (or a `checkpoint` block).
    pub wal_dir: Option<std::path::PathBuf>,
    /// Injected process death for crash-consistency testing: the
    /// 0-based durable I/O step ([`KillSwitch`]) at which the daemon
    /// dies, numbered across the journal and every mutating job's WAL
    /// appends in the order the service takes them.
    pub crash: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            slots: 4,
            queue_capacity: 64,
            tenant_queue_capacity: 16,
            deadline_ns: None,
            faults: None,
            resilience: ResilienceConfig::default(),
            journal: None,
            wal_dir: None,
            crash: None,
        }
    }
}

impl ServeConfig {
    fn validate(&self) -> Result<(), ServeError> {
        for (name, v) in [
            ("slots", self.slots),
            ("queue_capacity", self.queue_capacity),
            ("tenant_queue_capacity", self.tenant_queue_capacity),
        ] {
            if v == 0 {
                return Err(ServeError::Config(format!("{name} must be >= 1")));
            }
        }
        if self.deadline_ns == Some(0) {
            return Err(ServeError::Config("deadline_ns must be >= 1".into()));
        }
        self.resilience.validate()
    }
}

/// How one scheduled job ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    /// Ran to completion; report and counters are attached.
    Completed,
    /// Never ran: dropped by admission control with this backpressure.
    Dropped(ServeError),
    /// Admitted but the engine failed it and the service-level retry
    /// budget is zero (or the job is mutating, which is never
    /// service-retried). The slot time it would have used is not
    /// charged.
    Failed {
        /// The engine's error rendering.
        error: String,
    },
    /// Poison: the job failed every one of its `retry_max + 1`
    /// attempts, each under a fresh fault domain, and is quarantined.
    Quarantined {
        /// The final attempt's error rendering.
        error: String,
        /// Total execution attempts consumed.
        attempts: u32,
    },
}

/// The per-job record the service returns, in admission order.
#[derive(Debug)]
pub struct JobOutcome {
    /// Position in the admitted (arrival-sorted) workload.
    pub index: usize,
    /// Owning tenant.
    pub tenant: String,
    /// Job class — the algorithm name; latency histograms are keyed
    /// `serve.lat.<class>`.
    pub class: String,
    /// Whether this job mutated topology (all-slots barrier).
    pub mutating: bool,
    /// Scripted arrival, simulated ns.
    pub arrival_ns: u64,
    /// Dispatch time of the final attempt (0 for dropped jobs).
    pub start_ns: u64,
    /// Completion time (0 for dropped jobs).
    pub finish_ns: u64,
    /// Solo simulated elapsed time of the run (0 for dropped jobs).
    pub service_ns: u64,
    /// Execution attempts consumed (0 for jobs dropped before ever
    /// running; service-level retries count each re-admission).
    pub attempts: u32,
    /// FNV-1a fingerprint of the program's final state (0 unless
    /// completed) — lets callers compare results without the payload.
    pub result_fp: u64,
    /// How the job ended.
    pub status: JobStatus,
    /// The job's full counter registry — byte-identical to the same job
    /// run solo (empty for dropped and failed jobs).
    pub counters: BTreeMap<String, u64>,
    /// The job's report (completed jobs only).
    pub report: Option<RunReport>,
}

impl JobOutcome {
    /// Simulated time spent waiting for a slot.
    pub fn wait_ns(&self) -> u64 {
        self.start_ns.saturating_sub(self.arrival_ns)
    }

    /// Arrival-to-completion simulated latency (what the tenant feels;
    /// the `serve.lat.*` histograms record this).
    pub fn latency_ns(&self) -> u64 {
        self.finish_ns.saturating_sub(self.arrival_ns)
    }

    /// Job `index` with `status` and nothing run yet: zero times and
    /// attempts, no results. A settled attempt fills in the rest.
    fn new(index: usize, spec: &JobSpec, status: JobStatus) -> JobOutcome {
        JobOutcome {
            index,
            tenant: spec.tenant.clone(),
            class: spec.algorithm.clone(),
            mutating: spec.mutate.is_some(),
            arrival_ns: spec.at_ns,
            start_ns: 0,
            finish_ns: 0,
            service_ns: 0,
            attempts: 0,
            result_fp: 0,
            status,
            counters: BTreeMap::new(),
            report: None,
        }
    }
}

/// Everything one `serve` call produced.
#[derive(Debug)]
pub struct ServeOutcome {
    /// Per-job records, in admission (arrival-sorted) order.
    pub jobs: Vec<JobOutcome>,
    /// The service-level registry: `serve.*` counters, `serve.lat.*`
    /// latency histograms (plus their derived `.count`/`.p50`/`.p95`/
    /// `.p99` counters), and the per-tenant `tenant.<tag>.cache.*`
    /// rollup aggregated from every completed job.
    pub telemetry: Telemetry,
    /// Simulated completion time of the last finishing job.
    pub makespan_ns: u64,
    /// Jobs that ran to completion.
    pub completed: usize,
    /// Jobs dropped by admission control.
    pub dropped: usize,
    /// Jobs the engine failed terminally (no retry budget).
    pub failed: usize,
    /// Jobs quarantined after exhausting their retry budget.
    pub quarantined: usize,
}

fn job_options(spec: &JobSpec) -> JobOptions {
    JobOptions::with_telemetry(Telemetry::new()).tenant(spec.tenant.clone())
}

/// A job attempt awaiting execution: the initial admission is attempt
/// 1 arriving at the scripted time; service-level re-admissions bump
/// `attempt` and arrive after backoff.
#[derive(Debug, Clone)]
struct Pending {
    arrival: u64,
    seq: u32,
    attempt: u32,
}

/// Options for one execution attempt: the job's own registry plus its
/// derived fault domain when the service has a fault template.
fn attempt_options(spec: &JobSpec, cfg: &ServeConfig, p: &Pending) -> JobOptions {
    let mut opts = job_options(spec);
    if let Some(template) = &cfg.faults {
        opts = opts.faults(template.derived(u64::from(p.seq), p.attempt));
    }
    opts
}

/// One admitted attempt's execution, however it was obtained: a live
/// engine run, or a journal memo hit (for a mutation, with its epoch
/// bump replayed onto the store).
struct Execution {
    rec: ExecRecord,
    /// The live run's report (completed live runs only).
    report: Option<RunReport>,
    /// Served from the journal rather than run.
    cached: bool,
}

impl Execution {
    /// A live run's execution: on `Ok((report, result_fp))` the job's
    /// counters come from `opts`; on `Err` the error rendering is kept.
    fn live(p: &Pending, run: Result<(RunReport, u64), String>, opts: &JobOptions) -> Execution {
        let mut rec = ExecRecord {
            job: p.seq,
            attempt: p.attempt,
            ok: run.is_ok(),
            error: String::new(),
            service_ns: 0,
            result_fp: 0,
            epoch: None,
            counters: BTreeMap::new(),
        };
        let report = match run {
            Ok((report, result_fp)) => {
                rec.service_ns = report.elapsed.as_nanos();
                rec.result_fp = result_fp;
                rec.counters = opts.telemetry.counters();
                Some(report)
            }
            Err(error) => {
                rec.error = error;
                None
            }
        };
        Execution {
            rec,
            report,
            cached: false,
        }
    }

    fn cached(rec: ExecRecord) -> Execution {
        Execution {
            rec,
            report: None,
            cached: true,
        }
    }
}

/// An engine failure as a job's error rendering.
fn engine_error(e: EngineError) -> String {
    ServeError::Engine(e.to_string()).to_string()
}

/// Execute one read job solo (its own `Job`, its own registry,
/// its own fault domain). Failures are data in the record, never an
/// error: a job fault must not abort the service.
fn run_read(
    engine: &Engine,
    store: &GraphStore,
    spec: &JobSpec,
    p: &Pending,
    cfg: &ServeConfig,
) -> Execution {
    let opts = attempt_options(spec, cfg, p);
    let run = spec
        .program(store.num_vertices())
        .map_err(|e| e.to_string())
        .and_then(|mut prog| {
            let report = engine
                .run_job(store, &mut *prog, &opts)
                .map_err(engine_error)?;
            Ok((report, fnv1a(&prog.save_state())))
        });
    Execution::live(p, run, &opts)
}

/// Execute a mutating job: its batch goes through the store's epoch
/// pipeline at the scripted sweep boundary. The record's `epoch`
/// reflects the store, not the job status — a faulted run may fail
/// *after* its batch applied.
///
/// `engine` is the service's WAL-backed engine when
/// [`ServeConfig::wal_dir`] is set, so the batch is logged before it
/// applies, and `opts` carries the service's kill switch: a kill inside
/// the job's logging path surfaces as [`ServeError::InjectedCrash`] so
/// the daemon dies instead of settling the job as failed.
fn run_mutating(
    engine: &Engine,
    store: &mut GraphStore,
    spec: &JobSpec,
    p: &Pending,
    opts: &JobOptions,
) -> Result<Execution, ServeError> {
    let before = store.epoch();
    let m = spec.mutate.expect("caller checked spec.mutate");
    let batch = seeded_batch(store, m.inserts, m.deletes, m.seed);
    let schedule = MutationSchedule::new().at(m.at_sweep, batch);
    let run = match spec.program(store.num_vertices()) {
        Ok(mut prog) => match engine.run_job_live(store, &mut *prog, schedule, opts) {
            Ok(report) => Ok((report, fnv1a(&prog.save_state()))),
            Err(EngineError::InjectedCrash { step }) => {
                return Err(ServeError::InjectedCrash { step });
            }
            Err(e) => Err(engine_error(e)),
        },
        Err(e) => Err(e.to_string()),
    };
    let mut exec = Execution::live(p, run, opts);
    exec.rec.epoch = (store.epoch() > before).then(|| store.epoch());
    Ok(exec)
}

/// Rebuild a journal-restored completion's report from its memoized
/// counters — [`RunReport::from_telemetry`] reads nothing else, so the
/// rebuilt report equals the one the crashed run held in memory.
fn rebuild_report(spec: &JobSpec, counters: &BTreeMap<String, u64>) -> RunReport {
    let tel = Telemetry::new();
    for (k, v) in counters {
        tel.set(k, *v);
    }
    let algorithm = programs::find(&spec.algorithm).map_or(&*spec.algorithm, |a| a.report_name);
    RunReport::from_telemetry(&tel, algorithm, "GTS")
}

/// The config rendering the journal header is bound to: the engine's
/// [`config_fingerprint`] (which sets the resume-neutral fields aside,
/// `host_threads` among them) and the service's own knobs. The crash
/// step and the journal and WAL locations are left out: a resumed
/// service drops the crash by design.
fn config_rendering(engine: &Engine, cfg: &ServeConfig) -> String {
    format!(
        "engine={:016x} slots={} queue={} tenant_queue={} deadline={:?} faults={:?} resilience={:?}",
        config_fingerprint(engine.config(), None),
        cfg.slots,
        cfg.queue_capacity,
        cfg.tenant_queue_capacity,
        cfg.deadline_ns,
        cfg.faults,
        cfg.resilience,
    )
}

/// The live service: the pending-attempt pool, the admission state,
/// and the journal, advanced in deterministic `(arrival, seq, attempt)`
/// order.
struct Service<'a> {
    engine: &'a Engine,
    /// What mutating jobs run on: `engine`, or its WAL-backed twin when
    /// the service keeps a WAL.
    mut_engine: &'a Engine,
    /// The one kill switch the journal and every mutating job share.
    kill: KillSwitch,
    jobs: &'a [JobSpec],
    cfg: &'a ServeConfig,
    pool: ThreadPool,
    tel: Telemetry,
    admission: Admission<'a>,
    journal: Option<Journal>,
    /// The mutation WAL's records as of service start, for re-deriving
    /// journaled epoch bumps on resume (empty without a WAL).
    wal_records: Vec<gts_storage::WalRecord>,
    pending: Vec<Pending>,
    outcomes: Vec<Option<JobOutcome>>,
}

impl Service<'_> {
    /// Drain the pending pool: repeatedly settle the maximal wave of
    /// read attempts ordered before the next mutating job, then that
    /// mutating job (an all-slots barrier), until nothing is pending.
    /// Settled failures re-enter the pool as backoff-delayed retries.
    /// Each step seals what it ran live into one journal frame.
    fn run(&mut self, store: &mut GraphStore) -> Result<(), ServeError> {
        loop {
            self.pending.sort_by_key(|p| (p.arrival, p.seq, p.attempt));
            let jobs = self.jobs;
            let wave_len = self
                .pending
                .iter()
                .position(|p| jobs[p.seq as usize].mutate.is_some())
                .unwrap_or(self.pending.len());
            if wave_len > 0 {
                let wave: Vec<Pending> = self.pending.drain(..wave_len).collect();
                self.wave(store, &wave)?;
            } else if self.pending.is_empty() {
                return Ok(());
            } else {
                let p = self.pending.remove(0);
                self.settle(&p, |svc| svc.mutation(store, &p))?;
            }
            if let Some(j) = &mut self.journal {
                j.flush(&self.tel)?;
            }
        }
    }

    /// The journal's memoized execution of `p`, when it settled before
    /// the crash.
    fn memo(&self, p: &Pending) -> Option<ExecRecord> {
        let j = self.journal.as_ref()?;
        j.cached(p.seq, p.attempt).cloned()
    }

    /// One read wave: speculative parallel execution (reads are
    /// side-effect-free, so running ones that admission later drops
    /// wastes only wall time), then settlement in deterministic order.
    /// Journal-memoized attempts skip the engine entirely.
    fn wave(&mut self, store: &GraphStore, wave: &[Pending]) -> Result<(), ServeError> {
        let (engine, jobs, cfg) = (self.engine, self.jobs, self.cfg);
        let svc = &*self;
        let execs = self.pool.par_map(wave, |_, p| match svc.memo(p) {
            Some(rec) => Execution::cached(rec),
            None => run_read(engine, store, &jobs[p.seq as usize], p, cfg),
        });
        for (p, exec) in wave.iter().zip(execs) {
            self.settle(p, |_| Ok(exec))?;
        }
        Ok(())
    }

    /// One mutating job's execution, run only once admission has let it
    /// in — a dropped mutating job must not advance the store epoch. A
    /// journal-memoized mutation fast-forwards the store by re-applying
    /// its batch directly, without the engine: the WAL's logged bytes
    /// when one is kept, else the seeded generator.
    fn mutation(&mut self, store: &mut GraphStore, p: &Pending) -> Result<Execution, ServeError> {
        let spec = &self.jobs[p.seq as usize];
        let Some(rec) = self.memo(p) else {
            let mut opts = attempt_options(spec, self.cfg, p);
            opts.kill = self.kill.clone();
            return run_mutating(self.mut_engine, store, spec, p, &opts);
        };
        if rec.epoch.is_some() {
            let logged = self
                .wal_records
                .iter()
                .find(|r| r.pre_epoch == store.epoch());
            let batch = match logged {
                Some(r) => {
                    self.tel.add(keys::SERVE_WAL_REPLAYED, 1);
                    r.batch.clone()
                }
                None => {
                    let m = spec.mutate.expect("mutation() only sees mutating jobs");
                    seeded_batch(store, m.inserts, m.deletes, m.seed)
                }
            };
            store
                .apply_mutations(&batch)
                .map_err(|e| ServeError::Journal(format!("epoch replay failed: {e}")))?;
        }
        Ok(Execution::cached(rec))
    }

    /// The one settle path, and the only journal append. Admission
    /// decides `p` first; a dropped attempt never executes. An admitted
    /// one takes its execution from `exec` — a live run, a journal hit,
    /// or a replayed epoch bump — journals it when live, and folds it
    /// into the admission state, the service registry, and either the
    /// job's outcome or a backoff-delayed re-admission.
    fn settle(
        &mut self,
        p: &Pending,
        exec: impl FnOnce(&mut Self) -> Result<Execution, ServeError>,
    ) -> Result<(), ServeError> {
        let (jobs, cfg) = (self.jobs, self.cfg);
        let (seq, spec) = (p.seq as usize, &jobs[p.seq as usize]);
        let start = match self.admission.decide(p.arrival, spec) {
            Ok(start) => start,
            Err(why) => {
                self.outcomes[seq] = Some(JobOutcome {
                    attempts: p.attempt - 1,
                    ..JobOutcome::new(seq, spec, JobStatus::Dropped(why))
                });
                return Ok(());
            }
        };
        let Execution {
            rec,
            report,
            cached,
        } = exec(self)?;
        if cached {
            self.tel.add(keys::SERVE_RESUME_CACHED, 1);
        } else if let Some(j) = &mut self.journal {
            j.append(rec.clone());
        }
        self.tel.add(keys::SERVE_JOBS_ADMITTED, 1);
        let mutating = spec.mutate.is_some();
        self.admission
            .settle(start, spec, rec.ok.then_some(rec.service_ns));
        let tel = &self.tel;
        let (status, finish) = if rec.ok {
            let finish = start.saturating_add(rec.service_ns);
            tel.add(keys::SERVE_JOBS_COMPLETED, 1);
            if mutating {
                tel.add(keys::SERVE_EPOCHS, 1);
            }
            if p.attempt > 1 {
                tel.add(keys::SERVE_RETRY_RECOVERED, 1);
            }
            let latency = finish - spec.at_ns;
            tel.observe(keys::scoped(keys::SERVE_LAT, &spec.algorithm), latency);
            tel.observe(keys::scoped(keys::SERVE_LAT, "all"), latency);
            for (k, v) in &rec.counters {
                if k.starts_with("tenant.") {
                    tel.add(k, *v);
                }
            }
            (JobStatus::Completed, finish)
        } else if mutating || cfg.resilience.retry_max == 0 {
            // Final at once: mutating jobs are never service-retried.
            tel.add(keys::SERVE_JOBS_FAILED, 1);
            (JobStatus::Failed { error: rec.error }, start)
        } else if p.attempt <= cfg.resilience.retry_max {
            tel.add(keys::SERVE_RETRY_ATTEMPTS, 1);
            let jitter_seed = cfg.faults.as_ref().map_or(0, |f| f.seed);
            let delay = cfg
                .resilience
                .backoff_ns(jitter_seed, u64::from(p.seq), p.attempt);
            self.pending.push(Pending {
                arrival: start.saturating_add(delay),
                seq: p.seq,
                attempt: p.attempt + 1,
            });
            return Ok(());
        } else {
            tel.add(keys::SERVE_QUARANTINE_JOBS, 1);
            tel.add(keys::SERVE_QUARANTINE_ATTEMPTS, u64::from(p.attempt));
            let status = JobStatus::Quarantined {
                error: rec.error,
                attempts: p.attempt,
            };
            (status, start)
        };
        let report = rec
            .ok
            .then(|| report.unwrap_or_else(|| rebuild_report(spec, &rec.counters)));
        self.outcomes[seq] = Some(JobOutcome {
            start_ns: start,
            finish_ns: finish,
            service_ns: rec.service_ns,
            attempts: p.attempt,
            result_fp: rec.result_fp,
            counters: rec.counters,
            report,
            ..JobOutcome::new(seq, spec, status)
        });
        Ok(())
    }

    /// Drop accounting, derived counters, and the final outcome.
    fn finish(self, cfg: &ServeConfig) -> ServeOutcome {
        let tel = self.tel;
        let outcomes: Vec<JobOutcome> = self
            .outcomes
            .into_iter()
            .map(|o| o.expect("every job settles before the service returns"))
            .collect();
        for out in &outcomes {
            if let JobStatus::Dropped(why) = &out.status {
                let key = match why {
                    ServeError::QueueFull { .. } => keys::SERVE_DROP_QUEUE_FULL,
                    ServeError::Rejected { .. } => keys::SERVE_DROP_REJECTED,
                    ServeError::Deadline { .. } => keys::SERVE_DROP_DEADLINE,
                    ServeError::BreakerOpen { .. } => keys::SERVE_DROP_BREAKER,
                    ServeError::Shed {
                        class,
                        pressure_pct,
                        ..
                    } => {
                        tel.add(keys::SERVE_SHED_TOTAL, 1);
                        tel.add(keys::scoped(keys::SERVE_SHED, class), 1);
                        tel.observe(keys::SERVE_SHED_PRESSURE, u64::from(*pressure_pct));
                        keys::SERVE_DROP_SHED
                    }
                    _ => keys::SERVE_DROP_OTHER,
                };
                tel.add(key, 1);
            }
        }
        if cfg.resilience.breaker_threshold > 0 {
            tel.set(keys::SERVE_BREAKER_TRIPS, self.admission.trips);
        }
        let makespan_ns = outcomes.iter().map(|o| o.finish_ns).max().unwrap_or(0);
        tel.set(keys::SERVE_JOBS_TOTAL, outcomes.len() as u64);
        tel.set(keys::SERVE_MAKESPAN_NS, makespan_ns);
        tel.set(keys::SERVE_SLOTS, cfg.slots as u64);
        // Derived percentile counters: histograms rendered into the flat
        // registry, so `--counters-out` dumps and CI diffs carry them.
        for (key, s) in tel.histogram_summaries() {
            for (stat, v) in keys::HIST_STATS.iter().zip([s.count, s.p50, s.p95, s.p99]) {
                tel.set(format!("{key}.{stat}"), v);
            }
        }
        let count = |f: fn(&JobStatus) -> bool| outcomes.iter().filter(|o| f(&o.status)).count();
        ServeOutcome {
            completed: count(|s| matches!(s, JobStatus::Completed)),
            dropped: count(|s| matches!(s, JobStatus::Dropped(_))),
            failed: count(|s| matches!(s, JobStatus::Failed { .. })),
            quarantined: count(|s| matches!(s, JobStatus::Quarantined { .. })),
            jobs: outcomes,
            telemetry: tel,
            makespan_ns,
        }
    }
}

/// Run `workload` through the service: admit jobs in arrival order
/// against `cfg`'s slots and bounds, execute the admitted ones on
/// `engine` over the shared `store`, and aggregate service-level
/// telemetry. Only errors that make the whole call meaningless (bad
/// config, malformed workload, an unusable journal) — plus the injected
/// crash — are `Err`; per-job drops, failures, and quarantines
/// are data in the returned [`ServeOutcome`].
pub fn serve(
    engine: &Engine,
    store: &mut GraphStore,
    workload: &[JobSpec],
    cfg: &ServeConfig,
) -> Result<ServeOutcome, ServeError> {
    cfg.validate()?;
    let ecfg = engine.config();
    if ecfg.checkpoint.is_some() || ecfg.wal_dir.is_some() {
        // Every read job would snapshot into one shared directory, and
        // mutating jobs would log outside the journal's binding.
        return Err(ServeError::Config(
            "the engine must carry no checkpoint or wal_dir: the service's WAL is \
             ServeConfig::wal_dir"
                .into(),
        ));
    }
    for spec in workload {
        spec.check(store.num_vertices())
            .map_err(|e| ServeError::Workload(e.to_string()))?;
    }
    let mut jobs = workload.to_vec();
    jobs.sort_by_key(|j| j.at_ns);
    let kill = cfg.crash.map_or_else(KillSwitch::never, KillSwitch::at);
    // Open (or create) the mutation WAL first: its base epoch binds the
    // journal header, and its records as of now are what a resume
    // re-derives journaled epoch bumps from. The handle is dropped —
    // mutating jobs reopen the log through the WAL-backed engine's
    // logging path.
    let mut walled = None;
    let (wal_fp, wal_records) = match &cfg.wal_dir {
        Some(dir) => {
            let wal =
                gts_storage::Wal::open_with(dir, store, kill.clone()).map_err(|e| match e {
                    gts_storage::WalError::Log(crash @ CkptError::InjectedCrash { .. }) => {
                        jerr(crash)
                    }
                    e => ServeError::Journal(format!("wal: {e}")),
                })?;
            let mut ecfg = engine.config().clone();
            ecfg.wal_dir = Some(dir.clone());
            walled = Some(Engine::new(ecfg).map_err(|e| ServeError::Engine(e.to_string()))?);
            (wal_binding_fp(&wal), wal.records().to_vec())
        }
        None => (0, Vec::new()),
    };
    let journal = match &cfg.journal {
        Some(jc) => Some(Journal::open(
            jc,
            Header::bind(&jobs, store, &config_rendering(engine, cfg), wal_fp),
            kill.clone(),
        )?),
        None => None,
    };
    let mut svc = Service {
        engine,
        mut_engine: walled.as_ref().unwrap_or(engine),
        kill,
        jobs: &jobs,
        cfg,
        pool: ThreadPool::new(engine.config().host_threads),
        tel: Telemetry::new(),
        admission: Admission::new(cfg),
        journal,
        wal_records,
        pending: jobs
            .iter()
            .enumerate()
            .map(|(seq, spec)| Pending {
                arrival: spec.at_ns,
                seq: seq as u32,
                attempt: 1,
            })
            .collect(),
        outcomes: jobs.iter().map(|_| None).collect(),
    };
    svc.run(store)?;
    Ok(svc.finish(cfg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{parse, synthetic};
    use gts_core::programs::Bfs;
    use gts_core::{CheckpointConfig, GtsConfig};
    use gts_graph::generate::rmat;
    use gts_storage::{build_graph_store, PageFormatConfig};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn store() -> GraphStore {
        build_graph_store(&rmat(8), PageFormatConfig::small_default()).unwrap()
    }

    fn engine(host_threads: usize) -> Engine {
        Engine::new(GtsConfig {
            host_threads,
            ..GtsConfig::default()
        })
        .unwrap()
    }

    fn tempdir(tag: &str) -> PathBuf {
        static N: AtomicU32 = AtomicU32::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("gts-serve-sched-{}-{tag}-{n}", std::process::id()))
    }

    /// An always-failing fault template: every H2D copy faults and the
    /// engine-level retry budget is zero, so every attempt fails. (The
    /// default in-memory storage never consults read faults; GPU-side
    /// faults fire through each job's own lanes.)
    fn poison() -> FaultConfig {
        FaultConfig {
            copy_fault_ppm: 1_000_000,
            launch_fault_ppm: 0,
            max_retries: 0,
            ..FaultConfig::with_seed(0xDEAD)
        }
    }

    /// A flaky template: a sizeable per-copy/per-launch fault rate with
    /// no engine-level retries, so some derived domains fail their job
    /// and fresh per-attempt domains can recover it.
    fn flaky(seed: u64) -> FaultConfig {
        FaultConfig {
            copy_fault_ppm: 80_000,
            launch_fault_ppm: 80_000,
            max_retries: 0,
            ..FaultConfig::with_seed(seed)
        }
    }

    /// The tentpole contract: a job admitted through the service has the
    /// same report and counters as the same job run solo, epoch by
    /// epoch, and the tenant rollup is its only addition over a job run
    /// with no tenant.
    #[test]
    fn jobs_are_byte_identical_to_solo_runs() {
        let engine = engine(2);
        let mut st = store();
        let mut solo_st = store();
        let jobs = parse(
            "at=0    tenant=a job=bfs\n\
             at=1000 tenant=b job=pagerank iters=3\n\
             at=2000 tenant=m job=bfs mutate-at=1 inserts=16 deletes=2 seed=5\n\
             at=3000 tenant=a job=cc\n",
        )
        .unwrap();
        let out = serve(&engine, &mut st, &jobs, &ServeConfig::default()).unwrap();
        assert_eq!(out.completed, 4, "{:?}", out.jobs);
        for (job, spec) in out.jobs.iter().zip(&jobs) {
            let mut prog = spec.program(solo_st.num_vertices()).unwrap();
            let opts = job_options(spec);
            let report = match spec.mutate {
                Some(m) => {
                    let batch = seeded_batch(&solo_st, m.inserts, m.deletes, m.seed);
                    let schedule = MutationSchedule::new().at(m.at_sweep, batch);
                    engine
                        .run_job_live(&mut solo_st, &mut *prog, schedule, &opts)
                        .unwrap()
                }
                None => engine.run_job(&solo_st, &mut *prog, &opts).unwrap(),
            };
            assert_eq!(job.counters, opts.telemetry.counters(), "job {}", job.index);
            assert_eq!(job.service_ns, report.elapsed.as_nanos());
            assert_eq!(job.attempts, 1);
            assert_eq!(job.result_fp, fnv1a(&prog.save_state()));
        }
        assert_eq!(st.epoch(), solo_st.epoch());
        // Job 0 vs the plain solo path: identical once the tenant rollup
        // (the only serve-mode addition) is set aside.
        let plain = JobOptions::default();
        let mut bfs = Bfs::new(solo_st.num_vertices(), 0);
        engine.run_job(&store(), &mut bfs, &plain).unwrap();
        let mut tagged = out.jobs[0].counters.clone();
        tagged.retain(|k, _| !k.starts_with("tenant."));
        assert_eq!(tagged, plain.telemetry.counters());
    }

    #[test]
    fn serve_is_host_thread_invariant() {
        let jobs = synthetic(3, 3, 11, true);
        let cfg = ServeConfig {
            slots: 2,
            ..ServeConfig::default()
        };
        let outs: Vec<ServeOutcome> = [1usize, 4]
            .iter()
            .map(|&ht| serve(&engine(ht), &mut store(), &jobs, &cfg).unwrap())
            .collect();
        assert_eq!(
            outs[0].telemetry.counters(),
            outs[1].telemetry.counters(),
            "service registry must not depend on host threads"
        );
        assert_eq!(
            outs[0].telemetry.histograms(),
            outs[1].telemetry.histograms()
        );
        for (a, b) in outs[0].jobs.iter().zip(&outs[1].jobs) {
            assert_eq!(a.counters, b.counters, "job {}", a.index);
            assert_eq!(a.status, b.status);
            assert_eq!((a.start_ns, a.finish_ns), (b.start_ns, b.finish_ns));
        }
    }

    #[test]
    fn admission_control_drops_with_typed_backpressure() {
        let mut st = store();
        // Three near-simultaneous arrivals into one slot with a one-deep
        // queue: the third finds the queue full.
        let jobs =
            parse("at=0 tenant=a job=bfs\nat=1 tenant=b job=bfs\nat=2 tenant=c job=bfs").unwrap();
        let cfg = ServeConfig {
            slots: 1,
            queue_capacity: 1,
            ..ServeConfig::default()
        };
        let out = serve(&engine(1), &mut st, &jobs, &cfg).unwrap();
        assert_eq!(out.jobs[0].status, JobStatus::Completed);
        assert_eq!(out.jobs[1].status, JobStatus::Completed);
        assert!(
            matches!(
                out.jobs[2].status,
                JobStatus::Dropped(ServeError::QueueFull { .. })
            ),
            "{:?}",
            out.jobs[2].status
        );
        assert_eq!(out.telemetry.counter("serve.drop.queue_full"), 1);
        assert_eq!((out.completed, out.dropped), (2, 1));
        // FIFO: the queued job starts exactly when the first finishes.
        assert_eq!(out.jobs[1].start_ns, out.jobs[0].finish_ns);

        // One tenant hogging the queue is rejected before the shared
        // queue fills.
        let jobs =
            parse("at=0 tenant=a job=bfs\nat=1 tenant=a job=bfs\nat=2 tenant=a job=bfs").unwrap();
        let cfg = ServeConfig {
            slots: 1,
            tenant_queue_capacity: 1,
            ..ServeConfig::default()
        };
        let out = serve(&engine(1), &mut st, &jobs, &cfg).unwrap();
        assert!(
            matches!(
                &out.jobs[2].status,
                JobStatus::Dropped(ServeError::Rejected { tenant, .. }) if tenant == "a"
            ),
            "{:?}",
            out.jobs[2].status
        );
        assert_eq!(out.telemetry.counter("serve.drop.rejected"), 1);

        // A job that cannot start within its deadline is dropped.
        let jobs = parse("at=0 tenant=a job=bfs\nat=1 tenant=b job=bfs").unwrap();
        let cfg = ServeConfig {
            slots: 1,
            deadline_ns: Some(1),
            ..ServeConfig::default()
        };
        let out = serve(&engine(1), &mut st, &jobs, &cfg).unwrap();
        assert!(
            matches!(
                out.jobs[1].status,
                JobStatus::Dropped(ServeError::Deadline { waited_ns, deadline_ns: 1 })
                    if waited_ns > 1
            ),
            "{:?}",
            out.jobs[1].status
        );
        assert_eq!(out.telemetry.counter("serve.drop.deadline"), 1);
    }

    /// Regression for the doomed-job queue leak: a job already known
    /// dead (its wait exceeds the deadline) must not occupy queue space
    /// until its deadline expires. Under the old accounting, the third
    /// job here found the one-deep queue full; the correct drop is its
    /// own deadline, and the queue stays available for admissible work.
    #[test]
    fn doomed_jobs_free_their_queue_space_immediately() {
        let mut st = store();
        let jobs =
            parse("at=0 tenant=a job=bfs\nat=1 tenant=b job=bfs\nat=5 tenant=c job=bfs").unwrap();
        let cfg = ServeConfig {
            slots: 1,
            queue_capacity: 1,
            deadline_ns: Some(10),
            ..ServeConfig::default()
        };
        let out = serve(&engine(1), &mut st, &jobs, &cfg).unwrap();
        assert_eq!(out.jobs[0].status, JobStatus::Completed);
        assert!(
            out.jobs[0].finish_ns > 15,
            "bfs must outlast both deadlines"
        );
        for doomed in &out.jobs[1..] {
            assert!(
                matches!(
                    doomed.status,
                    JobStatus::Dropped(ServeError::Deadline { .. })
                ),
                "expected a deadline drop, not queue-full: {:?}",
                doomed.status
            );
        }
        assert_eq!(out.telemetry.counter("serve.drop.deadline"), 2);
        assert_eq!(out.telemetry.counter("serve.drop.queue_full"), 0);
    }

    #[test]
    fn mutation_is_an_all_slots_barrier_and_drops_keep_the_epoch() {
        let mut st = store();
        // Four reads saturate four slots; the mutation must wait for all
        // of them, and the read behind it sees the new epoch.
        let jobs = parse(
            "at=0 tenant=a job=bfs\nat=0 tenant=b job=bfs\n\
             at=0 tenant=c job=pagerank iters=3\nat=0 tenant=d job=cc\n\
             at=1 tenant=m job=bfs mutate-at=1 inserts=16 deletes=2 seed=5\n\
             at=2 tenant=a job=bfs\n",
        )
        .unwrap();
        let cfg = ServeConfig {
            slots: 4,
            ..ServeConfig::default()
        };
        let out = serve(&engine(2), &mut st, &jobs, &cfg).unwrap();
        assert_eq!(out.completed, 6, "{:?}", out.jobs);
        let slowest_read = out.jobs[..4].iter().map(|j| j.finish_ns).max().unwrap();
        assert_eq!(out.jobs[4].start_ns, slowest_read, "barrier waits for all");
        assert_eq!(out.jobs[5].start_ns, out.jobs[4].finish_ns);
        assert_eq!(st.epoch(), 1);
        assert_eq!(out.telemetry.counter("serve.epochs"), 1);
        assert_eq!(out.jobs[4].counters["mut.batches"], 1);
        // The post-mutation read really ran against the new epoch: its
        // counters differ from the identical pre-mutation job.
        assert_ne!(out.jobs[0].counters, out.jobs[5].counters);

        // A mutating job dropped by admission must not advance the epoch.
        let mut st = store();
        let jobs = parse(
            "at=0 tenant=a job=pagerank iters=3\n\
             at=1 tenant=m job=bfs mutate-at=1 inserts=16 seed=5\n",
        )
        .unwrap();
        let cfg = ServeConfig {
            slots: 1,
            deadline_ns: Some(1),
            ..ServeConfig::default()
        };
        let out = serve(&engine(2), &mut st, &jobs, &cfg).unwrap();
        assert!(
            matches!(
                out.jobs[1].status,
                JobStatus::Dropped(ServeError::Deadline { .. })
            ),
            "{:?}",
            out.jobs[1].status
        );
        assert_eq!(st.epoch(), 0, "dropped mutation must not touch the store");
        assert_eq!(out.telemetry.counter("serve.epochs"), 0);
    }

    #[test]
    fn service_registry_aggregates_tenants_and_latency() {
        let mut st = store();
        let jobs =
            parse("at=0 tenant=a job=bfs\nat=100 tenant=a job=cc\nat=200 tenant=b job=bfs\n")
                .unwrap();
        let out = serve(&engine(2), &mut st, &jobs, &ServeConfig::default()).unwrap();
        assert_eq!(out.completed, 3);
        // Latency histograms: per class and overall, with derived
        // percentile counters in the flat registry.
        let tel = &out.telemetry;
        assert_eq!(tel.counter("serve.lat.all.count"), 3);
        assert_eq!(tel.counter("serve.lat.bfs.count"), 2);
        assert_eq!(tel.counter("serve.lat.cc.count"), 1);
        assert!(tel.counter("serve.lat.all.p50") <= tel.counter("serve.lat.all.p95"));
        assert!(tel.counter("serve.lat.all.p95") <= tel.counter("serve.lat.all.p99"));
        assert_eq!(
            tel.percentile("serve.lat.all", 99),
            Some(tel.counter("serve.lat.all.p99"))
        );
        // Per-tenant rollup equals the sum over that tenant's jobs.
        for tenant in ["a", "b"] {
            let key = format!("tenant.{tenant}.cache.bytes_streamed");
            let per_job: u64 = out
                .jobs
                .iter()
                .filter(|j| j.tenant == tenant)
                .map(|j| j.counters.get(&key).copied().unwrap_or(0))
                .sum();
            assert!(per_job > 0, "expected streamed bytes for {tenant}");
            assert_eq!(tel.counter(&key), per_job);
        }
        assert_eq!(tel.counter("serve.jobs.total"), 3);
        assert_eq!(tel.counter("serve.makespan_ns"), out.makespan_ns);
        assert!(out.makespan_ns > 0);
    }

    /// Job-scoped fault domains: under a service fault template, a
    /// faulted job becomes a typed `Failed` — never a service abort —
    /// while the other tenants' jobs complete byte-identical to solo
    /// runs under the same derived domains.
    #[test]
    fn job_faults_are_isolated_and_never_abort_the_service() {
        let engine = engine(2);
        let mut st = store();
        let jobs = parse(
            "at=0 tenant=a job=bfs\nat=1000 tenant=b job=cc\nat=2000 tenant=c job=degrees\n\
             at=3000 tenant=d job=pagerank iters=3\nat=4000 tenant=e job=sssp\n\
             at=5000 tenant=f job=kcore k=2\n",
        )
        .unwrap();
        let template = FaultConfig {
            copy_fault_ppm: 200_000,
            launch_fault_ppm: 200_000,
            max_retries: 0,
            ..FaultConfig::with_seed(0x5EED)
        };
        let cfg = ServeConfig {
            faults: Some(template.clone()),
            ..ServeConfig::default()
        };
        let out = serve(&engine, &mut st, &jobs, &cfg).unwrap();
        assert!(
            out.failed > 0,
            "expected at least one fault: {:?}",
            out.jobs
        );
        assert!(out.completed > 0, "expected survivors: {:?}", out.jobs);
        for (seq, (job, spec)) in out.jobs.iter().zip(&jobs).enumerate() {
            // Solo replay under the same derived fault domain.
            let mut prog = spec.program(st.num_vertices()).unwrap();
            let opts = job_options(spec).faults(template.derived(seq as u64, 1));
            match engine.run_job(&st, &mut *prog, &opts) {
                Ok(_) => {
                    assert_eq!(job.status, JobStatus::Completed, "job {seq}");
                    assert_eq!(job.counters, opts.telemetry.counters(), "job {seq}");
                    assert_eq!(job.result_fp, fnv1a(&prog.save_state()));
                }
                Err(e) => {
                    let error = ServeError::Engine(e.to_string()).to_string();
                    assert_eq!(job.status, JobStatus::Failed { error }, "job {seq}");
                }
            }
        }
        assert_eq!(
            out.telemetry.counter("serve.jobs.failed"),
            out.failed as u64
        );
    }

    /// Retry/backoff and quarantine: an always-failing job burns its
    /// whole budget and is quarantined with typed attempts; a job whose
    /// fresh per-attempt domain eventually succeeds recovers.
    #[test]
    fn retries_backoff_then_recover_or_quarantine() {
        let engine = engine(2);
        // Poison: every attempt of every job fails, so the lone job is
        // quarantined after retry_max + 1 attempts.
        let jobs = parse("at=0 tenant=a job=bfs\n").unwrap();
        let cfg = ServeConfig {
            faults: Some(poison()),
            resilience: ResilienceConfig {
                retry_max: 2,
                backoff_base_ns: 500,
                ..ResilienceConfig::default()
            },
            ..ServeConfig::default()
        };
        let out = serve(&engine, &mut store(), &jobs, &cfg).unwrap();
        assert_eq!(out.quarantined, 1);
        assert!(
            matches!(
                &out.jobs[0].status,
                JobStatus::Quarantined { attempts: 3, error } if !error.is_empty()
            ),
            "{:?}",
            out.jobs[0].status
        );
        assert_eq!(out.jobs[0].attempts, 3);
        // Re-admission k starts after capped-exponential backoff.
        assert!(out.jobs[0].start_ns >= 500 + 1000);
        let tel = &out.telemetry;
        assert_eq!(tel.counter(keys::SERVE_RETRY_ATTEMPTS), 2);
        assert_eq!(tel.counter(keys::SERVE_QUARANTINE_JOBS), 1);
        assert_eq!(tel.counter(keys::SERVE_QUARANTINE_ATTEMPTS), 3);
        assert_eq!(tel.counter(keys::SERVE_RETRY_RECOVERED), 0);

        // Recovery: a fault rate that fails some first attempts but not
        // every derived domain lets retried jobs complete.
        let jobs = synthetic(4, 3, 11, false);
        let cfg = ServeConfig {
            faults: Some(flaky(0x5EED)),
            resilience: ResilienceConfig {
                retry_max: 4,
                backoff_base_ns: 500,
                ..ResilienceConfig::default()
            },
            ..ServeConfig::default()
        };
        let out = serve(&engine, &mut store(), &jobs, &cfg).unwrap();
        let recovered = out
            .jobs
            .iter()
            .filter(|j| j.status == JobStatus::Completed && j.attempts > 1)
            .count() as u64;
        assert!(recovered > 0, "expected a retry to recover: {:?}", out.jobs);
        assert_eq!(
            out.telemetry.counter(keys::SERVE_RETRY_RECOVERED),
            recovered
        );
        assert_eq!(
            out.failed, 0,
            "retry_max > 0 never leaves a bare Failed read"
        );
    }

    /// The per-tenant circuit breaker: consecutive failures trip it,
    /// the tripped tenant's arrivals shed with `BreakerOpen`, and other
    /// tenants are untouched.
    #[test]
    fn breaker_trips_shed_the_tenant_and_spare_the_rest() {
        let engine = engine(1);
        let jobs = parse(
            "at=0 tenant=bad job=bfs\nat=1 tenant=bad job=bfs\n\
             at=2 tenant=bad job=bfs\nat=3 tenant=good job=bfs\n",
        )
        .unwrap();
        let cfg = ServeConfig {
            slots: 4,
            faults: Some(poison()),
            resilience: ResilienceConfig {
                breaker_threshold: 2,
                breaker_cooldown_ns: 1_000_000,
                ..ResilienceConfig::default()
            },
            ..ServeConfig::default()
        };
        let mut st = store();
        let out = serve(&engine, &mut st, &jobs, &cfg).unwrap();
        assert!(matches!(out.jobs[0].status, JobStatus::Failed { .. }));
        assert!(matches!(out.jobs[1].status, JobStatus::Failed { .. }));
        assert!(
            matches!(
                &out.jobs[2].status,
                JobStatus::Dropped(ServeError::BreakerOpen { tenant, failures: 2, .. })
                    if tenant == "bad"
            ),
            "{:?}",
            out.jobs[2].status
        );
        // "good" fails too (poison template) but its breaker is its own.
        assert!(matches!(out.jobs[3].status, JobStatus::Failed { .. }));
        let tel = &out.telemetry;
        assert_eq!(tel.counter(keys::SERVE_BREAKER_TRIPS), 1);
        assert_eq!(tel.counter(keys::SERVE_DROP_BREAKER), 1);
        assert_eq!((out.failed, out.dropped), (3, 1));
    }

    /// Overload shedding: past the watermark, the lowest-priority
    /// arrivals shed first with a typed `Shed` drop; a high-priority
    /// job rides out the same pressure.
    #[test]
    fn overload_sheds_lowest_priority_first() {
        let engine = engine(1);
        let jobs = parse(
            "at=0 tenant=t0 job=bfs\nat=1 tenant=t1 job=bfs\nat=2 tenant=t2 job=bfs\n\
             at=3 tenant=t3 job=bfs\nat=4 tenant=t4 job=bfs\n\
             at=5 tenant=low job=cc prio=0\nat=6 tenant=high job=cc prio=3\n",
        )
        .unwrap();
        let cfg = ServeConfig {
            slots: 1,
            queue_capacity: 10,
            resilience: ResilienceConfig {
                shed_watermark_pct: Some(40),
                ..ResilienceConfig::default()
            },
            ..ServeConfig::default()
        };
        let out = serve(&engine, &mut store(), &jobs, &cfg).unwrap();
        // Arrivals 1-4 queue (occupancy 0-30% at decision time); the
        // prio-0 job sees 40% >= its watermark 40 and sheds; the prio-3
        // job shares that pressure but its watermark is 85.
        assert!(
            matches!(
                &out.jobs[5].status,
                JobStatus::Dropped(ServeError::Shed { class, pressure_pct: 40, watermark_pct: 40 })
                    if class == "cc"
            ),
            "{:?}",
            out.jobs[5].status
        );
        assert_eq!(
            out.jobs[6].status,
            JobStatus::Completed,
            "prio 3 rides it out"
        );
        let tel = &out.telemetry;
        assert_eq!(tel.counter(keys::SERVE_SHED_TOTAL), 1);
        assert_eq!(tel.counter("serve.shed.cc"), 1);
        assert_eq!(tel.counter("serve.drop.shed"), 1);
        assert_eq!(tel.counter("serve.shed.pressure.count"), 1);
        assert_eq!(out.completed, 6);
    }

    /// Crash consistency, at every durable step: a daemon keeping a
    /// journal and a WAL is killed at step `k = 0, 1, 2, …` of the one
    /// numbering both share, until a run survives (that `k` is the step
    /// count). Each kill is the typed crash; the restarted daemon —
    /// fresh store, same directories, resuming from the journal, or
    /// re-running when the kill left no journal to resume — lands
    /// byte-identical (outcomes, job counters, contract-side service
    /// counters, store) to an uncrashed run and leaves no `*.tmp`
    /// behind. Durable I/O happens only in serial phases, so the step
    /// count is the same at 1 and 4 host threads.
    #[test]
    fn killed_daemon_resumes_byte_identical_to_uncrashed() {
        let jobs = wal_workload();
        let cfg = |tag: &str, resume: bool, crash: Option<u64>| ServeConfig {
            journal: Some(JournalConfig {
                dir: std::env::temp_dir().join(format!("gts-kill-{tag}-jrnl")),
                resume,
            }),
            wal_dir: Some(std::env::temp_dir().join(format!("gts-kill-{tag}-wal"))),
            crash,
            ..ServeConfig::default()
        };
        let dirs = |c: &ServeConfig| [c.journal.clone().unwrap().dir, c.wal_dir.clone().unwrap()];
        let mut step_counts = Vec::new();
        for threads in [1usize, 4] {
            let engine = engine(threads);
            let tag = format!("{}-{threads}", std::process::id());
            let base_cfg = cfg(&format!("{tag}-base"), false, None);
            let mut base_st = store();
            let baseline = serve(&engine, &mut base_st, &jobs, &base_cfg).unwrap();
            let mut cached = 0;
            let mut k = 0u64;
            loop {
                let tag = format!("{tag}-{k}");
                for d in dirs(&cfg(&tag, false, None)) {
                    std::fs::remove_dir_all(d).ok();
                }
                let what = format!("{threads} threads, step {k}");
                match serve(&engine, &mut store(), &jobs, &cfg(&tag, false, Some(k))) {
                    // No step was left to kill: `k` is the step count.
                    Ok(out) => {
                        assert_same_service(&baseline, &out, &what);
                        break;
                    }
                    Err(e) => assert!(
                        matches!(e, ServeError::InjectedCrash { step } if step == k),
                        "{what}: {e}"
                    ),
                }
                // The dead daemon's memory is gone: restart over a fresh
                // store. A kill before the journal's header was renamed
                // into place leaves nothing to resume; re-run instead.
                let mut st = store();
                let out = match serve(&engine, &mut st, &jobs, &cfg(&tag, true, None)) {
                    Ok(out) => {
                        cached += out.telemetry.counter(keys::SERVE_RESUME_CACHED);
                        out
                    }
                    Err(ServeError::Journal(_)) => {
                        st = store();
                        serve(&engine, &mut st, &jobs, &cfg(&tag, false, None)).unwrap()
                    }
                    Err(e) => panic!("{what}: resume failed: {e}"),
                };
                assert_same_service(&baseline, &out, &what);
                assert_eq!(
                    gts_core::store_fingerprint(&st),
                    gts_core::store_fingerprint(&base_st),
                    "{what}"
                );
                for d in dirs(&cfg(&tag, false, None)) {
                    for f in std::fs::read_dir(&d).unwrap() {
                        let name = f.unwrap().file_name();
                        assert!(
                            !name.to_string_lossy().ends_with(".tmp"),
                            "{what}: {name:?}"
                        );
                    }
                    std::fs::remove_dir_all(d).ok();
                }
                k += 1;
            }
            assert!(cached > 0, "some resume must reuse settled executions");
            step_counts.push(k);
            for d in
                dirs(&base_cfg)
                    .into_iter()
                    .chain(dirs(&cfg(&format!("{tag}-{k}"), false, None)))
            {
                std::fs::remove_dir_all(d).ok();
            }
        }
        // Pinned absolutely, not just 1 vs 4 threads: the journal's
        // shape may change, but every step that appends a frame appends
        // exactly one, so the kill points must not move.
        assert_eq!(step_counts, [22, 22], "durable steps per thread count");

        // Resuming against a different workload is refused, typed.
        let tag = format!("{}-other", std::process::id());
        serve(&engine(1), &mut store(), &jobs, &cfg(&tag, false, None)).unwrap();
        let other = parse("at=0 tenant=z job=bfs\n").unwrap();
        let err = serve(&engine(1), &mut store(), &other, &cfg(&tag, true, None)).unwrap_err();
        assert!(
            err.to_string().contains("workload fingerprint mismatch"),
            "{err}"
        );
        for d in dirs(&cfg(&tag, false, None)) {
            std::fs::remove_dir_all(d).ok();
        }
    }

    /// Every job's fate, timing and counters, and the contract-side
    /// service counters, agree between two runs of one workload. (A
    /// job's wall-side `wal.*` keys are set aside: recovery re-logs a
    /// record the log already holds as an idempotent zero-byte append.)
    fn assert_same_service(a: &ServeOutcome, b: &ServeOutcome, what: &str) {
        let strip = |c: &BTreeMap<String, u64>| {
            let mut c = c.clone();
            c.retain(|k, _| keys::class(k) != Some(keys::Class::Diagnostic));
            c
        };
        for (a, b) in a.jobs.iter().zip(&b.jobs) {
            assert_eq!(a.status, b.status, "{what}: job {}", a.index);
            assert_eq!(
                strip(&a.counters),
                strip(&b.counters),
                "{what}: job {}",
                a.index
            );
            assert_eq!(
                (a.start_ns, a.finish_ns, a.attempts, a.result_fp),
                (b.start_ns, b.finish_ns, b.attempts, b.result_fp),
                "{what}: job {}",
                a.index
            );
        }
        assert_eq!(
            a.telemetry.contract_counters(),
            b.telemetry.contract_counters(),
            "{what}"
        );
    }

    /// Cut an uncrashed journal-keeping run's log at every step
    /// boundary and one byte either side of it, resume from each cut,
    /// and check the resumed daemon drops the torn step whole, re-runs
    /// what it lost, and lands byte-identical to the uncrashed run —
    /// outcomes, counters, store — with every lost step re-journaled.
    /// Returns the uncrashed run.
    fn assert_every_cut_resumes(jobs: &[JobSpec], cfg: ServeConfig) -> ServeOutcome {
        use crate::journal::JOURNAL_FILE;
        let engine = engine(2);
        let dir = tempdir("cut-whole");
        let cfg = |dir: &PathBuf, resume: bool| ServeConfig {
            journal: Some(JournalConfig {
                dir: dir.clone(),
                resume,
            }),
            ..cfg.clone()
        };
        let mut base_st = store();
        let baseline = serve(&engine, &mut base_st, jobs, &cfg(&dir, false)).unwrap();
        let log = std::fs::read(dir.join(JOURNAL_FILE)).unwrap();
        let image =
            gts_ckpt::SealedLog::load(&dir.join(JOURNAL_FILE), &gts_ckpt::LogFormat::JOURNAL)
                .unwrap();
        let framed: usize = image.frames().map(|f| 4 + f.len() + 8).sum();
        let mut boundaries = vec![log.len() - framed];
        for f in image.frames() {
            boundaries.push(boundaries[boundaries.len() - 1] + 4 + f.len() + 8);
        }
        assert!(boundaries.len() > 4, "the run must journal several steps");
        assert_eq!(*boundaries.last().unwrap(), log.len());

        let cut_dir = tempdir("cut");
        std::fs::create_dir_all(&cut_dir).unwrap();
        for (step, &b) in boundaries.iter().enumerate() {
            for cut in [b - 1, b, b + 1] {
                if cut > log.len() {
                    continue;
                }
                std::fs::write(cut_dir.join(JOURNAL_FILE), &log[..cut]).unwrap();
                let mut resumed_st = store();
                let resumed = serve(&engine, &mut resumed_st, jobs, &cfg(&cut_dir, true));
                if cut < boundaries[0] {
                    // Inside the header: not a torn step, not a journal.
                    assert!(matches!(resumed, Err(ServeError::Journal(_))));
                    continue;
                }
                let out = resumed.unwrap();
                assert_same_service(&baseline, &out, &format!("step {step}, cut {cut}"));
                assert_eq!(
                    gts_core::store_fingerprint(&resumed_st),
                    gts_core::store_fingerprint(&base_st),
                    "step {step}, cut {cut}"
                );
                // The torn bytes are gone and the lost steps were re-journaled.
                let info = crate::journal::inspect_journal(&cut_dir).unwrap();
                assert_eq!(info.truncated_tail, 0);
                assert_eq!(
                    info.records as u64,
                    baseline.telemetry.counter(keys::SERVE_JOURNAL_RECORDS)
                );
            }
        }
        for d in [&dir, &cut_dir] {
            std::fs::remove_dir_all(d).ok();
        }
        baseline
    }

    /// A kill can land anywhere in the journal's append stream.
    #[test]
    fn journal_cut_at_any_step_boundary_resumes_byte_identical() {
        let jobs = parse(
            "at=0 tenant=a job=bfs
at=1000 tenant=b job=pagerank iters=3
             at=2000 tenant=m job=bfs mutate-at=1 inserts=16 deletes=2 seed=5
             at=3000 tenant=a job=cc
             at=4000 tenant=m job=cc mutate-at=1 inserts=8 seed=7
             at=5000 tenant=b job=degrees
",
        )
        .unwrap();
        let baseline = assert_every_cut_resumes(&jobs, ServeConfig::default());
        assert_eq!(baseline.telemetry.counter("serve.epochs"), 2);
    }

    /// Retries, quarantines and breaker drops are not journaled: a
    /// resume recomputes them from the memoized executions alone. Cut a
    /// journal holding retried, quarantined and breaker-dropped jobs at
    /// every step boundary: each resume reproduces their statuses,
    /// attempts and `serve.retry.*` / `serve.quarantine.*` /
    /// `serve.breaker.*` counters.
    #[test]
    fn journal_cut_with_retries_resumes_byte_identical() {
        let resilience = ResilienceConfig {
            retry_max: 2,
            backoff_base_ns: 500,
            breaker_threshold: 3,
            breaker_cooldown_ns: 1_000_000,
            ..ResilienceConfig::default()
        };
        // Poison: every attempt fails, so reads are quarantined after
        // three attempts, tenant "bad" trips its breaker and drops an
        // attempt, and the mutating job fails outright.
        let jobs = parse(
            "at=0 tenant=bad job=bfs\nat=1 tenant=good job=cc\n\
             at=200000 tenant=bad job=bfs\n\
             at=300000 tenant=m job=bfs mutate-at=1 inserts=16 seed=5\n\
             at=5000000 tenant=bad job=bfs\n",
        )
        .unwrap();
        let cfg = ServeConfig {
            slots: 2,
            faults: Some(poison()),
            resilience: resilience.clone(),
            ..ServeConfig::default()
        };
        let out = assert_every_cut_resumes(&jobs, cfg);
        let tel = &out.telemetry;
        assert!(out.quarantined >= 2, "{:?}", out.jobs);
        assert!(
            out.jobs.iter().any(|j| matches!(
                &j.status,
                JobStatus::Dropped(ServeError::BreakerOpen { tenant, .. }) if tenant == "bad"
            )),
            "{:?}",
            out.jobs
        );
        assert_eq!(
            tel.counter(keys::SERVE_QUARANTINE_JOBS),
            out.quarantined as u64
        );
        assert!(tel.counter(keys::SERVE_BREAKER_TRIPS) >= 1);
        assert!(tel.counter(keys::SERVE_RETRY_ATTEMPTS) > 0);

        // Flaky: some jobs recover on a retry, under fresh per-attempt
        // fault domains that the resume must re-derive identically.
        let cfg = ServeConfig {
            slots: 2,
            faults: Some(flaky(0x5EED)),
            resilience,
            ..ServeConfig::default()
        };
        let out = assert_every_cut_resumes(&synthetic(4, 3, 11, true), cfg);
        assert!(
            out.telemetry.counter(keys::SERVE_RETRY_RECOVERED) > 0,
            "{:?}",
            out.jobs
        );
    }

    /// The workload the WAL tests share: two mutating jobs interleaved
    /// with reads, so a crash around the first epoch leaves a second
    /// bump to re-derive after resume.
    fn wal_workload() -> Vec<JobSpec> {
        parse(
            "at=0 tenant=a job=bfs\n\
             at=1000 tenant=m job=bfs mutate-at=1 inserts=16 deletes=2 seed=5\n\
             at=2000 tenant=a job=cc\n\
             at=3000 tenant=m job=cc mutate-at=1 inserts=8 seed=7\n\
             at=4000 tenant=b job=degrees\n",
        )
        .unwrap()
    }

    /// A journal-memoized epoch bump is re-derived from the WAL's logged
    /// bytes on resume (`serve.wal.replayed`), not from the seeded
    /// generator, and the replayed store matches the uncrashed one.
    #[test]
    fn cached_epoch_bumps_replay_from_the_wal() {
        let engine = engine(2);
        let jobs = wal_workload();
        let base_wal = tempdir("wal-replay-base");
        let base_cfg = ServeConfig {
            wal_dir: Some(base_wal.clone()),
            ..ServeConfig::default()
        };
        let baseline = serve(&engine, &mut store(), &jobs, &base_cfg).unwrap();

        let dir = tempdir("wal-replay-jrnl");
        let wal = tempdir("wal-replay-log");
        let first_cfg = ServeConfig {
            journal: Some(JournalConfig::new(&dir)),
            wal_dir: Some(wal.clone()),
            ..ServeConfig::default()
        };
        serve(&engine, &mut store(), &jobs, &first_cfg).unwrap();

        let resume_cfg = ServeConfig {
            journal: Some(JournalConfig {
                dir: dir.clone(),
                resume: true,
            }),
            wal_dir: Some(wal.clone()),
            ..ServeConfig::default()
        };
        let mut resumed_st = store();
        let out = serve(&engine, &mut resumed_st, &jobs, &resume_cfg).unwrap();
        assert_eq!(
            out.telemetry.counter(keys::SERVE_WAL_REPLAYED),
            2,
            "both journaled bumps must come from the log"
        );
        assert_eq!(resumed_st.epoch(), 2);
        assert_eq!(
            baseline.telemetry.contract_counters(),
            out.telemetry.contract_counters()
        );
        for d in [&base_wal, &dir, &wal] {
            std::fs::remove_dir_all(d).ok();
        }
    }

    /// The journal header binds the WAL: resuming a WAL-keeping daemon
    /// without its log is refused with a typed header mismatch.
    #[test]
    fn resume_without_the_wal_is_refused() {
        let engine = engine(1);
        let jobs = wal_workload();
        let dir = tempdir("wal-bind-jrnl");
        let wal = tempdir("wal-bind-log");
        let first_cfg = ServeConfig {
            journal: Some(JournalConfig::new(&dir)),
            wal_dir: Some(wal.clone()),
            ..ServeConfig::default()
        };
        serve(&engine, &mut store(), &jobs, &first_cfg).unwrap();

        let resume_cfg = ServeConfig {
            journal: Some(JournalConfig {
                dir: dir.clone(),
                resume: true,
            }),
            ..ServeConfig::default()
        };
        let err = serve(&engine, &mut store(), &jobs, &resume_cfg).unwrap_err();
        assert!(
            err.to_string().contains("wal"),
            "dropping the WAL must be a typed header mismatch: {err}"
        );
        for d in [&dir, &wal] {
            std::fs::remove_dir_all(d).ok();
        }
    }

    /// The whole resilience layer is host-thread invariant: same fault
    /// seed, same retries, same quarantines, same shed decisions at 1
    /// and 4 host threads.
    #[test]
    fn resilience_is_host_thread_invariant() {
        let jobs = synthetic(4, 3, 11, true);
        let cfg = ServeConfig {
            slots: 2,
            faults: Some(flaky(0x5EED)),
            resilience: ResilienceConfig {
                retry_max: 2,
                backoff_base_ns: 500,
                breaker_threshold: 3,
                ..ResilienceConfig::default()
            },
            ..ServeConfig::default()
        };
        let outs: Vec<ServeOutcome> = [1usize, 4]
            .iter()
            .map(|&ht| serve(&engine(ht), &mut store(), &jobs, &cfg).unwrap())
            .collect();
        assert_eq!(outs[0].telemetry.counters(), outs[1].telemetry.counters());
        for (a, b) in outs[0].jobs.iter().zip(&outs[1].jobs) {
            assert_eq!(a.status, b.status, "job {}", a.index);
            assert_eq!(a.counters, b.counters, "job {}", a.index);
            assert_eq!(
                (a.start_ns, a.finish_ns, a.attempts, a.result_fp),
                (b.start_ns, b.finish_ns, b.attempts, b.result_fp)
            );
        }
        assert_eq!(
            (outs[0].completed, outs[0].failed, outs[0].quarantined),
            (outs[1].completed, outs[1].failed, outs[1].quarantined)
        );
    }

    #[test]
    fn invalid_config_and_workload_are_typed_errors() {
        let mut st = store();
        let bad_cfg = ServeConfig {
            slots: 0,
            ..ServeConfig::default()
        };
        assert!(matches!(
            serve(&engine(1), &mut st, &[], &bad_cfg),
            Err(ServeError::Config(_))
        ));
        let bad_cfg = ServeConfig {
            resilience: ResilienceConfig {
                backoff_base_ns: 0,
                ..ResilienceConfig::default()
            },
            ..ServeConfig::default()
        };
        assert!(matches!(
            serve(&engine(1), &mut st, &[], &bad_cfg),
            Err(ServeError::Config(_))
        ));
        let mut spec = JobSpec::new(0, "a", "bfs");
        spec.source = u64::MAX;
        assert!(matches!(
            serve(&engine(1), &mut st, &[spec], &ServeConfig::default()),
            Err(ServeError::Workload(_))
        ));
        let spec = JobSpec::new(0, "a", "frobnicate");
        assert!(matches!(
            serve(&engine(1), &mut st, &[spec], &ServeConfig::default()),
            Err(ServeError::Workload(_))
        ));
        // Zero iterations would trip PageRank's assert inside a worker.
        let mut spec = JobSpec::new(0, "a", "pagerank");
        spec.iterations = 0;
        assert!(matches!(
            serve(&engine(1), &mut st, &[spec], &ServeConfig::default()),
            Err(ServeError::Workload(_))
        ));
    }

    /// The service's WAL is [`ServeConfig::wal_dir`]: an engine that
    /// brings its own WAL directory or checkpoint block is refused before
    /// anything is opened, and the store is untouched.
    #[test]
    fn an_engine_with_its_own_wal_or_checkpoints_is_refused() {
        let jobs = parse("at=0 tenant=a job=bfs mutate-at=1 inserts=4").unwrap();
        let dir = tempdir("own-durability");
        for ecfg in [
            GtsConfig {
                wal_dir: Some(dir.join("wal")),
                ..GtsConfig::default()
            },
            GtsConfig {
                checkpoint: Some(CheckpointConfig::new(dir.join("ck"), 1)),
                ..GtsConfig::default()
            },
        ] {
            let mut st = store();
            let got = serve(
                &Engine::new(ecfg).unwrap(),
                &mut st,
                &jobs,
                &ServeConfig::default(),
            );
            assert!(matches!(got, Err(ServeError::Config(_))), "{got:?}");
            assert_eq!(st.epoch(), 0);
        }
        assert!(!dir.exists(), "nothing was created");
    }
}
