#![warn(missing_docs)]
#![warn(clippy::too_many_lines)]

//! # gts-serve — the GTS engine as a long-lived multi-tenant service
//!
//! The paper's engine answers one query and exits; a deployment keeps the
//! slotted-page store resident and admits a *stream* of jobs from many
//! tenants. This crate is that serving layer over [`gts_core::Engine`]:
//!
//! * [`workload`] — deterministic scripted workloads: a line format of
//!   arrival sim-times × job specs (`at=… tenant=… job=…`), a parser,
//!   the one key/value setter and pre-run check behind both workload
//!   lines and `gts run`'s job flags, and the seeded mutation-batch
//!   generator.
//! * [`scheduler`] — the service itself: a FIFO queueing simulation on
//!   the *simulated* clock that multiplexes a fixed number of service
//!   slots (GPU lane sets + their share of storage bandwidth) across
//!   tenants, with admission control and typed backpressure
//!   ([`ServeError::QueueFull`] / [`ServeError::Rejected`] /
//!   [`ServeError::Deadline`]). Edge-mutating jobs serialise through the
//!   store's epoch pipeline as an all-slots barrier.
//! * [`resilience`] — the service-level fault policy: per-job fault
//!   domains derived from one service seed, capped exponential backoff
//!   retry with quarantine ([`JobStatus::Quarantined`]), a per-tenant
//!   circuit breaker ([`ServeError::BreakerOpen`]), and load-aware
//!   overload shedding ([`ServeError::Shed`]).
//! * [`journal`] — the crash-consistent service journal (one sealed
//!   frame per scheduler step in a `gts-ckpt` `SealedLog`): a killed daemon
//!   resumes without re-running settled jobs, byte-identical to an
//!   uncrashed run.
//!
//! ## The determinism contract, extended to serving
//!
//! Each admitted job runs as its own `Job` (`gts_core::job`: own lanes,
//! page caches, fault domains, counter registry), so its report and
//! counters are **byte-identical to the same job run solo** — at any
//! `host_threads` value, at any slot count, regardless of what the other
//! tenants are doing. Host threads only change wall-clock speed: read
//! jobs are executed speculatively in parallel on the `gts-exec` pool
//! (they are side-effect-free over a shared store), while the queueing
//! dynamics — start times, drops, latency percentiles — are pure
//! sim-time arithmetic. The property tests and the CI `serve-smoke` job
//! diff exactly this.
//!
//! ## Quick start
//!
//! ```
//! use gts_core::{Engine, GtsConfig};
//! use gts_graph::generate::rmat;
//! use gts_serve::scheduler::{serve, ServeConfig};
//! use gts_serve::workload;
//! use gts_storage::{build_graph_store, PageFormatConfig};
//!
//! let mut store = build_graph_store(&rmat(8), PageFormatConfig::small_default()).unwrap();
//! let engine = Engine::new(GtsConfig::default()).unwrap();
//! let jobs = workload::parse("at=0 tenant=a job=bfs\nat=1000 tenant=b job=cc").unwrap();
//! let outcome = serve(&engine, &mut store, &jobs, &ServeConfig::default()).unwrap();
//! assert_eq!(outcome.completed, 2);
//! assert_eq!(outcome.telemetry.counter("serve.lat.all.count"), 2);
//! ```

pub mod journal;
pub mod resilience;
pub mod scheduler;
pub mod workload;

pub use journal::{inspect_journal, store_binding_fp, JournalConfig, JournalInfo};
pub use resilience::ResilienceConfig;
pub use scheduler::{serve, JobOutcome, JobStatus, ServeConfig, ServeOutcome};
pub use workload::{parse, JobSpec, MutateSpec, WorkloadError};

/// Why the service refused or abandoned a job (or could not start at
/// all). The first three variants are the typed backpressure surfaced
/// per job in [`JobOutcome`]: scripts and tenants can tell "the service
/// is saturated" ([`ServeError::QueueFull`]) from "you are over your
/// share" ([`ServeError::Rejected`]) from "it waited too long"
/// ([`ServeError::Deadline`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The shared waiting queue was at capacity when the job arrived.
    QueueFull {
        /// Jobs waiting at the arrival instant.
        waiting: usize,
        /// The configured queue capacity.
        capacity: usize,
    },
    /// The tenant already had its full share of waiting jobs.
    Rejected {
        /// The over-quota tenant.
        tenant: String,
        /// That tenant's waiting jobs at the arrival instant.
        waiting: usize,
        /// The configured per-tenant queue capacity.
        capacity: usize,
    },
    /// The job could not start within its deadline; it was dropped at
    /// dispatch time instead of running uselessly late.
    Deadline {
        /// Simulated wait it would have needed.
        waited_ns: u64,
        /// The configured admission deadline.
        deadline_ns: u64,
    },
    /// The tenant's circuit breaker was open when the job arrived: the
    /// tenant accumulated `breaker_threshold` consecutive failures and
    /// its arrivals are shed until the cool-down elapses.
    BreakerOpen {
        /// The tenant whose breaker tripped.
        tenant: String,
        /// Consecutive failures that tripped it.
        failures: u32,
        /// Simulated instant the breaker closes again.
        until_ns: u64,
    },
    /// Load-aware admission shed the job: service pressure crossed the
    /// job's priority-scaled watermark, so the lowest classes go first.
    Shed {
        /// The shed job's class (algorithm name).
        class: String,
        /// Effective pressure at arrival, percent (max of queue
        /// occupancy and projected deadline consumption).
        pressure_pct: u32,
        /// The watermark this job's priority had to stay under.
        watermark_pct: u32,
    },
    /// The service's kill switch fired ([`ServeConfig::crash`]): the
    /// daemon "died" at this durable I/O step of its journal or WAL,
    /// which — with every step after it — did not reach the disk, so
    /// `--resume-serve` must reproduce the uncrashed run.
    InjectedCrash {
        /// The 0-based durable step the switch was armed for.
        step: u64,
    },
    /// The service journal is unusable: the directory cannot be opened,
    /// a record is malformed, or the journal belongs to a different
    /// workload/config/store than the one being resumed.
    Journal(String),
    /// The service configuration itself is invalid.
    Config(String),
    /// The workload script is malformed or names impossible work.
    Workload(String),
    /// The engine rejected the configuration or a run failed.
    Engine(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::QueueFull { waiting, capacity } => {
                write!(f, "queue full: {waiting} waiting >= capacity {capacity}")
            }
            ServeError::Rejected {
                tenant,
                waiting,
                capacity,
            } => write!(
                f,
                "tenant {tenant:?} rejected: {waiting} waiting >= per-tenant capacity {capacity}"
            ),
            ServeError::Deadline {
                waited_ns,
                deadline_ns,
            } => write!(
                f,
                "deadline exceeded: would wait {waited_ns} ns > deadline {deadline_ns} ns"
            ),
            ServeError::BreakerOpen {
                tenant,
                failures,
                until_ns,
            } => write!(
                f,
                "tenant {tenant:?} breaker open after {failures} consecutive failures (closes at {until_ns} ns)"
            ),
            ServeError::Shed {
                class,
                pressure_pct,
                watermark_pct,
            } => write!(
                f,
                "shed {class} job: pressure {pressure_pct}% over watermark {watermark_pct}%"
            ),
            ServeError::InjectedCrash { step } => {
                write!(f, "injected crash at durable step {step}")
            }
            ServeError::Journal(m) => write!(f, "serve journal: {m}"),
            ServeError::Config(m) => write!(f, "serve config: {m}"),
            ServeError::Workload(m) => write!(f, "workload: {m}"),
            ServeError::Engine(m) => write!(f, "engine: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}
