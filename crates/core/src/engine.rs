//! The GTS framework engine — Algorithm 1 of the paper.
//!
//! One `run` executes a [`GtsProgram`] over a slotted-page [`GraphStore`]:
//!
//! 1. **Initialisation** — allocate WABuf / RABuf / SPBuf / LPBuf (and the
//!    RVT) in each GPU's device memory, sized by the program's WA/RA layout
//!    and the strategy's WA split; whatever device memory remains becomes
//!    the topology page cache (`cachedPIDMap`, Sec. 3.3). Allocation beyond
//!    capacity fails with [`EngineError::DeviceOom`] — the paper's O.O.M.
//!    cells.
//! 2. **Sweep loop** — for traversal programs, `nextPIDSet` seeds with the
//!    source's page and each level streams only marked pages; for sweep
//!    programs every iteration streams all pages, Small Pages first, then
//!    Large Pages (Sec. 3.4's phase separation). Pages are fetched
//!    SSD → MMBuf → SPBuf as needed (lines 15–27), assigned to GPUs by the
//!    strategy's `h(j)`, pipelined over `num_streams` asynchronous streams,
//!    and served from the GPU cache when possible.
//! 3. **Synchronisation** — per-sweep WA write-back for sweep programs
//!    (peer-to-peer merge under Strategy-P), a final WA write-back for
//!    traversal programs, plus the small per-level nextPIDSet/cachedPIDMap
//!    copies (lines 28–30).
//!
//! Functional results are exact (kernels really run); time is accounted on
//! the simulated clock (see `gts-gpu`).

use crate::job::{Engine, JobOptions};
use crate::programs::GtsProgram;
use crate::report::RunReport;
use crate::strategy::Strategy;
use gts_ckpt::CkptError;
use gts_faults::FaultConfig;
use gts_gpu::memory::GpuOom;
use gts_gpu::warp::MicroTechnique;
use gts_gpu::{GpuConfig, PcieConfig};
use gts_storage::builder::GraphStore;
use gts_storage::cache::{FifoCache, LruCache, PageCache, RandomCache};
use gts_storage::{MutateError, StorageError, WalError};
use gts_telemetry::Telemetry;
use std::fmt;
use std::path::PathBuf;

/// Where the topology pages live before streaming.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageLocation {
    /// Whole graph resident in main memory (the paper's in-memory setting,
    /// used when |G| < MMBuf — loading time excluded, as in Sec. 7.2).
    InMemory,
    /// Striped over this many simulated PCI-E SSDs.
    Ssds(usize),
    /// Striped over this many simulated HDDs.
    Hdds(usize),
}

/// Which replacement policy the GPU-side page cache uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachePolicyKind {
    /// Least recently used (the paper's default).
    Lru,
    /// First in, first out.
    Fifo,
    /// Random replacement (seeded).
    Random,
}

impl CachePolicyKind {
    /// Instantiate the policy with a capacity (in pages).
    pub fn build(self, capacity_pages: usize) -> PageCache {
        match self {
            CachePolicyKind::Lru => Box::new(LruCache::new(capacity_pages)),
            CachePolicyKind::Fifo => Box::new(FifoCache::new(capacity_pages)),
            CachePolicyKind::Random => Box::new(RandomCache::new(capacity_pages, 0x6715)),
        }
    }
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct GtsConfig {
    /// Number of GPUs.
    pub num_gpus: usize,
    /// Asynchronous streams per GPU (Fig. 10 sweeps 1..32).
    pub num_streams: usize,
    /// Multi-GPU strategy (Sec. 4).
    pub strategy: Strategy,
    /// Micro-level parallel technique (Sec. 6.2).
    pub technique: MicroTechnique,
    /// Per-GPU hardware model.
    pub gpu: GpuConfig,
    /// PCI-E link model.
    pub pcie: PcieConfig,
    /// Where topology pages come from.
    pub storage: StorageLocation,
    /// MMBuf size as a percentage of the graph's page count when streaming
    /// from secondary storage (Sec. 7.2 uses 20 %; 0 disables the MMBuf).
    pub mmbuf_percent: u32,
    /// Page-cache replacement policy.
    pub cache_policy: CachePolicyKind,
    /// Optional cap on cache size in bytes (Fig. 11's x-axis); `None`
    /// means "all leftover device memory".
    pub cache_limit_bytes: Option<u64>,
    /// Use peer-to-peer WA merging under Strategy-P (Sec. 4.1); `false`
    /// falls back to N direct GPU→host copies (the ablation baseline).
    pub p2p_sync: bool,
    /// Host threads executing kernel bodies (functional work only — the
    /// simulated clock is unaffected). Defaults to the machine's available
    /// parallelism; `1` reproduces the exact serial execution order, and
    /// every value produces byte-identical reports and traces because all
    /// parallel updates are atomically commutative.
    pub host_threads: usize,
    /// Record wall-clock nanoseconds spent in host phase A (functional
    /// kernels) and phase B (accounting) under the `host.phase_*_ns`
    /// telemetry keys. Wall-clock readings vary run to run, so these
    /// keys sit OUTSIDE the determinism contract (like `ckpt.*`) and
    /// the flag defaults to off; the bench harness turns it on to track
    /// the phase-B share of host time.
    pub measure_host_phases: bool,
    /// Deterministic fault-injection plan for the run: seeded schedules
    /// of transient device read errors, torn pages, and GPU copy/launch
    /// faults, all absorbed by bounded retry on the simulated clock.
    /// `None` disables injection entirely (no draws, no schedule drift).
    pub faults: Option<FaultConfig>,
    /// When a device-memory allocation fails, step the configuration down
    /// instead of aborting: Strategy-P → Strategy-S, then halved stream
    /// counts, then no page cache — each step recorded as a typed degrade
    /// event. `false` restores fail-fast O.O.M. reporting.
    pub degrade_on_oom: bool,
    /// Crash-consistent checkpointing: write a resumable snapshot every
    /// `every` sweeps to `dir`, and optionally start the run by resuming
    /// the directory's latest valid snapshot. `None` disables it.
    pub checkpoint: Option<CheckpointConfig>,
    /// Mutation write-ahead log for live runs: every scheduled batch is
    /// sealed into `<dir>/wal.log` *before* it applies, so a crash between
    /// checkpoints loses no applied mutation — resume replays the log
    /// suffix on top of the newest snapshot instead of refusing with a
    /// store-fingerprint mismatch. Ignored by static ([`Gts::run`]) jobs;
    /// `None` disables logging (and live resume keeps its old refusal).
    pub wal_dir: Option<PathBuf>,
    /// Background scrub cadence in sweeps (>= 1): at the boundary of
    /// every sweep whose index is a multiple of this, walk every store
    /// page in the serial accounting phase, verify its at-rest trailer
    /// checksum against the fault plan's bit-rot schedule, repair
    /// detections from the authoritative in-memory copy, and route them
    /// to drive quarantine/re-striping. Results land under the sim-side
    /// deterministic `scrub.*` counters. `None` disables scrubbing.
    pub scrub_every: Option<u32>,
    /// Watchdog deadline for any single sweep, in simulated nanoseconds.
    /// A sweep that exceeds it aborts the run with
    /// [`EngineError::DeadlineExceeded`] — after a final checkpoint is
    /// flushed (when checkpointing is configured). `None` disables it.
    pub sweep_deadline_ns: Option<u64>,
    /// Watchdog budget for the whole run, in simulated nanoseconds,
    /// checked at every sweep boundary; same abort semantics as
    /// [`GtsConfig::sweep_deadline_ns`]. `None` disables it.
    pub run_budget_ns: Option<u64>,
}

/// Where snapshots go, how often they are taken, and whether this run
/// starts from one (see [`GtsConfig::checkpoint`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Directory holding the snapshot files and the manifest.
    pub dir: PathBuf,
    /// Snapshot cadence in sweeps (>= 1): a snapshot is written at the
    /// top of every sweep whose index is a multiple of `every`.
    pub every: u32,
    /// Resume from the directory's latest valid snapshot instead of
    /// starting at sweep 0. Fails with a typed error when the directory
    /// has no usable snapshot or it belongs to a different run setup.
    pub resume: bool,
}

impl CheckpointConfig {
    /// Checkpoint into `dir` every `every` sweeps, without resuming.
    pub fn new(dir: impl Into<PathBuf>, every: u32) -> CheckpointConfig {
        CheckpointConfig {
            dir: dir.into(),
            every,
            resume: false,
        }
    }

    /// The same configuration, but resuming from the latest snapshot.
    pub fn resuming(mut self) -> CheckpointConfig {
        self.resume = true;
        self
    }
}

impl Default for GtsConfig {
    fn default() -> Self {
        GtsConfig {
            num_gpus: 1,
            num_streams: 16,
            strategy: Strategy::Performance,
            technique: MicroTechnique::default_edge_centric(),
            gpu: GpuConfig::titan_x(),
            pcie: PcieConfig::gen3_x16(),
            storage: StorageLocation::InMemory,
            mmbuf_percent: 20,
            cache_policy: CachePolicyKind::Lru,
            cache_limit_bytes: None,
            p2p_sync: true,
            host_threads: gts_exec::default_host_threads(),
            measure_host_phases: false,
            faults: None,
            degrade_on_oom: true,
            checkpoint: None,
            wal_dir: None,
            scrub_every: None,
            sweep_deadline_ns: None,
            run_budget_ns: None,
        }
    }
}

impl GtsConfig {
    /// Check the configuration's invariants. A configuration is a struct
    /// literal over `..GtsConfig::default()`, and every consumer routes
    /// through this one checker: [`GtsBuilder::build`] and
    /// [`Engine::new`] report violations as [`ConfigError`] values,
    /// [`Gts::new`] panics with the same error's message — so the paths
    /// can never drift apart on what "valid" means.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.num_gpus < 1 {
            return Err(ConfigError::ZeroGpus);
        }
        if self.num_streams < 1 {
            return Err(ConfigError::ZeroStreams);
        }
        if self.host_threads < 1 {
            return Err(ConfigError::ZeroHostThreads);
        }
        if matches!(
            self.storage,
            StorageLocation::Ssds(0) | StorageLocation::Hdds(0)
        ) {
            return Err(ConfigError::ZeroStorageDevices);
        }
        if self.mmbuf_percent > 100 {
            return Err(ConfigError::MmbufPercentOutOfRange(self.mmbuf_percent));
        }
        if let Some(limit) = self.cache_limit_bytes {
            if limit > self.gpu.device_memory {
                return Err(ConfigError::CacheLimitExceedsDeviceMemory {
                    limit,
                    device_memory: self.gpu.device_memory,
                });
            }
        }
        if let Some(c) = &self.checkpoint {
            if c.every < 1 {
                return Err(ConfigError::ZeroCheckpointEvery);
            }
        }
        if self.scrub_every == Some(0) {
            return Err(ConfigError::ZeroScrubEvery);
        }
        if self.sweep_deadline_ns == Some(0) {
            return Err(ConfigError::ZeroDeadline {
                what: "sweep_deadline_ns",
            });
        }
        if self.run_budget_ns == Some(0) {
            return Err(ConfigError::ZeroDeadline {
                what: "run_budget_ns",
            });
        }
        Ok(())
    }
}

/// A configuration rejected by [`GtsConfig::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `num_gpus` was zero — the engine needs at least one GPU.
    ZeroGpus,
    /// `num_streams` was zero — the pipeline needs at least one stream.
    ZeroStreams,
    /// `host_threads` was zero — kernel bodies need at least one host
    /// thread (`1` means exact serial execution).
    ZeroHostThreads,
    /// `storage` was `Ssds(0)` or `Hdds(0)` — pages cannot be striped
    /// over an array of no devices.
    ZeroStorageDevices,
    /// `mmbuf_percent` above 100 (it is a percentage of the graph's
    /// pages; Sec. 7.2 uses 20, and 0 disables the MMBuf entirely).
    MmbufPercentOutOfRange(u32),
    /// A cache cap larger than the device itself can never take effect.
    CacheLimitExceedsDeviceMemory {
        /// The requested cap in bytes.
        limit: u64,
        /// The configured GPU's device memory in bytes.
        device_memory: u64,
    },
    /// `checkpoint.every` was zero — the cadence is in sweeps and a
    /// snapshot every 0 sweeps is meaningless.
    ZeroCheckpointEvery,
    /// `scrub_every` was zero — the scrub cadence is in sweeps and a
    /// pass every 0 sweeps is meaningless.
    ZeroScrubEvery,
    /// A watchdog deadline was zero — every sweep takes simulated time,
    /// so a zero budget would abort unconditionally.
    ZeroDeadline {
        /// Which budget was zero (`"sweep_deadline_ns"` or
        /// `"run_budget_ns"`).
        what: &'static str,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroGpus => write!(f, "num_gpus must be >= 1"),
            ConfigError::ZeroStreams => write!(f, "num_streams must be >= 1"),
            ConfigError::ZeroHostThreads => write!(f, "host_threads must be >= 1"),
            ConfigError::ZeroStorageDevices => {
                write!(f, "storage must name >= 1 device (Ssds(0) / Hdds(0))")
            }
            ConfigError::MmbufPercentOutOfRange(p) => {
                write!(f, "mmbuf_percent must be in 0..=100, got {p}")
            }
            ConfigError::CacheLimitExceedsDeviceMemory {
                limit,
                device_memory,
            } => write!(
                f,
                "cache_limit_bytes ({limit}) exceeds device memory ({device_memory})"
            ),
            ConfigError::ZeroCheckpointEvery => {
                write!(f, "checkpoint.every must be >= 1 (it is a sweep cadence)")
            }
            ConfigError::ZeroScrubEvery => {
                write!(f, "scrub_every must be >= 1 (it is a sweep cadence)")
            }
            ConfigError::ZeroDeadline { what } => {
                write!(f, "{what} must be > 0 when set")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Errors an engine run can produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A device-memory allocation failed — the graph's WA (or the
    /// streaming buffers) exceed GPU capacity under the chosen strategy.
    DeviceOom(GpuOom),
    /// The store's RVT is corrupt: a Large Page's entry is missing its
    /// `LP_RANGE` (the tuple Fig. 12 stores as −1 only for Small Pages),
    /// so the planner cannot widen the vertex's chunk run.
    CorruptRvt {
        /// The Large Page whose RVT entry lacks an `LP_RANGE`.
        pid: u64,
    },
    /// A page fetch failed permanently: the retry budget was exhausted,
    /// the page's trailer checksum never verified, or every drive in the
    /// array is quarantined.
    Storage(StorageError),
    /// An injected GPU fault persisted past the retry budget.
    GpuFault {
        /// The GPU whose operation kept failing.
        gpu: u32,
        /// The failing operation (`"H2D copy"` or `"kernel launch"`).
        op: &'static str,
        /// Attempts made, the first one included.
        attempts: u32,
    },
    /// The run's kill switch fired (kill-and-resume chaos testing): the
    /// process "died" at this durable I/O step of its checkpoint store or
    /// WAL, which — with every step after it — did not reach the disk.
    InjectedCrash {
        /// The 0-based durable step the switch was armed for.
        step: u64,
    },
    /// A watchdog deadline was exceeded on the simulated clock. When
    /// checkpointing is configured, a final snapshot was flushed before
    /// this error surfaced, so the run is resumable.
    DeadlineExceeded {
        /// Which budget tripped (`"sweep_deadline_ns"` or
        /// `"run_budget_ns"`).
        what: &'static str,
        /// The configured budget, simulated nanoseconds.
        limit_ns: u64,
        /// What was actually spent, simulated nanoseconds.
        elapsed_ns: u64,
    },
    /// A checkpoint operation failed: the directory is unusable, a write
    /// did not land, or a resume found no compatible snapshot.
    Checkpoint(CkptError),
    /// A scheduled mutation batch was rejected by the store (out-of-range
    /// endpoint, deleting a missing edge, page-ID exhaustion). The store
    /// is unchanged — [`gts_storage::GraphStore::apply_mutations`] stages
    /// before it installs — but the run aborts: silently skipping a batch
    /// would leave the caller believing it applied.
    Mutation(MutateError),
    /// A write-ahead-log operation failed: the log directory is unusable,
    /// an append did not land, the log belongs to a different store, or
    /// recovery found a chain the store cannot replay. (A batch the store
    /// *rejects* after logging is rolled back out of the log and surfaces
    /// as [`EngineError::Mutation`], not here.)
    Wal(WalError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::DeviceOom(e) => write!(f, "{e}"),
            EngineError::CorruptRvt { pid } => write!(
                f,
                "corrupt RVT: Large Page {pid} has no LP_RANGE in its entry"
            ),
            EngineError::Storage(e) => write!(f, "storage: {e}"),
            EngineError::GpuFault { gpu, op, attempts } => {
                write!(f, "gpu{gpu}: {op} failed after {attempts} attempts")
            }
            EngineError::InjectedCrash { step } => {
                write!(f, "injected crash at durable step {step}")
            }
            EngineError::DeadlineExceeded {
                what,
                limit_ns,
                elapsed_ns,
            } => write!(
                f,
                "{what} exceeded: {elapsed_ns} ns spent against a {limit_ns} ns budget"
            ),
            EngineError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
            EngineError::Mutation(e) => write!(f, "mutation: {e}"),
            EngineError::Wal(e) => write!(f, "wal: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<MutateError> for EngineError {
    fn from(e: MutateError) -> Self {
        EngineError::Mutation(e)
    }
}

impl From<GpuOom> for EngineError {
    fn from(e: GpuOom) -> Self {
        EngineError::DeviceOom(e)
    }
}

impl From<StorageError> for EngineError {
    fn from(e: StorageError) -> Self {
        EngineError::Storage(e)
    }
}

impl From<CkptError> for EngineError {
    /// A fired kill switch keeps its identity — the process "died", the
    /// checkpoint did not fail.
    fn from(e: CkptError) -> Self {
        match e {
            CkptError::InjectedCrash { step } => EngineError::InjectedCrash { step },
            other => EngineError::Checkpoint(other),
        }
    }
}

impl From<WalError> for EngineError {
    /// A batch the store rejected *after* logging keeps its typed
    /// [`EngineError::Mutation`] identity — the WAL rolled the record
    /// back, so the failure is the store's, not the log's. A fired kill
    /// switch keeps its identity too.
    fn from(e: WalError) -> Self {
        match e {
            WalError::Rejected(m) => EngineError::Mutation(m),
            WalError::Log(crash @ CkptError::InjectedCrash { .. }) => crash.into(),
            other => EngineError::Wal(other),
        }
    }
}

pub use crate::sweep::live::MutationSchedule;

/// The GTS engine for solo runs: an [`Engine`] plus the [`Telemetry`]
/// handle every run records into.
#[derive(Debug, Clone)]
pub struct Gts {
    engine: Engine,
    telemetry: Telemetry,
}

/// Builder for [`Gts`]: the validated configuration plus the telemetry
/// handle the engine records into.
#[derive(Debug, Clone)]
pub struct GtsBuilder {
    cfg: GtsConfig,
    telemetry: Telemetry,
}

impl GtsBuilder {
    /// Run with `cfg` instead of [`GtsConfig::default`].
    pub fn config(mut self, cfg: GtsConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Record into `tel` instead of a fresh counters-only handle. Pass
    /// [`Telemetry::with_spans`] to capture Fig. 3/4-style timelines for
    /// [`Telemetry::to_chrome_trace`] / [`Telemetry::render_ascii`].
    pub fn telemetry(mut self, tel: Telemetry) -> Self {
        self.telemetry = tel;
        self
    }

    /// Validate the configuration and produce the engine.
    pub fn build(self) -> Result<Gts, ConfigError> {
        Ok(Gts {
            engine: Engine::new(self.cfg)?,
            telemetry: self.telemetry,
        })
    }
}

impl Gts {
    /// Create an engine with the given configuration.
    ///
    /// # Panics
    /// Panics when [`GtsConfig::validate`] rejects the configuration —
    /// the exact same [`ConfigError`] set [`Gts::builder`] reports as
    /// values (zero GPUs/streams/host threads, `mmbuf_percent` above 100,
    /// a cache cap beyond device memory). Callers that want the error as
    /// a value use the builder.
    pub fn new(cfg: GtsConfig) -> Self {
        match Gts::builder().config(cfg).build() {
            Ok(gts) => gts,
            Err(e) => panic!("invalid GtsConfig: {e}"),
        }
    }

    /// A validating builder, starting from [`GtsConfig::default`] and a
    /// counters-only [`Telemetry`].
    pub fn builder() -> GtsBuilder {
        GtsBuilder {
            cfg: GtsConfig::default(),
            telemetry: Telemetry::new(),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &GtsConfig {
        self.engine.config()
    }

    /// The engine's telemetry handle. After [`Gts::run`] it holds the
    /// run's counters (and spans, when enabled); [`Gts::run`]'s
    /// [`RunReport`] is derived from exactly these counters.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Execute `prog` over `store`. Returns the run report; the program
    /// itself holds the algorithm's output (levels, ranks, ...).
    ///
    /// With a fault plan configured ([`GtsConfig::faults`]), injected
    /// transient faults are absorbed by bounded retry on the simulated
    /// clock: results stay byte-identical to the fault-free run, only
    /// counters, spans, and simulated time differ. Unrecoverable faults
    /// surface as typed errors — and even then the counters and spans
    /// accumulated so far are flushed, so a partial trace survives.
    pub fn run(
        &self,
        store: &GraphStore,
        prog: &mut dyn GtsProgram,
    ) -> Result<RunReport, EngineError> {
        self.engine.run_job(store, prog, &self.job_options())
    }

    /// Execute `prog` over a *live* `store`: each of `schedule`'s mutation
    /// batches applies atomically at its sweep's boundary, bumping the
    /// store's epoch, invalidating the rewritten pages in every GPU cache
    /// and the MMBuf, and pinning freshly-allocated delta pages onto
    /// surviving drives. The program is notified through
    /// [`GtsProgram::on_mutation`] and may continue incrementally; batches
    /// scheduled past the algorithm's convergence still apply — the run
    /// stays alive at the fixpoint, jumps to the next due boundary, and
    /// re-sweeps from the mutation's seeds.
    ///
    /// Results are byte-identical at any `host_threads`, exactly as for
    /// [`Gts::run`]: batches apply serially at boundaries, never during a
    /// sweep.
    pub fn run_live(
        &self,
        store: &mut GraphStore,
        prog: &mut dyn GtsProgram,
        schedule: MutationSchedule,
    ) -> Result<RunReport, EngineError> {
        self.engine
            .run_job_live(store, prog, schedule, &self.job_options())
    }

    /// Solo runs record into the engine's own telemetry handle with no
    /// tenant attribution.
    fn job_options(&self) -> JobOptions {
        JobOptions::with_telemetry(self.telemetry.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs::{Bfs, PageRank};
    use gts_graph::generate::rmat;
    use gts_graph::{reference, Csr};
    use gts_storage::{build_graph_store, MutationBatch, PageFormatConfig, PhysicalIdConfig};
    use gts_telemetry::{keys, SpanCat};

    fn small_store() -> GraphStore {
        build_graph_store(
            &rmat(9),
            PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 1024),
        )
        .unwrap()
    }

    #[test]
    fn bfs_matches_reference() {
        let g = rmat(9);
        let store =
            build_graph_store(&g, PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 1024)).unwrap();
        let engine = Gts::new(GtsConfig::default());
        let mut bfs = Bfs::new(store.num_vertices(), 0);
        engine.run(&store, &mut bfs).unwrap();
        let want = reference::bfs(&Csr::from_edge_list(&g), 0);
        assert_eq!(bfs.levels_u32(), want);
    }

    #[test]
    fn pagerank_matches_reference() {
        let g = rmat(8);
        let store =
            build_graph_store(&g, PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 1024)).unwrap();
        let engine = Gts::new(GtsConfig::default());
        let mut pr = PageRank::new(store.num_vertices(), 5);
        engine.run(&store, &mut pr).unwrap();
        let want = reference::pagerank(&Csr::from_edge_list(&g), 0.85, 5);
        for (got, want) in pr.ranks().iter().zip(&want) {
            assert!(
                (*got as f64 - want).abs() < 1e-4,
                "rank mismatch {got} vs {want}"
            );
        }
    }

    #[test]
    fn multi_gpu_strategies_agree_functionally() {
        let g = rmat(9);
        let store =
            build_graph_store(&g, PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 1024)).unwrap();
        let mut results = Vec::new();
        for strategy in [Strategy::Performance, Strategy::Scalability] {
            for gpus in [1usize, 2, 4] {
                let cfg = GtsConfig {
                    num_gpus: gpus,
                    strategy,
                    ..GtsConfig::default()
                };
                let mut bfs = Bfs::new(store.num_vertices(), 0);
                Gts::new(cfg).run(&store, &mut bfs).unwrap();
                results.push(bfs.levels().to_vec());
            }
        }
        for r in &results[1..] {
            assert_eq!(r, &results[0]);
        }
    }

    #[test]
    fn strategy_p_speeds_up_with_more_gpus() {
        let store = small_store();
        let elapsed = |gpus: usize| {
            let cfg = GtsConfig {
                num_gpus: gpus,
                ..GtsConfig::default()
            };
            let mut pr = PageRank::new(store.num_vertices(), 3);
            Gts::new(cfg).run(&store, &mut pr).unwrap().elapsed
        };
        let one = elapsed(1);
        let two = elapsed(2);
        assert!(two < one, "2 GPUs {two:?} must beat 1 GPU {one:?}");
    }

    #[test]
    fn oom_when_wa_exceeds_device_memory() {
        let store = small_store();
        let cfg = GtsConfig {
            gpu: GpuConfig::titan_x().with_device_memory(1024),
            ..GtsConfig::default()
        };
        let mut pr = PageRank::new(store.num_vertices(), 1);
        match Gts::new(cfg).run(&store, &mut pr) {
            Err(EngineError::DeviceOom(oom)) => assert_eq!(oom.label, "WABuf"),
            other => panic!("expected OOM, got {other:?}"),
        }
    }

    /// An undersized 4-GPU PageRank setup: the exact buffer footprint
    /// plus *half* the WA, so Strategy-P (full WA replica) cannot fit
    /// but Strategy-S (WA/4) can.
    fn undersized_p_config(store: &GraphStore, strategy: Strategy) -> GtsConfig {
        let v = store.num_vertices();
        let wa = crate::attrs::AlgorithmKind::PageRank.wa_bytes(v);
        let page = store.cfg().page_size as u64;
        let streams = 16u64;
        let max_sp_vertices = page / 14; // VID(6) + OFF(4) + ADJLIST_SZ(4)
        let buffers =
            streams * page * 2 + streams * max_sp_vertices * 4 + store.rvt().memory_bytes();
        let capacity = buffers + wa / 2;
        GtsConfig {
            num_gpus: 4,
            strategy,
            gpu: GpuConfig::titan_x().with_device_memory(capacity),
            ..GtsConfig::default()
        }
    }

    #[test]
    fn strategy_s_fits_where_p_cannot() {
        // WA too big for one GPU but fine when split over four. With
        // degradation off, Strategy-P must report the O.O.M. it hits.
        let store = build_graph_store(
            &rmat(13),
            PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 1024),
        )
        .unwrap();
        let v = store.num_vertices();
        let mk = |strategy| GtsConfig {
            degrade_on_oom: false,
            ..undersized_p_config(&store, strategy)
        };
        let mut pr = PageRank::new(v, 1);
        assert!(matches!(
            Gts::new(mk(Strategy::Performance)).run(&store, &mut pr),
            Err(EngineError::DeviceOom(_))
        ));
        let mut pr = PageRank::new(v, 1);
        Gts::new(mk(Strategy::Scalability))
            .run(&store, &mut pr)
            .expect("Strategy-S must fit");
    }

    #[test]
    fn oom_steps_down_to_strategy_s_instead_of_aborting() {
        // Same undersized setup, but with the default degradation ladder:
        // the run completes via a recorded P->S step-down, and the ranks
        // are identical to a run configured as Strategy-S from the start.
        let store = build_graph_store(
            &rmat(13),
            PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 1024),
        )
        .unwrap();
        let v = store.num_vertices();
        let engine = Gts::new(undersized_p_config(&store, Strategy::Performance));
        let mut pr = PageRank::new(v, 1);
        engine
            .run(&store, &mut pr)
            .expect("degradation must rescue the O.O.M.");
        assert_eq!(engine.telemetry().counter(keys::DEGRADE_EVENTS), 1);
        let mut want = PageRank::new(v, 1);
        Gts::new(undersized_p_config(&store, Strategy::Scalability))
            .run(&store, &mut want)
            .unwrap();
        assert_eq!(pr.ranks(), want.ranks(), "degraded run computes S's result");
    }

    #[test]
    fn injected_faults_preserve_results_and_add_time() {
        let store = small_store();
        let run = |faults: Option<FaultConfig>| {
            let cfg = GtsConfig {
                storage: StorageLocation::Ssds(2),
                mmbuf_percent: 0,
                cache_limit_bytes: Some(0),
                faults,
                ..GtsConfig::default()
            };
            let engine = Gts::new(cfg);
            let mut pr = PageRank::new(store.num_vertices(), 3);
            let r = engine.run(&store, &mut pr).unwrap();
            let retries = engine.telemetry().counter(keys::IO_RETRIES);
            (pr.ranks().to_vec(), r.elapsed, retries)
        };
        let clean = run(None);
        assert_eq!(clean.2, 0, "no plan, no retries");
        let faulty = run(Some(FaultConfig::with_seed(0xFA)));
        assert_eq!(faulty.0, clean.0, "ranks must be byte-identical");
        assert!(faulty.2 > 0, "the default rates must fire on ~600 reads");
        assert!(
            faulty.1 > clean.1,
            "absorbed faults cost simulated time: {:?} vs {:?}",
            faulty.1,
            clean.1
        );
    }

    #[test]
    fn job_options_override_the_engine_fault_domain() {
        use crate::job::{Engine, JobOptions};
        let store = small_store();
        let cfg = GtsConfig {
            storage: StorageLocation::Ssds(2),
            mmbuf_percent: 0,
            cache_limit_bytes: Some(0),
            faults: None, // the engine itself is fault-free
            ..GtsConfig::default()
        };
        let engine = Engine::new(cfg).unwrap();
        // A job bringing its own domain sees that domain's faults...
        let faulty = JobOptions::default().faults(FaultConfig::with_seed(0xFA));
        let mut pr = PageRank::new(store.num_vertices(), 3);
        engine.run_job(&store, &mut pr, &faulty).unwrap();
        assert!(faulty.telemetry.counter(keys::IO_RETRIES) > 0);
        // ...while the next job on the same engine stays clean, and the
        // override reproduces the engine-wide config byte for byte.
        let clean = JobOptions::default();
        let mut pr = PageRank::new(store.num_vertices(), 3);
        engine.run_job(&store, &mut pr, &clean).unwrap();
        assert_eq!(clean.telemetry.counter(keys::IO_RETRIES), 0);
        let engine_wide = Engine::new(GtsConfig {
            faults: Some(FaultConfig::with_seed(0xFA)),
            ..engine.config().clone()
        })
        .unwrap();
        let wide = JobOptions::default();
        let mut pr = PageRank::new(store.num_vertices(), 3);
        engine_wide.run_job(&store, &mut pr, &wide).unwrap();
        assert_eq!(wide.telemetry.counters(), faulty.telemetry.counters());
    }

    #[test]
    fn failed_runs_still_flush_counters_and_spans() {
        // Corrupt RVT mid-run (the truncated-entry setup below) with
        // spans on: the run errs, but the partial trace and counters
        // must survive — including a closed run span.
        let n = 600u32;
        let mut edges: Vec<(u32, u32)> = (1..n).map(|v| (0, v)).collect();
        edges.extend((1..n).map(|v| (v, 0)));
        let mut store = build_graph_store(
            &gts_graph::EdgeList::new(n, edges),
            PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 1024),
        )
        .unwrap();
        let lp = store.large_pids()[0];
        let mut entry = store.rvt().entry(lp);
        entry.lp_range = None;
        store.rvt_mut().set_entry(lp, entry);
        let engine = Gts::builder()
            .telemetry(Telemetry::with_spans())
            .build()
            .unwrap();
        let mut bfs = Bfs::new(store.num_vertices(), 0);
        let err = engine.run(&store, &mut bfs).unwrap_err();
        assert!(matches!(err, EngineError::CorruptRvt { .. }));
        let tel = engine.telemetry();
        assert!(tel.span_count() > 0, "partial spans survive the error");
        assert!(
            tel.spans().iter().any(|s| s.cat == SpanCat::Run),
            "the run span is closed even on error"
        );
        assert!(tel.counter(keys::RUN_GPUS) > 0, "counters are flushed");
        assert!(tel.to_chrome_trace().contains("\"ph\":\"X\""));
    }

    #[test]
    fn ssd_streaming_is_slower_than_in_memory() {
        let store = small_store();
        let run = |storage| {
            let cfg = GtsConfig {
                storage,
                // No cache: force every page over the full path.
                cache_limit_bytes: Some(0),
                mmbuf_percent: 0,
                ..GtsConfig::default()
            };
            let mut pr = PageRank::new(store.num_vertices(), 2);
            Gts::new(cfg).run(&store, &mut pr).unwrap().elapsed
        };
        let mem = run(StorageLocation::InMemory);
        let ssd = run(StorageLocation::Ssds(1));
        let hdd = run(StorageLocation::Hdds(1));
        assert!(ssd > mem, "SSD {ssd:?} slower than memory {mem:?}");
        assert!(hdd > ssd, "HDD {hdd:?} slower than SSD {ssd:?}");
    }

    #[test]
    fn cache_reduces_streamed_pages_for_bfs() {
        let store = small_store();
        let run = |cache_bytes| {
            let cfg = GtsConfig {
                cache_limit_bytes: Some(cache_bytes),
                ..GtsConfig::default()
            };
            let mut bfs = Bfs::new(store.num_vertices(), 0);
            Gts::new(cfg).run(&store, &mut bfs).unwrap()
        };
        let cold = run(0);
        let hot = run(GpuConfig::titan_x().device_memory);
        assert_eq!(cold.cache_hits, 0);
        assert!(hot.cache_hits > 0, "repeat page visits must hit the cache");
        assert!(hot.pages_streamed < cold.pages_streamed);
        assert!(hot.elapsed <= cold.elapsed);
    }

    #[test]
    fn more_streams_help_pagerank() {
        let store = small_store();
        let run = |streams| {
            let cfg = GtsConfig {
                num_streams: streams,
                cache_limit_bytes: Some(0),
                ..GtsConfig::default()
            };
            let mut pr = PageRank::new(store.num_vertices(), 3);
            Gts::new(cfg).run(&store, &mut pr).unwrap().elapsed
        };
        let one = run(1);
        let sixteen = run(16);
        assert!(sixteen < one, "16 streams {sixteen:?} vs 1 {one:?}");
    }

    #[test]
    fn spans_recorded_when_telemetry_enabled() {
        let store = small_store();
        let engine = Gts::builder()
            .telemetry(Telemetry::with_spans())
            .build()
            .unwrap();
        let mut bfs = Bfs::new(store.num_vertices(), 0);
        engine.run(&store, &mut bfs).unwrap();
        let tel = engine.telemetry();
        assert!(tel.span_count() > 0, "spans requested");
        let spans = tel.spans();
        assert!(spans.iter().any(|s| s.cat == SpanCat::Copy));
        assert!(spans.iter().any(|s| s.cat == SpanCat::Kernel));
        assert!(spans.iter().any(|s| s.cat == SpanCat::Sweep));
        let run = spans
            .iter()
            .find(|s| s.cat == SpanCat::Run)
            .expect("run span");
        // Well-nested: the run span contains every other span.
        for s in &spans {
            assert!(s.start >= run.start && s.end <= run.end, "{s:?}");
        }
        assert!(tel.to_chrome_trace().contains("\"ph\":\"X\""));
    }

    #[test]
    fn spans_skipped_by_default() {
        let store = small_store();
        let engine = Gts::new(GtsConfig::default());
        let mut bfs = Bfs::new(store.num_vertices(), 0);
        engine.run(&store, &mut bfs).unwrap();
        assert_eq!(engine.telemetry().span_count(), 0);
        assert!(engine.telemetry().counter(keys::PAGES_STREAMED) > 0);
    }

    #[test]
    fn builder_validates_configuration() {
        let d = GtsConfig::default;
        let rejected = |cfg: GtsConfig| cfg.validate().unwrap_err();
        assert_eq!(
            rejected(GtsConfig { num_gpus: 0, ..d() }),
            ConfigError::ZeroGpus
        );
        assert_eq!(
            rejected(GtsConfig {
                num_streams: 0,
                ..d()
            }),
            ConfigError::ZeroStreams
        );
        assert_eq!(
            rejected(GtsConfig {
                host_threads: 0,
                ..d()
            }),
            ConfigError::ZeroHostThreads
        );
        let four = GtsConfig {
            host_threads: 4,
            ..d()
        };
        assert_eq!(four.validate(), Ok(()));
        assert_eq!(
            Gts::builder()
                .config(four)
                .build()
                .unwrap()
                .config()
                .host_threads,
            4
        );
        for empty in [StorageLocation::Ssds(0), StorageLocation::Hdds(0)] {
            let cfg = GtsConfig {
                storage: empty,
                ..d()
            };
            let err = rejected(cfg.clone());
            assert_eq!(err, ConfigError::ZeroStorageDevices);
            assert_eq!(
                err.to_string(),
                "storage must name >= 1 device (Ssds(0) / Hdds(0))"
            );
            // Every consumer reports it too, typed, before any device
            // array is built.
            assert_eq!(
                Gts::builder().config(cfg.clone()).build().unwrap_err(),
                ConfigError::ZeroStorageDevices
            );
            assert!(crate::Engine::new(cfg).is_err());
        }
        // 0 is valid — it disables the MMBuf; only >100 is rejected.
        let no_mmbuf = GtsConfig {
            mmbuf_percent: 0,
            ..d()
        };
        assert_eq!(no_mmbuf.validate(), Ok(()));
        assert_eq!(
            rejected(GtsConfig {
                mmbuf_percent: 101,
                ..d()
            }),
            ConfigError::MmbufPercentOutOfRange(101)
        );
        assert!(matches!(
            rejected(GtsConfig {
                cache_limit_bytes: Some(u64::MAX),
                ..d()
            }),
            ConfigError::CacheLimitExceedsDeviceMemory { .. }
        ));
        let engine = Gts::builder()
            .config(GtsConfig {
                num_gpus: 2,
                num_streams: 8,
                strategy: Strategy::Scalability,
                ..d()
            })
            .build()
            .unwrap();
        assert_eq!(engine.config().num_gpus, 2);
        assert_eq!(engine.config().num_streams, 8);
        assert_eq!(engine.config().strategy, Strategy::Scalability);
        assert!(Gts::builder()
            .config(GtsConfig { num_gpus: 0, ..d() })
            .build()
            .is_err());
        assert_eq!(
            rejected(GtsConfig {
                checkpoint: Some(CheckpointConfig::new("ckpts", 0)),
                ..d()
            }),
            ConfigError::ZeroCheckpointEvery
        );
        assert_eq!(
            rejected(GtsConfig {
                scrub_every: Some(0),
                ..d()
            }),
            ConfigError::ZeroScrubEvery
        );
        let scrubbing = GtsConfig {
            scrub_every: Some(4),
            ..d()
        };
        assert_eq!(scrubbing.validate(), Ok(()));
        assert_eq!(
            rejected(GtsConfig {
                sweep_deadline_ns: Some(0),
                ..d()
            }),
            ConfigError::ZeroDeadline {
                what: "sweep_deadline_ns"
            }
        );
        assert_eq!(
            rejected(GtsConfig {
                run_budget_ns: Some(0),
                ..d()
            }),
            ConfigError::ZeroDeadline {
                what: "run_budget_ns"
            }
        );
    }

    /// Every [`EngineError`] variant renders its context fields as prose
    /// an operator can act on — no `{:?}` leakage of variant names.
    #[test]
    fn engine_error_display_renders_every_variant() {
        let cases = [
            (
                EngineError::DeviceOom(GpuOom {
                    requested: 100,
                    available: 25,
                    capacity: 50,
                    label: "WABuf",
                }),
                "GPU out of memory allocating WABuf (100 B requested, 25 B free of 50 B)",
            ),
            (
                EngineError::CorruptRvt { pid: 3 },
                "corrupt RVT: Large Page 3 has no LP_RANGE in its entry",
            ),
            (
                EngineError::Storage(StorageError::CorruptPage { pid: 42 }),
                "storage: page 42: persistent trailer checksum mismatch",
            ),
            (
                EngineError::GpuFault {
                    gpu: 2,
                    op: "H2D copy",
                    attempts: 4,
                },
                "gpu2: H2D copy failed after 4 attempts",
            ),
            (
                EngineError::InjectedCrash { step: 6 },
                "injected crash at durable step 6",
            ),
            (
                EngineError::DeadlineExceeded {
                    what: "run_budget_ns",
                    limit_ns: 1_000,
                    elapsed_ns: 2_500,
                },
                "run_budget_ns exceeded: 2500 ns spent against a 1000 ns budget",
            ),
            (
                EngineError::Checkpoint(CkptError::NoSnapshot {
                    dir: "ckpts".into(),
                }),
                "checkpoint: no checkpoint to resume from in ckpts",
            ),
            (
                EngineError::Wal(WalError::Log(CkptError::Corrupt {
                    reason: "header truncated".to_string(),
                })),
                "wal: corrupt data: header truncated",
            ),
        ];
        for (e, want) in cases {
            assert_eq!(e.to_string(), want);
            assert_ne!(e.to_string(), format!("{e:?}"), "Display must not be Debug");
        }
    }

    #[test]
    fn report_is_a_view_of_the_counter_registry() {
        let store = small_store();
        let engine = Gts::new(GtsConfig {
            num_gpus: 2,
            ..GtsConfig::default()
        });
        let mut bfs = Bfs::new(store.num_vertices(), 0);
        let r = engine.run(&store, &mut bfs).unwrap();
        let tel = engine.telemetry();
        assert_eq!(r.elapsed.as_nanos(), tel.counter(keys::RUN_ELAPSED_NS));
        assert_eq!(r.sweeps as u64, tel.counter(keys::RUN_SWEEPS));
        assert_eq!(r.pages_streamed, tel.counter(keys::PAGES_STREAMED));
        assert_eq!(r.cache_hits, tel.counter(keys::CACHE_HITS));
        assert_eq!(r.edges_traversed, tel.counter(keys::EDGES_TRAVERSED));
        assert_eq!(r.per_gpu.len() as u64, tel.counter(keys::RUN_GPUS));
        for (i, g) in r.per_gpu.iter().enumerate() {
            let i = i as u32;
            assert_eq!(g.bytes_h2d, tel.counter(keys::gpu(i, keys::GPU_BYTES_H2D)));
            assert_eq!(g.kernels, tel.counter(keys::gpu(i, keys::GPU_KERNELS)));
        }
        // Cache probes balance: hits + misses == pages visited.
        let probes = tel.counter(keys::CACHE_HITS) + tel.counter(keys::CACHE_MISSES);
        let pages: u64 = r.per_sweep.iter().map(|s| s.pages).sum();
        assert_eq!(probes, pages);
        assert!(tel.counter(keys::KERNEL_LAUNCHES) > 0);
    }

    #[test]
    fn telemetry_resets_between_runs() {
        let store = small_store();
        let engine = Gts::new(GtsConfig::default());
        let mut bfs = Bfs::new(store.num_vertices(), 0);
        let first = engine.run(&store, &mut bfs).unwrap();
        let mut bfs = Bfs::new(store.num_vertices(), 0);
        let second = engine.run(&store, &mut bfs).unwrap();
        // Counters cover exactly one run, not the engine's lifetime.
        assert_eq!(first.pages_streamed, second.pages_streamed);
        assert_eq!(
            engine.telemetry().counter(keys::EDGES_TRAVERSED),
            second.edges_traversed
        );
    }

    #[test]
    fn stream_count_is_clamped_to_kernel_concurrency() {
        let store = small_store();
        let cfg = GtsConfig {
            num_streams: 1000, // far beyond the CUDA limit of 32
            ..GtsConfig::default()
        };
        let mut bfs = Bfs::new(store.num_vertices(), 0);
        Gts::new(cfg)
            .run(&store, &mut bfs)
            .expect("clamped, not rejected");
    }

    #[test]
    fn empty_graph_pagerank_terminates() {
        let store = build_graph_store(
            &gts_graph::EdgeList::new(4, vec![]),
            PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 1024),
        )
        .unwrap();
        let mut pr = PageRank::new(store.num_vertices(), 3);
        let r = Gts::new(GtsConfig::default()).run(&store, &mut pr).unwrap();
        assert_eq!(r.sweeps, 3);
        assert_eq!(r.edges_traversed, 0);
        // Every vertex keeps exactly the teleport share.
        for &p in pr.ranks() {
            assert!((p - 0.15 / 4.0).abs() < 1e-6);
        }
    }

    #[test]
    fn cache_limit_beyond_free_memory_is_clamped() {
        // The whole device is a valid cap, but the streaming buffers eat
        // into it first: the cache gets the (smaller) leftover.
        let store = small_store();
        let cfg = GtsConfig {
            cache_limit_bytes: Some(GpuConfig::titan_x().device_memory),
            ..GtsConfig::default()
        };
        let mut bfs = Bfs::new(store.num_vertices(), 0);
        let r = Gts::new(cfg).run(&store, &mut bfs).unwrap();
        let pages = r.per_gpu[0].cache_capacity_pages as u64;
        assert!(pages * store.cfg().page_size as u64 <= GpuConfig::titan_x().device_memory);
    }

    #[test]
    fn more_gpus_than_pages_still_works() {
        let store = build_graph_store(
            &rmat(6),
            PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 65536),
        )
        .unwrap();
        assert!(store.num_pages() <= 2);
        let cfg = GtsConfig {
            num_gpus: 8,
            ..GtsConfig::default()
        };
        let mut bfs = Bfs::new(store.num_vertices(), 0);
        Gts::new(cfg).run(&store, &mut bfs).unwrap();
        let want = reference::bfs(&Csr::from_edge_list(&rmat(6)), 0);
        assert_eq!(bfs.levels_u32(), want);
    }

    #[test]
    fn pagerank_ra_subvectors_are_streamed() {
        // PageRank streams prevPR (4 B/vertex) with each page; BFS streams
        // nothing extra. The byte accounting must show the difference.
        let store = small_store();
        let cfg = GtsConfig {
            cache_limit_bytes: Some(0),
            ..GtsConfig::default()
        };
        let mut bfs = Bfs::new(store.num_vertices(), 0);
        let bfs_run = Gts::new(cfg.clone()).run(&store, &mut bfs).unwrap();
        let mut pr = PageRank::new(store.num_vertices(), 1);
        let pr_run = Gts::new(cfg).run(&store, &mut pr).unwrap();
        let page = store.cfg().page_size as u64;
        // One PR sweep moves topology + RA + 2x WA; pure topology would be
        // pages x page_size.
        let pr_topo = store.num_pages() * page;
        assert!(
            pr_run.total_bytes_h2d()
                >= pr_topo + 4 * store.num_vertices() + 4 * store.num_vertices(),
            "PR must move RA and WA on top of topology"
        );
        assert!(bfs_run.total_bytes_h2d() > 0);
    }

    #[test]
    fn per_sweep_stats_sum_to_totals() {
        let store = small_store();
        let engine = Gts::new(GtsConfig::default());
        let mut bfs = Bfs::new(store.num_vertices(), 0);
        let r = engine.run(&store, &mut bfs).unwrap();
        assert_eq!(r.per_sweep.len(), r.sweeps as usize);
        let edges: u64 = r.per_sweep.iter().map(|s| s.active_edges).sum();
        assert_eq!(edges, r.edges_traversed);
        let hits: u64 = r.per_sweep.iter().map(|s| s.cache_hits).sum();
        assert_eq!(hits, r.cache_hits);
        let pages: u64 = r.per_sweep.iter().map(|s| s.pages).sum();
        assert_eq!(pages, r.pages_streamed + r.cache_hits);
        // Frontier: sweep 0 holds only the source (counted once per LP
        // chunk if it is a high-degree vertex).
        assert!(r.per_sweep[0].active_vertices >= 1);
        assert!(r.per_sweep[0].active_vertices <= store.num_pages());
    }

    #[test]
    fn report_statistics_are_consistent() {
        let store = small_store();
        let engine = Gts::new(GtsConfig::default());
        let mut pr = PageRank::new(store.num_vertices(), 2);
        let r = engine.run(&store, &mut pr).unwrap();
        assert_eq!(r.algorithm, "PageRank");
        assert_eq!(r.sweeps, 2);
        // Two sweeps over every edge.
        assert_eq!(r.edges_traversed, 2 * store.num_edges());
        assert!(r.total_bytes_h2d() > 0);
        assert!(r.transfer_to_kernel_ratio() > 0.0);
    }

    #[test]
    #[should_panic(expected = "mmbuf_percent must be in 0..=100, got 200")]
    fn gts_new_panics_with_the_builders_error_message() {
        // Gts::new routes through GtsConfig::validate: the panic carries
        // the exact ConfigError message the builder would return.
        let cfg = GtsConfig {
            mmbuf_percent: 200,
            ..GtsConfig::default()
        };
        let _ = Gts::new(cfg);
    }

    #[test]
    fn truncated_rvt_surfaces_as_corrupt_rvt_error() {
        // A star graph whose hub overflows one page: Large Pages exist.
        let n = 600u32;
        let mut edges: Vec<(u32, u32)> = (1..n).map(|v| (0, v)).collect();
        edges.extend((1..n).map(|v| (v, 0)));
        let mut store = build_graph_store(
            &gts_graph::EdgeList::new(n, edges),
            PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 1024),
        )
        .unwrap();
        let lp = store.large_pids()[0];
        // Truncate the RVT entry: drop the LP_RANGE the planner needs.
        let mut entry = store.rvt().entry(lp);
        entry.lp_range = None;
        store.rvt_mut().set_entry(lp, entry);
        // BFS from the hub must hit the corrupt entry when it widens the
        // chunk run — as a typed error, not a panic.
        let mut bfs = Bfs::new(store.num_vertices(), 0);
        match Gts::new(GtsConfig::default()).run(&store, &mut bfs) {
            Err(EngineError::CorruptRvt { pid }) => assert_eq!(pid, lp),
            other => panic!("expected CorruptRvt, got {other:?}"),
        }
    }

    #[test]
    fn host_threads_do_not_change_results_or_simulated_time() {
        let store = small_store();
        let run = |threads: usize| {
            let cfg = GtsConfig {
                host_threads: threads,
                ..GtsConfig::default()
            };
            let mut pr = PageRank::new(store.num_vertices(), 4);
            let report = Gts::new(cfg).run(&store, &mut pr).unwrap();
            (pr.ranks().to_vec(), report.elapsed, report.edges_traversed)
        };
        let serial = run(1);
        for threads in [2, 4, 8] {
            let par = run(threads);
            // Bit-identical ranks (commutative fixed-point accumulation)
            // and identical simulated numbers.
            assert_eq!(par.0, serial.0, "ranks differ at {threads} threads");
            assert_eq!(par.1, serial.1, "elapsed differs at {threads} threads");
            assert_eq!(par.2, serial.2, "edges differ at {threads} threads");
        }
    }

    /// Up to `want` edges `(hub, v)` absent from `g` — insert-only batches
    /// built from these keep the live result comparable to a from-scratch
    /// run over the union graph.
    fn missing_edges(g: &gts_graph::EdgeList, hub: u32, want: usize) -> Vec<(u32, u32)> {
        let present: std::collections::HashSet<(u32, u32)> = g.edges.iter().copied().collect();
        (0..g.num_vertices)
            .filter(|&v| v != hub && !present.contains(&(hub, v)))
            .take(want)
            .map(|v| (hub, v))
            .collect()
    }

    #[test]
    fn live_bfs_matches_reference_on_the_mutated_graph() {
        // Insert a burst of edges out of vertex 1 mid-traversal (sweep 2):
        // the monotone relaxation plus `pending` re-activation must land on
        // exactly the BFS levels of the union graph.
        let g = rmat(9);
        let store0 =
            build_graph_store(&g, PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 1024)).unwrap();
        let extra = missing_edges(&g, 1, 40);
        assert!(extra.len() >= 30, "rmat(9) vertex 1 is nowhere near full");
        let mut batch = MutationBatch::new();
        for &(s, d) in &extra {
            batch.insert(s as u64, d as u64);
        }
        let mut store = store0;
        let engine = Gts::new(GtsConfig::default());
        let mut bfs = Bfs::new(store.num_vertices(), 0);
        engine
            .run_live(&mut store, &mut bfs, MutationSchedule::new().at(2, batch))
            .unwrap();
        let mut g2 = g.clone();
        g2.edges.extend(extra);
        let want = reference::bfs(&Csr::from_edge_list(&g2), 0);
        assert_eq!(bfs.levels_u32(), want);
        assert_eq!(store.epoch(), 1, "one applied batch, one epoch bump");
        assert_eq!(engine.telemetry().counter(keys::MUT_EPOCH), 1);
        assert!(engine.telemetry().counter(keys::MUT_INSERTED) >= 30);
    }

    #[test]
    fn live_cc_post_done_batch_merges_components() {
        // Two disjoint directed paths; CC converges, then a scheduled
        // bridge edge revives the run (post-Done revival) and min-label
        // propagation must flood label 0 across the second path.
        let n = 64u32;
        let mut edges: Vec<(u32, u32)> = (0..31).map(|v| (v, v + 1)).collect();
        edges.extend((32..63).map(|v| (v, v + 1)));
        let mut store = build_graph_store(
            &gts_graph::EdgeList::new(n, edges),
            PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 1024),
        )
        .unwrap();
        let mut batch = MutationBatch::new();
        batch.insert(0, 32);
        let engine = Gts::new(GtsConfig::default());
        let mut cc = crate::programs::Cc::new(n as u64);
        let report = engine
            .run_live(&mut store, &mut cc, MutationSchedule::new().at(50, batch))
            .unwrap();
        assert!(
            cc.labels().iter().all(|&l| l == 0),
            "bridge must merge everything into component 0: {:?}",
            cc.labels()
        );
        assert!(report.sweeps > 50, "the run must revive past sweep 50");
        assert_eq!(engine.telemetry().counter(keys::MUT_BATCHES), 1);
        assert_eq!(engine.telemetry().counter(keys::MUT_EPOCH), 1);
    }

    #[test]
    fn live_pagerank_post_done_batch_gets_a_refresh_sweep() {
        // Sweep programs with the default (empty) `on_mutation` get a full
        // refresh sweep per post-Done batch: Fixed(3) converges at sweep 2,
        // the batch at sweep 10 revives the run for exactly one more sweep.
        let g = rmat(8);
        let mut store =
            build_graph_store(&g, PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 1024)).unwrap();
        let extra = missing_edges(&g, 3, 20);
        let mut batch = MutationBatch::new();
        for &(s, d) in &extra {
            batch.insert(s as u64, d as u64);
        }
        let mut base = PageRank::new(store.num_vertices(), 3);
        Gts::new(GtsConfig::default())
            .run(&store, &mut base)
            .unwrap();
        let engine = Gts::new(GtsConfig::default());
        let mut pr = PageRank::new(store.num_vertices(), 3);
        let report = engine
            .run_live(&mut store, &mut pr, MutationSchedule::new().at(10, batch))
            .unwrap();
        assert_eq!(report.sweeps, 11, "3 iterations + the jump to sweep 10");
        assert_ne!(
            pr.ranks(),
            base.ranks(),
            "the refresh sweep must see the inserted edges"
        );
        assert_eq!(engine.telemetry().counter(keys::MUT_BATCHES), 1);
    }

    #[test]
    fn live_runs_identical_across_host_threads() {
        // The whole mutation path is host-serial and BTree-ordered, so a
        // mutate-while-sweep run must be byte-identical at any thread
        // count — levels, simulated clock, and every mut.* counter.
        let g = rmat(9);
        let extra = missing_edges(&g, 2, 24);
        let run = |threads: usize| {
            let mut store =
                build_graph_store(&g, PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 1024))
                    .unwrap();
            let mut ins = MutationBatch::new();
            for &(s, d) in &extra {
                ins.insert(s as u64, d as u64);
            }
            let mut del = MutationBatch::new();
            del.delete(g.edges[0].0 as u64, g.edges[0].1 as u64);
            let cfg = GtsConfig {
                host_threads: threads,
                ..GtsConfig::default()
            };
            let engine = Gts::new(cfg);
            let mut bfs = Bfs::new(store.num_vertices(), 0);
            let report = engine
                .run_live(
                    &mut store,
                    &mut bfs,
                    MutationSchedule::new().at(1, ins).at(2, del),
                )
                .unwrap();
            let tel = engine.telemetry();
            let muts: Vec<u64> = [
                keys::MUT_BATCHES,
                keys::MUT_INSERTED,
                keys::MUT_DELETED,
                keys::MUT_PAGES_REWRITTEN,
                keys::MUT_DELTA_PAGES,
                keys::MUT_CACHE_INVALIDATIONS,
                keys::MUT_EPOCH,
            ]
            .iter()
            .map(|k| tel.counter(k))
            .collect();
            (bfs.levels().to_vec(), report.elapsed, report.sweeps, muts)
        };
        let serial = run(1);
        assert_eq!(serial.3[0], 2, "both batches applied");
        for threads in [2, 4] {
            assert_eq!(
                run(threads),
                serial,
                "live run differs at {threads} threads"
            );
        }
    }

    #[test]
    fn mutated_store_refuses_a_stale_resume() {
        // A snapshot fingerprints the store *epoch*: a checkpoint taken
        // before a mutation batch must refuse to resume against the
        // mutated store — typed, not a wrong-answer resume.
        let dir = std::env::temp_dir().join(format!("gts-stale-resume-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let g = rmat(9);
        let mut store =
            build_graph_store(&g, PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 1024)).unwrap();
        let extra = missing_edges(&g, 1, 8);
        let mut batch = MutationBatch::new();
        for &(s, d) in &extra {
            batch.insert(s as u64, d as u64);
        }
        let mk = |resume: bool| {
            let ck = CheckpointConfig::new(&dir, 2);
            GtsConfig {
                checkpoint: Some(if resume { ck.resuming() } else { ck }),
                ..GtsConfig::default()
            }
        };
        // Snapshot lands at sweep 2 (epoch 0); the batch applies at the
        // sweep-3 boundary and bumps the epoch; Fixed(4) ends before the
        // sweep-4 boundary would re-snapshot the new epoch.
        let mut pr = PageRank::new(store.num_vertices(), 4);
        Gts::new(mk(false))
            .run_live(&mut store, &mut pr, MutationSchedule::new().at(3, batch))
            .unwrap();
        assert_eq!(store.epoch(), 1);
        let mut pr2 = PageRank::new(store.num_vertices(), 4);
        match Gts::new(mk(true)).run(&store, &mut pr2) {
            Err(EngineError::Checkpoint(CkptError::Mismatch { what, .. })) => {
                assert_eq!(what, "store fingerprint");
            }
            other => panic!("expected a stale-resume refusal, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Scratch dirs for one WAL test: (checkpoints, wal), both fresh.
    fn wal_dirs(tag: &str) -> (std::path::PathBuf, std::path::PathBuf) {
        let base = std::env::temp_dir().join(format!("gts-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&base).ok();
        (base.join("ckpts"), base.join("wal"))
    }

    /// One insert-only batch out of `hub`, absent from `g`.
    fn burst(g: &gts_graph::EdgeList, hub: u32, want: usize) -> MutationBatch {
        let mut batch = MutationBatch::new();
        for &(s, d) in &missing_edges(g, hub, want) {
            batch.insert(s as u64, d as u64);
        }
        batch
    }

    #[test]
    fn wal_replays_the_log_to_reach_a_post_mutation_snapshot() {
        // The batch applies at sweep 3 and the snapshot lands at sweep 4
        // (post-mutation epoch); wherever the process then dies — here it
        // does not even die — its memory is gone. Resuming over a FRESH
        // store — epoch 0, exactly what an operator rebuilds from the
        // original edge list — used to refuse with a fingerprint
        // mismatch; with the WAL it rolls the store forward to the
        // snapshot's epoch and completes byte-identically.
        let (ck_dir, wal_dir) = wal_dirs("wal-replay");
        let g = rmat(9);
        let build = || {
            build_graph_store(&g, PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 1024)).unwrap()
        };
        let mk = |resume: bool| {
            let ck = CheckpointConfig::new(&ck_dir, 4);
            GtsConfig {
                checkpoint: Some(if resume { ck.resuming() } else { ck }),
                wal_dir: Some(wal_dir.clone()),
                faults: Some(FaultConfig::quiet(7)),
                ..GtsConfig::default()
            }
        };
        let mut base_store = build();
        let mut base_pr = PageRank::new(base_store.num_vertices(), 7);
        let base = Gts::new(mk(false))
            .run_live(
                &mut base_store,
                &mut base_pr,
                MutationSchedule::new().at(3, burst(&g, 1, 24)),
            )
            .unwrap();
        assert_eq!(base_store.epoch(), 1, "the batch applied");
        // Recover over a FRESH store: the WAL supplies the missing epoch.
        let mut fresh = build();
        let engine = Gts::new(mk(true));
        let mut pr2 = PageRank::new(fresh.num_vertices(), 7);
        let report = engine
            .run_live(
                &mut fresh,
                &mut pr2,
                MutationSchedule::new().at(3, burst(&g, 1, 24)),
            )
            .unwrap();
        assert_eq!(engine.telemetry().counter(keys::WAL_REPLAYED), 1);
        assert_eq!(pr2.ranks(), base_pr.ranks());
        assert_eq!(report.elapsed, base.elapsed);
        assert_eq!(report.sweeps, base.sweeps);
        assert_eq!(report.edges_traversed, base.edges_traversed);
        assert_eq!(
            crate::sweep::ckpt::store_fingerprint(&fresh),
            crate::sweep::ckpt::store_fingerprint(&base_store),
            "recovered store must be byte-equivalent to the uncrashed one"
        );
        std::fs::remove_dir_all(ck_dir.parent().unwrap()).ok();
    }

    #[test]
    fn scrub_detects_rot_without_disturbing_the_run() {
        // A scrub pass verifies the at-rest copies and repairs in place:
        // the simulated numbers and the program's answer are identical to
        // the same run without scrubbing, while the scrub.* counters show
        // the rot that was caught. Deterministic at any host_threads.
        let store = small_store();
        let mut quiet_pr = PageRank::new(store.num_vertices(), 6);
        let quiet = Gts::new(GtsConfig::default())
            .run(&store, &mut quiet_pr)
            .unwrap();
        let run = |threads: usize| {
            let cfg = GtsConfig {
                scrub_every: Some(2),
                host_threads: threads,
                faults: Some(FaultConfig {
                    bit_rot_ppm: 300_000,
                    ..FaultConfig::quiet(0xB17)
                }),
                ..GtsConfig::default()
            };
            let engine = Gts::new(cfg);
            let mut pr = PageRank::new(store.num_vertices(), 6);
            let report = engine.run(&store, &mut pr).unwrap();
            let tel = engine.telemetry();
            (
                pr.ranks().to_vec(),
                report.elapsed,
                tel.counter(keys::SCRUB_PAGES),
                tel.counter(keys::SCRUB_ERRORS),
                tel.counter(keys::SCRUB_REPAIRED),
            )
        };
        let serial = run(1);
        assert_eq!(serial.0, quiet_pr.ranks());
        assert_eq!(serial.1, quiet.elapsed);
        // 6 sweeps at cadence 2 → passes at sweeps 2 and 4 (sweep 0 and
        // the post-final boundary never scrub).
        assert_eq!(serial.2, 2 * store.num_pages());
        assert!(serial.3 > 0, "30% rot rate must be detected");
        assert_eq!(serial.3, serial.4);
        for threads in [2, 4] {
            assert_eq!(run(threads), serial, "scrub differs at {threads} threads");
        }
    }
}
