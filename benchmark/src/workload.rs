//! What the four workloads share: run parameters, the sample types the
//! metrics are computed from, and the trait the harness drives.

use crate::env::DurableDir;
use crate::trace::Tracer;
use gts_core::GtsConfig;
use gts_graph::{Csr, EdgeList};
use gts_storage::GraphStore;
use gts_telemetry::keys;
use std::collections::BTreeMap;

/// `--seconds` the repetition counts below are calibrated for: at this
/// value one measured pass takes about ten seconds on the 2-core
/// reference box. Counts scale linearly with `--seconds` and are never
/// decided by a clock, so two commits always do identical work.
pub const CALIBRATED_SECONDS: f64 = 10.0;

/// Parameters of one run of one workload.
#[derive(Debug, Clone)]
pub struct Params {
    pub seed: u64,
    pub seconds: u32,
    /// `--smoke`: small scales, a tenth of the repetitions.
    pub smoke: bool,
    /// Cores available to this process.
    pub nproc: usize,
}

impl Params {
    /// The multi-thread setting: what a user gets by default, capped at
    /// two so results from larger machines stay comparable.
    pub fn mt(&self) -> usize {
        self.nproc.min(2)
    }

    /// Both thread settings, serial first.
    pub fn thread_settings(&self) -> [usize; 2] {
        [1, self.mt()]
    }

    /// Repetitions for a pass doing `share` of the calibrated count.
    pub fn reps(&self, base: usize, share: f64) -> usize {
        let smoke = if self.smoke { 0.1 } else { 1.0 };
        let n = base as f64 * f64::from(self.seconds) / CALIBRATED_SECONDS * share * smoke;
        (n.round() as usize).max(1)
    }

    /// RMAT scale: the workload's own, or the smoke one.
    pub fn scale(&self, full: u32, smoke: u32) -> u32 {
        if self.smoke {
            smoke
        } else {
            full
        }
    }

    /// An engine configuration may not ask for more host threads than
    /// there are cores: the runner refuses instead of oversubscribing.
    pub fn checked(&self, cfg: GtsConfig) -> GtsConfig {
        assert!(
            cfg.host_threads <= self.nproc,
            "refusing host_threads={} on {} core(s)",
            cfg.host_threads,
            self.nproc
        );
        cfg
    }
}

/// The engine counters the per-layer ledger reads ("ctr" metrics), summed
/// over the engine runs of one operation.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub phase_a_ns: u64,
    pub phase_b_ns: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub mmbuf_hits: u64,
    pub mmbuf_misses: u64,
    pub io_bytes: u64,
    pub kernel_ns: u64,
    pub transfer_ns: u64,
    pub stalls: u64,
    pub sim_ns: u64,
    pub edges: u64,
}

impl Counters {
    /// Read one job's counter registry.
    pub fn from_registry(c: &BTreeMap<String, u64>) -> Counters {
        let get = |k: &str| c.get(k).copied().unwrap_or(0);
        let per_gpu = |field: &str| {
            (0..get(keys::RUN_GPUS) as u32)
                .map(|i| get(&keys::gpu(i, field)))
                .sum()
        };
        Counters {
            phase_a_ns: get(keys::HOST_PHASE_A_NS),
            phase_b_ns: get(keys::HOST_PHASE_B_NS),
            cache_hits: get(keys::CACHE_HITS),
            cache_misses: get(keys::CACHE_MISSES),
            mmbuf_hits: get(keys::MMBUF_HITS),
            mmbuf_misses: get(keys::MMBUF_MISSES),
            io_bytes: get(keys::IO_BYTES_READ),
            kernel_ns: per_gpu(keys::GPU_KERNEL_TIME_NS),
            transfer_ns: per_gpu(keys::GPU_TRANSFER_TIME_NS),
            stalls: get(keys::STREAM_STALLS),
            sim_ns: get(keys::RUN_ELAPSED_NS),
            edges: get(keys::EDGES_TRAVERSED),
        }
    }

    pub fn add(&mut self, o: &Counters) {
        self.phase_a_ns += o.phase_a_ns;
        self.phase_b_ns += o.phase_b_ns;
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
        self.mmbuf_hits += o.mmbuf_hits;
        self.mmbuf_misses += o.mmbuf_misses;
        self.io_bytes += o.io_bytes;
        self.kernel_ns += o.kernel_ns;
        self.transfer_ns += o.transfer_ns;
        self.stalls += o.stalls;
        self.sim_ns += o.sim_ns;
        self.edges += o.edges;
    }
}

/// One timed call into the engine (`Gts::run`, `Gts::run_live`, `serve`).
#[derive(Debug, Clone, Copy)]
pub struct EngineOp {
    pub threads: usize,
    pub wall_ns: u64,
    /// Timed work done beside the call that belongs to the same unit of
    /// work (`live_mutations`: the cycle's logged batches).
    pub beside_ns: u64,
    /// Work items the unit completed (edges, edge ops or jobs).
    pub work: f64,
    pub ctr: Counters,
}

impl EngineOp {
    /// An engine call that is its own unit of work, with the counter
    /// registry it recorded into.
    pub fn new(
        threads: usize,
        wall_ns: u64,
        work: f64,
        registry: &BTreeMap<String, u64>,
    ) -> EngineOp {
        EngineOp {
            threads,
            wall_ns,
            beside_ns: 0,
            work,
            ctr: Counters::from_registry(registry),
        }
    }
}

/// Everything one measured pass produced.
#[derive(Debug, Default)]
pub struct Measured {
    /// Operations attempted / failed: a run, batch, recovery or job whose
    /// output fails verification, errors, or is dropped counts as failed.
    pub attempted: u64,
    pub failed: u64,
    /// First few failures, for the person reading stderr.
    pub failures: Vec<String>,
    pub engine_ops: Vec<EngineOp>,
    /// Wall milliseconds of the workload's primary request.
    pub op_ms: Vec<f64>,
    /// Wall milliseconds to reopen the workload's persisted state.
    pub restart_ms: Vec<f64>,
    /// Simulated latency of each request, microseconds.
    pub sim_lat_us: Vec<f64>,
    /// Simulated time of the measured engine work, nanoseconds.
    pub sim_elapsed_ns: u64,
    /// `num_pages × page_size / num_edges` of the store at the end.
    pub store_bytes_per_edge: f64,
}

impl Measured {
    /// Count one operation; `Err` is a failure with its reason.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(why);
            }
        }
    }

    pub fn set_store_footprint(&mut self, store: &GraphStore) {
        self.store_bytes_per_edge = store.num_pages() as f64 * store.cfg().page_size as f64
            / store.num_edges().max(1) as f64;
    }
}

/// Wall times of the setup stages, for the `graph.*` / `storage.builder.*`
/// ledger entries.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub generate_ns: u64,
    pub csr_ns: u64,
    pub build_ns: u64,
    pub edges: u64,
}

/// One workload. `setup` is everything a user pays before the first
/// request (timed by the harness, several times a run); `measure` is one
/// pass of the fixed operation list and leaves the workload as it found
/// it, so passes are comparable.
pub trait Workload: Sized {
    const NAME: &'static str;
    fn setup(p: &Params, tr: &mut Tracer) -> Self;
    fn warm_up(&mut self, p: &Params, dirs: &mut DurableDir);
    fn measure(
        &mut self,
        p: &Params,
        share: f64,
        dirs: &mut DurableDir,
        tr: &mut Tracer,
    ) -> Measured;
    /// The generated graph (the store-bound layer probes run on it).
    fn graph(&self) -> &Graph;
    /// The workload's engine configuration at a thread setting, with or
    /// without the wall-clock phase counters.
    fn engine_cfg(threads: usize, phases: bool) -> GtsConfig;
    /// FNV-1a digests of the generated inputs besides the edge list.
    fn digests(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }
}

/// Time `f` in nanoseconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let t0 = std::time::Instant::now();
    let r = f();
    (r, t0.elapsed().as_nanos() as u64)
}

/// A generated graph in the three forms the workloads need.
pub struct Graph {
    pub edges: EdgeList,
    pub csr: Csr,
    pub store: GraphStore,
    pub times: SetupTimes,
}

/// Generate RMAT `scale` from `seed`, index it (the reference
/// implementations read the CSR) and build the slotted-page store.
pub fn build_graph(scale: u32, page_size: usize, seed: u64, tr: &mut Tracer) -> Graph {
    use gts_storage::{build_graph_store, PageFormatConfig, PhysicalIdConfig};
    let (edges, generate_ns) = timed(|| {
        tr.span("graph:Rmat::generate", 0, || {
            crate::gen::rmat_graph(scale, seed)
        })
    });
    let (csr, csr_ns) = timed(|| {
        tr.span("graph:Csr::from_edge_list", 0, || {
            Csr::from_edge_list(&edges)
        })
    });
    let fmt = PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, page_size);
    let (store, build_ns) = timed(|| {
        tr.span("storage.builder:build_graph_store", 0, || {
            build_graph_store(&edges, fmt).expect("RMAT graph fits the (2,2) page format")
        })
    });
    let times = SetupTimes {
        generate_ns,
        csr_ns,
        build_ns,
        edges: edges.num_edges() as u64,
    };
    Graph {
        edges,
        csr,
        store,
        times,
    }
}

/// Restart of the static workloads: a CLI user reloads the saved store
/// file on every run. The file is saved once; reloads are spread between
/// the measured runs, so a slow spell of the machine hits few of them.
pub struct StoreFile {
    path: std::path::PathBuf,
    saved: Result<(), String>,
    /// A reload is due after every `every`-th operation.
    every: usize,
}

impl StoreFile {
    /// Save `store`, to be reloaded `reloads` times over `ops` operations.
    pub fn save(
        store: &GraphStore,
        (reloads, ops): (usize, usize),
        dirs: &mut DurableDir,
        tr: &mut Tracer,
    ) -> StoreFile {
        let path = dirs.fresh("store").with_extension("gts");
        // Flushed before any load is timed, so loads do not race the
        // kernel's write-back of the file they read.
        let saved = tr
            .span("storage.file:save_store", 0, || {
                gts_storage::save_store(store, &path)
            })
            .map_err(|e| format!("save_store: {e}"))
            .and_then(|()| {
                std::fs::File::open(&path)
                    .and_then(|f| f.sync_all())
                    .map_err(|e| format!("save_store: {e}"))
            });
        StoreFile {
            path,
            saved,
            every: (ops / reloads.max(1)).max(1),
        }
    }

    /// After operation `index` (0-based): if a reload is due, time one
    /// `load_store` and check the loaded store page for page.
    pub fn reload_if_due(
        &self,
        index: usize,
        store: &GraphStore,
        tr: &mut Tracer,
        m: &mut Measured,
    ) {
        if !(index + 1).is_multiple_of(self.every) {
            return;
        }
        let (loaded, ns) = timed(|| {
            tr.span("storage.file:load_store", index as u64, || {
                gts_storage::load_store(&self.path)
            })
        });
        m.restart_ms.push(ns as f64 / 1e6);
        m.check(match (&self.saved, loaded) {
            (Err(e), _) => Err(e.clone()),
            (_, Err(e)) => Err(format!("load_store: {e}")),
            (_, Ok(loaded)) => (loaded.pages() == store.pages()
                && loaded.num_edges() == store.num_edges())
            .then_some(())
            .ok_or_else(|| "reloaded store differs from the saved one".to_string()),
        });
    }
}

impl Drop for StoreFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}
