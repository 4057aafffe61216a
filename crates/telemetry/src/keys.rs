//! Counter-key registry and track-pid allocation.
//!
//! Every counter key is declared once below, with its doc, unit and
//! [`Class`]; one table generates the `pub const` names and [`KEYS`]. A
//! scoped key is a pattern with one `{placeholder}` (`gpu{i}.bytes_h2d`)
//! whose constant is the field alone; [`lookup`] resolves any concrete key,
//! a serve job's `job.<n>.` rendering and a histogram's stats included.

/// Whether a key is under the determinism contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Byte-identical at every `host_threads` value and between an
    /// uncrashed run and its crashed-then-resumed twin.
    Contract,
    /// Outside it: a wall-clock reading, durability bookkeeping that
    /// depends on where a run was cut, or a host-scheduling diagnostic.
    Diagnostic,
}

/// One declared key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Key {
    /// The key, a scope's segment written as `{placeholder}`.
    pub pattern: &'static str,
    /// What one unit of the value is (`ns`, `bytes`, `pages`, `count`, ...).
    pub unit: &'static str,
    /// Inside or outside the determinism contract.
    pub class: Class,
    /// What the key counts.
    pub doc: &'static str,
}

/// `NAME = "key", unit, Class;` under a scope prefix: `NAME` is the key
/// without its scope, [`KEYS`] holds the whole pattern.
macro_rules! keys {
    ($($scope:literal {
        $($(#[doc = $doc:literal])+ $name:ident = $key:literal, $unit:ident, $class:ident;)+
    })+) => {
        $($($(#[doc = $doc])+ pub const $name: &str = $key;)+)+

        /// Every declared key, in declaration order.
        pub const KEYS: &[Key] = &[$($(Key {
            pattern: concat!($scope, $key),
            unit: stringify!($unit),
            class: Class::$class,
            doc: concat!($($doc),+),
        },)+)+];
    };
}

keys! {
    "" {
        /// Simulated makespan of the run (set once at run end).
        RUN_ELAPSED_NS = "run.elapsed_ns", ns, Contract;
        /// Sweeps (BFS levels, PageRank iterations, supersteps) executed.
        RUN_SWEEPS = "run.sweeps", count, Contract;
        /// GPUs that participated in the run (count of `gpu{i}.*` scopes).
        RUN_GPUS = "run.gpus", count, Contract;
        /// Topology pages copied host→device (equals `cache.misses` for GTS).
        PAGES_STREAMED = "pages.streamed", pages, Contract;
        /// Device page-cache hits across all GPUs.
        CACHE_HITS = "cache.hits", pages, Contract;
        /// Device page-cache misses across all GPUs.
        CACHE_MISSES = "cache.misses", pages, Contract;
        /// Host MMBuf hits.
        MMBUF_HITS = "mmbuf.hits", pages, Contract;
        /// Host MMBuf misses.
        MMBUF_MISSES = "mmbuf.misses", pages, Contract;
        /// Pages evicted from the MMBuf ring.
        MMBUF_EVICTIONS = "mmbuf.evictions", pages, Contract;
        /// Edges processed across all sweeps (the MTEPS numerator).
        EDGES_TRAVERSED = "edges.traversed", edges, Contract;
        /// Kernel launches across all GPUs.
        KERNEL_LAUNCHES = "kernel.launches", count, Contract;
        /// Stream operations whose start was delayed past readiness by a
        /// busy copy/compute engine (pipeline friction; Fig. 10's enemy).
        STREAM_STALLS = "stream.stalls", count, Contract;
        /// Bytes fetched from the storage array (SSD/HDD streaming).
        IO_BYTES_READ = "io.bytes_read", bytes, Contract;
        /// Injected transient device read errors (each a full read + backoff).
        IO_READ_ERRORS = "io.read_errors", count, Contract;
        /// Fetched pages whose trailer checksum failed (torn or corrupt).
        IO_CHECKSUM_MISMATCHES = "io.checksum_mismatches", pages, Contract;
        /// Paid re-fetch attempts issued after a failed read.
        IO_RETRIES = "io.retries", count, Contract;
        /// Drives quarantined after repeated consecutive failures.
        IO_DRIVES_QUARANTINED = "io.drives_quarantined", count, Contract;
        /// Typed degradation events (strategy step-downs) of the engine.
        DEGRADE_EVENTS = "degrade.events", count, Contract;
        /// Execution strategy in effect when the run ended, after any OOM
        /// step-downs: 1 = Performance, 2 = Scalability, 0 = not recorded.
        RUN_FINAL_STRATEGY = "run.final_strategy", code, Contract;
        /// Streams per GPU in effect when the run ended.
        RUN_FINAL_STREAMS = "run.final_streams", count, Contract;
        /// Whether the device page cache was still enabled at run end.
        RUN_CACHE_ENABLED = "run.cache_enabled", flag, Contract;
        /// Bytes written to checkpoint snapshots.
        CKPT_BYTES = "ckpt.bytes", bytes, Diagnostic;
        /// Wall-clock time spent encoding and fsyncing snapshots.
        CKPT_WRITE_NS = "ckpt.write_ns", ns, Diagnostic;
        /// Torn or unreadable manifest entries a resume skipped.
        CKPT_MANIFEST_SKIPPED = "ckpt.manifest.skipped", count, Diagnostic;
        /// Mutation batches sealed into the write-ahead log (a resumed run
        /// re-logs sealed ones as 0-byte idempotent appends).
        WAL_APPENDS = "wal.appends", count, Diagnostic;
        /// Bytes appended to the write-ahead log.
        WAL_BYTES = "wal.bytes", bytes, Diagnostic;
        /// WAL records replayed onto the store by crash recovery.
        WAL_REPLAYED = "wal.replayed", count, Diagnostic;
        /// Pages walked by background scrub passes.
        SCRUB_PAGES = "scrub.pages", pages, Contract;
        /// At-rest corruptions (trailer checksum mismatches) scrub found.
        SCRUB_ERRORS = "scrub.errors", pages, Contract;
        /// Corruptions scrub repaired from the authoritative copy.
        SCRUB_REPAIRED = "scrub.repaired", pages, Contract;
        /// Wall-clock time in phase A (kernels), with `measure_host_phases`.
        HOST_PHASE_A_NS = "host.phase_a_ns", ns, Diagnostic;
        /// Wall-clock time in phase B (accounting), as `host.phase_a_ns`.
        HOST_PHASE_B_NS = "host.phase_b_ns", ns, Diagnostic;
        /// Store pages built from pending mutations while the run read them
        /// (with the host phases; which job builds one is host scheduling).
        STORAGE_PAGES_BUILT = "storage.pages_built", pages, Diagnostic;
        /// Mutation batches applied at sweep boundaries.
        MUT_BATCHES = "mut.batches", count, Contract;
        /// Edges inserted by applied mutation batches.
        MUT_INSERTED = "mut.inserted", edges, Contract;
        /// Edges deleted by applied mutation batches.
        MUT_DELETED = "mut.deleted", edges, Contract;
        /// Existing pages rewritten in place by mutation batches.
        MUT_PAGES_REWRITTEN = "mut.pages_rewritten", pages, Contract;
        /// Delta/overflow pages allocated by mutation batches.
        MUT_DELTA_PAGES = "mut.delta_pages", pages, Contract;
        /// Stale cached pages dropped from GPU page caches after mutations.
        MUT_CACHE_INVALIDATIONS = "mut.cache_invalidations", pages, Contract;
        /// The store's epoch after the last applied batch (set, not added).
        MUT_EPOCH = "mut.epoch", epoch, Contract;
        /// Bytes shipped over the simulated cluster network (baselines).
        NETWORK_BYTES = "net.bytes", bytes, Contract;
        /// Peak working-set bytes (max-merged; CPU/GPU baselines).
        MEMORY_PEAK = "mem.peak", bytes, Contract;
        /// Job attempts the service admitted and executed.
        SERVE_JOBS_ADMITTED = "serve.jobs.admitted", count, Contract;
        /// Jobs that completed.
        SERVE_JOBS_COMPLETED = "serve.jobs.completed", count, Contract;
        /// Jobs whose failure was final at once (mutating, or no retries).
        SERVE_JOBS_FAILED = "serve.jobs.failed", count, Contract;
        /// Jobs in the workload.
        SERVE_JOBS_TOTAL = "serve.jobs.total", count, Contract;
        /// Epoch bumps: completed mutating jobs.
        SERVE_EPOCHS = "serve.epochs", count, Contract;
        /// Simulated time until the last job settled.
        SERVE_MAKESPAN_NS = "serve.makespan_ns", ns, Contract;
        /// Service slots the jobs were multiplexed over.
        SERVE_SLOTS = "serve.slots", count, Contract;
        /// Service-level re-admissions of failed jobs (each backoff retry).
        SERVE_RETRY_ATTEMPTS = "serve.retry.attempts", count, Contract;
        /// Jobs that completed after at least one service-level retry.
        SERVE_RETRY_RECOVERED = "serve.retry.recovered", count, Contract;
        /// Jobs quarantined as poison after exhausting `retry_max` retries.
        SERVE_QUARANTINE_JOBS = "serve.quarantine.jobs", count, Contract;
        /// Execution attempts consumed by jobs that ended quarantined.
        SERVE_QUARANTINE_ATTEMPTS = "serve.quarantine.attempts", count, Contract;
        /// Per-tenant circuit-breaker trips (K consecutive failures).
        SERVE_BREAKER_TRIPS = "serve.breaker.trips", count, Contract;
        /// Arrivals dropped because the shared queue was full.
        SERVE_DROP_QUEUE_FULL = "serve.drop.queue_full", count, Contract;
        /// Arrivals dropped because their tenant's queue share was full.
        SERVE_DROP_REJECTED = "serve.drop.rejected", count, Contract;
        /// Arrivals dropped because their projected wait passed the deadline.
        SERVE_DROP_DEADLINE = "serve.drop.deadline", count, Contract;
        /// Arrivals dropped because their tenant's breaker was open.
        SERVE_DROP_BREAKER = "serve.drop.breaker", count, Contract;
        /// Arrivals dropped by load-aware shedding.
        SERVE_DROP_SHED = "serve.drop.shed", count, Contract;
        /// Arrivals dropped for any other typed reason.
        SERVE_DROP_OTHER = "serve.drop.other", count, Contract;
        /// Arrivals shed by load-aware admission.
        SERVE_SHED_TOTAL = "serve.shed.total", count, Contract;
        /// Histogram of the admission pressure each shed arrival saw.
        SERVE_SHED_PRESSURE = "serve.shed.pressure", pct, Contract;
        /// Arrivals of one class (algorithm) shed by load-aware admission.
        SERVE_SHED = "serve.shed.{class}", count, Contract;
        /// Histogram of completed jobs' latency, per algorithm and `all`.
        SERVE_LAT = "serve.lat.{alg}", ns, Contract;
        /// Records the service journal holds (settled executions).
        SERVE_JOURNAL_RECORDS = "serve.journal.records", count, Diagnostic;
        /// Journal frames appended and fsynced (one per step that settled).
        SERVE_JOURNAL_FLUSHES = "serve.journal.flushes", count, Diagnostic;
        /// Bytes appended to the service journal.
        SERVE_JOURNAL_BYTES = "serve.journal.bytes", bytes, Diagnostic;
        /// Executions a resumed service served from its journal.
        SERVE_RESUME_CACHED = "serve.resume.cached", count, Diagnostic;
        /// Journaled epoch bumps a resumed service re-derived from the WAL.
        SERVE_WAL_REPLAYED = "serve.wal.replayed", count, Diagnostic;
        /// Read attempts that took a copy of an identical attempt's run in
        /// their wave instead of running (a resume shares fewer).
        SERVE_RUNS_SHARED = "serve.runs.shared", count, Diagnostic;
    }
    "gpu{i}." {
        /// Per-GPU field: bytes copied host→device.
        GPU_BYTES_H2D = "bytes_h2d", bytes, Contract;
        /// Per-GPU field: bytes copied device→host.
        GPU_BYTES_D2H = "bytes_d2h", bytes, Contract;
        /// Per-GPU field: bytes copied peer-to-peer.
        GPU_BYTES_P2P = "bytes_p2p", bytes, Contract;
        /// Per-GPU field: accumulated kernel service time.
        GPU_KERNEL_TIME_NS = "kernel_time_ns", ns, Contract;
        /// Per-GPU field: accumulated transfer service time.
        GPU_TRANSFER_TIME_NS = "transfer_time_ns", ns, Contract;
        /// Per-GPU field: kernels launched.
        GPU_KERNELS = "kernels", count, Contract;
        /// Per-GPU field: launches whose overhead queue-ahead hid.
        GPU_HIDDEN_LAUNCHES = "hidden_launches", count, Contract;
        /// Per-GPU field: page-cache hits on this GPU.
        GPU_CACHE_HITS = "cache_hits", pages, Contract;
        /// Per-GPU field: page-cache misses on this GPU.
        GPU_CACHE_MISSES = "cache_misses", pages, Contract;
        /// Per-GPU field: page-cache capacity.
        GPU_CACHE_CAPACITY_PAGES = "cache_capacity_pages", pages, Contract;
        /// Per-GPU field: injected transient copy faults absorbed by retry.
        GPU_COPY_FAULTS = "copy_faults", count, Contract;
        /// Per-GPU field: injected kernel-launch faults absorbed by retry.
        GPU_LAUNCH_FAULTS = "launch_faults", count, Contract;
    }
    "sweep{j}." {
        /// Per-sweep field: pages visited.
        SWEEP_PAGES = "pages", pages, Contract;
        /// Per-sweep field: cache hits.
        SWEEP_CACHE_HITS = "cache_hits", pages, Contract;
        /// Per-sweep field: active vertices.
        SWEEP_ACTIVE_VERTICES = "active_vertices", count, Contract;
        /// Per-sweep field: active edges.
        SWEEP_ACTIVE_EDGES = "active_edges", edges, Contract;
        /// Per-sweep field: simulated sweep duration.
        SWEEP_ELAPSED_NS = "elapsed_ns", ns, Contract;
    }
    "tenant.{tag}." {
        /// Per-tenant field: page-cache hits of the tenant's jobs.
        TENANT_CACHE_HITS = "cache.hits", pages, Contract;
        /// Per-tenant field: page-cache misses of the tenant's jobs.
        TENANT_CACHE_MISSES = "cache.misses", pages, Contract;
        /// Per-tenant field: pages evicted under the tenant's probes.
        TENANT_CACHE_EVICTIONS = "cache.evictions", pages, Contract;
        /// Per-tenant field: topology bytes streamed for its misses.
        TENANT_CACHE_BYTES_STREAMED = "cache.bytes_streamed", bytes, Contract;
    }
}

/// The `<histogram>.<stat>` counters a histogram renders into the registry.
pub const HIST_STATS: [&str; 4] = ["count", "p50", "p95", "p99"];

/// Key for per-GPU field `field` of GPU `i` (e.g. `gpu0.bytes_h2d`).
pub fn gpu(i: u32, field: &str) -> String {
    format!("gpu{i}.{field}")
}

/// Key for per-tenant field `field` of tenant `tag` (e.g.
/// `tenant.alice.cache.hits`). Written only by jobs carrying a tenant
/// tag, so solo runs emit no tenant keys at all.
pub fn tenant(tag: &str, field: &str) -> String {
    format!("tenant.{tag}.{field}")
}

/// Key for per-sweep field `field` of sweep `j` (e.g. `sweep0.pages`).
pub fn sweep(j: u32, field: &str) -> String {
    format!("sweep{j}.{field}")
}

/// `pattern` with its `{placeholder}` replaced by `value`
/// (`scoped(SERVE_SHED, "bfs")` is `serve.shed.bfs`).
pub fn scoped(pattern: &str, value: &str) -> String {
    match pattern.split_once('{').zip(pattern.split_once('}')) {
        Some(((head, _), (_, tail))) => format!("{head}{value}{tail}"),
        None => pattern.to_owned(),
    }
}

/// Whether concrete `key` is an instance of `pattern`: a placeholder
/// stands for one non-empty segment without a dot.
fn matches(pattern: &str, key: &str) -> bool {
    let Some((head, tail)) = pattern.split_once('{') else {
        return pattern == key;
    };
    let tail = tail.split_once('}').map_or(tail, |(_, t)| t);
    key.strip_prefix(head).is_some_and(|rest| {
        let seg = rest.find('.').unwrap_or(rest.len());
        seg > 0 && matches(tail, &rest[seg..])
    })
}

/// The declaration `key` is an instance of: directly, as a serve job's
/// `job.<n>.<key>` rendering, or as a histogram's `<key>.<stat>` summary.
/// `None` for an undeclared key.
pub fn lookup(key: &str) -> Option<&'static Key> {
    let job = key.strip_prefix("job.").and_then(|k| k.split_once('.'));
    let hist = key.rsplit_once('.').filter(|(_, s)| HIST_STATS.contains(s));
    KEYS.iter()
        .find(|k| matches(k.pattern, key))
        .or_else(|| lookup(job.filter(|(n, _)| n.parse::<u64>().is_ok())?.1))
        .or_else(|| lookup(hist?.0))
}

/// The class of `key`'s declaration; `None` for an undeclared key.
pub fn class(key: &str) -> Option<Class> {
    lookup(key).map(|k| k.class)
}

/// Track-pid allocation shared by all components.
pub mod pid {
    /// The engine's own track (run/sweep spans live here).
    pub const ENGINE: u32 = 900;
    /// The storage array (one tid per drive).
    pub const STORAGE: u32 = 901;

    /// GPU `i`'s process id.
    pub fn gpu(i: u32) -> u32 {
        i
    }
}

/// Track-tid allocation within a GPU process.
pub mod tid {
    /// H2D copy engine lane.
    pub const H2D: u32 = 0;
    /// D2H copy engine lane.
    pub const D2H: u32 = 1;
    /// Peer-to-peer copy lane.
    pub const P2P: u32 = 2;
    /// First stream lane; stream `s` is `STREAM0 + s`.
    pub const STREAM0: u32 = 3;

    /// Stream `s`'s thread id.
    pub fn stream(s: usize) -> u32 {
        STREAM0 + s as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_scope_resolves_to_its_fields_declaration() {
        for (key, want) in [
            (RUN_ELAPSED_NS, RUN_ELAPSED_NS),
            ("gpu3.bytes_h2d", "gpu{i}.bytes_h2d"),
            ("sweep12.elapsed_ns", "sweep{j}.elapsed_ns"),
            (
                "tenant.alpha.cache.bytes_streamed",
                "tenant.{tag}.cache.bytes_streamed",
            ),
            ("serve.lat.bfs.p95", SERVE_LAT),
            ("serve.lat.all.count", SERVE_LAT),
            ("serve.shed.pressure.p50", SERVE_SHED_PRESSURE),
            ("serve.shed.total", SERVE_SHED_TOTAL),
            ("serve.shed.kcore", SERVE_SHED),
            ("job.3.gpu0.kernels", "gpu{i}.kernels"),
            ("job.3.wal.appends", WAL_APPENDS),
        ] {
            assert_eq!(lookup(key).map(|k| k.pattern), Some(want), "{key}");
        }
        for key in [
            "gpu.bytes_h2d",
            "gpux.nope",
            "serve.lat.bfs.p42",
            "job.x.cache.hits",
            "tenant..cache.hits",
        ] {
            assert_eq!(lookup(key), None, "{key}");
        }
        assert_eq!(scoped(SERVE_SHED, "bfs"), "serve.shed.bfs");
        assert_eq!(scoped(SERVE_LAT, "all"), "serve.lat.all");
    }

    #[test]
    fn diagnostic_is_exactly_the_wall_side_and_durability_bookkeeping() {
        let diagnostic: Vec<&str> = KEYS
            .iter()
            .filter(|k| k.class == Class::Diagnostic)
            .map(|k| k.pattern)
            .collect();
        assert_eq!(
            diagnostic,
            [
                CKPT_BYTES,
                CKPT_WRITE_NS,
                CKPT_MANIFEST_SKIPPED,
                WAL_APPENDS,
                WAL_BYTES,
                WAL_REPLAYED,
                HOST_PHASE_A_NS,
                HOST_PHASE_B_NS,
                STORAGE_PAGES_BUILT,
                SERVE_JOURNAL_RECORDS,
                SERVE_JOURNAL_FLUSHES,
                SERVE_JOURNAL_BYTES,
                SERVE_RESUME_CACHED,
                SERVE_WAL_REPLAYED,
                SERVE_RUNS_SHARED,
            ]
        );
        // A serve job's WAL bookkeeping is as diagnostic as a solo run's.
        assert_eq!(class("job.3.wal.appends"), Some(Class::Diagnostic));
        for key in [
            RUN_ELAPSED_NS,
            SCRUB_PAGES,
            MUT_EPOCH,
            SERVE_RETRY_ATTEMPTS,
            "tenant.a.cache.hits",
        ] {
            assert_eq!(class(key), Some(Class::Contract), "{key}");
        }
    }

    #[test]
    fn every_key_is_declared_once_with_a_doc() {
        for (i, k) in KEYS.iter().enumerate() {
            assert!(!k.doc.trim().is_empty(), "{}", k.pattern);
            assert!(
                KEYS[..i].iter().all(|e| e.pattern != k.pattern),
                "{} declared twice",
                k.pattern
            );
        }
    }
}
