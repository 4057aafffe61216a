//! Counter-key glossary and track-pid allocation.
//!
//! Every quantity an engine reports flows through the counter registry
//! under one of these keys; [`crate::RunReport::from_telemetry`] reads them
//! back. Global keys are plain constants; per-GPU and per-sweep keys are
//! built by [`gpu`] and [`sweep`] from a field suffix.
//!
//! | key | meaning |
//! |---|---|
//! | `run.elapsed_ns` | simulated makespan of the run |
//! | `run.sweeps` | sweeps / supersteps / iterations executed |
//! | `run.gpus` | GPUs that participated (count of `gpu{i}.*` scopes) |
//! | `pages.streamed` | topology pages copied host→device (cache misses) |
//! | `cache.hits` / `cache.misses` | device page-cache probe outcomes |
//! | `mmbuf.hits` / `mmbuf.misses` | host main-memory-buffer probe outcomes |
//! | `mmbuf.evictions` | pages evicted from the MMBuf ring |
//! | `edges.traversed` | edges processed across all sweeps |
//! | `kernel.launches` | kernel launches across all GPUs |
//! | `stream.stalls` | stream operations delayed by a busy engine |
//! | `io.bytes_read` | bytes fetched from the storage array |
//! | `io.read_errors` | injected transient device read errors |
//! | `io.checksum_mismatches` | fetched pages failing the trailer checksum |
//! | `io.retries` | paid re-fetch attempts after a failed read |
//! | `io.drives_quarantined` | drives taken offline after repeated failures |
//! | `degrade.events` | recorded step-downs of the execution strategy |
//! | `mut.*` | mutation batches applied at sweep boundaries, see `MUT_*` |
//! | `run.final_strategy` | strategy in effect at run end (1 = P, 2 = S) |
//! | `run.final_streams` | streams per GPU in effect at run end |
//! | `run.cache_enabled` | device page cache on (1) or off (0) at run end |
//! | `ckpt.bytes` | bytes written to checkpoint snapshots (wall-side) |
//! | `ckpt.write_ns` | wall-clock ns spent writing checkpoints (wall-side) |
//! | `host.phase_a_ns` | wall-clock ns in host phase A kernels (opt-in, wall-side) |
//! | `host.phase_b_ns` | wall-clock ns in host phase B accounting (opt-in, wall-side) |
//! | `storage.pages_built` | store pages built from pending mutations during the run (opt-in, diagnostic) |
//! | `net.bytes` | bytes shipped over the cluster network (baselines) |
//! | `mem.peak` | peak working-set bytes (max-merged, baselines) |
//! | `gpu{i}.bytes_h2d` … | per-GPU fields, see the `GPU_*` constants |
//! | `sweep{j}.pages` … | per-sweep fields, see the `SWEEP_*` constants |
//! | `serve.retry.*` / `serve.quarantine.*` / `serve.breaker.*` / `serve.shed.*` | serve-mode resilience counters (sim-side, deterministic) |
//! | `serve.journal.*` / `serve.resume.*` | service-journal bookkeeping (outside the resume-diff contract, like `ckpt.*`) |
//! | `wal.*` | mutation write-ahead-log bookkeeping (outside the resume-diff contract, like `ckpt.*`) |
//! | `scrub.*` | background scrub pass results (sim-side, deterministic) |
//! | `ckpt.manifest.skipped` | torn/unreadable manifest entries skipped on resume (wall-side) |

/// Simulated makespan of the run, nanoseconds (set once at run end).
pub const RUN_ELAPSED_NS: &str = "run.elapsed_ns";
/// Sweeps (BFS levels, PageRank iterations, supersteps) executed.
pub const RUN_SWEEPS: &str = "run.sweeps";
/// Number of GPUs that participated in the run.
pub const RUN_GPUS: &str = "run.gpus";
/// Topology pages copied host→device (equals `cache.misses` for GTS).
pub const PAGES_STREAMED: &str = "pages.streamed";
/// Device page-cache hits across all GPUs.
pub const CACHE_HITS: &str = "cache.hits";
/// Device page-cache misses across all GPUs.
pub const CACHE_MISSES: &str = "cache.misses";
/// Host MMBuf hits.
pub const MMBUF_HITS: &str = "mmbuf.hits";
/// Host MMBuf misses.
pub const MMBUF_MISSES: &str = "mmbuf.misses";
/// Pages evicted from the MMBuf ring.
pub const MMBUF_EVICTIONS: &str = "mmbuf.evictions";
/// Edges processed across all sweeps.
pub const EDGES_TRAVERSED: &str = "edges.traversed";
/// Kernel launches across all GPUs.
pub const KERNEL_LAUNCHES: &str = "kernel.launches";
/// Stream operations whose start was delayed past readiness by a busy
/// copy/compute engine (pipeline friction; Fig. 10's enemy).
pub const STREAM_STALLS: &str = "stream.stalls";
/// Bytes fetched from the storage array (SSD/HDD streaming).
pub const IO_BYTES_READ: &str = "io.bytes_read";
/// Injected transient device read errors (each costs a full read + backoff).
pub const IO_READ_ERRORS: &str = "io.read_errors";
/// Fetched pages whose trailer checksum failed (torn or corrupt reads).
pub const IO_CHECKSUM_MISMATCHES: &str = "io.checksum_mismatches";
/// Paid re-fetch attempts issued after a failed read.
pub const IO_RETRIES: &str = "io.retries";
/// Drives quarantined after repeated consecutive failures.
pub const IO_DRIVES_QUARANTINED: &str = "io.drives_quarantined";
/// Typed degradation events (strategy step-downs) recorded by the engine.
pub const DEGRADE_EVENTS: &str = "degrade.events";
/// Execution strategy in effect when the run ended, after any OOM
/// step-downs: 1 = Performance, 2 = Scalability, 0 = not recorded.
pub const RUN_FINAL_STRATEGY: &str = "run.final_strategy";
/// Streams per GPU in effect when the run ended, after any step-downs.
pub const RUN_FINAL_STREAMS: &str = "run.final_streams";
/// Whether the device page cache was enabled at run end (1) or stepped
/// down to off (0).
pub const RUN_CACHE_ENABLED: &str = "run.cache_enabled";
/// Bytes written to checkpoint snapshots. Wall-side bookkeeping: this key
/// (like `ckpt.write_ns`) is OUTSIDE the determinism contract — an
/// uncrashed run and a crashed-plus-resumed run write different numbers
/// of snapshots — so determinism comparisons must filter `ckpt.*` keys.
pub const CKPT_BYTES: &str = "ckpt.bytes";
/// Wall-clock nanoseconds spent encoding + fsyncing checkpoint snapshots
/// (real time, not simulated; outside the determinism contract).
pub const CKPT_WRITE_NS: &str = "ckpt.write_ns";
/// Torn or unreadable manifest entries the checkpoint store skipped while
/// resolving the latest resumable snapshot. Wall-side (like `ckpt.bytes`):
/// only a crashed-then-resumed run ever skips entries, so the key sits
/// OUTSIDE the resume-diff determinism contract.
pub const CKPT_MANIFEST_SKIPPED: &str = "ckpt.manifest.skipped";
/// Mutation-batch records sealed into the write-ahead log this run.
/// `wal.*` keys count I/O the crashed and resumed halves of a run split
/// differently (a resumed run re-logs already-sealed batches as 0-byte
/// idempotent appends), so — like `ckpt.*` — they sit OUTSIDE the
/// resume-diff determinism contract and CI filters them.
pub const WAL_APPENDS: &str = "wal.appends";
/// Bytes appended to the write-ahead log (same caveats as `wal.appends`).
pub const WAL_BYTES: &str = "wal.bytes";
/// WAL records replayed onto the store during crash recovery, before the
/// snapshot was restored (same caveats as `wal.appends`).
pub const WAL_REPLAYED: &str = "wal.replayed";
/// Pages walked by background scrub passes. Scrub runs serially at sweep
/// boundaries with draws on per-page fault streams, so `scrub.*` keys are
/// sim-side deterministic at any `host_threads`.
pub const SCRUB_PAGES: &str = "scrub.pages";
/// At-rest corruptions (trailer checksum mismatches) scrub detected.
pub const SCRUB_ERRORS: &str = "scrub.errors";
/// Detected corruptions scrub repaired by rewriting the page from the
/// authoritative in-memory copy.
pub const SCRUB_REPAIRED: &str = "scrub.repaired";
/// Wall-clock nanoseconds the host spent in phase A (functional kernels)
/// across all sweeps. Only written when the engine's
/// `measure_host_phases` flag is on; real time, not simulated, so (like
/// `ckpt.*`) OUTSIDE the determinism contract — determinism comparisons
/// must filter `host.*` keys.
pub const HOST_PHASE_A_NS: &str = "host.phase_a_ns";
/// Wall-clock nanoseconds the host spent in phase B (accounting) across
/// all sweeps (same caveats as [`HOST_PHASE_A_NS`]).
pub const HOST_PHASE_B_NS: &str = "host.phase_b_ns";
/// Store pages built from pending mutations while the run read them
/// (`GraphStore::pages_built`; recorded with the host phases). Outside
/// the contract: which job of several sharing a store builds a page
/// depends on host scheduling, and a resumed run's store has none
/// pending.
pub const STORAGE_PAGES_BUILT: &str = "storage.pages_built";
/// Mutation batches applied at sweep boundaries (live-topology runs).
pub const MUT_BATCHES: &str = "mut.batches";
/// Edges inserted by applied mutation batches.
pub const MUT_INSERTED: &str = "mut.inserted";
/// Edges deleted by applied mutation batches.
pub const MUT_DELETED: &str = "mut.deleted";
/// Existing pages rewritten in place by mutation batches.
pub const MUT_PAGES_REWRITTEN: &str = "mut.pages_rewritten";
/// Delta/overflow pages allocated by mutation batches.
pub const MUT_DELTA_PAGES: &str = "mut.delta_pages";
/// Stale cached pages dropped from GPU page caches after mutations.
pub const MUT_CACHE_INVALIDATIONS: &str = "mut.cache_invalidations";
/// The store's epoch after the last applied mutation batch (set, not
/// added: it mirrors `GraphStore::epoch`).
pub const MUT_EPOCH: &str = "mut.epoch";
/// Bytes shipped over the simulated cluster network (distributed baselines).
pub const NETWORK_BYTES: &str = "net.bytes";
/// Peak working-set bytes (max-merged; CPU/GPU baselines).
pub const MEMORY_PEAK: &str = "mem.peak";

/// Per-GPU field: bytes copied host→device.
pub const GPU_BYTES_H2D: &str = "bytes_h2d";
/// Per-GPU field: bytes copied device→host.
pub const GPU_BYTES_D2H: &str = "bytes_d2h";
/// Per-GPU field: bytes copied peer-to-peer.
pub const GPU_BYTES_P2P: &str = "bytes_p2p";
/// Per-GPU field: accumulated kernel service time, ns.
pub const GPU_KERNEL_TIME_NS: &str = "kernel_time_ns";
/// Per-GPU field: accumulated transfer service time, ns.
pub const GPU_TRANSFER_TIME_NS: &str = "transfer_time_ns";
/// Per-GPU field: kernels launched.
pub const GPU_KERNELS: &str = "kernels";
/// Per-GPU field: launches whose overhead was hidden by queue-ahead.
pub const GPU_HIDDEN_LAUNCHES: &str = "hidden_launches";
/// Per-GPU field: page-cache hits on this GPU.
pub const GPU_CACHE_HITS: &str = "cache_hits";
/// Per-GPU field: page-cache misses on this GPU.
pub const GPU_CACHE_MISSES: &str = "cache_misses";
/// Per-GPU field: page-cache capacity in pages.
pub const GPU_CACHE_CAPACITY_PAGES: &str = "cache_capacity_pages";
/// Per-GPU field: injected transient copy faults absorbed by retry.
pub const GPU_COPY_FAULTS: &str = "copy_faults";
/// Per-GPU field: injected transient kernel-launch faults absorbed by retry.
pub const GPU_LAUNCH_FAULTS: &str = "launch_faults";

/// Per-sweep field: pages visited.
pub const SWEEP_PAGES: &str = "pages";
/// Per-sweep field: cache hits.
pub const SWEEP_CACHE_HITS: &str = "cache_hits";
/// Per-sweep field: active vertices.
pub const SWEEP_ACTIVE_VERTICES: &str = "active_vertices";
/// Per-sweep field: active edges.
pub const SWEEP_ACTIVE_EDGES: &str = "active_edges";
/// Per-sweep field: simulated sweep duration, ns.
pub const SWEEP_ELAPSED_NS: &str = "elapsed_ns";

/// Per-tenant field: page-cache hits attributed to the tenant's jobs.
pub const TENANT_CACHE_HITS: &str = "cache.hits";
/// Per-tenant field: page-cache misses attributed to the tenant's jobs.
pub const TENANT_CACHE_MISSES: &str = "cache.misses";
/// Per-tenant field: pages evicted under the tenant's probes.
pub const TENANT_CACHE_EVICTIONS: &str = "cache.evictions";
/// Per-tenant field: topology bytes streamed for the tenant's misses.
pub const TENANT_CACHE_BYTES_STREAMED: &str = "cache.bytes_streamed";

/// Service-level re-admissions of failed jobs (each backoff retry).
/// Like every `serve.*` key except the journal/resume bookkeeping
/// below, this is pure sim-clock arithmetic: INSIDE the determinism
/// contract at any host thread count.
pub const SERVE_RETRY_ATTEMPTS: &str = "serve.retry.attempts";
/// Jobs that completed after at least one service-level retry.
pub const SERVE_RETRY_RECOVERED: &str = "serve.retry.recovered";
/// Jobs quarantined as poison after exhausting `retry_max` retries.
pub const SERVE_QUARANTINE_JOBS: &str = "serve.quarantine.jobs";
/// Execution attempts consumed by jobs that ended quarantined.
pub const SERVE_QUARANTINE_ATTEMPTS: &str = "serve.quarantine.attempts";
/// Per-tenant circuit-breaker trips (K consecutive failures).
pub const SERVE_BREAKER_TRIPS: &str = "serve.breaker.trips";
/// Arrivals dropped because their tenant's breaker was open.
pub const SERVE_DROP_BREAKER: &str = "serve.drop.breaker";
/// Arrivals shed by load-aware admission (see also the per-class
/// `serve.shed.<class>` keys the scheduler writes).
pub const SERVE_SHED_TOTAL: &str = "serve.shed.total";
/// Records appended to the service journal. Journal keys count I/O the
/// crashed and resumed halves of a run split differently, so (like
/// `ckpt.*`) `serve.journal.*` and `serve.resume.*` sit OUTSIDE the
/// resume-diff determinism contract; CI filters them.
pub const SERVE_JOURNAL_RECORDS: &str = "serve.journal.records";
/// Journal frames appended and fsynced: one per scheduler step that
/// settled at least one new record.
pub const SERVE_JOURNAL_FLUSHES: &str = "serve.journal.flushes";
/// Executions served from the journal on `--resume-serve` instead of
/// being re-run (outside the resume-diff contract, as above).
pub const SERVE_RESUME_CACHED: &str = "serve.resume.cached";
/// Journaled epoch bumps a resumed service re-derived from the mutation
/// WAL's logged bytes instead of re-generating the batch (outside the
/// resume-diff contract, as above).
pub const SERVE_WAL_REPLAYED: &str = "serve.wal.replayed";

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

/// Whether `key` is under the byte-identity contract: equal at every
/// `host_threads` value and between an uncrashed run and its resumed
/// twin. The prefixes outside it are wall-clock readings (`host.`),
/// durability bookkeeping that depends on where a run was interrupted
/// (`ckpt.`, `wal.`, `serve.journal.`, `serve.resume.`, `serve.wal.`) and
/// the page-build diagnostic ([`STORAGE_PAGES_BUILT`]).
pub fn is_contract(key: &str) -> bool {
    const OUTSIDE: [&str; 7] = [
        "host.",
        STORAGE_PAGES_BUILT,
        "ckpt.",
        "wal.",
        "serve.journal.",
        "serve.resume.",
        "serve.wal.",
    ];
    !OUTSIDE.iter().any(|prefix| key.starts_with(prefix))
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
    fn contract_excludes_exactly_the_wall_side_prefixes() {
        for key in [
            HOST_PHASE_A_NS,
            STORAGE_PAGES_BUILT,
            CKPT_BYTES,
            CKPT_MANIFEST_SKIPPED,
            WAL_APPENDS,
            SERVE_JOURNAL_RECORDS,
            SERVE_RESUME_CACHED,
            SERVE_WAL_REPLAYED,
        ] {
            assert!(!is_contract(key), "{key}");
        }
        for key in [
            RUN_ELAPSED_NS,
            SCRUB_PAGES,
            MUT_EPOCH,
            SERVE_RETRY_ATTEMPTS,
            "serve.jobs.total",
            "tenant.a.cache.hits",
            "job.3.wal.appends",
        ] {
            assert!(is_contract(key), "{key}");
        }
    }
}
