//! Subcommand implementations.

use crate::args::Args;
use crate::edgelist;
use std::io::Write as _;

/// Print a line to stdout, exiting quietly (success) when the pipe is
/// closed — `gts run ... | head` must not die with a broken-pipe panic.
/// Checked via `io::ErrorKind`, which is locale-independent (unlike the
/// strerror text a panic message would carry). Any other stdout failure
/// (disk full, closed descriptor) exits with the I/O code, not a panic.
macro_rules! outln {
    ($($arg:tt)*) => {{
        let mut out = std::io::stdout().lock();
        if let Err(e) = writeln!(out, $($arg)*) {
            if e.kind() == std::io::ErrorKind::BrokenPipe {
                std::process::exit(0);
            }
            eprintln!("error: failed writing to stdout: {e}");
            std::process::exit(i32::from(EXIT_IO));
        }
    }};
}
use gts_ckpt::KillSwitch;
use gts_core::engine::{CachePolicyKind, GtsConfig, StorageLocation};
use gts_core::programs::{Bfs, Cc, PageRank, Sssp, ALGORITHMS};
use gts_core::{CheckpointConfig, Engine, FaultConfig, JobOptions, MutationSchedule};
use gts_core::{Strategy, Telemetry};
use gts_gpu::GpuConfig;
use gts_graph::generate::{erdos_renyi, web_like, Rmat};
use gts_graph::{Dataset, EdgeList};
use gts_serve::scheduler::{serve, JobStatus, ServeConfig, ServeOutcome};
use gts_serve::workload::{seeded_batch, WorkloadErrorKind};
use gts_serve::{JobSpec, JournalConfig, ResilienceConfig, ServeError};
use gts_storage::{
    build_graph_store, load_store, save_store, GraphStore, PageFormatConfig, PhysicalIdConfig, Wal,
    WalError,
};
use gts_telemetry::keys;

/// Exit code for usage errors: unknown command, bad flag, bad value.
pub const EXIT_USAGE: u8 = 2;
/// Exit code for I/O failures: unreadable graph/store, unwritable output.
pub const EXIT_IO: u8 = 3;
/// Exit code for engine failures: O.O.M. after degradation, exhausted
/// fault retries, corrupt pages.
pub const EXIT_ENGINE: u8 = 4;

/// A failed CLI invocation, classified so `main` can map each kind to a
/// distinct nonzero exit code (scripts can tell "you typed it wrong"
/// from "the disk is bad" from "the run failed").
#[derive(Debug)]
pub enum CliError {
    /// The command line itself is wrong (exit code [`EXIT_USAGE`]).
    Usage(String),
    /// Reading or writing a file failed (exit code [`EXIT_IO`]).
    Io(String),
    /// The engine accepted the config but the run failed (exit code
    /// [`EXIT_ENGINE`]).
    Engine(String),
}

impl CliError {
    /// The process exit code for this class of failure.
    pub fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => EXIT_USAGE,
            CliError::Io(_) => EXIT_IO,
            CliError::Engine(_) => EXIT_ENGINE,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) | CliError::Io(m) | CliError::Engine(m) => f.write_str(m),
        }
    }
}

/// Bare strings come from argument parsing and validation — usage errors.
impl From<String> for CliError {
    fn from(m: String) -> Self {
        CliError::Usage(m)
    }
}

/// One subcommand. Its synopsis is what `gts help` prints for it *and*
/// its declaration: [`dispatch`] takes the command word, the accepted
/// `--flags` and the positional arity from it, and a handler that reads a
/// flag it does not name trips a `debug_assert!` in [`Args`]. `<algorithm>`
/// is spelled out from the program registry when printed.
struct Command {
    synopsis: &'static str,
    run: fn(&Args) -> Result<(), CliError>,
}

impl Command {
    /// The command word: the synopsis's second (`gts <word> ...`).
    fn name(&self) -> &'static str {
        self.synopsis.split_whitespace().nth(1).unwrap_or("")
    }
}

const COMMANDS: &[Command] = &[
    Command {
        synopsis: "\
gts generate --kind <rmat|erdos|web|twitter|uk2007|yahooweb> --out <file>
             [--scale N] [--edge-factor N] [--vertices N] [--edges N] [--seed N]",
        run: generate,
    },
    Command {
        synopsis: "\
gts build    --graph <edge file> --out <store file>
             [--page-size BYTES] [--p BYTES] [--q BYTES]",
        run: build,
    },
    Command {
        synopsis: "gts info     <store file>",
        run: info,
    },
    Command {
        synopsis: "\
gts run      <algorithm>
             --store <store file>
             [--source N] [--iterations N] [--k N] [--gpus N] [--streams N]
             [--strategy p|s] [--storage mem|ssd:N|hdd:N]
             [--device-memory BYTES] [--cache lru|fifo|random] [--json true]
             [--trace-out trace.json] [--host-threads N] [--fault-seed N]
             [--checkpoint-dir DIR] [--checkpoint-every N] [--resume true]
             [--run-budget NS] [--sweep-deadline NS] [--counters-out FILE]
             [--crash-at-step K]
             [--mutate-at K] [--mutate-inserts N] [--mutate-deletes N]
             [--mutate-seed N]
             [--wal-dir DIR] [--scrub-every N] [--bit-rot-ppm N]",
        run,
    },
    Command {
        synopsis: "\
gts serve    --store <store file> --workload <file>
             [--slots N] [--queue-cap N] [--tenant-queue-cap N]
             [--deadline NS] [--gpus N] [--streams N] [--strategy p|s]
             [--storage mem|ssd:N|hdd:N] [--device-memory BYTES]
             [--cache lru|fifo|random] [--host-threads N] [--json true]
             [--counters-out FILE] [--jobs-out FILE]
             [--fault-seed N] [--retry-max N] [--backoff-base NS]
             [--breaker-threshold K] [--breaker-cooldown NS]
             [--shed-watermark PCT]
             [--journal-dir DIR] [--resume-serve true]
             [--crash-at-step K] [--wal-dir DIR]",
        run: serve_cmd,
    },
    Command {
        synopsis: "\
gts fsck     --store <store file> [--wal-dir DIR] [--checkpoint-dir DIR]
             [--journal-dir DIR] [--json true]",
        run: fsck,
    },
    Command {
        synopsis: "gts diff-counters <dump a> <dump b>",
        run: diff_counters,
    },
    Command {
        synopsis: "gts help",
        run: help,
    },
];

const NOTES: &str = "\
Edge files are the binary GTSEDGES format produced by `gts generate`, or plain
text 'src dst' lines. Store files are the GTSPAGES slotted-page format of the
paper's Section 2, version 5 (an older file is refused: rebuild it).
`--trace-out` writes a chrome://tracing / Perfetto JSON timeline of the run
(the paper's Fig. 4 pipeline). `--host-threads` sets the real threads used for
kernel execution on this machine (default: all cores); results, traces and
simulated times are identical for every value. `--fault-seed` enables
deterministic fault injection (transient read errors, torn/corrupt pages, GPU
copy/launch faults) with that seed; recovered faults only add simulated time.

Checkpoint/restart: `--checkpoint-dir` snapshots resumable state every
`--checkpoint-every` sweeps (default 1) with crash-atomic writes;
`--resume true` restarts from the latest valid snapshot there, and is
refused (exit 4, config fingerprint mismatch) unless every flag but
`--host-threads`, the directories, `--resume` and the budgets matches
the run that wrote it. The watchdog budgets `--sweep-deadline` / `--run-budget` (simulated ns) abort
an overrunning run with exit code 4 after flushing a final checkpoint and
the trace. `--counters-out` writes the final counter registry as sorted
'key value' lines, also on failure.

Live topology: `--mutate-at K` applies a batched edge mutation at the
boundary of sweep K while the query runs (Sec. 2's slotted pages are
rewritten in place, with delta pages on slot overflow, and the store
epoch bumps so checkpoints from before the batch refuse a stale resume).
The batch is generated deterministically from `--mutate-seed`:
`--mutate-inserts` random edge insertions (default 64) plus
`--mutate-deletes` deletions of existing edges (default 0). Results are
identical at every `--host-threads` value; progress is visible in the
`mut.*` counters.

Serve mode: `gts serve` runs a scripted multi-tenant workload (one job
per line: `at=<ns> tenant=<id> job=<algorithm> [source=N] [iters=N]
[k=N] [mutate-at=K inserts=N deletes=N seed=N]`, `#` comments) through
a long-lived engine over the shared store. `--slots` service slots are
multiplexed FIFO on the simulated clock; admission control bounds the
shared queue (`--queue-cap`), each tenant's share (`--tenant-queue-cap`)
and the tolerated wait (`--deadline`, simulated ns). Mutating jobs
serialise through the epoch pipeline as an all-slots barrier. Every
job's report and counters are byte-identical to the same job run solo,
at any `--host-threads`. `--jobs-out` writes one record per job plus its
full counter registry (what the CI serve-smoke job diffs across thread
counts); `--counters-out` writes the service-level registry, including
per-class `serve.lat.*` latency percentiles and the per-tenant
`tenant.<id>.cache.*` rollup.

Serve resilience: `--fault-seed` arms a service fault template — every
(job, attempt) execution derives its own fault domain from that one
seed, so a fault in one tenant's job never perturbs another's counters.
The serve template uses GPU copy/launch fault rates with no lane-level
retries, so failures surface to the service layer as typed
`status=failed` records instead of being healed invisibly. `--retry-max`
re-admits failed read jobs with capped exponential backoff
(`--backoff-base`, simulated ns, jittered per job) until quarantine
(`status=quarantined`, `serve.quarantine.*` counters).
`--breaker-threshold K` trips a per-tenant circuit breaker after K
consecutive failures, shedding that tenant's arrivals
(`dropped:breaker_open`) until `--breaker-cooldown` elapses.
`--shed-watermark PCT` arms overload shedding: when queue occupancy or
projected deadline consumption crosses a job's priority-scaled
watermark the job is dropped (`dropped:shed`, `serve.shed.*` counters);
higher `prio=` classes in the workload survive longer.

Serve recovery: `--journal-dir` keeps a crash-consistent service
journal (`journal.log`: one sealed, fsynced frame per scheduler step);
`--resume-serve true` resumes a killed daemon from it — settled jobs
are not re-run (`serve.resume.cached`) and the outputs are
byte-identical to an uncrashed run, modulo the wall-side
`serve.journal.*` / `serve.resume.*` keys.

Durability: `--wal-dir` keeps a mutation write-ahead log for live runs —
every batch is sealed into the log (fsync) before it touches the store,
so a `--resume true` run whose crash landed between a checkpoint and the
next boundary rolls the store forward by replaying the logged bytes
(`wal.*` counters) instead of refusing with a fingerprint mismatch.
`--scrub-every N` walks every at-rest
page each N sweeps verifying trailer checksums, repairing detections
from the in-memory copy and routing them through drive quarantine
(`scrub.*` counters); `--bit-rot-ppm` arms the seeded rot injector that
gives the scrubber something to find. `gts serve --wal-dir` logs
mutating jobs through the same path, binds the journal header to the
log, and re-derives journaled epoch bumps from the logged bytes on
`--resume-serve` (`serve.wal.replayed`).

Chaos testing: every durable write of a run or a service (checkpoint
snapshot and manifest, WAL, journal) is a fixed sequence of numbered
steps — tmp-write, fsync, rename, directory fsync; append, fsync — and
`--crash-at-step K` kills the process at step K (0-based, exit code 4):
a write lands half its bytes, any other step and everything after it is
withheld. A K past the last step never fires, so raising K from 0 until
the command exits 0 visits every crash the run can suffer
(DESIGN.md, Crash model).

`gts fsck` verifies artifacts offline and cross-checks every pair it is
given: the store as loading verifies it, the WAL chain and its replay
onto the store by recovery's own loop, checkpoint manifest fallbacks
(`ckpt.manifest.skipped`) and snapshot reachability through the log, and
the serve journal's store/WAL bindings. One line per finding; exit 0
when clean, 3 when an artifact is unreadable, 4 when findings exist.

`gts diff-counters` compares two `--counters-out` / `--jobs-out` dumps but
for the keys declared Diagnostic (`ckpt.*`, `wal.*`, `serve.journal.*`, ...):
it prints each differing line and exits 4 naming the keys.

Exit codes: 0 success, 2 usage error, 3 I/O failure, 4 engine failure.";

/// The full help text: every command's synopsis, then the notes.
fn usage() -> String {
    let names: Vec<&str> = ALGORITHMS.iter().map(|a| a.name).collect();
    let synopses: Vec<&str> = COMMANDS.iter().map(|c| c.synopsis).collect();
    let synopses = synopses
        .join("\n")
        .replace("<algorithm>", &format!("<{}>", names.join("|")))
        .replace('\n', "\n  ");
    format!(
        "gts — GTS (SIGMOD'16) graph processing, reproduced in Rust\n\nUSAGE:\n  {synopses}\n\n{NOTES}"
    )
}

fn help(_: &Args) -> Result<(), CliError> {
    outln!("{}", usage());
    Ok(())
}

/// Dispatch the command line.
pub fn dispatch(argv: &[String]) -> Result<(), CliError> {
    let mut args = Args::parse(argv)?;
    let Some(name) = args.command() else {
        return help(&args);
    };
    let Some(cmd) = COMMANDS.iter().find(|c| c.name() == name) else {
        return Err(CliError::Usage(format!(
            "unknown command {name:?}\n{}",
            usage()
        )));
    };
    args.declare(cmd.synopsis)?;
    (cmd.run)(&args)
}

fn generate(args: &Args) -> Result<(), CliError> {
    let kind = args.required("kind")?;
    let out = args.required("out")?;
    let seed = args.get_or("seed", 0x6715_2016u64)?;
    let graph: EdgeList = match kind {
        "rmat" => {
            let scale = args.get_or("scale", 16u32)?;
            if scale >= 32 {
                return Err(CliError::Usage(format!("bad --scale {scale} (0..=31)")));
            }
            let ef = args.get_or("edge-factor", 16u32)?;
            Rmat::new(scale)
                .with_edge_factor(ef)
                .with_seed(seed)
                .generate()
        }
        "erdos" => {
            let n = args.get_or("vertices", 1u32 << 16)?;
            if n == 0 {
                return Err(CliError::Usage("bad --vertices 0 (>= 1)".into()));
            }
            let m = args.get_or("edges", 1usize << 20)?;
            erdos_renyi(n, m, seed)
        }
        "web" => {
            let n = args.get_or("vertices", 1u32 << 16)?;
            // Two communities of two vertices is the smallest web graph.
            if n < 4 {
                return Err(CliError::Usage(format!("bad --vertices {n} (>= 4)")));
            }
            let communities = (n / 512).max(2);
            web_like(communities, n / communities, 4, seed)
        }
        "twitter" => Dataset::TwitterLike.generate(),
        "uk2007" => Dataset::Uk2007Like.generate(),
        "yahooweb" => Dataset::YahooWebLike.generate(),
        other => return Err(CliError::Usage(format!("unknown graph kind {other:?}"))),
    };
    edgelist::write(&graph, out).map_err(|e| CliError::Io(e.to_string()))?;
    outln!(
        "wrote {} vertices, {} edges to {out}",
        graph.num_vertices,
        graph.num_edges()
    );
    Ok(())
}

fn build(args: &Args) -> Result<(), CliError> {
    let out = args.required("out")?;
    let page_size = args.get_or("page-size", 64 * 1024usize)?;
    let p = args.get_or("p", 2u8)?;
    let q = args.get_or("q", 2u8)?;
    for (flag, width) in [("p", p), ("q", q)] {
        if !(1..=8).contains(&width) {
            return Err(CliError::Usage(format!(
                "bad --{flag} {width} (1..=8 bytes)"
            )));
        }
    }
    let id = PhysicalIdConfig::new(p, q);
    // A store file carries page sizes of 64 B..=1 GiB (`load_store`
    // refuses anything else), which clears the page format's own minimum
    // at every id width; the slot width caps the size further.
    let max = id.max_page_size().min(1 << 30);
    if !(64..=max).contains(&(page_size as u64)) {
        return Err(CliError::Usage(format!(
            "bad --page-size {page_size} (64..={max} bytes for {id})"
        )));
    }
    let cfg = PageFormatConfig::new(id, page_size);
    let graph = edgelist::read(args.required("graph")?).map_err(|e| CliError::Io(e.to_string()))?;
    let store = build_graph_store(&graph, cfg).map_err(|e| e.to_string())?;
    save_store(&store, out).map_err(|e| CliError::Io(e.to_string()))?;
    outln!(
        "built {}: {} SP + {} LP pages of {} B ({:.1} MiB topology)",
        out,
        store.small_pids().len(),
        store.large_pids().len(),
        page_size,
        store.topology_bytes() as f64 / (1 << 20) as f64
    );
    Ok(())
}

fn info(args: &Args) -> Result<(), CliError> {
    let path = args.positional(0);
    let store = load_store(path).map_err(|e| CliError::Io(e.to_string()))?;
    let cfg = store.cfg();
    outln!("store:     {path}");
    outln!(
        "format:    {} pages of {} B, physical ids {}",
        store.num_pages(),
        cfg.page_size,
        cfg.id
    );
    outln!(
        "graph:     {} vertices, {} edges",
        store.num_vertices(),
        store.num_edges()
    );
    outln!(
        "pages:     {} small, {} large",
        store.small_pids().len(),
        store.large_pids().len()
    );
    outln!("topology:  {} bytes", store.topology_bytes());
    for alg in [
        Bfs::ALGORITHM,
        PageRank::ALGORITHM,
        Sssp::ALGORITHM,
        Cc::ALGORITHM,
    ] {
        let bytes = alg.wa_bytes_per_vertex * store.num_vertices();
        outln!(
            "WA {:<9} {bytes} bytes{}",
            alg.report_name,
            topology_share(bytes, store.topology_bytes())
        );
    }
    Ok(())
}

/// `gts info`'s " (x % of topology)" suffix; empty for a store with no
/// topology, which has no share to print.
fn topology_share(bytes: u64, topology: u64) -> String {
    match topology {
        0 => String::new(),
        t => format!(" ({:.1} % of topology)", bytes as f64 / t as f64 * 100.0),
    }
}

fn parse_storage(s: &str) -> Result<StorageLocation, String> {
    if s == "mem" {
        return Ok(StorageLocation::InMemory);
    }
    let count = |n: &str| match n.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("bad --storage {s:?} (device count {n:?}, >= 1)")),
    };
    if let Some(n) = s.strip_prefix("ssd:") {
        return Ok(StorageLocation::Ssds(count(n)?));
    }
    if let Some(n) = s.strip_prefix("hdd:") {
        return Ok(StorageLocation::Hdds(count(n)?));
    }
    Err(format!("bad --storage {s:?} (mem | ssd:N | hdd:N)"))
}

/// The `--checkpoint-dir` / `--checkpoint-every` / `--resume` trio.
/// `--checkpoint-every` and `--resume` are meaningless without a
/// directory, so they are usage errors on their own (typo protection).
fn parse_checkpoint(args: &Args) -> Result<Option<CheckpointConfig>, CliError> {
    let resume = args.flag_bool("resume")?;
    let every: Option<u32> = args.parsed("checkpoint-every", "sweeps")?;
    let Some(dir) = args.optional("checkpoint-dir") else {
        if every.is_some() || resume {
            return Err(CliError::Usage(
                "--checkpoint-every/--resume need --checkpoint-dir".into(),
            ));
        }
        return Ok(None);
    };
    let ck = CheckpointConfig::new(dir, every.unwrap_or(1));
    Ok(Some(if resume { ck.resuming() } else { ck }))
}

/// `gts run`'s job flags and the workload key each one sets; `mutate-at`
/// first, because the batch knobs need it.
const JOB_FLAGS: [(&str, &str); 7] = [
    ("mutate-at", "mutate-at"),
    ("mutate-inserts", "inserts"),
    ("mutate-deletes", "deletes"),
    ("mutate-seed", "seed"),
    ("source", "source"),
    ("iterations", "iters"),
    ("k", "k"),
];

/// The job `gts run <algorithm>` describes, built through the same
/// [`JobSpec::set`] a workload line goes through — same defaults, same
/// bounds — so a serve job and its solo replay cannot drift apart.
fn job_spec(args: &Args) -> Result<JobSpec, CliError> {
    let mut spec = JobSpec::new(0, "run", "");
    spec.set("job", args.positional(0))
        .map_err(|e| e.to_string())?;
    for (flag, key) in JOB_FLAGS {
        if let Some(v) = args.optional(flag) {
            spec.set(key, v).map_err(|e| match e {
                WorkloadErrorKind::OrphanMutateKeys => format!("--{flag} needs --mutate-at"),
                e => format!("bad --{flag} {v} ({e})"),
            })?;
        }
    }
    Ok(spec)
}

/// The flags shared by `run` and `serve` that shape the engine itself:
/// GPU topology, streams, strategy, storage tier, device memory, cache
/// policy, host threads. `run` stacks its own extras (checkpoints, WAL,
/// scrub, budgets) on top with struct-update syntax.
fn engine_config(args: &Args) -> Result<GtsConfig, CliError> {
    let defaults = GtsConfig::default();
    Ok(GtsConfig {
        num_gpus: args.get_or("gpus", defaults.num_gpus)?,
        num_streams: args.get_or("streams", defaults.num_streams)?,
        strategy: match args.optional("strategy").unwrap_or("p") {
            "p" => Strategy::Performance,
            "s" => Strategy::Scalability,
            other => return Err(CliError::Usage(format!("bad --strategy {other:?} (p | s)"))),
        },
        storage: parse_storage(args.optional("storage").unwrap_or("mem"))?,
        gpu: GpuConfig::titan_x().with_device_memory(args.get_or("device-memory", 12u64 << 30)?),
        cache_policy: match args.optional("cache").unwrap_or("lru") {
            "lru" => CachePolicyKind::Lru,
            "fifo" => CachePolicyKind::Fifo,
            "random" => CachePolicyKind::Random,
            other => return Err(CliError::Usage(format!("bad --cache {other:?}"))),
        },
        host_threads: args.get_or("host-threads", defaults.host_threads)?,
        ..defaults
    })
}

fn run(args: &Args) -> Result<(), CliError> {
    let json = args.flag_bool("json")?;
    let spec = job_spec(args)?;
    let mut store: GraphStore =
        load_store(args.required("store")?).map_err(|e| CliError::Io(e.to_string()))?;
    let n = store.num_vertices();
    spec.check(n).map_err(|e| e.to_string())?;
    let schedule = spec.mutate.map(|m| {
        MutationSchedule::new().at(
            m.at_sweep,
            seeded_batch(&store, m.inserts, m.deletes, m.seed),
        )
    });

    let mut faults = args
        .parsed("fault-seed", "seed")?
        .map(FaultConfig::with_seed);
    let kill = args
        .parsed("crash-at-step", "durable step number")?
        .map_or_else(KillSwitch::never, KillSwitch::at);
    if let Some(ppm) = args.parsed("bit-rot-ppm", "parts per million")? {
        // Rot rides in a fault plan; a quiet one makes it the only fault.
        faults
            .get_or_insert_with(|| FaultConfig::quiet(0))
            .bit_rot_ppm = ppm;
    }
    let cfg = GtsConfig {
        wal_dir: args.optional("wal-dir").map(std::path::PathBuf::from),
        scrub_every: args
            .parsed::<std::num::NonZeroU32>("scrub-every", "sweep cadence, >= 1")?
            .map(std::num::NonZeroU32::get),
        checkpoint: parse_checkpoint(args)?,
        sweep_deadline_ns: args.parsed("sweep-deadline", "simulated ns")?,
        run_budget_ns: args.parsed("run-budget", "simulated ns")?,
        ..engine_config(args)?
    };

    let engine = Engine::new(cfg).map_err(|e| e.to_string())?;
    let trace_out = args.optional("trace-out");
    // Spans cost memory proportional to pages streamed; only record them
    // when the user asked for a trace file.
    let tel = trace_out.map_or_else(Telemetry::new, |_| Telemetry::with_spans());
    let opts = JobOptions {
        telemetry: tel,
        tenant: None,
        faults,
        kill,
    };
    let mut prog = spec.program(n).map_err(|e| e.to_string())?;
    // Run the algorithm but hold the result: when the run fails mid-sweep
    // the engine still flushes its open spans and counters, and the
    // partial trace below is exactly the evidence needed to debug it.
    let outcome = match schedule {
        Some(s) => engine.run_job_live(&mut store, &mut *prog, s, &opts),
        None => engine.run_job(&store, &mut *prog, &opts),
    }
    .map_err(|e| CliError::Engine(e.to_string()));

    if let Some(path) = trace_out {
        std::fs::write(path, opts.telemetry.to_chrome_trace())
            .map_err(|e| CliError::Io(format!("writing {path}: {e}")))?;
        outln!("trace:          {path} (load in ui.perfetto.dev or chrome://tracing)");
    }
    if let Some(path) = args.optional("counters-out") {
        // Written before the outcome propagates: a crashed/deadlined run's
        // counters are exactly what the kill-resume CI job diffs.
        write_counters(path, &opts.telemetry)?;
    }
    let report = outcome?;
    if json {
        outln!("{}", report.to_json());
    } else {
        outln!("algorithm:      {}", report.algorithm);
        outln!("simulated time: {}", report.elapsed);
        outln!("sweeps:         {}", report.sweeps);
        outln!("pages streamed: {}", report.pages_streamed);
        outln!(
            "cache hits:     {} ({:.1} %)",
            report.cache_hits,
            report.cache_hit_rate * 100.0
        );
        outln!(
            "edges visited:  {} ({:.0} MTEPS)",
            report.edges_traversed,
            report.mteps()
        );
        outln!("result:         {}", prog.summary());
    }
    Ok(())
}

/// `--fault-seed` for serve mode. Unlike `run`, the serve template uses
/// GPU copy/launch rates with no lane-level retries: the default store
/// is in-memory (no device reads to fault), and healing is the service
/// layer's job — failures must surface as typed [`JobStatus::Failed`]
/// for retry/quarantine/breaker policy to act on, not vanish inside a
/// lane's own retry loop.
fn serve_fault_template(args: &Args) -> Result<Option<FaultConfig>, CliError> {
    Ok(args.parsed("fault-seed", "seed")?.map(|seed| FaultConfig {
        copy_fault_ppm: 60_000,
        launch_fault_ppm: 60_000,
        max_retries: 0,
        ..FaultConfig::with_seed(seed)
    }))
}

/// The retry/backoff, circuit-breaker, and shedding knobs; every flag
/// defaults to the policy being off.
fn serve_resilience(args: &Args) -> Result<ResilienceConfig, CliError> {
    let mut r = ResilienceConfig::default();
    r.retry_max = args.get_or("retry-max", r.retry_max)?;
    r.backoff_base_ns = args.get_or("backoff-base", r.backoff_base_ns)?;
    r.breaker_threshold = args.get_or("breaker-threshold", r.breaker_threshold)?;
    r.breaker_cooldown_ns = args.get_or("breaker-cooldown", r.breaker_cooldown_ns)?;
    r.shed_watermark_pct = args.parsed("shed-watermark", "percent 1-100")?;
    Ok(r)
}

/// `--journal-dir` / `--resume-serve`: the crash-consistent service
/// journal. Resuming without a journal directory is a usage error.
fn serve_journal(args: &Args) -> Result<Option<JournalConfig>, CliError> {
    let resume = args.flag_bool("resume-serve")?;
    match args.optional("journal-dir") {
        Some(dir) => {
            let mut j = JournalConfig::new(dir);
            j.resume = resume;
            Ok(Some(j))
        }
        None if resume => Err(CliError::Usage(
            "--resume-serve requires --journal-dir (nowhere to resume from)".into(),
        )),
        None => Ok(None),
    }
}

/// `gts serve`: a scripted multi-tenant workload through the long-lived
/// engine over the shared store. Scheduling runs on the simulated
/// clock, so every output is byte-identical at any `--host-threads`.
fn serve_cmd(args: &Args) -> Result<(), CliError> {
    let json = args.flag_bool("json")?;
    let mut store: GraphStore =
        load_store(args.required("store")?).map_err(|e| CliError::Io(e.to_string()))?;
    let path = args.required("workload")?;
    let text =
        std::fs::read_to_string(path).map_err(|e| CliError::Io(format!("reading {path}: {e}")))?;
    let jobs =
        gts_serve::workload::parse(&text).map_err(|e| CliError::Usage(format!("{path}: {e}")))?;
    let engine = Engine::new(engine_config(args)?).map_err(|e| e.to_string())?;
    let serve_cfg = ServeConfig {
        slots: args.get_or("slots", 4usize)?,
        queue_capacity: args.get_or("queue-cap", 64usize)?,
        tenant_queue_capacity: args.get_or("tenant-queue-cap", 16usize)?,
        deadline_ns: args.parsed("deadline", "simulated ns")?,
        faults: serve_fault_template(args)?,
        resilience: serve_resilience(args)?,
        journal: serve_journal(args)?,
        crash: args.parsed("crash-at-step", "durable step number")?,
        wal_dir: args.optional("wal-dir").map(std::path::PathBuf::from),
    };
    let out = serve(&engine, &mut store, &jobs, &serve_cfg).map_err(|e| match e {
        ServeError::Config(_) | ServeError::Workload(_) => CliError::Usage(e.to_string()),
        ServeError::Journal(_) => CliError::Io(e.to_string()),
        other => CliError::Engine(other.to_string()),
    })?;
    write_serve_outputs(args, &out)?;
    if json {
        outln!(
            "{{\"jobs\":{},\"completed\":{},\"dropped\":{},\"failed\":{},\"quarantined\":{},\"epochs\":{},\"makespan_ns\":{},\"latency\":{}}}",
            out.jobs.len(),
            out.completed,
            out.dropped,
            out.failed,
            out.quarantined,
            out.telemetry.counter(keys::SERVE_EPOCHS),
            out.makespan_ns,
            out.telemetry.histograms_to_json()
        );
    } else {
        outln!(
            "jobs:       {} ({} completed, {} dropped, {} failed, {} quarantined)",
            out.jobs.len(),
            out.completed,
            out.dropped,
            out.failed,
            out.quarantined
        );
        outln!("slots:      {}", serve_cfg.slots);
        outln!(
            "epochs:     {} mutation batches applied",
            out.telemetry.counter(keys::SERVE_EPOCHS)
        );
        outln!("makespan:   {} simulated ns", out.makespan_ns);
        for (key, s) in out.telemetry.histogram_summaries() {
            outln!(
                "{key}: n={} p50={} p95={} p99={} ns",
                s.count,
                s.p50,
                s.p95,
                s.p99
            );
        }
    }
    Ok(())
}

/// One inconsistency `gts fsck` found: which artifact it lives in and
/// what disagreed.
struct Finding {
    artifact: &'static str,
    detail: String,
}

/// `gts fsck`: offline cross-artifact verifier. Loads the store (loading
/// verifies every page and rebuilds the RVT from the pages, so a damaged
/// store is unreadable, exit 3) and, for every artifact directory it is
/// given, verifies it internally and cross-checks it against everything
/// else on the table:
///
/// - `--wal-dir`: the log's header/trailer chain (torn tails included),
///   its identity binding to the store, and that every record replays
///   onto the store through recovery's own loop ([`Wal::replay_until`]);
/// - `--checkpoint-dir`: manifest entries silently skipped as torn or
///   unreadable, and that the newest snapshot's store fingerprint is
///   reachable from the store by replaying the log;
/// - `--journal-dir`: the serve journal's store binding, its WAL-epoch
///   binding, and that the post-bump epoch of every journaled execution
///   lies inside the log's chain.
///
/// Nothing is modified (the WAL's torn tail is *noted*, not repaired).
/// One line per finding; exit 0 when clean, 3 when an artifact cannot
/// be read at all, 4 when findings exist.
fn fsck(args: &Args) -> Result<(), CliError> {
    let (checked, findings) = fsck_findings(args)?;
    let json = args.flag_bool("json")?;
    if json {
        outln!("{}", findings_json(&checked, &findings));
    } else {
        for f in &findings {
            outln!("fsck: {}: {}", f.artifact, f.detail);
        }
        if findings.is_empty() {
            outln!("fsck: clean ({})", checked.join(" + "));
        }
    }
    if findings.is_empty() {
        Ok(())
    } else {
        Err(CliError::Engine(format!(
            "fsck: {} finding(s) across {}",
            findings.len(),
            checked.join(" + ")
        )))
    }
}

/// Every check of [`fsck`]: the artifacts checked and what was found.
fn fsck_findings(args: &Args) -> Result<(Vec<&'static str>, Vec<Finding>), CliError> {
    let store: GraphStore =
        load_store(args.required("store")?).map_err(|e| CliError::Io(e.to_string()))?;
    let mut findings: Vec<Finding> = Vec::new();
    // One finding: its artifact, then the `format!` arguments of its detail.
    macro_rules! found {
        ($artifact:literal, $($detail:tt)+) => {
            findings.push(Finding { artifact: $artifact, detail: format!($($detail)+) })
        };
    }
    let mut checked: Vec<&'static str> = vec!["store"];

    // --- WAL: chain integrity, then recovery's replay onto a scratch
    // store. The fingerprints it passes are the checkpoint reachability
    // set (empty when the log was not replayed).
    let mut wal: Option<Wal> = None;
    let mut reachable = Vec::new();
    if let Some(dir) = args.optional("wal-dir") {
        checked.push("wal");
        match Wal::load(dir) {
            Err(WalError::Log(e @ gts_ckpt::CkptError::Io { .. })) => {
                return Err(CliError::Io(format!("wal: {e}")));
            }
            Err(e) => found!("wal", "{e}"),
            Ok(w) => {
                let tail = w.truncated_tail();
                if tail > 0 {
                    found!(
                        "wal",
                        "torn tail: {tail} trailing bytes form no sealed record"
                    );
                }
                let (base, epoch) = (w.header().base_epoch, store.epoch());
                // A log based at another epoch is reported, not replayed.
                let replayed = w.replay_until(&mut store.clone(), |s| {
                    reachable.push(gts_core::shape_fingerprint(s));
                    base != epoch
                });
                match replayed {
                    Err(WalError::Mismatch {
                        what: "store fingerprint",
                        want,
                        got,
                    }) => found!(
                        "wal",
                        "log belongs to a different store (log {got:#x}, store {want:#x})"
                    ),
                    Err(WalError::Rejected(e)) => {
                        let i = reachable.len() - 1;
                        let (pre, post) = (w.records()[i].pre_epoch, w.records()[i].post_epoch);
                        found!(
                            "wal",
                            "record {i} (epoch {pre} -> {post}) does not apply onto the \
                             store: {e}"
                        );
                    }
                    Err(e) => found!("wal", "{e}"),
                    Ok(_) if base != epoch => {
                        found!("wal", "log base epoch {base} != store epoch {epoch}");
                    }
                    Ok(_) => {}
                }
                wal = Some(w);
            }
        }
    }

    // --- Checkpoints: surfaced manifest fallbacks, then snapshot
    // reachability from the store through the log.
    if let Some(dir) = args.optional("checkpoint-dir") {
        checked.push("checkpoint");
        if !std::path::Path::new(dir).is_dir() {
            return Err(CliError::Io(format!("checkpoint dir {dir}: not found")));
        }
        let ck = gts_ckpt::CkptStore::open(dir).map_err(|e| CliError::Io(e.to_string()))?;
        match ck.load_latest_with_skipped() {
            Err(e @ gts_ckpt::CkptError::Io { .. }) => return Err(CliError::Io(e.to_string())),
            Err(e) => found!("checkpoint", "{e}"),
            Ok((seq, snap, skipped)) => {
                for name in skipped {
                    found!(
                        "checkpoint",
                        "manifest entry {name} skipped (missing, torn, or corrupt)"
                    );
                }
                match gts_core::snapshot_progress(&snap) {
                    Err(e) => found!("checkpoint", "snapshot {seq} does not decode: {e}"),
                    Ok((fp, sweep)) if !reachable.is_empty() && !reachable.contains(&fp) => {
                        found!(
                            "checkpoint",
                            "snapshot {seq} (sweep {sweep}) records store fingerprint \
                             {fp:#x}, unreachable from the store through the log"
                        );
                    }
                    Ok(_) => {}
                }
            }
        }
    }

    // --- Serve journal: store binding, WAL-epoch binding, and every
    // journaled epoch inside the log's chain.
    if let Some(dir) = args.optional("journal-dir") {
        checked.push("journal");
        if !std::path::Path::new(dir).is_dir() {
            return Err(CliError::Io(format!("journal dir {dir}: not found")));
        }
        match gts_serve::inspect_journal(dir) {
            Err(e) => found!("journal", "{e}"),
            Ok(info) => {
                let tail = info.truncated_tail;
                if tail > 0 {
                    found!(
                        "journal",
                        "torn tail: {tail} trailing bytes form no sealed step"
                    );
                }
                let (fp, want) = (info.store_fp, gts_core::store_fingerprint(&store));
                if fp != want {
                    found!(
                        "journal",
                        "bound to a different store (journal {fp:#x}, this store {want:#x})"
                    );
                }
                match (&wal, info.wal_fp) {
                    (Some(w), fp) => {
                        let want = gts_serve::journal::wal_binding_fp(w);
                        if fp != want {
                            found!(
                                "journal",
                                "WAL binding mismatch (journal {fp:#x}, log {want:#x})"
                            );
                        }
                        let (base, tip) = (w.header().base_epoch, w.next_pre_epoch());
                        for e in info.epochs.iter().filter(|&&e| e <= base || e > tip) {
                            found!(
                                "journal",
                                "journaled epoch {e} outside the log's chain ({base}, {tip}]"
                            );
                        }
                    }
                    (None, fp) if fp != 0 => found!(
                        "journal",
                        "journal binds a mutation WAL ({fp:#x}) but no --wal-dir \
                         was given to check it against"
                    ),
                    (None, _) => {}
                }
            }
        }
    }

    Ok((checked, findings))
}

/// `gts fsck --json true`: the artifacts checked and one object per
/// finding. Details carry OS error strings and paths, so they go through
/// the workspace's one JSON escaper.
fn findings_json(checked: &[&str], findings: &[Finding]) -> String {
    let list: Vec<String> = findings
        .iter()
        .map(|f| {
            format!(
                "{{\"artifact\":\"{}\",\"detail\":\"{}\"}}",
                f.artifact,
                gts_telemetry::json::escape(&f.detail)
            )
        })
        .collect();
    let names: Vec<String> = checked.iter().map(|c| format!("\"{c}\"")).collect();
    format!(
        "{{\"checked\":[{}],\"findings\":[{}]}}",
        names.join(","),
        list.join(",")
    )
}

/// `--jobs-out` (one record line plus the full counter registry per job
/// — exactly what the CI serve-smoke job diffs across host-thread
/// counts) and `--counters-out` (the service-level registry as sorted
/// `key value` lines, percentile counters included).
fn write_serve_outputs(args: &Args, out: &ServeOutcome) -> Result<(), CliError> {
    if let Some(path) = args.optional("jobs-out") {
        let mut lines = String::new();
        for j in &out.jobs {
            lines.push_str(&format!(
                "job={} tenant={} class={} mutating={} arrival={} status={} \
                 start={} finish={} service={} wait={} latency={} \
                 attempts={} result={:#018x}\n",
                j.index,
                j.tenant,
                j.class,
                j.mutating,
                j.arrival_ns,
                status_word(&j.status),
                j.start_ns,
                j.finish_ns,
                j.service_ns,
                j.wait_ns(),
                j.latency_ns(),
                j.attempts,
                j.result_fp
            ));
            for (k, v) in &j.counters {
                lines.push_str(&format!("job.{}.{k} {v}\n", j.index));
            }
        }
        std::fs::write(path, lines).map_err(|e| CliError::Io(format!("writing {path}: {e}")))?;
    }
    if let Some(path) = args.optional("counters-out") {
        write_counters(path, &out.telemetry)?;
    }
    Ok(())
}

/// `--counters-out`: a counter registry as sorted `key value` lines.
fn write_counters(path: &str, tel: &Telemetry) -> Result<(), CliError> {
    let mut lines = String::new();
    for (k, v) in tel.counters() {
        lines.push_str(&format!("{k} {v}\n"));
    }
    std::fs::write(path, lines).map_err(|e| CliError::Io(format!("writing {path}: {e}")))
}

/// `gts diff-counters`: two dumps must agree on every line but those
/// whose first word is a key declared Diagnostic (job records included).
fn diff_counters(args: &Args) -> Result<(), CliError> {
    let key = |line: &str| line.split(' ').next().unwrap_or("").to_owned();
    let read = |path: &str| -> Result<Vec<String>, CliError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::Io(format!("reading {path}: {e}")))?;
        let contract = |l: &&str| keys::class(&key(l)) != Some(keys::Class::Diagnostic);
        Ok(text.lines().filter(contract).map(str::to_owned).collect())
    };
    let (a, b) = (read(args.positional(0))?, read(args.positional(1))?);
    if a == b {
        return Ok(());
    }
    let mut differing = std::collections::BTreeSet::new();
    for (sign, from, other) in [('-', &a, &b), ('+', &b, &a)] {
        for line in from.iter().filter(|l| !other.contains(l)) {
            outln!("{sign} {line}");
            differing.insert(key(line));
        }
    }
    let differing: Vec<String> = differing.into_iter().collect();
    Err(CliError::Engine(format!(
        "diff-counters: contract lines differ: {}",
        differing.join(", ")
    )))
}

fn status_word(s: &JobStatus) -> &'static str {
    match s {
        JobStatus::Completed => "completed",
        JobStatus::Dropped(ServeError::QueueFull { .. }) => "dropped:queue_full",
        JobStatus::Dropped(ServeError::Rejected { .. }) => "dropped:rejected",
        JobStatus::Dropped(ServeError::Deadline { .. }) => "dropped:deadline",
        JobStatus::Dropped(ServeError::BreakerOpen { .. }) => "dropped:breaker_open",
        JobStatus::Dropped(ServeError::Shed { .. }) => "dropped:shed",
        JobStatus::Dropped(_) => "dropped",
        JobStatus::Failed { .. } => "failed",
        JobStatus::Quarantined { .. } => "quarantined",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn tmp(name: &str) -> String {
        let mut p = std::env::temp_dir();
        p.push(format!("gts-cli-test-{}-{name}", std::process::id()));
        p.to_string_lossy().into_owned()
    }

    /// `gts diff-counters` compares the contract lines only: a difference
    /// in a Diagnostic key (`ckpt.*`, a serve job's `wal.*`, the journal's
    /// bytes) passes, one in any other line fails naming its key.
    #[test]
    fn diff_counters_sets_aside_exactly_the_diagnostic_lines() {
        let base = "ckpt.bytes 10\njob=3 status=completed\njob.3.cache.hits 7\n\
                    job.3.wal.appends 1\nrun.sweeps 4\nserve.journal.bytes 90\n";
        let diff = |text: &str| {
            let (a, b) = (tmp("diff-a"), tmp("diff-b"));
            std::fs::write(&a, base).unwrap();
            std::fs::write(&b, text).unwrap();
            let out = dispatch(&sv(&["diff-counters", &a, &b]));
            std::fs::remove_file(&a).ok();
            std::fs::remove_file(&b).ok();
            out
        };
        assert!(diff(base).is_ok());
        let diagnostic_only = base
            .replace("ckpt.bytes 10", "ckpt.bytes 20")
            .replace("job.3.wal.appends 1", "job.3.wal.appends 0")
            .replace("serve.journal.bytes 90\n", "");
        assert!(diff(&diagnostic_only).is_ok());
        for (from, to, key) in [
            ("run.sweeps 4", "run.sweeps 5", "run.sweeps"),
            (
                "job.3.cache.hits 7",
                "job.3.cache.hits 8",
                "job.3.cache.hits",
            ),
            ("status=completed", "status=failed", "job=3"),
        ] {
            let err = diff(&base.replace(from, to)).unwrap_err();
            assert_eq!(err.exit_code(), EXIT_ENGINE, "{err}");
            assert!(
                err.to_string().ends_with(&format!("differ: {key}")),
                "{err}"
            );
        }
        let err = dispatch(&sv(&[
            "diff-counters",
            &tmp("diff-none"),
            &tmp("diff-none"),
        ]));
        assert_eq!(err.unwrap_err().exit_code(), EXIT_IO);
    }

    fn synopsis(command: &str) -> &'static str {
        let cmd = COMMANDS.iter().find(|c| c.name() == command);
        cmd.unwrap().synopsis
    }

    /// The synopsis is the parser: for every command, each `--flag` its
    /// synopsis prints is accepted and each flag only another command
    /// prints is refused. (That no handler reads a flag its synopsis
    /// lacks is the `debug_assert!` in `Args`, which every end-to-end
    /// test in this module runs under.)
    #[test]
    fn every_synopsis_flag_is_accepted_and_foreign_flags_are_refused() {
        let flags_of = |c: &Command| -> Vec<String> {
            let words = c
                .synopsis
                .split(|ch: char| !(ch == '-' || ch.is_ascii_alphanumeric()));
            words
                .filter(|w| w.starts_with("--"))
                .map(String::from)
                .collect()
        };
        let positionals = |c: &Command| match c.name() {
            "run" => vec!["run", "bfs"],
            "info" => vec!["info", "store"],
            word => vec![word],
        };
        let check = |c: &Command, flag: &str| {
            let mut argv = sv(&positionals(c));
            argv.extend(sv(&[flag, "1"]));
            Args::parse(&argv).unwrap().declare(c.synopsis)
        };
        let mut total = 0;
        for c in COMMANDS {
            let own = flags_of(c);
            total += own.len();
            for flag in &own {
                assert_eq!(check(c, flag), Ok(()), "{flag} of {}", c.synopsis);
            }
            for other in COMMANDS {
                for flag in flags_of(other).iter().filter(|f| !own.contains(f)) {
                    let err = check(c, flag).unwrap_err();
                    assert_eq!(err, format!("unknown flag {flag}"), "{}", c.synopsis);
                }
            }
        }
        assert_eq!(
            total,
            7 + 5 + 28 + 26 + 5,
            "generate, build, run, serve, fsck"
        );
        assert!(usage().contains("<bfs|pagerank|sssp|cc|bc|rwr|degrees|kcore|radius>"));
    }

    /// `gts run <name>` and a workload `job=<name>` accept exactly the
    /// registry's names: both resolve the name through `JobSpec::set`.
    #[test]
    fn run_and_serve_accept_exactly_the_registry_names() {
        let accepted_by_run = |name: &str| {
            let mut args = Args::parse(&sv(&["run", name])).unwrap();
            args.declare(synopsis("run")).unwrap();
            job_spec(&args).is_ok()
        };
        let accepted_by_serve =
            |name: &str| gts_serve::parse(&format!("at=0 tenant=a job={name}")).is_ok();
        for alg in ALGORITHMS {
            assert!(accepted_by_run(alg.name), "{}", alg.name);
            assert!(accepted_by_serve(alg.name), "{}", alg.name);
        }
        for name in ["BFS", "PageRank", "pr", "frobnicate", ""] {
            assert!(!accepted_by_run(name), "{name:?}");
            assert!(!accepted_by_serve(name), "{name:?}");
        }
    }

    #[test]
    fn generate_build_info_run_pipeline() {
        let el = tmp("g.el");
        let st = tmp("g.gts");
        dispatch(&sv(&[
            "generate", "--kind", "rmat", "--scale", "9", "--out", &el,
        ]))
        .unwrap();
        dispatch(&sv(&[
            "build",
            "--graph",
            &el,
            "--out",
            &st,
            "--page-size",
            "4096",
        ]))
        .unwrap();
        dispatch(&sv(&["info", &st])).unwrap();
        // An empty edge file builds a store with no pages; `info` prints
        // no share of its zero-byte topology (it once printed NaN).
        let empty_el = tmp("empty.el");
        let empty_st = tmp("empty.gts");
        std::fs::write(&empty_el, "").unwrap();
        dispatch(&sv(&["build", "--graph", &empty_el, "--out", &empty_st])).unwrap();
        dispatch(&sv(&["info", &empty_st])).unwrap();
        assert_eq!(load_store(&empty_st).unwrap().topology_bytes(), 0);
        assert_eq!(topology_share(0, 0), "");
        assert_eq!(topology_share(1, 8), " (12.5 % of topology)");
        std::fs::remove_file(&empty_el).ok();
        std::fs::remove_file(&empty_st).ok();
        for alg in [
            "bfs", "pagerank", "sssp", "cc", "bc", "rwr", "degrees", "kcore", "radius",
        ] {
            dispatch(&sv(&["run", alg, "--store", &st, "--iterations", "2"]))
                .unwrap_or_else(|e| panic!("{alg}: {e}"));
        }
        // Out-of-core configuration also works end to end.
        dispatch(&sv(&[
            "run",
            "pagerank",
            "--store",
            &st,
            "--iterations",
            "2",
            "--gpus",
            "2",
            "--strategy",
            "s",
            "--storage",
            "ssd:2",
        ]))
        .unwrap();
        // Explicit host-thread counts run fine (determinism is asserted by
        // the engine and integration tests; this checks flag plumbing).
        dispatch(&sv(&[
            "run",
            "pagerank",
            "--store",
            &st,
            "--iterations",
            "2",
            "--host-threads",
            "2",
        ]))
        .unwrap();
        assert!(dispatch(&sv(&[
            "run",
            "bfs",
            "--store",
            &st,
            "--host-threads",
            "zero"
        ]))
        .is_err());
        // --trace-out writes a chrome-trace JSON file.
        let tr = tmp("trace.json");
        dispatch(&sv(&[
            "run",
            "bfs",
            "--store",
            &st,
            "--streams",
            "4",
            "--trace-out",
            &tr,
        ]))
        .unwrap();
        let trace = std::fs::read_to_string(&tr).unwrap();
        assert!(trace.contains("traceEvents"));
        assert!(trace.contains("\"ph\":\"X\""));
        // Fault injection is plumbed through: an injected run completes
        // (recovered faults only add simulated time).
        dispatch(&sv(&[
            "run",
            "pagerank",
            "--store",
            &st,
            "--iterations",
            "2",
            "--storage",
            "ssd:2",
            "--fault-seed",
            "7",
        ]))
        .unwrap();
        assert_eq!(
            dispatch(&sv(&["run", "bfs", "--store", &st, "--fault-seed", "x"]))
                .unwrap_err()
                .exit_code(),
            EXIT_USAGE
        );
        // A failed run still writes the partial trace (engine failures get
        // their own exit code, distinct from usage and I/O errors).
        let failed_tr = tmp("failed-trace.json");
        let err = dispatch(&sv(&[
            "run",
            "bfs",
            "--store",
            &st,
            "--device-memory",
            "1024",
            "--trace-out",
            &failed_tr,
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), EXIT_ENGINE, "{err}");
        let partial = std::fs::read_to_string(&failed_tr).unwrap();
        assert!(partial.contains("traceEvents"));
        std::fs::remove_file(&failed_tr).ok();
        std::fs::remove_file(&tr).ok();
        std::fs::remove_file(&el).ok();
        std::fs::remove_file(&st).ok();
    }

    #[test]
    fn helpful_errors_with_classified_exit_codes() {
        for usage in [
            sv(&["frobnicate"]),
            sv(&["run", "bfs"]),
            sv(&["generate", "--kind", "nope", "--out", "/tmp/x"]),
        ] {
            let err = dispatch(&usage).unwrap_err();
            assert_eq!(err.exit_code(), EXIT_USAGE, "{err}");
        }
        let err = dispatch(&sv(&["run", "bfs", "--store", "/nonexistent-gts-file"])).unwrap_err();
        assert_eq!(err.exit_code(), EXIT_IO);
        let msg = err.to_string();
        assert!(msg.contains("i/o") || msg.contains("No such file"), "{msg}");

        // Values the libraries guard with `assert!` are usage errors
        // naming the flag at the CLI boundary, never a panic.
        let el = tmp("he.el");
        let st = tmp("he.gts");
        let wl = tmp("he.wl");
        let wl0 = tmp("he0.wl");
        dispatch(&sv(&[
            "generate", "--kind", "rmat", "--scale", "8", "--out", &el,
        ]))
        .unwrap();
        dispatch(&sv(&[
            "build",
            "--graph",
            &el,
            "--out",
            &st,
            "--page-size",
            "4096",
        ]))
        .unwrap();
        std::fs::write(&wl, "at=0 tenant=a job=bfs\n").unwrap();
        std::fs::write(&wl0, "at=0 tenant=a job=pagerank iters=0\n").unwrap();
        let build = ["build", "--graph", &el, "--out", "/tmp/x"];
        let generate = ["generate", "--out", "/tmp/x", "--kind"];
        let run = ["run", "pagerank", "--store", &st];
        let serve = ["serve", "--store", &st, "--workload"];
        let mutate = ["run", "bfs", "--store", &st, "--mutate-at", "1"];
        let cases: &[(&[&str], &[&str], &str)] = &[
            (&build, &["--page-size", "8"], "--page-size 8"),
            (&build, &["--page-size", "48"], "--page-size 48"),
            (&build, &["--page-size", "1310721"], "--page-size 1310721"),
            (&build, &["--p", "0"], "--p 0"),
            (&build, &["--q", "9"], "--q 9"),
            (&generate, &["erdos", "--vertices", "0"], "--vertices 0"),
            (&generate, &["web", "--vertices", "3"], "--vertices 3"),
            (&generate, &["rmat", "--scale", "32"], "--scale 32"),
            (&run, &["--iterations", "0"], "--iterations 0"),
            (&run, &["--storage", "ssd:0"], "--storage \"ssd:0\""),
            (&run, &["--storage", "hdd:0"], "--storage \"hdd:0\""),
            (&serve, &[&wl0], "line 1: iters=0 out of range"),
            (&serve, &[&wl, "--storage", "ssd:0"], "--storage \"ssd:0\""),
            // `gts run` refuses what the workload parser refuses, with the
            // parser's own bounds.
            (
                &mutate,
                &["--mutate-inserts", "2000000"],
                "--mutate-inserts 2000000",
            ),
            (&mutate, &["--mutate-inserts", "2000000"], "max 1000000"),
            (
                &mutate,
                &["--mutate-deletes", "2000000"],
                "--mutate-deletes 2000000",
            ),
            (&mutate, &["--mutate-deletes", "2000000"], "max 1000000"),
            (&run, &["--iterations", "1000001"], "--iterations 1000001"),
            (&run, &["--iterations", "1000001"], "max 1000000"),
            (&run, &["--k", "1000001"], "--k 1000001"),
            (&run, &["--k", "1000001"], "max 1000000"),
            (&run, &["--source", "256"], "source 256 out of range"),
            // Stray positionals are named, not ignored.
            (&run, &["bfs"], "unexpected argument \"bfs\""),
            (&["info", &st], &["extra"], "unexpected argument \"extra\""),
            (
                &["fsck", "--store", &st],
                &["stray"],
                "unexpected argument \"stray\"",
            ),
            (
                &generate,
                &["rmat", "extra"],
                "unexpected argument \"extra\"",
            ),
            (&build, &["extra"], "unexpected argument \"extra\""),
            (&serve, &[&wl, "extra"], "unexpected argument \"extra\""),
            (&["help"], &["extra"], "unexpected argument \"extra\""),
            (&build, &["--gpus", "2"], "unknown flag --gpus"),
            (&["run", "--store", &st], &[], "usage: gts run"),
            (
                &["run", "frobnicate", "--store", &st],
                &[],
                "unknown algorithm",
            ),
        ];
        for (cmd, flags, needle) in cases {
            let mut argv = sv(cmd);
            argv.extend(sv(flags));
            let err = dispatch(&argv).unwrap_err();
            assert_eq!(err.exit_code(), EXIT_USAGE, "{flags:?}: {err}");
            assert!(
                err.to_string().contains(needle),
                "{flags:?}: error {err:?} does not name {needle:?}"
            );
        }
        // One bound, from `workload::limits`: its largest value is taken
        // by `gts run`'s flag and by a workload line alike.
        let max = gts_serve::workload::limits::ITERS_MAX;
        let mut args = Args::parse(&sv(&["run", "pagerank", "--iterations", &max.to_string()]));
        let args = args.as_mut().unwrap();
        args.declare(synopsis("run")).unwrap();
        assert_eq!(job_spec(args).unwrap().iterations, max);
        let line = format!("at=0 tenant=a job=pagerank iters={max}");
        assert_eq!(gts_serve::parse(&line).unwrap()[0].iterations, max);
        for f in [&el, &st, &wl, &wl0] {
            std::fs::remove_file(f).ok();
        }
    }

    /// Every malformed checkpoint/watchdog/chaos flag is a typed usage
    /// error (exit 2) naming the flag — one case per flag.
    #[test]
    fn checkpoint_and_watchdog_flags_validate() {
        let cases: &[(&[&str], &str)] = &[
            (&["--checkpoint-every", "x"], "--checkpoint-every"),
            (&["--checkpoint-every", "2"], "--checkpoint-dir"),
            (&["--resume", "true"], "--checkpoint-dir"),
            (&["--checkpoint-dir", "d", "--resume", "yes"], "--resume"),
            (
                &["--checkpoint-dir", "d", "--checkpoint-every", "0"],
                "checkpoint.every",
            ),
            (&["--run-budget", "soon"], "--run-budget"),
            (&["--run-budget", "0"], "run_budget_ns"),
            (&["--sweep-deadline", "-1"], "--sweep-deadline"),
            (&["--sweep-deadline", "0"], "sweep_deadline_ns"),
            (&["--crash-at-step", "x"], "--crash-at-step"),
            (&["--crash-at-step", "-1"], "--crash-at-step"),
            (&["--json", "yes"], "--json"),
            (&["--json", "--host-threads", "4"], "--json needs a value"),
            (&["--mutate-at", "x"], "--mutate-at"),
            (&["--mutate-inserts", "5"], "--mutate-at"),
            (&["--mutate-deletes", "5"], "--mutate-at"),
            (&["--mutate-seed", "5"], "--mutate-at"),
            (&["--scrub-every", "x"], "--scrub-every"),
            (&["--scrub-every", "0"], "--scrub-every"),
            (&["--bit-rot-ppm", "lots"], "--bit-rot-ppm"),
        ];
        // A real store so validation (not a missing file) is what fails.
        let el = tmp("v.el");
        let st = tmp("v.gts");
        dispatch(&sv(&[
            "generate", "--kind", "rmat", "--scale", "8", "--out", &el,
        ]))
        .unwrap();
        dispatch(&sv(&[
            "build",
            "--graph",
            &el,
            "--out",
            &st,
            "--page-size",
            "4096",
        ]))
        .unwrap();
        for (flags, needle) in cases {
            let mut argv = sv(&["run", "bfs", "--store", &st]);
            argv.extend(sv(flags));
            let err = dispatch(&argv).unwrap_err();
            assert_eq!(err.exit_code(), EXIT_USAGE, "{flags:?}: {err}");
            assert!(
                err.to_string().contains(needle),
                "{flags:?}: error {err:?} does not name {needle:?}"
            );
        }
        std::fs::remove_file(&el).ok();
        std::fs::remove_file(&st).ok();
    }

    /// The flags work end to end: checkpoint, injected kill (engine exit
    /// code), resume to completion, counters dumped as sorted lines.
    #[test]
    fn kill_and_resume_through_the_cli() {
        let el = tmp("kr.el");
        let st = tmp("kr.gts");
        let ck = tmp("kr-ckpts");
        let counters = tmp("kr-counters.txt");
        std::fs::remove_dir_all(&ck).ok();
        dispatch(&sv(&[
            "generate", "--kind", "rmat", "--scale", "9", "--out", &el,
        ]))
        .unwrap();
        dispatch(&sv(&[
            "build",
            "--graph",
            &el,
            "--out",
            &st,
            "--page-size",
            "4096",
        ]))
        .unwrap();
        let run = |extra: &[&str]| {
            let mut argv = sv(&[
                "run",
                "pagerank",
                "--store",
                &st,
                "--iterations",
                "6",
                "--storage",
                "ssd:2",
                "--checkpoint-dir",
                &ck,
                "--checkpoint-every",
                "2",
            ]);
            argv.extend(sv(extra));
            dispatch(&argv)
        };
        // A checkpoint is eight durable steps: die entering the second
        // one, with the sweep-2 snapshot published.
        let err = run(&["--crash-at-step", "8"]).unwrap_err();
        assert_eq!(err.exit_code(), EXIT_ENGINE, "{err}");
        assert!(err.to_string().contains("injected crash"), "{err}");
        run(&["--resume", "true", "--counters-out", &counters]).unwrap();
        let dump = std::fs::read_to_string(&counters).unwrap();
        let keys: Vec<&str> = dump.lines().map(|l| l.split_once(' ').unwrap().0).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "counters must be sorted");
        assert!(dump.contains("run.sweeps "), "{dump}");
        // A deadline abort is the engine's typed failure, trace intact.
        let tr = tmp("kr-deadline-trace.json");
        let err = run(&["--run-budget", "1", "--trace-out", &tr]).unwrap_err();
        assert_eq!(err.exit_code(), EXIT_ENGINE, "{err}");
        assert!(err.to_string().contains("run_budget_ns"), "{err}");
        assert!(std::fs::read_to_string(&tr)
            .unwrap()
            .contains("traceEvents"));
        std::fs::remove_file(&tr).ok();
        std::fs::remove_file(&counters).ok();
        std::fs::remove_file(&el).ok();
        std::fs::remove_file(&st).ok();
        std::fs::remove_dir_all(&ck).ok();
    }

    /// A resume is the crashed run or nothing: resuming with another
    /// device memory (which sizes the page cache) or another checkpoint
    /// cadence (a checkpoint boundary empties the caches) is refused
    /// with the typed fingerprint mismatch, and the same flags resume.
    #[test]
    fn a_resume_with_another_device_memory_or_cadence_is_refused() {
        let el = tmp("fp.el");
        let st = tmp("fp.gts");
        let ck = tmp("fp-ckpts");
        std::fs::remove_dir_all(&ck).ok();
        dispatch(&sv(&[
            "generate", "--kind", "rmat", "--scale", "9", "--out", &el,
        ]))
        .unwrap();
        dispatch(&sv(&[
            "build",
            "--graph",
            &el,
            "--out",
            &st,
            "--page-size",
            "4096",
        ]))
        .unwrap();
        let run = |memory: &str, every: &str, extra: &[&str]| {
            let mut argv = sv(&[
                "run",
                "pagerank",
                "--store",
                &st,
                "--iterations",
                "8",
                "--storage",
                "ssd:2",
                "--checkpoint-dir",
                &ck,
                "--device-memory",
                memory,
                "--checkpoint-every",
                every,
            ]);
            argv.extend(sv(extra));
            dispatch(&argv)
        };
        // Die inside the sweep-6 checkpoint, the sweep-3 one published.
        let err = run("200000000", "3", &["--crash-at-step", "10"]).unwrap_err();
        assert!(err.to_string().contains("injected crash"), "{err}");
        for (memory, every) in [("300000", "3"), ("200000000", "1")] {
            let err = run(memory, every, &["--resume", "true"]).unwrap_err();
            assert_eq!(err.exit_code(), EXIT_ENGINE, "{err}");
            assert!(err.to_string().contains("config fingerprint"), "{err}");
        }
        run("200000000", "3", &["--resume", "true"]).unwrap();
        std::fs::remove_file(&el).ok();
        std::fs::remove_file(&st).ok();
        std::fs::remove_dir_all(&ck).ok();
    }

    /// The durability surface end to end: a kill in the WAL append's
    /// write step leaves a torn tail that `gts fsck` reports (exit 4),
    /// resume repairs and completes, and fsck then signs off on every
    /// artifact (exit 0).
    #[test]
    fn wal_crash_fsck_and_recover_through_the_cli() {
        let el = tmp("wal.el");
        let st = tmp("wal.gts");
        let ck = tmp("wal-ckpts");
        let wd = tmp("wal-log");
        std::fs::remove_dir_all(&ck).ok();
        std::fs::remove_dir_all(&wd).ok();
        dispatch(&sv(&[
            "generate", "--kind", "rmat", "--scale", "8", "--out", &el,
        ]))
        .unwrap();
        dispatch(&sv(&[
            "build",
            "--graph",
            &el,
            "--out",
            &st,
            "--page-size",
            "4096",
        ]))
        .unwrap();
        let run = |extra: &[&str]| {
            let mut argv = sv(&[
                "run",
                "pagerank",
                "--store",
                &st,
                "--iterations",
                "6",
                "--checkpoint-dir",
                &ck,
                "--checkpoint-every",
                "2",
                "--wal-dir",
                &wd,
                "--mutate-at",
                "3",
                "--mutate-inserts",
                "32",
            ]);
            argv.extend(sv(extra));
            dispatch(&argv)
        };
        // Log creation is steps 0-3, the sweep-2 checkpoint 4-11, so 12
        // is the write of the sweep-3 batch's frame.
        let err = run(&["--crash-at-step", "12"]).unwrap_err();
        assert_eq!(err.exit_code(), EXIT_ENGINE, "{err}");
        assert!(err.to_string().contains("injected crash"), "{err}");
        // fsck sees the torn tail the kill left behind.
        let fsck = |extra: &[&str]| {
            let mut argv = sv(&["fsck", "--store", &st]);
            argv.extend(sv(extra));
            dispatch(&argv)
        };
        let err = fsck(&["--wal-dir", &wd, "--checkpoint-dir", &ck]).unwrap_err();
        assert_eq!(err.exit_code(), EXIT_ENGINE, "{err}");
        assert!(err.to_string().contains("finding"), "{err}");
        // Resume repairs the tail, replays the log, and finishes the run.
        run(&["--resume", "true"]).unwrap();
        fsck(&["--wal-dir", &wd, "--checkpoint-dir", &ck]).unwrap();
        // A rotted byte inside a sealed record that has successors is a
        // finding as well — damage, not a torn tail a resume may cut off.
        let rot = tmp("wal-rot");
        std::fs::remove_dir_all(&rot).ok();
        let store: GraphStore = load_store(&st).unwrap();
        let mut wal = gts_storage::Wal::open(&rot, &store).unwrap();
        for epoch in 0..3 {
            let mut b = gts_storage::MutationBatch::new();
            b.insert(epoch, epoch + 1);
            wal.log_batch(&b, epoch, epoch + 1).unwrap();
        }
        let mut raw = std::fs::read(wal.path()).unwrap();
        let mid = raw.len() / 2; // inside the first of the three records
        raw[mid] ^= 0x01;
        std::fs::write(wal.path(), &raw).unwrap();
        let err = fsck(&["--wal-dir", &rot]).unwrap_err();
        assert_eq!(err.exit_code(), EXIT_ENGINE, "{err}");
        assert_eq!(std::fs::read(wal.path()).unwrap(), raw, "fsck is read-only");
        std::fs::remove_dir_all(&rot).ok();
        // fsck's own argument and I/O failures stay classified.
        let err = dispatch(&sv(&["fsck"])).unwrap_err();
        assert_eq!(err.exit_code(), EXIT_USAGE, "{err}");
        let err = dispatch(&sv(&["fsck", "--store", "/nonexistent-gts-file"])).unwrap_err();
        assert_eq!(err.exit_code(), EXIT_IO, "{err}");
        let err = fsck(&["--wal-dir", &tmp("wal-no-such-log")]).unwrap_err();
        assert_eq!(err.exit_code(), EXIT_IO, "{err}");
        std::fs::remove_file(&el).ok();
        std::fs::remove_file(&st).ok();
        std::fs::remove_dir_all(&ck).ok();
        std::fs::remove_dir_all(&wd).ok();
    }

    /// A mutate-while-sweep run is byte-identical at any host-thread
    /// count — the CI determinism job diffs exactly these counter dumps.
    #[test]
    fn mutate_while_sweep_is_thread_count_invariant() {
        let el = tmp("mut.el");
        let st = tmp("mut.gts");
        dispatch(&sv(&[
            "generate", "--kind", "rmat", "--scale", "9", "--out", &el,
        ]))
        .unwrap();
        dispatch(&sv(&[
            "build",
            "--graph",
            &el,
            "--out",
            &st,
            "--page-size",
            "4096",
        ]))
        .unwrap();
        let dump = |threads: &str, out: &str| {
            dispatch(&sv(&[
                "run",
                "bfs",
                "--store",
                &st,
                "--mutate-at",
                "1",
                "--mutate-inserts",
                "48",
                "--mutate-deletes",
                "8",
                "--host-threads",
                threads,
                "--counters-out",
                out,
            ]))
            .unwrap();
            std::fs::read_to_string(out).unwrap()
        };
        let c1 = tmp("mut-counters-1.txt");
        let c4 = tmp("mut-counters-4.txt");
        let one = dump("1", &c1);
        let four = dump("4", &c4);
        assert_eq!(one, four, "mutated run must not depend on host threads");
        assert!(one.contains("mut.batches 1"), "{one}");
        assert!(one.contains("mut.inserted 48"), "{one}");
        assert!(one.contains("mut.deleted 8"), "{one}");
        assert!(one.contains("mut.epoch 1"), "{one}");
        for p in [&el, &st, &c1, &c4] {
            std::fs::remove_file(p).ok();
        }
    }

    /// Every malformed `serve` flag is a typed usage error (exit 2)
    /// naming the flag or field — one case per flag, mirroring the
    /// `--mutate-*`/`--checkpoint-*` validation contract.
    #[test]
    fn serve_flags_validate() {
        let el = tmp("sv.el");
        let st = tmp("sv.gts");
        let wl = tmp("sv.wl");
        dispatch(&sv(&[
            "generate", "--kind", "rmat", "--scale", "8", "--out", &el,
        ]))
        .unwrap();
        dispatch(&sv(&[
            "build",
            "--graph",
            &el,
            "--out",
            &st,
            "--page-size",
            "4096",
        ]))
        .unwrap();
        std::fs::write(&wl, "at=0 tenant=a job=bfs\n").unwrap();
        let cases: &[(&[&str], &str)] = &[
            (&["--slots", "three"], "--slots"),
            (&["--slots", "0"], "slots"),
            (&["--queue-cap", "x"], "--queue-cap"),
            (&["--queue-cap", "0"], "queue_capacity"),
            (&["--tenant-queue-cap", "x"], "--tenant-queue-cap"),
            (&["--tenant-queue-cap", "0"], "tenant_queue_capacity"),
            (&["--deadline", "soon"], "--deadline"),
            (&["--deadline", "0"], "deadline_ns"),
            (&["--host-threads", "zero"], "--host-threads"),
            (&["--strategy", "q"], "--strategy"),
            (&["--fault-seed", "lucky"], "--fault-seed"),
            (&["--retry-max", "x"], "--retry-max"),
            (&["--backoff-base", "x"], "--backoff-base"),
            (&["--backoff-base", "0"], "backoff_base_ns"),
            (&["--breaker-threshold", "x"], "--breaker-threshold"),
            (&["--breaker-cooldown", "x"], "--breaker-cooldown"),
            (
                &["--breaker-threshold", "2", "--breaker-cooldown", "0"],
                "breaker_cooldown_ns",
            ),
            (&["--shed-watermark", "hot"], "--shed-watermark"),
            (&["--shed-watermark", "150"], "shed_watermark_pct"),
            (&["--shed-watermark", "0"], "shed_watermark_pct 0"),
            (&["--crash-at-step", "x"], "--crash-at-step"),
            (&["--resume-serve", "true"], "--journal-dir"),
            (
                &["--journal-dir", "d", "--resume-serve", "True"],
                "--resume-serve",
            ),
            (&["--json", "yes"], "--json"),
            (&["--json", "--host-threads", "4"], "--json needs a value"),
            (&["--mutate-at", "1"], "unknown flag"),
            (&["--checkpoint-dir", "d"], "unknown flag"),
        ];
        for (flags, needle) in cases {
            let mut argv = sv(&["serve", "--store", &st, "--workload", &wl]);
            argv.extend(sv(flags));
            let err = dispatch(&argv).unwrap_err();
            assert_eq!(err.exit_code(), EXIT_USAGE, "{flags:?}: {err}");
            assert!(
                err.to_string().contains(needle),
                "{flags:?}: error {err:?} does not name {needle:?}"
            );
        }
        // A malformed workload line is a usage error naming file + line.
        std::fs::write(&wl, "at=0 tenant=a job=frobnicate\n").unwrap();
        let err = dispatch(&sv(&["serve", "--store", &st, "--workload", &wl])).unwrap_err();
        assert_eq!(err.exit_code(), EXIT_USAGE, "{err}");
        assert!(err.to_string().contains("line 1"), "{err}");
        // A missing workload file is an I/O error, not usage.
        let err = dispatch(&sv(&[
            "serve",
            "--store",
            &st,
            "--workload",
            "/nonexistent-gts-workload",
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), EXIT_IO, "{err}");
        for p in [&el, &st, &wl] {
            std::fs::remove_file(p).ok();
        }
    }

    /// `gts serve` end to end: the scripted workload runs, writes the
    /// per-job and service dumps, and both are byte-identical at 1 vs 4
    /// host threads — the same diff the CI serve-smoke job performs.
    #[test]
    fn serve_is_host_thread_invariant_through_the_cli() {
        let el = tmp("serve.el");
        let st = tmp("serve.gts");
        let wl = tmp("serve.wl");
        dispatch(&sv(&[
            "generate", "--kind", "rmat", "--scale", "9", "--out", &el,
        ]))
        .unwrap();
        dispatch(&sv(&[
            "build",
            "--graph",
            &el,
            "--out",
            &st,
            "--page-size",
            "4096",
        ]))
        .unwrap();
        std::fs::write(
            &wl,
            "# serve smoke\n\
             at=0      tenant=a job=bfs\n\
             at=100000 tenant=b job=pagerank iters=3\n\
             at=200000 tenant=a job=cc\n\
             at=300000 tenant=m job=bfs mutate-at=1 inserts=16 deletes=2 seed=5\n\
             at=400000 tenant=b job=bfs source=1\n",
        )
        .unwrap();
        let dump = |threads: &str, jobs: &str, counters: &str| {
            dispatch(&sv(&[
                "serve",
                "--store",
                &st,
                "--workload",
                &wl,
                "--slots",
                "2",
                "--host-threads",
                threads,
                "--jobs-out",
                jobs,
                "--counters-out",
                counters,
            ]))
            .unwrap();
            (
                std::fs::read_to_string(jobs).unwrap(),
                std::fs::read_to_string(counters).unwrap(),
            )
        };
        let j1 = tmp("serve-jobs-1.txt");
        let c1 = tmp("serve-counters-1.txt");
        let j4 = tmp("serve-jobs-4.txt");
        let c4 = tmp("serve-counters-4.txt");
        let (jobs_one, counters_one) = dump("1", &j1, &c1);
        let (jobs_four, counters_four) = dump("4", &j4, &c4);
        assert_eq!(
            jobs_one, jobs_four,
            "per-job dumps must not depend on host threads"
        );
        assert_eq!(counters_one, counters_four);
        assert_eq!(jobs_one.matches("status=completed").count(), 5);
        assert!(jobs_one.contains("job.3.mut.batches 1"), "{jobs_one}");
        assert!(jobs_one.contains("job.0.tenant.a.cache.bytes_streamed"));
        assert!(
            counters_one.contains("serve.lat.all.count 5"),
            "{counters_one}"
        );
        assert!(counters_one.contains("serve.epochs 1"));
        let keys: Vec<&str> = counters_one
            .lines()
            .map(|l| l.split_once(' ').unwrap().0)
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "counters must be sorted");
        for p in [&el, &st, &wl, &j1, &c1, &j4, &c4] {
            std::fs::remove_file(p).ok();
        }
    }

    /// Every job status renders a stable machine-readable word in the
    /// `--jobs-out` dump — scripts grep these, so each variant must map
    /// to a distinct word.
    #[test]
    fn status_words_cover_every_variant() {
        let cases: &[(JobStatus, &str)] = &[
            (JobStatus::Completed, "completed"),
            (
                JobStatus::Dropped(ServeError::QueueFull {
                    waiting: 1,
                    capacity: 1,
                }),
                "dropped:queue_full",
            ),
            (
                JobStatus::Dropped(ServeError::Rejected {
                    tenant: "a".into(),
                    waiting: 1,
                    capacity: 1,
                }),
                "dropped:rejected",
            ),
            (
                JobStatus::Dropped(ServeError::Deadline {
                    waited_ns: 2,
                    deadline_ns: 1,
                }),
                "dropped:deadline",
            ),
            (
                JobStatus::Dropped(ServeError::BreakerOpen {
                    tenant: "a".into(),
                    failures: 3,
                    until_ns: 9,
                }),
                "dropped:breaker_open",
            ),
            (
                JobStatus::Dropped(ServeError::Shed {
                    class: "cc".into(),
                    pressure_pct: 50,
                    watermark_pct: 40,
                }),
                "dropped:shed",
            ),
            (
                JobStatus::Failed {
                    error: "engine: gpu fault".into(),
                },
                "failed",
            ),
            (
                JobStatus::Quarantined {
                    error: "engine: gpu fault".into(),
                    attempts: 3,
                },
                "quarantined",
            ),
        ];
        for (status, word) in cases {
            assert_eq!(status_word(status), *word);
        }
    }

    /// `gts serve` with a fault template and retries, end to end: some
    /// jobs fail or quarantine (typed statuses, never an abort), the
    /// retry/quarantine counters land in `--counters-out`, and the whole
    /// dump is byte-identical at 1 vs 4 host threads — the CI
    /// serve-chaos diff.
    #[test]
    fn serve_chaos_is_host_thread_invariant_through_the_cli() {
        let el = tmp("chaos.el");
        let st = tmp("chaos.gts");
        let wl = tmp("chaos.wl");
        dispatch(&sv(&[
            "generate", "--kind", "rmat", "--scale", "8", "--out", &el,
        ]))
        .unwrap();
        dispatch(&sv(&["build", "--graph", &el, "--out", &st])).unwrap();
        std::fs::write(
            &wl,
            "at=0      tenant=a job=bfs\n\
             at=10000  tenant=b job=pagerank iters=3\n\
             at=20000  tenant=a job=cc\n\
             at=30000  tenant=c job=sssp\n\
             at=40000  tenant=b job=degrees\n\
             at=50000  tenant=c job=kcore k=2\n",
        )
        .unwrap();
        let dump = |seed: &str, threads: &str, jobs: &str, counters: &str| {
            dispatch(&sv(&[
                "serve",
                "--store",
                &st,
                "--workload",
                &wl,
                "--slots",
                "2",
                "--fault-seed",
                seed,
                "--retry-max",
                "2",
                "--backoff-base",
                "1000",
                "--host-threads",
                threads,
                "--jobs-out",
                jobs,
                "--counters-out",
                counters,
            ]))
            .unwrap();
            (
                std::fs::read_to_string(jobs).unwrap(),
                std::fs::read_to_string(counters).unwrap(),
            )
        };
        let j1 = tmp("chaos-jobs-1.txt");
        let c1 = tmp("chaos-counters-1.txt");
        let j4 = tmp("chaos-jobs-4.txt");
        let c4 = tmp("chaos-counters-4.txt");
        // The fault template is seed-derived, so scan deterministically
        // for a seed whose derived domains actually quarantine a job —
        // the interesting path — then pin the invariance on that seed.
        let seed = (0u64..64)
            .map(|s| s.to_string())
            .find(|s| {
                let (jobs, _) = dump(s, "1", &j1, &c1);
                jobs.contains("status=quarantined")
            })
            .expect("no seed in 0..64 quarantines a job");
        let (jobs_one, counters_one) = dump(&seed, "1", &j1, &c1);
        let (jobs_four, counters_four) = dump(&seed, "4", &j4, &c4);
        assert_eq!(
            jobs_one, jobs_four,
            "chaos per-job dump must not depend on host threads"
        );
        assert_eq!(counters_one, counters_four);
        assert!(
            counters_one.contains("serve.quarantine.jobs"),
            "{counters_one}"
        );
        assert!(
            counters_one.contains("serve.retry.attempts"),
            "{counters_one}"
        );
        assert!(jobs_one.contains("attempts=3"), "{jobs_one}");
        for p in [&el, &st, &wl, &j1, &c1, &j4, &c4] {
            std::fs::remove_file(p).ok();
        }
    }

    /// Kill-and-resume through the CLI: `--crash-at-step` exits with
    /// the engine code mid-workload, `--resume-serve` replays from the
    /// journal, and both dumps match an uncrashed run byte-for-byte
    /// (modulo the wall-side `serve.journal.*`/`serve.resume.*` keys).
    /// Resuming from an empty journal directory is an I/O error.
    #[test]
    fn serve_crash_and_resume_through_the_cli() {
        let el = tmp("resume.el");
        let st = tmp("resume.gts");
        let wl = tmp("resume.wl");
        let dir = tmp("resume-journal");
        std::fs::create_dir_all(&dir).unwrap();
        dispatch(&sv(&[
            "generate", "--kind", "rmat", "--scale", "8", "--out", &el,
        ]))
        .unwrap();
        dispatch(&sv(&["build", "--graph", &el, "--out", &st])).unwrap();
        std::fs::write(
            &wl,
            "at=0      tenant=a job=bfs\n\
             at=10000  tenant=b job=pagerank iters=3\n\
             at=20000  tenant=m job=bfs mutate-at=1 inserts=16 deletes=2 seed=5\n\
             at=30000  tenant=a job=cc\n\
             at=40000  tenant=b job=sssp\n",
        )
        .unwrap();
        let base = sv(&["serve", "--store", &st, "--workload", &wl, "--slots", "2"]);
        let outputs = |tag: &str| (tmp(&format!("{tag}-jobs")), tmp(&format!("{tag}-counters")));
        let run = |extra: &[&str], jobs: &str, counters: &str| {
            let mut argv = base.clone();
            argv.extend(sv(extra));
            argv.extend(sv(&["--jobs-out", jobs, "--counters-out", counters]));
            dispatch(&argv)
        };
        // Resuming before any journal exists is an I/O failure (exit 3).
        let (rj, rc) = outputs("resume");
        let err = run(&["--journal-dir", &dir, "--resume-serve", "true"], &rj, &rc).unwrap_err();
        assert_eq!(err.exit_code(), EXIT_IO, "{err}");
        // Uncrashed baseline, no journal.
        let (bj, bc) = outputs("base");
        run(&[], &bj, &bc).unwrap();
        // Journal creation is steps 0-3 and the first read wave's frame
        // 4-5: die writing the mutating job's frame. Engine failure
        // (exit 4).
        let (cj, cc) = outputs("crash");
        let err = run(&["--journal-dir", &dir, "--crash-at-step", "6"], &cj, &cc).unwrap_err();
        assert_eq!(err.exit_code(), EXIT_ENGINE, "{err}");
        assert!(err.to_string().contains("injected crash"), "{err}");
        // Resume from the journal: byte-identical to the baseline.
        run(&["--journal-dir", &dir, "--resume-serve", "true"], &rj, &rc).unwrap();
        assert_eq!(
            std::fs::read_to_string(&bj).unwrap(),
            std::fs::read_to_string(&rj).unwrap(),
            "resumed per-job dump must match the uncrashed run"
        );
        let resumed = std::fs::read_to_string(&rc).unwrap();
        assert!(resumed.contains("serve.resume.cached"), "{resumed}");
        dispatch(&sv(&["diff-counters", &bc, &rc]))
            .expect("resumed counters must match the uncrashed run");
        for p in [&el, &st, &wl, &bj, &bc, &cj, &cc, &rj, &rc] {
            std::fs::remove_file(p).ok();
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `gts fsck` over a served journal and its WAL: clean after the
    /// run; against a WAL holding fewer records than the journal has
    /// epoch bumps, a finding naming the stray epoch (exit 4). A journal
    /// of the previous layout (version 4, bound to the store by another
    /// fingerprint) is refused by `--resume-serve` with a typed version
    /// mismatch (exit 3) and reported by fsck.
    #[test]
    fn serve_journal_and_wal_through_fsck() {
        let (el, st, wl, wl1) = (
            tmp("jfsck.el"),
            tmp("jfsck.gts"),
            tmp("jfsck.wl"),
            tmp("jfsck1.wl"),
        );
        let dirs = [
            tmp("jfsck-j"),
            tmp("jfsck-w"),
            tmp("jfsck-j1"),
            tmp("jfsck-w1"),
        ];
        let [j, w, j1, w1] = &dirs;
        for d in &dirs {
            std::fs::remove_dir_all(d).ok();
        }
        dispatch(&sv(&[
            "generate", "--kind", "rmat", "--scale", "8", "--out", &el,
        ]))
        .unwrap();
        dispatch(&sv(&["build", "--graph", &el, "--out", &st])).unwrap();
        let one = "at=0    tenant=a job=bfs\n\
                   at=1000 tenant=m job=bfs mutate-at=1 inserts=16 deletes=2 seed=5\n";
        std::fs::write(&wl1, one).unwrap();
        std::fs::write(
            &wl,
            format!("{one}at=2000 tenant=m job=cc mutate-at=1 inserts=8 seed=7\n"),
        )
        .unwrap();
        let serve = |wl: &str, j: &str, w: &str, extra: &[&str]| {
            let mut argv = sv(&["serve", "--store", &st, "--workload", wl]);
            argv.extend(sv(&["--journal-dir", j, "--wal-dir", w]));
            argv.extend(sv(extra));
            dispatch(&argv)
        };
        serve(&wl, j, w, &[]).unwrap();
        serve(&wl1, j1, w1, &[]).unwrap();
        let argv =
            |j: &str, w: &str| sv(&["fsck", "--store", &st, "--journal-dir", j, "--wal-dir", w]);
        let findings = |j: &str, w: &str| -> Vec<String> {
            let mut args = Args::parse(&argv(j, w)).unwrap();
            let cmd = COMMANDS.iter().find(|c| c.name() == "fsck").unwrap();
            args.declare(cmd.synopsis).unwrap();
            let (_, found) = fsck_findings(&args).unwrap();
            found.into_iter().map(|f| f.detail).collect()
        };
        dispatch(&argv(j, w)).unwrap();
        assert_eq!(findings(j, w), Vec::<String>::new());
        // The two-mutation journal against the one-record log.
        let err = dispatch(&argv(j, w1)).unwrap_err();
        assert_eq!(err.exit_code(), EXIT_ENGINE, "{err}");
        assert_eq!(
            findings(j, w1),
            ["journaled epoch 2 outside the log's chain (0, 1]"]
        );
        // Patch the header's version field (after the 8-byte magic).
        let log = std::path::Path::new(j).join(gts_serve::journal::JOURNAL_FILE);
        let mut raw = std::fs::read(&log).unwrap();
        raw[8..12].copy_from_slice(&4u32.to_le_bytes());
        std::fs::write(&log, &raw).unwrap();
        let err = serve(&wl, j, w, &["--resume-serve", "true"]).unwrap_err();
        assert_eq!(err.exit_code(), EXIT_IO, "{err}");
        assert!(
            err.to_string()
                .contains("schema version 4 is not supported"),
            "{err}"
        );
        let found = findings(j, w);
        assert!(
            found.len() == 1 && found[0].contains("schema version 4"),
            "{found:?}"
        );
        assert_eq!(std::fs::read(&log).unwrap(), raw, "fsck is read-only");
        for f in [&el, &st, &wl, &wl1] {
            std::fs::remove_file(f).ok();
        }
        for d in &dirs {
            std::fs::remove_dir_all(d).ok();
        }
    }

    /// A finding's detail may carry anything an OS error string or a
    /// path can: the JSON report escapes it all, not just `\\` and `"`.
    #[test]
    fn fsck_json_escapes_finding_details() {
        let findings = [Finding {
            artifact: "wal",
            detail: "open \"a\\b\":\n\tdenied\u{1}".into(),
        }];
        assert_eq!(
            findings_json(&["store", "wal"], &findings),
            "{\"checked\":[\"store\",\"wal\"],\"findings\":[{\"artifact\":\"wal\",\
             \"detail\":\"open \\\"a\\\\b\\\":\\n\\tdenied\\u0001\"}]}"
        );
        assert_eq!(
            findings_json(&["store"], &[]),
            "{\"checked\":[\"store\"],\"findings\":[]}"
        );
    }

    #[test]
    fn storage_flag_parsing() {
        assert!(matches!(
            parse_storage("mem"),
            Ok(StorageLocation::InMemory)
        ));
        assert!(matches!(
            parse_storage("ssd:2"),
            Ok(StorageLocation::Ssds(2))
        ));
        assert!(matches!(
            parse_storage("hdd:4"),
            Ok(StorageLocation::Hdds(4))
        ));
        assert!(parse_storage("floppy:1").is_err());
        assert!(parse_storage("ssd:x").is_err());
        assert!(parse_storage("ssd:0").is_err());
        assert!(parse_storage("hdd:0").is_err());
    }
}
