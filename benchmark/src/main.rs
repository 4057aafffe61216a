//! `gts-benchmark` — the repository's benchmark.
//!
//! ```text
//! gts-benchmark --workload NAME --seed N --seconds S --trace 0|1   one workload (the driver's form)
//! gts-benchmark [--seed N] [--seconds S] [--trace] [--out FILE]    the whole set, one process per workload
//! gts-benchmark --smoke                                            small scales + traced pass + validation
//! gts-benchmark --compare A.json B.json                            check two result sets against the bounds
//! gts-benchmark --spread A.json B.json ...                         run-to-run spread of each metric against its bound
//! ```
//!
//! Links the crates as a library and times calls into their public
//! functions only. One workload runs per process, on one driver thread;
//! the engine's `host_threads` never exceeds the core count.

mod env;
mod gen;
mod json;
mod metrics;
mod probes;
mod report;
mod stats;
mod trace;
mod workload;
mod workloads;

use crate::env::DurableDir;
use crate::json::{obj, Json};
use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, timing};
use crate::trace::Tracer;
use crate::workload::{timed, Measured, Params, Workload};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Share of the repetition count the traced passes run.
pub const TRACED_SHARE: f64 = 0.25;
/// Default and held-out seeds (README: "Seeds").
const DEFAULT_SEED: u64 = 2016;

pub struct Opts {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: u32,
    pub trace: bool,
    pub smoke: bool,
    pub out: Option<PathBuf>,
    pub detail: Option<PathBuf>,
    pub durable_dir: Option<PathBuf>,
    pub compare: Option<(PathBuf, PathBuf)>,
    pub spread: Vec<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
        smoke: false,
        out: None,
        detail: None,
        durable_dir: None,
        compare: None,
        spread: Vec::new(),
    };
    let mut it = argv.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{what} needs a value"))
        };
        match arg.as_str() {
            "--workload" => o.workload = Some(value("--workload")?),
            "--seed" => {
                let v = value("--seed")?;
                o.seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                o.seconds = v.parse().map_err(|_| format!("bad --seconds {v:?}"))?;
                if !(1..=600).contains(&o.seconds) {
                    return Err(format!("--seconds {v} outside 1..=600"));
                }
            }
            // `--trace` alone switches tracing on; the driver writes
            // `--trace 0` / `--trace 1`.
            "--trace" => {
                o.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => o.smoke = true,
            "--out" => o.out = Some(PathBuf::from(value("--out")?)),
            "--detail" => o.detail = Some(PathBuf::from(value("--detail")?)),
            "--durable-dir" => o.durable_dir = Some(PathBuf::from(value("--durable-dir")?)),
            "--compare" => {
                o.compare = Some((
                    PathBuf::from(value("--compare")?),
                    PathBuf::from(value("--compare")?),
                ));
            }
            "--spread" => o.spread = it.by_ref().map(PathBuf::from).collect(),
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(o)
}

/// The benchmark's own directory (`run.sh` exports it); results, traces
/// and — by default — the durable directories live in its `out/`.
pub fn home() -> PathBuf {
    std::env::var_os("GTS_BENCHMARK_HOME").map_or_else(|| PathBuf::from("benchmark"), PathBuf::from)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&argv) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("gts-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if let Some((a, b)) = &opts.compare {
        report::compare(a, b)
    } else if !opts.spread.is_empty() {
        report::spread(&opts.spread)
    } else if let Some(name) = opts.workload.clone() {
        run_one(&name, &opts)
    } else {
        report::run_set(&opts)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("gts-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// One emitted metric: every value carries its unit and sample count.
pub struct Emitted {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub n: usize,
}

fn run_one(name: &str, opts: &Opts) -> Result<bool, String> {
    use workloads::{
        bfs_ooc::BfsOoc, live_mutations::LiveMutations, pagerank_scan::PagerankScan,
        serve_mixed::ServeMixed,
    };
    match name {
        PagerankScan::NAME => run_workload::<PagerankScan>(opts),
        BfsOoc::NAME => run_workload::<BfsOoc>(opts),
        LiveMutations::NAME => run_workload::<LiveMutations>(opts),
        ServeMixed::NAME => run_workload::<ServeMixed>(opts),
        other => Err(format!("unknown workload {other:?} (one of {WORKLOADS:?})")),
    }
}

/// Run one workload in this process and print its result; the last line
/// of standard output is the result object.
fn run_workload<W: Workload>(opts: &Opts) -> Result<bool, String> {
    let started = std::time::Instant::now();
    let p = Params {
        seed: opts.seed,
        seconds: opts.seconds,
        smoke: opts.smoke,
        nproc: env::nproc(),
    };
    let out_dir = home().join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let durable_parent = opts.durable_dir.clone().unwrap_or_else(|| out_dir.clone());
    let mut dirs = DurableDir::create(&durable_parent)
        .map_err(|e| format!("durable directory under {}: {e}", durable_parent.display()))?;
    let durable_fs = env::filesystem_of(dirs.root());

    let Outcome {
        emitted,
        attempted,
        failed,
        failures,
        extra,
    } = if opts.trace {
        traced_run::<W>(&p, &mut dirs, &out_dir)?
    } else {
        untraced_run::<W>(&p, &mut dirs)
    };

    for why in &failures {
        eprintln!("{}: FAILED {why}", W::NAME);
    }
    let complete = emitted.iter().all(|m| m.value.is_finite());
    if !complete {
        eprintln!("{}: a metric is missing or not finite", W::NAME);
    }
    let correct = failed == 0 && complete;

    println!(
        "{} seed={} seconds={} trace={} nproc={} threads=[1,{}] durable={} ({})",
        W::NAME,
        p.seed,
        p.seconds,
        u8::from(opts.trace),
        p.nproc,
        p.mt(),
        dirs.root().display(),
        durable_fs
    );
    for m in &emitted {
        println!(
            "  {:<44} {:>16.4} {:<10} n={}",
            m.name, m.value, m.unit, m.n
        );
    }
    println!("  ops_attempted={attempted} ops_failed={failed}");

    let metrics = obj(emitted.iter().map(|m| {
        (
            m.name,
            obj([("value", Json::from(m.value)), ("unit", Json::from(m.unit))]),
        )
    }));
    if let Some(path) = &opts.detail {
        let mut fields = vec![
            ("workload", Json::from(W::NAME)),
            ("seed", Json::from(p.seed)),
            ("seconds", Json::from(u64::from(p.seconds))),
            ("trace", Json::from(opts.trace)),
            ("smoke", Json::from(p.smoke)),
            ("nproc", Json::from(p.nproc)),
            (
                "threads",
                Json::Arr(p.thread_settings().map(Json::from).to_vec()),
            ),
            ("durable_dir", Json::from(dirs.root().display().to_string())),
            ("durable_fs", Json::from(durable_fs.as_str())),
            (
                "flush_policy",
                Json::from("every fsync the measured code issues is kept"),
            ),
            ("attempted", Json::from(attempted)),
            ("failed", Json::from(failed)),
            ("wall_s", Json::from(started.elapsed().as_secs_f64())),
            (
                "samples",
                obj(emitted.iter().map(|m| (m.name, Json::from(m.n)))),
            ),
        ];
        fields.extend(extra);
        std::fs::write(path, obj(fields).pretty())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    // The contract line: exactly these four keys, last on stdout.
    println!(
        "{}",
        obj([
            ("correct", Json::from(correct)),
            ("attempted", Json::from(attempted.max(1))),
            ("failed", Json::from(failed)),
            ("metrics", metrics),
        ])
        .render()
    );
    Ok(true)
}

/// What one run of a workload produced, whichever kind of run it was.
struct Outcome {
    emitted: Vec<Emitted>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// Extra fields of the detail file.
    extra: Vec<(&'static str, Json)>,
}

/// The run the end-to-end metrics come from: tracing off.
fn untraced_run<W: Workload>(p: &Params, dirs: &mut DurableDir) -> Outcome {
    let mut quiet = Tracer::new(false);
    // Set-up, several times; the last instance is the one measured. The
    // previous one is freed first, so peak RSS is one workload's.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let (w, ns) = timed(|| W::setup(p, &mut quiet));
        setups.push(ns as f64 / 1e9);
        built = Some(w);
    }
    let mut w = built.expect("SETUPS >= 1");
    w.warm_up(p, dirs);
    let m = w.measure(p, 1.0, dirs, &mut quiet);
    Outcome {
        emitted: end_to_end(p, &m, &setups),
        attempted: m.attempted,
        failed: m.failed,
        extra: vec![
            ("timings", timings_json(&m, &setups)),
            ("digests", digests_json(&w)),
        ],
        failures: m.failures,
    }
}

/// The run the per-layer ledger comes from: a quarter of the repetitions
/// untraced, the same again traced, then the layer probes.
fn traced_run<W: Workload>(
    p: &Params,
    dirs: &mut DurableDir,
    out_dir: &Path,
) -> Result<Outcome, String> {
    let mut tracer = Tracer::new(true);
    let mut w = W::setup(p, &mut tracer);
    w.warm_up(p, dirs);
    let untraced = w.measure(p, TRACED_SHARE, dirs, &mut Tracer::new(false));
    let traced = w.measure(p, TRACED_SHARE, dirs, &mut tracer);
    let ledger = probes::ledger(
        p,
        (w.graph(), &W::engine_cfg(1, false)),
        &traced,
        &untraced,
        dirs,
        &mut tracer,
    );
    let emitted = PER_LAYER
        .iter()
        .map(|m| {
            let (value, n) = ledger
                .entries
                .iter()
                .find(|e| e.0 == m.name)
                .map_or((f64::NAN, 0), |e| (e.1, e.2));
            Emitted {
                name: m.name,
                value,
                unit: m.unit,
                n,
            }
        })
        .collect();
    let reconcile = ledger
        .reconcile
        .iter()
        .map(|r| {
            obj([
                ("what", Json::from(r.what.as_str())),
                ("lhs", Json::from(r.lhs)),
                ("rhs", Json::from(r.rhs)),
                ("tolerance", Json::from(r.tolerance)),
                ("holds", Json::from(r.holds())),
            ])
        })
        .collect();
    let trace_file = out_dir.join(format!("trace-{}.json", W::NAME));
    std::fs::write(&trace_file, tracer.to_json().pretty())
        .map_err(|e| format!("writing {}: {e}", trace_file.display()))?;
    Ok(Outcome {
        emitted,
        attempted: traced.attempted + untraced.attempted + ledger.attempted,
        failed: traced.failed + untraced.failed + ledger.failed,
        failures: [traced.failures, untraced.failures, ledger.failures].concat(),
        extra: vec![
            ("reconcile", Json::Arr(reconcile)),
            (
                "trace_file",
                Json::from(format!("out/trace-{}.json", W::NAME)),
            ),
            ("spans", Json::from(tracer.len())),
            ("digests", digests_json(&w)),
        ],
    })
}

/// The end-to-end metrics of one measured pass.
fn end_to_end(p: &Params, m: &Measured, setups: &[f64]) -> Vec<Emitted> {
    let [t1, mt] = p.thread_settings();
    let per_s = |threads: usize| -> Vec<f64> {
        m.engine_ops
            .iter()
            .filter(|o| o.threads == threads)
            .map(|o| o.work / ((o.wall_ns + o.beside_ns) as f64 / 1e9))
            .collect()
    };
    let (w1, wm) = (per_s(t1), per_s(mt));
    let value = |name: &str| -> (f64, usize) {
        match name {
            "setup_s" => (median(setups), setups.len()),
            "host_work_per_s_t1" => (median(&w1), w1.len()),
            "host_work_per_s_mt" => (median(&wm), wm.len()),
            "op_ms_p50" => (median(&m.op_ms), m.op_ms.len()),
            "restart_ms_p50" => (median(&m.restart_ms), m.restart_ms.len()),
            "peak_rss_mb" => (env::peak_rss_mb(), 1),
            "sim_elapsed_ms" => (m.sim_elapsed_ns as f64 / 1e6, m.sim_lat_us.len()),
            other => unreachable!("end-to-end metric {other} has no definition"),
        }
    };
    END_TO_END
        .iter()
        .map(|e| {
            let (value, n) = value(e.name);
            Emitted {
                name: e.name,
                value,
                unit: e.unit,
                n,
            }
        })
        .collect()
}

/// Median, qualifying tail percentile and sample count of each timing.
fn timings_json(m: &Measured, setups: &[f64]) -> Json {
    let walls: Vec<f64> = m
        .engine_ops
        .iter()
        .map(|o| o.wall_ns as f64 / 1e6)
        .collect();
    let one = |xs: &[f64]| {
        let t = timing(xs);
        obj([
            ("n", Json::from(t.n)),
            ("p50", Json::from(t.p50)),
            (
                "tail_percentile",
                t.tail.map_or(Json::Null, |(p, _)| Json::from(u64::from(p))),
            ),
            ("tail", t.tail.map_or(Json::Null, |(_, v)| Json::from(v))),
        ])
    };
    obj([
        ("setup_s", one(setups)),
        ("op_ms", one(&m.op_ms)),
        ("restart_ms", one(&m.restart_ms)),
        ("engine_call_ms", one(&walls)),
        ("sim_lat_us", one(&m.sim_lat_us)),
    ])
}

/// FNV-1a digests of the generated inputs, the edge list first.
fn digests_json<W: Workload>(w: &W) -> Json {
    let edges = ("edges", gen::edges_digest(&w.graph().edges));
    obj(std::iter::once(edges)
        .chain(w.digests())
        .map(|(k, v)| (k, Json::from(format!("{v:016x}")))))
}

/// Read and parse a JSON file.
pub fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}
