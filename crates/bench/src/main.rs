//! `gts-bench` — the wall-clock benchmark binary.
//!
//! Runs the reproducible benchmark suites (`page`, `sweep`, `e2e`,
//! `mutation`, `serve`, `wal`) under
//! the warmup/repeat/median protocol of [`gts_bench::bench`], prints
//! each suite as an aligned table, and optionally writes / validates /
//! regression-checks the machine-readable `BENCH_*.json` artifacts.
//!
//! ```text
//! gts-bench [--suite page|sweep|e2e|mutation|serve|wal|all] [--json-out PATH]
//!           [--repeats N] [--warmup N] [--quick]
//!           [--check-against PATH] [--tolerance F]
//!           [--validate FILE ...]
//! ```
//!
//! `--json-out` takes a file path for a single suite, or a directory
//! (receiving `BENCH_<suite>.json`) for `--suite all`. Ditto
//! `--check-against` for the baseline side. `--quick` shrinks the
//! protocol and scales for CI smoke runs. `--validate` parses the given
//! artifacts against the schema and exits, running nothing.
//!
//! Exit codes: 0 success, 1 validation/regression failure, 2 usage.

use gts_bench::bench::{BenchEntry, BenchReport, BenchSpec};
use gts_bench::scale;
use gts_bench::table::report_table;
use gts_core::engine::{Gts, GtsConfig, StorageLocation};
use gts_core::programs::{Bfs, PageRank};
use gts_core::{Engine, MutationSchedule};
use gts_graph::Dataset;
use gts_serve::scheduler::{serve, ServeConfig};
use gts_serve::workload::{seeded_batch, synthetic};
use gts_storage::{build_graph_store, CachePolicy, FifoCache, LruCache, RandomCache};
use gts_telemetry::keys;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Everything the option parser extracts.
struct Opts {
    suite: String,
    json_out: Option<PathBuf>,
    check_against: Option<PathBuf>,
    tolerance: f64,
    warmup: u32,
    repeats: u32,
    quick: bool,
    validate: Vec<PathBuf>,
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&argv) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("gts-bench: {e}");
            return ExitCode::from(2);
        }
    };

    if !opts.validate.is_empty() {
        return validate(&opts.validate);
    }

    let suites: Vec<&str> = match opts.suite.as_str() {
        "all" => vec!["page", "sweep", "e2e", "mutation", "serve", "wal"],
        s @ ("page" | "sweep" | "e2e" | "mutation" | "serve" | "wal") => vec![s],
        other => {
            eprintln!(
                "gts-bench: unknown suite {other:?} (page | sweep | e2e | mutation | serve | wal | all)"
            );
            return ExitCode::from(2);
        }
    };

    let mut failures = Vec::new();
    for suite in &suites {
        let report = match *suite {
            "page" => page_suite(&opts),
            "sweep" => sweep_suite(&opts),
            "mutation" => mutation_suite(&opts),
            "serve" => serve_suite(&opts),
            "wal" => wal_suite(&opts),
            _ => e2e_suite(&opts),
        };
        report_table(&report).finish();
        if let Some(out) = &opts.json_out {
            let path = artifact_path(out, &report.suite, suites.len() > 1);
            if let Err(e) = report.write_json(&path) {
                eprintln!("gts-bench: writing {}: {e}", path.display());
                return ExitCode::from(1);
            }
            println!("  -> {}", path.display());
        }
        if let Some(base) = &opts.check_against {
            let path = artifact_path(base, &report.suite, suites.len() > 1);
            match std::fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|t| BenchReport::from_json(&t))
            {
                Ok(baseline) => failures.extend(report.compare(&baseline, opts.tolerance)),
                Err(e) => failures.push(format!("baseline {}: {e}", path.display())),
            }
        }
    }

    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("REGRESSION {f}");
        }
        ExitCode::from(1)
    }
}

fn parse(argv: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        suite: "all".to_string(),
        json_out: None,
        check_against: None,
        tolerance: 0.20,
        warmup: 1,
        repeats: 5,
        quick: false,
        validate: Vec::new(),
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut val = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{what} needs a value"))
        };
        match arg.as_str() {
            "--suite" => opts.suite = val("--suite")?,
            "--json-out" => opts.json_out = Some(PathBuf::from(val("--json-out")?)),
            "--check-against" => {
                opts.check_against = Some(PathBuf::from(val("--check-against")?));
            }
            "--tolerance" => {
                let v = val("--tolerance")?;
                opts.tolerance = v.parse().map_err(|_| format!("bad --tolerance {v:?}"))?;
            }
            "--warmup" => {
                let v = val("--warmup")?;
                opts.warmup = v.parse().map_err(|_| format!("bad --warmup {v:?}"))?;
            }
            "--repeats" => {
                let v = val("--repeats")?;
                opts.repeats = v.parse().map_err(|_| format!("bad --repeats {v:?}"))?;
            }
            "--quick" => opts.quick = true,
            "--validate" => {
                opts.validate.push(PathBuf::from(val("--validate")?));
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    if opts.quick {
        opts.warmup = 0;
        opts.repeats = opts.repeats.min(2);
    }
    Ok(opts)
}

/// Resolve the artifact path: under `--suite all` the given path is a
/// directory receiving the conventional `BENCH_<suite>.json` names.
fn artifact_path(base: &Path, suite: &str, multi: bool) -> PathBuf {
    if multi || base.is_dir() {
        base.join(format!("BENCH_{suite}.json"))
    } else {
        base.to_path_buf()
    }
}

fn validate(files: &[PathBuf]) -> ExitCode {
    let mut ok = true;
    for f in files {
        match std::fs::read_to_string(f)
            .map_err(|e| e.to_string())
            .and_then(|t| BenchReport::from_json(&t))
        {
            Ok(r) => println!(
                "{}: ok (suite {}, {} entries)",
                f.display(),
                r.suite,
                r.entries.len()
            ),
            Err(e) => {
                eprintln!("{}: INVALID: {e}", f.display());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn spec(opts: &Opts, id: &str, unit: &str) -> BenchSpec {
    BenchSpec::builder(id)
        .unit(unit)
        .warmup(opts.warmup)
        .repeats(opts.repeats)
        .build()
}

/// Construct an entry from already-collected samples (one per repeat).
fn entry(id: &str, unit: &str, samples: Vec<f64>, params: &[(&str, String)]) -> BenchEntry {
    BenchEntry {
        id: id.to_string(),
        unit: unit.to_string(),
        params: params
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
        samples,
        gate: false,
    }
}

// ---------------------------------------------------------------- page

/// Page hot paths: encode, decode, full verification vs the cached
/// verified-once fast path, and per-page vs batched cache probes.
fn page_suite(opts: &Opts) -> BenchReport {
    let mut report = BenchReport::new("page", "Page encode/decode/verify and cache-probe costs");
    let rmat_scale = 12u32;
    let edges = Dataset::Rmat(rmat_scale).generate();
    let fmt = scale::page_format_small();
    let store = build_graph_store(&edges, fmt).expect("rmat fits page format");
    let pages = store.num_pages();
    let scale_param = [("rmat_scale", rmat_scale.to_string())];
    let pages_param = [
        ("rmat_scale", rmat_scale.to_string()),
        ("pages", pages.to_string()),
    ];

    report.push(
        spec(opts, "encode_store", "ns")
            .run(|| {
                black_box(build_graph_store(&edges, fmt).expect("encode"));
            })
            .param("rmat_scale", rmat_scale),
    );

    report.push(
        spec(opts, "decode_all_pages", "ns")
            .run(|| {
                let mut total = 0u64;
                for pid in 0..pages {
                    let v = store.view(pid);
                    total += u64::from(v.count());
                }
                black_box(total);
            })
            .param("rmat_scale", rmat_scale)
            .param("pages", pages),
    );

    // Full verification: fresh (never-verified) pages each sample, built
    // outside the timed region.
    let e = spec(opts, "verify_full", "ns").run_values(|| {
        let fresh = build_graph_store(&edges, fmt).expect("encode");
        let t0 = Instant::now();
        for pid in 0..pages {
            fresh.page(pid).verify(fmt).expect("sealed page verifies");
        }
        t0.elapsed().as_nanos() as f64
    });
    let full_med = e.median();
    report.push(entry("verify_full", "ns", e.samples, &pages_param));

    // Cached verification: the verified-once token path the sweep loop
    // hits every page access after the first.
    let e = spec(opts, "verify_cached", "ns").run_values(|| {
        let t0 = Instant::now();
        for pid in 0..pages {
            store.page(pid).verify(fmt).expect("verified page");
        }
        t0.elapsed().as_nanos() as f64
    });
    let cached_med = e.median();
    report.push(entry("verify_cached", "ns", e.samples, &pages_param));

    // The verified-once win as a ratio. Informational, not gated: the
    // token path is ~3-4 orders of magnitude below full verification,
    // so the ratio is a near-zero quantity whose run-to-run swing is
    // pure timer noise — a 20% relative gate on ~1e-4 would only ever
    // flake. (The *correctness* of the token path is pinned by the
    // storage crate's tests; this entry records the magnitude.)
    report.push(entry(
        "verify_cached_vs_full",
        "ratio",
        vec![if full_med > 0.0 {
            cached_med / full_med
        } else {
            0.0
        }],
        &scale_param,
    ));

    // Cache probes: one synthetic skewed trace, probed page by page
    // across all three policies.
    let trace = probe_trace(100_000, 1 << 10);
    type MakeCache = fn(usize) -> Box<dyn CachePolicy>;
    let policies: &[(&str, MakeCache)] = &[
        ("lru", |cap| Box::new(LruCache::new(cap))),
        ("fifo", |cap| Box::new(FifoCache::new(cap))),
        ("random", |cap| Box::new(RandomCache::new(cap, 0x6715))),
    ];
    for (name, make) in policies {
        let e = spec(opts, &format!("probe_single_{name}"), "ns").run_values(|| {
            let mut c = make(256);
            let t0 = Instant::now();
            let mut hits = 0u64;
            for &p in &trace {
                hits += u64::from(c.access(p));
            }
            black_box(hits);
            t0.elapsed().as_nanos() as f64
        });
        report.push(entry(
            &format!("probe_single_{name}"),
            "ns",
            e.samples,
            &[("trace_len", trace.len().to_string())],
        ));
    }
    report
}

/// A deterministic skewed pid trace (xorshift; low pids hot).
fn probe_trace(len: usize, universe: u64) -> Vec<u64> {
    let mut state = 0x2016_6715_u64 | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // Square the unit draw: roughly Zipf-ish hot head.
            let u = (state >> 11) as f64 / (1u64 << 53) as f64;
            ((u * u) * universe as f64) as u64 % universe
        })
        .collect()
}

// --------------------------------------------------------------- sweep

/// Host phase split: wall-clock phase A (kernels) vs phase B
/// (accounting) at 1 and 4 host threads, PageRank on the scaled engine.
fn sweep_suite(opts: &Opts) -> BenchReport {
    let mut report = BenchReport::new(
        "sweep",
        "Host phase A/B wall-clock split (measure_host_phases, 4 GPUs, 4 KiB pages)",
    );
    let rmat_scale = if opts.quick { 13 } else { 16 };
    let edges = Dataset::Rmat(rmat_scale).generate();
    // Deliberately small pages: phase B's work (outcome merges, cache
    // probes, per-target issues) scales with the page count, so this is
    // the regime where the phase-B split matters.
    let fmt = gts_storage::PageFormatConfig::new(gts_storage::PhysicalIdConfig::ORIGINAL, 4 * 1024);
    let store = build_graph_store(&edges, fmt).expect("store");
    let n = store.num_vertices();

    for alg in ["pagerank", "bfs"] {
        let mut b_median = [0.0f64; 2];
        for (ti, threads) in [1usize, 4].into_iter().enumerate() {
            let mut a_ns = Vec::new();
            let mut b_ns = Vec::new();
            let mut share = Vec::new();
            let mut wall = Vec::new();
            for i in 0..opts.warmup + opts.repeats.max(1) {
                let cfg = GtsConfig {
                    host_threads: threads,
                    measure_host_phases: true,
                    num_gpus: 4,
                    ..scale::gts_config()
                };
                let engine = Gts::new(cfg);
                let t0 = Instant::now();
                match alg {
                    "pagerank" => {
                        let mut pr = PageRank::new(n, 10);
                        engine.run(&store, &mut pr).expect("pagerank run");
                    }
                    _ => {
                        let mut bfs = Bfs::new(n, 0);
                        engine.run(&store, &mut bfs).expect("bfs run");
                    }
                }
                let w = t0.elapsed().as_nanos() as f64;
                let a = engine.telemetry().counter(keys::HOST_PHASE_A_NS) as f64;
                let b = engine.telemetry().counter(keys::HOST_PHASE_B_NS) as f64;
                if i >= opts.warmup {
                    a_ns.push(a);
                    b_ns.push(b);
                    share.push(if a + b > 0.0 { b / (a + b) } else { 0.0 });
                    wall.push(w);
                }
            }
            let params = [
                ("rmat_scale", rmat_scale.to_string()),
                ("alg", alg.to_string()),
                ("host_threads", threads.to_string()),
            ];
            report.push(entry(
                &format!("{alg}_host_phase_a_ns_t{threads}"),
                "ns",
                a_ns,
                &params,
            ));
            let b_entry = entry(
                &format!("{alg}_host_phase_b_ns_t{threads}"),
                "ns",
                b_ns,
                &params,
            );
            b_median[ti] = b_entry.median();
            report.push(b_entry);
            report.push(entry(
                &format!("{alg}_phase_b_share_t{threads}"),
                "share",
                share,
                &params,
            ));
            report.push(entry(
                &format!("{alg}_wall_ns_t{threads}"),
                "ns",
                wall,
                &params,
            ));
        }
        // The restructured phase B (parallel merge + batched probes
        // around the serial issue core) must never make 4 host threads
        // slower than 1 — the work-size thresholds exist precisely so
        // fan-out only engages when it wins. Gated at full scale so a
        // threshold gone wrong is caught; in `--quick` mode phase B is
        // a few hundred microseconds and the ratio is timer noise, so
        // the entry stays informational there.
        if b_median[0] > 0.0 {
            let mut ratio = entry(
                &format!("{alg}_phase_b_t4_vs_t1"),
                "ratio",
                vec![b_median[1] / b_median[0]],
                &[
                    ("rmat_scale", rmat_scale.to_string()),
                    ("alg", alg.to_string()),
                ],
            );
            ratio.gate = !opts.quick;
            report.push(ratio);
        }
    }
    report
}

// ----------------------------------------------------------------- e2e

/// End-to-end sweeps at paper scales RMAT22–26 (ours 12–16): PageRank
/// and BFS over the scaled engine streaming from a 2-SSD array. Wall
/// times are informational; simulated times are deterministic and gated.
fn e2e_suite(opts: &Opts) -> BenchReport {
    let mut report = BenchReport::new(
        "e2e",
        "End-to-end runs, paper RMAT22-26 at 1/1024 scale (ssd:2, 2 GPUs)",
    );
    let scales: Vec<u32> = if opts.quick {
        vec![12, 13]
    } else {
        vec![12, 13, 14, 15, 16]
    };
    for s in scales {
        let edges = Dataset::Rmat(s).generate();
        let store = build_graph_store(&edges, scale::page_format_small()).expect("store");
        let cfg = || GtsConfig {
            num_gpus: 2,
            storage: StorageLocation::Ssds(2),
            ..scale::gts_config()
        };
        let n = store.num_vertices();
        type RunAlg<'a> = Box<dyn Fn() -> (f64, f64) + 'a>;
        let algos: Vec<(&str, RunAlg<'_>)> = vec![
            (
                "pagerank",
                Box::new({
                    let store = &store;
                    move || {
                        let mut pr = PageRank::new(n, 10);
                        let t0 = Instant::now();
                        let rep = Gts::new(cfg()).run(store, &mut pr).expect("run");
                        (
                            t0.elapsed().as_nanos() as f64,
                            rep.elapsed.as_nanos() as f64,
                        )
                    }
                }),
            ),
            (
                "bfs",
                Box::new({
                    let store = &store;
                    move || {
                        let mut bfs = Bfs::new(n, 0);
                        let t0 = Instant::now();
                        let rep = Gts::new(cfg()).run(store, &mut bfs).expect("run");
                        (
                            t0.elapsed().as_nanos() as f64,
                            rep.elapsed.as_nanos() as f64,
                        )
                    }
                }),
            ),
        ];
        for (alg, run) in algos {
            let mut wall = Vec::new();
            let mut sim = Vec::new();
            for i in 0..opts.warmup + opts.repeats.max(1) {
                let (w, sm) = run();
                if i >= opts.warmup {
                    wall.push(w);
                    sim.push(sm);
                }
            }
            let params = [
                ("rmat_scale", s.to_string()),
                ("paper_rmat", scale::paper_rmat(s).to_string()),
                ("alg", alg.to_string()),
            ];
            report.push(entry(
                &format!("{alg}_rmat{s}_wall_ns"),
                "ns",
                wall,
                &params,
            ));
            let mut simulated = entry(&format!("{alg}_rmat{s}_sim_ns"), "ns", sim, &params);
            // Simulated time is bit-deterministic — any drift is a real
            // regression, so these entries anchor the CI gate.
            simulated.gate = true;
            report.push(simulated);
        }
    }
    report
}

// ------------------------------------------------------------ mutation

/// Update-while-query: the storage-level batch-apply cost, then whole
/// live runs — a batch landing mid-traversal (BFS at sweep 1) and one
/// reviving a converged sweep program (PageRank refresh past its last
/// iteration). Wall times are informational; simulated times are
/// deterministic and gated.
fn mutation_suite(opts: &Opts) -> BenchReport {
    let mut report = BenchReport::new(
        "mutation",
        "Update-while-query: batched edge mutations with epoch visibility (ssd:2, 2 GPUs)",
    );
    let scales: Vec<u32> = if opts.quick {
        vec![12]
    } else {
        vec![12, 13, 14]
    };
    let inserts = 256u64;
    let deletes = 64u64;
    let seed = 0x6715_2016u64;
    for s in scales {
        let edges = Dataset::Rmat(s).generate();
        let fmt = scale::page_format_small();

        // Raw storage cost: validate + rewrite + delta allocation + RVT
        // update for one batch, on a fresh store each sample.
        report.push(
            spec(opts, &format!("apply_batch_rmat{s}_ns"), "ns")
                .run_values(|| {
                    let mut store = build_graph_store(&edges, fmt).expect("store");
                    let batch = seeded_batch(&store, inserts, deletes, seed);
                    let t0 = Instant::now();
                    black_box(store.apply_mutations(&batch).expect("apply"));
                    t0.elapsed().as_nanos() as f64
                })
                .param("rmat_scale", s)
                .param("inserts", inserts)
                .param("deletes", deletes),
        );

        let cfg = || GtsConfig {
            num_gpus: 2,
            storage: StorageLocation::Ssds(2),
            ..scale::gts_config()
        };
        type RunAlg<'a> = Box<dyn Fn() -> (f64, f64) + 'a>;
        let algos: Vec<(&str, u32, RunAlg<'_>)> = vec![
            (
                "bfs_live",
                1,
                Box::new({
                    let edges = &edges;
                    move || {
                        let mut store = build_graph_store(edges, fmt).expect("store");
                        let batch = seeded_batch(&store, inserts, deletes, seed);
                        let mut bfs = Bfs::new(store.num_vertices(), 0);
                        let t0 = Instant::now();
                        let rep = Gts::new(cfg())
                            .run_live(&mut store, &mut bfs, MutationSchedule::new().at(1, batch))
                            .expect("run");
                        (
                            t0.elapsed().as_nanos() as f64,
                            rep.elapsed.as_nanos() as f64,
                        )
                    }
                }),
            ),
            (
                // Batch scheduled past Fixed(10)'s convergence: the run
                // revives for exactly one refresh sweep over the mutated
                // topology.
                "pagerank_live",
                20,
                Box::new({
                    let edges = &edges;
                    move || {
                        let mut store = build_graph_store(edges, fmt).expect("store");
                        let batch = seeded_batch(&store, inserts, deletes, seed);
                        let mut pr = PageRank::new(store.num_vertices(), 10);
                        let t0 = Instant::now();
                        let rep = Gts::new(cfg())
                            .run_live(&mut store, &mut pr, MutationSchedule::new().at(20, batch))
                            .expect("run");
                        (
                            t0.elapsed().as_nanos() as f64,
                            rep.elapsed.as_nanos() as f64,
                        )
                    }
                }),
            ),
        ];
        for (alg, at, run) in algos {
            let mut wall = Vec::new();
            let mut sim = Vec::new();
            for i in 0..opts.warmup + opts.repeats.max(1) {
                let (w, sm) = run();
                if i >= opts.warmup {
                    wall.push(w);
                    sim.push(sm);
                }
            }
            let params = [
                ("rmat_scale", s.to_string()),
                ("alg", alg.to_string()),
                ("mutate_at", at.to_string()),
                ("inserts", inserts.to_string()),
                ("deletes", deletes.to_string()),
            ];
            report.push(entry(
                &format!("{alg}_rmat{s}_wall_ns"),
                "ns",
                wall,
                &params,
            ));
            let mut simulated = entry(&format!("{alg}_rmat{s}_sim_ns"), "ns", sim, &params);
            // Simulated time is bit-deterministic — any drift is a real
            // regression, so these entries anchor the CI gate.
            simulated.gate = true;
            report.push(simulated);
        }
    }
    report
}

// --------------------------------------------------------------- serve

/// Multi-tenant serve mode: the synthetic mixed read/mutate workload
/// through the FIFO scheduler at 1, 4, and 16 concurrent tenants, with
/// one service slot per tenant. Wall times are informational; simulated
/// makespan, throughput, and latency percentiles are deterministic and
/// gated. `--quick` trims the tenancy levels, never the per-level
/// workload, so quick entries stay comparable to the checked-in
/// full-run baseline.
fn serve_suite(opts: &Opts) -> BenchReport {
    let mut report = BenchReport::new(
        "serve",
        "Multi-tenant serve throughput and latency percentiles (ssd:2, 2 GPUs)",
    );
    let rmat_scale = 12u32;
    let edges = Dataset::Rmat(rmat_scale).generate();
    let fmt = scale::page_format_small();
    let jobs_per_tenant = 4u32;
    let seed = 0x6715_2016u64;
    let levels: &[usize] = if opts.quick { &[1, 4] } else { &[1, 4, 16] };
    for &tenants in levels {
        let workload = synthetic(tenants as u32, jobs_per_tenant, seed, true);
        let serve_cfg = ServeConfig {
            slots: tenants,
            // The suite measures saturated throughput, not admission
            // control: caps sized so nothing drops.
            queue_capacity: workload.len().max(64),
            tenant_queue_capacity: workload.len().max(16),
            deadline_ns: None,
            ..ServeConfig::default()
        };
        let mut wall = Vec::new();
        let mut makespan = Vec::new();
        let mut throughput = Vec::new();
        let mut percentiles = [Vec::new(), Vec::new(), Vec::new()];
        for i in 0..opts.warmup + opts.repeats.max(1) {
            // Fresh store every sample: the workload mutates it.
            let mut store = build_graph_store(&edges, fmt).expect("store");
            let engine = Engine::new(GtsConfig {
                num_gpus: 2,
                storage: StorageLocation::Ssds(2),
                ..scale::gts_config()
            })
            .expect("valid engine config");
            let t0 = Instant::now();
            let out = serve(&engine, &mut store, &workload, &serve_cfg).expect("serve");
            let w = t0.elapsed().as_nanos() as f64;
            assert_eq!(out.completed, workload.len(), "caps sized for zero drops");
            if i >= opts.warmup {
                wall.push(w);
                makespan.push(out.makespan_ns as f64);
                let secs = out.makespan_ns as f64 / 1e9;
                throughput.push(if secs > 0.0 {
                    out.completed as f64 / secs
                } else {
                    0.0
                });
                for (slot, p) in [(0usize, 50u32), (1, 95), (2, 99)] {
                    let v = out.telemetry.percentile("serve.lat.all", p).unwrap_or(0);
                    percentiles[slot].push(v as f64);
                }
            }
        }
        let params = [
            ("rmat_scale", rmat_scale.to_string()),
            ("tenants", tenants.to_string()),
            ("slots", tenants.to_string()),
            ("jobs", (tenants as u32 * jobs_per_tenant).to_string()),
        ];
        report.push(entry(
            &format!("serve_c{tenants}_wall_ns"),
            "ns",
            wall,
            &params,
        ));
        let gated: [(&str, &str, Vec<f64>); 5] = [
            ("makespan_sim_ns", "ns", makespan),
            ("throughput_jobs_s", "jobs/s", throughput),
            ("lat_p50_ns", "ns", percentiles[0].clone()),
            ("lat_p95_ns", "ns", percentiles[1].clone()),
            ("lat_p99_ns", "ns", percentiles[2].clone()),
        ];
        for (name, unit, samples) in gated {
            let mut e = entry(&format!("serve_c{tenants}_{name}"), unit, samples, &params);
            // Scheduling runs on the simulated clock — makespan,
            // throughput, and latency percentiles are bit-deterministic,
            // so any drift is a real regression.
            e.gate = true;
            report.push(e);
        }
    }
    report
}

// ----------------------------------------------------------------- wal

/// Durability hot paths: the log-before-apply tax over a bare batch
/// apply, crash-recovery replay of the full chain, torn-tail repair on
/// reopen, and the background scrub's checksum walk. Every entry is
/// real wall-clock (the WAL fsyncs real files), so all stay
/// informational — the CI bench-smoke job validates the artifact, it
/// does not gate on fsync latency.
fn wal_suite(opts: &Opts) -> BenchReport {
    use gts_ckpt::KillSwitch;
    use gts_storage::{Wal, WAL_FILE};

    let mut report = BenchReport::new(
        "wal",
        "Durability: WAL append/replay/repair and scrub checksum walk",
    );
    let rmat_scale = 12u32;
    let edges = Dataset::Rmat(rmat_scale).generate();
    let fmt = scale::page_format_small();
    let base = build_graph_store(&edges, fmt).expect("store");
    let chain = if opts.quick { 4u64 } else { 8 };
    let inserts = 128u64;
    let deletes = 32u64;
    let seed = 0x6715_2016u64;
    let params = [
        ("rmat_scale", rmat_scale.to_string()),
        ("chain", chain.to_string()),
        ("inserts", inserts.to_string()),
        ("deletes", deletes.to_string()),
    ];

    // Every timed sample gets its own scratch directory: the WAL is a
    // real fsynced file, and recycling a log across samples would turn
    // appends into idempotent no-ops.
    let scratch_n = std::sync::atomic::AtomicU32::new(0);
    let scratch = |tag: &str| {
        let n = scratch_n.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut p = std::env::temp_dir();
        p.push(format!("gts-bench-wal-{}-{tag}-{n}", std::process::id()));
        std::fs::remove_dir_all(&p).ok();
        p
    };

    let tag = |mut e: BenchEntry| {
        e.params = params
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect();
        e
    };

    // The same deterministic batch chain drives every entry: each batch
    // is seeded from the store state it lands on.
    let next_batch = |store: &gts_storage::GraphStore| {
        seeded_batch(store, inserts, deletes, seed ^ store.epoch())
    };

    // Baseline: the chain applied with no log at all.
    report.push(tag(spec(opts, "apply_chain_plain_ns", "ns").run_values(
        || {
            let mut store = base.clone();
            let t0 = Instant::now();
            for _ in 0..chain {
                let b = next_batch(&store);
                store.apply_mutations(&b).expect("apply");
            }
            t0.elapsed().as_nanos() as f64
        },
    )));
    let plain_med = report.entries.last().expect("just pushed").median();

    // Log-before-apply: the same chain through `apply_mutations_logged`,
    // paying a sealed fsynced append per batch.
    report.push(tag(spec(opts, "apply_chain_logged_ns", "ns").run_values(
        || {
            let mut store = base.clone();
            let dir = scratch("logged");
            let mut wal = Wal::open(&dir, &store).expect("fresh wal");
            let t0 = Instant::now();
            for _ in 0..chain {
                let b = next_batch(&store);
                store.apply_mutations_logged(&b, &mut wal).expect("apply");
            }
            let ns = t0.elapsed().as_nanos() as f64;
            std::fs::remove_dir_all(&dir).ok();
            ns
        },
    )));
    let logged_med = report.entries.last().expect("just pushed").median();
    report.push(entry(
        "logged_vs_plain",
        "ratio",
        vec![if plain_med > 0.0 {
            logged_med / plain_med
        } else {
            0.0
        }],
        &params,
    ));

    // One sealed chain on disk, reused (read-only) by the recovery
    // entries below.
    let sealed_dir = scratch("sealed");
    let tip_batch = {
        let mut store = base.clone();
        let mut wal = Wal::open(&sealed_dir, &store).expect("fresh wal");
        for _ in 0..chain {
            let b = next_batch(&store);
            store.apply_mutations_logged(&b, &mut wal).expect("apply");
        }
        next_batch(&store)
    };
    let sealed_log = sealed_dir.join(WAL_FILE);

    // Crash recovery: load the sealed chain and replay all of it onto
    // the base-epoch store — the cost of coming back from a snapshot
    // that predates every logged batch.
    report.push(tag(spec(opts, "recover_replay_ns", "ns").run_values(
        || {
            let mut store = base.clone();
            let t0 = Instant::now();
            let wal = Wal::load(&sealed_dir).expect("sealed log loads");
            let applied = wal.replay_onto(&mut store).expect("replay");
            let ns = t0.elapsed().as_nanos() as f64;
            assert_eq!(applied, chain, "whole chain replays");
            ns
        },
    )));

    // Torn-tail repair: a half-written append after the sealed chain,
    // cut off (and the cut fsynced) by the next `Wal::open`.
    report.push(tag(spec(opts, "reopen_repair_ns", "ns").run_values(|| {
        let dir = scratch("repair");
        std::fs::create_dir_all(&dir).expect("scratch dir");
        std::fs::copy(&sealed_log, dir.join(WAL_FILE)).expect("copy sealed log");
        // Reopening an intact log takes no durable step, so step 0 is
        // the append's write: the kill tears it.
        let mut torn = Wal::open_with(&dir, &base, KillSwitch::at(0)).expect("sealed log opens");
        torn.log_batch(&tip_batch, chain, chain + 1)
            .expect_err("the kill tears the append");
        let t0 = Instant::now();
        let repaired = Wal::open(&dir, &base).expect("repair");
        let ns = t0.elapsed().as_nanos() as f64;
        assert_eq!(repaired.records().len() as u64, chain, "tail dropped");
        std::fs::remove_dir_all(&dir).ok();
        ns
    })));
    std::fs::remove_dir_all(&sealed_dir).ok();

    // The scrub pass: one full checksum walk over the page set, the
    // per-interval cost `--scrub-every N` buys.
    let pages = base.num_pages();
    report.push(
        spec(opts, "scrub_walk_ns", "ns")
            .run(|| {
                let mut ok = 0u64;
                for pid in 0..pages {
                    ok += u64::from(base.page(pid).checksum_ok());
                }
                black_box(ok);
            })
            .param("rmat_scale", rmat_scale)
            .param("pages", pages),
    );
    report
}
