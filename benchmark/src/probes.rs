//! The per-layer ledger. Two sources: "ctr" numbers read from the engine
//! counters of the traced pass, and "ext" numbers timed here around one
//! layer's public functions. Store-bound probes replay inputs recorded
//! from the workload's own store (page walks, the page-access sequence
//! of BFS sweeps driven through `run_page_kernels`, the scatter
//! destinations of one sweep); the mutation, WAL, checkpoint and serve
//! probes run on the `live_mutations` / `serve_mixed` inputs of the same
//! seed, so every traced run emits the whole ledger.

use crate::env::DurableDir;
use crate::gen::{self, Digest, EdgeModel, Xorshift};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::workload::{build_graph, timed, Graph, Measured, Params, Workload};
use crate::workloads::live_mutations::{LiveMutations, BATCHES_PER_CYCLE, CYCLES, PAIRS_PER_BATCH};
use crate::workloads::serve_mixed::ServeMixed;
use gts_ckpt::CkptStore;
use gts_core::engine::CheckpointConfig;
use gts_core::programs::{Bfs, ExecMode, GtsProgram, KernelScratch, PageRank, SweepControl};
use gts_core::sweep::kernels::{lp_total_degrees, run_page_kernels, KernelEnv};
use gts_core::sweep::plan::SweepPlan;
use gts_core::{Engine, Gts, GtsConfig, MutationSchedule, Telemetry};
use gts_exec::{FixedVec, ThreadPool};
use gts_gpu::timer::{GpuTimer, KernelClass, KernelCost};
use gts_gpu::{GpuConfig, PcieConfig};
use gts_serve::serve;
use gts_serve::workload::{parse, render};
use gts_sim::SimTime;
use gts_storage::{
    load_store, save_store, CachePolicy, FetchPolicy, FifoCache, GraphStore, LruCache, MmBuf,
    MutationBatch, Page, PageKind, StorageArray, Wal,
};
use std::collections::BTreeSet;
use std::hint::black_box;

/// One ledger entry: metric name, value, samples behind it.
pub type Entry = (&'static str, f64, usize);

/// A reconciliation identity of the traced run.
pub struct Reconcile {
    pub what: String,
    pub lhs: f64,
    pub rhs: f64,
    /// Allowed |lhs − rhs| / rhs; 0 marks an identity that holds by
    /// construction (checked to rounding).
    pub tolerance: f64,
}

impl Reconcile {
    pub fn holds(&self) -> bool {
        let slack = if self.tolerance == 0.0 {
            1e-6
        } else {
            self.tolerance
        };
        (self.lhs - self.rhs).abs() <= slack * self.rhs.abs().max(f64::MIN_POSITIVE)
    }
}

pub struct Ledger {
    pub entries: Vec<Entry>,
    pub reconcile: Vec<Reconcile>,
    /// Probe operations attempted / failed (a probe whose call errors).
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Ledger {
    fn put(&mut self, name: &'static str, value: f64, n: usize) {
        self.entries.push((name, value, n));
    }

    /// Unwrap a probe call's result, counting it.
    fn ok<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        r.map_err(|e| {
            self.failed += 1;
            self.failures.push(format!("probe {what}: {e}"));
        })
        .ok()
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Median wall nanoseconds of `reps` calls of `f`.
fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps).map(|_| timed(&mut f).1 as f64).collect();
    median(&samples)
}

/// Build the whole ledger of a traced run.
pub fn ledger(
    p: &Params,
    (graph, cfg): (&Graph, &GtsConfig),
    traced: &Measured,
    untraced: &Measured,
    dirs: &mut DurableDir,
    tr: &mut Tracer,
) -> Ledger {
    let mut l = Ledger {
        entries: Vec::new(),
        reconcile: Vec::new(),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
    };
    from_counters(&mut l, p, traced, untraced);
    store_probes(&mut l, p, (graph, cfg), dirs, tr);
    primitive_probes(&mut l, p, graph);
    mutation_probes(&mut l, p, dirs, tr);
    serve_probes(&mut l, p, dirs, tr);
    l
}

// ------------------------------------------------------------ counters

/// "ctr" metrics: the engine's own counters over the traced pass.
fn from_counters(l: &mut Ledger, p: &Params, traced: &Measured, untraced: &Measured) {
    let ops = &traced.engine_ops;
    let n = ops.len();
    let sum = |f: &dyn Fn(&crate::workload::EngineOp) -> u64| ops.iter().map(f).sum::<u64>() as f64;
    let hits = sum(&|o| o.ctr.cache_hits);
    l.put(
        "storage.cache.hit_share",
        ratio(hits, hits + sum(&|o| o.ctr.cache_misses)),
        n,
    );
    let mm = sum(&|o| o.ctr.mmbuf_hits);
    l.put(
        "storage.mmbuf.hit_share",
        ratio(mm, mm + sum(&|o| o.ctr.mmbuf_misses)),
        n,
    );
    l.put(
        "storage.device.bytes_read",
        ratio(sum(&|o| o.ctr.io_bytes), n as f64),
        n,
    );
    let sim = sum(&|o| o.ctr.sim_ns);
    l.put(
        "gpu.timer.kernel_share",
        ratio(sum(&|o| o.ctr.kernel_ns), sim),
        n,
    );
    l.put(
        "gpu.timer.transfer_share",
        ratio(sum(&|o| o.ctr.transfer_ns), sim),
        n,
    );
    l.put(
        "gpu.timer.stalls",
        ratio(sum(&|o| o.ctr.stalls), n as f64),
        n,
    );

    let [t1, mt] = p.thread_settings();
    let at = |threads: usize| ops.iter().filter(move |o| o.threads == threads);
    let ms =
        |it: &mut dyn Iterator<Item = u64>| -> Vec<f64> { it.map(|ns| ns as f64 / 1e6).collect() };
    let a_t1 = ms(&mut at(t1).map(|o| o.ctr.phase_a_ns));
    let a_mt = ms(&mut at(mt).map(|o| o.ctr.phase_a_ns));
    l.put("core.kernels.phase_a_ms", median(&a_t1), a_t1.len());
    l.put("core.kernels.phase_a_ms_mt", median(&a_mt), a_mt.len());
    l.put(
        "core.kernels.mt_vs_t1",
        ratio(median(&a_mt), median(&a_t1)),
        a_mt.len(),
    );
    let (a_ns, edges) = at(t1).fold((0u64, 0u64), |(a, e), o| {
        (a + o.ctr.phase_a_ns, e + o.ctr.edges)
    });
    l.put(
        "core.kernels.phase_a_ns_per_edge",
        ratio(a_ns as f64, edges as f64),
        a_t1.len(),
    );
    let b = ms(&mut ops.iter().map(|o| o.ctr.phase_b_ns));
    l.put("core.account.phase_b_ms", median(&b), n);
    let (a_all, b_all) = (sum(&|o| o.ctr.phase_a_ns), sum(&|o| o.ctr.phase_b_ns));
    l.put("core.account.phase_b_share", ratio(b_all, a_all + b_all), n);

    // Residual of the serial runs: wall − phase A − phase B (job open,
    // lane set-up, finalize; for `serve`, the scheduler and journal too).
    let residual: Vec<f64> = at(t1)
        .map(|o| (o.wall_ns as f64 - (o.ctr.phase_a_ns + o.ctr.phase_b_ns) as f64) / 1e3)
        .collect();
    l.put("core.job.residual_us", median(&residual), residual.len());
    let walls: Vec<f64> = ops.iter().map(|o| o.wall_ns as f64 / 1e6).collect();
    l.put("core.job.run_ms_p90", percentile(&walls, 90), n);
    // Simulated latency of one request, and the store's footprint after
    // the pass: deterministic, so two commits compare exactly.
    let lat = &traced.sim_lat_us;
    l.put("core.job.sim_lat_p50_us", percentile(lat, 50), lat.len());
    l.put("core.job.sim_lat_p95_us", percentile(lat, 95), lat.len());
    l.put(
        "storage.mutate.store_bytes_per_edge",
        traced.store_bytes_per_edge,
        1,
    );
    let (wall, parts) = at(t1).fold((0.0, 0.0), |(w, s), o| {
        (
            w + o.wall_ns as f64,
            s + (o.ctr.phase_a_ns + o.ctr.phase_b_ns) as f64,
        )
    });
    l.reconcile.push(Reconcile {
        what: "phase A + phase B + core.job.residual_us vs run wall (1-thread runs)".into(),
        lhs: parts + residual.iter().sum::<f64>() * 1e3,
        rhs: wall,
        tolerance: 0.0,
    });

    // This benchmark's own tracing: the traced pass against the untraced
    // pass of the same length, on total engine wall time.
    let total = |m: &Measured| m.engine_ops.iter().map(|o| o.wall_ns).sum::<u64>() as f64;
    l.put(
        "telemetry.trace_overhead_share",
        ratio(total(traced) - total(untraced), total(untraced)),
        n,
    );
}

// --------------------------------------------------------- store-bound

/// The page-access record of BFS sweeps over the workload's store.
struct AccessRecord {
    /// Page ids in streaming order, sweep after sweep.
    pids: Vec<u64>,
    /// The marked set each sweep's plan was expanded from.
    marked: Vec<BTreeSet<u64>>,
}

/// Drive `prog` over `store` sweep by sweep through the public kernel
/// and plan functions, recording what the engine's phase A would touch.
fn record_sweeps(
    store: &GraphStore,
    prog: &mut dyn GtsProgram,
    cfg: &GtsConfig,
    rec: &mut AccessRecord,
) -> Result<(), String> {
    let lp_degrees = lp_total_degrees(store);
    let pool = ThreadPool::new(1);
    let mut scratch = KernelScratch::default();
    let mut plan = SweepPlan::seeded(store, prog.start_vertex()).map_err(|e| e.to_string())?;
    for sweep in 0u32.. {
        let env = KernelEnv {
            store,
            lp_degrees: &lp_degrees,
            technique: cfg.technique,
            sweep,
        };
        let mut next = BTreeSet::new();
        let mut any_update = false;
        for phase in plan.phases() {
            rec.pids.extend_from_slice(phase);
            for outcome in run_page_kernels(prog, &pool, &env, phase, &mut scratch) {
                any_update |= outcome.work.updated;
                next.extend(outcome.next_pids);
            }
        }
        let marked = match prog.end_sweep(sweep, next.is_empty(), any_update) {
            SweepControl::Done => break,
            SweepControl::ContinueWith(pids) => pids.into_iter().collect(),
            SweepControl::Continue if prog.mode() == ExecMode::Sweep => {
                plan = SweepPlan::full(store);
                continue;
            }
            SweepControl::Continue => next,
        };
        plan = SweepPlan::from_marked(store, marked.clone()).map_err(|e| e.to_string())?;
        rec.marked.push(marked);
    }
    Ok(())
}

/// Probes on the workload's own graph and store.
fn store_probes(
    l: &mut Ledger,
    p: &Params,
    (graph, cfg): (&Graph, &GtsConfig),
    dirs: &mut DurableDir,
    tr: &mut Tracer,
) {
    let Graph {
        csr,
        store,
        times: setup,
        ..
    } = graph;
    let edges = setup.edges as f64;
    l.put(
        "graph.generate.ns_per_edge",
        setup.generate_ns as f64 / edges,
        1,
    );
    l.put("graph.csr.ns_per_edge", setup.csr_ns as f64 / edges, 1);
    l.put(
        "storage.builder.ns_per_edge",
        setup.build_ns as f64 / edges,
        1,
    );

    // Page verification on never-verified copies of (up to 2048) pages.
    let fmt = store.cfg();
    let fresh: Vec<Page> = store
        .pages()
        .iter()
        .take(2048)
        .map(|pg| Page::new(pg.pid, pg.kind, pg.data.clone()))
        .collect();
    let (verified, ns) = timed(|| {
        tr.span("storage.page:Page::verify", 0, || {
            fresh.iter().filter(|pg| pg.verify(fmt).is_ok()).count()
        })
    });
    l.ok(
        "Page::verify",
        (verified == fresh.len())
            .then_some(())
            .ok_or("a sealed page failed verification"),
    );
    l.put(
        "storage.page.verify_ns_per_page",
        ns as f64 / fresh.len() as f64,
        fresh.len(),
    );

    // Full adjacency walk through `PageView`: the floor under any kernel.
    let scan = || {
        let mut acc = 0u64;
        for pid in 0..store.num_pages() {
            let v = store.view(pid);
            match v.kind() {
                PageKind::Small => {
                    for (vid, adj) in v.sp_vertices() {
                        acc = acc.wrapping_add(vid);
                        for rid in adj {
                            acc = acc.wrapping_add(rid.pid ^ u64::from(rid.slot));
                        }
                    }
                }
                PageKind::Large => {
                    for i in 0..v.count() {
                        let rid = v.lp_adj(i);
                        acc = acc.wrapping_add(rid.pid ^ u64::from(rid.slot));
                    }
                }
            }
        }
        black_box(acc);
    };
    let ns = tr.span("storage.page:PageView walk", 0, || median_ns(3, scan));
    l.put(
        "storage.page.scan_ns_per_edge",
        ns / store.num_edges() as f64,
        3,
    );

    // BFS sweeps from seeded sources, driven from outside, give the page
    // access sequence and the nextPIDSets the cache / MMBuf / device /
    // plan probes replay.
    let mut rec = AccessRecord {
        pids: Vec::new(),
        marked: Vec::new(),
    };
    let mut rng = Xorshift::new(gen::sub_seed(p.seed, "probe sources"));
    let probe_sources = gen::sources(csr, 8, &mut rng);
    let id = tr.begin("core.kernels:run_page_kernels(bfs sweeps)", 0);
    for &s in &probe_sources {
        let mut bfs = Bfs::new(store.num_vertices(), u64::from(s));
        let r = record_sweeps(store, &mut bfs, cfg, &mut rec);
        l.ok("BFS sweeps", r);
    }
    tr.end(id);
    tr.count(id, "pages", rec.pids.len() as u64);
    let accesses = rec.pids.len().max(1) as f64;

    // Cache capacity: what the engine actually gave GPU 0 for this
    // store and configuration (and, on the way, the cost of recording
    // telemetry spans).
    let source = u64::from(probe_sources[0]);
    let mut capacity = 0usize;
    let mut with_spans = Vec::new();
    let mut without = Vec::new();
    for rep in 0..6 {
        let spans = rep % 2 == 1;
        let tel = if spans {
            Telemetry::with_spans()
        } else {
            Telemetry::new()
        };
        let engine = Gts::builder().config(cfg.clone()).telemetry(tel).build();
        let Some(engine) = l.ok("Gts::builder", engine) else {
            continue;
        };
        let mut bfs = Bfs::new(store.num_vertices(), source);
        let (report, ns) = timed(|| engine.run(store, &mut bfs));
        if let Some(report) = l.ok("Gts::run", report) {
            capacity = report.per_gpu.first().map_or(0, |g| g.cache_capacity_pages);
            if spans { &mut with_spans } else { &mut without }.push(ns as f64);
        }
    }
    l.put(
        "telemetry.spans_overhead_share",
        ratio(median(&with_spans) - median(&without), median(&without)),
        with_spans.len(),
    );
    // A cache holding the whole store never evicts; keep the probe in the
    // replacement regime the out-of-core workload runs in.
    let capacity = capacity.clamp(1, (store.num_pages() as usize / 4).max(1));

    let replay = |cache: &mut dyn CachePolicy| {
        let mut hits = 0u64;
        for &pid in &rec.pids {
            hits += u64::from(cache.access(pid));
        }
        black_box(hits);
    };
    let lru = tr.span("storage.cache:LruCache::access", 0, || {
        median_ns(3, || replay(&mut LruCache::new(capacity)))
    });
    let fifo = tr.span("storage.cache:FifoCache::access", 0, || {
        median_ns(3, || replay(&mut FifoCache::new(capacity)))
    });
    l.put("storage.cache.lru_probe_ns", lru / accesses, 3);
    l.put("storage.cache.fifo_probe_ns", fifo / accesses, 3);
    l.put("storage.cache.lru_vs_fifo", ratio(lru, fifo), 3);

    // Targeted invalidation of every distinct page, on a warm cache.
    let distinct: Vec<u64> = rec
        .pids
        .iter()
        .copied()
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let inval: Vec<f64> = (0..3)
        .map(|_| {
            let mut cache = LruCache::new(capacity);
            replay(&mut cache);
            timed(|| {
                let mut dropped = 0u64;
                for &pid in &distinct {
                    dropped += u64::from(cache.invalidate(pid));
                }
                black_box(dropped);
            })
            .1 as f64
        })
        .collect();
    l.put(
        "storage.cache.invalidate_ns_per_page",
        median(&inval) / distinct.len().max(1) as f64,
        3,
    );

    // What misses the cache goes to the MMBuf, and what misses that to
    // the device model.
    let mut cache = LruCache::new(capacity);
    let misses: Vec<u64> = rec
        .pids
        .iter()
        .copied()
        .filter(|&pid| !cache.access(pid))
        .collect();
    let mmbuf_ns = tr.span("storage.mmbuf:MmBuf::access", 0, || {
        median_ns(3, || {
            let mut buf = MmBuf::with_fraction(store.num_pages(), cfg.mmbuf_percent);
            let mut hits = 0u64;
            for &pid in &misses {
                hits += u64::from(buf.access(pid));
            }
            black_box(hits);
        })
    });
    l.put(
        "storage.mmbuf.access_ns",
        mmbuf_ns / misses.len().max(1) as f64,
        3,
    );
    let page_bytes = fmt.page_size as u64;
    let mut fetch_failed = false;
    let fetch_ns = tr.span("storage.device:StorageArray::fetch", 0, || {
        median_ns(3, || {
            let mut array = StorageArray::ssds(2);
            for &pid in &misses {
                let policy = FetchPolicy::verified(store.page(pid));
                fetch_failed |= array.fetch(pid, page_bytes, SimTime::ZERO, policy).is_err();
            }
        })
    });
    l.ok(
        "StorageArray::fetch",
        (!fetch_failed).then_some(()).ok_or("a fetch failed"),
    );
    l.put(
        "storage.device.fetch_ns_per_page",
        fetch_ns / misses.len().max(1) as f64,
        3,
    );

    // Planning: expand the recorded nextPIDSets again.
    let mut planned = 0usize;
    let mut plan_failed = false;
    let plan_ns = tr.span("core.plan:SweepPlan::from_marked", 0, || {
        median_ns(3, || {
            planned = 0;
            for marked in &rec.marked {
                match SweepPlan::from_marked(store, marked.clone()) {
                    Ok(plan) => planned += plan.num_pages(),
                    Err(_) => plan_failed = true,
                }
            }
        })
    });
    l.ok(
        "SweepPlan::from_marked",
        (!plan_failed)
            .then_some(())
            .ok_or("a recorded set failed to plan"),
    );
    l.put(
        "core.plan.from_marked_ns_per_page",
        plan_ns / planned.max(1) as f64,
        3,
    );

    // One full PageRank sweep through the kernels, serial, alternating
    // with the same sweep through the engine: the outside timing must
    // agree with the engine's own phase-A counter.
    let lp_degrees = lp_total_degrees(store);
    let full = SweepPlan::full(store);
    let pool = ThreadPool::new(1);
    let (mut ext, mut ctr) = (Vec::new(), Vec::new());
    let id = tr.begin("core.kernels:run_page_kernels(pagerank sweep)", 0);
    for _ in 0..5 {
        let mut pr = PageRank::new(store.num_vertices(), 1);
        let env = KernelEnv {
            store,
            lp_degrees: &lp_degrees,
            technique: cfg.technique,
            sweep: 0,
        };
        let mut scratch = KernelScratch::default();
        let mut edges = 0u64;
        let ns = timed(|| {
            for phase in full.phases() {
                for outcome in run_page_kernels(&mut pr, &pool, &env, phase, &mut scratch) {
                    edges += outcome.work.active_edges;
                }
            }
        })
        .1;
        ext.push(ns as f64 / edges.max(1) as f64);

        let engine = Gts::new(GtsConfig {
            host_threads: 1,
            measure_host_phases: true,
            ..cfg.clone()
        });
        let mut pr = PageRank::new(store.num_vertices(), 1);
        if let Some(report) = l.ok("Gts::run (one sweep)", engine.run(store, &mut pr)) {
            let a_ns = engine
                .telemetry()
                .counter(gts_telemetry::keys::HOST_PHASE_A_NS);
            ctr.push(a_ns as f64 / report.edges_traversed.max(1) as f64);
        }
    }
    tr.end(id);
    l.put("core.kernels.ext_ns_per_edge", median(&ext), ext.len());
    l.reconcile.push(Reconcile {
        what: "core.kernels.ext_ns_per_edge vs the engine's phase-A counter per edge, same sweep"
            .into(),
        lhs: median(&ext),
        rhs: median(&ctr),
        tolerance: 0.10,
    });
    let lp_ns = tr.span("core.kernels:lp_total_degrees", 0, || {
        median_ns(5, || {
            black_box(lp_total_degrees(store));
        })
    });
    l.put("core.kernels.lp_degrees_us", lp_ns / 1e3, 5);

    // The store file a CLI user saves once and loads on every run.
    let file = dirs.fresh("probe-store").with_extension("gts");
    let (saved, save_ns) =
        timed(|| tr.span("storage.file:save_store", 0, || save_store(store, &file)));
    l.ok("save_store", saved);
    l.put("storage.file.save_ms", save_ns as f64 / 1e6, 1);
    let mut load_failed = None;
    let load_ns = tr.span("storage.file:load_store", 0, || {
        median_ns(3, || match load_store(&file) {
            Ok(s) => drop(black_box(s)),
            Err(e) => load_failed = Some(e.to_string()),
        })
    });
    l.ok("load_store", load_failed.map_or(Ok(()), Err));
    l.put("storage.file.load_ms", load_ns / 1e6, 3);
    let _ = std::fs::remove_file(&file);
}

// ----------------------------------------------------- exec, gpu, telemetry

/// Input-independent primitives, and the scatter of one sweep.
fn primitive_probes(l: &mut Ledger, p: &Params, graph: &Graph) {
    let mt = p.mt();
    let pool = ThreadPool::new(mt);
    let items: Vec<usize> = (0..mt).collect();
    let fanout: Vec<f64> = (0..200)
        .map(|_| {
            timed(|| {
                pool.par_for_each(&items, |i, _| {
                    black_box(i);
                })
            })
            .1 as f64
        })
        .collect();
    l.put("exec.pool.fanout_us", median(&fanout) / 1e3, fanout.len());

    // `FixedVec::add` over the destination sequence of one sweep (the
    // CSR's targets are in the order a full scan visits them).
    let targets = graph.csr.targets();
    let targets = &targets[..targets.len().min(1 << 21)];
    let n = graph.csr.num_vertices() as usize;
    let scatter = |pool: &ThreadPool| {
        let acc = FixedVec::new(n);
        let ns = timed(|| {
            pool.par_ranges(
                targets.len(),
                1 << 14,
                || (),
                |(), range| {
                    for &t in &targets[range] {
                        acc.add(t as usize, 0.25);
                    }
                },
            );
        })
        .1;
        black_box(acc.get(0));
        ns as f64
    };
    let serial = ThreadPool::new(1);
    let t1: Vec<f64> = (0..3).map(|_| scatter(&serial)).collect();
    let mtv: Vec<f64> = (0..3).map(|_| scatter(&pool)).collect();
    let adds = targets.len().max(1) as f64;
    l.put("exec.fixed.add_ns_t1", median(&t1) / adds, 3);
    l.put("exec.fixed.add_ns_mt", median(&mtv) / adds, 3);

    // Host cost of issuing one streamed copy + kernel pair to the timer.
    const PAIRS: usize = 100_000;
    let issue = median_ns(3, || {
        let mut timer = GpuTimer::new(GpuConfig::titan_x(), PcieConfig::gen3_x16(), 16);
        let cost = KernelCost {
            class: KernelClass::Traversal,
            lane_slots: 4096,
            atomic_ops: 64,
        };
        let mut t = SimTime::ZERO;
        for i in 0..PAIRS {
            let copy = timer.stream_h2d(i, 64 << 10, t, "page");
            t = timer.stream_kernel(i, cost, copy.end, "kernel").start;
        }
        black_box(timer.sync());
    });
    l.put("gpu.timer.issue_ns", issue / PAIRS as f64, 3);

    const ADDS: usize = 200_000;
    let tel = Telemetry::new();
    let add = median_ns(3, || {
        for _ in 0..ADDS {
            tel.add("bench.probe", 1);
        }
    });
    l.put("telemetry.counter_add_ns", add / ADDS as f64, 3);
}

// ------------------------------------------------- mutate, wal, checkpoint

/// Mutation apply at two graph sizes, the WAL and the checkpoint store,
/// on the `live_mutations` inputs of this seed.
fn mutation_probes(l: &mut Ledger, p: &Params, dirs: &mut DurableDir, tr: &mut Tracer) {
    // As many batches as the traced pass of `live_mutations` logs.
    let batches_n = p.reps(CYCLES, crate::TRACED_SHARE).next_multiple_of(2) * BATCHES_PER_CYCLE;
    let quiet = &mut Tracer::new(false);
    let (s_small, s_large) = (p.scale(12, 9), p.scale(14, 10));
    let small = build_graph(s_small, 64 << 10, p.seed, quiet);
    let large = build_graph(s_large, 64 << 10, p.seed, quiet);

    let draw = |g: &crate::workload::Graph| -> Vec<MutationBatch> {
        let mut model = EdgeModel::new(&g.edges);
        let mut rng = Xorshift::new(gen::sub_seed(p.seed, "batches"));
        let mut digest = Digest::new();
        (0..batches_n)
            .map(|_| model.next_batch(&mut rng, PAIRS_PER_BATCH, &mut digest))
            .collect()
    };
    let (small_batches, large_batches) = (draw(&small), draw(&large));
    // Batch by batch, so that the machine's slow spells hit all four
    // alike: plain apply at both sizes, the bare log append, and the
    // logged apply the workload itself calls.
    let wal_dir = dirs.fresh("probe-wal");
    let logged_dir = dirs.fresh("probe-logged-wal");
    let (mut small_store, mut large_store) = (small.store.clone(), large.store.clone());
    let mut logged_store = large.store.clone();
    let (mut us12, mut us14, mut log_us, mut logged_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut rewritten, mut delta, mut bytes) = (0u64, 0u64, 0u64);
    let wals = (
        l.ok("Wal::open", Wal::open(&wal_dir, &large.store)),
        l.ok("Wal::open", Wal::open(&logged_dir, &large.store)),
    );
    if let (Some(mut wal), Some(mut logged_wal)) = wals {
        for (i, (small_batch, batch)) in small_batches.iter().zip(&large_batches).enumerate() {
            let op = i as u64;
            let (out, ns) = timed(|| small_store.apply_mutations(small_batch));
            if l.ok("apply_mutations (s12)", out).is_some() {
                us12.push(ns as f64 / 1e3);
            }
            let (out, ns) = timed(|| {
                tr.span("storage.mutate:apply_mutations", op, || {
                    large_store.apply_mutations(batch)
                })
            });
            if let Some(out) = l.ok("apply_mutations (s14)", out) {
                us14.push(ns as f64 / 1e3);
                rewritten += out.pages_rewritten;
                delta += out.delta_pages_allocated;
            }
            let pre = large.store.epoch() + op;
            let (appended, ns) = timed(|| {
                tr.span("storage.wal:Wal::log_batch", op, || {
                    wal.log_batch(batch, pre, pre + 1)
                })
            });
            if let Some(b) = l.ok("Wal::log_batch", appended) {
                log_us.push(ns as f64 / 1e3);
                bytes += b;
            }
            let (out, ns) = timed(|| logged_store.apply_mutations_logged(batch, &mut logged_wal));
            if l.ok("apply_mutations_logged", out).is_some() {
                logged_us.push(ns as f64 / 1e3);
            }
        }
    }
    let _ = std::fs::remove_dir_all(&logged_dir);
    l.put("storage.mutate.apply_us_s12", median(&us12), us12.len());
    l.put("storage.mutate.apply_us_s14", median(&us14), us14.len());
    l.put(
        "storage.mutate.apply_us_s14_p90",
        percentile(&us14, 90),
        us14.len(),
    );
    l.put(
        "storage.mutate.s14_vs_s12",
        ratio(median(&us14), median(&us12)),
        us14.len(),
    );
    let applied = us14.len().max(1) as f64;
    l.put(
        "storage.mutate.pages_rewritten_per_batch",
        rewritten as f64 / applied,
        us14.len(),
    );
    l.put(
        "storage.mutate.delta_pages_per_batch",
        delta as f64 / applied,
        us14.len(),
    );
    l.reconcile.push(Reconcile {
        what: "storage.wal.log_us_per_batch + storage.mutate.apply_us_s14 vs apply_mutations_logged, same batches"
            .into(),
        lhs: median(&log_us) + median(&us14),
        rhs: median(&logged_us),
        tolerance: 0.15,
    });

    // The log reopened, loaded and replayed onto the base store.
    l.put(
        "storage.wal.log_us_per_batch",
        median(&log_us),
        log_us.len(),
    );
    let ops = (log_us.len() * PAIRS_PER_BATCH * 2).max(1) as f64;
    l.put("storage.wal.bytes_per_op", bytes as f64 / ops, log_us.len());
    let mut open_failed = None;
    let open_ns = tr.span("storage.wal:Wal::open", 0, || {
        median_ns(3, || {
            if let Err(e) = Wal::open(&wal_dir, &large.store) {
                open_failed = Some(e.to_string());
            }
        })
    });
    l.ok("Wal::open (existing)", open_failed.map_or(Ok(()), Err));
    l.put("storage.wal.open_ms", open_ns / 1e6, 3);
    let mut replayed_store = large.store.clone();
    let (replayed, replay_ns) = timed(|| {
        tr.span("storage.wal:Wal::load+replay_onto", 0, || {
            Wal::load(&wal_dir).and_then(|wal| wal.replay_onto(&mut replayed_store))
        })
    });
    let records = l.ok("Wal::replay_onto", replayed).unwrap_or(0).max(1);
    l.put(
        "storage.wal.replay_us_per_record",
        replay_ns as f64 / 1e3 / records as f64,
        records as usize,
    );
    let _ = std::fs::remove_dir_all(&wal_dir);

    // What one fsync costs on the filesystem behind the durable
    // directories (diagnostic: explains log_us_per_batch on this box).
    let probe_file = dirs.fresh("fsync");
    let fsync: Vec<f64> = (0..20)
        .filter_map(|_| {
            let (r, ns) = timed(|| -> std::io::Result<()> {
                use std::io::Write;
                let mut f = std::fs::File::create(&probe_file)?;
                f.write_all(&[0u8; 4096])?;
                f.sync_all()
            });
            r.ok().map(|()| ns as f64 / 1e3)
        })
        .collect();
    l.ok(
        "fsync",
        (!fsync.is_empty())
            .then_some(())
            .ok_or("no fsync succeeded"),
    );
    l.put("storage.wal.fsync_us_disk", median(&fsync), fsync.len());
    let _ = std::fs::remove_file(&probe_file);

    // The checkpoint store at the size of a live query's snapshot.
    let ck_dir = dirs.fresh("probe-ckpt");
    let live_wal = dirs.fresh("probe-live-wal");
    let engine = Gts::new(p.checked(GtsConfig {
        wal_dir: Some(live_wal.clone()),
        checkpoint: Some(CheckpointConfig::new(&ck_dir, 2)),
        ..LiveMutations::engine_cfg(1, false)
    }));
    let mut live_store = large.store.clone();
    let mut rng = Xorshift::new(gen::sub_seed(p.seed, "probe live query"));
    let source = gen::sources(&large.csr, 1, &mut rng)[0];
    let mut bfs = Bfs::new(live_store.num_vertices(), u64::from(source));
    let schedule = MutationSchedule::new().at(1, large_batches[0].clone());
    let ran = engine.run_live(&mut live_store, &mut bfs, schedule);
    l.ok("Gts::run_live", ran);
    let snapshot = CkptStore::open(&ck_dir).and_then(|ck| ck.load_latest());
    if let Some((_, snap)) = l.ok("CkptStore::load_latest", snapshot) {
        let encoded = snap.encode().len().max(1);
        let encode_ns = median_ns(5, || drop(black_box(snap.encode())));
        l.put("ckpt.encode_ns_per_byte", encode_ns / encoded as f64, 5);
        let scratch_dir = dirs.fresh("probe-ckpt-write");
        if let Some(ck) = l.ok("CkptStore::open", CkptStore::open(&scratch_dir)) {
            let mut seq = 0u64;
            let mut failed = None;
            let write_ns = tr.span("ckpt:CkptStore::write", 0, || {
                median_ns(5, || {
                    seq += 1;
                    if let Err(e) = ck.write(seq, &snap) {
                        failed = Some(e.to_string());
                    }
                })
            });
            let load_ns = tr.span("ckpt:CkptStore::load_latest", 0, || {
                median_ns(5, || {
                    if let Err(e) = ck.load_latest() {
                        failed = Some(e.to_string());
                    }
                })
            });
            l.ok("CkptStore::write/load_latest", failed.map_or(Ok(()), Err));
            l.put("ckpt.write_us", write_ns / 1e3, 5);
            l.put("ckpt.load_us", load_ns / 1e3, 5);
        }
        let _ = std::fs::remove_dir_all(&scratch_dir);
    }
    let _ = std::fs::remove_dir_all(&ck_dir);
    let _ = std::fs::remove_dir_all(&live_wal);
}

// ---------------------------------------------------------------- serve

/// The scheduler's and the journal's own cost, on the `serve_mixed`
/// inputs of this seed: one `serve` call with journal and WAL, one
/// without, and the same jobs one by one through `Engine::run_job`.
fn serve_probes(l: &mut Ledger, p: &Params, dirs: &mut DurableDir, tr: &mut Tracer) {
    let w = ServeMixed::setup(p, &mut Tracer::new(false));
    let jobs = w.jobs.len().max(1) as f64;

    let text = render(&w.jobs);
    let mut parse_failed = None;
    let parse_ns = median_ns(5, || match parse(&text) {
        Ok(parsed) => drop(black_box(parsed)),
        Err(e) => parse_failed = Some(e.to_string()),
    });
    l.ok("workload::parse", parse_failed.map_or(Ok(()), Err));
    l.put("serve.workload.parse_ns_per_job", parse_ns / jobs, 5);

    let Some(engine) = l.ok(
        "Engine::new",
        Engine::new(p.checked(ServeMixed::engine_cfg(1, false))),
    ) else {
        return;
    };
    let call_dirs = ServeMixed::fresh_dirs(dirs);
    let mut with_store = w.base_store().clone();
    let (with_journal, with_ns) = timed(|| {
        tr.span("serve:serve(journal+wal)", 0, || {
            serve(
                &engine,
                &mut with_store,
                &w.jobs,
                &ServeMixed::serve_cfg(Some(&call_dirs), false),
            )
        })
    });
    let mut bare_store = w.base_store().clone();
    let (bare, bare_ns) = timed(|| {
        tr.span("serve:serve(bare)", 0, || {
            serve(
                &engine,
                &mut bare_store,
                &w.jobs,
                &ServeMixed::serve_cfg(None, false),
            )
        })
    });
    l.ok("serve (bare)", bare);
    let mut solo_store = w.base_store().clone();
    let mut solo_ns = 0u64;
    let id = tr.begin("core.job:Engine::run_job(solo, all jobs)", 0);
    for spec in &w.jobs {
        if let Some((_, ns)) = l.ok("solo job", ServeMixed::solo(&engine, &mut solo_store, spec)) {
            solo_ns += ns;
        }
    }
    tr.end(id);

    if let Some(out) = l.ok("serve (journal+wal)", with_journal) {
        let overhead = (with_ns as f64 - solo_ns as f64) / 1e3 / jobs;
        l.put(
            "serve.scheduler.overhead_us_per_job",
            overhead,
            w.jobs.len(),
        );
        let lat: Vec<f64> = out
            .jobs
            .iter()
            .map(|j| j.latency_ns() as f64 / 1e3)
            .collect();
        l.put(
            "serve.scheduler.sim_lat_p50_us",
            percentile(&lat, 50),
            lat.len(),
        );
        l.put(
            "serve.scheduler.sim_lat_p95_us",
            percentile(&lat, 95),
            lat.len(),
        );
        let waits: Vec<f64> = out.jobs.iter().map(|j| j.wait_ns() as f64 / 1e3).collect();
        l.put(
            "serve.scheduler.sim_wait_p95_us",
            percentile(&waits, 95),
            waits.len(),
        );
        l.put("serve.scheduler.dropped", out.dropped as f64, w.jobs.len());
        l.put(
            "serve.journal.us_per_job",
            (with_ns as f64 - bare_ns as f64) / 1e3 / jobs,
            w.jobs.len(),
        );
        let counter = |k: &str| out.telemetry.counter(k) as f64;
        l.put(
            "serve.journal.records",
            counter(gts_telemetry::keys::SERVE_JOURNAL_RECORDS),
            1,
        );
        l.put(
            "serve.journal.flushes",
            counter(gts_telemetry::keys::SERVE_JOURNAL_FLUSHES),
            1,
        );
        l.reconcile.push(Reconcile {
            what: "solo job walls + serve.scheduler.overhead_us_per_job × jobs vs serve wall"
                .into(),
            lhs: solo_ns as f64 + overhead * 1e3 * jobs,
            rhs: with_ns as f64,
            tolerance: 0.0,
        });
    }
}
