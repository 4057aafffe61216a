//! `pagerank_scan` — the paper's full-scan class. PageRank over an
//! in-memory RMAT17 store on one GPU with 16 streams, through
//! `Gts::run`, at `host_threads = 1` and at the multi-thread setting,
//! interleaved so drift hits both alike. Phase A (page kernels, the
//! fixed-point accumulators and the thread pool) is nearly all of the
//! wall time; cache, storage and phase B do almost nothing.

use crate::env::DurableDir;
use crate::trace::Tracer;
use crate::workload::{build_graph, timed, EngineOp, Graph, Measured, Params, StoreFile, Workload};
use gts_core::programs::PageRank;
use gts_core::{Gts, GtsConfig};
use gts_gpu::GpuConfig;
use gts_graph::reference;

/// Sweeps per run: each streams the whole topology once.
const ITERATIONS: u32 = 5;
/// Measured (1-thread, multi-thread) run pairs at the calibrated length.
const PAIRS: usize = 14;
/// Loads of the saved store file timed for `restart_ms_p50`, spread
/// between the pairs.
const RELOADS: usize = 12;
/// Accepted |rank − reference|: 1e-9, plus a millionth of the rank for
/// the few large ranks of small graphs (ranks are `f32`, the reference
/// `f64`; on RMAT17 the observed gap is below 1e-9 everywhere).
const RANK_TOLERANCE: (f64, f64) = (1e-9, 1e-6);
/// The scaled TITAN X of the repository's experiments (12 GiB → 12 MiB).
const DEVICE_MEMORY: u64 = 12 << 20;

pub struct PagerankScan {
    g: Graph,
    want: Vec<f64>,
}

impl PagerankScan {
    /// One timed `Gts::run`, then (untimed) the rank check.
    fn run(&self, p: &Params, threads: usize, op: u64, tr: &mut Tracer, m: &mut Measured) {
        let n = self.g.store.num_vertices();
        let engine = Gts::new(p.checked(Self::engine_cfg(threads, tr.enabled())));
        let mut pr = PageRank::new(n, ITERATIONS);
        let root = tr.begin("op:pagerank_run", op);
        let (report, wall_ns) =
            timed(|| tr.span("core:Gts::run", op, || engine.run(&self.g.store, &mut pr)));
        tr.end(root);
        let outcome = match report {
            Err(e) => Err(format!("run {op}: {e}")),
            Ok(report) => {
                tr.count(root, "edges", report.edges_traversed);
                m.engine_ops.push(EngineOp::new(
                    threads,
                    wall_ns,
                    report.edges_traversed as f64,
                    &engine.telemetry().counters(),
                ));
                if threads == p.mt() {
                    m.op_ms.push(wall_ns as f64 / 1e6);
                }
                m.sim_lat_us.push(report.elapsed.as_nanos() as f64 / 1e3);
                m.sim_elapsed_ns += report.elapsed.as_nanos();
                let (abs, rel) = RANK_TOLERANCE;
                let worst = pr
                    .ranks()
                    .iter()
                    .zip(&self.want)
                    .map(|(&got, &want)| (f64::from(got) - want).abs() - rel * want)
                    .fold(f64::MIN, f64::max);
                (worst <= abs)
                    .then_some(())
                    .ok_or_else(|| format!("run {op}: a rank is off by {worst:e} beyond tolerance"))
            }
        };
        m.check(outcome);
    }
}

impl Workload for PagerankScan {
    const NAME: &'static str = "pagerank_scan";

    fn setup(p: &Params, tr: &mut Tracer) -> Self {
        PagerankScan {
            g: build_graph(p.scale(17, 11), 64 << 10, p.seed, tr),
            want: Vec::new(),
        }
    }

    fn warm_up(&mut self, p: &Params, _dirs: &mut DurableDir) {
        self.want = reference::pagerank(&self.g.csr, 0.85, ITERATIONS);
        let mut scratch = Measured::default();
        for threads in p.thread_settings() {
            self.run(p, threads, 0, &mut Tracer::new(false), &mut scratch);
        }
    }

    fn measure(
        &mut self,
        p: &Params,
        share: f64,
        dirs: &mut DurableDir,
        tr: &mut Tracer,
    ) -> Measured {
        let mut m = Measured::default();
        let [t1, mt] = p.thread_settings();
        let pairs = p.reps(PAIRS, share);
        let file = StoreFile::save(&self.g.store, (p.reps(RELOADS, share), pairs), dirs, tr);
        for pair in 0..pairs as u64 {
            // Alternate which setting goes first.
            let order = if pair % 2 == 0 { [t1, mt] } else { [mt, t1] };
            for (k, threads) in order.into_iter().enumerate() {
                self.run(p, threads, pair * 2 + k as u64 + 1, tr, &mut m);
            }
            file.reload_if_due(pair as usize, &self.g.store, tr, &mut m);
        }
        m.set_store_footprint(&self.g.store);
        m
    }

    fn engine_cfg(threads: usize, phases: bool) -> GtsConfig {
        GtsConfig {
            gpu: GpuConfig::titan_x().with_device_memory(DEVICE_MEMORY),
            host_threads: threads,
            measure_host_phases: phases,
            ..GtsConfig::default()
        }
    }

    fn graph(&self) -> &Graph {
        &self.g
    }
}
