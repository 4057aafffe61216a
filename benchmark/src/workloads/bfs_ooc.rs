//! `bfs_ooc` — the paper's frontier-driven, out-of-core class. BFS from
//! seeded sources over an RMAT18 store cut into 4 KiB pages, striped
//! over two simulated SSDs behind a 20 % MMBuf, two GPUs under
//! Strategy-S whose 16 MiB of device memory cache less than the working
//! set. Kernels are light here; planning, ingest, the page cache, the
//! MMBuf, the device model and the GPU timers do a several times larger
//! share of the work than in any other workload.

use crate::env::DurableDir;
use crate::gen::{self, Xorshift};
use crate::trace::Tracer;
use crate::workload::{build_graph, timed, EngineOp, Graph, Measured, Params, StoreFile, Workload};
use gts_core::engine::CachePolicyKind;
use gts_core::programs::Bfs;
use gts_core::{Gts, GtsConfig, StorageLocation, Strategy};
use gts_gpu::GpuConfig;
use gts_graph::reference;

/// Sources at the calibrated length; each is run at both thread settings.
const SOURCES: usize = 40;
const WARM_UPS: usize = 3;
const RELOADS: usize = 8;
const DEVICE_MEMORY: u64 = 16 << 20;

pub struct BfsOoc {
    g: Graph,
    sources_digest: u64,
}

impl BfsOoc {
    /// One timed BFS; `want` are the reference levels for `source`.
    fn run(
        &self,
        p: &Params,
        threads: usize,
        (op, source): (u64, u32),
        want: &[u32],
        tr: &mut Tracer,
        m: &mut Measured,
    ) -> Option<u64> {
        let engine = Gts::new(p.checked(Self::engine_cfg(threads, tr.enabled())));
        let mut bfs = Bfs::new(self.g.store.num_vertices(), u64::from(source));
        let root = tr.begin("op:bfs_query", op);
        let (report, wall_ns) =
            timed(|| tr.span("core:Gts::run", op, || engine.run(&self.g.store, &mut bfs)));
        tr.end(root);
        let mut sim = None;
        let outcome = match report {
            Err(e) => Err(format!("bfs from {source}: {e}")),
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
                sim = Some(report.elapsed.as_nanos());
                (bfs.levels_u32() == want)
                    .then_some(())
                    .ok_or_else(|| format!("bfs from {source}: levels differ from the reference"))
            }
        };
        m.check(outcome);
        sim
    }
}

impl Workload for BfsOoc {
    const NAME: &'static str = "bfs_ooc";

    fn setup(p: &Params, tr: &mut Tracer) -> Self {
        BfsOoc {
            g: build_graph(p.scale(18, 12), 4 << 10, p.seed, tr),
            sources_digest: 0,
        }
    }

    fn warm_up(&mut self, p: &Params, _dirs: &mut DurableDir) {
        let mut rng = Xorshift::new(gen::sub_seed(p.seed, "warm-up sources"));
        let mut scratch = Measured::default();
        for (i, &s) in gen::sources(&self.g.csr, WARM_UPS, &mut rng)
            .iter()
            .enumerate()
        {
            let want = reference::bfs(&self.g.csr, s);
            let threads = p.thread_settings()[i % 2];
            self.run(
                p,
                threads,
                (0, s),
                &want,
                &mut Tracer::new(false),
                &mut scratch,
            );
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
        let mut rng = Xorshift::new(gen::sub_seed(p.seed, "sources"));
        let sources = gen::sources(&self.g.csr, p.reps(SOURCES, share), &mut rng);
        let mut digest = gen::Digest::new();
        let [t1, mt] = p.thread_settings();
        let reloads = (p.reps(RELOADS, share), sources.len());
        let file = StoreFile::save(&self.g.store, reloads, dirs, tr);
        for (i, &source) in sources.iter().enumerate() {
            digest.u64(u64::from(source));
            let want = tr.span("graph.reference:bfs", i as u64, || {
                reference::bfs(&self.g.csr, source)
            });
            let order = if i % 2 == 0 { [t1, mt] } else { [mt, t1] };
            let mut sims = Vec::new();
            for (k, threads) in order.into_iter().enumerate() {
                let op = (i * 2 + k + 1) as u64;
                sims.extend(self.run(p, threads, (op, source), &want, tr, &mut m));
            }
            // Simulated time may not depend on the host thread count.
            let outcome = match sims[..] {
                [a, b] if a == b => {
                    m.sim_lat_us.push(a as f64 / 1e3);
                    m.sim_elapsed_ns += a;
                    Ok(())
                }
                _ => Err(format!(
                    "bfs from {source}: simulated time differs by host threads"
                )),
            };
            m.check(outcome);
            file.reload_if_due(i, &self.g.store, tr, &mut m);
        }
        self.sources_digest = digest.finish();
        m.set_store_footprint(&self.g.store);
        m
    }

    fn engine_cfg(threads: usize, phases: bool) -> GtsConfig {
        GtsConfig {
            num_gpus: 2,
            strategy: Strategy::Scalability,
            gpu: GpuConfig::titan_x().with_device_memory(DEVICE_MEMORY),
            storage: StorageLocation::Ssds(2),
            mmbuf_percent: 20,
            cache_policy: CachePolicyKind::Lru,
            host_threads: threads,
            measure_host_phases: phases,
            ..GtsConfig::default()
        }
    }

    fn graph(&self) -> &Graph {
        &self.g
    }

    fn digests(&self) -> Vec<(&'static str, u64)> {
        vec![("sources", self.sources_digest)]
    }
}
