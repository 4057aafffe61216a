//! `live_mutations` — writes beside reads, on one evolving RMAT14 store
//! and one growing log. A pass is a run of cycles: five logged mutation
//! batches straight into the store, then one durable live query — an
//! incremental BFS through `Gts::run_live` with a sixth batch landing at
//! sweep 1, the WAL on and a checkpoint every two sweeps. After the
//! cycles, crash recoveries load the whole log and replay its suffix
//! onto a snapshot of the store taken two thirds of the way through.
//! Mutation apply, the WAL and the checkpoint store do nearly all the
//! work; kernels almost none.

use crate::env::DurableDir;
use crate::gen::{self, Digest, EdgeModel, Xorshift};
use crate::trace::Tracer;
use crate::workload::{build_graph, timed, Counters, EngineOp, Graph, Measured, Params, Workload};
use gts_core::engine::CheckpointConfig;
use gts_core::programs::Bfs;
use gts_core::{store_fingerprint, Gts, GtsConfig, MutationSchedule, StorageLocation};
use gts_gpu::GpuConfig;
use gts_storage::{GraphStore, Wal};

/// Cycles at the calibrated length, half at each thread setting.
pub const CYCLES: usize = 32;
/// Logged batches per cycle, before its live query.
pub const BATCHES_PER_CYCLE: usize = 5;
/// Inserts per batch, each paired with one delete.
pub const PAIRS_PER_BATCH: usize = 128;
/// Recoveries: a snapshot of the store taken two thirds through the
/// cycles, rolled forward over the log's suffix.
const RECOVERIES: usize = 7;
const DEVICE_MEMORY: u64 = 12 << 20;

pub struct LiveMutations {
    g: Graph,
    batches_digest: u64,
}

impl LiveMutations {
    /// One pass; `Err` only when the durable directory itself fails.
    fn pass(
        &mut self,
        p: &Params,
        share: f64,
        dirs: &mut DurableDir,
        tr: &mut Tracer,
        m: &mut Measured,
    ) -> Result<(), String> {
        let mut store = self.g.store.clone();
        let mut model = EdgeModel::new(&self.g.edges);
        let mut rng = Xorshift::new(gen::sub_seed(p.seed, "batches"));
        let mut digest = Digest::new();
        let wal_dir = dirs.fresh("wal");
        let cycles = p.reps(CYCLES, share).next_multiple_of(2);
        let snapshot_after = cycles * 2 / 3;
        let mut snapshot = store.clone();
        let sources = gen::sources(&self.g.csr, cycles, &mut rng);
        let [t1, mt] = p.thread_settings();
        let pairs = PAIRS_PER_BATCH as u64;
        let mut op = 0u64;
        for (cycle, &source) in sources.iter().enumerate() {
            // Logged batches through one WAL handle, closed again before
            // the engine opens the same log for the live query.
            let mut batches_ns = 0u64;
            {
                let mut wal = Wal::open(&wal_dir, &store).map_err(|e| format!("Wal::open: {e}"))?;
                for _ in 0..BATCHES_PER_CYCLE {
                    op += 1;
                    let batch = model.next_batch(&mut rng, PAIRS_PER_BATCH, &mut digest);
                    let root = tr.begin("op:batch", op);
                    let (applied, ns) = timed(|| {
                        tr.span("storage.mutate+wal:apply_mutations_logged", op, || {
                            store.apply_mutations_logged(&batch, &mut wal)
                        })
                    });
                    tr.end(root);
                    batches_ns += ns;
                    m.op_ms.push(ns as f64 / 1e6);
                    m.check(match applied {
                        Err(e) => Err(format!("batch {op}: {e}")),
                        Ok((out, bytes)) => {
                            tr.count(root, "pages_rewritten", out.pages_rewritten);
                            tr.count(root, "delta_pages", out.delta_pages_allocated);
                            tr.count(root, "wal_bytes", bytes);
                            (out.inserted == pairs && out.deleted == pairs && bytes > 0)
                                .then_some(())
                                .ok_or_else(|| format!("batch {op}: applied {out:?}"))
                        }
                    });
                }
            }

            // The durable live query, on the same store and log.
            op += 1;
            let threads = if cycle % 4 == 0 || cycle % 4 == 3 {
                t1
            } else {
                mt
            };
            let batch = model.next_batch(&mut rng, PAIRS_PER_BATCH, &mut digest);
            digest.u64(u64::from(source));
            let ckpt_dir = dirs.fresh("ckpt");
            let engine = Gts::new(p.checked(GtsConfig {
                wal_dir: Some(wal_dir.clone()),
                checkpoint: Some(CheckpointConfig::new(&ckpt_dir, 2)),
                ..Self::engine_cfg(threads, tr.enabled())
            }));
            let mut bfs = Bfs::new(store.num_vertices(), u64::from(source));
            let pre_epoch = store.epoch();
            let root = tr.begin("op:live_query", op);
            let (report, wall_ns) = timed(|| {
                tr.span("core:Gts::run_live", op, || {
                    engine.run_live(&mut store, &mut bfs, MutationSchedule::new().at(1, batch))
                })
            });
            tr.end(root);
            let outcome = match report {
                Err(e) => Err(format!("live query {op}: {e}")),
                Ok(report) => {
                    m.engine_ops.push(EngineOp {
                        threads,
                        wall_ns,
                        beside_ns: batches_ns,
                        work: ((BATCHES_PER_CYCLE + 1) * PAIRS_PER_BATCH * 2) as f64,
                        ctr: Counters::from_registry(&engine.telemetry().counters()),
                    });
                    m.sim_lat_us.push(report.elapsed.as_nanos() as f64 / 1e3);
                    m.sim_elapsed_ns += report.elapsed.as_nanos();
                    (store.epoch() == pre_epoch + 1)
                        .then_some(())
                        .ok_or_else(|| format!("live query {op}: the batch did not land"))
                }
            };
            m.check(outcome);
            let _ = std::fs::remove_dir_all(&ckpt_dir);
            if cycle + 1 == snapshot_after {
                snapshot = store.clone();
            }
        }
        m.set_store_footprint(&store);

        // Recoveries: the whole log loaded, its suffix replayed onto the
        // snapshot — how the engine itself resumes.
        let logged = store.epoch() - snapshot.epoch();
        for r in 0..p.reps(RECOVERIES, share) {
            let mut recovered = snapshot.clone();
            let root = tr.begin("op:recover", r as u64);
            let (replayed, ns) = timed(|| {
                let wal = tr.span("storage.wal:Wal::load", r as u64, || Wal::load(&wal_dir))?;
                tr.span("storage.wal:replay_onto", r as u64, || {
                    wal.replay_onto(&mut recovered)
                })
            });
            tr.end(root);
            m.restart_ms.push(ns as f64 / 1e6);
            m.check(match replayed {
                Err(e) => Err(format!("recovery {r}: {e}")),
                Ok(n) if n != logged => Err(format!("recovery {r}: replayed {n} of {logged}")),
                Ok(_) => same_store(&recovered, &store, r == 0)
                    .then_some(())
                    .ok_or_else(|| format!("recovery {r}: recovered store differs")),
            });
        }

        m.check(
            model
                .matches(&store)
                .then_some(())
                .ok_or_else(|| "the store's edges differ from the model".to_string()),
        );
        self.batches_digest = digest.finish();
        let _ = std::fs::remove_dir_all(&wal_dir);
        Ok(())
    }
}

/// Fingerprints agree; with `deep`, so do the decoded edge multisets.
fn same_store(a: &GraphStore, b: &GraphStore, deep: bool) -> bool {
    let sorted = |s: &GraphStore| {
        let mut e = s.decode_edges();
        e.sort_unstable();
        e
    };
    store_fingerprint(a) == store_fingerprint(b) && (!deep || sorted(a) == sorted(b))
}

impl Workload for LiveMutations {
    const NAME: &'static str = "live_mutations";

    fn setup(p: &Params, tr: &mut Tracer) -> Self {
        LiveMutations {
            g: build_graph(p.scale(14, 10), 64 << 10, p.seed, tr),
            batches_digest: 0,
        }
    }

    fn warm_up(&mut self, p: &Params, dirs: &mut DurableDir) {
        let mut scratch = Measured::default();
        let _ = self.pass(p, 0.05, dirs, &mut Tracer::new(false), &mut scratch);
    }

    fn measure(
        &mut self,
        p: &Params,
        share: f64,
        dirs: &mut DurableDir,
        tr: &mut Tracer,
    ) -> Measured {
        let mut m = Measured::default();
        if let Err(why) = self.pass(p, share, dirs, tr, &mut m) {
            m.check(Err(why));
        }
        m
    }

    fn engine_cfg(threads: usize, phases: bool) -> GtsConfig {
        GtsConfig {
            num_gpus: 2,
            gpu: GpuConfig::titan_x().with_device_memory(DEVICE_MEMORY),
            storage: StorageLocation::Ssds(2),
            host_threads: threads,
            measure_host_phases: phases,
            ..GtsConfig::default()
        }
    }

    fn graph(&self) -> &Graph {
        &self.g
    }

    fn digests(&self) -> Vec<(&'static str, u64)> {
        vec![("batches", self.batches_digest)]
    }
}
