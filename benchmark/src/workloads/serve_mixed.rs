//! `serve_mixed` — many small jobs. A 256-job, 8-tenant script (bfs /
//! pagerank(3) / cc / sssp, every 32nd job mutating) through
//! `gts_serve::serve` on an RMAT13 store with the journal and the WAL
//! on. Arrivals are an open loop on the *simulated* clock (latency is
//! counted from the scheduled arrival); the host side is a closed loop
//! of one `serve` call at a time, each on a fresh store clone and fresh
//! journal/WAL directories. Per-job fixed cost (job open/finalize, lane
//! set-up, telemetry registries, the scheduler, the journal) dominates
//! per-edge cost.

use crate::env::DurableDir;
use crate::gen::{self, Digest, ScriptShape, Xorshift};
use crate::trace::Tracer;
use crate::workload::{build_graph, timed, Counters, EngineOp, Graph, Measured, Params, Workload};
use gts_ckpt::fnv1a;
use gts_core::programs::{Bfs, Cc, GtsProgram, PageRank, Sssp};
use gts_core::{Engine, GtsConfig, JobOptions, MutationSchedule, StorageLocation, Telemetry};
use gts_gpu::GpuConfig;
use gts_serve::workload::{render, seeded_batch, JobSpec};
use gts_serve::{serve, JobStatus, JournalConfig, ServeConfig, ServeOutcome};
use gts_storage::GraphStore;
use std::path::PathBuf;

/// `serve` calls per thread setting at the calibrated length.
const CALLS: usize = 4;
/// Jobs whose result is checked against a solo run of the same job.
const SOLO_CHECKS: usize = 16;
const DEVICE_MEMORY: u64 = 12 << 20;

pub struct ServeMixed {
    g: Graph,
    pub jobs: Vec<JobSpec>,
}

/// The directories of one `serve` call.
pub struct CallDirs {
    journal: PathBuf,
    wal: PathBuf,
}

impl ServeMixed {
    pub fn shape(p: &Params) -> ScriptShape {
        ScriptShape {
            jobs: if p.smoke { 32 } else { 256 },
            tenants: 8,
            mutate_every: if p.smoke { 8 } else { 32 },
        }
    }

    pub fn serve_cfg(dirs: Option<&CallDirs>, resume: bool) -> ServeConfig {
        ServeConfig {
            slots: 4,
            queue_capacity: 512,
            tenant_queue_capacity: 512,
            journal: dirs.map(|d| JournalConfig {
                dir: d.journal.clone(),
                resume,
            }),
            wal_dir: dirs.map(|d| d.wal.clone()),
            ..ServeConfig::default()
        }
    }

    pub fn fresh_dirs(dirs: &mut DurableDir) -> CallDirs {
        CallDirs {
            journal: dirs.fresh("journal"),
            wal: dirs.fresh("wal"),
        }
    }

    pub fn base_store(&self) -> &GraphStore {
        &self.g.store
    }

    /// Every job ran to completion, none dropped, failed or quarantined.
    fn all_completed(&self, out: &ServeOutcome) -> Result<(), String> {
        let clean = out.completed == self.jobs.len()
            && out.dropped + out.failed + out.quarantined == 0
            && out.jobs.iter().all(|j| j.status == JobStatus::Completed);
        clean.then_some(()).ok_or_else(|| {
            format!(
                "serve: {} completed, {} dropped, {} failed, {} quarantined of {}",
                out.completed,
                out.dropped,
                out.failed,
                out.quarantined,
                self.jobs.len()
            )
        })
    }

    /// Run `spec` alone through `Engine::run_job` (or `run_job_live` for
    /// a mutating job) and fingerprint the program's final state the way
    /// the service does. Returns the fingerprint and the wall time.
    pub fn solo(
        engine: &Engine,
        store: &mut GraphStore,
        spec: &JobSpec,
    ) -> Result<(u64, u64), String> {
        let n = store.num_vertices();
        let mut prog: Box<dyn GtsProgram> = match spec.algorithm.as_str() {
            "bfs" => Box::new(Bfs::new(n, spec.source)),
            "pagerank" => Box::new(PageRank::new(n, spec.iterations)),
            "cc" => Box::new(Cc::new(n)),
            "sssp" => Box::new(Sssp::new(n, spec.source)),
            other => return Err(format!("script names {other:?}")),
        };
        let opts = JobOptions::with_telemetry(Telemetry::new()).tenant(spec.tenant.clone());
        let (ran, ns) = timed(|| match &spec.mutate {
            None => engine.run_job(store, prog.as_mut(), &opts),
            Some(mu) => {
                let batch = seeded_batch(store, mu.inserts, mu.deletes, mu.seed);
                let schedule = MutationSchedule::new().at(mu.at_sweep, batch);
                engine.run_job_live(store, prog.as_mut(), schedule, &opts)
            }
        });
        ran.map_err(|e| format!("solo {}: {e}", spec.algorithm))?;
        Ok((fnv1a(&prog.save_state()), ns))
    }

    /// Check a seeded sample of jobs against their solo runs. Mutating
    /// jobs are replayed too, so each sampled job sees the store epoch it
    /// saw in the service.
    fn check_against_solo(&self, p: &Params, out: &ServeOutcome, m: &mut Measured) {
        let mut rng = Xorshift::new(gen::sub_seed(p.seed, "solo sample"));
        let mut sampled = vec![false; self.jobs.len()];
        for _ in 0..SOLO_CHECKS.min(self.jobs.len()) {
            sampled[rng.below(self.jobs.len() as u64) as usize] = true;
        }
        let engine = Engine::new(Self::engine_cfg(1, false)).expect("valid engine configuration");
        let mut store = self.g.store.clone();
        for (i, spec) in self.jobs.iter().enumerate() {
            if !sampled[i] && spec.mutate.is_none() {
                continue;
            }
            let solo = Self::solo(&engine, &mut store, spec);
            if sampled[i] {
                m.check(match solo {
                    Err(e) => Err(e),
                    Ok((fp, _)) => (fp == out.jobs[i].result_fp).then_some(()).ok_or_else(|| {
                        format!("job {i} ({}) differs from its solo run", spec.algorithm)
                    }),
                });
            }
        }
    }
}

impl Workload for ServeMixed {
    const NAME: &'static str = "serve_mixed";

    fn setup(p: &Params, tr: &mut Tracer) -> Self {
        let g = build_graph(p.scale(13, 10), 64 << 10, p.seed, tr);
        let jobs = gen::job_script(&Self::shape(p), &g.csr, p.seed);
        ServeMixed { g, jobs }
    }

    fn warm_up(&mut self, p: &Params, dirs: &mut DurableDir) {
        let engine = Engine::new(p.checked(Self::engine_cfg(p.mt(), false))).expect("valid");
        let call = Self::fresh_dirs(dirs);
        let mut store = self.g.store.clone();
        let _ = serve(
            &engine,
            &mut store,
            &self.jobs,
            &Self::serve_cfg(Some(&call), false),
        );
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
        let mut first: Option<ServeOutcome> = None;
        for call in 0..p.reps(CALLS, share) {
            let order = if call % 2 == 0 { [t1, mt] } else { [mt, t1] };
            for (k, threads) in order.into_iter().enumerate() {
                let op = (call * 2 + k + 1) as u64;
                let engine = Engine::new(p.checked(Self::engine_cfg(threads, tr.enabled())))
                    .expect("valid engine configuration");
                let call_dirs = Self::fresh_dirs(dirs);
                let mut store = self.g.store.clone();
                let root = tr.begin("op:serve_call", op);
                let (out, wall_ns) = timed(|| {
                    tr.span("serve:serve", op, || {
                        serve(
                            &engine,
                            &mut store,
                            &self.jobs,
                            &Self::serve_cfg(Some(&call_dirs), false),
                        )
                    })
                });
                tr.end(root);
                let out = match out {
                    Ok(out) => out,
                    Err(e) => {
                        m.check(Err(format!("serve call {op}: {e}")));
                        continue;
                    }
                };
                let mut ctr = Counters::default();
                for j in &out.jobs {
                    ctr.add(&Counters::from_registry(&j.counters));
                }
                tr.count(root, "jobs", out.completed as u64);
                m.engine_ops.push(EngineOp {
                    threads,
                    wall_ns,
                    beside_ns: 0,
                    work: out.completed as f64,
                    ctr,
                });
                if threads == mt {
                    m.op_ms.push(wall_ns as f64 / 1e6);
                }
                m.check(self.all_completed(&out));

                // Restart: a second daemon resumes from the journal and
                // the WAL without re-running a single job.
                let mut resumed_store = self.g.store.clone();
                let (resumed, ns) = timed(|| {
                    tr.span("serve:serve(resume)", op, || {
                        serve(
                            &engine,
                            &mut resumed_store,
                            &self.jobs,
                            &Self::serve_cfg(Some(&call_dirs), true),
                        )
                    })
                });
                m.restart_ms.push(ns as f64 / 1e6);
                m.check(match resumed {
                    Err(e) => Err(format!("resume {op}: {e}")),
                    Ok(r) => (r.makespan_ns == out.makespan_ns
                        && r.jobs
                            .iter()
                            .map(|j| j.result_fp)
                            .eq(out.jobs.iter().map(|j| j.result_fp))
                        && resumed_store.epoch() == store.epoch())
                    .then_some(())
                    .ok_or_else(|| format!("resume {op}: resumed service differs")),
                });

                // Every call does identical simulated work.
                match &first {
                    None => {
                        m.sim_elapsed_ns = out.makespan_ns;
                        m.sim_lat_us = out
                            .jobs
                            .iter()
                            .map(|j| j.latency_ns() as f64 / 1e3)
                            .collect();
                        m.set_store_footprint(&store);
                        first = Some(out);
                    }
                    Some(f) => m.check(
                        (f.makespan_ns == out.makespan_ns)
                            .then_some(())
                            .ok_or_else(|| {
                                format!("serve call {op}: makespan differs between calls")
                            }),
                    ),
                }
                let _ = std::fs::remove_dir_all(&call_dirs.journal);
                let _ = std::fs::remove_dir_all(&call_dirs.wal);
            }
        }
        if let Some(first) = &first {
            self.check_against_solo(p, first, &mut m);
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
        vec![(
            "jobs",
            Digest::new().bytes(render(&self.jobs).as_bytes()).finish(),
        )]
    }
}
