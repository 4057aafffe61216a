//! Property tests of tenant isolation: for any graph and any queued
//! workload, every job the service completes is byte-identical to the
//! same job run solo — and the whole service outcome is invariant to
//! the host thread count, the knob that changes *how* the speculative
//! read fan-out executes without being allowed to change *what* it
//! computes.

use gts_core::programs::{Bfs, Cc, GtsProgram, PageRank, Sssp};
use gts_core::{Engine, GtsConfig, JobOptions, MutationSchedule};
use gts_graph::EdgeList;
use gts_serve::scheduler::{serve, JobStatus, ServeConfig, ServeOutcome};
use gts_serve::workload::{seeded_batch, JobSpec, MutateSpec};
use gts_storage::{build_graph_store, GraphStore, PageFormatConfig, PhysicalIdConfig};
use gts_telemetry::Telemetry;
use proptest::prelude::*;

const ALGS: [&str; 4] = ["bfs", "pagerank", "cc", "sssp"];
const TENANTS: [&str; 3] = ["alpha", "beta", "gamma"];

fn arb_graph() -> impl Strategy<Value = EdgeList> {
    (2u32..80).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 1..250)
            .prop_map(move |edges| EdgeList::new(n, edges))
    })
}

/// One job as raw draws: arrival, tenant index, algorithm index, source
/// seed, iteration bound.
type JobDraw = (u64, usize, usize, u64, u32);

/// A workload: up to eight queued jobs, at most one of them mutating
/// (chosen by `mutate_at % len` when the flag is set).
fn arb_workload() -> impl Strategy<Value = (Vec<JobDraw>, Option<(usize, MutateSpec)>)> {
    let job = (0u64..200_000, 0usize..3, 0usize..4, 0u64..1 << 16, 1u32..5);
    (
        proptest::collection::vec(job, 1..8),
        0u32..2,
        0usize..8,
        1u32..3,
        0u64..64,
        0u64..8,
    )
        .prop_map(|(jobs, mutate, idx, at_sweep, inserts, deletes)| {
            let m = (mutate == 1).then(|| {
                let spec = MutateSpec {
                    at_sweep,
                    inserts,
                    deletes,
                    seed: inserts * 31 + deletes + 7,
                };
                (idx % jobs.len(), spec)
            });
            (jobs, m)
        })
}

fn build_jobs(draws: &[JobDraw], mutate: &Option<(usize, MutateSpec)>, n: u64) -> Vec<JobSpec> {
    let mut jobs: Vec<JobSpec> = draws
        .iter()
        .map(|&(at_ns, tenant, alg, source, iters)| {
            let mut spec = JobSpec::new(at_ns, TENANTS[tenant], ALGS[alg]);
            spec.source = source % n;
            spec.iterations = iters;
            spec
        })
        .collect();
    if let Some((idx, m)) = mutate {
        jobs[*idx].mutate = Some(*m);
    }
    // Arrival order, matching the stable sort inside `serve`, so the
    // outcome vector zips positionally with this spec vector.
    jobs.sort_by_key(|j| j.at_ns);
    jobs
}

fn store_for(g: &EdgeList) -> GraphStore {
    let fmt = PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 512);
    build_graph_store(g, fmt).unwrap()
}

fn engine(host_threads: usize) -> Engine {
    Engine::new(GtsConfig {
        host_threads,
        ..GtsConfig::default()
    })
    .unwrap()
}

/// Caps wide enough that admission never drops: the property under test
/// is execution isolation, not backpressure.
fn wide_open(slots: usize) -> ServeConfig {
    ServeConfig {
        slots,
        queue_capacity: 1024,
        tenant_queue_capacity: 1024,
        deadline_ns: None,
        ..ServeConfig::default()
    }
}

fn solo_program(spec: &JobSpec, n: u64) -> Box<dyn GtsProgram> {
    match spec.algorithm.as_str() {
        "bfs" => Box::new(Bfs::new(n, spec.source)),
        "pagerank" => Box::new(PageRank::new(n, spec.iterations)),
        "sssp" => Box::new(Sssp::new(n, spec.source)),
        _ => Box::new(Cc::new(n)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// N queued jobs, replayed solo in epoch order on an identical
    /// store, land byte-for-byte on the same counters and simulated
    /// service time — at 1 host thread and at 4.
    #[test]
    fn queued_jobs_match_solo_replay(workload in arb_workload(), g in arb_graph()) {
        let (draws, mutate) = workload;
        let jobs = build_jobs(&draws, &mutate, g.num_vertices as u64);
        for host_threads in [1usize, 4] {
            let engine = engine(host_threads);
            let mut st = store_for(&g);
            let mut solo_st = store_for(&g);
            let out = serve(&engine, &mut st, &jobs, &wide_open(2)).unwrap();
            prop_assert_eq!(out.completed, jobs.len());
            for (job, spec) in out.jobs.iter().zip(&jobs) {
                prop_assert_eq!(&job.status, &JobStatus::Completed);
                let mut prog = solo_program(spec, solo_st.num_vertices());
                let opts = JobOptions::with_telemetry(Telemetry::new())
                    .tenant(spec.tenant.clone());
                let report = match spec.mutate {
                    Some(m) => {
                        let batch = seeded_batch(&solo_st, m.inserts, m.deletes, m.seed);
                        let schedule = MutationSchedule::new().at(m.at_sweep, batch);
                        engine.run_job_live(&mut solo_st, &mut *prog, schedule, &opts).unwrap()
                    }
                    None => engine.run_job(&solo_st, &mut *prog, &opts).unwrap(),
                };
                prop_assert_eq!(&job.counters, &opts.telemetry.counters(), "job {}", job.index);
                prop_assert_eq!(job.service_ns, report.elapsed.as_nanos());
            }
            prop_assert_eq!(st.epoch(), solo_st.epoch());
        }
    }

    /// The whole service outcome — per-job counters, statuses, schedule
    /// times, and the aggregated registry — is a pure function of the
    /// workload, never of the host thread count.
    #[test]
    fn service_outcome_is_host_thread_invariant(workload in arb_workload(), g in arb_graph()) {
        let (draws, mutate) = workload;
        let jobs = build_jobs(&draws, &mutate, g.num_vertices as u64);
        let outs: Vec<ServeOutcome> = [1usize, 4]
            .iter()
            .map(|&ht| serve(&engine(ht), &mut store_for(&g), &jobs, &wide_open(3)).unwrap())
            .collect();
        prop_assert_eq!(outs[0].telemetry.counters(), outs[1].telemetry.counters());
        prop_assert_eq!(outs[0].telemetry.histograms(), outs[1].telemetry.histograms());
        prop_assert_eq!(outs[0].makespan_ns, outs[1].makespan_ns);
        for (a, b) in outs[0].jobs.iter().zip(&outs[1].jobs) {
            prop_assert_eq!(&a.counters, &b.counters, "job {}", a.index);
            prop_assert_eq!(&a.status, &b.status);
            prop_assert_eq!((a.start_ns, a.finish_ns), (b.start_ns, b.finish_ns));
        }
    }
}
