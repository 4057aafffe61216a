//! Property tests of the resilience layer: under a random service
//! fault template, every job that completes is still byte-identical to
//! the same job run solo under the same derived `(job, attempt)` fault
//! domain, every quarantine is an honest record of a job whose whole
//! retry budget really fails, and the entire faulted service outcome —
//! retries, backoffs, breaker trips, sheds and all — is invariant to
//! the host thread count.

use gts_core::programs::{Bfs, Cc, GtsProgram, PageRank, Sssp};
use gts_core::{Engine, GtsConfig, JobOptions};
use gts_faults::FaultConfig;
use gts_graph::EdgeList;
use gts_serve::scheduler::{serve, JobStatus, ServeConfig, ServeOutcome};
use gts_serve::workload::JobSpec;
use gts_serve::ResilienceConfig;
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
/// seed, iteration bound, priority.
type JobDraw = (u64, usize, usize, u64, u32, u32);

fn arb_workload() -> impl Strategy<Value = Vec<JobDraw>> {
    let job = (
        0u64..200_000,
        0usize..3,
        0usize..4,
        0u64..1 << 16,
        1u32..5,
        0u32..4,
    );
    proptest::collection::vec(job, 1..8)
}

fn build_jobs(draws: &[JobDraw], n: u64) -> Vec<JobSpec> {
    let mut jobs: Vec<JobSpec> = draws
        .iter()
        .map(|&(at_ns, tenant, alg, source, iters, prio)| {
            let mut spec = JobSpec::new(at_ns, TENANTS[tenant], ALGS[alg]);
            spec.source = source % n;
            spec.iterations = iters;
            spec.priority = prio;
            spec
        })
        .collect();
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

/// A service fault template hot enough that some attempts fail and some
/// succeed: GPU-side rates (the default store is in-memory, so device
/// reads never happen) with no lane-level retries, so every fault
/// surfaces to the service layer under test.
fn template(seed: u64) -> FaultConfig {
    FaultConfig {
        copy_fault_ppm: 100_000,
        launch_fault_ppm: 100_000,
        max_retries: 0,
        ..FaultConfig::with_seed(seed)
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

/// Replay one `(job, attempt)` execution solo under its derived fault
/// domain; `Ok` carries the counters and result fingerprint.
fn solo_attempt(
    engine: &Engine,
    st: &GraphStore,
    spec: &JobSpec,
    tpl: &FaultConfig,
    job: u64,
    attempt: u32,
) -> Result<(std::collections::BTreeMap<String, u64>, u64), String> {
    let mut prog = solo_program(spec, st.num_vertices());
    let opts = JobOptions::with_telemetry(Telemetry::new())
        .tenant(spec.tenant.clone())
        .faults(tpl.derived(job, attempt));
    match engine.run_job(st, &mut *prog, &opts) {
        Ok(_) => Ok((
            opts.telemetry.counters(),
            gts_ckpt::fnv1a(&prog.save_state()),
        )),
        Err(e) => Err(e.to_string()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For any read workload, fault seed, and retry budget: the service
    /// never aborts; a completed job is byte-identical to a solo run
    /// under the derived domain of its final attempt; a quarantined job
    /// really fails under every derived domain in its budget; and with
    /// no retry budget failures stay `Failed`, never `Quarantined`.
    #[test]
    fn faulted_jobs_settle_honestly(
        draws in arb_workload(),
        g in arb_graph(),
        seed in 0u64..1 << 16,
        retry_max in 0u32..3,
    ) {
        let jobs = build_jobs(&draws, g.num_vertices as u64);
        let engine = engine(2);
        let mut st = store_for(&g);
        let tpl = template(seed);
        let cfg = ServeConfig {
            queue_capacity: 1024,
            tenant_queue_capacity: 1024,
            faults: Some(tpl.clone()),
            resilience: ResilienceConfig {
                retry_max,
                backoff_base_ns: 500,
                ..ResilienceConfig::default()
            },
            ..ServeConfig::default()
        };
        let out = serve(&engine, &mut st, &jobs, &cfg).unwrap();
        prop_assert_eq!(out.jobs.len(), jobs.len());
        for (job, spec) in out.jobs.iter().zip(&jobs) {
            let idx = job.index as u64;
            match &job.status {
                JobStatus::Completed => {
                    let (counters, fp) =
                        solo_attempt(&engine, &st, spec, &tpl, idx, job.attempts)
                            .map_err(|e| proptest::TestCaseError::fail(format!(
                                "job {idx} completed in service but failed solo: {e}"
                            )))?;
                    prop_assert_eq!(&job.counters, &counters, "job {}", idx);
                    prop_assert_eq!(job.result_fp, fp, "job {}", idx);
                    prop_assert!(job.attempts >= 1 && job.attempts <= retry_max + 1);
                }
                JobStatus::Failed { error } => {
                    prop_assert_eq!(retry_max, 0, "failures must retry when budgeted");
                    prop_assert_eq!(job.attempts, 1);
                    let solo = solo_attempt(&engine, &st, spec, &tpl, idx, 1);
                    prop_assert_eq!(&format!("engine: {}", solo.unwrap_err()), error);
                }
                JobStatus::Quarantined { attempts, .. } => {
                    prop_assert!(retry_max > 0);
                    prop_assert_eq!(*attempts, retry_max + 1);
                    prop_assert_eq!(job.attempts, *attempts);
                    for k in 1..=*attempts {
                        prop_assert!(
                            solo_attempt(&engine, &st, spec, &tpl, idx, k).is_err(),
                            "quarantined job {} attempt {} succeeds solo", idx, k
                        );
                    }
                }
                other => prop_assert!(false, "unexpected status {:?}", other),
            }
        }
        prop_assert_eq!(
            out.completed + out.failed + out.quarantined,
            jobs.len(),
            "wide-open caps must not drop"
        );
    }

    /// The faulted, retried, breaker-guarded, shedding service outcome
    /// is a pure function of (workload, seed, knobs) — never of the
    /// host thread count.
    #[test]
    fn resilient_outcome_is_host_thread_invariant(
        draws in arb_workload(),
        g in arb_graph(),
        seed in 0u64..1 << 16,
        retry_max in 0u32..3,
        breaker in 0u32..3,
        shed_draw in 0u32..91,
    ) {
        let jobs = build_jobs(&draws, g.num_vertices as u64);
        let cfg = ServeConfig {
            slots: 2,
            faults: Some(template(seed)),
            resilience: ResilienceConfig {
                retry_max,
                backoff_base_ns: 500,
                breaker_threshold: breaker,
                breaker_cooldown_ns: 10_000,
                shed_watermark_pct: (shed_draw >= 30).then_some(shed_draw),
            },
            ..ServeConfig::default()
        };
        let outs: Vec<ServeOutcome> = [1usize, 4]
            .iter()
            .map(|&ht| serve(&engine(ht), &mut store_for(&g), &jobs, &cfg).unwrap())
            .collect();
        prop_assert_eq!(outs[0].telemetry.counters(), outs[1].telemetry.counters());
        prop_assert_eq!(outs[0].telemetry.histograms(), outs[1].telemetry.histograms());
        prop_assert_eq!(outs[0].makespan_ns, outs[1].makespan_ns);
        for (a, b) in outs[0].jobs.iter().zip(&outs[1].jobs) {
            prop_assert_eq!(&a.status, &b.status, "job {}", a.index);
            prop_assert_eq!(&a.counters, &b.counters, "job {}", a.index);
            prop_assert_eq!((a.start_ns, a.finish_ns), (b.start_ns, b.finish_ns));
            prop_assert_eq!((a.attempts, a.result_fp), (b.attempts, b.result_fp));
        }
    }
}
