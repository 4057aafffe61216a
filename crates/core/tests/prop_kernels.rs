//! Property test of phase A's one sum-kernel path: for PageRank, RWR and
//! `Degrees` over random RMAT stores, every page's outcome and the state
//! each program saves after every sweep are the same at 1, 2, 3 and 4
//! host threads.

use gts_core::programs::{
    Degrees, GtsProgram, KernelScratch, PageRank, PageWork, Rwr, SweepControl,
};
use gts_core::sweep::kernels::{lp_total_degrees, run_page_kernels, KernelEnv};
use gts_core::sweep::plan::SweepPlan;
use gts_exec::ThreadPool;
use gts_gpu::MicroTechnique;
use gts_graph::generate::Rmat;
use gts_storage::{build_graph_store, GraphStore, PageFormatConfig, PhysicalIdConfig};
use proptest::prelude::*;

/// Every sweep's page outcomes (work and marked pages, in page order)
/// and post-sweep `save_state()` of `prog` over `store` at `threads`.
type Trace = Vec<(Vec<(PageWork, Vec<u64>)>, Vec<u8>)>;

fn trace(
    store: &GraphStore,
    prog: &mut dyn GtsProgram,
    threads: usize,
    scratch: &mut KernelScratch,
) -> Trace {
    let lp_degrees = lp_total_degrees(store);
    let pool = ThreadPool::new(threads);
    let plan = SweepPlan::full(store);
    let mut sweeps = Vec::new();
    for sweep in 0u32.. {
        let env = KernelEnv {
            store,
            lp_degrees: &lp_degrees,
            technique: MicroTechnique::default_edge_centric(),
            sweep,
        };
        let mut outcomes = Vec::new();
        for phase in plan.phases() {
            for o in run_page_kernels(prog, &pool, &env, phase, scratch) {
                outcomes.push((o.work, o.next_pids));
            }
        }
        let control = prog.end_sweep(sweep, true, true);
        sweeps.push((outcomes, prog.save_state()));
        if control == SweepControl::Done {
            return sweeps;
        }
    }
    unreachable!("the sweep counter is unbounded")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sum_kernels_are_thread_count_invariant(
        scale in 6u32..=9,
        seed in 0u64..1_000_000,
        page_size in prop_oneof![Just(256usize), Just(512), Just(1024), Just(2048), Just(4096)],
        iterations in 1u32..=3,
        source in 0u64..1024,
    ) {
        let graph = Rmat::new(scale).with_seed(seed).generate();
        let store = build_graph_store(
            &graph,
            PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, page_size),
        )
        .unwrap();
        let n = store.num_vertices();
        let source = source % n;
        let programs = || -> [Box<dyn GtsProgram>; 3] {
            [
                Box::new(PageRank::new(n, iterations)),
                Box::new(Rwr::new(n, source, iterations)),
                Box::new(Degrees::new(n)),
            ]
        };
        let run = |threads| {
            // One scratch for all three programs, as a job's is reused.
            let mut scratch = KernelScratch::default();
            programs().map(|mut prog| trace(&store, &mut *prog, threads, &mut scratch))
        };
        let serial = run(1);
        for threads in 2..=4 {
            prop_assert_eq!(&run(threads), &serial, "{} threads", threads);
        }
    }
}
