//! Phase A — functional kernel execution (the "what happened" half).
//!
//! Kernels really run on the host and produce exact algorithm results;
//! only *time* is simulated, and that accounting happens strictly
//! afterwards in [`crate::sweep::account`]. Splitting the two phases is
//! what makes host parallelism safe: the pages of a program with a
//! [`crate::programs::SharedKernel`] (PageRank, RWR, degrees) execute
//! concurrently on the thread pool here, each into its own scratch — the
//! other six run on the calling thread whatever `host_threads` says — and
//! phase B, one serial pass, consumes the outcomes in page order, so
//! `host_threads` can never change a simulated number.

use crate::programs::{GtsProgram, KernelScratch, PageCtx, PageWork};
use gts_exec::ThreadPool;
use gts_gpu::warp::MicroTechnique;
use gts_storage::builder::GraphStore;
use gts_storage::PageKind;

/// Result of one page's functional kernel execution: everything the
/// serial accounting pass (phase B) needs.
pub struct PageOutcome {
    /// The cost-relevant work the kernel reported.
    pub work: PageWork,
    /// Pages the kernel marked for the next sweep (local `nextPIDSet`).
    pub next_pids: Vec<u64>,
}

/// Sweep-invariant inputs of the functional kernel phase.
pub struct KernelEnv<'a> {
    /// The graph being processed.
    pub store: &'a GraphStore,
    /// Per page ID, the total adjacency length of the vertex a Large
    /// Page holds (K_PR_LP needs it); see [`lp_total_degrees`].
    pub lp_degrees: &'a [u64],
    /// Micro-level parallel technique (Sec. 6.2).
    pub technique: MicroTechnique,
    /// The current sweep number.
    pub sweep: u32,
}

/// Execute the functional kernels for `pids` (phase A of a sweep). When
/// the program exposes a [`crate::programs::SharedKernel`] and more than
/// one host thread is configured, pages run concurrently on the pool, each
/// worker scattering into the lane of its own `scratch.workers` entry
/// (created on first use, kept for the job); before this returns, the
/// lanes are folded into the program in worker-index order
/// ([`GtsProgram::absorb`]) and left all-zero. Outcomes come back in page
/// order and the folds are exact integer sums, so the program state and
/// the returned [`PageWork`]s are bit-identical to serial execution.
pub fn run_page_kernels(
    prog: &mut dyn GtsProgram,
    pool: &ThreadPool,
    env: &KernelEnv<'_>,
    pids: &[u64],
    scratch: &mut KernelScratch,
) -> Vec<PageOutcome> {
    let ctx_for = |pid: u64| {
        let view = env.store.view(pid);
        let lp_total_degree = if view.kind() == PageKind::Large {
            env.lp_degrees[pid as usize]
        } else {
            0
        };
        PageCtx {
            view,
            pid,
            rvt: env.store.rvt(),
            technique: env.technique,
            sweep: env.sweep,
            lp_total_degree,
        }
    };
    let outcome = |work, scratch: &mut KernelScratch| PageOutcome {
        work,
        next_pids: std::mem::take(&mut scratch.next_pids),
    };
    let workers = pool.threads().min(pids.len());
    if let Some(kernel) = prog.shared_kernel().filter(|_| workers > 1) {
        if scratch.workers.len() < workers {
            scratch.workers.resize_with(workers, KernelScratch::default);
        }
        let lent = &mut scratch.workers[..workers];
        let outcomes = pool.par_map_with(pids, lent, |scratch, _, &pid| {
            outcome(kernel.process_page_shared(&ctx_for(pid), scratch), scratch)
        });
        lent.iter_mut().for_each(|worker| prog.absorb(worker));
        outcomes
    } else {
        pids.iter()
            .map(|&pid| outcome(prog.process_page(&ctx_for(pid), scratch), scratch))
            .collect()
    }
}

/// Per page ID, the total adjacency length of the vertex each Large Page
/// (home chunk or delta page) holds, summed over all of its Large Pages;
/// 0 for Small Pages. Read off the per-page edge counts and the RVT, so
/// no page is viewed (nor built, when a mutation left it pending).
pub fn lp_total_degrees(store: &GraphStore) -> Vec<u64> {
    let vid_of = |pid: u64| store.rvt().entry(pid).start_vid;
    let mut per_vertex: std::collections::BTreeMap<u64, u64> = Default::default();
    for &pid in store.large_pids() {
        *per_vertex.entry(vid_of(pid)).or_default() += store.edges_in_page(pid);
    }
    let mut degrees = vec![0; store.num_pages() as usize];
    for &pid in store.large_pids() {
        degrees[pid as usize] = per_vertex[&vid_of(pid)];
    }
    degrees
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs::{Degrees, PageRank, Rwr, SweepControl};
    use gts_graph::generate::rmat;
    use gts_storage::{build_graph_store, PageFormatConfig, PhysicalIdConfig};

    #[test]
    fn outcomes_come_back_in_page_order_regardless_of_threads() {
        let store = build_graph_store(
            &rmat(8),
            PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 1024),
        )
        .unwrap();
        let lp_degrees = lp_total_degrees(&store);
        let env = |sweep| KernelEnv {
            store: &store,
            lp_degrees: &lp_degrees,
            technique: MicroTechnique::default_edge_centric(),
            sweep,
        };
        let pids = store.small_pids().to_vec();
        let run = |threads: usize| {
            let mut pr = PageRank::new(store.num_vertices(), 1);
            let pool = ThreadPool::new(threads);
            let mut scratch = KernelScratch::default();
            run_page_kernels(&mut pr, &pool, &env(0), &pids, &mut scratch)
                .iter()
                .map(|o| (o.work.active_edges, o.work.lane_slots))
                .collect::<Vec<_>>()
        };
        let serial = run(1);
        assert_eq!(serial.len(), pids.len());
        assert_eq!(run(4), serial, "parallel phase A must match serial");
    }

    /// One sweep of `prog` over all of `store` through `run_page_kernels`,
    /// then `end_sweep`: what `Engine::run_job`, serve's scheduler and the frozen
    /// benchmark each do with a scratch they keep between jobs.
    fn one_sweep(
        store: &gts_storage::GraphStore,
        prog: &mut dyn GtsProgram,
        threads: usize,
        scratch: &mut KernelScratch,
    ) -> Vec<u8> {
        let lp_degrees = lp_total_degrees(store);
        let env = KernelEnv {
            store,
            lp_degrees: &lp_degrees,
            technique: MicroTechnique::default_edge_centric(),
            sweep: 0,
        };
        let pool = ThreadPool::new(threads);
        for pids in [store.small_pids(), store.large_pids()] {
            run_page_kernels(prog, &pool, &env, pids, scratch);
        }
        assert_eq!(prog.end_sweep(0, true, true), SweepControl::Done);
        prog.save_state()
    }

    #[test]
    fn a_reused_scratch_leaves_no_residue_and_one_thread_allocates_no_lane() {
        let build = |scale, page| {
            build_graph_store(
                &rmat(scale),
                PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, page),
            )
            .unwrap()
        };
        let (big, small) = (build(9, 512), build(7, 1024));
        assert!(!big.large_pids().is_empty());
        let mut reused = KernelScratch::default();
        let pr = |scratch: &mut _| one_sweep(&big, &mut PageRank::new(512, 1), 3, scratch);
        let first = pr(&mut reused);
        assert_eq!(reused.workers.len(), 3);
        assert!(reused.workers.iter().any(|w| w.lane.len() == 512));
        assert!(reused
            .workers
            .iter()
            .all(|w| w.lane.iter().all(|&l| l == 0)));
        // Another program, fewer vertices, then the first again: each as
        // if its scratch were fresh.
        for threads in [1, 2, 4] {
            let fresh = &mut KernelScratch::default();
            assert_eq!(
                one_sweep(&small, &mut Rwr::new(128, 5, 1), threads, &mut reused),
                one_sweep(&small, &mut Rwr::new(128, 5, 1), 1, fresh)
            );
            assert_eq!(
                one_sweep(&small, &mut Degrees::new(128), threads, &mut reused),
                one_sweep(&small, &mut Degrees::new(128), 1, fresh)
            );
            // The serial path scattered straight into the programs.
            assert!(fresh.workers.is_empty() && fresh.lane.is_empty());
            assert_eq!(pr(&mut reused), first);
        }
    }
}
