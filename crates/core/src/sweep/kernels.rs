//! Phase A — functional kernel execution (the "what happened" half).
//!
//! Kernels really run on the host and produce exact algorithm results;
//! only *time* is simulated, and that accounting happens strictly
//! afterwards in [`crate::sweep::account`]. Splitting the two phases is
//! what makes host parallelism safe: the pages of a program with a
//! [`crate::programs::SharedKernel`] (PageRank, RWR, degrees) execute
//! concurrently on the thread pool here — the other six run on the
//! calling thread whatever `host_threads` says — and phase B, one serial
//! pass, consumes the outcomes in page order, so `host_threads` can
//! never change a simulated number.

use crate::programs::{GtsProgram, KernelScratch, PageCtx, PageWork};
use gts_exec::ThreadPool;
use gts_gpu::warp::MicroTechnique;
use gts_storage::builder::GraphStore;
use gts_storage::PageKind;
use std::collections::HashMap;

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
    /// Total adjacency length per Large-Page vertex (K_PR_LP needs it).
    pub lp_degrees: &'a HashMap<u64, u64>,
    /// Micro-level parallel technique (Sec. 6.2).
    pub technique: MicroTechnique,
    /// The current sweep number.
    pub sweep: u32,
}

/// Execute the functional kernels for `pids` (phase A of a sweep). When
/// the program exposes a [`crate::programs::SharedKernel`] and more than
/// one host thread is configured, pages run concurrently on the pool:
/// outcomes still come back in page order, and every shared-state update
/// the kernels perform commutes exactly, so the program state and the
/// returned [`PageWork`]s are bit-identical to serial execution.
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
            *env.lp_degrees.get(&view.lp_vid()).unwrap_or(&0)
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
    if pool.threads() > 1 && pids.len() > 1 && prog.shared_kernel().is_some() {
        let kernel = prog.shared_kernel().expect("checked above");
        pool.par_map_init(pids, KernelScratch::default, |scratch, _, &pid| {
            scratch.reset();
            let work = kernel.process_page_shared(&ctx_for(pid), scratch);
            PageOutcome {
                work,
                next_pids: std::mem::take(&mut scratch.next_pids),
            }
        })
        .0
    } else {
        pids.iter()
            .map(|&pid| {
                let work = prog.process_page(&ctx_for(pid), scratch);
                PageOutcome {
                    work,
                    next_pids: std::mem::take(&mut scratch.next_pids),
                }
            })
            .collect()
    }
}

/// Total adjacency length of every Large-Page vertex, keyed by vertex ID.
pub fn lp_total_degrees(store: &GraphStore) -> HashMap<u64, u64> {
    let mut map: HashMap<u64, u64> = HashMap::new();
    for &pid in store.large_pids() {
        let v = store.view(pid);
        *map.entry(v.lp_vid()).or_insert(0) += v.count() as u64;
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs::PageRank;
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
}
