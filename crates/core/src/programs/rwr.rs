//! Random Walk with Restart (RWR) — one of the PageRank-like algorithms
//! the paper lists in Sec. 3.3 ("PageRank, degree distribution, Random
//! Walk with Restart (RWR), radius estimations, and connected
//! components").
//!
//! RWR is personalised PageRank: the walker teleports back to a single
//! *seed* vertex instead of to the uniform distribution, producing a
//! proximity score of every vertex to the seed. Structurally it is the
//! same streamed kernel as PageRank — WA is the next score vector, RA the
//! previous one — so it exercises the identical engine path with a
//! different Apply rule.

use super::{
    scatter_page, state, Algorithm, ExecMode, GtsProgram, KernelScratch, PageCtx, PageWork,
    SharedKernel, SweepControl,
};
use gts_ckpt::{ByteReader, ByteWriter, CkptError};
use gts_exec::{fold_lane, FixedVec};
use gts_gpu::timer::KernelClass;

/// Random-walk-with-restart vertex program.
pub struct Rwr {
    prev: Vec<f32>,
    /// Scores materialised from `acc` at the end of each sweep.
    next: Vec<f32>,
    /// `atomicAdd` target in 2^-52 fixed point, exactly as PageRank's.
    acc: Vec<u64>,
    restart: f32,
    seed: u64,
    iterations: u32,
}

impl Rwr {
    /// This program's row of [`super::ALGORITHMS`].
    pub const ALGORITHM: Algorithm = Algorithm {
        name: "rwr",
        report_name: "RWR",
        // PageRank's layout: one resident f32 vector, one streamed f32 vector.
        wa_bytes_per_vertex: 4,
        ra_bytes_per_vertex: 4,
        class: KernelClass::Compute,
        mode: ExecMode::Sweep,
        build: |n, source, iterations, _| Box::new(Self::new(n, source, iterations)),
    };

    /// Classic restart probability.
    pub const DEFAULT_RESTART: f32 = 0.15;

    /// RWR from `seed` for `iterations` sweeps.
    ///
    /// # Panics
    /// Panics if `seed` is out of range.
    pub fn new(num_vertices: u64, seed: u64, iterations: u32) -> Self {
        Self::with_restart(num_vertices, seed, iterations, Self::DEFAULT_RESTART)
    }

    /// RWR with an explicit restart probability `c`.
    ///
    /// # Panics
    /// Panics if `seed` is out of range or `c` is outside `[0, 1]`.
    pub fn with_restart(num_vertices: u64, seed: u64, iterations: u32, c: f32) -> Self {
        assert!(seed < num_vertices, "seed {seed} out of range");
        // Shares are accumulated in unsigned fixed point.
        assert!((0.0..=1.0).contains(&c), "restart {c} outside [0, 1]");
        let n = num_vertices as usize;
        let mut prev = vec![0.0f32; n];
        prev[seed as usize] = 1.0;
        let mut next = vec![0.0f32; n];
        next[seed as usize] = c;
        Rwr {
            prev,
            next,
            acc: vec![0; n],
            restart: c,
            seed,
            iterations,
        }
    }

    /// Fold the accumulated shares into `next` (restart mass at the seed,
    /// zero elsewhere) and reset the accumulator.
    fn materialize(&mut self) {
        for (v, (slot, acc)) in self.next.iter_mut().zip(&mut self.acc).enumerate() {
            let base = if v as u64 == self.seed {
                self.restart as f64
            } else {
                0.0
            };
            *slot = (base + FixedVec::from_fixed(std::mem::take(acc))) as f32;
        }
    }

    /// Proximity scores to the seed after the last completed iteration.
    pub fn scores(&self) -> &[f32] {
        &self.next
    }
}

impl GtsProgram for Rwr {
    fn algorithm(&self) -> &'static Algorithm {
        &Self::ALGORITHM
    }

    fn summary(&self) -> String {
        let mut scored: Vec<(usize, f32)> = self.scores().iter().copied().enumerate().collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1));
        let near: Vec<String> = scored
            .iter()
            .take(4)
            .map(|(v, s)| format!("{v}:{s:.4}"))
            .collect();
        format!("closest to {}: {}", self.seed, near.join(" "))
    }

    fn process_page(&mut self, ctx: &PageCtx<'_>, scratch: &mut KernelScratch) -> PageWork {
        let walk = 1.0 - self.restart;
        scatter_page(ctx, &self.prev, walk, &mut scratch.degrees, &mut self.acc)
    }

    fn shared_kernel(&self) -> Option<&dyn SharedKernel> {
        Some(self)
    }

    fn absorb(&mut self, worker: &mut KernelScratch) {
        fold_lane(&mut self.acc, &mut worker.lane);
    }

    fn end_sweep(&mut self, sweep: u32, _frontier_empty: bool, _any_update: bool) -> SweepControl {
        self.materialize();
        if sweep + 1 >= self.iterations {
            return SweepControl::Done;
        }
        std::mem::swap(&mut self.prev, &mut self.next);
        SweepControl::Continue
    }

    fn save_state(&self) -> Vec<u8> {
        // Boundary invariant: `materialize` already folded and cleared
        // `acc`, so only the two score vectors carry state.
        let mut w = ByteWriter::new();
        w.put_seq(&self.prev);
        w.put_seq(&self.next);
        w.into_bytes()
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), CkptError> {
        let mut r = ByteReader::new(bytes);
        state::load(&mut r, "rwr.prev", &mut self.prev)?;
        state::load(&mut r, "rwr.next", &mut self.next)?;
        r.finish()
    }
}

impl SharedKernel for Rwr {
    fn process_page_shared(&self, ctx: &PageCtx<'_>, scratch: &mut KernelScratch) -> PageWork {
        scratch.size_lane(self.acc.len());
        let KernelScratch { degrees, lane, .. } = scratch;
        scatter_page(ctx, &self.prev, 1.0 - self.restart, degrees, lane)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::GtsConfig;
    use crate::job::{Engine, JobOptions};
    use gts_graph::generate::rmat;
    use gts_graph::Csr;
    use gts_storage::{build_graph_store, PageFormatConfig, PhysicalIdConfig};

    /// Sequential RWR reference (same kernel semantics).
    fn reference_rwr(g: &Csr, seed: u32, c: f64, iters: u32) -> Vec<f64> {
        let n = g.num_vertices() as usize;
        let mut prev = vec![0.0; n];
        prev[seed as usize] = 1.0;
        let mut next = Vec::new();
        for _ in 0..iters {
            next = vec![0.0; n];
            next[seed as usize] = c;
            for v in 0..g.num_vertices() {
                let deg = g.out_degree(v);
                if deg == 0 {
                    continue;
                }
                let share = (1.0 - c) * prev[v as usize] / deg as f64;
                for &w in g.neighbors(v) {
                    next[w as usize] += share;
                }
            }
            prev = next.clone();
        }
        next
    }

    #[test]
    fn rwr_matches_sequential_reference() {
        let graph = rmat(9);
        let store = build_graph_store(
            &graph,
            PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 1024),
        )
        .unwrap();
        let csr = Csr::from_edge_list(&graph);
        let mut rwr = Rwr::new(store.num_vertices(), 3, 8);
        Engine::new(GtsConfig::default())
            .unwrap()
            .run_job(&store, &mut rwr, &JobOptions::default())
            .unwrap();
        let want = reference_rwr(&csr, 3, 0.15, 8);
        for (got, want) in rwr.scores().iter().zip(&want) {
            assert!((*got as f64 - want).abs() < 1e-5, "{got} vs {want}");
        }
    }

    #[test]
    fn seed_keeps_the_restart_mass() {
        let graph = rmat(8);
        let store = build_graph_store(
            &graph,
            PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 1024),
        )
        .unwrap();
        let mut rwr = Rwr::new(store.num_vertices(), 0, 10);
        Engine::new(GtsConfig::default())
            .unwrap()
            .run_job(&store, &mut rwr, &JobOptions::default())
            .unwrap();
        let scores = rwr.scores();
        assert!(scores[0] >= 0.15, "seed retains at least the restart mass");
        let max = scores.iter().cloned().fold(0.0f32, f32::max);
        assert_eq!(max, scores[0], "the seed is its own closest vertex");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn seed_bounds_checked() {
        let _ = Rwr::new(10, 10, 1);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn restart_bounds_checked() {
        // 1 - c < 0: see `pagerank::tests::damping_bounds_checked`.
        let _ = Rwr::with_restart(10, 0, 5, 1.5);
    }
}
