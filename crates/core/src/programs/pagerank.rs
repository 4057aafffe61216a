//! PageRank — the paper's Appendix B.2 kernels (`K_PR_SP` / `K_PR_LP`).
//!
//! The read/write attribute vector (WA, device-resident) is `nextPR`; the
//! read-only vector (RA, streamed page-by-page) is `prevPR` (Sec. 3.1).
//! Each kernel scatters `df * prevPR[v] / ADJLIST_SZ` to every
//! out-neighbour (`super::RankScatter`, shared with RWR); dangling
//! vertices scatter nothing, exactly like the paper's kernel (so mass
//! leaks — matching `gts_graph::reference::pagerank`).

use super::{state, Algorithm, ExecMode, GtsProgram, Kernel, Param, RankScatter, SweepControl};
use gts_ckpt::{ByteReader, ByteWriter, CkptError};
use gts_exec::FixedVec;
use gts_gpu::timer::KernelClass;

/// When a PageRank run stops.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Termination {
    /// After exactly this many sweeps (the paper's experiments: ten).
    Fixed(u32),
    /// When the L1 change between iterations drops below `epsilon`, or at
    /// `max` sweeps, whichever comes first.
    Converged { epsilon: f32, max: u32 },
}

/// PageRank vertex program.
pub struct PageRank {
    /// The kernel: RA (the previous iteration's ranks, streamed
    /// alongside pages) and the damping factor as its `factor`.
    scatter: RankScatter,
    /// WA: next iteration's ranks, materialised from `acc` at end of sweep.
    next: Vec<f32>,
    /// The `atomicAdd` target: scattered shares accumulate here in 2^-52
    /// fixed point — straight from worker 0, folded in from every other
    /// worker's lane — so the sums carry the same bits in any execution
    /// order (see `gts_exec::fold_lane`).
    acc: Vec<u64>,
    termination: Termination,
    converged_at: Option<u32>,
}

impl PageRank {
    /// This program's row of [`super::ALGORITHMS`].
    pub const ALGORITHM: Algorithm = Algorithm {
        name: "pagerank",
        report_name: "PageRank",
        // WA: the 4-byte nextPR; RA: the streamed 4-byte prevPR.
        wa_bytes_per_vertex: 4,
        ra_bytes_per_vertex: 4,
        class: KernelClass::Compute,
        mode: ExecMode::Sweep,
        reads: &[Param::Iterations],
        build: |n, _, iterations, _| Box::new(Self::new(n, iterations)),
    };

    /// The paper's damping factor.
    pub const DEFAULT_DAMPING: f32 = 0.85;

    /// PageRank over `num_vertices` for `iterations` sweeps with damping
    /// [`Self::DEFAULT_DAMPING`].
    pub fn new(num_vertices: u64, iterations: u32) -> Self {
        Self::with_damping(num_vertices, iterations, Self::DEFAULT_DAMPING)
    }

    /// PageRank with an explicit damping factor.
    ///
    /// # Panics
    /// Panics if `df` is outside `[0, 1]`.
    pub fn with_damping(num_vertices: u64, iterations: u32, df: f32) -> Self {
        Self::with_termination(num_vertices, df, Termination::Fixed(iterations))
    }

    /// PageRank that iterates until the L1 change between consecutive
    /// iterations drops below `epsilon` (capped at `max_iterations`).
    pub fn until_convergence(num_vertices: u64, epsilon: f32, max_iterations: u32) -> Self {
        Self::with_termination(
            num_vertices,
            Self::DEFAULT_DAMPING,
            Termination::Converged {
                epsilon,
                max: max_iterations,
            },
        )
    }

    fn with_termination(num_vertices: u64, df: f32, termination: Termination) -> Self {
        if let Termination::Fixed(iterations) = termination {
            // The engine always executes a sweep before asking the program
            // whether to stop, so "zero iterations" cannot be honoured.
            assert!(iterations >= 1, "PageRank needs at least one iteration");
        }
        // Shares are accumulated in unsigned fixed point.
        assert!((0.0..=1.0).contains(&df), "damping {df} outside [0, 1]");
        let n = num_vertices as usize;
        let base = (1.0 - df) / n as f32;
        PageRank {
            scatter: RankScatter {
                prev: vec![1.0 / n as f32; n],
                factor: df,
            },
            next: vec![base; n],
            acc: vec![0; n],
            termination,
            converged_at: None,
        }
    }

    /// Fold the fixed-point scatter sums into `next` (teleport base plus
    /// accumulated shares) and reset the accumulator for the next sweep.
    fn materialize(&mut self) {
        let base = (1.0 - self.scatter.factor) / self.next.len() as f32;
        for (slot, acc) in self.next.iter_mut().zip(&mut self.acc) {
            *slot = (base as f64 + FixedVec::from_fixed(std::mem::take(acc))) as f32;
        }
    }

    /// The sweep (1-based) at which convergence-mode termination fired,
    /// if it did.
    pub fn converged_at(&self) -> Option<u32> {
        self.converged_at
    }

    /// The ranks after the last completed iteration.
    pub fn ranks(&self) -> &[f32] {
        &self.next
    }
}

impl GtsProgram for PageRank {
    fn algorithm(&self) -> &'static Algorithm {
        &Self::ALGORITHM
    }

    fn summary(&self) -> String {
        super::argmax(self.ranks())
            .map(|(v, s)| format!("top vertex {v} (score {s:.6})"))
            .unwrap_or_default()
    }

    fn kernel(&mut self) -> Kernel<'_> {
        Kernel::Sum {
            scatter: &self.scatter,
            acc: &mut self.acc,
        }
    }

    fn end_sweep(&mut self, sweep: u32, _frontier_empty: bool, _any_update: bool) -> SweepControl {
        self.materialize();
        let done = match self.termination {
            Termination::Fixed(iterations) => sweep + 1 >= iterations,
            Termination::Converged { epsilon, max } => {
                let delta: f32 = self
                    .next
                    .iter()
                    .zip(&self.scatter.prev)
                    .map(|(a, b)| (a - b).abs())
                    .sum();
                if delta < epsilon {
                    self.converged_at = Some(sweep + 1);
                    true
                } else {
                    sweep + 1 >= max
                }
            }
        };
        if done {
            return SweepControl::Done;
        }
        // nextPR becomes prevPR (the paper: "at the end of every iteration,
        // nextPR should be initialized after being copied to prevPR");
        // re-initialisation happened in `materialize` (accumulator reset +
        // teleport base re-applied on the next fold).
        std::mem::swap(&mut self.scatter.prev, &mut self.next);
        SweepControl::Continue
    }

    fn save_state(&self) -> Vec<u8> {
        // Boundary invariant: `materialize` ran at the end of the previous
        // sweep, so `acc` is empty — only the rank vectors and the
        // convergence marker carry state.
        let mut w = ByteWriter::new();
        w.put_seq(&self.scatter.prev);
        w.put_seq(&self.next);
        w.put_bool(self.converged_at.is_some());
        w.put_u32(self.converged_at.unwrap_or(0));
        w.into_bytes()
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), CkptError> {
        let mut r = ByteReader::new(bytes);
        state::load(&mut r, "pagerank.prev", &mut self.scatter.prev)?;
        state::load(&mut r, "pagerank.next", &mut self.next)?;
        let some = r.take_bool("pagerank.converged_at tag")?;
        let at = r.take_u32("pagerank.converged_at")?;
        self.converged_at = some.then_some(at);
        r.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::GtsConfig;
    use crate::job::{Engine, JobOptions};
    use gts_graph::generate::rmat;
    use gts_storage::{build_graph_store, PageFormatConfig, PhysicalIdConfig};

    #[test]
    fn convergence_mode_stops_early_and_is_stable() {
        let graph = rmat(9);
        let store = build_graph_store(
            &graph,
            PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 1024),
        )
        .unwrap();
        let mut pr = PageRank::until_convergence(store.num_vertices(), 1e-6, 200);
        let report = Engine::new(GtsConfig::default())
            .unwrap()
            .run_job(&store, &mut pr, &JobOptions::default())
            .unwrap();
        let at = pr.converged_at().expect("must converge well before 200");
        assert_eq!(report.sweeps, at);
        assert!(at < 100, "converged at {at}");
        // Converged ranks change by < epsilon under one more fixed sweep.
        let mut fixed = PageRank::new(store.num_vertices(), at + 1);
        Engine::new(GtsConfig::default())
            .unwrap()
            .run_job(&store, &mut fixed, &JobOptions::default())
            .unwrap();
        let delta: f32 = pr
            .ranks()
            .iter()
            .zip(fixed.ranks())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(delta < 1e-5, "post-convergence drift {delta}");
    }

    #[test]
    fn max_cap_bounds_convergence_mode() {
        let graph = rmat(8);
        let store = build_graph_store(
            &graph,
            PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 1024),
        )
        .unwrap();
        let mut pr = PageRank::until_convergence(store.num_vertices(), 0.0, 3);
        let report = Engine::new(GtsConfig::default())
            .unwrap()
            .run_job(&store, &mut pr, &JobOptions::default())
            .unwrap();
        assert_eq!(report.sweeps, 3);
        assert_eq!(pr.converged_at(), None);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn damping_bounds_checked() {
        // Used to reach the scatter: a debug-only panic there, and every
        // share silently saturated to zero under `--release`.
        let _ = PageRank::with_damping(8, 5, -0.5);
    }
}
