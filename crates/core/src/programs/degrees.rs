//! Degree distribution — the simplest of the paper's PageRank-like
//! (whole-graph linear scan) algorithms (Sec. 3.3 lists it alongside
//! PageRank, RWR, radius estimation and connected components).
//!
//! One sweep over the topology; each kernel records every scanned
//! vertex's out-degree into the WA degree vector. Useful both as a
//! user-facing analytic and as the minimal example of writing a
//! [`GtsProgram`].

use super::{
    state, visit_page, Algorithm, ExecMode, GtsProgram, Kernel, PageCtx, PageWork, SumKernel,
    SweepControl,
};
use gts_ckpt::{ByteReader, ByteWriter, CkptError};
use gts_gpu::timer::KernelClass;

/// Degree-distribution vertex program (single sweep).
pub struct Degrees {
    /// Kernel target: a vertex's Small-Page record and each of its
    /// Large-Page chunks add their length ([`RecordLengths`]).
    acc: Vec<u64>,
    /// Plain snapshot taken at end of sweep, what `degrees()` exposes.
    degree: Vec<u32>,
}

/// The kernel: add each record's length into its vertex's slot of the
/// lane. Integer sums, so pages may run on any number of workers.
struct RecordLengths;

impl SumKernel for RecordLengths {
    fn scatter(&self, ctx: &PageCtx<'_>, _degrees: &mut Vec<u32>, lane: &mut [u64]) -> PageWork {
        let mut work = PageWork::default();
        visit_page(ctx.view, |vid, len, _kind, _rids| {
            lane[vid as usize] += len as u64;
            work.active_vertices += 1;
            work.atomic_ops += 1;
        });
        // The kernel only reads slot headers: one lane-slot per vertex.
        work.lane_slots = work.active_vertices;
        work.updated = true;
        work
    }
}

impl Degrees {
    /// This program's row of [`super::ALGORITHMS`].
    pub const ALGORITHM: Algorithm = Algorithm {
        name: "degrees",
        report_name: "DegreeDistribution",
        // WA: one 4-byte count per vertex.
        wa_bytes_per_vertex: 4,
        ra_bytes_per_vertex: 0,
        class: KernelClass::Traversal,
        mode: ExecMode::Sweep,
        reads: &[],
        build: |n, _, _, _| Box::new(Self::new(n)),
    };

    /// Prepare for a graph of `num_vertices`.
    pub fn new(num_vertices: u64) -> Self {
        Degrees {
            acc: vec![0; num_vertices as usize],
            degree: vec![0; num_vertices as usize],
        }
    }

    /// Per-vertex out-degrees after the sweep.
    pub fn degrees(&self) -> &[u32] {
        &self.degree
    }

    /// Power-of-two histogram of the degrees (bucket 0 holds 0 and 1).
    pub fn histogram(&self) -> Vec<u64> {
        let mut hist = vec![0u64; 33];
        for &d in &self.degree {
            let bucket = if d <= 1 {
                0
            } else {
                63 - (d as u64).leading_zeros() as usize
            };
            hist[bucket.min(32)] += 1;
        }
        while hist.len() > 1 && *hist.last().unwrap() == 0 {
            hist.pop();
        }
        hist
    }
}

impl GtsProgram for Degrees {
    fn algorithm(&self) -> &'static Algorithm {
        &Self::ALGORITHM
    }

    fn summary(&self) -> String {
        let max = self.degrees().iter().max().copied().unwrap_or(0);
        format!("max out-degree {max}")
    }

    fn kernel(&mut self) -> Kernel<'_> {
        Kernel::Sum {
            scatter: &RecordLengths,
            acc: &mut self.acc,
        }
    }

    fn end_sweep(&mut self, _sweep: u32, _frontier_empty: bool, _any_update: bool) -> SweepControl {
        // Snapshot and reset, so a refresh sweep (a mutation batch after
        // `Done`) counts every record once, not on top of this sweep.
        for (slot, acc) in self.degree.iter_mut().zip(&mut self.acc) {
            *slot = std::mem::take(acc) as u32;
        }
        SweepControl::Done
    }

    fn save_state(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_seq(&self.acc.iter().map(|&a| a as u32).collect::<Vec<_>>());
        w.put_seq(&self.degree);
        w.into_bytes()
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), CkptError> {
        let mut r = ByteReader::new(bytes);
        let mut acc = vec![0u32; self.acc.len()];
        state::load(&mut r, "degrees.acc", &mut acc)?;
        self.acc = acc.into_iter().map(u64::from).collect();
        state::load(&mut r, "degrees.degree", &mut self.degree)?;
        r.finish()
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

    #[test]
    fn degrees_match_csr() {
        let graph = rmat(9);
        let store = build_graph_store(
            &graph,
            PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 512),
        )
        .unwrap();
        let csr = Csr::from_edge_list(&graph);
        let mut deg = Degrees::new(store.num_vertices());
        let report = Engine::new(GtsConfig::default())
            .unwrap()
            .run_job(&store, &mut deg, &JobOptions::default())
            .unwrap();
        assert_eq!(report.sweeps, 1, "single linear scan");
        for v in 0..csr.num_vertices() {
            assert_eq!(deg.degrees()[v as usize] as u64, csr.out_degree(v));
        }
    }

    #[test]
    fn histogram_matches_stats_module() {
        let graph = rmat(10);
        let store = build_graph_store(
            &graph,
            PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 1024),
        )
        .unwrap();
        let csr = Csr::from_edge_list(&graph);
        let mut deg = Degrees::new(store.num_vertices());
        Engine::new(GtsConfig::default())
            .unwrap()
            .run_job(&store, &mut deg, &JobOptions::default())
            .unwrap();
        assert_eq!(deg.histogram(), gts_graph::stats::degree_histogram(&csr));
    }

    #[test]
    fn lp_chunks_sum_to_full_degree() {
        // A hub too big for one page: its degree must sum across chunks.
        let edges: Vec<(u32, u32)> = (0..500).map(|i| (0, 1 + i % 500)).collect();
        let graph = gts_graph::EdgeList::new(501, edges);
        let store = build_graph_store(
            &graph,
            PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 256),
        )
        .unwrap();
        assert!(store.large_pids().len() > 1, "hub spans several chunks");
        let mut deg = Degrees::new(store.num_vertices());
        Engine::new(GtsConfig::default())
            .unwrap()
            .run_job(&store, &mut deg, &JobOptions::default())
            .unwrap();
        assert_eq!(deg.degrees()[0], 500);
    }

    #[test]
    fn refresh_sweep_after_a_late_batch_counts_every_edge_once() {
        // The batch is due after `Done`, so the engine runs one more full
        // sweep: degrees must be those of the mutated graph, Large-Page
        // hub included — not added on top of the first sweep's.
        use crate::engine::MutationSchedule;
        let edges: Vec<(u32, u32)> = (0..500).map(|i| (0, 1 + i)).collect();
        let mut store = build_graph_store(
            &gts_graph::EdgeList::new(501, edges),
            PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 256),
        )
        .unwrap();
        let mut batch = gts_storage::MutationBatch::new();
        batch.insert(7, 8);
        let mut deg = Degrees::new(store.num_vertices());
        Engine::new(GtsConfig::default())
            .unwrap()
            .run_job_live(
                &mut store,
                &mut deg,
                MutationSchedule::new().at(3, batch),
                &JobOptions::default(),
            )
            .unwrap();
        assert_eq!(deg.degrees()[0], 500);
        assert_eq!(deg.degrees()[7], 1);
    }
}
