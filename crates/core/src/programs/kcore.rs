//! K-core decomposition — one of the traversal-family algorithms the
//! paper lists in Sec. 3.3 ("neighborhood, induced subgraph, egonet,
//! K-core, and cross-edges").
//!
//! The k-core of a graph is the maximal subgraph in which every vertex
//! has (undirected) degree ≥ k. The streamed formulation is round-based
//! peeling: every sweep recomputes each alive vertex's degree *among
//! alive vertices* (counting both directions of every edge, which only
//! needs out-adjacency pages: an edge `v→w` contributes to both `v` and
//! `w`), then kills vertices below k. The fixpoint is exactly the k-core;
//! rounds-based peeling reaches it in at most `#removed` sweeps and
//! usually far fewer.

use super::{
    state, visit_page, Algorithm, ExecMode, GtsProgram, KernelScratch, PageCtx, PageWork,
    SweepControl,
};
use gts_ckpt::{ByteReader, ByteWriter, CkptError};
use gts_gpu::timer::KernelClass;
use gts_storage::builder::GraphStore;
use gts_storage::MutationOutcome;

/// K-core vertex program. Each sweep counts alive-degrees over the
/// streamed topology; peeling happens at the sweep barrier (a trivial
/// WA-only pass).
pub struct KCore {
    k: u32,
    alive: Vec<bool>,
    degree: Vec<u32>,
}

impl KCore {
    /// This program's row of [`super::ALGORITHMS`].
    pub const ALGORITHM: Algorithm = Algorithm {
        name: "kcore",
        report_name: "KCore",
        // WA: one 4-byte degree per vertex (the alive flags ride along).
        wa_bytes_per_vertex: 4,
        ra_bytes_per_vertex: 0,
        class: KernelClass::Traversal,
        mode: ExecMode::Sweep,
        build: |n, _, _, k| Box::new(Self::new(n, k)),
    };

    /// Decompose `num_vertices` for core number `k`.
    pub fn new(num_vertices: u64, k: u32) -> Self {
        KCore {
            k,
            alive: vec![true; num_vertices as usize],
            degree: vec![0; num_vertices as usize],
        }
    }

    /// Which vertices belong to the k-core.
    pub fn in_core(&self) -> &[bool] {
        &self.alive
    }

    /// Number of vertices in the k-core.
    pub fn core_size(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }
}

impl GtsProgram for KCore {
    fn algorithm(&self) -> &'static Algorithm {
        &Self::ALGORITHM
    }

    fn summary(&self) -> String {
        format!("{}-core has {} vertices", self.k, self.core_size())
    }

    fn process_page(&mut self, ctx: &PageCtx<'_>, scratch: &mut KernelScratch) -> PageWork {
        scratch.reset();
        let mut work = PageWork::default();
        visit_page(ctx.view, |vid, len, _kind, rids| {
            scratch.degrees.push(len);
            if !self.alive[vid as usize] {
                return;
            }
            work.active_vertices += 1;
            for rid in rids {
                work.active_edges += 1;
                let adj = ctx.rvt.translate(rid) as usize;
                if !self.alive[adj] {
                    continue;
                }
                // The edge contributes to both endpoints' degrees.
                self.degree[vid as usize] += 1;
                self.degree[adj] += 1;
                work.atomic_ops += 2;
            }
        });
        work.lane_slots = ctx.technique.lane_slots(&scratch.degrees);
        work.updated = true;
        work
    }

    fn end_sweep(&mut self, _sweep: u32, _frontier_empty: bool, _any_update: bool) -> SweepControl {
        // Degrees are complete for this round: peel below-k vertices.
        let mut removed = false;
        for v in 0..self.alive.len() {
            if self.alive[v] && self.degree[v] < self.k {
                self.alive[v] = false;
                removed = true;
            }
        }
        if !removed {
            return SweepControl::Done;
        }
        self.degree.fill(0);
        SweepControl::Continue
    }

    fn on_mutation(&mut self, _store: &GraphStore, _outcome: &MutationOutcome) -> Vec<u64> {
        // Peeling only ever removes vertices, and an insert can lift a
        // peeled vertex back into the core (a delete can drop one out):
        // start over from every vertex alive. No seeds, so the engine
        // plans a full sweep, which re-peels on the current graph.
        self.alive.fill(true);
        self.degree.fill(0);
        Vec::new()
    }

    fn save_state(&self) -> Vec<u8> {
        // Boundary invariant: `end_sweep` just zero-filled `degree`, so
        // only the alive flags carry state (degree saved for robustness).
        let mut w = ByteWriter::new();
        w.put_seq(&self.alive);
        w.put_seq(&self.degree);
        w.into_bytes()
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), CkptError> {
        let mut r = ByteReader::new(bytes);
        state::load(&mut r, "kcore.alive", &mut self.alive)?;
        state::load(&mut r, "kcore.degree", &mut self.degree)?;
        r.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::GtsConfig;
    use crate::job::{Engine, JobOptions};
    use gts_graph::generate::rmat;
    use gts_graph::{Csr, EdgeList};
    use gts_storage::{build_graph_store, PageFormatConfig, PhysicalIdConfig};

    /// Sequential reference: classic peeling on the undirected multigraph.
    fn reference_kcore(g: &Csr, k: u32) -> Vec<bool> {
        let n = g.num_vertices() as usize;
        let mut alive = vec![true; n];
        loop {
            let mut degree = vec![0u32; n];
            for (s, d) in g.edges() {
                if alive[s as usize] && alive[d as usize] {
                    degree[s as usize] += 1;
                    degree[d as usize] += 1;
                }
            }
            let mut removed = false;
            for v in 0..n {
                if alive[v] && degree[v] < k {
                    alive[v] = false;
                    removed = true;
                }
            }
            if !removed {
                return alive;
            }
        }
    }

    fn run(graph: &EdgeList, k: u32) -> Vec<bool> {
        let store = build_graph_store(
            graph,
            PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 1024),
        )
        .unwrap();
        let mut kc = KCore::new(store.num_vertices(), k);
        Engine::new(GtsConfig::default())
            .unwrap()
            .run_job(&store, &mut kc, &JobOptions::default())
            .unwrap();
        kc.in_core().to_vec()
    }

    #[test]
    fn matches_reference_on_rmat() {
        let graph = rmat(9);
        let csr = Csr::from_edge_list(&graph);
        for k in [2, 4, 8, 16, 40] {
            assert_eq!(run(&graph, k), reference_kcore(&csr, k), "k = {k}");
        }
    }

    #[test]
    fn triangle_survives_2core_and_pendant_does_not() {
        // Triangle 0-1-2 plus a pendant 3 attached to 0.
        let graph = EdgeList::new(4, vec![(0, 1), (1, 2), (2, 0), (0, 3)]);
        let core = run(&graph, 2);
        assert_eq!(core, vec![true, true, true, false]);
    }

    #[test]
    fn cores_are_nested() {
        let graph = rmat(9);
        let c2 = run(&graph, 2);
        let c8 = run(&graph, 8);
        for v in 0..graph.num_vertices as usize {
            assert!(!c8[v] || c2[v], "8-core ⊆ 2-core violated at {v}");
        }
        let s2 = c2.iter().filter(|&&b| b).count();
        let s8 = c8.iter().filter(|&&b| b).count();
        assert!(s8 < s2, "higher k strictly shrinks the core on RMAT");
    }

    #[test]
    fn k_zero_keeps_everything() {
        let graph = rmat(7);
        let core = run(&graph, 0);
        assert!(core.iter().all(|&a| a));
    }
}
