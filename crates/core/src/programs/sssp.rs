//! Single-source shortest paths (Appendix D).
//!
//! A BFS-like traversal with relaxations: WA is the 4-byte distance vector;
//! vertices whose distance improved in the previous level relax their
//! out-edges with `atomicMin`. Edge weights are the deterministic synthetic
//! weights of [`gts_graph::EdgeList::edge_weight`] (the paper's datasets
//! are unweighted, so its SSSP runs also used generated weights).

use super::{
    state, visit_page, ExecMode, GtsProgram, KernelScratch, PageCtx, PageWork, SweepControl,
};
use crate::attrs::AlgorithmKind;
use gts_ckpt::{ByteReader, ByteWriter, CkptError};
use gts_gpu::timer::KernelClass;
use gts_graph::EdgeList;

/// Distance of unreachable vertices.
pub const DIST_INF: u32 = u32::MAX;

/// SSSP vertex program (label-correcting, level-synchronous).
pub struct Sssp {
    dist: Vec<u32>,
    /// Frontier flags for the current level.
    active: Vec<bool>,
    /// Vertices improved during this level (next frontier).
    next_active: Vec<bool>,
    source: u64,
}

impl Sssp {
    /// Shortest paths over `num_vertices` from `source`.
    ///
    /// # Panics
    /// Panics if `source` is out of range.
    pub fn new(num_vertices: u64, source: u64) -> Self {
        assert!(source < num_vertices, "source {source} out of range");
        let n = num_vertices as usize;
        let mut dist = vec![DIST_INF; n];
        dist[source as usize] = 0;
        let mut active = vec![false; n];
        active[source as usize] = true;
        Sssp {
            dist,
            active,
            next_active: vec![false; n],
            source,
        }
    }

    /// Final distances ([`DIST_INF`] = unreachable).
    pub fn distances(&self) -> &[u32] {
        &self.dist
    }

    fn relax(
        &mut self,
        ctx: &PageCtx<'_>,
        scratch: &mut KernelScratch,
        work: &mut PageWork,
        vid: u64,
        rids: gts_storage::AdjRun<'_>,
    ) {
        let dv = self.dist[vid as usize];
        for rid in rids {
            work.active_edges += 1;
            work.atomic_ops += 1; // atomicMin per edge on hardware
            let adj_vid = ctx.rvt.translate(rid);
            let w = EdgeList::edge_weight(vid as u32, adj_vid as u32);
            let nd = dv.saturating_add(w);
            if nd < self.dist[adj_vid as usize] {
                self.dist[adj_vid as usize] = nd;
                self.next_active[adj_vid as usize] = true;
                scratch.next_pids.push(rid.pid);
                work.updated = true;
            }
        }
    }
}

impl GtsProgram for Sssp {
    fn kind(&self) -> AlgorithmKind {
        AlgorithmKind::Sssp
    }

    fn class(&self) -> KernelClass {
        KernelClass::Traversal
    }

    fn mode(&self) -> ExecMode {
        ExecMode::Traversal
    }

    fn start_vertex(&self) -> Option<u64> {
        Some(self.source)
    }

    fn summary(&self) -> String {
        let reached = self.dist.iter().filter(|&&d| d != DIST_INF).count();
        format!("{reached} vertices reachable from {}", self.source)
    }

    fn process_page(&mut self, ctx: &PageCtx<'_>, scratch: &mut KernelScratch) -> PageWork {
        scratch.reset();
        let mut work = PageWork::default();
        visit_page(ctx.view, |vid, len, _kind, rids| {
            if !self.active[vid as usize] {
                return;
            }
            scratch.degrees.push(len);
            work.active_vertices += 1;
            self.relax(ctx, scratch, &mut work, vid, rids);
        });
        work.lane_slots = ctx.technique.lane_slots(&scratch.degrees);
        work
    }

    fn end_sweep(&mut self, _sweep: u32, frontier_empty: bool, _any_update: bool) -> SweepControl {
        std::mem::swap(&mut self.active, &mut self.next_active);
        self.next_active.fill(false);
        if frontier_empty {
            SweepControl::Done
        } else {
            SweepControl::Continue
        }
    }

    fn save_state(&self) -> Vec<u8> {
        // Boundary invariant: `end_sweep` swapped the frontiers and
        // blanked `next_active`, so only `dist` and `active` carry state.
        let mut w = ByteWriter::new();
        w.put_seq(&self.dist);
        w.put_seq(&self.active);
        w.into_bytes()
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), CkptError> {
        let mut r = ByteReader::new(bytes);
        state::load(&mut r, "sssp.dist", &mut self.dist)?;
        state::load(&mut r, "sssp.active", &mut self.active)?;
        self.next_active.fill(false);
        r.finish()
    }
}
