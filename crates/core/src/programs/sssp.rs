//! Single-source shortest paths (Appendix D).
//!
//! A BFS-like traversal with relaxations: WA is the 4-byte distance vector;
//! vertices whose distance improved in the previous level relax their
//! out-edges with `atomicMin`. Edge weights are the deterministic synthetic
//! weights of [`gts_graph::EdgeList::edge_weight`] (the paper's datasets
//! are unweighted, so its SSSP runs also used generated weights).

use super::{
    state, visit_page, Algorithm, ExecMode, GtsProgram, KernelScratch, PageCtx, PageWork,
    SweepControl,
};
use gts_ckpt::{ByteReader, ByteWriter, CkptError};
use gts_gpu::timer::KernelClass;
use gts_graph::EdgeList;
use gts_storage::builder::GraphStore;
use gts_storage::MutationOutcome;

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
    /// This program's row of [`super::ALGORITHMS`].
    pub const ALGORITHM: Algorithm = Algorithm {
        name: "sssp",
        report_name: "SSSP",
        // WA: the 4-byte distance.
        wa_bytes_per_vertex: 4,
        ra_bytes_per_vertex: 0,
        class: KernelClass::Traversal,
        mode: ExecMode::Traversal,
        build: |n, source, _, _| Box::new(Self::new(n, source)),
    };

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

    /// Final distances ([`u32::MAX`] = unreachable).
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
    fn algorithm(&self) -> &'static Algorithm {
        &Self::ALGORITHM
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

    fn on_mutation(&mut self, store: &GraphStore, outcome: &MutationOutcome) -> Vec<u64> {
        // As `Bfs::on_mutation`: re-activate every *reached* vertex resident
        // in a rewritten or freshly-allocated page, since an inserted edge
        // out of it may lower (or first assign) a neighbour's distance, and
        // return the pages holding one as the next sweep's seeds. A vertex
        // settled long ago is otherwise never relaxed again. Deleted edges
        // are not re-derived: distances stay lower bounds of the
        // post-deletion distances (DESIGN.md §12).
        let mut seeds = Vec::new();
        for &pid in outcome.dirty_pids.iter().chain(&outcome.new_pids) {
            let mut any = false;
            visit_page(store.view(pid), |vid, _len, _kind, _rids| {
                if self.dist[vid as usize] != DIST_INF {
                    self.active[vid as usize] = true;
                    any = true;
                }
            });
            if any {
                seeds.push(pid);
            }
        }
        seeds
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
