//! Breadth-first search — the paper's Appendix B.1 kernels
//! (`K_BFS_SP` / `K_BFS_LP`), expressed functionally.
//!
//! WA is the per-vertex traversal level `LV` (2 bytes, matching Table 4's
//! 0.5 GB for 256M vertices). A vertex at the current level expands its
//! adjacency list; undiscovered neighbours are claimed at `level + 1` and
//! their *pages* are marked in the local `nextPIDSet` so only pages
//! containing frontier vertices are streamed next level (Sec. 3.3).

use super::{
    state, visit_page, Algorithm, ExecMode, GtsProgram, KernelScratch, PageCtx, PageWork,
    SweepControl,
};
use gts_ckpt::{ByteReader, ByteWriter, CkptError};
use gts_gpu::timer::KernelClass;
use gts_storage::builder::GraphStore;
use gts_storage::MutationOutcome;
use std::collections::BTreeSet;

/// Level value for undiscovered vertices (the kernel's `NULL`).
pub const LV_NULL: u16 = u16::MAX;

/// BFS vertex program.
pub struct Bfs {
    lv: Vec<u16>,
    source: u64,
    /// Discovered vertices re-activated outside the plain frontier — by a
    /// mutation batch ([`GtsProgram::on_mutation`]) or by a relaxation
    /// that improved an already-assigned level. They expand this sweep
    /// regardless of `lv == sweep`. Empty in non-mutated runs, so the
    /// plain BFS path is untouched.
    pending: BTreeSet<u64>,
    /// Vertices relaxed this sweep to a level other than `sweep + 1`
    /// (only possible after mutations); they become `pending` next sweep.
    pending_next: BTreeSet<u64>,
    /// Home pages of `pending_next`, handed to the engine as seeds when
    /// the regular frontier is empty.
    pending_pids_next: BTreeSet<u64>,
}

impl Bfs {
    /// This program's row of [`super::ALGORITHMS`].
    pub const ALGORITHM: Algorithm = Algorithm {
        name: "bfs",
        report_name: "BFS",
        // WA: the 2-byte traversal level LV.
        wa_bytes_per_vertex: 2,
        ra_bytes_per_vertex: 0,
        class: KernelClass::Traversal,
        mode: ExecMode::Traversal,
        build: |n, source, _, _| Box::new(Self::new(n, source)),
    };

    /// BFS over `num_vertices` from `source`.
    ///
    /// # Panics
    /// Panics if `source` is out of range.
    pub fn new(num_vertices: u64, source: u64) -> Self {
        assert!(source < num_vertices, "source {source} out of range");
        let mut lv = vec![LV_NULL; num_vertices as usize];
        lv[source as usize] = 0;
        Bfs {
            lv,
            source,
            pending: BTreeSet::new(),
            pending_next: BTreeSet::new(),
            pending_pids_next: BTreeSet::new(),
        }
    }

    /// Final per-vertex levels ([`u16::MAX`] = unreached).
    pub fn levels(&self) -> &[u16] {
        &self.lv
    }

    /// Levels widened to the reference format (`u32::MAX` = unreached).
    pub fn levels_u32(&self) -> Vec<u32> {
        self.lv
            .iter()
            .map(|&l| if l == LV_NULL { u32::MAX } else { l as u32 })
            .collect()
    }

    /// Expand one vertex's adjacency list (the `expand_warp` device routine
    /// of Algorithm 2), generalised to a monotone relaxation: a neighbour
    /// is claimed when undiscovered *or* when this expansion offers a
    /// strictly smaller level (only possible for `pending` vertices after
    /// a mutation). In a non-mutated run every expanding vertex sits at
    /// `lv == sweep`, so `cand == sweep + 1`, the improvement case never
    /// fires, and the claims are bit-identical to plain BFS.
    fn expand(
        &mut self,
        ctx: &PageCtx<'_>,
        scratch: &mut KernelScratch,
        work: &mut PageWork,
        vid: u64,
        rids: gts_storage::AdjRun<'_>,
    ) {
        let cand = self.lv[vid as usize] + 1;
        for rid in rids {
            work.active_edges += 1;
            let adj_vid = ctx.rvt.translate(rid) as usize;
            if self.lv[adj_vid] == LV_NULL || cand < self.lv[adj_vid] {
                // atomic claim on hardware; sequential here, same result.
                self.lv[adj_vid] = cand;
                work.atomic_ops += 1;
                work.updated = true;
                scratch.next_pids.push(rid.pid);
                if cand as u32 != ctx.sweep + 1 {
                    // Claimed off-frontier: the plain `lv == sweep` gate
                    // will not pick it up next sweep, so remember it.
                    self.pending_next.insert(adj_vid as u64);
                    self.pending_pids_next.insert(rid.pid);
                }
            }
        }
    }
}

impl GtsProgram for Bfs {
    fn algorithm(&self) -> &'static Algorithm {
        &Self::ALGORITHM
    }

    fn start_vertex(&self) -> Option<u64> {
        Some(self.source)
    }

    fn summary(&self) -> String {
        let reached = self.lv.iter().filter(|&&l| l != LV_NULL).count();
        format!("{reached} vertices reached from {}", self.source)
    }

    fn process_page(&mut self, ctx: &PageCtx<'_>, scratch: &mut KernelScratch) -> PageWork {
        scratch.reset();
        let mut work = PageWork::default();
        // LV is 2 bytes (Table 4); a level that would collide with the
        // LV_NULL sentinel means the traversal is deeper than the format
        // supports — fail loudly rather than loop forever re-discovering.
        assert!(
            ctx.sweep + 1 < LV_NULL as u32,
            "BFS depth exceeds the 2-byte LV field"
        );
        let cur = ctx.sweep as u16;
        // K_BFS_SP / K_BFS_LP: frontier vertices expand, plus any vertex a
        // mutation re-activated (`pending` is only consulted, never drained
        // here — an LP vertex spans several chunks and must stay active for
        // all of them).
        visit_page(ctx.view, |vid, len, _kind, rids| {
            let lv = self.lv[vid as usize];
            let active = lv == cur || (!self.pending.is_empty() && self.pending.contains(&vid));
            if !active || lv == LV_NULL {
                return;
            }
            scratch.degrees.push(len);
            work.active_vertices += 1;
            self.expand(ctx, scratch, &mut work, vid, rids);
        });
        work.lane_slots = ctx.technique.lane_slots(&scratch.degrees);
        work
    }

    fn end_sweep(&mut self, _sweep: u32, frontier_empty: bool, _any_update: bool) -> SweepControl {
        self.pending = std::mem::take(&mut self.pending_next);
        let seeds: Vec<u64> = std::mem::take(&mut self.pending_pids_next)
            .into_iter()
            .collect();
        if !frontier_empty {
            SweepControl::Continue
        } else if !self.pending.is_empty() {
            // Off-frontier relaxations but no regular frontier: replay
            // exactly the pages holding the re-activated vertices.
            SweepControl::ContinueWith(seeds)
        } else {
            SweepControl::Done
        }
    }

    fn on_mutation(&mut self, store: &GraphStore, outcome: &MutationOutcome) -> Vec<u64> {
        // Re-activate every *discovered* vertex resident in a rewritten or
        // freshly-allocated page: an inserted edge out of it may lower (or
        // first assign) a neighbour's level. Undiscovered residents have
        // nothing to propagate. The returned home pages seed the next
        // sweep; `from_marked` widens them to LP runs and delta pages.
        // Deleted edges are not re-derived: levels stay lower bounds of
        // the post-deletion distances (documented in DESIGN.md §12).
        let mut seeds = Vec::new();
        for &pid in outcome.dirty_pids.iter().chain(&outcome.new_pids) {
            let mut any = false;
            visit_page(store.view(pid), |vid, _len, _kind, _rids| {
                if self.lv[vid as usize] != LV_NULL {
                    self.pending.insert(vid);
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
        // Boundary invariant: `end_sweep` moved `pending_next` into
        // `pending` and drained its pages, so `lv` and `pending` are all
        // that crosses a sweep boundary.
        assert!(
            self.pending_next.is_empty() && self.pending_pids_next.is_empty(),
            "BFS state saved mid-sweep"
        );
        let mut w = ByteWriter::new();
        w.put_seq(&self.lv);
        // `pending` follows only when it holds something: a finished run
        // has none, and its blob — which serve fingerprints as the job's
        // result — stays the levels alone.
        if !self.pending.is_empty() {
            w.put_seq(&self.pending.iter().copied().collect::<Vec<_>>());
        }
        w.into_bytes()
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), CkptError> {
        let mut r = ByteReader::new(bytes);
        state::load(&mut r, "bfs.lv", &mut self.lv)?;
        if r.remaining() > 0 {
            self.pending = r.take_seq("bfs.pending")?.into_iter().collect();
        }
        r.finish()
    }
}
