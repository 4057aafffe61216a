//! Betweenness centrality (Appendix D), Brandes-style, in two streamed
//! phases.
//!
//! * **Forward**: a BFS that additionally accumulates shortest-path counts
//!   σ — when a kernel sees an edge `v → w` with `dist[w] = dist[v] + 1` it
//!   performs `atomicAdd(σ[w], σ[v])`. The program records which pages were
//!   active at each level.
//! * **Backward**: replays the recorded levels deepest-first
//!   (via [`SweepControl::ContinueWith`]); for a vertex `v` at level `l`,
//!   scanning its out-edges finds exactly its Brandes successors
//!   (`dist[w] = l + 1`), so
//!   `δ[v] = Σ σ[v]/σ[w] · (1 + δ[w])` completes in one kernel pass and
//!   `bc[v] += δ[v]` accumulates in place.
//!
//! The paper runs BC in single-source mode (its Fig. 13c); multi-source BC
//! is the sum over sources of independent runs.
//!
//! On a live store a mutation batch restarts the forward phase from the
//! source on the current graph, the way `KCore` re-peels: Brandes'
//! dependencies are not incremental, and recorded levels a batch moved
//! would replay wrong successors. The forward level is the program's own
//! count, not the sweep index, so a restart at any sweep begins at
//! level 0.

use super::{
    state, visit_page, Algorithm, ExecMode, GtsProgram, KernelScratch, PageCtx, PageWork,
    SweepControl,
};
use gts_ckpt::{ByteReader, ByteWriter, CkptError};
use gts_gpu::timer::KernelClass;
use gts_storage::builder::GraphStore;
use gts_storage::MutationOutcome;

const DIST_NULL: u16 = u16::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Forward,
    /// Backward accumulation currently replaying this forward level.
    Backward(u32),
}

/// Betweenness-centrality vertex program (one source).
pub struct Bc {
    dist: Vec<u16>,
    sigma: Vec<f32>,
    delta: Vec<f32>,
    bc: Vec<f32>,
    /// Pages whose vertices were frontier members at each forward level.
    pages_by_level: Vec<Vec<u64>>,
    phase: Phase,
    /// The forward level the next sweep expands. Every forward level
    /// records at least one page, so between sweeps it equals
    /// `pages_by_level.len()`, which is how a resume restores it.
    level: u32,
    source: u64,
}

impl Bc {
    /// This program's row of [`super::ALGORITHMS`].
    pub const ALGORITHM: Algorithm = Algorithm {
        name: "bc",
        report_name: "BC",
        // WA: sigma f32 + delta f32 + bc f32 + level u16.
        wa_bytes_per_vertex: 14,
        ra_bytes_per_vertex: 0,
        class: KernelClass::Traversal,
        mode: ExecMode::Traversal,
        build: |n, source, _, _| Box::new(Self::new(n, source)),
    };

    /// BC contribution of shortest paths from `source`.
    ///
    /// # Panics
    /// Panics if `source` is out of range.
    pub fn new(num_vertices: u64, source: u64) -> Self {
        assert!(source < num_vertices, "source {source} out of range");
        let n = num_vertices as usize;
        let mut dist = vec![DIST_NULL; n];
        dist[source as usize] = 0;
        let mut sigma = vec![0.0; n];
        sigma[source as usize] = 1.0;
        Bc {
            dist,
            sigma,
            delta: vec![0.0; n],
            bc: vec![0.0; n],
            pages_by_level: Vec::new(),
            phase: Phase::Forward,
            level: 0,
            source,
        }
    }

    /// Accumulated centrality scores.
    pub fn centrality(&self) -> &[f32] {
        &self.bc
    }

    fn forward_vertex(
        &mut self,
        ctx: &PageCtx<'_>,
        scratch: &mut KernelScratch,
        work: &mut PageWork,
        vid: u64,
        rids: gts_storage::AdjRun<'_>,
    ) {
        let next = self.level as u16 + 1;
        let sv = self.sigma[vid as usize];
        for rid in rids {
            work.active_edges += 1;
            let adj = ctx.rvt.translate(rid) as usize;
            if self.dist[adj] == DIST_NULL {
                self.dist[adj] = next;
                scratch.next_pids.push(rid.pid);
                work.updated = true;
            }
            if self.dist[adj] == next {
                self.sigma[adj] += sv; // atomicAdd on hardware
                work.atomic_ops += 1;
            }
        }
    }

    fn backward_vertex(
        &mut self,
        ctx: &PageCtx<'_>,
        work: &mut PageWork,
        level: u32,
        vid: u64,
        rids: gts_storage::AdjRun<'_>,
    ) {
        let succ_level = level as u16 + 1;
        let sv = self.sigma[vid as usize];
        let mut acc = 0.0f32;
        for rid in rids {
            work.active_edges += 1;
            let adj = ctx.rvt.translate(rid) as usize;
            if self.dist[adj] == succ_level && self.sigma[adj] > 0.0 {
                acc += sv / self.sigma[adj] * (1.0 + self.delta[adj]);
                work.atomic_ops += 1;
            }
        }
        if acc > 0.0 {
            // A Large-Page vertex is visited once per chunk, so δ must be
            // accumulated here and folded into bc only once, at the end of
            // the whole backward phase (see `end_sweep`).
            self.delta[vid as usize] += acc;
            work.updated = true;
        }
    }

    fn record_forward_page(&mut self, level: u32, pid: u64) {
        let l = level as usize;
        if self.pages_by_level.len() <= l {
            self.pages_by_level.resize(l + 1, Vec::new());
        }
        self.pages_by_level[l].push(pid);
    }
}

impl GtsProgram for Bc {
    fn algorithm(&self) -> &'static Algorithm {
        &Self::ALGORITHM
    }

    fn start_vertex(&self) -> Option<u64> {
        Some(self.source)
    }

    fn summary(&self) -> String {
        super::argmax(&self.bc)
            .map(|(v, s)| format!("most central vertex {v} (bc {s:.1})"))
            .unwrap_or_default()
    }

    fn process_page(&mut self, ctx: &PageCtx<'_>, scratch: &mut KernelScratch) -> PageWork {
        scratch.reset();
        let mut work = PageWork::default();
        let (level, forward) = match self.phase {
            Phase::Forward => (self.level, true),
            Phase::Backward(l) => (l, false),
        };
        assert!(
            level + 1 < DIST_NULL as u32,
            "BC traversal depth exceeds the 2-byte dist field"
        );
        let cur = level as u16;
        let mut page_active = false;
        visit_page(ctx.view, |vid, len, _kind, rids| {
            if self.dist[vid as usize] != cur {
                return;
            }
            scratch.degrees.push(len);
            work.active_vertices += 1;
            page_active = true;
            if forward {
                self.forward_vertex(ctx, scratch, &mut work, vid, rids);
            } else {
                self.backward_vertex(ctx, &mut work, level, vid, rids);
            }
        });
        if forward && page_active {
            self.record_forward_page(level, ctx.pid);
        }
        work.lane_slots = ctx.technique.lane_slots(&scratch.degrees);
        work
    }

    fn end_sweep(&mut self, _sweep: u32, frontier_empty: bool, _any_update: bool) -> SweepControl {
        match self.phase {
            Phase::Forward => {
                if !frontier_empty {
                    self.level += 1;
                    return SweepControl::Continue;
                }
                // Forward done. Deepest level D vertices have δ = 0; start
                // accumulating from D−1 (if the traversal went anywhere).
                let depth = self.pages_by_level.len() as u32;
                if depth <= 1 {
                    return SweepControl::Done;
                }
                let start = depth - 2;
                self.phase = Phase::Backward(start);
                SweepControl::ContinueWith(self.pages_by_level[start as usize].clone())
            }
            Phase::Backward(l) => {
                if l == 0 {
                    // Fold δ into the centrality scores (a final trivial
                    // kernel over WA; its cost is negligible and the cost
                    // model for BFS-like algorithms omits it).
                    for v in 0..self.bc.len() {
                        if v as u64 != self.source {
                            self.bc[v] += self.delta[v];
                        }
                    }
                    SweepControl::Done
                } else {
                    self.phase = Phase::Backward(l - 1);
                    SweepControl::ContinueWith(self.pages_by_level[(l - 1) as usize].clone())
                }
            }
        }
    }

    fn on_mutation(&mut self, store: &GraphStore, _outcome: &MutationOutcome) -> Vec<u64> {
        // Start over on the current graph: fresh σ, δ, scores and
        // levels, seeded by the source's page alone.
        *self = Bc::new(self.dist.len() as u64, self.source);
        vec![store.pid_of_vertex(self.source)]
    }

    fn save_state(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_seq(&self.dist);
        w.put_seq(&self.sigma);
        w.put_seq(&self.delta);
        w.put_seq(&self.bc);
        match self.phase {
            Phase::Forward => {
                w.put_u8(0);
                w.put_u32(0);
            }
            Phase::Backward(l) => {
                w.put_u8(1);
                w.put_u32(l);
            }
        }
        w.put_u64(self.pages_by_level.len() as u64);
        for level in &self.pages_by_level {
            w.put_seq(level);
        }
        w.into_bytes()
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), CkptError> {
        let mut r = ByteReader::new(bytes);
        state::load(&mut r, "bc.dist", &mut self.dist)?;
        state::load(&mut r, "bc.sigma", &mut self.sigma)?;
        state::load(&mut r, "bc.delta", &mut self.delta)?;
        state::load(&mut r, "bc.bc", &mut self.bc)?;
        let tag = r.take_u8("bc.phase tag")?;
        let level = r.take_u32("bc.phase level")?;
        self.phase = match tag {
            0 => Phase::Forward,
            1 => Phase::Backward(level),
            other => {
                return Err(CkptError::Corrupt {
                    reason: format!("bc.phase: unknown tag {other}"),
                })
            }
        };
        // No capacity from the unchecked depth: each level's sequence
        // checks its own count, and a level costs at least its 8 bytes.
        let depth = r.take_u64("bc.pages_by_level count")?;
        self.pages_by_level = (0..depth)
            .map(|_| r.take_seq("bc.level pids"))
            .collect::<Result<_, _>>()?;
        self.level = self.pages_by_level.len() as u32;
        r.finish()
    }
}
