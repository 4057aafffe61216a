//! Weakly connected components (Appendix D).
//!
//! PageRank-like access pattern (full sweeps over the topology) with
//! traversal-class arithmetic: min-label propagation. Each kernel pushes a
//! vertex's label to its out-neighbours with `atomicMin` and pulls the
//! minimum neighbour label back, so labels flow against edge direction as
//! well — converging to the weakly-connected fixpoint where every vertex
//! carries the minimum vertex ID of its component (the same labelling as
//! `gts_graph::reference::connected_components`).

use super::{
    state, visit_page, ExecMode, GtsProgram, KernelScratch, PageCtx, PageWork, SweepControl,
};
use crate::attrs::AlgorithmKind;
use gts_ckpt::{ByteReader, ByteWriter, CkptError};
use gts_gpu::timer::KernelClass;
use gts_storage::builder::GraphStore;
use gts_storage::MutationOutcome;

/// Connected-components vertex program.
pub struct Cc {
    /// WA: 8-byte component labels (Table 4's CC row).
    label: Vec<u64>,
}

impl Cc {
    /// CC over `num_vertices`; every vertex starts in its own component.
    pub fn new(num_vertices: u64) -> Self {
        Cc {
            label: (0..num_vertices).collect(),
        }
    }

    /// Final component labels (minimum vertex ID per component).
    pub fn labels(&self) -> &[u64] {
        &self.label
    }

    /// Labels narrowed to the reference format.
    pub fn labels_u32(&self) -> Vec<u32> {
        self.label.iter().map(|&l| l as u32).collect()
    }

    fn propagate(
        &mut self,
        ctx: &PageCtx<'_>,
        work: &mut PageWork,
        vid: u64,
        rids: gts_storage::AdjRun<'_>,
    ) {
        let lv = self.label[vid as usize];
        let mut pulled = lv;
        for rid in rids {
            work.active_edges += 1;
            work.atomic_ops += 2; // atomicMin both directions
            let adj_vid = ctx.rvt.translate(rid) as usize;
            let la = self.label[adj_vid];
            if lv < la {
                self.label[adj_vid] = lv;
                work.updated = true;
            } else if la < pulled {
                pulled = la;
            }
        }
        if pulled < lv {
            self.label[vid as usize] = pulled;
            work.updated = true;
        }
    }
}

impl GtsProgram for Cc {
    fn kind(&self) -> AlgorithmKind {
        AlgorithmKind::ConnectedComponents
    }

    fn class(&self) -> KernelClass {
        KernelClass::Traversal
    }

    fn mode(&self) -> ExecMode {
        ExecMode::Sweep
    }

    fn start_vertex(&self) -> Option<u64> {
        None
    }

    fn summary(&self) -> String {
        let mut labels = self.labels().to_vec();
        labels.sort_unstable();
        labels.dedup();
        format!("{} weakly connected components", labels.len())
    }

    fn process_page(&mut self, ctx: &PageCtx<'_>, scratch: &mut KernelScratch) -> PageWork {
        scratch.reset();
        let mut work = PageWork::default();
        visit_page(ctx.view, |vid, len, _kind, rids| {
            scratch.degrees.push(len);
            work.active_vertices += 1;
            self.propagate(ctx, &mut work, vid, rids);
        });
        work.lane_slots = ctx.technique.lane_slots(&scratch.degrees);
        work
    }

    fn end_sweep(&mut self, _sweep: u32, _frontier_empty: bool, any_update: bool) -> SweepControl {
        if any_update {
            SweepControl::Continue
        } else {
            SweepControl::Done
        }
    }

    fn on_mutation(&mut self, _store: &GraphStore, outcome: &MutationOutcome) -> Vec<u64> {
        // Labels are already a fixpoint of the old topology, so only the
        // rewritten and freshly-allocated pages can start new propagation:
        // seed exactly those. Min-label propagation is monotone, so if the
        // restricted sweep updates anything the engine falls back to full
        // sweeps until the new fixpoint; if it updates nothing, the old
        // labels were already correct. (Deletions never *raise* labels —
        // a split component keeps its old minimum; documented in
        // DESIGN.md §12.)
        outcome
            .dirty_pids
            .iter()
            .chain(&outcome.new_pids)
            .copied()
            .collect()
    }

    fn save_state(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_seq(&self.label);
        w.into_bytes()
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), CkptError> {
        let mut r = ByteReader::new(bytes);
        state::load(&mut r, "cc.label", &mut self.label)?;
        r.finish()
    }
}
