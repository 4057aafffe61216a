//! Vertex programs: the user-level side of the GTS framework.
//!
//! A [`GtsProgram`] supplies what the paper calls the user-defined GPU
//! kernels `K_SP` and `K_LP` (Algorithm 1 takes both because Small and
//! Large pages have slightly different structure), plus the WA/RA layout
//! the engine must place in device memory.
//!
//! ## Execution semantics of the kernels
//!
//! On real hardware each kernel runs on thousands of GPU threads with
//! atomic updates (`atomicAdd`, compare-and-swap on LV — Appendix B). All
//! of those updates are commutative and idempotent-per-claim, so applying
//! them sequentially on the host produces bit-identical WA state; the
//! parallel-hardware *cost* is accounted separately through
//! [`PageWork::lane_slots`] / [`PageWork::atomic_ops`] feeding the
//! warp-level duration model in `gts-gpu`. This functional/timed split is
//! the core of the simulation substitution (DESIGN.md §1).

mod bc;
mod bfs;
mod cc;
mod degrees;
mod kcore;
mod pagerank;
mod radius;
mod rwr;
mod sssp;

pub use bc::Bc;
pub use bfs::Bfs;
pub use cc::Cc;
pub use degrees::Degrees;
pub use kcore::KCore;
pub use pagerank::PageRank;
pub use radius::RadiusEstimation;
pub use rwr::Rwr;
pub use sssp::Sssp;

use crate::attrs::AlgorithmKind;
use gts_ckpt::CkptError;
use gts_gpu::timer::KernelClass;
use gts_gpu::warp::MicroTechnique;
use gts_storage::builder::GraphStore;
use gts_storage::page::PageView;
use gts_storage::rvt::Rvt;
use gts_storage::{MutationOutcome, PageKind, RecordId};

/// Everything a kernel sees when invoked on one streamed page.
pub struct PageCtx<'a> {
    /// Decoded view of the page in SPBuf/LPBuf.
    pub view: PageView<'a>,
    /// The global page ID (Algorithm 1's `j`).
    pub pid: u64,
    /// The RVT translation table (Appendix A).
    pub rvt: &'a Rvt,
    /// Micro-level parallel technique in effect (Sec. 6.2).
    pub technique: MicroTechnique,
    /// Current sweep: the traversal level for BFS-like programs, the
    /// iteration number for sweep programs.
    pub sweep: u32,
    /// For Large Pages: the vertex's *total* degree across all its chunks
    /// (the `v.ADJLIST_SZ` of Appendix B's K_PR_LP). Zero for Small Pages.
    pub lp_total_degree: u64,
}

/// Reusable per-engine scratch buffers so kernels stay allocation-free on
/// the hot path.
#[derive(Default)]
pub struct KernelScratch {
    /// Out-degrees of the page's *active* vertices, fed to the warp model.
    pub degrees: Vec<u32>,
    /// Page IDs marked for the next level (the local `nextPIDSet_GPU`);
    /// the engine drains this after each kernel, so the buffer is reused
    /// across pages without reallocating.
    pub next_pids: Vec<u64>,
}

impl KernelScratch {
    /// Clear both buffers, keeping capacity.
    pub fn reset(&mut self) {
        self.degrees.clear();
        self.next_pids.clear();
    }
}

/// What one kernel invocation did, for timing and frontier bookkeeping.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PageWork {
    /// Warp lane-slots consumed (drives simulated kernel duration).
    pub lane_slots: u64,
    /// Atomic device-memory updates performed.
    pub atomic_ops: u64,
    /// Vertices that did work in this page.
    pub active_vertices: u64,
    /// Edges traversed.
    pub active_edges: u64,
    /// Whether any WA entry changed.
    pub updated: bool,
}

/// How the framework iterates a program (Sec. 3.3's two algorithm types).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// BFS-like: level-by-level, streaming only `nextPIDSet` pages.
    Traversal,
    /// PageRank-like: every sweep streams the entire topology once.
    Sweep,
}

/// Program's verdict at the end of a sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepControl {
    /// Algorithm converged / finished.
    Done,
    /// Run another sweep (next frontier for traversal, all pages for sweep
    /// programs).
    Continue,
    /// Run another sweep over exactly these pages (used by BC's backward
    /// phase, which replays the forward levels in reverse).
    ContinueWith(Vec<u64>),
}

/// A graph algorithm expressed against the GTS streaming framework.
pub trait GtsProgram {
    /// Which WA/RA layout class this program uses (drives device-memory
    /// accounting via [`AlgorithmKind`]).
    fn kind(&self) -> AlgorithmKind;

    /// Human-readable algorithm name for reports. Defaults to the layout
    /// class's name; programs that merely *reuse* another algorithm's
    /// layout (RWR, degree distribution, ...) override it.
    fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// Device-resident (WA) bytes per vertex; defaults to the layout
    /// class's.
    fn wa_bytes_per_vertex(&self) -> u64 {
        self.kind().wa_bytes_per_vertex()
    }

    /// Streamed read-only (RA) bytes per vertex; defaults to the layout
    /// class's. Programs with their own streamed vector (e.g. radius
    /// estimation's previous-sweep sketches) override it.
    fn ra_bytes_per_vertex(&self) -> u64 {
        self.kind().ra_bytes_per_vertex()
    }

    /// Kernel cost class (traversal kernels are memory-bound, PageRank-like
    /// kernels compute-bound — Table 1's premise).
    fn class(&self) -> KernelClass;

    /// Iteration style.
    fn mode(&self) -> ExecMode;

    /// For traversal programs: the vertex whose page seeds `nextPIDSet`
    /// (Algorithm 1 line 5).
    fn start_vertex(&self) -> Option<u64>;

    /// The kernel: process one streamed page (K_SP or K_LP depending on
    /// `ctx.view.kind()`), updating WA state and reporting work done.
    fn process_page(&mut self, ctx: &PageCtx<'_>, scratch: &mut KernelScratch) -> PageWork;

    /// End-of-sweep callback (Algorithm 1 line 31's loop condition).
    /// `frontier_empty` is whether any page was marked for the next level;
    /// `any_update` whether any kernel changed WA this sweep.
    fn end_sweep(&mut self, sweep: u32, frontier_empty: bool, any_update: bool) -> SweepControl;

    /// Serialize the program's mutable state as of a sweep boundary (the
    /// top of the engine loop, where per-sweep accumulators are freshly
    /// cleared — PageRank's fixed-point scatter sums, SSSP's next
    /// frontier, ...). The engine embeds the blob in checkpoint
    /// snapshots; [`GtsProgram::load_state`] must reconstruct the exact
    /// same state in a freshly-constructed program. The empty default
    /// means "nothing beyond the constructed state".
    fn save_state(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Restore a blob produced by [`GtsProgram::save_state`] into a
    /// program freshly constructed with the *same* arguments (graph size,
    /// source vertex, iteration budget, ...).
    ///
    /// # Errors
    /// [`CkptError`] when the blob is truncated, carries trailing bytes,
    /// or belongs to a differently-sized graph.
    fn load_state(&mut self, bytes: &[u8]) -> Result<(), CkptError> {
        if bytes.is_empty() {
            Ok(())
        } else {
            Err(CkptError::Corrupt {
                reason: "program does not carry checkpoint state".to_string(),
            })
        }
    }

    /// Notification that a mutation batch was applied at a sweep boundary:
    /// `outcome.dirty_pids` were rewritten in place and `outcome.new_pids`
    /// are freshly-allocated delta pages (`store` already reflects the new
    /// topology). Programs that can continue *incrementally* re-activate
    /// the affected vertices in their own state and return the pages to
    /// seed the next sweep with; the engine widens those seeds through
    /// [`crate::sweep::plan::SweepPlan::from_marked`] (LP runs and delta
    /// pages included). The empty default means "no incremental seeds" —
    /// the engine falls back to a full re-sweep, which is always sound.
    fn on_mutation(&mut self, _store: &GraphStore, _outcome: &MutationOutcome) -> Vec<u64> {
        Vec::new()
    }

    /// The shared-state form of the kernel, if this program supports
    /// executing pages concurrently on host threads. Returning `Some`
    /// asserts that every WA update the kernel performs is *atomically
    /// commutative* — the final state is a pure function of the multiset of
    /// updates, independent of page order and interleaving — which is
    /// exactly the property the paper relies on for device-side atomics.
    /// Programs whose accounting depends on claim order (the CAS-based
    /// traversal family) return `None` and run serially.
    fn shared_kernel(&self) -> Option<&dyn SharedKernel> {
        None
    }
}

/// A kernel whose page invocations may run concurrently (`&self`, `Sync`)
/// because all of its shared-state updates commute exactly (atomic integer
/// adds, fixed-point accumulators, atomic min over order-preserving bits).
///
/// Implementors must guarantee `process_page_shared` is observationally
/// identical to [`GtsProgram::process_page`] — the engine picks between
/// them based on `host_threads`, and reports/traces must not change.
pub trait SharedKernel: Sync {
    /// Process one streamed page; see [`GtsProgram::process_page`].
    fn process_page_shared(&self, ctx: &PageCtx<'_>, scratch: &mut KernelScratch) -> PageWork;
}

/// Helpers for [`GtsProgram::save_state`] / [`GtsProgram::load_state`]
/// blobs. Every vector is length-prefixed and, on load, checked against
/// the freshly-constructed vector's length — so resuming a snapshot
/// against a different graph fails with a typed [`CkptError::Mismatch`]
/// instead of scribbling over the wrong vertices.
pub(crate) mod state {
    use gts_ckpt::{ByteReader, ByteWriter, CkptError};

    fn check_len(what: &'static str, want: usize, got: u64) -> Result<(), CkptError> {
        if got == want as u64 {
            Ok(())
        } else {
            Err(CkptError::Mismatch {
                what,
                want: want as u64,
                got,
            })
        }
    }

    pub(crate) fn put_u16s(w: &mut ByteWriter, v: &[u16]) {
        w.put_u64(v.len() as u64);
        for &x in v {
            w.put_u16(x);
        }
    }

    pub(crate) fn load_u16s(
        r: &mut ByteReader<'_>,
        what: &'static str,
        into: &mut [u16],
    ) -> Result<(), CkptError> {
        check_len(what, into.len(), r.take_u64(what)?)?;
        for slot in into {
            *slot = r.take_u16(what)?;
        }
        Ok(())
    }

    pub(crate) fn put_u32s(w: &mut ByteWriter, v: &[u32]) {
        w.put_u64(v.len() as u64);
        for &x in v {
            w.put_u32(x);
        }
    }

    pub(crate) fn load_u32s(
        r: &mut ByteReader<'_>,
        what: &'static str,
        into: &mut [u32],
    ) -> Result<(), CkptError> {
        check_len(what, into.len(), r.take_u64(what)?)?;
        for slot in into {
            *slot = r.take_u32(what)?;
        }
        Ok(())
    }

    pub(crate) fn put_u64s(w: &mut ByteWriter, v: &[u64]) {
        w.put_u64(v.len() as u64);
        for &x in v {
            w.put_u64(x);
        }
    }

    pub(crate) fn load_u64s(
        r: &mut ByteReader<'_>,
        what: &'static str,
        into: &mut [u64],
    ) -> Result<(), CkptError> {
        check_len(what, into.len(), r.take_u64(what)?)?;
        for slot in into {
            *slot = r.take_u64(what)?;
        }
        Ok(())
    }

    pub(crate) fn put_f32s(w: &mut ByteWriter, v: &[f32]) {
        w.put_u64(v.len() as u64);
        for &x in v {
            w.put_f32(x);
        }
    }

    pub(crate) fn load_f32s(
        r: &mut ByteReader<'_>,
        what: &'static str,
        into: &mut [f32],
    ) -> Result<(), CkptError> {
        check_len(what, into.len(), r.take_u64(what)?)?;
        for slot in into {
            *slot = r.take_f32(what)?;
        }
        Ok(())
    }

    pub(crate) fn put_bools(w: &mut ByteWriter, v: &[bool]) {
        w.put_u64(v.len() as u64);
        for &x in v {
            w.put_bool(x);
        }
    }

    pub(crate) fn load_bools(
        r: &mut ByteReader<'_>,
        what: &'static str,
        into: &mut [bool],
    ) -> Result<(), CkptError> {
        check_len(what, into.len(), r.take_u64(what)?)?;
        for slot in into {
            *slot = r.take_bool(what)?;
        }
        Ok(())
    }
}

/// Drive a kernel over one page's vertices: `f(vid, len, kind, rids)` is
/// called once per Small-Page slot, or once for a Large-Page chunk's
/// single vertex (`len` is then the *chunk* length — programs that need
/// the vertex's total degree read [`PageCtx::lp_total_degree`]).
///
/// This is the K_SP/K_LP dispatch every program shares; keeping it in one
/// place keeps the per-page bookkeeping conventions (degree pushes,
/// active-vertex counting) from drifting across the nine kernels.
pub(crate) fn visit_page<F>(view: PageView<'_>, mut f: F)
where
    F: FnMut(u64, u32, PageKind, &mut dyn Iterator<Item = RecordId>),
{
    match view.kind() {
        PageKind::Small => {
            for slot in 0..view.count() {
                let vid = view.sp_vid(slot);
                let len = view.sp_adj_len(slot);
                let mut rids = (0..len).map(|i| view.sp_adj(slot, i));
                f(vid, len, PageKind::Small, &mut rids);
            }
        }
        PageKind::Large => {
            let vid = view.lp_vid();
            let len = view.count();
            let mut rids = (0..len).map(|i| view.lp_adj(i));
            f(vid, len, PageKind::Large, &mut rids);
        }
    }
}
