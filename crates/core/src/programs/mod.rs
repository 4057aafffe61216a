//! Vertex programs: the user-level side of the GTS framework.
//!
//! A [`GtsProgram`] supplies what the paper calls the user-defined GPU
//! kernels `K_SP` and `K_LP` (Algorithm 1 takes both because Small and
//! Large pages have slightly different structure). What the engine must
//! know before running it — the WA/RA layout to place in device memory,
//! the kernel class and the iteration mode — is the program's
//! [`Algorithm`] row in [`ALGORITHMS`], declared once beside its kernels.
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

use gts_ckpt::CkptError;
use gts_exec::FixedVec;
use gts_gpu::timer::KernelClass;
use gts_gpu::warp::MicroTechnique;
use gts_storage::builder::GraphStore;
use gts_storage::page::{AdjRun, PageView};
use gts_storage::rvt::Rvt;
use gts_storage::{MutationOutcome, PageKind};

/// One row of [`ALGORITHMS`]: a program's static facts, declared once
/// as the program's associated `ALGORITHM` const. Front ends name it by
/// the row, the engine sizes and prices it by the row, and the
/// baselines report under the row ([`GtsProgram::algorithm`]).
pub struct Algorithm {
    /// The name `gts run` and workload `job=` lines use.
    pub name: &'static str,
    /// The algorithm's name in reports and snapshots.
    pub report_name: &'static str,
    /// Device-resident read/write (WA) bytes per vertex (Sec. 3.1,
    /// Table 4): what must stay on the GPU while topology streams.
    pub wa_bytes_per_vertex: u64,
    /// Read-only (RA) bytes per vertex, streamed with each page (Sec.
    /// 3.1): the previous sweep's vector of a PageRank-like program.
    pub ra_bytes_per_vertex: u64,
    /// Kernel cost class: traversal kernels are memory-bound,
    /// PageRank-like ones compute-bound (Table 1's premise).
    pub class: KernelClass,
    /// How the framework iterates the program (Sec. 3.3).
    pub mode: ExecMode,
    build: fn(n: u64, source: u64, iterations: u32, k: u32) -> Box<dyn GtsProgram>,
}

/// The programs GTS hosts, each entry the program's own `ALGORITHM`. The
/// CLI's `gts run <name>`, its help text, and serve's `job=<name>` all
/// read this table. Each takes what it needs of `(source, iterations, k)`.
pub const ALGORITHMS: &[Algorithm] = &[
    Bfs::ALGORITHM,
    PageRank::ALGORITHM,
    Sssp::ALGORITHM,
    Cc::ALGORITHM,
    Bc::ALGORITHM,
    Rwr::ALGORITHM,
    Degrees::ALGORITHM,
    KCore::ALGORITHM,
    RadiusEstimation::ALGORITHM,
];

/// Why [`by_name`] refused to build a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// The name is not in [`ALGORITHMS`].
    UnknownAlgorithm {
        /// The name as given.
        name: String,
    },
    /// The source vertex does not exist in the graph.
    SourceOutOfRange {
        /// The requested source.
        source: u64,
        /// The graph's vertex count.
        vertices: u64,
    },
    /// Zero iterations were asked for.
    ZeroIterations,
}

impl std::fmt::Display for ProgramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProgramError::UnknownAlgorithm { name } => write!(f, "unknown algorithm {name:?}"),
            ProgramError::SourceOutOfRange { source, vertices } => {
                write!(f, "source {source} out of range ({vertices} vertices)")
            }
            ProgramError::ZeroIterations => write!(f, "iterations must be >= 1"),
        }
    }
}

impl std::error::Error for ProgramError {}

/// The [`ALGORITHMS`] row called `name`.
pub fn find(name: &str) -> Result<&'static Algorithm, ProgramError> {
    ALGORITHMS
        .iter()
        .find(|a| a.name == name)
        .ok_or_else(|| ProgramError::UnknownAlgorithm {
            name: name.to_string(),
        })
}

/// Reject the parameters a program constructor would `assert!` on, for
/// a graph of `n` vertices. The same bounds hold for every algorithm,
/// whether or not it reads the parameter.
pub fn check_params(n: u64, source: u64, iterations: u32) -> Result<(), ProgramError> {
    if source >= n {
        return Err(ProgramError::SourceOutOfRange {
            source,
            vertices: n,
        });
    }
    if iterations == 0 {
        return Err(ProgramError::ZeroIterations);
    }
    Ok(())
}

/// Build the program called `name` for a graph of `n` vertices.
pub fn by_name(
    name: &str,
    n: u64,
    source: u64,
    iterations: u32,
    k: u32,
) -> Result<Box<dyn GtsProgram>, ProgramError> {
    let algorithm = find(name)?;
    check_params(n, source, iterations)?;
    Ok((algorithm.build)(n, source, iterations, k))
}

/// Highest-scoring vertex (NaN-safe via total order); `None` on empty.
fn argmax(scores: &[f32]) -> Option<(usize, f32)> {
    scores
        .iter()
        .copied()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(&b.1))
}

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

/// Reusable per-job scratch so kernels stay allocation-free on the hot
/// path: the calling thread's, which owns one more per pool worker.
#[derive(Default)]
pub struct KernelScratch {
    /// Out-degrees of the page's *active* vertices, fed to the warp model.
    pub degrees: Vec<u32>,
    /// Page IDs marked for the next level (the local `nextPIDSet_GPU`).
    /// `run_page_kernels` takes the buffer after every page, as that
    /// page's `PageOutcome::next_pids`, so each page that marks pages
    /// allocates its own; keeping one buffer across pages measured no
    /// faster.
    pub next_pids: Vec<u64>,
    /// A pool worker's private scatter lane, one integer slot per vertex
    /// (the paper's per-GPU WA copy, Sec. 4.1). All-zero outside
    /// `run_page_kernels`, which folds it into the program
    /// ([`GtsProgram::absorb`]) before returning.
    pub lane: Vec<u64>,
    /// The pool workers' scratches, kept across phases and sweeps. Empty
    /// on the serial path, which has no lane.
    pub workers: Vec<KernelScratch>,
}

impl KernelScratch {
    /// Clear the per-page buffers, keeping capacity (and the lane).
    pub fn reset(&mut self) {
        self.degrees.clear();
        self.next_pids.clear();
    }

    /// Grow the lane to at least `n` zeroed slots.
    pub fn size_lane(&mut self, n: usize) {
        if self.lane.len() < n {
            self.lane.resize(n, 0);
        }
    }
}

/// What one kernel invocation did, for timing and frontier bookkeeping.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PageWork {
    /// Warp lane-slots consumed (drives simulated kernel duration).
    pub lane_slots: u64,
    /// Device-memory updates that are `atomicAdd`/CAS on hardware.
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

/// A graph algorithm expressed against the GTS streaming framework. Its
/// static facts — report name, WA/RA bytes per vertex, kernel class and
/// iteration mode — live in its [`Algorithm`] row, not here.
pub trait GtsProgram {
    /// This program's row of [`ALGORITHMS`].
    fn algorithm(&self) -> &'static Algorithm;

    /// Iteration style: the row's.
    fn mode(&self) -> ExecMode {
        self.algorithm().mode
    }

    /// For traversal programs: the vertex whose page seeds `nextPIDSet`
    /// (Algorithm 1 line 5). `None` for sweep programs.
    fn start_vertex(&self) -> Option<u64> {
        None
    }

    /// The finished run's result in one line — what `gts run` prints
    /// after `result:`. Empty by default.
    fn summary(&self) -> String {
        String::new()
    }

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
    /// pages included). The empty default means "no incremental seeds":
    /// a sweep-mode program then gets a full re-sweep, which is sound
    /// because every sweep re-reads every vertex. A traversal-mode
    /// program does not: its plan after the batch is only the pending
    /// frontier plus these seeds, so an edge inserted out of an
    /// already-settled vertex is never followed unless the program
    /// re-activates that vertex here (as `Bfs` and `Sssp` do), or
    /// restarts and seeds its start page (as `Bc` does).
    fn on_mutation(&mut self, _store: &GraphStore, _outcome: &MutationOutcome) -> Vec<u64> {
        Vec::new()
    }

    /// The shared-state form of the kernel, if this program supports
    /// executing pages concurrently on host threads. Returning `Some`
    /// asserts that every WA update the kernel performs is an exact integer
    /// addition — the final state is a pure function of the multiset of
    /// updates, independent of page order and of which worker made them —
    /// which is the property the paper relies on for device-side atomics.
    /// Programs whose accounting depends on claim order (the CAS-based
    /// traversal family) return `None` and run serially.
    fn shared_kernel(&self) -> Option<&dyn SharedKernel> {
        None
    }

    /// Fold what one pool worker's [`SharedKernel`] calls left in
    /// `worker.lane` into this program and zero the lane
    /// (`gts_exec::fold_lane`); `run_page_kernels` calls it per worker, in
    /// worker-index order, before it returns. Default: nothing to fold.
    fn absorb(&mut self, _worker: &mut KernelScratch) {}
}

/// A kernel whose page invocations may run concurrently (`&self`, `Sync`).
/// The contract is **read `&self`, write only your scratch**: WA updates
/// are wrapping integer adds into `scratch.lane` and reach the program
/// through [`GtsProgram::absorb`]; workers share nothing, so none is atomic.
///
/// Implementors must guarantee `process_page_shared` + `absorb` is
/// observationally identical to [`GtsProgram::process_page`] — the engine
/// picks between them based on `host_threads`, and reports/traces must not
/// change.
pub trait SharedKernel: Sync {
    /// Process one streamed page; see [`GtsProgram::process_page`].
    fn process_page_shared(&self, ctx: &PageCtx<'_>, scratch: &mut KernelScratch) -> PageWork;
}

/// The reading half of [`GtsProgram::save_state`] /
/// [`GtsProgram::load_state`] blobs. Every vector is a
/// [`ByteWriter::put_seq`](gts_ckpt::ByteWriter::put_seq) sequence and, on
/// load, checked against the freshly-constructed vector's length — so
/// resuming a snapshot against a different graph fails with a typed
/// [`CkptError::Mismatch`] instead of scribbling over the wrong vertices.
pub(crate) mod state {
    use gts_ckpt::codec::Scalar;
    use gts_ckpt::{ByteReader, CkptError};

    pub(crate) fn load<T: Scalar>(
        r: &mut ByteReader<'_>,
        what: &'static str,
        into: &mut Vec<T>,
    ) -> Result<(), CkptError> {
        let got = r.take_seq::<T>(what)?;
        if got.len() != into.len() {
            return Err(CkptError::Mismatch {
                what,
                want: into.len() as u64,
                got: got.len() as u64,
            });
        }
        *into = got;
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
pub(crate) fn visit_page<'a, F>(view: PageView<'a>, mut f: F)
where
    F: FnMut(u64, u32, PageKind, AdjRun<'a>),
{
    match view.kind() {
        PageKind::Small => {
            for (vid, rids) in view.sp_vertices() {
                f(vid, rids.len() as u32, PageKind::Small, rids);
            }
        }
        PageKind::Large => {
            let rids = view.lp_adj_run();
            f(view.lp_vid(), rids.len() as u32, PageKind::Large, rids)
        }
    }
}

/// The rank scatter PageRank and RWR share (`K_PR_SP` / `K_PR_LP`, App.
/// B.2): every vertex adds `factor * prev[v] / ADJLIST_SZ`, in 2^-52 fixed
/// point, to each out-neighbour's slot of `lane` — the program's own
/// accumulator on the serial path, the worker's lane on the pool. The
/// hardware's `atomicAdd` (Algorithm 4 line 16) is a wrapping add: nobody
/// else writes `lane`, and integer sums do not depend on their order.
pub(crate) fn scatter_page(
    ctx: &PageCtx<'_>,
    prev: &[f32],
    factor: f32,
    degrees: &mut Vec<u32>,
    lane: &mut [u64],
) -> PageWork {
    degrees.clear();
    let mut work = PageWork::default();
    visit_page(ctx.view, |vid, len, kind, rids| {
        degrees.push(len);
        work.active_vertices += 1;
        // K_PR_LP divides by the vertex's total ADJLIST_SZ across all
        // chunks, not this chunk's count (Algorithm 5 line 7).
        let total_degree = match kind {
            PageKind::Small => len as u64,
            PageKind::Large => ctx.lp_total_degree,
        };
        if total_degree == 0 {
            return;
        }
        let share = factor * prev[vid as usize] / total_degree as f32;
        let share = FixedVec::to_fixed(share as f64);
        for rid in rids {
            let slot = &mut lane[ctx.rvt.translate(rid) as usize];
            *slot = slot.wrapping_add(share);
        }
        work.active_edges += len as u64;
        work.atomic_ops += len as u64;
        work.updated = true;
    });
    work.lane_slots = ctx.technique.lane_slots(degrees);
    work
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::GtsConfig;
    use crate::job::{Engine, JobOptions};
    use gts_graph::generate::rmat;
    use gts_storage::{build_graph_store, PageFormatConfig, PhysicalIdConfig};

    /// The `result:` line of `gts run <name> --store <RMAT8, 4 KiB pages>`
    /// with the default `source 0, iterations 10, k 2`.
    #[test]
    fn summaries_are_pinned_for_all_nine_programs() {
        let store = build_graph_store(
            &rmat(8),
            PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 4096),
        )
        .unwrap();
        let want = [
            "218 vertices reached from 0",
            "top vertex 0 (score 0.084741)",
            "218 vertices reachable from 0",
            "22 weakly connected components",
            "most central vertex 8 (bc 10.1)",
            "closest to 0: 0:0.2480 1:0.0318 4:0.0307 8:0.0301",
            "max out-degree 454",
            "2-core has 209 vertices",
            "estimated radius Some(1), diameter 3",
        ];
        assert_eq!(ALGORITHMS.len(), want.len());
        for (alg, want) in ALGORITHMS.iter().zip(want) {
            let mut prog = by_name(alg.name, store.num_vertices(), 0, 10, 2).unwrap();
            Engine::new(GtsConfig::default())
                .unwrap()
                .run_job(&store, &mut *prog, &JobOptions::default())
                .unwrap();
            assert_eq!(prog.summary(), want, "{}", alg.name);
        }
    }

    /// `visit_page` hands kernels exactly the edges the store holds: per
    /// vertex the run, its reported length and the per-index accessors
    /// agree, and all pages together are `decode_edges`.
    #[test]
    fn visit_page_reports_what_decode_edges_implies() {
        for page_size in [1024, 4096] {
            let store = build_graph_store(
                &rmat(8),
                PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, page_size),
            )
            .unwrap();
            // Only the 1 KiB pages are too small for the top vertex (454 edges).
            assert_eq!(store.large_pids().is_empty(), page_size == 4096);
            let mut edges = Vec::new();
            for pid in 0..store.num_pages() {
                let view = store.view(pid);
                let mut slot = 0;
                visit_page(view, |vid, len, kind, rids| {
                    assert_eq!(kind, view.kind());
                    assert_eq!(len as usize, rids.len());
                    for (i, rid) in rids.enumerate() {
                        let at = match kind {
                            PageKind::Small => view.sp_adj(slot, i as u32),
                            PageKind::Large => view.lp_adj(i as u32),
                        };
                        assert_eq!(rid, at);
                        edges.push((vid, store.rvt().translate(rid)));
                    }
                    slot += 1;
                });
                let vertices = match view.kind() {
                    PageKind::Small => view.count(),
                    PageKind::Large => 1,
                };
                assert_eq!(slot, vertices);
            }
            edges.sort_unstable();
            assert_eq!(edges, store.decode_edges());
        }
    }

    /// Every row's layout, class and mode (Table 4 for the paper's five;
    /// RWR and radius stream the previous sweep's vector as RA).
    #[test]
    fn rows_declare_layout_class_and_mode() {
        use ExecMode::{Sweep, Traversal as Trav};
        use KernelClass::{Compute, Traversal};
        let want = [
            ("bfs", 2, 0, Traversal, Trav),
            ("pagerank", 4, 4, Compute, Sweep),
            ("sssp", 4, 0, Traversal, Trav),
            ("cc", 8, 0, Traversal, Sweep),
            ("bc", 14, 0, Traversal, Trav),
            ("rwr", 4, 4, Compute, Sweep),
            ("degrees", 4, 0, Traversal, Sweep),
            ("kcore", 4, 0, Traversal, Sweep),
            ("radius", 8, 8, Compute, Sweep),
        ];
        assert_eq!(ALGORITHMS.len(), want.len());
        for (alg, (name, wa, ra, class, mode)) in ALGORITHMS.iter().zip(want) {
            assert_eq!(alg.name, name);
            let got = (alg.wa_bytes_per_vertex, alg.ra_bytes_per_vertex);
            assert_eq!(got, (wa, ra), "{name}");
            assert_eq!((alg.class, alg.mode), (class, mode), "{name}");
        }
    }

    /// RMAT28 (Table 4): 256M vertices, 20 GB topology. WA is a small
    /// fraction of topology, 1.7 %–10 % per the paper's Sec. 7.1.
    #[test]
    fn table4_ratios_hold_at_paper_scale() {
        let v: u64 = 256 * 1024 * 1024;
        let topology: u64 = 20 * (1 << 30);
        for alg in [
            Bfs::ALGORITHM,
            PageRank::ALGORITHM,
            Sssp::ALGORITHM,
            Cc::ALGORITHM,
        ] {
            let ratio = (alg.wa_bytes_per_vertex * v) as f64 / topology as f64;
            assert!(ratio < 0.11, "{} WA ratio {ratio}", alg.name);
        }
    }

    /// Table 4's RMAT28 row: BFS 0.5 GB, PageRank 1 GB, SSSP 1 GB, CC 2 GB
    /// for 256M vertices.
    #[test]
    fn paper_table4_absolute_sizes() {
        let v: u64 = 256 * 1024 * 1024;
        let wa = |alg: Algorithm| alg.wa_bytes_per_vertex * v;
        assert_eq!(wa(Bfs::ALGORITHM), 512 << 20);
        assert_eq!(wa(PageRank::ALGORITHM), 1 << 30);
        assert_eq!(wa(Sssp::ALGORITHM), 1 << 30);
        assert_eq!(wa(Cc::ALGORITHM), 2 << 30);
    }

    #[test]
    fn registry_builds_every_name_and_types_its_refusals() {
        for alg in ALGORITHMS {
            let prog = by_name(alg.name, 16, 15, 1, 2).unwrap();
            // Wired to its own row, not another program's.
            assert_eq!(prog.algorithm().name, alg.name);
            assert_eq!(find(alg.name).unwrap().name, alg.name);
        }
        let err = |name, n, source, iterations| {
            by_name(name, n, source, iterations, 2)
                .err()
                .expect("must be refused")
        };
        assert_eq!(
            err("frobnicate", 16, 0, 1),
            ProgramError::UnknownAlgorithm {
                name: "frobnicate".into()
            }
        );
        assert_eq!(
            err("frobnicate", 16, 0, 1).to_string(),
            "unknown algorithm \"frobnicate\""
        );
        // The bounds hold for every algorithm, not just those that would
        // reach a constructor `assert!`.
        for alg in ALGORITHMS {
            assert_eq!(
                err(alg.name, 16, 16, 1),
                ProgramError::SourceOutOfRange {
                    source: 16,
                    vertices: 16
                }
            );
            assert_eq!(err(alg.name, 16, 0, 0), ProgramError::ZeroIterations);
        }
    }
}
