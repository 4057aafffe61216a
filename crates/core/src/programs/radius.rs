//! Radius estimation — the HADI-style neighbourhood-function sketch, one
//! of the PageRank-like (whole-graph sweep) algorithms the paper lists in
//! Sec. 3.3 ("radius estimations").
//!
//! Every vertex carries a reachability sketch. Each sweep ORs each
//! vertex's sketch with its out-neighbours' sketches, so after `h` sweeps
//! the sketch of `v` summarises the set of vertices reachable from `v`
//! within `h` hops. A vertex's *estimated eccentricity* is the last sweep
//! at which its sketch changed; sweeping until no sketch changes yields
//! every vertex's estimate plus the graph's (out-)radius and effective
//! diameter.
//!
//! Sketches are 64-bit. For graphs of ≤ 64 vertices the sketch is the
//! exact reachability bitset (used by the tests to validate against exact
//! eccentricities); for larger graphs it is a Flajolet–Martin register
//! (the hash's trailing-zero count sets one bit), trading exactness for
//! constant space, exactly as HADI does.

use super::{
    state, visit_page, Algorithm, ExecMode, GtsProgram, InOrderKernel, Kernel, KernelScratch,
    PageCtx, PageWork, SweepControl,
};
use gts_ckpt::{ByteReader, ByteWriter, CkptError};
use gts_gpu::timer::KernelClass;

/// Radius-estimation vertex program.
///
/// Double-buffered like PageRank: the previous sweep's sketches play the
/// read-only (streamed) role and the current sweep's the device-resident
/// one, which keeps the propagation level-synchronous — after `h` sweeps a
/// sketch summarises exactly the ≤ h-hop neighbourhood, so `last_change`
/// is the (estimated) eccentricity.
pub struct RadiusEstimation {
    /// RA role: sketches as of the previous sweep.
    prev: Vec<u64>,
    /// WA role: sketches being built this sweep.
    cur: Vec<u64>,
    /// Last sweep (1-based) at which each vertex's sketch grew.
    last_change: Vec<u16>,
    changed: bool,
    exact: bool,
}

impl RadiusEstimation {
    /// This program's row of [`super::ALGORITHMS`].
    pub const ALGORITHM: Algorithm = Algorithm {
        name: "radius",
        report_name: "RadiusEstimation",
        // WA: one 8-byte sketch per vertex; RA: the previous sweep's
        // sketches, streamed like PageRank's prevPR.
        wa_bytes_per_vertex: 8,
        ra_bytes_per_vertex: 8,
        class: KernelClass::Compute,
        mode: ExecMode::Sweep,
        reads: &[],
        build: |n, _, _, _| Box::new(Self::new(n)),
    };

    /// Prepare for `num_vertices`. Sketches are exact bitsets when the
    /// graph has at most 64 vertices, FM registers otherwise.
    pub fn new(num_vertices: u64) -> Self {
        let exact = num_vertices <= 64;
        let mask = (0..num_vertices)
            .map(|v| if exact { 1u64 << v } else { 1u64 << fm_bit(v) })
            .collect();
        let mask: Vec<u64> = mask;
        RadiusEstimation {
            cur: mask.clone(),
            prev: mask,
            last_change: vec![0; num_vertices as usize],
            changed: false,
            exact,
        }
    }

    /// Estimated out-eccentricity per vertex (exact for ≤ 64 vertices).
    pub fn eccentricities(&self) -> &[u16] {
        &self.last_change
    }

    /// Estimated radius: the smallest eccentricity among vertices that can
    /// reach anything (eccentricity 0 vertices reach nothing and are
    /// excluded, matching the usual convention for digraph radius over
    /// non-trivial vertices). `None` for edgeless graphs.
    pub fn radius(&self) -> Option<u16> {
        self.last_change.iter().copied().filter(|&e| e > 0).min()
    }

    /// Estimated (out-)diameter: the largest eccentricity.
    pub fn diameter(&self) -> u16 {
        self.last_change.iter().copied().max().unwrap_or(0)
    }

    /// Whether sketches are exact bitsets.
    pub fn is_exact(&self) -> bool {
        self.exact
    }
}

/// Flajolet–Martin register bit for a vertex: trailing zeros of a mixed
/// hash, capped to keep the register in range.
fn fm_bit(v: u64) -> u32 {
    gts_sim::rng::mix64(v.wrapping_add(0x9E3779B97F4A7C15))
        .trailing_zeros()
        .min(63)
}

impl GtsProgram for RadiusEstimation {
    fn algorithm(&self) -> &'static Algorithm {
        &Self::ALGORITHM
    }

    fn summary(&self) -> String {
        format!(
            "estimated radius {:?}, diameter {}{}",
            self.radius(),
            self.diameter(),
            if self.is_exact() { " (exact)" } else { "" }
        )
    }

    fn kernel(&mut self) -> Kernel<'_> {
        Kernel::InOrder(self)
    }

    fn end_sweep(&mut self, _sweep: u32, _frontier_empty: bool, _any_update: bool) -> SweepControl {
        std::mem::swap(&mut self.prev, &mut self.cur);
        if self.changed {
            self.changed = false;
            SweepControl::Continue
        } else {
            SweepControl::Done
        }
    }

    fn save_state(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_seq(&self.prev);
        w.put_seq(&self.cur);
        w.put_seq(&self.last_change);
        w.put_bool(self.changed);
        w.into_bytes()
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), CkptError> {
        let mut r = ByteReader::new(bytes);
        state::load(&mut r, "radius.prev", &mut self.prev)?;
        state::load(&mut r, "radius.cur", &mut self.cur)?;
        state::load(&mut r, "radius.last_change", &mut self.last_change)?;
        self.changed = r.take_bool("radius.changed")?;
        r.finish()
    }
}

impl InOrderKernel for RadiusEstimation {
    fn process_page(&mut self, ctx: &PageCtx<'_>, scratch: &mut KernelScratch) -> PageWork {
        scratch.reset();
        let mut work = PageWork::default();
        let sweep = ctx.sweep as u16 + 1;
        visit_page(ctx.view, |vid, len, _kind, rids| {
            scratch.degrees.push(len);
            work.active_vertices += 1;
            // Pull strictly from the previous sweep's sketches, so one
            // sweep advances exactly one hop (synchronous semantics).
            let mut acc = self.prev[vid as usize];
            for rid in rids {
                work.active_edges += 1;
                work.atomic_ops += 1;
                acc |= self.prev[ctx.rvt.translate(rid) as usize];
            }
            // OR-merge rather than assign: a multi-chunk Large-Page vertex
            // is visited once per chunk and each chunk contributes a
            // different adjacency subset. (Sketches only grow, and the
            // stale value left in `cur` from two sweeps ago is a subset of
            // `prev`, so the merge is exact.)
            self.cur[vid as usize] |= acc;
            if self.cur[vid as usize] != self.prev[vid as usize] {
                self.last_change[vid as usize] = sweep;
                self.changed = true;
                work.updated = true;
            }
        });
        work.lane_slots = ctx.technique.lane_slots(&scratch.degrees);
        work
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::GtsConfig;
    use crate::job::{Engine, JobOptions};
    use gts_graph::generate::rmat;
    use gts_graph::{reference, Csr, EdgeList};
    use gts_storage::{build_graph_store, PageFormatConfig, PhysicalIdConfig};

    fn run(graph: &EdgeList) -> RadiusEstimation {
        let store = build_graph_store(
            graph,
            PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 512),
        )
        .unwrap();
        let mut r = RadiusEstimation::new(store.num_vertices());
        Engine::new(GtsConfig::default())
            .unwrap()
            .run_job(&store, &mut r, &JobOptions::default())
            .unwrap();
        r
    }

    /// Exact out-eccentricity via BFS (finite distances only).
    fn ecc(csr: &Csr, v: u32) -> u16 {
        reference::bfs(csr, v)
            .iter()
            .filter(|&&l| l != u32::MAX)
            .max()
            .copied()
            .unwrap() as u16
    }

    #[test]
    fn exact_mode_matches_bfs_eccentricities() {
        // 60 vertices: exact-bitset mode.
        let graph = EdgeList::new(
            60,
            (0..59u32)
                .map(|i| (i, i + 1))
                .chain([(59, 0), (0, 30)])
                .collect(),
        );
        let csr = Csr::from_edge_list(&graph);
        let r = run(&graph);
        assert!(r.is_exact());
        for v in 0..60u32 {
            assert_eq!(r.eccentricities()[v as usize], ecc(&csr, v), "vertex {v}");
        }
        assert_eq!(
            r.radius().unwrap(),
            (0..60).map(|v| ecc(&csr, v)).min().unwrap()
        );
        assert_eq!(r.diameter(), (0..60).map(|v| ecc(&csr, v)).max().unwrap());
    }

    #[test]
    fn estimates_are_lower_bounded_by_nothing_and_upper_bounded_by_ecc() {
        // FM mode on a bigger graph: sketch saturation can only *stop
        // early*, so the estimate never exceeds the true eccentricity.
        let graph = rmat(9);
        let csr = Csr::from_edge_list(&graph);
        let r = run(&graph);
        assert!(!r.is_exact());
        for v in (0..graph.num_vertices).step_by(37) {
            assert!(r.eccentricities()[v as usize] <= ecc(&csr, v), "vertex {v}");
        }
    }

    #[test]
    fn isolated_vertices_have_zero_eccentricity() {
        let graph = EdgeList::new(10, vec![(0, 1)]);
        let r = run(&graph);
        assert_eq!(r.eccentricities()[5], 0);
        assert_eq!(r.eccentricities()[0], 1);
        assert_eq!(r.radius(), Some(1));
    }

    #[test]
    fn edgeless_graph_has_no_radius() {
        let r = run(&EdgeList::new(8, vec![]));
        assert_eq!(r.radius(), None);
        assert_eq!(r.diameter(), 0);
    }

    #[test]
    fn multi_chunk_hub_merges_all_chunks() {
        // A hub with 60 out-edges at page_size 512 spans several LP chunks
        // in exact-bitset mode (62 vertices <= 64): its sketch must union
        // every chunk's contribution, giving the true eccentricity.
        let mut edges: Vec<(u32, u32)> = (1..=60).map(|i| (0, i)).collect();
        edges.push((60, 61)); // one vertex two hops out
        let graph = EdgeList::new(62, edges);
        let store = build_graph_store(
            &graph,
            PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 128),
        )
        .unwrap();
        assert!(store.large_pids().len() > 1, "hub must span chunks");
        let mut r = RadiusEstimation::new(store.num_vertices());
        Engine::new(GtsConfig::default())
            .unwrap()
            .run_job(&store, &mut r, &JobOptions::default())
            .unwrap();
        assert!(r.is_exact());
        let csr = Csr::from_edge_list(&graph);
        for v in 0..62u32 {
            assert_eq!(r.eccentricities()[v as usize], ecc(&csr, v), "vertex {v}");
        }
    }

    #[test]
    fn deep_chain_has_large_diameter_estimate() {
        let n = 3000u32;
        let graph = EdgeList::new(n, (0..n - 1).map(|i| (i, i + 1)).collect());
        let r = run(&graph);
        // FM collisions shrink the estimate, but a 3000-hop chain must
        // still register a deep diameter.
        assert!(r.diameter() > 100, "diameter estimate {}", r.diameter());
    }
}
