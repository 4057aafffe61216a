//! Shared functional drivers for the baseline engines.
//!
//! Every baseline in the paper's evaluation runs one of two iteration
//! shapes: *min-propagation* (BFS, SSSP, CC — a value spreads along edges
//! and targets keep the minimum) or *sum-propagation* (PageRank). The
//! engines differ in **where** the work happens and **what it costs**, not
//! in the algorithm itself. This module executes the algorithm once,
//! partitioned by an engine-supplied [`Placement`], and records a
//! per-sweep, per-partition load trace; each engine's cost model turns
//! that trace into simulated time (see [`crate::report`]).

/// Work observed on one partition (cluster node, CPU/GPU side, …) during
/// one sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeLoad {
    /// Vertices that computed.
    pub active_vertices: u64,
    /// Out-edges they processed.
    pub edges: u64,
    /// Messages arriving at this partition.
    pub msgs_in: u64,
    /// Messages arriving from *other* partitions (network traffic).
    pub remote_msgs_in: u64,
}

/// Loads of all partitions for one sweep.
#[derive(Debug, Clone, Default)]
pub struct SweepLoads {
    /// One entry per partition.
    pub nodes: Vec<NodeLoad>,
}

impl SweepLoads {
    fn new(n: usize) -> Self {
        SweepLoads {
            nodes: vec![NodeLoad::default(); n],
        }
    }

    /// Total edges processed this sweep.
    pub fn total_edges(&self) -> u64 {
        self.nodes.iter().map(|n| n.edges).sum()
    }

    /// Total active vertices this sweep.
    pub fn total_active(&self) -> u64 {
        self.nodes.iter().map(|n| n.active_vertices).sum()
    }

    /// Total remote messages this sweep.
    pub fn total_remote_msgs(&self) -> u64 {
        self.nodes.iter().map(|n| n.remote_msgs_in).sum()
    }
}

/// Full execution trace: the final per-vertex values plus per-sweep loads.
#[derive(Debug, Clone)]
pub struct PropagationTrace {
    /// Final per-vertex values (levels, distances, labels, or ranks).
    pub values: Vec<f64>,
    /// One entry per executed sweep.
    pub sweeps: Vec<SweepLoads>,
}

use gts_exec::ThreadPool;
use gts_graph::Csr;

/// Unreached/unset marker for min-propagation.
pub const UNSET: f64 = f64::INFINITY;

/// Run min-propagation over `g` with an explicit host-thread count.
///
/// * `source = Some(s)` starts with only `s` active at value 0 (BFS/SSSP);
///   `None` starts every vertex active at value `v` (CC label propagation —
///   pass a symmetrised graph for weakly connected components).
/// * `edge_val(v, w, x)` is the candidate value arriving at `w` along edge
///   `v→w` when `v` holds `x` (BFS: `x + 1`; SSSP: `x + weight`; CC: `x`).
///   Candidates must be non-negative (sign bit clear): a sweep takes
///   minima of their IEEE-754 bit patterns, which order exactly like the
///   numbers on `[0, +inf]`.
/// * `placement` places each vertex for load accounting.
///
/// Each worker takes the minima of the candidates it sends into a dense
/// lane of its own (`u64::MAX`, above every candidate, is "none"),
/// allocated when its first active vertex sends; the lanes are min-folded
/// into the values in worker order. Every thread
/// count produces the same trace: `min` is commutative (and bit-exact on
/// f64 bits), a vertex is active next sweep exactly when its folded value
/// is strictly below its old one (not depending on the order candidates
/// land), and per-worker load shards merge with integer addition.
pub fn min_propagation_threads(
    g: &Csr,
    source: Option<u32>,
    edge_val: impl Fn(u32, u32, f64) -> f64 + Sync,
    placement: Placement,
    threads: usize,
) -> PropagationTrace {
    let pool = ThreadPool::new(threads);
    let n = g.num_vertices() as usize;
    let mut values;
    let mut active;
    match source {
        Some(s) => {
            values = vec![UNSET; n];
            values[s as usize] = 0.0;
            active = vec![false; n];
            active[s as usize] = true;
        }
        None => {
            values = (0..n).map(|v| v as f64).collect();
            active = vec![true; n];
        }
    }
    let mut sweeps = Vec::new();
    loop {
        // Synchronous (BSP) semantics: all sends read this superstep's
        // values, all receives land in the lanes — in-place updates would
        // let a value hop through many vertices in one superstep and
        // undercount the supersteps/messages the accountants price.
        let shards = pool.par_ranges(
            n,
            4096,
            || (SweepLoads::new(placement.parts()), Vec::new()),
            |(loads, lane), r| {
                for v in r {
                    if !active[v] {
                        continue;
                    }
                    if lane.is_empty() {
                        lane.resize(n, u64::MAX);
                    }
                    let v = v as u32;
                    let pv = placement.of(v);
                    loads.nodes[pv].active_vertices += 1;
                    let x = values[v as usize];
                    for &w in g.neighbors(v) {
                        loads.nodes[pv].edges += 1;
                        let cand = edge_val(v, w, x);
                        debug_assert!(
                            cand.to_bits() >> 63 == 0,
                            "min_propagation candidates must be non-negative"
                        );
                        let pw = placement.of(w);
                        loads.nodes[pw].msgs_in += 1;
                        if pw != pv {
                            loads.nodes[pw].remote_msgs_in += 1;
                        }
                        let slot = &mut lane[w as usize];
                        *slot = (*slot).min(cand.to_bits());
                    }
                }
            },
        );
        let mut loads = SweepLoads::new(placement.parts());
        let mut next_active = vec![false; n];
        for (shard, lane) in shards {
            for (slot, s) in loads.nodes.iter_mut().zip(shard.nodes) {
                slot.active_vertices += s.active_vertices;
                slot.edges += s.edges;
                slot.msgs_in += s.msgs_in;
                slot.remote_msgs_in += s.remote_msgs_in;
            }
            // The running value only falls, so "some lane beat it" is
            // "the folded value is below the old one".
            for ((x, on), cand) in values.iter_mut().zip(&mut next_active).zip(lane) {
                if cand < x.to_bits() {
                    *x = f64::from_bits(cand);
                    *on = true;
                }
            }
        }
        sweeps.push(loads);
        if !next_active.contains(&true) {
            break;
        }
        active = next_active;
    }
    PropagationTrace { values, sweeps }
}

/// Run `iterations` of PageRank (damping `df`) with the paper's kernel
/// semantics (no dangling redistribution), recording per-sweep loads.
///
/// Deliberately serial: floating-point sums do not commute, and the ranks
/// are pinned bit-for-bit (within 1e-12) to the sequential
/// `gts_graph::reference::pagerank`, so the accumulation order must stay
/// exactly the reference's. Host parallelism with exact results lives in
/// the engine path (`gts_core`), which accumulates in fixed point.
pub fn pagerank_propagation(
    g: &Csr,
    df: f64,
    iterations: u32,
    placement: Placement,
) -> PropagationTrace {
    let n = g.num_vertices() as usize;
    let mut prev = vec![1.0 / n as f64; n];
    let mut sweeps = Vec::new();
    for _ in 0..iterations {
        let mut loads = SweepLoads::new(placement.parts());
        let mut next = vec![(1.0 - df) / n as f64; n];
        for v in 0..g.num_vertices() {
            let pv = placement.of(v);
            loads.nodes[pv].active_vertices += 1;
            let deg = g.out_degree(v);
            if deg == 0 {
                continue;
            }
            let share = df * prev[v as usize] / deg as f64;
            for &w in g.neighbors(v) {
                loads.nodes[pv].edges += 1;
                let pw = placement.of(w);
                loads.nodes[pw].msgs_in += 1;
                if pw != pv {
                    loads.nodes[pw].remote_msgs_in += 1;
                }
                next[w as usize] += share;
            }
        }
        sweeps.push(loads);
        prev = next;
    }
    PropagationTrace {
        values: prev,
        sweeps,
    }
}

/// Where each vertex's work is accounted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Everything on one partition (shared-memory engines).
    Single,
    /// Hash partitioning over `n` nodes (what Pregel-family systems use).
    Hash(usize),
    /// Two-way split at a vertex boundary (TOTEM's GPU/CPU partition:
    /// vertices below the split on partition 0 = GPU, the rest on CPU).
    TwoWay(u32),
}

impl Placement {
    /// Number of partitions.
    pub(crate) fn parts(self) -> usize {
        match self {
            Placement::Single => 1,
            Placement::Hash(n) => n,
            Placement::TwoWay(_) => 2,
        }
    }

    /// Partition of vertex `v`.
    pub(crate) fn of(self, v: u32) -> usize {
        match self {
            Placement::Single => 0,
            Placement::Hash(n) => v as usize % n,
            Placement::TwoWay(split) => usize::from(v >= split),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gts_graph::generate::rmat;
    use gts_graph::{reference, Csr, EdgeList};

    fn csr(scale: u32) -> Csr {
        Csr::from_edge_list(&rmat(scale))
    }

    #[test]
    fn min_propagation_reproduces_bfs() {
        let g = csr(8);
        let t = min_propagation_threads(&g, Some(0), |_, _, x| x + 1.0, Placement::Hash(4), 2);
        let want = reference::bfs(&g, 0);
        for (v, &lvl) in want.iter().enumerate() {
            if lvl == u32::MAX {
                assert_eq!(t.values[v], UNSET);
            } else {
                assert_eq!(t.values[v], lvl as f64);
            }
        }
    }

    #[test]
    fn min_propagation_reproduces_sssp() {
        let g = csr(7);
        let t = min_propagation_threads(
            &g,
            Some(0),
            |v, w, x| x + EdgeList::edge_weight(v, w) as f64,
            Placement::Single,
            2,
        );
        let want = reference::sssp(&g, 0);
        for (v, &d) in want.iter().enumerate() {
            if d == u32::MAX {
                assert_eq!(t.values[v], UNSET);
            } else {
                assert_eq!(t.values[v], d as f64);
            }
        }
    }

    #[test]
    fn min_propagation_reproduces_cc_on_symmetrized() {
        let g = csr(7).symmetrize();
        let t = min_propagation_threads(&g, None, |_, _, x| x, Placement::Hash(3), 2);
        let want = reference::connected_components(&g);
        for (v, &label) in want.iter().enumerate() {
            assert_eq!(t.values[v], label as f64);
        }
    }

    #[test]
    fn pagerank_propagation_matches_reference() {
        let g = csr(7);
        let t = pagerank_propagation(&g, 0.85, 5, Placement::Single);
        let want = reference::pagerank(&g, 0.85, 5);
        for (got, want) in t.values.iter().zip(&want) {
            assert!((got - want).abs() < 1e-12);
        }
    }

    #[test]
    fn loads_account_every_edge_for_pagerank() {
        let g = csr(7);
        let t = pagerank_propagation(&g, 0.85, 3, Placement::Hash(4));
        assert_eq!(t.sweeps.len(), 3);
        for s in &t.sweeps {
            assert_eq!(s.total_edges(), g.num_edges() as u64);
        }
    }

    #[test]
    fn remote_messages_vanish_on_single_partition() {
        let g = csr(6);
        let t = min_propagation_threads(&g, Some(0), |_, _, x| x + 1.0, Placement::Single, 2);
        for s in &t.sweeps {
            assert_eq!(s.total_remote_msgs(), 0);
        }
    }

    #[test]
    fn min_propagation_is_thread_count_independent() {
        // Values, activation frontier, and every per-sweep/per-partition
        // load cell must match the serial run exactly for any pool size.
        let g = csr(10);
        let serial = min_propagation_threads(
            &g,
            Some(0),
            |v, w, x| x + EdgeList::edge_weight(v, w) as f64,
            Placement::Hash(4),
            1,
        );
        for threads in [2, 4, 8] {
            let par = min_propagation_threads(
                &g,
                Some(0),
                |v, w, x| x + EdgeList::edge_weight(v, w) as f64,
                Placement::Hash(4),
                threads,
            );
            assert_eq!(par.values, serial.values, "threads={threads}");
            assert_eq!(par.sweeps.len(), serial.sweeps.len(), "threads={threads}");
            for (a, b) in par.sweeps.iter().zip(&serial.sweeps) {
                assert_eq!(a.nodes, b.nodes, "threads={threads}");
            }
        }
    }

    #[test]
    fn two_way_placement_splits_at_boundary() {
        let p = Placement::TwoWay(10);
        assert_eq!(p.of(9), 0);
        assert_eq!(p.of(10), 1);
        assert_eq!(p.parts(), 2);
    }
}
