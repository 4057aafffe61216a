//! Core graph types: vertex identifiers and edge lists.

/// Logical vertex identifier.
///
/// The paper's *generalised* slotted page format addresses up to
/// trillion-scale graphs with 6-byte physical IDs (Sec. 6.1); the reduced
/// scale of this reproduction (see `DESIGN.md`) never exceeds `u32::MAX`
/// vertices in memory, so attribute vectors use `u32` indices while the
/// storage format itself supports wider IDs.
pub type VertexId = u32;

/// Sentinel for "no vertex" / unreachable.
pub const INVALID_VERTEX: VertexId = VertexId::MAX;

/// A directed multigraph as a list of `(src, dst)` pairs.
///
/// Self-loops and duplicate edges are allowed (RMAT produces both); builders
/// that need deduplication do it explicitly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeList {
    /// Number of vertices; all edge endpoints are `< num_vertices`.
    pub num_vertices: VertexId,
    /// Directed edges.
    pub edges: Vec<(VertexId, VertexId)>,
}

impl EdgeList {
    /// Create an edge list, validating that all endpoints are in range.
    ///
    /// # Panics
    /// Panics if any endpoint is `>= num_vertices`; malformed graphs are a
    /// programming error in this workspace, not an input condition.
    pub fn new(num_vertices: VertexId, edges: Vec<(VertexId, VertexId)>) -> Self {
        for &(s, d) in &edges {
            assert!(
                s < num_vertices && d < num_vertices,
                "edge ({s},{d}) out of range for {num_vertices} vertices"
            );
        }
        EdgeList {
            num_vertices,
            edges,
        }
    }

    /// Number of directed edges (counting duplicates).
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Edges-per-vertex density, the x-axis of the paper's Fig. 14.
    pub fn density(&self) -> f64 {
        if self.num_vertices == 0 {
            0.0
        } else {
            self.edges.len() as f64 / self.num_vertices as f64
        }
    }

    /// A deterministic positive weight for each edge, used by SSSP.
    ///
    /// The paper's datasets are unweighted; its SSSP experiments (Appendix D)
    /// therefore need synthetic weights. Deriving them by hashing the edge
    /// endpoints makes every representation of the same graph agree on the
    /// weight of each edge without storing a weight array.
    pub fn edge_weight(src: VertexId, dst: VertexId) -> u32 {
        // SplitMix64 finalizer over the packed endpoints: cheap, well mixed.
        let packed = (src as u64) << 32 | dst as u64;
        let z = gts_sim::rng::mix64(packed.wrapping_add(0x9E3779B97F4A7C15));
        // Weights in [1, 64]: small enough that path sums stay far from
        // overflow, varied enough that shortest paths differ from hop counts.
        (z % 64) as u32 + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_accepts_valid_edges() {
        let g = EdgeList::new(3, vec![(0, 1), (1, 2), (2, 0), (1, 1)]);
        assert_eq!(g.num_edges(), 4);
        assert!((g.density() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn new_rejects_out_of_range() {
        let _ = EdgeList::new(2, vec![(0, 2)]);
    }

    #[test]
    fn empty_graph_density_is_zero() {
        let g = EdgeList::new(0, vec![]);
        assert_eq!(g.density(), 0.0);
    }

    #[test]
    fn weights_are_deterministic_and_positive() {
        for s in 0..50u32 {
            for d in 0..50u32 {
                let w = EdgeList::edge_weight(s, d);
                assert!((1..=64).contains(&w));
                assert_eq!(w, EdgeList::edge_weight(s, d));
            }
        }
        // Direction matters.
        assert_ne!(
            (0..100)
                .map(|i| EdgeList::edge_weight(i, i + 1))
                .sum::<u32>(),
            (0..100)
                .map(|i| EdgeList::edge_weight(i + 1, i))
                .sum::<u32>()
        );
    }
}
