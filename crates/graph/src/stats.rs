//! Degree statistics and dataset summaries (Table 3 of the paper reports
//! #vertices, #edges and page counts per dataset; the page counts come from
//! `gts-storage`, the rest from here).

use crate::csr::Csr;

/// Summary statistics of a directed graph's out-degree distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeStats {
    /// Number of vertices.
    pub num_vertices: u64,
    /// Number of directed edges.
    pub num_edges: u64,
    /// Mean out-degree (the paper's "density", #edges / #vertices).
    pub mean_out_degree: f64,
    /// Largest out-degree (drives Large Page counts).
    pub max_out_degree: u64,
    /// Number of vertices with zero out-degree (PageRank dangling mass).
    pub zero_out_degree: u64,
}

/// Compute [`DegreeStats`] for a CSR graph in one serial O(V) pass.
pub fn degree_stats(g: &Csr) -> DegreeStats {
    let n = g.num_vertices() as u64;
    let (mut max_d, mut zeros) = (0u64, 0u64);
    for v in 0..g.num_vertices() {
        let d = g.out_degree(v);
        max_d = max_d.max(d);
        zeros += (d == 0) as u64;
    }
    DegreeStats {
        num_vertices: n,
        num_edges: g.num_edges() as u64,
        // An empty graph has no edges either: 0 / 1.
        mean_out_degree: g.num_edges() as f64 / n.max(1) as f64,
        max_out_degree: max_d,
        zero_out_degree: zeros,
    }
}

/// Out-degree histogram in power-of-two buckets: `hist[i]` counts vertices
/// with out-degree in `[2^i, 2^(i+1))`; bucket 0 holds degree 0 and 1.
/// One O(V) pass, like [`degree_stats`].
pub fn degree_histogram(g: &Csr) -> Vec<u64> {
    let mut hist = vec![0u64; 33];
    for v in 0..g.num_vertices() {
        // floor(log2 d), with degree 0 sharing bucket 0 with degree 1.
        let bucket = 63 - (g.out_degree(v) | 1).leading_zeros() as usize;
        hist[bucket.min(32)] += 1;
    }
    while hist.len() > 1 && *hist.last().unwrap() == 0 {
        hist.pop();
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::EdgeList;

    #[test]
    fn stats_on_small_graph() {
        // 0 -> {1,2,3}, 1 -> {2}, 2,3 have no out-edges.
        let g = Csr::from_edge_list(&EdgeList::new(4, vec![(0, 1), (0, 2), (0, 3), (1, 2)]));
        let s = degree_stats(&g);
        assert_eq!(s.num_vertices, 4);
        assert_eq!(s.num_edges, 4);
        assert_eq!(s.max_out_degree, 3);
        assert_eq!(s.zero_out_degree, 2);
        assert!((s.mean_out_degree - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_buckets() {
        let edges = (0..8).map(|i| (0u32, i as u32 % 4)).collect::<Vec<_>>();
        let g = Csr::from_edge_list(&EdgeList::new(4, edges));
        let h = degree_histogram(&g);
        // Vertex 0 has degree 8 → bucket 3 ([8,16)); others degree 0 → bucket 0.
        assert_eq!(h[0], 3);
        assert_eq!(h[3], 1);
    }

    #[test]
    fn empty_graph() {
        let g = Csr::from_edge_list(&EdgeList::new(0, vec![]));
        let s = degree_stats(&g);
        assert_eq!(s.num_vertices, 0);
        assert_eq!(s.mean_out_degree, 0.0);
    }
}
