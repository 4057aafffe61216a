//! Deterministic graph generators.
//!
//! The paper's synthetic datasets are RMAT graphs (Sec. 7.1, "we generate
//! scale-free graphs following a power law degree distribution by using
//! RMAT", edge factor 16). [`Rmat`] reproduces that recursive-matrix process
//! with the Graph500 partition probabilities; [`erdos_renyi`] gives uniform
//! random graphs for cache-hit-rate baselines (the paper's Sec. 3.3 naive
//! cache model assumes random graphs); [`web_like`] builds high-diameter
//! web-shaped graphs used by the YahooWeb look-alike.

use crate::types::{EdgeList, VertexId};
use gts_sim::Rng;

/// RMAT (Recursive MATrix) generator configuration.
///
/// `scale` gives `2^scale` vertices; `edge_factor` edges are drawn per
/// vertex. Defaults follow Graph500 / the paper: (a,b,c,d) =
/// (0.57, 0.19, 0.19, 0.05) and edge factor 16.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rmat {
    /// log2 of the number of vertices.
    pub scale: u32,
    /// Edges generated per vertex (the paper fixes 16; Fig. 14 sweeps 4..32).
    pub edge_factor: u32,
    /// Probability of recursing into the top-left quadrant.
    pub a: f64,
    /// Probability of the top-right quadrant.
    pub b: f64,
    /// Probability of the bottom-left quadrant.
    pub c: f64,
    /// RNG seed; same seed, same graph.
    pub seed: u64,
}

impl Rmat {
    /// Paper-default parameters at the given scale.
    pub fn new(scale: u32) -> Self {
        Rmat {
            scale,
            edge_factor: 16,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            seed: 0x6715_2016,
        }
    }

    /// Override the edge factor (density sweep of Fig. 14).
    pub fn with_edge_factor(mut self, f: u32) -> Self {
        self.edge_factor = f;
        self
    }

    /// Override the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generate the edge list.
    pub fn generate(&self) -> EdgeList {
        assert!(self.scale < 32, "in-memory reproduction caps at scale 31");
        let n: u64 = 1u64 << self.scale;
        let m = n * self.edge_factor as u64;
        let mut rng = Rng::seed_from_u64(self.seed);
        let (a, b, c) = (self.a, self.b, self.c);
        let ab = a + b;
        let abc = a + b + c;
        let mut edges = Vec::with_capacity(m as usize);
        for _ in 0..m {
            let (mut src, mut dst) = (0u64, 0u64);
            for bit in (0..self.scale).rev() {
                let r: f64 = rng.f64();
                // Pick quadrant: a | b over c | d.
                let (si, di) = if r < a {
                    (0, 0)
                } else if r < ab {
                    (0, 1)
                } else if r < abc {
                    (1, 0)
                } else {
                    (1, 1)
                };
                src |= si << bit;
                dst |= di << bit;
            }
            edges.push((src as VertexId, dst as VertexId));
        }
        EdgeList::new(n as VertexId, edges)
    }
}

/// Convenience: RMAT at `scale` with paper defaults.
pub fn rmat(scale: u32) -> EdgeList {
    Rmat::new(scale).generate()
}

/// Uniform random directed graph with `n` vertices and `m` edges
/// (Erdős–Rényi G(n, m) with replacement).
pub fn erdos_renyi(n: VertexId, m: usize, seed: u64) -> EdgeList {
    assert!(n > 0, "Erdős–Rényi needs at least one vertex");
    let mut rng = Rng::seed_from_u64(seed);
    let edges = (0..m)
        .map(|_| (rng.below_u32(n), rng.below_u32(n)))
        .collect();
    EdgeList::new(n, edges)
}

/// A high-diameter "web-like" graph: a chain of `communities` dense
/// clusters, each of `community_size` vertices, with sparse forward links
/// between consecutive communities.
///
/// Web crawls such as YahooWeb have a far higher diameter than social
/// networks (the paper's Sec. 8 notes X-Stream struggles exactly because
/// YahooWeb has "a high diameter"); this generator reproduces that shape so
/// BFS-like experiments show many shallow levels.
pub fn web_like(communities: u32, community_size: u32, intra_degree: u32, seed: u64) -> EdgeList {
    assert!(communities > 0 && community_size > 1);
    let n = communities * community_size;
    let mut rng = Rng::seed_from_u64(seed);
    let mut edges = Vec::new();
    for c in 0..communities {
        let base = c * community_size;
        // Dense-ish intra-community random links.
        for v in 0..community_size {
            for _ in 0..intra_degree {
                edges.push((base + v, base + rng.below_u32(community_size)));
            }
        }
        // A handful of bridges to the next community keeps diameter ~O(chain).
        if c + 1 < communities {
            let next = base + community_size;
            for _ in 0..2 {
                edges.push((
                    base + rng.below_u32(community_size),
                    next + rng.below_u32(community_size),
                ));
            }
        }
    }
    EdgeList::new(n, edges)
}

/// Barabási–Albert preferential attachment: each new vertex attaches `m`
/// edges to existing vertices with probability proportional to their
/// current degree. Produces power-law graphs with a different tail shape
/// than RMAT (useful for generator-sensitivity checks).
pub fn preferential_attachment(n: VertexId, m: u32, seed: u64) -> EdgeList {
    assert!(n >= 2 && m >= 1, "need n >= 2 and m >= 1");
    let mut rng = Rng::seed_from_u64(seed);
    let mut edges: Vec<(VertexId, VertexId)> = Vec::with_capacity(n as usize * m as usize);
    // Repeated-endpoint sampling implements degree-proportional choice.
    let mut endpoints: Vec<VertexId> = vec![0, 1];
    edges.push((1, 0));
    for v in 2..n {
        for _ in 0..m {
            let target = endpoints[rng.below_usize(endpoints.len())];
            edges.push((v, target));
            endpoints.push(v);
            endpoints.push(target);
        }
    }
    EdgeList::new(n, edges)
}

/// A 2-D grid with bidirectional edges — the road-network shape: uniform
/// low degree (≤ 4) and very high diameter, the opposite extreme from
/// RMAT's power law. A classic SSSP stress workload.
pub fn grid(width: u32, height: u32) -> EdgeList {
    assert!(width >= 1 && height >= 1);
    let n = width
        .checked_mul(height)
        .expect("grid dimensions overflow u32");
    let mut edges = Vec::with_capacity(4 * n as usize);
    for y in 0..height {
        for x in 0..width {
            let v = y * width + x;
            if x + 1 < width {
                edges.push((v, v + 1));
                edges.push((v + 1, v));
            }
            if y + 1 < height {
                edges.push((v, v + width));
                edges.push((v + width, v));
            }
        }
    }
    EdgeList::new(n, edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::Csr;
    use crate::stats::degree_stats;

    #[test]
    fn rmat_is_deterministic() {
        let a = Rmat::new(8).generate();
        let b = Rmat::new(8).generate();
        assert_eq!(a, b);
        let c = Rmat::new(8).with_seed(1).generate();
        assert_ne!(a, c);
    }

    #[test]
    fn rmat_sizes_follow_scale_and_factor() {
        let g = Rmat::new(10).with_edge_factor(8).generate();
        assert_eq!(g.num_vertices, 1 << 10);
        assert_eq!(g.num_edges(), (1 << 10) * 8);
    }

    #[test]
    fn rmat_degree_distribution_is_skewed() {
        let g = Rmat::new(12).generate();
        let csr = Csr::from_edge_list(&g);
        let st = degree_stats(&csr);
        // Power-law: the max degree dwarfs the mean (16).
        assert!(
            st.max_out_degree > 10 * st.mean_out_degree as u64,
            "max {} vs mean {}",
            st.max_out_degree,
            st.mean_out_degree
        );
    }

    #[test]
    fn erdos_renyi_shape() {
        let g = erdos_renyi(100, 500, 7);
        assert_eq!(g.num_vertices, 100);
        assert_eq!(g.num_edges(), 500);
        // Uniform graphs are not skewed: max degree stays near the mean.
        let st = degree_stats(&Csr::from_edge_list(&g));
        assert!(st.max_out_degree < 6 * st.mean_out_degree.ceil() as u64);
    }

    #[test]
    fn web_like_has_long_bfs_frontier_chain() {
        let g = web_like(32, 16, 4, 3);
        let csr = Csr::from_edge_list(&g);
        let levels = crate::reference::bfs(&csr, 0);
        let depth = levels
            .iter()
            .filter(|&&l| l != u32::MAX)
            .max()
            .copied()
            .unwrap();
        assert!(depth >= 30, "chain of communities ⇒ deep BFS, got {depth}");
    }

    #[test]
    #[should_panic(expected = "at least one vertex")]
    fn erdos_renyi_rejects_empty() {
        let _ = erdos_renyi(0, 1, 0);
    }

    #[test]
    fn preferential_attachment_is_skewed_and_connected() {
        let g = preferential_attachment(2000, 3, 9);
        assert_eq!(g.num_vertices, 2000);
        // Every vertex after the seed pair contributes m edges.
        assert_eq!(g.num_edges(), 1 + 1998 * 3);
        let csr = Csr::from_edge_list(&g).symmetrize();
        let st = degree_stats(&csr);
        assert!(st.max_out_degree as f64 > 10.0 * st.mean_out_degree);
        // Attachment always targets existing vertices: one weak component.
        let cc = crate::reference::connected_components(&csr);
        assert!(cc.iter().all(|&l| l == 0));
    }

    #[test]
    fn grid_shape_and_diameter() {
        let g = grid(30, 10);
        assert_eq!(g.num_vertices, 300);
        // 2 directed edges per interior adjacency.
        assert_eq!(g.num_edges(), 2 * (29 * 10 + 30 * 9));
        let csr = Csr::from_edge_list(&g);
        let lv = crate::reference::bfs(&csr, 0);
        let depth = *lv.iter().max().unwrap();
        assert_eq!(depth, 29 + 9, "Manhattan diameter from the corner");
        let st = degree_stats(&csr);
        assert!(st.max_out_degree <= 4, "road networks have bounded degree");
    }

    #[test]
    fn degenerate_grids() {
        assert_eq!(grid(1, 1).num_edges(), 0);
        assert_eq!(grid(5, 1).num_edges(), 8); // a path, both directions
    }
}
