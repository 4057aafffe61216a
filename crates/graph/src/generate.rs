//! Deterministic graph generators.
//!
//! The paper's synthetic datasets are RMAT graphs (Sec. 7.1, "we generate
//! scale-free graphs following a power law degree distribution by using
//! RMAT", edge factor 16). [`Rmat`] reproduces that recursive-matrix process
//! with the Graph500 partition probabilities; [`erdos_renyi`] gives uniform
//! random graphs for cache-hit-rate baselines (the paper's Sec. 3.3 naive
//! cache model assumes random graphs); [`web_like`] builds high-diameter
//! web-shaped graphs used by the YahooWeb look-alike.
//!
//! Every experiment and benchmark input is an RMAT edge list, so RMAT's
//! output is pinned byte for byte (`tests/pinned_generators.rs`). Its cost
//! is the xoshiro stream: one draw per level, one level per bit of the
//! vertex ID, on one serial stream; the quadrant pick around each draw is
//! a few integer compares.

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
    ///
    /// Each of the `scale` levels of an edge draws `k = next_u64() >> 11`
    /// and picks a quadrant by comparing `r = k · 2^-53` (the exact value
    /// `Rng::f64` returns) against the cumulative probabilities `a`,
    /// `a + b`, `a + b + c`. The comparisons run on integers and the pick
    /// has no branch (`quadrant`); the edge list is bit for bit the one
    /// the `f64` if-chain gives. A level appends its quadrant's two bits to
    /// the Morton code of `(src, dst)`, which is split once per edge.
    pub fn generate(&self) -> EdgeList {
        assert!(self.scale < 32, "in-memory reproduction caps at scale 31");
        let n: u64 = 1u64 << self.scale;
        let m = n * self.edge_factor as u64;
        let mut rng = Rng::seed_from_u64(self.seed);
        let th = thresholds(self.a, self.b, self.c);
        let mut edges = Vec::with_capacity(m as usize);
        for _ in 0..m {
            let mut z = 0u64;
            for _ in 0..self.scale {
                z = (z << 2) | quadrant(rng.next_u64() >> 11, th);
            }
            edges.push((even_bits(z >> 1), even_bits(z)));
        }
        EdgeList::new(n as VertexId, edges)
    }
}

/// The integer form of `r < t` for an exact draw `r = k · 2^-53`,
/// `k < 2^53`: `k < threshold(t)` holds exactly when `r < t` does. Scaling
/// by a power of two is exact and an integer is below a real exactly when
/// it is below its ceiling; the cast sends NaN and negatives to 0 (never
/// true, as `r < t` is not) and saturates `t ≥ 1` above every `k`.
fn threshold(t: f64) -> u64 {
    (t * (1u64 << 53) as f64).ceil() as u64
}

/// The thresholds of `a`, `a + b` and `a + b + c`, clamped to be
/// non-decreasing: a draw below an earlier one has already picked its
/// quadrant, whatever the later ones say.
fn thresholds(a: f64, b: f64, c: f64) -> [u64; 3] {
    let t_a = threshold(a);
    let t_ab = threshold(a + b).max(t_a);
    [t_a, t_ab, threshold(a + b + c).max(t_ab)]
}

/// The quadrant of draw `k`, 0..=3 for a | b over c | d: the number of the
/// non-decreasing thresholds `k` reaches. Its high bit is the row (c, d)
/// and its low bit the column (b, d).
#[inline]
fn quadrant(k: u64, [t_a, t_ab, t_abc]: [u64; 3]) -> u64 {
    (k >= t_a) as u64 + (k >= t_ab) as u64 + (k >= t_abc) as u64
}

/// Bits 0, 2, 4, … of `z` packed into bits 0, 1, 2, … (one coordinate of a
/// Morton code).
#[inline]
fn even_bits(z: u64) -> VertexId {
    let mut x = z & 0x5555_5555_5555_5555;
    x = (x | (x >> 1)) & 0x3333_3333_3333_3333;
    x = (x | (x >> 2)) & 0x0f0f_0f0f_0f0f_0f0f;
    x = (x | (x >> 4)) & 0x00ff_00ff_00ff_00ff;
    x = (x | (x >> 8)) & 0x0000_ffff_0000_ffff;
    ((x | (x >> 16)) & 0xffff_ffff) as VertexId
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
    use proptest::prelude::*;

    /// `r < t` for the draw `r = k · 2^-53`, computed as `Rng::f64` does.
    fn below(k: u64, t: f64) -> bool {
        (k as f64) * (1.0 / (1u64 << 53) as f64) < t
    }

    /// The quadrant the `f64` if-chain picks for draw `k`.
    fn quadrant_by_floats(k: u64, a: f64, b: f64, c: f64) -> u64 {
        if below(k, a) {
            0
        } else if below(k, a + b) {
            1
        } else if below(k, a + b + c) {
            2
        } else {
            3
        }
    }

    /// `k < threshold(t)` ⟺ `r < t` at `k` = 0, 1, the threshold and its
    /// neighbours, the largest draw, and `extra`.
    fn check_threshold(t: f64, extra: u64) {
        let th = threshold(t);
        let ks = [
            0,
            1,
            th.wrapping_sub(1),
            th,
            th.wrapping_add(1),
            (1 << 53) - 1,
            extra,
        ];
        for k in ks.into_iter().filter(|&k| k < 1 << 53) {
            assert_eq!(k < th, below(k, t), "k={k} t={t:e} threshold={th}");
        }
    }

    /// Exact grid points `j · 2^-53` and their float neighbours.
    fn grid_point(j: u64) -> [f64; 3] {
        let t = j as f64 * (1.0 / (1u64 << 53) as f64);
        [t, t.next_up(), t.next_down()]
    }

    const THRESHOLD_PROBES: [f64; 11] = [
        0.0,
        0.05,
        0.19,
        0.57,
        0.76,
        0.95,
        0.5,
        1.0,
        1.5,
        -0.1,
        f64::NAN,
    ];

    #[test]
    fn threshold_matches_float_compare() {
        for t in THRESHOLD_PROBES {
            check_threshold(t, 0);
        }
        for j in [0, 1, 2, 3, 1 << 52, (1 << 53) - 1, 1 << 53] {
            for t in grid_point(j) {
                check_threshold(t, 0);
            }
        }
    }

    proptest! {
        #[test]
        fn threshold_matches_float_compare_on_random_draws(
            k in 0u64..1 << 53,
            j in 0u64..=1 << 53,
            t in -0.5f64..1.5,
        ) {
            for t in THRESHOLD_PROBES.into_iter().chain(grid_point(j)).chain([t]) {
                check_threshold(t, k);
            }
        }

        #[test]
        fn quadrant_matches_the_float_if_chain(
            k in 0u64..1 << 53,
            a in -0.5f64..1.5,
            b in -0.5f64..1.5,
            c in -0.5f64..1.5,
        ) {
            let th = thresholds(a, b, c);
            prop_assert_eq!(quadrant(k, th), quadrant_by_floats(k, a, b, c));
            // And at each threshold, where a tie would show.
            for k in th.into_iter().filter(|&k| k < 1 << 53) {
                prop_assert_eq!(quadrant(k, th), quadrant_by_floats(k, a, b, c));
            }
        }
    }

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
