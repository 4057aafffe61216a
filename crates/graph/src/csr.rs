//! Compressed Sparse Row adjacency, the in-memory format used by the CPU
//! and hybrid baseline engines (the paper's Sec. 2 lists CSR among the
//! in-memory formats whose "very long contiguous edge array" limits scale —
//! which is exactly the limitation the TOTEM/CPU baselines exhibit here).
//!
//! It is also the first step of every slotted-page store build and what
//! the reference algorithms read, so its build sits on every setup path;
//! [`Csr::from_edge_list`] says why that build is serial.

use crate::types::{EdgeList, VertexId};

/// Compressed Sparse Row representation of a directed graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    /// `offsets[v]..offsets[v+1]` indexes `targets` for vertex `v`'s
    /// out-neighbours; length `num_vertices + 1`.
    offsets: Vec<u64>,
    /// Concatenated adjacency lists.
    targets: Vec<VertexId>,
}

impl Csr {
    /// Build a CSR from an edge list by a serial counting sort (O(V + E)):
    /// count out-degrees, prefix-sum them into offsets, scatter each
    /// target to its source's cursor, then sort every adjacency list so
    /// the result is canonical (sorted by target, duplicates kept).
    ///
    /// The build is serial by construction. It runs at the speed of its
    /// memory traffic: a parallel scatter through atomic cursors measured
    /// 2–3× slower on two cores, and an atomic-free one (per-worker
    /// histograms, a disjoint scatter) no faster than this loop.
    pub fn from_edge_list(g: &EdgeList) -> Self {
        let n = g.num_vertices as usize;
        let mut offsets = vec![0u64; n + 1];
        for &(s, _) in &g.edges {
            offsets[s as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![0 as VertexId; g.edges.len()];
        for &(s, d) in &g.edges {
            let at = &mut cursor[s as usize];
            targets[*at as usize] = d;
            *at += 1;
        }
        for v in 0..n {
            targets[offsets[v] as usize..offsets[v + 1] as usize].sort_unstable();
        }
        Csr { offsets, targets }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> VertexId {
        (self.offsets.len() - 1) as VertexId
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> u64 {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Out-neighbours of `v` (sorted, may contain duplicates for multigraphs).
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let (a, b) = (
            self.offsets[v as usize] as usize,
            self.offsets[v as usize + 1] as usize,
        );
        &self.targets[a..b]
    }

    /// Iterate `(src, dst)` over all edges in CSR order.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        (0..self.num_vertices()).flat_map(move |v| self.neighbors(v).iter().map(move |&d| (v, d)))
    }

    /// The transposed graph (in-edges become out-edges). Needed by engines
    /// that pull along reverse edges (GAS gather, BC accumulation).
    pub fn transpose(&self) -> Csr {
        let n = self.num_vertices();
        let edges: Vec<(VertexId, VertexId)> = self.edges().map(|(s, d)| (d, s)).collect();
        Csr::from_edge_list(&EdgeList::new(n, edges))
    }

    /// An undirected (symmetrised) version: every edge present both ways,
    /// deduplicated. Used by connected-components references.
    pub fn symmetrize(&self) -> Csr {
        let n = self.num_vertices();
        let mut edges: Vec<(VertexId, VertexId)> = Vec::with_capacity(self.num_edges() * 2);
        for (s, d) in self.edges() {
            edges.push((s, d));
            edges.push((d, s));
        }
        edges.sort_unstable();
        edges.dedup();
        Csr::from_edge_list(&EdgeList::new(n, edges))
    }

    /// Raw offsets array (length `V + 1`), for engines that stride directly.
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// Raw concatenated targets array, for engines that stride directly.
    pub fn targets(&self) -> &[VertexId] {
        &self.targets
    }

    /// Approximate in-memory footprint in bytes. The baselines that must
    /// hold CSR in host or device memory use this for OOM accounting.
    pub fn memory_bytes(&self) -> u64 {
        (self.offsets.len() * std::mem::size_of::<u64>()
            + self.targets.len() * std::mem::size_of::<VertexId>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The CSR of the sorted edge list, built without a counting sort:
    /// `offsets[v]` counts the edges whose source is below `v`, and the
    /// targets are the sorted list's targets.
    fn oracle(g: &EdgeList) -> (Vec<u64>, Vec<VertexId>) {
        let mut sorted = g.edges.clone();
        sorted.sort_unstable();
        let offsets = (0..=g.num_vertices)
            .map(|v| sorted.partition_point(|&(s, _)| s < v) as u64)
            .collect();
        (offsets, sorted.into_iter().map(|(_, d)| d).collect())
    }

    fn built(g: &EdgeList) -> (Vec<u64>, Vec<VertexId>) {
        let csr = Csr::from_edge_list(g);
        (csr.offsets().to_vec(), csr.targets().to_vec())
    }

    /// Multigraphs on 0..48 vertices: with at most ~3 edges per vertex
    /// they carry self-loops, duplicate edges and isolated vertices.
    fn arb_multigraph() -> impl Strategy<Value = EdgeList> {
        (0u32..48).prop_flat_map(|n| {
            let v = n.max(1);
            proptest::collection::vec((0..v, 0..v), 0..3 * v as usize + 1)
                .prop_map(move |edges| EdgeList::new(n, if n == 0 { Vec::new() } else { edges }))
        })
    }

    proptest! {
        #[test]
        fn build_matches_the_sorted_edge_list(g in arb_multigraph()) {
            prop_assert_eq!(built(&g), oracle(&g));
        }
    }

    #[test]
    fn build_matches_the_sorted_edge_list_on_corner_cases() {
        for g in [
            EdgeList::new(0, vec![]),
            EdgeList::new(1, vec![]),
            EdgeList::new(1, vec![(0, 0), (0, 0)]),
            EdgeList::new(5, vec![(4, 4), (4, 0), (4, 4), (2, 1)]),
            crate::generate::rmat(13),
        ] {
            assert_eq!(built(&g), oracle(&g), "{} vertices", g.num_vertices);
        }
    }

    fn small() -> Csr {
        // 0 -> 1,2 ; 1 -> 2 ; 2 -> 0 ; 3 isolated
        Csr::from_edge_list(&EdgeList::new(4, vec![(2, 0), (0, 2), (0, 1), (1, 2)]))
    }

    #[test]
    fn builds_sorted_adjacency() {
        let g = small();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[2]);
        assert_eq!(g.neighbors(2), &[0]);
        assert_eq!(g.neighbors(3), &[] as &[VertexId]);
        assert_eq!(g.out_degree(0), 2);
    }

    #[test]
    fn edges_iterator_covers_all() {
        let g = small();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2), (2, 0)]);
    }

    #[test]
    fn transpose_inverts() {
        let g = small();
        let t = g.transpose();
        assert_eq!(t.neighbors(2), &[0, 1]);
        assert_eq!(t.neighbors(0), &[2]);
        // Transposing twice is the identity (on canonical CSR).
        assert_eq!(t.transpose(), g);
    }

    #[test]
    fn symmetrize_makes_undirected() {
        let g = Csr::from_edge_list(&EdgeList::new(3, vec![(0, 1), (1, 0), (1, 2)]));
        let s = g.symmetrize();
        assert_eq!(s.neighbors(0), &[1]);
        assert_eq!(s.neighbors(1), &[0, 2]);
        assert_eq!(s.neighbors(2), &[1]);
    }

    #[test]
    fn duplicate_edges_survive_build() {
        let g = Csr::from_edge_list(&EdgeList::new(2, vec![(0, 1), (0, 1)]));
        assert_eq!(g.neighbors(0), &[1, 1]);
    }

    #[test]
    fn memory_accounting_positive() {
        assert!(small().memory_bytes() > 0);
    }
}
