//! Page-level random-access graph queries.
//!
//! Besides full algorithms, the paper's Sec. 3.3 lists query-style
//! traversals — "neighborhood, induced subgraph, egonet, … cross-edges" —
//! among the BFS-like workloads GTS supports. Unlike the sweep algorithms
//! they touch only a handful of pages, located through the vertex→record
//! placement and fetched on demand: exactly the *coarse-grained random
//! access* half of the paper's hybrid access story (Sec. 8), with the
//! GPU-side page cache absorbing repeated touches.
//!
//! [`QueryEngine`] wraps a [`GraphStore`] with a cache and a simulated
//! clock; every query reports real results and charges only the pages it
//! actually pulled across PCI-E.

use crate::engine::CachePolicyKind;
use crate::programs::visit_page;
use gts_gpu::timer::{KernelClass, KernelCost};
use gts_gpu::{GpuConfig, GpuTimer, PcieConfig};
use gts_sim::{SimDuration, SimTime};
use gts_storage::builder::GraphStore;
use gts_storage::cache::PageCache;
use gts_storage::PageKind;
use std::collections::BTreeSet;

/// A stateful query session over one store.
pub struct QueryEngine<'s> {
    store: &'s GraphStore,
    timer: GpuTimer,
    cache: PageCache,
    clock: SimTime,
    pages_fetched: u64,
}

impl<'s> QueryEngine<'s> {
    /// Open a query session with a page cache of `cache_pages`.
    pub fn new(store: &'s GraphStore, cache_pages: usize) -> Self {
        QueryEngine {
            store,
            timer: GpuTimer::new(GpuConfig::titan_x(), PcieConfig::gen3_x16(), 4),
            cache: CachePolicyKind::Lru.build(cache_pages),
            clock: SimTime::ZERO,
            pages_fetched: 0,
        }
    }

    /// Simulated time consumed by the queries so far.
    pub fn elapsed(&self) -> SimDuration {
        self.clock - SimTime::ZERO
    }

    /// Pages pulled over PCI-E (cache misses).
    pub fn pages_fetched(&self) -> u64 {
        self.pages_fetched
    }

    /// Cache hit rate across all page touches.
    pub fn cache_hit_rate(&self) -> f64 {
        self.cache.hit_rate()
    }

    /// All pages holding vertex `v`'s adjacency: its SP or its LP run,
    /// then the delta pages mutations spilled or grew it into (a spilled
    /// vertex's home record is empty, DESIGN.md §12).
    fn pages_of(&self, v: u64) -> Vec<u64> {
        let mut pids: Vec<u64> = self.store.run_pids(self.store.pid_of_vertex(v)).collect();
        pids.extend_from_slice(self.store.delta_pids_of(v));
        pids
    }

    /// Touch a page: cache lookup, transfer on miss, and a small kernel.
    fn touch(&mut self, pid: u64, edges_scanned: u64) {
        let page_bytes = self.store.cfg().page_size as u64;
        let ready = if self.cache.access(pid) {
            self.clock
        } else {
            self.pages_fetched += 1;
            self.timer.stream_h2d(0, page_bytes, self.clock, "page").end
        };
        let cost = KernelCost {
            class: KernelClass::Traversal,
            lane_slots: edges_scanned.max(1),
            atomic_ops: 0,
        };
        self.clock = self.timer.stream_kernel(0, cost, ready, "Kq").end;
    }

    /// Out-neighbours of `v` (vertex IDs, multi-edges preserved).
    pub fn neighbors(&mut self, v: u64) -> Vec<u64> {
        let mut out = Vec::new();
        for pid in self.pages_of(v) {
            let view = self.store.view(pid);
            let run = match view.kind() {
                PageKind::Small => view.sp_adj_run(self.store.rid_of_vertex(v).slot),
                PageKind::Large => view.lp_adj_run(),
            };
            let len = run.len() as u64;
            out.extend(run.map(|rid| self.store.rvt().translate(rid)));
            self.touch(pid, len);
        }
        out
    }

    /// The edges of the subgraph induced by `vertices` (edges with both
    /// endpoints in the set).
    pub fn induced_subgraph(&mut self, vertices: &BTreeSet<u64>) -> Vec<(u64, u64)> {
        self.filtered_edges(vertices, vertices)
    }

    /// The egonet of `v`: the subgraph induced by `v` and its
    /// out-neighbours.
    pub fn egonet(&mut self, v: u64) -> (BTreeSet<u64>, Vec<(u64, u64)>) {
        let mut members: BTreeSet<u64> = self.neighbors(v).into_iter().collect();
        members.insert(v);
        let edges = self.induced_subgraph(&members);
        (members, edges)
    }

    /// Edges leading from `a` into `b` (the paper's "cross-edges").
    pub fn cross_edges(&mut self, a: &BTreeSet<u64>, b: &BTreeSet<u64>) -> Vec<(u64, u64)> {
        self.filtered_edges(a, b)
    }

    /// Shared scan: edges whose source is in `sources` and target in
    /// `targets`, touching (and charging) each relevant page once.
    fn filtered_edges(
        &mut self,
        sources: &BTreeSet<u64>,
        targets: &BTreeSet<u64>,
    ) -> Vec<(u64, u64)> {
        let mut edges = Vec::new();
        // Deduplicate page touches: several set members share pages.
        let mut pages: BTreeSet<u64> = BTreeSet::new();
        for &v in sources {
            pages.extend(self.pages_of(v));
        }
        for pid in pages {
            let view = self.store.view(pid);
            let mut scanned = 0u64;
            visit_page(view, |vid, _len, _kind, adj| {
                if !sources.contains(&vid) {
                    return;
                }
                for rid in adj {
                    scanned += 1;
                    let w = self.store.rvt().translate(rid);
                    if targets.contains(&w) {
                        edges.push((vid, w));
                    }
                }
            });
            self.touch(pid, scanned);
        }
        edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gts_graph::generate::rmat;
    use gts_graph::{Csr, EdgeList};
    use gts_storage::{build_graph_store, MutationBatch, PageFormatConfig, PhysicalIdConfig};

    fn setup() -> (EdgeList, GraphStore, Csr) {
        let graph = rmat(9);
        let store = build_graph_store(
            &graph,
            PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 512),
        )
        .unwrap();
        let csr = Csr::from_edge_list(&graph);
        (graph, store, csr)
    }

    #[test]
    fn neighbors_match_csr() {
        let (_, store, csr) = setup();
        let mut q = QueryEngine::new(&store, 64);
        for v in (0..csr.num_vertices()).step_by(17) {
            let mut got = q.neighbors(v as u64);
            got.sort_unstable();
            let want: Vec<u64> = csr.neighbors(v).iter().map(|&w| w as u64).collect();
            assert_eq!(got, want, "vertex {v}");
        }
        assert!(q.elapsed() > SimDuration::ZERO);
    }

    #[test]
    fn neighbors_of_lp_vertex_span_chunks() {
        let edges: Vec<(u32, u32)> = (0..400).map(|i| (0, 1 + i % 500)).collect();
        let graph = EdgeList::new(501, edges.clone());
        let store = build_graph_store(
            &graph,
            PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 256),
        )
        .unwrap();
        assert!(store.large_pids().len() > 1);
        let mut q = QueryEngine::new(&store, 64);
        let mut got = q.neighbors(0);
        got.sort_unstable();
        let mut want: Vec<u64> = edges.iter().map(|&(_, d)| d as u64).collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    /// Every query sees the edges a mutation moved to delta pages: those
    /// of a Small-Page vertex spilled whole (its home record left empty)
    /// and those of an LP vertex grown past its chunk run.
    #[test]
    fn queries_follow_mutations_into_delta_pages() {
        let cfg = PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 256);
        // 13 one-edge vertices fill one 256-byte page: two inserts into
        // vertex 5 spill it whole.
        let ring: Vec<(u32, u32)> = (0..13).map(|v| (v, (v + 1) % 13)).collect();
        let mut spilled = build_graph_store(&EdgeList::new(13, ring), cfg).unwrap();
        let mut b = MutationBatch::new();
        b.insert(5, 0).insert(5, 1);
        spilled.apply_mutations(&b).unwrap();
        assert!(!spilled.delta_pids_of(5).is_empty());
        // Vertex 0's 300 edges fill a 6-chunk run (348 slots); 60 more
        // overflow it.
        let star: Vec<(u32, u32)> = (0..300).map(|i| (0, 1 + i)).collect();
        let mut grown = build_graph_store(&EdgeList::new(301, star), cfg).unwrap();
        let mut b = MutationBatch::new();
        for i in 0..60 {
            b.insert(0, 1 + i);
        }
        grown.apply_mutations(&b).unwrap();
        assert!(!grown.delta_pids_of(0).is_empty());
        for (store, v) in [(&spilled, 5), (&grown, 0)] {
            let edges = store.decode_edges();
            let want: Vec<u64> = edges.iter().filter(|e| e.0 == v).map(|e| e.1).collect();
            let mut q = QueryEngine::new(store, 64);
            let mut got = q.neighbors(v);
            got.sort_unstable();
            assert_eq!(got, want, "neighbors({v})");
            let all: BTreeSet<u64> = (0..store.num_vertices()).collect();
            let mut got = q.cross_edges(&BTreeSet::from([v]), &all);
            got.sort_unstable();
            let want: Vec<(u64, u64)> = edges.iter().filter(|e| e.0 == v).copied().collect();
            assert_eq!(got, want, "cross_edges({v})");
            let (members, got) = q.egonet(v);
            let want = edges
                .iter()
                .filter(|(s, d)| members.contains(s) && members.contains(d))
                .count();
            assert_eq!(got.len(), want, "egonet({v})");
        }
    }

    #[test]
    fn induced_subgraph_matches_filter() {
        let (graph, store, _) = setup();
        let set: BTreeSet<u64> = (0..40).collect();
        let mut q = QueryEngine::new(&store, 64);
        let mut got = q.induced_subgraph(&set);
        got.sort_unstable();
        let mut want: Vec<(u64, u64)> = graph
            .edges
            .iter()
            .filter(|&&(s, d)| set.contains(&(s as u64)) && set.contains(&(d as u64)))
            .map(|&(s, d)| (s as u64, d as u64))
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn egonet_contains_center_and_its_edges() {
        let (graph, store, csr) = setup();
        let v = 0u64;
        let mut q = QueryEngine::new(&store, 64);
        let (members, edges) = q.egonet(v);
        assert!(members.contains(&v));
        for &w in csr.neighbors(v as u32) {
            assert!(members.contains(&(w as u64)));
        }
        // Every returned edge stays inside the egonet, and every graph
        // edge within the member set is returned.
        for &(s, d) in &edges {
            assert!(members.contains(&s) && members.contains(&d));
        }
        let want = graph
            .edges
            .iter()
            .filter(|&&(s, d)| members.contains(&(s as u64)) && members.contains(&(d as u64)))
            .count();
        assert_eq!(edges.len(), want);
    }

    #[test]
    fn cross_edges_match_filter() {
        let (graph, store, _) = setup();
        let a: BTreeSet<u64> = (0..60).collect();
        let b: BTreeSet<u64> = (60..200).collect();
        let mut q = QueryEngine::new(&store, 64);
        let mut got = q.cross_edges(&a, &b);
        got.sort_unstable();
        let mut want: Vec<(u64, u64)> = graph
            .edges
            .iter()
            .filter(|&&(s, d)| a.contains(&(s as u64)) && b.contains(&(d as u64)))
            .map(|&(s, d)| (s as u64, d as u64))
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn cache_absorbs_repeated_queries() {
        let (_, store, _) = setup();
        let mut q = QueryEngine::new(&store, 64);
        q.neighbors(5);
        let fetched_once = q.pages_fetched();
        q.neighbors(5);
        assert_eq!(
            q.pages_fetched(),
            fetched_once,
            "repeat touches must hit the cache"
        );
        assert!(q.cache_hit_rate() > 0.0);
    }

    #[test]
    fn zero_cache_fetches_every_time() {
        let (_, store, _) = setup();
        let mut q = QueryEngine::new(&store, 0);
        q.neighbors(5);
        q.neighbors(5);
        assert_eq!(q.pages_fetched(), 2);
    }
}
