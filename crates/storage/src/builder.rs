//! Building a slotted-page [`GraphStore`] from an in-memory graph.
//!
//! The builder walks vertices in ID order. Low-degree vertices are packed
//! into the current Small Page; a vertex whose record cannot fit even in an
//! empty Small Page becomes a run of Large Pages (paper Fig. 1). Vertex IDs
//! stay consecutive within every Small Page, which is what makes the
//! one-tuple-per-page RVT translation valid.
//!
//! Building is two-pass: pass 1 assigns every vertex its physical
//! [`RecordId`] (adjacency lists store *record IDs*, so targets must be
//! placed before any page can be encoded); pass 2 encodes pages.

use crate::device::StorageError;
use crate::format::{PageFormatConfig, PageKind, RecordId};
use crate::page::{encode_large_page, AdjRun, Page, PageView, SmallPageEncoder};
use crate::rvt::{Rvt, RvtEntry};
use gts_graph::{Csr, EdgeList};
use std::collections::BTreeMap;
use std::fmt;

/// Reasons a graph cannot be represented under a given format config.
///
/// These are *expected* conditions, not bugs: the paper's Sec. 6.1 motivates
/// the (3,3) configuration precisely because (2,2) "fails to represent an
/// RMAT30 graph".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The store would need more pages than `p` bytes can address.
    TooManyPages {
        /// Pages required.
        needed: u64,
        /// Exclusive page-ID bound of the configuration.
        max: u64,
    },
    /// A vertex ID exceeds the 6-byte VID field.
    VidOverflow {
        /// The offending vertex.
        vid: u64,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::TooManyPages { needed, max } => write!(
                f,
                "graph needs {needed} pages but the physical-ID config addresses only {max}"
            ),
            BuildError::VidOverflow { vid } => {
                write!(f, "vertex id {vid} exceeds the 6-byte VID field")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// A graph in the slotted page format: the unit GTS streams to GPUs.
#[derive(Debug, Clone)]
pub struct GraphStore {
    pub(crate) cfg: PageFormatConfig,
    pub(crate) pages: Vec<Page>,
    pub(crate) rvt: Rvt,
    pub(crate) small_pids: Vec<u64>,
    pub(crate) large_pids: Vec<u64>,
    pub(crate) vertex_rid: Vec<RecordId>,
    pub(crate) num_edges: u64,
    /// Record-ID entries per page, precomputed for the cost models.
    pub(crate) edges_per_page: Vec<u64>,
    /// Mutation epoch: bumped once per applied non-empty
    /// [`crate::mutate::MutationBatch`].
    pub(crate) epoch: u64,
    /// Delta pages per vertex, ascending pid order: pages appended after
    /// build holding the whole adjacency of a spilled Small-Page vertex or
    /// the overflow of a Large-Page vertex.
    pub(crate) delta_pages: BTreeMap<u64, Vec<u64>>,
}

impl GraphStore {
    /// The format this store was built with.
    pub fn cfg(&self) -> PageFormatConfig {
        self.cfg
    }

    /// All pages, indexed by page ID.
    pub fn pages(&self) -> &[Page] {
        &self.pages
    }

    /// One page by ID.
    pub fn page(&self, pid: u64) -> &Page {
        &self.pages[pid as usize]
    }

    /// Decoded view of one page. Verification is cached per page: the
    /// first view of a page pays the checksum + layout walk (a no-op for
    /// builder-encoded pages, already done at load for reconstructed
    /// ones), later views are one atomic load.
    ///
    /// # Panics
    /// Panics if the page fails verification — store pages are sealed at
    /// build or verified at load, so this only fires when page bytes
    /// were mutated behind the store's back.
    pub fn view(&self, pid: u64) -> PageView<'_> {
        let page = &self.pages[pid as usize];
        match page.verify(self.cfg) {
            Ok(token) => PageView::new(token),
            Err(e) => panic!("store page {pid} failed verification: {e}"),
        }
    }

    /// The RVT mapping table.
    pub fn rvt(&self) -> &Rvt {
        &self.rvt
    }

    /// Mutable access to the RVT, for tests that inject corruption (a
    /// truncated entry) to exercise the engine's error path.
    pub fn rvt_mut(&mut self) -> &mut Rvt {
        &mut self.rvt
    }

    /// Page IDs of all Small Pages, ascending (Table 3's #SP).
    pub fn small_pids(&self) -> &[u64] {
        &self.small_pids
    }

    /// Page IDs of all Large Pages, ascending (Table 3's #LP).
    pub fn large_pids(&self) -> &[u64] {
        &self.large_pids
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> u64 {
        self.vertex_rid.len() as u64
    }

    /// Number of directed edges (record-id entries across all pages).
    pub fn num_edges(&self) -> u64 {
        self.num_edges
    }

    /// Total number of pages.
    pub fn num_pages(&self) -> u64 {
        self.pages.len() as u64
    }

    /// Where vertex `v` lives.
    pub fn rid_of_vertex(&self, v: u64) -> RecordId {
        self.vertex_rid[v as usize]
    }

    /// The page holding vertex `v` (its first Large Page if high-degree) —
    /// Algorithm 1 line 5 seeds `nextPIDSet` with this for the BFS source.
    pub fn pid_of_vertex(&self, v: u64) -> u64 {
        self.vertex_rid[v as usize].pid
    }

    /// Record-ID entries in page `pid` (the kernel-work weight).
    pub fn edges_in_page(&self, pid: u64) -> u64 {
        self.edges_per_page[pid as usize]
    }

    /// Mutation epoch: 0 at build/reconstruct, bumped once per applied
    /// non-empty [`crate::mutate::MutationBatch`]. The checkpoint
    /// fingerprint folds this in so a snapshot taken before a mutation
    /// refuses to resume against the mutated store.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Delta pages appended for `vid` by mutation batches, ascending.
    /// Empty for vertices whose adjacency lives fully in home pages.
    pub fn delta_pids_of(&self, vid: u64) -> &[u64] {
        self.delta_pages.get(&vid).map_or(&[], |v| v.as_slice())
    }

    /// True if any vertex has delta pages (the store has grown beyond
    /// in-place rewrites).
    pub fn has_delta_pages(&self) -> bool {
        !self.delta_pages.is_empty()
    }

    /// Delta pages of every vertex resident in page `pid`. The planner
    /// widens a marked home page by these: an inbound record ID always
    /// names the *home* page, so a sweep that re-activates a vertex must
    /// also stream the pages holding its spilled/overflow edges.
    pub fn delta_pids_for_page(&self, pid: u64) -> Vec<u64> {
        if self.delta_pages.is_empty() {
            return Vec::new();
        }
        let view = self.view(pid);
        let (lo, hi) = match view.kind() {
            PageKind::Small => {
                let s = self.rvt.entry(pid).start_vid;
                (s, s + (view.count() as u64).saturating_sub(1))
            }
            PageKind::Large => {
                let v = view.lp_vid();
                (v, v)
            }
        };
        let mut out = Vec::new();
        for (_, pids) in self.delta_pages.range(lo..=hi) {
            out.extend_from_slice(pids);
        }
        out
    }

    /// Checked [`Self::page`]: an out-of-range page ID becomes a typed
    /// [`StorageError::BadPid`] instead of an index panic.
    pub fn try_page(&self, pid: u64) -> Result<&Page, StorageError> {
        self.pages.get(pid as usize).ok_or(StorageError::BadPid {
            pid,
            num_pages: self.pages.len() as u64,
        })
    }

    /// Checked [`Self::view`]: out-of-range page IDs and verification
    /// failures become typed errors instead of panics — the entry point
    /// for page IDs that originate outside the store (program-returned
    /// `ContinueWith` sets, mutation batches).
    pub fn try_view(&self, pid: u64) -> Result<PageView<'_>, StorageError> {
        let page = self.try_page(pid)?;
        match page.verify(self.cfg) {
            Ok(token) => Ok(PageView::new(token)),
            Err(_) => Err(StorageError::CorruptPage { pid }),
        }
    }

    /// Total topology bytes = #pages × page size (Table 4's denominator).
    pub fn topology_bytes(&self) -> u64 {
        self.num_pages() * self.cfg.page_size as u64
    }

    /// Decode the store back into sorted `(src, dst)` vertex-ID pairs by
    /// walking every page through the RVT — the inverse of building, used
    /// by round-trip tests and format tooling.
    pub fn decode_edges(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::with_capacity(self.num_edges as usize);
        for pid in 0..self.num_pages() {
            let v = self.view(pid);
            let mut decode = |vid: u64, adj: AdjRun<'_>| {
                out.extend(adj.map(|rid| (vid, self.rvt.translate(rid))));
            };
            match v.kind() {
                PageKind::Small => v.sp_vertices().for_each(|(vid, adj)| decode(vid, adj)),
                PageKind::Large => decode(v.lp_vid(), v.lp_adj_run()),
            }
        }
        out.sort_unstable();
        out
    }

    /// Reassemble a store from raw pages (e.g. read back from disk by
    /// [`crate::file`]). All metadata — the RVT, vertex placements, page
    /// kind lists and per-page edge counts — is reconstructed by scanning
    /// the pages, which doubles as an integrity check: pages come from
    /// untrusted bytes, so every structural and semantic violation
    /// (out-of-bounds offsets, non-consecutive Small-Page VIDs, dangling
    /// record IDs, missing vertices) surfaces as an error, never a panic.
    pub fn reconstruct(
        cfg: PageFormatConfig,
        pages: Vec<Page>,
        num_vertices: u64,
    ) -> Result<GraphStore, String> {
        // The vertex table is allocated from the caller-supplied count;
        // bound it by what the pages could possibly hold so corrupt
        // metadata cannot trigger a huge allocation.
        let max_possible = (pages.len() as u64).saturating_mul(cfg.id.max_slot());
        if num_vertices > max_possible {
            return Err(format!(
                "{num_vertices} vertices claimed but {} pages can hold at most {max_possible}",
                pages.len()
            ));
        }
        // Verification pass: after this, PageView accessors cannot go out
        // of bounds on any page — and each page caches its verified state,
        // so every later view over it is O(1).
        for page in &pages {
            page.verify(cfg)?;
        }
        let mut rvt_entries = Vec::with_capacity(pages.len());
        let mut small_pids = Vec::new();
        let mut large_pids = Vec::new();
        let mut edges_per_page = Vec::with_capacity(pages.len());
        let mut vertex_rid = vec![RecordId::new(u64::MAX, 0); num_vertices as usize];
        let mut num_edges = 0u64;
        let mut delta_pages: BTreeMap<u64, Vec<u64>> = BTreeMap::new();

        // First pass: kinds, per-page edges, vertex placements, and the
        // Large-Page run structure (consecutive chunks of one vertex).
        let mut i = 0usize;
        while i < pages.len() {
            let pid = i as u64;
            let view = pages[i].verify(cfg)?.view();
            match view.kind() {
                PageKind::Small => {
                    let count = view.count();
                    if count == 0 {
                        return Err(format!("empty small page {pid}"));
                    }
                    let start_vid = view.sp_vid(0);
                    let mut edges = 0u64;
                    for slot in 0..count {
                        let vid = view.sp_vid(slot);
                        if vid != start_vid + slot as u64 {
                            return Err(format!("page {pid}: non-consecutive VIDs at slot {slot}"));
                        }
                        if vid >= num_vertices {
                            return Err(format!("page {pid}: vid {vid} out of range"));
                        }
                        if vertex_rid[vid as usize].pid != u64::MAX {
                            return Err(format!("page {pid}: vid {vid} placed twice"));
                        }
                        vertex_rid[vid as usize] = RecordId::new(pid, slot);
                        edges += view.sp_adj_len(slot) as u64;
                    }
                    rvt_entries.push(RvtEntry {
                        start_vid,
                        lp_range: None,
                    });
                    small_pids.push(pid);
                    edges_per_page.push(edges);
                    num_edges += edges;
                    i += 1;
                }
                PageKind::Large => {
                    let vid = view.lp_vid();
                    if vid >= num_vertices {
                        return Err(format!("page {pid}: LP vid {vid} out of range"));
                    }
                    // Measure the run: consecutive LPs of the same vertex.
                    let mut chunks = 0usize;
                    while i + chunks < pages.len() {
                        let v = pages[i + chunks].verify(cfg)?.view();
                        if v.kind() != PageKind::Large || v.lp_vid() != vid {
                            break;
                        }
                        chunks += 1;
                    }
                    if vertex_rid[vid as usize].pid == u64::MAX {
                        // Home run of a high-degree vertex.
                        vertex_rid[vid as usize] = RecordId::new(pid, 0);
                        for c in 0..chunks {
                            let v = pages[i + c].verify(cfg)?.view();
                            let edges = v.count() as u64;
                            rvt_entries.push(RvtEntry {
                                start_vid: vid,
                                lp_range: Some((chunks - 1 - c) as u32),
                            });
                            large_pids.push(pid + c as u64);
                            edges_per_page.push(edges);
                            num_edges += edges;
                        }
                    } else {
                        // The vertex is already placed: these are delta
                        // pages appended by a mutation batch. Each one
                        // stands alone (LP_RANGE 0) — no inbound record
                        // ID ever names a delta page.
                        for c in 0..chunks {
                            let v = pages[i + c].verify(cfg)?.view();
                            let edges = v.count() as u64;
                            rvt_entries.push(RvtEntry {
                                start_vid: vid,
                                lp_range: Some(0),
                            });
                            large_pids.push(pid + c as u64);
                            edges_per_page.push(edges);
                            num_edges += edges;
                            delta_pages.entry(vid).or_default().push(pid + c as u64);
                        }
                    }
                    i += chunks;
                }
            }
        }
        for (v, rid) in vertex_rid.iter().enumerate() {
            if rid.pid == u64::MAX {
                return Err(format!("vertex {v} missing from pages"));
            }
        }
        let store = GraphStore {
            cfg,
            pages,
            rvt: Rvt::new(rvt_entries),
            small_pids,
            large_pids,
            vertex_rid,
            num_edges,
            edges_per_page,
            epoch: 0,
            delta_pages,
        };
        // Semantic pass over adjacency: every record ID must resolve to a
        // real vertex (the translation is what every kernel trusts).
        let num_pages = store.num_pages();
        for pid in 0..num_pages {
            let view = store.view(pid);
            let check = |rid: RecordId| -> Result<(), String> {
                if rid.pid >= num_pages {
                    return Err(format!("page {pid}: record id points at page {}", rid.pid));
                }
                // The slot must exist in the target page: within the slot
                // count of a Small Page, exactly 0 for a Large Page (a
                // high-degree vertex's record ID names its first chunk).
                let target_view = store.view(rid.pid);
                let slot_ok = match target_view.kind() {
                    PageKind::Small => rid.slot < target_view.count(),
                    PageKind::Large => rid.slot == 0,
                };
                if !slot_ok {
                    return Err(format!(
                        "page {pid}: record id names slot {} of page {}, which has no such slot",
                        rid.slot, rid.pid
                    ));
                }
                let target = store.rvt.translate(rid);
                if target >= num_vertices {
                    return Err(format!(
                        "page {pid}: record id resolves to vid {target}, out of range"
                    ));
                }
                Ok(())
            };
            match view.kind() {
                PageKind::Small => view
                    .sp_vertices()
                    .try_for_each(|(_, mut adj)| adj.try_for_each(check))?,
                PageKind::Large => view.lp_adj_run().try_for_each(check)?,
            }
        }
        Ok(store)
    }
}

/// Plan entries produced by placement (pass 1).
enum PagePlan {
    /// Small page holding vertices `first_vid..=last_vid`.
    Small { first_vid: u64, last_vid: u64 },
    /// One chunk of a Large-Page vertex.
    Large {
        vid: u64,
        /// Index of this chunk within the vertex's run.
        chunk: u32,
        /// Total chunks in the run.
        chunks: u32,
    },
}

/// Build a [`GraphStore`] for `graph` under `cfg`.
pub fn build_graph_store(
    graph: &EdgeList,
    cfg: PageFormatConfig,
) -> Result<GraphStore, BuildError> {
    let csr = Csr::from_edge_list(graph);
    build_from_csr(&csr, cfg)
}

/// Build from an existing CSR (avoids re-sorting when the caller has one).
pub fn build_from_csr(csr: &Csr, cfg: PageFormatConfig) -> Result<GraphStore, BuildError> {
    let n = csr.num_vertices() as u64;
    if n > 1u64 << 48 {
        return Err(BuildError::VidOverflow { vid: n - 1 });
    }

    // --- Pass 1: place every vertex. ---
    let mut plan: Vec<PagePlan> = Vec::new();
    let mut vertex_rid: Vec<RecordId> = Vec::with_capacity(n as usize);
    let lp_cap = cfg.lp_capacity() as u64;
    let max_slot = cfg.id.max_slot();

    // State of the currently open Small Page.
    let mut open_first: Option<u64> = None;
    let mut open_bytes: usize = 0;
    let mut open_slots: u64 = 0;
    let mut next_pid: u64 = 0;

    let flush_sp =
        |plan: &mut Vec<PagePlan>, next_pid: &mut u64, first: &mut Option<u64>, last: u64| {
            if let Some(f) = first.take() {
                plan.push(PagePlan::Small {
                    first_vid: f,
                    last_vid: last,
                });
                *next_pid += 1;
            }
        };

    for v in 0..n {
        let deg = csr.out_degree(v as u32) as usize;
        if cfg.fits_in_small_page(deg) {
            let need = cfg.sp_vertex_bytes(deg);
            let fits_bytes = open_bytes + need <= cfg.sp_budget();
            if open_first.is_some() && (!fits_bytes || open_slots >= max_slot) {
                flush_sp(&mut plan, &mut next_pid, &mut open_first, v - 1);
                open_bytes = 0;
                open_slots = 0;
            }
            if open_first.is_none() {
                open_first = Some(v);
            }
            vertex_rid.push(RecordId::new(next_pid, open_slots as u32));
            open_bytes += need;
            open_slots += 1;
        } else {
            // Close any open SP so its VID run ends before the LP vertex.
            flush_sp(&mut plan, &mut next_pid, &mut open_first, v.wrapping_sub(1));
            open_bytes = 0;
            open_slots = 0;
            let chunks = (deg as u64).div_ceil(lp_cap) as u32;
            vertex_rid.push(RecordId::new(next_pid, 0));
            for c in 0..chunks {
                plan.push(PagePlan::Large {
                    vid: v,
                    chunk: c,
                    chunks,
                });
                next_pid += 1;
            }
        }
    }
    flush_sp(
        &mut plan,
        &mut next_pid,
        &mut open_first,
        n.saturating_sub(1),
    );

    if next_pid > cfg.id.max_page_id() {
        return Err(BuildError::TooManyPages {
            needed: next_pid,
            max: cfg.id.max_page_id(),
        });
    }

    // --- Pass 2: encode pages and the RVT. ---
    let mut pages = Vec::with_capacity(plan.len());
    let mut rvt_entries = Vec::with_capacity(plan.len());
    let mut small_pids = Vec::new();
    let mut large_pids = Vec::new();
    let mut edges_per_page = Vec::with_capacity(plan.len());
    let mut adj_buf: Vec<RecordId> = Vec::new();

    for (pid, p) in plan.iter().enumerate() {
        let pid = pid as u64;
        match *p {
            PagePlan::Small {
                first_vid,
                last_vid,
            } => {
                let mut enc = SmallPageEncoder::new(cfg);
                let mut edges = 0u64;
                for v in first_vid..=last_vid {
                    adj_buf.clear();
                    adj_buf.extend(
                        csr.neighbors(v as u32)
                            .iter()
                            .map(|&w| vertex_rid[w as usize]),
                    );
                    edges += adj_buf.len() as u64;
                    enc.push_vertex(v, &adj_buf);
                }
                pages.push(enc.finish(pid));
                rvt_entries.push(RvtEntry {
                    start_vid: first_vid,
                    lp_range: None,
                });
                small_pids.push(pid);
                edges_per_page.push(edges);
            }
            PagePlan::Large { vid, chunk, chunks } => {
                let neigh = csr.neighbors(vid as u32);
                let a = chunk as usize * cfg.lp_capacity();
                let b = (a + cfg.lp_capacity()).min(neigh.len());
                adj_buf.clear();
                adj_buf.extend(neigh[a..b].iter().map(|&w| vertex_rid[w as usize]));
                pages.push(encode_large_page(cfg, pid, vid, &adj_buf));
                rvt_entries.push(RvtEntry {
                    start_vid: vid,
                    lp_range: Some(chunks - 1 - chunk),
                });
                large_pids.push(pid);
                edges_per_page.push((b - a) as u64);
            }
        }
    }

    Ok(GraphStore {
        cfg,
        pages,
        rvt: Rvt::new(rvt_entries),
        small_pids,
        large_pids,
        vertex_rid,
        num_edges: csr.num_edges() as u64,
        edges_per_page,
        epoch: 0,
        delta_pages: BTreeMap::new(),
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests panic on failure by design
mod tests {
    use super::*;
    use crate::format::{PageKind, PhysicalIdConfig};
    use gts_graph::generate::rmat;
    use gts_graph::VertexId;

    fn small_cfg() -> PageFormatConfig {
        PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 256)
    }

    fn roundtrip(graph: &EdgeList, cfg: PageFormatConfig) {
        let store = build_graph_store(graph, cfg).expect("build");
        let mut want: Vec<(u64, u64)> = graph
            .edges
            .iter()
            .map(|&(s, d)| (s as u64, d as u64))
            .collect();
        want.sort_unstable();
        assert_eq!(store.decode_edges(), want);
        assert_eq!(store.num_edges(), graph.num_edges() as u64);
        assert_eq!(store.num_vertices(), graph.num_vertices as u64);
    }

    #[test]
    fn tiny_graph_roundtrips() {
        roundtrip(
            &EdgeList::new(4, vec![(0, 1), (0, 2), (1, 2), (2, 0), (3, 3)]),
            small_cfg(),
        );
    }

    #[test]
    fn high_degree_vertex_becomes_large_pages() {
        // One vertex with 300 out-edges: does not fit in a 256-byte page.
        let mut edges: Vec<(VertexId, VertexId)> =
            (0..300).map(|i| (0, 1 + (i % 300) as VertexId)).collect();
        edges.push((5, 0));
        let g = EdgeList::new(301, edges);
        let store = build_graph_store(&g, small_cfg()).unwrap();
        assert!(!store.large_pids().is_empty());
        // 300 rids at lp_capacity (256-8-8-6)/4 = 58 per page → 6 chunks.
        assert_eq!(store.large_pids().len(), 300usize.div_ceil(58));
        roundtrip(&g, small_cfg());
        // The LP vertex's rid points at its first LP, slot 0.
        let rid = store.rid_of_vertex(0);
        assert_eq!(rid.slot, 0);
        assert_eq!(store.view(rid.pid).kind(), PageKind::Large);
        assert_eq!(store.rvt().translate(rid), 0);
    }

    #[test]
    fn vids_are_consecutive_within_each_small_page() {
        let g = rmat(8);
        let store = build_graph_store(&g, small_cfg()).unwrap();
        for &pid in store.small_pids() {
            let v = store.view(pid);
            let start = store.rvt().entry(pid).start_vid;
            for slot in 0..v.count() {
                assert_eq!(v.sp_vid(slot), start + slot as u64);
            }
        }
    }

    #[test]
    fn rmat_roundtrips_under_both_configs() {
        let g = rmat(8);
        roundtrip(&g, small_cfg());
        roundtrip(&g, PageFormatConfig::new(PhysicalIdConfig::TRILLION, 4096));
    }

    #[test]
    fn page_id_exhaustion_is_reported() {
        // p=1 addresses only 256 pages; a graph needing more must fail
        // (the (2,2)-cannot-hold-RMAT30 phenomenon of Sec. 6.1, scaled).
        let cfg = PageFormatConfig::new(PhysicalIdConfig::new(1, 2), 64);
        let g = rmat(10);
        match build_graph_store(&g, cfg) {
            Err(BuildError::TooManyPages { needed, max }) => {
                assert!(needed > max);
                assert_eq!(max, 256);
            }
            other => panic!("expected TooManyPages, got {other:?}"),
        }
    }

    #[test]
    fn empty_graph_builds_empty_store() {
        let store = build_graph_store(&EdgeList::new(0, vec![]), small_cfg()).unwrap();
        assert_eq!(store.num_pages(), 0);
        assert_eq!(store.num_vertices(), 0);
    }

    #[test]
    fn isolated_vertices_get_slots() {
        let g = EdgeList::new(100, vec![(99, 0)]);
        let store = build_graph_store(&g, small_cfg()).unwrap();
        assert_eq!(store.num_vertices(), 100);
        // Every vertex must be addressable.
        for v in 0..100 {
            assert_eq!(store.rvt().translate(store.rid_of_vertex(v)), v);
        }
    }

    #[test]
    fn edges_per_page_sums_to_total() {
        let g = rmat(9);
        let store = build_graph_store(&g, small_cfg()).unwrap();
        let total: u64 = (0..store.num_pages()).map(|p| store.edges_in_page(p)).sum();
        assert_eq!(total, store.num_edges());
    }

    #[test]
    fn most_pages_are_small_for_rmat() {
        // Paper Sec. 3.1/7.5: "most of the topology pages are SP".
        let g = rmat(10);
        let store = build_graph_store(&g, small_cfg()).unwrap();
        assert!(store.small_pids().len() > store.large_pids().len());
    }
}
