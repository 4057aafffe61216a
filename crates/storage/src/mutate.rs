//! Batched edge mutations against a built [`GraphStore`].
//!
//! GTS builds the slotted page store once and streams it forever; a live
//! serving deployment needs the topology to change *between* sweeps. This
//! module applies a [`MutationBatch`] (ordered edge insertions/deletions)
//! atomically to the store:
//!
//! * **In-place rewrites.** A Small Page with enough slack absorbs the new
//!   adjacency directly: the page is rebuilt in slot order — a changed
//!   record encoded from its new adjacency, every other record's packed
//!   bytes copied from the old page undecoded — sealed with a fresh
//!   trailer checksum, and replaces the old page under the same page ID,
//!   so every inbound [`RecordId`] stays valid.
//! * **Spill to delta pages.** When a Small Page overflows its budget, the
//!   vertex with the largest record (ties to the lowest VID) is *spilled*:
//!   its home record is rewritten zero-length and its **entire** adjacency
//!   moves to newly appended Large-kind *delta pages*, one vertex per page,
//!   registered in the RVT with `LP_RANGE = 0`. Keeping home records
//!   all-or-nothing is what keeps the per-record degree arithmetic (e.g.
//!   PageRank's scatter shares) correct without auxiliary tables.
//! * **Large-Page growth.** A high-degree vertex keeps its fixed home run
//!   of chunks (refilled in order); overflow beyond the run's capacity
//!   goes to delta pages, and shrinkage leaves trailing chunks empty
//!   (`count = 0`), which is structurally valid.
//!
//! No record ID ever names a delta page — [`GraphStore::rid_of_vertex`]
//! always answers with the home page — so mutation never invalidates
//! adjacency data in *other* pages. The price is that a sweep which marks
//! a vertex's home page must widen its plan by
//! [`GraphStore::delta_pids_for_page`] to see the spilled edges.
//!
//! **Atomicity.** The batch is validated and fully staged (replacement
//! pages, appended pages, RVT entries) before anything is installed; any
//! error — unknown endpoint, missing edge on delete, page-ID exhaustion —
//! leaves the store byte-identical to its pre-batch state.
//!
//! **Epoch.** Every applied non-empty batch bumps [`GraphStore::epoch`].
//! The checkpoint fingerprint folds the epoch in, so a snapshot taken
//! before a batch refuses to resume against the mutated store with a
//! typed mismatch error.
//!
//! Application is single-threaded and iterates only ordered containers,
//! so the resulting page bytes are identical regardless of host thread
//! count — the same determinism contract the rest of the engine holds.

use crate::builder::GraphStore;
use crate::format::{PageKind, RecordId};
use crate::page::{encode_large_page, AdjRun, Page, SmallPageEncoder};
use crate::rvt::RvtEntry;
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// One edge mutation. Endpoints are vertex IDs; the vertex set is fixed
/// at build time (mutations change edges, not the vertex universe).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeOp {
    /// Add a directed edge `src → dst`. Parallel edges are allowed (the
    /// store is a multigraph, matching the builder's behaviour).
    Insert {
        /// Source vertex.
        src: u64,
        /// Destination vertex.
        dst: u64,
    },
    /// Remove one directed edge `src → dst` (the first matching record).
    Delete {
        /// Source vertex.
        src: u64,
        /// Destination vertex.
        dst: u64,
    },
}

/// An ordered batch of edge mutations, applied atomically between sweeps.
#[derive(Debug, Clone, Default)]
pub struct MutationBatch {
    ops: Vec<EdgeOp>,
}

impl MutationBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queue an edge insertion.
    pub fn insert(&mut self, src: u64, dst: u64) -> &mut Self {
        self.ops.push(EdgeOp::Insert { src, dst });
        self
    }

    /// Queue an edge deletion.
    pub fn delete(&mut self, src: u64, dst: u64) -> &mut Self {
        self.ops.push(EdgeOp::Delete { src, dst });
        self
    }

    /// Queue a pre-built op.
    pub fn push(&mut self, op: EdgeOp) -> &mut Self {
        self.ops.push(op);
        self
    }

    /// The queued ops in application order.
    pub fn ops(&self) -> &[EdgeOp] {
        &self.ops
    }

    /// Number of queued ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Why a mutation batch was rejected. The store is untouched in every
/// case — application is all-or-nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MutateError {
    /// An op names a vertex outside the store's fixed vertex set.
    VertexOutOfRange {
        /// The offending vertex ID.
        vid: u64,
        /// The store's vertex count.
        num_vertices: u64,
    },
    /// A delete names an edge the store does not hold.
    EdgeNotFound {
        /// Source vertex.
        src: u64,
        /// Destination vertex.
        dst: u64,
    },
    /// Delta-page allocation would exceed the physical-ID config's
    /// addressable page range.
    TooManyPages {
        /// Pages the store would need.
        needed: u64,
        /// Exclusive page-ID bound of the configuration.
        max: u64,
    },
}

impl fmt::Display for MutateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MutateError::VertexOutOfRange { vid, num_vertices } => {
                write!(
                    f,
                    "mutation names vertex {vid} but the store has {num_vertices} vertices"
                )
            }
            MutateError::EdgeNotFound { src, dst } => {
                write!(
                    f,
                    "mutation deletes edge {src} -> {dst}, which does not exist"
                )
            }
            MutateError::TooManyPages { needed, max } => write!(
                f,
                "mutation needs {needed} pages but the physical-ID config addresses only {max}"
            ),
        }
    }
}

impl std::error::Error for MutateError {}

/// What a successfully applied batch did to the store.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MutationOutcome {
    /// Edges inserted.
    pub inserted: u64,
    /// Edges deleted.
    pub deleted: u64,
    /// Existing pages rewritten in place (same pid, new bytes).
    pub pages_rewritten: u64,
    /// Delta pages appended.
    pub delta_pages_allocated: u64,
    /// Pids of rewritten existing pages, ascending. These drive targeted
    /// cache/MMBuf invalidation: any cached copy is stale.
    pub dirty_pids: Vec<u64>,
    /// Pids of appended delta pages, ascending. These need placement on
    /// the storage array's surviving drives.
    pub new_pids: Vec<u64>,
    /// Store epoch after application.
    pub epoch: u64,
}

/// Where one slot of a rebuilt Small Page takes its record from.
enum SlotSource<'a> {
    /// Not named by the batch: the old page's record, still packed.
    Kept(AdjRun<'a>),
    /// The batch's new adjacency; empty for a spilled vertex, whose home
    /// record stays zero-length.
    New(&'a [RecordId]),
}

impl SlotSource<'_> {
    /// `ADJLIST_SZ` of the record the slot will get.
    fn len(&self) -> usize {
        match self {
            SlotSource::Kept(run) => run.len(),
            SlotSource::New(adj) => adj.len(),
        }
    }
}

impl GraphStore {
    /// Full current adjacency of `vid`: home record (Small) or home chunk
    /// run (Large), followed by any delta pages, in stored order.
    fn current_adjacency(&self, vid: u64) -> Vec<RecordId> {
        let home = self.vertex_rid[vid as usize];
        let mut adj = Vec::new();
        let hv = self.view(home.pid);
        match hv.kind() {
            PageKind::Small => adj.extend(hv.sp_adj_run(home.slot)),
            PageKind::Large => {
                let run = self.rvt.entry(home.pid).lp_range.unwrap_or(0) as u64;
                for pid in home.pid..=home.pid + run {
                    adj.extend(self.view(pid).lp_adj_run());
                }
            }
        }
        if let Some(dps) = self.delta_pages.get(&vid) {
            for &pid in dps {
                adj.extend(self.view(pid).lp_adj_run());
            }
        }
        adj
    }

    /// Lazily materialise the overlay adjacency for `vid`.
    fn overlay_adj<'m>(
        &self,
        overlay: &'m mut BTreeMap<u64, Vec<RecordId>>,
        vid: u64,
    ) -> &'m mut Vec<RecordId> {
        overlay
            .entry(vid)
            .or_insert_with(|| self.current_adjacency(vid))
    }

    /// Apply `batch` atomically. On success the store's epoch is bumped
    /// and the returned [`MutationOutcome`] lists the pages whose bytes
    /// changed; on any error the store is byte-identical to before.
    ///
    /// An empty batch is a no-op (the epoch does not move).
    pub fn apply_mutations(
        &mut self,
        batch: &MutationBatch,
    ) -> Result<MutationOutcome, MutateError> {
        if batch.is_empty() {
            return Ok(MutationOutcome {
                epoch: self.epoch,
                ..MutationOutcome::default()
            });
        }
        let n = self.num_vertices();
        for op in batch.ops() {
            let (&src, &dst) = match op {
                EdgeOp::Insert { src, dst } | EdgeOp::Delete { src, dst } => (src, dst),
            };
            for vid in [src, dst] {
                if vid >= n {
                    return Err(MutateError::VertexOutOfRange {
                        vid,
                        num_vertices: n,
                    });
                }
            }
        }

        // --- Stage 1: per-vertex adjacency overlays. ---
        let mut overlay: BTreeMap<u64, Vec<RecordId>> = BTreeMap::new();
        let mut inserted = 0u64;
        let mut deleted = 0u64;
        for op in batch.ops() {
            match *op {
                EdgeOp::Insert { src, dst } => {
                    let rid = self.rid_of_vertex(dst);
                    self.overlay_adj(&mut overlay, src).push(rid);
                    inserted += 1;
                }
                EdgeOp::Delete { src, dst } => {
                    let adj = self.overlay_adj(&mut overlay, src);
                    let pos = adj.iter().position(|&r| self.rvt.translate(r) == dst);
                    match pos {
                        Some(p) => {
                            adj.remove(p);
                            deleted += 1;
                        }
                        None => return Err(MutateError::EdgeNotFound { src, dst }),
                    }
                }
            }
        }

        // --- Stage 2: route overlays to rewrite paths. ---
        // Small-Page vertices still resident in their home record group by
        // home page; already-spilled Small-Page vertices and Large-Page
        // vertices get whole-adjacency rewrites.
        let mut sp_touched: BTreeSet<u64> = BTreeSet::new();
        let mut delta_rewrites: BTreeMap<u64, Cow<'_, [RecordId]>> = BTreeMap::new();
        for (&vid, adj) in &overlay {
            let home = self.vertex_rid[vid as usize].pid;
            if self.view(home).kind() == PageKind::Large || self.delta_pages.contains_key(&vid) {
                delta_rewrites.insert(vid, Cow::Borrowed(adj.as_slice()));
            } else {
                sp_touched.insert(home);
            }
        }

        // --- Stage 3: rebuild touched Small Pages, spilling on overflow. ---
        let mut replaced: BTreeMap<u64, (Page, u64)> = BTreeMap::new();
        let budget = self.cfg.sp_budget();
        let mut slots: Vec<(u64, SlotSource<'_>)> = Vec::new();
        for &pid in &sp_touched {
            slots.clear();
            slots.extend(self.view(pid).sp_vertices().map(|(vid, run)| {
                let source = match overlay.get(&vid) {
                    _ if self.delta_pages.contains_key(&vid) => SlotSource::New(&[]),
                    Some(adj) => SlotSource::New(adj),
                    None => SlotSource::Kept(run),
                };
                (vid, source)
            }));
            let foot = |len: usize| self.cfg.sp_vertex_bytes(len);
            let mut total: usize = slots.iter().map(|(_, src)| foot(src.len())).sum();
            // Spill the largest record (ties to the lowest VID) until the
            // page fits again. This always terminates: the all-spilled
            // page costs `count` empty records, which fit by construction
            // (the builder packed `count` non-smaller records here).
            while total > budget {
                let mut best: Option<(usize, usize)> = None;
                for (s, (_, src)) in slots.iter().enumerate() {
                    if src.len() > best.map_or(0, |(_, len)| len) {
                        best = Some((s, src.len()));
                    }
                }
                let Some((s, len)) = best else { break };
                total = total - foot(len) + foot(0);
                let (vid, src) = &mut slots[s];
                let adj = match std::mem::replace(src, SlotSource::New(&[])) {
                    SlotSource::New(adj) => Cow::Borrowed(adj),
                    SlotSource::Kept(run) => Cow::Owned(run.collect()),
                };
                delta_rewrites.insert(*vid, adj);
            }
            let mut enc = SmallPageEncoder::new(self.cfg);
            let mut edges = 0u64;
            for (vid, src) in &slots {
                edges += src.len() as u64;
                match src {
                    SlotSource::New(adj) => enc.push_vertex(*vid, adj),
                    SlotSource::Kept(run) => enc.push_run(*vid, run),
                };
            }
            replaced.insert(pid, (enc.finish(pid), edges));
        }

        // --- Stage 4: whole-adjacency rewrites over home runs + deltas. ---
        let mut appended: Vec<(u64, Page, u64)> = Vec::new();
        let mut new_delta: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        let mut next_pid = self.pages.len() as u64;
        let cap = self.cfg.lp_capacity();
        for (&vid, adj) in &delta_rewrites {
            let home = self.vertex_rid[vid as usize];
            let mut seq: Vec<u64> = Vec::new();
            if self.view(home.pid).kind() == PageKind::Large {
                let run = self.rvt.entry(home.pid).lp_range.unwrap_or(0) as u64;
                seq.extend(home.pid..=home.pid + run);
            }
            if let Some(dp) = self.delta_pages.get(&vid) {
                seq.extend_from_slice(dp);
            }
            let mut offset = 0usize;
            for &pid in &seq {
                let a = offset.min(adj.len());
                let b = (offset + cap).min(adj.len());
                let page = encode_large_page(self.cfg, pid, vid, &adj[a..b]);
                replaced.insert(pid, (page, (b - a) as u64));
                offset += cap;
            }
            while offset < adj.len() {
                let b = (offset + cap).min(adj.len());
                let pid = next_pid;
                next_pid += 1;
                let page = encode_large_page(self.cfg, pid, vid, &adj[offset..b]);
                appended.push((pid, page, (b - offset) as u64));
                new_delta.entry(vid).or_default().push(pid);
                offset += cap;
            }
        }

        // The whole batch is staged; check the page-ID bound before any
        // install so exhaustion aborts with the store untouched.
        if next_pid > self.cfg.id.max_page_id() {
            return Err(MutateError::TooManyPages {
                needed: next_pid,
                max: self.cfg.id.max_page_id(),
            });
        }

        // --- Stage 5: install. ---
        let mut dirty_pids = Vec::with_capacity(replaced.len());
        let pages_rewritten = replaced.len() as u64;
        let delta_pages_allocated = appended.len() as u64;
        for (pid, (page, edges)) in replaced {
            let old = self.edges_per_page[pid as usize];
            self.num_edges = self.num_edges - old + edges;
            self.edges_per_page[pid as usize] = edges;
            self.pages[pid as usize] = page;
            dirty_pids.push(pid);
        }
        let mut new_pids = Vec::with_capacity(appended.len());
        for (pid, page, edges) in appended {
            self.pages.push(page);
            self.rvt.push_entry(RvtEntry {
                start_vid: self.view(pid).lp_vid(),
                lp_range: Some(0),
            });
            self.large_pids.push(pid);
            self.edges_per_page.push(edges);
            self.num_edges += edges;
            new_pids.push(pid);
        }
        for (vid, pids) in new_delta {
            self.delta_pages.entry(vid).or_default().extend(pids);
        }
        self.epoch += 1;
        Ok(MutationOutcome {
            inserted,
            deleted,
            pages_rewritten,
            delta_pages_allocated,
            dirty_pids,
            new_pids,
            epoch: self.epoch,
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests panic on failure by design
mod tests {
    use super::*;
    use crate::builder::build_graph_store;
    use crate::format::{PageFormatConfig, PhysicalIdConfig};
    use gts_graph::EdgeList;

    fn cfg() -> PageFormatConfig {
        PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 256)
    }

    fn store_of(n: u32, edges: Vec<(u32, u32)>) -> GraphStore {
        build_graph_store(&EdgeList::new(n, edges), cfg()).expect("build")
    }

    fn edges_of(store: &GraphStore) -> Vec<(u64, u64)> {
        store.decode_edges()
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let mut store = store_of(4, vec![(0, 1), (1, 2)]);
        let before = edges_of(&store);
        let out = store.apply_mutations(&MutationBatch::new()).unwrap();
        assert_eq!(out.epoch, 0);
        assert_eq!(store.epoch(), 0);
        assert_eq!(edges_of(&store), before);
    }

    #[test]
    fn insert_within_slack_rewrites_in_place() {
        let mut store = store_of(4, vec![(0, 1), (1, 2)]);
        let mut b = MutationBatch::new();
        b.insert(0, 3).insert(2, 0);
        let out = store.apply_mutations(&b).unwrap();
        assert_eq!(out.inserted, 2);
        assert_eq!(out.deleted, 0);
        assert!(
            out.new_pids.is_empty(),
            "slack insert must not grow the store"
        );
        assert_eq!(out.epoch, 1);
        assert_eq!(store.epoch(), 1);
        assert_eq!(edges_of(&store), vec![(0, 1), (0, 3), (1, 2), (2, 0)]);
        assert_eq!(store.num_edges(), 4);
    }

    #[test]
    fn delete_removes_one_edge_of_a_multigraph() {
        let mut store = store_of(3, vec![(0, 1), (0, 1), (0, 2)]);
        let mut b = MutationBatch::new();
        b.delete(0, 1);
        let out = store.apply_mutations(&b).unwrap();
        assert_eq!(out.deleted, 1);
        assert_eq!(edges_of(&store), vec![(0, 1), (0, 2)]);
    }

    #[test]
    fn delete_of_missing_edge_is_typed_and_atomic() {
        let mut store = store_of(3, vec![(0, 1)]);
        let before = edges_of(&store);
        let mut b = MutationBatch::new();
        b.insert(1, 2).delete(2, 0);
        let err = store.apply_mutations(&b).unwrap_err();
        assert_eq!(err, MutateError::EdgeNotFound { src: 2, dst: 0 });
        // The insert queued before the bad delete must not have landed.
        assert_eq!(edges_of(&store), before);
        assert_eq!(store.epoch(), 0);
    }

    #[test]
    fn out_of_range_endpoint_is_typed() {
        let mut store = store_of(3, vec![(0, 1)]);
        let mut b = MutationBatch::new();
        b.insert(0, 7);
        let err = store.apply_mutations(&b).unwrap_err();
        assert_eq!(
            err,
            MutateError::VertexOutOfRange {
                vid: 7,
                num_vertices: 3
            }
        );
        assert!(err.to_string().contains("vertex 7"));
    }

    #[test]
    fn overflow_spills_whole_vertex_to_delta_pages() {
        // 13 one-edge vertices fill a 256-byte page exactly (see the
        // page encoder's capacity test); inserting into one of them must
        // spill a vertex rather than overflow the page.
        // 13 one-edge vertices leave 6 bytes of slack in a 256-byte page
        // (see the page encoder's capacity test): one extra rid (4 bytes)
        // still fits in place, two cannot.
        let n = 13u32;
        let edges: Vec<(u32, u32)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
        let mut store = store_of(n, edges.clone());
        assert_eq!(store.num_pages(), 1);
        let mut b = MutationBatch::new();
        b.insert(5, 0).insert(5, 1);
        let out = store.apply_mutations(&b).unwrap();
        assert_eq!(out.dirty_pids, vec![0]);
        assert!(
            !out.new_pids.is_empty(),
            "the page was full: something must spill"
        );
        assert!(store.has_delta_pages());
        let mut want: Vec<(u64, u64)> = edges.iter().map(|&(s, d)| (s as u64, d as u64)).collect();
        want.push((5, 0));
        want.push((5, 1));
        want.sort_unstable();
        assert_eq!(edges_of(&store), want);
        // Vertex 5 gained the edges, so it has the largest record and is
        // the spill victim; its rid must still name the home page.
        assert_eq!(store.rid_of_vertex(5).pid, 0);
        assert_eq!(store.delta_pids_of(5), out.new_pids.as_slice());
        assert_eq!(store.delta_pids_for_page(0), out.new_pids);
        // Later mutations of the spilled vertex go to its delta pages.
        let mut b2 = MutationBatch::new();
        b2.insert(5, 7).delete(5, 6);
        store.apply_mutations(&b2).unwrap();
        let mut want2: Vec<(u64, u64)> = want.clone();
        want2.push((5, 7));
        want2.retain(|&e| e != (5, 6)); // 5→6 appeared exactly once
        want2.sort_unstable();
        assert_eq!(edges_of(&store), want2);
        assert_eq!(store.epoch(), 2);
    }

    #[test]
    fn large_page_vertex_grows_into_delta_and_shrinks_to_empty_chunks() {
        // Vertex 0 has 300 edges → LP run (58 rids per 256-byte page).
        let mut edges: Vec<(u32, u32)> = (0..300).map(|i| (0, 1 + (i % 300))).collect();
        edges.push((5, 0));
        let mut store = store_of(301, edges.clone());
        let run_pages = store.large_pids().len();
        // Grow past the run's capacity: 6 chunks hold 348; add 60 edges.
        let mut b = MutationBatch::new();
        for i in 0..60 {
            b.insert(0, 1 + (i % 300) as u64);
        }
        let out = store.apply_mutations(&b).unwrap();
        assert!(!out.new_pids.is_empty());
        assert_eq!(store.num_edges(), 301 + 60);
        assert_eq!(store.large_pids().len(), run_pages + out.new_pids.len());
        // Shrink far below one chunk: trailing chunks empty out but stay.
        let mut b2 = MutationBatch::new();
        for i in 0..350 {
            b2.delete(0, 1 + (i % 300) as u64);
        }
        store.apply_mutations(&b2).unwrap();
        assert_eq!(store.num_edges(), 301 + 60 - 350);
        let got = edges_of(&store);
        assert_eq!(got.iter().filter(|&&(s, _)| s == 0).count(), 10);
        assert!(got.contains(&(5, 0)));
        // Page count never shrinks; record IDs into the run stay valid.
        assert_eq!(store.rvt().translate(store.rid_of_vertex(0)), 0);
    }

    #[test]
    fn page_exhaustion_aborts_atomically() {
        // p=1 addresses 256 pages. Build small, then grow one vertex far
        // enough to need more delta pages than remain addressable.
        let cfg = PageFormatConfig::new(PhysicalIdConfig::new(1, 2), 64);
        let g = EdgeList::new(64, (0..63).map(|v| (v, v + 1)).collect());
        let mut store = build_graph_store(&g, cfg).expect("build");
        let before = store.decode_edges();
        let pages_before = store.num_pages();
        let mut b = MutationBatch::new();
        for i in 0..30_000u64 {
            b.insert(0, i % 64);
        }
        match store.apply_mutations(&b) {
            Err(MutateError::TooManyPages { needed, max }) => {
                assert!(needed > max);
                assert_eq!(max, 256);
            }
            other => panic!("expected TooManyPages, got {other:?}"),
        }
        assert_eq!(store.num_pages(), pages_before);
        assert_eq!(store.decode_edges(), before);
        assert_eq!(store.epoch(), 0);
    }

    #[test]
    fn edges_per_page_stays_consistent_after_mutations() {
        let n = 13u32;
        let edges: Vec<(u32, u32)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
        let mut store = store_of(n, edges);
        let mut b = MutationBatch::new();
        b.insert(5, 0).insert(2, 7).delete(3, 4);
        store.apply_mutations(&b).unwrap();
        let total: u64 = (0..store.num_pages()).map(|p| store.edges_in_page(p)).sum();
        assert_eq!(total, store.num_edges());
    }

    #[test]
    fn mutated_store_reconstructs_with_delta_pages() {
        let n = 13u32;
        let edges: Vec<(u32, u32)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
        let mut store = store_of(n, edges);
        let mut b = MutationBatch::new();
        b.insert(5, 0).insert(5, 1).insert(6, 2);
        store.apply_mutations(&b).unwrap();
        assert!(store.has_delta_pages());
        let rebuilt = GraphStore::reconstruct(cfg(), store.pages().to_vec(), store.num_vertices())
            .expect("reconstruct");
        assert_eq!(rebuilt.decode_edges(), store.decode_edges());
        assert_eq!(rebuilt.delta_pids_of(5), store.delta_pids_of(5));
        assert_eq!(rebuilt.num_edges(), store.num_edges());
        // The epoch is an in-memory session counter, not persisted.
        assert_eq!(rebuilt.epoch(), 0);
    }

    #[test]
    fn try_view_rejects_out_of_range_pid() {
        let store = store_of(3, vec![(0, 1)]);
        let err = match store.try_view(999) {
            Ok(_) => panic!("pid 999 must be rejected"),
            Err(e) => e,
        };
        match err {
            crate::device::StorageError::BadPid { pid, num_pages } => {
                assert_eq!(pid, 999);
                assert_eq!(num_pages, store.num_pages());
            }
            other => panic!("expected BadPid, got {other:?}"),
        }
        assert!(store.try_view(0).is_ok());
    }
}
