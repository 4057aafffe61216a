//! Batched edge mutations against a built [`GraphStore`].
//!
//! GTS builds the slotted page store once and streams it forever; a live
//! serving deployment needs the topology to change *between* sweeps. This
//! module applies a [`MutationBatch`] (ordered edge insertions/deletions)
//! atomically to the store:
//!
//! * **In-place rewrites.** A Small Page with enough slack absorbs the new
//!   adjacency directly: the page is rebuilt in slot order — a changed
//!   record encoded from its new adjacency, each run of unchanged records
//!   copied from the old page as one block — sealed with a fresh trailer
//!   checksum, and replaces the old page under the same page ID, so every
//!   inbound [`crate::format::RecordId`] stays valid. A page so built is
//!   installed with that checksum marked as matched: the next view of
//!   it walks its layout without hashing it again.
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
//! **Structure per call, bytes on first read.** One engine call takes
//! k ≥ 1 batches (`GraphStore::apply_batches`;
//! [`GraphStore::apply_mutations`] is its k = 1 call). Each batch, in
//! order, makes every structural decision — per-vertex adjacency, routing,
//! spill victims, chunk lists, delta-page IDs, per-page edge counts, RVT
//! entries, the epoch — against the structure the batches before it left,
//! and commits it. What the page bytes still lack stays in the store as a
//! *pending overlay* that persists across calls: each touched vertex's
//! adjacency in its packed on-page form, each changed Small Page's touched
//! slots, and the re-chunked vertices.
//! A vertex's adjacency is read off its pages once and edited in the
//! overlay after that, deletes included: a delete removes the first entry
//! whose packed bytes are its target's record ID, which is exact because
//! every stored record ID is the canonical one (the builder and this
//! module write only [`GraphStore::rid_of_vertex`], and
//! [`crate::file::load_store`] refuses any other).
//!
//! **Bytes on first read.** A changed page is built on its first read
//! ([`GraphStore::page`], so every view, `save_store`, scrub and fsck): a
//! Small Page by one span walk over its *base*, the page as the first
//! pending call found it, which the build then frees; a chunk, new delta
//! pages included, from its vertex's adjacency alone, so a pending
//! chunk's old bytes are freed at once; then one seal. A per-page
//! `OnceLock` makes the build happen once under shared reads, so phase A
//! stays parallel. The next mutation call installs what reads built and
//! drops the overlay entries no pending page needs; a
//! re-chunked vertex whose adjacency exceeds one page of bytes has its
//! chunks built before its call returns, so the overlay holds about one
//! page per pending page. Small Pages are canonical and a chunk is a
//! function of its vertex's adjacency and chunk list, so the bytes depend
//! only on the final structure: the same however batches are grouped into
//! calls and whenever the pages are read.
//!
//! **Atomicity, per batch.** A batch is validated and all of its decisions
//! are made before any is committed; any error — unknown endpoint,
//! missing edge on delete, page-ID exhaustion — discards the batch whole,
//! and the store reads as after the batches before it (for a one-batch
//! call, as before the call). The error is returned.
//!
//! **Epoch.** Every applied non-empty batch bumps [`GraphStore::epoch`].
//! The checkpoint fingerprint folds the epoch in, so a snapshot taken
//! before a batch refuses to resume against the mutated store with a
//! typed mismatch error.
//!
//! Application is single-threaded and iterates only ordered containers,
//! and a page's bytes depend only on the structure, so they are identical
//! regardless of host thread count or of which read builds them — the
//! same determinism contract the rest of the engine holds.

use crate::builder::{GraphStore, StoreShape};
use crate::format::PageKind;
use crate::page::{encode_large_run, PackedAdj, Page, PageView, SmallPageEncoder};
use crate::rvt::RvtEntry;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

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

impl FromIterator<EdgeOp> for MutationBatch {
    fn from_iter<I: IntoIterator<Item = EdgeOp>>(ops: I) -> Self {
        Self {
            ops: ops.into_iter().collect(),
        }
    }
}

/// Why a mutation batch was rejected. Nothing of the batch is applied in
/// any case — application is all-or-nothing per batch.
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

/// What mutation calls committed that no read has built into page bytes
/// yet; it feeds the next call's reads of a vertex's adjacency, and
/// [`GraphStore::build_pending`]. Invariants: a page is pending iff its
/// [`Page::rebuilt`] is set, iff it is a key of `slots` or a chunk of a
/// `chunked` vertex; `adj` holds exactly the vertices with a pending
/// resident record (a touched slot of an unspilled vertex) or in
/// `chunked`.
#[derive(Debug, Clone, Default)]
pub(crate) struct Pending {
    /// Current adjacency of every vertex named above.
    adj: BTreeMap<u64, PackedAdj>,
    /// Per pending Small Page, the slots whose record changed since its
    /// base.
    slots: BTreeMap<u64, BTreeSet<u32>>,
    /// Vertices whose chunk pages — home run and delta pages — are
    /// pending.
    chunked: BTreeSet<u64>,
    /// Pages built so far (a diagnostic count).
    built: Built,
}

impl Pending {
    /// Drop the entries of `store`'s pages that are no longer pending,
    /// restoring the invariants.
    fn retain_needed(&mut self, store: &GraphStore) {
        let is_pending = |pid: u64| store.pages.get(KEY)[pid as usize].rebuilt.is_some();
        self.slots.retain(|&pid, _| is_pending(pid));
        self.chunked
            .retain(|&vid| store.chunk_pids(vid).into_iter().any(is_pending));
        if self.slots.is_empty() && self.chunked.is_empty() {
            self.adj.clear();
            return;
        }
        let (slots, chunked) = (&self.slots, &self.chunked);
        self.adj.retain(|&vid, _| {
            let home = store.vertex_rid[vid as usize];
            let resident = !store.delta_pages.contains_key(&vid)
                && slots.get(&home.pid).is_some_and(|s| s.contains(&home.slot));
            resident || chunked.contains(&vid)
        });
    }
}

/// The mutation engine's capability. The store's page vector
/// ([`crate::builder::Pages`]) and [`Page::trust_own_seal`] take one, and
/// its field is private to this module, so no other module can make one:
/// only this engine indexes the page vector beside the builder, and only
/// a page it has just built and sealed skips its hash.
#[derive(Clone, Copy)]
pub(crate) struct MutationKey(());

const KEY: MutationKey = MutationKey(());

/// A pending page's cell. Between calls a Small Page's base — the page as
/// the first pending call found it — is parked here; the first read
/// builds the page from it and then frees it, so a built page is held
/// once. A call works on the base in the page vector instead. The built
/// page stays here until the next call installs it.
#[derive(Debug, Default)]
pub(crate) struct Rebuild {
    base: Mutex<Option<Page>>,
    /// Whether `base` may still hold a page, so that a read of a built
    /// page costs one load rather than a lock.
    parked: AtomicBool,
    built: OnceLock<Page>,
}

impl Rebuild {
    // The lock is held to build from the base, to take it or to store
    // it, so a poisoned lock still holds a valid value.
    fn base(&self) -> MutexGuard<'_, Option<Page>> {
        self.base.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The page, built by `build` from the parked base on the first call.
    /// The base is freed only once the page is published, so a clone made
    /// meanwhile holds one or the other.
    pub(crate) fn get_or_build(&self, build: impl FnOnce(Option<&Page>) -> Page) -> &Page {
        let page = self.built.get_or_init(|| build(self.base().as_ref()));
        if self.parked.load(Ordering::Relaxed) {
            self.base().take();
            self.parked.store(false, Ordering::Relaxed);
        }
        page
    }

    fn park(&mut self, base: Page) {
        *self.base.get_mut().unwrap_or_else(PoisonError::into_inner) = Some(base);
        *self.parked.get_mut() = true;
    }

    fn unpark(&mut self) -> Option<Page> {
        *self.parked.get_mut() = false;
        self.base
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
    }
}

impl Clone for Rebuild {
    fn clone(&self) -> Self {
        let base = self.base().clone();
        Rebuild {
            parked: AtomicBool::new(base.is_some()),
            base: Mutex::new(base),
            built: self.built.clone(),
        }
    }
}

/// A clonable build counter.
#[derive(Debug, Default)]
struct Built(AtomicU64);

impl Clone for Built {
    fn clone(&self) -> Self {
        Built(AtomicU64::new(self.0.load(Ordering::Relaxed)))
    }
}

impl GraphStore {
    /// Apply `batch` atomically. On success the store's epoch is bumped
    /// and the returned [`MutationOutcome`] lists the pages whose bytes
    /// changed; on any error the store reads as before.
    ///
    /// An empty batch is a no-op (the epoch does not move). This is the
    /// one-batch call of `GraphStore::apply_batches`.
    pub fn apply_mutations(
        &mut self,
        batch: &MutationBatch,
    ) -> Result<MutationOutcome, MutateError> {
        self.settle();
        let outcome = self.commit(batch);
        self.leave_pending();
        outcome
    }

    /// Apply `batches` in order in one call, asking `done` after each
    /// applied one and stopping once it holds; returns how many were
    /// applied. Each batch commits its structure, epoch included, before
    /// `done` sees it; the pages it changed are built on their first
    /// read, into the bytes the same batches applied one call each would
    /// leave. A batch that fails is discarded whole: the store reads as
    /// after the batches before it, and the error is returned.
    pub(crate) fn apply_batches<'b>(
        &mut self,
        batches: impl IntoIterator<Item = &'b MutationBatch>,
        mut done: impl FnMut(&StoreShape) -> bool,
    ) -> Result<u64, MutateError> {
        self.settle();
        let (mut applied, mut failed) = (0, None);
        for batch in batches {
            if let Err(e) = self.commit(batch) {
                failed = Some(e);
                break;
            }
            applied += 1;
            if done(&self.shape()) {
                break;
            }
        }
        self.leave_pending();
        failed.map_or(Ok(applied), Err)
    }

    /// Pages this store, and the stores it was cloned from, built from
    /// pending mutations ([`GraphStore::page`]).
    pub fn pages_built(&self) -> u64 {
        self.pending.built.0.load(Ordering::Relaxed)
    }

    /// The pages holding `vid`'s adjacency past its home record: its
    /// Large home run, if it has one, then its delta pages.
    fn chunk_pids(&self, vid: u64) -> Vec<u64> {
        let home = self.vertex_rid[vid as usize];
        let mut pids = Vec::new();
        if self.pages.get(KEY)[home.pid as usize].kind == PageKind::Large {
            pids.extend(self.run_pids(home.pid));
        }
        pids.extend_from_slice(self.delta_pids_of(vid));
        pids
    }

    /// The base of page `pid` (the page itself, unless it is pending),
    /// verified.
    fn base_view(&self, pid: u64) -> PageView<'_> {
        self.verified(&self.pages.get(KEY)[pid as usize])
    }

    /// `vid`'s adjacency as the committed structure has it: from the
    /// overlay, or else off its pages — the home record (unless the
    /// vertex spilled, which empties it) or home run, then any delta
    /// pages, in stored order. A vertex outside the overlay has no
    /// pending chunk and, unless spilled, no pending record.
    fn current(&self, vid: u64) -> PackedAdj {
        if let Some(adj) = self.pending.adj.get(&vid) {
            return adj.clone();
        }
        let home = self.vertex_rid[vid as usize];
        let mut adj = PackedAdj::new(self.cfg.id);
        let spilled = self.delta_pages.contains_key(&vid);
        if self.pages.get(KEY)[home.pid as usize].kind == PageKind::Small && !spilled {
            adj.extend(self.base_view(home.pid).sp_adj_run(home.slot));
        }
        for pid in self.chunk_pids(vid) {
            adj.extend(self.base_view(pid).lp_adj_run());
        }
        adj
    }

    /// Length of the record in `slot` of the Small Page `view` (a base)
    /// as the committed structure has it.
    fn record_len(&self, view: &PageView<'_>, slot: u32) -> usize {
        let vid = view.sp_vid(slot);
        if self.delta_pages.contains_key(&vid) {
            0
        } else if let Some(adj) = self.pending.adj.get(&vid) {
            adj.len()
        } else {
            view.sp_adj_len(slot) as usize
        }
    }

    /// Make every structural decision of `batch` and commit them, or
    /// none: on error nothing of the batch is kept.
    fn commit(&mut self, batch: &MutationBatch) -> Result<MutationOutcome, MutateError> {
        let store = &*self;
        if batch.is_empty() {
            return Ok(MutationOutcome {
                epoch: store.epoch,
                ..MutationOutcome::default()
            });
        }
        let n = store.num_vertices();
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

        // --- Stage 1: the batch's ops on its touched vertices' lists. ---
        let mut work: BTreeMap<u64, PackedAdj> = BTreeMap::new();
        let mut inserted = 0u64;
        let mut deleted = 0u64;
        for op in batch.ops() {
            match *op {
                EdgeOp::Insert { src, dst } => {
                    let rid = store.rid_of_vertex(dst);
                    work.entry(src)
                        .or_insert_with(|| store.current(src))
                        .push(rid);
                    inserted += 1;
                }
                EdgeOp::Delete { src, dst } => {
                    let adj = work.entry(src).or_insert_with(|| store.current(src));
                    match adj.position(store.rid_of_vertex(dst)) {
                        Some(p) => {
                            adj.remove(p);
                            deleted += 1;
                        }
                        None => return Err(MutateError::EdgeNotFound { src, dst }),
                    }
                }
            }
        }

        // --- Stage 2: route each touched vertex. ---
        // A Small-Page vertex still resident in its home record is a
        // touched slot of its home page; an already-spilled Small-Page
        // vertex or a Large-Page vertex is re-chunked whole. `work` is in
        // VID order and a Small Page holds consecutive VIDs, so a page's
        // touched slots arrive in ascending slot order.
        let mut sp_touched: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
        let mut rechunk: BTreeSet<u64> = BTreeSet::new();
        for &vid in work.keys() {
            let home = store.vertex_rid[vid as usize];
            if store.pages.get(KEY)[home.pid as usize].kind == PageKind::Large
                || store.delta_pages.contains_key(&vid)
            {
                rechunk.insert(vid);
            } else {
                sp_touched.entry(home.pid).or_default().push(home.slot);
            }
        }

        // --- Stage 3: touched Small Pages' edges, spilling on overflow. ---
        let mut replaced: BTreeMap<u64, u64> = BTreeMap::new();
        let budget = store.cfg.sp_budget();
        let rid_w = store.cfg.id.rid_bytes();
        for (pid, touched) in &mut sp_touched {
            let view = store.base_view(*pid);
            let len_after = |slot: u32| work[&view.sp_vid(slot)].len();
            // A page's footprint is affine in its edges, so only the
            // touched records' lengths are read while it fits.
            let foot = |edges: u64| {
                view.count() as usize * store.cfg.sp_vertex_bytes(0) + edges as usize * rid_w
            };
            let mut edges = store.edges_per_page[*pid as usize];
            for &slot in touched.iter() {
                edges -= store.record_len(&view, slot) as u64;
                edges += len_after(slot) as u64;
            }
            if foot(edges) > budget {
                // Spill the largest record (ties to the lowest VID) until
                // the page fits again; the victim becomes one more touched
                // slot, with an empty record. This always terminates: the
                // all-spilled page costs `count` empty records, which fit
                // by construction (the builder packed `count` non-smaller
                // records here). The lengths are those the committed
                // structure and this batch give.
                let mut lens: Vec<usize> = view.sp_vertices().map(|(_, run)| run.len()).collect();
                for &slot in store.pending.slots.get(pid).into_iter().flatten() {
                    lens[slot as usize] = store.record_len(&view, slot);
                }
                for &slot in touched.iter() {
                    lens[slot as usize] = len_after(slot);
                }
                while foot(edges) > budget {
                    // Of equal maxima `max_by_key` keeps the last, so
                    // walked backwards it keeps the lowest slot.
                    let Some(slot) = (0..view.count()).rev().max_by_key(|&s| lens[s as usize])
                    else {
                        break;
                    };
                    let len = std::mem::take(&mut lens[slot as usize]);
                    if len == 0 {
                        break;
                    }
                    edges -= len as u64;
                    let vid = view.sp_vid(slot);
                    if let Err(i) = touched.binary_search(&slot) {
                        touched.insert(i, slot);
                        work.insert(vid, store.current(vid));
                    }
                    rechunk.insert(vid);
                }
            }
            replaced.insert(*pid, edges);
        }

        // --- Stage 4: chunk each re-chunked vertex over its home run and
        // delta pages, allocating delta pages for what overflows. ---
        let mut appended: Vec<(u64, u64, u64)> = Vec::new();
        let mut next_pid = store.num_pages();
        let cap = store.cfg.lp_capacity();
        for &vid in &rechunk {
            let len = work[&vid].len();
            let mut offset = 0usize;
            for pid in store.chunk_pids(vid) {
                replaced.insert(pid, (offset + cap).min(len).saturating_sub(offset) as u64);
                offset += cap;
            }
            while offset < len {
                appended.push((
                    next_pid,
                    vid,
                    (offset + cap).min(len).saturating_sub(offset) as u64,
                ));
                next_pid += 1;
                offset += cap;
            }
        }
        // The whole batch is decided; check the page-ID bound before any
        // commit so exhaustion discards the batch.
        if next_pid > store.cfg.id.max_page_id() {
            return Err(MutateError::TooManyPages {
                needed: next_pid,
                max: store.cfg.id.max_page_id(),
            });
        }

        // --- Commit the structure; the changed pages become pending. ---
        for (&pid, &edges) in &replaced {
            let old = std::mem::replace(&mut self.edges_per_page[pid as usize], edges);
            self.num_edges = self.num_edges - old + edges;
        }
        let mut new_pids = Vec::with_capacity(appended.len());
        for &(pid, vid, edges) in &appended {
            self.pages
                .get_mut(KEY)
                .push(Page::new(pid, PageKind::Large, Box::default()));
            self.rvt.entries.push(RvtEntry {
                start_vid: vid,
                lp_range: Some(0),
            });
            self.large_pids.push(pid);
            self.edges_per_page.push(edges);
            self.num_edges += edges;
            self.delta_pages.entry(vid).or_default().push(pid);
            new_pids.push(pid);
        }
        for &pid in replaced.keys().chain(&new_pids) {
            let page = &mut self.pages.get_mut(KEY)[pid as usize];
            if page.kind == PageKind::Large {
                // A chunk is built from its vertex's list alone, so its
                // old bytes are dead: a placeholder holds its place.
                *page = Page::new(pid, PageKind::Large, Box::default());
            }
            // `settle` emptied every cell, so one left here is unbuilt.
            page.rebuilt.get_or_insert_with(Box::default);
        }
        self.epoch += 1;
        let pending = &mut self.pending;
        for (pid, touched) in sp_touched {
            pending.slots.entry(pid).or_default().extend(touched);
        }
        pending.chunked.extend(rechunk);
        // Growth slack would outlive the call in the overlay.
        pending
            .adj
            .extend(work.into_iter().map(|(vid, adj)| (vid, adj.trimmed())));
        Ok(MutationOutcome {
            inserted,
            deleted,
            pages_rewritten: replaced.len() as u64,
            delta_pages_allocated: new_pids.len() as u64,
            dirty_pids: replaced.into_keys().collect(),
            new_pids,
            epoch: self.epoch,
        })
    }

    /// Page `pid`, pending, as the committed structure gives it, sealed:
    /// a Small Page by one walk over its base — each maximal run of
    /// unchanged slots one span copy, each changed slot encoded from the
    /// overlay (a spilled one as an empty record) — a chunk from its
    /// vertex's adjacency (chunk `i` holds entries `i * cap ..`). A Small
    /// Page's base is `parked`, or else its entry in the page vector.
    pub(crate) fn build_pending(&self, pid: u64, parked: Option<&Page>) -> Page {
        self.pending.built.0.fetch_add(1, Ordering::Relaxed);
        let adj = &self.pending.adj;
        let page = match self.pages.get(KEY)[pid as usize].kind {
            PageKind::Small => {
                let view = self.verified(parked.unwrap_or(&self.pages.get(KEY)[pid as usize]));
                let mut enc = SmallPageEncoder::new(self.cfg);
                for &slot in &self.pending.slots[&pid] {
                    enc.push_span(&view, enc.num_slots()..slot);
                    let vid = view.sp_vid(slot);
                    if self.delta_pages.contains_key(&vid) {
                        enc.push_vertex(vid, &[]);
                    } else {
                        let list = &adj[&vid];
                        enc.push_run(vid, list.run(0..list.len()));
                    }
                }
                enc.push_span(&view, enc.num_slots()..view.count());
                enc.finish(pid)
            }
            PageKind::Large => {
                let vid = self.rvt.entry(pid).start_vid;
                let (list, cap) = (&adj[&vid], self.cfg.lp_capacity());
                // Chunk pids ascend: the home run, then the delta pages.
                let i = self.chunk_pids(vid).partition_point(|&p| p < pid);
                let run = list.run((i * cap).min(list.len())..((i + 1) * cap).min(list.len()));
                encode_large_run(self.cfg, pid, vid, run)
            }
        };
        page.trust_own_seal(KEY)
    }

    /// Install every pending page a read has built as the page itself,
    /// bring every other pending Small Page's base back for the call to
    /// read, and drop the overlay entries no pending page needs any more.
    fn settle(&mut self) {
        let pids: Vec<u64> = (self.pending.slots.keys().copied())
            .chain(
                self.pending
                    .chunked
                    .iter()
                    .flat_map(|&vid| self.chunk_pids(vid)),
            )
            .collect();
        let mut settled = false;
        for pid in pids {
            let page = &mut self.pages.get_mut(KEY)[pid as usize];
            let Some(cell) = page.rebuilt.as_deref_mut() else {
                continue;
            };
            if let Some(built) = cell.built.take() {
                *page = built;
                settled = true;
            } else if let Some(mut base) = cell.unpark() {
                base.rebuilt = page.rebuilt.take();
                *page = base;
            }
        }
        if settled {
            let mut pending = std::mem::take(&mut self.pending);
            pending.retain_needed(self);
            self.pending = pending;
        }
    }

    /// End a call: build and install the chunks of every re-chunked
    /// vertex whose adjacency exceeds one page of bytes, the bound on
    /// what the overlay holds per pending page; then park each pending
    /// Small Page's base in its cell, for the build to take.
    fn leave_pending(&mut self) {
        let page_size = self.cfg.page_size;
        let big: Vec<u64> = (self.pending.chunked.iter().copied())
            .filter(|vid| self.pending.adj[vid].packed_len() > page_size)
            .collect();
        for vid in big {
            for pid in self.chunk_pids(vid) {
                self.pages.get_mut(KEY)[pid as usize] = self.build_pending(pid, None);
            }
            self.pending.chunked.remove(&vid);
            self.pending.adj.remove(&vid);
        }
        for &pid in self.pending.slots.keys() {
            let page = &mut self.pages.get_mut(KEY)[pid as usize];
            let mut cell = page.rebuilt.take();
            let base = std::mem::replace(page, Page::new(pid, PageKind::Small, Box::default()));
            if let Some(cell) = cell.as_deref_mut() {
                cell.park(base);
            }
            page.rebuilt = cell;
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests panic on failure by design
mod tests {
    use super::*;
    use crate::builder::build_graph_store;
    use crate::format::{PageFormatConfig, PhysicalIdConfig, PAGE_HEADER_BYTES};
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
        assert!(!store.delta_pids_of(5).is_empty());
        let rebuilt = GraphStore::reconstruct(
            cfg(),
            store.pages().into_iter().cloned().collect(),
            &store.page_roles(),
            store.num_vertices(),
        )
        .expect("reconstruct");
        assert_eq!(rebuilt.decode_edges(), store.decode_edges());
        assert_eq!(rebuilt.delta_pids_of(5), store.delta_pids_of(5));
        assert_eq!(rebuilt.num_edges(), store.num_edges());
        // The epoch is an in-memory session counter, not persisted.
        assert_eq!(rebuilt.epoch(), 0);
    }

    /// Apply `batch` to `store` and to the multiset `model`, then check
    /// the edges against the model and every Small Page against the bytes
    /// a whole-page decode + `push_vertex` re-encode would produce.
    fn apply_canonical(store: &mut GraphStore, model: &mut Vec<(u64, u64)>, batch: &MutationBatch) {
        let out = store.apply_mutations(batch).unwrap();
        for op in batch.ops() {
            match *op {
                EdgeOp::Insert { src, dst } => model.push((src, dst)),
                EdgeOp::Delete { src, dst } => {
                    let at = model.iter().position(|&e| e == (src, dst)).unwrap();
                    model.remove(at);
                }
            }
        }
        model.sort_unstable();
        assert_eq!(&edges_of(store), model);
        assert!(!out.dirty_pids.is_empty());
        for pid in 0..store.num_pages() {
            let v = store.view(pid);
            if v.kind() != PageKind::Small {
                continue;
            }
            let mut enc = SmallPageEncoder::new(store.cfg());
            for (vid, run) in v.sp_vertices() {
                enc.push_vertex(vid, &run.collect::<Vec<_>>());
            }
            assert_eq!(store.page(pid).data, enc.finish(pid).data, "page {pid}");
        }
    }

    /// Eight vertices of two edges each: one 256-byte page, 64 bytes free.
    fn two_edge_store() -> (GraphStore, Vec<(u64, u64)>) {
        let edges: Vec<(u32, u32)> = (0..8)
            .flat_map(|v| [(v, (v + 1) % 8), (v, (v + 3) % 8)])
            .collect();
        let store = store_of(8, edges.clone());
        assert_eq!(store.num_pages(), 1);
        let mut model: Vec<(u64, u64)> = edges.iter().map(|&(s, d)| (s as u64, d as u64)).collect();
        model.sort_unstable();
        (store, model)
    }

    #[test]
    fn span_walk_touching_slot_zero_the_last_slot_or_two_neighbours() {
        for touched in [&[0u64][..], &[7], &[3, 4], &[0, 7], &[2, 3, 5, 6]] {
            let (mut store, mut model) = two_edge_store();
            let mut b = MutationBatch::new();
            for &v in touched {
                b.insert(v, (v + 5) % 8);
            }
            apply_canonical(&mut store, &mut model, &b);
            // And back down: each touched record shrinks below its start.
            let mut b = MutationBatch::new();
            for &v in touched {
                b.delete(v, (v + 5) % 8).delete(v, (v + 1) % 8);
            }
            apply_canonical(&mut store, &mut model, &b);
        }
    }

    #[test]
    fn span_walk_touching_every_slot() {
        let (mut store, mut model) = two_edge_store();
        let mut b = MutationBatch::new();
        for v in 0..8 {
            b.insert(v, 7 - v);
        }
        apply_canonical(&mut store, &mut model, &b);
    }

    #[test]
    fn span_walk_shrinking_a_record_to_length_zero() {
        let (mut store, mut model) = two_edge_store();
        let mut b = MutationBatch::new();
        b.delete(5, 6).delete(5, 0);
        apply_canonical(&mut store, &mut model, &b);
        assert_eq!(store.view(0).sp_adj_len(5), 0);
        // An empty record in the middle of a span is copied like any other.
        let mut b = MutationBatch::new();
        b.insert(2, 0).insert(7, 0);
        apply_canonical(&mut store, &mut model, &b);
        assert_eq!(store.view(0).sp_adj_len(5), 0);
    }

    #[test]
    fn spill_victim_outside_the_batch_becomes_an_empty_touched_slot() {
        // Vertices 2 and 7 hold 8 edges each and the eight others one
        // each: 236 of the page's 240 bytes, so one rid of slack. Vertex 6
        // grows by 2 (to 3 < 8): the page overflows, and of the two largest
        // records, which the batch never names, the lower VID's is spilled.
        let mut edges: Vec<(u32, u32)> = (0..10)
            .filter(|&v| v != 2 && v != 7)
            .map(|v| (v, (v + 1) % 10))
            .collect();
        edges.extend((0..8).flat_map(|i| [(2, i), (7, i + 1)]));
        let mut store = store_of(10, edges.clone());
        assert_eq!(store.num_pages(), 1);
        let mut model: Vec<(u64, u64)> = edges.iter().map(|&(s, d)| (s as u64, d as u64)).collect();
        let mut b = MutationBatch::new();
        b.insert(6, 0).insert(6, 1);
        apply_canonical(&mut store, &mut model, &b);
        let v = store.view(0);
        assert_eq!(
            (v.sp_adj_len(2), v.sp_adj_len(6), v.sp_adj_len(7)),
            (0, 3, 8)
        );
        assert_eq!(store.delta_pids_of(2), [1]);
        assert!(store.delta_pids_of(6).is_empty() && store.delta_pids_of(7).is_empty());
    }

    #[test]
    fn apply_sealed_pages_are_trusted_in_memory_only() {
        let n = 13u32;
        let mut store = store_of(n, (0..n).map(|v| (v, (v + 1) % n)).collect());
        let mut b = MutationBatch::new();
        b.insert(5, 0).insert(5, 1);
        let out = store.apply_mutations(&b).unwrap();
        let sealed: Vec<u64> = out
            .dirty_pids
            .iter()
            .chain(&out.new_pids)
            .copied()
            .collect();
        assert_eq!(sealed, [0, 1], "one rebuilt Small Page, one delta page");
        let at = PAGE_HEADER_BYTES + 1;
        for &pid in &sealed {
            let page = store.page(pid);
            assert!(page.checksum_ok(), "page {pid} is sealed");
            // Its bytes anywhere else are untrusted: a copy with one
            // flipped byte is hashed, and refused.
            let mut data = page.data.clone();
            data[at] ^= 0x40;
            let err = Page::new(pid, page.kind, data).verify(cfg()).unwrap_err();
            assert!(err.contains("checksum"), "page {pid}: {err}");
        }
        // `save_store` → `load_store` hashes every page again: the mutated
        // store round-trips, and a flipped byte in a rebuilt page's image
        // is refused.
        let path = std::env::temp_dir().join(format!("gts-mutate-trust-{}", std::process::id()));
        crate::file::save_store(&store, &path).unwrap();
        let loaded = crate::file::load_store(&path).unwrap();
        assert_eq!(loaded.pages(), store.pages());
        assert_eq!(loaded.decode_edges(), store.decode_edges());
        let mut bytes = std::fs::read(&path).unwrap();
        let page0 = bytes.len() - store.num_pages() as usize * cfg().page_size;
        bytes[page0 + at] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let err = crate::file::load_store(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(err.to_string().contains("checksum"), "{err}");
        // In memory the seal is trusted: the first cached check of a
        // sealed page does not hash it, so bytes changed behind the
        // store's back go unseen there, as after any verification.
        let built = store.pages.get_mut(KEY)[0]
            .rebuilt
            .as_mut()
            .and_then(|cell| cell.built.get_mut());
        built.expect("page 0 is built and pending").data[at] ^= 0x40;
        assert!(store.page(0).checksum_ok_cached());
        assert!(!store.page(0).checksum_ok());
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
