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
use crate::mutate::{MutationKey, Pending};
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
///
/// Mutation calls commit structure only; a page they changed is built
/// from [`GraphStore`]'s pending overlay on its first read, which is why
/// every read of page bytes goes through [`GraphStore::page`].
#[derive(Debug, Clone)]
pub struct GraphStore {
    pub(crate) cfg: PageFormatConfig,
    /// Indexed by pid. A pending page's entry is a zero-length
    /// placeholder, except that during a mutation call a pending Small
    /// Page's entry is its base: the page as the first pending call found
    /// it ([`crate::mutate`]).
    pub(crate) pages: Pages,
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
    /// What mutation calls committed that no read has built yet.
    pub(crate) pending: Pending,
}

/// The store's page vector. Its field is private to this module, and the
/// mutation engine reaches it through the [`MutationKey`] only
/// `mutate.rs` can make, so no other module indexes it: each reads a page
/// through [`GraphStore::page`], which builds a pending one first.
#[derive(Debug, Clone)]
pub(crate) struct Pages(Vec<Page>);

impl Pages {
    /// The vector, for the mutation engine.
    pub(crate) fn get(&self, _: MutationKey) -> &Vec<Page> {
        &self.0
    }

    /// The vector, mutably, for the mutation engine.
    pub(crate) fn get_mut(&mut self, _: MutationKey) -> &mut Vec<Page> {
        &mut self.0
    }
}

/// A store's counts, page size and epoch: the structure a mutation call
/// commits batch by batch, readable in the middle of the call
/// ([`crate::Wal::replay_until`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreShape {
    num_vertices: u64,
    num_edges: u64,
    num_pages: u64,
    page_size: usize,
    small_pages: u64,
    large_pages: u64,
    epoch: u64,
}

impl StoreShape {
    /// [`GraphStore::num_vertices`].
    pub fn num_vertices(&self) -> u64 {
        self.num_vertices
    }

    /// [`GraphStore::num_edges`].
    pub fn num_edges(&self) -> u64 {
        self.num_edges
    }

    /// [`GraphStore::num_pages`].
    pub fn num_pages(&self) -> u64 {
        self.num_pages
    }

    /// The page size of [`GraphStore::cfg`].
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Length of [`GraphStore::small_pids`].
    pub fn small_pages(&self) -> u64 {
        self.small_pages
    }

    /// Length of [`GraphStore::large_pids`].
    pub fn large_pages(&self) -> u64 {
        self.large_pages
    }

    /// [`GraphStore::epoch`].
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl GraphStore {
    /// The format this store was built with.
    pub fn cfg(&self) -> PageFormatConfig {
        self.cfg
    }

    /// This store's counts, page size and epoch.
    pub fn shape(&self) -> StoreShape {
        StoreShape {
            num_vertices: self.num_vertices(),
            num_edges: self.num_edges,
            num_pages: self.num_pages(),
            page_size: self.cfg.page_size,
            small_pages: self.small_pids.len() as u64,
            large_pages: self.large_pids.len() as u64,
            epoch: self.epoch,
        }
    }

    /// All pages, indexed by page ID; builds every pending one.
    pub fn pages(&self) -> Vec<&Page> {
        (0..self.num_pages()).map(|pid| self.page(pid)).collect()
    }

    /// One page by ID. A page a mutation call changed is built here, on
    /// its first read — one span walk or chunk copy and one seal — and
    /// shared by every later read; any other page costs one branch.
    pub fn page(&self, pid: u64) -> &Page {
        let page = &self.pages.0[pid as usize];
        match &page.rebuilt {
            None => page,
            Some(cell) => cell.get_or_build(|base| self.build_pending(pid, base)),
        }
    }

    /// Decoded view of one page. Verification is cached per page, and
    /// later views are one atomic load. The first view of a page the
    /// builder encoded hashes it and walks its layout, as for any new
    /// [`Page`]; a reconstructed store's pages were verified at load, so
    /// their first view is already one load. A page built from pending
    /// mutations carries its trailer as matched (DESIGN.md §10 "The page
    /// trailer"), so its first view walks only the layout.
    ///
    /// # Panics
    /// Panics if the page fails verification — store pages are sealed at
    /// build or verified at load, so this only fires when page bytes
    /// were mutated behind the store's back.
    pub fn view(&self, pid: u64) -> PageView<'_> {
        self.verified(self.page(pid))
    }

    /// A view of `page`, one of this store's own (a page or a pending
    /// page's base), under its format; panics as [`GraphStore::view`].
    pub(crate) fn verified<'a>(&self, page: &'a Page) -> PageView<'a> {
        match page.verify(self.cfg) {
            Ok(token) => PageView::new(token),
            Err(e) => panic!("store page {} failed verification: {e}", page.pid),
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
        self.pages.0.len() as u64
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
        if pid < self.num_pages() {
            Ok(self.page(pid))
        } else {
            Err(StorageError::BadPid {
                pid,
                num_pages: self.num_pages(),
            })
        }
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
    ///
    /// One walk, in page-ID order, verifies each page (trailer checksum
    /// and layout; a page [`crate::file::load_store`] verified as it read
    /// it costs one load) and places its vertices, recording the page's
    /// slot bound: its `count` for a Small Page, 1 for the first chunk of
    /// a home run, and 0 for every later chunk and every delta page. The
    /// same walk decodes every record ID once, keeping per target page
    /// the highest slot named plus one, and noting any target past the
    /// last page. One loop over the pages then compares that table with
    /// the slot bounds. Only when it finds a record ID the bounds refuse
    /// does `check_record_ids` walk the adjacency again, to name the
    /// first one in page order, so the error reads as it always has. So
    /// every record ID of a loaded store is the one
    /// [`GraphStore::rid_of_vertex`] gives its target, which is what lets
    /// a delete match an edge by its packed bytes.
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
        let mut rvt_entries = Vec::with_capacity(pages.len());
        let mut small_pids = Vec::new();
        let mut large_pids = Vec::new();
        let mut edges_per_page = Vec::with_capacity(pages.len());
        let mut vertex_rid = vec![RecordId::new(u64::MAX, 0); num_vertices as usize];
        let mut num_edges = 0u64;
        let mut delta_pages: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        // Slots a record ID may name in each page, indexed by pid.
        let mut slot_bound: Vec<u32> = Vec::with_capacity(pages.len());
        // The highest slot a record ID names in each page, plus one; the
        // extra last entry gathers the record IDs naming a page past the
        // last. An entry is stored only when a slot raises it, which is
        // rare once its page has been named a few times: a store per
        // record ID would cost more than decoding it.
        let mut named = vec![0u32; pages.len() + 1];
        let past_last = pages.len();
        let mut note = |adj: AdjRun<'_>| {
            for rid in adj {
                let top = &mut named[rid.pid.min(past_last as u64) as usize];
                if rid.slot >= *top {
                    *top = rid.slot.saturating_add(1);
                }
            }
        };

        // Verify each page — after which its PageView accessors cannot go
        // out of bounds, and every later view is one load — and read its
        // kind, edges, vertex placements, slot bound and record IDs, plus
        // the Large-Page run structure (consecutive chunks of one vertex).
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
                    for ((vid, adj), slot) in view.sp_vertices().zip(0u32..) {
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
                        edges += adj.len() as u64;
                        note(adj);
                    }
                    rvt_entries.push(RvtEntry {
                        start_vid,
                        lp_range: None,
                    });
                    small_pids.push(pid);
                    edges_per_page.push(edges);
                    num_edges += edges;
                    slot_bound.push(count);
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
                    // A home run of a high-degree vertex, or — the vertex
                    // already placed — delta pages appended by a mutation
                    // batch, each standing alone (LP_RANGE 0). A record ID
                    // names a run by its first chunk, and no inbound
                    // record ID ever names a delta page.
                    let home = vertex_rid[vid as usize].pid == u64::MAX;
                    if home {
                        vertex_rid[vid as usize] = RecordId::new(pid, 0);
                    }
                    for c in 0..chunks {
                        let v = pages[i + c].verify(cfg)?.view();
                        let edges = v.count() as u64;
                        let lp_range = if home { chunks - 1 - c } else { 0 };
                        rvt_entries.push(RvtEntry {
                            start_vid: vid,
                            lp_range: Some(lp_range as u32),
                        });
                        large_pids.push(pid + c as u64);
                        edges_per_page.push(edges);
                        num_edges += edges;
                        if !home {
                            delta_pages.entry(vid).or_default().push(pid + c as u64);
                        }
                        slot_bound.push(u32::from(home && c == 0));
                        note(v.lp_adj_run());
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
            pages: Pages(pages),
            rvt: Rvt::new(rvt_entries),
            small_pids,
            large_pids,
            vertex_rid,
            num_edges,
            edges_per_page,
            epoch: 0,
            delta_pages,
            pending: Pending::default(),
        };
        // A record ID within its page's slot bound resolves to a placed
        // vertex, so it needs no translation check of its own: a Small
        // Page's VIDs are consecutive and each was checked against the
        // vertex count, and a bound of 1 admits only slot 0 of a home
        // run's first chunk, whose LP vid was checked too.
        let within = named.iter().zip(&slot_bound).all(|(n, b)| n <= b);
        if named[past_last] > 0 || !within {
            check_record_ids(&store, &slot_bound)?;
        }
        Ok(store)
    }
}

/// Check every record ID of `store` against `slot_bound` (the slots each
/// page has) in page order, returning the first failure: the target page
/// exists and has the slot, and the RVT translates the ID to a vertex.
/// The target page itself is never opened. [`GraphStore::reconstruct`]
/// calls this only on a store whose record IDs it has already found
/// past a bound, to word the error.
fn check_record_ids(store: &GraphStore, slot_bound: &[u32]) -> Result<(), String> {
    let (num_pages, num_vertices) = (store.num_pages(), store.num_vertices());
    for pid in 0..num_pages {
        let view = store.view(pid);
        let check = |rid: RecordId| -> Result<(), String> {
            if rid.pid >= num_pages {
                return Err(format!("page {pid}: record id points at page {}", rid.pid));
            }
            if rid.slot >= slot_bound[rid.pid as usize] {
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
    Ok(())
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
        pages: Pages(pages),
        rvt: Rvt::new(rvt_entries),
        small_pids,
        large_pids,
        vertex_rid,
        num_edges: csr.num_edges() as u64,
        edges_per_page,
        epoch: 0,
        delta_pages: BTreeMap::new(),
        pending: Pending::default(),
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests panic on failure by design
mod tests {
    use super::*;
    use crate::format::PhysicalIdConfig;
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
        assert!(store.large_pids().contains(&rid.pid));
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
