//! Stage 1 — planning: which pages the next sweep streams, in what order.
//!
//! The engine keeps `nextPIDSet` as a `PageBitmap`, one bit per page,
//! and a [`SweepPlan`] is that set materialised as two sorted page lists:
//! Small Pages first, then Large Pages (Sec. 3.2's phase separation —
//! batching by kind reduces kernel switching). Planning is
//! pure — it reads the store's RVT and page kinds, touches no clock and
//! no telemetry — so it can be tested exhaustively in isolation.

use crate::engine::EngineError;
use gts_storage::builder::GraphStore;
use gts_storage::PageKind;

/// The global `nextPIDSet` as Alg. 1 keeps it: one bit per page. A pid
/// past the last word is kept aside, never indexed: the bitmap takes any
/// pid, and [`SweepPlan::from_marked`] refuses those past the store.
#[derive(Debug, Clone)]
pub(crate) struct PageBitmap {
    words: Vec<u64>,
    stray: Option<u64>,
}

impl PageBitmap {
    /// An empty set over `num_pages` pages.
    pub(crate) fn new(num_pages: u64) -> PageBitmap {
        let words = vec![0; num_pages.div_ceil(64) as usize];
        PageBitmap { words, stray: None }
    }

    /// Mark `pid`.
    pub(crate) fn insert(&mut self, pid: u64) {
        match self.words.get_mut((pid / 64) as usize) {
            Some(word) => *word |= 1 << (pid % 64),
            None => self.stray = Some(pid),
        }
    }

    /// True when nothing is marked.
    pub(crate) fn is_empty(&self) -> bool {
        self.stray.is_none() && self.words.iter().all(|&w| w == 0)
    }

    /// The marked pages in ascending order (a stray last).
    pub(crate) fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.words.len() as u64 * 64)
            .filter(|&p| self.words[(p / 64) as usize] & (1 << (p % 64)) != 0)
            .chain(self.stray)
    }
}

/// The pages one sweep will stream: SP phase then LP phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepPlan {
    sp_pids: Vec<u64>,
    lp_pids: Vec<u64>,
}

impl SweepPlan {
    /// Plan a full sweep over every page (sweep programs stream the whole
    /// graph each iteration, Alg. 1 line 14).
    pub fn full(store: &GraphStore) -> SweepPlan {
        SweepPlan {
            sp_pids: store.small_pids().to_vec(),
            lp_pids: store.large_pids().to_vec(),
        }
    }

    /// Seed the first sweep (Alg. 1 lines 4-7): traversal programs start
    /// from the source vertex's page, sweep programs from every page.
    pub fn seeded(store: &GraphStore, start_vertex: Option<u64>) -> Result<SweepPlan, EngineError> {
        match start_vertex {
            Some(src) => SweepPlan::from_marked(store, [store.pid_of_vertex(src)]),
            None => Ok(SweepPlan::full(store)),
        }
    }

    /// Expand marked pages, in any order and with repeats, into a plan,
    /// widening each Large-Page reference to the vertex's whole chunk
    /// run: a record ID always points at the *first* chunk, but a
    /// traversal must stream them all. A page holding a vertex with
    /// delta/overflow pages (allocated by a mutation batch) additionally
    /// pulls those delta pages in — record IDs only ever name home pages,
    /// so without this widening a mutated vertex's overflow edges would
    /// never be streamed.
    ///
    /// Fails with [`EngineError::Storage`] when a marked pid is out of
    /// range (`ContinueWith` lists are program-supplied, so they are
    /// validated, not trusted).
    pub fn from_marked(
        store: &GraphStore,
        marked: impl IntoIterator<Item = u64>,
    ) -> Result<SweepPlan, EngineError> {
        let mut sps = Vec::new();
        let mut lps = Vec::new();
        for pid in marked {
            match store.try_view(pid)?.kind() {
                PageKind::Small => sps.push(pid),
                PageKind::Large => lps.extend(store.run_pids(pid)),
            }
            lps.extend(store.delta_pids_for_page(pid));
        }
        // A page may be marked twice, and several chunks of one run may
        // have been marked independently (each record ID points at the
        // first chunk, but ContinueWith lists replay every chunk), so the
        // expansions overlap; a page must be processed at most once per
        // sweep — kernels like BC's backward accumulation are not
        // idempotent.
        for pids in [&mut sps, &mut lps] {
            pids.sort_unstable();
            pids.dedup();
        }
        Ok(SweepPlan {
            sp_pids: sps,
            lp_pids: lps,
        })
    }

    /// Rebuild a plan from checkpointed page lists. Both lists were
    /// sorted when the snapshot was taken and the snapshot container is
    /// checksummed, so they are trusted as-is.
    pub(crate) fn from_parts(sp_pids: Vec<u64>, lp_pids: Vec<u64>) -> SweepPlan {
        SweepPlan { sp_pids, lp_pids }
    }

    /// The Small-Page phase, ascending.
    pub fn sp_pids(&self) -> &[u64] {
        &self.sp_pids
    }

    /// The Large-Page phase, ascending.
    pub fn lp_pids(&self) -> &[u64] {
        &self.lp_pids
    }

    /// The two phases in streaming order: SPs first, then LPs.
    pub fn phases(&self) -> [&[u64]; 2] {
        [&self.sp_pids, &self.lp_pids]
    }

    /// Total pages the sweep will touch.
    pub fn num_pages(&self) -> usize {
        self.sp_pids.len() + self.lp_pids.len()
    }

    /// True when nothing is marked.
    pub fn is_empty(&self) -> bool {
        self.sp_pids.is_empty() && self.lp_pids.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gts_graph::EdgeList;
    use gts_storage::{build_graph_store, MutationBatch, PageFormatConfig, PhysicalIdConfig};
    use std::collections::BTreeSet;

    /// A star graph whose hub adjacency overflows one page: vertex 0
    /// points at every other vertex, so it becomes a Large-Page chunk run.
    fn star_store() -> GraphStore {
        let n = 600u32;
        let mut edges: Vec<(u32, u32)> = (1..n).map(|v| (0, v)).collect();
        edges.extend((1..n).map(|v| (v, 0)));
        build_graph_store(
            &EdgeList::new(n, edges),
            PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 1024),
        )
        .unwrap()
    }

    #[test]
    fn plan_is_deterministic_and_sorted() {
        let store = star_store();
        let marked: BTreeSet<u64> = store
            .small_pids()
            .iter()
            .chain(store.large_pids().iter())
            .copied()
            .collect();
        let a = SweepPlan::from_marked(&store, marked.clone()).unwrap();
        let b = SweepPlan::from_marked(&store, marked).unwrap();
        assert_eq!(a, b, "same marked set must produce the same plan");
        assert!(a.sp_pids().windows(2).all(|w| w[0] < w[1]));
        assert!(a.lp_pids().windows(2).all(|w| w[0] < w[1]));
        assert_eq!(a.num_pages(), a.sp_pids().len() + a.lp_pids().len());
    }

    #[test]
    fn full_plan_covers_every_page_sp_then_lp() {
        let store = star_store();
        let plan = SweepPlan::full(&store);
        assert_eq!(plan.sp_pids(), store.small_pids());
        assert_eq!(plan.lp_pids(), store.large_pids());
        assert_eq!(plan.num_pages() as u64, store.num_pages());
        assert!(!plan.is_empty());
        assert_eq!(plan.phases(), [store.small_pids(), store.large_pids()]);
    }

    #[test]
    fn marking_one_lp_chunk_widens_to_the_whole_run() {
        let store = star_store();
        let lps = store.large_pids();
        assert!(lps.len() >= 2, "hub must span multiple Large Pages");
        let first = lps[0];
        // Marking only the first chunk must pull in the entire run...
        let plan = SweepPlan::from_marked(&store, [first]).unwrap();
        // The hub is the star's one Large vertex.
        let want = lps.to_vec();
        assert_eq!(plan.lp_pids(), want.as_slice());
        assert!(plan.sp_pids().is_empty());
        // ...and marking several chunks of the same run must not duplicate.
        let marked: BTreeSet<u64> = want.iter().copied().collect();
        let plan2 = SweepPlan::from_marked(&store, marked).unwrap();
        assert_eq!(plan2.lp_pids(), want.as_slice());
    }

    /// Overflow a spoke vertex's Small-Page slot so the batch spills it
    /// into delta pages; returns the new delta pids.
    fn spill_spoke(store: &mut GraphStore) -> Vec<u64> {
        let mut batch = MutationBatch::new();
        for d in 2..40 {
            batch.insert(1, d);
        }
        store.apply_mutations(&batch).unwrap().new_pids
    }

    #[test]
    fn marking_a_home_page_pulls_in_its_delta_pages() {
        let mut store = star_store();
        let new_pids = spill_spoke(&mut store);
        assert!(!new_pids.is_empty(), "38 inserts must overflow the slot");
        let home = store.pid_of_vertex(1);
        let plan = SweepPlan::from_marked(&store, [home]).unwrap();
        assert!(plan.sp_pids().contains(&home));
        for pid in &new_pids {
            assert!(
                plan.lp_pids().contains(pid),
                "delta page {pid} missing from {plan:?}"
            );
        }
    }

    #[test]
    fn unsorted_marks_with_repeats_plan_like_their_set() {
        let mut mutated = star_store();
        assert!(!spill_spoke(&mut mutated).is_empty());
        for store in [star_store(), mutated] {
            let n = store.num_pages();
            let every_page_twice_descending: Vec<u64> = (0..n).rev().flat_map(|p| [p, p]).collect();
            let scattered: Vec<u64> = (0..2 * n).map(|i| i * 7 % n).step_by(3).collect();
            for marked in [every_page_twice_descending, scattered] {
                let set: BTreeSet<u64> = marked.iter().copied().collect();
                let mut frontier = PageBitmap::new(n);
                marked.iter().for_each(|&p| frontier.insert(p));
                assert!(frontier.iter().eq(set.iter().copied()));
                let want = SweepPlan::from_marked(&store, set).unwrap();
                assert_eq!(SweepPlan::from_marked(&store, marked).unwrap(), want);
                assert_eq!(
                    SweepPlan::from_marked(&store, frontier.iter()).unwrap(),
                    want
                );
            }
        }
    }

    #[test]
    fn out_of_range_marked_pid_is_a_typed_error() {
        let store = star_store();
        // ContinueWith lists are program-supplied: validated, not trusted.
        // A frontier naming a page past the store does not panic either:
        // planning refuses it, whether it landed in the bitmap's last
        // word or past it.
        let n = store.num_pages();
        let mut frontier = PageBitmap::new(n);
        for pid in [n, n + 7, u64::MAX] {
            frontier.insert(pid);
        }
        assert!(!frontier.is_empty());
        for marked in [vec![n + 7], frontier.iter().collect()] {
            match SweepPlan::from_marked(&store, marked) {
                Err(crate::engine::EngineError::Storage(_)) => {}
                other => panic!("expected a typed BadPid error, got {other:?}"),
            }
        }
    }

    #[test]
    fn seeded_traversal_starts_at_the_source_page() {
        let store = star_store();
        // A spoke vertex lives in a Small Page: exactly one page planned.
        let spoke = 1u64;
        let plan = SweepPlan::seeded(&store, Some(spoke)).unwrap();
        assert_eq!(plan.num_pages(), 1);
        assert_eq!(plan.sp_pids(), [store.pid_of_vertex(spoke)]);
        // No source: a full sweep.
        let full = SweepPlan::seeded(&store, None).unwrap();
        assert_eq!(full.num_pages() as u64, store.num_pages());
    }
}
