//! RVT — the record-ID → vertex-ID mapping table (paper Appendix A).
//!
//! Adjacency lists store *physical* record IDs; graph algorithms need
//! *logical* vertex IDs for attribute-array indexing. Because vertex IDs are
//! consecutive within each page, one `(START_VID, LP_RANGE)` tuple per page
//! suffices: `VID = RVT[ADJ_PID].START_VID + ADJ_OFF`.
//!
//! `LP_RANGE` records how many pages a Large-Page vertex spans (−1 in the
//! paper's Fig. 12 for Small Pages; an `Option` here).

use crate::format::RecordId;

/// One RVT tuple (per page).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RvtEntry {
    /// First vertex ID stored in the page.
    pub start_vid: u64,
    /// For a Large Page: how many consecutive pages the vertex spans
    /// (counted from the vertex's first LP). `None` for Small Pages.
    pub lp_range: Option<u32>,
}

/// The full per-store mapping table, resident in main memory (and copied to
/// each GPU's device memory by the engine).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Rvt {
    /// Indexed by page ID; the mutation engine appends each new delta
    /// page's entry in page-ID order.
    pub(crate) entries: Vec<RvtEntry>,
}

impl Rvt {
    /// Build from per-page entries, indexed by page ID.
    pub fn new(entries: Vec<RvtEntry>) -> Self {
        Rvt { entries }
    }

    /// The entry for `pid`.
    #[inline]
    pub fn entry(&self, pid: u64) -> RvtEntry {
        self.entries[pid as usize]
    }

    /// Translate a record ID to its vertex ID:
    /// `RVT[ADJ_PID].START_VID + ADJ_OFF` (Appendix A).
    #[inline]
    pub fn translate(&self, rid: RecordId) -> u64 {
        self.entries[rid.pid as usize].start_vid + rid.slot as u64
    }

    /// In-memory footprint in bytes, for the engine's device-memory
    /// accounting (the RVT rides along with attribute data).
    pub fn memory_bytes(&self) -> u64 {
        (self.entries.len() * std::mem::size_of::<RvtEntry>()) as u64
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests panic on failure by design
mod tests {
    use super::*;

    #[test]
    fn translate_matches_fig12_example() {
        // Paper Fig. 12: SP0 starts at vid 0, LP1/LP2 hold vertex 3.
        let rvt = Rvt::new(vec![
            RvtEntry {
                start_vid: 0,
                lp_range: None,
            },
            RvtEntry {
                start_vid: 3,
                lp_range: Some(1),
            },
            RvtEntry {
                start_vid: 3,
                lp_range: Some(0),
            },
        ]);
        // r2 = (pid 0, slot 2) → vid 2 (the worked example in Appendix A).
        assert_eq!(rvt.translate(RecordId::new(0, 2)), 2);
        // An LP reference resolves to the high-degree vertex itself.
        assert_eq!(rvt.translate(RecordId::new(1, 0)), 3);
        assert_eq!(rvt.translate(RecordId::new(2, 0)), 3);
    }

    #[test]
    fn entry_accessors() {
        let rvt = Rvt::new(vec![RvtEntry {
            start_vid: 7,
            lp_range: None,
        }]);
        assert_eq!(rvt.entry(0).start_vid, 7);
        assert!(rvt.memory_bytes() > 0);
    }
}
