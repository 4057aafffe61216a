//! Physical layout parameters of the slotted page format.
//!
//! A *record ID* (physical ID) is the pair (ADJ_PID, ADJ_OFF): the page a
//! vertex lives in and its slot there (paper Sec. 2). The original format
//! [Han et al., KDD'13] fixes 2 bytes for each; Sec. 6.1 generalises to
//! `p`-byte page IDs and `q`-byte slot numbers so that even trillion-scale
//! graphs are addressable — Table 2 enumerates the 6-byte configurations.

use std::fmt;

/// Byte widths of the two halves of a physical record ID.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PhysicalIdConfig {
    /// Bytes of page ID (ADJ_PID).
    pub p: u8,
    /// Bytes of slot number (ADJ_OFF).
    pub q: u8,
}

/// Bytes of a VID field inside a slot (paper Sec. 6.1 assumes 6-byte VID).
pub const VID_BYTES: usize = 6;
/// Bytes of the OFF field inside a slot (4-byte record offset).
pub const OFF_BYTES: usize = 4;
/// Bytes of the ADJLIST_SZ field at the head of a record.
pub const ADJLIST_SZ_BYTES: usize = 4;
/// Per-vertex minimum footprint used in Table 2's max-page-size column:
/// one slot (VID + OFF) plus a minimal record (ADJLIST_SZ + one 6-byte id).
pub const MIN_VERTEX_FOOTPRINT: u64 = (VID_BYTES + OFF_BYTES + ADJLIST_SZ_BYTES + 6) as u64;
/// Bytes of the page header: kind (1) + entry count (4), padded to 8.
pub const PAGE_HEADER_BYTES: usize = 8;
/// Bytes of the page trailer: `page::page_checksum` of the rest of the
/// page, little-endian, sealed at encode time and verified on every fetch
/// so torn or corrupt pages are *detected*, not silently traversed.
pub const PAGE_TRAILER_BYTES: usize = 8;

impl PhysicalIdConfig {
    /// The original TurboGraph configuration: 2-byte page ID, 2-byte slot.
    pub const ORIGINAL: PhysicalIdConfig = PhysicalIdConfig { p: 2, q: 2 };
    /// The paper's chosen trillion-scale configuration (Sec. 6.1).
    pub const TRILLION: PhysicalIdConfig = PhysicalIdConfig { p: 3, q: 3 };

    /// Create a configuration; widths of 1..=8 bytes are supported.
    pub fn new(p: u8, q: u8) -> Self {
        assert!(
            (1..=8).contains(&p) && (1..=8).contains(&q),
            "widths must be 1..=8 bytes"
        );
        PhysicalIdConfig { p, q }
    }

    /// Bytes one record ID occupies inside an adjacency list.
    pub const fn rid_bytes(self) -> usize {
        self.p as usize + self.q as usize
    }

    /// Exclusive upper bound on page IDs (Table 2's "max. page ID").
    pub fn max_page_id(self) -> u64 {
        saturating_pow2(8 * self.p as u32)
    }

    /// Exclusive upper bound on slot numbers (Table 2's "max. slot number").
    pub fn max_slot(self) -> u64 {
        saturating_pow2(8 * self.q as u32)
    }

    /// Largest representable page size in bytes (Table 2's "max. page
    /// size"): every slot must be reachable, and each vertex costs at least
    /// [`MIN_VERTEX_FOOTPRINT`] bytes.
    pub fn max_page_size(self) -> u64 {
        self.max_slot().saturating_mul(MIN_VERTEX_FOOTPRINT)
    }

    /// Theoretical maximum number of addressable vertices: every page
    /// filled with maximum slots.
    pub fn max_vertices(self) -> u128 {
        self.max_page_id() as u128 * self.max_slot() as u128
    }
}

impl fmt::Display for PhysicalIdConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(p={}, q={})", self.p, self.q)
    }
}

fn saturating_pow2(bits: u32) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        1u64 << bits
    }
}

/// A physical record ID: which page, which slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecordId {
    /// Page ID (ADJ_PID).
    pub pid: u64,
    /// Slot number within the page (ADJ_OFF).
    pub slot: u32,
}

impl RecordId {
    /// Construct a record ID.
    pub const fn new(pid: u64, slot: u32) -> Self {
        RecordId { pid, slot }
    }
}

/// Whether a page holds many low-degree vertices or one chunk of a
/// high-degree vertex's adjacency list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageKind {
    /// Small Page: consecutive low-degree vertices, records + slots.
    Small = 0,
    /// Large Page: one chunk of a single high-degree vertex.
    Large = 1,
}

impl PageKind {
    /// The kind a page's first header byte names (its discriminant);
    /// `None` for any other byte.
    pub fn from_byte(byte: u8) -> Option<PageKind> {
        match byte {
            0 => Some(PageKind::Small),
            1 => Some(PageKind::Large),
            _ => None,
        }
    }
}

/// Full format configuration: ID widths plus the fixed page size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageFormatConfig {
    /// Physical-ID byte widths.
    pub id: PhysicalIdConfig,
    /// Page size in bytes (all pages in a store share it).
    pub page_size: usize,
}

impl PageFormatConfig {
    /// Create and validate a configuration.
    ///
    /// # Panics
    /// Panics if the page size exceeds what the slot-number width can
    /// address ([`PhysicalIdConfig::max_page_size`]) or is too small to hold
    /// even a single minimal vertex record.
    pub fn new(id: PhysicalIdConfig, page_size: usize) -> Self {
        assert!(
            page_size as u64 <= id.max_page_size(),
            "page size {} exceeds max {} for {}",
            page_size,
            id.max_page_size(),
            id
        );
        let min = PAGE_HEADER_BYTES
            + PAGE_TRAILER_BYTES
            + VID_BYTES
            + OFF_BYTES
            + ADJLIST_SZ_BYTES
            + id.rid_bytes();
        assert!(
            page_size >= min,
            "page size {page_size} below minimum {min}"
        );
        PageFormatConfig { id, page_size }
    }

    /// Paper-style default at reproduction scale: (2,2) IDs with 64 KiB
    /// pages (the paper pairs (2,2) with ~1 MiB pages for billion-edge
    /// graphs; 64 KiB preserves the pages-per-graph ratio at our scale).
    pub fn small_default() -> Self {
        PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 64 * 1024)
    }

    /// Record-ID entries a Large Page chunk can carry. The LP layout is
    /// header (kind + entry count) + VID + packed record IDs + checksum
    /// trailer — the entry count lives in the page header, so no separate
    /// ADJLIST_SZ field is spent.
    pub fn lp_capacity(&self) -> usize {
        (self.page_size - PAGE_HEADER_BYTES - PAGE_TRAILER_BYTES - VID_BYTES) / self.id.rid_bytes()
    }

    /// Bytes a Small-Page vertex with `degree` out-edges consumes
    /// (slot + record).
    pub fn sp_vertex_bytes(&self, degree: usize) -> usize {
        VID_BYTES + OFF_BYTES + ADJLIST_SZ_BYTES + degree * self.id.rid_bytes()
    }

    /// Usable byte budget of a Small Page (header and checksum trailer
    /// excluded).
    pub fn sp_budget(&self) -> usize {
        self.page_size - PAGE_HEADER_BYTES - PAGE_TRAILER_BYTES
    }

    /// True if a vertex of `degree` fits in one (empty) Small Page.
    pub fn fits_in_small_page(&self, degree: usize) -> bool {
        self.sp_vertex_bytes(degree) <= self.sp_budget()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests panic on failure by design
mod tests {
    use super::*;

    #[test]
    fn table2_row_p2_q4() {
        let c = PhysicalIdConfig::new(2, 4);
        assert_eq!(c.max_page_id(), 64 * 1024); // 64 K
        assert_eq!(c.max_slot(), 4 * 1024 * 1024 * 1024); // 4 B
        assert_eq!(c.max_page_size(), (4u64 << 30) * 20); // 80 GB = 4G slots * 20 B
    }

    #[test]
    fn table2_row_p3_q3() {
        let c = PhysicalIdConfig::TRILLION;
        assert_eq!(c.max_page_id(), 16 * 1024 * 1024); // 16 M
        assert_eq!(c.max_slot(), 16 * 1024 * 1024); // 16 M
        assert_eq!(c.max_page_size(), (16u64 << 20) * 20); // 320 MB
    }

    #[test]
    fn table2_row_p4_q2() {
        let c = PhysicalIdConfig::new(4, 2);
        assert_eq!(c.max_page_id(), 4 * 1024 * 1024 * 1024); // 4 B
        assert_eq!(c.max_slot(), 64 * 1024); // 64 K
        assert_eq!(c.max_page_size(), (64u64 << 10) * 20); // 1.25 MB
    }

    #[test]
    fn trillion_config_addresses_beyond_4b_vertices() {
        // Sec. 6.1's motivation: (2,2) can't reach RMAT30's 1B vertices in
        // practice; (3,3) theoretically addresses 2^48.
        assert_eq!(PhysicalIdConfig::TRILLION.max_vertices(), 1u128 << 48);
        assert_eq!(PhysicalIdConfig::ORIGINAL.max_vertices(), 1u128 << 32);
    }

    #[test]
    #[should_panic(expected = "exceeds max")]
    fn page_size_must_be_addressable() {
        // (4,2) caps pages at 1.25 MB; 2 MiB must be rejected.
        let _ = PageFormatConfig::new(PhysicalIdConfig::new(4, 2), 2 * 1024 * 1024);
    }

    #[test]
    #[should_panic(expected = "below minimum")]
    fn tiny_pages_rejected() {
        let _ = PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 16);
    }

    #[test]
    fn capacity_helpers() {
        let cfg = PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 4096);
        // rid = 4 bytes under (2,2).
        assert_eq!(cfg.id.rid_bytes(), 4);
        assert_eq!(cfg.lp_capacity(), (4096 - 8 - 8 - 6) / 4);
        assert_eq!(cfg.sp_vertex_bytes(3), 6 + 4 + 4 + 12);
        assert!(cfg.fits_in_small_page(100));
        assert!(!cfg.fits_in_small_page(100_000));
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(PhysicalIdConfig::TRILLION.to_string(), "(p=3, q=3)");
    }
}
