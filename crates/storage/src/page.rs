//! On-page byte layout: encoding and zero-copy decoding of slotted pages.
//!
//! A **Small Page** (paper Fig. 1b) packs consecutive low-degree vertices:
//! records (`ADJLIST_SZ` + `ADJLIST`) grow forward from the start of the
//! record region, slots (`VID` + `OFF`) grow backward from the end of the
//! page. A **Large Page** (Fig. 1c) carries one chunk of a single
//! high-degree vertex's adjacency list.
//!
//! All multi-byte fields are little-endian with configurable widths (the
//! `(p,q)` generalisation of Sec. 6.1). Every page ends in a
//! [`PAGE_TRAILER_BYTES`]-wide checksum ([`page_checksum`]) sealed at
//! encode time; slots grow backward from just before the trailer.

use crate::format::{
    PageFormatConfig, PageKind, PhysicalIdConfig, RecordId, ADJLIST_SZ_BYTES, OFF_BYTES,
    PAGE_HEADER_BYTES, PAGE_TRAILER_BYTES, VID_BYTES,
};
use std::sync::atomic::{AtomicU8, Ordering};

/// Bit set once the trailer checksum has matched (see [`Page::verify`]).
const VERIFIED_CSUM: u8 = 1 << 0;
/// Bit set once full verification (checksum + layout) has passed.
const VERIFIED_FULL: u8 = 1 << 1;

/// An encoded fixed-size slotted page.
///
/// A page caches its own verification state: the first successful
/// [`Page::verify`] (or [`Page::checksum_ok_cached`]) hashes the bytes,
/// every later call is a single atomic load. This is *verified-once /
/// borrow-after* semantics — mutating `data` after a successful
/// verification is NOT detected by the cached paths (the pure
/// [`Page::checksum_ok`] always recomputes).
#[derive(Debug)]
pub struct Page {
    /// Global page ID (index into the store's page table).
    pub pid: u64,
    /// Small or Large.
    pub kind: PageKind,
    /// Raw page bytes, exactly `page_size` long.
    pub data: Box<[u8]>,
    /// Cached verification state ([`VERIFIED_CSUM`] | [`VERIFIED_FULL`]).
    verified: AtomicU8,
}

impl Clone for Page {
    fn clone(&self) -> Self {
        Page {
            pid: self.pid,
            kind: self.kind,
            data: self.data.clone(),
            // The bytes are copied unchanged, so verification carries over.
            verified: AtomicU8::new(self.verified.load(Ordering::Relaxed)),
        }
    }
}

impl PartialEq for Page {
    fn eq(&self, other: &Self) -> bool {
        self.pid == other.pid && self.kind == other.kind && self.data == other.data
    }
}

impl Eq for Page {}

impl Page {
    /// Wrap encoded bytes as a page, in the unverified state.
    pub fn new(pid: u64, kind: PageKind, data: Box<[u8]>) -> Self {
        Page {
            pid,
            kind,
            data,
            verified: AtomicU8::new(0),
        }
    }

    /// Page size in bytes (the streaming unit of GTS).
    pub fn size_bytes(&self) -> usize {
        self.data.len()
    }

    /// The checksum stored in the page trailer.
    pub fn stored_checksum(&self) -> u64 {
        let at = self.data.len() - PAGE_TRAILER_BYTES;
        read_le::<PAGE_TRAILER_BYTES>(&self.data[at..])
    }

    /// Recompute the trailer checksum and compare it to the stored one.
    /// Always hashes the full page; see [`Page::checksum_ok_cached`] for
    /// the amortised variant used on fetch hot paths.
    pub fn checksum_ok(&self) -> bool {
        self.stored_checksum() == page_checksum(&self.data)
    }

    /// Like [`Page::checksum_ok`], but a successful check is cached: the
    /// first call hashes the page, later calls are one atomic load.
    /// Failures are never cached (a torn read may be retried with the
    /// same `Page` object).
    pub fn checksum_ok_cached(&self) -> bool {
        if self.verified.load(Ordering::Relaxed) & VERIFIED_CSUM != 0 {
            return true;
        }
        let ok = self.checksum_ok();
        if ok {
            self.verified.fetch_or(VERIFIED_CSUM, Ordering::Relaxed);
        }
        ok
    }

    /// Fully verify this page under `cfg` — size, trailer checksum and
    /// structural layout (every [`PageView`] accessor stays in bounds) —
    /// and mint the [`VerifiedPage`] token that [`PageView::new`]
    /// requires. Success is cached on the page, so only the first call
    /// pays the O(page) hash + layout walk.
    ///
    /// Pages loaded from untrusted bytes (disk files) surface malformed
    /// layouts here as an error, never as an out-of-bounds panic.
    pub fn verify(&self, cfg: PageFormatConfig) -> Result<VerifiedPage<'_>, String> {
        if self.verified.load(Ordering::Relaxed) & VERIFIED_FULL != 0 {
            return Ok(VerifiedPage { cfg, page: self });
        }
        if self.data.len() != cfg.page_size {
            return Err(format!(
                "page {}: {} bytes, expected {}",
                self.pid,
                self.data.len(),
                cfg.page_size
            ));
        }
        if !self.checksum_ok_cached() {
            return Err(format!(
                "page {}: trailer checksum mismatch (stored {:#018x}, computed {:#018x})",
                self.pid,
                self.stored_checksum(),
                page_checksum(&self.data)
            ));
        }
        validate_structure(cfg, self)?;
        self.verified
            .fetch_or(VERIFIED_FULL | VERIFIED_CSUM, Ordering::Relaxed);
        Ok(VerifiedPage { cfg, page: self })
    }
}

/// Proof that a [`Page`]'s bytes passed full verification (trailer
/// checksum + structural layout) under a format config. The only way to
/// obtain one is [`Page::verify`]; the only way to decode a page is to
/// hand one to [`PageView::new`] — views over unverified bytes are
/// unrepresentable.
#[derive(Debug, Clone, Copy)]
pub struct VerifiedPage<'a> {
    cfg: PageFormatConfig,
    page: &'a Page,
}

impl<'a> VerifiedPage<'a> {
    /// The verified page.
    pub fn page(&self) -> &'a Page {
        self.page
    }

    /// The format config the page was verified under.
    pub fn cfg(&self) -> PageFormatConfig {
        self.cfg
    }

    /// Decode this page (shorthand for `PageView::new(token)`).
    pub fn view(&self) -> PageView<'a> {
        PageView::new(*self)
    }
}

/// [`gts_ckpt::fnv1a_lanes`] over everything except the trailer itself.
pub fn page_checksum(data: &[u8]) -> u64 {
    gts_ckpt::fnv1a_lanes(&data[..data.len() - PAGE_TRAILER_BYTES])
}

/// Write the checksum of `data` into its trailer.
fn seal(data: &mut [u8]) {
    let sum = page_checksum(data);
    let at = data.len() - PAGE_TRAILER_BYTES;
    write_le::<PAGE_TRAILER_BYTES>(&mut data[at..], sum);
}

/// Write the low `N` bytes of `value`. `N` is a constant at every call
/// site, so the copy is a fixed-width store, never a `memcpy` call.
#[inline]
fn write_le<const N: usize>(buf: &mut [u8], value: u64) {
    debug_assert!(
        N == 8 || value < 1u64 << (8 * N),
        "value {value} overflows {N} bytes"
    );
    buf[..N].copy_from_slice(&value.to_le_bytes()[..N]);
}

/// Read an `N`-byte little-endian field (a fixed-width load, as above).
#[inline]
fn read_le<const N: usize>(buf: &[u8]) -> u64 {
    let mut bytes = [0u8; 8];
    bytes[..N].copy_from_slice(&buf[..N]);
    u64::from_le_bytes(bytes)
}

/// All-ones in the low `bytes` (1..=8) bytes.
#[inline]
fn low_mask(bytes: u32) -> u64 {
    u64::MAX >> (64 - 8 * bytes)
}

/// Bytes of one slot-directory entry.
const SLOT_BYTES: usize = VID_BYTES + OFF_BYTES;
/// Bytes one [`decode_rid`] load reads, whatever the entry's width.
const LOAD_BYTES: usize = 8;
// The trailer behind every record is what an adjacency list's last
// entry loads into (see [`PageView::run`]).
const _: () = assert!(PAGE_TRAILER_BYTES >= LOAD_BYTES);

/// Pack `adj` from the start of `buf`, one `(p, q)`-wide entry each.
fn encode_rids(buf: &mut [u8], adj: &[RecordId], id: PhysicalIdConfig) {
    let entries = buf[..adj.len() * id.rid_bytes()].chunks_exact_mut(id.rid_bytes());
    for (entry, rid) in entries.zip(adj) {
        debug_assert!(
            rid.pid <= low_mask(id.p as u32) && rid.slot as u64 <= low_mask(id.q as u32),
            "{rid:?} overflows {id}"
        );
        let (pid, slot) = entry.split_at_mut(id.p as usize);
        // Byte loops: the widths are run-time values, and a slice copy of
        // run-time length is a `memcpy` call per half.
        for (i, b) in pid.iter_mut().enumerate() {
            *b = (rid.pid >> (8 * i)) as u8;
        }
        for (i, b) in slot.iter_mut().enumerate() {
            *b = (rid.slot as u64 >> (8 * i)) as u8;
        }
    }
}

/// The one place bytes become a [`RecordId`]: `at` begins at a packed
/// `(ADJ_PID, ADJ_OFF)` entry and holds at least [`LOAD_BYTES`] past the
/// entry's `q` half. One load plus mask/shift when the entry fits a
/// word, two loads when it is wider.
#[inline]
fn decode_rid(at: &[u8], id: PhysicalIdConfig) -> RecordId {
    let (p, q) = (id.p as u32, id.q as u32);
    let word = read_le::<LOAD_BYTES>(at);
    let slot = if p + q <= 8 {
        word >> (8 * p)
    } else {
        read_le::<LOAD_BYTES>(&at[p as usize..])
    };
    RecordId {
        pid: word & low_mask(p),
        slot: (slot & low_mask(q)) as u32,
    }
}

/// Builder that encodes one Small Page.
pub struct SmallPageEncoder {
    cfg: PageFormatConfig,
    data: Vec<u8>,
    /// Next free byte in the record region (relative to region start).
    record_cursor: usize,
    slots: u32,
}

impl SmallPageEncoder {
    /// Start an empty Small Page.
    pub fn new(cfg: PageFormatConfig) -> Self {
        SmallPageEncoder {
            cfg,
            data: vec![0u8; cfg.page_size],
            record_cursor: 0,
            slots: 0,
        }
    }

    /// Bytes still available for one more vertex (slot + record).
    pub fn remaining(&self) -> usize {
        let used = PAGE_HEADER_BYTES
            + PAGE_TRAILER_BYTES
            + self.record_cursor
            + self.slots as usize * SLOT_BYTES;
        self.cfg.page_size - used
    }

    /// True if a vertex with `degree` out-edges still fits.
    pub fn fits(&self, degree: usize) -> bool {
        self.cfg.sp_vertex_bytes(degree) <= self.remaining()
    }

    /// Number of vertices encoded so far.
    pub fn num_slots(&self) -> u32 {
        self.slots
    }

    /// Append a vertex and its adjacency list (already as record IDs).
    /// Returns the slot number assigned.
    ///
    /// # Panics
    /// Panics if the vertex does not fit; callers must check [`fits`].
    pub fn push_vertex(&mut self, vid: u64, adj: &[RecordId]) -> u32 {
        let id = self.cfg.id;
        self.push_record(vid, adj.len(), |packed| encode_rids(packed, adj, id))
    }

    /// [`Self::push_vertex`] of the entries `run` has not yet yielded, without
    /// decoding them: the run's packed bytes are copied as they are.
    ///
    /// # Panics
    /// Panics if the run's `(p, q)` is not this encoder's, or if the
    /// vertex does not fit.
    pub fn push_run(&mut self, vid: u64, run: &AdjRun<'_>) -> u32 {
        assert_eq!(run.id, self.cfg.id, "vertex {vid}: run of another (p, q)");
        let bytes = run.packed_bytes();
        self.push_record(vid, run.left, |packed| packed.copy_from_slice(bytes))
    }

    /// One record (`ADJLIST_SZ`, then `len` packed record IDs written by
    /// `fill`) and its slot.
    fn push_record(&mut self, vid: u64, len: usize, fill: impl FnOnce(&mut [u8])) -> u32 {
        assert!(self.fits(len), "vertex {vid} does not fit");
        let off = self.record_cursor;
        let rec_at = PAGE_HEADER_BYTES + off;
        write_le::<ADJLIST_SZ_BYTES>(&mut self.data[rec_at..], len as u64);
        let packed = len * self.cfg.id.rid_bytes();
        fill(&mut self.data[rec_at + ADJLIST_SZ_BYTES..][..packed]);
        self.record_cursor += ADJLIST_SZ_BYTES + packed;
        // Slot, growing backward from just before the checksum trailer.
        let slot_no = self.slots;
        let slot_at = self.cfg.page_size - PAGE_TRAILER_BYTES - (slot_no as usize + 1) * SLOT_BYTES;
        write_le::<VID_BYTES>(&mut self.data[slot_at..], vid);
        write_le::<OFF_BYTES>(&mut self.data[slot_at + VID_BYTES..], off as u64);
        self.slots += 1;
        slot_no
    }

    /// Finish the page with its global ID, sealing the trailer checksum.
    pub fn finish(mut self, pid: u64) -> Page {
        self.data[0] = PageKind::Small as u8;
        write_le::<4>(&mut self.data[1..], self.slots as u64);
        seal(&mut self.data);
        Page::new(pid, PageKind::Small, self.data.into_boxed_slice())
    }
}

/// Encode one Large Page: a chunk of `adj` belonging to vertex `vid`.
pub fn encode_large_page(cfg: PageFormatConfig, pid: u64, vid: u64, adj: &[RecordId]) -> Page {
    assert!(
        adj.len() <= cfg.lp_capacity(),
        "LP chunk of {} exceeds capacity {}",
        adj.len(),
        cfg.lp_capacity()
    );
    let mut data = vec![0u8; cfg.page_size];
    data[0] = PageKind::Large as u8;
    write_le::<4>(&mut data[1..], adj.len() as u64);
    write_le::<VID_BYTES>(&mut data[PAGE_HEADER_BYTES..], vid);
    encode_rids(&mut data[PAGE_HEADER_BYTES + VID_BYTES..], adj, cfg.id);
    seal(&mut data);
    Page::new(pid, PageKind::Large, data.into_boxed_slice())
}

/// Zero-copy decoded view over a [`Page`].
#[derive(Clone, Copy)]
pub struct PageView<'a> {
    cfg: PageFormatConfig,
    page: &'a Page,
}

impl<'a> PageView<'a> {
    /// Wrap a verified page for decoding. Only a [`VerifiedPage`] token
    /// (minted by [`Page::verify`]) is accepted: every accessor below
    /// indexes raw bytes, so unverified input could panic out of bounds.
    pub fn new(verified: VerifiedPage<'a>) -> Self {
        PageView {
            cfg: verified.cfg,
            page: verified.page,
        }
    }

    /// Page kind as encoded in the header (verification proved the
    /// header byte is a kind and agrees with [`Page::kind`]).
    #[inline]
    pub fn kind(&self) -> PageKind {
        self.page.kind
    }

    /// Small Page: number of vertices (slots). Large Page: number of
    /// adjacency entries in this chunk.
    #[inline]
    pub fn count(&self) -> u32 {
        read_le::<4>(&self.page.data[1..]) as u32
    }

    /// Small Page: the VID stored in `slot`.
    ///
    /// # Panics
    /// Panics if `slot` is out of range for this page.
    #[inline]
    pub fn sp_vid(&self, slot: u32) -> u64 {
        read_le::<VID_BYTES>(&self.page.data[self.sp_slot_at(slot)..])
    }

    /// Small Page: adjacency-list length of the vertex in `slot`.
    #[inline]
    pub fn sp_adj_len(&self, slot: u32) -> u32 {
        self.sp_adj_run(slot).len() as u32
    }

    /// Small Page: the `i`-th record ID in `slot`'s adjacency list; panics
    /// past its end. Loops want [`PageView::sp_adj_run`].
    #[inline]
    pub fn sp_adj(&self, slot: u32, i: u32) -> RecordId {
        self.sp_adj_run(slot).entry(i)
    }

    /// Small Page: the adjacency list of the vertex in `slot`, as a run.
    ///
    /// # Panics
    /// Panics if `slot` is out of range for this page.
    #[inline]
    pub fn sp_adj_run(&self, slot: u32) -> AdjRun<'a> {
        self.sp_record_run(&self.page.data[self.sp_slot_at(slot) + VID_BYTES..])
    }

    /// Small Page: iterate `(vid, adjacency run)` over all slots.
    #[inline]
    pub fn sp_vertices(&self) -> impl Iterator<Item = (u64, AdjRun<'a>)> + '_ {
        let me = *self;
        // The slot directory, cut out once: slot 0 is its last entry.
        let end = self.cfg.page_size - PAGE_TRAILER_BYTES;
        let slots = &self.page.data[end - self.count() as usize * SLOT_BYTES..end];
        slots.rchunks_exact(SLOT_BYTES).map(move |slot| {
            let (vid, off) = slot.split_at(VID_BYTES);
            (read_le::<VID_BYTES>(vid), me.sp_record_run(off))
        })
    }

    /// Large Page: the single vertex this chunk belongs to.
    #[inline]
    pub fn lp_vid(&self) -> u64 {
        read_le::<VID_BYTES>(&self.page.data[PAGE_HEADER_BYTES..])
    }

    /// Large Page: the `i`-th record ID in this chunk; panics past its
    /// end. Loops want [`PageView::lp_adj_run`].
    #[inline]
    pub fn lp_adj(&self, i: u32) -> RecordId {
        self.lp_adj_run().entry(i)
    }

    /// Large Page: this chunk's adjacency entries, as a run.
    #[inline]
    pub fn lp_adj_run(&self) -> AdjRun<'a> {
        self.run(PAGE_HEADER_BYTES + VID_BYTES, self.count() as usize)
    }

    /// Total edges (record-id entries) stored in this page, either kind.
    pub fn edges_in_page(&self) -> u64 {
        match self.kind() {
            PageKind::Large => self.count() as u64,
            PageKind::Small => (0..self.count()).map(|s| self.sp_adj_len(s) as u64).sum(),
        }
    }

    /// Byte offset of `slot`'s `VID` + `OFF` pair.
    #[inline]
    fn sp_slot_at(&self, slot: u32) -> usize {
        // A real bounds check, not a debug_assert: in release builds an
        // out-of-range slot would wrap the offset arithmetic and read
        // garbage (or panic deep in slice indexing) — fail loudly here.
        assert!(slot < self.count(), "slot {slot} out of range");
        self.cfg.page_size - PAGE_TRAILER_BYTES - (slot as usize + 1) * SLOT_BYTES
    }

    /// The record a slot's `OFF` field (at the start of `off`) points at.
    #[inline]
    fn sp_record_run(&self, off: &[u8]) -> AdjRun<'a> {
        let rec = PAGE_HEADER_BYTES + read_le::<OFF_BYTES>(off) as usize;
        let len = read_le::<ADJLIST_SZ_BYTES>(&self.page.data[rec..]);
        self.run(rec + ADJLIST_SZ_BYTES, len as usize)
    }

    /// The `len` packed record IDs starting at byte `start`.
    #[inline]
    fn run(&self, start: usize, len: usize) -> AdjRun<'a> {
        // `validate_structure` proved the list ends at or before the
        // trailer, so the slice can take [`LOAD_BYTES`] more: the slack
        // that lets the last entry be decoded with a full-word load
        // without leaving the page. Still a checked slice — the run's
        // one real bounds check.
        let end = start + len * self.cfg.id.rid_bytes();
        AdjRun {
            bytes: &self.page.data[start..end + LOAD_BYTES],
            left: len,
            id: self.cfg.id,
        }
    }
}

/// One vertex's adjacency list on one page — a Small-Page record or a
/// Large-Page chunk — as a run of packed record IDs. The slot bound, the
/// record offset, `ADJLIST_SZ` and the `(p, q)` widths were taken once,
/// when the run was cut out of the page; each entry is then one
/// fixed-width load ([`decode_rid`]).
#[derive(Debug, Clone)]
pub struct AdjRun<'a> {
    /// From the next entry to [`LOAD_BYTES`] past the last one.
    bytes: &'a [u8],
    /// Entries not yet yielded.
    left: usize,
    id: PhysicalIdConfig,
}

impl<'a> AdjRun<'a> {
    /// The packed `(ADJ_PID, ADJ_OFF)` bytes of the entries not yet
    /// yielded: what [`SmallPageEncoder::push_run`] copies undecoded.
    pub fn packed_bytes(&self) -> &'a [u8] {
        &self.bytes[..self.left * self.id.rid_bytes()]
    }

    /// Random access for the cold [`PageView::sp_adj`] / [`PageView::lp_adj`].
    #[inline]
    fn entry(&self, i: u32) -> RecordId {
        assert!((i as usize) < self.left, "entry {i} out of range");
        decode_rid(&self.bytes[i as usize * self.id.rid_bytes()..], self.id)
    }
}

impl Iterator for AdjRun<'_> {
    type Item = RecordId;

    #[inline]
    fn next(&mut self) -> Option<RecordId> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let rid = decode_rid(self.bytes, self.id);
        self.bytes = &self.bytes[self.id.rid_bytes()..];
        Some(rid)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for AdjRun<'_> {}

/// Structural half of [`Page::verify`]: check that every [`PageView`]
/// accessor would stay in bounds and that a Small Page's record region is
/// laid out the way [`SmallPageEncoder`] lays it out. Size and checksum
/// are already checked by the caller.
fn validate_structure(cfg: PageFormatConfig, page: &Page) -> Result<(), String> {
    let kind = PageKind::from_byte(page.data[0])
        .ok_or_else(|| format!("page {}: unknown kind byte {}", page.pid, page.data[0]))?;
    if kind != page.kind {
        let (pid, label) = (page.pid, page.kind);
        return Err(format!(
            "page {pid}: {kind:?} by its header, labelled {label:?}"
        ));
    }
    // Raw in-module view: the page is structurally unproven, but this
    // function only reads the header fields it is about to bound-check.
    let view = PageView { cfg, page };
    let rid_w = cfg.id.rid_bytes();
    match kind {
        PageKind::Small => {
            let count = view.count() as usize;
            let slots_start = (cfg.page_size - PAGE_TRAILER_BYTES)
                .checked_sub(count * SLOT_BYTES)
                .ok_or_else(|| format!("page {}: {} slots overflow the page", page.pid, count))?;
            if slots_start < PAGE_HEADER_BYTES {
                return Err(format!(
                    "page {}: {count} slots collide with the header",
                    page.pid
                ));
            }
            // The encoder lays records out in slot order from offset 0,
            // each where the previous one ends: `rec` is where this slot's
            // must start, so no two slots share a record and none is skipped.
            let mut rec = PAGE_HEADER_BYTES;
            for slot in 0..count as u32 {
                let at = cfg.page_size - PAGE_TRAILER_BYTES - (slot as usize + 1) * SLOT_BYTES;
                let off = read_le::<OFF_BYTES>(&page.data[at + VID_BYTES..]) as usize;
                if PAGE_HEADER_BYTES + off != rec || rec + ADJLIST_SZ_BYTES > slots_start {
                    return Err(format!(
                        "page {}: slot {slot} record offset {off}, but the next record belongs at {}, before the slots",
                        page.pid,
                        rec - PAGE_HEADER_BYTES
                    ));
                }
                let len = read_le::<ADJLIST_SZ_BYTES>(&page.data[rec..]) as usize;
                let end = rec + ADJLIST_SZ_BYTES + len * rid_w;
                if end > slots_start {
                    return Err(format!(
                        "page {}: slot {slot} adjacency list of {len} overruns the record region",
                        page.pid
                    ));
                }
                rec = end;
            }
        }
        PageKind::Large => {
            let count = view.count() as usize;
            let end = PAGE_HEADER_BYTES + VID_BYTES + count * rid_w;
            if end > cfg.page_size - PAGE_TRAILER_BYTES {
                return Err(format!(
                    "page {}: LP chunk of {count} entries overruns the page",
                    page.pid
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests panic on failure by design
mod tests {
    use super::*;

    fn cfg() -> PageFormatConfig {
        PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 256)
    }

    #[test]
    fn small_page_roundtrip() {
        let c = cfg();
        let mut enc = SmallPageEncoder::new(c);
        let adj0 = [RecordId::new(0, 1), RecordId::new(0, 2)];
        let adj1 = [RecordId::new(3, 0)];
        let adj2: [RecordId; 0] = [];
        assert_eq!(enc.push_vertex(10, &adj0), 0);
        assert_eq!(enc.push_vertex(11, &adj1), 1);
        assert_eq!(enc.push_vertex(12, &adj2), 2);
        let page = enc.finish(7);
        let v = page.verify(c).unwrap().view();
        assert_eq!(v.kind(), PageKind::Small);
        assert_eq!(v.count(), 3);
        assert_eq!(v.sp_vid(0), 10);
        assert_eq!(v.sp_vid(2), 12);
        assert_eq!(v.sp_adj_len(0), 2);
        assert_eq!(v.sp_adj(0, 0), RecordId::new(0, 1));
        assert_eq!(v.sp_adj(0, 1), RecordId::new(0, 2));
        assert_eq!(v.sp_adj(1, 0), RecordId::new(3, 0));
        assert_eq!(v.sp_adj_len(2), 0);
        assert_eq!(v.edges_in_page(), 3);
    }

    #[test]
    fn sp_vertices_iterator_matches_accessors() {
        let c = cfg();
        let mut enc = SmallPageEncoder::new(c);
        enc.push_vertex(5, &[RecordId::new(1, 1)]);
        enc.push_vertex(6, &[RecordId::new(2, 2), RecordId::new(2, 3)]);
        let page = enc.finish(0);
        let v = page.verify(c).unwrap().view();
        let collected: Vec<(u64, Vec<RecordId>)> = v
            .sp_vertices()
            .map(|(vid, adj)| (vid, adj.collect()))
            .collect();
        assert_eq!(
            collected,
            vec![
                (5, vec![RecordId::new(1, 1)]),
                (6, vec![RecordId::new(2, 2), RecordId::new(2, 3)]),
            ]
        );
    }

    #[test]
    fn capacity_tracking_refuses_overflow() {
        let c = cfg();
        let mut enc = SmallPageEncoder::new(c);
        // Each vertex with 1 edge costs 6+4+4+4 = 18 bytes; budget 240
        // (header and checksum trailer excluded).
        let mut n = 0;
        while enc.fits(1) {
            enc.push_vertex(n, &[RecordId::new(0, 0)]);
            n += 1;
        }
        assert_eq!(n, (256 - 8 - 8) / 18);
        assert!(!enc.fits(1));
        assert!(enc.fits(0) || !enc.fits(0)); // remaining() stays consistent
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn push_past_capacity_panics() {
        let c = cfg();
        let mut enc = SmallPageEncoder::new(c);
        let adj: Vec<RecordId> = (0..1000).map(|i| RecordId::new(0, i)).collect();
        enc.push_vertex(0, &adj);
    }

    #[test]
    fn push_run_copies_what_push_vertex_would_encode() {
        let c = PageFormatConfig::new(PhysicalIdConfig::new(3, 2), 256);
        let lists = [
            vec![RecordId::new(0x01_02_03, 0x0405), RecordId::new(7, 0xFFFF)],
            vec![],
            vec![RecordId::new(0xFF_FF_FF, 1)],
        ];
        let mut enc = SmallPageEncoder::new(c);
        for (vid, adj) in lists.iter().enumerate() {
            enc.push_vertex(vid as u64, adj);
        }
        let page = enc.finish(3);
        let mut copy = SmallPageEncoder::new(c);
        for (vid, mut run) in page.verify(c).unwrap().view().sp_vertices() {
            if vid == 0 {
                // A partly consumed run is the entries not yet yielded.
                assert_eq!(run.next(), Some(lists[0][0]));
                assert_eq!(run.packed_bytes(), [7, 0, 0, 0xFF, 0xFF]);
                copy.push_vertex(vid, &lists[0][..1]);
                copy.push_run(vid + 10, &run);
            } else {
                copy.push_run(vid, &run);
            }
        }
        let mut want = SmallPageEncoder::new(c);
        want.push_vertex(0, &lists[0][..1]);
        want.push_vertex(10, &lists[0][1..]);
        want.push_vertex(1, &lists[1]);
        want.push_vertex(2, &lists[2]);
        assert_eq!(copy.finish(3).data, want.finish(3).data);
    }

    #[test]
    #[should_panic(expected = "run of another (p, q)")]
    fn push_run_of_another_width_panics() {
        let page = encode_large_page(cfg(), 0, 7, &[RecordId::new(2, 3)]);
        let run = page.verify(cfg()).unwrap().view().lp_adj_run();
        // Same entry width (4 bytes), different split: the copied bytes
        // would decode to other record IDs.
        let other = PageFormatConfig::new(PhysicalIdConfig::new(3, 1), 256);
        SmallPageEncoder::new(other).push_run(0, &run);
    }

    #[test]
    #[should_panic(expected = "entry 2 out of range")]
    fn sp_adj_past_the_list_panics() {
        let c = cfg();
        let mut enc = SmallPageEncoder::new(c);
        enc.push_vertex(0, &[RecordId::new(1, 1), RecordId::new(1, 2)]);
        enc.push_vertex(1, &[RecordId::new(2, 2)]);
        let page = enc.finish(0);
        let v = page.verify(c).unwrap().view();
        // Would otherwise decode vertex 1's ADJLIST_SZ as a record ID.
        v.sp_adj(0, v.sp_adj_len(0));
    }

    #[test]
    #[should_panic(expected = "entry 1 out of range")]
    fn lp_adj_past_the_chunk_panics() {
        let c = cfg();
        let page = encode_large_page(c, 0, 7, &[RecordId::new(2, 3)]);
        let v = page.verify(c).unwrap().view();
        v.lp_adj(v.count());
    }

    #[test]
    fn resealed_unknown_or_mislabelled_kind_is_rejected() {
        let c = cfg();
        let mut page = encode_large_page(c, 4, 7, &[RecordId::new(2, 3)]);
        page.data[0] = 2;
        seal(&mut page.data);
        assert!(page.checksum_ok());
        assert_eq!(page.verify(c).unwrap_err(), "page 4: unknown kind byte 2");
        // A valid header byte the page table disagrees with.
        page.data[0] = PageKind::Small as u8;
        seal(&mut page.data);
        let err = page.verify(c).unwrap_err();
        assert_eq!(err, "page 4: Small by its header, labelled Large");
    }

    #[test]
    fn large_page_roundtrip() {
        let c = cfg();
        let adj: Vec<RecordId> = (0..c.lp_capacity() as u32)
            .map(|i| RecordId::new(i as u64 % 7, i))
            .collect();
        let page = encode_large_page(c, 9, 0x0012_3456_789A, &adj);
        let v = page.verify(c).unwrap().view();
        assert_eq!(v.kind(), PageKind::Large);
        assert_eq!(v.lp_vid(), 0x0012_3456_789A);
        assert_eq!(v.count() as usize, adj.len());
        for (i, r) in adj.iter().enumerate() {
            assert_eq!(v.lp_adj(i as u32), *r);
        }
        assert_eq!(v.edges_in_page(), adj.len() as u64);
    }

    #[test]
    fn encoded_pages_carry_valid_checksums() {
        let c = cfg();
        let mut enc = SmallPageEncoder::new(c);
        enc.push_vertex(1, &[RecordId::new(0, 0)]);
        let sp = enc.finish(0);
        assert!(sp.checksum_ok());
        assert!(sp.verify(c).is_ok());
        let lp = encode_large_page(c, 1, 7, &[RecordId::new(2, 3)]);
        assert!(lp.checksum_ok());
        assert!(lp.verify(c).is_ok());
    }

    #[test]
    fn flipped_bit_is_detected() {
        let c = cfg();
        let mut enc = SmallPageEncoder::new(c);
        enc.push_vertex(1, &[RecordId::new(0, 0)]);
        let mut page = enc.finish(0);
        page.data[PAGE_HEADER_BYTES + 1] ^= 0x40;
        assert!(!page.checksum_ok());
        let err = page.verify(c).unwrap_err();
        assert!(err.contains("checksum"), "unexpected error: {err}");
    }

    /// Every byte of a sealed page is covered at every page size, whether
    /// or not the body divides into the hash's lanes evenly — the last
    /// `body % FNV_LANES` bytes included — and equal-length stripes are
    /// not interchangeable.
    #[test]
    fn any_flipped_byte_or_swapped_stripe_is_detected_at_every_page_size() {
        for size in [64usize, 65, 66, 67, 72, 100, 101, 256, 4096, 65536] {
            let id = PhysicalIdConfig::new(2, 4);
            let c = PageFormatConfig::new(id, size);
            let adj: Vec<RecordId> = (0..c.lp_capacity() as u32)
                .map(|i| RecordId::new(i as u64 * 251 % 65_521, i.wrapping_mul(2_654_435_761)))
                .collect();
            let page = encode_large_page(c, 0, 0x0102_0304_0506, &adj);
            assert!(page.checksum_ok() && page.verify(c).is_ok(), "{size}");
            // Every position up to 4 KiB; for 64 KiB a stride coprime to
            // the stripe length plus both sides of every stripe boundary,
            // the leftover bytes and the trailer.
            let body = size - PAGE_TRAILER_BYTES;
            let stripe = body / gts_ckpt::FNV_LANES;
            let mut at: Vec<usize> = (0..size)
                .step_by(if size > 4096 { 251 } else { 1 })
                .collect();
            at.extend((1..=gts_ckpt::FNV_LANES).flat_map(|l| [l * stripe - 1, l * stripe]));
            at.extend(body - 1..size);
            for at in at {
                let mut data = page.data.clone();
                data[at] ^= 1 << (at % 8);
                let bad = Page::new(0, PageKind::Large, data);
                assert!(!bad.checksum_ok(), "{size}: flip at {at}");
                let err = bad.verify(c).unwrap_err();
                assert!(err.contains("checksum"), "{size}: flip at {at}: {err}");
            }
            let mut data = page.data.clone();
            let (a, b) = data.split_at_mut(stripe);
            a.swap_with_slice(&mut b[stripe..2 * stripe]); // stripes 0 and 2
            assert!(!Page::new(0, PageKind::Large, data).checksum_ok(), "{size}");
        }
    }

    #[test]
    fn verification_is_cached_with_borrow_after_semantics() {
        let c = cfg();
        let mut enc = SmallPageEncoder::new(c);
        enc.push_vertex(1, &[RecordId::new(0, 0)]);
        let mut page = enc.finish(0);
        assert!(page.verify(c).is_ok());
        // Mutating after a successful verification is the documented
        // blind spot: cached paths still say "verified"...
        page.data[PAGE_HEADER_BYTES + 1] ^= 0x40;
        assert!(page.verify(c).is_ok());
        assert!(page.checksum_ok_cached());
        // ...while the pure recomputation still sees the damage, and a
        // clone made *before* first verification detects it too.
        assert!(!page.checksum_ok());
    }

    #[test]
    fn checksum_cache_never_caches_failures() {
        let c = cfg();
        let mut enc = SmallPageEncoder::new(c);
        enc.push_vertex(1, &[RecordId::new(0, 0)]);
        let mut page = enc.finish(0);
        page.data[PAGE_HEADER_BYTES + 1] ^= 0x40;
        assert!(!page.checksum_ok_cached());
        assert!(page.verify(c).is_err());
        // Healing the bytes (a successful re-read) must be observable.
        page.data[PAGE_HEADER_BYTES + 1] ^= 0x40;
        assert!(page.checksum_ok_cached());
        assert!(page.verify(c).is_ok());
    }

    #[test]
    fn wide_id_config_roundtrip() {
        // (p=3,q=3) with values beyond 16-bit range.
        let c = PageFormatConfig::new(PhysicalIdConfig::TRILLION, 4096);
        let mut enc = SmallPageEncoder::new(c);
        let adj = [RecordId::new(0xABCDEF, 0x123456)];
        enc.push_vertex(0x00FF_FFFF_FFFF, &adj);
        let page = enc.finish(0);
        let v = page.verify(c).unwrap().view();
        assert_eq!(v.sp_vid(0), 0x00FF_FFFF_FFFF);
        assert_eq!(v.sp_adj(0, 0), RecordId::new(0xABCDEF, 0x123456));
    }
}
