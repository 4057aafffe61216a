//! On-disk persistence of slotted-page stores.
//!
//! The paper keeps graphs "in PCI-E SSDs" as files of slotted pages
//! (Sec. 1); this module provides that durable form. The format is
//! deliberately minimal — a fixed header followed by the raw page images —
//! because everything else (RVT, vertex placements, page kinds, edge
//! counts) is reconstructible by scanning the pages
//! ([`GraphStore::reconstruct`]), which also serves as a load-time
//! integrity check. [`load_store`] touches each page's bytes while they
//! are hot: it reads the pages in batches of about 1 MiB, each straight
//! into its own buffer with one vectored read, and verifies every page
//! (trailer checksum, layout) as it arrives. Reconstruct then makes one
//! walk over the pages that places their vertices, records how many
//! slots a record ID may name in each page, and notes the highest slot
//! each record ID names per target page; one loop compares the two
//! tables. Only a file they refuse is walked again, record ID by record
//! ID, to name the first bad one in page order.
//!
//! **Canonical record IDs.** A record ID may name a Small Page's slot,
//! or slot 0 of the *first* chunk of a Large vertex's home run — exactly
//! the IDs [`GraphStore::rid_of_vertex`] gives, which are all the builder
//! and the mutation engine ever write. Slot 0 of a later chunk, or of a
//! delta page, would translate to the same vertex through the RVT, but
//! the slot table gives those pages no slot, so a file holding one is
//! refused (`BadHeader`, "... which has no such slot"). Every record ID
//! of a loaded store is therefore canonical, which is what lets a
//! mutation delete find an edge by comparing packed bytes.
//!
//! **Delta pages after a tail run.** Nothing in the file marks a page as
//! a delta page: reconstruct takes a run of Large pages for delta pages
//! when their vertex is already placed. The delta pages first appended
//! for the vertex of the last base Large run follow that run directly,
//! so a reload reads them as more chunks of it — the edges, record IDs
//! and per-page edge counts are kept, the delta bookkeeping is not
//! (DESIGN.md §12, "A gap in GTSPAGES 4").
//!
//! ```text
//! offset  size  field
//! 0       8     magic "GTSPAGES"
//! 8       4     format version (LE u32, currently 4: XXH64 page trailers)
//! 12      4     page size in bytes (LE u32)
//! 16      1     p (page-id bytes)
//! 17      1     q (slot bytes)
//! 18      6     reserved (zero)
//! 24      8     number of vertices (LE u64)
//! 32      8     number of pages (LE u64)
//! 40      ...   page images, page_size bytes each
//! ```

use crate::builder::GraphStore;
use crate::format::{PageFormatConfig, PageKind, PhysicalIdConfig};
use crate::page::Page;
use std::fs::File;
use std::io::{self, IoSliceMut, Read};
use std::path::Path;

const MAGIC: &[u8; 8] = b"GTSPAGES";
/// Version 4 page trailers are XXH64; version 3's are lane-parallel
/// FNV-1a, version 2's plain FNV-1a, version 1 has none. Every older
/// version is rejected as unsupported: rebuild.
const VERSION: u32 = 4;
const HEADER_BYTES: usize = 40;
/// Page bytes [`load_store`] reads per batch: each page straight into
/// its own buffer, then verified while it is in cache.
const BATCH_BYTES: usize = 1 << 20;

/// Decode a little-endian `u32` at `at` without `unwrap` (the caller
/// guarantees `buf` holds at least `at + 4` bytes).
fn le_u32(buf: &[u8], at: usize) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(&buf[at..at + 4]);
    u32::from_le_bytes(b)
}

/// Decode a little-endian `u64` at `at`.
fn le_u64(buf: &[u8], at: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&buf[at..at + 8]);
    u64::from_le_bytes(b)
}

/// Errors from reading a store file.
#[derive(Debug)]
pub enum FileError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Not a GTS page file, or an unsupported version.
    BadHeader(String),
}

impl std::fmt::Display for FileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FileError::Io(e) => write!(f, "i/o error: {e}"),
            FileError::BadHeader(m) => write!(f, "bad store file: {m}"),
        }
    }
}

impl std::error::Error for FileError {}

impl From<io::Error> for FileError {
    fn from(e: io::Error) -> Self {
        FileError::Io(e)
    }
}

/// Write `store` to `path`, replacing any file there crash-atomically
/// through [`gts_ckpt::replace_streamed`]: the pages stream to
/// `<path>.tmp`, which is fsynced and renamed over `path`, so a crash
/// leaves the old file or the new one, never a mixture.
pub fn save_store(store: &GraphStore, path: impl AsRef<Path>) -> Result<(), FileError> {
    let cfg = store.cfg();
    let len = HEADER_BYTES as u64 + store.num_pages() * cfg.page_size as u64;
    let kill = gts_ckpt::KillSwitch::never();
    gts_ckpt::replace_streamed(&kill, path.as_ref(), len, |w| {
        w.write_all(MAGIC)?;
        w.write_all(&VERSION.to_le_bytes())?;
        w.write_all(&(cfg.page_size as u32).to_le_bytes())?;
        w.write_all(&[cfg.id.p, cfg.id.q, 0, 0, 0, 0, 0, 0])?;
        w.write_all(&store.num_vertices().to_le_bytes())?;
        w.write_all(&store.num_pages().to_le_bytes())?;
        for page in store.pages() {
            w.write_all(&page.data)?;
        }
        Ok(())
    })
    .map_err(|e| FileError::Io(io::Error::other(e)))
}

/// Read a store from `path`, reconstructing all metadata from the pages.
pub fn load_store(path: impl AsRef<Path>) -> Result<GraphStore, FileError> {
    let mut file = File::open(path)?;
    let file_len = file.metadata()?.len();
    let mut header = [0u8; HEADER_BYTES];
    file.read_exact(&mut header).map_err(|e| match e.kind() {
        io::ErrorKind::UnexpectedEof => FileError::BadHeader("file shorter than header".into()),
        _ => FileError::Io(e),
    })?;
    if &header[0..8] != MAGIC {
        return Err(FileError::BadHeader("wrong magic".into()));
    }
    let version = le_u32(&header, 8);
    if version != VERSION {
        return Err(FileError::BadHeader(format!(
            "unsupported version {version} (expected {VERSION})"
        )));
    }
    let page_size = le_u32(&header, 12) as usize;
    let (p, q) = (header[16], header[17]);
    if !(1..=8).contains(&p) || !(1..=8).contains(&q) {
        return Err(FileError::BadHeader(format!("bad id widths ({p},{q})")));
    }
    let num_vertices = le_u64(&header, 24);
    let num_pages = le_u64(&header, 32);
    // Validate before constructing: PageFormatConfig::new treats bad
    // combinations as programming errors (panics), but here they indicate
    // a corrupt or foreign file.
    let id = PhysicalIdConfig::new(p, q);
    if !(64..=(1 << 30)).contains(&page_size) || page_size as u64 > id.max_page_size() {
        return Err(FileError::BadHeader(format!(
            "implausible page size {page_size} for {id}"
        )));
    }
    let cfg = PageFormatConfig::new(id, page_size);
    // Bound the untrusted counts before allocating anything: the page
    // count must match what the file can actually hold, and the vertex
    // count must be addressable by the format (reconstruct allocates a
    // per-vertex table from it).
    let payload = file_len.saturating_sub(HEADER_BYTES as u64);
    if num_pages.checked_mul(page_size as u64) != Some(payload) {
        return Err(FileError::BadHeader(format!(
            "header claims {num_pages} pages of {page_size} B but the file holds {payload} payload bytes"
        )));
    }
    if num_vertices > id.max_page_id().saturating_mul(id.max_slot()) {
        return Err(FileError::BadHeader(format!(
            "header claims {num_vertices} vertices, beyond what {id} can address"
        )));
    }

    let mut pages = Vec::with_capacity(num_pages as usize);
    let per_batch = (BATCH_BYTES / page_size).max(1) as u64;
    let mut batch: Vec<Box<[u8]>> = Vec::new();
    while (pages.len() as u64) < num_pages {
        let first = pages.len() as u64;
        let len = (num_pages - first).min(per_batch) as usize;
        batch.extend((0..len).map(|_| vec![0u8; page_size].into_boxed_slice()));
        read_batch(&mut file, &mut batch, first)?;
        for (pid, data) in (first..).zip(batch.drain(..)) {
            let kind = PageKind::from_byte(data[0]).ok_or_else(|| {
                FileError::BadHeader(format!("page {pid}: unknown kind byte {}", data[0]))
            })?;
            let page = Page::new(pid, kind, data);
            // Verified while its bytes are still in cache: reconstruct's
            // own verify of it is then one load.
            page.verify(cfg).map_err(FileError::BadHeader)?;
            pages.push(page);
        }
    }
    drop(file);
    GraphStore::reconstruct(cfg, pages, num_vertices).map_err(FileError::BadHeader)
}

/// Fill every page buffer of `batch`, whose first page is `first`, with
/// vectored reads straight from `file`: no copy through a user-space
/// buffer, and one system call per batch when the file keeps up (the
/// standard library caps the buffers one call names at the system's
/// limit; the loop reads the rest). Running out of file is a truncated
/// store; any other failure is [`FileError::Io`].
fn read_batch(file: &mut File, batch: &mut [Box<[u8]>], first: u64) -> Result<(), FileError> {
    let page_size = batch.first().map_or(1, |b| b.len());
    let mut slices: Vec<IoSliceMut<'_>> = batch.iter_mut().map(|b| IoSliceMut::new(b)).collect();
    let mut rest = &mut slices[..];
    let mut filled = 0usize;
    while !rest.is_empty() {
        match file.read_vectored(rest) {
            Ok(0) => {
                let pid = first + (filled / page_size) as u64;
                return Err(FileError::BadHeader(format!("truncated at page {pid}")));
            }
            Ok(n) => {
                filled += n;
                IoSliceMut::advance_slices(&mut rest, n);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FileError::Io(e)),
        }
    }
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests panic on failure by design
mod tests {
    use super::*;
    use crate::builder::build_graph_store;
    use crate::MutationBatch;
    use gts_graph::generate::rmat;
    use gts_graph::EdgeList;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("gts-file-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let graph = rmat(9);
        let store = build_graph_store(&graph, PageFormatConfig::small_default()).unwrap();
        let path = tmp("roundtrip");
        save_store(&store, &path).unwrap();
        let loaded = load_store(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.cfg(), store.cfg());
        assert_eq!(loaded.num_vertices(), store.num_vertices());
        assert_eq!(loaded.num_edges(), store.num_edges());
        assert_eq!(loaded.num_pages(), store.num_pages());
        assert_eq!(loaded.rvt(), store.rvt());
        assert_eq!(loaded.small_pids(), store.small_pids());
        assert_eq!(loaded.large_pids(), store.large_pids());
        assert_eq!(loaded.pages(), store.pages());
        for v in 0..store.num_vertices() {
            assert_eq!(loaded.rid_of_vertex(v), store.rid_of_vertex(v));
        }
        for pid in 0..store.num_pages() {
            assert_eq!(loaded.edges_in_page(pid), store.edges_in_page(pid));
        }
    }

    #[test]
    fn roundtrip_with_large_pages() {
        // A hub graph forcing multi-chunk Large Page runs.
        let mut edges: Vec<(u32, u32)> = (0..2000).map(|i| (0, 1 + i % 3000)).collect();
        edges.extend((0..1000).map(|i| (1 + i, 0)));
        let graph = EdgeList::new(3001, edges);
        let store = build_graph_store(
            &graph,
            PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 1024),
        )
        .unwrap();
        assert!(store.large_pids().len() > 1);
        let path = tmp("lp");
        save_store(&store, &path).unwrap();
        let loaded = load_store(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.rvt(), store.rvt());
        assert_eq!(loaded.large_pids(), store.large_pids());
    }

    /// 128 B pages put all of RMAT12's pages in one batch, more buffers
    /// than one vectored read may name (1024 on Linux): the batch takes
    /// several reads.
    #[test]
    fn roundtrip_with_more_pages_per_batch_than_one_read_names() {
        let cfg = PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 128);
        let store = build_graph_store(&rmat(12), cfg).unwrap();
        assert!(store.num_pages() > 2048, "{}", store.num_pages());
        let path = tmp("many");
        save_store(&store, &path).unwrap();
        let loaded = load_store(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.pages(), store.pages());
    }

    #[test]
    fn rejects_wrong_magic() {
        let path = tmp("magic");
        std::fs::write(&path, b"NOTAGTSFILE.....plus more bytes to pass header").unwrap();
        let err = load_store(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, FileError::BadHeader(_)));
    }

    /// Versions 2 and 3 differ from 4 only in the page trailer's
    /// function: both are refused, and the file is left as it was.
    #[test]
    fn rejects_a_version_2_file_and_leaves_it_untouched() {
        let store = build_graph_store(&rmat(7), PageFormatConfig::small_default()).unwrap();
        for version in [2u32, 3] {
            let path = tmp(&format!("v{version}"));
            save_store(&store, &path).unwrap();
            let mut bytes = std::fs::read(&path).unwrap();
            bytes[8..12].copy_from_slice(&version.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            let err = load_store(&path).unwrap_err();
            let after = std::fs::read(&path).unwrap();
            std::fs::remove_file(&path).ok();
            assert_eq!(
                err.to_string(),
                format!("bad store file: unsupported version {version} (expected 4)")
            );
            assert_eq!(after, bytes);
        }
    }

    /// The page trailer's function is part of the format: a change to it
    /// must fail here, not on a user's store.
    #[test]
    fn page_trailer_is_pinned() {
        let cfg = PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 1024);
        let store = build_graph_store(&rmat(8), cfg).unwrap();
        let page = &store.pages()[0];
        assert!(page.checksum_ok());
        assert_eq!(page.stored_checksum(), 0x4B9D_13D7_9493_F244);
    }

    /// A read that fails for any reason but running out of file is an
    /// I/O error, not a corrupt file: a directory opens, but reading it
    /// fails.
    #[test]
    fn a_read_error_is_an_io_error() {
        let dir = tmp("dir");
        std::fs::create_dir_all(&dir).unwrap();
        let err = load_store(&dir).unwrap_err();
        std::fs::remove_dir(&dir).ok();
        assert!(matches!(err, FileError::Io(_)), "{err}");
    }

    #[test]
    fn rejects_truncated_pages() {
        let graph = rmat(8);
        let store = build_graph_store(&graph, PageFormatConfig::small_default()).unwrap();
        let path = tmp("trunc");
        save_store(&store, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 100]).unwrap();
        let err = load_store(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, FileError::BadHeader(_)), "{err}");
    }

    /// GTSPAGES 4 has no bit that tells a delta page from one more chunk
    /// of the Large run before it (module docs). Vertex 300's six chunks
    /// (pages 18-23) are the last base run, so the delta page a batch
    /// appends for it (page 24) follows the run directly, and a reload
    /// reads it as a seventh chunk. What the reload keeps is what a query
    /// reads: the edges, every vertex's record ID and the edges per page,
    /// also after a further batch.
    #[test]
    fn a_tail_large_run_reloads_its_delta_page_as_a_chunk_and_keeps_its_edges() {
        let cfg = PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 256);
        let graph = EdgeList::new(301, (0..300).map(|d| (300, d)).collect());
        let mut store = build_graph_store(&graph, cfg).unwrap();
        assert_eq!(store.large_pids(), (18..24).collect::<Vec<u64>>());
        let mut batch = MutationBatch::new();
        for d in 0..60 {
            batch.insert(300, d);
        }
        store.apply_mutations(&batch).unwrap();
        assert_eq!(store.delta_pids_of(300), [24]);
        let path = tmp("tail-run");
        save_store(&store, &path).unwrap();
        let mut loaded = load_store(&path).unwrap();
        std::fs::remove_file(&path).ok();

        // The gap: no delta page, and a run one chunk longer.
        assert_eq!(loaded.delta_pids_of(300), [0u64; 0]);
        for pid in 18..25 {
            assert_eq!(loaded.rvt().entry(pid).lp_range, Some(24 - pid as u32));
        }
        let same = |a: &GraphStore, b: &GraphStore| {
            assert_eq!(a.decode_edges(), b.decode_edges());
            for v in 0..a.num_vertices() {
                assert_eq!(a.rid_of_vertex(v), b.rid_of_vertex(v));
            }
            assert_eq!(a.num_pages(), b.num_pages());
            for pid in 0..a.num_pages() {
                assert_eq!(a.edges_in_page(pid), b.edges_in_page(pid));
            }
        };
        same(&loaded, &store);
        let mut more = MutationBatch::new();
        more.insert(300, 7).insert(5, 300).delete(300, 1);
        store.apply_mutations(&more).unwrap();
        loaded.apply_mutations(&more).unwrap();
        same(&loaded, &store);
    }

    #[test]
    fn loaded_store_runs_identically() {
        // A loaded store must be drop-in for the freshly built one.
        let graph = rmat(9);
        let store = build_graph_store(&graph, PageFormatConfig::small_default()).unwrap();
        let path = tmp("run");
        save_store(&store, &path).unwrap();
        let loaded = load_store(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.decode_edges(), store.decode_edges());
    }
}
