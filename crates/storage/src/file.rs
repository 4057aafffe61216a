//! On-disk persistence of slotted-page stores.
//!
//! The paper keeps graphs "in PCI-E SSDs" as files of slotted pages
//! (Sec. 1); this module provides that durable form. The format is
//! deliberately minimal — a fixed header followed by the raw page images —
//! because everything else (RVT, vertex placements, page kinds, edge
//! counts) is reconstructible by scanning the pages
//! ([`GraphStore::reconstruct`]), which also serves as a load-time
//! integrity check in two passes over the pages: the first verifies each
//! page (trailer checksum, layout) and places its vertices, recording
//! how many slots a record ID may name in the page; the second checks
//! every record ID against that per-page slot table and the RVT.
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
use std::io::{self, BufReader, Read};
use std::path::Path;

const MAGIC: &[u8; 8] = b"GTSPAGES";
/// Version 4 page trailers are XXH64; version 3's are lane-parallel
/// FNV-1a, version 2's plain FNV-1a, version 1 has none. Every older
/// version is rejected as unsupported: rebuild.
const VERSION: u32 = 4;
const HEADER_BYTES: usize = 40;

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
    let file = File::open(path)?;
    let file_len = file.metadata()?.len();
    let mut r = BufReader::new(file);
    let mut header = [0u8; HEADER_BYTES];
    r.read_exact(&mut header)
        .map_err(|_| FileError::BadHeader("file shorter than header".into()))?;
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
    for pid in 0..num_pages {
        let mut data = vec![0u8; page_size];
        r.read_exact(&mut data)
            .map_err(|_| FileError::BadHeader(format!("truncated at page {pid}")))?;
        let kind = PageKind::from_byte(data[0]).ok_or_else(|| {
            FileError::BadHeader(format!("page {pid}: unknown kind byte {}", data[0]))
        })?;
        pages.push(Page::new(pid, kind, data.into_boxed_slice()));
    }
    // Every page is read: close the file and free the read buffer before
    // the checks allocate their tables.
    drop(r);
    GraphStore::reconstruct(cfg, pages, num_vertices).map_err(FileError::BadHeader)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests panic on failure by design
mod tests {
    use super::*;
    use crate::builder::build_graph_store;
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
