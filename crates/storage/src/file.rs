//! On-disk persistence of slotted-page stores.
//!
//! The paper keeps graphs "in PCI-E SSDs" as files of slotted pages
//! (Sec. 1); this module provides that durable form: a fixed header, one
//! role byte per page and their checksum, then the raw page images.
//! Everything else (RVT, vertex placements, kind lists, delta pages, edge
//! counts) is rebuilt at load from the pages placed by their roles, which
//! doubles as an integrity check. [`load_store`] reads the pages in
//! batches of about 1 MiB, each straight into its own buffer with one
//! vectored read, and verifies each as it arrives, while its bytes are
//! hot.
//!
//! **Page roles.** A page is a Small Page, the head of a Large vertex's
//! home run, a later chunk of the run before it, or a delta page. The
//! role is fixed when the page is made, and [`save_store`] writes it from
//! the store's bookkeeping, never from page bytes, so a reloaded store
//! has the saved one's runs and delta pages (DESIGN.md §12). A role table
//! the pages contradict is refused (`BadHeader`).
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
//! 8       4     format version (LE u32, currently 5: recorded page roles)
//! 12      4     page size in bytes (LE u32)
//! 16      1     p (page-id bytes)
//! 17      1     q (slot bytes)
//! 18      6     reserved (zero)
//! 24      8     number of vertices (LE u64)
//! 32      8     number of pages n (LE u64)
//! 40      n     page roles, one byte per page: 0 Small Page, 1 run head,
//!               2 later chunk, 3 delta page
//! 40+n    8     role checksum (LE u64, XXH64 of the n role bytes)
//! 48+n    ...   page images, page_size bytes each
//! ```

use crate::builder::{GraphStore, PageRole};
use crate::format::{PageFormatConfig, PhysicalIdConfig};
use crate::page::Page;
use std::fs::File;
use std::io::{self, IoSliceMut, Read};
use std::path::Path;

const MAGIC: &[u8; 8] = b"GTSPAGES";
/// Version 5 records each page's role. Version 4 has the same XXH64 page
/// trailers but no roles; version 3's trailers are lane-parallel FNV-1a,
/// version 2's plain FNV-1a, version 1 has none. Every older version is
/// rejected as unsupported: rebuild.
const VERSION: u32 = 5;
const HEADER_BYTES: usize = 40;
/// The role table's checksum, after its one byte per page.
const ROLE_SUM_BYTES: usize = 8;
/// Page bytes [`load_store`] reads per batch: each page straight into
/// its own buffer, then verified while it is in cache.
const BATCH_BYTES: usize = 1 << 20;

/// Refuse the file as corrupt or foreign.
fn bad<T>(why: impl Into<String>) -> Result<T, FileError> {
    Err(FileError::BadHeader(why.into()))
}

/// Decode a little-endian `u32` at `at` without `unwrap` (the caller
/// guarantees `buf` holds at least `at + 4` bytes).
fn le_u32(buf: &[u8], at: usize) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(&buf[at..at + 4]);
    u32::from_le_bytes(b)
}

/// Decode a little-endian `u64` at `at`.
pub(crate) fn le_u64(buf: &[u8], at: usize) -> u64 {
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
    let roles: Vec<u8> = store.page_roles().into_iter().map(|r| r as u8).collect();
    let len = (HEADER_BYTES + roles.len() + ROLE_SUM_BYTES) as u64
        + store.num_pages() * cfg.page_size as u64;
    let kill = gts_ckpt::KillSwitch::never();
    gts_ckpt::replace_streamed(&kill, path.as_ref(), len, |w| {
        w.write_all(MAGIC)?;
        w.write_all(&VERSION.to_le_bytes())?;
        w.write_all(&(cfg.page_size as u32).to_le_bytes())?;
        w.write_all(&[cfg.id.p, cfg.id.q, 0, 0, 0, 0, 0, 0])?;
        w.write_all(&store.num_vertices().to_le_bytes())?;
        w.write_all(&store.num_pages().to_le_bytes())?;
        w.write_all(&roles)?;
        w.write_all(&gts_ckpt::xxh64(&roles).to_le_bytes())?;
        for page in store.pages() {
            w.write_all(&page.data)?;
        }
        Ok(())
    })
    .map_err(|e| FileError::Io(io::Error::other(e)))
}

/// Read a store from `path`, rebuilding all metadata from the pages and
/// their recorded roles.
pub fn load_store(path: impl AsRef<Path>) -> Result<GraphStore, FileError> {
    let mut file = File::open(path)?;
    let file_len = file.metadata()?.len();
    let mut header = [0u8; HEADER_BYTES];
    file.read_exact(&mut header).map_err(|e| match e.kind() {
        io::ErrorKind::UnexpectedEof => FileError::BadHeader("file shorter than header".into()),
        _ => FileError::Io(e),
    })?;
    if &header[0..8] != MAGIC {
        return bad("wrong magic");
    }
    let version = le_u32(&header, 8);
    if version != VERSION {
        return bad(format!(
            "unsupported version {version} (expected {VERSION})"
        ));
    }
    let page_size = le_u32(&header, 12) as usize;
    let (p, q) = (header[16], header[17]);
    if !(1..=8).contains(&p) || !(1..=8).contains(&q) {
        return bad(format!("bad id widths ({p},{q})"));
    }
    let num_vertices = le_u64(&header, 24);
    let num_pages = le_u64(&header, 32);
    // Validate before constructing: PageFormatConfig::new treats bad
    // combinations as programming errors (panics), but here they indicate
    // a corrupt or foreign file.
    let id = PhysicalIdConfig::new(p, q);
    if !(64..=(1 << 30)).contains(&page_size) || page_size as u64 > id.max_page_size() {
        return bad(format!("implausible page size {page_size} for {id}"));
    }
    let cfg = PageFormatConfig::new(id, page_size);
    // Bound the untrusted counts before allocating anything: the page
    // count must match what the file can actually hold (each page's image
    // and role byte, plus the role checksum), and the vertex count must be
    // addressable by the format (reconstruct allocates a per-vertex table
    // from it).
    let payload = file_len.saturating_sub(HEADER_BYTES as u64);
    let holds = num_pages
        .checked_mul(page_size as u64 + 1)
        .and_then(|b| b.checked_add(ROLE_SUM_BYTES as u64));
    if holds != Some(payload) {
        return bad(format!(
            "header claims {num_pages} pages of {page_size} B but the file holds {payload} payload bytes"
        ));
    }
    if num_vertices > id.max_page_id().saturating_mul(id.max_slot()) {
        return bad(format!(
            "header claims {num_vertices} vertices, beyond what {id} can address"
        ));
    }

    let mut table = vec![0u8; num_pages as usize + ROLE_SUM_BYTES];
    file.read_exact(&mut table)?;
    let (role_bytes, sum) = table.split_at(num_pages as usize);
    let (stored, computed) = (le_u64(sum, 0), gts_ckpt::xxh64(role_bytes));
    if stored != computed {
        return bad(format!(
            "role table checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"
        ));
    }
    let mut roles = Vec::with_capacity(num_pages as usize);
    for (&byte, pid) in role_bytes.iter().zip(0u64..) {
        let Some(&role) = PageRole::ALL.get(byte as usize) else {
            return bad(format!("page {pid}: unknown role byte {byte}"));
        };
        roles.push(role);
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
            let page = Page::new(pid, roles[pid as usize].kind(), data);
            // Verified while its bytes are still in cache, which refuses a
            // kind byte its role contradicts: reconstruct's own verify of
            // it is then one load.
            page.verify(cfg).map_err(FileError::BadHeader)?;
            pages.push(page);
        }
    }
    drop(file);
    GraphStore::reconstruct(cfg, pages, &roles, num_vertices).map_err(FileError::BadHeader)
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
                return bad(format!("truncated at page {pid}"));
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

    /// Versions 2 and 3 differ from 4 in the page trailer's function, and
    /// version 4 from 5 in recording no page roles: each is refused, and
    /// the file is left as it was.
    #[test]
    fn rejects_a_version_2_file_and_leaves_it_untouched() {
        let store = build_graph_store(&rmat(7), PageFormatConfig::small_default()).unwrap();
        for version in [2u32, 3, 4] {
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
                format!("bad store file: unsupported version {version} (expected 5)")
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

    /// Vertex 300's six chunks (pages 18-23) are the last base run, so
    /// the delta page a batch appends for it (page 24) follows the run
    /// directly; 301 vertices in 256 B pages.
    fn tail_run_store() -> GraphStore {
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
        store
    }

    /// The recorded role keeps the delta page that follows the last base
    /// run a delta page: the reload has the saved store's run lengths and
    /// delta pages, and the same edges, record IDs and edges per page,
    /// also after a further batch.
    #[test]
    fn a_tail_large_runs_delta_page_reloads_as_a_delta_page_and_keeps_its_edges() {
        let mut store = tail_run_store();
        let path = tmp("tail-run");
        save_store(&store, &path).unwrap();
        let mut loaded = load_store(&path).unwrap();
        std::fs::remove_file(&path).ok();

        assert_eq!(loaded.delta_pids_of(300), [24]);
        for pid in 18..24 {
            assert_eq!(loaded.rvt().entry(pid).lp_range, Some(23 - pid as u32));
        }
        assert_eq!(loaded.rvt().entry(24).lp_range, Some(0));
        assert_eq!(loaded.rvt(), store.rvt());
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
        assert_eq!(loaded.delta_pids_of(300), store.delta_pids_of(300));
    }

    /// The load's refusal of [`tail_run_store`]'s file once `edit` has
    /// changed its role table, the role bytes and then their checksum
    /// (and, if `reseal`, the checksum has been set to match the roles).
    fn refusal_with_roles(name: &str, reseal: bool, edit: impl FnOnce(&mut [u8])) -> String {
        let store = tail_run_store();
        let path = tmp(name);
        save_store(&store, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let n = store.num_pages() as usize;
        let table = &mut bytes[HEADER_BYTES..][..n + ROLE_SUM_BYTES];
        edit(table);
        if reseal {
            let sum = gts_ckpt::xxh64(&table[..n]).to_le_bytes();
            table[n..].copy_from_slice(&sum);
        }
        std::fs::write(&path, &bytes).unwrap();
        let got = load_store(&path);
        std::fs::remove_file(&path).ok();
        match got {
            Err(e @ FileError::BadHeader(_)) => e.to_string(),
            other => panic!("expected BadHeader, got {:?}", other.map(|_| "a store")),
        }
    }

    /// A flipped role byte, or a flipped byte of the role checksum, no
    /// longer matches the checksum.
    #[test]
    fn a_flipped_role_or_role_checksum_byte_is_refused() {
        // Page 24 is the last page; byte 25 the checksum's first.
        for at in [24, 25] {
            let got = refusal_with_roles(&format!("flip-{at}"), false, |t| t[at] ^= 1);
            assert!(
                got.starts_with("bad store file: role table checksum mismatch (stored "),
                "{got}"
            );
        }
    }

    /// A resealed role table that contradicts the pages is refused, each
    /// inconsistency with its own message: an unknown role byte; a role
    /// the page's kind byte contradicts, by the page's own verify (a page
    /// is labelled with its role's kind); a later chunk that follows no
    /// run of its vertex; a head of a placed vertex; a delta page of a
    /// vertex not yet placed.
    #[test]
    fn a_resealed_inconsistent_role_table_is_refused() {
        let cases: [(usize, u8, &str); 6] = [
            (3, 4, "page 3: unknown role byte 4"),
            (0, 1, "page 0: Small by its header, labelled Large"),
            (18, 0, "page 18: Large by its header, labelled Small"),
            (
                18,
                2,
                "page 18: later chunk of vid 300, which follows no run of it",
            ),
            (
                19,
                1,
                "page 19: run head of vid 300, which is already placed",
            ),
            (
                18,
                3,
                "page 18: delta page of vid 300, which is not yet placed",
            ),
        ];
        for (pid, role, want) in cases {
            let got = refusal_with_roles(&format!("roles-{pid}-{role}"), true, |r| r[pid] = role);
            assert_eq!(got, format!("bad store file: {want}"));
        }
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
