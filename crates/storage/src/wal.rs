//! Mutation write-ahead log: durability for the live topology.
//!
//! An applied [`MutationBatch`] lives only in memory; without a log a
//! crash between checkpoints silently loses every batch, and resume can
//! only *refuse* the mutated store. This module closes that gap with a
//! log-before-apply WAL:
//!
//! * every non-empty batch is appended to `wal.log` — one sealed frame,
//!   one fsync — **before** [`GraphStore::apply_mutations`] installs it;
//! * the file is a [`SealedLog`]: a crash mid-append leaves a torn tail
//!   that the next [`Wal::open`] cuts off, and a rotted interior frame is
//!   a typed error, never a silent truncation;
//! * recovery replays the WAL suffix on top of the newest snapshot, as
//!   one `GraphStore::apply_batches` call that commits structure only —
//!   each changed page is built on its first read — and lands
//!   byte-identical to the uncrashed store, epoch included, because the
//!   engine is deterministic and its bytes depend neither on how batches
//!   are grouped into calls nor on when pages are read.
//!
//! This module owns only what is specific to mutations — the header
//! binding ([`WalHeader`]), the record codec and the epoch chain; framing,
//! checksums and file I/O are `gts-ckpt`'s (DESIGN.md "On-disk formats").
//!
//! Records form a contiguous epoch chain: the first record's `pre_epoch`
//! is `base_epoch`, every record has `post_epoch == pre_epoch + 1`, and
//! each record's `pre_epoch` equals its predecessor's `post_epoch`.
//! [`Wal::log_batch`] enforces the chain and is idempotent — re-logging a
//! batch the log already holds (the crash-between-log-and-apply resume
//! path) verifies the stored record matches and appends nothing.

use crate::builder::{GraphStore, StoreShape};
use crate::file::le_u64;
use crate::mutate::{EdgeOp, MutateError, MutationBatch, MutationOutcome};
use gts_ckpt::{
    fnv1a, ByteReader, ByteWriter, CkptError, KillSwitch, LogFormat, LogImage, SealedLog,
};
use std::fmt;
use std::path::{Path, PathBuf};

/// The log's file name inside its directory.
pub const WAL_FILE: &str = "wal.log";

/// Everything that can go wrong while writing, reading, or replaying the
/// mutation WAL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    /// The sealed log under the WAL failed: a filesystem operation, a
    /// corrupt header or frame, an unsupported version, or a record body
    /// that does not decode.
    Log(CkptError),
    /// The log belongs to a different store or disagrees with the epoch
    /// chain being appended.
    Mismatch {
        /// What disagreed ("store fingerprint", "pre-epoch", ...).
        what: &'static str,
        /// The value this side requires.
        want: u64,
        /// The value actually found.
        got: u64,
    },
    /// The store rejected a logged batch. Logging one, the entry is
    /// rolled back and the store is untouched; replaying, the store is
    /// left as after the records before it.
    Rejected(MutateError),
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Log(e) => write!(f, "{e}"),
            WalError::Mismatch { what, want, got } => write!(
                f,
                "wal {what} mismatch: log has {got:#018x}, this side requires {want:#018x}"
            ),
            WalError::Rejected(e) => write!(f, "wal batch rejected by the store: {e}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<CkptError> for WalError {
    fn from(e: CkptError) -> Self {
        WalError::Log(e)
    }
}

/// The store-binding header of a WAL file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalHeader {
    /// FNV-1a over `(num_vertices, page_size, p, q)` — the structural
    /// identity of the store this log belongs to.
    pub store_id_fp: u64,
    /// Vertex count of the bound store.
    pub num_vertices: u64,
    /// Page size of the bound store.
    pub page_size: u32,
    /// Physical-ID page-id byte width.
    pub p: u8,
    /// Physical-ID slot byte width.
    pub q: u8,
    /// Store epoch when the log was created; the first record's
    /// `pre_epoch`.
    pub base_epoch: u64,
}

impl WalHeader {
    /// The header a log created over `store` right now would carry.
    fn of(store: &GraphStore) -> WalHeader {
        let cfg = store.cfg();
        let (num_vertices, page_size, p, q) = (
            store.num_vertices(),
            cfg.page_size as u32,
            cfg.id.p,
            cfg.id.q,
        );
        WalHeader {
            store_id_fp: store_identity_fp(num_vertices, page_size, p, q),
            num_vertices,
            page_size,
            p,
            q,
            base_epoch: store.epoch(),
        }
    }

    fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u64(self.store_id_fp);
        w.put_u64(self.num_vertices);
        w.put_u32(self.page_size);
        w.put_u8(self.p);
        w.put_u8(self.q);
        w.put_u64(self.base_epoch);
        w.into_bytes()
    }

    fn decode(binding: &[u8]) -> Result<WalHeader, CkptError> {
        let mut r = ByteReader::new(binding);
        let header = WalHeader {
            store_id_fp: r.take_u64("wal store fp")?,
            num_vertices: r.take_u64("wal num_vertices")?,
            page_size: r.take_u32("wal page_size")?,
            p: r.take_u8("wal p")?,
            q: r.take_u8("wal q")?,
            base_epoch: r.take_u64("wal base_epoch")?,
        };
        r.finish()?;
        Ok(header)
    }

    /// Typed refusal unless this header binds the same store as `want`.
    fn require_store(&self, want: &WalHeader) -> Result<(), WalError> {
        if self.store_id_fp == want.store_id_fp {
            Ok(())
        } else {
            Err(WalError::Mismatch {
                what: "store fingerprint",
                want: want.store_id_fp,
                got: self.store_id_fp,
            })
        }
    }
}

/// One sealed log entry: a batch plus the epoch transition it commits.
#[derive(Debug, Clone)]
pub struct WalRecord {
    /// Store epoch the batch applies on top of.
    pub pre_epoch: u64,
    /// Store epoch after application (always `pre_epoch + 1`).
    pub post_epoch: u64,
    /// The logged batch, in application order.
    pub batch: MutationBatch,
}

/// The structural identity fingerprint a WAL header binds: everything a
/// log needs to refuse replay against the wrong store, computable from
/// either side.
fn store_identity_fp(num_vertices: u64, page_size: u32, p: u8, q: u8) -> u64 {
    let mut w = ByteWriter::new();
    w.put_u64(num_vertices);
    w.put_u32(page_size);
    w.put_u8(p);
    w.put_u8(q);
    fnv1a(&w.into_bytes())
}

/// Encoded width of one op: a tag byte, then `src` and `dst` as `u64`.
const OP_BYTES: usize = 17;

impl WalRecord {
    fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u64(self.pre_epoch);
        w.put_u64(self.post_epoch);
        w.put_u32(self.batch.len() as u32);
        for op in self.batch.ops() {
            let (tag, src, dst) = match *op {
                EdgeOp::Insert { src, dst } => (0, src, dst),
                EdgeOp::Delete { src, dst } => (1, src, dst),
            };
            w.put_u8(tag);
            w.put_u64(src);
            w.put_u64(dst);
        }
        w.into_bytes()
    }

    /// Decode a record body. The op count must account for every byte
    /// after the 20-byte header — checked before anything is allocated —
    /// and the fixed-width ops are then read in one pass.
    fn decode(body: &[u8]) -> Result<WalRecord, CkptError> {
        let mut r = ByteReader::new(body);
        let pre_epoch = r.take_u64("wal pre-epoch")?;
        let post_epoch = r.take_u64("wal post-epoch")?;
        let count = r.take_u32("wal op count")? as usize;
        if count == 0 {
            // An empty batch does not move the epoch and is never logged.
            return Err(CkptError::Corrupt {
                reason: "wal record holds no ops".to_string(),
            });
        }
        let ops = r.take_raw("wal ops", count.saturating_mul(OP_BYTES))?;
        r.finish()?;
        let mut batch = Vec::with_capacity(count);
        for op in ops.chunks_exact(OP_BYTES) {
            let (src, dst) = (le_u64(op, 1), le_u64(op, 9));
            batch.push(match op[0] {
                0 => EdgeOp::Insert { src, dst },
                1 => EdgeOp::Delete { src, dst },
                other => {
                    return Err(CkptError::Corrupt {
                        reason: format!("unknown wal op tag {other}"),
                    })
                }
            });
        }
        Ok(WalRecord {
            pre_epoch,
            post_epoch,
            batch: batch.into_iter().collect(),
        })
    }
}

/// The mutation write-ahead log: an append-only epoch chain of sealed
/// [`MutationBatch`] records bound to one store.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    /// The append handle; `None` for a log loaded read-only.
    log: Option<SealedLog>,
    header: WalHeader,
    records: Vec<WalRecord>,
    /// Bytes found at the end of the file at open/load that did not form
    /// a sealed record (a torn append).
    truncated_tail: u64,
}

impl Wal {
    /// Open (creating if needed) the log in `dir`, bound to `store`.
    ///
    /// An existing log must carry the structural identity of `store`
    /// (typed [`WalError::Mismatch`] otherwise); a torn tail is cut off
    /// the file, a rotted interior record is a typed error that leaves
    /// the file untouched.
    pub fn open(dir: impl Into<PathBuf>, store: &GraphStore) -> Result<Wal, WalError> {
        Wal::open_with(dir, store, KillSwitch::never())
    }

    /// [`Wal::open`] with `kill` gating every durable step of the log:
    /// its creation, a tail repair, every append and rollback.
    pub fn open_with(
        dir: impl Into<PathBuf>,
        store: &GraphStore,
        kill: KillSwitch,
    ) -> Result<Wal, WalError> {
        let path = dir.into().join(WAL_FILE);
        let want = WalHeader::of(store);
        if !path.exists() {
            let log = SealedLog::create(&path, &LogFormat::WAL, &want.encode(), kill)?;
            return Ok(Wal {
                path,
                log: Some(log),
                header: want,
                records: Vec::new(),
                truncated_tail: 0,
            });
        }
        let (log, image) = SealedLog::open(&path, &LogFormat::WAL, kill)?;
        let wal = Wal::from_image(path, Some(log), &image)?;
        wal.header.require_store(&want)?;
        Ok(wal)
    }

    /// Load the log in `dir` read-only, without a store to bind against —
    /// the `fsck` entry point. A torn tail is noted
    /// ([`Wal::truncated_tail`]) but the file is left untouched.
    pub fn load(dir: impl AsRef<Path>) -> Result<Wal, WalError> {
        let path = dir.as_ref().join(WAL_FILE);
        let image = SealedLog::load(&path, &LogFormat::WAL)?;
        Wal::from_image(path, None, &image)
    }

    /// Decode the header and every frame of `image`, then reject a log
    /// whose sealed records do not form a contiguous `+1`-per-record
    /// epoch chain from `base_epoch` — individually valid frames in a
    /// broken order mean the file was tampered with, not torn.
    fn from_image(
        path: PathBuf,
        log: Option<SealedLog>,
        image: &LogImage,
    ) -> Result<Wal, WalError> {
        let header = WalHeader::decode(image.binding())?;
        let records = image
            .frames()
            .map(WalRecord::decode)
            .collect::<Result<Vec<_>, _>>()?;
        let mut expect = header.base_epoch;
        for rec in &records {
            if rec.pre_epoch != expect {
                return Err(WalError::Mismatch {
                    what: "pre-epoch chain",
                    want: expect,
                    got: rec.pre_epoch,
                });
            }
            if rec.post_epoch != rec.pre_epoch + 1 {
                return Err(WalError::Mismatch {
                    what: "post-epoch",
                    want: rec.pre_epoch + 1,
                    got: rec.post_epoch,
                });
            }
            expect = rec.post_epoch;
        }
        Ok(Wal {
            path,
            log,
            header,
            records,
            truncated_tail: image.truncated_tail(),
        })
    }

    /// The append handle, or a typed refusal for a log that
    /// [`Wal::load`] opened read-only.
    fn writer(&mut self) -> Result<&mut SealedLog, WalError> {
        self.log.as_mut().ok_or_else(|| {
            WalError::Log(CkptError::Io {
                op: "append",
                path: self.path.clone(),
                source: "the log was loaded read-only".to_string(),
            })
        })
    }

    /// The path of the log file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The store-binding header.
    pub fn header(&self) -> &WalHeader {
        &self.header
    }

    /// Sealed records, in epoch order.
    pub fn records(&self) -> &[WalRecord] {
        &self.records
    }

    /// Bytes found at the end of the file at open/load that did not form
    /// a sealed record.
    pub fn truncated_tail(&self) -> u64 {
        self.truncated_tail
    }

    /// The `pre_epoch` the next logged batch must carry.
    pub fn next_pre_epoch(&self) -> u64 {
        self.records
            .last()
            .map_or(self.header.base_epoch, |r| r.post_epoch)
    }

    /// Append a sealed record for `batch` committing `pre → post`,
    /// fsynced before this returns.
    ///
    /// Idempotent: if the chain already holds `pre`, the stored record
    /// must match `batch` exactly (typed mismatch otherwise) and nothing
    /// is appended. Returns the bytes appended (0 for a duplicate or an
    /// empty batch — empty batches do not move the epoch and are never
    /// logged).
    pub fn log_batch(
        &mut self,
        batch: &MutationBatch,
        pre: u64,
        post: u64,
    ) -> Result<u64, WalError> {
        if batch.is_empty() {
            return Ok(0);
        }
        if post != pre + 1 {
            return Err(WalError::Mismatch {
                what: "post-epoch",
                want: pre + 1,
                got: post,
            });
        }
        let next = self.next_pre_epoch();
        let rec = WalRecord {
            pre_epoch: pre,
            post_epoch: post,
            batch: batch.clone(),
        };
        if pre < next {
            if pre < self.header.base_epoch {
                return Err(WalError::Mismatch {
                    what: "pre-epoch",
                    want: self.header.base_epoch,
                    got: pre,
                });
            }
            // Already logged (the crash-between-log-and-apply resume
            // path): the stored record must be the same batch, byte for
            // byte. Fingerprints only word the refusal.
            let stored = &self.records[(pre - self.header.base_epoch) as usize];
            let (want, got) = (stored.encode(), rec.encode());
            if want != got {
                return Err(WalError::Mismatch {
                    what: "duplicate batch fingerprint",
                    want: fnv1a(&want),
                    got: fnv1a(&got),
                });
            }
            return Ok(0);
        }
        if pre > next {
            return Err(WalError::Mismatch {
                what: "pre-epoch",
                want: next,
                got: pre,
            });
        }
        let appended = self.writer()?.append(&rec.encode())?;
        self.records.push(rec);
        Ok(appended)
    }

    /// Drop the last sealed record, on disk and in memory — the rollback
    /// used when the store rejects a just-logged batch.
    fn pop_record(&mut self) -> Result<(), WalError> {
        if self.records.pop().is_some() {
            self.writer()?.truncate_last()?;
        }
        Ok(())
    }

    /// Replay every record past `store.epoch()` onto `store`, in chain
    /// order; returns the number of batches applied.
    pub fn replay_onto(&self, store: &mut GraphStore) -> Result<u64, WalError> {
        self.replay_until(store, |_| false)
    }

    /// The one replay loop, shared by [`Wal::replay_onto`], crash
    /// recovery and `gts fsck`: apply the records past `store.epoch()`
    /// onto `store` in chain order, asking `done` before the first record
    /// and after each applied one, and stop once it holds. Typed
    /// mismatch when the log binds another store, or when the first
    /// record to apply does not start at the store's epoch (the log does
    /// not cover the gap). Returns the number of batches applied.
    ///
    /// The whole suffix is one `GraphStore::apply_batches` call: each
    /// record commits its structure and epoch in turn, and `done` reads
    /// that structure ([`StoreShape`]); the page bytes wait for each
    /// changed page's first read, which builds it once. A record the
    /// store rejects ends replay at the record boundary before it — the
    /// store reads as after the records before it — with
    /// [`WalError::Rejected`].
    pub fn replay_until(
        &self,
        store: &mut GraphStore,
        mut done: impl FnMut(&StoreShape) -> bool,
    ) -> Result<u64, WalError> {
        self.header.require_store(&WalHeader::of(store))?;
        if done(&store.shape()) {
            return Ok(0);
        }
        // Records already applied before the snapshot are skipped. The
        // chain was checked at load and no record is empty, so once the
        // first record past them starts at the store's epoch, every
        // later one starts where its predecessor ends.
        let epoch = store.epoch();
        let suffix = &self.records[self.records.partition_point(|r| r.post_epoch <= epoch)..];
        if let Some(first) = suffix.first().filter(|r| r.pre_epoch != epoch) {
            return Err(WalError::Mismatch {
                what: "replay pre-epoch",
                want: epoch,
                got: first.pre_epoch,
            });
        }
        store
            .apply_batches(suffix.iter().map(|r| &r.batch), done)
            .map_err(WalError::Rejected)
    }
}

impl GraphStore {
    /// [`GraphStore::apply_mutations`] with log-before-apply durability:
    /// the batch is sealed into `wal` first, then applied. A batch the
    /// store rejects is rolled back out of the log, leaving both sides
    /// untouched. Returns the outcome plus the WAL bytes appended (0 for
    /// an empty batch or an idempotent re-log).
    pub fn apply_mutations_logged(
        &mut self,
        batch: &MutationBatch,
        wal: &mut Wal,
    ) -> Result<(MutationOutcome, u64), WalError> {
        let pre = self.epoch();
        if batch.is_empty() {
            let out = self.apply_mutations(batch).map_err(WalError::Rejected)?;
            return Ok((out, 0));
        }
        let bytes = wal.log_batch(batch, pre, pre + 1)?;
        match self.apply_mutations(batch) {
            Ok(out) => Ok((out, bytes)),
            Err(e) => {
                if bytes > 0 {
                    wal.pop_record()?;
                }
                Err(WalError::Rejected(e))
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests panic on failure by design
mod tests {
    use super::*;
    use crate::builder::build_graph_store;
    use crate::format::{PageFormatConfig, PhysicalIdConfig};
    use gts_graph::EdgeList;
    use proptest::prelude::*;
    use std::fs;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("gts-wal-test-{}-{tag}-{n}", std::process::id()))
    }

    fn cfg() -> PageFormatConfig {
        PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 256)
    }

    fn store_of(n: u32, edges: Vec<(u32, u32)>) -> GraphStore {
        build_graph_store(&EdgeList::new(n, edges), cfg()).expect("build")
    }

    fn batch(ops: &[(u8, u64, u64)]) -> MutationBatch {
        let mut b = MutationBatch::new();
        for &(tag, s, d) in ops {
            if tag == 0 {
                b.insert(s, d);
            } else {
                b.delete(s, d);
            }
        }
        b
    }

    #[test]
    fn log_then_reload_round_trips_records() {
        let dir = tmp_dir("roundtrip");
        let store = store_of(8, vec![(0, 1), (1, 2), (2, 3)]);
        let mut wal = Wal::open(&dir, &store).unwrap();
        let b1 = batch(&[(0, 0, 3), (1, 1, 2)]);
        let b2 = batch(&[(0, 4, 5)]);
        assert!(wal.log_batch(&b1, 0, 1).unwrap() > 0);
        assert!(wal.log_batch(&b2, 1, 2).unwrap() > 0);

        let loaded = Wal::load(&dir).unwrap();
        assert_eq!(loaded.records().len(), 2);
        assert_eq!(loaded.records()[0].batch.ops(), b1.ops());
        assert_eq!(loaded.records()[1].batch.ops(), b2.ops());
        assert_eq!(loaded.records()[1].pre_epoch, 1);
        assert_eq!(loaded.next_pre_epoch(), 2);
        assert_eq!(loaded.truncated_tail(), 0);
    }

    #[test]
    fn logged_apply_matches_direct_apply_byte_for_byte() {
        let dir = tmp_dir("logged");
        let edges = vec![(0, 1), (1, 2), (2, 0), (3, 1)];
        let mut direct = store_of(8, edges.clone());
        let mut logged = store_of(8, edges);
        let mut wal = Wal::open(&dir, &logged).unwrap();
        for b in [batch(&[(0, 0, 5), (0, 5, 0)]), batch(&[(1, 1, 2)])] {
            direct.apply_mutations(&b).unwrap();
            logged.apply_mutations_logged(&b, &mut wal).unwrap();
        }
        assert_eq!(direct.epoch(), logged.epoch());
        assert_eq!(direct.decode_edges(), logged.decode_edges());
        for (a, b) in direct.pages().iter().zip(logged.pages().iter()) {
            assert_eq!(a.data, b.data);
        }
        // And replay from scratch reproduces the same store.
        let mut replayed = store_of(8, vec![(0, 1), (1, 2), (2, 0), (3, 1)]);
        let n = Wal::load(&dir).unwrap().replay_onto(&mut replayed).unwrap();
        assert_eq!(n, 2);
        assert_eq!(replayed.epoch(), direct.epoch());
        assert_eq!(replayed.decode_edges(), direct.decode_edges());
    }

    #[test]
    fn torn_tail_truncates_to_longest_valid_prefix() {
        let dir = tmp_dir("torn");
        let store = store_of(8, vec![(0, 1), (1, 2)]);
        // Creation is four steps, an append two: die in the second
        // append's write, which tears it.
        let mut wal = Wal::open_with(&dir, &store, KillSwitch::at(4 + 2)).unwrap();
        wal.log_batch(&batch(&[(0, 0, 2)]), 0, 1).unwrap();
        assert!(matches!(
            wal.log_batch(&batch(&[(0, 1, 3)]), 1, 2),
            Err(WalError::Log(CkptError::InjectedCrash { step: 6 }))
        ));

        let loaded = Wal::load(&dir).unwrap();
        assert_eq!(loaded.records().len(), 1);
        assert!(loaded.truncated_tail() > 0);

        // Re-opening against the store repairs the file on disk.
        let reopened = Wal::open(&dir, &store).unwrap();
        assert_eq!(reopened.records().len(), 1);
        assert_eq!(reopened.next_pre_epoch(), 1);
        let after = Wal::load(&dir).unwrap();
        assert_eq!(after.truncated_tail(), 0);
    }

    #[test]
    fn duplicate_relog_is_idempotent_and_checked() {
        let dir = tmp_dir("dup");
        let store = store_of(8, vec![(0, 1)]);
        let mut wal = Wal::open(&dir, &store).unwrap();
        let b = batch(&[(0, 2, 3)]);
        assert!(wal.log_batch(&b, 0, 1).unwrap() > 0);
        // Same batch, same epochs: a no-op.
        assert_eq!(wal.log_batch(&b, 0, 1).unwrap(), 0);
        assert_eq!(wal.records().len(), 1);
        // A *different* batch claiming the same slot is refused.
        let err = wal.log_batch(&batch(&[(0, 3, 2)]), 0, 1).unwrap_err();
        assert!(matches!(
            err,
            WalError::Mismatch {
                what: "duplicate batch fingerprint",
                ..
            }
        ));
    }

    /// A re-log is checked against the stored record's bytes, not a
    /// fingerprint of them: the same batch appends nothing however often
    /// it comes back, and every other batch at a logged epoch — one op
    /// changed, reordered, added or dropped — is refused, typed, with
    /// the file left as it was.
    #[test]
    fn relog_compares_the_records_bytes() {
        let dir = tmp_dir("relog");
        let store = store_of(8, vec![(0, 1)]);
        let mut wal = Wal::open(&dir, &store).unwrap();
        let logged = [(0, 2, 3), (1, 0, 1), (0, 4, 5)];
        wal.log_batch(&batch(&logged), 0, 1).unwrap();
        wal.log_batch(&batch(&[(0, 6, 7)]), 1, 2).unwrap();
        let len = fs::metadata(wal.path()).unwrap().len();
        for _ in 0..3 {
            assert_eq!(wal.log_batch(&batch(&logged), 0, 1).unwrap(), 0);
        }
        for other in [
            vec![(1, 2, 3), (1, 0, 1), (0, 4, 5)],
            vec![(0, 2, 3), (1, 0, 1), (0, 4, 4)],
            vec![(0, 2, 3), (1, 0, 1), (0, 4, 5 | 1 << 40)],
            vec![(1, 0, 1), (0, 2, 3), (0, 4, 5)],
            vec![(0, 2, 3), (1, 0, 1)],
            vec![(0, 2, 3), (1, 0, 1), (0, 4, 5), (0, 4, 5)],
        ] {
            let err = wal.log_batch(&batch(&other), 0, 1).unwrap_err();
            assert!(
                matches!(
                    err,
                    WalError::Mismatch {
                        what: "duplicate batch fingerprint",
                        want,
                        got,
                    } if want != got
                ),
                "{other:?}: {err:?}"
            );
        }
        assert_eq!(fs::metadata(wal.path()).unwrap().len(), len);
        assert_eq!(Wal::load(&dir).unwrap().records().len(), 2);
        fs::remove_dir_all(&dir).ok();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// Damage an encoded record body — cut it, flip a bit, extend it,
        /// or overwrite any 4 bytes (the op count among them) — and the
        /// decoder returns a typed error or a record that encodes back to
        /// exactly the bytes it was given (the original when nothing
        /// changed), never panics, and never sizes an allocation from a
        /// count the bytes cannot hold.
        #[test]
        fn a_damaged_record_body_decodes_exactly_or_is_refused(
            epoch in 0u64..u64::MAX,
            ops in proptest::collection::vec((0u8..2, 0u64..u64::MAX, 0u64..1 << 20), 1..6),
            edit in (0u8..5, 0.0f64..1.0, 0u8..8, 0u32..u32::MAX),
        ) {
            let rec = WalRecord {
                pre_epoch: epoch,
                post_epoch: epoch.wrapping_add(1),
                batch: batch(&ops),
            };
            let mut bytes = rec.encode();
            let (kind, f, bit, word) = edit;
            let at = |len: usize| (len.saturating_sub(1) as f64 * f) as usize;
            match kind {
                0 => {}
                1 => bytes.truncate(at(bytes.len())),
                2 => {
                    let i = at(bytes.len());
                    bytes[i] ^= 1 << bit;
                }
                3 => bytes.extend_from_slice(&word.to_le_bytes()[..1 + bit as usize % 4]),
                _ => {
                    // Half the time the op count itself, else any 4 bytes.
                    let i = if bit < 4 { 16 } else { at(bytes.len() - 3) };
                    let v = if bit % 2 == 0 { u32::MAX } else { word };
                    bytes[i..i + 4].copy_from_slice(&v.to_le_bytes());
                }
            }
            match WalRecord::decode(&bytes) {
                Ok(got) => {
                    prop_assert_eq!(got.encode(), bytes.clone(), "edit {:?}", edit);
                    if kind == 0 {
                        prop_assert_eq!(got.batch.ops(), rec.batch.ops());
                    }
                }
                Err(e) => {
                    prop_assert!(kind != 0, "{:?}", e);
                    prop_assert!(
                        matches!(e, CkptError::Corrupt { .. } | CkptError::Truncated { .. }),
                        "edit {:?}: {:?}", edit, e
                    );
                }
            }
        }
    }

    #[test]
    fn epoch_gap_is_a_typed_mismatch() {
        let dir = tmp_dir("gap");
        let store = store_of(8, vec![(0, 1)]);
        let mut wal = Wal::open(&dir, &store).unwrap();
        let err = wal.log_batch(&batch(&[(0, 2, 3)]), 5, 6).unwrap_err();
        assert_eq!(
            err,
            WalError::Mismatch {
                what: "pre-epoch",
                want: 0,
                got: 5
            }
        );
    }

    #[test]
    fn wrong_store_is_refused() {
        let dir = tmp_dir("wrongstore");
        let store = store_of(8, vec![(0, 1)]);
        Wal::open(&dir, &store).unwrap();
        let other = store_of(16, vec![(0, 1)]);
        let err = Wal::open(&dir, &other).unwrap_err();
        assert!(matches!(
            err,
            WalError::Mismatch {
                what: "store fingerprint",
                ..
            }
        ));
        // Replay against the wrong store is refused the same way.
        let wal = Wal::load(&dir).unwrap();
        let mut other = store_of(16, vec![(0, 1)]);
        assert!(matches!(
            wal.replay_onto(&mut other),
            Err(WalError::Mismatch {
                what: "store fingerprint",
                ..
            })
        ));
    }

    #[test]
    fn rejected_batch_rolls_the_log_back() {
        let dir = tmp_dir("reject");
        let mut store = store_of(4, vec![(0, 1)]);
        let mut wal = Wal::open(&dir, &store).unwrap();
        let err = store
            .apply_mutations_logged(&batch(&[(1, 2, 3)]), &mut wal)
            .unwrap_err();
        assert!(matches!(err, WalError::Rejected(_)));
        assert_eq!(store.epoch(), 0);
        assert_eq!(wal.records().len(), 0);
        assert_eq!(Wal::load(&dir).unwrap().records().len(), 0);
        // The log still works after the rollback.
        store
            .apply_mutations_logged(&batch(&[(0, 2, 3)]), &mut wal)
            .unwrap();
        assert_eq!(store.epoch(), 1);
    }

    #[test]
    fn replay_skips_records_already_covered_by_the_snapshot() {
        let dir = tmp_dir("suffix");
        let mut store = store_of(8, vec![(0, 1), (1, 2)]);
        let mut wal = Wal::open(&dir, &store).unwrap();
        let b1 = batch(&[(0, 0, 2)]);
        let b2 = batch(&[(0, 1, 3)]);
        store.apply_mutations_logged(&b1, &mut wal).unwrap();
        store.apply_mutations_logged(&b2, &mut wal).unwrap();

        // "Snapshot" at epoch 1: a fresh build plus the first batch.
        let mut resumed = store_of(8, vec![(0, 1), (1, 2)]);
        resumed.apply_mutations(&b1).unwrap();
        let n = Wal::load(&dir).unwrap().replay_onto(&mut resumed).unwrap();
        assert_eq!(n, 1);
        assert_eq!(resumed.epoch(), 2);
        assert_eq!(resumed.decode_edges(), store.decode_edges());
    }

    /// `replay_until` asks `done` before the first record and after each
    /// applied one and stops once it holds; records the store already
    /// has are skipped; a gap and another store's log are typed errors.
    #[test]
    fn replay_until_asks_done_and_stops_once_it_holds() {
        let dir = tmp_dir("until");
        let base = store_of(8, vec![(0, 1), (1, 2)]);
        let mut live = base.clone();
        let mut wal = Wal::open(&dir, &live).unwrap();
        for b in [
            batch(&[(0, 0, 2)]),
            batch(&[(0, 1, 3)]),
            batch(&[(0, 2, 4)]),
        ] {
            live.apply_mutations_logged(&b, &mut wal).unwrap();
        }
        let replay = |store: &mut GraphStore, stop_at: u64| {
            let mut asked = Vec::new();
            let applied = wal
                .replay_until(store, |s| {
                    asked.push(s.epoch());
                    s.epoch() == stop_at
                })
                .unwrap();
            (applied, asked)
        };
        let mut all = base.clone();
        assert_eq!(replay(&mut all, u64::MAX), (3, vec![0, 1, 2, 3]));
        assert_eq!(all.decode_edges(), live.decode_edges());
        let mut part = base.clone();
        assert_eq!(replay(&mut part, 2), (2, vec![0, 1, 2]));
        assert_eq!(replay(&mut base.clone(), 0), (0, vec![0]));
        // Resumed at epoch 2: the first two records are skipped.
        assert_eq!(replay(&mut part, u64::MAX), (1, vec![2, 3]));
        assert_eq!(part.decode_edges(), live.decode_edges());

        // A log based one epoch past the store does not cover the gap.
        let gap_dir = tmp_dir("until-gap");
        let mut ahead = base.clone();
        ahead.apply_mutations(&batch(&[(0, 0, 2)])).unwrap();
        let mut gap = Wal::open(&gap_dir, &ahead).unwrap();
        ahead
            .apply_mutations_logged(&batch(&[(0, 1, 3)]), &mut gap)
            .unwrap();
        assert_eq!(
            gap.replay_until(&mut base.clone(), |_| false),
            Err(WalError::Mismatch {
                what: "replay pre-epoch",
                want: 0,
                got: 1
            })
        );
        // Another store's log is refused before `done` is ever asked.
        let mut asked = false;
        let err = wal
            .replay_until(&mut store_of(16, vec![(0, 1)]), |_| {
                asked = true;
                false
            })
            .unwrap_err();
        assert!(matches!(
            err,
            WalError::Mismatch {
                what: "store fingerprint",
                ..
            }
        ));
        assert!(!asked);
        fs::remove_dir_all(&dir).ok();
        fs::remove_dir_all(&gap_dir).ok();
    }

    /// The WAL binds only a store's vertex count and format, so a log
    /// written over store A replays onto a store B that lacks one of A's
    /// edges. The record that deletes it is the store's to reject:
    /// replay stops at the record boundary before it, with B equal to
    /// the first batch applied alone — pages, RVT, delta tables, epoch.
    #[test]
    fn replay_rejected_mid_log_stops_at_the_record_boundary() {
        let dir = tmp_dir("midlog");
        // 13 one-edge vertices on one 256-byte page; A also has 0 -> 2.
        let ring: Vec<(u32, u32)> = (0..13).map(|v| (v, (v + 1) % 13)).collect();
        let mut a = store_of(13, [ring.clone(), vec![(0, 2)]].concat());
        let b1 = batch(&[(0, 5, 0), (0, 5, 1), (0, 5, 2)]); // overflows: spills 5
        let mut wal = Wal::open(&dir, &a).unwrap();
        for b in [b1.clone(), batch(&[(1, 0, 2)]), batch(&[(0, 3, 4)])] {
            a.apply_mutations_logged(&b, &mut wal).unwrap();
        }
        let mut b = store_of(13, ring.clone());
        let mut want = b.clone();
        want.apply_mutations(&b1).unwrap();
        assert!(
            want.num_pages() > b.num_pages(),
            "the first batch must spill"
        );
        assert_eq!(
            Wal::load(&dir).unwrap().replay_onto(&mut b),
            Err(WalError::Rejected(MutateError::EdgeNotFound {
                src: 0,
                dst: 2
            }))
        );
        assert_eq!(b.epoch(), 1);
        assert_eq!(b.pages(), want.pages());
        assert_eq!(b.rvt(), want.rvt());
        assert_eq!(b.num_edges(), want.num_edges());
        for v in 0..13 {
            assert_eq!(
                b.delta_pids_of(v),
                want.delta_pids_of(v),
                "delta pages of {v}"
            );
        }
        assert!(b.pages().iter().all(|page| page.checksum_ok()));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn header_corruption_is_typed() {
        let dir = tmp_dir("corrupt");
        let store = store_of(8, vec![(0, 1)]);
        Wal::open(&dir, &store).unwrap();
        let path = dir.join(WAL_FILE);
        let raw = fs::read(&path).unwrap();
        // A flipped binding byte fails the header checksum...
        let mut bad = raw.clone();
        bad[24] ^= 0x40;
        fs::write(&path, &bad).unwrap();
        assert!(matches!(
            Wal::load(&dir),
            Err(WalError::Log(CkptError::Corrupt { .. }))
        ));
        // ...and a different version is refused by name, not as garbage.
        let mut old = raw;
        old[8] = 1;
        fs::write(&path, &old).unwrap();
        assert_eq!(
            Wal::load(&dir).unwrap_err(),
            WalError::Log(CkptError::VersionMismatch {
                found: 1,
                expected: 3
            })
        );
    }

    /// `log_batch` writes O(new bytes): the file grows by exactly the
    /// returned frame length, in place, and nothing is staged beside it.
    #[test]
    #[cfg(unix)]
    fn appends_grow_the_file_in_place_by_one_frame() {
        use std::os::unix::fs::MetadataExt;
        let dir = tmp_dir("append");
        let store = store_of(8, vec![(0, 1)]);
        let mut wal = Wal::open(&dir, &store).unwrap();
        let path = dir.join(WAL_FILE);
        let created = fs::metadata(&path).unwrap();
        let mut len = created.len();
        for epoch in 0..6u64 {
            let appended = wal
                .log_batch(&batch(&[(0, epoch % 8, (epoch + 1) % 8)]), epoch, epoch + 1)
                .unwrap();
            // 4-byte length + 20-byte record header + 17 per op + 8 trailer.
            assert_eq!(appended, 4 + 20 + 17 + 8);
            let now = fs::metadata(&path).unwrap();
            assert_eq!(now.len(), len + appended, "grew by one frame");
            assert_eq!(now.ino(), created.ino(), "same file, not a replacement");
            len = now.len();
            let names: Vec<_> = fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name())
                .collect();
            assert_eq!(names, vec![std::ffi::OsString::from(WAL_FILE)]);
        }
        // The rejected-batch rollback cuts exactly the last frame off.
        wal.pop_record().unwrap();
        assert_eq!(fs::metadata(&path).unwrap().len(), len - (4 + 20 + 17 + 8));
        assert_eq!(Wal::load(&dir).unwrap().records().len(), 5);
    }

    /// One rotted byte in a middle record is damage, not a torn tail:
    /// `open` must refuse it and must not "repair" 3 sealed records away.
    #[test]
    fn interior_corruption_is_refused_and_the_file_left_untouched() {
        let dir = tmp_dir("rot");
        let store = store_of(8, vec![(0, 1)]);
        let mut wal = Wal::open(&dir, &store).unwrap();
        let mut ends = Vec::new();
        for epoch in 0..5u64 {
            wal.log_batch(&batch(&[(0, epoch, epoch + 1)]), epoch, epoch + 1)
                .unwrap();
            ends.push(fs::metadata(wal.path()).unwrap().len() as usize);
        }
        drop(wal);
        let path = dir.join(WAL_FILE);
        let mut raw = fs::read(&path).unwrap();
        raw[(ends[1] + ends[2]) / 2] ^= 0x01; // inside record 2 of 0..5
        fs::write(&path, &raw).unwrap();
        for result in [Wal::open(&dir, &store), Wal::load(&dir)] {
            match result {
                Err(WalError::Log(CkptError::Corrupt { reason })) => {
                    assert!(reason.contains("frame 2"), "{reason}")
                }
                other => panic!("expected a corrupt-frame error, got {other:?}"),
            }
        }
        assert_eq!(fs::read(&path).unwrap(), raw, "open must not rewrite it");
    }

    #[test]
    fn error_displays_render_context_fields() {
        let cases: Vec<(WalError, &[&str])> = vec![
            (
                WalError::Log(CkptError::Io {
                    op: "rename",
                    path: PathBuf::from("/wal/wal.log"),
                    source: "permission denied".into(),
                }),
                &["rename", "/wal/wal.log", "permission denied"],
            ),
            (
                WalError::Log(CkptError::Corrupt {
                    reason: "bad magic".into(),
                }),
                &["corrupt", "bad magic"],
            ),
            (
                WalError::Mismatch {
                    what: "pre-epoch",
                    want: 2,
                    got: 7,
                },
                &["pre-epoch", "0x0000000000000002", "0x0000000000000007"],
            ),
            (
                WalError::Rejected(MutateError::EdgeNotFound { src: 1, dst: 2 }),
                &["rejected", "1 -> 2"],
            ),
        ];
        for (err, needles) in cases {
            let msg = err.to_string();
            for needle in needles {
                assert!(
                    msg.contains(needle),
                    "Display for {err:?} lost context: {msg:?} missing {needle:?}"
                );
            }
            assert!(
                !msg.contains("{ "),
                "Display for {err:?} leaks Debug formatting: {msg:?}"
            );
        }
    }
}
