#![warn(missing_docs)]
// Same no-panic policy as gts-storage / gts-faults: checkpoint code runs on
// the recovery path, where an unwrap would turn a detectable torn write into
// an abort of the very run the snapshot exists to rescue.
#![warn(clippy::unwrap_used, clippy::expect_used)]

//! # gts-ckpt — crash-consistent checkpoints and the sealed-record log
//!
//! Long multi-sweep GTS runs (PageRank over an SSD-resident RMAT graph
//! streams the full topology every iteration) must survive a crash by
//! resuming from the last sweep boundary, not by restarting from scratch.
//! This crate is where every durable byte other than the slotted-page
//! store itself is framed, checksummed and written:
//!
//! * [`xxh64`], [`seal`], [`unseal`] — the one checksum and the one
//!   trailer, over every snapshot, log header, log frame and slotted
//!   page ([`fnv1a`] only fingerprints identities, and seals nothing);
//!   [`replace_streamed`] — the one temp file → fsync → rename →
//!   directory fsync, also under the saved page store — and the one
//!   append → fsync. No other module calls
//!   `sync_all` or `rename`, so its [`KillSwitch`] numbers every durable
//!   step and is the one place a crash is injected.
//! * [`Snapshot`] — a versioned container of named byte sections, sealed
//!   whole, so a torn or bit-flipped snapshot is *detected*, never
//!   silently resumed from.
//! * [`CkptStore`] — a directory of snapshots written
//!   crash-atomically plus a `MANIFEST` naming valid snapshots
//!   newest-first. [`CkptStore::load_latest`] walks the manifest and
//!   returns the first snapshot that decodes and checksums cleanly,
//!   falling back past torn entries.
//! * [`SealedLog`] — an append-only file of sealed frames behind a
//!   sealed header: appends cost one write and one fsync of the new
//!   frame, a torn tail is cut off on open, interior corruption is an
//!   error. The mutation WAL (`gts-storage`) and the service journal
//!   (`gts-serve`) are typed record codecs over it.
//! * [`codec`] — a minimal little-endian byte codec ([`ByteWriter`] /
//!   [`ByteReader`]) used to encode section payloads, bindings and frame
//!   bodies; every read is bounds-checked and returns a typed
//!   [`CkptError`].
//!
//! What goes *into* sections and frames (WA vectors, sim clock, mutation
//! batches, job results, ...) is the callers' business — see DESIGN.md
//! "On-disk formats". This crate only guarantees that what was written
//! is either read back exactly or rejected loudly.

pub mod codec;
mod durable;
mod error;
mod log;
mod seal;
mod snapshot;
mod store;

pub use codec::{ByteReader, ByteWriter};
pub use durable::{replace_streamed, KillSwitch};
pub use error::CkptError;
pub use log::{LogFormat, LogImage, SealedLog};
pub use seal::{fnv1a, seal, unseal, xxh64};
pub use snapshot::Snapshot;
pub use store::CkptStore;
