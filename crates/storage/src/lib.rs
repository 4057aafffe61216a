#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

//! # gts-storage — the out-of-core graph substrate of GTS
//!
//! Implements the *slotted page format* the paper adopts for streaming
//! topology (Sec. 2), its trillion-scale generalisation with `(p,q)`-byte
//! physical IDs (Sec. 6.1 / Table 2), the RVT record-id → vertex-id mapping
//! table (Appendix A), plus the storage hardware models the experiments
//! need: bandwidth/latency-parameterised SSD/HDD block devices striped by
//! the page-hash `g(j)` (Sec. 4.1), the main-memory buffer `MMBuf` with its
//! `bufferPIDMap` (Algorithm 1), and the pluggable page-cache policies the
//! GPU-side topology cache uses (Sec. 3.3, LRU by default "but other
//! algorithms can be used as well").
//!
//! ```
//! use gts_storage::{build_graph_store, PageFormatConfig};
//! use gts_graph::generate::rmat;
//!
//! let graph = rmat(10);
//! let store = build_graph_store(&graph, PageFormatConfig::small_default()).unwrap();
//! // Every record ID in every page resolves back through the RVT.
//! let rid = store.rid_of_vertex(42);
//! assert_eq!(store.rvt().translate(rid), 42);
//! assert!(store.small_pids().len() > store.large_pids().len());
//! ```

pub mod builder;
pub mod cache;
pub mod device;
pub mod file;
pub mod format;
pub mod mmbuf;
pub mod mutate;
pub mod page;
pub mod rvt;
pub mod wal;

pub use builder::{build_graph_store, BuildError, GraphStore};
pub use cache::{CachePolicy, FifoCache, LruCache, PageCache, RandomCache};
pub use device::{BlockDevice, DeviceKind, FetchPolicy, StorageArray, StorageError};
pub use file::{load_store, save_store, FileError};
pub use format::{PageFormatConfig, PageKind, PhysicalIdConfig, RecordId};
pub use mmbuf::MmBuf;
pub use mutate::{EdgeOp, MutateError, MutationBatch, MutationOutcome};
pub use page::{page_checksum, AdjRun, Page, PageView, VerifiedPage};
pub use rvt::{Rvt, RvtEntry};
pub use wal::{Wal, WalError, WalHeader, WalRecord, WAL_FILE};
