#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

//! # gts-storage — the out-of-core graph substrate of GTS
//!
//! Implements the *slotted page format* the paper adopts for streaming
//! topology (Sec. 2), its trillion-scale generalisation with `(p,q)`-byte
//! physical IDs (Sec. 6.1 / Table 2), the RVT record-id → vertex-id mapping
//! table (Appendix A), plus the storage hardware models the experiments
//! need: bandwidth/latency-parameterised SSD/HDD block devices striped by
//! the page-hash `g(j)` (Sec. 4.1), and the pluggable page-cache policies
//! behind both residency maps of Algorithm 1: the GPU-side topology cache's
//! `cachedPIDMap` (Sec. 3.3, LRU by default "but other algorithms can be
//! used as well") and the main-memory buffer's `bufferPIDMap` (the MMBuf,
//! the FIFO policy).
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

/// The main-memory buffer of Algorithm 1 (`bufferPIDMap`, lines 18–26).
pub mod mmbuf {
    use crate::FifoCache;

    /// The MMBuf is the FIFO policy ([`FifoCache::with_fraction`] sizes
    /// it). This alias exists only because the frozen benchmark sources
    /// name `MmBuf::with_fraction`; it goes, with this module, when the
    /// benchmark is next revised.
    pub type MmBuf = FifoCache;

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::CachePolicy;

        #[test]
        fn hit_after_miss() {
            let mut b = MmBuf::new(2);
            assert!(!b.access(1));
            assert!(b.access(1));
            assert_eq!(b.hits(), 1);
            assert_eq!(b.misses(), 1);
            assert!((b.hit_rate() - 0.5).abs() < 1e-12);
        }

        #[test]
        fn fifo_eviction_order() {
            let mut b = MmBuf::new(2);
            b.access(1);
            b.access(2);
            assert_eq!(b.evictions(), 0);
            b.access(3); // evicts 1
            assert!(!b.contains(1));
            assert!(b.contains(2));
            assert!(b.contains(3));
            assert_eq!(b.len(), 2);
            assert_eq!(b.evictions(), 1);
        }

        #[test]
        fn zero_capacity_never_buffers() {
            let mut b = MmBuf::new(0);
            assert!(!b.access(1));
            assert!(!b.access(1));
            assert_eq!(b.len(), 0);
            assert_eq!(b.misses(), 2);
        }

        #[test]
        fn clear_resets() {
            let mut b = MmBuf::new(4);
            b.access(1);
            b.clear();
            assert!(b.is_empty());
            assert_eq!(b.hit_rate(), 0.0);
            // Residency resets; the counters run on over the whole run.
            assert_eq!((b.hits(), b.misses()), (0, 1));
            assert!(!b.access(1), "a cleared buffer must miss");
            assert_eq!((b.hits(), b.misses()), (0, 2));
        }
    }
}
