//! Stage 2 — ingest: when is a page's data ready on the host?
//!
//! Algorithm 1 lines 15-26: if the page sits in the main-memory buffer
//! (MMBuf) it is ready immediately; otherwise it is fetched from the
//! secondary-storage array first (and admitted to the MMBuf). Crucially,
//! line 16 precedes all of that: a page that *every* target GPU already
//! caches generates no storage traffic and no MMBuf churn at all — that
//! rule lives here, in exactly one place, as the `all_cached` fast path.
//!
//! [`page_ready`] answers only the "when" question on the simulated
//! clock; scheduling the resulting H2D copies is the next stage
//! ([`crate::sweep::schedule`]). Every storage fetch verifies the page's
//! trailer checksum and is subject to the run's fault plan (injected
//! transient read errors and torn pages, bounded retry with backoff,
//! drive quarantine) — see `gts_storage::StorageArray::fetch` and its
//! default verify+retry `gts_storage::FetchPolicy`.

use crate::engine::{EngineError, GtsConfig, StorageLocation};
use gts_faults::FaultPlan;
use gts_sim::SimTime;
use gts_storage::cache::{CachePolicy, FifoCache};
use gts_storage::device::StorageArray;
use gts_storage::Page;
use gts_telemetry::{keys, Telemetry};

/// The instant page `pid`'s bytes are available on the host for H2D
/// scheduling, wherever the graph lives: in memory (`source` is `None`,
/// the paper's in-memory setting) every page is ready the moment the
/// sweep starts; otherwise the [`StorageSource`] answers.
pub fn page_ready(
    source: Option<&mut StorageSource>,
    pid: u64,
    page: &Page,
    all_cached: bool,
    start: SimTime,
) -> Result<SimTime, EngineError> {
    match source {
        Some(source) => source.page_ready(pid, page, all_cached, start),
        None => Ok(start),
    }
}

/// Pages stream from a striped storage array through the MMBuf
/// (Alg. 1 lines 9-10, 18-26), which is the FIFO page-cache policy.
#[derive(Debug)]
pub struct StorageSource {
    array: StorageArray,
    mmbuf: FifoCache,
}

impl StorageSource {
    /// A source reading from `array` with `mmbuf` in front.
    pub fn new(array: StorageArray, mmbuf: FifoCache) -> StorageSource {
        StorageSource { array, mmbuf }
    }

    /// The underlying MMBuf (hit/miss statistics).
    pub fn mmbuf(&self) -> &FifoCache {
        &self.mmbuf
    }

    /// The underlying storage array (bytes-read statistics).
    pub fn array(&self) -> &StorageArray {
        &self.array
    }

    /// The instant page `pid`'s bytes are available on the host.
    /// `all_cached` is the Alg. 1 line-16 predicate: every target GPU
    /// holds the page, so storage must not be touched (no fetch, no MMBuf
    /// admission). `page` is the page itself so the fetch can verify its
    /// trailer checksum; a fetch that keeps failing surfaces as a typed
    /// error, never a panic.
    pub fn page_ready(
        &mut self,
        pid: u64,
        page: &Page,
        all_cached: bool,
        start: SimTime,
    ) -> Result<SimTime, EngineError> {
        if all_cached || self.mmbuf.access(pid) {
            return Ok(start);
        }
        let bytes = page.size_bytes() as u64;
        let policy = gts_storage::FetchPolicy::verified(page);
        Ok(self.array.fetch(pid, bytes, start, policy)?.end)
    }

    /// Flush the MMBuf's and the array's counters (hits/misses, I/O
    /// bytes) into `tel`'s registry.
    pub fn flush_to(&self, tel: &Telemetry) {
        tel.add(keys::MMBUF_HITS, self.mmbuf.hits());
        tel.add(keys::MMBUF_MISSES, self.mmbuf.misses());
        tel.add(keys::MMBUF_EVICTIONS, self.mmbuf.evictions());
        self.array.flush_to(tel);
    }

    /// Checkpoint-boundary reset: a resumed run's MMBuf starts empty, so
    /// the checkpointing run's goes cold at the same boundary or the
    /// ready-times diverge. Its counters keep counting over the whole run
    /// ([`CachePolicy::clear`]).
    pub fn checkpoint_reset(&mut self) {
        self.mmbuf.clear();
    }

    /// Per-drive recovery state (quarantine flags, consecutive-failure
    /// counts) for a snapshot.
    pub fn export_recovery(&self) -> (Vec<bool>, Vec<u32>) {
        self.array.export_recovery_state()
    }

    /// Restore state captured by [`StorageSource::export_recovery`]
    /// (ignored by an array of a different shape).
    pub fn import_recovery(&mut self, quarantined: &[bool], failures: &[u32]) {
        self.array.import_recovery_state(quarantined, failures);
    }

    /// Drop the MMBuf's copies of `pids` after a mutation batch rewrote
    /// them: the buffered bytes are stale and the next access re-fetches.
    pub fn invalidate(&mut self, pids: &[u64]) {
        for &pid in pids {
            self.mmbuf.invalidate(pid);
        }
    }

    /// Place pages allocated *after* build (delta/overflow pages from a
    /// mutation batch) on surviving drives instead of the original
    /// stripe map.
    pub fn note_new_pages(&mut self, pids: &[u64]) {
        self.array.place_new_pages(pids);
    }

    /// A background scrub pass found page `pid`'s at-rest copy failing
    /// its trailer checksum at simulated instant `when`: charge the
    /// hosting drive's failure streak (repeated rot quarantines the drive
    /// and re-stripes its pages).
    pub fn note_scrub_detection(&mut self, pid: u64, when: SimTime) {
        self.array.note_corrupt_page(pid, when);
    }
}

/// The source the configuration asks for, telemetry attached: `None`
/// in memory, else a [`StorageSource`] whose MMBuf holds
/// `cfg.mmbuf_percent` of the graph's `num_pages`. `faults` (when
/// present) injects the run's device-read fault schedule.
pub fn for_config(
    cfg: &GtsConfig,
    num_pages: u64,
    tel: &Telemetry,
    faults: Option<&FaultPlan>,
) -> Option<StorageSource> {
    let mut array = match cfg.storage {
        StorageLocation::InMemory => return None,
        StorageLocation::Ssds(k) => StorageArray::ssds(k),
        StorageLocation::Hdds(k) => StorageArray::hdds(k),
    };
    array.attach_telemetry(tel.clone());
    if let Some(plan) = faults {
        array.attach_faults(plan.clone());
    }
    let mmbuf = FifoCache::with_fraction(num_pages, cfg.mmbuf_percent);
    Some(StorageSource::new(array, mmbuf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gts_graph::generate::rmat;
    use gts_storage::{build_graph_store, PageFormatConfig, PhysicalIdConfig};

    /// A real, sealed page (valid trailer checksum) for fetch tests; its
    /// size in bytes doubles as the expected I/O accounting unit.
    fn sample_page() -> Page {
        let store = build_graph_store(
            &rmat(6),
            PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 1024),
        )
        .unwrap();
        store.page(0).clone()
    }

    #[test]
    fn in_memory_pages_are_always_ready_at_sweep_start() {
        let page = sample_page();
        let start = SimTime::ZERO + gts_sim::SimDuration::from_nanos(500);
        for pid in 0..4 {
            assert_eq!(page_ready(None, pid, &page, false, start).unwrap(), start);
        }
    }

    #[test]
    fn fully_cached_pages_generate_zero_storage_traffic() {
        let page = sample_page();
        let mut src = StorageSource::new(StorageArray::ssds(2), FifoCache::new(8));
        let start = SimTime::ZERO;
        // Line 16: every target GPU caches the page — the source must not
        // be consulted, so no I/O bytes and no MMBuf admission.
        assert_eq!(src.page_ready(7, &page, true, start).unwrap(), start);
        assert_eq!(src.array().bytes_read(), 0);
        assert_eq!(src.mmbuf().hits() + src.mmbuf().misses(), 0);
        assert!(!src.mmbuf().contains(7), "must not admit a skipped page");
    }

    #[test]
    fn miss_fetches_from_storage_then_mmbuf_serves_the_repeat() {
        let page = sample_page();
        let bytes = page.size_bytes() as u64;
        let mut src = StorageSource::new(StorageArray::ssds(1), FifoCache::new(8));
        let start = SimTime::ZERO;
        // Cold: the page comes off the drive — ready strictly later.
        let ready = src.page_ready(3, &page, false, start).unwrap();
        assert!(ready > start, "SSD fetch takes simulated time");
        assert_eq!(src.array().bytes_read(), bytes);
        assert_eq!(src.mmbuf().misses(), 1);
        // Warm: the MMBuf serves it — ready immediately, no extra I/O.
        let again = src.page_ready(3, &page, false, start).unwrap();
        assert_eq!(again, start);
        assert_eq!(src.array().bytes_read(), bytes);
        assert_eq!(src.mmbuf().hits(), 1);
    }

    #[test]
    fn flush_reports_mmbuf_and_io_counters() {
        let page = sample_page();
        let mut src = StorageSource::new(StorageArray::ssds(1), FifoCache::new(8));
        src.page_ready(0, &page, false, SimTime::ZERO).unwrap();
        src.page_ready(0, &page, false, SimTime::ZERO).unwrap();
        let tel = Telemetry::new();
        src.flush_to(&tel);
        assert_eq!(tel.counter(gts_telemetry::keys::MMBUF_HITS), 1);
        assert_eq!(tel.counter(gts_telemetry::keys::MMBUF_MISSES), 1);
        assert_eq!(
            tel.counter(gts_telemetry::keys::IO_BYTES_READ),
            page.size_bytes() as u64
        );
    }

    #[test]
    fn zero_capacity_mmbuf_always_fetches() {
        let page = sample_page();
        let mut src = StorageSource::new(StorageArray::ssds(1), FifoCache::new(0));
        for _ in 0..3 {
            let r = src.page_ready(1, &page, false, SimTime::ZERO).unwrap();
            assert!(r > SimTime::ZERO);
        }
        assert_eq!(src.array().bytes_read(), 3 * page.size_bytes() as u64);
        assert_eq!(src.mmbuf().hits(), 0);
    }

    #[test]
    fn corrupt_page_surfaces_as_a_typed_engine_error() {
        let mut page = sample_page();
        // Flip one payload bit: the trailer checksum no longer matches.
        page.data[PAGE_HEADER_FLIP] ^= 0x40;
        let mut src = StorageSource::new(StorageArray::ssds(1), FifoCache::new(8));
        match src.page_ready(0, &page, false, SimTime::ZERO) {
            Err(EngineError::Storage(e)) => {
                assert!(e.to_string().contains("checksum"), "{e}");
            }
            other => panic!("expected a storage error, got {other:?}"),
        }
    }

    /// Some payload byte well inside the page (past the 8-byte header).
    const PAGE_HEADER_FLIP: usize = 64;
}
