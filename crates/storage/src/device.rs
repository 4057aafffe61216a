//! Simulated secondary-storage devices.
//!
//! The paper stores graphs on Fusion-io PCI-E SSDs (~2 GB/s sequential read
//! each) and compares against SATA HDDs (Fig. 9); pages are striped over
//! multiple drives by the hash `g(j)` and fetched on demand (Algorithm 1
//! line 23). [`BlockDevice`] models one drive as a FIFO queue with a fixed
//! per-request latency plus bandwidth-proportional transfer time;
//! [`StorageArray`] stripes pages across drives exactly like `g(j)`.
//!
//! All reads go through the single [`StorageArray::fetch`] entrypoint,
//! parameterised by a [`FetchPolicy`] whose default is *verify + retry*:
//! every fetched page's trailer checksum is checked (cached after the
//! first success, so intact hot pages pay the hash once). With a
//! [`FaultPlan`] attached, fetching turns into the recovery path of the
//! fault model: transient read errors and torn pages are retried with
//! simulated backoff (each failed attempt still occupies the drive), a
//! drive is quarantined after repeated consecutive failures (surviving
//! drives re-stripe its pages, mirroring the `g(j)` rehash), and
//! persistent checksum failures surface as a typed [`StorageError`]
//! instead of a panic.

use crate::page::Page;
use gts_faults::{FaultPlan, ReadOutcome};
use gts_sim::resource::Scheduled;
use gts_sim::{Bandwidth, Resource, SimDuration, SimTime};
use gts_telemetry::{keys, SpanCat, Telemetry, Track};
use std::collections::BTreeMap;

/// Typed failures of the verified fetch path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// Transient errors persisted past the retry budget.
    RetriesExhausted {
        /// Page that could not be read.
        pid: u64,
        /// Attempts spent (first try + retries).
        attempts: u32,
    },
    /// The page's bytes fail their trailer checksum on every attempt:
    /// the corruption is real, so re-fetching can never heal it.
    CorruptPage {
        /// Page whose checksum never matched.
        pid: u64,
    },
    /// Every drive has been quarantined; no one can serve the page.
    AllDrivesQuarantined {
        /// Page that could not be routed.
        pid: u64,
    },
    /// A page ID outside the store's page range — a corrupt RVT, a bad
    /// program-returned pid, or a stale reference to a page that a
    /// mutation never created.
    BadPid {
        /// The out-of-range page ID.
        pid: u64,
        /// How many pages the store actually has.
        num_pages: u64,
    },
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::RetriesExhausted { pid, attempts } => {
                write!(f, "page {pid}: read failed after {attempts} attempts")
            }
            StorageError::CorruptPage { pid } => {
                write!(f, "page {pid}: persistent trailer checksum mismatch")
            }
            StorageError::AllDrivesQuarantined { pid } => {
                write!(f, "page {pid}: all drives quarantined")
            }
            StorageError::BadPid { pid, num_pages } => {
                write!(f, "page {pid}: out of range (store has {num_pages} pages)")
            }
        }
    }
}

impl std::error::Error for StorageError {}

/// How a [`StorageArray::fetch`] verifies and retries.
///
/// The only constructor is [`FetchPolicy::verified`]: every fetch checks
/// the page's trailer checksum against the bytes that "arrived" (there is
/// deliberately no unverified public path — PR 4's fault model made
/// integrity checking load-bearing). Retry behaviour defaults to the
/// array's attached fault plan; [`FetchPolicy::fail_fast`] opts a single
/// fetch out of retries.
#[derive(Clone, Copy)]
pub struct FetchPolicy<'a> {
    page: &'a Page,
    fail_fast: bool,
}

impl<'a> FetchPolicy<'a> {
    /// Verify `page`'s trailer checksum on every attempt, retrying with
    /// backoff per the array's fault plan (the default policy).
    pub fn verified(page: &'a Page) -> Self {
        FetchPolicy {
            page,
            fail_fast: false,
        }
    }

    /// Disable retries for this fetch: one attempt, first failure is
    /// final. Verification still applies.
    pub fn fail_fast(mut self) -> Self {
        self.fail_fast = true;
        self
    }

    /// The page whose integrity this fetch is checked against.
    pub fn page(&self) -> &'a Page {
        self.page
    }
}

/// Kind of drive, for presets and reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceKind {
    /// PCI-E SSD (the paper's Fusion-io drives).
    Ssd,
    /// Rotational disk.
    Hdd,
    /// Anything else (custom bandwidth).
    Custom,
}

/// One simulated drive.
#[derive(Debug, Clone)]
pub struct BlockDevice {
    kind: DeviceKind,
    bandwidth: Bandwidth,
    latency: SimDuration,
    queue: Resource,
    bytes_read: u64,
}

impl BlockDevice {
    /// A drive with explicit characteristics.
    pub fn new(kind: DeviceKind, bandwidth: Bandwidth, latency: SimDuration) -> Self {
        BlockDevice {
            kind,
            bandwidth,
            latency,
            queue: Resource::new("blockdev", 1),
            bytes_read: 0,
        }
    }

    /// Paper-era PCI-E SSD: ~2 GiB/s sequential read, ~60 µs request latency.
    pub fn ssd() -> Self {
        Self::new(
            DeviceKind::Ssd,
            Bandwidth::gib_per_sec(2),
            SimDuration::from_micros(60),
        )
    }

    /// Paper-era HDD: ~165 MiB/s sequential, ~8 ms positioning latency.
    /// (Two of these in RAID-0 give the ~330 MB/s the paper quotes in
    /// Sec. 7.5.)
    pub fn hdd() -> Self {
        Self::new(
            DeviceKind::Hdd,
            Bandwidth::mib_per_sec(165),
            SimDuration::from_millis(8),
        )
    }

    /// Drive kind.
    pub fn kind(&self) -> DeviceKind {
        self.kind
    }

    /// Sequential bandwidth.
    pub fn bandwidth(&self) -> Bandwidth {
        self.bandwidth
    }

    /// Enqueue a read of `bytes`, ready at `ready`; returns its schedule.
    pub fn read(&mut self, bytes: u64, ready: SimTime) -> Scheduled {
        self.bytes_read += bytes;
        let dur = self.latency + self.bandwidth.transfer_time(bytes);
        self.queue.submit(ready, dur)
    }

    /// Total bytes served.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// When the device queue drains.
    pub fn drain_time(&self) -> SimTime {
        self.queue.drain_time()
    }

    /// Reset queues and counters to t = 0.
    pub fn reset(&mut self) {
        self.queue.reset();
        self.bytes_read = 0;
    }
}

/// A set of drives with pages striped across them by `g(j) = j mod N`
/// (the paper's default hash, Sec. 4.1).
#[derive(Debug, Clone)]
pub struct StorageArray {
    devices: Vec<BlockDevice>,
    /// The span sink, kept only when spans are on (read once, at attach).
    spans: Option<Telemetry>,
    faults: Option<FaultPlan>,
    /// Per-drive quarantine flag; quarantined drives serve no more reads.
    quarantined: Vec<bool>,
    /// Per-drive consecutive failed attempts (reset on success).
    consecutive_failures: Vec<u32>,
    /// Drive assignment for pages created after build (delta pages):
    /// the original stripe map `g(j)` knows nothing about these pids,
    /// so each is pinned to a drive that was live at creation time.
    delta_homes: BTreeMap<u64, usize>,
    read_errors: u64,
    checksum_mismatches: u64,
    retries: u64,
    drives_quarantined: u64,
}

impl StorageArray {
    /// Build an array from drives.
    ///
    /// # Panics
    /// Panics on an empty array — an engine configured to stream from
    /// storage needs at least one drive.
    pub fn new(devices: Vec<BlockDevice>) -> Self {
        assert!(!devices.is_empty(), "storage array needs >= 1 device");
        let n = devices.len();
        StorageArray {
            devices,
            spans: None,
            faults: None,
            quarantined: vec![false; n],
            consecutive_failures: vec![0; n],
            delta_homes: BTreeMap::new(),
            read_errors: 0,
            checksum_mismatches: 0,
            retries: 0,
            drives_quarantined: 0,
        }
    }

    /// Attach a seeded fault schedule; [`StorageArray::fetch`] consults
    /// it on every read attempt.
    pub fn attach_faults(&mut self, plan: FaultPlan) {
        self.faults = Some(plan);
    }

    /// Share `tel` as this array's recording surface: fetches draw I/O
    /// spans (one lane per drive) when `tel` has spans enabled.
    pub fn attach_telemetry(&mut self, tel: Telemetry) {
        self.spans = None;
        if tel.spans_enabled() {
            tel.name_process(keys::pid::STORAGE, "storage");
            for d in 0..self.devices.len() {
                let name = match self.devices[d].kind() {
                    DeviceKind::Ssd => format!("ssd{d}"),
                    DeviceKind::Hdd => format!("hdd{d}"),
                    DeviceKind::Custom => format!("dev{d}"),
                };
                tel.name_thread(Track::new(keys::pid::STORAGE, d as u32), name);
            }
            self.spans = Some(tel);
        }
    }

    /// `n` identical SSDs.
    pub fn ssds(n: usize) -> Self {
        Self::new((0..n).map(|_| BlockDevice::ssd()).collect())
    }

    /// `n` identical HDDs.
    pub fn hdds(n: usize) -> Self {
        Self::new((0..n).map(|_| BlockDevice::hdd()).collect())
    }

    /// Number of drives.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Always false: see [`StorageArray::new`].
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The paper's page-to-device hash `g(j)`.
    pub fn g(&self, pid: u64) -> usize {
        (pid % self.devices.len() as u64) as usize
    }

    /// `g(j)` over the *live* (non-quarantined) drives: with no drive
    /// quarantined this equals [`StorageArray::g`]; after a quarantine the
    /// victim's pages re-stripe onto the survivors.
    pub fn route(&self, pid: u64) -> Option<usize> {
        // A page created after build goes to the drive it was pinned to
        // at creation time, as long as that drive survives; if its home
        // has since been quarantined it re-stripes like any other page.
        if let Some(&d) = self.delta_homes.get(&pid) {
            if !self.quarantined[d] {
                return Some(d);
            }
        }
        let live: Vec<usize> = (0..self.devices.len())
            .filter(|&d| !self.quarantined[d])
            .collect();
        if live.is_empty() {
            None
        } else {
            Some(live[(pid % live.len() as u64) as usize])
        }
    }

    /// Register pages created after build (delta pages appended by a
    /// mutation batch). Each is pinned to a drive chosen by rehashing
    /// over the drives live *now*: the build-time stripe map `g(j)` was
    /// computed before these pids existed, and a quarantined drive must
    /// never be handed new pages. Re-registering a pid is a no-op.
    pub fn place_new_pages(&mut self, pids: &[u64]) {
        let live: Vec<usize> = (0..self.devices.len())
            .filter(|&d| !self.quarantined[d])
            .collect();
        for &pid in pids {
            if self.delta_homes.contains_key(&pid) {
                continue;
            }
            let home = if live.is_empty() {
                self.g(pid)
            } else {
                live[(pid % live.len() as u64) as usize]
            };
            self.delta_homes.insert(pid, home);
        }
    }

    /// Number of drives currently quarantined.
    pub fn quarantined_count(&self) -> usize {
        self.quarantined.iter().filter(|&&q| q).count()
    }

    /// Fetch page `pid` of `bytes` bytes, ready at `ready`, under
    /// `policy` — the single entrypoint for all reads.
    ///
    /// Every attempt occupies a live drive for the full read (failed
    /// reads are not free), the policy page's trailer checksum decides
    /// whether the bytes that "arrived" are usable (the check is cached
    /// per page after the first success, so re-fetches of an intact page
    /// are O(1)), and retries wait out the configured backoff on the
    /// simulated clock. Without an attached [`FaultPlan`] this is a
    /// single checksum-verified read; corrupt pages surface as
    /// [`StorageError::CorruptPage`].
    pub fn fetch(
        &mut self,
        pid: u64,
        bytes: u64,
        ready: SimTime,
        policy: FetchPolicy<'_>,
    ) -> Result<Scheduled, StorageError> {
        let page = policy.page;
        let (max_retries, backoff, quarantine_after) = match &self.faults {
            Some(f) if !policy.fail_fast => {
                let c = f.config();
                (c.max_retries, c.backoff, c.quarantine_after)
            }
            Some(f) => (0, SimDuration::ZERO, f.config().quarantine_after),
            None => (0, SimDuration::ZERO, u32::MAX),
        };
        let mut at = ready;
        let attempts = max_retries + 1;
        for attempt in 0..attempts {
            let dev = self
                .route(pid)
                .ok_or(StorageError::AllDrivesQuarantined { pid })?;
            let s = self.devices[dev].read(bytes, at);
            if attempt > 0 {
                self.retries += 1;
            }
            let injected = match &self.faults {
                Some(f) => f.device_read(dev as u64),
                None => ReadOutcome::Ok,
            };
            // A torn read delivers bytes that fail the trailer check — the
            // same detection path as real on-page corruption, except a
            // re-fetch heals it.
            let failure = match injected {
                ReadOutcome::TransientError => Some(("!read", true)),
                ReadOutcome::TornPage => Some(("!torn", false)),
                ReadOutcome::Ok if !page.checksum_ok_cached() => Some(("!corrupt", false)),
                ReadOutcome::Ok => None,
            };
            match failure {
                None => {
                    self.consecutive_failures[dev] = 0;
                    self.record_io_span(dev, || format!("page {pid}"), s);
                    return Ok(s);
                }
                Some((tag, is_read_error)) => {
                    if is_read_error {
                        self.read_errors += 1;
                    } else {
                        self.checksum_mismatches += 1;
                    }
                    self.record_io_span(dev, || format!("page {pid} {tag}"), s);
                    self.consecutive_failures[dev] += 1;
                    if self.consecutive_failures[dev] >= quarantine_after {
                        self.quarantine(dev, s.end);
                    }
                    at = s.end + backoff;
                }
            }
        }
        if page.checksum_ok_cached() {
            Err(StorageError::RetriesExhausted { pid, attempts })
        } else {
            Err(StorageError::CorruptPage { pid })
        }
    }

    /// Count an at-rest corruption detected by a scrub pass against the
    /// drive hosting `pid`: the same failure-streak bookkeeping as a
    /// fetch-time checksum mismatch, so a drive whose resident pages keep
    /// rotting crosses the quarantine threshold and its pages re-stripe
    /// onto the survivors. A no-op when every drive is already offline.
    pub fn note_corrupt_page(&mut self, pid: u64, when: SimTime) {
        let Some(dev) = self.route(pid) else {
            return;
        };
        self.checksum_mismatches += 1;
        self.consecutive_failures[dev] += 1;
        let quarantine_after = match &self.faults {
            Some(f) => f.config().quarantine_after,
            None => u32::MAX,
        };
        if self.consecutive_failures[dev] >= quarantine_after {
            self.quarantine(dev, when);
        }
    }

    /// Take `dev` offline; its pages re-stripe onto the surviving drives.
    fn quarantine(&mut self, dev: usize, when: SimTime) {
        if self.quarantined[dev] {
            return;
        }
        self.quarantined[dev] = true;
        self.drives_quarantined += 1;
        if let Some(tel) = &self.spans {
            tel.record_span(
                Track::new(keys::pid::STORAGE, dev as u32),
                SpanCat::Degrade,
                format!("quarantine dev{dev}"),
                when,
                when,
            );
        }
    }

    fn record_io_span(&self, dev: usize, name: impl FnOnce() -> String, s: Scheduled) {
        if let Some(tel) = &self.spans {
            tel.record_span(
                Track::new(keys::pid::STORAGE, dev as u32),
                SpanCat::Io,
                name(),
                s.start,
                s.end,
            );
        }
    }

    /// Total bytes read across all drives.
    pub fn bytes_read(&self) -> u64 {
        self.devices.iter().map(|d| d.bytes_read()).sum()
    }

    /// Export the array's durable recovery state for a checkpoint:
    /// per-drive quarantine flags and consecutive-failure counts. The
    /// stat counters (`read_errors`, `retries`, ...) are deliberately
    /// NOT exported — a resumed run imports the run's counter registry
    /// wholesale and accumulates post-resume deltas on top, so carrying
    /// them here as well would double-count.
    pub fn export_recovery_state(&self) -> (Vec<bool>, Vec<u32>) {
        (self.quarantined.clone(), self.consecutive_failures.clone())
    }

    /// Restore state captured by [`StorageArray::export_recovery_state`].
    /// Returns `false` (importing nothing) when the drive count differs —
    /// per-drive flags from a differently-shaped array are meaningless.
    pub fn import_recovery_state(&mut self, quarantined: &[bool], failures: &[u32]) -> bool {
        if quarantined.len() != self.devices.len() || failures.len() != self.devices.len() {
            return false;
        }
        self.quarantined.copy_from_slice(quarantined);
        self.consecutive_failures.copy_from_slice(failures);
        true
    }

    /// Flush the array's byte and fault counters into `tel`'s registry.
    /// Fault counters at zero leave no key behind, so fault-free runs
    /// report exactly what they always did.
    pub fn flush_to(&self, tel: &Telemetry) {
        tel.add(keys::IO_BYTES_READ, self.bytes_read());
        tel.add(keys::IO_READ_ERRORS, self.read_errors);
        tel.add(keys::IO_CHECKSUM_MISMATCHES, self.checksum_mismatches);
        tel.add(keys::IO_RETRIES, self.retries);
        tel.add(keys::IO_DRIVES_QUARANTINED, self.drives_quarantined);
    }

    /// Aggregate sequential bandwidth of the array.
    pub fn total_bandwidth(&self) -> Bandwidth {
        Bandwidth::bytes_per_sec(
            self.devices
                .iter()
                .map(|d| d.bandwidth().as_bytes_per_sec())
                .sum(),
        )
    }

    /// Latest drain time across drives.
    pub fn drain_time(&self) -> SimTime {
        self.devices
            .iter()
            .map(|d| d.drain_time())
            .fold(SimTime::ZERO, SimTime::max)
    }

    /// Reset all drives, lifting quarantines and clearing fault counters.
    pub fn reset(&mut self) {
        for d in &mut self.devices {
            d.reset();
        }
        self.quarantined.fill(false);
        self.consecutive_failures.fill(0);
        self.read_errors = 0;
        self.checksum_mismatches = 0;
        self.retries = 0;
        self.drives_quarantined = 0;
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests panic on failure by design
mod tests {
    use super::*;

    /// Every variant renders its context fields as prose an operator can
    /// act on — no `{:?}` leakage of variant or field names.
    #[test]
    fn storage_error_display_renders_every_variant() {
        let cases = [
            (
                StorageError::RetriesExhausted {
                    pid: 7,
                    attempts: 5,
                },
                "page 7: read failed after 5 attempts",
            ),
            (
                StorageError::CorruptPage { pid: 42 },
                "page 42: persistent trailer checksum mismatch",
            ),
            (
                StorageError::AllDrivesQuarantined { pid: 9 },
                "page 9: all drives quarantined",
            ),
            (
                StorageError::BadPid {
                    pid: 100,
                    num_pages: 12,
                },
                "page 100: out of range (store has 12 pages)",
            ),
        ];
        for (e, want) in cases {
            assert_eq!(e.to_string(), want);
            assert_ne!(e.to_string(), format!("{e:?}"), "Display must not be Debug");
        }
    }

    #[test]
    fn read_time_is_latency_plus_transfer() {
        let mut d = BlockDevice::new(
            DeviceKind::Custom,
            Bandwidth::bytes_per_sec(1_000_000_000),
            SimDuration::from_micros(100),
        );
        let s = d.read(1_000_000, SimTime::ZERO);
        assert_eq!(s.start, SimTime::ZERO);
        // 100us latency + 1ms transfer.
        assert_eq!(s.end.as_nanos(), 100_000 + 1_000_000);
        assert_eq!(d.bytes_read(), 1_000_000);
    }

    #[test]
    fn requests_queue_fifo() {
        let mut d = BlockDevice::new(
            DeviceKind::Custom,
            Bandwidth::bytes_per_sec(1_000_000_000),
            SimDuration::ZERO,
        );
        let a = d.read(1_000, SimTime::ZERO);
        let b = d.read(1_000, SimTime::ZERO);
        assert_eq!(b.start, a.end);
    }

    #[test]
    fn striping_spreads_load() {
        let mut arr = StorageArray::new(vec![
            BlockDevice::new(
                DeviceKind::Custom,
                Bandwidth::bytes_per_sec(1_000),
                SimDuration::ZERO,
            ),
            BlockDevice::new(
                DeviceKind::Custom,
                Bandwidth::bytes_per_sec(1_000),
                SimDuration::ZERO,
            ),
        ]);
        assert_eq!(arr.g(0), 0);
        assert_eq!(arr.g(1), 1);
        assert_eq!(arr.g(2), 0);
        let page = test_page();
        let p = FetchPolicy::verified(&page);
        // Two pages on different drives overlap fully.
        let a = arr.fetch(0, 1_000, SimTime::ZERO, p).unwrap();
        let b = arr.fetch(1, 1_000, SimTime::ZERO, p).unwrap();
        assert_eq!(a.start, b.start);
        // A third page lands behind the first on drive 0.
        let c = arr.fetch(2, 1_000, SimTime::ZERO, p).unwrap();
        assert_eq!(c.start, a.end);
    }

    #[test]
    fn two_ssds_double_bandwidth() {
        let one = StorageArray::ssds(1).total_bandwidth();
        let two = StorageArray::ssds(2).total_bandwidth();
        assert_eq!(two.as_bytes_per_sec(), 2 * one.as_bytes_per_sec());
    }

    #[test]
    fn hdd_is_much_slower_than_ssd() {
        let hdd = BlockDevice::hdd();
        let ssd = BlockDevice::ssd();
        assert!(
            ssd.bandwidth().as_bytes_per_sec() > 10 * hdd.bandwidth().as_bytes_per_sec(),
            "SSD must be an order of magnitude faster"
        );
    }

    #[test]
    fn reset_restores_t0() {
        let mut arr = StorageArray::ssds(2);
        let page = test_page();
        arr.fetch(0, 1 << 20, SimTime::ZERO, FetchPolicy::verified(&page))
            .unwrap();
        arr.reset();
        assert_eq!(arr.drain_time(), SimTime::ZERO);
    }

    /// Scrub detections count against the hosting drive's failure streak
    /// and cross the same quarantine threshold as fetch-time failures.
    #[test]
    fn scrub_detections_quarantine_the_hosting_drive() {
        let mut arr = StorageArray::ssds(2);
        let mut cfg = gts_faults::FaultConfig::quiet(1);
        cfg.quarantine_after = 3;
        arr.attach_faults(gts_faults::FaultPlan::new(cfg));
        // Page 0 lives on drive 0; three straight detections take it out.
        for _ in 0..2 {
            arr.note_corrupt_page(0, SimTime::ZERO);
            assert_eq!(arr.quarantined_count(), 0);
        }
        arr.note_corrupt_page(0, SimTime::ZERO);
        assert_eq!(arr.quarantined_count(), 1);
        // The victim's pages re-stripe onto the survivor.
        assert_eq!(arr.route(0), Some(1));
        // Without a fault plan the threshold is effectively infinite.
        let mut quiet = StorageArray::ssds(1);
        for _ in 0..100 {
            quiet.note_corrupt_page(0, SimTime::ZERO);
        }
        assert_eq!(quiet.quarantined_count(), 0);
    }

    #[test]
    fn fetches_record_io_spans_and_flush_bytes() {
        let tel = Telemetry::with_spans();
        let mut arr = StorageArray::ssds(2);
        arr.attach_telemetry(tel.clone());
        let page = test_page();
        let p = FetchPolicy::verified(&page);
        arr.fetch(0, 1_000, SimTime::ZERO, p).unwrap();
        arr.fetch(1, 2_000, SimTime::ZERO, p).unwrap();
        assert_eq!(tel.span_count(), 2);
        assert!(tel.spans().iter().all(|s| s.cat == SpanCat::Io));
        arr.flush_to(&tel);
        assert_eq!(tel.counter(keys::IO_BYTES_READ), 3_000);
    }

    #[test]
    #[should_panic(expected = ">= 1 device")]
    fn empty_array_rejected() {
        let _ = StorageArray::new(vec![]);
    }

    use crate::format::{PageFormatConfig, PhysicalIdConfig, RecordId, PAGE_HEADER_BYTES};
    use crate::page::SmallPageEncoder;
    use gts_faults::{FaultConfig, FaultPlan};

    fn test_page() -> Page {
        let cfg = PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 256);
        let mut enc = SmallPageEncoder::new(cfg);
        enc.push_vertex(1, &[RecordId::new(0, 0)]);
        enc.finish(0)
    }

    #[test]
    fn fail_fast_matches_default_policy_without_faults() {
        // With no fault plan both policies are a single verified read —
        // identical schedules on identical arrays.
        let page = test_page();
        let mut a = StorageArray::ssds(2);
        let mut b = StorageArray::ssds(2);
        let fast = a
            .fetch(
                0,
                1_000,
                SimTime::ZERO,
                FetchPolicy::verified(&page).fail_fast(),
            )
            .unwrap();
        let default = b
            .fetch(0, 1_000, SimTime::ZERO, FetchPolicy::verified(&page))
            .unwrap();
        assert_eq!(fast, default);
    }

    #[test]
    fn fail_fast_skips_retries_under_faults() {
        let page = test_page();
        let cfg = FaultConfig {
            read_error_ppm: 1_000_000, // every attempt fails
            corrupt_page_ppm: 0,
            max_retries: 8,
            quarantine_after: u32::MAX,
            ..FaultConfig::with_seed(3)
        };
        let mut arr = StorageArray::ssds(1);
        arr.attach_faults(FaultPlan::new(cfg));
        let err = arr
            .fetch(
                0,
                1_000,
                SimTime::ZERO,
                FetchPolicy::verified(&page).fail_fast(),
            )
            .unwrap_err();
        assert_eq!(
            err,
            StorageError::RetriesExhausted {
                pid: 0,
                attempts: 1
            }
        );
        let tel = Telemetry::new();
        arr.flush_to(&tel);
        assert_eq!(tel.counter(keys::IO_RETRIES), 0);
    }

    #[test]
    fn verified_fetch_detects_real_corruption() {
        let mut page = test_page();
        page.data[PAGE_HEADER_BYTES] ^= 0xFF;
        let mut arr = StorageArray::ssds(2);
        let err = arr
            .fetch(7, 1_000, SimTime::ZERO, FetchPolicy::verified(&page))
            .unwrap_err();
        assert_eq!(err, StorageError::CorruptPage { pid: 7 });
        // With a fault plan attached, retries are paid but cannot heal it.
        let mut arr = StorageArray::ssds(2);
        arr.attach_faults(FaultPlan::new(FaultConfig::quiet(1)));
        let err = arr
            .fetch(7, 1_000, SimTime::ZERO, FetchPolicy::verified(&page))
            .unwrap_err();
        assert_eq!(err, StorageError::CorruptPage { pid: 7 });
        let tel = Telemetry::new();
        arr.flush_to(&tel);
        assert_eq!(tel.counter(keys::IO_CHECKSUM_MISMATCHES), 5); // 1 + 4 retries
        assert_eq!(tel.counter(keys::IO_RETRIES), 4);
    }

    #[test]
    fn transient_errors_cost_time_but_heal() {
        let page = test_page();
        // ~30% of reads fail; 8 retries make eventual success overwhelming.
        let cfg = FaultConfig {
            read_error_ppm: 300_000,
            corrupt_page_ppm: 0,
            max_retries: 8,
            quarantine_after: u32::MAX,
            ..FaultConfig::with_seed(42)
        };
        let mut faulty = StorageArray::ssds(1);
        faulty.attach_faults(FaultPlan::new(cfg));
        let mut clean = StorageArray::ssds(1);
        let mut saw_retry = false;
        for pid in 0..64 {
            let f = faulty
                .fetch(pid, 4_096, SimTime::ZERO, FetchPolicy::verified(&page))
                .unwrap();
            let c = clean
                .fetch(pid, 4_096, SimTime::ZERO, FetchPolicy::verified(&page))
                .unwrap();
            assert!(f.end >= c.end, "faults can only add simulated time");
            saw_retry |= f.end > c.end;
        }
        assert!(
            saw_retry,
            "seed 42 at 30% must fault at least once in 64 reads"
        );
        let tel = Telemetry::new();
        faulty.flush_to(&tel);
        assert!(tel.counter(keys::IO_READ_ERRORS) > 0);
        assert_eq!(
            tel.counter(keys::IO_RETRIES),
            tel.counter(keys::IO_READ_ERRORS)
        );
    }

    #[test]
    fn always_failing_drives_get_quarantined_then_typed_error() {
        let page = test_page();
        let cfg = FaultConfig {
            read_error_ppm: 1_000_000, // every attempt fails
            corrupt_page_ppm: 0,
            max_retries: 16,
            quarantine_after: 2,
            ..FaultConfig::with_seed(5)
        };
        let mut arr = StorageArray::ssds(2);
        arr.attach_faults(FaultPlan::new(cfg));
        assert_eq!(arr.route(0), Some(0));
        assert_eq!(arr.route(1), Some(1));
        let err = arr
            .fetch(0, 1_000, SimTime::ZERO, FetchPolicy::verified(&page))
            .unwrap_err();
        assert_eq!(err, StorageError::AllDrivesQuarantined { pid: 0 });
        assert_eq!(arr.quarantined_count(), 2);
        // Both drives died after 2 consecutive failures each.
        let tel = Telemetry::new();
        arr.flush_to(&tel);
        assert_eq!(tel.counter(keys::IO_DRIVES_QUARANTINED), 2);
        assert_eq!(tel.counter(keys::IO_READ_ERRORS), 4);
        arr.reset();
        assert_eq!(arr.quarantined_count(), 0);
        assert_eq!(arr.route(0), Some(0));
    }

    #[test]
    fn quarantine_re_stripes_to_survivors() {
        let page = test_page();
        let cfg = FaultConfig {
            read_error_ppm: 0,
            corrupt_page_ppm: 0,
            ..FaultConfig::with_seed(9)
        };
        let mut arr = StorageArray::ssds(3);
        arr.attach_faults(FaultPlan::new(cfg));
        arr.quarantine(1, SimTime::ZERO);
        // Live drives are {0, 2}; pid routing rehashes over them.
        assert_eq!(arr.route(0), Some(0));
        assert_eq!(arr.route(1), Some(2));
        assert_eq!(arr.route(2), Some(0));
        let s = arr
            .fetch(1, 1_000, SimTime::ZERO, FetchPolicy::verified(&page))
            .unwrap();
        assert_eq!(s.start, SimTime::ZERO);
    }

    #[test]
    fn new_pages_are_placed_on_surviving_drives() {
        let cfg = FaultConfig {
            read_error_ppm: 0,
            corrupt_page_ppm: 0,
            ..FaultConfig::with_seed(9)
        };
        let mut arr = StorageArray::ssds(3);
        arr.attach_faults(FaultPlan::new(cfg));
        arr.quarantine(1, SimTime::ZERO);
        // The build-time stripe map would send pid 7 to drive 1 (7 % 3),
        // which is dead; placement must pick among the survivors {0, 2}.
        assert_eq!(arr.g(7), 1);
        arr.place_new_pages(&[7, 8]);
        assert_eq!(arr.route(7), Some(2)); // live[7 % 2] = live[1] = 2
        assert_eq!(arr.route(8), Some(0)); // live[8 % 2] = live[0] = 0
                                           // The placement is sticky: routing does not drift when further
                                           // drives die, as long as the pinned home survives.
        arr.quarantine(0, SimTime::ZERO);
        assert_eq!(arr.route(7), Some(2));
        // If the pinned home itself dies, the page re-stripes over the
        // remaining live drives like any other page.
        arr.quarantine(2, SimTime::ZERO);
        assert_eq!(arr.route(7), None);
    }

    #[test]
    fn placement_without_quarantines_matches_the_stripe_map() {
        let mut arr = StorageArray::ssds(3);
        arr.place_new_pages(&[9, 10, 11]);
        for pid in [9u64, 10, 11] {
            assert_eq!(arr.route(pid), Some(arr.g(pid)));
        }
    }
}
