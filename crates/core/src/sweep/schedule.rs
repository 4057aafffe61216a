//! Stage 3 — scheduling: one GPU's streams, cache, and copy/kernel issue.
//!
//! A [`GpuLane`] owns everything one GPU contributes to the pipeline of
//! Fig. 2 step 2: the `cachedPIDMap` page cache (Sec. 3.3), round-robin
//! assignment over the asynchronous streams, and the H2D → RA → kernel
//! issue against the [`GpuTimer`]. The engine drives one lane per GPU;
//! the GPU baselines (`gts-baselines`) reuse the same lane instead of
//! hand-rolling timer choreography.

use crate::engine::{EngineError, GtsConfig};
use gts_faults::FaultPlan;
use gts_gpu::memory::{DeviceAlloc, DeviceMemory};
use gts_gpu::timer::{GpuTimer, KernelCost};
use gts_sim::resource::Scheduled;
use gts_sim::{SimDuration, SimTime};
use gts_storage::builder::GraphStore;
use gts_storage::cache::{CachePolicy, LruCache, PageCache};
use gts_storage::format::{ADJLIST_SZ_BYTES, OFF_BYTES, VID_BYTES};
use gts_storage::PageKind;
use gts_telemetry::{keys, Telemetry};

/// One GPU's slice of the streaming pipeline: simulated timer, topology
/// page cache, and the stream cursor for round-robin issue.
pub struct GpuLane {
    timer: GpuTimer,
    cache: PageCache,
    stream_cursor: usize,
    /// This lane's GPU index (fault-stream entity and counter scope).
    index: u32,
    /// Optional injected-fault schedule for copies and kernel launches.
    faults: Option<FaultPlan>,
    /// Injected transient copy faults absorbed by retry.
    copy_faults: u64,
    /// Injected transient kernel-launch faults absorbed by retry.
    launch_faults: u64,
    /// Cache hits accumulated before checkpoint-boundary cache resets
    /// (the live cache's counters die with it; see `checkpoint_reset`).
    banked_cache_hits: u64,
    /// Cache misses accumulated before checkpoint-boundary cache resets.
    banked_cache_misses: u64,
    /// Evictions accumulated before checkpoint-boundary cache resets.
    banked_cache_evictions: u64,
    /// Tenant this lane's cache traffic is attributed to. A lane serves
    /// exactly one job, so every probe it takes belongs to one tenant;
    /// flushing the attribution per lane is therefore identical to
    /// tagging each probe individually, and deterministic because probes
    /// are issued in the serial accounting phase. `None` (solo runs)
    /// writes no `tenant.*` keys.
    tenant: Option<String>,
    /// Page size in bytes, for tenant byte attribution (0 for bare lanes
    /// built via [`GpuLane::new`], which never carry a tenant).
    page_size: u64,
    // Held for their Drop-based accounting; the device-memory pool itself
    // is owned here too so allocations stay alive exactly as long as the
    // lane (i.e. the run).
    _mem: Option<DeviceMemory>,
    _allocs: Vec<DeviceAlloc>,
}

impl GpuLane {
    /// A lane over `timer` with an explicit page cache.
    pub fn new(timer: GpuTimer, cache: PageCache) -> GpuLane {
        GpuLane {
            timer,
            cache,
            stream_cursor: 0,
            index: 0,
            faults: None,
            copy_faults: 0,
            launch_faults: 0,
            banked_cache_hits: 0,
            banked_cache_misses: 0,
            banked_cache_evictions: 0,
            tenant: None,
            page_size: 0,
            _mem: None,
            _allocs: Vec::new(),
        }
    }

    /// Attribute this lane's cache traffic to `tenant`: the flush adds
    /// `tenant.<tenant>.cache.{hits,misses,evictions,bytes_streamed}` to
    /// the job's registry alongside the per-GPU keys.
    pub fn set_tenant(&mut self, tenant: impl Into<String>) {
        self.tenant = Some(tenant.into());
    }

    /// Subject this lane's copies and kernel launches to `plan`'s
    /// injected transient faults (retried with backoff, bounded by the
    /// plan's `max_retries`).
    pub fn attach_faults(&mut self, plan: FaultPlan) {
        self.faults = Some(plan);
    }

    /// A lane with no page cache — every probe misses. The GPU baselines
    /// use this: they model engines without GTS's topology cache.
    pub fn uncached(timer: GpuTimer) -> GpuLane {
        GpuLane::new(timer, Box::new(LruCache::new(0)))
    }

    /// The engine's lane for GPU `index`: allocate the four streaming
    /// buffers plus the RVT in device memory (Alg. 1 lines 2-3, OOM is the
    /// paper's O.O.M. cells), give the leftover to the topology cache
    /// (Sec. 3.3), and attach the run's telemetry. Fault plans are wired
    /// afterwards via [`GpuLane::attach_faults`].
    pub(crate) fn for_engine(
        cfg: &GtsConfig,
        store: &GraphStore,
        streams: usize,
        wa_bytes_per_gpu: u64,
        ra_bytes_per_vertex: u64,
        tel: &Telemetry,
        index: u32,
    ) -> Result<GpuLane, EngineError> {
        let page_size = store.cfg().page_size as u64;
        let mem = DeviceMemory::new(cfg.gpu.device_memory);
        let mut allocs = Vec::new();
        allocs.push(mem.alloc(wa_bytes_per_gpu, "WABuf")?);
        allocs.push(mem.alloc(streams as u64 * page_size, "SPBuf")?);
        if !store.large_pids().is_empty() {
            allocs.push(mem.alloc(streams as u64 * page_size, "LPBuf")?);
        }
        if ra_bytes_per_vertex > 0 {
            let max_sp_vertices = page_size / (VID_BYTES + OFF_BYTES + ADJLIST_SZ_BYTES) as u64;
            allocs.push(mem.alloc(
                streams as u64 * max_sp_vertices * ra_bytes_per_vertex,
                "RABuf",
            )?);
        }
        allocs.push(mem.alloc(store.rvt().memory_bytes(), "RVT")?);
        // Leftover memory becomes the topology cache (Sec. 3.3).
        let mut cache_bytes = mem.free();
        if let Some(cap) = cfg.cache_limit_bytes {
            cache_bytes = cache_bytes.min(cap);
        }
        let cache_pages = (cache_bytes / page_size) as usize;
        allocs.push(mem.alloc(cache_pages as u64 * page_size, "page cache")?);
        let mut timer = GpuTimer::new(cfg.gpu.clone(), cfg.pcie.clone(), streams);
        timer.attach_telemetry(tel.clone(), index);
        Ok(GpuLane {
            timer,
            cache: cfg.cache_policy.build(cache_pages),
            stream_cursor: 0,
            index,
            faults: None,
            copy_faults: 0,
            launch_faults: 0,
            banked_cache_hits: 0,
            banked_cache_misses: 0,
            banked_cache_evictions: 0,
            tenant: None,
            page_size,
            _mem: Some(mem),
            _allocs: allocs,
        })
    }

    /// Round-robin stream selection.
    fn next_stream(&mut self) -> usize {
        let s = self.stream_cursor;
        self.stream_cursor = (self.stream_cursor + 1) % self.timer.num_streams();
        s
    }

    /// Is `pid` cached, without touching recency or hit/miss counters?
    /// (The line-16 "cached on every target" predicate must not disturb
    /// the probes that follow.)
    pub fn contains(&self, pid: u64) -> bool {
        self.cache.contains(pid)
    }

    /// Probe the cache for `pid`: records the access, admits on miss,
    /// returns whether it hit.
    pub fn probe(&mut self, pid: u64) -> bool {
        self.cache.access(pid)
    }

    /// This lane's retry budget: attempts allowed per operation and the
    /// sim-time backoff between them. Without a fault plan exactly one
    /// attempt is made and it cannot be failed by injection.
    fn fault_policy(&self) -> (u32, SimDuration) {
        match &self.faults {
            Some(f) => (f.config().max_retries + 1, f.config().backoff),
            None => (1, SimDuration::ZERO),
        }
    }

    /// Launch `label` on `stream`, retrying injected launch faults with
    /// backoff. Every attempt — failed ones included — occupies the
    /// stream and consumes simulated time.
    fn kernel_with_retry(
        &mut self,
        stream: usize,
        cost: KernelCost,
        ready: SimTime,
        label: &str,
    ) -> Result<Scheduled, EngineError> {
        let (attempts, backoff) = self.fault_policy();
        let mut at = ready;
        for _ in 0..attempts {
            let faulted = self
                .faults
                .as_ref()
                .is_some_and(|f| f.gpu_launch_fault(self.index));
            if !faulted {
                return Ok(self.timer.stream_kernel(stream, cost, at, label));
            }
            self.launch_faults += 1;
            let s = self
                .timer
                .stream_kernel(stream, cost, at, &format!("{label}!"));
            at = s.end + backoff;
        }
        Err(EngineError::GpuFault {
            gpu: self.index,
            op: "kernel launch",
            attempts,
        })
    }

    /// Copy `bytes` H2D on `stream`, retrying injected copy faults with
    /// backoff; failed attempts pay the full transfer again.
    fn h2d_with_retry(
        &mut self,
        stream: usize,
        bytes: u64,
        ready: SimTime,
        label: &str,
    ) -> Result<Scheduled, EngineError> {
        let (attempts, backoff) = self.fault_policy();
        let mut at = ready;
        for _ in 0..attempts {
            let faulted = self
                .faults
                .as_ref()
                .is_some_and(|f| f.gpu_copy_fault(self.index));
            if !faulted {
                return Ok(self.timer.stream_h2d(stream, bytes, at, label));
            }
            self.copy_faults += 1;
            let s = self
                .timer
                .stream_h2d(stream, bytes, at, &format!("{label}!"));
            at = s.end + backoff;
        }
        Err(EngineError::GpuFault {
            gpu: self.index,
            op: "H2D copy",
            attempts,
        })
    }

    /// Launch a kernel on the next stream with its inputs already on the
    /// device (the cache-hit path, or a baseline's whole-graph kernel).
    /// Errs only when a fault plan's injected launch faults exhaust the
    /// retry budget.
    pub fn issue_kernel(
        &mut self,
        cost: KernelCost,
        ready: SimTime,
        label: &str,
    ) -> Result<Scheduled, EngineError> {
        let stream = self.next_stream();
        self.kernel_with_retry(stream, cost, ready, label)
    }

    /// Stream a page in and launch its kernel (the miss path, Fig. 2
    /// step 2): topology H2D, then the RA subvector if the program has
    /// one (`None` = program streams no RA; even a zero-byte RA copy
    /// costs a PCI-E latency), then the kernel — all program-ordered on
    /// one stream. Injected copy/launch faults are retried in place on
    /// the same stream; exhaustion errs.
    pub fn issue_streamed(
        &mut self,
        page_bytes: u64,
        ra_bytes: Option<u64>,
        cost: KernelCost,
        data_ready: SimTime,
    ) -> Result<Scheduled, EngineError> {
        let stream = self.next_stream();
        let c = self.h2d_with_retry(stream, page_bytes, data_ready, "SP/LP")?;
        let mut ready = c.end;
        if let Some(ra) = ra_bytes {
            ready = self.h2d_with_retry(stream, ra, ready, "RA")?.end;
        }
        self.kernel_with_retry(stream, cost, ready, "K")
    }

    /// Blocking chunk copy host→device (WA broadcast, Fig. 2 step 1).
    pub fn load_chunk(&mut self, bytes: u64, ready: SimTime) -> Scheduled {
        self.timer.chunk_h2d(bytes, ready)
    }

    /// Blocking chunk copy device→host (WA / bitmap write-back).
    pub fn write_back(&mut self, bytes: u64, ready: SimTime) -> Scheduled {
        self.timer.chunk_d2h(bytes, ready)
    }

    /// Peer-to-peer push to another GPU (Strategy-P's WA merge, Sec. 4.1).
    pub fn push_peer(&mut self, bytes: u64, ready: SimTime) -> Scheduled {
        self.timer.p2p_copy(bytes, ready)
    }

    /// When every engine on this GPU has drained.
    pub fn sync(&self) -> SimTime {
        self.timer.sync()
    }

    /// The underlying simulated timer (read-only statistics).
    pub fn timer(&self) -> &GpuTimer {
        &self.timer
    }

    /// The page cache (hit/miss/capacity statistics).
    pub fn cache(&self) -> &dyn CachePolicy {
        self.cache.as_ref()
    }

    /// Cache hits including those banked before checkpoint-boundary
    /// cache resets.
    pub fn cache_hits_total(&self) -> u64 {
        self.banked_cache_hits + self.cache.hits()
    }

    /// Cache misses including those banked before checkpoint-boundary
    /// cache resets.
    pub fn cache_misses_total(&self) -> u64 {
        self.banked_cache_misses + self.cache.misses()
    }

    /// Cache evictions including those banked before checkpoint-boundary
    /// cache resets.
    pub fn cache_evictions_total(&self) -> u64 {
        self.banked_cache_evictions + self.cache.evictions()
    }

    /// Drop rewritten pages from this lane's topology cache after a
    /// mutation batch: the cached copies are stale and the next probe
    /// must miss and re-stream. Returns how many of `pids` were resident.
    /// Hit/miss counters and the survivors' replacement bookkeeping are
    /// untouched (the [`CachePolicy::invalidate`] contract).
    pub fn invalidate_pages(&mut self, pids: &[u64]) -> u64 {
        let mut dropped = 0;
        for &pid in pids {
            if self.cache.invalidate(pid) {
                dropped += 1;
            }
        }
        dropped
    }

    /// Checkpoint-boundary reset. A resumed run rebuilds its page cache
    /// cold, so the checkpointing run itself must also go cold at every
    /// boundary or the two schedules diverge; the dying cache's hit/miss
    /// counters are banked first so run totals still add up. The
    /// round-robin stream cursor rewinds with it (it is not serialized).
    pub(crate) fn checkpoint_reset(&mut self, fresh: PageCache) {
        self.banked_cache_hits += self.cache.hits();
        self.banked_cache_misses += self.cache.misses();
        self.banked_cache_evictions += self.cache.evictions();
        self.cache = fresh;
        self.stream_cursor = 0;
    }

    /// Flush the lane's counters — timer statistics plus cache
    /// hits/misses/capacity — into `tel`'s registry as GPU `index`.
    pub fn flush_to(&self, tel: &Telemetry, index: u32) {
        self.timer.flush_to(tel, index);
        tel.add(
            keys::gpu(index, keys::GPU_CACHE_HITS),
            self.cache_hits_total(),
        );
        tel.add(
            keys::gpu(index, keys::GPU_CACHE_MISSES),
            self.cache_misses_total(),
        );
        tel.set(
            keys::gpu(index, keys::GPU_CACHE_CAPACITY_PAGES),
            self.cache.capacity() as u64,
        );
        // Zero deltas record nothing: fault-free runs emit no fault keys.
        tel.add(keys::gpu(index, keys::GPU_COPY_FAULTS), self.copy_faults);
        tel.add(
            keys::gpu(index, keys::GPU_LAUNCH_FAULTS),
            self.launch_faults,
        );
        // Per-tenant attribution, only for tagged (serve-mode) jobs:
        // solo runs keep their key set — and their goldens — unchanged.
        if let Some(tenant) = &self.tenant {
            tel.add(
                keys::tenant(tenant, keys::TENANT_CACHE_HITS),
                self.cache_hits_total(),
            );
            tel.add(
                keys::tenant(tenant, keys::TENANT_CACHE_MISSES),
                self.cache_misses_total(),
            );
            tel.add(
                keys::tenant(tenant, keys::TENANT_CACHE_EVICTIONS),
                self.cache_evictions_total(),
            );
            tel.add(
                keys::tenant(tenant, keys::TENANT_CACHE_BYTES_STREAMED),
                self.cache_misses_total() * self.page_size,
            );
        }
    }
}

impl std::fmt::Debug for GpuLane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GpuLane")
            .field("streams", &self.timer.num_streams())
            .field("cache_capacity", &self.cache.capacity())
            .field("stream_cursor", &self.stream_cursor)
            .finish()
    }
}

/// RA bytes that ride along with one streamed page: a Small Page carries
/// one attribute value per resident vertex; for a Large Page "RAj is a
/// subvector of a single attribute value" (Sec. 3.4).
pub fn ra_copy_bytes(kind: PageKind, vertex_count: usize, ra_bytes_per_vertex: u64) -> u64 {
    match kind {
        PageKind::Small => vertex_count as u64 * ra_bytes_per_vertex,
        PageKind::Large => ra_bytes_per_vertex,
    }
}

/// Copy `bytes` to every lane in parallel (each GPU has its own PCI-E
/// link) starting at `t`; returns when the slowest copy lands.
pub fn broadcast_wa(lanes: &mut [GpuLane], bytes: u64, t: SimTime) -> SimTime {
    let mut end = t;
    for lane in lanes.iter_mut() {
        end = end.max(lane.load_chunk(bytes, t).end);
    }
    end
}

#[cfg(test)]
mod tests {
    use super::*;
    use gts_gpu::timer::KernelClass;
    use gts_gpu::{GpuConfig, PcieConfig};

    fn lane(streams: usize) -> GpuLane {
        GpuLane::uncached(GpuTimer::new(
            GpuConfig::titan_x(),
            PcieConfig::gen3_x16(),
            streams,
        ))
    }

    fn cost(slots: u64) -> KernelCost {
        KernelCost {
            class: KernelClass::Compute,
            lane_slots: slots,
            atomic_ops: 0,
        }
    }

    #[test]
    fn kernels_round_robin_over_streams() {
        // Two streams, three equal kernels, all ready at t=0: k1 and k2
        // land on different streams (k2 need not wait for k1's stream),
        // and k3 wraps around to stream 0 — program order forces
        // k3.start >= k1.end.
        let mut lane = lane(2);
        let k1 = lane
            .issue_kernel(cost(1 << 20), SimTime::ZERO, "K")
            .unwrap();
        let k2 = lane
            .issue_kernel(cost(1 << 20), SimTime::ZERO, "K")
            .unwrap();
        let k3 = lane
            .issue_kernel(cost(1 << 20), SimTime::ZERO, "K")
            .unwrap();
        assert_eq!(k1.start, SimTime::ZERO);
        assert_eq!(k2.start, SimTime::ZERO, "second stream starts fresh");
        assert!(k3.start >= k1.end, "wrap-around queues behind stream 0");
    }

    #[test]
    fn ra_copy_sizing_differs_for_sp_and_lp() {
        // SP: one RA value per resident vertex. LP: a single subvector.
        assert_eq!(ra_copy_bytes(PageKind::Small, 100, 4), 400);
        assert_eq!(ra_copy_bytes(PageKind::Large, 100, 4), 4);
        assert_eq!(ra_copy_bytes(PageKind::Small, 7, 0), 0);
    }

    #[test]
    fn streamed_issue_orders_h2d_before_kernel() {
        let mut l = lane(4);
        let k = l
            .issue_streamed(1 << 16, Some(256), cost(1 << 10), SimTime::ZERO)
            .unwrap();
        assert!(k.start > SimTime::ZERO, "kernel waits for its copies");
        assert_eq!(l.timer().bytes_h2d(), (1 << 16) + 256);
        assert_eq!(l.timer().kernels(), 1);
        // No RA at all skips the copy; a zero-byte RA still pays latency.
        let mut bare = lane(4);
        let k_bare = bare
            .issue_streamed(1 << 16, None, cost(1 << 10), SimTime::ZERO)
            .unwrap();
        assert_eq!(bare.timer().bytes_h2d(), 1 << 16);
        let mut zero = lane(4);
        let k_zero = zero
            .issue_streamed(1 << 16, Some(0), cost(1 << 10), SimTime::ZERO)
            .unwrap();
        assert!(
            k_zero.start > k_bare.start,
            "zero-byte RA copy still costs a PCI-E latency"
        );
    }

    #[test]
    fn quiet_fault_plan_changes_nothing() {
        use gts_faults::{FaultConfig, FaultPlan};
        let mut plain = lane(2);
        let mut quiet = lane(2);
        quiet.attach_faults(FaultPlan::new(FaultConfig::quiet(7)));
        for _ in 0..4 {
            let a = plain
                .issue_streamed(1 << 14, Some(64), cost(1 << 10), SimTime::ZERO)
                .unwrap();
            let b = quiet
                .issue_streamed(1 << 14, Some(64), cost(1 << 10), SimTime::ZERO)
                .unwrap();
            assert_eq!(a, b, "zero-rate plan must not perturb the schedule");
        }
        assert_eq!(quiet.copy_faults, 0);
        assert_eq!(quiet.launch_faults, 0);
    }

    #[test]
    fn certain_faults_exhaust_retries_into_typed_errors() {
        use gts_faults::{FaultConfig, FaultPlan, PPM_SCALE};
        let cfg = FaultConfig {
            copy_fault_ppm: PPM_SCALE,
            launch_fault_ppm: 0,
            max_retries: 2,
            ..FaultConfig::quiet(1)
        };
        let mut l = lane(2);
        l.attach_faults(FaultPlan::new(cfg.clone()));
        match l.issue_streamed(1 << 14, None, cost(1 << 10), SimTime::ZERO) {
            Err(EngineError::GpuFault { gpu, op, attempts }) => {
                assert_eq!(gpu, 0);
                assert_eq!(op, "H2D copy");
                assert_eq!(attempts, 3);
            }
            other => panic!("expected GpuFault, got {other:?}"),
        }
        // Every failed attempt paid the full transfer on the timer.
        assert_eq!(l.timer().bytes_h2d(), 3 << 14);
        assert_eq!(l.copy_faults, 3);

        let mut k = lane(2);
        k.attach_faults(FaultPlan::new(FaultConfig {
            copy_fault_ppm: 0,
            launch_fault_ppm: PPM_SCALE,
            ..cfg
        }));
        match k.issue_kernel(cost(1 << 10), SimTime::ZERO, "K") {
            Err(EngineError::GpuFault { op, .. }) => assert_eq!(op, "kernel launch"),
            other => panic!("expected GpuFault, got {other:?}"),
        }
    }

    #[test]
    fn transient_launch_fault_is_retried_on_the_same_stream() {
        use gts_faults::{FaultConfig, FaultPlan};
        // Find a seed whose first launch draw faults and second does not;
        // the scan is deterministic, so the test is too.
        let mk = |seed| {
            FaultPlan::new(FaultConfig {
                launch_fault_ppm: 500_000,
                max_retries: 4,
                ..FaultConfig::quiet(seed)
            })
        };
        let seed = (0..64)
            .find(|&s| {
                let probe = mk(s);
                probe.gpu_launch_fault(0) && !probe.gpu_launch_fault(0)
            })
            .expect("some seed faults once then heals");
        let mut l = lane(2);
        l.attach_faults(mk(seed));
        let healthy = lane(2)
            .issue_kernel(cost(1 << 12), SimTime::ZERO, "K")
            .unwrap();
        let k = l.issue_kernel(cost(1 << 12), SimTime::ZERO, "K").unwrap();
        assert_eq!(l.launch_faults, 1);
        assert_eq!(l.timer().kernels(), 2, "failed attempt also launched");
        assert!(
            k.start > healthy.end,
            "retry waits out the failed attempt plus backoff"
        );
    }

    #[test]
    fn uncached_lane_always_misses() {
        let mut l = lane(1);
        assert!(!l.probe(42));
        assert!(!l.probe(42), "capacity 0 admits nothing");
        assert!(!l.contains(42));
        assert_eq!(l.cache().misses(), 2);
    }

    #[test]
    fn broadcast_returns_the_slowest_lane() {
        let mut lanes = vec![lane(1), lane(1)];
        // Pre-load one lane so its chunk engine is busy.
        lanes[0].load_chunk(1 << 24, SimTime::ZERO);
        let t = broadcast_wa(&mut lanes, 1 << 20, SimTime::ZERO);
        let ends: Vec<SimTime> = lanes.iter().map(|l| l.sync()).collect();
        assert_eq!(t, *ends.iter().max().unwrap());
    }
}
