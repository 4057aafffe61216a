//! The timed layer: CUDA-like streams over copy and compute engines.
//!
//! Models the transfer/execution overlap the paper's design exploits
//! (Sec. 3.2, Figures 3/4/10):
//!
//! * One **H2D copy engine** and one **D2H copy engine** per GPU — transfer
//!   operations "cannot overlap with each other … instead, they can overlap
//!   with kernel execution" (Sec. 3.2, citing the CUDA stream docs).
//! * One **compute engine** with up to `max_concurrent_kernels` (32) in
//!   flight — the CUDA limit the paper cites. A streamed page is far too
//!   small to saturate the whole GPU, so concurrent page-kernels genuinely
//!   multiply throughput; this is the mechanism that lets PageRank become
//!   transfer-bound (the Sec. 7.5 arithmetic: RMAT30's ten iterations ≈
//!   `114 GB × 10 ÷ 6 GB/s`) and that gives Fig. 10 its gain up to 32
//!   streams.
//! * **Streams** impose program order: an operation in stream *s* may not
//!   begin before the previous operation in *s* finished — which is also
//!   what makes per-stream SPBuf/RABuf slots safe to reuse.
//! * **Launch-overhead hiding**: a kernel submitted while the compute
//!   engine is still busy was already "prepared in the queues of GPU in
//!   advance" (Sec. 3.2) and skips the launch overhead; a kernel the engine
//!   had to idle-wait for pays it. This is the mechanism behind Fig. 10's
//!   benefit from deeper stream counts.

use crate::config::{GpuConfig, PcieConfig};
use gts_sim::resource::Scheduled;
use gts_sim::{Resource, SimDuration, SimTime};
use gts_telemetry::{keys, SpanCat, Telemetry, Track};

/// Kernel cost class: which per-slot / per-atomic rates apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelClass {
    /// Memory-bound traversal kernels (BFS, SSSP, CC, BC).
    Traversal,
    /// Arithmetic-heavy kernels (PageRank-like).
    Compute,
}

/// Work observed by the functional execution of one kernel launch, used to
/// derive its simulated duration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelCost {
    /// Cost class.
    pub class: KernelClass,
    /// Warp lane-slots consumed (see [`crate::warp`]).
    pub lane_slots: u64,
    /// Atomic updates performed.
    pub atomic_ops: u64,
}

impl KernelCost {
    /// Simulated execution duration under `cfg` (excluding launch overhead).
    pub fn duration(&self, cfg: &GpuConfig) -> SimDuration {
        let (slot_ns, atomic_ns) = match self.class {
            KernelClass::Traversal => (cfg.traversal_slot_ns, cfg.traversal_atomic_ns),
            KernelClass::Compute => (cfg.compute_slot_ns, cfg.compute_atomic_ns),
        };
        SimDuration::from_secs_f64(
            (self.lane_slots as f64 * slot_ns + self.atomic_ops as f64 * atomic_ns) / 1e9,
        )
    }
}

/// Per-GPU simulated clock: engines, stream chains, transfer statistics.
#[derive(Debug)]
pub struct GpuTimer {
    cfg: GpuConfig,
    pcie: PcieConfig,
    h2d: Resource,
    d2h: Resource,
    p2p: Resource,
    compute: Resource,
    stream_tail: Vec<SimTime>,
    telemetry: Telemetry,
    pid: u32,
    spans: bool,
    stalls: u64,
    bytes_h2d: u64,
    bytes_d2h: u64,
    bytes_p2p: u64,
    kernel_time: SimDuration,
    transfer_time: SimDuration,
    kernels: u64,
    hidden_launches: u64,
}

impl GpuTimer {
    /// A timer for one GPU with `num_streams` CUDA-like streams.
    ///
    /// # Panics
    /// Panics if `num_streams` is zero.
    pub fn new(cfg: GpuConfig, pcie: PcieConfig, num_streams: usize) -> Self {
        assert!(num_streams > 0, "need at least one stream");
        GpuTimer {
            h2d: Resource::new("h2d", 1),
            d2h: Resource::new("d2h", 1),
            p2p: Resource::new("p2p", 1),
            compute: Resource::new("compute", cfg.max_concurrent_kernels.max(1)),
            stream_tail: vec![SimTime::ZERO; num_streams],
            telemetry: Telemetry::new(),
            pid: 0,
            spans: false,
            stalls: 0,
            bytes_h2d: 0,
            bytes_d2h: 0,
            bytes_p2p: 0,
            kernel_time: SimDuration::ZERO,
            transfer_time: SimDuration::ZERO,
            kernels: 0,
            hidden_launches: 0,
            cfg,
            pcie,
        }
    }

    /// Share `tel` as this timer's recording surface, drawing spans under
    /// process `pid::gpu(gpu_index)` (Fig. 3/4-style profiles when `tel`
    /// has spans enabled). Registers the track names so exported traces
    /// label the copy engines and streams.
    pub fn attach_telemetry(&mut self, tel: Telemetry, gpu_index: u32) {
        self.pid = keys::pid::gpu(gpu_index);
        self.spans = tel.spans_enabled();
        if self.spans {
            tel.name_process(self.pid, format!("GPU {gpu_index}"));
            tel.name_thread(Track::new(self.pid, keys::tid::H2D), "h2d");
            tel.name_thread(Track::new(self.pid, keys::tid::D2H), "d2h");
            tel.name_thread(Track::new(self.pid, keys::tid::P2P), "p2p");
            for s in 0..self.stream_tail.len() {
                tel.name_thread(
                    Track::new(self.pid, keys::tid::stream(s)),
                    format!("stream{s}"),
                );
            }
        }
        self.telemetry = tel;
    }

    /// Flush this timer's counters into `tel`'s registry under GPU
    /// `gpu_index`'s scope plus the global aggregates.
    pub fn flush_to(&self, tel: &Telemetry, gpu_index: u32) {
        let i = gpu_index;
        tel.add(keys::gpu(i, keys::GPU_BYTES_H2D), self.bytes_h2d);
        tel.add(keys::gpu(i, keys::GPU_BYTES_D2H), self.bytes_d2h);
        tel.add(keys::gpu(i, keys::GPU_BYTES_P2P), self.bytes_p2p);
        tel.add(
            keys::gpu(i, keys::GPU_KERNEL_TIME_NS),
            self.kernel_time.as_nanos(),
        );
        tel.add(
            keys::gpu(i, keys::GPU_TRANSFER_TIME_NS),
            self.transfer_time.as_nanos(),
        );
        tel.add(keys::gpu(i, keys::GPU_KERNELS), self.kernels);
        tel.add(
            keys::gpu(i, keys::GPU_HIDDEN_LAUNCHES),
            self.hidden_launches,
        );
        tel.add(keys::KERNEL_LAUNCHES, self.kernels);
        tel.add(keys::STREAM_STALLS, self.stalls);
    }

    /// GPU configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// PCI-E link configuration.
    pub fn pcie(&self) -> &PcieConfig {
        &self.pcie
    }

    /// Number of streams.
    pub fn num_streams(&self) -> usize {
        self.stream_tail.len()
    }

    /// Blocking chunk copy host→device at rate `c1` (the initial WA copy,
    /// Fig. 2 step 1). Not bound to a stream.
    pub fn chunk_h2d(&mut self, bytes: u64, ready: SimTime) -> Scheduled {
        self.bytes_h2d += bytes;
        let dur = self.pcie.latency + self.pcie.chunk_bw.transfer_time(bytes);
        self.transfer_time += dur;
        let s = self.h2d.submit(ready, dur);
        self.record(keys::tid::H2D, "chunk WA", SpanCat::Copy, s);
        s
    }

    /// Blocking chunk copy device→host at rate `c1` (WA write-back,
    /// Fig. 2 step 3).
    pub fn chunk_d2h(&mut self, bytes: u64, ready: SimTime) -> Scheduled {
        self.bytes_d2h += bytes;
        let dur = self.pcie.latency + self.pcie.chunk_bw.transfer_time(bytes);
        self.transfer_time += dur;
        let s = self.d2h.submit(ready, dur);
        self.record(keys::tid::D2H, "chunk WA", SpanCat::Copy, s);
        s
    }

    /// Asynchronous streamed copy host→device at rate `c2`, ordered after
    /// the previous operation in `stream` (SPj/RAj transfers, Fig. 2 step 2).
    pub fn stream_h2d(
        &mut self,
        stream: usize,
        bytes: u64,
        ready: SimTime,
        label: &str,
    ) -> Scheduled {
        let stream = stream % self.stream_tail.len();
        self.bytes_h2d += bytes;
        let ready = ready.max(self.stream_tail[stream]);
        let dur = self.pcie.latency + self.pcie.stream_bw.transfer_time(bytes);
        self.transfer_time += dur;
        let s = self.h2d.submit(ready, dur);
        if s.start > ready {
            self.stalls += 1;
        }
        self.stream_tail[stream] = s.end;
        self.record(keys::tid::stream(stream), label, SpanCat::Copy, s);
        s
    }

    /// Launch a kernel in `stream`; `ready` is when its inputs are on the
    /// device. Launch overhead is hidden iff the compute engine is still
    /// busy when the kernel becomes ready (it was queued in advance).
    pub fn stream_kernel(
        &mut self,
        stream: usize,
        cost: KernelCost,
        ready: SimTime,
        label: &str,
    ) -> Scheduled {
        let stream = stream % self.stream_tail.len();
        let ready = ready.max(self.stream_tail[stream]);
        let work = cost.duration(&self.cfg);
        // Launch overhead is hidden only when the kernel had to queue
        // anyway — i.e. every compute slot was still busy when its inputs
        // landed, so the driver prepared it "in the queues of GPU in
        // advance" (Sec. 3.2). If a slot was free, the device idled
        // through the launch latency.
        let mut dur = work;
        if ready < self.compute.earliest_free() {
            // Every slot still busy at `ready`: the kernel queued, its
            // launch latency overlapped with running work.
            self.hidden_launches += 1;
        } else {
            dur += self.cfg.launch_overhead;
        }
        // kernel_time is pure execution work (Table 1's denominator);
        // launch overhead is pipeline friction, not kernel service.
        self.kernel_time += work;
        self.kernels += 1;
        let s = self.compute.submit(ready, dur);
        if s.start > ready {
            self.stalls += 1;
        }
        self.stream_tail[stream] = s.end;
        self.record(keys::tid::stream(stream), label, SpanCat::Kernel, s);
        s
    }

    /// Peer-to-peer copy to another GPU (Strategy-P's WA merge, Sec. 4.1).
    /// Scheduled on this (source) GPU's P2P engine.
    pub fn p2p_copy(&mut self, bytes: u64, ready: SimTime) -> Scheduled {
        self.bytes_p2p += bytes;
        let dur = self.pcie.latency + self.pcie.p2p_bw.transfer_time(bytes);
        let s = self.p2p.submit(ready, dur);
        self.record(keys::tid::P2P, "WA merge", SpanCat::Copy, s);
        s
    }

    /// Total bytes copied peer-to-peer to other GPUs (tracked separately
    /// from the PCI-E host-link statistics: it is a different bus).
    pub fn bytes_p2p(&self) -> u64 {
        self.bytes_p2p
    }

    /// Device-wide synchronisation point: when everything submitted so far
    /// has completed.
    pub fn sync(&self) -> SimTime {
        let engines = self
            .h2d
            .drain_time()
            .max(self.d2h.drain_time())
            .max(self.p2p.drain_time())
            .max(self.compute.drain_time());
        self.stream_tail.iter().copied().fold(engines, SimTime::max)
    }

    /// Total bytes copied host→device.
    pub fn bytes_h2d(&self) -> u64 {
        self.bytes_h2d
    }

    /// Total bytes copied device→host.
    pub fn bytes_d2h(&self) -> u64 {
        self.bytes_d2h
    }

    /// Accumulated kernel service time (Table 1's denominator).
    pub fn kernel_time(&self) -> SimDuration {
        self.kernel_time
    }

    /// Accumulated transfer service time (Table 1's numerator).
    pub fn transfer_time(&self) -> SimDuration {
        self.transfer_time
    }

    /// Kernels launched.
    pub fn kernels(&self) -> u64 {
        self.kernels
    }

    /// Kernels whose launch overhead was hidden by queue-ahead.
    pub fn hidden_launches(&self) -> u64 {
        self.hidden_launches
    }

    /// Stream operations whose start was delayed past their ready time by
    /// a busy copy/compute engine.
    pub fn stalls(&self) -> u64 {
        self.stalls
    }

    fn record(&self, tid: u32, label: &str, cat: SpanCat, s: Scheduled) {
        if self.spans {
            self.telemetry
                .record_span(Track::new(self.pid, tid), cat, label, s.start, s.end);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gts_sim::Bandwidth;

    fn timer(streams: usize) -> GpuTimer {
        let mut cfg = GpuConfig::titan_x();
        cfg.launch_overhead = SimDuration::from_micros(10);
        let pcie = PcieConfig {
            chunk_bw: Bandwidth::bytes_per_sec(2_000_000_000),
            stream_bw: Bandwidth::bytes_per_sec(1_000_000_000),
            p2p_bw: Bandwidth::bytes_per_sec(4_000_000_000),
            latency: SimDuration::ZERO,
        };
        GpuTimer::new(cfg, pcie, streams)
    }

    fn cost_ns(ns: u64) -> KernelCost {
        // Traversal slots at 0.6 ns each: pick slots so duration ≈ ns.
        KernelCost {
            class: KernelClass::Traversal,
            lane_slots: (ns as f64 / 0.6) as u64,
            atomic_ops: 0,
        }
    }

    #[test]
    fn chunk_copies_use_c1_streamed_use_c2() {
        let mut t = timer(1);
        let a = t.chunk_h2d(1_000_000_000, SimTime::ZERO);
        assert_eq!((a.end - a.start).as_nanos(), 500_000_000); // c1 = 2 GB/s
        let b = t.stream_h2d(0, 1_000_000_000, a.end, "SP");
        assert_eq!((b.end - b.start).as_nanos(), 1_000_000_000); // c2 = 1 GB/s
    }

    #[test]
    fn stream_order_is_preserved() {
        let mut t = timer(2);
        let c = t.stream_h2d(0, 1_000, SimTime::ZERO, "SP1");
        let k = t.stream_kernel(0, cost_ns(5_000), c.end, "K1");
        assert!(k.start >= c.end);
        // Next copy in the same stream waits for the kernel (SPBuf reuse).
        let c2 = t.stream_h2d(0, 1_000, SimTime::ZERO, "SP2");
        assert!(c2.start >= k.end);
    }

    #[test]
    fn two_streams_overlap_copy_with_kernel() {
        let mut t = timer(2);
        // Stream 0: copy then long kernel.
        let c0 = t.stream_h2d(0, 1_000_000, SimTime::ZERO, "SP1");
        let k0 = t.stream_kernel(0, cost_ns(10_000_000), c0.end, "K1");
        // Stream 1's copy proceeds during stream 0's kernel.
        let c1 = t.stream_h2d(1, 1_000_000, SimTime::ZERO, "SP2");
        assert!(c1.start < k0.end, "copy must overlap kernel execution");
        assert!(c1.start >= c0.end, "copies serialise on the copy engine");
    }

    #[test]
    fn launch_overhead_hidden_only_when_all_slots_busy() {
        // Wide engine: a kernel arriving while slots sit free pays the
        // launch latency (the device idle-waited for it).
        let mut t = timer(2);
        let c0 = t.stream_h2d(0, 1_000_000, SimTime::ZERO, "SP1");
        let k0 = t.stream_kernel(0, cost_ns(50_000_000), c0.end, "K1");
        assert_eq!(
            (k0.end - k0.start).as_nanos(),
            cost_ns(50_000_000).duration(t.config()).as_nanos() + 10_000
        );
        let c1 = t.stream_h2d(1, 1_000_000, SimTime::ZERO, "SP2");
        let k1 = t.stream_kernel(1, cost_ns(50_000_000), c1.end, "K2");
        // 31 slots free at k1's ready time: it starts immediately but pays
        // the launch overhead too.
        assert_eq!(k1.start, c1.end);
        assert_eq!(
            (k1.end - k1.start).as_nanos(),
            cost_ns(50_000_000).duration(t.config()).as_nanos() + 10_000
        );
        assert_eq!(t.hidden_launches(), 0);

        // Narrow engine (1 slot): a kernel that becomes ready while the
        // slot is still busy was queued in advance — overhead hidden.
        let mut cfg = GpuConfig::titan_x();
        cfg.launch_overhead = SimDuration::from_micros(10);
        cfg.max_concurrent_kernels = 1;
        let pcie = PcieConfig {
            chunk_bw: Bandwidth::bytes_per_sec(2_000_000_000),
            stream_bw: Bandwidth::bytes_per_sec(1_000_000_000),
            p2p_bw: Bandwidth::bytes_per_sec(4_000_000_000),
            latency: SimDuration::ZERO,
        };
        let mut t = GpuTimer::new(cfg, pcie, 2);
        let c0 = t.stream_h2d(0, 1_000_000, SimTime::ZERO, "SP1");
        let k0 = t.stream_kernel(0, cost_ns(50_000_000), c0.end, "K1");
        let c1 = t.stream_h2d(1, 1_000_000, SimTime::ZERO, "SP2");
        let k1 = t.stream_kernel(1, cost_ns(50_000_000), c1.end, "K2");
        assert_eq!(k1.start, k0.end, "kernels serialise on the single slot");
        assert_eq!(
            (k1.end - k1.start).as_nanos(),
            cost_ns(50_000_000).duration(t.config()).as_nanos(),
            "queued kernel skips the launch overhead"
        );
        assert_eq!(t.hidden_launches(), 1);
        // kernel_time tracks execution work only, never launch overhead.
        assert_eq!(
            t.kernel_time().as_nanos(),
            2 * cost_ns(50_000_000).duration(t.config()).as_nanos()
        );
    }

    #[test]
    fn concurrency_caps_at_max_concurrent_kernels() {
        let mut cfg = GpuConfig::titan_x();
        cfg.max_concurrent_kernels = 2;
        cfg.launch_overhead = SimDuration::ZERO;
        let pcie = PcieConfig::gen3_x16();
        let mut t = GpuTimer::new(cfg, pcie, 4);
        let a = t.stream_kernel(0, cost_ns(1_000_000), SimTime::ZERO, "K");
        let b = t.stream_kernel(1, cost_ns(1_000_000), SimTime::ZERO, "K");
        let c = t.stream_kernel(2, cost_ns(1_000_000), SimTime::ZERO, "K");
        assert_eq!(a.start, b.start, "two kernels fit");
        assert!(c.start >= a.end, "the third waits for a slot");
    }

    #[test]
    fn more_streams_reduce_makespan() {
        // 16 pages, kernel ≈ transfer: 1 stream serialises, 4 pipeline.
        let run = |streams: usize| {
            let mut t = timer(streams);
            for j in 0..16 {
                let c = t.stream_h2d(j % streams, 1_000_000, SimTime::ZERO, "SP");
                t.stream_kernel(j % streams, cost_ns(1_000_000), c.end, "K");
            }
            t.sync()
        };
        let one = run(1);
        let four = run(4);
        assert!(
            four < one,
            "4 streams ({four:?}) must beat 1 stream ({one:?})"
        );
    }

    #[test]
    fn compute_class_costs_more_than_traversal() {
        let cfg = GpuConfig::titan_x();
        let c = KernelCost {
            class: KernelClass::Compute,
            lane_slots: 1000,
            atomic_ops: 1000,
        };
        let tr = KernelCost {
            class: KernelClass::Traversal,
            lane_slots: 1000,
            atomic_ops: 1000,
        };
        assert!(c.duration(&cfg) > tr.duration(&cfg));
    }

    #[test]
    fn sync_covers_every_engine() {
        let mut t = timer(1);
        let a = t.chunk_h2d(1_000, SimTime::ZERO);
        let b = t.p2p_copy(1_000_000_000, a.end);
        assert_eq!(t.sync(), b.end);
    }

    #[test]
    fn statistics_accumulate() {
        let mut t = timer(2);
        t.chunk_h2d(100, SimTime::ZERO);
        t.stream_h2d(0, 50, SimTime::ZERO, "SP");
        t.chunk_d2h(25, SimTime::ZERO);
        t.stream_kernel(0, cost_ns(1000), SimTime::ZERO, "K");
        assert_eq!(t.bytes_h2d(), 150);
        assert_eq!(t.bytes_d2h(), 25);
        assert_eq!(t.kernels(), 1);
        assert!(t.kernel_time() > SimDuration::ZERO);
        assert!(t.transfer_time() > SimDuration::ZERO);
    }

    #[test]
    fn spans_record_when_telemetry_attached() {
        let mut t = timer(2);
        let tel = Telemetry::with_spans();
        t.attach_telemetry(tel.clone(), 0);
        let c = t.stream_h2d(0, 1_000, SimTime::ZERO, "SP1");
        t.stream_kernel(0, cost_ns(1_000), c.end, "K1");
        assert_eq!(tel.span_count(), 2);
        let spans = tel.spans();
        assert_eq!(spans[0].cat, SpanCat::Copy);
        assert_eq!(spans[1].cat, SpanCat::Kernel);
        assert_eq!(spans[0].track, Track::new(0, keys::tid::stream(0)));
    }

    #[test]
    fn counters_flush_into_the_registry() {
        let mut t = timer(2);
        let tel = Telemetry::new();
        t.chunk_h2d(100, SimTime::ZERO);
        let c = t.stream_h2d(0, 50, SimTime::ZERO, "SP");
        t.stream_kernel(0, cost_ns(1000), c.end, "K");
        t.flush_to(&tel, 3);
        assert_eq!(tel.counter(keys::gpu(3, keys::GPU_BYTES_H2D)), 150);
        assert_eq!(tel.counter(keys::gpu(3, keys::GPU_KERNELS)), 1);
        assert_eq!(tel.counter(keys::KERNEL_LAUNCHES), 1);
        assert_eq!(
            tel.counter(keys::gpu(3, keys::GPU_KERNEL_TIME_NS)),
            t.kernel_time().as_nanos()
        );
    }

    #[test]
    #[should_panic(expected = "at least one stream")]
    fn zero_streams_rejected() {
        let _ = timer(0);
    }
}
