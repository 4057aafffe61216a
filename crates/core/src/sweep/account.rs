//! Stage 4 — accounting: phase B of a sweep.
//!
//! Consumes the page outcomes of [`crate::sweep::kernels`] in page order
//! and charges their simulated cost: the Alg. 1 line-16 cache check, the
//! storage/MMBuf fetch via the [`PageSource`], the per-target kernel or
//! H2D+RA+kernel issue on each [`GpuLane`], then the sweep barrier
//! (line 27), the nextPIDSet/cachedPIDMap write-back (lines 29-30), the
//! WA synchronisation, and the per-sweep telemetry.
//!
//! Phase B is one serial pass in page order. Everything it touches is
//! globally ordered simulated state — the lanes' page caches (hits,
//! recency, evictions), MMBuf/storage readiness, the per-lane copy and
//! kernel issue, every fault decision — so there is nothing to fan out:
//! simulated time, counters, and traces are identical for every
//! `host_threads` setting because no host thread but this one is
//! involved. Fanning the merge or the probes out across workers was
//! measured at 0.98–1.07× of this loop (DESIGN.md §11), so it is not done.

use crate::engine::EngineError;
use crate::report::SweepStats;
use crate::strategy::Strategy;
use crate::sweep::ingest::PageSource;
use crate::sweep::kernels::PageOutcome;
use crate::sweep::schedule::{self, GpuLane};
use gts_gpu::timer::{KernelClass, KernelCost};
use gts_sim::SimTime;
use gts_storage::builder::GraphStore;
use gts_telemetry::{keys, SpanCat, Telemetry, Track};
use std::collections::BTreeSet;

/// Sweep-invariant inputs of the accounting pass.
pub(crate) struct AccountCtx<'a> {
    /// The graph being processed.
    pub store: &'a GraphStore,
    /// Multi-GPU page placement (`h(j)`).
    pub strategy: Strategy,
    /// Number of GPUs (the strategy's `N`).
    pub num_gpus: usize,
    /// Bytes per topology page.
    pub page_size: u64,
    /// RA bytes per vertex the program streams alongside topology.
    pub ra_bytes_per_vertex: u64,
    /// The program's kernel cost class.
    pub class: KernelClass,
    /// The run's telemetry registry.
    pub tel: &'a Telemetry,
    /// Whether spans are recorded (cache-probe markers).
    pub spans: bool,
}

/// Accumulator for one sweep's accounting across both phases.
pub(crate) struct SweepAccounting {
    /// Global `nextPIDSet` for the following sweep (deduplicated).
    pub next: BTreeSet<u64>,
    /// Did any kernel update an attribute this sweep?
    pub any_update: bool,
    /// Per-sweep statistics (pages, hits, active vertices/edges).
    pub stats: SweepStats,
    /// Edges traversed this sweep.
    pub edges: u64,
    sweep_start: SimTime,
}

impl SweepAccounting {
    /// Start accounting a sweep whose streaming begins at `sweep_start`.
    pub fn new(sweep_start: SimTime) -> SweepAccounting {
        SweepAccounting {
            next: BTreeSet::new(),
            any_update: false,
            stats: SweepStats::default(),
            edges: 0,
            sweep_start,
        }
    }

    /// Account one phase's pages, in page order: fold each kernel
    /// outcome into the sweep totals, probe the target lanes' caches
    /// (line 16 first!), resolve data readiness through the source, then
    /// issue the per-target copies and kernels on the lanes. This is
    /// also where every fault decision is made — a fetch or issue that
    /// exhausts its retries aborts the run with a typed error.
    pub fn account_phase(
        &mut self,
        ctx: &AccountCtx<'_>,
        lanes: &mut [GpuLane],
        source: &mut dyn PageSource,
        pids: &[u64],
        outcomes: &[PageOutcome],
    ) -> Result<(), EngineError> {
        let mut pid_hits: Vec<bool> = Vec::with_capacity(lanes.len());
        for (&pid, outcome) in pids.iter().zip(outcomes) {
            let work = &outcome.work;
            self.edges += work.active_edges;
            self.stats.active_vertices += work.active_vertices;
            self.stats.active_edges += work.active_edges;
            self.any_update |= work.updated;
            self.next.extend(outcome.next_pids.iter().copied());

            let view = ctx.store.view(pid);
            let targets = ctx.strategy.targets(pid, ctx.num_gpus);
            let fanout = targets.len() as u64;
            // Algorithm 1 checks cachedPIDMap BEFORE touching storage
            // (line 16 precedes lines 18-26): a page every target GPU
            // already caches must not generate SSD traffic or MMBuf
            // churn. A probe hits iff the page was resident before it,
            // so ANDing the per-target hits IS the line-16 pre-check.
            pid_hits.clear();
            pid_hits.extend(targets.clone().map(|gi| lanes[gi].probe(pid)));
            let all_cached = pid_hits.iter().all(|&hit| hit);
            let page = ctx.store.page(pid);
            let data_ready = source.page_ready(pid, page, all_cached, self.sweep_start)?;
            for (ti, gi) in targets.enumerate() {
                let cost = KernelCost {
                    class: ctx.class,
                    lane_slots: work.lane_slots,
                    atomic_ops: per_target_atomic_ops(work.atomic_ops, fanout, ti),
                };
                self.stats.pages += 1;
                let hit = pid_hits[ti];
                if ctx.spans {
                    // Zero-duration marker: cache probes are bookkeeping,
                    // not time, but they explain why a page did (not)
                    // generate PCI-E traffic.
                    ctx.tel.record_span(
                        Track::new(keys::pid::ENGINE, 1),
                        SpanCat::Cache,
                        format!("{} p{pid} g{gi}", if hit { "hit" } else { "miss" }),
                        self.sweep_start,
                        self.sweep_start,
                    );
                }
                let lane = &mut lanes[gi];
                if hit {
                    self.stats.cache_hits += 1;
                    lane.issue_kernel(cost, self.sweep_start, "K(cached)")?;
                } else {
                    let ra_bytes = (ctx.ra_bytes_per_vertex > 0).then(|| {
                        schedule::ra_copy_bytes(
                            view.kind(),
                            view.count() as usize,
                            ctx.ra_bytes_per_vertex,
                        )
                    });
                    lane.issue_streamed(ctx.page_size, ra_bytes, cost, data_ready)?;
                }
            }
        }
        Ok(())
    }
}

/// The sweep barrier (Alg. 1 line 27): all GPUs finish before `t` moves on.
pub(crate) fn barrier(lanes: &[GpuLane], t: SimTime) -> SimTime {
    lanes.iter().fold(t, |t, lane| t.max(lane.sync()))
}

/// Copy nextPIDSet / cachedPIDMap back (Alg. 1 lines 29-30): one small
/// bitmap pair per GPU, all starting at the barrier.
pub(crate) fn frontier_copy_back(lanes: &mut [GpuLane], num_pages: u64, t: SimTime) -> SimTime {
    let bitmap_bytes = num_pages.div_ceil(8).max(1);
    let start = t;
    let mut end = t;
    for lane in lanes.iter_mut() {
        let s = lane.write_back(2 * bitmap_bytes, start);
        end = end.max(s.end);
    }
    end
}

/// WA write-back: Strategy-P merges replicas peer-to-peer onto the master
/// GPU and copies once (Fig. 5a steps 3-4); the naive variant and
/// Strategy-S perform N direct copies, which contend on the host side and
/// therefore chain (Sec. 4.2).
pub(crate) fn sync_wa(
    lanes: &mut [GpuLane],
    strategy: Strategy,
    p2p_sync: bool,
    per_gpu_bytes: u64,
    t: SimTime,
) -> SimTime {
    if lanes.len() == 1 {
        return lanes[0].write_back(per_gpu_bytes, t).end.max(t);
    }
    match (strategy, p2p_sync) {
        (Strategy::Performance, true) => {
            // Peer-to-peer merge: every non-master GPU pushes its WA to
            // the master in parallel on its own P2P engine...
            let mut merged = t;
            for lane in lanes.iter_mut().skip(1) {
                merged = merged.max(lane.push_peer(per_gpu_bytes, t).end);
            }
            // ...then one chunk copy to host.
            lanes[0].write_back(per_gpu_bytes, merged).end
        }
        _ => {
            // Naive: N serialised GPU→host copies (host-side WA buffer is
            // shared, so the writes contend).
            let mut end = t;
            for lane in lanes.iter_mut() {
                end = lane.write_back(per_gpu_bytes, end).end;
            }
            end
        }
    }
}

/// Record one sweep's telemetry. One definition of a sweep's extent,
/// shared by the counter registry and the trace: `sweep_wall..t` brackets
/// Alg. 1 lines 13-30 — the per-sweep WA broadcast, page streaming and
/// kernels, the barrier, and the nextPIDSet/cachedPIDMap/WA write-backs.
/// `SWEEP_ELAPSED_NS` and the sweep span are set from the same two
/// instants, so trace and registry agree.
pub(crate) fn emit_sweep(
    tel: &Telemetry,
    spans: bool,
    sweep: u32,
    stats: &SweepStats,
    sweep_wall: SimTime,
    t: SimTime,
) {
    tel.add(keys::sweep(sweep, keys::SWEEP_PAGES), stats.pages);
    tel.add(keys::sweep(sweep, keys::SWEEP_CACHE_HITS), stats.cache_hits);
    tel.add(
        keys::sweep(sweep, keys::SWEEP_ACTIVE_VERTICES),
        stats.active_vertices,
    );
    tel.add(
        keys::sweep(sweep, keys::SWEEP_ACTIVE_EDGES),
        stats.active_edges,
    );
    tel.set(
        keys::sweep(sweep, keys::SWEEP_ELAPSED_NS),
        stats.elapsed.as_nanos(),
    );
    if spans {
        tel.record_span(
            Track::new(keys::pid::ENGINE, 0),
            SpanCat::Sweep,
            format!("sweep {sweep}"),
            sweep_wall,
            t,
        );
    }
}

/// Split `total` atomic operations across `fanout` replica GPUs so the
/// per-target shares always sum back to `total`: every target gets the
/// truncated quotient and the first `total % fanout` targets one extra op.
/// (Truncating division alone under-accounted atomic work whenever the
/// fanout did not divide it — 7 atomics across 2 GPUs silently lost one.)
pub fn per_target_atomic_ops(total: u64, fanout: u64, target_index: usize) -> u64 {
    let fanout = fanout.max(1);
    total / fanout + u64::from((target_index as u64) < total % fanout)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gts_gpu::timer::GpuTimer;
    use gts_gpu::{GpuConfig, PcieConfig};

    #[test]
    fn per_target_atomic_ops_sum_to_the_total_for_odd_fanouts() {
        for total in [0u64, 1, 6, 7, 13, 101, 1_000_003] {
            for fanout in [1u64, 2, 3, 4, 5, 7, 16] {
                let shares: Vec<u64> = (0..fanout as usize)
                    .map(|ti| per_target_atomic_ops(total, fanout, ti))
                    .collect();
                assert_eq!(
                    shares.iter().sum::<u64>(),
                    total,
                    "total={total} fanout={fanout} shares={shares:?}"
                );
                // The split is as even as possible: shares differ by <= 1.
                let max = shares.iter().max().unwrap();
                let min = shares.iter().min().unwrap();
                assert!(max - min <= 1, "uneven split {shares:?}");
            }
        }
        // The truncating-division bug this replaces: 7 across 2 lost an op.
        assert_eq!(
            per_target_atomic_ops(7, 2, 0) + per_target_atomic_ops(7, 2, 1),
            7
        );
        // Degenerate fanout 0 is clamped, not a division fault.
        assert_eq!(per_target_atomic_ops(5, 0, 0), 5);
    }

    fn lanes(n: usize) -> Vec<GpuLane> {
        (0..n)
            .map(|_| {
                GpuLane::uncached(GpuTimer::new(
                    GpuConfig::titan_x(),
                    PcieConfig::gen3_x16(),
                    4,
                ))
            })
            .collect()
    }

    #[test]
    fn p2p_sync_merges_then_copies_once() {
        let bytes = 1 << 24;
        let mut p2p = lanes(4);
        let p2p_end = sync_wa(&mut p2p, Strategy::Performance, true, bytes, SimTime::ZERO);
        // Non-master lanes pushed their WA peer-to-peer; only the master
        // copied to host.
        for lane in &p2p[1..] {
            assert_eq!(lane.timer().bytes_p2p(), bytes);
            assert_eq!(lane.timer().bytes_d2h(), 0);
        }
        assert_eq!(p2p[0].timer().bytes_d2h(), bytes);

        // The naive fallback chains N host copies and must finish later.
        let mut naive = lanes(4);
        let naive_end = sync_wa(
            &mut naive,
            Strategy::Performance,
            false,
            bytes,
            SimTime::ZERO,
        );
        for lane in &naive {
            assert_eq!(lane.timer().bytes_d2h(), bytes);
        }
        assert!(naive_end > p2p_end, "{naive_end:?} vs {p2p_end:?}");
    }

    #[test]
    fn barrier_takes_the_slowest_lane() {
        let mut ls = lanes(2);
        ls[1].load_chunk(1 << 26, SimTime::ZERO);
        let t = barrier(&ls, SimTime::ZERO);
        assert_eq!(t, ls[1].sync());
        assert!(t > ls[0].sync());
    }
}
