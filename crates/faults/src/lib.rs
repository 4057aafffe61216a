#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

//! # gts-faults — deterministic fault injection for the streaming stack
//!
//! GTS's premise is surviving hardware limits, so the simulator must
//! exercise its error paths as faithfully as its fast paths. This crate
//! provides a seeded [`FaultPlan`]: a deterministic schedule of transient
//! device read errors, torn (checksum-failing) pages, and per-GPU copy /
//! kernel-launch faults that the storage array and the GPU lanes consult
//! on every operation they simulate.
//!
//! ## Determinism contract
//!
//! Fault decisions are drawn from per-`(domain, entity)` xoshiro256**
//! streams derived from one seed, so the n-th read on drive `d` always
//! faults (or not) identically regardless of what any other drive or GPU
//! did in between. All consumers query the plan only from the engine's
//! *serial* accounting phase, so the same seed produces byte-identical
//! reports, counters, and traces at any `--host-threads`.
//!
//! ```
//! use gts_faults::{FaultConfig, FaultPlan, ReadOutcome};
//!
//! let plan = FaultPlan::new(FaultConfig::with_seed(7));
//! let a: Vec<ReadOutcome> = (0..8).map(|_| plan.device_read(0)).collect();
//! let again = FaultPlan::new(FaultConfig::with_seed(7));
//! let b: Vec<ReadOutcome> = (0..8).map(|_| again.device_read(0)).collect();
//! assert_eq!(a, b);
//! ```

use gts_sim::{Rng, SimDuration};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Decisions are expressed as rates in parts-per-million, drawn once per
/// simulated operation.
pub const PPM_SCALE: u32 = 1_000_000;

/// Rates and recovery policy for one seeded fault schedule.
///
/// A `FaultConfig` travels inside the engine config, so it is plain data:
/// the live per-entity RNG streams belong to the [`FaultPlan`] built from
/// it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultConfig {
    /// Seed for every per-entity fault stream.
    pub seed: u64,
    /// Per-attempt probability (ppm) that a device read fails transiently.
    pub read_error_ppm: u32,
    /// Per-attempt probability (ppm) that a device read returns a torn
    /// page — the bytes arrive but the trailer checksum does not match.
    pub corrupt_page_ppm: u32,
    /// Per-copy probability (ppm) that a GPU H2D/D2H transfer faults.
    pub copy_fault_ppm: u32,
    /// Per-launch probability (ppm) that a GPU kernel launch faults.
    pub launch_fault_ppm: u32,
    /// Per-scrub-visit probability (ppm) that a page has rotted *at
    /// rest* — a seeded single-bit flip in the stored bytes, found (and
    /// repaired) only when a scrub pass walks the page. Zero by default:
    /// bit rot is opt-in even on chaos plans.
    pub bit_rot_ppm: u32,
    /// Bounded retries per operation beyond the first attempt.
    pub max_retries: u32,
    /// Consecutive failed attempts after which a drive is quarantined.
    pub quarantine_after: u32,
    /// Simulated backoff charged between an error and its retry.
    pub backoff: SimDuration,
    /// An injected process death, for kill-and-resume chaos testing: the
    /// 0-based durable I/O step (`gts_ckpt::KillSwitch`) at which the
    /// run dies. `None` (the default) never crashes.
    pub crash: Option<u64>,
}

impl FaultConfig {
    /// Moderate default rates for chaos testing: a couple of percent of
    /// reads fail transiently, well under the retry budget, so seeded runs
    /// complete with results identical to the fault-free run.
    pub fn with_seed(seed: u64) -> Self {
        FaultConfig {
            seed,
            read_error_ppm: 20_000,
            corrupt_page_ppm: 5_000,
            copy_fault_ppm: 2_000,
            launch_fault_ppm: 2_000,
            bit_rot_ppm: 0,
            max_retries: 4,
            quarantine_after: 3,
            backoff: SimDuration::from_micros(100),
            crash: None,
        }
    }

    /// A plan that never injects anything (useful as a test control).
    pub fn quiet(seed: u64) -> Self {
        FaultConfig {
            read_error_ppm: 0,
            corrupt_page_ppm: 0,
            copy_fault_ppm: 0,
            launch_fault_ppm: 0,
            bit_rot_ppm: 0,
            ..FaultConfig::with_seed(seed)
        }
    }

    /// The fault domain for one *served job attempt*: same rates and
    /// recovery policy, but an independent seed mixed from this config's
    /// seed, the job id, and the attempt number — so every job (and every
    /// service-level retry of it) draws an unrelated schedule, while the
    /// schedule itself stays a pure function of `(service seed, job,
    /// attempt)` at any host thread count. The crash step is stripped:
    /// process death belongs to the service, never to one tenant's job.
    pub fn derived(&self, job: u64, attempt: u32) -> FaultConfig {
        FaultConfig {
            seed: domain_seed(self.seed, job, u64::from(attempt)),
            crash: None,
            ..self.clone()
        }
    }
}

/// Mix `(seed, a, b)` into one derived seed via the same chained
/// splitmix64 finalizers as the per-entity streams. Public so the serve
/// layer can derive ancillary per-job streams (e.g. backoff jitter) that
/// are independent of the fault schedules themselves.
pub fn domain_seed(seed: u64, a: u64, b: u64) -> u64 {
    // Offset the domain tag past the private `Domain` discriminants so a
    // derived config's entity streams can never collide with the parent
    // seed's own streams.
    stream_seed(
        seed.wrapping_add(b.wrapping_mul(0xA076_1D64_78BD_642F)),
        9,
        a,
    )
}

/// What one simulated device read attempt returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOutcome {
    /// The read completed and the page is intact.
    Ok,
    /// The device errored transiently; the attempt's time is still spent.
    TransientError,
    /// The read completed but delivered a torn page: the trailer checksum
    /// will not match, forcing a paid re-fetch.
    TornPage,
}

/// Fault domains, mixed into each entity's stream seed so the schedules
/// for different kinds of fault are independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Domain {
    DeviceRead = 1,
    GpuCopy = 2,
    GpuLaunch = 3,
    BitRot = 4,
}

#[derive(Debug, Default)]
struct Streams {
    by_entity: BTreeMap<(u8, u64), Rng>,
}

/// A seeded, shared schedule of injected faults.
///
/// Cloning is cheap (an `Arc` bump); the storage array and every GPU lane
/// hold clones of the same plan. Each query advances exactly one
/// per-`(domain, entity)` stream, so schedules are independent across
/// entities and reproducible per seed.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    config: FaultConfig,
    streams: Arc<Mutex<Streams>>,
}

impl FaultPlan {
    /// Build the live schedule for one run.
    pub fn new(config: FaultConfig) -> Self {
        FaultPlan {
            config,
            streams: Arc::new(Mutex::new(Streams::default())),
        }
    }

    /// The rates and recovery policy this plan was built from.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Draw the outcome of the next read attempt on device `device`.
    pub fn device_read(&self, device: u64) -> ReadOutcome {
        // One stream decides both failure modes so a single draw ordering
        // governs the whole attempt: error wins over torn page.
        let roll = self.draw(Domain::DeviceRead, device);
        let err = self.config.read_error_ppm;
        let torn = self.config.corrupt_page_ppm;
        if roll < err {
            ReadOutcome::TransientError
        } else if roll < err.saturating_add(torn) {
            ReadOutcome::TornPage
        } else {
            ReadOutcome::Ok
        }
    }

    /// Whether the next H2D/D2H copy on GPU `gpu` faults.
    pub fn gpu_copy_fault(&self, gpu: u32) -> bool {
        self.draw(Domain::GpuCopy, gpu as u64) < self.config.copy_fault_ppm
    }

    /// Whether the next kernel launch on GPU `gpu` faults.
    pub fn gpu_launch_fault(&self, gpu: u32) -> bool {
        self.draw(Domain::GpuLaunch, gpu as u64) < self.config.launch_fault_ppm
    }

    /// Whether page `pid` has rotted at rest since the last scrub visit,
    /// and if so where: `Some((byte offset, xor mask))` describes a
    /// single-bit flip inside a page of `page_len` bytes. Each call
    /// advances `pid`'s dedicated stream exactly three draws, so the n-th
    /// scrub visit of a page decides identically at any host thread count
    /// — and because xor is self-inverse, re-applying the returned flip
    /// *is* the repair.
    pub fn bit_rot(&self, pid: u64, page_len: usize) -> Option<(usize, u8)> {
        let rate = self.config.bit_rot_ppm;
        let roll = self.draw(Domain::BitRot, pid);
        let off = self.draw(Domain::BitRot, pid) as usize % page_len.max(1);
        let bit = self.draw(Domain::BitRot, pid) % 8;
        if rate == 0 || roll >= rate {
            return None;
        }
        Some((off, 1u8 << bit))
    }

    /// Export every per-`(domain, entity)` stream's exact RNG state, for
    /// the checkpoint. Streams that were never touched are simply absent:
    /// they are re-derived lazily from the seed on demand, identically
    /// before and after a resume.
    pub fn export_cursors(&self) -> BTreeMap<(u8, u64), [u64; 4]> {
        #[allow(clippy::unwrap_used)] // plan queries never panic while holding the lock
        let g = self.streams.lock().unwrap();
        g.by_entity
            .iter()
            .map(|(&k, rng)| (k, rng.state()))
            .collect()
    }

    /// Restore stream states captured by [`FaultPlan::export_cursors`],
    /// so the first post-resume draw on each entity continues the
    /// pre-crash schedule exactly.
    pub fn restore_cursors(&self, cursors: &BTreeMap<(u8, u64), [u64; 4]>) {
        #[allow(clippy::unwrap_used)] // plan queries never panic while holding the lock
        let mut g = self.streams.lock().unwrap();
        for (&k, &state) in cursors {
            g.by_entity.insert(k, Rng::from_state(state));
        }
    }

    /// Advance entity `(domain, entity)`'s stream and return a uniform
    /// draw in `[0, PPM_SCALE)`.
    fn draw(&self, domain: Domain, entity: u64) -> u32 {
        #[allow(clippy::unwrap_used)] // plan queries never panic while holding the lock
        let mut g = self.streams.lock().unwrap();
        let seed = self.config.seed;
        let rng = g
            .by_entity
            .entry((domain as u8, entity))
            .or_insert_with(|| Rng::seed_from_u64(stream_seed(seed, domain as u8, entity)));
        rng.below_u32(PPM_SCALE)
    }
}

/// Mix `(seed, domain, entity)` into one stream seed via chained
/// splitmix64 finalizers, so nearby entities get unrelated streams.
fn stream_seed(seed: u64, domain: u8, entity: u64) -> u64 {
    let mut z = seed
        .wrapping_add(u64::from(domain).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(entity.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests panic on failure by design
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_per_entity() {
        let a = FaultPlan::new(FaultConfig::with_seed(11));
        let b = FaultPlan::new(FaultConfig::with_seed(11));
        // Interleave queries across entities in different orders: each
        // entity's stream must be unaffected by the others.
        let mut a_dev0 = Vec::new();
        let mut b_dev0 = Vec::new();
        for i in 0..64 {
            a_dev0.push(a.device_read(0));
            if i % 3 == 0 {
                let _ = a.device_read(1);
                let _ = a.gpu_copy_fault(2);
            }
        }
        for _ in 0..64 {
            let _ = b.gpu_launch_fault(0);
            b_dev0.push(b.device_read(0));
        }
        assert_eq!(a_dev0, b_dev0);
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::new(FaultConfig {
            read_error_ppm: 500_000,
            ..FaultConfig::with_seed(1)
        });
        let b = FaultPlan::new(FaultConfig {
            read_error_ppm: 500_000,
            ..FaultConfig::with_seed(2)
        });
        let xs: Vec<ReadOutcome> = (0..64).map(|_| a.device_read(0)).collect();
        let ys: Vec<ReadOutcome> = (0..64).map(|_| b.device_read(0)).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn quiet_plan_never_faults() {
        let plan = FaultPlan::new(FaultConfig::quiet(99));
        for _ in 0..1_000 {
            assert_eq!(plan.device_read(3), ReadOutcome::Ok);
            assert!(!plan.gpu_copy_fault(0));
            assert!(!plan.gpu_launch_fault(1));
        }
    }

    #[test]
    fn rates_are_roughly_honoured() {
        let plan = FaultPlan::new(FaultConfig {
            read_error_ppm: 100_000, // 10%
            corrupt_page_ppm: 100_000,
            ..FaultConfig::with_seed(5)
        });
        let n = 100_000;
        let mut errs = 0u32;
        let mut torn = 0u32;
        for _ in 0..n {
            match plan.device_read(0) {
                ReadOutcome::TransientError => errs += 1,
                ReadOutcome::TornPage => torn += 1,
                ReadOutcome::Ok => {}
            }
        }
        let frac = |c: u32| f64::from(c) / f64::from(n);
        assert!((frac(errs) - 0.1).abs() < 0.01, "err rate {}", frac(errs));
        assert!((frac(torn) - 0.1).abs() < 0.01, "torn rate {}", frac(torn));
    }

    #[test]
    fn exported_cursors_resume_the_schedule_exactly() {
        let cfg = FaultConfig {
            read_error_ppm: 300_000,
            corrupt_page_ppm: 200_000,
            ..FaultConfig::with_seed(17)
        };
        // Reference: one uninterrupted plan.
        let full = FaultPlan::new(cfg.clone());
        let want: Vec<ReadOutcome> = (0..128).map(|i| full.device_read(i % 3)).collect();

        // Crashed-and-resumed: draw half, export, rebuild, restore, draw
        // the rest. The concatenation must equal the uninterrupted run.
        let first = FaultPlan::new(cfg.clone());
        let mut got: Vec<ReadOutcome> = (0..64).map(|i| first.device_read(i % 3)).collect();
        let cursors = first.export_cursors();
        drop(first);
        let resumed = FaultPlan::new(cfg);
        resumed.restore_cursors(&cursors);
        got.extend((64..128).map(|i| resumed.device_read(i % 3)));
        assert_eq!(got, want);
    }

    #[test]
    fn untouched_streams_are_absent_from_cursors_and_rederived() {
        let plan = FaultPlan::new(FaultConfig::with_seed(9));
        let _ = plan.device_read(0);
        let cursors = plan.export_cursors();
        assert_eq!(cursors.len(), 1, "only the touched stream is exported");
        // A resumed plan still derives entity 1's stream from the seed.
        let resumed = FaultPlan::new(FaultConfig::with_seed(9));
        resumed.restore_cursors(&cursors);
        let fresh = FaultPlan::new(FaultConfig::with_seed(9));
        let _ = fresh.device_read(0);
        for _ in 0..32 {
            assert_eq!(resumed.device_read(1), fresh.device_read(1));
        }
    }

    #[test]
    fn bit_rot_is_deterministic_per_page_and_off_by_default() {
        let quiet = FaultPlan::new(FaultConfig::quiet(7));
        for pid in 0..256 {
            assert_eq!(quiet.bit_rot(pid, 4096), None);
        }
        let cfg = FaultConfig {
            bit_rot_ppm: 300_000,
            ..FaultConfig::quiet(7)
        };
        let a = FaultPlan::new(cfg.clone());
        let b = FaultPlan::new(cfg.clone());
        let xs: Vec<_> = (0..256).map(|pid| a.bit_rot(pid, 256)).collect();
        // Interleaved extra queries on other domains must not disturb it.
        let ys: Vec<_> = (0..256)
            .map(|pid| {
                let _ = b.device_read(pid);
                b.bit_rot(pid, 256)
            })
            .collect();
        assert_eq!(xs, ys);
        let hits = xs.iter().flatten().count();
        assert!(hits > 40 && hits < 120, "≈30% of 256 pages, got {hits}");
        for (off, mask) in xs.iter().flatten() {
            assert!(*off < 256);
            assert_eq!(mask.count_ones(), 1, "single-bit flip");
        }
        // Visits advance the stream: a page's second visit re-rolls.
        let c = FaultPlan::new(cfg);
        let first: Vec<_> = (0..64).map(|pid| c.bit_rot(pid, 256)).collect();
        let second: Vec<_> = (0..64).map(|pid| c.bit_rot(pid, 256)).collect();
        assert_ne!(first, second);
    }

    #[test]
    fn crash_point_rides_in_the_config() {
        assert_eq!(FaultConfig::with_seed(1).crash, None);
        let plan = FaultPlan::new(FaultConfig {
            crash: Some(3),
            ..FaultConfig::quiet(1)
        });
        assert_eq!(plan.config().crash, Some(3));
    }

    #[test]
    fn derived_domains_are_deterministic_independent_and_crash_free() {
        let svc = FaultConfig {
            crash: Some(1),
            ..FaultConfig::with_seed(42)
        };
        // Deterministic: same (job, attempt), same domain.
        assert_eq!(svc.derived(3, 1), svc.derived(3, 1));
        // Independent: job ids and attempts each shift the seed.
        assert_ne!(svc.derived(3, 1).seed, svc.derived(4, 1).seed);
        assert_ne!(svc.derived(3, 1).seed, svc.derived(3, 2).seed);
        // Policy rides along; the crash step does not.
        let d = svc.derived(0, 1);
        assert_eq!(d.max_retries, svc.max_retries);
        assert_eq!(d.read_error_ppm, svc.read_error_ppm);
        assert_eq!(d.crash, None);
        // And the derived schedule really differs from the parent's.
        let a = FaultPlan::new(FaultConfig {
            read_error_ppm: 500_000,
            ..FaultConfig::with_seed(42).derived(1, 1)
        });
        let b = FaultPlan::new(FaultConfig {
            read_error_ppm: 500_000,
            ..FaultConfig::with_seed(42)
        });
        let xs: Vec<ReadOutcome> = (0..64).map(|_| a.device_read(0)).collect();
        let ys: Vec<ReadOutcome> = (0..64).map(|_| b.device_read(0)).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn domain_seed_mixes_both_salts() {
        assert_eq!(domain_seed(7, 1, 2), domain_seed(7, 1, 2));
        assert_ne!(domain_seed(7, 1, 2), domain_seed(7, 2, 2));
        assert_ne!(domain_seed(7, 1, 2), domain_seed(7, 1, 3));
        assert_ne!(domain_seed(7, 1, 2), domain_seed(8, 1, 2));
    }

    #[test]
    fn clones_share_one_schedule() {
        let a = FaultPlan::new(FaultConfig {
            read_error_ppm: 500_000,
            ..FaultConfig::with_seed(3)
        });
        let b = a.clone();
        // Drawing alternately from two clones must walk ONE stream, not
        // two copies of it: the union equals a fresh plan's sequence.
        let mut union = Vec::new();
        for _ in 0..32 {
            union.push(a.device_read(7));
            union.push(b.device_read(7));
        }
        let fresh = FaultPlan::new(a.config().clone());
        let want: Vec<ReadOutcome> = (0..64).map(|_| fresh.device_read(7)).collect();
        assert_eq!(union, want);
    }
}
