//! The staged sweep pipeline behind [`crate::Engine::run_job`].
//!
//! Algorithm 1 is a *pipeline* — plan which pages to stream, fetch them
//! from wherever they live, schedule them onto GPU streams, account the
//! sweep — and each stage lives in its own module with a narrow,
//! unit-testable interface:
//!
//! * [`plan`] — page-bitmap frontier → [`SweepPlan`]: SP/LP ordering and the
//!   `split_and_expand` chunk-run widening (Alg. 1 lines 4-7, 28).
//!   Pure: no clocks, no telemetry.
//! * [`ingest`] — [`ingest::page_ready`] answering "when is page j's data
//!   ready on the host?" (Alg. 1 lines 15-26): at sweep start in memory,
//!   else through a [`StorageSource`]. The line-16 rule — pages cached on
//!   *every* target GPU never touch storage or the MMBuf — lives here, in
//!   one place.
//! * [`schedule`] — a [`GpuLane`] owning one GPU's cache probe, stream
//!   round-robin, and H2D/RA/kernel issue against `GpuTimer` (Fig. 2
//!   step 2). The GPU baselines reuse it instead of hand-rolling timer
//!   choreography.
//! * [`account`] — the strictly-serial phase-B loop, the sweep barrier,
//!   WA synchronisation, and per-sweep telemetry (Alg. 1 lines 27-30).
//! * [`kernels`] — phase A: functional kernel execution, possibly spread
//!   over host threads (simulated time is accounted afterwards, in
//!   [`account`], so host parallelism can never change a number).
//! * `ckpt` — sweep-boundary snapshots: build, write, verify, and
//!   restore the resumable state behind crash-consistent
//!   checkpoint/restart.
//! * `live` — live-topology glue: mutation schedules, the sweep loop's
//!   store handle, and the boundary application path that keeps every
//!   in-flight sweep on one consistent epoch (DESIGN.md §12).
//! * `scrub` — background at-rest verification: walk the store's pages
//!   at a configured sweep cadence, detect seeded bit rot by trailer
//!   checksum, repair from the authoritative copy, and route detections
//!   into drive quarantine (DESIGN.md §15).
//!
//! A `Job` (`crate::job`) composes these stages, one run per
//! [`crate::Engine::run_job`] call; the decomposition is
//! behavior-preserving by construction and pinned byte-for-byte by the
//! golden-report fixtures in `tests/golden/`.

pub mod account;
pub(crate) mod ckpt;
pub mod ingest;
pub mod kernels;
pub(crate) mod live;
pub mod plan;
pub mod schedule;
pub(crate) mod scrub;

pub use ingest::StorageSource;
pub use plan::SweepPlan;
pub use schedule::GpuLane;
