//! Deterministic host parallelism for GTS.
//!
//! The paper executes kernel bodies on devices; this reproduction executes
//! them on the host, on `host_threads` threads. `gts-exec` provides the
//! primitives that make parallel host execution *exactly* equivalent to
//! the serial path:
//!
//! - [`ThreadPool`]: a dependency-free chunked pool built on
//!   `std::thread::scope`, the calling thread working as worker 0. Work
//!   items are claimed dynamically (an atomic chunk cursor), but results
//!   are returned in **item order** and per-worker states in
//!   **worker-index order**, so any reduction the caller performs is
//!   schedule-independent as long as the merge operation is commutative
//!   and associative over the chosen representation.
//! - 2^-52 fixed point ([`FixedVec::to_fixed`]): integer addition commutes
//!   and associates exactly — unlike floating-point `+` — so sums scattered
//!   into per-worker `u64` lanes and folded with [`fold_lane`] carry the
//!   same bits for every thread count and every schedule. [`FixedVec`] is
//!   the shared `fetch_add` form of that sum, the lanes' test reference.
//!
//! Everything here is safe Rust (enforced below); no work ever leaks past a
//! call because all workers are scoped to it.

#![forbid(unsafe_code)]

mod fixed;
mod pool;

pub use fixed::{fold_lane, FixedVec};
pub use pool::{default_host_threads, ThreadPool};
