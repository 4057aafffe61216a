//! Deterministic host parallelism for GTS.
//!
//! The paper executes kernel bodies on devices; this reproduction executes
//! them on the host, and until now did so on a single thread. `gts-exec`
//! provides the two primitives that make parallel host execution *exactly*
//! equivalent to the serial path:
//!
//! - [`ThreadPool`]: a dependency-free chunked pool built on
//!   `std::thread::scope`. Work items are claimed dynamically (an atomic
//!   chunk cursor), but results are returned in **item order** and per-worker
//!   states in **worker-index order**, so any reduction the caller performs
//!   is schedule-independent as long as the merge operation is commutative
//!   and associative over the chosen representation.
//! - [`FixedVec`]: a shared accumulator of non-negative reals in 64-bit
//!   fixed point. Integer `fetch_add` commutes exactly, so concurrent
//!   accumulation produces bit-identical results for every thread count and
//!   every interleaving — unlike floating-point `+`, which is commutative
//!   but not associative.
//!
//! Everything here is safe Rust; no work ever leaks past a call because all
//! workers are scoped to it.

mod fixed;
mod pool;

pub use fixed::FixedVec;
pub use pool::{default_host_threads, ThreadPool};
