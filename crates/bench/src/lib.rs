#![warn(missing_docs)]

//! # gts-bench — the experiment harness
//!
//! One `harness = false` bench target per table and figure of the paper's
//! evaluation (Sec. 7 plus Appendices C–E), each printing the paper's rows
//! next to this reproduction's measurements and writing a CSV under
//! `target/experiments/`. Run everything with
//! `cargo bench -p gts-bench`, or one experiment with e.g.
//! `cargo bench -p gts-bench --bench fig6_distributed`.
//!
//! All experiments run at **1/1024 scale** (see [`scale`]): paper RMAT*k*
//! maps to our RMAT*(k−10)* and every capacity (device memory, host
//! memory, cluster node memory) divides by 1024, so the paper's regime
//! boundaries — fits-in-GPU / fits-in-host / must-stream-from-SSD, and the
//! O.O.M. cells — fall in the same places. Bandwidths are *not* scaled
//! (they are rates, not capacities); absolute times therefore shrink by
//! ~1024× and the comparisons are about ratios and crossovers, exactly as
//! scoped in `DESIGN.md` §1 and recorded per-experiment in
//! `EXPERIMENTS.md`.
//!
//! Everything here reports **simulated** time. How fast this
//! implementation runs on the wall clock is measured by `benchmark/`
//! (see `benchmark/README.md`), from outside the crates.

pub mod datasets;
pub mod scale;
pub mod table;
