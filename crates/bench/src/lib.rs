#![warn(missing_docs)]

//! # gts-bench — the paper's evaluation as one checked table
//!
//! [`paper::EXPERIMENTS`] has one row per table and figure of the paper's
//! evaluation: its datasets, the paper's values, the cells to run, and the
//! paper's claims, which the runner checks. `cargo bench -p gts-bench`
//! (or `-- fig9` for one experiment) prints every table beside the paper's
//! values, writes its CSV under `target/experiments/`, and fails on a
//! claim that fails without a Deviation; `GTS_BLESS=1` also rewrites the
//! measured tables and scorecard of `EXPERIMENTS.md`.
//!
//! All experiments run at **1/1024 scale** ([`scale`]): paper RMAT*k* is
//! our RMAT*(k−10)* and every capacity divides by 1024, so the regime
//! boundaries and O.O.M. cells fall where the paper's do, while unscaled
//! bandwidths shrink absolute times (DESIGN.md §1). Everything here is
//! **simulated** time; `benchmark/` measures the wall clock.

pub mod datasets;
pub mod paper;
pub mod scale;
pub mod table;
