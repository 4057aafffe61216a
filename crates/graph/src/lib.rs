#![warn(missing_docs)]

//! # gts-graph — graph toolkit for the GTS reproduction
//!
//! In-memory graph representations ([`EdgeList`], [`Csr`]), deterministic
//! workload generators (RMAT as used by the paper's synthetic datasets, plus
//! fitted look-alikes of the paper's real datasets), degree statistics, and
//! sequential *golden* reference implementations of every algorithm the
//! paper evaluates (BFS, PageRank, SSSP, CC, BC).
//!
//! The reference algorithms are intentionally simple and obviously correct;
//! every parallel/streaming engine in this workspace (GTS itself and all the
//! baselines) is validated against them in the test suites.

pub mod csr;
pub mod datasets;
pub mod generate;
pub mod reference;
pub mod stats;
pub mod types;

pub use csr::Csr;
pub use datasets::Dataset;
pub use generate::{rmat, Rmat};
pub use types::{EdgeList, VertexId, INVALID_VERTEX};
