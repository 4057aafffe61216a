//! The four workloads. Each stresses different layers; see the README's
//! table for why each exists.

pub mod bfs_ooc;
pub mod live_mutations;
pub mod pagerank_scan;
pub mod serve_mixed;
