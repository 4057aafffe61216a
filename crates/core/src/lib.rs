#![warn(missing_docs)]
// The sweep-pipeline decomposition must stick: any function growing back
// toward the old 320-line `Gts::run` monolith trips this lint (threshold
// in clippy.toml at the workspace root).
#![warn(clippy::too_many_lines)]

//! # gts-core — the GTS engine
//!
//! The paper's contribution: processing graphs far larger than GPU device
//! memory by **storing only updatable attribute data (WA) on the GPU and
//! streaming topology data to it** over PCI-E, page by page, through
//! asynchronous streams (Sections 3–6 of the paper).
//!
//! * [`engine::Gts`] implements Algorithm 1: the `nextPIDSet` /
//!   `cachedPIDMap` / `MMBuf` machinery, SP-then-LP phase separation,
//!   multi-stream copy/kernel pipelining, and the GPU-side page cache.
//! * [`programs`] holds the user-level vertex programs with the GPU kernels
//!   of Appendix B (BFS, PageRank) and Appendix D (SSSP, CC, BC), written
//!   against the warp-cost model of `gts-gpu`.
//! * [`strategy`] implements Strategy-P (partition topology, replicate WA,
//!   peer-to-peer merge) and Strategy-S (partition WA, broadcast topology)
//!   from Section 4.
//! * [`cost`] is Section 5's analytic cost models, Eq. (1) and Eq. (2), as
//!   executable functions compared against the simulator in the benches.
//!
//! ## Quick start
//!
//! ```
//! use gts_core::engine::{Gts, GtsConfig};
//! use gts_core::programs::Bfs;
//! use gts_graph::generate::rmat;
//! use gts_storage::{build_graph_store, PageFormatConfig};
//!
//! let graph = rmat(10);
//! let store = build_graph_store(&graph, PageFormatConfig::small_default()).unwrap();
//! let cfg = GtsConfig { num_streams: 16, ..GtsConfig::default() };
//! let engine = Gts::builder().config(cfg).build().unwrap();
//! let mut bfs = Bfs::new(store.num_vertices(), 0);
//! let report = engine.run(&store, &mut bfs).unwrap();
//! assert!(report.elapsed.as_nanos() > 0);
//! let levels = bfs.levels();
//! assert_eq!(levels[0], 0);
//! ```
//!
//! ## Observability
//!
//! Every run records into a [`gts_telemetry::Telemetry`] handle: a counter
//! registry (pages streamed, cache hits, kernel launches, bytes moved, ...)
//! plus — when built with [`Telemetry::with_spans`] — the per-stream
//! copy/kernel spans behind the paper's Fig. 4. The returned [`RunReport`]
//! is a *view* derived from those counters, and
//! [`Telemetry::to_chrome_trace`] exports a Perfetto-loadable JSON trace:
//!
//! ```
//! use gts_core::engine::Gts;
//! use gts_core::programs::Bfs;
//! use gts_core::Telemetry;
//! use gts_graph::generate::rmat;
//! use gts_storage::{build_graph_store, PageFormatConfig};
//!
//! let store = build_graph_store(&rmat(8), PageFormatConfig::small_default()).unwrap();
//! let engine = Gts::builder().telemetry(Telemetry::with_spans()).build().unwrap();
//! let mut bfs = Bfs::new(store.num_vertices(), 0);
//! engine.run(&store, &mut bfs).unwrap();
//! let trace = engine.telemetry().to_chrome_trace();
//! assert!(trace.contains("traceEvents"));
//! ```

pub mod attrs;
pub mod cost;
pub mod engine;
pub mod job;
pub mod programs;
pub mod queries;
pub mod report;
pub mod strategy;
pub mod sweep;

pub use engine::{
    CheckpointConfig, ConfigError, EngineError, Gts, GtsBuilder, GtsConfig, MutationSchedule,
    StorageLocation,
};
pub use gts_faults::{FaultConfig, FaultPlan};
pub use gts_storage::{EdgeOp, MutateError, MutationBatch, MutationOutcome};
pub use gts_telemetry::Telemetry;
pub use job::{Engine, JobOptions};
pub use report::RunReport;
pub use strategy::Strategy;
pub use sweep::ckpt::{snapshot_progress, store_fingerprint};
