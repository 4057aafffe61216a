#![warn(missing_docs)]

//! # gts-baselines — every comparator engine from the GTS evaluation
//!
//! The paper compares GTS against three families of systems (Sec. 7). None
//! of them can be run here (they need a 31-node Infiniband cluster, or
//! C++/CUDA builds of research systems), so this crate re-implements each
//! family's *architecture* over the same simulated substrates the GTS
//! engine uses — which is exactly what the comparison figures measure:
//!
//! * **Distributed** (Fig. 6): a [`cluster`] simulator hosting a
//!   Pregel-style BSP engine ([`bsp`], standing in for Giraph / GraphX /
//!   Naiad via per-framework cost profiles) and a PowerGraph-style
//!   vertex-cut GAS engine ([`gas`]). They pay network time per superstep
//!   and OOM when a node's partition + message buffers exceed node memory.
//! * **Shared-memory CPU** (Fig. 7): [`cpu`] — Ligra-like frontier engines
//!   and an MTGL-like naive parallel engine. They need the whole CSR in
//!   host memory.
//! * **GPU-based** (Fig. 8): [`totem`] — the hybrid CPU+GPU partitioned
//!   engine with its GPU%:CPU% option table (Table 5), and [`gpu_only`] —
//!   CuSha/MapGraph-like engines that require the entire graph in device
//!   memory and OOM beyond it.
//! * **Out-of-core streaming** (Sec. 8's discussion): [`xstream`] — an
//!   X-Stream-like edge-centric scatter-gather engine that streams the
//!   *entire* edge list every iteration, which is why it collapses on
//!   high-diameter graphs — and [`graphchi`], which loads whole shards
//!   with no I/O/compute overlap.
//!
//! Each engine is only a [`CostModel`]: a placement with its memory
//! check, and a price per sweep. One driver, [`run`], executes every
//! algorithm functionally ([`propagation`]; results are validated against
//! `gts_graph::reference` in the test suites) and records the priced
//! sweeps on the same simulated clock and [`RunReport`] as GTS.
//!
//! ```
//! use gts_baselines::bsp::BspEngine;
//! use gts_baselines::cluster::{ClusterConfig, FrameworkProfile};
//! use gts_baselines::{report::values_to_u32, run, Algo};
//! use gts_graph::{generate::rmat, Csr};
//!
//! let graph = Csr::from_edge_list(&rmat(9));
//! let giraph = BspEngine::new(ClusterConfig::paper_cluster(), FrameworkProfile::giraph());
//! let r = run(&giraph, &graph, Algo::Bfs { source: 0 }).unwrap();
//! assert_eq!(values_to_u32(&r.values), gts_graph::reference::bfs(&graph, 0));
//! assert!(r.report.network_bytes > 0); // hash partitioning crosses nodes
//! ```

pub mod bsp;
pub mod cluster;
pub mod cpu;
pub mod gas;
pub mod gpu_only;
pub mod graphchi;
pub mod propagation;
pub mod report;
pub mod totem;
pub mod xstream;

pub use cluster::{ClusterConfig, FrameworkProfile};
pub use report::{run, Algo, BaselineError, CostModel, RunReport};
