#![warn(missing_docs)]

//! # gts-sim — discrete-event simulation kernel
//!
//! Shared foundation for the simulated hardware substrates of the GTS
//! reproduction: the GPU model (`gts-gpu`), the SSD/HDD block devices
//! (`gts-storage`) and the cluster/network model (`gts-baselines`).
//!
//! The paper's experiments run on hardware we do not have (TITAN X GPUs,
//! PCI-E SSDs, a 31-node Infiniband cluster). Instead of a callback-driven
//! event loop, this crate provides *schedulable resources*: every simulated
//! operation (a PCI-E transfer, a kernel execution, an SSD read, a network
//! message) is submitted with a ready-time and a duration, and a [`Resource`]
//! assigns it a start/end on a FIFO server with bounded concurrency. Because
//! all dependencies are known at submission time (stream ordering, buffer
//! availability, superstep barriers), this computes exactly the same schedule
//! a classic event-driven simulator would, with far less machinery.
//!
//! All simulated time is deterministic, which makes the paper-shape
//! experiments reproducible bit-for-bit across runs. The one source of
//! randomness the workspace allows itself — the seeded [`Rng`] behind
//! dataset generation and fault schedules — lives here for the same
//! reason.
//!
//! ```
//! use gts_sim::{Bandwidth, Resource, SimDuration, SimTime};
//!
//! // A PCI-E-like copy engine: one op at a time, FIFO.
//! let mut h2d = Resource::new("h2d", 1);
//! let bw = Bandwidth::gib_per_sec(6);
//! let a = h2d.submit(SimTime::ZERO, bw.transfer_time(64 * 1024));
//! let b = h2d.submit(SimTime::ZERO, bw.transfer_time(64 * 1024));
//! assert_eq!(b.start, a.end); // copies serialise
//! ```

pub mod bandwidth;
pub mod resource;
pub mod rng;
pub mod time;

pub use bandwidth::Bandwidth;
pub use resource::Resource;
pub use rng::Rng;
pub use time::{SimDuration, SimTime};
