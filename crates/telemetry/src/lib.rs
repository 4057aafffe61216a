//! Observability backbone for the GTS reproduction.
//!
//! GTS's entire argument is about *where time goes* — copy/kernel overlap
//! across CUDA streams (the paper's Figures 3/4), cache hit rates
//! (Fig. 11), PCI-E saturation (the Sec. 5 cost model). This crate is the
//! single place all of that is recorded:
//!
//! * **Spans** ([`Span`]) — busy intervals on the *simulated* clock,
//!   organised into tracks ([`Track`]: a process/thread pair, e.g.
//!   GPU 0 / stream 3). The engine records a hierarchical
//!   run → sweep → stream-operation tree.
//! * **Counters** — a string-keyed registry of monotonically accumulated
//!   quantities (bytes H2D/D2H, cache hits/misses, kernel launches, MMBuf
//!   evictions, stream stalls; see [`keys`] for the glossary).
//! * **Export** — [`Telemetry::to_chrome_trace`] serialises the spans as
//!   chrome://tracing JSON loadable in Perfetto, reproducing the paper's
//!   Fig. 4 profiler screenshots; [`Telemetry::render_ascii`] draws the
//!   same picture as text.
//! * **[`RunReport`]** — the user-facing summary every engine (GTS and the
//!   seven baselines) returns. It is a pure *view* derived from the counter
//!   registry by [`RunReport::from_telemetry`]: one source of truth.
//!
//! A [`Telemetry`] value is a cheap cloneable handle (`Arc` inside); every
//! component of a run shares one. Counters are always collected (they are
//! a handful of integer adds per run); span recording is opt-in via
//! [`Telemetry::with_spans`] because a large run can produce millions of
//! spans.
//!
//! ```
//! use gts_telemetry::{keys, SpanCat, Telemetry, Track};
//! use gts_sim::SimTime;
//!
//! let tel = Telemetry::with_spans();
//! tel.start_run();
//! let track = Track { pid: 0, tid: 3 };
//! tel.name_thread(track, "stream0");
//! tel.record_span(track, SpanCat::Copy, "SP17", SimTime::from_nanos(0), SimTime::from_nanos(800));
//! tel.add(keys::PAGES_STREAMED, 1);
//! let json = tel.to_chrome_trace();
//! assert!(json.contains("\"ph\":\"X\""));
//! ```

mod handle;
pub mod json;
pub mod keys;
mod report;
mod span;
mod trace;

pub use handle::{HistSummary, Telemetry};
pub use report::{GpuRunStats, RunReport, SweepStats};
pub use span::{Span, SpanCat, Track};
