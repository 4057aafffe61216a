//! The one baseline driver: run the algorithm once, let an engine price it.
//!
//! Every comparator engine is a [`CostModel`] — a placement with its
//! static memory check, and a price for a [`PropagationTrace`]. [`run`]
//! does everything else: it symmetrises the graph for CC, propagates,
//! replays Brandes' backward pass for BC, and records the priced sweeps
//! into a fresh [`Telemetry`] registry under the [`keys`] glossary, from
//! which the unified [`RunReport`] is derived — the same view the GTS
//! engine reports through.

use crate::propagation::{
    min_propagation_threads, pagerank_propagation, Placement, PropagationTrace,
};
use gts_core::programs::{Algorithm, Bc, Bfs, Cc, PageRank, Sssp};
use gts_graph::{reference, Csr, EdgeList};
use gts_sim::SimDuration;
use gts_telemetry::{keys, Telemetry};
use std::fmt;

pub use gts_telemetry::RunReport;

/// An algorithm a baseline runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// BFS levels from `source`.
    Bfs {
        /// Start vertex.
        source: u32,
    },
    /// SSSP distances from `source` under the workspace's deterministic
    /// edge weights.
    Sssp {
        /// Start vertex.
        source: u32,
    },
    /// Weakly connected components (label propagation on the symmetrised
    /// graph, as the Pregel-family implementations do).
    Cc,
    /// PageRank (damping 0.85) for `iterations` sweeps.
    PageRank {
        /// Sweeps to run.
        iterations: u32,
    },
    /// Single-source betweenness centrality (Fig. 13c): a forward BFS plus
    /// Brandes' backward accumulation pass.
    Bc {
        /// Source vertex.
        source: u32,
    },
}

impl Algo {
    /// The GTS program's row: the report name and kernel class a
    /// baseline reports and prices the algorithm under.
    pub fn algorithm(self) -> &'static Algorithm {
        match self {
            Algo::Bfs { .. } => &Bfs::ALGORITHM,
            Algo::Sssp { .. } => &Sssp::ALGORITHM,
            Algo::Cc => &Cc::ALGORITHM,
            Algo::PageRank { .. } => &PageRank::ALGORITHM,
            Algo::Bc { .. } => &Bc::ALGORITHM,
        }
    }
}

/// What a cost model charges for one trace.
#[derive(Debug, Clone, Default)]
pub struct Cost {
    /// Per sweep: active vertices, active edges, simulated time. The run's
    /// elapsed time is their sum.
    pub sweeps: Vec<(u64, u64, SimDuration)>,
    /// See [`RunReport::network_bytes`].
    pub network_bytes: u64,
    /// Bytes streamed from storage (`io.bytes_read`).
    pub io_bytes_read: u64,
    /// See [`RunReport::memory_peak`].
    pub memory_peak: u64,
}

/// One comparator engine's architecture: where the work runs and what it
/// costs. Everything else is [`run`]'s.
pub trait CostModel {
    /// Engine name for reports and O.O.M. cells.
    fn name(&self) -> &str;

    /// Place `g`'s vertices for `algo`, or fail the static memory check.
    /// Runs before any propagation, so an O.O.M. cell stays cheap.
    fn place(&self, g: &Csr, algo: Algo) -> Result<Placement, BaselineError>;

    /// Price `trace` (of `algo` on `g`, placed by [`CostModel::place`]),
    /// or fail a memory check that depends on the run (message buffers).
    fn price(&self, g: &Csr, algo: Algo, trace: &PropagationTrace) -> Result<Cost, BaselineError>;
}

/// A finished baseline run.
#[derive(Debug, Clone)]
pub struct Run {
    /// Per-vertex results: levels, distances or labels as `f64`
    /// ([`values_to_u32`] narrows them), ranks, or BC scores.
    pub values: Vec<f64>,
    /// The report derived from [`Run::registry`].
    pub report: RunReport,
    /// This run's counter registry.
    pub registry: Telemetry,
}

/// Run `algo` on `g` under `model`.
pub fn run(model: &dyn CostModel, g: &Csr, algo: Algo) -> Result<Run, BaselineError> {
    let sym;
    let g = if algo == Algo::Cc {
        sym = g.symmetrize();
        &sym
    } else {
        g
    };
    let trace = trace(model, g, algo)?;
    let (report, registry) = account(model, g, algo, &trace)?;
    let values = match algo {
        Algo::Bc { source } => reference::betweenness(g, &[source]),
        _ => trace.values,
    };
    Ok(Run {
        values,
        report,
        registry,
    })
}

/// Place and propagate `algo` on `g` (already symmetrised for CC) under
/// `model`'s placement.
pub fn trace(
    model: &dyn CostModel,
    g: &Csr,
    algo: Algo,
) -> Result<PropagationTrace, BaselineError> {
    let placement = model.place(g, algo)?;
    let threads = gts_exec::default_host_threads();
    Ok(match algo {
        Algo::Bfs { source } | Algo::Bc { source } => {
            min_propagation_threads(g, Some(source), |_, _, x| x + 1.0, placement, threads)
        }
        Algo::Sssp { source } => min_propagation_threads(
            g,
            Some(source),
            |v, w, x| x + EdgeList::edge_weight(v, w) as f64,
            placement,
            threads,
        ),
        Algo::Cc => min_propagation_threads(g, None, |_, _, x| x, placement, threads),
        Algo::PageRank { iterations } => pagerank_propagation(g, 0.85, iterations, placement),
    })
}

/// Price `trace` under `model` and derive the report from a fresh
/// registry. Public so one trace can be priced under several models that
/// place alike (Fig. 6's three BSP profiles).
pub fn account(
    model: &dyn CostModel,
    g: &Csr,
    algo: Algo,
    trace: &PropagationTrace,
) -> Result<(RunReport, Telemetry), BaselineError> {
    let mut cost = model.price(g, algo, trace)?;
    if let Algo::Bc { .. } = algo {
        // Brandes' accumulation replays the levels in reverse with the
        // same volume, so time, traffic and sweep count all double.
        let backward: Vec<_> = cost.sweeps.iter().rev().copied().collect();
        cost.sweeps.extend(backward);
        cost.network_bytes *= 2;
        cost.io_bytes_read *= 2;
    }
    let tel = Telemetry::new();
    let mut elapsed = SimDuration::ZERO;
    for (j, &(vertices, edges, step)) in cost.sweeps.iter().enumerate() {
        record_sweep(&tel, j as u32, vertices, edges, step);
        elapsed += step;
    }
    tel.add(keys::IO_BYTES_READ, cost.io_bytes_read);
    let report = finish_run(
        &tel,
        model.name(),
        algo.algorithm().report_name,
        elapsed,
        cost.sweeps.len() as u32,
        cost.network_bytes,
        cost.memory_peak,
    );
    Ok((report, tel))
}

/// Record a finished run's aggregates into `tel`'s registry and derive the
/// unified [`RunReport`] from it.
fn finish_run(
    tel: &Telemetry,
    engine: &str,
    algorithm: &str,
    elapsed: SimDuration,
    sweeps: u32,
    network_bytes: u64,
    memory_peak: u64,
) -> RunReport {
    tel.set(keys::RUN_ELAPSED_NS, elapsed.as_nanos());
    tel.set(keys::RUN_SWEEPS, sweeps as u64);
    tel.add(keys::NETWORK_BYTES, network_bytes);
    tel.max(keys::MEMORY_PEAK, memory_peak);
    RunReport::from_telemetry(tel, algorithm, engine)
}

/// Record one sweep's activity under the per-sweep keys.
fn record_sweep(
    tel: &Telemetry,
    sweep: u32,
    active_vertices: u64,
    active_edges: u64,
    elapsed: SimDuration,
) {
    tel.add(
        keys::sweep(sweep, keys::SWEEP_ACTIVE_VERTICES),
        active_vertices,
    );
    tel.add(keys::sweep(sweep, keys::SWEEP_ACTIVE_EDGES), active_edges);
    tel.set(
        keys::sweep(sweep, keys::SWEEP_ELAPSED_NS),
        elapsed.as_nanos(),
    );
}

/// Why a baseline failed — the figures' `O.O.M.` cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BaselineError {
    /// A node, host, or device could not hold its share of the data.
    OutOfMemory {
        /// Engine that failed.
        engine: String,
        /// Bytes it needed on the most loaded node/device.
        needed: u64,
        /// Bytes that node/device has.
        available: u64,
    },
}

impl fmt::Display for BaselineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BaselineError::OutOfMemory {
                engine,
                needed,
                available,
            } => write!(
                f,
                "{engine}: out of memory ({needed} B needed, {available} B available)"
            ),
        }
    }
}

impl std::error::Error for BaselineError {}

/// `Ok` when `needed` bytes fit in `available`, else `engine`'s O.O.M.
pub(crate) fn fits(engine: &str, needed: u64, available: u64) -> Result<(), BaselineError> {
    if needed > available {
        return Err(BaselineError::OutOfMemory {
            engine: engine.to_string(),
            needed,
            available,
        });
    }
    Ok(())
}

/// Narrow a propagation result to the engines' u32 convention:
/// non-finite (unreached) becomes `u32::MAX`.
pub fn values_to_u32(values: &[f64]) -> Vec<u32> {
    values
        .iter()
        .map(|&v| if v.is_finite() { v as u32 } else { u32::MAX })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oom_display_names_the_engine() {
        let e = BaselineError::OutOfMemory {
            engine: "Giraph".into(),
            needed: 100,
            available: 10,
        };
        assert!(e.to_string().contains("Giraph"));
        assert!(e.to_string().contains("out of memory"));
    }

    #[test]
    fn finish_run_round_trips_through_the_registry() {
        let tel = Telemetry::new();
        record_sweep(&tel, 0, 10, 100, SimDuration::from_nanos(5));
        record_sweep(&tel, 1, 20, 200, SimDuration::from_nanos(7));
        let r = finish_run(
            &tel,
            "Giraph",
            "BFS",
            SimDuration::from_nanos(12),
            2,
            4096,
            1 << 20,
        );
        assert_eq!(r.engine, "Giraph");
        assert_eq!(r.elapsed.as_nanos(), tel.counter(keys::RUN_ELAPSED_NS));
        assert_eq!(r.network_bytes, 4096);
        assert_eq!(r.memory_peak, 1 << 20);
        assert_eq!(r.per_sweep.len(), 2);
        assert_eq!(r.per_sweep[1].active_edges, 200);
        assert_eq!(r.per_sweep[1].elapsed.as_nanos(), 7);
    }
}
