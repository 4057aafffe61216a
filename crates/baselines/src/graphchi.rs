//! GraphChi-like out-of-core engine (Kyrola et al., OSDI'12) — the other
//! single-machine streaming system the paper's Sec. 8 discussion covers:
//! "GraphChi has the similar problem [to X-Stream], but shows a worse
//! performance than X-Stream, due to requiring fully loading (not
//! streaming) a shard file and no overlapping between disk I/O and
//! computation."
//!
//! Model: the graph is split into `P` shards, each holding the in-edges of
//! an interval of vertices, sorted by source (the Parallel Sliding Windows
//! layout). One full pass over the graph loads every shard completely
//! (plus the sliding windows of every other shard), computes, and writes
//! updated shards back. Two architectural facts carry the comparison:
//!
//! * **No I/O/compute overlap** — per-interval time is `load + compute +
//!   write`, a sum, where GTS and X-Stream overlap these phases;
//! * **read-and-write traffic** — shard edge values are rewritten each
//!   pass, doubling the I/O volume of a read-only streamer.

use crate::propagation::{Placement, PropagationTrace};
use crate::report::{Algo, BaselineError, Cost, CostModel};
use gts_graph::Csr;
use gts_sim::{Bandwidth, SimDuration};

/// GraphChi engine configuration.
#[derive(Debug, Clone)]
pub struct GraphChiConfig {
    /// Host memory available for one interval's subgraph (determines the
    /// shard count).
    pub memory_budget: u64,
    /// Worker threads.
    pub threads: u32,
    /// CPU nanoseconds per edge.
    pub per_edge_ns: f64,
    /// Storage sequential bandwidth.
    pub storage_bw: Bandwidth,
    /// On-disk bytes per edge (src + dst + value).
    pub edge_bytes: u64,
}

impl Default for GraphChiConfig {
    fn default() -> Self {
        GraphChiConfig {
            memory_budget: 8 << 30,
            threads: 16,
            per_edge_ns: 18.0,
            storage_bw: Bandwidth::gib_per_sec(2),
            edge_bytes: 12,
        }
    }
}

/// The GraphChi-like engine.
#[derive(Debug, Clone)]
pub struct GraphChi {
    cfg: GraphChiConfig,
}

impl GraphChi {
    /// Create an engine.
    pub fn new(cfg: GraphChiConfig) -> Self {
        GraphChi { cfg }
    }

    /// Number of shards for `g` under the memory budget (at least 1).
    pub fn num_shards(&self, g: &Csr) -> u64 {
        let graph_bytes = g.num_edges() as u64 * self.cfg.edge_bytes;
        graph_bytes.div_ceil(self.cfg.memory_budget.max(1)).max(1)
    }
}

impl CostModel for GraphChi {
    fn name(&self) -> &str {
        "GraphChi"
    }

    /// Shards stream from storage, so nothing has to fit up front.
    fn place(&self, _g: &Csr, _algo: Algo) -> Result<Placement, BaselineError> {
        Ok(Placement::Single)
    }

    fn price(&self, g: &Csr, _algo: Algo, trace: &PropagationTrace) -> Result<Cost, BaselineError> {
        let c = &self.cfg;
        let graph_bytes = g.num_edges() as u64 * c.edge_bytes;
        let mut cost = Cost {
            memory_peak: c.memory_budget.min(graph_bytes),
            ..Cost::default()
        };
        for sweep in &trace.sweeps {
            // Every pass fully loads the graph's shards and rewrites the
            // updated edge values: read + write of the whole edge file.
            let load = c.storage_bw.transfer_time(graph_bytes);
            let write = c.storage_bw.transfer_time(graph_bytes);
            let compute = SimDuration::from_secs_f64(
                g.num_edges() as f64 * c.per_edge_ns / c.threads as f64 / 1e9,
            );
            cost.io_bytes_read += graph_bytes;
            // The defining drawback: NO overlap — the phases are summed,
            // not maxed (X-Stream and GTS overlap I/O with compute).
            let step = load + compute + write;
            cost.sweeps
                .push((sweep.total_active(), g.num_edges() as u64, step));
        }
        Ok(cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{run, values_to_u32};
    use crate::xstream::{XStream, XStreamConfig};
    use gts_graph::generate::rmat;
    use gts_graph::reference;

    fn small() -> Csr {
        Csr::from_edge_list(&rmat(8))
    }

    #[test]
    fn results_match_reference() {
        let g = small();
        let e = GraphChi::new(GraphChiConfig::default());
        let bfs = run(&e, &g, Algo::Bfs { source: 0 }).unwrap();
        assert_eq!(values_to_u32(&bfs.values), reference::bfs(&g, 0));
        let pr = run(&e, &g, Algo::PageRank { iterations: 3 }).unwrap();
        for (a, b) in pr.values.iter().zip(&reference::pagerank(&g, 0.85, 3)) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn graphchi_is_slower_than_xstream() {
        // Sec. 8: no I/O/compute overlap + full rewrites make GraphChi the
        // slower of the two out-of-core streamers.
        let g = Csr::from_edge_list(&rmat(12));
        let pr = Algo::PageRank { iterations: 5 };
        let chi = run(&GraphChi::new(GraphChiConfig::default()), &g, pr);
        let xs = run(&XStream::new(XStreamConfig::default()), &g, pr);
        let (chi, xs) = (chi.unwrap().report.elapsed, xs.unwrap().report.elapsed);
        assert!(chi > xs, "GraphChi {chi} must trail X-Stream {xs}");
    }

    #[test]
    fn shard_count_scales_with_graph_over_budget() {
        let g = Csr::from_edge_list(&rmat(12));
        let mut cfg = GraphChiConfig::default();
        cfg.memory_budget = g.num_edges() as u64 * cfg.edge_bytes / 4;
        let e = GraphChi::new(cfg);
        assert_eq!(e.num_shards(&g), 4);
    }
}
