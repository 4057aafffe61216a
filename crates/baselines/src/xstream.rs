//! X-Stream-like edge-centric scatter-gather streaming engine (the
//! related-work comparison of Sec. 8).
//!
//! X-Stream keeps vertex data in memory and streams the **entire,
//! unordered edge list** from storage every scatter-gather iteration; the
//! scatter phase emits an *update* per active edge, which is shuffled to
//! disk and streamed back in the gather phase. Two consequences the paper
//! calls out, both reproduced:
//!
//! * fine-grained sequential access means a traversal algorithm pays a
//!   full edge-list scan (plus the update shuffle) *per level* — on a
//!   high-diameter graph like YahooWeb "X-Stream did not finish in a
//!   reasonable amount of time";
//! * a mixture of read and write streaming only partially exploits
//!   sequential bandwidth, unlike GTS's read-only page streaming.

use crate::propagation::{Placement, PropagationTrace};
use crate::report::{fits, Algo, BaselineError, Cost, CostModel};
use gts_graph::Csr;
use gts_sim::{Bandwidth, SimDuration};

/// X-Stream engine configuration.
#[derive(Debug, Clone)]
pub struct XStreamConfig {
    /// Host memory for vertex + update buffers.
    pub host_memory: u64,
    /// Worker threads.
    pub threads: u32,
    /// CPU nanoseconds per streamed edge.
    pub per_edge_ns: f64,
    /// Storage sequential bandwidth (edges live on SSD).
    pub storage_bw: Bandwidth,
    /// Bytes per on-disk edge record (src, dst — X-Stream needs no index).
    pub edge_bytes: u64,
    /// Bytes per shuffled update record.
    pub update_bytes: u64,
}

impl Default for XStreamConfig {
    fn default() -> Self {
        XStreamConfig {
            host_memory: 128 << 30,
            threads: 16,
            per_edge_ns: 12.0,
            storage_bw: Bandwidth::gib_per_sec(2),
            edge_bytes: 8,
            update_bytes: 8,
        }
    }
}

/// The X-Stream-like engine.
#[derive(Debug, Clone)]
pub struct XStream {
    cfg: XStreamConfig,
}

impl XStream {
    /// Create an engine.
    pub fn new(cfg: XStreamConfig) -> Self {
        XStream { cfg }
    }
}

impl CostModel for XStream {
    fn name(&self) -> &str {
        "X-Stream"
    }

    /// Vertex data must fit in memory (X-Stream's own requirement; its
    /// partitioned fallback is out of scope for the comparison).
    fn place(&self, g: &Csr, _algo: Algo) -> Result<Placement, BaselineError> {
        fits(
            "X-Stream",
            g.num_vertices() as u64 * 16,
            self.cfg.host_memory,
        )?;
        Ok(Placement::Single)
    }

    fn price(&self, g: &Csr, _algo: Algo, trace: &PropagationTrace) -> Result<Cost, BaselineError> {
        let c = &self.cfg;
        let full_scan_bytes = g.num_edges() as u64 * c.edge_bytes;
        let mut cost = Cost {
            memory_peak: g.num_vertices() as u64 * 16,
            ..Cost::default()
        };
        for sweep in &trace.sweeps {
            // Scatter: stream the WHOLE edge list, regardless of frontier.
            let scan = c.storage_bw.transfer_time(full_scan_bytes);
            // Updates: one per edge leaving an active vertex; written then
            // read back (shuffle + gather) — mixed read/write streaming.
            let updates = sweep.total_edges();
            let update_io = c.storage_bw.transfer_time(2 * updates * c.update_bytes);
            let compute = SimDuration::from_secs_f64(
                (g.num_edges() as u64 + updates) as f64 * c.per_edge_ns / c.threads as f64 / 1e9,
            );
            // Only the scan and the updates' read-back are reads.
            cost.io_bytes_read += full_scan_bytes + updates * c.update_bytes;
            // I/O and compute overlap; the longer one gates the iteration.
            let step = (scan + update_io).max(compute);
            cost.sweeps
                .push((sweep.total_active(), g.num_edges() as u64 + updates, step));
        }
        Ok(cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{run, values_to_u32};
    use gts_graph::generate::{rmat, web_like};
    use gts_graph::reference;

    fn small() -> Csr {
        Csr::from_edge_list(&rmat(8))
    }

    const BFS: Algo = Algo::Bfs { source: 0 };

    #[test]
    fn results_match_reference() {
        let g = small();
        let e = XStream::new(XStreamConfig::default());
        let levels = |algo| values_to_u32(&run(&e, &g, algo).unwrap().values);
        assert_eq!(levels(BFS), reference::bfs(&g, 0));
        assert_eq!(levels(Algo::Sssp { source: 0 }), reference::sssp(&g, 0));
        let pr = run(&e, &g, Algo::PageRank { iterations: 3 }).unwrap();
        for (a, b) in pr.values.iter().zip(&reference::pagerank(&g, 0.85, 3)) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn high_diameter_graphs_blow_up_traversal_cost() {
        // Sec. 8: per-level full edge scans ruin BFS on deep graphs.
        let e = XStream::new(XStreamConfig::default());
        let shallow = Csr::from_edge_list(&rmat(10));
        let deep = Csr::from_edge_list(&web_like(64, 16, 4, 3));
        let shallow_run = run(&e, &shallow, BFS).unwrap().report;
        let deep_run = run(&e, &deep, BFS).unwrap().report;
        // The deep graph has ~4x fewer edges but far more levels: X-Stream
        // must be slower on it anyway.
        assert!(shallow.num_edges() > 3 * deep.num_edges());
        assert!(deep_run.elapsed > shallow_run.elapsed);
        assert!(deep_run.sweeps > 4 * shallow_run.sweeps);
    }

    #[test]
    fn pagerank_scans_once_per_iteration() {
        let g = small();
        let e = XStream::new(XStreamConfig::default());
        let r3 = run(&e, &g, Algo::PageRank { iterations: 3 })
            .unwrap()
            .report;
        let r6 = run(&e, &g, Algo::PageRank { iterations: 6 })
            .unwrap()
            .report;
        assert_eq!(r6.sweeps, 6);
        assert_eq!(r6.network_bytes, 0, "one machine: storage is not network");
        let ratio = r6.elapsed.as_secs_f64() / r3.elapsed.as_secs_f64();
        assert!(
            (ratio - 2.0).abs() < 0.05,
            "linear in iterations, got {ratio}"
        );
    }

    #[test]
    fn vertex_data_must_fit() {
        let cfg = XStreamConfig {
            host_memory: 64,
            ..Default::default()
        };
        match run(&XStream::new(cfg), &small(), BFS) {
            Err(BaselineError::OutOfMemory { engine, .. }) => assert_eq!(engine, "X-Stream"),
            other => panic!("expected OOM, got {other:?}"),
        }
    }
}
