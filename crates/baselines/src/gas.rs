//! PowerGraph-style Gather-Apply-Scatter engine with vertex-cut
//! partitioning.
//!
//! PowerGraph splits *edges* (not vertices) across nodes and replicates
//! each vertex on every node that holds one of its edges; Gather collects
//! over adjacent edges, Apply updates the master replica, Scatter pushes
//! the new value to the mirrors. Compared with the BSP engines this means:
//!
//! * edge work is balanced by construction (no straggler partitions even
//!   under power-law skew — PowerGraph's raison d'être),
//! * network traffic is proportional to *replicas of active vertices*, not
//!   to cross-partition edges,
//! * memory per node is `E/N` edges plus the replicated vertex state.
//!
//! The replication factor of random (hash) vertex-cuts grows slowly with
//! the node count; we use the standard `1 + c·√N` fit.

use crate::cluster::{ClusterConfig, FrameworkProfile};
use crate::propagation::{Placement, PropagationTrace};
use crate::report::{fits, Algo, BaselineError, Cost, CostModel};
use gts_graph::Csr;
use gts_sim::SimDuration;

/// A GAS engine instance (defaults to the PowerGraph cost profile).
#[derive(Debug, Clone)]
pub struct GasEngine {
    /// Cluster hardware.
    pub cluster: ClusterConfig,
    /// Cost profile (PowerGraph's by default).
    pub profile: FrameworkProfile,
}

impl GasEngine {
    /// PowerGraph on the given cluster.
    pub fn new(cluster: ClusterConfig) -> Self {
        GasEngine {
            cluster,
            profile: FrameworkProfile::powergraph(),
        }
    }

    /// Replication factor of a random vertex-cut over `n` nodes.
    pub fn replication_factor(&self) -> f64 {
        1.0 + 0.8 * (self.cluster.nodes as f64).sqrt()
    }

    /// Vertex-cut memory per node: E/N edges + replicated vertex state.
    fn graph_bytes(&self, g: &Csr) -> u64 {
        let p = &self.profile;
        let nodes = self.cluster.nodes as u64;
        let part_edges = (g.num_edges() as u64).div_ceil(nodes);
        let replicated_vertices =
            ((g.num_vertices() as f64 * self.replication_factor()) / nodes as f64).ceil() as u64;
        part_edges * p.memory_bytes_per_edge + replicated_vertices * p.memory_bytes_per_vertex
    }
}

impl CostModel for GasEngine {
    fn name(&self) -> &str {
        self.profile.name
    }

    /// Edges are cut, not vertices: one logical partition, balanced by
    /// construction.
    fn place(&self, g: &Csr, _algo: Algo) -> Result<Placement, BaselineError> {
        fits(
            self.profile.name,
            self.graph_bytes(g),
            self.cluster.memory_per_node,
        )?;
        Ok(Placement::Single)
    }

    fn price(&self, g: &Csr, _algo: Algo, trace: &PropagationTrace) -> Result<Cost, BaselineError> {
        let p = &self.profile;
        let c = &self.cluster;
        let nodes = c.nodes as u64;
        let rf = self.replication_factor();
        let mut cost = Cost {
            memory_peak: self.graph_bytes(g),
            ..Cost::default()
        };
        for sweep in &trace.sweeps {
            // Edge work is balanced by the vertex-cut: each node handles
            // ~active_edges/N, gather + scatter (2 passes).
            let active_edges = sweep.total_edges();
            let active_vertices = sweep.total_active();
            let per_node_edges = active_edges.div_ceil(nodes);
            let work_ns = 2.0 * per_node_edges as f64 * p.per_edge_ns
                + (active_vertices.div_ceil(nodes)) as f64 * p.per_vertex_ns;
            let compute = SimDuration::from_secs_f64(work_ns / c.cores_per_node as f64 / 1e9);
            // Replica synchronisation: each active vertex syncs its mirrors
            // (gather results in, new value out).
            let sync_bytes = (active_vertices as f64 * (rf - 1.0)) as u64 * p.bytes_per_message * 2;
            cost.network_bytes += sync_bytes;
            let net = c.network_bw.transfer_time(sync_bytes / nodes.max(1));
            let step = compute + net + c.network_latency + p.superstep_overhead;
            cost.sweeps.push((active_vertices, active_edges, step));
        }
        Ok(cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bsp::BspEngine;
    use crate::report::{run, values_to_u32};
    use gts_graph::generate::rmat;
    use gts_graph::reference;

    fn small() -> Csr {
        Csr::from_edge_list(&rmat(8))
    }

    fn engine() -> GasEngine {
        GasEngine::new(ClusterConfig::paper_cluster())
    }

    #[test]
    fn results_match_reference() {
        let g = small();
        let values = |algo| run(&engine(), &g, algo).unwrap().values;
        let levels = values_to_u32(&values(Algo::Bfs { source: 0 }));
        assert_eq!(levels, reference::bfs(&g, 0));
        let dist = values_to_u32(&values(Algo::Sssp { source: 0 }));
        assert_eq!(dist, reference::sssp(&g, 0));
        let cc = values_to_u32(&values(Algo::Cc));
        assert_eq!(cc, reference::connected_components(&g));
        let pr = values(Algo::PageRank { iterations: 5 });
        let want = reference::pagerank(&g, 0.85, 5);
        for (a, b) in pr.iter().zip(&want) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn powergraph_beats_giraph_on_pagerank() {
        // Fig. 6b: PowerGraph is the fastest distributed baseline.
        let g = small();
        let pr = Algo::PageRank { iterations: 3 };
        let pg = run(&engine(), &g, pr).unwrap().report.elapsed;
        let giraph = BspEngine::new(ClusterConfig::paper_cluster(), FrameworkProfile::giraph());
        let giraph = run(&giraph, &g, pr).unwrap().report.elapsed;
        assert!(pg < giraph, "PowerGraph {pg:?} must beat Giraph {giraph:?}");
    }

    #[test]
    fn vertex_cut_uses_less_memory_than_bsp_on_skewed_graphs() {
        // C++ + vertex-cut: memory per node far below the JVM engines'.
        let g = small();
        let pr = Algo::PageRank { iterations: 1 };
        let gas = run(&engine(), &g, pr).unwrap().report.memory_peak;
        let bsp = BspEngine::new(ClusterConfig::paper_cluster(), FrameworkProfile::giraph());
        assert!(gas < run(&bsp, &g, pr).unwrap().report.memory_peak);
    }

    #[test]
    fn replication_factor_grows_sublinearly() {
        let rf30 = engine().replication_factor();
        let mut c = ClusterConfig::paper_cluster();
        c.nodes = 120;
        let rf120 = GasEngine::new(c).replication_factor();
        assert!(rf120 > rf30);
        assert!(rf120 < 4.0 * rf30, "√N growth, not linear");
    }

    #[test]
    fn ooms_when_partition_exceeds_node_memory() {
        let mut c = ClusterConfig::paper_cluster();
        c.memory_per_node = 1024;
        match run(
            &GasEngine::new(c),
            &small(),
            Algo::PageRank { iterations: 1 },
        ) {
            Err(BaselineError::OutOfMemory { engine, .. }) => assert_eq!(engine, "PowerGraph"),
            other => panic!("expected OOM, got {other:?}"),
        }
    }
}
