//! Pregel-family BSP engines (Giraph / GraphX / Naiad) on the simulated
//! cluster.
//!
//! Vertices are hash-partitioned across nodes; each superstep runs vertex
//! kernels on every node in parallel, exchanges messages, and barriers —
//! the Bulk-Synchronous Parallel model the paper describes in its
//! introduction. One engine serves all three frameworks via
//! [`FrameworkProfile`] cost coefficients (DESIGN.md §1 documents this
//! substitution).
//!
//! The architectural facts that drive Fig. 6's shape live here:
//!
//! * supersteps are gated by the **most loaded node** (skew hurts),
//! * every cross-partition edge pays **network bytes**,
//! * each node must hold its graph partition *plus* buffered messages in
//!   memory — exceeding it is the figures' `O.O.M.`.

use crate::cluster::{ClusterConfig, FrameworkProfile};
use crate::propagation::{Placement, PropagationTrace};
use crate::report::{fits, Algo, BaselineError, Cost, CostModel};
use gts_graph::Csr;
use gts_sim::SimDuration;

/// A BSP engine instance.
#[derive(Debug, Clone)]
pub struct BspEngine {
    /// Cluster hardware.
    pub cluster: ClusterConfig,
    /// Framework cost profile.
    pub profile: FrameworkProfile,
}

impl BspEngine {
    /// Create an engine for `profile` on `cluster`.
    pub fn new(cluster: ClusterConfig, profile: FrameworkProfile) -> Self {
        BspEngine { cluster, profile }
    }
}

impl CostModel for BspEngine {
    fn name(&self) -> &str {
        self.profile.name
    }

    /// Hash partitioning; the memory check waits for the message buffers.
    fn place(&self, _g: &Csr, _algo: Algo) -> Result<Placement, BaselineError> {
        Ok(Placement::Hash(self.cluster.nodes))
    }

    fn price(&self, g: &Csr, _algo: Algo, trace: &PropagationTrace) -> Result<Cost, BaselineError> {
        let p = &self.profile;
        let c = &self.cluster;
        let nodes = c.nodes as u64;

        // Static partition footprint on the most loaded node (hash
        // partitioning balances within ~1 page, so mean is a fair proxy).
        let part_edges = (g.num_edges() as u64).div_ceil(nodes);
        let part_vertices = (g.num_vertices() as u64).div_ceil(nodes);
        let graph_bytes =
            part_edges * p.memory_bytes_per_edge + part_vertices * p.memory_bytes_per_vertex;

        let mut cost = Cost {
            memory_peak: graph_bytes,
            ..Cost::default()
        };
        for sweep in &trace.sweeps {
            let mut compute_max = SimDuration::ZERO;
            let mut net_max = SimDuration::ZERO;
            for load in &sweep.nodes {
                let work_ns = (load.edges + load.msgs_in) as f64 * p.per_edge_ns
                    + load.active_vertices as f64 * p.per_vertex_ns;
                let compute = SimDuration::from_secs_f64(work_ns / c.cores_per_node as f64 / 1e9);
                compute_max = compute_max.max(compute);
                let bytes_in = load.remote_msgs_in * p.bytes_per_message;
                cost.network_bytes += bytes_in;
                net_max = net_max.max(c.network_bw.transfer_time(bytes_in));
                // Messages are buffered per node before the barrier.
                let needed = graph_bytes + load.msgs_in * p.bytes_per_message;
                cost.memory_peak = cost.memory_peak.max(needed);
                fits(p.name, needed, c.memory_per_node)?;
            }
            let step = compute_max + net_max + c.network_latency + p.superstep_overhead;
            cost.sweeps
                .push((sweep.total_active(), sweep.total_edges(), step));
        }
        Ok(cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{run, values_to_u32};
    use gts_graph::generate::rmat;
    use gts_graph::reference;

    fn small() -> Csr {
        Csr::from_edge_list(&rmat(8))
    }

    fn engine() -> BspEngine {
        BspEngine::new(ClusterConfig::paper_cluster(), FrameworkProfile::giraph())
    }

    #[test]
    fn bfs_matches_reference() {
        let g = small();
        let r = run(&engine(), &g, Algo::Bfs { source: 0 }).unwrap();
        assert_eq!(values_to_u32(&r.values), reference::bfs(&g, 0));
        assert!(r.report.elapsed.as_nanos() > 0);
        assert!(
            r.report.network_bytes > 0,
            "hash partitioning must cross nodes"
        );
    }

    #[test]
    fn sssp_matches_reference() {
        let g = small();
        let r = run(&engine(), &g, Algo::Sssp { source: 0 }).unwrap();
        assert_eq!(values_to_u32(&r.values), reference::sssp(&g, 0));
    }

    #[test]
    fn cc_matches_reference() {
        let g = small();
        let r = run(&engine(), &g, Algo::Cc).unwrap();
        assert_eq!(
            values_to_u32(&r.values),
            reference::connected_components(&g)
        );
    }

    #[test]
    fn pagerank_matches_reference() {
        let g = small();
        let r = run(&engine(), &g, Algo::PageRank { iterations: 5 }).unwrap();
        let want = reference::pagerank(&g, 0.85, 5);
        for (a, b) in r.values.iter().zip(&want) {
            assert!((a - b).abs() < 1e-12);
        }
        assert_eq!(r.report.sweeps, 5);
    }

    #[test]
    fn giraph_is_slower_than_powergraph_profiles_under_bsp() {
        // Same engine, different coefficients: the per-framework ordering
        // must carry through to elapsed time.
        let g = small();
        let pr = Algo::PageRank { iterations: 3 };
        let giraph = run(&engine(), &g, pr).unwrap().report.elapsed;
        let fast = BspEngine::new(
            ClusterConfig::paper_cluster(),
            FrameworkProfile::powergraph(),
        );
        assert!(run(&fast, &g, pr).unwrap().report.elapsed < giraph);
    }

    #[test]
    fn small_node_memory_ooms() {
        let mut cluster = ClusterConfig::paper_cluster();
        cluster.memory_per_node = 4 * 1024; // 4 KiB per node
        let e = BspEngine::new(cluster, FrameworkProfile::giraph());
        match run(&e, &small(), Algo::PageRank { iterations: 2 }) {
            Err(BaselineError::OutOfMemory { engine, .. }) => assert_eq!(engine, "Giraph"),
            other => panic!("expected OOM, got {other:?}"),
        }
    }

    #[test]
    fn superstep_overhead_dominates_deep_traversals() {
        // A long path: one vertex per level. BSP pays the superstep
        // overhead per level, so elapsed grows with depth.
        let mut edges = Vec::new();
        for v in 0..200u32 {
            edges.push((v, v + 1));
        }
        let g = Csr::from_edge_list(&gts_graph::EdgeList::new(201, edges));
        let r = run(&engine(), &g, Algo::Bfs { source: 0 }).unwrap();
        let min_expected = engine().profile.superstep_overhead * 200;
        assert!(r.report.elapsed >= min_expected);
    }
}
