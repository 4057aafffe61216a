//! GPU-memory-only engines: CuSha and MapGraph (Fig. 8).
//!
//! Both "can process only the graph data that can fit in GPU memory"
//! (Sec. 7.4). When the graph fits they are fast — no PCI-E streaming at
//! all — but their device-resident formats differ in space efficiency,
//! which is why MapGraph OOMs before CuSha ("the Market Matrix format of
//! MapGraph is less space-efficient than the G-Shard format of CuSha").

use crate::propagation::{Placement, PropagationTrace};
use crate::report::{fits, Algo, BaselineError, Cost, CostModel};
use gts_core::sweep::GpuLane;
use gts_gpu::timer::{GpuTimer, KernelCost};
use gts_gpu::{GpuConfig, PcieConfig};
use gts_graph::Csr;
use gts_sim::SimTime;

/// Space/speed profile of a GPU-resident format.
#[derive(Debug, Clone)]
pub struct GpuOnlyProfile {
    /// Engine name.
    pub name: &'static str,
    /// Device bytes per edge of the resident topology format.
    pub bytes_per_edge: u64,
    /// Extra device bytes per edge that PageRank needs (CuSha's G-Shards
    /// carry per-edge values; this is why "CuSha cannot process PageRank
    /// for all graphs tested" while its BFS fits Twitter).
    pub pagerank_edge_value_bytes: u64,
    /// Device bytes per vertex (index structures).
    pub bytes_per_vertex: u64,
    /// Kernel-time multiplier relative to the GTS kernel cost model
    /// (CuSha's shards give coalesced access → < 1 is not claimed; the
    /// paper found CuSha *slower* than GTS, so ≥ 1).
    pub kernel_multiplier: f64,
}

impl GpuOnlyProfile {
    /// CuSha (G-Shards): src + dst + value per shard entry.
    pub fn cusha() -> Self {
        GpuOnlyProfile {
            name: "CuSha",
            bytes_per_edge: 8,
            pagerank_edge_value_bytes: 8,
            bytes_per_vertex: 8,
            kernel_multiplier: 1.6,
        }
    }

    /// MapGraph (Market Matrix ingestion): least space-efficient.
    pub fn mapgraph() -> Self {
        GpuOnlyProfile {
            name: "MapGraph",
            bytes_per_edge: 24,
            pagerank_edge_value_bytes: 8,
            bytes_per_vertex: 12,
            kernel_multiplier: 1.9,
        }
    }
}

/// A GPU-memory-only engine.
#[derive(Debug, Clone)]
pub struct GpuOnlyEngine {
    /// Format/speed profile.
    pub profile: GpuOnlyProfile,
    /// GPU model.
    pub gpu: GpuConfig,
}

impl GpuOnlyEngine {
    /// Create an engine.
    pub fn new(profile: GpuOnlyProfile, gpu: GpuConfig) -> Self {
        GpuOnlyEngine { profile, gpu }
    }

    /// Device bytes `algo` needs for `g`: the resident format plus its
    /// working state — 2-byte levels, or for PageRank prevPR + nextPR
    /// (8 bytes/vertex, the reason "CuSha cannot process PageRank for all
    /// graphs tested") and per-edge values.
    pub fn memory_needed(&self, g: &Csr, algo: Algo) -> u64 {
        let (wa, edge_values) = match algo {
            Algo::PageRank { .. } => (8, self.profile.pagerank_edge_value_bytes),
            _ => (2, 0),
        };
        g.num_edges() as u64 * (self.profile.bytes_per_edge + edge_values)
            + g.num_vertices() as u64 * (self.profile.bytes_per_vertex + wa)
    }
}

impl CostModel for GpuOnlyEngine {
    fn name(&self) -> &str {
        self.profile.name
    }

    /// The whole graph resident in device memory.
    fn place(&self, g: &Csr, algo: Algo) -> Result<Placement, BaselineError> {
        let needed = self.memory_needed(g, algo);
        fits(self.profile.name, needed, self.gpu.device_memory)?;
        Ok(Placement::Single)
    }

    fn price(&self, g: &Csr, algo: Algo, trace: &PropagationTrace) -> Result<Cost, BaselineError> {
        // One uncached lane, one stream: each superstep is a single
        // whole-graph kernel with its inputs already resident — no PCI-E
        // streaming at all, the defining property of these engines. The
        // format's slower memory access shows up as extra lane-slots per
        // edge (`kernel_multiplier`); launch overhead comes from the lane's
        // timer, which never hides it because the kernels are sequential.
        let mut lane =
            GpuLane::uncached(GpuTimer::new(self.gpu.clone(), PcieConfig::gen3_x16(), 1));
        let mut t = SimTime::ZERO;
        let mut cost = Cost {
            memory_peak: self.memory_needed(g, algo),
            ..Cost::default()
        };
        for sweep in &trace.sweeps {
            let edges = sweep.total_edges();
            let kernel = KernelCost {
                class: algo.algorithm().class,
                lane_slots: (edges as f64 * self.profile.kernel_multiplier).round() as u64,
                atomic_ops: 0,
            };
            let k = lane
                .issue_kernel(kernel, t, self.profile.name)
                .expect("baselines run without fault injection");
            cost.sweeps.push((sweep.total_active(), edges, k.end - t));
            t = k.end;
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

    const BFS: Algo = Algo::Bfs { source: 0 };

    #[test]
    fn bfs_and_pagerank_match_reference() {
        let g = small();
        let e = GpuOnlyEngine::new(GpuOnlyProfile::cusha(), GpuConfig::titan_x());
        let bfs = run(&e, &g, BFS).unwrap();
        assert_eq!(values_to_u32(&bfs.values), reference::bfs(&g, 0));
        let pr = run(&e, &g, Algo::PageRank { iterations: 4 }).unwrap();
        for (a, b) in pr.values.iter().zip(&reference::pagerank(&g, 0.85, 4)) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn mapgraph_ooms_before_cusha() {
        // Sec. 7.4: MapGraph's format is less space-efficient.
        let g = small();
        let cusha = GpuOnlyEngine::new(GpuOnlyProfile::cusha(), GpuConfig::titan_x());
        let mapgraph = GpuOnlyEngine::new(GpuOnlyProfile::mapgraph(), GpuConfig::titan_x());
        let boundary = cusha.memory_needed(&g, BFS);
        let gpu = GpuConfig::titan_x().with_device_memory(boundary);
        let cusha_tight = GpuOnlyEngine::new(GpuOnlyProfile::cusha(), gpu.clone());
        assert!(run(&cusha_tight, &g, BFS).is_ok());
        assert!(matches!(
            run(
                &GpuOnlyEngine::new(GpuOnlyProfile::mapgraph(), gpu),
                &g,
                BFS
            ),
            Err(BaselineError::OutOfMemory { .. })
        ));
        assert!(mapgraph.memory_needed(&g, BFS) > cusha.memory_needed(&g, BFS));
    }

    #[test]
    fn pagerank_needs_more_memory_than_bfs() {
        let g = small();
        let pr = Algo::PageRank { iterations: 1 };
        let e = GpuOnlyEngine::new(GpuOnlyProfile::cusha(), GpuConfig::titan_x());
        assert!(e.memory_needed(&g, pr) > e.memory_needed(&g, BFS));
        // The peak a run reports is what its check demanded.
        let peak = run(&e, &g, pr).unwrap().report.memory_peak;
        assert_eq!(peak, e.memory_needed(&g, pr));
        // A device sized for BFS only must OOM on PageRank.
        let gpu = GpuConfig::titan_x().with_device_memory(e.memory_needed(&g, BFS));
        let tight = GpuOnlyEngine::new(GpuOnlyProfile::cusha(), gpu);
        assert!(run(&tight, &g, BFS).is_ok());
        assert!(run(&tight, &g, pr).is_err());
    }
}
