//! TOTEM-like hybrid CPU+GPU engine (Gharaibeh et al.), the paper's main
//! GPU-side comparator (Fig. 8, Table 5).
//!
//! TOTEM partitions the graph once: a GPU partition sized to fit device
//! memory and a CPU partition processed by host threads, with boundary
//! updates exchanged over PCI-E every superstep. Its three drawbacks, all
//! reproduced here, are the paper's Sec. 8 critique:
//!
//! 1. the CPU partition is processed by *slow* cores, and its share grows
//!    with graph size (GPU capacity is fixed) — underutilising the GPU;
//! 2. performance depends on a per-algorithm, per-dataset partition-ratio
//!    option (Table 5 / Appendix C) — [`Totem::best_ratio`] sweeps it;
//! 3. the whole graph must still fit in *host* memory as one contiguous
//!    in-memory structure — TOTEM "cannot process RMAT30-32".

use crate::propagation::{Placement, PropagationTrace};
use crate::report::{fits, run, Algo, BaselineError, Cost, CostModel};
use gts_core::sweep::GpuLane;
use gts_gpu::timer::{GpuTimer, KernelCost};
use gts_gpu::{GpuConfig, PcieConfig};
use gts_graph::Csr;
use gts_sim::{SimDuration, SimTime};

/// TOTEM configuration.
#[derive(Debug, Clone)]
pub struct TotemConfig {
    /// GPU model (kernel rates, device memory).
    pub gpu: GpuConfig,
    /// PCI-E link for boundary synchronisation.
    pub pcie: PcieConfig,
    /// Host memory (must hold the whole graph).
    pub host_memory: u64,
    /// Host threads.
    pub threads: u32,
    /// Host nanoseconds per edge per core.
    pub cpu_per_edge_ns: f64,
    /// Fraction of edges placed on the GPU (Table 5's GPU%), before
    /// clamping to what device memory allows.
    pub gpu_fraction: f64,
}

impl TotemConfig {
    /// The paper's workstation with a given GPU.
    pub fn new(gpu: GpuConfig) -> Self {
        TotemConfig {
            gpu,
            pcie: PcieConfig::gen3_x16(),
            host_memory: 128 << 30,
            threads: 16,
            cpu_per_edge_ns: 30.0,
            gpu_fraction: 0.5,
        }
    }

    /// Scale host memory by `1/div`.
    pub fn with_scaled_host_memory(mut self, div: u64) -> Self {
        self.host_memory = (128u64 << 30) / div.max(1);
        self
    }

    /// Set the GPU partition ratio.
    pub fn with_gpu_fraction(mut self, f: f64) -> Self {
        self.gpu_fraction = f.clamp(0.0, 1.0);
        self
    }
}

/// In-memory bytes per edge of TOTEM's CSR-like representation.
const HOST_BYTES_PER_EDGE: u64 = 8;
/// Device bytes per edge of the GPU partition.
const DEV_BYTES_PER_EDGE: u64 = 8;
/// Device bytes per vertex of state (levels/ranks for all vertices are
/// visible to the GPU partition for boundary reads).
const DEV_BYTES_PER_VERTEX: u64 = 8;

/// The TOTEM engine.
#[derive(Debug, Clone)]
pub struct Totem {
    cfg: TotemConfig,
}

impl Totem {
    /// Create an engine.
    pub fn new(cfg: TotemConfig) -> Self {
        Totem { cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TotemConfig {
        &self.cfg
    }

    /// Lane-slots per edge of a bulk (whole-partition) kernel: TOTEM's big
    /// kernels saturate the device the same way GTS's 32 concurrent
    /// page-kernels do, so the ≈1.5 VWC lane-slots per edge spread over
    /// the device's concurrent kernel slots.
    fn bulk_slots_per_edge(&self) -> f64 {
        1.5 / self.cfg.gpu.max_concurrent_kernels as f64
    }

    /// Sweep the partition ratio and return `(best_fraction, elapsed)` for
    /// `algo` — how Table 5's recommended options were found.
    pub fn best_ratio(
        &self,
        g: &Csr,
        candidates: &[f64],
        algo: Algo,
    ) -> Result<(f64, SimDuration), BaselineError> {
        let mut best: Option<(f64, SimDuration)> = None;
        for &f in candidates {
            let engine = Totem::new(self.cfg.clone().with_gpu_fraction(f));
            let elapsed = run(&engine, g, algo)?.report.elapsed;
            if best.map(|(_, t)| elapsed < t).unwrap_or(true) {
                best = Some((f, elapsed));
            }
        }
        Ok(best.expect("at least one candidate"))
    }

    /// Actual fraction of edges on the GPU after capacity clamping.
    pub fn effective_gpu_fraction(&self, g: &Csr) -> Result<f64, BaselineError> {
        let split = self.split_vertex(g)?;
        let offsets = g.offsets();
        Ok(offsets[split as usize] as f64 / g.num_edges().max(1) as f64)
    }

    /// The whole graph as one contiguous host structure.
    fn host_needed(g: &Csr) -> u64 {
        g.num_edges() as u64 * HOST_BYTES_PER_EDGE + g.num_vertices() as u64 * 8
    }

    /// Pick the vertex boundary so the GPU partition holds ~`gpu_fraction`
    /// of the edges, clamped by device memory; verifies host capacity.
    fn split_vertex(&self, g: &Csr) -> Result<u32, BaselineError> {
        fits("TOTEM", Self::host_needed(g), self.cfg.host_memory)?;
        // Device budget for topology after the full state vector.
        let state = g.num_vertices() as u64 * DEV_BYTES_PER_VERTEX;
        let budget = self.cfg.gpu.device_memory.saturating_sub(state);
        let max_dev_edges = budget / DEV_BYTES_PER_EDGE;
        let want_edges = ((g.num_edges() as f64 * self.cfg.gpu_fraction) as u64).min(max_dev_edges);
        // Largest split with prefix-edges <= want_edges.
        let offsets = g.offsets();
        let split = offsets.partition_point(|&o| o <= want_edges) - 1;
        Ok(split as u32)
    }
}

impl CostModel for Totem {
    fn name(&self) -> &str {
        "TOTEM"
    }

    /// GPU partition below the split vertex, CPU partition above it.
    fn place(&self, g: &Csr, _algo: Algo) -> Result<Placement, BaselineError> {
        Ok(Placement::TwoWay(self.split_vertex(g)?))
    }

    /// `network_bytes` is the boundary exchange over PCI-E.
    fn price(&self, g: &Csr, algo: Algo, trace: &PropagationTrace) -> Result<Cost, BaselineError> {
        let c = &self.cfg;
        let mut slots_per_edge = self.bulk_slots_per_edge();
        if let Algo::Bc { .. } = algo {
            // Brandes' heavier per-edge arithmetic: 1.5× the lane-slots of
            // a plain traversal.
            slots_per_edge *= 1.5;
        }
        // One uncached lane, one stream: the GPU partition runs one bulk
        // kernel per superstep, then the boundary values cross PCI-E as a
        // blocking chunk copy once the CPU partition has also finished.
        let mut lane = GpuLane::uncached(GpuTimer::new(c.gpu.clone(), c.pcie.clone(), 1));
        let mut t = SimTime::ZERO;
        let mut cost = Cost {
            memory_peak: Self::host_needed(g),
            ..Cost::default()
        };
        for sweep in &trace.sweeps {
            let gpu_load = &sweep.nodes[0];
            let cpu_load = &sweep.nodes[1];
            let kernel = KernelCost {
                class: algo.algorithm().class,
                lane_slots: (gpu_load.edges as f64 * slots_per_edge).round() as u64,
                atomic_ops: 0,
            };
            let k = lane
                .issue_kernel(kernel, t, "bulk")
                .expect("baselines run without fault injection");
            let cpu_end = t + SimDuration::from_secs_f64(
                cpu_load.edges as f64 * c.cpu_per_edge_ns / c.threads as f64 / 1e9,
            );
            // Boundary values cross PCI-E both ways each superstep.
            let boundary = (gpu_load.remote_msgs_in + cpu_load.remote_msgs_in) * 8;
            cost.network_bytes += boundary;
            let sync = lane.write_back(boundary, k.end.max(cpu_end));
            cost.sweeps
                .push((sweep.total_active(), sweep.total_edges(), sync.end - t));
            t = sync.end;
        }
        Ok(cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::values_to_u32;
    use gts_graph::generate::rmat;
    use gts_graph::reference;

    fn small() -> Csr {
        Csr::from_edge_list(&rmat(8))
    }

    fn engine() -> Totem {
        Totem::new(TotemConfig::new(GpuConfig::titan_x()))
    }

    const PR3: Algo = Algo::PageRank { iterations: 3 };

    #[test]
    fn results_match_reference() {
        let g = small();
        let levels = |algo| values_to_u32(&run(&engine(), &g, algo).unwrap().values);
        assert_eq!(levels(Algo::Bfs { source: 0 }), reference::bfs(&g, 0));
        assert_eq!(levels(Algo::Sssp { source: 0 }), reference::sssp(&g, 0));
        assert_eq!(levels(Algo::Cc), reference::connected_components(&g));
        let pr = run(&engine(), &g, Algo::PageRank { iterations: 4 }).unwrap();
        for (a, b) in pr.values.iter().zip(&reference::pagerank(&g, 0.85, 4)) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn bc_matches_reference() {
        let g = small();
        let r = run(&engine(), &g, Algo::Bc { source: 0 }).unwrap();
        let want = reference::betweenness(&g, &[0]);
        for (a, b) in r.values.iter().zip(&want) {
            assert!((a - b).abs() < 1e-9);
        }
        assert!(r.report.elapsed.as_nanos() > 0);
    }

    #[test]
    fn tiny_device_memory_clamps_gpu_partition() {
        // 8 KiB device: after 2 KiB of state, only ~768 edges fit — far
        // fewer than RMAT8's 4096.
        let mut cfg = TotemConfig::new(GpuConfig::titan_x().with_device_memory(8 * 1024));
        cfg.gpu_fraction = 1.0;
        let totem = Totem::new(cfg);
        let g = small();
        let frac = totem.effective_gpu_fraction(&g).unwrap();
        assert!(
            frac < 0.5,
            "device memory must clamp the partition, got {frac}"
        );
    }

    #[test]
    fn larger_cpu_share_is_slower() {
        // Underutilising the GPU costs time — drawback (1). Needs a graph
        // large enough that edge work dominates launch overheads.
        let g = Csr::from_edge_list(&rmat(13));
        let elapsed = |f| {
            let totem = Totem::new(TotemConfig::new(GpuConfig::titan_x()).with_gpu_fraction(f));
            run(&totem, &g, PR3).unwrap().report.elapsed
        };
        assert!(elapsed(0.95) < elapsed(0.05));
    }

    #[test]
    fn host_memory_gates_the_whole_graph() {
        // Drawback (3): contiguous in-memory format.
        let g = small();
        let mut cfg = TotemConfig::new(GpuConfig::titan_x());
        cfg.host_memory = 1024;
        match run(&Totem::new(cfg), &g, Algo::Bfs { source: 0 }) {
            Err(BaselineError::OutOfMemory { engine, .. }) => assert_eq!(engine, "TOTEM"),
            other => panic!("expected OOM, got {other:?}"),
        }
    }

    #[test]
    fn best_ratio_prefers_more_gpu_when_it_fits() {
        let g = Csr::from_edge_list(&rmat(13));
        let (frac, _) = engine().best_ratio(&g, &[0.1, 0.5, 0.9], PR3).unwrap();
        assert!(frac >= 0.5, "GPU-heavy ratios should win, got {frac}");
    }
}
