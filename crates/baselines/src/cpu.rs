//! Shared-memory CPU engines (the paper's Fig. 7 comparators).
//!
//! One engine, four profiles:
//!
//! * **Ligra** — frontier-based; needs CSR *and* its transpose in memory
//!   (the transpose serves Ligra's dense direction, whose cost the model
//!   does not price separately).
//! * **Ligra+** — Ligra with compressed adjacency (smaller footprint,
//!   slight per-edge decode cost).
//! * **Galois** — fast native work-item scheduler; frontier-based, CSR only.
//! * **MTGL** — the multithreaded graph library baseline: no frontier
//!   optimisation, every sweep scans all vertices ("Galois, Ligra and
//!   Ligra+ have significantly outperformed MTGL", Sec. 7.3).
//!
//! All four must hold the whole graph in host memory — which is exactly
//! why the paper's Fig. 7 has no CPU bars for RMAT29+ ("the CPU-based
//! methods cannot load data into main memory").

use crate::propagation::{Placement, PropagationTrace};
use crate::report::{fits, Algo, BaselineError, Cost, CostModel};
use gts_graph::Csr;
use gts_sim::SimDuration;

/// Cost/architecture profile of one CPU engine.
#[derive(Debug, Clone)]
pub struct CpuProfile {
    /// Engine name.
    pub name: &'static str,
    /// Nanoseconds per edge on one core.
    pub per_edge_ns: f64,
    /// Nanoseconds per scanned vertex on one core.
    pub per_vertex_ns: f64,
    /// Whether the engine only touches frontier vertices (Ligra/Galois) or
    /// scans everything each sweep (MTGL).
    pub frontier_based: bool,
    /// Whether the dense direction needs the transposed graph resident.
    pub needs_transpose: bool,
    /// Bytes per edge of the in-memory representation.
    pub memory_bytes_per_edge: u64,
    /// Per-sweep scheduling overhead.
    pub sweep_overhead: SimDuration,
}

impl CpuProfile {
    /// Ligra (Shun & Blelloch).
    ///
    /// Constants calibrated against the paper's Fig. 7: on Twitter-class
    /// graphs Ligra's BFS lands within ~2x of GTS (either may win
    /// slightly) while its PageRank trails GTS by ~4-5x.
    pub fn ligra() -> Self {
        CpuProfile {
            name: "Ligra",
            per_edge_ns: 30.0,
            per_vertex_ns: 4.0,
            frontier_based: true,
            needs_transpose: true,
            memory_bytes_per_edge: 8,
            sweep_overhead: SimDuration::from_micros(120),
        }
    }

    /// Ligra+ (compressed graphs: ~half the memory, ~15 % decode cost).
    pub fn ligra_plus() -> Self {
        CpuProfile {
            name: "Ligra+",
            per_edge_ns: 34.0,
            per_vertex_ns: 4.0,
            frontier_based: true,
            needs_transpose: true,
            memory_bytes_per_edge: 4,
            sweep_overhead: SimDuration::from_micros(120),
        }
    }

    /// Galois (Nguyen et al.).
    pub fn galois() -> Self {
        CpuProfile {
            name: "Galois",
            per_edge_ns: 32.0,
            per_vertex_ns: 6.0,
            frontier_based: true,
            needs_transpose: false,
            memory_bytes_per_edge: 8,
            sweep_overhead: SimDuration::from_micros(250),
        }
    }

    /// MTGL (Barrett et al.) — no frontier optimisation.
    pub fn mtgl() -> Self {
        CpuProfile {
            name: "MTGL",
            per_edge_ns: 110.0,
            per_vertex_ns: 20.0,
            frontier_based: false,
            needs_transpose: false,
            memory_bytes_per_edge: 16,
            sweep_overhead: SimDuration::from_millis(1),
        }
    }
}

/// A shared-memory CPU engine on the paper's workstation (two 8-core
/// Xeons, 16 threads with HT off, 128 GB of memory — Sec. 7.1).
#[derive(Debug, Clone)]
pub struct CpuEngine {
    /// Cost profile.
    pub profile: CpuProfile,
    /// Worker threads of the *simulated* machine (the paper fixes 16);
    /// feeds the cost model only.
    pub threads: u32,
    /// Host memory in bytes.
    pub host_memory: u64,
}

impl CpuEngine {
    /// An engine with the paper's workstation parameters.
    pub fn new(profile: CpuProfile) -> Self {
        CpuEngine {
            profile,
            threads: 16,
            host_memory: 128 << 30,
        }
    }

    /// Scale host memory by `1/div` (regime scaling, DESIGN.md §1).
    pub fn with_scaled_memory(mut self, div: u64) -> Self {
        self.host_memory = (128u64 << 30) / div.max(1);
        self
    }

    /// Bytes the engine needs resident for `g`.
    pub fn memory_needed(&self, g: &Csr) -> u64 {
        let direction_copies = if self.profile.needs_transpose { 2 } else { 1 };
        g.num_edges() as u64 * self.profile.memory_bytes_per_edge * direction_copies
            + g.num_vertices() as u64 * 16
    }
}

impl CostModel for CpuEngine {
    fn name(&self) -> &str {
        self.profile.name
    }

    /// The whole graph in host memory, one shared partition.
    fn place(&self, g: &Csr, _algo: Algo) -> Result<Placement, BaselineError> {
        fits(self.profile.name, self.memory_needed(g), self.host_memory)?;
        Ok(Placement::Single)
    }

    fn price(&self, g: &Csr, _algo: Algo, trace: &PropagationTrace) -> Result<Cost, BaselineError> {
        let p = &self.profile;
        let mut cost = Cost {
            memory_peak: self.memory_needed(g),
            ..Cost::default()
        };
        for sweep in &trace.sweeps {
            let load = &sweep.nodes[0];
            let (vertices, edges) = if p.frontier_based {
                (load.active_vertices, load.edges)
            } else {
                // MTGL-style: every sweep visits everything.
                (g.num_vertices() as u64, g.num_edges() as u64)
            };
            let work_ns = edges as f64 * p.per_edge_ns + vertices as f64 * p.per_vertex_ns;
            let step =
                SimDuration::from_secs_f64(work_ns / self.threads as f64 / 1e9) + p.sweep_overhead;
            cost.sweeps.push((vertices, edges, step));
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
    fn all_profiles_match_reference_bfs() {
        let g = small();
        let want = reference::bfs(&g, 0);
        for p in [
            CpuProfile::ligra(),
            CpuProfile::ligra_plus(),
            CpuProfile::galois(),
            CpuProfile::mtgl(),
        ] {
            let r = run(&CpuEngine::new(p), &g, BFS).unwrap();
            assert_eq!(values_to_u32(&r.values), want);
        }
    }

    #[test]
    fn pagerank_and_cc_and_sssp_match_reference() {
        let g = small();
        let e = CpuEngine::new(CpuProfile::ligra());
        let pr = run(&e, &g, Algo::PageRank { iterations: 4 }).unwrap();
        for (a, b) in pr.values.iter().zip(&reference::pagerank(&g, 0.85, 4)) {
            assert!((a - b).abs() < 1e-12);
        }
        let cc = run(&e, &g, Algo::Cc).unwrap();
        assert_eq!(
            values_to_u32(&cc.values),
            reference::connected_components(&g)
        );
        let sssp = run(&e, &g, Algo::Sssp { source: 0 }).unwrap();
        assert_eq!(values_to_u32(&sssp.values), reference::sssp(&g, 0));
    }

    #[test]
    fn mtgl_is_much_slower_than_ligra() {
        // Fig. 7's headline: frontier engines dominate MTGL.
        let g = small();
        let elapsed = |p| run(&CpuEngine::new(p), &g, BFS).unwrap().report.elapsed;
        assert!(elapsed(CpuProfile::mtgl()) > elapsed(CpuProfile::ligra()) * 3);
    }

    #[test]
    fn ligra_plus_fits_where_ligra_ooms() {
        // Compression halves the footprint — the reason Ligra+ exists.
        let g = small();
        let needed_ligra = CpuEngine::new(CpuProfile::ligra()).memory_needed(&g);
        let mut ligra = CpuEngine::new(CpuProfile::ligra());
        ligra.host_memory = needed_ligra - 1;
        let mut plus = CpuEngine::new(CpuProfile::ligra_plus());
        plus.host_memory = needed_ligra - 1;
        assert!(matches!(
            run(&ligra, &g, BFS),
            Err(BaselineError::OutOfMemory { .. })
        ));
        assert!(run(&plus, &g, BFS).is_ok());
    }

    #[test]
    fn oom_names_engine() {
        let g = small();
        let mut e = CpuEngine::new(CpuProfile::galois());
        e.host_memory = 16;
        match run(&e, &g, Algo::PageRank { iterations: 1 }) {
            Err(BaselineError::OutOfMemory { engine, .. }) => assert_eq!(engine, "Galois"),
            other => panic!("expected OOM, got {other:?}"),
        }
    }

    #[test]
    fn cc_checks_memory_against_the_symmetrised_graph() {
        // CC runs on the symmetrised graph, so that is what must fit.
        let g = small();
        let mut e = CpuEngine::new(CpuProfile::galois());
        e.host_memory = e.memory_needed(&g.symmetrize()) - 1;
        assert!(e.memory_needed(&g) <= e.host_memory);
        assert!(matches!(
            run(&e, &g, Algo::Cc),
            Err(BaselineError::OutOfMemory { .. })
        ));
    }
}
