//! Warp-level work model: micro-level parallel processing techniques.
//!
//! Sec. 6.2 / Appendix E of the paper distinguish three ways a kernel can
//! map a slotted page onto GPU threads:
//!
//! * **Edge-centric (VWC)** — the threads of a (virtual) warp process one
//!   vertex's out-edges together. Cost per vertex: its adjacency list
//!   rounded up to whole warps — idle lanes on the last chunk waste ALUs,
//!   which hurts very sparse pages.
//! * **Vertex-centric** — each thread owns a whole vertex. Threads in a
//!   warp execute in lock-step, so a warp takes as long as its
//!   *highest-degree* member — workload imbalance hurts skewed pages.
//! * **Hybrid** — pick per page whichever of the two is cheaper, using the
//!   page's density (Sec. 6.2: "the kernel can apply a better/different
//!   technique to each page depending on the characteristics of the page").
//!
//! The unit produced here is a **lane-slot**: one SIMD lane occupied for
//! one edge-step (including forced-idle lanes). [`crate::timer::KernelCost`]
//! converts lane-slots to simulated time.

/// Hardware warp width (CUDA: 32 lanes).
pub const WARP_WIDTH: u32 = 32;

/// Which micro-level technique a kernel uses (Appendix E's sweep).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MicroTechnique {
    /// VWC edge-centric with the given virtual-warp width (the paper's
    /// default technique; virtual warps of 4/8/16/32 partition a physical
    /// warp).
    EdgeCentric {
        /// Virtual warp width in lanes (must divide [`WARP_WIDTH`]).
        virtual_warp: u32,
    },
    /// One thread per vertex.
    VertexCentric,
    /// Per-page choice of the cheaper of the two.
    Hybrid {
        /// Virtual warp width used when the edge-centric side is picked.
        virtual_warp: u32,
    },
}

impl MicroTechnique {
    /// The paper's default: VWC with 32-lane virtual warps.
    pub fn default_edge_centric() -> Self {
        MicroTechnique::EdgeCentric { virtual_warp: 32 }
    }

    /// Short name for experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            MicroTechnique::EdgeCentric { .. } => "edge-centric",
            MicroTechnique::VertexCentric => "vertex-centric",
            MicroTechnique::Hybrid { .. } => "hybrid",
        }
    }

    /// Lane-slots to process vertices with the given out-degrees under this
    /// technique. `degrees` holds only the *active* vertices of the page
    /// (for BFS-like kernels, the frontier members; for PageRank-like, all).
    pub fn lane_slots(&self, degrees: &[u32]) -> u64 {
        match *self {
            MicroTechnique::EdgeCentric { virtual_warp } => {
                edge_centric_slots(degrees, virtual_warp)
            }
            MicroTechnique::VertexCentric => vertex_centric_slots(degrees),
            MicroTechnique::Hybrid { virtual_warp } => {
                edge_centric_slots(degrees, virtual_warp).min(vertex_centric_slots(degrees))
            }
        }
    }
}

/// Edge-centric (VWC): each vertex's adjacency list is processed
/// `virtual_warp` lanes at a time; the last chunk pads with idle lanes.
///
/// # Panics
/// Panics unless `virtual_warp` is a divisor of [`WARP_WIDTH`] (the VWC
/// paper partitions physical warps into 4/8/16/32-lane virtual warps).
pub fn edge_centric_slots(degrees: &[u32], virtual_warp: u32) -> u64 {
    assert!(
        virtual_warp > 0 && WARP_WIDTH.is_multiple_of(virtual_warp),
        "virtual warp {virtual_warp} must divide {WARP_WIDTH}"
    );
    degrees
        .iter()
        .map(|&d| (d as u64).div_ceil(virtual_warp as u64) * virtual_warp as u64)
        .sum()
}

/// Vertex-centric: one thread per vertex; each group of [`WARP_WIDTH`]
/// consecutive vertices runs in lock-step, so the whole warp pays the
/// group's maximum degree on every lane.
pub fn vertex_centric_slots(degrees: &[u32]) -> u64 {
    degrees
        .chunks(WARP_WIDTH as usize)
        .map(|chunk| {
            // A partial final warp still locks all WARP_WIDTH lanes for the
            // group's maximum — the unfilled lanes are forced idle, and the
            // lane-slot unit counts idle lanes by definition.
            let max = chunk.iter().copied().max().unwrap_or(0) as u64;
            max * WARP_WIDTH as u64
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_centric_rounds_up_to_virtual_warps() {
        // deg 33 with 32-lane warps: two warp passes = 64 slots.
        assert_eq!(edge_centric_slots(&[33], 32), 64);
        // deg 1 still burns a whole virtual warp.
        assert_eq!(edge_centric_slots(&[1], 32), 32);
        assert_eq!(edge_centric_slots(&[1], 4), 4);
        assert_eq!(edge_centric_slots(&[0], 32), 0);
    }

    #[test]
    fn vertex_centric_pays_group_maximum() {
        // 32 vertices, one has degree 100, rest 1: the whole warp waits.
        let mut degs = vec![1u32; 32];
        degs[7] = 100;
        assert_eq!(vertex_centric_slots(&degs), 100 * 32);
        // Uniform degree-4 warp costs exactly the edges.
        assert_eq!(vertex_centric_slots(&[4; 32]), 4 * 32);
    }

    #[test]
    fn sparse_uniform_pages_favour_vertex_centric() {
        // Degree-2 vertices under 32-lane VWC waste 30 lanes each.
        let degs = vec![2u32; 64];
        let ec = edge_centric_slots(&degs, 32);
        let vc = vertex_centric_slots(&degs);
        assert!(vc < ec, "vc {vc} must beat ec {ec} on sparse uniform pages");
    }

    #[test]
    fn skewed_pages_favour_edge_centric() {
        // A hub with 10k edges among degree-2 vertices stalls whole warps
        // under vertex-centric.
        let mut degs = vec![2u32; 63];
        degs.push(10_000);
        let ec = edge_centric_slots(&degs, 32);
        let vc = vertex_centric_slots(&degs);
        assert!(ec < vc, "ec {ec} must beat vc {vc} on skewed pages");
    }

    #[test]
    fn hybrid_takes_the_minimum() {
        let sparse = vec![2u32; 64];
        let mut skewed = vec![2u32; 63];
        skewed.push(10_000);
        let hybrid = MicroTechnique::Hybrid { virtual_warp: 32 };
        assert_eq!(hybrid.lane_slots(&sparse), vertex_centric_slots(&sparse));
        assert_eq!(hybrid.lane_slots(&skewed), edge_centric_slots(&skewed, 32));
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn invalid_virtual_warp_rejected() {
        let _ = edge_centric_slots(&[1], 5);
    }

    #[test]
    fn names_for_tables() {
        assert_eq!(
            MicroTechnique::default_edge_centric().name(),
            "edge-centric"
        );
        assert_eq!(MicroTechnique::VertexCentric.name(), "vertex-centric");
        assert_eq!(MicroTechnique::Hybrid { virtual_warp: 8 }.name(), "hybrid");
    }
}
