//! The 1/1024 scale mapping and pre-configured engines.
//!
//! | Quantity | Paper | Here |
//! |---|---|---|
//! | RMAT scale | 27..32 | 17..22 |
//! | GPU device memory | 12 GiB | 12 MiB |
//! | Host memory (workstation) | 128 GiB | 128 MiB |
//! | Cluster node memory | 64 GiB | 64 MiB |
//! | Page size ((2,2) datasets) | ~1 MiB | 64 KiB |
//! | Bandwidths (PCI-E, SSD, network) | unscaled | unscaled |
//!
//! With these numbers the paper's qualitative boundaries reproduce:
//! Strategy-P PageRank OOMs beyond our RMAT20/21 (paper: beyond RMAT30),
//! TOTEM's contiguous host CSR dies at our RMAT20 (paper: RMAT30), the
//! CPU engines die at our RMAT19 (paper: RMAT29), the JVM cluster engines
//! die around our RMAT20/21 (paper: RMAT30/31) and PowerGraph one scale
//! later.

use gts_baselines::bsp::BspEngine;
use gts_baselines::cluster::{ClusterConfig, FrameworkProfile};
use gts_baselines::cpu::{CpuEngine, CpuProfile};
use gts_baselines::gas::GasEngine;
use gts_baselines::totem::TotemConfig;
use gts_core::engine::GtsConfig;
use gts_gpu::GpuConfig;
use gts_graph::Dataset;
use gts_storage::{PageFormatConfig, PhysicalIdConfig};

/// log2 of the scale factor: capacities ÷ 2^10, RMAT scales − 10.
pub const SCALE_SHIFT: u32 = 10;

/// Scaled GPU device memory (TITAN X 12 GiB → 12 MiB).
pub const DEVICE_MEMORY: u64 = 12 << 20;

/// Paper-equivalent RMAT scale for one of ours.
pub fn paper_rmat(ours: u32) -> u32 {
    ours + SCALE_SHIFT
}

/// The paper's name for the dataset `d` stands in for.
pub fn paper_name(d: Dataset) -> String {
    match d {
        Dataset::Rmat(s) => format!("RMAT{}", paper_rmat(s)),
        Dataset::TwitterLike => "Twitter".into(),
        Dataset::Uk2007Like => "UK2007".into(),
        Dataset::YahooWebLike => "YahooWeb".into(),
    }
}

/// The scaled GPU.
pub fn gpu() -> GpuConfig {
    GpuConfig::titan_x().with_device_memory(DEVICE_MEMORY)
}

/// The page format used for the smaller datasets (paper's (2,2)).
pub fn page_format_small() -> PageFormatConfig {
    PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 64 * 1024)
}

/// Format choice per dataset, mirroring the paper's Table 3 policy
/// ((2,2) for real graphs and RMAT up to 29; (3,3) trillion-scale
/// addressing for RMAT30-32, with pages still 64 KiB so the streaming
/// buffers take the paper's share of device memory).
pub fn page_format_for(d: Dataset) -> PageFormatConfig {
    // Exhaustive on purpose: a new dataset variant must consciously pick
    // its addressing class instead of silently inheriting (2,2).
    match d {
        Dataset::Rmat(s) if s >= 20 => PageFormatConfig::new(PhysicalIdConfig::TRILLION, 64 << 10),
        Dataset::Rmat(_) | Dataset::TwitterLike | Dataset::Uk2007Like | Dataset::YahooWebLike => {
            page_format_small()
        }
    }
}

/// The default scaled GTS engine configuration (1 GPU, 16 streams,
/// in-memory topology).
pub fn gts_config() -> GtsConfig {
    GtsConfig {
        gpu: gpu(),
        ..GtsConfig::default()
    }
}

/// The scaled cluster for the distributed baselines.
pub fn cluster() -> ClusterConfig {
    ClusterConfig::scaled(1 << SCALE_SHIFT)
}

/// A distributed engine on the scaled cluster, its framework profile's
/// fixed per-superstep cost scaled to match the workload.
pub fn bsp(p: FrameworkProfile) -> BspEngine {
    BspEngine::new(cluster(), p.scaled(1 << SCALE_SHIFT))
}

/// PowerGraph, the vertex-cut GAS engine, scaled likewise.
pub fn powergraph() -> GasEngine {
    let mut gas = GasEngine::new(cluster());
    gas.profile = gas.profile.scaled(1 << SCALE_SHIFT);
    gas
}

/// A scaled CPU engine for the given profile.
pub fn cpu_engine(profile: CpuProfile) -> CpuEngine {
    CpuEngine::new(profile).with_scaled_memory(1 << SCALE_SHIFT)
}

/// A scaled TOTEM configuration.
pub fn totem_config() -> TotemConfig {
    TotemConfig::new(gpu()).with_scaled_host_memory(1 << SCALE_SHIFT)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mapping_is_consistent() {
        assert_eq!(paper_rmat(22), 32);
        assert_eq!(DEVICE_MEMORY, (12u64 << 30) >> SCALE_SHIFT);
        assert_eq!(cluster().memory_per_node, (64u64 << 30) >> SCALE_SHIFT);
    }

    #[test]
    fn formats_follow_table3_policy() {
        assert_eq!(
            page_format_for(Dataset::Rmat(18)).id,
            PhysicalIdConfig::ORIGINAL
        );
        assert_eq!(
            page_format_for(Dataset::Rmat(21)).id,
            PhysicalIdConfig::TRILLION
        );
        assert_eq!(
            page_format_for(Dataset::TwitterLike).id,
            PhysicalIdConfig::ORIGINAL
        );
    }
}
