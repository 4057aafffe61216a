//! Out-of-core processing: a graph whose working set exceeds GPU device
//! memory, streamed from simulated PCI-E SSDs — the paper's headline
//! scenario ("process an RMAT32 graph in a single machine"), at the
//! workspace's 1/1024 scale.
//!
//! Shows the full decision tree:
//! 1. a CuSha-style GPU-memory-only engine OOMs;
//! 2. GTS Strategy-P OOMs once WA outgrows one device;
//! 3. GTS Strategy-S over two GPUs + two SSDs finishes.
//!
//! ```sh
//! cargo run --release -p gts-examples --example out_of_core_billion_edge
//! ```

use gts_baselines::gpu_only::{GpuOnlyEngine, GpuOnlyProfile};
use gts_baselines::{run, Algo};
use gts_core::engine::{Gts, GtsConfig, StorageLocation};
use gts_core::programs::PageRank;
use gts_core::Strategy;
use gts_gpu::GpuConfig;
use gts_graph::generate::Rmat;
use gts_graph::Csr;
use gts_storage::{build_graph_store, PageFormatConfig, PhysicalIdConfig};

fn main() {
    // RMAT21 here plays the paper's RMAT31 (2G vertices, 32G edges): too
    // big for the scaled device in any resident form.
    let graph = Rmat::new(21).generate();
    // 10 MiB device: PageRank WA for RMAT21 is 8.4 MiB, which plus the
    // streaming buffers exceeds one device but halves comfortably over two.
    let device = GpuConfig::titan_x().with_device_memory(10 << 20);
    println!(
        "graph: {} vertices, {} edges — stands in for the paper's RMAT31",
        graph.num_vertices,
        graph.num_edges()
    );

    // 1. GPU-memory-only engines need the whole graph resident: O.O.M.
    let csr = Csr::from_edge_list(&graph);
    let cusha = GpuOnlyEngine::new(GpuOnlyProfile::cusha(), device.clone());
    match run(&cusha, &csr, Algo::PageRank { iterations: 10 }) {
        Err(e) => println!("CuSha-style engine: {e}"),
        Ok(_) => unreachable!("graph cannot fit in device memory"),
    }

    // 2. Slotted pages on SSD + GTS. Strategy-P replicates the full WA per
    //    GPU — too large here.
    let store = build_graph_store(
        &graph,
        PageFormatConfig::new(PhysicalIdConfig::TRILLION, 64 * 1024),
    )
    .expect("(3,3) format holds the graph");
    println!(
        "store: {} pages on 2 simulated SSDs ({} MiB topology)",
        store.num_pages(),
        store.topology_bytes() >> 20
    );
    let p_cfg = GtsConfig {
        num_gpus: 2,
        strategy: Strategy::Performance,
        storage: StorageLocation::Ssds(2),
        mmbuf_percent: 20,
        gpu: device.clone(),
        ..GtsConfig::default()
    };
    let mut pr = PageRank::new(store.num_vertices(), 10);
    match Gts::new(p_cfg).run(&store, &mut pr) {
        Err(e) => println!("GTS Strategy-P: {e}"),
        Ok(_) => unreachable!("full WA replica cannot fit"),
    }

    // 3. Strategy-S partitions WA across the two GPUs and broadcasts the
    //    page stream: capacity scales with the number of GPUs (Sec. 4.2).
    let s_cfg = GtsConfig {
        num_gpus: 2,
        strategy: Strategy::Scalability,
        storage: StorageLocation::Ssds(2),
        mmbuf_percent: 20,
        gpu: device,
        ..GtsConfig::default()
    };
    let mut pr = PageRank::new(store.num_vertices(), 10);
    let report = Gts::new(s_cfg)
        .run(&store, &mut pr)
        .expect("Strategy-S fits");
    println!(
        "GTS Strategy-S: 10 PageRank iterations in simulated {} \
         ({} pages streamed, {:.1} GiB over PCI-E)",
        report.elapsed,
        report.pages_streamed,
        report.total_bytes_h2d() as f64 / (1u64 << 30) as f64
    );
    let sum: f64 = pr.ranks().iter().map(|&r| r as f64).sum();
    println!("rank mass retained: {sum:.4} (dangling vertices leak, as in the paper's kernel)");
}
