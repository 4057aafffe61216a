//! Quickstart: build a graph, convert it to the slotted page format, and
//! run BFS and PageRank through the GTS engine on one simulated GPU.
//!
//! ```sh
//! cargo run --release -p gts-examples --example quickstart
//! ```

use gts_core::programs::{Bfs, PageRank};
use gts_core::{Engine, GtsConfig, JobOptions, Telemetry};
use gts_graph::generate::rmat;
use gts_graph::{reference, Csr};
use gts_storage::{build_graph_store, PageFormatConfig};

fn main() {
    // 1. A synthetic power-law graph: RMAT scale 14 (16k vertices, 262k
    //    edges), the same generator family as the paper's datasets.
    let graph = rmat(14);
    println!(
        "graph: {} vertices, {} edges (density {:.1})",
        graph.num_vertices,
        graph.num_edges(),
        graph.density()
    );

    // 2. Convert to the out-of-core slotted page format (Sec. 2): 64 KiB
    //    pages, (2,2)-byte physical IDs.
    let store = build_graph_store(&graph, PageFormatConfig::small_default())
        .expect("graph fits the (2,2) format");
    println!(
        "store: {} small pages, {} large pages, {} B topology",
        store.small_pids().len(),
        store.large_pids().len(),
        store.topology_bytes()
    );

    // 3. Run BFS: only pages containing frontier vertices are streamed
    //    each level (Sec. 3.3). The engine holds only the validated
    //    configuration; each run is one job whose counters (and, here,
    //    spans, so step 6 can export the copy/kernel timeline) land in
    //    the job's own telemetry handle.
    let engine = Engine::new(GtsConfig::default()).expect("default config is valid");
    let opts = JobOptions::with_telemetry(Telemetry::with_spans());
    let mut bfs = Bfs::new(store.num_vertices(), 0);
    let report = engine.run_job(&store, &mut bfs, &opts).expect("bfs");
    let reached = bfs.levels().iter().filter(|&&l| l != u16::MAX).count();
    println!(
        "BFS:      {} levels, {} vertices reached, simulated {} ({:.0} MTEPS), \
         {} pages streamed, {} cache hits",
        report.sweeps,
        reached,
        report.elapsed,
        report.mteps(),
        report.pages_streamed,
        report.cache_hits
    );

    // 4. Run ten PageRank iterations: the whole topology streams once per
    //    iteration while nextPR stays in device memory (Sec. 3.1).
    let mut pr = PageRank::new(store.num_vertices(), 10);
    let report = engine.run_job(&store, &mut pr, &opts).expect("pagerank");
    let mut top: Vec<(usize, f32)> = pr.ranks().iter().copied().enumerate().collect();
    top.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!(
        "PageRank: 10 iterations, simulated {}, top vertices {:?}",
        report.elapsed,
        &top[..3.min(top.len())]
    );

    // 5. Everything is validated against simple sequential references.
    let csr = Csr::from_edge_list(&graph);
    assert_eq!(bfs.levels_u32(), reference::bfs(&csr, 0));
    println!("verified: engine BFS equals the sequential reference");

    // 6. The last job left a full trace in the telemetry handle: export it as
    //    chrome://tracing JSON (load in ui.perfetto.dev) — the paper's
    //    Fig. 4 timeline for your own run.
    let mut path = std::env::temp_dir();
    path.push("gts-quickstart-trace.json");
    std::fs::write(&path, opts.telemetry.to_chrome_trace()).expect("write trace");
    println!(
        "trace: {} spans exported to {}",
        opts.telemetry.span_count(),
        path.display()
    );
}
