//! Web-graph traversal on a high-diameter YahooWeb-like crawl: BFS
//! reachability, betweenness centrality of the crawl frontier, and a
//! comparison of the GPU page cache's effect — the traversal-heavy side of
//! the paper's evaluation (BFS-like algorithms, Sec. 3.3).
//!
//! ```sh
//! cargo run --release -p gts-examples --example web_graph_traversal
//! ```

use gts_core::engine::GtsConfig;
use gts_core::programs::{Bc, Bfs};
use gts_core::{Engine, JobOptions};
use gts_graph::generate::web_like;
use gts_storage::{build_graph_store, PageFormatConfig};

fn main() {
    // A chain of 96 site clusters: sparse and high-diameter, like a real
    // crawl (the paper's YahooWeb has the same character).
    let graph = web_like(96, 700, 4, 7);
    let store = build_graph_store(&graph, PageFormatConfig::small_default()).expect("store");
    println!(
        "web-like crawl: {} pages, {} hyperlinks, density {:.1}",
        store.num_vertices(),
        store.num_edges(),
        graph.density()
    );

    // BFS with and without the GPU-side topology cache. High-diameter
    // traversals revisit pages across many levels, exactly the case the
    // cache exists for (Sec. 3.3).
    for (label, cache) in [("cache off", Some(0)), ("cache on", None)] {
        let cfg = GtsConfig {
            cache_limit_bytes: cache,
            ..GtsConfig::default()
        };
        let mut bfs = Bfs::new(store.num_vertices(), 0);
        let report = Engine::new(cfg)
            .expect("valid configuration")
            .run_job(&store, &mut bfs, &JobOptions::default())
            .expect("bfs");
        let depth = bfs
            .levels()
            .iter()
            .filter(|&&l| l != u16::MAX)
            .max()
            .copied()
            .unwrap_or(0);
        println!(
            "BFS ({label}): depth {depth}, simulated {}, {} pages streamed, \
             hit rate {:.0}%",
            report.elapsed,
            report.pages_streamed,
            report.cache_hit_rate * 100.0
        );
    }

    // Betweenness centrality from the crawl seed: which pages carry the
    // shortest-path traffic (two-phase streamed Brandes, Appendix D).
    let mut bc = Bc::new(store.num_vertices(), 0);
    let report = Engine::new(GtsConfig::default())
        .expect("valid configuration")
        .run_job(&store, &mut bc, &JobOptions::default())
        .expect("bc");
    let mut hubs: Vec<(usize, f32)> = bc.centrality().iter().copied().enumerate().collect();
    hubs.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!(
        "\nbetweenness (single source, {} sweeps, simulated {}):",
        report.sweeps, report.elapsed
    );
    for (page, score) in hubs.iter().take(5) {
        println!("  page {page:>6}  centrality {score:.1}");
    }
    println!("\nbridge pages between clusters dominate, as expected for a chain crawl");
}
