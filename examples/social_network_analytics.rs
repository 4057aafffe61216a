//! Social-network analytics on a Twitter-like graph: PageRank influencer
//! ranking, weakly connected components, and single-source shortest paths
//! — the workload mix the paper's introduction motivates (social networks,
//! business intelligence).
//!
//! Exercises multi-GPU Strategy-P (Sec. 4.1): the topology stream is
//! hash-partitioned across two simulated GPUs, WA replicas are merged
//! peer-to-peer.
//!
//! ```sh
//! cargo run --release -p gts-examples --example social_network_analytics
//! ```

use gts_core::engine::{Gts, GtsConfig};
use gts_core::programs::{Cc, PageRank, Sssp};
use gts_core::Strategy;
use gts_graph::Dataset;
use gts_storage::{build_graph_store, PageFormatConfig};
use std::collections::HashMap;

fn main() {
    let graph = Dataset::TwitterLike.generate();
    let store = build_graph_store(&graph, PageFormatConfig::small_default()).expect("store");
    println!(
        "twitter-like: {} users, {} follow edges",
        store.num_vertices(),
        store.num_edges()
    );

    let engine = Gts::new(GtsConfig {
        num_gpus: 2,
        strategy: Strategy::Performance,
        ..GtsConfig::default()
    });

    // Influencer ranking.
    let mut pr = PageRank::new(store.num_vertices(), 10);
    let report = engine.run(&store, &mut pr).expect("pagerank");
    let mut ranked: Vec<(usize, f32)> = pr.ranks().iter().copied().enumerate().collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!(
        "\ntop-5 influencers (PageRank, simulated {}):",
        report.elapsed
    );
    for (user, score) in ranked.iter().take(5) {
        println!("  user {user:>6}  score {score:.6}");
    }

    // Community structure: weakly connected components.
    let mut cc = Cc::new(store.num_vertices());
    let report = engine.run(&store, &mut cc).expect("cc");
    let mut sizes: HashMap<u64, u64> = HashMap::new();
    for &label in cc.labels() {
        *sizes.entry(label).or_insert(0) += 1;
    }
    let mut sizes: Vec<(u64, u64)> = sizes.into_iter().collect();
    sizes.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    println!(
        "\ncomponents: {} total (simulated {}, {} sweeps); largest: {:?}",
        sizes.len(),
        report.elapsed,
        report.sweeps,
        &sizes[..3.min(sizes.len())]
    );

    // Degrees of separation from the top influencer, with edge weights as
    // interaction costs.
    let source = ranked[0].0 as u64;
    let mut sssp = Sssp::new(store.num_vertices(), source);
    let report = engine.run(&store, &mut sssp).expect("sssp");
    let reachable = sssp.distances().iter().filter(|&&d| d != u32::MAX).count();
    let avg: f64 = sssp
        .distances()
        .iter()
        .filter(|&&d| d != u32::MAX && d > 0)
        .map(|&d| d as f64)
        .sum::<f64>()
        / reachable.max(1) as f64;
    println!(
        "\nshortest paths from user {source}: {reachable} reachable, mean cost {avg:.1} \
         (simulated {}, {} levels)",
        report.elapsed, report.sweeps
    );
}
