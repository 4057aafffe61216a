//! Figure 6 — GTS vs. the distributed engines (GraphX, Giraph,
//! PowerGraph, Naiad) for BFS and PageRank across the dataset sweep.
//!
//! Paper shapes to reproduce:
//! * GTS beats every distributed engine on every dataset, by 1–3 orders
//!   of magnitude;
//! * Giraph is the slowest, PowerGraph the fastest/most scalable of the
//!   four, Naiad OOMs earliest;
//! * the JVM engines hit `O.O.M.` near the top of the sweep (paper:
//!   RMAT31/32 ↔ our RMAT21/22) while only GTS finishes everything;
//! * GTS's own time jumps between RMAT20 and RMAT21 (our mapping of the
//!   paper's RMAT30→31 step), where it moves from in-memory Strategy-P to
//!   SSD-resident Strategy-S.

use gts_baselines::bsp::BspEngine;
use gts_baselines::cluster::FrameworkProfile;
use gts_baselines::gas::GasEngine;
use gts_baselines::{report, Algo};
use gts_bench::datasets::{Prepared, BFS_SOURCE, PR_ITERATIONS};
use gts_bench::scale;
use gts_bench::table::{secs_or_oom, ExperimentTable};
use gts_core::engine::{GtsConfig, StorageLocation};
use gts_core::programs::{Bfs, PageRank};
use gts_core::Strategy;
use gts_graph::Dataset;

/// GTS configuration per dataset: the paper keeps graphs up to RMAT30 in
/// main memory under Strategy-P and moves RMAT31/32 to SSDs under
/// Strategy-S (Sec. 7.2); our mapping shifts that boundary to RMAT20→21.
fn gts_config_for(d: Dataset) -> GtsConfig {
    let big = matches!(d, Dataset::Rmat(s) if s >= 21);
    GtsConfig {
        num_gpus: 2,
        strategy: if big {
            Strategy::Scalability
        } else {
            Strategy::Performance
        },
        storage: if big {
            StorageLocation::Ssds(2)
        } else {
            StorageLocation::InMemory
        },
        mmbuf_percent: 20,
        ..scale::gts_config()
    }
}

fn main() {
    let cluster = scale::cluster();
    let bsp = [
        FrameworkProfile::graphx(),
        FrameworkProfile::giraph(),
        FrameworkProfile::naiad(),
    ]
    .map(|p| BspEngine::new(cluster.clone(), scale::framework(p)));
    let mut gas = GasEngine::new(cluster);
    gas.profile = scale::framework(gas.profile);
    let mut bfs_table = ExperimentTable::new(
        "fig6_bfs",
        "BFS: GTS vs distributed engines, seconds (paper Fig. 6a)",
        &["dataset", "GraphX", "Giraph", "Naiad", "PowerGraph", "GTS"],
    );
    let mut pr_table = ExperimentTable::new(
        "fig6_pagerank",
        "PageRank x10: GTS vs distributed engines, seconds (paper Fig. 6b)",
        &["dataset", "GraphX", "Giraph", "Naiad", "PowerGraph", "GTS"],
    );

    let bfs = Algo::Bfs {
        source: BFS_SOURCE as u32,
    };
    let pr = Algo::PageRank {
        iterations: PR_ITERATIONS,
    };

    for d in Dataset::comparison_sweep() {
        let prep = Prepared::build(d);
        let g = &prep.csr;
        let mut bfs_row = vec![d.name()];
        let mut pr_row = vec![d.name()];
        for (algo, row) in [(bfs, &mut bfs_row), (pr, &mut pr_row)] {
            // One functional trace serves all three BSP profiles (they
            // share the hash placement), in the figure's column order
            // (GraphX, Giraph, Naiad); PowerGraph comes from the GAS engine.
            let trace = report::trace(&bsp[0], g, algo).expect("BSP places without a check");
            for e in &bsp {
                let r = report::account(e, g, algo, &trace);
                row.push(secs_or_oom(&r.map(|(r, _)| r.elapsed)));
            }
            let r = report::run(&gas, g, algo);
            row.push(secs_or_oom(&r.map(|r| r.report.elapsed)));
        }

        // GTS itself.
        let cfg = gts_config_for(d);
        let mut prog = Bfs::new(prep.store.num_vertices(), BFS_SOURCE);
        let r = prep.run_gts(cfg.clone(), &mut prog);
        bfs_row.push(secs_or_oom(&r.map(|r| r.elapsed)));
        let mut prog = PageRank::new(prep.store.num_vertices(), PR_ITERATIONS);
        let r = prep.run_gts(cfg, &mut prog);
        pr_row.push(secs_or_oom(&r.map(|r| r.elapsed)));

        bfs_table.row(bfs_row);
        pr_table.row(pr_row);
    }
    bfs_table.finish();
    pr_table.finish();
    println!(
        "\n  paper Fig. 6 anchors (seconds): BFS twitter — GraphX 57, Giraph 88, \
         PowerGraph 17, GTS 0.9; PageRank twitter — GraphX 210, Giraph 1654, \
         PowerGraph 84, GTS 7.2; RMAT32 — all distributed O.O.M., GTS finishes."
    );
}
