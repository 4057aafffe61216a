//! Figure 8 — GTS vs. the GPU-based engines (MapGraph, CuSha, TOTEM).
//!
//! Paper shapes to reproduce:
//! * MapGraph OOMs before CuSha, CuSha OOMs long before TOTEM (they need
//!   the whole graph in device memory; CuSha cannot run PageRank at all
//!   because prevPR+nextPR double its state);
//! * TOTEM slightly outperforms GTS for PageRank on the *small* graphs
//!   (its GPU partition covers everything, no streaming) but loses badly
//!   as graphs grow and its CPU share swells;
//! * for BFS, GTS consistently outperforms TOTEM;
//! * TOTEM cannot process RMAT20+ (paper RMAT30+) — contiguous host CSR.

use gts_baselines::gpu_only::{GpuOnlyEngine, GpuOnlyProfile};
use gts_baselines::totem::Totem;
use gts_baselines::{run, Algo, CostModel};
use gts_bench::datasets::{Prepared, BFS_SOURCE, PR_ITERATIONS};
use gts_bench::scale;
use gts_bench::table::{secs_or_oom, ExperimentTable};
use gts_core::programs::{Bfs, PageRank};
use gts_graph::Dataset;

fn main() {
    let datasets = [
        Dataset::TwitterLike,
        Dataset::Uk2007Like,
        Dataset::YahooWebLike,
        Dataset::Rmat(17),
        Dataset::Rmat(18),
        Dataset::Rmat(19),
        Dataset::Rmat(20),
    ];
    let mut bfs_table = ExperimentTable::new(
        "fig8_bfs",
        "BFS: GTS vs GPU engines, seconds (paper Fig. 8a)",
        &["dataset", "MapGraph", "CuSha", "TOTEM", "GTS"],
    );
    let mut pr_table = ExperimentTable::new(
        "fig8_pagerank",
        "PageRank x10: GTS vs GPU engines, seconds (paper Fig. 8b)",
        &["dataset", "MapGraph", "CuSha", "TOTEM", "GTS"],
    );
    let mapgraph = GpuOnlyEngine::new(GpuOnlyProfile::mapgraph(), scale::gpu());
    let cusha = GpuOnlyEngine::new(GpuOnlyProfile::cusha(), scale::gpu());
    // TOTEM with the per-dataset recommended ratio class: denser graphs get
    // a bigger GPU share (Appendix C); the capacity clamp inside the engine
    // does the rest.
    let totem = Totem::new(scale::totem_config().with_gpu_fraction(0.6));
    let engines: [&dyn CostModel; 3] = [&mapgraph, &cusha, &totem];
    let bfs = Algo::Bfs {
        source: BFS_SOURCE as u32,
    };
    let pr = Algo::PageRank {
        iterations: PR_ITERATIONS,
    };
    for d in datasets {
        let prep = Prepared::build(d);
        let mut bfs_row = vec![d.name()];
        let mut pr_row = vec![d.name()];
        for (algo, row) in [(bfs, &mut bfs_row), (pr, &mut pr_row)] {
            for e in engines {
                let r = run(e, &prep.csr, algo);
                row.push(secs_or_oom(&r.map(|r| r.report.elapsed)));
            }
        }
        let cfg = gts_core::engine::GtsConfig {
            num_gpus: 2,
            ..scale::gts_config()
        };
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
        "\n  paper Fig. 8 anchors (seconds): BFS twitter — CuSha 3.6, TOTEM 2.2, \
         GTS 0.9; PageRank twitter — TOTEM 5.6, GTS 7.2 (TOTEM wins small PR); \
         RMAT29 PageRank — TOTEM 176.2, GTS 59.6; TOTEM has no RMAT30+ results."
    );
}
