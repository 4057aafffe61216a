//! Figure 7 — GTS vs. the shared-memory CPU engines (MTGL, Galois, Ligra,
//! Ligra+) for BFS and PageRank.
//!
//! Paper shapes to reproduce:
//! * the frontier engines (Galois/Ligra/Ligra+) crush MTGL;
//! * on small graphs, Galois/Ligra land in the same band as GTS for BFS
//!   (either side may win slightly);
//! * for PageRank GTS clearly beats every CPU engine;
//! * the CPU engines disappear (O.O.M.) for YahooWeb-class and RMAT19+
//!   graphs (paper: RMAT29/30) while GTS keeps going.

use gts_baselines::cpu::CpuProfile;
use gts_baselines::{run, Algo};
use gts_bench::datasets::{Prepared, BFS_SOURCE, PR_ITERATIONS};
use gts_bench::scale;
use gts_bench::table::{secs_or_oom, ExperimentTable};
use gts_core::programs::{Bfs, PageRank};
use gts_graph::Dataset;

fn main() {
    let profiles = [
        CpuProfile::mtgl(),
        CpuProfile::galois(),
        CpuProfile::ligra(),
        CpuProfile::ligra_plus(),
    ];
    let datasets = [
        Dataset::TwitterLike,
        Dataset::Uk2007Like,
        Dataset::YahooWebLike,
        Dataset::Rmat(17),
        Dataset::Rmat(18),
        Dataset::Rmat(19),
        Dataset::Rmat(20),
    ];
    let bfs = Algo::Bfs {
        source: BFS_SOURCE as u32,
    };
    let pr = Algo::PageRank {
        iterations: PR_ITERATIONS,
    };
    let mut bfs_table = ExperimentTable::new(
        "fig7_bfs",
        "BFS: GTS vs CPU engines, seconds (paper Fig. 7a)",
        &["dataset", "MTGL", "Galois", "Ligra", "Ligra+", "GTS"],
    );
    let mut pr_table = ExperimentTable::new(
        "fig7_pagerank",
        "PageRank x10: GTS vs CPU engines, seconds (paper Fig. 7b)",
        &["dataset", "MTGL", "Galois", "Ligra", "Ligra+", "GTS"],
    );
    for d in datasets {
        let prep = Prepared::build(d);
        let mut bfs_row = vec![d.name()];
        let mut pr_row = vec![d.name()];
        for p in &profiles {
            let e = scale::cpu_engine(p.clone());
            for (algo, row) in [(bfs, &mut bfs_row), (pr, &mut pr_row)] {
                let r = run(&e, &prep.csr, algo);
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
        "\n  paper Fig. 7 anchors (seconds): BFS twitter — MTGL 6, Galois 1.3, \
         Ligra 0.6, GTS 0.9; PageRank twitter — MTGL 34.6, Galois 95 (RMAT28 572), \
         Ligra 34.4, GTS 7.2; CPU engines have no RMAT29/30 or YahooWeb results."
    );
}
