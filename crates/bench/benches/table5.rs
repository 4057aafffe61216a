//! Table 5 / Appendix C — TOTEM's best GPU%:CPU% partition ratios.
//!
//! The paper's Table 5 lists, per algorithm and dataset, the partition
//! ratio that gives TOTEM its best performance (found by tuning, one of
//! TOTEM's usability drawbacks GTS avoids). This bench reproduces the
//! search: it sweeps the ratio and reports the argmax, for one and two
//! GPUs (two GPUs are approximated as one device with doubled memory).
//!
//! Paper shape: the best GPU share shrinks as graphs grow (device memory
//! is fixed), and doubling GPU memory pushes it back up.

use gts_baselines::totem::Totem;
use gts_baselines::Algo;
use gts_bench::datasets::Prepared;
use gts_bench::scale;
use gts_bench::table::ExperimentTable;
use gts_graph::Dataset;

fn main() {
    let candidates: Vec<f64> = (1..=9).map(|i| i as f64 / 10.0).collect();
    let paper = [
        // (dataset, paper 1-GPU BFS, 1-GPU PR, 2-GPU BFS, 2-GPU PR)
        (Dataset::TwitterLike, "50:50", "80:20", "75:25", "85:15"),
        (Dataset::Uk2007Like, "35:65", "30:70", "70:30", "60:40"),
        (Dataset::Rmat(17), "65:35", "60:40", "80:20", "80:20"),
        (Dataset::Rmat(18), "15:85", "60:40", "40:60", "80:20"),
        (Dataset::Rmat(19), "50:50", "15:85", "75:25", "30:70"),
    ];
    let mut t = ExperimentTable::new(
        "table5",
        "best TOTEM partition ratios GPU%:CPU% (paper Table 5)",
        &["dataset", "gpus", "alg", "paper", "measured", "elapsed(s)"],
    );
    for (d, p1b, p1p, p2b, p2p) in paper {
        let prep = Prepared::build(d);
        for (gpus, pb, pp) in [(1u64, p1b, p1p), (2, p2b, p2p)] {
            let mut cfg = scale::totem_config();
            cfg.gpu.device_memory *= gpus;
            let totem = Totem::new(cfg);
            for (algo, paper_ratio) in [
                (Algo::Bfs { source: 0 }, pb),
                (Algo::PageRank { iterations: 3 }, pp),
            ] {
                let alg = algo.algorithm().report_name;
                match totem.best_ratio(&prep.csr, &candidates, algo) {
                    Ok((frac, elapsed)) => {
                        // Report the ratio of edges actually placed on the
                        // GPU after capacity clamping.
                        let eff = Totem::new(totem.config().clone().with_gpu_fraction(frac))
                            .effective_gpu_fraction(&prep.csr)
                            .unwrap_or(frac);
                        let gpu_pct = (eff * 100.0).round() as u32;
                        t.row(vec![
                            d.name(),
                            gpus.to_string(),
                            alg.into(),
                            paper_ratio.into(),
                            format!("{gpu_pct}:{}", 100 - gpu_pct),
                            format!("{:.4}", elapsed.as_secs_f64()),
                        ]);
                    }
                    Err(e) => {
                        t.row(vec![
                            d.name(),
                            gpus.to_string(),
                            alg.into(),
                            paper_ratio.into(),
                            "O.O.M.".into(),
                            format!("({e})"),
                        ]);
                    }
                }
            }
        }
    }
    t.finish();
}
