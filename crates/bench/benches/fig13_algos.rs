//! Figure 13 (Appendix D) — the additional algorithms: SSSP, CC and BC.
//!
//! Paper shapes to reproduce:
//! * SSSP (13a): GTS beats GraphX/Giraph/PowerGraph/TOTEM on Twitter and
//!   RMAT28;
//! * CC (13b): same ordering, with GraphX's RMAT28 run blowing up (318.9 s)
//!   while GTS stays in single digits;
//! * BC (13c): GTS beats TOTEM on Twitter, RMAT27, RMAT28 (single-source
//!   mode).

use gts_baselines::bsp::BspEngine;
use gts_baselines::cluster::FrameworkProfile;
use gts_baselines::gas::GasEngine;
use gts_baselines::totem::Totem;
use gts_baselines::{run, Algo, CostModel};
use gts_bench::datasets::{Prepared, BFS_SOURCE};
use gts_bench::scale;
use gts_bench::table::{secs_or_oom, ExperimentTable};
use gts_core::programs::{Bc, Cc, Sssp};
use gts_graph::Dataset;

fn main() {
    let cluster = scale::cluster();
    let gts_cfg = || gts_core::engine::GtsConfig {
        num_gpus: 2,
        ..scale::gts_config()
    };

    let graphx = BspEngine::new(
        cluster.clone(),
        scale::framework(FrameworkProfile::graphx()),
    );
    let giraph = BspEngine::new(
        cluster.clone(),
        scale::framework(FrameworkProfile::giraph()),
    );
    let mut gas = GasEngine::new(cluster);
    gas.profile = scale::framework(gas.profile);
    let totem = Totem::new(scale::totem_config().with_gpu_fraction(0.6));
    let engines: [&dyn CostModel; 4] = [&graphx, &giraph, &gas, &totem];
    let source = BFS_SOURCE as u32;

    // --- 13a/13b: SSSP and CC on twitter-like and RMAT18 (paper RMAT28).
    for (algo, csv) in [
        (Algo::Sssp { source }, "fig13a_sssp"),
        (Algo::Cc, "fig13b_cc"),
    ] {
        let mut t = ExperimentTable::new(
            csv,
            &format!(
                "{}: seconds across engines (paper Fig. 13)",
                algo.algorithm().report_name
            ),
            &["dataset", "GraphX", "Giraph", "PowerGraph", "TOTEM", "GTS"],
        );
        for d in [Dataset::TwitterLike, Dataset::Rmat(18)] {
            let prep = Prepared::build(d);
            let mut row = vec![d.name()];
            for e in engines {
                let r = run(e, &prep.csr, algo);
                row.push(secs_or_oom(&r.map(|r| r.report.elapsed)));
            }
            let r = if let Algo::Sssp { .. } = algo {
                let mut p = Sssp::new(prep.store.num_vertices(), BFS_SOURCE);
                prep.run_gts(gts_cfg(), &mut p)
            } else {
                let mut p = Cc::new(prep.store.num_vertices());
                prep.run_gts(gts_cfg(), &mut p)
            };
            row.push(secs_or_oom(&r.map(|r| r.elapsed)));
            t.row(row);
        }
        t.finish();
    }

    // --- 13c: BC, TOTEM vs GTS.
    let mut t = ExperimentTable::new(
        "fig13c_bc",
        "Betweenness centrality (single source): TOTEM vs GTS (paper Fig. 13c)",
        &["dataset", "paper TOTEM", "paper GTS", "TOTEM", "GTS"],
    );
    let paper = [
        (Dataset::TwitterLike, 11.76, 7.82),
        (Dataset::Rmat(17), 22.68, 13.05),
        (Dataset::Rmat(18), 97.67, 26.23),
    ];
    for (d, paper_totem, paper_gts) in paper {
        let prep = Prepared::build(d);
        let r = run(&totem, &prep.csr, Algo::Bc { source });
        let totem_cell = secs_or_oom(&r.map(|r| r.report.elapsed));
        let mut bc = Bc::new(prep.store.num_vertices(), BFS_SOURCE);
        let r = prep.run_gts(gts_cfg(), &mut bc);
        t.row(vec![
            d.name(),
            paper_totem.to_string(),
            paper_gts.to_string(),
            totem_cell,
            secs_or_oom(&r.map(|r| r.elapsed)),
        ]);
    }
    t.finish();
    println!(
        "\n  paper Fig. 13 anchors (seconds): SSSP twitter — GraphX 64, Giraph 245, \
         PowerGraph 17.9, TOTEM 8.9, GTS 2.8; CC twitter — GraphX 106, Giraph 227, \
         PowerGraph 50, TOTEM 59.5, GTS 7.6."
    );
}
