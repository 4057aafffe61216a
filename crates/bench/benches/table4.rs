//! Table 4 — size of the WA (device-resident read/write attribute) data
//! versus topology data in the slotted page format.
//!
//! Paper shape: WA is 1.7–10 % of topology for every algorithm, which is
//! the fact that lets GTS keep WA resident while streaming topology.

use gts_bench::datasets::Prepared;
use gts_bench::table::ExperimentTable;
use gts_core::programs::{Bfs, Cc, PageRank, Sssp};
use gts_graph::Dataset;

fn mb(bytes: u64) -> String {
    format!("{:.2}", bytes as f64 / (1 << 20) as f64)
}

fn main() {
    let algs = [
        Bfs::ALGORITHM,
        PageRank::ALGORITHM,
        Sssp::ALGORITHM,
        Cc::ALGORITHM,
    ];
    let mut header = vec!["dataset", "topology"];
    header.extend(algs.iter().map(|a| a.report_name));
    header.push("max WA/topo");
    let mut t = ExperimentTable::new(
        "table4",
        "WA size vs topology size, MiB at 1/1024 scale (paper Table 4)",
        &header,
    );
    for d in [
        Dataset::Rmat(18),
        Dataset::Rmat(19),
        Dataset::Rmat(20),
        Dataset::Rmat(21),
        Dataset::Rmat(22),
    ] {
        let prep = Prepared::build(d);
        let topo = prep.store.topology_bytes();
        let v = prep.store.num_vertices();
        let mut row = vec![d.name(), mb(topo)];
        let mut worst: f64 = 0.0;
        for a in &algs {
            let wa = a.wa_bytes_per_vertex * v;
            worst = worst.max(wa as f64 / topo as f64);
            row.push(mb(wa));
        }
        row.push(format!("{:.1}%", worst * 100.0));
        t.row(row);
        assert!(
            worst < 0.15,
            "WA must stay a small fraction of topology (paper: 1.7-10%)"
        );
    }
    t.finish();
}
