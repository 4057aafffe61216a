//! Section 5 / Section 7.5 — the analytic cost models versus the
//! simulator's measured elapsed times.
//!
//! The paper sanity-checks its numbers the same way: ten PageRank
//! iterations over RMAT30 "take about 153 seconds, which is approximately
//! equal to 114 × 10 ÷ 6 = 190 seconds" (model slightly above measurement
//! because caching/buffering help). We reproduce that check: Eq. (1) and
//! Eq. (2) should land within ~2x of the measured times, with the model
//! on the pessimistic side once caching is enabled.

use gts_bench::datasets::{Prepared, BFS_SOURCE, PR_ITERATIONS};
use gts_bench::scale;
use gts_bench::table::{secs, ExperimentTable};
use gts_core::cost::{self, CostParams, LevelVolume};
use gts_core::programs::{Bfs, PageRank};
use gts_graph::Dataset;
use gts_sim::SimDuration;

fn main() {
    let mut t = ExperimentTable::new(
        "cost_model",
        "Eq.(1)/Eq.(2) predictions vs measured elapsed (Sec. 5, Sec. 7.5)",
        &[
            "algorithm",
            "dataset",
            "model(s)",
            "measured(s)",
            "model/measured",
        ],
    );
    for d in [Dataset::Rmat(17), Dataset::Rmat(18), Dataset::Rmat(19)] {
        let prep = Prepared::build(d);
        let cfg = gts_core::engine::GtsConfig {
            cache_limit_bytes: Some(0),
            ..scale::gts_config()
        };
        let params = CostParams {
            wa_bytes: 0, // set per algorithm below
            c1: cfg.pcie.chunk_bw,
            c2: cfg.pcie.stream_bw,
            num_gpus: cfg.num_gpus as u64,
            t_call: cfg.gpu.launch_overhead,
            t_sync: SimDuration::from_micros(50),
        };
        let v = prep.store.num_vertices();
        let topo = prep.store.topology_bytes();
        let pages = prep.store.num_pages();

        // --- PageRank: Eq. (1) × iterations.
        let mut pr = PageRank::new(v, PR_ITERATIONS);
        let measured = prep.run_gts(cfg.clone(), &mut pr).expect("run").elapsed;
        let mut p = params.clone();
        p.wa_bytes = PageRank::ALGORITHM.wa_bytes_per_vertex * v;
        let ra = PageRank::ALGORITHM.ra_bytes_per_vertex * v;
        // Last-kernel time: one average page's compute-class kernel.
        let avg_edges = prep.store.num_edges() / pages.max(1);
        let last = SimDuration::from_secs_f64(
            (avg_edges as f64 * (cfg.gpu.compute_slot_ns * 1.5 + cfg.gpu.compute_atomic_ns)) / 1e9,
        );
        let model = cost::pagerank_like(&p, ra, topo, 0, pages, last) * PR_ITERATIONS as u64;
        t.row(vec![
            "PageRank".into(),
            d.name(),
            secs(model),
            secs(measured),
            format!("{:.2}", model.as_secs_f64() / measured.as_secs_f64()),
        ]);

        // --- BFS: Eq. (2) with per-level volumes taken directly from the
        // engine's per-sweep statistics.
        let mut bfs = Bfs::new(v, BFS_SOURCE);
        let report = prep.run_gts(cfg.clone(), &mut bfs).expect("run");
        let volumes: Vec<LevelVolume> = report
            .per_sweep
            .iter()
            .map(|s| LevelVolume {
                bytes: s.pages * prep.store.cfg().page_size as u64,
                pages: s.pages,
            })
            .collect();
        let mut p = params.clone();
        p.wa_bytes = Bfs::ALGORITHM.wa_bytes_per_vertex * v;
        let model = cost::bfs_like(&p, &volumes, 1.0, 0.0);
        t.row(vec![
            "BFS".into(),
            d.name(),
            secs(model),
            secs(report.elapsed),
            format!("{:.2}", model.as_secs_f64() / report.elapsed.as_secs_f64()),
        ]);
    }
    t.finish();
    println!(
        "\n  paper check (Sec. 7.5): model ≈ measured within tens of percent, model \
         above measurement when buffering helps."
    );
}
