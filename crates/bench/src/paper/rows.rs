//! The rows of [`EXPERIMENTS`] and the functions that run their cells.

use super::claim::OOM;
use super::{Ctx, Experiment};
use crate::datasets::{program, Prepared, BFS, PR};
use crate::scale;
use crate::table::{secs, secs_or_oom, Table};
use gts_baselines::cluster::FrameworkProfile;
use gts_baselines::cpu::CpuProfile;
use gts_baselines::gpu_only::{GpuOnlyEngine, GpuOnlyProfile};
use gts_baselines::graphchi::{GraphChi, GraphChiConfig};
use gts_baselines::totem::Totem;
use gts_baselines::xstream::{XStream, XStreamConfig};
use gts_baselines::{Algo, BaselineError, CostModel};
use gts_core::cost::{self, CostParams, LevelVolume};
use gts_core::engine::CachePolicyKind::{Fifo, Lru, Random};
use gts_core::engine::GtsConfig;
use gts_core::engine::StorageLocation::{Hdds, InMemory, Ssds};
use gts_core::Strategy::{Performance, Scalability};
use gts_core::{Engine, JobOptions, Telemetry};
use gts_gpu::MicroTechnique::{EdgeCentric, Hybrid, VertexCentric};
use gts_graph::generate::Rmat;
use gts_graph::Dataset::{self, Rmat as R, TwitterLike as TWITTER};
use gts_graph::Dataset::{Uk2007Like as UK2007, YahooWebLike as YAHOO};
use gts_sim::SimDuration;
use gts_storage::{PageFormatConfig, PhysicalIdConfig};
use gts_telemetry::{Span, SpanCat, SweepStats};

type Tables = Result<Vec<Table>, String>;
type Row = Result<Vec<String>, String>;

/// The comparison sweep of Figs. 6 and 3: the three real-graph look-alikes
/// and the paper's RMAT28..32.
const SWEEP: &[Dataset] = &[TWITTER, UK2007, YAHOO, R(18), R(19), R(20), R(21), R(22)];

/// Figs. 7 and 8: the look-alikes and the paper's RMAT27..30.
const SWEEP_7: &[Dataset] = &[TWITTER, UK2007, YAHOO, R(17), R(18), R(19), R(20)];

/// The smoke grid of the comparison figures.
const SMOKE: &[Dataset] = &[R(12), R(13)];

/// Every table and figure of the evaluation, in the paper's order.
#[rustfmt::skip]
pub static EXPERIMENTS: [Experiment; 18] = [
    Experiment {
        id: "table1", artefact: "Table 1 (transfer:kernel ratios)", run: table1,
        grid: [&[TWITTER, UK2007, YAHOO], SMOKE], paper: &["1:3, 1:20", "1:1, 1:6", "2:1, 1:4"],
        claims: &[
            "smoke table1: PageRank @ measured < BFS @ measured — PageRank kernels dominate transfers far more than BFS kernels do",
            "smoke table1: PageRank @ measured in 0..0.1 — PageRank kernels outweigh transfers by about an order of magnitude",
            "table1: BFS twitter-like @ measured < BFS uk2007-like, BFS yahooweb-like @ measured — the dense Twitter-class graph has the largest BFS kernel share",
            "deviates: per-level frontier sparsity dilutes the per-page BFS kernel work, flattening the BFS ratios",
            "table1: PageRank twitter-like @ measured < PageRank uk2007-like, PageRank yahooweb-like @ measured — the dense Twitter-class graph has the largest PageRank kernel share",
            "deviates: the sparse yahooweb-like pays VWC lane padding that the authors' tuned kernels apparently avoid",
            "table1: BFS yahooweb-like @ measured in 1.6..2.4 — BFS on the sparse YahooWeb-class graph sits near the paper's 2:1",
        ],
    },
    Experiment {
        id: "table2", artefact: "Table 2 ((p,q) configurations)", run: table2,
        grid: [&[], &[]], paper: &["64 K, 4 B, 80 GB", "16 M, 16 M, 320 MB", "4 B, 64 K, 1.25 MB"],
        claims: &["table2: * @ paper max pid, paper max slot, paper max page = * @ ours — the three (p,q) configurations of a 6-byte physical ID match the paper cell for cell"],
    },
    Experiment {
        id: "table3", artefact: "Table 3 (dataset/page statistics)", run: table3,
        grid: [SWEEP, &[R(10), R(11), R(12)]], paper: &[],
        claims: &[
            "smoke table3: * @ #LP < * @ #SP — most topology pages are Small Pages",
            "table3: RMAT18, RMAT19, RMAT20, RMAT21, RMAT22 @ #SP rises — page counts grow with graph size",
            "table3: uk2007-like, yahooweb-like @ #LP < twitter-like @ #LP — only the skewed datasets (Twitter, RMAT29) produce noticeable Large Page counts",
            "deviates: not yet attributed (ROADMAP 4(c))",
        ],
    },
    Experiment {
        id: "table4", artefact: "Table 4 (WA vs topology)", run: table4,
        grid: [&[R(18), R(19), R(20), R(21), R(22)], &[R(12), R(13)]], paper: &[],
        claims: &["smoke table4: * @ max WA/topo in 1.7..10 — WA is 1.7–10 % of topology for every algorithm, so it stays resident while topology streams"],
    },
    Experiment {
        id: "table5", artefact: "Table 5 (TOTEM best ratios)", run: table5,
        grid: [&[TWITTER, UK2007, R(17), R(18), R(19)], SMOKE],
        paper: &[
            "50:50, 80:20, 75:25, 85:15",
            "35:65, 30:70, 70:30, 60:40",
            "65:35, 60:40, 80:20, 80:20",
            "15:85, 60:40, 40:60, 80:20",
            "50:50, 15:85, 75:25, 30:70",
        ],
        claims: &[
            "table5: RMAT17 1, RMAT18 1, RMAT19 1 @ measured falls — the best GPU share shrinks as graphs grow (device memory is fixed)",
            "table5: uk2007-like 1, RMAT17 1, RMAT18 1, RMAT19 1 @ measured < uk2007-like 2, RMAT17 2, RMAT18 2, RMAT19 2 @ measured — doubling GPU memory pushes the best GPU share back up (where one GPU's share is below the sweep's 90 % ceiling)",
            "table5: twitter-like, RMAT17 @ measured in 1.5..9 — the best GPU share is high (at least 60 %) whenever the graph fits",
        ],
    },
    Experiment {
        id: "fig4_timeline", artefact: "Figs. 3/4 (stream timelines)", run: fig4,
        grid: [&[R(16)], &[R(13)]], paper: &[],
        claims: &["smoke fig4: BFS @ kernel:copy busy × 3 < PageRank @ kernel:copy busy — the PageRank timeline is a dense wall of kernel bars, BFS's shows short copy bars with sparse kernels"],
    },
    Experiment {
        id: "fig6_distributed", artefact: "Fig. 6 (vs distributed engines)", run: fig6,
        grid: [SWEEP, SMOKE], paper: &[],
        claims: &[
            "fig6_*: * @ GTS < * @ GraphX, Giraph, Naiad, PowerGraph — GTS beats every distributed engine on every dataset",
            "deviates: at RMAT21 our SSD streaming at 20 % MMBuf is proportionally heavier than the paper's: bandwidths are unscaled while the graph shrank",
            "fig6_*: * @ GTS × 10 < * @ GraphX, Giraph, Naiad, PowerGraph — GTS beats the distributed engines by one to three orders of magnitude",
            "deviates: not yet attributed (ROADMAP 4(c))",
            "fig6_*: * @ GraphX, Naiad, PowerGraph < * @ Giraph — Giraph is the slowest distributed engine",
            "deviates: not yet attributed (ROADMAP 4(c))",
            "smoke fig6_*: * @ PowerGraph < * @ GraphX, Giraph, Naiad — PowerGraph is the fastest distributed engine",
            "fig6_bfs: RMAT20 @ Naiad is O.O.M. — Naiad runs out of memory first (RMAT30)",
            "fig6_bfs: RMAT20 @ GraphX, Giraph, PowerGraph runs — GraphX, Giraph and PowerGraph still run BFS on RMAT30",
            "fig6_*: RMAT21 @ GraphX, Giraph is O.O.M. — GraphX and Giraph run out of memory at RMAT31",
            "fig6_*: RMAT21 @ PowerGraph runs — PowerGraph survives one scale further",
            "fig6_*: RMAT22 @ GraphX, Giraph, Naiad, PowerGraph is O.O.M. — every distributed engine runs out of memory at RMAT32",
            "smoke fig6_*: * @ GTS runs — only GTS finishes everything",
            "fig6_*: RMAT20 @ GTS × 4 < RMAT21 @ GTS — GTS's time jumps between RMAT30 and RMAT31, where it moves from in-memory Strategy-P to SSD-resident Strategy-S",
        ],
    },
    Experiment {
        id: "fig7_cpu", artefact: "Fig. 7 (vs CPU engines)", run: fig7,
        grid: [SWEEP_7, SMOKE], paper: &[],
        claims: &[
            "fig7_bfs: * @ Galois, Ligra, Ligra+ × 10 < * @ MTGL — the frontier engines (Galois, Ligra, Ligra+) crush MTGL",
            "smoke fig7_*: * @ Ligra < * @ Galois — Ligra edges out Galois",
            "fig7_bfs: twitter-like, uk2007-like @ Galois, Ligra / GTS in 0.5..2 — on small graphs Galois and Ligra land in the same band as GTS for BFS (either side may win slightly)",
            "deviates: our scaled per-level costs are relatively cheaper than the paper's real launch and PCI-E latencies",
            "fig7_pagerank: * @ GTS < * @ MTGL, Galois, Ligra, Ligra+ — for PageRank GTS clearly beats every CPU engine",
            "deviates: not yet attributed (ROADMAP 4(c))",
            "fig7_*: RMAT19 @ MTGL, Ligra is O.O.M. — Ligra needs its transpose and runs out of memory a scale before Ligra+ and Galois",
            "fig7_*: RMAT19 @ Galois, Ligra+ runs — Galois and Ligra+ still run RMAT29",
            "fig7_*: RMAT20 @ MTGL, Galois, Ligra, Ligra+ is O.O.M. — the CPU engines run out of memory by RMAT30",
            "fig7_*: yahooweb-like @ MTGL, Galois, Ligra, Ligra+ is O.O.M. — the CPU engines have no YahooWeb results",
            "deviates: not yet attributed (ROADMAP 4(c))",
            "smoke fig7_*: * @ GTS runs — GTS keeps going where the CPU engines stop",
        ],
    },
    Experiment {
        id: "fig8_gpu", artefact: "Fig. 8 (vs GPU engines)", run: fig8,
        grid: [SWEEP_7, SMOKE], paper: &[],
        claims: &[
            "fig8_*: * @ MapGraph is O.O.M. — MapGraph can only process a tiny graph",
            "fig8_bfs: twitter-like @ CuSha runs — CuSha outlasts MapGraph: it runs Twitter-class BFS",
            "fig8_pagerank: * @ CuSha is O.O.M. — CuSha cannot run PageRank at all (prevPR and nextPR double its state)",
            "fig8_*: uk2007-like, yahooweb-like, RMAT17, RMAT18, RMAT19 @ CuSha is O.O.M. — CuSha runs out of memory long before TOTEM",
            "fig8_*: uk2007-like, yahooweb-like, RMAT17, RMAT18, RMAT19 @ TOTEM runs — TOTEM runs everything up to RMAT29",
            "fig8_*: RMAT20 @ TOTEM is O.O.M. — TOTEM cannot process RMAT30+ (contiguous host CSR)",
            "smoke fig8_*: * @ GTS runs — GTS runs everything",
            "fig8_bfs: * @ GTS < * @ TOTEM — for BFS, GTS consistently outperforms TOTEM",
            "deviates: not yet attributed (ROADMAP 4(c))",
            "fig8_pagerank: twitter-like, RMAT17, RMAT18, RMAT19 @ TOTEM crosses GTS at RMAT18 — TOTEM slightly outperforms GTS for PageRank on the small graphs but loses as graphs grow",
            "deviates: not yet attributed (ROADMAP 4(c))",
            "fig8_pagerank: RMAT19 @ TOTEM / GTS in 1.5..3.5 — at RMAT29 TOTEM's PageRank takes two to three times GTS's (paper: 176 s vs 60 s)",
        ],
    },
    Experiment {
        id: "fig9_strategies", artefact: "Fig. 9 (strategies × storage)", run: fig9,
        grid: [&[R(20)], &[R(14)]],
        paper: &[
            "29.6, 63.5",
            "82.7, 99.2",
            "157.3, 158.1",
            "1255.2, 1253.4",
            "153.4, 154.8",
            "195.9, 223.1",
            "365.1, 356.7",
            "2843.4, 2834.3",
        ],
        claims: &[
            "smoke fig9_*: * @ ours P(s) rises — the storage hierarchy ordering holds under Strategy-P: memory < 2 SSDs < 1 SSD < 2 HDDs",
            "smoke fig9_*: * @ ours S(s) rises — the storage hierarchy ordering holds under Strategy-S",
            "smoke fig9_*: 1 SSD @ ours P(s), ours S(s) × 10 < 2 HDDs @ ours P(s), ours S(s) — the HDD column is an order of magnitude worse",
            "fig9_*: 1 SSD, 2 HDDs @ ours P(s) / ours S(s) in 0.97..1.03 — both strategies perform alike when I/O is the bottleneck (1 SSD, 2 HDDs)",
            "fig9_bfs: in-memory, 2 SSDs @ ours P(s) < in-memory, 2 SSDs @ ours S(s) — for BFS Strategy-P is faster in memory and with 2 SSDs",
            "fig9_pagerank: in-memory, 2 SSDs @ ours P(s) < in-memory, 2 SSDs @ ours S(s) — for PageRank Strategy-P is faster in memory and with 2 SSDs",
            "deviates: unscaled bandwidths against a scaled graph make our PageRank's in-memory → SSD degradation steeper than the paper's",
            "fig9_bfs: in-memory @ ours S(s) / ours P(s) in 1.5..2.5 — in memory Strategy-P runs BFS about twice as fast (paper: 2.15×)",
        ],
    },
    Experiment {
        id: "fig10_streams", artefact: "Fig. 10 (streams 1..32)", run: fig10,
        grid: [&[R(16), R(17), R(18), R(19)], SMOKE], paper: &[],
        claims: &[
            "smoke fig10_*: * @ 1, 2, 4, 8, 16, 32 falls — elapsed time falls as streams grow toward the CUDA limit of 32, for both algorithms",
            "fig10_pagerank: * @ 32 < * @ 16 — PageRank keeps gaining all the way to 32 streams",
            "fig10_bfs: * @ 32 < * @ 16 — BFS keeps gaining to 32 streams too, although its transfer:kernel ratios alone suggest saturation at 2–3 (Sec. 3.2's queue-ahead effect)",
            "deviates: not yet attributed (ROADMAP 4(c))",
        ],
    },
    Experiment {
        id: "fig11_cache", artefact: "Fig. 11 (cache size)", run: fig11,
        grid: [&[R(16), R(17), R(18), R(19)], SMOKE], paper: &[],
        claims: &[
            "fig11_hitrate_random: * @ 32, 1024, 2048, 3072, 4096, 5120 rises — hit rates grow with cache size",
            "deviates: not yet attributed (ROADMAP 4(c))",
            "fig11_hitrate_random: RMAT16, RMAT17 @ 3072 / 5120 in 0.3..0.8 — hit rates grow roughly linearly with cache size (random replacement)",
            "fig11_hitrate_lru: RMAT16, RMAT17 @ 3072 / 5120 in 0.3..0.8 — hit rates grow roughly linearly with cache size (LRU, the engine default and the paper's policy)",
            "deviates: GTS's level-synchronous page order is cyclic, LRU's adversarial pattern: the hit rate stays near 0 until the whole page set fits",
            "fig11_hitrate_*: * @ 5120 falls — hit rates shrink as the graph grows",
            "smoke fig11_time_random: * @ 32, 1024, 2048, 3072, 4096, 5120 falls — elapsed time falls as the hit rate rises (random replacement)",
            "fig11_time_lru: * @ 32, 1024, 2048, 3072, 4096, 5120 falls — elapsed time falls as the hit rate rises (LRU)",
            "deviates: GTS's level-synchronous page order is cyclic, LRU's adversarial pattern: the hit rate stays near 0 until the whole page set fits",
            "fig11_time_*: RMAT19 @ 5120 is O.O.M. — the largest cache point is missing for RMAT29 (its WABuf leaves no room)",
            "deviates: not yet attributed (ROADMAP 4(c))",
        ],
    },
    Experiment {
        id: "fig13_algos", artefact: "Fig. 13 (SSSP/CC/BC)", run: fig13,
        grid: [&[TWITTER, R(17), R(18)], &[R(12), R(13), R(14)]], paper: &["11.76, 7.82", "22.68, 13.05", "97.67, 26.23"],
        claims: &[
            "fig13a_sssp: * @ GTS < * @ GraphX, Giraph, PowerGraph, TOTEM — SSSP: GTS beats GraphX, Giraph, PowerGraph and TOTEM on Twitter and RMAT28",
            "fig13b_cc: * @ GTS < * @ GraphX, Giraph, PowerGraph, TOTEM — CC: GTS beats GraphX, Giraph, PowerGraph and TOTEM on Twitter and RMAT28",
            "smoke fig13a_sssp, fig13b_cc: * @ PowerGraph, GraphX < * @ GraphX, Giraph — the distributed engines keep their Fig. 6 order (PowerGraph < GraphX < Giraph)",
            "fig13b_cc: RMAT18 @ GTS × 10 < RMAT18 @ GraphX — GraphX's RMAT28 CC run blows up while GTS stays in single digits",
            "fig13c_bc: * @ GTS < * @ TOTEM — BC: GTS beats TOTEM on Twitter, RMAT27 and RMAT28",
            "deviates: not yet attributed (ROADMAP 4(c))",
        ],
    },
    Experiment {
        id: "fig14_micro", artefact: "Fig. 14 (micro techniques)", run: fig14,
        grid: [&[R(18)], &[R(13)]], paper: &[],
        claims: &[
            "smoke fig14_*: * @ hybrid / edge-centric in 0..1 — hybrid is never worse than edge-centric",
            "fig14_*: * @ hybrid < * @ edge-centric — hybrid improves on edge-centric modestly (paper: by up to 6 % for BFS, 24 % for PageRank)",
            "deviates: not yet attributed (ROADMAP 4(c))",
            "smoke fig14_bfs: 1:04 @ vertex-centric / edge-centric in 0.8..1.25 — BFS: the three techniques are close at density 1:4",
            "fig14_pagerank: 1:04 @ vertex-centric / edge-centric in 0.8..1.25 — PageRank: the three techniques are close at density 1:4",
            "deviates: not yet attributed (ROADMAP 4(c))",
            "smoke fig14_*: 1:04 @ vertex-centric / edge-centric < 1:32 @ vertex-centric / edge-centric — edge-centric beats vertex-centric by a growing margin as density rises",
            "smoke fig14_pagerank: 1:32 @ edge-centric × 2 < 1:32 @ vertex-centric — PageRank at 1:32: edge-centric beats vertex-centric several-fold (paper: 6.9×)",
            "fig14_bfs: 1:32 @ edge-centric × 2 < 1:32 @ vertex-centric — BFS at 1:32: edge-centric beats vertex-centric several-fold (paper: 4.4×)",
            "deviates: our BFS kernels are cheap enough that streaming hides them at every density: the technique only matters once kernels are on the critical path",
        ],
    },
    Experiment {
        id: "cost_model", artefact: "Eq. (1)/(2) cost models", run: cost_model,
        grid: [&[R(17), R(18), R(19)], SMOKE], paper: &[],
        claims: &[
            "smoke cost_model: * @ model/measured in 0.5..2 — Eq. (1) and Eq. (2) land within about 2× of the measured times",
            "smoke cost_model: * @ model/measured in 0.8..1.25 — the models track the simulator within tens of percent (Sec. 7.5: 190 s modelled vs 153 s measured)",
            "cost_model: * @ model/measured in 1..2 — the model lands above the measurement, pessimistic as buffering helps (Sec. 7.5)",
            "deviates: not yet attributed (ROADMAP 4(c))",
        ],
    },
    Experiment {
        id: "sec8_streaming", artefact: "Sec. 8 streaming discussion", run: sec8,
        grid: [&[TWITTER, YAHOO, R(18)], SMOKE], paper: &[],
        claims: &[
            "smoke sec8_*: * @ X-Stream < * @ GraphChi — GraphChi is the slowest streamer (no I/O/compute overlap)",
            "smoke sec8_pagerank: * @ X-Stream, GraphChi / GTS in 0.5..3 — for PageRank every design scans everything, so the three stay within sight of each other",
            "sec8_bfs: yahooweb-like @ GTS × 10 < yahooweb-like @ X-Stream — on the high-diameter graph X-Stream's per-level full scans explode while GTS streams only frontier pages",
        ],
    },
    Experiment {
        id: "scaling", artefact: "Sec. 1/9 GPU+SSD scalability", run: scaling,
        grid: [&[R(19)], &[R(13)]], paper: &[],
        claims: &[
            "smoke scaling_gpus: * @ speedup rises — a stable speedup when adding a GPU",
            "scaling_gpus: 8 @ speedup in 4..8 — near-linear in GPUs, flattening as Eq. (1)'s WA-copy and sync terms grow",
            "smoke scaling_ssds: * @ speedup rises until 4 — a stable speedup when adding an SSD",
            "smoke scaling_ssds: 8 @ speedup × 0.8 < 4 @ speedup — the SSD curve flattens once the drives' aggregate bandwidth passes the PCI-E streaming rate (Sec. 4.1)",
        ],
    },
    Experiment {
        id: "ablations", artefact: "Ablations beyond the paper", run: ablations,
        grid: [&[R(18)], &[R(13)]], paper: &[],
        claims: &[
            "ablation_cache_policy: LRU, FIFO @ hit rate % < Random @ hit rate % — random replacement beats LRU and FIFO under the cyclic page order",
            "smoke ablation_sync_path: * @ p2p speedup rises — peer-to-peer WA merging wins over N direct copies as N grows (Sec. 4.1)",
            "ablation_virtual_warp: 4 @ elapsed(s) = 8, 16, 32 @ elapsed(s) — BFS kernels stay hidden behind transfers at every virtual-warp width",
            "ablation_page_size: * @ elapsed(s) falls until 128 — small pages drown in per-transfer latency and launch overhead",
            "smoke ablation_page_size: 128 @ elapsed(s) < 256 @ elapsed(s) — oversized pages lose pipelining granularity",
        ],
    },
];

fn table1(ctx: &Ctx) -> Tables {
    let title = "transfer:kernel time ratios (paper Table 1)";
    let mut t = Table::new("table1", title, "algorithm, dataset, paper, measured");
    // No cache, 1 GPU: the raw stream/execute balance.
    let cfg = tuned(|c| c.cache_limit_bytes = Some(0));
    for (i, &d) in ctx.datasets.iter().enumerate() {
        let prep = Prepared::build(d);
        let paper = ctx.paper_row(i, 2);
        for (alg, paper) in [BFS, PR].into_iter().zip(paper) {
            let ratio = match prep.measure(cfg.clone(), alg)?.transfer_to_kernel_ratio() {
                r if r <= 0.0 => "n/a".to_string(),
                r if r >= 1.0 => format!("{r:.1}:1"),
                r => format!("1:{:.1}", 1.0 / r),
            };
            let name = alg.algorithm().report_name;
            t.row(vec![name.into(), prep.name.clone(), paper.into(), ratio]);
        }
    }
    Ok(vec![t])
}

fn table2(ctx: &Ctx) -> Tables {
    let title = "6-byte physical ID configurations (paper Table 2)";
    let header = "p, q, paper max pid, ours, paper max slot, ours, paper max page, ours";
    let mut t = Table::new("table2", title, header);
    // Counts in units of 2^30, 2^20 or 2^10; bytes as the paper prints
    // them, whole units bare and fractions to two places.
    let count = |x: u64| match x {
        x if x >= 1 << 30 => format!("{} B", x >> 30),
        x if x >= 1 << 20 => format!("{} M", x >> 20),
        x => format!("{} K", x >> 10),
    };
    let bytes = |x: u64| match x {
        x if x >= 1 << 30 => format!("{} GB", x >> 30),
        x if x >= 1 << 20 && x % (1 << 20) == 0 => format!("{} MB", x >> 20),
        x if x >= 1 << 20 => format!("{:.2} MB", x as f64 / (1 << 20) as f64),
        x => format!("{} KB", x >> 10),
    };
    for (i, (p, q)) in [(2, 4), (3, 3), (4, 2)].into_iter().enumerate() {
        let c = PhysicalIdConfig::new(p, q);
        let ours = [count(c.max_page_id()), count(c.max_slot())];
        let ours = ours.into_iter().chain([bytes(c.max_page_size())]);
        let mut row = vec![p.to_string(), q.to_string()];
        for (paper, ours) in ctx.paper_row(i, 3).into_iter().zip(ours) {
            row.extend([paper.to_string(), ours]);
        }
        t.row(row);
    }
    Ok(vec![t])
}

fn table3(ctx: &Ctx) -> Tables {
    let title = "dataset statistics under the slotted page format (paper Table 3)";
    let header = "dataset, paper-equiv, #vertices, #edges, (p,q), #SP, #LP";
    let t = Table::new("table3", title, header);
    by_dataset(ctx, vec![(t, ())], |prep, ()| {
        let (s, d) = (&prep.store, prep.dataset);
        let mut row = vec![scale::paper_name(d), s.num_vertices().to_string()];
        row.push(s.num_edges().to_string());
        row.push(scale::page_format_for(d).id.to_string());
        row.push(s.small_pids().len().to_string());
        row.push(s.large_pids().len().to_string());
        Ok(row)
    })
}

fn table4(ctx: &Ctx) -> Tables {
    let algs = [BFS, PR, Algo::Sssp { source: 0 }, Algo::Cc].map(|a| a.algorithm());
    let names = algs.map(|a| a.report_name).join(", ");
    let title = "WA size vs topology size, MiB at 1/1024 scale (paper Table 4)";
    let header = format!("dataset, topology, {names}, max WA/topo");
    let mb = |bytes: u64| format!("{:.2}", bytes as f64 / (1 << 20) as f64);
    by_dataset(
        ctx,
        vec![(Table::new("table4", title, &header), ())],
        |prep, ()| {
            let topo = prep.store.topology_bytes();
            let wa = algs.map(|a| a.wa_bytes_per_vertex * prep.store.num_vertices());
            let worst = wa
                .iter()
                .map(|&w| w as f64 / topo as f64)
                .fold(0.0, f64::max);
            let mut row = vec![mb(topo)];
            row.extend(wa.map(mb));
            row.push(format!("{:.1}%", worst * 100.0));
            Ok(row)
        },
    )
}

/// Table 5: TOTEM's partition ratio swept for its best, at one GPU and at
/// two (one device with doubled memory).
fn table5(ctx: &Ctx) -> Tables {
    let candidates: Vec<f64> = (1..=9).map(|i| i as f64 / 10.0).collect();
    let title = "best TOTEM partition ratios GPU%:CPU% (paper Table 5)";
    let header = "dataset, gpus, alg, paper, measured, elapsed(s)";
    let mut t = Table::new("table5", title, header);
    for (i, &d) in ctx.datasets.iter().enumerate() {
        let prep = Prepared::build(d);
        let mut paper = ctx.paper_row(i, 4).into_iter();
        for gpus in [1, 2] {
            let mut cfg = scale::totem_config();
            cfg.gpu.device_memory *= gpus;
            let totem = Totem::new(cfg);
            for algo in [BFS, Algo::PageRank { iterations: 3 }] {
                let alg = algo.algorithm().report_name;
                let mut row = vec![prep.name.clone(), gpus.to_string(), alg.into()];
                row.push(paper.next().unwrap_or("-").into());
                let (frac, elapsed) = match totem.best_ratio(&prep.csr, &candidates, algo) {
                    Ok(best) => best,
                    Err(e @ BaselineError::OutOfMemory { .. }) => {
                        t.row([row, vec![OOM.into(), format!("({e})")]].concat());
                        continue;
                    }
                };
                // The share of edges on the GPU after its capacity clamp.
                let best = Totem::new(totem.config().clone().with_gpu_fraction(frac));
                let pct = (best.effective_gpu_fraction(&prep.csr).unwrap_or(frac) * 100.0).round();
                row.extend([
                    format!("{pct}:{}", 100.0 - pct),
                    format!("{:.4}", elapsed.as_secs_f64()),
                ]);
                t.row(row);
            }
        }
    }
    Ok(vec![t])
}

/// Figs. 3/4: 16-stream runs with spans recorded, their timelines printed
/// (▒ copy, █ kernel) and their copy and kernel work tabulated.
fn fig4(ctx: &Ctx) -> Tables {
    let prep = Prepared::build(ctx.datasets[0]);
    let name = &prep.name;
    let title = format!("streaming timelines, 16 streams, {name} (paper Figs. 3/4)");
    let header = "algorithm, copies, kernels, tracks, kernel:copy busy";
    let mut t = Table::new("fig4", &title, header);
    let cfg = tuned(|c| (c.cache_limit_bytes, c.num_streams) = (Some(0), 16));
    let engine = Engine::new(cfg).expect("bench configurations are valid");
    for algo in [BFS, Algo::PageRank { iterations: 2 }] {
        let alg = algo.algorithm().report_name;
        let opts = JobOptions::with_telemetry(Telemetry::with_spans());
        let mut prog = program(algo, prep.store.num_vertices());
        let run = engine.run_job(&prep.store, prog.as_mut(), &opts);
        run.map_err(|e| format!("row {alg}, GTS: {e}"))?;
        let tel = opts.telemetry;
        println!("\n== fig4 — streaming timeline for {alg} (16 streams, {name}) ==");
        println!("{}", tel.render_ascii(100));
        let spans = tel.spans();
        let of = |cat| spans.iter().filter(move |s: &&Span| s.cat == cat);
        let busy = |cat| {
            of(cat)
                .map(|s| (s.end - s.start).as_secs_f64())
                .sum::<f64>()
        };
        let ratio = busy(SpanCat::Kernel) / busy(SpanCat::Copy).max(1e-12);
        let mut row = vec![alg.to_string(), of(SpanCat::Copy).count().to_string()];
        row.push(of(SpanCat::Kernel).count().to_string());
        row.push(tel.busy_per_track().len().to_string());
        row.push(format!("{ratio:.2}"));
        t.row(row);
    }
    Ok(vec![t])
}

/// One row per grid dataset in each table: the dataset's name, then
/// `cells` of the prepared dataset and the table's key (no row when there
/// are none).
fn by_dataset<K: Copy>(
    ctx: &Ctx,
    mut tables: Vec<(Table, K)>,
    mut cells: impl FnMut(&Prepared, K) -> Row,
) -> Tables {
    for &d in ctx.datasets {
        let prep = Prepared::build(d);
        for (t, key) in &mut tables {
            let mut row = vec![prep.name.clone()];
            row.extend(cells(&prep, *key)?);
            if row.len() > 1 {
                t.row(row);
            }
        }
    }
    Ok(tables.into_iter().map(|(t, _)| t).collect())
}

/// The tables `<id>_bfs` and `<id>_pagerank`, keyed by their algorithm.
fn per_algorithm(id: &str, title: &str, header: &str) -> Vec<(Table, Algo)> {
    let table = |alg| Table::new(&format!("{id}_{alg}"), &format!("{alg}: {title}"), header);
    vec![(table("bfs"), BFS), (table("pagerank"), PR)]
}

/// Figs. 6–8: BFS and PageRank on each comparator engine and on GTS
/// under `cfg`.
fn versus(
    ctx: &Ctx,
    fig: &str,
    engines: &[&dyn CostModel],
    cfg: fn(Dataset) -> GtsConfig,
) -> Tables {
    let what = match fig {
        "6" => "distributed",
        "7" => "CPU",
        _ => "GPU",
    };
    let names: Vec<&str> = engines.iter().map(|e| e.name()).collect();
    let header = format!("dataset, {}, GTS", names.join(", "));
    let table = |id, alg, sub| {
        let title = format!("{alg}: GTS vs {what} engines, seconds (paper Fig. {fig}{sub})");
        Table::new(&format!("fig{fig}_{id}"), &title, &header)
    };
    let tables = vec![
        (table("bfs", "BFS", 'a'), BFS),
        (table("pagerank", "PageRank x10", 'b'), PR),
    ];
    by_dataset(ctx, tables, |prep, algo| {
        let runs = engines.iter().map(|e| prep.baseline(*e, algo));
        let mut row: Vec<String> = runs.map(|r| secs_or_oom(&r)).collect();
        row.push(secs_or_oom(&prep.gts(cfg(prep.dataset), algo)?));
        Ok(row)
    })
}

/// TOTEM at a 60 % GPU share; its capacity clamp does the rest.
fn totem() -> Totem {
    Totem::new(scale::totem_config().with_gpu_fraction(0.6))
}

fn two_gpus(_: Dataset) -> GtsConfig {
    tuned(|c| c.num_gpus = 2)
}

fn fig6(ctx: &Ctx) -> Tables {
    let [graphx, giraph] = [FrameworkProfile::graphx(), FrameworkProfile::giraph()].map(scale::bsp);
    let naiad = scale::bsp(FrameworkProfile::naiad());
    // The paper keeps graphs up to RMAT30 in memory under Strategy-P and
    // moves RMAT31/32 to SSDs under Strategy-S (Sec. 7.2): our RMAT20→21.
    let cfg = |d| match d {
        R(s) if s >= 21 => {
            tuned(|c| (c.num_gpus, c.strategy, c.storage) = (2, Scalability, Ssds(2)))
        }
        _ => tuned(|c| c.num_gpus = 2),
    };
    versus(
        ctx,
        "6",
        &[&graphx, &giraph, &naiad, &scale::powergraph()],
        cfg,
    )
}

fn fig7(ctx: &Ctx) -> Tables {
    let [mtgl, galois] = [CpuProfile::mtgl(), CpuProfile::galois()].map(scale::cpu_engine);
    let [ligra, ligra_plus] =
        [CpuProfile::ligra(), CpuProfile::ligra_plus()].map(scale::cpu_engine);
    versus(ctx, "7", &[&mtgl, &galois, &ligra, &ligra_plus], two_gpus)
}

fn fig8(ctx: &Ctx) -> Tables {
    let gpu_only = |p| GpuOnlyEngine::new(p, scale::gpu());
    let [mapgraph, cusha] = [GpuOnlyProfile::mapgraph(), GpuOnlyProfile::cusha()].map(gpu_only);
    versus(ctx, "8", &[&mapgraph, &cusha, &totem()], two_gpus)
}

fn fig9(ctx: &Ctx) -> Tables {
    let prep = Prepared::build(ctx.datasets[0]);
    let (name, paper_name) = (&prep.name, scale::paper_name(prep.dataset));
    let storages = [InMemory, Ssds(2), Ssds(1), Hdds(2)];
    let labels = ["in-memory", "2 SSDs", "1 SSD", "2 HDDs"];
    let header = "storage, paper P(s), ours P(s), paper S(s), ours S(s)";
    let mut tables = Vec::new();
    for (k, algo) in [BFS, PR].into_iter().enumerate() {
        let alg = algo.algorithm().report_name;
        let title = format!(
            "{alg} on {name} (paper {paper_name}), Strategy-P vs Strategy-S (paper Fig. 9)"
        );
        let mut t = Table::new(&format!("fig9_{}", alg.to_lowercase()), &title, header);
        for (i, storage) in storages.into_iter().enumerate() {
            let mut row = vec![labels[i].to_string()];
            let paper = ctx.paper_row(4 * k + i, 2);
            for (strategy, paper) in [Performance, Scalability].into_iter().zip(paper) {
                // The cache gets the leftover device memory (the default).
                let cfg = tuned(|c| (c.num_gpus, c.strategy, c.storage) = (2, strategy, storage));
                row.extend([paper.to_string(), secs(prep.measure(cfg, algo)?.elapsed)]);
            }
            t.row(row);
        }
        tables.push(t);
    }
    Ok(tables)
}

fn fig10(ctx: &Ctx) -> Tables {
    let title = "elapsed seconds vs #streams (paper Fig. 10)";
    let tables = per_algorithm("fig10", title, "dataset, 1, 2, 4, 8, 16, 32");
    by_dataset(ctx, tables, |prep, algo| {
        let mut row = Vec::new();
        for n in [1, 2, 4, 8, 16, 32] {
            // Cache off: the sweep isolates the streaming pipeline.
            let cfg = tuned(|c| (c.num_streams, c.cache_limit_bytes) = (n, Some(0)));
            row.push(secs(prep.measure(cfg, algo)?.elapsed));
        }
        Ok(row)
    })
}

/// Fig. 11 under random replacement, which the paper's near-linear
/// `B/(S+L)` hit-rate model (Sec. 3.3) describes, and under LRU, the
/// engine default, which GTS's cyclic page order defeats.
fn fig11(ctx: &Ctx) -> Tables {
    // The paper sweeps 32 MB..5120 MB; ours scale by 1/1024.
    let header = "dataset, 32, 1024, 2048, 3072, 4096, 5120";
    let policies = [("random", Random), ("lru", Lru)];
    let mut tables = Vec::new();
    for (name, _) in policies {
        let time = format!("BFS elapsed seconds vs cache size KiB, {name} (paper Fig. 11a)");
        let hits = format!("BFS cache hit rate % vs cache size KiB, {name} (paper Fig. 11b)");
        tables.push(Table::new(&format!("fig11_time_{name}"), &time, header));
        tables.push(Table::new(&format!("fig11_hitrate_{name}"), &hits, header));
    }
    // One run per (dataset, policy, size) fills both of its tables' cells.
    for &d in ctx.datasets {
        let prep = Prepared::build(d);
        for (pair, (_, policy)) in tables.chunks_mut(2).zip(policies) {
            let (mut time, mut hits) = (vec![prep.name.clone()], vec![prep.name.clone()]);
            for kib in [32, 1024, 2048, 3072, 4096, 5120] {
                let cfg =
                    tuned(|c| (c.cache_limit_bytes, c.cache_policy) = (Some(kib << 10), policy));
                let r = prep.gts(cfg, BFS)?;
                hits.push(match &r {
                    Some(r) => format!("{:.1}", r.cache_hit_rate * 100.0),
                    None => secs_or_oom(&r),
                });
                time.push(secs_or_oom(&r));
            }
            pair[0].row(time);
            pair[1].row(hits);
        }
    }
    Ok(tables)
}

/// Fig. 13: SSSP and CC across engines on the grid's smallest and largest
/// datasets, and single-source BC, TOTEM vs GTS, on all of them.
fn fig13(ctx: &Ctx) -> Tables {
    let [graphx, giraph] = [FrameworkProfile::graphx(), FrameworkProfile::giraph()].map(scale::bsp);
    let (gas, totem) = (scale::powergraph(), totem());
    let engines: [&dyn CostModel; 4] = [&graphx, &giraph, &gas, &totem];
    let header = format!("dataset, {}, GTS", engines.map(|e| e.name()).join(", "));
    let table = |id, algo: Algo| {
        let alg = algo.algorithm().report_name;
        let title = format!("{alg}: seconds across engines (paper Fig. 13)");
        (Table::new(id, &title, &header), algo)
    };
    let (sssp, cc) = (Algo::Sssp { source: 0 }, Algo::Cc);
    let mut tables = vec![table("fig13a_sssp", sssp), table("fig13b_cc", cc)];
    let title = "Betweenness centrality (single source): TOTEM vs GTS (paper Fig. 13c)";
    let header = "dataset, paper TOTEM, paper GTS, TOTEM, GTS";
    tables.push((
        Table::new("fig13c_bc", title, header),
        Algo::Bc { source: 0 },
    ));
    let ds = ctx.datasets;
    by_dataset(ctx, tables, |prep, algo| {
        let (d, bc) = (prep.dataset, matches!(algo, Algo::Bc { .. }));
        // 13a/b run on the smallest and the largest dataset only.
        if !bc && d != ds[0] && d != ds[ds.len() - 1] {
            return Ok(Vec::new());
        }
        let mut row = Vec::new();
        if bc {
            let i = ds.iter().position(|&x| x == d).unwrap_or(usize::MAX);
            row.extend(ctx.paper_row(i, 2).into_iter().map(String::from));
        }
        for e in &engines[if bc { 3 } else { 0 }..] {
            row.push(secs_or_oom(&prep.baseline(*e, algo)));
        }
        row.push(secs_or_oom(&prep.gts(two_gpus(d), algo)?));
        Ok(row)
    })
}

/// Fig. 14: the grid's RMAT with its edge factor swept over 4..32 (the
/// paper's densities 1:4..1:32).
fn fig14(ctx: &Ctx) -> Tables {
    let d = ctx.datasets[0];
    let R(scale_) = d else {
        return Err("fig14 sweeps the density of an RMAT".into());
    };
    let title = "seconds per technique vs density (paper Fig. 14)";
    let header = "density, vertex-centric, edge-centric, hybrid";
    let mut tables = per_algorithm("fig14", title, header);
    let techniques = [
        VertexCentric,
        EdgeCentric { virtual_warp: 32 },
        Hybrid { virtual_warp: 32 },
    ];
    for density in [4, 8, 16, 32] {
        let graph = Rmat::new(scale_).with_edge_factor(density).generate();
        let name = format!("1:{density:02}");
        let prep = Prepared::new(name, d, graph, scale::page_format_small());
        for (t, algo) in &mut tables {
            let mut row = vec![prep.name.clone()];
            for technique in techniques {
                let cfg = tuned(|c| (c.technique, c.cache_limit_bytes) = (technique, Some(0)));
                row.push(secs(prep.measure(cfg, *algo)?.elapsed));
            }
            t.row(row);
        }
    }
    Ok(tables.into_iter().map(|(t, _)| t).collect())
}

/// Sec. 5 / Sec. 7.5: Eq. (1) and Eq. (2) against the simulator.
fn cost_model(ctx: &Ctx) -> Tables {
    let title = "Eq.(1)/Eq.(2) predictions vs measured elapsed (Sec. 5, Sec. 7.5)";
    let header = "algorithm, dataset, model(s), measured(s), model/measured";
    let mut t = Table::new("cost_model", title, header);
    let cfg = tuned(|c| c.cache_limit_bytes = Some(0));
    for &d in ctx.datasets {
        let prep = Prepared::build(d);
        let s = &prep.store;
        let (v, topo, pages) = (s.num_vertices(), s.topology_bytes(), s.num_pages());
        let params = |algo: Algo| CostParams {
            wa_bytes: algo.algorithm().wa_bytes_per_vertex * v,
            c1: cfg.pcie.chunk_bw,
            c2: cfg.pcie.stream_bw,
            num_gpus: cfg.num_gpus as u64,
            t_call: cfg.gpu.launch_overhead,
            t_sync: SimDuration::from_micros(50),
        };
        // PageRank: Eq. (1) × iterations; the last kernel is one average
        // page's compute-class kernel.
        let pr = prep.measure(cfg.clone(), PR)?;
        let avg_edges = s.num_edges() / pages.max(1);
        let per_edge_ns = cfg.gpu.compute_slot_ns * 1.5 + cfg.gpu.compute_atomic_ns;
        let last = SimDuration::from_secs_f64((avg_edges as f64 * per_edge_ns) / 1e9);
        let ra = PR.algorithm().ra_bytes_per_vertex * v;
        let pr_model = cost::pagerank_like(&params(PR), ra, topo, 0, pages, last);
        // BFS: Eq. (2) with per-level volumes from the engine's sweeps.
        let bfs = prep.measure(cfg.clone(), BFS)?;
        let page_size = s.cfg().page_size as u64;
        let level = |w: &SweepStats| (w.pages * page_size, w.pages);
        let levels = bfs.per_sweep.iter().map(level);
        let levels: Vec<_> = levels
            .map(|(bytes, pages)| LevelVolume { bytes, pages })
            .collect();
        let bfs_model = cost::bfs_like(&params(BFS), &levels, 1.0, 0.0);
        let models = [(pr_model * pr.sweeps.into(), pr), (bfs_model, bfs)];
        for (model, run) in models {
            let ratio = model.as_secs_f64() / run.elapsed.as_secs_f64();
            let mut row = vec![run.algorithm.clone(), prep.name.clone(), secs(model)];
            row.extend([secs(run.elapsed), format!("{ratio:.2}")]);
            t.row(row);
        }
    }
    Ok(vec![t])
}

/// Sec. 8's related-work argument as an experiment: X-Stream (every edge,
/// every iteration), GraphChi (shards, no I/O/compute overlap) and GTS
/// (page-level sequential and random access), all streaming from 1 SSD.
fn sec8(ctx: &Ctx) -> Tables {
    let cfg = tuned(|c| (c.storage, c.mmbuf_percent, c.cache_limit_bytes) = (Ssds(1), 0, Some(0)));
    let xstream = XStream::new(XStreamConfig::default());
    let graphchi = GraphChi::new(GraphChiConfig::default());
    let title = "out-of-core streaming designs, seconds (paper Sec. 8)";
    let tables = per_algorithm("sec8", title, "dataset, sweeps, X-Stream, GraphChi, GTS");
    by_dataset(ctx, tables, |prep, algo| {
        let xs = prep.baseline(&xstream, algo);
        let mut row = vec![xs.as_ref().map_or(OOM.into(), |r| r.sweeps.to_string())];
        row.extend([
            secs_or_oom(&xs),
            secs_or_oom(&prep.baseline(&graphchi, algo)),
        ]);
        row.push(secs_or_oom(&prep.gts(cfg.clone(), algo)?));
        Ok(row)
    })
}

/// Sec. 1/9: "a stable speedup when adding a GPU or an SSD", stated
/// without a figure.
fn scaling(ctx: &Ctx) -> Tables {
    let prep = Prepared::build(ctx.datasets[0]);
    let mut tables = Vec::new();
    for (id, what) in [
        ("gpus", "adding GPUs (Strategy-P, in-memory)"),
        ("ssds", "adding SSDs (1 GPU, SSD-resident, no MMBuf)"),
    ] {
        let title = format!("PageRank x10 on {}: {what}", prep.name);
        let header = format!("{id}, elapsed(s), speedup");
        let mut t = Table::new(&format!("scaling_{id}"), &title, &header);
        let mut base = None;
        for n in [1, 2, 4, 8] {
            let cfg = tuned(|c| match id {
                "gpus" => (c.num_gpus, c.strategy, c.cache_limit_bytes) = (n, Performance, Some(0)),
                _ => (c.storage, c.mmbuf_percent, c.cache_limit_bytes) = (Ssds(n), 0, Some(0)),
            });
            let e = prep.measure(cfg, PR)?.elapsed;
            let speedup = base.get_or_insert(e).as_secs_f64() / e.as_secs_f64();
            t.row(vec![n.to_string(), secs(e), format!("{speedup:.2}x")]);
        }
        tables.push(t);
    }
    Ok(tables)
}

/// The design choices of DESIGN.md §5: cache policy, Strategy-P's WA sync
/// path, the VWC virtual-warp width, and the slotted-page size.
fn ablations(ctx: &Ctx) -> Tables {
    let prep = Prepared::build(ctx.datasets[0]);
    let title = "BFS with a 2 MiB cache: replacement policy ablation";
    let header = "policy, elapsed(s), hit rate %";
    let mut policy = Table::new("ablation_cache_policy", title, header);
    for (name, p) in [("LRU", Lru), ("FIFO", Fifo), ("Random", Random)] {
        let cfg = tuned(|c| (c.cache_policy, c.cache_limit_bytes) = (p, Some(2 << 20)));
        let r = prep.measure(cfg, BFS)?;
        let hits = format!("{:.1}", r.cache_hit_rate * 100.0);
        policy.row(vec![name.into(), secs(r.elapsed), hits]);
    }
    let title = "PageRank x10, Strategy-P: P2P merge vs N direct copies";
    let header = "gpus, p2p merge(s), naive(s), p2p speedup";
    let mut sync = Table::new("ablation_sync_path", title, header);
    for n in [2, 4, 8] {
        let cfg = |p2p| tuned(|c| (c.num_gpus, c.strategy, c.p2p_sync) = (n, Performance, p2p));
        let p2p = prep.measure(cfg(true), PR)?.elapsed;
        let naive = prep.measure(cfg(false), PR)?.elapsed;
        let speedup = format!("{:.2}x", naive.as_secs_f64() / p2p.as_secs_f64());
        sync.row(vec![n.to_string(), secs(p2p), secs(naive), speedup]);
    }
    let title = "BFS: VWC virtual-warp width (edge-centric)";
    let mut warp = Table::new("ablation_virtual_warp", title, "width, elapsed(s)");
    for w in [4, 8, 16, 32] {
        let technique = EdgeCentric { virtual_warp: w };
        let cfg = tuned(|c| (c.technique, c.cache_limit_bytes) = (technique, Some(0)));
        warp.row(vec![w.to_string(), secs(prep.measure(cfg, BFS)?.elapsed)]);
    }
    let title = "PageRank x10: slotted page size sweep ((2,2) IDs)";
    let mut page = Table::new("ablation_page_size", title, "page KiB, #pages, elapsed(s)");
    for kib in [16, 32, 64, 128, 256] {
        let fmt = PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, kib << 10);
        let (name, d) = (format!("{kib} KiB"), prep.dataset);
        let sized = Prepared::new(name, d, d.generate(), fmt);
        let e = sized
            .measure(tuned(|c| c.cache_limit_bytes = Some(0)), PR)?
            .elapsed;
        let pages = sized.store.num_pages().to_string();
        page.row(vec![kib.to_string(), pages, secs(e)]);
    }
    Ok(vec![policy, sync, warp, page])
}

/// The scaled engine configuration, changed by `f`.
fn tuned(f: impl FnOnce(&mut GtsConfig)) -> GtsConfig {
    let mut cfg = scale::gts_config();
    f(&mut cfg);
    cfg
}
