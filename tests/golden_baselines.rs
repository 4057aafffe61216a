//! Golden fixture for the comparator engines.
//!
//! Every engine/profile × every algorithm it runs on `rmat(9)` is pinned
//! in `tests/golden/baselines.txt`: the report JSON, the full counter
//! registry and an fnv1a of the result values. One memory-starved run per
//! engine with a memory check pins its `O.O.M.` (needed / available), and
//! TOTEM's ratio search pins Table 5's argmax. A change to any cost model
//! shows up as a diff here.
//!
//! To regenerate after an *intentional* cost-model change:
//!
//! ```text
//! GTS_BLESS=1 cargo test -p gts-integration --test golden_baselines
//! ```

use gts_baselines::bsp::BspEngine;
use gts_baselines::cpu::{CpuEngine, CpuProfile};
use gts_baselines::gas::GasEngine;
use gts_baselines::gpu_only::{GpuOnlyEngine, GpuOnlyProfile};
use gts_baselines::graphchi::{GraphChi, GraphChiConfig};
use gts_baselines::report::values_to_u32;
use gts_baselines::totem::{Totem, TotemConfig};
use gts_baselines::xstream::{XStream, XStreamConfig};
use gts_baselines::{run, Algo, BaselineError, ClusterConfig, CostModel, FrameworkProfile};
use gts_gpu::GpuConfig;
use gts_graph::generate::rmat;
use gts_graph::Csr;
use std::fmt::Write as _;
use std::path::PathBuf;

const BFS: Algo = Algo::Bfs { source: 0 };
const SSSP: Algo = Algo::Sssp { source: 0 };
const PR: Algo = Algo::PageRank { iterations: 5 };
const BC: Algo = Algo::Bc { source: 0 };
const CC: Algo = Algo::Cc;

/// fnv1a of the values in the engines' result convention: `u32` levels,
/// distances and labels; `f64` ranks and BC scores.
fn values_hash(algo: Algo, values: &[f64]) -> u64 {
    let bytes: Vec<u8> = match algo {
        Algo::PageRank { .. } | Algo::Bc { .. } => values
            .iter()
            .flat_map(|x| x.to_bits().to_le_bytes())
            .collect(),
        _ => values_to_u32(values)
            .iter()
            .flat_map(|x| x.to_le_bytes())
            .collect(),
    };
    gts_ckpt::fnv1a(&bytes)
}

fn oom(out: &mut String, model: &dyn CostModel, g: &Csr, algo: Algo) {
    match run(model, g, algo) {
        Err(e) => writeln!(out, "oom {e}").unwrap(),
        Ok(_) => panic!("expected an O.O.M."),
    }
}

/// Every engine/profile with the algorithms it ran before the driver.
fn cells() -> Vec<(Box<dyn CostModel>, Vec<Algo>)> {
    let cluster = ClusterConfig::paper_cluster;
    let mut cells: Vec<(Box<dyn CostModel>, Vec<Algo>)> = Vec::new();
    for p in [
        FrameworkProfile::giraph(),
        FrameworkProfile::graphx(),
        FrameworkProfile::naiad(),
    ] {
        cells.push((
            Box::new(BspEngine::new(cluster(), p)),
            vec![BFS, SSSP, CC, PR],
        ));
    }
    cells.push((Box::new(GasEngine::new(cluster())), vec![BFS, SSSP, CC, PR]));
    for p in [
        CpuProfile::mtgl(),
        CpuProfile::galois(),
        CpuProfile::ligra(),
        CpuProfile::ligra_plus(),
    ] {
        cells.push((Box::new(CpuEngine::new(p)), vec![BFS, SSSP, CC, PR]));
    }
    let totem = Totem::new(TotemConfig::new(GpuConfig::titan_x()));
    cells.push((Box::new(totem), vec![BFS, SSSP, CC, PR, BC]));
    for p in [GpuOnlyProfile::cusha(), GpuOnlyProfile::mapgraph()] {
        let e = GpuOnlyEngine::new(p, GpuConfig::titan_x());
        cells.push((Box::new(e), vec![BFS, PR]));
    }
    let xs = XStream::new(XStreamConfig::default());
    cells.push((Box::new(xs), vec![BFS, SSSP, PR]));
    let chi = GraphChi::new(GraphChiConfig::default());
    cells.push((Box::new(chi), vec![BFS, PR]));
    cells
}

fn render(g: &Csr) -> String {
    let mut out = String::new();
    let o = &mut out;
    for (model, algos) in cells() {
        for algo in algos {
            let r = run(model.as_ref(), g, algo)
                .unwrap_or_else(|e: BaselineError| panic!("{}: {e}", algo.algorithm().report_name));
            writeln!(
                o,
                "== {} {} ==",
                r.report.engine,
                algo.algorithm().report_name
            )
            .unwrap();
            writeln!(o, "values fnv1a {:016x}", values_hash(algo, &r.values)).unwrap();
            writeln!(o, "{}", r.report.to_json()).unwrap();
            for (k, v) in r.registry.counters() {
                writeln!(o, "{k} {v}").unwrap();
            }
        }
    }

    // One memory-starved run per engine with a memory check.
    let mut c = ClusterConfig::paper_cluster();
    c.memory_per_node = 4 << 10;
    let pr2 = Algo::PageRank { iterations: 2 };
    oom(
        o,
        &BspEngine::new(c.clone(), FrameworkProfile::giraph()),
        g,
        pr2,
    );
    oom(o, &GasEngine::new(c), g, pr2);
    let mut e = CpuEngine::new(CpuProfile::galois());
    e.host_memory = 16;
    oom(o, &e, g, BFS);
    let mut cfg = TotemConfig::new(GpuConfig::titan_x());
    cfg.host_memory = 1024;
    oom(o, &Totem::new(cfg), g, BFS);
    let gpu = GpuConfig::titan_x().with_device_memory(16 << 10);
    oom(o, &GpuOnlyEngine::new(GpuOnlyProfile::cusha(), gpu), g, pr2);
    let cfg = XStreamConfig {
        host_memory: 64,
        ..Default::default()
    };
    oom(o, &XStream::new(cfg), g, BFS);

    // TOTEM's ratio search (Table 5), unclamped and device-clamped.
    let candidates: Vec<f64> = (1..=9).map(|i| i as f64 / 10.0).collect();
    for device in [12u64 << 30, 16 << 10] {
        let cfg = TotemConfig::new(GpuConfig::titan_x().with_device_memory(device));
        let totem = Totem::new(cfg.clone());
        for (pagerank, algo) in [(false, BFS), (true, Algo::PageRank { iterations: 3 })] {
            let (frac, elapsed) = totem.best_ratio(g, &candidates, algo).unwrap();
            let eff = Totem::new(cfg.clone().with_gpu_fraction(frac))
                .effective_gpu_fraction(g)
                .unwrap();
            writeln!(
                o,
                "best_ratio device={device} pagerank={pagerank} frac={frac} \
                 elapsed_ns={} effective={eff}",
                elapsed.as_nanos()
            )
            .unwrap();
        }
    }
    out
}

#[test]
fn every_baseline_cell_matches_its_golden() {
    let got = render(&Csr::from_edge_list(&rmat(9)));
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/baselines.txt");
    if std::env::var_os("GTS_BLESS").is_some() {
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); run with GTS_BLESS=1 to create it",
            path.display()
        )
    });
    if got != want {
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(got.lines().count().min(want.lines().count()));
        panic!(
            "baselines diverged from tests/golden/baselines.txt at line {}\n\
             (if a cost model changed intentionally, re-bless with GTS_BLESS=1)",
            line + 1
        );
    }
}
