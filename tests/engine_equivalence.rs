//! Every engine in the workspace — GTS and all seven baselines — must
//! produce identical results for the same algorithm on the same graph.
//! This is the cross-engine guarantee behind the comparison figures: they
//! compare *performance models* of engines that all compute the truth.

use gts_baselines::bsp::BspEngine;
use gts_baselines::cluster::{ClusterConfig, FrameworkProfile};
use gts_baselines::cpu::{CpuEngine, CpuProfile};
use gts_baselines::gas::GasEngine;
use gts_baselines::gpu_only::{GpuOnlyEngine, GpuOnlyProfile};
use gts_baselines::graphchi::{GraphChi, GraphChiConfig};
use gts_baselines::report::values_to_u32;
use gts_baselines::totem::{Totem, TotemConfig};
use gts_baselines::xstream::{XStream, XStreamConfig};
use gts_baselines::{run, Algo, CostModel};
use gts_core::engine::{Gts, GtsConfig};
use gts_core::programs::{Bfs, Cc, PageRank, Sssp};
use gts_gpu::GpuConfig;
use gts_graph::generate::rmat;
use gts_graph::{reference, Csr};
use gts_storage::{build_graph_store, PageFormatConfig, PhysicalIdConfig};

fn graph() -> Csr {
    Csr::from_edge_list(&rmat(10))
}

/// Every comparator engine and profile the figures use.
fn models() -> Vec<Box<dyn CostModel>> {
    let cluster = ClusterConfig::paper_cluster;
    let mut models: Vec<Box<dyn CostModel>> = Vec::new();
    for p in [
        FrameworkProfile::giraph(),
        FrameworkProfile::graphx(),
        FrameworkProfile::naiad(),
    ] {
        models.push(Box::new(BspEngine::new(cluster(), p)));
    }
    models.push(Box::new(GasEngine::new(cluster())));
    for p in [
        CpuProfile::mtgl(),
        CpuProfile::galois(),
        CpuProfile::ligra(),
        CpuProfile::ligra_plus(),
    ] {
        models.push(Box::new(CpuEngine::new(p)));
    }
    models.push(Box::new(Totem::new(TotemConfig::new(GpuConfig::titan_x()))));
    for p in [GpuOnlyProfile::cusha(), GpuOnlyProfile::mapgraph()] {
        models.push(Box::new(GpuOnlyEngine::new(p, GpuConfig::titan_x())));
    }
    models.push(Box::new(XStream::new(XStreamConfig::default())));
    models.push(Box::new(GraphChi::new(GraphChiConfig::default())));
    models
}

/// Run `algo` on every model and check its values with `ok`.
fn every_model_agrees(g: &Csr, algo: Algo, ok: impl Fn(&[f64]) -> bool) {
    for m in models() {
        let r = run(m.as_ref(), g, algo).unwrap();
        assert!(
            ok(&r.values),
            "{} {}",
            m.name(),
            algo.algorithm().report_name
        );
    }
}

fn close(want: &[f64], tol: f64) -> impl Fn(&[f64]) -> bool + '_ {
    move |got| got.len() == want.len() && got.iter().zip(want).all(|(a, b)| (a - b).abs() < tol)
}

fn gts_bfs(csr_graph: &Csr) -> Vec<u32> {
    let edges: Vec<(u32, u32)> = csr_graph.edges().collect();
    let el = gts_graph::EdgeList::new(csr_graph.num_vertices(), edges);
    let store =
        build_graph_store(&el, PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 2048)).unwrap();
    let mut bfs = Bfs::new(store.num_vertices(), 0);
    Gts::new(GtsConfig::default())
        .run(&store, &mut bfs)
        .unwrap();
    bfs.levels_u32()
}

#[test]
fn all_engines_agree_on_bfs() {
    let g = graph();
    let want = reference::bfs(&g, 0);
    assert_eq!(gts_bfs(&g), want, "GTS");
    every_model_agrees(&g, Algo::Bfs { source: 0 }, |v| values_to_u32(v) == want);
}

#[test]
fn all_engines_agree_on_pagerank() {
    let g = graph();
    let want = reference::pagerank(&g, 0.85, 5);
    every_model_agrees(&g, Algo::PageRank { iterations: 5 }, close(&want, 1e-10));

    // GTS runs in f32; compare at f32 tolerance.
    let edges: Vec<(u32, u32)> = g.edges().collect();
    let el = gts_graph::EdgeList::new(g.num_vertices(), edges);
    let store =
        build_graph_store(&el, PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 2048)).unwrap();
    let mut pr = PageRank::new(store.num_vertices(), 5);
    Gts::new(GtsConfig::default()).run(&store, &mut pr).unwrap();
    for (a, b) in pr.ranks().iter().zip(&want) {
        assert!((*a as f64 - b).abs() < 1e-4, "GTS");
    }
}

#[test]
fn traversal_engines_agree_on_sssp_and_cc() {
    let g = graph();
    let want_sssp = reference::sssp(&g, 0);
    let want_cc = reference::connected_components(&g);
    every_model_agrees(&g, Algo::Sssp { source: 0 }, |v| {
        values_to_u32(v) == want_sssp
    });
    every_model_agrees(&g, Algo::Cc, |v| values_to_u32(v) == want_cc);

    let edges: Vec<(u32, u32)> = g.edges().collect();
    let el = gts_graph::EdgeList::new(g.num_vertices(), edges);
    let store =
        build_graph_store(&el, PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 2048)).unwrap();
    let mut sssp = Sssp::new(store.num_vertices(), 0);
    Gts::new(GtsConfig::default())
        .run(&store, &mut sssp)
        .unwrap();
    assert_eq!(sssp.distances(), &want_sssp[..]);
    let mut cc = Cc::new(store.num_vertices());
    Gts::new(GtsConfig::default()).run(&store, &mut cc).unwrap();
    assert_eq!(cc.labels_u32(), want_cc);
}

#[test]
fn all_engines_agree_on_bc() {
    let g = graph();
    let want = reference::betweenness(&g, &[0]);
    every_model_agrees(&g, Algo::Bc { source: 0 }, close(&want, 1e-9));
}

#[test]
fn performance_ordering_matches_the_papers_headlines() {
    // The relationships the figures hinge on, checked as inequalities on a
    // mid-size graph: GTS beats the distributed engines by a wide margin
    // for PageRank; PowerGraph is the best distributed engine; frontier
    // CPU engines beat MTGL.
    let g = Csr::from_edge_list(&rmat(13));
    let edges: Vec<(u32, u32)> = g.edges().collect();
    let el = gts_graph::EdgeList::new(g.num_vertices(), edges);
    let store = build_graph_store(
        &el,
        PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 65536),
    )
    .unwrap();
    let mut pr = PageRank::new(store.num_vertices(), 5);
    let gts = Gts::new(GtsConfig::default())
        .run(&store, &mut pr)
        .unwrap()
        .elapsed;

    let cluster = ClusterConfig::paper_cluster();
    let pr5 = Algo::PageRank { iterations: 5 };
    let giraph = BspEngine::new(cluster.clone(), FrameworkProfile::giraph());
    let giraph = run(&giraph, &g, pr5).unwrap().report.elapsed;
    let powergraph = run(&GasEngine::new(cluster), &g, pr5)
        .unwrap()
        .report
        .elapsed;
    assert!(gts < powergraph, "GTS {gts} vs PowerGraph {powergraph}");
    assert!(
        powergraph < giraph,
        "PowerGraph {powergraph} vs Giraph {giraph}"
    );
    assert!(
        gts.as_secs_f64() * 5.0 < giraph.as_secs_f64(),
        "GTS must win by a wide margin"
    );
}
