//! Differential oracle on mutated stores: the answer a program gives on
//! a store that insert and delete batches have changed is the answer it
//! gives on a store built fresh from the final edge list.
//!
//! Each case draws a graph (hubs included, so Large-Page runs, spills and
//! delta pages occur), then batches of inserts and deletes. After each
//! batch it may read some of the store's pages, so some runs start with
//! pages a mutation left pending and others with pages already built.
//! Every row of `programs::ALGORITHMS` then runs through
//! `Engine::run_job` (not live) under Strategy P and S, in memory and
//! from SSDs, with each cache policy, on a copy of the mutated store and
//! on the fresh one. Each result vector must equal the fresh store's, and
//! also `gts_graph::reference` where it has the program (bfs, sssp, cc,
//! pagerank, bc). Float results compare within `prop_engine.rs`'s
//! PageRank tolerance, relative above 1.

use gts_core::engine::{CachePolicyKind, GtsConfig, StorageLocation};
use gts_core::programs::{
    Bc, Bfs, Cc, Degrees, GtsProgram, KCore, PageRank, RadiusEstimation, Rwr, Sssp, ALGORITHMS,
};
use gts_core::{Engine, JobOptions, MutationBatch, Strategy as MultiGpuStrategy};
use gts_graph::{reference, Csr, EdgeList};
use gts_storage::{build_graph_store, GraphStore, PageFormatConfig, PhysicalIdConfig};
use proptest::prelude::*;

/// One drawn case: page size, vertex count, seed edges, per-batch op
/// seeds `(kind, a, b)`, the read pattern and the source seed.
type Case = (
    usize,
    u32,
    Vec<(u32, u32)>,
    Vec<Vec<(u64, u64, u64)>>,
    u64,
    u64,
);

fn arb_case() -> impl Strategy<Value = Case> {
    (prop_oneof![Just(256usize), Just(512)], 4u32..48).prop_flat_map(|(page, n)| {
        (
            Just(page),
            Just(n),
            // A third of the seed edges leave one of three hub vertices.
            proptest::collection::vec((0..3 * n, 0..n), 0..240).prop_map(move |edges| {
                let src = |s: u32| if s < n { s } else { s % 3 };
                edges.into_iter().map(|(s, d)| (src(s), d)).collect()
            }),
            proptest::collection::vec(
                proptest::collection::vec((0u64..6, 0u64..10_000, 0u64..10_000), 1..40),
                1..5,
            ),
            0u64..u64::MAX,
            0u64..10_000,
        )
    })
}

/// Turn op seeds into a batch that is valid against the edge multiset
/// `edges`, updating it: kinds 0..=2 insert anywhere, 3 at a hub, 4..=5
/// delete an edge the multiset holds.
fn realize_batch(n: u64, edges: &mut Vec<(u64, u64)>, seeds: &[(u64, u64, u64)]) -> MutationBatch {
    let mut b = MutationBatch::new();
    for &(kind, a, c) in seeds {
        if kind < 4 || edges.is_empty() {
            let src = if kind == 3 { a % 3 } else { a % n };
            b.insert(src, c % n);
            edges.push((src, c % n));
        } else {
            let (src, dst) = edges.swap_remove(a as usize % edges.len());
            b.delete(src, dst);
        }
    }
    b
}

/// A program's result vector.
#[derive(Debug)]
enum Answer {
    Exact(Vec<u64>),
    Float(Vec<f64>),
}

fn exact<T: Copy + Into<u64>>(v: &[T]) -> Answer {
    Answer::Exact(v.iter().map(|&x| x.into()).collect())
}

fn float<T: Copy + Into<f64>>(v: &[T]) -> Answer {
    Answer::Float(v.iter().map(|&x| x.into()).collect())
}

/// Run the `ALGORITHMS` row `name` on `store` and read its result.
fn run(engine: &Engine, store: &GraphStore, name: &str, source: u64) -> Answer {
    let n = store.num_vertices();
    let go = |prog: &mut dyn GtsProgram| {
        let opts = JobOptions::default();
        if let Err(e) = engine.run_job(store, prog, &opts) {
            panic!("{name}: {e}");
        }
    };
    match name {
        "bfs" => {
            let mut p = Bfs::new(n, source);
            go(&mut p);
            exact(&p.levels_u32())
        }
        "pagerank" => {
            let mut p = PageRank::new(n, 3);
            go(&mut p);
            float(p.ranks())
        }
        "sssp" => {
            let mut p = Sssp::new(n, source);
            go(&mut p);
            exact(p.distances())
        }
        "cc" => {
            let mut p = Cc::new(n);
            go(&mut p);
            exact(p.labels())
        }
        "bc" => {
            let mut p = Bc::new(n, source);
            go(&mut p);
            float(p.centrality())
        }
        "rwr" => {
            let mut p = Rwr::new(n, source, 3);
            go(&mut p);
            float(p.scores())
        }
        "degrees" => {
            let mut p = Degrees::new(n);
            go(&mut p);
            exact(p.degrees())
        }
        "kcore" => {
            let mut p = KCore::new(n, 2);
            go(&mut p);
            exact(p.in_core())
        }
        "radius" => {
            let mut p = RadiusEstimation::new(n);
            go(&mut p);
            exact(p.eccentricities())
        }
        other => panic!("no oracle for the ALGORITHMS row {other:?}"),
    }
}

/// The sequential reference's answer, for the programs it has.
fn reference(csr: &Csr, name: &str, source: u32) -> Option<Answer> {
    let as_u64 = |v: Vec<u32>| Answer::Exact(v.into_iter().map(u64::from).collect());
    match name {
        "bfs" => Some(as_u64(reference::bfs(csr, source))),
        "sssp" => Some(as_u64(reference::sssp(csr, source))),
        "cc" => Some(as_u64(reference::connected_components(csr))),
        "pagerank" => Some(Answer::Float(reference::pagerank(csr, 0.85, 3))),
        "bc" => Some(Answer::Float(reference::betweenness(csr, &[source]))),
        _ => None,
    }
}

fn agree(got: &Answer, want: &Answer) -> bool {
    match (got, want) {
        (Answer::Exact(a), Answer::Exact(b)) => a == b,
        (Answer::Float(a), Answer::Float(b)) => {
            a.len() == b.len()
                && a.iter()
                    .zip(b)
                    .all(|(x, y)| (x - y).abs() < 1e-4 * y.abs().max(1.0))
        }
        _ => false,
    }
}

/// Two GPUs under each strategy, in memory and from SSDs, with each
/// cache policy over a cache of two pages.
fn configs(page_size: usize) -> Vec<GtsConfig> {
    let mut out = Vec::new();
    for strategy in [MultiGpuStrategy::Performance, MultiGpuStrategy::Scalability] {
        for storage in [StorageLocation::InMemory, StorageLocation::Ssds(2)] {
            for cache_policy in [
                CachePolicyKind::Lru,
                CachePolicyKind::Fifo,
                CachePolicyKind::Random,
            ] {
                out.push(GtsConfig {
                    num_gpus: 2,
                    strategy,
                    storage,
                    cache_policy,
                    cache_limit_bytes: Some(2 * page_size as u64),
                    ..GtsConfig::default()
                });
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn mutated_store_answers_as_the_store_built_from_its_edges(case in arb_case()) {
        let (page_size, n, seed_edges, batch_seeds, reads, source) = case;
        let fmt = PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, page_size);
        let mut mutated = build_graph_store(&EdgeList::new(n, seed_edges.clone()), fmt).unwrap();
        let mut edges: Vec<(u64, u64)> =
            seed_edges.iter().map(|&(s, d)| (s as u64, d as u64)).collect();
        for (call, seeds) in batch_seeds.iter().enumerate() {
            let batch = realize_batch(n as u64, &mut edges, seeds);
            mutated.apply_mutations(&batch).unwrap();
            for pid in 0..mutated.num_pages() {
                if reads.rotate_left((call * 11) as u32 + pid as u32) & 3 == 0 {
                    mutated.view(pid);
                }
            }
        }
        let last: Vec<(u32, u32)> = edges.iter().map(|&(s, d)| (s as u32, d as u32)).collect();
        let last = EdgeList::new(n, last);
        let fresh = build_graph_store(&last, fmt).unwrap();
        let mut want = fresh.decode_edges();
        want.sort_unstable();
        prop_assert_eq!(mutated.clone().decode_edges(), want, "edges");
        let csr = Csr::from_edge_list(&last);
        let source = source % n as u64;
        for cfg in configs(page_size) {
            let label = format!("{:?} {:?} {:?}", cfg.strategy, cfg.storage, cfg.cache_policy);
            let engine = Engine::new(cfg).unwrap();
            for alg in ALGORITHMS {
                // A copy keeps the pages the batches left pending.
                let got = run(&engine, &mutated.clone(), alg.name, source);
                let fresh_answer = run(&engine, &fresh, alg.name, source);
                prop_assert!(
                    agree(&got, &fresh_answer),
                    "{} {}: mutated {:?}, fresh {:?}", label, alg.name, got, fresh_answer
                );
                if let Some(want) = reference(&csr, alg.name, source as u32) {
                    prop_assert!(
                        agree(&got, &want),
                        "{} {}: mutated {:?}, reference {:?}", label, alg.name, got, want
                    );
                }
            }
        }
    }
}
