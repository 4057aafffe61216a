//! Property test of `apply_mutations`' page rebuild: for any graph, any
//! format (down to 256 B pages, so spills, Large-Page growth,
//! delete-to-empty and page-full cases all occur) and any sequence of
//! valid batches, every Small Page is *canonical* after every batch — the
//! bytes a whole-page decode + `push_vertex` + `finish` would produce —
//! verifies from scratch, and holds exactly the model's adjacency lists.

use gts_graph::EdgeList;
use gts_storage::page::SmallPageEncoder;
use gts_storage::{
    build_graph_store, GraphStore, MutationBatch, Page, PageFormatConfig, PageKind,
    PhysicalIdConfig, RecordId,
};
use proptest::prelude::*;
use proptest::TestCaseError;

/// One generated run: the format, the vertex count, the seed edge list
/// and per-batch op seeds `(kind, a, b)`.
type RunSeed = (
    PageFormatConfig,
    u32,
    Vec<(u32, u32)>,
    Vec<Vec<(u64, u64, u64)>>,
);

fn arb_run() -> impl Strategy<Value = RunSeed> {
    // `q = 1` puts a non-zero byte last in every packed entry (small
    // graphs leave the high slot byte of a wider `q` at zero).
    let fmt = (
        2u8..=3,
        1u8..=3,
        prop_oneof![Just(256usize), Just(512), Just(4096)],
    )
        .prop_map(|(p, q, size)| PageFormatConfig::new(PhysicalIdConfig::new(p, q), size));
    (fmt, 4u32..150).prop_flat_map(|(fmt, n)| {
        (
            Just(fmt),
            Just(n),
            // A third of the seed edges leave one of three hub vertices.
            proptest::collection::vec((0..3 * n, 0..n), 0..500).prop_map(move |edges| {
                let src = |s: u32| if s < n { s } else { s % 3 };
                edges.into_iter().map(|(s, d)| (src(s), d)).collect()
            }),
            proptest::collection::vec(
                proptest::collection::vec((0u64..6, 0u64..10_000, 0u64..10_000), 1..48),
                1..8,
            ),
        )
    })
}

/// Per-vertex destination lists in stored order: what a delete's "first
/// matching record" and an insert's "append" are defined against.
type Model = Vec<Vec<u64>>;

fn model_of(store: &GraphStore) -> Model {
    let mut model = vec![Vec::new(); store.num_vertices() as usize];
    for pid in 0..store.num_pages() {
        let v = store.view(pid);
        let rvt = store.rvt();
        match v.kind() {
            PageKind::Small => v.sp_vertices().for_each(|(vid, adj)| {
                model[vid as usize].extend(adj.map(|r| rvt.translate(r)));
            }),
            PageKind::Large => {
                model[v.lp_vid() as usize].extend(v.lp_adj_run().map(|r| rvt.translate(r)));
            }
        }
    }
    model
}

/// Turn op seeds into a batch that is valid against `model`, updating it.
fn realize_batch(model: &mut Model, seeds: &[(u64, u64, u64)]) -> MutationBatch {
    let n = model.len() as u64;
    let mut b = MutationBatch::new();
    for &(kind, a, c) in seeds {
        // 0..=2 insert anywhere, 3 insert at a hub, 4..=5 delete.
        let src = if kind == 3 { a % 3 } else { a % n };
        if kind < 4 {
            b.insert(src, c % n);
            model[src as usize].push(c % n);
        } else if let Some(src) = (0..n)
            .map(|i| (src + i) % n)
            .find(|&s| !model[s as usize].is_empty())
        {
            let adj = &mut model[src as usize];
            let dst = adj[c as usize % adj.len()];
            let first = adj
                .iter()
                .position(|&d| d == dst)
                .expect("dst was drawn from adj");
            adj.remove(first);
            b.delete(src, dst);
        }
    }
    b
}

fn assert_canonical(store: &GraphStore, model: &Model) -> Result<(), TestCaseError> {
    let fmt = store.cfg();
    let mut edges = 0u64;
    for pid in 0..store.num_pages() {
        let page = store.page(pid);
        // From the unverified state, as a page read back from disk.
        let fresh = Page::new(pid, page.kind, page.data.clone());
        prop_assert_eq!(fresh.verify(fmt).map(|_| ()), Ok(()), "page {}", pid);
        let v = store.view(pid);
        prop_assert_eq!(
            store.edges_in_page(pid),
            v.edges_in_page(),
            "edges of page {}",
            pid
        );
        edges += v.edges_in_page();
        if v.kind() != PageKind::Small {
            continue;
        }
        let mut enc = SmallPageEncoder::new(fmt);
        for (vid, adj) in v.sp_vertices() {
            let adj: Vec<RecordId> = adj.collect();
            enc.push_vertex(vid, &adj);
            let want: Vec<RecordId> = if store.delta_pids_of(vid).is_empty() {
                model[vid as usize]
                    .iter()
                    .map(|&d| store.rid_of_vertex(d))
                    .collect()
            } else {
                Vec::new() // spilled: the home record stays zero-length
            };
            prop_assert_eq!(adj, want, "record of vertex {} in page {}", vid, pid);
        }
        prop_assert_eq!(&page.data, &enc.finish(pid).data, "page {} bytes", pid);
    }
    prop_assert_eq!(store.num_edges(), edges);
    let mut want: Vec<(u64, u64)> = (0u64..)
        .zip(model)
        .flat_map(|(s, adj)| adj.iter().map(move |&d| (s, d)))
        .collect();
    want.sort_unstable();
    prop_assert_eq!(store.decode_edges(), want);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pages_are_canonical_after_any_batch(run in arb_run()) {
        let (fmt, n, seed_edges, batch_seeds) = run;
        let mut store = build_graph_store(&EdgeList::new(n, seed_edges), fmt).unwrap();
        let mut model = model_of(&store);
        assert_canonical(&store, &model)?;
        for seeds in &batch_seeds {
            let batch = realize_batch(&mut model, seeds);
            let out = store.apply_mutations(&batch).unwrap();
            prop_assert_eq!(out.epoch, store.epoch());
            assert_canonical(&store, &model)?;
        }
    }
}
