//! Property test of `apply_mutations`' page rebuild: for any graph, any
//! format (down to 256 B pages, so spills, Large-Page growth,
//! delete-to-empty and page-full cases all occur) and any sequence of
//! valid batches, every Small Page is *canonical* after every batch — the
//! bytes a whole-page decode + `push_vertex` + `finish` would produce —
//! verifies from scratch, and holds exactly the model's adjacency lists;
//! and a store saved after any such history loads back equal.

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
                let src = |s: u32| {
                    if s < n {
                        s
                    } else {
                        hub(n.into(), s.into()) as u32
                    }
                };
                edges.into_iter().map(|(s, d)| (src(s), d)).collect()
            }),
            // A quarter of the batches insert only out of the last vertex.
            proptest::collection::vec(
                prop_oneof![Just(0u64..6), Just(0u64..6), Just(0u64..6), Just(3u64..4)]
                    .prop_flat_map(|kinds| {
                        proptest::collection::vec((kinds, 0u64..10_000, 0u64..10_000), 1..48)
                    }),
                1..8,
            ),
        )
    })
}

/// Hub `h % 3` of `n` vertices: the first two and the last. The last
/// base page is then often a chunk of the last vertex's Large run, and a
/// batch that inserts only out of that vertex appends a delta page right
/// after it.
fn hub(n: u64, h: u64) -> u64 {
    [0, 1, n - 1][(h % 3) as usize]
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
        // 0..=2 insert anywhere, 3 insert out of the last vertex, 4..=5
        // delete.
        let src = if kind == 3 { n - 1 } else { a % n };
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

/// `store` as `save_store` writes it.
fn saved(store: &GraphStore, name: &str) -> Vec<u8> {
    let path = std::env::temp_dir().join(format!("gts-prop-read-{name}-{}", std::process::id()));
    gts_storage::save_store(store, &path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A mutation call commits structure and leaves the changed pages to
    /// be built on their first read, so when a page is read must never
    /// change what it holds. Three stores take the same batches: one is
    /// read only after the last call, one reads every page after every
    /// call, one reads the pages `reads` picks after each call. Every
    /// batch's outcome, then every page byte for byte, the decoded edges
    /// and the saved file, are the same for all three.
    #[test]
    fn page_bytes_do_not_depend_on_when_pages_are_read(run in arb_run(), reads in 0u64..u64::MAX) {
        let (fmt, n, seed_edges, batch_seeds) = run;
        let base = build_graph_store(&EdgeList::new(n, seed_edges), fmt).unwrap();
        let (mut lazy, mut eager, mut some) = (base.clone(), base.clone(), base);
        let mut model = model_of(&lazy);
        for (call, seeds) in batch_seeds.iter().enumerate() {
            let batch = realize_batch(&mut model, seeds);
            let out = lazy.apply_mutations(&batch).unwrap();
            prop_assert_eq!(&eager.apply_mutations(&batch).unwrap(), &out, "call {}", call);
            prop_assert_eq!(&some.apply_mutations(&batch).unwrap(), &out, "call {}", call);
            eager.pages();
            for pid in 0..some.num_pages() {
                if reads.rotate_left((call * 13) as u32 + pid as u32) & 1 == 1 {
                    some.view(pid);
                }
            }
        }
        for (name, store) in [("eager", &eager), ("some", &some)] {
            for (pid, (a, b)) in lazy.pages().iter().zip(store.pages()).enumerate() {
                prop_assert_eq!(&a.data, &b.data, "{}: page {} bytes", name, pid);
            }
            prop_assert_eq!(lazy.decode_edges(), store.decode_edges(), "{}: edges", name);
            prop_assert_eq!(saved(&lazy, "lazy"), saved(store, name), "{}: saved file", name);
        }
        assert_canonical(&lazy, &model)?;
    }
}

/// `store` saved and loaded back.
fn reloaded(store: &GraphStore) -> GraphStore {
    let path = std::env::temp_dir().join(format!("gts-prop-reload-{}", std::process::id()));
    gts_storage::save_store(store, &path).unwrap();
    let loaded = gts_storage::load_store(&path).unwrap();
    std::fs::remove_file(&path).ok();
    loaded
}

/// `loaded` equals `store` in every page, the RVT, the kind lists, every
/// vertex's record ID and delta pages, every page's edge count and the
/// edge count; its epoch, a session counter, starts again at 0.
fn assert_equal_reload(store: &GraphStore, loaded: &GraphStore) -> Result<(), TestCaseError> {
    prop_assert_eq!(loaded.pages(), store.pages());
    prop_assert_eq!(loaded.rvt(), store.rvt());
    prop_assert_eq!(loaded.small_pids(), store.small_pids());
    prop_assert_eq!(loaded.large_pids(), store.large_pids());
    for v in 0..store.num_vertices() {
        prop_assert_eq!(
            loaded.rid_of_vertex(v),
            store.rid_of_vertex(v),
            "vertex {}",
            v
        );
        prop_assert_eq!(
            loaded.delta_pids_of(v),
            store.delta_pids_of(v),
            "vertex {}",
            v
        );
    }
    for pid in 0..store.num_pages() {
        prop_assert_eq!(
            loaded.edges_in_page(pid),
            store.edges_in_page(pid),
            "page {}",
            pid
        );
    }
    prop_assert_eq!(loaded.num_edges(), store.num_edges());
    prop_assert_eq!(loaded.epoch(), 0);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `load_store(save_store(s))` is `s` after any mutation history,
    /// also where a delta page directly follows a Large run of its vertex.
    #[test]
    fn a_saved_store_loads_back_equal(run in arb_run()) {
        let (fmt, n, seed_edges, batch_seeds) = run;
        let mut store = build_graph_store(&EdgeList::new(n, seed_edges), fmt).unwrap();
        let mut model = model_of(&store);
        for seeds in &batch_seeds {
            store.apply_mutations(&realize_batch(&mut model, seeds)).unwrap();
        }
        assert_equal_reload(&store, &reloaded(&store))?;
    }
}
