//! Property tests of the slotted page format: any graph, any sane format
//! configuration — build must round-trip exactly and the RVT must resolve
//! every record ID back to the vertex that owns it.

use gts_graph::EdgeList;
use gts_storage::page::{encode_large_page, SmallPageEncoder};
use gts_storage::{
    build_graph_store, AdjRun, PageFormatConfig, PageKind, PhysicalIdConfig, RecordId,
};
use proptest::prelude::*;

/// Random small multigraph (duplicates and self-loops allowed).
fn arb_graph() -> impl Strategy<Value = EdgeList> {
    (2u32..200).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..600)
            .prop_map(move |edges| EdgeList::new(n, edges))
    })
}

/// Random format: (p,q) widths wide enough for small graphs, page sizes
/// spanning "everything is an LP" to "everything fits one SP".
fn arb_format() -> impl Strategy<Value = PageFormatConfig> {
    (2u8..=4, 2u8..=4, 7u32..=14).prop_map(|(p, q, logsz)| {
        PageFormatConfig::new(PhysicalIdConfig::new(p, q), 1usize << logsz)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn build_roundtrips_any_graph_any_format(graph in arb_graph(), fmt in arb_format()) {
        let store = build_graph_store(&graph, fmt).expect("small graphs always fit 2..4-byte ids");
        let mut want: Vec<(u64, u64)> = graph
            .edges
            .iter()
            .map(|&(s, d)| (s as u64, d as u64))
            .collect();
        want.sort_unstable();
        prop_assert_eq!(store.decode_edges(), want);
    }

    #[test]
    fn every_vertex_is_addressable(graph in arb_graph(), fmt in arb_format()) {
        let store = build_graph_store(&graph, fmt).unwrap();
        for v in 0..store.num_vertices() {
            let rid = store.rid_of_vertex(v);
            prop_assert_eq!(store.rvt().translate(rid), v);
            prop_assert!(rid.pid < store.num_pages());
        }
    }

    #[test]
    fn page_accounting_is_consistent(graph in arb_graph(), fmt in arb_format()) {
        let store = build_graph_store(&graph, fmt).unwrap();
        prop_assert_eq!(
            store.small_pids().len() + store.large_pids().len(),
            store.num_pages() as usize
        );
        let edge_sum: u64 = (0..store.num_pages()).map(|p| store.edges_in_page(p)).sum();
        prop_assert_eq!(edge_sum, graph.num_edges() as u64);
        // Every page's kind matches its id list.
        for &pid in store.small_pids() {
            prop_assert_eq!(store.view(pid).kind(), PageKind::Small);
        }
        for &pid in store.large_pids() {
            prop_assert_eq!(store.view(pid).kind(), PageKind::Large);
        }
    }

    #[test]
    fn sp_vids_are_consecutive(graph in arb_graph(), fmt in arb_format()) {
        let store = build_graph_store(&graph, fmt).unwrap();
        for &pid in store.small_pids() {
            let v = store.view(pid);
            let start = store.rvt().entry(pid).start_vid;
            for slot in 0..v.count() {
                prop_assert_eq!(v.sp_vid(slot), start + slot as u64);
            }
        }
    }

    #[test]
    fn lp_runs_are_contiguous_and_complete(graph in arb_graph(), fmt in arb_format()) {
        let store = build_graph_store(&graph, fmt).unwrap();
        let mut seen: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        for &pid in store.large_pids() {
            let v = store.view(pid);
            *seen.entry(v.lp_vid()).or_insert(0) += v.count() as u64;
            // The run declared by the RVT stays within Large pages of the
            // same vertex.
            let range = store.rvt().entry(pid).lp_range.expect("LP has range");
            for p in pid..=pid + range as u64 {
                prop_assert_eq!(store.view(p).lp_vid(), v.lp_vid());
            }
        }
        for (vid, total) in seen {
            let deg = graph
                .edges
                .iter()
                .filter(|&&(s, _)| s as u64 == vid)
                .count() as u64;
            prop_assert_eq!(total, deg, "LP vertex {} chunk counts", vid);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn cache_policies_respect_capacity_and_agree_on_infinite_cache(
        accesses in proptest::collection::vec(0u64..64, 1..400),
        cap in 0usize..32,
    ) {
        use gts_storage::cache::{CachePolicy, FifoCache, LruCache, RandomCache};
        let mut caches: Vec<Box<dyn CachePolicy>> = vec![
            Box::new(LruCache::new(cap)),
            Box::new(FifoCache::new(cap)),
            Box::new(RandomCache::new(cap, 7)),
        ];
        for c in &mut caches {
            for &a in &accesses {
                c.access(a);
                prop_assert!(c.len() <= cap);
            }
        }
        // With capacity >= key space the policies are equivalent: every
        // access after the first of a key hits.
        let distinct: std::collections::HashSet<u64> = accesses.iter().copied().collect();
        let mut big: Vec<Box<dyn CachePolicy>> = vec![
            Box::new(LruCache::new(64)),
            Box::new(FifoCache::new(64)),
            Box::new(RandomCache::new(64, 7)),
        ];
        for c in &mut big {
            for &a in &accesses {
                c.access(a);
            }
            prop_assert_eq!(c.misses(), distinct.len() as u64);
            prop_assert_eq!(c.hits(), (accesses.len() - distinct.len()) as u64);
        }
    }

    #[test]
    fn mmbuf_hit_rate_bounded(accesses in proptest::collection::vec(0u64..32, 1..200), cap in 0usize..16) {
        use gts_storage::{CachePolicy, FifoCache};
        // The MMBuf is the FIFO policy.
        let mut buf = FifoCache::new(cap);
        for &a in &accesses {
            buf.access(a);
        }
        prop_assert_eq!(buf.hits() + buf.misses(), accesses.len() as u64);
        let rate = buf.hit_rate();
        prop_assert!((0.0..=1.0).contains(&rate));
        if cap == 0 {
            prop_assert_eq!(buf.hits(), 0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fuzz the load path: flipping any byte of a valid store file must
    /// produce an error or a still-consistent store — never a panic.
    #[test]
    fn load_survives_single_byte_corruption(
        corrupt_at_frac in 0.0f64..1.0,
        new_byte in 0u8..=255,
        seed in 0u64..50,
    ) {
        use gts_storage::{load_store, save_store};
        let graph = gts_graph::generate::Rmat::new(7).with_seed(seed).generate();
        let store = build_graph_store(
            &graph,
            PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 512),
        )
        .unwrap();
        let mut path = std::env::temp_dir();
        path.push(format!(
            "gts-fuzz-{}-{}",
            std::process::id(),
            (corrupt_at_frac * 1e9) as u64 ^ seed ^ new_byte as u64
        ));
        save_store(&store, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let at = ((bytes.len() - 1) as f64 * corrupt_at_frac) as usize;
        bytes[at] = new_byte;
        std::fs::write(&path, &bytes).unwrap();
        // Must not panic; errors are fine, and a lucky no-op flip must
        // still yield a store that decodes to *some* consistent graph.
        let result = std::panic::catch_unwind(|| load_store(&path));
        std::fs::remove_file(&path).ok();
        match result {
            Ok(_) => {}
            Err(_) => prop_assert!(false, "load_store panicked on corrupt byte {at}"),
        }
    }
}

/// A flipped kind byte passes the per-page checksum once the page is
/// resealed; the load must still refuse it, not walk it as an LP chunk.
#[test]
fn load_rejects_a_resealed_unknown_kind_byte() {
    use gts_storage::{load_store, page_checksum, save_store, FileError};
    let graph = gts_graph::generate::Rmat::new(7).generate();
    let fmt = PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 512);
    let store = build_graph_store(&graph, fmt).unwrap();
    let path = std::env::temp_dir().join(format!("gts-fuzz-kind-{}", std::process::id()));
    save_store(&store, &path).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    let first = bytes.len() - store.num_pages() as usize * fmt.page_size;
    let page = &mut bytes[first..first + fmt.page_size];
    page[0] = 2;
    let sum = page_checksum(page).to_le_bytes();
    page[fmt.page_size - sum.len()..].copy_from_slice(&sum);
    std::fs::write(&path, &bytes).unwrap();
    let result = load_store(&path);
    std::fs::remove_file(&path).ok();
    match result {
        Err(FileError::BadHeader(m)) => assert!(m.contains("page 0: unknown kind byte 2"), "{m}"),
        other => panic!("expected a typed error, got {:?}", other.map(|_| "a store")),
    }
}

/// A Small Page whose slot directory was edited and the page resealed
/// passes the checksum; the structural walk must still refuse slots that
/// alias one record or name records out of slot order, or `load_store`
/// would count some edges twice and skip others.
#[test]
fn load_rejects_resealed_slot_offsets_that_are_not_the_encoders() {
    use gts_storage::{load_store, page_checksum, save_store, FileError};
    const SLOT: usize = 10; // VID (6) + OFF (4), growing back from the trailer
    let graph = EdgeList::new(8, vec![(0, 1), (0, 2), (1, 2), (2, 3)]);
    let fmt = PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 512);
    let store = build_graph_store(&graph, fmt).unwrap();
    assert_eq!(store.small_pids(), [0]);
    let path = std::env::temp_dir().join(format!("gts-fuzz-off-{}", std::process::id()));
    let off_at = |slot: usize| fmt.page_size - 8 - (slot + 1) * SLOT + 6;
    type Edit = fn(&mut [u8], usize, usize);
    let edits: [(&str, Edit); 2] = [
        (
            "slot 0 record offset 12, but the next record belongs at 0,",
            |page, a, b| {
                let (lo, hi) = page.split_at_mut(a); // slot 1 lies below slot 0
                lo[b..b + 4].swap_with_slice(&mut hi[..4]);
            },
        ),
        (
            "slot 1 record offset 0, but the next record belongs at 12,",
            |page, a, b| {
                page.copy_within(a..a + 4, b);
            },
        ),
    ];
    for (want, edit) in edits {
        save_store(&store, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let first = bytes.len() - store.num_pages() as usize * fmt.page_size;
        let page = &mut bytes[first..first + fmt.page_size];
        edit(page, off_at(0), off_at(1));
        let sum = page_checksum(page).to_le_bytes();
        page[fmt.page_size - sum.len()..].copy_from_slice(&sum);
        std::fs::write(&path, &bytes).unwrap();
        let result = load_store(&path);
        std::fs::remove_file(&path).ok();
        match result {
            Err(FileError::BadHeader(m)) => assert!(m.contains(want), "{m}"),
            other => panic!("{want}: got {:?}", other.map(|_| "a store")),
        }
    }
}

/// Every `(p, q)` width pair: both the one-load path (`p + q <= 8`) and
/// the two-load path, up to `(8, 8)`.
fn all_widths() -> impl Iterator<Item = PhysicalIdConfig> {
    (1u8..=8).flat_map(|p| (1u8..=8).map(move |q| PhysicalIdConfig::new(p, q)))
}

/// Largest record ID `id` can pack (`RecordId::slot` is itself 32 bits).
fn max_rid(id: PhysicalIdConfig) -> RecordId {
    let max = |bytes: u8| u64::MAX >> (64 - 8 * bytes as u32);
    RecordId::new(max(id.p), max(id.q).min(u32::MAX as u64) as u32)
}

/// `run`, the per-index accessor `at` and the encoded `want` all agree,
/// and `len()` stays exact while the run is consumed.
fn assert_run_is(run: AdjRun<'_>, at: impl Fn(u32) -> RecordId, want: &[RecordId]) {
    assert_eq!(run.len(), want.len());
    assert_eq!(run.clone().collect::<Vec<_>>(), want);
    for (i, r) in want.iter().enumerate() {
        assert_eq!(at(i as u32), *r);
    }
    let mut rest = run;
    for left in (0..want.len()).rev() {
        assert!(rest.next().is_some());
        assert_eq!(rest.len(), left);
    }
    assert_eq!(rest.next(), None);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random adjacency lists with either half at 0, at its maximum or
    /// anywhere between, on a Small Page and as one Large-Page chunk.
    #[test]
    fn adj_runs_equal_accessors_equal_input_at_every_width(
        lists in proptest::collection::vec(
            proptest::collection::vec((0u64..=u64::MAX, 0u64..=u64::MAX, 0u8..9), 0..12),
            1..6,
        ),
    ) {
        for id in all_widths() {
            let cfg = PageFormatConfig::new(id, 1024);
            let max = max_rid(id);
            // `pick % 3` places the pid half, `pick / 3` the slot half.
            let half = |raw: u64, pick: u8, max: u64| match pick {
                0 => 0,
                1 => max,
                _ => raw & max,
            };
            let lists: Vec<Vec<RecordId>> = lists
                .iter()
                .map(|l| {
                    l.iter()
                        .map(|&(pid, slot, pick)| {
                            RecordId::new(
                                half(pid, pick % 3, max.pid),
                                half(slot, pick / 3, max.slot as u64) as u32,
                            )
                        })
                        .collect()
                })
                .collect();
            let mut enc = SmallPageEncoder::new(cfg);
            for (vid, adj) in lists.iter().enumerate() {
                enc.push_vertex(vid as u64, adj);
            }
            let page = enc.finish(0);
            let v = page.verify(cfg).unwrap().view();
            for (slot, want) in lists.iter().enumerate() {
                let slot = slot as u32;
                assert_run_is(v.sp_adj_run(slot), |i| v.sp_adj(slot, i), want);
                prop_assert_eq!(v.sp_adj_len(slot) as usize, want.len());
            }
            let walked: Vec<(u64, Vec<RecordId>)> =
                v.sp_vertices().map(|(vid, adj)| (vid, adj.collect())).collect();
            let want: Vec<(u64, Vec<RecordId>)> =
                lists.iter().cloned().enumerate().map(|(i, l)| (i as u64, l)).collect();
            prop_assert_eq!(walked, want);

            let chunk: Vec<RecordId> = lists.concat();
            let page = encode_large_page(cfg, 1, 7, &chunk);
            let v = page.verify(cfg).unwrap().view();
            assert_run_is(v.lp_adj_run(), |i| v.lp_adj(i), &chunk);
        }
    }
}

/// The last entry's full-word load reads past its own bytes: into the
/// slot directory on a Small Page whose last record abuts it, into the
/// trailer on a Large Page at exactly `lp_capacity()`. Every entry is
/// all-ones, so a mask that let a neighbouring byte in would show.
#[test]
fn runs_decode_where_the_last_entry_abuts_the_slots_or_the_trailer() {
    for id in all_widths() {
        let w = id.rid_bytes();
        let max = max_rid(id);
        // One record filling the page to the byte: header + trailer,
        // one slot + ADJLIST_SZ, 20 entries.
        let cfg = PageFormatConfig::new(id, 16 + 14 + 20 * w);
        let mut enc = SmallPageEncoder::new(cfg);
        enc.push_vertex(3, &[max; 20]);
        assert_eq!(enc.remaining(), 0, "{id}");
        let page = enc.finish(0);
        let v = page.verify(cfg).unwrap().view();
        assert_run_is(v.sp_adj_run(0), |i| v.sp_adj(0, i), &[max; 20]);

        // Many one-edge vertices until no further one fits.
        let cfg = PageFormatConfig::new(id, 1024);
        let mut enc = SmallPageEncoder::new(cfg);
        while enc.fits(1) {
            enc.push_vertex(enc.num_slots() as u64, &[max]);
        }
        let n = enc.num_slots();
        let page = enc.finish(0);
        let v = page.verify(cfg).unwrap().view();
        assert_eq!(v.sp_vertices().count(), n as usize);
        for (vid, adj) in v.sp_vertices() {
            assert_run_is(adj, |i| v.sp_adj(vid as u32, i), &[max]);
        }

        // A full Large Page whose last entry ends where the trailer
        // starts: header + VID + trailer, 20 entries, no padding.
        let cfg = PageFormatConfig::new(id, 8 + 6 + 8 + 20 * w);
        assert_eq!(cfg.lp_capacity(), 20);
        let page = encode_large_page(cfg, 0, 9, &[max; 20]);
        let v = page.verify(cfg).unwrap().view();
        assert_run_is(v.lp_adj_run(), |i| v.lp_adj(i), &[max; 20]);
        // ...and an empty chunk yields nothing.
        let page = encode_large_page(cfg, 0, 9, &[]);
        assert_run_is(page.verify(cfg).unwrap().view().lp_adj_run(), |_| max, &[]);
    }
}

#[test]
fn vid_range_spanning_vertex_ids_work_at_48_bits() {
    // Not random: one deliberate boundary check at the 6-byte VID limit
    // via direct page encoding (graph-level builds at 2^48 vertices are
    // not materialisable).
    let cfg = PageFormatConfig::new(PhysicalIdConfig::new(4, 4), 4096);
    let mut enc = SmallPageEncoder::new(cfg);
    let vid = (1u64 << 48) - 1;
    enc.push_vertex(vid, &[RecordId::new((1 << 32) - 1, u32::MAX)]);
    let page = enc.finish(0);
    let v = page
        .verify(cfg)
        .expect("encoder-sealed page verifies")
        .view();
    assert_eq!(v.sp_vid(0), vid);
    assert_eq!(v.sp_adj(0, 0), RecordId::new((1 << 32) - 1, u32::MAX));
}
