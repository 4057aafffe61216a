//! Property tests of the mutation WAL: for any random sequence of valid
//! insert/delete batches, logging then replaying onto a fresh seed store
//! must reproduce the directly mutated store exactly — page bytes, RVT,
//! delta tables, and epoch — and a torn tail must truncate to the longest
//! valid prefix without losing any sealed record.

use gts_ckpt::{CkptError, KillSwitch};
use gts_graph::EdgeList;
use gts_storage::{
    build_graph_store, GraphStore, MutationBatch, PageFormatConfig, PhysicalIdConfig, Wal,
    WalError, WAL_FILE,
};
use proptest::prelude::*;
use proptest::TestCaseError;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn tmp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("gts-prop-wal-{}-{tag}-{n}", std::process::id()))
}

fn cfg() -> PageFormatConfig {
    PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 256)
}

/// One generated run: the vertex-count bound, the seed edge list, and
/// per-batch op seeds.
type RunSeed = (u32, Vec<(u32, u32)>, Vec<Vec<(u64, u64, u64)>>);

/// A seed graph plus op seeds that the test turns into *valid* batches
/// (deletes always name a live edge, so every batch applies cleanly).
fn arb_run() -> impl Strategy<Value = RunSeed> {
    (4u32..40).prop_flat_map(|n| {
        (
            Just(n),
            proptest::collection::vec((0..n, 0..n), 1..80),
            proptest::collection::vec(
                proptest::collection::vec((0u64..3, 0u64..1000, 0u64..1000), 1..12),
                1..8,
            ),
        )
    })
}

/// Turn op seeds into a batch that is valid against `edges`, mutating
/// `edges` to track the store's resulting state.
fn realize_batch(n: u64, edges: &mut Vec<(u64, u64)>, seeds: &[(u64, u64, u64)]) -> MutationBatch {
    let mut b = MutationBatch::new();
    for &(kind, a, c) in seeds {
        // kind 0..=1: insert (weighted 2:1 over delete so stores grow).
        if kind < 2 || edges.is_empty() {
            let (src, dst) = (a % n, c % n);
            b.insert(src, dst);
            edges.push((src, dst));
        } else {
            let idx = (a as usize) % edges.len();
            let (src, dst) = edges.swap_remove(idx);
            b.delete(src, dst);
        }
    }
    b
}

fn assert_stores_identical(a: &GraphStore, b: &GraphStore) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.epoch(), b.epoch(), "epoch");
    prop_assert_eq!(a.num_pages(), b.num_pages(), "page count");
    prop_assert_eq!(a.num_edges(), b.num_edges(), "edge count");
    prop_assert_eq!(a.rvt(), b.rvt(), "RVT");
    prop_assert_eq!(a.small_pids(), b.small_pids(), "small pids");
    prop_assert_eq!(a.large_pids(), b.large_pids(), "large pids");
    for (pid, (pa, pb)) in a.pages().iter().zip(b.pages().iter()).enumerate() {
        prop_assert_eq!(&pa.data, &pb.data, "page {} bytes", pid);
        let pid = pid as u64;
        prop_assert_eq!(
            a.edges_in_page(pid),
            b.edges_in_page(pid),
            "edges in page {}",
            pid
        );
        prop_assert!(
            pa.checksum_ok() && pb.checksum_ok(),
            "page {} checksum",
            pid
        );
    }
    for v in 0..a.num_vertices() {
        prop_assert_eq!(
            a.delta_pids_of(v),
            b.delta_pids_of(v),
            "delta table of {}",
            v
        );
        prop_assert_eq!(a.rid_of_vertex(v), b.rid_of_vertex(v), "rid of {}", v);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Log-then-apply, then replay the whole WAL onto a fresh seed store:
    /// the replayed store must equal the directly mutated one exactly.
    #[test]
    fn wal_replay_equals_direct_apply(run in arb_run()) {
        let (n, seed_edges, batch_seeds) = run;
        let dir = tmp_dir("replay");
        let graph = EdgeList::new(n, seed_edges.clone());
        let mut direct = build_graph_store(&graph, cfg()).unwrap();
        let mut edges: Vec<(u64, u64)> = direct.decode_edges();
        let mut wal = Wal::open(&dir, &direct).unwrap();
        for seeds in &batch_seeds {
            let b = realize_batch(n as u64, &mut edges, seeds);
            direct.apply_mutations_logged(&b, &mut wal).unwrap();
        }

        let mut replayed = build_graph_store(&graph, cfg()).unwrap();
        let loaded = Wal::load(&dir).unwrap();
        prop_assert_eq!(loaded.records().len(), batch_seeds.len());
        prop_assert_eq!(loaded.truncated_tail(), 0);
        loaded.replay_onto(&mut replayed).unwrap();
        assert_stores_identical(&direct, &replayed)?;
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Replay from a mid-sequence "snapshot" (a store that already holds
    /// a prefix of the batches): only the suffix applies, same end state.
    #[test]
    fn wal_suffix_replay_from_any_prefix(run in arb_run()) {
        let (n, seed_edges, batch_seeds) = run;
        let dir = tmp_dir("suffix");
        let graph = EdgeList::new(n, seed_edges.clone());
        let mut direct = build_graph_store(&graph, cfg()).unwrap();
        let mut edges: Vec<(u64, u64)> = direct.decode_edges();
        let mut wal = Wal::open(&dir, &direct).unwrap();
        let mut batches = Vec::new();
        for seeds in &batch_seeds {
            let b = realize_batch(n as u64, &mut edges, seeds);
            direct.apply_mutations_logged(&b, &mut wal).unwrap();
            batches.push(b);
        }

        let cut = batches.len() / 2;
        let mut resumed = build_graph_store(&graph, cfg()).unwrap();
        for b in &batches[..cut] {
            resumed.apply_mutations(b).unwrap();
        }
        let applied = Wal::load(&dir).unwrap().replay_onto(&mut resumed).unwrap();
        prop_assert_eq!(applied as usize, batches.len() - cut);
        assert_stores_identical(&direct, &resumed)?;
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A torn final append must truncate to the longest valid prefix: the
    /// sealed records all survive, the torn bytes vanish, and replay
    /// reproduces the pre-torn store.
    #[test]
    fn torn_tail_recovers_longest_valid_prefix(run in arb_run()) {
        let (n, seed_edges, batch_seeds) = run;
        let dir = tmp_dir("torn");
        let graph = EdgeList::new(n, seed_edges.clone());
        let mut direct = build_graph_store(&graph, cfg()).unwrap();
        let mut edges: Vec<(u64, u64)> = direct.decode_edges();
        let mut wal = Wal::open(&dir, &direct).unwrap();
        for seeds in &batch_seeds {
            let b = realize_batch(n as u64, &mut edges, seeds);
            direct.apply_mutations_logged(&b, &mut wal).unwrap();
        }
        // Crash mid-append of one more batch: only a prefix of the frame
        // reaches the file. (Reopening an intact log takes no durable
        // step, so step 0 is the append's write.)
        drop(wal);
        let mut wal = Wal::open_with(&dir, &direct, KillSwitch::at(0)).unwrap();
        let torn_batch = realize_batch(n as u64, &mut edges, &[(0, 1, 2)]);
        let pre = direct.epoch();
        let killed = wal.log_batch(&torn_batch, pre, pre + 1);
        let torn = matches!(killed, Err(WalError::Log(CkptError::InjectedCrash { step: 0 })));
        prop_assert!(torn, "{:?}", killed);

        let loaded = Wal::load(&dir).unwrap();
        prop_assert_eq!(loaded.records().len(), batch_seeds.len());
        prop_assert!(loaded.truncated_tail() > 0);

        // Re-open repairs the file; replay lands on the pre-torn store.
        let seed_store = build_graph_store(&graph, cfg()).unwrap();
        let reopened = Wal::open(&dir, &seed_store).unwrap();
        prop_assert_eq!(reopened.records().len(), batch_seeds.len());
        let mut replayed = seed_store;
        reopened.replay_onto(&mut replayed).unwrap();
        assert_stores_identical(&direct, &replayed)?;

        // And the repaired file is whole: a fresh load sees no tail.
        prop_assert_eq!(Wal::load(&dir).unwrap().truncated_tail(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Truncating the log file at *any* byte position never panics and
    /// never yields a record that was not sealed in the original.
    #[test]
    fn arbitrary_truncation_is_safe(run in arb_run(), cut_frac in 0.0f64..1.0) {
        let (n, seed_edges, batch_seeds) = run;
        let dir = tmp_dir("cut");
        let graph = EdgeList::new(n, seed_edges.clone());
        let mut store = build_graph_store(&graph, cfg()).unwrap();
        let mut edges: Vec<(u64, u64)> = store.decode_edges();
        let mut wal = Wal::open(&dir, &store).unwrap();
        for seeds in &batch_seeds {
            let b = realize_batch(n as u64, &mut edges, seeds);
            store.apply_mutations_logged(&b, &mut wal).unwrap();
        }
        let path = dir.join(WAL_FILE);
        let bytes = std::fs::read(&path).unwrap();
        let cut = ((bytes.len() - 1) as f64 * cut_frac) as usize;
        std::fs::write(&path, &bytes[..cut]).unwrap();
        match Wal::load(&dir) {
            Ok(loaded) => {
                // Every surviving record must be a prefix of the originals.
                prop_assert!(loaded.records().len() <= batch_seeds.len());
                for (a, b) in loaded.records().iter().zip(wal.records()) {
                    prop_assert_eq!(a.batch.ops(), b.batch.ops());
                    prop_assert_eq!(a.pre_epoch, b.pre_epoch);
                }
            }
            Err(_) => {
                // A cut inside the header is a typed error, not a panic.
                prop_assert!(cut < bytes.len());
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// One generated long run: the vertex count, the seed edges (vertex 0 a
/// hub near one 256 B chunk's 58 entries, vertex 1 a likely spill
/// victim), and per batch a hub mode with its count plus op seeds.
type LongRunSeed = (u32, Vec<(u32, u32)>, Vec<(u8, usize, Vec<(u64, u64, u64)>)>);

fn arb_long_run() -> impl Strategy<Value = LongRunSeed> {
    (8u32..40).prop_flat_map(|n| {
        (
            Just(n),
            (
                50u32..70,
                8u32..20,
                proptest::collection::vec((2..n, 0..n), 0..60),
            )
                .prop_map(move |(hub, second, rest)| {
                    let mut edges: Vec<(u32, u32)> = (0..hub).map(|i| (0, i % n)).collect();
                    edges.extend((0..second).map(|i| (1, (i * 7) % n)));
                    edges.extend(rest);
                    edges
                }),
            proptest::collection::vec(
                (
                    0u8..3,
                    0usize..80,
                    proptest::collection::vec((0u64..3, 0u64..1000, 0u64..1000), 0..10),
                ),
                1..41,
            ),
        )
    })
}

/// The batches of a long run, valid in order against the seed's edges:
/// mode 1 grows the hub by `count` edges past its chunks, mode 2 deletes
/// up to `count` of its edges (down to empty chunks), then the op seeds.
fn realize_long_run(store: &GraphStore, run: &LongRunSeed) -> Vec<MutationBatch> {
    let n = u64::from(run.0);
    let mut edges = store.decode_edges();
    let mut batches = Vec::new();
    for (mode, count, seeds) in &run.2 {
        let mut b = realize_batch(n, &mut edges, seeds);
        for i in 0..*count as u64 {
            match mode {
                1 => {
                    b.insert(0, i % n);
                    edges.push((0, i % n));
                }
                2 => match edges.iter().position(|&(s, _)| s == 0) {
                    Some(at) => {
                        b.delete(0, edges.swap_remove(at).1);
                    }
                    None => break,
                },
                _ => break,
            }
        }
        if !b.is_empty() {
            batches.push(b);
        }
    }
    batches
}

/// The store after each prefix of `batches`, applied one call each.
fn prefix_states(seed: &GraphStore, batches: &[MutationBatch]) -> Vec<GraphStore> {
    let mut states = vec![seed.clone()];
    for b in batches {
        let mut next = states[states.len() - 1].clone();
        next.apply_mutations(b).unwrap();
        states.push(next);
    }
    states
}

/// A copy of the log in `from` whose record `at` has had its body
/// edited by `flip`, every frame sealed by the log's own append.
fn flipped_copy(from: &std::path::Path, to: &std::path::Path, at: usize, flip: impl Fn(&mut [u8])) {
    use gts_ckpt::{LogFormat, SealedLog};
    let image = SealedLog::load(&from.join(WAL_FILE), &LogFormat::WAL).unwrap();
    let path = to.join(WAL_FILE);
    let mut log =
        SealedLog::create(&path, &LogFormat::WAL, image.binding(), KillSwitch::never()).unwrap();
    for (i, body) in image.frames().enumerate() {
        let mut body = body.to_vec();
        if i == at {
            flip(&mut body);
        }
        log.append(&body).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Up to 40 batches at 256 B pages — a hub growing into delta pages
    /// and shrinking to empty chunks, spills of victims no batch names —
    /// replayed as one call from every cut, and stopped at a random
    /// epoch: each must equal the same batches applied one call each,
    /// byte for byte.
    #[test]
    fn long_replay_equals_one_by_one_from_every_cut(run in arb_long_run(), stop in 0usize..41) {
        let dir = tmp_dir("long");
        let seed = build_graph_store(&EdgeList::new(run.0, run.1.clone()), cfg()).unwrap();
        let batches = realize_long_run(&seed, &run);
        let states = prefix_states(&seed, &batches);
        let mut live = seed.clone();
        let mut wal = Wal::open(&dir, &live).unwrap();
        for b in &batches {
            live.apply_mutations_logged(b, &mut wal).unwrap();
        }
        let wal = Wal::load(&dir).unwrap();
        for (cut, state) in states.iter().enumerate() {
            let mut replayed = state.clone();
            let applied = wal.replay_onto(&mut replayed).unwrap();
            prop_assert_eq!(applied as usize, batches.len() - cut);
            assert_stores_identical(&replayed, &live)?;
        }
        let stop = stop.min(batches.len());
        let cut = stop / 2;
        let mut part = states[cut].clone();
        let applied = wal.replay_until(&mut part, |s| s.epoch() == stop as u64).unwrap();
        prop_assert_eq!(applied as usize, stop - cut);
        assert_stores_identical(&part, &states[stop])?;
        std::fs::remove_dir_all(&dir).ok();
    }

    /// One byte of one record's body flipped and the frame resealed, so
    /// the flip reaches the record decoder and replay: load + replay
    /// returns `Ok` or a typed error, never panics, and leaves the store
    /// at a record boundary — the loaded records before the one that
    /// failed, applied one call each. Three aims in four flip an op's
    /// tag (insert ↔ delete) or the low bits of an endpoint, which keep
    /// the record decodable and often the vertex in range.
    #[test]
    fn resealed_record_byte_flip_stops_replay_at_a_record_boundary(
        run in arb_run(),
        at in 0usize..8,
        aim in 0usize..4,
        byte in 0usize..4096,
        mask in 1u8..=255,
    ) {
        let (n, seed_edges, batch_seeds) = run;
        let (dir, flipped) = (tmp_dir("flip-src"), tmp_dir("flip"));
        let seed = build_graph_store(&EdgeList::new(n, seed_edges), cfg()).unwrap();
        let mut live = seed.clone();
        let mut edges = live.decode_edges();
        let mut wal = Wal::open(&dir, &live).unwrap();
        for seeds in &batch_seeds {
            let b = realize_batch(n as u64, &mut edges, seeds);
            live.apply_mutations_logged(&b, &mut wal).unwrap();
        }
        // A record body: epochs (16 bytes), op count (4), then 17 bytes
        // per op — tag, src, dst.
        flipped_copy(&dir, &flipped, at % batch_seeds.len(), |body| {
            let op = 20 + 17 * (byte % ((body.len() - 20) / 17));
            match aim {
                0 => body[byte % body.len()] ^= mask,
                1 => body[op] ^= 1,
                _ => body[op + 1 + 8 * (aim - 2)] ^= 1 + mask % 15,
            }
        });
        let mut replayed = seed.clone();
        let (loaded, result) = match Wal::load(&flipped) {
            Ok(w) => {
                let result = w.replay_onto(&mut replayed);
                (w.records().to_vec(), result)
            }
            Err(e) => (Vec::new(), Err(e)),
        };
        // The boundary: the loaded records that apply, one call each. A
        // log that does not load, or does not chain, applies nothing.
        let mut want = seed;
        let mut applied = 0;
        if matches!(result, Ok(_) | Err(WalError::Rejected(_))) {
            for batch in loaded.iter().map(|rec| &rec.batch) {
                if want.apply_mutations(batch).is_err() {
                    break;
                }
                applied += 1;
            }
        }
        match result {
            Ok(n) => prop_assert_eq!((n, applied), (loaded.len() as u64, loaded.len() as u64)),
            Err(WalError::Rejected(_)) => prop_assert!(applied < loaded.len() as u64),
            Err(_) => {}
        }
        assert_stores_identical(&replayed, &want)?;
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&flipped).ok();
    }
}
