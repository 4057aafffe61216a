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
    for (pid, (pa, pb)) in a.pages().iter().zip(b.pages().iter()).enumerate() {
        prop_assert_eq!(&pa.data, &pb.data, "page {} bytes", pid);
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
