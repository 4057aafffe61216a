//! Property tests for the cache/buffer contracts shared by every
//! `CachePolicy` implementation (LRU, FIFO, random) and `MmBuf`:
//!
//! - residency never exceeds capacity;
//! - every access is counted exactly once (`hits + misses == accesses`);
//! - `contains` is a pure observation — probing never changes recency,
//!   residency, or counters.

use gts_storage::{CachePolicy, FifoCache, LruCache, MmBuf, RandomCache};
use proptest::prelude::*;

const PID_UNIVERSE: u64 = 24;

/// A capacity plus an access trace drawn from a small pid universe (small on
/// purpose: collisions and evictions must actually happen).
fn arb_trace() -> impl Strategy<Value = (usize, Vec<u64>)> {
    (
        0usize..12,
        proptest::collection::vec(0u64..PID_UNIVERSE, 0..300),
    )
}

fn policies(capacity: usize) -> Vec<Box<dyn CachePolicy>> {
    vec![
        Box::new(LruCache::new(capacity)),
        Box::new(FifoCache::new(capacity)),
        Box::new(RandomCache::new(capacity, 0x6715)),
    ]
}

fn residency(c: &dyn CachePolicy) -> Vec<bool> {
    (0..PID_UNIVERSE).map(|p| c.contains(p)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cache_len_is_bounded_and_accesses_are_conserved(input in arb_trace()) {
        let (capacity, trace) = input;
        for mut c in policies(capacity) {
            for (step, &pid) in trace.iter().enumerate() {
                c.access(pid);
                prop_assert!(
                    c.len() <= c.capacity(),
                    "{}: len {} > capacity {} after step {}",
                    c.name(), c.len(), c.capacity(), step
                );
                prop_assert_eq!(c.hits() + c.misses(), step as u64 + 1, "{}", c.name());
            }
            // is_empty is defined as len == 0 — the comparison IS the contract.
            #[allow(clippy::len_zero)]
            {
                prop_assert_eq!(c.is_empty(), c.len() == 0, "{}", c.name());
            }
        }
    }

    #[test]
    fn cache_contains_never_mutates(input in arb_trace()) {
        let (capacity, trace) = input;
        // Twin instances see the same access trace, but one is probed with
        // `contains` between every access. If probing influenced recency
        // (or the random policy's RNG), eviction decisions — and therefore
        // residency or hit counts — would eventually diverge.
        for (mut probed, mut control) in policies(capacity).into_iter().zip(policies(capacity)) {
            for &pid in &trace {
                probed.access(pid);
                control.access(pid);
                for p in 0..PID_UNIVERSE {
                    let r = probed.contains(p);
                    prop_assert_eq!(r, probed.contains(p), "contains not idempotent");
                }
                prop_assert_eq!(residency(&*probed), residency(&*control), "{}", probed.name());
                prop_assert_eq!(probed.hits(), control.hits(), "{}", probed.name());
                prop_assert_eq!(probed.misses(), control.misses(), "{}", probed.name());
            }
        }
    }

    #[test]
    fn mmbuf_meets_the_same_contract(input in arb_trace()) {
        let (capacity, trace) = input;
        let mut probed = MmBuf::new(capacity);
        let mut control = MmBuf::new(capacity);
        for (step, &pid) in trace.iter().enumerate() {
            let hit = probed.access(pid);
            prop_assert_eq!(hit, control.access(pid));
            prop_assert!(probed.len() <= probed.capacity());
            prop_assert_eq!(probed.hits() + probed.misses(), step as u64 + 1);
            // Probing residency must not disturb FIFO order or counters.
            let r: Vec<bool> = (0..PID_UNIVERSE).map(|p| probed.contains(p)).collect();
            let rc: Vec<bool> = (0..PID_UNIVERSE).map(|p| control.contains(p)).collect();
            prop_assert_eq!(r, rc);
            prop_assert_eq!(probed.hits(), control.hits());
            prop_assert_eq!(probed.evictions(), control.evictions());
        }
    }
}
