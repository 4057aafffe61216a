//! GPU-side topology page caches (paper Sec. 3.3, Fig. 11).
//!
//! When device memory is left over after the four streaming buffers, GTS
//! caches topology pages on the GPU so repeat visits (common for BFS-like
//! level-by-level traversal) skip the PCI-E transfer. The paper "basically
//! adopts the LRU algorithm … but other algorithms can be used as well" —
//! so the policy is a trait here, with LRU, FIFO and seeded-random
//! implementations, and the cache ablation bench compares them.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

/// A page-cache replacement policy over page IDs.
///
/// `access` is the only mutating entry point: it records a reference to a
/// page, returns whether it hit, and on a miss admits the page (evicting
/// per policy when full). A capacity of zero disables caching entirely.
pub trait CachePolicy: Send {
    /// Record an access; returns `true` on a cache hit.
    fn access(&mut self, pid: u64) -> bool;
    /// Drop `pid` from the cache if resident, returning whether it was.
    ///
    /// Mutation batches use this for targeted invalidation: a rewritten
    /// page's cached copy is stale and must re-stream on next access.
    /// Counters are untouched (an invalidation is neither a hit nor a
    /// miss), and the bookkeeping for the surviving residents — recency
    /// stamps, FIFO order, the random policy's slot order and RNG state —
    /// is preserved exactly, so the future behaviour matches a cache
    /// replaying the same access/invalidate stream from scratch (the
    /// cross-policy property test pins this equivalence).
    fn invalidate(&mut self, pid: u64) -> bool;
    /// Is the page currently cached (no recency update)?
    fn contains(&self, pid: u64) -> bool;
    /// Maximum number of cached pages.
    fn capacity(&self) -> usize;
    /// Number of currently cached pages.
    fn len(&self) -> usize;
    /// True when nothing is cached.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Drop all cached pages and counters.
    fn clear(&mut self);
    /// Hits recorded so far.
    fn hits(&self) -> u64;
    /// Misses recorded so far.
    fn misses(&self) -> u64;
    /// Evictions recorded so far: admissions that displaced a resident
    /// page. Invalidations are not evictions (targeted drops are neither
    /// a hit nor a miss nor a replacement decision), and a miss into a
    /// not-yet-full cache admits without evicting.
    fn evictions(&self) -> u64;
    /// Hit rate in [0, 1] (Fig. 11b's y-axis).
    fn hit_rate(&self) -> f64 {
        let t = self.hits() + self.misses();
        if t == 0 {
            0.0
        } else {
            self.hits() as f64 / t as f64
        }
    }
    /// Policy name for experiment tables.
    fn name(&self) -> &'static str;
}

/// Boxed policy, the form engines hold (`cachedPIDMap` per GPU).
pub type PageCache = Box<dyn CachePolicy>;

/// Least-recently-used replacement (the paper's default).
///
/// Recency is a monotone stamp; a `BTreeMap<stamp, pid>` mirrors the
/// `pid → stamp` map so both the hit path and the eviction are
/// O(log capacity) — default configurations cache hundreds of thousands
/// of pages (12 GiB of device memory at 64 KiB pages), where a linear
/// victim scan per miss would dominate out-of-core runs.
#[derive(Debug, Clone)]
pub struct LruCache {
    capacity: usize,
    stamp: u64,
    entries: HashMap<u64, u64>,
    by_stamp: BTreeMap<u64, u64>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl LruCache {
    /// An LRU cache for `capacity` pages.
    pub fn new(capacity: usize) -> Self {
        LruCache {
            capacity,
            stamp: 0,
            entries: HashMap::with_capacity(capacity),
            by_stamp: BTreeMap::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }
}

impl CachePolicy for LruCache {
    fn access(&mut self, pid: u64) -> bool {
        self.stamp += 1;
        if let Some(s) = self.entries.get_mut(&pid) {
            self.by_stamp.remove(s);
            *s = self.stamp;
            self.by_stamp.insert(self.stamp, pid);
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        if self.capacity == 0 {
            return false;
        }
        if self.entries.len() >= self.capacity {
            // len >= capacity > 0, and by_stamp mirrors entries 1:1.
            #[allow(clippy::expect_used)]
            let (&oldest, &victim) = self.by_stamp.first_key_value().expect("cache non-empty");
            self.by_stamp.remove(&oldest);
            self.entries.remove(&victim);
            self.evictions += 1;
        }
        self.entries.insert(pid, self.stamp);
        self.by_stamp.insert(self.stamp, pid);
        false
    }

    fn invalidate(&mut self, pid: u64) -> bool {
        if let Some(s) = self.entries.remove(&pid) {
            self.by_stamp.remove(&s);
            true
        } else {
            false
        }
    }

    fn contains(&self, pid: u64) -> bool {
        self.entries.contains_key(&pid)
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.by_stamp.clear();
        self.hits = 0;
        self.misses = 0;
        self.evictions = 0;
        self.stamp = 0;
    }

    fn hits(&self) -> u64 {
        self.hits
    }

    fn misses(&self) -> u64 {
        self.misses
    }

    fn evictions(&self) -> u64 {
        self.evictions
    }

    fn name(&self) -> &'static str {
        "lru"
    }
}

/// First-in-first-out replacement.
#[derive(Debug, Clone)]
pub struct FifoCache {
    capacity: usize,
    resident: HashSet<u64>,
    order: VecDeque<u64>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl FifoCache {
    /// A FIFO cache for `capacity` pages.
    pub fn new(capacity: usize) -> Self {
        FifoCache {
            capacity,
            resident: HashSet::with_capacity(capacity),
            order: VecDeque::with_capacity(capacity),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }
}

impl CachePolicy for FifoCache {
    fn access(&mut self, pid: u64) -> bool {
        if self.resident.contains(&pid) {
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        if self.capacity == 0 {
            return false;
        }
        if self.resident.len() >= self.capacity {
            if let Some(old) = self.order.pop_front() {
                self.resident.remove(&old);
                self.evictions += 1;
            }
        }
        self.resident.insert(pid);
        self.order.push_back(pid);
        false
    }

    fn invalidate(&mut self, pid: u64) -> bool {
        if self.resident.remove(&pid) {
            self.order.retain(|&p| p != pid);
            true
        } else {
            false
        }
    }

    fn contains(&self, pid: u64) -> bool {
        self.resident.contains(&pid)
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn len(&self) -> usize {
        self.resident.len()
    }

    fn clear(&mut self) {
        self.resident.clear();
        self.order.clear();
        self.hits = 0;
        self.misses = 0;
        self.evictions = 0;
    }

    fn hits(&self) -> u64 {
        self.hits
    }

    fn misses(&self) -> u64 {
        self.misses
    }

    fn evictions(&self) -> u64 {
        self.evictions
    }

    fn name(&self) -> &'static str {
        "fifo"
    }
}

/// Random replacement with a deterministic xorshift victim sequence.
#[derive(Debug, Clone)]
pub struct RandomCache {
    capacity: usize,
    entries: Vec<u64>,
    index: HashMap<u64, usize>,
    state: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl RandomCache {
    /// A random-replacement cache for `capacity` pages, seeded for
    /// reproducibility.
    pub fn new(capacity: usize, seed: u64) -> Self {
        RandomCache {
            capacity,
            entries: Vec::with_capacity(capacity),
            index: HashMap::with_capacity(capacity),
            state: seed | 1,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn next_rand(&mut self) -> u64 {
        // xorshift64*.
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }
}

impl CachePolicy for RandomCache {
    fn access(&mut self, pid: u64) -> bool {
        if self.index.contains_key(&pid) {
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        if self.capacity == 0 {
            return false;
        }
        if self.entries.len() >= self.capacity {
            let victim_at = (self.next_rand() % self.entries.len() as u64) as usize;
            let victim = self.entries[victim_at];
            self.index.remove(&victim);
            // Swap-remove keeps eviction O(1); len >= capacity > 0 here.
            #[allow(clippy::expect_used)]
            let last = *self.entries.last().expect("non-empty");
            self.entries.swap_remove(victim_at);
            if victim_at < self.entries.len() {
                self.index.insert(last, victim_at);
            }
            self.evictions += 1;
        }
        self.index.insert(pid, self.entries.len());
        self.entries.push(pid);
        false
    }

    fn invalidate(&mut self, pid: u64) -> bool {
        if let Some(at) = self.index.remove(&pid) {
            // Order-preserving removal, unlike the O(1) swap_remove on
            // eviction: the surviving residents must keep their relative
            // slot order (and the RNG must not advance) so that future
            // victim picks match a from-scratch replay of the stream.
            self.entries.remove(at);
            for (off, &p) in self.entries[at..].iter().enumerate() {
                self.index.insert(p, at + off);
            }
            true
        } else {
            false
        }
    }

    fn contains(&self, pid: u64) -> bool {
        self.index.contains_key(&pid)
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.index.clear();
        self.hits = 0;
        self.misses = 0;
        self.evictions = 0;
    }

    fn hits(&self) -> u64 {
        self.hits
    }

    fn misses(&self) -> u64 {
        self.misses
    }

    fn evictions(&self) -> u64 {
        self.evictions
    }

    fn name(&self) -> &'static str {
        "random"
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests panic on failure by design
mod tests {
    use super::*;

    fn basic_contract(mut c: impl CachePolicy) {
        assert!(!c.access(1));
        assert!(c.access(1), "immediate re-access must hit");
        assert!(c.contains(1));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.hits() + c.misses(), 0);
    }

    #[test]
    fn all_policies_meet_basic_contract() {
        basic_contract(LruCache::new(4));
        basic_contract(FifoCache::new(4));
        basic_contract(RandomCache::new(4, 9));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = LruCache::new(2);
        c.access(1);
        c.access(2);
        c.access(1); // 2 is now LRU
        c.access(3); // evicts 2
        assert!(c.contains(1));
        assert!(!c.contains(2));
        assert!(c.contains(3));
    }

    #[test]
    fn fifo_evicts_first_in_even_if_hot() {
        let mut c = FifoCache::new(2);
        c.access(1);
        c.access(2);
        c.access(1); // hit, but FIFO position unchanged
        c.access(3); // evicts 1
        assert!(!c.contains(1));
        assert!(c.contains(2));
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let run = |seed| {
            let mut c = RandomCache::new(3, seed);
            let mut hits = 0;
            for i in 0..1000u64 {
                if c.access(i % 7) {
                    hits += 1;
                }
            }
            hits
        };
        assert_eq!(run(1), run(1));
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut caches: Vec<PageCache> = vec![
            Box::new(LruCache::new(3)),
            Box::new(FifoCache::new(3)),
            Box::new(RandomCache::new(3, 5)),
        ];
        for c in &mut caches {
            for i in 0..100 {
                c.access(i);
                assert!(c.len() <= 3, "{} overflowed", c.name());
            }
        }
    }

    /// One op of the randomized access/invalidate streams below.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Access(u64),
        Invalidate(u64),
    }

    /// Straight-line single-`Vec` reimplementations of each policy's
    /// semantics, kept deliberately free of the incremental index/mirror
    /// bookkeeping the real caches use. Replaying the same op stream
    /// through both and demanding identical hit sequences, counters and
    /// residency pins `invalidate` to "consistent with a rebuild from
    /// scratch" across all three policies.
    struct LruModel {
        cap: usize,
        order: Vec<u64>, // LRU .. MRU
        hits: u64,
        misses: u64,
    }

    impl LruModel {
        fn access(&mut self, pid: u64) -> bool {
            if let Some(at) = self.order.iter().position(|&p| p == pid) {
                self.order.remove(at);
                self.order.push(pid);
                self.hits += 1;
                return true;
            }
            self.misses += 1;
            if self.cap == 0 {
                return false;
            }
            if self.order.len() >= self.cap {
                self.order.remove(0);
            }
            self.order.push(pid);
            false
        }

        fn invalidate(&mut self, pid: u64) {
            self.order.retain(|&p| p != pid);
        }
    }

    struct FifoModel {
        cap: usize,
        order: Vec<u64>, // admission order
        hits: u64,
        misses: u64,
    }

    impl FifoModel {
        fn access(&mut self, pid: u64) -> bool {
            if self.order.contains(&pid) {
                self.hits += 1;
                return true;
            }
            self.misses += 1;
            if self.cap == 0 {
                return false;
            }
            if self.order.len() >= self.cap {
                self.order.remove(0);
            }
            self.order.push(pid);
            false
        }

        fn invalidate(&mut self, pid: u64) {
            self.order.retain(|&p| p != pid);
        }
    }

    struct RandomModel {
        cap: usize,
        slots: Vec<u64>,
        state: u64, // mirrors RandomCache's xorshift64*
        hits: u64,
        misses: u64,
    }

    impl RandomModel {
        fn next_rand(&mut self) -> u64 {
            let mut x = self.state;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.state = x;
            x.wrapping_mul(0x2545F4914F6CDD1D)
        }

        fn access(&mut self, pid: u64) -> bool {
            if self.slots.contains(&pid) {
                self.hits += 1;
                return true;
            }
            self.misses += 1;
            if self.cap == 0 {
                return false;
            }
            if self.slots.len() >= self.cap {
                let at = (self.next_rand() % self.slots.len() as u64) as usize;
                self.slots.swap_remove(at);
            }
            self.slots.push(pid);
            false
        }

        fn invalidate(&mut self, pid: u64) {
            // Order-preserving, RNG untouched — the contract the real
            // cache's invalidate documents.
            self.slots.retain(|&p| p != pid);
        }
    }

    /// Deterministic op stream: ~1 in 4 ops invalidates a page from a
    /// small universe, the rest access.
    fn op_stream(seed: u64, len: usize, universe: u64) -> Vec<Op> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            let mut x = state;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            state = x;
            x.wrapping_mul(0x2545F4914F6CDD1D)
        };
        (0..len)
            .map(|_| {
                let pid = next() % universe;
                if next() % 4 == 0 {
                    Op::Invalidate(pid)
                } else {
                    Op::Access(pid)
                }
            })
            .collect()
    }

    #[test]
    fn invalidate_is_consistent_with_rebuild_from_scratch_across_policies() {
        const CAP: usize = 4;
        const SEED: u64 = 0x6715;
        for stream_seed in 0..24u64 {
            let ops = op_stream(stream_seed, 400, 17);
            let mut caches: Vec<PageCache> = vec![
                Box::new(LruCache::new(CAP)),
                Box::new(FifoCache::new(CAP)),
                Box::new(RandomCache::new(CAP, SEED)),
            ];
            let mut lru = LruModel {
                cap: CAP,
                order: Vec::new(),
                hits: 0,
                misses: 0,
            };
            let mut fifo = FifoModel {
                cap: CAP,
                order: Vec::new(),
                hits: 0,
                misses: 0,
            };
            let mut random = RandomModel {
                cap: CAP,
                slots: Vec::new(),
                state: SEED | 1,
                hits: 0,
                misses: 0,
            };
            for (i, &op) in ops.iter().enumerate() {
                match op {
                    Op::Access(pid) => {
                        let want = [lru.access(pid), fifo.access(pid), random.access(pid)];
                        for (c, w) in caches.iter_mut().zip(want) {
                            assert_eq!(
                                c.access(pid),
                                w,
                                "{} diverged from model at op {i} of stream {stream_seed}",
                                c.name()
                            );
                        }
                    }
                    Op::Invalidate(pid) => {
                        lru.invalidate(pid);
                        fifo.invalidate(pid);
                        random.invalidate(pid);
                        for c in caches.iter_mut() {
                            c.invalidate(pid);
                            assert!(!c.contains(pid), "{} kept an invalidated page", c.name());
                        }
                    }
                }
            }
            let residency = |m: &[u64]| (0..17u64).map(|p| m.contains(&p)).collect::<Vec<bool>>();
            let want = [
                (residency(&lru.order), lru.hits, lru.misses),
                (residency(&fifo.order), fifo.hits, fifo.misses),
                (residency(&random.slots), random.hits, random.misses),
            ];
            for (c, (res, hits, misses)) in caches.iter().zip(want) {
                let got: Vec<bool> = (0..17u64).map(|p| c.contains(p)).collect();
                assert_eq!(got, res, "{} residency, stream {stream_seed}", c.name());
                assert_eq!(c.hits(), hits, "{} hits", c.name());
                assert_eq!(c.misses(), misses, "{} misses", c.name());
                assert!(c.len() <= CAP);
            }
        }
    }

    #[test]
    fn invalidate_reports_residency_and_leaves_counters_alone() {
        let mut caches: Vec<PageCache> = vec![
            Box::new(LruCache::new(4)),
            Box::new(FifoCache::new(4)),
            Box::new(RandomCache::new(4, 7)),
        ];
        for c in &mut caches {
            c.access(1);
            c.access(2);
            let (h, m) = (c.hits(), c.misses());
            assert!(c.invalidate(1), "{}", c.name());
            assert!(!c.invalidate(1), "{} double-invalidate", c.name());
            assert!(!c.invalidate(99), "{} never-resident", c.name());
            assert_eq!((c.hits(), c.misses()), (h, m), "{} counters", c.name());
            assert!(!c.contains(1));
            assert!(c.contains(2));
            assert_eq!(c.len(), 1);
        }
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = LruCache::new(0);
        assert!(!c.access(1));
        assert!(!c.access(1));
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn hit_rate_tracks_reuse() {
        // Cycling over a working set that fits: everything after the first
        // pass hits (Sec. 3.3's B/(S+L) approximation with B >= S+L).
        let mut c = LruCache::new(8);
        for _ in 0..10 {
            for p in 0..8u64 {
                c.access(p);
            }
        }
        assert_eq!(c.misses(), 8);
        assert_eq!(c.hits(), 72);
        assert!(c.hit_rate() > 0.89);
    }
}
