//! GPU-side topology page caches (paper Sec. 3.3, Fig. 11).
//!
//! When device memory is left over after the four streaming buffers, GTS
//! caches topology pages on the GPU so repeat visits (common for BFS-like
//! level-by-level traversal) skip the PCI-E transfer. The paper "basically
//! adopts the LRU algorithm … but other algorithms can be used as well" —
//! so the policy is a trait here, with LRU, FIFO and seeded-random
//! implementations, and the cache ablation bench compares them. The LRU
//! is indexed by page ID, as Alg. 1's per-page `cachedPIDMap` is.
//!
//! The host's main-memory buffer (MMBuf, Alg. 1's `bufferPIDMap`, lines
//! 18–26) is the same mechanism: a [`FifoCache`] sized as a fraction of
//! the store by [`FifoCache::with_fraction`].

use std::collections::{HashMap, HashSet, VecDeque};

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
    /// Make the cache as if freshly built — nothing resident, replacement
    /// state (recency, FIFO order, the random policy's RNG) back to where
    /// the constructor left it — but keep the hit/miss/eviction counters,
    /// which count over the whole run. A checkpoint boundary does this:
    /// a resumed run starts with a new cache, so the checkpointing run
    /// must go cold the same way.
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
}

/// Boxed policy, the form engines hold (`cachedPIDMap` per GPU).
pub type PageCache = Box<dyn CachePolicy>;

/// Least-recently-used replacement (the paper's default).
///
/// An intrusive recency list indexed by page ID: `links[pid]` holds the
/// page's neighbours (head = LRU, tail = MRU) and whether it is resident,
/// so every operation is a few array writes. The table grows to the
/// largest page ID touched, not to `capacity`.
#[derive(Debug, Clone, Default)]
pub struct LruCache {
    capacity: usize,
    links: Vec<Link>,
    head: Option<usize>,
    tail: Option<usize>,
    len: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// One page's entry in [`LruCache`]'s recency list.
#[derive(Debug, Clone, Copy, Default)]
struct Link {
    prev: Option<usize>,
    next: Option<usize>,
    resident: bool,
}

impl LruCache {
    /// An LRU cache for `capacity` pages.
    pub fn new(capacity: usize) -> Self {
        LruCache {
            capacity,
            ..LruCache::default()
        }
    }

    /// Take resident page `i` out of the list; it is no longer resident.
    fn unlink(&mut self, i: usize) {
        let Link { prev, next, .. } = std::mem::take(&mut self.links[i]);
        match prev {
            Some(p) => self.links[p].next = next,
            None => self.head = next,
        }
        match next {
            Some(n) => self.links[n].prev = prev,
            None => self.tail = prev,
        }
    }

    /// Make page `i` the most recently used.
    fn push_mru(&mut self, i: usize) {
        if i >= self.links.len() {
            self.links.resize(i + 1, Link::default());
        }
        self.links[i] = Link {
            prev: self.tail,
            next: None,
            resident: true,
        };
        match self.tail.replace(i) {
            Some(t) => self.links[t].next = Some(i),
            None => self.head = Some(i),
        }
    }
}

impl CachePolicy for LruCache {
    fn access(&mut self, pid: u64) -> bool {
        let resident = self.contains(pid);
        if resident {
            self.unlink(pid as usize);
            self.hits += 1;
        } else {
            self.misses += 1;
            if self.capacity == 0 {
                return false;
            }
            if let Some(victim) = self.head.filter(|_| self.len >= self.capacity) {
                self.unlink(victim);
                self.evictions += 1;
            } else {
                self.len += 1;
            }
        }
        self.push_mru(pid as usize);
        resident
    }

    fn invalidate(&mut self, pid: u64) -> bool {
        let resident = self.contains(pid);
        if resident {
            self.unlink(pid as usize);
            self.len -= 1;
        }
        resident
    }

    fn contains(&self, pid: u64) -> bool {
        self.links.get(pid as usize).is_some_and(|l| l.resident)
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn len(&self) -> usize {
        self.len
    }

    fn clear(&mut self) {
        self.links.clear();
        self.head = None;
        self.tail = None;
        self.len = 0;
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
}

/// First-in-first-out replacement; also the MMBuf's policy.
#[derive(Debug, Clone, Default)]
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
            ..FifoCache::default()
        }
    }

    /// Size a cache as `percent`% of `total_pages` (the paper's MMBuf
    /// "buffer size of 20% of a graph size").
    ///
    /// The multiply is widened to 128 bits so huge page counts cannot
    /// overflow, and any non-zero fraction of a non-empty store gets at
    /// least one page — naive truncating division would silently disable
    /// the buffer for small graphs (e.g. 4 pages at 20% → 0).
    pub fn with_fraction(total_pages: u64, percent: u32) -> Self {
        let pages = (total_pages as u128 * percent as u128) / 100;
        let pages = usize::try_from(pages).unwrap_or(usize::MAX);
        let min = usize::from(percent > 0 && total_pages > 0);
        Self::new(pages.max(min))
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
}

/// Random replacement with a deterministic xorshift victim sequence.
#[derive(Debug, Clone, Default)]
pub struct RandomCache {
    capacity: usize,
    entries: Vec<u64>,
    index: HashMap<u64, usize>,
    seed: u64,
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
            seed,
            state: seed | 1,
            ..RandomCache::default()
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
        self.state = self.seed | 1;
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
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
        // A cleared cache is cold but keeps counting over the whole run.
        c.clear();
        assert!(c.is_empty());
        assert!(!c.contains(1));
        assert_eq!((c.hits(), c.misses()), (1, 1));
        assert!(!c.access(1), "a cleared cache must miss");
        assert_eq!((c.hits(), c.misses()), (1, 2));
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
        assert_eq!(c.evictions(), 0);
        c.access(3); // evicts 1
        assert!(!c.contains(1));
        assert!(c.contains(2));
        assert!(c.contains(3));
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn fraction_sizing() {
        let b = FifoCache::with_fraction(1000, 20);
        assert_eq!(b.capacity(), 200);
    }

    #[test]
    fn fraction_sizing_never_rounds_a_nonzero_fraction_to_zero() {
        // 4 pages at 20% used to truncate to capacity 0, silently turning
        // the main-memory buffer off for small graphs.
        assert_eq!(FifoCache::with_fraction(4, 20).capacity(), 1);
        assert_eq!(FifoCache::with_fraction(1, 1).capacity(), 1);
        // A zero fraction (or an empty store) still means "no buffer".
        assert_eq!(FifoCache::with_fraction(4, 0).capacity(), 0);
        assert_eq!(FifoCache::with_fraction(0, 20).capacity(), 0);
    }

    #[test]
    fn fraction_sizing_does_not_overflow_huge_page_counts() {
        // u64::MAX pages at 100% would overflow a usize multiply; the
        // widened math saturates instead of wrapping to a tiny capacity,
        // and nothing is allocated up front.
        let b = FifoCache::with_fraction(u64::MAX, 100);
        assert_eq!(b.capacity(), usize::MAX);
        let b = FifoCache::with_fraction(u64::MAX / 2, 50);
        assert!(b.capacity() >= (u64::MAX / 8) as usize);
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
        for (p, c) in caches.iter_mut().enumerate() {
            for i in 0..100 {
                c.access(i);
                assert!(c.len() <= 3, "policy {p} overflowed");
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
    /// semantics, kept deliberately free of the incremental index/list
    /// bookkeeping the real caches use. Replaying the same op stream
    /// through both and demanding identical hit sequences, counters and
    /// residency pins `invalidate` to "consistent with a rebuild from
    /// scratch" across all three policies.
    #[derive(Default)]
    struct LruModel {
        cap: usize,
        order: Vec<u64>, // LRU .. MRU
        hits: u64,
        misses: u64,
        evictions: u64,
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
                self.evictions += 1;
            }
            self.order.push(pid);
            false
        }

        fn invalidate(&mut self, pid: u64) {
            self.order.retain(|&p| p != pid);
        }

        fn clear(&mut self) {
            self.order.clear();
        }
    }

    #[derive(Default)]
    struct FifoModel {
        cap: usize,
        order: Vec<u64>, // admission order
        hits: u64,
        misses: u64,
        evictions: u64,
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
                self.evictions += 1;
            }
            self.order.push(pid);
            false
        }

        fn invalidate(&mut self, pid: u64) {
            self.order.retain(|&p| p != pid);
        }

        fn clear(&mut self) {
            self.order.clear();
        }
    }

    #[derive(Default)]
    struct RandomModel {
        cap: usize,
        slots: Vec<u64>,
        seed: u64,
        state: u64, // mirrors RandomCache's xorshift64*
        hits: u64,
        misses: u64,
        evictions: u64,
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
                self.evictions += 1;
            }
            self.slots.push(pid);
            false
        }

        fn invalidate(&mut self, pid: u64) {
            // Order-preserving, RNG untouched — the contract the real
            // cache's invalidate documents.
            self.slots.retain(|&p| p != pid);
        }

        fn clear(&mut self) {
            // Residency goes and the RNG rewinds to its seed, as in a
            // new cache; the counters stay.
            self.slots.clear();
            self.state = self.seed | 1;
        }
    }

    /// Deterministic op stream over `pids`: ~1 in 4 ops invalidates a
    /// page, the rest access.
    fn op_stream(seed: u64, len: usize, pids: &[u64]) -> Vec<Op> {
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
                let pid = pids[(next() % pids.len() as u64) as usize];
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
        const SEED: u64 = 0x6715;
        // (capacity, distinct pids, their spacing): a dense universe just
        // past the capacity, and a sparse one reaching up to 1 << 16.
        for (cap, universe, spread) in [(4, 17, 1), (64, 96, 683)] {
            let pids: Vec<u64> = (0..universe).map(|p| p * spread).collect();
            assert!(pids.iter().all(|&p| p < 1 << 16));
            for stream_seed in 0..24u64 {
                let ops = op_stream(stream_seed, 400, &pids);
                let mut caches: Vec<PageCache> = vec![
                    Box::new(LruCache::new(cap)),
                    Box::new(FifoCache::new(cap)),
                    Box::new(RandomCache::new(cap, SEED)),
                ];
                let mut lru = LruModel {
                    cap,
                    ..LruModel::default()
                };
                let mut fifo = FifoModel {
                    cap,
                    ..FifoModel::default()
                };
                let mut random = RandomModel {
                    cap,
                    seed: SEED,
                    state: SEED | 1,
                    ..RandomModel::default()
                };
                for (i, &op) in ops.iter().enumerate() {
                    if i == ops.len() / 2 {
                        // A cleared cache is reused as if it were new,
                        // its counters carried on.
                        lru.clear();
                        fifo.clear();
                        random.clear();
                        caches.iter_mut().for_each(|c| c.clear());
                    }
                    match op {
                        Op::Access(pid) => {
                            let want = [lru.access(pid), fifo.access(pid), random.access(pid)];
                            for (p, (c, w)) in caches.iter_mut().zip(want).enumerate() {
                                assert_eq!(
                                    c.access(pid),
                                    w,
                                    "policy {p} diverged from model at op {i} of stream {stream_seed}"
                                );
                            }
                        }
                        Op::Invalidate(pid) => {
                            lru.invalidate(pid);
                            fifo.invalidate(pid);
                            random.invalidate(pid);
                            for (p, c) in caches.iter_mut().enumerate() {
                                c.invalidate(pid);
                                assert!(!c.contains(pid), "policy {p} kept an invalidated page");
                            }
                        }
                    }
                }
                let residency = |m: &[u64]| pids.iter().map(|p| m.contains(p)).collect::<Vec<_>>();
                let want = [
                    (residency(&lru.order), lru.hits, lru.misses, lru.evictions),
                    (
                        residency(&fifo.order),
                        fifo.hits,
                        fifo.misses,
                        fifo.evictions,
                    ),
                    (
                        residency(&random.slots),
                        random.hits,
                        random.misses,
                        random.evictions,
                    ),
                ];
                for (p, (c, (res, hits, misses, evictions))) in caches.iter().zip(want).enumerate()
                {
                    let got: Vec<bool> = pids.iter().map(|&pid| c.contains(pid)).collect();
                    assert_eq!(
                        got, res,
                        "policy {p} residency, cap {cap}, stream {stream_seed}"
                    );
                    assert_eq!(c.hits(), hits, "policy {p} hits");
                    assert_eq!(c.misses(), misses, "policy {p} misses");
                    assert_eq!(c.evictions(), evictions, "policy {p} evictions");
                    assert_eq!(
                        c.len(),
                        res.iter().filter(|&&r| r).count(),
                        "policy {p} len"
                    );
                }
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
        for (p, c) in caches.iter_mut().enumerate() {
            c.access(1);
            c.access(2);
            let (h, m) = (c.hits(), c.misses());
            assert!(c.invalidate(1), "policy {p}");
            assert!(!c.invalidate(1), "policy {p} double-invalidate");
            assert!(!c.invalidate(99), "policy {p} never-resident");
            assert_eq!((c.hits(), c.misses()), (h, m), "policy {p} counters");
            assert!(!c.contains(1));
            assert!(c.contains(2));
            assert_eq!(c.len(), 1);
        }
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let caches: [PageCache; 3] = [
            Box::new(LruCache::new(0)),
            Box::new(FifoCache::new(0)),
            Box::new(RandomCache::new(0, 7)),
        ];
        for (p, mut c) in caches.into_iter().enumerate() {
            assert!(!c.access(1), "policy {p}");
            assert!(!c.access(1), "policy {p}");
            assert_eq!((c.len(), c.hits(), c.misses()), (0, 0, 2), "policy {p}");
        }
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
