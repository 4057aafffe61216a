//! A chunked, scoped thread pool with deterministic output order.
//!
//! Chunks of the input are claimed dynamically through an atomic cursor, so
//! load balances across workers; determinism comes from *where results go*,
//! not from the schedule: per-chunk outputs are reassembled in chunk order
//! (= item order) and per-worker states are handed back in worker-index
//! order. Callers that only merge states commutatively therefore observe the
//! same bytes for every thread count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The host's available parallelism, used as the default `host_threads`.
pub fn default_host_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// How many chunks each worker should see on average; >1 so that a slow
/// chunk does not serialize the tail of the input.
const CHUNKS_PER_WORKER: usize = 4;

/// A fixed-width pool of scoped workers: the calling thread and
/// `threads - 1` threads spawned per call. `threads == 1` (or trivially
/// small inputs) takes an inline fast path on the calling thread, which is
/// by construction the exact serial order.
#[derive(Debug, Clone)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// A pool with `threads` workers; 0 is clamped to 1.
    pub fn new(threads: usize) -> Self {
        ThreadPool {
            threads: threads.max(1),
        }
    }

    /// A pool sized to [`default_host_threads`].
    pub fn with_default_threads() -> Self {
        Self::new(default_host_threads())
    }

    pub fn threads(&self) -> usize {
        self.threads
    }

    fn chunk_size(&self, len: usize, grain: usize) -> usize {
        len.div_ceil(self.threads * CHUNKS_PER_WORKER)
            .max(grain)
            .max(1)
    }

    /// Map `f` over `items`, returning results in item order.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.par_map_init(items, || (), |(), i, t| f(i, t)).0
    }

    /// Run `f` for every item; completion of the call implies completion of
    /// every item.
    pub fn par_for_each<T, F>(&self, items: &[T], f: F)
    where
        T: Sync,
        F: Fn(usize, &T) + Sync,
    {
        self.par_map(items, |i, t| f(i, t));
    }

    /// [`Self::par_map_with`] over one fresh `init()` state per worker.
    /// Returns `(results in item order, states in worker-index order)`.
    ///
    /// Which items a worker sees is schedule-dependent, so downstream merges
    /// of the states must be commutative for determinism.
    pub fn par_map_init<T, S, R, I, F>(&self, items: &[T], init: I, f: F) -> (Vec<R>, Vec<S>)
    where
        T: Sync,
        S: Send,
        R: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize, &T) -> R + Sync,
    {
        let mut states: Vec<S> = (0..self.threads.min(items.len()).max(1))
            .map(|_| init())
            .collect();
        let out = self.par_map_with(items, &mut states, f);
        (out, states)
    }

    /// Map with per-worker state the caller owns: worker `w` is lent
    /// `&mut states[w]` for the whole call, so state that is expensive to
    /// build (a scatter lane) outlives it. At most `states.len()` (≥ 1)
    /// workers run: the calling thread as worker 0, the others on threads
    /// spawned for the call; `threads == 1` or a single item runs inline
    /// on `states[0]`. Results come back in item order.
    pub fn par_map_with<T, S, R, F>(&self, items: &[T], states: &mut [S], f: F) -> Vec<R>
    where
        T: Sync,
        S: Send,
        R: Send,
        F: Fn(&mut S, usize, &T) -> R + Sync,
    {
        assert!(!states.is_empty(), "par_map_with needs at least one state");
        if self.threads == 1 || items.len() <= 1 || states.len() == 1 {
            let state = &mut states[0];
            return items
                .iter()
                .enumerate()
                .map(|(i, t)| f(state, i, t))
                .collect();
        }
        let chunk = self.chunk_size(items.len(), 1);
        let nchunks = items.len().div_ceil(chunk);
        let cursor = AtomicUsize::new(0);
        let results: Mutex<Vec<(usize, Vec<R>)>> = Mutex::new(Vec::with_capacity(nchunks));
        let work = |state: &mut S| loop {
            let ci = cursor.fetch_add(1, Ordering::Relaxed);
            if ci >= nchunks {
                break;
            }
            let lo = ci * chunk;
            let hi = (lo + chunk).min(items.len());
            let out: Vec<R> = items[lo..hi]
                .iter()
                .enumerate()
                .map(|(k, t)| f(state, lo + k, t))
                .collect();
            results.lock().unwrap().push((ci, out));
        };
        // The caller works too, so a call spawns one thread fewer and never
        // sleeps while the kernel is still placing fresh threads on cores.
        let (own, lent) = states.split_at_mut(1);
        std::thread::scope(|scope| {
            for state in lent.iter_mut().take(self.threads.min(nchunks) - 1) {
                let work = &work;
                scope.spawn(move || work(state));
            }
            work(&mut own[0]);
        });
        let mut per_chunk = results.into_inner().unwrap();
        per_chunk.sort_unstable_by_key(|&(ci, _)| ci);
        per_chunk.into_iter().flat_map(|(_, v)| v).collect()
    }

    /// Run `body` over disjoint subranges of `0..len` with per-worker state,
    /// returning the states in worker-index order. `grain` is the minimum
    /// chunk length (inputs shorter than `2 * grain` run inline).
    pub fn par_ranges<S, I, F>(&self, len: usize, grain: usize, init: I, body: F) -> Vec<S>
    where
        S: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, std::ops::Range<usize>) + Sync,
    {
        let grain = grain.max(1);
        let chunk = if self.threads == 1 || len < 2 * grain {
            len.max(1)
        } else {
            self.chunk_size(len, grain)
        };
        // At most `threads * CHUNKS_PER_WORKER` ranges, so the map below
        // claims them one at a time.
        let ranges: Vec<_> = (0..len.div_ceil(chunk).max(1))
            .map(|ci| ci * chunk..((ci + 1) * chunk).min(len))
            .collect();
        self.par_map_init(&ranges, init, |state, _, r| body(state, r.clone()))
            .1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn par_map_preserves_item_order() {
        for threads in [1, 2, 3, 8] {
            let pool = ThreadPool::new(threads);
            let items: Vec<u64> = (0..1000).collect();
            let out = pool.par_map(&items, |i, &x| x * 2 + i as u64);
            let want: Vec<u64> = (0..1000).map(|x| x * 3).collect();
            assert_eq!(out, want, "threads={threads}");
        }
    }

    #[test]
    fn par_map_init_states_cover_all_items_once() {
        let pool = ThreadPool::new(4);
        let items: Vec<u64> = (0..503).collect();
        let (out, states) = pool.par_map_init(
            &items,
            || 0u64,
            |seen, _, &x| {
                *seen += 1;
                x
            },
        );
        assert_eq!(out, items);
        assert!(states.len() <= 4);
        assert_eq!(states.iter().sum::<u64>(), 503);
    }

    #[test]
    fn par_map_with_lends_each_worker_its_own_state() {
        // Every worker blocks on its first item until all have claimed a
        // chunk, so each of the `threads` states must record some items.
        let caller = std::thread::current().id();
        for threads in [2, 3, 8] {
            let barrier = std::sync::Barrier::new(threads);
            let items: Vec<usize> = (0..400).collect();
            let mut states = vec![Vec::new(); threads];
            let on_caller = Mutex::new(Vec::new());
            let out = ThreadPool::new(threads).par_map_with(&items, &mut states, |seen, i, &x| {
                if seen.is_empty() {
                    barrier.wait();
                }
                if std::thread::current().id() == caller {
                    on_caller.lock().unwrap().push(i);
                }
                seen.push(i);
                x * 2
            });
            assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
            assert!(states.iter().all(|s| !s.is_empty()), "threads={threads}");
            // The calling thread is worker 0, and only worker 0.
            assert_eq!(states[0], on_caller.into_inner().unwrap());
            let mut all: Vec<usize> = states.concat();
            all.sort_unstable();
            assert_eq!(all, items, "every item reached exactly one state");
        }
    }

    #[test]
    fn par_map_with_runs_small_cases_inline_on_the_first_state() {
        let caller = std::thread::current().id();
        let on_caller = |seen: &mut usize, _, &x: &u32| {
            assert_eq!(std::thread::current().id(), caller);
            *seen += 1;
            x
        };
        let mut states = [0usize; 4];
        assert_eq!(
            ThreadPool::new(1).par_map_with(&[5, 6, 7], &mut states, on_caller),
            [5, 6, 7]
        );
        assert_eq!(
            ThreadPool::new(4).par_map_with(&[9], &mut states, on_caller),
            [9]
        );
        assert_eq!(states, [4, 0, 0, 0]);
        // More threads (and states) than items: still every item once, in order.
        let mut states = [0usize; 8];
        let out = ThreadPool::new(8).par_map_with(&[1u32, 2, 3], &mut states, |seen, _, &x| {
            *seen += 1;
            x
        });
        assert_eq!(out, [1, 2, 3]);
        assert_eq!(states.iter().sum::<usize>(), 3);
    }

    #[test]
    fn par_ranges_tiles_the_input_exactly() {
        for threads in [1, 3, 7] {
            let pool = ThreadPool::new(threads);
            let hits: Vec<AtomicU64> = (0..997).map(|_| AtomicU64::new(0)).collect();
            let states = pool.par_ranges(
                hits.len(),
                8,
                || 0usize,
                |count, r| {
                    for i in r {
                        hits[i].fetch_add(1, Ordering::Relaxed);
                        *count += 1;
                    }
                },
            );
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
            assert_eq!(states.iter().sum::<usize>(), 997);
        }
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(ThreadPool::new(0).threads(), 1);
        assert!(default_host_threads() >= 1);
    }
}
