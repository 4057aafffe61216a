//! 64-bit fixed point: bit-deterministic parallel sums.
//!
//! Floating-point addition is not associative, so a parallel reduction of
//! `f64`s depends on the schedule. Converting each addend to 64-bit fixed
//! point first turns the sum into integer addition, which commutes and
//! associates exactly — the final bits are a pure function of the *multiset*
//! of addends, independent of thread count and interleaving.
//!
//! The engine scatters into plain `u64` *lanes*, one per worker, folded
//! into the program's accumulator in worker order by [`fold_lane`], and
//! pays for no atomic. [`FixedVec`] is the shared form of the same sum (one
//! `fetch_add` per addend), kept as the reference the lanes are tested
//! against.
//!
//! With [`FRAC_BITS`] = 52 the resolution is 2^-52 ≈ 2.2e-16 per addend and
//! the representable range is `[0, 4096)`, ample for PageRank/RWR mass
//! (which sums to at most the vertex-probability total of 1).

use std::sync::atomic::{AtomicU64, Ordering};

/// Fractional bits of the fixed-point representation.
pub const FRAC_BITS: u32 = 52;
const SCALE: f64 = (1u64 << FRAC_BITS) as f64;

/// Add a worker's private `lane` into `acc` slot by slot, zeroing the lane
/// for its next use. Any split of the addends over any number of lanes
/// folds to the bits of the serial sum.
pub fn fold_lane(acc: &mut [u64], lane: &mut [u64]) {
    for (a, l) in acc.iter_mut().zip(lane) {
        *a = a.wrapping_add(std::mem::take(l));
    }
}

/// A vector of concurrently-addressable fixed-point accumulators for
/// non-negative reals: the shared-accumulator reference for the lane
/// scatter (module doc). The engine does not add through it.
#[derive(Debug, Default)]
pub struct FixedVec {
    slots: Vec<AtomicU64>,
}

impl FixedVec {
    pub fn new(len: usize) -> Self {
        FixedVec {
            slots: (0..len).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Convert a non-negative `f64` to fixed point (truncating — a pure
    /// function of `x`, so conversion itself is deterministic). Debug
    /// builds assert `x >= 0`; in release the cast saturates — negative or
    /// NaN to 0, `x >= 4096` to `u64::MAX` — so callers bound their inputs.
    #[inline]
    pub fn to_fixed(x: f64) -> u64 {
        debug_assert!(x >= 0.0, "FixedVec only accumulates non-negative values");
        (x * SCALE) as u64
    }

    pub fn from_fixed(raw: u64) -> f64 {
        raw as f64 / SCALE
    }

    /// Atomically add `x` to slot `i`. Safe to call from any number of
    /// threads; all interleavings yield the same final bits.
    #[inline]
    pub fn add(&self, i: usize, x: f64) {
        self.slots[i].fetch_add(Self::to_fixed(x), Ordering::Relaxed);
    }

    /// Current value of slot `i`.
    pub fn get(&self, i: usize) -> f64 {
        Self::from_fixed(self.slots[i].load(Ordering::Relaxed))
    }

    /// Reset every slot to zero (requires exclusive access, so no ordering
    /// concerns).
    pub fn clear(&mut self) {
        for s in &mut self.slots {
            *s.get_mut() = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ThreadPool;

    #[test]
    fn concurrent_adds_match_serial_bits_for_any_thread_count() {
        let addends: Vec<f64> = (0..10_000).map(|i| (i as f64 * 0.001) % 0.73).collect();
        let serial = {
            let acc = FixedVec::new(8);
            for (i, &x) in addends.iter().enumerate() {
                acc.add(i % 8, x);
            }
            (0..8).map(|i| acc.get(i).to_bits()).collect::<Vec<_>>()
        };
        for threads in [2, 4, 8] {
            let acc = FixedVec::new(8);
            ThreadPool::new(threads).par_for_each(&addends, |i, &x| acc.add(i % 8, x));
            let par: Vec<u64> = (0..8).map(|i| acc.get(i).to_bits()).collect();
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn resolution_and_round_trip() {
        let acc = FixedVec::new(1);
        acc.add(0, 0.25);
        acc.add(0, 0.125);
        assert_eq!(acc.get(0), 0.375);
        assert_eq!(FixedVec::from_fixed(FixedVec::to_fixed(1.0)), 1.0);
        assert!((FixedVec::from_fixed(FixedVec::to_fixed(0.1)) - 0.1).abs() < 1e-15);
    }

    #[test]
    fn clear_resets() {
        let mut acc = FixedVec::new(3);
        acc.add(2, 1.5);
        acc.clear();
        assert_eq!(acc.get(2), 0.0);
        assert_eq!(acc.len(), 3);
        assert!(!acc.is_empty());
    }
}
