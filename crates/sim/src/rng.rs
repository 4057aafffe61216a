//! The workspace's one seeded PRNG: dataset generators (`gts-graph`) and
//! fault schedules (`gts-faults`) both draw from it.
//!
//! Callers only need a seedable stream of uniform `f64`s and bounded
//! integers, so instead of pulling the `rand` crate (which the build
//! cannot fetch offline) we carry a small xoshiro256** generator seeded
//! through splitmix64 — the same construction `rand`'s small RNGs use.
//! Streams are fully determined by the seed, so datasets and fault
//! schedules are reproducible across runs and platforms.

/// xoshiro256** pseudo-random generator (Blackman & Vigna).
///
/// The draw methods are `#[inline]`: generators call them once per edge
/// per RMAT level from other crates, where an out-of-line call would
/// cost about as much as the draw.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Seed the generator; any seed (including 0) gives a good stream
    /// because the state is expanded through splitmix64.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Rng {
            s: [next(), next(), next(), next()],
        }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// The raw generator state, for checkpointing a stream mid-schedule.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuild a generator at an exact checkpointed state.
    pub fn from_state(s: [u64; 4]) -> Self {
        Rng { s }
    }

    /// Uniform `f64` in `[0, 1)` from the top 53 bits.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `u64` in `[0, n)` (Lemire's multiply-shift with rejection).
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[inline]
    pub fn below_u64(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below_u64 bound must be non-zero");
        // Rejection-free fast path for powers of two.
        if n.is_power_of_two() {
            return self.next_u64() & (n - 1);
        }
        let threshold = n.wrapping_neg() % n;
        loop {
            let x = self.next_u64();
            let (hi, lo) = {
                let wide = (x as u128) * (n as u128);
                ((wide >> 64) as u64, wide as u64)
            };
            if lo >= threshold {
                return hi;
            }
        }
    }

    /// Uniform `u32` in `[0, n)`.
    #[inline]
    pub fn below_u32(&mut self, n: u32) -> u32 {
        self.below_u64(n as u64) as u32
    }

    /// Uniform `usize` in `[0, n)`.
    #[inline]
    pub fn below_usize(&mut self, n: usize) -> usize {
        self.below_u64(n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_is_roughly_uniform() {
        let mut r = Rng::seed_from_u64(1);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} too far from 0.5");
    }

    #[test]
    fn below_respects_bound_and_hits_all_residues() {
        let mut r = Rng::seed_from_u64(3);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            let x = r.below_u64(7);
            assert!(x < 7);
            seen[x as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn below_respects_bound() {
        let mut r = Rng::seed_from_u64(3);
        for _ in 0..10_000 {
            assert!(r.below_u32(1_000_000) < 1_000_000);
        }
    }

    #[test]
    fn a_checkpointed_state_resumes_the_same_stream() {
        let mut a = Rng::seed_from_u64(9);
        a.next_u64();
        let mut b = Rng::from_state(a.state());
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_bound_panics() {
        let mut r = Rng::seed_from_u64(0);
        let _ = r.below_u64(0);
    }
}
