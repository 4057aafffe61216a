//! Private lanes ≡ shared atomics ≡ one serial accumulator, bit for bit:
//! the three ways of summing the same fixed-point addends must agree for
//! any split of the addends, because integer addition associates and
//! commutes. The engine scatters the lane way; the other two are its oracle.

use gts_exec::{fold_lane, FixedVec, ThreadPool};
use proptest::prelude::*;

const SLOTS: usize = 16;

fn add(lane: &mut [u64], &(slot, x): &(usize, f64)) {
    lane[slot] = lane[slot].wrapping_add(FixedVec::to_fixed(x));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lanes_and_shared_atomics_carry_the_serial_bits(
        addends in proptest::collection::vec((0..SLOTS, 0.0f64..0.9), 0..400),
        cuts in proptest::collection::vec(0usize..=400, 7..8),
    ) {
        let mut serial = vec![0u64; SLOTS];
        addends.iter().for_each(|a| add(&mut serial, a));

        for n in [2usize, 3, 8] {
            // Cut the list at random points: one run of addends per lane.
            let mut at: Vec<usize> = cuts[..n - 1].iter().map(|c| c % (addends.len() + 1)).collect();
            at.extend([0, addends.len()]);
            at.sort_unstable();
            let mut split = vec![vec![0u64; SLOTS]; n];
            for (lane, run) in split.iter_mut().zip(at.windows(2)) {
                addends[run[0]..run[1]].iter().for_each(|a| add(lane, a));
            }
            // The same list dealt to the lanes by a pool's schedule instead.
            let mut pooled = vec![vec![0u64; SLOTS]; n];
            ThreadPool::new(n).par_map_with(&addends, &mut pooled, |lane, _, a| add(lane, a));

            for mut lanes in [split, pooled] {
                let mut acc = vec![0u64; SLOTS];
                lanes.iter_mut().for_each(|lane| fold_lane(&mut acc, lane));
                prop_assert_eq!(&acc, &serial);
                prop_assert!(lanes.iter().flatten().all(|&l| l == 0), "a folded lane is zero");
            }
        }

        let shared = FixedVec::new(SLOTS);
        ThreadPool::new(4).par_for_each(&addends, |_, &(slot, x)| shared.add(slot, x));
        for (slot, &raw) in serial.iter().enumerate() {
            prop_assert_eq!(shared.get(slot).to_bits(), FixedVec::from_fixed(raw).to_bits());
        }
    }
}
