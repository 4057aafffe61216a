//! Pins the RMAT generator's output byte for byte: an FNV-1a-64 digest of
//! every edge list over a grid of scales, edge factors, seeds and quadrant
//! probabilities, plus the Twitter look-alike preset. Any change to how a
//! quadrant is drawn, however it is computed, must leave these unchanged —
//! every experiment, golden fixture and benchmark input is built on them.
//!
//! The probability sets cover the Graph500 default, a uniform split, a
//! dyadic split whose thresholds are exactly representable (so draws can
//! tie a threshold), a degenerate all-`a` split and one summing past 1.

use gts_graph::generate::Rmat;
use gts_graph::{Dataset, EdgeList};

fn fnv1a(g: &EdgeList) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(&g.num_vertices.to_le_bytes());
    for &(s, d) in &g.edges {
        eat(&s.to_le_bytes());
        eat(&d.to_le_bytes());
    }
    h
}

const PROBABILITIES: [(f64, f64, f64); 5] = [
    (0.57, 0.19, 0.19),
    (0.25, 0.25, 0.25),
    (0.5, 0.25, 0.125),
    (1.0, 0.0, 0.0),
    (0.6, 0.3, 0.3),
];
const SCALES: [u32; 4] = [0, 1, 7, 12];
const EDGE_FACTORS: [u32; 2] = [1, 16];
const SEEDS: [u64; 2] = [0x6715_2016, 7];

/// Digests in the loop order of `rmat_grid_digests`: one row per
/// probability set and scale, its columns edge factor 1 at both seeds,
/// then edge factor 16 at both seeds.
#[rustfmt::skip]
const RMAT_GRID: [u64; 80] = [
    // (0.57, 0.19, 0.19)
    0x5f242d39c2422be4, 0x5f242d39c2422be4, 0xe99cff1a73211f64, 0xe99cff1a73211f64, // scale 0
    0x63e15cf972a4e296, 0xbd9bef212aebc226, 0xd565c4a9ac0a4616, 0x98038d962895d657, // scale 1
    0x6281fcdbb10ac877, 0x4d23e0c0b67427ef, 0x18d415c04a0cf074, 0xe32d1eed79f8b988, // scale 7
    0x2918fb24dc83239d, 0xef1064983a45e594, 0x98028e430f67b838, 0x10c8e35ec1b9abec, // scale 12
    // (0.25, 0.25, 0.25)
    0x5f242d39c2422be4, 0x5f242d39c2422be4, 0xe99cff1a73211f64, 0xe99cff1a73211f64, // scale 0
    0xb92a3491773d5eb6, 0x03dc0901c8da9f27, 0xbedd5c84461f8296, 0xbdde217e7bc5e626, // scale 1
    0xe7bebfdded46635e, 0x0ee1e66d0dd6ee5f, 0x40ec3b35ad332ffa, 0xe6ba83337cf854d5, // scale 7
    0x68030e953a20c7ee, 0x79ed8a28860e1faf, 0xc4b148cc9b805ed9, 0x7dade822fb3ab4a1, // scale 12
    // (0.5, 0.25, 0.125)
    0x5f242d39c2422be4, 0x5f242d39c2422be4, 0xe99cff1a73211f64, 0xe99cff1a73211f64, // scale 0
    0x63e15cf972a4e296, 0xbd9bef212aebc226, 0x5131c140d8a12567, 0xe49c70c734aca537, // scale 1
    0xab0f97c28a0ffb82, 0xce929ae54ec817de, 0xa5848c403a07fddf, 0x6a8855150d509ef0, // scale 7
    0x9a9726a610fab806, 0xc3cd79413ede5511, 0x4c81153f68385ef0, 0xcf3ea0dc2a10d73b, // scale 12
    // (1.0, 0.0, 0.0)
    0x5f242d39c2422be4, 0x5f242d39c2422be4, 0xe99cff1a73211f64, 0xe99cff1a73211f64, // scale 0
    0xb2df72c185b9fad7, 0xb2df72c185b9fad7, 0xc6e9b650b10ce917, 0xc6e9b650b10ce917, // scale 1
    0x562219bd2087ac75, 0x562219bd2087ac75, 0x4d6fd2d40e615c75, 0x4d6fd2d40e615c75, // scale 7
    0xb83155a07c582945, 0xb83155a07c582945, 0xb643c9f21fee2945, 0xb643c9f21fee2945, // scale 12
    // (0.6, 0.3, 0.3)
    0x5f242d39c2422be4, 0x5f242d39c2422be4, 0xe99cff1a73211f64, 0xe99cff1a73211f64, // scale 0
    0xbd9bef212aebc226, 0xbd9bef212aebc226, 0x219db76932e35746, 0xf445eb3aab4908b6, // scale 1
    0xe109fb8d204a82db, 0xccd250508f9d6564, 0x9d45af9fbab10eb7, 0x18b36b9c7a7550aa, // scale 7
    0xfa2d3b27384079d3, 0xffd312c40860aab7, 0xbf9fd6b4e2c5a108, 0x25ae383803d91cd7, // scale 12
];

const TWITTER_LIKE: u64 = 0x4555_c824_f33a_687c;

#[test]
fn rmat_grid_digests() {
    let mut got = Vec::new();
    for &(a, b, c) in &PROBABILITIES {
        for &scale in &SCALES {
            for &edge_factor in &EDGE_FACTORS {
                for &seed in &SEEDS {
                    let g = Rmat {
                        scale,
                        edge_factor,
                        a,
                        b,
                        c,
                        seed,
                    }
                    .generate();
                    got.push(fnv1a(&g));
                }
            }
        }
    }
    let table: String = got.iter().map(|h| format!("    {h:#018x},\n")).collect();
    assert_eq!(got, RMAT_GRID, "RMAT digests moved; now:\n{table}");
}

#[test]
fn twitter_like_digest() {
    let h = fnv1a(&Dataset::TwitterLike.generate());
    assert_eq!(h, TWITTER_LIKE, "twitter-like digest moved; now {h:#018x}");
}
