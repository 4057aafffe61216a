//! The checksums and the one trailer every on-disk format here uses.
//!
//! A *sealed* byte string is `payload | u64 LE XXH64(payload)`;
//! [`seal`] writes the trailer, [`unseal`] checks it and strips it.
//! [`Snapshot`](crate::Snapshot) seals a whole file, a
//! [`SealedLog`](crate::SealedLog) seals its header and each frame body,
//! and `gts-storage` trails every slotted page and a store file's
//! page-role table with the same word-wide [`xxh64`]. [`fnv1a`] is left
//! for identity fingerprints — a store's, a workload's, a program
//! state's — which are compared, never written as a checksum.

use crate::error::CkptError;

/// Width of the checksum trailer [`seal`] appends.
pub(crate) const TRAILER: usize = 8;

/// FNV-1a 64-bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

/// One XXH64 round: fold word `w` into lane `acc`. The rotate brings the
/// product's high bits (a flipped top bit of `w` among them) down before
/// the next multiply, which only carries bits upward.
fn round(acc: u64, w: u64) -> u64 {
    acc.wrapping_add(w.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

/// Little-endian `u64` at the start of `bytes` (at least 8 long).
fn word(bytes: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&bytes[..8]);
    u64::from_le_bytes(w)
}

/// XXH64 with seed 0 (Collet's xxHash64): four lanes take one 8-byte
/// word each of every 32-byte stripe, are merged, then the `len % 32`
/// tail is folded in 8, 4 and 1 bytes at a time and the result
/// avalanched (DESIGN.md §10 "The page trailer" says what it detects).
pub fn xxh64(bytes: &[u8]) -> u64 {
    let stripes = bytes.chunks_exact(32);
    let tail = stripes.remainder();
    let mut h = if bytes.len() >= 32 {
        let mut v = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
        for stripe in stripes {
            for (l, v) in v.iter_mut().enumerate() {
                *v = round(*v, word(&stripe[8 * l..]));
            }
        }
        let h = v[0]
            .rotate_left(1)
            .wrapping_add(v[1].rotate_left(7))
            .wrapping_add(v[2].rotate_left(12))
            .wrapping_add(v[3].rotate_left(18));
        v.iter().fold(h, |h, &v| {
            (h ^ round(0, v)).wrapping_mul(P1).wrapping_add(P4)
        })
    } else {
        P5
    };
    h = h.wrapping_add(bytes.len() as u64);
    let words = tail.chunks_exact(8);
    let rest = words.remainder();
    for w in words {
        h = (h ^ round(0, word(w)))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
    }
    let (half, rest) = rest.split_at(rest.len() & 4);
    if let &[a, b, c, d] = half {
        h ^= u64::from(u32::from_le_bytes([a, b, c, d])).wrapping_mul(P1);
        h = h.rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
    }
    for &b in rest {
        h = (h ^ u64::from(b).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// Append the XXH64 of `buf[from..]` to `buf` as an 8-byte
/// little-endian trailer (`from` skips a prefix the checksum does not
/// cover, such as a frame's length field).
pub fn seal(buf: &mut Vec<u8>, from: usize) {
    let sum = xxh64(&buf[from..]);
    buf.extend_from_slice(&sum.to_le_bytes());
}

/// Split the trailer off `sealed` and return the payload it vouches for;
/// [`CkptError::Corrupt`] when the bytes are too short to carry a trailer
/// or the stored checksum does not match the payload.
pub fn unseal(sealed: &[u8]) -> Result<&[u8], CkptError> {
    if sealed.len() < TRAILER {
        return Err(CkptError::Corrupt {
            reason: format!(
                "{} bytes is too short to carry a checksum trailer",
                sealed.len()
            ),
        });
    }
    let (payload, trailer) = sealed.split_at(sealed.len() - TRAILER);
    let stored = u64::from_le_bytes([
        trailer[0], trailer[1], trailer[2], trailer[3], trailer[4], trailer[5], trailer[6],
        trailer[7],
    ]);
    let computed = xxh64(payload);
    if stored != computed {
        return Err(CkptError::Corrupt {
            reason: format!("checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"),
        });
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noise(len: usize) -> Vec<u8> {
        (0..len as u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect()
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_F739_67E8);
    }

    #[test]
    fn xxh64_matches_the_reference_known_answers() {
        assert_eq!(xxh64(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxh64(b"abc"), 0x44BC_2CF5_AD77_0999);
        // Longer inputs, against the reference library: 15 bytes reach
        // the 8-, 4- and 1-byte tail steps, 32 and more the stripes, and
        // 1016 is a 1 KiB page's body (stripes plus three tail words).
        for (len, want) in [
            (4, 0x91B6_5BBE_720C_34CF),
            (8, 0x521F_D287_8EA6_9D17),
            (15, 0x4EE7_7AB3_71D0_6E31),
            (32, 0x4E13_111C_ED6F_735D),
            (100, 0xD61E_A92C_5AE1_3676),
            (1016, 0xC443_1BCF_FF49_1D94),
        ] {
            assert_eq!(xxh64(&noise(len)), want, "{len} bytes");
        }
    }

    #[test]
    fn every_single_byte_change_of_a_1_kib_body_changes_the_hash() {
        let data = noise(1024);
        let sum = xxh64(&data);
        for at in 0..data.len() {
            for flip in [0x01, 0x80, 0xFF] {
                let mut changed = data.clone();
                changed[at] ^= flip;
                assert_ne!(xxh64(&changed), sum, "byte {at} ^ {flip:#04x}");
            }
        }
    }

    /// The case that rules out word-wise FNV: there a flipped top bit of
    /// a word stays bit 63 through every later multiply, so two such
    /// flips cancel. Every pair of words of the body, exhaustively.
    #[test]
    fn flipping_the_top_bit_of_any_two_words_changes_the_hash() {
        let data = noise(1024);
        let sum = xxh64(&data);
        let words = data.len() / 8;
        for i in 0..words {
            for j in i + 1..words {
                let mut changed = data.clone();
                changed[8 * i + 7] ^= 0x80;
                changed[8 * j + 7] ^= 0x80;
                assert_ne!(xxh64(&changed), sum, "words {i} and {j}");
            }
        }
    }
}
