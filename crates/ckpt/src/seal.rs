//! The one checksum and the one trailer every on-disk format here uses.
//!
//! A *sealed* byte string is `payload | u64 LE FNV-1a(payload)`;
//! [`seal`] writes the trailer, [`unseal`] checks it and strips it.
//! [`Snapshot`](crate::Snapshot) seals a whole file, a
//! [`SealedLog`](crate::SealedLog) seals its header and each frame body,
//! and `gts-storage` hashes slotted pages — fixed-size, re-hashed by every
//! batch that touches them — with the lane-parallel [`fnv1a_lanes`].

use crate::error::CkptError;

/// Width of the checksum trailer [`seal`] appends.
pub(crate) const TRAILER: usize = 8;

const BASIS: u64 = 0xCBF2_9CE4_8422_2325;
/// One FNV-1a step: fold byte `b` into state `h`.
fn step(h: u64, b: u8) -> u64 {
    (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
}

/// FNV-1a 64-bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(BASIS, |h, &b| step(h, b))
}

/// Stripes [`fnv1a_lanes`] cuts its input into.
pub const FNV_LANES: usize = 4;

/// Lane-parallel FNV-1a 64: [`FNV_LANES`] contiguous stripes of
/// `bytes.len() / FNV_LANES` bytes are each hashed by their own byte-wise
/// chain, in lockstep, so the multiplier has that many independent
/// products in flight instead of one dependency per byte. The result is
/// [`fnv1a`] over the stripe sums (little-endian `u64`s, stripe order)
/// followed by the `bytes.len() % FNV_LANES` bytes no stripe covers.
pub fn fnv1a_lanes(bytes: &[u8]) -> u64 {
    let stripe = bytes.len() / FNV_LANES;
    let (body, rest) = bytes.split_at(stripe * FNV_LANES);
    let stripes: [&[u8]; FNV_LANES] = std::array::from_fn(|l| &body[l * stripe..][..stripe]);
    let mut sums = [BASIS; FNV_LANES];
    for i in 0..stripe {
        for (sum, s) in sums.iter_mut().zip(&stripes) {
            *sum = step(*sum, s[i]);
        }
    }
    let sums = sums.iter().flat_map(|sum| sum.to_le_bytes());
    sums.chain(rest.iter().copied()).fold(BASIS, step)
}

/// Append the FNV-1a of `buf[from..]` to `buf` as an 8-byte
/// little-endian trailer (`from` skips a prefix the checksum does not
/// cover, such as a frame's length field).
pub fn seal(buf: &mut Vec<u8>, from: usize) {
    let sum = fnv1a(&buf[from..]);
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
    let computed = fnv1a(payload);
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

    /// The definition, written the slow way: per-stripe `fnv1a`, then
    /// `fnv1a` of the sums and the leftover bytes.
    fn reference(bytes: &[u8]) -> u64 {
        let stripe = bytes.len() / FNV_LANES;
        let mut fold = Vec::new();
        for l in 0..FNV_LANES {
            fold.extend_from_slice(&fnv1a(&bytes[l * stripe..(l + 1) * stripe]).to_le_bytes());
        }
        fold.extend_from_slice(&bytes[FNV_LANES * stripe..]);
        fnv1a(&fold)
    }

    fn noise(len: usize) -> Vec<u8> {
        (0..len as u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect()
    }

    #[test]
    fn lanes_equal_the_per_stripe_reference_at_every_length() {
        let data = noise(1031);
        for len in (0..=67).chain([248, 1024, 1029, 1030, 1031]) {
            assert_eq!(
                fnv1a_lanes(&data[..len]),
                reference(&data[..len]),
                "{len} bytes"
            );
        }
        // Shorter than one byte per lane: plain FNV-1a over four basis
        // sums and the bytes themselves.
        assert_ne!(fnv1a_lanes(b""), fnv1a_lanes(b"\0"));
    }

    #[test]
    fn every_byte_counts_and_stripes_do_not_commute() {
        // 4 stripes of 16 and 3 leftover bytes.
        let data = noise(67);
        let sum = fnv1a_lanes(&data);
        for at in 0..data.len() {
            let mut flipped = data.clone();
            flipped[at] ^= 0x80;
            assert_ne!(fnv1a_lanes(&flipped), sum, "flip at {at}");
        }
        let mut swapped = data.clone();
        let (a, b) = swapped.split_at_mut(16);
        a.swap_with_slice(&mut b[16..32]); // stripes 0 and 2
        assert_ne!(fnv1a_lanes(&swapped), sum);
    }
}
