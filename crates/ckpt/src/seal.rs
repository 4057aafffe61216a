//! The one checksum and the one trailer every on-disk format here uses.
//!
//! A *sealed* byte string is `payload | u64 LE FNV-1a(payload)`;
//! [`seal`] writes the trailer, [`unseal`] checks it and strips it.
//! [`Snapshot`](crate::Snapshot) seals a whole file, a
//! [`SealedLog`](crate::SealedLog) seals its header and each frame body,
//! and `gts-storage` hashes slotted pages with the same [`fnv1a`].

use crate::error::CkptError;

/// Width of the checksum trailer [`seal`] appends.
pub(crate) const TRAILER: usize = 8;

/// FNV-1a 64-bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    const BASIS: u64 = 0xCBF2_9CE4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    bytes
        .iter()
        .fold(BASIS, |h, &b| (h ^ u64::from(b)).wrapping_mul(PRIME))
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
