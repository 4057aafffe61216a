//! Minimal little-endian byte codec for snapshot section payloads.
//!
//! No serde, no derive macros — the workspace builds with zero external
//! dependencies, and the handful of fixed-width field types the engine
//! checkpoints (integers, IEEE-754 bit patterns, length-prefixed blobs)
//! do not justify a framework. Every [`ByteReader`] access is
//! bounds-checked and returns a typed [`CkptError::Truncated`] instead of
//! panicking: torn snapshots are an *expected* input on the resume path.

use crate::error::CkptError;

/// Appends little-endian fields to a growable buffer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// A fresh, empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `bool` as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Append a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f32` as its IEEE-754 bit pattern (exact round trip).
    pub fn put_f32(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }

    /// Append an `f64` as its IEEE-754 bit pattern (exact round trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append bytes as they are, with no length prefix.
    pub fn put_raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Append a `u64`-length-prefixed byte blob.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.put_raw(v);
    }

    /// Append a `u64`-length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }
}

/// Bounds-checked cursor over encoded bytes.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Start reading from the front of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails unless every byte was consumed — catches schema drift where
    /// a decoder silently ignores trailing fields.
    pub fn finish(self) -> Result<(), CkptError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CkptError::Corrupt {
                reason: format!("{} unconsumed trailing bytes in section", self.remaining()),
            })
        }
    }

    /// Read exactly `n` bytes, with no length prefix.
    pub fn take_raw(&mut self, what: &'static str, n: usize) -> Result<&'a [u8], CkptError> {
        if self.remaining() < n {
            return Err(CkptError::Truncated {
                what,
                need: n,
                have: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn take_u8(&mut self, what: &'static str) -> Result<u8, CkptError> {
        Ok(self.take_raw(what, 1)?[0])
    }

    /// Read a `bool` (any nonzero byte is `true`).
    pub fn take_bool(&mut self, what: &'static str) -> Result<bool, CkptError> {
        Ok(self.take_u8(what)? != 0)
    }

    /// Read a little-endian `u16`.
    pub fn take_u16(&mut self, what: &'static str) -> Result<u16, CkptError> {
        let b = self.take_raw(what, 2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Read a little-endian `u32`.
    pub fn take_u32(&mut self, what: &'static str) -> Result<u32, CkptError> {
        let b = self.take_raw(what, 4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn take_u64(&mut self, what: &'static str) -> Result<u64, CkptError> {
        let b = self.take_raw(what, 8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read an `f32` bit pattern.
    pub fn take_f32(&mut self, what: &'static str) -> Result<f32, CkptError> {
        Ok(f32::from_bits(self.take_u32(what)?))
    }

    /// Read an `f64` bit pattern.
    pub fn take_f64(&mut self, what: &'static str) -> Result<f64, CkptError> {
        Ok(f64::from_bits(self.take_u64(what)?))
    }

    /// Read a `u64`-length-prefixed byte blob.
    pub fn take_bytes(&mut self, what: &'static str) -> Result<&'a [u8], CkptError> {
        let len = self.take_u64(what)?;
        let len = usize::try_from(len).map_err(|_| CkptError::Corrupt {
            reason: format!("{what}: blob length {len} exceeds addressable memory"),
        })?;
        self.take_raw(what, len)
    }

    /// Read a `u64`-length-prefixed UTF-8 string.
    pub fn take_str(&mut self, what: &'static str) -> Result<String, CkptError> {
        let b = self.take_bytes(what)?;
        String::from_utf8(b.to_vec()).map_err(|_| CkptError::Corrupt {
            reason: format!("{what}: invalid UTF-8"),
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests panic on failure by design
mod tests {
    use super::*;

    #[test]
    fn round_trip_every_field_type() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_u16(65_535);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_f32(-0.25);
        w.put_f64(f64::MIN_POSITIVE);
        w.put_bytes(b"blob");
        w.put_str("snapshot");
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.take_u8("a").unwrap(), 7);
        assert!(r.take_bool("b").unwrap());
        assert_eq!(r.take_u16("c").unwrap(), 65_535);
        assert_eq!(r.take_u32("d").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.take_u64("e").unwrap(), u64::MAX - 1);
        assert_eq!(r.take_f32("f").unwrap(), -0.25);
        assert_eq!(r.take_f64("g").unwrap(), f64::MIN_POSITIVE);
        assert_eq!(r.take_bytes("h").unwrap(), b"blob");
        assert_eq!(r.take_str("i").unwrap(), "snapshot");
        r.finish().unwrap();
    }

    #[test]
    fn truncated_read_is_typed_not_a_panic() {
        let mut r = ByteReader::new(&[1, 2]);
        let err = r.take_u32("field").unwrap_err();
        assert_eq!(
            err,
            CkptError::Truncated {
                what: "field",
                need: 4,
                have: 2
            }
        );
    }

    #[test]
    fn unconsumed_trailing_bytes_fail_finish() {
        let r = ByteReader::new(&[0; 3]);
        assert!(matches!(r.finish(), Err(CkptError::Corrupt { .. })));
    }

    #[test]
    fn nan_bit_patterns_round_trip_exactly() {
        let weird = f32::from_bits(0x7FC0_1234);
        let mut w = ByteWriter::new();
        w.put_f32(weird);
        let bytes = w.into_bytes();
        let got = ByteReader::new(&bytes).take_f32("nan").unwrap();
        assert_eq!(got.to_bits(), weird.to_bits());
    }
}
