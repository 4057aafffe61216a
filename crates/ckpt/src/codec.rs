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

    /// Append a sequence: a `u64` element count, then the elements.
    pub fn put_seq<T: Scalar>(&mut self, v: &[T]) {
        self.put_u64(v.len() as u64);
        for &x in v {
            x.put(self);
        }
    }
}

/// A fixed-width field a sequence ([`ByteWriter::put_seq`] /
/// [`ByteReader::take_seq`]) can hold.
pub trait Scalar: Copy {
    /// Encoded size in bytes.
    const WIDTH: usize;
    /// Append `self` to `w`.
    fn put(self, w: &mut ByteWriter);
    /// Read one value from `r`.
    fn take(r: &mut ByteReader<'_>, what: &'static str) -> Result<Self, CkptError>;
}

macro_rules! scalar {
    ($($t:ty, $width:expr, $put:ident, $take:ident;)*) => {$(
        impl Scalar for $t {
            const WIDTH: usize = $width;
            fn put(self, w: &mut ByteWriter) {
                w.$put(self);
            }
            fn take(r: &mut ByteReader<'_>, what: &'static str) -> Result<Self, CkptError> {
                r.$take(what)
            }
        }
    )*};
}
scalar! {
    bool, 1, put_bool, take_bool;
    u16, 2, put_u16, take_u16;
    u32, 4, put_u32, take_u32;
    u64, 8, put_u64, take_u64;
    f32, 4, put_f32, take_f32;
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

    /// Read a sequence written by [`ByteWriter::put_seq`]. The count is
    /// checked against the bytes that follow before anything is
    /// allocated, so a corrupt count is a typed error, never an abort.
    pub fn take_seq<T: Scalar>(&mut self, what: &'static str) -> Result<Vec<T>, CkptError> {
        let count = self.take_u64(what)?;
        let need = usize::try_from(count)
            .ok()
            .and_then(|n| n.checked_mul(T::WIDTH))
            .unwrap_or(usize::MAX);
        if need > self.remaining() {
            return Err(CkptError::Truncated {
                what,
                need,
                have: self.remaining(),
            });
        }
        (0..count).map(|_| T::take(self, what)).collect()
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

    /// `put_seq` / `take_seq` round-trip exactly at lengths 0, 1 and 4097
    /// for every scalar width, a second sequence behind the first stays
    /// readable, and every strict prefix of the encoding is a typed error.
    fn seq_round_trips<T: Scalar + PartialEq + std::fmt::Debug>(make: impl Fn(u64) -> T) {
        for len in [0u64, 1, 4097] {
            let v: Vec<T> = (0..len).map(&make).collect();
            let mut w = ByteWriter::new();
            w.put_seq(&v);
            let one = w.len();
            assert_eq!(one, 8 + v.len() * T::WIDTH);
            w.put_seq(&v[..v.len().min(1)]);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            assert_eq!(r.take_seq::<T>("first").unwrap(), v);
            assert_eq!(r.take_seq::<T>("second").unwrap(), v[..v.len().min(1)]);
            r.finish().unwrap();
            for cut in 0..one {
                let err = ByteReader::new(&bytes[..cut]).take_seq::<T>("cut");
                assert!(
                    matches!(err, Err(CkptError::Truncated { what: "cut", .. })),
                    "len {len}, cut {cut}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn sequences_round_trip_for_every_scalar_width() {
        seq_round_trips(|i| i % 3 == 0);
        seq_round_trips(|i| (i * 40_503) as u16);
        seq_round_trips(|i| (i * 2_654_435_761) as u32);
        seq_round_trips(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        seq_round_trips(|i| f32::from_bits((i * 2_654_435_761) as u32).abs().min(1e30));
    }

    #[test]
    fn hostile_sequence_counts_are_typed_before_any_allocation() {
        for count in [u64::MAX, u64::MAX / 8, 3] {
            let mut w = ByteWriter::new();
            w.put_u64(count);
            w.put_raw(&[0; 23]); // one byte short of three u64s
            let bytes = w.into_bytes();
            let err = ByteReader::new(&bytes).take_seq::<u64>("pids").unwrap_err();
            assert!(
                matches!(
                    err,
                    CkptError::Truncated {
                        what: "pids",
                        have: 23,
                        ..
                    }
                ),
                "{count}: {err:?}"
            );
        }
    }
}
