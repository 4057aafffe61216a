//! The versioned, checksummed snapshot container.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic      8 bytes   b"GTSCKPT1"
//! version    u32       payload schema version (the engine's, not ours)
//! sections   u32       section count
//! per section:
//!   name     u32 len + UTF-8 bytes
//!   body     u64 len + raw bytes
//! checksum   u64       FNV-1a over every preceding byte
//! ```
//!
//! Sections are stored in name order (`BTreeMap`), so encoding is
//! deterministic: the same engine state always produces the same bytes —
//! which is what lets the kill-and-resume tests compare artifacts
//! byte-for-byte.

use crate::codec::{ByteReader, ByteWriter};
use crate::error::CkptError;
use crate::seal::{seal, unseal};
use std::collections::BTreeMap;

const MAGIC: &[u8; 8] = b"GTSCKPT1";

/// A named-section container with a schema version and a whole-file
/// FNV-1a checksum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    version: u32,
    sections: BTreeMap<String, Vec<u8>>,
}

impl Snapshot {
    /// An empty snapshot with the given payload schema version.
    pub fn new(version: u32) -> Self {
        Self {
            version,
            sections: BTreeMap::new(),
        }
    }

    /// The payload schema version recorded in the header.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Fails unless the snapshot was written with schema `expected`.
    pub fn require_version(&self, expected: u32) -> Result<(), CkptError> {
        if self.version == expected {
            Ok(())
        } else {
            Err(CkptError::VersionMismatch {
                found: self.version,
                expected,
            })
        }
    }

    /// Add (or replace) a section.
    pub fn insert(&mut self, name: &str, body: Vec<u8>) {
        self.sections.insert(name.to_string(), body);
    }

    /// Section names, sorted.
    pub fn section_names(&self) -> impl Iterator<Item = &str> {
        self.sections.keys().map(String::as_str)
    }

    /// A required section's bytes; typed error when absent.
    pub fn section(&self, name: &str) -> Result<&[u8], CkptError> {
        self.sections
            .get(name)
            .map(Vec::as_slice)
            .ok_or_else(|| CkptError::MissingSection {
                name: name.to_string(),
            })
    }

    /// Serialize to the checksummed wire format.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_raw(MAGIC);
        w.put_u32(self.version);
        w.put_u32(self.sections.len() as u32);
        for (name, body) in &self.sections {
            w.put_u32(name.len() as u32);
            w.put_raw(name.as_bytes());
            w.put_bytes(body);
        }
        let mut buf = w.into_bytes();
        seal(&mut buf, 0);
        buf
    }

    /// Parse and validate the wire format: magic, checksum, and section
    /// table must all be intact, or the snapshot is rejected as torn.
    pub fn decode(bytes: &[u8]) -> Result<Self, CkptError> {
        let payload = unseal(bytes)?;
        let mut r = ByteReader::new(payload);
        if r.take_raw("snapshot magic", MAGIC.len())? != MAGIC {
            return Err(CkptError::Corrupt {
                reason: "bad magic".to_string(),
            });
        }
        let version = r.take_u32("snapshot version")?;
        let count = r.take_u32("section count")?;
        let mut sections = BTreeMap::new();
        for _ in 0..count {
            let name_len = r.take_u32("section name length")? as usize;
            let name = std::str::from_utf8(r.take_raw("section name", name_len)?)
                .map_err(|_| CkptError::Corrupt {
                    reason: "section name is not UTF-8".to_string(),
                })?
                .to_string();
            let body = r.take_bytes("section body")?.to_vec();
            sections.insert(name, body);
        }
        r.finish()?;
        Ok(Self { version, sections })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests panic on failure by design
mod tests {
    use super::*;
    use crate::fnv1a;

    fn sample() -> Snapshot {
        let mut s = Snapshot::new(3);
        s.insert("clock", vec![1, 2, 3, 4]);
        s.insert("program", b"state blob".to_vec());
        s.insert("empty", Vec::new());
        s
    }

    #[test]
    fn encode_decode_round_trips() {
        let snap = sample();
        let decoded = Snapshot::decode(&snap.encode()).unwrap();
        assert_eq!(decoded, snap);
        assert_eq!(decoded.version(), 3);
        assert_eq!(decoded.section("program").unwrap(), b"state blob");
        assert_eq!(
            decoded.section_names().collect::<Vec<_>>(),
            vec!["clock", "empty", "program"]
        );
    }

    #[test]
    fn encoding_is_deterministic_regardless_of_insert_order() {
        let mut a = Snapshot::new(1);
        a.insert("x", vec![1]);
        a.insert("a", vec![2]);
        let mut b = Snapshot::new(1);
        b.insert("a", vec![2]);
        b.insert("x", vec![1]);
        assert_eq!(a.encode(), b.encode());
    }

    #[test]
    fn any_single_bit_flip_is_detected() {
        let bytes = sample().encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            assert!(
                Snapshot::decode(&bad).is_err(),
                "bit flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn truncation_anywhere_is_detected() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            assert!(
                Snapshot::decode(&bytes[..cut]).is_err(),
                "truncation to {cut} bytes went undetected"
            );
        }
    }

    #[test]
    fn missing_section_is_typed() {
        let snap = sample();
        assert_eq!(
            snap.section("absent").unwrap_err(),
            CkptError::MissingSection {
                name: "absent".to_string()
            }
        );
    }

    #[test]
    fn version_gate() {
        let snap = Snapshot::new(2);
        assert!(snap.require_version(2).is_ok());
        assert_eq!(
            snap.require_version(5).unwrap_err(),
            CkptError::VersionMismatch {
                found: 2,
                expected: 5
            }
        );
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_F739_67E8);
    }
}
