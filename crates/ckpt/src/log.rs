//! The sealed-record log: one append-only file of checksummed frames.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! header    magic 8 bytes | version u32 | binding u64 len + bytes | u64 FNV-1a of the preceding
//! frame*    body len u32  | body        | u64 FNV-1a of the body
//! ```
//!
//! The *binding* is opaque to this module: the caller writes what ties
//! the log to its owner (a store identity, a workload fingerprint) and
//! checks it on open. Frame bodies are opaque too.
//!
//! The header is created through [`write_atomic`], so it is whole or
//! absent. Frames are appended with one write and one fsync each, so a
//! crash leaves at most one partial frame, at the end: a frame whose
//! claimed extent reaches or passes end-of-file without sealing (short
//! length, short body, or a trailer mismatch with nothing after it) is a
//! *torn tail* — [`SealedLog::open`] cuts it off, [`SealedLog::load`]
//! reports it. A frame that fails its checksum with bytes *after* its
//! extent was sealed once and has rotted since: that is
//! [`CkptError::Corrupt`], never repaired in place. (A rotted length
//! field that points past end-of-file is indistinguishable from a torn
//! append and is treated as one.)

use crate::codec::{ByteReader, ByteWriter};
use crate::durable::{append_sync, truncate_sync, write_atomic, KillSwitch};
use crate::error::CkptError;
use crate::seal::{seal, unseal, TRAILER};
use std::fs::{self, File, OpenOptions};
use std::io::Read as _;
use std::ops::Range;
use std::path::{Path, PathBuf};

/// Width of a frame's length prefix.
const LEN_PREFIX: usize = 4;

/// The magic and schema version of one kind of log. Every kind the
/// workspace keeps is named here, so the on-disk identifiers live in one
/// place; a file of another kind is `Corrupt` ("bad magic"), a file of
/// this kind from an older build is [`CkptError::VersionMismatch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogFormat {
    magic: [u8; 8],
    version: u32,
}

impl LogFormat {
    /// The mutation write-ahead log of `gts-storage` (v1 was the
    /// whole-image-rewrite layout with a fixed header).
    pub const WAL: LogFormat = LogFormat {
        magic: *b"GTSWAL1\0",
        version: 2,
    };
    /// The service journal of `gts-serve` (v1–v2 were snapshot-per-flush
    /// directories, not logs).
    pub const JOURNAL: LogFormat = LogFormat {
        magic: *b"GTSJRNL\0",
        version: 3,
    };
}

fn encode_header(format: &LogFormat, binding: &[u8]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_raw(&format.magic);
    w.put_u32(format.version);
    w.put_bytes(binding);
    let mut header = w.into_bytes();
    seal(&mut header, 0);
    header
}

fn encode_frame(body: &[u8]) -> Result<Vec<u8>, CkptError> {
    let len = u32::try_from(body.len()).map_err(|_| CkptError::Corrupt {
        reason: format!(
            "a {}-byte frame body exceeds the u32 length prefix",
            body.len()
        ),
    })?;
    let mut frame = Vec::with_capacity(LEN_PREFIX + body.len() + TRAILER);
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(body);
    seal(&mut frame, LEN_PREFIX);
    Ok(frame)
}

/// A log file read into memory and validated: the binding, the sealed
/// frame bodies in order, and how many trailing bytes formed no frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogImage {
    raw: Vec<u8>,
    binding: Range<usize>,
    /// End offset of the header, then of every sealed frame.
    ends: Vec<usize>,
}

impl LogImage {
    fn parse(raw: Vec<u8>, format: &LogFormat) -> Result<LogImage, CkptError> {
        let mut r = ByteReader::new(&raw);
        if r.take_raw("log magic", format.magic.len())? != format.magic {
            return Err(CkptError::Corrupt {
                reason: "bad magic".to_string(),
            });
        }
        let found = r.take_u32("log version")?;
        if found != format.version {
            return Err(CkptError::VersionMismatch {
                found,
                expected: format.version,
            });
        }
        let binding_len = r.take_bytes("log binding")?.len();
        let binding_end = raw.len() - r.remaining();
        r.take_raw("log header checksum", TRAILER)?;
        let header_end = binding_end + TRAILER;
        unseal(&raw[..header_end]).map_err(|e| CkptError::Corrupt {
            reason: format!("log header: {e}"),
        })?;

        let mut ends = vec![header_end];
        let mut pos = header_end;
        while pos < raw.len() {
            let rest = &raw[pos..];
            // A frame that does not fit in what is left of the file can
            // only be the torn tail.
            let Some(extent) = frame_extent(rest) else {
                break;
            };
            match unseal(&rest[LEN_PREFIX..extent]) {
                Ok(_) => {}
                Err(_) if extent == rest.len() => break,
                Err(e) => {
                    return Err(CkptError::Corrupt {
                        reason: format!(
                            "log frame {} at byte {pos}: {e}; {} bytes follow it, so it is \
                             not a torn tail",
                            ends.len() - 1,
                            rest.len() - extent
                        ),
                    })
                }
            }
            pos += extent;
            ends.push(pos);
        }
        Ok(LogImage {
            binding: binding_end - binding_len..binding_end,
            ends,
            raw,
        })
    }

    /// The caller-supplied bytes the header binds the log to.
    pub fn binding(&self) -> &[u8] {
        &self.raw[self.binding.clone()]
    }

    /// The sealed frame bodies, oldest first.
    pub fn frames(&self) -> impl ExactSizeIterator<Item = &[u8]> {
        self.ends
            .windows(2)
            .map(|w| &self.raw[w[0] + LEN_PREFIX..w[1] - TRAILER])
    }

    /// Bytes at the end of the file that form no sealed frame (a torn
    /// append). [`SealedLog::open`] has already cut them off the file;
    /// [`SealedLog::load`] leaves them where they are.
    pub fn truncated_tail(&self) -> u64 {
        (self.raw.len() - self.sealed_len()) as u64
    }

    /// Bytes of header plus sealed frames.
    fn sealed_len(&self) -> usize {
        self.ends[self.ends.len() - 1]
    }
}

/// Bytes the frame at the start of `rest` claims (prefix + body +
/// trailer), or `None` when `rest` is too short to hold that much.
fn frame_extent(rest: &[u8]) -> Option<usize> {
    let len = ByteReader::new(rest).take_u32("frame length").ok()?;
    let extent = (LEN_PREFIX as u64) + u64::from(len) + (TRAILER as u64);
    usize::try_from(extent).ok().filter(|&e| e <= rest.len())
}

/// An open sealed-record log: appends are one write plus one fsync of
/// the new frame, never a rewrite of what is already sealed.
#[derive(Debug)]
pub struct SealedLog {
    path: PathBuf,
    file: File,
    /// End offset of the header, then of every sealed frame; the last is
    /// the sealed length of the file.
    ends: Vec<usize>,
    /// Asked before every durable step this log takes.
    kill: KillSwitch,
}

impl SealedLog {
    /// Start a log at `path` holding only a header that carries
    /// `binding`, replacing whatever was there (crash-atomically) and
    /// creating the parent directory if needed. `kill` gates this and
    /// every later durable step of the log.
    pub fn create(
        path: &Path,
        format: &LogFormat,
        binding: &[u8],
        kill: KillSwitch,
    ) -> Result<SealedLog, CkptError> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir).map_err(|e| CkptError::io("create", dir, &e))?;
        }
        let header = encode_header(format, binding);
        write_atomic(&kill, path, &header)?;
        Ok(SealedLog {
            path: path.to_path_buf(),
            file: open_for_append(path)?,
            ends: vec![header.len()],
            kill,
        })
    }

    /// Open the log at `path` for appending and return what it holds. A
    /// torn tail is cut off the file (and the cut fsynced) before this
    /// returns; interior corruption is an error and leaves the file
    /// untouched. `kill` gates the cut and every later durable step.
    pub fn open(
        path: &Path,
        format: &LogFormat,
        kill: KillSwitch,
    ) -> Result<(SealedLog, LogImage), CkptError> {
        let mut file = open_for_append(path)?;
        let mut raw = Vec::new();
        file.read_to_end(&mut raw)
            .map_err(|e| CkptError::io("read", path, &e))?;
        let image = LogImage::parse(raw, format)?;
        if image.truncated_tail() > 0 {
            truncate_sync(&kill, &file, path, image.sealed_len() as u64)?;
        }
        let log = SealedLog {
            path: path.to_path_buf(),
            file,
            ends: image.ends.clone(),
            kill,
        };
        Ok((log, image))
    }

    /// Read and validate the log at `path` without modifying it — the
    /// offline-verifier entry point.
    pub fn load(path: &Path, format: &LogFormat) -> Result<LogImage, CkptError> {
        let raw = fs::read(path).map_err(|e| CkptError::io("read", path, &e))?;
        LogImage::parse(raw, format)
    }

    /// Sealed bytes in the log: the header plus every sealed frame.
    pub fn sealed_len(&self) -> u64 {
        self.ends[self.ends.len() - 1] as u64
    }

    /// Seal `body` into one frame at the end of the log and fsync it
    /// before returning. Returns the frame's size on disk.
    pub fn append(&mut self, body: &[u8]) -> Result<u64, CkptError> {
        let frame = encode_frame(body)?;
        if let Err(e) = append_sync(&self.kill, &mut self.file, &self.path, &frame) {
            // Best effort: do not leave a partial frame for the next
            // append to land behind. (A dead process cleans up nothing.)
            if !matches!(e, CkptError::InjectedCrash { .. }) {
                let _ = self.file.set_len(self.sealed_len());
            }
            return Err(e);
        }
        self.ends.push(self.ends[self.ends.len() - 1] + frame.len());
        Ok(frame.len() as u64)
    }

    /// Drop the last sealed frame from the file (fsynced) — the rollback
    /// of an append whose effect was refused. A log with no frames is
    /// left as it is.
    pub fn truncate_last(&mut self) -> Result<(), CkptError> {
        if self.ends.len() > 1 {
            self.ends.pop();
            truncate_sync(&self.kill, &self.file, &self.path, self.sealed_len())?;
        }
        Ok(())
    }
}

fn open_for_append(path: &Path) -> Result<File, CkptError> {
    OpenOptions::new()
        .read(true)
        .append(true)
        .open(path)
        .map_err(|e| CkptError::io("open", path, &e))
}
