//! Typed errors of everything this crate reads and writes.

use std::fmt;
use std::path::PathBuf;

/// Everything that can go wrong while writing, reading, or decoding a
/// snapshot or a sealed log. Every variant carries enough context to act on without a
/// debugger; the `Display` impls are the user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CkptError {
    /// A filesystem operation failed.
    Io {
        /// What we were doing ("create", "write", "rename", ...).
        op: &'static str,
        /// The path involved.
        path: PathBuf,
        /// The OS error, stringified.
        source: String,
    },
    /// Bytes failed structural validation (bad magic, checksum mismatch,
    /// malformed section table, a rotted log frame).
    Corrupt {
        /// What exactly failed to validate.
        reason: String,
    },
    /// A bounds-checked read ran off the end of the data.
    Truncated {
        /// The field being decoded.
        what: &'static str,
        /// Bytes the field needs.
        need: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// The file was written by an incompatible schema version.
    VersionMismatch {
        /// Version found in the file's header.
        found: u32,
        /// Version this build expects.
        expected: u32,
    },
    /// A section the decoder requires is absent from the snapshot.
    MissingSection {
        /// The section name.
        name: String,
    },
    /// There is nothing to resume from: no manifest in the directory.
    NoSnapshot {
        /// The checkpoint directory searched.
        dir: PathBuf,
    },
    /// The snapshot belongs to a different run setup (graph store or
    /// engine config fingerprint differs).
    Mismatch {
        /// Which fingerprint disagreed ("store fingerprint", ...).
        what: &'static str,
        /// Fingerprint of the current run.
        want: u64,
        /// Fingerprint recorded in the snapshot.
        got: u64,
    },
    /// An armed [`KillSwitch`](crate::KillSwitch) fired: the process
    /// "died" at this durable step, which was torn (a write) or withheld
    /// (anything else), as was every step after it.
    InjectedCrash {
        /// The 0-based durable step the switch was armed for.
        step: u64,
    },
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Io { op, path, source } => {
                write!(f, "{op} failed for {}: {source}", path.display())
            }
            CkptError::Corrupt { reason } => write!(f, "corrupt data: {reason}"),
            CkptError::Truncated { what, need, have } => write!(
                f,
                "truncated data: {what} needs {need} bytes, {have} available"
            ),
            CkptError::VersionMismatch { found, expected } => write!(
                f,
                "schema version {found} is not supported (this build expects {expected})"
            ),
            CkptError::MissingSection { name } => {
                write!(f, "checkpoint is missing required section \"{name}\"")
            }
            CkptError::NoSnapshot { dir } => {
                write!(f, "no checkpoint to resume from in {}", dir.display())
            }
            CkptError::Mismatch { what, want, got } => write!(
                f,
                "checkpoint {what} mismatch: snapshot was taken with {got:#018x}, \
                 this run has {want:#018x}"
            ),
            CkptError::InjectedCrash { step } => {
                write!(f, "injected crash at durable step {step}")
            }
        }
    }
}

impl std::error::Error for CkptError {}

impl CkptError {
    /// Helper for wrapping `std::io::Error` with operation + path context.
    pub(crate) fn io(op: &'static str, path: &std::path::Path, e: &std::io::Error) -> Self {
        CkptError::Io {
            op,
            path: path.to_path_buf(),
            source: e.to_string(),
        }
    }
}
