//! Every durable write in the workspace: the only module that calls
//! `sync_all` or `rename`.
//!
//! Two disciplines, one per file shape. A file that is replaced whole
//! (snapshots, the manifest, a fresh log header) goes through
//! [`write_atomic`]; a file that grows (a [`SealedLog`](crate::SealedLog))
//! goes through [`append_sync`] / [`truncate_sync`] on one open handle.

use crate::error::CkptError;
use std::fs::{self, File};
use std::io::Write as _;
use std::path::Path;

/// Replace `path` with `bytes` crash-atomically: write `<path>.tmp`,
/// fsync it, rename it over `path`, fsync the directory. A crash at any
/// step leaves either the old file or the new one, never a mixture.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), CkptError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = Path::new(&tmp);
    {
        let mut f = File::create(tmp).map_err(|e| CkptError::io("create", tmp, &e))?;
        f.write_all(bytes)
            .map_err(|e| CkptError::io("write", tmp, &e))?;
        f.sync_all().map_err(|e| CkptError::io("fsync", tmp, &e))?;
    }
    fs::rename(tmp, path).map_err(|e| CkptError::io("rename", path, &e))?;
    // Persisting a rename requires fsyncing the containing directory.
    // Some platforms refuse to open directories; treat that as a soft
    // failure rather than aborting the run (the data file itself is
    // already synced).
    if let Some(dir) = path.parent() {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Write `bytes` at the end of `file` (opened in append mode) and fsync
/// before returning.
pub(crate) fn append_sync(file: &mut File, path: &Path, bytes: &[u8]) -> Result<(), CkptError> {
    file.write_all(bytes)
        .map_err(|e| CkptError::io("append", path, &e))?;
    file.sync_all()
        .map_err(|e| CkptError::io("fsync", path, &e))
}

/// Cut `file` down to `len` bytes and fsync before returning.
pub(crate) fn truncate_sync(file: &File, path: &Path, len: u64) -> Result<(), CkptError> {
    file.set_len(len)
        .map_err(|e| CkptError::io("truncate", path, &e))?;
    file.sync_all()
        .map_err(|e| CkptError::io("fsync", path, &e))
}
