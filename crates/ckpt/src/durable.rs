//! Every durable write in the workspace: the only module that calls
//! `sync_all` or `rename`, and therefore the only place a crash can be
//! injected.
//!
//! Two disciplines, one per file shape. A file that is replaced whole
//! (snapshots, the manifest, a fresh log header) goes through
//! [`write_atomic`]; a file that grows (a [`SealedLog`](crate::SealedLog))
//! goes through [`append_sync`] / [`truncate_sync`] on one open handle.
//!
//! Each primitive is a fixed sequence of *steps* — the syscalls whose
//! effect a later process can observe — and asks its [`KillSwitch`]
//! before every one. Recovery sees a crash only through the bytes it
//! left on disk, and bytes reach disk only here, so numbering these
//! steps numbers every crash the system can suffer (DESIGN.md "Crash
//! model").

use crate::error::CkptError;
use std::fs::{self, File};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Numbers the durable steps of everything that shares it and, when
/// armed, kills the process at one of them.
///
/// Steps count from 0 in the order they are asked for. An armed switch
/// lets steps `0..k` through; step `k` is where the process dies — a
/// write lands only the first half of its bytes, any other step is not
/// performed — and the call returns [`CkptError::InjectedCrash`]. The
/// switch stays fired: every later step is refused the same way and
/// touches nothing, because a dead process writes nothing. Bytes written
/// by earlier steps stay where they are, fsynced or not: a kill
/// withholds steps, it does not roll the page cache back.
///
/// Clones share one counter, so one switch can span a checkpoint store
/// and a log (one job) or a journal and a WAL (one service).
#[derive(Debug, Clone)]
pub struct KillSwitch {
    kill_at: Option<u64>,
    asked: Arc<AtomicU64>,
}

impl KillSwitch {
    /// A switch that counts steps and never fires.
    pub fn never() -> KillSwitch {
        KillSwitch {
            kill_at: None,
            asked: Arc::default(),
        }
    }

    /// A switch that kills the process at durable step `step` (0-based).
    pub fn at(step: u64) -> KillSwitch {
        KillSwitch {
            kill_at: Some(step),
            ..KillSwitch::never()
        }
    }

    /// Durable steps asked for so far, refused ones included.
    pub fn steps(&self) -> u64 {
        self.asked.load(Ordering::Relaxed)
    }

    /// Number the next step. `Ok`: perform it. `Err((crash, true))`: the
    /// process dies *in* this step. `Err((crash, false))`: it is already
    /// dead.
    fn ask(&self) -> Result<(), (CkptError, bool)> {
        let n = self.asked.fetch_add(1, Ordering::Relaxed);
        match self.kill_at {
            Some(k) if n >= k => Err((CkptError::InjectedCrash { step: k }, n == k)),
            _ => Ok(()),
        }
    }

    /// Gate a step that is performed whole or not at all.
    pub(crate) fn step(&self) -> Result<(), CkptError> {
        self.ask().map_err(|(crash, _)| crash)
    }

    /// Gate a write of `len` bytes: how many of them to write, and what
    /// to report once they are written.
    fn write_step(&self, len: usize) -> Result<(usize, Result<(), CkptError>), CkptError> {
        match self.ask() {
            Ok(()) => Ok((len, Ok(()))),
            Err((crash, true)) => Ok((len / 2, Err(crash))),
            Err((crash, false)) => Err(crash),
        }
    }
}

/// Replace `path` with `bytes` crash-atomically, in four steps: write
/// `<path>.tmp`, fsync it, rename it over `path`, fsync the directory. A
/// crash at any step leaves either the old file or the new one, never a
/// mixture.
pub(crate) fn write_atomic(kill: &KillSwitch, path: &Path, bytes: &[u8]) -> Result<(), CkptError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = Path::new(&tmp);
    {
        let (n, after) = kill.write_step(bytes.len())?;
        let mut f = File::create(tmp).map_err(|e| CkptError::io("create", tmp, &e))?;
        f.write_all(&bytes[..n])
            .map_err(|e| CkptError::io("write", tmp, &e))?;
        after?;
        kill.step()?;
        f.sync_all().map_err(|e| CkptError::io("fsync", tmp, &e))?;
    }
    kill.step()?;
    fs::rename(tmp, path).map_err(|e| CkptError::io("rename", path, &e))?;
    // Persisting a rename requires fsyncing the containing directory.
    // Some platforms refuse to open directories; treat that as a soft
    // failure rather than aborting the run (the data file itself is
    // already synced). A directory that opens but fails to sync is an
    // error like any other fsync's.
    kill.step()?;
    if let Some(dir) = path.parent() {
        if let Ok(d) = File::open(dir) {
            d.sync_all().map_err(|e| CkptError::io("fsync", dir, &e))?;
        }
    }
    Ok(())
}

/// Write `bytes` at the end of `file` (opened in append mode) and fsync
/// before returning: two steps.
pub(crate) fn append_sync(
    kill: &KillSwitch,
    file: &mut File,
    path: &Path,
    bytes: &[u8],
) -> Result<(), CkptError> {
    let (n, after) = kill.write_step(bytes.len())?;
    file.write_all(&bytes[..n])
        .map_err(|e| CkptError::io("append", path, &e))?;
    after?;
    kill.step()?;
    file.sync_all()
        .map_err(|e| CkptError::io("fsync", path, &e))
}

/// Cut `file` down to `len` bytes and fsync before returning: two steps.
pub(crate) fn truncate_sync(
    kill: &KillSwitch,
    file: &File,
    path: &Path,
    len: u64,
) -> Result<(), CkptError> {
    kill.step()?;
    file.set_len(len)
        .map_err(|e| CkptError::io("truncate", path, &e))?;
    kill.step()?;
    file.sync_all()
        .map_err(|e| CkptError::io("fsync", path, &e))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests panic on failure by design
mod tests {
    use super::*;

    fn tmp_path(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("gts-durable-{}-{tag}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        fs::create_dir_all(&dir).unwrap();
        dir.join("file")
    }

    /// What a kill at each of `write_atomic`'s four steps leaves behind:
    /// the old file until the rename, the new one from the rename on, and
    /// a half-written sibling only at step 0.
    #[test]
    fn write_atomic_is_four_steps_and_never_mixes_old_and_new() {
        let tmp_of = |p: &Path| p.with_extension("tmp");
        for (k, want_file, want_tmp) in [
            (0, &b"old"[..], Some(&b"new-"[..])),
            (1, b"old", Some(b"new-new!")),
            (2, b"old", Some(b"new-new!")),
            (3, b"new-new!", None),
        ] {
            let path = tmp_path(&format!("atomic-{k}"));
            write_atomic(&KillSwitch::never(), &path, b"old").unwrap();
            let kill = KillSwitch::at(k);
            assert_eq!(
                write_atomic(&kill, &path, b"new-new!"),
                Err(CkptError::InjectedCrash { step: k })
            );
            assert_eq!(fs::read(&path).unwrap(), want_file, "step {k}");
            assert_eq!(
                fs::read(tmp_of(&path)).ok().as_deref(),
                want_tmp,
                "step {k}"
            );
            // The switch stays fired and a dead process touches nothing.
            assert_eq!(
                write_atomic(&kill, &path, b"later"),
                Err(CkptError::InjectedCrash { step: k })
            );
            assert_eq!(fs::read(&path).unwrap(), want_file, "step {k}");
        }
        let path = tmp_path("atomic-count");
        let kill = KillSwitch::at(4);
        write_atomic(&kill, &path, b"whole").unwrap();
        assert_eq!(kill.steps(), 4);
    }

    #[test]
    fn append_and_truncate_are_two_steps_each() {
        let path = tmp_path("append");
        fs::write(&path, b"head").unwrap();
        let open = || {
            fs::OpenOptions::new()
                .read(true)
                .append(true)
                .open(&path)
                .unwrap()
        };
        // Step 0 tears the write; step 1 withholds only the fsync.
        assert!(append_sync(&KillSwitch::at(0), &mut open(), &path, b"12345678").is_err());
        assert_eq!(fs::read(&path).unwrap(), b"head1234");
        assert!(append_sync(&KillSwitch::at(1), &mut open(), &path, b"abcd").is_err());
        assert_eq!(fs::read(&path).unwrap(), b"head1234abcd");
        // Step 0 withholds the cut; step 1 only its fsync.
        assert!(truncate_sync(&KillSwitch::at(0), &open(), &path, 4).is_err());
        assert_eq!(fs::read(&path).unwrap().len(), 12);
        assert!(truncate_sync(&KillSwitch::at(1), &open(), &path, 4).is_err());
        assert_eq!(fs::read(&path).unwrap(), b"head");
        let kill = KillSwitch::never();
        append_sync(&kill, &mut open(), &path, b"x").unwrap();
        truncate_sync(&kill, &open(), &path, 4).unwrap();
        assert_eq!(kill.steps(), 4);
    }
}
