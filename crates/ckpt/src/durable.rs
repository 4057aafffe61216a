//! Every durable write in the workspace: the only module that calls
//! `sync_all` or `rename`, and therefore the only place a crash can be
//! injected.
//!
//! Two disciplines, one per file shape. A file that is replaced whole
//! (snapshots, the manifest, a fresh log header, a saved page store) goes
//! through [`replace_streamed`], of which [`write_atomic`] is the
//! one-buffer call; a file that grows (a [`SealedLog`](crate::SealedLog))
//! goes through [`append_sync`] / [`truncate_sync`] on one open handle.
//! The directory either lives in is made by [`create_dir_synced`].
//!
//! Each primitive is a fixed sequence of *steps* — the syscalls whose
//! effect a later process can observe — and asks its [`KillSwitch`]
//! before every one. Recovery sees a crash only through the bytes it
//! left on disk, and bytes reach disk only here, so numbering these
//! steps numbers every crash the system can suffer (DESIGN.md "Crash
//! model").

use crate::error::CkptError;
use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
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

/// Replace `path` with `bytes` crash-atomically: [`replace_streamed`]
/// of one buffer.
pub(crate) fn write_atomic(kill: &KillSwitch, path: &Path, bytes: &[u8]) -> Result<(), CkptError> {
    replace_streamed(kill, path, bytes.len() as u64, |w| w.write_all(bytes))
}

/// Replace `path` crash-atomically with the `len` bytes `fill` writes, in
/// four steps: stream them to `<path>.tmp`, fsync it, rename it over
/// `path`, fsync the directory. A crash at any step leaves either the old
/// file or the new one, never a mixture. The bytes pass through a small
/// buffer, never a whole-file one. `fill` must write exactly `len` bytes
/// (a write killed in its step lands the first half of them).
pub fn replace_streamed(
    kill: &KillSwitch,
    path: &Path,
    len: u64,
    fill: impl FnOnce(&mut dyn Write) -> io::Result<()>,
) -> Result<(), CkptError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = Path::new(&tmp);
    {
        let (n, after) = kill.write_step(len as usize)?;
        let f = File::create(tmp).map_err(|e| CkptError::io("create", tmp, &e))?;
        let mut w = Prefix {
            inner: BufWriter::new(f),
            keep: n as u64,
            seen: 0,
        };
        let wrote = fill(&mut w).and_then(|()| {
            if w.seen != len {
                return Err(io::Error::other(format!("wrote {} of {len} bytes", w.seen)));
            }
            w.inner.flush()
        });
        wrote.map_err(|e| CkptError::io("write", tmp, &e))?;
        let f = w.inner.get_ref();
        after?;
        kill.step()?;
        f.sync_all().map_err(|e| CkptError::io("fsync", tmp, &e))?;
    }
    kill.step()?;
    fs::rename(tmp, path).map_err(|e| CkptError::io("rename", path, &e))?;
    // Persisting a rename requires fsyncing the containing directory.
    kill.step()?;
    sync_parent(path)
}

/// Create `dir` and each missing ancestor, fsyncing every new directory's
/// parent so that its entry survives a power loss as a renamed file's
/// does. An existing `dir` is left as it is.
///
/// This is not a kill step. A kill never rolls the page cache back
/// ([`KillSwitch`]), so a directory made before one is there after it,
/// and numbering this call would only shift every later step. A model
/// disk that drops unsynced directory entries (ROADMAP item 7(a)) is what
/// would make it one, and let a harness drop its fsync.
pub(crate) fn create_dir_synced(dir: &Path) -> Result<(), CkptError> {
    let missing: Vec<&Path> = dir
        .ancestors()
        .take_while(|d| !d.as_os_str().is_empty() && !d.is_dir())
        .collect();
    for d in missing.into_iter().rev() {
        if let Err(e) = fs::create_dir(d) {
            if !(e.kind() == io::ErrorKind::AlreadyExists && d.is_dir()) {
                return Err(CkptError::io("create", d, &e));
            }
        }
        sync_parent(d)?;
    }
    Ok(())
}

/// Fsync the directory holding `path`, which persists a new or renamed
/// entry there. Some platforms refuse to open directories; that is a soft
/// failure (the entry's own bytes are already synced). A directory that
/// opens but fails to sync is an error like any other fsync's.
fn sync_parent(path: &Path) -> Result<(), CkptError> {
    let dir = match path.parent() {
        Some(dir) if dir.as_os_str().is_empty() => Path::new("."),
        Some(dir) => dir,
        None => return Ok(()),
    };
    if let Ok(d) = File::open(dir) {
        d.sync_all().map_err(|e| CkptError::io("fsync", dir, &e))?;
    }
    Ok(())
}

/// A writer that passes on the first `keep` bytes and drops the rest (a
/// process killed mid-write), counting every byte it was handed.
struct Prefix<W> {
    inner: W,
    keep: u64,
    seen: u64,
}

impl<W: Write> Write for Prefix<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let pass = (self.keep.saturating_sub(self.seen) as usize).min(buf.len());
        self.inner.write_all(&buf[..pass])?;
        self.seen += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
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

    /// A streamed replace in many small writes is crash-atomic at each of
    /// its four steps: `path` holds the old bytes until the rename and
    /// the new ones from it on, never a mixture, and the count of durable
    /// steps is `write_atomic`'s.
    #[test]
    fn streamed_replace_leaves_old_or_new_bytes_at_every_step() {
        let new: Vec<u8> = (0..50_000u32).map(|i| (i % 251) as u8).collect();
        let fill = |w: &mut dyn Write| new.chunks(997).try_for_each(|c| w.write_all(c));
        for k in 0..4 {
            let path = tmp_path(&format!("streamed-{k}"));
            fs::write(&path, b"old").unwrap();
            let kill = KillSwitch::at(k);
            let got = replace_streamed(&kill, &path, new.len() as u64, fill);
            assert_eq!(got, Err(CkptError::InjectedCrash { step: k }));
            let want: &[u8] = if k < 3 { b"old" } else { &new };
            assert_eq!(fs::read(&path).unwrap(), want, "step {k}");
            if k == 0 {
                let torn = fs::read(path.with_extension("tmp")).unwrap();
                assert_eq!(torn, new[..new.len() / 2], "step 0 lands half");
            }
        }
        let path = tmp_path("streamed-count");
        let kill = KillSwitch::never();
        replace_streamed(&kill, &path, new.len() as u64, fill).unwrap();
        assert_eq!((kill.steps(), fs::read(&path).unwrap()), (4, new.clone()));
        // A fill that writes other than it declared is refused, the
        // target untouched.
        let short = replace_streamed(&kill, &path, 9, |w| w.write_all(b"eight b"));
        assert!(
            matches!(short, Err(CkptError::Io { op: "write", .. })),
            "{short:?}"
        );
        assert_eq!(fs::read(&path).unwrap(), new);
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

    /// A nested missing directory is made whole and an existing one is
    /// left alone; neither is a durable step of the store that asks.
    #[test]
    fn a_new_directory_is_made_with_its_ancestors_and_asks_no_step() {
        let root = tmp_path("mkdir").with_file_name("nested");
        let deep = root.join("a").join("b");
        let kill = KillSwitch::never();
        crate::CkptStore::open_with(&deep, kill.clone()).unwrap();
        assert!(deep.is_dir());
        crate::CkptStore::open_with(&deep, kill.clone()).unwrap();
        create_dir_synced(&deep).unwrap();
        assert_eq!(kill.steps(), 0);
        // A file in the way is an error, not a directory.
        let file = root.join("file");
        fs::write(&file, b"x").unwrap();
        let err = create_dir_synced(&file.join("c")).unwrap_err();
        assert!(matches!(err, CkptError::Io { op: "create", .. }), "{err:?}");
    }
}
