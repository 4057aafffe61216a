//! The on-disk checkpoint store: atomic writes plus a manifest that lets
//! resume fall back past torn snapshots.
//!
//! Write protocol: the encoded snapshot goes to `ckpt-<seq>.snap`
//! through [`write_atomic`], then `MANIFEST` is rewritten the same way,
//! naming snapshots newest-first.
//!
//! A crash between any two steps leaves either the previous manifest
//! (pointing at the previous snapshot) or the new manifest (pointing at a
//! fully synced new snapshot) — never a manifest whose first entry is a
//! half-written file. Defense in depth: even if a filesystem reorders the
//! writes, every snapshot carries a whole-file FNV-1a checksum, and
//! [`CkptStore::load_latest`] skips entries that fail it.
//!
//! Retention is two snapshots: the newest plus one fallback. Older files
//! are unlinked after the manifest stops naming them.

use crate::durable::{write_atomic, KillSwitch};
use crate::error::CkptError;
use crate::snapshot::Snapshot;
use std::fs;
use std::path::{Path, PathBuf};

const MANIFEST: &str = "MANIFEST";
const MANIFEST_HEADER: &str = "GTS-CKPT-MANIFEST v1";
/// Newest snapshot plus one fallback for the torn-write path.
const RETAIN: usize = 2;

/// A directory of checkpoints managed through an atomic manifest.
#[derive(Debug, Clone)]
pub struct CkptStore {
    dir: PathBuf,
    /// Asked before every durable step this store takes.
    kill: KillSwitch,
}

impl CkptStore {
    /// Open (creating if needed) a checkpoint directory.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, CkptError> {
        Self::open_with(dir, KillSwitch::never())
    }

    /// [`CkptStore::open`] with `kill` gating every durable step.
    pub fn open_with(dir: impl Into<PathBuf>, kill: KillSwitch) -> Result<Self, CkptError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| CkptError::io("create", &dir, &e))?;
        Ok(Self { dir, kill })
    }

    /// The directory this store manages.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn snapshot_name(seq: u64) -> String {
        format!("ckpt-{seq:010}.snap")
    }

    fn parse_seq(name: &str) -> Option<u64> {
        name.strip_prefix("ckpt-")?
            .strip_suffix(".snap")?
            .parse()
            .ok()
    }

    /// Atomically write `snap` as sequence number `seq` (the sweep it
    /// resumes into) and publish it in the manifest. Returns the encoded
    /// snapshot size in bytes.
    pub fn write(&self, seq: u64, snap: &Snapshot) -> Result<u64, CkptError> {
        let bytes = snap.encode();
        let name = Self::snapshot_name(seq);
        write_atomic(&self.kill, &self.dir.join(&name), &bytes)?;
        self.publish(&name)?;
        Ok(bytes.len() as u64)
    }

    /// Load the newest snapshot that decodes and checksums cleanly,
    /// walking the manifest newest-first past torn entries. Returns the
    /// sequence number it was written under alongside the snapshot.
    pub fn load_latest(&self) -> Result<(u64, Snapshot), CkptError> {
        self.load_latest_with_skipped()
            .map(|(seq, snap, _)| (seq, snap))
    }

    /// [`CkptStore::load_latest`], surfacing the fallback: the third
    /// element names every newer manifest entry that was skipped as
    /// missing, torn, or corrupt before an intact snapshot decoded.
    /// Callers that recover should report these (the `gts fsck`
    /// verifier and the engine's `ckpt.manifest.skipped` counter do) —
    /// a skipped entry means real damage on disk, silently walked past.
    pub fn load_latest_with_skipped(&self) -> Result<(u64, Snapshot, Vec<String>), CkptError> {
        let manifest = self.dir.join(MANIFEST);
        let text = match fs::read_to_string(&manifest) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(CkptError::NoSnapshot {
                    dir: self.dir.clone(),
                })
            }
            Err(e) => return Err(CkptError::io("read", &manifest, &e)),
        };
        let entries: Vec<&str> = text
            .lines()
            .skip(1) // header
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .collect();
        if !text.starts_with(MANIFEST_HEADER) {
            return Err(CkptError::Corrupt {
                reason: "manifest header missing or unrecognized".to_string(),
            });
        }
        if entries.is_empty() {
            return Err(CkptError::NoSnapshot {
                dir: self.dir.clone(),
            });
        }
        let mut skipped = Vec::new();
        for name in &entries {
            let path = self.dir.join(name);
            let Ok(bytes) = fs::read(&path) else {
                // Missing file: fall back to the next entry.
                skipped.push((*name).to_string());
                continue;
            };
            let Ok(snap) = Snapshot::decode(&bytes) else {
                // Torn or corrupt: fall back to the next entry.
                skipped.push((*name).to_string());
                continue;
            };
            let Some(seq) = Self::parse_seq(name) else {
                skipped.push((*name).to_string());
                continue;
            };
            return Ok((seq, snap, skipped));
        }
        Err(CkptError::Corrupt {
            reason: format!(
                "all {} manifest entries are unreadable or torn",
                entries.len()
            ),
        })
    }

    /// Prepend `name` to the manifest, trim to the retention window, and
    /// unlink snapshots that fell out of it.
    fn publish(&self, name: &str) -> Result<(), CkptError> {
        let mut entries = self.manifest_entries();
        entries.retain(|e| e != name);
        entries.insert(0, name.to_string());
        let dropped: Vec<String> = entries.split_off(entries.len().min(RETAIN));
        let mut text = String::from(MANIFEST_HEADER);
        text.push('\n');
        for e in &entries {
            text.push_str(e);
            text.push('\n');
        }
        write_atomic(&self.kill, &self.dir.join(MANIFEST), text.as_bytes())?;
        for e in dropped {
            // Best effort: a leftover unreferenced file is dead weight,
            // not a correctness problem.
            self.kill.step()?;
            let _ = fs::remove_file(self.dir.join(e));
        }
        Ok(())
    }

    fn manifest_entries(&self) -> Vec<String> {
        fs::read_to_string(self.dir.join(MANIFEST))
            .map(|t| {
                t.lines()
                    .skip(1)
                    .map(str::trim)
                    .filter(|l| !l.is_empty())
                    .map(str::to_string)
                    .collect()
            })
            .unwrap_or_default()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests panic on failure by design
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("gts-ckpt-test-{}-{tag}-{n}", std::process::id()))
    }

    /// Rot the published snapshot `seq` down to its first half — the
    /// manifest still names it.
    fn tear(store: &CkptStore, seq: u64) {
        let path = store.dir().join(CkptStore::snapshot_name(seq));
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
    }

    fn snap(marker: u8) -> Snapshot {
        let mut s = Snapshot::new(1);
        s.insert("clock", vec![marker; 16]);
        s.insert("program", vec![marker ^ 0xFF; 64]);
        s
    }

    #[test]
    fn write_then_load_round_trips() {
        let store = CkptStore::open(tmp_dir("roundtrip")).unwrap();
        let bytes = store.write(4, &snap(4)).unwrap();
        assert!(bytes > 0);
        let (seq, loaded) = store.load_latest().unwrap();
        assert_eq!(seq, 4);
        assert_eq!(loaded, snap(4));
    }

    #[test]
    fn newest_snapshot_wins() {
        let store = CkptStore::open(tmp_dir("newest")).unwrap();
        store.write(2, &snap(2)).unwrap();
        store.write(4, &snap(4)).unwrap();
        let (seq, loaded) = store.load_latest().unwrap();
        assert_eq!(seq, 4);
        assert_eq!(loaded, snap(4));
    }

    #[test]
    fn torn_newest_falls_back_to_previous() {
        let store = CkptStore::open(tmp_dir("torn")).unwrap();
        store.write(2, &snap(2)).unwrap();
        store.write(4, &snap(4)).unwrap();
        tear(&store, 4);
        // The manifest's first entry is the torn file; load must skip it.
        let (seq, loaded) = store.load_latest().unwrap();
        assert_eq!(seq, 2);
        assert_eq!(loaded, snap(2));
    }

    #[test]
    fn skipped_manifest_entries_are_surfaced_by_name() {
        let store = CkptStore::open(tmp_dir("skipped")).unwrap();
        store.write(2, &snap(2)).unwrap();
        store.write(4, &snap(4)).unwrap();
        tear(&store, 4);
        let (seq, loaded, skipped) = store.load_latest_with_skipped().unwrap();
        assert_eq!(seq, 2);
        assert_eq!(loaded, snap(2));
        assert_eq!(skipped, vec!["ckpt-0000000004.snap".to_string()]);

        // A hand-corrupted newest entry (not just a truncated one) is
        // surfaced the same way: real damage, silently walked past.
        let store = CkptStore::open(tmp_dir("corrupted")).unwrap();
        store.write(1, &snap(1)).unwrap();
        store.write(2, &snap(2)).unwrap();
        fs::write(store.dir().join("ckpt-0000000002.snap"), b"JUNK").unwrap();
        let (seq, loaded, skipped) = store.load_latest_with_skipped().unwrap();
        assert_eq!((seq, loaded), (1, snap(1)));
        assert_eq!(skipped, vec!["ckpt-0000000002.snap".to_string()]);
    }

    #[test]
    fn all_entries_torn_is_a_typed_corrupt_error() {
        let store = CkptStore::open(tmp_dir("alltorn")).unwrap();
        store.write(1, &snap(1)).unwrap();
        tear(&store, 1);
        assert!(matches!(
            store.load_latest(),
            Err(CkptError::Corrupt { .. })
        ));
    }

    /// A checkpoint write is eight steps (snapshot, then manifest, each
    /// tmp-write · fsync · rename · dir-fsync) plus one unlink per retired
    /// snapshot, and a kill at any of them leaves `load_latest` on the
    /// previous snapshot until the manifest's rename and on the new one
    /// from then on — never on nothing.
    #[test]
    fn a_kill_at_every_step_of_a_write_leaves_old_or_new() {
        let steps = {
            let kill = KillSwitch::never();
            let store = CkptStore::open_with(tmp_dir("steps"), kill.clone()).unwrap();
            store.write(1, &snap(1)).unwrap();
            store.write(2, &snap(2)).unwrap();
            assert_eq!(kill.steps(), 16);
            store.write(3, &snap(3)).unwrap();
            kill.steps() - 16
        };
        assert_eq!(steps, 9, "eight steps plus the unlink of snapshot 1");
        for k in 0..steps {
            let dir = tmp_dir("kill");
            let store = CkptStore::open(&dir).unwrap();
            store.write(1, &snap(1)).unwrap();
            store.write(2, &snap(2)).unwrap();
            let dying = CkptStore::open_with(&dir, KillSwitch::at(k)).unwrap();
            assert!(matches!(
                dying.write(3, &snap(3)),
                Err(CkptError::InjectedCrash { step }) if step == k
            ));
            let (seq, loaded, skipped) = store.load_latest_with_skipped().unwrap();
            let want = if k <= 6 { 2 } else { 3 };
            assert_eq!((seq, loaded), (want, snap(want as u8)), "step {k}");
            assert!(
                skipped.is_empty(),
                "step {k}: a kill never publishes damage"
            );
        }
    }

    #[test]
    fn empty_dir_reports_no_snapshot() {
        let dir = tmp_dir("empty");
        let store = CkptStore::open(&dir).unwrap();
        assert_eq!(
            store.load_latest().unwrap_err(),
            CkptError::NoSnapshot { dir }
        );
    }

    #[test]
    fn retention_keeps_exactly_two_snapshots() {
        let store = CkptStore::open(tmp_dir("retain")).unwrap();
        for seq in 1..=5 {
            store.write(seq, &snap(seq as u8)).unwrap();
        }
        let mut snaps: Vec<String> = fs::read_dir(store.dir())
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".snap"))
            .collect();
        snaps.sort();
        assert_eq!(
            snaps,
            vec!["ckpt-0000000004.snap", "ckpt-0000000005.snap"],
            "only the newest two snapshots should survive retention"
        );
        // And the fallback still loads if the newest is destroyed.
        fs::remove_file(store.dir().join("ckpt-0000000005.snap")).unwrap();
        let (seq, _) = store.load_latest().unwrap();
        assert_eq!(seq, 4);
    }

    #[test]
    fn error_displays_render_context_fields() {
        let cases: Vec<(CkptError, &[&str])> = vec![
            (
                CkptError::Io {
                    op: "rename",
                    path: PathBuf::from("/ckpt/x.snap"),
                    source: "permission denied".into(),
                },
                &["rename", "/ckpt/x.snap", "permission denied"],
            ),
            (
                CkptError::Corrupt {
                    reason: "checksum mismatch".into(),
                },
                &["corrupt", "checksum mismatch"],
            ),
            (
                CkptError::Truncated {
                    what: "sim clock",
                    need: 8,
                    have: 3,
                },
                &["sim clock", "8", "3"],
            ),
            (
                CkptError::VersionMismatch {
                    found: 9,
                    expected: 1,
                },
                &["9", "1"],
            ),
            (
                CkptError::MissingSection { name: "rng".into() },
                &["\"rng\""],
            ),
            (
                CkptError::NoSnapshot {
                    dir: PathBuf::from("/ckpts"),
                },
                &["/ckpts"],
            ),
            (
                CkptError::Mismatch {
                    what: "store fingerprint",
                    want: 0xAB,
                    got: 0xCD,
                },
                &[
                    "store fingerprint",
                    "0x00000000000000ab",
                    "0x00000000000000cd",
                ],
            ),
        ];
        for (err, needles) in cases {
            let msg = err.to_string();
            for needle in needles {
                assert!(
                    msg.contains(needle),
                    "Display for {err:?} lost context: {msg:?} missing {needle:?}"
                );
            }
            assert!(
                !msg.contains("{ "),
                "Display for {err:?} leaks Debug formatting: {msg:?}"
            );
        }
    }
}
