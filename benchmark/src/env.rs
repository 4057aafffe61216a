//! What the numbers were measured on: cores, toolchain, commit, the
//! filesystem behind the durable directories, and the process's peak
//! resident set.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Cores this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// First line of a command's standard output, or "unknown".
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn rustc_version() -> String {
    first_line("rustc", &["--version"])
}

/// The commit measured ("unknown" outside a git checkout).
pub fn commit_hash() -> String {
    first_line("git", &["rev-parse", "HEAD"])
}

/// Filesystem type holding `dir`, from the longest matching mount point
/// in `/proc/mounts` ("unknown" where that file does not exist).
pub fn filesystem_of(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut it = line.split_whitespace();
            let (_, mount, fstype) = (it.next()?, it.next()?, it.next()?);
            dir.starts_with(mount).then_some((mount.len(), fstype))
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".to_string(), |(_, t)| t.to_string())
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A directory for WAL, journal and checkpoint files that is removed
/// again when dropped. Every `fsync` the measured code issues lands on
/// the filesystem behind it.
pub struct DurableDir {
    root: PathBuf,
    next: u32,
}

impl DurableDir {
    /// `<parent>/durable-<pid>`, emptied.
    pub fn create(parent: &Path) -> std::io::Result<DurableDir> {
        let root = parent.join(format!("durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(DurableDir { root, next: 0 })
    }

    pub fn root(&self) -> &Path {
        &self.root
    }

    /// A fresh, not yet existing sub-path (`<tag>-<n>`).
    pub fn fresh(&mut self, tag: &str) -> PathBuf {
        self.next += 1;
        self.root.join(format!("{tag}-{}", self.next))
    }
}

impl Drop for DurableDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}
