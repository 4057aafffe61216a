//! `gts fsck`, pinned through the binary: one case per finding it can
//! emit plus a clean set. Each case asserts the exit code, the artifact
//! of every finding in output order, and that fsck left every file it
//! was pointed at byte-for-byte unchanged.

use gts_ckpt::{CkptStore, Snapshot};
use gts_storage::{load_store, GraphStore, MutationBatch, Wal, WAL_FILE};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Run the `gts` binary: its exit code and stdout.
fn gts(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_gts"))
        .args(args)
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    let code = out.status.code().unwrap();
    (code, stdout)
}

/// `gts` that must succeed.
fn gts_ok(args: &[&str]) {
    let (code, stdout) = gts(args);
    assert_eq!(code, 0, "gts {args:?}: {stdout}");
}

/// Every file under `path` (the path itself when it is a file), by
/// path, with its bytes.
fn files(path: &Path, into: &mut BTreeMap<PathBuf, Vec<u8>>) {
    if path.is_dir() {
        for e in std::fs::read_dir(path).unwrap() {
            files(&e.unwrap().path(), into);
        }
    } else {
        into.insert(path.to_path_buf(), std::fs::read(path).unwrap());
    }
}

/// A copy of the flat directory `from` at `to`.
fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for e in std::fs::read_dir(from).unwrap() {
        let e = e.unwrap();
        std::fs::copy(e.path(), to.join(e.file_name())).unwrap();
    }
}

/// Flip one bit of the byte at `at` in `file`.
fn flip(file: &Path, at: usize) {
    let mut raw = std::fs::read(file).unwrap();
    raw[at] ^= 0x01;
    std::fs::write(file, raw).unwrap();
}

/// Cut the last `n` bytes off `file`: a torn last frame.
fn tear(file: &Path, n: usize) {
    let raw = std::fs::read(file).unwrap();
    std::fs::write(file, &raw[..raw.len() - n]).unwrap();
}

/// A log over `store` holding one record per batch, chained from the
/// store's epoch; returns the file length after each step (creation
/// first).
fn wal_with(dir: &Path, store: &GraphStore, batches: &[MutationBatch]) -> Vec<u64> {
    let mut wal = Wal::open(dir, store).unwrap();
    let mut ends = vec![std::fs::metadata(wal.path()).unwrap().len()];
    for (i, b) in batches.iter().enumerate() {
        let pre = store.epoch() + i as u64;
        wal.log_batch(b, pre, pre + 1).unwrap();
        ends.push(std::fs::metadata(wal.path()).unwrap().len());
    }
    ends
}

fn insert(src: u64, dst: u64) -> MutationBatch {
    let mut b = MutationBatch::new();
    b.insert(src, dst);
    b
}

/// One fsck case: its name, the store file, the `(flag, directory)`
/// pairs it is given, the exit code, and the artifact of every finding
/// in output order.
type Case<'a> = (
    &'a str,
    &'a str,
    &'a [(&'a str, &'a str)],
    i32,
    &'a [&'a str],
);

#[test]
fn every_fsck_finding_has_one_case() {
    let root = std::env::temp_dir().join(format!("gts-fsck-findings-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    std::fs::create_dir_all(&root).unwrap();
    let p = |name: &str| root.join(name);
    let s = |name: &str| p(name).to_string_lossy().into_owned();

    // Two stores of one graph: same vertices and edges, another page size.
    gts_ok(&[
        "generate",
        "--kind",
        "rmat",
        "--scale",
        "8",
        "--out",
        &s("g.el"),
    ]);
    let build = |out: &str, page: &str| {
        gts_ok(&[
            "build",
            "--graph",
            &s("g.el"),
            "--out",
            &s(out),
            "--page-size",
            page,
        ]);
    };
    build("s.gts", "4096");
    build("other.gts", "2048");
    let store = load_store(p("s.gts")).unwrap();

    // A live run's WAL (one record) and checkpoints, the newest taken
    // after the batch applied.
    gts_ok(&[
        "run",
        "pagerank",
        "--store",
        &s("s.gts"),
        "--iterations",
        "6",
        "--checkpoint-dir",
        &s("ck"),
        "--checkpoint-every",
        "1",
        "--wal-dir",
        &s("w"),
        "--mutate-at",
        "3",
        "--mutate-inserts",
        "32",
    ]);
    // Served journals with one epoch bump: `j` bound to its WAL, `j0`
    // kept without one.
    std::fs::write(
        p("jobs.wl"),
        "at=0    tenant=a job=bfs\n\
         at=1000 tenant=m job=bfs mutate-at=1 inserts=16 deletes=2 seed=5\n",
    )
    .unwrap();
    let (st, wl) = (s("s.gts"), s("jobs.wl"));
    let serve = |extra: &[&str]| {
        let mut argv = vec!["serve", "--store", &st, "--workload", &wl];
        argv.extend_from_slice(extra);
        gts_ok(&argv);
    };
    serve(&["--journal-dir", &s("j"), "--wal-dir", &s("ws")]);
    serve(&["--journal-dir", &s("j0")]);

    // WALs: torn, rotted inside the first of three records, based one
    // epoch past the store, holding a record the store refuses, empty.
    copy_dir(&p("w"), &p("w-torn"));
    tear(&p("w-torn").join(WAL_FILE), 3);
    let ends = wal_with(
        &p("w-rot"),
        &store,
        &[insert(0, 1), insert(1, 2), insert(2, 3)],
    );
    flip(
        &p("w-rot").join(WAL_FILE),
        ((ends[0] + ends[1]) / 2) as usize,
    );
    let mut ahead = store.clone();
    ahead.apply_mutations(&insert(0, 1)).unwrap();
    wal_with(&p("w-base"), &ahead, &[]);
    wal_with(&p("w-bad"), &store, &[insert(store.num_vertices() + 7, 0)]);
    wal_with(&p("w-empty"), &store, &[]);

    // Checkpoints: the newest entry rotted (fsck falls back past it),
    // and a lone snapshot of another schema.
    copy_dir(&p("ck"), &p("ck-skip"));
    let manifest = std::fs::read_to_string(p("ck-skip").join("MANIFEST")).unwrap();
    let newest = p("ck-skip").join(manifest.lines().nth(1).unwrap().trim());
    flip(
        &newest,
        std::fs::metadata(&newest).unwrap().len() as usize / 2,
    );
    CkptStore::open(p("ck-bad"))
        .unwrap()
        .write(1, &Snapshot::new(1))
        .unwrap();

    // Journals: a rotted header, a torn last frame.
    copy_dir(&p("j0"), &p("j-rot"));
    flip(&p("j-rot").join("journal.log"), 16);
    copy_dir(&p("j0"), &p("j-torn"));
    tear(&p("j-torn").join("journal.log"), 3);

    let cases: &[Case] = &[
        (
            "clean",
            "s.gts",
            &[
                ("--wal-dir", "w"),
                ("--checkpoint-dir", "ck"),
                ("--journal-dir", "j"),
            ],
            0,
            &[],
        ),
        (
            "wal torn tail",
            "s.gts",
            &[("--wal-dir", "w-torn")],
            4,
            &["wal"],
        ),
        (
            "wal rotted record",
            "s.gts",
            &[("--wal-dir", "w-rot")],
            4,
            &["wal"],
        ),
        (
            "wal of another store",
            "other.gts",
            &[("--wal-dir", "w")],
            4,
            &["wal"],
        ),
        (
            "wal base epoch",
            "s.gts",
            &[("--wal-dir", "w-base")],
            4,
            &["wal"],
        ),
        (
            "wal record refused",
            "s.gts",
            &[("--wal-dir", "w-bad")],
            4,
            &["wal"],
        ),
        (
            "checkpoint entry skipped",
            "s.gts",
            &[("--checkpoint-dir", "ck-skip")],
            4,
            &["checkpoint"],
        ),
        (
            "checkpoint snapshot undecodable",
            "s.gts",
            &[("--checkpoint-dir", "ck-bad")],
            4,
            &["checkpoint"],
        ),
        (
            "checkpoint unreachable through the log",
            "s.gts",
            &[("--wal-dir", "w-empty"), ("--checkpoint-dir", "ck")],
            4,
            &["checkpoint"],
        ),
        (
            "journal undecodable",
            "s.gts",
            &[("--journal-dir", "j-rot")],
            4,
            &["journal"],
        ),
        (
            "journal torn tail",
            "s.gts",
            &[("--journal-dir", "j-torn")],
            4,
            &["journal"],
        ),
        (
            "journal of another store",
            "other.gts",
            &[("--journal-dir", "j0")],
            4,
            &["journal"],
        ),
        (
            "journal WAL binding",
            "s.gts",
            &[("--journal-dir", "j"), ("--wal-dir", "w-base")],
            4,
            &["wal", "journal", "journal"],
        ),
        (
            "journal epoch outside the chain",
            "s.gts",
            &[("--journal-dir", "j"), ("--wal-dir", "w-empty")],
            4,
            &["journal"],
        ),
        (
            "journal binds a WAL, none given",
            "s.gts",
            &[("--journal-dir", "j")],
            4,
            &["journal"],
        ),
    ];
    for &(name, st, dirs, want_code, want) in cases {
        let mut argv = vec!["fsck".to_string(), "--store".into(), s(st)];
        let mut before = BTreeMap::new();
        files(&p(st), &mut before);
        for &(flag, dir) in dirs {
            argv.extend([flag.to_string(), s(dir)]);
            files(&p(dir), &mut before);
        }
        let argv: Vec<&str> = argv.iter().map(String::as_str).collect();
        let (code, stdout) = gts(&argv);
        assert_eq!(code, want_code, "{name}: {stdout}");
        let found: Vec<&str> = stdout
            .lines()
            .filter(|l| !l.starts_with("fsck: clean"))
            .map(|l| l.split(": ").nth(1).unwrap())
            .collect();
        assert_eq!(found, want, "{name}: {stdout}");
        if want.is_empty() {
            assert!(stdout.starts_with("fsck: clean"), "{name}: {stdout}");
        }
        let mut after = BTreeMap::new();
        files(&p(st), &mut after);
        for &(_, dir) in dirs {
            files(&p(dir), &mut after);
        }
        assert!(before == after, "{name}: fsck modified a file");
    }
    std::fs::remove_dir_all(&root).ok();
}
