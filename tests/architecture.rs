//! The workspace's structural rules, checked over its source tree.
//!
//! A few invariants of the design live in where code sits, not in what
//! it computes: kernels scatter without atomics, the edge loop runs over
//! a concrete slotted-page run, a page is hashed in one place, a durable
//! frame is sealed by XXH64, every counter key is declared once. Each is one row of [`RULES`]: the files
//! it scans, the line patterns it counts there and how many matching
//! lines those files may hold. Each name a change removed, and that must
//! not come back, is one row of [`TOMBSTONES`].
//!
//! What the type system can hold is not here, because it is a compile
//! error instead:
//! - the store's page vector is a `Pages` whose field is private to
//!   `gts_storage::builder`; the mutation engine reaches it with a
//!   `MutationKey`, which only `gts_storage::mutate` can make;
//! - `Page::trust_own_seal` takes the same key;
//! - `gts-graph` cannot name `gts-exec`'s thread pool without the
//!   dependency that [`RULES`] forbids it.
//!
//! Patterns are literal: the workspace vendors no regex crate. Every row
//! carries a seeded violation, and `every_rule_flags_its_seed` adds it to
//! the tree and checks that the row then fails, so no row can silently
//! stop matching. Rows that came from a CI lint name the commit that
//! added it.

use std::fs;
use std::path::Path;

/// What a row counts in the files it scans.
#[derive(Clone, Copy, Debug)]
enum Pat {
    /// Lines containing the text.
    Sub(&'static str),
    /// Lines containing the text where no identifier character follows it
    /// (grep's trailing `\b`).
    Word(&'static str),
    /// Lines starting with the text.
    Start(&'static str),
    /// Files whose path ends with the text, one hit per file.
    File(&'static str),
    /// Lines handing a string-literal key to a telemetry `add` / `set` /
    /// `max`, or reading one back with `.counter("…")` (see
    /// [`literal_key`]).
    LiteralKey,
}

/// One structural rule.
struct Rule {
    /// What the rule keeps.
    keeps: &'static str,
    /// The files scanned: workspace-relative paths of files or
    /// directories, `*` matching any one component.
    scan: &'static [&'static str],
    /// Files or directories inside `scan` the rule exempts.
    allowed: &'static [&'static str],
    /// Scan only the lines before a file's first `#[cfg(test)]`.
    non_test: bool,
    /// What is counted; a line counts once whichever patterns it matches.
    pats: &'static [Pat],
    /// How many hits the scanned files hold.
    want: usize,
    /// Why, by DESIGN.md section.
    why: &'static str,
    /// The change that introduced the rule.
    since: &'static str,
    /// Files that break the rule, each alone: a path inside `scan` and
    /// its text.
    seeds: &'static [(&'static str, &'static str)],
}

/// The programs' sources, where vertex kernels live.
const PROGRAMS: &str = "crates/core/src/programs";
/// The slotted-page codec.
const PAGE_RS: &str = "crates/storage/src/page.rs";
/// The mutation engine.
const MUTATE_RS: &str = "crates/storage/src/mutate.rs";

const RULES: &[Rule] = &[
    Rule {
        keeps: "no per-edge dynamic dispatch: a kernel's edge loop gets the concrete `AdjRun`",
        scan: &[PROGRAMS, PAGE_RS],
        allowed: &[],
        non_test: false,
        pats: &[Pat::Sub("dyn Iterator")],
        want: 0,
        why: "§10 \"Decoding a slotted page\"",
        since: "fb6b0d5 adjacency runs",
        seeds: &[(PAGE_RS, "fn edges(&self) -> Box<dyn Iterator<Item = RecordId>>;")],
    },
    Rule {
        keeps: "no atomics in any functional kernel: a parallel kernel writes only its worker's lane",
        scan: &[PROGRAMS, "crates/baselines/src"],
        allowed: &[],
        non_test: false,
        pats: &[Pat::Sub("Atomic")],
        want: 0,
        why: "§8 rules 1 and 4 (the host stand-in for Appendix B's atomicAdd / CAS)",
        since: "525f20f scatter without atomics",
        seeds: &[
            ("crates/core/src/programs/seed.rs", "let x = AtomicU64::new(0);"),
            (
                "crates/baselines/src/propagation.rs",
                "let next: Vec<AtomicU64> = values.iter().map(|x| AtomicU64::new(x.to_bits())).collect();",
            ),
        ],
    },
    Rule {
        keeps: "a slotted page is hashed by XXH64 only, never by an FNV-1a of any form",
        scan: &[PAGE_RS],
        allowed: &[],
        non_test: false,
        pats: &[Pat::Sub("fnv1a")],
        want: 0,
        why: "§10 \"The page trailer\"",
        since: "27f1b96 XXH64 page trailers",
        seeds: &[(PAGE_RS, "let sum = gts_ckpt::fnv1a(data);")],
    },
    Rule {
        keeps: "one XXH64 call seals and checks every page",
        scan: &[PAGE_RS],
        allowed: &[],
        non_test: true,
        pats: &[Pat::Sub("xxh64(")],
        want: 1,
        why: "§10 \"The page trailer\"",
        since: "27f1b96 XXH64 page trailers",
        seeds: &[(PAGE_RS, "let again = gts_ckpt::xxh64(data);")],
    },
    Rule {
        keeps: "a durable frame is sealed by XXH64: the log, snapshot, checkpoint-store and durable-write code never calls FNV-1a",
        scan: &[
            "crates/ckpt/src/log.rs",
            "crates/ckpt/src/snapshot.rs",
            "crates/ckpt/src/store.rs",
            "crates/ckpt/src/durable.rs",
        ],
        allowed: &[],
        non_test: false,
        pats: &[Pat::Sub("fnv1a(")],
        want: 0,
        why: "§10 \"On-disk formats\"",
        since: "XXH64-sealed durable frames",
        seeds: &[("crates/ckpt/src/log.rs", "let sum = gts_ckpt::fnv1a(&frame[LEN_PREFIX..]);")],
    },
    Rule {
        keeps: "`seal` and `unseal` each check a trailer with one XXH64 call",
        scan: &["crates/ckpt/src/seal.rs"],
        allowed: &[],
        non_test: true,
        pats: &[Pat::Sub("= xxh64(")],
        want: 2,
        why: "§10 \"On-disk formats\"",
        since: "XXH64-sealed durable frames",
        seeds: &[("crates/ckpt/src/seal.rs", "let again = xxh64(payload);")],
    },
    Rule {
        keeps: "one Small-Page builder serves every mutation call",
        scan: &[MUTATE_RS],
        allowed: &[],
        non_test: true,
        pats: &[Pat::Sub("SmallPageEncoder::new")],
        want: 1,
        why: "§12 \"Staged-atomic apply\"",
        since: "97a6fbc one multi-batch mutation call",
        seeds: &[(MUTATE_RS, "let mut eager = SmallPageEncoder::new(self.cfg);")],
    },
    Rule {
        keeps: "WAL recovery and `gts fsck` share the WAL's one replay loop",
        scan: &["crates"],
        allowed: &[],
        non_test: false,
        pats: &[Pat::Sub("apply_mutations(&rec.batch)")],
        want: 0,
        why: "§15",
        since: "102f4f9 one check per durable artifact",
        seeds: &[("crates/cli/src/seed.rs", "store.apply_mutations(&rec.batch)?;")],
    },
    Rule {
        keeps: "every run in the repository drives the `Engine`; the `Gts` facade stays only for the frozen benchmark",
        scan: &["crates", "tests", "examples"],
        allowed: &["crates/core/src/engine.rs"],
        non_test: false,
        pats: &[Pat::Sub("Gts::"), Pat::Sub("GtsBuilder")],
        want: 0,
        why: "§13 \"Engine / Job\"",
        since: "5f179f0 one home per run input (the bench crate: c14b6a3)",
        seeds: &[("tests/seed.rs", "let report = Gts::builder().build()?.run(&store, &mut bfs)?;")],
    },
    Rule {
        keeps: "every counter key is declared once, in gts_telemetry::keys: no string-literal key is recorded or read back elsewhere",
        scan: &["crates/*/src"],
        allowed: &["crates/telemetry/src/keys.rs"],
        non_test: true,
        pats: &[Pat::LiteralKey],
        want: 0,
        why: "§7 rule 5",
        since: "d0c0882 one declaration per counter key",
        seeds: &[("crates/core/src/seed.rs", "tel.add(\"run.sweeps\", 1);")],
    },
    Rule {
        keeps: "phase B's per-page path is indexed by page ID: no ordered or hashed map",
        scan: &["crates/core/src/sweep/account.rs"],
        allowed: &[],
        non_test: false,
        pats: &[
            Pat::Sub("BTreeSet"),
            Pat::Sub("BTreeMap"),
            Pat::Sub("HashMap"),
            Pat::Sub("HashSet"),
        ],
        want: 0,
        why: "§2 \"Engine pipeline\" (`sweep::account`)",
        since: "ccc7652 phase B without ordered maps",
        seeds: &[("crates/core/src/sweep/account.rs", "let mut next = BTreeSet::new();")],
    },
    Rule {
        keeps: "the LRU is a page-indexed recency list, not an ordered map",
        scan: &["crates/storage/src/cache.rs"],
        allowed: &[],
        non_test: false,
        pats: &[Pat::Sub("BTreeMap")],
        want: 0,
        why: "§2 \"Substrate crates\" (page caches)",
        since: "ccc7652 phase B without ordered maps",
        seeds: &[("crates/storage/src/cache.rs", "stamps: BTreeMap<u64, u64>,")],
    },
    Rule {
        keeps: "the CSR build and degree stats are serial: no atomic cursors in gts-graph",
        scan: &["crates/graph/src"],
        allowed: &[],
        non_test: false,
        pats: &[Pat::Sub("Atomic")],
        want: 0,
        why: "§8 rule 5",
        since: "c405b48 one CSR build path",
        seeds: &[("crates/graph/src/csr.rs", "let cursor: Vec<AtomicU64> = Vec::new();")],
    },
    Rule {
        keeps: "gts-graph does not depend on gts-exec, so it cannot name the thread pool",
        scan: &["crates/graph/Cargo.toml"],
        allowed: &[],
        non_test: false,
        pats: &[Pat::Sub("gts-exec")],
        want: 0,
        why: "§8 rule 5",
        since: "c405b48 one CSR build path",
        seeds: &[("crates/graph/Cargo.toml", "gts-exec = { workspace = true }")],
    },
    Rule {
        keeps: "the paper's evaluation has one bench target",
        scan: &["crates/bench/benches"],
        allowed: &[],
        non_test: false,
        pats: &[Pat::File(".rs")],
        want: 1,
        why: "§2 \"Harness and tooling\"",
        since: "c14b6a3 the paper's evaluation as one table",
        seeds: &[("crates/bench/benches/fig9.rs", "fn main() {}")],
    },
    Rule {
        keeps: "gts-bench declares one `[[bench]]`",
        scan: &["crates/bench/Cargo.toml"],
        allowed: &[],
        non_test: false,
        pats: &[Pat::Start("[[bench]]")],
        want: 1,
        why: "§2 \"Harness and tooling\"",
        since: "c14b6a3 the paper's evaluation as one table",
        seeds: &[("crates/bench/Cargo.toml", "[[bench]]")],
    },
    Rule {
        keeps: "a checkpoint boundary clears each cache in place, counters kept, rather than rebuilding it",
        scan: &["crates/core/src/sweep/ckpt.rs"],
        allowed: &[],
        non_test: false,
        pats: &[Pat::Sub("cache_policy.build(")],
        want: 0,
        why: "§2 \"Substrate crates\" (one residency cache)",
        since: "a13e5cd one residency cache",
        seeds: &[("crates/core/src/sweep/ckpt.rs", "lane.cache = cfg.cache_policy.build(pages);")],
    },
    Rule {
        keeps: "a program's static facts live on its `ALGORITHMS` row, not in per-program methods",
        scan: &[PROGRAMS],
        allowed: &[],
        non_test: false,
        pats: &[
            Pat::Sub("fn kind(&self)"),
            Pat::Sub("fn class(&self)"),
            Pat::Sub("fn wa_bytes_per_vertex(&self)"),
            Pat::Sub("fn ra_bytes_per_vertex(&self)"),
        ],
        want: 0,
        why: "§2 \"Harness and tooling\" (front end)",
        since: "723f811 one declaration per program",
        seeds: &[("crates/core/src/programs/bfs.rs", "fn wa_bytes_per_vertex(&self) -> usize { 2 }")],
    },
    Rule {
        keeps: "the baselines read a program's kernel class from its `ALGORITHMS` row",
        scan: &["crates/baselines/src"],
        allowed: &[],
        non_test: false,
        pats: &[Pat::Sub("fn kernel_class")],
        want: 0,
        why: "§2 \"Harness and tooling\" (front end)",
        since: "723f811 one declaration per program",
        seeds: &[("crates/baselines/src/seed.rs", "fn kernel_class(algo: Algo) -> KernelClass {")],
    },
    Rule {
        keeps: "load checks record IDs against the per-page slot table, never through a view of the target page",
        scan: &["crates/storage/src/builder.rs"],
        allowed: &[],
        non_test: false,
        pats: &[Pat::Sub("target_view"), Pat::Sub("store.view(rid.pid)")],
        want: 0,
        why: "§10 \"Decoding a slotted page\"",
        since: "4bc6ee2 record IDs checked against a slot table",
        seeds: &[("crates/storage/src/builder.rs", "let target_view = pages[rid.pid as usize].view();")],
    },
    Rule {
        keeps: "a durable directory is made by `durable.rs`'s one funnel, which fsyncs its parent",
        scan: &["crates/ckpt/src"],
        allowed: &["crates/ckpt/src/durable.rs"],
        non_test: true,
        pats: &[Pat::Sub("create_dir_all")],
        want: 0,
        why: "§10 \"Crash model\"",
        since: "durable directory creation",
        seeds: &[("crates/ckpt/src/store.rs", "fs::create_dir_all(&dir)?;")],
    },
    Rule {
        keeps: "a page's run length is read only inside gts-storage: any other reader asks `GraphStore::run_pids`",
        scan: &["crates/*/src", "crates/bench/benches"],
        allowed: &["crates/storage/src"],
        non_test: true,
        pats: &[Pat::Sub(".lp_range")],
        want: 0,
        why: "§12 \"Delta pages\"",
        since: "GTSPAGES 5 page roles",
        seeds: &[("crates/core/src/queries.rs", "let range = self.store.rvt().entry(pid).lp_range;")],
    },
    Rule {
        keeps: "serve runs a read job in one place, the wave's shared read path",
        scan: &["crates/serve/src"],
        allowed: &[],
        non_test: true,
        pats: &[Pat::Sub("run_job(")],
        want: 1,
        why: "§13 \"One run per distinct read\"",
        since: "one engine run per distinct read",
        seeds: &[("crates/serve/src/solo.rs", "let report = engine.run_job(store, &mut *prog, &opts)?;")],
    },
];

/// A name a change removed, which no file in `scan` may bring back.
struct Tombstone {
    /// The name's forms; the first names it.
    pats: &'static [Pat],
    /// Where it may not come back (as [`Rule::scan`]).
    scan: &'static [&'static str],
    /// Why it went.
    why: &'static str,
    /// The change that removed it.
    removed_by: &'static str,
}

const TOMBSTONES: &[Tombstone] = &[
    Tombstone {
        pats: &[Pat::Sub("SpAdjIter")],
        scan: &["crates"],
        why: "the per-edge iterator of a slotted page; the edge loop runs over the concrete `AdjRun`",
        removed_by: "fb6b0d5 adjacency runs",
    },
    Tombstone {
        pats: &[
            Pat::Word("struct ExecCtx"),
            Pat::Word("struct SweepEnv"),
            Pat::Word("struct RunEntry"),
            Pat::Word("struct UpkeepGate"),
            Pat::Word("struct RunState"),
            Pat::Word("struct WriteCtx"),
            Pat::Word("struct BoundaryCtx"),
            Pat::Word("struct ResumeState"),
        ],
        scan: &["crates/core/src"],
        why: "per-run parameter bundles; one `Job` owns a run",
        removed_by: "5d94140 one Job owns a run",
    },
    Tombstone {
        pats: &[
            Pat::Word("fn put_u16s"),
            Pat::Word("fn put_u32s"),
            Pat::Word("fn put_u64s"),
            Pat::Word("fn put_f32s"),
            Pat::Word("fn put_bools"),
            Pat::Word("fn load_u16s"),
            Pat::Word("fn load_u32s"),
            Pat::Word("fn load_u64s"),
            Pat::Word("fn load_f32s"),
            Pat::Word("fn load_bools"),
        ],
        scan: &[PROGRAMS],
        why: "per-type snapshot codecs; a vector is one length-checked `put_seq` / `take_seq`",
        removed_by: "5d94140 one Job owns a run",
    },
    Tombstone {
        pats: &[
            Pat::Word("fn run_bfs"),
            Pat::Word("fn run_sssp"),
            Pat::Word("fn run_cc"),
            Pat::Word("fn run_pagerank"),
            Pat::Word("fn run_bc"),
            Pat::Sub("fn with_telemetry"),
            Pat::Sub("telemetry: Telemetry"),
        ],
        scan: &["crates/baselines/src"],
        why: "per-engine run methods and telemetry handles; the comparators are cost models behind one driver",
        removed_by: "fae40b0 one baseline driver",
    },
    Tombstone {
        pats: &[Pat::File("crates/storage/src/mmbuf.rs")],
        scan: &["crates/storage/src"],
        why: "the MMBuf as its own cache; it is the FIFO `CachePolicy`",
        removed_by: "a13e5cd one residency cache",
    },
    Tombstone {
        pats: &[Pat::Sub("banked_")],
        scan: &["crates/core/src"],
        why: "cache statistics banked across a rebuilt cache; a checkpoint clears the cache in place",
        removed_by: "a13e5cd one residency cache",
    },
    Tombstone {
        pats: &[Pat::File("crates/core/src/attrs.rs")],
        scan: &["crates/core/src"],
        why: "a program's layout class, now its `ALGORITHMS` row",
        removed_by: "723f811 one declaration per program",
    },
    Tombstone {
        pats: &[Pat::Sub("AlgorithmKind")],
        scan: &["crates", "tests", "examples"],
        why: "a second enum of the programs; the `ALGORITHMS` row names each",
        removed_by: "723f811 one declaration per program",
    },
    Tombstone {
        pats: &[Pat::Sub("SlotSource"), Pat::Sub("overlay.get(")],
        scan: &[MUTATE_RS],
        why: "a per-slot source and overlay lookup in the Small-Page rebuild; unchanged slots are copied as spans",
        removed_by: "9b8fa6e span-copying mutation apply",
    },
    Tombstone {
        pats: &[
            Pat::Sub("Vec<Option<Vec<RecordId>>>"),
            Pat::Sub("sp_adj_run(s).collect()"),
        ],
        scan: &[MUTATE_RS],
        why: "per-slot decode of a rebuilt Small Page; unchanged records are copied as packed bytes",
        removed_by: "b808966 packed-run copy-through",
    },
    Tombstone {
        pats: &[Pat::Sub("fnv1a_lanes"), Pat::Sub("FNV_LANES")],
        scan: &["crates"],
        why: "the lane-parallel FNV-1a page trailer of GTSPAGES 3",
        removed_by: "27f1b96 XXH64 page trailers",
    },
    Tombstone {
        pats: &[Pat::Sub("Call::finish"), Pat::Sub("fn finish(self)")],
        scan: &[MUTATE_RS],
        why: "the eager end-of-call page build; a changed page is built on its first read",
        removed_by: "42c1f5c pages built on first read",
    },
    Tombstone {
        pats: &[Pat::Sub("store_binding_fp")],
        scan: &["crates", "tests", "examples", "benchmark", "vendor"],
        why: "a second store binding; the journal binds the store by `store_fingerprint`",
        removed_by: "102f4f9 one check per durable artifact",
    },
    Tombstone {
        pats: &[Pat::Sub("is_contract")],
        scan: &["crates", "tests", "benchmark", "examples", "tools"],
        why: "contract membership by key prefix; it is each key's declared class",
        removed_by: "d0c0882 one declaration per counter key",
    },
    Tombstone {
        pats: &[Pat::Sub("pub crash")],
        scan: &["crates/faults/src"],
        why: "a crash in the fault config; a job's crash is `JobOptions::kill`",
        removed_by: "5f179f0 one home per run input",
    },
    Tombstone {
        pats: &[Pat::Sub("pub faults")],
        scan: &["crates/core/src/engine.rs"],
        why: "a fault plan on the engine config; a job's plan is `JobOptions::faults`",
        removed_by: "5f179f0 one home per run input",
    },
    Tombstone {
        pats: &[
            Pat::Word("rvt_mut"),
            Pat::Word("set_entry"),
            Pat::Word("CorruptRvt"),
        ],
        scan: &["crates", "tests", "examples", "benchmark"],
        why: "a test back door that stripped a Large page's run length, and the engine error only it could reach; load refuses an inconsistent role table",
        removed_by: "GTSPAGES 5 page roles",
    },
    Tombstone {
        pats: &[
            Pat::Word("SharedKernel"),
            Pat::Word("process_page_shared"),
            Pat::Word("fn shared_kernel"),
            Pat::Word("fn absorb"),
        ],
        scan: &["crates", "tests", "examples", "benchmark"],
        why: "a second, pooled kernel path beside the serial one; a program's `Kernel` names its fold, and one path runs it at every thread count",
        removed_by: "one kernel path per fold",
    },
];

/// One file of the tree: its workspace-relative path and its text.
type File = (String, String);

/// This file, which names every pattern and so is not scanned.
const THIS_FILE: &str = "tests/architecture.rs";

/// Every file under the top directories that [`RULES`] and [`TOMBSTONES`]
/// scan, except build outputs (`target/`) and [`THIS_FILE`].
fn tree() -> Vec<File> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let scans = RULES
        .iter()
        .map(|r| r.scan)
        .chain(TOMBSTONES.iter().map(|t| t.scan));
    let mut tops: Vec<&str> = scans
        .flatten()
        .map(|s| s.split('/').next().unwrap_or(s))
        .collect();
    tops.sort_unstable();
    tops.dedup();
    let mut files = Vec::new();
    for top in tops {
        walk(&root, top, &mut files);
    }
    files
}

fn walk(root: &Path, rel: &str, files: &mut Vec<File>) {
    let path = root.join(rel);
    if path.is_dir() {
        let mut names: Vec<String> = fs::read_dir(&path)
            .unwrap_or_else(|e| panic!("{rel}: {e}"))
            .map(|e| {
                e.expect("a directory entry")
                    .file_name()
                    .to_string_lossy()
                    .into_owned()
            })
            .filter(|name| name != "target")
            .collect();
        names.sort_unstable();
        for name in names {
            walk(root, &format!("{rel}/{name}"), files);
        }
    } else if rel != THIS_FILE {
        let bytes = fs::read(&path).unwrap_or_else(|e| panic!("{rel}: {e}"));
        files.push((
            rel.to_string(),
            String::from_utf8_lossy(&bytes).into_owned(),
        ));
    }
}

/// Whether `path` lies in one of `scan`'s files or directories.
fn in_scope(path: &str, scan: &[&str]) -> bool {
    scan.iter().any(|s| {
        let mut parts = path.split('/');
        s.split('/')
            .all(|want| parts.next().is_some_and(|got| want == "*" || want == got))
    })
}

/// `text` up to the line holding its first `#[cfg(test)]`, as
/// `tools/loc.sh` counts a file.
fn before_tests(text: &str) -> &str {
    match text.find("#[cfg(test)]") {
        Some(at) => &text[..text[..at].rfind('\n').map_or(0, |n| n + 1)],
        None => text,
    }
}

/// Whether `line` (after `prev`) hands a string-literal key to a
/// telemetry handle's `add` / `set` / `max`, or reads one back with
/// `.counter("…")` outside a comment — on the line itself, or with the
/// call's `(` ending `prev` and the literal starting `line`.
fn literal_key(line: &str, prev: &str) -> bool {
    const CALLS: [&str; 6] = [
        "tel.add(",
        "tel.set(",
        "tel.max(",
        "telemetry().add(",
        "telemetry().set(",
        "telemetry().max(",
    ];
    // What follows each `call` in `l`, leading spaces dropped.
    fn after<'a>(l: &'a str, call: &'a str) -> impl Iterator<Item = &'a str> {
        l.match_indices(call)
            .map(move |(at, _)| l[at + call.len()..].trim_start_matches(' '))
    }
    let opens = |l: &str, call: &str| after(l, call).any(|rest| rest.starts_with('"'));
    let dangles = |l: &str, call: &str| after(l, call).any(str::is_empty);
    let continued = line.trim_start_matches(' ').starts_with('"');
    let by_call = |call: &str| opens(line, call) || (continued && dangles(prev, call));
    let comment = line.trim_start_matches(' ').starts_with("//");
    CALLS.into_iter().any(by_call) || (!comment && by_call(".counter("))
}

/// Whether `line` (after `prev`) matches `pat`.
fn matches(pat: Pat, line: &str, prev: &str) -> bool {
    match pat {
        Pat::Sub(s) => line.contains(s),
        Pat::Word(w) => line.match_indices(w).any(|(at, _)| {
            !line[at + w.len()..].starts_with(|c: char| c.is_alphanumeric() || c == '_')
        }),
        Pat::Start(s) => line.starts_with(s),
        Pat::File(_) => false,
        Pat::LiteralKey => literal_key(line, prev),
    }
}

/// Every hit of `pats` in the files of `scan` that `allowed` does not
/// exempt, as `path:line: text` (a file hit as its path).
fn hits(
    files: &[File],
    scan: &[&str],
    allowed: &[&str],
    non_test: bool,
    pats: &[Pat],
) -> Vec<String> {
    let mut out = Vec::new();
    for (path, text) in files {
        if !in_scope(path, scan) || in_scope(path, allowed) {
            continue;
        }
        if pats
            .iter()
            .any(|p| matches!(p, Pat::File(f) if path.ends_with(f)))
        {
            out.push(path.clone());
        }
        let text = if non_test { before_tests(text) } else { text };
        let mut prev = "";
        for (i, line) in text.lines().enumerate() {
            if pats.iter().any(|&p| matches(p, line, prev)) {
                out.push(format!("{path}:{}: {}", i + 1, line.trim()));
            }
            prev = line;
        }
    }
    out
}

/// What `rule` finds wrong in `files`, if anything.
fn check_rule(rule: &Rule, files: &[File]) -> Option<String> {
    let found = hits(files, rule.scan, rule.allowed, rule.non_test, rule.pats);
    (found.len() != rule.want).then(|| {
        format!(
            "{}: {} hit(s), want {} (DESIGN.md {}; since {})\n  {}",
            rule.keeps,
            found.len(),
            rule.want,
            rule.why,
            rule.since,
            found.join("\n  ")
        )
    })
}

/// What `stone` finds come back in `files`, if anything.
fn check_tombstone(stone: &Tombstone, files: &[File]) -> Option<String> {
    let found = hits(files, stone.scan, &[], false, stone.pats);
    (!found.is_empty()).then(|| {
        format!(
            "{:?} is back ({}; removed by {})\n  {}",
            stone.pats[0],
            stone.why,
            stone.removed_by,
            found.join("\n  ")
        )
    })
}

/// A file that brings `pat` back inside `scan`.
fn tombstone_seed(pat: Pat, scan: &[&str]) -> File {
    let at = |name: &str| {
        let first = scan[0];
        if Path::new(first).extension().is_some() {
            first.to_string()
        } else {
            format!("{first}/{name}")
        }
    };
    match pat {
        Pat::File(path) => (path.to_string(), String::new()),
        Pat::Sub(s) | Pat::Word(s) | Pat::Start(s) => (at("seed.rs"), s.to_string()),
        Pat::LiteralKey => unreachable!("no tombstone is a key"),
    }
}

#[test]
fn the_tree_keeps_every_rule() {
    let files = tree();
    // A scanned path that names no file would pass any rule unread.
    let scanned = (RULES.iter().flat_map(|r| r.scan.iter().chain(r.allowed)))
        .chain(TOMBSTONES.iter().flat_map(|t| t.scan));
    let dangling: Vec<&&str> = scanned
        .filter(|s| !files.iter().any(|(path, _)| in_scope(path, &[s])))
        .collect();
    assert!(
        dangling.is_empty(),
        "scanned paths with no file: {dangling:?}"
    );
    let broken: Vec<String> = (RULES.iter().filter_map(|r| check_rule(r, &files)))
        .chain(TOMBSTONES.iter().filter_map(|t| check_tombstone(t, &files)))
        .collect();
    assert!(broken.is_empty(), "\n{}", broken.join("\n"));
}

#[test]
fn every_rule_flags_its_seed() {
    // The tree plus one seeded file, swapped for each seed in turn.
    let mut seeded = tree();
    for rule in RULES {
        for &(path, text) in rule.seeds {
            seeded.push((path.to_string(), text.to_string()));
            assert!(
                check_rule(rule, &seeded).is_some(),
                "{}: seed {path:?} {text:?} is not flagged",
                rule.keeps
            );
            seeded.pop();
        }
    }
    for stone in TOMBSTONES {
        for &pat in stone.pats {
            seeded.push(tombstone_seed(pat, stone.scan));
            assert!(
                check_tombstone(stone, &seeded).is_some(),
                "{pat:?}: its seed is not flagged"
            );
            seeded.pop();
        }
    }
}

/// The key matcher has the reach of the lint it replaced: a literal on
/// the call's line or on the next, any handle spelled `tel` or
/// `telemetry()`, and `.counter("…")` outside comments.
#[test]
fn literal_keys_are_found_in_every_form() {
    let flagged = |text: &str| {
        !hits(
            &[("a.rs".into(), text.into())],
            &["a.rs"],
            &[],
            true,
            &[Pat::LiteralKey],
        )
        .is_empty()
    };
    for bad in [
        "tel.add(\"run.sweeps\", 1);",
        "self.telemetry().max( \"cache.peak\", n);",
        "tel.set(\n    \"run.elapsed_ns\",\n    t,\n);",
        "let n = report.counter(\"run.sweeps\");",
        "report.counter(\n  \"run.sweeps\");",
    ] {
        assert!(flagged(bad), "{bad:?}");
    }
    for good in [
        "tel.add(keys::RUN_SWEEPS, 1);",
        "tel.add(\n    keys::RUN_SWEEPS,",
        "// report.counter(\"run.sweeps\") reads it back",
        "#[cfg(test)]\nmod tests { fn f() { tel.add(\"x\", 1); } }",
    ] {
        assert!(!flagged(good), "{good:?}");
    }
}
