//! Deterministic scripted workloads.
//!
//! A workload is a text file of one job per line, each an arrival time
//! on the simulated clock plus a job spec, e.g.:
//!
//! ```text
//! # tenant a explores, tenant b ranks, tenant m rewrites topology
//! at=0       tenant=a job=bfs source=0
//! at=250000  tenant=b job=pagerank iters=4
//! at=500000  tenant=m job=bfs mutate-at=1 inserts=32 deletes=4 seed=7
//! ```
//!
//! `at` (simulated ns), `tenant` and `job` are required; `source`,
//! `iters`, `k` default as in [`JobSpec::new`], which is also where the
//! CLI's `gts run` flags get their defaults; `prio` (0–3,
//! default 1) is the job's shedding priority — under load-aware
//! admission the lowest priorities shed first. The
//! `mutate-at`/`inserts`/`deletes`/`seed` quartet makes the job a
//! *mutating* one — its batch is generated by [`seeded_batch`] (the same
//! generator behind `gts run --mutate-*`) and applied through the
//! store's epoch pipeline at that sweep boundary. Blank lines and `#`
//! comment lines are skipped. [`parse`] orders jobs by arrival time
//! (stably, so equal times keep file order), which is the order the
//! scheduler admits them in — everything downstream is deterministic in
//! the file content alone.
//!
//! The parser is hardened like the edge-list reader: every rejection is
//! a typed, line-numbered [`WorkloadError`]; numeric fields are
//! range-checked at parse time (see [`limits`]); and the job vector's
//! pre-allocation is clamped against the file length, so a hostile
//! header can never reserve more memory than the bytes behind it could
//! possibly describe.

use crate::ServeError;
use gts_core::programs::{self, GtsProgram, ProgramError};
use gts_storage::{GraphStore, MutationBatch};

/// Parse-time bounds on workload fields. Generous for any legitimate
/// script, tight enough that a corrupt or hostile line cannot smuggle
/// absurd work (or arithmetic overflow) past admission.
pub mod limits {
    /// Latest accepted arrival: scheduling arithmetic (`start + service`,
    /// backoff, deadlines) stays overflow-free below this.
    pub const AT_MAX_NS: u64 = 1 << 62;
    /// Iteration bound for `pagerank`/`rwr`.
    pub const ITERS_MAX: u32 = 1_000_000;
    /// Fewest iterations a job may ask for (`PageRank` asserts it).
    pub const ITERS_MIN: u32 = 1;
    /// Core parameter bound for `kcore`.
    pub const K_MAX: u32 = 1_000_000;
    /// Highest shedding priority (`prio=3` sheds last).
    pub const PRIO_MAX: u32 = 3;
    /// Per-batch bound on seeded insertions and deletions.
    pub const MUTATE_EDGES_MAX: u64 = 1_000_000;
    /// Longest accepted tenant tag, bytes.
    pub const TENANT_MAX_LEN: usize = 64;
}

/// One scheduled job: when it arrives, who it belongs to, what it runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Arrival time on the simulated clock, in nanoseconds.
    pub at_ns: u64,
    /// Tenant tag: the accounting identity for cache attribution and
    /// per-tenant admission control.
    pub tenant: String,
    /// Algorithm name, one of [`programs::ALGORITHMS`].
    pub algorithm: String,
    /// Source vertex (`bfs`/`sssp`/`bc`/`rwr`), default 0.
    pub source: u64,
    /// Iteration bound (`pagerank`/`rwr`), default 10.
    pub iterations: u32,
    /// Core parameter (`kcore`), default 2.
    pub k: u32,
    /// Shedding priority, 0 (shed first) to 3 (shed last), default 1.
    /// Consulted only when the service runs with a shed watermark.
    pub priority: u32,
    /// When set, the job mutates topology while it runs.
    pub mutate: Option<MutateSpec>,
}

/// The mutation a mutating job applies at one sweep boundary,
/// regenerable from the seed alone via [`seeded_batch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MutateSpec {
    /// Sweep boundary the batch lands on.
    pub at_sweep: u32,
    /// Seeded random edge insertions.
    pub inserts: u64,
    /// Evenly-strided deletions of existing edges.
    pub deletes: u64,
    /// Seed for the batch generator.
    pub seed: u64,
}

impl JobSpec {
    /// A read job with the field defaults (`source=0 iters=10 k=2
    /// prio=1`).
    pub fn new(at_ns: u64, tenant: impl Into<String>, algorithm: impl Into<String>) -> JobSpec {
        JobSpec {
            at_ns,
            tenant: tenant.into(),
            algorithm: algorithm.into(),
            source: 0,
            iterations: 10,
            k: 2,
            priority: 1,
            mutate: None,
        }
    }

    /// Set one field from its workload `key=value` form. This is the one
    /// place the keys, the batch defaults and the [`limits`] live: a
    /// workload line and `gts run`'s job flags both come through here.
    /// The batch knobs (`inserts`/`deletes`/`seed`) need `mutate-at` set
    /// first.
    pub fn set(&mut self, key: &str, v: &str) -> Result<(), WorkloadErrorKind> {
        match key {
            "at" => self.at_ns = bounded("at", v, 0, limits::AT_MAX_NS)?,
            "tenant" if !v.is_empty() => {
                if v.len() > limits::TENANT_MAX_LEN {
                    return Err(WorkloadErrorKind::TenantTooLong { len: v.len() });
                }
                self.tenant = v.to_string();
            }
            "job" => self.algorithm = programs::find(v)?.name.to_string(),
            "source" => self.source = num("source", v)?,
            "iters" => {
                self.iterations = bounded("iters", v, limits::ITERS_MIN, limits::ITERS_MAX)?;
            }
            "k" => self.k = bounded("k", v, 0, limits::K_MAX)?,
            "prio" => self.priority = bounded("prio", v, 0, limits::PRIO_MAX)?,
            "mutate-at" => {
                let defaults = MutateSpec {
                    at_sweep: 0,
                    inserts: 64,
                    deletes: 0,
                    seed: 0x6715_2016,
                };
                self.mutate.get_or_insert(defaults).at_sweep = num("mutate-at", v)?;
            }
            "inserts" => {
                self.batch()?.inserts = bounded("inserts", v, 0, limits::MUTATE_EDGES_MAX)?;
            }
            "deletes" => {
                self.batch()?.deletes = bounded("deletes", v, 0, limits::MUTATE_EDGES_MAX)?;
            }
            "seed" => self.batch()?.seed = num("seed", v)?,
            _ => {
                return Err(WorkloadErrorKind::UnknownKey {
                    key: key.to_string(),
                })
            }
        }
        Ok(())
    }

    /// The batch the knobs tune; without `mutate-at` they are typos.
    fn batch(&mut self) -> Result<&mut MutateSpec, WorkloadErrorKind> {
        self.mutate
            .as_mut()
            .ok_or(WorkloadErrorKind::OrphanMutateKeys)
    }

    /// What must hold before the job runs over a store of `num_vertices`
    /// vertices: a tenant to account it to, a known algorithm, and
    /// parameters its program accepts. `serve` checks every spec of a
    /// workload with this, `gts run` the one its flags describe.
    pub fn check(&self, num_vertices: u64) -> Result<(), WorkloadErrorKind> {
        if self.tenant.is_empty() {
            return Err(WorkloadErrorKind::MissingKey {
                what: "tenant=<id>",
            });
        }
        programs::find(&self.algorithm)?;
        programs::check_params(num_vertices, self.source, self.iterations)?;
        Ok(())
    }

    /// What a read job's run depends on besides the store: its algorithm,
    /// the parameters that row reads ([`programs::Algorithm::params`]),
    /// and its tenant, which names its `tenant.<t>.cache.*` counters. Two
    /// read jobs with one key run identically over one store epoch.
    pub fn run_key(&self) -> (&str, (u64, u32, u32), &str) {
        let (s, i, k) = (self.source, self.iterations, self.k);
        let params = programs::find(&self.algorithm).map_or((s, i, k), |a| a.params(s, i, k));
        (&self.algorithm, params, &self.tenant)
    }

    /// Build the program this job runs over `num_vertices` vertices.
    pub fn program(&self, num_vertices: u64) -> Result<Box<dyn GtsProgram>, ProgramError> {
        programs::by_name(
            &self.algorithm,
            num_vertices,
            self.source,
            self.iterations,
            self.k,
        )
    }
}

/// A typed, line-numbered rejection from the workload parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadError {
    /// 1-based line in the script.
    pub line: usize,
    /// What was wrong with it.
    pub kind: WorkloadErrorKind,
}

/// The ways one workload line can be malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadErrorKind {
    /// A token without a `key=value` shape.
    NotKeyValue {
        /// The offending token.
        token: String,
    },
    /// A key the format does not define.
    UnknownKey {
        /// The offending key.
        key: String,
    },
    /// A value that did not parse as its key's type.
    BadValue {
        /// The key whose value failed to parse.
        key: &'static str,
        /// The value as written.
        value: String,
    },
    /// A numeric field over its parse-time bound (see [`limits`]).
    OutOfRange {
        /// The out-of-range key.
        key: &'static str,
        /// The value as written.
        value: u64,
        /// The bound it exceeded.
        max: u64,
    },
    /// A numeric field under its lower bound (`iters=0`: PageRank needs
    /// at least one iteration).
    BelowMin {
        /// The out-of-range key.
        key: &'static str,
        /// The value as written.
        value: u64,
        /// The bound it fell below.
        min: u64,
    },
    /// A required key was absent.
    MissingKey {
        /// What was missing, in `key=<shape>` form.
        what: &'static str,
    },
    /// The program registry refused the job: `job=` names no algorithm,
    /// or ([`JobSpec::check`]) the store has no such source vertex.
    Program(ProgramError),
    /// A tenant tag longer than [`limits::TENANT_MAX_LEN`] bytes.
    TenantTooLong {
        /// The tag's byte length.
        len: usize,
    },
    /// Batch knobs (`inserts`/`deletes`/`seed`) without `mutate-at`.
    OrphanMutateKeys,
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.kind)
    }
}

impl std::fmt::Display for WorkloadErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadErrorKind::NotKeyValue { token } => {
                write!(f, "expected key=value, got {token:?}")
            }
            WorkloadErrorKind::UnknownKey { key } => write!(f, "unknown key {key:?}"),
            WorkloadErrorKind::BadValue { key, value } => write!(f, "bad {key}={value:?}"),
            WorkloadErrorKind::OutOfRange { key, value, max } => {
                write!(f, "{key}={value} out of range (max {max})")
            }
            WorkloadErrorKind::BelowMin { key, value, min } => {
                write!(f, "{key}={value} out of range (min {min})")
            }
            WorkloadErrorKind::MissingKey { what } => write!(f, "missing {what}"),
            WorkloadErrorKind::Program(e) => write!(f, "{e}"),
            WorkloadErrorKind::TenantTooLong { len } => write!(
                f,
                "tenant tag of {len} bytes too long (max {})",
                limits::TENANT_MAX_LEN
            ),
            WorkloadErrorKind::OrphanMutateKeys => {
                write!(f, "inserts/deletes/seed need mutate-at")
            }
        }
    }
}

impl std::error::Error for WorkloadError {}

impl From<WorkloadError> for ServeError {
    fn from(e: WorkloadError) -> ServeError {
        ServeError::Workload(e.to_string())
    }
}

impl From<ProgramError> for WorkloadErrorKind {
    fn from(e: ProgramError) -> WorkloadErrorKind {
        WorkloadErrorKind::Program(e)
    }
}

fn num<T: std::str::FromStr>(key: &'static str, v: &str) -> Result<T, WorkloadErrorKind> {
    v.parse().map_err(|_| WorkloadErrorKind::BadValue {
        key,
        value: v.to_string(),
    })
}

fn bounded<T>(key: &'static str, v: &str, min: T, max: T) -> Result<T, WorkloadErrorKind>
where
    T: std::str::FromStr + PartialOrd + Into<u64>,
{
    let value: T = num(key, v)?;
    if value > max {
        return Err(WorkloadErrorKind::OutOfRange {
            key,
            value: value.into(),
            max: max.into(),
        });
    }
    if value < min {
        return Err(WorkloadErrorKind::BelowMin {
            key,
            value: value.into(),
            min: min.into(),
        });
    }
    Ok(value)
}

/// Parse one job line (already known non-blank, non-comment).
fn parse_line(line_no: usize, line: &str) -> Result<JobSpec, WorkloadError> {
    let bad = |kind| WorkloadError {
        line: line_no,
        kind,
    };
    let mut toks = Vec::new();
    for tok in line.split_whitespace() {
        toks.push(tok.split_once('=').ok_or_else(|| {
            bad(WorkloadErrorKind::NotKeyValue {
                token: tok.to_string(),
            })
        })?);
    }
    // `mutate-at` goes first, so the batch knobs may precede it on the line.
    toks.sort_by_key(|(key, _)| *key != "mutate-at");
    let mut spec = JobSpec::new(0, "", "");
    for (key, v) in &toks {
        spec.set(key, v).map_err(bad)?;
    }
    for (required, what) in [
        ("at", "at=<ns>"),
        ("tenant", "tenant=<id>"),
        ("job", "job=<algorithm>"),
    ] {
        if !toks.iter().any(|(key, _)| *key == required) {
            return Err(bad(WorkloadErrorKind::MissingKey { what }));
        }
    }
    Ok(spec)
}

/// Shortest line that can define a job (`at=0 tenant=a job=cc` is 20
/// bytes); the pre-allocation clamp divides the file length by this.
const MIN_JOB_LINE_BYTES: usize = 16;

/// Parse a workload script into jobs ordered by arrival time (stable:
/// equal arrivals keep file order). Errors name the offending line.
///
/// # Errors
/// A [`WorkloadError`] naming the first malformed line and why.
pub fn parse(text: &str) -> Result<Vec<JobSpec>, WorkloadError> {
    // Clamp the pre-allocation against what the bytes could possibly
    // hold: a script of N bytes cannot define more than N / 16 jobs, so
    // no header field ever reserves memory the file cannot back.
    let mut jobs = Vec::with_capacity(text.len() / MIN_JOB_LINE_BYTES + 1);
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        jobs.push(parse_line(i + 1, line)?);
    }
    jobs.sort_by_key(|j| j.at_ns);
    Ok(jobs)
}

/// Render jobs back to the line format [`parse`] accepts (defaults are
/// written out explicitly, so the rendering is self-describing).
pub fn render(jobs: &[JobSpec]) -> String {
    let mut out = String::new();
    for j in jobs {
        out.push_str(&format!(
            "at={} tenant={} job={} source={} iters={} k={} prio={}",
            j.at_ns, j.tenant, j.algorithm, j.source, j.iterations, j.k, j.priority
        ));
        if let Some(m) = &j.mutate {
            out.push_str(&format!(
                " mutate-at={} inserts={} deletes={} seed={}",
                m.at_sweep, m.inserts, m.deletes, m.seed
            ));
        }
        out.push('\n');
    }
    out
}

/// A deterministic mutation batch: xorshift64-drawn endpoint pairs for
/// the insertions, evenly-strided existing edges for the deletions —
/// reproducible from the seed alone, independent of host threading.
/// This is the one generator behind both `gts run --mutate-*` and
/// workload `mutate-at=` lines, so a serve job and its solo replay
/// build the identical batch.
pub fn seeded_batch(store: &GraphStore, inserts: u64, deletes: u64, seed: u64) -> MutationBatch {
    let n = store.num_vertices();
    let mut rng = Xorshift64::new(seed);
    let mut batch = MutationBatch::new();
    for _ in 0..inserts {
        let s = rng.next() % n;
        let d = rng.next() % n;
        batch.insert(s, d);
    }
    if deletes > 0 {
        // Deletions must name edges that exist: stride over the decoded
        // edge list (duplicates are fine — each occurrence deletes once).
        let edges = store.decode_edges();
        let take = deletes.min(edges.len() as u64);
        let stride = (edges.len() as u64 / take.max(1)).max(1);
        for i in 0..take {
            let (s, d) = edges[(i * stride) as usize % edges.len()];
            batch.delete(s, d);
        }
    }
    batch
}

/// The xorshift64 step behind [`seeded_batch`] and the test workloads
/// (zero seeds are nudged odd so the state never sticks at zero).
struct Xorshift64(u64);

impl Xorshift64 {
    fn new(seed: u64) -> Xorshift64 {
        Xorshift64(seed | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

#[cfg(test)]
/// A seeded synthetic workload for this crate's tests: `tenants`
/// tenants (`t0`, `t1`, …) each submit `jobs_per_tenant` jobs, rotating
/// through the cheap read algorithms, with xorshift-drawn inter-arrival
/// gaps. When `mutate` is set, one tenant (`t0`) submits a mutating job
/// mid-workload, exercising the epoch barrier. Same arguments, same
/// workload — byte for byte.
pub(crate) fn synthetic(
    tenants: u32,
    jobs_per_tenant: u32,
    seed: u64,
    mutate: bool,
) -> Vec<JobSpec> {
    const ALGS: &[&str] = &["bfs", "pagerank", "cc", "sssp"];
    let mut rng = Xorshift64::new(seed);
    let total = tenants * jobs_per_tenant;
    let mut jobs = Vec::with_capacity(total as usize);
    let mut at = 0u64;
    for i in 0..total {
        at += 50_000 + rng.next() % 450_000;
        let tenant = format!("t{}", i % tenants);
        let mut spec = JobSpec::new(
            at,
            tenant,
            ALGS[(i as usize / tenants as usize) % ALGS.len()],
        );
        spec.iterations = 3;
        if mutate && i == total / 2 {
            spec.tenant = "t0".to_string();
            spec.algorithm = "bfs".to_string();
            spec.mutate = Some(MutateSpec {
                at_sweep: 1,
                inserts: 32,
                deletes: 4,
                seed: rng.next(),
            });
        }
        jobs.push(spec);
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_comments_defaults_and_mutation() {
        let jobs = parse(
            "# a comment\n\
             \n\
             at=100 tenant=a job=bfs source=3\n\
             at=50 tenant=b job=pagerank iters=4\n\
             at=200 tenant=m job=bfs mutate-at=2 inserts=8 deletes=2 seed=9\n",
        )
        .unwrap();
        // Sorted by arrival; defaults filled in.
        assert_eq!(jobs.len(), 3);
        assert_eq!(jobs[0].tenant, "b");
        assert_eq!(jobs[0].iterations, 4);
        assert_eq!(jobs[1].source, 3);
        assert_eq!(jobs[1].iterations, 10);
        assert_eq!(jobs[1].k, 2);
        assert_eq!(
            jobs[2].mutate,
            Some(MutateSpec {
                at_sweep: 2,
                inserts: 8,
                deletes: 2,
                seed: 9
            })
        );
    }

    #[test]
    fn equal_arrivals_keep_file_order() {
        let jobs = parse("at=5 tenant=a job=bfs\nat=5 tenant=b job=cc\n").unwrap();
        assert_eq!(jobs[0].tenant, "a");
        assert_eq!(jobs[1].tenant, "b");
    }

    #[test]
    fn mutation_defaults_mirror_the_cli() {
        let jobs = parse("at=0 tenant=m job=cc mutate-at=1").unwrap();
        assert_eq!(
            jobs[0].mutate,
            Some(MutateSpec {
                at_sweep: 1,
                inserts: 64,
                deletes: 0,
                seed: 0x6715_2016
            })
        );
    }

    #[test]
    fn batch_knobs_may_precede_mutate_at_on_a_line_but_not_in_the_setter() {
        let early = parse("at=0 tenant=m job=bfs inserts=8 seed=9 mutate-at=2 deletes=2");
        let late = parse("at=0 tenant=m job=bfs mutate-at=2 inserts=8 deletes=2 seed=9");
        assert_eq!(early, late);
        assert_eq!(early.unwrap()[0].mutate.unwrap().inserts, 8);
        let mut spec = JobSpec::new(0, "a", "bfs");
        assert_eq!(
            spec.set("inserts", "5"),
            Err(WorkloadErrorKind::OrphanMutateKeys)
        );
        assert!(spec.set("mutate-at", "x").is_err());
        assert_eq!(spec.mutate, None, "a refused value sets nothing");
        spec.set("mutate-at", "1").unwrap();
        spec.set("inserts", "5").unwrap();
        spec.set("mutate-at", "3").unwrap();
        assert_eq!(
            spec.mutate,
            Some(MutateSpec {
                at_sweep: 3,
                inserts: 5,
                deletes: 0,
                seed: 0x6715_2016
            })
        );
    }

    #[test]
    fn check_refuses_what_no_program_can_run() {
        let ok = JobSpec::new(0, "a", "bfs");
        assert_eq!(ok.check(4), Ok(()));
        let mut spec = ok.clone();
        spec.source = 4;
        assert_eq!(
            spec.check(4).unwrap_err().to_string(),
            "source 4 out of range (4 vertices)"
        );
        let mut spec = ok.clone();
        spec.iterations = 0;
        assert_eq!(
            spec.check(4),
            Err(WorkloadErrorKind::Program(ProgramError::ZeroIterations))
        );
        let mut spec = ok.clone();
        spec.algorithm = "frobnicate".into();
        assert!(matches!(
            spec.check(4),
            Err(WorkloadErrorKind::Program(
                ProgramError::UnknownAlgorithm { .. }
            ))
        ));
        let mut spec = ok;
        spec.tenant.clear();
        assert_eq!(
            spec.check(4).unwrap_err().to_string(),
            "missing tenant=<id>"
        );
    }

    #[test]
    fn errors_name_the_line_and_cause() {
        for (text, needle) in [
            ("at=0 tenant=a", "missing job"),
            ("tenant=a job=bfs", "missing at"),
            ("at=0 job=bfs", "missing tenant"),
            ("at=0 tenant=a job=frobnicate", "unknown algorithm"),
            ("at=0 tenant=a job=bfs colour=red", "unknown key"),
            ("at=zero tenant=a job=bfs", "bad at"),
            ("at=0 tenant=a job=bfs bareword", "key=value"),
            ("at=0 tenant=a job=bfs inserts=5", "need mutate-at"),
            ("at=9223372036854775807 tenant=a job=bfs", "out of range"),
            ("at=0 tenant=a job=bfs prio=4", "prio=4 out of range"),
            (
                "at=0 tenant=a job=bfs iters=2000000",
                "iters=2000000 out of range",
            ),
            (
                "at=0 tenant=a job=pagerank iters=0",
                "iters=0 out of range (min 1)",
            ),
            (
                "at=0 tenant=a job=kcore k=2000000",
                "k=2000000 out of range",
            ),
            (
                "at=0 tenant=a job=bfs mutate-at=1 inserts=2000000",
                "inserts=2000000 out of range",
            ),
            (
                "at=0 tenant=a job=bfs mutate-at=1 deletes=2000000",
                "deletes=2000000 out of range",
            ),
        ] {
            let err = parse(&format!("# header\n{text}\n")).unwrap_err();
            assert_eq!(err.line, 2, "{text:?} -> {err}");
            let msg = err.to_string();
            assert!(msg.contains("line 2"), "{text:?} -> {msg}");
            assert!(msg.contains(needle), "{text:?} -> {msg}");
        }
        let tag = "t".repeat(limits::TENANT_MAX_LEN + 1);
        let err = parse(&format!("at=0 tenant={tag} job=bfs")).unwrap_err();
        assert!(
            matches!(err.kind, WorkloadErrorKind::TenantTooLong { len } if len == 65),
            "{err}"
        );
    }

    #[test]
    fn priority_parses_defaults_and_bounds() {
        let jobs = parse("at=0 tenant=a job=bfs prio=0\nat=1 tenant=b job=cc\n").unwrap();
        assert_eq!(jobs[0].priority, 0);
        assert_eq!(jobs[1].priority, 1, "default priority is 1");
        assert!(parse("at=0 tenant=a job=bfs prio=3").is_ok());
        // Typed kinds carry the structured fields, not just a message.
        let err = parse("at=0 tenant=a job=bfs prio=9").unwrap_err();
        assert_eq!(
            err.kind,
            WorkloadErrorKind::OutOfRange {
                key: "prio",
                value: 9,
                max: 3
            }
        );
    }

    #[test]
    fn render_parse_round_trips() {
        let jobs = synthetic(3, 4, 7, true);
        assert_eq!(parse(&render(&jobs)).unwrap(), {
            let mut sorted = jobs.clone();
            sorted.sort_by_key(|j| j.at_ns);
            sorted
        });
        // Seeded: same args, same workload; different seed, different.
        assert_eq!(synthetic(3, 4, 7, true), synthetic(3, 4, 7, true));
        assert_ne!(synthetic(3, 4, 7, true), synthetic(3, 4, 8, true));
        assert_eq!(jobs.iter().filter(|j| j.mutate.is_some()).count(), 1);
    }
}
