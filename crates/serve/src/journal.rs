//! The crash-consistent service journal: a memo table of executions in
//! a [`SealedLog`].
//!
//! The journal holds one record kind, `ExecRecord`: the functional
//! result of one `(job, attempt)` engine execution. After every
//! scheduler step (a speculative read wave or one mutating job), the
//! service seals the executions that step ran live into one frame —
//! a record count followed by the records — appended to `journal.log`
//! and fsynced. A kill at any instant leaves the log ending either
//! before that frame or after it; a frame torn by the kill is cut off
//! on resume, so a step is journaled whole or not at all. Framing,
//! checksums and file I/O are `gts-ckpt`'s (DESIGN.md "On-disk
//! formats"); this module owns the record codec and the binding.
//!
//! ## Resume model
//!
//! The scheduler is a pure function of `(workload, service seed)`, so a
//! resumed daemon does not reconstruct queue state from the journal — it
//! *re-runs the whole simulation* and uses the journal as a memo table:
//! every `(job, attempt)` execution whose `ExecRecord` was journaled
//! is served from the record instead of touching the engine (settled
//! jobs are never re-run; a journaled mutation re-applies its batch
//! directly so the store fast-forwards through the same epochs), while
//! in-flight work — attempts with no record — executes fresh,
//! deterministically reproducing what the crashed run would have done.
//! Admissions, start times, retries and quarantines are recomputed by
//! that re-run, so none of them is stored. The header binds the journal
//! to its workload, store, and normalized config (host threads excluded
//! — resuming at a different `--host-threads` is part of the
//! determinism contract), with typed [`ServeError::Journal`] mismatches.

use crate::workload::{render, JobSpec};
use crate::ServeError;
use gts_ckpt::{
    fnv1a, ByteReader, ByteWriter, CkptError, KillSwitch, LogFormat, LogImage, SealedLog,
};
use gts_storage::GraphStore;
use gts_telemetry::{keys, Telemetry};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// The journal's file name inside its directory.
pub const JOURNAL_FILE: &str = "journal.log";

/// Where the service journal lives and whether this run resumes from it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalConfig {
    /// Directory holding the journal's log file.
    pub dir: PathBuf,
    /// Resume from the journal in `dir` instead of starting a fresh one.
    pub resume: bool,
}

impl JournalConfig {
    /// A journal at `dir`, starting fresh.
    pub fn new(dir: impl Into<PathBuf>) -> JournalConfig {
        JournalConfig {
            dir: dir.into(),
            resume: false,
        }
    }
}

/// The memoized result of one `(job, attempt)` engine execution — the
/// payload a resumed service replays instead of re-running the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ExecRecord {
    /// Position in the arrival-sorted workload.
    pub job: u32,
    /// 1-based execution attempt.
    pub attempt: u32,
    /// Whether the engine run completed.
    pub ok: bool,
    /// The engine's error rendering when `!ok` (empty otherwise).
    pub error: String,
    /// Simulated service time of the run (0 when `!ok`).
    pub service_ns: u64,
    /// FNV-1a fingerprint of the program's final state (0 when `!ok`).
    pub result_fp: u64,
    /// The store epoch after this execution's bump, when it advanced
    /// one (mutating jobs only; a bump always leaves the epoch >= 1).
    pub epoch: Option<u64>,
    /// The job's full counter registry.
    pub counters: BTreeMap<String, u64>,
}

/// A sealed-log failure as the service reports it: a fired kill switch
/// keeps its identity, everything else is an unusable journal.
pub(crate) fn jerr(e: CkptError) -> ServeError {
    match e {
        CkptError::InjectedCrash { step } => ServeError::InjectedCrash { step },
        e => ServeError::Journal(e.to_string()),
    }
}

/// The identity a journal is bound to. `cfg_fp` is computed from the
/// scheduler's config rendering, whose engine part is
/// `gts_core::config_fingerprint` (host threads set aside) and which
/// leaves the crash step out, so a journal written at `--host-threads 4`
/// resumes at 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Header {
    pub workload_fp: u64,
    pub store_fp: u64,
    pub cfg_fp: u64,
    /// Binding to the mutation WAL's epoch range: a fingerprint of the
    /// log's base epoch when the service keeps a WAL, 0 otherwise. A
    /// resume pointed at a WAL whose chain starts elsewhere — or at no
    /// WAL when the journal was written with one — is refused, typed.
    pub wal_fp: u64,
}

impl Header {
    pub(crate) fn bind(
        jobs: &[JobSpec],
        store: &GraphStore,
        cfg_rendering: &str,
        wal_fp: u64,
    ) -> Header {
        Header {
            workload_fp: fnv1a(render(jobs).as_bytes()),
            store_fp: gts_core::store_fingerprint(store),
            cfg_fp: fnv1a(cfg_rendering.as_bytes()),
            wal_fp,
        }
    }

    /// The four fingerprints with the name each goes by in a mismatch.
    fn fields(&self) -> [(&'static str, u64); 4] {
        [
            ("workload", self.workload_fp),
            ("store", self.store_fp),
            ("config", self.cfg_fp),
            ("wal", self.wal_fp),
        ]
    }

    fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        for (_, fp) in self.fields() {
            w.put_u64(fp);
        }
        w.into_bytes()
    }

    fn decode(binding: &[u8]) -> Result<Header, CkptError> {
        let mut r = ByteReader::new(binding);
        let header = Header {
            workload_fp: r.take_u64("workload fingerprint")?,
            store_fp: r.take_u64("store fingerprint")?,
            cfg_fp: r.take_u64("config fingerprint")?,
            wal_fp: r.take_u64("wal fingerprint")?,
        };
        r.finish()?;
        Ok(header)
    }
}

/// The fingerprint a journal header binds its mutation WAL by: the
/// log's base epoch, where the chain its journaled epoch bumps extend
/// starts. Shared by the service and `gts fsck`.
pub fn wal_binding_fp(wal: &gts_storage::Wal) -> u64 {
    fnv1a(&wal.header().base_epoch.to_le_bytes())
}

/// One journal's decoded identity and shape — the non-mutating view
/// [`inspect_journal`] hands an offline verifier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalInfo {
    /// The base store's [`gts_core::store_fingerprint`].
    pub store_fp: u64,
    /// Binding to the mutation WAL's base epoch (0 when none was kept).
    pub wal_fp: u64,
    /// Total execution records in the journal's sealed frames.
    pub records: usize,
    /// Post-bump store epochs of the journaled executions that advanced
    /// one, in log order.
    pub epochs: Vec<u64>,
    /// Bytes at the end of the log that form no sealed frame — a step
    /// torn by a kill, which a resume cuts off.
    pub truncated_tail: u64,
}

/// Load and decode the journal in `dir` without a service to bind
/// against and without modifying it — the `gts fsck` entry point. Typed
/// [`ServeError::Journal`] when the log is absent, corrupt, or of
/// another version.
pub fn inspect_journal(dir: impl Into<PathBuf>) -> Result<JournalInfo, ServeError> {
    let image =
        SealedLog::load(&dir.into().join(JOURNAL_FILE), &LogFormat::JOURNAL).map_err(jerr)?;
    let (header, records) = decode_image(&image)?;
    let epochs = records.iter().filter_map(|e| e.epoch).collect();
    Ok(JournalInfo {
        store_fp: header.store_fp,
        wal_fp: header.wal_fp,
        records: records.len(),
        epochs,
        truncated_tail: image.truncated_tail(),
    })
}

/// The header and every record of a loaded journal, frames flattened in
/// log order.
fn decode_image(image: &LogImage) -> Result<(Header, Vec<ExecRecord>), ServeError> {
    let header = Header::decode(image.binding()).map_err(jerr)?;
    let mut records = Vec::new();
    for frame in image.frames() {
        records.extend(decode(frame).map_err(jerr)?);
    }
    Ok((header, records))
}

/// One frame body: the executions one scheduler step ran live.
fn encode(records: &[ExecRecord]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u32(records.len() as u32);
    for e in records {
        w.put_u32(e.job);
        w.put_u32(e.attempt);
        w.put_bool(e.ok);
        w.put_str(&e.error);
        w.put_u64(e.service_ns);
        w.put_u64(e.result_fp);
        w.put_u64(e.epoch.unwrap_or(0));
        w.put_u32(e.counters.len() as u32);
        for (k, v) in &e.counters {
            w.put_str(k);
            w.put_u64(*v);
        }
    }
    w.into_bytes()
}

/// Encoded bytes of the smallest record (empty error, no counters) and
/// of the smallest counter (empty key): what bounds a count read from
/// the frame before anything is allocated for it.
const MIN_RECORD_BYTES: usize = 4 + 4 + 1 + 8 + 8 + 8 + 8 + 4;
const MIN_COUNTER_BYTES: usize = 8 + 8;

/// The largest number of items of at least `width` bytes each that the
/// `remaining` bytes can hold, or `claimed` when that is fewer.
fn fits(claimed: u32, remaining: usize, width: usize) -> usize {
    (claimed as usize).min(remaining / width)
}

fn decode(bytes: &[u8]) -> Result<Vec<ExecRecord>, CkptError> {
    let mut r = ByteReader::new(bytes);
    let n = r.take_u32("record count")?;
    let mut records = Vec::with_capacity(fits(n, r.remaining(), MIN_RECORD_BYTES));
    for _ in 0..n {
        let job = r.take_u32("exec job")?;
        let attempt = r.take_u32("exec attempt")?;
        let ok = match r.take_u8("exec ok")? {
            0 => false,
            1 => true,
            other => {
                return Err(CkptError::Corrupt {
                    reason: format!("exec ok byte {other} is neither 0 nor 1"),
                })
            }
        };
        let error = r.take_str("exec error")?;
        let service_ns = r.take_u64("exec service")?;
        let result_fp = r.take_u64("exec result fp")?;
        let epoch = r.take_u64("exec epoch")?;
        let k = r.take_u32("exec counter count")?;
        // `encode` writes a registry in key order, so the map is built
        // in one bulk pass from the sorted run; a key out of that order
        // or repeated was not written by `encode`.
        let mut sorted: Vec<(String, u64)> =
            Vec::with_capacity(fits(k, r.remaining(), MIN_COUNTER_BYTES));
        for _ in 0..k {
            let key = r.take_str("exec counter key")?;
            if sorted.last().is_some_and(|(prev, _)| *prev >= key) {
                return Err(CkptError::Corrupt {
                    reason: format!(
                        "exec counter key {key:?} is out of order or repeated in record \
                         ({job}, {attempt})"
                    ),
                });
            }
            sorted.push((key, r.take_u64("exec counter value")?));
        }
        let counters = BTreeMap::from_iter(sorted);
        records.push(ExecRecord {
            job,
            attempt,
            ok,
            error,
            service_ns,
            result_fp,
            epoch: (epoch > 0).then_some(epoch),
            counters,
        });
    }
    r.finish()?;
    Ok(records)
}

/// The live journal: the open log, the executions appended since the
/// last flush, and the memo table of executions sealed before a crash.
#[derive(Debug)]
pub(crate) struct Journal {
    log: SealedLog,
    /// Executions appended since the last flush — the next frame.
    pending: Vec<ExecRecord>,
    /// Records sealed in the log so far.
    sealed: usize,
    cached: BTreeMap<(u32, u32), ExecRecord>,
}

impl Journal {
    /// Start a fresh journal at `cfg.dir` bound to `header`, or on
    /// `cfg.resume` open the one there (cutting off a torn last step),
    /// verify its binding and load its memo table. A resume with no
    /// journal, or one bound to a different workload/store/config, is a
    /// typed error. `kill` gates every durable step of the log.
    pub(crate) fn open(
        cfg: &JournalConfig,
        header: Header,
        kill: KillSwitch,
    ) -> Result<Journal, ServeError> {
        let path = cfg.dir.join(JOURNAL_FILE);
        if !cfg.resume {
            return Ok(Journal {
                log: SealedLog::create(&path, &LogFormat::JOURNAL, &header.encode(), kill)
                    .map_err(jerr)?,
                pending: Vec::new(),
                sealed: 0,
                cached: BTreeMap::new(),
            });
        }
        let (log, image) = SealedLog::open(&path, &LogFormat::JOURNAL, kill).map_err(jerr)?;
        let (found, records) = decode_image(&image)?;
        for ((what, found), (_, want)) in found.fields().into_iter().zip(header.fields()) {
            if found != want {
                return Err(ServeError::Journal(format!(
                    "{what} fingerprint mismatch: journal {found:#x}, this run {want:#x}"
                )));
            }
        }
        let sealed = records.len();
        let cached = records
            .into_iter()
            .map(|e| ((e.job, e.attempt), e))
            .collect();
        Ok(Journal {
            log,
            pending: Vec::new(),
            sealed,
            cached,
        })
    }

    /// The memoized execution of `(job, attempt)`, when it settled
    /// before the crash.
    pub(crate) fn cached(&self, job: u32, attempt: u32) -> Option<&ExecRecord> {
        self.cached.get(&(job, attempt))
    }

    /// [`Journal::cached`], moved out of the memo table: an attempt
    /// settles once, so its record is handed over rather than copied.
    pub(crate) fn take(&mut self, job: u32, attempt: u32) -> Option<ExecRecord> {
        self.cached.remove(&(job, attempt))
    }

    /// Append one live execution (memo hits are already in the log from
    /// the crashed run).
    pub(crate) fn append(&mut self, rec: ExecRecord) {
        self.pending.push(rec);
    }

    /// Seal the executions appended since the last flush as one frame,
    /// fsynced before this returns, and account the I/O under the
    /// wall-side `serve.journal.*` keys. A step that settled nothing new
    /// (every attempt a memo hit, or every arrival dropped) writes
    /// nothing.
    pub(crate) fn flush(&mut self, tel: &Telemetry) -> Result<(), ServeError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let bytes = self.log.append(&encode(&self.pending)).map_err(jerr)?;
        self.sealed += self.pending.len();
        self.pending.clear();
        tel.add(keys::SERVE_JOURNAL_FLUSHES, 1);
        tel.set(keys::SERVE_JOURNAL_RECORDS, self.sealed as u64);
        tel.add(keys::SERVE_JOURNAL_BYTES, bytes);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn tempdir(tag: &str) -> PathBuf {
        static N: AtomicU32 = AtomicU32::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "gts-serve-journal-{}-{tag}-{n}",
            std::process::id()
        ))
    }

    fn exec(job: u32, attempt: u32, epoch: Option<u64>) -> ExecRecord {
        ExecRecord {
            job,
            attempt,
            ok: true,
            error: String::new(),
            service_ns: 1234,
            result_fp: 0xFEED,
            epoch,
            counters: BTreeMap::from([("run.sweeps".to_string(), 3u64)]),
        }
    }

    fn sample_records() -> Vec<ExecRecord> {
        let failed = ExecRecord {
            ok: false,
            error: "gpu0: H2D copy failed after 5 attempts".into(),
            service_ns: 0,
            result_fp: 0,
            counters: BTreeMap::new(),
            ..exec(0, 1, None)
        };
        vec![failed, exec(1, 2, Some(1)), exec(2, 1, None)]
    }

    #[test]
    fn records_round_trip_through_the_codec() {
        let header = Header {
            workload_fp: 1,
            store_fp: 2,
            cfg_fp: 3,
            wal_fp: 4,
        };
        assert_eq!(Header::decode(&header.encode()).unwrap(), header);
        let records = sample_records();
        assert_eq!(decode(&encode(&records)).unwrap(), records);
    }

    #[test]
    fn truncated_or_mislabeled_bytes_are_typed_errors() {
        let bytes = encode(&sample_records());
        let err = jerr(decode(&bytes[..bytes.len() - 3]).unwrap_err());
        assert!(matches!(err, ServeError::Journal(_)), "{err}");
        // A binding of the wrong width is not a journal header.
        assert!(Header::decode(&[0; 31]).is_err());
    }

    /// `encode`, with each record's counters written from a list — in
    /// the list's order and multiplicity — instead of its map.
    fn encode_listed(records: &[(ExecRecord, Vec<(String, u64)>)]) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u32(records.len() as u32);
        for (e, counters) in records {
            w.put_u32(e.job);
            w.put_u32(e.attempt);
            w.put_bool(e.ok);
            w.put_str(&e.error);
            w.put_u64(e.service_ns);
            w.put_u64(e.result_fp);
            w.put_u64(e.epoch.unwrap_or(0));
            w.put_u32(counters.len() as u32);
            for (k, v) in counters {
                w.put_str(k);
                w.put_u64(*v);
            }
        }
        w.into_bytes()
    }

    const KEYS: [&str; 8] = [
        "",
        "gpu0.kernels",
        "gpu1.kernels",
        "run.sweeps",
        "sweep0.pages",
        "sweep10.pages",
        "tenant.a.cache.hits",
        "tenant.é.cache.hits",
    ];

    fn arb_records() -> impl Strategy<Value = Vec<ExecRecord>> {
        let record = (
            (0u32..300, 1u32..4, 0u8..2, 0usize..3),
            (0u64..1 << 40, 0u64..u64::MAX, 0u64..4),
            proptest::collection::vec((0usize..KEYS.len(), 0u64..u64::MAX), 0..8),
        )
            .prop_map(
                |((job, attempt, ok, error), (service_ns, result_fp, epoch), kv)| ExecRecord {
                    job,
                    attempt,
                    ok: ok == 1,
                    error: ["", "gpu0: H2D copy failed", "ünïcode"][error].to_string(),
                    service_ns,
                    result_fp,
                    epoch: (epoch > 0).then_some(epoch),
                    counters: kv
                        .into_iter()
                        .map(|(k, v)| (KEYS[k].to_string(), v))
                        .collect(),
                },
            );
        proptest::collection::vec(record, 0..5)
    }

    /// One damage to a frame body: a byte-level edit, or a counter list
    /// with one key moved out of order or repeated.
    #[derive(Debug, Clone)]
    enum Edit {
        None,
        Truncate(f64),
        Flip(f64, u8),
        Extend(Vec<u8>),
        /// Overwrite the `u32` at a position: a count, or any 4 bytes.
        Word(f64, u32),
        SwapCounters(usize, f64),
        RepeatCounter(usize, f64),
    }

    fn arb_edit() -> impl Strategy<Value = Edit> {
        prop_oneof![
            Just(Edit::None),
            (0.0f64..1.0).prop_map(Edit::Truncate),
            (0.0f64..1.0, 0u8..8).prop_map(|(at, bit)| Edit::Flip(at, bit)),
            proptest::collection::vec(0u8..=255, 1..24).prop_map(Edit::Extend),
            (0.0f64..1.0, 0u32..u32::MAX).prop_map(|(at, v)| Edit::Word(at, v)),
            (0.0f64..1.0).prop_map(|at| Edit::Word(at, u32::MAX)),
            (0usize..5, 0.0f64..1.0).prop_map(|(r, at)| Edit::SwapCounters(r, at)),
            (0usize..5, 0.0f64..1.0).prop_map(|(r, at)| Edit::RepeatCounter(r, at)),
        ]
    }

    /// The bytes of `records` after `edit`, and whether the edit must be
    /// refused (a key out of order or repeated is never `encode`'s).
    fn damaged(records: &[ExecRecord], edit: &Edit) -> (Vec<u8>, bool) {
        let mut bytes = encode(records);
        let at = |f: f64, len: usize| ((len.saturating_sub(1)) as f64 * f) as usize;
        let mut listed: Vec<(ExecRecord, Vec<(String, u64)>)> = records
            .iter()
            .map(|e| (e.clone(), e.counters.clone().into_iter().collect()))
            .collect();
        match *edit {
            Edit::None => return (bytes, false),
            Edit::Truncate(f) => bytes.truncate(at(f, bytes.len())),
            Edit::Flip(f, bit) => {
                let i = at(f, bytes.len());
                bytes[i] ^= 1 << bit;
            }
            Edit::Extend(ref tail) => bytes.extend_from_slice(tail),
            Edit::Word(f, v) => {
                let i = at(f, bytes.len().saturating_sub(3));
                if bytes.len() >= 4 {
                    bytes[i..i + 4].copy_from_slice(&v.to_le_bytes());
                }
            }
            Edit::SwapCounters(r, f) | Edit::RepeatCounter(r, f) => {
                let Some((_, list)) = listed.get_mut(r) else {
                    return (bytes, false);
                };
                let i = at(f, list.len());
                if matches!(edit, Edit::SwapCounters(..)) && list.len() >= 2 {
                    let j = i.min(list.len() - 2);
                    list.swap(j, j + 1);
                } else if matches!(edit, Edit::RepeatCounter(..)) && !list.is_empty() {
                    let copy = list[i].clone();
                    list.insert(i, copy);
                } else {
                    return (bytes, false);
                }
                return (encode_listed(&listed), true);
            }
        }
        (bytes, false)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// Damage an encoded frame body: the decoder returns a typed
        /// error or records that encode back to exactly the bytes it was
        /// given (the original records when nothing was changed), never
        /// panics, and never sizes an allocation from a count the bytes
        /// cannot hold (a `u32::MAX` count would abort the test).
        #[test]
        fn a_damaged_frame_body_decodes_exactly_or_is_refused(
            records in arb_records(),
            edit in arb_edit(),
        ) {
            let listed: Vec<_> = records
                .iter()
                .map(|e| (e.clone(), e.counters.clone().into_iter().collect()))
                .collect();
            prop_assert_eq!(encode_listed(&listed), encode(&records));
            let (bytes, refused) = damaged(&records, &edit);
            match decode(&bytes) {
                Ok(got) => {
                    prop_assert!(!refused, "{:?} was accepted", edit);
                    prop_assert_eq!(encode(&got), bytes.clone(), "{:?}", edit);
                    if matches!(edit, Edit::None) {
                        prop_assert_eq!(got, records.clone());
                    }
                }
                Err(e) => {
                    prop_assert!(!matches!(edit, Edit::None), "{:?}", e);
                    prop_assert!(
                        matches!(e, CkptError::Corrupt { .. } | CkptError::Truncated { .. }),
                        "{:?}: {:?}", edit, e
                    );
                    if refused {
                        prop_assert!(matches!(e, CkptError::Corrupt { .. }), "{:?}", e);
                    }
                }
            }
        }
    }

    #[test]
    fn flush_load_resume_verifies_the_binding() {
        let dir = tempdir("bind");
        let header = Header {
            workload_fp: 11,
            store_fp: 22,
            cfg_fp: 33,
            wal_fp: 44,
        };
        let tel = Telemetry::new();
        let mut j = Journal::open(&JournalConfig::new(&dir), header, KillSwitch::never()).unwrap();
        for r in sample_records() {
            j.append(r);
        }
        j.flush(&tel).unwrap();
        assert_eq!(tel.counter(keys::SERVE_JOURNAL_FLUSHES), 1);
        assert_eq!(tel.counter(keys::SERVE_JOURNAL_RECORDS), 3);

        // Resume with the same binding: the memo table holds both execs.
        let resume = JournalConfig {
            dir: dir.clone(),
            resume: true,
        };
        let j2 = Journal::open(&resume, header, KillSwitch::never()).unwrap();
        assert!(!j2.cached(0, 1).unwrap().ok);
        assert_eq!(j2.cached(1, 2).unwrap().service_ns, 1234);
        assert_eq!(j2.cached(9, 1), None);

        // A different workload fingerprint is refused, typed.
        let other = Header {
            workload_fp: 99,
            ..header
        };
        let err = Journal::open(&resume, other, KillSwitch::never()).unwrap_err();
        assert!(
            err.to_string().contains("workload fingerprint mismatch"),
            "{err}"
        );
        // Resuming an empty directory is refused, not silently fresh.
        let empty = JournalConfig {
            dir: tempdir("empty"),
            resume: true,
        };
        assert!(matches!(
            Journal::open(&empty, header, KillSwitch::never()),
            Err(ServeError::Journal(_))
        ));
        // A journal of the v3 layout (five record kinds) is refused,
        // typed, with no attempt to read it.
        let path = dir.join(JOURNAL_FILE);
        let mut raw = std::fs::read(&path).unwrap();
        raw[8..12].copy_from_slice(&3u32.to_le_bytes());
        std::fs::write(&path, raw).unwrap();
        let err = Journal::open(&resume, header, KillSwitch::never()).unwrap_err();
        assert!(err.to_string().contains("version 3"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `flush` writes O(new bytes): each step is one frame appended to
    /// the same file, and a resumed journal keeps appending where the
    /// crashed one stopped.
    #[test]
    #[cfg(unix)]
    fn flushes_append_one_frame_each_to_the_same_file() {
        use std::os::unix::fs::MetadataExt;
        let dir = tempdir("append");
        let header = Header {
            workload_fp: 1,
            store_fp: 2,
            cfg_fp: 3,
            wal_fp: 0,
        };
        let path = dir.join(JOURNAL_FILE);
        let tel = Telemetry::new();
        let mut j = Journal::open(&JournalConfig::new(&dir), header, KillSwitch::never()).unwrap();
        let created = std::fs::metadata(&path).unwrap();
        let mut len = created.len();
        for (step, r) in sample_records().into_iter().enumerate() {
            let frame = 4 + encode(std::slice::from_ref(&r)).len() as u64 + 8;
            j.append(r);
            j.flush(&tel).unwrap();
            j.flush(&tel).unwrap(); // nothing pending: no write, no count
            let now = std::fs::metadata(&path).unwrap();
            assert_eq!(now.len(), len + frame, "step {step} grew by its frame");
            assert_eq!(now.ino(), created.ino(), "same file, not a replacement");
            len = now.len();
            assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1, "no siblings");
        }
        assert_eq!(tel.counter(keys::SERVE_JOURNAL_FLUSHES), 3);
        assert_eq!(tel.counter("serve.journal.bytes"), len - created.len());
        drop(j);

        let resume = JournalConfig {
            dir: dir.clone(),
            resume: true,
        };
        let mut j = Journal::open(&resume, header, KillSwitch::never()).unwrap();
        j.append(exec(7, 1, Some(2)));
        j.flush(&tel).unwrap();
        assert_eq!(tel.counter(keys::SERVE_JOURNAL_RECORDS), 4);
        let info = inspect_journal(&dir).unwrap();
        assert_eq!((info.records, info.truncated_tail), (4, 0));
        assert_eq!(info.epochs, vec![1, 2]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
