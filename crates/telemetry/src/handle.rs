//! The shared [`Telemetry`] handle.

use crate::span::{Span, SpanCat, Track};
use gts_sim::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

#[derive(Debug, Default)]
pub(crate) struct Inner {
    pub(crate) spans_enabled: bool,
    pub(crate) spans: Vec<Span>,
    pub(crate) counters: BTreeMap<String, u64>,
    pub(crate) hists: BTreeMap<String, Vec<u64>>,
    pub(crate) process_names: BTreeMap<u32, String>,
    pub(crate) thread_names: BTreeMap<Track, String>,
}

/// Percentile summary of one histogram, on exact nearest-rank values (no
/// interpolation: every reported number is one of the observations, so
/// deterministic inputs give byte-stable summaries).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistSummary {
    /// Number of observations.
    pub count: u64,
    /// 50th percentile (nearest rank).
    pub p50: u64,
    /// 95th percentile (nearest rank).
    pub p95: u64,
    /// 99th percentile (nearest rank).
    pub p99: u64,
}

/// Shared recording surface for one run: spans + counters.
///
/// Cloning is cheap (an `Arc` bump); every component of a run — engine,
/// GPU timers, page caches, MMBuf, storage array — holds a clone of the
/// same handle. All methods take `&self`; the handle is `Send + Sync`.
///
/// Lifecycle: [`Telemetry::start_run`] clears all recorded state, so one
/// recording covers exactly one run. Engines call it at the top of their
/// `run()`.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Arc<Mutex<Inner>>,
}

impl Telemetry {
    /// Counters-only telemetry (spans dropped). The default for every
    /// engine: a run costs a handful of integer adds.
    pub fn new() -> Self {
        Self::default()
    }

    /// Telemetry that also records spans (needed for
    /// [`Telemetry::to_chrome_trace`] / [`Telemetry::render_ascii`]).
    /// A large run can produce one span per page per stream, so this is
    /// opt-in.
    pub fn with_spans() -> Self {
        let t = Self::default();
        t.inner.lock().unwrap().spans_enabled = true;
        t
    }

    /// Whether spans are being recorded.
    pub fn spans_enabled(&self) -> bool {
        self.inner.lock().unwrap().spans_enabled
    }

    /// Reset all recorded state (spans, counters, track names) so the next
    /// run starts clean. Span recording stays enabled/disabled as before.
    pub fn start_run(&self) {
        let mut g = self.inner.lock().unwrap();
        g.spans.clear();
        g.counters.clear();
        g.hists.clear();
        g.process_names.clear();
        g.thread_names.clear();
    }

    /// Record one busy interval. No-op when spans are disabled.
    pub fn record_span(
        &self,
        track: Track,
        cat: SpanCat,
        name: impl Into<String>,
        start: SimTime,
        end: SimTime,
    ) {
        let mut g = self.inner.lock().unwrap();
        if !g.spans_enabled {
            return;
        }
        debug_assert!(end >= start, "span must not end before it starts");
        g.spans.push(Span {
            track,
            name: name.into(),
            cat,
            start,
            end,
        });
    }

    /// Name a process track (chrome-trace `process_name`, ASCII row prefix).
    pub fn name_process(&self, pid: u32, name: impl Into<String>) {
        self.inner
            .lock()
            .unwrap()
            .process_names
            .insert(pid, name.into());
    }

    /// Name a thread track.
    pub fn name_thread(&self, track: Track, name: impl Into<String>) {
        self.inner
            .lock()
            .unwrap()
            .thread_names
            .insert(track, name.into());
    }

    /// Add `delta` to counter `key` (creating it at zero).
    pub fn add(&self, key: impl AsRef<str>, delta: u64) {
        if delta == 0 {
            return;
        }
        let mut g = self.inner.lock().unwrap();
        *g.counters.entry(key.as_ref().to_owned()).or_insert(0) += delta;
    }

    /// Overwrite counter `key` with `value` (for gauges like capacities).
    pub fn set(&self, key: impl AsRef<str>, value: u64) {
        let mut g = self.inner.lock().unwrap();
        g.counters.insert(key.as_ref().to_owned(), value);
    }

    /// Raise counter `key` to `value` if larger (for peaks).
    pub fn max(&self, key: impl AsRef<str>, value: u64) {
        let mut g = self.inner.lock().unwrap();
        let e = g.counters.entry(key.as_ref().to_owned()).or_insert(0);
        *e = (*e).max(value);
    }

    /// Current value of counter `key` (zero if never touched).
    pub fn counter(&self, key: impl AsRef<str>) -> u64 {
        self.inner
            .lock()
            .unwrap()
            .counters
            .get(key.as_ref())
            .copied()
            .unwrap_or(0)
    }

    /// Snapshot of the whole counter registry.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        self.inner.lock().unwrap().counters.clone()
    }

    /// Snapshot of the counters under the determinism contract: all but
    /// the keys declared Diagnostic (an undeclared key stays, so it
    /// cannot hide a difference).
    pub fn contract_counters(&self) -> BTreeMap<String, u64> {
        let mut c = self.counters();
        c.retain(|k, _| crate::keys::class(k) != Some(crate::keys::Class::Diagnostic));
        c
    }

    /// Snapshot of all recorded spans, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.inner.lock().unwrap().spans.clone()
    }

    /// Number of recorded spans.
    pub fn span_count(&self) -> usize {
        self.inner.lock().unwrap().spans.len()
    }

    /// Total busy time per track, keyed by display name.
    pub fn busy_per_track(&self) -> BTreeMap<String, SimDuration> {
        let g = self.inner.lock().unwrap();
        let mut out = BTreeMap::new();
        for s in &g.spans {
            *out.entry(crate::trace::track_label(&g, s.track))
                .or_insert(SimDuration::ZERO) += s.end - s.start;
        }
        out
    }

    /// Record one observation under histogram `key` (creating it empty).
    /// Histograms keep every value, in recording order — percentile math
    /// is exact nearest-rank over the full population, never a sketch.
    pub fn observe(&self, key: impl AsRef<str>, value: u64) {
        let mut g = self.inner.lock().unwrap();
        g.hists
            .entry(key.as_ref().to_owned())
            .or_default()
            .push(value);
    }

    /// The observations recorded under `key`, in recording order (empty
    /// if the histogram was never touched).
    pub fn observations(&self, key: impl AsRef<str>) -> Vec<u64> {
        self.inner
            .lock()
            .unwrap()
            .hists
            .get(key.as_ref())
            .cloned()
            .unwrap_or_default()
    }

    /// Snapshot of every histogram's observations, in recording order.
    pub fn histograms(&self) -> BTreeMap<String, Vec<u64>> {
        self.inner.lock().unwrap().hists.clone()
    }

    /// The `p`-th percentile of histogram `key` by the nearest-rank
    /// method: the value at sorted rank `ceil(p·n/100)` (clamped into
    /// `1..=n`), so the result is always one of the observations — no
    /// interpolation, no ambiguity on deterministic inputs. `None` when
    /// the histogram is empty.
    pub fn percentile(&self, key: impl AsRef<str>, p: u32) -> Option<u64> {
        let g = self.inner.lock().unwrap();
        let values = g.hists.get(key.as_ref())?;
        percentile_of(values, p)
    }

    /// Nearest-rank `count`/`p50`/`p95`/`p99` per histogram. Empty
    /// histograms never exist (a histogram is created by its first
    /// observation), so every summary is total.
    pub fn histogram_summaries(&self) -> BTreeMap<String, HistSummary> {
        let g = self.inner.lock().unwrap();
        g.hists
            .iter()
            .filter_map(|(k, v)| {
                Some((
                    k.clone(),
                    HistSummary {
                        count: v.len() as u64,
                        p50: percentile_of(v, 50)?,
                        p95: percentile_of(v, 95)?,
                        p99: percentile_of(v, 99)?,
                    },
                ))
            })
            .collect()
    }

    /// Render every histogram's summary as one JSON object, keys sorted:
    /// `{"k":{"count":n,"p50":...,"p95":...,"p99":...},...}`. `{}` with
    /// no histograms. Byte-stable for byte-identical observation streams.
    pub fn histograms_to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (key, s)) in self.histogram_summaries().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{key}\":{{\"count\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
                s.count, s.p50, s.p95, s.p99
            ));
        }
        out.push('}');
        out
    }

    pub(crate) fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap()
    }
}

/// Nearest-rank percentile over `values`: sort a copy, take the value at
/// rank `ceil(p·n/100)`, clamped into `1..=n`. `None` only when empty.
fn percentile_of(values: &[u64], p: u32) -> Option<u64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let n = sorted.len() as u64;
    let rank = (u64::from(p) * n).div_ceil(100).clamp(1, n);
    Some(sorted[(rank - 1) as usize])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn counters_accumulate_set_and_max() {
        let tel = Telemetry::new();
        tel.add("a", 3);
        tel.add("a", 4);
        assert_eq!(tel.counter("a"), 7);
        tel.set("a", 2);
        assert_eq!(tel.counter("a"), 2);
        tel.max("a", 10);
        tel.max("a", 5);
        assert_eq!(tel.counter("a"), 10);
        assert_eq!(tel.counter("never"), 0);
    }

    #[test]
    fn spans_dropped_unless_enabled() {
        let off = Telemetry::new();
        off.record_span(Track::new(0, 0), SpanCat::Copy, "x", t(0), t(1));
        assert_eq!(off.span_count(), 0);
        let on = Telemetry::with_spans();
        on.record_span(Track::new(0, 0), SpanCat::Copy, "x", t(0), t(1));
        assert_eq!(on.span_count(), 1);
    }

    #[test]
    fn start_run_clears_everything_but_keeps_mode() {
        let tel = Telemetry::with_spans();
        tel.add("a", 1);
        tel.record_span(Track::new(0, 0), SpanCat::Copy, "x", t(0), t(1));
        tel.start_run();
        assert_eq!(tel.counter("a"), 0);
        assert_eq!(tel.span_count(), 0);
        assert!(tel.spans_enabled());
        tel.record_span(Track::new(0, 0), SpanCat::Copy, "y", t(0), t(1));
        assert_eq!(tel.span_count(), 1);
    }

    #[test]
    fn clones_share_state() {
        let tel = Telemetry::new();
        let other = tel.clone();
        other.add("k", 5);
        assert_eq!(tel.counter("k"), 5);
    }

    #[test]
    fn concurrent_adds_from_scoped_threads_lose_nothing() {
        // The parallel engine (gts-exec pools) hands clones of one handle
        // to worker threads; the shared registry must absorb concurrent
        // increments exactly — counters are how determinism is audited, so
        // a single lost update would surface as a cross-run diff.
        let tel = Telemetry::new();
        const WORKERS: u64 = 8;
        const ADDS: u64 = 1_000;
        std::thread::scope(|scope| {
            for w in 0..WORKERS {
                let handle = tel.clone();
                scope.spawn(move || {
                    for i in 0..ADDS {
                        handle.add("shared", 1);
                        handle.add(format!("worker.{w}"), i);
                    }
                });
            }
        });
        assert_eq!(tel.counter("shared"), WORKERS * ADDS);
        for w in 0..WORKERS {
            assert_eq!(tel.counter(format!("worker.{w}")), ADDS * (ADDS - 1) / 2);
        }
    }

    #[test]
    fn percentile_exact_ranks_no_interpolation() {
        // Nearest-rank over n=10 distinct values: rank(p) = ceil(p*10/100).
        // Every assertion pins an exact observation — a switch to any
        // interpolating method would land between observations and fail.
        let tel = Telemetry::new();
        for v in [70, 30, 100, 10, 50, 90, 20, 60, 40, 80] {
            tel.observe("lat", v);
        }
        assert_eq!(tel.percentile("lat", 50), Some(50)); // rank 5
        assert_eq!(tel.percentile("lat", 95), Some(100)); // rank ceil(9.5)=10
        assert_eq!(tel.percentile("lat", 99), Some(100)); // rank ceil(9.9)=10
        assert_eq!(tel.percentile("lat", 100), Some(100));
        assert_eq!(tel.percentile("lat", 1), Some(10)); // rank ceil(0.1)=1
        assert_eq!(tel.percentile("lat", 0), Some(10)); // rank clamps to 1
        assert_eq!(tel.percentile("lat", 10), Some(10)); // rank 1 exactly
        assert_eq!(tel.percentile("lat", 11), Some(20)); // rank ceil(1.1)=2
        assert_eq!(tel.percentile("missing", 50), None);
    }

    #[test]
    fn percentile_singleton_and_duplicates() {
        let tel = Telemetry::new();
        tel.observe("one", 7);
        for p in [0, 1, 50, 99, 100] {
            assert_eq!(tel.percentile("one", p), Some(7));
        }
        // n=4 with duplicates: sorted = [5, 5, 5, 9].
        for v in [5, 9, 5, 5] {
            tel.observe("dup", v);
        }
        assert_eq!(tel.percentile("dup", 50), Some(5)); // rank 2
        assert_eq!(tel.percentile("dup", 75), Some(5)); // rank 3
        assert_eq!(tel.percentile("dup", 76), Some(9)); // rank ceil(3.04)=4
        assert_eq!(tel.percentile("dup", 99), Some(9)); // rank 4
    }

    #[test]
    fn histograms_snapshot_and_json_rendering() {
        let tel = Telemetry::new();
        for v in [3, 1, 2] {
            tel.observe("serve.lat.bfs", v);
        }
        tel.observe("serve.lat.pr", 40);
        // Snapshots keep recording order; summaries are nearest-rank.
        assert_eq!(tel.observations("serve.lat.bfs"), vec![3, 1, 2]);
        assert_eq!(tel.histograms().len(), 2);
        let sums = tel.histogram_summaries();
        assert_eq!(
            sums["serve.lat.bfs"],
            HistSummary {
                count: 3,
                p50: 2,
                p95: 3,
                p99: 3
            }
        );
        assert_eq!(
            sums["serve.lat.pr"],
            HistSummary {
                count: 1,
                p50: 40,
                p95: 40,
                p99: 40
            }
        );
        assert_eq!(
            tel.histograms_to_json(),
            "{\"serve.lat.bfs\":{\"count\":3,\"p50\":2,\"p95\":3,\"p99\":3},\
             \"serve.lat.pr\":{\"count\":1,\"p50\":40,\"p95\":40,\"p99\":40}}"
        );
        assert_eq!(Telemetry::new().histograms_to_json(), "{}");
    }

    #[test]
    fn start_run_clears_histograms() {
        let tel = Telemetry::new();
        tel.observe("h", 1);
        tel.start_run();
        assert!(tel.histograms().is_empty());
        assert_eq!(tel.percentile("h", 50), None);
    }

    #[test]
    fn busy_per_track_sums_by_track() {
        let tel = Telemetry::with_spans();
        let tr = Track::new(0, 3);
        tel.name_thread(tr, "stream0");
        tel.record_span(tr, SpanCat::Copy, "a", t(0), t(10));
        tel.record_span(tr, SpanCat::Kernel, "b", t(10), t(40));
        tel.record_span(Track::new(0, 4), SpanCat::Copy, "c", t(0), t(5));
        let busy = tel.busy_per_track();
        assert_eq!(busy["stream0"], SimDuration::from_nanos(40));
        assert_eq!(busy["0.4"], SimDuration::from_nanos(5));
    }
}
