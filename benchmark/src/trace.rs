//! The benchmark's own tracer: a span around every call into a layer's
//! public function, recorded from this side of the API (spans inside the
//! crates are a later change). Spans stay in memory and are written out
//! once, at exit. With tracing off every method is a no-op, which is how
//! the end-to-end metrics are measured.

use crate::json::{obj, Json};
use crate::stats;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. `parent` indexes the tracer's span list; `op` is
/// shared by all spans of one run / batch / job.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
    /// Counts read at this boundary (`"ctr"` metrics), e.g. edges.
    counts: Vec<(&'static str, u64)>,
}

/// Handle returned by [`Tracer::begin`]; `None` when tracing is off.
#[derive(Clone, Copy)]
pub struct SpanId(Option<usize>);

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span named `layer:function` for operation `op`, child of
    /// the innermost open span.
    pub fn begin(&mut self, name: &'static str, op: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let now = self.now();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            op,
            counts: Vec::new(),
        });
        self.stack.push(self.spans.len() - 1);
        SpanId(Some(self.spans.len() - 1))
    }

    /// Close `id` (and anything left open inside it).
    pub fn end(&mut self, id: SpanId) {
        let Some(i) = id.0 else { return };
        self.spans[i].end_ns = self.now();
        while self.stack.pop().is_some_and(|top| top != i) {}
    }

    /// Attach a count to an open or closed span.
    pub fn count(&mut self, id: SpanId, key: &'static str, value: u64) {
        if let Some(i) = id.0 {
            self.spans[i].counts.push((key, value));
        }
    }

    /// Time `f` under a span.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, op);
        let r = f();
        self.end(id);
        r
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per span name: calls, total time and self time (duration minus the
    /// part covered by child spans), in nanoseconds.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let bounds: Vec<stats::SpanBounds> = self
            .spans
            .iter()
            .map(|s| (s.start_ns, s.end_ns, s.parent))
            .collect();
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(stats::self_times(&bounds)) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.end_ns - s.start_ns;
            e.2 += own;
        }
        out
    }

    /// The whole trace as JSON: the spans and the per-name summary.
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                let mut fields = vec![
                    ("name", Json::from(s.name)),
                    ("start_ns", Json::from(s.start_ns)),
                    ("end_ns", Json::from(s.end_ns)),
                    ("parent", s.parent.map_or(Json::Null, Json::from)),
                    ("op", Json::from(s.op)),
                ];
                if !s.counts.is_empty() {
                    fields.push((
                        "counts",
                        obj(s.counts.iter().map(|&(k, v)| (k, Json::from(v)))),
                    ));
                }
                obj(fields)
            })
            .collect();
        let summary = self
            .summary()
            .into_iter()
            .map(|(name, (calls, total, own))| {
                (
                    name,
                    obj([
                        ("calls", Json::from(calls)),
                        ("total_ns", Json::from(total)),
                        ("self_ns", Json::from(own)),
                    ]),
                )
            });
        obj([("summary", obj(summary)), ("spans", Json::Arr(spans))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_share_the_op() {
        let mut t = Tracer::new(true);
        let root = t.begin("op:run", 7);
        let inner = t.span("core:Gts::run", 7, || 42);
        assert_eq!(inner, 42);
        t.count(root, "edges", 10);
        t.end(root);
        let after = t.begin("op:run", 8);
        t.end(after);
        assert_eq!(t.len(), 3);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, None);
        let sum = t.summary();
        assert_eq!(sum["op:run"].0, 2);
        let (_, total, own) = sum["op:run"];
        assert_eq!(total - own, sum["core:Gts::run"].1);
        let json = t.to_json();
        assert_eq!(
            json.at(&["spans"]).unwrap().as_arr().unwrap()[0]
                .at(&["counts", "edges"])
                .unwrap()
                .as_f64(),
            Some(10.0)
        );
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x", 0);
        t.count(id, "k", 1);
        t.end(id);
        assert_eq!(t.span("y", 0, || 1), 1);
        assert_eq!(t.len(), 0);
    }
}
