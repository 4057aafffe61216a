//! Observability integration tests: the telemetry registry, the derived
//! [`RunReport`] view, span nesting on the simulated clock, and the
//! chrome://tracing JSON exporter — validated with a small self-contained
//! JSON parser (the workspace has no serde).

use gts_core::engine::{Gts, GtsConfig};
use gts_core::programs::{Bfs, PageRank};
use gts_core::Telemetry;
use gts_graph::generate::rmat;
use gts_storage::{build_graph_store, PageFormatConfig};
use gts_telemetry::{keys, SpanCat};

mod json {
    //! Minimal recursive-descent JSON parser, enough to validate the
    //! exporter's output structurally.

    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Array(Vec<Value>),
        Object(Vec<(String, Value)>),
    }

    impl Value {
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        pub fn as_num(&self) -> Option<f64> {
            match self {
                Value::Num(x) => Some(*x),
                _ => None,
            }
        }

        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        pub fn as_array(&self) -> Option<&[Value]> {
            match self {
                Value::Array(v) => Some(v),
                _ => None,
            }
        }
    }

    pub fn parse(s: &str) -> Result<Value, String> {
        let b = s.as_bytes();
        let mut i = 0usize;
        let v = value(b, &mut i)?;
        skip_ws(b, &mut i);
        if i != b.len() {
            return Err(format!("trailing garbage at byte {i}"));
        }
        Ok(v)
    }

    fn skip_ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && (b[*i] as char).is_ascii_whitespace() {
            *i += 1;
        }
    }

    fn expect(b: &[u8], i: &mut usize, c: u8) -> Result<(), String> {
        if *i < b.len() && b[*i] == c {
            *i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, i))
        }
    }

    fn value(b: &[u8], i: &mut usize) -> Result<Value, String> {
        skip_ws(b, i);
        match b.get(*i) {
            Some(b'{') => object(b, i),
            Some(b'[') => array(b, i),
            Some(b'"') => Ok(Value::Str(string(b, i)?)),
            Some(b't') => lit(b, i, "true", Value::Bool(true)),
            Some(b'f') => lit(b, i, "false", Value::Bool(false)),
            Some(b'n') => lit(b, i, "null", Value::Null),
            Some(_) => number(b, i),
            None => Err("unexpected end of input".into()),
        }
    }

    fn lit(b: &[u8], i: &mut usize, word: &str, v: Value) -> Result<Value, String> {
        if b[*i..].starts_with(word.as_bytes()) {
            *i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {i}"))
        }
    }

    fn number(b: &[u8], i: &mut usize) -> Result<Value, String> {
        let start = *i;
        while *i < b.len() && matches!(b[*i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
            *i += 1;
        }
        std::str::from_utf8(&b[start..*i])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Value::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(b: &[u8], i: &mut usize) -> Result<String, String> {
        expect(b, i, b'"')?;
        let mut out = String::new();
        while *i < b.len() {
            match b[*i] {
                b'"' => {
                    *i += 1;
                    return Ok(out);
                }
                b'\\' => {
                    *i += 1;
                    match b.get(*i) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = std::str::from_utf8(&b[*i + 1..*i + 5])
                                .map_err(|_| "bad \\u escape")?;
                            let cp = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                            *i += 4;
                        }
                        _ => return Err(format!("bad escape at byte {i}")),
                    }
                    *i += 1;
                }
                c => {
                    // Multi-byte UTF-8 passes through unchanged.
                    let ch_len = match c {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    out.push_str(
                        std::str::from_utf8(&b[*i..*i + ch_len]).map_err(|e| e.to_string())?,
                    );
                    *i += ch_len;
                }
            }
        }
        Err("unterminated string".into())
    }

    fn array(b: &[u8], i: &mut usize) -> Result<Value, String> {
        expect(b, i, b'[')?;
        let mut out = Vec::new();
        skip_ws(b, i);
        if b.get(*i) == Some(&b']') {
            *i += 1;
            return Ok(Value::Array(out));
        }
        loop {
            out.push(value(b, i)?);
            skip_ws(b, i);
            match b.get(*i) {
                Some(b',') => *i += 1,
                Some(b']') => {
                    *i += 1;
                    return Ok(Value::Array(out));
                }
                _ => return Err(format!("expected , or ] at byte {i}")),
            }
        }
    }

    fn object(b: &[u8], i: &mut usize) -> Result<Value, String> {
        expect(b, i, b'{')?;
        let mut out = Vec::new();
        skip_ws(b, i);
        if b.get(*i) == Some(&b'}') {
            *i += 1;
            return Ok(Value::Object(out));
        }
        loop {
            skip_ws(b, i);
            let k = string(b, i)?;
            skip_ws(b, i);
            expect(b, i, b':')?;
            out.push((k, value(b, i)?));
            skip_ws(b, i);
            match b.get(*i) {
                Some(b',') => *i += 1,
                Some(b'}') => {
                    *i += 1;
                    return Ok(Value::Object(out));
                }
                _ => return Err(format!("expected , or }} at byte {i}")),
            }
        }
    }
}

/// A small multi-stream BFS run with spans on, the Fig. 4 scenario.
fn traced_bfs_run() -> (gts_core::RunReport, Telemetry) {
    let store = build_graph_store(&rmat(10), PageFormatConfig::small_default()).unwrap();
    let engine = Gts::builder()
        .config(GtsConfig {
            num_streams: 8,
            cache_limit_bytes: Some(0), // force streaming so copy spans exist
            ..GtsConfig::default()
        })
        .telemetry(Telemetry::with_spans())
        .build()
        .unwrap();
    let mut bfs = Bfs::new(store.num_vertices(), 0);
    let report = engine.run(&store, &mut bfs).unwrap();
    (report, engine.telemetry().clone())
}

#[test]
fn chrome_trace_export_is_valid_and_monotone_per_track() {
    let (_, tel) = traced_bfs_run();
    let text = tel.to_chrome_trace();
    let root = json::parse(&text).expect("exporter must emit valid JSON");
    let events = root
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("top-level traceEvents array");
    assert!(events.len() > 10, "a traced run must produce events");

    let mut last_ts: std::collections::BTreeMap<(u64, u64), f64> = Default::default();
    let mut complete = 0usize;
    for ev in events {
        let ph = ev
            .get("ph")
            .and_then(|v| v.as_str())
            .expect("every event has ph");
        let ts = ev
            .get("ts")
            .and_then(|v| v.as_num())
            .expect("every event has ts");
        let pid = ev
            .get("pid")
            .and_then(|v| v.as_num())
            .expect("every event has pid");
        let tid = ev
            .get("tid")
            .and_then(|v| v.as_num())
            .expect("every event has tid");
        match ph {
            "M" => assert_eq!(ts, 0.0, "metadata events sit at ts 0"),
            "X" => {
                complete += 1;
                assert!(ev.get("dur").and_then(|v| v.as_num()).is_some());
                assert!(ev.get("name").and_then(|v| v.as_str()).is_some());
                assert!(ev.get("cat").and_then(|v| v.as_str()).is_some());
                // Within one track the exporter emits events in start
                // order — what chrome://tracing expects.
                let track = (pid as u64, tid as u64);
                if let Some(prev) = last_ts.insert(track, ts) {
                    assert!(ts >= prev, "ts must be monotone per track");
                }
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }
    assert!(complete > 0, "no complete events in the trace");
}

#[test]
fn cache_probes_partition_page_visits() {
    let (report, tel) = traced_bfs_run();
    let hits = tel.counter(keys::CACHE_HITS);
    let misses = tel.counter(keys::CACHE_MISSES);
    let visited: u64 = report.per_sweep.iter().map(|s| s.pages).sum();
    assert_eq!(
        hits + misses,
        visited,
        "every page visit is exactly one cache hit or one miss"
    );
    assert_eq!(misses, tel.counter(keys::PAGES_STREAMED));
}

#[test]
fn spans_are_well_nested_on_the_sim_clock() {
    let (_, tel) = traced_bfs_run();
    let spans = tel.spans();
    let run = spans
        .iter()
        .find(|s| s.cat == SpanCat::Run)
        .expect("a run span");
    for s in &spans {
        assert!(s.start <= s.end, "span {:?} runs backwards", s.name);
        assert!(
            run.start <= s.start && s.end <= run.end,
            "span {:?} [{}, {}] escapes the run span [{}, {}]",
            s.name,
            s.start,
            s.end,
            run.start,
            run.end
        );
    }
    // Sweeps tile the run: ordered, non-overlapping.
    let mut sweeps: Vec<_> = spans.iter().filter(|s| s.cat == SpanCat::Sweep).collect();
    sweeps.sort_by_key(|s| s.start);
    assert!(!sweeps.is_empty());
    for w in sweeps.windows(2) {
        assert!(w[0].end <= w[1].start, "sweep spans overlap");
    }
    // Every copy/kernel span lands inside some sweep span — except the WA
    // staging transfers, which bracket the sweep loop (initial upload
    // before sweep 0, readback after the last sweep) but stay in the run.
    for s in spans
        .iter()
        .filter(|s| matches!(s.cat, SpanCat::Copy | SpanCat::Kernel))
    {
        let in_a_sweep = sweeps
            .iter()
            .any(|sw| sw.start <= s.start && s.end <= sw.end);
        if s.cat == SpanCat::Copy && s.name.contains("WA") {
            continue;
        }
        assert!(
            in_a_sweep,
            "{:?} span {:?} outside all sweeps",
            s.cat, s.name
        );
    }
}

#[test]
fn sweep_spans_and_sweep_counters_share_one_timing_definition() {
    // The per-sweep `elapsed_ns` counter and the sweep span in the trace
    // must describe the same interval — both bracket Alg. 1 lines 13-30
    // (WA broadcast through write-backs). Check a traversal run (BFS) and
    // a sweep-mode run (PageRank, whose per-sweep WA broadcast makes the
    // sweep start earlier than the first page stream).
    let check = |tel: &Telemetry, report: &gts_core::RunReport| {
        let mut sweeps: Vec<_> = tel
            .spans()
            .into_iter()
            .filter(|s| s.cat == SpanCat::Sweep)
            .collect();
        sweeps.sort_by_key(|s| s.start);
        assert_eq!(sweeps.len(), report.sweeps as usize);
        for (j, span) in sweeps.iter().enumerate() {
            let counter = tel.counter(keys::sweep(j as u32, keys::SWEEP_ELAPSED_NS));
            assert_eq!(
                (span.end - span.start).as_nanos(),
                counter,
                "sweep {j}: span duration and elapsed_ns counter disagree"
            );
        }
    };

    let (report, tel) = traced_bfs_run();
    check(&tel, &report);

    let store = build_graph_store(&rmat(10), PageFormatConfig::small_default()).unwrap();
    let engine = Gts::builder()
        .config(GtsConfig {
            num_streams: 8,
            cache_limit_bytes: Some(0),
            ..GtsConfig::default()
        })
        .telemetry(Telemetry::with_spans())
        .build()
        .unwrap();
    let mut pr = PageRank::new(store.num_vertices(), 3);
    let report = engine.run(&store, &mut pr).unwrap();
    check(engine.telemetry(), &report);
}

#[test]
fn derived_report_equals_the_registry_for_every_engine() {
    use gts_baselines::bsp::BspEngine;
    use gts_baselines::cpu::{CpuEngine, CpuProfile};
    use gts_baselines::gas::GasEngine;
    use gts_baselines::gpu_only::{GpuOnlyEngine, GpuOnlyProfile};
    use gts_baselines::graphchi::{GraphChi, GraphChiConfig};
    use gts_baselines::totem::{Totem, TotemConfig};
    use gts_baselines::xstream::{XStream, XStreamConfig};
    use gts_baselines::{ClusterConfig, FrameworkProfile};
    use gts_graph::Csr;

    let edges = rmat(9);
    let g = Csr::from_edge_list(&edges);

    // check() asserts the fields every engine derives from the registry.
    let check = |run: &gts_core::RunReport, tel: &Telemetry, engine: &str| {
        assert_eq!(run.engine, engine);
        assert_eq!(
            run.elapsed.as_nanos(),
            tel.counter(keys::RUN_ELAPSED_NS),
            "{engine}: elapsed"
        );
        assert_eq!(
            run.sweeps as u64,
            tel.counter(keys::RUN_SWEEPS),
            "{engine}: sweeps"
        );
        assert_eq!(
            run.network_bytes,
            tel.counter(keys::NETWORK_BYTES),
            "{engine}: network bytes"
        );
        assert_eq!(
            run.memory_peak,
            tel.counter(keys::MEMORY_PEAK),
            "{engine}: memory peak"
        );
        assert_eq!(run.per_sweep.len(), run.sweeps as usize);
        assert!(
            run.per_sweep.iter().any(|s| s.active_edges > 0),
            "{engine}: per-sweep series populated"
        );
    };

    let bsp = BspEngine::new(ClusterConfig::paper_cluster(), FrameworkProfile::giraph());
    let (_, run) = bsp.run_bfs(&g, 0).unwrap();
    check(&run, bsp.telemetry(), "Giraph");

    let gas = GasEngine::new(ClusterConfig::paper_cluster());
    let (_, run) = gas.run_bfs(&g, 0).unwrap();
    check(&run, gas.telemetry(), "PowerGraph");

    let cpu = CpuEngine::new(CpuProfile::ligra());
    let (_, run) = cpu.run_bfs(&g, 0).unwrap();
    check(&run, cpu.telemetry(), "Ligra");

    let gpu = GpuOnlyEngine::new(GpuOnlyProfile::cusha(), gts_gpu::GpuConfig::titan_x());
    let (_, run) = gpu.run_bfs(&g, 0).unwrap();
    check(&run, gpu.telemetry(), "CuSha");

    let chi = GraphChi::new(GraphChiConfig::default());
    let (_, run) = chi.run_bfs(&g, 0).unwrap();
    check(&run, chi.telemetry(), "GraphChi");

    let totem = Totem::new(TotemConfig::new(gts_gpu::GpuConfig::titan_x()));
    let (_, run) = totem.run_bfs(&g, 0).unwrap();
    check(&run, totem.telemetry(), "TOTEM");
    // BC's backward pass doubles the registry, not just the report.
    let (_, run) = totem.run_bc(&g, 0).unwrap();
    check(&run, totem.telemetry(), "TOTEM");
    assert_eq!(run.sweeps as usize, run.per_sweep.len());

    let xs = XStream::new(XStreamConfig::default());
    let (_, run) = xs.run_bfs(&g, 0).unwrap();
    check(&run, xs.telemetry(), "X-Stream");

    // And GTS itself.
    let store = build_graph_store(&edges, PageFormatConfig::small_default()).unwrap();
    let engine = Gts::builder().build().unwrap();
    let mut pr = PageRank::new(store.num_vertices(), 3);
    let run = engine.run(&store, &mut pr).unwrap();
    check(&run, engine.telemetry(), "GTS");
    assert_eq!(
        run.pages_streamed,
        engine.telemetry().counter(keys::PAGES_STREAMED)
    );
    assert_eq!(
        run.edges_traversed,
        engine.telemetry().counter(keys::EDGES_TRAVERSED)
    );
}

#[test]
fn counters_only_mode_records_no_spans() {
    let store = build_graph_store(&rmat(9), PageFormatConfig::small_default()).unwrap();
    let engine = Gts::builder().build().unwrap();
    let mut bfs = Bfs::new(store.num_vertices(), 0);
    engine.run(&store, &mut bfs).unwrap();
    assert_eq!(engine.telemetry().span_count(), 0);
    assert!(engine.telemetry().counter(keys::PAGES_STREAMED) > 0);
}
