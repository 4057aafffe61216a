//! The unified run report — a *view* over the counter registry.
//!
//! Every engine in the workspace (GTS and the seven baselines) reports
//! through this one type, built by [`RunReport::from_telemetry`] from the
//! counters under the [`crate::keys`] glossary. There is no second
//! accounting path: what the report says is what the registry holds.

use crate::json::{escape, num};
use crate::keys;
use crate::Telemetry;
use gts_sim::SimDuration;
use std::collections::BTreeMap;
use std::ops::Bound;

/// Per-GPU statistics of one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GpuRunStats {
    /// Bytes copied host→device.
    pub bytes_h2d: u64,
    /// Bytes copied device→host.
    pub bytes_d2h: u64,
    /// Accumulated kernel service time.
    pub kernel_time: SimDuration,
    /// Accumulated transfer service time.
    pub transfer_time: SimDuration,
    /// Kernels launched.
    pub kernels: u64,
    /// Topology-cache hits.
    pub cache_hits: u64,
    /// Topology-cache misses.
    pub cache_misses: u64,
    /// Pages of topology cache capacity this GPU ended up with.
    pub cache_capacity_pages: usize,
}

/// Per-sweep (per-level / per-iteration) statistics — the raw series
/// behind Eq. (2)'s per-level sums and the frontier plots.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Pages visited this sweep (streamed + cache hits).
    pub pages: u64,
    /// Pages served from the GPU cache this sweep.
    pub cache_hits: u64,
    /// Vertices that did kernel work this sweep (the frontier size for
    /// traversal programs).
    pub active_vertices: u64,
    /// Edges traversed this sweep.
    pub active_edges: u64,
    /// Simulated time from sweep start to the barrier.
    pub elapsed: SimDuration,
}

/// The result of one engine run, derived from telemetry counters.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Algorithm name.
    pub algorithm: String,
    /// Engine name ("GTS", "TOTEM", "Giraph", ...).
    pub engine: String,
    /// Simulated end-to-end elapsed time (the paper's reported metric).
    pub elapsed: SimDuration,
    /// Sweeps executed (levels for traversal, iterations for sweeps,
    /// supersteps for the cluster engines).
    pub sweeps: u32,
    /// Pages streamed over PCI-E (excluding cache hits).
    pub pages_streamed: u64,
    /// Pages served from the GPU-side cache.
    pub cache_hits: u64,
    /// Overall topology-cache hit rate (Fig. 11b).
    pub cache_hit_rate: f64,
    /// Edges traversed by kernels (for MTEPS reporting, Sec. 7.4).
    pub edges_traversed: u64,
    /// Per-GPU breakdown.
    pub per_gpu: Vec<GpuRunStats>,
    /// Per-sweep breakdown (levels for traversal, iterations for sweeps).
    pub per_sweep: Vec<SweepStats>,
    /// Bytes that crossed the simulated cluster network (distributed
    /// baselines) or, for TOTEM, the PCI-E boundary exchange between its
    /// GPU and CPU partitions; zero for the other single-node engines.
    pub network_bytes: u64,
    /// Peak working-set bytes on the most loaded node/device (baselines;
    /// zero where not tracked).
    pub memory_peak: u64,
    /// Execution strategy in effect when the run ended, after any OOM
    /// step-downs: `"performance"`, `"scalability"`, or `"none"` where
    /// the engine does not record one (baselines).
    pub final_strategy: String,
    /// Streams per GPU in effect when the run ended, after any
    /// step-downs (zero where not recorded).
    pub final_streams: u32,
    /// Whether the device page cache was still enabled at run end (the
    /// last OOM rung turns it off).
    pub cache_enabled: bool,
    /// Degradation step-downs the engine recorded (`degrade.events`), so
    /// operators can see post-OOM rungs without reading the trace.
    pub degrade_events: u64,
}

impl RunReport {
    /// Build the report for `engine` running `algorithm` from the counters
    /// currently in `tel`'s registry: [`RunReport::from_counters`] over
    /// them, under one lock.
    pub fn from_telemetry(
        tel: &Telemetry,
        algorithm: impl Into<String>,
        engine: impl Into<String>,
    ) -> Self {
        Self::from_counters(&tel.lock().counters, algorithm, engine)
    }

    /// Build the report for `engine` running `algorithm` from a counter
    /// registry. Every field is read straight from the [`keys`] glossary,
    /// so the report and the registry cannot disagree.
    pub fn from_counters(
        counters: &BTreeMap<String, u64>,
        algorithm: impl Into<String>,
        engine: impl Into<String>,
    ) -> Self {
        // Absent is zero, as `Telemetry::counter` reads it.
        let c = |key: &str| counters.get(key).copied().unwrap_or(0);
        let hits = c(keys::CACHE_HITS);
        let misses = c(keys::CACHE_MISSES);
        let probes = hits + misses;
        let sweeps = c(keys::RUN_SWEEPS) as u32;
        let per_gpu = indexed(counters, "gpu", c(keys::RUN_GPUS) as u32, set_gpu_field);
        let per_sweep = indexed(counters, "sweep", sweeps, set_sweep_field);
        RunReport {
            algorithm: algorithm.into(),
            engine: engine.into(),
            elapsed: SimDuration::from_nanos(c(keys::RUN_ELAPSED_NS)),
            sweeps,
            pages_streamed: c(keys::PAGES_STREAMED),
            cache_hits: hits,
            cache_hit_rate: if probes == 0 {
                0.0
            } else {
                hits as f64 / probes as f64
            },
            edges_traversed: c(keys::EDGES_TRAVERSED),
            per_gpu,
            per_sweep,
            network_bytes: c(keys::NETWORK_BYTES),
            memory_peak: c(keys::MEMORY_PEAK),
            final_strategy: match c(keys::RUN_FINAL_STRATEGY) {
                1 => "performance".to_string(),
                2 => "scalability".to_string(),
                _ => "none".to_string(),
            },
            final_streams: c(keys::RUN_FINAL_STREAMS) as u32,
            cache_enabled: c(keys::RUN_CACHE_ENABLED) != 0,
            degrade_events: c(keys::DEGRADE_EVENTS),
        }
    }

    /// Millions of traversed edges per second (the paper quotes GTS at up
    /// to 1,500 MTEPS on Twitter).
    pub fn mteps(&self) -> f64 {
        if self.elapsed.as_secs_f64() == 0.0 {
            return 0.0;
        }
        self.edges_traversed as f64 / 1e6 / self.elapsed.as_secs_f64()
    }

    /// Sum of bytes moved host→device across GPUs.
    pub fn total_bytes_h2d(&self) -> u64 {
        self.per_gpu.iter().map(|g| g.bytes_h2d).sum()
    }

    /// Ratio of transfer service time to kernel service time, aggregated
    /// across GPUs (Table 1's quantity).
    pub fn transfer_to_kernel_ratio(&self) -> f64 {
        let t: f64 = self
            .per_gpu
            .iter()
            .map(|g| g.transfer_time.as_secs_f64())
            .sum();
        let k: f64 = self
            .per_gpu
            .iter()
            .map(|g| g.kernel_time.as_secs_f64())
            .sum();
        if k == 0.0 {
            0.0
        } else {
            t / k
        }
    }

    /// Pretty-printed JSON (the CLI's `--json` output).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"algorithm\": \"{}\",\n",
            escape(&self.algorithm)
        ));
        out.push_str(&format!("  \"engine\": \"{}\",\n", escape(&self.engine)));
        out.push_str(&format!("  \"elapsed_ns\": {},\n", self.elapsed.as_nanos()));
        out.push_str(&format!(
            "  \"elapsed_secs\": {},\n",
            num(self.elapsed.as_secs_f64())
        ));
        out.push_str(&format!("  \"sweeps\": {},\n", self.sweeps));
        out.push_str(&format!("  \"pages_streamed\": {},\n", self.pages_streamed));
        out.push_str(&format!("  \"cache_hits\": {},\n", self.cache_hits));
        out.push_str(&format!(
            "  \"cache_hit_rate\": {},\n",
            num(self.cache_hit_rate)
        ));
        out.push_str(&format!(
            "  \"edges_traversed\": {},\n",
            self.edges_traversed
        ));
        out.push_str(&format!("  \"mteps\": {},\n", num(self.mteps())));
        out.push_str(&format!("  \"network_bytes\": {},\n", self.network_bytes));
        out.push_str(&format!("  \"memory_peak\": {},\n", self.memory_peak));
        out.push_str(&format!(
            "  \"final_strategy\": \"{}\",\n",
            escape(&self.final_strategy)
        ));
        out.push_str(&format!("  \"final_streams\": {},\n", self.final_streams));
        out.push_str(&format!("  \"cache_enabled\": {},\n", self.cache_enabled));
        out.push_str(&format!("  \"degrade_events\": {},\n", self.degrade_events));
        out.push_str("  \"per_gpu\": [\n");
        for (i, g) in self.per_gpu.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"bytes_h2d\": {}, \"bytes_d2h\": {}, \"kernel_time_ns\": {}, \
                 \"transfer_time_ns\": {}, \"kernels\": {}, \"cache_hits\": {}, \
                 \"cache_misses\": {}, \"cache_capacity_pages\": {}}}{}\n",
                g.bytes_h2d,
                g.bytes_d2h,
                g.kernel_time.as_nanos(),
                g.transfer_time.as_nanos(),
                g.kernels,
                g.cache_hits,
                g.cache_misses,
                g.cache_capacity_pages,
                if i + 1 < self.per_gpu.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"per_sweep\": [\n");
        for (j, s) in self.per_sweep.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"pages\": {}, \"cache_hits\": {}, \"active_vertices\": {}, \
                 \"active_edges\": {}, \"elapsed_ns\": {}}}{}\n",
                s.pages,
                s.cache_hits,
                s.active_vertices,
                s.active_edges,
                s.elapsed.as_nanos(),
                if j + 1 < self.per_sweep.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Store the value of key `gpu{i}.{field}` in GPU `i`'s entry.
fn set_gpu_field(g: &mut GpuRunStats, field: &str, v: u64) {
    match field {
        keys::GPU_BYTES_H2D => g.bytes_h2d = v,
        keys::GPU_BYTES_D2H => g.bytes_d2h = v,
        keys::GPU_KERNEL_TIME_NS => g.kernel_time = SimDuration::from_nanos(v),
        keys::GPU_TRANSFER_TIME_NS => g.transfer_time = SimDuration::from_nanos(v),
        keys::GPU_KERNELS => g.kernels = v,
        keys::GPU_CACHE_HITS => g.cache_hits = v,
        keys::GPU_CACHE_MISSES => g.cache_misses = v,
        keys::GPU_CACHE_CAPACITY_PAGES => g.cache_capacity_pages = v as usize,
        _ => {}
    }
}

/// Store the value of key `sweep{j}.{field}` in sweep `j`'s entry.
fn set_sweep_field(s: &mut SweepStats, field: &str, v: u64) {
    match field {
        keys::SWEEP_PAGES => s.pages = v,
        keys::SWEEP_CACHE_HITS => s.cache_hits = v,
        keys::SWEEP_ACTIVE_VERTICES => s.active_vertices = v,
        keys::SWEEP_ACTIVE_EDGES => s.active_edges = v,
        keys::SWEEP_ELAPSED_NS => s.elapsed = SimDuration::from_nanos(v),
        _ => {}
    }
}

/// `n` default entries, entry `i` filled by `set(entry, field, value)`
/// from every key `{prefix}{i}.{field}` in `counters` — the keys
/// [`keys::gpu`] and [`keys::sweep`] write. One walk of the map's
/// ordered `prefix` range; a key whose index is not as `format!` writes
/// it (a leading zero, a sign, past `u32`) or not below `n` is no one's.
fn indexed<T: Default>(
    counters: &BTreeMap<String, u64>,
    prefix: &str,
    n: u32,
    set: fn(&mut T, &str, u64),
) -> Vec<T> {
    let mut out: Vec<T> = (0..n).map(|_| T::default()).collect();
    let from = (Bound::Included(prefix), Bound::Unbounded);
    for (key, &v) in counters.range::<str, _>(from) {
        let Some(rest) = key.strip_prefix(prefix) else {
            break;
        };
        let Some((index, field)) = rest.split_once('.') else {
            continue;
        };
        let canonical =
            index.bytes().all(|b| b.is_ascii_digit()) && (index == "0" || !index.starts_with('0'));
        let entry = canonical
            .then(|| index.parse::<u32>().ok())
            .flatten()
            .and_then(|i| out.get_mut(i as usize));
        if let Some(entry) = entry {
            set(entry, field, v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_report() -> RunReport {
        RunReport::from_telemetry(&Telemetry::new(), "BFS", "GTS")
    }

    #[test]
    fn mteps_computation() {
        let mut r = empty_report();
        r.elapsed = SimDuration::from_secs(2);
        r.edges_traversed = 3_000_000;
        assert!((r.mteps() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn ratio_handles_zero_kernel_time() {
        let mut r = empty_report();
        r.per_gpu = vec![GpuRunStats::default()];
        assert_eq!(r.transfer_to_kernel_ratio(), 0.0);
        assert_eq!(r.mteps(), 0.0);
    }

    #[test]
    fn from_telemetry_reads_the_glossary() {
        let tel = Telemetry::new();
        tel.set(keys::RUN_ELAPSED_NS, 5_000);
        tel.add(keys::RUN_SWEEPS, 2);
        tel.set(keys::RUN_GPUS, 1);
        tel.add(keys::PAGES_STREAMED, 7);
        tel.add(keys::CACHE_HITS, 3);
        tel.add(keys::CACHE_MISSES, 7);
        tel.add(keys::EDGES_TRAVERSED, 123);
        tel.add(keys::gpu(0, keys::GPU_BYTES_H2D), 4096);
        tel.add(keys::gpu(0, keys::GPU_KERNELS), 9);
        tel.add(keys::sweep(0, keys::SWEEP_PAGES), 6);
        tel.add(keys::sweep(1, keys::SWEEP_PAGES), 4);
        let r = RunReport::from_telemetry(&tel, "BFS", "GTS");
        assert_eq!(r.elapsed, SimDuration::from_nanos(5_000));
        assert_eq!(r.sweeps, 2);
        assert_eq!(r.pages_streamed, 7);
        assert_eq!(r.cache_hits, 3);
        assert!((r.cache_hit_rate - 0.3).abs() < 1e-12);
        assert_eq!(r.edges_traversed, 123);
        assert_eq!(r.per_gpu.len(), 1);
        assert_eq!(r.per_gpu[0].bytes_h2d, 4096);
        assert_eq!(r.per_gpu[0].kernels, 9);
        assert_eq!(r.per_sweep.len(), 2);
        assert_eq!(r.per_sweep[0].pages, 6);
        assert_eq!(r.per_sweep[1].pages, 4);
    }

    #[test]
    fn json_output_is_balanced_and_contains_fields() {
        let tel = Telemetry::new();
        tel.set(keys::RUN_GPUS, 2);
        tel.add(keys::RUN_SWEEPS, 1);
        let r = RunReport::from_telemetry(&tel, "PR", "GTS");
        let j = r.to_json();
        assert_eq!(
            j.matches('{').count(),
            j.matches('}').count(),
            "balanced braces"
        );
        assert!(j.contains("\"algorithm\": \"PR\""));
        assert!(j.contains("\"per_gpu\""));
        assert!(j.contains("\"per_sweep\""));
        assert!(j.contains("\"final_strategy\": \"none\""));
        assert!(j.contains("\"cache_enabled\": false"));
        assert!(j.contains("\"degrade_events\": 0"));
    }

    /// The format-and-lookup build of the per-GPU and per-sweep series
    /// that `indexed` replaced, kept as the reference it must equal.
    fn by_lookup(counters: &BTreeMap<String, u64>) -> (Vec<GpuRunStats>, Vec<SweepStats>) {
        let c = |key: &str| counters.get(key).copied().unwrap_or(0);
        let per_gpu = (0..c(keys::RUN_GPUS) as u32)
            .map(|i| GpuRunStats {
                bytes_h2d: c(&keys::gpu(i, keys::GPU_BYTES_H2D)),
                bytes_d2h: c(&keys::gpu(i, keys::GPU_BYTES_D2H)),
                kernel_time: SimDuration::from_nanos(c(&keys::gpu(i, keys::GPU_KERNEL_TIME_NS))),
                transfer_time: SimDuration::from_nanos(c(&keys::gpu(
                    i,
                    keys::GPU_TRANSFER_TIME_NS,
                ))),
                kernels: c(&keys::gpu(i, keys::GPU_KERNELS)),
                cache_hits: c(&keys::gpu(i, keys::GPU_CACHE_HITS)),
                cache_misses: c(&keys::gpu(i, keys::GPU_CACHE_MISSES)),
                cache_capacity_pages: c(&keys::gpu(i, keys::GPU_CACHE_CAPACITY_PAGES)) as usize,
            })
            .collect();
        let per_sweep = (0..c(keys::RUN_SWEEPS) as u32)
            .map(|j| SweepStats {
                pages: c(&keys::sweep(j, keys::SWEEP_PAGES)),
                cache_hits: c(&keys::sweep(j, keys::SWEEP_CACHE_HITS)),
                active_vertices: c(&keys::sweep(j, keys::SWEEP_ACTIVE_VERTICES)),
                active_edges: c(&keys::sweep(j, keys::SWEEP_ACTIVE_EDGES)),
                elapsed: SimDuration::from_nanos(c(&keys::sweep(j, keys::SWEEP_ELAPSED_NS))),
            })
            .collect();
        (per_gpu, per_sweep)
    }

    fn assert_matches_lookup(counters: &BTreeMap<String, u64>) {
        let r = RunReport::from_counters(counters, "BFS", "GTS");
        let (per_gpu, per_sweep) = by_lookup(counters);
        assert_eq!(r.per_gpu, per_gpu, "{counters:?}");
        assert_eq!(r.per_sweep, per_sweep, "{counters:?}");
    }

    const GPU_FIELDS: [&str; 9] = [
        keys::GPU_BYTES_H2D,
        keys::GPU_BYTES_D2H,
        keys::GPU_KERNEL_TIME_NS,
        keys::GPU_TRANSFER_TIME_NS,
        keys::GPU_KERNELS,
        keys::GPU_CACHE_HITS,
        keys::GPU_CACHE_MISSES,
        keys::GPU_CACHE_CAPACITY_PAGES,
        keys::GPU_COPY_FAULTS,
    ];
    const SWEEP_FIELDS: [&str; 6] = [
        keys::SWEEP_PAGES,
        keys::SWEEP_CACHE_HITS,
        keys::SWEEP_ACTIVE_VERTICES,
        keys::SWEEP_ACTIVE_EDGES,
        keys::SWEEP_ELAPSED_NS,
        "unknown",
    ];

    /// Random registries: indices on both sides of `run.gpus` and
    /// `run.sweeps`, known and unknown fields, and keys that sort around
    /// the two prefixes.
    #[test]
    fn indexed_walk_equals_format_and_lookup_on_random_registries() {
        let mut rng = gts_sim::Rng::seed_from_u64(52);
        for _ in 0..500 {
            let mut counters = BTreeMap::new();
            counters.insert(keys::RUN_GPUS.to_string(), rng.below_u64(5));
            counters.insert(keys::RUN_SWEEPS.to_string(), rng.below_u64(14));
            for _ in 0..rng.below_usize(60) {
                let key = match rng.below_u32(4) {
                    0 => keys::gpu(rng.below_u32(6), GPU_FIELDS[rng.below_usize(9)]),
                    1 => keys::sweep(rng.below_u32(16), SWEEP_FIELDS[rng.below_usize(6)]),
                    2 => ["gp", "gpu", "gpv", "sweep", "sweeps", "swef", "run.gpu"]
                        [rng.below_usize(7)]
                    .to_string(),
                    _ => format!("tenant.t{}.cache.hits", rng.below_u32(3)),
                };
                counters.insert(key, rng.next_u64() >> rng.below_u32(64));
            }
            assert_matches_lookup(&counters);
        }
    }

    /// Keys `keys::gpu` / `keys::sweep` never write for an index the
    /// report reads are ignored, as the lookups ignored them.
    #[test]
    fn indexed_walk_ignores_keys_no_lookup_would_name() {
        let adversarial = [
            "gpu01.kernels",
            "gpu00.kernels",
            "gpu+1.kernels",
            "gpu-0.kernels",
            "gpu 1.kernels",
            "gpu\u{0661}.kernels",
            "gpu2.kernels",
            "gpu4294967296.kernels",
            "gpu18446744073709551616.kernels",
            "gpu99999999999999999999999999.kernels",
            "gpu.kernels",
            "gpu0",
            "gpu0.",
            "gpu0.unknown",
            "gpu0.kernels.x",
            "gpu",
            "sweep9.pages",
            "sweep3.pages",
            "sweep02.pages",
            "sweep01.pages",
            "sweep+1.pages",
            "sweeps",
            "sweeps.pages",
            "sweep.pages",
        ];
        let mut counters: BTreeMap<String, u64> =
            adversarial.iter().map(|k| (k.to_string(), 7)).collect();
        // GPU 1 and sweeps 1–2 are named only in forms no lookup makes.
        counters.insert("gpu0.kernels".to_string(), 1);
        counters.insert("sweep0.pages".to_string(), 3);
        counters.insert(keys::RUN_SWEEPS.to_string(), 3);
        // `as u32` keeps the low word of an oversized GPU count.
        counters.insert(keys::RUN_GPUS.to_string(), (1 << 32) + 2);
        assert_matches_lookup(&counters);
        let r = RunReport::from_counters(&counters, "BFS", "GTS");
        let kernels: Vec<u64> = r.per_gpu.iter().map(|g| g.kernels).collect();
        assert_eq!(kernels, [1, 0]);
        let pages: Vec<u64> = r.per_sweep.iter().map(|s| s.pages).collect();
        assert_eq!(pages, [3, 0, 0]);
    }

    #[test]
    fn degraded_end_state_is_surfaced() {
        let tel = Telemetry::new();
        tel.set(keys::RUN_FINAL_STRATEGY, 2);
        tel.set(keys::RUN_FINAL_STREAMS, 8);
        tel.set(keys::RUN_CACHE_ENABLED, 1);
        tel.add(keys::DEGRADE_EVENTS, 3);
        let r = RunReport::from_telemetry(&tel, "PR", "GTS");
        assert_eq!(r.final_strategy, "scalability");
        assert_eq!(r.final_streams, 8);
        assert!(r.cache_enabled);
        assert_eq!(r.degrade_events, 3);
        let j = r.to_json();
        assert!(j.contains("\"final_strategy\": \"scalability\""));
        assert!(j.contains("\"final_streams\": 8"));
        assert!(j.contains("\"cache_enabled\": true"));
        assert!(j.contains("\"degrade_events\": 3"));
    }
}
