//! The metric catalogue: every end-to-end and per-layer metric by name,
//! with its unit and direction. `BENCHMARK.json` at the repository root
//! lists the same names; `--smoke` checks the two against each other.

/// Workloads, in the order a full set runs them.
pub const WORKLOADS: [&str; 4] = ["pagerank_scan", "bfs_ooc", "live_mutations", "serve_mixed"];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
    /// Simulated time (what the modelled GPUs and SSDs would take) or a
    /// count, rather than host wall-clock: bit-deterministic for a given
    /// seed, so `--compare` demands equality whatever the bound says.
    pub exact: bool,
}

/// What each name means on each workload is tabulated in the README.
pub const END_TO_END: [EndToEnd; 7] = [
    e2e("setup_s", "s", "lower", 0.25, false),
    e2e("host_work_per_s_t1", "1/s", "higher", 0.25, false),
    e2e("host_work_per_s_mt", "1/s", "higher", 0.25, false),
    e2e("op_ms_p50", "ms", "lower", 0.25, false),
    e2e("restart_ms_p50", "ms", "lower", 0.25, false),
    e2e("peak_rss_mb", "MB", "lower", 0.20, false),
    e2e("sim_elapsed_ms", "ms", "lower", 0.25, true),
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
    exact: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        exact,
    }
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// A simulated time or a count: repeats exactly for a given seed.
    pub exact: bool,
}

/// A host wall-clock measurement.
const fn pl(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: false,
    }
}

/// A simulated time or a count.
const fn px(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: true,
    }
}

/// The layer is the name up to its last dot; how each is taken and which
/// end-to-end metric it should move is tabulated in the README.
pub const PER_LAYER: [PerLayer; 63] = [
    pl("graph.generate.ns_per_edge", "ns", "lower"),
    pl("graph.csr.ns_per_edge", "ns", "lower"),
    pl("storage.builder.ns_per_edge", "ns", "lower"),
    pl("storage.page.verify_ns_per_page", "ns", "lower"),
    pl("storage.page.scan_ns_per_edge", "ns", "lower"),
    pl("storage.cache.lru_probe_ns", "ns", "lower"),
    pl("storage.cache.fifo_probe_ns", "ns", "lower"),
    pl("storage.cache.lru_vs_fifo", "ratio", "lower"),
    pl("storage.cache.invalidate_ns_per_page", "ns", "lower"),
    px("storage.cache.hit_share", "share", "higher"),
    pl("storage.mmbuf.access_ns", "ns", "lower"),
    px("storage.mmbuf.hit_share", "share", "higher"),
    pl("storage.device.fetch_ns_per_page", "ns", "lower"),
    px("storage.device.bytes_read", "bytes", "lower"),
    pl("storage.mutate.apply_us_s12", "us", "lower"),
    pl("storage.mutate.apply_us_s14", "us", "lower"),
    pl("storage.mutate.apply_us_s14_p90", "us", "lower"),
    pl("storage.mutate.s14_vs_s12", "ratio", "lower"),
    px("storage.mutate.pages_rewritten_per_batch", "count", "lower"),
    px("storage.mutate.delta_pages_per_batch", "count", "lower"),
    px("storage.mutate.store_bytes_per_edge", "bytes/edge", "lower"),
    pl("storage.wal.log_us_per_batch", "us", "lower"),
    px("storage.wal.bytes_per_op", "bytes", "lower"),
    pl("storage.wal.open_ms", "ms", "lower"),
    pl("storage.wal.replay_us_per_record", "us", "lower"),
    pl("storage.wal.fsync_us_disk", "us", "lower"),
    pl("storage.file.save_ms", "ms", "lower"),
    pl("storage.file.load_ms", "ms", "lower"),
    pl("exec.pool.fanout_us", "us", "lower"),
    pl("exec.fixed.add_ns_t1", "ns", "lower"),
    pl("exec.fixed.add_ns_mt", "ns", "lower"),
    pl("gpu.timer.issue_ns", "ns", "lower"),
    px("gpu.timer.kernel_share", "ratio", "higher"),
    px("gpu.timer.transfer_share", "ratio", "lower"),
    px("gpu.timer.stalls", "count", "lower"),
    pl("core.plan.from_marked_ns_per_page", "ns", "lower"),
    pl("core.kernels.phase_a_ms", "ms", "lower"),
    pl("core.kernels.phase_a_ns_per_edge", "ns", "lower"),
    pl("core.kernels.phase_a_ms_mt", "ms", "lower"),
    pl("core.kernels.mt_vs_t1", "ratio", "lower"),
    pl("core.kernels.ext_ns_per_edge", "ns", "lower"),
    pl("core.kernels.lp_degrees_us", "us", "lower"),
    pl("core.account.phase_b_ms", "ms", "lower"),
    pl("core.account.phase_b_share", "share", "lower"),
    pl("core.job.residual_us", "us", "lower"),
    pl("core.job.run_ms_p90", "ms", "lower"),
    px("core.job.sim_lat_p50_us", "us", "lower"),
    px("core.job.sim_lat_p95_us", "us", "lower"),
    pl("ckpt.write_us", "us", "lower"),
    pl("ckpt.load_us", "us", "lower"),
    pl("ckpt.encode_ns_per_byte", "ns", "lower"),
    pl("serve.scheduler.overhead_us_per_job", "us", "lower"),
    px("serve.scheduler.sim_lat_p50_us", "us", "lower"),
    px("serve.scheduler.sim_lat_p95_us", "us", "lower"),
    px("serve.scheduler.sim_wait_p95_us", "us", "lower"),
    px("serve.scheduler.dropped", "count", "lower"),
    pl("serve.journal.us_per_job", "us", "lower"),
    px("serve.journal.records", "count", "lower"),
    px("serve.journal.flushes", "count", "lower"),
    pl("serve.workload.parse_ns_per_job", "ns", "lower"),
    pl("telemetry.counter_add_ns", "ns", "lower"),
    pl("telemetry.spans_overhead_share", "share", "lower"),
    pl("telemetry.trace_overhead_share", "share", "lower"),
];

/// The contract's rule for a workload or metric name.
pub fn well_formed_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_meets_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(WORKLOADS)
            .collect();
        assert!(names.iter().all(|n| well_formed_name(n)));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(END_TO_END.iter().all(|m| (0.0..=0.25).contains(&m.bound)));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for unit in units {
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }
}
