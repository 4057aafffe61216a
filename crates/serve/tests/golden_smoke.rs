//! Golden fixture for serve mode: `workloads/serve_smoke.wl` through a
//! two-slot service over a 2-SSD RMAT10 store, journal-free (so no
//! wall-side `serve.journal.*` key appears). Every per-job record with
//! its full counter registry, and the service registry — including
//! `serve.makespan_ns` and the `serve.lat.*` percentiles — are pinned
//! byte-for-byte in `tests/golden/serve_smoke.*`, and must be identical
//! at 1 and 4 host threads.
//!
//! To regenerate after an *intentional* scheduling or timing-model change:
//!
//! ```text
//! GTS_BLESS=1 cargo test -p gts-serve --test golden_smoke
//! ```

use gts_core::engine::StorageLocation;
use gts_core::{Engine, GtsConfig};
use gts_graph::generate::rmat;
use gts_serve::scheduler::{serve, ServeConfig, ServeOutcome};
use gts_serve::workload::parse;
use gts_storage::{build_graph_store, PageFormatConfig, PhysicalIdConfig};
use std::path::PathBuf;

fn jobs_dump(out: &ServeOutcome) -> String {
    let mut lines = String::new();
    for j in &out.jobs {
        lines.push_str(&format!(
            "job={} tenant={} class={} mutating={} arrival={} status={:?} \
             start={} finish={} service={} attempts={} result={:#018x}\n",
            j.index,
            j.tenant,
            j.class,
            j.mutating,
            j.arrival_ns,
            j.status,
            j.start_ns,
            j.finish_ns,
            j.service_ns,
            j.attempts,
            j.result_fp
        ));
        for (k, v) in &j.counters {
            lines.push_str(&format!("job.{}.{k} {v}\n", j.index));
        }
    }
    lines
}

fn counters_dump(out: &ServeOutcome) -> String {
    let mut lines = String::new();
    for (k, v) in out.telemetry.counters() {
        lines.push_str(&format!("{k} {v}\n"));
    }
    lines
}

fn check_or_bless(name: &str, got: &str) {
    // CARGO_MANIFEST_DIR = crates/serve; fixtures live in tests/golden.
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name);
    if std::env::var_os("GTS_BLESS").is_some() {
        std::fs::write(&path, got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); run with GTS_BLESS=1 to create it",
            path.display()
        )
    });
    assert!(
        got == want,
        "{name} diverged from its blessed fixture \
         (if scheduling or timing changed intentionally, re-bless with GTS_BLESS=1)"
    );
}

#[test]
fn serve_smoke_matches_golden_at_1_and_4_host_threads() {
    let base = build_graph_store(
        &rmat(10),
        PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 4096),
    )
    .unwrap();
    let jobs = parse(include_str!("../../../workloads/serve_smoke.wl")).unwrap();
    let run = |host_threads: usize| {
        let engine = Engine::new(GtsConfig {
            host_threads,
            storage: StorageLocation::Ssds(2),
            ..GtsConfig::default()
        })
        .unwrap();
        let cfg = ServeConfig {
            slots: 2,
            ..ServeConfig::default()
        };
        let out = serve(&engine, &mut base.clone(), &jobs, &cfg).unwrap();
        assert_eq!(out.completed, jobs.len(), "every smoke job completes");
        (jobs_dump(&out), counters_dump(&out))
    };
    let (jobs1, counters1) = run(1);
    let (jobs4, counters4) = run(4);
    assert!(jobs1 == jobs4, "per-job records differ across host threads");
    assert!(
        counters1 == counters4,
        "service counters differ across host threads"
    );
    for key in [
        "serve.makespan_ns ",
        "serve.lat.all.p95 ",
        "serve.epochs 1\n",
    ] {
        assert!(counters1.contains(key), "service registry lacks {key:?}");
    }
    check_or_bless("serve_smoke.jobs.txt", &jobs1);
    check_or_bless("serve_smoke.counters.txt", &counters1);
}
