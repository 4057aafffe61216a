//! Background scrub: verify the at-rest topology pages between sweeps.
//!
//! A scrub pass walks every page of the store in pid order at a sweep
//! boundary (`GtsConfig::scrub_every` picks the cadence) and checks the
//! page's *at-rest* copy — the bytes that would come back off the drive —
//! against its trailer checksum. The at-rest copy can rot: the fault
//! plan's seeded bit-rot schedule ([`FaultPlan::bit_rot`]) decides, per
//! page and per visit, whether a single bit has flipped since the page
//! was last written. A detection is repaired by rewriting the page from
//! the authoritative in-memory copy (the store itself, which never rots)
//! and is routed to the storage array as a failure of the hosting drive,
//! so persistent rot crosses the same quarantine/re-striping threshold as
//! fetch-time corruption.
//!
//! The pass runs serially in the boundary's accounting region and draws
//! on per-page fault streams, so the `scrub.{pages,errors,repaired}`
//! counters are sim-side deterministic at any `host_threads`. Scrubbing
//! is modelled as background I/O hidden under foreground compute: it
//! advances no simulated time, only the counters and (with spans on) a
//! zero-width marker at the boundary instant.

use crate::sweep::ingest::PageSource;
use gts_faults::FaultPlan;
use gts_sim::SimTime;
use gts_storage::builder::GraphStore;
use gts_storage::Page;
use gts_telemetry::{keys, SpanCat, Telemetry, Track};

/// What one scrub pass found.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ScrubReport {
    /// Pages walked (every page of the store, delta pages included).
    pub pages: u64,
    /// At-rest copies whose trailer checksum failed.
    pub errors: u64,
    /// Detections repaired from the authoritative in-memory copy.
    pub repaired: u64,
}

/// Walk every page of `store`, verify its at-rest copy, repair and route
/// detections, and account the pass under the `scrub.*` counters.
pub(crate) fn scrub_pass(
    store: &GraphStore,
    faults: Option<&FaultPlan>,
    source: &mut dyn PageSource,
    tel: &Telemetry,
    t: SimTime,
    sweep: u32,
) -> ScrubReport {
    let mut report = ScrubReport::default();
    for pid in 0..store.num_pages() {
        let page = store.page(pid);
        report.pages += 1;
        // The seeded schedule decides whether this page's at-rest copy
        // rotted since its last write; the draw happens for every page on
        // every pass so the per-page streams stay aligned.
        let Some(rot) = faults.and_then(|plan| plan.bit_rot(pid, page.size_bytes())) else {
            continue;
        };
        // Detection is the trailer check over the *rotted* bytes, not a
        // trust of the schedule: a flip the checksum cannot see (it never
        // happens for FNV-1a over these sizes, but the code must not
        // assume it) would honestly go unnoticed, exactly like hardware.
        let (off, mask) = rot;
        let mut data = page.data.to_vec();
        data[off] ^= mask;
        let rotted = Page::new(pid, page.kind, data.into_boxed_slice());
        if rotted.checksum_ok() {
            continue;
        }
        report.errors += 1;
        // Repair: rewrite the at-rest copy from the in-memory page (the
        // bit-flip is self-inverse, so the store stays byte-identical),
        // and charge the detection to the hosting drive.
        report.repaired += 1;
        source.note_scrub_detection(pid, t);
    }
    tel.add(keys::SCRUB_PAGES, report.pages);
    tel.add(keys::SCRUB_ERRORS, report.errors);
    tel.add(keys::SCRUB_REPAIRED, report.repaired);
    if tel.spans_enabled() {
        tel.record_span(
            Track::new(keys::pid::ENGINE, 0),
            SpanCat::Io,
            format!("scrub sweep {sweep}"),
            t,
            t,
        );
    }
    report
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests panic on failure by design
mod tests {
    use super::*;
    use crate::sweep::ingest::InMemorySource;
    use gts_faults::FaultConfig;
    use gts_graph::generate::rmat;
    use gts_storage::{build_graph_store, MutationBatch, PageFormatConfig, PhysicalIdConfig};

    fn small_store() -> GraphStore {
        build_graph_store(
            &rmat(8),
            PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 1024),
        )
        .unwrap()
    }

    #[test]
    fn clean_pass_walks_every_page_and_finds_nothing() {
        let store = small_store();
        let tel = Telemetry::new();
        let r = scrub_pass(&store, None, &mut InMemorySource, &tel, SimTime::ZERO, 4);
        assert_eq!(r.pages, store.num_pages());
        assert_eq!(r.errors, 0);
        assert_eq!(r.repaired, 0);
        assert_eq!(tel.counter(keys::SCRUB_PAGES), store.num_pages());
        assert_eq!(tel.counter(keys::SCRUB_ERRORS), 0);
    }

    #[test]
    fn bit_rot_is_detected_on_pages_a_mutation_batch_sealed() {
        // Pages `apply_mutations` sealed are trusted in memory, but the
        // scrub hashes the at-rest copy whatever the in-memory page says.
        let mut store = small_store();
        let mut batch = MutationBatch::new();
        for v in 0..64 {
            batch.insert(v, (v * 7 + 3) % store.num_vertices());
        }
        let out = store.apply_mutations(&batch).unwrap();
        assert!(!out.dirty_pids.is_empty());
        let mut cfg = FaultConfig::quiet(0xB17);
        cfg.bit_rot_ppm = 1_000_000; // every page, every pass
        let plan = FaultPlan::new(cfg);
        let tel = Telemetry::new();
        let r = scrub_pass(
            &store,
            Some(&plan),
            &mut InMemorySource,
            &tel,
            SimTime::ZERO,
            4,
        );
        assert_eq!(r.pages, store.num_pages());
        assert_eq!(r.errors, store.num_pages(), "every rotted page is caught");
    }

    #[test]
    fn bit_rot_is_detected_repaired_and_deterministic() {
        let store = small_store();
        let run = || {
            let mut cfg = FaultConfig::quiet(0xB17);
            cfg.bit_rot_ppm = 400_000; // rot ~40% of pages per pass
            let plan = FaultPlan::new(cfg);
            let tel = Telemetry::new();
            let r = scrub_pass(
                &store,
                Some(&plan),
                &mut InMemorySource,
                &tel,
                SimTime::ZERO,
                4,
            );
            (r, tel.counter(keys::SCRUB_REPAIRED))
        };
        let (a, repaired) = run();
        assert_eq!(a.pages, store.num_pages());
        assert!(a.errors > 0, "a 40% rate must hit at least one page");
        assert_eq!(a.repaired, a.errors, "every detection is repairable");
        assert_eq!(repaired, a.repaired);
        // Same seed, same pass: the schedule is a pure function.
        let (b, _) = run();
        assert_eq!(a, b);
    }
}
