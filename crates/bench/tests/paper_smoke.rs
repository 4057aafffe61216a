//! The paper's evaluation at smoke scale: every experiment of
//! `gts_bench::paper::EXPERIMENTS` runs on its small grid, and every claim
//! marked `smoke` holds there. `cargo bench -p gts-bench` checks the rest
//! on the bench grids.

use gts_bench::paper::{Scale, Verdict, EXPERIMENTS};

#[test]
fn every_experiment_runs_its_smoke_grid_and_its_smoke_claims_hold() {
    let mut failures = Vec::new();
    let mut checked = 0;
    for exp in &EXPERIMENTS {
        let (_, verdicts) = match exp.run(Scale::Smoke) {
            Ok(out) => out,
            Err(e) => {
                failures.push(format!("{}: {e}", exp.id));
                continue;
            }
        };
        for (claim, verdict) in &verdicts {
            println!("{}: {}", exp.id, verdict.line(claim));
            checked += 1;
            if *verdict != Verdict::Holds {
                failures.push(format!("{}: {}", exp.id, verdict.line(claim)));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    assert!(checked > 0);
}
