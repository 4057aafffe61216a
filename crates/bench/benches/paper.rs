//! The paper's evaluation: every table and figure of [`gts_bench::paper`],
//! its CSVs under `target/experiments/`, and every claim judged.
//!
//! ```sh
//! cargo bench -p gts-bench                        # everything
//! cargo bench -p gts-bench -- fig9                # experiments whose id contains "fig9"
//! GTS_BLESS=1 cargo bench -p gts-bench            # also rewrite EXPERIMENTS.md's tables
//! ```

fn main() {
    let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
    let bless = std::env::var_os("GTS_BLESS").is_some();
    std::process::exit(gts_bench::paper::bench(filter.as_deref(), bless));
}
