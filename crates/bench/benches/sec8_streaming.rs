//! Section 8's related-work comparison, as an experiment: the three
//! out-of-core streaming designs side by side.
//!
//! * **X-Stream** — fine-grained sequential (stream every edge, every
//!   iteration; mixed read/write for the update shuffle);
//! * **GraphChi** — shard loading with no I/O/compute overlap;
//! * **GTS** — coarse-grained (page-level) sequential *and* random access:
//!   read-only streaming, only the relevant pages for traversals.
//!
//! Paper claims to reproduce: for PageRank the streamers are within sight
//! of each other (every design scans everything), with GraphChi the
//! slowest; for BFS on a high-diameter graph X-Stream "did not finish in a
//! reasonable amount of time" — a full edge scan per level — while GTS
//! streams only frontier pages.

use gts_baselines::graphchi::{GraphChi, GraphChiConfig};
use gts_baselines::xstream::{XStream, XStreamConfig};
use gts_baselines::{run, Algo};
use gts_bench::datasets::{Prepared, BFS_SOURCE, PR_ITERATIONS};
use gts_bench::scale;
use gts_bench::table::{secs, ExperimentTable};
use gts_core::engine::{GtsConfig, StorageLocation};
use gts_core::programs::{Bfs, PageRank};
use gts_graph::Dataset;

fn main() {
    let datasets = [
        Dataset::TwitterLike,
        Dataset::YahooWebLike, // high diameter — the Sec. 8 stress case
        Dataset::Rmat(18),
    ];
    // All three engines stream from the same class of storage: 1 SSD.
    let gts_cfg = GtsConfig {
        storage: StorageLocation::Ssds(1),
        mmbuf_percent: 0,
        cache_limit_bytes: Some(0),
        ..scale::gts_config()
    };
    let xstream = XStream::new(XStreamConfig::default());
    let graphchi = GraphChi::new(GraphChiConfig::default());

    for (alg, pagerank) in [("bfs", false), ("pagerank", true)] {
        let mut t = ExperimentTable::new(
            &format!("sec8_{alg}"),
            &format!("{alg}: out-of-core streaming designs, seconds (paper Sec. 8)"),
            &["dataset", "sweeps", "X-Stream", "GraphChi", "GTS"],
        );
        for d in datasets {
            let prep = Prepared::build(d);
            let algo = if pagerank {
                Algo::PageRank {
                    iterations: PR_ITERATIONS,
                }
            } else {
                Algo::Bfs {
                    source: BFS_SOURCE as u32,
                }
            };
            let xs = run(&xstream, &prep.csr, algo).unwrap().report;
            let chi = run(&graphchi, &prep.csr, algo).unwrap().report;
            let gts = if pagerank {
                let mut pr = PageRank::new(prep.store.num_vertices(), PR_ITERATIONS);
                prep.run_gts(gts_cfg.clone(), &mut pr).unwrap().elapsed
            } else {
                let mut bfs = Bfs::new(prep.store.num_vertices(), BFS_SOURCE);
                prep.run_gts(gts_cfg.clone(), &mut bfs).unwrap().elapsed
            };
            t.row(vec![
                d.name(),
                xs.sweeps.to_string(),
                secs(xs.elapsed),
                secs(chi.elapsed),
                secs(gts),
            ]);
        }
        t.finish();
    }
    println!(
        "\n  paper shape: GraphChi < X-Stream in efficiency; on the high-diameter \
         graph X-Stream's per-level full scans explode while GTS streams only \
         frontier pages."
    );
}
