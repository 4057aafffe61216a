//! Datasets, and the two kinds of cell every experiment runs: GTS through
//! [`Engine`], the comparators through [`gts_baselines::run`].
//!
//! A run is `Some(report)`, or `None` when it ran out of memory — the
//! figures' `O.O.M.` cells. Only [`EngineError::DeviceOom`] and
//! [`BaselineError::OutOfMemory`] make such a cell; any other failure is an
//! error naming the row and the cell, and ends the experiment.

use crate::scale;
use gts_baselines::{run, Algo, BaselineError, CostModel};
use gts_core::engine::{EngineError, GtsConfig};
use gts_core::programs::{Bc, Bfs, Cc, GtsProgram, PageRank, Sssp};
use gts_core::{Engine, JobOptions, RunReport};
use gts_graph::{Csr, Dataset, EdgeList};
use gts_storage::builder::{build_from_csr, GraphStore};
use gts_storage::PageFormatConfig;

/// BFS from vertex 0, which RMAT always connects.
pub const BFS: Algo = Algo::Bfs { source: 0 };

/// PageRank for the ten iterations the paper measures.
pub const PR: Algo = Algo::PageRank { iterations: 10 };

/// A graph prepared for every engine: the comparators' CSR and GTS's
/// slotted-page store.
pub struct Prepared {
    /// The table row it makes.
    pub name: String,
    /// The dataset it is, or is derived from.
    pub dataset: Dataset,
    /// The CSR.
    pub csr: Csr,
    /// The store.
    pub store: GraphStore,
}

impl Prepared {
    /// Prepare `edges` as row `name`, with pages of format `fmt`.
    pub fn new(name: String, dataset: Dataset, edges: EdgeList, fmt: PageFormatConfig) -> Self {
        let csr = Csr::from_edge_list(&edges);
        let store = build_from_csr(&csr, fmt).expect("the graph fits its page format");
        Prepared {
            name,
            dataset,
            csr,
            store,
        }
    }

    /// Generate and prepare `d` under the scale policy's page format.
    pub fn build(d: Dataset) -> Prepared {
        Prepared::new(d.name(), d, d.generate(), scale::page_format_for(d))
    }

    /// Run `algo` on GTS under `cfg`.
    pub fn gts(&self, cfg: GtsConfig, algo: Algo) -> Result<Option<RunReport>, String> {
        let mut prog = program(algo, self.store.num_vertices());
        let engine = Engine::new(cfg).expect("bench configurations are valid");
        let cell = || format!("row {}, GTS {}", self.name, algo.algorithm().report_name);
        match engine.run_job(&self.store, prog.as_mut(), &JobOptions::default()) {
            Ok(report) => Ok(Some(report)),
            Err(EngineError::DeviceOom(_)) => Ok(None),
            Err(e) => Err(format!("{}: {e}", cell())),
        }
    }

    /// [`Prepared::gts`] for a cell that needs a measurement: running out
    /// of memory is an error too.
    pub fn measure(&self, cfg: GtsConfig, algo: Algo) -> Result<RunReport, String> {
        let oom = || {
            format!(
                "row {}, GTS {}: out of device memory",
                self.name,
                algo.algorithm().report_name
            )
        };
        self.gts(cfg, algo)?.ok_or_else(oom)
    }

    /// Run `algo` on the comparator engine `e`.
    pub fn baseline(&self, e: &dyn CostModel, algo: Algo) -> Option<RunReport> {
        match run(e, &self.csr, algo) {
            Ok(r) => Some(r.report),
            Err(BaselineError::OutOfMemory { .. }) => None,
        }
    }
}

/// The GTS program that runs `algo` on `v` vertices.
pub fn program(algo: Algo, v: u64) -> Box<dyn GtsProgram> {
    match algo {
        Algo::Bfs { source } => Box::new(Bfs::new(v, source.into())),
        Algo::Sssp { source } => Box::new(Sssp::new(v, source.into())),
        Algo::Bc { source } => Box::new(Bc::new(v, source.into())),
        Algo::Cc => Box::new(Cc::new(v)),
        Algo::PageRank { iterations } => Box::new(PageRank::new(v, iterations)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_an_out_of_memory_failure_is_an_oom_cell() {
        let prep = Prepared::build(Dataset::Rmat(8));
        let cfg = GtsConfig {
            run_budget_ns: Some(1),
            ..scale::gts_config()
        };
        let err = prep
            .gts(cfg, BFS)
            .expect_err("a blown budget is not O.O.M.");
        assert!(
            err.starts_with("row RMAT8, GTS BFS: run_budget_ns exceeded"),
            "{err}"
        );
        let tiny = GtsConfig {
            gpu: scale::gpu().with_device_memory(1024),
            ..scale::gts_config()
        };
        assert!(
            prep.gts(tiny, BFS).unwrap().is_none(),
            "device OOM is O.O.M."
        );
        assert!(prep.gts(scale::gts_config(), BFS).unwrap().is_some());
    }
}
