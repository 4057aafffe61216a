//! Dataset presets mirroring the paper's Table 3, at reproduction scale.
//!
//! The paper evaluates on RMAT27–RMAT32 (2G–64G edges) and three real graphs
//! (Twitter, UK2007, YahooWeb). Neither the hardware nor the downloads are
//! available here, so each dataset is replaced by a *scaled look-alike* with
//! the same shape characteristics that the experiments exercise:
//!
//! The workspace-wide scale factor is **1/1024** (paper RMAT*k* ↔ our
//! RMAT*(k−10)*; all memory capacities divide by 1024 — see
//! `gts-bench`'s `scale` module and DESIGN.md §1), which gives:
//!
//! | Paper dataset | Shape that matters | Look-alike (÷1024) |
//! |---|---|---|
//! | RMAT27..32 (2G..64G e) | power-law, density 16 | RMAT17..22 |
//! | Twitter (42M v, 1.47G e, density ~35) | dense social network | RMAT15, edge factor 35 |
//! | UK2007 (106M v, 3.74G e, web) | medium web crawl | RMAT17, edge factor 28 |
//! | YahooWeb (1.4G v, 6.6G e, density ~4.7, high diameter) | sparse, deep BFS | [`web_like`] chain (~1.4M v) |

use crate::generate::{web_like, Rmat};
use crate::types::EdgeList;

/// A named dataset preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// RMAT at the given scale (2^scale vertices, 16 edges/vertex).
    Rmat(u32),
    /// Scaled Twitter look-alike: dense power-law social graph.
    TwitterLike,
    /// Scaled UK2007 look-alike: medium-density web crawl.
    Uk2007Like,
    /// Scaled YahooWeb look-alike: sparse, high-diameter web graph.
    YahooWebLike,
}

impl Dataset {
    /// Human-readable name used in experiment tables.
    pub fn name(&self) -> String {
        match self {
            Dataset::Rmat(s) => format!("RMAT{s}"),
            Dataset::TwitterLike => "twitter-like".into(),
            Dataset::Uk2007Like => "uk2007-like".into(),
            Dataset::YahooWebLike => "yahooweb-like".into(),
        }
    }

    /// Generate the dataset's edge list (deterministic).
    pub fn generate(&self) -> EdgeList {
        match self {
            Dataset::Rmat(s) => Rmat::new(*s).generate(),
            // Twitter: very dense (paper density ≈ 35), strongly skewed.
            Dataset::TwitterLike => Rmat::new(15).with_edge_factor(35).with_seed(42).generate(),
            // UK2007: larger vertex set, moderate density (its
            // transfer:kernel ratio lands between the other two, Table 1).
            Dataset::Uk2007Like => Rmat::new(17).with_edge_factor(28).with_seed(43).generate(),
            // YahooWeb: sparse (density ≈ 4.7) and high-diameter (a BFS
            // from vertex 0 runs ~260 levels deep — hundreds of supersteps
            // for level-synchronous engines).
            Dataset::YahooWebLike => web_like(256, 5400, 4, 44),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::Csr;
    use crate::stats::degree_stats;

    #[test]
    fn names_are_stable() {
        assert_eq!(Dataset::Rmat(20).name(), "RMAT20");
        assert_eq!(Dataset::TwitterLike.name(), "twitter-like");
    }

    #[test]
    fn twitter_like_is_denser_than_yahoo_like() {
        let tw = Dataset::TwitterLike.generate();
        let yh = Dataset::YahooWebLike.generate();
        assert!(tw.density() > 3.0 * yh.density());
    }

    #[test]
    fn yahoo_like_is_sparse_like_the_paper() {
        let yh = Dataset::YahooWebLike.generate();
        // Paper YahooWeb density = 6636/1414 ≈ 4.7.
        assert!(yh.density() > 3.0 && yh.density() < 7.0, "{}", yh.density());
    }

    #[test]
    fn twitter_like_is_skewed() {
        let st = degree_stats(&Csr::from_edge_list(&Dataset::TwitterLike.generate()));
        assert!(st.max_out_degree as f64 > 20.0 * st.mean_out_degree);
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(
            Dataset::Uk2007Like.generate(),
            Dataset::Uk2007Like.generate()
        );
    }
}
