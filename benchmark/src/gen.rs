//! Input generation. Everything a workload feeds the program comes from
//! `--seed` through the generators here: graphs through
//! `gts_graph::generate::Rmat::with_seed`, mutation batches and job
//! scripts through the benchmark's own xorshift — not the crates'
//! `seeded_batch` / `synthetic`, so a later change to those cannot
//! change the load. (Mutating *serve* jobs still draw their batch inside
//! the scheduler; the script that schedules them is ours.)

use gts_graph::generate::Rmat;
use gts_graph::{Csr, EdgeList};
use gts_serve::workload::{JobSpec, MutateSpec};
use gts_storage::{GraphStore, MutationBatch};

/// xorshift64 seeded through one splitmix64 step, so nearby seeds give
/// unrelated streams and the state never sticks at zero.
pub struct Xorshift(u64);

impl Xorshift {
    pub fn new(seed: u64) -> Xorshift {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Xorshift((z ^ (z >> 31)) | 1)
    }

    pub fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform-enough draw below `n` (`n >= 1`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Streaming FNV-1a, for the input digests `--compare` checks.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Digest {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn u64(&mut self, x: u64) -> &mut Digest {
        self.bytes(&x.to_le_bytes())
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// A per-purpose seed: the same `--seed` must not drive two inputs with
/// the same stream.
pub fn sub_seed(seed: u64, purpose: &str) -> u64 {
    Digest::new().u64(seed).bytes(purpose.as_bytes()).finish()
}

/// RMAT graph at `scale` with the paper's edge factor 16.
pub fn rmat_graph(scale: u32, seed: u64) -> EdgeList {
    Rmat::new(scale)
        .with_edge_factor(16)
        .with_seed(sub_seed(seed, "graph"))
        .generate()
}

/// Digest of an edge list.
pub fn edges_digest(g: &EdgeList) -> u64 {
    let mut d = Digest::new();
    d.u64(u64::from(g.num_vertices));
    for &(s, t) in &g.edges {
        d.u64(u64::from(s) << 32 | u64::from(t));
    }
    d.finish()
}

/// `count` distinct-draw (not necessarily distinct) vertices that have at
/// least one out-edge, so no traversal is trivially empty.
pub fn sources(csr: &Csr, count: usize, rng: &mut Xorshift) -> Vec<u32> {
    let n = u64::from(csr.num_vertices());
    assert!(csr.num_edges() > 0, "graph has no edges");
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let v = rng.below(n) as u32;
        if csr.out_degree(v) > 0 {
            out.push(v);
        }
    }
    out
}

/// The benchmark's own model of a mutable store: the edge multiset.
/// Batches are drawn against it (deletes always name a live edge, so no
/// operation fails) and the store is checked against it at the end.
pub struct EdgeModel {
    num_vertices: u64,
    edges: Vec<(u64, u64)>,
}

impl EdgeModel {
    pub fn new(g: &EdgeList) -> EdgeModel {
        EdgeModel {
            num_vertices: u64::from(g.num_vertices),
            edges: g
                .edges
                .iter()
                .map(|&(s, t)| (u64::from(s), u64::from(t)))
                .collect(),
        }
    }

    /// Draw a batch of `pairs` inserts interleaved with `pairs` deletes
    /// and apply it to the model; folds the ops into `digest`.
    pub fn next_batch(
        &mut self,
        rng: &mut Xorshift,
        pairs: usize,
        digest: &mut Digest,
    ) -> MutationBatch {
        let mut batch = MutationBatch::new();
        for _ in 0..pairs {
            let (s, t) = (rng.below(self.num_vertices), rng.below(self.num_vertices));
            batch.insert(s, t);
            self.edges.push((s, t));
            let victim = rng.below(self.edges.len() as u64) as usize;
            let (ds, dt) = self.edges.swap_remove(victim);
            batch.delete(ds, dt);
            digest.u64(s).u64(t).u64(ds).u64(dt);
        }
        batch
    }

    /// Does `store` hold exactly the model's edge multiset?
    pub fn matches(&self, store: &GraphStore) -> bool {
        let mut want = self.edges.clone();
        let mut got = store.decode_edges();
        want.sort_unstable();
        got.sort_unstable();
        want == got
    }
}

/// Shape of a serve job script.
pub struct ScriptShape {
    pub jobs: usize,
    pub tenants: usize,
    /// Every `mutate_every`-th job mutates (32 inserts, 4 deletes).
    pub mutate_every: usize,
}

/// A multi-tenant job script: tenants rotate, algorithms rotate
/// bfs / pagerank(3) / cc / sssp, inter-arrival gaps are 50–500 µs on
/// the simulated clock (an open loop: arrivals do not wait for
/// completions), traversals start from vertices with out-edges.
pub fn job_script(shape: &ScriptShape, csr: &Csr, seed: u64) -> Vec<JobSpec> {
    const ALGS: [&str; 4] = ["bfs", "pagerank", "cc", "sssp"];
    let mut rng = Xorshift::new(sub_seed(seed, "jobs"));
    let starts = sources(csr, shape.jobs, &mut rng);
    let mut at = 0u64;
    (0..shape.jobs)
        .map(|i| {
            at += 50_000 + rng.below(450_001);
            let mut spec =
                JobSpec::new(at, format!("t{}", i % shape.tenants), ALGS[i % ALGS.len()]);
            spec.source = u64::from(starts[i]);
            spec.iterations = 3;
            if (i + 1) % shape.mutate_every == 0 {
                spec.algorithm = "bfs".to_string();
                spec.mutate = Some(MutateSpec {
                    at_sweep: 1,
                    inserts: 32,
                    deletes: 4,
                    seed: rng.next(),
                });
            }
            spec
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gts_storage::{build_graph_store, PageFormatConfig};

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = rmat_graph(8, 1);
        assert_eq!(edges_digest(&a), edges_digest(&rmat_graph(8, 1)));
        assert_ne!(edges_digest(&a), edges_digest(&rmat_graph(8, 2)));
        let csr = Csr::from_edge_list(&a);
        let shape = ScriptShape {
            jobs: 40,
            tenants: 8,
            mutate_every: 16,
        };
        let jobs = job_script(&shape, &csr, 7);
        assert_eq!(jobs, job_script(&shape, &csr, 7));
        assert_ne!(jobs, job_script(&shape, &csr, 8));
        assert_eq!(jobs.iter().filter(|j| j.mutate.is_some()).count(), 2);
        assert!(jobs.windows(2).all(|w| {
            let gap = w[1].at_ns - w[0].at_ns;
            (50_000..=500_000).contains(&gap)
        }));
        assert!(jobs.iter().all(|j| csr.out_degree(j.source as u32) > 0));
    }

    #[test]
    fn model_tracks_the_store_through_batches() {
        let g = rmat_graph(8, 3);
        let mut store = build_graph_store(&g, PageFormatConfig::small_default()).unwrap();
        let mut model = EdgeModel::new(&g);
        assert!(model.matches(&store));
        let mut rng = Xorshift::new(9);
        let mut digest = Digest::new();
        for _ in 0..5 {
            let batch = model.next_batch(&mut rng, 16, &mut digest);
            assert_eq!(batch.len(), 32);
            store
                .apply_mutations(&batch)
                .expect("deletes name live edges");
        }
        assert!(model.matches(&store));
        model.edges.pop();
        assert!(!model.matches(&store));
    }
}
