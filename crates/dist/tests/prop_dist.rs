//! Property-style tests on the distributed data plane, run as seeded
//! loops: metering invariants must hold for arbitrary community graphs,
//! strategies and partition counts.

use std::sync::Arc;

use splpg_dist::{ClusterSetup, DistError, Strategy as TrainingStrategy};
use splpg_gnn::{GraphAccess, NeighborSampler};
use splpg_graph::{FeatureMatrix, Graph, NodeId};
use splpg_rng::{Rng, SeedableRng};

const CASES: u64 = 24;

fn rng(seed: u64) -> splpg_rng::rngs::StdRng {
    splpg_rng::rngs::StdRng::seed_from_u64(seed)
}

/// A random simple graph with 16..60 nodes and 2n..6n edges.
fn rand_graph(r: &mut splpg_rng::rngs::StdRng) -> (usize, Vec<(NodeId, NodeId)>) {
    let n = r.gen_range(16usize..60);
    let m = r.gen_range(2 * n..6 * n);
    let mut edges: Vec<(NodeId, NodeId)> = Vec::with_capacity(m);
    while edges.len() < m {
        let u = r.gen_range(0..n as NodeId);
        let v = r.gen_range(0..n as NodeId);
        if u != v {
            edges.push((u, v));
        }
    }
    (n, edges)
}

fn try_setup(
    n: usize,
    edges: &[(NodeId, NodeId)],
    strategy: TrainingStrategy,
    workers: usize,
    seed: u64,
) -> Result<ClusterSetup, DistError> {
    let g = Arc::new(Graph::from_edges(n, edges).unwrap());
    let f = Arc::new(FeatureMatrix::zeros(n, 4));
    ClusterSetup::build(&g, &f, strategy.spec(), workers, 0.15, seed)
}

fn setup(
    n: usize,
    edges: &[(NodeId, NodeId)],
    strategy: TrainingStrategy,
    workers: usize,
    seed: u64,
) -> ClusterSetup {
    try_setup(n, edges, strategy, workers, seed).unwrap()
}

#[test]
fn local_only_strategies_never_transfer() {
    // Dense graphs cut four ways can leave a source adjacent to its whole
    // local negative space; setup rejects those (typed), and the loop
    // draws on until CASES setups have been checked.
    let mut checked = 0;
    for case in 0..4 * CASES {
        let mut r = rng(case);
        let (n, edges) = rand_graph(&mut r);
        let s = match try_setup(n, &edges, TrainingStrategy::PsgdPa, 4, case) {
            Ok(s) => s,
            Err(DistError::InvalidConfig(_)) => continue,
            Err(e) => panic!("case {case}: {e}"),
        };
        let sampler = NeighborSampler::full(2);
        // Sample from every worker's core nodes: no byte may be metered.
        for w in &s.workers {
            let core = s.partition.part_nodes(w.worker_id as u32);
            let view = w.view.clone();
            let _ = sampler.sample(&view, &core[..core.len().min(4)], &mut r);
        }
        assert_eq!(s.tracker.total_bytes(), 0, "case {case}");
        checked += 1;
        if checked == CASES {
            return;
        }
    }
    panic!("only {checked} of {} setups were valid", 4 * CASES);
}

#[test]
fn halo_makes_core_one_hop_free() {
    // Under SpLPG, expanding one hop from core nodes touches only
    // locally-stored structure.
    for case in 0..CASES {
        let mut r = rng(1000 + case);
        let (n, edges) = rand_graph(&mut r);
        let s = setup(n, &edges, TrainingStrategy::SpLpg, 2, case);
        for w in &s.workers {
            let view = w.view.clone();
            for &v in s.partition.part_nodes(w.worker_id as u32).iter().take(6) {
                let before = s.tracker.total_bytes();
                let _ = view.neighbors(v);
                assert_eq!(
                    s.tracker.total_bytes(),
                    before,
                    "case {case}: core neighbor fetch was metered"
                );
            }
        }
    }
}

#[test]
fn positives_cover_every_edge_at_least_once() {
    // Under halo retention the union of worker positives covers every
    // edge (cross edges twice); without halo, exactly the intra edges.
    for case in 0..CASES {
        let mut r = rng(2000 + case);
        let (n, edges) = rand_graph(&mut r);
        let g = Graph::from_edges(n, &edges).unwrap();
        let s = setup(n, &edges, TrainingStrategy::SpLpg, 3, case);
        let mut covered = std::collections::BTreeSet::new();
        for w in &s.workers {
            for e in &w.positives {
                covered.insert((e.src, e.dst));
            }
        }
        assert_eq!(covered.len(), g.num_edges(), "case {case}");
    }
}

#[test]
fn negative_spaces_match_strategy() {
    for case in 0..CASES {
        let mut r = rng(3000 + case);
        let (n, edges) = rand_graph(&mut r);
        let local = setup(n, &edges, TrainingStrategy::PsgdPa, 2, case);
        let global = setup(n, &edges, TrainingStrategy::SpLpg, 2, case);
        for w in &local.workers {
            assert!(w.negative_space.len() < n, "case {case}");
        }
        for w in &global.workers {
            assert_eq!(w.negative_space.len(), n, "case {case}");
        }
    }
}

#[test]
fn remote_fetch_prices_match_payload() {
    for case in 0..CASES {
        let mut r = rng(4000 + case);
        let (n, edges) = rand_graph(&mut r);
        let s = setup(n, &edges, TrainingStrategy::SpLpgPlus, 2, case);
        let g = Graph::from_edges(n, &edges).unwrap();
        // Fetch a node owned by worker 1 from worker 0's view.
        let remote = s.partition.part_nodes(1)[0];
        let view = s.workers[0].view.clone();
        if g.neighbors(remote).iter().any(|&u| s.partition.part_of(u) == 0) {
            // Halo node: free by design.
            continue;
        }
        let before = s.tracker.structure_bytes();
        let nbrs = view.neighbors(remote);
        let cost = s.tracker.structure_bytes() - before;
        assert_eq!(
            cost,
            nbrs.len() as u64 * splpg_dist::BYTES_PER_EDGE + splpg_dist::BYTES_PER_NODE_ID,
            "case {case}"
        );
        assert_eq!(nbrs.len(), g.degree(remote), "case {case}");
    }
}
