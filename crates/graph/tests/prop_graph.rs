//! Property-style tests on the CSR graph invariants, run as seeded loops.
//!
//! Each case draws a random simple graph from a generator seeded by the
//! loop index, so failures reproduce exactly from the printed case number.

use splpg_graph::{Graph, GraphBuilder, InducedSubgraph, NodeId};
use splpg_rng::{Rng, SeedableRng};

const CASES: u64 = 64;

fn rng(seed: u64) -> splpg_rng::rngs::StdRng {
    splpg_rng::rngs::StdRng::seed_from_u64(seed)
}

/// A random simple graph as (num_nodes, edge list): 2..40 nodes, up to 120
/// candidate edges with self-loops filtered out.
fn rand_graph(r: &mut splpg_rng::rngs::StdRng) -> (usize, Vec<(NodeId, NodeId)>) {
    let n = r.gen_range(2usize..40);
    let m = r.gen_range(0usize..120);
    let mut edges = Vec::with_capacity(m);
    while edges.len() < m {
        let u = r.gen_range(0..n as NodeId);
        let v = r.gen_range(0..n as NodeId);
        if u != v {
            edges.push((u, v));
        }
    }
    (n, edges)
}

#[test]
fn built_graph_always_validates() {
    for case in 0..CASES {
        let (n, edges) = rand_graph(&mut rng(case));
        let g = Graph::from_edges(n, &edges).unwrap();
        g.validate().unwrap();
    }
}

#[test]
fn handshake_lemma() {
    for case in 0..CASES {
        let (n, edges) = rand_graph(&mut rng(1000 + case));
        let g = Graph::from_edges(n, &edges).unwrap();
        let degree_sum: usize = (0..n as NodeId).map(|v| g.degree(v)).sum();
        assert_eq!(degree_sum, 2 * g.num_edges(), "case {case}");
    }
}

#[test]
fn has_edge_matches_edge_list() {
    for case in 0..CASES {
        let (n, edges) = rand_graph(&mut rng(2000 + case));
        let g = Graph::from_edges(n, &edges).unwrap();
        for e in g.edges() {
            assert!(g.has_edge(e.src, e.dst), "case {case}");
            assert!(g.has_edge(e.dst, e.src), "case {case}");
        }
    }
}

#[test]
fn induced_subgraph_edges_subset() {
    for case in 0..CASES {
        let mut r = rng(4000 + case);
        let (n, edges) = rand_graph(&mut r);
        let g = Graph::from_edges(n, &edges).unwrap();
        let picks = r.gen_range(1usize..10);
        let nodes: Vec<NodeId> = (0..picks).map(|_| r.gen_range(0..n) as NodeId).collect();
        let sub = InducedSubgraph::extract(&g, &nodes);
        sub.graph.validate().unwrap();
        for e in sub.graph.edges() {
            let gu = sub.mapping.to_global(e.src);
            let gv = sub.mapping.to_global(e.dst);
            assert!(g.has_edge(gu, gv), "case {case}");
        }
    }
}

#[test]
fn halo_preserves_core_degrees() {
    for case in 0..CASES {
        let mut r = rng(5000 + case);
        let (n, edges) = rand_graph(&mut r);
        let g = Graph::from_edges(n, &edges).unwrap();
        let picks = r.gen_range(1usize..8);
        let mut core: Vec<NodeId> = (0..picks).map(|_| r.gen_range(0..n) as NodeId).collect();
        core.sort_unstable();
        core.dedup();
        let sub = InducedSubgraph::extract_with_halo(&g, &core);
        sub.graph.validate().unwrap();
        for &c in &core {
            let local = sub.mapping.to_local(c).unwrap();
            assert_eq!(
                sub.graph.degree(local),
                g.degree(c),
                "case {case}: core node {c} lost neighbors"
            );
        }
    }
}

#[test]
fn weighted_duplicate_accumulation() {
    for case in 0..CASES {
        let mut r = rng(6000 + case);
        let n = r.gen_range(2usize..20);
        let reps = r.gen_range(1usize..6);
        let w = r.gen_range(0.01f32..10.0);
        let mut b = GraphBuilder::new(n);
        for _ in 0..reps {
            b.add_weighted_edge(0, 1, w).unwrap();
        }
        let g = b.build();
        let got = g.edge_weight(0, 1).unwrap();
        assert!(
            (got - w * reps as f32).abs() < 1e-4 * reps as f32,
            "case {case}: got {got}, want {}",
            w * reps as f32
        );
    }
}
