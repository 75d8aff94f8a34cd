//! Baseline sparsifiers for ablation against the effective-resistance
//! sampler.
//!
//! The paper motivates its sparsifier with the Spielman–Srivastava
//! guarantee; these alternatives quantify what that choice buys:
//!
//! * [`UniformSparsifier`] — edges sampled uniformly (no importance);
//! * [`SpanningForestSparsifier`] — keeps a BFS spanning forest (so the
//!   sparsified graph preserves connectivity exactly, which uniform and
//!   ER sampling do not guarantee) and spends the remaining budget
//!   uniformly on non-forest edges.
//!
//! The `ablation_sparsifiers` bench and `splpg-dist` experiments can swap
//! these into SpLPG's pipeline through the common [`Sparsifier`] trait.

use splpg_rng::seq::SliceRandom;
use splpg_rng::Rng;
use splpg_graph::{Graph, GraphBuilder, NodeId};

use crate::{SparsifyConfig, SparsifyError, Sparsifier};

/// Uniform-random edge sampler with replacement: every edge has equal
/// probability `1/|E|`, weights `|E| / L` per draw (the importance-sampling
/// weight specialized to the uniform distribution, summed on repeats).
#[derive(Debug, Clone, Default)]
pub struct UniformSparsifier {
    config: SparsifyConfig,
}

impl UniformSparsifier {
    /// Creates a uniform sparsifier.
    pub fn new(config: SparsifyConfig) -> Self {
        UniformSparsifier { config }
    }
}

impl Sparsifier for UniformSparsifier {
    fn sparsify<R: Rng + ?Sized>(
        &self,
        graph: &Graph,
        rng: &mut R,
    ) -> Result<Graph, SparsifyError> {
        let m = graph.num_edges();
        if m == 0 {
            return Ok(Graph::empty(graph.num_nodes()));
        }
        let l = self.config.resolve_samples(m)?.max(1);
        let w = m as f32 / l as f32;
        let edges = graph.edges();
        let mut b = GraphBuilder::with_capacity(graph.num_nodes(), l.min(m));
        for _ in 0..l {
            let e = edges[rng.gen_range(0..m)];
            b.add_weighted_edge(e.src, e.dst, w).expect("edges from a valid graph");
        }
        Ok(b.build())
    }
}

/// Connectivity-preserving sparsifier: a BFS spanning forest is always
/// kept (weight 1), and the remaining budget is spent on a uniform sample
/// of the non-forest edges.
///
/// Guarantees that sparsification never disconnects a connected partition
/// — the failure mode that makes negative-destination neighborhoods empty
/// under aggressive ER/uniform sampling.
#[derive(Debug, Clone, Default)]
pub struct SpanningForestSparsifier {
    config: SparsifyConfig,
}

impl SpanningForestSparsifier {
    /// Creates a spanning-forest sparsifier.
    pub fn new(config: SparsifyConfig) -> Self {
        SpanningForestSparsifier { config }
    }

    /// The BFS spanning forest of `graph` as canonical edges.
    pub(crate) fn forest_edges(graph: &Graph) -> Vec<(NodeId, NodeId)> {
        let n = graph.num_nodes();
        let mut visited = vec![false; n];
        let mut forest = Vec::with_capacity(n.saturating_sub(1));
        let mut queue = std::collections::VecDeque::new();
        for start in 0..n {
            if visited[start] {
                continue;
            }
            visited[start] = true;
            queue.push_back(start as NodeId);
            while let Some(v) = queue.pop_front() {
                for &u in graph.neighbors(v) {
                    if !visited[u as usize] {
                        visited[u as usize] = true;
                        forest.push((v, u));
                        queue.push_back(u);
                    }
                }
            }
        }
        forest
    }
}

impl Sparsifier for SpanningForestSparsifier {
    fn sparsify<R: Rng + ?Sized>(
        &self,
        graph: &Graph,
        rng: &mut R,
    ) -> Result<Graph, SparsifyError> {
        let m = graph.num_edges();
        if m == 0 {
            return Ok(Graph::empty(graph.num_nodes()));
        }
        let l = self.config.resolve_samples(m)?.max(1);
        let forest = Self::forest_edges(graph);
        let mut b = GraphBuilder::with_capacity(graph.num_nodes(), l.max(forest.len()));
        for &(u, v) in &forest {
            b.add_weighted_edge(u, v, 1.0).expect("forest edges valid");
        }
        // Remaining budget on non-forest edges, sampled without
        // replacement for simplicity (weights 1: this baseline trades the
        // spectral guarantee for connectivity).
        let budget = l.saturating_sub(forest.len());
        if budget > 0 {
            let mut rest: Vec<_> = graph
                .edges()
                .iter()
                .filter(|e| !b.contains_edge(e.src, e.dst))
                .collect();
            rest.shuffle(rng);
            for e in rest.into_iter().take(budget) {
                b.add_weighted_edge(e.src, e.dst, 1.0).expect("edges valid");
            }
        }
        Ok(b.build())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splpg_rng::SeedableRng;
    use splpg_graph::connected_components;

    fn rng() -> splpg_rng::rngs::StdRng {
        splpg_rng::rngs::StdRng::seed_from_u64(17)
    }

    fn dense_ring(n: usize) -> Graph {
        let edges: Vec<(NodeId, NodeId)> = (0..n)
            .flat_map(|i| {
                vec![(i as NodeId, ((i + 1) % n) as NodeId), (i as NodeId, ((i + 4) % n) as NodeId)]
            })
            .collect();
        Graph::from_edges(n, &edges).unwrap()
    }

    #[test]
    fn uniform_keeps_all_nodes_and_subsets_edges() {
        let g = dense_ring(60);
        let s = UniformSparsifier::new(SparsifyConfig::with_alpha(0.2))
            .sparsify(&g, &mut rng())
            .unwrap();
        assert_eq!(s.num_nodes(), g.num_nodes());
        assert!(s.num_edges() <= (0.2 * g.num_edges() as f64).round() as usize);
        for e in s.edges() {
            assert!(g.has_edge(e.src, e.dst));
        }
    }

    #[test]
    fn uniform_expected_weight_preserved() {
        let g = dense_ring(40);
        let mut total = 0.0;
        for seed in 0..30 {
            let mut r = splpg_rng::rngs::StdRng::seed_from_u64(seed);
            let s = UniformSparsifier::new(SparsifyConfig::with_alpha(0.25))
                .sparsify(&g, &mut r)
                .unwrap();
            total += s.total_weight();
        }
        let mean = total / 30.0;
        let expect = g.num_edges() as f64;
        assert!((mean - expect).abs() / expect < 0.05, "mean {mean} vs {expect}");
    }

    #[test]
    fn forest_spans_connected_graph() {
        let g = dense_ring(30);
        let forest = SpanningForestSparsifier::forest_edges(&g);
        assert_eq!(forest.len(), 29);
    }

    #[test]
    fn forest_handles_disconnected_graph() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4)]).unwrap();
        let forest = SpanningForestSparsifier::forest_edges(&g);
        // 3-node component (2 edges) + 2-node component (1 edge).
        assert_eq!(forest.len(), 3);
    }

    #[test]
    fn spanning_forest_sparsifier_preserves_connectivity() {
        let g = dense_ring(50);
        // Very aggressive budget: bare forest.
        let s = SpanningForestSparsifier::new(SparsifyConfig::with_samples(10))
            .sparsify(&g, &mut rng())
            .unwrap();
        let (_, comps) = connected_components(&s);
        assert_eq!(comps, 1, "forest sparsifier must keep the graph connected");
        // ER sampling at the same budget essentially always disconnects it.
        let er = crate::DegreeSparsifier::new(SparsifyConfig::with_samples(10))
            .sparsify(&g, &mut rng())
            .unwrap();
        let (_, er_comps) = connected_components(&er);
        assert!(er_comps > 1);
    }

    #[test]
    fn spanning_forest_budget_grows_edges() {
        let g = dense_ring(50);
        let small = SpanningForestSparsifier::new(SparsifyConfig::with_samples(49))
            .sparsify(&g, &mut rng())
            .unwrap();
        let big = SpanningForestSparsifier::new(SparsifyConfig::with_samples(80))
            .sparsify(&g, &mut rng())
            .unwrap();
        assert!(big.num_edges() > small.num_edges());
        assert!(big.num_edges() <= 80);
    }
}
