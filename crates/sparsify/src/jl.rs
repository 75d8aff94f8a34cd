use splpg_rng::Rng;
use splpg_graph::{Graph, GraphBuilder};
use splpg_linalg::ResistanceEstimator;

use crate::sampling::AliasTable;
use crate::{SparsifyConfig, SparsifyError, Sparsifier};

/// Spielman–Srivastava sparsifier driven by the Johnson–Lindenstrauss
/// resistance sketch: `k` Laplacian solves estimate *all* edge resistances
/// at once, then edges are sampled proportionally to the estimates.
///
/// Sits between [`crate::ExactSparsifier`] (one solve per distinct
/// endpoint) and [`crate::DegreeSparsifier`] (no solves, the paper's
/// choice): the `ablation_sparsifiers` bench compares all three. The
/// `k` solves run through the blocked multi-RHS engine, only as
/// precisely as the sketch itself
/// ([`ResistanceEstimator::sketch_options`]), and disconnected inputs
/// are supported (per-component solves; edge estimates are always
/// intra-component).
#[derive(Debug, Clone)]
pub struct JlSparsifier {
    config: SparsifyConfig,
    projections: usize,
}

impl JlSparsifier {
    /// Creates a JL sparsifier using `projections` random projections
    /// (Laplacian solves).
    ///
    /// # Panics
    ///
    /// Panics if `projections == 0`.
    pub fn new(config: SparsifyConfig, projections: usize) -> Self {
        assert!(projections > 0, "at least one projection required");
        JlSparsifier { config, projections }
    }
}

impl Sparsifier for JlSparsifier {
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
        let k = self.projections;
        let estimator =
            ResistanceEstimator::build(graph, k, ResistanceEstimator::sketch_options(k), rng)
                .map_err(|e| SparsifyError::Resistance(e.to_string()))?;
        let resistances = estimator.edge_resistances(graph);
        let table = AliasTable::new(&resistances).ok_or_else(|| {
            SparsifyError::Resistance("degenerate resistance estimates".to_string())
        })?;
        let edges = graph.edges();
        let mut b = GraphBuilder::with_capacity(graph.num_nodes(), l.min(m));
        for _ in 0..l {
            let idx = table.sample(rng);
            let e = edges[idx];
            let w = 1.0 / (l as f64 * table.probability(idx));
            b.add_weighted_edge(e.src, e.dst, w as f32).expect("edges from a valid graph");
        }
        Ok(b.build())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splpg_rng::SeedableRng;
    use splpg_graph::NodeId;

    fn rng() -> splpg_rng::rngs::StdRng {
        splpg_rng::rngs::StdRng::seed_from_u64(29)
    }

    fn dense_ring(n: usize) -> Graph {
        let edges: Vec<(NodeId, NodeId)> = (0..n)
            .flat_map(|i| {
                vec![(i as NodeId, ((i + 1) % n) as NodeId), (i as NodeId, ((i + 3) % n) as NodeId)]
            })
            .collect();
        Graph::from_edges(n, &edges).unwrap()
    }

    #[test]
    fn keeps_nodes_and_respects_budget() {
        let g = dense_ring(30);
        let s = JlSparsifier::new(SparsifyConfig::with_alpha(0.3), 64)
            .sparsify(&g, &mut rng())
            .unwrap();
        assert_eq!(s.num_nodes(), 30);
        assert!(s.num_edges() <= (0.3 * g.num_edges() as f64).round() as usize);
        for e in s.edges() {
            assert!(g.has_edge(e.src, e.dst));
        }
    }

    #[test]
    fn sampling_distribution_close_to_exact() {
        // JL-based sampling probabilities should correlate with the exact
        // sparsifier's: compare total weight preservation.
        let g = dense_ring(24);
        let mut total = 0.0;
        let runs = 20;
        for seed in 0..runs {
            let mut r = splpg_rng::rngs::StdRng::seed_from_u64(seed);
            let s = JlSparsifier::new(SparsifyConfig::with_alpha(0.4), 128)
                .sparsify(&g, &mut r)
                .unwrap();
            total += s.total_weight();
        }
        let mean = total / runs as f64;
        let expect = g.num_edges() as f64;
        assert!((mean - expect).abs() / expect < 0.1, "mean {mean} vs {expect}");
    }

    #[test]
    fn disconnected_graph_supported() {
        // Partition-local graphs are never connected; the JL path must
        // still produce a valid sparsifier from per-component solves.
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let s = JlSparsifier::new(SparsifyConfig::with_samples(4), 16)
            .sparsify(&g, &mut rng())
            .unwrap();
        assert_eq!(s.num_nodes(), 4);
        for e in s.edges() {
            assert!(g.has_edge(e.src, e.dst));
        }
    }

    #[test]
    #[should_panic(expected = "at least one projection")]
    fn zero_projections_panics() {
        let _ = JlSparsifier::new(SparsifyConfig::default(), 0);
    }
}
