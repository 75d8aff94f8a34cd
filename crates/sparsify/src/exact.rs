use splpg_rng::Rng;
use splpg_graph::{Graph, GraphBuilder};
use splpg_linalg::{CgOptions, EngineOptions, SolverEngine};

use crate::sampling::AliasTable;
use crate::{SparsifyConfig, SparsifyError, Sparsifier};

/// Spielman–Srivastava sparsifier using *exact* effective resistances
/// (Eq. (3) of the paper), computed through the Jacobi-preconditioned
/// multi-RHS solver engine with **per-node solve reuse**: one solve per
/// distinct edge endpoint (`<= n`) instead of one per edge (`m`), each
/// resistance recovered as `R(u,v) = x_u[u] - x_u[v] - x_v[u] + x_v[v]`.
///
/// It exists to validate [`crate::DegreeSparsifier`] (the
/// `ablation_sparsifier` experiment compares the two) and to demonstrate
/// the spectral guarantee of Theorem 1 in tests.
///
/// Disconnected inputs are fine (solves project per connected
/// component; every edge's endpoints trivially share a component) — the
/// shape `dist::setup` feeds it, since partition-local subgraphs keep
/// all global node ids.
#[derive(Debug, Clone, Default)]
pub struct ExactSparsifier {
    config: SparsifyConfig,
}

impl ExactSparsifier {
    /// CG tolerance for the exact path: 1e-8, matching the per-edge
    /// reference's `CgOptions::default()` so the two paths are directly
    /// comparable; the four-term per-node recovery still lands within
    /// ~1e-8 relative error of that reference (the test
    /// `tests/it_solver.rs::engine_beats_the_per_edge_baseline_on_a_community_graph`
    /// bounds it at 1e-6).
    const TOLERANCE: f64 = 1e-8;

    /// Creates an exact-resistance sparsifier.
    pub fn new(config: SparsifyConfig) -> Self {
        ExactSparsifier { config }
    }

    /// Solver options the exact path uses (shared with
    /// `tests/it_solver.rs::engine_beats_the_per_edge_baseline_on_a_community_graph`,
    /// so it checks the same configuration).
    pub fn engine_options() -> EngineOptions {
        EngineOptions::with_cg(CgOptions { tolerance: Self::TOLERANCE, ..CgOptions::default() })
    }

    /// Exact effective resistances for every canonical edge, in edge-list
    /// order, via one blocked multi-RHS solve sweep per
    /// [`EngineOptions::block_width`] distinct endpoints.
    ///
    /// # Errors
    ///
    /// [`SparsifyError::Resistance`] if CG fails to converge or breaks
    /// down.
    pub fn resistances(graph: &Graph) -> Result<Vec<f64>, SparsifyError> {
        let pairs: Vec<_> = graph.edges().iter().map(|e| (e.src, e.dst)).collect();
        let mut engine = SolverEngine::new(graph, Self::engine_options());
        engine
            .edge_resistances(&pairs)
            .map_err(|err| SparsifyError::Resistance(err.to_string()))
    }
}

impl Sparsifier for ExactSparsifier {
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
        let resistances = Self::resistances(graph)?;
        let table = AliasTable::new(&resistances).ok_or_else(|| {
            SparsifyError::Resistance("degenerate resistance distribution".to_string())
        })?;
        let mut b = GraphBuilder::with_capacity(graph.num_nodes(), l.min(m));
        let edges = graph.edges();
        for _ in 0..l {
            let idx = table.sample(rng);
            let e = edges[idx];
            let p = table.probability(idx);
            let w = 1.0 / (l as f64 * p);
            b.add_weighted_edge(e.src, e.dst, w as f32)
                .expect("edges come from a valid graph");
        }
        Ok(b.build())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splpg_rng::SeedableRng;
    use splpg_graph::NodeId;
    use splpg_linalg::quadratic_form;

    fn rng(seed: u64) -> splpg_rng::rngs::StdRng {
        splpg_rng::rngs::StdRng::seed_from_u64(seed)
    }

    fn dense_ring(n: usize) -> Graph {
        let edges: Vec<(NodeId, NodeId)> = (0..n)
            .flat_map(|i| {
                vec![
                    (i as NodeId, ((i + 1) % n) as NodeId),
                    (i as NodeId, ((i + 2) % n) as NodeId),
                    (i as NodeId, ((i + 3) % n) as NodeId),
                ]
            })
            .collect();
        Graph::from_edges(n, &edges).unwrap()
    }

    #[test]
    fn resistance_distribution_valid() {
        let g = dense_ring(20);
        let r = ExactSparsifier::resistances(&g).unwrap();
        assert_eq!(r.len(), g.num_edges());
        assert!(r.iter().all(|&x| x > 0.0 && x <= 1.0 + 1e-9));
    }

    #[test]
    fn disconnected_graph_supported() {
        // Partition-local graphs are never connected; per-component
        // solves make every edge's resistance well-defined anyway.
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let r = ExactSparsifier::resistances(&g).unwrap();
        assert_eq!(r.len(), 2);
        for ri in r {
            assert!((ri - 1.0).abs() < 1e-6, "isolated edge resistance {ri}");
        }
    }

    #[test]
    fn theorem1_quadratic_form_preserved() {
        // With a generous sample budget the sparsifier must approximately
        // preserve x^T L x (Theorem 1) for random test vectors.
        let g = dense_ring(30);
        // Oversample: L = 8 |E| keeps the estimate tight.
        let s = ExactSparsifier::new(SparsifyConfig::with_samples(8 * g.num_edges()))
            .sparsify(&g, &mut rng(1))
            .unwrap();
        let mut r = rng(2);
        for _ in 0..5 {
            let x: Vec<f64> = (0..g.num_nodes()).map(|_| r.gen::<f64>() - 0.5).collect();
            let qf = quadratic_form(&g, &x).unwrap();
            let qf_s = quadratic_form(&s, &x).unwrap();
            let rel = (qf_s - qf).abs() / qf.max(1e-12);
            assert!(rel < 0.35, "quadratic form off by {rel}");
        }
    }

    #[test]
    fn approx_scores_bound_exact_resistances() {
        // Theorem 2 bracket: base/2 <= r <= base/gamma for every edge.
        let g = dense_ring(16);
        let r = ExactSparsifier::resistances(&g).unwrap();
        let scores = crate::DegreeSparsifier::scores(&g);
        let gamma =
            splpg_linalg::lambda2_normalized(&g, splpg_linalg::PowerIterOptions::default())
                .unwrap();
        for (ri, base) in r.iter().zip(&scores) {
            assert!(*ri >= base / 2.0 - 1e-9, "lower bound violated");
            assert!(*ri <= base / gamma + 1e-9, "upper bound violated");
        }
    }

    #[test]
    fn keeps_all_nodes_and_subset_edges() {
        let g = dense_ring(24);
        let s = ExactSparsifier::new(SparsifyConfig::with_alpha(0.3))
            .sparsify(&g, &mut rng(3))
            .unwrap();
        assert_eq!(s.num_nodes(), g.num_nodes());
        for e in s.edges() {
            assert!(g.has_edge(e.src, e.dst));
        }
    }
}
