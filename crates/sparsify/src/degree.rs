use splpg_rng::Rng;
use splpg_graph::{Graph, GraphBuilder};

use crate::sampling::AliasTable;
use crate::{SparsifyConfig, SparsifyError, Sparsifier};

/// The paper's effective-resistance sparsifier with the degree-based
/// approximation of Theorem 2 (Algorithm 1, lines 4–14).
///
/// For every edge `(u, v)` the sampling score is `1/d_u + 1/d_v`, which
/// bounds the true effective resistance within a factor `[1/2, 1/gamma]`
/// (Lovász). `L` edges are drawn with replacement (probability proportional
/// to score), each retained edge gets weight `1/(L p_(u,v))`, and weights
/// are summed when an edge is drawn multiple times. All nodes are kept.
///
/// # Examples
///
/// ```
/// use splpg_rng::SeedableRng;
/// use splpg_graph::Graph;
/// use splpg_sparsify::{DegreeSparsifier, SparsifyConfig, Sparsifier};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)])?;
/// let mut rng = splpg_rng::rngs::StdRng::seed_from_u64(3);
/// let s = DegreeSparsifier::new(SparsifyConfig::with_samples(2)).sparsify(&g, &mut rng)?;
/// assert_eq!(s.num_nodes(), 4);
/// assert!(s.num_edges() <= 2);
/// assert!(s.is_weighted());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct DegreeSparsifier {
    config: SparsifyConfig,
}

impl DegreeSparsifier {
    /// Creates a sparsifier with the given level configuration.
    pub fn new(config: SparsifyConfig) -> Self {
        DegreeSparsifier { config }
    }

    /// The degree-based sampling scores `1/d_u + 1/d_v` for every canonical
    /// edge, in edge-list order. Exposed so callers (and the validation
    /// tests) can inspect the distribution (C-INTERMEDIATE).
    pub fn scores(graph: &Graph) -> Vec<f64> {
        graph
            .edges()
            .iter()
            .map(|e| {
                let du = graph.degree(e.src) as f64;
                let dv = graph.degree(e.dst) as f64;
                1.0 / du + 1.0 / dv
            })
            .collect()
    }
}

impl Sparsifier for DegreeSparsifier {
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
        let scores = Self::scores(graph);
        let table = AliasTable::new(&scores).ok_or_else(|| {
            SparsifyError::InvalidConfig("degenerate edge score distribution".to_string())
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

    fn rng(seed: u64) -> splpg_rng::rngs::StdRng {
        splpg_rng::rngs::StdRng::seed_from_u64(seed)
    }

    fn ring_with_chords(n: usize) -> Graph {
        let edges: Vec<(NodeId, NodeId)> = (0..n)
            .flat_map(|i| {
                vec![
                    (i as NodeId, ((i + 1) % n) as NodeId),
                    (i as NodeId, ((i + 5) % n) as NodeId),
                ]
            })
            .collect();
        Graph::from_edges(n, &edges).unwrap()
    }

    #[test]
    fn keeps_all_nodes() {
        let g = ring_with_chords(100);
        let s = DegreeSparsifier::new(SparsifyConfig::with_alpha(0.1))
            .sparsify(&g, &mut rng(1))
            .unwrap();
        assert_eq!(s.num_nodes(), g.num_nodes());
    }

    #[test]
    fn removes_roughly_the_right_fraction() {
        // alpha = 0.15 keeps at most 15% of edges (with replacement, fewer
        // distinct survive).
        let g = ring_with_chords(400);
        let s = DegreeSparsifier::new(SparsifyConfig::with_alpha(0.15))
            .sparsify(&g, &mut rng(2))
            .unwrap();
        let kept = s.num_edges() as f64 / g.num_edges() as f64;
        assert!(kept <= 0.15 + 1e-9, "kept {kept}");
        assert!(kept >= 0.08, "kept {kept} unexpectedly few");
    }

    #[test]
    fn sparse_edges_subset_of_original() {
        let g = ring_with_chords(60);
        let s = DegreeSparsifier::default().sparsify(&g, &mut rng(3)).unwrap();
        for e in s.edges() {
            assert!(g.has_edge(e.src, e.dst), "edge {e:?} not in original");
        }
    }

    #[test]
    fn weights_are_inverse_probability() {
        // With exactly 1 sample, the chosen edge weight must be 1/p.
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let sparsifier = DegreeSparsifier::new(SparsifyConfig::with_samples(1));
        let s = sparsifier.sparsify(&g, &mut rng(4)).unwrap();
        assert_eq!(s.num_edges(), 1);
        let e = s.edges()[0];
        // Both edges have identical score (1/1 + 1/2), so p = 0.5, w = 2.
        assert!((s.edge_weight(e.src, e.dst).unwrap() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn expected_total_weight_matches_original() {
        // E[sum of weights] = |E| for an unweighted graph: each draw
        // contributes exactly 1/(L p) with probability p over edges.
        let g = ring_with_chords(100);
        let mut total = 0.0;
        let runs = 40;
        for seed in 0..runs {
            let s = DegreeSparsifier::new(SparsifyConfig::with_alpha(0.2))
                .sparsify(&g, &mut rng(seed))
                .unwrap();
            total += s.total_weight();
        }
        let mean = total / runs as f64;
        let expect = g.num_edges() as f64;
        assert!(
            (mean - expect).abs() / expect < 0.05,
            "mean weight {mean} vs expected {expect}"
        );
    }

    #[test]
    fn empty_graph_passthrough() {
        let g = Graph::empty(10);
        let s = DegreeSparsifier::default().sparsify(&g, &mut rng(5)).unwrap();
        assert_eq!(s.num_nodes(), 10);
        assert_eq!(s.num_edges(), 0);
    }

    #[test]
    fn scores_match_degree_formula() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let scores = DegreeSparsifier::scores(&g);
        // Edge (0,1): 1/1 + 1/2 = 1.5; edge (1,2): 1/2 + 1/1 = 1.5.
        assert_eq!(scores, vec![1.5, 1.5]);
    }

    #[test]
    fn low_degree_edges_preferentially_kept() {
        // Two hubs joined by an edge (score 2/21, "unimportant") plus a
        // pendant edge (score 1.5, "important"): the pendant must survive
        // sparsification far more often than the hub-hub edge.
        let mut edges = vec![(0u32, 1u32)]; // hub-hub
        for i in 0..20u32 {
            edges.push((0, 2 + i));
            edges.push((1, 22 + i));
        }
        edges.push((41, 42)); // pendant: deg(41)=2, deg(42)=1 -> score 1.5
        let g = Graph::from_edges(43, &edges).unwrap();
        let (mut pendant_kept, mut hub_kept) = (0, 0);
        for seed in 0..60 {
            let s = DegreeSparsifier::new(SparsifyConfig::with_alpha(0.3))
                .sparsify(&g, &mut rng(seed))
                .unwrap();
            pendant_kept += s.has_edge(41, 42) as usize;
            hub_kept += s.has_edge(0, 1) as usize;
        }
        assert!(
            pendant_kept > 2 * hub_kept + 5,
            "pendant {pendant_kept} vs hub {hub_kept}"
        );
    }
}
