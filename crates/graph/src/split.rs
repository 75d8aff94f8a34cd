use splpg_rng::seq::SliceRandom;
use splpg_rng::Rng;

use crate::{Edge, Graph, GraphError, NodeId};

/// Fractions used to split edges into train/validation/test sets.
///
/// The paper uses 80% / 10% / 10% for the DGL datasets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitFractions {
    /// Fraction of edges used for training.
    pub train: f64,
    /// Fraction held out for validation.
    pub valid: f64,
    /// Fraction held out for testing (the remainder).
    pub test: f64,
}

impl SplitFractions {
    /// The paper's 80/10/10 protocol.
    pub fn paper_default() -> Self {
        SplitFractions { train: 0.8, valid: 0.1, test: 0.1 }
    }

    /// Validates that the fractions are positive and sum to 1 (±1e-9).
    pub(crate) fn is_valid(&self) -> bool {
        self.train > 0.0
            && self.valid >= 0.0
            && self.test >= 0.0
            && (self.train + self.valid + self.test - 1.0).abs() < 1e-9
    }
}

impl Default for SplitFractions {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// A link-prediction edge split.
///
/// Positive edges are divided into train/valid/test; held-out (valid/test)
/// edges are *removed* from the message-passing graph, exactly as in the
/// standard link-prediction protocol the paper follows. Evaluation negative
/// samples are drawn globally uniform, 3x the positive count (paper Section
/// V-A), and are guaranteed not to be edges of the full graph.
///
/// # Examples
///
/// ```
/// use splpg_graph::{EdgeSplit, Graph, SplitFractions};
/// use splpg_rng::SeedableRng;
/// # fn main() -> Result<(), splpg_graph::GraphError> {
/// let g = Graph::from_edges(6, &[(0,1),(1,2),(2,3),(3,4),(4,5),(0,2),(1,3),(2,4),(3,5),(0,5)])?;
/// let mut rng = splpg_rng::rngs::StdRng::seed_from_u64(7);
/// let split = EdgeSplit::random(&g, SplitFractions::paper_default(), 3, &mut rng)?;
/// assert_eq!(split.train.len() + split.valid.len() + split.test.len(), 10);
/// assert_eq!(split.valid_neg.len(), 3 * split.valid.len());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct EdgeSplit {
    /// Training positive edges (also the message-passing graph's edges).
    pub train: Vec<Edge>,
    /// Validation positive edges (held out).
    pub valid: Vec<Edge>,
    /// Test positive edges (held out).
    pub test: Vec<Edge>,
    /// Validation negative samples (global-uniform non-edges).
    pub valid_neg: Vec<Edge>,
    /// Test negative samples (global-uniform non-edges).
    pub test_neg: Vec<Edge>,
}

impl EdgeSplit {
    /// Randomly splits the edges of `graph` and draws evaluation negatives.
    ///
    /// `neg_ratio` is the number of negative evaluation samples per held-out
    /// positive (the paper uses 3).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidFormat`] if the fractions are invalid or
    /// the graph is too dense/small for the requested number of negatives.
    pub fn random<R: Rng + ?Sized>(
        graph: &Graph,
        fractions: SplitFractions,
        neg_ratio: usize,
        rng: &mut R,
    ) -> Result<Self, GraphError> {
        if !fractions.is_valid() {
            return Err(GraphError::InvalidFormat(format!(
                "invalid split fractions {fractions:?}"
            )));
        }
        let mut edges: Vec<Edge> = graph.edges().to_vec();
        edges.shuffle(rng);
        let m = edges.len();
        let n_train = ((m as f64) * fractions.train).round() as usize;
        let n_valid = ((m as f64) * fractions.valid).round() as usize;
        let n_train = n_train.min(m);
        let n_valid = n_valid.min(m - n_train);
        let train = edges[..n_train].to_vec();
        let valid = edges[n_train..n_train + n_valid].to_vec();
        let test = edges[n_train + n_valid..].to_vec();

        let valid_neg = sample_global_negatives(graph, valid.len() * neg_ratio, rng)?;
        let test_neg = sample_global_negatives(graph, test.len() * neg_ratio, rng)?;
        Ok(EdgeSplit { train, valid, test, valid_neg, test_neg })
    }

    /// Builds the message-passing graph containing only training edges.
    pub fn train_graph(&self, num_nodes: usize) -> Result<Graph, GraphError> {
        let pairs: Vec<(NodeId, NodeId)> =
            self.train.iter().map(|e| (e.src, e.dst)).collect();
        Graph::from_edges(num_nodes, &pairs)
    }
}

/// Draws `count` distinct global-uniform negative samples: node pairs that
/// are not edges of `graph` and not self-loops ("global uniform approach",
/// paper Section II-B, used for testing).
///
/// # Errors
///
/// Returns [`GraphError::InvalidFormat`] if the graph has fewer than `count`
/// non-edges or sampling fails to make progress (pathologically dense
/// graphs).
pub(crate) fn sample_global_negatives<R: Rng + ?Sized>(
    graph: &Graph,
    count: usize,
    rng: &mut R,
) -> Result<Vec<Edge>, GraphError> {
    let n = graph.num_nodes() as u64;
    let possible = n * n.saturating_sub(1) / 2 - graph.num_edges() as u64;
    if (count as u64) > possible {
        return Err(GraphError::InvalidFormat(format!(
            "requested {count} negatives but only {possible} non-edges exist"
        )));
    }
    // BTreeSet, not HashSet: the collected Vec below inherits the set's
    // iteration order, and hash order varies per *process* — negatives
    // must come out identical across fresh runs with the same seed.
    let mut out = std::collections::BTreeSet::new();
    let mut attempts = 0u64;
    let max_attempts = 100 * (count as u64 + 10);
    while out.len() < count {
        attempts += 1;
        if attempts > max_attempts {
            return Err(GraphError::InvalidFormat(
                "negative sampling failed to make progress".to_string(),
            ));
        }
        let u = rng.gen_range(0..graph.num_nodes()) as NodeId;
        let v = rng.gen_range(0..graph.num_nodes()) as NodeId;
        if u == v || graph.has_edge(u, v) {
            continue;
        }
        out.insert(Edge::new(u, v));
    }
    Ok(out.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use splpg_rng::SeedableRng;

    fn ring(n: usize) -> Graph {
        let edges: Vec<(NodeId, NodeId)> =
            (0..n).map(|i| (i as NodeId, ((i + 1) % n) as NodeId)).collect();
        Graph::from_edges(n, &edges).unwrap()
    }

    #[test]
    fn split_partitions_all_edges() {
        let g = ring(50);
        let mut rng = splpg_rng::rngs::StdRng::seed_from_u64(1);
        let s = EdgeSplit::random(&g, SplitFractions::paper_default(), 3, &mut rng).unwrap();
        assert_eq!(s.train.len() + s.valid.len() + s.test.len(), 50);
        assert_eq!(s.train.len(), 40);
        assert_eq!(s.valid.len(), 5);
        assert_eq!(s.test.len(), 5);
    }

    #[test]
    fn splits_are_disjoint() {
        let g = ring(30);
        let mut rng = splpg_rng::rngs::StdRng::seed_from_u64(2);
        let s = EdgeSplit::random(&g, SplitFractions::paper_default(), 1, &mut rng).unwrap();
        let train: std::collections::BTreeSet<_> = s.train.iter().collect();
        assert!(s.valid.iter().all(|e| !train.contains(e)));
        assert!(s.test.iter().all(|e| !train.contains(e)));
    }

    #[test]
    fn negatives_are_non_edges() {
        let g = ring(40);
        let mut rng = splpg_rng::rngs::StdRng::seed_from_u64(3);
        let s = EdgeSplit::random(&g, SplitFractions::paper_default(), 3, &mut rng).unwrap();
        for e in s.test_neg.iter().chain(s.valid_neg.iter()) {
            assert!(!g.has_edge(e.src, e.dst));
            assert!(!e.is_loop());
        }
        assert_eq!(s.test_neg.len(), 3 * s.test.len());
    }

    #[test]
    fn train_graph_has_only_train_edges() {
        let g = ring(20);
        let mut rng = splpg_rng::rngs::StdRng::seed_from_u64(4);
        let s = EdgeSplit::random(&g, SplitFractions::paper_default(), 1, &mut rng).unwrap();
        let tg = s.train_graph(20).unwrap();
        assert_eq!(tg.num_edges(), s.train.len());
        for e in &s.test {
            assert!(!tg.has_edge(e.src, e.dst));
        }
    }

    #[test]
    fn invalid_fractions_rejected() {
        let g = ring(10);
        let mut rng = splpg_rng::rngs::StdRng::seed_from_u64(5);
        let bad = SplitFractions { train: 0.5, valid: 0.1, test: 0.1 };
        assert!(EdgeSplit::random(&g, bad, 1, &mut rng).is_err());
    }

    #[test]
    fn too_many_negatives_rejected() {
        // K4: complete graph, zero non-edges.
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]).unwrap();
        let mut rng = splpg_rng::rngs::StdRng::seed_from_u64(6);
        assert!(sample_global_negatives(&g, 1, &mut rng).is_err());
    }

    #[test]
    fn negatives_distinct() {
        let g = ring(15);
        let mut rng = splpg_rng::rngs::StdRng::seed_from_u64(7);
        let neg = sample_global_negatives(&g, 20, &mut rng).unwrap();
        let set: std::collections::BTreeSet<_> = neg.iter().collect();
        assert_eq!(set.len(), 20);
    }
}
