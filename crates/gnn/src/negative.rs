use splpg_rng::Rng;
use splpg_graph::{Edge, NodeId};

use crate::{GnnError, GraphAccess};

/// Per-source uniform negative sampler — the paper's training-time scheme
/// (Section II-B): for each positive source node, draw destination nodes
/// uniformly at random from a *sample space*, rejecting actual neighbors.
///
/// The sample space is the crux of the paper's analysis:
///
/// * **global** (all nodes of the original graph) — what centralized
///   training and SpLPG use; SpLPG draws the destination from the union of
///   its own partition and the sparsified remote partitions, whose node
///   sets together cover the entire graph;
/// * **local** (only the worker's partition) — what the vanilla distributed
///   baselines are limited to, causing the accuracy drop of Figure 3.
#[derive(Debug, Clone)]
pub struct PerSourceNegativeSampler {
    space: Vec<NodeId>,
}

impl PerSourceNegativeSampler {
    /// Sampler drawing destinations from an explicit node set.
    ///
    /// # Panics
    ///
    /// Panics if `space` is empty.
    pub fn new(space: Vec<NodeId>) -> Self {
        assert!(!space.is_empty(), "sample space must be non-empty");
        PerSourceNegativeSampler { space }
    }

    /// Sampler whose space is the full `0..num_nodes` universe.
    pub fn global(num_nodes: usize) -> Self {
        Self::new((0..num_nodes as NodeId).collect())
    }

    /// Draws one negative destination for `source`, rejecting self-pairs
    /// and existing edges in `access`.
    ///
    /// # Errors
    ///
    /// [`GnnError::NegativeSampling`] if no valid destination is found
    /// within the attempt budget (e.g. the source is connected to the whole
    /// space).
    pub fn sample_destination<A: GraphAccess, R: Rng + ?Sized>(
        &self,
        access: &A,
        source: NodeId,
        rng: &mut R,
    ) -> Result<NodeId, GnnError> {
        let attempts = 20 + 4 * self.space.len();
        for _ in 0..attempts {
            let dst = self.space[rng.gen_range(0..self.space.len())];
            if dst != source && !access.has_edge(source, dst) {
                return Ok(dst);
            }
        }
        Err(GnnError::NegativeSampling(format!(
            "no valid negative destination for source {source} in space of {}",
            self.space.len()
        )))
    }

    /// Draws one negative edge per positive edge, using the positive's
    /// source endpoint (per-source uniform).
    ///
    /// # Errors
    ///
    /// Propagates [`GnnError::NegativeSampling`] from any draw.
    pub fn sample_for_edges<A: GraphAccess, R: Rng + ?Sized>(
        &self,
        access: &A,
        positives: &[Edge],
        rng: &mut R,
    ) -> Result<Vec<Edge>, GnnError> {
        positives
            .iter()
            .map(|e| {
                let dst = self.sample_destination(access, e.src, rng)?;
                Ok(Edge::new(e.src, dst))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FullGraphAccess;
    use splpg_rng::SeedableRng;
    use splpg_graph::Graph;

    fn rng() -> splpg_rng::rngs::StdRng {
        splpg_rng::rngs::StdRng::seed_from_u64(3)
    }

    fn graph() -> Graph {
        Graph::from_edges(8, &[(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)]).unwrap()
    }

    #[test]
    fn destinations_avoid_neighbors_and_self() {
        let g = graph();
        let a = FullGraphAccess::new(&g);
        let s = PerSourceNegativeSampler::global(8);
        let mut r = rng();
        for _ in 0..100 {
            let d = s.sample_destination(&a, 1, &mut r).unwrap();
            assert_ne!(d, 1);
            assert!(!g.has_edge(1, d), "destination {d} is a neighbor");
        }
    }

    #[test]
    fn restricted_space_respected() {
        let g = graph();
        let a = FullGraphAccess::new(&g);
        // Local space = partition {4..8}.
        let s = PerSourceNegativeSampler::new(vec![4, 5, 6, 7]);
        let mut r = rng();
        for _ in 0..50 {
            let d = s.sample_destination(&a, 4, &mut r).unwrap();
            assert!((4..8).contains(&d));
            assert!(!g.has_edge(4, d));
        }
    }

    #[test]
    fn saturated_source_errors() {
        // Node 0 in a triangle with space {0,1,2}: all non-self nodes are
        // neighbors.
        let g = Graph::from_edges(3, &[(0, 1), (0, 2), (1, 2)]).unwrap();
        let a = FullGraphAccess::new(&g);
        let s = PerSourceNegativeSampler::new(vec![0, 1, 2]);
        assert!(matches!(
            s.sample_destination(&a, 0, &mut rng()),
            Err(GnnError::NegativeSampling(_))
        ));
    }

    #[test]
    fn per_edge_sampling_preserves_sources() {
        let g = graph();
        let a = FullGraphAccess::new(&g);
        let s = PerSourceNegativeSampler::global(8);
        let positives = g.edges().to_vec();
        let negs = s.sample_for_edges(&a, &positives, &mut rng()).unwrap();
        assert_eq!(negs.len(), positives.len());
        for (p, n) in positives.iter().zip(&negs) {
            assert!(n.src == p.src || n.dst == p.src, "negative must share the source");
            assert!(!g.has_edge(n.src, n.dst));
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_space_panics() {
        let _ = PerSourceNegativeSampler::new(vec![]);
    }
}
