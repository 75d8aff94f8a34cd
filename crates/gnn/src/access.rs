use splpg_rng::seq::SliceRandom;
use splpg_rng::Rng;
use splpg_graph::{FeatureMatrix, Graph, NodeId};
use splpg_tensor::Tensor;

/// Access to graph structure during sampling.
///
/// Methods take `&self` and the trait requires `Sync` so the parallel
/// sampler can fetch neighbor lists from several pool workers at once.
/// Implementations still *meter* what they serve — the distributed
/// engine's accessors count every byte of structure a worker pulls from
/// the master's shared memory, exactly the communication-cost metric of
/// the paper — but do so through interior mutability (atomic counters, a
/// mutex-guarded cache), which is what makes shared-reference access
/// sound.
pub trait GraphAccess: Sync {
    /// Number of nodes in the accessible universe (global id space).
    fn num_nodes(&self) -> usize;

    /// Degree of `v` in the accessible graph.
    fn degree(&self, v: NodeId) -> usize;

    /// Full weighted neighbor list of `v`.
    fn neighbors(&self, v: NodeId) -> Vec<(NodeId, f32)> {
        let mut out = Vec::new();
        self.neighbors_into(v, &mut out);
        out
    }

    /// Appends the full weighted neighbor list of `v` to `out` — the
    /// allocation-free primitive the sampler's per-worker scratch uses
    /// (implementations meter here exactly as for [`Self::neighbors`]).
    fn neighbors_into(&self, v: NodeId, out: &mut Vec<(NodeId, f32)>);

    /// Whether edge `(u, v)` exists in the accessible graph (used for
    /// negative-sample rejection).
    fn has_edge(&self, u: NodeId, v: NodeId) -> bool;

    /// Samples up to `fanout` neighbors of `v` without replacement
    /// (`None` = full neighborhood). Implementations that fetch remotely
    /// should meter only the sampled neighbors — DGL's samplers likewise
    /// perform remote sampling server-side and ship only the result.
    fn sample_neighbors<R: Rng + ?Sized>(
        &self,
        v: NodeId,
        fanout: Option<usize>,
        rng: &mut R,
    ) -> Vec<(NodeId, f32)> {
        let mut nbrs = self.neighbors(v);
        if let Some(k) = fanout {
            if nbrs.len() > k {
                nbrs.shuffle(rng);
                nbrs.truncate(k);
            }
        }
        nbrs
    }
}

/// Access to node features during batch materialization.
///
/// `&mut self` for the same metering reason as [`GraphAccess`]: feature
/// rows dominate transfer volume (4 bytes per float, hundreds to thousands
/// of floats per node).
pub trait FeatureAccess {
    /// Feature dimensionality.
    fn dim(&self) -> usize;

    /// Appends feature rows for `nodes` (in order) to `out` — the
    /// allocation-free primitive the trainers use to gather straight into
    /// tape-arena storage (metering happens here).
    fn gather_into(&mut self, nodes: &[NodeId], out: &mut Vec<f32>);

    /// Gathers feature rows for `nodes` (in order) into a dense tensor.
    fn gather(&mut self, nodes: &[NodeId]) -> Tensor {
        let mut buf = Vec::with_capacity(nodes.len() * self.dim());
        self.gather_into(nodes, &mut buf);
        Tensor::from_vec(nodes.len(), self.dim(), buf)
            .expect("gather produces consistent shape")
    }
}

/// [`GraphAccess`] adapter over a complete in-memory [`Graph`] — what a
/// centralized trainer (or a worker with the complete data-sharing
/// strategy) sees.
#[derive(Debug)]
pub struct FullGraphAccess<'g> {
    graph: &'g Graph,
}

impl<'g> FullGraphAccess<'g> {
    /// Wraps a graph.
    pub fn new(graph: &'g Graph) -> Self {
        FullGraphAccess { graph }
    }
}

impl GraphAccess for FullGraphAccess<'_> {
    fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    fn degree(&self, v: NodeId) -> usize {
        self.graph.degree(v)
    }

    fn neighbors_into(&self, v: NodeId, out: &mut Vec<(NodeId, f32)>) {
        let ids = self.graph.neighbors(v);
        match self.graph.neighbor_weights(v) {
            Some(ws) => out.extend(ids.iter().copied().zip(ws.iter().copied())),
            None => out.extend(ids.iter().map(|&u| (u, 1.0))),
        }
    }

    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.graph.has_edge(u, v)
    }
}

/// [`FeatureAccess`] adapter over a complete in-memory [`FeatureMatrix`].
#[derive(Debug)]
pub struct FullFeatureAccess<'f> {
    features: &'f FeatureMatrix,
}

impl<'f> FullFeatureAccess<'f> {
    /// Wraps a feature matrix.
    pub fn new(features: &'f FeatureMatrix) -> Self {
        FullFeatureAccess { features }
    }
}

impl FeatureAccess for FullFeatureAccess<'_> {
    fn dim(&self) -> usize {
        self.features.dim()
    }

    fn gather_into(&mut self, nodes: &[NodeId], out: &mut Vec<f32>) {
        self.features.gather_into(nodes, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splpg_rng::SeedableRng;

    fn graph() -> Graph {
        Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)]).unwrap()
    }

    #[test]
    fn full_access_mirrors_graph() {
        let g = graph();
        let a = FullGraphAccess::new(&g);
        assert_eq!(a.num_nodes(), 5);
        assert_eq!(a.degree(0), 4);
        assert_eq!(a.neighbors(1), vec![(0, 1.0), (2, 1.0)]);
        assert!(a.has_edge(1, 2));
        assert!(!a.has_edge(3, 4));
    }

    #[test]
    fn sample_neighbors_respects_fanout() {
        let g = graph();
        let a = FullGraphAccess::new(&g);
        let mut rng = splpg_rng::rngs::StdRng::seed_from_u64(0);
        let s = a.sample_neighbors(0, Some(2), &mut rng);
        assert_eq!(s.len(), 2);
        let full = a.sample_neighbors(0, None, &mut rng);
        assert_eq!(full.len(), 4);
        let over = a.sample_neighbors(1, Some(10), &mut rng);
        assert_eq!(over.len(), 2);
    }

    #[test]
    fn sampled_neighbors_distinct() {
        let g = graph();
        let a = FullGraphAccess::new(&g);
        let mut rng = splpg_rng::rngs::StdRng::seed_from_u64(1);
        for _ in 0..20 {
            let s = a.sample_neighbors(0, Some(3), &mut rng);
            let mut ids: Vec<NodeId> = s.iter().map(|&(u, _)| u).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), 3, "sampling must be without replacement");
        }
    }

    #[test]
    fn feature_access_gathers_rows() {
        let f = FeatureMatrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]])
            .unwrap();
        let mut a = FullFeatureAccess::new(&f);
        assert_eq!(a.dim(), 2);
        let t = a.gather(&[2, 0]);
        assert_eq!(t.shape(), (2, 2));
        assert_eq!(t.row(0), &[5.0, 6.0]);
    }

    #[test]
    fn weighted_graph_neighbors_carry_weights() {
        let mut b = splpg_graph::GraphBuilder::new(3);
        b.add_weighted_edge(0, 1, 2.5).unwrap();
        let g = b.build();
        let a = FullGraphAccess::new(&g);
        assert_eq!(a.neighbors(0), vec![(1, 2.5)]);
    }
}
