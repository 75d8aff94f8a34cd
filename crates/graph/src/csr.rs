use crate::{Edge, NodeId};

/// An undirected graph in compressed-sparse-row form.
///
/// Both directions of every undirected edge are stored, so a node's full
/// neighbor list is a contiguous, sorted slice. Graphs may carry per-edge
/// weights (produced by the effective-resistance sparsifier, where a sampled
/// edge receives weight `1/(L p)`); unweighted graphs treat every edge as
/// weight `1.0`.
///
/// Construct via [`crate::GraphBuilder`] (which sorts, deduplicates and
/// validates) or [`Graph::from_edges`] for convenience.
///
/// # Examples
///
/// ```
/// use splpg_graph::Graph;
/// # fn main() -> Result<(), splpg_graph::GraphError> {
/// let g = Graph::from_edges(5, &[(0, 1), (1, 2), (3, 4)])?;
/// assert_eq!(g.degree(1), 2);
/// assert!(g.has_edge(4, 3));
/// assert!(!g.has_edge(0, 4));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    /// CSR row offsets; `offsets[v]..offsets[v + 1]` indexes `neighbors`.
    offsets: Vec<usize>,
    /// Concatenated, per-node-sorted neighbor lists (both edge directions).
    neighbors: Vec<NodeId>,
    /// Optional per-directed-slot weights, parallel to `neighbors`.
    weights: Option<Vec<f32>>,
    /// Canonical undirected edge list (`src <= dst`), sorted.
    edges: Vec<Edge>,
}

impl Graph {
    pub(crate) fn from_parts(
        offsets: Vec<usize>,
        neighbors: Vec<NodeId>,
        weights: Option<Vec<f32>>,
        edges: Vec<Edge>,
    ) -> Self {
        debug_assert_eq!(*offsets.last().unwrap_or(&0), neighbors.len());
        if let Some(w) = &weights {
            debug_assert_eq!(w.len(), neighbors.len());
        }
        Graph { offsets, neighbors, weights, edges }
    }

    /// Builds an unweighted graph from an edge list.
    ///
    /// Duplicate edges and reversed duplicates are collapsed.
    ///
    /// # Errors
    ///
    /// Returns [`crate::GraphError::NodeOutOfRange`] if an endpoint is `>=
    /// num_nodes` and [`crate::GraphError::SelfLoop`] on self-loops.
    pub fn from_edges(
        num_nodes: usize,
        edges: &[(NodeId, NodeId)],
    ) -> Result<Self, crate::GraphError> {
        let mut b = crate::GraphBuilder::new(num_nodes);
        for &(u, v) in edges {
            b.add_edge(u, v)?;
        }
        Ok(b.build())
    }

    /// Builds an empty graph (no edges) on `num_nodes` nodes.
    pub fn empty(num_nodes: usize) -> Self {
        Graph {
            offsets: vec![0; num_nodes + 1],
            neighbors: Vec::new(),
            weights: None,
            edges: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Degree of `v` (number of distinct neighbors).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn degree(&self, v: NodeId) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// The sorted neighbor slice of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        &self.neighbors[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Per-neighbor edge weights of `v`, parallel to [`Graph::neighbors`].
    /// Returns `None` for unweighted graphs (all weights implicitly `1.0`).
    pub fn neighbor_weights(&self, v: NodeId) -> Option<&[f32]> {
        let v = v as usize;
        self.weights
            .as_ref()
            .map(|w| &w[self.offsets[v]..self.offsets[v + 1]])
    }

    /// Whether the graph carries explicit edge weights.
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// Weight of edge `(u, v)`, `None` if the edge is absent. Unweighted
    /// edges report `1.0`.
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<f32> {
        let nbrs = self.neighbors(u);
        let idx = nbrs.binary_search(&v).ok()?;
        Some(match &self.weights {
            Some(w) => w[self.offsets[u as usize] + idx],
            None => 1.0,
        })
    }

    /// Whether an undirected edge `(u, v)` exists. O(log deg(u)).
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        if (u as usize) >= self.num_nodes() || (v as usize) >= self.num_nodes() {
            return false;
        }
        // Search from the lower-degree endpoint.
        let (a, b) = if self.degree(u) <= self.degree(v) { (u, v) } else { (v, u) };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// The canonical (deduplicated, `src <= dst`, sorted) undirected edge
    /// list.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Iterator over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.num_nodes() as NodeId
    }

    /// Sum of all edge weights (edge count for unweighted graphs).
    pub fn total_weight(&self) -> f64 {
        match &self.weights {
            // Each undirected edge appears twice in the directed slots.
            Some(w) => w.iter().map(|&x| x as f64).sum::<f64>() / 2.0,
            None => self.num_edges() as f64,
        }
    }

    /// Maximum degree over all nodes (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.num_nodes() as NodeId)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Mean degree (`2|E| / |V|`), 0.0 for an empty graph.
    pub fn mean_degree(&self) -> f64 {
        if self.num_nodes() == 0 {
            0.0
        } else {
            2.0 * self.num_edges() as f64 / self.num_nodes() as f64
        }
    }

    /// Validates internal invariants; used by tests and debug assertions.
    ///
    /// Checks: offsets monotone, neighbor ids in range, neighbor lists sorted
    /// and duplicate-free, adjacency symmetric, and the canonical edge list
    /// consistent with the adjacency.
    pub fn validate(&self) -> Result<(), crate::GraphError> {
        let n = self.num_nodes();
        for v in 0..n {
            if self.offsets[v] > self.offsets[v + 1] {
                return Err(crate::GraphError::InvalidFormat(format!(
                    "offsets not monotone at node {v}"
                )));
            }
            let nbrs = self.neighbors(v as NodeId);
            for w in nbrs.windows(2) {
                if w[0] >= w[1] {
                    return Err(crate::GraphError::InvalidFormat(format!(
                        "neighbor list of node {v} not strictly sorted"
                    )));
                }
            }
            for &u in nbrs {
                if (u as usize) >= n {
                    return Err(crate::GraphError::NodeOutOfRange { node: u, num_nodes: n });
                }
                if self.neighbors(u).binary_search(&(v as NodeId)).is_err() {
                    return Err(crate::GraphError::InvalidFormat(format!(
                        "asymmetric adjacency: {v} -> {u} present but {u} -> {v} missing"
                    )));
                }
            }
        }
        let directed: usize = (0..n).map(|v| self.degree(v as NodeId)).sum();
        if directed != 2 * self.edges.len() {
            return Err(crate::GraphError::InvalidFormat(format!(
                "directed slot count {directed} != 2 * edge count {}",
                self.edges.len()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path4() -> Graph {
        Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap()
    }

    #[test]
    fn basic_counts() {
        let g = path4();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.mean_degree(), 1.5);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn neighbors_sorted_and_symmetric() {
        let g = Graph::from_edges(4, &[(3, 0), (0, 1), (2, 0)]).unwrap();
        assert_eq!(g.neighbors(0), &[1, 2, 3]);
        assert_eq!(g.degree(0), 3);
        for v in [1u32, 2, 3] {
            assert_eq!(g.neighbors(v), &[0]);
        }
        g.validate().unwrap();
    }

    #[test]
    fn duplicate_edges_collapse() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 0), (0, 1)]).unwrap();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn has_edge_both_directions() {
        let g = path4();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert!(!g.has_edge(0, 99));
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(5);
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.degree(4), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.mean_degree(), 0.0);
        g.validate().unwrap();
    }

    #[test]
    fn unweighted_edge_weight_is_one() {
        let g = path4();
        assert_eq!(g.edge_weight(0, 1), Some(1.0));
        assert_eq!(g.edge_weight(0, 2), None);
        assert!(!g.is_weighted());
        assert_eq!(g.total_weight(), 3.0);
    }

    #[test]
    fn canonical_edges_sorted() {
        let g = Graph::from_edges(4, &[(3, 2), (1, 0), (2, 1)]).unwrap();
        let e: Vec<(NodeId, NodeId)> = g.edges().iter().map(|e| (e.src, e.dst)).collect();
        assert_eq!(e, vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn out_of_range_edge_rejected() {
        let err = Graph::from_edges(2, &[(0, 5)]).unwrap_err();
        assert!(matches!(err, crate::GraphError::NodeOutOfRange { .. }));
    }

    #[test]
    fn self_loop_rejected() {
        let err = Graph::from_edges(2, &[(1, 1)]).unwrap_err();
        assert!(matches!(err, crate::GraphError::SelfLoop { node: 1 }));
    }
}
