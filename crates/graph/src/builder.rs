use std::collections::BTreeMap;

use crate::{Edge, Graph, GraphError, NodeId};

/// Incremental builder for [`Graph`].
///
/// Collects undirected edges (optionally weighted), validates endpoints,
/// collapses duplicates (summing weights, as the effective-resistance
/// sparsifier requires when the same edge is drawn more than once) and
/// produces a CSR [`Graph`] with sorted neighbor lists.
///
/// # Examples
///
/// ```
/// use splpg_graph::GraphBuilder;
/// # fn main() -> Result<(), splpg_graph::GraphError> {
/// let mut b = GraphBuilder::new(3);
/// b.add_weighted_edge(0, 1, 0.5)?;
/// b.add_weighted_edge(1, 0, 0.25)?; // duplicate: weights sum
/// b.add_weighted_edge(1, 2, 2.0)?;
/// let g = b.build();
/// assert_eq!(g.edge_weight(0, 1), Some(0.75));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    num_nodes: usize,
    /// Canonical edge -> accumulated weight, ordered so that [`build`]
    /// emits edges in canonical order without a separate sort (and so the
    /// builder never depends on per-process hash order).
    ///
    /// [`build`]: GraphBuilder::build
    edges: BTreeMap<Edge, f64>,
    weighted: bool,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `num_nodes` nodes and no edges.
    pub fn new(num_nodes: usize) -> Self {
        GraphBuilder { num_nodes, edges: BTreeMap::new(), weighted: false }
    }

    /// Creates a builder sized for `edges` undirected edges. (The ordered
    /// edge map needs no pre-allocation; the hint is accepted for API
    /// stability.)
    pub fn with_capacity(num_nodes: usize, _edges: usize) -> Self {
        GraphBuilder { num_nodes, edges: BTreeMap::new(), weighted: false }
    }

    /// Number of distinct undirected edges added so far.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    fn check(&self, u: NodeId, v: NodeId) -> Result<(), GraphError> {
        if (u as usize) >= self.num_nodes {
            return Err(GraphError::NodeOutOfRange { node: u, num_nodes: self.num_nodes });
        }
        if (v as usize) >= self.num_nodes {
            return Err(GraphError::NodeOutOfRange { node: v, num_nodes: self.num_nodes });
        }
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        Ok(())
    }

    /// Adds an unweighted undirected edge. Duplicates are ignored.
    ///
    /// # Errors
    ///
    /// [`GraphError::NodeOutOfRange`] for endpoints `>= num_nodes`;
    /// [`GraphError::SelfLoop`] when `u == v`.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> Result<&mut Self, GraphError> {
        self.check(u, v)?;
        self.edges.entry(Edge::new(u, v)).or_insert(1.0);
        Ok(self)
    }

    /// Adds a weighted undirected edge; re-adding an existing edge sums the
    /// weights (Algorithm 1, line 12 of the paper).
    ///
    /// # Errors
    ///
    /// Same conditions as [`GraphBuilder::add_edge`].
    pub fn add_weighted_edge(
        &mut self,
        u: NodeId,
        v: NodeId,
        weight: f32,
    ) -> Result<&mut Self, GraphError> {
        self.check(u, v)?;
        self.weighted = true;
        *self.edges.entry(Edge::new(u, v)).or_insert(0.0) += weight as f64;
        Ok(self)
    }

    /// Whether the canonical edge has already been added.
    pub fn contains_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.edges.contains_key(&Edge::new(u, v))
    }

    /// Finalizes the builder into a CSR [`Graph`].
    pub fn build(&self) -> Graph {
        let n = self.num_nodes;
        // BTreeMap iterates in canonical (src, dst) order already.
        let edge_list: Vec<(Edge, f64)> =
            self.edges.iter().map(|(&e, &w)| (e, w)).collect();

        let mut degree = vec![0usize; n];
        for (e, _) in &edge_list {
            degree[e.src as usize] += 1;
            degree[e.dst as usize] += 1;
        }
        let mut offsets = vec![0usize; n + 1];
        for v in 0..n {
            offsets[v + 1] = offsets[v] + degree[v];
        }
        let total = offsets[n];
        let mut neighbors = vec![0 as NodeId; total];
        let mut weights = if self.weighted { Some(vec![0f32; total]) } else { None };
        let mut cursor = offsets.clone();
        for (e, w) in &edge_list {
            let (s, d) = (e.src as usize, e.dst as usize);
            neighbors[cursor[s]] = e.dst;
            neighbors[cursor[d]] = e.src;
            if let Some(ws) = weights.as_mut() {
                ws[cursor[s]] = *w as f32;
                ws[cursor[d]] = *w as f32;
            }
            cursor[s] += 1;
            cursor[d] += 1;
        }
        // Per-node sort (neighbors are appended in global edge order, which
        // is sorted by (src, dst) but a node's in-edges interleave).
        for v in 0..n {
            let range = offsets[v]..offsets[v + 1];
            match weights.as_mut() {
                None => neighbors[range].sort_unstable(),
                Some(ws) => {
                    let mut pairs: Vec<(NodeId, f32)> = neighbors[range.clone()]
                        .iter()
                        .copied()
                        .zip(ws[range.clone()].iter().copied())
                        .collect();
                    pairs.sort_unstable_by_key(|(id, _)| *id);
                    for (i, (id, w)) in pairs.into_iter().enumerate() {
                        neighbors[offsets[v] + i] = id;
                        ws[offsets[v] + i] = w;
                    }
                }
            }
        }
        let edges = edge_list.into_iter().map(|(e, _)| e).collect();
        Graph::from_parts(offsets, neighbors, weights, edges)
    }
}

impl Extend<(NodeId, NodeId)> for GraphBuilder {
    /// Extends with unweighted edges, silently skipping invalid ones.
    /// Use [`GraphBuilder::add_edge`] when validation errors must surface.
    fn extend<T: IntoIterator<Item = (NodeId, NodeId)>>(&mut self, iter: T) {
        for (u, v) in iter {
            let _ = self.add_edge(u, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_sorts_neighbors() {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 4).unwrap();
        b.add_edge(0, 2).unwrap();
        b.add_edge(0, 1).unwrap();
        b.add_edge(0, 3).unwrap();
        let g = b.build();
        assert_eq!(g.neighbors(0), &[1, 2, 3, 4]);
        g.validate().unwrap();
    }

    #[test]
    fn weights_sum_on_duplicates() {
        let mut b = GraphBuilder::new(2);
        b.add_weighted_edge(0, 1, 1.5).unwrap();
        b.add_weighted_edge(1, 0, 2.5).unwrap();
        let g = b.build();
        assert!(g.is_weighted());
        assert_eq!(g.edge_weight(0, 1), Some(4.0));
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn contains_edge_checks_canonical_form() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(2, 1).unwrap();
        assert!(b.contains_edge(1, 2));
        assert!(b.contains_edge(2, 1));
        assert!(!b.contains_edge(0, 1));
    }

    #[test]
    fn extend_skips_invalid_edges() {
        let mut b = GraphBuilder::new(3);
        b.extend(vec![(0, 1), (0, 0), (0, 9), (1, 2)]);
        assert_eq!(b.num_edges(), 2);
    }

    #[test]
    fn weighted_neighbor_weights_align() {
        let mut b = GraphBuilder::new(4);
        b.add_weighted_edge(1, 3, 3.0).unwrap();
        b.add_weighted_edge(1, 0, 1.0).unwrap();
        b.add_weighted_edge(1, 2, 2.0).unwrap();
        let g = b.build();
        assert_eq!(g.neighbors(1), &[0, 2, 3]);
        assert_eq!(g.neighbor_weights(1).unwrap(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut b = GraphBuilder::with_capacity(3, 10);
        b.add_edge(0, 1).unwrap();
        let g = b.build();
        assert_eq!((g.num_nodes(), g.num_edges()), (3, 1));
    }
}
