//! Graph storage substrate for the SpLPG reproduction.
//!
//! This crate provides the in-memory graph representation that every other
//! crate in the workspace builds on: a compressed-sparse-row ([`Graph`])
//! structure for undirected (optionally weighted) graphs, a [`GraphBuilder`]
//! for assembling graphs from edge lists, dense node features
//! ([`FeatureMatrix`]), train/validation/test edge splits ([`EdgeSplit`]),
//! and connected components.
//!
//! The representation mirrors what DGL's graph storage provides to the
//! original SpLPG implementation: O(1) access to a node's neighbor slice,
//! degree queries, and cheap extraction of node-induced subgraphs with
//! local/global id mappings (needed by the partitioners).
//!
//! # Examples
//!
//! ```
//! use splpg_graph::{Graph, GraphBuilder};
//!
//! # fn main() -> Result<(), splpg_graph::GraphError> {
//! let mut b = GraphBuilder::new(4);
//! b.add_edge(0, 1)?;
//! b.add_edge(1, 2)?;
//! b.add_edge(2, 3)?;
//! let g: Graph = b.build();
//! assert_eq!(g.num_nodes(), 4);
//! assert_eq!(g.num_edges(), 3);
//! assert_eq!(g.degree(1), 2);
//! assert_eq!(g.neighbors(1), &[0, 2]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod csr;
mod error;
mod features;
mod split;
mod subgraph;
mod traversal;

pub use builder::GraphBuilder;
pub use csr::Graph;
pub use error::GraphError;
pub use features::FeatureMatrix;
pub use split::{EdgeSplit, SplitFractions};
pub use subgraph::{InducedSubgraph, NodeMapping};
pub use traversal::connected_components;

/// Node identifier. `u32` keeps memory at half of `usize` on 64-bit targets,
/// which matters for the PPA-scale graphs (30M+ directed edge slots).
pub type NodeId = u32;

/// An undirected edge, stored canonically with `src <= dst`.
///
/// # Examples
///
/// ```
/// use splpg_graph::Edge;
/// let e = Edge::new(5, 2);
/// assert_eq!((e.src, e.dst), (2, 5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Edge {
    /// Smaller endpoint.
    pub src: NodeId,
    /// Larger endpoint.
    pub dst: NodeId,
}

impl Edge {
    /// Creates a canonical (sorted-endpoint) undirected edge.
    pub fn new(a: NodeId, b: NodeId) -> Self {
        if a <= b {
            Edge { src: a, dst: b }
        } else {
            Edge { src: b, dst: a }
        }
    }

    /// Whether the edge is a self-loop.
    pub fn is_loop(&self) -> bool {
        self.src == self.dst
    }
}

impl From<(NodeId, NodeId)> for Edge {
    fn from((a, b): (NodeId, NodeId)) -> Self {
        Edge::new(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_canonicalizes_endpoints() {
        assert_eq!(Edge::new(3, 1), Edge::new(1, 3));
        assert!(Edge::new(3, 1).src <= Edge::new(3, 1).dst);
    }

    #[test]
    fn edge_self_loop() {
        assert!(Edge::new(4, 4).is_loop());
        assert!(!Edge::new(4, 5).is_loop());
    }

    #[test]
    fn edge_from_tuple() {
        let e: Edge = (9, 2).into();
        assert_eq!(e, Edge::new(2, 9));
    }
}
