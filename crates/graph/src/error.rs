use std::error::Error;
use std::fmt;

/// Errors produced by graph construction and validation.
///
/// # Examples
///
/// ```
/// use splpg_graph::{GraphBuilder, GraphError};
/// let mut b = GraphBuilder::new(2);
/// match b.add_edge(0, 9) {
///     Err(GraphError::NodeOutOfRange { node, num_nodes }) => {
///         assert_eq!(node, 9);
///         assert_eq!(num_nodes, 2);
///     }
///     other => panic!("expected out-of-range error, got {other:?}"),
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GraphError {
    /// A node id referenced a node beyond the declared node count.
    NodeOutOfRange {
        /// The offending node id.
        node: crate::NodeId,
        /// The number of nodes in the graph.
        num_nodes: usize,
    },
    /// A self-loop was supplied where simple graphs are required.
    SelfLoop {
        /// The looping node.
        node: crate::NodeId,
    },
    /// Feature matrix dimensions do not match the graph.
    DimensionMismatch {
        /// Expected row count (number of nodes).
        expected: usize,
        /// Actual row count supplied.
        actual: usize,
    },
    /// A graph or split failed validation.
    InvalidFormat(String),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, num_nodes } => {
                write!(f, "node id {node} out of range for graph with {num_nodes} nodes")
            }
            GraphError::SelfLoop { node } => {
                write!(f, "self-loop on node {node} is not allowed in a simple graph")
            }
            GraphError::DimensionMismatch { expected, actual } => {
                write!(f, "feature matrix has {actual} rows but the graph has {expected} nodes")
            }
            GraphError::InvalidFormat(msg) => write!(f, "invalid graph: {msg}"),
        }
    }
}

impl Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_specific() {
        let e = GraphError::NodeOutOfRange { node: 7, num_nodes: 3 };
        let msg = e.to_string();
        assert!(msg.contains("7"));
        assert!(msg.contains("3"));
        assert!(msg.chars().next().unwrap().is_lowercase());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GraphError>();
    }
}
