//! Graph partitioning for distributed GNN training.
//!
//! Implements the three partitioning schemes the paper evaluates:
//!
//! * [`MetisLike`] — a from-scratch multilevel recursive-bisection
//!   partitioner in the spirit of METIS (Karypis & Kumar): heavy-edge
//!   matching coarsening, greedy BFS initial bisection from a
//!   pseudo-peripheral node, and boundary Fiduccia–Mattheyses refinement at
//!   every level. Minimizes edge cut while keeping partitions balanced,
//!   which is exactly the property that makes the *negative-sample locality*
//!   problem of the paper appear.
//! * [`RandomTma`] — each node assigned independently and uniformly at
//!   random (Zhu et al.'s RandomTMA); node-induced subgraphs form the
//!   partitions.
//! * [`SuperTma`] — METIS-like partitioning into many mini-clusters, each
//!   mini-cluster then randomly assigned to a partition (SuperTMA).
//!
//! [`Partition`] carries the node→part assignment and quality metrics (edge
//! cut, balance, local-edge fraction), and [`PartitionedGraph`] materializes
//! per-worker subgraphs either *with halo* (the paper's full-neighbor
//! retention: "the full-neighbor list of each node is fully preserved in a
//! partitioned subgraph") or *without* (cross-partition edges dropped, as in
//! PSGD-PA and the TMA baselines).
//!
//! # Examples
//!
//! ```
//! use splpg_rng::SeedableRng;
//! use splpg_graph::Graph;
//! use splpg_partition::{MetisLike, Partitioner};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let edges: Vec<(u32, u32)> = (0..99).map(|i| (i, i + 1)).collect();
//! let g = Graph::from_edges(100, &edges)?;
//! let mut rng = splpg_rng::rngs::StdRng::seed_from_u64(42);
//! let partition = MetisLike::default().partition(&g, 4, &mut rng)?;
//! assert_eq!(partition.num_parts(), 4);
//! // A path graph partitions with a tiny cut.
//! assert!(partition.edge_cut(&g) <= 6);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod metis_like;
mod partitioned;
mod random_tma;
mod super_tma;

pub use metis_like::MetisLike;
pub use partitioned::PartitionedGraph;
pub use random_tma::RandomTma;
pub use super_tma::SuperTma;

use splpg_rng::Rng;
use splpg_graph::{Graph, NodeId};

/// Errors from partitioning.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PartitionError {
    /// Requested more parts than nodes, or zero parts.
    InvalidPartCount {
        /// Requested number of parts.
        parts: usize,
        /// Number of nodes available.
        nodes: usize,
    },
    /// The assignment vector does not cover every node exactly once.
    InvalidAssignment(String),
}

impl std::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionError::InvalidPartCount { parts, nodes } => {
                write!(f, "cannot split {nodes} nodes into {parts} parts")
            }
            PartitionError::InvalidAssignment(msg) => {
                write!(f, "invalid partition assignment: {msg}")
            }
        }
    }
}

impl std::error::Error for PartitionError {}

/// A node→part assignment over a graph's nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    assignments: Vec<u32>,
    num_parts: usize,
}

impl Partition {
    /// Wraps an assignment vector.
    ///
    /// # Errors
    ///
    /// [`PartitionError::InvalidAssignment`] if any label is `>= num_parts`
    /// or `num_parts == 0`.
    pub(crate) fn new(assignments: Vec<u32>, num_parts: usize) -> Result<Self, PartitionError> {
        if num_parts == 0 {
            return Err(PartitionError::InvalidAssignment("zero parts".to_string()));
        }
        if let Some(&bad) = assignments.iter().find(|&&a| (a as usize) >= num_parts) {
            return Err(PartitionError::InvalidAssignment(format!(
                "label {bad} >= part count {num_parts}"
            )));
        }
        Ok(Partition { assignments, num_parts })
    }

    /// Number of parts.
    pub fn num_parts(&self) -> usize {
        self.num_parts
    }

    /// Part of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn part_of(&self, v: NodeId) -> u32 {
        self.assignments[v as usize]
    }

    /// The raw assignment vector (index = node id).
    pub fn assignments(&self) -> &[u32] {
        &self.assignments
    }

    /// Node ids belonging to part `part`, sorted ascending.
    pub fn part_nodes(&self, part: u32) -> Vec<NodeId> {
        self.assignments
            .iter()
            .enumerate()
            .filter(|(_, &a)| a == part)
            .map(|(i, _)| i as NodeId)
            .collect()
    }

    /// Per-part node counts.
    pub fn part_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.num_parts];
        for &a in &self.assignments {
            sizes[a as usize] += 1;
        }
        sizes
    }

    /// Number of edges whose endpoints lie in different parts.
    pub fn edge_cut(&self, graph: &Graph) -> usize {
        graph
            .edges()
            .iter()
            .filter(|e| self.part_of(e.src) != self.part_of(e.dst))
            .count()
    }

    /// Fraction of edges that are intra-partition (local). This is the
    /// quantity that bounds how many positive samples a halo-less worker can
    /// see.
    pub fn local_edge_fraction(&self, graph: &Graph) -> f64 {
        if graph.num_edges() == 0 {
            return 1.0;
        }
        1.0 - self.edge_cut(graph) as f64 / graph.num_edges() as f64
    }

    /// Balance factor: `max part size / ideal part size` (1.0 = perfect).
    pub fn balance(&self) -> f64 {
        let sizes = self.part_sizes();
        let max = *sizes.iter().max().unwrap_or(&0) as f64;
        let ideal = self.assignments.len() as f64 / self.num_parts as f64;
        if ideal == 0.0 {
            1.0
        } else {
            max / ideal
        }
    }
}

/// A graph-partitioning algorithm.
///
/// Implementations are deterministic given the `rng` state, which keeps
/// experiments reproducible.
pub trait Partitioner {
    /// Splits `graph` into `num_parts` parts.
    ///
    /// # Errors
    ///
    /// [`PartitionError::InvalidPartCount`] when `num_parts` is zero or
    /// exceeds the node count; implementations may add conditions.
    fn partition<R: Rng + ?Sized>(
        &self,
        graph: &Graph,
        num_parts: usize,
        rng: &mut R,
    ) -> Result<Partition, PartitionError>;
}

pub(crate) fn check_part_count(graph: &Graph, num_parts: usize) -> Result<(), PartitionError> {
    if num_parts == 0 || num_parts > graph.num_nodes() {
        return Err(PartitionError::InvalidPartCount {
            parts: num_parts,
            nodes: graph.num_nodes(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_validates_labels() {
        assert!(Partition::new(vec![0, 1, 2], 3).is_ok());
        assert!(Partition::new(vec![0, 3], 3).is_err());
        assert!(Partition::new(vec![], 0).is_err());
    }

    #[test]
    fn part_sizes_and_nodes() {
        let p = Partition::new(vec![0, 1, 0, 1, 0], 2).unwrap();
        assert_eq!(p.part_sizes(), vec![3, 2]);
        assert_eq!(p.part_nodes(0), vec![0, 2, 4]);
        assert_eq!(p.part_of(3), 1);
    }

    #[test]
    fn edge_cut_counts_cross_edges() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let p = Partition::new(vec![0, 0, 1, 1], 2).unwrap();
        assert_eq!(p.edge_cut(&g), 1);
        assert!((p.local_edge_fraction(&g) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn balance_perfect_is_one() {
        let p = Partition::new(vec![0, 1, 0, 1], 2).unwrap();
        assert_eq!(p.balance(), 1.0);
        let q = Partition::new(vec![0, 0, 0, 1], 2).unwrap();
        assert_eq!(q.balance(), 1.5);
    }

    #[test]
    fn empty_graph_local_fraction() {
        let g = Graph::empty(3);
        let p = Partition::new(vec![0, 1, 0], 2).unwrap();
        assert_eq!(p.local_edge_fraction(&g), 1.0);
    }
}
