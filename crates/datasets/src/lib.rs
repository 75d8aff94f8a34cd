//! Synthetic datasets matched to the paper's Table I.
//!
//! The nine public datasets the paper evaluates (Citeseer, Cora, Actor,
//! Chameleon, Pubmed, Co-CS, Co-Physics, OGB-Collab, OGB-PPA) are not
//! redistributable here, so this crate generates synthetic stand-ins with
//! the same node/edge/feature counts and the two properties every finding
//! in the paper depends on:
//!
//! 1. **community structure with degree skew** — a degree-corrected
//!    planted-partition model, so METIS-style partitioning finds
//!    low-cut partitions (making local negative sampling pathological,
//!    Section III-B) while random partitioning destroys locality;
//! 2. **feature homophily** — community-correlated Gaussian features, so
//!    GNN link prediction is actually learnable and accuracy differences
//!    between training strategies are visible.
//!
//! Generation is deterministic per seed. `Scale` profiles shrink node and
//! feature counts proportionally so the full experiment grid runs in
//! CPU-minutes; `Scale::new(1.0, usize::MAX)` reproduces Table I's sizes
//! exactly.
//!
//! # Examples
//!
//! ```
//! use splpg_datasets::{DatasetSpec, Scale};
//!
//! let spec = DatasetSpec::cora();
//! let data = spec.generate(Scale::tiny(), 42).unwrap();
//! assert!(data.graph.num_nodes() > 100);
//! assert_eq!(data.features.num_rows(), data.graph.num_nodes());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod generator;
mod spec;

pub use generator::{generate_community_graph, CommunityGraphParams};
pub use spec::{Dataset, DatasetSpec, Scale};

/// Errors from dataset generation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DatasetError {
    /// Parameters describe an impossible graph.
    InvalidParams(String),
    /// Underlying graph construction failed.
    Graph(String),
}

impl std::fmt::Display for DatasetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DatasetError::InvalidParams(msg) => write!(f, "invalid dataset parameters: {msg}"),
            DatasetError::Graph(msg) => write!(f, "graph construction failed: {msg}"),
        }
    }
}

impl std::error::Error for DatasetError {}
