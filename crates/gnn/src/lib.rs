//! Graph neural networks for link prediction.
//!
//! This crate is the Rust counterpart of the DGL + PyTorch model zoo the
//! SpLPG paper trains:
//!
//! * [`GraphAccess`] / [`FeatureAccess`] — the seam between models and
//!   graph storage. Local adapters ([`FullGraphAccess`],
//!   [`FullFeatureAccess`]) wrap in-memory structures; the distributed
//!   engine provides metered implementations that price every remote fetch,
//!   which is how the paper's communication-cost numbers are reproduced.
//! * [`NeighborSampler`] — builds per-layer bipartite [`Block`]s
//!   (message-flow graphs) from seed nodes, with per-hop fanouts
//!   (the paper samples 25/10/5) or full neighborhoods.
//! * Negative sampling — [`PerSourceNegativeSampler`] (training,
//!   "per-source uniform"), with restrictable sample spaces to reproduce
//!   the *local negative sample* pathology of Section III-B.
//! * Models — [`Gcn`], [`GraphSage`], [`Gat`], [`GatV2`] implementing
//!   [`GnnModel`]; [`EdgePredictor`] (dot product or MLP) computes edge
//!   scores from pairwise embeddings (Eq. (2)).
//! * [`metrics`] — Hits@K (the paper's accuracy metric), AUC and MRR.
//! * [`LinkPredictor`] + [`trainer`] — end-to-end scoring and a
//!   single-process training loop (the "centralized" baseline).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod access;
mod block;
pub mod heuristics;
pub mod metrics;
mod models;
mod negative;
mod predictor;
mod sampler;
pub mod trainer;

pub use access::{FeatureAccess, FullFeatureAccess, FullGraphAccess, GraphAccess};
pub use block::{Block, MiniBatch};
pub use models::{Gat, GatV2, Gcn, GnnModel, GraphSage};
pub use negative::PerSourceNegativeSampler;
pub use predictor::{edges_to_pairs, EdgePredictor, LinkPredictor};
pub use sampler::{NeighborSampler, SampleStats, SamplerScratch};

use splpg_graph::NodeId;

/// Errors from sampling and model evaluation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum GnnError {
    /// Sampling could not draw the requested negatives.
    NegativeSampling(String),
    /// A batch referenced a node outside the accessible graph.
    NodeOutOfRange {
        /// The offending node.
        node: NodeId,
        /// Nodes available.
        num_nodes: usize,
    },
    /// Metric computation received empty inputs.
    EmptyInput(String),
    /// Metric computation received a NaN score, which has no rank.
    NanScore(String),
}

impl std::fmt::Display for GnnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GnnError::NegativeSampling(msg) => write!(f, "negative sampling failed: {msg}"),
            GnnError::NodeOutOfRange { node, num_nodes } => {
                write!(f, "node {node} out of range for graph with {num_nodes} nodes")
            }
            GnnError::EmptyInput(msg) => write!(f, "empty input: {msg}"),
            GnnError::NanScore(msg) => write!(f, "NaN score: {msg}"),
        }
    }
}

impl std::error::Error for GnnError {}
