//! Distributed GNN training engine — the SpLPG framework and every
//! baseline the paper compares against.
//!
//! The cluster of the paper (one master + `p` GPU workers exchanging graph
//! data through shared memory) is simulated with OS threads:
//!
//! * `CommTracker` counts every byte of graph structure and node
//!   features a worker pulls from outside its own partition; workers ship
//!   those counts back as fetch ledgers, and the master prices the ledgers
//!   it accepts into the paper's communication-cost metric (cumulative
//!   master→worker transfer per training epoch) — one meter for the
//!   cluster and the sequential reference alike;
//! * [`WorkerView`] gives each worker exactly the data its strategy
//!   allows: its partitioned subgraph (with or without halo/full-neighbor
//!   retention), plus optionally the full graph (complete data sharing,
//!   the `+` variants) or the *sparsified* remote partitions (SpLPG);
//! * [`Strategy`] enumerates the twelve training configurations of the
//!   evaluation (Centralized, PSGD-PA(+), RandomTMA(+), SuperTMA(+),
//!   LLCG, SpLPG, SpLPG+, SpLPG-, SpLPG--);
//! * [`DistTrainer`] runs synchronous data-parallel training with model
//!   averaging (per epoch) or gradient averaging (per batch, Algorithm 1
//!   lines 29–30), reproducing the paper's training pipeline end to end.
//!
//! # Examples
//!
//! ```no_run
//! use splpg_datasets::{DatasetSpec, Scale};
//! use splpg_dist::{DistConfig, DistTrainer, Strategy};
//! use splpg_gnn::trainer::{ModelKind, TrainConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let data = DatasetSpec::cora().generate(Scale::tiny(), 1)?;
//! let dist = DistConfig { num_workers: 4, strategy: Strategy::SpLpg, ..Default::default() };
//! let train = TrainConfig { epochs: 5, ..Default::default() };
//! let outcome = DistTrainer::new(dist, train).run(ModelKind::GraphSage, &data)?;
//! println!("hits@k = {:.3}, comm = {} bytes/epoch",
//!          outcome.test_hits, outcome.comm.mean_epoch_bytes());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod comm;
mod runtime;
mod setup;
mod strategy;
mod trainer;
mod view;

pub use comm::{CommMeter, CommReport, BYTES_PER_EDGE, BYTES_PER_NODE_ID};
pub use runtime::NetReport;
pub use setup::{ClusterSetup, SparsifierKind, WorkerData};
pub use splpg_net::process::WorkerEnv;
pub use splpg_net::{CodecConfig, FaultPlan, FeatCodec, RetryPolicy, StructCodec, TcpConfig};
pub use strategy::{NegativeSpace, PartitionerKind, RemoteKind, Strategy, StrategySpec};
pub use trainer::{
    tcp_worker_entry, DistConfig, DistOutcome, DistTrainer, EpochStats, FaultConfig, ShmBusMode,
    SyncMethod,
};
pub use view::WorkerView;

pub(crate) use comm::CommTracker;
pub(crate) use view::RemoteMode;

/// Errors from distributed training.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DistError {
    /// Cluster configuration invalid (worker count, etc.).
    InvalidConfig(String),
    /// Partitioning failed.
    Partition(String),
    /// Sparsification failed.
    Sparsify(String),
    /// A worker failed during training.
    Worker(String),
    /// Evaluation failed.
    Eval(String),
    /// Fault-injection, retry, or quorum parameters are invalid.
    InvalidFault(String),
    /// Fewer workers than the configured quorum answered a
    /// synchronization unit even after every retry.
    QuorumLost(String),
    /// Spawning, rendezvous, or reaping of worker processes failed in a
    /// multi-process cluster run.
    Process(String),
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::InvalidConfig(msg) => write!(f, "invalid cluster config: {msg}"),
            DistError::Partition(msg) => write!(f, "partitioning failed: {msg}"),
            DistError::Sparsify(msg) => write!(f, "sparsification failed: {msg}"),
            DistError::Worker(msg) => write!(f, "worker failed: {msg}"),
            DistError::Eval(msg) => write!(f, "evaluation failed: {msg}"),
            DistError::InvalidFault(msg) => {
                write!(f, "invalid fault/retry/quorum config: {msg}")
            }
            DistError::QuorumLost(msg) => write!(f, "quorum lost: {msg}"),
            DistError::Process(msg) => write!(f, "worker process failure: {msg}"),
        }
    }
}

impl std::error::Error for DistError {}
