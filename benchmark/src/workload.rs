//! The five named workloads. Each one is a complete, fixed configuration
//! of the public `DistTrainer` API on a pinned dataset instance; `--seed`
//! picks the training seeds (model init, shuffles, negatives, neighbor
//! sampling). README.md says why each exists and what it should move.

use splpg::prelude::*;

/// Which public `DistTrainer` entry point a workload times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entry {
    /// `DistTrainer::run`: thread workers over `ChannelTransport`.
    Threads,
    /// `DistTrainer::run_reference`: every worker on the calling thread.
    Sequential,
    /// `DistTrainer::run_multiprocess`: worker processes over loopback TCP.
    Processes,
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json` and the report header.
    pub why: &'static str,
    pub entry: Entry,
    /// Epochs of the timed `T(E)` run.
    pub epochs: usize,
    dataset: fn() -> DatasetSpec,
    scale: Scale,
    dist: DistConfig,
    train: TrainConfig,
}

/// Seed-independent settings shared by every workload.
fn dist(
    strategy: Strategy,
    p: usize,
    sync: SyncMethod,
    sparsifier: SparsifierKind,
    wire_codec: CodecConfig,
) -> DistConfig {
    DistConfig {
        num_workers: p,
        strategy,
        sync,
        alpha: 0.15,
        // Validation still runs on the first and the last epoch (the
        // trainer's rule), never in between.
        eval_every: 1000,
        setup_seed: 17,
        sparsifier,
        wire_codec,
        ..DistConfig::default()
    }
}

/// `hits_k` is about 15 % of the graph's test negatives (13 296 on
/// Pubmed x 0.5, 1 620 on Cora): after one epoch Hits@100 sits in the
/// tail of the score distribution and swings by 15-28 % between training
/// seeds, which would make it useless as a quality guard.
fn train(hidden: usize, fanouts: [usize; 2], batch_size: usize, hits_k: usize) -> TrainConfig {
    TrainConfig {
        layers: 2,
        hidden,
        batch_size,
        fanouts: fanouts.iter().map(|&f| Some(f)).collect(),
        hits_k,
        ..TrainConfig::default()
    }
}

/// Every run uses this dataset instance. The partitioner's time and cut
/// swing by an order of magnitude between instances of one size (README
/// has the numbers), which would bury every other metric's movement.
const DATASET_SEED: u64 = 5;

const PUBMED_HALF: Scale = Scale {
    factor: 0.5,
    feature_cap: 128,
};
const CORA_FULL: Scale = Scale {
    factor: 1.0,
    feature_cap: 32,
};
/// `--smoke` runs every workload on Cora at this scale instead of its
/// own graph, with a Hits@K cut-off to match its ~320 test negatives.
const SMOKE: Scale = Scale {
    factor: 0.2,
    feature_cap: 32,
};
const SMOKE_HITS_K: usize = 50;

pub fn all() -> Vec<Workload> {
    let plain = CodecConfig::default();
    let ma = SyncMethod::ModelAveraging;
    let default_path = |name, why, entry| Workload {
        name,
        why,
        entry,
        epochs: 1,
        dataset: DatasetSpec::pubmed,
        scale: PUBMED_HALF,
        dist: dist(Strategy::SpLpg, 2, ma, SparsifierKind::Degree, plain),
        train: train(64, [10, 5], 256, 2000),
    };
    vec![
        default_path(
            "ma-threads",
            "the paper's default path (SpLPG, model averaging, 2 thread workers): compute-bound, kernels/tape/sampler show here",
            Entry::Threads,
        ),
        default_path(
            "ma-seq",
            "the same configuration through run_reference: the plain sequential baseline and half of the bit-identity check",
            Entry::Sequential,
        ),
        Workload {
            name: "ga-tcp",
            why: "gradient averaging every mini-batch over 2 worker processes on loopback TCP: sync-bound, codec/sockets/master round show here",
            entry: Entry::Processes,
            epochs: 1,
            dataset: DatasetSpec::cora,
            scale: CORA_FULL,
            dist: dist(
                Strategy::SpLpg,
                2,
                SyncMethod::GradientAveraging,
                SparsifierKind::Degree,
                CodecConfig { structure: StructCodec::Varint, features: FeatCodec::F32 },
            ),
            train: train(256, [3, 3], 32, 250),
        },
        Workload {
            name: "fetch-int8",
            why: "complete remote sharing (PSGD-PA+) priced and degraded through the int8 codec: data-plane-bound, WorkerView fetches show here",
            entry: Entry::Threads,
            epochs: 1,
            dataset: DatasetSpec::pubmed,
            scale: PUBMED_HALF,
            dist: dist(
                Strategy::PsgdPaPlus,
                2,
                ma,
                SparsifierKind::Degree,
                CodecConfig { structure: StructCodec::Varint, features: FeatCodec::Int8 },
            ),
            train: train(32, [15, 10], 256, 2000),
        },
        Workload {
            name: "setup-jl-p4",
            why: "JL-sketch sparsifier at p = 4, sequential: setup-bound, partitioner and Laplacian solver show in setup_s here and nowhere else",
            entry: Entry::Sequential,
            epochs: 1,
            dataset: DatasetSpec::pubmed,
            scale: PUBMED_HALF,
            dist: dist(Strategy::SpLpg, 4, ma, SparsifierKind::Jl, plain),
            train: train(64, [10, 5], 256, 2000),
        },
    ]
}

pub fn find(name: &str) -> Result<Workload, String> {
    all().into_iter().find(|w| w.name == name).ok_or_else(|| {
        let names: Vec<_> = all().iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (known: {})", names.join(", "))
    })
}

impl Workload {
    pub fn generate(&self, smoke: bool) -> Result<Dataset, String> {
        let scale = if smoke { SMOKE } else { self.scale };
        let spec = if smoke {
            DatasetSpec::cora()
        } else {
            (self.dataset)()
        };
        spec.generate(scale, DATASET_SEED)
            .map_err(|e| format!("dataset generation failed: {e}"))
    }

    pub fn dist_config(&self) -> &DistConfig {
        &self.dist
    }

    pub fn train_config(&self, seed: u64, epochs: usize, smoke: bool) -> TrainConfig {
        let hits_k = if smoke {
            SMOKE_HITS_K
        } else {
            self.train.hits_k
        };
        TrainConfig {
            seed,
            epochs,
            hits_k,
            ..self.train.clone()
        }
    }

    pub fn trainer(&self, seed: u64, epochs: usize, smoke: bool) -> DistTrainer {
        DistTrainer::new(self.dist.clone(), self.train_config(seed, epochs, smoke))
    }

    /// The same configuration through `run_reference`, for the traced
    /// run's untraced sequential epoch.
    pub fn sequential(&self) -> Workload {
        Workload {
            entry: Entry::Sequential,
            ..self.clone()
        }
    }
}
