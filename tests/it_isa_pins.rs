//! Pinned end-to-end training outputs at a width where the register-tiled
//! matmul and the lane-blocked row kernels engage (hidden 64). The values
//! were recorded from a baseline x86-64 (SSE2) build, before the
//! workspace was compiled for x86-64-v3; the wider vectors must change
//! only the instruction width, never a bit of loss, Hits@K or bytes.
//!
//! Each configuration runs SpLPG with p = 2 through
//! `DistTrainer::run_reference` on Cora x1.0 for two epochs, at pool
//! sizes 1 and 2, so both the single-threaded microkernels and the
//! parallel row dispatch are exercised.

use splpg::prelude::*;
use splpg_tests::at_pool_size;

/// The benchmark's dataset instance.
const DATASET_SEED: u64 = 5;

const POOL_SIZES: [usize; 2] = [1, 2];

/// Per-epoch `(mean_loss, valid_hits)` bits, the test Hits@K bits and the
/// run's total comm bytes.
#[derive(Debug, PartialEq, Eq)]
struct Pins {
    epochs: Vec<(u32, u64)>,
    test_hits: u64,
    comm_bytes: u64,
}

fn run(kind: ModelKind, sync: SyncMethod, data: &Dataset) -> Pins {
    let dist = DistConfig { num_workers: 2, strategy: Strategy::SpLpg, sync, ..DistConfig::default() };
    let train = TrainConfig {
        layers: 2,
        hidden: 64,
        batch_size: 256,
        epochs: 2,
        fanouts: vec![Some(10), Some(5)],
        hits_k: 250,
        seed: 3,
        ..TrainConfig::default()
    };
    let out = DistTrainer::new(dist, train).run_reference(kind, data).expect("run_reference");
    Pins {
        epochs: out
            .epochs
            .iter()
            .map(|e| {
                let valid = e.valid_hits.expect("validation runs every epoch");
                (e.mean_loss.to_bits(), valid.to_bits())
            })
            .collect(),
        test_hits: out.test_hits.to_bits(),
        comm_bytes: out.comm.total_bytes(),
    }
}

fn check(kind: ModelKind, sync: SyncMethod, expected: Pins) {
    let data = DatasetSpec::cora().generate(Scale::new(1.0, 32), DATASET_SEED).expect("generate");
    for threads in POOL_SIZES {
        let got = at_pool_size(threads, || run(kind, sync, &data));
        assert_eq!(got, expected, "{kind} {sync:?} at pool size {threads}");
    }
}

#[test]
fn graphsage_model_averaging_is_pinned() {
    check(
        ModelKind::GraphSage,
        SyncMethod::ModelAveraging,
        Pins {
            epochs: vec![(1057755063, 4603745012266247882), (1052490028, 4605783573461212936)],
            test_hits: 4605611494948953576,
            comm_bytes: 23232,
        },
    );
}

/// GAT adds `segment_softmax`, `exp` and `leaky_relu` to the path.
#[test]
fn gat_model_averaging_is_pinned() {
    check(
        ModelKind::Gat,
        SyncMethod::ModelAveraging,
        Pins {
            epochs: vec![(1058838651, 4604367669032910848), (1054248874, 4606065048437923592)],
            test_hits: 4606157903244975779,
            comm_bytes: 23232,
        },
    );
}

/// Gradient averaging adds the master's Adam step and `average_grads`.
#[test]
fn graphsage_gradient_averaging_is_pinned() {
    check(
        ModelKind::GraphSage,
        SyncMethod::GradientAveraging,
        Pins {
            epochs: vec![(1058375006, 4604307962219669194), (1050957580, 4606133284795914054)],
            test_hits: 4606183516133851819,
            comm_bytes: 23232,
        },
    );
}
