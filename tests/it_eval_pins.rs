//! Pinned outputs of link-prediction evaluation — the score of every
//! held-out edge and the Hits@K of the benchmark instance, plus where the
//! caller's RNG stands afterwards. The values were recorded while
//! evaluation still sampled and ran a full multi-hop forward per
//! 1024-edge chunk; the layer-wise evaluation that computes each node's
//! embedding once per layer must leave every bit where it was, at any
//! pool size.

use splpg::gnn::trainer::{evaluate_hits, score_edges};
use splpg::gnn::{
    FullFeatureAccess, FullGraphAccess, LinkPredictor, NeighborSampler, SamplerScratch,
};
use splpg::nn::ParamSet;
use splpg::prelude::*;
use splpg::tensor::Tape;
use splpg_rng::rngs::StdRng;
use splpg_rng::{Rng, SeedableRng};
use splpg_tests::at_pool_size;

/// FNV-1a over a stream of u64 words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf29ce484222325)
    }

    fn write(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }
}

fn score_bits(scores: &[f32]) -> u64 {
    let mut fp = Fnv::new();
    for s in scores {
        fp.write(s.to_bits() as u64);
    }
    fp.0
}

/// The benchmark's dataset instance, model-init and evaluation seeds.
const DATASET_SEED: u64 = 5;
const INIT_SEED: u64 = 3;
const EVAL_SEED: u64 = 11;

const POOL_SIZES: [usize; 2] = [1, 4];

/// A freshly initialized 2-layer model of `kind` and its parameters.
fn model(kind: ModelKind, in_dim: usize, hidden: usize) -> (LinkPredictor, ParamSet) {
    let config = TrainConfig { layers: 2, hidden, ..TrainConfig::default() };
    let mut params = ParamSet::new();
    let mut init = StdRng::seed_from_u64(INIT_SEED);
    let model = config.build_model(kind, in_dim, &mut params, &mut init);
    (model, params)
}

/// FNV of the `test` and `test_neg` score bits, and the caller RNG's next
/// `u64` after scoring both.
fn cora_pins(kind: ModelKind) -> (u64, u64, u64) {
    let data = DatasetSpec::cora().generate(Scale::new(1.0, 32), DATASET_SEED).expect("generate");
    let train_graph = data.train_graph();
    let (model, params) = model(kind, data.features.dim(), 32);
    let mut rng = StdRng::seed_from_u64(EVAL_SEED);
    let scores = score_edges(
        &model,
        &params,
        &FullGraphAccess::new(&train_graph),
        &mut FullFeatureAccess::new(&data.features),
        &NeighborSampler::full(2),
        &[&data.split.test, &data.split.test_neg],
        &mut rng,
        &mut Tape::new(),
        &mut SamplerScratch::new(),
    );
    assert_eq!(scores[0].len(), data.split.test.len());
    assert_eq!(scores[1].len(), data.split.test_neg.len());
    (score_bits(&scores[0]), score_bits(&scores[1]), rng.gen())
}

#[test]
fn cora_scores_of_every_model_kind_are_pinned() {
    // 1 055 positives and 3 165 negatives: two and four 1024-edge chunks.
    let rng_after = 5634002725903801820;
    let expected = [
        (ModelKind::Gcn, (16468435294428667970, 2659322353904245024, rng_after)),
        (ModelKind::GraphSage, (2635723272881059008, 5453887456751632085, rng_after)),
        (ModelKind::Gat, (17828959572452303542, 4353242793524499710, rng_after)),
        (ModelKind::GatV2, (9941220562341820284, 4062519135712738289, rng_after)),
    ];
    for threads in POOL_SIZES {
        for (kind, pins) in expected {
            let got = at_pool_size(threads, || cora_pins(kind));
            assert_eq!(got, pins, "{kind} on Cora x1.0 at pool size {threads}");
        }
    }
}

#[test]
fn benchmark_pubmed_hits_are_pinned() {
    // The benchmark's default-path evaluation: GraphSAGE 2 x 64 on Pubmed
    // x0.5 (9 858 nodes), 4 432 test positives against 13 296 negatives,
    // K = 2 000.
    let data =
        DatasetSpec::pubmed().generate(Scale::new(0.5, 128), DATASET_SEED).expect("generate");
    let train_graph = data.train_graph();
    let (model, params) = model(ModelKind::GraphSage, data.features.dim(), 64);
    for threads in POOL_SIZES {
        let got = at_pool_size(threads, || {
            let mut rng = StdRng::seed_from_u64(EVAL_SEED);
            let hits = evaluate_hits(
                &model,
                &params,
                &FullGraphAccess::new(&train_graph),
                &mut FullFeatureAccess::new(&data.features),
                &NeighborSampler::full(2),
                &data.split.test,
                &data.split.test_neg,
                2000,
                &mut rng,
                &mut Tape::new(),
                &mut SamplerScratch::new(),
            )
            .expect("evaluate");
            (hits.to_bits(), rng.gen::<u64>())
        });
        assert_eq!(
            got,
            (4594525190244393108, 1853342209735845109),
            "Pubmed x0.5 GraphSAGE Hits@2000 bits and next RNG draw at pool size {threads}"
        );
    }
}
