//! Finite-difference gradient checks for every GNN architecture.
//!
//! Each test builds a tiny fixed graph and mini-batch, runs the full
//! link-prediction forward pass (GNN encoder → MLP edge predictor →
//! BCE-with-logits), and compares the tape's analytic parameter gradients
//! against central finite differences over a random block of parameter
//! indices. Dropout is disabled so the forward pass is a pure function of
//! the parameters; everything is seeded, so failures reproduce exactly.
//!
//! The relative error uses the same `max(|a|, |n|, 1e-2)` denominator as
//! `splpg_tensor::grad_check`: the floor keeps f32 round-off on near-zero
//! gradients from registering as a large relative error.
//!
//! Each coordinate is differenced over a halving ladder of step sizes
//! (with Richardson extrapolation between adjacent steps) and scored by
//! its best-agreeing estimate: coordinates adjacent to a ReLU/LeakyReLU
//! kink need tiny steps, noise-limited ones need large steps, and no
//! single step serves both. A handful of kink-adjacent coordinates are
//! unmeasurable to 1e-3 in f32 — the loss is quantized at ~1 ULP, so the
//! derivative resolution at the small steps a nearby kink forces is
//! itself ~1e-3 absolute. The acceptance criterion is therefore
//! two-tier: at least [`QUANTILE`] of checked coordinates must agree
//! within [`TOLERANCE`], and every coordinate within [`HARD_CAP`]. A
//! genuinely wrong analytic gradient fails both at every step size
//! (numeric estimates converge to a different value, giving O(1)
//! relative error), so the check retains full bug-finding power.

use splpg::gnn::trainer::{ModelKind, TrainConfig};
use splpg::gnn::{
    edges_to_pairs, FeatureAccess, FullFeatureAccess, FullGraphAccess, NeighborSampler,
};
use splpg::graph::{Edge, FeatureMatrix, Graph, GraphBuilder, NodeId};
use splpg::nn::ParamSet;
use splpg::tensor::Tensor;
use splpg_rng::rngs::StdRng;
use splpg_rng::{Rng, SeedableRng};

/// Required relative agreement between analytic and numeric gradients
/// for the bulk of the coordinates.
const TOLERANCE: f64 = 1e-3;
/// Fraction of checked coordinates that must meet [`TOLERANCE`].
const QUANTILE: f64 = 0.9;
/// No coordinate may exceed this, kink-adjacent or not; real backward
/// bugs show O(1) relative errors at every step size.
const HARD_CAP: f64 = 3e-2;
/// How many randomly-chosen parameter indices to difference per model.
const BLOCK: usize = 48;

fn param_name_of(params: &ParamSet, elem: usize) -> String {
    let mut off = 0usize;
    for i in 0..params.len() {
        let n = params.value(i).len();
        if elem < off + n {
            return format!("{}[{}]", params.name(i), elem - off);
        }
        off += n;
    }
    "?".to_string()
}

/// A fixed 12-node test graph: ring plus deterministic chords.
fn test_graph() -> Graph {
    let n = 12usize;
    let mut b = GraphBuilder::new(n);
    for v in 0..n {
        b.add_edge(v as NodeId, ((v + 1) % n) as NodeId).unwrap();
    }
    for &(u, v) in &[(0u32, 5u32), (2, 9), (3, 7), (1, 10), (4, 11), (6, 0)] {
        b.add_edge(u, v).unwrap();
    }
    b.build()
}

fn test_features(n: usize, dim: usize, seed: u64) -> FeatureMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows: Vec<Vec<f32>> =
        (0..n).map(|_| (0..dim).map(|_| rng.gen_range(-0.8f32..0.8)).collect()).collect();
    FeatureMatrix::from_rows(rows).unwrap()
}

/// Runs the full forward/backward gradient check for one architecture and
/// returns the best-achieved relative error per checked coordinate,
/// labelled with the parameter name.
fn gradcheck_model(kind: ModelKind, seed: u64) -> Vec<(String, f64)> {
    let graph = test_graph();
    let dim = 3usize;
    let features = test_features(graph.num_nodes(), dim, seed ^ 0xFEED);

    let cfg = TrainConfig {
        layers: 2,
        hidden: 4,
        dropout: 0.0,
        batch_size: 8,
        epochs: 1,
        learning_rate: 1e-3,
        fanouts: vec![None, None],
        hits_k: 10,
        seed,
    };
    let mut params = ParamSet::new();
    let mut init_rng = StdRng::seed_from_u64(seed);
    let model = cfg.build_model(kind, dim, &mut params, &mut init_rng);

    // A fixed mini-batch: four ring edges as positives, four non-edges as
    // negatives. Full-neighborhood fanouts make block sampling
    // deterministic regardless of RNG state.
    let positives = vec![Edge::new(0, 1), Edge::new(2, 3), Edge::new(5, 6), Edge::new(8, 9)];
    let negatives = vec![Edge::new(0, 7), Edge::new(2, 11), Edge::new(5, 9), Edge::new(1, 8)];
    let (seeds, pairs, labels) = edges_to_pairs(&positives, &negatives);
    let access = FullGraphAccess::new(&graph);
    let mut batch_rng = StdRng::seed_from_u64(seed ^ 0xB00C);
    let batch = NeighborSampler::full(cfg.layers).sample(&access, &seeds, &mut batch_rng);
    let input = FullFeatureAccess::new(&features).gather(batch.input_nodes());

    // One tape serves the analytic pass and every finite-difference
    // evaluation below: `reset()` recycles its arena between passes, so
    // the check also exercises the buffer-reuse path the trainers run on.
    let mut tape = splpg::tensor::Tape::new();

    // Analytic gradients, flattened in canonical parameter order. The
    // input is a constant leaf, as in the trainers, so this is the pruned
    // backward pass they run.
    let binding = params.bind(&mut tape);
    let x = tape.leaf_with(input.rows(), input.cols(), |buf| buf.extend_from_slice(input.data()));
    let logits = model.score_pairs(&mut tape, &binding, x, &batch, &pairs, None);
    let loss = tape.bce_with_logits(logits, &labels);
    let mut grads = tape.backward(loss);
    let analytic: Vec<f32> = binding
        .collect_grads(&params, &mut grads)
        .iter()
        .flat_map(Tensor::data)
        .copied()
        .collect();
    tape.recycle_gradients(grads);

    let mut loss_at = |flat: &[f32]| -> f64 {
        let mut p = params.clone();
        p.load_flat(flat).unwrap();
        tape.reset();
        let binding = p.bind(&mut tape);
        let x = tape.leaf_copy(&input);
        let logits = model.score_pairs(&mut tape, &binding, x, &batch, &pairs, None);
        let loss = tape.bce_with_logits(logits, &labels);
        tape.value(loss).get(0, 0) as f64
    };

    let flat = params.to_flat();
    assert_eq!(analytic.len(), flat.len(), "one gradient per parameter element");

    // Random block of indices to difference (all of them if the model is
    // small enough).
    let mut pick_rng = StdRng::seed_from_u64(seed ^ 0x1D1CE5);
    let mut indices: Vec<usize> = (0..flat.len()).collect();
    while indices.len() > BLOCK {
        let drop = pick_rng.gen_range(0..indices.len());
        indices.swap_remove(drop);
    }

    // Halving ladder of step sizes: adjacent entries support Richardson
    // extrapolation, and the range covers both kink-adjacent coordinates
    // (need tiny steps) and noise-limited ones (need large steps).
    let ladder: Vec<f64> = (0..14).map(|k| 1e-1 / f64::powi(2.0, k)).collect();

    indices
        .iter()
        .map(|&i| {
            let a = analytic[i] as f64;
            let diffs: Vec<f64> = ladder
                .iter()
                .map(|&eps| {
                    let mut plus = flat.clone();
                    plus[i] += eps as f32;
                    let mut minus = flat.clone();
                    minus[i] -= eps as f32;
                    (loss_at(&plus) - loss_at(&minus)) / (2.0 * eps)
                })
                .collect();
            // Candidate estimates: every raw central difference plus every
            // Richardson combination of adjacent halved steps (cancels the
            // O(eps^2) curvature term).
            let mut candidates = diffs.clone();
            for w in diffs.windows(2) {
                candidates.push((4.0 * w[1] - w[0]) / 3.0);
            }
            let best = candidates
                .iter()
                .map(|&n| (a - n).abs() / a.abs().max(n.abs()).max(1e-2))
                .fold(f64::INFINITY, f64::min);
            (param_name_of(&params, i), best)
        })
        .collect()
}

fn assert_gradients_match(kind: ModelKind, seed: u64) {
    let report = gradcheck_model(kind, seed);
    let checked = report.len();
    assert!(checked > 0, "no parameters checked for {kind:?}");
    let mut rels: Vec<f64> = report.iter().map(|&(_, r)| r).collect();
    rels.sort_by(f64::total_cmp);
    let quantile = rels[((checked as f64 * QUANTILE).ceil() as usize - 1).min(checked - 1)];
    let max_rel = rels[checked - 1];
    let offenders: Vec<String> = report
        .iter()
        .filter(|&&(_, r)| r >= TOLERANCE)
        .map(|(name, r)| format!("{name}: {r:.3e}"))
        .collect();
    assert!(
        quantile < TOLERANCE && max_rel < HARD_CAP,
        "{kind:?}: analytic vs central-difference gradients disagree \
         (quantile-{QUANTILE} rel err {quantile:.3e} vs tol {TOLERANCE:.0e}, \
         max {max_rel:.3e} vs cap {HARD_CAP:.0e}, over {checked} indices)\n\
         coordinates above tolerance:\n  {}",
        offenders.join("\n  ")
    );
}

#[test]
fn gcn_gradients_match_finite_differences() {
    assert_gradients_match(ModelKind::Gcn, 11);
}

#[test]
fn graphsage_gradients_match_finite_differences() {
    assert_gradients_match(ModelKind::GraphSage, 12);
}

#[test]
fn gat_gradients_match_finite_differences() {
    assert_gradients_match(ModelKind::Gat, 13);
}

#[test]
fn gatv2_gradients_match_finite_differences() {
    assert_gradients_match(ModelKind::GatV2, 14);
}

#[test]
fn gin_gradients_match_finite_differences() {
    assert_gradients_match(ModelKind::Gin, 15);
}

#[test]
fn aggregate_models_match_on_a_pooled_multi_thread_tape() {
    // Same check through the arena-reusing tape with a >1-thread pool
    // active, for every model whose layers run on the fused `aggregate`
    // op: kernel outputs are thread-count invariant by construction, so
    // the pooled run must agree with finite differences exactly as the
    // default run does.
    splpg_par::set_num_threads(4);
    assert_gradients_match(ModelKind::Gcn, 11);
    assert_gradients_match(ModelKind::GraphSage, 12);
    assert_gradients_match(ModelKind::Gin, 15);
    splpg_par::set_num_threads(0);
}

/// FNV-1a over the loss bits and every parameter-gradient bit of one
/// forward/backward step of `kind` on the gradcheck fixture.
fn step_fingerprint(kind: ModelKind, seed: u64) -> u64 {
    let graph = test_graph();
    let features = test_features(graph.num_nodes(), 3, seed ^ 0xFEED);
    let cfg = TrainConfig {
        layers: 2,
        hidden: 4,
        dropout: 0.0,
        fanouts: vec![None, None],
        seed,
        ..TrainConfig::default()
    };
    let mut params = ParamSet::new();
    let model = cfg.build_model(kind, 3, &mut params, &mut StdRng::seed_from_u64(seed));
    let positives = vec![Edge::new(0, 1), Edge::new(2, 3), Edge::new(5, 6), Edge::new(8, 9)];
    let negatives = vec![Edge::new(0, 7), Edge::new(2, 11), Edge::new(5, 9), Edge::new(1, 8)];
    let (seeds, pairs, labels) = edges_to_pairs(&positives, &negatives);
    let access = FullGraphAccess::new(&graph);
    let batch =
        NeighborSampler::full(2).sample(&access, &seeds, &mut StdRng::seed_from_u64(seed));
    let input = FullFeatureAccess::new(&features).gather(batch.input_nodes());

    let mut tape = splpg::tensor::Tape::new();
    let binding = params.bind(&mut tape);
    let x = tape.leaf_with(input.rows(), input.cols(), |buf| buf.extend_from_slice(input.data()));
    let logits = model.score_pairs(&mut tape, &binding, x, &batch, &pairs, None);
    let loss = tape.bce_with_logits(logits, &labels);
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut absorb = |v: f32| {
        for byte in v.to_bits().to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    absorb(tape.value(loss).get(0, 0));
    let mut grads = tape.backward(loss);
    for g in binding.collect_grads(&params, &mut grads) {
        g.data().iter().copied().for_each(&mut absorb);
    }
    hash
}

#[test]
fn every_model_keeps_the_bits_of_the_unfused_unpruned_tape() {
    // Recorded on the commit before SAGE/GCN/GIN moved to the fused
    // `aggregate` op and before `Tape::backward` learned to prune
    // constants, recycle interior gradients mid-pass and take un-zeroed
    // outputs. GAT and GATv2 still record the primitive gather / softmax /
    // segment-sum ops but share that backward pass, so a bit moved by
    // either change shows here.
    let recorded: [(ModelKind, u64, u64); 5] = [
        (ModelKind::Gcn, 11, 0x1fd1_031a_20ec_5ba1),
        (ModelKind::GraphSage, 12, 0x4bb4_5392_543b_7952),
        (ModelKind::Gat, 13, 0xecef_b639_bcab_cc14),
        (ModelKind::GatV2, 14, 0x9520_a2b3_f87b_c7c9),
        (ModelKind::Gin, 15, 0x676d_2431_eddd_6801),
    ];
    for (kind, seed, fingerprint) in recorded {
        assert_eq!(step_fingerprint(kind, seed), fingerprint, "{kind:?} loss/gradient bits moved");
    }
}

#[test]
fn edge_predictor_gradients_flow_to_the_mlp_head() {
    // The MLP head's parameters are registered after the GNN's; verify the
    // analytic gradient block for the head is non-trivially nonzero (the
    // finite-difference agreement above covers its correctness).
    let graph = test_graph();
    let dim = 3usize;
    let features = test_features(graph.num_nodes(), dim, 0xE0);
    let cfg = TrainConfig {
        layers: 2,
        hidden: 4,
        dropout: 0.0,
        batch_size: 8,
        epochs: 1,
        learning_rate: 1e-3,
        fanouts: vec![None, None],
        hits_k: 10,
        seed: 11,
    };
    let mut gnn_only = ParamSet::new();
    let mut rng = StdRng::seed_from_u64(11);
    let _ = cfg.build_model(ModelKind::Gcn, dim, &mut gnn_only, &mut rng);
    let gnn_elems: usize = (0..gnn_only.len()).map(|i| gnn_only.value(i).len()).sum();

    let mut params = ParamSet::new();
    let mut rng = StdRng::seed_from_u64(11);
    let model = cfg.build_model(ModelKind::Gcn, dim, &mut params, &mut rng);
    // `build_model` registers GNN weights first, then the predictor MLP —
    // but `gnn_only` above also includes its own MLP head, so recompute
    // the boundary from the parameter names instead.
    let head_start: usize = (0..params.len())
        .find(|&i| params.name(i).starts_with("edge_mlp"))
        .map(|i| (0..i).map(|j| params.value(j).len()).sum())
        .expect("predictor parameters registered");
    assert!(head_start < gnn_elems, "head follows the encoder block");

    // Asymmetric batch (3 positives, 1 negative): a balanced batch at an
    // all-zero-logit initialization makes the final-bias gradient cancel
    // exactly, which would defeat this smoke check.
    let positives = vec![Edge::new(0, 1), Edge::new(4, 5), Edge::new(8, 9)];
    let negatives = vec![Edge::new(0, 9)];
    let (seeds, pairs, labels) = edges_to_pairs(&positives, &negatives);
    let access = FullGraphAccess::new(&graph);
    let mut batch_rng = StdRng::seed_from_u64(7);
    let batch = NeighborSampler::full(cfg.layers).sample(&access, &seeds, &mut batch_rng);
    let input = FullFeatureAccess::new(&features).gather(batch.input_nodes());

    let mut tape = splpg::tensor::Tape::new();
    let binding = params.bind(&mut tape);
    let x = tape.leaf(input);
    let logits = model.score_pairs(&mut tape, &binding, x, &batch, &pairs, None);
    let loss = tape.bce_with_logits(logits, &labels);
    let mut grads = tape.backward(loss);
    let flat_grads: Vec<f32> = binding
        .collect_grads(&params, &mut grads)
        .iter()
        .flat_map(Tensor::data)
        .copied()
        .collect();
    let head_norm: f64 =
        flat_grads[head_start..].iter().map(|&g| (g as f64) * (g as f64)).sum::<f64>().sqrt();
    assert!(head_norm > 1e-6, "predictor head received no gradient (norm {head_norm:.3e})");
}

