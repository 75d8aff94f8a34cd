//! Single-process training and evaluation helpers.
//!
//! The centralized baseline of every figure trains through
//! [`train_centralized`]; the distributed engine reuses [`batch_grads`]
//! (one worker's forward/backward on its own data view) and
//! [`evaluate_hits`].

use splpg_rng::rngs::StdRng;
use splpg_rng::seq::SliceRandom;
use splpg_rng::{Rng, SeedableRng};
use splpg_graph::{Edge, EdgeSplit, FeatureMatrix, Graph, NodeId};
use splpg_nn::{Adam, Optimizer, ParamSet};
use splpg_tensor::{Tape, Tensor};

use crate::{
    edges_to_pairs, metrics, EdgePredictor, FeatureAccess, FullFeatureAccess, FullGraphAccess,
    Gat, GatV2, Gcn, GnnError, GraphAccess, GraphSage, LinkPredictor, NeighborSampler,
    PerSourceNegativeSampler, SamplerScratch,
};

/// Which GNN architecture to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Graph convolutional network.
    Gcn,
    /// GraphSAGE with mean aggregation.
    GraphSage,
    /// Graph attention network.
    Gat,
    /// GATv2 (dynamic attention).
    GatV2,
}

impl ModelKind {
    /// The four architectures the paper evaluates (Figure 14), in its
    /// presentation order.
    pub const ALL: [ModelKind; 4] =
        [ModelKind::Gcn, ModelKind::GraphSage, ModelKind::Gat, ModelKind::GatV2];

    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::Gcn => "GCN",
            ModelKind::GraphSage => "GraphSAGE",
            ModelKind::Gat => "GAT",
            ModelKind::GatV2 => "GATv2",
        }
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Hyperparameters for model construction and training.
///
/// Defaults are CPU-scaled versions of the paper's setup (Section V-A):
/// the paper uses 3 layers, hidden 256, batch 256, Adam lr 0.001,
/// 500 epochs; we default to hidden 64 and 30 epochs so experiments run in
/// CPU-minutes, with every field overridable.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// GNN layer count (paper: 3).
    pub layers: usize,
    /// Hidden/embedding width (paper: 256).
    pub hidden: usize,
    /// Dropout probability.
    pub dropout: f32,
    /// Mini-batch size in positive edges (paper: 256).
    pub batch_size: usize,
    /// Training epochs (paper: 500).
    pub epochs: usize,
    /// Adam learning rate (paper: 0.001).
    pub learning_rate: f32,
    /// Per-hop fanouts; `None` entries = full neighborhood.
    pub fanouts: Vec<Option<usize>>,
    /// Hits@K cutoff (paper: 100).
    pub hits_k: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            layers: 3,
            hidden: 64,
            dropout: 0.0,
            batch_size: 256,
            epochs: 30,
            learning_rate: 1e-3,
            fanouts: vec![Some(25), Some(10), Some(5)],
            hits_k: 100,
            seed: 1,
        }
    }
}

impl TrainConfig {
    /// The sampler implied by the fanout configuration.
    ///
    /// # Panics
    ///
    /// Panics if `fanouts.len() != layers`.
    pub fn sampler(&self) -> NeighborSampler {
        assert_eq!(self.fanouts.len(), self.layers, "one fanout per layer");
        NeighborSampler::new(self.fanouts.clone())
    }

    /// Builds a model + predictor pair for `kind`, registering parameters.
    pub fn build_model<R: Rng + ?Sized>(
        &self,
        kind: ModelKind,
        in_dim: usize,
        params: &mut ParamSet,
        rng: &mut R,
    ) -> LinkPredictor {
        let mut dims = vec![in_dim];
        dims.extend(std::iter::repeat_n(self.hidden, self.layers));
        let gnn: Box<dyn crate::GnnModel + Send + Sync> = match kind {
            ModelKind::Gcn => Box::new(Gcn::new(params, &dims, self.dropout, rng)),
            ModelKind::GraphSage => Box::new(GraphSage::new(params, &dims, self.dropout, rng)),
            ModelKind::Gat => Box::new(Gat::new(params, &dims, self.dropout, rng)),
            ModelKind::GatV2 => Box::new(GatV2::new(params, &dims, self.dropout, rng)),
        };
        let predictor = EdgePredictor::paper_mlp(params, self.hidden, self.hidden, rng);
        LinkPredictor::new(gnn, predictor)
    }
}

/// Loss and gradients from one worker-local mini-batch (Algorithm 1 lines
/// 20–28): draws per-source negatives, samples blocks, runs
/// forward/backward.
///
/// `tape` and `scratch` are reset and reused: a trainer holds one tape and
/// one sampler scratch across steps so the steady-state step draws every
/// buffer from the tape's arena and the sampler's worker scratch instead of
/// the allocator. Recycle the returned gradients back into the tape
/// ([`Tape::recycle`]) once the optimizer has consumed them.
///
/// # Errors
///
/// Propagates negative-sampling failures.
#[allow(clippy::too_many_arguments)]
pub fn batch_grads<G, F>(
    model: &LinkPredictor,
    params: &ParamSet,
    graph_access: &G,
    feature_access: &mut F,
    sampler: &NeighborSampler,
    negative_sampler: &PerSourceNegativeSampler,
    positives: &[Edge],
    rng: &mut StdRng,
    tape: &mut Tape,
    scratch: &mut SamplerScratch,
) -> Result<(f32, Vec<Tensor>), GnnError>
where
    G: GraphAccess,
    F: FeatureAccess,
{
    let negatives = negative_sampler.sample_for_edges(graph_access, positives, rng)?;
    let (seeds, pairs, labels) = edges_to_pairs(positives, &negatives);
    let batch = sampler.sample_with(graph_access, &seeds, rng, scratch);

    tape.reset();
    let binding = params.bind(tape);
    let input_nodes = batch.input_nodes();
    let x = tape.leaf_with(input_nodes.len(), feature_access.dim(), |buf| {
        feature_access.gather_into(input_nodes, buf);
    });
    let mut dropout_rng = rng.clone();
    let logits = model.score_pairs(tape, &binding, x, &batch, &pairs, Some(&mut dropout_rng));
    let loss = tape.bce_with_logits(logits, &labels);
    let loss_value = tape.value(loss).get(0, 0);
    let mut grads = tape.backward(loss);
    let collected = binding.collect_grads(params, &mut grads);
    tape.recycle_gradients(grads);
    Ok((loss_value, collected))
}

/// Destination rows per layer chunk and pairs per scoring chunk of an
/// evaluation pass: bounds the tape's working set.
const EVAL_CHUNK: usize = 1024;

/// What one evaluation pass computed: destination rows per layer
/// (input side first) and feature rows gathered.
#[derive(Debug, Default)]
struct EvalStats {
    layer_rows: Vec<usize>,
    feature_rows: usize,
}

/// Scores every edge set under the current parameters (no gradients, no
/// dropout), one score vector per set in order.
///
/// Evaluation is layer-wise: one cooperative sample of all the sets'
/// endpoints fixes each layer's destination set, then each layer runs
/// over its destination set exactly once, 1024 rows at a time,
/// reading its inputs from the previous layer's rows (the gathered
/// features at layer 0), and the predictor scores the pairs from the
/// final rows. Every output row depends only on its own in-edges in
/// sampler order, and every kernel fixes the summation order per output
/// row, so each score is the bit pattern a forward pass over any batch
/// holding the edge would produce. `tape` and `scratch` are reset and
/// reused per chunk.
///
/// `rng` advances by one hop-seed draw per layer for every started
/// 1024-edge chunk of every set — the draws of sampling each chunk on its
/// own; the first chunk's seeds drive the cooperative sample.
///
/// # Panics
///
/// Panics if `sampler` and the model disagree on the layer count.
#[allow(clippy::too_many_arguments)]
pub fn score_edges<G, F>(
    model: &LinkPredictor,
    params: &ParamSet,
    graph_access: &G,
    feature_access: &mut F,
    sampler: &NeighborSampler,
    edge_sets: &[&[Edge]],
    rng: &mut StdRng,
    tape: &mut Tape,
    scratch: &mut SamplerScratch,
) -> Vec<Vec<f32>>
where
    G: GraphAccess,
    F: FeatureAccess,
{
    score_edges_with_stats(
        model, params, graph_access, feature_access, sampler, edge_sets, rng, tape, scratch,
    )
    .0
}

#[allow(clippy::too_many_arguments)]
fn score_edges_with_stats<G, F>(
    model: &LinkPredictor,
    params: &ParamSet,
    graph_access: &G,
    feature_access: &mut F,
    sampler: &NeighborSampler,
    edge_sets: &[&[Edge]],
    rng: &mut StdRng,
    tape: &mut Tape,
    scratch: &mut SamplerScratch,
) -> (Vec<Vec<f32>>, EvalStats)
where
    G: GraphAccess,
    F: FeatureAccess,
{
    let layers = sampler.num_layers();
    assert_eq!(layers, model.gnn().num_layers(), "one sampler hop per model layer");
    let mut stats = EvalStats::default();
    let chunks: usize = edge_sets.iter().map(|edges| edges.len().div_ceil(EVAL_CHUNK)).sum();
    if chunks == 0 {
        return (vec![Vec::new(); edge_sets.len()], stats);
    }
    let hop_seeds = sampler.draw_hop_seeds(rng);
    for _ in layers..chunks * layers {
        let _: u64 = rng.gen();
    }

    let endpoints: Vec<NodeId> =
        edge_sets.iter().flat_map(|edges| edges.iter().flat_map(|e| [e.src, e.dst])).collect();
    let (plan, _) = sampler.sample_hops(graph_access, &endpoints, &hop_seeds, scratch);

    // `rows` holds one `width`-wide row per node of the current layer's
    // input set; `row_of[v]` is node `v`'s row there.
    let mut row_of = vec![0u32; graph_access.num_nodes()];
    let mut width = feature_access.dim();
    let mut rows = Vec::with_capacity(plan.input_nodes().len() * width);
    feature_access.gather_into(plan.input_nodes(), &mut rows);
    stats.feature_rows = plan.input_nodes().len();
    let mut next = Vec::new();
    for (i, layer_block) in plan.blocks.iter().enumerate() {
        index_rows(&layer_block.src_ids, &mut row_of);
        let dsts = layer_block.dst_ids();
        next.clear();
        for chunk in dsts.chunks(EVAL_CHUNK) {
            let block = sampler.sample_layer_with(graph_access, chunk, i, &hop_seeds, scratch);
            tape.reset();
            let binding = params.bind(tape);
            let h = tape.leaf_with(block.num_src(), width, |buf| {
                copy_rows(block.src_ids.iter().copied(), &row_of, &rows, width, buf);
            });
            let out = model.gnn().layer(i, tape, &binding, h, &block);
            next.extend_from_slice(tape.value(out).data());
        }
        stats.layer_rows.push(dsts.len());
        width = next.len() / dsts.len();
        std::mem::swap(&mut rows, &mut next);
    }
    // `next` now holds the previous layer's (widest) input rows.
    drop(next);

    index_rows(&plan.seeds, &mut row_of);
    let scores = edge_sets
        .iter()
        .map(|edges| {
            let mut scores = Vec::with_capacity(edges.len());
            for chunk in edges.chunks(EVAL_CHUNK) {
                tape.reset();
                let binding = params.bind(tape);
                let h_u = tape.leaf_with(chunk.len(), width, |buf| {
                    copy_rows(chunk.iter().map(|e| e.src), &row_of, &rows, width, buf);
                });
                let h_v = tape.leaf_with(chunk.len(), width, |buf| {
                    copy_rows(chunk.iter().map(|e| e.dst), &row_of, &rows, width, buf);
                });
                let logits = model.predictor().score(tape, &binding, h_u, h_v);
                scores.extend_from_slice(tape.value(logits).data());
            }
            scores
        })
        .collect();
    (scores, stats)
}

/// Points `row_of[v]` at `v`'s position in `ids`.
fn index_rows(ids: &[NodeId], row_of: &mut [u32]) {
    for (r, &v) in ids.iter().enumerate() {
        row_of[v as usize] =
            u32::try_from(r).expect("invariant: row count fits u32 (node ids are u32)");
    }
}

/// Appends the `width`-wide row of every node of `ids` from `rows`, where
/// node `v` sits at row `row_of[v]`.
fn copy_rows(
    ids: impl Iterator<Item = NodeId>,
    row_of: &[u32],
    rows: &[f32],
    width: usize,
    out: &mut Vec<f32>,
) {
    for v in ids {
        let r = row_of[v as usize] as usize;
        out.extend_from_slice(&rows[r * width..(r + 1) * width]);
    }
}

/// Hits@K of `model` on held-out positives vs negatives, scored in one
/// layer-wise pass ([`score_edges`]).
///
/// # Errors
///
/// Propagates metric errors (empty inputs, NaN scores).
#[allow(clippy::too_many_arguments)]
pub fn evaluate_hits<G, F>(
    model: &LinkPredictor,
    params: &ParamSet,
    graph_access: &G,
    feature_access: &mut F,
    sampler: &NeighborSampler,
    positives: &[Edge],
    negatives: &[Edge],
    k: usize,
    rng: &mut StdRng,
    tape: &mut Tape,
    scratch: &mut SamplerScratch,
) -> Result<f64, GnnError>
where
    G: GraphAccess,
    F: FeatureAccess,
{
    let scores = score_edges(
        model,
        params,
        graph_access,
        feature_access,
        sampler,
        &[positives, negatives],
        rng,
        tape,
        scratch,
    );
    metrics::hits_at_k(&scores[0], &scores[1], k)
}

/// Progress of a training run: per-epoch loss and validation accuracy.
#[derive(Debug, Clone, Default)]
pub struct TrainHistory {
    /// Mean training loss per epoch.
    pub losses: Vec<f32>,
    /// Validation Hits@K per epoch.
    pub valid_hits: Vec<f64>,
}

/// Outcome of [`train_centralized`].
pub struct TrainedModel {
    /// The trained model (architecture + predictor).
    pub model: LinkPredictor,
    /// Trained parameters.
    pub params: ParamSet,
    /// Per-epoch history.
    pub history: TrainHistory,
    /// Test Hits@K of the best-validation parameters.
    pub test_hits: f64,
}

impl std::fmt::Debug for TrainedModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrainedModel")
            .field("test_hits", &self.test_hits)
            .field("epochs", &self.history.losses.len())
            .finish()
    }
}

/// Trains `kind` on the full graph in one process — the paper's
/// "centralized" reference configuration that every distributed method is
/// compared against.
///
/// Follows the paper's protocol: message passing on the training graph,
/// per-source uniform negatives over the whole node set, Adam, and test
/// accuracy reported for the best-validation epoch.
///
/// # Errors
///
/// Propagates sampling/metric failures.
pub fn train_centralized(
    kind: ModelKind,
    graph: &Graph,
    features: &FeatureMatrix,
    split: &EdgeSplit,
    config: &TrainConfig,
) -> Result<TrainedModel, GnnError> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let train_graph = split
        .train_graph(graph.num_nodes())
        .map_err(|e| GnnError::NegativeSampling(e.to_string()))?;
    let mut params = ParamSet::new();
    let model = config.build_model(kind, features.dim(), &mut params, &mut rng);
    let mut opt = Adam::new(config.learning_rate);
    let sampler = config.sampler();
    let eval_sampler = NeighborSampler::full(config.layers);
    let negative_sampler = PerSourceNegativeSampler::global(graph.num_nodes());

    let mut history = TrainHistory::default();
    let mut best = (f64::NEG_INFINITY, params.to_flat());
    let mut train_edges = split.train.clone();
    // One tape + sampler scratch per loop: train batches and eval chunks
    // have different shapes, so separate instances keep each arena at its
    // own fixed point.
    let mut tape = Tape::new();
    let mut eval_tape = Tape::new();
    let mut scratch = SamplerScratch::new();
    let mut eval_scratch = SamplerScratch::new();
    for _epoch in 0..config.epochs {
        train_edges.shuffle(&mut rng);
        let mut epoch_loss = 0.0f64;
        let mut batches = 0usize;
        for chunk in train_edges.chunks(config.batch_size) {
            let ga = FullGraphAccess::new(&train_graph);
            let mut fa = FullFeatureAccess::new(features);
            let (loss, grads) = batch_grads(
                &model,
                &params,
                &ga,
                &mut fa,
                &sampler,
                &negative_sampler,
                chunk,
                &mut rng,
                &mut tape,
                &mut scratch,
            )?;
            opt.step(&mut params, &grads);
            for g in grads {
                tape.recycle(g);
            }
            epoch_loss += loss as f64;
            batches += 1;
        }
        history.losses.push((epoch_loss / batches.max(1) as f64) as f32);

        let ga = FullGraphAccess::new(&train_graph);
        let mut fa = FullFeatureAccess::new(features);
        let hits = evaluate_hits(
            &model,
            &params,
            &ga,
            &mut fa,
            &eval_sampler,
            &split.valid,
            &split.valid_neg,
            config.hits_k,
            &mut rng,
            &mut eval_tape,
            &mut eval_scratch,
        )?;
        history.valid_hits.push(hits);
        if hits > best.0 {
            best = (hits, params.to_flat());
        }
    }
    params.load_flat(&best.1).expect("same parameter structure");
    let ga = FullGraphAccess::new(&train_graph);
    let mut fa = FullFeatureAccess::new(features);
    let test_hits = evaluate_hits(
        &model,
        &params,
        &ga,
        &mut fa,
        &eval_sampler,
        &split.test,
        &split.test_neg,
        config.hits_k,
        &mut rng,
        &mut eval_tape,
        &mut eval_scratch,
    )?;
    Ok(TrainedModel { model, params, history, test_hits })
}

#[cfg(test)]
mod tests {
    use super::*;
    use splpg_graph::{GraphBuilder, NodeId, SplitFractions};

    /// A small two-community graph with community-correlated features:
    /// link prediction on it is learnable.
    fn toy_dataset() -> (Graph, FeatureMatrix, EdgeSplit) {
        let n = 60usize;
        let half = n / 2;
        let mut rng = StdRng::seed_from_u64(7);
        let mut b = GraphBuilder::new(n);
        for c in 0..2usize {
            let base = c * half;
            for i in 0..half {
                for _ in 0..3 {
                    let j = rng.gen_range(0..half);
                    if i != j {
                        let _ = b.add_edge((base + i) as NodeId, (base + j) as NodeId);
                    }
                }
            }
        }
        // A couple of cross links.
        let _ = b.add_edge(0, half as NodeId);
        let g = b.build();
        let f = FeatureMatrix::from_rows(
            (0..n)
                .map(|i| {
                    let c = if i < half { 1.0 } else { -1.0 };
                    (0..8).map(|d| c * (d as f32 + 1.0) * 0.1 + rng.gen::<f32>() * 0.05).collect()
                })
                .collect(),
        )
        .unwrap();
        let split = EdgeSplit::random(&g, SplitFractions::paper_default(), 3, &mut rng).unwrap();
        (g, f, split)
    }

    fn quick_config() -> TrainConfig {
        TrainConfig {
            layers: 2,
            hidden: 16,
            epochs: 5,
            batch_size: 64,
            learning_rate: 5e-3,
            fanouts: vec![Some(10), Some(5)],
            hits_k: 20,
            ..TrainConfig::default()
        }
    }

    #[test]
    fn centralized_training_learns_something() {
        let (g, f, split) = toy_dataset();
        let out = train_centralized(ModelKind::GraphSage, &g, &f, &split, &quick_config())
            .unwrap();
        assert_eq!(out.history.losses.len(), 5);
        // Loss must decrease from first to last epoch.
        assert!(
            out.history.losses.last().unwrap() < out.history.losses.first().unwrap(),
            "loss did not decrease: {:?}",
            out.history.losses
        );
        assert!(out.test_hits >= 0.0 && out.test_hits <= 1.0);
    }

    #[test]
    fn all_model_kinds_train_one_epoch() {
        let (g, f, split) = toy_dataset();
        let config = TrainConfig { epochs: 1, ..quick_config() };
        for kind in ModelKind::ALL {
            let out = train_centralized(kind, &g, &f, &split, &config)
                .unwrap_or_else(|e| panic!("{kind} failed: {e}"));
            assert!(out.history.losses[0].is_finite(), "{kind} loss not finite");
        }
    }

    #[test]
    fn model_kind_names() {
        assert_eq!(ModelKind::Gcn.name(), "GCN");
        assert_eq!(ModelKind::GatV2.to_string(), "GATv2");
    }

    #[test]
    fn config_sampler_checks_layer_count() {
        let config = TrainConfig { layers: 2, fanouts: vec![None, None], ..Default::default() };
        assert_eq!(config.sampler().num_layers(), 2);
    }

    #[test]
    #[should_panic(expected = "one fanout per layer")]
    fn config_sampler_mismatch_panics() {
        let config = TrainConfig { layers: 3, fanouts: vec![None], ..Default::default() };
        let _ = config.sampler();
    }

    #[test]
    fn evaluation_computes_each_node_once_per_layer() {
        let (g, f, split) = toy_dataset();
        let config = quick_config();
        let mut params = ParamSet::new();
        let mut init = StdRng::seed_from_u64(0);
        let model = config.build_model(ModelKind::GraphSage, f.dim(), &mut params, &mut init);
        let ga = FullGraphAccess::new(&g);
        let mut fa = FullFeatureAccess::new(&f);
        let (scores, stats) = score_edges_with_stats(
            &model,
            &params,
            &ga,
            &mut fa,
            &NeighborSampler::full(config.layers),
            &[&split.test, &split.test_neg, &split.valid],
            &mut StdRng::seed_from_u64(9),
            &mut Tape::new(),
            &mut SamplerScratch::new(),
        );
        let lens: Vec<usize> = scores.iter().map(Vec::len).collect();
        assert_eq!(lens, [split.test.len(), split.test_neg.len(), split.valid.len()]);
        let n = g.num_nodes();
        assert_eq!(stats.layer_rows.len(), config.layers);
        assert!(stats.layer_rows.iter().all(|&rows| rows <= n), "{stats:?}");
        assert!(stats.layer_rows.iter().sum::<usize>() <= config.layers * n, "{stats:?}");
        assert!(stats.feature_rows <= n, "{stats:?}");
    }

    #[test]
    fn empty_edge_sets_score_nothing_and_leave_the_rng() {
        let (g, f, _) = toy_dataset();
        let config = quick_config();
        let mut params = ParamSet::new();
        let mut init = StdRng::seed_from_u64(0);
        let model = config.build_model(ModelKind::Gcn, f.dim(), &mut params, &mut init);
        let mut rng = StdRng::seed_from_u64(9);
        let scores = score_edges(
            &model,
            &params,
            &FullGraphAccess::new(&g),
            &mut FullFeatureAccess::new(&f),
            &NeighborSampler::full(config.layers),
            &[&[], &[]],
            &mut rng,
            &mut Tape::new(),
            &mut SamplerScratch::new(),
        );
        assert_eq!(scores, [Vec::<f32>::new(), Vec::new()]);
        assert_eq!(rng.gen::<u64>(), StdRng::seed_from_u64(9).gen::<u64>());
    }
}
