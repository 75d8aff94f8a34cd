use splpg_rng::{Rng, RngCore};
use splpg_graph::{Edge, NodeId};
use splpg_nn::{Binding, Mlp, ParamSet};
use splpg_tensor::{Tape, Var};

use crate::{GnnModel, MiniBatch};

/// Edge-score head combining two endpoint embeddings (Eq. (2)).
#[derive(Debug, Clone)]
pub enum EdgePredictor {
    /// Dot product of the two embeddings.
    Dot,
    /// MLP over the concatenated pair (the paper uses a 3-layer MLP).
    Mlp(Mlp),
}

impl EdgePredictor {
    /// Registers the paper's 3-layer MLP predictor
    /// (`2 emb -> hidden -> hidden -> 1`).
    pub(crate) fn paper_mlp<R: Rng + ?Sized>(
        params: &mut ParamSet,
        emb_dim: usize,
        hidden: usize,
        rng: &mut R,
    ) -> Self {
        EdgePredictor::Mlp(Mlp::new(params, "edge_mlp", &[2 * emb_dim, hidden, hidden, 1], rng))
    }

    /// Scores endpoint embedding pairs, returning `[num_pairs, 1]` logits.
    pub(crate) fn score(&self, tape: &mut Tape, binding: &Binding, h_u: Var, h_v: Var) -> Var {
        match self {
            EdgePredictor::Dot => {
                let prod = tape.mul(h_u, h_v);
                tape.row_sum(prod)
            }
            EdgePredictor::Mlp(mlp) => mlp.forward_concat(tape, binding, (h_u, h_v)),
        }
    }
}

/// A complete link-prediction model: GNN encoder + edge predictor.
///
/// # Examples
///
/// ```
/// use splpg_rng::SeedableRng;
/// use splpg_gnn::trainer::{ModelKind, TrainConfig};
/// use splpg_nn::ParamSet;
///
/// let mut rng = splpg_rng::rngs::StdRng::seed_from_u64(0);
/// let mut params = ParamSet::new();
/// let config = TrainConfig { layers: 2, hidden: 32, ..TrainConfig::default() };
/// let model = config.build_model(ModelKind::GraphSage, 16, &mut params, &mut rng);
/// assert!(format!("{model:?}").contains("layers: 2"));
/// ```
pub struct LinkPredictor {
    gnn: Box<dyn GnnModel + Send + Sync>,
    predictor: EdgePredictor,
}

impl std::fmt::Debug for LinkPredictor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LinkPredictor")
            .field("layers", &self.gnn.num_layers())
            .field("output_dim", &self.gnn.output_dim())
            .finish()
    }
}

impl LinkPredictor {
    /// Combines an encoder and a predictor head.
    pub(crate) fn new(gnn: Box<dyn GnnModel + Send + Sync>, predictor: EdgePredictor) -> Self {
        LinkPredictor { gnn, predictor }
    }

    /// The GNN encoder.
    pub(crate) fn gnn(&self) -> &(dyn GnnModel + Send + Sync) {
        self.gnn.as_ref()
    }

    /// The predictor head.
    pub(crate) fn predictor(&self) -> &EdgePredictor {
        &self.predictor
    }

    /// Scores `pairs` (indices into `batch.seeds`) given the input features
    /// of `batch.input_nodes()`. Returns `[pairs.len(), 1]` logits.
    pub fn score_pairs(
        &self,
        tape: &mut Tape,
        binding: &Binding,
        input: Var,
        batch: &MiniBatch,
        pairs: &[(u32, u32)],
        dropout_rng: Option<&mut dyn RngCore>,
    ) -> Var {
        let emb = self.gnn.forward(tape, binding, input, &batch.blocks, dropout_rng);
        let h_u =
            tape.gather_rows_with(emb, pairs.len(), |us| us.extend(pairs.iter().map(|&(u, _)| u)));
        let h_v =
            tape.gather_rows_with(emb, pairs.len(), |vs| vs.extend(pairs.iter().map(|&(_, v)| v)));
        self.predictor.score(tape, binding, h_u, h_v)
    }
}

/// Flattens positive and negative edge lists into the seed/pair/label form
/// consumed by [`LinkPredictor::score_pairs`]: unique endpoint seeds, pair
/// indices into them, and labels (1 for positives then 0 for negatives).
pub fn edges_to_pairs(
    positives: &[Edge],
    negatives: &[Edge],
) -> (Vec<NodeId>, Vec<(u32, u32)>, Vec<f32>) {
    let mut seeds: Vec<NodeId> = Vec::new();
    let mut index: std::collections::BTreeMap<NodeId, u32> = std::collections::BTreeMap::new();
    let mut intern = |v: NodeId, seeds: &mut Vec<NodeId>| -> u32 {
        *index.entry(v).or_insert_with(|| {
            seeds.push(v);
            (seeds.len() - 1) as u32
        })
    };
    let mut pairs = Vec::with_capacity(positives.len() + negatives.len());
    let mut labels = Vec::with_capacity(pairs.capacity());
    for e in positives {
        let u = intern(e.src, &mut seeds);
        let v = intern(e.dst, &mut seeds);
        pairs.push((u, v));
        labels.push(1.0);
    }
    for e in negatives {
        let u = intern(e.src, &mut seeds);
        let v = intern(e.dst, &mut seeds);
        pairs.push((u, v));
        labels.push(0.0);
    }
    (seeds, pairs, labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::test_support::path_batch;
    use crate::Gcn;
    use splpg_rng::SeedableRng;
    use splpg_tensor::Tensor;

    fn rng() -> splpg_rng::rngs::StdRng {
        splpg_rng::rngs::StdRng::seed_from_u64(4)
    }

    #[test]
    fn dot_predictor_is_inner_product() {
        let mut tape = Tape::new();
        let hu = tape.leaf(Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 0.0, 1.0, 0.0]).unwrap());
        let hv = tape.leaf(Tensor::from_vec(2, 3, vec![4.0, 5.0, 6.0, 1.0, 1.0, 1.0]).unwrap());
        let binding = ParamSet::new().bind(&mut tape);
        let s = EdgePredictor::Dot.score(&mut tape, &binding, hu, hv);
        assert_eq!(tape.value(s).data(), &[32.0, 1.0]);
    }

    #[test]
    fn mlp_predictor_output_shape() {
        let mut params = ParamSet::new();
        let pred = EdgePredictor::paper_mlp(&mut params, 4, 8, &mut rng());
        let mut tape = Tape::new();
        let binding = params.bind(&mut tape);
        let hu = tape.leaf(Tensor::ones(5, 4));
        let hv = tape.leaf(Tensor::ones(5, 4));
        let s = pred.score(&mut tape, &binding, hu, hv);
        assert_eq!(tape.value(s).shape(), (5, 1));
    }

    #[test]
    fn edges_to_pairs_interns_endpoints() {
        let pos = vec![Edge::new(3, 7)];
        let neg = vec![Edge::new(3, 9), Edge::new(7, 9)];
        let (seeds, pairs, labels) = edges_to_pairs(&pos, &neg);
        assert_eq!(seeds, vec![3, 7, 9]);
        assert_eq!(pairs, vec![(0, 1), (0, 2), (1, 2)]);
        assert_eq!(labels, vec![1.0, 0.0, 0.0]);
    }

    #[test]
    fn score_pairs_end_to_end() {
        let mut params = ParamSet::new();
        let gnn = Gcn::new(&mut params, &[4, 8, 8], 0.0, &mut rng());
        let pred = EdgePredictor::paper_mlp(&mut params, 8, 8, &mut rng());
        let model = LinkPredictor::new(Box::new(gnn), pred);
        let batch = path_batch();
        let mut tape = Tape::new();
        let binding = params.bind(&mut tape);
        let x = tape.leaf(Tensor::ones(3, 4));
        // Only one seed (node 0): score the self-pair.
        let s = model.score_pairs(&mut tape, &binding, x, &batch, &[(0, 0)], None);
        assert_eq!(tape.value(s).shape(), (1, 1));
        assert!(tape.value(s).get(0, 0).is_finite());
    }

    #[test]
    fn link_predictor_debug_nonempty() {
        let mut params = ParamSet::new();
        let gnn = Gcn::new(&mut params, &[4, 2], 0.0, &mut rng());
        let model = LinkPredictor::new(Box::new(gnn), EdgePredictor::Dot);
        assert!(!format!("{model:?}").is_empty());
    }
}
