use splpg_rng::{Rng, RngCore};
use splpg_nn::{Binding, Linear, ParamSet};
use splpg_tensor::{Tape, Var};

use crate::models::GnnModel;
use crate::Block;

/// GraphSAGE (Hamilton et al.) with the mean aggregator.
///
/// Layer update: `h'_v = ReLU( W · [h_v || mean_{u in N(v)} w_{uv} h_u] +
/// b )`. The mean is weight-normalized so sparsified subgraphs (whose edges
/// carry Spielman–Srivastava weights) aggregate consistently. Zero-degree
/// destinations aggregate a zero vector.
///
/// The paper's representative model: 3 layers, hidden 256, fanouts 25/10/5.
#[derive(Debug, Clone)]
pub struct GraphSage {
    layers: Vec<Linear>,
    dropout: f32,
    out_dim: usize,
}

impl GraphSage {
    /// Registers a GraphSAGE model with layer sizes `dims` in `params`.
    /// Each layer's linear transform takes the concatenated
    /// `[self || neighbor-mean]` (twice the input width).
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given.
    pub fn new<R: Rng + ?Sized>(
        params: &mut ParamSet,
        dims: &[usize],
        dropout: f32,
        rng: &mut R,
    ) -> Self {
        assert!(dims.len() >= 2, "graphsage needs input and output dims");
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(params, &format!("sage.{i}"), 2 * w[0], w[1], rng))
            .collect();
        GraphSage { layers, dropout, out_dim: *dims.last().expect("non-empty dims") }
    }

    /// Weighted neighbor mean for one block.
    fn aggregate(tape: &mut Tape, h_src: Var, block: &Block) -> Var {
        let (src, dst, weight) = (&block.edge_src, &block.edge_dst, &block.edge_weight);
        let summed = tape.aggregate(h_src, src, dst, weight, block.num_dst);
        // Normalize by each destination's received weight.
        tape.scale_rows_with(summed, |inv| {
            inv.resize(block.num_dst, 0.0);
            for (&d, &w) in dst.iter().zip(weight) {
                inv[d as usize] += w;
            }
            for s in inv.iter_mut() {
                *s = if *s > 0.0 { 1.0 / *s } else { 0.0 };
            }
        })
    }
}

impl GnnModel for GraphSage {
    fn num_layers(&self) -> usize {
        self.layers.len()
    }

    fn output_dim(&self) -> usize {
        self.out_dim
    }

    fn forward(
        &self,
        tape: &mut Tape,
        binding: &Binding,
        input: Var,
        blocks: &[Block],
        mut dropout_rng: Option<&mut dyn RngCore>,
    ) -> Var {
        assert_eq!(blocks.len(), self.layers.len(), "one block per layer");
        let mut h = input;
        for (i, (layer, block)) in self.layers.iter().zip(blocks).enumerate() {
            if let Some(rng) = dropout_rng.as_deref_mut() {
                if self.dropout > 0.0 {
                    h = tape.dropout(h, self.dropout, rng);
                }
            }
            let h_neigh = Self::aggregate(tape, h, block);
            let h_self = tape.row_prefix(h, block.num_dst);
            let cat = tape.concat_cols(h_self, h_neigh);
            h = layer.forward(tape, binding, cat);
            if i + 1 < self.layers.len() {
                h = tape.relu(h);
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::test_support::path_batch;
    use splpg_rng::SeedableRng;
    use splpg_tensor::Tensor;

    fn rng() -> splpg_rng::rngs::StdRng {
        splpg_rng::rngs::StdRng::seed_from_u64(1)
    }

    #[test]
    fn forward_shapes() {
        let mut params = ParamSet::new();
        let sage = GraphSage::new(&mut params, &[4, 8, 3], 0.0, &mut rng());
        let batch = path_batch();
        let mut tape = Tape::new();
        let binding = params.bind(&mut tape);
        let x = tape.leaf(Tensor::ones(3, 4));
        let out = sage.forward(&mut tape, &binding, x, &batch.blocks, None);
        assert_eq!(tape.value(out).shape(), (1, 3));
    }

    #[test]
    fn mean_aggregation_exact_on_known_block() {
        // One dst (index 0) with two neighbors carrying features [2] and
        // [4]: the weighted mean with unit weights is [3].
        let block = Block {
            src_ids: vec![0, 1, 2],
            num_dst: 1,
            edge_src: vec![1, 2],
            edge_dst: vec![0, 0],
            edge_weight: vec![1.0, 1.0],
            src_degree: vec![2.0, 1.0, 1.0],
        };
        let mut tape = Tape::new();
        let h = tape.leaf(Tensor::from_vec(3, 1, vec![10.0, 2.0, 4.0]).unwrap());
        let agg = GraphSage::aggregate(&mut tape, h, &block);
        assert_eq!(tape.value(agg).data(), &[3.0]);
    }

    #[test]
    fn weighted_mean_respects_edge_weights() {
        let block = Block {
            src_ids: vec![0, 1, 2],
            num_dst: 1,
            edge_src: vec![1, 2],
            edge_dst: vec![0, 0],
            edge_weight: vec![3.0, 1.0],
            src_degree: vec![2.0, 1.0, 1.0],
        };
        let mut tape = Tape::new();
        let h = tape.leaf(Tensor::from_vec(3, 1, vec![0.0, 2.0, 6.0]).unwrap());
        let agg = GraphSage::aggregate(&mut tape, h, &block);
        // (3*2 + 1*6) / 4 = 3
        assert_eq!(tape.value(agg).data(), &[3.0]);
    }

    #[test]
    fn isolated_destination_gets_zero_neighborhood() {
        let block = Block {
            src_ids: vec![5],
            num_dst: 1,
            edge_src: vec![],
            edge_dst: vec![],
            edge_weight: vec![],
            src_degree: vec![0.0],
        };
        let mut params = ParamSet::new();
        let sage = GraphSage::new(&mut params, &[2, 2], 0.0, &mut rng());
        let mut tape = Tape::new();
        let binding = params.bind(&mut tape);
        let x = tape.leaf(Tensor::from_vec(1, 2, vec![1.0, -1.0]).unwrap());
        let out = sage.forward(&mut tape, &binding, x, &[block], None);
        // Must not be NaN (no division by zero).
        assert!(tape.value(out).data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn gradients_flow_through_two_layers() {
        let mut params = ParamSet::new();
        let sage = GraphSage::new(&mut params, &[4, 6, 2], 0.0, &mut rng());
        let batch = path_batch();
        let mut tape = Tape::new();
        let binding = params.bind(&mut tape);
        let x = tape.leaf(Tensor::from_fn(3, 4, |r, c| (r * 4 + c) as f32 * 0.1));
        let out = sage.forward(&mut tape, &binding, x, &batch.blocks, None);
        let loss = tape.mean_all(out);
        let mut grads = tape.backward(loss);
        let gs = binding.collect_grads(&params, &mut grads);
        assert!(gs[0].norm_sq() > 0.0);
    }
}
