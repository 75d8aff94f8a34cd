use splpg_rng::Rng;
use splpg_nn::{Binding, Linear, ParamSet};
use splpg_tensor::{Tape, Var};

use crate::models::{activate, with_self_loops, GnnModel};
use crate::Block;

/// Graph convolutional network (Kipf & Welling) with symmetric
/// normalization and self-loops.
///
/// Layer update: `H' = ReLU( Â H W + b )` with
/// `Â_{ij} = w_{ij} / sqrt((d_i + 1)(d_j + 1))` — degrees come from the
/// full graph (recorded per block by the sampler), matching DGL's
/// `GraphConv(norm='both')` on self-loop-augmented graphs. Edge weights
/// `w_{ij}` honour sparsified subgraphs.
///
/// The paper trains a 3-layer GCN with hidden size 256 and full
/// neighborhoods.
#[derive(Debug, Clone)]
pub struct Gcn {
    layers: Vec<Linear>,
    dropout: f32,
    out_dim: usize,
}

impl Gcn {
    /// Registers a GCN with layer sizes `dims` (input + one entry per
    /// layer output) in `params`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given.
    pub(crate) fn new<R: Rng + ?Sized>(
        params: &mut ParamSet,
        dims: &[usize],
        dropout: f32,
        rng: &mut R,
    ) -> Self {
        assert!(dims.len() >= 2, "gcn needs input and output dims");
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(params, &format!("gcn.{i}"), w[0], w[1], rng))
            .collect();
        Gcn { layers, dropout, out_dim: *dims.last().expect("non-empty dims") }
    }

    fn propagate(tape: &mut Tape, h_src: Var, block: &Block) -> Var {
        // Symmetric normalization with self-loop-adjusted degrees.
        let deg = |i: u32| block.src_degree[i as usize] + 1.0;
        let edges = block.num_edges() + block.num_dst;
        tape.aggregate_with(h_src, edges, block.num_dst, |src, dst, norm| {
            with_self_loops(block, src, dst, norm);
            for ((w, &s), &d) in norm.iter_mut().zip(src.iter()).zip(dst.iter()) {
                *w /= (deg(s) * deg(d)).sqrt();
            }
        })
    }
}

impl GnnModel for Gcn {
    fn num_layers(&self) -> usize {
        self.layers.len()
    }

    fn output_dim(&self) -> usize {
        self.out_dim
    }

    fn dropout(&self) -> f32 {
        self.dropout
    }

    fn layer(&self, i: usize, tape: &mut Tape, binding: &Binding, h: Var, block: &Block) -> Var {
        let agg = Self::propagate(tape, h, block);
        let out = self.layers[i].forward(tape, binding, agg);
        activate(tape, out, i, self.layers.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::test_support::path_batch;
    use splpg_rng::{RngCore, SeedableRng};
    use splpg_tensor::Tensor;

    fn rng() -> splpg_rng::rngs::StdRng {
        splpg_rng::rngs::StdRng::seed_from_u64(0)
    }

    #[test]
    fn forward_shapes() {
        let mut params = ParamSet::new();
        let gcn = Gcn::new(&mut params, &[4, 8, 3], 0.0, &mut rng());
        assert_eq!(gcn.num_layers(), 2);
        assert_eq!(gcn.output_dim(), 3);
        let batch = path_batch();
        let mut tape = Tape::new();
        let binding = params.bind(&mut tape);
        let x = tape.leaf(Tensor::ones(3, 4));
        let out = gcn.forward(&mut tape, &binding, x, &batch.blocks, None);
        assert_eq!(tape.value(out).shape(), (1, 3));
    }

    #[test]
    fn identical_inputs_give_identical_embeddings() {
        // Symmetric star: both leaves of a 2-leaf star get equal embeddings.
        let block = Block {
            src_ids: vec![1, 2, 0],
            num_dst: 2,
            edge_src: vec![2, 2],
            edge_dst: vec![0, 1],
            edge_weight: vec![1.0, 1.0],
            src_degree: vec![1.0, 1.0, 2.0],
        };
        let mut params = ParamSet::new();
        let gcn = Gcn::new(&mut params, &[2, 2], 0.0, &mut rng());
        let mut tape = Tape::new();
        let binding = params.bind(&mut tape);
        let x = tape.leaf(Tensor::from_vec(3, 2, vec![1.0, 2.0, 1.0, 2.0, 5.0, -1.0]).unwrap());
        let out = gcn.forward(&mut tape, &binding, x, &[block], None);
        let v = tape.value(out);
        assert_eq!(v.row(0), v.row(1));
    }

    #[test]
    fn gradients_reach_all_layers() {
        let mut params = ParamSet::new();
        // Seed chosen so the ReLU path stays live through both hops.
        let mut r = splpg_rng::rngs::StdRng::seed_from_u64(1);
        let gcn = Gcn::new(&mut params, &[4, 6, 2], 0.0, &mut r);
        let batch = path_batch();
        let mut tape = Tape::new();
        let binding = params.bind(&mut tape);
        let x = tape.leaf(Tensor::from_fn(3, 4, |r, c| (r + c) as f32 * 0.3 - 0.5));
        let out = gcn.forward(&mut tape, &binding, x, &batch.blocks, None);
        let loss = tape.sum_all(out);
        let mut grads = tape.backward(loss);
        let gs = binding.collect_grads(&params, &mut grads);
        // First layer's weight must receive signal through two hops.
        assert!(gs[0].norm_sq() > 0.0, "no gradient to first layer");
    }

    #[test]
    fn dropout_only_in_training_mode() {
        let mut params = ParamSet::new();
        let gcn = Gcn::new(&mut params, &[4, 2], 0.9, &mut rng());
        let batch = path_batch();
        let run = |train: bool| {
            let mut tape = Tape::new();
            let binding = params.bind(&mut tape);
            let x = tape.leaf(Tensor::ones(3, 4));
            let mut r = rng();
            let d: Option<&mut dyn RngCore> = if train { Some(&mut r) } else { None };
            let out = gcn.forward(&mut tape, &binding, x, &batch.blocks[..1], d);
            tape.value(out).clone()
        };
        // Eval mode is deterministic.
        assert_eq!(run(false), run(false));
    }

    #[test]
    #[should_panic(expected = "one block per layer")]
    fn wrong_block_count_panics() {
        let mut params = ParamSet::new();
        let gcn = Gcn::new(&mut params, &[4, 4, 4], 0.0, &mut rng());
        let batch = path_batch();
        let mut tape = Tape::new();
        let binding = params.bind(&mut tape);
        let x = tape.leaf(Tensor::ones(3, 4));
        let _ = gcn.forward(&mut tape, &binding, x, &batch.blocks[..1], None);
    }
}
