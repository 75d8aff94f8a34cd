use splpg_rng::Rng;
use splpg_nn::{Binding, Mlp, ParamSet};
use splpg_tensor::{Tape, Tensor, Var};

use crate::models::{activate, GnnModel};
use crate::Block;

/// One GIN layer: a learnable-epsilon sum aggregator followed by an MLP.
#[derive(Debug, Clone)]
struct GinLayer {
    mlp: Mlp,
    epsilon: usize,
}

/// Graph isomorphism network (Xu et al., "How powerful are graph neural
/// networks?"), generalized to link prediction à la You et al.:
/// `h'_v = MLP( (1 + eps) h_v + sum_{u in N(v)} w_{uv} h_u )` with a
/// learnable `eps` per layer and a 2-layer MLP update.
///
/// GIN's sum aggregation is the most expressive of the standard
/// aggregators, which makes it a useful stress test for the sparsified
/// negative-sample pipeline (sums are sensitive to missing edges in a way
/// means are not).
#[derive(Debug, Clone)]
pub struct Gin {
    layers: Vec<GinLayer>,
    dropout: f32,
    out_dim: usize,
}

impl Gin {
    /// Registers a GIN with layer sizes `dims` in `params`.
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
        assert!(dims.len() >= 2, "gin needs input and output dims");
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| GinLayer {
                mlp: Mlp::new(params, &format!("gin.{i}.mlp"), &[w[0], w[1], w[1]], rng),
                epsilon: params.register(format!("gin.{i}.eps"), Tensor::zeros(1, 1)),
            })
            .collect();
        Gin { layers, dropout, out_dim: *dims.last().expect("non-empty dims") }
    }
}

impl GnnModel for Gin {
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
        let layer = &self.layers[i];
        // Weighted neighbor sum.
        let (src, dst) = (&block.edge_src, &block.edge_dst);
        let agg = tape.aggregate(h, src, dst, &block.edge_weight, block.num_dst);
        // (1 + eps) * h_self: broadcast the 1x1 epsilon to a
        // [num_dst, 1] factor column on the tape.
        let h_self = tape.row_prefix(h, block.num_dst);
        let eps = binding.var(layer.epsilon);
        let eps_col = tape.gather_rows_with(eps, block.num_dst, |i| i.resize(block.num_dst, 0));
        let eps_term = tape.mul_col_broadcast(h_self, eps_col);
        let self_plus = tape.add(h_self, eps_term); // (1 + eps) h_v
        let combined = tape.add(self_plus, agg);
        let out = layer.mlp.forward(tape, binding, combined);
        activate(tape, out, i, self.layers.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::test_support::path_batch;
    use splpg_rng::SeedableRng;

    fn rng() -> splpg_rng::rngs::StdRng {
        splpg_rng::rngs::StdRng::seed_from_u64(31)
    }

    #[test]
    fn forward_shapes() {
        let mut params = ParamSet::new();
        let gin = Gin::new(&mut params, &[4, 8, 3], 0.0, &mut rng());
        assert_eq!(gin.num_layers(), 2);
        assert_eq!(gin.output_dim(), 3);
        let batch = path_batch();
        let mut tape = Tape::new();
        let binding = params.bind(&mut tape);
        let x = tape.leaf(Tensor::ones(3, 4));
        let out = gin.forward(&mut tape, &binding, x, &batch.blocks, None);
        assert_eq!(tape.value(out).shape(), (1, 3));
    }

    #[test]
    fn sum_aggregation_with_zero_eps() {
        // One dst with two unit-weight neighbors and zero eps: the MLP sees
        // h_v + h_u1 + h_u2 exactly.
        let block = Block {
            src_ids: vec![0, 1, 2],
            num_dst: 1,
            edge_src: vec![1, 2],
            edge_dst: vec![0, 0],
            edge_weight: vec![1.0, 1.0],
            src_degree: vec![2.0, 1.0, 1.0],
        };
        let mut params = ParamSet::new();
        let gin = Gin::new(&mut params, &[1, 1], 0.0, &mut rng());
        // Make the MLP the identity-ish: set first linear to [1], bias 0,
        // second linear [1], bias 0 (mlp dims are [1, 1, 1]).
        for idx in 0..params.len() {
            let name = params.name(idx).to_string();
            let t = params.value_mut(idx);
            if name.contains("weight") {
                for v in t.data_mut() {
                    *v = 1.0;
                }
            } else if name.contains("bias") {
                for v in t.data_mut() {
                    *v = 0.0;
                }
            }
        }
        let mut tape = Tape::new();
        let binding = params.bind(&mut tape);
        let x = tape.leaf(Tensor::from_vec(3, 1, vec![5.0, 2.0, 3.0]).unwrap());
        let out = gin.forward(&mut tape, &binding, x, &[block], None);
        // relu((5 + 2 + 3) * 1) * 1 = 10 through the 2-layer identity MLP.
        assert!((tape.value(out).get(0, 0) - 10.0).abs() < 1e-5);
    }

    #[test]
    fn epsilon_receives_gradient() {
        let mut params = ParamSet::new();
        let gin = Gin::new(&mut params, &[4, 4], 0.0, &mut rng());
        let batch = path_batch();
        let mut tape = Tape::new();
        let binding = params.bind(&mut tape);
        let x = tape.leaf(Tensor::from_fn(3, 4, |r, c| (r + c) as f32 * 0.2));
        let out = gin.forward(&mut tape, &binding, x, &batch.blocks[..1], None);
        let loss = tape.sum_all(out);
        let mut grads = tape.backward(loss);
        let gs = binding.collect_grads(&params, &mut grads);
        // The epsilon parameter is the last registered one for layer 0.
        let eps_idx = (0..params.len())
            .find(|&i| params.name(i) == "gin.0.eps")
            .expect("eps registered");
        assert!(gs[eps_idx].norm_sq() > 0.0, "epsilon got no gradient");
    }
}
