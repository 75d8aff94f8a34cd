use splpg_rng::Rng;
use splpg_tensor::{Tape, Tensor, Var};

use crate::{glorot_uniform, Binding, ParamSet};

/// A dense affine layer `y = x W + b`.
///
/// The layer stores parameter *indices* into a [`ParamSet`]; each forward
/// pass looks them up through the per-batch [`Binding`], so the same layer
/// definition works across tapes and across worker-local model replicas.
#[derive(Debug, Clone, Copy)]
pub struct Linear {
    weight: usize,
    bias: usize,
}

impl Linear {
    /// Registers a Glorot-initialized `in_dim x out_dim` layer in `params`.
    pub fn new<R: Rng + ?Sized>(
        params: &mut ParamSet,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut R,
    ) -> Self {
        let weight = params.register(format!("{name}.weight"), glorot_uniform(in_dim, out_dim, rng));
        let bias = params.register(format!("{name}.bias"), Tensor::zeros(1, out_dim));
        Linear { weight, bias }
    }

    /// Parameter index of the weight matrix.
    #[cfg(test)]
    fn weight_index(&self) -> usize {
        self.weight
    }

    /// Applies the layer on the tape ([`Tape::linear`]).
    pub fn forward(&self, tape: &mut Tape, binding: &Binding, x: Var) -> Var {
        tape.linear(x, binding.var(self.weight), binding.var(self.bias))
    }

    /// Applies the layer to the pair `(a, b)`: `[a[..n] ‖ b] W + bias`
    /// with `n = rows(b)`, without building the concatenation (see
    /// [`Tape::concat_linear`]). `in_dim` must be `cols(a) + cols(b)`.
    pub fn forward_concat(&self, tape: &mut Tape, binding: &Binding, (a, b): (Var, Var)) -> Var {
        tape.concat_linear(a, b, binding.var(self.weight), binding.var(self.bias))
    }
}

/// A multi-layer perceptron with ReLU activations between layers (none
/// after the last).
///
/// The paper's edge predictor is a 3-layer MLP over concatenated pairwise
/// node embeddings.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
}

impl Mlp {
    /// Registers an MLP with the given layer sizes, e.g. `[512, 256, 1]`
    /// for input 512. `dims` must list input plus every output size (at
    /// least 2 entries).
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given.
    pub fn new<R: Rng + ?Sized>(
        params: &mut ParamSet,
        name: &str,
        dims: &[usize],
        rng: &mut R,
    ) -> Self {
        assert!(dims.len() >= 2, "mlp needs input and output dims");
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(params, &format!("{name}.{i}"), w[0], w[1], rng))
            .collect();
        Mlp { layers }
    }

    /// Applies the MLP on the tape.
    pub fn forward(&self, tape: &mut Tape, binding: &Binding, x: Var) -> Var {
        let h = self.layers[0].forward(tape, binding, x);
        self.hidden_layers(tape, binding, h)
    }

    /// Applies the MLP to the pair `(a, b)`: its first layer reads
    /// `[a[..rows(b)] ‖ b]` in place ([`Linear::forward_concat`]).
    pub fn forward_concat(&self, tape: &mut Tape, binding: &Binding, pair: (Var, Var)) -> Var {
        let h = self.layers[0].forward_concat(tape, binding, pair);
        self.hidden_layers(tape, binding, h)
    }

    /// ReLU, then the next layer, for every layer after the first.
    fn hidden_layers(&self, tape: &mut Tape, binding: &Binding, mut h: Var) -> Var {
        for layer in &self.layers[1..] {
            h = tape.relu(h);
            h = layer.forward(tape, binding, h);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splpg_rng::SeedableRng;
    use splpg_tensor::grad_check;

    fn rng() -> splpg_rng::rngs::StdRng {
        splpg_rng::rngs::StdRng::seed_from_u64(0)
    }

    #[test]
    fn linear_shapes() {
        let mut params = ParamSet::new();
        let l = Linear::new(&mut params, "l", 4, 3, &mut rng());
        let mut tape = Tape::new();
        let b = params.bind(&mut tape);
        let x = tape.leaf(Tensor::ones(5, 4));
        let y = l.forward(&mut tape, &b, x);
        assert_eq!(tape.value(y).shape(), (5, 3));
    }

    #[test]
    fn linear_zero_bias_initial_output_is_xw() {
        let mut params = ParamSet::new();
        let l = Linear::new(&mut params, "l", 2, 2, &mut rng());
        let mut tape = Tape::new();
        let b = params.bind(&mut tape);
        let x = tape.leaf(Tensor::eye(2));
        let y = l.forward(&mut tape, &b, x);
        // x = I so output == W.
        assert_eq!(tape.value(y).data(), params.value(l.weight_index()).data());
    }

    #[test]
    fn mlp_hidden_relu_but_linear_output() {
        // Output layer must not clamp negatives: feed inputs engineered to
        // produce a negative logit sometimes over several random inits.
        let mut saw_negative = false;
        for seed in 0..20 {
            let mut params = ParamSet::new();
            let mlp = Mlp::new(
                &mut params,
                "m",
                &[3, 4, 1],
                &mut splpg_rng::rngs::StdRng::seed_from_u64(seed),
            );
            let mut tape = Tape::new();
            let b = params.bind(&mut tape);
            let x = tape.leaf(Tensor::ones(1, 3));
            let y = mlp.forward(&mut tape, &b, x);
            if tape.value(y).get(0, 0) < 0.0 {
                saw_negative = true;
            }
        }
        assert!(saw_negative, "mlp output appears to be clamped non-negative");
    }

    #[test]
    fn mlp_gradients_flow_to_all_layers() {
        let mut params = ParamSet::new();
        let mlp = Mlp::new(&mut params, "m", &[2, 3, 1], &mut rng());
        let mut tape = Tape::new();
        let b = params.bind(&mut tape);
        let x = tape.leaf(Tensor::ones(4, 2));
        let y = mlp.forward(&mut tape, &b, x);
        let loss = tape.sum_all(y);
        let mut grads = tape.backward(loss);
        let gs = b.collect_grads(&params, &mut grads);
        // At least the last layer weight must receive nonzero gradient.
        assert!(gs.last().unwrap().norm_sq() >= 0.0);
        assert_eq!(gs.len(), params.len());
    }

    #[test]
    #[should_panic(expected = "mlp needs input and output dims")]
    fn mlp_requires_two_dims() {
        let mut params = ParamSet::new();
        let _ = Mlp::new(&mut params, "m", &[3], &mut rng());
    }

    #[test]
    fn linear_weight_gradcheck_through_layer() {
        let mut params = ParamSet::new();
        let l = Linear::new(&mut params, "l", 3, 2, &mut rng());
        let w0 = params.value(l.weight_index()).clone();
        let report = grad_check(&w0, 1e-3, |tape, wv| {
            // Rebuild the layer manually with wv as the weight leaf.
            let x = tape.leaf(Tensor::from_fn(4, 3, |r, c| (r + c) as f32 * 0.1));
            let b = tape.leaf(Tensor::zeros(1, 2));
            let xw = tape.matmul(x, wv);
            let y = tape.add_bias(xw, b);
            let a = tape.relu(y);
            tape.sum_all(a)
        });
        assert!(report.passes(2e-2), "{report:?}");
    }
}
