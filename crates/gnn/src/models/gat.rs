use splpg_rng::{Rng, RngCore};
use splpg_nn::{glorot_uniform, Binding, ParamSet};
use splpg_tensor::{Tape, Var};

use crate::models::{with_self_loops, GnnModel};
use crate::Block;

/// One GAT layer's parameters (single attention head).
#[derive(Debug, Clone, Copy)]
struct GatLayer {
    weight: usize,
    attn_left: usize,
    attn_right: usize,
    bias: usize,
}

/// Graph attention network (Veličković et al.) with optional multi-head
/// attention.
///
/// Per-head attention logits: `e_ij = LeakyReLU( a_l · (W h_i) + a_r ·
/// (W h_j) )`, softmax-normalized over each destination's in-edges
/// (self-loops included); head outputs are concatenated (each head
/// producing `out_dim / heads` features, the standard GAT arrangement).
/// Edge weights of sparsified graphs are folded into the unnormalized
/// attention as an additive `ln w` bias, which reduces to
/// weight-proportional attention mass.
#[derive(Debug, Clone)]
pub struct Gat {
    /// Per layer, one parameter set per head.
    layers: Vec<Vec<GatLayer>>,
    dropout: f32,
    out_dim: usize,
    negative_slope: f32,
}

impl Gat {
    /// Registers a single-head GAT with layer sizes `dims` in `params`.
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
        Self::with_heads(params, dims, 1, dropout, rng)
    }

    /// Registers a multi-head GAT: every layer runs `heads` attention
    /// heads of width `dims[k + 1] / heads` and concatenates them.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given, `heads == 0`, or any
    /// output width is not divisible by `heads`.
    pub fn with_heads<R: Rng + ?Sized>(
        params: &mut ParamSet,
        dims: &[usize],
        heads: usize,
        dropout: f32,
        rng: &mut R,
    ) -> Self {
        assert!(dims.len() >= 2, "gat needs input and output dims");
        assert!(heads > 0, "gat needs at least one head");
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                assert!(
                    w[1] % heads == 0,
                    "layer {i} output width {} not divisible by {heads} heads",
                    w[1]
                );
                let head_dim = w[1] / heads;
                (0..heads)
                    .map(|h| GatLayer {
                        weight: params.register(
                            format!("gat.{i}.h{h}.weight"),
                            glorot_uniform(w[0], head_dim, rng),
                        ),
                        attn_left: params.register(
                            format!("gat.{i}.h{h}.attn_l"),
                            glorot_uniform(head_dim, 1, rng),
                        ),
                        attn_right: params.register(
                            format!("gat.{i}.h{h}.attn_r"),
                            glorot_uniform(head_dim, 1, rng),
                        ),
                        bias: params.register(
                            format!("gat.{i}.h{h}.bias"),
                            splpg_tensor::Tensor::zeros(1, head_dim),
                        ),
                    })
                    .collect()
            })
            .collect();
        Gat { layers, dropout, out_dim: *dims.last().expect("non-empty dims"), negative_slope: 0.2 }
    }

    /// Heads per layer.
    pub fn heads(&self) -> usize {
        self.layers.first().map_or(1, Vec::len)
    }

    /// Runs one attention head over a block, returning `[num_dst, head_dim]`.
    #[allow(clippy::too_many_arguments)]
    fn head_forward(
        tape: &mut Tape,
        binding: &Binding,
        layer: &GatLayer,
        h: Var,
        e_src: &[u32],
        e_dst: &[u32],
        ln_weight_bias: Option<Var>,
        num_dst: usize,
        negative_slope: f32,
    ) -> Var {
        let z = tape.matmul(h, binding.var(layer.weight));
        let al = tape.matmul(z, binding.var(layer.attn_left)); // [src, 1]
        let ar = tape.matmul(z, binding.var(layer.attn_right));
        // e_ij = LeakyReLU(a_l . z_i + a_r . z_j), i = dst, j = src.
        let term_dst = tape.gather_rows(al, e_dst);
        let term_src = tape.gather_rows(ar, e_src);
        let logits_raw = tape.add(term_dst, term_src);
        let mut logits = tape.leaky_relu(logits_raw, negative_slope);
        if let Some(bias) = ln_weight_bias {
            logits = tape.add(logits, bias);
        }
        let alpha = tape.segment_softmax(logits, e_dst, num_dst);
        let msgs = tape.gather_rows(z, e_src);
        let weighted = tape.mul_col_broadcast(msgs, alpha);
        let agg = tape.segment_sum(weighted, e_dst, num_dst);
        tape.add_bias(agg, binding.var(layer.bias))
    }
}

impl GnnModel for Gat {
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
        for (i, (heads, block)) in self.layers.iter().zip(blocks).enumerate() {
            if let Some(rng) = dropout_rng.as_deref_mut() {
                if self.dropout > 0.0 {
                    h = tape.dropout(h, self.dropout, rng);
                }
            }
            let (mut e_src, mut e_dst, mut e_w) = (Vec::new(), Vec::new(), Vec::new());
            with_self_loops(block, &mut e_src, &mut e_dst, &mut e_w);
            // Sparsifier edge weights bias the attention mass: e += ln w.
            let ln_weight_bias = if e_w.iter().any(|&w| w != 1.0) {
                let lnw: Vec<f32> = e_w.iter().map(|&w| w.max(1e-12).ln()).collect();
                Some(tape.leaf(
                    splpg_tensor::Tensor::from_vec(lnw.len(), 1, lnw).expect("column shape"),
                ))
            } else {
                None
            };
            let mut head_outputs = heads.iter().map(|layer| {
                Self::head_forward(
                    tape,
                    binding,
                    layer,
                    h,
                    &e_src,
                    &e_dst,
                    ln_weight_bias,
                    block.num_dst,
                    self.negative_slope,
                )
            });
            let first = head_outputs.next().expect("at least one head");
            let mut heads_remaining: Vec<Var> = head_outputs.collect();
            h = first;
            for head in heads_remaining.drain(..) {
                h = tape.concat_cols(h, head);
            }
            if i + 1 < self.layers.len() {
                h = tape.relu(h);
            }
        }
        h
    }
}

/// One GATv2 layer's parameters.
#[derive(Debug, Clone, Copy)]
struct GatV2Layer {
    weight_left: usize,
    weight_right: usize,
    attn: usize,
    bias: usize,
}

/// GATv2 (Brody et al.): *dynamic* attention that applies the
/// nonlinearity before the attention projection:
/// `e_ij = a · LeakyReLU( W_l h_i + W_r h_j )`, aggregating `W_r h_j`.
#[derive(Debug, Clone)]
pub struct GatV2 {
    layers: Vec<GatV2Layer>,
    dropout: f32,
    out_dim: usize,
    negative_slope: f32,
}

impl GatV2 {
    /// Registers a single-head GATv2 with layer sizes `dims` in `params`.
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
        assert!(dims.len() >= 2, "gatv2 needs input and output dims");
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| GatV2Layer {
                weight_left: params
                    .register(format!("gatv2.{i}.w_l"), glorot_uniform(w[0], w[1], rng)),
                weight_right: params
                    .register(format!("gatv2.{i}.w_r"), glorot_uniform(w[0], w[1], rng)),
                attn: params.register(format!("gatv2.{i}.attn"), glorot_uniform(w[1], 1, rng)),
                bias: params
                    .register(format!("gatv2.{i}.bias"), splpg_tensor::Tensor::zeros(1, w[1])),
            })
            .collect();
        GatV2 {
            layers,
            dropout,
            out_dim: *dims.last().expect("non-empty dims"),
            negative_slope: 0.2,
        }
    }
}

impl GnnModel for GatV2 {
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
            let (mut e_src, mut e_dst, mut e_w) = (Vec::new(), Vec::new(), Vec::new());
            with_self_loops(block, &mut e_src, &mut e_dst, &mut e_w);
            let zl = tape.matmul(h, binding.var(layer.weight_left));
            let zr = tape.matmul(h, binding.var(layer.weight_right));
            let s_dst = tape.gather_rows(zl, &e_dst);
            let s_src = tape.gather_rows(zr, &e_src);
            let s = tape.add(s_dst, s_src);
            let act = tape.leaky_relu(s, self.negative_slope);
            let mut logits = tape.matmul(act, binding.var(layer.attn));
            if e_w.iter().any(|&w| w != 1.0) {
                let lnw: Vec<f32> = e_w.iter().map(|&w| w.max(1e-12).ln()).collect();
                let bias = tape.leaf(
                    splpg_tensor::Tensor::from_vec(lnw.len(), 1, lnw).expect("column shape"),
                );
                logits = tape.add(logits, bias);
            }
            let alpha = tape.segment_softmax(logits, &e_dst, block.num_dst);
            let msgs = tape.gather_rows(zr, &e_src);
            let weighted = tape.mul_col_broadcast(msgs, alpha);
            let agg = tape.segment_sum(weighted, &e_dst, block.num_dst);
            h = tape.add_bias(agg, binding.var(layer.bias));
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
        splpg_rng::rngs::StdRng::seed_from_u64(2)
    }

    #[test]
    fn gat_forward_shapes() {
        let mut params = ParamSet::new();
        let gat = Gat::new(&mut params, &[4, 8, 3], 0.0, &mut rng());
        let batch = path_batch();
        let mut tape = Tape::new();
        let binding = params.bind(&mut tape);
        let x = tape.leaf(Tensor::ones(3, 4));
        let out = gat.forward(&mut tape, &binding, x, &batch.blocks, None);
        assert_eq!(tape.value(out).shape(), (1, 3));
    }

    #[test]
    fn gatv2_forward_shapes() {
        let mut params = ParamSet::new();
        let gat = GatV2::new(&mut params, &[4, 8, 3], 0.0, &mut rng());
        let batch = path_batch();
        let mut tape = Tape::new();
        let binding = params.bind(&mut tape);
        let x = tape.leaf(Tensor::ones(3, 4));
        let out = gat.forward(&mut tape, &binding, x, &batch.blocks, None);
        assert_eq!(tape.value(out).shape(), (1, 3));
    }

    #[test]
    fn gat_attention_sums_to_one_effectively() {
        // With identical inputs everywhere, the aggregated output equals
        // the single message value (attention is a convex combination).
        let mut params = ParamSet::new();
        let gat = Gat::new(&mut params, &[2, 2], 0.0, &mut rng());
        let batch = path_batch();
        let mut tape = Tape::new();
        let binding = params.bind(&mut tape);
        // Constant features: every z row identical, so output = z row.
        let x = tape.leaf(Tensor::from_fn(3, 2, |_, c| if c == 0 { 1.0 } else { -2.0 }));
        let out = gat.forward(&mut tape, &binding, x, &batch.blocks[..1], None);
        let z = Tensor::from_vec(1, 2, vec![1.0, -2.0])
            .unwrap()
            .matmul(params.value(0));
        for (a, b) in tape.value(out).row(0).iter().zip(z.row(0)) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn gat_gradients_reach_attention_params() {
        let mut params = ParamSet::new();
        let gat = Gat::new(&mut params, &[4, 3], 0.0, &mut rng());
        let batch = path_batch();
        let mut tape = Tape::new();
        let binding = params.bind(&mut tape);
        let x = tape.leaf(Tensor::from_fn(3, 4, |r, c| ((r + 1) * (c + 1)) as f32 * 0.1));
        let out = gat.forward(&mut tape, &binding, x, &batch.blocks[..1], None);
        let loss = tape.mean_all(out);
        let mut grads = tape.backward(loss);
        let gs = binding.collect_grads(&params, &mut grads);
        // weight, attn_l, attn_r all participate.
        assert!(gs[0].norm_sq() > 0.0, "weight grad missing");
        // Attention gradients can be tiny but must exist structurally.
        assert_eq!(gs.len(), 4);
    }

    #[test]
    fn gatv2_differs_from_gat_outputs() {
        let mut p1 = ParamSet::new();
        let gat = Gat::new(&mut p1, &[4, 3], 0.0, &mut rng());
        let mut p2 = ParamSet::new();
        let gatv2 = GatV2::new(&mut p2, &[4, 3], 0.0, &mut rng());
        let batch = path_batch();
        let x0 = Tensor::from_fn(3, 4, |r, c| (r as f32 - c as f32) * 0.2);

        let mut tape1 = Tape::new();
        let b1 = p1.bind(&mut tape1);
        let xv1 = tape1.leaf(x0.clone());
        let o1 = gat.forward(&mut tape1, &b1, xv1, &batch.blocks[..1], None);

        let mut tape2 = Tape::new();
        let b2 = p2.bind(&mut tape2);
        let xv2 = tape2.leaf(x0);
        let o2 = gatv2.forward(&mut tape2, &b2, xv2, &batch.blocks[..1], None);

        assert_ne!(tape1.value(o1).data(), tape2.value(o2).data());
    }

    #[test]
    fn weighted_edges_bias_attention() {
        // Two identical neighbors, one with weight 1000x the other: the
        // heavy edge should dominate the attention mass.
        let block = Block {
            src_ids: vec![0, 1, 2],
            num_dst: 1,
            edge_src: vec![1, 2],
            edge_dst: vec![0, 0],
            edge_weight: vec![1000.0, 1.0],
            src_degree: vec![2.0, 1.0, 1.0],
        };
        let mut params = ParamSet::new();
        let gat = Gat::new(&mut params, &[1, 1], 0.0, &mut rng());
        // Freeze the attention to isolate the edge-weight bias: with a_l =
        // a_r = 0 and W = 1 the logits reduce to ln w, so alpha is
        // proportional to the edge weights {1000, 1, 1(self)}.
        params.value_mut(0).data_mut()[0] = 1.0; // weight
        params.value_mut(1).data_mut()[0] = 0.0; // attn_l
        params.value_mut(2).data_mut()[0] = 0.0; // attn_r
        let mut tape = Tape::new();
        let binding = params.bind(&mut tape);
        // Distinct neighbor features so the output reveals the mix.
        let x = tape.leaf(Tensor::from_vec(3, 1, vec![0.0, 10.0, -10.0]).unwrap());
        let out = gat.forward(&mut tape, &binding, x, &[block], None);
        // Expected: (1000*10 + 1*(-10) + 1*0) / 1002 ~= 9.97.
        let val = tape.value(out).get(0, 0);
        assert!(val > 9.5, "attention ignored edge weights: {val}");
    }
}

#[cfg(test)]
mod multihead_tests {
    use super::*;
    use crate::models::test_support::path_batch;
    use crate::models::GnnModel;
    use splpg_rng::SeedableRng;
    use splpg_tensor::{Tape, Tensor};

    fn rng() -> splpg_rng::rngs::StdRng {
        splpg_rng::rngs::StdRng::seed_from_u64(41)
    }

    #[test]
    fn multihead_forward_shapes() {
        let mut params = ParamSet::new();
        let gat = Gat::with_heads(&mut params, &[4, 8, 4], 4, 0.0, &mut rng());
        assert_eq!(gat.heads(), 4);
        let batch = path_batch();
        let mut tape = Tape::new();
        let binding = params.bind(&mut tape);
        let x = tape.leaf(Tensor::ones(3, 4));
        let out = gat.forward(&mut tape, &binding, x, &batch.blocks, None);
        assert_eq!(tape.value(out).shape(), (1, 4));
    }

    #[test]
    fn single_head_is_default() {
        let mut params = ParamSet::new();
        let gat = Gat::new(&mut params, &[4, 4], 0.0, &mut rng());
        assert_eq!(gat.heads(), 1);
    }

    #[test]
    fn multihead_differs_from_single_head() {
        let batch = path_batch();
        let x0 = Tensor::from_fn(3, 4, |r, c| (r as f32 + 1.0) * (c as f32 - 1.5) * 0.1);
        let run = |heads: usize| {
            let mut params = ParamSet::new();
            let gat = Gat::with_heads(&mut params, &[4, 4], heads, 0.0, &mut rng());
            let mut tape = Tape::new();
            let binding = params.bind(&mut tape);
            let x = tape.leaf(x0.clone());
            let out = gat.forward(&mut tape, &binding, x, &batch.blocks[..1], None);
            tape.value(out).clone()
        };
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn multihead_gradients_reach_every_head() {
        let mut params = ParamSet::new();
        let gat = Gat::with_heads(&mut params, &[4, 6], 2, 0.0, &mut rng());
        let batch = path_batch();
        let mut tape = Tape::new();
        let binding = params.bind(&mut tape);
        let x = tape.leaf(Tensor::from_fn(3, 4, |r, c| ((r * 4 + c) as f32) * 0.1));
        let out = gat.forward(&mut tape, &binding, x, &batch.blocks[..1], None);
        let loss = tape.mean_all(out);
        let mut grads = tape.backward(loss);
        let gs = binding.collect_grads(&params, &mut grads);
        // Both heads' weight matrices (indices 0 and 4) must receive signal.
        assert!(gs[0].norm_sq() > 0.0, "head 0 weight got no gradient");
        assert!(gs[4].norm_sq() > 0.0, "head 1 weight got no gradient");
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn indivisible_width_panics() {
        let mut params = ParamSet::new();
        let _ = Gat::with_heads(&mut params, &[4, 5], 2, 0.0, &mut rng());
    }

    #[test]
    #[should_panic(expected = "at least one head")]
    fn zero_heads_panics() {
        let mut params = ParamSet::new();
        let _ = Gat::with_heads(&mut params, &[4, 4], 0, 0.0, &mut rng());
    }
}
