//! GNN model implementations: GCN, GraphSAGE, GAT, GATv2.
//!
//! Every model implements [`GnnModel`]: a layered forward pass over
//! message-flow [`Block`]s following the neighborhood-aggregation update of
//! Eq. (1) in the paper. Models register their parameters in a shared
//! [`splpg_nn::ParamSet`], so the distributed engine can flatten/average
//! them uniformly.

mod gat;
mod gcn;
mod sage;

pub use gat::{Gat, GatV2};
pub use gcn::Gcn;
pub use sage::GraphSage;

use splpg_rng::RngCore;
use splpg_nn::Binding;
use splpg_tensor::{Tape, Var};

use crate::Block;

/// A layered GNN encoder producing seed-node embeddings from block input
/// features.
///
/// A model supplies one layer at a time ([`GnnModel::layer`]); the trait
/// owns the loop that chains them ([`GnnModel::forward`]), so training
/// (one multi-block forward per mini-batch) and evaluation (each layer
/// over every node once, in destination chunks) run the same layer body.
pub trait GnnModel {
    /// Number of message-passing layers (blocks consumed per forward).
    fn num_layers(&self) -> usize;

    /// Embedding dimensionality of the output.
    fn output_dim(&self) -> usize;

    /// Dropout probability applied to every layer's input in training
    /// mode.
    fn dropout(&self) -> f32;

    /// Runs layer `i` over one block.
    ///
    /// `h` must be the `[block.num_src(), in_dim]` rows of
    /// `block.src_ids`; the result is the `[block.num_dst, out_dim]` rows
    /// of its destination prefix, passed through the inter-layer ReLU
    /// unless `i` is the last layer. Each output row depends only on its
    /// own input row and its in-edges' source rows, so a layer may run
    /// over any split of its destinations.
    fn layer(&self, i: usize, tape: &mut Tape, binding: &Binding, h: Var, block: &Block) -> Var;

    /// Runs the forward pass: for every block, dropout on the layer input
    /// (training mode only), then [`GnnModel::layer`].
    ///
    /// `input` must be the `[num_input_nodes, in_dim]` features of
    /// `blocks[0].src_ids`; the result is `[num_seeds, output_dim]` for the
    /// last block's dst prefix. `dropout_rng` enables dropout (training
    /// mode) when provided.
    ///
    /// # Panics
    ///
    /// Panics if `blocks.len() != num_layers()` or shapes are inconsistent.
    fn forward(
        &self,
        tape: &mut Tape,
        binding: &Binding,
        input: Var,
        blocks: &[Block],
        mut dropout_rng: Option<&mut dyn RngCore>,
    ) -> Var {
        assert_eq!(blocks.len(), self.num_layers(), "one block per layer");
        let p = self.dropout();
        let mut h = input;
        for (i, block) in blocks.iter().enumerate() {
            if let Some(rng) = dropout_rng.as_deref_mut() {
                if p > 0.0 {
                    h = tape.dropout(h, p, rng);
                }
            }
            h = self.layer(i, tape, binding, h, block);
        }
        h
    }
}

/// The inter-layer activation: ReLU after every layer but the last of
/// `layers`.
pub(crate) fn activate(tape: &mut Tape, h: Var, i: usize, layers: usize) -> Var {
    if i + 1 < layers {
        tape.relu(h)
    } else {
        h
    }
}

/// Writes the block's edge lists into `src`/`dst`/`w`, followed by a
/// weight-1 self-loop `(i -> i)` for every destination. GCN/GAT-style
/// layers need each node to attend to itself; the dst prefix property
/// guarantees `i` is a valid source index. This is the one owner of the
/// edge order — sampled edges first, then the loops in destination order —
/// that the summation order of those layers rests on.
pub(crate) fn with_self_loops(
    block: &Block,
    src: &mut Vec<u32>,
    dst: &mut Vec<u32>,
    w: &mut Vec<f32>,
) {
    let num_dst = u32::try_from(block.num_dst).expect("block indices are u32");
    src.extend(block.edge_src.iter().copied().chain(0..num_dst));
    dst.extend(block.edge_dst.iter().copied().chain(0..num_dst));
    w.extend_from_slice(&block.edge_weight);
    w.extend(std::iter::repeat_n(1.0, block.num_dst));
}

#[cfg(test)]
pub(crate) mod test_support {
    use splpg_graph::NodeId;

    use crate::Block;

    /// A tiny two-layer batch over a path 0-1-2 seeded at node 0.
    pub(crate) fn path_batch() -> crate::MiniBatch {
        // Layer 2 (output): seeds {0}, srcs {0, 1}.
        let b2 = Block {
            src_ids: vec![0, 1],
            num_dst: 1,
            edge_src: vec![1],
            edge_dst: vec![0],
            edge_weight: vec![1.0],
            src_degree: vec![1.0, 2.0],
        };
        // Layer 1 (input): dsts {0, 1}, srcs {0, 1, 2}.
        let b1 = Block {
            src_ids: vec![0, 1, 2],
            num_dst: 2,
            edge_src: vec![1, 0, 2],
            edge_dst: vec![0, 1, 1],
            edge_weight: vec![1.0, 1.0, 1.0],
            src_degree: vec![1.0, 2.0, 1.0],
        };
        let mb = crate::MiniBatch { blocks: vec![b1, b2], seeds: vec![0 as NodeId] };
        mb.validate().unwrap();
        mb
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_loops_appended_per_dst() {
        let batch = test_support::path_batch();
        let b = &batch.blocks[0];
        let (mut src, mut dst, mut w) = (Vec::new(), Vec::new(), Vec::new());
        with_self_loops(b, &mut src, &mut dst, &mut w);
        assert_eq!(src.len(), b.num_edges() + b.num_dst);
        // The appended loops are (0,0) and (1,1) with weight 1.
        assert_eq!(&src[b.num_edges()..], &[0, 1]);
        assert_eq!(&dst[b.num_edges()..], &[0, 1]);
        assert!(w[b.num_edges()..].iter().all(|&x| x == 1.0));
    }
}
