//! Minimal dense tensor library with reverse-mode automatic
//! differentiation.
//!
//! This crate stands in for PyTorch in the SpLPG reproduction: it provides
//! exactly the operator set needed to train GCN, GraphSAGE, GAT and GATv2
//! models with MLP/dot-product edge predictors on CPU:
//!
//! * [`Tensor`] — a 2-D row-major `f32` matrix with the usual arithmetic;
//! * [`Tape`] — an arena-based autograd tape. Operations append nodes; a
//!   single [`Tape::backward`] pass computes gradients for every
//!   parameter leaf, skipping whatever only a constant input
//!   ([`Tape::leaf_with`]) would consume and releasing interior
//!   gradients as it goes.
//!   Tapes are thread-local, so each simulated worker differentiates
//!   independently — mirroring how each GPU in DDP holds its own autograd
//!   graph. Trainers hold **one tape across steps**: [`Tape::reset`]
//!   recycles every backing buffer into the tape's arena, so the
//!   steady-state training step performs no heap allocation
//!   ([`ArenaStats`] counts the warm-up allocations);
//! * [`segment`] — the deterministic parallel aggregation kernels behind
//!   the tape's graph ops, bit-identical to their scalar counterparts at
//!   every thread count;
//! * graph-specific ops: [`Tape::aggregate`] and [`Tape::aggregate_mean`]
//!   (weighted neighborhood sum and mean as one op, no per-edge
//!   tensors), [`Tape::concat_linear`] (an affine map of `[a[..n] ‖ b]`
//!   that never builds the concatenation: GraphSAGE's `[self ‖ mean]`,
//!   the scorer's `[h_u ‖ h_v]`), and the primitives attention layers
//!   compose: [`Tape::gather_rows`], [`Tape::segment_sum`],
//!   [`Tape::segment_softmax`];
//! * [`grad_check`] — central-difference gradient verification used
//!   extensively by the test suite.
//!
//! # Examples
//!
//! ```
//! use splpg_tensor::{Tape, Tensor};
//!
//! let mut tape = Tape::new();
//! let x = tape.leaf(Tensor::from_vec(1, 2, vec![1.0, 2.0]).unwrap());
//! let w = tape.leaf(Tensor::from_vec(2, 1, vec![0.5, -0.25]).unwrap());
//! let y = tape.matmul(x, w);          // y = x W = 0.0
//! let loss = tape.sum_all(y);
//! let grads = tape.backward(loss);
//! // dloss/dW = x^T
//! assert_eq!(grads.get(w).unwrap().data(), &[1.0, 2.0]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod check;
pub mod kernels;
pub mod segment;
mod tape;
mod tensor;

pub use arena::ArenaStats;
pub use check::{grad_check, GradCheckReport};
pub use tape::{Gradients, Tape, Var};
pub use tensor::Tensor;

/// Errors from tensor construction and shape checking.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TensorError {
    /// Data length does not match the requested shape.
    ShapeMismatch {
        /// Expected element count.
        expected: usize,
        /// Supplied element count.
        actual: usize,
    },
    /// Two operands have incompatible shapes for the attempted operation.
    IncompatibleShapes {
        /// Human-readable description of the operation and shapes.
        context: String,
    },
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::ShapeMismatch { expected, actual } => {
                write!(f, "shape mismatch: expected {expected} elements, got {actual}")
            }
            TensorError::IncompatibleShapes { context } => {
                write!(f, "incompatible shapes: {context}")
            }
        }
    }
}

impl std::error::Error for TensorError {}
