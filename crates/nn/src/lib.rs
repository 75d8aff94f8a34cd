//! Neural-network building blocks on top of [`splpg_tensor`].
//!
//! Provides what `torch.nn` / `torch.optim` provide to the original SpLPG
//! implementation:
//!
//! * [`ParamSet`] — an ordered, named collection of trainable tensors with
//!   flattening support (model averaging across workers serializes
//!   parameters to a flat `Vec<f32>` and back);
//! * [`Binding`] — per-mini-batch registration of parameters as tape
//!   leaves, plus gradient collection in parameter order;
//! * [`Linear`] and [`Mlp`] — dense layers with Glorot initialization (the
//!   3-layer MLP edge predictor of the paper is an `Mlp`);
//! * [`Adam`] — the optimizer (the paper trains with Adam, lr = 0.001).
//!
//! # Examples
//!
//! ```
//! use splpg_rng::SeedableRng;
//! use splpg_nn::{Adam, Linear, Optimizer, ParamSet};
//! use splpg_tensor::{Tape, Tensor};
//!
//! let mut rng = splpg_rng::rngs::StdRng::seed_from_u64(0);
//! let mut params = ParamSet::new();
//! let layer = Linear::new(&mut params, "fc", 4, 2, &mut rng);
//! let mut opt = Adam::new(1e-2);
//!
//! let x = Tensor::ones(3, 4);
//! let mut tape = Tape::new();
//! let binding = params.bind(&mut tape);
//! let input = tape.leaf(x);
//! let y = layer.forward(&mut tape, &binding, input);
//! let loss = tape.sum_all(y);
//! let mut grads = tape.backward(loss);
//! let flat = binding.collect_grads(&params, &mut grads);
//! opt.step(&mut params, &flat);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod init;
mod layers;
mod optim;
mod params;

pub use init::glorot_uniform;
pub use layers::{Linear, Mlp};
pub use optim::{Adam, Optimizer};
pub use params::{average_grads, Binding, ParamSet};

/// Errors from parameter management.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NnError {
    /// Flat buffer length does not match the parameter set.
    FlatSizeMismatch {
        /// Expected element count.
        expected: usize,
        /// Supplied element count.
        actual: usize,
    },
    /// Gradient list does not match the parameter set.
    GradCountMismatch {
        /// Expected tensor count.
        expected: usize,
        /// Supplied tensor count.
        actual: usize,
    },
}

impl std::fmt::Display for NnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NnError::FlatSizeMismatch { expected, actual } => {
                write!(f, "flat parameter buffer has {actual} elements, expected {expected}")
            }
            NnError::GradCountMismatch { expected, actual } => {
                write!(f, "gradient list has {actual} tensors, expected {expected}")
            }
        }
    }
}

impl std::error::Error for NnError {}
