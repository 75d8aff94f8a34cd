//! Effective-resistance graph sparsification (Algorithm 1, lines 4–14 of
//! the SpLPG paper).
//!
//! SpLPG sparsifies every partitioned subgraph so that workers can share
//! *cheap* copies of remote partitions for drawing global negative samples.
//! The sampler follows Spielman–Srivastava (Theorem 1): sample `L` edges
//! with replacement with probability proportional to effective resistance,
//! assign weight `1/(L p)` to each sampled edge and sum weights when an edge
//! is drawn more than once. Exact effective resistances are expensive
//! (pseudo-inverse of the Laplacian), so the paper uses the Lovász bound of
//! Theorem 2 — `r_(u,v)` is within `[1/2, 1/gamma]` of `1/d_u + 1/d_v` — and
//! samples proportionally to that degree-based score.
//!
//! Two samplers are provided:
//!
//! * [`DegreeSparsifier`] — the paper's approximation (`p ∝ 1/d_u + 1/d_v`);
//! * [`ExactSparsifier`] — samples proportionally to the *exact* effective
//!   resistance computed with conjugate gradient (small graphs only; used
//!   to validate the approximation).
//!
//! # Examples
//!
//! ```
//! use splpg_rng::SeedableRng;
//! use splpg_graph::Graph;
//! use splpg_sparsify::{DegreeSparsifier, SparsifyConfig, Sparsifier};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let edges: Vec<(u32, u32)> = (0..200).flat_map(|i| {
//!     [(i, (i + 1) % 200), (i, (i + 7) % 200)]
//! }).collect();
//! let g = Graph::from_edges(200, &edges)?;
//! let mut rng = splpg_rng::rngs::StdRng::seed_from_u64(1);
//! // alpha = 0.15: the paper's default, removing ~85% of edges.
//! let sparse = DegreeSparsifier::new(SparsifyConfig::with_alpha(0.15))
//!     .sparsify(&g, &mut rng)?;
//! assert!(sparse.num_edges() < g.num_edges() / 4);
//! assert_eq!(sparse.num_nodes(), g.num_nodes()); // all nodes retained
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod baselines;
mod degree;
mod exact;
mod jl;
mod sampling;

pub use baselines::{SpanningForestSparsifier, UniformSparsifier};
pub use degree::DegreeSparsifier;
pub use exact::ExactSparsifier;
pub use jl::JlSparsifier;
pub use sampling::AliasTable;

use splpg_rng::Rng;
use splpg_graph::Graph;

/// Errors from sparsification.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SparsifyError {
    /// The configuration is invalid (e.g. non-positive alpha).
    InvalidConfig(String),
    /// The exact sparsifier failed to compute effective resistances.
    Resistance(String),
}

impl std::fmt::Display for SparsifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SparsifyError::InvalidConfig(msg) => write!(f, "invalid sparsify config: {msg}"),
            SparsifyError::Resistance(msg) => {
                write!(f, "effective resistance computation failed: {msg}")
            }
        }
    }
}

impl std::error::Error for SparsifyError {}

/// Sparsification level configuration.
///
/// The paper parameterizes the number of samples as `L = alpha * |E|` so the
/// level is consistent across datasets; `alpha = 0.15` (the default) removes
/// roughly 85% of edges.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparsifyConfig {
    /// Number of with-replacement samples as a fraction of `|E|`.
    pub alpha: f64,
    /// Optional absolute override for `L` (takes precedence over `alpha`).
    pub num_samples: Option<usize>,
}

impl SparsifyConfig {
    /// Config sampling `alpha * |E|` edges.
    pub fn with_alpha(alpha: f64) -> Self {
        SparsifyConfig { alpha, num_samples: None }
    }

    /// Config sampling exactly `num_samples` edges.
    pub fn with_samples(num_samples: usize) -> Self {
        SparsifyConfig { alpha: 0.0, num_samples: Some(num_samples) }
    }

    /// Resolves the sample budget `L^i` for a graph with `num_edges` edges.
    ///
    /// # Errors
    ///
    /// [`SparsifyError::InvalidConfig`] if neither a positive `alpha` nor an
    /// explicit sample count is supplied.
    pub fn resolve_samples(&self, num_edges: usize) -> Result<usize, SparsifyError> {
        match self.num_samples {
            Some(l) => Ok(l),
            None if self.alpha > 0.0 => Ok(((num_edges as f64) * self.alpha).round() as usize),
            None => Err(SparsifyError::InvalidConfig(format!(
                "alpha must be positive, got {}",
                self.alpha
            ))),
        }
    }
}

impl Default for SparsifyConfig {
    /// The paper's default, `alpha = 0.15`.
    fn default() -> Self {
        SparsifyConfig::with_alpha(0.15)
    }
}

/// A graph sparsification algorithm.
///
/// Implementations keep **all nodes** and return a weighted graph whose
/// edges are a (multi)sample of the input's.
pub trait Sparsifier {
    /// Produces the sparsified graph.
    ///
    /// # Errors
    ///
    /// Implementation-specific; see [`DegreeSparsifier`] and
    /// [`ExactSparsifier`].
    fn sparsify<R: Rng + ?Sized>(&self, graph: &Graph, rng: &mut R)
        -> Result<Graph, SparsifyError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_resolves_alpha() {
        let c = SparsifyConfig::with_alpha(0.15);
        assert_eq!(c.resolve_samples(1000).unwrap(), 150);
    }

    #[test]
    fn config_explicit_samples_take_precedence() {
        let c = SparsifyConfig::with_samples(42);
        assert_eq!(c.resolve_samples(1000).unwrap(), 42);
    }

    #[test]
    fn config_rejects_nonpositive_alpha() {
        assert!(SparsifyConfig::with_alpha(0.0).resolve_samples(10).is_err());
        assert!(SparsifyConfig::with_alpha(-1.0).resolve_samples(10).is_err());
    }

    #[test]
    fn default_is_paper_alpha() {
        assert_eq!(SparsifyConfig::default().alpha, 0.15);
    }
}
