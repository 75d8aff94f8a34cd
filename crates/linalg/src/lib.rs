//! Sparse linear algebra for graph Laplacians.
//!
//! The SpLPG paper's sparsifier (its Algorithm 1) avoids computing exact
//! effective resistances by using the degree bound of Theorem 2
//! (`r_(u,v) <= (1/d_u + 1/d_v)/gamma`, Lovász). This crate provides the
//! *exact* quantities so the approximation can be validated:
//!
//! * `LaplacianOperator` — matrix-free `L x` / `L_sym x` products;
//! * [`solve_laplacian`] — conjugate-gradient solve of `L x = b` projected
//!   onto the space orthogonal to the constant vector (the Laplacian's null
//!   space on a connected graph);
//! * [`effective_resistance`] — exact `r_(u,v) = (e_u - e_v)^T L^+ (e_u -
//!   e_v)` via CG (Eq. (3) of the paper);
//! * [`lambda2_normalized`] — the second-smallest eigenvalue `gamma` of the
//!   normalized Laplacian via deflated power iteration (Theorem 2's
//!   constant);
//! * [`quadratic_form`] — `x^T L x`, used to check the spectral guarantee of
//!   Theorem 1 on sparsified graphs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod jl;
mod laplacian;
mod solver;
mod spectral;

pub use engine::{EngineOptions, SolveStats, SolverEngine};
pub use jl::ResistanceEstimator;
pub use laplacian::quadratic_form;
pub use solver::{
    effective_resistance, effective_resistances_with_stats, solve_laplacian, CgOptions, CgOutcome,
};
pub use spectral::{lambda2_normalized, PowerIterOptions};

/// Errors from linear-algebra routines.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LinalgError {
    /// Vector length does not match the operator dimension.
    DimensionMismatch {
        /// Expected length.
        expected: usize,
        /// Supplied length.
        actual: usize,
    },
    /// The routine requires a connected graph but the input is disconnected.
    Disconnected,
    /// Iteration budget exhausted before reaching the tolerance.
    NoConvergence {
        /// Iterations performed.
        iterations: usize,
        /// Residual norm at exit.
        residual: f64,
    },
    /// Conjugate gradient lost positive curvature (`p·Ap <= 0`): the
    /// search direction collapsed numerically and further iterations
    /// would produce garbage. Distinct from [`LinalgError::NoConvergence`]
    /// — a breakdown means the *iteration itself* is invalid, not merely
    /// slow.
    Breakdown {
        /// Iteration at which the breakdown was detected.
        iteration: usize,
        /// The offending curvature `p·Ap`.
        curvature: f64,
    },
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::DimensionMismatch { expected, actual } => {
                write!(f, "vector length {actual} does not match operator dimension {expected}")
            }
            LinalgError::Disconnected => write!(f, "graph must be connected for this operation"),
            LinalgError::NoConvergence { iterations, residual } => {
                write!(f, "no convergence after {iterations} iterations (residual {residual:e})")
            }
            LinalgError::Breakdown { iteration, curvature } => {
                write!(f, "CG breakdown at iteration {iteration}: curvature p·Ap = {curvature:e} <= 0")
            }
        }
    }
}

impl std::error::Error for LinalgError {}

/// Dot product of two equal-length slices.
pub(crate) fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean norm.
pub(crate) fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// In-place `y += alpha * x`.
pub(crate) fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Projects `v` onto the orthogonal complement of the all-ones vector
/// (removes the mean). The Laplacian's null space on a connected graph is
/// spanned by the constant vector, so CG must operate in this subspace.
pub(crate) fn remove_mean(v: &mut [f64]) {
    let mean = v.iter().sum::<f64>() / v.len() as f64;
    for x in v.iter_mut() {
        *x -= mean;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert!((norm(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[1.0, 3.0], &mut y);
        assert_eq!(y, vec![3.0, 7.0]);
    }

    #[test]
    fn remove_mean_zeroes_sum() {
        let mut v = vec![1.0, 2.0, 3.0, 6.0];
        remove_mean(&mut v);
        assert!(v.iter().sum::<f64>().abs() < 1e-12);
    }

    #[test]
    fn error_display() {
        let e = LinalgError::NoConvergence { iterations: 10, residual: 0.5 };
        assert!(e.to_string().contains("10"));
    }
}
