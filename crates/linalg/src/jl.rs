//! Johnson–Lindenstrauss approximation of all-pairs effective resistances
//! — the algorithm Spielman & Srivastava actually propose for making their
//! sparsifier nearly-linear-time.
//!
//! `r(u, v) = || W^{1/2} B L^+ (e_u - e_v) ||²` where `B` is the edge-node
//! incidence matrix. Projecting the `m`-dimensional embedding with a
//! random `k x m` ±1 matrix `Q` preserves all pairwise distances within
//! `1 ± eps` for `k = O(log n / eps²)`; each row of `Z = Q W^{1/2} B L^+`
//! costs one Laplacian solve.
//!
//! This estimator sits between the paper's degree bound (Theorem 2 —
//! instant but loose) and exact per-pair CG solves (tight but `O(m)`
//! solves): `k` solves give *every* pair's resistance at once.

use splpg_rng::Rng;
use splpg_graph::{Graph, NodeId};

use crate::engine::{EngineOptions, SolverEngine, ISOLATED};
use crate::solver::CgOptions;
use crate::LinalgError;

/// Precomputed JL sketch for effective-resistance queries.
///
/// # Examples
///
/// ```
/// use splpg_rng::SeedableRng;
/// use splpg_graph::Graph;
/// use splpg_linalg::{effective_resistance, CgOptions, ResistanceEstimator};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)])?;
/// let mut rng = splpg_rng::rngs::StdRng::seed_from_u64(1);
/// let est = ResistanceEstimator::build(&g, 400, CgOptions::default(), &mut rng)?;
/// let approx = est.estimate(0, 2);
/// let exact = effective_resistance(&g, 0, 2, CgOptions::default())?;
/// assert!((approx - exact).abs() / exact < 0.25);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ResistanceEstimator {
    /// Projections per node.
    k: usize,
    /// Node-major sketch on the graph's support: row `s` holds support
    /// node `s`'s `k` solution entries; one trailing zero row stands for
    /// every isolated node.
    sketch: Vec<f64>,
    /// Sketch row of every node of the graph.
    row_of: Vec<u32>,
}

impl ResistanceEstimator {
    /// Builds a sketch with `k` random projections. The `k` Laplacian
    /// solves advance through the engine's blocked multi-RHS CG on the
    /// graph's support: each shared matvec sweep updates a whole block of
    /// projections in one pass over the CSR adjacency. Larger `k`
    /// tightens the estimate; `k ~ 24 ln n / eps^2` gives the `1 ± eps`
    /// guarantee.
    ///
    /// Disconnected graphs are supported (each projection vector is
    /// mean-free per component, so the per-component solves are
    /// consistent); estimates are only meaningful for *same-component*
    /// pairs — across components the true resistance is infinite.
    ///
    /// # Errors
    ///
    /// [`LinalgError::NoConvergence`] / [`LinalgError::Breakdown`] if a
    /// CG solve fails.
    pub fn build<R: Rng + ?Sized>(
        graph: &Graph,
        k: usize,
        options: CgOptions,
        rng: &mut R,
    ) -> Result<Self, LinalgError> {
        let scale = 1.0 / (k as f64).sqrt();
        let edges = graph.edges();
        let sqrt_w: Vec<f64> = edges
            .iter()
            .map(|e| (graph.edge_weight(e.src, e.dst).unwrap_or(1.0) as f64).sqrt())
            .collect();
        let engine_options = EngineOptions::with_cg(options);
        let block = engine_options.block_width.max(1);
        let mut engine = SolverEngine::new(graph, engine_options);
        let ns = engine.support_len();
        let mut sketch = vec![0.0f64; (ns + 1) * k];
        let mut start = 0usize;
        while start < k {
            let kb = block.min(k - start);
            // y = B^T W^{1/2} q for a random q in {±1/sqrt(k)}^m, drawn
            // projection-major over edges straight into the block: blocks
            // run in projection order, so the draw sequence is that of
            // drawing all `k` projections up front.
            let x = engine.solve_support_block(kb, |local_of, rhs| {
                for j in 0..kb {
                    for (e, &sw) in edges.iter().zip(&sqrt_w) {
                        let q = if rng.gen::<bool>() { scale } else { -scale };
                        let contribution = sw * q;
                        rhs[local_of[e.src as usize] as usize * kb + j] += contribution;
                        rhs[local_of[e.dst as usize] as usize * kb + j] -= contribution;
                    }
                }
            })?;
            for (s, row) in x.chunks_exact(kb).enumerate() {
                sketch[s * k + start..s * k + start + kb].copy_from_slice(row);
            }
            start += kb;
        }
        let row_of = engine
            .support_index()
            .iter()
            .map(|&s| if s == ISOLATED { ns as u32 } else { s })
            .collect();
        Ok(ResistanceEstimator { k, sketch, row_of })
    }

    /// CG options that solve a `k`-projection sketch only as precisely as
    /// the sketch itself: relative residual `1 / (20 sqrt(k))`.
    ///
    /// Each estimate is a mean of `k` squared projections, so the
    /// sketch's own relative error is of order `1 / sqrt(k)`; a solver
    /// error far below it is paid for and then drowned. One twentieth of
    /// it keeps the solver's effect on the edge-sampling distribution
    /// under a tenth of the sketch's noise: on the p = 4 partition-local
    /// graphs of Cora x1.0 at k = 64 (tolerance 6.25e-3), the total
    /// variation from the 1e-8 distribution is ~0.0015, against ~0.043
    /// between the k = 64 and k = 256 sketches
    /// (`tests/it_setup_pins.rs::jl_sketch_tolerance_stays_under_a_tenth_of_the_sketch_noise`).
    /// The iteration cap is [`CgOptions::default`]'s.
    pub fn sketch_options(k: usize) -> CgOptions {
        CgOptions { tolerance: 1.0 / (20.0 * (k as f64).sqrt()), ..CgOptions::default() }
    }

    /// Estimated effective resistance between `u` and `v`.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn estimate(&self, u: NodeId, v: NodeId) -> f64 {
        let row = |w: NodeId| {
            let start = self.row_of[w as usize] as usize * self.k;
            &self.sketch[start..start + self.k]
        };
        row(u)
            .iter()
            .zip(row(v))
            .map(|(zu, zv)| {
                let d = zu - zv;
                d * d
            })
            .sum()
    }

    /// Estimated resistances for every edge of `graph`, in edge-list order
    /// (the input the sparsifier's alias table wants).
    pub fn edge_resistances(&self, graph: &Graph) -> Vec<f64> {
        graph.edges().iter().map(|e| self.estimate(e.src, e.dst)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::effective_resistance;
    use splpg_rng::SeedableRng;

    fn rng() -> splpg_rng::rngs::StdRng {
        splpg_rng::rngs::StdRng::seed_from_u64(23)
    }

    fn wheel(n: usize) -> Graph {
        // Hub 0 plus an (n-1)-cycle: varied resistances.
        let mut edges: Vec<(NodeId, NodeId)> = (1..n).map(|i| (0, i as NodeId)).collect();
        for i in 1..n {
            let j = if i + 1 < n { i + 1 } else { 1 };
            edges.push((i as NodeId, j as NodeId));
        }
        Graph::from_edges(n, &edges).unwrap()
    }

    #[test]
    fn estimates_match_exact_within_jl_tolerance() {
        let g = wheel(12);
        let est = ResistanceEstimator::build(&g, 600, CgOptions::default(), &mut rng()).unwrap();
        for e in g.edges().iter().take(8) {
            let exact = effective_resistance(&g, e.src, e.dst, CgOptions::default()).unwrap();
            let approx = est.estimate(e.src, e.dst);
            let rel = (approx - exact).abs() / exact;
            assert!(rel < 0.3, "edge {e:?}: exact {exact}, approx {approx}");
        }
    }

    #[test]
    fn non_edge_pairs_estimated_too() {
        // JL sketch answers arbitrary pairs, not just edges.
        let g = wheel(10);
        let est = ResistanceEstimator::build(&g, 600, CgOptions::default(), &mut rng()).unwrap();
        let exact = effective_resistance(&g, 3, 7, CgOptions::default()).unwrap();
        let approx = est.estimate(3, 7);
        assert!((approx - exact).abs() / exact < 0.3);
    }

    #[test]
    fn self_pair_is_zero() {
        let g = wheel(8);
        let est = ResistanceEstimator::build(&g, 50, CgOptions::default(), &mut rng()).unwrap();
        assert_eq!(est.estimate(4, 4), 0.0);
    }

    #[test]
    fn more_projections_reduce_error() {
        let g = wheel(10);
        let exact = effective_resistance(&g, 1, 5, CgOptions::default()).unwrap();
        let mean_err = |k: usize| {
            let trials = 8;
            let mut total = 0.0;
            for seed in 0..trials {
                let mut r = splpg_rng::rngs::StdRng::seed_from_u64(seed);
                let est = ResistanceEstimator::build(&g, k, CgOptions::default(), &mut r).unwrap();
                total += (est.estimate(1, 5) - exact).abs() / exact;
            }
            total / trials as f64
        };
        assert!(mean_err(400) < mean_err(25), "error should shrink with k");
    }

    #[test]
    fn disconnected_estimates_within_components() {
        // Per-component solves: intra-component estimates stay valid on a
        // disconnected graph (two disjoint edges, each resistance 1).
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let est = ResistanceEstimator::build(&g, 600, CgOptions::default(), &mut rng()).unwrap();
        for (u, v) in [(0u32, 1u32), (2, 3)] {
            let approx = est.estimate(u, v);
            assert!((approx - 1.0).abs() < 0.3, "edge ({u},{v}) estimate {approx}");
        }
    }

    #[test]
    fn edge_resistances_in_edge_order() {
        let g = wheel(8);
        let est = ResistanceEstimator::build(&g, 200, CgOptions::default(), &mut rng()).unwrap();
        let rs = est.edge_resistances(&g);
        assert_eq!(rs.len(), g.num_edges());
        assert!(rs.iter().all(|&r| r > 0.0));
    }
}
