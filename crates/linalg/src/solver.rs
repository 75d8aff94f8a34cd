use splpg_graph::{connected_components, Graph, NodeId};

use crate::engine::{CgWorkspace, EngineOptions, SolveStats, SolverContext};
use crate::laplacian::LaplacianOperator;
use crate::{axpy, dot, norm, remove_mean, LinalgError};

/// Options for the conjugate-gradient solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CgOptions {
    /// Relative residual tolerance (`||r|| / ||b||`).
    pub tolerance: f64,
    /// Hard iteration cap.
    pub max_iterations: usize,
}

impl Default for CgOptions {
    fn default() -> Self {
        CgOptions { tolerance: 1e-8, max_iterations: 10_000 }
    }
}

/// Result of a conjugate-gradient solve.
#[derive(Debug, Clone, PartialEq)]
pub struct CgOutcome {
    /// The solution vector (mean-free).
    pub solution: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
    /// Final relative residual.
    pub residual: f64,
}

/// Solves `L x = b` for a connected graph's Laplacian using conjugate
/// gradient, working in the subspace orthogonal to the constant vector
/// (the null space of `L`). `b` is implicitly projected (its mean removed).
///
/// # Errors
///
/// * [`LinalgError::DimensionMismatch`] if `b.len() != graph.num_nodes()`;
/// * [`LinalgError::Disconnected`] if the graph is not connected (the
///   pseudo-inverse solve is ill-defined per component otherwise);
/// * [`LinalgError::NoConvergence`] if the iteration cap is reached;
/// * [`LinalgError::Breakdown`] if a search direction loses positive
///   curvature (`p·Ap <= 0`) — CG's invariants no longer hold and any
///   further iterate would be garbage, so the solve aborts instead of
///   silently clamping the denominator.
pub fn solve_laplacian(
    graph: &Graph,
    b: &[f64],
    options: CgOptions,
) -> Result<CgOutcome, LinalgError> {
    let n = graph.num_nodes();
    if b.len() != n {
        return Err(LinalgError::DimensionMismatch { expected: n, actual: b.len() });
    }
    let (_, components) = connected_components(graph);
    if components != 1 {
        return Err(LinalgError::Disconnected);
    }
    let op = LaplacianOperator::new(graph);
    let mut rhs = b.to_vec();
    remove_mean(&mut rhs);
    let b_norm = norm(&rhs).max(f64::MIN_POSITIVE);

    let mut x = vec![0.0; n];
    let mut r = rhs; // r = b - L*0
    let mut p = r.clone();
    let mut rs_old = dot(&r, &r);

    for iter in 0..options.max_iterations {
        let res = rs_old.sqrt() / b_norm;
        if res <= options.tolerance {
            return Ok(CgOutcome { solution: x, iterations: iter, residual: res });
        }
        let ap = op.apply(&p).expect("invariant: p.len() == n, checked at entry");
        let curvature = dot(&p, &ap);
        if curvature <= 0.0 {
            // The Laplacian is PSD on the mean-free subspace, so a
            // non-positive p·Ap can only come from numerical collapse of
            // the search direction. Clamping it (the old behavior) let
            // the iteration continue producing garbage — fail loudly.
            return Err(LinalgError::Breakdown { iteration: iter, curvature });
        }
        let alpha = rs_old / curvature;
        axpy(alpha, &p, &mut x);
        axpy(-alpha, &ap, &mut r);
        // Numerical drift can reintroduce a constant component; project.
        remove_mean(&mut r);
        let rs_new = dot(&r, &r);
        // rs_old > 0 here: the convergence check at the top of the loop
        // already returned when rs_old.sqrt() / b_norm <= tolerance.
        let beta = rs_new / rs_old;
        for (pi, ri) in p.iter_mut().zip(&r) {
            *pi = ri + beta * *pi;
        }
        rs_old = rs_new;
    }
    let res = rs_old.sqrt() / b_norm;
    if res <= options.tolerance {
        remove_mean(&mut x);
        return Ok(CgOutcome { solution: x, iterations: options.max_iterations, residual: res });
    }
    Err(LinalgError::NoConvergence { iterations: options.max_iterations, residual: res })
}

/// Exact effective resistance `r_(u,v) = (e_u - e_v)^T L^+ (e_u - e_v)`
/// (Eq. (3) of the paper), computed with a CG solve.
///
/// # Errors
///
/// Same conditions as [`solve_laplacian`]; additionally
/// [`LinalgError::DimensionMismatch`] if an endpoint is out of range.
///
/// # Examples
///
/// ```
/// use splpg_graph::Graph;
/// use splpg_linalg::{effective_resistance, CgOptions};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Two parallel length-2 paths between 0 and 3: a 4-cycle.
/// let g = Graph::from_edges(4, &[(0, 1), (1, 3), (0, 2), (2, 3)])?;
/// let r = effective_resistance(&g, 0, 3, CgOptions::default())?;
/// assert!((r - 1.0).abs() < 1e-6); // two 2-ohm paths in parallel
/// # Ok(())
/// # }
/// ```
pub fn effective_resistance(
    graph: &Graph,
    u: NodeId,
    v: NodeId,
    options: CgOptions,
) -> Result<f64, LinalgError> {
    let n = graph.num_nodes();
    if (u as usize) >= n || (v as usize) >= n {
        return Err(LinalgError::DimensionMismatch {
            expected: n,
            actual: u.max(v) as usize + 1,
        });
    }
    if u == v {
        return Ok(0.0);
    }
    let mut b = vec![0.0; n];
    b[u as usize] = 1.0;
    b[v as usize] = -1.0;
    let out = solve_laplacian(graph, &b, options)?;
    Ok(out.solution[u as usize] - out.solution[v as usize])
}

/// Exact effective resistances for a batch of node pairs, through the
/// Jacobi-preconditioned engine with **warm-started** solves, together with
/// the engine's [`SolveStats`]: solve and iteration counts, matvec work,
/// warm-start hits and estimated saved iterations, and workspace growth
/// events (per-group workspaces start empty, so this counts one warm-up
/// growth burst per group).
///
/// Pairs are grouped by first endpoint (sorted); within a group each
/// solve seeds CG with the previous solution — the right-hand sides
/// `e_u - e_v` differ only in the sink term, so the previous potential
/// vector is an excellent initial guess. Groups fan out across the
/// global [`splpg_par`] pool; each group is solved sequentially by one
/// worker, so results are **bit-identical at every thread count**
/// (though not bit-identical to the unpreconditioned
/// [`effective_resistance`] reference — it is a different Krylov
/// iteration converging to the same answer within tolerance).
///
/// Unlike [`solve_laplacian`], disconnected graphs are supported: each
/// solve projects per connected component, and only a pair *spanning*
/// two components is an error. This is what the distributed setup path
/// needs — partition-local subgraphs keep all global node ids and are
/// never connected.
///
/// For batches of *edges* prefer [`crate::SolverEngine::edge_resistances`],
/// which additionally reuses one solve per distinct endpoint node.
///
/// # Errors
///
/// [`LinalgError::DimensionMismatch`] for an out-of-range endpoint,
/// [`LinalgError::Disconnected`] for a pair spanning two components
/// (checked for all pairs before any solve runs), or a solver error
/// ([`LinalgError::Breakdown`] / [`LinalgError::NoConvergence`]).
pub fn effective_resistances_with_stats(
    graph: &Graph,
    pairs: &[(NodeId, NodeId)],
    options: CgOptions,
) -> Result<(Vec<f64>, SolveStats), LinalgError> {
    let ctx = SolverContext::new(graph, EngineOptions::with_cg(options));
    for &(u, v) in pairs {
        ctx.check_pair(u, v)?;
    }
    // Sort pair indices so pairs sharing a first endpoint become
    // adjacent; each run is one warm-start chain.
    let mut order: Vec<u32> = (0..pairs.len() as u32).collect();
    order.sort_unstable_by_key(|&i| pairs[i as usize]);
    let mut groups: Vec<(usize, usize)> = Vec::new();
    let mut start = 0usize;
    while start < order.len() {
        let u = pairs[order[start] as usize].0;
        let mut end = start + 1;
        while end < order.len() && pairs[order[end] as usize].0 == u {
            end += 1;
        }
        groups.push((start, end));
        start = end;
    }
    let solved = splpg_par::global()
        .parallel_map_chunks(&groups, 1, |_, &(s, e)| solve_group(&ctx, pairs, &order[s..e]));
    let mut out = vec![0.0; pairs.len()];
    let mut stats = SolveStats::default();
    for group in solved {
        let (values, group_stats) = group?;
        for (idx, r) in values {
            out[idx as usize] = r;
        }
        stats.merge(&group_stats);
    }
    Ok((out, stats))
}

/// Solves one warm-start chain: pairs sharing a first endpoint, in
/// sorted order, each seeded with the previous solution. Returns
/// `(original index, resistance)` per pair plus the chain's stats.
fn solve_group(
    ctx: &SolverContext<'_>,
    pairs: &[(NodeId, NodeId)],
    idxs: &[u32],
) -> Result<(Vec<(u32, f64)>, SolveStats), LinalgError> {
    let mut ws = CgWorkspace::new();
    let mut stats = SolveStats::default();
    let mut values = Vec::with_capacity(idxs.len());
    let mut warm = false;
    let mut cold_iters = 0usize;
    for &idx in idxs {
        let (u, v) = pairs[idx as usize];
        if u == v {
            values.push((idx, 0.0));
            continue;
        }
        let (resistance, iters) = ctx.solve_pair(&mut ws, u, v, warm, &mut stats)?;
        if warm {
            stats.warm_start_hits += 1;
            stats.warm_start_saved_iterations += cold_iters.saturating_sub(iters) as u64;
        } else {
            cold_iters = iters;
            warm = true;
        }
        values.push((idx, resistance));
    }
    stats.workspace_allocs = ws.alloc_events();
    Ok((values, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_resistance_is_hop_count() {
        // Series resistors: r(0, k) = k on a path.
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        for k in 1..5 {
            let r = effective_resistance(&g, 0, k, CgOptions::default()).unwrap();
            assert!((r - k as f64).abs() < 1e-6, "r(0,{k}) = {r}");
        }
    }

    #[test]
    fn triangle_resistance() {
        // Edge in a triangle: 1 ohm parallel with 2 ohms = 2/3.
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
        let r = effective_resistance(&g, 0, 1, CgOptions::default()).unwrap();
        assert!((r - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn complete_graph_resistance() {
        // K_n: r(u,v) = 2/n for any pair.
        let n = 6u32;
        let mut edges = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                edges.push((i, j));
            }
        }
        let g = Graph::from_edges(n as usize, &edges).unwrap();
        let r = effective_resistance(&g, 0, 5, CgOptions::default()).unwrap();
        assert!((r - 2.0 / n as f64).abs() < 1e-6);
    }

    #[test]
    fn weighted_edge_resistance() {
        // Single edge of weight 4 => conductance 4 => resistance 1/4.
        let mut b = splpg_graph::GraphBuilder::new(2);
        b.add_weighted_edge(0, 1, 4.0).unwrap();
        let g = b.build();
        let r = effective_resistance(&g, 0, 1, CgOptions::default()).unwrap();
        assert!((r - 0.25).abs() < 1e-6);
    }

    #[test]
    fn self_pair_resistance_zero() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        assert_eq!(effective_resistance(&g, 1, 1, CgOptions::default()).unwrap(), 0.0);
    }

    #[test]
    fn disconnected_rejected() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let err = effective_resistance(&g, 0, 2, CgOptions::default()).unwrap_err();
        assert_eq!(err, LinalgError::Disconnected);
    }

    #[test]
    fn solve_returns_mean_free_solution() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]).unwrap();
        let mut b = vec![1.0, -1.0, 0.5, -0.5];
        remove_mean(&mut b);
        let out = solve_laplacian(&g, &b, CgOptions::default()).unwrap();
        assert!(out.solution.iter().sum::<f64>().abs() < 1e-8);
        // Verify residual: L x ~= b
        let op = LaplacianOperator::new(&g);
        let lx = op.apply(&out.solution).unwrap();
        for (a, c) in lx.iter().zip(&b) {
            assert!((a - c).abs() < 1e-6);
        }
    }

    #[test]
    fn out_of_range_endpoint_rejected() {
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        assert!(effective_resistance(&g, 0, 7, CgOptions::default()).is_err());
    }

    #[test]
    fn batch_resistances_thread_invariant_and_match_reference() {
        let g = Graph::from_edges(
            6,
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3), (1, 4)],
        )
        .unwrap();
        let pairs: Vec<(NodeId, NodeId)> =
            g.edges().iter().map(|e| (e.src, e.dst)).collect();
        splpg_par::set_num_threads(1);
        let one = effective_resistances_with_stats(&g, &pairs, CgOptions::default()).unwrap().0;
        for threads in [3usize, 8] {
            splpg_par::set_num_threads(threads);
            let batch =
                effective_resistances_with_stats(&g, &pairs, CgOptions::default()).unwrap().0;
            assert_eq!(batch, one, "bitwise thread invariance at {threads} threads");
        }
        splpg_par::set_num_threads(0);
        for (i, &(u, v)) in pairs.iter().enumerate() {
            let reference = effective_resistance(&g, u, v, CgOptions::default()).unwrap();
            let rel = (one[i] - reference).abs() / reference;
            assert!(rel < 1e-6, "pair ({u},{v}): engine {} vs reference {reference}", one[i]);
        }
    }

    #[test]
    fn batch_resistances_propagate_errors() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let err =
            effective_resistances_with_stats(&g, &[(0, 2)], CgOptions::default()).unwrap_err();
        assert_eq!(err, LinalgError::Disconnected);
    }

    #[test]
    fn batch_allows_same_component_pairs_on_disconnected_graph() {
        // Two disjoint single edges: each pair is valid within its own
        // component (resistance 1), even though the graph as a whole is
        // disconnected. This is the partition-local shape dist::setup
        // produces.
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let pairs = [(0, 1), (2, 3)];
        let (rs, _) = effective_resistances_with_stats(&g, &pairs, CgOptions::default()).unwrap();
        for r in rs {
            assert!((r - 1.0).abs() < 1e-6, "single-edge resistance {r}");
        }
    }

    #[test]
    fn batch_stats_record_warm_starts() {
        // Star around node 0: every pair shares the first endpoint, so
        // all solves after the first warm start from its solution.
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)]).unwrap();
        let pairs = [(0u32, 1u32), (0, 2), (0, 3), (0, 4)];
        let (rs, stats) =
            effective_resistances_with_stats(&g, &pairs, CgOptions::default()).unwrap();
        assert_eq!(rs.len(), 4);
        assert_eq!(stats.solves, 4);
        assert_eq!(stats.warm_start_hits, 3, "three of four solves share endpoint 0");
        assert!(stats.iterations > 0);
    }

    #[test]
    fn foster_theorem_on_cycle() {
        // Foster: sum of effective resistances over edges = n - 1.
        let n = 8usize;
        let edges: Vec<(NodeId, NodeId)> =
            (0..n).map(|i| (i as NodeId, ((i + 1) % n) as NodeId)).collect();
        let g = Graph::from_edges(n, &edges).unwrap();
        let total: f64 = g
            .edges()
            .iter()
            .map(|e| effective_resistance(&g, e.src, e.dst, CgOptions::default()).unwrap())
            .sum();
        assert!((total - (n as f64 - 1.0)).abs() < 1e-5, "Foster sum {total}");
    }
}
