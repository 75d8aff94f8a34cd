//! Property-based invariants of the effective-resistance solver engine
//! (`splpg_linalg::SolverEngine`), checked with the in-tree
//! [`splpg_tests::prop`] harness:
//!
//! 1. the Jacobi-preconditioned multi-RHS engine agrees with the
//!    unpreconditioned single-pair reference on random connected graphs;
//! 2. engine resistances are *bitwise* identical at 1 and 4 threads,
//!    even when the parallel matvec path is forced on — the contiguous
//!    range partitioning never reorders floating-point accumulation;
//! 3. the per-node-reuse `ExactSparsifier` path satisfies two spectral
//!    identities: Foster's theorem (`sum_e R_e = n - 1` on connected
//!    unit-weight graphs, a trace identity of `L^+ L`) and the
//!    Theorem 1/2 bracket `d_uv / 2 <= R_uv <= d_uv / gamma` with
//!    `gamma = lambda2_normalized` (the paper's spectral-gap bound).
//!
//! A fixed-fixture test then holds the engine to what it must deliver
//! over the per-edge path it replaced.

use splpg::graph::{Graph, GraphBuilder, NodeId};
use splpg::datasets::{generate_community_graph, CommunityGraphParams};
use splpg::linalg::{
    effective_resistance, lambda2_normalized, solve_laplacian, CgOptions, EngineOptions,
    PowerIterOptions, SolverEngine,
};
use splpg::sparsify::{DegreeSparsifier, ExactSparsifier};
use splpg_rng::rngs::StdRng;
use splpg_rng::{Rng, RngCore, SeedableRng};
use splpg_tests::at_pool_size;
use splpg_tests::prop::{check, shrink_usize, Config};

/// A connected random graph: a Hamiltonian ring (connectivity) plus
/// `n` extra random chords, deterministic in `seed`. Unit weights;
/// duplicate chords are deduplicated by the builder.
fn ring_graph(n: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    for v in 0..n {
        b.add_edge(v as NodeId, ((v + 1) % n) as NodeId).unwrap();
    }
    for _ in 0..n {
        let u = rng.gen_range(0..n) as NodeId;
        let v = rng.gen_range(0..n) as NodeId;
        if u != v {
            b.add_edge(u, v).unwrap();
        }
    }
    b.build()
}

/// Shrink a `(n, seed)` case: smaller graphs first, then simpler seeds.
fn shrink_graph_case(&(n, seed): &(usize, u64)) -> Vec<(usize, u64)> {
    let mut out: Vec<(usize, u64)> =
        shrink_usize(n, 4).into_iter().map(|m| (m, seed)).collect();
    if seed > 0 {
        out.push((n, seed / 2));
    }
    out
}

fn edge_pairs(g: &Graph) -> Vec<(NodeId, NodeId)> {
    g.edges().iter().map(|e| (e.src, e.dst)).collect()
}

#[test]
fn engine_matches_unpreconditioned_reference_on_random_graphs() {
    check(
        Config::default().with_cases(32),
        |rng| (rng.gen_range(4..32usize), rng.next_u64()),
        shrink_graph_case,
        |&(n, seed)| {
            let g = ring_graph(n, seed);
            let pairs = edge_pairs(&g);
            let mut engine = SolverEngine::new(&g, ExactSparsifier::engine_options());
            let rs = engine
                .edge_resistances(&pairs)
                .map_err(|e| format!("engine failed: {e}"))?;
            for (&r, &(u, v)) in rs.iter().zip(&pairs) {
                let reference = effective_resistance(&g, u, v, CgOptions::default())
                    .map_err(|e| format!("reference failed on ({u},{v}): {e}"))?;
                let rel = (r - reference).abs() / reference.abs().max(f64::MIN_POSITIVE);
                if rel > 1e-6 {
                    return Err(format!(
                        "edge ({u},{v}): engine {r} vs reference {reference} \
                         (rel err {rel:.3e})"
                    ));
                }
            }
            Ok(())
        },
    );
}

#[test]
fn engine_resistances_bitwise_invariant_across_thread_counts() {
    // Force the parallel matvec on (threshold 0) so small graphs still
    // exercise the pool dispatch; 1 thread vs 4 must agree bit-for-bit.
    let forced = EngineOptions { par_flop_threshold: 0, ..ExactSparsifier::engine_options() };
    check(
        Config::default().with_cases(16),
        |rng| (rng.gen_range(6..40usize), rng.next_u64()),
        shrink_graph_case,
        |&(n, seed)| {
            let g = ring_graph(n, seed);
            let pairs = edge_pairs(&g);
            let mut bits: Vec<Vec<u64>> = Vec::new();
            for threads in [1usize, 4] {
                splpg_par::set_num_threads(threads);
                let mut engine = SolverEngine::new(&g, forced);
                let rs = engine
                    .edge_resistances(&pairs)
                    .map_err(|e| format!("engine failed at {threads} threads: {e}"))?;
                bits.push(rs.iter().map(|r| r.to_bits()).collect());
            }
            splpg_par::set_num_threads(0);
            if bits[0] != bits[1] {
                return Err("resistances diverged between 1 and 4 threads".to_string());
            }
            Ok(())
        },
    );
}

#[test]
fn exact_path_satisfies_foster_sum_and_spectral_bracket() {
    check(
        Config::default().with_cases(24),
        |rng| (rng.gen_range(4..28usize), rng.next_u64()),
        shrink_graph_case,
        |&(n, seed)| {
            let g = ring_graph(n, seed);
            let rs = ExactSparsifier::resistances(&g)
                .map_err(|e| format!("resistances failed: {e}"))?;
            // Foster's theorem: sum of unit-weight edge resistances is
            // exactly n - 1 on a connected graph (tr(L^+ L) = rank L).
            let total: f64 = rs.iter().sum();
            let expect = (n - 1) as f64;
            if (total - expect).abs() > 1e-6 * expect.max(1.0) {
                return Err(format!("Foster sum {total} != n - 1 = {expect}"));
            }
            // Spectral bracket through lambda2_normalized (Theorems 1/2):
            // d_uv / 2 <= R_uv <= d_uv / gamma.
            let gamma = lambda2_normalized(&g, PowerIterOptions::default())
                .map_err(|e| format!("lambda2 failed: {e}"))?;
            let base = DegreeSparsifier::scores(&g);
            for ((&r, &d), e) in rs.iter().zip(&base).zip(g.edges()) {
                if r < d / 2.0 - 1e-9 || r > d / gamma + 1e-9 {
                    return Err(format!(
                        "edge ({},{}): R = {r} outside [{}, {}] (gamma = {gamma:.4})",
                        e.src,
                        e.dst,
                        d / 2.0,
                        d / gamma
                    ));
                }
            }
            Ok(())
        },
    );
}

#[test]
fn engine_beats_the_per_edge_baseline_on_a_community_graph() {
    // Baseline: one unpreconditioned whole-graph CG solve per edge. At
    // every pool size the engine (Jacobi-PCG, blocked multi-RHS, per-node
    // reuse) must match it within 1e-6 relative error, take no more PCG
    // iterations, do at least 5x less matvec work, and allocate nothing
    // in its workspaces once warmed up.
    let shape = CommunityGraphParams { nodes: 200, edges: 800, ..Default::default() };
    let g = generate_community_graph(&shape, &mut StdRng::seed_from_u64(6)).expect("valid").0;
    let pairs = edge_pairs(&g);
    let n = g.num_nodes();
    let mut baseline = Vec::with_capacity(pairs.len());
    let mut baseline_iterations = 0u64;
    for &(u, v) in &pairs {
        let mut b = vec![0.0f64; n];
        (b[u as usize], b[v as usize]) = (1.0, -1.0);
        let out = solve_laplacian(&g, &b, CgOptions::default()).expect("connected graph");
        baseline_iterations += out.iterations as u64;
        baseline.push(out.solution[u as usize] - out.solution[v as usize]);
    }
    let baseline_work = baseline_iterations * n as u64;
    for threads in [1, 2, 4, 8] {
        at_pool_size(threads, || {
            let mut engine = SolverEngine::new(&g, ExactSparsifier::engine_options());
            let mut out = Vec::with_capacity(pairs.len());
            engine.edge_resistances_into(&pairs, &mut out).expect("engine solve");
            for ((&r, &reference), &(u, v)) in out.iter().zip(&baseline).zip(&pairs) {
                let rel = (r - reference).abs() / reference.abs().max(f64::MIN_POSITIVE);
                assert!(rel <= 1e-6, "t{threads} ({u},{v}): {r} vs {reference} ({rel:.3e})");
            }
            engine.reset_stats();
            engine.edge_resistances_into(&pairs, &mut out).expect("engine solve");
            let stats = engine.stats();
            assert!(
                stats.iterations <= baseline_iterations,
                "t{threads}: {} PCG iterations vs {baseline_iterations}",
                stats.iterations
            );
            assert!(
                baseline_work >= 5 * stats.matvec_rows,
                "t{threads}: matvec work {} vs baseline {baseline_work}",
                stats.matvec_rows
            );
            for _ in 0..3 {
                engine.edge_resistances_into(&pairs, &mut out).expect("engine solve");
            }
            assert_eq!(engine.stats().workspace_allocs, 0, "t{threads}: steady state allocated");
        });
    }
}
