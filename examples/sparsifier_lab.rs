//! Sparsifier lab: explore the effective-resistance sparsifier on its own.
//!
//! Shows (1) that the degree-based scores of Theorem 2 bracket the exact
//! effective resistances, (2) the spectral quality of the sparsified graph
//! (Theorem 1's quadratic form), and (3) the edge-retention curve across
//! sparsification levels alpha.
//!
//! ```sh
//! cargo run -p splpg-examples --bin sparsifier_lab --release
//! ```

#![expect(clippy::print_stdout, reason = "a binary prints what the libraries return")]

use splpg_rng::{Rng, SeedableRng};
use splpg::linalg::{
    effective_resistance, lambda2_normalized, quadratic_form, CgOptions, PowerIterOptions,
};
use splpg::prelude::*;
use splpg::sparsify::DegreeSparsifier;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = splpg_rng::rngs::StdRng::seed_from_u64(1);

    // A small community graph where exact resistances are computable.
    let data = DatasetSpec::cora().generate(Scale::new(0.03, 8), 3)?;
    let g = &data.graph;
    println!("graph: {} nodes, {} edges", g.num_nodes(), g.num_edges());

    // 1. Theorem 2 bracket on a sample of edges.
    let gamma = lambda2_normalized(g, PowerIterOptions::default());
    match gamma {
        Ok(gamma) => {
            println!("\nTheorem 2: gamma = lambda2(L_sym) = {gamma:.4}");
            println!("{:>8} {:>8} {:>12} {:>12} {:>12}", "u", "v", "approx", "exact r", "upper");
            for e in g.edges().iter().step_by((g.num_edges() / 8).max(1)).take(8) {
                let base =
                    1.0 / g.degree(e.src) as f64 + 1.0 / g.degree(e.dst) as f64;
                let r = effective_resistance(g, e.src, e.dst, CgOptions::default())?;
                println!(
                    "{:>8} {:>8} {:>12.4} {:>12.4} {:>12.4}",
                    e.src,
                    e.dst,
                    base,
                    r,
                    base / gamma
                );
            }
        }
        Err(_) => println!("\n(graph disconnected; skipping exact-resistance bracket)"),
    }

    // 2. Spectral preservation: compare x^T L x before/after sparsifying.
    println!("\nTheorem 1 check (alpha = 0.5, 5 random vectors):");
    let sparse = DegreeSparsifier::new(SparsifyConfig::with_alpha(0.5)).sparsify(g, &mut rng)?;
    for i in 0..5 {
        let x: Vec<f64> = (0..g.num_nodes()).map(|_| rng.gen::<f64>() - 0.5).collect();
        let qf = quadratic_form(g, &x)?;
        let qs = quadratic_form(&sparse, &x)?;
        println!("  vector {i}: x'Lx = {qf:9.2}  x'L~x = {qs:9.2}  ratio = {:.3}", qs / qf);
    }

    // 3. Edge retention across the paper's alpha grid.
    println!("\nedge retention (paper: alpha = 0.15 keeps 10-15% of edges):");
    println!("{:>8} {:>12} {:>12}", "alpha", "edges kept", "fraction");
    for alpha in [0.05, 0.10, 0.15, 0.20, 0.50] {
        let s = DegreeSparsifier::new(SparsifyConfig::with_alpha(alpha)).sparsify(g, &mut rng)?;
        println!(
            "{:>8.2} {:>12} {:>12.3}",
            alpha,
            s.num_edges(),
            s.num_edges() as f64 / g.num_edges() as f64
        );
    }
    Ok(())
}
