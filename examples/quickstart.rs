//! Quickstart: train SpLPG on a synthetic Cora stand-in and compare it to
//! centralized training.
//!
//! ```sh
//! cargo run -p splpg-examples --bin quickstart --release
//! ```

#![expect(clippy::print_stdout, reason = "a binary prints what the libraries return")]

use splpg::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Generate a synthetic dataset matched to Cora's statistics at 20%
    //    scale (see splpg-datasets for the full Table I registry).
    let data = DatasetSpec::cora().generate(Scale::small(), 42)?;
    println!(
        "dataset: {} ({} nodes, {} edges, {} features)",
        data.name,
        data.graph.num_nodes(),
        data.graph.num_edges(),
        data.features.dim()
    );

    // 2. Train with SpLPG across 4 simulated workers.
    let splpg = SpLpg::builder()
        .workers(4)
        .strategy(Strategy::SpLpg)
        .sparsification_alpha(0.15)
        .epochs(10)
        .hidden(32)
        .layers(2)
        .fanouts(vec![Some(10), Some(5)])
        .hits_k(50)
        .build();
    let out = splpg.run(ModelKind::GraphSage, &data)?;
    println!("\nSpLPG (p = 4):");
    println!("  test Hits@50       = {:.3}", out.test_hits);
    println!("  comm per epoch     = {:.3} MB", out.comm.mean_epoch_bytes() as f64 / 1e6);
    println!("  sparsification     = {:?}", out.sparsify_time);

    // 3. Centralized reference on the same data.
    let central = SpLpg::builder()
        .workers(1)
        .strategy(Strategy::Centralized)
        .epochs(10)
        .hidden(32)
        .layers(2)
        .fanouts(vec![Some(10), Some(5)])
        .hits_k(50)
        .build()
        .run(ModelKind::GraphSage, &data)?;
    println!("\nCentralized:");
    println!("  test Hits@50       = {:.3}", central.test_hits);
    println!("  comm per epoch     = 0 (single machine)");

    println!(
        "\nSpLPG recovered {:.1}% of centralized accuracy.",
        100.0 * out.test_hits / central.test_hits.max(1e-9)
    );
    Ok(())
}
