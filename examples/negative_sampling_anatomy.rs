//! Negative-sampling anatomy: why local negative samples hurt.
//!
//! Reproduces the insight of Section III-B / Figure 5 numerically: under a
//! METIS-style partition, a worker restricted to its own partition can only
//! ever draw *local* negative pairs, while the true negative sample space
//! is dominated by *global* (cross-partition) pairs. RandomTMA avoids the
//! bias but destroys neighborhood structure instead.
//!
//! ```sh
//! cargo run -p splpg-examples --bin negative_sampling_anatomy --release
//! ```

#![expect(clippy::print_stdout, reason = "a binary prints what the libraries return")]

use splpg_rng::SeedableRng;
use splpg::partition::{PartitionedGraph, RandomTma, SuperTma};
use splpg::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let data = DatasetSpec::pubmed().generate(Scale::tiny(), 5)?;
    let g = data.train_graph();
    let n = g.num_nodes() as u64;
    let mut rng = splpg_rng::rngs::StdRng::seed_from_u64(2);

    println!("dataset: {} ({} nodes, {} train edges)\n", data.name, n, g.num_edges());
    println!(
        "{:<12} {:>4} {:>12} {:>16} {:>18}",
        "partitioner", "p", "edge cut", "local edges %", "local neg space %"
    );

    for p in [4usize, 8, 16] {
        for (name, partition) in [
            ("METIS", MetisLike::default().partition(&g, p, &mut rng)?),
            ("RandomTMA", RandomTma.partition(&g, p, &mut rng)?),
            ("SuperTMA", SuperTma::default().partition(&g, p, &mut rng)?),
        ] {
            // Fraction of all node pairs that a single worker can reach
            // when restricted to its own partition (the "local" negative
            // sample space of Figure 5).
            let local_pairs: u64 = partition
                .part_sizes()
                .iter()
                .map(|&s| (s as u64) * (s as u64 - 1) / 2)
                .sum();
            let all_pairs = n * (n - 1) / 2;
            println!(
                "{:<12} {:>4} {:>12} {:>15.1}% {:>17.2}%",
                name,
                p,
                partition.edge_cut(&g),
                100.0 * partition.local_edge_fraction(&g),
                100.0 * local_pairs as f64 / all_pairs as f64,
            );
        }
    }

    // Positive-sample loss without halo retention.
    println!("\npositive samples visible to workers (p = 4, METIS):");
    let partition = MetisLike::default().partition(&g, 4, &mut rng)?;
    let cut = PartitionedGraph::build(&g, &partition, false);
    let halo = PartitionedGraph::build(&g, &partition, true);
    println!("  without halo: {} of {} edges", cut.total_edges(), g.num_edges());
    println!(
        "  with halo   : {} edge slots ({} cross-partition edges duplicated)",
        halo.total_edges(),
        partition.edge_cut(&g)
    );
    println!(
        "\nTakeaway: with p partitions the local negative space shrinks to\n\
         ~1/p of all pairs, so training never sees cross-partition negatives\n\
         — exactly the information loss SpLPG's shared sparsified subgraphs\n\
         repair."
    );
    Ok(())
}
