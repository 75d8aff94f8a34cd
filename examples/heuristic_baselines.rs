//! Classical heuristics vs a trained GNN.
//!
//! The paper's Section II-A surveys pre-GNN link-prediction heuristics
//! (common neighbors, Jaccard, preferential attachment). This example
//! scores the test split with each heuristic and with a trained GraphSAGE
//! model, reporting Hits@K, AUC and MRR side by side — and doubling as a
//! sanity check that the synthetic datasets are neither trivial nor
//! hopeless.
//!
//! ```sh
//! cargo run -p splpg-examples --bin heuristic_baselines --release
//! ```

#![expect(clippy::print_stdout, reason = "a binary prints what the libraries return")]

use splpg::gnn::heuristics::Heuristic;
use splpg::gnn::metrics;
use splpg::gnn::trainer::train_centralized;
use splpg::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let data = DatasetSpec::cora().generate(Scale::small(), 31)?;
    let train_graph = data.train_graph();
    let k = ((data.split.test_neg.len() as f64 * 0.036) as usize).max(10);
    println!(
        "dataset: {} ({} nodes, {} train edges), Hits@{k}\n",
        data.name,
        data.graph.num_nodes(),
        train_graph.num_edges()
    );
    println!("{:<26} {:>10} {:>8} {:>8}", "method", &format!("Hits@{k}"), "AUC", "MRR");

    for h in Heuristic::ALL {
        let pos = h.score_edges(&train_graph, &data.split.test);
        let neg = h.score_edges(&train_graph, &data.split.test_neg);
        println!(
            "{:<26} {:>10.3} {:>8.3} {:>8.3}",
            h.name(),
            metrics::hits_at_k(&pos, &neg, k)?,
            metrics::auc(&pos, &neg)?,
            metrics::mrr(&pos, &neg)?,
        );
    }

    // GraphSAGE, centralized, modest budget.
    let config = TrainConfig {
        layers: 2,
        hidden: 32,
        epochs: 40,
        fanouts: vec![Some(10), Some(5)],
        hits_k: k,
        ..TrainConfig::default()
    };
    let trained =
        train_centralized(ModelKind::GraphSage, &data.graph, &data.features, &data.split, &config)?;
    println!("{:<26} {:>10.3} {:>8} {:>8}", "GraphSAGE (40 epochs)", trained.test_hits, "-", "-");
    println!(
        "\nExpected: neighborhood heuristics do well on homophilous graphs;\n\
         the GNN should at least match the best heuristic by combining\n\
         structure with features."
    );
    Ok(())
}
