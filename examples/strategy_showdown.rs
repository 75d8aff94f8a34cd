//! Strategy showdown: the paper's core experiment in miniature.
//!
//! Trains one GraphSAGE model per distributed strategy on the same
//! dataset, printing accuracy and communication cost side by side —
//! demonstrating the accuracy/communication trade-off that motivates
//! SpLPG (Figures 3, 4, 8–11 of the paper).
//!
//! ```sh
//! cargo run -p splpg-examples --bin strategy_showdown --release
//! ```

#![expect(clippy::print_stdout, reason = "a binary prints what the libraries return")]

use splpg::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let data = DatasetSpec::citeseer().generate(Scale::small(), 11)?;
    println!(
        "dataset: {} ({} nodes, {} edges)\n",
        data.name,
        data.graph.num_nodes(),
        data.graph.num_edges()
    );

    let strategies = [
        Strategy::Centralized,
        Strategy::PsgdPa,
        Strategy::RandomTma,
        Strategy::SuperTma,
        Strategy::Llcg,
        Strategy::PsgdPaPlus,
        Strategy::SpLpg,
        Strategy::SpLpgPlus,
    ];

    println!("{:<14} {:>10} {:>16} {:>14}", "strategy", "Hits@50", "comm MB/epoch", "sparsify ms");
    for strategy in strategies {
        let out = SpLpg::builder()
            .workers(if strategy == Strategy::Centralized { 1 } else { 4 })
            .strategy(strategy)
            .epochs(8)
            .hidden(32)
            .layers(2)
            .fanouts(vec![Some(10), Some(5)])
            .hits_k(50)
            .build()
            .run(ModelKind::GraphSage, &data)?;
        println!(
            "{:<14} {:>10.3} {:>16.3} {:>14.1}",
            strategy.name(),
            out.test_hits,
            out.comm.mean_epoch_bytes() as f64 / 1e6,
            out.sparsify_time.as_secs_f64() * 1e3,
        );
    }
    println!(
        "\nExpected shape (paper): local-only strategies lose accuracy; the\n\
         '+' variants recover it at high communication; SpLPG recovers it\n\
         at a fraction of the '+' cost."
    );
    Ok(())
}
