//! Fault tolerance: SpLPG training under worker preemption.
//!
//! The paper assumes reliable workers; real clusters don't have them. This
//! example injects per-epoch worker crashes (a crashed worker skips the
//! epoch and is excluded from model averaging, rejoining with the fresh
//! global model) and shows accuracy degrading gracefully with the failure
//! rate.
//!
//! ```sh
//! cargo run -p splpg-examples --bin fault_tolerance --release
//! ```

#![expect(clippy::print_stdout, reason = "a binary prints what the libraries return")]

use splpg::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let data = DatasetSpec::cora().generate(Scale::small(), 23)?;
    println!(
        "dataset: {} ({} nodes, {} edges), 4 workers, SpLPG\n",
        data.name,
        data.graph.num_nodes(),
        data.graph.num_edges()
    );
    println!("{:>14} {:>12} {:>16}", "failure rate", "Hits@K", "worker-epochs lost");
    for rate in [0.0, 0.1, 0.25, 0.5] {
        let mut builder = SpLpg::builder();
        builder
            .workers(4)
            .strategy(Strategy::SpLpg)
            .epochs(40)
            .hidden(32)
            .layers(2)
            .fanouts(vec![Some(10), Some(5)])
            .hits_k(40)
            .eval_every(4);
        if rate > 0.0 {
            builder.faults(FaultConfig { failure_probability: rate, seed: 99 });
        }
        let out = builder.build().run(ModelKind::GraphSage, &data)?;
        println!("{:>13}% {:>12.3} {:>16}", rate * 100.0, out.test_hits, out.failures.len());
    }
    println!(
        "\nTakeaway: synchronous model averaging absorbs worker loss — the\n\
         surviving replicas keep the global model moving, so accuracy decays\n\
         smoothly instead of the run failing."
    );
    Ok(())
}
