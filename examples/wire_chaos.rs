//! Wire chaos: training through a deterministically faulty network.
//!
//! Runs the ISSUE's fault-injection scenario end-to-end: three workers,
//! 10% frame drops, 5% duplicates, worker 2 crashing at epoch 1, and a
//! quorum of `p - 1 = 2` so the run survives the crash. Everything that
//! depends only on the seed — loss curve, accuracy, communication meters,
//! crash detection — is printed to **stdout**, which must therefore be
//! byte-identical across runs and thread counts (`scripts/verify.sh`
//! diffs it at `SPLPG_NUM_THREADS=1` vs `4`). Timing-dependent wire
//! counters (retries, observed drops) go to stderr.
//!
//! ```sh
//! cargo run -p splpg-examples --bin wire_chaos --release
//! ```

#![expect(clippy::print_stdout, clippy::print_stderr, reason = "a binary prints what the libraries return")]

use splpg::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let data = DatasetSpec::citeseer().generate(Scale::new(0.05, 16), 3)?;
    eprintln!(
        "dataset: {} ({} nodes, {} edges); 3 workers, quorum 2, \
         drop=0.10 dup=0.05, worker 2 crashes at epoch 1",
        data.name,
        data.graph.num_nodes(),
        data.graph.num_edges()
    );

    let out = SpLpg::builder()
        .workers(3)
        .strategy(Strategy::SpLpg)
        .sync(SyncMethod::ModelAveraging)
        .epochs(3)
        .hidden(8)
        .layers(2)
        .fanouts(vec![Some(5), Some(5)])
        .hits_k(10)
        .seed(29)
        .quorum(2)
        .retry(RetryPolicy { timeout_ms: 200, max_retries: 4, backoff: 2 })
        .wire_faults(FaultPlan {
            drop: 0.1,
            duplicate: 0.05,
            seed: 33,
            crashes: vec![(2, 1)],
            ..FaultPlan::default()
        })
        .build()
        .run(ModelKind::GraphSage, &data)?;

    // Deterministic, diffable summary: bit-exact floats via hex bits.
    for e in &out.epochs {
        println!(
            "epoch {:>2}: loss {:.6} [{:08x}] valid_hits {:?}",
            e.epoch,
            e.mean_loss,
            e.mean_loss.to_bits(),
            e.valid_hits
        );
    }
    println!(
        "final: hits {:.4} [{:016x}] comm_bytes {} data_bytes {} dead {:?}",
        out.test_hits,
        out.test_hits.to_bits(),
        out.comm.total_bytes(),
        out.net.data_bytes,
        out.net.dead_workers
    );

    // Timing-dependent observability (retry/drop counts vary with how many
    // retransmissions the scheduler needed) — stderr only.
    eprintln!(
        "wire: {} msgs, {} bytes, {} dropped, {} duplicated, {} retries",
        out.net.messages, out.net.bytes, out.net.dropped, out.net.duplicated, out.net.retries
    );
    eprintln!(
        "\nTakeaway: the fault layer is a pure function of (lane, kind, message\n\
         id), so a given seed injects the same chaos every run — the training\n\
         outcome above is bit-identical across runs and thread counts."
    );
    Ok(())
}
