//! Cluster over real sockets: multi-process training on loopback TCP.
//!
//! Re-executes this binary once per worker (role handoff through
//! environment variables, rendezvous through an ephemeral port file),
//! trains SpLPG across the resulting processes, once with model
//! averaging and once with gradient averaging every mini-batch, and
//! checks each outcome bit-for-bit against the sequential in-process
//! reference — the same guarantee the in-memory channel cluster gives,
//! now with every frame crossing a real socket. Prints `SKIP` and exits
//! cleanly when the sandbox offers no loopback sockets.
//!
//! ```sh
//! cargo run -p splpg-examples --bin cluster_tcp --release
//! ```

#![expect(clippy::print_stdout, clippy::print_stderr, reason = "a binary prints what the libraries return")]

use splpg::prelude::*;

const SEED: u64 = 29;
const WORKERS: usize = 2;
/// Each run's synchronization, named by the child argument that tells a
/// spawned worker which run it serves.
const SYNCS: [(&str, SyncMethod); 2] =
    [("ma", SyncMethod::ModelAveraging), ("ga", SyncMethod::GradientAveraging)];

fn trainer(workers: usize, sync: SyncMethod) -> DistTrainer {
    let dist =
        DistConfig { num_workers: workers, strategy: Strategy::SpLpg, sync, ..Default::default() };
    let train = TrainConfig {
        epochs: 2,
        hidden: 8,
        layers: 2,
        fanouts: vec![Some(5), Some(5)],
        hits_k: 10,
        batch_size: 128,
        seed: SEED,
        ..Default::default()
    };
    DistTrainer::new(dist, train)
}

fn dataset() -> Result<Dataset, String> {
    DatasetSpec::cora().generate(Scale::new(0.05, 16), 5).map_err(|e| e.to_string())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Spawned worker child? Serve the whole worker lifetime, then exit
    // without launching anything (a launching worker would fork-bomb).
    let served = tcp_worker_entry(|workers| {
        let data = dataset().map_err(splpg::dist::DistError::Process)?;
        let arg = std::env::args().nth(1).unwrap_or_default();
        let (_, sync) = SYNCS
            .into_iter()
            .find(|&(name, _)| name == arg)
            .ok_or_else(|| splpg::dist::DistError::Process(format!("unknown sync `{arg}`")))?;
        Ok((trainer(workers, sync), ModelKind::GraphSage, data))
    })?;
    if served {
        return Ok(());
    }

    if std::net::TcpListener::bind(("127.0.0.1", 0)).is_err() {
        println!("SKIP: loopback sockets unavailable in this environment");
        return Ok(());
    }

    let data = dataset()?;
    eprintln!(
        "dataset: {} ({} nodes, {} edges); {WORKERS} worker processes over loopback TCP",
        data.name,
        data.graph.num_nodes(),
        data.graph.num_edges()
    );

    for (name, sync) in SYNCS {
        let t = trainer(WORKERS, sync);
        let reference = t.run_reference(ModelKind::GraphSage, &data)?;
        let out = t.run_multiprocess(ModelKind::GraphSage, &data, &[name.to_string()])?;

        // Deterministic, diffable summary: bit-exact floats via hex bits.
        println!("sync {sync:?}");
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
            "final: hits {:.4} [{:016x}] comm_bytes {} data_bytes {}",
            out.test_hits,
            out.test_hits.to_bits(),
            out.comm.total_bytes(),
            out.net.data_bytes
        );

        let identical = out.test_hits.to_bits() == reference.test_hits.to_bits()
            && out.epochs.len() == reference.epochs.len()
            && out
                .epochs
                .iter()
                .zip(&reference.epochs)
                .all(|(a, b)| a.mean_loss.to_bits() == b.mean_loss.to_bits());
        println!("bit-identical to sequential reference: {identical}");
        println!(
            "socket data bytes reconcile with comm meters: {}",
            out.net.data_bytes == out.comm.total_bytes()
        );
        if !identical || out.net.data_bytes != out.comm.total_bytes() {
            let diverged = format!("{sync:?}: multi-process run diverged from the reference");
            return Err(diverged.into());
        }

        // Timing-dependent wire counters — stderr only.
        eprintln!("wire: {} frames, {} bytes on the socket", out.net.messages, out.net.bytes);
    }
    eprintln!(
        "\nTakeaway: the transport is invisible to training — the same frames\n\
         over real sockets produce the same bits as threads and channels."
    );
    Ok(())
}
