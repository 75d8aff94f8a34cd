//! Property-based invariants over the pipeline's structural guarantees,
//! checked with the in-tree [`splpg_tests::prop`] harness:
//!
//! 1. partitioning covers every node exactly once;
//! 2. SpLPG's halo retention keeps the *full* neighbor list of every
//!    core node (Algorithm 1's full-neighbor guarantee);
//! 3. sparsifier output never exceeds the `alpha * |E|` sample budget
//!    and keeps all nodes;
//! 4. the wire codec round-trips every message type bit-for-bit.

use std::sync::Arc;

use splpg::dist::{ClusterSetup, DistError, Strategy};
use splpg::gnn::GraphAccess;
use splpg::graph::{FeatureMatrix, Graph, GraphBuilder, NodeId};
use splpg::partition::{MetisLike, Partitioner};
use splpg::sparsify::{DegreeSparsifier, Sparsifier, SparsifyConfig};
use splpg_net::{FetchLedger, Message, MsgId, Request, Response};
use splpg_rng::rngs::StdRng;
use splpg_rng::{Rng, RngCore, SeedableRng};
use splpg_tests::prop::{check, shrink_usize, Config};

/// A connected random graph: a Hamiltonian ring (connectivity) plus
/// `n` extra random chords, deterministic in `seed`.
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

/// Shrink a `(n, seed)` graph case: smaller node counts first, then
/// alternative seeds near zero (simpler chord patterns).
fn shrink_graph_case(&(n, seed): &(usize, u64)) -> Vec<(usize, u64)> {
    let mut out: Vec<(usize, u64)> =
        shrink_usize(n, 4).into_iter().map(|m| (m, seed)).collect();
    if seed > 0 {
        out.push((n, seed / 2));
    }
    out
}

#[test]
fn partition_covers_every_node_exactly_once() {
    check(
        Config::default(),
        |rng| (rng.gen_range(4..60usize), rng.next_u64()),
        shrink_graph_case,
        |&(n, seed)| {
            let graph = ring_graph(n, seed);
            let parts = 2 + (seed % 3) as usize;
            let mut rng = StdRng::seed_from_u64(seed);
            let partition = MetisLike::default()
                .partition(&graph, parts, &mut rng)
                .map_err(|e| format!("partitioner failed: {e}"))?;
            if partition.assignments().len() != n {
                return Err(format!(
                    "{} assignments for {n} nodes",
                    partition.assignments().len()
                ));
            }
            let mut owners = vec![0usize; n];
            for part in 0..parts {
                for v in partition.part_nodes(part as u32) {
                    owners[v as usize] += 1;
                    if partition.part_of(v) != part as u32 {
                        return Err(format!(
                            "node {v} listed in part {part} but assigned to {}",
                            partition.part_of(v)
                        ));
                    }
                }
            }
            match owners.iter().position(|&c| c != 1) {
                None => Ok(()),
                Some(v) => Err(format!("node {v} owned {} times", owners[v])),
            }
        },
    );
}

#[test]
fn splpg_halo_keeps_full_neighbor_lists_of_core_nodes() {
    check(
        Config::default().with_cases(24),
        |rng| (rng.gen_range(6..40usize), rng.next_u64()),
        shrink_graph_case,
        |&(n, seed)| {
            let graph = Arc::new(ring_graph(n, seed));
            let features = Arc::new(FeatureMatrix::zeros(n, 4));
            let workers = 2 + (seed % 2) as usize;
            let mut setup = match ClusterSetup::build(
                &graph,
                &features,
                Strategy::SpLpg.spec(),
                workers,
                0.3,
                seed,
            ) {
                Ok(setup) => setup,
                // A node adjacent to every other has no negative: setup
                // rejects the graph, and there is no view to check.
                Err(DistError::InvalidConfig(_)) => return Ok(()),
                Err(e) => return Err(format!("setup failed: {e}")),
            };
            for w in &mut setup.workers {
                let wid = w.worker_id as u32;
                for v in setup.partition.part_nodes(wid) {
                    let mut expected: Vec<NodeId> = graph.neighbors(v).to_vec();
                    expected.sort_unstable();
                    expected.dedup();
                    let mut got: Vec<NodeId> =
                        w.view.neighbors(v).into_iter().map(|(u, _)| u).collect();
                    got.sort_unstable();
                    got.dedup();
                    if got != expected {
                        return Err(format!(
                            "worker {wid} core node {v}: halo view has neighbors \
                             {got:?}, full graph has {expected:?}"
                        ));
                    }
                }
            }
            Ok(())
        },
    );
}

#[test]
fn sparsifier_respects_alpha_budget_and_keeps_all_nodes() {
    check(
        Config::default(),
        |rng| (rng.gen_range(10..80usize), rng.next_u64()),
        shrink_graph_case,
        |&(n, seed)| {
            let graph = ring_graph(n, seed);
            let alpha = 0.2 + 0.6 * (seed % 7) as f64 / 7.0;
            let config = SparsifyConfig::with_alpha(alpha);
            let budget = config
                .resolve_samples(graph.num_edges())
                .map_err(|e| format!("budget failed: {e}"))?;
            let mut rng = StdRng::seed_from_u64(seed);
            let sparse = DegreeSparsifier::new(config)
                .sparsify(&graph, &mut rng)
                .map_err(|e| format!("sparsify failed: {e}"))?;
            if sparse.num_nodes() != graph.num_nodes() {
                return Err(format!(
                    "node count changed: {} -> {}",
                    graph.num_nodes(),
                    sparse.num_nodes()
                ));
            }
            if sparse.num_edges() > budget {
                return Err(format!(
                    "{} sampled edges exceed the alpha={alpha:.2} budget of \
                     {budget} (|E| = {})",
                    sparse.num_edges(),
                    graph.num_edges()
                ));
            }
            Ok(())
        },
    );
}

/// Random but reproducible instances of every message variant.
fn arbitrary_messages(seed: u64, payload_len: usize) -> Vec<Message> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut id = || MsgId {
        worker: rng.gen_range(0..16u32),
        epoch: rng.next_u64() % 1000,
        round: rng.next_u64() % 1000,
        attempt: rng.gen_range(0..8u32),
    };
    let mut rng2 = StdRng::seed_from_u64(seed ^ 0xABCD);
    let mut floats = |len: usize| -> Vec<f32> {
        (0..len).map(|_| rng2.gen_range(-2.0f32..2.0)).collect()
    };
    let ledger = FetchLedger {
        structure_edges: seed % 911,
        structure_nodes: seed % 677,
        feature_elems: seed % 4096,
        structure_wire_bytes: seed % 8192,
        feature_wire_bytes: seed % 16384,
        feature_bus_elems: seed % 2048,
    };
    vec![
        Message::Request(Request::Epoch { id: id(), params: floats(payload_len) }),
        Message::Request(Request::Round { id: id(), params: floats(payload_len) }),
        Message::Request(Request::Stop { id: id() }),
        Message::Response(Response::Epoch {
            id: id(),
            params: floats(payload_len),
            loss_sum: seed as f64 * 0.125,
            batches: seed % 97,
            ledger,
        }),
        Message::Response(Response::Round {
            id: id(),
            active: seed.is_multiple_of(2),
            loss: seed as f32 * 0.5,
            grads: floats(payload_len),
            ledger,
        }),
        Message::Response(Response::Unavailable { id: id() }),
        Message::Response(Response::Failed {
            id: id(),
            error: format!("synthetic failure {seed}"),
        }),
    ]
}

#[test]
fn wire_codec_roundtrips_every_message_type() {
    check(
        Config::default().with_cases(128),
        |rng| (rng.gen_range(0..64usize), rng.next_u64()),
        |&(len, seed)| {
            let mut out: Vec<(usize, u64)> =
                shrink_usize(len, 0).into_iter().map(|l| (l, seed)).collect();
            if seed > 0 {
                out.push((len, seed / 2));
            }
            out
        },
        |&(len, seed)| {
            for msg in arbitrary_messages(seed, len) {
                let frame = msg.encode();
                let back = Message::decode(&frame)
                    .map_err(|e| format!("decode failed for {msg:?}: {e}"))?;
                if back != msg {
                    return Err(format!("round-trip changed {msg:?} into {back:?}"));
                }
            }
            Ok(())
        },
    );
}
