//! The traced run: one epoch of a workload replayed step by step through
//! the layers' public functions, with a span at every layer boundary, plus
//! direct probes of the setup-side layers. Workers are driven one after
//! another on the calling thread, so self times add up to the wall time.
//! Nothing here feeds an end-to-end number; those come from untraced runs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use splpg::dist::{ClusterSetup, WorkerView};
use splpg::gnn::trainer::evaluate_hits;
use splpg::gnn::{
    edges_to_pairs, FeatureAccess, FullFeatureAccess, FullGraphAccess, GraphAccess, LinkPredictor,
    NeighborSampler, PerSourceNegativeSampler, SamplerScratch,
};
use splpg::graph::{Edge, Graph, NodeId};
use splpg::linalg::{CgOptions, EngineOptions, SolverEngine};
use splpg::net::codec;
use splpg::net::{
    ChannelTransport, FetchLedger, Message, MsgId, Request, Response, TcpTransport, Transport,
    WireStats,
};
use splpg::nn::{average_grads, Adam, Optimizer, ParamSet};
use splpg::partition::{MetisLike, Partitioner};
use splpg::prelude::*;
use splpg::rng::rngs::StdRng;
use splpg::rng::seq::SliceRandom;
use splpg::rng::{Rng, SeedableRng};
use splpg::sparsify::JlSparsifier;
use splpg::tensor::{Tape, Tensor};

use crate::driver::median;
use crate::json::Json;
use crate::once::{hex32, hex64};
use crate::workload::{Entry, Workload};
use crate::Args;

/// Layers of the traced epoch, by the prefix their metrics carry.
/// `harness` is the replay's own glue and is not a layer of the system.
pub const LAYERS: [&str; 7] = [
    "gnn",
    "dist.view",
    "tensor",
    "nn",
    "net",
    "dist.sync",
    "harness",
];

struct Span {
    name: &'static str,
    layer: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    /// Worker the span belongs to; `p` is the master.
    run: usize,
    /// Busy time summed over calls (and over sampler threads) rather than
    /// one interval; `calls` says how many.
    calls: Option<u64>,
    counts: Vec<(&'static str, f64)>,
}

/// In-memory span log; written out once, after the last measurement.
struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: usize,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, layer: &'static str, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            run: self.run,
            calls: None,
            counts: Vec::new(),
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes `id` (the innermost open span) and returns its seconds.
    fn exit(&mut self, id: usize) -> f64 {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = end_ns;
        (end_ns - self.spans[id].start_ns) as f64 * 1e-9
    }

    fn count(&mut self, id: usize, key: &'static str, value: f64) {
        self.spans[id].counts.push((key, value));
    }

    /// Records `busy_ns` spent in `calls` calls of a lower layer inside
    /// the innermost open span.
    fn busy(&mut self, layer: &'static str, name: &'static str, busy_ns: u64, calls: u64) -> usize {
        let parent = *self.open.last().expect("busy time belongs to an open span");
        let start_ns = self.spans[parent].start_ns;
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns + busy_ns,
            parent: Some(parent),
            run: self.run,
            calls: Some(calls),
            counts: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Self time per layer in seconds: each span's duration minus what
    /// its children cover. A busy child is clipped to what is left of its
    /// parent, since sampler threads can overlap.
    fn layer_self_seconds(&self) -> Vec<(&'static str, f64)> {
        let duration = |s: &Span| s.end_ns - s.start_ns;
        let mut covered = vec![0u64; self.spans.len()];
        let mut effective: Vec<u64> = self.spans.iter().map(duration).collect();
        for (i, s) in self.spans.iter().enumerate() {
            let Some(p) = s.parent else { continue };
            if s.calls.is_some() {
                effective[i] =
                    effective[i].min(duration(&self.spans[p]).saturating_sub(covered[p]));
            }
            covered[p] += effective[i];
        }
        LAYERS
            .iter()
            .map(|&layer| {
                let ns: u64 = (0..self.spans.len())
                    .filter(|&i| self.spans[i].layer == layer)
                    .map(|i| effective[i].saturating_sub(covered[i]))
                    .sum();
                (layer, ns as f64 * 1e-9)
            })
            .collect()
    }

    fn write_jsonl(&self, path: &str) -> Result<(), String> {
        use std::io::Write;
        crate::create_parent_dir(path)?;
        let file = std::fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?;
        let mut out = std::io::BufWriter::new(file);
        for (id, s) in self.spans.iter().enumerate() {
            let mut pairs = vec![
                ("id", Json::Num(id as f64)),
                ("name", Json::str(s.name)),
                ("layer", Json::str(s.layer)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("run", Json::Num(s.run as f64)),
            ];
            if let Some(calls) = s.calls {
                pairs.push(("calls", Json::Num(calls as f64)));
            }
            pairs.extend(s.counts.iter().map(|&(k, v)| (k, Json::Num(v))));
            writeln!(out, "{}", Json::obj(pairs).compact()).map_err(|e| e.to_string())?;
        }
        out.flush().map_err(|e| format!("write {path}: {e}"))
    }
}

/// Counters of one worker's data-plane view, written by whichever
/// sampler thread makes the call.
#[derive(Default)]
struct ViewCounters {
    neighbors_ns: AtomicU64,
    neighbors_calls: AtomicU64,
    gather_ns: AtomicU64,
    gather_rows: AtomicU64,
    remote_rows: AtomicU64,
}

impl ViewCounters {
    /// `(ns, calls)` of neighbor fetches so far.
    fn neighbors(&self) -> (u64, u64) {
        (
            self.neighbors_ns.load(Ordering::Relaxed),
            self.neighbors_calls.load(Ordering::Relaxed),
        )
    }
}

/// Times the two data-plane calls of a `WorkerView` and delegates
/// everything to it, so the replay sees exactly the view's answers.
struct Timed {
    view: WorkerView,
    counters: Arc<ViewCounters>,
}

impl GraphAccess for Timed {
    fn num_nodes(&self) -> usize {
        self.view.num_nodes()
    }

    fn degree(&self, v: NodeId) -> usize {
        self.view.degree(v)
    }

    fn neighbors_into(&self, v: NodeId, out: &mut Vec<(NodeId, f32)>) {
        let start = Instant::now();
        self.view.neighbors_into(v, out);
        let ns = start.elapsed().as_nanos() as u64;
        self.counters.neighbors_ns.fetch_add(ns, Ordering::Relaxed);
        self.counters
            .neighbors_calls
            .fetch_add(1, Ordering::Relaxed);
    }

    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.view.has_edge(u, v)
    }
}

impl FeatureAccess for Timed {
    fn dim(&self) -> usize {
        FeatureAccess::dim(&self.view)
    }

    fn gather_into(&mut self, nodes: &[NodeId], out: &mut Vec<f32>) {
        let start = Instant::now();
        self.view.gather_into(nodes, out);
        let ns = start.elapsed().as_nanos() as u64;
        let remote = nodes
            .iter()
            .filter(|&&v| !self.view.is_feature_local(v))
            .count();
        self.counters.gather_ns.fetch_add(ns, Ordering::Relaxed);
        self.counters
            .gather_rows
            .fetch_add(nodes.len() as u64, Ordering::Relaxed);
        self.counters
            .remote_rows
            .fetch_add(remote as u64, Ordering::Relaxed);
    }
}

/// Per-batch (or per-round, per-frame) samples behind the per-layer
/// metrics; each is reported as median, p95 and n.
#[derive(Default)]
struct Samples {
    neg_sample_s: Vec<f64>,
    sample_s: Vec<f64>,
    sampled_nodes: Vec<f64>,
    neighbors_s: Vec<f64>,
    neighbors_calls: Vec<f64>,
    gather_s: Vec<f64>,
    gather_rows: Vec<f64>,
    forward_s: Vec<f64>,
    backward_s: Vec<f64>,
    arena_allocs: Vec<f64>,
    adam_s: Vec<f64>,
    sync_s: Vec<f64>,
    peak_tape_bytes: usize,
}

/// One worker's training state, rebuilt exactly as the trainer builds a
/// replica: same seeds, same view, same codec.
struct Worker {
    id: usize,
    model: LinkPredictor,
    params: ParamSet,
    opt: Adam,
    rng: StdRng,
    graph_view: Timed,
    feature_view: Timed,
    counters: Arc<ViewCounters>,
    all_positives: Vec<Edge>,
    shuffled: Vec<Edge>,
    sampler: NeighborSampler,
    negatives: PerSourceNegativeSampler,
    tape: Tape,
    scratch: SamplerScratch,
}

/// The pair of connected endpoints sync frames of one worker cross.
struct Link {
    master: Box<dyn Transport>,
    worker: Box<dyn Transport>,
    roundtrip: &'static str,
}

struct Replay {
    rec: Recorder,
    samples: Samples,
    codec: CodecConfig,
    batch_size: usize,
    learning_rate: f32,
}

fn net_err(e: splpg::net::NetError) -> String {
    format!("sync frame failed: {e}")
}

impl Replay {
    /// Carries `msg` across `link` the way the cluster does: encode under
    /// the workload's codec, cross the transport, decode on the far side.
    fn ship(&mut self, link: &mut Link, msg: &Message, to_worker: bool) -> Result<Message, String> {
        let s = self.rec.enter("net", "net.codec.encode");
        let frame = codec::encode_with(msg, self.codec);
        self.rec.count(s, "bytes", frame.len() as f64);
        self.rec.exit(s);
        let s = self.rec.enter("net", link.roundtrip);
        let (from, to) = if to_worker {
            (&mut link.master, &mut link.worker)
        } else {
            (&mut link.worker, &mut link.master)
        };
        from.send(frame).map_err(net_err)?;
        let frame = to.recv().map_err(net_err)?;
        self.rec.exit(s);
        let s = self.rec.enter("net", "net.codec.decode");
        let decoded = codec::decode(&frame).map_err(net_err)?;
        self.rec.exit(s);
        Ok(decoded)
    }

    /// The master's parameters as a worker receives them, and the seconds
    /// the delivery took.
    fn deliver_params(
        &mut self,
        link: Option<&mut Link>,
        id: MsgId,
        flat: &[f32],
        per_round: bool,
    ) -> Result<(Vec<f32>, f64), String> {
        let s = self.rec.enter("dist.sync", "dist.sync.request");
        let params = flat.to_vec();
        let received = match link {
            None => params,
            Some(link) => {
                let req = if per_round {
                    Request::Round { id, params }
                } else {
                    Request::Epoch { id, params }
                };
                match self.ship(link, &Message::Request(req), true)? {
                    Message::Request(
                        Request::Round { params, .. } | Request::Epoch { params, .. },
                    ) => params,
                    other => return Err(format!("request decoded as {other:?}")),
                }
            }
        };
        Ok((received, self.rec.exit(s)))
    }

    /// Mirrors `splpg_gnn::trainer::batch_grads` call for call.
    fn batch(&mut self, w: &mut Worker, chunk: &[Edge]) -> Result<(f32, Vec<Tensor>), String> {
        let rec = &mut self.rec;
        let batch_span = rec.enter("harness", "batch");

        let s = rec.enter("gnn", "gnn.neg_sample");
        let start = w.counters.neighbors();
        let negatives = w
            .negatives
            .sample_for_edges(&w.graph_view, chunk, &mut w.rng)
            .map_err(|e| format!("negative sampling failed: {e}"))?;
        let mid = w.counters.neighbors();
        rec.busy(
            "dist.view",
            "dist.view.neighbors",
            mid.0 - start.0,
            mid.1 - start.1,
        );
        self.samples.neg_sample_s.push(rec.exit(s));

        let (seeds, pairs, labels) = edges_to_pairs(chunk, &negatives);

        let s = rec.enter("gnn", "gnn.sample");
        let batch = w
            .sampler
            .sample_with(&w.graph_view, &seeds, &mut w.rng, &mut w.scratch);
        let end = w.counters.neighbors();
        rec.busy(
            "dist.view",
            "dist.view.neighbors",
            end.0 - mid.0,
            end.1 - mid.1,
        );
        let input_nodes = batch.input_nodes();
        rec.count(s, "sampled_nodes", input_nodes.len() as f64);
        self.samples.sample_s.push(rec.exit(s));
        self.samples.sampled_nodes.push(input_nodes.len() as f64);
        self.samples
            .neighbors_s
            .push((end.0 - start.0) as f64 * 1e-9);
        self.samples.neighbors_calls.push((end.1 - start.1) as f64);

        let allocs_before = w.tape.arena_stats().allocations();
        let s = rec.enter("tensor", "tensor.forward");
        w.tape.reset();
        let binding = w.params.bind(&mut w.tape);
        let gather_before = w.counters.gather_ns.load(Ordering::Relaxed);
        let remote_before = w.counters.remote_rows.load(Ordering::Relaxed);
        let feature_view = &mut w.feature_view;
        let x = w
            .tape
            .leaf_with(input_nodes.len(), feature_view.dim(), |buf| {
                feature_view.gather_into(input_nodes, buf);
            });
        let gather_ns = w.counters.gather_ns.load(Ordering::Relaxed) - gather_before;
        let remote = w.counters.remote_rows.load(Ordering::Relaxed) - remote_before;
        let gather_id = rec.busy("dist.view", "dist.view.gather", gather_ns, 1);
        rec.count(gather_id, "rows", input_nodes.len() as f64);
        rec.count(gather_id, "remote_rows", remote as f64);
        self.samples.gather_s.push(gather_ns as f64 * 1e-9);
        self.samples.gather_rows.push(input_nodes.len() as f64);
        let mut dropout_rng = w.rng.clone();
        let logits = w.model.score_pairs(
            &mut w.tape,
            &binding,
            x,
            &batch,
            &pairs,
            Some(&mut dropout_rng),
        );
        let loss = w.tape.bce_with_logits(logits, &labels);
        let loss_value = w.tape.value(loss).get(0, 0);
        self.samples
            .forward_s
            .push(rec.exit(s) - gather_ns as f64 * 1e-9);

        let s = rec.enter("tensor", "tensor.backward");
        let mut grads = w.tape.backward(loss);
        let collected = binding.collect_grads(&w.params, &mut grads);
        w.tape.recycle_gradients(grads);
        self.samples.backward_s.push(rec.exit(s));
        let allocs = w.tape.arena_stats().allocations() - allocs_before;
        self.samples.arena_allocs.push(allocs as f64);
        self.samples.peak_tape_bytes = self.samples.peak_tape_bytes.max(w.tape.backing_bytes());

        rec.exit(batch_span);
        Ok((loss_value, collected))
    }

    fn adam_step(&mut self, opt: &mut Adam, params: &mut ParamSet, grads: &[Tensor]) {
        let s = self.rec.enter("nn", "nn.adam_step");
        opt.step(params, grads);
        self.samples.adam_s.push(self.rec.exit(s));
    }

    /// `Replica::epoch_ma` + `ma_aggregate` for every worker in turn.
    fn epoch_ma(
        &mut self,
        workers: &mut [Worker],
        links: &mut [Option<Link>],
        global: &mut Vec<f32>,
    ) -> Result<f32, String> {
        let mut flats = Vec::with_capacity(workers.len());
        let (mut loss_sum, mut batches) = (0.0f64, 0u64);
        let mut sync_s = 0.0;
        for (w, link) in workers.iter_mut().zip(links.iter_mut()) {
            self.rec.run = w.id;
            let id = MsgId {
                worker: w.id as u32,
                epoch: 0,
                round: 0,
                attempt: 0,
            };
            let (flat, delivery_s) = self.deliver_params(link.as_mut(), id, global, false)?;
            sync_s += delivery_s;

            let s = self.rec.enter("nn", "nn.load_flat");
            w.params.load_flat(&flat).map_err(|e| e.to_string())?;
            self.rec.exit(s);
            begin_epoch(w, 0);
            let (mut worker_loss, mut worker_batches) = (0.0f64, 0u64);
            let positives = std::mem::take(&mut w.shuffled);
            for chunk in positives.chunks(self.batch_size) {
                let (loss, grads) = self.batch(w, chunk)?;
                let Worker {
                    opt, params, tape, ..
                } = w;
                self.adam_step(opt, params, &grads);
                for g in grads {
                    tape.recycle(g);
                }
                worker_loss += loss as f64;
                worker_batches += 1;
            }

            let s = self.rec.enter("dist.sync", "dist.sync.response");
            let trained = w.params.to_flat();
            let (trained, worker_loss, worker_batches) = match link.as_mut() {
                None => (trained, worker_loss, worker_batches),
                Some(link) => {
                    let resp = Response::Epoch {
                        id,
                        params: trained,
                        loss_sum: worker_loss,
                        batches: worker_batches,
                        ledger: FetchLedger::default(),
                    };
                    match self.ship(link, &Message::Response(resp), false)? {
                        Message::Response(Response::Epoch {
                            params,
                            loss_sum,
                            batches,
                            ..
                        }) => (params, loss_sum, batches),
                        other => return Err(format!("response decoded as {other:?}")),
                    }
                }
            };
            sync_s += self.rec.exit(s);
            flats.push(trained);
            loss_sum += worker_loss;
            batches += worker_batches;
        }
        self.rec.run = workers.len();
        let s = self.rec.enter("dist.sync", "dist.sync.aggregate");
        *global = ParamSet::average_flat(&flats).map_err(|e| e.to_string())?;
        sync_s += self.rec.exit(s);
        self.samples.sync_s.push(sync_s);
        Ok((loss_sum / batches.max(1) as f64) as f32)
    }

    /// `Replica::round_ga` + `ga_apply_round` for every round of the epoch.
    fn epoch_ga(
        &mut self,
        workers: &mut [Worker],
        links: &mut [Option<Link>],
        master_params: &mut ParamSet,
        global: &mut Vec<f32>,
    ) -> Result<f32, String> {
        let mut master_opt = Adam::new(self.learning_rate);
        let shapes: Vec<(usize, usize)> = (0..master_params.len())
            .map(|i| master_params.value(i).shape())
            .collect();
        let rounds = workers
            .iter()
            .map(|w| w.all_positives.len().div_ceil(self.batch_size))
            .max()
            .unwrap_or(0);
        let (mut loss_sum, mut active) = (0.0f64, 0u64);
        for round in 0..rounds {
            let mut sync_s = 0.0;
            let mut worker_grads: Vec<Vec<Tensor>> = Vec::with_capacity(workers.len());
            for (w, link) in workers.iter_mut().zip(links.iter_mut()) {
                self.rec.run = w.id;
                let id = MsgId {
                    worker: w.id as u32,
                    epoch: 0,
                    round: round as u64,
                    attempt: 0,
                };
                let (flat, delivery_s) = self.deliver_params(link.as_mut(), id, global, true)?;
                sync_s += delivery_s;
                if round == 0 {
                    begin_epoch(w, 0);
                }
                let s = self.rec.enter("nn", "nn.load_flat");
                w.params.load_flat(&flat).map_err(|e| e.to_string())?;
                self.rec.exit(s);

                let start = round * self.batch_size;
                let contribution = if start >= w.shuffled.len() {
                    None
                } else {
                    let end = (start + self.batch_size).min(w.shuffled.len());
                    let positives = std::mem::take(&mut w.shuffled);
                    let (loss, grads) = self.batch(w, &positives[start..end])?;
                    w.shuffled = positives;
                    Some((loss, grads))
                };

                let s = self.rec.enter("dist.sync", "dist.sync.response");
                let contribution = contribution.map(|(loss, grads)| {
                    let mut flat = Vec::with_capacity(grads.iter().map(Tensor::len).sum());
                    for g in grads {
                        flat.extend_from_slice(g.data());
                        w.tape.recycle(g);
                    }
                    (loss, flat)
                });
                let contribution = match link.as_mut() {
                    None => contribution,
                    Some(link) => {
                        let active = contribution.is_some();
                        let (loss, grads) = contribution.unwrap_or((0.0, Vec::new()));
                        let resp = Response::Round {
                            id,
                            active,
                            loss,
                            grads,
                            ledger: FetchLedger::default(),
                        };
                        match self.ship(link, &Message::Response(resp), false)? {
                            Message::Response(Response::Round {
                                active: true,
                                loss,
                                grads,
                                ..
                            }) => Some((loss, grads)),
                            Message::Response(Response::Round { .. }) => None,
                            other => return Err(format!("response decoded as {other:?}")),
                        }
                    }
                };
                // The master's half of the round starts here: payloads
                // back into per-parameter tensors, absent workers as zeros.
                worker_grads.push(match contribution {
                    Some((loss, flat)) => {
                        loss_sum += loss as f64;
                        active += 1;
                        let mut rest = flat.as_slice();
                        shapes
                            .iter()
                            .map(|&(r, c)| {
                                let (head, tail) = rest
                                    .split_at_checked(r * c)
                                    .ok_or("gradient payload shorter than the parameters")?;
                                rest = tail;
                                Tensor::from_vec(r, c, head.to_vec()).map_err(|e| e.to_string())
                            })
                            .collect::<Result<_, String>>()?
                    }
                    None => shapes.iter().map(|&(r, c)| Tensor::zeros(r, c)).collect(),
                });
                sync_s += self.rec.exit(s);
            }
            self.rec.run = workers.len();
            let s = self.rec.enter("dist.sync", "dist.sync.aggregate");
            let avg = average_grads(&worker_grads).map_err(|e| e.to_string())?;
            master_params.load_flat(global).map_err(|e| e.to_string())?;
            self.adam_step(&mut master_opt, master_params, &avg);
            *global = master_params.to_flat();
            sync_s += self.rec.exit(s);
            self.samples.sync_s.push(sync_s);
        }
        Ok((loss_sum / active.max(1) as f64) as f32)
    }
}

/// What a replica does once per epoch before its first batch.
fn begin_epoch(w: &mut Worker, epoch: u64) {
    w.graph_view.view.begin_epoch(epoch);
    w.shuffled = w.all_positives.clone();
    w.shuffled.shuffle(&mut w.rng);
}

fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// Partition 0's local graph as `ClusterSetup` builds it: own edges, plus
/// cross edges when the strategy retains the halo.
fn local_graph(graph: &Graph, setup: &ClusterSetup, halo: bool) -> Result<Graph, String> {
    let part = |v| setup.partition.part_of(v) == 0;
    let edges: Vec<(NodeId, NodeId)> = graph
        .edges()
        .iter()
        .filter(|e| {
            if halo {
                part(e.src) || part(e.dst)
            } else {
                part(e.src) && part(e.dst)
            }
        })
        .map(|e| (e.src, e.dst))
        .collect();
    Graph::from_edges(graph.num_nodes(), &edges).map_err(|e| e.to_string())
}

/// Mean PCG iterations per right-hand side over one block of JL-style
/// `B^T q` projections on `graph` — the solver work `sparsify.jl_s` buys.
fn pcg_iters(graph: &Graph, rng: &mut StdRng) -> Result<f64, String> {
    let options = EngineOptions::with_cg(CgOptions::default());
    let (n, k) = (graph.num_nodes(), options.block_width.max(1));
    let mut rhs = vec![0.0f64; n * k];
    for j in 0..k {
        for e in graph.edges() {
            let q = if rng.gen::<bool>() { 1.0 } else { -1.0 };
            rhs[e.src as usize * k + j] += q;
            rhs[e.dst as usize * k + j] -= q;
        }
    }
    let mut engine = SolverEngine::new(graph, options);
    let mut solutions = vec![0.0f64; n * k];
    engine
        .solve_block_into(&rhs, k, &mut solutions)
        .map_err(|e| e.to_string())?;
    let stats = engine.stats();
    Ok(stats.iterations as f64 / stats.solves.max(1) as f64)
}

/// Frames timed per transport and codec probe.
const PROBE_FRAMES: usize = 16;

fn roundtrips(a: &mut dyn Transport, b: &mut dyn Transport, frame: &[u8]) -> Result<f64, String> {
    let mut times = Vec::with_capacity(PROBE_FRAMES);
    for _ in 0..PROBE_FRAMES {
        let copy = frame.to_vec();
        let (result, s) = time(|| a.send(copy).and_then(|()| b.recv()));
        std::hint::black_box(result.map_err(net_err)?);
        times.push(s);
    }
    Ok(median(&times))
}

fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n => v[((n - 1) as f64 * q).round() as usize],
    }
}

pub fn run(workload: &Workload, args: &Args) -> Result<Json, String> {
    let seed = args.seed()?;
    let kind = ModelKind::GraphSage;
    let dist = workload.dist_config().clone();
    let train = workload.train_config(seed, 1, args.smoke());
    let spec = dist.strategy.spec();
    let p = dist.num_workers;
    let mut metrics: Vec<(&'static str, f64)> = Vec::new();

    // Setup-side layers: direct timed calls, same inputs as the workload.
    let (data, generate_s) = time(|| workload.generate(args.smoke()));
    let data = data?;
    metrics.push(("datasets.generate_s", generate_s));
    let train_graph = Arc::new(
        data.split
            .train_graph(data.graph.num_nodes())
            .map_err(|e| e.to_string())?,
    );
    let features = Arc::new(data.features.clone());

    let (partition, metis_s) = time(|| {
        MetisLike::default().partition(&train_graph, p, &mut StdRng::seed_from_u64(dist.setup_seed))
    });
    let partition = partition.map_err(|e| e.to_string())?;
    metrics.push(("partition.metis_s", metis_s));
    let cut = partition.edge_cut(&train_graph) as f64 / train_graph.num_edges().max(1) as f64;
    metrics.push(("partition.edge_cut_frac", cut));

    let (setup, setup_build_s) = time(|| {
        ClusterSetup::build_with_sparsifier(
            &train_graph,
            &features,
            spec,
            p,
            dist.alpha,
            dist.setup_seed,
            dist.sparsifier,
        )
    });
    let setup = setup.map_err(|e| e.to_string())?;
    metrics.push(("dist.setup_build_s", setup_build_s));

    let local = local_graph(&train_graph, &setup, spec.halo)?;
    let config = SparsifyConfig::with_alpha(dist.alpha);
    let mut probe_rng = StdRng::seed_from_u64(dist.setup_seed);
    let (by_degree, degree_s) =
        time(|| DegreeSparsifier::new(config).sparsify(&local, &mut probe_rng));
    let by_degree = by_degree.map_err(|e| e.to_string())?;
    let jl = JlSparsifier::new(config, SparsifierKind::JL_PROJECTIONS);
    let (by_jl, jl_s) = time(|| jl.sparsify(&local, &mut probe_rng));
    let by_jl = by_jl.map_err(|e| e.to_string())?;
    let kept = if dist.sparsifier == SparsifierKind::Jl {
        &by_jl
    } else {
        &by_degree
    };
    metrics.push(("sparsify.degree_s", degree_s));
    metrics.push(("sparsify.jl_s", jl_s));
    metrics.push((
        "sparsify.kept_edge_frac",
        kept.num_edges() as f64 / local.num_edges().max(1) as f64,
    ));
    metrics.push(("linalg.pcg_iters", pcg_iters(&local, &mut probe_rng)?));

    // Master and replicas, seeded exactly as `DistTrainer` seeds them.
    let mut master_rng = StdRng::seed_from_u64(train.seed);
    let mut master_params = ParamSet::new();
    let master_model = train.build_model(
        kind,
        data.features.dim(),
        &mut master_params,
        &mut master_rng,
    );
    metrics.push(("nn.param_count", master_params.num_elements() as f64));
    let mut workers: Vec<Worker> = setup
        .workers
        .iter()
        .map(|w| {
            let mut rng = StdRng::seed_from_u64(train.seed);
            let mut params = ParamSet::new();
            let model = train.build_model(kind, data.features.dim(), &mut params, &mut rng);
            let view = w.view.clone().with_wire_codec(dist.wire_codec);
            let counters = Arc::new(ViewCounters::default());
            Worker {
                id: w.worker_id,
                model,
                params,
                opt: Adam::new(train.learning_rate),
                rng: splpg::rng::derive_stream(train.seed, w.worker_id as u64 + 1),
                graph_view: Timed {
                    view: view.clone(),
                    counters: Arc::clone(&counters),
                },
                feature_view: Timed {
                    view,
                    counters: Arc::clone(&counters),
                },
                counters,
                all_positives: w.positives.clone(),
                shuffled: Vec::new(),
                sampler: train.sampler(),
                negatives: PerSourceNegativeSampler::new(w.negative_space.clone()),
                tape: Tape::new(),
                scratch: SamplerScratch::new(),
            }
        })
        .collect();

    // Sync frames cross the transport the workload's entry point uses;
    // the sequential entry point moves no frames at all.
    let stats = WireStats::new();
    let mut links: Vec<Option<Link>> = Vec::with_capacity(p);
    for _ in 0..p {
        links.push(match workload.entry {
            Entry::Sequential => None,
            Entry::Threads => {
                let (master, worker) = ChannelTransport::pair(4, stats.clone());
                Some(Link {
                    master: Box::new(master),
                    worker: Box::new(worker),
                    roundtrip: "net.channel.roundtrip",
                })
            }
            Entry::Processes => {
                let (master, worker) =
                    TcpTransport::pair(&TcpConfig::default(), stats.clone()).map_err(net_err)?;
                Some(Link {
                    master: Box::new(master),
                    worker: Box::new(worker),
                    roundtrip: "net.tcp.roundtrip",
                })
            }
        });
    }

    // The traced epoch: training, then the validation pass the trainer
    // runs on the first (= last) epoch.
    let mut replay = Replay {
        rec: Recorder::new(),
        samples: Samples::default(),
        codec: dist.wire_codec,
        batch_size: train.batch_size,
        learning_rate: train.learning_rate,
    };
    let mut global = master_params.to_flat();
    let eval_sampler = NeighborSampler::full(train.layers);
    let mut eval_tape = Tape::new();
    let mut eval_scratch = SamplerScratch::new();
    let full_graph = FullGraphAccess::new(&train_graph);
    let epoch_span = replay.rec.enter("harness", "epoch");
    let mean_loss = match dist.sync {
        SyncMethod::ModelAveraging => replay.epoch_ma(&mut workers, &mut links, &mut global)?,
        SyncMethod::GradientAveraging => {
            replay.epoch_ga(&mut workers, &mut links, &mut master_params, &mut global)?
        }
    };
    let s = replay.rec.enter("gnn", "gnn.eval");
    master_params
        .load_flat(&global)
        .map_err(|e| e.to_string())?;
    evaluate_hits(
        &master_model,
        &master_params,
        &full_graph,
        &mut FullFeatureAccess::new(&data.features),
        &eval_sampler,
        &data.split.valid,
        &data.split.valid_neg,
        train.hits_k,
        &mut master_rng,
        &mut eval_tape,
        &mut eval_scratch,
    )
    .map_err(|e| e.to_string())?;
    replay.rec.exit(s);
    let traced_epoch_s = replay.rec.exit(epoch_span);
    drop(links);

    // The trainer's closing test evaluation, timed on its own.
    let (test_hits, eval_s) = time(|| {
        evaluate_hits(
            &master_model,
            &master_params,
            &full_graph,
            &mut FullFeatureAccess::new(&data.features),
            &eval_sampler,
            &data.split.test,
            &data.split.test_neg,
            train.hits_k,
            &mut master_rng,
            &mut eval_tape,
            &mut eval_scratch,
        )
    });
    let test_hits = test_hits.map_err(|e| e.to_string())?;
    metrics.push(("gnn.eval_s", eval_s));

    let Replay { rec, samples, .. } = replay;
    let mut detail: Vec<(&'static str, Json)> = Vec::new();
    let mut per_sample = |name: &'static str, values: &[f64]| {
        metrics.push((name, median(values)));
        detail.push((
            name,
            Json::obj([
                ("median", Json::Num(median(values))),
                ("p95", Json::Num(percentile(values, 0.95))),
                ("n", Json::Num(values.len() as f64)),
            ]),
        ));
    };
    per_sample("gnn.neg_sample_s_per_batch", &samples.neg_sample_s);
    per_sample("gnn.sample_s_per_batch", &samples.sample_s);
    per_sample("gnn.sampled_nodes_per_batch", &samples.sampled_nodes);
    per_sample("dist.view.neighbors_s_per_batch", &samples.neighbors_s);
    per_sample(
        "dist.view.neighbors_calls_per_batch",
        &samples.neighbors_calls,
    );
    per_sample("dist.view.gather_s_per_batch", &samples.gather_s);
    per_sample("dist.view.gather_rows_per_batch", &samples.gather_rows);
    per_sample("tensor.forward_s_per_batch", &samples.forward_s);
    per_sample("tensor.backward_s_per_batch", &samples.backward_s);
    per_sample("tensor.arena_allocs_per_step", &samples.arena_allocs);
    per_sample("nn.adam_step_s_per_batch", &samples.adam_s);
    per_sample("dist.sync_s_per_round", &samples.sync_s);
    metrics.push(("dist.sync_rounds_per_epoch", samples.sync_s.len() as f64));
    metrics.push((
        "tensor.peak_tape_mb",
        samples.peak_tape_bytes as f64 / (1 << 20) as f64,
    ));
    let (gathered, remote): (u64, u64) = workers.iter().fold((0, 0), |(g, r), w| {
        (
            g + w.counters.gather_rows.load(Ordering::Relaxed),
            r + w.counters.remote_rows.load(Ordering::Relaxed),
        )
    });
    metrics.push((
        "dist.view.remote_row_frac",
        remote as f64 / gathered.max(1) as f64,
    ));

    // Kernel probe at the shape of the first layer's input projection.
    let rows = median(&samples.gather_rows) as usize;
    let (k, m) = (data.features.dim(), train.hidden);
    let (a, b) = (vec![0.5f32; rows * k], vec![0.25f32; k * m]);
    let pool = splpg::par::global();
    let started = Instant::now();
    let mut iterations = 0u32;
    while iterations < 3 || started.elapsed().as_secs_f64() < 0.1 {
        let product = splpg::tensor::kernels::matmul_nn(
            std::hint::black_box(&a),
            std::hint::black_box(&b),
            rows,
            k,
            m,
            &pool,
        );
        std::hint::black_box(product);
        iterations += 1;
    }
    let flops = 2.0 * (rows * k * m) as f64 * f64::from(iterations);
    metrics.push((
        "tensor.matmul_gflops",
        flops / started.elapsed().as_secs_f64() / 1e9,
    ));

    // Wire probes on the workload's real sync frame: the parameters for
    // model averaging, a gradient of the same length for gradient
    // averaging, under the workload's codec.
    let id = MsgId::default();
    let frame_msg = Message::Request(match dist.sync {
        SyncMethod::ModelAveraging => Request::Epoch {
            id,
            params: global.clone(),
        },
        SyncMethod::GradientAveraging => Request::Round {
            id,
            params: global.clone(),
        },
    });
    let mut encode_times = Vec::with_capacity(PROBE_FRAMES);
    let mut decode_times = Vec::with_capacity(PROBE_FRAMES);
    let mut frame = Vec::new();
    for _ in 0..PROBE_FRAMES {
        let (encoded, s) =
            time(|| codec::encode_with(std::hint::black_box(&frame_msg), dist.wire_codec));
        encode_times.push(s);
        let (decoded, s) = time(|| codec::decode(std::hint::black_box(&encoded)));
        decode_times.push(s);
        std::hint::black_box(decoded.map_err(net_err)?);
        frame = encoded;
    }
    let (encode_s, decode_s) = (median(&encode_times), median(&decode_times));
    let frame_mb = frame.len() as f64 / 1e6;
    metrics.push(("net.codec.encode_s_per_frame", encode_s));
    metrics.push(("net.codec.decode_s_per_frame", decode_s));
    metrics.push(("net.codec.mb_per_s", frame_mb / (encode_s + decode_s)));
    let (mut a, mut b) = ChannelTransport::pair(4, WireStats::new());
    metrics.push((
        "net.channel.roundtrip_s_per_frame",
        roundtrips(&mut a, &mut b, &frame)?,
    ));
    let (mut a, mut b) = TcpTransport::pair(&TcpConfig::default(), WireStats::new())
        .map_err(|e| format!("loopback TCP is unavailable: {e}"))?;
    let tcp_s = roundtrips(&mut a, &mut b, &frame)?;
    metrics.push(("net.tcp.roundtrip_s_per_frame", tcp_s));
    metrics.push(("net.tcp.mb_per_s", frame_mb / tcp_s));
    drop((a, b));

    let layer_self = rec.layer_self_seconds();
    if let Some(path) = args.get("trace-out") {
        rec.write_jsonl(path)?;
    }
    Ok(Json::obj([
        (
            "metrics",
            Json::obj(metrics.into_iter().map(|(k, v)| (k, Json::Num(v)))),
        ),
        ("detail", Json::obj(detail)),
        ("traced_epoch_s", Json::Num(traced_epoch_s)),
        (
            "layer_self_s",
            Json::obj(layer_self.into_iter().map(|(k, v)| (k, Json::Num(v)))),
        ),
        ("spans", Json::Num(rec.spans.len() as f64)),
        ("loss_bits", Json::Arr(vec![hex32(mean_loss.to_bits())])),
        ("test_hits_bits", hex64(test_hits.to_bits())),
        (
            "comm_total_bytes",
            Json::Num(setup.tracker.total_bytes() as f64),
        ),
    ]))
}
