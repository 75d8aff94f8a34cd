//! Cluster runtime: the message protocol between [`DistTrainer`]'s
//! master loop and its worker replicas.
//!
//! Workers are long-lived actors hosted by `splpg-net`; the master talks
//! to them exclusively through typed [`Request`]/[`Response`] frames. The
//! same per-replica compute methods also back
//! [`DistTrainer::run_reference`], the sequential in-process baseline the
//! bit-identity tests compare against — both paths execute the identical
//! floating-point operations in the identical order, so a fault-free
//! full-quorum cluster run reproduces the reference exactly.
//!
//! Determinism under faults rests on three rules:
//!
//! 1. a worker computes each `(epoch, round)` unit **exactly once** and
//!    caches the encoded response; duplicated or retransmitted requests
//!    are answered from the cache, so the worker RNG stream advances
//!    once per unit no matter how the wire misbehaves;
//! 2. the master keys incoming responses by worker into per-unit slots,
//!    discarding stale units and duplicate arrivals — late gradients
//!    never enter an aggregation;
//! 3. aggregation always iterates workers in index order, never arrival
//!    order.
//!
//! [`DistTrainer`]: crate::DistTrainer
//! [`DistTrainer::run_reference`]: crate::DistTrainer::run_reference

use splpg_gnn::trainer::batch_grads;
use splpg_gnn::{LinkPredictor, NeighborSampler, PerSourceNegativeSampler, SamplerScratch};
use splpg_net::codec::NUM_KINDS;
use splpg_net::{
    FetchLedger, KindStat, MasterHub, MsgId, NetError, Request, Response, RetryPolicy, WorkerPort,
};
use splpg_nn::{average_grads, Adam, Optimizer, ParamSet};
use splpg_rng::rngs::StdRng;
use splpg_rng::seq::SliceRandom;
use splpg_tensor::{Tape, Tensor};

use crate::setup::WorkerData;
use crate::trainer::FaultConfig;
use crate::{CommTracker, DistError, BYTES_PER_EDGE, BYTES_PER_FEATURE, BYTES_PER_NODE_ID};

/// Wire-level traffic report of a distributed run.
///
/// Frame counts and byte totals are measured at the transport (what
/// actually entered a lane); `data_bytes` is the sum of the
/// [`FetchLedger`] deltas workers shipped back in their responses,
/// converted with the same byte constants the [`CommTracker`] meters use —
/// on a fault-free run it equals the meters' `total_bytes()` exactly.
/// Under crash faults the frame counts depend on response timing (how many
/// retransmissions were needed); the data-plane and metric values do not.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetReport {
    /// Frames that entered a lane (duplicates counted individually).
    pub messages: u64,
    /// Total bytes of those frames, length prefixes included.
    pub bytes: u64,
    /// Frames discarded by fault injection.
    pub dropped: u64,
    /// Extra copies produced by fault injection.
    pub duplicated: u64,
    /// Frames whose delivery was deferred by fault injection.
    pub delayed: u64,
    /// Retransmission rounds the master performed.
    pub retries: u64,
    /// Graph-data bytes workers reported fetching, reconstructed from
    /// their fetch ledgers.
    pub data_bytes: u64,
    /// On-wire graph-data bytes under the negotiated codec, from the same
    /// ledgers (equals `data_bytes` when compression is off).
    pub data_wire_bytes: u64,
    /// Feature bytes served over the shared-memory bus instead of the
    /// wire (raw byte model), from the same ledgers — zero when the bus
    /// is off or fell back.
    pub data_bus_bytes: u64,
    /// Why the shared-memory feature bus degraded to the wire path, when
    /// it did: the display form of the typed [`ShmError`] the segment
    /// attach surfaced. `None` means the bus was off or healthy.
    ///
    /// [`ShmError`]: splpg_net::ShmError
    pub shm_fault: Option<String>,
    /// Per-[`MsgKind`] histogram of protocol frames: count, raw-encoding
    /// bytes, and on-wire bytes for each message kind, recorded
    /// master-side (slot 0 aggregates unknown kinds).
    ///
    /// [`MsgKind`]: splpg_net::codec::kind_name
    pub kinds: [KindStat; NUM_KINDS],
    /// Workers declared dead after retry exhaustion, in detection order.
    pub dead_workers: Vec<usize>,
}

/// Converts raw fetch counts to bytes with the tracker constants.
pub(crate) fn ledger_bytes(l: &FetchLedger) -> u64 {
    l.structure_edges * BYTES_PER_EDGE
        + l.structure_nodes * BYTES_PER_NODE_ID
        + l.feature_elems * BYTES_PER_FEATURE
}

/// On-wire bytes a ledger carries under the negotiated codec.
pub(crate) fn ledger_wire_bytes(l: &FetchLedger) -> u64 {
    l.structure_wire_bytes + l.feature_wire_bytes
}

/// Bus-plane feature bytes a ledger carries, at the raw byte model.
pub(crate) fn ledger_bus_bytes(l: &FetchLedger) -> u64 {
    l.feature_bus_elems * BYTES_PER_FEATURE
}

/// Concatenates gradient tensors into one flat wire payload.
pub(crate) fn flatten_grads(grads: &[Tensor]) -> Vec<f32> {
    let mut out = Vec::with_capacity(grads.iter().map(Tensor::len).sum());
    for g in grads {
        out.extend_from_slice(g.data());
    }
    out
}

/// Rebuilds gradient tensors from a flat payload and parameter shapes.
pub(crate) fn unflatten_grads(
    flat: &[f32],
    shapes: &[(usize, usize)],
) -> Result<Vec<Tensor>, String> {
    let mut out = Vec::with_capacity(shapes.len());
    let mut pos = 0usize;
    for &(r, c) in shapes {
        let n = r * c;
        let slice = flat
            .get(pos..pos + n)
            .ok_or_else(|| format!("gradient payload too short: {} < {}", flat.len(), pos + n))?;
        out.push(Tensor::from_vec(r, c, slice.to_vec()).map_err(|e| e.to_string())?);
        pos += n;
    }
    if pos != flat.len() {
        return Err(format!("gradient payload has {} trailing elements", flat.len() - pos));
    }
    Ok(out)
}

/// One worker's full training state: model replica, optimizer, RNG
/// stream, data view, and communication ledger.
///
/// The compute methods are the single source of truth for worker-side
/// training math — the cluster worker loop and the sequential reference
/// path both call them, which is what makes the two bit-identical.
pub(crate) struct Replica {
    pub worker_id: usize,
    model: LinkPredictor,
    params: ParamSet,
    opt: Adam,
    rng: StdRng,
    data: WorkerData,
    tracker: CommTracker,
    sampler: NeighborSampler,
    negative_sampler: PerSourceNegativeSampler,
    batch_size: usize,
    positives: Vec<splpg_graph::Edge>,
    shuffled_epoch: Option<u64>,
    reported: FetchLedger,
    /// Long-lived autodiff tape: its arena is recycled across every batch
    /// this replica ever computes, so steady-state steps allocate nothing.
    tape: Tape,
    /// Long-lived sampler scratch, reused for the same reason.
    scratch: SamplerScratch,
}

impl Replica {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        worker_id: usize,
        model: LinkPredictor,
        params: ParamSet,
        opt: Adam,
        rng: StdRng,
        data: WorkerData,
        tracker: CommTracker,
        sampler: NeighborSampler,
        batch_size: usize,
    ) -> Self {
        let negative_sampler = PerSourceNegativeSampler::new(data.negative_space.clone());
        Replica {
            worker_id,
            model,
            params,
            opt,
            rng,
            data,
            tracker,
            sampler,
            negative_sampler,
            batch_size,
            positives: Vec::new(),
            shuffled_epoch: None,
            reported: FetchLedger::default(),
            tape: Tape::new(),
            scratch: SamplerScratch::new(),
        }
    }

    /// Remote fetches performed since the previous call.
    fn ledger_delta(&mut self) -> FetchLedger {
        let now = FetchLedger {
            structure_edges: self.tracker.structure_edges(),
            structure_nodes: self.tracker.structure_nodes(),
            feature_elems: self.tracker.feature_elems(),
            structure_wire_bytes: self.tracker.structure_wire_bytes(),
            feature_wire_bytes: self.tracker.feature_wire_bytes(),
            feature_bus_elems: self.tracker.feature_bus_elems(),
        };
        let delta = now.since(&self.reported);
        self.reported = now;
        delta
    }

    /// One full local epoch from `flat` (model averaging): shuffle the
    /// local positives, step the local optimizer per batch, return
    /// `(trained flat params, loss sum, batch count)`.
    pub fn epoch_ma(&mut self, epoch: u64, flat: &[f32]) -> Result<(Vec<f32>, f64, u64), String> {
        self.params.load_flat(flat).map_err(|e| e.to_string())?;
        self.data.view.begin_epoch(epoch);
        let mut positives = self.data.positives.clone();
        positives.shuffle(&mut self.rng);
        let mut loss_sum = 0.0f64;
        let mut batches = 0u64;
        // Both views are clones of the same worker view and share its
        // per-epoch feature-row cache; cloned once per epoch, not per batch.
        let view = self.data.view.clone();
        let mut feat_view = self.data.view.clone();
        for chunk in positives.chunks(self.batch_size) {
            let (loss, grads) = batch_grads(
                &self.model,
                &self.params,
                &view,
                &mut feat_view,
                &self.sampler,
                &self.negative_sampler,
                chunk,
                &mut self.rng,
                &mut self.tape,
                &mut self.scratch,
            )
            .map_err(|e| e.to_string())?;
            self.opt.step(&mut self.params, &grads);
            for g in grads {
                self.tape.recycle(g);
            }
            loss_sum += loss as f64;
            batches += 1;
        }
        Ok((self.params.to_flat(), loss_sum, batches))
    }

    /// Shuffles this epoch's batch order exactly once per epoch. Called
    /// unconditionally at the first round of an epoch — including for
    /// injected-down workers — so the RNG stream is identical whether or
    /// not the worker contributes.
    pub fn ensure_shuffled(&mut self, epoch: u64) {
        if self.shuffled_epoch != Some(epoch) {
            self.data.view.begin_epoch(epoch);
            self.positives = self.data.positives.clone();
            self.positives.shuffle(&mut self.rng);
            self.shuffled_epoch = Some(epoch);
        }
    }

    /// One mini-batch round at `flat` (gradient averaging). `None` when
    /// this worker's positives are exhausted for the epoch.
    pub fn round_ga(
        &mut self,
        epoch: u64,
        round: u64,
        flat: &[f32],
    ) -> Result<Option<(f32, Vec<f32>)>, String> {
        self.ensure_shuffled(epoch);
        self.params.load_flat(flat).map_err(|e| e.to_string())?;
        let start = (round as usize) * self.batch_size;
        if start >= self.positives.len() {
            return Ok(None);
        }
        let end = (start + self.batch_size).min(self.positives.len());
        let view = self.data.view.clone();
        let mut feat_view = self.data.view.clone();
        let (loss, grads) = batch_grads(
            &self.model,
            &self.params,
            &view,
            &mut feat_view,
            &self.sampler,
            &self.negative_sampler,
            &self.positives[start..end],
            &mut self.rng,
            &mut self.tape,
            &mut self.scratch,
        )
        .map_err(|e| e.to_string())?;
        let flat = flatten_grads(&grads);
        for g in grads {
            self.tape.recycle(g);
        }
        Ok(Some((loss, flat)))
    }
}

/// The worker actor body: serve requests until the master hangs up, a
/// `Stop` arrives, or this worker's scheduled crash epoch begins.
///
/// Responses for each `(epoch, round)` unit are computed once and cached;
/// retransmitted or duplicated requests re-send the cached response and
/// requests for already-superseded units are ignored.
pub(crate) fn worker_loop(
    mut port: WorkerPort,
    mut rep: Replica,
    faults: Option<FaultConfig>,
    crash_epoch: Option<u64>,
) {
    let mut cached: Option<((u64, u64), Response)> = None;
    loop {
        let req = match port.recv() {
            Ok(r) => r,
            Err(_) => return,
        };
        if matches!(req, Request::Stop { .. }) {
            return;
        }
        let id = req.id();
        if crash_epoch.is_some_and(|ce| id.epoch >= ce) {
            // Simulated process kill: exit without answering; the master
            // discovers it through retry exhaustion.
            return;
        }
        if let Some((unit, resp)) = &cached {
            if id.unit() == *unit {
                // Re-send under the retransmission's attempt number so
                // the fault layer makes a fresh delivery decision — an
                // echoed attempt would be re-dropped identically forever.
                let mut resend = resp.clone();
                resend.set_attempt(id.attempt);
                if port.send(&resend).is_err() {
                    return;
                }
                continue;
            }
            if id.unit() < *unit {
                continue;
            }
        }
        let resp = compute_response(&mut rep, &req, faults.as_ref());
        let failed = matches!(resp, Response::Failed { .. });
        cached = Some((id.unit(), resp.clone()));
        if port.send(&resp).is_err() || failed {
            return;
        }
    }
}

fn compute_response(rep: &mut Replica, req: &Request, faults: Option<&FaultConfig>) -> Response {
    let id = req.id();
    let down = faults.is_some_and(|f| f.is_down(rep.worker_id, id.epoch as usize));
    match req {
        Request::Epoch { params, .. } => {
            if down {
                // Injected-down for the epoch: answer (so the master need
                // not wait out a timeout) without touching the RNG.
                return Response::Unavailable { id };
            }
            match rep.epoch_ma(id.epoch, params) {
                Ok((flat, loss_sum, batches)) => Response::Epoch {
                    id,
                    params: flat,
                    loss_sum,
                    batches,
                    ledger: rep.ledger_delta(),
                },
                Err(error) => Response::Failed { id, error },
            }
        }
        Request::Round { params, .. } => {
            // The epoch shuffle happens even for down workers (their RNG
            // stream must match a fault-free run of the same seed).
            rep.ensure_shuffled(id.epoch);
            if down {
                return Response::Round {
                    id,
                    active: false,
                    loss: 0.0,
                    grads: Vec::new(),
                    ledger: rep.ledger_delta(),
                };
            }
            match rep.round_ga(id.epoch, id.round, params) {
                Ok(Some((loss, grads))) => Response::Round {
                    id,
                    active: true,
                    loss,
                    grads,
                    ledger: rep.ledger_delta(),
                },
                Ok(None) => Response::Round {
                    id,
                    active: false,
                    loss: 0.0,
                    grads: Vec::new(),
                    ledger: rep.ledger_delta(),
                },
                Err(error) => Response::Failed { id, error },
            }
        }
        Request::Stop { .. } => Response::Unavailable { id },
    }
}

/// The master's gather engine: broadcast, collect with per-message
/// timeout + bounded exponential backoff, enforce the quorum.
pub(crate) struct MasterNet {
    hub: MasterHub,
    live: Vec<bool>,
    policy: RetryPolicy,
    /// Whether timeouts are in play at all. A fault-free full-quorum
    /// cluster uses plain blocking receives and never consults a clock.
    active: bool,
    quorum: usize,
    data_ledger: FetchLedger,
    dead: Vec<usize>,
}

impl MasterNet {
    pub fn new(hub: MasterHub, policy: RetryPolicy, active: bool, quorum: usize) -> Self {
        let workers = hub.workers();
        MasterNet {
            hub,
            live: vec![true; workers],
            policy,
            active,
            quorum,
            data_ledger: FetchLedger::default(),
            dead: Vec::new(),
        }
    }

    /// One synchronization unit: send `req`, re-addressed per worker and
    /// attempt, to every live worker and collect responses into
    /// worker-indexed slots.
    ///
    /// Every accepted response resets the retry ladder: a worker is only
    /// declared dead after the cluster made no progress at all through a
    /// whole retry budget, so a slow-but-alive worker is never mistaken
    /// for a crashed one just because it shares a gather with one.
    /// Dead workers are excluded from all later units. Errors with
    /// [`DistError::QuorumLost`] when fewer than `quorum` workers
    /// answered, and [`DistError::Worker`] when a worker reports an
    /// internal failure.
    fn gather(
        &mut self,
        mut req: Request,
    ) -> Result<Vec<Option<Response>>, DistError> {
        let unit = req.id().unit();
        let p = self.hub.workers();
        let mut slots: Vec<Option<Response>> = (0..p).map(|_| None).collect();
        let mut pending: Vec<usize> = (0..p).filter(|&w| self.live[w]).collect();
        for &w in &pending {
            req.address(w as u32, 0);
            let _ = self.hub.send(w, &req);
        }
        let mut attempt: u32 = 0;
        while !pending.is_empty() {
            let received = if self.active {
                match self.hub.recv_timeout(self.policy.window(attempt)) {
                    Ok(r) => r,
                    Err(NetError::Closed) => {
                        // Every worker hung up: no response can ever
                        // arrive, so give up on the pending set at once.
                        for &w in &pending {
                            self.live[w] = false;
                            self.dead.push(w);
                        }
                        pending.clear();
                        continue;
                    }
                    Err(e) => return Err(DistError::Worker(e.to_string())),
                }
            } else {
                match self.hub.recv() {
                    Ok(r) => Some(r),
                    Err(e) => {
                        return Err(DistError::Worker(format!(
                            "worker hung up mid-gather without faults configured: {e}"
                        )))
                    }
                }
            };
            match received {
                Some(resp) => {
                    let id = resp.id();
                    let w = id.worker as usize;
                    if id.unit() != unit || w >= p || slots[w].is_some() {
                        // Stale unit or duplicate delivery: discard.
                        continue;
                    }
                    if let Response::Failed { error, .. } = &resp {
                        return Err(DistError::Worker(format!("worker {w}: {error}")));
                    }
                    match &resp {
                        Response::Epoch { ledger, .. } | Response::Round { ledger, .. } => {
                            self.data_ledger.add(ledger);
                        }
                        _ => {}
                    }
                    slots[w] = Some(resp);
                    pending.retain(|&x| x != w);
                    attempt = 0;
                }
                None => {
                    if attempt >= self.policy.max_retries {
                        for &w in &pending {
                            self.live[w] = false;
                            self.dead.push(w);
                        }
                        pending.clear();
                    } else {
                        attempt += 1;
                        self.hub.note_retry();
                        for &w in &pending {
                            req.address(w as u32, attempt);
                            let _ = self.hub.send(w, &req);
                        }
                    }
                }
            }
        }
        let responders = slots.iter().filter(|s| s.is_some()).count();
        if responders < self.quorum {
            return Err(DistError::QuorumLost(format!(
                "epoch {} round {}: {responders} of {p} workers answered, quorum is {}",
                unit.0, unit.1, self.quorum
            )));
        }
        Ok(slots)
    }
}

/// Per-worker model-averaging contribution: `(flat params, loss sum,
/// batch count)`, `None` for down/dead workers.
pub(crate) type EpochSlot = Option<(Vec<f32>, f64, u64)>;

/// Per-worker gradient-averaging contribution: `(loss, flat grads)`,
/// `None` for inactive/down/dead workers.
pub(crate) type RoundSlot = Option<(f32, Vec<f32>)>;

/// How the master reaches its workers: over the message-passing cluster,
/// or by calling the replicas in-process and in worker order (the
/// sequential reference that defines bit-exact expected behaviour).
pub(crate) enum Backend {
    Net(MasterNet),
    Local { replicas: Vec<Replica>, faults: Option<FaultConfig> },
}

impl Backend {
    /// One model-averaging epoch: per-worker `(flat params, loss sum,
    /// batch count)` contributions, `None` for down/dead workers.
    pub fn epoch_ma(
        &mut self,
        epoch: usize,
        flat: &[f32],
    ) -> Result<Vec<EpochSlot>, DistError> {
        match self {
            Backend::Net(net) => {
                let slots = net.gather(Request::Epoch {
                    id: MsgId { worker: 0, epoch: epoch as u64, round: 0, attempt: 0 },
                    params: flat.to_vec(),
                })?;
                Ok(slots
                    .into_iter()
                    .map(|slot| match slot {
                        Some(Response::Epoch { params, loss_sum, batches, .. }) => {
                            Some((params, loss_sum, batches))
                        }
                        _ => None,
                    })
                    .collect())
            }
            Backend::Local { replicas, faults } => {
                let mut out = Vec::with_capacity(replicas.len());
                for rep in replicas.iter_mut() {
                    if faults.is_some_and(|f| f.is_down(rep.worker_id, epoch)) {
                        out.push(None);
                    } else {
                        out.push(Some(rep.epoch_ma(epoch as u64, flat).map_err(DistError::Worker)?));
                    }
                }
                Ok(out)
            }
        }
    }

    /// One gradient-averaging round: per-worker `(loss, flat grads)`
    /// contributions, `None` for inactive/down/dead workers.
    pub fn round_ga(
        &mut self,
        epoch: usize,
        round: u64,
        flat: &[f32],
    ) -> Result<Vec<RoundSlot>, DistError> {
        match self {
            Backend::Net(net) => {
                let slots = net.gather(Request::Round {
                    id: MsgId { worker: 0, epoch: epoch as u64, round, attempt: 0 },
                    params: flat.to_vec(),
                })?;
                Ok(slots
                    .into_iter()
                    .map(|slot| match slot {
                        Some(Response::Round { active: true, loss, grads, .. }) => {
                            Some((loss, grads))
                        }
                        _ => None,
                    })
                    .collect())
            }
            Backend::Local { replicas, faults } => {
                let mut out = Vec::with_capacity(replicas.len());
                for rep in replicas.iter_mut() {
                    rep.ensure_shuffled(epoch as u64);
                    if faults.is_some_and(|f| f.is_down(rep.worker_id, epoch)) {
                        out.push(None);
                    } else {
                        out.push(
                            rep.round_ga(epoch as u64, round, flat)
                                .map_err(DistError::Worker)?,
                        );
                    }
                }
                Ok(out)
            }
        }
    }

    /// Graph-data bytes fetched so far, from the vantage point this
    /// backend can actually observe: the shared tracker for in-process
    /// replicas, the gathered fetch ledgers for a cluster — whose
    /// workers may live in other processes, where the master-side
    /// tracker never advances. On a fault-free full-quorum run the two
    /// are identical (every response, hence every ledger delta, is
    /// accepted), which the bit-identity tests pin by comparing a
    /// cluster run's ledger-based report against the reference's
    /// tracker-based one.
    pub fn data_bytes_so_far(&self, tracker: &crate::CommMeter) -> u64 {
        match self {
            Backend::Net(net) => ledger_bytes(&net.data_ledger),
            Backend::Local { .. } => tracker.total_bytes(),
        }
    }

    /// On-wire graph-data bytes fetched so far, same vantage points as
    /// [`Backend::data_bytes_so_far`].
    pub fn data_wire_bytes_so_far(&self, tracker: &crate::CommMeter) -> u64 {
        match self {
            Backend::Net(net) => ledger_wire_bytes(&net.data_ledger),
            Backend::Local { .. } => tracker.total_wire_bytes(),
        }
    }

    /// Bus-plane feature bytes fetched so far, same vantage points as
    /// [`Backend::data_bytes_so_far`].
    pub fn comm_bus_bytes(&self, tracker: &crate::CommMeter) -> u64 {
        match self {
            Backend::Net(net) => ledger_bus_bytes(&net.data_ledger),
            Backend::Local { .. } => tracker.feature_bus_bytes(),
        }
    }

    /// `(structure bytes, feature bytes)` split of
    /// [`Backend::data_bytes_so_far`], for the final [`CommReport`].
    ///
    /// [`CommReport`]: crate::CommReport
    pub fn comm_split(&self, tracker: &crate::CommMeter) -> (u64, u64) {
        match self {
            Backend::Net(net) => {
                let l = &net.data_ledger;
                (
                    l.structure_edges * BYTES_PER_EDGE + l.structure_nodes * BYTES_PER_NODE_ID,
                    l.feature_elems * BYTES_PER_FEATURE,
                )
            }
            Backend::Local { .. } => (tracker.structure_bytes(), tracker.feature_bytes()),
        }
    }

    /// `(structure wire bytes, feature wire bytes)` split under the
    /// negotiated codec, same vantage points as [`Backend::comm_split`].
    pub fn comm_wire_split(&self, tracker: &crate::CommMeter) -> (u64, u64) {
        match self {
            Backend::Net(net) => {
                let l = &net.data_ledger;
                (l.structure_wire_bytes, l.feature_wire_bytes)
            }
            Backend::Local { .. } => {
                (tracker.structure_wire_bytes(), tracker.feature_wire_bytes())
            }
        }
    }

    /// Shuts the cluster down (if any) and reports wire traffic.
    pub fn finish(self) -> NetReport {
        match self {
            Backend::Net(mut net) => {
                net.hub.shutdown();
                let snap = net.hub.stats();
                net.dead.sort_unstable();
                net.dead.dedup();
                NetReport {
                    messages: snap.messages,
                    bytes: snap.bytes,
                    dropped: snap.dropped,
                    duplicated: snap.duplicated,
                    delayed: snap.delayed,
                    retries: snap.retries,
                    data_bytes: ledger_bytes(&net.data_ledger),
                    data_wire_bytes: ledger_wire_bytes(&net.data_ledger),
                    data_bus_bytes: ledger_bus_bytes(&net.data_ledger),
                    shm_fault: None,
                    kinds: snap.kinds,
                    dead_workers: net.dead,
                }
            }
            Backend::Local { .. } => NetReport::default(),
        }
    }
}

/// Folds model-averaging contributions into the global parameters
/// (worker order; down workers excluded; all-down epochs carry the model
/// over) and returns the mean loss.
pub(crate) fn ma_aggregate(
    contribs: Vec<Option<(Vec<f32>, f64, u64)>>,
    global_flat: &mut Vec<f32>,
) -> Result<f32, DistError> {
    let mut flats = Vec::with_capacity(contribs.len());
    let mut loss_sum = 0.0f64;
    let mut batch_count = 0u64;
    for (flat, loss, batches) in contribs.into_iter().flatten() {
        flats.push(flat);
        loss_sum += loss;
        batch_count += batches;
    }
    if !flats.is_empty() {
        *global_flat =
            ParamSet::average_flat(&flats).map_err(|e| DistError::Worker(e.to_string()))?;
    }
    Ok((loss_sum / batch_count.max(1) as f64) as f32)
}

/// Applies one gradient-averaging round to the master parameters.
/// Non-contributing workers enter as zero gradients so the averaging
/// divisor stays at `p` (unbiased towards still-active workers).
pub(crate) fn ga_apply_round(
    contribs: Vec<Option<(f32, Vec<f32>)>>,
    master_params: &mut ParamSet,
    master_opt: &mut Adam,
    global_flat: &mut Vec<f32>,
    loss_acc: &mut (f64, u64),
) -> Result<(), DistError> {
    let shapes: Vec<(usize, usize)> =
        (0..master_params.len()).map(|i| master_params.value(i).shape()).collect();
    let mut worker_grads = Vec::with_capacity(contribs.len());
    for contrib in contribs {
        match contrib {
            Some((loss, flat)) => {
                loss_acc.0 += loss as f64;
                loss_acc.1 += 1;
                worker_grads.push(unflatten_grads(&flat, &shapes).map_err(DistError::Worker)?);
            }
            None => {
                worker_grads.push(shapes.iter().map(|&(r, c)| Tensor::zeros(r, c)).collect());
            }
        }
    }
    let avg = average_grads(&worker_grads).map_err(|e| DistError::Worker(e.to_string()))?;
    master_params.load_flat(global_flat).map_err(|e| DistError::Worker(e.to_string()))?;
    master_opt.step(master_params, &avg);
    *global_flat = master_params.to_flat();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grads_flatten_round_trip() {
        let grads = vec![
            Tensor::from_fn(2, 3, |r, c| (r * 3 + c) as f32),
            Tensor::from_fn(1, 4, |_, c| -(c as f32)),
        ];
        let flat = flatten_grads(&grads);
        assert_eq!(flat.len(), 10);
        let back = unflatten_grads(&flat, &[(2, 3), (1, 4)]).unwrap();
        for (a, b) in grads.iter().zip(&back) {
            assert_eq!(a.data(), b.data());
            assert_eq!(a.shape(), b.shape());
        }
    }

    #[test]
    fn unflatten_rejects_wrong_sizes() {
        assert!(unflatten_grads(&[1.0; 5], &[(2, 3)]).is_err(), "too short");
        assert!(unflatten_grads(&[1.0; 7], &[(2, 3)]).is_err(), "trailing");
        assert!(unflatten_grads(&[], &[]).unwrap().is_empty());
    }

    #[test]
    fn ledger_bytes_match_tracker_constants() {
        let l = FetchLedger {
            structure_edges: 3,
            structure_nodes: 2,
            feature_elems: 35,
            ..FetchLedger::default()
        };
        assert_eq!(ledger_bytes(&l), 3 * 16 + 2 * 8 + 35 * 4);
        // The exact scenario of the CommTracker hand-computed test.
        let t = CommTracker::new();
        t.add_structure(3, 2);
        t.add_features(7, 5);
        let via_tracker = FetchLedger {
            structure_edges: t.structure_edges(),
            structure_nodes: t.structure_nodes(),
            feature_elems: t.feature_elems(),
            structure_wire_bytes: t.structure_wire_bytes(),
            feature_wire_bytes: t.feature_wire_bytes(),
            feature_bus_elems: t.feature_bus_elems(),
        };
        assert_eq!(ledger_bytes(&via_tracker), t.total_bytes());
        // Uncompressed transfers price wire bytes identically to raw.
        assert_eq!(ledger_wire_bytes(&via_tracker), t.total_bytes());
    }

    #[test]
    fn ma_aggregate_averages_live_workers_only() {
        let mut flat = vec![0.0f32; 2];
        let contribs = vec![
            Some((vec![1.0, 3.0], 2.0, 2)),
            None,
            Some((vec![3.0, 5.0], 4.0, 2)),
        ];
        let mean = ma_aggregate(contribs, &mut flat).unwrap();
        assert_eq!(flat, vec![2.0, 4.0]);
        assert!((mean - 1.5).abs() < 1e-6);
    }

    #[test]
    fn ma_aggregate_all_down_carries_model_over() {
        let mut flat = vec![7.0f32, 8.0];
        let mean = ma_aggregate(vec![None, None], &mut flat).unwrap();
        assert_eq!(flat, vec![7.0, 8.0]);
        assert_eq!(mean, 0.0);
    }
}
