use std::sync::{Arc, Mutex};
use std::time::Duration;

use splpg_rng::rngs::StdRng;
use splpg_rng::seq::SliceRandom;
use splpg_rng::SeedableRng;
use splpg_datasets::Dataset;
use splpg_gnn::trainer::{
    batch_grads, evaluate_hits, train_centralized, ModelKind, TrainConfig,
};
use splpg_graph::Graph;
use splpg_gnn::{FullFeatureAccess, FullGraphAccess, NeighborSampler, PerSourceNegativeSampler};
use splpg_net::process::{spawn_cluster, worker_from_env, ProcessSpec, WorkerEnv};
use splpg_net::shm::{identity_hash, segment_name};
use splpg_net::{
    ClusterConfig, CodecConfig, FaultPlan, FetchLedger, RetryPolicy, SegmentSpec, ShmLane,
    ShmOwner, TcpConfig,
};
use splpg_nn::{Adam, Optimizer, ParamSet};

use crate::runtime::{
    ga_apply_round, ma_aggregate, worker_loop, Backend, MasterNet, NetReport, Replica, Workspace,
};
use crate::comm::{raw_bytes, wire_bytes};
use crate::setup::{ClusterSetup, WorkerData};
use crate::{CommReport, DistError, Strategy};

/// How worker replicas are synchronized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncMethod {
    /// FedAvg-style model averaging once per epoch — what the paper's
    /// baselines use and what it reports ("their prediction performance
    /// remains more or less the same").
    ModelAveraging,
    /// Synchronous gradient averaging every mini-batch (Algorithm 1 lines
    /// 29–30), like PyTorch DDP's `all_reduce`.
    GradientAveraging,
}

/// Fault-injection configuration: each worker independently crashes for a
/// whole epoch with the given probability (it contributes nothing to that
/// epoch's synchronization and rejoins at the next one — the behaviour of
/// FedAvg-style systems under worker preemption).
///
/// This models *epoch-granular* unavailability; message-level wire faults
/// (drop/duplicate/delay/permanent crash) live in
/// [`DistConfig::wire_faults`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Per-worker, per-epoch failure probability in `[0, 1)`.
    pub failure_probability: f64,
    /// Seed of the (deterministic) failure schedule.
    pub seed: u64,
}

impl FaultConfig {
    /// Whether `worker` is down during `epoch` (deterministic hash).
    pub(crate) fn is_down(&self, worker: usize, epoch: usize) -> bool {
        let mut h = self.seed ^ 0x9e37_79b9_7f4a_7c15;
        for x in [worker as u64 + 1, epoch as u64 + 1] {
            h ^= x;
            h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
            h ^= h >> 33;
        }
        (h as f64 / u64::MAX as f64) < self.failure_probability
    }
}

/// Whether co-located workers read remote feature rows over a POSIX
/// shared-memory segment instead of the wire.
///
/// The decision is purely configuration-deterministic: with the bus on,
/// *every* remote feature row rides the bus (structure fetches stay on
/// the wire), in the cluster run and in the sequential reference alike —
/// which is what keeps the two bit-identical. A segment that cannot be
/// created or fails validation at attach time degrades the run to the
/// wire path with the typed error recorded in
/// [`NetReport::shm_fault`](crate::NetReport), never a crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShmBusMode {
    /// No shared-memory bus: all remote fetches ride the wire.
    #[default]
    Off,
    /// Publish the feature matrix in a shared-memory segment and serve
    /// remote feature rows from it, metered on the local-bus plane.
    On,
    /// Like `On`, but the owner corrupts the sealed payload before any
    /// worker attaches — a deterministic way to exercise the
    /// checksum-detected fallback to the wire path in tests and benches.
    CorruptForTest,
}

/// Cluster configuration for a distributed run.
#[derive(Debug, Clone)]
pub struct DistConfig {
    /// Number of workers `p` (the paper uses 4, 8, 16).
    pub num_workers: usize,
    /// Training strategy.
    pub strategy: Strategy,
    /// Synchronization method.
    pub sync: SyncMethod,
    /// Sparsification level `alpha` (paper default 0.15).
    pub alpha: f64,
    /// Evaluate validation accuracy every this many epochs (1 = every
    /// epoch; evaluation is master-side and not metered).
    pub eval_every: usize,
    /// Seed for partitioning/sparsification.
    pub setup_seed: u64,
    /// Optional epoch-granular worker fault injection.
    pub faults: Option<FaultConfig>,
    /// Sparsification algorithm for the shared remote copies.
    pub sparsifier: crate::SparsifierKind,
    /// Minimum number of workers that must answer each synchronization
    /// unit for training to proceed (`None` = all of them). Responses
    /// from injected-down workers count — they answered, they just
    /// contributed nothing. Falling below the quorum aborts with
    /// [`DistError::QuorumLost`].
    pub quorum: Option<usize>,
    /// Per-message timeout/backoff/retry policy. Only consulted when
    /// silence is possible (wire faults configured or quorum below `p`);
    /// a fault-free full-quorum run never starts a timer.
    pub retry: RetryPolicy,
    /// Optional message-level wire faults (drop/duplicate/delay/crash),
    /// applied deterministically per message by the transport layer.
    pub wire_faults: Option<FaultPlan>,
    /// Wire codec for protocol frames *and* data-plane pricing:
    /// delta+varint/RLE packing for structure payloads, f16/int8 row
    /// quantization for feature payloads. The default is uncompressed,
    /// which is lossless and bit-identical to pre-compression behaviour.
    pub wire_codec: CodecConfig,
    /// Shared-memory feature bus for co-located workers (default off).
    pub feature_bus: ShmBusMode,
}

impl Default for DistConfig {
    fn default() -> Self {
        DistConfig {
            num_workers: 4,
            strategy: Strategy::SpLpg,
            sync: SyncMethod::ModelAveraging,
            alpha: 0.15,
            eval_every: 1,
            setup_seed: 17,
            faults: None,
            sparsifier: crate::SparsifierKind::default(),
            quorum: None,
            retry: RetryPolicy::default(),
            wire_faults: None,
            wire_codec: CodecConfig::default(),
            feature_bus: ShmBusMode::default(),
        }
    }
}

/// Per-epoch statistics of a distributed run.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean worker training loss.
    pub mean_loss: f32,
    /// Validation Hits@K (when evaluated this epoch).
    pub valid_hits: Option<f64>,
    /// Master→worker bytes transferred during this epoch.
    pub comm_bytes: u64,
    /// On-wire bytes of those transfers under the negotiated codec
    /// (equals `comm_bytes` when compression is off).
    pub comm_wire_bytes: u64,
}

/// Outcome of a distributed training run.
#[derive(Debug)]
pub struct DistOutcome {
    /// Test Hits@K of the best-validation parameters.
    pub test_hits: f64,
    /// Per-epoch statistics.
    pub epochs: Vec<EpochStats>,
    /// Communication report.
    pub comm: CommReport,
    /// Partitioning wall-clock time.
    pub partition_time: Duration,
    /// Sparsification wall-clock time (Table II; zero if not sparsified).
    pub sparsify_time: Duration,
    /// `(epoch, worker)` pairs that were down due to fault injection.
    pub failures: Vec<(usize, usize)>,
    /// Wire-level traffic report (all zeros for the sequential reference
    /// and the centralized path, which move no messages).
    pub net: NetReport,
}

/// Distributed trainer implementing Algorithm 1 and all baselines.
#[derive(Debug, Clone)]
pub struct DistTrainer {
    dist: DistConfig,
    train: TrainConfig,
}

impl DistTrainer {
    /// Creates a trainer from cluster + hyperparameter configuration.
    pub fn new(dist: DistConfig, train: TrainConfig) -> Self {
        DistTrainer { dist, train }
    }

    /// Rejects invalid cluster, fault, retry, and quorum parameters
    /// before any thread or channel exists.
    fn validate(&self) -> Result<(), DistError> {
        if self.dist.num_workers < 2 {
            return Err(DistError::InvalidConfig(
                "distributed strategies need at least 2 workers".to_string(),
            ));
        }
        if self.dist.eval_every == 0 {
            return Err(DistError::InvalidConfig(
                "eval_every must be at least 1 (evaluate every n-th epoch)".to_string(),
            ));
        }
        if let Some(f) = &self.dist.faults {
            let p = f.failure_probability;
            if !p.is_finite() {
                return Err(DistError::InvalidFault(format!(
                    "failure probability is not finite ({p})"
                )));
            }
            if p < 0.0 {
                return Err(DistError::InvalidFault(format!(
                    "failure probability {p} is negative"
                )));
            }
            if p >= 1.0 {
                return Err(DistError::InvalidFault(format!(
                    "failure probability {p} >= 1 leaves no worker to ever synchronize"
                )));
            }
        }
        if let Some(plan) = &self.dist.wire_faults {
            plan.validate().map_err(DistError::InvalidFault)?;
            for &(w, _) in &plan.crashes {
                if w >= self.dist.num_workers {
                    return Err(DistError::InvalidFault(format!(
                        "crash schedule names worker {w} but the cluster has {} workers",
                        self.dist.num_workers
                    )));
                }
            }
        }
        self.dist.retry.validate().map_err(DistError::InvalidFault)?;
        if let Some(q) = self.dist.quorum {
            if q == 0 {
                return Err(DistError::InvalidFault(
                    "quorum of 0 would let training proceed with no workers at all"
                        .to_string(),
                ));
            }
            if q > self.dist.num_workers {
                return Err(DistError::InvalidFault(format!(
                    "quorum {q} exceeds the worker count {}",
                    self.dist.num_workers
                )));
            }
        }
        Ok(())
    }

    /// Builds the training graph and the partitioned cluster setup.
    fn prepare(&self, data: &Dataset) -> Result<(Arc<Graph>, ClusterSetup), DistError> {
        let train_graph = Arc::new(
            data.split
                .train_graph(data.graph.num_nodes())
                .map_err(|e| DistError::InvalidConfig(e.to_string()))?,
        );
        let features = Arc::new(data.features.clone());
        let setup = ClusterSetup::build_with_sparsifier(
            &train_graph,
            &features,
            self.dist.strategy.spec(),
            self.dist.num_workers,
            self.dist.alpha,
            self.dist.setup_seed,
            self.dist.sparsifier,
        )?;
        Ok((train_graph, setup))
    }

    /// Identity the feature-bus segment is pinned to: the geometry plus
    /// the seeds every process derives deterministically from its own
    /// configuration, so a master and its worker children agree without
    /// negotiation — and a stale segment from a different run can never
    /// validate.
    fn bus_spec(&self, data: &Dataset) -> SegmentSpec {
        let rows = data.features.num_rows() as u64;
        let dim = data.features.dim() as u64;
        SegmentSpec {
            rows,
            dim,
            identity: identity_hash(&[rows, dim, self.dist.setup_seed, self.train.seed]),
        }
    }

    /// Publishes the feature segment and attaches the master-side lane.
    /// Any failure — creation, the test-only corruption hook, or attach
    /// validation — leaves the lane `None` with the typed error's display
    /// form as the fault; the run then proceeds on the wire path.
    fn setup_bus(&self, data: &Dataset) -> (Option<ShmOwner>, Option<ShmLane>, Option<String>) {
        if self.dist.feature_bus == ShmBusMode::Off {
            return (None, None, None);
        }
        let spec = self.bus_spec(data);
        let name = segment_name("bus");
        let owner = match ShmOwner::create(&name, &spec, data.features.as_slice()) {
            Ok(owner) => owner,
            Err(e) => return (None, None, Some(e.to_string())),
        };
        if self.dist.feature_bus == ShmBusMode::CorruptForTest {
            if let Err(e) = owner.corrupt_payload_for_test() {
                return (Some(owner), None, Some(e.to_string()));
            }
        }
        match ShmLane::attach(&name, &spec) {
            Ok(lane) => (Some(owner), Some(lane), None),
            Err(e) => (Some(owner), None, Some(e.to_string())),
        }
    }

    /// One worker's replica. Every replica starts from the same model
    /// initialization and seeds its own RNG stream, so building one alone
    /// (a worker process) gives the same bits as building all of them.
    fn build_replica(
        &self,
        kind: ModelKind,
        data: &Dataset,
        worker: &WorkerData,
        bus: Option<&ShmLane>,
    ) -> Replica {
        let mut rng = StdRng::seed_from_u64(self.train.seed);
        let mut params = ParamSet::new();
        let model = self.train.build_model(kind, data.features.dim(), &mut params, &mut rng);
        // Every replica path (cluster, multi-process, sequential
        // reference) prices and degrades remote fetches under the same
        // codec, which is what keeps them bit-identical.
        let mut w = worker.clone();
        w.view = w.view.with_wire_codec(self.dist.wire_codec);
        if let Some(lane) = bus {
            w.view = w.view.with_feature_bus(lane.clone());
        }
        let stream = splpg_rng::derive_stream(self.train.seed, w.worker_id as u64 + 1);
        Replica::new(
            model,
            params,
            Adam::new(self.train.learning_rate),
            stream,
            w,
            self.train.sampler(),
            self.train.batch_size,
        )
    }

    /// Runs training of `kind` on `data` and returns accuracy +
    /// communication statistics.
    ///
    /// Workers run as long-lived actors on dedicated threads and exchange
    /// typed serialized messages with the master through `splpg-net`;
    /// with no wire faults and a full quorum the result is bit-identical
    /// to [`DistTrainer::run_reference`].
    ///
    /// # Errors
    ///
    /// Propagates configuration, partitioning and worker failures;
    /// [`DistError::QuorumLost`] when too few workers answer a
    /// synchronization unit.
    pub fn run(&self, kind: ModelKind, data: &Dataset) -> Result<DistOutcome, DistError> {
        if self.dist.strategy == Strategy::Centralized {
            return self.run_centralized(kind, data);
        }
        self.validate()?;
        let (train_graph, setup) = self.prepare(data)?;
        // The owner must outlive every replica: it unlinks the segment on
        // drop, and lanes hold the mapping alive independently of the file.
        let (bus_owner, bus_lane, bus_fault) = self.setup_bus(data);
        let p = self.dist.num_workers;
        let quorum = self.dist.quorum.unwrap_or(p);
        let wire: Option<FaultPlan> = self.dist.wire_faults.clone().filter(|f| f.is_active());
        let cluster_cfg =
            ClusterConfig { workers: p, faults: wire.clone(), codec: self.dist.wire_codec };
        let cells: Vec<Mutex<Option<Replica>>> = setup
            .workers
            .iter()
            .map(|w| Mutex::new(Some(self.build_replica(kind, data, w, bus_lane.as_ref()))))
            .collect();
        let faults = self.dist.faults;
        let (result, stats) = splpg_net::run_cluster(
            &cluster_cfg,
            |port| {
                let w = port.worker();
                let rep = cells[w]
                    .lock()
                    .expect("invariant: replica cell never poisoned")
                    .take()
                    .expect("invariant: one actor per replica");
                let crash = wire.as_ref().and_then(|f| f.crash_epoch(w)).map(|e| e as u64);
                worker_loop(port, rep, faults, crash);
            },
            |hub| {
                let stats = hub.stats_handle();
                let active = wire.is_some() || quorum < p;
                let net = MasterNet::new(hub, self.dist.retry, active, quorum);
                (self.master_loop(Backend::Net(net), kind, data, &train_graph, &setup), stats)
            },
        );
        // Wire counters land on the *sending* thread after a frame enters
        // its lane; only now — with every worker joined — is the snapshot
        // guaranteed to cover all traffic, so the frame counts taken
        // inside the master loop are replaced with the final ones.
        let mut result = result;
        if let Ok(out) = &mut result {
            let snap = stats.snapshot();
            out.net.messages = snap.messages;
            out.net.bytes = snap.bytes;
            out.net.dropped = snap.dropped;
            out.net.duplicated = snap.duplicated;
            out.net.delayed = snap.delayed;
            out.net.retries = snap.retries;
            out.net.kinds = snap.kinds;
            out.net.shm_fault = bus_fault;
        }
        drop(bus_owner);
        result
    }

    /// Runs training with `p` real worker *processes* over loopback TCP:
    /// the current binary is re-executed once per worker (role handoff by
    /// environment variable, rendezvous through an ephemeral port file),
    /// each child builds its replica deterministically from the same
    /// configuration and dataset, and the master drives the identical
    /// [`master_loop`] it uses over in-process channels — so a fault-free
    /// run is bit-identical to [`DistTrainer::run`] and to
    /// [`DistTrainer::run_reference`].
    ///
    /// `child_args` are passed to the re-executed binary; a test binary
    /// uses them to route the child into the test that calls
    /// [`tcp_worker_entry`]. The child-side code path must exist — a
    /// child that never dials in stalls the rendezvous until its bounded
    /// window closes.
    ///
    /// [`master_loop`]: DistTrainer::run
    ///
    /// # Errors
    ///
    /// As [`DistTrainer::run`], plus [`DistError::Process`] when
    /// spawning, the rendezvous, or a worker process fails.
    pub fn run_multiprocess(
        &self,
        kind: ModelKind,
        data: &Dataset,
        child_args: &[String],
    ) -> Result<DistOutcome, DistError> {
        if self.dist.strategy == Strategy::Centralized {
            return Err(DistError::InvalidConfig(
                "centralized training has no worker processes to spawn".to_string(),
            ));
        }
        self.validate()?;
        let (train_graph, setup) = self.prepare(data)?;
        // The master publishes the segment before any child spawns, so a
        // child that can read its environment always finds a sealed
        // segment (or none at all — never a half-written one).
        let (bus_owner, _bus_lane, bus_fault) = self.setup_bus(data);
        let p = self.dist.num_workers;
        let quorum = self.dist.quorum.unwrap_or(p);
        let wire: Option<FaultPlan> = self.dist.wire_faults.clone().filter(|f| f.is_active());
        let spec = ProcessSpec {
            workers: p,
            faults: wire.clone(),
            tcp: TcpConfig::default(),
            child_args: child_args.to_vec(),
            codec: self.dist.wire_codec,
            shm_segment: bus_owner.as_ref().map(|o| o.name().to_string()),
        };
        let (hub, children) =
            spawn_cluster(&spec).map_err(|e| DistError::Process(e.to_string()))?;
        let active = wire.is_some() || quorum < p;
        let net = MasterNet::new(hub, self.dist.retry, active, quorum);
        let result = self.master_loop(Backend::Net(net), kind, data, &train_graph, &setup);
        // master_loop consumed the hub (finish broadcast Stop and closed
        // every lane), so the children are already exiting; reap them and
        // surface any non-zero exit even when training itself succeeded.
        let joined = children.join();
        drop(bus_owner);
        let mut out = result?;
        out.net.shm_fault = bus_fault;
        joined.map_err(|e| DistError::Process(e.to_string()))?;
        Ok(out)
    }

    /// The worker-process half of [`DistTrainer::run_multiprocess`]:
    /// rebuilds this worker's replica deterministically (same
    /// configuration, same dataset, same seeds as the master and every
    /// sibling), dials the master, and serves requests until a `Stop`
    /// frame, master hang-up, or this worker's scheduled crash epoch.
    ///
    /// # Errors
    ///
    /// Configuration/setup errors as [`DistTrainer::run`];
    /// [`DistError::Process`] when the rendezvous or dial fails, or when
    /// the spawning master's worker count disagrees with this
    /// configuration.
    pub(crate) fn run_tcp_worker(
        &self,
        env: &WorkerEnv,
        kind: ModelKind,
        data: &Dataset,
    ) -> Result<(), DistError> {
        self.validate()?;
        if env.workers() != self.dist.num_workers {
            return Err(DistError::Process(format!(
                "spawned into a {}-worker cluster but configured for {}",
                env.workers(),
                self.dist.num_workers
            )));
        }
        let (_train_graph, setup) = self.prepare(data)?;
        // Attach the advertised feature segment, if any. Attach failure
        // (torn, missing, version- or identity-mismatched segment) falls
        // back to the wire path silently — the child keeps training; only
        // the metering planes shift, which the master observes through
        // the fetch ledgers.
        let bus_lane = match (self.dist.feature_bus, env.shm_segment()) {
            (ShmBusMode::Off, _) | (_, None) => None,
            (_, Some(name)) => ShmLane::attach(name, &self.bus_spec(data)).ok(),
        };
        let w = env.worker();
        let worker = setup.workers.get(w).ok_or_else(|| {
            DistError::Process(format!(
                "worker index {w} out of range for {} workers",
                setup.workers.len()
            ))
        })?;
        let rep = self.build_replica(kind, data, worker, bus_lane.as_ref());
        let wire: Option<FaultPlan> = self.dist.wire_faults.clone().filter(|f| f.is_active());
        let crash = wire.as_ref().and_then(|f| f.crash_epoch(w)).map(|e| e as u64);
        // Dial only now, with the replica fully built: the instant the
        // rendezvous completes this worker can serve, so the master's
        // retry clock (when faults make it run) never races replica
        // construction.
        let port = env
            .connect(wire.as_ref(), &TcpConfig::default())
            .map_err(|e| DistError::Process(e.to_string()))?
            .with_codec(self.dist.wire_codec);
        worker_loop(port, rep, self.dist.faults, crash);
        Ok(())
    }

    /// Sequential in-process reference of [`DistTrainer::run`]: the same
    /// replicas answer the same requests through the same worker-side
    /// code, on the calling thread in worker order with no message
    /// passing, and the same master loop aggregates and meters them. This
    /// defines the expected bits of a fault-free cluster run.
    ///
    /// # Errors
    ///
    /// Rejects configurations with active wire faults (only the cluster
    /// path can inject them); otherwise as [`DistTrainer::run`].
    pub fn run_reference(&self, kind: ModelKind, data: &Dataset) -> Result<DistOutcome, DistError> {
        if self.dist.strategy == Strategy::Centralized {
            return self.run_centralized(kind, data);
        }
        if self.dist.wire_faults.as_ref().is_some_and(|f| f.is_active()) {
            return Err(DistError::InvalidConfig(
                "the sequential reference cannot inject wire faults; use run()".to_string(),
            ));
        }
        self.validate()?;
        let (train_graph, setup) = self.prepare(data)?;
        let (bus_owner, bus_lane, bus_fault) = self.setup_bus(data);
        let replicas =
            setup.workers.iter().map(|w| self.build_replica(kind, data, w, bus_lane.as_ref()));
        let backend = Backend::Local { replicas: replicas.collect(), faults: self.dist.faults };
        let mut out = self.master_loop(backend, kind, data, &train_graph, &setup)?;
        out.net.shm_fault = bus_fault;
        drop(bus_owner);
        Ok(out)
    }

    /// The master's training loop, identical for the cluster and the
    /// sequential reference backend.
    fn master_loop(
        &self,
        mut backend: Backend,
        kind: ModelKind,
        data: &Dataset,
        train_graph: &Arc<Graph>,
        setup: &ClusterSetup,
    ) -> Result<DistOutcome, DistError> {
        let spec = self.dist.strategy.spec();
        let mut master_rng = StdRng::seed_from_u64(self.train.seed);
        let mut master_params = ParamSet::new();
        let master_model =
            self.train.build_model(kind, data.features.dim(), &mut master_params, &mut master_rng);
        let sampler = self.train.sampler();
        let eval_sampler = NeighborSampler::full(self.train.layers);
        let mut master_opt = Adam::new(self.train.learning_rate);
        let mut correction_opt = Adam::new(self.train.learning_rate);
        let mut correction_rng = splpg_rng::derive_stream(self.train.seed, 0xC0FFEE);
        // The master thread's one workspace: the sequential backend's
        // replicas (in worker order), the LLCG correction step and every
        // evaluation borrow it in turn.
        let mut ws = Workspace::default();

        let mut global_flat = master_params.to_flat();
        let mut epochs = Vec::with_capacity(self.train.epochs);
        let mut best = (f64::NEG_INFINITY, global_flat.clone());
        // Every fetch ledger the backend accepted: the run's one data-plane
        // meter, priced into the per-epoch stats, the CommReport and the
        // cluster's NetReport alike.
        let mut fetched = FetchLedger::default();
        let rounds_per_epoch = setup
            .workers
            .iter()
            .map(|w| w.positives.len().div_ceil(self.train.batch_size))
            .max()
            .unwrap_or(0);
        let mut failures: Vec<(usize, usize)> = Vec::new();

        // The epoch loop runs inside a closure so an error still reaches
        // backend.finish() below — which shuts the cluster down and keeps
        // the error path deadlock-free by construction.
        let loop_result: Result<(), DistError> = (|| {
            for epoch in 0..self.train.epochs {
                let mut epoch_fetched = FetchLedger::default();
                for w in 0..self.dist.num_workers {
                    if self.dist.faults.is_some_and(|f| f.is_down(w, epoch)) {
                        failures.push((epoch, w));
                    }
                }
                let mean_loss = match self.dist.sync {
                    SyncMethod::ModelAveraging => {
                        let contribs =
                            backend.epoch_ma(epoch, &global_flat, &mut epoch_fetched, &mut ws)?;
                        ma_aggregate(contribs, &mut global_flat)?
                    }
                    SyncMethod::GradientAveraging => {
                        // Per epoch, so the evaluation's peak does not carry it.
                        let (mut loss_acc, mut ga_avg) = ((0.0f64, 0u64), Vec::new());
                        for round in 0..rounds_per_epoch {
                            let contribs = backend.round_ga(
                                epoch,
                                round as u64,
                                &global_flat,
                                &mut epoch_fetched,
                                &mut ws,
                            )?;
                            ga_apply_round(
                                contribs,
                                &mut master_params,
                                &mut master_opt,
                                &mut ga_avg,
                                &mut global_flat,
                                &mut loss_acc,
                            )?;
                        }
                        (loss_acc.0 / loss_acc.1.max(1) as f64) as f32
                    }
                };

                // LLCG global correction: the master performs a centralized
                // step on the full graph after synchronization.
                if spec.global_correction {
                    master_params
                        .load_flat(&global_flat)
                        .map_err(|e| DistError::Worker(e.to_string()))?;
                    let mut batch = data.split.train.clone();
                    batch.shuffle(&mut correction_rng);
                    batch.truncate(self.train.batch_size.min(batch.len()));
                    let ga = FullGraphAccess::new(train_graph);
                    let mut fa = FullFeatureAccess::new(&data.features);
                    let negative_sampler =
                        PerSourceNegativeSampler::global(data.graph.num_nodes());
                    let (_, grads) = batch_grads(
                        &master_model,
                        &master_params,
                        &ga,
                        &mut fa,
                        &sampler,
                        &negative_sampler,
                        &batch,
                        &mut correction_rng,
                        &mut ws.tape,
                        &mut ws.scratch,
                    )
                    .map_err(|e| DistError::Worker(e.to_string()))?;
                    correction_opt.step(&mut master_params, &grads);
                    for g in grads {
                        ws.tape.recycle(g);
                    }
                    global_flat = master_params.to_flat();
                }

                fetched.add(&epoch_fetched);

                let valid_hits = if epoch % self.dist.eval_every == 0
                    || epoch + 1 == self.train.epochs
                {
                    master_params
                        .load_flat(&global_flat)
                        .map_err(|e| DistError::Worker(e.to_string()))?;
                    let ga = FullGraphAccess::new(train_graph);
                    let mut fa = FullFeatureAccess::new(&data.features);
                    let hits = evaluate_hits(
                        &master_model,
                        &master_params,
                        &ga,
                        &mut fa,
                        &eval_sampler,
                        &data.split.valid,
                        &data.split.valid_neg,
                        self.train.hits_k,
                        &mut master_rng,
                        &mut ws.tape,
                        &mut ws.scratch,
                    )
                    .map_err(|e| DistError::Eval(e.to_string()))?;
                    if hits > best.0 {
                        best = (hits, global_flat.clone());
                    }
                    Some(hits)
                } else {
                    None
                };
                epochs.push(EpochStats {
                    epoch,
                    mean_loss,
                    valid_hits,
                    comm_bytes: raw_bytes(&epoch_fetched),
                    comm_wire_bytes: wire_bytes(&epoch_fetched),
                });
            }
            Ok(())
        })();
        let net = backend.finish(&fetched);
        loop_result?;

        master_params.load_flat(&best.1).map_err(|e| DistError::Worker(e.to_string()))?;
        let ga = FullGraphAccess::new(train_graph);
        let mut fa = FullFeatureAccess::new(&data.features);
        let test_hits = evaluate_hits(
            &master_model,
            &master_params,
            &ga,
            &mut fa,
            &eval_sampler,
            &data.split.test,
            &data.split.test_neg,
            self.train.hits_k,
            &mut master_rng,
            &mut ws.tape,
            &mut ws.scratch,
        )
        .map_err(|e| DistError::Eval(e.to_string()))?;

        let comm = CommReport::priced(epochs.iter().map(|e| e.comm_bytes).collect(), &fetched);
        Ok(DistOutcome {
            test_hits,
            epochs,
            comm,
            partition_time: setup.partition_time,
            sparsify_time: setup.sparsify_time,
            failures,
            net,
        })
    }

    fn run_centralized(&self, kind: ModelKind, data: &Dataset) -> Result<DistOutcome, DistError> {
        let out = train_centralized(kind, &data.graph, &data.features, &data.split, &self.train)
            .map_err(|e| DistError::Worker(e.to_string()))?;
        let epochs = out
            .history
            .losses
            .iter()
            .zip(&out.history.valid_hits)
            .enumerate()
            .map(|(epoch, (&mean_loss, &hits))| EpochStats {
                epoch,
                mean_loss,
                valid_hits: Some(hits),
                comm_bytes: 0,
                comm_wire_bytes: 0,
            })
            .collect();
        Ok(DistOutcome {
            test_hits: out.test_hits,
            epochs,
            comm: CommReport::default(),
            partition_time: Duration::ZERO,
            sparsify_time: Duration::ZERO,
            failures: Vec::new(),
            net: NetReport::default(),
        })
    }
}

/// Child-side dispatcher for self-re-executing multi-process drivers.
///
/// Call this first in any binary (or test) that also spawns clusters via
/// [`DistTrainer::run_multiprocess`]. In the master process it returns
/// `Ok(false)` and the caller proceeds to launch; in a spawned worker
/// child it builds the trainer via `make` (handed the cluster's worker
/// count), serves the whole worker lifetime, and returns `Ok(true)` —
/// the caller should then exit successfully without launching anything,
/// or a worker would fork-bomb.
///
/// # Errors
///
/// [`DistError::Process`] when the worker environment is malformed, plus
/// whatever `make` or `DistTrainer::run_tcp_worker` surface.
pub fn tcp_worker_entry<F>(make: F) -> Result<bool, DistError>
where
    F: FnOnce(usize) -> Result<(DistTrainer, ModelKind, Dataset), DistError>,
{
    let env = match worker_from_env() {
        Ok(Some(env)) => env,
        Ok(None) => return Ok(false),
        Err(e) => return Err(DistError::Process(e.to_string())),
    };
    let (trainer, kind, data) = make(env.workers())?;
    trainer.run_tcp_worker(&env, kind, &data)?;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use splpg_datasets::{DatasetSpec, Scale};

    fn quick_train() -> TrainConfig {
        TrainConfig {
            layers: 2,
            hidden: 8,
            epochs: 2,
            batch_size: 128,
            fanouts: vec![Some(5), Some(5)],
            hits_k: 20,
            ..TrainConfig::default()
        }
    }

    fn tiny_data() -> Dataset {
        DatasetSpec::cora().generate(Scale::new(0.05, 16), 5).unwrap()
    }

    #[test]
    fn splpg_runs_and_meters_communication() {
        let data = tiny_data();
        let dist = DistConfig { num_workers: 2, strategy: Strategy::SpLpg, ..Default::default() };
        let out = DistTrainer::new(dist, quick_train()).run(ModelKind::GraphSage, &data).unwrap();
        assert_eq!(out.epochs.len(), 2);
        assert!(out.comm.total_bytes() > 0, "SpLPG must transfer remote data");
        assert!(out.sparsify_time > Duration::ZERO);
        assert!(out.test_hits >= 0.0 && out.test_hits <= 1.0);
    }

    #[test]
    fn psgd_pa_transfers_nothing() {
        let data = tiny_data();
        let dist = DistConfig { num_workers: 2, strategy: Strategy::PsgdPa, ..Default::default() };
        let out = DistTrainer::new(dist, quick_train()).run(ModelKind::GraphSage, &data).unwrap();
        assert_eq!(out.comm.total_bytes(), 0, "local-only training is free");
    }

    #[test]
    fn splpg_cheaper_than_full_sharing() {
        let data = tiny_data();
        let run = |strategy| {
            let dist = DistConfig { num_workers: 2, strategy, ..Default::default() };
            DistTrainer::new(dist, quick_train()).run(ModelKind::GraphSage, &data).unwrap()
        };
        let splpg = run(Strategy::SpLpg);
        let plus = run(Strategy::SpLpgPlus);
        assert!(
            splpg.comm.total_bytes() < plus.comm.total_bytes(),
            "splpg {} >= splpg+ {}",
            splpg.comm.total_bytes(),
            plus.comm.total_bytes()
        );
    }

    #[test]
    fn gradient_averaging_runs() {
        let data = tiny_data();
        let dist = DistConfig {
            num_workers: 2,
            strategy: Strategy::SpLpg,
            sync: SyncMethod::GradientAveraging,
            ..Default::default()
        };
        let out = DistTrainer::new(dist, quick_train()).run(ModelKind::Gcn, &data).unwrap();
        assert!(out.epochs.iter().all(|e| e.mean_loss.is_finite()));
    }

    #[test]
    fn llcg_correction_runs() {
        let data = tiny_data();
        let dist = DistConfig { num_workers: 2, strategy: Strategy::Llcg, ..Default::default() };
        let out = DistTrainer::new(dist, quick_train()).run(ModelKind::GraphSage, &data).unwrap();
        assert_eq!(out.comm.total_bytes(), 0);
        assert!(out.test_hits.is_finite());
    }

    #[test]
    fn centralized_through_same_interface() {
        let data = tiny_data();
        let dist =
            DistConfig { num_workers: 1, strategy: Strategy::Centralized, ..Default::default() };
        let out = DistTrainer::new(dist, quick_train()).run(ModelKind::GraphSage, &data).unwrap();
        assert_eq!(out.comm.total_bytes(), 0);
        assert_eq!(out.epochs.len(), 2);
    }

    #[test]
    fn single_worker_distributed_rejected() {
        let data = tiny_data();
        let dist = DistConfig { num_workers: 1, strategy: Strategy::PsgdPa, ..Default::default() };
        assert!(matches!(
            DistTrainer::new(dist, quick_train()).run(ModelKind::Gcn, &data),
            Err(DistError::InvalidConfig(_))
        ));
    }

    #[test]
    fn fault_free_run_counts_wire_traffic() {
        let data = tiny_data();
        for strategy in [Strategy::SpLpg, Strategy::PsgdPa, Strategy::PsgdPaPlus] {
            let dist = DistConfig { num_workers: 2, strategy, ..Default::default() };
            let out =
                DistTrainer::new(dist, quick_train()).run(ModelKind::GraphSage, &data).unwrap();
            // 2 epochs × (2 requests + 2 responses) + 2 stop frames.
            assert_eq!(out.net.messages, 10, "{strategy:?}");
            assert!(out.net.bytes > 0);
            assert_eq!(out.net.dropped, 0);
            assert_eq!(out.net.retries, 0);
            assert!(out.net.dead_workers.is_empty());
            // The transport-shipped fetch ledgers reconcile exactly with the
            // worker-side communication meters.
            assert_eq!(out.net.data_bytes, out.comm.total_bytes(), "{strategy:?}");
            // The uncompressed default codec prices wire bytes exactly as
            // the raw byte model does.
            assert_eq!(out.comm.total_wire_bytes(), out.comm.total_bytes(), "{strategy:?}");
            assert_eq!(out.net.data_wire_bytes, out.comm.total_wire_bytes(), "{strategy:?}");
        }
    }

    #[test]
    fn lossless_compression_is_bit_identical_at_two_and_four_workers() {
        // {structure: Varint, features: F32} changes every frame and the
        // wire-byte accounting but not one bit of arithmetic: the cluster
        // run must match the sequential reference exactly, and must match
        // an uncompressed run of the same seeds.
        use splpg_net::{FeatCodec, StructCodec};
        let data = tiny_data();
        for p in [2usize, 4] {
            let codec =
                CodecConfig { structure: StructCodec::Varint, features: FeatCodec::F32 };
            let dist = DistConfig {
                num_workers: p,
                strategy: Strategy::SpLpg,
                wire_codec: codec,
                ..Default::default()
            };
            let trainer = DistTrainer::new(dist.clone(), quick_train());
            let cluster = trainer.run(ModelKind::GraphSage, &data).unwrap();
            let reference = trainer.run_reference(ModelKind::GraphSage, &data).unwrap();
            assert_eq!(cluster.epochs, reference.epochs, "p={p}");
            assert_eq!(cluster.test_hits.to_bits(), reference.test_hits.to_bits());
            assert_eq!(cluster.comm, reference.comm);
            // Same bits as the uncompressed run of the same seeds.
            let plain = DistTrainer::new(
                DistConfig { wire_codec: CodecConfig::default(), ..dist },
                quick_train(),
            )
            .run(ModelKind::GraphSage, &data)
            .unwrap();
            assert_eq!(plain.test_hits.to_bits(), cluster.test_hits.to_bits());
            // Varint packing compresses the structure stream at least 2x.
            assert!(
                2 * cluster.comm.total_structure_wire_bytes <= cluster.comm.total_structure_bytes,
                "p={p}: wire {} is not <= half of raw {}",
                cluster.comm.total_structure_wire_bytes,
                cluster.comm.total_structure_bytes
            );
            assert_eq!(cluster.net.data_bytes, cluster.comm.total_bytes());
            assert_eq!(cluster.net.data_wire_bytes, cluster.comm.total_wire_bytes());
            // Feature payloads are uncompressed in this mode.
            assert_eq!(
                cluster.comm.total_feature_wire_bytes,
                cluster.comm.total_feature_bytes
            );
        }
    }

    #[test]
    fn quantized_runs_complete_and_shrink_feature_traffic() {
        use splpg_net::{FeatCodec, StructCodec};
        let data = tiny_data();
        for features in [FeatCodec::F16, FeatCodec::Int8] {
            let dist = DistConfig {
                num_workers: 2,
                strategy: Strategy::SpLpg,
                wire_codec: CodecConfig { structure: StructCodec::Rle, features },
                ..Default::default()
            };
            let trainer = DistTrainer::new(dist, quick_train());
            let cluster = trainer.run(ModelKind::GraphSage, &data).unwrap();
            let reference = trainer.run_reference(ModelKind::GraphSage, &data).unwrap();
            // Lossy codecs quantize the parameter frames the cluster's
            // wire carries, which the wire-free reference never sees — so
            // the arithmetic may differ, but the communication accounting
            // (RNG-driven fetch sets, codec-priced) must still agree.
            assert_eq!(cluster.comm, reference.comm);
            assert_eq!(cluster.net.data_bytes, cluster.comm.total_bytes());
            assert_eq!(cluster.net.data_wire_bytes, cluster.comm.total_wire_bytes());
            assert!(
                cluster.comm.total_feature_wire_bytes < cluster.comm.total_feature_bytes,
                "{features:?}: wire {} !< raw {}",
                cluster.comm.total_feature_wire_bytes,
                cluster.comm.total_feature_bytes
            );
            assert!(cluster.comm.total_structure_wire_bytes <= cluster.comm.total_structure_bytes);
            assert!(cluster.test_hits.is_finite());
        }
    }

    #[test]
    fn feature_bus_is_bit_identical_and_moves_features_off_the_wire() {
        use splpg_net::shm::shm_available;
        if !shm_available() {
            eprintln!("skipping: no /dev/shm on this host");
            return;
        }
        let data = tiny_data();
        for p in [2usize, 4] {
            let dist = DistConfig {
                num_workers: p,
                strategy: Strategy::SpLpg,
                feature_bus: ShmBusMode::On,
                ..Default::default()
            };
            let trainer = DistTrainer::new(dist.clone(), quick_train());
            let bus = trainer.run(ModelKind::GraphSage, &data).unwrap();
            assert!(bus.net.shm_fault.is_none(), "p={p}: {:?}", bus.net.shm_fault);
            // The sequential reference with the same config takes the same
            // bus decisions, so every counter matches bit for bit.
            let reference = trainer.run_reference(ModelKind::GraphSage, &data).unwrap();
            assert_eq!(bus.epochs, reference.epochs, "p={p}");
            assert_eq!(bus.test_hits.to_bits(), reference.test_hits.to_bits());
            assert_eq!(bus.comm, reference.comm);
            // Bus reads are plain f32 loads from the mapping — the same
            // bits the wire path would have shipped losslessly, so a
            // wire-only run of the same seeds computes identical results.
            let wire = DistTrainer::new(
                DistConfig { feature_bus: ShmBusMode::Off, ..dist },
                quick_train(),
            )
            .run(ModelKind::GraphSage, &data)
            .unwrap();
            // Per-epoch byte counters legitimately differ (features moved
            // off the wire); the arithmetic must not.
            for (b, w) in bus.epochs.iter().zip(&wire.epochs) {
                assert_eq!(b.mean_loss.to_bits(), w.mean_loss.to_bits(), "p={p}");
                assert_eq!(b.valid_hits, w.valid_hits, "p={p}");
            }
            assert_eq!(bus.test_hits.to_bits(), wire.test_hits.to_bits());
            // Remote feature rows move to the local-bus plane: nothing on
            // the feature raw/wire planes, the same row volume on the bus
            // plane as the wire run's raw plane, and exact reconciliation
            // against the transport-shipped fetch ledgers.
            assert!(wire.comm.total_feature_wire_bytes > 0, "p={p}");
            assert!(bus.comm.total_feature_bus_bytes > 0, "p={p}");
            assert_eq!(bus.comm.total_feature_bytes, 0, "p={p}");
            assert_eq!(bus.comm.total_feature_wire_bytes, 0, "p={p}");
            assert_eq!(bus.comm.total_feature_bus_bytes, wire.comm.total_feature_bytes);
            assert_eq!(bus.net.data_bus_bytes, bus.comm.total_feature_bus_bytes);
            assert_eq!(bus.net.data_bytes, bus.comm.total_bytes());
            // Structure still crosses the wire.
            assert_eq!(bus.comm.total_structure_bytes, wire.comm.total_structure_bytes);
            assert_eq!(bus.comm.total_structure_wire_bytes, wire.comm.total_structure_wire_bytes);
        }
    }

    #[test]
    fn corrupted_bus_segment_falls_back_to_wire() {
        use splpg_net::shm::shm_available;
        if !shm_available() {
            eprintln!("skipping: no /dev/shm on this host");
            return;
        }
        let data = tiny_data();
        let dist = DistConfig {
            num_workers: 2,
            strategy: Strategy::SpLpg,
            feature_bus: ShmBusMode::CorruptForTest,
            ..Default::default()
        };
        let torn = DistTrainer::new(dist.clone(), quick_train())
            .run(ModelKind::GraphSage, &data)
            .unwrap();
        // The torn segment is detected at attach time, recorded as a typed
        // fault, and the run completes on the wire path with the same bits
        // and the same meter readings as a bus-free run.
        let fault = torn.net.shm_fault.as_deref().expect("fault recorded");
        assert!(fault.contains("checksum"), "unexpected fault: {fault}");
        let wire = DistTrainer::new(
            DistConfig { feature_bus: ShmBusMode::Off, ..dist },
            quick_train(),
        )
        .run(ModelKind::GraphSage, &data)
        .unwrap();
        assert_eq!(torn.epochs, wire.epochs);
        assert_eq!(torn.test_hits.to_bits(), wire.test_hits.to_bits());
        assert_eq!(torn.comm, wire.comm);
        assert_eq!(torn.comm.total_feature_bus_bytes, 0);
        assert!(torn.comm.total_feature_wire_bytes > 0);
    }

    #[test]
    fn reference_matches_cluster_run_bit_for_bit() {
        let data = tiny_data();
        for sync in [SyncMethod::ModelAveraging, SyncMethod::GradientAveraging] {
            let dist = DistConfig {
                num_workers: 2,
                strategy: Strategy::SpLpg,
                sync,
                ..Default::default()
            };
            let trainer = DistTrainer::new(dist, quick_train());
            let cluster = trainer.run(ModelKind::GraphSage, &data).unwrap();
            let reference = trainer.run_reference(ModelKind::GraphSage, &data).unwrap();
            assert_eq!(cluster.epochs, reference.epochs, "sync {sync:?}");
            assert_eq!(cluster.test_hits.to_bits(), reference.test_hits.to_bits());
            assert_eq!(cluster.comm, reference.comm);
            assert_eq!(cluster.failures, reference.failures);
        }
        // The reference lends the master's one workspace to every replica
        // and to the LLCG correction step; the cluster gives each worker
        // its own. Any op that reads stale arena storage breaks these.
        for (strategy, kind, p) in
            [(Strategy::Llcg, ModelKind::GraphSage, 2), (Strategy::SpLpg, ModelKind::Gat, 4)]
        {
            for sync in [SyncMethod::ModelAveraging, SyncMethod::GradientAveraging] {
                let dist = DistConfig { num_workers: p, strategy, sync, ..Default::default() };
                let trainer = DistTrainer::new(dist, quick_train());
                let cluster = trainer.run(kind, &data).unwrap();
                let reference = trainer.run_reference(kind, &data).unwrap();
                let label = format!("{strategy:?} {kind:?} p={p} {sync:?}");
                assert_eq!(cluster.epochs, reference.epochs, "{label}");
                assert_eq!(cluster.test_hits.to_bits(), reference.test_hits.to_bits(), "{label}");
                assert_eq!(cluster.comm, reference.comm, "{label}");
            }
        }
        // Epoch-granular faults: down workers answer without computing on
        // the cluster and are skipped by the reference, which must agree.
        for strategy in [Strategy::SpLpg, Strategy::PsgdPaPlus] {
            for sync in [SyncMethod::ModelAveraging, SyncMethod::GradientAveraging] {
                let dist = DistConfig {
                    num_workers: 3,
                    strategy,
                    sync,
                    faults: Some(FaultConfig { failure_probability: 0.4, seed: 7 }),
                    ..Default::default()
                };
                let trainer = DistTrainer::new(dist, quick_train());
                let cluster = trainer.run(ModelKind::GraphSage, &data).unwrap();
                let reference = trainer.run_reference(ModelKind::GraphSage, &data).unwrap();
                let label = format!("{strategy:?} {sync:?}");
                assert!(!reference.failures.is_empty(), "{label}: no worker was down");
                assert_eq!(cluster.epochs, reference.epochs, "{label}");
                assert_eq!(cluster.test_hits.to_bits(), reference.test_hits.to_bits(), "{label}");
                assert_eq!(cluster.comm, reference.comm, "{label}");
                assert_eq!(cluster.failures, reference.failures, "{label}");
            }
        }
    }

    #[test]
    fn master_ledger_reconciles_with_the_worker_trackers() {
        // The master prices only the ledgers the replicas' responses carry;
        // the trackers saw every fetch as it happened. Over the sequential
        // backend every response is accepted, so the two must agree on
        // every plane — under a lossy codec and, where /dev/shm works, the
        // feature bus.
        use crate::comm::{bus_bytes, raw_bytes, wire_bytes};
        use splpg_net::{FeatCodec, StructCodec};
        let data = tiny_data();
        let int8 = CodecConfig { structure: StructCodec::Varint, features: FeatCodec::Int8 };
        let mut buses = vec![ShmBusMode::Off];
        if splpg_net::shm::shm_available() {
            buses.push(ShmBusMode::On);
        }
        for sync in [SyncMethod::ModelAveraging, SyncMethod::GradientAveraging] {
            for &feature_bus in &buses {
                let dist = DistConfig {
                    num_workers: 2,
                    strategy: Strategy::SpLpg,
                    sync,
                    wire_codec: int8,
                    feature_bus,
                    ..Default::default()
                };
                let trainer = DistTrainer::new(dist, quick_train());
                let (train_graph, setup) = trainer.prepare(&data).unwrap();
                let (_owner, lane, fault) = trainer.setup_bus(&data);
                assert!(fault.is_none(), "{fault:?}");
                let replicas = setup.workers.iter().map(|w| {
                    trainer.build_replica(ModelKind::GraphSage, &data, w, lane.as_ref())
                });
                let backend = Backend::Local { replicas: replicas.collect(), faults: None };
                let out = trainer
                    .master_loop(backend, ModelKind::GraphSage, &data, &train_graph, &setup)
                    .unwrap();
                let label = format!("{sync:?} {feature_bus:?}");
                let tracked = setup.tracker.ledger();
                assert!(raw_bytes(&tracked) > 0, "{label}");
                let priced = CommReport::priced(out.comm.epoch_bytes.clone(), &tracked);
                assert_eq!(out.comm, priced, "{label}: raw, wire and bus planes");
                assert_eq!(out.comm.epoch_bytes.iter().sum::<u64>(), raw_bytes(&tracked));
                assert_eq!(out.net, NetReport::default(), "{label}: the reference moves no frames");
                if feature_bus == ShmBusMode::On {
                    assert!(bus_bytes(&tracked) > 0, "{label}");
                } else {
                    assert!(wire_bytes(&tracked) < raw_bytes(&tracked), "{label}");
                }
            }
        }
    }
}

#[cfg(test)]
mod validation_tests {
    use super::*;

    fn trainer(dist: DistConfig) -> DistTrainer {
        DistTrainer::new(dist, TrainConfig::default())
    }

    fn expect_invalid_fault(dist: DistConfig) {
        match trainer(dist).validate() {
            Err(DistError::InvalidFault(_)) => {}
            other => panic!("expected InvalidFault, got {other:?}"),
        }
    }

    #[test]
    fn nan_failure_probability_rejected() {
        expect_invalid_fault(DistConfig {
            num_workers: 2,
            faults: Some(FaultConfig { failure_probability: f64::NAN, seed: 1 }),
            ..Default::default()
        });
    }

    #[test]
    fn negative_failure_probability_rejected() {
        expect_invalid_fault(DistConfig {
            num_workers: 2,
            faults: Some(FaultConfig { failure_probability: -0.5, seed: 1 }),
            ..Default::default()
        });
    }

    #[test]
    fn certain_failure_probability_rejected() {
        expect_invalid_fault(DistConfig {
            num_workers: 2,
            faults: Some(FaultConfig { failure_probability: 1.0, seed: 1 }),
            ..Default::default()
        });
    }

    #[test]
    fn wire_fault_nan_probability_rejected() {
        expect_invalid_fault(DistConfig {
            num_workers: 2,
            wire_faults: Some(FaultPlan { drop: f64::NAN, ..FaultPlan::default() }),
            ..Default::default()
        });
    }

    #[test]
    fn wire_fault_probability_sum_rejected() {
        expect_invalid_fault(DistConfig {
            num_workers: 2,
            wire_faults: Some(FaultPlan {
                drop: 0.5,
                duplicate: 0.3,
                delay: 0.3,
                ..FaultPlan::default()
            }),
            ..Default::default()
        });
    }

    #[test]
    fn crash_of_unknown_worker_rejected() {
        expect_invalid_fault(DistConfig {
            num_workers: 2,
            wire_faults: Some(FaultPlan { crashes: vec![(5, 0)], ..FaultPlan::default() }),
            ..Default::default()
        });
    }

    #[test]
    fn zero_timeout_with_retries_rejected() {
        expect_invalid_fault(DistConfig {
            num_workers: 2,
            retry: RetryPolicy { timeout_ms: 0, max_retries: 3, backoff: 2 },
            ..Default::default()
        });
    }

    #[test]
    fn zero_backoff_rejected() {
        expect_invalid_fault(DistConfig {
            num_workers: 2,
            retry: RetryPolicy { timeout_ms: 100, max_retries: 3, backoff: 0 },
            ..Default::default()
        });
    }

    #[test]
    fn quorum_zero_rejected() {
        expect_invalid_fault(DistConfig { num_workers: 2, quorum: Some(0), ..Default::default() });
    }

    #[test]
    fn eval_every_zero_rejected() {
        let dist = DistConfig { num_workers: 2, eval_every: 0, ..Default::default() };
        match trainer(dist).validate() {
            Err(DistError::InvalidConfig(_)) => {}
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn quorum_above_worker_count_rejected() {
        expect_invalid_fault(DistConfig { num_workers: 2, quorum: Some(3), ..Default::default() });
    }

    #[test]
    fn valid_fault_setup_accepted() {
        let dist = DistConfig {
            num_workers: 3,
            quorum: Some(2),
            wire_faults: Some(FaultPlan {
                drop: 0.1,
                duplicate: 0.05,
                seed: 7,
                crashes: vec![(2, 1)],
                ..FaultPlan::default()
            }),
            ..Default::default()
        };
        assert!(trainer(dist).validate().is_ok());
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use splpg_datasets::{DatasetSpec, Scale};

    fn quick_train() -> TrainConfig {
        TrainConfig {
            layers: 2,
            hidden: 8,
            epochs: 4,
            batch_size: 128,
            fanouts: vec![Some(5), Some(5)],
            hits_k: 20,
            ..TrainConfig::default()
        }
    }

    fn tiny_data() -> splpg_datasets::Dataset {
        DatasetSpec::cora().generate(Scale::new(0.05, 16), 5).unwrap()
    }

    #[test]
    fn fault_schedule_is_deterministic() {
        let f = FaultConfig { failure_probability: 0.5, seed: 3 };
        for w in 0..4 {
            for e in 0..10 {
                assert_eq!(f.is_down(w, e), f.is_down(w, e));
            }
        }
    }

    #[test]
    fn fault_rate_roughly_matches_probability() {
        let f = FaultConfig { failure_probability: 0.3, seed: 9 };
        let down = (0..10_000).filter(|&e| f.is_down(0, e)).count();
        assert!((2_500..3_500).contains(&down), "observed {down}/10000");
    }

    #[test]
    fn training_survives_worker_failures() {
        let data = tiny_data();
        let dist = DistConfig {
            num_workers: 3,
            strategy: Strategy::SpLpg,
            faults: Some(FaultConfig { failure_probability: 0.4, seed: 7 }),
            ..Default::default()
        };
        let out = DistTrainer::new(dist, quick_train()).run(ModelKind::GraphSage, &data).unwrap();
        assert!(!out.failures.is_empty(), "expected injected failures");
        assert!(out.test_hits.is_finite());
        assert!(out.epochs.iter().all(|e| e.mean_loss.is_finite()));
    }

    #[test]
    fn training_survives_failures_under_gradient_averaging() {
        let data = tiny_data();
        let dist = DistConfig {
            num_workers: 2,
            strategy: Strategy::PsgdPa,
            sync: SyncMethod::GradientAveraging,
            faults: Some(FaultConfig { failure_probability: 0.5, seed: 11 }),
            ..Default::default()
        };
        let out = DistTrainer::new(dist, quick_train()).run(ModelKind::Gcn, &data).unwrap();
        assert!(out.test_hits.is_finite());
    }

    #[test]
    fn no_faults_means_no_failures_recorded() {
        let data = tiny_data();
        let dist = DistConfig { num_workers: 2, ..Default::default() };
        let out = DistTrainer::new(dist, quick_train()).run(ModelKind::GraphSage, &data).unwrap();
        assert!(out.failures.is_empty());
    }

    #[test]
    fn all_workers_down_carries_model_over() {
        // probability 1.0 - eps: every epoch everyone is down; the global
        // model must remain the initial one and training must not crash.
        // The down workers still answer (Unavailable), so the default
        // full quorum is met and no timeout ever starts.
        let data = tiny_data();
        let dist = DistConfig {
            num_workers: 2,
            strategy: Strategy::PsgdPa,
            faults: Some(FaultConfig { failure_probability: 0.9999, seed: 1 }),
            ..Default::default()
        };
        let out = DistTrainer::new(dist, quick_train()).run(ModelKind::GraphSage, &data).unwrap();
        assert_eq!(out.failures.len(), 2 * quick_train().epochs);
        assert!(out.test_hits.is_finite());
    }

    #[test]
    fn wire_faults_with_quorum_complete_and_reproduce() {
        // drop + duplicate + one permanently crashed worker, quorum p-1:
        // training must complete, and the same seeds must reproduce the
        // same metrics in a second run.
        let data = tiny_data();
        let dist = DistConfig {
            num_workers: 3,
            strategy: Strategy::SpLpg,
            quorum: Some(2),
            retry: RetryPolicy { timeout_ms: 200, max_retries: 4, backoff: 2 },
            wire_faults: Some(FaultPlan {
                drop: 0.1,
                duplicate: 0.05,
                seed: 21,
                crashes: vec![(2, 1)],
                ..FaultPlan::default()
            }),
            ..Default::default()
        };
        let trainer = DistTrainer::new(dist, quick_train());
        let a = trainer.run(ModelKind::GraphSage, &data).unwrap();
        let b = trainer.run(ModelKind::GraphSage, &data).unwrap();
        assert_eq!(a.net.dead_workers, vec![2], "crashed worker detected");
        assert!(a.net.dropped > 0 || a.net.duplicated > 0, "faults were exercised");
        assert_eq!(a.epochs, b.epochs, "faulty runs reproduce");
        assert_eq!(a.test_hits.to_bits(), b.test_hits.to_bits());
        assert_eq!(a.comm, b.comm);
    }

    #[test]
    fn losing_the_quorum_is_an_error_not_a_hang() {
        // Both remaining workers crash at epoch 0 with quorum 2: the
        // gather exhausts its retries and surfaces QuorumLost.
        let data = tiny_data();
        let dist = DistConfig {
            num_workers: 2,
            strategy: Strategy::PsgdPa,
            quorum: Some(2),
            retry: RetryPolicy { timeout_ms: 50, max_retries: 1, backoff: 2 },
            wire_faults: Some(FaultPlan {
                crashes: vec![(0, 0), (1, 0)],
                ..FaultPlan::default()
            }),
            ..Default::default()
        };
        match DistTrainer::new(dist, quick_train()).run(ModelKind::GraphSage, &data) {
            Err(DistError::QuorumLost(_)) => {}
            other => panic!("expected QuorumLost, got {other:?}"),
        }
    }
}
