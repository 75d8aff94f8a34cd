use crate::codec;
use crate::NetError;

/// Identity of one protocol message: which worker, which synchronization
/// unit, which delivery attempt.
///
/// The identity rides in a fixed position of every frame so both the
/// deduplicating receiver and the fault layer can key decisions off it
/// without decoding the payload. `round` is `0` for epoch-granular
/// messages; `attempt` counts retransmissions of the same logical message
/// (0 = first send).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MsgId {
    /// Worker index the message is addressed to / originates from.
    pub worker: u32,
    /// Training epoch the message belongs to.
    pub epoch: u64,
    /// Gradient-averaging round within the epoch (0 under model
    /// averaging).
    pub round: u64,
    /// Retransmission attempt (0 = original send).
    pub attempt: u32,
}

impl MsgId {
    /// The `(epoch, round)` synchronization unit this message belongs to,
    /// ordered lexicographically — receivers use it to spot stale frames.
    pub fn unit(&self) -> (u64, u64) {
        (self.epoch, self.round)
    }
}

/// Remote graph-data fetch counts a worker performed since its previous
/// response — the raw quantities behind the paper's communication-cost
/// metric, shipped back to the master on every response so wire-observed
/// traffic can be reconciled against the [`CommTracker`]-style meters.
///
/// [`CommTracker`]: https://docs.rs/splpg-dist
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FetchLedger {
    /// Edges pulled from remote partitions.
    pub structure_edges: u64,
    /// Node identifiers pulled alongside those edges.
    pub structure_nodes: u64,
    /// Feature elements (`f32` scalars) pulled from the master's store.
    pub feature_elems: u64,
    /// On-wire bytes those structure fetches cost under the negotiated
    /// codec (equals the raw byte model when compression is off).
    pub structure_wire_bytes: u64,
    /// On-wire bytes the feature fetches cost under the negotiated
    /// codec (equals the raw byte model when compression is off).
    pub feature_wire_bytes: u64,
    /// Feature elements served zero-copy over the shared-memory bus
    /// instead of the wire — the "local bus" plane of the comm-cost
    /// ablation. These elements are *not* double-counted in
    /// `feature_elems`.
    pub feature_bus_elems: u64,
}

impl FetchLedger {
    /// Element-wise sum.
    pub fn add(&mut self, other: &FetchLedger) {
        self.structure_edges += other.structure_edges;
        self.structure_nodes += other.structure_nodes;
        self.feature_elems += other.feature_elems;
        self.structure_wire_bytes += other.structure_wire_bytes;
        self.feature_wire_bytes += other.feature_wire_bytes;
        self.feature_bus_elems += other.feature_bus_elems;
    }

    /// Element-wise difference `self - base` (saturating).
    pub fn since(&self, base: &FetchLedger) -> FetchLedger {
        FetchLedger {
            structure_edges: self.structure_edges.saturating_sub(base.structure_edges),
            structure_nodes: self.structure_nodes.saturating_sub(base.structure_nodes),
            feature_elems: self.feature_elems.saturating_sub(base.feature_elems),
            structure_wire_bytes: self
                .structure_wire_bytes
                .saturating_sub(base.structure_wire_bytes),
            feature_wire_bytes: self.feature_wire_bytes.saturating_sub(base.feature_wire_bytes),
            feature_bus_elems: self.feature_bus_elems.saturating_sub(base.feature_bus_elems),
        }
    }
}

/// Master→worker messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run one full local epoch starting from `params` and report the
    /// trained replica (model averaging).
    Epoch {
        /// Message identity.
        id: MsgId,
        /// Flattened global parameters to start the epoch from.
        params: Vec<f32>,
    },
    /// Run one mini-batch round starting from `params` and report the
    /// local gradient (gradient averaging).
    Round {
        /// Message identity.
        id: MsgId,
        /// Flattened global parameters to compute the batch gradient at.
        params: Vec<f32>,
    },
    /// Training is over; exit the worker loop.
    Stop {
        /// Message identity.
        id: MsgId,
    },
}

impl Request {
    /// The message identity.
    pub fn id(&self) -> MsgId {
        match self {
            Request::Epoch { id, .. } | Request::Round { id, .. } | Request::Stop { id } => *id,
        }
    }

    /// Rewrites the recipient and the delivery attempt, leaving the unit
    /// and the payload untouched: one request body serves every worker
    /// and every retransmission of a broadcast.
    pub fn address(&mut self, worker: u32, attempt: u32) {
        match self {
            Request::Epoch { id, .. } | Request::Round { id, .. } | Request::Stop { id } => {
                id.worker = worker;
                id.attempt = attempt;
            }
        }
    }
}

/// Worker→master messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A completed local epoch (model averaging).
    Epoch {
        /// Message identity (echoes the request's unit).
        id: MsgId,
        /// Flattened locally-trained parameters.
        params: Vec<f32>,
        /// Sum of per-batch losses over the epoch (f64 accumulation).
        loss_sum: f64,
        /// Number of mini-batches run.
        batches: u64,
        /// Remote fetches performed since the previous response.
        ledger: FetchLedger,
    },
    /// A completed mini-batch round (gradient averaging).
    Round {
        /// Message identity (echoes the request's unit).
        id: MsgId,
        /// Whether this worker had a batch left this round; inactive
        /// workers contribute zero gradients to keep the averaging
        /// divisor at `p`.
        active: bool,
        /// Batch loss (meaningless when `active` is false).
        loss: f32,
        /// Flattened gradients in canonical parameter order (empty when
        /// `active` is false).
        grads: Vec<f32>,
        /// Remote fetches performed since the previous response.
        ledger: FetchLedger,
    },
    /// The worker is injected-down for this epoch: it answers (so the
    /// master need not wait out a timeout) but contributes nothing.
    Unavailable {
        /// Message identity (echoes the request's unit).
        id: MsgId,
    },
    /// The worker hit an unrecoverable internal error and is exiting.
    Failed {
        /// Message identity (echoes the request's unit).
        id: MsgId,
        /// Human-readable error description.
        error: String,
    },
}

impl Response {
    /// The message identity.
    pub fn id(&self) -> MsgId {
        match self {
            Response::Epoch { id, .. }
            | Response::Round { id, .. }
            | Response::Unavailable { id }
            | Response::Failed { id, .. } => *id,
        }
    }

    /// Rewrites the delivery-attempt field, leaving the unit untouched.
    ///
    /// A cached response re-sent for a retransmitted request must carry
    /// the *new* attempt number: deterministic fault injection keys its
    /// decision on the full identity, and echoing the original attempt
    /// would reproduce the original drop on every retry, forever.
    pub fn set_attempt(&mut self, attempt: u32) {
        match self {
            Response::Epoch { id, .. }
            | Response::Round { id, .. }
            | Response::Unavailable { id }
            | Response::Failed { id, .. } => id.attempt = attempt,
        }
    }
}

/// Any protocol message — what actually travels over a [`Transport`].
///
/// [`Transport`]: crate::Transport
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Master→worker.
    Request(Request),
    /// Worker→master.
    Response(Response),
}

impl Message {
    /// Encodes into a length-prefixed frame.
    pub fn encode(&self) -> Vec<u8> {
        codec::encode(self)
    }

    /// Decodes a length-prefixed frame.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Codec`] on truncated or malformed frames.
    pub fn decode(frame: &[u8]) -> Result<Message, NetError> {
        codec::decode(frame)
    }

    /// The message identity.
    pub fn id(&self) -> MsgId {
        match self {
            Message::Request(r) => r.id(),
            Message::Response(r) => r.id(),
        }
    }
}
