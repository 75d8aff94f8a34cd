//! Message-passing cluster runtime for the SpLPG reproduction.
//!
//! The paper's cluster (one master + `p` workers synchronizing model
//! state every epoch or every mini-batch) was previously simulated with
//! shared memory inside `splpg-dist`; this crate makes the wire real.
//! Workers run as long-lived actor threads (hosted by
//! [`splpg_par::actor_scope`]) and exchange **only** typed,
//! length-prefixed, serialized messages:
//!
//! * [`Request`] / [`Response`] — the master⇄worker protocol: broadcast
//!   parameters, collect trained replicas or gradients, declare
//!   unavailability, stop;
//! * [`codec`] — the in-tree wire format (little-endian, length-prefixed
//!   frames with a fixed identity header, no external serialization
//!   dependency);
//! * [`compress`] — the per-connection compression/quantization layer
//!   ([`CodecConfig`]): delta+varint/RLE packing for structure payloads,
//!   f16/int8 row quantization for feature payloads, self-described by a
//!   versioned codec byte in every frame;
//! * [`Transport`] — one directed lane moving encoded frames, implemented
//!   over bounded [`std::sync::mpsc`] channels by [`ChannelTransport`];
//! * [`FaultyTransport`] — a decorator injecting *deterministic* drop,
//!   duplicate and delay faults: every decision is a pure avalanche-hash
//!   function of `(seed, lane, message identity)`, never of wall-clock
//!   time or thread scheduling, so a seeded faulty run replays exactly
//!   across processes;
//! * [`MasterHub`] / [`WorkerPort`] — the typed endpoints a cluster run
//!   hands to the master loop and each worker loop;
//! * [`RetryPolicy`] — per-message timeout with bounded exponential
//!   backoff, used by the master's gather loop when faults or a partial
//!   quorum make silence possible.
//!
//! Fault-free clusters never consult a clock: the master uses plain
//! blocking receives, which is what makes a full-quorum run bit-identical
//! to a sequential execution of the same arithmetic.
//!
//! Unsafe code is denied crate-wide and re-allowed for exactly one
//! module: [`shm`], the sanctioned home of the mmap-backed feature bus
//! (`splpg-lint`'s `forbid-unsafe` rule pins the carve-out, and clippy's
//! `undocumented_unsafe_blocks` a `// SAFETY:` comment on each block).

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
mod cluster;
pub mod compress;
pub mod conformance;
mod fault;
mod message;
pub mod process;
#[allow(unsafe_code)]
pub mod shm;
mod tcp;
mod transport;

pub use cluster::{run_cluster, ClusterConfig, MasterHub, WorkerPort};
pub use compress::{CodecConfig, FeatCodec, StructCodec};
pub use fault::{FaultPlan, FaultyTransport, RetryPolicy};
pub use message::{FetchLedger, Message, MsgId, Request, Response};
pub use shm::{SegmentSpec, ShmError, ShmLane, ShmOwner};
pub use tcp::{TcpConfig, TcpTransport};
pub use transport::{ChannelTransport, KindStat, Transport, WireSnapshot, WireStats};

/// Errors surfaced by the wire layer.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetError {
    /// The peer endpoint hung up (channel disconnected).
    Closed,
    /// A frame failed to decode (truncated, bad tag, bad length).
    Codec(String),
    /// A frame declared a body larger than the enforced ceiling; rejected
    /// before any allocation matching the hostile length claim.
    FrameTooLarge {
        /// Body length the frame declared.
        len: usize,
        /// Ceiling the endpoint enforces.
        max: usize,
    },
    /// A socket or process-level i/o failure that is not a clean peer
    /// hang-up (timeout, refused connection, rendezvous failure, ...).
    Io(String),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Closed => write!(f, "transport closed by peer"),
            NetError::Codec(msg) => write!(f, "wire codec error: {msg}"),
            NetError::FrameTooLarge { len, max } => {
                write!(f, "frame body of {len} bytes exceeds the {max}-byte cap")
            }
            NetError::Io(msg) => write!(f, "wire i/o error: {msg}"),
        }
    }
}

impl std::error::Error for NetError {}
