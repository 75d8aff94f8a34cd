use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::Duration;

use crate::NetError;

/// One directed lane moving encoded frames between two endpoints.
///
/// A `Transport` is deliberately dumb: it moves opaque byte frames and
/// reports whether the peer is still there. All typing lives in the
/// codec, all policy (retry, quorum) in the master loop, and all fault
/// injection in decorators like [`FaultyTransport`] — which is what makes
/// the fault layer composable over any lane.
///
/// [`FaultyTransport`]: crate::FaultyTransport
pub trait Transport: Send {
    /// Queues one frame for the peer. `Ok` does not promise delivery —
    /// a fault decorator may drop or hold the frame.
    ///
    /// # Errors
    ///
    /// [`NetError::Closed`] when the peer hung up.
    fn send(&mut self, frame: Vec<u8>) -> Result<(), NetError>;

    /// Blocks for the next frame.
    ///
    /// # Errors
    ///
    /// [`NetError::Closed`] when every sender to this lane is gone.
    fn recv(&mut self) -> Result<Vec<u8>, NetError>;

    /// Waits up to `timeout` for the next frame; `Ok(None)` when the
    /// window elapses quietly.
    ///
    /// # Errors
    ///
    /// [`NetError::Closed`] when every sender to this lane is gone.
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Vec<u8>>, NetError>;
}

impl Transport for Box<dyn Transport> {
    fn send(&mut self, frame: Vec<u8>) -> Result<(), NetError> {
        (**self).send(frame)
    }

    fn recv(&mut self) -> Result<Vec<u8>, NetError> {
        (**self).recv()
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Vec<u8>>, NetError> {
        (**self).recv_timeout(timeout)
    }
}

/// Shared wire-traffic counters, cloned onto every transport of a
/// cluster.
///
/// Frame counts and bytes are recorded at *send* time by the innermost
/// channel transport, so what's counted is what actually entered a lane —
/// dropped frames never reach it and are tallied separately by the fault
/// layer.
#[derive(Debug, Clone, Default)]
pub struct WireStats {
    inner: Arc<StatCounters>,
}

#[derive(Debug, Default)]
struct StatCounters {
    messages: AtomicU64,
    bytes: AtomicU64,
    dropped: AtomicU64,
    duplicated: AtomicU64,
    delayed: AtomicU64,
    retries: AtomicU64,
    kind_count: [AtomicU64; crate::codec::NUM_KINDS],
    kind_raw: [AtomicU64; crate::codec::NUM_KINDS],
    kind_wire: [AtomicU64; crate::codec::NUM_KINDS],
}

/// Per-message-kind raw-vs-wire accounting — one histogram bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KindStat {
    /// Frames of this kind recorded.
    pub count: u64,
    /// Bytes those frames would occupy under the raw (uncompressed)
    /// codec, length prefixes included.
    pub raw_bytes: u64,
    /// Bytes the frames actually occupied on the wire.
    pub wire_bytes: u64,
}

/// Point-in-time copy of [`WireStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireSnapshot {
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
    /// Raw-vs-wire byte histogram indexed by message kind byte (slot 0
    /// unused; kinds are 1–7). Recorded once per
    /// protocol message on the master side, so duplicates injected by
    /// the fault layer do not inflate it.
    pub kinds: [KindStat; crate::codec::NUM_KINDS],
}

impl WireStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        WireStats::default()
    }

    /// Records one frame of `bytes` bytes entering a lane.
    pub(crate) fn record_send(&self, bytes: u64) {
        self.inner.messages.fetch_add(1, Ordering::Relaxed);
        self.inner.bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records a fault-injected drop.
    pub(crate) fn record_drop(&self) {
        self.inner.dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a fault-injected duplicate.
    pub(crate) fn record_duplicate(&self) {
        self.inner.duplicated.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a fault-injected delay.
    pub(crate) fn record_delay(&self) {
        self.inner.delayed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one retransmission round.
    pub(crate) fn record_retry(&self) {
        self.inner.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one protocol message of `kind` into the raw-vs-wire
    /// histogram. Unknown kind bytes land in slot 0.
    pub(crate) fn record_kind(&self, kind: u8, raw_bytes: u64, wire_bytes: u64) {
        let slot = usize::from(kind);
        let slot = if slot < crate::codec::NUM_KINDS { slot } else { 0 };
        self.inner.kind_count[slot].fetch_add(1, Ordering::Relaxed);
        self.inner.kind_raw[slot].fetch_add(raw_bytes, Ordering::Relaxed);
        self.inner.kind_wire[slot].fetch_add(wire_bytes, Ordering::Relaxed);
    }

    /// Reads all counters at once.
    pub fn snapshot(&self) -> WireSnapshot {
        let mut kinds = [KindStat::default(); crate::codec::NUM_KINDS];
        for (slot, k) in kinds.iter_mut().enumerate() {
            k.count = self.inner.kind_count[slot].load(Ordering::Relaxed);
            k.raw_bytes = self.inner.kind_raw[slot].load(Ordering::Relaxed);
            k.wire_bytes = self.inner.kind_wire[slot].load(Ordering::Relaxed);
        }
        WireSnapshot {
            messages: self.inner.messages.load(Ordering::Relaxed),
            bytes: self.inner.bytes.load(Ordering::Relaxed),
            dropped: self.inner.dropped.load(Ordering::Relaxed),
            duplicated: self.inner.duplicated.load(Ordering::Relaxed),
            delayed: self.inner.delayed.load(Ordering::Relaxed),
            retries: self.inner.retries.load(Ordering::Relaxed),
            kinds,
        }
    }
}

/// A [`Transport`] over bounded in-process channels.
///
/// Lanes may be half-open: the master's per-worker command lanes are
/// send-only on the master side, and its shared inbox is receive-only.
/// Capacity bounds come from the cluster builder; see
/// [`ClusterConfig`](crate::ClusterConfig) for the sizing argument.
#[derive(Debug)]
pub struct ChannelTransport {
    tx: Option<SyncSender<Vec<u8>>>,
    rx: Option<Receiver<Vec<u8>>>,
    stats: WireStats,
    max_frame: usize,
}

impl ChannelTransport {
    /// A full-duplex endpoint.
    pub(crate) fn new(tx: SyncSender<Vec<u8>>, rx: Receiver<Vec<u8>>, stats: WireStats) -> Self {
        ChannelTransport {
            tx: Some(tx),
            rx: Some(rx),
            stats,
            max_frame: crate::codec::DEFAULT_MAX_FRAME_LEN,
        }
    }

    /// A send-only endpoint.
    pub(crate) fn sender(tx: SyncSender<Vec<u8>>, stats: WireStats) -> Self {
        ChannelTransport {
            tx: Some(tx),
            rx: None,
            stats,
            max_frame: crate::codec::DEFAULT_MAX_FRAME_LEN,
        }
    }

    /// A receive-only endpoint.
    pub(crate) fn receiver(rx: Receiver<Vec<u8>>, stats: WireStats) -> Self {
        ChannelTransport {
            tx: None,
            rx: Some(rx),
            stats,
            max_frame: crate::codec::DEFAULT_MAX_FRAME_LEN,
        }
    }

    /// A connected pair of full-duplex endpoints (mostly for tests).
    pub fn pair(capacity: usize, stats: WireStats) -> (Self, Self) {
        let (atx, brx) = std::sync::mpsc::sync_channel(capacity);
        let (btx, arx) = std::sync::mpsc::sync_channel(capacity);
        (
            ChannelTransport::new(atx, arx, stats.clone()),
            ChannelTransport::new(btx, brx, stats),
        )
    }

    /// Overrides the frame-body ceiling this endpoint enforces on send.
    #[must_use]
    pub fn with_max_frame_len(mut self, max: usize) -> Self {
        self.max_frame = max;
        self
    }
}

impl Transport for ChannelTransport {
    fn send(&mut self, frame: Vec<u8>) -> Result<(), NetError> {
        let body = frame.len().saturating_sub(4);
        if body > self.max_frame {
            return Err(NetError::FrameTooLarge { len: body, max: self.max_frame });
        }
        let Some(tx) = &self.tx else { return Err(NetError::Closed) };
        let bytes = frame.len() as u64;
        // Prefer the non-blocking path so a full lane degrades into a
        // blocking send rather than silently stalling stats.
        let frame = match tx.try_send(frame) {
            Ok(()) => {
                self.stats.record_send(bytes);
                return Ok(());
            }
            Err(TrySendError::Disconnected(_)) => {
                self.tx = None;
                return Err(NetError::Closed);
            }
            Err(TrySendError::Full(frame)) => frame,
        };
        match tx.send(frame) {
            Ok(()) => {
                self.stats.record_send(bytes);
                Ok(())
            }
            Err(_) => {
                self.tx = None;
                Err(NetError::Closed)
            }
        }
    }

    fn recv(&mut self) -> Result<Vec<u8>, NetError> {
        let Some(rx) = &self.rx else { return Err(NetError::Closed) };
        rx.recv().map_err(|_| NetError::Closed)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Vec<u8>>, NetError> {
        let Some(rx) = &self.rx else { return Err(NetError::Closed) };
        match rx.recv_timeout(timeout) {
            Ok(frame) => Ok(Some(frame)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(NetError::Closed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_round_trips_frames_and_counts_them() {
        let stats = WireStats::new();
        let (mut a, mut b) = ChannelTransport::pair(4, stats.clone());
        a.send(vec![1, 2, 3]).unwrap();
        a.send(vec![4]).unwrap();
        assert_eq!(b.recv().unwrap(), vec![1, 2, 3]);
        assert_eq!(b.recv().unwrap(), vec![4]);
        let snap = stats.snapshot();
        assert_eq!(snap.messages, 2);
        assert_eq!(snap.bytes, 4);
    }

    #[test]
    fn recv_timeout_returns_none_then_frame() {
        let stats = WireStats::new();
        let (mut a, mut b) = ChannelTransport::pair(1, stats);
        assert_eq!(b.recv_timeout(Duration::from_millis(1)).unwrap(), None);
        a.send(vec![9]).unwrap();
        assert_eq!(b.recv_timeout(Duration::from_millis(100)).unwrap(), Some(vec![9]));
    }

    #[test]
    fn disconnect_surfaces_as_closed() {
        let stats = WireStats::new();
        let (a, mut b) = ChannelTransport::pair(1, stats.clone());
        drop(a);
        assert_eq!(b.recv(), Err(NetError::Closed));
        assert_eq!(b.send(vec![0]), Err(NetError::Closed));

        let (mut a2, b2) = ChannelTransport::pair(1, stats);
        drop(b2);
        assert_eq!(a2.send(vec![0]), Err(NetError::Closed));
    }

    #[test]
    fn half_open_endpoints_reject_wrong_direction() {
        let stats = WireStats::new();
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        let mut s = ChannelTransport::sender(tx, stats.clone());
        let mut r = ChannelTransport::receiver(rx, stats);
        assert_eq!(r.send(vec![1]), Err(NetError::Closed));
        s.send(vec![1]).unwrap();
        assert_eq!(r.recv().unwrap(), vec![1]);
        assert_eq!(s.recv(), Err(NetError::Closed));
        assert_eq!(s.recv_timeout(Duration::from_millis(1)), Err(NetError::Closed));
    }
}
