use std::sync::mpsc::sync_channel;
use std::sync::Mutex;
use std::time::Duration;

use crate::codec;
use crate::compress::CodecConfig;
use crate::fault::{FaultPlan, FaultyTransport};
use crate::message::{Message, Request, Response};
use crate::transport::{ChannelTransport, Transport, WireSnapshot, WireStats};
use crate::NetError;

/// Shape of a cluster's wiring.
#[derive(Debug, Clone, Default)]
pub struct ClusterConfig {
    /// Number of workers `p`.
    pub workers: usize,
    /// Optional fault injection applied to every lane.
    pub faults: Option<FaultPlan>,
    /// Wire compression / quantization pair every endpoint encodes
    /// under (frames self-describe, so decoding needs no config).
    pub codec: CodecConfig,
}

impl ClusterConfig {
    // The master sends at most (1 + max_retries) command frames per
    // worker per gather, each possibly duplicated once, and drains the
    // inbox before the next gather; these bounds keep every lane's
    // buffer ahead of the worst in-flight count so a bounded channel
    // can never deadlock the protocol.
    fn command_capacity(&self) -> usize {
        32
    }

    fn inbox_capacity(&self) -> usize {
        (self.workers * 8).max(64)
    }
}

/// The master's typed endpoint: one command lane per worker plus a
/// shared response inbox.
///
/// Workers are addressed by index; a lane that reports
/// [`NetError::Closed`] (its worker crashed and hung up) is retired and
/// subsequent sends to it return `false`.
pub struct MasterHub {
    to_workers: Vec<Option<Box<dyn Transport>>>,
    inbox: Box<dyn Transport>,
    stats: WireStats,
    codec: CodecConfig,
}

impl MasterHub {
    /// Assembles a hub from already-connected lanes: one send lane per
    /// worker plus a merged response inbox. Used by the channel builder
    /// and the TCP acceptor alike.
    pub(crate) fn from_parts(
        to_workers: Vec<Option<Box<dyn Transport>>>,
        inbox: Box<dyn Transport>,
        stats: WireStats,
    ) -> Self {
        MasterHub { to_workers, inbox, stats, codec: CodecConfig::default() }
    }

    /// Sets the codec pair this hub encodes requests under. The per-kind
    /// histogram meters both directions against this hub's counters.
    #[must_use]
    pub(crate) fn with_codec(mut self, codec: CodecConfig) -> Self {
        self.codec = codec;
        self
    }

    /// Number of worker lanes (including retired ones).
    pub fn workers(&self) -> usize {
        self.to_workers.len()
    }

    /// Sends a request to `worker`. Returns `false` when the worker's
    /// lane is closed (the worker is gone); the frame is not sent.
    pub fn send(&mut self, worker: usize, req: &Request) -> bool {
        let Some(slot) = self.to_workers.get_mut(worker) else { return false };
        let Some(lane) = slot else { return false };
        let frame = codec::encode_request(req, self.codec);
        let (kind, wire) = (frame[4], frame.len() as u64);
        let raw = codec::raw_request_frame_len(req) as u64;
        match lane.send(frame) {
            Ok(()) => {
                // One histogram entry per protocol message, recorded on
                // the master side only so channel- and TCP-backed
                // clusters count identically.
                self.stats.record_kind(kind, raw, wire);
                true
            }
            Err(_) => {
                *slot = None;
                false
            }
        }
    }

    /// Blocks for the next response.
    ///
    /// # Errors
    ///
    /// [`NetError::Closed`] when every worker is gone, [`NetError::Codec`]
    /// on malformed frames.
    pub fn recv(&mut self) -> Result<Response, NetError> {
        let frame = self.inbox.recv()?;
        let resp = decode_response(&frame)?;
        self.record_response(&frame, &resp);
        Ok(resp)
    }

    /// Waits up to `timeout` for the next response; `Ok(None)` on a quiet
    /// window.
    ///
    /// # Errors
    ///
    /// [`NetError::Closed`] when every worker is gone, [`NetError::Codec`]
    /// on malformed frames.
    pub fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Response>, NetError> {
        match self.inbox.recv_timeout(timeout)? {
            Some(frame) => {
                let resp = decode_response(&frame)?;
                self.record_response(&frame, &resp);
                Ok(Some(resp))
            }
            None => Ok(None),
        }
    }

    fn record_response(&self, frame: &[u8], resp: &Response) {
        let kind = frame.get(4).copied().unwrap_or(0);
        let raw = codec::raw_response_frame_len(resp) as u64;
        self.stats.record_kind(kind, raw, frame.len() as u64);
    }

    /// Broadcasts [`Request::Stop`] and retires every lane, releasing
    /// workers blocked on their command channel.
    pub fn shutdown(&mut self) {
        for w in 0..self.to_workers.len() {
            let _ = self.send(w, &Request::Stop { id: crate::MsgId::default() });
        }
        for slot in &mut self.to_workers {
            *slot = None;
        }
    }

    /// Point-in-time copy of the cluster-wide wire counters.
    ///
    /// Counters are recorded on the sending thread *after* the frame
    /// enters its lane, so a snapshot taken while workers are still
    /// running may miss frames the master has already received. For
    /// exact totals keep a [`MasterHub::stats_handle`] and snapshot it
    /// after [`run_cluster`] has joined every worker.
    pub fn stats(&self) -> WireSnapshot {
        self.stats.snapshot()
    }

    /// A handle on the live wire counters that outlives the hub —
    /// snapshot it after [`run_cluster`] returns for race-free totals.
    pub fn stats_handle(&self) -> WireStats {
        self.stats.clone()
    }

    /// Records one retransmission round in the wire counters.
    pub fn note_retry(&self) {
        self.stats.record_retry();
    }
}

fn decode_response(frame: &[u8]) -> Result<Response, NetError> {
    match Message::decode(frame)? {
        Message::Response(r) => Ok(r),
        Message::Request(_) => {
            Err(NetError::Codec("request frame arrived on the master inbox".to_string()))
        }
    }
}

/// One worker's typed endpoint: a single duplex lane carrying commands
/// down and responses up.
///
/// The fault decorator only ever acts on the send side of a lane, so a
/// duplex lane wrapped once behaves exactly like the former split
/// (command receiver + response sender) wiring: worker→master frames go
/// through the worker's fault schedule, master→worker frames through the
/// master's.
pub struct WorkerPort {
    worker: usize,
    lane: Box<dyn Transport>,
    codec: CodecConfig,
}

impl WorkerPort {
    /// Wraps an already-connected duplex lane as worker `worker`'s port.
    /// Used by the channel builder and the TCP dialer alike.
    pub(crate) fn from_duplex(worker: usize, lane: Box<dyn Transport>) -> Self {
        WorkerPort { worker, lane, codec: CodecConfig::default() }
    }

    /// Sets the codec pair this port encodes responses under.
    #[must_use]
    pub fn with_codec(mut self, codec: CodecConfig) -> Self {
        self.codec = codec;
        self
    }

    /// This worker's index.
    pub fn worker(&self) -> usize {
        self.worker
    }

    /// Blocks for the next request. [`NetError::Closed`] means the
    /// master hung up — the worker loop should exit.
    ///
    /// # Errors
    ///
    /// [`NetError::Closed`] on master hang-up, [`NetError::Codec`] on
    /// malformed frames.
    pub fn recv(&mut self) -> Result<Request, NetError> {
        let frame = self.lane.recv()?;
        match Message::decode(&frame)? {
            Message::Request(r) => Ok(r),
            Message::Response(_) => {
                Err(NetError::Codec("response frame arrived on a worker port".to_string()))
            }
        }
    }

    /// Sends a response to the master.
    ///
    /// # Errors
    ///
    /// [`NetError::Closed`] when the master hung up.
    pub fn send(&mut self, resp: &Response) -> Result<(), NetError> {
        self.lane.send(codec::encode_response(resp, self.codec))
    }
}

/// Builds the wiring of a cluster: one [`MasterHub`] plus `p`
/// [`WorkerPort`]s over bounded channels, with fault decorators on every
/// lane when the config carries a [`FaultPlan`].
///
/// Lane numbering for the fault schedule: master→worker `w` is lane
/// `2w`, worker `w`→master is lane `2w + 1`.
pub(crate) fn build_cluster(config: &ClusterConfig) -> (MasterHub, Vec<WorkerPort>) {
    let stats = WireStats::new();
    let (inbox_tx, inbox_rx) = sync_channel::<Vec<u8>>(config.inbox_capacity());
    let mut to_workers: Vec<Option<Box<dyn Transport>>> = Vec::with_capacity(config.workers);
    let mut ports = Vec::with_capacity(config.workers);
    for w in 0..config.workers {
        let (cmd_tx, cmd_rx) = sync_channel::<Vec<u8>>(config.command_capacity());
        let mut master_side: Box<dyn Transport> =
            Box::new(ChannelTransport::sender(cmd_tx, stats.clone()));
        let mut worker_lane: Box<dyn Transport> =
            Box::new(ChannelTransport::new(inbox_tx.clone(), cmd_rx, stats.clone()));
        if let Some(plan) = &config.faults {
            master_side = Box::new(FaultyTransport::new(
                master_side,
                plan.clone(),
                2 * w as u64,
                stats.clone(),
            ));
            worker_lane = Box::new(FaultyTransport::new(
                worker_lane,
                plan.clone(),
                2 * w as u64 + 1,
                stats.clone(),
            ));
        }
        to_workers.push(Some(master_side));
        ports.push(WorkerPort::from_duplex(w, worker_lane).with_codec(config.codec));
    }
    // The hub keeps no inbox sender: once every worker port is dropped,
    // the master's receive side observes Closed instead of hanging.
    drop(inbox_tx);
    let hub = MasterHub::from_parts(
        to_workers,
        Box::new(ChannelTransport::receiver(inbox_rx, stats.clone())),
        stats,
    )
    .with_codec(config.codec);
    (hub, ports)
}

/// Runs a full cluster: `p` worker bodies on dedicated actor threads
/// (hosted by [`splpg_par::actor_scope`]) and `master` on the calling
/// thread. Returns the master's result after every worker exited.
///
/// The hub is handed to `master` by value; dropping it (or returning)
/// retires every command lane, which unblocks workers waiting in
/// [`WorkerPort::recv`] and lets the implicit join complete — the
/// structural argument for "never deadlocks on the error path".
pub fn run_cluster<R>(
    config: &ClusterConfig,
    worker: impl Fn(WorkerPort) + Sync,
    master: impl FnOnce(MasterHub) -> R,
) -> R {
    let (hub, ports) = build_cluster(config);
    let cells: Vec<Mutex<Option<WorkerPort>>> =
        ports.into_iter().map(|p| Mutex::new(Some(p))).collect();
    splpg_par::actor_scope(
        config.workers,
        |i| {
            let port = cells[i]
                .lock()
                .expect("invariant: port cell never poisoned")
                .take()
                .expect("invariant: one actor per port");
            worker(port);
        },
        move || master(hub),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{FetchLedger, MsgId};

    fn echo_worker(mut port: WorkerPort) {
        while let Ok(req) = port.recv() {
            match req {
                Request::Stop { .. } => break,
                Request::Epoch { id, params } | Request::Round { id, params } => {
                    let resp = Response::Epoch {
                        id: MsgId { worker: port.worker() as u32, ..id },
                        params,
                        loss_sum: port.worker() as f64,
                        batches: 1,
                        ledger: FetchLedger::default(),
                    };
                    if port.send(&resp).is_err() {
                        break;
                    }
                }
            }
        }
    }

    #[test]
    fn broadcast_gather_echo() {
        let config = ClusterConfig { workers: 3, faults: None, codec: CodecConfig::default() };
        let losses = run_cluster(&config, echo_worker, |mut hub| {
            let req = |w: u32| Request::Epoch {
                id: MsgId { worker: w, epoch: 1, round: 0, attempt: 0 },
                params: vec![1.0, 2.0],
            };
            for w in 0..3 {
                assert!(hub.send(w, &req(w as u32)));
            }
            let mut losses = vec![f64::NAN; 3];
            for _ in 0..3 {
                let Response::Epoch { id, loss_sum, params, .. } = hub.recv().unwrap() else {
                    panic!("wrong response kind")
                };
                assert_eq!(params, vec![1.0, 2.0]);
                losses[id.worker as usize] = loss_sum;
            }
            hub.shutdown();
            losses
        });
        assert_eq!(losses, vec![0.0, 1.0, 2.0]);
    }

    #[test]
    fn dropping_hub_releases_workers() {
        let config = ClusterConfig { workers: 4, faults: None, codec: CodecConfig::default() };
        // Master returns immediately without shutdown; workers must
        // still exit via the Closed signal (this test hanging = failure).
        run_cluster(&config, echo_worker, drop);
    }

    #[test]
    fn worker_exit_surfaces_as_closed_inbox() {
        let config = ClusterConfig { workers: 1, faults: None, codec: CodecConfig::default() };
        run_cluster(
            &config,
            drop,
            |mut hub| {
                assert_eq!(hub.recv().unwrap_err(), NetError::Closed);
                assert!(!hub.send(0, &Request::Stop { id: MsgId::default() }) || {
                    // The worker may not have dropped its receiver yet;
                    // the follow-up send must observe the closure.
                    std::thread::sleep(Duration::from_millis(50));
                    !hub.send(0, &Request::Stop { id: MsgId::default() })
                });
            },
        );
    }

    #[test]
    fn stats_count_both_directions() {
        let config = ClusterConfig { workers: 2, faults: None, codec: CodecConfig::default() };
        // Snapshot only after run_cluster joined the workers: counters
        // land on the sending thread after the frame is already in the
        // lane, so an in-flight snapshot could miss a delivered frame.
        let stats = run_cluster(&config, echo_worker, |mut hub| {
            for w in 0..2 {
                hub.send(
                    w,
                    &Request::Round {
                        id: MsgId { worker: w as u32, epoch: 0, round: 0, attempt: 0 },
                        params: vec![0.5],
                    },
                );
            }
            for _ in 0..2 {
                hub.recv().unwrap();
            }
            let stats = hub.stats_handle();
            hub.shutdown();
            stats
        });
        let snap = stats.snapshot();
        // 2 commands + 2 responses + 2 stop frames.
        assert_eq!(snap.messages, 6);
        assert!(snap.bytes > 0);
        assert_eq!(snap.dropped, 0);
    }
}
