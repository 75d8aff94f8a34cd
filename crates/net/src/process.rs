//! Multi-process cluster launcher: the current binary re-executed as
//! `p` real worker processes, rendezvousing with the master over TCP.
//!
//! Role handoff is by environment variable: [`spawn_cluster`] execs the
//! current binary with `ENV_ROLE=worker` plus the worker index, the
//! worker count, and the path of a *port file* naming the master's
//! ephemeral listener address. A freshly started child calls
//! [`worker_from_env`]; a `Some` answer means "this process is a
//! worker" and [`WorkerEnv::connect`] turns it into a live
//! [`WorkerPort`]. The parent process (role unset) proceeds as master.
//!
//! The rendezvous never uses a fixed port: the master binds
//! `127.0.0.1:0`, learns the kernel-assigned port, and publishes it by
//! writing a uniquely named file in the temp directory (write to a
//! `.tmp` sibling, then atomically rename), *before* any child is
//! spawned — so a child that can read its environment can always find
//! the address, and parallel test binaries can never collide on a port
//! or a file name.
//!
//! Wire accounting. The master-side [`WireStats`] counts its own sends
//! at send time (as the channel cluster does) and worker frames at
//! *arrival* in the merged inbox. Fault-free, every frame a worker
//! sends arrives, so the totals match the shared-counter channel mode
//! exactly; under injected faults the drops happen worker-side before
//! the wire and are invisible here, exactly as a real lossy network
//! would hide them.

use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::cluster::{MasterHub, WorkerPort};
use crate::codec;
use crate::fault::{FaultPlan, FaultyTransport};
use crate::tcp::{read_hello, TcpConfig, TcpTransport, POLL_MS};
use crate::transport::{Transport, WireStats};
use crate::NetError;

/// Set to `worker` in a spawned child; unset in the master.
pub(crate) const ENV_ROLE: &str = "SPLPG_PROC_ROLE";
/// The child's worker index, `0..workers`.
pub const ENV_WORKER: &str = "SPLPG_PROC_WORKER";
/// Total worker count `p` of the cluster.
pub(crate) const ENV_WORKERS: &str = "SPLPG_PROC_WORKERS";
/// Path of the port file naming the master's listener address.
pub(crate) const ENV_PORT_FILE: &str = "SPLPG_PROC_PORT_FILE";
/// Name of the shared-memory feature segment the master published, when
/// the feature bus is enabled — unset otherwise. Children attach
/// read-only via [`crate::shm::ShmLane::attach`] and silently fall back
/// to the wire path when the segment is absent or fails validation.
pub const ENV_SHM: &str = "SPLPG_PROC_SHM";

const ROLE_WORKER: &str = "worker";

static PORT_FILE_SEQ: AtomicU64 = AtomicU64::new(0);

fn io_err(what: &str, e: std::io::Error) -> NetError {
    NetError::Io(format!("{what}: {e}"))
}

/// Shape of a multi-process cluster launch.
#[derive(Debug, Clone, Default)]
pub struct ProcessSpec {
    /// Number of worker processes `p`.
    pub workers: usize,
    /// Fault schedule applied to every lane (master side wraps its
    /// command lanes; workers are expected to wrap theirs via
    /// [`WorkerEnv::connect`] with the *same* plan).
    pub faults: Option<FaultPlan>,
    /// Socket and rendezvous tuning.
    pub tcp: TcpConfig,
    /// Arguments passed to the re-executed binary — for a test binary,
    /// the exact-name filter that routes the child into the worker
    /// entry test.
    pub child_args: Vec<String>,
    /// Wire compression / quantization pair the master encodes under.
    /// Workers negotiate theirs via [`WorkerPort::with_codec`] in the
    /// child entry (frames self-describe, so mixed pairs still decode).
    ///
    /// [`WorkerPort::with_codec`]: crate::WorkerPort::with_codec
    pub codec: crate::compress::CodecConfig,
    /// Shared-memory feature-segment name to advertise to children via
    /// [`ENV_SHM`] (`None` leaves the variable unset and the bus off).
    pub shm_segment: Option<String>,
}

/// Handle on the spawned worker processes: kills whatever is still
/// running when dropped, so a panicking master never leaks children.
#[derive(Debug)]
pub struct ProcessChildren {
    children: Vec<(usize, Child)>,
    port_file: PathBuf,
}

impl ProcessChildren {
    /// Waits for every child to exit and checks their status.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] naming the first worker whose process exited
    /// non-zero (or could not be waited on).
    pub fn join(mut self) -> Result<(), NetError> {
        let mut failure = None;
        for (worker, mut child) in self.children.drain(..) {
            match child.wait() {
                Ok(status) if status.success() => {}
                Ok(status) => {
                    failure.get_or_insert(format!("worker {worker} exited with {status}"));
                }
                Err(e) => {
                    failure.get_or_insert(format!("wait on worker {worker} failed: {e}"));
                }
            }
        }
        let _ = std::fs::remove_file(&self.port_file);
        match failure {
            None => Ok(()),
            Some(msg) => Err(NetError::Io(msg)),
        }
    }
}

impl Drop for ProcessChildren {
    fn drop(&mut self) {
        for (_, child) in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
        if !self.port_file.as_os_str().is_empty() {
            let _ = std::fs::remove_file(&self.port_file);
        }
    }
}

/// Spawns `spec.workers` copies of the current binary as worker
/// processes, accepts their dials, and assembles the master's endpoint:
/// one TCP command lane per worker plus a merged response inbox fed by
/// one reader thread per peer.
///
/// The caller must already have checked [`worker_from_env`] — calling
/// this *from* a worker child would fork-bomb.
///
/// # Errors
///
/// [`NetError::Io`] when sockets, the port file, or process spawning
/// fail, or when the rendezvous window closes before every worker has
/// dialed in; [`NetError::Codec`] on a malformed hello.
#[expect(clippy::disallowed_methods, reason = "one inbox reader thread per worker socket is a cluster actor of splpg-net")]
pub fn spawn_cluster(spec: &ProcessSpec) -> Result<(MasterHub, ProcessChildren), NetError> {
    if spec.workers == 0 {
        return Err(NetError::Io("a cluster needs at least one worker".to_string()));
    }
    let listener =
        TcpListener::bind(("127.0.0.1", 0)).map_err(|e| io_err("loopback bind failed", e))?;
    let addr = listener.local_addr().map_err(|e| io_err("local_addr failed", e))?;
    let port_file = publish_port_file(addr)?;

    let exe = std::env::current_exe().map_err(|e| io_err("current_exe failed", e))?;
    let mut children = ProcessChildren { children: Vec::new(), port_file: port_file.clone() };
    for w in 0..spec.workers {
        let mut cmd = Command::new(&exe);
        cmd.args(&spec.child_args)
            .env(ENV_ROLE, ROLE_WORKER)
            .env(ENV_WORKER, w.to_string())
            .env(ENV_WORKERS, spec.workers.to_string())
            .env(ENV_PORT_FILE, &port_file);
        if let Some(name) = &spec.shm_segment {
            cmd.env(ENV_SHM, name);
        }
        let child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| io_err("worker spawn failed", e))?;
        children.children.push((w, child));
    }

    let stats = WireStats::new();
    let (inbox_tx, inbox_rx) = sync_channel::<Result<Vec<u8>, NetError>>(
        (spec.workers * 8).max(64),
    );
    let mut to_workers: Vec<Option<Box<dyn Transport>>> = Vec::new();
    to_workers.resize_with(spec.workers, || None);
    let mut readers = Vec::with_capacity(spec.workers);
    let mut controls = Vec::with_capacity(spec.workers);

    listener
        .set_nonblocking(true)
        .map_err(|e| io_err("set_nonblocking failed", e))?;
    let mut budget = spec.tcp.poll_budget();
    let mut accepted = 0usize;
    while accepted < spec.workers {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if budget == 0 {
                    return Err(NetError::Io(format!(
                        "rendezvous timed out with {accepted} of {} workers connected",
                        spec.workers
                    )));
                }
                budget -= 1;
                std::thread::sleep(Duration::from_millis(POLL_MS));
                continue;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(io_err("accept failed", e)),
        };
        stream.set_nonblocking(false).map_err(|e| io_err("set_nonblocking failed", e))?;
        let w = read_hello(&stream, &spec.tcp)? as usize;
        if w >= spec.workers {
            return Err(NetError::Codec(format!(
                "hello declared worker {w} but the cluster has {} workers",
                spec.workers
            )));
        }
        if to_workers[w].is_some() {
            return Err(NetError::Codec(format!("worker {w} dialed in twice")));
        }
        let reader_stream =
            stream.try_clone().map_err(|e| io_err("stream clone failed", e))?;
        let control = stream.try_clone().map_err(|e| io_err("stream clone failed", e))?;
        let tx = inbox_tx.clone();
        let arrival_stats = stats.clone();
        let max = spec.tcp.max_frame_len;
        let handle = std::thread::Builder::new()
            .name(format!("splpg-inbox-{w}"))
            .spawn(move || inbox_reader(reader_stream, &tx, &arrival_stats, max))
            .map_err(|e| io_err("inbox reader spawn failed", e))?;
        readers.push(handle);
        controls.push(control);
        let mut lane: Box<dyn Transport> =
            Box::new(TcpTransport::write_half(stream, &spec.tcp, stats.clone())?);
        if let Some(plan) = &spec.faults {
            lane = Box::new(FaultyTransport::new(lane, plan.clone(), 2 * w as u64, stats.clone()));
        }
        to_workers[w] = Some(lane);
        accepted += 1;
    }
    drop(inbox_tx);

    let inbox = TcpInbox { rx: inbox_rx, readers, controls };
    let hub = MasterHub::from_parts(to_workers, Box::new(inbox), stats).with_codec(spec.codec);
    Ok((hub, children))
}

/// Counts an arriving worker frame exactly like the channel cluster
/// counts it at send time, then forwards it into the merged inbox.
fn inbox_reader(
    mut stream: TcpStream,
    tx: &SyncSender<Result<Vec<u8>, NetError>>,
    stats: &WireStats,
    max: usize,
) {
    loop {
        match codec::read_frame(&mut stream, max) {
            Ok(Some(frame)) => {
                stats.record_send(frame.len() as u64);
                if tx.send(Ok(frame)).is_err() {
                    break;
                }
            }
            Ok(None) | Err(NetError::Closed) => break,
            Err(e) => {
                let _ = tx.send(Err(e));
                break;
            }
        }
    }
}

/// The master's merged response inbox over `p` peer sockets: one reader
/// thread per peer feeds a single bounded channel, and the channel
/// disconnects — surfacing [`NetError::Closed`] — only once *every*
/// worker has hung up, matching the channel cluster's inbox semantics.
struct TcpInbox {
    rx: Receiver<Result<Vec<u8>, NetError>>,
    readers: Vec<JoinHandle<()>>,
    controls: Vec<TcpStream>,
}

impl Transport for TcpInbox {
    fn send(&mut self, _frame: Vec<u8>) -> Result<(), NetError> {
        Err(NetError::Closed)
    }

    fn recv(&mut self) -> Result<Vec<u8>, NetError> {
        match self.rx.recv() {
            Ok(frame) => frame,
            Err(_) => Err(NetError::Closed),
        }
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Vec<u8>>, NetError> {
        match self.rx.recv_timeout(timeout) {
            Ok(Ok(frame)) => Ok(Some(frame)),
            Ok(Err(e)) => Err(e),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(NetError::Closed),
        }
    }
}

impl Drop for TcpInbox {
    fn drop(&mut self) {
        // Wake any reader still blocked on a socket (its worker may be
        // wedged rather than exited); only the read direction is shut so
        // a command lane sharing the stream is unaffected.
        for control in &self.controls {
            let _ = control.shutdown(Shutdown::Read);
        }
        for handle in self.readers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// A worker child's view of its environment, decoded from the variables
/// [`spawn_cluster`] set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerEnv {
    worker: usize,
    workers: usize,
    port_file: PathBuf,
    shm_segment: Option<String>,
}

impl WorkerEnv {
    /// This process's worker index.
    pub fn worker(&self) -> usize {
        self.worker
    }

    /// Total worker count of the cluster.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Name of the shared-memory feature segment the launcher advertised
    /// via [`ENV_SHM`], if the feature bus is enabled for this run.
    pub fn shm_segment(&self) -> Option<&str> {
        self.shm_segment.as_deref()
    }

    /// Reads the master's address from the port file and dials it,
    /// wrapping the duplex lane in the worker-side fault schedule when
    /// `faults` is active — lane `2w + 1`, the exact numbering the
    /// channel cluster uses, so a seeded faulty run replays identically
    /// across transports.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] when the port file never materializes or every
    /// dial attempt fails.
    pub fn connect(
        &self,
        faults: Option<&FaultPlan>,
        tcp: &TcpConfig,
    ) -> Result<WorkerPort, NetError> {
        let addr = read_port_file(&self.port_file, tcp)?;
        let stats = WireStats::new();
        let transport = TcpTransport::connect(addr, self.worker as u32, tcp, stats.clone())?;
        let lane: Box<dyn Transport> = match faults {
            Some(plan) => Box::new(FaultyTransport::new(
                transport,
                plan.clone(),
                2 * self.worker as u64 + 1,
                stats,
            )),
            None => Box::new(transport),
        };
        Ok(WorkerPort::from_duplex(self.worker, lane))
    }
}

/// Decodes the worker-role environment. `Ok(None)` means this process
/// is the master (no role variable set); `Ok(Some(_))` means it was
/// spawned as a worker and should run a worker loop, never a launcher.
///
/// # Errors
///
/// [`NetError::Io`] when the role is set but its companion variables
/// are missing or malformed — a broken launcher, worth failing loudly.
pub fn worker_from_env() -> Result<Option<WorkerEnv>, NetError> {
    match std::env::var(ENV_ROLE) {
        Ok(role) if role == ROLE_WORKER => {}
        Ok(role) => {
            return Err(NetError::Io(format!("unknown {ENV_ROLE} value {role:?}")));
        }
        Err(_) => return Ok(None),
    }
    let get = |key: &str| {
        std::env::var(key).map_err(|_| NetError::Io(format!("{key} missing in worker child")))
    };
    let worker = get(ENV_WORKER)?
        .parse::<usize>()
        .map_err(|e| NetError::Io(format!("bad {ENV_WORKER}: {e}")))?;
    let workers = get(ENV_WORKERS)?
        .parse::<usize>()
        .map_err(|e| NetError::Io(format!("bad {ENV_WORKERS}: {e}")))?;
    if worker >= workers {
        return Err(NetError::Io(format!(
            "worker index {worker} out of range for {workers} workers"
        )));
    }
    let port_file = PathBuf::from(get(ENV_PORT_FILE)?);
    let shm_segment = std::env::var(ENV_SHM).ok();
    Ok(Some(WorkerEnv { worker, workers, port_file, shm_segment }))
}

/// Writes `addr` into a uniquely named file in the temp directory,
/// atomically (write a `.tmp` sibling, rename into place). The name
/// mixes the process id and a per-process counter so parallel test
/// binaries never collide.
fn publish_port_file(addr: SocketAddr) -> Result<PathBuf, NetError> {
    let seq = PORT_FILE_SEQ.fetch_add(1, Ordering::Relaxed);
    let path = std::env::temp_dir()
        .join(format!("splpg-port-{}-{seq}.addr", std::process::id()));
    let tmp = path.with_extension("addr.tmp");
    {
        let mut file =
            std::fs::File::create(&tmp).map_err(|e| io_err("port file create failed", e))?;
        writeln!(file, "{addr}").map_err(|e| io_err("port file write failed", e))?;
        file.sync_all().map_err(|e| io_err("port file sync failed", e))?;
    }
    std::fs::rename(&tmp, &path).map_err(|e| io_err("port file rename failed", e))?;
    Ok(path)
}

/// Reads the master's address back out of the port file, polling with
/// a bounded attempt budget — the file is written before any child is
/// spawned, so the poll is a robustness net, not a protocol step.
fn read_port_file(path: &Path, tcp: &TcpConfig) -> Result<SocketAddr, NetError> {
    let mut budget = tcp.poll_budget();
    loop {
        match std::fs::read_to_string(path) {
            Ok(text) => {
                let text = text.trim();
                if !text.is_empty() {
                    return text.parse::<SocketAddr>().map_err(|e| {
                        NetError::Io(format!("port file {} is malformed: {e}", path.display()))
                    });
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(io_err("port file read failed", e)),
        }
        if budget == 0 {
            return Err(NetError::Io(format!(
                "port file {} never materialized",
                path.display()
            )));
        }
        budget -= 1;
        std::thread::sleep(Duration::from_millis(POLL_MS));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn port_file_round_trips_the_address() {
        let addr: SocketAddr = "127.0.0.1:34567".parse().unwrap();
        let path = publish_port_file(addr).unwrap();
        let read = read_port_file(&path, &TcpConfig::default()).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(read, addr);
    }

    #[test]
    fn missing_port_file_fails_within_budget() {
        let path = std::env::temp_dir().join("splpg-port-never-written.addr");
        let tcp = TcpConfig { io_timeout_ms: 30, ..TcpConfig::default() };
        let err = read_port_file(&path, &tcp).unwrap_err();
        assert!(matches!(err, NetError::Io(_)), "got {err}");
    }

    #[test]
    fn worker_env_decoding_rejects_malformed_roles() {
        // The master path: no role set in this test process.
        assert_eq!(worker_from_env().unwrap(), None);
    }
}
