//! Socket-backed [`Transport`]: length-prefixed frames straight onto TCP.
//!
//! The wire format is *already* self-delimiting — every frame starts with
//! its little-endian body length — so the socket layer adds nothing but
//! byte movement: a send is one `write_all` of the encoded frame, a
//! receive is [`crate::codec::read_frame`] pulling exactly one frame off
//! the stream. All typing stays in the codec, all policy in the master
//! loop, exactly as with the in-process [`ChannelTransport`].
//!
//! Deadline mapping. Send deadlines ride on the socket itself via
//! [`TcpStream::set_write_timeout`]: a peer that stops draining its
//! receive buffer eventually stalls our writes, and the expiry surfaces
//! as a typed [`NetError::Io`]. Receive deadlines are enforced one layer
//! up: a dedicated reader thread blocks on the socket and feeds decoded
//! frames into a bounded channel, so [`Transport::recv_timeout`] is a
//! plain timed channel receive — the same code path (and therefore the
//! same retry/backoff behaviour in the master) as the channel transport.
//! [`TcpStream::set_read_timeout`] is used where a socket read must be
//! bounded without a reader thread: the acceptor's hello handshake.
//!
//! Shutdown protocol. Dropping a duplex endpoint half-closes the socket
//! (`FIN`); TCP delivers every already-queued frame to the peer *before*
//! its reader observes end-of-stream, so queued-then-drop means the frame
//! still arrives and only then does the peer see [`NetError::Closed`].
//! The drop also shuts down the read side to wake this endpoint's own
//! reader thread out of a blocking read, then joins it — no detached
//! threads survive a transport.
//!
//! [`ChannelTransport`]: crate::ChannelTransport

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::codec;
use crate::transport::{Transport, WireStats};
use crate::NetError;

/// First 4 bytes a dialing worker writes: protocol magic (`"sLPG"`).
pub(crate) const HELLO_MAGIC: u32 = u32::from_le_bytes(*b"sLPG");

/// Frames buffered between the reader thread and `recv` before the
/// reader exerts backpressure on the socket.
const READER_INBOX_CAP: usize = 64;

/// Milliseconds between polls of a not-yet-ready resource (listener
/// accept, rendezvous file); bounded-attempt loops use this as the unit.
pub(crate) const POLL_MS: u64 = 10;

/// Tuning knobs of the socket transport and the process rendezvous.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpConfig {
    /// Ceiling on the body length a received or sent frame may declare;
    /// enforced before any allocation. Defaults to
    /// [`codec::DEFAULT_MAX_FRAME_LEN`].
    pub max_frame_len: usize,
    /// Dial attempts before `TcpTransport::connect` gives up.
    pub connect_attempts: u32,
    /// Sleep between dial attempts, in milliseconds.
    pub connect_backoff_ms: u64,
    /// Socket-level send deadline and handshake read deadline, in
    /// milliseconds; `0` means block indefinitely.
    pub io_timeout_ms: u64,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            max_frame_len: codec::DEFAULT_MAX_FRAME_LEN,
            connect_attempts: 100,
            connect_backoff_ms: 50,
            io_timeout_ms: 10_000,
        }
    }
}

impl TcpConfig {
    /// The socket timeout as an `Option<Duration>` (`None` = blocking).
    pub(crate) fn io_timeout(&self) -> Option<Duration> {
        (self.io_timeout_ms > 0).then(|| Duration::from_millis(self.io_timeout_ms))
    }

    /// Attempt budget for a bounded poll loop covering `io_timeout_ms`.
    pub(crate) fn poll_budget(&self) -> u64 {
        (self.io_timeout_ms.max(1)).div_ceil(POLL_MS).max(1)
    }
}

fn io_err(what: &str, e: std::io::Error) -> NetError {
    NetError::Io(format!("{what}: {e}"))
}

fn is_peer_death(kind: std::io::ErrorKind) -> bool {
    matches!(
        kind,
        std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::UnexpectedEof
            | std::io::ErrorKind::NotConnected
    )
}

/// A [`Transport`] over one TCP stream.
///
/// Duplex endpoints (built by `TcpTransport::connect`,
/// `TcpTransport::from_stream` or [`TcpTransport::pair`]) own a reader
/// thread that turns the byte stream back into frames; write-half
/// endpoints (built by the acceptor, whose read sides feed a merged
/// inbox) have no reader and report [`NetError::Closed`] on `recv`.
pub struct TcpTransport {
    writer: Option<TcpStream>,
    control: TcpStream,
    rx: Option<Receiver<Result<Vec<u8>, NetError>>>,
    reader: Option<JoinHandle<()>>,
    stats: WireStats,
    max_frame: usize,
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("peer", &self.control.peer_addr().ok())
            .field("duplex", &self.rx.is_some())
            .finish_non_exhaustive()
    }
}

impl TcpTransport {
    /// Wraps a connected stream as a duplex endpoint: enables
    /// `TCP_NODELAY` (frames are latency-bound, not bandwidth-bound),
    /// arms the send deadline, and spawns the reader thread.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] when socket options or the thread spawn fail.
    #[expect(clippy::disallowed_methods, reason = "a socket reader thread is a cluster actor of splpg-net")]
    pub(crate) fn from_stream(
        stream: TcpStream,
        config: &TcpConfig,
        stats: WireStats,
    ) -> Result<Self, NetError> {
        stream.set_nodelay(true).map_err(|e| io_err("set_nodelay failed", e))?;
        stream
            .set_write_timeout(config.io_timeout())
            .map_err(|e| io_err("set_write_timeout failed", e))?;
        let reader_stream = stream.try_clone().map_err(|e| io_err("stream clone failed", e))?;
        let control = stream.try_clone().map_err(|e| io_err("stream clone failed", e))?;
        let (tx, rx) = sync_channel(READER_INBOX_CAP);
        let max = config.max_frame_len;
        let reader = std::thread::Builder::new()
            .name("splpg-tcp-reader".to_string())
            .spawn(move || reader_loop(reader_stream, &tx, max))
            .map_err(|e| io_err("reader thread spawn failed", e))?;
        Ok(TcpTransport {
            writer: Some(stream),
            control,
            rx: Some(rx),
            reader: Some(reader),
            stats,
            max_frame: max,
        })
    }

    /// Wraps a stream as a send-only endpoint — the master's per-worker
    /// command lanes, whose read sides are consumed by the merged inbox
    /// of [`crate::process::spawn_cluster`]. `recv` on this endpoint
    /// reports [`NetError::Closed`], mirroring
    /// [`ChannelTransport::sender`](crate::ChannelTransport::sender).
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] when socket options fail.
    pub(crate) fn write_half(
        stream: TcpStream,
        config: &TcpConfig,
        stats: WireStats,
    ) -> Result<Self, NetError> {
        stream.set_nodelay(true).map_err(|e| io_err("set_nodelay failed", e))?;
        stream
            .set_write_timeout(config.io_timeout())
            .map_err(|e| io_err("set_write_timeout failed", e))?;
        let control = stream.try_clone().map_err(|e| io_err("stream clone failed", e))?;
        Ok(TcpTransport {
            writer: Some(stream),
            control,
            rx: None,
            reader: None,
            stats,
            max_frame: config.max_frame_len,
        })
    }

    /// Dials `addr` with bounded retry (the listener may not be up yet
    /// when a spawned worker races the master to the rendezvous), then
    /// writes the 8-byte hello `[magic][worker]` identifying this end.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] when every dial attempt fails or the hello
    /// cannot be written.
    pub(crate) fn connect(
        addr: SocketAddr,
        worker: u32,
        config: &TcpConfig,
        stats: WireStats,
    ) -> Result<Self, NetError> {
        let attempts = config.connect_attempts.max(1);
        let mut last = String::new();
        for attempt in 0..attempts {
            if attempt > 0 {
                std::thread::sleep(Duration::from_millis(config.connect_backoff_ms.max(1)));
            }
            match TcpStream::connect(addr) {
                Ok(mut stream) => {
                    stream
                        .set_write_timeout(config.io_timeout())
                        .map_err(|e| io_err("set_write_timeout failed", e))?;
                    let mut hello = [0u8; 8];
                    hello[..4].copy_from_slice(&HELLO_MAGIC.to_le_bytes());
                    hello[4..].copy_from_slice(&worker.to_le_bytes());
                    stream
                        .write_all(&hello)
                        .and_then(|()| stream.flush())
                        .map_err(|e| io_err("hello write failed", e))?;
                    return TcpTransport::from_stream(stream, config, stats);
                }
                Err(e) => last = e.to_string(),
            }
        }
        Err(NetError::Io(format!("connect to {addr} failed after {attempts} attempts: {last}")))
    }

    /// A connected loopback pair of duplex endpoints sharing `stats`
    /// (mostly for tests), mirroring
    /// [`ChannelTransport::pair`](crate::ChannelTransport::pair).
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] when loopback sockets are unavailable.
    #[expect(clippy::disallowed_methods, reason = "the loopback accept blocks, so it runs on its own thread")]
    pub fn pair(config: &TcpConfig, stats: WireStats) -> Result<(Self, Self), NetError> {
        let listener =
            TcpListener::bind(("127.0.0.1", 0)).map_err(|e| io_err("loopback bind failed", e))?;
        let addr = listener.local_addr().map_err(|e| io_err("local_addr failed", e))?;
        let accepting = std::thread::Builder::new()
            .name("splpg-tcp-accept".to_string())
            .spawn(move || listener.accept())
            .map_err(|e| io_err("accept thread spawn failed", e))?;
        let client = TcpStream::connect(addr).map_err(|e| io_err("loopback connect failed", e))?;
        let (server, _) = accepting
            .join()
            .map_err(|_| NetError::Io("accept thread panicked".to_string()))?
            .map_err(|e| io_err("loopback accept failed", e))?;
        Ok((
            TcpTransport::from_stream(client, config, stats.clone())?,
            TcpTransport::from_stream(server, config, stats)?,
        ))
    }
}

/// Pulls frames off `stream` until end-of-stream, peer death, or a codec
/// error. A clean closure (EOF at a frame boundary, reset) just drops
/// the sender, which the consuming side observes as [`NetError::Closed`];
/// anything else is forwarded as a typed error before exiting.
fn reader_loop(mut stream: TcpStream, tx: &SyncSender<Result<Vec<u8>, NetError>>, max: usize) {
    loop {
        match codec::read_frame(&mut stream, max) {
            Ok(Some(frame)) => {
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

impl Transport for TcpTransport {
    fn send(&mut self, frame: Vec<u8>) -> Result<(), NetError> {
        let body = frame.len().saturating_sub(4);
        if body > self.max_frame {
            return Err(NetError::FrameTooLarge { len: body, max: self.max_frame });
        }
        let Some(stream) = &mut self.writer else { return Err(NetError::Closed) };
        match stream.write_all(&frame).and_then(|()| stream.flush()) {
            Ok(()) => {
                self.stats.record_send(frame.len() as u64);
                Ok(())
            }
            Err(e) => {
                // A failed write may have left a partial frame on the
                // wire; the stream is no longer frame-aligned, so retire
                // the write side permanently.
                self.writer = None;
                if is_peer_death(e.kind()) {
                    Err(NetError::Closed)
                } else {
                    Err(io_err("socket send failed", e))
                }
            }
        }
    }

    fn recv(&mut self) -> Result<Vec<u8>, NetError> {
        let Some(rx) = &self.rx else { return Err(NetError::Closed) };
        match rx.recv() {
            Ok(frame) => frame,
            Err(_) => Err(NetError::Closed),
        }
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Vec<u8>>, NetError> {
        let Some(rx) = &self.rx else { return Err(NetError::Closed) };
        match rx.recv_timeout(timeout) {
            Ok(Ok(frame)) => Ok(Some(frame)),
            Ok(Err(e)) => Err(e),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(NetError::Closed),
        }
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        // Duplex endpoints own the whole stream: close both directions
        // (the peer still receives everything already queued before its
        // reader sees EOF). Write-half endpoints share their read side
        // with a merged inbox, so only the write direction is closed.
        let dir = if self.reader.is_some() { Shutdown::Both } else { Shutdown::Write };
        let _ = self.control.shutdown(dir);
        self.writer = None;
        if let Some(handle) = self.reader.take() {
            let _ = handle.join();
        }
    }
}

/// Reads and validates the 8-byte hello off a just-accepted stream,
/// using a socket read deadline so a silent or garbage dialer cannot
/// wedge the acceptor. Returns the dialer's declared worker index and
/// leaves the stream in blocking mode.
pub(crate) fn read_hello(stream: &TcpStream, config: &TcpConfig) -> Result<u32, NetError> {
    stream
        .set_read_timeout(config.io_timeout())
        .map_err(|e| io_err("set_read_timeout failed", e))?;
    let mut buf = [0u8; 8];
    (&mut (&*stream))
        .read_exact(&mut buf)
        .map_err(|e| io_err("hello read failed", e))?;
    stream.set_read_timeout(None).map_err(|e| io_err("set_read_timeout failed", e))?;
    let magic = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
    if magic != HELLO_MAGIC {
        return Err(NetError::Codec(format!(
            "bad hello magic {magic:#010x} (expected {HELLO_MAGIC:#010x})"
        )));
    }
    Ok(u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Message, MsgId, Request};

    fn frame(epoch: u64) -> Vec<u8> {
        Message::Request(Request::Epoch {
            id: MsgId { worker: 0, epoch, round: 0, attempt: 0 },
            params: vec![1.5, -2.5, epoch as f32],
        })
        .encode()
    }

    #[test]
    fn loopback_pair_round_trips_frames_in_order() {
        let stats = WireStats::new();
        let (mut a, mut b) = TcpTransport::pair(&TcpConfig::default(), stats.clone()).unwrap();
        let mut sent_bytes = 0u64;
        for e in 0..16 {
            let f = frame(e);
            sent_bytes += f.len() as u64;
            a.send(f).unwrap();
        }
        for e in 0..16 {
            assert_eq!(b.recv().unwrap(), frame(e));
        }
        // The other direction over the same sockets.
        b.send(frame(99)).unwrap();
        assert_eq!(a.recv().unwrap(), frame(99));
        let snap = stats.snapshot();
        assert_eq!(snap.messages, 17);
        assert_eq!(snap.bytes, sent_bytes + frame(99).len() as u64);
    }

    #[test]
    fn queued_frames_survive_the_sender_dropping() {
        let stats = WireStats::new();
        let (mut a, mut b) = TcpTransport::pair(&TcpConfig::default(), stats).unwrap();
        a.send(frame(7)).unwrap();
        drop(a);
        assert_eq!(b.recv().unwrap(), frame(7), "half-close drains queued frames");
        assert_eq!(b.recv(), Err(NetError::Closed));
        assert_eq!(b.recv_timeout(Duration::from_millis(50)), Err(NetError::Closed));
    }

    #[test]
    fn oversized_send_is_rejected_without_touching_the_wire() {
        let stats = WireStats::new();
        let config = TcpConfig { max_frame_len: 64, ..TcpConfig::default() };
        let (mut a, mut b) = TcpTransport::pair(&config, stats.clone()).unwrap();
        let big = Message::Request(Request::Epoch {
            id: MsgId::default(),
            params: vec![0.25; 64],
        })
        .encode();
        assert!(big.len() - 4 > 64, "fixture frame must exceed the cap");
        assert!(matches!(a.send(big), Err(NetError::FrameTooLarge { .. })));
        assert_eq!(stats.snapshot().messages, 0);
        assert_eq!(b.recv_timeout(Duration::from_millis(30)).unwrap(), None);
        // The lane still works for frames under the cap.
        let small = Message::Request(Request::Stop { id: MsgId::default() }).encode();
        a.send(small.clone()).unwrap();
        assert_eq!(b.recv().unwrap(), small);
    }

    #[test]
    fn send_after_peer_drop_eventually_reports_closed() {
        let stats = WireStats::new();
        let (mut a, b) = TcpTransport::pair(&TcpConfig::default(), stats).unwrap();
        drop(b);
        // The first sends may land in kernel buffers; the broken pipe
        // must surface within a bounded number of attempts.
        let mut closed = false;
        for _ in 0..200 {
            match a.send(frame(0)) {
                Ok(()) => std::thread::sleep(Duration::from_millis(5)),
                Err(NetError::Closed) => {
                    closed = true;
                    break;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(closed, "peer death never surfaced on the send side");
    }

    #[test]
    fn hostile_dialer_cannot_oversize_the_receiver() {
        let stats = WireStats::new();
        let config = TcpConfig { max_frame_len: 1024, ..TcpConfig::default() };
        let (a, mut b) = TcpTransport::pair(&config, stats).unwrap();
        // Write a hostile length prefix directly onto the socket,
        // bypassing the send-side cap.
        let mut raw = a.control.try_clone().unwrap();
        raw.write_all(&u32::MAX.to_le_bytes()).unwrap();
        raw.flush().unwrap();
        assert!(matches!(
            b.recv_timeout(Duration::from_secs(5)),
            Err(NetError::FrameTooLarge { .. })
        ));
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "the peer runs on its own thread so connect can retry")]
    fn connect_and_hello_handshake() {
        let stats = WireStats::new();
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let config = TcpConfig { connect_backoff_ms: 5, ..TcpConfig::default() };
        // Delay the accept by holding the listener in a thread that
        // sleeps first; connect must keep dialing until it lands.
        let acceptor = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            let (stream, _) = listener.accept().unwrap();
            let worker = read_hello(&stream, &TcpConfig::default()).unwrap();
            (stream, worker)
        });
        let mut t = TcpTransport::connect(addr, 3, &config, stats.clone()).unwrap();
        let (stream, worker) = acceptor.join().unwrap();
        assert_eq!(worker, 3);
        let mut peer = TcpTransport::from_stream(stream, &config, stats).unwrap();
        t.send(frame(5)).unwrap();
        assert_eq!(peer.recv().unwrap(), frame(5));
        peer.send(frame(6)).unwrap();
        assert_eq!(t.recv().unwrap(), frame(6));
    }

    #[test]
    fn connect_to_dead_port_fails_with_bounded_retry() {
        // Bind-then-drop to find a port with nothing listening.
        let addr = {
            let l = TcpListener::bind(("127.0.0.1", 0)).unwrap();
            l.local_addr().unwrap()
        };
        let config = TcpConfig { connect_attempts: 3, connect_backoff_ms: 1, ..TcpConfig::default() };
        let err = TcpTransport::connect(addr, 0, &config, WireStats::new()).unwrap_err();
        assert!(matches!(err, NetError::Io(_)), "got {err}");
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "the dialer runs on its own thread so the accept can block")]
    fn bad_hello_magic_is_rejected() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let dialer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&[0xde, 0xad, 0xbe, 0xef, 0, 0, 0, 0]).unwrap();
            s.flush().unwrap();
            s
        });
        let (stream, _) = listener.accept().unwrap();
        let err = read_hello(&stream, &TcpConfig::default()).unwrap_err();
        assert!(matches!(err, NetError::Codec(_)), "got {err}");
        drop(dialer.join().unwrap());
    }
}
