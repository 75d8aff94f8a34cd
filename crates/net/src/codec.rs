//! The in-tree wire format.
//!
//! Every message is one *frame*:
//!
//! ```text
//! [len: u32][kind: u8][codec: u8][worker: u32][epoch: u64][round: u64][attempt: u32][payload...]
//! ```
//!
//! `len` counts everything after the length field. All fixed-width
//! integers and floats are little-endian; floats are shipped as raw
//! IEEE-754 bits, so an encode/decode round trip under a lossless codec
//! is bit-exact — the property the trainer's determinism guarantee rests
//! on. The 26-byte identity header sits at a fixed offset for *every*
//! kind and codec, which lets the fault-injection layer key its
//! drop/duplicate/delay decisions off message identity without decoding
//! payloads.
//!
//! The `codec` byte (see [`crate::compress::CodecConfig`]) makes every
//! frame self-describing: the sender packs the payload under its
//! negotiated config, and any receiver decodes from the byte alone —
//! integer side-data (vector lengths, ledger counts) turn into varints
//! under a structure codec, and `f32` vectors ship as binary16 or
//! per-block int8 codes under a feature codec. Frames from a peer
//! speaking a different format version are rejected with a typed
//! [`NetError::Codec`].

use std::io::Read;

use crate::compress::{
    dequantize_value, f16_to_f32, f32_to_f16, quantize_row, read_varint, write_varint,
    CodecConfig, FeatCodec, RowQuant, StructCodec, INT8_BLOCK,
};
use crate::message::{FetchLedger, Message, MsgId, Request, Response};
use crate::NetError;

/// Bytes of the identity header (kind + codec + worker + epoch + round +
/// attempt).
pub(crate) const HEADER_LEN: usize = 1 + 1 + 4 + 8 + 8 + 4;

/// Default ceiling on the body length a frame may declare (bytes after
/// the 4-byte length prefix) — and on the *decoded* size a compressed
/// payload may expand to.
///
/// The largest legitimate frames are flattened parameter/gradient
/// vectors; 64 MiB holds a 16M-parameter model, far beyond anything the
/// experiment matrix ships. The cap is what keeps a hostile (or
/// corrupted) length prefix from asking the receive path to allocate an
/// unbounded buffer — every decoder and socket reader enforces it before
/// reserving memory, and vector decoders re-apply it to the decoded
/// element count, so a small compressed frame cannot claim a huge
/// decompressed payload either. Transports accept a smaller cap for
/// tests.
pub const DEFAULT_MAX_FRAME_LEN: usize = 64 << 20;

pub(crate) const KIND_REQ_EPOCH: u8 = 1;
pub(crate) const KIND_REQ_ROUND: u8 = 2;
pub(crate) const KIND_REQ_STOP: u8 = 3;
pub(crate) const KIND_RESP_EPOCH: u8 = 4;
pub(crate) const KIND_RESP_ROUND: u8 = 5;
pub(crate) const KIND_RESP_UNAVAILABLE: u8 = 6;
pub(crate) const KIND_RESP_FAILED: u8 = 7;

/// Number of distinct wire-kind slots (index 0 is unused; kinds are
/// 1–7) — the size of per-kind accounting tables.
pub const NUM_KINDS: usize = 8;

struct Writer {
    buf: Vec<u8>,
    cfg: CodecConfig,
}

impl Writer {
    fn new(kind: u8, cfg: CodecConfig, id: MsgId) -> Self {
        // Reserve the length prefix; patched in `finish`.
        let mut buf = Vec::with_capacity(4 + HEADER_LEN);
        buf.extend_from_slice(&[0u8; 4]);
        buf.push(kind);
        buf.push(cfg.to_byte());
        buf.extend_from_slice(&id.worker.to_le_bytes());
        buf.extend_from_slice(&id.epoch.to_le_bytes());
        buf.extend_from_slice(&id.round.to_le_bytes());
        buf.extend_from_slice(&id.attempt.to_le_bytes());
        Writer { buf, cfg }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// An integer count / side-data field: fixed u64 under the raw
    /// structure codec, a varint under either compressed one.
    fn count(&mut self, v: u64) {
        match self.cfg.structure {
            StructCodec::None => self.u64(v),
            StructCodec::Varint | StructCodec::Rle => write_varint(&mut self.buf, v),
        }
    }

    fn f32s(&mut self, vs: &[f32]) {
        self.count(vs.len() as u64);
        match self.cfg.features {
            FeatCodec::F32 => {
                // One resize and a bulk little-endian store into the new
                // tail, not a capacity check and a 4-byte append per value.
                let at = self.buf.len();
                self.buf.resize(at + vs.len() * 4, 0);
                for (bytes, &v) in self.buf[at..].chunks_exact_mut(4).zip(vs) {
                    bytes.copy_from_slice(&v.to_le_bytes());
                }
            }
            FeatCodec::F16 => {
                self.buf.reserve(vs.len() * 2);
                for &v in vs {
                    self.buf.extend_from_slice(&f32_to_f16(v).to_le_bytes());
                }
            }
            FeatCodec::Int8 => {
                // Flat vectors have no row structure; cut into
                // INT8_BLOCK-wide blocks, each with its own header.
                for block in vs.chunks(INT8_BLOCK) {
                    let mut codes = Vec::with_capacity(block.len());
                    let q = quantize_row(block, &mut codes);
                    self.f32(q.lo);
                    self.f32(q.scale);
                    self.buf.extend_from_slice(&codes);
                }
            }
        }
    }

    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    fn ledger(&mut self, l: &FetchLedger) {
        self.count(l.structure_edges);
        self.count(l.structure_nodes);
        self.count(l.feature_elems);
        self.count(l.structure_wire_bytes);
        self.count(l.feature_wire_bytes);
        self.count(l.feature_bus_elems);
    }

    fn finish(mut self) -> Vec<u8> {
        let len = (self.buf.len() - 4) as u32;
        self.buf[..4].copy_from_slice(&len.to_le_bytes());
        self.buf
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    cfg: CodecConfig,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0, cfg: CodecConfig::default() }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], NetError> {
        if self.pos + n > self.buf.len() {
            return Err(NetError::Codec(format!(
                "truncated frame: need {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, NetError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, NetError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("exact slice")))
    }

    fn u64(&mut self) -> Result<u64, NetError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("exact slice")))
    }

    fn f32(&mut self) -> Result<f32, NetError> {
        Ok(f32::from_bits(self.u32()?))
    }

    fn f64(&mut self) -> Result<f64, NetError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Counterpart of [`Writer::count`].
    fn count(&mut self) -> Result<u64, NetError> {
        match self.cfg.structure {
            StructCodec::None => self.u64(),
            StructCodec::Varint | StructCodec::Rle => read_varint(self.buf, &mut self.pos),
        }
    }

    fn f32s(&mut self) -> Result<Vec<f32>, NetError> {
        let n = self.count()?;
        let remaining = self.buf.len() - self.pos;
        // Reject inflated element counts before allocating: a frame
        // holds at least `min_bytes` wire bytes per element…
        let min_bytes = match self.cfg.features {
            FeatCodec::F32 => 4,
            FeatCodec::F16 => 2,
            FeatCodec::Int8 => 1,
        };
        if n > (remaining / min_bytes) as u64 {
            return Err(NetError::Codec(format!("f32 vector claims {n} elements")));
        }
        // …and the cap applies to the *decoded* size, so a compressed
        // in-cap frame cannot expand into an over-cap allocation.
        let decoded = n.saturating_mul(4);
        if decoded > DEFAULT_MAX_FRAME_LEN as u64 {
            return Err(NetError::FrameTooLarge {
                len: decoded as usize,
                max: DEFAULT_MAX_FRAME_LEN,
            });
        }
        let n = n as usize;
        match self.cfg.features {
            FeatCodec::F32 => Ok(self
                .take(n * 4)?
                .chunks_exact(4)
                .map(|b| f32::from_le_bytes(b.try_into().expect("exact chunk")))
                .collect()),
            FeatCodec::F16 => {
                let mut out = Vec::with_capacity(n);
                for _ in 0..n {
                    let bytes = self.take(2)?;
                    out.push(f16_to_f32(u16::from_le_bytes(
                        bytes.try_into().expect("exact slice"),
                    )));
                }
                Ok(out)
            }
            FeatCodec::Int8 => {
                let mut out = Vec::with_capacity(n);
                let mut left = n;
                while left > 0 {
                    let block = left.min(INT8_BLOCK);
                    let q = RowQuant { lo: self.f32()?, scale: self.f32()? };
                    for &code in self.take(block)? {
                        out.push(dequantize_value(code, &q));
                    }
                    left -= block;
                }
                Ok(out)
            }
        }
    }

    fn str(&mut self) -> Result<String, NetError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| NetError::Codec(format!("non-utf8 string payload: {e}")))
    }

    fn ledger(&mut self) -> Result<FetchLedger, NetError> {
        Ok(FetchLedger {
            structure_edges: self.count()?,
            structure_nodes: self.count()?,
            feature_elems: self.count()?,
            structure_wire_bytes: self.count()?,
            feature_wire_bytes: self.count()?,
            feature_bus_elems: self.count()?,
        })
    }

    fn done(&self) -> Result<(), NetError> {
        if self.pos != self.buf.len() {
            return Err(NetError::Codec(format!(
                "{} trailing bytes after payload",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// Encodes a message into a length-prefixed frame under the default
/// (uncompressed, bit-exact) codec pair.
pub fn encode(msg: &Message) -> Vec<u8> {
    encode_with(msg, CodecConfig::default())
}

/// Encodes a message into a length-prefixed frame under `cfg`. The frame
/// records `cfg` in its codec byte, so [`decode`] needs no out-of-band
/// configuration.
pub fn encode_with(msg: &Message, cfg: CodecConfig) -> Vec<u8> {
    match msg {
        Message::Request(req) => encode_request(req, cfg),
        Message::Response(resp) => encode_response(resp, cfg),
    }
}

/// [`encode_with`] for a request the caller holds by reference, without
/// wrapping (and so cloning) it into a [`Message`].
pub(crate) fn encode_request(req: &Request, cfg: CodecConfig) -> Vec<u8> {
    match req {
        Request::Epoch { id, params } => {
            let mut w = Writer::new(KIND_REQ_EPOCH, cfg, *id);
            w.f32s(params);
            w.finish()
        }
        Request::Round { id, params } => {
            let mut w = Writer::new(KIND_REQ_ROUND, cfg, *id);
            w.f32s(params);
            w.finish()
        }
        Request::Stop { id } => Writer::new(KIND_REQ_STOP, cfg, *id).finish(),
    }
}

/// [`encode_with`] for a response held by reference.
pub(crate) fn encode_response(resp: &Response, cfg: CodecConfig) -> Vec<u8> {
    match resp {
        Response::Epoch { id, params, loss_sum, batches, ledger } => {
            let mut w = Writer::new(KIND_RESP_EPOCH, cfg, *id);
            w.f32s(params);
            w.f64(*loss_sum);
            w.count(*batches);
            w.ledger(ledger);
            w.finish()
        }
        Response::Round { id, active, loss, grads, ledger } => {
            let mut w = Writer::new(KIND_RESP_ROUND, cfg, *id);
            w.u8(u8::from(*active));
            w.f32(*loss);
            w.f32s(grads);
            w.ledger(ledger);
            w.finish()
        }
        Response::Unavailable { id } => Writer::new(KIND_RESP_UNAVAILABLE, cfg, *id).finish(),
        Response::Failed { id, error } => {
            let mut w = Writer::new(KIND_RESP_FAILED, cfg, *id);
            w.str(error);
            w.finish()
        }
    }
}

/// Raw ledger payload bytes: six fixed-width u64 counters.
const LEDGER_RAW_LEN: usize = 6 * 8;

/// Frame length [`encode`] would produce for a request under the default
/// codec — the "raw bytes" side of every compression-ratio meter, computed
/// arithmetically so hot paths never re-encode just to measure.
pub(crate) fn raw_request_frame_len(req: &Request) -> usize {
    let payload = match req {
        Request::Epoch { params, .. } | Request::Round { params, .. } => 8 + 4 * params.len(),
        Request::Stop { .. } => 0,
    };
    4 + HEADER_LEN + payload
}

/// [`raw_request_frame_len`] for a response.
pub(crate) fn raw_response_frame_len(resp: &Response) -> usize {
    let payload = match resp {
        Response::Epoch { params, .. } => (8 + 4 * params.len()) + 8 + 8 + LEDGER_RAW_LEN,
        Response::Round { grads, .. } => 1 + 4 + (8 + 4 * grads.len()) + LEDGER_RAW_LEN,
        Response::Unavailable { .. } => 0,
        Response::Failed { error, .. } => 4 + error.len(),
    };
    4 + HEADER_LEN + payload
}

/// Decodes a length-prefixed frame, honouring whatever codec pair its
/// codec byte declares.
///
/// # Errors
///
/// Returns [`NetError::Codec`] on truncation, length mismatch, unknown
/// kind tags, unknown or version-mismatched codec bytes, or trailing
/// bytes, and [`NetError::FrameTooLarge`] when the length prefix — or
/// the *decoded* size a compressed payload would expand to — exceeds
/// [`DEFAULT_MAX_FRAME_LEN`].
pub fn decode(frame: &[u8]) -> Result<Message, NetError> {
    let mut r = Reader::new(frame);
    let len = r.u32()? as usize;
    if len > DEFAULT_MAX_FRAME_LEN {
        return Err(NetError::FrameTooLarge { len, max: DEFAULT_MAX_FRAME_LEN });
    }
    if len != frame.len() - 4 {
        return Err(NetError::Codec(format!(
            "length prefix {len} disagrees with frame body {}",
            frame.len() - 4
        )));
    }
    let kind = r.u8()?;
    r.cfg = CodecConfig::from_byte(r.u8()?)?;
    let id = MsgId {
        worker: r.u32()?,
        epoch: r.u64()?,
        round: r.u64()?,
        attempt: r.u32()?,
    };
    let msg = match kind {
        KIND_REQ_EPOCH => Message::Request(Request::Epoch { id, params: r.f32s()? }),
        KIND_REQ_ROUND => Message::Request(Request::Round { id, params: r.f32s()? }),
        KIND_REQ_STOP => Message::Request(Request::Stop { id }),
        KIND_RESP_EPOCH => Message::Response(Response::Epoch {
            id,
            params: r.f32s()?,
            loss_sum: r.f64()?,
            batches: r.count()?,
            ledger: r.ledger()?,
        }),
        KIND_RESP_ROUND => {
            let active = r.u8()? != 0;
            let loss = r.f32()?;
            let grads = r.f32s()?;
            let ledger = r.ledger()?;
            Message::Response(Response::Round { id, active, loss, grads, ledger })
        }
        KIND_RESP_UNAVAILABLE => Message::Response(Response::Unavailable { id }),
        KIND_RESP_FAILED => Message::Response(Response::Failed { id, error: r.str()? }),
        other => return Err(NetError::Codec(format!("unknown message kind {other}"))),
    };
    r.done()?;
    Ok(msg)
}

/// Reads exactly `buf.len()` bytes, retrying on [`std::io::ErrorKind::Interrupted`].
///
/// Returns `Ok(false)` when the stream ends *before the first byte*
/// (clean end-of-stream at a frame boundary) and `already` is false.
fn read_full<R: Read>(r: &mut R, buf: &mut [u8], already: bool) -> Result<bool, NetError> {
    let mut pos = 0usize;
    while pos < buf.len() {
        match r.read(&mut buf[pos..]) {
            Ok(0) => {
                if pos == 0 && !already {
                    return Ok(false);
                }
                return Err(NetError::Codec(format!(
                    "stream ended mid-frame: got {pos} of {} bytes",
                    buf.len()
                )));
            }
            Ok(n) => pos += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::ConnectionReset
                        | std::io::ErrorKind::ConnectionAborted
                ) =>
            {
                // A reset is the stream-level spelling of "peer died";
                // surface it as the same typed closure an EOF would.
                return Err(NetError::Closed);
            }
            Err(e) => return Err(NetError::Io(format!("frame read failed: {e}"))),
        }
    }
    Ok(true)
}

/// Reads one length-prefixed frame from a byte stream, enforcing
/// `max_frame_len` *before* allocating the body buffer.
///
/// Returns `Ok(None)` on a clean end-of-stream at a frame boundary (the
/// peer half-closed between frames) and the full frame — length prefix
/// included, ready for [`decode`] — otherwise.
///
/// # Errors
///
/// [`NetError::FrameTooLarge`] when the length prefix exceeds
/// `max_frame_len` (nothing is allocated), [`NetError::Codec`] when the
/// stream ends mid-frame, [`NetError::Io`] on a read failure.
pub fn read_frame<R: Read>(
    r: &mut R,
    max_frame_len: usize,
) -> Result<Option<Vec<u8>>, NetError> {
    let mut prefix = [0u8; 4];
    if !read_full(r, &mut prefix, false)? {
        return Ok(None);
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len > max_frame_len {
        return Err(NetError::FrameTooLarge { len, max: max_frame_len });
    }
    let mut frame = vec![0u8; 4 + len];
    frame[..4].copy_from_slice(&prefix);
    read_full(r, &mut frame[4..], true)?;
    Ok(Some(frame))
}

/// Reads `(kind, identity)` from a frame without decoding the payload —
/// the fault layer's hook. The codec byte is skipped, not validated, so
/// identity-keyed fault decisions stay independent of compression mode.
///
/// # Errors
///
/// Returns [`NetError::Codec`] when the frame is shorter than the fixed
/// header.
pub(crate) fn peek_identity(frame: &[u8]) -> Result<(u8, MsgId), NetError> {
    let mut r = Reader::new(frame);
    let _len = r.u32()?;
    let kind = r.u8()?;
    let _codec = r.u8()?;
    let id = MsgId {
        worker: r.u32()?,
        epoch: r.u64()?,
        round: r.u64()?,
        attempt: r.u32()?,
    };
    Ok((kind, id))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_id() -> MsgId {
        MsgId { worker: 3, epoch: 17, round: 2, attempt: 1 }
    }

    fn sample_ledger() -> FetchLedger {
        FetchLedger {
            structure_edges: 10,
            structure_nodes: 4,
            feature_elems: 96,
            structure_wire_bytes: 52,
            feature_wire_bytes: 384,
            feature_bus_elems: 48,
        }
    }

    fn all_messages() -> Vec<Message> {
        let id = sample_id();
        let ledger = sample_ledger();
        vec![
            Message::Request(Request::Epoch { id, params: vec![1.0, -2.5, f32::MIN_POSITIVE] }),
            Message::Request(Request::Round { id, params: vec![] }),
            Message::Request(Request::Stop { id }),
            Message::Response(Response::Epoch {
                id,
                params: vec![0.25; 7],
                loss_sum: 1.75e-3,
                batches: 9,
                ledger,
            }),
            Message::Response(Response::Round {
                id,
                active: true,
                loss: 0.693,
                grads: vec![-1.0, 0.0, 1e-30],
                ledger,
            }),
            Message::Response(Response::Unavailable { id }),
            Message::Response(Response::Failed { id, error: "oops — µ".to_string() }),
        ]
    }

    fn all_configs() -> Vec<CodecConfig> {
        let mut v = Vec::new();
        for s in [StructCodec::None, StructCodec::Varint, StructCodec::Rle] {
            for f in [FeatCodec::F32, FeatCodec::F16, FeatCodec::Int8] {
                v.push(CodecConfig { structure: s, features: f });
            }
        }
        v
    }

    #[test]
    fn round_trip_every_kind() {
        for msg in all_messages() {
            let frame = encode(&msg);
            assert_eq!(decode(&frame).unwrap(), msg, "{msg:?}");
        }
    }

    #[test]
    fn raw_frame_len_matches_default_encode() {
        for msg in all_messages() {
            let raw = match &msg {
                Message::Request(r) => raw_request_frame_len(r),
                Message::Response(r) => raw_response_frame_len(r),
            };
            assert_eq!(raw, encode(&msg).len(), "{msg:?}");
        }
    }

    #[test]
    fn lossless_configs_round_trip_bit_exactly() {
        for cfg in all_configs().into_iter().filter(|c| c.lossless()) {
            for msg in all_messages() {
                let frame = encode_with(&msg, cfg);
                assert_eq!(decode(&frame).unwrap(), msg, "{cfg:?} {msg:?}");
            }
        }
    }

    #[test]
    fn quantized_configs_round_trip_non_float_fields_exactly() {
        for cfg in all_configs().into_iter().filter(|c| !c.lossless()) {
            for msg in all_messages() {
                let back = decode(&encode_with(&msg, cfg)).unwrap();
                assert_eq!(back.id(), msg.id(), "{cfg:?}");
                match (&msg, &back) {
                    (
                        Message::Response(Response::Epoch {
                            loss_sum, batches, ledger, params, ..
                        }),
                        Message::Response(Response::Epoch {
                            loss_sum: ls2,
                            batches: b2,
                            ledger: l2,
                            params: p2,
                            ..
                        }),
                    ) => {
                        assert_eq!(loss_sum.to_bits(), ls2.to_bits());
                        assert_eq!(batches, b2);
                        assert_eq!(ledger, l2);
                        assert_eq!(params.len(), p2.len());
                    }
                    (
                        Message::Response(Response::Round { active, ledger, grads, .. }),
                        Message::Response(Response::Round {
                            active: a2, ledger: l2, grads: g2, ..
                        }),
                    ) => {
                        assert_eq!(active, a2);
                        assert_eq!(ledger, l2);
                        assert_eq!(grads.len(), g2.len());
                    }
                    (Message::Request(Request::Epoch { params, .. }),
                     Message::Request(Request::Epoch { params: p2, .. })) => {
                        assert_eq!(params.len(), p2.len());
                    }
                    _ => assert_eq!(&msg, &back, "payload-free kinds must be exact"),
                }
            }
        }
    }

    #[test]
    fn compression_shrinks_the_frames_it_claims_to() {
        // A big, smooth parameter vector: int8 must get close to 4x on
        // the payload; varint side-data must not grow any frame.
        let params: Vec<f32> = (0..4096).map(|i| (i as f32) * 1e-3).collect();
        let msg = Message::Response(Response::Epoch {
            id: sample_id(),
            params,
            loss_sum: 0.5,
            batches: 64,
            ledger: sample_ledger(),
        });
        let raw = encode(&msg).len();
        for cfg in all_configs() {
            let wire = encode_with(&msg, cfg).len();
            assert!(wire <= raw, "{cfg:?} grew the frame: {wire} > {raw}");
        }
        let int8 = encode_with(
            &msg,
            CodecConfig { structure: StructCodec::Varint, features: FeatCodec::Int8 },
        )
        .len();
        assert!(
            (raw as f64) / (int8 as f64) >= 3.5,
            "int8 ratio {:.2} below 3.5",
            (raw as f64) / (int8 as f64)
        );
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        let weird = vec![f32::NAN, -0.0, f32::INFINITY, 1e-45, 3.402_823_5e38];
        let msg = Message::Request(Request::Epoch { id: sample_id(), params: weird.clone() });
        let Message::Request(Request::Epoch { params, .. }) =
            decode(&encode(&msg)).unwrap()
        else {
            panic!("wrong kind")
        };
        for (a, b) in weird.iter().zip(&params) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn peek_matches_full_decode() {
        for cfg in all_configs() {
            for msg in all_messages() {
                let frame = encode_with(&msg, cfg);
                let (_, id) = peek_identity(&frame).unwrap();
                assert_eq!(id, msg.id());
            }
        }
    }

    #[test]
    fn version_mismatch_is_a_typed_codec_error() {
        let mut frame = encode(&Message::Request(Request::Stop { id: sample_id() }));
        // Codec byte sits right after the kind byte.
        frame[5] = 0x30; // version nibble 3: a future format
        assert!(matches!(decode(&frame), Err(NetError::Codec(_))));
        frame[5] = 0x03; // version nibble 0: a past format
        assert!(matches!(decode(&frame), Err(NetError::Codec(_))));
    }

    #[test]
    fn truncated_frames_rejected() {
        let frame = encode(&Message::Request(Request::Stop { id: sample_id() }));
        for cut in 0..frame.len() {
            assert!(
                matches!(decode(&frame[..cut]), Err(NetError::Codec(_))),
                "cut at {cut} accepted"
            );
        }
    }

    #[test]
    fn truncated_compressed_frames_rejected() {
        for cfg in all_configs() {
            let frame = encode_with(
                &Message::Request(Request::Epoch { id: sample_id(), params: vec![0.5; 100] }),
                cfg,
            );
            for cut in 0..frame.len() {
                assert!(
                    decode(&frame[..cut]).is_err(),
                    "{cfg:?}: cut at {cut} accepted"
                );
            }
        }
    }

    #[test]
    fn bad_kind_and_trailing_bytes_rejected() {
        let mut frame = encode(&Message::Request(Request::Stop { id: sample_id() }));
        frame[4] = 200;
        assert!(matches!(decode(&frame), Err(NetError::Codec(_))));

        let mut padded = encode(&Message::Request(Request::Stop { id: sample_id() }));
        padded.push(0);
        // Length prefix now disagrees.
        assert!(matches!(decode(&padded), Err(NetError::Codec(_))));
    }

    #[test]
    fn read_frame_round_trips_a_stream_of_frames() {
        let msgs = all_messages();
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend_from_slice(&encode(m));
        }
        let mut cur = std::io::Cursor::new(stream);
        for m in &msgs {
            let frame = read_frame(&mut cur, DEFAULT_MAX_FRAME_LEN).unwrap().unwrap();
            assert_eq!(decode(&frame).unwrap(), *m);
        }
        assert_eq!(read_frame(&mut cur, DEFAULT_MAX_FRAME_LEN).unwrap(), None, "clean EOF");
    }

    #[test]
    fn read_frame_rejects_mid_frame_eof() {
        let frame = encode(&Message::Request(Request::Stop { id: sample_id() }));
        for cut in 1..frame.len() {
            let mut cur = std::io::Cursor::new(frame[..cut].to_vec());
            assert!(
                matches!(read_frame(&mut cur, DEFAULT_MAX_FRAME_LEN), Err(NetError::Codec(_))),
                "cut at {cut} accepted"
            );
        }
    }

    #[test]
    fn read_frame_rejects_hostile_length_prefix_before_allocating() {
        // A 4 GiB claim backed by 4 bytes of stream: the cap must reject
        // it from the prefix alone, never reserving the claimed buffer.
        let mut hostile = (u32::MAX - 1).to_le_bytes().to_vec();
        hostile.extend_from_slice(&[0; 8]);
        let mut cur = std::io::Cursor::new(hostile);
        assert!(matches!(
            read_frame(&mut cur, DEFAULT_MAX_FRAME_LEN),
            Err(NetError::FrameTooLarge { .. })
        ));
        // And the same prefix against a tiny custom cap.
        let small = encode(&Message::Request(Request::Epoch {
            id: sample_id(),
            params: vec![0.5; 64],
        }));
        let mut cur = std::io::Cursor::new(small);
        assert!(matches!(read_frame(&mut cur, 16), Err(NetError::FrameTooLarge { .. })));
    }

    #[test]
    fn decode_rejects_hostile_length_prefix() {
        let mut frame = encode(&Message::Request(Request::Stop { id: sample_id() }));
        frame[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode(&frame), Err(NetError::FrameTooLarge { .. })));
    }

    #[test]
    fn inflated_vector_length_rejected_before_allocation() {
        let mut frame = encode(&Message::Request(Request::Epoch {
            id: sample_id(),
            params: vec![1.0],
        }));
        // Overwrite the vector length (first payload field) with u64::MAX.
        let off = 4 + HEADER_LEN;
        frame[off..off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(decode(&frame), Err(NetError::Codec(_))));
    }

    #[test]
    fn decoded_size_cap_applies_to_compressed_claims() {
        // An int8 frame small enough on the wire whose element count
        // would decode past the 64 MiB cap: rejected as FrameTooLarge
        // before the decoded buffer is reserved. Build it by hand — a
        // varint count of 32M elements with a (lying) short body.
        let cfg = CodecConfig { structure: StructCodec::Varint, features: FeatCodec::Int8 };
        let mut frame = encode_with(
            &Message::Request(Request::Epoch { id: sample_id(), params: vec![] }),
            cfg,
        );
        // Replace the empty count varint with 32M and pad a body big
        // enough to pass the bytes-per-element screen (32M one-byte
        // codes would need 32 MiB of body; fake it with the length
        // prefix honest about on-wire size).
        frame.truncate(4 + HEADER_LEN);
        write_varint(&mut frame, 32 << 20);
        frame.resize(4 + HEADER_LEN + 5 + (33 << 20), 0);
        let len = (frame.len() - 4) as u32;
        frame[..4].copy_from_slice(&len.to_le_bytes());
        assert!(
            matches!(decode(&frame), Err(NetError::FrameTooLarge { .. })),
            "a 33 MiB wire frame expanding past the 64 MiB decoded cap must be rejected"
        );
    }
}
