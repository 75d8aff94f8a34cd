//! Wire compression and quantization codecs — dependency-free.
//!
//! [`CodecConfig`] names a `(structure, features)` codec pair. Every
//! frame carries the pair packed into one self-describing byte (high
//! nibble = format version, see `FORMAT_VERSION`), so a receiver
//! decodes whatever arrives without out-of-band negotiation, and a
//! version-mismatched peer surfaces as a typed [`NetError::Codec`]
//! instead of silently mangled payloads.
//!
//! Structure payloads — sorted node-id lists on the data plane, and the
//! integer side-data of control frames (vector lengths, ledger counts) —
//! pack as zigzag deltas in LEB128 varints ([`StructCodec::Varint`]),
//! optionally with run-length encoding of consecutive id runs
//! ([`StructCodec::Rle`]). Feature payloads (`f32` vectors) ship raw
//! ([`FeatCodec::F32`]), as IEEE-754 binary16 ([`FeatCodec::F16`]), or
//! as per-row int8 codes under an `[lo, scale]` affine header
//! ([`FeatCodec::Int8`]).
//!
//! Tolerance contract: lossless modes (`F32` with any structure codec)
//! are bit-exact. `F16` is exact within 2^-11 relative error over the
//! binary16 normal range (and saturates to ±∞ beyond ±65504). `Int8`
//! reconstructs every finite element of a row within `scale / 2` of the
//! original (plus f32 rounding slack), where
//! `scale = (max - min) / 255` for that row; non-finite elements
//! degrade to the row floor rather than poisoning neighbours.

use crate::codec::DEFAULT_MAX_FRAME_LEN;
use crate::NetError;

/// Version nibble carried in the high bits of every codec byte. Bump on
/// any incompatible change to the packed layouts below; decoders reject
/// other versions with a typed [`NetError::Codec`]. Version 2 added the
/// `feature_bus_elems` counter to the on-wire fetch ledger.
pub(crate) const FORMAT_VERSION: u8 = 2;

/// Row width used to quantize *flat* `f32` vectors (parameters,
/// gradients), which have no natural row structure: the vector is cut
/// into blocks of this many elements, each with its own `[lo, scale]`
/// header. Feature matrices quantize per real row instead.
pub(crate) const INT8_BLOCK: usize = 64;

/// Codec for structure payloads: node-id lists and integer side-data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StructCodec {
    /// Fixed-width little-endian integers — the raw reference encoding.
    #[default]
    None,
    /// Zigzag deltas between consecutive ids, LEB128-varint packed.
    Varint,
    /// Like `Varint`, but runs of consecutive ids (`v, v+1, v+2, …`)
    /// collapse to one `(start-delta, run-length)` pair.
    Rle,
}

/// Codec for feature payloads: `f32` vectors and feature-matrix rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FeatCodec {
    /// Raw IEEE-754 binary32 — bit-exact, 4 bytes per element.
    #[default]
    F32,
    /// IEEE-754 binary16 with round-to-nearest-even, 2 bytes per element.
    F16,
    /// Per-row affine int8: an 8-byte `[lo: f32][scale: f32]` header per
    /// row, then 1 byte per element.
    Int8,
}

/// The negotiated `(structure, features)` codec pair for a connection.
///
/// The default pair `(None, F32)` is the uncompressed reference: frames
/// encoded under it are byte-identical to the pre-compression wire
/// format apart from the codec byte itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CodecConfig {
    /// Structure-payload codec.
    pub structure: StructCodec,
    /// Feature-payload codec.
    pub features: FeatCodec,
}

impl CodecConfig {
    /// Packs the pair into the self-describing codec byte:
    /// `[version: 4][features: 2][structure: 2]`.
    pub(crate) fn to_byte(self) -> u8 {
        let s = match self.structure {
            StructCodec::None => 0u8,
            StructCodec::Varint => 1,
            StructCodec::Rle => 2,
        };
        let f = match self.features {
            FeatCodec::F32 => 0u8,
            FeatCodec::F16 => 1,
            FeatCodec::Int8 => 2,
        };
        (FORMAT_VERSION << 4) | (f << 2) | s
    }

    /// Unpacks a codec byte.
    ///
    /// # Errors
    ///
    /// [`NetError::Codec`] when the version nibble is not
    /// [`FORMAT_VERSION`] or either field holds a value this build does
    /// not speak.
    pub(crate) fn from_byte(b: u8) -> Result<CodecConfig, NetError> {
        let version = b >> 4;
        if version != FORMAT_VERSION {
            return Err(NetError::Codec(format!(
                "codec format version {version} (byte {b:#04x}); this build speaks version {FORMAT_VERSION}"
            )));
        }
        let structure = match b & 0b11 {
            0 => StructCodec::None,
            1 => StructCodec::Varint,
            2 => StructCodec::Rle,
            other => {
                return Err(NetError::Codec(format!("unknown structure codec {other}")));
            }
        };
        let features = match (b >> 2) & 0b11 {
            0 => FeatCodec::F32,
            1 => FeatCodec::F16,
            2 => FeatCodec::Int8,
            other => {
                return Err(NetError::Codec(format!("unknown feature codec {other}")));
            }
        };
        Ok(CodecConfig { structure, features })
    }

    /// Whether an encode/decode round trip reproduces every payload
    /// bit-exactly (true for any structure codec — those are lossless —
    /// whenever features ship as raw `F32`).
    pub fn lossless(self) -> bool {
        self.features == FeatCodec::F32
    }
}

// ---------------------------------------------------------------------------
// LEB128 varints + zigzag
// ---------------------------------------------------------------------------

/// Appends `v` as an LEB128 varint (7 payload bits per byte, high bit =
/// continuation; 1–10 bytes).
pub(crate) fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let low = v & 0x7f;
        v >>= 7;
        if v == 0 {
            out.push(u8::try_from(low).expect("masked to 7 bits"));
            return;
        }
        out.push(u8::try_from(low | 0x80).expect("masked to 8 bits"));
    }
}

/// Reads one LEB128 varint from `buf` at `*pos`, advancing `*pos`.
///
/// # Errors
///
/// [`NetError::Codec`] when the buffer ends mid-varint or the encoding
/// overflows 64 bits.
pub(crate) fn read_varint(buf: &[u8], pos: &mut usize) -> Result<u64, NetError> {
    let mut v = 0u64;
    for i in 0..10 {
        let Some(&b) = buf.get(*pos) else {
            return Err(NetError::Codec("truncated varint".to_string()));
        };
        *pos += 1;
        let payload = u64::from(b & 0x7f);
        if i == 9 && payload > 1 {
            return Err(NetError::Codec("varint overflows 64 bits".to_string()));
        }
        v |= payload << (7 * i);
        if b & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(NetError::Codec("varint longer than 10 bytes".to_string()))
}

/// Encoded length of `v` as a varint, without encoding it.
pub fn varint_len(v: u64) -> usize {
    let bits = (64 - v.leading_zeros()).max(1);
    bits.div_ceil(7) as usize
}

/// Maps a signed delta onto the unsigned varint domain so small
/// magnitudes of either sign stay short: `0, -1, 1, -2, 2, …`.
pub(crate) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub(crate) fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn delta(cur: u64, prev: u64) -> u64 {
    // Ids are u64 but real node ids fit in i64; wrapping keeps the map
    // a bijection even for hostile values.
    zigzag((cur as i64).wrapping_sub(prev as i64))
}

fn undelta(z: u64, prev: u64) -> u64 {
    (prev as i64).wrapping_add(unzigzag(z)) as u64
}

// ---------------------------------------------------------------------------
// Id-list codecs
// ---------------------------------------------------------------------------

/// Appends an id list under `codec`: a count prefix, then the payload.
///
/// `None` writes the raw reference layout (u64 count + fixed 8 bytes per
/// id). `Varint` writes zigzag deltas between consecutive ids. `Rle`
/// collapses runs of consecutive ids to `(start-delta, run-len)` pairs.
pub fn encode_ids(ids: &[u64], codec: StructCodec, out: &mut Vec<u8>) {
    match codec {
        StructCodec::None => {
            out.extend_from_slice(&(ids.len() as u64).to_le_bytes());
            for &id in ids {
                out.extend_from_slice(&id.to_le_bytes());
            }
        }
        StructCodec::Varint => {
            write_varint(out, ids.len() as u64);
            let mut prev = 0u64;
            for &id in ids {
                write_varint(out, delta(id, prev));
                prev = id;
            }
        }
        StructCodec::Rle => {
            write_varint(out, ids.len() as u64);
            let mut prev = 0u64;
            let mut i = 0usize;
            while i < ids.len() {
                let start = ids[i];
                let mut j = i + 1;
                while j < ids.len() && ids[j] == ids[j - 1].wrapping_add(1) {
                    j += 1;
                }
                write_varint(out, delta(start, prev));
                write_varint(out, (j - i) as u64);
                prev = ids[j - 1];
                i = j;
            }
        }
    }
}

/// Decodes an id list written by [`encode_ids`] from `buf` at `*pos`.
///
/// # Errors
///
/// [`NetError::Codec`] on truncation, a count whose decoded size
/// (8 bytes per id) would exceed [`DEFAULT_MAX_FRAME_LEN`], or RLE runs
/// that disagree with the count prefix.
pub fn decode_ids(
    buf: &[u8],
    pos: &mut usize,
    codec: StructCodec,
) -> Result<Vec<u64>, NetError> {
    let count = match codec {
        StructCodec::None => {
            let Some(bytes) = buf.get(*pos..*pos + 8) else {
                return Err(NetError::Codec("truncated id-list count".to_string()));
            };
            *pos += 8;
            u64::from_le_bytes(bytes.try_into().expect("exact slice"))
        }
        StructCodec::Varint | StructCodec::Rle => read_varint(buf, pos)?,
    };
    // The cap applies to the *decoded* size: a 2-byte RLE pair may claim
    // a gigantic run, so bound the materialized list before building it.
    if count.checked_mul(8).is_none_or(|b| b > DEFAULT_MAX_FRAME_LEN as u64) {
        return Err(NetError::Codec(format!(
            "id list claims {count} entries; decoded size exceeds the frame cap"
        )));
    }
    let count = count as usize;
    let mut ids = Vec::with_capacity(count);
    match codec {
        StructCodec::None => {
            for _ in 0..count {
                let Some(bytes) = buf.get(*pos..*pos + 8) else {
                    return Err(NetError::Codec("truncated id list".to_string()));
                };
                *pos += 8;
                ids.push(u64::from_le_bytes(bytes.try_into().expect("exact slice")));
            }
        }
        StructCodec::Varint => {
            let mut prev = 0u64;
            for _ in 0..count {
                let id = undelta(read_varint(buf, pos)?, prev);
                ids.push(id);
                prev = id;
            }
        }
        StructCodec::Rle => {
            let mut prev = 0u64;
            while ids.len() < count {
                let start = undelta(read_varint(buf, pos)?, prev);
                let run = read_varint(buf, pos)?;
                if run == 0 || run > (count - ids.len()) as u64 {
                    return Err(NetError::Codec(format!(
                        "RLE run of {run} disagrees with id count {count}"
                    )));
                }
                let mut id = start;
                for k in 0..run {
                    if k > 0 {
                        id = id.wrapping_add(1);
                    }
                    ids.push(id);
                }
                prev = id;
            }
        }
    }
    Ok(ids)
}

/// Exact byte length [`encode_ids`] would produce, without allocating —
/// the data-plane meters call this per fetch, so it must stay cheap.
pub fn encoded_ids_len(ids: &[u64], codec: StructCodec) -> usize {
    match codec {
        StructCodec::None => 8 + 8 * ids.len(),
        StructCodec::Varint => {
            let mut n = varint_len(ids.len() as u64);
            let mut prev = 0u64;
            for &id in ids {
                n += varint_len(delta(id, prev));
                prev = id;
            }
            n
        }
        StructCodec::Rle => {
            let mut n = varint_len(ids.len() as u64);
            let mut prev = 0u64;
            let mut i = 0usize;
            while i < ids.len() {
                let mut j = i + 1;
                while j < ids.len() && ids[j] == ids[j - 1].wrapping_add(1) {
                    j += 1;
                }
                n += varint_len(delta(ids[i], prev));
                n += varint_len((j - i) as u64);
                prev = ids[j - 1];
                i = j;
            }
            n
        }
    }
}

// ---------------------------------------------------------------------------
// f16 (IEEE-754 binary16) conversion
// ---------------------------------------------------------------------------

/// Converts to binary16 bits with round-to-nearest-even. Values beyond
/// ±65504 saturate to ±∞; NaN maps to a quiet NaN.
pub fn f32_to_f16(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = u16::try_from((bits >> 16) & 0x8000).expect("masked to bit 15");
    let abs = bits & 0x7fff_ffff;
    if abs > 0x7f80_0000 {
        // NaN: keep it quiet, drop the payload.
        return sign | 0x7e00;
    }
    if abs >= 0x4780_0000 {
        // ±∞, and finite magnitudes ≥ 65536 which overflow binary16.
        return sign | 0x7c00;
    }
    if abs >= 0x3880_0000 {
        // Normal half range (≥ 2^-14). Rebias 127→15, keep 10 mantissa
        // bits, round to nearest even; a mantissa carry rolls into the
        // exponent, which turns 65520 ≤ |x| < 65536 into ∞ as required.
        let unrounded = ((abs >> 13) & 0x3ff) | (((abs >> 23) - 112) << 10);
        let round = (abs >> 12) & 1;
        let sticky = u32::from(abs & 0xfff != 0);
        let lsb = (abs >> 13) & 1;
        let h = unrounded + (round & (sticky | lsb));
        return sign | u16::try_from(h).expect("half exponent+mantissa fit 15 bits");
    }
    if abs <= 0x3300_0000 {
        // ≤ 2^-25: rounds to zero (the tie at exactly 2^-25 goes to the
        // even code, which is zero).
        return sign;
    }
    // Subnormal half range: h = mantissa(with implicit bit) >> (126 - e),
    // rounded to nearest even. The shift is in [14, 25].
    let man = (abs & 0x007f_ffff) | 0x0080_0000;
    let shift = 126 - (abs >> 23);
    let h = man >> shift;
    let round = (man >> (shift - 1)) & 1;
    let sticky = u32::from(man & ((1 << (shift - 1)) - 1) != 0);
    let h = h + (round & (sticky | (h & 1)));
    sign | u16::try_from(h).expect("subnormal half fits 10 bits plus carry")
}

/// Converts binary16 bits back to `f32` (exact — every binary16 value is
/// representable in binary32).
pub fn f16_to_f32(h: u16) -> f32 {
    let sign = (u32::from(h) & 0x8000) << 16;
    let exp = (h >> 10) & 0x1f;
    let man = u32::from(h & 0x3ff);
    if exp == 0x1f {
        // ±∞ / NaN, payload preserved in the top mantissa bits.
        return f32::from_bits(sign | 0x7f80_0000 | (man << 13));
    }
    if exp == 0 {
        if man == 0 {
            return f32::from_bits(sign);
        }
        // Subnormal: man × 2^-24, both factors exact in f32.
        let mag = f32::from(u16::try_from(man).expect("10-bit mantissa")) * 5.960_464_5e-8;
        return if sign != 0 { -mag } else { mag };
    }
    f32::from_bits(sign | ((u32::from(exp) + 112) << 23) | (man << 13))
}

// ---------------------------------------------------------------------------
// int8 per-row affine quantization
// ---------------------------------------------------------------------------

/// Per-row affine parameters: `value ≈ lo + code × scale`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RowQuant {
    /// Row minimum — the value code 0 reconstructs to.
    pub lo: f32,
    /// Step between adjacent codes, `(max - min) / 255`; `0.0` for
    /// constant or degenerate (empty / non-finite) rows.
    pub scale: f32,
}

/// Computes the affine parameters for one row. Non-finite elements are
/// ignored for the range; a row with no finite spread gets `scale = 0`.
pub(crate) fn row_quant(row: &[f32]) -> RowQuant {
    let mut lo = f32::INFINITY;
    let mut hi = f32::NEG_INFINITY;
    for &x in row {
        if x.is_finite() {
            lo = lo.min(x);
            hi = hi.max(x);
        }
    }
    if !(lo.is_finite() && hi.is_finite()) {
        return RowQuant { lo: 0.0, scale: 0.0 };
    }
    let scale = (hi - lo) / 255.0;
    RowQuant { lo, scale: if scale.is_finite() { scale } else { 0.0 } }
}

/// The sanctioned float→code narrowing: the value is clamped to
/// `[0, 255]` before the cast, so the cast itself cannot truncate.
pub(crate) fn quantize_value(x: f32, q: &RowQuant) -> u8 {
    if q.scale == 0.0 {
        return 0;
    }
    let t = ((x - q.lo) / q.scale).round().clamp(0.0, 255.0);
    // splpg-lint: allow(as-cast-truncation) — clamped to [0, 255] on the line above
    t as u8
}

/// Reconstructs one element from its code.
pub(crate) fn dequantize_value(code: u8, q: &RowQuant) -> f32 {
    q.lo + f32::from(code) * q.scale
}

/// Quantizes a row, appending one code per element to `out`; returns the
/// header the decoder needs.
pub(crate) fn quantize_row(row: &[f32], out: &mut Vec<u8>) -> RowQuant {
    let q = row_quant(row);
    out.reserve(row.len());
    for &x in row {
        out.push(quantize_value(x, &q));
    }
    q
}

/// In-place int8 quantize→dequantize round trip — what the data plane
/// applies to remote feature rows so training sees exactly the values a
/// real wire transfer would deliver.
pub fn int8_round_trip(row: &mut [f32]) {
    let q = row_quant(row);
    for x in row.iter_mut() {
        *x = dequantize_value(quantize_value(*x, &q), &q);
    }
}

/// In-place f16 round trip — the binary16 analogue of
/// [`int8_round_trip`].
pub fn f16_round_trip(row: &mut [f32]) {
    for x in row.iter_mut() {
        *x = f16_to_f32(f32_to_f16(*x));
    }
}

/// On-wire bytes for `rows` feature rows of width `dim` under `codec`:
/// raw f32 is 4 bytes/element, f16 is 2, int8 is 1 plus an 8-byte
/// per-row header.
pub fn feature_wire_bytes(rows: u64, dim: u64, codec: FeatCodec) -> u64 {
    match codec {
        FeatCodec::F32 => rows * dim * 4,
        FeatCodec::F16 => rows * dim * 2,
        FeatCodec::Int8 => rows * (8 + dim),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splpg_rng::rngs::StdRng;
    use splpg_rng::{Rng, SeedableRng};

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
    fn codec_byte_round_trips_every_pair() {
        for cfg in all_configs() {
            let b = cfg.to_byte();
            assert_eq!(b >> 4, FORMAT_VERSION);
            assert_eq!(CodecConfig::from_byte(b).unwrap(), cfg);
        }
    }

    #[test]
    fn wrong_version_and_invalid_fields_are_codec_errors() {
        for bad in [0x00, 0x13, 0xF0, 0x30] {
            assert!(
                matches!(CodecConfig::from_byte(bad), Err(NetError::Codec(_))),
                "byte {bad:#04x} accepted"
            );
        }
        // Version nibble right, structure field 3 (unassigned).
        let bad = (FORMAT_VERSION << 4) | 0b11;
        assert!(matches!(CodecConfig::from_byte(bad), Err(NetError::Codec(_))));
        // Feature field 3 (unassigned).
        let bad = (FORMAT_VERSION << 4) | 0b1100;
        assert!(matches!(CodecConfig::from_byte(bad), Err(NetError::Codec(_))));
    }

    #[test]
    fn varint_round_trips_edge_values() {
        let cases = [0u64, 1, 127, 128, 300, 16_383, 16_384, u64::from(u32::MAX), u64::MAX];
        for v in cases {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            assert_eq!(buf.len(), varint_len(v), "length formula for {v}");
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn hostile_varints_are_typed_errors() {
        // Truncated mid-continuation.
        let mut pos = 0;
        assert!(matches!(read_varint(&[0x80, 0x80], &mut pos), Err(NetError::Codec(_))));
        // 10th byte overflows 64 bits.
        let mut pos = 0;
        let overflow = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f];
        assert!(matches!(read_varint(&overflow, &mut pos), Err(NetError::Codec(_))));
    }

    #[test]
    fn zigzag_is_a_bijection_on_edges() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn id_lists_round_trip_under_every_codec() {
        let mut rng = StdRng::seed_from_u64(41);
        for codec in [StructCodec::None, StructCodec::Varint, StructCodec::Rle] {
            for _ in 0..50 {
                let n = rng.gen_range(0..200usize);
                let mut ids: Vec<u64> = (0..n).map(|_| rng.gen_range(0..100_000)).collect();
                if rng.gen_range(0..2u32) == 0 {
                    ids.sort_unstable();
                }
                let mut buf = Vec::new();
                encode_ids(&ids, codec, &mut buf);
                assert_eq!(buf.len(), encoded_ids_len(&ids, codec), "{codec:?}");
                let mut pos = 0;
                assert_eq!(decode_ids(&buf, &mut pos, codec).unwrap(), ids, "{codec:?}");
                assert_eq!(pos, buf.len());
            }
        }
    }

    #[test]
    fn sorted_runs_compress_hard_under_rle() {
        let ids: Vec<u64> = (1000..2000).collect();
        let raw = encoded_ids_len(&ids, StructCodec::None);
        let rle = encoded_ids_len(&ids, StructCodec::Rle);
        let var = encoded_ids_len(&ids, StructCodec::Varint);
        assert!(rle < 16, "one run should cost a few bytes, got {rle}");
        assert!(var < raw / 2, "sorted deltas must at least halve raw, got {var} vs {raw}");
    }

    #[test]
    fn hostile_id_counts_are_rejected_before_allocation() {
        // A tiny RLE payload claiming u64::MAX ids must die on the
        // decoded-size cap, not materialize the list.
        let mut buf = Vec::new();
        write_varint(&mut buf, u64::MAX);
        let mut pos = 0;
        assert!(matches!(
            decode_ids(&buf, &mut pos, StructCodec::Rle),
            Err(NetError::Codec(_))
        ));
        // An in-cap count whose single run overshoots it is equally typed.
        let mut buf = Vec::new();
        write_varint(&mut buf, 10);
        write_varint(&mut buf, zigzag(5));
        write_varint(&mut buf, 100); // run longer than the claimed count
        let mut pos = 0;
        assert!(matches!(
            decode_ids(&buf, &mut pos, StructCodec::Rle),
            Err(NetError::Codec(_))
        ));
    }

    #[test]
    fn f16_known_values() {
        let cases: &[(f32, u16)] = &[
            (0.0, 0x0000),
            (-0.0, 0x8000),
            (1.0, 0x3c00),
            (-2.0, 0xc000),
            (65504.0, 0x7bff),
            (f32::INFINITY, 0x7c00),
            (f32::NEG_INFINITY, 0xfc00),
            (5.960_464_5e-8, 0x0001),      // smallest binary16 subnormal
            (6.103_515_6e-5, 0x0400),      // smallest binary16 normal
            (0.333_251_95, 0x3555),        // nearest half to 1/3
        ];
        for &(x, h) in cases {
            assert_eq!(f32_to_f16(x), h, "encode {x}");
            assert_eq!(f16_to_f32(h).to_bits(), x.to_bits(), "decode {h:#06x}");
        }
        assert!(f16_to_f32(f32_to_f16(f32::NAN)).is_nan());
        // Overflow saturates, ties round to even.
        assert_eq!(f32_to_f16(65520.0), 0x7c00);
        assert_eq!(f32_to_f16(65519.9), 0x7bff);
        assert_eq!(f32_to_f16(1.000_048_8), 0x3c00, "tie rounds to even mantissa");
    }

    #[test]
    fn f16_round_trip_is_within_relative_tolerance() {
        let mut rng = StdRng::seed_from_u64(43);
        for _ in 0..2000 {
            let x = rng.gen_range(-1000.0f32..1000.0);
            let y = f16_to_f32(f32_to_f16(x));
            let tol = x.abs() * 4.9e-4 + 1e-7; // 2^-11 ≈ 4.88e-4
            assert!((x - y).abs() <= tol, "{x} -> {y}");
        }
    }

    #[test]
    fn int8_round_trip_is_within_half_a_scale_step() {
        let mut rng = StdRng::seed_from_u64(47);
        for _ in 0..200 {
            let n = rng.gen_range(1..128usize);
            let row: Vec<f32> = (0..n).map(|_| rng.gen_range(-50.0f32..50.0)).collect();
            let q = row_quant(&row);
            let mut codes = Vec::new();
            let q2 = quantize_row(&row, &mut codes);
            assert_eq!(q, q2);
            let back: Vec<f32> = codes.iter().map(|&c| dequantize_value(c, &q)).collect();
            for (&x, &y) in row.iter().zip(&back) {
                let bound = q.scale * 0.5 + q.scale * 1e-3 + 1e-6;
                assert!((x - y).abs() <= bound, "|{x} - {y}| > {bound} (scale {})", q.scale);
            }
        }
    }

    #[test]
    fn int8_degenerate_rows_are_stable() {
        // Constant row: scale 0, reconstructs exactly.
        let mut row = vec![3.25f32; 9];
        int8_round_trip(&mut row);
        assert!(row.iter().all(|&x| x == 3.25));
        // Empty row: no-op.
        int8_round_trip(&mut []);
        // Non-finite elements degrade to the finite floor, finite
        // neighbours stay within bound.
        let mut row = vec![1.0, f32::NAN, 2.0];
        int8_round_trip(&mut row);
        assert!((row[0] - 1.0).abs() <= 1e-2 && (row[2] - 2.0).abs() <= 1e-2);
        assert!(row[1].is_finite(), "NaN must not survive quantization");
    }

    #[test]
    fn feature_wire_bytes_matches_the_layouts() {
        assert_eq!(feature_wire_bytes(10, 64, FeatCodec::F32), 2560);
        assert_eq!(feature_wire_bytes(10, 64, FeatCodec::F16), 1280);
        assert_eq!(feature_wire_bytes(10, 64, FeatCodec::Int8), 720);
        // The int8 feature ratio at dim 64: 2560 / 720 ≈ 3.56 ≥ 3.5. This
        // test is the repo's int8 ratio gate.
        let raw = feature_wire_bytes(10, 64, FeatCodec::F32) as f64;
        let wire = feature_wire_bytes(10, 64, FeatCodec::Int8) as f64;
        assert!(raw / wire >= 3.5);
    }
}
