//! POSIX shared-memory feature bus for co-located worker processes.
//!
//! Co-located workers pay full serialize→socket→deserialize cost for
//! feature rows that already live in the master's address space — the
//! dominant payload of the paper's communication model. This module
//! gives them a zero-copy lane instead:
//!
//! * [`ShmOwner`] — the master's handle: creates a versioned,
//!   checksummed segment under `/dev/shm` holding the full feature
//!   matrix (`rows × dim` little-endian `f32`), seals it, and unlinks
//!   it on drop;
//! * `ShmSegment` / [`ShmLane`] — a reader's validated, read-only
//!   mapping: attach verifies magic, layout version, seal flag,
//!   geometry, run identity and a checksum over the payload, then
//!   serves `&[f32]` rows straight out of the shared pages;
//! * [`ShmError`] — the typed failure taxonomy: every way an attach can
//!   go wrong (missing, torn, version-skewed, corrupt, wrong run) maps
//!   to one variant so callers can degrade to the wire path and record
//!   the reason, never crash.
//!
//! The segment name travels master→worker through the existing
//! `SPLPG_PROC_*` environment handoff (see [`crate::process`]).
//!
//! Dependency-free by construction: `shm_open(3)` is implemented as
//! `open(2)` on `/dev/shm/<name>` — exactly what glibc's wrapper does —
//! which keeps the foreign-function surface to `mmap`/`munmap`. All
//! unsafe code in the workspace lives in this module, one `// SAFETY:`
//! comment per block (`splpg-lint`'s `forbid-unsafe` rule enforces the
//! confinement, clippy's `undocumented_unsafe_blocks` the comments).
//!
//! # Segment layout (version 1)
//!
//! ```text
//! offset  size  field
//!      0     8  magic      "SPLPGFB1"
//!      8     4  layout_version (u32 LE)
//!     12     4  sealed     (u32 LE; 0 while writing, 1 once complete)
//!     16     8  rows       (u64 LE)
//!     24     8  dim        (u64 LE)
//!     32     8  identity   (u64 LE; run-identity hash, see [`identity_hash`])
//!     40     8  checksum   (u64 LE; FNV-1a over the payload bytes)
//!     48    16  reserved (zero)
//!     64     —  payload: rows × dim f32 LE, row-major
//! ```
//!
//! `sealed` is written last: a reader that maps a half-written segment
//! sees `sealed == 0` and reports [`ShmError::Torn`] instead of reading
//! garbage. The checksum catches payload corruption after sealing.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// First 8 bytes of every feature-bus segment.
pub(crate) const SEGMENT_MAGIC: [u8; 8] = *b"SPLPGFB1";

/// Layout version this build writes and accepts.
pub(crate) const LAYOUT_VERSION: u32 = 1;

/// Byte offset of the payload (and total header size).
pub(crate) const HEADER_LEN: usize = 64;

const OFF_MAGIC: usize = 0;
const OFF_VERSION: usize = 8;
const OFF_SEALED: usize = 12;
const OFF_ROWS: usize = 16;
const OFF_DIM: usize = 24;
const OFF_IDENTITY: usize = 32;
const OFF_CHECKSUM: usize = 40;

/// Everything that can go wrong creating or attaching a segment. Every
/// variant is a *recoverable* condition: the caller falls back to the
/// wire path and records the error in its net report.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ShmError {
    /// The host has no usable shared-memory filesystem, or the segment
    /// file could not be created/opened/mapped.
    Unavailable(String),
    /// The attached file does not start with `SEGMENT_MAGIC`.
    BadMagic,
    /// The segment was written by a different layout version.
    Version {
        /// Version found in the segment header.
        found: u32,
        /// Version this build speaks.
        expect: u32,
    },
    /// The seal flag is unset: the writer died (or is still) mid-write.
    Torn,
    /// Header geometry disagrees with what the reader expects, or the
    /// file is too small to hold what the header claims.
    Geometry(String),
    /// The payload checksum does not match the sealed header.
    Checksum {
        /// Checksum recorded in the header.
        stored: u64,
        /// Checksum recomputed over the payload.
        computed: u64,
    },
    /// The run-identity hash does not match: the segment belongs to a
    /// different training run.
    Identity {
        /// Identity recorded in the header.
        stored: u64,
        /// Identity the reader expected.
        expect: u64,
    },
}

impl std::fmt::Display for ShmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShmError::Unavailable(msg) => write!(f, "shared memory unavailable: {msg}"),
            ShmError::BadMagic => write!(f, "segment lacks the SPLPGFB1 magic"),
            ShmError::Version { found, expect } => {
                write!(f, "segment layout version {found}; this build speaks {expect}")
            }
            ShmError::Torn => write!(f, "segment is unsealed (torn or in-progress write)"),
            ShmError::Geometry(msg) => write!(f, "segment geometry mismatch: {msg}"),
            ShmError::Checksum { stored, computed } => {
                write!(f, "payload checksum {computed:#018x} != sealed {stored:#018x}")
            }
            ShmError::Identity { stored, expect } => {
                write!(f, "segment identity {stored:#018x} != expected {expect:#018x}")
            }
        }
    }
}

impl std::error::Error for ShmError {}

/// FNV-1a over `bytes` — the segment payload checksum. Deterministic,
/// dependency-free, and plenty to catch torn or flipped pages.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Hashes the run parameters that make a segment *this run's* segment.
/// Attaching rejects a segment whose identity differs — a stale file
/// from a crashed earlier run must fall back to the wire, not feed the
/// model someone else's features.
pub fn identity_hash(parts: &[u64]) -> u64 {
    let mut bytes = Vec::with_capacity(parts.len() * 8);
    for p in parts {
        bytes.extend_from_slice(&p.to_le_bytes());
    }
    fnv1a(&bytes)
}

/// Directory backing POSIX shared memory on Linux.
fn shm_dir() -> PathBuf {
    PathBuf::from("/dev/shm")
}

fn segment_path(name: &str) -> PathBuf {
    shm_dir().join(name)
}

/// Whether this host can back a feature-bus segment: `/dev/shm` exists
/// and is writable. Benches and tests use this to SKIP cleanly instead
/// of failing in sandboxes without a shm filesystem.
pub fn shm_available() -> bool {
    let probe = segment_path(&format!("splpg-probe-{}", std::process::id()));
    match OpenOptions::new().write(true).create_new(true).open(&probe) {
        Ok(_) => {
            let _ = std::fs::remove_file(&probe);
            true
        }
        Err(_) => false,
    }
}

/// Process-unique counter distinguishing segments created by one
/// process (mirrors the port-file naming discipline in
/// [`crate::process`]).
static SEGMENT_SEQ: AtomicU64 = AtomicU64::new(0);

/// A collision-free segment name: pid + per-process sequence number.
pub fn segment_name(tag: &str) -> String {
    let seq = SEGMENT_SEQ.fetch_add(1, Ordering::Relaxed);
    format!("splpg-{tag}-{}-{seq}", std::process::id())
}

// ---------------------------------------------------------------------
// Raw mapping.
// ---------------------------------------------------------------------

use std::ffi::c_void;

const PROT_READ: i32 = 1;
const MAP_SHARED: i32 = 1;

extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: i32,
        flags: i32,
        fd: i32,
        offset: i64,
    ) -> *mut c_void;
    fn munmap(addr: *mut c_void, len: usize) -> i32;
}

/// A read-only `MAP_SHARED` mapping of one segment file, unmapped on
/// drop. The single place raw pages enter Rust: everything above it
/// works with bounds-checked slices derived from `ptr`/`len`.
struct Mapping {
    ptr: *mut u8,
    len: usize,
}

// SAFETY: the mapping is plain read-only memory with no thread-affine
// state, so it may move to another thread.
unsafe impl Send for Mapping {}
// SAFETY: only sealed segments are ever mapped, so every reader on every
// thread sees the same immutable bytes.
unsafe impl Sync for Mapping {}

impl Mapping {
    /// Maps `len` bytes of `file` (`MAP_SHARED`, read-only).
    fn map(file: &File, len: usize) -> Result<Mapping, ShmError> {
        use std::os::unix::io::AsRawFd;
        if len == 0 {
            return Err(ShmError::Geometry("cannot map an empty segment".to_string()));
        }
        // SAFETY: the one mmap call; the fd is open and the length is
        // nonzero (checked above), and a failure is checked below.
        let ptr = unsafe {
            mmap(std::ptr::null_mut(), len, PROT_READ, MAP_SHARED, file.as_raw_fd(), 0)
        };
        if ptr.is_null() || ptr as isize == -1 {
            return Err(ShmError::Unavailable("mmap failed".to_string()));
        }
        Ok(Mapping { ptr: ptr.cast::<u8>(), len })
    }

    /// The mapped bytes as a shared slice. Sound for sealed read-only
    /// segments (no writer exists after seal).
    fn bytes(&self) -> &[u8] {
        // SAFETY: ptr/len come from a successful mmap of exactly len bytes,
        // which stays mapped until `self` drops.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        // SAFETY: unmapping the exact region mmap returned, once.
        unsafe {
            munmap(self.ptr.cast::<c_void>(), self.len);
        }
    }
}

// ---------------------------------------------------------------------
// Feature segment: owner (writer) and attached reader.
// ---------------------------------------------------------------------

/// Geometry + identity a reader demands of a segment before trusting it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentSpec {
    /// Feature rows the segment must hold.
    pub rows: u64,
    /// Elements per row.
    pub dim: u64,
    /// Run-identity hash ([`identity_hash`]) the segment must carry.
    pub identity: u64,
}

impl SegmentSpec {
    fn payload_len(&self) -> Result<usize, ShmError> {
        self.rows
            .checked_mul(self.dim)
            .and_then(|e| e.checked_mul(4))
            .and_then(|b| usize::try_from(b).ok())
            .ok_or_else(|| ShmError::Geometry("rows × dim × 4 overflows".to_string()))
    }
}

/// The master's handle on a created segment: writes the header and
/// payload through plain file I/O (no aliasing with readers: the seal
/// flag is the last byte written), keeps the name for the env handoff,
/// and unlinks the segment when dropped.
#[derive(Debug)]
pub struct ShmOwner {
    name: String,
    path: PathBuf,
}

impl ShmOwner {
    /// Creates and seals a segment named `name` holding `data`
    /// (`spec.rows × spec.dim` f32, row-major).
    ///
    /// # Errors
    ///
    /// [`ShmError::Geometry`] when `data` disagrees with `spec`;
    /// [`ShmError::Unavailable`] when the shm filesystem refuses.
    pub fn create(name: &str, spec: &SegmentSpec, data: &[f32]) -> Result<ShmOwner, ShmError> {
        let payload_len = spec.payload_len()?;
        if data.len() * 4 != payload_len {
            return Err(ShmError::Geometry(format!(
                "data holds {} elems, spec wants {}",
                data.len(),
                spec.rows * spec.dim
            )));
        }
        let path = segment_path(name);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)
            .map_err(|e| ShmError::Unavailable(format!("create {}: {e}", path.display())))?;
        let owner = ShmOwner { name: name.to_string(), path: path.clone() };

        let mut payload = Vec::with_capacity(payload_len);
        for v in data {
            payload.extend_from_slice(&v.to_le_bytes());
        }
        let mut header = [0u8; HEADER_LEN];
        header[OFF_MAGIC..OFF_MAGIC + 8].copy_from_slice(&SEGMENT_MAGIC);
        header[OFF_VERSION..OFF_VERSION + 4].copy_from_slice(&LAYOUT_VERSION.to_le_bytes());
        // sealed stays 0 until everything else is on disk.
        header[OFF_ROWS..OFF_ROWS + 8].copy_from_slice(&spec.rows.to_le_bytes());
        header[OFF_DIM..OFF_DIM + 8].copy_from_slice(&spec.dim.to_le_bytes());
        header[OFF_IDENTITY..OFF_IDENTITY + 8].copy_from_slice(&spec.identity.to_le_bytes());
        header[OFF_CHECKSUM..OFF_CHECKSUM + 8].copy_from_slice(&fnv1a(&payload).to_le_bytes());

        let write = (|| -> std::io::Result<()> {
            file.write_all(&header)?;
            file.write_all(&payload)?;
            file.flush()?;
            // Seal last: readers observing sealed == 1 are guaranteed a
            // complete header + payload underneath.
            file.seek(SeekFrom::Start(OFF_SEALED as u64))?;
            file.write_all(&1u32.to_le_bytes())?;
            file.flush()
        })();
        write.map_err(|e| ShmError::Unavailable(format!("write {}: {e}", path.display())))?;
        Ok(owner)
    }

    /// The segment name, as advertised to workers.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Flips one payload byte *after* sealing, leaving the recorded
    /// checksum stale — the deterministic corruption the torn-bus
    /// fallback tests are built on.
    ///
    /// # Errors
    ///
    /// [`ShmError::Unavailable`] when the segment file resists.
    pub fn corrupt_payload_for_test(&self) -> Result<(), ShmError> {
        let flip = |e: std::io::Error| ShmError::Unavailable(format!("corrupt: {e}"));
        let mut file =
            OpenOptions::new().read(true).write(true).open(&self.path).map_err(flip)?;
        file.seek(SeekFrom::Start(HEADER_LEN as u64)).map_err(flip)?;
        let mut b = [0u8; 1];
        file.read_exact(&mut b).map_err(flip)?;
        file.seek(SeekFrom::Start(HEADER_LEN as u64)).map_err(flip)?;
        file.write_all(&[b[0] ^ 0xff]).map_err(flip)?;
        file.flush().map_err(flip)
    }
}

impl Drop for ShmOwner {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// A validated, attached, read-only segment. Construction *is* the
/// validation: once a `ShmSegment` exists, every row read is a plain
/// bounds-checked slice over sealed shared pages.
pub(crate) struct ShmSegment {
    map: Mapping,
    rows: usize,
    dim: usize,
}

impl std::fmt::Debug for ShmSegment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShmSegment").field("rows", &self.rows).field("dim", &self.dim).finish()
    }
}

fn read_u32(bytes: &[u8], off: usize) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(&bytes[off..off + 4]);
    u32::from_le_bytes(b)
}

fn read_u64(bytes: &[u8], off: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&bytes[off..off + 8]);
    u64::from_le_bytes(b)
}

impl ShmSegment {
    /// Attaches (maps read-only and fully validates) the segment named
    /// `name` against `spec`.
    ///
    /// # Errors
    ///
    /// Every [`ShmError`] variant, one per way the segment can be
    /// untrustworthy. Callers fall back to the wire path on any of them.
    pub(crate) fn attach(name: &str, spec: &SegmentSpec) -> Result<ShmSegment, ShmError> {
        let path = segment_path(name);
        let file = File::open(&path)
            .map_err(|e| ShmError::Unavailable(format!("open {}: {e}", path.display())))?;
        let file_len = file
            .metadata()
            .map_err(|e| ShmError::Unavailable(format!("stat {}: {e}", path.display())))?
            .len();
        if file_len < HEADER_LEN as u64 {
            return Err(ShmError::Geometry(format!(
                "file is {file_len} bytes, smaller than the {HEADER_LEN}-byte header"
            )));
        }
        let payload_len = spec.payload_len()?;
        let want = HEADER_LEN as u64 + payload_len as u64;
        if file_len < want {
            return Err(ShmError::Geometry(format!(
                "file is {file_len} bytes, header claims {want}"
            )));
        }
        let map = Mapping::map(&file, HEADER_LEN + payload_len)?;
        let bytes = map.bytes();
        if bytes[OFF_MAGIC..OFF_MAGIC + 8] != SEGMENT_MAGIC {
            return Err(ShmError::BadMagic);
        }
        let version = read_u32(bytes, OFF_VERSION);
        if version != LAYOUT_VERSION {
            return Err(ShmError::Version { found: version, expect: LAYOUT_VERSION });
        }
        if read_u32(bytes, OFF_SEALED) != 1 {
            return Err(ShmError::Torn);
        }
        let (rows, dim) = (read_u64(bytes, OFF_ROWS), read_u64(bytes, OFF_DIM));
        if rows != spec.rows || dim != spec.dim {
            return Err(ShmError::Geometry(format!(
                "segment is {rows}×{dim}, reader expects {}×{}",
                spec.rows, spec.dim
            )));
        }
        let identity = read_u64(bytes, OFF_IDENTITY);
        if identity != spec.identity {
            return Err(ShmError::Identity { stored: identity, expect: spec.identity });
        }
        let stored = read_u64(bytes, OFF_CHECKSUM);
        let computed = fnv1a(&bytes[HEADER_LEN..HEADER_LEN + payload_len]);
        if stored != computed {
            return Err(ShmError::Checksum { stored, computed });
        }
        let rows = usize::try_from(rows)
            .map_err(|_| ShmError::Geometry("rows exceeds usize".to_string()))?;
        let dim = usize::try_from(dim)
            .map_err(|_| ShmError::Geometry("dim exceeds usize".to_string()))?;
        Ok(ShmSegment { map, rows, dim })
    }

    /// Feature rows held.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Elements per row.
    pub(crate) fn dim(&self) -> usize {
        self.dim
    }

    /// Row `i` as a zero-copy `f32` slice over the shared pages.
    ///
    /// # Panics
    ///
    /// When `i >= rows()` — attach already pinned the geometry, so an
    /// out-of-range row is a caller logic error, not a data fault.
    pub(crate) fn row(&self, i: usize) -> &[f32] {
        assert!(i < self.rows, "row {i} out of range ({} rows)", self.rows);
        let start = HEADER_LEN + i * self.dim * 4;
        let bytes = &self.map.bytes()[start..start + self.dim * 4];
        // SAFETY: reinterpreting validated, sealed bytes as f32. The
        // payload starts 64 bytes into a page-aligned mapping, so every row
        // is 4-byte aligned, and `bytes` holds exactly `dim` floats.
        unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<f32>(), self.dim) }
    }
}

/// A cheaply cloneable handle on an attached segment — what the worker
/// views hold and consult before issuing a wire fetch.
#[derive(Debug, Clone)]
pub struct ShmLane {
    segment: Arc<ShmSegment>,
}

impl ShmLane {
    /// Attaches and wraps the segment named `name`.
    ///
    /// # Errors
    ///
    /// Propagates `ShmSegment::attach` failures.
    pub fn attach(name: &str, spec: &SegmentSpec) -> Result<ShmLane, ShmError> {
        Ok(ShmLane { segment: Arc::new(ShmSegment::attach(name, spec)?) })
    }

    /// Zero-copy row read; see `ShmSegment::row`.
    pub fn row(&self, i: usize) -> &[f32] {
        self.segment.row(i)
    }

    /// Feature rows held.
    pub fn rows(&self) -> usize {
        self.segment.rows()
    }

    /// Elements per row.
    pub fn dim(&self) -> usize {
        self.segment.dim()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn skip() -> bool {
        if shm_available() {
            false
        } else {
            eprintln!("skipping: no usable /dev/shm on this host");
            true
        }
    }

    fn spec(rows: u64, dim: u64) -> SegmentSpec {
        SegmentSpec { rows, dim, identity: identity_hash(&[1, 2, rows, dim]) }
    }

    fn sample_data(rows: usize, dim: usize) -> Vec<f32> {
        (0..rows * dim).map(|i| i as f32 * 0.25 - 3.0).collect()
    }

    #[test]
    fn segment_round_trips_rows_bit_exactly() {
        if skip() {
            return;
        }
        let (rows, dim) = (13, 7);
        let data = sample_data(rows, dim);
        let spec = spec(rows as u64, dim as u64);
        let owner = ShmOwner::create(&segment_name("t-rt"), &spec, &data).expect("create");
        let lane = ShmLane::attach(owner.name(), &spec).expect("attach");
        assert_eq!(lane.rows(), rows);
        assert_eq!(lane.dim(), dim);
        for r in 0..rows {
            let got = lane.row(r);
            let want = &data[r * dim..(r + 1) * dim];
            assert_eq!(got, want, "row {r}");
            // Bit-exactness, not just float equality.
            for (g, w) in got.iter().zip(want) {
                assert_eq!(g.to_bits(), w.to_bits());
            }
        }
    }

    #[test]
    fn attach_missing_segment_is_unavailable() {
        let err = ShmLane::attach("splpg-definitely-missing-0", &spec(1, 1)).expect_err("missing");
        assert!(matches!(err, ShmError::Unavailable(_)), "{err}");
    }

    #[test]
    fn attach_rejects_torn_bad_magic_version_geometry_and_identity() {
        if skip() {
            return;
        }
        let spec4 = spec(4, 3);
        let data = sample_data(4, 3);
        let name = segment_name("t-rej");
        let owner = ShmOwner::create(&name, &spec4, &data).expect("create");
        let path = segment_path(owner.name());
        let pristine = std::fs::read(&path).expect("read");

        let rewrite = |mutate: &dyn Fn(&mut Vec<u8>)| {
            let mut bytes = pristine.clone();
            mutate(&mut bytes);
            std::fs::write(&path, &bytes).expect("rewrite");
        };

        rewrite(&|b| b[OFF_SEALED] = 0);
        assert_eq!(ShmLane::attach(owner.name(), &spec4).expect_err("torn"), ShmError::Torn);

        rewrite(&|b| b[0] ^= 0xff);
        assert_eq!(
            ShmLane::attach(owner.name(), &spec4).expect_err("magic"),
            ShmError::BadMagic
        );

        rewrite(&|b| b[OFF_VERSION] = LAYOUT_VERSION as u8 + 1);
        assert!(matches!(
            ShmLane::attach(owner.name(), &spec4).expect_err("version"),
            ShmError::Version { expect: LAYOUT_VERSION, .. }
        ));

        rewrite(&|_| {});
        let wrong_geom = SegmentSpec { rows: 5, ..spec4 };
        assert!(matches!(
            ShmLane::attach(owner.name(), &wrong_geom).expect_err("geometry"),
            ShmError::Geometry(_)
        ));
        let wrong_id = SegmentSpec { identity: spec4.identity ^ 1, ..spec4 };
        assert!(matches!(
            ShmLane::attach(owner.name(), &wrong_id).expect_err("identity"),
            ShmError::Identity { .. }
        ));

        // And the pristine bytes still attach.
        assert!(ShmLane::attach(owner.name(), &spec4).is_ok());
    }

    #[test]
    fn checksum_catches_torn_payload_writes() {
        if skip() {
            return;
        }
        let s = spec(8, 5);
        let owner =
            ShmOwner::create(&segment_name("t-sum"), &s, &sample_data(8, 5)).expect("create");
        owner.corrupt_payload_for_test().expect("corrupt");
        let err = ShmLane::attach(owner.name(), &s).expect_err("checksum");
        assert!(matches!(err, ShmError::Checksum { .. }), "{err}");
    }

    #[test]
    fn property_layout_roundtrip_across_geometries() {
        if skip() {
            return;
        }
        // A deterministic sweep standing in for a generator: odd dims,
        // single-row, single-column and empty-dim-free shapes.
        for (rows, dim) in [(1usize, 1usize), (1, 17), (64, 1), (3, 33), (40, 16)] {
            let data = sample_data(rows, dim);
            let s = spec(rows as u64, dim as u64);
            let owner = ShmOwner::create(&segment_name("t-prop"), &s, &data).expect("create");
            let lane = ShmLane::attach(owner.name(), &s).expect("attach");
            let mut flat = Vec::with_capacity(rows * dim);
            for r in 0..rows {
                flat.extend_from_slice(lane.row(r));
            }
            assert_eq!(flat, data, "{rows}×{dim}");
        }
    }

    #[test]
    fn owner_drop_unlinks_segment() {
        if skip() {
            return;
        }
        let s = spec(2, 2);
        let name;
        {
            let owner =
                ShmOwner::create(&segment_name("t-drop"), &s, &sample_data(2, 2)).expect("create");
            name = owner.name().to_string();
            assert!(segment_path(&name).exists());
        }
        assert!(!segment_path(&name).exists(), "owner drop must unlink");
    }
}
