//! Versioned, checksummed snapshot codec for checkpoint/restore.
//!
//! The streaming pipeline targets multi-hour traces (16M+ slices); a
//! crash, OOM-kill or node preemption must not discard the run. Every
//! stateful stage (RNG, circulant streams, fluid queue, arrival
//! cursors) exports a plain state struct, and this module defines the
//! *wire format* those states are carried in:
//!
//! ```text
//! header   magic "VBRSNAP\0" · codec version u32 · param-hash u64 · seq u64
//! section  [tag u32][len u64][payload][crc32(payload) u32]   (repeated)
//! trailer  crc32(everything before the trailer) u32
//! ```
//!
//! Design rules, in order of importance:
//!
//! 1. **Hostile bytes are a typed error, never a panic.** Every read is
//!    bounds-checked ([`SnapshotError::Truncated`]) and every payload is
//!    CRC-guarded, so torn writes, truncation and bit flips surface as
//!    [`SnapshotError`] values the caller can degrade on.
//! 2. **Mismatched parameters are detected before any state is used.**
//!    The header carries a caller-computed [`ParamHasher`] digest of the
//!    full generating configuration (H, block, overlap, marginal, queue
//!    geometry, seed). Restoring a snapshot against a different
//!    configuration is [`SnapshotError::ParamHashMismatch`], not silent
//!    garbage.
//! 3. **Bit-exact round trips.** Floats travel as raw IEEE-754 bits
//!    (`to_bits`/`from_bits`), so a restored state resumes the exact
//!    arithmetic of the interrupted run — the resume bit-identity
//!    contract of DESIGN.md §13 depends on it.

use std::fmt;

/// Codec version written into (and required from) every snapshot.
///
/// History: v1 was the original pipeline codec; v2 appended the tenant
/// identity to every stream-state section (and eligible-slot accounting
/// to fleet metadata) for shard migration. Bumping here is what turns a
/// stale on-disk snapshot into a typed [`SnapshotError::
/// UnsupportedVersion`] refusal instead of a decode error that recovery
/// would misread as corruption. The fleet versions its own section
/// layout through its parameter hash (`vbr-fleet/v2` made the snapshot
/// width-independent), so a fleet layout change leaves stream
/// checkpoints readable.
pub const CODEC_VERSION: u32 = 2;

/// Leading magic bytes of every snapshot file.
pub const MAGIC: [u8; 8] = *b"VBRSNAP\0";

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected) — table-driven, built at compile time.
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE) of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Parameter hashing
// ---------------------------------------------------------------------------

/// FNV-1a 64-bit accumulator over the generating configuration.
///
/// Not cryptographic — it guards against *accidental* config mismatch
/// (restoring an H=0.8 snapshot into an H=0.9 run), the failure mode
/// that actually occurs in practice. Floats are hashed by bit pattern,
/// so `0.0` and `-0.0` (and every NaN payload) are distinct.
#[derive(Debug, Clone)]
pub struct ParamHasher {
    h: u64,
}

impl Default for ParamHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl ParamHasher {
    /// Starts a fresh hash (FNV-1a offset basis).
    pub fn new() -> Self {
        ParamHasher { h: 0xcbf2_9ce4_8422_2325 }
    }

    /// Mixes raw bytes.
    pub fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.h ^= b as u64;
            self.h = self.h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self
    }

    /// Mixes a u64 (little-endian bytes).
    pub fn u64(self, v: u64) -> Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Mixes a usize (as u64, so 32/64-bit hosts agree).
    pub fn usize(self, v: usize) -> Self {
        self.u64(v as u64)
    }

    /// Mixes an f64 by IEEE-754 bit pattern.
    pub fn f64(self, v: f64) -> Self {
        self.u64(v.to_bits())
    }

    /// Mixes a string (length-prefixed, so `"ab","c"` ≠ `"a","bc"`).
    pub fn str(self, s: &str) -> Self {
        self.usize(s.len()).bytes(s.as_bytes())
    }

    /// The accumulated 64-bit digest.
    pub fn finish(self) -> u64 {
        self.h
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why a snapshot could not be decoded. Every variant is a *typed*
/// refusal — hostile bytes never panic and never restore partial state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The byte stream ended before a declared field or section.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes available.
        got: usize,
    },
    /// The leading magic bytes are wrong — not a snapshot at all.
    BadMagic,
    /// The snapshot was written by an unknown codec version.
    UnsupportedVersion {
        /// Version found in the header.
        got: u32,
        /// Version this build supports.
        supported: u32,
    },
    /// The snapshot was written under a different generating
    /// configuration (H, block, overlap, marginal, queue, seed…).
    ParamHashMismatch {
        /// Hash stored in the snapshot header.
        stored: u64,
        /// Hash of the configuration attempting the restore.
        expected: u64,
    },
    /// A CRC failed: the bytes were corrupted in flight or at rest.
    ChecksumMismatch {
        /// Which guard failed (`"file"` or the section tag name).
        what: &'static str,
        /// CRC stored in the snapshot.
        stored: u32,
        /// CRC computed over the received bytes.
        computed: u32,
    },
    /// The next section's tag is not the one the decoder requires.
    WrongSection {
        /// Tag the decoder expected.
        expected: u32,
        /// Tag found in the stream.
        got: u32,
    },
    /// Structurally valid bytes carrying a semantically invalid state
    /// (e.g. a buffer position past the buffer end, a non-finite
    /// backlog, an all-zero RNG state).
    Invalid {
        /// What was wrong.
        what: &'static str,
    },
    /// An I/O failure while reading or writing the snapshot file.
    Io {
        /// Rendered `std::io::Error`.
        msg: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated { needed, got } => {
                write!(f, "snapshot truncated: needed {needed} bytes, got {got}")
            }
            SnapshotError::BadMagic => write!(f, "snapshot magic bytes missing or wrong"),
            SnapshotError::UnsupportedVersion { got, supported } => {
                write!(f, "snapshot codec version {got} unsupported (this build reads {supported})")
            }
            SnapshotError::ParamHashMismatch { stored, expected } => write!(
                f,
                "snapshot parameter hash {stored:016x} does not match the \
                 restoring configuration {expected:016x}"
            ),
            SnapshotError::ChecksumMismatch { what, stored, computed } => write!(
                f,
                "snapshot {what} checksum mismatch: stored {stored:08x}, computed {computed:08x}"
            ),
            SnapshotError::WrongSection { expected, got } => {
                write!(f, "snapshot section tag {got:08x} where {expected:08x} was required")
            }
            SnapshotError::Invalid { what } => write!(f, "snapshot state invalid: {what}"),
            SnapshotError::Io { msg } => write!(f, "snapshot i/o failure: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io { msg: e.to_string() }
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Builds a snapshot byte stream: header, tagged sections, trailer CRC.
#[derive(Debug)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl SnapshotWriter {
    /// Starts a snapshot under a parameter hash and a caller-chosen
    /// sequence number (monotone per checkpoint stream; lets a store
    /// pick the newest of several generations).
    pub fn new(param_hash: u64, seq: u64) -> Self {
        let mut buf = Vec::with_capacity(256);
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&CODEC_VERSION.to_le_bytes());
        buf.extend_from_slice(&param_hash.to_le_bytes());
        buf.extend_from_slice(&seq.to_le_bytes());
        SnapshotWriter { buf }
    }

    /// Appends one tagged section; `build` fills its payload.
    ///
    /// The payload is written straight into the snapshot buffer behind
    /// a length placeholder that is patched once `build` returns, so a
    /// multi-MiB section is never held twice.
    pub fn section(&mut self, tag: u32, build: impl FnOnce(&mut Payload)) {
        self.buf.extend_from_slice(&tag.to_le_bytes());
        let len_at = self.buf.len();
        self.buf.extend_from_slice(&0u64.to_le_bytes());
        let mut p = Payload { buf: std::mem::take(&mut self.buf) };
        build(&mut p);
        self.buf = p.buf;
        let payload = len_at + 8;
        let len = (self.buf.len() - payload) as u64;
        self.buf[len_at..payload].copy_from_slice(&len.to_le_bytes());
        let crc = crc32(&self.buf[payload..]);
        self.buf.extend_from_slice(&crc.to_le_bytes());
    }

    /// Seals the snapshot: appends the whole-file CRC and returns the
    /// bytes.
    pub fn finish(mut self) -> Vec<u8> {
        let crc = crc32(&self.buf);
        self.buf.extend_from_slice(&crc.to_le_bytes());
        self.buf
    }
}

/// Payload accumulator for one section. All integers are little-endian;
/// floats travel as raw bits so round trips are bit-exact.
#[derive(Debug)]
pub struct Payload {
    buf: Vec<u8>,
}

impl Payload {
    /// Appends a u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a usize as u64.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an f64 by bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a bool as one byte (0/1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Appends a length-prefixed f64 slice by bit pattern.
    pub fn put_f64_slice(&mut self, xs: &[f64]) {
        self.put_usize(xs.len());
        for &x in xs {
            self.put_f64(x);
        }
    }

    /// Appends a length-prefixed u64 slice.
    pub fn put_u64_slice(&mut self, xs: &[u64]) {
        self.put_usize(xs.len());
        for &x in xs {
            self.put_u64(x);
        }
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Decodes a snapshot byte stream, verifying magic, version, the
/// whole-file CRC and (per access) every section CRC.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    /// Section region (header and trailer stripped).
    body: &'a [u8],
    /// Read offset into `body`.
    off: usize,
    param_hash: u64,
    seq: u64,
}

/// Header length: magic + version + param hash + seq.
const HEADER_LEN: usize = 8 + 4 + 8 + 8;

fn take<'a>(bytes: &'a [u8], off: &mut usize, n: usize) -> Result<&'a [u8], SnapshotError> {
    let end = off.checked_add(n).ok_or(SnapshotError::Invalid { what: "length overflow" })?;
    if end > bytes.len() {
        return Err(SnapshotError::Truncated { needed: end, got: bytes.len() });
    }
    let s = &bytes[*off..end];
    *off = end;
    Ok(s)
}

fn take_u32(bytes: &[u8], off: &mut usize) -> Result<u32, SnapshotError> {
    Ok(u32::from_le_bytes(take(bytes, off, 4)?.try_into().unwrap()))
}

fn take_u64(bytes: &[u8], off: &mut usize) -> Result<u64, SnapshotError> {
    Ok(u64::from_le_bytes(take(bytes, off, 8)?.try_into().unwrap()))
}

impl<'a> SnapshotReader<'a> {
    /// Parses and verifies the envelope: magic, codec version, and the
    /// whole-file CRC (so truncation and bit flips anywhere are caught
    /// before any section is interpreted).
    pub fn open(bytes: &'a [u8]) -> Result<Self, SnapshotError> {
        let mut off = 0usize;
        let magic = take(bytes, &mut off, 8)?;
        if magic != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = take_u32(bytes, &mut off)?;
        if version != CODEC_VERSION {
            return Err(SnapshotError::UnsupportedVersion {
                got: version,
                supported: CODEC_VERSION,
            });
        }
        let param_hash = take_u64(bytes, &mut off)?;
        let seq = take_u64(bytes, &mut off)?;
        if bytes.len() < HEADER_LEN + 4 {
            return Err(SnapshotError::Truncated { needed: HEADER_LEN + 4, got: bytes.len() });
        }
        let body_end = bytes.len() - 4;
        let stored = u32::from_le_bytes(bytes[body_end..].try_into().unwrap());
        let computed = crc32(&bytes[..body_end]);
        if stored != computed {
            return Err(SnapshotError::ChecksumMismatch { what: "file", stored, computed });
        }
        Ok(SnapshotReader { body: &bytes[HEADER_LEN..body_end], off: 0, param_hash, seq })
    }

    /// Parameter hash stored in the header.
    pub fn param_hash(&self) -> u64 {
        self.param_hash
    }

    /// Sequence number stored in the header.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Rejects the snapshot unless it was written under `expected` —
    /// the typed guard against restoring into a mismatched
    /// configuration.
    pub fn require_param_hash(&self, expected: u64) -> Result<(), SnapshotError> {
        if self.param_hash == expected {
            Ok(())
        } else {
            Err(SnapshotError::ParamHashMismatch { stored: self.param_hash, expected })
        }
    }

    /// Reads the next section, requiring its tag to be `tag` and its
    /// CRC to verify. Sections are read in writing order.
    pub fn section(&mut self, tag: u32, name: &'static str) -> Result<Section<'a>, SnapshotError> {
        let got = take_u32(self.body, &mut self.off)?;
        if got != tag {
            return Err(SnapshotError::WrongSection { expected: tag, got });
        }
        let len = take_u64(self.body, &mut self.off)? as usize;
        let data = take(self.body, &mut self.off, len)?;
        let stored = take_u32(self.body, &mut self.off)?;
        let computed = crc32(data);
        if stored != computed {
            return Err(SnapshotError::ChecksumMismatch { what: name, stored, computed });
        }
        Ok(Section { data, off: 0 })
    }
}

/// One verified section's payload, read sequentially.
#[derive(Debug)]
pub struct Section<'a> {
    data: &'a [u8],
    off: usize,
}

impl Section<'_> {
    /// Reads a u64.
    pub fn get_u64(&mut self) -> Result<u64, SnapshotError> {
        take_u64(self.data, &mut self.off)
    }

    /// Reads a usize (stored as u64; rejects values over `usize::MAX`).
    pub fn get_usize(&mut self) -> Result<usize, SnapshotError> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| SnapshotError::Invalid { what: "usize overflow" })
    }

    /// Reads an f64 by bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a bool; any byte other than 0/1 is a typed refusal.
    pub fn get_bool(&mut self) -> Result<bool, SnapshotError> {
        match take(self.data, &mut self.off, 1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Invalid { what: "bool byte not 0/1" }),
        }
    }

    /// Reads a length-prefixed f64 vector. The declared length is
    /// validated against the bytes actually present *before* any
    /// allocation, so a hostile length cannot balloon memory.
    pub fn get_f64_vec(&mut self) -> Result<Vec<f64>, SnapshotError> {
        let n = self.get_usize()?;
        let bytes_needed =
            n.checked_mul(8).ok_or(SnapshotError::Invalid { what: "length overflow" })?;
        if self.off + bytes_needed > self.data.len() {
            return Err(SnapshotError::Truncated {
                needed: self.off + bytes_needed,
                got: self.data.len(),
            });
        }
        (0..n).map(|_| self.get_f64()).collect()
    }

    /// Reads a length-prefixed u64 vector (bounded like
    /// [`get_f64_vec`](Self::get_f64_vec)).
    pub fn get_u64_vec(&mut self) -> Result<Vec<u64>, SnapshotError> {
        let n = self.get_usize()?;
        let bytes_needed =
            n.checked_mul(8).ok_or(SnapshotError::Invalid { what: "length overflow" })?;
        if self.off + bytes_needed > self.data.len() {
            return Err(SnapshotError::Truncated {
                needed: self.off + bytes_needed,
                got: self.data.len(),
            });
        }
        (0..n).map(|_| self.get_u64()).collect()
    }

    /// Requires the whole payload to have been consumed — trailing
    /// bytes mean a schema mismatch, which must not pass silently.
    pub fn finish(self) -> Result<(), SnapshotError> {
        if self.off == self.data.len() {
            Ok(())
        } else {
            Err(SnapshotError::Invalid { what: "trailing bytes in section" })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TAG_A: u32 = 0x6161_6161;
    const TAG_B: u32 = 0x6262_6262;

    fn sample_snapshot() -> Vec<u8> {
        let mut w = SnapshotWriter::new(0xDEAD_BEEF_CAFE_F00D, 7);
        w.section(TAG_A, |p| {
            p.put_u64(42);
            p.put_f64(-0.0);
            p.put_bool(true);
            p.put_f64_slice(&[1.5, f64::MIN_POSITIVE, -3.25]);
        });
        w.section(TAG_B, |p| {
            p.put_u64_slice(&[u64::MAX, 0, 1]);
        });
        w.finish()
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let bytes = sample_snapshot();
        let mut r = SnapshotReader::open(&bytes).unwrap();
        assert_eq!(r.param_hash(), 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(r.seq(), 7);
        r.require_param_hash(0xDEAD_BEEF_CAFE_F00D).unwrap();
        let mut a = r.section(TAG_A, "a").unwrap();
        assert_eq!(a.get_u64().unwrap(), 42);
        assert_eq!(a.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(a.get_bool().unwrap());
        let xs = a.get_f64_vec().unwrap();
        assert_eq!(
            xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            [1.5, f64::MIN_POSITIVE, -3.25].iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
        a.finish().unwrap();
        let mut b = r.section(TAG_B, "b").unwrap();
        assert_eq!(b.get_u64_vec().unwrap(), vec![u64::MAX, 0, 1]);
        b.finish().unwrap();
    }

    #[test]
    fn writer_layout_matches_hand_assembled_bytes() {
        // Golden layout: header, then per section `tag LE | len u64 LE |
        // payload | crc32(payload) LE`, then the whole-file CRC.
        let section = |out: &mut Vec<u8>, tag: u32, payload: &[u8]| {
            out.extend_from_slice(&tag.to_le_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(payload);
            out.extend_from_slice(&crc32(payload).to_le_bytes());
        };
        let mut a = Vec::new();
        a.extend_from_slice(&42u64.to_le_bytes());
        a.extend_from_slice(&(-0.0f64).to_bits().to_le_bytes());
        a.push(1);
        a.extend_from_slice(&3u64.to_le_bytes());
        for x in [1.5, f64::MIN_POSITIVE, -3.25] {
            a.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        let mut b = Vec::new();
        b.extend_from_slice(&3u64.to_le_bytes());
        for x in [u64::MAX, 0, 1] {
            b.extend_from_slice(&x.to_le_bytes());
        }
        let mut want = Vec::new();
        want.extend_from_slice(b"VBRSNAP\0");
        want.extend_from_slice(&2u32.to_le_bytes());
        want.extend_from_slice(&0xDEAD_BEEF_CAFE_F00Du64.to_le_bytes());
        want.extend_from_slice(&7u64.to_le_bytes());
        section(&mut want, TAG_A, &a);
        section(&mut want, TAG_B, &b);
        let crc = crc32(&want);
        want.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(sample_snapshot(), want);

        // An empty payload is a zero length and the CRC of no bytes.
        let mut w = SnapshotWriter::new(1, 2);
        w.section(TAG_B, |_| {});
        let mut want = Vec::new();
        want.extend_from_slice(b"VBRSNAP\0");
        want.extend_from_slice(&2u32.to_le_bytes());
        want.extend_from_slice(&1u64.to_le_bytes());
        want.extend_from_slice(&2u64.to_le_bytes());
        section(&mut want, TAG_B, &[]);
        let crc = crc32(&want);
        want.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(w.finish(), want);
    }

    #[test]
    fn param_hash_mismatch_is_typed() {
        let bytes = sample_snapshot();
        let r = SnapshotReader::open(&bytes).unwrap();
        assert_eq!(
            r.require_param_hash(1),
            Err(SnapshotError::ParamHashMismatch {
                stored: 0xDEAD_BEEF_CAFE_F00D,
                expected: 1
            })
        );
    }

    #[test]
    fn every_truncation_point_is_a_typed_error() {
        let bytes = sample_snapshot();
        for n in 0..bytes.len() {
            let r = SnapshotReader::open(&bytes[..n]);
            assert!(r.is_err(), "truncation to {n} bytes must fail open()");
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let good = sample_snapshot();
        for byte in 0..good.len() {
            let mut bad = good.clone();
            bad[byte] ^= 0x10;
            // Either the envelope rejects it, or a section/consume step
            // does; in no case may the full decode succeed silently.
            let survived = (|| -> Result<(), SnapshotError> {
                let mut r = SnapshotReader::open(&bad)?;
                r.require_param_hash(0xDEAD_BEEF_CAFE_F00D)?;
                let mut a = r.section(TAG_A, "a")?;
                a.get_u64()?;
                a.get_f64()?;
                a.get_bool()?;
                a.get_f64_vec()?;
                a.finish()?;
                let mut b = r.section(TAG_B, "b")?;
                b.get_u64_vec()?;
                b.finish()?;
                Ok(())
            })();
            assert!(survived.is_err(), "bit flip in byte {byte} decoded silently");
        }
    }

    #[test]
    fn wrong_magic_version_and_sections_are_typed() {
        let good = sample_snapshot();
        let mut bad = good.clone();
        bad[0] = b'X';
        assert_eq!(SnapshotReader::open(&bad).unwrap_err(), SnapshotError::BadMagic);

        // Version bump (file CRC recomputed so only the version differs).
        let mut w = good.clone();
        w[8] = 99;
        let end = w.len() - 4;
        let crc = crc32(&w[..end]).to_le_bytes();
        w[end..].copy_from_slice(&crc);
        assert!(matches!(
            SnapshotReader::open(&w).unwrap_err(),
            SnapshotError::UnsupportedVersion { got: 99, .. }
        ));

        let mut r = SnapshotReader::open(&good).unwrap();
        assert!(matches!(
            r.section(TAG_B, "b").unwrap_err(),
            SnapshotError::WrongSection { expected: TAG_B, got: TAG_A }
        ));
    }

    #[test]
    fn hostile_vector_length_cannot_balloon_memory() {
        let mut w = SnapshotWriter::new(0, 0);
        w.section(TAG_A, |p| {
            p.put_u64(u64::MAX); // declared length, no elements follow
        });
        let bytes = w.finish();
        let mut r = SnapshotReader::open(&bytes).unwrap();
        let mut s = r.section(TAG_A, "a").unwrap();
        assert!(s.get_f64_vec().is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut w = SnapshotWriter::new(0, 0);
        w.section(TAG_A, |p| p.put_u64(1));
        let bytes = w.finish();
        let mut r = SnapshotReader::open(&bytes).unwrap();
        let s = r.section(TAG_A, "a").unwrap();
        assert_eq!(
            s.finish().unwrap_err(),
            SnapshotError::Invalid { what: "trailing bytes in section" }
        );
    }

    #[test]
    fn param_hasher_is_order_and_boundary_sensitive() {
        let a = ParamHasher::new().str("ab").str("c").finish();
        let b = ParamHasher::new().str("a").str("bc").finish();
        assert_ne!(a, b);
        let c = ParamHasher::new().f64(0.8).u64(1).finish();
        let d = ParamHasher::new().u64(1).f64(0.8).finish();
        assert_ne!(c, d);
        assert_ne!(
            ParamHasher::new().f64(0.0).finish(),
            ParamHasher::new().f64(-0.0).finish()
        );
    }

    #[test]
    fn crc32_known_vector() {
        // The classic IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
