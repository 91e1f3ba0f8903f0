//! Versioned, checksummed binary snapshots of simulator state.
//!
//! The format is deliberately small and dependency-free:
//!
//! * a fixed **frame** (magic, format version, configuration fingerprint,
//!   simulation cycle, payload length, FNV-1a checksum) wrapping
//! * an opaque **payload** produced by the components themselves through
//!   the [`Writer`]/[`Reader`] byte-level codec and the [`Snapshot`]
//!   trait.
//!
//! All integers are little-endian. Containers are length-prefixed with a
//! `u64`; the reader refuses any length prefix larger than the number of
//! bytes remaining, so a corrupted or malicious count can never cause an
//! allocation larger than the file itself. Component boundaries are
//! marked with `u32` tags so a drifted encoder/decoder pair fails with
//! [`CheckpointError::BadTag`] at the first misaligned component instead
//! of silently misreading state.
//!
//! Compatibility policy: the format version is bumped on ANY layout
//! change; there is no cross-version migration. A checkpoint is only
//! loadable by the binary revision that wrote it, into a simulator built
//! from the identical configuration (enforced by the configuration
//! fingerprint in the frame). See DESIGN.md §12.

use std::collections::VecDeque;
use std::io::Write as _;
use std::path::Path;

/// Magic bytes at the start of every checkpoint file.
pub const MAGIC: [u8; 8] = *b"SECMCKPT";

/// Current checkpoint format version. Bump on any layout change.
pub const FORMAT_VERSION: u32 = 3;

/// FNV-1a offset basis (matches the fingerprint hash used by the bench
/// harness so one hash implementation serves the whole workspace).
const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a over a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

/// Continues the FNV-1a hash `hash` over `bytes`:
/// `fnv1a_extend(fnv1a(a), b) == fnv1a(a ++ b)`, so a section written
/// piece by piece is hashed from `fnv1a(&[])` as its pieces go out.
pub fn fnv1a_extend(hash: u64, bytes: &[u8]) -> u64 {
    let mut h = hash;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Maps a signed value onto an unsigned one so small magnitudes stay
/// small under varint coding: 0, -1, 1, -2, 2 → 0, 1, 2, 3, 4.
pub fn zigzag(v: i64) -> u64 {
    ((v as u64) << 1) ^ ((v >> 63) as u64)
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Why a checkpoint could not be decoded or written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The data ended before a complete value could be read.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes that were available.
        available: usize,
    },
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The format version does not match [`FORMAT_VERSION`].
    BadVersion {
        /// Version found in the frame.
        found: u32,
        /// Version this binary understands.
        expected: u32,
    },
    /// The frame checksum does not match its contents.
    BadChecksum {
        /// Checksum stored in the frame.
        stored: u64,
        /// Checksum computed over the frame contents.
        computed: u64,
    },
    /// A component boundary tag was wrong (encoder/decoder drift or
    /// corruption inside the payload).
    BadTag {
        /// Tag the decoder expected.
        expected: u32,
        /// Tag found in the stream.
        found: u32,
    },
    /// A container length prefix exceeds the bytes remaining in the
    /// payload (corruption; refusing to allocate).
    CountTooLarge {
        /// The length prefix read.
        count: u64,
        /// Bytes remaining in the stream.
        remaining: usize,
    },
    /// The checkpoint was written by a simulator with a different
    /// configuration (or kernel) than the one restoring it.
    ConfigMismatch {
        /// Fingerprint stored in the frame.
        stored: u64,
        /// Fingerprint of the restoring simulator.
        expected: u64,
    },
    /// A decoded value violates a structural invariant of the component
    /// restoring it (e.g. a cache geometry mismatch).
    Malformed(String),
    /// An I/O failure while reading or writing a checkpoint file.
    Io(String),
}

impl core::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CheckpointError::Truncated { needed, available } => {
                write!(f, "checkpoint truncated: needed {needed} bytes, {available} available")
            }
            CheckpointError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            CheckpointError::BadVersion { found, expected } => {
                write!(f, "checkpoint format v{found} not supported (this binary reads v{expected})")
            }
            CheckpointError::BadChecksum { stored, computed } => {
                write!(f, "checkpoint checksum mismatch: stored {stored:#018x}, computed {computed:#018x}")
            }
            CheckpointError::BadTag { expected, found } => {
                write!(f, "checkpoint component tag mismatch: expected {expected:#010x}, found {found:#010x}")
            }
            CheckpointError::CountTooLarge { count, remaining } => {
                write!(f, "checkpoint length prefix {count} exceeds {remaining} remaining bytes")
            }
            CheckpointError::ConfigMismatch { stored, expected } => write!(
                f,
                "checkpoint was written under a different configuration: \
                 fingerprint {stored:#018x}, expected {expected:#018x}"
            ),
            CheckpointError::Malformed(msg) => write!(f, "malformed checkpoint: {msg}"),
            CheckpointError::Io(msg) => write!(f, "checkpoint I/O error: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Appends snapshot bytes. All writes are infallible (in-memory).
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes a component boundary tag.
    pub fn tag(&mut self, tag: u32) {
        self.put_u32(tag);
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64` (platform-independent layout).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Writes a boolean as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Writes raw bytes with no length prefix.
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Writes a length-prefixed byte string.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_usize(bytes.len());
        self.put_raw(bytes);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }

    /// Writes a `u64` as a base-128 varint (LEB128): seven value bits
    /// per byte, continuation bit on every byte but the last. Values
    /// below 128 cost one byte; the worst case (above 2^63) costs ten.
    /// Pair with [`zigzag`] to code signed deltas compactly.
    pub fn put_varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }
}

/// Reads snapshot bytes back, with bounds and sanity checks on every
/// access.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `bytes`, positioned at the start.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { buf: bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if self.remaining() < n {
            return Err(CheckpointError::Truncated { needed: n, available: self.remaining() });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads and checks a component boundary tag.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::BadTag`] if the stream holds a different tag,
    /// [`CheckpointError::Truncated`] if it ends first.
    pub fn expect_tag(&mut self, expected: u32) -> Result<(), CheckpointError> {
        let found = self.get_u32()?;
        if found != expected {
            return Err(CheckpointError::BadTag { expected, found });
        }
        Ok(())
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] at end of data.
    pub fn get_u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] at end of data.
    pub fn get_u16(&mut self) -> Result<u16, CheckpointError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] at end of data.
    pub fn get_u32(&mut self) -> Result<u32, CheckpointError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] at end of data.
    pub fn get_u64(&mut self) -> Result<u64, CheckpointError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Reads a `usize` stored as `u64`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] at end of data;
    /// [`CheckpointError::CountTooLarge`] if the value does not fit a
    /// `usize`.
    pub fn get_usize(&mut self) -> Result<usize, CheckpointError> {
        let v = self.get_u64()?;
        usize::try_from(v)
            .map_err(|_| CheckpointError::CountTooLarge { count: v, remaining: self.remaining() })
    }

    /// Reads a boolean (strictly 0 or 1).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Malformed`] for any other byte value.
    pub fn get_bool(&mut self) -> Result<bool, CheckpointError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CheckpointError::Malformed(format!("boolean byte {other}"))),
        }
    }

    /// Reads a container length prefix and validates it against the bytes
    /// remaining: since every encoded element occupies at least one byte,
    /// a prefix larger than `remaining()` is corruption, not a request to
    /// allocate.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::CountTooLarge`] for an impossible prefix.
    pub fn get_count(&mut self) -> Result<usize, CheckpointError> {
        let count = self.get_u64()?;
        let remaining = self.remaining();
        if count > remaining as u64 {
            return Err(CheckpointError::CountTooLarge { count, remaining });
        }
        Ok(count as usize)
    }

    /// Reads a length-prefixed byte string.
    ///
    /// # Errors
    ///
    /// Truncation or an impossible length prefix.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], CheckpointError> {
        let n = self.get_count()?;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Malformed`] on invalid UTF-8; truncation or an
    /// impossible length prefix otherwise.
    pub fn get_str(&mut self) -> Result<&'a str, CheckpointError> {
        let b = self.get_bytes()?;
        core::str::from_utf8(b).map_err(|e| CheckpointError::Malformed(format!("string not UTF-8: {e}")))
    }

    /// Reads a base-128 varint written by [`Writer::put_varint`]. Only
    /// the minimal encoding is accepted — an overlong form (a redundant
    /// trailing zero group) or a value overflowing `u64` is corruption,
    /// not an alternative spelling, so encode/decode stays a bijection.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] at end of data,
    /// [`CheckpointError::Malformed`] on a non-minimal or overflowing
    /// encoding.
    pub fn get_varint(&mut self) -> Result<u64, CheckpointError> {
        let mut v: u64 = 0;
        for shift in (0..=63).step_by(7) {
            let byte = self.get_u8()?;
            let group = u64::from(byte & 0x7F);
            if shift == 63 && group > 1 {
                return Err(CheckpointError::Malformed("varint overflows u64".into()));
            }
            v |= group << shift;
            if byte & 0x80 == 0 {
                if shift > 0 && group == 0 {
                    return Err(CheckpointError::Malformed("non-minimal varint encoding".into()));
                }
                return Ok(v);
            }
        }
        Err(CheckpointError::Malformed("varint longer than 10 bytes".into()))
    }

    /// Checks that every byte was consumed.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Malformed`] when trailing bytes remain.
    pub fn expect_end(&self) -> Result<(), CheckpointError> {
        if self.remaining() != 0 {
            return Err(CheckpointError::Malformed(format!("{} trailing bytes", self.remaining())));
        }
        Ok(())
    }
}

/// A value that can be byte-serialized into a checkpoint payload and
/// reconstructed from one.
///
/// Structural components (caches, queues with geometry) instead expose
/// in-place `save_state`/`restore_state` methods that validate the
/// decoded state against the rebuilt structure; this trait is for plain
/// values.
pub trait Snapshot: Sized {
    /// Appends this value's bytes to the writer.
    fn save(&self, w: &mut Writer);
    /// Reconstructs a value from the reader.
    ///
    /// # Errors
    ///
    /// Any [`CheckpointError`] from the underlying reads.
    fn load(r: &mut Reader<'_>) -> Result<Self, CheckpointError>;
}

macro_rules! snapshot_int {
    ($ty:ty, $put:ident, $get:ident) => {
        impl Snapshot for $ty {
            fn save(&self, w: &mut Writer) {
                w.$put(*self);
            }
            fn load(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
                r.$get()
            }
        }
    };
}

snapshot_int!(u8, put_u8, get_u8);
snapshot_int!(u16, put_u16, get_u16);
snapshot_int!(u32, put_u32, get_u32);
snapshot_int!(u64, put_u64, get_u64);
snapshot_int!(usize, put_usize, get_usize);
snapshot_int!(bool, put_bool, get_bool);

impl Snapshot for String {
    fn save(&self, w: &mut Writer) {
        w.put_str(self);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(r.get_str()?.to_string())
    }
}

impl<T: Snapshot> Snapshot for Option<T> {
    fn save(&self, w: &mut Writer) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.save(w);
            }
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::load(r)?)),
            other => Err(CheckpointError::Malformed(format!("option discriminant {other}"))),
        }
    }
}

impl<T: Snapshot> Snapshot for Vec<T> {
    fn save(&self, w: &mut Writer) {
        w.put_usize(self.len());
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let n = r.get_count()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::load(r)?);
        }
        Ok(out)
    }
}

impl<T: Snapshot> Snapshot for VecDeque<T> {
    fn save(&self, w: &mut Writer) {
        w.put_usize(self.len());
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let n = r.get_count()?;
        let mut out = VecDeque::with_capacity(n);
        for _ in 0..n {
            out.push_back(T::load(r)?);
        }
        Ok(out)
    }
}

impl<A: Snapshot, B: Snapshot> Snapshot for (A, B) {
    fn save(&self, w: &mut Writer) {
        self.0.save(w);
        self.1.save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok((A::load(r)?, B::load(r)?))
    }
}

impl<A: Snapshot, B: Snapshot, C: Snapshot> Snapshot for (A, B, C) {
    fn save(&self, w: &mut Writer) {
        self.0.save(w);
        self.1.save(w);
        self.2.save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok((A::load(r)?, B::load(r)?, C::load(r)?))
    }
}

impl<T: Snapshot, const N: usize> Snapshot for [T; N] {
    fn save(&self, w: &mut Writer) {
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let mut out = Vec::with_capacity(N);
        for _ in 0..N {
            out.push(T::load(r)?);
        }
        out.try_into().map_err(|_| CheckpointError::Malformed("array length".into()))
    }
}

/// A decoded checkpoint frame: the header fields plus the opaque payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Fingerprint of the (configuration, kernel) pair that wrote this.
    pub config_fp: u64,
    /// Simulation cycle at which the snapshot was taken.
    pub cycle: u64,
    /// Component payload bytes.
    pub payload: Vec<u8>,
}

impl Frame {
    /// Serializes the frame: magic, version, header, payload, checksum.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.payload.len() + 44);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.config_fp.to_le_bytes());
        out.extend_from_slice(&self.cycle.to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.payload);
        let checksum = fnv1a(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Decodes and validates a frame (magic, version, length, checksum).
    ///
    /// # Errors
    ///
    /// Any frame-level [`CheckpointError`]; the payload itself is not
    /// interpreted here.
    pub fn decode(bytes: &[u8]) -> Result<Self, CheckpointError> {
        // magic(8) + version(4) + fp(8) + cycle(8) + len(8) + checksum(8)
        const MIN: usize = 44;
        if bytes.len() < MIN {
            return Err(CheckpointError::Truncated { needed: MIN, available: bytes.len() });
        }
        if bytes[..8] != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let body = &bytes[..bytes.len() - 8];
        let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("8-byte tail"));
        let computed = fnv1a(body);
        if stored != computed {
            return Err(CheckpointError::BadChecksum { stored, computed });
        }
        let mut r = Reader::new(&bytes[8..bytes.len() - 8]);
        let version = r.get_u32()?;
        if version != FORMAT_VERSION {
            return Err(CheckpointError::BadVersion { found: version, expected: FORMAT_VERSION });
        }
        let config_fp = r.get_u64()?;
        let cycle = r.get_u64()?;
        let len = r.get_u64()?;
        if len != r.remaining() as u64 {
            return Err(CheckpointError::Malformed(format!(
                "payload length {len} does not match {} bytes present",
                r.remaining()
            )));
        }
        let payload = r.get_bytes_exact(len as usize)?;
        Ok(Self { config_fp, cycle, payload: payload.to_vec() })
    }

    /// Writes the encoded frame to `path` atomically: the bytes go to a
    /// temporary file in the same directory which is then renamed over
    /// the destination, so a crash mid-write never leaves a truncated
    /// checkpoint under the final name.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on any filesystem failure.
    pub fn write_file(&self, path: &Path) -> Result<(), CheckpointError> {
        let bytes = self.encode();
        let tmp = path.with_extension("ckpt.tmp");
        let io = |e: std::io::Error| CheckpointError::Io(format!("{}: {e}", path.display()));
        let mut f = std::fs::File::create(&tmp).map_err(io)?;
        f.write_all(&bytes).map_err(io)?;
        f.sync_all().map_err(io)?;
        drop(f);
        std::fs::rename(&tmp, path).map_err(io)
    }

    /// Reads and decodes a checkpoint file.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on filesystem failure, any frame-level
    /// error from [`Frame::decode`] otherwise.
    pub fn read_file(path: &Path) -> Result<Self, CheckpointError> {
        let bytes =
            std::fs::read(path).map_err(|e| CheckpointError::Io(format!("{}: {e}", path.display())))?;
        Self::decode(&bytes)
    }
}

impl<'a> Reader<'a> {
    /// Reads exactly `n` raw bytes (no prefix).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] when fewer remain.
    pub fn get_bytes_exact(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        self.take(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_extends_piece_by_piece() {
        let whole = b"SECMTRC sections hashed as they go out";
        for split in 0..=whole.len() {
            let (a, b) = whole.split_at(split);
            assert_eq!(fnv1a_extend(fnv1a(a), b), fnv1a(whole), "split at {split}");
        }
        assert_eq!(fnv1a(b"a"), 0xAF63_DC4C_8601_EC8C, "the FNV-1a test vector");
    }

    #[test]
    fn primitives_roundtrip() {
        let mut w = Writer::new();
        0xABu8.save(&mut w);
        0xBEEFu16.save(&mut w);
        0xDEAD_BEEFu32.save(&mut w);
        0x0123_4567_89AB_CDEFu64.save(&mut w);
        true.save(&mut w);
        false.save(&mut w);
        42usize.save(&mut w);
        String::from("héllo").save(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(u8::load(&mut r).unwrap(), 0xAB);
        assert_eq!(u16::load(&mut r).unwrap(), 0xBEEF);
        assert_eq!(u32::load(&mut r).unwrap(), 0xDEAD_BEEF);
        assert_eq!(u64::load(&mut r).unwrap(), 0x0123_4567_89AB_CDEF);
        assert!(bool::load(&mut r).unwrap());
        assert!(!bool::load(&mut r).unwrap());
        assert_eq!(usize::load(&mut r).unwrap(), 42);
        assert_eq!(String::load(&mut r).unwrap(), "héllo");
        r.expect_end().unwrap();
    }

    #[test]
    fn containers_roundtrip() {
        let v: Vec<u32> = vec![1, 2, 3];
        let q: VecDeque<u64> = VecDeque::from(vec![9, 8]);
        let o: Option<(u8, u16)> = Some((7, 700));
        let n: Option<u8> = None;
        let a: [u64; 3] = [5, 6, 7];
        let mut w = Writer::new();
        v.save(&mut w);
        q.save(&mut w);
        o.save(&mut w);
        n.save(&mut w);
        a.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(Vec::<u32>::load(&mut r).unwrap(), v);
        assert_eq!(VecDeque::<u64>::load(&mut r).unwrap(), q);
        assert_eq!(Option::<(u8, u16)>::load(&mut r).unwrap(), o);
        assert_eq!(Option::<u8>::load(&mut r).unwrap(), n);
        assert_eq!(<[u64; 3]>::load(&mut r).unwrap(), a);
        r.expect_end().unwrap();
    }

    #[test]
    fn oversized_count_rejected_without_allocation() {
        let mut w = Writer::new();
        w.put_u64(u64::MAX); // claims 2^64-1 elements
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        match Vec::<u64>::load(&mut r) {
            Err(CheckpointError::CountTooLarge { count, remaining }) => {
                assert_eq!(count, u64::MAX);
                assert_eq!(remaining, 0);
            }
            other => panic!("expected CountTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_typed() {
        let mut w = Writer::new();
        w.put_u32(7);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(u64::load(&mut r), Err(CheckpointError::Truncated { .. })));
    }

    #[test]
    fn tags_catch_drift() {
        let mut w = Writer::new();
        w.tag(0x1111_2222);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let err = r.expect_tag(0x3333_4444).unwrap_err();
        assert_eq!(err, CheckpointError::BadTag { expected: 0x3333_4444, found: 0x1111_2222 });
    }

    #[test]
    fn frame_roundtrip() {
        let frame = Frame { config_fp: 0xFEED, cycle: 1234, payload: vec![1, 2, 3, 4, 5] };
        let bytes = frame.encode();
        assert_eq!(Frame::decode(&bytes).unwrap(), frame);
    }

    #[test]
    fn frame_rejects_bad_magic_version_checksum() {
        let frame = Frame { config_fp: 1, cycle: 2, payload: vec![9; 16] };
        let good = frame.encode();

        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert_eq!(Frame::decode(&bad), Err(CheckpointError::BadMagic));

        // Frames of the previous and the next version: rebuild by hand
        // so the checksum is valid and the version check is what fires.
        for version in [2, FORMAT_VERSION + 1] {
            let mut other = Vec::new();
            other.extend_from_slice(&MAGIC);
            other.extend_from_slice(&u32::to_le_bytes(version));
            other.extend_from_slice(&1u64.to_le_bytes());
            other.extend_from_slice(&2u64.to_le_bytes());
            other.extend_from_slice(&0u64.to_le_bytes());
            let sum = fnv1a(&other);
            other.extend_from_slice(&sum.to_le_bytes());
            let expected = CheckpointError::BadVersion { found: version, expected: FORMAT_VERSION };
            assert_eq!(Frame::decode(&other), Err(expected), "version {version}");
        }

        let mut flipped = good.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x01;
        assert!(matches!(Frame::decode(&flipped), Err(CheckpointError::BadChecksum { .. })));

        for cut in [0, 10, good.len() - 1] {
            let err = Frame::decode(&good[..cut]).unwrap_err();
            assert!(
                matches!(err, CheckpointError::Truncated { .. } | CheckpointError::BadChecksum { .. }),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn file_roundtrip_is_atomic() {
        let dir = std::env::temp_dir().join("secmem-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.ckpt");
        let frame = Frame { config_fp: 3, cycle: 99, payload: vec![0xAA; 100] };
        frame.write_file(&path).unwrap();
        assert_eq!(Frame::read_file(&path).unwrap(), frame);
        // The temporary never survives a successful write.
        assert!(!path.with_extension("ckpt.tmp").exists());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn varint_roundtrip_and_sizes() {
        let cases: [(u64, usize); 8] = [
            (0, 1),
            (1, 1),
            (127, 1),
            (128, 2),
            (16_383, 2),
            (16_384, 3),
            (u64::from(u32::MAX), 5),
            (u64::MAX, 10),
        ];
        for (v, bytes) in cases {
            let mut w = Writer::new();
            w.put_varint(v);
            assert_eq!(w.len(), bytes, "encoded size of {v}");
            let encoded = w.into_bytes();
            let mut r = Reader::new(&encoded);
            assert_eq!(r.get_varint().unwrap(), v);
            r.expect_end().unwrap();
        }
    }

    #[test]
    fn varint_rejects_overlong_and_truncated() {
        // 1 encoded as two groups: valid value, non-minimal spelling.
        let overlong = [0x81, 0x00];
        let mut r = Reader::new(&overlong);
        assert!(matches!(r.get_varint(), Err(CheckpointError::Malformed(_))));
        // Eleven continuation bytes can never terminate inside u64.
        let eleven = [0x80u8; 11];
        let mut r = Reader::new(&eleven);
        assert!(matches!(r.get_varint(), Err(CheckpointError::Malformed(_))));
        // Tenth group carrying more than the top bit overflows u64.
        let overflow = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02];
        let mut r = Reader::new(&overflow);
        assert!(matches!(r.get_varint(), Err(CheckpointError::Malformed(_))));
        // A continuation bit with nothing after it is truncation.
        let cut = [0x80u8];
        let mut r = Reader::new(&cut);
        assert!(matches!(r.get_varint(), Err(CheckpointError::Truncated { .. })));
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, -1, 1, -2, 2, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v, "zigzag({v})");
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
    }

    #[test]
    fn error_display_is_stable() {
        let e = CheckpointError::BadTag { expected: 1, found: 2 };
        assert!(e.to_string().contains("tag"));
        let e = CheckpointError::Truncated { needed: 8, available: 3 };
        assert!(e.to_string().contains("truncated"));
    }
}
