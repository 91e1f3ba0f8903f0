//! `SECMTRC` — the compact binary warp-trace container, and the one
//! walker every stream's records are decoded through.
//!
//! The text format ([`crate::trace`]) is the archival/interchange form;
//! `SECMTRC` records are the one in-memory form. A [`Trace`] holds each
//! `(sm, warp)` stream as its delta/varint-coded records in an
//! immutable, shared `Arc<[u8]>`, written by the one `StreamEncoder` as
//! instructions arrive, so [`write_file`] and [`encode`] only write
//! those bytes out between checksummed sections, straight from the
//! trace. One decode routine reads a container from a byte source — a
//! slice for [`Trace::decode`], the file itself for
//! [`crate::trace::load_file`] — and reads each stream's records
//! straight into their own shared buffer before validating them. Every
//! read of a stream — the load-time validation walk, [`Trace::stream`],
//! [`Trace::write_text`] and each warp's replay cursor (`BinCursor`) —
//! goes through one `Records` walker, one record at a time.
//!
//! # Wire format (version 1)
//!
//! All fixed-width integers are little-endian; `varint` is the minimal
//! LEB128 encoding of [`secmem_checkpoint::Writer::put_varint`] and
//! `svarint` additionally zigzags ([`secmem_checkpoint::zigzag`]).
//!
//! ```text
//! magic      8  "SECMTRC\0"
//! version    u32
//! index_len  u64          # bytes of index body
//! index body:
//!   varint stream_count
//!   per stream, strictly ascending (sm, warp):
//!     varint sm           # <= MAX_TRACE_SM
//!     varint warp         # <= MAX_TRACE_WARP
//!     varint inst_count
//!     varint data_len     # bytes of this stream's records
//! index_sum  u64          # FNV-1a over the index body
//! data_len   u64          # bytes of data body (== sum of data_len)
//! data body: streams' records, concatenated in index order
//! data_sum   u64          # FNV-1a over the data body
//! ```
//!
//! Stream offsets are implied by the cumulative `data_len`s, so the
//! index carries no redundant offsets to cross-validate. Each record
//! starts with a packed tag byte — kind in bits 0..3, a 5-bit argument
//! in bits 3..8:
//!
//! ```text
//! kind: 0 A | 1 U | 2 L dep=0 | 3 L dep=1 | 4 S | 5 X
//! A/U:  arg = stall; arg 31 means a varint stall (>= 31) follows
//! L/S:  arg = access count (1..=30); arg 0 means a varint count
//!       (31..=MAX_ACCESSES_PER_INST) follows
//! X:    arg must be 0
//! per access: varint((zigzag(block_delta) << 4) | sector_mask)
//!       where block_delta = line_addr/128 - previous access's block
//! ```
//!
//! The block delta is against the previous access *in the same stream*
//! (starting from block 0), so the dominant sequential-stride patterns
//! cost one byte per access — a typical `A 1` / `L 0 xxxx:f` text pair
//! (15 bytes) encodes to 3. Only the minimal spelling of every record
//! is accepted (minimal varints, no spilled value that fits the tag
//! byte), so encode/decode is a bijection. Decoding validates
//! everything once at load time — checksums, index ordering and
//! limits, and a full walk of every record — so the replay cursors
//! ([`WarpProgram::next_inst`] is infallible by signature) never need
//! an error path. See DESIGN.md §15.

use std::io::{BufWriter, Read, Write};
use std::path::Path;
use std::sync::Arc;

use secmem_checkpoint::{fnv1a, fnv1a_extend, unzigzag, zigzag, CheckpointError, Reader, Writer};

use crate::kernel::{StateError, WarpProgram};
use crate::trace::{Trace, MAX_ACCESSES_PER_INST, MAX_TRACE_SM, MAX_TRACE_WARP};
use crate::types::{Access, Addr, Inst, SectorMask, LINE_SIZE};

/// Magic bytes at the start of every binary trace file.
pub const BIN_MAGIC: [u8; 8] = *b"SECMTRC\0";

/// Current binary trace format version. Bump on any layout change; as
/// with checkpoints there is no cross-version migration.
pub const BIN_FORMAT_VERSION: u32 = 1;

/// The name the container type had before [`Trace`] became the one
/// in-memory trace; the benchmark harness still spells it.
pub type BinaryTrace = Trace;

/// `log2(LINE_SIZE)`: addresses are line-aligned, so the low bits are
/// always zero and the delta coder works in line-block units.
const LINE_SHIFT: u32 = LINE_SIZE.trailing_zeros();

/// Largest line-block value whose address survives `block << LINE_SHIFT`
/// without losing bits.
const MAX_BLOCK: u64 = Addr::MAX >> LINE_SHIFT;

const KIND_ALU: u8 = 0;
const KIND_ALU_WAIT: u8 = 1;
const KIND_LOAD: u8 = 2;
const KIND_LOAD_DEP: u8 = 3;
const KIND_STORE: u8 = 4;
const KIND_EXIT: u8 = 5;

/// Mask selecting the record kind from a tag byte.
const KIND_MASK: u8 = 0x07;

/// Ceiling of the tag byte's 5-bit argument field. An ALU stall at or
/// above it spills to a trailing varint; a zero L/S argument means the
/// access count follows as a varint (a real count is never zero).
const TAG_ARG_SPILL: u8 = 31;

/// Packs a record kind and its 5-bit argument into one tag byte.
fn tag(kind: u8, arg: u8) -> u8 {
    debug_assert!(arg <= TAG_ARG_SPILL, "tag arg {arg} exceeds 5 bits");
    kind | (arg << 3)
}

/// Why a `SECMTRC` container could not be decoded or written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BinTraceError {
    /// The data ended before a complete value could be read.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes that were available.
        available: usize,
    },
    /// The file does not start with [`BIN_MAGIC`].
    BadMagic,
    /// The format version does not match [`BIN_FORMAT_VERSION`].
    BadVersion {
        /// Version found in the file.
        found: u32,
        /// Version this binary understands.
        expected: u32,
    },
    /// A section checksum does not match its contents.
    BadChecksum {
        /// Which section failed (`"index"` or `"data"`).
        section: &'static str,
        /// Checksum stored in the file.
        stored: u64,
        /// Checksum computed over the section body.
        computed: u64,
    },
    /// A count prefix exceeds what the remaining bytes could hold
    /// (corruption; refusing to allocate).
    CountTooLarge {
        /// The count read.
        count: u64,
        /// Bytes remaining in the section.
        remaining: usize,
    },
    /// A decoded value violates a structural invariant (bad tag, mask
    /// out of range, index out of order, …).
    Malformed(String),
    /// An I/O failure while reading or writing a trace file.
    Io(String),
}

impl core::fmt::Display for BinTraceError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            BinTraceError::Truncated { needed, available } => {
                write!(f, "binary trace truncated: needed {needed} bytes, {available} available")
            }
            BinTraceError::BadMagic => write!(f, "not a SECMTRC binary trace (bad magic)"),
            BinTraceError::BadVersion { found, expected } => {
                write!(f, "binary trace format v{found} not supported (this binary reads v{expected})")
            }
            BinTraceError::BadChecksum { section, stored, computed } => write!(
                f,
                "binary trace {section} checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            BinTraceError::CountTooLarge { count, remaining } => {
                write!(f, "binary trace count {count} exceeds {remaining} remaining bytes")
            }
            BinTraceError::Malformed(msg) => write!(f, "malformed binary trace: {msg}"),
            BinTraceError::Io(msg) => write!(f, "binary trace I/O error: {msg}"),
        }
    }
}

impl std::error::Error for BinTraceError {}

impl From<CheckpointError> for BinTraceError {
    fn from(e: CheckpointError) -> Self {
        match e {
            CheckpointError::Truncated { needed, available } => {
                BinTraceError::Truncated { needed, available }
            }
            CheckpointError::CountTooLarge { count, remaining } => {
                BinTraceError::CountTooLarge { count, remaining }
            }
            CheckpointError::Malformed(msg) => BinTraceError::Malformed(msg),
            CheckpointError::Io(msg) => BinTraceError::Io(msg),
            // The remaining variants are frame-level; the byte codec this
            // module borrows never produces them.
            other => BinTraceError::Malformed(other.to_string()),
        }
    }
}

/// Serializes a [`Trace`] into `SECMTRC` bytes: the writer behind
/// [`write_file`], aimed at a `Vec`.
pub fn encode(trace: &Trace) -> Vec<u8> {
    let mut out = Vec::new();
    let written = write_container(trace, &mut out);
    debug_assert!(written.is_ok(), "writing to a Vec cannot fail");
    out
}

/// Writes `trace` to `path` atomically (temporary file in the same
/// directory, then rename — the same crash discipline as checkpoint
/// frames). The container goes out through a buffered writer section
/// by section, so no assembled copy of it is ever held.
///
/// # Errors
///
/// [`BinTraceError::Io`] on any filesystem failure.
pub fn write_file(trace: &Trace, path: &Path) -> Result<(), BinTraceError> {
    let tmp = path.with_extension("smtrc.tmp");
    let io = |e: std::io::Error| BinTraceError::Io(format!("{}: {e}", path.display()));
    let mut out = BufWriter::new(std::fs::File::create(&tmp).map_err(io)?);
    write_container(trace, &mut out).map_err(io)?;
    let f = out.into_inner().map_err(|e| io(e.into_error()))?;
    f.sync_all().map_err(io)?;
    drop(f);
    std::fs::rename(&tmp, path).map_err(io)
}

/// Writes `trace`'s `SECMTRC` container to `out`. The trace already
/// holds every stream's records, so this writes the header and index,
/// then each stream's stored bytes as they are, hashing the data
/// section as it goes out.
fn write_container(trace: &Trace, out: &mut impl Write) -> std::io::Result<()> {
    let mut index = Writer::new();
    index.put_varint(trace.warp_count() as u64);
    let mut data_len = 0;
    for (&(sm, warp), stream) in &trace.streams {
        index.put_varint(u64::from(sm));
        index.put_varint(u64::from(warp));
        index.put_varint(stream.insts);
        index.put_varint(stream.bytes.len() as u64);
        data_len += stream.bytes.len();
    }
    let index = index.into_bytes();
    out.write_all(&BIN_MAGIC)?;
    out.write_all(&BIN_FORMAT_VERSION.to_le_bytes())?;
    out.write_all(&(index.len() as u64).to_le_bytes())?;
    out.write_all(&index)?;
    out.write_all(&fnv1a(&index).to_le_bytes())?;
    out.write_all(&(data_len as u64).to_le_bytes())?;
    let mut data_sum = fnv1a(&[]);
    for stream in trace.streams.values() {
        out.write_all(&stream.bytes)?;
        data_sum = fnv1a_extend(data_sum, &stream.bytes);
    }
    out.write_all(&data_sum.to_le_bytes())
}

/// One warp's stream in record form: exactly the bytes the container's
/// data section holds for it, delta-coded from block 0.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct EncodedStream {
    /// Records in `bytes`.
    pub(crate) insts: u64,
    /// The records, shared with every replay cursor of this stream.
    pub(crate) bytes: Arc<[u8]>,
}

/// The one stream encoder: recording, text parsing and
/// [`Trace::insert`] all push instructions through it as they come, so
/// no caller holds a decoded stream.
#[derive(Debug, Default)]
pub(crate) struct StreamEncoder {
    out: Writer,
    insts: u64,
    prev_block: u64,
}

impl StreamEncoder {
    /// Appends one instruction's record.
    pub(crate) fn push(&mut self, inst: &Inst) {
        encode_inst(&mut self.out, inst, &mut self.prev_block);
        self.insts += 1;
    }

    /// The finished stream, its records copied into an exactly sized
    /// shared buffer.
    pub(crate) fn finish(self) -> EncodedStream {
        EncodedStream { insts: self.insts, bytes: self.out.into_bytes().into() }
    }
}

/// Walks one stream's records in order: the only caller of the record
/// decoder. `B` is a borrowed slice for the load-time validation walk,
/// [`Trace::stream`] and [`Trace::write_text`], and the stream's shared
/// `Arc` for a replay cursor.
#[derive(Debug)]
pub(crate) struct Records<B> {
    bytes: B,
    /// Byte offset of the next record.
    at: usize,
    /// Delta-coder state: the line block of the previous access.
    prev_block: u64,
    /// Records not yet decoded.
    left: u64,
}

impl<B: AsRef<[u8]>> Records<B> {
    /// A walk over the `insts` records in `bytes`.
    pub(crate) fn new(bytes: B, insts: u64) -> Self {
        Self { bytes, at: 0, prev_block: 0, left: insts }
    }

    /// Decodes the next record; with `KEEP` false a load's or store's
    /// accesses are checked but not collected. The caller checks that a
    /// record is left. An ALU record whose stall fits its tag byte is
    /// that byte alone, and about nine records in ten of a recorded
    /// benchmark are one, so it is decoded here; every other record, and
    /// any error, goes through [`decode_inst`].
    #[inline(always)]
    fn decode_next<const KEEP: bool>(&mut self) -> Result<Inst, BinTraceError> {
        let bytes = self.bytes.as_ref();
        if let Some(&t) = bytes.get(self.at) {
            let (kind, arg) = (t & KIND_MASK, t >> 3);
            if (kind == KIND_ALU || kind == KIND_ALU_WAIT) && arg < TAG_ARG_SPILL {
                self.at += 1;
                self.left -= 1;
                return Ok(Inst::Alu { stall: u32::from(arg), wait_mem: kind == KIND_ALU_WAIT });
            }
        }
        let mut r = Reader::new(bytes.get(self.at..).unwrap_or_default());
        let inst = decode_inst::<KEEP>(&mut r, &mut self.prev_block)?;
        self.at = bytes.len() - r.remaining();
        self.left -= 1;
        Ok(inst)
    }

    /// Decodes and checks the next `n` records (or as many as are
    /// left), keeping none of them and building no access list.
    ///
    /// # Errors
    ///
    /// The first malformed record, with the number of records walked
    /// before it.
    fn walk(&mut self, n: u64) -> Result<(), (u64, BinTraceError)> {
        for i in 0..n.min(self.left) {
            let unkept = self.decode_next::<false>().map_err(|err| (i, err))?;
            // It owns no heap memory, so there is nothing to free.
            // Dropping it instead runs `Inst`'s drop glue per record,
            // which nearly doubled the time to validate the four
            // benchmark replay recordings (2-vCPU x86-64 host).
            std::mem::forget(unkept);
        }
        Ok(())
    }
}

impl<B: AsRef<[u8]>> Iterator for Records<B> {
    type Item = Inst;

    /// The streams walked this way were written by [`StreamEncoder`] or
    /// validated by [`Trace::decode`], so a decode error is impossible
    /// and ends the walk early in release builds.
    fn next(&mut self) -> Option<Inst> {
        if self.left == 0 {
            return None;
        }
        match self.decode_next::<true>() {
            Ok(inst) => Some(inst),
            Err(_) => {
                debug_assert!(false, "encoded stream failed to decode");
                self.left = 0;
                None
            }
        }
    }
}

fn encode_inst(w: &mut Writer, inst: &Inst, prev_block: &mut u64) {
    match inst {
        Inst::Alu { stall, wait_mem } => {
            let kind = if *wait_mem { KIND_ALU_WAIT } else { KIND_ALU };
            if *stall < u32::from(TAG_ARG_SPILL) {
                let arg = crate::narrow::u64_to_u8(u64::from(*stall), "stall below the tag-arg spill bound");
                w.put_u8(tag(kind, arg));
            } else {
                w.put_u8(tag(kind, TAG_ARG_SPILL));
                w.put_varint(u64::from(*stall));
            }
        }
        Inst::Load { accesses, dependent } => {
            let kind = if *dependent { KIND_LOAD_DEP } else { KIND_LOAD };
            encode_mem(w, kind, accesses, prev_block);
        }
        Inst::Store { accesses } => encode_mem(w, KIND_STORE, accesses, prev_block),
        Inst::Exit => w.put_u8(tag(KIND_EXIT, 0)),
    }
}

fn encode_mem(w: &mut Writer, kind: u8, accesses: &[Access], prev_block: &mut u64) {
    debug_assert!(!accesses.is_empty(), "memory instruction with no accesses");
    if !accesses.is_empty() && accesses.len() < usize::from(TAG_ARG_SPILL) {
        let arg = crate::narrow::u64_to_u8(accesses.len() as u64, "count below the tag-arg spill bound");
        w.put_u8(tag(kind, arg));
    } else {
        w.put_u8(tag(kind, 0));
        w.put_varint(accesses.len() as u64);
    }
    for a in accesses {
        let block = a.line_addr >> LINE_SHIFT;
        // Blocks fit in 57 bits, so the difference is exact in i64, and
        // its zigzag form shifted four bits stays inside u64.
        let delta = block.wrapping_sub(*prev_block) as i64;
        w.put_varint((zigzag(delta) << 4) | u64::from(a.sectors.0));
        *prev_block = block;
    }
}

/// Decodes the record at the reader's position, collecting a load's or
/// store's accesses only when `KEEP` is set (the load-time validation
/// walk and cursor restore check them and keep none). `prev_block` is
/// the per-stream delta state (callers reset it to 0 at each stream
/// start). Only [`Records::decode_next`] calls it, after taking the
/// one-byte ALU records itself, so an ALU record here is the spilled
/// form. Inlined there so the validation walk compiles to a tighter
/// loop: left to the compiler, validating the four benchmark replay
/// recordings took ~10% longer (2-vCPU x86-64 host).
#[inline(always)]
fn decode_inst<const KEEP: bool>(r: &mut Reader<'_>, prev_block: &mut u64) -> Result<Inst, BinTraceError> {
    let t = r.get_u8()?;
    let kind = t & KIND_MASK;
    let arg = t >> 3;
    match kind {
        KIND_ALU | KIND_ALU_WAIT => {
            debug_assert_eq!(arg, TAG_ARG_SPILL, "one-byte ALU records are decoded by the walker");
            let stall = u32::try_from(r.get_varint()?)
                .map_err(|_| BinTraceError::Malformed("ALU stall overflows u32".into()))?;
            if stall < u32::from(TAG_ARG_SPILL) {
                return Err(BinTraceError::Malformed(format!(
                    "spilled stall {stall} fits the tag byte (non-canonical)"
                )));
            }
            Ok(Inst::Alu { stall, wait_mem: kind == KIND_ALU_WAIT })
        }
        KIND_LOAD | KIND_LOAD_DEP | KIND_STORE => {
            let n = if arg == 0 {
                let n = r.get_varint()?;
                if n < u64::from(TAG_ARG_SPILL) || n > MAX_ACCESSES_PER_INST as u64 {
                    return Err(BinTraceError::Malformed(format!(
                        "varint access count {n} outside {TAG_ARG_SPILL}..={MAX_ACCESSES_PER_INST}"
                    )));
                }
                n
            } else {
                u64::from(arg)
            };
            let mut accesses = if KEEP { Vec::with_capacity(n as usize) } else { Vec::new() };
            for _ in 0..n {
                let v = r.get_varint()?;
                let mask = crate::narrow::u64_to_u8(v & 0xF, "masked to four bits");
                if mask == 0 {
                    return Err(BinTraceError::Malformed("empty sector mask".into()));
                }
                let delta = unzigzag(v >> 4);
                let block = prev_block.wrapping_add(delta as u64);
                if block > MAX_BLOCK {
                    return Err(BinTraceError::Malformed(format!(
                        "line block {block:#x} overflows the address space"
                    )));
                }
                *prev_block = block;
                if KEEP {
                    accesses.push(Access { line_addr: block << LINE_SHIFT, sectors: SectorMask(mask) });
                }
            }
            if kind == KIND_STORE {
                Ok(Inst::Store { accesses })
            } else {
                Ok(Inst::Load { accesses, dependent: kind == KIND_LOAD_DEP })
            }
        }
        KIND_EXIT => {
            if arg != 0 {
                return Err(BinTraceError::Malformed(format!("exit record with payload bits {arg}")));
            }
            Ok(Inst::Exit)
        }
        other => Err(BinTraceError::Malformed(format!("unknown record kind {other}"))),
    }
}

/// Summary of one stream, as reported by [`Trace::streams`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamInfo {
    /// SM index.
    pub sm: u32,
    /// Warp index within the SM.
    pub warp: u32,
    /// Number of recorded instructions.
    pub insts: u64,
    /// Encoded size of the stream's records.
    pub bytes: usize,
}

impl Trace {
    /// True when `bytes` starts with the `SECMTRC` magic — the sniff
    /// [`crate::trace::load`] uses to pick a decoder.
    pub fn sniff(bytes: &[u8]) -> bool {
        bytes.len() >= BIN_MAGIC.len() && bytes[..BIN_MAGIC.len()] == BIN_MAGIC
    }

    /// Decodes and fully validates a `SECMTRC` file: header, section
    /// checksums, index ordering and limits, and a complete walk of
    /// every stream's records, each copied into its own shared buffer.
    /// After a successful decode the replay cursors cannot encounter a
    /// malformed record. [`crate::trace::load_file`] runs the same
    /// routine over the file, so both fail alike on the same bytes.
    ///
    /// # Errors
    ///
    /// Any [`BinTraceError`]; corruption is always detected because
    /// every byte of the file is either validated structure or covered
    /// by a section checksum.
    pub fn decode(bytes: &[u8]) -> Result<Self, BinTraceError> {
        decode_from(bytes, bytes.len())
    }

    /// A streaming replay cursor for one warp. Unrecorded warps get an
    /// empty cursor that exits immediately.
    pub(crate) fn cursor(&self, sm: u32, warp: u32) -> BinCursor {
        let stream = self.streams.get(&(sm, warp)).cloned().unwrap_or_default();
        BinCursor { records: Records::new(stream.bytes, stream.insts), total: stream.insts, pos: 0 }
    }
}

/// Decodes and validates the `len`-byte `SECMTRC` container `read`
/// yields: the one routine behind [`Trace::decode`] and
/// [`crate::trace::load_file`]. The index is read and parsed first, so
/// each stream's records are read straight into their own exactly
/// sized buffer and the container is never held whole. The checks run
/// in the order of a walk over a whole container: header, both
/// checksums, then each index entry followed by its stream's records.
///
/// # Errors
///
/// As [`Trace::decode`]; [`BinTraceError::Io`] if reading fails.
pub(crate) fn decode_from(read: impl Read, len: usize) -> Result<Trace, BinTraceError> {
    let mut src = Source { read, left: len };
    if src.fixed_field()? != BIN_MAGIC {
        return Err(BinTraceError::BadMagic);
    }
    let version = u32::from_le_bytes(src.fixed_field()?);
    if version != BIN_FORMAT_VERSION {
        return Err(BinTraceError::BadVersion { found: version, expected: BIN_FORMAT_VERSION });
    }
    let index_len = src.section_len()?;
    let index_body = src.shared_bytes(index_len)?;
    let stored = u64::from_le_bytes(src.fixed_field()?);
    let computed = fnv1a(&index_body);
    if stored != computed {
        return Err(BinTraceError::BadChecksum { section: "index", stored, computed });
    }
    let data_len = src.section_len()?;
    let mut entries = Vec::new();
    let index_checked = parse_index(&index_body, data_len, &mut entries);
    // Each good entry's records go to their own buffer. Bytes no good
    // entry accounts for are read only to be hashed, so a damaged data
    // section is still reported first.
    let mut bodies = Vec::with_capacity(entries.len());
    let mut computed = fnv1a(&[]);
    let mut unclaimed = data_len;
    for entry in &entries {
        let body = src.shared_bytes(entry.len)?;
        computed = fnv1a_extend(computed, &body);
        unclaimed -= entry.len;
        bodies.push(body);
    }
    if unclaimed > 0 {
        computed = fnv1a_extend(computed, &src.shared_bytes(unclaimed)?);
    }
    let stored = u64::from_le_bytes(src.fixed_field()?);
    if stored != computed {
        return Err(BinTraceError::BadChecksum { section: "data", stored, computed });
    }
    if src.left != 0 {
        return Err(BinTraceError::Malformed(format!("{} trailing bytes", src.left)));
    }
    let mut trace = Trace::new();
    for (IndexEntry { sm, warp, insts, .. }, bytes) in entries.into_iter().zip(bodies) {
        // Walk every record once so replay never sees a malformed one.
        let mut records = Records::new(&*bytes, insts);
        records.walk(insts).map_err(|(i, err)| {
            BinTraceError::Malformed(format!("stream (sm {sm}, warp {warp}) record {i}: {err}"))
        })?;
        if records.at != bytes.len() {
            return Err(BinTraceError::Malformed(format!(
                "stream (sm {sm}, warp {warp}) has trailing record bytes"
            )));
        }
        trace.streams.insert((sm, warp), EncodedStream { insts, bytes });
    }
    index_checked?;
    Ok(trace)
}

/// One stream's index entry.
struct IndexEntry {
    sm: u32,
    warp: u32,
    insts: u64,
    /// Bytes of the stream's records in the data section.
    len: usize,
}

/// Parses and checks the index body against a `data_len`-byte data
/// section: ids in range and strictly ascending, no stream claiming
/// more records than bytes, and lengths that add up to `data_len`.
/// Entries are pushed to `entries` as they pass, so on an error it
/// holds those before the bad one: [`decode_from`] walks their streams
/// before reporting the index error, the order the checks have always
/// run in.
fn parse_index(body: &[u8], data_len: usize, entries: &mut Vec<IndexEntry>) -> Result<(), BinTraceError> {
    let mut ir = Reader::new(body);
    let streams = ir.get_varint()?;
    // Every index entry costs at least four bytes, so a count beyond
    // the body length is corruption, not a request to allocate.
    if streams > body.len() as u64 {
        return Err(BinTraceError::CountTooLarge { count: streams, remaining: body.len() });
    }
    entries.reserve_exact(streams as usize);
    let mut offset = 0usize;
    for _ in 0..streams {
        let sm = u32::try_from(ir.get_varint()?)
            .ok()
            .filter(|v| *v <= MAX_TRACE_SM)
            .ok_or_else(|| BinTraceError::Malformed(format!("SM index exceeds {MAX_TRACE_SM}")))?;
        let warp = u32::try_from(ir.get_varint()?)
            .ok()
            .filter(|v| *v <= MAX_TRACE_WARP)
            .ok_or_else(|| BinTraceError::Malformed(format!("warp index exceeds {MAX_TRACE_WARP}")))?;
        if entries.last().is_some_and(|prev| (prev.sm, prev.warp) >= (sm, warp)) {
            return Err(BinTraceError::Malformed(format!(
                "index entry (sm {sm}, warp {warp}) out of order or duplicated"
            )));
        }
        let insts = ir.get_varint()?;
        let len = usize::try_from(ir.get_varint()?)
            .map_err(|_| BinTraceError::Malformed("stream length overflows usize".into()))?;
        // Every record costs at least one byte.
        if insts > len as u64 {
            return Err(BinTraceError::Malformed(format!(
                "stream (sm {sm}, warp {warp}) claims {insts} instructions in {len} bytes"
            )));
        }
        offset = offset
            .checked_add(len)
            .filter(|end| *end <= data_len)
            .ok_or(BinTraceError::CountTooLarge { count: len as u64, remaining: data_len - offset })?;
        entries.push(IndexEntry { sm, warp, insts, len });
    }
    ir.expect_end()?;
    if offset != data_len {
        return Err(BinTraceError::Malformed(format!(
            "data section holds {data_len} bytes but the index accounts for {offset}"
        )));
    }
    Ok(())
}

/// The bytes [`decode_from`] reads, and how many are left: known up
/// front, so a slice and a file report truncation and impossible
/// lengths alike, the way [`Reader`] does for a slice.
struct Source<R> {
    read: R,
    /// Bytes not yet read.
    left: usize,
}

impl<R: Read> Source<R> {
    /// Fills `buf` with the next bytes.
    fn read_into(&mut self, buf: &mut [u8]) -> Result<(), BinTraceError> {
        if buf.len() > self.left {
            return Err(BinTraceError::Truncated { needed: buf.len(), available: self.left });
        }
        self.read.read_exact(buf).map_err(|e| BinTraceError::Io(e.to_string()))?;
        self.left -= buf.len();
        Ok(())
    }

    /// The next `N` bytes, for a fixed-width field.
    fn fixed_field<const N: usize>(&mut self) -> Result<[u8; N], BinTraceError> {
        let mut buf = [0; N];
        self.read_into(&mut buf)?;
        Ok(buf)
    }

    /// A section's `u64` length prefix, refused when it exceeds the
    /// bytes left ([`Reader::get_count`]'s rule).
    fn section_len(&mut self) -> Result<usize, BinTraceError> {
        let count = u64::from_le_bytes(self.fixed_field()?);
        usize::try_from(count)
            .ok()
            .filter(|n| *n <= self.left)
            .ok_or(BinTraceError::CountTooLarge { count, remaining: self.left })
    }

    /// The next `n` bytes in their own exactly sized shared buffer,
    /// read straight into it.
    fn shared_bytes(&mut self, n: usize) -> Result<Arc<[u8]>, BinTraceError> {
        let mut buf: Arc<[u8]> = std::iter::repeat_n(0, n).collect();
        // The buffer has no other owner yet, so this borrows it in place.
        self.read_into(Arc::make_mut(&mut buf))?;
        Ok(buf)
    }
}

/// Streaming replay over one stream of a [`Trace`]: walks the stream's
/// shared records one per `next_inst`. `save_state` is the single
/// `[pos]` word, and text traces replay through this same cursor, so
/// checkpoint frames are byte-identical whichever format the trace was
/// ingested from.
#[derive(Debug)]
pub(crate) struct BinCursor {
    records: Records<Arc<[u8]>>,
    /// Instructions in the stream.
    total: u64,
    /// Instructions handed out via `next_inst`.
    pos: u64,
}

impl WarpProgram for BinCursor {
    fn next_inst(&mut self) -> Inst {
        self.pos += 1;
        // lint:allow(T1): a load or store allocates its access list, once per replayed memory instruction; ALU records, about nine in ten, decode without allocating
        self.records.next().unwrap_or(Inst::Exit)
    }

    fn save_state(&self, out: &mut Vec<u64>) {
        out.push(self.pos);
    }

    fn restore_state(&mut self, state: &[u64]) -> Result<(), StateError> {
        crate::kernel::expect_state_len(state, 1, "trace replay")?;
        let pos = state[0];
        // One past the end is legal (the implicit Exit was consumed);
        // anything further means the state belongs to a different trace.
        if pos > self.total + 1 {
            return Err(StateError::new(
                "trace replay",
                format!("position {pos} beyond stream of {} instructions", self.total),
            ));
        }
        // Re-walk forward from the stream start. Cold path: this runs
        // once per checkpoint restore, not per cycle.
        self.records = Records::new(Arc::clone(&self.records.bytes), self.total);
        self.records
            .walk(pos)
            .map_err(|_| StateError::new("trace replay", "stream undecodable at restore"))?;
        self.pos = pos;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::StreamKernel;
    use crate::trace::{serialize_inst, TRACE_HEADER};
    use crate::types::FULL_SECTOR_MASK;

    fn sample_trace() -> Trace {
        let mut t = Trace::new();
        t.insert(
            0,
            0,
            vec![
                Inst::Alu { stall: 3, wait_mem: false },
                Inst::Load {
                    accesses: vec![
                        Access { line_addr: 0x1a80, sectors: SectorMask(0b0011) },
                        Access { line_addr: 0x2b00, sectors: SectorMask(0b0001) },
                    ],
                    dependent: true,
                },
                Inst::Alu { stall: 1, wait_mem: true },
                Inst::Store { accesses: vec![Access { line_addr: 0x3c80, sectors: FULL_SECTOR_MASK }] },
                Inst::Exit,
            ],
        );
        t.insert(1, 3, vec![Inst::alu(), Inst::Exit]);
        t
    }

    #[test]
    fn roundtrip_preserves_streams() {
        let trace = sample_trace();
        let bytes = encode(&trace);
        assert!(Trace::sniff(&bytes));
        let bin = Trace::decode(&bytes).expect("decodes");
        assert_eq!(bin.warp_count(), 2);
        assert_eq!(bin.total_insts(), 7);
        assert_eq!(bin, trace);
        // Decode is canonical: re-encoding the decoded trace reproduces
        // the file byte for byte.
        assert_eq!(encode(&bin), bytes);
    }

    #[test]
    fn binary_is_much_smaller_than_text() {
        let kernel = StreamKernel { alu_per_mem: 2, bytes_per_warp: 1 << 16, warps: 4 };
        let trace = Trace::record(&kernel, 4, 500);
        let text = trace.to_text();
        let bin = encode(&trace);
        assert!(
            bin.len() * 10 <= text.len() * 4,
            "binary {} bytes vs text {} bytes — want <= 40%",
            bin.len(),
            text.len()
        );
    }

    #[test]
    fn cursor_replays_identically_to_decoded_stream() {
        let kernel = StreamKernel { alu_per_mem: 1, bytes_per_warp: 1 << 14, warps: 2 };
        let trace = Trace::record(&kernel, 2, 200);
        let bin = Trace::decode(&encode(&trace)).expect("decodes");
        for StreamInfo { sm, warp, .. } in trace.streams() {
            let insts = trace.stream(sm, warp).expect("recorded stream");
            let mut cursor = bin.cursor(sm, warp);
            for (i, want) in insts.iter().enumerate() {
                assert_eq!(&cursor.next_inst(), want, "sm {sm} warp {warp} inst {i}");
            }
            // Past the end: implicit Exit, forever.
            assert_eq!(cursor.next_inst(), Inst::Exit);
            assert_eq!(cursor.next_inst(), Inst::Exit);
        }
    }

    #[test]
    fn unrecorded_warp_exits_immediately() {
        let bin = Trace::decode(&encode(&sample_trace())).expect("decodes");
        let mut cursor = bin.cursor(3, 9);
        assert_eq!(cursor.next_inst(), Inst::Exit);
    }

    #[test]
    fn cursor_state_roundtrip_matches_text_replay() {
        let trace = sample_trace();
        let bin = Trace::decode(&encode(&trace)).expect("decodes");
        let mut cursor = bin.cursor(0, 0);
        let _ = cursor.next_inst();
        let _ = cursor.next_inst();
        let mut state = Vec::new();
        cursor.save_state(&mut state);
        // One position word. Text-ingested replays run this same cursor,
        // so frames are interchangeable across formats.
        assert_eq!(state, [2]);

        let mut fresh = bin.cursor(0, 0);
        fresh.restore_state(&state).expect("restores");
        let expected = trace.stream(0, 0).expect("stream")[2].clone();
        assert_eq!(fresh.next_inst(), expected);
        assert!(fresh.restore_state(&[99]).is_err(), "position beyond stream");
        assert!(fresh.restore_state(&[0, 0]).is_err(), "wrong word count");
        // Restoring to exactly one-past-the-end is legal.
        let mut done = bin.cursor(0, 0);
        done.restore_state(&[6]).expect("one past end is legal");
        assert_eq!(done.next_inst(), Inst::Exit);
    }

    #[test]
    fn kernel_shape_helpers_match_text() {
        let bin = Trace::decode(&encode(&sample_trace())).expect("decodes");
        assert_eq!(bin.active_sms(8), 2);
        assert_eq!(bin.active_sms(1), 1);
        assert_eq!(bin.warps_per_sm(1), 4);
        assert_eq!(bin.warps_per_sm(0), 1);
        assert_eq!(bin.warps_per_sm(7), 1);
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = encode(&sample_trace());
        for cut in 0..bytes.len() {
            assert!(
                Trace::decode(&bytes[..cut]).is_err(),
                "prefix of {cut}/{} bytes must not decode",
                bytes.len()
            );
        }
    }

    #[test]
    fn every_bit_flip_is_rejected() {
        let bytes = encode(&sample_trace());
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[i] ^= 1 << bit;
                assert!(Trace::decode(&bad).is_err(), "flip of bit {bit} at byte {i} must not decode");
            }
        }
    }

    #[test]
    fn structural_corruption_is_typed() {
        let good = encode(&sample_trace());
        let mut magic = good.clone();
        magic[0] ^= 0xFF;
        assert!(matches!(Trace::decode(&magic), Err(BinTraceError::BadMagic)));
        assert!(matches!(Trace::decode(&good[..4]), Err(BinTraceError::Truncated { .. })));
        // Rebuild with a bumped version so the checksum stays valid.
        let trace = sample_trace();
        let body = encode(&trace);
        let mut v2 = body.clone();
        v2[8..12].copy_from_slice(&(BIN_FORMAT_VERSION + 1).to_le_bytes());
        assert!(matches!(Trace::decode(&v2), Err(BinTraceError::BadVersion { .. })));
        // A flipped data byte trips the data checksum specifically.
        let mut flipped = body.clone();
        let n = flipped.len();
        flipped[n - 10] ^= 0x01;
        assert!(matches!(Trace::decode(&flipped), Err(BinTraceError::BadChecksum { section: "data", .. })));
    }

    /// An index entry whose stream length is off by one still has
    /// checksums that match once rewritten; its stream's records are
    /// walked, and fail, before the index's own accounting is checked.
    #[test]
    fn a_stream_is_walked_before_later_index_checks() {
        let good = encode(&sample_trace());
        // Index body: stream count, then (sm, warp, insts, len) per
        // stream, every value one varint byte here.
        let (start, len_at) = (20, 24);
        assert_eq!(good[start..len_at], [2, 0, 0, 5]);
        let index_len = usize::from(good[12]);
        for (delta, want) in [(-1i8, "record 4: binary trace truncated"), (1, "has trailing record bytes")] {
            let mut bad = good.clone();
            bad[len_at] = bad[len_at].wrapping_add_signed(delta);
            let sum = fnv1a(&bad[start..start + index_len]);
            bad[start + index_len..start + index_len + 8].copy_from_slice(&sum.to_le_bytes());
            match Trace::decode(&bad) {
                Err(BinTraceError::Malformed(msg)) => {
                    assert!(msg.starts_with("stream (sm 0, warp 0)") && msg.contains(want), "{msg}");
                }
                other => panic!("stream length {delta:+}: {other:?}"),
            }
        }
    }

    #[test]
    fn empty_trace_roundtrips() {
        let trace = Trace::new();
        let bin = Trace::decode(&encode(&trace)).expect("decodes");
        assert_eq!(bin.warp_count(), 0);
        assert_eq!(bin.total_insts(), 0);
        assert_eq!(bin, trace);
    }

    #[test]
    fn file_roundtrip_is_atomic() {
        let dir = std::env::temp_dir().join("secmem-bintrace-test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("t.smtrc");
        let trace = sample_trace();
        write_file(&trace, &path).expect("writes");
        let bin = Trace::decode(&std::fs::read(&path).expect("reads")).expect("decodes");
        assert_eq!(bin, trace);
        assert!(!path.with_extension("smtrc.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// ALU records whose stall fits the tag byte take the walker's
    /// one-byte path, everything else the general decoder. A stream
    /// mixing every inline and spilled stall of both ALU kinds with
    /// loads and stores reads back identically through each reader, and
    /// a spilled stall that would fit the tag byte is still refused.
    #[test]
    fn alu_fast_path_reads_back_through_every_reader() {
        let mut insts = Vec::new();
        for stall in 0..=40u32 {
            insts.push(Inst::Alu { stall, wait_mem: false });
            insts.push(Inst::Alu { stall, wait_mem: true });
            if stall % 3 == 0 {
                let line_addr = u64::from(40 - stall) * 0x1_0080;
                let sectors = SectorMask(1 + (stall % 15) as u8);
                insts.push(Inst::Load {
                    accesses: vec![Access { line_addr, sectors }],
                    dependent: stall % 2 == 0,
                });
            }
            if stall % 7 == 0 {
                let accesses = (0..u64::from(stall % 5) + 1)
                    .map(|i| Access { line_addr: i * 0x80, sectors: FULL_SECTOR_MASK })
                    .collect();
                insts.push(Inst::Store { accesses });
            }
        }
        insts.push(Inst::Exit);
        let mut written = Trace::new();
        written.insert(0, 0, insts.clone());
        let trace = Trace::decode(&encode(&written)).expect("the validation walk accepts it");

        assert_eq!(trace.stream(0, 0).as_ref(), Some(&insts));
        let lines: String = insts.iter().map(|inst| serialize_inst(inst) + "\n").collect();
        assert_eq!(trace.to_text(), format!("{TRACE_HEADER}\nwarp 0 0\n{lines}"));
        let mut cursor = trace.cursor(0, 0);
        for (i, want) in insts.iter().enumerate() {
            assert_eq!(&cursor.next_inst(), want, "inst {i}");
        }
        assert_eq!(cursor.next_inst(), Inst::Exit);
        for pos in 0..=insts.len() {
            let mut restored = trace.cursor(0, 0);
            restored.restore_state(&[pos as u64]).expect("restores");
            for (i, want) in insts.iter().enumerate().skip(pos) {
                assert_eq!(&restored.next_inst(), want, "restored at {pos}, inst {i}");
            }
            assert_eq!(restored.next_inst(), Inst::Exit);
        }

        for kind in [KIND_ALU, KIND_ALU_WAIT] {
            for stall in [0, 1, 30] {
                let mut bad = Trace::new();
                let bytes = Arc::from(&[tag(kind, TAG_ARG_SPILL), stall][..]);
                bad.streams.insert((0, 0), EncodedStream { insts: 1, bytes });
                match Trace::decode(&encode(&bad)) {
                    Err(BinTraceError::Malformed(msg)) => {
                        assert!(msg.contains(&format!("spilled stall {stall} fits the tag byte")), "{msg}");
                    }
                    other => panic!("kind {kind}, spilled stall {stall}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn resident_bytes_tracks_backing_buffer() {
        let kernel = StreamKernel { alu_per_mem: 1, bytes_per_warp: 1 << 14, warps: 2 };
        let trace = Trace::record(&kernel, 2, 200);
        let bytes = encode(&trace);
        let bin = Trace::decode(&bytes).expect("decodes");
        assert!(bin.resident_bytes() < bytes.len() + 1024);
        // Well under the decoded instruction slots alone, before counting
        // the access lists hanging off loads and stores.
        assert!(bin.resident_bytes() * 4 < trace.total_insts() as usize * core::mem::size_of::<Inst>());
    }
}
