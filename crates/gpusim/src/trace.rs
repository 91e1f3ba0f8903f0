//! Warp-trace recording and replay.
//!
//! Lets users capture the instruction stream of any [`Kernel`] into a
//! portable text format and replay it later — e.g. to feed real
//! application traces (converted from NVBit/GPGPU-Sim captures) through
//! the secure-memory models, or to archive the exact workload behind a
//! result.
//!
//! Text is a load-time front end to the `SECMTRC` container
//! ([`crate::trace_bin`]): [`load`] and [`load_file`] parse text line
//! by line and encode each stream as it is read, so both formats replay
//! through the same streaming cursor and save the same checkpoint
//! state.
//!
//! # Format (`gpu-secure-memory trace v1`)
//!
//! ```text
//! # gpu-secure-memory trace v1
//! warp 0 0            # begin stream for SM 0, warp 0
//! A 1                 # ALU, 1-cycle stall
//! U 1                 # ALU consuming loaded data (wait_mem)
//! L 0 1a80:3 2b00:1   # load, dependent=0, accesses addr:sector-mask (hex:hex)
//! S 3c80:f            # store
//! X                   # warp exit
//! ```
//!
//! Numbers are written one way only, the way [`serialize_inst`] writes
//! them: decimal fields (indices, stalls) and lowercase hex fields
//! (addresses, masks) carry no sign and no leading zero, and addresses
//! are 128-byte line aligned. The parser rejects any other spelling
//! (`+1`, `A 01`, `warp 0 07`, `1A80`, `1a81:1`) with its line number
//! instead of normalizing it, so every instruction line it accepts
//! re-serializes to itself (up to the spacing between tokens).

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read as _};
use std::path::Path;
use std::str::SplitWhitespace;
use std::sync::Arc;

use crate::kernel::{Kernel, WarpProgram};
use crate::trace_bin::{self, EncodedStream, Records, StreamEncoder, StreamInfo};
use crate::types::{Access, Addr, Inst, SectorMask};

/// Magic first line of a trace file.
pub const TRACE_HEADER: &str = "# gpu-secure-memory trace v1";

/// Largest SM index a trace may name. A corrupt directive like
/// `warp 4000000000 0` would otherwise make the replay kernel claim
/// billions of SMs.
pub const MAX_TRACE_SM: u32 = 4096;

/// Largest warp index a trace may name (same rationale as
/// [`MAX_TRACE_SM`]).
pub const MAX_TRACE_WARP: u32 = 4096;

/// Most accesses a single load/store line may carry — one per lane of
/// the widest real warp, so anything larger is a malformed record.
pub const MAX_ACCESSES_PER_INST: usize = 64;

/// A parse failure, with the offending line number (1-based).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTraceError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl core::fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "trace parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseTraceError {}

/// Why a trace file could not be loaded: the read failed, or the
/// contents did not parse in whichever format the file announced.
#[derive(Debug)]
pub enum TraceLoadError {
    /// The file could not be read.
    Io(std::io::Error),
    /// The file contents are not a valid v1 text trace.
    Parse(ParseTraceError),
    /// The file carries the `SECMTRC` magic but is not a valid binary
    /// trace.
    Binary(trace_bin::BinTraceError),
}

impl core::fmt::Display for TraceLoadError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TraceLoadError::Io(e) => write!(f, "cannot read trace file: {e}"),
            TraceLoadError::Parse(e) => e.fmt(f),
            TraceLoadError::Binary(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for TraceLoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceLoadError::Io(e) => Some(e),
            TraceLoadError::Parse(e) => Some(e),
            TraceLoadError::Binary(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for TraceLoadError {
    fn from(e: std::io::Error) -> Self {
        TraceLoadError::Io(e)
    }
}

impl From<ParseTraceError> for TraceLoadError {
    fn from(e: ParseTraceError) -> Self {
        TraceLoadError::Parse(e)
    }
}

impl From<trace_bin::BinTraceError> for TraceLoadError {
    fn from(e: trace_bin::BinTraceError) -> Self {
        TraceLoadError::Binary(e)
    }
}

/// Serializes one instruction to its trace line.
pub fn serialize_inst(inst: &Inst) -> String {
    let mut out = String::new();
    serialize_inst_into(&mut out, inst);
    out
}

/// Appends one instruction's trace line (no newline) to `out`: the
/// buffer-reusing form [`Trace::write_text`] serializes millions of
/// lines through without an allocation per instruction. Fields are
/// written digit by digit rather than through `core::fmt`, which
/// dominated text export.
pub fn serialize_inst_into(out: &mut String, inst: &Inst) {
    let accesses = |out: &mut String, list: &[Access]| {
        for (i, a) in list.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            push_hex(out, a.line_addr);
            out.push(':');
            push_hex(out, u64::from(a.sectors.0));
        }
    };
    match inst {
        Inst::Alu { stall, wait_mem } => {
            out.push_str(if *wait_mem { "U " } else { "A " });
            push_dec(out, *stall);
        }
        Inst::Load { accesses: list, dependent } => {
            out.push_str(if *dependent { "L 1 " } else { "L 0 " });
            accesses(out, list);
        }
        Inst::Store { accesses: list } => {
            out.push_str("S ");
            accesses(out, list);
        }
        Inst::Exit => out.push('X'),
    }
}

/// Appends `n` in decimal: the spelling [`dec_field`] accepts.
fn push_dec(out: &mut String, n: u32) {
    let digits = n.checked_ilog10().unwrap_or(0) + 1;
    out.extend((0..digits).rev().map(|i| char::from(b'0' + (n / 10u32.pow(i) % 10) as u8)));
}

/// Appends `n` in lowercase hex without prefix or leading zeros: the
/// spelling [`hex_field`] accepts.
fn push_hex(out: &mut String, n: u64) {
    let nibbles = (u64::BITS - (n | 1).leading_zeros()).div_ceil(4);
    out.extend((0..nibbles).rev().map(|i| char::from(b"0123456789abcdef"[(n >> (4 * i)) as usize & 0xF])));
}

/// A decimal field in the one spelling the serializer writes: ASCII
/// digits, no sign, no leading zero (`0` itself excepted).
fn dec_field(tok: &str) -> Option<u32> {
    let canonical = tok.bytes().all(|b| b.is_ascii_digit()) && !(tok.len() > 1 && tok.starts_with('0'));
    canonical.then(|| tok.parse().ok()).flatten()
}

/// A hex field in the one spelling the serializer writes: lowercase hex
/// digits, no sign, no prefix, no leading zero (`0` itself excepted).
fn hex_field(tok: &str) -> Option<u64> {
    let canonical = tok.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'))
        && !(tok.len() > 1 && tok.starts_with('0'));
    canonical.then(|| u64::from_str_radix(tok, 16).ok()).flatten()
}

fn parse_accesses(parts: SplitWhitespace<'_>, line: usize) -> Result<Vec<Access>, ParseTraceError> {
    let count = parts.clone().count();
    if count == 0 {
        return Err(ParseTraceError { line, message: "memory instruction with no accesses".into() });
    }
    if count > MAX_ACCESSES_PER_INST {
        return Err(ParseTraceError {
            line,
            message: format!(
                "{count} accesses on one instruction exceeds the limit of {MAX_ACCESSES_PER_INST}"
            ),
        });
    }
    let mut accesses = Vec::with_capacity(count);
    for p in parts {
        let (addr, mask) = p
            .split_once(':')
            .ok_or_else(|| ParseTraceError { line, message: format!("access '{p}' is not addr:mask") })?;
        let addr: Addr = hex_field(addr)
            .ok_or_else(|| ParseTraceError { line, message: format!("bad address '{addr}'") })?;
        if !addr.is_multiple_of(128) {
            return Err(ParseTraceError {
                line,
                message: format!("address {addr:x} is not 128-byte line aligned"),
            });
        }
        let mask = hex_field(mask)
            .ok_or_else(|| ParseTraceError { line, message: format!("bad sector mask '{mask}'") })?;
        if mask == 0 || mask > 0xF {
            return Err(ParseTraceError { line, message: format!("mask {mask:#x} out of range") });
        }
        accesses.push(Access { line_addr: addr, sectors: SectorMask(mask as u8) });
    }
    Ok(accesses)
}

/// Parses one instruction line. Tokens are taken straight from the
/// line, so bulk ingestion ([`Trace::from_text`]) needs no token buffer.
pub fn parse_inst(text: &str, line: usize) -> Result<Inst, ParseTraceError> {
    let mut tokens = text.split_whitespace();
    let Some(op) = tokens.next() else {
        return Err(ParseTraceError { line, message: "empty line".into() });
    };
    // Tokens the serializer would not write back are rejected, not
    // dropped, so a text -> SECMTRC -> text round trip cannot lose them.
    let trailing = |extra: SplitWhitespace<'_>| {
        let extra: Vec<&str> = extra.collect();
        match extra.as_slice() {
            [] => Ok(()),
            _ => Err(ParseTraceError {
                line,
                message: format!("trailing tokens after '{op}': '{}'", extra.join(" ")),
            }),
        }
    };
    let stall = |mut rest: SplitWhitespace<'_>| -> Result<u32, ParseTraceError> {
        let stall = rest.next().and_then(dec_field).ok_or_else(|| ParseTraceError {
            line,
            message: "ALU needs a stall count (decimal, no sign or leading zero)".into(),
        })?;
        trailing(rest)?;
        Ok(stall)
    };
    match op {
        "A" => Ok(Inst::Alu { stall: stall(tokens)?, wait_mem: false }),
        "U" => Ok(Inst::Alu { stall: stall(tokens)?, wait_mem: true }),
        "L" => {
            let dependent = match tokens.next() {
                Some("0") => false,
                Some("1") => true,
                _ => {
                    return Err(ParseTraceError {
                        line,
                        message: "load dependent flag must be 0 or 1".into(),
                    })
                }
            };
            Ok(Inst::Load { accesses: parse_accesses(tokens, line)?, dependent })
        }
        "S" => Ok(Inst::Store { accesses: parse_accesses(tokens, line)? }),
        "X" => trailing(tokens).map(|()| Inst::Exit),
        other => Err(ParseTraceError { line, message: format!("unknown opcode '{other}'") }),
    }
}

/// A multi-warp trace: the one in-memory form, whether recorded, parsed
/// or decoded from a `SECMTRC` file. Each `(sm, warp)` stream is its
/// instruction count plus its `SECMTRC` record bytes (exactly what
/// [`trace_bin::encode`] writes for it) in a buffer its replay cursors
/// share, never decoded instructions. Equality compares the bytes; the
/// encoding is canonical, so equal streams mean equal bytes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// The streams, keyed and so ordered by `(sm, warp)`.
    pub(crate) streams: BTreeMap<(u32, u32), EncodedStream>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the first `max_insts` instructions of every warp of
    /// `kernel` (stopping early at `Exit`), encoding each as the kernel
    /// yields it.
    pub fn record(kernel: &dyn Kernel, sms: u32, max_insts: usize) -> Self {
        let mut trace = Self::new();
        let active = kernel.active_sms(sms);
        for sm in 0..active {
            for warp in 0..kernel.warps_per_sm(sm) {
                let mut program = kernel.spawn(sm, warp);
                let mut encoder = StreamEncoder::default();
                for _ in 0..max_insts {
                    let inst = program.next_inst();
                    encoder.push(&inst);
                    if matches!(inst, Inst::Exit) {
                        break;
                    }
                }
                trace.streams.insert((sm, warp), encoder.finish());
            }
        }
        trace
    }

    /// Adds (or replaces) one warp's stream, encoding the instructions
    /// as they are taken from `insts`. They must be instructions a trace
    /// file can hold: 1..=[`MAX_ACCESSES_PER_INST`] line-aligned accesses
    /// per load or store, each with a non-empty sector mask.
    pub fn insert(&mut self, sm: u32, warp: u32, insts: impl IntoIterator<Item = Inst>) {
        let mut encoder = StreamEncoder::default();
        for inst in insts {
            encoder.push(&inst);
        }
        self.streams.insert((sm, warp), encoder.finish());
    }

    /// A decoded copy of a warp's instruction stream, if recorded.
    pub fn stream(&self, sm: u32, warp: u32) -> Option<Vec<Inst>> {
        self.streams.get(&(sm, warp)).map(|s| Records::new(&*s.bytes, s.insts).collect())
    }

    /// Number of recorded warps.
    pub fn warp_count(&self) -> usize {
        self.streams.len()
    }

    /// Per-stream summaries, in ascending `(sm, warp)` order.
    pub fn streams(&self) -> impl Iterator<Item = StreamInfo> + '_ {
        self.streams.iter().map(|(&(sm, warp), s)| StreamInfo {
            sm,
            warp,
            insts: s.insts,
            bytes: s.bytes.len(),
        })
    }

    /// Total recorded instructions across all streams.
    pub fn total_insts(&self) -> u64 {
        self.streams.values().map(|s| s.insts).sum()
    }

    /// Bytes the trace keeps resident: each stream's records plus its
    /// map entry and `Arc` header. Replay adds one small cursor per warp,
    /// never a decoded copy of a stream.
    pub fn resident_bytes(&self) -> usize {
        let per_stream =
            core::mem::size_of::<((u32, u32), EncodedStream)>() + 2 * core::mem::size_of::<usize>();
        self.streams.values().map(|s| s.bytes.len() + per_stream).sum()
    }

    /// Highest recorded SM index + 1, capped at `available` (the shape
    /// [`TraceKernel`] reports).
    pub fn active_sms(&self, available: u32) -> u32 {
        self.streams.last_key_value().map_or(1, |(&(sm, _), _)| sm + 1).min(available)
    }

    /// Highest recorded warp index + 1 on `sm` (1 when none recorded).
    pub fn warps_per_sm(&self, sm: u32) -> u32 {
        self.streams.range((sm, 0)..=(sm, u32::MAX)).next_back().map_or(1, |(&(_, warp), _)| warp + 1)
    }

    /// Streams the v1 text serialization into `sink` (warps in
    /// ascending `(sm, warp)` order) without materializing the whole
    /// document or any decoded stream: records are decoded one at a
    /// time and one line buffer is reused across the run, so exporting
    /// a large trace costs O(longest line) extra memory.
    ///
    /// # Errors
    ///
    /// Any I/O error from the sink.
    pub fn write_text<W: std::io::Write>(&self, sink: &mut W) -> std::io::Result<()> {
        writeln!(sink, "{TRACE_HEADER}")?;
        let mut line = String::new();
        for ((sm, warp), stream) in &self.streams {
            writeln!(sink, "warp {sm} {warp}")?;
            for inst in Records::new(&*stream.bytes, stream.insts) {
                line.clear();
                serialize_inst_into(&mut line, &inst);
                line.push('\n');
                sink.write_all(line.as_bytes())?;
            }
        }
        Ok(())
    }

    /// Serializes to the v1 text format in memory (see
    /// [`Trace::write_text`] for the streaming form this wraps).
    pub fn to_text(&self) -> String {
        let mut out = Vec::new();
        // Writing into a Vec<u8> cannot fail, and the serializer emits
        // only ASCII.
        let _ = self.write_text(&mut out);
        String::from_utf8(out).expect("trace text is ASCII")
    }

    /// Parses the v1 text format from `reader` line by line, encoding
    /// each instruction line as it is parsed. One line buffer is reused
    /// for the whole run, so parsing holds the records and the longest
    /// line, never the whole text. Lines end at `\n`; a `\r` before it
    /// is whitespace like any other.
    ///
    /// # Errors
    ///
    /// [`TraceLoadError::Parse`] for the first malformed line (a line
    /// that is not UTF-8 included), [`TraceLoadError::Io`] if reading
    /// fails.
    pub fn from_text(mut reader: impl BufRead) -> Result<Self, TraceLoadError> {
        let mut trace = Self::new();
        let mut current: Option<((u32, u32), StreamEncoder)> = None;
        let missing_header =
            || ParseTraceError { line: 1, message: format!("missing header '{TRACE_HEADER}'") };
        let mut buf = Vec::new();
        let mut line_no = 0;
        loop {
            buf.clear();
            if reader.read_until(b'\n', &mut buf)? == 0 {
                break;
            }
            line_no += 1;
            let raw = core::str::from_utf8(&buf)
                .map_err(|e| ParseTraceError { line: line_no, message: format!("line is not UTF-8: {e}") })?;
            if line_no == 1 {
                if raw.trim() != TRACE_HEADER {
                    return Err(missing_header().into());
                }
                continue;
            }
            let text = raw.split('#').next().unwrap_or("").trim();
            if text.is_empty() {
                continue;
            }
            if let Some(rest) = text.strip_prefix("warp ") {
                let mut it = rest.split_whitespace();
                let sm = it.next().and_then(dec_field);
                let warp = it.next().and_then(dec_field);
                match (sm, warp, it.next()) {
                    (Some(sm), Some(warp), None) => {
                        if sm > MAX_TRACE_SM || warp > MAX_TRACE_WARP {
                            return Err(ParseTraceError {
                                line: line_no,
                                message: format!(
                                    "stream 'warp {sm} {warp}' exceeds limits \
                                     ({MAX_TRACE_SM} SMs, {MAX_TRACE_WARP} warps)"
                                ),
                            }
                            .into());
                        }
                        if let Some((key, encoder)) = current.take() {
                            trace.streams.insert(key, encoder.finish());
                        }
                        if trace.streams.contains_key(&(sm, warp)) {
                            // Silently merging (or last-wins replacing) a
                            // repeated stream would corrupt the replay.
                            return Err(ParseTraceError {
                                line: line_no,
                                message: format!("duplicate stream 'warp {sm} {warp}'"),
                            }
                            .into());
                        }
                        current = Some(((sm, warp), StreamEncoder::default()));
                    }
                    _ => {
                        return Err(ParseTraceError {
                            line: line_no,
                            message: format!("bad warp directive '{text}'"),
                        }
                        .into())
                    }
                }
                continue;
            }
            let Some((_, encoder)) = current.as_mut() else {
                return Err(ParseTraceError {
                    line: line_no,
                    message: "instruction before any 'warp' directive".into(),
                }
                .into());
            };
            encoder.push(&parse_inst(text, line_no)?);
        }
        if line_no == 0 {
            return Err(missing_header().into());
        }
        if let Some((key, encoder)) = current {
            trace.streams.insert(key, encoder.finish());
        }
        Ok(trace)
    }
}

/// Loads trace bytes in either on-disk format: bytes starting with the
/// `SECMTRC` magic decode as a binary container; anything else parses
/// as v1 text, each stream encoded to `SECMTRC` records as it is parsed.
/// This and [`load_file`] are the only places that pick a decoder.
/// Every [`Trace`] they return holds only records [`Trace::decode`]'s
/// full validation accepts: the text parser enforces the same field
/// limits.
///
/// # Errors
///
/// [`TraceLoadError::Binary`] for a malformed container,
/// [`TraceLoadError::Parse`] for text that is not a valid v1 trace
/// (with the number of the first bad line, a non-UTF-8 one included).
pub fn load(bytes: &[u8]) -> Result<Trace, TraceLoadError> {
    if Trace::sniff(bytes) {
        return Ok(Trace::decode(bytes)?);
    }
    Trace::from_text(bytes)
}

/// Loads a trace file in either format, picked by its first 8 bytes
/// the way [`load`] picks. A `SECMTRC` file goes through the one
/// decode routine behind [`Trace::decode`], reading the index and then
/// each stream's records into that stream's own buffer, so loading
/// holds one copy of the records, never the file whole. The file is
/// read through a small buffer, so fixed fields and short streams cost
/// no system call each; a stream longer than it is read straight into
/// its own buffer. A text
/// file is parsed line by line through a buffered reader, so its text
/// is never resident either: loading holds the encoded records and one
/// line.
///
/// # Errors
///
/// [`TraceLoadError::Io`] if the file cannot be opened, its first bytes
/// read or its length found; a `SECMTRC` read that fails part-way is a
/// [`trace_bin::BinTraceError::Io`]. Otherwise what [`load`] reports
/// for the same bytes.
pub fn load_file(path: &Path) -> Result<Trace, TraceLoadError> {
    let mut file = std::fs::File::open(path)?;
    let mut head = Vec::new();
    (&mut file).take(trace_bin::BIN_MAGIC.len() as u64).read_to_end(&mut head)?;
    if !Trace::sniff(&head) {
        return Trace::from_text(BufReader::new(head.as_slice().chain(file)));
    }
    let meta = file.metadata()?;
    if !meta.is_file() {
        // A pipe or device gives no length to check the sections
        // against up front: read it whole.
        file.read_to_end(&mut head)?;
        return Ok(Trace::decode(&head)?);
    }
    let len = usize::try_from(meta.len()).unwrap_or(usize::MAX);
    Ok(trace_bin::decode_from(head.as_slice().chain(BufReader::new(file)), len)?)
}

/// Replays a [`Trace`] as a [`Kernel`]: each recorded warp runs its
/// stream once and exits; unrecorded warps exit immediately.
///
/// Every warp replays through a streaming cursor over its stream's
/// shared, immutable record buffer (see [`crate::trace_bin`]), whichever
/// format the trace was ingested from, so a paper-scale trace never
/// materializes its decoded instruction vectors.
#[derive(Debug, Clone)]
pub struct TraceKernel {
    trace: Arc<Trace>,
    name: String,
}

impl TraceKernel {
    /// Wraps a trace for streaming replay.
    pub fn from_binary(trace: Trace, name: impl Into<String>) -> Self {
        Self { trace: Arc::new(trace), name: name.into() }
    }

    /// Loads a trace file in either format through [`load_file`].
    ///
    /// # Errors
    ///
    /// Any error from [`load_file`].
    pub fn from_file(path: &Path) -> Result<Self, TraceLoadError> {
        let trace = load_file(path)?;
        let name = path.file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
        Ok(Self::from_binary(trace, name))
    }

    /// Always `true`: text traces are encoded at load time, so every
    /// ingestion path replays streamed. Kept because the benchmark
    /// harness checks it before timing a replay.
    pub fn is_streamed(&self) -> bool {
        true
    }

    /// The trace this kernel replays.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }
}

impl Kernel for TraceKernel {
    fn active_sms(&self, available: u32) -> u32 {
        self.trace.active_sms(available)
    }

    fn warps_per_sm(&self, sm: u32) -> u32 {
        self.trace.warps_per_sm(sm)
    }

    fn spawn(&self, sm: u32, warp: u32) -> Box<dyn WarpProgram + Send> {
        Box::new(self.trace.cursor(sm, warp))
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::PassthroughBackend;
    use crate::config::GpuConfig;
    use crate::kernel::StreamKernel;
    use crate::sim::Simulator;
    use crate::types::FULL_SECTOR_MASK;

    /// The parse error `from_text` reports for `text`.
    fn parse_error(text: &str) -> ParseTraceError {
        match Trace::from_text(text.as_bytes()) {
            Err(TraceLoadError::Parse(e)) => e,
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    fn sample_insts() -> Vec<Inst> {
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
        ]
    }

    #[test]
    fn hand_rolled_fields_match_core_fmt() {
        let mut rng = crate::rng::Rng64::new(0xF1E1D);
        let edges = [0, 1, 9, 10, 15, 16, 99, 100, 0xFFFF_FFFF, 1 << 32, u64::MAX >> 4, u64::MAX];
        let randoms: Vec<u64> = (0..2000).map(|i| rng.next_u64() >> (i % 64)).collect();
        for &n in edges.iter().chain(&randoms) {
            let mut out = String::new();
            push_hex(&mut out, n);
            assert_eq!(out, format!("{n:x}"));
            let n = n as u32;
            out.clear();
            push_dec(&mut out, n);
            assert_eq!(out, n.to_string());
        }
    }

    #[test]
    fn text_roundtrip() {
        let mut trace = Trace::new();
        trace.insert(0, 0, sample_insts());
        trace.insert(1, 3, vec![Inst::alu(), Inst::Exit]);
        let text = trace.to_text();
        assert!(text.starts_with(TRACE_HEADER));
        let back = Trace::from_text(text.as_bytes()).expect("parses");
        assert_eq!(back, trace);
        // CRLF line endings, with and without a final one, load alike.
        let crlf = text.replace('\n', "\r\n");
        assert_eq!(Trace::from_text(crlf.as_bytes()).expect("CRLF parses"), trace);
        assert_eq!(Trace::from_text(crlf.trim_end().as_bytes()).expect("parses"), trace);
    }

    #[test]
    fn serialize_forms() {
        assert_eq!(serialize_inst(&Inst::alu()), "A 1");
        assert_eq!(serialize_inst(&Inst::use_mem()), "U 1");
        assert_eq!(serialize_inst(&Inst::Exit), "X");
        let l = serialize_inst(&sample_insts()[1]);
        assert_eq!(l, "L 1 1a80:3 2b00:1");
        assert_eq!(parse_inst(&l, 1).expect("parses"), sample_insts()[1]);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Trace::from_text("not a trace".as_bytes()).is_err());
        let bad_op = format!("{TRACE_HEADER}\nwarp 0 0\nZ 1\n");
        let err = parse_error(&bad_op);
        assert_eq!(err.line, 3);
        let bad_mask = format!("{TRACE_HEADER}\nwarp 0 0\nL 0 80:ff\n");
        assert!(Trace::from_text(bad_mask.as_bytes()).is_err());
        let orphan = format!("{TRACE_HEADER}\nA 1\n");
        assert!(Trace::from_text(orphan.as_bytes()).is_err());
    }

    #[test]
    fn oversized_indices_and_counts_rejected() {
        let huge_sm = format!("{TRACE_HEADER}\nwarp 4000000000 0\nX\n");
        let err = parse_error(&huge_sm);
        assert!(err.message.contains("exceeds limits"), "message: {}", err.message);
        let huge_warp = format!("{TRACE_HEADER}\nwarp 0 999999\nX\n");
        assert!(Trace::from_text(huge_warp.as_bytes()).is_err());
        let wide = (0..=MAX_ACCESSES_PER_INST).map(|i| format!("{:x}:f", i * 128)).collect::<Vec<_>>();
        let line = format!("L 0 {}", wide.join(" "));
        let err = parse_inst(&line, 1).expect_err("too many accesses");
        assert!(err.message.contains("limit"), "message: {}", err.message);
        // Exactly at the limit still parses.
        let line = format!("L 0 {}", wide[..MAX_ACCESSES_PER_INST].join(" "));
        assert!(parse_inst(&line, 1).is_ok());
    }

    #[test]
    fn truncated_records_rejected() {
        for bad in ["A", "U", "L", "L 0", "S", "L 1 80", "L 7 80:f", "L 01 80:f"] {
            let text = format!("{TRACE_HEADER}\nwarp 0 0\n{bad}\n");
            assert!(Trace::from_text(text.as_bytes()).is_err(), "'{bad}' should not parse");
        }
    }

    #[test]
    fn non_canonical_numbers_are_rejected_not_normalized() {
        for bad in [
            "A +1",
            "A 01",
            "U 007",
            "A -1",
            "L 0 +80:f",
            "L 0 080:f",
            "L 0 80:0f",
            "L 0 80:+f",
            "S 1A80:3",
            "S 0x80:3",
            "L 1 0:f 100:F",
        ] {
            let text = format!("{TRACE_HEADER}\nwarp 0 0\nA 1\n{bad}\nX\n");
            let err = parse_error(&text);
            assert_eq!(err.line, 4, "'{bad}': {}", err.message);
            assert!(matches!(
                load(text.as_bytes()),
                Err(TraceLoadError::Parse(ParseTraceError { line: 4, .. }))
            ));
        }
        for bad in ["warp 0 07", "warp +1 0", "warp 00 0", "warp 0 1e1"] {
            let text = format!("{TRACE_HEADER}\nwarp 2 0\nX\n{bad}\nX\n");
            let err = parse_error(&text);
            assert_eq!(err.line, 4, "'{bad}': {}", err.message);
            assert!(err.message.contains("warp directive"), "'{bad}': {}", err.message);
        }
        // Zero itself is canonical.
        let zero = format!("{TRACE_HEADER}\nwarp 0 0\nA 0\nL 0 0:1\nX\n");
        assert!(Trace::from_text(zero.as_bytes()).is_ok());
    }

    #[test]
    fn unaligned_addresses_are_rejected() {
        for bad in ["L 0 1a81:3", "S 3c90:f", "L 1 100:f 17f:1", "L 0 ffffffffffffffff:f"] {
            let text = format!("{TRACE_HEADER}\nwarp 0 0\n{bad}\nX\n");
            let err = parse_error(&text);
            assert_eq!(err.line, 3, "'{bad}': {}", err.message);
            assert!(err.message.contains("aligned"), "'{bad}': {}", err.message);
        }
        assert!(parse_inst("L 0 ffffffffffffff80:f", 1).is_ok(), "the top line of the address space");
    }

    /// Every instruction line `load` accepts comes back from the loaded
    /// trace and re-serializes to itself (tokens joined by one space).
    #[test]
    fn accepted_instruction_lines_reserialize_to_themselves() {
        const OPS: [&str; 7] = ["A", "U", "L", "S", "X", "Z", "a"];
        const TOKENS: [&str; 24] = [
            "0",
            "1",
            "7",
            "10",
            "01",
            "+1",
            "-1",
            "4294967295",
            "4294967296",
            "80:f",
            "100:3",
            "0:1",
            "1a80:3",
            "1A80:3",
            "1a81:3",
            "080:f",
            "80:0f",
            "80:10",
            "80:0",
            "+80:f",
            "ffffffffffffff80:8",
            "80",
            ":f",
            "",
        ];
        let mut rng = crate::rng::Rng64::new(0x7ACE);
        let mut accepted = 0;
        for _ in 0..20_000 {
            let mut tokens = vec![OPS[rng.gen_range(OPS.len() as u64) as usize]];
            for _ in 0..rng.gen_range(4) {
                tokens.push(TOKENS[rng.gen_range(TOKENS.len() as u64) as usize]);
            }
            let spaces = if rng.one_in(4) { "  " } else { " " };
            let line = tokens.join(spaces);
            let text = format!("{TRACE_HEADER}\nwarp 0 0\n{line}\n");
            let Ok(trace) = load(text.as_bytes()) else { continue };
            accepted += 1;
            let stream = trace.stream(0, 0).expect("the one stream");
            assert_eq!(stream.len(), 1, "'{line}'");
            let canonical = line.split_whitespace().collect::<Vec<_>>().join(" ");
            assert_eq!(serialize_inst(&stream[0]), canonical, "'{line}' loads but re-serializes differently");
        }
        assert!(accepted > 1_000, "the generator must reach the accepting paths ({accepted} accepted)");
    }

    #[test]
    fn duplicate_warp_header_rejected() {
        let text = format!("{TRACE_HEADER}\nwarp 0 0\nA 1\nwarp 0 0\nA 2\nX\n");
        let err = parse_error(&text);
        assert_eq!(err.line, 4);
        assert!(err.message.contains("duplicate"), "message: {}", err.message);
        // Distinct warps on the same SM are of course still fine.
        let ok = format!("{TRACE_HEADER}\nwarp 0 0\nX\nwarp 0 1\nX\n");
        assert_eq!(Trace::from_text(ok.as_bytes()).expect("parses").warp_count(), 2);
    }

    #[test]
    fn trailing_tokens_after_exit_rejected() {
        let text = format!("{TRACE_HEADER}\nwarp 0 0\nX 1\n");
        let err = parse_error(&text);
        assert_eq!(err.line, 3);
        assert!(err.message.contains("trailing"), "message: {}", err.message);
        assert!(parse_inst("X junk", 1).is_err());
        for bad in ["warp 0 0 extra", "A 1 junk", "U 2 3"] {
            let text = format!("{TRACE_HEADER}\nwarp 1 0\n{bad}\nX\n");
            let err = parse_error(&text);
            assert_eq!(err.line, 3, "'{bad}': {}", err.message);
        }
        // A trailing comment is stripped before parsing and stays legal.
        let commented = format!("{TRACE_HEADER}\nwarp 0 0\nX # done\n");
        assert!(Trace::from_text(commented.as_bytes()).is_ok());
    }

    #[test]
    fn rejection_roundtrip_of_valid_traces_unaffected() {
        // Round-trip through text twice: rejects nothing valid, and the
        // second pass reproduces the first exactly.
        let kernel = StreamKernel { alu_per_mem: 1, bytes_per_warp: 4096, warps: 3 };
        let trace = Trace::record(&kernel, 2, 32);
        let text = trace.to_text();
        let back = Trace::from_text(text.as_bytes()).expect("valid text parses");
        assert_eq!(back, trace);
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = format!("{TRACE_HEADER}\n\nwarp 0 0  # first warp\nA 4 # compute\nX\n");
        let trace = Trace::from_text(text.as_bytes()).expect("parses");
        assert_eq!(
            trace.stream(0, 0).expect("warp recorded"),
            &[Inst::Alu { stall: 4, wait_mem: false }, Inst::Exit]
        );
    }

    #[test]
    fn record_captures_kernel() {
        let kernel = StreamKernel { alu_per_mem: 1, bytes_per_warp: 4096, warps: 2 };
        let trace = Trace::record(&kernel, 2, 16);
        assert_eq!(trace.warp_count(), 4);
        let s = trace.stream(0, 0).expect("recorded");
        assert_eq!(s.len(), 16, "infinite kernel truncated at max_insts");
        assert!(s.iter().any(|i| matches!(i, Inst::Load { .. })));
    }

    #[test]
    fn recorded_trace_replays_equivalently() {
        let kernel = StreamKernel { alu_per_mem: 2, bytes_per_warp: 1 << 16, warps: 4 };
        let trace = Trace::record(&kernel, 4, 200);
        let bin = Trace::decode(&trace_bin::encode(&trace)).expect("decodes");
        let replay = TraceKernel::from_binary(bin, "stream-replay");
        let cfg = GpuConfig::small();
        let mut sim = Simulator::new(cfg, &replay, |_, g| PassthroughBackend::from_config(g));
        let report = sim.run(50_000);
        // 4 SMs x 4 warps x 200 instructions, all retired.
        assert_eq!(report.warp_instructions, 4 * 4 * 200);
    }

    /// A pipe has no length to read a SECMTRC file by, so `load_file`
    /// reads it whole and decodes it like a regular file.
    #[cfg(target_os = "linux")]
    #[test]
    fn load_file_reads_a_pipe() {
        use std::io::Write as _;
        use std::os::fd::AsRawFd as _;
        let mut trace = Trace::new();
        trace.insert(0, 0, sample_insts());
        for bytes in [trace_bin::encode(&trace), trace.to_text().into_bytes()] {
            let (reader, mut writer) = std::io::pipe().expect("pipe");
            writer.write_all(&bytes).expect("fits the pipe buffer");
            drop(writer);
            let path = std::path::PathBuf::from(format!("/proc/self/fd/{}", reader.as_raw_fd()));
            assert_eq!(load_file(&path).expect("loads from the pipe"), trace);
        }
    }

    /// Replays fixed instruction lists, one per warp of SM 0, then
    /// `Exit` forever; a list that ends in an ALU op repeats it forever
    /// instead, so only `max_insts` can cut it.
    struct ListKernel(Vec<Vec<Inst>>);

    struct ListProgram(std::vec::IntoIter<Inst>, Inst);

    impl WarpProgram for ListProgram {
        fn next_inst(&mut self) -> Inst {
            self.0.next().unwrap_or_else(|| self.1.clone())
        }

        fn save_state(&self, _out: &mut Vec<u64>) {}

        fn restore_state(&mut self, _state: &[u64]) -> Result<(), crate::kernel::StateError> {
            Ok(())
        }
    }

    impl Kernel for ListKernel {
        fn active_sms(&self, _available: u32) -> u32 {
            1
        }

        fn warps_per_sm(&self, _sm: u32) -> u32 {
            self.0.len() as u32
        }

        fn spawn(&self, _sm: u32, warp: u32) -> Box<dyn WarpProgram + Send> {
            let list = self.0[warp as usize].clone();
            let tail = match list.last() {
                Some(alu @ Inst::Alu { .. }) => alu.clone(),
                _ => Inst::Exit,
            };
            Box::new(ListProgram(list.into_iter(), tail))
        }
    }

    /// `n` accesses at descending, non-contiguous lines, so the block
    /// deltas are negative and multi-byte.
    fn wide(n: u64) -> Vec<Access> {
        (0..n).map(|i| Access::new((n - i) * 0x1_0000 * 128, SectorMask(1 + (i % 15) as u8))).collect()
    }

    /// `record`, `insert` and `from_text` share one stream encoder: the
    /// same streams built all three ways give identical bytes and text,
    /// at the encoder's edges (spilled stalls and access counts, a
    /// stream cut at `max_insts` with no `Exit`, an empty stream).
    #[test]
    fn record_insert_and_parse_encode_identically() {
        const MAX: usize = 6;
        let spilled = vec![
            Inst::Alu { stall: 30, wait_mem: false },
            Inst::Alu { stall: 31, wait_mem: false },
            Inst::Alu { stall: 32, wait_mem: true },
            Inst::Alu { stall: u32::MAX, wait_mem: false },
            Inst::Exit,
        ];
        let counts = vec![
            Inst::Load { accesses: wide(30), dependent: false },
            Inst::Load { accesses: wide(31), dependent: true },
            Inst::Store { accesses: wide(MAX_ACCESSES_PER_INST as u64) },
            Inst::Exit,
        ];
        let endless =
            vec![Inst::Load { accesses: wide(2), dependent: false }, Inst::Alu { stall: 40, wait_mem: true }];
        let lists = vec![spilled, counts, endless];
        // What `record` yields with the cut applied: the endless warp
        // repeats its ALU op up to `MAX` and carries no `Exit`.
        let expected: Vec<Vec<Inst>> = lists
            .iter()
            .map(|l| {
                let tail = l.last().cloned().filter(|i| !matches!(i, Inst::Exit)).into_iter().cycle();
                l.iter().cloned().chain(tail).take(MAX).collect()
            })
            .collect();
        assert!(!expected[2].contains(&Inst::Exit) && expected[2].len() == MAX);

        let recorded = Trace::record(&ListKernel(lists.clone()), 8, MAX);
        let mut inserted = Trace::new();
        let mut text = format!("{TRACE_HEADER}\n");
        for (warp, insts) in expected.iter().enumerate() {
            inserted.insert(0, warp as u32, insts.clone());
            text.push_str(&format!("warp 0 {warp}\n"));
            for inst in insts {
                text.push_str(&serialize_inst(inst));
                text.push('\n');
            }
        }
        let parsed = Trace::from_text(text.as_bytes()).expect("parses");
        assert_eq!(recorded.to_text(), text);
        for (how, trace) in [("insert", &inserted), ("from_text", &parsed)] {
            assert_eq!(trace, &recorded, "{how}");
            assert_eq!(trace_bin::encode(trace), trace_bin::encode(&recorded), "{how}");
            assert_eq!(trace.to_text(), text, "{how}");
        }
        for (warp, insts) in expected.iter().enumerate() {
            assert_eq!(recorded.stream(0, warp as u32).as_ref(), Some(insts), "warp {warp}");
        }

        // An empty stream: recorded with no budget, inserted empty, and
        // a directive with no instruction lines.
        let recorded = Trace::record(&ListKernel(vec![vec![Inst::Exit]]), 8, 0);
        let mut inserted = Trace::new();
        inserted.insert(0, 0, []);
        let text = format!("{TRACE_HEADER}\nwarp 0 0\n");
        let parsed = Trace::from_text(text.as_bytes()).expect("parses");
        for (how, trace) in [("insert", &inserted), ("from_text", &parsed)] {
            assert_eq!(trace, &recorded, "{how}");
            assert_eq!(trace_bin::encode(trace), trace_bin::encode(&recorded), "{how}");
            assert_eq!(trace.to_text(), text, "{how}");
        }
        assert_eq!(recorded.stream(0, 0), Some(Vec::new()));
        assert_eq!(recorded.total_insts(), 0);
    }

    /// `record` ends a warp's stream at its `Exit` or after `max_insts`
    /// instructions, whichever comes first. Warps exiting before the
    /// budget, exactly at it, one past it and never, and a zero budget,
    /// all give the bytes of `insert` of the instructions taken one by
    /// one up to and including the first `Exit`.
    #[test]
    fn record_stops_at_exit_or_max_insts() {
        const MAX: usize = 5;
        let alus = |n: usize| vec![Inst::Alu { stall: 2, wait_mem: false }; n];
        let kernel = ListKernel(vec![
            [alus(2), vec![Inst::Exit]].concat(),
            [alus(MAX - 1), vec![Inst::Exit]].concat(),
            [alus(MAX), vec![Inst::Exit]].concat(),
            vec![Inst::Load { accesses: wide(3), dependent: true }, Inst::Alu { stall: 7, wait_mem: true }],
        ]);
        for max_insts in [0, 1, MAX - 1, MAX, MAX + 1, 3 * MAX] {
            let mut expected = Trace::new();
            for warp in 0..kernel.warps_per_sm(0) {
                let mut program = kernel.spawn(0, warp);
                let mut exited = false;
                let insts = std::iter::from_fn(|| {
                    (!exited).then(|| {
                        let inst = program.next_inst();
                        exited = matches!(inst, Inst::Exit);
                        inst
                    })
                });
                expected.insert(0, warp, insts.take(max_insts));
            }
            let recorded = Trace::record(&kernel, 8, max_insts);
            assert_eq!(trace_bin::encode(&recorded), trace_bin::encode(&expected), "max_insts {max_insts}");
            assert_eq!(recorded.warp_count(), 4, "max_insts {max_insts}");
        }
        let recorded = Trace::record(&kernel, 8, MAX);
        let lens: Vec<u64> = recorded.streams().map(|s| s.insts).collect();
        assert_eq!(lens, [3, 5, 5, 5]);
        let last = |warp| recorded.stream(0, warp).and_then(|s| s.last().cloned());
        assert_eq!((last(0), last(1)), (Some(Inst::Exit), Some(Inst::Exit)));
        assert_eq!(last(2), Some(Inst::Alu { stall: 2, wait_mem: false }));
        assert_eq!(last(3), Some(Inst::Alu { stall: 7, wait_mem: true }));
    }

    #[test]
    fn file_roundtrip() {
        let mut trace = Trace::new();
        trace.insert(0, 0, sample_insts());
        let dir = std::env::temp_dir().join("secmem_trace_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("sample.trace");
        std::fs::write(&path, trace.to_text()).expect("write");
        let k = TraceKernel::from_file(&path).expect("loads");
        assert_eq!(k.name(), "sample");
        assert_eq!(k.warps_per_sm(0), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_errors_are_typed() {
        let missing = std::env::temp_dir().join("secmem_trace_no_such_dir").join("absent.trace");
        assert!(matches!(TraceKernel::from_file(&missing), Err(TraceLoadError::Io(_))));
        let bad_op = format!("{TRACE_HEADER}\nwarp 0 0\nZ 1\n");
        assert!(matches!(
            load(bad_op.as_bytes()),
            Err(TraceLoadError::Parse(ParseTraceError { line: 3, .. }))
        ));
        assert!(matches!(load(b"\xff\xfe"), Err(TraceLoadError::Parse(ParseTraceError { line: 1, .. }))));
        // Each line is decoded on its own: a non-UTF-8 line fails at its
        // own number, in a comment too.
        for bad in [&b"\xff\n"[..], b"X # \xc3\n"] {
            let mut text = format!("{TRACE_HEADER}\nwarp 0 0\n").into_bytes();
            text.extend_from_slice(bad);
            assert!(matches!(load(&text), Err(TraceLoadError::Parse(ParseTraceError { line: 3, .. }))));
        }
        let mut garbage = trace_bin::BIN_MAGIC.to_vec();
        garbage.extend_from_slice(b"garbage");
        assert!(matches!(load(&garbage), Err(TraceLoadError::Binary(_))));
    }

    /// `load_file` picks the format from the file's first bytes, as
    /// `load` does from a slice, and reads text through a reader.
    #[test]
    fn load_file_matches_load_for_both_formats() {
        let mut trace = Trace::new();
        trace.insert(0, 0, sample_insts());
        trace.insert(1, 3, vec![Inst::use_mem(), Inst::Exit]);
        let dir = std::env::temp_dir().join(format!("secmem_trace_load_file_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let bin = trace_bin::encode(&trace);
        let mut cases = vec![
            ("t.trace".to_string(), trace.to_text().into_bytes()),
            ("t.smtrc".to_string(), bin.clone()),
            // Shorter than the SECMTRC magic, and only its first bytes.
            ("short.trace".to_string(), b"SECM".to_vec()),
            ("empty.trace".to_string(), Vec::new()),
        ];
        // Every prefix and every single-bit flip of the SECMTRC file:
        // `load_file` reads the file through the routine `decode` runs on
        // a slice, so each must fail the same way through both.
        cases.extend((0..bin.len()).map(|cut| (format!("prefix {cut}"), bin[..cut].to_vec())));
        for i in 0..bin.len() {
            for bit in 0..8 {
                let mut bad = bin.clone();
                bad[i] ^= 1 << bit;
                cases.push((format!("bit {bit} of byte {i}"), bad));
            }
        }
        let path = dir.join("case");
        for (name, bytes) in cases {
            std::fs::write(&path, &bytes).expect("write");
            match (load_file(&path), load(&bytes)) {
                (Ok(a), Ok(b)) => assert!(a == b && a == trace, "{name}"),
                (Err(TraceLoadError::Parse(a)), Err(TraceLoadError::Parse(b))) => assert_eq!(a, b, "{name}"),
                (Err(TraceLoadError::Binary(a)), Err(TraceLoadError::Binary(b))) => {
                    assert_eq!(a, b, "{name}")
                }
                (a, b) => panic!("{name}: load_file gave {a:?}, load gave {b:?}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
