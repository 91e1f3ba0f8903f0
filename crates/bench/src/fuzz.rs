//! Seeded mutation fuzzing for the workspace's hand-written parsers.
//!
//! The repository accepts six kinds of untrusted byte streams: text
//! trace files (through [`secmem_gpusim::trace::load`], the front end
//! replay uses: parse, encode to SECMTRC, decode), SECMTRC binary
//! traces ([`secmem_gpusim::trace::Trace::decode`]),
//! the linter's `lint.toml` baseline ([`secmem_lint::Baseline::parse`]),
//! JSON such as Chrome traces and sweep specs
//! ([`secmem_telemetry::json::parse`]),
//! checkpoint frames ([`secmem_checkpoint::Frame::decode`]) and Rust
//! source fed to the linter's lexer/parser pipeline
//! ([`secmem_lint::lint_source`]). The
//! contract for all of them is the same as everywhere else in the
//! workspace: arbitrary input must produce a typed error, never a
//! panic.
//!
//! Everything here is dependency-free and deterministic: mutations come
//! from the simulator's own SplitMix64 generator, so a failing case is
//! reproducible from `(corpus, seed, iteration)` alone and can be
//! turned into a permanent regression fixture.

use std::panic::{catch_unwind, AssertUnwindSafe};

use secmem_checkpoint::Frame;
use secmem_gpusim::rng::Rng64;
use secmem_gpusim::trace::{self, Trace, TraceLoadError};
use secmem_gpusim::trace_bin;
use secmem_lint::Baseline;
use secmem_telemetry::json;

/// A parser under fuzz.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corpus {
    /// The v1 trace text format.
    Trace,
    /// The SECMTRC binary trace container.
    BinTrace,
    /// The linter's `lint.toml` subset.
    LintBaseline,
    /// JSON documents through the workspace's one parser.
    Json,
    /// Binary checkpoint frames.
    Checkpoint,
    /// Rust source through the linter's lexer, scanner, item parser and
    /// token lints.
    LintSource,
}

impl Corpus {
    /// Every corpus, for smoke sweeps.
    pub const ALL: [Corpus; 6] = [
        Corpus::Trace,
        Corpus::BinTrace,
        Corpus::LintBaseline,
        Corpus::Json,
        Corpus::Checkpoint,
        Corpus::LintSource,
    ];

    /// Short display name.
    pub fn label(self) -> &'static str {
        match self {
            Corpus::Trace => "trace",
            Corpus::BinTrace => "bin-trace",
            Corpus::LintBaseline => "lint-baseline",
            Corpus::Json => "json",
            Corpus::Checkpoint => "checkpoint",
            Corpus::LintSource => "lint-source",
        }
    }
}

/// A deterministic byte-stream mutator (SplitMix64-driven).
#[derive(Debug, Clone)]
pub struct Mutator {
    rng: Rng64,
}

impl Mutator {
    /// A mutator whose whole output stream is a function of `seed`.
    pub fn new(seed: u64) -> Self {
        Self { rng: Rng64::new(seed) }
    }

    /// Returns a mutated copy of `base`: 1–8 rounds of byte flips,
    /// insertions, deletions, duplications, truncations and numeric
    /// splices.
    pub fn mutate(&mut self, base: &[u8]) -> Vec<u8> {
        let mut data = base.to_vec();
        let rounds = 1 + self.rng.gen_range(8);
        for _ in 0..rounds {
            if data.is_empty() {
                data.push(self.rng.next_u64() as u8);
                continue;
            }
            let len = data.len() as u64;
            match self.rng.gen_range(6) {
                0 => {
                    // Flip one byte.
                    let at = self.rng.gen_range(len) as usize;
                    data[at] ^= (1 + self.rng.gen_range(255)) as u8;
                }
                1 => {
                    // Insert a random byte.
                    let at = self.rng.gen_range(len + 1) as usize;
                    data.insert(at, self.rng.next_u64() as u8);
                }
                2 => {
                    // Delete a short range.
                    let at = self.rng.gen_range(len) as usize;
                    let n = (1 + self.rng.gen_range(8)) as usize;
                    data.drain(at..(at + n).min(data.len()));
                }
                3 => {
                    // Duplicate a short range in place.
                    let at = self.rng.gen_range(len) as usize;
                    let n = (1 + self.rng.gen_range(16)) as usize;
                    let chunk: Vec<u8> = data[at..(at + n).min(data.len())].to_vec();
                    let to = self.rng.gen_range(data.len() as u64 + 1) as usize;
                    data.splice(to..to, chunk);
                }
                4 => {
                    // Truncate.
                    let at = self.rng.gen_range(len + 1) as usize;
                    data.truncate(at);
                }
                _ => {
                    // Splice in text-format shrapnel: digits, separators
                    // and huge numbers reach deeper into the parsers
                    // than raw bytes do.
                    const SHRAPNEL: &[&[u8]] = &[
                        b"0",
                        b"-1",
                        b"18446744073709551615",
                        b"99999999999999999999",
                        b",",
                        b" ",
                        b"\n",
                        b"\"",
                        b"warp ",
                        b"[[baseline]]",
                        b"{",
                        b"0x",
                    ];
                    let chunk = SHRAPNEL[self.rng.gen_range(SHRAPNEL.len() as u64) as usize];
                    let at = self.rng.gen_range(len + 1) as usize;
                    data.splice(at..at, chunk.iter().copied());
                }
            }
        }
        data
    }
}

/// Well-formed exemplar inputs per corpus; mutation starts from these
/// so most cases exercise deep parser paths rather than dying on the
/// first header check.
pub fn seed_inputs(corpus: Corpus) -> Vec<Vec<u8>> {
    match corpus {
        Corpus::Trace => vec![
            b"# gpu-secure-memory trace v1\nwarp 0 0\nA 3\nL 1 100:f 180:3\nS 200:1\nX\n".to_vec(),
            b"# gpu-secure-memory trace v1\nwarp 1 2\nU 7\nL 0 1000:f\nX\nwarp 1 3\nX\n".to_vec(),
            // Zeros, multi-digit indices and the top line address: the
            // mutator turns these into the leading-zero, signed and
            // unaligned spellings the parser must reject.
            b"# gpu-secure-memory trace v1\nwarp 0 10\nA 0\nL 0 0:1 ffffffffffffff80:8\nS 80:f\nX\n".to_vec(),
        ],
        Corpus::BinTrace => {
            // The text exemplars re-encoded as SECMTRC, so mutation
            // attacks checksums, varints and tag bytes of real files.
            seed_inputs(Corpus::Trace)
                .iter()
                .map(|text| {
                    let trace = Trace::from_text(&String::from_utf8_lossy(text))
                        .expect("text exemplars are valid");
                    trace_bin::encode(&trace)
                })
                .collect()
        }
        Corpus::LintBaseline => vec![
            b"disabled = [\"hot-format\"]\n[[baseline]]\nfile = \"crates/core/src/engine.rs\"\nlint = \"long-fn\"\ncount = 2\n".to_vec(),
            b"[[baseline]]\nfile = \"a.rs\" # comment\nlint = \"x\"\ncount = 1\n".to_vec(),
        ],
        Corpus::Json => vec![
            br#"{"traceEvents":[{"name":"dram","ph":"C","ts":12,"pid":1,"args":{"v":3.5}}],"displayTimeUnit":"ns"}"#.to_vec(),
            br#"[1,2.5e-3,"s",true,false,null,{"k":[{}]}]"#.to_vec(),
        ],
        Corpus::LintSource => vec![
            b"//! Doc.\nimpl Snapshot for Foo<'a, T> {\n    fn save(&self, w: &mut W) { self.a.save(w); }\n    fn load(r: &mut R) -> Result<Self, E> { Ok(Self { a: u8::load(r)? }) }\n}\n".to_vec(),
            b"pub struct Foo { a: u8 }\nfn f<T: Iterator<Item = Vec<Vec<u8>>>>(x: T) where T: Clone {\n    pool.for_each(&mut es, &|e| e.step(n));\n    let m = Mutex::new(0); m.lock().unwrap();\n    macro_rules! z { () => { panic!() } }\n    format!(\"{x:?}\");\n}\n".to_vec(),
        ],
        Corpus::Checkpoint => {
            // A real small frame plus one with a big payload, so length
            // fields and the checksum both get mutated.
            let small = Frame { config_fp: 0x5EC, cycle: 42, payload: vec![1, 2, 3, 4] }.encode();
            let big = Frame {
                config_fp: u64::MAX,
                cycle: 0,
                payload: (0..256u32).flat_map(|x| x.to_le_bytes()).collect(),
            }
            .encode();
            vec![small, big]
        }
    }
}

/// Feeds one input to the corpus parser, discarding the result.
///
/// Returning normally means the parser either accepted the input or
/// rejected it with a typed error — both are fine. A panic propagates
/// to the caller; [`fuzz_corpus`] catches it and reports the case.
pub fn parse_one(corpus: Corpus, input: &[u8]) {
    match corpus {
        Corpus::Trace => {
            // Lossy UTF-8 keeps mutated inputs reaching the line parser.
            // Text that parses is encoded and re-decoded; a `Binary`
            // error would mean the encoder wrote bytes its own decoder
            // rejects.
            let text = String::from_utf8_lossy(input);
            if let Err(TraceLoadError::Binary(e)) = trace::load(text.as_bytes()) {
                assert!(text.as_bytes().starts_with(&trace_bin::BIN_MAGIC), "encoder output rejected: {e}");
            }
        }
        Corpus::BinTrace => {
            if let Ok(trace) = Trace::decode(input) {
                // Decoding validates everything up front; a surviving
                // file must also convert back to text without panicking.
                let _ = trace.to_text();
            }
        }
        Corpus::LintBaseline => {
            let _ = Baseline::parse(&String::from_utf8_lossy(input));
        }
        Corpus::Json => {
            let _ = json::parse(&String::from_utf8_lossy(input));
        }
        Corpus::LintSource => {
            // Arbitrary (usually non-UTF-8, never valid Rust) bytes must
            // come back as diagnostics or nothing — the lexer, scanner,
            // item parser and every lint pass must stay total.
            let policy = secmem_lint::Policy::default();
            let _ = secmem_lint::lint_source(
                "crates/gpusim/src/fuzzed.rs",
                &String::from_utf8_lossy(input),
                &policy,
            );
        }
        Corpus::Checkpoint => {
            if let Ok(frame) = Frame::decode(input) {
                // A frame that survives the checksum still carries an
                // arbitrary payload; the reader must stay typed on it.
                let mut r = secmem_checkpoint::Reader::new(&frame.payload);
                while r.remaining() > 0 {
                    if r.get_bytes().is_err() {
                        break;
                    }
                }
            }
        }
    }
}

/// A fuzz case that crashed a parser.
#[derive(Debug, Clone)]
pub struct FuzzCase {
    /// Which corpus crashed.
    pub corpus: Corpus,
    /// The mutator seed for the whole run.
    pub seed: u64,
    /// The iteration (mutation index) that produced the input.
    pub iteration: u64,
    /// The offending input bytes.
    pub input: Vec<u8>,
    /// The panic payload, stringified.
    pub panic: String,
}

impl std::fmt::Display for FuzzCase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} corpus, seed {:#x}, iteration {}: panic '{}' on {} bytes: {}",
            self.corpus.label(),
            self.seed,
            self.iteration,
            self.panic,
            self.input.len(),
            hex_preview(&self.input),
        )
    }
}

/// First bytes of an input as hex, for reporting.
fn hex_preview(bytes: &[u8]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for b in bytes.iter().take(48) {
        let _ = write!(out, "{b:02x}");
    }
    if bytes.len() > 48 {
        out.push_str("..");
    }
    out
}

/// Runs `iterations` mutated inputs (round-robin over the corpus seed
/// inputs) through the corpus parser.
///
/// # Errors
///
/// Returns the first case whose parse panicked, with everything needed
/// to reproduce it.
pub fn fuzz_corpus(corpus: Corpus, seed: u64, iterations: u64) -> Result<(), Box<FuzzCase>> {
    let bases = seed_inputs(corpus);
    let mut mutator = Mutator::new(seed);
    for iteration in 0..iterations {
        let base = &bases[(iteration as usize) % bases.len()];
        let input = mutator.mutate(base);
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| parse_one(corpus, &input))) {
            let panic = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_string()
            };
            return Err(Box::new(FuzzCase { corpus, seed, iteration, input, panic }));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutator_is_deterministic() {
        let base = b"# gpu-secure-memory trace v1\nwarp 0 0\nX\n";
        let a: Vec<Vec<u8>> = {
            let mut m = Mutator::new(9);
            (0..32).map(|_| m.mutate(base)).collect()
        };
        let b: Vec<Vec<u8>> = {
            let mut m = Mutator::new(9);
            (0..32).map(|_| m.mutate(base)).collect()
        };
        assert_eq!(a, b, "same seed, same mutation stream");
        let mut m = Mutator::new(10);
        assert_ne!(a[0], m.mutate(base), "different seeds diverge");
    }

    #[test]
    fn seed_inputs_parse_cleanly() {
        for corpus in Corpus::ALL {
            for (i, input) in seed_inputs(corpus).iter().enumerate() {
                // The unmutated exemplars must be *valid* — otherwise
                // mutation only explores the error paths.
                match corpus {
                    Corpus::Trace => {
                        Trace::from_text(&String::from_utf8_lossy(input))
                            .unwrap_or_else(|e| panic!("trace exemplar {i}: {e}"));
                    }
                    Corpus::BinTrace => {
                        Trace::decode(input).unwrap_or_else(|e| panic!("bin-trace exemplar {i}: {e}"));
                    }
                    Corpus::LintBaseline => {
                        Baseline::parse(&String::from_utf8_lossy(input))
                            .unwrap_or_else(|e| panic!("baseline exemplar {i}: {e}"));
                    }
                    Corpus::Json => {
                        json::parse(&String::from_utf8_lossy(input))
                            .unwrap_or_else(|e| panic!("json exemplar {i}: {e}"));
                    }
                    Corpus::Checkpoint => {
                        Frame::decode(input).unwrap_or_else(|e| panic!("frame exemplar {i}: {e}"));
                    }
                    Corpus::LintSource => {
                        // Valid here means the item walker actually finds
                        // items — an exemplar the parser sees as empty
                        // would only exercise the lexer.
                        let src = String::from_utf8_lossy(input);
                        let info = secmem_lint::scanner::FileInfo::analyze(&src);
                        let parsed = secmem_lint::parse_file(&info);
                        assert!(!parsed.fns.is_empty(), "lint-source exemplar {i} parsed no fns");
                    }
                }
            }
        }
    }

    #[test]
    fn empty_and_tiny_inputs_are_typed_errors() {
        for corpus in Corpus::ALL {
            parse_one(corpus, b"");
            parse_one(corpus, b"\0");
            parse_one(corpus, b"\xff\xff\xff\xff\xff\xff\xff\xff");
        }
    }

    /// Regression fixtures: inputs that exercise the parser paths the
    /// fuzzer reaches most often (truncated frames, giant counts,
    /// malformed numerics). Each must stay a typed rejection.
    #[test]
    fn regression_fixtures_stay_typed() {
        // Checkpoint: header claims a payload far larger than the file.
        let mut frame = Frame { config_fp: 1, cycle: 1, payload: vec![0; 16] }.encode();
        frame[24] = 0xff; // payload_len low byte
        assert!(Frame::decode(&frame).is_err());
        // Checkpoint: checksum flipped.
        let mut frame = Frame { config_fp: 1, cycle: 1, payload: vec![7; 16] }.encode();
        let end = frame.len() - 1;
        frame[end] ^= 1;
        assert!(Frame::decode(&frame).is_err());
        // Trace: u32 overflow in the warp directive.
        let t = "# gpu-secure-memory trace v1\nwarp 99999999999999999999 0\nX\n";
        assert!(Trace::from_text(t).is_err());
        // Trace: numbers in a spelling the serializer never writes, and
        // an address that is not line aligned (the top of the u64 range
        // included), are typed errors at their line, not normalized.
        for bad in ["A +1", "A 01", "L 1 ffffffffffffffff:f", "S 1a81:3", "L 0 080:f"] {
            let t = format!("# gpu-secure-memory trace v1\nwarp 0 0\n{bad}\nX\n");
            assert_eq!(Trace::from_text(&t).expect_err(bad).line, 3, "{bad}");
        }
        let t = "# gpu-secure-memory trace v1\nwarp 0 07\nX\n";
        assert_eq!(Trace::from_text(t).expect_err("leading zero").line, 2);
        // Baseline: count too large for usize.
        let b = "[[baseline]]\nfile = \"a\"\nlint = \"x\"\ncount = 99999999999999999999\n";
        assert!(Baseline::parse(b).is_err());
        // JSON: deep nesting is a typed rejection, not a stack overflow.
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        assert_eq!(json::parse(&deep).expect_err("bounded").message, "nesting too deep");
    }

    /// Frozen SECMTRC regression fixtures: the corruption shapes the
    /// mutator lands on most often, pinned so the typed rejections
    /// cannot quietly regress into panics or silent acceptance.
    #[test]
    fn bin_trace_regression_fixtures_stay_typed() {
        let good = seed_inputs(Corpus::BinTrace).remove(0);
        assert!(Trace::decode(&good).is_ok(), "fixture base is valid");

        // Truncated mid-index and mid-data.
        assert!(Trace::decode(&good[..14]).is_err());
        assert!(Trace::decode(&good[..good.len() - 3]).is_err());
        // Wrong magic and wrong version word.
        let mut evil = good.clone();
        evil[0] = b'X';
        assert!(Trace::decode(&evil).is_err());
        let mut evil = good.clone();
        evil[8] = 0xff; // version u32 LE low byte
        assert!(Trace::decode(&evil).is_err());
        // Index length field inflated past the file.
        let mut evil = good.clone();
        evil[12] = 0xff;
        assert!(Trace::decode(&evil).is_err());
        // First index byte (the stream count varint) forced overlong:
        // non-minimal varints are canonicality violations.
        let mut evil = good.clone();
        let count_at = 20; // magic(8) + version(4) + index len(8)
        evil[count_at] = 0x80;
        assert!(Trace::decode(&evil).is_err());
        // A flipped bit deep in the data section trips the checksum.
        let mut evil = good.clone();
        let end = evil.len() - 12;
        evil[end] ^= 0x40;
        assert!(Trace::decode(&evil).is_err());
        // Appending trailing garbage must not be silently ignored.
        let mut evil = good.clone();
        evil.push(0);
        assert!(Trace::decode(&evil).is_err());
    }
}
