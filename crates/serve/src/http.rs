//! Hand-rolled HTTP/1.1 over `std::io` streams: just enough of RFC 9112
//! for a localhost experiment server — request/response heads, fixed
//! `Content-Length` bodies and chunked transfer encoding for progress
//! streams. Every connection is `Connection: close`, which removes
//! keep-alive state machines from both ends.
//!
//! The head parser ([`parse_head`]) is a pure function over bytes so the
//! fuzz harness can hammer it directly; [`read_request`] adds the I/O
//! and the size caps.

use std::io::{Read, Write};

/// Upper bound on a request/response head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on a request/response body.
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;
/// Upper bound on header count in one head.
pub const MAX_HEADERS: usize = 64;

/// Everything that can go wrong reading or parsing an HTTP message.
#[derive(Debug)]
pub enum HttpError {
    /// The underlying stream failed.
    Io(std::io::Error),
    /// The head grew past [`MAX_HEAD_BYTES`] without a blank line.
    HeadTooLarge,
    /// The declared or streamed body exceeds [`MAX_BODY_BYTES`].
    BodyTooLarge,
    /// The stream ended mid-message.
    Truncated,
    /// The head contains bytes outside printable ASCII + CRLF/TAB.
    NonAscii,
    /// The request/status line is malformed.
    BadStartLine,
    /// Header line `n` (1-based, after the start line) is malformed.
    BadHeader(usize),
    /// More than [`MAX_HEADERS`] header lines.
    TooManyHeaders,
    /// `Content-Length` present but not a decimal integer.
    BadContentLength,
    /// A chunked-encoding size line is malformed.
    BadChunkSize,
}

impl core::fmt::Display for HttpError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
            HttpError::HeadTooLarge => write!(f, "head exceeds {MAX_HEAD_BYTES} bytes"),
            HttpError::BodyTooLarge => write!(f, "body exceeds {MAX_BODY_BYTES} bytes"),
            HttpError::Truncated => write!(f, "stream ended mid-message"),
            HttpError::NonAscii => write!(f, "head contains non-ASCII or control bytes"),
            HttpError::BadStartLine => write!(f, "malformed request/status line"),
            HttpError::BadHeader(n) => write!(f, "malformed header line {n}"),
            HttpError::TooManyHeaders => write!(f, "more than {MAX_HEADERS} headers"),
            HttpError::BadContentLength => write!(f, "Content-Length is not a decimal integer"),
            HttpError::BadChunkSize => write!(f, "malformed chunk size line"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// A parsed request head plus its body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method (`GET`, `POST`, …), uppercase by construction.
    pub method: String,
    /// Request target, e.g. `/sweeps/3/results`.
    pub target: String,
    /// Header `(name, value)` pairs in wire order; names as sent.
    pub headers: Vec<(String, String)>,
    /// Request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// Case-insensitive header lookup (first match).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
    }
}

/// A parsed head: start line split into three parts, plus headers.
/// For requests the parts are (method, target, version); for responses
/// (version, status code, reason).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Head {
    /// First token of the start line.
    pub part0: String,
    /// Second token.
    pub part1: String,
    /// Rest of the line (may contain spaces — the response reason).
    pub part2: String,
    /// Header `(name, value)` pairs in wire order.
    pub headers: Vec<(String, String)>,
}

impl Head {
    /// Case-insensitive header lookup (first match).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
    }

    /// Parsed `Content-Length`, 0 when absent.
    ///
    /// # Errors
    ///
    /// [`HttpError::BadContentLength`] for a non-decimal value and
    /// [`HttpError::BodyTooLarge`] past [`MAX_BODY_BYTES`].
    pub fn content_length(&self) -> Result<usize, HttpError> {
        let Some(v) = self.header("content-length") else {
            return Ok(0);
        };
        let n: usize = v.trim().parse().map_err(|_| HttpError::BadContentLength)?;
        if n > MAX_BODY_BYTES {
            return Err(HttpError::BodyTooLarge);
        }
        Ok(n)
    }
}

fn is_token_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b)
}

/// Parses a message head: the bytes of the start line and header lines,
/// up to but **not** including the blank line that terminates the head.
/// Lines are separated by CRLF (a lone LF is also accepted — curl and
/// netcat users type those). Total parse is panic-free for arbitrary
/// input; the fuzz harness leans on that.
///
/// # Errors
///
/// Any [`HttpError`] parse variant; never `Io`.
pub fn parse_head(raw: &[u8]) -> Result<Head, HttpError> {
    if raw.len() > MAX_HEAD_BYTES {
        return Err(HttpError::HeadTooLarge);
    }
    if raw.iter().any(|&b| !(b == b'\r' || b == b'\n' || b == b'\t' || (0x20..0x7f).contains(&b))) {
        return Err(HttpError::NonAscii);
    }
    let text = core::str::from_utf8(raw).map_err(|_| HttpError::NonAscii)?;
    let mut lines = text.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
    let start = lines.next().ok_or(HttpError::BadStartLine)?;

    // Start line: exactly three parts, single-space separated; the third
    // part may itself contain spaces (response reason phrases).
    let (part0, rest) = start.split_once(' ').ok_or(HttpError::BadStartLine)?;
    let (part1, part2) = rest.split_once(' ').unwrap_or((rest, ""));
    // part0 is a method (`GET`) or a version (`HTTP/1.1`), so the token
    // set plus '/'.
    if part0.is_empty() || part1.is_empty() || !part0.bytes().all(|b| is_token_byte(b) || b == b'/') {
        return Err(HttpError::BadStartLine);
    }

    let mut headers = Vec::new();
    for (i, line) in lines.enumerate() {
        if line.is_empty() {
            // Interior blank line: parse_head receives the head without
            // its terminator, so this is a malformed (folded/empty) header.
            return Err(HttpError::BadHeader(i + 1));
        }
        if headers.len() == MAX_HEADERS {
            return Err(HttpError::TooManyHeaders);
        }
        let (name, value) = line.split_once(':').ok_or(HttpError::BadHeader(i + 1))?;
        if name.is_empty() || !name.bytes().all(is_token_byte) {
            return Err(HttpError::BadHeader(i + 1));
        }
        headers.push((name.to_string(), value.trim().to_string()));
    }
    Ok(Head { part0: part0.to_string(), part1: part1.to_string(), part2: part2.to_string(), headers })
}

/// Reads bytes until the blank line ending a head; returns the head
/// bytes (terminator stripped) and any body bytes already read past it.
pub(crate) fn read_head_bytes(stream: &mut impl Read) -> Result<(Vec<u8>, Vec<u8>), HttpError> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        // Scan for CRLFCRLF (or LFLF) over what we have.
        if let Some((end, skip)) = find_head_end(&buf) {
            let rest = buf.split_off(end + skip);
            buf.truncate(end);
            return Ok((buf, rest));
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err(HttpError::HeadTooLarge);
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(HttpError::Truncated);
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// Finds the head terminator: returns (offset of terminator, its length).
fn find_head_end(buf: &[u8]) -> Option<(usize, usize)> {
    for i in 0..buf.len() {
        if buf[i..].starts_with(b"\r\n\r\n") {
            return Some((i, 4));
        }
        if buf[i..].starts_with(b"\n\n") {
            return Some((i, 2));
        }
    }
    None
}

/// Reads one full request (head + `Content-Length` body) from a stream.
///
/// # Errors
///
/// I/O errors and every parse failure of [`parse_head`].
pub fn read_request(stream: &mut impl Read) -> Result<Request, HttpError> {
    let (head_bytes, mut body) = read_head_bytes(stream)?;
    let head = parse_head(&head_bytes)?;
    if !head.part2.starts_with("HTTP/1.") {
        return Err(HttpError::BadStartLine);
    }
    let want = head.content_length()?;
    read_body_more(stream, &mut body, want)?;
    Ok(Request { method: head.part0.to_ascii_uppercase(), target: head.part1, headers: head.headers, body })
}

/// Grows `body` from the stream until it holds `want` bytes.
pub(crate) fn read_body_more(
    stream: &mut impl Read,
    body: &mut Vec<u8>,
    want: usize,
) -> Result<(), HttpError> {
    if body.len() > want {
        // Pipelined bytes past the declared body: with Connection: close
        // semantics nothing may follow, so treat it as malformed.
        return Err(HttpError::BadContentLength);
    }
    let mut chunk = [0u8; 4096];
    while body.len() < want {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(HttpError::Truncated);
        }
        if body.len() + n > want {
            return Err(HttpError::BadContentLength);
        }
        body.extend_from_slice(&chunk[..n]);
    }
    Ok(())
}

/// A parsed response (client side).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub code: u16,
    /// Header pairs in wire order.
    pub headers: Vec<(String, String)>,
    /// Decoded body (chunked transfer already reassembled).
    pub body: Vec<u8>,
}

impl Response {
    /// Case-insensitive header lookup (first match).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
    }

    /// Body as UTF-8 (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Reads one full response, decoding `Content-Length` or chunked bodies.
/// Without either, reads to EOF (legal under `Connection: close`).
///
/// # Errors
///
/// I/O errors and every parse failure of [`parse_head`].
pub fn read_response(stream: &mut impl Read) -> Result<Response, HttpError> {
    let (head_bytes, pre) = read_head_bytes(stream)?;
    let head = parse_head(&head_bytes)?;
    if !head.part0.starts_with("HTTP/1.") {
        return Err(HttpError::BadStartLine);
    }
    let code: u16 = head.part1.parse().map_err(|_| HttpError::BadStartLine)?;
    let chunked = head.header("transfer-encoding").is_some_and(|v| v.eq_ignore_ascii_case("chunked"));
    let body = if chunked {
        let mut reader = ChunkReader::new(stream, pre);
        let mut body = Vec::new();
        while let Some(chunk) = reader.next_chunk()? {
            if body.len() + chunk.len() > MAX_BODY_BYTES {
                return Err(HttpError::BodyTooLarge);
            }
            body.extend_from_slice(&chunk);
        }
        body
    } else if head.header("content-length").is_some() {
        let want = head.content_length()?;
        let mut body = pre;
        read_body_more(stream, &mut body, want)?;
        body
    } else {
        let mut body = pre;
        stream.read_to_end(&mut body)?;
        if body.len() > MAX_BODY_BYTES {
            return Err(HttpError::BodyTooLarge);
        }
        body
    };
    Ok(Response { code, headers: head.headers, body })
}

/// Incremental chunked-transfer decoder: yields one chunk at a time so a
/// progress stream can be consumed as it is produced.
pub struct ChunkReader<'a, R: Read> {
    stream: &'a mut R,
    buf: Vec<u8>,
    done: bool,
}

impl<'a, R: Read> ChunkReader<'a, R> {
    /// Wraps a stream, with `pre` holding bytes already read past the head.
    pub fn new(stream: &'a mut R, pre: Vec<u8>) -> Self {
        Self { stream, buf: pre, done: false }
    }

    fn fill(&mut self) -> Result<usize, HttpError> {
        let mut chunk = [0u8; 4096];
        let n = self.stream.read(&mut chunk)?;
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(n)
    }

    /// Next decoded chunk, or `None` after the terminal zero-size chunk.
    ///
    /// # Errors
    ///
    /// I/O errors, [`HttpError::BadChunkSize`], [`HttpError::Truncated`].
    pub fn next_chunk(&mut self) -> Result<Option<Vec<u8>>, HttpError> {
        if self.done {
            return Ok(None);
        }
        // Read the size line.
        let line = loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let mut line: Vec<u8> = self.buf.drain(..=pos).collect();
                while line.last().is_some_and(|&b| b == b'\n' || b == b'\r') {
                    line.pop();
                }
                break line;
            }
            if self.buf.len() > 1024 {
                return Err(HttpError::BadChunkSize);
            }
            if self.fill()? == 0 {
                return Err(HttpError::Truncated);
            }
        };
        let text = core::str::from_utf8(&line).map_err(|_| HttpError::BadChunkSize)?;
        let size_part = text.split(';').next().unwrap_or("").trim();
        let size = usize::from_str_radix(size_part, 16).map_err(|_| HttpError::BadChunkSize)?;
        if size > MAX_BODY_BYTES {
            return Err(HttpError::BodyTooLarge);
        }
        if size == 0 {
            self.done = true;
            return Ok(None);
        }
        // Read size bytes + trailing CRLF.
        while self.buf.len() < size + 2 {
            if self.fill()? == 0 {
                return Err(HttpError::Truncated);
            }
        }
        let chunk: Vec<u8> = self.buf.drain(..size).collect();
        // Drop the chunk's trailing CRLF (or bare LF).
        if self.buf.first() == Some(&b'\r') {
            self.buf.remove(0);
        }
        if self.buf.first() == Some(&b'\n') {
            self.buf.remove(0);
        }
        Ok(Some(chunk))
    }
}

/// Reason phrase for the status codes this server emits.
fn reason(code: u16) -> &'static str {
    match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        410 => "Gone",
        413 => "Payload Too Large",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Writes a complete fixed-length response and flushes it.
///
/// # Errors
///
/// I/O errors from the underlying stream.
pub fn write_response(
    stream: &mut impl Write,
    code: u16,
    content_type: &str,
    body: &[u8],
) -> Result<(), HttpError> {
    write!(
        stream,
        "HTTP/1.1 {code} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        reason(code),
        body.len()
    )?;
    stream.write_all(body)?;
    stream.flush()?;
    Ok(())
}

/// Starts a chunked response; follow with [`write_chunk`] and
/// [`finish_chunked`].
///
/// # Errors
///
/// I/O errors from the underlying stream.
pub fn start_chunked(stream: &mut impl Write, code: u16, content_type: &str) -> Result<(), HttpError> {
    write!(
        stream,
        "HTTP/1.1 {code} {}\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
        reason(code)
    )?;
    stream.flush()?;
    Ok(())
}

/// Writes one chunk of a chunked response (empty data is skipped: a
/// zero-size chunk would terminate the stream).
///
/// # Errors
///
/// I/O errors from the underlying stream.
pub fn write_chunk(stream: &mut impl Write, data: &[u8]) -> Result<(), HttpError> {
    if data.is_empty() {
        return Ok(());
    }
    write!(stream, "{:x}\r\n", data.len())?;
    stream.write_all(data)?;
    stream.write_all(b"\r\n")?;
    stream.flush()?;
    Ok(())
}

/// Terminates a chunked response.
///
/// # Errors
///
/// I/O errors from the underlying stream.
pub fn finish_chunked(stream: &mut impl Write) -> Result<(), HttpError> {
    stream.write_all(b"0\r\n\r\n")?;
    stream.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_request_head() {
        let head = parse_head(b"POST /sweeps HTTP/1.1\r\nHost: x\r\nContent-Length: 12").expect("parses");
        assert_eq!(head.part0, "POST");
        assert_eq!(head.part1, "/sweeps");
        assert_eq!(head.part2, "HTTP/1.1");
        assert_eq!(head.header("content-length"), Some("12"));
        assert_eq!(head.content_length().expect("length"), 12);
    }

    #[test]
    fn rejects_malformed_heads() {
        assert!(matches!(parse_head(b""), Err(HttpError::BadStartLine)));
        assert!(matches!(parse_head(b"GET"), Err(HttpError::BadStartLine)));
        assert!(matches!(parse_head(b"GET /x HTTP/1.1\nno-colon-here"), Err(HttpError::BadHeader(1))));
        assert!(matches!(parse_head(b"GET /x HTTP/1.1\n: empty"), Err(HttpError::BadHeader(1))));
        assert!(matches!(parse_head(b"G\x01T / HTTP/1.1"), Err(HttpError::NonAscii)));
        assert!(matches!(parse_head("GÉ / HTTP/1.1".as_bytes()), Err(HttpError::NonAscii)));
    }

    #[test]
    fn caps_are_enforced() {
        let big = vec![b'a'; MAX_HEAD_BYTES + 1];
        assert!(matches!(parse_head(&big), Err(HttpError::HeadTooLarge)));
        let mut many = b"GET / HTTP/1.1".to_vec();
        for i in 0..=MAX_HEADERS {
            many.extend_from_slice(format!("\r\nh{i}: v").as_bytes());
        }
        assert!(matches!(parse_head(&many), Err(HttpError::TooManyHeaders)));
        let head = parse_head(b"POST / HTTP/1.1\r\nContent-Length: 99999999999").expect("parses");
        assert!(matches!(head.content_length(), Err(HttpError::BodyTooLarge)));
    }

    #[test]
    fn reads_full_request_from_stream() {
        let wire = b"POST /sweeps HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        let req = read_request(&mut &wire[..]).expect("reads");
        assert_eq!(req.method, "POST");
        assert_eq!(req.target, "/sweeps");
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn response_round_trips_fixed_and_chunked() {
        let mut wire = Vec::new();
        write_response(&mut wire, 200, "application/json", b"{\"ok\":true}").expect("writes");
        let resp = read_response(&mut &wire[..]).expect("reads");
        assert_eq!(resp.code, 200);
        assert_eq!(resp.body, b"{\"ok\":true}");

        let mut wire = Vec::new();
        start_chunked(&mut wire, 200, "text/plain").expect("starts");
        write_chunk(&mut wire, b"first ").expect("chunk");
        write_chunk(&mut wire, b"second").expect("chunk");
        finish_chunked(&mut wire).expect("finishes");
        let resp = read_response(&mut &wire[..]).expect("reads");
        assert_eq!(resp.code, 200);
        assert_eq!(resp.text(), "first second");
    }

    #[test]
    fn chunk_reader_is_incremental() {
        let mut body = Vec::new();
        write_chunk(&mut body, b"one\n").expect("chunk");
        write_chunk(&mut body, b"two\n").expect("chunk");
        finish_chunked(&mut body).expect("finish");
        let mut stream = &body[..];
        let mut reader = ChunkReader::new(&mut stream, Vec::new());
        assert_eq!(reader.next_chunk().expect("chunk"), Some(b"one\n".to_vec()));
        assert_eq!(reader.next_chunk().expect("chunk"), Some(b"two\n".to_vec()));
        assert_eq!(reader.next_chunk().expect("chunk"), None);
        assert_eq!(reader.next_chunk().expect("chunk"), None, "stays done");
    }

    #[test]
    fn truncated_streams_error() {
        let wire = b"POST / HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort";
        assert!(matches!(read_request(&mut &wire[..]), Err(HttpError::Truncated)));
        let wire = b"GET / HTTP/1.1\r\nNo-Terminator: yes";
        assert!(matches!(read_request(&mut &wire[..]), Err(HttpError::Truncated)));
    }
}
