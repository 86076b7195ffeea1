//! HTTP/1.1 framing of [`Request`]/[`Response`] — the wire codec.
//!
//! The codec serializes the *existing* request/response types byte-for-byte:
//! every header (including the `x-scoop-*` family) crosses the socket
//! unchanged, so trace propagation, hedging directives, storlet pushdown
//! metadata and degradation markers ride real frames exactly as they rode
//! in-process calls. Framing rules (DESIGN.md §13):
//!
//! * **Requests** use `Content-Length` framing: the encoder derives the
//!   header from the body it actually writes (never trusting a stale map
//!   entry), so a frame can never promise bytes it does not carry.
//! * **Responses** use `chunked` transfer-encoding: response bodies are
//!   lazy [`ByteStream`]s whose length is unknowable without draining (a
//!   storlet may filter mid-flight), and the chunk terminator doubles as an
//!   end-of-body marker that lets the client detect truncation on any
//!   `Content-Length`-less stream. The decoder accepts both framings.
//! * **Deadlines** cross as a millisecond budget (`x-scoop-deadline-ms`)
//!   computed from [`Deadline::remaining`] at encode time; an `Instant`
//!   cannot cross a process boundary, a budget can.
//! * **Errors** cross as a status + `x-scoop-error: <kind>` header, and the
//!   client rebuilds the exact [`ScoopError`] variant — the
//!   retryable/non-retryable taxonomy survives the wire bit-identically.
//!
//! Framing-only headers (`content-length` on requests, `transfer-encoding`
//! on responses, the deadline budget) are owned by the codec: the encoder
//! skips map copies and writes canonical values, so
//! `encode → decode → encode` is byte-identical (the round-trip property
//! `tests/wire_prop.rs` holds the codec to).

use crate::path::ObjectPath;
use crate::request::{Headers, Method, Request, Response};
use bytes::{Bytes, BytesMut};
use scoop_common::{headers, stream, ByteStream, Deadline, Result, ScoopError};
use std::io::{IoSlice, Read, Write};
use std::time::Duration;

/// Cap on the head (start line + headers) of any frame.
pub const MAX_HEAD_BYTES: usize = 64 * 1024;
/// Cap on a request body; a PUT larger than this is rejected at the frame
/// layer before it can balloon server memory.
pub const MAX_BODY_BYTES: usize = 256 * 1024 * 1024;
/// Cap on a single response chunk accepted by the decoder.
pub const MAX_CHUNK_BYTES: usize = 16 * 1024 * 1024;
/// The unit of the data plane's syscall budget (DESIGN.md §13): a
/// [`CoalescingWriter`] hands the socket this many bytes per write, and a
/// [`FrameReader`] offers every read at least this much room. A constant,
/// not a knob — one `write` then carries a whole 55 KB ranged GET, and a
/// 2 MB body is ~33 writes and fewer reads instead of ~2 000 of each.
pub const IO_BUFFER: usize = 64 * 1024;
/// What a [`FrameReader`] allocates up front: two reads' worth, so the
/// partial frame a read ends on never forces the buffer to grow.
const READ_BUFFER: usize = 2 * IO_BUFFER;

fn malformed(what: &str) -> ScoopError {
    // A garbage or truncated frame is a transport-level event: the bytes on
    // one connection are suspect, not the request itself, so the error is
    // retryable I/O and a fresh connection may well succeed.
    ScoopError::Io(std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("malformed frame: {what}"),
    ))
}

// ---------------------------------------------------------------------------
// Percent-encoding of URL path segments
// ---------------------------------------------------------------------------

fn is_unreserved(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'-' | b'.' | b'_' | b'~')
}

/// Percent-encode one path segment (object names may hold spaces, `%`, any
/// non-control byte).
pub fn encode_segment(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for &b in s.as_bytes() {
        if is_unreserved(b) {
            out.push(b as char);
        } else {
            out.push('%');
            let hex = b"0123456789ABCDEF";
            out.push(hex[(b >> 4) as usize] as char);
            out.push(hex[(b & 0xF) as usize] as char);
        }
    }
    out
}

/// Decode a percent-encoded path segment.
pub fn decode_segment(s: &str) -> Result<String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if b == b'%' {
            let hi = bytes.get(i + 1).and_then(|c| (*c as char).to_digit(16));
            let lo = bytes.get(i + 2).and_then(|c| (*c as char).to_digit(16));
            match (hi, lo) {
                (Some(h), Some(l)) => {
                    out.push((h * 16 + l) as u8);
                    i += 3;
                }
                _ => return Err(malformed("bad percent escape in path")),
            }
        } else {
            out.push(b);
            i += 1;
        }
    }
    String::from_utf8(out).map_err(|_| malformed("path is not UTF-8"))
}

/// Encode `/account/container/object` with each segment escaped (object
/// names may contain `/`, which separates pseudo-directory segments and is
/// kept literal).
pub fn encode_path(path: &ObjectPath) -> String {
    let object = path
        .object
        .split('/')
        .map(encode_segment)
        .collect::<Vec<_>>()
        .join("/");
    format!(
        "/{}/{}/{object}",
        encode_segment(&path.account),
        encode_segment(&path.container)
    )
}

// ---------------------------------------------------------------------------
// Methods, statuses, error kinds
// ---------------------------------------------------------------------------

/// Wire name of a method.
pub fn method_name(m: Method) -> &'static str {
    match m {
        Method::Get => "GET",
        Method::Put => "PUT",
        Method::Delete => "DELETE",
        Method::Head => "HEAD",
        Method::Post => "POST",
    }
}

/// Parse a wire method name.
pub fn parse_method(s: &str) -> Result<Method> {
    match s {
        "GET" => Ok(Method::Get),
        "PUT" => Ok(Method::Put),
        "DELETE" => Ok(Method::Delete),
        "HEAD" => Ok(Method::Head),
        "POST" => Ok(Method::Post),
        other => Err(ScoopError::InvalidRequest(format!("unknown method '{other}'"))),
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        204 => "No Content",
        206 => "Partial Content",
        400 => "Bad Request",
        401 => "Unauthorized",
        404 => "Not Found",
        409 => "Conflict",
        416 => "Range Not Satisfiable",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// HTTP status carried by an error response for `kind`.
pub fn status_for_kind(kind: &str) -> u16 {
    match kind {
        "not_found" => 404,
        "unauthorized" => 401,
        "invalid_request" => 400,
        "conflict" => 409,
        "deadline" => 504,
        "unsupported" => 501,
        "io" | "compute" => 502,
        _ => 500,
    }
}

/// Rebuild the [`ScoopError`] variant named by an `x-scoop-error` kind.
/// Unknown kinds degrade to `Internal` (non-retryable — the conservative
/// default for an error the peer could not even name).
pub fn error_from_kind(kind: &str, msg: String) -> ScoopError {
    match kind {
        "io" => ScoopError::Io(std::io::Error::other(msg)),
        "not_found" => ScoopError::NotFound(msg),
        "conflict" => ScoopError::Conflict(msg),
        "invalid_request" => ScoopError::InvalidRequest(msg),
        "unauthorized" => ScoopError::Unauthorized(msg),
        "csv" => ScoopError::Csv(msg),
        "sql" => ScoopError::Sql(msg),
        "storlet" => ScoopError::Storlet(msg),
        "columnar" => ScoopError::Columnar(msg),
        "corrupt" => ScoopError::Corrupt(msg),
        "compute" => ScoopError::Compute(msg),
        "unsupported" => ScoopError::Unsupported(msg),
        "deadline" => ScoopError::DeadlineExceeded(msg),
        _ => ScoopError::Internal(msg),
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn check_header_value(name: &str, value: &str) -> Result<()> {
    if value.bytes().any(|b| b == b'\r' || b == b'\n' || b == 0) {
        return Err(ScoopError::InvalidRequest(format!(
            "header '{name}' value contains control bytes"
        )));
    }
    Ok(())
}

/// Headers the request/response codec owns; map copies are skipped on
/// encode and canonical values written instead.
fn is_request_framing_header(name: &str) -> bool {
    name == "content-length" || name == headers::DEADLINE_MS
}

/// Serialize an object request: the frame encoder addressed at the
/// request's own path, head and body in one buffer.
pub fn encode_request(req: &Request) -> Result<Vec<u8>> {
    let target = encode_path(&req.path);
    let body = req.body.as_deref();
    let mut out = encode_frame(req.method, &target, &req.headers, body.map(<[u8]>::len), req.deadline)?;
    out.extend_from_slice(body.unwrap_or_default());
    Ok(out)
}

/// Serialize the head of a request frame with `Content-Length` framing —
/// the one request encoder, for object paths and the non-object targets
/// (container ops, the observability endpoints) alike. `target` is the
/// request-line form `encode_target` renders; the `body_len` bytes of body
/// follow the head on the wire and are the caller's to send (the pool
/// writes head and body with one vectored write, so a PUT body is never
/// copied into the frame). The deadline crosses as a remaining-budget
/// header; framing headers in the map are replaced by canonical values
/// derived from the actual body and deadline.
pub(crate) fn encode_frame(
    method: Method,
    target: &str,
    headers_map: &Headers,
    body_len: Option<usize>,
    deadline: Deadline,
) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(256);
    out.extend_from_slice(method_name(method).as_bytes());
    out.push(b' ');
    out.extend_from_slice(target.as_bytes());
    out.extend_from_slice(b" HTTP/1.1\r\n");
    for (name, value) in headers_map.iter() {
        if is_request_framing_header(name) {
            continue;
        }
        check_header_value(name, value)?;
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(b": ");
        out.extend_from_slice(value.as_bytes());
        out.extend_from_slice(b"\r\n");
    }
    if let Some(rem) = deadline.remaining() {
        out.extend_from_slice(headers::DEADLINE_MS.as_bytes());
        out.extend_from_slice(format!(": {}\r\n", rem.as_millis()).as_bytes());
    }
    if let Some(len) = body_len {
        out.extend_from_slice(format!("content-length: {len}\r\n").as_bytes());
    }
    out.extend_from_slice(b"\r\n");
    Ok(out)
}

/// Render a target in its percent-encoded request-line form — the inverse
/// of [`decode_target`].
pub(crate) fn encode_target(target: &Target) -> String {
    match target {
        Target::Info => "/info".into(),
        Target::Metrics => "/metrics".into(),
        Target::Events => "/events".into(),
        Target::Trace(id) => format!("/trace/{}", encode_segment(id)),
        Target::Container { account, container } => {
            format!("/{}/{}", encode_segment(account), encode_segment(container))
        }
        Target::Object(path) => encode_path(path),
    }
}

/// Serialize the head of a chunked response; the body follows via
/// [`write_chunk`] / [`finish_chunks`].
pub fn encode_response_head(status: u16, headers_map: &Headers) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(256);
    out.extend_from_slice(format!("HTTP/1.1 {status} {}\r\n", reason(status)).as_bytes());
    for (name, value) in headers_map.iter() {
        if name == "transfer-encoding" {
            continue;
        }
        check_header_value(name, value)?;
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(b": ");
        out.extend_from_slice(value.as_bytes());
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"transfer-encoding: chunked\r\n\r\n");
    Ok(out)
}

/// Write one non-empty body chunk. Empty slices are skipped — an empty
/// chunk is the terminator in chunked framing, and a stream item must never
/// end the body early.
pub fn write_chunk(w: &mut impl Write, data: &[u8]) -> std::io::Result<()> {
    if data.is_empty() {
        return Ok(());
    }
    write!(w, "{:x}\r\n", data.len())?;
    w.write_all(data)?;
    w.write_all(b"\r\n")
}

/// Terminate a chunked body.
pub fn finish_chunks(w: &mut impl Write) -> std::io::Result<()> {
    w.write_all(b"0\r\n\r\n")
}

/// Terminate a chunked body with trailer lines. The trailer slot is the
/// only part of a frame that can still carry information discovered while
/// the body streamed: a mid-stream error's kind/message, and the
/// server-side spans of the request's trace (`x-scoop-server-spans`) —
/// those only finish once the body has, so they cannot ride the head.
pub fn finish_chunks_with_trailers(
    w: &mut impl Write,
    trailers: &[(&str, String)],
) -> std::io::Result<()> {
    w.write_all(b"0\r\n")?;
    for (name, value) in trailers {
        write!(w, "{name}: {value}\r\n")?;
    }
    w.write_all(b"\r\n")
}

/// The `x-scoop-stream-error` trailer line for `err` (control bytes in the
/// message squashed so the value stays one line).
pub fn stream_error_trailer(err: &ScoopError) -> (&'static str, String) {
    let msg: String = err
        .to_string()
        .chars()
        .map(|c| if c.is_control() { ' ' } else { c })
        .collect();
    (headers::STREAM_ERROR, format!("{} {}", err.kind(), msg))
}

/// Terminate a chunked body with a mid-stream error trailer. The response
/// head (status, headers) went out before the body failed; the trailer is
/// the only slot left in the frame that can still carry the error's kind
/// and message to the peer.
pub fn finish_chunks_with_error(w: &mut impl Write, err: &ScoopError) -> std::io::Result<()> {
    finish_chunks_with_trailers(w, &[stream_error_trailer(err)])
}

/// Write `first` then `second` as one vectored write, repeated until both
/// are out — two buffers leave in one syscall without being joined.
pub(crate) fn write_pair(w: &mut impl Write, mut first: &[u8], mut second: &[u8]) -> std::io::Result<()> {
    while !first.is_empty() {
        let n = match w.write_vectored(&[IoSlice::new(first), IoSlice::new(second)]) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        let of_first = n.min(first.len());
        first = first.get(of_first..).unwrap_or_default();
        second = second.get(n.saturating_sub(of_first)..).unwrap_or_default();
    }
    w.write_all(second)
}

/// Coalesces the frames of one response into few socket writes. Frames are
/// unchanged — [`write_chunk`] still emits one per stream item, and the
/// bytes that reach `out` are exactly the bytes written here, in order —
/// only the *syscalls* are merged: everything is appended to `buf` and
/// handed to `out` [`IO_BUFFER`] bytes at a time, the remainder on
/// [`Write::flush`]. A single write of at least `IO_BUFFER` bytes (a large
/// body item) is not copied: it leaves with what is pending in one
/// vectored write.
///
/// `buf` belongs to the connection (allocated once when it goes live and
/// reused by every response on it); `out` is whatever the bytes must pass
/// on their way to the socket — the server's `FaultWriter` sits *below*
/// this writer, so a wire fault counts the same byte offsets whether or
/// not the bytes were coalesced.
pub struct CoalescingWriter<'a, W: Write> {
    out: &'a mut W,
    buf: &'a mut Vec<u8>,
}

impl<'a, W: Write> CoalescingWriter<'a, W> {
    /// Start a response on `out`, staging through the connection's `buf`
    /// (whatever an aborted response left in it is discarded).
    pub fn new(out: &'a mut W, buf: &'a mut Vec<u8>) -> Self {
        buf.clear();
        CoalescingWriter { out, buf }
    }

    fn drain(&mut self) -> std::io::Result<()> {
        self.out.write_all(self.buf)?;
        self.buf.clear();
        Ok(())
    }
}

impl<W: Write> Write for CoalescingWriter<'_, W> {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        if data.len() >= IO_BUFFER {
            write_pair(self.out, self.buf, data)?;
            self.buf.clear();
            return Ok(data.len());
        }
        let room = IO_BUFFER.saturating_sub(self.buf.len());
        let taken = data.get(..data.len().min(room)).unwrap_or_default();
        self.buf.extend_from_slice(taken);
        if self.buf.len() >= IO_BUFFER {
            self.drain()?;
        }
        Ok(taken.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if !self.buf.is_empty() {
            self.drain()?;
        }
        self.out.flush()
    }
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// A parsed frame head: the start line plus headers.
#[derive(Debug)]
pub enum StartLine {
    /// A request frame: method + percent-encoded target.
    Request {
        /// Parsed method.
        method: Method,
        /// Raw (still-encoded) target path.
        target: String,
    },
    /// A response frame: status code.
    Status(u16),
}

/// Head of a decoded frame.
#[derive(Debug)]
pub struct Head {
    /// Start line.
    pub start: StartLine,
    /// Header map (names lowercased by [`Headers::set`]). Framing-only
    /// headers (`transfer-encoding`) are stripped by the decoder — a
    /// response's `content-length` is a *semantic* header (object size) and
    /// stays.
    pub headers: Headers,
    /// Whether the frame declared `transfer-encoding: chunked`.
    chunked: bool,
}

/// How the body of a decoded frame is delimited.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BodyFraming {
    /// No body follows the head.
    None,
    /// Exactly this many bytes follow.
    ContentLength(usize),
    /// Chunked transfer-encoding follows.
    Chunked,
}

/// Incremental frame reader over any byte stream. Keeps leftover bytes
/// across frames, so back-to-back (pipelined) responses on one connection
/// decode cleanly.
///
/// Reads land straight in the spare capacity of one reusable buffer, at
/// least [`IO_BUFFER`] bytes of room per read, and chunks are handed out
/// as zero-copy splits of it. The allocation is reused for as long as the
/// consumer has dropped every chunk by the time the next read is due —
/// which a streaming consumer has; one that holds on keeps its bytes and
/// the reader moves to a fresh allocation.
pub struct FrameReader<R> {
    inner: R,
    /// Bytes read off the stream and not yet handed out.
    buf: BytesMut,
    /// Raw `x-scoop-server-spans` trailer value of the most recently
    /// terminated chunked body, parked for [`Self::take_server_spans`].
    server_spans: Option<String>,
}

impl<R: Read> FrameReader<R> {
    /// Wrap a byte stream.
    pub fn new(inner: R) -> Self {
        FrameReader { inner, buf: BytesMut::with_capacity(READ_BUFFER), server_spans: None }
    }

    /// Take the `x-scoop-server-spans` trailer value the last chunked body
    /// ended with, if any. Set whether the body terminated cleanly or with
    /// a stream-error trailer — a failed exchange still ships the spans the
    /// server recorded on the way down.
    pub fn take_server_spans(&mut self) -> Option<String> {
        self.server_spans.take()
    }

    /// The wrapped stream (buffer is discarded — only safe between frames
    /// when the caller knows nothing was pipelined behind the last one).
    pub fn into_inner(self) -> R {
        self.inner
    }

    /// Mutable access to the wrapped stream (e.g. to retune timeouts
    /// between frames). The frame buffer is untouched.
    pub fn inner_mut(&mut self) -> &mut R {
        &mut self.inner
    }

    /// True when no leftover bytes are buffered (the connection is at a
    /// clean frame boundary and safe to pool).
    pub fn is_drained(&self) -> bool {
        self.buf.is_empty()
    }

    /// One read from the stream into the buffer, with room for `missing`
    /// bytes and never less than [`IO_BUFFER`]; `Ok(0)` at EOF.
    fn fill(&mut self, missing: usize) -> std::io::Result<usize> {
        self.buf.reserve(missing.max(IO_BUFFER));
        self.buf.read_from(&mut self.inner, usize::MAX)
    }

    /// Read until `n` bytes are buffered.
    fn fill_to(&mut self, n: usize, eof: &str) -> Result<()> {
        while self.buf.len() < n {
            let missing = n.saturating_sub(self.buf.len());
            if self.fill(missing).map_err(ScoopError::Io)? == 0 {
                return Err(malformed(eof));
            }
        }
        Ok(())
    }

    /// Decode a frame head. `Ok(None)` when the peer closed cleanly between
    /// frames (EOF before any byte of a head).
    pub fn read_head(&mut self) -> Result<Option<Head>> {
        let end = loop {
            let window = self.buf.get(..self.buf.len().min(MAX_HEAD_BYTES)).unwrap_or_default();
            if let Some(end) = find_head_end(window) {
                break end;
            }
            if self.buf.len() >= MAX_HEAD_BYTES {
                // Not a garbled frame: the peer's head is simply this large,
                // and a fresh connection would read the same head again.
                return Err(ScoopError::Unsupported(format!(
                    "frame head exceeds the {MAX_HEAD_BYTES}-byte cap"
                )));
            }
            if self.fill(1).map_err(ScoopError::Io)? == 0 {
                if self.buf.is_empty() {
                    return Ok(None);
                }
                return Err(malformed("EOF inside frame head"));
            }
        };
        let head = parse_head(self.buf.get(..end).unwrap_or_default());
        self.buf.advance(end.saturating_add(HEAD_END.len()));
        head.map(Some)
    }

    /// Body framing declared by a head.
    pub fn body_framing(head: &Head) -> Result<BodyFraming> {
        if head.chunked {
            return Ok(BodyFraming::Chunked);
        }
        match head.headers.get("content-length") {
            // Requests carry the body only when the encoder framed one; a
            // response's content-length is a semantic header (object size),
            // not framing — responses always arrive chunked from our
            // server, so ContentLength framing only applies when
            // transfer-encoding is absent.
            Some(v) => {
                let n: usize = v
                    .parse()
                    .map_err(|_| malformed("unparseable content-length"))?;
                if n > MAX_BODY_BYTES {
                    return Err(malformed("body exceeds cap"));
                }
                if n == 0 {
                    Ok(BodyFraming::None)
                } else {
                    Ok(BodyFraming::ContentLength(n))
                }
            }
            None => Ok(BodyFraming::None),
        }
    }

    /// Read exactly `n` body bytes into an allocation of their own: a
    /// content-length body is a PUT payload the store keeps, and must not
    /// pin this connection's read buffer. What is already buffered is
    /// copied over; the rest is read from the stream straight into place.
    pub fn read_exact_body(&mut self, n: usize) -> Result<Bytes> {
        let buffered = self.buf.len().min(n);
        let mut body = BytesMut::with_capacity(n.min(READ_BUFFER));
        body.extend_from_slice(self.buf.get(..buffered).unwrap_or_default());
        self.buf.advance(buffered);
        while body.len() < n {
            let missing = n.saturating_sub(body.len());
            // Grow geometrically and never past `n`: memory follows the
            // bytes that arrived, not the length the peer announced.
            body.reserve(missing.min(body.len().max(IO_BUFFER)));
            if body.read_from(&mut self.inner, missing).map_err(ScoopError::Io)? == 0 {
                return Err(malformed("EOF inside content-length body"));
            }
        }
        Ok(body.freeze())
    }

    /// Buffer one CRLF-terminated line of at most `cap` bytes and return
    /// its length; the line stays in the buffer for the caller to parse in
    /// place and then [`Self::consume_line`].
    fn buffer_line(&mut self, cap: usize, too_long: &str) -> Result<usize> {
        let limit = cap.saturating_add(CRLF.len());
        loop {
            let window = self.buf.get(..self.buf.len().min(limit)).unwrap_or_default();
            if let Some(len) = window.windows(CRLF.len()).position(|w| w == CRLF) {
                return Ok(len);
            }
            if window.len() >= limit {
                return Err(malformed(too_long));
            }
            if self.fill(1).map_err(ScoopError::Io)? == 0 {
                return Err(malformed("EOF inside chunk framing"));
            }
        }
    }

    fn consume_line(&mut self, len: usize) {
        self.buf.advance(len.saturating_add(CRLF.len()));
    }

    fn read_chunk_size(&mut self) -> Result<usize> {
        let len = self.buffer_line(32, "chunk size line too long")?;
        let size = std::str::from_utf8(self.buf.get(..len).unwrap_or_default())
            .ok()
            .and_then(|line| usize::from_str_radix(line.trim(), 16).ok())
            .ok_or_else(|| malformed("unparseable chunk size"))?;
        self.consume_line(len);
        if size > MAX_CHUNK_BYTES {
            return Err(malformed("chunk exceeds cap"));
        }
        Ok(size)
    }

    fn read_trailer_line(&mut self) -> Result<String> {
        // Wide enough for a full span trailer (`telemetry::MAX_ENCODED_SPANS`
        // value bytes plus the name) with headroom.
        let len = self.buffer_line(16_384, "chunk trailer line too long")?;
        let line = std::str::from_utf8(self.buf.get(..len).unwrap_or_default())
            .map(str::to_owned)
            .map_err(|_| malformed("chunk line not UTF-8"));
        self.consume_line(len);
        line
    }

    /// Read the next chunk of a chunked body; `Ok(None)` after the
    /// terminating zero-chunk. Chunk boundaries are preserved: each framed
    /// chunk surfaces as one `Bytes` (a split of the read buffer, not a
    /// copy), so re-encoding reproduces the exact wire bytes.
    pub fn read_chunk(&mut self) -> Result<Option<Bytes>> {
        let size = self.read_chunk_size()?;
        if size == 0 {
            // Trailer section: usually just the terminating CRLF, but two
            // trailers may precede it — a body that failed mid-stream ends
            // with an error trailer (the sender finished the frame cleanly
            // and parked the error's kind and message here, after the data
            // it could no longer retract), and a traced request's response
            // carries the server-side spans (which only finish once the
            // body has streamed). Anything else is a malformed frame.
            let mut stream_error = None;
            loop {
                let trailer = self.read_trailer_line()?;
                if trailer.is_empty() {
                    break;
                }
                let Some((name, value)) = trailer.split_once(':') else {
                    return Err(malformed("chunk trailer without ':'"));
                };
                let name = name.trim();
                if name.eq_ignore_ascii_case(headers::SERVER_SPANS) {
                    self.server_spans = Some(value.trim().to_string());
                    continue;
                }
                if !name.eq_ignore_ascii_case(headers::STREAM_ERROR) {
                    return Err(malformed("unexpected chunk trailer"));
                }
                let value = value.trim();
                let (kind, msg) = value.split_once(' ').unwrap_or((value, ""));
                stream_error = Some(error_from_kind(kind, msg.to_string()));
            }
            if let Some(err) = stream_error {
                return Err(err);
            }
            return Ok(None);
        }
        self.fill_to(size.saturating_add(CRLF.len()), "EOF inside chunk framing")?;
        let data = self.buf.split_to(size).freeze();
        if !self.buf.starts_with(CRLF) {
            return Err(malformed("chunk not CRLF-terminated"));
        }
        self.buf.advance(CRLF.len());
        Ok(Some(data))
    }
}

const CRLF: &[u8] = b"\r\n";
const HEAD_END: &[u8] = b"\r\n\r\n";

/// Parse the bytes of a frame head (start line and header lines, without
/// the terminating blank line).
fn parse_head(bytes: &[u8]) -> Result<Head> {
    let text = std::str::from_utf8(bytes).map_err(|_| malformed("head is not UTF-8"))?;
    let mut lines = text.split("\r\n");
    let start_line = lines.next().ok_or_else(|| malformed("empty head"))?;
    let start = parse_start_line(start_line)?;
    let mut headers_map = Headers::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| malformed("header line without ':'"))?;
        headers_map.set(name.trim(), value.trim().to_string());
    }
    // transfer-encoding is pure framing: strip it so the decoded
    // header map mirrors what the encoder was handed (round-trip
    // byte-identity), and remember the fact on the head.
    let chunked = match headers_map.remove("transfer-encoding") {
        Some(v) if v.eq_ignore_ascii_case("chunked") => true,
        Some(_) => return Err(malformed("unsupported transfer-encoding")),
        None => false,
    };
    Ok(Head { start, headers: headers_map, chunked })
}

/// Offset of the blank line that ends a frame head, if it is in `buf`.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(HEAD_END.len()).position(|w| w == HEAD_END)
}

fn parse_start_line(line: &str) -> Result<StartLine> {
    if let Some(rest) = line.strip_prefix("HTTP/1.1 ") {
        let code = rest
            .split(' ')
            .next()
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| malformed("unparseable status line"))?;
        return Ok(StartLine::Status(code));
    }
    let mut parts = line.split(' ');
    // On the wire an unknown method token means the frame itself is
    // suspect (garbage, corruption), not that a well-formed request asked
    // for something unsupported — classify as malformed, i.e. retryable.
    let method = parse_method(parts.next().unwrap_or_default())
        .map_err(|_| malformed("unrecognized method in start line"))?;
    let target = parts
        .next()
        .ok_or_else(|| malformed("request line without target"))?
        .to_string();
    match parts.next() {
        Some("HTTP/1.1") => Ok(StartLine::Request { method, target }),
        _ => Err(malformed("request line without HTTP/1.1 version")),
    }
}

// ---------------------------------------------------------------------------
// Request/Response assembly
// ---------------------------------------------------------------------------

/// What a decoded request target addresses.
///
/// The top-level segments `info`, `metrics`, `events` and `trace` are
/// reserved endpoint namespaces and never parse as account names.
#[derive(Debug, Clone)]
pub enum Target {
    /// `GET /info`: the telemetry snapshot endpoint (plain text).
    Info,
    /// `GET /metrics`: Prometheus text exposition of the snapshot.
    Metrics,
    /// `GET /trace/{id}`: JSON span dump of one trace.
    Trace(String),
    /// `GET /events`: JSON dump of the wide query-event ring.
    Events,
    /// `/account/container`: container create/list.
    Container {
        /// Account segment (decoded).
        account: String,
        /// Container segment (decoded).
        container: String,
    },
    /// `/account/container/object`: an object request.
    Object(ObjectPath),
}

/// Decode a request target into the endpoint it addresses.
pub fn decode_target(target: &str) -> Result<Target> {
    if target == "/info" {
        return Ok(Target::Info);
    }
    if target == "/metrics" {
        return Ok(Target::Metrics);
    }
    if target == "/events" {
        return Ok(Target::Events);
    }
    if let Some(id) = target.strip_prefix("/trace/") {
        if id.is_empty() || id.contains('/') {
            return Err(ScoopError::InvalidRequest(format!(
                "trace endpoint takes exactly one ID segment, got '{target}'"
            )));
        }
        return Ok(Target::Trace(decode_segment(id)?));
    }
    let trimmed = target.strip_prefix('/').unwrap_or(target);
    // The endpoint namespaces are reserved outright: a stray extra segment
    // must surface as an unroutable target, not dispatch into a phantom
    // "metrics" account.
    if let Some(first) = trimmed.split('/').next() {
        if matches!(first, "info" | "metrics" | "events" | "trace") {
            return Err(ScoopError::InvalidRequest(format!(
                "'/{first}' is a reserved endpoint namespace, got '{target}'"
            )));
        }
    }
    let segments: Vec<&str> = trimmed.splitn(3, '/').collect();
    match segments.as_slice() {
        [account, container] => Ok(Target::Container {
            account: decode_segment(account)?,
            container: decode_segment(container)?,
        }),
        [account, container, object] => {
            let object = object
                .split('/')
                .map(decode_segment)
                .collect::<Result<Vec<_>>>()?
                .join("/");
            Ok(Target::Object(ObjectPath::new(
                decode_segment(account)?,
                decode_segment(container)?,
                object,
            )?))
        }
        _ => Err(ScoopError::InvalidRequest(format!("unroutable target '{target}'"))),
    }
}

/// Convert a decoded head's deadline budget header back into a live
/// [`Deadline`], removing it from the map (it is framing metadata, not a
/// request header).
pub(crate) fn take_deadline(headers_map: &mut Headers) -> Result<Deadline> {
    match headers_map.remove(headers::DEADLINE_MS) {
        Some(ms) => {
            let ms: u64 = ms
                .parse()
                .map_err(|_| malformed("unparseable deadline budget"))?;
            Ok(Deadline::within(Duration::from_millis(ms)))
        }
        None => Ok(Deadline::none()),
    }
}

/// Assemble a [`Request`] from a decoded object-targeted head + body.
pub fn request_from_parts(
    method: Method,
    path: ObjectPath,
    mut headers_map: Headers,
    body: Option<Bytes>,
) -> Result<Request> {
    let deadline = take_deadline(&mut headers_map)?;
    Ok(Request { method, path, headers: headers_map, body, deadline })
}

/// Serialize a container listing: one `name\tsize\tetag` line per record,
/// names percent-encoded (object names may legally contain tabs and
/// newlines' close cousins — spaces — so the field separator must be
/// escaped out of the name).
pub fn encode_listing(records: &[crate::proxy::ObjectRecord]) -> Vec<u8> {
    let mut out = Vec::new();
    for r in records {
        out.extend_from_slice(encode_segment(&r.name).as_bytes());
        out.extend_from_slice(format!("\t{}\t{}\n", r.size, r.etag).as_bytes());
    }
    out
}

/// Parse a wire container listing back into records.
pub fn decode_listing(body: &[u8]) -> Result<Vec<crate::proxy::ObjectRecord>> {
    let text = std::str::from_utf8(body).map_err(|_| malformed("listing is not UTF-8"))?;
    let mut records = Vec::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        let mut fields = line.split('\t');
        let (name, size, etag) = match (fields.next(), fields.next(), fields.next()) {
            (Some(n), Some(s), Some(e)) => (n, s, e),
            _ => return Err(malformed("listing line missing fields")),
        };
        records.push(crate::proxy::ObjectRecord {
            name: decode_segment(name)?,
            size: size.parse().map_err(|_| malformed("unparseable listing size"))?,
            etag: etag.to_string(),
        });
    }
    Ok(records)
}

/// Assemble a [`Response`] whose body is already materialized. The
/// decoder's lazy path builds the stream itself; this is the eager helper
/// for drained bodies and unit tests.
pub fn response_from_parts(status: u16, headers_map: Headers, body: Bytes) -> Response {
    let body: ByteStream = if body.is_empty() { stream::empty() } else { stream::once(body) };
    Response { status, headers: headers_map, body }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn path() -> ObjectPath {
        ObjectPath::new("AUTH_gp", "meters", "2016/01 data.csv").unwrap()
    }

    #[test]
    fn segments_percent_roundtrip() {
        for s in ["plain", "with space", "pct%25", "naïve-utf8", "a+b&c=d"] {
            assert_eq!(decode_segment(&encode_segment(s)).unwrap(), s);
        }
        assert!(decode_segment("%GG").is_err());
        assert!(decode_segment("%2").is_err());
    }

    #[test]
    fn request_roundtrips_through_the_codec() {
        let req = Request::put(path(), Bytes::from_static(b"a,b\n1,2\n"))
            .with_header("x-object-meta-owner", "gp")
            .with_header("range", "bytes=-42");
        let bytes = encode_request(&req).unwrap();
        let mut r = FrameReader::new(Cursor::new(bytes.clone()));
        let head = r.read_head().unwrap().unwrap();
        let framing = FrameReader::<Cursor<Vec<u8>>>::body_framing(&head).unwrap();
        let StartLine::Request { method, target } = head.start else {
            panic!("not a request head")
        };
        assert_eq!(method, Method::Put);
        let Target::Object(got_path) = decode_target(&target).unwrap() else {
            panic!("not an object target")
        };
        assert_eq!(got_path, path());
        assert_eq!(framing, BodyFraming::ContentLength(8));
        let body = r.read_exact_body(8).unwrap();
        let req2 = request_from_parts(method, got_path, head.headers, Some(body)).unwrap();
        assert_eq!(req2.headers.get("x-object-meta-owner"), Some("gp"));
        assert_eq!(req2.headers.get("range"), Some("bytes=-42"));
        assert_eq!(req2.body.as_deref(), Some(&b"a,b\n1,2\n"[..]));
        // Byte-identity: re-encoding the decoded request reproduces the
        // exact frame (content-length now in the map is skipped on encode).
        assert_eq!(encode_request(&req2).unwrap(), bytes);
    }

    #[test]
    fn deadline_crosses_as_budget_and_leaves_the_map() {
        let req = Request::get(path()).with_deadline(Deadline::within(Duration::from_secs(5)));
        let bytes = encode_request(&req).unwrap();
        let mut r = FrameReader::new(Cursor::new(bytes));
        let head = r.read_head().unwrap().unwrap();
        let StartLine::Request { method, .. } = head.start else { panic!("not a request") };
        let req2 = request_from_parts(method, path(), head.headers, None).unwrap();
        assert!(req2.deadline.is_set());
        let rem = req2.deadline.remaining().unwrap();
        assert!(rem <= Duration::from_secs(5) && rem > Duration::from_secs(4));
        assert!(!req2.headers.contains(scoop_common::headers::DEADLINE_MS));
    }

    #[test]
    fn chunked_response_roundtrips_with_boundaries() {
        let mut hdrs = Headers::new();
        hdrs.set("etag", "abc");
        hdrs.set("content-length", "11"); // semantic, not framing
        let mut wire_bytes = encode_response_head(200, &hdrs).unwrap();
        write_chunk(&mut wire_bytes, b"hello ").unwrap();
        write_chunk(&mut wire_bytes, b"").unwrap(); // skipped, not a terminator
        write_chunk(&mut wire_bytes, b"world").unwrap();
        finish_chunks(&mut wire_bytes).unwrap();

        let mut r = FrameReader::new(Cursor::new(wire_bytes));
        let head = r.read_head().unwrap().unwrap();
        let StartLine::Status(code) = head.start else { panic!("not a response") };
        assert_eq!(code, 200);
        assert_eq!(
            FrameReader::<Cursor<Vec<u8>>>::body_framing(&head).unwrap(),
            BodyFraming::Chunked
        );
        assert_eq!(r.read_chunk().unwrap().unwrap(), Bytes::from_static(b"hello "));
        assert_eq!(r.read_chunk().unwrap().unwrap(), Bytes::from_static(b"world"));
        assert!(r.read_chunk().unwrap().is_none());
        assert!(r.is_drained());
        // The semantic content-length header crossed untouched.
        assert_eq!(head.headers.get("content-length"), Some("11"));
        assert_eq!(head.headers.get("etag"), Some("abc"));
        assert!(!head.headers.contains("transfer-encoding"));
    }

    #[test]
    fn mid_stream_error_crosses_as_chunk_trailer() {
        let mut buf = Vec::new();
        write_chunk(&mut buf, b"partial").unwrap();
        let failure = ScoopError::Io(std::io::Error::other("stream truncated at byte 7"));
        finish_chunks_with_error(&mut buf, &failure).unwrap();

        let mut r = FrameReader::new(Cursor::new(buf));
        assert_eq!(r.read_chunk().unwrap().unwrap(), Bytes::from_static(b"partial"));
        let err = r.read_chunk().unwrap_err();
        assert_eq!(err.kind(), "io", "trailer must preserve the error kind");
        assert!(err.is_retryable());
        assert!(
            err.to_string().contains("truncated"),
            "trailer must preserve the message: {err}"
        );
        // The frame completed: the trailer is data, not a wire fault.
        assert!(r.is_drained());
    }

    #[test]
    fn error_kinds_roundtrip_with_retryability() {
        for kind in [
            "io", "not_found", "conflict", "invalid_request", "unauthorized", "csv", "sql",
            "storlet", "columnar", "corrupt", "compute", "unsupported", "deadline", "internal",
        ] {
            let err = error_from_kind(kind, "msg".into());
            assert_eq!(err.kind(), kind, "kind must survive the wire");
        }
        assert!(error_from_kind("io", "m".into()).is_retryable());
        assert!(error_from_kind("compute", "m".into()).is_retryable());
        assert!(!error_from_kind("deadline", "m".into()).is_retryable());
        assert!(!error_from_kind("never-heard-of-it", "m".into()).is_retryable());
    }

    #[test]
    fn an_oversized_head_is_not_retryable() {
        let mut frame = b"HTTP/1.1 200 OK\r\n".to_vec();
        while frame.len() <= MAX_HEAD_BYTES {
            frame.extend_from_slice(b"x-object-meta-pad: 0123456789abcdef\r\n");
        }
        frame.extend_from_slice(b"\r\n");
        let err = FrameReader::new(Cursor::new(frame)).read_head().unwrap_err();
        assert!(!err.is_retryable(), "{err}");
    }

    #[test]
    fn malformed_frames_are_retryable_io() {
        let mut r = FrameReader::new(Cursor::new(b"GARBAGE \x01\x02\r\n\r\n".to_vec()));
        let err = r.read_head().unwrap_err();
        assert!(err.is_retryable(), "garbage frames must be retryable");
        let mut r = FrameReader::new(Cursor::new(b"HTTP/1.1 abc\r\n\r\n".to_vec()));
        assert!(r.read_head().is_err());
        // Truncated head: EOF mid-frame is an error, idle EOF is None.
        let mut r = FrameReader::new(Cursor::new(b"GET /a/c/o HT".to_vec()));
        assert!(r.read_head().is_err());
        let mut r = FrameReader::new(Cursor::new(Vec::new()));
        assert!(r.read_head().unwrap().is_none());
    }

    #[test]
    fn span_trailer_rides_the_chunk_terminator() {
        use scoop_common::telemetry::{self, layers};
        let spans = vec![telemetry::SpanRecord {
            layer: layers::PROXY,
            detail: "GET a/c/o".into(),
            start_us: 10,
            duration_us: 20,
            remote: false,
        }];
        let encoded = telemetry::encode_spans(&spans);

        // Clean termination: body chunks, then the spans trailer.
        let mut buf = Vec::new();
        write_chunk(&mut buf, b"rows").unwrap();
        finish_chunks_with_trailers(&mut buf, &[(headers::SERVER_SPANS, encoded.clone())])
            .unwrap();
        let mut r = FrameReader::new(Cursor::new(buf));
        assert_eq!(r.read_chunk().unwrap().unwrap(), Bytes::from_static(b"rows"));
        assert!(r.read_chunk().unwrap().is_none());
        let carried = r.take_server_spans().expect("spans trailer lost");
        assert_eq!(telemetry::decode_spans(&carried).unwrap(), spans);
        // One-shot: a second take finds nothing.
        assert!(r.take_server_spans().is_none());

        // Error termination: the spans ride alongside the stream error and
        // survive even though the body read fails.
        let mut buf = Vec::new();
        write_chunk(&mut buf, b"partial").unwrap();
        let failure = ScoopError::Io(std::io::Error::other("boom"));
        finish_chunks_with_trailers(
            &mut buf,
            &[stream_error_trailer(&failure), (headers::SERVER_SPANS, encoded)],
        )
        .unwrap();
        let mut r = FrameReader::new(Cursor::new(buf));
        assert_eq!(r.read_chunk().unwrap().unwrap(), Bytes::from_static(b"partial"));
        let err = r.read_chunk().unwrap_err();
        assert_eq!(err.kind(), "io");
        assert_eq!(
            telemetry::decode_spans(&r.take_server_spans().unwrap()).unwrap(),
            spans
        );
        // Unknown trailers are still rejected.
        let mut buf = Vec::new();
        finish_chunks_with_trailers(&mut buf, &[("x-mystery", "?".into())]).unwrap();
        let mut r = FrameReader::new(Cursor::new(buf));
        assert!(r.read_chunk().is_err());
    }

    #[test]
    fn observability_targets_decode() {
        assert!(matches!(decode_target("/metrics").unwrap(), Target::Metrics));
        assert!(matches!(decode_target("/events").unwrap(), Target::Events));
        let Target::Trace(id) = decode_target("/trace/t00ab").unwrap() else {
            panic!("not a trace target")
        };
        assert_eq!(id, "t00ab");
        assert!(decode_target("/trace/").is_err());
        assert!(decode_target("/trace/a/b").is_err());
        assert!(decode_target("/metrics/x").is_err(), "one-segment junk stays unroutable");
    }

    #[test]
    fn container_and_info_targets_decode() {
        assert!(matches!(decode_target("/info").unwrap(), Target::Info));
        let Target::Container { account, container } =
            decode_target("/AUTH_gp/my%20meters").unwrap()
        else {
            panic!("not a container target")
        };
        assert_eq!(account, "AUTH_gp");
        assert_eq!(container, "my meters");
        assert!(matches!(decode_target("/a/c/o").unwrap(), Target::Object(_)));
        assert!(decode_target("/onlyaccount").is_err());
    }
}
