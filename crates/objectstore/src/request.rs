//! HTTP-shaped requests and responses.
//!
//! Swift is driven through a RESTful HTTP API; Scoop piggybacks pushdown
//! tasks "by piggybacking specific metadata fields in the HTTP GET request".
//! This module models exactly the parts of HTTP the system relies on:
//! methods, headers (case-insensitive), byte ranges and streamed bodies.

use crate::path::ObjectPath;
use bytes::Bytes;
use scoop_common::{stream, ByteStream, Deadline, Result, ScoopError};
use std::collections::BTreeMap;

/// Request methods used by the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Retrieve an object (optionally a byte range).
    Get,
    /// Store an object.
    Put,
    /// Remove an object.
    Delete,
    /// Retrieve object metadata only.
    Head,
    /// Update object metadata.
    Post,
}

/// An inclusive byte range `[start, end]`, mirroring `Range: bytes=a-b`.
/// `end == None` means "to end of object".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ByteRange {
    /// First byte offset (inclusive).
    pub start: u64,
    /// Last byte offset (inclusive), or `None` for EOF.
    pub end: Option<u64>,
}

impl ByteRange {
    /// Parse a `bytes=a-b` / `bytes=a-` header value.
    pub fn parse(header: &str) -> Result<ByteRange> {
        let spec = header
            .strip_prefix("bytes=")
            .ok_or_else(|| ScoopError::InvalidRequest(format!("bad range '{header}'")))?;
        let (a, b) = spec
            .split_once('-')
            .ok_or_else(|| ScoopError::InvalidRequest(format!("bad range '{header}'")))?;
        let start: u64 = a
            .parse()
            .map_err(|_| ScoopError::InvalidRequest(format!("bad range start '{a}'")))?;
        let end = if b.is_empty() {
            None
        } else {
            let e: u64 = b
                .parse()
                .map_err(|_| ScoopError::InvalidRequest(format!("bad range end '{b}'")))?;
            if e < start {
                return Err(ScoopError::InvalidRequest(format!(
                    "range end before start in '{header}'"
                )));
            }
            Some(e)
        };
        Ok(ByteRange { start, end })
    }

    /// Render back to a header value.
    pub fn to_header(self) -> String {
        match self.end {
            Some(e) => format!("bytes={}-{e}", self.start),
            None => format!("bytes={}-", self.start),
        }
    }

    /// Clamp against an object of `len` bytes → half-open `[start, end)`.
    pub fn resolve(self, len: u64) -> (u64, u64) {
        let start = self.start.min(len);
        let end = match self.end {
            // Saturating: `bytes=0-18446744073709551615` is a valid header
            // and must clamp to the object, not overflow-panic.
            Some(e) => e.saturating_add(1).min(len),
            None => len,
        };
        (start, end.max(start))
    }
}

/// A fully parsed `Range` header: either a range anchored at a start
/// offset ([`ByteRange`]) or an RFC 7233 *suffix* range (`bytes=-n`, the
/// final `n` bytes of the object). [`ByteRange::parse`] alone rejects the
/// suffix form, which used to make the object server 400 a legal header;
/// servers parse via [`RangeSpec::parse`] and share one resolution rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RangeSpec {
    /// `bytes=a-b` / `bytes=a-`.
    FromStart(ByteRange),
    /// `bytes=-n`: the final `n` bytes of the object.
    Suffix(u64),
}

impl RangeSpec {
    /// Parse any `bytes=...` header form.
    pub fn parse(header: &str) -> Result<RangeSpec> {
        let spec = header
            .strip_prefix("bytes=")
            .ok_or_else(|| ScoopError::InvalidRequest(format!("bad range '{header}'")))?;
        if let Some(n) = spec.strip_prefix('-') {
            if !n.is_empty() {
                let n: u64 = n.parse().map_err(|_| {
                    ScoopError::InvalidRequest(format!("bad suffix range '{header}'"))
                })?;
                return Ok(RangeSpec::Suffix(n));
            }
            // `bytes=-` has neither a start nor a suffix length; fall
            // through so ByteRange::parse reports it.
        }
        Ok(RangeSpec::FromStart(ByteRange::parse(header)?))
    }

    /// Resolve against an object of `len` bytes → clamped half-open
    /// `[start, end)`. A suffix longer than the object clamps to the whole
    /// object, per RFC 7233.
    pub fn resolve(self, len: u64) -> (u64, u64) {
        match self {
            RangeSpec::FromStart(r) => r.resolve(len),
            RangeSpec::Suffix(n) => (len.saturating_sub(n), len),
        }
    }

    /// RFC 7233 satisfiability: does the range select at least one byte of
    /// an object `len` bytes long? Unsatisfiable ranges (start past EOF,
    /// `bytes=-0`, any range on an empty object) must be answered with
    /// `416` + `Content-Range: bytes */len`, never with a fabricated empty
    /// `206`.
    pub fn satisfiable(self, len: u64) -> bool {
        let (start, end) = self.resolve(len);
        start < end
    }
}

/// Case-insensitive header map (values keep their case).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Headers(BTreeMap<String, String>);

impl Headers {
    /// Empty header map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set a header (replacing any previous value).
    pub fn set(&mut self, name: &str, value: impl Into<String>) {
        self.0.insert(name.to_ascii_lowercase(), value.into());
    }

    /// Get a header value.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.0.get(&name.to_ascii_lowercase()).map(String::as_str)
    }

    /// Remove a header, returning its value.
    pub fn remove(&mut self, name: &str) -> Option<String> {
        self.0.remove(&name.to_ascii_lowercase())
    }

    /// Remove every header whose (lowercase) name starts with `prefix`.
    pub fn remove_prefix(&mut self, prefix: &str) {
        let prefix = prefix.to_ascii_lowercase();
        self.0.retain(|k, _| !k.starts_with(&prefix));
    }

    /// True when the header is present.
    pub fn contains(&self, name: &str) -> bool {
        self.0.contains_key(&name.to_ascii_lowercase())
    }

    /// Iterate over `(name, value)` pairs (names lowercased).
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.0.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// All headers with the given prefix (e.g. `x-object-meta-`).
    pub fn with_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (&'a str, &'a str)> + 'a {
        let prefix = prefix.to_ascii_lowercase();
        self.0
            .iter()
            .filter(move |(k, _)| k.starts_with(&prefix))
            .map(|(k, v)| (k.as_str(), v.as_str()))
    }
}

/// A storage request.
#[derive(Clone)]
pub struct Request {
    /// HTTP-like method.
    pub method: Method,
    /// Target object.
    pub path: ObjectPath,
    /// Request headers (auth token, pushdown metadata, range, user metadata).
    pub headers: Headers,
    /// Body for PUT requests.
    pub body: Option<Bytes>,
    /// Time budget of the query this request serves; every hop (client
    /// dispatch, proxy routing, object server) checks it before working.
    pub deadline: Deadline,
}

impl Request {
    /// Build a GET request.
    pub fn get(path: ObjectPath) -> Request {
        Request {
            method: Method::Get,
            path,
            headers: Headers::new(),
            body: None,
            deadline: Deadline::none(),
        }
    }

    /// Build a PUT request with a body.
    pub fn put(path: ObjectPath, body: Bytes) -> Request {
        Request {
            method: Method::Put,
            path,
            headers: Headers::new(),
            body: Some(body),
            deadline: Deadline::none(),
        }
    }

    /// Build a DELETE request.
    pub fn delete(path: ObjectPath) -> Request {
        Request {
            method: Method::Delete,
            path,
            headers: Headers::new(),
            body: None,
            deadline: Deadline::none(),
        }
    }

    /// Build a HEAD request.
    pub fn head(path: ObjectPath) -> Request {
        Request {
            method: Method::Head,
            path,
            headers: Headers::new(),
            body: None,
            deadline: Deadline::none(),
        }
    }

    /// Attach a header (builder style).
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Request {
        self.headers.set(name, value);
        self
    }

    /// Attach a time budget (builder style).
    pub fn with_deadline(mut self, deadline: Deadline) -> Request {
        self.deadline = deadline;
        self
    }

    /// Attach a byte range.
    pub fn with_range(self, range: ByteRange) -> Request {
        self.with_header("range", range.to_header())
    }

    /// Parse the `Range` header if present. Rejects suffix ranges; callers
    /// that must honor every RFC 7233 form use [`Request::range_spec`].
    pub fn range(&self) -> Result<Option<ByteRange>> {
        self.headers.get("range").map(ByteRange::parse).transpose()
    }

    /// Parse the `Range` header (including the suffix form) if present.
    pub fn range_spec(&self) -> Result<Option<RangeSpec>> {
        self.headers.get("range").map(RangeSpec::parse).transpose()
    }
}

impl std::fmt::Debug for Request {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Request")
            .field("method", &self.method)
            .field("path", &self.path.to_string())
            .field("headers", &self.headers)
            .field("body_len", &self.body.as_ref().map(Bytes::len))
            .finish()
    }
}

/// A storage response with a streamed body.
pub struct Response {
    /// HTTP-like status code.
    pub status: u16,
    /// Response headers (etag, content-length, metadata, filter stats).
    pub headers: Headers,
    /// Body stream (empty for errors / HEAD / PUT acks).
    pub body: ByteStream,
}

impl Response {
    /// 200 response with a streamed body.
    pub fn ok(body: ByteStream) -> Response {
        Response { status: 200, headers: Headers::new(), body }
    }

    /// 201 created (PUT ack).
    pub fn created() -> Response {
        Response { status: 201, headers: Headers::new(), body: stream::empty() }
    }

    /// 204 no content (DELETE ack, HEAD).
    pub fn no_content() -> Response {
        Response { status: 204, headers: Headers::new(), body: stream::empty() }
    }

    /// 503 service unavailable (overload shedding).
    pub fn unavailable() -> Response {
        Response { status: 503, headers: Headers::new(), body: stream::empty() }
    }

    /// 416 range not satisfiable for an object of `total` bytes, carrying
    /// the RFC 7233 `Content-Range: bytes */total` form.
    pub fn range_not_satisfiable(total: u64) -> Response {
        Response { status: 416, headers: Headers::new(), body: stream::empty() }
            .with_header("content-range", format!("bytes */{total}"))
    }

    /// Attach a header (builder style).
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Response {
        self.headers.set(name, value);
        self
    }

    /// True for 2xx statuses.
    pub fn is_success(&self) -> bool {
        (200..300).contains(&self.status)
    }

    /// Drain the body into one buffer, sized once from `content-length`
    /// when the response carries it (a one-chunk body is returned as is).
    pub fn read_body(self) -> Result<Bytes> {
        let expected = self
            .headers
            .get("content-length")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        stream::collect_sized(self.body, expected)
    }
}

impl std::fmt::Debug for Response {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Response")
            .field("status", &self.status)
            .field("headers", &self.headers)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_range_parse_and_render() {
        let r = ByteRange::parse("bytes=10-20").unwrap();
        assert_eq!(r, ByteRange { start: 10, end: Some(20) });
        assert_eq!(r.to_header(), "bytes=10-20");
        let open = ByteRange::parse("bytes=5-").unwrap();
        assert_eq!(open.end, None);
        assert!(ByteRange::parse("10-20").is_err());
        assert!(ByteRange::parse("bytes=20-10").is_err());
        assert!(ByteRange::parse("bytes=x-2").is_err());
    }

    #[test]
    fn byte_range_resolution_clamps() {
        assert_eq!(ByteRange { start: 0, end: Some(9) }.resolve(100), (0, 10));
        assert_eq!(ByteRange { start: 0, end: None }.resolve(100), (0, 100));
        assert_eq!(ByteRange { start: 50, end: Some(500) }.resolve(100), (50, 100));
        assert_eq!(ByteRange { start: 200, end: None }.resolve(100), (100, 100));
    }

    #[test]
    fn byte_range_resolution_survives_u64_max() {
        // Regression: `end + 1` used to overflow-panic on the largest legal
        // header value, letting one request kill an object server thread.
        let r = ByteRange::parse("bytes=0-18446744073709551615").unwrap();
        assert_eq!(r.resolve(100), (0, 100));
        assert_eq!(ByteRange { start: 5, end: Some(u64::MAX) }.resolve(10), (5, 10));
    }

    #[test]
    fn range_spec_covers_every_header_form() {
        assert_eq!(
            RangeSpec::parse("bytes=10-20").unwrap(),
            RangeSpec::FromStart(ByteRange { start: 10, end: Some(20) })
        );
        assert_eq!(RangeSpec::parse("bytes=-5").unwrap(), RangeSpec::Suffix(5));
        assert!(RangeSpec::parse("bytes=-").is_err());
        assert!(RangeSpec::parse("bytes=-x").is_err());
        assert!(RangeSpec::parse("10-20").is_err());
        assert!(RangeSpec::parse("bytes=20-10").is_err());
    }

    #[test]
    fn suffix_ranges_resolve_to_the_object_tail() {
        assert_eq!(RangeSpec::Suffix(4).resolve(10), (6, 10));
        // Longer than the object: the whole object, per RFC 7233.
        assert_eq!(RangeSpec::Suffix(100).resolve(10), (0, 10));
        assert_eq!(RangeSpec::Suffix(0).resolve(10), (10, 10));
        assert_eq!(RangeSpec::Suffix(4).resolve(0), (0, 0));
    }

    #[test]
    fn satisfiability_matches_rfc_7233() {
        assert!(RangeSpec::Suffix(1).satisfiable(10));
        assert!(!RangeSpec::Suffix(0).satisfiable(10), "bytes=-0 selects nothing");
        assert!(!RangeSpec::Suffix(5).satisfiable(0), "empty objects satisfy no range");
        let past_eof = RangeSpec::FromStart(ByteRange { start: 10, end: None });
        assert!(!past_eof.satisfiable(10));
        assert!(past_eof.satisfiable(11));
        let bounded = RangeSpec::FromStart(ByteRange { start: 2, end: Some(5) });
        assert!(bounded.satisfiable(3));
        assert!(!bounded.satisfiable(2));
    }

    #[test]
    fn range_not_satisfiable_reports_total_size() {
        let r = Response::range_not_satisfiable(42);
        assert_eq!(r.status, 416);
        assert!(!r.is_success());
        assert_eq!(r.headers.get("content-range"), Some("bytes */42"));
    }

    #[test]
    fn headers_are_case_insensitive() {
        let mut h = Headers::new();
        h.set("X-Auth-Token", "tok");
        assert_eq!(h.get("x-auth-token"), Some("tok"));
        assert!(h.contains("X-AUTH-TOKEN"));
        h.set("X-Object-Meta-Owner", "gp");
        h.set("X-Object-Meta-Kind", "csv");
        assert_eq!(h.with_prefix("X-Object-Meta-").count(), 2);
        assert_eq!(h.remove("x-auth-token"), Some("tok".into()));
        assert!(!h.contains("x-auth-token"));
    }

    #[test]
    fn request_builders() {
        let p = ObjectPath::new("a", "c", "o").unwrap();
        let req = Request::get(p.clone())
            .with_range(ByteRange { start: 0, end: Some(99) })
            .with_header("x-run-storlet", "csvfilter");
        assert_eq!(req.range().unwrap().unwrap().end, Some(99));
        assert_eq!(req.headers.get("x-run-storlet"), Some("csvfilter"));
        let put = Request::put(p, Bytes::from_static(b"data"));
        assert_eq!(put.body.as_ref().unwrap().len(), 4);
    }

    #[test]
    fn response_helpers() {
        let r = Response::ok(stream::once(Bytes::from_static(b"xy")))
            .with_header("etag", "abc");
        assert!(r.is_success());
        assert_eq!(r.headers.get("etag"), Some("abc"));
        assert_eq!(r.read_body().unwrap(), "xy");
        assert!(!crate::request::Response {
            status: 404,
            headers: Headers::new(),
            body: stream::empty()
        }
        .is_success());
    }
}
