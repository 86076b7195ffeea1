//! Object servers: device-local request handling.
//!
//! Swift object servers "are responsible for handling the replication of
//! objects across available disks ... and for managing objects". Here each
//! object server owns a set of devices (one backend per device), runs its own
//! middleware pipeline — the hook that lets the paper's extension run
//! "Storlets at storage nodes for byte ranges" — and exposes health toggles
//! for failure-injection tests.

use crate::backend::{MemBackend, StorageBackend, StoredObject};
use crate::middleware::Pipeline;
use crate::request::{Method, Request, Response};
use crate::ring::DeviceId;
use parking_lot::RwLock;
use scoop_common::telemetry::{self, names, ScopedCounter};
use scoop_common::{stream, ByteStream, Result, ScoopError};

/// GET response chunk size. Small (like Hadoop's 4 KB I/O buffer) so lazy
/// consumers that stop at a record boundary overshoot by at most this much.
/// Small chunks cost only iterator overhead: in process they are zero-copy
/// `Bytes` slices, and over TCP each is still its own frame but not its own
/// syscalls — the server coalesces frames into `net::wire::IO_BUFFER`-sized
/// writes and the client splits them back out of reads at least that large.
pub const RESPONSE_CHUNK: usize = 4 * 1024;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Stage marker header set by servers before running their pipeline, so a
/// middleware (e.g. the storlet engine) knows which tier it executes on.
pub const STAGE_HEADER: &str = scoop_common::headers::BACKEND_STAGE;
/// Stage value at proxies.
pub const STAGE_PROXY: &str = "proxy";
/// Stage value at object servers.
pub const STAGE_OBJECT: &str = "object";

/// Per-upload idempotency token header. The client stamps every logical PUT
/// with a fresh token; a re-dispatched PUT whose first attempt already
/// landed on a replica is acked without re-storing, so it cannot
/// double-count toward the write quorum.
pub const UPLOAD_TOKEN_HEADER: &str = scoop_common::headers::UPLOAD_TOKEN;

/// Monotonic counters exposed for experiments (bytes served, request counts).
/// Each is a [`ScopedCounter`]: the per-server value backs [`StatsSnapshot`]
/// accessors exactly, while every increment also feeds the process-wide
/// registry metric of the same role (`scoop_objserver_*`).
#[derive(Debug)]
pub struct ServerStats {
    /// GET requests served.
    pub gets: ScopedCounter,
    /// PUT requests served (actual stores; deduplicated re-PUTs excluded).
    pub puts: ScopedCounter,
    /// Payload bytes written by PUTs.
    pub bytes_in: ScopedCounter,
    /// Payload bytes GET bodies delivered (before any middleware
    /// filtering): counted as each body's chunks are pulled, so a reader
    /// that stops early is charged only what it read. A body publishes its
    /// count once, when it is dropped, so a snapshot taken while a body is
    /// still alive leaves that body out.
    pub bytes_out: Arc<ScopedCounter>,
    /// Re-dispatched PUTs acked idempotently via their upload token.
    pub deduped_puts: ScopedCounter,
}

impl Default for ServerStats {
    fn default() -> Self {
        ServerStats {
            gets: ScopedCounter::new(names::OBJSERVER_GETS),
            puts: ScopedCounter::new(names::OBJSERVER_PUTS),
            bytes_in: ScopedCounter::new(names::OBJSERVER_BYTES_IN),
            bytes_out: Arc::new(ScopedCounter::new(names::OBJSERVER_BYTES_OUT)),
            deduped_puts: ScopedCounter::new(names::OBJSERVER_DEDUPED_PUTS),
        }
    }
}

impl ServerStats {
    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            gets: self.gets.get(),
            puts: self.puts.get(),
            bytes_in: self.bytes_in.get(),
            bytes_out: self.bytes_out.get(),
            deduped_puts: self.deduped_puts.get(),
        }
    }
}

/// A point-in-time copy of [`ServerStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// GET requests served.
    pub gets: u64,
    /// PUT requests served (actual stores).
    pub puts: u64,
    /// Payload bytes written.
    pub bytes_in: u64,
    /// Payload bytes GET bodies delivered.
    pub bytes_out: u64,
    /// Re-dispatched PUTs acked idempotently via their upload token.
    pub deduped_puts: u64,
}

/// An object server hosting several devices.
pub struct ObjectServer {
    /// Node id referenced by ring devices.
    pub id: u32,
    devices: HashMap<DeviceId, Arc<dyn StorageBackend>>,
    pipeline: RwLock<Pipeline>,
    down: AtomicBool,
    stats: ServerStats,
}

impl ObjectServer {
    /// Create a server with in-memory backends for the given devices.
    pub fn with_mem_devices(id: u32, devices: &[DeviceId]) -> Self {
        let map = devices
            .iter()
            .map(|&d| (d, Arc::new(MemBackend::new()) as Arc<dyn StorageBackend>))
            .collect();
        ObjectServer {
            id,
            devices: map,
            pipeline: RwLock::new(Pipeline::new()),
            down: AtomicBool::new(false),
            stats: ServerStats::default(),
        }
    }

    /// Create a server with explicit backends.
    pub fn with_backends(id: u32, devices: HashMap<DeviceId, Arc<dyn StorageBackend>>) -> Self {
        ObjectServer {
            id,
            devices,
            pipeline: RwLock::new(Pipeline::new()),
            down: AtomicBool::new(false),
            stats: ServerStats::default(),
        }
    }

    /// Replace the middleware pipeline (e.g. to install the storlet engine).
    pub fn set_pipeline(&self, pipeline: Pipeline) {
        *self.pipeline.write() = pipeline;
    }

    /// Mark the server up/down (failure injection).
    pub fn set_down(&self, down: bool) {
        self.down.store(down, Ordering::SeqCst);
    }

    /// True when the server is marked down.
    pub fn is_down(&self) -> bool {
        self.down.load(Ordering::SeqCst)
    }

    /// Device ids hosted by this server.
    pub fn device_ids(&self) -> Vec<DeviceId> {
        let mut ids: Vec<DeviceId> = self.devices.keys().copied().collect();
        ids.sort();
        ids
    }

    /// Direct backend access for a device — used by the replicator, which in
    /// Swift talks rsync directly between object servers. Fails when down.
    pub fn backend(&self, device: DeviceId) -> Result<Arc<dyn StorageBackend>> {
        if self.is_down() {
            return Err(ScoopError::Io(std::io::Error::other(format!(
                "object server {} is down",
                self.id
            ))));
        }
        self.devices
            .get(&device)
            .cloned()
            .ok_or_else(|| ScoopError::NotFound(format!("device {device:?} on node {}", self.id)))
    }

    /// Counters snapshot.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Handle a request against one of this server's devices, running the
    /// object-stage middleware pipeline.
    pub fn handle(&self, device: DeviceId, mut req: Request) -> Result<Response> {
        if self.is_down() {
            return Err(ScoopError::Io(std::io::Error::other(format!(
                "object server {} is down",
                self.id
            ))));
        }
        req.deadline
            .check(&format!("object server {} {:?}", self.id, req.method))?;
        let backend = self.backend(device)?;
        let _span = telemetry::span(
            req.headers.get(scoop_common::headers::TRACE),
            telemetry::layers::OBJSERVER,
            format!("node {} {:?} {}", self.id, req.method, req.path.ring_key()),
        );
        req.headers.set(STAGE_HEADER, STAGE_OBJECT);
        let pipeline = self.pipeline.read().clone();
        let stats = &self.stats;
        pipeline.execute(req, &move |req: Request| {
            Self::terminal(stats, backend.as_ref(), req)
        })
    }

    /// Extract `x-object-meta-*` headers into a metadata map.
    fn user_metadata(req: &Request) -> BTreeMap<String, String> {
        req.headers
            .with_prefix(scoop_common::headers::OBJECT_META_PREFIX)
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    fn terminal(
        stats: &ServerStats,
        backend: &dyn StorageBackend,
        req: Request,
    ) -> Result<Response> {
        let key = req.path.ring_key();
        match req.method {
            Method::Put => {
                let body = req.body.clone().unwrap_or_default();
                let token = req.headers.get(UPLOAD_TOKEN_HEADER);
                // Idempotent re-dispatch: if the stored copy already carries
                // this upload's token, the first attempt landed here — ack
                // with the stored identity instead of storing again. The
                // existence probe uses `contains` (fault- and op-free) so a
                // first-time PUT consumes no extra fault-injector samples;
                // only genuine overwrites pay the metadata read, and if that
                // read faults we just store again (same token, same bytes).
                if let Some(token) = token {
                    if backend.contains(&key) {
                        if let Ok(existing) = backend.head(&key) {
                            if existing
                                .metadata
                                .get(UPLOAD_TOKEN_HEADER)
                                .is_some_and(|t| t == token)
                            {
                                stats.deduped_puts.inc();
                                return Ok(Response::created()
                                    .with_header("etag", existing.etag.clone())
                                    .with_header(
                                        "content-length",
                                        existing.size.to_string(),
                                    ));
                            }
                        }
                    }
                }
                stats.puts.inc();
                stats.bytes_in.add(body.len() as u64);
                let mut metadata = Self::user_metadata(&req);
                if let Some(token) = token {
                    metadata.insert(UPLOAD_TOKEN_HEADER.to_string(), token.to_string());
                }
                let obj = StoredObject::new(body, metadata);
                let etag = obj.etag.clone();
                let size = obj.data.len();
                backend.put(&key, obj)?;
                Ok(Response::created()
                    .with_header("etag", etag)
                    .with_header("content-length", size.to_string()))
            }
            Method::Get => {
                let meta = backend.head(&key)?;
                let spec = req.range_spec()?;
                // RFC 7233: a range that selects no bytes (past-EOF start,
                // zero-length suffix, empty object) is 416 with the total
                // size, never a fabricated `bytes 0-0/N`.
                if let Some(spec) = spec {
                    if !spec.satisfiable(meta.size) {
                        return Ok(Response::range_not_satisfiable(meta.size));
                    }
                }
                let (start, end) = match spec {
                    Some(spec) => spec.resolve(meta.size),
                    None => (0, meta.size),
                };
                let data = backend.get_range(&key, start, end)?;
                stats.gets.inc();
                let body = ServedBody {
                    chunks: stream::chunked(data, RESPONSE_CHUNK),
                    pulled: 0,
                    bytes_out: stats.bytes_out.clone(),
                };
                let mut resp = Response::ok(Box::new(body))
                    .with_header("etag", meta.etag)
                    .with_header("content-length", end.saturating_sub(start).to_string())
                    .with_header(scoop_common::headers::OBJECT_LENGTH, meta.size.to_string());
                // The upload token is replica-internal bookkeeping, not
                // user metadata — it never leaves the server. The zone-map
                // stats stay off GETs too: they can outgrow a response head,
                // and a reader that wants them asks with a HEAD.
                let stats_prefix = scoop_common::headers::SCOOP_STATS_PREFIX;
                for (k, v) in meta
                    .metadata
                    .iter()
                    .filter(|(k, _)| *k != UPLOAD_TOKEN_HEADER && !k.starts_with(stats_prefix))
                {
                    resp.headers.set(k, v.clone());
                }
                if spec.is_some() {
                    // `end > start` here (unsatisfiable ranges returned 416
                    // above), so the inclusive last-byte index is exact.
                    resp.status = 206;
                    resp.headers.set(
                        "content-range",
                        format!("bytes {start}-{}/{}", end.saturating_sub(1), meta.size),
                    );
                }
                Ok(resp)
            }
            Method::Head => {
                let meta = backend.head(&key)?;
                let mut resp = Response::no_content()
                    .with_header("etag", meta.etag)
                    .with_header("content-length", meta.size.to_string());
                for (k, v) in meta.metadata.iter().filter(|(k, _)| *k != UPLOAD_TOKEN_HEADER) {
                    resp.headers.set(k, v.clone());
                }
                Ok(resp)
            }
            Method::Delete => {
                backend.delete(&key)?;
                Ok(Response::no_content())
            }
            Method::Post => {
                // Metadata-only update: replace *user* metadata, keep payload.
                // Internal keys ride in the same map but are not the client's
                // to replace: the upload token backs PUT-replay dedup and the
                // scoop-stats chunks back block skipping — wholesale
                // replacement used to destroy both (and let a client forge
                // stats for data it never wrote, which is why user-supplied
                // stats keys are dropped rather than honoured).
                let mut obj = backend.get(&key)?;
                let stats_prefix = scoop_common::headers::SCOOP_STATS_PREFIX;
                let mut metadata: BTreeMap<String, String> = Self::user_metadata(&req)
                    .into_iter()
                    .filter(|(k, _)| !k.starts_with(stats_prefix))
                    .collect();
                for (k, v) in &obj.metadata {
                    if k == UPLOAD_TOKEN_HEADER || k.starts_with(stats_prefix) {
                        metadata.insert(k.clone(), v.clone());
                    }
                }
                obj.metadata = metadata;
                backend.put(&key, obj)?;
                Ok(Response::no_content())
            }
        }
    }
}

/// A GET body that counts the bytes pulled from it and adds them to the
/// server's `bytes_out` when dropped: one atomic add per body, not per
/// chunk.
struct ServedBody {
    chunks: ByteStream,
    pulled: u64,
    bytes_out: Arc<ScopedCounter>,
}

impl Iterator for ServedBody {
    type Item = Result<bytes::Bytes>;

    fn next(&mut self) -> Option<Self::Item> {
        let chunk = self.chunks.next();
        if let Some(Ok(c)) = &chunk {
            self.pulled = self.pulled.saturating_add(c.len() as u64);
        }
        chunk
    }
}

impl Drop for ServedBody {
    fn drop(&mut self) {
        self.bytes_out.add(self.pulled);
    }
}

impl std::fmt::Debug for ObjectServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObjectServer")
            .field("id", &self.id)
            .field("devices", &self.device_ids())
            .field("down", &self.is_down())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::ObjectPath;
    use bytes::Bytes;
    use crate::request::ByteRange;

    fn server() -> ObjectServer {
        ObjectServer::with_mem_devices(0, &[DeviceId(0), DeviceId(1)])
    }

    fn path() -> ObjectPath {
        ObjectPath::new("a", "c", "data.csv").unwrap()
    }

    #[test]
    fn put_get_roundtrip_with_metadata() {
        let s = server();
        let put = Request::put(path(), Bytes::from_static(b"col1,col2\n1,2\n"))
            .with_header("X-Object-Meta-Schema", "col1,col2");
        let resp = s.handle(DeviceId(0), put).unwrap();
        assert_eq!(resp.status, 201);
        let etag = resp.headers.get("etag").unwrap().to_string();

        let got = s.handle(DeviceId(0), Request::get(path())).unwrap();
        assert_eq!(got.status, 200);
        assert_eq!(got.headers.get("etag"), Some(etag.as_str()));
        assert_eq!(got.headers.get("x-object-meta-schema"), Some("col1,col2"));
        assert_eq!(got.read_body().unwrap(), "col1,col2\n1,2\n");

        // The same object is absent on another device.
        assert!(s.handle(DeviceId(1), Request::get(path())).is_err());
    }

    #[test]
    fn ranged_get_returns_206() {
        let s = server();
        s.handle(DeviceId(0), Request::put(path(), Bytes::from_static(b"0123456789")))
            .unwrap();
        let resp = s
            .handle(
                DeviceId(0),
                Request::get(path()).with_range(ByteRange { start: 2, end: Some(5) }),
            )
            .unwrap();
        assert_eq!(resp.status, 206);
        assert_eq!(resp.headers.get("content-range"), Some("bytes 2-5/10"));
        assert_eq!(resp.read_body().unwrap(), "2345");
    }

    #[test]
    fn unsatisfiable_range_returns_416_not_fabricated_content_range() {
        let s = server();
        s.handle(DeviceId(0), Request::put(path(), Bytes::from_static(b"0123456789")))
            .unwrap();
        // Past-EOF open range selects nothing.
        let resp = s
            .handle(
                DeviceId(0),
                Request::get(path()).with_range(ByteRange { start: 10, end: None }),
            )
            .unwrap();
        assert_eq!(resp.status, 416);
        assert_eq!(resp.headers.get("content-range"), Some("bytes */10"));
        assert_eq!(resp.read_body().unwrap().len(), 0);
        // Zero-length suffix likewise.
        let resp = s
            .handle(DeviceId(0), Request::get(path()).with_header("range", "bytes=-0"))
            .unwrap();
        assert_eq!(resp.status, 416);
        // 416 GETs never count as served bytes.
        assert_eq!(s.stats().gets, 0);
        assert_eq!(s.stats().bytes_out, 0);
    }

    #[test]
    fn suffix_range_serves_the_object_tail() {
        let s = server();
        s.handle(DeviceId(0), Request::put(path(), Bytes::from_static(b"0123456789")))
            .unwrap();
        let resp = s
            .handle(DeviceId(0), Request::get(path()).with_header("range", "bytes=-4"))
            .unwrap();
        assert_eq!(resp.status, 206);
        assert_eq!(resp.headers.get("content-range"), Some("bytes 6-9/10"));
        assert_eq!(resp.read_body().unwrap(), "6789");
    }

    #[test]
    fn head_delete_post() {
        let s = server();
        s.handle(
            DeviceId(0),
            Request::put(path(), Bytes::from_static(b"xyz"))
                .with_header("x-object-meta-a", "1"),
        )
        .unwrap();
        let head = s.handle(DeviceId(0), Request::head(path())).unwrap();
        assert_eq!(head.headers.get("content-length"), Some("3"));
        assert_eq!(head.headers.get("x-object-meta-a"), Some("1"));

        // POST replaces user metadata.
        let post = Request {
            method: Method::Post,
            path: path(),
            headers: Default::default(),
            body: None,
            deadline: Default::default(),
        }
        .with_header("x-object-meta-b", "2");
        s.handle(DeviceId(0), post).unwrap();
        let head = s.handle(DeviceId(0), Request::head(path())).unwrap();
        assert!(head.headers.get("x-object-meta-a").is_none());
        assert_eq!(head.headers.get("x-object-meta-b"), Some("2"));

        s.handle(DeviceId(0), Request::delete(path())).unwrap();
        assert!(s.handle(DeviceId(0), Request::head(path())).is_err());
    }

    #[test]
    fn post_preserves_internal_metadata() {
        let stats_key = format!("{}0", scoop_common::headers::SCOOP_STATS_PREFIX);
        let s = server();
        let put = Request::put(path(), Bytes::from_static(b"payload"))
            .with_header(UPLOAD_TOKEN_HEADER, "upload-1")
            .with_header(stats_key.as_str(), "v1|etag|...")
            .with_header("x-object-meta-a", "1");
        s.handle(DeviceId(0), put.clone()).unwrap();

        // A metadata-only POST replaces user keys but must not destroy the
        // internal ones, and must not let the client forge stats keys.
        let post = Request {
            method: Method::Post,
            path: path(),
            headers: Default::default(),
            body: None,
            deadline: Default::default(),
        }
        .with_header("x-object-meta-b", "2")
        .with_header(stats_key.as_str(), "forged");
        s.handle(DeviceId(0), post).unwrap();

        let backend = s.backend(DeviceId(0)).unwrap();
        let meta = backend.head(&path().ring_key()).unwrap();
        assert!(!meta.metadata.contains_key("x-object-meta-a"));
        assert_eq!(meta.metadata.get("x-object-meta-b").map(String::as_str), Some("2"));
        assert_eq!(
            meta.metadata.get(UPLOAD_TOKEN_HEADER).map(String::as_str),
            Some("upload-1"),
            "upload token must survive metadata-only POSTs"
        );
        assert_eq!(
            meta.metadata.get(stats_key.as_str()).map(String::as_str),
            Some("v1|etag|..."),
            "stored stats must survive and forged stats must be dropped"
        );

        // PUT-replay dedup still works after the POST: same token, no re-store.
        let replay = s.handle(DeviceId(0), put).unwrap();
        assert_eq!(replay.status, 201);
        assert_eq!(s.stats().puts, 1, "replayed PUT after POST must dedupe");
        assert_eq!(s.stats().deduped_puts, 1);
    }

    #[test]
    fn down_server_rejects_everything() {
        let s = server();
        s.handle(DeviceId(0), Request::put(path(), Bytes::from_static(b"x")))
            .unwrap();
        s.set_down(true);
        assert!(s.is_down());
        let err = s.handle(DeviceId(0), Request::get(path())).unwrap_err();
        assert!(err.is_retryable());
        assert!(s.backend(DeviceId(0)).is_err());
        s.set_down(false);
        assert!(s.handle(DeviceId(0), Request::get(path())).is_ok());
    }

    #[test]
    fn stats_accumulate() {
        let s = server();
        s.handle(DeviceId(0), Request::put(path(), Bytes::from_static(b"abcde")))
            .unwrap();
        for _ in 0..2 {
            let got = s.handle(DeviceId(0), Request::get(path())).unwrap();
            assert_eq!(got.read_body().unwrap(), "abcde");
        }
        let st = s.stats();
        assert_eq!(st.puts, 1);
        assert_eq!(st.gets, 2);
        assert_eq!(st.bytes_in, 5);
        assert_eq!(st.bytes_out, 10);
    }

    #[test]
    fn bytes_out_counts_what_a_body_delivered() {
        let s = server();
        let data: Bytes = (0..10 * RESPONSE_CHUNK).map(|i| i as u8).collect::<Vec<u8>>().into();
        s.handle(DeviceId(0), Request::put(path(), data)).unwrap();
        // A reader that stops after two chunks is charged two chunks.
        let mut body = s.handle(DeviceId(0), Request::get(path())).unwrap().body;
        let pulled: usize = body.by_ref().take(2).map(|c| c.unwrap().len()).sum();
        assert_eq!(pulled, 2 * RESPONSE_CHUNK);
        drop(body);
        assert_eq!(s.stats().bytes_out, pulled as u64);
        // A body nobody reads costs nothing; a ranged one read to its end
        // costs its range.
        drop(s.handle(DeviceId(0), Request::get(path())).unwrap());
        let ranged = Request::get(path()).with_range(ByteRange { start: 5, end: Some(104) });
        assert_eq!(s.handle(DeviceId(0), ranged).unwrap().read_body().unwrap().len(), 100);
        assert_eq!(s.stats().bytes_out, pulled as u64 + 100);
        assert_eq!(s.stats().gets, 3);
    }

    #[test]
    fn retried_put_with_same_token_stores_once() {
        let s = server();
        let put = Request::put(path(), Bytes::from_static(b"payload"))
            .with_header(UPLOAD_TOKEN_HEADER, "upload-1");
        let first = s.handle(DeviceId(0), put.clone()).unwrap();
        // Re-dispatch of the same logical upload: acked with the stored
        // identity, not stored again.
        let second = s.handle(DeviceId(0), put).unwrap();
        assert_eq!(second.status, 201);
        assert_eq!(second.headers.get("etag"), first.headers.get("etag"));
        assert_eq!(second.headers.get("content-length"), Some("7"));
        let st = s.stats();
        assert_eq!(st.puts, 1, "re-dispatch must not store twice");
        assert_eq!(st.deduped_puts, 1);
        // A *new* upload of the same object (fresh token) does store.
        let third = Request::put(path(), Bytes::from_static(b"payload2"))
            .with_header(UPLOAD_TOKEN_HEADER, "upload-2");
        s.handle(DeviceId(0), third).unwrap();
        assert_eq!(s.stats().puts, 2);
        // The token is internal: it never surfaces on reads.
        let got = s.handle(DeviceId(0), Request::get(path())).unwrap();
        assert!(got.headers.get(UPLOAD_TOKEN_HEADER).is_none());
    }

    #[test]
    fn expired_deadline_is_rejected_before_work() {
        use scoop_common::Deadline;
        use std::time::Duration;
        let s = server();
        s.handle(DeviceId(0), Request::put(path(), Bytes::from_static(b"x")))
            .unwrap();
        let late = Request::get(path())
            .with_deadline(Deadline::at(std::time::Instant::now() - Duration::from_millis(1)));
        let err = s.handle(DeviceId(0), late).unwrap_err();
        assert_eq!(err.kind(), "deadline");
        assert_eq!(s.stats().gets, 0, "expired requests must not reach the backend");
    }

    #[test]
    fn unknown_device_is_not_found() {
        let s = server();
        let err = s
            .handle(DeviceId(99), Request::get(path()))
            .unwrap_err();
        assert_eq!(err.kind(), "not_found");
    }

    #[test]
    fn stage_header_is_set_for_middleware() {
        use crate::middleware::{Handler, Middleware};
        struct AssertStage;
        impl Middleware for AssertStage {
            fn name(&self) -> &str {
                "assert-stage"
            }
            fn handle(&self, req: Request, next: &dyn Handler) -> Result<Response> {
                assert_eq!(req.headers.get(STAGE_HEADER), Some(STAGE_OBJECT));
                next.call(req)
            }
        }
        let s = server();
        let mut p = Pipeline::new();
        p.push(Arc::new(AssertStage));
        s.set_pipeline(p);
        s.handle(DeviceId(0), Request::put(path(), Bytes::from_static(b"x")))
            .unwrap();
    }
}
