//! The Stocator-like connector.
//!
//! "We modified Stocator so that it could inject pushdown tasks in object
//! requests issued to Swift; that is, HTTP requests issued by Spark tasks to
//! ingest data objects are tagged with the appropriate metadata (e.g.,
//! projections/selections) to execute both projections and the selections at
//! the object store." — Section V.
//!
//! [`SwiftConnector`] implements the compute framework's
//! [`StorageConnector`] seam over a `SwiftCluster` client:
//!
//! * plain reads — one resumable ranged GET (`ResumingStream`), lazily
//!   consumed, bounded when the caller knows where it will stop, resumed
//!   from the last delivered byte and length-checked against the store's
//!   `x-object-length`. The seam's exact range fetch (columnar
//!   footers/chunks, the CSV schema sniff) is this read drained to its end;
//! * pushdown reads — GETs tagged with `X-Run-Storlet: csvfilter`,
//!   `X-Storlet-Parameters` (the serialized [`PushdownSpec`] + file schema)
//!   and `X-Storlet-Range` (the record-aligned logical split); a split the
//!   store sheds or declines comes back plain ([`PushdownBody::Plain`]),
//!   through the same resumable read;
//! * zone-map lookups for partition discovery — one HEAD per listed object
//!   version, decoded once and kept in a bounded cache, "no index" included.
//!
//! It counts every byte its streams deliver to the compute side, which is
//! the inter-cluster traffic the paper's Fig. 9(c) plots.

use bytes::Bytes;
use scoop_common::rng::XorShift64;
use scoop_common::telemetry::{self, names, ScopedCounter};
use scoop_common::zonestats::{ObjectStats, StatsCache};
use scoop_common::{stream, ByteStream, Result, RetryPolicy, ScoopError};
use scoop_compute::connector::{ObjectInfo, PushdownBody, StorageConnector, SPLIT_SLACK};
use scoop_csv::PushdownSpec;
use scoop_objectstore::request::{ByteRange, Request, Response};
use scoop_objectstore::{ObjectPath, SwiftClient};
use scoop_storlets::api::{InvocationContext, Storlet};
use scoop_storlets::filters::csv::CsvFilterStorlet;
use scoop_storlets::middleware::{encode_params, headers};
use std::collections::HashMap;
use std::sync::Arc;

/// Where pushdown filters execute (the staging-control contribution).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RunOn {
    /// At object servers, close to the disks (the paper's preferred stage:
    /// higher concurrency, no full-object transfer to proxies).
    #[default]
    ObjectNode,
    /// At proxy servers.
    Proxy,
}

/// The connector. A *location* maps to a Swift container.
///
/// Wire accounting is one [`ScopedCounter`] per fact: each event moves the
/// per-connector value behind the accessor the experiments assert on and
/// its registry metric (`scoop_connector_*_total`) in the same call. The
/// handles are taken at construction, so a snapshot lists the metrics even
/// before any traffic.
pub struct SwiftConnector {
    client: SwiftClient,
    run_on: RunOn,
    reads: ReadLedger,
    fallbacks: ScopedCounter,
    skipped: ScopedCounter,
    /// Decoded zone maps per listed `(location, object, etag)`.
    zone_stats: StatsCache<(String, String, String)>,
}

/// The two counters a plain read writes to as it runs — bytes delivered
/// and mid-stream resumes. A [`ResumingStream`] carries a clone, because it
/// outlives the call that opened it.
#[derive(Clone)]
struct ReadLedger {
    transferred: Arc<ScopedCounter>,
    resumes: Arc<ScopedCounter>,
}

impl SwiftConnector {
    /// Wrap an authenticated client session.
    pub fn new(client: SwiftClient) -> Arc<SwiftConnector> {
        Self::with_run_on(client, RunOn::default())
    }

    /// Same as [`SwiftConnector::new`]: whether a session pushes down is
    /// `Session::with_pushdown`'s to say.
    pub fn without_pushdown(client: SwiftClient) -> Arc<SwiftConnector> {
        Self::new(client)
    }

    /// Choose the storlet execution stage.
    pub fn with_run_on(client: SwiftClient, run_on: RunOn) -> Arc<SwiftConnector> {
        Arc::new(SwiftConnector {
            client,
            run_on,
            reads: ReadLedger {
                transferred: Arc::new(ScopedCounter::new(names::CONNECTOR_BYTES_TRANSFERRED)),
                resumes: Arc::new(ScopedCounter::new(names::CONNECTOR_STREAM_RESUMES)),
            },
            fallbacks: ScopedCounter::new(names::CONNECTOR_PUSHDOWN_FALLBACKS),
            skipped: ScopedCounter::new(names::CONNECTOR_BYTES_SKIPPED),
            zone_stats: StatsCache::default(),
        })
    }

    /// Wrap a stream so every byte it delivers is counted.
    fn count(&self, inner: ByteStream) -> ByteStream {
        let ledger = self.reads.clone();
        Box::new(inner.inspect(move |item| {
            if let Ok(chunk) = item {
                ledger.transferred.add(chunk.len() as u64);
            }
        }))
    }

    /// The client session behind this connector.
    pub fn client(&self) -> &SwiftClient {
        &self.client
    }

    /// Mid-stream resumes: plain reads re-issued as ranged GETs from the
    /// last consumed byte after a retryable stream failure.
    pub fn stream_resumes(&self) -> u64 {
        self.reads.resumes.get()
    }

    /// Pushdown reads that the store shed for overload (`503` +
    /// `x-storlet-degraded`) and the connector re-issued as plain ranged
    /// GETs of the split ([`PushdownBody::Plain`]); declined ones are not
    /// counted.
    pub fn pushdown_fallbacks(&self) -> u64 {
        self.fallbacks.get()
    }

    /// Object-store bytes that pushdown reads never had to touch because the
    /// store's block planner pruned them with zone maps (the sum of the
    /// `x-scoop-skipped-bytes` response headers).
    pub fn bytes_skipped(&self) -> u64 {
        self.skipped.get()
    }

    /// Total recovery actions taken: request re-dispatches by the client
    /// plus mid-stream resumes by the connector.
    pub fn retries(&self) -> u64 {
        self.client.retries().saturating_add(self.stream_resumes())
    }

    fn path(&self, location: &str, object: &str) -> Result<ObjectPath> {
        ObjectPath::new(self.client.account(), location, object)
    }

    /// Open a resumable plain read from `start`, bounded at `stop` when the
    /// caller knows where it will stop. It starts with `answered` when
    /// given — the answer to a GET whose body begins at `start` — and
    /// otherwise sends its own. Every byte it delivers is counted.
    fn read_plain(
        &self,
        location: &str,
        object: &str,
        start: u64,
        stop: Option<u64>,
        answered: Option<Response>,
    ) -> Result<ByteStream> {
        let trace = self.client.trace();
        let _span = telemetry::span(
            trace.as_deref(),
            telemetry::layers::CONNECTOR,
            format!("read {location}/{object} from {start}"),
        );
        let path = self.path(location, object)?;
        let mut stream = ResumingStream::new(&self.client, path, start, stop, self.reads.clone());
        let resp = match answered {
            Some(resp) => resp,
            None => stream.get()?,
        };
        stream.accept(resp)?;
        Ok(Box::new(stream))
    }

    /// Send a storlet GET: `storlets` run with `params` at the configured
    /// stage, over the inclusive storlet `range` when given. `Ok(None)` is
    /// a request the store shed for overload (`503` +
    /// `x-storlet-degraded`); any other failure status is an error.
    fn storlet_get(
        &self,
        location: &str,
        object: &str,
        storlets: &str,
        params: &HashMap<String, String>,
        range: Option<ByteRange>,
    ) -> Result<Option<Response>> {
        let mut req = Request::get(self.path(location, object)?)
            .with_header(headers::RUN_STORLET, storlets)
            .with_header(headers::PARAMETERS, encode_params(params));
        if self.run_on == RunOn::Proxy {
            req = req.with_header(headers::RUN_ON, "proxy");
        }
        if let Some(range) = range {
            req = req.with_header(headers::STORLET_RANGE, range.to_header());
        }
        let resp = self.client.request(req)?;
        if resp.status == 503 && resp.headers.contains(headers::DEGRADED) {
            return Ok(None);
        }
        if !resp.is_success() {
            return Err(ScoopError::Io(std::io::Error::other(format!(
                "storlet GET {location}/{object} failed with status {}",
                resp.status
            ))));
        }
        Ok(Some(resp))
    }

    /// [`StorageConnector::open_pushdown`] as filtered record text: a plain
    /// split runs through the store's own CSV filter here, with the split
    /// as its range.
    pub fn read_pushdown(
        &self,
        location: &str,
        object: &str,
        start: u64,
        end_exclusive: Option<u64>,
        spec: &PushdownSpec,
        file_schema: &[String],
    ) -> Result<ByteStream> {
        match self.open_pushdown(location, object, start, end_exclusive, spec, file_schema)? {
            PushdownBody::Filtered(body) => Ok(body),
            PushdownBody::Plain(raw) => {
                let mut ctx = InvocationContext::new(csvfilter_params(spec, file_schema));
                ctx.range_start = start;
                ctx.range_end = end_exclusive.map(|end| end.saturating_sub(1));
                CsvFilterStorlet.invoke(raw, ctx)
            }
        }
    }
}

/// The `csvfilter` storlet's parameters for one pushdown read.
fn csvfilter_params(spec: &PushdownSpec, file_schema: &[String]) -> HashMap<String, String> {
    HashMap::from([
        ("spec".to_string(), spec.to_header()),
        ("schema".to_string(), file_schema.join(",")),
    ])
}

/// A byte stream over one object that survives mid-stream failures by
/// re-issuing a ranged GET from the last byte it delivered downstream.
///
/// Plain reads are byte-addressed, so a broken stream can resume exactly
/// where it left off — unlike pushdown streams, whose filtered output has no
/// stable byte mapping back into the object and which therefore recover via
/// whole-task re-execution in the compute scheduler.
///
/// Truncated bodies are detected by length-checking each GET against the
/// store's `x-object-length` header: a stream that ends early surfaces a
/// retryable error instead of silently passing short data to the query.
///
/// The first GET is the caller's to send ([`ResumingStream::get`]) or to
/// have sent already: a declined pushdown answers the split's raw bytes,
/// and the stream [accepts](ResumingStream::accept) that body as its own.
///
/// With a `stop` offset the same stream asks for `[offset, stop)` instead of
/// `[offset, EOF)`: the caller expects to be done by then, and a body read
/// to its terminator returns its connection to the pool where an abandoned
/// one costs it. Pulled past `stop`, the stream continues with the next
/// [`SPLIT_SLACK`] bytes from the current offset — the re-issue a failure
/// triggers, minus the failure. Dropped within that slack of `stop`, it
/// reads the remainder out first.
struct ResumingStream {
    client: SwiftClient,
    path: ObjectPath,
    /// Absolute offset of the next byte to deliver.
    offset: u64,
    /// Where the current GET's range ends, for a bounded read.
    stop: Option<u64>,
    /// The object's size, once a response has reported it.
    total: Option<u64>,
    inner: Option<ByteStream>,
    policy: RetryPolicy,
    rng: XorShift64,
    /// Consecutive failures without delivering a byte.
    failures: u32,
    ledger: ReadLedger,
    done: bool,
}

impl ResumingStream {
    /// A read of `path` from `start`, with no GET sent yet.
    fn new(
        client: &SwiftClient,
        path: ObjectPath,
        start: u64,
        stop: Option<u64>,
        ledger: ReadLedger,
    ) -> ResumingStream {
        ResumingStream {
            client: client.clone(),
            path,
            offset: start,
            stop,
            total: None,
            inner: None,
            policy: client.retry_policy().clone(),
            rng: XorShift64::new(client.retry_policy().seed ^ 0x9E37_79B9_7F4A_7C15),
            failures: 0,
            ledger,
            done: false,
        }
    }

    /// Send the GET from the current offset (to `stop`, when bounded).
    fn get(&self) -> Result<Response> {
        let mut req = Request::get(self.path.clone());
        if self.offset > 0 || self.stop.is_some() {
            let end = self.stop.map(|stop| stop.saturating_sub(1));
            req = req.with_range(ByteRange { start: self.offset, end });
        }
        self.client.request(req)
    }

    /// Take `resp`, the answer to a GET from the current offset, as the
    /// body to read, length-checked against the whole-object size the
    /// store advertises.
    fn accept(&mut self, resp: Response) -> Result<()> {
        if !resp.is_success() {
            return Err(ScoopError::Io(std::io::Error::other(format!(
                "GET {} failed with status {}",
                self.path, resp.status
            ))));
        }
        self.total = object_length(&resp);
        let body = match (self.total, self.stop) {
            // A short body (relative to the store's `x-object-length`)
            // errors instead of ending silently.
            (Some(total), stop) => stream::enforce_length(
                resp.body,
                total.min(stop.unwrap_or(u64::MAX)).saturating_sub(self.offset),
            ),
            (None, None) => resp.body,
            // Without the size, the end of a bounded body cannot be told
            // from the end of the object: refuse rather than truncate.
            (None, Some(_)) => {
                return Err(ScoopError::Internal(format!(
                    "bounded GET {} answered without {}",
                    self.path,
                    scoop_common::headers::OBJECT_LENGTH
                )))
            }
        };
        self.inner = Some(body);
        Ok(())
    }

    /// Whether a mid-stream failure still has resume budget.
    fn can_resume(&self, e: &ScoopError) -> bool {
        e.is_retryable() && self.failures.saturating_add(1) < self.policy.max_attempts
    }

    /// Back off and count one resume after a retryable failure.
    fn back_off(&mut self) {
        std::thread::sleep(self.policy.backoff(self.failures, &mut self.rng));
        self.failures += 1;
        self.ledger.resumes.inc();
    }
}

/// The whole-object size a GET response advertises.
fn object_length(resp: &Response) -> Option<u64> {
    resp.headers
        .get(scoop_common::headers::OBJECT_LENGTH)
        .and_then(|l| l.parse::<u64>().ok())
}

/// The object offset a GET body starts at: the first byte its
/// `content-range` names (`None` if it does not parse), or 0 without one.
fn body_start(resp: &Response) -> Option<u64> {
    let Some(range) = resp.headers.get("content-range") else { return Some(0) };
    range.strip_prefix("bytes ")?.split('-').next()?.parse().ok()
}

impl Iterator for ResumingStream {
    type Item = Result<Bytes>;

    fn next(&mut self) -> Option<Result<Bytes>> {
        loop {
            if self.done {
                return None;
            }
            let Some(inner) = self.inner.as_mut() else {
                // Re-open after a failure, or past the stop of a bounded
                // read; dispatch errors count against the same resume
                // budget as stream errors.
                match self.get().and_then(|resp| self.accept(resp)) {
                    Ok(()) => {}
                    Err(e) if self.can_resume(&e) => self.back_off(),
                    Err(e) => {
                        self.done = true;
                        return Some(Err(e));
                    }
                }
                continue;
            };
            match inner.next() {
                Some(Ok(chunk)) => {
                    self.offset += chunk.len() as u64;
                    self.ledger.transferred.add(chunk.len() as u64);
                    // Progress resets the failure budget: a long object may
                    // legitimately hit more transient faults than one open.
                    self.failures = 0;
                    return Some(Ok(chunk));
                }
                Some(Err(e)) if self.can_resume(&e) => {
                    self.back_off();
                    self.inner = None;
                }
                Some(Err(e)) => {
                    self.done = true;
                    return Some(Err(e));
                }
                None => match (self.stop, self.total) {
                    // The bounded body ended at its stop, not at the end of
                    // the object, and the consumer wants more.
                    (Some(stop), Some(total)) if stop < total => {
                        self.stop = Some(self.offset.saturating_add(SPLIT_SLACK));
                        self.inner = None;
                    }
                    _ => {
                        self.done = true;
                        return None;
                    }
                },
            }
        }
    }
}

impl Drop for ResumingStream {
    /// A bounded read abandoned within its slack has a few KiB of body
    /// left: read them (they are delivered, so they are counted) and the
    /// pooled connection checks back in at the terminator, where dropping
    /// the body mid-frame would have it closed and re-dialed.
    fn drop(&mut self) {
        let Some(stop) = self.stop else { return };
        let left = stop.min(self.total.unwrap_or(u64::MAX)).saturating_sub(self.offset);
        if self.done || left > SPLIT_SLACK {
            return;
        }
        for chunk in self.inner.take().into_iter().flatten() {
            match chunk {
                Ok(chunk) => self.ledger.transferred.add(chunk.len() as u64),
                Err(_) => return,
            }
        }
    }
}

impl StorageConnector for SwiftConnector {
    fn list(&self, location: &str, prefix: Option<&str>) -> Result<Vec<ObjectInfo>> {
        Ok(self
            .client
            .list(location, prefix)?
            .into_iter()
            .map(|r| ObjectInfo { name: r.name, size: r.size, etag: r.etag })
            .collect())
    }

    fn read_bounded(&self, location: &str, object: &str, start: u64, stop: u64) -> Result<ByteStream> {
        self.read_plain(location, object, start, (stop < u64::MAX).then_some(stop), None)
    }

    fn open_pushdown(
        &self,
        location: &str,
        object: &str,
        start: u64,
        end_exclusive: Option<u64>,
        spec: &PushdownSpec,
        file_schema: &[String],
    ) -> Result<PushdownBody> {
        let trace = self.client.trace();
        let _span = telemetry::span(
            trace.as_deref(),
            telemetry::layers::CONNECTOR,
            format!("pushdown {location}/{object}"),
        );
        // An empty split owns no records. Without this guard,
        // `end_exclusive == Some(0)` would saturate to the inclusive range
        // `bytes=0-0` below and re-read the first record.
        if matches!(end_exclusive, Some(e) if e <= start) {
            return Ok(PushdownBody::Filtered(stream::empty()));
        }
        // The logical split [start, end_exclusive) travels as an inclusive
        // HTTP-style storlet range; the storlet owns records starting in
        // (start, end_exclusive].
        let range = (start != 0 || end_exclusive.is_some())
            .then(|| ByteRange { start, end: end_exclusive.map(|e| e.saturating_sub(1)) });
        let params = csvfilter_params(spec, file_schema);
        // A plain read of the split: resumable, bounded as a vanilla split's.
        let plain = || {
            let stop = end_exclusive.map(|end| end.saturating_add(SPLIT_SLACK));
            self.read_plain(location, object, start, stop, None).map(PushdownBody::Plain)
        };
        let Some(resp) = self.storlet_get(location, object, "csvfilter", &params, range)? else {
            // Overload shedding: the storlet engine refused the pushdown.
            // The split is read plain and selected compute-side — heavier on
            // the wire, but the query completes with identical results.
            self.fallbacks.inc();
            return plain();
        };
        if resp.headers.get(headers::INVOKED).is_some() {
            if let Some(skipped) = resp
                .headers
                .get(scoop_common::headers::SKIPPED_BYTES)
                .and_then(|v| v.parse::<u64>().ok())
            {
                self.skipped.add(skipped);
            }
            return Ok(PushdownBody::Filtered(self.count(resp.body)));
        }
        // The store declined the pushdown: the body is raw object bytes. A
        // bronze-tier policy turns the split into an open-ended ranged GET
        // from `start`, which a plain read takes up as its first answer; a
        // store with no active layer ignores the split and answers the
        // whole object, which is dropped for a read that starts at `start`.
        if body_start(&resp) == Some(start) {
            return self.read_plain(location, object, start, None, Some(resp)).map(PushdownBody::Plain);
        }
        plain()
    }

    /// One HEAD per listed version, decoded once. A HEAD the store answers
    /// without usable stats, or one that fails for good — over TCP, a head
    /// carrying the stats of an object past ~10 MB exceeds the wire's head
    /// cap — is a negative entry: "no index" for that version, never asked
    /// again. A failure that may pass (a retryable error, a 5xx) leaves
    /// nothing behind, and the next query asks again.
    fn zone_stats(&self, location: &str, object: &str, etag: &str) -> Option<Arc<ObjectStats>> {
        let key = (location.to_string(), object.to_string(), etag.to_string());
        self.zone_stats.get_or_load(key, || {
            match self.client.head_object(location, object) {
                Ok(resp) if resp.is_success() => {
                    Ok(ObjectStats::from_metadata(resp.headers.iter()).unwrap_or(None))
                }
                Ok(resp) if resp.status >= 500 => Err(ScoopError::Io(std::io::Error::other(
                    format!("HEAD {location}/{object} answered {}", resp.status),
                ))),
                Err(e) if e.is_retryable() => Err(e),
                _ => Ok(None),
            }
        })
    }

    fn invoke_storlet(
        &self,
        location: &str,
        object: &str,
        storlets: &str,
        params: &HashMap<String, String>,
        range: Option<(u64, u64)>,
    ) -> Result<scoop_common::ByteStream> {
        let trace = self.client.trace();
        let _span = telemetry::span(
            trace.as_deref(),
            telemetry::layers::CONNECTOR,
            format!("storlet {storlets} on {location}/{object}"),
        );
        let range = range.map(|(start, end_exclusive)| ByteRange {
            start,
            end: Some(end_exclusive.saturating_sub(1)),
        });
        match self.storlet_get(location, object, storlets, params, range)? {
            Some(resp) => Ok(self.count(resp.body)),
            None => Err(ScoopError::Io(std::io::Error::other(format!(
                "storlet GET {location}/{object} was shed for overload"
            )))),
        }
    }

    fn set_deadline(&self, deadline: scoop_common::Deadline) {
        self.client.set_deadline(deadline);
    }

    fn set_trace(&self, trace: Option<String>) {
        self.client.set_trace(trace);
    }

    fn bytes_transferred(&self) -> u64 {
        self.reads.transferred.get()
    }

    fn reset_transfer_counter(&self) {
        self.reads.transferred.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scoop_objectstore::middleware::Pipeline;
    use scoop_objectstore::{SwiftCluster, SwiftConfig};
    use scoop_storlets::{PolicyStore, StorletEngine, StorletMiddleware};
    use scoop_csv::{Predicate, Value};

    const DATA: &[u8] = b"vid,date,index,city\n\
        m1,2015-01-03,100.5,Rotterdam\n\
        m2,2015-01-04,200.0,Paris\n\
        m3,2015-02-01,50.0,Utrecht\n\
        m4,2015-01-09,75.0,Rotterdam\n";

    /// A store with no active layer, holding `meters/jan.csv`.
    fn bare_cluster() -> Arc<SwiftCluster> {
        let cluster = SwiftCluster::new(SwiftConfig::default()).unwrap();
        let client = cluster.anonymous_client("AUTH_gp");
        client.create_container("meters").unwrap();
        client
            .put_object("meters", "jan.csv", Bytes::from_static(DATA))
            .unwrap();
        cluster
    }

    fn cluster() -> Arc<SwiftCluster> {
        let cluster = bare_cluster();
        let engine = Arc::new(StorletEngine::with_builtin_filters());
        let mut obj = Pipeline::new();
        obj.push(Arc::new(StorletMiddleware::new(engine.clone())));
        cluster.set_object_pipeline(obj);
        let mut proxy = Pipeline::new();
        proxy.push(Arc::new(StorletMiddleware::with_policy(
            engine,
            Arc::new(PolicyStore::new()),
        )));
        cluster.set_proxy_pipeline(proxy);
        cluster
    }

    fn schema() -> Vec<String> {
        ["vid", "date", "index", "city"].iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn list_and_plain_read() {
        let cluster = cluster();
        let conn = SwiftConnector::new(cluster.anonymous_client("AUTH_gp"));
        let objs = conn.list("meters", None).unwrap();
        assert_eq!(objs.len(), 1);
        assert_eq!(objs[0].size, DATA.len() as u64);
        let body =
            scoop_common::stream::collect(conn.read_from("meters", "jan.csv", 0).unwrap())
                .unwrap();
        assert_eq!(body, DATA);
        assert_eq!(conn.bytes_transferred(), DATA.len() as u64);
        // Offset read.
        let tail =
            scoop_common::stream::collect(conn.read_from("meters", "jan.csv", 20).unwrap())
                .unwrap();
        assert_eq!(&tail[..], &DATA[20..]);
    }

    #[test]
    fn pushdown_read_filters_at_store() {
        let cluster = cluster();
        let conn = SwiftConnector::new(cluster.anonymous_client("AUTH_gp"));
        let spec = PushdownSpec {
            columns: Some(vec!["vid".into(), "index".into()]),
            predicate: Some(Predicate::Eq("city".into(), Value::Str("Rotterdam".into()))),
            has_header: true,
        };
        let out = scoop_common::stream::collect(
            conn.read_pushdown("meters", "jan.csv", 0, None, &spec, &schema())
                .unwrap(),
        )
        .unwrap();
        assert_eq!(out, "m1,100.5\nm4,75.0\n");
        // Only filtered bytes crossed the wire.
        assert_eq!(conn.bytes_transferred(), out.len() as u64);
    }

    #[test]
    fn pushdown_over_indexed_object_counts_skipped_bytes() {
        let cluster = cluster();
        let client = cluster.anonymous_client("AUTH_gp");
        // Index a clustered object at PUT time so the store can skip blocks.
        let mut data = Vec::from(&b"vid,date,index,city\n"[..]);
        for i in 0..400 {
            data.extend_from_slice(format!("m{i},2015-01-01,{i},x\n").as_bytes());
        }
        let mut params = HashMap::new();
        params.insert("schema".to_string(), "vid,date,index,city".to_string());
        params.insert("header".to_string(), "1".to_string());
        params.insert("block".to_string(), "512".to_string());
        let put = Request::put(
            ObjectPath::new("AUTH_gp", "meters", "big.csv").unwrap(),
            Bytes::from(data.clone()),
        )
        .with_header(headers::RUN_STORLET, "zoneindex")
        .with_header(headers::PARAMETERS, encode_params(&params));
        assert_eq!(client.request(put).unwrap().status, 201);

        let conn = SwiftConnector::new(cluster.anonymous_client("AUTH_gp"));
        let spec = PushdownSpec {
            columns: Some(vec!["vid".into()]),
            predicate: Some(Predicate::Eq("index".into(), Value::Int(250))),
            has_header: true,
        };
        let out = scoop_common::stream::collect(
            conn.read_pushdown("meters", "big.csv", 0, None, &spec, &schema())
                .unwrap(),
        )
        .unwrap();
        assert_eq!(out, "m250\n");
        assert!(
            conn.bytes_skipped() > data.len() as u64 / 2,
            "skipped {} of {} bytes",
            conn.bytes_skipped(),
            data.len()
        );
    }

    #[test]
    fn zone_stats_follow_the_listed_version() {
        let cluster = cluster();
        let client = cluster.anonymous_client("AUTH_gp");
        let mut params = HashMap::new();
        params.insert("schema".to_string(), "vid,date,index,city".to_string());
        params.insert("header".to_string(), "1".to_string());
        let put = Request::put(
            ObjectPath::new("AUTH_gp", "meters", "zoned.csv").unwrap(),
            Bytes::from_static(DATA),
        )
        .with_header(headers::RUN_STORLET, "zoneindex")
        .with_header(headers::PARAMETERS, encode_params(&params));
        assert_eq!(client.request(put).unwrap().status, 201);

        let conn = SwiftConnector::new(cluster.anonymous_client("AUTH_gp"));
        let listed = conn.list("meters", None).unwrap();
        let info = |name: &str| listed.iter().find(|o| o.name == name).unwrap().clone();
        let (zoned, plain) = (info("zoned.csv"), info("jan.csv"));
        assert_eq!(zoned.etag, plain.etag, "same bytes, same etag");
        let stats = conn.zone_stats("meters", "zoned.csv", &zoned.etag).expect("indexed");
        let columns = schema();
        let columns = columns.iter().map(String::as_str);
        assert!(stats.describes(Some(&zoned.etag), Some(zoned.size), columns, true));
        // No index, and a version the listing never named: both negative.
        assert!(conn.zone_stats("meters", "jan.csv", &plain.etag).is_none());
        assert!(conn.zone_stats("meters", "ghost.csv", "e").is_none());
        // Cached per version: a plain re-PUT of the same bytes keeps the
        // etag, and the cached index still describes those bytes.
        assert_eq!(client.put_object("meters", "zoned.csv", Bytes::from_static(DATA)).unwrap().status, 201);
        assert!(conn.zone_stats("meters", "zoned.csv", &zoned.etag).is_some());
    }

    /// With and without an active layer: a store that ignores the split
    /// answers the whole object, which the connector must not take for the
    /// split's bytes.
    #[test]
    fn ranged_pushdown_covers_each_record_once() {
        let spec = PushdownSpec {
            columns: Some(vec!["vid".into()]),
            predicate: None,
            has_header: true,
        };
        for cluster in [cluster(), bare_cluster()] {
            let conn = SwiftConnector::new(cluster.anonymous_client("AUTH_gp"));
            for chunk in [10u64, 25, 31, 64, 1000] {
                let mut combined = Vec::new();
                for (s, e) in scoop_csv::split::plan_splits(DATA.len() as u64, chunk) {
                    let body = scoop_common::stream::collect(
                        conn.read_pushdown("meters", "jan.csv", s, Some(e), &spec, &schema())
                            .unwrap(),
                    )
                    .unwrap();
                    combined.extend_from_slice(&body);
                }
                assert_eq!(
                    String::from_utf8(combined).unwrap(),
                    "m1\nm2\nm3\nm4\n",
                    "chunk={chunk}"
                );
            }
        }
    }

    #[test]
    fn degenerate_pushdown_range_yields_nothing() {
        let cluster = cluster();
        let conn = SwiftConnector::new(cluster.anonymous_client("AUTH_gp"));
        let spec = PushdownSpec {
            columns: Some(vec!["vid".into()]),
            predicate: None,
            has_header: true,
        };
        // Regression: [0, 0) used to saturate to the inclusive header
        // `bytes=0-0` and re-deliver the first record of the object.
        for (s, e) in [(0u64, 0u64), (5, 5), (10, 3)] {
            let out = scoop_common::stream::collect(
                conn.read_pushdown("meters", "jan.csv", s, Some(e), &spec, &schema())
                    .unwrap(),
            )
            .unwrap();
            assert!(out.is_empty(), "split [{s},{e}) must own no records");
        }
    }

    #[test]
    fn proxy_stage_pushdown_works() {
        let cluster = cluster();
        let conn =
            SwiftConnector::with_run_on(cluster.anonymous_client("AUTH_gp"), RunOn::Proxy);
        let spec = PushdownSpec {
            columns: Some(vec!["city".into()]),
            predicate: Some(Predicate::StartsWith("date".into(), "2015-01".into())),
            has_header: true,
        };
        let out = scoop_common::stream::collect(
            conn.read_pushdown("meters", "jan.csv", 0, None, &spec, &schema())
                .unwrap(),
        )
        .unwrap();
        assert_eq!(out, "Rotterdam\nParis\nRotterdam\n");
    }

    #[test]
    fn fetch_range_and_errors() {
        let cluster = cluster();
        let conn = SwiftConnector::new(cluster.anonymous_client("AUTH_gp"));
        assert_eq!(conn.fetch_range("meters", "jan.csv", 0, 3).unwrap(), "vid");
        assert_eq!(conn.bytes_transferred(), 3, "only the range is counted");
        assert_eq!(conn.fetch_range("meters", "jan.csv", 5, 5).unwrap().len(), 0);
        // A range past the end is clamped to it.
        let whole = scoop_common::stream::collect(conn.read_from("meters", "jan.csv", 0).unwrap())
            .unwrap();
        let len = whole.len() as u64;
        let tail = conn.fetch_range("meters", "jan.csv", len - 4, len + 100).unwrap();
        assert_eq!(tail, whole.slice(whole.len() - 4..));
        assert!(conn.read_from("meters", "ghost.csv", 0).is_err());
    }
}
