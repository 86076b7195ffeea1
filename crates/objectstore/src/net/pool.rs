//! The client-side pooled HTTP/1.1 transport.
//!
//! [`HttpPool`] owns keep-alive connections to one TCP front end
//! ([`super::server::NetServer`]) and exchanges request frames for
//! [`Response`]s over them. Pool invariants (DESIGN.md §13):
//!
//! * **checkout/checkin** — a connection is either in the idle list or
//!   owned by exactly one in-flight exchange; lazy response bodies carry
//!   their connection and return it only after the chunked terminator
//!   proves the frame ended exactly where it promised;
//! * **poisoning** — any wire error, truncated frame, or body dropped
//!   mid-stream closes the connection instead of pooling it, so one bad
//!   socket can never serve a later request a stale or misframed response;
//! * **idle reaping** — idle connections older than the configured window
//!   are closed at the next checkout (and via [`HttpPool::reap_idle`]), so
//!   a burst of queries does not leak sockets forever;
//! * **bounded reads** — every dialed socket gets a read/write timeout
//!   before its first use, tightened per read to the request's remaining
//!   [`Deadline`] budget (the budget is checked before every read; the
//!   socket option is re-set only when the window it yields has changed).
//!   A read timeout with the budget exhausted is the *deadline* error
//!   (non-retryable, fail fast); with budget left it is retryable I/O —
//!   the peer may just be slow.
//!
//! Transport-level retry: if a *reused* keep-alive connection fails before
//! a response head parses, the request is re-sent once on a fresh
//! connection — but only for idempotent GET/HEAD, whatever they address
//! (an object, a listing, an endpoint). A PUT failure surfaces as
//! retryable I/O to the caller, whose re-dispatch rides the
//! `x-upload-token` dedup, so a replayed PUT can never double-store.

use crate::net::wire;
use crate::request::{Headers, Method, Response};
use bytes::Bytes;
use parking_lot::Mutex;
use scoop_common::telemetry::{self, names, ScopedCounter, ScopedGauge};
use scoop_common::{headers, ByteStream, Deadline, Result, ScoopError};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pool tunables.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Idle keep-alive connections retained per pool.
    pub max_idle: usize,
    /// Idle age beyond which a pooled connection is reaped.
    pub idle_timeout: Duration,
    /// Dial timeout.
    pub connect_timeout: Duration,
    /// Per-read/-write socket timeout (the floor under every stall).
    pub io_timeout: Duration,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            max_idle: 8,
            idle_timeout: Duration::from_secs(10),
            connect_timeout: Duration::from_secs(2),
            io_timeout: Duration::from_secs(10),
        }
    }
}

/// Point-in-time pool counters, for tests and reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolSnapshot {
    /// Sockets currently open (idle + in flight).
    pub open: i64,
    /// Idle connections in the pool right now.
    pub idle: usize,
    /// Connections currently checked out serving an exchange.
    pub in_flight: i64,
    /// Fresh dials performed.
    pub dials: u64,
    /// Exchanges served over a reused keep-alive connection.
    pub reuses: u64,
    /// Connections closed instead of pooled (stale, poisoned, over cap).
    pub evictions: u64,
}

/// The five facts [`PoolSnapshot`] reports, each a scoped handle: the
/// per-pool value and its `scoop_net_pool_*` registry metric move in the
/// same call. Shared with every [`Conn`], whose drop settles `open` and
/// `in_flight`.
#[derive(Debug)]
struct PoolCounters {
    open: ScopedGauge,
    in_flight: ScopedGauge,
    dials: ScopedCounter,
    reuses: ScopedCounter,
    evictions: ScopedCounter,
}

impl Default for PoolCounters {
    fn default() -> Self {
        PoolCounters {
            open: ScopedGauge::new(names::NET_POOL_OPEN),
            in_flight: ScopedGauge::new(names::NET_POOL_IN_FLIGHT),
            dials: ScopedCounter::new(names::NET_POOL_DIALS),
            reuses: ScopedCounter::new(names::NET_POOL_REUSES),
            evictions: ScopedCounter::new(names::NET_POOL_EVICTIONS),
        }
    }
}

/// One pooled connection: buffered read half + write half of the same
/// socket. Dropping it closes the socket and settles the open-count (and
/// the in-flight level, unless the connection had already gone idle).
struct Conn {
    write: TcpStream,
    reader: wire::FrameReader<TcpStream>,
    /// The read/write timeout the socket currently carries.
    window: Duration,
    idle_since: Instant,
    reused: bool,
    /// Checked out (owned by an exchange) rather than parked idle. Kept on
    /// the connection so *every* way out — checkin, evict, or a plain drop
    /// on an error path — settles the in-flight gauge exactly once.
    in_flight: bool,
    counters: Arc<PoolCounters>,
}

impl Drop for Conn {
    fn drop(&mut self) {
        self.counters.open.sub(1);
        if self.in_flight {
            self.counters.in_flight.sub(1);
        }
    }
}

impl Conn {
    /// Bound the next reads/writes by the tighter of the io timeout and the
    /// request's remaining budget. An already-exhausted budget fails here,
    /// before any syscall, with the non-retryable deadline error. The
    /// socket is touched only when the window differs from the one it
    /// already carries — never without a deadline, nor while the remaining
    /// budget exceeds the io timeout.
    fn tighten(&mut self, io_timeout: Duration, deadline: Deadline, label: &str) -> Result<()> {
        deadline.check(label)?;
        let window = match deadline.remaining() {
            Some(rem) => rem.min(io_timeout).max(Duration::from_millis(1)),
            None => io_timeout,
        };
        if window != self.window {
            self.write.set_read_timeout(Some(window)).map_err(ScoopError::Io)?;
            self.write.set_write_timeout(Some(window)).map_err(ScoopError::Io)?;
            self.window = window;
        }
        Ok(())
    }
}

/// Fold the server-side spans a finished response shipped in its
/// `x-scoop-server-spans` trailer into the local trace store, tagged remote
/// and skew-corrected against the exchange window `[window_start_us, now]`.
/// Always *takes* the trailer (even untraced or undecodable) so stale spans
/// can never leak onto a later exchange of a pooled connection; spans are
/// best-effort observability, so a bad trailer is dropped, never an error.
fn merge_server_spans(conn: &mut Conn, trace: Option<&str>, window_start_us: u64) {
    let Some(value) = conn.reader.take_server_spans() else { return };
    let Some(trace) = trace else { return };
    if let Ok(spans) = telemetry::decode_spans(&value) {
        telemetry::merge_remote_spans(trace, spans, window_start_us, telemetry::now_us());
    }
}

/// Map a failed read after `deadline` may have lapsed: a timeout with the
/// budget exhausted is the budget's fault, not the network's, and must not
/// be retried (satellite: lint rule 3 requires retry loops to keep
/// consulting the budget — this is where the wire transport does so).
fn map_wire_err(e: ScoopError, deadline: Deadline, what: &str) -> ScoopError {
    if deadline.is_set() && deadline.expired() {
        ScoopError::DeadlineExceeded(format!("{what}: budget exhausted"))
    } else {
        e
    }
}

/// A pool of keep-alive connections to one server address.
pub struct HttpPool {
    addr: SocketAddr,
    cfg: PoolConfig,
    idle: Mutex<Vec<Conn>>,
    counters: Arc<PoolCounters>,
    /// Registry-only metrics: the idle level (the snapshot reads the idle
    /// list itself), idle reaps, and the checkout wait.
    idle_gauge: telemetry::Gauge,
    idle_reaps: telemetry::Counter,
    checkout_wait: telemetry::Histogram,
}

impl HttpPool {
    /// Create an empty pool for `addr`.
    pub fn new(addr: SocketAddr, cfg: PoolConfig) -> Arc<HttpPool> {
        Arc::new(HttpPool {
            addr,
            cfg,
            idle: Mutex::new(Vec::new()),
            counters: Arc::new(PoolCounters::default()),
            idle_gauge: telemetry::gauge(names::NET_POOL_IDLE),
            idle_reaps: telemetry::counter(names::NET_POOL_IDLE_REAPS),
            checkout_wait: telemetry::histogram(names::NET_POOL_CHECKOUT_WAIT_US),
        })
    }

    /// The server address this pool dials.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Counters snapshot.
    pub fn snapshot(&self) -> PoolSnapshot {
        PoolSnapshot {
            open: self.counters.open.get(),
            idle: self.idle.lock().len(),
            in_flight: self.counters.in_flight.get(),
            dials: self.counters.dials.get(),
            reuses: self.counters.reuses.get(),
            evictions: self.counters.evictions.get(),
        }
    }

    /// Close idle connections older than the idle window.
    pub fn reap_idle(&self) {
        let cutoff = self.cfg.idle_timeout;
        let mut idle = self.idle.lock();
        let before = idle.len();
        idle.retain(|c| c.idle_since.elapsed() < cutoff);
        let reaped = before - idle.len();
        if reaped > 0 {
            self.counters.evictions.add(reaped as u64);
            self.idle_reaps.add(reaped as u64);
            self.idle_gauge.sub(reaped as i64);
        }
    }

    /// Take a connection: freshest idle one, else a new dial. The full wait
    /// (reap + idle pop, or the dial) feeds the checkout-wait histogram;
    /// the connection counts in flight until it is checked in or dies.
    fn checkout(&self) -> Result<Conn> {
        let started = Instant::now();
        let mut conn = self.checkout_inner()?;
        self.checkout_wait.observe_us(started.elapsed().as_micros() as u64);
        conn.in_flight = true;
        self.counters.in_flight.add(1);
        Ok(conn)
    }

    fn checkout_inner(&self) -> Result<Conn> {
        self.reap_idle();
        if let Some(mut conn) = self.idle.lock().pop() {
            self.idle_gauge.sub(1);
            self.counters.reuses.inc();
            conn.reused = true;
            return Ok(conn);
        }
        self.dial()
    }

    /// Dial a fresh connection; timeouts are configured before first use,
    /// so no read on this socket can block unboundedly.
    fn dial(&self) -> Result<Conn> {
        let stream =
            TcpStream::connect_timeout(&self.addr, self.cfg.connect_timeout).map_err(ScoopError::Io)?;
        stream.set_read_timeout(Some(self.cfg.io_timeout)).map_err(ScoopError::Io)?;
        stream.set_write_timeout(Some(self.cfg.io_timeout)).map_err(ScoopError::Io)?;
        stream.set_nodelay(true).map_err(ScoopError::Io)?;
        let write = stream.try_clone().map_err(ScoopError::Io)?;
        self.counters.dials.inc();
        self.counters.open.add(1);
        Ok(Conn {
            write,
            reader: wire::FrameReader::new(stream),
            window: self.cfg.io_timeout,
            idle_since: Instant::now(),
            reused: false,
            in_flight: false,
            counters: self.counters.clone(),
        })
    }

    /// Return a connection to the idle list — only at a clean frame
    /// boundary; anything else is poisoned and closed instead.
    fn checkin(&self, mut conn: Conn) {
        if !conn.reader.is_drained() {
            self.evict(conn);
            return;
        }
        let mut idle = self.idle.lock();
        if idle.len() >= self.cfg.max_idle {
            drop(idle);
            self.evict(conn);
            return;
        }
        conn.idle_since = Instant::now();
        if conn.in_flight {
            conn.in_flight = false;
            self.counters.in_flight.sub(1);
        }
        idle.push(conn);
        self.idle_gauge.add(1);
    }

    fn evict(&self, conn: Conn) {
        self.counters.evictions.inc();
        drop(conn);
    }

    /// Exchange one request for one response over the pool — the only way
    /// onto the wire, for object requests, container ops and the
    /// observability endpoints alike.
    ///
    /// Reused-connection failures before a parsed response head are re-sent
    /// once on a fresh dial — for idempotent GET/HEAD only. Everything else
    /// surfaces to the caller's retry policy with the taxonomy intact.
    pub fn send(
        self: &Arc<Self>,
        method: Method,
        target: &wire::Target,
        headers_map: &Headers,
        body: Option<&Bytes>,
        deadline: Deadline,
    ) -> Result<Response> {
        let head = wire::encode_frame(
            method,
            &wire::encode_target(target),
            headers_map,
            body.map(Bytes::len),
            deadline,
        )?;
        let body = body.map(Bytes::as_slice).unwrap_or_default();
        let trace = headers_map.get(headers::TRACE);
        let idempotent = matches!(method, Method::Get | Method::Head);
        let mut redialed = false;
        loop {
            let conn = self.checkout()?;
            let was_reused = conn.reused;
            match self.exchange(conn, &head, body, trace, deadline) {
                Ok(resp) => return Ok(resp),
                // The keep-alive peer hung up (or reset) before answering:
                // a stale pooled socket, not a request problem. One fresh
                // dial, then give up to the caller.
                Err(Exchange::NoResponse(_)) if was_reused && idempotent && !redialed => {
                    redialed = true;
                }
                Err(Exchange::NoResponse(e)) | Err(Exchange::Fatal(e)) => return Err(e),
            }
        }
    }

    /// Run one request/response exchange on `conn`: the frame `head` and
    /// its `body` leave in one vectored write, neither copied.
    fn exchange(
        self: &Arc<Self>,
        mut conn: Conn,
        head: &[u8],
        body: &[u8],
        trace: Option<&str>,
        deadline: Deadline,
    ) -> std::result::Result<Response, Exchange> {
        // The observation window for remote-span skew correction opens
        // before the request hits the wire — every server-side span of this
        // exchange must land inside it.
        let window_start_us = telemetry::now_us();
        let trace = trace.map(str::to_string);
        conn.tighten(self.cfg.io_timeout, deadline, "pool dispatch").map_err(Exchange::Fatal)?;
        if let Err(e) = wire::write_pair(&mut conn.write, head, body).and_then(|_| conn.write.flush()) {
            return Err(Exchange::NoResponse(map_wire_err(
                ScoopError::Io(e),
                deadline,
                "request write",
            )));
        }
        let head = match conn.reader.read_head() {
            Ok(Some(head)) => head,
            Ok(None) => {
                return Err(Exchange::NoResponse(ScoopError::Io(std::io::Error::new(
                    std::io::ErrorKind::ConnectionAborted,
                    "connection closed before response",
                ))))
            }
            // A head the reader refuses for good (one past the head cap) is
            // the answer, not a stale socket: a redial would read it again.
            Err(e) => {
                let e = map_wire_err(e, deadline, "response head read");
                return Err(if e.is_retryable() { Exchange::NoResponse(e) } else { Exchange::Fatal(e) });
            }
        };
        let wire::StartLine::Status(status) = head.start else {
            return Err(Exchange::Fatal(ScoopError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "malformed frame: request line where a status was expected",
            ))));
        };
        let framing =
            wire::FrameReader::<TcpStream>::body_framing(&head).map_err(Exchange::Fatal)?;

        let error_kind = head.headers.get(headers::ERROR_KIND).map(str::to_string);
        if error_kind.is_none()
            && (status == 200 || status == 206)
            && framing == wire::BodyFraming::Chunked
        {
            // Stream large bodies lazily; the connection rides inside the
            // stream and is pooled again at the chunked terminator (which is
            // also where the span trailer arrives and merges).
            let body: ByteStream = Box::new(PooledBody {
                pool: self.clone(),
                conn: Some(conn),
                io_timeout: self.cfg.io_timeout,
                deadline,
                trace,
                window_start_us,
                done: false,
            });
            return Ok(Response { status, headers: head.headers, body });
        }

        // Errors, acks, redirections, 416s, HEAD responses: tiny bodies,
        // drained eagerly so the connection pools immediately even if the
        // caller never touches the body.
        let body = self
            .drain_body(&mut conn, framing, deadline)
            .map_err(Exchange::Fatal)?;
        merge_server_spans(&mut conn, trace.as_deref(), window_start_us);
        self.checkin(conn);
        match error_kind {
            // Error responses carry the exact error kind; rebuild the variant
            // so the caller's taxonomy (retryable vs not) is
            // transport-independent.
            Some(kind) => Err(Exchange::Fatal(wire::error_from_kind(
                &kind,
                String::from_utf8_lossy(&body).into_owned(),
            ))),
            None => Ok(wire::response_from_parts(status, head.headers, body)),
        }
    }

    /// Read a whole response body off `conn` eagerly.
    fn drain_body(
        &self,
        conn: &mut Conn,
        framing: wire::BodyFraming,
        deadline: Deadline,
    ) -> Result<Bytes> {
        match framing {
            wire::BodyFraming::None => Ok(Bytes::new()),
            wire::BodyFraming::ContentLength(n) => conn
                .reader
                .read_exact_body(n)
                .map_err(|e| map_wire_err(e, deadline, "response body read")),
            wire::BodyFraming::Chunked => {
                let mut out: Vec<u8> = Vec::new();
                loop {
                    match conn.reader.read_chunk() {
                        Ok(Some(chunk)) => out.extend_from_slice(&chunk),
                        Ok(None) => return Ok(Bytes::from(out)),
                        Err(e) => return Err(map_wire_err(e, deadline, "response body read")),
                    }
                }
            }
        }
    }
}

impl Drop for HttpPool {
    /// The idle connections close with the pool: settle the idle level
    /// they held (each one's own drop settles `open`).
    fn drop(&mut self) {
        self.idle_gauge.sub(self.idle.get_mut().len() as i64);
    }
}

/// How an exchange failed: before any response byte was believed, or after.
enum Exchange {
    /// No response head parsed — safe to re-send idempotent requests.
    NoResponse(ScoopError),
    /// The failure is authoritative; surface it.
    Fatal(ScoopError),
}

/// A lazily-read chunked response body that owns its pooled connection.
/// Completing the frame returns the connection to the pool; any error or an
/// early drop closes it (poisoned — it is mid-frame and unusable).
struct PooledBody {
    pool: Arc<HttpPool>,
    conn: Option<Conn>,
    io_timeout: Duration,
    deadline: Deadline,
    /// Trace of the request this body answers, for the span trailer merge.
    trace: Option<String>,
    /// When the exchange's request went out (`telemetry::now_us` clock).
    window_start_us: u64,
    done: bool,
}

impl Iterator for PooledBody {
    type Item = Result<Bytes>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let conn = self.conn.as_mut()?;
        if let Err(e) = conn.tighten(self.io_timeout, self.deadline, "body read") {
            // Budget lapsed between chunks: surface the deadline error and
            // poison the connection (it is mid-frame). Any spans a trailer
            // already delivered still belong to this trace — merge before
            // the eviction discards the reader.
            self.done = true;
            if let Some(mut conn) = self.conn.take() {
                merge_server_spans(&mut conn, self.trace.as_deref(), self.window_start_us);
                self.pool.evict(conn);
            }
            return Some(Err(e));
        }
        match conn.reader.read_chunk() {
            Ok(Some(chunk)) => Some(Ok(chunk)),
            Ok(None) => {
                self.done = true;
                if let Some(mut conn) = self.conn.take() {
                    merge_server_spans(&mut conn, self.trace.as_deref(), self.window_start_us);
                    self.pool.checkin(conn);
                }
                None
            }
            Err(e) => {
                self.done = true;
                if let Some(mut conn) = self.conn.take() {
                    // A stream-error trailer still carried the spans the
                    // server recorded before the body died — merge them
                    // even though the connection itself is poisoned.
                    merge_server_spans(&mut conn, self.trace.as_deref(), self.window_start_us);
                    self.pool.evict(conn);
                }
                Some(Err(map_wire_err(e, self.deadline, "response body read")))
            }
        }
    }
}
