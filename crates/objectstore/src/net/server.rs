//! The HTTP/1.1-over-TCP front end of the proxy tier.
//!
//! `NetServer::serve` binds a loopback listener in front of the cluster's
//! router and spawns an accept loop. The accept loop starts workers as
//! connections arrive, up to [`NetOptions::workers`]: a connection goes to
//! an idle worker when there is one, to a new worker while fewer than the
//! cap have started, and waits in the queue only at the cap
//! ([`WorkerClaims`] keeps that rule). A worker, once started, stays until
//! shutdown. Each worker owns one connection at a time and runs its
//! keep-alive loop: decode a request frame, hand it to the router (the very
//! function in-process clients call — what a target means is not this
//! module's business), stream the response back chunked. Timeouts:
//!
//! * every socket gets a read/write timeout at accept time (no raw
//!   `TcpStream` read ever blocks forever — `scoop-lint` invariant 5);
//! * a *total header time* guard bounds the whole head read, so a
//!   slowloris peer dribbling one byte per second cannot hold a worker by
//!   keeping each individual read under the per-read timeout;
//! * per-request write timeouts are tightened to the request's propagated
//!   [`scoop_common::Deadline`] budget, so a server never keeps pushing bytes for a query
//!   whose budget is already gone.
//!
//! Each of these is a socket option, set at accept and re-set only when the
//! window it should carry differs from the one it has ([`PacedStream`] and
//! `WriteHalf` remember theirs) — a keep-alive request with no deadline
//! and equal phase timeouts costs no `setsockopt` at all.
//!
//! Responses leave through a [`wire::CoalescingWriter`] over a buffer the
//! connection owns: one socket write per [`wire::IO_BUFFER`] bytes of
//! frames, not several per stream item (DESIGN.md §13, "copy-and-syscall
//! budget").
//!
//! Wire faults from the cluster's [`crate::fault::FaultInjector`] are applied here, at
//! the socket boundary, via [`FaultWriter`] — the proxy and object servers
//! underneath are untouched, exactly as a real network fault would behave.

use crate::fault::{FaultInjector, WireFault};
use crate::net::chaos::FaultWriter;
use crate::net::wire;
use crate::request::{Headers, Method, Response};
use crate::swift::Router;
use bytes::Bytes;
use scoop_common::telemetry::{self, names};
use scoop_common::{headers, Result, ScoopError};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::AtomicBool;
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

// Under `--cfg loom` the claim counters come from the model checker, so
// `tests/loom.rs` can interleave the accept thread's claims with workers
// returning to idle.
#[cfg(loom)]
use loom::sync::atomic::{AtomicUsize, Ordering};
#[cfg(not(loom))]
use std::sync::atomic::{AtomicUsize, Ordering};

/// Tunables of the TCP front end.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NetOptions {
    /// At most this many worker threads; each owns one live connection at
    /// a time. Workers start as connections arrive, so a server with two
    /// live connections runs two; a connection beyond the cap waits in the
    /// queue for a worker to come free.
    pub workers: usize,
    /// Per-read/-write socket timeout (the hard floor under every stall).
    pub io_timeout: Duration,
    /// How long a keep-alive connection may sit idle between requests.
    pub idle_timeout: Duration,
    /// Total time budget for reading one request head (slowloris guard).
    pub header_timeout: Duration,
}

impl Default for NetOptions {
    fn default() -> Self {
        NetOptions {
            workers: 32,
            io_timeout: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(5),
            header_timeout: Duration::from_secs(2),
        }
    }
}

/// What the accept thread does with an accepted stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Claim {
    /// An idle worker was claimed: it takes the stream from the queue.
    Idle,
    /// No worker is idle and the cap is not reached: start one (already
    /// counted in [`WorkerClaims::started`]).
    Start,
    /// Every worker is busy at the cap: the stream waits in the queue.
    Queue,
}

/// The idle-worker accounting of the front end. Only the accept thread
/// claims; workers release. Two invariants follow: at most `cap` workers
/// start, and no accepted stream waits in the queue while a started
/// worker sits unclaimed.
///
/// A stream queued at the cap is taken by whichever worker releases next,
/// so from then on `idle` may count a release whose worker went straight
/// back to work. That costs nothing: once the cap is reached no claim
/// starts a worker, and every stream goes into the same queue.
#[derive(Debug)]
pub struct WorkerClaims {
    cap: usize,
    idle: AtomicUsize,
    started: AtomicUsize,
}

impl WorkerClaims {
    /// No workers yet; at most `cap` (at least one) will start.
    pub fn new(cap: usize) -> WorkerClaims {
        WorkerClaims { cap: cap.max(1), idle: AtomicUsize::new(0), started: AtomicUsize::new(0) }
    }

    /// Decide where the next accepted stream goes: claim an idle worker
    /// (a decrement that fails at zero), else start one below the cap,
    /// else queue. A started worker does not count itself idle: the
    /// stream it was started for is its first.
    pub fn claim(&self) -> Claim {
        let mut idle = self.idle.load(Ordering::SeqCst);
        while let Some(fewer) = idle.checked_sub(1) {
            match self.idle.compare_exchange(idle, fewer, Ordering::SeqCst, Ordering::SeqCst) {
                Ok(_) => return Claim::Idle,
                Err(now) => idle = now,
            }
        }
        if self.started.load(Ordering::SeqCst) < self.cap {
            self.started.fetch_add(1, Ordering::SeqCst);
            return Claim::Start;
        }
        Claim::Queue
    }

    /// Take back a [`Claim::Start`] whose worker could not be spawned.
    pub fn unstart(&self) {
        self.started.fetch_sub(1, Ordering::SeqCst);
    }

    /// A worker finished its connection and is about to wait for the next.
    pub fn release(&self) {
        self.idle.fetch_add(1, Ordering::SeqCst);
    }

    /// Workers started so far.
    pub fn started(&self) -> usize {
        self.started.load(Ordering::SeqCst)
    }

    /// Releases not yet claimed.
    pub fn idle(&self) -> usize {
        self.idle.load(Ordering::SeqCst)
    }
}

/// A running TCP front end. Dropping the handle shuts the listener down
/// and joins every worker it started. Its threads are named after the
/// port: `net-acc-{port}` accepts, `net-wrk-{port}` serves.
pub struct NetHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    /// Owns the workers' join handles and joins them on its way out.
    accept_thread: Option<JoinHandle<()>>,
    claims: Arc<WorkerClaims>,
}

impl NetHandle {
    /// The bound loopback address clients dial.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Worker threads this front end has started: at most
    /// [`NetOptions::workers`], and no more than it has had live
    /// connections at once.
    pub fn workers_started(&self) -> usize {
        self.claims.started()
    }
}

impl Drop for NetHandle {
    // lint:allow(wake-up dial only: the stream is dropped unread, so no read can block)
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the accept loop with a throwaway dial so it observes the flag.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// The TCP data-plane server: everything a worker needs to serve requests.
pub struct NetServer {
    router: Arc<Router>,
    fault: Option<Arc<FaultInjector>>,
    opts: NetOptions,
    /// Request heads served, over every connection.
    requests: telemetry::Counter,
    /// Exchanges armed with a wire fault of any class (the injector counts
    /// each class).
    wire_faults: telemetry::Counter,
}

/// The queue accepted streams wait in until a worker takes them.
type StreamQueue = Arc<Mutex<mpsc::Receiver<TcpStream>>>;

impl NetServer {
    /// Bind a loopback listener and start the accept loop; workers start
    /// as connections arrive.
    pub(crate) fn serve(
        router: Arc<Router>,
        fault: Option<Arc<FaultInjector>>,
        opts: NetOptions,
    ) -> Result<NetHandle> {
        let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(ScoopError::Io)?;
        let addr = listener.local_addr().map_err(ScoopError::Io)?;
        let claims = Arc::new(WorkerClaims::new(opts.workers));
        let server = Arc::new(NetServer {
            router,
            fault,
            opts,
            requests: telemetry::counter(names::NET_SERVER_REQUESTS),
            wire_faults: telemetry::counter(names::NET_WIRE_FAULTS),
        });
        let shutdown = Arc::new(AtomicBool::new(false));
        let accept = {
            let (claims, shutdown) = (claims.clone(), shutdown.clone());
            move || server.accept_loop(listener, &claims, &shutdown)
        };
        let accept_thread = std::thread::Builder::new()
            .name(format!("net-acc-{}", addr.port()))
            .spawn(accept)
            .map_err(ScoopError::Io)?;
        Ok(NetHandle { addr, shutdown, accept_thread: Some(accept_thread), claims })
    }

    /// Accept until shutdown, handing each stream to an idle worker or a
    /// new one (the accept thread owns every worker it starts); then close
    /// the queue and join the workers.
    fn accept_loop(
        self: Arc<Self>,
        listener: TcpListener,
        claims: &Arc<WorkerClaims>,
        shutdown: &AtomicBool,
    ) {
        let accepted = telemetry::counter(names::NET_SERVER_CONNECTIONS);
        let live = telemetry::gauge(names::NET_SERVER_WORKERS);
        let port = listener.local_addr().map(|a| a.port()).unwrap_or_default();
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx: StreamQueue = Arc::new(Mutex::new(rx));
        let mut workers = Vec::new();
        for stream in listener.incoming() {
            if shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            // Every accepted socket is bounded before its first read:
            // a peer that stops sending costs at most io_timeout per
            // read, never a hung worker.
            if stream.set_read_timeout(Some(self.opts.io_timeout)).is_err()
                || stream.set_write_timeout(Some(self.opts.io_timeout)).is_err()
            {
                continue;
            }
            let _ = stream.set_nodelay(true);
            accepted.inc();
            if claims.claim() == Claim::Start {
                let worker = {
                    let (server, rx, claims, live) =
                        (self.clone(), rx.clone(), claims.clone(), live.clone());
                    move || server.worker_loop(&rx, &claims, &live)
                };
                match std::thread::Builder::new().name(format!("net-wrk-{port}")).spawn(worker) {
                    Ok(handle) => {
                        live.add(1);
                        workers.push(handle);
                    }
                    Err(_) => {
                        // No thread for it: hang up, and the peer redials.
                        claims.unstart();
                        continue;
                    }
                }
            }
            if tx.send(stream).is_err() {
                break;
            }
        }
        drop(tx); // workers finish their connections, drain, and exit
        for worker in workers {
            let _ = worker.join();
        }
    }

    /// Take connections off the queue until it closes, serving each.
    fn worker_loop(&self, rx: &StreamQueue, claims: &WorkerClaims, live: &telemetry::Gauge) {
        loop {
            // Lock only for the recv handoff, never while serving.
            let conn = match rx.lock() {
                Ok(guard) => guard.recv(),
                Err(_) => break,
            };
            let Ok(stream) = conn else { break }; // queue closed: shutdown
            self.handle_connection(stream);
            claims.release();
        }
        live.sub(1);
    }

    /// Serve one connection's keep-alive loop until close/fault/idle.
    fn handle_connection(&self, stream: TcpStream) {
        let Ok(write_half) = stream.try_clone() else { return };
        let mut write_half = WriteHalf { stream: write_half, window: self.opts.io_timeout };
        // The connection's response buffer: allocated now that it is live,
        // reused by every exchange on it.
        let mut out_buf = Vec::with_capacity(wire::IO_BUFFER);
        let mut reader = wire::FrameReader::new(PacedStream::new(stream, self.opts.io_timeout));
        loop {
            // Wait for the first byte of the next request *before* deciding
            // this exchange's wire fault. An idle keep-alive connection must
            // not consume slots in the deterministic fault sequence — the
            // consecutive-fault cap's progress guarantee ("after N faults
            // the next exchange is clean") only holds if decisions map 1:1
            // to real exchanges. Pipelined requests are already buffered,
            // so only a drained reader needs to wait on the socket.
            if reader.is_drained()
                && !matches!(
                    reader.inner_mut().wait_for_request(self.opts.idle_timeout),
                    Ok(true)
                )
            {
                break; // peer closed, or sat idle past the window
            }
            // Arm the per-exchange wire fault: slowloris acts on the read
            // path, everything else on the write path of this exchange.
            let fault = self
                .fault
                .as_ref()
                .map(|f| f.decide_wire())
                .unwrap_or(WireFault::None);
            if fault != WireFault::None {
                self.wire_faults.inc();
            }
            let stall = self
                .fault
                .as_ref()
                .map(|f| f.plan().wire.partial_stall)
                .unwrap_or_default();
            let dribble = match fault {
                WireFault::Slowloris => {
                    self.fault.as_ref().map(|f| f.plan().wire.slowloris_delay)
                }
                _ => None,
            };
            // Total-header-time guard: the budget covers the whole head
            // read, so a peer dribbling bytes under the per-read timeout
            // still gets cut off. The first byte is already waiting, so the
            // clock starts now.
            reader.inner_mut().arm(self.opts.header_timeout, dribble);
            let head = match reader.read_head() {
                Ok(Some(head)) => head,
                Ok(None) => break,  // peer closed between requests
                Err(_) => break,    // malformed/timed out head: hang up
            };
            reader.inner_mut().disarm(self.opts.io_timeout);
            self.requests.inc();

            // An Err means the write side failed mid-response: hang up.
            let keep_alive = self
                .serve_exchange(&mut write_half, &mut out_buf, &mut reader, head, fault, stall)
                .unwrap_or(false);
            if !keep_alive {
                break;
            }
        }
        let _ = write_half.stream.shutdown(Shutdown::Both);
    }

    /// Decode one request, dispatch it, write the response through the
    /// armed fault. Returns whether the connection stays usable.
    fn serve_exchange(
        &self,
        write_half: &mut WriteHalf,
        out_buf: &mut Vec<u8>,
        reader: &mut wire::FrameReader<PacedStream>,
        head: wire::Head,
        fault: WireFault,
        stall: Duration,
    ) -> Result<bool> {
        let framing = wire::FrameReader::<PacedStream>::body_framing(&head)?;
        let wire::StartLine::Request { method, target } = head.start else {
            return Ok(false); // a response frame on the server side: hang up
        };
        let body = match framing {
            wire::BodyFraming::ContentLength(n) => Some(reader.read_exact_body(n)?),
            wire::BodyFraming::None => None,
            wire::BodyFraming::Chunked => {
                // Request bodies are always content-length framed by our
                // encoder; chunked requests are not part of the protocol.
                return Ok(false);
            }
        };
        // A traced request gets its server-side spans shipped back in the
        // response trailer (they finish before the trailer is written:
        // handler spans drop when the handler returns, and the lazy body
        // has fully streamed by then).
        let trace = head.headers.get(headers::TRACE).map(str::to_string);

        let outcome = self.dispatch(method, &target, head.headers, body, write_half);
        // The fault sits between the coalescing buffer and the socket: it
        // sees the response's bytes at the offsets they have on the wire.
        let mut faulty = FaultWriter::new(&write_half.stream, fault, stall);
        let mut out = wire::CoalescingWriter::new(&mut faulty, out_buf);
        let clean = match outcome {
            Ok(resp) => write_response(&mut out, resp, trace.as_deref()).is_ok(),
            Err(err) => write_error(&mut out, &err, trace.as_deref()).is_ok(),
        };
        // A fired write fault or a mid-stream body error leaves the peer
        // mid-frame: the connection must die, not serve another exchange.
        Ok(clean && !faulty.poisoned())
    }

    /// Hand a decoded request to the cluster's router, with this
    /// connection's write window derived from the propagated budget:
    /// pushing bytes past the query's deadline is wasted work on both ends.
    /// The window stays in force while the response streams out; the next
    /// request on the connection derives its own.
    fn dispatch(
        &self,
        method: Method,
        target: &str,
        mut headers_map: Headers,
        body: Option<Bytes>,
        write_half: &mut WriteHalf,
    ) -> Result<Response> {
        let routed = wire::decode_target(target)?;
        let deadline = wire::take_deadline(&mut headers_map)?;
        let window = match deadline.remaining() {
            Some(rem) if rem.is_zero() => {
                return Err(ScoopError::DeadlineExceeded(format!(
                    "server received {} {target} with exhausted budget",
                    wire::method_name(method),
                )))
            }
            Some(rem) => rem.min(self.opts.io_timeout),
            None => self.opts.io_timeout,
        };
        write_half.set_window(window.max(Duration::from_millis(1)));
        self.router.route(method, routed, headers_map, body, deadline)
    }
}

/// The `x-scoop-server-spans` trailer for `trace`, if the request was
/// traced and this server recorded spans for it. Draining (not copying)
/// keeps the span store single-homed: once shipped, the spans live in the
/// client's store — important when client and server share a process, where
/// a copy would double-count every server-side span.
fn server_span_trailer(trace: Option<&str>) -> Option<(&'static str, String)> {
    let spans = telemetry::take_server_spans(trace?);
    if spans.is_empty() {
        return None;
    }
    Some((headers::SERVER_SPANS, telemetry::encode_spans(&spans)))
}

/// Stream the response out chunked. A body-stream error mid-flight can no
/// longer change the status line (the head already went out) — it finishes
/// the frame with an error *trailer* instead, so the client rebuilds the
/// exact error (a length-enforcement "truncated" error must not flatten
/// into a generic aborted frame). The connection still closes afterwards:
/// a stream that died mid-body is not a peer to keep. Either way the
/// trailer also carries the server-side spans of a traced request — they
/// are only complete here, after the body streamed.
fn write_response(out: &mut impl Write, resp: Response, trace: Option<&str>) -> std::io::Result<()> {
    let head = wire::encode_response_head(resp.status, &resp.headers)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    out.write_all(&head)?;
    for chunk in resp.body {
        match chunk {
            Ok(data) => wire::write_chunk(out, &data)?,
            Err(err) => {
                let mut trailers = vec![wire::stream_error_trailer(&err)];
                trailers.extend(server_span_trailer(trace));
                wire::finish_chunks_with_trailers(out, &trailers)?;
                out.flush()?;
                return Err(std::io::Error::other("body stream failed mid-response"));
            }
        }
    }
    match server_span_trailer(trace) {
        Some(spans) => wire::finish_chunks_with_trailers(out, &[spans])?,
        None => wire::finish_chunks(out)?,
    }
    out.flush()
}

/// Carry an error across the wire: status by kind, the exact kind in
/// `x-scoop-error`, the message as the body. The spans recorded before the
/// request failed still ship in the trailer — a failed query is exactly the
/// one whose timeline is worth reading.
fn write_error(out: &mut impl Write, err: &ScoopError, trace: Option<&str>) -> std::io::Result<()> {
    let body = scoop_common::stream::once(Bytes::from(err.to_string()));
    let resp = Response { status: wire::status_for_kind(err.kind()), headers: Headers::new(), body }
        .with_header(headers::ERROR_KIND, err.kind());
    write_response(out, resp, trace)
}

/// The server's write side of one connection, remembering the write
/// timeout the socket carries so it is re-set only when it changes.
struct WriteHalf {
    stream: TcpStream,
    window: Duration,
}

impl WriteHalf {
    fn set_window(&mut self, window: Duration) {
        if window != self.window && self.stream.set_write_timeout(Some(window)).is_ok() {
            self.window = window;
        }
    }
}

/// The server's read side: a [`TcpStream`] with (a) an optional total-time
/// guard over the header phase and (b) an optional slowloris dribble that
/// delivers one byte per delay, simulating a byte-at-a-time peer.
pub struct PacedStream {
    inner: TcpStream,
    /// The read timeout the socket currently carries.
    window: Duration,
    /// Wall-clock cutoff for the current header phase.
    header_cutoff: Option<Instant>,
    dribble: Option<Duration>,
}

impl PacedStream {
    /// Wrap an accepted socket whose read timeout is `window`.
    fn new(inner: TcpStream, window: Duration) -> Self {
        PacedStream { inner, window, header_cutoff: None, dribble: None }
    }

    /// Bound the next reads by `window`, touching the socket only when it
    /// carries a different one.
    fn set_window(&mut self, window: Duration) -> std::io::Result<()> {
        if window != self.window {
            self.inner.set_read_timeout(Some(window))?;
            self.window = window;
        }
        Ok(())
    }

    /// Block until the next request's first byte is waiting (`Ok(true)`),
    /// the peer closed (`Ok(false)`), or the idle window lapsed (`Err`).
    /// The byte stays in the kernel buffer for the real head read.
    fn wait_for_request(&mut self, idle_timeout: Duration) -> std::io::Result<bool> {
        self.set_window(idle_timeout)?;
        let mut probe = [0u8; 1];
        Ok(self.inner.peek(&mut probe)? > 0)
    }

    /// Enter the header phase: the total-time clock starts immediately
    /// (the first byte is already waiting when this is called).
    fn arm(&mut self, header_timeout: Duration, dribble: Option<Duration>) {
        self.header_cutoff = Some(Instant::now() + header_timeout);
        self.dribble = dribble;
        let _ = self.set_window(header_timeout);
    }

    /// Leave the header phase; body reads run under the plain io timeout.
    fn disarm(&mut self, io_timeout: Duration) {
        self.header_cutoff = None;
        self.dribble = None;
        let _ = self.set_window(io_timeout);
    }
}

impl Read for PacedStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if let Some(cutoff) = self.header_cutoff {
            if Instant::now() >= cutoff {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "request head exceeded total header time",
                ));
            }
        }
        match self.dribble {
            Some(delay) => {
                // One byte per delay: the injected slowloris peer.
                std::thread::sleep(delay);
                let end = buf.len().min(1);
                self.inner.read(buf.get_mut(..end).unwrap_or_default())
            }
            None => self.inner.read(buf),
        }
    }
}

#[cfg(test)]
mod tests {
    //! The copy-and-syscall budget of the response path (DESIGN.md §13),
    //! counted on wrapper types — the codec is generic over `Write`/`Read`,
    //! so no socket is needed to count the calls one would cost.
    use super::*;
    use scoop_common::stream;
    use std::io::{Cursor, IoSlice};

    /// Records what reaches the "socket" and in how many calls.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.writes += 1;
            bufs.iter().for_each(|b| self.bytes.extend_from_slice(b));
            Ok(bufs.iter().map(|b| b.len()).sum())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Serves bytes like a socket with everything already arrived: each
    /// `read` fills as much of the caller's buffer as there is data for.
    struct CountingReader {
        bytes: Cursor<Vec<u8>>,
        reads: usize,
    }

    impl Read for CountingReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            self.bytes.read(buf)
        }
    }

    fn items(total: usize, item: usize) -> Vec<Bytes> {
        let body: Bytes = (0..total).map(|i| (i * 31 % 251) as u8).collect();
        (0..total).step_by(item).map(|at| body.slice(at..(at + item).min(total))).collect()
    }

    fn ranged_response(items: &[Bytes]) -> Response {
        let len: usize = items.iter().map(Bytes::len).sum();
        let mut resp = Response::ok(stream::from_chunks(items.to_vec()))
            .with_header("content-length", len.to_string())
            .with_header("content-range", format!("bytes 4096-{}/8060928", 4095 + len))
            .with_header("etag", "5f2b0c6d9a3e4b17")
            .with_header(headers::OBJECT_LENGTH, "8060928");
        resp.status = 206;
        resp
    }

    /// The frame grammar, written the way the parent wrote it: one frame
    /// per item straight onto the wire, no coalescing.
    fn golden(resp: Response, trailers: &[(&str, String)]) -> Vec<u8> {
        let mut wire_bytes = wire::encode_response_head(resp.status, &resp.headers).unwrap();
        for item in resp.body {
            wire::write_chunk(&mut wire_bytes, &item.unwrap()).unwrap();
        }
        wire::finish_chunks_with_trailers(&mut wire_bytes, trailers).unwrap();
        wire_bytes
    }

    /// `write_response` through the connection's coalescing buffer.
    fn coalesced(resp: Response) -> (std::io::Result<()>, CountingWriter) {
        let mut socket = CountingWriter::default();
        let mut buf = Vec::with_capacity(wire::IO_BUFFER);
        let outcome = write_response(&mut wire::CoalescingWriter::new(&mut socket, &mut buf), resp, None);
        (outcome, socket)
    }

    /// Decode one chunked response, returning its chunks.
    fn decode(reader: &mut wire::FrameReader<CountingReader>) -> Vec<Bytes> {
        let head = reader.read_head().unwrap().expect("a response head");
        assert!(matches!(head.start, wire::StartLine::Status(206)));
        std::iter::from_fn(|| reader.read_chunk().unwrap()).collect()
    }

    #[test]
    fn a_55_kb_ranged_get_is_one_write_and_at_most_two_reads() {
        let items = items(55_000, 4096);
        let (outcome, socket) = coalesced(ranged_response(&items));
        outcome.unwrap();
        assert_eq!(socket.writes, 1, "a ranged GET that fits the buffer is one syscall");
        assert_eq!(socket.bytes, golden(ranged_response(&items), &[]), "the wire changed");

        let mut reader =
            wire::FrameReader::new(CountingReader { bytes: Cursor::new(socket.bytes), reads: 0 });
        assert_eq!(decode(&mut reader), items, "one chunk per item, boundaries intact");
        assert!(reader.is_drained());
        assert!(reader.inner_mut().reads <= 2, "{} reads", reader.inner_mut().reads);
    }

    #[test]
    fn a_2_mib_body_in_4_kib_items_costs_one_call_per_buffer_not_four_per_item() {
        let items = items(2 << 20, 4096);
        let (outcome, socket) = coalesced(ranged_response(&items));
        outcome.unwrap();
        let budget = socket.bytes.len().div_ceil(wire::IO_BUFFER) + 2;
        assert!(socket.writes <= budget, "{} writes for a budget of {budget}", socket.writes);
        assert_eq!(socket.bytes, golden(ranged_response(&items), &[]), "the wire changed");

        let mut reader =
            wire::FrameReader::new(CountingReader { bytes: Cursor::new(socket.bytes), reads: 0 });
        assert_eq!(decode(&mut reader), items, "one chunk per item, boundaries intact");
        assert!(reader.inner_mut().reads <= budget, "{} reads", reader.inner_mut().reads);
    }

    #[test]
    fn an_item_as_large_as_the_buffer_leaves_uncopied_with_what_is_pending() {
        // Head and the item's size line are pending when the item arrives:
        // they and the item are one vectored write; its CRLF, the small
        // item behind it and the terminator are the flush.
        let items = vec![items(100_000, 100_000).remove(0), Bytes::from_static(b"tail")];
        let (outcome, socket) = coalesced(ranged_response(&items));
        outcome.unwrap();
        assert_eq!(socket.writes, 2);
        assert_eq!(socket.bytes, golden(ranged_response(&items), &[]), "the wire changed");
    }

    #[test]
    fn a_body_that_fails_mid_stream_still_ends_on_the_same_error_trailer() {
        let failure = || ScoopError::Io(std::io::Error::other("disk went away"));
        let failing = || {
            let mut resp = ranged_response(&[]);
            resp.body = Box::new(
                items(10_000, 4096).into_iter().map(Ok).chain(std::iter::once(Err(failure()))),
            );
            resp
        };
        let (outcome, socket) = coalesced(failing());
        assert!(outcome.is_err(), "the connection must not be kept");
        assert_eq!(socket.writes, 1);
        let mut expected = failing();
        expected.body = stream::from_chunks(items(10_000, 4096));
        assert_eq!(socket.bytes, golden(expected, &[wire::stream_error_trailer(&failure())]));
    }
}
