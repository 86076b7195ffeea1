//! Process-wide telemetry: a named-metric registry plus request-scoped
//! tracing.
//!
//! The paper's evaluation is a set of throughput/latency claims measured
//! across the whole pushdown path (driver → proxy → storlet → connector).
//! This module is the substrate those measurements flow through:
//!
//! * **Counters** (`scoop_<layer>_<what>_total`) — monotonic event counts.
//! * **Gauges** (`scoop_<layer>_<what>`) — instantaneous levels (e.g. active
//!   storlet invocations).
//! * **Histograms** (`scoop_<layer>_latency_us`) — fixed-boundary latency
//!   distributions ([`LATENCY_BUCKETS_US`], microseconds).
//! * **Traces** — a trace ID minted per query ([`new_trace_id`]), propagated
//!   via the `x-scoop-trace` header (`scoop_common::headers::TRACE`); each
//!   layer opens a [`span`] guard that records a timed [`SpanRecord`] on
//!   drop. [`trace_spans`] returns the spans of one trace; the store keeps
//!   the most recent [`TRACE_CAP`] traces.
//!
//! One rule keeps per-instance accessors and the registry telling the same
//! story: a fact that has a per-instance value (a connector's bytes, a
//! pool's dials, an engine's sheds) is counted through one [`ScopedCounter`]
//! or [`ScopedGauge`] — the local atomic and the registry metric move in
//! the same call, and nothing counts either half by hand. Lookup by name
//! ([`counter`], [`gauge`], [`histogram`]) locks the registry and allocates
//! the key, so it happens only at construction; the data path holds the
//! handles it took then.
//!
//! [`snapshot`] serializes the registry ([`Snapshot::to_text`] /
//! [`Snapshot::to_json`]); [`missing_data_path_metrics`] is the CI gate that
//! a smoke run registered every canonical data-path counter.
//!
//! Everything here is `std`-only (atomics, `Mutex`, `OnceLock`) so the
//! module stays Miri-clean and usable from every crate in the workspace.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Canonical registry names for the data-path metrics. Wiring sites use
/// these constants so [`DATA_PATH_METRICS`] can never drift from the code.
pub mod names {
    /// GET requests handled by object servers.
    pub const OBJSERVER_GETS: &str = "scoop_objserver_gets_total";
    /// PUT requests handled by object servers.
    pub const OBJSERVER_PUTS: &str = "scoop_objserver_puts_total";
    /// Payload bytes written into object servers.
    pub const OBJSERVER_BYTES_IN: &str = "scoop_objserver_bytes_in_total";
    /// Payload bytes served out of object servers.
    pub const OBJSERVER_BYTES_OUT: &str = "scoop_objserver_bytes_out_total";
    /// Replayed PUTs dropped by idempotency-token dedup.
    pub const OBJSERVER_DEDUPED_PUTS: &str = "scoop_objserver_deduped_puts_total";
    /// Requests accepted by proxies.
    pub const PROXY_REQUESTS: &str = "scoop_proxy_requests_total";
    /// Response-body bytes proxies returned to clients.
    pub const PROXY_BYTES_TO_CLIENTS: &str = "scoop_proxy_bytes_to_clients_total";
    /// Reads that failed over to another replica.
    pub const PROXY_REPLICA_FAILOVERS: &str = "scoop_proxy_replica_failovers_total";
    /// Hedge requests launched against a second replica.
    pub const PROXY_HEDGED_GETS: &str = "scoop_proxy_hedged_gets_total";
    /// Hedged reads won by the hedge rather than the first replica.
    pub const PROXY_HEDGE_WINS: &str = "scoop_proxy_hedge_wins_total";
    /// Replica reads short-circuited by an open circuit breaker.
    pub const HEALTH_BREAKER_SKIPS: &str = "scoop_health_breaker_skips_total";
    /// Storlet invocations completed.
    pub const STORLETS_INVOCATIONS: &str = "scoop_storlets_invocations_total";
    /// Bytes entering storlet pipelines.
    pub const STORLETS_BYTES_IN: &str = "scoop_storlets_bytes_in_total";
    /// Bytes leaving storlet pipelines.
    pub const STORLETS_BYTES_OUT: &str = "scoop_storlets_bytes_out_total";
    /// Pushdown GETs shed by storlet admission control.
    pub const STORLETS_ADMISSION_SHEDS: &str = "scoop_storlets_admission_sheds_total";
    /// Pushdown GETs served through a zone-map block-skipping plan.
    pub const STORLETS_SKIP_PLANS: &str = "scoop_storlets_skip_plans_total";
    /// Pushdown GETs that fell back to a full scan (stats absent, stale or
    /// undecodable).
    pub const STORLETS_PLAN_FALLBACKS: &str = "scoop_storlets_plan_fallbacks_total";
    /// Record blocks pruned by the planner (stats proved no record matches).
    pub const STORLETS_BLOCKS_PRUNED: &str = "scoop_storlets_blocks_pruned_total";
    /// Record blocks a planned pushdown GET actually read.
    pub const STORLETS_BLOCKS_SCANNED: &str = "scoop_storlets_blocks_scanned_total";
    /// Object bytes planned pushdown GETs proved unmatchable and never read.
    pub const STORLETS_BYTES_SKIPPED: &str = "scoop_storlets_bytes_skipped_total";
    /// Requests re-dispatched by the Swift client after retryable failures.
    pub const CLIENT_RETRIES: &str = "scoop_client_retries_total";
    /// Bytes the connector delivered across the storage→compute boundary.
    pub const CONNECTOR_BYTES_TRANSFERRED: &str = "scoop_connector_bytes_transferred_total";
    /// Mid-stream resumes (ranged-GET re-issues) by the connector.
    pub const CONNECTOR_STREAM_RESUMES: &str = "scoop_connector_stream_resumes_total";
    /// Pushdown GETs the store shed for overload, re-read as plain splits
    /// (splits the store declines are not counted).
    pub const CONNECTOR_PUSHDOWN_FALLBACKS: &str = "scoop_connector_pushdown_fallbacks_total";
    /// Object bytes the store skipped (never read) on the connector's
    /// behalf, as reported by `x-scoop-skipped-bytes` response headers.
    pub const CONNECTOR_BYTES_SKIPPED: &str = "scoop_connector_bytes_skipped_total";
    /// Storlet invocations currently executing (gauge).
    pub const STORLETS_ACTIVE: &str = "scoop_storlets_active_invocations";
    /// TCP connections currently open in client pools (gauge).
    ///
    /// The net-plane metrics below are *not* part of
    /// [`super::DATA_PATH_METRICS`]: an in-process (non-TCP) exercise of the
    /// data path legitimately never registers them.
    pub const NET_POOL_OPEN: &str = "scoop_net_pool_open_connections";
    /// Pooled TCP connections currently idle, awaiting reuse (gauge).
    pub const NET_POOL_IDLE: &str = "scoop_net_pool_idle_connections";
    /// Requests served over a reused (kept-alive) pooled connection.
    pub const NET_POOL_REUSES: &str = "scoop_net_pool_reuses_total";
    /// Fresh TCP connections dialed by client pools.
    pub const NET_POOL_DIALS: &str = "scoop_net_pool_dials_total";
    /// Pooled connections evicted (poisoned mid-stream or reaped as stale).
    pub const NET_POOL_EVICTIONS: &str = "scoop_net_pool_evictions_total";
    /// TCP connections accepted by net-plane servers.
    pub const NET_SERVER_CONNECTIONS: &str = "scoop_net_server_connections_total";
    /// Requests decoded and dispatched by net-plane servers.
    pub const NET_SERVER_REQUESTS: &str = "scoop_net_server_requests_total";
    /// Worker threads net-plane servers have started and not yet joined
    /// (gauge): a server starts them as connections arrive, up to its cap.
    pub const NET_SERVER_WORKERS: &str = "scoop_net_server_workers";
    /// Wire-level faults injected at the socket boundary (all classes).
    pub const NET_WIRE_FAULTS: &str = "scoop_net_wire_faults_total";
    /// Wire faults: connection reset mid-exchange.
    pub const NET_WIRE_FAULTS_RST: &str = "scoop_net_wire_faults_rst_total";
    /// Wire faults: partial write followed by a stall.
    pub const NET_WIRE_FAULTS_PARTIAL: &str = "scoop_net_wire_faults_partial_total";
    /// Wire faults: slowloris byte-trickle.
    pub const NET_WIRE_FAULTS_SLOWLORIS: &str = "scoop_net_wire_faults_slowloris_total";
    /// Wire faults: garbage bytes over the status line.
    pub const NET_WIRE_FAULTS_GARBAGE: &str = "scoop_net_wire_faults_garbage_total";
    /// Wire faults: write side closed early (half-close).
    pub const NET_WIRE_FAULTS_HALF_CLOSE: &str = "scoop_net_wire_faults_half_close_total";
    /// Time spent waiting for a pooled connection (idle pop or fresh dial),
    /// microseconds (histogram).
    pub const NET_POOL_CHECKOUT_WAIT_US: &str = "scoop_net_pool_checkout_wait_us";
    /// Pooled connections currently checked out serving a request (gauge).
    pub const NET_POOL_IN_FLIGHT: &str = "scoop_net_pool_in_flight_requests";
    /// Idle pooled connections reaped after outliving the idle timeout.
    pub const NET_POOL_IDLE_REAPS: &str = "scoop_net_pool_idle_reaps_total";
    /// Wide query events recorded into the slow-query ring.
    pub const QUERY_EVENTS: &str = "scoop_query_events_total";
    /// Wide query events that crossed the `SCOOP_SLOW_QUERY_MS` threshold.
    pub const QUERY_EVENTS_SLOW: &str = "scoop_query_events_slow_total";
}

/// Canonical span layer names — the *only* strings [`span`] may be called
/// with (scoop-lint invariant 6 denies hand-spelled literals at call sites).
/// Keeping the set closed means per-layer latency histograms and the wide
/// query events can never fragment across spelling variants, and the wire
/// codec can reject unknown layers instead of interning attacker-controlled
/// strings.
pub mod layers {
    /// Query session (driver-side SQL entry point).
    pub const SESSION: &str = "session";
    /// Task scheduler fan-out.
    pub const SCHEDULER: &str = "scheduler";
    /// Storage connector (compute ↔ object store boundary).
    pub const CONNECTOR: &str = "connector";
    /// Swift client request layer.
    pub const CLIENT: &str = "client";
    /// Proxy server routing/replication layer.
    pub const PROXY: &str = "proxy";
    /// Object server storage layer.
    pub const OBJSERVER: &str = "objserver";
    /// Storlet (pushdown computation) layer.
    pub const STORLET: &str = "storlet";

    /// Every canonical layer, client-side to storage-side.
    pub const ALL: &[&str] = &[SESSION, SCHEDULER, CONNECTOR, CLIENT, PROXY, OBJSERVER, STORLET];

    /// Layers recorded on the server side of the TCP data plane — the ones
    /// the net server drains and ships back in the response trailer.
    pub const SERVER_SIDE: &[&str] = &[PROXY, OBJSERVER, STORLET];

    /// Map a decoded wire string back onto its canonical `&'static str`,
    /// or `None` for anything outside the closed set.
    pub fn canonical(name: &str) -> Option<&'static str> {
        ALL.iter().copied().find(|l| *l == name)
    }
}

/// Every counter a full data-path exercise must register. The bench smoke
/// target fails CI if a snapshot taken after such an exercise is missing
/// any of these (see [`missing_data_path_metrics`]).
pub const DATA_PATH_METRICS: &[&str] = &[
    names::OBJSERVER_GETS,
    names::OBJSERVER_PUTS,
    names::OBJSERVER_BYTES_IN,
    names::OBJSERVER_BYTES_OUT,
    names::OBJSERVER_DEDUPED_PUTS,
    names::PROXY_REQUESTS,
    names::PROXY_BYTES_TO_CLIENTS,
    names::PROXY_REPLICA_FAILOVERS,
    names::PROXY_HEDGED_GETS,
    names::PROXY_HEDGE_WINS,
    names::HEALTH_BREAKER_SKIPS,
    names::STORLETS_INVOCATIONS,
    names::STORLETS_BYTES_IN,
    names::STORLETS_BYTES_OUT,
    names::STORLETS_ADMISSION_SHEDS,
    names::STORLETS_SKIP_PLANS,
    names::STORLETS_PLAN_FALLBACKS,
    names::STORLETS_BYTES_SKIPPED,
    names::CLIENT_RETRIES,
    names::CONNECTOR_BYTES_TRANSFERRED,
    names::CONNECTOR_STREAM_RESUMES,
    names::CONNECTOR_PUSHDOWN_FALLBACKS,
    names::CONNECTOR_BYTES_SKIPPED,
];

/// Histogram bucket upper bounds, in microseconds. Fixed across the
/// workspace so distributions from different runs are comparable; the final
/// implicit bucket is `+inf`.
pub const LATENCY_BUCKETS_US: &[u64] = &[
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000,
];

/// Most recent traces retained by the in-process span store.
pub const TRACE_CAP: usize = 512;

/// Longest [`SpanRecord::detail`] retained, bytes; longer details are
/// truncated at a char boundary when the span records. Bounds both the
/// trace store's memory and the wire size of a span trailer.
pub const MAX_SPAN_DETAIL: usize = 160;

/// Upper bound on one encoded span-trailer value, bytes ([`encode_spans`]
/// stops appending spans that would cross it). Kept comfortably below the
/// wire codec's trailer-line limit.
pub const MAX_ENCODED_SPANS: usize = 8 * 1024;

/// Most recent wide query events retained by the in-process ring; slow
/// events are evicted last.
pub const EVENT_RING_CAP: usize = 256;

struct HistogramCell {
    /// One slot per [`LATENCY_BUCKETS_US`] bound, plus the overflow bucket.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_us: AtomicU64,
}

struct TraceStore {
    spans: BTreeMap<String, Vec<SpanRecord>>,
    /// Trace IDs from least- to most-recently *touched* (not just created):
    /// recording another span onto a live trace moves it to the back, so a
    /// burst of single-span traces evicts stale traces first and can never
    /// push out a multi-layer trace that is still accumulating mid-query.
    order: VecDeque<String>,
}

impl TraceStore {
    /// Register a span landing on `trace`: refresh its recency, evicting
    /// the least-recently-touched trace if the store is at capacity.
    fn touch(&mut self, trace: &str) {
        if self.spans.contains_key(trace) {
            if let Some(pos) = self.order.iter().position(|t| t == trace) {
                if let Some(id) = self.order.remove(pos) {
                    self.order.push_back(id);
                }
            }
            return;
        }
        if self.order.len() >= TRACE_CAP {
            if let Some(oldest) = self.order.pop_front() {
                self.spans.remove(&oldest);
            }
        }
        self.order.push_back(trace.to_string());
    }
}

struct Registry {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicI64>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramCell>>>,
    traces: Mutex<TraceStore>,
    events: Mutex<VecDeque<QueryEvent>>,
    /// Process epoch span start offsets are reported against.
    epoch: Instant,
}

fn registry() -> &'static Registry {
    static REG: OnceLock<Registry> = OnceLock::new();
    REG.get_or_init(|| Registry {
        counters: Mutex::new(BTreeMap::new()),
        gauges: Mutex::new(BTreeMap::new()),
        histograms: Mutex::new(BTreeMap::new()),
        traces: Mutex::new(TraceStore { spans: BTreeMap::new(), order: VecDeque::new() }),
        events: Mutex::new(VecDeque::new()),
        epoch: Instant::now(),
    })
}

/// Microseconds elapsed since the process telemetry epoch — the clock all
/// [`SpanRecord::start_us`] offsets are reported against. Client transports
/// capture this around an exchange to bound the skew-correction window for
/// remote spans.
pub fn now_us() -> u64 {
    Instant::now().saturating_duration_since(registry().epoch).as_micros() as u64
}

/// Telemetry must never take a panic down with it: a poisoned registry lock
/// (some unrelated thread panicked mid-update) is still structurally sound
/// for counters and maps, so recover the guard.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A monotonic, process-wide counter registered under a name.
#[derive(Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Add 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Counter").field(&self.get()).finish()
    }
}

/// Get-or-register the counter named `name`.
pub fn counter(name: &str) -> Counter {
    let mut map = lock(&registry().counters);
    let cell = map
        .entry(name.to_string())
        .or_insert_with(|| Arc::new(AtomicU64::new(0)))
        .clone();
    Counter { cell }
}

/// An instantaneous level registered under a name.
#[derive(Clone)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
}

impl Gauge {
    /// Increase the level by `n`.
    pub fn add(&self, n: i64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Decrease the level by `n`.
    pub fn sub(&self, n: i64) {
        self.cell.fetch_sub(n, Ordering::Relaxed);
    }

    /// Set the level.
    pub fn set(&self, v: i64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Gauge").field(&self.get()).finish()
    }
}

/// Get-or-register the gauge named `name`.
pub fn gauge(name: &str) -> Gauge {
    let mut map = lock(&registry().gauges);
    let cell = map
        .entry(name.to_string())
        .or_insert_with(|| Arc::new(AtomicI64::new(0)))
        .clone();
    Gauge { cell }
}

/// A fixed-bucket latency histogram registered under a name.
#[derive(Clone)]
pub struct Histogram {
    cell: Arc<HistogramCell>,
}

impl Histogram {
    /// Record one observation of `us` microseconds.
    pub fn observe_us(&self, us: u64) {
        let idx = LATENCY_BUCKETS_US
            .iter()
            .position(|b| us <= *b)
            .unwrap_or(LATENCY_BUCKETS_US.len());
        if let Some(b) = self.cell.buckets.get(idx) {
            b.fetch_add(1, Ordering::Relaxed);
        }
        self.cell.count.fetch_add(1, Ordering::Relaxed);
        self.cell.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.cell.count.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Histogram").field(&self.count()).finish()
    }
}

/// Get-or-register the histogram named `name`.
pub fn histogram(name: &str) -> Histogram {
    let mut map = lock(&registry().histograms);
    let cell = map
        .entry(name.to_string())
        .or_insert_with(|| {
            Arc::new(HistogramCell {
                buckets: (0..LATENCY_BUCKETS_US.len().saturating_add(1))
                    .map(|_| AtomicU64::new(0))
                    .collect(),
                count: AtomicU64::new(0),
                sum_us: AtomicU64::new(0),
            })
        })
        .clone();
    Histogram { cell }
}

/// A per-instance counter mirrored into the process-wide registry: `get()`
/// reads the exact local value (per server / per connector accessors keep
/// their test-asserted semantics) while every `add` also feeds the named
/// global metric.
pub struct ScopedCounter {
    local: AtomicU64,
    global: Counter,
}

impl ScopedCounter {
    /// A fresh local counter mirrored into the global metric `name`.
    pub fn new(name: &str) -> ScopedCounter {
        ScopedCounter { local: AtomicU64::new(0), global: counter(name) }
    }

    /// Add `n` locally and globally.
    pub fn add(&self, n: u64) {
        self.local.fetch_add(n, Ordering::Relaxed);
        self.global.add(n);
    }

    /// Add 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// The local (per-instance) value.
    pub fn get(&self) -> u64 {
        self.local.load(Ordering::Relaxed)
    }

    /// Zero the local value; the registry total is monotonic and keeps its
    /// count.
    pub fn reset(&self) {
        self.local.store(0, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for ScopedCounter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("ScopedCounter").field(&self.get()).finish()
    }
}

/// A per-instance level mirrored into the process-wide registry: the gauge
/// counterpart of [`ScopedCounter`]. `get()` reads this instance's level;
/// the named global gauge sums the levels of every instance, so an owner
/// settles its level before it drops the handle.
pub struct ScopedGauge {
    local: AtomicI64,
    global: Gauge,
}

impl ScopedGauge {
    /// A fresh local level mirrored into the global gauge `name`.
    pub fn new(name: &str) -> ScopedGauge {
        ScopedGauge { local: AtomicI64::new(0), global: gauge(name) }
    }

    /// Raise the level by `n`, locally and globally.
    pub fn add(&self, n: i64) {
        self.local.fetch_add(n, Ordering::Relaxed);
        self.global.add(n);
    }

    /// Lower the level by `n`, locally and globally.
    pub fn sub(&self, n: i64) {
        self.local.fetch_sub(n, Ordering::Relaxed);
        self.global.sub(n);
    }

    /// The local (per-instance) level.
    pub fn get(&self) -> i64 {
        self.local.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for ScopedGauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("ScopedGauge").field(&self.get()).finish()
    }
}

/// Mint a process-unique trace ID (stamped on requests as the
/// `x-scoop-trace` header by the client layer).
pub fn new_trace_id() -> String {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    format!("t{:016x}", NEXT.fetch_add(1, Ordering::Relaxed))
}

/// One recorded span of a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Layer that recorded the span — one of [`layers::ALL`].
    pub layer: &'static str,
    /// Free-form context (object name, storlet list, task count, ...),
    /// truncated to [`MAX_SPAN_DETAIL`] bytes.
    pub detail: String,
    /// Start offset from the process telemetry epoch, microseconds. For
    /// remote spans this is the offset after skew correction (see
    /// [`merge_remote_spans`]).
    pub start_us: u64,
    /// Span duration, microseconds.
    pub duration_us: u64,
    /// True when the span was recorded on the far side of the TCP data
    /// plane and merged in from a response trailer.
    pub remote: bool,
}

/// Truncate `s` to at most [`MAX_SPAN_DETAIL`] bytes on a char boundary.
fn bound_detail(mut s: String) -> String {
    if s.len() <= MAX_SPAN_DETAIL {
        return s;
    }
    let mut cut = MAX_SPAN_DETAIL;
    while cut > 0 && !s.is_char_boundary(cut) {
        cut -= 1;
    }
    s.truncate(cut);
    s
}

/// A live span: records a [`SpanRecord`] (when a trace ID is present) and a
/// `scoop_<layer>_latency_us` histogram observation when dropped.
#[must_use = "a span measures until dropped; bind it to a guard variable"]
pub struct Span {
    trace: Option<String>,
    layer: &'static str,
    detail: String,
    started: Instant,
}

/// Open a span for `layer`. `trace` is the request's `x-scoop-trace` value
/// when one was propagated; without it the span still feeds the layer's
/// latency histogram but records nothing in the trace store.
pub fn span(trace: Option<&str>, layer: &'static str, detail: impl Into<String>) -> Span {
    Span { trace: trace.map(str::to_string), layer, detail: detail.into(), started: Instant::now() }
}

impl Drop for Span {
    fn drop(&mut self) {
        let duration_us = self.started.elapsed().as_micros() as u64;
        histogram(&format!("scoop_{}_latency_us", self.layer)).observe_us(duration_us);
        let Some(trace) = self.trace.take() else { return };
        let reg = registry();
        let start_us = self.started.saturating_duration_since(reg.epoch).as_micros() as u64;
        let record = SpanRecord {
            layer: self.layer,
            detail: bound_detail(std::mem::take(&mut self.detail)),
            start_us,
            duration_us,
            remote: false,
        };
        let mut store = lock(&reg.traces);
        store.touch(&trace);
        store.spans.entry(trace).or_default().push(record);
    }
}

/// The spans recorded for `trace`, in completion order (a caller's span
/// drops after its callees', so outermost layers appear last). Remote spans
/// appear after the exchange that carried them back.
pub fn trace_spans(trace: &str) -> Vec<SpanRecord> {
    lock(&registry().traces).spans.get(trace).cloned().unwrap_or_default()
}

// ---------------------------------------------------------------------------
// Wire-spanning traces: the net server drains its server-side spans for a
// request's trace and ships them in an `x-scoop-server-spans` response
// trailer; the client transport decodes and merges them back, tagged remote.
// ---------------------------------------------------------------------------

/// Remove and return the locally-recorded *server-side* spans of `trace`
/// ([`layers::SERVER_SIDE`], `remote == false`). Called by the net server
/// just before it writes a response's trailer: the drained spans travel to
/// the client instead of lingering (and double-counting, when client and
/// server share one process) in the server's store. Spans a concurrent
/// exchange of the same trace recorded are drained too — they merge back
/// into the same trace on the client, so nothing is lost.
pub fn take_server_spans(trace: &str) -> Vec<SpanRecord> {
    let mut store = lock(&registry().traces);
    let Some(spans) = store.spans.get_mut(trace) else { return Vec::new() };
    let mut taken = Vec::new();
    let mut kept = Vec::with_capacity(spans.len());
    for s in spans.drain(..) {
        if !s.remote && layers::SERVER_SIDE.contains(&s.layer) {
            taken.push(s);
        } else {
            kept.push(s);
        }
    }
    *spans = kept;
    taken
}

/// Serialize spans for the `x-scoop-server-spans` trailer. One span per
/// `;`-separated segment, fields `~`-separated: `layer~start~duration~detail`
/// with the detail percent-escaped so the value stays a single CTL-free
/// header line. Spans that would push the value past [`MAX_ENCODED_SPANS`]
/// are dropped (bounded trailers beat complete ones on a data plane).
pub fn encode_spans(spans: &[SpanRecord]) -> String {
    let mut out = String::new();
    for s in spans {
        let mut seg = String::with_capacity(s.detail.len().saturating_add(24));
        seg.push_str(s.layer);
        seg.push('~');
        seg.push_str(&s.start_us.to_string());
        seg.push('~');
        seg.push_str(&s.duration_us.to_string());
        seg.push('~');
        for &b in s.detail.as_bytes() {
            match b {
                b'%' | b'~' | b';' => seg.push_str(&format!("%{b:02x}")),
                0x20..=0x7e => seg.push(b as char),
                _ => seg.push_str(&format!("%{b:02x}")),
            }
        }
        let sep = usize::from(!out.is_empty());
        if out.len().saturating_add(sep).saturating_add(seg.len()) > MAX_ENCODED_SPANS {
            break;
        }
        if sep == 1 {
            out.push(';');
        }
        out.push_str(&seg);
    }
    out
}

/// Decode an `x-scoop-server-spans` trailer value back into span records
/// (`remote` false — [`merge_remote_spans`] tags them). Rejects unknown
/// layers (the layer set is closed), malformed numbers and broken escapes;
/// for any input that decodes, encode→decode→encode is byte-identical.
pub fn decode_spans(value: &str) -> Result<Vec<SpanRecord>, String> {
    if value.is_empty() {
        return Ok(Vec::new());
    }
    let mut out = Vec::new();
    for seg in value.split(';') {
        let mut parts = seg.splitn(4, '~');
        let (layer, start, dur, detail) =
            match (parts.next(), parts.next(), parts.next(), parts.next()) {
                (Some(l), Some(s), Some(d), Some(t)) => (l, s, d, t),
                _ => return Err(format!("span segment has fewer than 4 fields: {seg:?}")),
            };
        let layer = layers::canonical(layer)
            .ok_or_else(|| format!("unknown span layer {layer:?}"))?;
        let start_us: u64 =
            start.parse().map_err(|_| format!("bad span start {start:?}"))?;
        let duration_us: u64 = dur.parse().map_err(|_| format!("bad span duration {dur:?}"))?;
        let mut decoded = Vec::with_capacity(detail.len());
        let bytes = detail.as_bytes();
        let mut i = 0;
        while let Some(&b) = bytes.get(i) {
            match b {
                b'%' => {
                    let hex = bytes
                        .get(i.saturating_add(1)..i.saturating_add(3))
                        .and_then(|h| std::str::from_utf8(h).ok())
                        .and_then(|h| u8::from_str_radix(h, 16).ok())
                        .ok_or_else(|| format!("broken escape in span detail {detail:?}"))?;
                    decoded.push(hex);
                    i = i.saturating_add(3);
                }
                b @ 0x20..=0x7e => {
                    decoded.push(b);
                    i = i.saturating_add(1);
                }
                b => return Err(format!("raw control byte {b:#04x} in span detail")),
            }
        }
        let detail = String::from_utf8(decoded)
            .map_err(|_| "span detail is not UTF-8".to_string())?;
        out.push(SpanRecord {
            layer,
            detail: bound_detail(detail),
            start_us,
            duration_us,
            remote: false,
        });
    }
    Ok(out)
}

/// Merge spans shipped back over the wire into `trace`'s local store,
/// tagged `remote`. Clock-skew tolerance: the remote `start_us` offsets are
/// against the *server's* epoch; if the whole batch already falls inside
/// the client's observation window `[window_start_us, window_end_us]` (the
/// single-process / shared-epoch case) it is trusted as-is, otherwise every
/// span is shifted uniformly so the earliest one lands at the window start —
/// relative timing within the batch is preserved and offsets stay monotone
/// with respect to the exchange that carried them.
pub fn merge_remote_spans(
    trace: &str,
    spans: Vec<SpanRecord>,
    window_start_us: u64,
    window_end_us: u64,
) {
    if spans.is_empty() {
        return;
    }
    let min_start = spans.iter().map(|s| s.start_us).min().unwrap_or(0);
    let max_end = spans
        .iter()
        .map(|s| s.start_us.saturating_add(s.duration_us))
        .max()
        .unwrap_or(0);
    let in_window = min_start >= window_start_us && max_end <= window_end_us;
    let mut store = lock(&registry().traces);
    store.touch(trace);
    let slot = store.spans.entry(trace.to_string()).or_default();
    for mut s in spans {
        if !in_window {
            // Uniform shift: earliest remote span lands at window start.
            s.start_us = window_start_us.saturating_add(s.start_us.saturating_sub(min_start));
        }
        s.remote = true;
        s.detail = bound_detail(s.detail);
        slot.push(s);
    }
}

/// Render one trace as JSON (the `GET /trace/{id}` body).
pub fn trace_to_json(trace: &str) -> String {
    let spans = trace_spans(trace);
    let mut out = format!("{{\"trace\":{},\"spans\":[", json_string(trace));
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"layer\":{},\"detail\":{},\"start_us\":{},\"duration_us\":{},\"remote\":{}}}",
            json_string(s.layer),
            json_string(&s.detail),
            s.start_us,
            s.duration_us,
            s.remote
        ));
    }
    out.push_str("]}");
    out
}

/// Minimal JSON string encoder for telemetry values (details, trace IDs).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len().saturating_add(2));
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

// ---------------------------------------------------------------------------
// Wide query events: one bounded structured record per query, ringed.
// ---------------------------------------------------------------------------

/// One wide event describing a whole query — the slow-query log record.
#[derive(Debug, Clone)]
pub struct QueryEvent {
    /// The query's trace ID.
    pub trace: String,
    /// Chosen execution path (`pushdown`, `pushdown-fallback`, `vanilla`,
    /// `auto`...).
    pub path: String,
    /// End-to-end wall time, microseconds.
    pub total_us: u64,
    /// Bytes moved across the storage→compute boundary.
    pub bytes: u64,
    /// Rows handed to the SQL executor (`JobMetrics::rows_to_compute`): what
    /// the scans yielded — on every arm the pushed predicate's survivors,
    /// not the records or rows the scan read.
    pub rows: u64,
    /// Task-level + client-level retries observed during the query.
    pub retries: u64,
    /// Hedged replica GETs launched during the query.
    pub hedges: u64,
    /// The query's own pushdown splits that came back plain — shed or
    /// declined by the store — and took the vanilla selection.
    pub degradations: u64,
    /// Splits the query's own partition discovery dropped because the zone
    /// maps proved no block in them can match.
    pub splits_pruned: u64,
    /// Per-layer span durations: `(layer, summed duration_us)`, in
    /// [`layers::ALL`] order, layers with no spans omitted.
    pub layer_us: Vec<(&'static str, u64)>,
    /// True when `total_us` crossed the `SCOOP_SLOW_QUERY_MS` threshold.
    pub slow: bool,
}

/// The slow-query threshold, milliseconds (`SCOOP_SLOW_QUERY_MS`, default
/// 250). Queries at or above it are flagged slow and survive ring eviction
/// longest.
pub fn slow_query_threshold_ms() -> u64 {
    std::env::var("SCOOP_SLOW_QUERY_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(250)
}

/// Record one wide query event into the ring. Every query is recorded (the
/// ring is bounded, so always-on costs nothing); events at or above the
/// slow threshold are flagged and evicted only when no fast event remains
/// to evict first — a burst of fast queries cannot wash out the slow ones
/// the log exists to explain.
pub fn record_query_event(mut ev: QueryEvent) {
    ev.slow = ev.total_us >= slow_query_threshold_ms().saturating_mul(1_000);
    static EVENTS: OnceLock<Counter> = OnceLock::new();
    static SLOW: OnceLock<Counter> = OnceLock::new();
    EVENTS.get_or_init(|| counter(names::QUERY_EVENTS)).inc();
    if ev.slow {
        SLOW.get_or_init(|| counter(names::QUERY_EVENTS_SLOW)).inc();
    }
    let mut ring = lock(&registry().events);
    if ring.len() >= EVENT_RING_CAP {
        if let Some(pos) = ring.iter().position(|e| !e.slow) {
            ring.remove(pos);
        } else {
            ring.pop_front();
        }
    }
    ring.push_back(ev);
}

/// The ring's current contents, oldest first.
pub fn query_events() -> Vec<QueryEvent> {
    lock(&registry().events).iter().cloned().collect()
}

/// Render the event ring as JSON (the `GET /events` body).
pub fn events_to_json(events: &[QueryEvent]) -> String {
    let mut out = String::from("{\"events\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"trace\":{},\"path\":{},\"total_us\":{},\"bytes\":{},\"rows\":{},\
             \"retries\":{},\"hedges\":{},\"degradations\":{},\"splits_pruned\":{},\
             \"slow\":{},\"layer_us\":{{",
            json_string(&e.trace),
            json_string(&e.path),
            e.total_us,
            e.bytes,
            e.rows,
            e.retries,
            e.hedges,
            e.degradations,
            e.splits_pruned,
            e.slow
        ));
        for (j, (layer, us)) in e.layer_us.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{us}", json_string(layer)));
        }
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

/// One-line-per-event text rendering (the repro-run-end dump).
pub fn events_to_text(events: &[QueryEvent]) -> String {
    let mut out = String::new();
    for e in events {
        let layers: Vec<String> =
            e.layer_us.iter().map(|(l, us)| format!("{l}={us}us")).collect();
        out.push_str(&format!(
            "{} {}{} total={}us bytes={} rows={} retries={} hedges={} degradations={} \
             splits_pruned={} [{}]\n",
            e.trace,
            e.path,
            if e.slow { " SLOW" } else { "" },
            e.total_us,
            e.bytes,
            e.rows,
            e.retries,
            e.hedges,
            e.degradations,
            e.splits_pruned,
            layers.join(" ")
        ));
    }
    out
}

/// One histogram in a [`Snapshot`].
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Registry name.
    pub name: String,
    /// `(upper_bound_us, observations)` per bucket; the overflow bucket
    /// reports `u64::MAX` as its bound.
    pub buckets: Vec<(u64, u64)>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values, microseconds.
    pub sum_us: u64,
}

/// A point-in-time copy of every registered metric.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// `(name, value)`, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, level)`, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// Histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

impl Snapshot {
    /// The value of the counter `name`, if registered.
    pub fn get_counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The level of the gauge `name`, if registered.
    pub fn get_gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Plain-text rendering (one metric per line; histogram buckets
    /// indented under their metric).
    pub fn to_text(&self) -> String {
        let mut out = String::from("# scoop telemetry snapshot\n");
        for (name, v) in &self.counters {
            out.push_str(&format!("counter {name} {v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("gauge {name} {v}\n"));
        }
        for h in &self.histograms {
            out.push_str(&format!(
                "histogram {} count={} sum_us={}\n",
                h.name, h.count, h.sum_us
            ));
            for (bound, n) in &h.buckets {
                if *bound == u64::MAX {
                    out.push_str(&format!("  le +inf {n}\n"));
                } else {
                    out.push_str(&format!("  le {bound} {n}\n"));
                }
            }
        }
        out
    }

    /// JSON rendering (metric names are `[a-z0-9_]`, so no escaping is
    /// needed).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        let mut first = true;
        for (name, v) in &self.counters {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\"{name}\":{v}"));
        }
        out.push_str("},\"gauges\":{");
        let mut first = true;
        for (name, v) in &self.gauges {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\"{name}\":{v}"));
        }
        out.push_str("},\"histograms\":{");
        let mut first = true;
        for h in &self.histograms {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\"{}\":{{\"count\":{},\"sum_us\":{},\"buckets\":[",
                h.name, h.count, h.sum_us
            ));
            let mut first_bucket = true;
            for (bound, n) in &h.buckets {
                if !first_bucket {
                    out.push(',');
                }
                first_bucket = false;
                out.push_str(&format!("[{bound},{n}]"));
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }

    /// Prometheus text exposition (the `GET /metrics` body): `# TYPE`
    /// comments, cumulative `_bucket{le="..."}` series per histogram plus
    /// `_sum`/`_count`. Metric names are already `[a-z0-9_]`, so no label
    /// escaping is needed.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
        }
        for h in &self.histograms {
            out.push_str(&format!("# TYPE {} histogram\n", h.name));
            let mut cumulative = 0u64;
            for (bound, n) in &h.buckets {
                cumulative = cumulative.saturating_add(*n);
                if *bound == u64::MAX {
                    out.push_str(&format!(
                        "{}_bucket{{le=\"+Inf\"}} {cumulative}\n",
                        h.name
                    ));
                } else {
                    out.push_str(&format!(
                        "{}_bucket{{le=\"{bound}\"}} {cumulative}\n",
                        h.name
                    ));
                }
            }
            out.push_str(&format!("{}_sum {}\n", h.name, h.sum_us));
            out.push_str(&format!("{}_count {}\n", h.name, h.count));
        }
        out
    }
}

/// Copy every registered metric out of the registry.
pub fn snapshot() -> Snapshot {
    let reg = registry();
    let counters = lock(&reg.counters)
        .iter()
        .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
        .collect();
    let gauges = lock(&reg.gauges)
        .iter()
        .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
        .collect();
    let histograms = lock(&reg.histograms)
        .iter()
        .map(|(k, cell)| HistogramSnapshot {
            name: k.clone(),
            buckets: LATENCY_BUCKETS_US
                .iter()
                .copied()
                .chain(std::iter::once(u64::MAX))
                .zip(cell.buckets.iter().map(|b| b.load(Ordering::Relaxed)))
                .collect(),
            count: cell.count.load(Ordering::Relaxed),
            sum_us: cell.sum_us.load(Ordering::Relaxed),
        })
        .collect();
    Snapshot { counters, gauges, histograms }
}

/// The [`DATA_PATH_METRICS`] counters absent from `s` — nonempty means a
/// data-path exercise failed to construct (and hence register) some layer's
/// instrumentation.
pub fn missing_data_path_metrics(s: &Snapshot) -> Vec<&'static str> {
    DATA_PATH_METRICS
        .iter()
        .copied()
        .filter(|m| s.get_counter(m).is_none())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_register_and_accumulate() {
        let c = counter("test_telemetry_counter_total");
        let before = c.get();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), before + 5);
        // Same name resolves to the same cell.
        assert_eq!(counter("test_telemetry_counter_total").get(), before + 5);
        assert_eq!(
            snapshot().get_counter("test_telemetry_counter_total"),
            Some(before + 5)
        );
    }

    #[test]
    fn gauges_move_both_ways() {
        let g = gauge("test_telemetry_gauge");
        g.set(0);
        g.add(3);
        g.sub(1);
        assert_eq!(g.get(), 2);
        assert_eq!(snapshot().get_gauge("test_telemetry_gauge"), Some(2));
    }

    #[test]
    fn histogram_buckets_observations() {
        let h = histogram("test_telemetry_hist_us");
        h.observe_us(50); // first bucket (<= 100)
        h.observe_us(2_000_000); // overflow
        assert_eq!(h.count(), 2);
        let snap = snapshot();
        let hs = snap
            .histograms
            .iter()
            .find(|h| h.name == "test_telemetry_hist_us")
            .unwrap();
        assert_eq!(hs.count, 2);
        assert_eq!(hs.buckets.len(), LATENCY_BUCKETS_US.len() + 1);
        assert_eq!(hs.buckets[0], (100, 1));
        assert_eq!(*hs.buckets.last().unwrap(), (u64::MAX, 1));
        assert!(hs.sum_us >= 2_000_050);
    }

    #[test]
    fn scoped_counter_is_exact_locally_and_mirrored_globally() {
        let global_before = counter("test_telemetry_scoped_total").get();
        let a = ScopedCounter::new("test_telemetry_scoped_total");
        let b = ScopedCounter::new("test_telemetry_scoped_total");
        a.add(2);
        b.inc();
        assert_eq!(a.get(), 2);
        assert_eq!(b.get(), 1);
        assert_eq!(counter("test_telemetry_scoped_total").get(), global_before + 3);
        a.reset();
        assert_eq!(a.get(), 0);
        assert_eq!(counter("test_telemetry_scoped_total").get(), global_before + 3);
    }

    #[test]
    fn scoped_gauge_is_exact_locally_and_summed_globally() {
        let a = ScopedGauge::new("test_telemetry_scoped_level");
        let b = ScopedGauge::new("test_telemetry_scoped_level");
        a.add(3);
        b.add(1);
        a.sub(1);
        assert_eq!((a.get(), b.get()), (2, 1));
        assert_eq!(gauge("test_telemetry_scoped_level").get(), 3);
    }

    #[test]
    fn trace_ids_are_unique() {
        let a = new_trace_id();
        let b = new_trace_id();
        assert_ne!(a, b);
        assert!(a.starts_with('t'));
    }

    #[test]
    fn spans_record_into_their_trace() {
        let trace = new_trace_id();
        {
            let _outer = span(Some(&trace), "proxy", "GET a/c/o");
            let _inner = span(Some(&trace), "objserver", "GET");
        }
        let spans = trace_spans(&trace);
        assert_eq!(spans.len(), 2);
        // Inner drops first.
        assert_eq!(spans[0].layer, "objserver");
        assert_eq!(spans[1].layer, "proxy");
        assert_eq!(spans[1].detail, "GET a/c/o");
        // Unrelated traces see nothing.
        assert!(trace_spans("t-no-such-trace").is_empty());
    }

    #[test]
    fn span_without_trace_only_feeds_histograms() {
        let h = histogram("scoop_testlayer_latency_us");
        let before = h.count();
        drop(span(None, "testlayer", ""));
        assert_eq!(h.count(), before + 1);
    }

    #[test]
    fn trace_store_is_bounded() {
        // Unique prefix so the traces minted here are identifiable.
        for i in 0..(TRACE_CAP + 8) {
            let t = format!("bounded-test-{i}");
            drop(span(Some(&t), "session", ""));
        }
        assert!(trace_spans(&format!("bounded-test-{}", TRACE_CAP + 7)).len() == 1);
        // The earliest traces were evicted to keep the store bounded.
        assert!(trace_spans("bounded-test-0").is_empty());
    }

    #[test]
    fn snapshot_serializes_text_and_json() {
        counter("test_telemetry_render_total").add(7);
        gauge("test_telemetry_render_gauge").set(-2);
        histogram("test_telemetry_render_us").observe_us(123);
        let snap = snapshot();
        let text = snap.to_text();
        assert!(text.contains("counter test_telemetry_render_total"));
        assert!(text.contains("gauge test_telemetry_render_gauge -2"));
        assert!(text.contains("histogram test_telemetry_render_us"));
        assert!(text.contains("le +inf"));
        let json = snap.to_json();
        assert!(json.contains("\"test_telemetry_render_total\":"));
        assert!(json.contains("\"counters\":{"));
        assert!(json.contains("\"histograms\":{"));
        // Sanity: balanced braces.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
    }

    #[test]
    fn span_detail_is_bounded() {
        let trace = new_trace_id();
        drop(span(Some(&trace), "session", "x".repeat(MAX_SPAN_DETAIL * 4)));
        let spans = trace_spans(&trace);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].detail.len(), MAX_SPAN_DETAIL);
        // Truncation lands on a char boundary even for multibyte input.
        let trace = new_trace_id();
        drop(span(Some(&trace), "session", "é".repeat(MAX_SPAN_DETAIL)));
        let d = &trace_spans(&trace)[0].detail;
        assert!(d.len() <= MAX_SPAN_DETAIL);
        assert!(d.chars().all(|c| c == 'é'));
    }

    #[test]
    fn live_trace_survives_a_burst_of_single_span_traces() {
        // A query's trace receives its first span, then TRACE_CAP unrelated
        // single-span traces land before its next layer reports. With FIFO
        // eviction the in-progress trace would be gone; recency-touch
        // eviction keeps it alive as long as it keeps accumulating.
        let live = format!("lru-live-{}", new_trace_id());
        drop(span(Some(&live), "session", "first layer"));
        for i in 0..TRACE_CAP {
            if i == TRACE_CAP / 2 {
                // Mid-burst, the query's next layer reports: refreshes
                // recency.
                drop(span(Some(&live), "scheduler", "second layer"));
            }
            drop(span(Some(&format!("lru-burst-{i}")), "session", ""));
        }
        let spans = trace_spans(&live);
        assert_eq!(
            spans.len(),
            2,
            "in-progress trace was evicted mid-query by a burst of unrelated traces"
        );
    }

    #[test]
    fn span_codec_roundtrips_byte_identically() {
        let spans = vec![
            SpanRecord {
                layer: layers::PROXY,
                detail: "GET a/c/o~1;2%3 \"quoted\"".into(),
                start_us: 12,
                duration_us: 345,
                remote: false,
            },
            SpanRecord {
                layer: layers::STORLET,
                detail: String::new(),
                start_us: 0,
                duration_us: u64::MAX,
                remote: false,
            },
        ];
        let wire = encode_spans(&spans);
        assert!(!wire.contains('\r') && !wire.contains('\n'));
        let decoded = decode_spans(&wire).unwrap();
        assert_eq!(decoded, spans);
        assert_eq!(encode_spans(&decoded), wire);
        // Empty input encodes to the empty value and back.
        assert_eq!(decode_spans("").unwrap(), Vec::new());
    }

    #[test]
    fn span_codec_rejects_foreign_layers_and_broken_escapes() {
        assert!(decode_spans("gateway~1~2~x").is_err(), "unknown layer accepted");
        assert!(decode_spans("proxy~nope~2~x").is_err(), "bad number accepted");
        assert!(decode_spans("proxy~1~2~%zz").is_err(), "broken escape accepted");
        assert!(decode_spans("proxy~1").is_err(), "short segment accepted");
    }

    #[test]
    fn encoded_spans_stay_bounded() {
        let many: Vec<SpanRecord> = (0..2_000)
            .map(|i| SpanRecord {
                layer: layers::OBJSERVER,
                detail: format!("object-{i}-{}", "p".repeat(64)),
                start_us: i,
                duration_us: 1,
                remote: false,
            })
            .collect();
        let wire = encode_spans(&many);
        assert!(wire.len() <= MAX_ENCODED_SPANS);
        // What survived still decodes.
        assert!(!decode_spans(&wire).unwrap().is_empty());
    }

    #[test]
    fn take_server_spans_drains_only_local_server_layers() {
        let trace = new_trace_id();
        {
            let _c = span(Some(&trace), "client", "");
            let _p = span(Some(&trace), "proxy", "");
            let _o = span(Some(&trace), "objserver", "");
        }
        merge_remote_spans(
            &trace,
            vec![SpanRecord {
                layer: layers::STORLET,
                detail: "already merged".into(),
                start_us: 1,
                duration_us: 1,
                remote: false,
            }],
            0,
            u64::MAX,
        );
        let taken = take_server_spans(&trace);
        let layers_taken: Vec<_> = taken.iter().map(|s| s.layer).collect();
        assert_eq!(layers_taken, vec!["objserver", "proxy"], "drain order follows record order");
        // The client span and the previously-merged remote span stay.
        let left = trace_spans(&trace);
        assert_eq!(left.len(), 2);
        assert!(left.iter().any(|s| s.layer == "client" && !s.remote));
        assert!(left.iter().any(|s| s.layer == "storlet" && s.remote));
        // A second drain finds nothing.
        assert!(take_server_spans(&trace).is_empty());
    }

    #[test]
    fn merged_remote_spans_are_skew_shifted_into_the_window() {
        let trace = new_trace_id();
        // Remote epoch wildly ahead of the client window: shift preserves
        // relative timing and pins the batch at window start.
        let remote = vec![
            SpanRecord {
                layer: layers::OBJSERVER,
                detail: String::new(),
                start_us: 9_000_000,
                duration_us: 10,
                remote: false,
            },
            SpanRecord {
                layer: layers::PROXY,
                detail: String::new(),
                start_us: 9_000_100,
                duration_us: 20,
                remote: false,
            },
        ];
        merge_remote_spans(&trace, remote, 1_000, 2_000);
        let spans = trace_spans(&trace);
        assert_eq!(spans[0].start_us, 1_000);
        assert_eq!(spans[1].start_us, 1_100);
        assert!(spans.iter().all(|s| s.remote));

        // A batch already inside the window is trusted untouched.
        let trace = new_trace_id();
        merge_remote_spans(
            &trace,
            vec![SpanRecord {
                layer: layers::PROXY,
                detail: String::new(),
                start_us: 1_500,
                duration_us: 100,
                remote: false,
            }],
            1_000,
            2_000,
        );
        assert_eq!(trace_spans(&trace)[0].start_us, 1_500);
    }

    #[test]
    fn event_ring_is_bounded_and_keeps_slow_events() {
        fn ev(trace: String, total_us: u64) -> QueryEvent {
            QueryEvent {
                trace,
                path: "pushdown".into(),
                total_us,
                bytes: 1,
                rows: 1,
                retries: 0,
                hedges: 0,
                degradations: 0,
                splits_pruned: 0,
                layer_us: vec![(layers::SESSION, total_us)],
                slow: false,
            }
        }
        // One slow event (way past any sane threshold), then floods of
        // fast ones: the slow event must survive the eviction churn.
        record_query_event(ev("ring-slow".into(), u64::MAX / 2));
        for i in 0..(EVENT_RING_CAP * 2) {
            record_query_event(ev(format!("ring-fast-{i}"), 0));
        }
        let events = query_events();
        assert!(events.len() <= EVENT_RING_CAP);
        let slow = events.iter().find(|e| e.trace == "ring-slow").expect("slow event evicted");
        assert!(slow.slow);
        let json = events_to_json(&events);
        assert!(json.starts_with("{\"events\":["));
        assert!(json.contains("\"trace\":\"ring-slow\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(events_to_text(&events).contains("ring-slow pushdown SLOW"));
    }

    #[test]
    fn trace_json_escapes_details() {
        let trace = new_trace_id();
        drop(span(Some(&trace), "session", "say \"hi\"\\\n"));
        let json = trace_to_json(&trace);
        assert!(json.contains("\"layer\":\"session\""));
        assert!(json.contains("say \\\"hi\\\"\\\\\\u000a"));
        assert!(json.contains("\"remote\":false"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn prometheus_rendering_is_cumulative() {
        counter("test_telemetry_prom_total").add(3);
        gauge("test_telemetry_prom_gauge").set(-1);
        let h = histogram("test_telemetry_prom_us");
        h.observe_us(50);
        h.observe_us(60);
        h.observe_us(2_000_000);
        let text = snapshot().to_prometheus();
        assert!(text.contains("# TYPE test_telemetry_prom_total counter"));
        assert!(text.contains("test_telemetry_prom_total 3"));
        assert!(text.contains("# TYPE test_telemetry_prom_gauge gauge"));
        assert!(text.contains("test_telemetry_prom_gauge -1"));
        // Buckets accumulate: the 100us bucket holds 2, +Inf holds all 3.
        assert!(text.contains("test_telemetry_prom_us_bucket{le=\"100\"} 2"));
        assert!(text.contains("test_telemetry_prom_us_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("test_telemetry_prom_us_count 3"));
    }

    #[test]
    fn layer_names_are_canonical() {
        assert_eq!(layers::ALL.len(), 7);
        for l in layers::ALL {
            assert_eq!(layers::canonical(l), Some(*l));
        }
        for l in layers::SERVER_SIDE {
            assert!(layers::ALL.contains(l));
        }
        assert_eq!(layers::canonical("gateway"), None);
    }

    #[test]
    fn missing_data_path_metrics_reports_unregistered_names() {
        let missing = missing_data_path_metrics(&Snapshot::default());
        assert_eq!(missing.len(), DATA_PATH_METRICS.len());
        let snap = Snapshot {
            counters: DATA_PATH_METRICS.iter().map(|n| (n.to_string(), 0)).collect(),
            ..Snapshot::default()
        };
        assert!(missing_data_path_metrics(&snap).is_empty());
    }
}
