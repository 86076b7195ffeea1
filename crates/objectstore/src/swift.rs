//! Cluster assembly and the client API.
//!
//! [`SwiftCluster`] wires together the auth service, container service, ring,
//! object servers and proxies; [`SwiftClient`] is the HTTP-client equivalent
//! the connector (and tests) talk to. Defaults mirror the paper's OSIC
//! testbed: 6 proxies and 29 object servers with 10 devices each, 3-replica
//! object ring.

use crate::auth::AuthService;
use crate::backend::{DiskBackend, MemBackend, StorageBackend};
use crate::fault::{ChaosBackend, FaultInjector, FaultPlan, FaultStatsSnapshot};
use crate::health::{BreakerConfig, NodeHealth};
use crate::middleware::Pipeline;
use crate::net::{wire, HttpPool, NetHandle, NetOptions, NetServer, PoolConfig};
use crate::objserver::{ObjectServer, UPLOAD_TOKEN_HEADER};
use crate::path::ObjectPath;
use crate::proxy::{ContainerService, ObjectRecord, ProxyServer};
use crate::replication::{RepairReport, Replicator};
use crate::request::{ByteRange, Headers, Method, Request, Response};
use crate::ring::{DeviceId, Ring, RingBuilder};
use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use scoop_common::telemetry::{self, names};
use scoop_common::{Deadline, Result, RetryPolicy, ScoopError};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Where device data lives.
#[derive(Debug, Clone, Default)]
pub enum BackendKind {
    /// In-memory devices (default; used by experiments and tests).
    #[default]
    Memory,
    /// One directory per device under the given root.
    Disk(PathBuf),
}

/// Cluster shape and behaviour.
#[derive(Debug, Clone)]
pub struct SwiftConfig {
    /// Number of proxy servers.
    pub proxies: usize,
    /// Number of object servers (storage nodes).
    pub object_servers: usize,
    /// Devices per object server.
    pub devices_per_server: usize,
    /// Ring partition power (partitions = 2^part_power).
    pub part_power: u32,
    /// Object replica count.
    pub replicas: usize,
    /// Failure-isolation zones to spread nodes across.
    pub zones: u32,
    /// Whether proxies enforce token auth.
    pub auth_enabled: bool,
    /// Device storage kind.
    pub backend: BackendKind,
    /// Optional chaos plan: when set, every device backend is wrapped in a
    /// [`ChaosBackend`] driven by one shared, seeded [`FaultInjector`].
    pub fault_plan: Option<FaultPlan>,
    /// Optional per-node circuit breakers shared by all proxies: replicas
    /// on nodes whose breaker is open are skipped proactively on reads.
    pub breaker: Option<BreakerConfig>,
    /// Optional hedged GETs: race a second replica after this long without
    /// a first response, taking whichever byte stream answers first.
    pub hedge_after: Option<Duration>,
}

impl Default for SwiftConfig {
    fn default() -> Self {
        SwiftConfig {
            proxies: 2,
            object_servers: 4,
            devices_per_server: 2,
            part_power: 8,
            replicas: 3,
            zones: 4,
            auth_enabled: false,
            backend: BackendKind::Memory,
            fault_plan: None,
            breaker: None,
            hedge_after: None,
        }
    }
}

impl SwiftConfig {
    /// The paper's OSIC testbed shape: 6 proxies, 29 object servers with 10
    /// devices each, 3-replica ring.
    pub fn osic_testbed() -> Self {
        SwiftConfig {
            proxies: 6,
            object_servers: 29,
            devices_per_server: 10,
            part_power: 12,
            replicas: 3,
            zones: 5,
            auth_enabled: false,
            backend: BackendKind::Memory,
            fault_plan: None,
            breaker: None,
            hedge_after: None,
        }
    }
}

/// The assembled cluster.
pub struct SwiftCluster {
    config: SwiftConfig,
    ring: Arc<RwLock<Ring>>,
    servers: Arc<HashMap<u32, Arc<ObjectServer>>>,
    proxies: Vec<Arc<ProxyServer>>,
    containers: Arc<ContainerService>,
    auth: Arc<AuthService>,
    next_proxy: AtomicUsize,
    fault_injector: Option<Arc<FaultInjector>>,
    health: Option<Arc<NodeHealth>>,
    /// Lazily-started TCP front end (one per cluster, shared by every
    /// TCP-transport client); shut down when the cluster drops.
    net: Mutex<Option<Arc<NetHandle>>>,
}

impl SwiftCluster {
    /// Build a cluster from a config.
    pub fn new(config: SwiftConfig) -> Result<Arc<SwiftCluster>> {
        let mut builder = RingBuilder::new(config.part_power, config.replicas);
        let mut device_map: HashMap<u32, Vec<DeviceId>> = HashMap::new();
        for node in 0..config.object_servers as u32 {
            let zone = node % config.zones.max(1);
            for _ in 0..config.devices_per_server {
                let dev = builder.add_device(node, zone, 1.0);
                device_map.entry(node).or_default().push(dev);
            }
        }
        let ring = Arc::new(RwLock::new(builder.build()?));

        let fault_injector = config.fault_plan.clone().map(FaultInjector::new);
        let mut servers = HashMap::new();
        for (node, devs) in &device_map {
            let mut backends: HashMap<DeviceId, Arc<dyn StorageBackend>> = HashMap::new();
            for d in devs {
                let base: Arc<dyn StorageBackend> = match &config.backend {
                    BackendKind::Memory => Arc::new(MemBackend::new()),
                    BackendKind::Disk(root) => {
                        let dir = root.join(format!("node-{node}")).join(format!("dev-{}", d.0));
                        Arc::new(DiskBackend::open(dir)?)
                    }
                };
                let backend = match &fault_injector {
                    Some(inj) => Arc::new(ChaosBackend::new(base, *node, inj.clone())) as _,
                    None => base,
                };
                backends.insert(*d, backend);
            }
            servers.insert(*node, Arc::new(ObjectServer::with_backends(*node, backends)));
        }
        let servers = Arc::new(servers);
        let containers = Arc::new(ContainerService::new());
        let auth = Arc::new(AuthService::new());

        // One breaker registry for the whole cluster: every proxy's replica
        // outcomes train the same per-node state machines.
        let health = config.breaker.map(NodeHealth::new);
        let proxies = (0..config.proxies as u32)
            .map(|id| {
                let mut proxy = ProxyServer::new(
                    id,
                    ring.clone(),
                    servers.clone(),
                    containers.clone(),
                    auth.clone(),
                    config.auth_enabled,
                );
                if let Some(h) = &health {
                    proxy = proxy.with_health(h.clone());
                }
                if let Some(after) = config.hedge_after {
                    proxy = proxy.with_hedging(after);
                }
                Arc::new(proxy)
            })
            .collect();

        Ok(Arc::new(SwiftCluster {
            config,
            ring,
            servers,
            proxies,
            containers,
            auth,
            next_proxy: AtomicUsize::new(0),
            fault_injector,
            health,
            net: Mutex::new(None),
        }))
    }

    /// Start (or fetch) the cluster's TCP front end. Idempotent: the first
    /// call binds a loopback listener in front of the proxies; later calls
    /// (regardless of options) return the same handle.
    pub fn serve_net(&self, opts: NetOptions) -> Result<Arc<NetHandle>> {
        // Double-checked so `NetServer::serve` (binds a listener, spawns
        // workers — it blocks) never runs while `net` is held. Two racing
        // first calls may both bind; the loser's handle drops and its
        // listener shuts down, which only costs a discarded ephemeral
        // port.
        if let Some(h) = self.net.lock().as_ref() {
            return Ok(h.clone());
        }
        let handle = Arc::new(NetServer::serve(
            self.proxies.clone(),
            self.containers.clone(),
            self.fault_injector.clone(),
            opts,
        )?);
        let mut guard = self.net.lock();
        if let Some(h) = guard.as_ref() {
            return Ok(h.clone());
        }
        *guard = Some(handle.clone());
        Ok(handle)
    }

    /// The chaos injector, when the cluster was built with a fault plan.
    pub fn fault_injector(&self) -> Option<&Arc<FaultInjector>> {
        self.fault_injector.as_ref()
    }

    /// Injected-fault counters (zeroes when no fault plan is active).
    pub fn fault_stats(&self) -> FaultStatsSnapshot {
        self.fault_injector
            .as_ref()
            .map(|i| i.stats())
            .unwrap_or_default()
    }

    /// Total read failovers to another replica, summed over all proxies.
    pub fn replica_failovers(&self) -> u64 {
        self.proxies
            .iter()
            .map(|p| p.stats.replica_failovers.get())
            .sum()
    }

    /// The shared per-node breaker registry, when breakers are enabled.
    pub fn node_health(&self) -> Option<&Arc<NodeHealth>> {
        self.health.as_ref()
    }

    /// Replica reads short-circuited by an open breaker (cluster-wide).
    pub fn breaker_skips(&self) -> u64 {
        self.health.as_ref().map(|h| h.skips()).unwrap_or(0)
    }

    /// Hedge requests launched, summed over all proxies.
    pub fn hedged_gets(&self) -> u64 {
        self.proxies
            .iter()
            .map(|p| p.stats.hedged_gets.get())
            .sum()
    }

    /// Hedged reads won by a hedge (not the first replica), summed over
    /// all proxies.
    pub fn hedge_wins(&self) -> u64 {
        self.proxies
            .iter()
            .map(|p| p.stats.hedge_wins.get())
            .sum()
    }

    /// Cluster configuration.
    pub fn config(&self) -> &SwiftConfig {
        &self.config
    }

    /// The shared auth service (register users, issue tokens).
    pub fn auth(&self) -> &AuthService {
        &self.auth
    }

    /// The shared container service.
    pub fn containers(&self) -> &ContainerService {
        &self.containers
    }

    /// The object ring.
    pub fn ring(&self) -> Arc<RwLock<Ring>> {
        self.ring.clone()
    }

    /// Object server by node id.
    pub fn object_server(&self, node: u32) -> Option<Arc<ObjectServer>> {
        self.servers.get(&node).cloned()
    }

    /// All object servers.
    pub fn object_servers(&self) -> Vec<Arc<ObjectServer>> {
        let mut v: Vec<_> = self.servers.values().cloned().collect();
        v.sort_by_key(|s| s.id);
        v
    }

    /// All proxies.
    pub fn proxies(&self) -> &[Arc<ProxyServer>] {
        &self.proxies
    }

    /// Install an object-stage middleware pipeline on every object server.
    pub fn set_object_pipeline(&self, pipeline: Pipeline) {
        for s in self.servers.values() {
            s.set_pipeline(pipeline.clone());
        }
    }

    /// Install a proxy-stage middleware pipeline on every proxy.
    pub fn set_proxy_pipeline(&self, pipeline: Pipeline) {
        for p in &self.proxies {
            p.set_pipeline(pipeline.clone());
        }
    }

    /// Round-robin proxy selection (stands in for the testbed's HAProxy
    /// load balancer).
    pub fn next_proxy(&self) -> Arc<ProxyServer> {
        let i = self.next_proxy.fetch_add(1, Ordering::Relaxed) % self.proxies.len();
        self.proxies[i].clone()
    }

    /// Handle a raw request through the load balancer.
    pub fn handle(&self, req: Request) -> Result<Response> {
        self.next_proxy().handle(req)
    }

    /// Run a replication audit/repair pass.
    pub fn repair(&self) -> Result<RepairReport> {
        Replicator::new(self.ring.clone(), self.servers.clone(), self.containers.clone())
            .repair()
    }

    /// Mark an object server up/down (failure injection).
    pub fn set_server_down(&self, node: u32, down: bool) -> Result<()> {
        self.servers
            .get(&node)
            .map(|s| s.set_down(down))
            .ok_or_else(|| ScoopError::NotFound(format!("object server {node}")))
    }

    /// Total payload bytes stored across all devices (incl. replicas).
    pub fn bytes_stored(&self) -> u64 {
        self.servers
            .values()
            .flat_map(|s| {
                s.device_ids()
                    .into_iter()
                    .filter_map(|d| s.backend(d).ok())
                    .map(|b| b.bytes_used())
                    .collect::<Vec<_>>()
            })
            .sum()
    }

    /// Open an authenticated client session.
    pub fn client(self: &Arc<Self>, account: &str, user: &str, key: &str) -> Result<SwiftClient> {
        let token = if self.config.auth_enabled {
            Some(self.auth.issue_token(account, user, key)?)
        } else {
            None
        };
        Ok(SwiftClient::assemble(self.clone(), account, token))
    }

    /// Open an unauthenticated client (only valid when auth is disabled).
    pub fn anonymous_client(self: &Arc<Self>, account: &str) -> SwiftClient {
        SwiftClient::assemble(self.clone(), account, None)
    }
}

impl std::fmt::Debug for SwiftCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SwiftCluster")
            .field("proxies", &self.proxies.len())
            .field("object_servers", &self.servers.len())
            .field("replicas", &self.config.replicas)
            .finish()
    }
}

/// How a [`SwiftClient`] reaches the proxy tier.
#[derive(Clone)]
enum Transport {
    /// Direct in-process calls (the historical path; zero framing).
    InProcess,
    /// Real HTTP/1.1 frames over pooled loopback TCP connections.
    Tcp(Arc<HttpPool>),
}

/// A client session bound to an account.
#[derive(Clone)]
pub struct SwiftClient {
    /// Declared — and so dropped — before `cluster`: the last client may hold
    /// the last cluster handle, and dropping the cluster joins the TCP front
    /// end, whose workers only leave a keep-alive connection when the pool
    /// has closed it (or its idle timeout, seconds later, has run out).
    transport: Transport,
    cluster: Arc<SwiftCluster>,
    account: String,
    token: Option<String>,
    retry: RetryPolicy,
    retries: Arc<AtomicU64>,
    deadline: Arc<Mutex<Deadline>>,
    /// Trace ID stamped on every request (shared across clones).
    trace: Arc<Mutex<Option<String>>>,
    /// Registry mirror of `retries` (registered at assembly so a snapshot
    /// always carries the metric, even before the first retry).
    retries_global: telemetry::Counter,
}

/// Process-wide upload counter: tokens must be unique across every client
/// (two clients re-writing one object must never share a token, or the
/// second write would be mistaken for a replay and dropped).
static NEXT_UPLOAD_ID: AtomicU64 = AtomicU64::new(0);

impl SwiftClient {
    fn assemble(cluster: Arc<SwiftCluster>, account: &str, token: Option<String>) -> SwiftClient {
        // `SCOOP_TRANSPORT=tcp` flips every client onto the TCP data plane,
        // so the existing e2e suites run unmodified over real sockets. A
        // failed listener bind falls back to in-process rather than
        // panicking inside test setup.
        let transport = if std::env::var("SCOOP_TRANSPORT").map(|v| v == "tcp").unwrap_or(false) {
            match cluster.serve_net(NetOptions::default()) {
                Ok(h) => Transport::Tcp(HttpPool::new(h.addr(), PoolConfig::default())),
                Err(_) => Transport::InProcess,
            }
        } else {
            Transport::InProcess
        };
        SwiftClient {
            cluster,
            account: account.to_string(),
            token,
            retry: RetryPolicy::none(),
            retries: Arc::new(AtomicU64::new(0)),
            deadline: Arc::new(Mutex::new(Deadline::none())),
            trace: Arc::new(Mutex::new(None)),
            retries_global: telemetry::counter(names::CLIENT_RETRIES),
            transport,
        }
    }

    /// Builder: switch this client onto the TCP data plane with default
    /// server/pool options, starting the cluster's front end if needed.
    pub fn over_tcp(self) -> Result<SwiftClient> {
        self.over_tcp_with(NetOptions::default(), PoolConfig::default())
    }

    /// Builder: TCP transport with explicit server options and pool config.
    pub fn over_tcp_with(mut self, opts: NetOptions, cfg: PoolConfig) -> Result<SwiftClient> {
        let handle = self.cluster.serve_net(opts)?;
        self.transport = Transport::Tcp(HttpPool::new(handle.addr(), cfg));
        Ok(self)
    }

    /// True when requests ride real sockets.
    pub fn is_tcp(&self) -> bool {
        matches!(self.transport, Transport::Tcp(_))
    }

    /// The connection pool behind the TCP transport, for tests and reports.
    pub fn transport_pool(&self) -> Option<&Arc<HttpPool>> {
        match &self.transport {
            Transport::Tcp(pool) => Some(pool),
            Transport::InProcess => None,
        }
    }

    /// One request/response exchange over whichever transport is in force.
    fn dispatch(&self, req: Request) -> Result<Response> {
        match &self.transport {
            Transport::InProcess => self.cluster.handle(req),
            Transport::Tcp(pool) => pool.send(&req),
        }
    }

    /// The account this client operates on.
    pub fn account(&self) -> &str {
        &self.account
    }

    /// The cluster behind this client.
    pub fn cluster(&self) -> &Arc<SwiftCluster> {
        &self.cluster
    }

    /// Builder: re-dispatch retryably-failed requests under `policy` with
    /// exponential backoff + jitter. Retry covers the request/response
    /// exchange; errors surfacing mid-body-stream are the consumer's to
    /// handle (the connector resumes them with ranged GETs).
    pub fn with_retry(mut self, policy: RetryPolicy) -> SwiftClient {
        self.retry = policy;
        self
    }

    /// The retry policy in force.
    pub fn retry_policy(&self) -> &RetryPolicy {
        &self.retry
    }

    /// Requests re-dispatched after a retryable failure, over this client's
    /// lifetime (shared across clones).
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Set the time budget stamped on every subsequent request (shared
    /// across clones of this client). [`Deadline::none()`] clears it.
    pub fn set_deadline(&self, deadline: Deadline) {
        *self.deadline.lock() = deadline;
    }

    /// Set the trace ID stamped (as `x-scoop-trace`) on every subsequent
    /// request, shared across clones of this client. `None` clears it.
    pub fn set_trace(&self, trace: Option<String>) {
        *self.trace.lock() = trace;
    }

    /// The trace ID in force, if any.
    pub fn trace(&self) -> Option<String> {
        self.trace.lock().clone()
    }

    /// Send a request, attaching the auth token; retryable failures are
    /// re-dispatched per the client's [`RetryPolicy`]. The client's deadline
    /// (if set) is stamped on the request, bounds backoff sleeps, and stops
    /// re-dispatch once expired — the last real error surfaces, not a
    /// synthetic timeout.
    pub fn request(&self, mut req: Request) -> Result<Response> {
        if let Some(tok) = &self.token {
            req.headers.set(scoop_common::headers::AUTH_TOKEN, tok.clone());
        }
        let trace = self.trace.lock().clone();
        if let Some(t) = &trace {
            req.headers.set(scoop_common::headers::TRACE, t.clone());
        }
        let _span = telemetry::span(
            trace.as_deref(),
            telemetry::layers::CLIENT,
            format!("{:?} {}", req.method, req.path.ring_key()),
        );
        req.deadline = req.deadline.earliest(*self.deadline.lock());
        let deadline = req.deadline;
        deadline.check("client dispatch")?;
        let mut rng = scoop_common::rng::XorShift64::new(self.retry.seed);
        let mut attempt = 0u32;
        loop {
            match self.dispatch(req.clone()) {
                Ok(resp) => return Ok(resp),
                Err(e)
                    if e.is_retryable()
                        && attempt + 1 < self.retry.max_attempts
                        && !deadline.expired() =>
                {
                    std::thread::sleep(deadline.clamp_sleep(self.retry.backoff(attempt, &mut rng)));
                    attempt += 1;
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    self.retries_global.inc();
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Stamp auth token and trace on a raw (non-object) request's headers.
    fn raw_headers(&self) -> Headers {
        let mut h = Headers::new();
        if let Some(tok) = &self.token {
            h.set(scoop_common::headers::AUTH_TOKEN, tok.clone());
        }
        if let Some(t) = self.trace.lock().as_ref() {
            h.set(scoop_common::headers::TRACE, t.clone());
        }
        h
    }

    /// Snapshot the client's deadline. The guard is scoped to this frame,
    /// so callers can sleep or dispatch on sockets without holding
    /// `SwiftClient.deadline` across the blocking call.
    fn current_deadline(&self) -> Deadline {
        *self.deadline.lock()
    }

    /// One raw (non-object) exchange under the client's retry policy.
    /// Container creates and listings are idempotent, so re-dispatch after
    /// a retryable wire failure is always safe.
    fn raw_retrying(
        &self,
        pool: &Arc<HttpPool>,
        method: Method,
        target: &str,
        headers: Headers,
    ) -> Result<(u16, Headers, bytes::Bytes)> {
        let deadline = self.current_deadline();
        deadline.check("raw dispatch")?;
        let mut rng = scoop_common::rng::XorShift64::new(self.retry.seed);
        let mut attempt = 0u32;
        loop {
            match pool.send_raw(method, target, headers.clone(), deadline) {
                Ok(out) => return Ok(out),
                Err(e)
                    if e.is_retryable()
                        && attempt + 1 < self.retry.max_attempts
                        && !deadline.expired() =>
                {
                    std::thread::sleep(deadline.clamp_sleep(self.retry.backoff(attempt, &mut rng)));
                    attempt += 1;
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    self.retries_global.inc();
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Create a container.
    pub fn create_container(&self, container: &str) -> Result<()> {
        match &self.transport {
            Transport::InProcess => {
                self.cluster.containers.create_container(&self.account, container);
                Ok(())
            }
            Transport::Tcp(pool) => {
                let target = format!(
                    "/{}/{}",
                    wire::encode_segment(&self.account),
                    wire::encode_segment(container)
                );
                let (status, _, _) =
                    self.raw_retrying(pool, Method::Put, &target, self.raw_headers())?;
                if status == 201 {
                    Ok(())
                } else {
                    Err(ScoopError::Internal(format!(
                        "container create answered unexpected status {status}"
                    )))
                }
            }
        }
    }

    /// Store an object. Each upload carries a unique idempotency token, so a
    /// PUT re-dispatched by the retry loop after a lost ack cannot store (or
    /// count toward replica quorum) twice.
    pub fn put_object(&self, container: &str, object: &str, data: Bytes) -> Result<Response> {
        let path = ObjectPath::new(self.account.clone(), container, object)?;
        let token = format!("upload-{}", NEXT_UPLOAD_ID.fetch_add(1, Ordering::Relaxed));
        self.request(Request::put(path, data).with_header(UPLOAD_TOKEN_HEADER, token))
    }

    /// Fetch a whole object.
    pub fn get_object(&self, container: &str, object: &str) -> Result<Response> {
        let path = ObjectPath::new(self.account.clone(), container, object)?;
        self.request(Request::get(path))
    }

    /// Delete an object.
    pub fn delete_object(&self, container: &str, object: &str) -> Result<Response> {
        let path = ObjectPath::new(self.account.clone(), container, object)?;
        self.request(Request::delete(path))
    }

    /// `GET /info`: the telemetry snapshot served by whichever proxy the
    /// load balancer picks — the Swift recon/info analogue, no auth (the
    /// snapshot carries operational counters, not object data). On the TCP
    /// transport a wire failure degrades to `503` rather than erroring: the
    /// snapshot is best-effort operational data.
    pub fn info(&self) -> Response {
        match &self.transport {
            Transport::InProcess => self.cluster.next_proxy().info(),
            Transport::Tcp(pool) => {
                match pool.send_raw(Method::Get, "/info", self.raw_headers(), *self.deadline.lock())
                {
                    Ok((status, headers, body)) => {
                        wire::response_from_parts(status, headers, body)
                    }
                    Err(_) => Response::unavailable(),
                }
            }
        }
    }

    /// `GET /metrics`: the live Prometheus text rendering of the telemetry
    /// registry. In-process transports render the local snapshot directly;
    /// over TCP the request crosses the wire so the text reflects whichever
    /// proxy answered. Best-effort like [`SwiftClient::info`].
    pub fn metrics_text(&self) -> Result<String> {
        match &self.transport {
            Transport::InProcess => Ok(telemetry::snapshot().to_prometheus()),
            Transport::Tcp(pool) => {
                let (status, _, body) = pool.send_raw(
                    Method::Get,
                    "/metrics",
                    self.raw_headers(),
                    *self.deadline.lock(),
                )?;
                if status != 200 {
                    return Err(ScoopError::Internal(format!(
                        "/metrics answered unexpected status {status}"
                    )));
                }
                Ok(String::from_utf8_lossy(&body).into_owned())
            }
        }
    }

    /// `GET /trace/{id}`: the JSON span dump for one trace. Over TCP the
    /// spans come from the server's store; the caller's own client-side
    /// spans for the same trace live in the local store (`trace_spans`).
    pub fn trace_json(&self, trace: &str) -> Result<String> {
        match &self.transport {
            Transport::InProcess => Ok(telemetry::trace_to_json(trace)),
            Transport::Tcp(pool) => {
                let target = format!("/trace/{}", wire::encode_segment(trace));
                let (status, _, body) = pool.send_raw(
                    Method::Get,
                    &target,
                    self.raw_headers(),
                    *self.deadline.lock(),
                )?;
                if status != 200 {
                    return Err(ScoopError::Internal(format!(
                        "/trace answered unexpected status {status}"
                    )));
                }
                Ok(String::from_utf8_lossy(&body).into_owned())
            }
        }
    }

    /// `GET /events`: the wide-event (slow-query) ring as JSON.
    pub fn events_json(&self) -> Result<String> {
        match &self.transport {
            Transport::InProcess => Ok(telemetry::events_to_json(&telemetry::query_events())),
            Transport::Tcp(pool) => {
                let (status, _, body) = pool.send_raw(
                    Method::Get,
                    "/events",
                    self.raw_headers(),
                    *self.deadline.lock(),
                )?;
                if status != 200 {
                    return Err(ScoopError::Internal(format!(
                        "/events answered unexpected status {status}"
                    )));
                }
                Ok(String::from_utf8_lossy(&body).into_owned())
            }
        }
    }

    /// Object metadata.
    pub fn head_object(&self, container: &str, object: &str) -> Result<Response> {
        let path = ObjectPath::new(self.account.clone(), container, object)?;
        self.request(Request::head(path))
    }

    /// Container listing.
    pub fn list(&self, container: &str, prefix: Option<&str>) -> Result<Vec<ObjectRecord>> {
        match &self.transport {
            Transport::InProcess => {
                self.cluster.containers.list_objects(&self.account, container, prefix)
            }
            Transport::Tcp(pool) => {
                let target = format!(
                    "/{}/{}",
                    wire::encode_segment(&self.account),
                    wire::encode_segment(container)
                );
                let mut headers = self.raw_headers();
                if let Some(p) = prefix {
                    headers.set(scoop_common::headers::LIST_PREFIX, p.to_string());
                }
                let (_, _, body) = self.raw_retrying(pool, Method::Get, &target, headers)?;
                wire::decode_listing(&body)
            }
        }
    }

    /// Fetch several byte ranges of one object. Over TCP the batch is
    /// *pipelined*: every GET frame is written back-to-back on one pooled
    /// connection and the responses are read in order — one round trip of
    /// latency for the whole batch. In-process the ranges dispatch
    /// sequentially (there is no wire to amortize). Retryable wire failures
    /// re-dispatch the whole batch under the client's [`RetryPolicy`]
    /// (GETs are idempotent, so a replayed batch is safe).
    pub fn get_ranges(
        &self,
        container: &str,
        object: &str,
        ranges: &[ByteRange],
    ) -> Result<Vec<Response>> {
        let path = ObjectPath::new(self.account.clone(), container, object)?;
        match &self.transport {
            Transport::InProcess => ranges
                .iter()
                .map(|r| self.request(Request::get(path.clone()).with_range(*r)))
                .collect(),
            Transport::Tcp(pool) => {
                let deadline = self.current_deadline();
                deadline.check("pipelined dispatch")?;
                let trace = self.trace.lock().clone();
                let _span = telemetry::span(
                    trace.as_deref(),
                    telemetry::layers::CLIENT,
                    format!("pipelined GET x{} {}", ranges.len(), path.ring_key()),
                );
                let reqs: Vec<Request> = ranges
                    .iter()
                    .map(|r| {
                        let mut req =
                            Request::get(path.clone()).with_range(*r).with_deadline(deadline);
                        if let Some(tok) = &self.token {
                            req.headers.set(scoop_common::headers::AUTH_TOKEN, tok.clone());
                        }
                        if let Some(t) = &trace {
                            req.headers.set(scoop_common::headers::TRACE, t.clone());
                        }
                        req
                    })
                    .collect();
                let mut rng = scoop_common::rng::XorShift64::new(self.retry.seed);
                let mut attempt = 0u32;
                loop {
                    match pool.send_pipelined(&reqs) {
                        Ok(responses) => return Ok(responses),
                        Err(e)
                            if e.is_retryable()
                                && attempt + 1 < self.retry.max_attempts
                                && !deadline.expired() =>
                        {
                            std::thread::sleep(
                                deadline.clamp_sleep(self.retry.backoff(attempt, &mut rng)),
                            );
                            attempt += 1;
                            self.retries.fetch_add(1, Ordering::Relaxed);
                            self.retries_global.inc();
                        }
                        Err(e) => return Err(e),
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_cluster_end_to_end() {
        let cluster = SwiftCluster::new(SwiftConfig::default()).unwrap();
        let client = cluster.anonymous_client("AUTH_gp");
        client.create_container("meters").unwrap();
        client
            .put_object("meters", "a.csv", Bytes::from_static(b"x,y\n1,2\n"))
            .unwrap();
        let resp = client.get_object("meters", "a.csv").unwrap();
        assert_eq!(resp.read_body().unwrap(), "x,y\n1,2\n");
        assert_eq!(client.list("meters", None).unwrap().len(), 1);
        // 3 replicas stored.
        assert_eq!(cluster.bytes_stored(), 8 * 3);
        client.delete_object("meters", "a.csv").unwrap();
        assert_eq!(cluster.bytes_stored(), 0);
    }

    #[test]
    fn authenticated_flow() {
        let cluster = SwiftCluster::new(SwiftConfig {
            auth_enabled: true,
            ..Default::default()
        })
        .unwrap();
        cluster.auth().register_user("AUTH_gp", "analyst", "pw");
        assert!(cluster.client("AUTH_gp", "analyst", "bad").is_err());
        let client = cluster.client("AUTH_gp", "analyst", "pw").unwrap();
        client.create_container("c").unwrap();
        client.put_object("c", "o", Bytes::from_static(b"d")).unwrap();
        assert_eq!(
            client.get_object("c", "o").unwrap().read_body().unwrap(),
            "d"
        );
        // Anonymous client on the same cluster is rejected.
        let anon = cluster.anonymous_client("AUTH_gp");
        assert!(anon.get_object("c", "o").is_err());
    }

    #[test]
    fn osic_shape() {
        let cluster = SwiftCluster::new(SwiftConfig {
            part_power: 8, // keep test fast; shape fields below still OSIC
            ..SwiftConfig::osic_testbed()
        })
        .unwrap();
        assert_eq!(cluster.proxies().len(), 6);
        assert_eq!(cluster.object_servers().len(), 29);
        assert_eq!(cluster.ring().read().devices().len(), 290);
    }

    #[test]
    fn survives_node_failure_and_repairs() {
        let cluster = SwiftCluster::new(SwiftConfig::default()).unwrap();
        let client = cluster.anonymous_client("a");
        client.create_container("c").unwrap();
        for i in 0..25 {
            client
                .put_object("c", &format!("o{i}"), Bytes::from(vec![b'z'; 100]))
                .unwrap();
        }
        cluster.set_server_down(1, true).unwrap();
        // All objects remain readable through surviving replicas.
        for i in 0..25 {
            assert!(client.get_object("c", &format!("o{i}")).is_ok(), "o{i}");
        }
        // Writes during the outage under-replicate; repair fixes them.
        for i in 25..40 {
            client
                .put_object("c", &format!("o{i}"), Bytes::from(vec![b'w'; 100]))
                .unwrap();
        }
        cluster.set_server_down(1, false).unwrap();
        let report = cluster.repair().unwrap();
        assert_eq!(report.objects_lost, 0);
        let clean = cluster.repair().unwrap();
        assert_eq!(clean.replicas_restored, 0);
        assert_eq!(cluster.bytes_stored(), 40 * 100 * 3);
    }

    #[test]
    fn get_fails_over_past_replicas_that_missed_the_put() {
        // Regression: a PUT that reached write quorum while one node was
        // down leaves that node without the object. Before repair runs, a
        // GET probing the stale replica first used to abort with NotFound
        // instead of failing over to the replicas that hold the object.
        let cluster = SwiftCluster::new(SwiftConfig::default()).unwrap();
        let client = cluster.anonymous_client("a");
        client.create_container("c").unwrap();
        for node in 0..4 {
            cluster.set_server_down(node, true).unwrap();
            client
                .put_object("c", &format!("o{node}"), Bytes::from(vec![b'a' + node as u8; 64]))
                .unwrap();
            cluster.set_server_down(node, false).unwrap();
        }
        // No repair pass: every object is missing exactly one replica.
        for node in 0..4 {
            let body = client
                .get_object("c", &format!("o{node}"))
                .unwrap()
                .read_body()
                .unwrap();
            assert_eq!(body, Bytes::from(vec![b'a' + node as u8; 64]), "o{node}");
        }
        // A genuinely absent object still 404s after probing all replicas.
        let err = client.get_object("c", "ghost").unwrap_err();
        assert_eq!(err.kind(), "not_found");
    }

    #[test]
    fn round_robin_spreads_over_proxies() {
        let cluster = SwiftCluster::new(SwiftConfig::default()).unwrap();
        let a = cluster.next_proxy().id;
        let b = cluster.next_proxy().id;
        assert_ne!(a, b);
    }

    #[test]
    fn breaker_skips_downed_node_then_readmits_it() {
        let cluster = SwiftCluster::new(SwiftConfig {
            breaker: Some(BreakerConfig {
                failure_threshold: 2,
                open_for: Duration::from_millis(20),
            }),
            ..Default::default()
        })
        .unwrap();
        let client = cluster.anonymous_client("a");
        client.create_container("c").unwrap();
        for i in 0..20 {
            client
                .put_object("c", &format!("o{i}"), Bytes::from(vec![b'x'; 32]))
                .unwrap();
        }
        cluster.set_server_down(0, true).unwrap();
        // Repeated reads train the breaker on node 0; once open, replicas
        // there are skipped without being probed — reads still succeed.
        for _ in 0..3 {
            for i in 0..20 {
                assert!(client.get_object("c", &format!("o{i}")).is_ok(), "o{i}");
            }
        }
        assert!(cluster.breaker_skips() > 0, "breaker never skipped node 0");
        // Recovery: after `open_for`, the half-open probe re-admits node 0
        // and successful reads close the breaker again.
        cluster.set_server_down(0, false).unwrap();
        std::thread::sleep(Duration::from_millis(25));
        for i in 0..20 {
            assert!(client.get_object("c", &format!("o{i}")).is_ok(), "o{i}");
        }
        let health = cluster.node_health().unwrap();
        assert!(!health.is_open(0, std::time::Instant::now()));
    }

    #[test]
    fn hedged_get_races_past_a_slow_first_replica() {
        // Find which node serves the first replica of the object, then make
        // only that node slow: the hedge should win with a fast replica.
        let probe = SwiftCluster::new(SwiftConfig::default()).unwrap();
        let key = ObjectPath::new("a", "c", "o.csv").unwrap().ring_key();
        let first_dev = probe.ring().read().lookup(&key)[0];
        let slow_node = probe.ring().read().device(first_dev).node;

        let cluster = SwiftCluster::new(SwiftConfig {
            fault_plan: Some(
                FaultPlan::quiet(7).with_slow_node(slow_node, Duration::from_millis(40)),
            ),
            hedge_after: Some(Duration::from_millis(2)),
            ..Default::default()
        })
        .unwrap();
        let client = cluster.anonymous_client("a");
        client.create_container("c").unwrap();
        client.put_object("c", "o.csv", Bytes::from_static(b"hedged")).unwrap();
        let body = client.get_object("c", "o.csv").unwrap().read_body().unwrap();
        assert_eq!(body, "hedged");
        assert!(cluster.hedged_gets() > 0, "no hedge was launched");
        assert!(cluster.hedge_wins() > 0, "hedge never beat the slow replica");
    }

    #[test]
    fn disk_backed_cluster_roundtrip() {
        let root =
            std::env::temp_dir().join(format!("scoop-swift-disk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cluster = SwiftCluster::new(SwiftConfig {
            backend: BackendKind::Disk(root.clone()),
            object_servers: 3,
            devices_per_server: 1,
            part_power: 4,
            ..Default::default()
        })
        .unwrap();
        let client = cluster.anonymous_client("a");
        client.create_container("c").unwrap();
        client
            .put_object("c", "o.csv", Bytes::from_static(b"persisted"))
            .unwrap();
        assert_eq!(
            client.get_object("c", "o.csv").unwrap().read_body().unwrap(),
            "persisted"
        );
        std::fs::remove_dir_all(&root).unwrap();
    }
}
