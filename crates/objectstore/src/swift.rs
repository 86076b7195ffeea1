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
use crate::request::{Headers, Method, Request, Response};
use crate::ring::{DeviceId, Ring, RingBuilder};
use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use scoop_common::telemetry::{self, names, ScopedCounter};
use scoop_common::{headers, stream, Deadline, Result, RetryPolicy, ScoopError};
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
    router: Arc<Router>,
    auth: Arc<AuthService>,
    fault_injector: Option<Arc<FaultInjector>>,
    health: Option<Arc<NodeHealth>>,
    /// Lazily-started TCP front ends, one per option set, each shared by
    /// every TCP-transport client that asked for its options; shut down
    /// when the cluster drops.
    net: Mutex<HashMap<NetOptions, Arc<NetHandle>>>,
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
            router: Arc::new(Router { proxies, containers, turn: AtomicUsize::new(0) }),
            auth,
            fault_injector,
            health,
            net: Mutex::new(HashMap::new()),
        }))
    }

    /// Start (or fetch) the cluster's TCP front end for `opts`. Idempotent
    /// per option set: the first call with given options binds a loopback
    /// listener in front of the proxies; later calls with the same options
    /// return the same handle, and different options get their own.
    pub fn serve_net(&self, opts: NetOptions) -> Result<Arc<NetHandle>> {
        // Double-checked so `NetServer::serve` (binds a listener, spawns
        // workers — it blocks) never runs while `net` is held. Two racing
        // first calls may both bind; the loser's handle drops and its
        // listener shuts down, which only costs a discarded ephemeral
        // port.
        if let Some(h) = self.net.lock().get(&opts) {
            return Ok(h.clone());
        }
        let handle = Arc::new(NetServer::serve(
            self.router.clone(),
            self.fault_injector.clone(),
            opts.clone(),
        )?);
        Ok(self.net.lock().entry(opts).or_insert(handle).clone())
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
        self.router
            .proxies
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
        self.router
            .proxies
            .iter()
            .map(|p| p.stats.hedged_gets.get())
            .sum()
    }

    /// Hedged reads won by a hedge (not the first replica), summed over
    /// all proxies.
    pub fn hedge_wins(&self) -> u64 {
        self.router
            .proxies
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
        &self.router.containers
    }

    /// The object ring.
    pub fn ring(&self) -> Arc<RwLock<Ring>> {
        self.ring.clone()
    }

    /// All object servers.
    pub fn object_servers(&self) -> Vec<Arc<ObjectServer>> {
        let mut v: Vec<_> = self.servers.values().cloned().collect();
        v.sort_by_key(|s| s.id);
        v
    }

    /// All proxies.
    pub fn proxies(&self) -> &[Arc<ProxyServer>] {
        &self.router.proxies
    }

    /// Install an object-stage middleware pipeline on every object server.
    pub fn set_object_pipeline(&self, pipeline: Pipeline) {
        for s in self.servers.values() {
            s.set_pipeline(pipeline.clone());
        }
    }

    /// Install a proxy-stage middleware pipeline on every proxy.
    pub fn set_proxy_pipeline(&self, pipeline: Pipeline) {
        for p in &self.router.proxies {
            p.set_pipeline(pipeline.clone());
        }
    }

    /// Round-robin proxy selection (stands in for the testbed's HAProxy
    /// load balancer).
    pub fn next_proxy(&self) -> Result<Arc<ProxyServer>> {
        self.router.next_proxy().cloned()
    }

    /// Handle a raw request through the load balancer.
    pub fn handle(&self, req: Request) -> Result<Response> {
        self.router.next_proxy()?.handle(req)
    }

    /// Run a replication audit/repair pass.
    pub fn repair(&self) -> Result<RepairReport> {
        Replicator::new(self.ring.clone(), self.servers.clone(), self.router.containers.clone())
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
            .field("proxies", &self.router.proxies.len())
            .field("object_servers", &self.servers.len())
            .field("replicas", &self.config.replicas)
            .finish()
    }
}

/// The cluster's front door: the one place that knows how each request
/// target is served. In-process clients and the TCP server's workers both
/// route through it, behind the same round-robin proxy choice.
pub(crate) struct Router {
    proxies: Vec<Arc<ProxyServer>>,
    containers: Arc<ContainerService>,
    turn: AtomicUsize,
}

impl Router {
    fn next_proxy(&self) -> Result<&Arc<ProxyServer>> {
        let turn = self.turn.fetch_add(1, Ordering::Relaxed);
        turn.checked_rem(self.proxies.len())
            .and_then(|i| self.proxies.get(i))
            .ok_or_else(|| ScoopError::Internal("cluster has no proxies".into()))
    }

    /// Serve one request, whatever it addresses: an object goes to the next
    /// proxy, a container is created or listed, an observability endpoint
    /// renders the live telemetry (read-only: anything but GET is refused).
    pub(crate) fn route(
        &self,
        method: Method,
        target: wire::Target,
        mut headers_map: Headers,
        body: Option<Bytes>,
        deadline: Deadline,
    ) -> Result<Response> {
        use wire::Target;
        let text = |body: String, content_type: &str| {
            let body = stream::once(Bytes::from(body));
            Ok(Response::ok(body).with_header("content-type", content_type))
        };
        match target {
            Target::Object(path) => self.next_proxy()?.handle(Request {
                method,
                path,
                headers: headers_map,
                body,
                deadline,
            }),
            Target::Container { account, container } => match method {
                Method::Put => {
                    self.containers.create_container(&account, &container);
                    Ok(Response::created())
                }
                Method::Get => {
                    let prefix = headers_map.remove(headers::LIST_PREFIX);
                    let records =
                        self.containers.list_objects(&account, &container, prefix.as_deref())?;
                    Ok(Response::ok(stream::once(Bytes::from(wire::encode_listing(&records)))))
                }
                _ => Err(ScoopError::InvalidRequest(format!(
                    "unsupported container method {}",
                    wire::method_name(method)
                ))),
            },
            endpoint if method != Method::Get => Err(ScoopError::InvalidRequest(format!(
                "{} is GET-only",
                wire::encode_target(&endpoint)
            ))),
            Target::Info => Ok(self.next_proxy()?.info()),
            Target::Metrics => {
                text(telemetry::snapshot().to_prometheus(), "text/plain; version=0.0.4")
            }
            Target::Trace(id) => text(telemetry::trace_to_json(&id), "application/json"),
            Target::Events => {
                text(telemetry::events_to_json(&telemetry::query_events()), "application/json")
            }
        }
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
    /// Re-dispatches, shared across clones; its registry metric is taken
    /// at assembly, so a snapshot carries it before the first retry.
    retries: Arc<ScopedCounter>,
    deadline: Arc<Mutex<Deadline>>,
    /// Trace ID stamped on every request (shared across clones).
    trace: Arc<Mutex<Option<String>>>,
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
        let transport = std::env::var("SCOOP_TRANSPORT")
            .is_ok_and(|v| v == "tcp")
            .then(|| cluster.serve_net(NetOptions::default()).ok())
            .flatten()
            .map_or(Transport::InProcess, |h| {
                Transport::Tcp(HttpPool::new(h.addr(), PoolConfig::default()))
            });
        SwiftClient {
            cluster,
            account: account.to_string(),
            token,
            retry: RetryPolicy::none(),
            retries: Arc::new(ScopedCounter::new(names::CLIENT_RETRIES)),
            deadline: Arc::new(Mutex::new(Deadline::none())),
            trace: Arc::new(Mutex::new(None)),
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
            _ => None,
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
        self.retries.get()
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
    pub fn request(&self, req: Request) -> Result<Response> {
        let target = wire::Target::Object(req.path);
        self.exchange(req.method, &target, req.headers, req.body, req.deadline, Ok)
    }

    /// Snapshot the client's deadline. The guard is scoped to this frame,
    /// so the exchange sleeps and dispatches on sockets without holding
    /// `SwiftClient.deadline` across the blocking call.
    fn current_deadline(&self) -> Deadline {
        *self.deadline.lock()
    }

    /// The one way out of the client: every operation — object, container,
    /// observability endpoint — is a method on a target, stamped with the
    /// auth token, the trace and the tighter of its own and the client's
    /// deadline, wrapped in one client span, retried under the client's
    /// policy, and only then handed to whichever transport is in force.
    /// `accept` takes each answer inside the retry loop, so a caller that
    /// reads a body whole has a body cut mid-stream re-dispatched like a
    /// failed exchange.
    fn exchange<T>(
        &self,
        method: Method,
        target: &wire::Target,
        mut headers_map: Headers,
        body: Option<Bytes>,
        deadline: Deadline,
        accept: impl Fn(Response) -> Result<T>,
    ) -> Result<T> {
        if let Some(tok) = &self.token {
            headers_map.set(headers::AUTH_TOKEN, tok.clone());
        }
        let trace = self.trace.lock().clone();
        if let Some(t) = &trace {
            headers_map.set(headers::TRACE, t.clone());
        }
        let _span = telemetry::span(
            trace.as_deref(),
            telemetry::layers::CLIENT,
            match target {
                wire::Target::Object(path) => format!("{method:?} {}", path.ring_key()),
                other => format!("{method:?} {}", wire::encode_target(other)),
            },
        );
        let deadline = deadline.earliest(self.current_deadline());
        let mut attempts = 0u32;
        let dispatch = || {
            if attempts > 0 {
                self.retries.inc();
            }
            attempts += 1;
            let resp = match &self.transport {
                Transport::InProcess => self.cluster.router.route(
                    method,
                    target.clone(),
                    headers_map.clone(),
                    body.clone(),
                    deadline,
                ),
                Transport::Tcp(pool) => {
                    pool.send(method, target, &headers_map, body.as_ref(), deadline)
                }
            }?;
            accept(resp)
        };
        self.retry.run_with_deadline(deadline, "client dispatch", dispatch).map(|(answer, _)| answer)
    }

    /// A bodyless exchange on a non-object target, its answer read whole;
    /// anything but the method's success status (`201` for PUT, else
    /// `200`) is an error. Every such exchange is idempotent, so a body cut
    /// mid-stream is re-dispatched.
    fn control(&self, method: Method, target: wire::Target, headers_map: Headers) -> Result<Bytes> {
        let expected = if method == Method::Put { 201 } else { 200 };
        self.exchange(method, &target, headers_map, None, Deadline::none(), |resp| {
            if resp.status != expected {
                return Err(ScoopError::Internal(format!(
                    "{method:?} {} answered unexpected status {}",
                    wire::encode_target(&target),
                    resp.status
                )));
            }
            resp.read_body()
        })
    }

    fn container(&self, container: &str) -> wire::Target {
        wire::Target::Container { account: self.account.clone(), container: container.to_string() }
    }

    /// Create a container.
    pub fn create_container(&self, container: &str) -> Result<()> {
        self.control(Method::Put, self.container(container), Headers::new()).map(drop)
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

    /// Object metadata.
    pub fn head_object(&self, container: &str, object: &str) -> Result<Response> {
        let path = ObjectPath::new(self.account.clone(), container, object)?;
        self.request(Request::head(path))
    }

    /// Container listing.
    pub fn list(&self, container: &str, prefix: Option<&str>) -> Result<Vec<ObjectRecord>> {
        let mut headers_map = Headers::new();
        if let Some(p) = prefix {
            headers_map.set(headers::LIST_PREFIX, p.to_string());
        }
        wire::decode_listing(&self.control(Method::Get, self.container(container), headers_map)?)
    }

    /// `GET /info`: the telemetry snapshot served by whichever proxy the
    /// load balancer picks — the Swift recon/info analogue, no auth (the
    /// snapshot carries operational counters, not object data). A failed
    /// exchange degrades to `503` rather than erroring: the snapshot is
    /// best-effort operational data.
    pub fn info(&self) -> Response {
        self.exchange(Method::Get, &wire::Target::Info, Headers::new(), None, Deadline::none(), Ok)
            .unwrap_or_else(|_| Response::unavailable())
    }

    /// `GET /metrics`: the live Prometheus text rendering of the telemetry
    /// registry of whichever process answered.
    pub fn metrics_text(&self) -> Result<String> {
        self.endpoint_text(wire::Target::Metrics)
    }

    /// `GET /trace/{id}`: the JSON span dump for one trace. Over TCP the
    /// spans come from the server's store; the caller's own client-side
    /// spans for the same trace live in the local store (`trace_spans`).
    pub fn trace_json(&self, trace: &str) -> Result<String> {
        self.endpoint_text(wire::Target::Trace(trace.to_string()))
    }

    /// `GET /events`: the wide-event (slow-query) ring as JSON.
    pub fn events_json(&self) -> Result<String> {
        self.endpoint_text(wire::Target::Events)
    }

    fn endpoint_text(&self, target: wire::Target) -> Result<String> {
        let body = self.control(Method::Get, target, Headers::new())?;
        Ok(String::from_utf8_lossy(&body).into_owned())
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
        let a = cluster.next_proxy().unwrap().id;
        let b = cluster.next_proxy().unwrap().id;
        assert_ne!(a, b);
    }

    #[test]
    fn observability_endpoints_are_get_only_for_every_transport() {
        // Both transports route here, so this is the one place to check.
        let cluster = SwiftCluster::new(SwiftConfig::default()).unwrap();
        let endpoints = [
            wire::Target::Info,
            wire::Target::Metrics,
            wire::Target::Trace("t1".into()),
            wire::Target::Events,
        ];
        for target in endpoints {
            for method in [Method::Put, Method::Post, Method::Delete, Method::Head] {
                let err = cluster
                    .router
                    .route(method, target.clone(), Headers::new(), None, Deadline::none())
                    .err()
                    .unwrap_or_else(|| panic!("{method:?} {target:?} was served"));
                assert_eq!(err.kind(), "invalid_request", "{method:?} {target:?}: {err}");
            }
            let resp = cluster
                .router
                .route(Method::Get, target, Headers::new(), None, Deadline::none())
                .unwrap();
            assert_eq!(resp.status, 200);
        }
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
