//! Deterministic fault injection for the storage tier.
//!
//! The chaos harness wraps every device backend in a [`ChaosBackend`] that
//! consults a shared [`FaultInjector`] before each operation. The injector
//! samples a seeded PRNG ([`scoop_common::rng::XorShift64`]), so a run with a
//! fixed [`FaultPlan`] replays the exact same fault sequence — a failing
//! chaos test reproduces byte-for-byte from its seed.
//!
//! Fault classes (Section "Fault model & retry semantics" in DESIGN.md):
//!
//! * **transient errors** — an operation fails once with a retryable
//!   [`ScoopError::Io`], like a dropped connection;
//! * **truncated bodies** — a read returns only a prefix of the payload while
//!   upstream headers still advertise the full length (detected by
//!   `scoop_common::stream::enforce_length`);
//! * **stalled reads** — a read blocks briefly before completing, modelling a
//!   slow disk or an overloaded server;
//! * **down windows** — a node rejects every operation while the injector's
//!   logical clock (a global op counter) is inside a configured window,
//!   modelling a reboot;
//! * **slow nodes** — every read served by a configured node is delayed by a
//!   fixed latency skew (the node still answers correctly), modelling a
//!   degraded disk or an overloaded server. This is the tail-latency class
//!   the proxy's hedged GETs and circuit breaker are built to absorb.
//!
//! Probabilistic faults respect `max_consecutive`: after that many
//! back-to-back injections the next operation is forced through cleanly, so
//! any retry budget larger than the cap is guaranteed to make progress.

use crate::backend::{ObjectMeta, StorageBackend, StoredObject};
use bytes::Bytes;
use parking_lot::Mutex;
use scoop_common::rng::XorShift64;
use scoop_common::telemetry::{names, ScopedCounter};
use scoop_common::{Result, ScoopError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A window of the injector's logical clock during which one node is down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DownWindow {
    /// Node whose backends reject operations.
    pub node: u32,
    /// First op count (inclusive) of the outage.
    pub from_op: u64,
    /// Last op count (exclusive) of the outage.
    pub to_op: u64,
}

/// A node whose reads are uniformly delayed by a latency skew.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowNode {
    /// Node whose reads are delayed.
    pub node: u32,
    /// Added latency per read on that node.
    pub delay: Duration,
}

/// Wire-level fault classes injected at the socket boundary by the TCP
/// data plane (`crate::net`). All rates default to zero, so in-process
/// clusters and plans written before the net plane existed are unaffected.
///
/// * **RST mid-response** — the server aborts the connection after writing
///   a prefix of the response frame;
/// * **partial write then stall** — a response prefix is written, then the
///   connection goes silent until the client's read timeout fires;
/// * **slowloris** — request bytes arrive at the server one at a time with
///   a delay in between, exercising the server's header-time guard;
/// * **garbage frames** — response bytes are corrupted so the client-side
///   decoder rejects the frame;
/// * **half-close** — the server shuts down its write side after reading
///   the request, so the client sees EOF where a response should start.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WireFaults {
    /// Probability the connection is aborted mid-response.
    pub rst_rate: f64,
    /// Probability a response is cut to a prefix followed by a stall.
    pub partial_rate: f64,
    /// How long a partial write stalls before the connection dies.
    pub partial_stall: Duration,
    /// Probability the server reads this request one byte at a time.
    pub slowloris_rate: f64,
    /// Per-byte delay of a slowloris read.
    pub slowloris_delay: Duration,
    /// Probability the response frame is corrupted.
    pub garbage_rate: f64,
    /// Probability the write side is closed before the response.
    pub half_close_rate: f64,
}

impl WireFaults {
    /// True when at least one wire fault class can fire.
    pub fn any(&self) -> bool {
        self.rst_rate > 0.0
            || self.partial_rate > 0.0
            || self.slowloris_rate > 0.0
            || self.garbage_rate > 0.0
            || self.half_close_rate > 0.0
    }
}

/// What faults to inject, with what probability, from what seed.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Master seed; the injector derives its jitter stream from it.
    pub seed: u64,
    /// Probability that any backend operation fails with a transient error.
    pub error_rate: f64,
    /// Probability that a read returns a truncated body.
    pub truncate_rate: f64,
    /// Probability that a read stalls for [`FaultPlan::stall`] first.
    pub stall_rate: f64,
    /// How long a stalled read blocks.
    pub stall: Duration,
    /// Cap on back-to-back probabilistic faults; keep it strictly below the
    /// retry budget (`RetryPolicy::max_attempts`) or retries can be starved.
    pub max_consecutive: u32,
    /// Scheduled per-node outages on the op-counter clock.
    pub down_windows: Vec<DownWindow>,
    /// Nodes whose every read is delayed by a fixed latency skew.
    pub slow_nodes: Vec<SlowNode>,
    /// Wire-level fault classes applied by the TCP data plane.
    pub wire: WireFaults,
}

impl FaultPlan {
    /// A plan that injects nothing (useful as a builder base).
    pub fn quiet(seed: u64) -> Self {
        FaultPlan {
            seed,
            error_rate: 0.0,
            truncate_rate: 0.0,
            stall_rate: 0.0,
            stall: Duration::from_millis(1),
            max_consecutive: 2,
            down_windows: Vec::new(),
            slow_nodes: Vec::new(),
            wire: WireFaults::default(),
        }
    }

    /// Preset: transient I/O errors on ~1 in 4 operations.
    pub fn transient_errors(seed: u64) -> Self {
        FaultPlan { error_rate: 0.25, ..FaultPlan::quiet(seed) }
    }

    /// Preset: truncated read bodies on ~1 in 4 reads.
    pub fn truncated_bodies(seed: u64) -> Self {
        FaultPlan { truncate_rate: 0.25, ..FaultPlan::quiet(seed) }
    }

    /// Preset: stalled reads on ~1 in 4 reads.
    pub fn stalled_reads(seed: u64) -> Self {
        FaultPlan { stall_rate: 0.25, ..FaultPlan::quiet(seed) }
    }

    /// Builder: set the transient-error rate.
    pub fn with_error_rate(mut self, rate: f64) -> Self {
        self.error_rate = rate;
        self
    }

    /// Builder: set the truncation rate.
    pub fn with_truncate_rate(mut self, rate: f64) -> Self {
        self.truncate_rate = rate;
        self
    }

    /// Builder: set the stall rate and duration.
    pub fn with_stalls(mut self, rate: f64, stall: Duration) -> Self {
        self.stall_rate = rate;
        self.stall = stall;
        self
    }

    /// Builder: add a per-node down window on the op-counter clock.
    pub fn with_down_window(mut self, node: u32, from_op: u64, to_op: u64) -> Self {
        self.down_windows.push(DownWindow { node, from_op, to_op });
        self
    }

    /// Builder: delay every read served by `node` by `delay`.
    pub fn with_slow_node(mut self, node: u32, delay: Duration) -> Self {
        self.slow_nodes.push(SlowNode { node, delay });
        self
    }

    /// Builder: abort connections mid-response with probability `rate`.
    pub fn with_wire_rst(mut self, rate: f64) -> Self {
        self.wire.rst_rate = rate;
        self
    }

    /// Builder: cut responses to a prefix + `stall` silence with
    /// probability `rate`.
    pub fn with_wire_partial(mut self, rate: f64, stall: Duration) -> Self {
        self.wire.partial_rate = rate;
        self.wire.partial_stall = stall;
        self
    }

    /// Builder: dribble request reads one byte per `delay` with
    /// probability `rate`.
    pub fn with_wire_slowloris(mut self, rate: f64, delay: Duration) -> Self {
        self.wire.slowloris_rate = rate;
        self.wire.slowloris_delay = delay;
        self
    }

    /// Builder: corrupt response frames with probability `rate`.
    pub fn with_wire_garbage(mut self, rate: f64) -> Self {
        self.wire.garbage_rate = rate;
        self
    }

    /// Builder: half-close connections before the response with
    /// probability `rate`.
    pub fn with_wire_half_close(mut self, rate: f64) -> Self {
        self.wire.half_close_rate = rate;
        self
    }
}

/// Monotonic counters of injected faults, for assertions and reporting.
#[derive(Debug, Default)]
pub struct FaultStats {
    /// Transient errors injected.
    pub errors: AtomicU64,
    /// Read bodies truncated.
    pub truncations: AtomicU64,
    /// Reads stalled.
    pub stalls: AtomicU64,
    /// Operations rejected inside a down window.
    pub down_rejections: AtomicU64,
    /// Reads delayed by the slow-node latency skew.
    pub slow_node_delays: AtomicU64,
    /// Operations that passed through unharmed.
    pub clean_ops: AtomicU64,
    /// Wire faults by class; present only when the plan injects any, so a
    /// storage-only plan registers no wire metric.
    pub wire: Option<WireFaultStats>,
}

/// Injected wire faults by class, one [`ScopedCounter`] each: the
/// injector's count and its `scoop_net_wire_faults_*_total` registry metric
/// move in the same call.
#[derive(Debug)]
pub struct WireFaultStats {
    /// Connections aborted mid-response.
    pub rsts: ScopedCounter,
    /// Responses cut to a prefix followed by a stall.
    pub partials: ScopedCounter,
    /// Requests read one byte at a time.
    pub slowloris: ScopedCounter,
    /// Response frames corrupted.
    pub garbage: ScopedCounter,
    /// Connections half-closed before the response.
    pub half_closes: ScopedCounter,
}

impl Default for WireFaultStats {
    fn default() -> Self {
        WireFaultStats {
            rsts: ScopedCounter::new(names::NET_WIRE_FAULTS_RST),
            partials: ScopedCounter::new(names::NET_WIRE_FAULTS_PARTIAL),
            slowloris: ScopedCounter::new(names::NET_WIRE_FAULTS_SLOWLORIS),
            garbage: ScopedCounter::new(names::NET_WIRE_FAULTS_GARBAGE),
            half_closes: ScopedCounter::new(names::NET_WIRE_FAULTS_HALF_CLOSE),
        }
    }
}

/// Point-in-time copy of [`FaultStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStatsSnapshot {
    /// Transient errors injected.
    pub errors: u64,
    /// Read bodies truncated.
    pub truncations: u64,
    /// Reads stalled.
    pub stalls: u64,
    /// Operations rejected inside a down window.
    pub down_rejections: u64,
    /// Reads delayed by the slow-node latency skew.
    pub slow_node_delays: u64,
    /// Operations that passed through unharmed.
    pub clean_ops: u64,
    /// Connections aborted mid-response (wire).
    pub wire_rsts: u64,
    /// Responses cut to a prefix followed by a stall (wire).
    pub wire_partials: u64,
    /// Requests read one byte at a time (wire).
    pub wire_slowloris: u64,
    /// Response frames corrupted (wire).
    pub wire_garbage: u64,
    /// Connections half-closed before the response (wire).
    pub wire_half_closes: u64,
}

impl FaultStatsSnapshot {
    /// Total faults of every class.
    pub fn total_faults(&self) -> u64 {
        self.errors + self.truncations + self.stalls + self.down_rejections
            + self.slow_node_delays + self.total_wire_faults()
    }

    /// Total wire-level faults across every class.
    pub fn total_wire_faults(&self) -> u64 {
        self.wire_rsts + self.wire_partials + self.wire_slowloris + self.wire_garbage
            + self.wire_half_closes
    }
}

/// What the injector decided for one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    None,
    TransientError,
    Truncate,
    Stall,
    Down,
    SlowNode,
}

/// What the injector decided for one wire-level exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFault {
    /// Serve the exchange cleanly.
    None,
    /// Abort the connection after a prefix of the response.
    Rst,
    /// Write a response prefix, then stall until the peer gives up.
    Partial,
    /// Read the request one byte at a time with a delay per byte.
    Slowloris,
    /// Corrupt the response frame.
    Garbage,
    /// Close the write side before the response.
    HalfClose,
}

/// Shared fault decision engine: one per cluster, consulted by every
/// [`ChaosBackend`].
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: Mutex<XorShift64>,
    ops: AtomicU64,
    consecutive: Mutex<u32>,
    /// Wire faults track their own consecutive run: backend ops interleave
    /// with exchanges (a clean backend read would reset a shared counter
    /// mid-run), and the transport retry's progress guarantee — "after
    /// `max_consecutive` wire faults the next exchange is clean" — must
    /// hold regardless of what the storage layer is doing.
    wire_consecutive: Mutex<u32>,
    stats: FaultStats,
}

impl FaultInjector {
    /// Build an injector from a plan.
    pub fn new(plan: FaultPlan) -> Arc<FaultInjector> {
        let rng = XorShift64::new(scoop_common::rng::derive_seed(plan.seed, "fault-injector"));
        let stats = FaultStats {
            wire: plan.wire.any().then(WireFaultStats::default),
            ..FaultStats::default()
        };
        Arc::new(FaultInjector {
            plan,
            rng: Mutex::new(rng),
            ops: AtomicU64::new(0),
            consecutive: Mutex::new(0),
            wire_consecutive: Mutex::new(0),
            stats,
        })
    }

    /// The plan this injector runs.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Counters snapshot.
    pub fn stats(&self) -> FaultStatsSnapshot {
        let wire = |class: fn(&WireFaultStats) -> &ScopedCounter| {
            self.stats.wire.as_ref().map_or(0, |w| class(w).get())
        };
        FaultStatsSnapshot {
            errors: self.stats.errors.load(Ordering::Relaxed),
            truncations: self.stats.truncations.load(Ordering::Relaxed),
            stalls: self.stats.stalls.load(Ordering::Relaxed),
            down_rejections: self.stats.down_rejections.load(Ordering::Relaxed),
            slow_node_delays: self.stats.slow_node_delays.load(Ordering::Relaxed),
            clean_ops: self.stats.clean_ops.load(Ordering::Relaxed),
            wire_rsts: wire(|w| &w.rsts),
            wire_partials: wire(|w| &w.partials),
            wire_slowloris: wire(|w| &w.slowloris),
            wire_garbage: wire(|w| &w.garbage),
            wire_half_closes: wire(|w| &w.half_closes),
        }
    }

    /// Current logical clock (operations observed so far).
    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    /// Decide the fate of one backend operation on `node`. `is_read` gates
    /// the read-only fault classes (truncation, stall).
    fn decide(&self, node: u32, is_read: bool) -> Fault {
        let op = self.ops.fetch_add(1, Ordering::Relaxed);
        // Down windows are scheduled, not sampled: they model a node reboot
        // and are not subject to the consecutive cap (other replicas absorb
        // the outage).
        if self
            .plan
            .down_windows
            .iter()
            .any(|w| w.node == node && op >= w.from_op && op < w.to_op)
        {
            self.stats.down_rejections.fetch_add(1, Ordering::Relaxed);
            return Fault::Down;
        }
        // Slow nodes are scheduled like down windows, not sampled: the skew
        // models a persistently degraded node, so every read it serves is
        // delayed. Delays never fail, so they skip the consecutive cap.
        if is_read && self.plan.slow_nodes.iter().any(|s| s.node == node) {
            self.stats.slow_node_delays.fetch_add(1, Ordering::Relaxed);
            return Fault::SlowNode;
        }
        let mut consecutive = self.consecutive.lock();
        if *consecutive >= self.plan.max_consecutive {
            *consecutive = 0;
            self.stats.clean_ops.fetch_add(1, Ordering::Relaxed);
            return Fault::None;
        }
        let roll = self.rng.lock().next_f64();
        let mut threshold = self.plan.error_rate;
        if roll < threshold {
            *consecutive += 1;
            self.stats.errors.fetch_add(1, Ordering::Relaxed);
            return Fault::TransientError;
        }
        if is_read {
            threshold += self.plan.truncate_rate;
            if roll < threshold {
                *consecutive += 1;
                self.stats.truncations.fetch_add(1, Ordering::Relaxed);
                return Fault::Truncate;
            }
            threshold += self.plan.stall_rate;
            if roll < threshold {
                // A stall delays but does not fail: it does not consume the
                // consecutive-fault budget.
                self.stats.stalls.fetch_add(1, Ordering::Relaxed);
                return Fault::Stall;
            }
        }
        *consecutive = 0;
        self.stats.clean_ops.fetch_add(1, Ordering::Relaxed);
        Fault::None
    }

    /// Decide the fate of one wire-level exchange (request/response pair on
    /// a TCP connection). Applies the `max_consecutive` cap over its own
    /// run of exchanges, so transport retries are guaranteed to make
    /// progress as long as the retry budget exceeds the cap. Slowloris
    /// delays but never fails, so — like stalls — it does not consume the
    /// consecutive budget.
    pub fn decide_wire(&self) -> WireFault {
        let Some(fired) = &self.stats.wire else { return WireFault::None };
        self.ops.fetch_add(1, Ordering::Relaxed);
        let mut consecutive = self.wire_consecutive.lock();
        if *consecutive >= self.plan.max_consecutive {
            *consecutive = 0;
            self.stats.clean_ops.fetch_add(1, Ordering::Relaxed);
            return WireFault::None;
        }
        let roll = self.rng.lock().next_f64();
        let wire = &self.plan.wire;
        let mut threshold = wire.rst_rate;
        if roll < threshold {
            *consecutive += 1;
            fired.rsts.inc();
            return WireFault::Rst;
        }
        threshold += wire.partial_rate;
        if roll < threshold {
            *consecutive += 1;
            fired.partials.inc();
            return WireFault::Partial;
        }
        threshold += wire.slowloris_rate;
        if roll < threshold {
            fired.slowloris.inc();
            return WireFault::Slowloris;
        }
        threshold += wire.garbage_rate;
        if roll < threshold {
            *consecutive += 1;
            fired.garbage.inc();
            return WireFault::Garbage;
        }
        threshold += wire.half_close_rate;
        if roll < threshold {
            *consecutive += 1;
            fired.half_closes.inc();
            return WireFault::HalfClose;
        }
        *consecutive = 0;
        self.stats.clean_ops.fetch_add(1, Ordering::Relaxed);
        WireFault::None
    }
}

/// A [`StorageBackend`] decorator that injects the faults its
/// [`FaultInjector`] decides on.
pub struct ChaosBackend {
    inner: Arc<dyn StorageBackend>,
    node: u32,
    injector: Arc<FaultInjector>,
}

impl ChaosBackend {
    /// Wrap `inner` (a backend on `node`) with fault injection.
    pub fn new(
        inner: Arc<dyn StorageBackend>,
        node: u32,
        injector: Arc<FaultInjector>,
    ) -> ChaosBackend {
        ChaosBackend { inner, node, injector }
    }

    fn transient(&self, op: &str) -> ScoopError {
        ScoopError::Io(std::io::Error::other(format!(
            "injected transient {op} failure on node {}",
            self.node
        )))
    }

    fn down(&self) -> ScoopError {
        ScoopError::Io(std::io::Error::other(format!(
            "node {} is down (injected outage)",
            self.node
        )))
    }

    /// Run the pre-operation fault decision for a non-read op.
    fn gate(&self, op: &str) -> Result<()> {
        match self.injector.decide(self.node, false) {
            Fault::Down => Err(self.down()),
            Fault::TransientError => Err(self.transient(op)),
            _ => Ok(()),
        }
    }

    /// Latency skew configured for this node (zero when not a slow node).
    fn slow_delay(&self) -> Duration {
        self.injector
            .plan
            .slow_nodes
            .iter()
            .find(|s| s.node == self.node)
            .map(|s| s.delay)
            .unwrap_or_default()
    }
}

impl StorageBackend for ChaosBackend {
    fn put(&self, key: &str, obj: StoredObject) -> Result<()> {
        self.gate("put")?;
        self.inner.put(key, obj)
    }

    fn get(&self, key: &str) -> Result<StoredObject> {
        match self.injector.decide(self.node, true) {
            Fault::Down => Err(self.down()),
            Fault::TransientError => Err(self.transient("get")),
            Fault::Stall => {
                std::thread::sleep(self.injector.plan.stall);
                self.inner.get(key)
            }
            Fault::SlowNode => {
                std::thread::sleep(self.slow_delay());
                self.inner.get(key)
            }
            Fault::Truncate => {
                let mut obj = self.inner.get(key)?;
                obj.data = obj.data.slice(..obj.data.len() / 2);
                Ok(obj)
            }
            Fault::None => self.inner.get(key),
        }
    }

    fn get_range(&self, key: &str, start: u64, end: u64) -> Result<Bytes> {
        match self.injector.decide(self.node, true) {
            Fault::Down => Err(self.down()),
            Fault::TransientError => Err(self.transient("get_range")),
            Fault::Stall => {
                std::thread::sleep(self.injector.plan.stall);
                self.inner.get_range(key, start, end)
            }
            Fault::SlowNode => {
                std::thread::sleep(self.slow_delay());
                self.inner.get_range(key, start, end)
            }
            Fault::Truncate => {
                let data = self.inner.get_range(key, start, end)?;
                Ok(data.slice(..data.len() / 2))
            }
            Fault::None => self.inner.get_range(key, start, end),
        }
    }

    fn head(&self, key: &str) -> Result<ObjectMeta> {
        self.gate("head")?;
        self.inner.head(key)
    }

    fn delete(&self, key: &str) -> Result<()> {
        self.gate("delete")?;
        self.inner.delete(key)
    }

    // Audit/repair plumbing stays fault-free: the replicator models rsync
    // between object servers, outside the request path under test.
    fn contains(&self, key: &str) -> bool {
        self.inner.contains(key)
    }

    fn keys(&self) -> Vec<String> {
        self.inner.keys()
    }

    fn bytes_used(&self) -> u64 {
        self.inner.bytes_used()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;
    use std::collections::BTreeMap;

    fn seeded_obj() -> StoredObject {
        StoredObject::new(Bytes::from(vec![7u8; 1000]), BTreeMap::new())
    }

    fn chaos(plan: FaultPlan) -> (ChaosBackend, Arc<FaultInjector>) {
        let injector = FaultInjector::new(plan);
        let inner = Arc::new(MemBackend::new());
        inner.put("/a/c/o", seeded_obj()).unwrap();
        (ChaosBackend::new(inner, 0, injector.clone()), injector)
    }

    #[test]
    fn quiet_plan_injects_nothing() {
        let (b, inj) = chaos(FaultPlan::quiet(1));
        for _ in 0..100 {
            assert_eq!(b.get("/a/c/o").unwrap().data.len(), 1000);
        }
        assert_eq!(inj.stats().total_faults(), 0);
        assert_eq!(inj.stats().clean_ops, 100);
    }

    #[test]
    fn transient_errors_fire_and_respect_consecutive_cap() {
        let (b, inj) = chaos(FaultPlan::transient_errors(42).with_error_rate(1.0));
        let mut failures_in_a_row = 0u32;
        let mut worst = 0u32;
        for _ in 0..200 {
            match b.get("/a/c/o") {
                Err(_) => {
                    failures_in_a_row += 1;
                    worst = worst.max(failures_in_a_row);
                }
                Ok(_) => failures_in_a_row = 0,
            }
        }
        let stats = inj.stats();
        assert!(stats.errors > 0);
        // Even at rate 1.0 the cap forces a success every few ops.
        assert!(worst <= 2, "saw {worst} consecutive failures");
        assert!(stats.clean_ops > 0);
    }

    #[test]
    fn truncation_halves_read_bodies() {
        let (b, inj) = chaos(FaultPlan::truncated_bodies(7).with_truncate_rate(1.0));
        let mut saw_short = false;
        for _ in 0..10 {
            let got = b.get("/a/c/o").unwrap();
            if got.data.len() < 1000 {
                saw_short = true;
            }
        }
        assert!(saw_short);
        assert!(inj.stats().truncations > 0);
        // Writes are unaffected by the truncation class.
        b.put("/a/c/p", seeded_obj()).unwrap();
    }

    #[test]
    fn down_window_rejects_then_recovers() {
        let (b, inj) = chaos(FaultPlan::quiet(3).with_down_window(0, 0, 5));
        for _ in 0..5 {
            assert!(b.get("/a/c/o").is_err());
        }
        assert!(b.get("/a/c/o").is_ok());
        assert_eq!(inj.stats().down_rejections, 5);
    }

    #[test]
    fn down_window_only_hits_its_node() {
        let injector = FaultInjector::new(FaultPlan::quiet(3).with_down_window(9, 0, 100));
        let inner = Arc::new(MemBackend::new());
        inner.put("/a/c/o", seeded_obj()).unwrap();
        let b = ChaosBackend::new(inner, 0, injector);
        assert!(b.get("/a/c/o").is_ok());
    }

    #[test]
    fn injected_errors_are_retryable() {
        let (b, _) = chaos(FaultPlan::transient_errors(42).with_error_rate(1.0));
        let err = loop {
            match b.get("/a/c/o") {
                Err(e) => break e,
                Ok(_) => continue,
            }
        };
        assert!(err.is_retryable());
    }

    #[test]
    fn same_seed_replays_same_fault_sequence() {
        let outcomes = |seed: u64| -> Vec<bool> {
            let (b, _) = chaos(FaultPlan::transient_errors(seed).with_error_rate(0.5));
            (0..50).map(|_| b.get("/a/c/o").is_ok()).collect()
        };
        assert_eq!(outcomes(11), outcomes(11));
        assert_ne!(outcomes(11), outcomes(12));
    }

    #[test]
    fn slow_node_delays_reads_but_serves_full_bodies() {
        let (b, inj) = chaos(FaultPlan::quiet(9).with_slow_node(0, Duration::from_millis(2)));
        let t0 = std::time::Instant::now();
        for _ in 0..3 {
            assert_eq!(b.get("/a/c/o").unwrap().data.len(), 1000);
        }
        assert!(t0.elapsed() >= Duration::from_millis(6), "skew never applied");
        let stats = inj.stats();
        assert_eq!(stats.slow_node_delays, 3);
        assert_eq!(stats.errors + stats.truncations, 0);
        // The skew is read-only and per-node: writes here and reads on other
        // nodes pass untouched.
        b.put("/a/c/p", seeded_obj()).unwrap();
        assert_eq!(inj.stats().slow_node_delays, 3);
        let other = ChaosBackend::new(Arc::new(MemBackend::new()), 1, inj.clone());
        let _ = other.get("/missing");
        assert_eq!(inj.stats().slow_node_delays, 3);
    }

    #[test]
    fn stalls_delay_but_succeed() {
        let (b, inj) =
            chaos(FaultPlan::stalled_reads(5).with_stalls(1.0, Duration::from_millis(1)));
        for _ in 0..5 {
            assert!(b.get("/a/c/o").is_ok());
        }
        assert!(inj.stats().stalls > 0);
    }
}
