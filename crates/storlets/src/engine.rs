//! Storlet registry and execution engine.
//!
//! The engine is what the paper calls the "rich and extensible compute layer":
//! administrators register storlet implementations ("a third party integrating
//! a new pushdown filter only needs to contribute the logic; the deployment
//! and execution of the filter is managed by the system"), and the engine
//! executes one or a *pipeline* of them on a request stream with sandbox-style
//! resource accounting standing in for the Docker isolation of the original.

use crate::api::{InvocationContext, InvocationMetrics, Storlet};
use parking_lot::RwLock;
use scoop_common::telemetry::{self, names, ScopedCounter};
use scoop_common::{ByteStream, Result, ScoopError};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Aggregated per-storlet counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineStats {
    /// Completed invocations (streams fully consumed or dropped).
    pub invocations: u64,
    /// Total bytes read from objects by this storlet.
    pub bytes_in: u64,
    /// Total bytes produced.
    pub bytes_out: u64,
    /// Records examined.
    pub records_in: u64,
    /// Records emitted.
    pub records_out: u64,
    /// Total compute nanoseconds inside the storlet.
    pub busy_ns: u64,
}

#[derive(Default)]
struct StatsCell {
    inner: RwLock<EngineStats>,
}

/// Shared admission bookkeeping: concurrency limits, the live-invocation
/// gauge, and the shed counter.
#[derive(Debug)]
struct AdmissionState {
    /// `(max_concurrent, max_queue_depth)`; `None` = admission control off.
    limits: RwLock<Option<(usize, usize)>>,
    /// Pushdown requests whose output stream is still live.
    active: AtomicUsize,
    /// Pushdown requests refused for overload.
    sheds: ScopedCounter,
    /// Registry gauge mirroring `active` for limit-bounded invocations.
    active_global: telemetry::Gauge,
}

impl Default for AdmissionState {
    fn default() -> Self {
        AdmissionState {
            limits: RwLock::new(None),
            active: AtomicUsize::new(0),
            sheds: ScopedCounter::new(names::STORLETS_ADMISSION_SHEDS),
            active_global: telemetry::gauge(names::STORLETS_ACTIVE),
        }
    }
}

/// RAII admission slot for one pushdown request. Dropping it (normally via
/// the response stream it is attached to) releases the slot.
pub struct AdmissionPermit {
    state: Option<Arc<AdmissionState>>,
}

impl AdmissionPermit {
    /// Tie the permit's lifetime to a response stream: the slot frees when
    /// the consumer finishes (or abandons) the body.
    pub fn attach(self, stream: ByteStream) -> ByteStream {
        Box::new(PermittedStream { inner: stream, _permit: self })
    }
}

impl Drop for AdmissionPermit {
    fn drop(&mut self) {
        if let Some(state) = &self.state {
            state.active.fetch_sub(1, Ordering::Relaxed);
            state.active_global.sub(1);
        }
    }
}

struct PermittedStream {
    inner: ByteStream,
    _permit: AdmissionPermit,
}

impl Iterator for PermittedStream {
    type Item = scoop_common::Result<bytes::Bytes>;
    fn next(&mut self) -> Option<Self::Item> {
        self.inner.next()
    }
}

/// Registry mirrors of the engine-wide invocation totals, registered at
/// engine construction so a telemetry snapshot always carries the metrics.
#[derive(Debug, Clone)]
struct StorletGlobals {
    invocations: telemetry::Counter,
    bytes_in: telemetry::Counter,
    bytes_out: telemetry::Counter,
}

impl Default for StorletGlobals {
    fn default() -> Self {
        StorletGlobals {
            invocations: telemetry::counter(names::STORLETS_INVOCATIONS),
            bytes_in: telemetry::counter(names::STORLETS_BYTES_IN),
            bytes_out: telemetry::counter(names::STORLETS_BYTES_OUT),
        }
    }
}

/// Counters for the block-range planner (store-side data skipping), one
/// [`ScopedCounter`] each: the per-engine value the accessors read and the
/// `scoop_storlets_*_total` registry metric move in the same call. The
/// handles are taken at engine construction, so snapshots always carry the
/// metrics.
#[derive(Debug)]
pub struct SkipStats {
    plans: ScopedCounter,
    fallbacks: ScopedCounter,
    blocks_pruned: ScopedCounter,
    blocks_scanned: ScopedCounter,
    bytes_skipped: ScopedCounter,
}

impl Default for SkipStats {
    fn default() -> Self {
        SkipStats {
            plans: ScopedCounter::new(names::STORLETS_SKIP_PLANS),
            fallbacks: ScopedCounter::new(names::STORLETS_PLAN_FALLBACKS),
            blocks_pruned: ScopedCounter::new(names::STORLETS_BLOCKS_PRUNED),
            blocks_scanned: ScopedCounter::new(names::STORLETS_BLOCKS_SCANNED),
            bytes_skipped: ScopedCounter::new(names::STORLETS_BYTES_SKIPPED),
        }
    }
}

impl SkipStats {
    /// Record one GET served through a zone-map block plan.
    pub fn record_plan(&self, pruned: u64, scanned: u64, bytes_skipped: u64) {
        self.plans.inc();
        self.blocks_pruned.add(pruned);
        self.blocks_scanned.add(scanned);
        self.bytes_skipped.add(bytes_skipped);
    }

    /// Record one GET that wanted a plan but fell back to a full scan
    /// (stats absent, stale, or undecodable).
    pub fn record_fallback(&self) {
        self.fallbacks.inc();
    }

    /// GETs served via a block plan.
    pub fn plans(&self) -> u64 {
        self.plans.get()
    }

    /// GETs that fell back to a full scan.
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks.get()
    }

    /// Blocks pruned by the planner.
    pub fn blocks_pruned(&self) -> u64 {
        self.blocks_pruned.get()
    }

    /// Blocks scanned after planning.
    pub fn blocks_scanned(&self) -> u64 {
        self.blocks_scanned.get()
    }

    /// Object bytes never read thanks to pruning.
    pub fn bytes_skipped(&self) -> u64 {
        self.bytes_skipped.get()
    }
}

/// The engine: registry + execution + accounting.
pub struct StorletEngine {
    registry: RwLock<HashMap<String, Arc<dyn Storlet>>>,
    stats: RwLock<HashMap<String, Arc<StatsCell>>>,
    admission: Arc<AdmissionState>,
    globals: StorletGlobals,
    skip: SkipStats,
}

impl Default for StorletEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl StorletEngine {
    /// Create an empty engine.
    pub fn new() -> Self {
        StorletEngine {
            registry: RwLock::new(HashMap::new()),
            stats: RwLock::new(HashMap::new()),
            admission: Arc::new(AdmissionState::default()),
            globals: StorletGlobals::default(),
            skip: SkipStats::default(),
        }
    }

    /// Block-range planner counters.
    pub fn skip_stats(&self) -> &SkipStats {
        &self.skip
    }

    /// Bound concurrent pushdown execution: at most `max_concurrent` live
    /// invocations plus `max_queue_depth` burst slots; anything beyond is
    /// shed (the middleware answers 503 so clients fall back to a plain
    /// GET). `None` removes the bound.
    pub fn set_admission_limits(&self, max_concurrent: Option<usize>, max_queue_depth: usize) {
        *self.admission.limits.write() = max_concurrent.map(|c| (c, max_queue_depth));
    }

    /// Try to claim an admission slot for one pushdown request. `None`
    /// means the engine is saturated and the request must be shed.
    pub fn try_admit(&self) -> Option<AdmissionPermit> {
        let Some((max_concurrent, max_queue)) = *self.admission.limits.read() else {
            return Some(AdmissionPermit { state: None });
        };
        let cap = max_concurrent.saturating_add(max_queue);
        let mut current = self.admission.active.load(Ordering::Relaxed);
        loop {
            if current >= cap {
                self.admission.sheds.inc();
                return None;
            }
            match self.admission.active.compare_exchange(
                current,
                current + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.admission.active_global.add(1);
                    return Some(AdmissionPermit { state: Some(self.admission.clone()) });
                }
                Err(observed) => current = observed,
            }
        }
    }

    /// Pushdown requests shed for overload since startup.
    pub fn admission_sheds(&self) -> u64 {
        self.admission.sheds.get()
    }

    /// Pushdown requests currently holding an admission slot.
    pub fn active_invocations(&self) -> usize {
        self.admission.active.load(Ordering::Relaxed)
    }

    /// Create an engine with all filters shipped in [`crate::filters`]
    /// pre-deployed.
    pub fn with_builtin_filters() -> Self {
        let engine = Self::new();
        engine.deploy(Arc::new(crate::filters::csv::CsvFilterStorlet));
        engine.deploy(Arc::new(crate::filters::grep::LineGrepStorlet));
        engine.deploy(Arc::new(crate::filters::compress::RleCompressStorlet));
        engine.deploy(Arc::new(crate::filters::compress::RleDecompressStorlet));
        engine.deploy(Arc::new(crate::filters::stats::AggregateStorlet));
        engine.deploy(Arc::new(crate::filters::etl::EtlCleanseStorlet));
        engine.deploy(Arc::new(crate::filters::metadata::MetadataExtractStorlet));
        engine.deploy(Arc::new(crate::filters::index::ZoneIndexStorlet));
        engine
    }

    /// Register (deploy) a storlet. Re-deploying replaces the previous
    /// implementation, mirroring Swift object overwrite semantics for
    /// deployed storlet code.
    pub fn deploy(&self, storlet: Arc<dyn Storlet>) {
        self.registry
            .write()
            .insert(storlet.name().to_string(), storlet);
    }

    /// Remove a deployed storlet.
    pub fn undeploy(&self, name: &str) -> bool {
        self.registry.write().remove(name).is_some()
    }

    /// Names of deployed storlets.
    pub fn deployed(&self) -> Vec<String> {
        let mut names: Vec<String> = self.registry.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Look up a deployed storlet.
    pub fn get(&self, name: &str) -> Result<Arc<dyn Storlet>> {
        self.registry
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| ScoopError::Storlet(format!("storlet '{name}' is not deployed")))
    }

    fn stats_cell(&self, name: &str) -> Arc<StatsCell> {
        if let Some(c) = self.stats.read().get(name) {
            return c.clone();
        }
        self.stats
            .write()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Invoke a single storlet on a stream. Accounting is folded into the
    /// engine totals when the returned stream is dropped.
    pub fn invoke(
        &self,
        name: &str,
        input: ByteStream,
        ctx: InvocationContext,
    ) -> Result<ByteStream> {
        let storlet = self.get(name)?;
        let cell = self.stats_cell(name);
        let metrics = ctx.metrics.clone();
        let out = storlet.invoke(input, ctx)?;
        Ok(Box::new(AccountedStream {
            inner: Some(out),
            metrics,
            cell,
            globals: self.globals.clone(),
        }))
    }

    /// Invoke a pipeline of storlets, each consuming the previous one's
    /// output — the paper's "Scoop is able to execute several pushdown filters
    /// on a single request (i.e., pipelining)".
    pub fn invoke_pipeline(
        &self,
        names: &[&str],
        input: ByteStream,
        ctx: &InvocationContext,
    ) -> Result<ByteStream> {
        let mut stream = input;
        for (i, name) in names.iter().enumerate() {
            // Only the first storlet in the pipeline sees object byte-range
            // coordinates; downstream ones see a fresh derived stream.
            let stage_ctx = if i == 0 {
                ctx.clone()
            } else {
                InvocationContext {
                    range_start: 0,
                    range_end: None,
                    pre_aligned: false,
                    metrics: Arc::new(InvocationMetrics::default()),
                    ..ctx.clone()
                }
            };
            stream = self.invoke(name, stream, stage_ctx)?;
        }
        Ok(stream)
    }

    /// Aggregated stats for one storlet.
    pub fn stats(&self, name: &str) -> EngineStats {
        self.stats
            .read()
            .get(name)
            .map(|c| *c.inner.read())
            .unwrap_or_default()
    }

    /// Aggregated stats over all storlets.
    pub fn total_stats(&self) -> EngineStats {
        let mut total = EngineStats::default();
        for cell in self.stats.read().values() {
            let s = *cell.inner.read();
            total.invocations += s.invocations;
            total.bytes_in += s.bytes_in;
            total.bytes_out += s.bytes_out;
            total.records_in += s.records_in;
            total.records_out += s.records_out;
            total.busy_ns += s.busy_ns;
        }
        total
    }

    /// Reset all counters (between experiment runs).
    pub fn reset_stats(&self) {
        for cell in self.stats.read().values() {
            *cell.inner.write() = EngineStats::default();
        }
    }
}

impl std::fmt::Debug for StorletEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StorletEngine")
            .field("deployed", &self.deployed())
            .finish()
    }
}

/// Stream wrapper that folds invocation metrics into engine totals when the
/// stream is dropped (fully consumed or abandoned early).
struct AccountedStream {
    inner: Option<ByteStream>,
    metrics: Arc<InvocationMetrics>,
    cell: Arc<StatsCell>,
    globals: StorletGlobals,
}

impl Iterator for AccountedStream {
    type Item = scoop_common::Result<bytes::Bytes>;
    fn next(&mut self) -> Option<Self::Item> {
        self.inner.as_mut()?.next()
    }
}

impl Drop for AccountedStream {
    fn drop(&mut self) {
        // Drop the inner stream first so lazy storlets flush their counters.
        self.inner = None;
        let bytes_in = self.metrics.bytes_in.load(Ordering::Relaxed);
        let bytes_out = self.metrics.bytes_out.load(Ordering::Relaxed);
        let mut s = self.cell.inner.write();
        s.invocations += 1;
        s.bytes_in += bytes_in;
        s.bytes_out += bytes_out;
        s.records_in += self.metrics.records_in.load(Ordering::Relaxed);
        s.records_out += self.metrics.records_out.load(Ordering::Relaxed);
        s.busy_ns += self.metrics.busy_ns.load(Ordering::Relaxed);
        drop(s);
        self.globals.invocations.inc();
        self.globals.bytes_in.add(bytes_in);
        self.globals.bytes_out.add(bytes_out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use scoop_common::stream;

    /// Upper-cases its input; counts bytes through ctx metrics.
    struct Upper;
    impl Storlet for Upper {
        fn name(&self) -> &str {
            "upper"
        }
        fn invoke(&self, input: ByteStream, ctx: InvocationContext) -> Result<ByteStream> {
            let m = ctx.metrics.clone();
            Ok(Box::new(input.map(move |chunk| {
                let chunk = chunk?;
                m.add(&m.bytes_in, chunk.len() as u64);
                m.add(&m.bytes_out, chunk.len() as u64);
                Ok(Bytes::from(
                    chunk.iter().map(|b| b.to_ascii_uppercase()).collect::<Vec<u8>>(),
                ))
            })))
        }
    }

    /// Drops vowels.
    struct DropVowels;
    impl Storlet for DropVowels {
        fn name(&self) -> &str {
            "novowels"
        }
        fn invoke(&self, input: ByteStream, ctx: InvocationContext) -> Result<ByteStream> {
            let m = ctx.metrics.clone();
            Ok(Box::new(input.map(move |chunk| {
                let chunk = chunk?;
                m.add(&m.bytes_in, chunk.len() as u64);
                let out: Vec<u8> = chunk
                    .iter()
                    .copied()
                    .filter(|b| !b"aeiouAEIOU".contains(b))
                    .collect();
                m.add(&m.bytes_out, out.len() as u64);
                Ok(Bytes::from(out))
            })))
        }
    }

    fn engine() -> StorletEngine {
        let e = StorletEngine::new();
        e.deploy(Arc::new(Upper));
        e.deploy(Arc::new(DropVowels));
        e
    }

    #[test]
    fn deploy_lookup_undeploy() {
        let e = engine();
        assert_eq!(e.deployed(), vec!["novowels", "upper"]);
        assert!(e.get("upper").is_ok());
        assert!(e.get("ghost").is_err());
        assert!(e.undeploy("upper"));
        assert!(!e.undeploy("upper"));
        assert!(e.get("upper").is_err());
    }

    #[test]
    fn invoke_transforms_and_accounts() {
        let e = engine();
        let ctx = InvocationContext::new(HashMap::new());
        let out = e
            .invoke("upper", stream::once(Bytes::from_static(b"scoop")), ctx)
            .unwrap();
        assert_eq!(stream::collect(out).unwrap(), "SCOOP");
        let s = e.stats("upper");
        assert_eq!(s.invocations, 1);
        assert_eq!(s.bytes_in, 5);
        assert_eq!(s.bytes_out, 5);
    }

    #[test]
    fn pipeline_composes_in_order() {
        let e = engine();
        let ctx = InvocationContext::new(HashMap::new());
        let out = e
            .invoke_pipeline(
                &["novowels", "upper"],
                stream::once(Bytes::from_static(b"analytics")),
                &ctx,
            )
            .unwrap();
        assert_eq!(stream::collect(out).unwrap(), "NLYTCS");
        assert_eq!(e.stats("novowels").invocations, 1);
        assert_eq!(e.stats("upper").invocations, 1);
        // Cross-check: total stats sum both.
        assert_eq!(e.total_stats().invocations, 2);
    }

    #[test]
    fn abandoned_stream_still_accounted() {
        let e = engine();
        let ctx = InvocationContext::new(HashMap::new());
        let mut out = e
            .invoke(
                "upper",
                stream::chunked(Bytes::from(vec![b'x'; 10_000]), 100),
                ctx,
            )
            .unwrap();
        // Consume only the first chunk, then drop.
        let first = out.next().unwrap().unwrap();
        assert_eq!(first.len(), 100);
        drop(out);
        let s = e.stats("upper");
        assert_eq!(s.invocations, 1);
        assert_eq!(s.bytes_in, 100);
    }

    #[test]
    fn reset_clears_counters() {
        let e = engine();
        let ctx = InvocationContext::new(HashMap::new());
        let out = e
            .invoke("upper", stream::once(Bytes::from_static(b"abc")), ctx)
            .unwrap();
        stream::collect(out).unwrap();
        e.reset_stats();
        assert_eq!(e.stats("upper"), EngineStats::default());
    }

    #[test]
    fn admission_limits_shed_and_release() {
        let e = engine();
        e.set_admission_limits(Some(1), 0);
        let permit = e.try_admit().expect("first slot admitted");
        let ctx = InvocationContext::new(HashMap::new());
        let out = e
            .invoke("upper", stream::once(Bytes::from_static(b"busy")), ctx)
            .unwrap();
        let held = permit.attach(out);
        // Engine saturated while the stream is live.
        assert!(e.try_admit().is_none());
        assert_eq!(e.admission_sheds(), 1);
        assert_eq!(e.active_invocations(), 1);
        // Consuming/dropping the stream frees the slot.
        drop(held);
        assert_eq!(e.active_invocations(), 0);
        assert!(e.try_admit().is_some());
        // Queue depth grants burst slots; removing limits disables control.
        e.set_admission_limits(Some(0), 2);
        let a = e.try_admit().unwrap();
        let b = e.try_admit().unwrap();
        assert!(e.try_admit().is_none());
        drop((a, b));
        e.set_admission_limits(None, 0);
        assert!(e.try_admit().is_some());
    }

    #[test]
    fn builtin_filters_deploy() {
        let e = StorletEngine::with_builtin_filters();
        for name in [
            "csvfilter",
            "linegrep",
            "rlecompress",
            "rledecompress",
            "aggregate",
            "etlcleanse",
            "metaextract",
            "zoneindex",
        ] {
            assert!(e.get(name).is_ok(), "{name} should be deployed");
        }
    }
}
