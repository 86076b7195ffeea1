//! The storlet programming interface.
//!
//! Mirrors the paper's `IStorlet` Java interface:
//!
//! ```java
//! public void invoke(ArrayList<StorletInputStream> iStream,
//!                    ArrayList<StorletOutputStream> oStream,
//!                    Map<String, String> parameters,
//!                    StorletLogger logger) throws StorletException
//! ```
//!
//! In Rust the natural shape is a stream transformer: `invoke` receives the
//! request's input [`ByteStream`] plus an [`InvocationContext`] (parameters,
//! byte-range coordinates, logger, metrics) and returns the transformed output
//! stream. Laziness matters: returning a stream lets a byte-range invocation
//! stop reading the object early, which is how Scoop avoids transferring the
//! full object "from the object node to one of the proxies".

use bytes::Bytes;
use parking_lot::Mutex;
use scoop_common::{ByteStream, Result};
use scoop_csv::split::RangedRecordStream;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Collects log lines from a storlet run (the `StorletLogger` argument).
#[derive(Debug, Default)]
pub struct StorletLogger {
    entries: Mutex<Vec<String>>,
}

impl StorletLogger {
    /// Create an empty logger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a log line.
    pub fn log(&self, line: impl Into<String>) {
        self.entries.lock().push(line.into());
    }

    /// Snapshot of logged lines.
    pub fn entries(&self) -> Vec<String> {
        self.entries.lock().clone()
    }
}

/// Live counters for one invocation; the engine aggregates these per storlet.
/// Updated *as the output stream is consumed*, since storlets are lazy.
#[derive(Debug, Default)]
pub struct InvocationMetrics {
    /// Bytes pulled from the input stream.
    pub bytes_in: AtomicU64,
    /// Bytes yielded on the output stream.
    pub bytes_out: AtomicU64,
    /// Records examined (storlets that are record-oriented).
    pub records_in: AtomicU64,
    /// Records emitted.
    pub records_out: AtomicU64,
    /// Nanoseconds of compute spent inside the storlet.
    pub busy_ns: AtomicU64,
}

impl InvocationMetrics {
    /// Add to a counter.
    pub fn add(&self, counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Fraction of input bytes discarded so far.
    pub fn data_selectivity(&self) -> f64 {
        let bin = self.bytes_in.load(Ordering::Relaxed);
        if bin == 0 {
            0.0
        } else {
            1.0 - self.bytes_out.load(Ordering::Relaxed) as f64 / bin as f64
        }
    }
}

/// Everything a storlet invocation receives besides the input stream.
#[derive(Clone)]
pub struct InvocationContext {
    /// Invocation parameters (from `X-Storlet-Parameters`).
    pub params: HashMap<String, String>,
    /// Absolute byte offset of the first input byte within the object.
    pub range_start: u64,
    /// Logical end of the requested range (inclusive), if ranged; the storlet
    /// must apply record-alignment semantics against it.
    pub range_end: Option<u64>,
    /// True when the caller guarantees the input stream already begins at a
    /// record boundary it *owns* (the block-range planner fetches ranges cut
    /// on record boundaries). Record-oriented storlets must then skip the
    /// usual discard-through-first-newline alignment, which would throw the
    /// first record away.
    pub pre_aligned: bool,
    /// Shared logger.
    pub logger: Arc<StorletLogger>,
    /// Shared metrics sink.
    pub metrics: Arc<InvocationMetrics>,
    /// Out-channel for metadata a storlet wants attached to the stored
    /// object (PUT-side indexing storlets publish their stats here; the
    /// middleware merges the pairs into the upstream PUT's headers).
    pub extra_meta: Arc<Mutex<Vec<(String, String)>>>,
}

impl InvocationContext {
    /// A context with the given parameters and no range.
    pub fn new(params: HashMap<String, String>) -> Self {
        InvocationContext {
            params,
            range_start: 0,
            range_end: None,
            pre_aligned: false,
            logger: Arc::new(StorletLogger::new()),
            metrics: Arc::new(InvocationMetrics::default()),
            extra_meta: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Fetch a required parameter.
    pub fn require(&self, key: &str) -> Result<&str> {
        self.params
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| {
                scoop_common::ScoopError::Storlet(format!("missing parameter '{key}'"))
            })
    }
}

/// A deployable storage-side computation.
pub trait Storlet: Send + Sync {
    /// Registered name, referenced by `X-Run-Storlet`.
    fn name(&self) -> &str;

    /// Transform the request data stream.
    fn invoke(&self, input: ByteStream, ctx: InvocationContext) -> Result<ByteStream>;
}

/// The output stream of a record storlet: every record of the object in
/// `input`, split under the one record rule ([`scoop_csv::record`]) by a
/// [`RangedRecordStream`] over the whole object, through `map` — which
/// appends what it keeps to the output chunk and returns whether it kept
/// the record. Records and bytes are counted into `metrics` as the output is
/// pulled. An input error, or a record past the splitter's size cap, ends
/// the stream with that error.
pub fn map_records(
    input: ByteStream,
    metrics: Arc<InvocationMetrics>,
    mut map: impl FnMut(&[u8], &mut Vec<u8>) -> bool + Send + 'static,
) -> ByteStream {
    let mut records = RangedRecordStream::new(input, 0, None);
    Box::new(std::iter::from_fn(move || loop {
        let (pulled, mut out) = (records.offset(), Vec::new());
        let more = records.next_chunk(|record| {
            metrics.add(&metrics.records_in, 1);
            if map(record, &mut out) {
                metrics.add(&metrics.records_out, 1);
            }
        });
        metrics.add(&metrics.bytes_in, records.offset().saturating_sub(pulled));
        match more {
            Err(e) => return Some(Err(e)),
            Ok(_) if !out.is_empty() => {
                metrics.add(&metrics.bytes_out, out.len() as u64);
                return Some(Ok(Bytes::from(out)));
            }
            Ok(true) => {}
            Ok(false) => return None,
        }
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logger_collects() {
        let l = StorletLogger::new();
        l.log("started");
        l.log(format!("records={}", 3));
        assert_eq!(l.entries(), vec!["started", "records=3"]);
    }

    #[test]
    fn metrics_selectivity() {
        let m = InvocationMetrics::default();
        assert_eq!(m.data_selectivity(), 0.0);
        m.add(&m.bytes_in, 1000);
        m.add(&m.bytes_out, 100);
        assert!((m.data_selectivity() - 0.9).abs() < 1e-9);
    }

    #[test]
    fn context_param_access() {
        let mut p = HashMap::new();
        p.insert("spec".to_string(), "hdr=1;cols=*;pred=".to_string());
        let ctx = InvocationContext::new(p);
        assert!(ctx.require("spec").is_ok());
        assert!(ctx.require("missing").is_err());
        assert_eq!(ctx.range_start, 0);
        assert_eq!(ctx.range_end, None);
    }
}
