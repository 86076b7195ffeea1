//! The storage abstraction the compute framework reads through.
//!
//! In the paper this seam is Hadoop's filesystem API with the Stocator driver
//! underneath; here it is a small trait with the exact operations the data
//! sources need: listing, plain reads, and pushdown reads. Every plain byte
//! comes from one required method, [`StorageConnector::read_bounded`]: the
//! open-ended [`StorageConnector::read_from`] and the exact
//! [`StorageConnector::fetch_range`] (the columnar footer/chunks, a CSV
//! schema sniff) are that read, so they fail and recover as it does. A
//! pushdown read says which body it got ([`PushdownBody`]): the store's
//! filtered records, or the split's raw bytes when the store did not
//! filter. `scoop-connector` implements it over the Swift-like object
//! store; [`MemoryConnector`] backs unit tests.

use bytes::Bytes;
use parking_lot::RwLock;
use scoop_common::zonestats::ObjectStats;
use scoop_common::{stream, ByteStream, Result, ScoopError};
use scoop_csv::PushdownSpec;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One object in a listing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectInfo {
    /// Object name within the location.
    pub name: String,
    /// Payload size in bytes.
    pub size: u64,
    /// Content fingerprint of the listed version: what its zone maps must
    /// describe ([`StorageConnector::zone_stats`]).
    pub etag: String,
}

/// What a pushdown read delivered.
pub enum PushdownBody {
    /// The records the store selected and projected, header consumed.
    Filtered(ByteStream),
    /// The object's raw bytes from the split's start: the store did not
    /// filter, so the reader selects the split as a vanilla scan does.
    Plain(ByteStream),
}

/// Storage operations required by the data sources.
///
/// A *location* is a container-like namespace string; objects live under it.
pub trait StorageConnector: Send + Sync {
    /// List objects under a location (optionally by prefix).
    fn list(&self, location: &str, prefix: Option<&str>) -> Result<Vec<ObjectInfo>>;

    /// Open a plain read of an object from `start`, for a consumer that
    /// expects to stop before offset `stop` (a split knows its end;
    /// [`SPLIT_SLACK`] past it covers the record that straddles it;
    /// `u64::MAX` is "no idea"). The stream is lazy — consumers that stop
    /// early must not pay for the tail — and runs to the end of the object
    /// for as long as it is pulled, past `stop` too: a connector whose
    /// requests are better bounded asks the store for `[start, stop)` and
    /// comes back for more only when pulled further.
    fn read_bounded(&self, location: &str, object: &str, start: u64, stop: u64) -> Result<ByteStream>;

    /// [`StorageConnector::read_bounded`] with no stop: `[start, EOF)`.
    fn read_from(&self, location: &str, object: &str, start: u64) -> Result<ByteStream> {
        self.read_bounded(location, object, start, u64::MAX)
    }

    /// The bytes `[start, end)` of an object (columnar footer/chunks),
    /// fewer when the object ends first: the bounded read, drained to
    /// `end`. A body that arrives in one chunk is returned without a copy.
    fn fetch_range(&self, location: &str, object: &str, start: u64, end: u64) -> Result<Bytes> {
        let len = end.saturating_sub(start);
        if len == 0 {
            return Ok(Bytes::new());
        }
        let body = stream::take(self.read_bounded(location, object, start, end)?, len);
        stream::collect_sized(body, usize::try_from(len).unwrap_or(usize::MAX))
    }

    /// Open a pushdown read: the store applies `spec` to the (record-aligned)
    /// logical range `[start, end_exclusive)` and streams filtered records,
    /// or answers the split's raw bytes when it does not filter.
    /// `file_schema` is the object's column list in file order.
    fn open_pushdown(
        &self,
        location: &str,
        object: &str,
        start: u64,
        end_exclusive: Option<u64>,
        spec: &PushdownSpec,
        file_schema: &[String],
    ) -> Result<PushdownBody>;

    /// The zone maps stored with one listed version of an object (`etag`
    /// from its [`ObjectInfo`]), or `None` when it has none this reader can
    /// use. Advisory like the maps themselves: it never fails, and the
    /// caller still checks that they describe the listed version
    /// ([`ObjectStats::describes`]). The default is "no index".
    fn zone_stats(&self, _location: &str, _object: &str, _etag: &str) -> Option<Arc<ObjectStats>> {
        None
    }

    /// Invoke an arbitrary storlet pipeline on an object request and stream
    /// its output — the general task-offloading primitive of the paper's
    /// Section VII ("any computation which can be carried out in parallel
    /// and independently over disjoint parts of the input dataset could be
    /// pushed down by Scoop in form of a filter"). Stores without an active
    /// layer return [`ScoopError::Unsupported`].
    fn invoke_storlet(
        &self,
        _location: &str,
        _object: &str,
        _storlets: &str,
        _params: &std::collections::HashMap<String, String>,
        _range: Option<(u64, u64)>,
    ) -> Result<ByteStream> {
        Err(ScoopError::Unsupported(
            "this connector has no active-storage layer".into(),
        ))
    }

    /// Propagate a query time budget to the storage layer: requests the
    /// connector issues afterwards carry this deadline end-to-end (client
    /// dispatch, proxy routing, object servers). [`scoop_common::Deadline::none`]
    /// clears it. Connectors without deadline support may ignore it.
    fn set_deadline(&self, _deadline: scoop_common::Deadline) {}

    /// Propagate a query trace ID to the storage layer: requests the
    /// connector issues afterwards carry it as the `x-scoop-trace` header so
    /// every hop records a span against the same trace (see
    /// [`scoop_common::telemetry`]). `None` clears it. Connectors without
    /// tracing support may ignore it.
    fn set_trace(&self, _trace: Option<String>) {}

    /// Bytes transferred to the compute side so far (wire accounting).
    fn bytes_transferred(&self) -> u64;

    /// Reset the transfer counter (between experiment runs).
    fn reset_transfer_counter(&self);
}

/// How far past its logical end a split bounds its plain read: the split
/// owns the record that straddles its end, so it needs bytes up to that
/// record's newline. One object-server response chunk — what a split used
/// to overshoot by at worst when it abandoned an open-ended read; a record
/// that runs further costs one more request.
pub const SPLIT_SLACK: u64 = 4 * 1024;

/// Wrap a stream so consumed bytes are added to a shared counter — only
/// consumed chunks cross the "wire".
pub fn count_consumed(inner: ByteStream, counter: Arc<AtomicU64>) -> ByteStream {
    Box::new(inner.inspect(move |item| {
        if let Ok(c) = item {
            counter.fetch_add(c.len() as u64, Ordering::Relaxed);
        }
    }))
}

/// In-memory connector for tests and local experiments. Constructed
/// [`MemoryConnector::with_pushdown`], pushdown reads are filtered locally
/// before the transfer counter, emulating a store-side filter; otherwise
/// they answer the plain bytes, as a store without an active layer does.
#[derive(Default)]
pub struct MemoryConnector {
    objects: RwLock<BTreeMap<(String, String), Bytes>>,
    transferred: Arc<AtomicU64>,
    pushdown: bool,
}

impl MemoryConnector {
    /// Empty store without an active layer.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Empty store that emulates store-side pushdown.
    pub fn with_pushdown() -> Arc<Self> {
        Arc::new(MemoryConnector { pushdown: true, ..Default::default() })
    }

    /// Insert an object.
    pub fn put(&self, location: &str, object: &str, data: Bytes) {
        self.objects
            .write()
            .insert((location.to_string(), object.to_string()), data);
    }

    fn get(&self, location: &str, object: &str) -> Result<Bytes> {
        self.objects
            .read()
            .get(&(location.to_string(), object.to_string()))
            .cloned()
            .ok_or_else(|| ScoopError::NotFound(format!("object {location}/{object}")))
    }
}

impl StorageConnector for MemoryConnector {
    fn list(&self, location: &str, prefix: Option<&str>) -> Result<Vec<ObjectInfo>> {
        Ok(self
            .objects
            .read()
            .iter()
            .filter(|((loc, name), _)| {
                loc == location && prefix.is_none_or(|p| name.starts_with(p))
            })
            .map(|((_, name), data)| ObjectInfo {
                name: name.clone(),
                size: data.len() as u64,
                etag: scoop_common::hash::fingerprint_hex(data),
            })
            .collect())
    }

    /// `[start, stop)` first, then the tail, so a consumer that stops at
    /// `stop` is counted for exactly what it asked for.
    fn read_bounded(&self, location: &str, object: &str, start: u64, stop: u64) -> Result<ByteStream> {
        let data = self.get(location, object)?;
        let start = (start.min(data.len() as u64)) as usize;
        let stop = (stop.min(data.len() as u64) as usize).max(start);
        let head = stream::chunked(data.slice(start..stop), stream::DEFAULT_CHUNK);
        let tail = stream::chunked(data.slice(stop..), stream::DEFAULT_CHUNK);
        Ok(count_consumed(Box::new(head.chain(tail)), self.transferred.clone()))
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
        if !self.pushdown {
            return Ok(PushdownBody::Plain(self.read_from(location, object, start)?));
        }
        // Emulate the store-side filter: run the compiled spec over the
        // record-aligned range; only filtered bytes cross the wire.
        let data = self.get(location, object)?;
        let end = end_exclusive.unwrap_or(data.len() as u64);
        let slice = scoop_csv::split::aligned_slice(&data, start, end);
        let spec_for_range =
            PushdownSpec { has_header: spec.has_header && start == 0, ..spec.clone() };
        let (filtered, _) = scoop_csv::filter::filter_buffer(
            &spec_for_range,
            file_schema,
            slice,
            true,
        )?;
        Ok(PushdownBody::Filtered(count_consumed(
            stream::chunked(Bytes::from(filtered), stream::DEFAULT_CHUNK),
            self.transferred.clone(),
        )))
    }

    fn bytes_transferred(&self) -> u64 {
        self.transferred.load(Ordering::Relaxed)
    }

    fn reset_transfer_counter(&self) {
        self.transferred.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scoop_csv::{Predicate, Value};

    const DATA: &[u8] = b"vid,city\nm1,Rotterdam\nm2,Paris\nm3,Rotterdam\n";

    fn conn() -> Arc<MemoryConnector> {
        let c = MemoryConnector::with_pushdown();
        c.put("meters", "a.csv", Bytes::from_static(DATA));
        c.put("meters", "b.csv", Bytes::from_static(b"x\n"));
        c.put("other", "c.csv", Bytes::from_static(b"y\n"));
        c
    }

    #[test]
    fn list_scopes_by_location_and_prefix() {
        let c = conn();
        assert_eq!(c.list("meters", None).unwrap().len(), 2);
        assert_eq!(c.list("meters", Some("a")).unwrap().len(), 1);
        assert_eq!(c.list("nope", None).unwrap().len(), 0);
    }

    #[test]
    fn read_counts_only_consumed_bytes() {
        let c = conn();
        let mut s = c.read_from("meters", "a.csv", 0).unwrap();
        let _ = s.next();
        drop(s);
        assert_eq!(c.bytes_transferred(), DATA.len() as u64);
        c.reset_transfer_counter();
        assert_eq!(c.bytes_transferred(), 0);
        assert!(c.read_from("meters", "ghost.csv", 0).is_err());
    }

    #[test]
    fn pushdown_counts_filtered_bytes() {
        let c = conn();
        let spec = PushdownSpec {
            columns: Some(vec!["vid".into()]),
            predicate: Some(Predicate::Eq(
                "city".into(),
                Value::Str("Rotterdam".into()),
            )),
            has_header: true,
        };
        let schema = vec!["vid".to_string(), "city".to_string()];
        let Ok(PushdownBody::Filtered(s)) =
            c.open_pushdown("meters", "a.csv", 0, None, &spec, &schema)
        else {
            panic!("an active store filters");
        };
        let out = scoop_common::stream::collect(s).unwrap();
        assert_eq!(out, "m1\nm3\n");
        assert_eq!(c.bytes_transferred(), 6);
    }

    #[test]
    fn fetch_range_clamps() {
        let c = conn();
        assert_eq!(c.fetch_range("meters", "a.csv", 0, 3).unwrap(), "vid");
        assert_eq!(c.bytes_transferred(), 3, "only the range is counted");
        assert_eq!(
            c.fetch_range("meters", "a.csv", 1000, 2000).unwrap().len(),
            0
        );
    }
}
