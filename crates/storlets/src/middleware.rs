//! The storlet WSGI middleware.
//!
//! "With Storlets a developer can write code, package and deploy it ... and
//! then explicitly invoke it on data objects as if the code was part of the
//! Swift's WSGI pipeline. Request interception can occur not only at the proxy
//! but also at the object servers." This middleware implements that
//! interception on both tiers, plus the two capabilities the paper added:
//! **staging control** (`X-Storlet-Run-On`) and **byte-range execution**
//! (logical ranges handled record-aligned by the storlet while the backend
//! serves an open-ended read that the lazy filter stream terminates early).

use crate::api::{InvocationContext, InvocationMetrics};
use crate::engine::StorletEngine;
use crate::planner::{plan_ranges, BlockPlan};
use crate::policy::{PolicyStore, Tier};
use scoop_common::zonestats::{metadata_fingerprint, ObjectStats, StatsCache};
use scoop_common::{stream, ByteStream, Result, ScoopError};
use scoop_csv::PushdownSpec;
use scoop_objectstore::middleware::{Handler, Middleware};
use scoop_objectstore::objserver::{STAGE_HEADER, STAGE_OBJECT, STAGE_PROXY};
use scoop_objectstore::request::{ByteRange, Headers, Method, Request, Response};
use scoop_objectstore::ObjectPath;
use std::collections::HashMap;
use std::sync::Arc;

/// Header names understood by the middleware. The actual strings live in
/// [`scoop_common::headers`] — the workspace's single constants module —
/// and are re-exported here under the middleware's historical names.
pub mod headers {
    /// Comma-separated storlet pipeline to execute.
    pub use scoop_common::headers::RUN_STORLET;
    /// Invocation parameters, `k=v` pairs joined by `;` (percent-escaped).
    pub use scoop_common::headers::STORLET_PARAMETERS as PARAMETERS;
    /// Execution stage: `proxy` or `object` (default `object`).
    pub use scoop_common::headers::STORLET_RUN_ON as RUN_ON;
    /// Logical byte range handled by the storlet (record-aligned), e.g.
    /// `bytes=1048576-2097151`.
    pub use scoop_common::headers::STORLET_RANGE;
    /// Response marker listing executed storlets.
    pub use scoop_common::headers::STORLET_INVOKED as INVOKED;
    /// Set on `503` responses when pushdown was shed for overload; names
    /// the storlets that were *not* run so the client can fall back to a
    /// plain GET and filter locally.
    pub use scoop_common::headers::STORLET_DEGRADED as DEGRADED;
}

/// Encode invocation parameters for [`headers::PARAMETERS`]: `k=v` pairs in
/// key order, joined by `;`, each side percent-escaped.
pub fn encode_params(params: &HashMap<String, String>) -> String {
    let esc = |s: &str| scoop_common::percent::encode(s, b";=");
    let mut pairs: Vec<(&String, &String)> = params.iter().collect();
    pairs.sort();
    pairs.iter().map(|(k, v)| format!("{}={}", esc(k), esc(v))).collect::<Vec<_>>().join(";")
}

/// Decode [`headers::PARAMETERS`].
pub fn decode_params(header: &str) -> Result<HashMap<String, String>> {
    let unesc = |s: &str| scoop_common::percent::decode(s, "storlet parameters");
    let mut map = HashMap::new();
    for pair in header.split(';').filter(|p| !p.is_empty()) {
        let (k, v) = pair
            .split_once('=')
            .ok_or_else(|| ScoopError::InvalidRequest(format!("bad parameter pair '{pair}'")))?;
        map.insert(unesc(k)?, unesc(v)?);
    }
    Ok(map)
}

/// What one storlet GET reads: byte windows in object order and, when they
/// came from the object's zone maps, the evidence behind them.
struct GetPlan {
    /// Inclusive `[first, last]` windows; `last == None` reads to EOF.
    windows: Vec<(u64, Option<u64>)>,
    /// The block plan when the windows came from fresh stats; `None` marks
    /// the trivial plan.
    blocks: Option<BlockPlan>,
    /// The HEAD's headers, which a stats plan answers with (it may have no
    /// window to take them from).
    headers: Option<Headers>,
}

impl GetPlan {
    /// The full scan: one open-ended window from the request's start.
    fn trivial(start: u64) -> GetPlan {
        GetPlan { windows: vec![(start, None)], blocks: None, headers: None }
    }
}

/// What pins one decoded index at the store: the object, the version the
/// HEAD reported (etag, length) and the fingerprint of its stats chunks.
type StatsKey = (ObjectPath, String, Option<u64>, u64);

/// The middleware. Install one instance (sharing the engine) on both the
/// proxy and object-server pipelines.
pub struct StorletMiddleware {
    engine: Arc<StorletEngine>,
    policy: Option<Arc<PolicyStore>>,
    /// Decoded zone maps, so a planned GET decodes an object version's
    /// index once rather than on every read.
    stats: StatsCache<StatsKey>,
}

impl StorletMiddleware {
    /// Middleware without policies (explicit invocation only).
    pub fn new(engine: Arc<StorletEngine>) -> Self {
        StorletMiddleware { engine, policy: None, stats: StatsCache::default() }
    }

    /// Middleware consulting a policy store at the proxy stage.
    pub fn with_policy(engine: Arc<StorletEngine>, policy: Arc<PolicyStore>) -> Self {
        StorletMiddleware { engine, policy: Some(policy), stats: StatsCache::default() }
    }

    /// The shared engine (for stats inspection).
    pub fn engine(&self) -> &Arc<StorletEngine> {
        &self.engine
    }

    /// Proxy-stage policy work: strip pushdown for bronze tenants, inject
    /// configured storlets for matching rules.
    fn apply_policy(&self, req: &mut Request) {
        let Some(policy) = &self.policy else { return };
        if policy.tier_of(&req.path.account) == Tier::Bronze {
            req.headers.remove(headers::RUN_STORLET);
            req.headers.remove(headers::PARAMETERS);
            req.headers.remove(headers::RUN_ON);
            // Degrade X-Storlet-Range to an *open-ended* plain range so the
            // compute side can record-align (it must read past the logical
            // end to finish the last owned record). The client detects the
            // missing x-storlet-invoked response header and filters locally.
            if let Some(r) = req.headers.remove(headers::STORLET_RANGE) {
                if let Ok(parsed) = ByteRange::parse(&r) {
                    req.headers.set(
                        "range",
                        ByteRange { start: parsed.start, end: None }.to_header(),
                    );
                }
            }
            return;
        }
        if !req.headers.contains(headers::RUN_STORLET) {
            if let Some(rule) = policy.matching_rule(
                &req.path.account,
                &req.path.container,
                req.method,
            ) {
                req.headers.set(headers::RUN_STORLET, rule.storlets.clone());
                req.headers
                    .set(headers::PARAMETERS, encode_params(&rule.params));
            }
        }
    }

    fn build_context(req: &Request) -> Result<InvocationContext> {
        let params = match req.headers.get(headers::PARAMETERS) {
            Some(h) => decode_params(h)?,
            None => HashMap::new(),
        };
        Ok(InvocationContext::new(params))
    }

    fn pipeline_names(header: &str) -> Vec<String> {
        header
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect()
    }

    /// GET with storlet — the one path. Every read is a plan: byte windows
    /// fetched in object order, each run through the head storlet with its
    /// own record-ownership window, the outputs chained and handed to the
    /// rest of the pipeline. A full scan is the *trivial plan* (one window,
    /// open-ended so the lazy filter stream can stop pulling early); fresh
    /// zone-map stats yield a few bounded windows instead.
    fn run_get(
        &self,
        names: &[String],
        mut req: Request,
        next: &dyn Handler,
    ) -> Result<Response> {
        // Overload shedding: when the engine's admission slots are
        // exhausted the request is refused *before* any backend read, and
        // the degraded marker tells the client which filters to apply
        // itself after a plain GET. (PUT-path ETL is never shed: dropping
        // it would change what gets stored.)
        let Some(permit) = self.engine.try_admit() else {
            return Ok(Response::unavailable().with_header(headers::DEGRADED, names.join(",")));
        };
        let (head_name, rest) = names
            .split_first()
            .ok_or_else(|| ScoopError::Storlet("empty storlet pipeline".into()))?;
        let _span = scoop_common::telemetry::span(
            req.headers.get(scoop_common::headers::TRACE),
            scoop_common::telemetry::layers::STORLET,
            format!("GET pipeline [{}]", names.join(",")),
        );
        let ctx = Self::build_context(&req)?;
        // Logical range: X-Storlet-Range wins, else a plain Range is promoted
        // to a storlet-handled (record-aligned) range.
        let logical = match req.headers.remove(headers::STORLET_RANGE) {
            Some(h) => Some(ByteRange::parse(&h)?),
            None => req.range()?,
        };
        req.headers.remove("range");
        // Don't re-run downstream.
        req.headers.remove(headers::RUN_STORLET);
        req.headers.remove(headers::PARAMETERS);
        req.headers.remove(headers::RUN_ON);
        let (start, end) = logical.map_or((0, None), |r| (r.start, r.end));

        let skip = self.engine.skip_stats();
        let mut plan = self.plan_get(head_name, &req, next, &ctx, start, end);
        let (parts, headers, scanned_bytes) = 'plan: loop {
            let mut parts: Vec<ByteStream> = Vec::new();
            let mut headers = plan.headers.take();
            let mut scanned_bytes = 0u64;
            for (first, last) in std::mem::take(&mut plan.windows) {
                let mut get = req.clone();
                // A whole-object read nobody ranged goes out as the plain
                // GET it is; everything else names its window.
                if logical.is_some() || last.is_some() {
                    get.headers.set("range", ByteRange { start: first, end: last }.to_header());
                }
                let resp = match next.call(get) {
                    Ok(resp) if resp.is_success() => resp,
                    // A stats plan that cannot be read is abandoned — once —
                    // for the trivial plan, which has no fallback of its own.
                    _ if plan.blocks.is_some() => {
                        skip.record_fallback();
                        plan = GetPlan::trivial(start);
                        continue 'plan;
                    }
                    other => return other,
                };
                // Guard the raw body before it enters the filter: a backend
                // that cut the stream short would otherwise look like an
                // early EOF and silently drop records. `enforce_length`
                // turns that into a retryable error; the filter stopping
                // early never trips it. A bounded window knows its length,
                // an open-ended one trusts what the backend advertised.
                let expected = match last {
                    Some(last) => {
                        let len = last.saturating_add(1).saturating_sub(first);
                        scanned_bytes += len;
                        Some(len)
                    }
                    None => resp.headers.get("content-length").and_then(|l| l.parse::<u64>().ok()),
                };
                let body = match expected {
                    Some(len) => stream::enforce_length(resp.body, len),
                    None => resp.body,
                };
                // The window's share of the logical range. A window cut at a
                // block boundary past the request start begins at a record
                // it *owns*: alignment discard would lose it.
                let window_ctx = InvocationContext {
                    range_start: first,
                    range_end: match (last, end) {
                        (Some(last), Some(end)) => Some(last.min(end)),
                        (last, end) => last.or(end),
                    },
                    pre_aligned: first > start,
                    metrics: Arc::new(InvocationMetrics::default()),
                    ..ctx.clone()
                };
                parts.push(self.engine.invoke(head_name, body, window_ctx)?);
                headers.get_or_insert(resp.headers);
            }
            break (parts, headers.unwrap_or_default(), scanned_bytes);
        };
        // Downstream stages see one concatenated derived stream, whatever
        // the plan was.
        let chained: ByteStream = Box::new(parts.into_iter().flatten());
        let body = if rest.is_empty() {
            chained
        } else {
            let rest: Vec<&str> = rest.iter().map(String::as_str).collect();
            self.engine.invoke_pipeline(&rest, chained, &ctx)?
        };
        let mut out = Response { status: 200, headers, body: permit.attach(body) };
        // Filtered length is unknown until the stream is consumed.
        out.headers.remove("content-length");
        out.headers.remove("content-range");
        // A stats plan answers with its HEAD's headers; like a plain GET,
        // the response carries no zone-map stats.
        out.headers.remove_prefix(scoop_common::headers::SCOOP_STATS_PREFIX);
        if let Some(blocks) = &plan.blocks {
            skip.record_plan(blocks.blocks_pruned, blocks.blocks_scanned, blocks.bytes_skipped);
            out.headers.set(scoop_common::headers::SCANNED_BYTES, scanned_bytes.to_string());
            out.headers.set(scoop_common::headers::SKIPPED_BYTES, blocks.bytes_skipped.to_string());
        }
        out.headers.set(headers::INVOKED, names.join(","));
        Ok(out)
    }

    /// Decide the windows a storlet GET reads. Block skipping applies when
    /// the pipeline head is `csvfilter` with a parseable spec, and a HEAD
    /// shows the object carries zone-map stats that are fresh and consistent
    /// with the query's schema. Otherwise the answer is the trivial plan, so
    /// a bad or stale index is never a correctness event, only a performance
    /// one (an unparseable spec fails there with the invocation error).
    fn plan_get(
        &self,
        head_name: &str,
        req: &Request,
        next: &dyn Handler,
        ctx: &InvocationContext,
        start: u64,
        end: Option<u64>,
    ) -> GetPlan {
        let trivial = GetPlan::trivial(start);
        if head_name != "csvfilter" {
            return trivial;
        }
        let Some(spec) = ctx.params.get("spec").and_then(|h| PushdownSpec::from_header(h).ok())
        else {
            return trivial;
        };
        let Some(schema) = ctx.params.get("schema") else {
            return trivial;
        };
        // Backend trouble on the HEAD: let the read itself surface it.
        let head = Request { method: Method::Head, ..req.clone() };
        let head = match next.call(head) {
            Ok(resp) if resp.is_success() => resp.headers,
            _ => return trivial,
        };
        let skip = self.engine.skip_stats();
        // Absent, undecodable or corrupt stats, or stats that do not describe
        // these bytes under this query's layout: full scan.
        let object_len = head.get("content-length").and_then(|l| l.parse::<u64>().ok());
        let fresh = self.decoded_stats(&req.path, &head, object_len).filter(|stats| {
            stats.describes(head.get("etag"), object_len, schema.split(','), spec.has_header)
        });
        let Some(stats) = fresh else {
            skip.record_fallback();
            return trivial;
        };
        let blocks = plan_ranges(&stats, spec.predicate.as_ref(), start, end);
        // The first surviving block may begin before the requested start;
        // fetch from the start and let newline alignment drop the unowned
        // prefix, exactly like the trivial plan.
        let windows = blocks
            .ranges
            .iter()
            .map(|&(rs, re)| (rs.max(start), Some(re.saturating_sub(1))))
            .collect();
        GetPlan { windows, blocks: Some(blocks), headers: Some(head) }
    }

    /// The decoded index a HEAD's headers carry, through the middleware's
    /// cache. A version whose chunks do not decode is a negative entry;
    /// one without chunks never reaches the cache.
    fn decoded_stats(
        &self,
        path: &ObjectPath,
        head: &Headers,
        object_len: Option<u64>,
    ) -> Option<Arc<ObjectStats>> {
        let fingerprint = metadata_fingerprint(head.iter())?;
        let etag = head.get("etag").unwrap_or_default().to_string();
        self.stats.get_or_load((path.clone(), etag, object_len, fingerprint), || {
            Ok(ObjectStats::from_metadata(head.iter()).unwrap_or(None))
        })
    }

    /// PUT with storlet (ETL path): transform the body once, then store the
    /// transformed object.
    fn run_put(
        &self,
        names: &[String],
        mut req: Request,
        next: &dyn Handler,
    ) -> Result<Response> {
        let _span = scoop_common::telemetry::span(
            req.headers.get(scoop_common::headers::TRACE),
            scoop_common::telemetry::layers::STORLET,
            format!("PUT pipeline [{}]", names.join(",")),
        );
        let ctx = Self::build_context(&req)?;
        let body = req.body.take().unwrap_or_default();
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let transformed = self
            .engine
            .invoke_pipeline(&name_refs, stream::once(body), &ctx)?;
        let new_body = stream::collect(transformed)?;
        req.body = Some(new_body);
        // Indexing storlets publish metadata for the stored object (zone-map
        // stats chunks) through the context's out-channel; attach it to the
        // upstream PUT so it persists and replicates with the object.
        for (k, v) in ctx.extra_meta.lock().iter() {
            req.headers.set(k, v.clone());
        }
        let invoked = names.join(",");
        req.headers.remove(headers::RUN_STORLET);
        req.headers.remove(headers::PARAMETERS);
        req.headers.remove(headers::RUN_ON);
        let resp = next.call(req)?;
        Ok(resp.with_header(headers::INVOKED, invoked))
    }
}

impl Middleware for StorletMiddleware {
    fn name(&self) -> &str {
        "storlets"
    }

    fn handle(&self, mut req: Request, next: &dyn Handler) -> Result<Response> {
        let stage = req
            .headers
            .get(STAGE_HEADER)
            .unwrap_or(STAGE_OBJECT)
            .to_string();
        if stage == STAGE_PROXY {
            self.apply_policy(&mut req);
        }
        let Some(run_header) = req.headers.get(headers::RUN_STORLET).map(str::to_string)
        else {
            return next.call(req);
        };
        let names = Self::pipeline_names(&run_header);
        if names.is_empty() {
            return next.call(req);
        }
        match req.method {
            Method::Get => {
                // GET storlets honour the requested execution stage.
                let run_on = req
                    .headers
                    .get(headers::RUN_ON)
                    .unwrap_or(STAGE_OBJECT)
                    .to_string();
                if run_on != stage {
                    return next.call(req);
                }
                self.run_get(&names, req, next)
            }
            // PUT-path ETL always runs at the proxy, *before* replication
            // fan-out, so each replica stores the transformed object.
            Method::Put if stage == STAGE_PROXY => self.run_put(&names, req, next),
            _ => next.call(req),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use scoop_csv::{Predicate, PushdownSpec};
    use scoop_objectstore::middleware::Pipeline;
    use scoop_objectstore::{ObjectPath, SwiftCluster, SwiftConfig};

    const DATA: &[u8] = b"vid,date,index,city\n\
        m1,2015-01-03,100.5,Rotterdam\n\
        m2,2015-01-04,200.0,Paris\n\
        m3,2015-02-01,50.0,Utrecht\n";

    fn cluster_with_storlets() -> (Arc<SwiftCluster>, Arc<StorletEngine>, Arc<PolicyStore>) {
        let cluster = SwiftCluster::new(SwiftConfig::default()).unwrap();
        let engine = Arc::new(StorletEngine::with_builtin_filters());
        let policy = Arc::new(PolicyStore::new());
        let mut obj_pipe = Pipeline::new();
        obj_pipe.push(Arc::new(StorletMiddleware::new(engine.clone())));
        cluster.set_object_pipeline(obj_pipe);
        let mut proxy_pipe = Pipeline::new();
        proxy_pipe.push(Arc::new(StorletMiddleware::with_policy(
            engine.clone(),
            policy.clone(),
        )));
        cluster.set_proxy_pipeline(proxy_pipe);
        (cluster, engine, policy)
    }

    fn csv_params() -> HashMap<String, String> {
        let spec = PushdownSpec {
            columns: Some(vec!["vid".into(), "index".into()]),
            predicate: Some(Predicate::Like("date".into(), "2015-01%".into())),
            has_header: true,
        };
        let mut p = HashMap::new();
        p.insert("spec".to_string(), spec.to_header());
        p.insert("schema".to_string(), "vid,date,index,city".to_string());
        p
    }

    fn path() -> ObjectPath {
        ObjectPath::new("AUTH_gp", "meters", "jan.csv").unwrap()
    }

    #[test]
    fn params_roundtrip() {
        let mut p = HashMap::new();
        p.insert("spec".to_string(), "hdr=1;cols=a,b;pred=(eq c s:x=y)".to_string());
        p.insert("schema".to_string(), "a,b,c".to_string());
        let enc = encode_params(&p);
        assert_eq!(decode_params(&enc).unwrap(), p);
        assert!(decode_params("novalue").is_err());
        assert!(decode_params("k=%zz").is_err());
        assert!(decode_params("").unwrap().is_empty());
    }

    #[test]
    fn get_pushdown_at_object_stage() {
        let (cluster, engine, _) = cluster_with_storlets();
        let client = cluster.anonymous_client("AUTH_gp");
        client.create_container("meters").unwrap();
        client
            .put_object("meters", "jan.csv", Bytes::from_static(DATA))
            .unwrap();

        let req = scoop_objectstore::Request::get(path())
            .with_header(headers::RUN_STORLET, "csvfilter")
            .with_header(headers::PARAMETERS, encode_params(&csv_params()));
        let resp = client.request(req).unwrap();
        assert_eq!(resp.headers.get(headers::INVOKED), Some("csvfilter"));
        assert_eq!(resp.read_body().unwrap(), "m1,100.5\nm2,200.0\n");
        assert_eq!(engine.stats("csvfilter").invocations, 1);
    }

    #[test]
    fn get_pushdown_at_proxy_stage() {
        let (cluster, engine, _) = cluster_with_storlets();
        let client = cluster.anonymous_client("AUTH_gp");
        client.create_container("meters").unwrap();
        client
            .put_object("meters", "jan.csv", Bytes::from_static(DATA))
            .unwrap();
        let req = scoop_objectstore::Request::get(path())
            .with_header(headers::RUN_STORLET, "csvfilter")
            .with_header(headers::RUN_ON, "proxy")
            .with_header(headers::PARAMETERS, encode_params(&csv_params()));
        let resp = client.request(req).unwrap();
        assert_eq!(resp.read_body().unwrap(), "m1,100.5\nm2,200.0\n");
        assert_eq!(engine.stats("csvfilter").invocations, 1);
    }

    #[test]
    fn ranged_pushdown_is_record_aligned() {
        let (cluster, _, _) = cluster_with_storlets();
        let client = cluster.anonymous_client("AUTH_gp");
        client.create_container("meters").unwrap();
        client
            .put_object("meters", "jan.csv", Bytes::from_static(DATA))
            .unwrap();
        // Collect ranged outputs over a 30-byte split plan; concatenation
        // must equal the unranged result.
        let whole = {
            let req = scoop_objectstore::Request::get(path())
                .with_header(headers::RUN_STORLET, "csvfilter")
                .with_header(headers::PARAMETERS, encode_params(&csv_params()));
            client.request(req).unwrap().read_body().unwrap()
        };
        let mut combined = Vec::new();
        for (s, e) in scoop_csv::split::plan_splits(DATA.len() as u64, 30) {
            let req = scoop_objectstore::Request::get(path())
                .with_header(headers::RUN_STORLET, "csvfilter")
                .with_header(headers::PARAMETERS, encode_params(&csv_params()))
                .with_header(
                    headers::STORLET_RANGE,
                    ByteRange { start: s, end: Some(e - 1) }.to_header(),
                );
            combined.extend_from_slice(&client.request(req).unwrap().read_body().unwrap());
        }
        assert_eq!(combined, whole);
    }

    #[test]
    fn put_path_etl_transforms_before_storage() {
        let (cluster, engine, _) = cluster_with_storlets();
        let client = cluster.anonymous_client("AUTH_gp");
        client.create_container("meters").unwrap();
        let raw = b"vid,date,index\n m1 ,2015-01-03, 5 \nbad,row\n";
        let mut params = HashMap::new();
        params.insert("schema".to_string(), "vid,date,index".to_string());
        params.insert("header".to_string(), "1".to_string());
        let req = scoop_objectstore::Request::put(path(), Bytes::from_static(raw))
            .with_header(headers::RUN_STORLET, "etlcleanse")
            .with_header(headers::PARAMETERS, encode_params(&params));
        let resp = client.request(req).unwrap();
        assert_eq!(resp.status, 201);
        assert_eq!(resp.headers.get(headers::INVOKED), Some("etlcleanse"));
        // Stored object is the cleansed version.
        let got = client.get_object("meters", "jan.csv").unwrap();
        assert_eq!(got.read_body().unwrap(), "vid,date,index\nm1,2015-01-03,5\n");
        // ETL ran exactly once (at the proxy), not once per replica.
        assert_eq!(engine.stats("etlcleanse").invocations, 1);
    }

    #[test]
    fn pipelined_filters_compose() {
        let (cluster, engine, _) = cluster_with_storlets();
        let client = cluster.anonymous_client("AUTH_gp");
        client.create_container("meters").unwrap();
        client
            .put_object("meters", "jan.csv", Bytes::from_static(DATA))
            .unwrap();
        let mut params = csv_params();
        params.insert("pattern".to_string(), "m1".to_string());
        // csvfilter then linegrep: filtered rows further narrowed to m1.
        let req = scoop_objectstore::Request::get(path())
            .with_header(headers::RUN_STORLET, "csvfilter,linegrep")
            .with_header(headers::PARAMETERS, encode_params(&params));
        let resp = client.request(req).unwrap();
        assert_eq!(resp.read_body().unwrap(), "m1,100.5\n");
        assert_eq!(engine.stats("csvfilter").invocations, 1);
        assert_eq!(engine.stats("linegrep").invocations, 1);
    }

    #[test]
    fn bronze_tenants_get_plain_ingestion() {
        let (cluster, engine, policy) = cluster_with_storlets();
        policy.set_tier("AUTH_gp", Tier::Bronze);
        let client = cluster.anonymous_client("AUTH_gp");
        client.create_container("meters").unwrap();
        client
            .put_object("meters", "jan.csv", Bytes::from_static(DATA))
            .unwrap();
        let req = scoop_objectstore::Request::get(path())
            .with_header(headers::RUN_STORLET, "csvfilter")
            .with_header(headers::PARAMETERS, encode_params(&csv_params()));
        let resp = client.request(req).unwrap();
        // Full object returned; no storlet ran.
        assert_eq!(resp.read_body().unwrap(), DATA);
        assert_eq!(engine.stats("csvfilter").invocations, 0);
    }

    #[test]
    fn policy_auto_applies_put_etl() {
        let (cluster, engine, policy) = cluster_with_storlets();
        let mut params = HashMap::new();
        params.insert("schema".to_string(), "vid,date,index".to_string());
        params.insert("header".to_string(), "1".to_string());
        policy.add_rule(crate::policy::PolicyRule {
            account: "AUTH_gp".into(),
            container: Some("meters".into()),
            method: Method::Put,
            storlets: "etlcleanse".into(),
            params,
        });
        let client = cluster.anonymous_client("AUTH_gp");
        client.create_container("meters").unwrap();
        // Plain PUT with no storlet headers — the policy injects the ETL.
        client
            .put_object(
                "meters",
                "jan.csv",
                Bytes::from_static(b"vid,date,index\n a ,b, 1 \n"),
            )
            .unwrap();
        let got = client.get_object("meters", "jan.csv").unwrap();
        assert_eq!(got.read_body().unwrap(), "vid,date,index\na,b,1\n");
        assert_eq!(engine.stats("etlcleanse").invocations, 1);
    }

    #[test]
    fn saturated_engine_sheds_with_degraded_marker() {
        let (cluster, engine, _) = cluster_with_storlets();
        let client = cluster.anonymous_client("AUTH_gp");
        client.create_container("meters").unwrap();
        client
            .put_object("meters", "jan.csv", Bytes::from_static(DATA))
            .unwrap();
        // Zero slots: every pushdown GET is shed before touching the disk.
        engine.set_admission_limits(Some(0), 0);
        let req = scoop_objectstore::Request::get(path())
            .with_header(headers::RUN_STORLET, "csvfilter")
            .with_header(headers::PARAMETERS, encode_params(&csv_params()));
        let resp = client.request(req).unwrap();
        assert_eq!(resp.status, 503);
        assert_eq!(resp.headers.get(headers::DEGRADED), Some("csvfilter"));
        assert!(resp.headers.get(headers::INVOKED).is_none());
        assert_eq!(engine.stats("csvfilter").invocations, 0);
        assert!(engine.admission_sheds() > 0);
        // A plain GET (the client's fallback) is unaffected by shedding.
        let full = client.get_object("meters", "jan.csv").unwrap();
        assert_eq!(full.read_body().unwrap(), DATA);
        // PUT-path ETL keeps running even while saturated.
        let mut params = HashMap::new();
        params.insert("schema".to_string(), "vid,date,index".to_string());
        params.insert("header".to_string(), "1".to_string());
        let put = scoop_objectstore::Request::put(
            ObjectPath::new("AUTH_gp", "meters", "etl.csv").unwrap(),
            Bytes::from_static(b"vid,date,index\n a ,b, 1 \n"),
        )
        .with_header(headers::RUN_STORLET, "etlcleanse")
        .with_header(headers::PARAMETERS, encode_params(&params));
        assert_eq!(client.request(put).unwrap().status, 201);
        // Lifting the limit restores pushdown.
        engine.set_admission_limits(None, 0);
        let req = scoop_objectstore::Request::get(path())
            .with_header(headers::RUN_STORLET, "csvfilter")
            .with_header(headers::PARAMETERS, encode_params(&csv_params()));
        let resp = client.request(req).unwrap();
        assert_eq!(resp.headers.get(headers::INVOKED), Some("csvfilter"));
    }

    /// 400 rows with a clustered `index` column (0..400 ascending), indexed
    /// at PUT time into ~512-byte blocks.
    fn indexed_fixture() -> (Arc<SwiftCluster>, Arc<StorletEngine>, Vec<u8>) {
        let (cluster, engine, _) = cluster_with_storlets();
        let client = cluster.anonymous_client("AUTH_gp");
        client.create_container("meters").unwrap();
        let mut data = Vec::from(&b"vid,date,index,city\n"[..]);
        for i in 0..400 {
            data.extend_from_slice(
                format!("m{i},2015-01-{:02},{i},city{}\n", i % 28 + 1, i % 7).as_bytes(),
            );
        }
        let mut params = HashMap::new();
        params.insert("schema".to_string(), "vid,date,index,city".to_string());
        params.insert("header".to_string(), "1".to_string());
        params.insert("block".to_string(), "512".to_string());
        let put = scoop_objectstore::Request::put(path(), Bytes::from(data.clone()))
            .with_header(headers::RUN_STORLET, "zoneindex")
            .with_header(headers::PARAMETERS, encode_params(&params));
        assert_eq!(client.request(put).unwrap().status, 201);
        (cluster, engine, data)
    }

    fn eq_index_spec(v: i64) -> PushdownSpec {
        PushdownSpec {
            columns: None,
            predicate: Some(Predicate::Eq("index".into(), scoop_csv::Value::Int(v))),
            has_header: true,
        }
    }

    fn pushdown_get(spec: &PushdownSpec) -> scoop_objectstore::Request {
        let mut p = HashMap::new();
        p.insert("spec".to_string(), spec.to_header());
        p.insert("schema".to_string(), "vid,date,index,city".to_string());
        scoop_objectstore::Request::get(path())
            .with_header(headers::RUN_STORLET, "csvfilter")
            .with_header(headers::PARAMETERS, encode_params(&p))
    }

    #[test]
    fn planned_get_skips_blocks_and_matches_full_scan() {
        let (cluster, engine, data) = indexed_fixture();
        let client = cluster.anonymous_client("AUTH_gp");
        let spec = eq_index_spec(123);
        let resp = client.request(pushdown_get(&spec)).unwrap();
        assert_eq!(resp.headers.get(headers::INVOKED), Some("csvfilter"));
        let scanned: u64 = resp
            .headers
            .get(scoop_common::headers::SCANNED_BYTES)
            .unwrap()
            .parse()
            .unwrap();
        let skipped: u64 = resp
            .headers
            .get(scoop_common::headers::SKIPPED_BYTES)
            .unwrap()
            .parse()
            .unwrap();
        let body = resp.read_body().unwrap();
        // Byte-identical to the reference full scan.
        let header: Vec<String> =
            "vid,date,index,city".split(',').map(str::to_string).collect();
        let (reference, _) =
            scoop_csv::filter::filter_buffer(&spec, &header, &data, true).unwrap();
        assert_eq!(&body[..], &reference[..]);
        assert!(body.starts_with(&b"m123,"[..]));
        // The point of the exercise: almost everything was skipped.
        assert_eq!(scanned + skipped, data.len() as u64);
        assert!(
            scanned < data.len() as u64 / 5,
            "scanned {scanned} of {} bytes",
            data.len()
        );
        let skip = engine.skip_stats();
        assert_eq!(skip.plans(), 1);
        assert_eq!(skip.fallbacks(), 0);
        assert!(skip.blocks_pruned() > 0);
        assert_eq!(skip.bytes_skipped(), skipped);
        // The filter never saw the pruned bytes.
        assert!(engine.stats("csvfilter").bytes_in <= scanned);
    }

    #[test]
    fn planned_get_empty_plan_yields_empty_success() {
        let (cluster, engine, _) = indexed_fixture();
        let client = cluster.anonymous_client("AUTH_gp");
        // No record can match index = -5: every block is pruned.
        let resp = client.request(pushdown_get(&eq_index_spec(-5))).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.headers.get(headers::INVOKED), Some("csvfilter"));
        assert_eq!(
            resp.headers.get(scoop_common::headers::SCANNED_BYTES),
            Some("0")
        );
        assert!(resp.read_body().unwrap().is_empty());
        assert_eq!(engine.skip_stats().plans(), 1);
        assert_eq!(engine.skip_stats().blocks_scanned(), 0);
    }

    #[test]
    fn planned_ranged_splits_match_whole_object() {
        let (cluster, _, data) = indexed_fixture();
        let client = cluster.anonymous_client("AUTH_gp");
        let spec = PushdownSpec {
            columns: Some(vec!["vid".into()]),
            predicate: Some(Predicate::Gt(
                "index".into(),
                scoop_csv::Value::Int(390),
            )),
            has_header: true,
        };
        let whole = client
            .request(pushdown_get(&spec))
            .unwrap()
            .read_body()
            .unwrap();
        for split in [997u64, 2048, 5000] {
            let mut combined = Vec::new();
            for (s, e) in scoop_csv::split::plan_splits(data.len() as u64, split) {
                let req = pushdown_get(&spec).with_header(
                    headers::STORLET_RANGE,
                    ByteRange { start: s, end: Some(e - 1) }.to_header(),
                );
                combined
                    .extend_from_slice(&client.request(req).unwrap().read_body().unwrap());
            }
            assert_eq!(combined, whole, "split={split}");
        }
    }

    #[test]
    fn eight_tasks_over_one_object_skip_it_once() {
        let (cluster, engine, data) = indexed_fixture();
        let client = cluster.anonymous_client("AUTH_gp");
        let len = data.len() as u64;
        let block = 512;
        let spec = eq_index_spec(123);
        let (mut scanned, mut skipped) = (0u64, 0u64);
        let splits = scoop_csv::split::plan_splits(len, len.div_ceil(8));
        assert_eq!(splits.len(), 8);
        for &(s, e) in &splits {
            let req = pushdown_get(&spec).with_header(
                headers::STORLET_RANGE,
                ByteRange { start: s, end: Some(e - 1) }.to_header(),
            );
            let resp = client.request(req).unwrap();
            let header = |name: &str| resp.headers.get(name).unwrap().parse::<u64>().unwrap();
            scanned += header(scoop_common::headers::SCANNED_BYTES);
            skipped += header(scoop_common::headers::SKIPPED_BYTES);
            resp.read_body().unwrap();
        }
        // Skipped bytes partition the pruned part of the object; a scan
        // reads its surviving blocks whole, so it may overshoot its window
        // by less than a block.
        assert!(skipped < len, "skipped {skipped} of {len} bytes");
        assert!(skipped + scanned >= len, "skipped {skipped} + scanned {scanned} < {len}");
        assert!(skipped + scanned < len + 8 * block, "skipped {skipped} + scanned {scanned}");
        assert_eq!(engine.skip_stats().bytes_skipped(), skipped);
        // What a single whole-object GET skips, give or take a boundary byte
        // a task: a block's last byte can lie in the window after the one
        // that owns its records.
        let whole = client.request(pushdown_get(&spec)).unwrap();
        let whole: u64 =
            whole.headers.get(scoop_common::headers::SKIPPED_BYTES).unwrap().parse().unwrap();
        assert!((whole..=whole + 8).contains(&skipped), "{skipped} against {whole}");
    }

    #[test]
    fn stale_stats_fall_back_to_full_scan() {
        let (cluster, engine, _) = indexed_fixture();
        let client = cluster.anonymous_client("AUTH_gp");
        // Read the stored stats chunks, then overwrite the object with new
        // bytes while replaying the OLD stats as user metadata: present but
        // describing a different etag.
        let head = client
            .request(scoop_objectstore::Request::head(path()))
            .unwrap();
        let old_stats: Vec<(String, String)> = head
            .headers
            .iter()
            .filter(|(k, _)| k.starts_with(scoop_common::headers::SCOOP_STATS_PREFIX))
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        assert!(!old_stats.is_empty(), "fixture must be indexed");
        let new_data = b"vid,date,index,city\nm0,2016-01-01,123,newcity\n";
        let mut put = scoop_objectstore::Request::put(path(), Bytes::from_static(new_data));
        for (k, v) in &old_stats {
            put = put.with_header(k.as_str(), v.as_str());
        }
        assert_eq!(client.request(put).unwrap().status, 201);

        let before = engine.skip_stats().fallbacks();
        let spec = eq_index_spec(123);
        let resp = client.request(pushdown_get(&spec)).unwrap();
        assert_eq!(resp.headers.get(headers::INVOKED), Some("csvfilter"));
        // No skip headers: this was a full scan...
        assert!(resp.headers.get(scoop_common::headers::SKIPPED_BYTES).is_none());
        // ...with byte-identical results over the NEW object.
        let header: Vec<String> =
            "vid,date,index,city".split(',').map(str::to_string).collect();
        let (reference, _) =
            scoop_csv::filter::filter_buffer(&spec, &header, new_data, true).unwrap();
        assert_eq!(resp.read_body().unwrap(), reference);
        assert_eq!(engine.skip_stats().fallbacks(), before + 1);
    }

    /// Zone-map stats ride HEADs only: every chunk the indexer published is
    /// on the HEAD, and no GET — plain, ranged, trivial-plan or stats-plan
    /// storlet — echoes any of them.
    #[test]
    fn stats_reach_heads_but_no_get() {
        let (cluster, engine, data) = indexed_fixture();
        let client = cluster.anonymous_client("AUTH_gp");
        let stats_of = |h: &Headers| -> Vec<(String, String)> {
            h.with_prefix(scoop_common::headers::SCOOP_STATS_PREFIX)
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect()
        };
        let mut params = HashMap::new();
        params.insert("schema".to_string(), "vid,date,index,city".to_string());
        params.insert("header".to_string(), "1".to_string());
        params.insert("block".to_string(), "512".to_string());
        let ctx = InvocationContext::new(params);
        let indexed = engine.invoke("zoneindex", stream::once(Bytes::from(data)), ctx.clone());
        stream::collect(indexed.unwrap()).unwrap();
        let mut published = ctx.extra_meta.lock().clone();
        published.sort();
        assert!(published.len() > 1, "the fixture's stats span several chunks");

        let head = client.request(Request::head(path())).unwrap();
        assert_eq!(stats_of(&head.headers), published);

        let ranged = Request::get(path()).with_range(ByteRange { start: 10, end: Some(99) });
        let trivial = Request::get(path())
            .with_header(headers::RUN_STORLET, "linegrep")
            .with_header(headers::PARAMETERS, "pattern=m1");
        let planned = pushdown_get(&eq_index_spec(123));
        for req in [Request::get(path()), ranged, trivial, planned] {
            let resp = client.request(req).unwrap();
            assert!(resp.is_success());
            assert_eq!(stats_of(&resp.headers), Vec::new());
            resp.read_body().unwrap();
        }
    }

    /// Fails GETs with a bounded range (the stats plan's windows) from the
    /// second one on — and, with `all`, every other GET too; counts both.
    #[derive(Default)]
    struct FailGets {
        bounded: std::sync::atomic::AtomicU32,
        other: std::sync::atomic::AtomicU32,
        all: bool,
    }

    impl Middleware for FailGets {
        fn name(&self) -> &str {
            "fail-gets"
        }

        fn handle(&self, req: Request, next: &dyn Handler) -> Result<Response> {
            use std::sync::atomic::Ordering::Relaxed;
            let fail = match (req.method, req.range()?) {
                (Method::Get, Some(ByteRange { end: Some(_), .. })) => {
                    self.bounded.fetch_add(1, Relaxed) >= 1
                }
                (Method::Get, _) => {
                    self.other.fetch_add(1, Relaxed);
                    self.all
                }
                _ => false,
            };
            if fail {
                return Err(ScoopError::Io(std::io::Error::other("injected read failure")));
            }
            next.call(req)
        }
    }

    /// Run `req`; report its body (or error kind) and how far the skip
    /// counters `[plans, fallbacks, blocks_pruned, blocks_scanned]` moved.
    fn observe(
        engine: &StorletEngine,
        client: &scoop_objectstore::SwiftClient,
        req: Request,
    ) -> (std::result::Result<Vec<u8>, &'static str>, [u64; 4]) {
        let counters = || {
            let s = engine.skip_stats();
            [s.plans(), s.fallbacks(), s.blocks_pruned(), s.blocks_scanned()]
        };
        let before = counters();
        let got = client.request(req).and_then(|resp| {
            assert!(resp.headers.get(scoop_common::headers::SKIPPED_BYTES).is_none());
            assert!(resp.headers.get(headers::INVOKED).is_some());
            resp.read_body()
        });
        let moved = counters();
        let got = got.map(|body| body.to_vec()).map_err(|e| e.kind());
        (got, std::array::from_fn(|i| moved[i] - before[i]))
    }

    /// Every reason the stats plan is not used lands on the same loop with
    /// the trivial plan: the bytes of the reference full scan, and the skip
    /// counters moving exactly as that reason always moved them.
    #[test]
    fn every_trivial_plan_reason_reads_like_the_full_scan() {
        use std::sync::atomic::Ordering;
        const SCHEMA: &str = "vid,date,index,city";
        let spec = eq_index_spec(123);
        let get = |run: &str, params: &[(&str, &str)]| {
            let p = params.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
            Request::get(path())
                .with_header(headers::RUN_STORLET, run)
                .with_header(headers::PARAMETERS, encode_params(&p))
        };
        let full_scan = |schema: &str, data: &[u8]| {
            let header: Vec<String> = schema.split(',').map(str::to_string).collect();
            scoop_csv::filter::filter_buffer(&spec, &header, data, true).unwrap().0
        };
        let (cluster, engine, data) = indexed_fixture();
        let client = cluster.anonymous_client("AUTH_gp");
        let spec_h = spec.to_header();

        // Schema mismatch: the query names the columns differently.
        let other = "vid,date,index,town";
        let req = get("csvfilter", &[("spec", &spec_h), ("schema", other)]);
        assert_eq!(observe(&engine, &client, req), (Ok(full_scan(other, &data)), [0, 1, 0, 0]));
        // A pipeline head other than csvfilter never asks for a plan.
        let req = get("linegrep", &[("pattern", "m123,")]);
        let m123 = b"m123,2015-01-12,123,city4\n".to_vec();
        assert_eq!(observe(&engine, &client, req), (Ok(m123), [0, 0, 0, 0]));
        // An unparseable spec still fails with the invocation error.
        let req = get("csvfilter", &[("spec", "pred=(((("), ("schema", SCHEMA)]);
        assert_eq!(observe(&engine, &client, req), (Err("invalid_request"), [0, 0, 0, 0]));

        // A range read failing mid-plan (two far-apart surviving blocks, the
        // second window's GET fails): one fallback, one full scan, no loop.
        let two_blocks = PushdownSpec {
            predicate: Some(Predicate::Or(
                Box::new(Predicate::Eq("index".into(), scoop_csv::Value::Int(5))),
                Box::new(Predicate::Eq("index".into(), scoop_csv::Value::Int(395))),
            )),
            ..spec.clone()
        };
        let header: Vec<String> = SCHEMA.split(',').map(str::to_string).collect();
        let (expected, _) =
            scoop_csv::filter::filter_buffer(&two_blocks, &header, &data, true).unwrap();
        for all in [false, true] {
            let failer = Arc::new(FailGets { all, ..Default::default() });
            let mut pipe = Pipeline::new();
            pipe.push(Arc::new(StorletMiddleware::new(engine.clone())));
            pipe.push(failer.clone());
            cluster.set_object_pipeline(pipe);
            let seen = observe(&engine, &client, pushdown_get(&two_blocks));
            let gets = |c: &std::sync::atomic::AtomicU32| c.load(Ordering::Relaxed);
            if all {
                // The trivial plan has no fallback of its own: its failure
                // surfaces once the proxy has tried each replica.
                let replicas = cluster.config().replicas as u64;
                assert_eq!(seen, (Err("io"), [0, replicas, 0, 0]));
                assert_eq!(gets(&failer.other) as u64, replicas);
            } else {
                assert_eq!(seen, (Ok(expected.clone()), [0, 1, 0, 0]));
                assert_eq!((gets(&failer.bounded), gets(&failer.other)), (2, 1));
            }
        }

        // An object nobody indexed: the HEAD finds no stats.
        let (cluster, engine, _) = cluster_with_storlets();
        let client = cluster.anonymous_client("AUTH_gp");
        client.create_container("meters").unwrap();
        client.put_object("meters", "jan.csv", Bytes::from(data.clone())).unwrap();
        let seen = observe(&engine, &client, pushdown_get(&spec));
        assert_eq!(seen, (Ok(full_scan(SCHEMA, &data)), [0, 1, 0, 0]));
    }

    #[test]
    fn planned_get_composes_with_downstream_pipeline() {
        let (cluster, _, data) = indexed_fixture();
        let client = cluster.anonymous_client("AUTH_gp");
        let spec = PushdownSpec {
            columns: None,
            predicate: Some(Predicate::Gt("index".into(), scoop_csv::Value::Int(395))),
            has_header: true,
        };
        let mut p = HashMap::new();
        p.insert("spec".to_string(), spec.to_header());
        p.insert("schema".to_string(), "vid,date,index,city".to_string());
        p.insert("pattern".to_string(), "m397".to_string());
        let req = scoop_objectstore::Request::get(path())
            .with_header(headers::RUN_STORLET, "csvfilter,linegrep")
            .with_header(headers::PARAMETERS, encode_params(&p));
        let resp = client.request(req).unwrap();
        assert_eq!(resp.headers.get(headers::INVOKED), Some("csvfilter,linegrep"));
        let body = resp.read_body().unwrap();
        let expected: Vec<u8> = data
            .split(|&b| b == b'\n')
            .filter(|l| l.starts_with(b"m397,"))
            .flat_map(|l| l.iter().copied().chain(std::iter::once(b'\n')))
            .collect();
        assert_eq!(&body[..], &expected[..]);
    }

    #[test]
    fn unknown_storlet_fails_request() {
        let (cluster, _, _) = cluster_with_storlets();
        let client = cluster.anonymous_client("AUTH_gp");
        client.create_container("meters").unwrap();
        client
            .put_object("meters", "jan.csv", Bytes::from_static(DATA))
            .unwrap();
        let req = scoop_objectstore::Request::get(path())
            .with_header(headers::RUN_STORLET, "nope");
        assert!(client.request(req).is_err());
    }
}
