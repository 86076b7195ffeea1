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
use crate::planner::plan_ranges;
use crate::policy::{PolicyStore, Tier};
use scoop_common::zonestats::ObjectStats;
use scoop_common::{stream, ByteStream, Result, ScoopError};
use scoop_csv::PushdownSpec;
use scoop_objectstore::middleware::{Handler, Middleware};
use scoop_objectstore::objserver::{STAGE_HEADER, STAGE_OBJECT, STAGE_PROXY};
use scoop_objectstore::request::{ByteRange, Method, Request, Response};
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

/// Encode invocation parameters for [`headers::PARAMETERS`].
pub fn encode_params(params: &HashMap<String, String>) -> String {
    let mut keys: Vec<&String> = params.keys().collect();
    keys.sort();
    let esc = |s: &str| -> String {
        let mut out = String::with_capacity(s.len());
        for b in s.bytes() {
            match b {
                b'%' | b';' | b'=' => out.push_str(&format!("%{b:02X}")),
                _ => out.push(b as char),
            }
        }
        out
    };
    keys.iter()
        .map(|k| format!("{}={}", esc(k), esc(&params[*k])))
        .collect::<Vec<_>>()
        .join(";")
}

/// Decode [`headers::PARAMETERS`].
pub fn decode_params(header: &str) -> Result<HashMap<String, String>> {
    let unesc = |s: &str| -> Result<String> {
        let bytes = s.as_bytes();
        let mut out = Vec::with_capacity(bytes.len());
        let mut i = 0;
        while i < bytes.len() {
            if bytes[i] == b'%' {
                let hex = bytes
                    .get(i + 1..i + 3)
                    .ok_or_else(|| ScoopError::InvalidRequest("bad %-escape".into()))?;
                let v = u8::from_str_radix(
                    std::str::from_utf8(hex)
                        .map_err(|_| ScoopError::InvalidRequest("bad %-escape".into()))?,
                    16,
                )
                .map_err(|_| ScoopError::InvalidRequest("bad %-escape".into()))?;
                out.push(v);
                i += 3;
            } else {
                out.push(bytes[i]);
                i += 1;
            }
        }
        String::from_utf8(out).map_err(|_| ScoopError::InvalidRequest("non-utf8 param".into()))
    };
    let mut map = HashMap::new();
    for pair in header.split(';').filter(|p| !p.is_empty()) {
        let (k, v) = pair
            .split_once('=')
            .ok_or_else(|| ScoopError::InvalidRequest(format!("bad parameter pair '{pair}'")))?;
        map.insert(unesc(k)?, unesc(v)?);
    }
    Ok(map)
}

/// The middleware. Install one instance (sharing the engine) on both the
/// proxy and object-server pipelines.
pub struct StorletMiddleware {
    engine: Arc<StorletEngine>,
    policy: Option<Arc<PolicyStore>>,
}

impl StorletMiddleware {
    /// Middleware without policies (explicit invocation only).
    pub fn new(engine: Arc<StorletEngine>) -> Self {
        StorletMiddleware { engine, policy: None }
    }

    /// Middleware consulting a policy store at the proxy stage.
    pub fn with_policy(engine: Arc<StorletEngine>, policy: Arc<PolicyStore>) -> Self {
        StorletMiddleware { engine, policy: Some(policy) }
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

    /// GET with storlet: resolve ranges, fetch (open-ended when record
    /// alignment is needed), and wrap the response body in the filter stream.
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
        let _span = scoop_common::telemetry::span(
            req.headers.get(scoop_common::headers::TRACE),
            scoop_common::telemetry::layers::STORLET,
            format!("GET pipeline [{}]", names.join(",")),
        );
        let mut ctx = Self::build_context(&req)?;
        // Logical range: X-Storlet-Range wins, else a plain Range is promoted
        // to a storlet-handled (record-aligned) range.
        let logical = match req.headers.remove(headers::STORLET_RANGE) {
            Some(h) => Some(ByteRange::parse(&h)?),
            None => req.range()?,
        };
        req.headers.remove("range");
        // Store-side data skipping: when the object carries fresh zone-map
        // stats, serve the pushdown from a few bounded ranged GETs over the
        // surviving blocks instead of one open-ended scan. Any reason the
        // plan can't be trusted falls through to the classic path below.
        if let Some(mut planned) = self.try_planned_get(names, &req, next, &ctx, logical)? {
            planned.body = permit.attach(planned.body);
            planned.headers.set(headers::INVOKED, names.join(","));
            return Ok(planned);
        }
        if let Some(r) = logical {
            ctx.range_start = r.start;
            ctx.range_end = r.end;
            // Backend serves from the range start to EOF; the storlet's lazy
            // stream stops pulling once past the logical end.
            req.headers
                .set("range", ByteRange { start: r.start, end: None }.to_header());
        }
        // Don't re-run downstream.
        let invoked = names.join(",");
        req.headers.remove(headers::RUN_STORLET);
        req.headers.remove(headers::PARAMETERS);
        req.headers.remove(headers::RUN_ON);
        let resp = next.call(req)?;
        if !resp.is_success() {
            return Ok(resp);
        }
        // Guard the raw body before it enters the filter: a backend that cut
        // the stream short would otherwise just look like an early EOF and
        // silently drop records from the filtered output. `enforce_length`
        // turns that into a retryable error; lazy early termination by the
        // range-aligned filter is unaffected (it stops pulling, which never
        // trips the check).
        let body = match resp
            .headers
            .get("content-length")
            .and_then(|l| l.parse::<u64>().ok())
        {
            Some(expected) => stream::enforce_length(resp.body, expected),
            None => resp.body,
        };
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let body = permit.attach(self.engine.invoke_pipeline(&name_refs, body, &ctx)?);
        let mut out = Response { status: 200, headers: resp.headers, body };
        // Filtered length is unknown until the stream is consumed.
        out.headers.remove("content-length");
        out.headers.remove("content-range");
        out.headers.set(headers::INVOKED, invoked);
        Ok(out)
    }

    /// Attempt the block-skipping GET path.
    ///
    /// Applicable when the pipeline head is `csvfilter` with a parseable
    /// spec, and a HEAD shows the object carries zone-map stats that are
    /// fresh (etag and length match) and consistent with the query's schema.
    /// Returns `Ok(None)` whenever the plan cannot be trusted — the caller
    /// then runs the classic full-scan path, so a bad or stale index is
    /// never a correctness event, only a performance one.
    fn try_planned_get(
        &self,
        names: &[String],
        req: &Request,
        next: &dyn Handler,
        ctx: &InvocationContext,
        logical: Option<ByteRange>,
    ) -> Result<Option<Response>> {
        if names.first().map(String::as_str) != Some("csvfilter") {
            return Ok(None);
        }
        // An unparseable spec/schema goes down the classic path and fails
        // there with the proper invocation error.
        let Some(spec) = ctx
            .params
            .get("spec")
            .and_then(|h| PushdownSpec::from_header(h).ok())
        else {
            return Ok(None);
        };
        let Some(schema) = ctx.params.get("schema") else {
            return Ok(None);
        };
        let trace = req.headers.get(scoop_common::headers::TRACE).map(str::to_string);
        let mut head = Request::head(req.path.clone()).with_deadline(req.deadline);
        if let Some(t) = &trace {
            head = head.with_header(scoop_common::headers::TRACE, t.as_str());
        }
        let Ok(head_resp) = next.call(head) else {
            return Ok(None); // backend trouble: let the classic path surface it
        };
        if !head_resp.is_success() {
            return Ok(None);
        }
        let skip = self.engine.skip_stats();
        let stats = match ObjectStats::from_metadata(head_resp.headers.iter()) {
            Ok(Some(s)) => s,
            // Absent, undecodable, or corrupt stats: full scan.
            Ok(None) | Err(_) => {
                skip.record_fallback();
                return Ok(None);
            }
        };
        // Freshness: the stats must describe exactly the stored bytes
        // (overwrites change the etag, truncations change the length), and
        // the query must agree with the indexed schema — pruning evidence is
        // positional, so a different column layout would be unsound.
        let object_len = head_resp
            .headers
            .get("content-length")
            .and_then(|l| l.parse::<u64>().ok());
        let schema_matches = schema.split(',').map(str::trim).eq(stats
            .columns
            .iter()
            .map(String::as_str));
        if head_resp.headers.get("etag") != Some(stats.etag.as_str())
            || object_len != Some(stats.covered_len())
            || !schema_matches
            || spec.has_header != stats.has_header
        {
            skip.record_fallback();
            return Ok(None);
        }

        let (start, end) = logical.map(|r| (r.start, r.end)).unwrap_or((0, None));
        let plan = plan_ranges(&stats, spec.predicate.as_ref(), start, end);
        // Fetch every surviving coalesced range eagerly with a *bounded*
        // GET (the handler borrow cannot escape into the lazy body), then
        // chain the per-range filter streams lazily.
        let mut parts: Vec<ByteStream> = Vec::new();
        let mut scanned_bytes = 0u64;
        for &(rs, re) in &plan.ranges {
            // The first surviving block may begin before the requested
            // start; fetch from the start and let newline alignment drop
            // the unowned prefix, exactly like the classic path.
            let fetch_start = rs.max(start);
            let range_last = re.saturating_sub(1);
            let mut get = Request::get(req.path.clone())
                .with_deadline(req.deadline)
                .with_range(ByteRange { start: fetch_start, end: Some(range_last) });
            if let Some(t) = &trace {
                get = get.with_header(scoop_common::headers::TRACE, t.as_str());
            }
            let Ok(resp) = next.call(get) else {
                skip.record_fallback();
                return Ok(None);
            };
            if !resp.is_success() {
                skip.record_fallback();
                return Ok(None);
            }
            let expected = re.saturating_sub(fetch_start);
            scanned_bytes += expected;
            let body = stream::enforce_length(resp.body, expected);
            // A range cut at a block boundary past the request start begins
            // at a record the range *owns*: alignment discard would lose it.
            let range_ctx = InvocationContext {
                range_start: fetch_start,
                range_end: Some(end.map_or(range_last, |e| e.min(range_last))),
                pre_aligned: fetch_start > start,
                metrics: Arc::new(InvocationMetrics::default()),
                ..ctx.clone()
            };
            parts.push(self.engine.invoke("csvfilter", body, range_ctx)?);
        }
        let chained: ByteStream = Box::new(parts.into_iter().flatten());
        // Downstream pipeline stages see one concatenated derived stream,
        // same as the classic path.
        let rest: Vec<&str> = names
            .get(1..)
            .unwrap_or(&[])
            .iter()
            .map(String::as_str)
            .collect();
        let body = if rest.is_empty() {
            chained
        } else {
            let down_ctx = InvocationContext {
                range_start: 0,
                range_end: None,
                pre_aligned: false,
                metrics: Arc::new(InvocationMetrics::default()),
                ..ctx.clone()
            };
            self.engine.invoke_pipeline(&rest, chained, &down_ctx)?
        };
        skip.record_plan(plan.blocks_pruned, plan.blocks_scanned, plan.bytes_skipped);
        let mut out = Response { status: 200, headers: head_resp.headers, body };
        out.headers.remove("content-length");
        out.headers.remove("content-range");
        out.headers.set(
            scoop_common::headers::SCANNED_BYTES,
            scanned_bytes.to_string(),
        );
        out.headers.set(scoop_common::headers::SKIPPED_BYTES, plan.bytes_skipped.to_string());
        Ok(Some(out))
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
