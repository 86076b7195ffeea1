//! What both passes share: sessions over a deployment, the reference results
//! and the check against them, and the operations of one ingest round.

use crate::dataset::{zoneindex_params, Deployment, PUT_PLAIN, PUT_ZONED};
use crate::workloads::{Kind, NamedSql, Workload};
use bytes::Bytes;
use scoop_common::{Result, ScoopError};
use scoop_compute::{Session, TableFormat};
use scoop_connector::SwiftConnector;
use scoop_core::{ExecutionMode, QueryOutcome, ScoopContext};
use scoop_objectstore::{ObjectPath, Request, Response, SwiftClient};
use scoop_sql::ResultSet;
use scoop_storlets::headers as storlet_headers;
use scoop_storlets::middleware::encode_params;
use std::sync::Arc;

/// The table name every query selects from.
pub const TABLE: &str = "largemeter";

/// Relative tolerance when comparing a result with the vanilla reference:
/// partitionings sum floats in different orders.
pub const RESULT_TOLERANCE: f64 = 1e-9;

fn table_format(mode: ExecutionMode) -> TableFormat {
    match mode {
        ExecutionMode::Columnar => TableFormat::Columnar,
        ExecutionMode::Vanilla | ExecutionMode::Pushdown => TableFormat::Csv { has_header: true },
    }
}

/// The session a user of the deployment would get: `ScoopContext::session`
/// (TCP transport, two workers), with `largeMeter` aliased onto `container`.
pub fn user_session(ctx: &ScoopContext, container: &str, mode: ExecutionMode) -> Session {
    let session = ctx.session(container, mode);
    session.register_table(TABLE, container, None, table_format(mode), None);
    session
}

/// The same session built by hand over `client`, so the traced pass can pick
/// the worker count and keep hold of the connector. Mirrors what
/// `ScoopContext::session` assembles.
pub fn session_over(
    ctx: &ScoopContext,
    client: SwiftClient,
    container: &str,
    mode: ExecutionMode,
    workers: usize,
) -> (Session, Arc<SwiftConnector>) {
    let connector = match mode {
        ExecutionMode::Pushdown => SwiftConnector::with_run_on(client, ctx.config().run_on),
        ExecutionMode::Vanilla | ExecutionMode::Columnar => {
            SwiftConnector::without_pushdown(client)
        }
    };
    let session = Session::new(connector.clone(), workers)
        .with_chunk_size(ctx.config().chunk_size)
        .with_pushdown(mode == ExecutionMode::Pushdown);
    session.register_table(TABLE, container, None, table_format(mode), None);
    (session, connector)
}

/// The vanilla in-process reference: every query answered by plain GETs over
/// direct calls (no sockets, no storlets), parsed and filtered compute-side.
pub fn reference_results(
    dep: &Deployment,
    workload: &Workload,
    queries: &[NamedSql],
) -> Result<Vec<ResultSet>> {
    let Some(container) = workload.reference_container() else {
        return Ok(Vec::new());
    };
    let account = dep.ctx.config().account.clone();
    let client = dep.ctx.cluster().anonymous_client(&account);
    if client.is_tcp() {
        return Err(ScoopError::Internal(
            "reference client is on TCP (SCOOP_TRANSPORT is set); unset it".into(),
        ));
    }
    let (session, _) = session_over(
        &dep.ctx,
        client,
        container,
        ExecutionMode::Vanilla,
        dep.ctx.config().workers,
    );
    queries
        .iter()
        .map(|q| Ok(session.sql(&q.sql)?.result))
        .collect()
}

/// An operation failed when it returned an error or a result that differs
/// from the reference. An empty reference would make the check vacuous, so
/// it fails too.
pub fn query_failed(outcome: &Result<QueryOutcome>, reference: &ResultSet) -> bool {
    match outcome {
        Err(_) => true,
        Ok(out) => reference.is_empty() || !out.result.approx_eq(reference, RESULT_TOLERANCE),
    }
}

/// The queries of a query workload at the deployment's scale.
pub fn queries_of(workload: &Workload, dep: &Deployment) -> Vec<NamedSql> {
    match workload.kind {
        Kind::Query { queries, .. } => queries.queries(&dep.scale),
        Kind::Ingest => Vec::new(),
    }
}

// ---------------------------------------------------------------------------
// Ingest
// ---------------------------------------------------------------------------

/// PUTs per ingest round: one plain, one through `zoneindex`.
pub const INGEST_OPS: u64 = 2;

/// Two rotating object names, so the store's memory stays flat.
pub fn ingest_name(round: u64) -> String {
    format!("offer-{}.csv", round % 2)
}

fn path(ctx: &ScoopContext, container: &str, object: &str) -> Result<ObjectPath> {
    ObjectPath::new(ctx.config().account.clone(), container, object)
}

/// The plain PUT of an ingest round.
pub fn plain_put(ctx: &ScoopContext, object: &str, data: Bytes) -> Result<Request> {
    Ok(Request::put(path(ctx, PUT_PLAIN, object)?, data))
}

/// The `zoneindex` PUT of an ingest round.
pub fn zoned_put(
    ctx: &ScoopContext,
    object: &str,
    data: Bytes,
    block_bytes: u64,
) -> Result<Request> {
    Ok(Request::put(path(ctx, PUT_ZONED, object)?, data)
        .with_header(storlet_headers::RUN_STORLET, "zoneindex")
        .with_header(
            storlet_headers::PARAMETERS,
            encode_params(&zoneindex_params(block_bytes)),
        ))
}

pub fn zoned_head(ctx: &ScoopContext, object: &str) -> Result<Request> {
    Ok(Request::head(path(ctx, PUT_ZONED, object)?))
}

/// First metadata chunk of the zone-map stats a `zoneindex` PUT publishes.
pub const STATS_HEADER_0: &str = "x-object-meta-scoop-stats-0";

pub fn created(resp: &Result<Response>) -> bool {
    matches!(resp, Ok(r) if r.status == 201)
}

/// Read both objects back: a PUT failed unless it was acknowledged and reads
/// back byte-identical, and for `putzoned` carries its stats. Returns the
/// number of failed PUTs (0, 1 or 2).
pub fn verify_ingest(
    ctx: &ScoopContext,
    object: &str,
    data: &Bytes,
    plain_ack: bool,
    zoned_ack: bool,
    zoned_head: &Result<Response>,
) -> u64 {
    let reads_back = |container: &str| {
        ctx.client()
            .get_object(container, object)
            .and_then(Response::read_body)
            .is_ok_and(|body| body == *data)
    };
    let plain_ok = plain_ack && reads_back(PUT_PLAIN);
    let has_stats =
        matches!(zoned_head, Ok(h) if h.is_success() && h.headers.contains(STATS_HEADER_0));
    let zoned_ok = zoned_ack && has_stats && reads_back(PUT_ZONED);
    u64::from(!plain_ok) + u64::from(!zoned_ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scoop_compute::JobMetrics;
    use scoop_csv::Value;

    fn outcome(rows: Vec<Vec<Value>>) -> Result<QueryOutcome> {
        Ok(QueryOutcome {
            result: ResultSet {
                columns: vec!["n".into()],
                rows,
            },
            metrics: JobMetrics {
                mode: ExecutionMode::Pushdown,
                tasks: 1,
                bytes_transferred: 0,
                rows_to_compute: 0,
                rows_after_filter: 0,
                pushed_conjuncts: 0,
                residual_conjuncts: 0,
                wall: std::time::Duration::ZERO,
                task_durations: Vec::new(),
                task_retries: 0,
                trace: String::new(),
            },
        })
    }

    #[test]
    fn a_wrong_result_set_counts_as_a_failure() {
        let reference = ResultSet {
            columns: vec!["n".into()],
            rows: vec![vec![Value::Float(100.0)]],
        };
        assert!(!query_failed(
            &outcome(vec![vec![Value::Float(100.0)]]),
            &reference
        ));
        // Within the float tolerance of re-ordered sums: still correct.
        assert!(!query_failed(
            &outcome(vec![vec![Value::Float(100.0 + 1e-9)]]),
            &reference
        ));
        // A different value, a missing row, an error: all failures.
        assert!(query_failed(
            &outcome(vec![vec![Value::Float(100.1)]]),
            &reference
        ));
        assert!(query_failed(&outcome(vec![]), &reference));
        assert!(query_failed(
            &Err(ScoopError::Internal("boom".into())),
            &reference
        ));
        // An empty reference proves nothing, so it cannot pass.
        let empty = ResultSet {
            columns: vec!["n".into()],
            rows: vec![],
        };
        assert!(query_failed(&outcome(vec![]), &empty));
    }
}
