//! Failure injection across the full stack: dead object servers during
//! pushdown queries, replication repair, policy-driven degradation, and
//! columnar reads through bodies the store or the wire cuts short.

use bytes::Bytes;
use scoop_columnar::ColumnarWriter;
use scoop_common::{stream, telemetry, RetryPolicy};
use scoop_compute::{ExecutionMode, MemoryConnector, Session, StorageConnector, TableFormat};
use scoop_connector::SwiftConnector;
use scoop_csv::CsvReader;
use scoop_integration::{chaos_seed, deploy};
use scoop_objectstore::{FaultPlan, SwiftCluster, SwiftConfig};
use scoop_storlets::Tier;
use scoop_workload::generator::meter_schema;
use scoop_workload::{table1_queries, GeneratorConfig, MeterDataset};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn pushdown_queries_survive_object_server_failures() {
    let (ctx, _) = deploy(40, 4, 2_000, 32 * 1024);
    let sql = "SELECT vid, sum(index) as t FROM largemeter \
               WHERE city LIKE 'Rotterdam' GROUP BY vid ORDER BY vid";
    let baseline = ctx.query("largemeter", sql, ExecutionMode::Pushdown).unwrap();
    // Kill one server at a time; with 3 replicas over 4 servers every object
    // keeps at least two live copies.
    for victim in 0..ctx.cluster().config().object_servers as u32 {
        ctx.cluster().set_server_down(victim, true).unwrap();
        let degraded = ctx.query("largemeter", sql, ExecutionMode::Pushdown).unwrap();
        assert_eq!(baseline.result, degraded.result, "victim={victim}");
        ctx.cluster().set_server_down(victim, false).unwrap();
    }
}

#[test]
fn writes_during_outage_are_repaired() {
    let (ctx, _) = deploy(20, 2, 1_000, 64 * 1024);
    ctx.cluster().set_server_down(0, true).unwrap();
    ctx.upload_csv(
        "largemeter",
        vec![(
            "late.csv".to_string(),
            bytes::Bytes::from_static(b"vid,date,index,sumHC,sumHP,lat,long,city,state,region\nM99999,2015-01-01 00:00:00,1.0,0.5,0.5,0.0,0.0,Nowhere,XXX,None\n"),
        )],
        None,
    )
    .unwrap();
    ctx.cluster().set_server_down(0, false).unwrap();
    let report = ctx.cluster().repair().unwrap();
    assert_eq!(report.objects_lost, 0);
    let clean = ctx.cluster().repair().unwrap();
    assert_eq!(clean.replicas_restored, 0);
    // The late row is queryable afterwards.
    let out = ctx
        .query(
            "largemeter",
            "SELECT vid FROM largemeter WHERE vid LIKE 'M99999'",
            ExecutionMode::Pushdown,
        )
        .unwrap();
    assert_eq!(out.result.len(), 1);
}

#[test]
fn bronze_tier_fallback_is_transparent_and_unfiltered() {
    let (ctx, bytes) = deploy(30, 2, 1_500, 32 * 1024);
    let sql = "SELECT vid, count(*) as n FROM largemeter \
               WHERE state LIKE 'NLD' GROUP BY vid ORDER BY vid";
    let gold = ctx.query("largemeter", sql, ExecutionMode::Pushdown).unwrap();
    ctx.policy().set_tier("AUTH_gridpocket", Tier::Bronze);
    let bronze = ctx.query("largemeter", sql, ExecutionMode::Pushdown).unwrap();
    assert!(gold.result.approx_eq(&bronze.result, 1e-9));
    // Bronze ingested (roughly) everything; gold a sliver.
    assert!(bronze.metrics.bytes_transferred > bytes / 2);
    assert!(gold.metrics.bytes_transferred < bytes / 4);
    // Each query's wide event counts its own plain splits: none for gold,
    // every one for bronze.
    let event = |trace: &str| {
        telemetry::query_events()
            .into_iter()
            .find(|e| e.trace == trace)
            .expect("the query's wide event")
    };
    let gold_event = event(&gold.metrics.trace);
    assert_eq!((gold_event.path.as_str(), gold_event.degradations), ("pushdown", 0));
    let bronze_event = event(&bronze.metrics.trace);
    assert_eq!(bronze_event.path, "pushdown-fallback");
    assert_eq!(bronze_event.degradations, bronze.metrics.tasks as u64);
    ctx.policy().set_tier("AUTH_gridpocket", Tier::Gold);
}

#[test]
fn query_against_fully_dead_store_errors_cleanly() {
    let (ctx, _) = deploy(10, 1, 300, 64 * 1024);
    for node in 0..ctx.cluster().config().object_servers as u32 {
        ctx.cluster().set_server_down(node, true).unwrap();
    }
    let err = ctx
        .query(
            "largemeter",
            "SELECT vid FROM largemeter",
            ExecutionMode::Pushdown,
        )
        .unwrap_err();
    assert!(err.is_retryable(), "unexpected error kind: {err}");
}

#[test]
fn storlet_failures_propagate_as_errors() {
    use scoop_objectstore::request::Request;
    use scoop_objectstore::ObjectPath;
    use scoop_storlets::middleware::headers;
    let (ctx, _) = deploy(10, 1, 300, 64 * 1024);
    let object = ctx.client().list("largemeter", None).unwrap()[0].name.clone();
    let path = ObjectPath::new("AUTH_gridpocket", "largemeter", object).unwrap();
    // csvfilter without its parameters fails the request, not the process.
    let req = Request::get(path).with_header(headers::RUN_STORLET, "csvfilter");
    assert!(ctx.client().request(req).is_err());
}

/// Two columnar objects of meter readings, converted from generated CSV.
fn columnar_objects() -> Vec<(String, Bytes)> {
    let meter = meter_schema();
    let mut gen = MeterDataset::new(&GeneratorConfig {
        meters: 40,
        interval_minutes: 12 * 60,
        ..Default::default()
    });
    (0..2)
        .map(|i| {
            let mut w = ColumnarWriter::with_row_group_rows(meter.clone(), 700);
            let mut csv = CsvReader::new(stream::once(gen.csv_object(2_500)), meter.clone(), true);
            while let Some(batch) = csv.next_batch().unwrap() {
                w.write_batch(batch);
            }
            (format!("part-{i}.scol"), w.finish())
        })
        .collect()
}

fn columnar_session(conn: Arc<dyn StorageConnector>) -> Session {
    let session = Session::new(conn, 2);
    session.register_table("largemeter", "col", None, TableFormat::Columnar, None);
    session
}

/// Every Table I query over a columnar table, read through a retrying
/// client from a store under `plan`, returns what the clean read of the
/// same objects returns. Footers and chunks are exact ranged reads, so a
/// cut body must be resumed, not failed: rounds repeat until one was.
fn columnar_table1_survives(plan: FaultPlan, tcp: bool) {
    let objects = columnar_objects();
    let clean = MemoryConnector::new();
    for (name, data) in &objects {
        clean.put("col", name, data.clone());
    }
    let clean = columnar_session(clean);
    let want: Vec<_> = table1_queries()
        .into_iter()
        .map(|q| {
            let out = clean.sql(&q.sql).unwrap_or_else(|e| panic!("{} clean: {e}", q.name));
            (q, out.result)
        })
        .collect();

    let cluster = SwiftCluster::new(SwiftConfig { fault_plan: Some(plan), ..SwiftConfig::default() })
        .unwrap();
    let mut client = cluster.anonymous_client("AUTH_gp").with_retry(RetryPolicy::default());
    if tcp {
        client = client.over_tcp().unwrap();
    }
    client.create_container("col").unwrap();
    for (name, data) in &objects {
        client.put_object("col", name, data.clone()).unwrap();
    }
    let conn = SwiftConnector::new(client);
    let faulted = columnar_session(conn.clone());
    for round in 0..10 {
        for (q, want) in &want {
            let got = faulted
                .sql(&q.sql)
                .unwrap_or_else(|e| panic!("{} round {round}: {e}", q.name));
            assert!(want.approx_eq(&got.result, 1e-9), "{} round {round} differs", q.name);
        }
        if conn.stream_resumes() > 0 {
            break;
        }
    }
    assert!(cluster.fault_stats().total_faults() > 0, "no fault fired");
    assert!(conn.stream_resumes() > 0, "no ranged read resumed");
}

#[test]
fn columnar_queries_survive_truncated_bodies() {
    columnar_table1_survives(FaultPlan::quiet(chaos_seed(0xC01)).with_truncate_rate(0.1), false);
}

#[test]
fn columnar_queries_survive_cut_connections_over_tcp() {
    let plan = FaultPlan::quiet(chaos_seed(0xC02))
        .with_wire_rst(0.05)
        .with_wire_partial(0.05, Duration::from_millis(2))
        .with_wire_half_close(0.05);
    columnar_table1_survives(plan, true);
}
