//! Failure injection across the full stack: dead object servers during
//! pushdown queries, replication repair, and policy-driven degradation.

use scoop_common::telemetry;
use scoop_compute::ExecutionMode;
use scoop_integration::deploy;
use scoop_storlets::Tier;

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
