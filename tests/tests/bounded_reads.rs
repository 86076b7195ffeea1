//! The vanilla arm's plain reads over the TCP transport: a split bounds its
//! GET just past its own end, so the body is read to its terminator and the
//! pooled connection survives the split — where an open-ended GET abandoned
//! mid-body cost one dial per split and made the object servers offer bytes
//! nobody read.

use bytes::Bytes;
use scoop_common::{stream, RetryPolicy};
use scoop_compute::connector::{StorageConnector, SPLIT_SLACK};
use scoop_compute::ExecutionMode;
use scoop_connector::SwiftConnector;
use scoop_core::{ScoopConfig, ScoopContext};
use scoop_objectstore::{FaultPlan, SwiftCluster, SwiftConfig};
use scoop_workload::{table1_queries, GeneratorConfig, MeterDataset};

fn bytes_served(ctx: &ScoopContext) -> u64 {
    ctx.cluster().object_servers().iter().map(|s| s.stats().bytes_out).sum()
}

#[test]
fn a_warmed_up_vanilla_query_keeps_its_connections_and_asks_for_what_it_reads() {
    // One compute worker, so one connection carries every split in turn:
    // any dial after the warm-up is a connection a split poisoned.
    let ctx = ScoopContext::new(ScoopConfig {
        transport_tcp: true,
        workers: 1,
        chunk_size: 64 * 1024,
        ..Default::default()
    })
    .unwrap();
    let mut gen = MeterDataset::new(&GeneratorConfig {
        meters: 40,
        interval_minutes: 12 * 60,
        ..Default::default()
    });
    let objects: Vec<(String, Bytes)> =
        (0..3).map(|i| (format!("part-{i:02}.csv"), gen.csv_object(3_000))).collect();
    assert!(
        objects.iter().all(|(_, data)| data.len() > 3 * 64 * 1024),
        "every object must span several splits, or no split ends mid-object"
    );
    ctx.upload_csv("largemeter", objects, None).unwrap();

    let sql = &table1_queries()[0].sql;
    let session = ctx.session("largemeter", ExecutionMode::Vanilla);
    let warm_up = session.sql(sql).unwrap();

    let pool = ctx.client().transport_pool().expect("the context rides the TCP transport");
    let before = pool.snapshot();
    let served_before = bytes_served(&ctx);
    let outcome = session.sql(sql).unwrap();
    let after = pool.snapshot();
    let served = bytes_served(&ctx) - served_before;

    assert_eq!(outcome.result, warm_up.result);
    assert_eq!(after.dials, before.dials, "a split cost the pool a connection: {after:?}");
    assert_eq!(after.evictions, before.evictions, "a split left a body unread: {after:?}");
    assert!(
        served <= outcome.metrics.bytes_transferred + SPLIT_SLACK,
        "object servers offered {served} bytes for the {} the query took delivery of",
        outcome.metrics.bytes_transferred
    );
}

#[test]
fn a_bounded_read_reset_mid_response_resumes_after_the_last_delivered_byte() {
    // Every exchange is reset 192 bytes into its response until the
    // consecutive-fault cap lets one through: whatever a reset GET had
    // already delivered must not be delivered again by the one that resumes.
    let plan = FaultPlan::quiet(0xB0DE).with_wire_rst(1.0);
    let cluster =
        SwiftCluster::new(SwiftConfig { fault_plan: Some(plan), ..SwiftConfig::default() }).unwrap();
    // Wire faults live on the wire: load the fixture in process.
    let setup = cluster.anonymous_client("AUTH_b");
    setup.create_container("c").unwrap();
    let data: Bytes = (0..40_000u32).flat_map(|i| format!("row-{i}\n").into_bytes()).collect();
    setup.put_object("c", "o.csv", data.clone()).unwrap();

    let client = cluster
        .anonymous_client("AUTH_b")
        .with_retry(RetryPolicy::default())
        .over_tcp()
        .unwrap();
    let connector = SwiftConnector::new(client);
    let (start, stop) = (1_000u64, 150_000u64);
    // Pulled to the end, the stream runs through its stop and on to EOF in
    // slack-sized continuations, each of them reset and resumed in turn.
    let body = stream::collect(connector.read_bounded("c", "o.csv", start, stop).unwrap()).unwrap();
    assert_eq!(body, data.slice(start as usize..));
    assert_eq!(connector.bytes_transferred(), data.len() as u64 - start);
    assert!(cluster.fault_stats().wire_rsts > 0, "no reset fired");
    assert!(connector.retries() > 0, "resets fired but nothing was re-issued");
}
