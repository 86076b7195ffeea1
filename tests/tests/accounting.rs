//! Accounting parity: every per-instance accessor that has a registry
//! metric moves exactly as that metric does.
//!
//! The accessors are what the experiments and the benchmark read (a
//! connector's bytes, the planner's blocks, a pool's dials); the registry
//! is what `/metrics` serves. Each pair is one `ScopedCounter` or
//! `ScopedGauge`, so the two must agree to the unit. The single test below
//! lives in its own binary, hence its own process: the registry's deltas
//! across it are this test's alone. It drives one TCP deployment through a
//! zoned pushdown query, a shed pushdown, plain reads resumed and requests
//! retried under a fault plan, and wire faults of every class, then holds
//! each accessor to the delta of its metric.

use bytes::Bytes;
use scoop_common::telemetry::{self, names, Snapshot};
use scoop_common::{stream, RetryPolicy};
use scoop_compute::{Session, StorageConnector, TableFormat};
use scoop_connector::SwiftConnector;
use scoop_sql::ResultSet;
use scoop_core::{ScoopConfig, ScoopContext};
use scoop_integration::chaos_seed;
use scoop_objectstore::{FaultPlan, ObjectPath, Request, SwiftClient, SwiftConfig};
use scoop_storlets::middleware::{encode_params, headers};
use scoop_workload::generator::meter_schema;
use scoop_workload::{GeneratorConfig, MeterDataset};
use std::collections::HashMap;
use std::time::Duration;

fn counter(snap: &Snapshot, name: &str) -> u64 {
    snap.get_counter(name).unwrap_or(0)
}

fn gauge(snap: &Snapshot, name: &str) -> i64 {
    snap.get_gauge(name).unwrap_or(0)
}

/// The `date` of the record `at` (a fraction) of the way into a CSV object.
fn date_at(data: &[u8], at: f64) -> String {
    let lines: Vec<&[u8]> = data.split(|&b| b == b'\n').filter(|l| !l.is_empty()).collect();
    let line = std::str::from_utf8(lines[(lines.len() as f64 * at) as usize]).unwrap();
    line.split(',').nth(1).unwrap().to_string()
}

/// PUT `data` as `meters/name`, zone-indexed at 4 KiB blocks when `index`.
fn put(client: &SwiftClient, name: &str, data: Bytes, index: bool) {
    let schema: Vec<String> = meter_schema().names().iter().map(|s| s.to_string()).collect();
    let path = ObjectPath::new(client.account(), "meters", name).unwrap();
    let mut req = Request::put(path, data);
    if index {
        let params = HashMap::from([
            ("schema".to_string(), schema.join(",")),
            ("header".to_string(), "1".to_string()),
            ("block".to_string(), "4096".to_string()),
        ]);
        req = req
            .with_header(headers::RUN_STORLET, "zoneindex")
            .with_header(headers::PARAMETERS, encode_params(&params));
    }
    assert!(client.request(req).unwrap().is_success(), "PUT {name}");
}

/// Run `sql` and return its rows. Each query is submitted once: the
/// listing and the schema read recover from wire faults as task reads do.
fn run(session: &Session, sql: &str) -> ResultSet {
    session.sql(sql).unwrap_or_else(|e| panic!("{sql}: {e}")).result
}

#[test]
fn every_accessor_equals_the_delta_of_its_registry_metric() {
    let before = telemetry::snapshot();
    let plan = FaultPlan::quiet(chaos_seed(0xACC0))
        .with_error_rate(0.04)
        .with_truncate_rate(0.04)
        .with_wire_rst(0.02)
        .with_wire_partial(0.02, Duration::from_millis(2))
        .with_wire_slowloris(0.02, Duration::from_micros(200))
        .with_wire_garbage(0.02)
        .with_wire_half_close(0.02);
    let ctx = ScoopContext::new(ScoopConfig {
        swift: SwiftConfig { fault_plan: Some(plan), ..SwiftConfig::default() },
        transport_tcp: true,
        ..ScoopConfig::default()
    })
    .unwrap();
    // Every request below rides this client's pool and retry counter.
    let client = ctx.client().clone().with_retry(RetryPolicy::default());
    assert!(client.is_tcp());
    client.create_container("meters").unwrap();
    let mut gen = MeterDataset::new(&GeneratorConfig { meters: 10, interval_minutes: 60, ..Default::default() });
    let zoned = gen.csv_object(4_000);
    put(&client, "zoned.csv", zoned.clone(), true);
    // No index: the store's planner falls back to a full scan.
    put(&client, "plain.csv", gen.csv_object(1_000), false);

    let conn = SwiftConnector::new(client.clone());
    let session = |pushdown: bool| {
        let session = Session::new(conn.clone(), 2)
            .with_chunk_size(64 * 1024)
            .with_pushdown(pushdown)
            .with_max_task_failures(10);
        session.register_table("meters", "meters", None, TableFormat::Csv { has_header: true }, None);
        session
    };
    let (pushdown, vanilla) = (session(true), session(false));
    let sql = format!(
        "SELECT vid, count(*) AS n FROM meters WHERE date < '{}' GROUP BY vid ORDER BY vid",
        date_at(&zoned, 0.2)
    );
    let want = run(&vanilla, &sql);
    assert!(!want.rows.is_empty());

    // Zoned pushdown queries: the store prunes blocks of the indexed object
    // and full-scans the other. Which splits reach the store depends on
    // the faults a query meets, so it runs until bytes were skipped.
    let skip = ctx.engine().skip_stats();
    for _ in 0..10 {
        assert_eq!(run(&pushdown, &sql), want);
        if conn.bytes_skipped() > 0 && skip.fallbacks() > 0 {
            break;
        }
    }
    assert!(conn.bytes_skipped() > 0 && skip.fallbacks() > 0, "{skip:?}");

    // A shed pushdown: no admission slot, so every split is read plain.
    ctx.engine().set_admission_limits(Some(0), 0);
    assert_eq!(run(&pushdown, &sql), want);
    ctx.engine().set_admission_limits(None, 0);
    assert!(ctx.engine().admission_sheds() > 0);
    assert!(conn.pushdown_fallbacks() > 0);

    // Plain reads until a stream has resumed.
    for _ in 0..40 {
        if conn.stream_resumes() > 0 {
            break;
        }
        assert_eq!(run(&vanilla, &sql), want);
    }
    assert!(conn.stream_resumes() > 0, "no plain read resumed");

    // PUTs and whole-object GETs until every wire fault class has fired, a
    // PUT was re-dispatched (the pool re-sends only a GET or HEAD itself)
    // and a body broken mid-stream evicted its connection; a GET may fail,
    // but never with wrong bytes.
    client.create_container("wire").unwrap();
    for round in 0..400 {
        let s = ctx.cluster().fault_stats();
        if s.wire_rsts > 0
            && s.wire_partials > 0
            && s.wire_slowloris > 0
            && s.wire_garbage > 0
            && s.wire_half_closes > 0
            && client.retries() > 0
            && client.transport_pool().unwrap().snapshot().evictions > 0
        {
            break;
        }
        let _ = client.put_object("wire", &format!("o{round}"), Bytes::from_static(b"payload"));
        let body = client.get_object("meters", "zoned.csv").and_then(|r| {
            stream::collect(stream::enforce_length(r.body, zoned.len() as u64))
        });
        if let Ok(got) = body {
            assert_eq!(got, zoned);
        }
    }

    let after = telemetry::snapshot();
    let delta = |name: &str| counter(&after, name) - counter(&before, name);
    let faults = ctx.cluster().fault_stats();
    let pool = client.transport_pool().unwrap().snapshot();
    for (accessor, value, metric) in [
        ("connector bytes_transferred", conn.bytes_transferred(), names::CONNECTOR_BYTES_TRANSFERRED),
        ("connector stream_resumes", conn.stream_resumes(), names::CONNECTOR_STREAM_RESUMES),
        ("connector pushdown_fallbacks", conn.pushdown_fallbacks(), names::CONNECTOR_PUSHDOWN_FALLBACKS),
        ("connector bytes_skipped", conn.bytes_skipped(), names::CONNECTOR_BYTES_SKIPPED),
        ("skip plans", skip.plans(), names::STORLETS_SKIP_PLANS),
        ("skip fallbacks", skip.fallbacks(), names::STORLETS_PLAN_FALLBACKS),
        ("skip blocks_pruned", skip.blocks_pruned(), names::STORLETS_BLOCKS_PRUNED),
        ("skip blocks_scanned", skip.blocks_scanned(), names::STORLETS_BLOCKS_SCANNED),
        ("skip bytes_skipped", skip.bytes_skipped(), names::STORLETS_BYTES_SKIPPED),
        ("admission_sheds", ctx.engine().admission_sheds(), names::STORLETS_ADMISSION_SHEDS),
        ("client retries", client.retries(), names::CLIENT_RETRIES),
        ("pool dials", pool.dials, names::NET_POOL_DIALS),
        ("pool reuses", pool.reuses, names::NET_POOL_REUSES),
        ("pool evictions", pool.evictions, names::NET_POOL_EVICTIONS),
        ("wire rsts", faults.wire_rsts, names::NET_WIRE_FAULTS_RST),
        ("wire partials", faults.wire_partials, names::NET_WIRE_FAULTS_PARTIAL),
        ("wire slowloris", faults.wire_slowloris, names::NET_WIRE_FAULTS_SLOWLORIS),
        ("wire garbage", faults.wire_garbage, names::NET_WIRE_FAULTS_GARBAGE),
        ("wire half_closes", faults.wire_half_closes, names::NET_WIRE_FAULTS_HALF_CLOSE),
        ("wire faults (all classes)", faults.total_wire_faults(), names::NET_WIRE_FAULTS),
    ] {
        assert!(value > 0, "{accessor} never moved");
        assert_eq!(value, delta(metric), "{accessor} vs {metric}");
    }
    for (accessor, value, metric) in [
        ("pool open", pool.open, names::NET_POOL_OPEN),
        ("pool in_flight", pool.in_flight, names::NET_POOL_IN_FLIGHT),
    ] {
        assert_eq!(value, gauge(&after, metric) - gauge(&before, metric), "{accessor} vs {metric}");
    }
    assert_eq!(pool.in_flight, 0, "a connection is still checked out");

    // Once the deployment is gone, its pool's levels have left the
    // registry with it.
    drop((pushdown, vanilla, conn, client, ctx));
    let end = telemetry::snapshot();
    for metric in [names::NET_POOL_OPEN, names::NET_POOL_IN_FLIGHT, names::NET_POOL_IDLE] {
        assert_eq!(gauge(&end, metric), gauge(&before, metric), "{metric} did not return");
    }
}
