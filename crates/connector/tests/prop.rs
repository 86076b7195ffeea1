//! Property tests: split planning + ranged pushdown over the fault-injected
//! store deliver each record exactly once — for random record lengths,
//! chunk sizes, and fault seeds. A split whose read breaks mid-stream is
//! retried whole (the scheduler's task-retry model); its partial output is
//! discarded, so exactly-once must hold across retries, not just across
//! clean reads.

use bytes::Bytes;
use proptest::prelude::*;
use scoop_common::{stream, RetryPolicy};
use scoop_compute::connector::{StorageConnector, SPLIT_SLACK};
use scoop_connector::SwiftConnector;
use scoop_csv::record::split_records;
use scoop_csv::split::{aligned_slice, plan_splits, RangedRecordStream};
use scoop_csv::PushdownSpec;
use scoop_objectstore::middleware::Pipeline;
use scoop_objectstore::{FaultPlan, SwiftCluster, SwiftConfig};
use scoop_storlets::{StorletEngine, StorletMiddleware};
use std::sync::Arc;

/// One single-column record per requested length, every line distinct.
fn build_data(record_lens: &[usize]) -> Bytes {
    let mut out = String::new();
    for (i, len) in record_lens.iter().enumerate() {
        out.push_str(&format!("r{i}-"));
        out.extend(std::iter::repeat_n('x', *len));
        out.push('\n');
    }
    Bytes::from(out)
}

/// A small storlet-enabled chaos cluster holding `data`, plus a connector
/// whose client retries.
fn connector_over(data: Bytes, plan: FaultPlan) -> (Arc<SwiftCluster>, Arc<SwiftConnector>) {
    let cluster = SwiftCluster::new(SwiftConfig {
        object_servers: 3,
        devices_per_server: 1,
        part_power: 4,
        fault_plan: Some(plan),
        ..SwiftConfig::default()
    })
    .unwrap();
    let engine = Arc::new(StorletEngine::with_builtin_filters());
    let mut obj = Pipeline::new();
    obj.push(Arc::new(StorletMiddleware::new(engine)));
    cluster.set_object_pipeline(obj);
    let client = cluster
        .anonymous_client("AUTH_p")
        .with_retry(RetryPolicy::default());
    client.create_container("c").unwrap();
    client.put_object("c", "o.csv", data).unwrap();
    (cluster, SwiftConnector::new(client))
}

/// Read one split with whole-split retry, like the compute scheduler: a
/// broken filtered stream discards its partial output and re-runs.
fn read_split_retrying(
    conn: &SwiftConnector,
    s: u64,
    e: u64,
    spec: &PushdownSpec,
    schema: &[String],
) -> Bytes {
    let mut attempts = 0;
    loop {
        let out = conn
            .read_pushdown("c", "o.csv", s, Some(e), spec, schema)
            .and_then(stream::collect);
        match out {
            Ok(bytes) => return bytes,
            // The consecutive-fault cap guarantees a clean op every few
            // rolls, so a small budget always converges.
            Err(err) if attempts < 8 => {
                attempts += 1;
                assert!(err.is_retryable(), "non-retryable under faults: {err}");
            }
            Err(err) => panic!("split [{s},{e}) failed beyond budget: {err}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// plan_splits + ranged pushdown over a faulty store reassemble the
    /// object exactly: no record lost, duplicated, or reordered.
    #[test]
    fn faulted_ranged_pushdown_yields_each_record_exactly_once(
        record_lens in proptest::collection::vec(0usize..60, 1..32),
        chunk in 1u64..180,
        seed in 0u64..1_000,
    ) {
        let data = build_data(&record_lens);
        let plan = FaultPlan::quiet(seed)
            .with_error_rate(0.2)
            .with_truncate_rate(0.2);
        let (_cluster, conn) = connector_over(data.clone(), plan);
        let spec = PushdownSpec {
            columns: Some(vec!["rec".into()]),
            predicate: None,
            has_header: false,
        };
        let schema = vec!["rec".to_string()];
        let mut combined = Vec::new();
        for (s, e) in plan_splits(data.len() as u64, chunk) {
            combined.extend_from_slice(&read_split_retrying(&conn, s, e, &spec, &schema));
        }
        prop_assert_eq!(Bytes::from(combined), data);
    }

    /// Plain (no-pushdown) reads resume mid-stream and still deliver the
    /// object byte-identically under faults.
    #[test]
    fn faulted_plain_read_is_byte_identical(
        record_lens in proptest::collection::vec(0usize..60, 1..32),
        start_frac in 0u64..100,
        seed in 0u64..1_000,
    ) {
        let data = build_data(&record_lens);
        let plan = FaultPlan::quiet(seed)
            .with_error_rate(0.2)
            .with_truncate_rate(0.2);
        let (_cluster, conn) = connector_over(data.clone(), plan);
        let start = (data.len() as u64) * start_frac / 100;
        let body = stream::collect(conn.read_from("c", "o.csv", start).unwrap()).unwrap();
        prop_assert_eq!(body, data.slice(start as usize..));
    }

    /// A split's bounded plain read — `[start, end + slack)`, then one
    /// continuation GET per further slack it is pulled through — hands the
    /// record reader exactly the records the split owns: the same as
    /// slicing the object in memory, every record once across the splits.
    /// Records longer than the slack force continuations; an object without
    /// a trailing newline ends on a record no newline closes; the faults
    /// make bounded GETs resume mid-body like open-ended ones.
    #[test]
    fn bounded_split_reads_yield_each_record_exactly_once(
        record_lens in proptest::collection::vec(
            prop_oneof![0usize..60, 0usize..60, 4_000usize..10_000],
            1..20,
        ),
        trailing_newline in any::<bool>(),
        chunk in 1u64..12_000,
        seed in 0u64..1_000,
    ) {
        let mut data = build_data(&record_lens);
        if !trailing_newline {
            data = data.slice(..data.len() - 1);
        }
        let plan = FaultPlan::quiet(seed)
            .with_error_rate(0.1)
            .with_truncate_rate(0.1);
        let (_cluster, conn) = connector_over(data.clone(), plan);
        let mut across_splits = Vec::new();
        for (s, e) in plan_splits(data.len() as u64, chunk) {
            let body = conn.read_bounded("c", "o.csv", s, e + SPLIT_SLACK).unwrap();
            let mut reader = RangedRecordStream::new(body, s, Some(e));
            let mut records = Vec::new();
            while reader.next_chunk(|r| records.push(r.to_vec())).unwrap() {}
            prop_assert_eq!(&records, &split_records(aligned_slice(&data, s, e)), "split [{}, {})", s, e);
            across_splits.extend(records);
        }
        prop_assert_eq!(across_splits, split_records(&data));
    }
}

/// Deterministic companion: with fixed seeds the properties above must
/// actually exercise the fault machinery, not pass vacuously.
#[test]
fn property_runs_do_inject_faults() {
    let data = build_data(&[5usize; 64]);
    let plan = FaultPlan::quiet(7)
        .with_error_rate(0.3)
        .with_truncate_rate(0.3);
    let (cluster, conn) = connector_over(data.clone(), plan);
    let spec = PushdownSpec {
        columns: Some(vec!["rec".into()]),
        predicate: None,
        has_header: false,
    };
    let schema = vec!["rec".to_string()];
    let mut combined = Vec::new();
    for (s, e) in plan_splits(data.len() as u64, 40) {
        combined.extend_from_slice(&read_split_retrying(&conn, s, e, &spec, &schema));
    }
    assert_eq!(Bytes::from(combined), data);
    let stats = cluster.fault_stats();
    assert!(stats.errors > 0, "no transient errors fired: {stats:?}");
    assert!(stats.truncations > 0, "no truncations fired: {stats:?}");
    assert!(
        cluster.replica_failovers() + conn.retries() > 0,
        "faults fired but nothing retried"
    );
}
