//! End-to-end chaos suite: the full ingest path — compute session →
//! connector → Swift-like store with storlet pushdown — run under each
//! injected fault class must produce results identical to the fault-free
//! run, with the stack's retry counters proving the faults actually fired
//! and were recovered, not dodged.
//!
//! Recovery is layered: the proxy fails reads over to surviving replicas,
//! the client re-dispatches retryably-failed requests, the connector
//! resumes broken plain-read streams from the last delivered byte, and the
//! scheduler re-executes pushdown tasks whose filtered stream broke
//! mid-flight (filtered output has no stable byte mapping to resume from).

use bytes::Bytes;
use scoop_common::RetryPolicy;
use scoop_compute::{QueryOutcome, Session, TableFormat};
use scoop_connector::SwiftConnector;
use scoop_objectstore::middleware::Pipeline;
use scoop_objectstore::{FaultPlan, SwiftCluster, SwiftConfig};
use scoop_storlets::{PolicyStore, StorletEngine, StorletMiddleware};
use std::sync::Arc;
use std::time::Duration;

/// Base seeds are fixed for day-to-day reproducibility; the CI seed matrix
/// exports `SCOOP_CHAOS_SEED` to perturb every plan, so each matrix leg
/// explores a different deterministic fault sequence. A matrix failure
/// reproduces locally by exporting the same value.
fn seed(base: u64) -> u64 {
    match std::env::var("SCOOP_CHAOS_SEED") {
        Ok(s) => {
            let mix: u64 = s.parse().expect("SCOOP_CHAOS_SEED must be a u64");
            base ^ mix.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        }
        Err(_) => base,
    }
}

/// ~19 KB of GridPocket-style meter readings — enough for several splits.
fn meter_csv() -> Bytes {
    let mut out = String::from("vid,date,index,city\n");
    for i in 0..400 {
        out.push_str(&format!(
            "m{:02},2015-{:02}-{:02} 10:0{}:00,{}.{},{}\n",
            i % 20,
            i % 12 + 1,
            i % 28 + 1,
            i % 10,
            i,
            i % 100,
            ["Rotterdam", "Paris", "Utrecht", "Delft"][i % 4],
        ));
    }
    Bytes::from(out)
}

const QUERY: &str = "SELECT vid, sum(index) as total, count(*) as n \
    FROM meters WHERE date LIKE '2015-01%' AND city LIKE 'Rotterdam' \
    GROUP BY vid ORDER BY vid";

struct Run {
    cluster: Arc<SwiftCluster>,
    connector: Arc<SwiftConnector>,
    session: Session,
    outcome: QueryOutcome,
}

/// Build a storlet-enabled cluster under `plan`, load the fixture, and run
/// the pushdown query end to end.
fn run_query(plan: Option<FaultPlan>, pushdown: bool) -> Run {
    let cluster = SwiftCluster::new(SwiftConfig {
        fault_plan: plan,
        ..SwiftConfig::default()
    })
    .unwrap();
    let engine = Arc::new(StorletEngine::with_builtin_filters());
    let mut obj = Pipeline::new();
    obj.push(Arc::new(StorletMiddleware::new(engine.clone())));
    cluster.set_object_pipeline(obj);
    let mut proxy = Pipeline::new();
    proxy.push(Arc::new(StorletMiddleware::with_policy(
        engine,
        Arc::new(PolicyStore::new()),
    )));
    cluster.set_proxy_pipeline(proxy);

    let client = cluster
        .anonymous_client("AUTH_gp")
        .with_retry(RetryPolicy::default());
    client.create_container("meters").unwrap();
    client.put_object("meters", "jan.csv", meter_csv()).unwrap();

    let connector = SwiftConnector::new(client);
    let session = Session::new(connector.clone(), 2)
        .with_chunk_size(2048)
        .with_pushdown(pushdown)
        .with_max_task_failures(10);
    session.register_table(
        "meters",
        "meters",
        None,
        TableFormat::Csv { has_header: true },
        None,
    );
    let outcome = session.sql(QUERY).unwrap();
    Run { cluster, connector, session, outcome }
}

/// Total recovery actions across the stack for a run.
fn recoveries(run: &Run) -> u64 {
    run.cluster.replica_failovers()
        + run.connector.retries()
        + run.outcome.metrics.task_retries
}

#[test]
fn pushdown_query_survives_transient_errors() {
    let reference = run_query(None, true);
    assert_eq!(recoveries(&reference), 0, "fault-free run must not retry");

    let faulted = run_query(Some(FaultPlan::transient_errors(seed(0xE1))), true);
    assert_eq!(
        faulted.outcome.result, reference.outcome.result,
        "results diverge under transient errors"
    );
    // A single query samples only a couple dozen fault rolls, so under an
    // arbitrary matrix seed one pass can come up clean; soak until the
    // plan's faults actually fire and something recovers.
    let mut task_retries = faulted.outcome.metrics.task_retries;
    for _ in 0..12 {
        let stats = faulted.cluster.fault_stats();
        let recovered =
            faulted.cluster.replica_failovers() + faulted.connector.retries() + task_retries;
        if stats.errors > 0 && recovered > 0 {
            break;
        }
        let out = faulted.session.sql(QUERY).unwrap();
        assert_eq!(
            out.result, reference.outcome.result,
            "results diverge under transient errors"
        );
        task_retries += out.metrics.task_retries;
    }
    let stats = faulted.cluster.fault_stats();
    assert!(stats.errors > 0, "no faults fired: {stats:?}");
    assert!(
        faulted.cluster.replica_failovers() + faulted.connector.retries() + task_retries > 0,
        "faults fired but nothing recovered"
    );
}

#[test]
fn pushdown_query_survives_truncated_bodies() {
    let reference = run_query(None, true);
    // The pushdown arm samples only ~10 reads (one GET per task), so the
    // preset 0.25 rate leaves a fat zero-truncation tail under arbitrary
    // matrix seeds; 0.5 keeps every leg exercising the re-execution path.
    let faulted = run_query(
        Some(FaultPlan::quiet(seed(0x7B)).with_truncate_rate(0.5)),
        true,
    );
    assert_eq!(
        faulted.outcome.result, reference.outcome.result,
        "results diverge under truncated bodies"
    );
    // A truncated pushdown stream is only detectable once the storlet's
    // length-checked body runs dry mid-split — a cut past the split's
    // logical end is never even pulled, so not every truncation is
    // observable. Soak over more rounds until one lands inside a consumed
    // range: a detected truncation either re-executes the broken task,
    // resumes a broken plain read, or — once a retry budget is exhausted —
    // fails the query loudly. What it must never do is silently drop
    // records, which the byte-identity check on every successful round
    // rules out.
    let mut detections =
        faulted.outcome.metrics.task_retries + faulted.connector.stream_resumes();
    for _round in 0..12 {
        if detections > 0 {
            break;
        }
        match faulted.session.sql(QUERY) {
            Ok(out) => {
                assert_eq!(
                    out.result, reference.outcome.result,
                    "results diverge under truncated bodies"
                );
                detections += out.metrics.task_retries + faulted.connector.stream_resumes();
            }
            Err(e) => {
                assert!(
                    e.to_string().contains("truncated"),
                    "job failed for a non-truncation reason: {e}"
                );
                detections += 1;
            }
        }
    }
    let stats = faulted.cluster.fault_stats();
    assert!(stats.truncations > 0, "no truncations fired: {stats:?}");
    assert!(
        detections > 0,
        "truncations fired but none was ever detected: {stats:?}"
    );
}

#[test]
fn pushdown_query_survives_stalled_streams() {
    let reference = run_query(None, true);
    let faulted = run_query(
        Some(FaultPlan::stalled_reads(seed(0x5A)).with_stalls(0.3, Duration::from_micros(300))),
        true,
    );
    assert_eq!(
        faulted.outcome.result, reference.outcome.result,
        "results diverge under stalled reads"
    );
    // Stalls delay but never fail, so soaking extra rounds is cheap; keep
    // reading until the plan actually fires one.
    for _ in 0..12 {
        if faulted.cluster.fault_stats().stalls > 0 {
            break;
        }
        let out = faulted.session.sql(QUERY).unwrap();
        assert_eq!(
            out.result, reference.outcome.result,
            "results diverge under stalled reads"
        );
    }
    let stats = faulted.cluster.fault_stats();
    assert!(stats.stalls > 0, "no stalls fired: {stats:?}");
}

#[test]
fn pushdown_query_survives_node_down_window() {
    let reference = run_query(None, true);
    // Down the node that serves the object's *first* replica, so every GET
    // must fail over. Ring construction is deterministic for a fixed
    // config, so the fault-free run's ring predicts the chaos run's.
    let key = scoop_objectstore::ObjectPath::new("AUTH_gp", "meters", "jan.csv")
        .unwrap()
        .ring_key();
    let ring = reference.cluster.ring();
    let ring = ring.read();
    let first_node = ring.device(ring.lookup(&key)[0]).node;
    drop(ring);
    let faulted = run_query(
        Some(FaultPlan::quiet(seed(0xD0)).with_down_window(first_node, 0, u64::MAX)),
        true,
    );
    assert_eq!(
        faulted.outcome.result, reference.outcome.result,
        "results diverge with a node down"
    );
    let stats = faulted.cluster.fault_stats();
    assert!(stats.down_rejections > 0, "down window never hit: {stats:?}");
    assert!(
        faulted.cluster.replica_failovers() > 0,
        "no reads failed over around the dead node"
    );
}

#[test]
fn vanilla_query_resumes_plain_reads_mid_stream() {
    // The no-pushdown arm ingests whole objects through ResumingStream:
    // mid-stream faults are absorbed by re-issuing ranged GETs from the
    // last consumed offset rather than re-running the task.
    let reference = run_query(None, false);
    let faulted = run_query(
        Some(FaultPlan::quiet(seed(0xF1)).with_error_rate(0.2).with_truncate_rate(0.2)),
        false,
    );
    assert_eq!(
        faulted.outcome.result, reference.outcome.result,
        "results diverge on the vanilla arm"
    );
    assert_eq!(reference.outcome.result, run_query(None, true).outcome.result);
    let mut task_retries = faulted.outcome.metrics.task_retries;
    for _ in 0..12 {
        let stats = faulted.cluster.fault_stats();
        let recovered = faulted.cluster.replica_failovers()
            + faulted.connector.retries()
            + faulted.connector.stream_resumes()
            + task_retries;
        if stats.errors + stats.truncations > 0 && recovered > 0 {
            break;
        }
        let out = faulted.session.sql(QUERY).unwrap();
        assert_eq!(
            out.result, reference.outcome.result,
            "results diverge on the vanilla arm"
        );
        task_retries += out.metrics.task_retries;
    }
    let stats = faulted.cluster.fault_stats();
    assert!(stats.errors + stats.truncations > 0, "no faults fired: {stats:?}");
    assert!(
        faulted.cluster.replica_failovers()
            + faulted.connector.retries()
            + faulted.connector.stream_resumes()
            + task_retries
            > 0,
        "faults fired but nothing recovered"
    );
}

#[test]
fn mixed_faults_full_stack_soak() {
    let reference = run_query(None, true);
    let plan = FaultPlan::quiet(seed(0xC4A05))
        .with_error_rate(0.12)
        .with_truncate_rate(0.08)
        .with_stalls(0.05, Duration::from_micros(100))
        .with_down_window(1, 100, 260);
    let faulted = run_query(Some(plan), true);
    assert_eq!(
        faulted.outcome.result, reference.outcome.result,
        "results diverge under mixed faults"
    );
    assert!(faulted.cluster.fault_stats().total_faults() > 0);
}
