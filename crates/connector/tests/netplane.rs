//! The TCP data plane end to end: a pushdown query whose every storage hop
//! rides real loopback sockets must behave exactly like the in-process
//! transport — same rows, and one `x-scoop-trace` trace whose spans cover
//! client → proxy → objserver → storlet, proving the trace header crossed
//! the wire on every hop instead of being re-minted server-side.

use bytes::Bytes;
use scoop_common::{telemetry, RetryPolicy};
use scoop_compute::{QueryOutcome, Session, TableFormat};
use scoop_connector::SwiftConnector;
use scoop_objectstore::middleware::Pipeline;
use scoop_objectstore::{NetOptions, PoolConfig, SwiftClient, SwiftCluster, SwiftConfig};
use scoop_storlets::{PolicyStore, StorletEngine, StorletMiddleware};
use std::collections::BTreeSet;
use std::sync::Arc;

/// ~19 KB of GridPocket-style meter readings — several storlet splits.
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

/// A storlet-enabled cluster with the fixture loaded.
fn storlet_cluster() -> Arc<SwiftCluster> {
    let cluster = SwiftCluster::new(SwiftConfig::default()).unwrap();
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
    cluster
}

/// Load the fixture through `client` and open a pushdown session on it.
fn meter_session(client: SwiftClient) -> Session {
    client.create_container("meters").unwrap();
    client.put_object("meters", "jan.csv", meter_csv()).unwrap();
    let connector = SwiftConnector::new(client);
    let session = Session::new(connector, 2)
        .with_chunk_size(2048)
        .with_pushdown(true);
    session.register_table(
        "meters",
        "meters",
        None,
        TableFormat::Csv { has_header: true },
        None,
    );
    session
}

/// Run the pushdown query through `client` and return the outcome.
fn run_query(client: SwiftClient) -> QueryOutcome {
    meter_session(client).sql(QUERY).unwrap()
}

#[test]
fn tcp_pushdown_query_yields_one_trace_spanning_every_layer() {
    let cluster = storlet_cluster();
    let client = cluster
        .anonymous_client("AUTH_gp")
        .with_retry(RetryPolicy::default())
        .over_tcp()
        .unwrap();
    assert!(client.is_tcp(), "query must ride real sockets");
    let pool = client.transport_pool().unwrap().clone();

    let outcome = run_query(client);
    assert!(!outcome.result.rows.is_empty(), "query must produce rows");
    assert!(!outcome.metrics.trace.is_empty(), "query must mint a trace ID");
    assert!(
        pool.snapshot().dials > 0,
        "the connector's requests must actually have dialed the TCP plane"
    );

    // One trace, spanning the whole path: the ID was stamped into the
    // x-scoop-trace header client-side, crossed every socket hop, and each
    // server layer recorded its span against that same ID.
    let spans = telemetry::trace_spans(&outcome.metrics.trace);
    let layers: BTreeSet<&str> = spans.iter().map(|s| s.layer).collect();
    for layer in ["session", "connector", "client", "proxy", "objserver", "storlet"] {
        assert!(
            layers.contains(layer),
            "trace {} is missing a {layer} span over TCP; got layers {layers:?}",
            outcome.metrics.trace
        );
    }
}

#[test]
fn tcp_and_in_process_transports_agree_on_query_results() {
    let reference = {
        let cluster = storlet_cluster();
        run_query(cluster.anonymous_client("AUTH_gp").with_retry(RetryPolicy::default()))
    };
    let over_tcp = {
        let cluster = storlet_cluster();
        let client = cluster
            .anonymous_client("AUTH_gp")
            .with_retry(RetryPolicy::default())
            .over_tcp()
            .unwrap();
        run_query(client)
    };
    assert_eq!(
        reference.result.rows, over_tcp.result.rows,
        "transport must not change query results"
    );
    assert!(
        over_tcp.metrics.bytes_transferred > 0,
        "pushdown over TCP must still account transferred bytes"
    );
}

#[test]
fn a_session_starts_no_more_server_workers_than_its_pool_dials() {
    // The store starts a worker per live connection: however many queries
    // run, it never has more workers than the client ever had sockets.
    let cluster = storlet_cluster();
    let opts = NetOptions { workers: 2, ..NetOptions::default() };
    let client = cluster
        .anonymous_client("AUTH_gp")
        .with_retry(RetryPolicy::default())
        .over_tcp_with(opts.clone(), PoolConfig::default())
        .unwrap();
    let pool = client.transport_pool().unwrap().clone();
    let server = cluster.serve_net(opts).unwrap();
    let session = meter_session(client);
    let first = session.sql(QUERY).unwrap().result.rows;
    for round in 1..200 {
        assert_eq!(session.sql(QUERY).unwrap().result.rows, first, "query {round}");
    }
    let (started, dials) = (server.workers_started(), pool.snapshot().dials);
    assert!(started >= 1, "200 queries over TCP and no worker started");
    assert!(
        started as u64 <= dials,
        "{started} server workers for {dials} client connections"
    );
    assert!(started <= 2, "{started} workers past a cap of 2 (never the 32 of the default)");
}
