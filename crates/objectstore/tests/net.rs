//! TCP data-plane suite: the HTTP/1.1 front end, the pooled client
//! transport, and the wire-level fault classes.
//!
//! The transport must be invisible to request semantics — every test here
//! drives the same `SwiftClient` API the in-process suites use, over real
//! loopback sockets, and asserts (a) byte identity, (b) pool lifecycle
//! invariants (no socket leak, keep-alive reuse, poisoned-connection
//! eviction), and (c) that every wire fault class both fires (counter
//! nonzero) and maps into the existing error taxonomy.

use bytes::Bytes;
use scoop_common::{stream, Deadline, RetryPolicy};
use scoop_objectstore::{
    FaultPlan, NetOptions, PoolConfig, SwiftClient, SwiftCluster, SwiftConfig,
};
use std::sync::Arc;
use std::time::Duration;

/// Mirror of the chaos suite's seed mixer so the CI seed matrix perturbs
/// the wire fault sequences too.
fn seed(base: u64) -> u64 {
    match std::env::var("SCOOP_CHAOS_SEED") {
        Ok(s) => {
            let mix: u64 = s.parse().expect("SCOOP_CHAOS_SEED must be a u64");
            base ^ mix.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        }
        Err(_) => base,
    }
}

fn payload(len: usize) -> Bytes {
    Bytes::from((0..len).map(|b| ((b * 131 + 7) % 251) as u8).collect::<Vec<u8>>())
}

/// A TCP-transport client over a cluster with `plan`, fixture loaded.
fn tcp_rig(plan: Option<FaultPlan>) -> (Arc<SwiftCluster>, SwiftClient) {
    let cluster = SwiftCluster::new(SwiftConfig {
        fault_plan: plan,
        ..SwiftConfig::default()
    })
    .unwrap();
    let client = cluster
        .anonymous_client("AUTH_net")
        .with_retry(RetryPolicy::default())
        .over_tcp()
        .unwrap();
    assert!(client.is_tcp(), "over_tcp must flip the transport");
    client.create_container("data").unwrap();
    (cluster, client)
}

#[test]
fn tcp_transport_preserves_request_semantics() {
    let (_cluster, client) = tcp_rig(None);
    let body = payload(200_000);
    client.put_object("data", "big dir/o 1.csv", body.clone()).unwrap();

    // Whole-object GET is byte-identical and advertises its length.
    let resp = client.get_object("data", "big dir/o 1.csv").unwrap();
    assert_eq!(resp.status, 200);
    let advertised: u64 = resp.headers.get("content-length").unwrap().parse().unwrap();
    let got = stream::collect(stream::enforce_length(resp.body, advertised)).unwrap();
    assert_eq!(got, body, "TCP GET corrupted the object");

    // HEAD carries metadata without a body.
    let head = client.head_object("data", "big dir/o 1.csv").unwrap();
    assert_eq!(head.headers.get("content-length").unwrap(), body.len().to_string());

    // Ranged GET (suffix form crosses the wire untouched).
    let resp = client
        .request(
            scoop_objectstore::Request::get(
                scoop_objectstore::ObjectPath::new("AUTH_net", "data", "big dir/o 1.csv").unwrap(),
            )
            .with_header("range", "bytes=-100"),
        )
        .unwrap();
    assert_eq!(resp.status, 206);
    let tail = resp.read_body().unwrap();
    assert_eq!(&tail[..], &body[body.len() - 100..]);

    // Listings (names with spaces percent-encode through the listing body).
    let records = client.list("data", None).unwrap();
    assert_eq!(records.len(), 1);
    assert_eq!(records[0].name, "big dir/o 1.csv");
    assert_eq!(records[0].size, body.len() as u64);

    // /info serves over the same plane.
    let info = client.info();
    assert_eq!(info.status, 200);

    // Error taxonomy survives the wire: a missing object is `not_found`,
    // non-retryable, with the kind rebuilt from the x-scoop-error header.
    let err = client.get_object("data", "nope").unwrap_err();
    assert_eq!(err.kind(), "not_found");
    assert!(!err.is_retryable());

    // An unsatisfiable range is a 416 response, not an error.
    let resp = client
        .request(
            scoop_objectstore::Request::get(
                scoop_objectstore::ObjectPath::new("AUTH_net", "data", "big dir/o 1.csv").unwrap(),
            )
            .with_header("range", format!("bytes={}-", body.len() + 10)),
        )
        .unwrap();
    assert_eq!(resp.status, 416);

    // DELETE then GET: gone.
    client.delete_object("data", "big dir/o 1.csv").unwrap();
    assert_eq!(client.get_object("data", "big dir/o 1.csv").unwrap_err().kind(), "not_found");
}

#[test]
fn pool_reuses_keepalive_connections_and_reaps_idle_ones() {
    let cluster = SwiftCluster::new(SwiftConfig::default()).unwrap();
    let client = cluster
        .anonymous_client("AUTH_net")
        .over_tcp_with(
            NetOptions::default(),
            PoolConfig { idle_timeout: Duration::from_millis(80), ..PoolConfig::default() },
        )
        .unwrap();
    client.create_container("data").unwrap();
    client.put_object("data", "o", payload(4_000)).unwrap();

    for _ in 0..24 {
        let resp = client.get_object("data", "o").unwrap();
        resp.read_body().unwrap();
    }
    let pool = client.transport_pool().unwrap();
    let snap = pool.snapshot();
    // Sequential exchanges ride one keep-alive connection: far fewer dials
    // than requests, and the reuse counter proves it.
    assert!(snap.reuses >= 20, "keep-alive not reused: {snap:?}");
    assert!(snap.dials <= 4, "sequential GETs dialed per-request: {snap:?}");
    assert!(snap.open >= 1 && snap.open <= 4, "socket count ran away: {snap:?}");

    // Idle reaper: past the idle window every pooled socket is closed —
    // N queries must not leak N sockets.
    std::thread::sleep(Duration::from_millis(120));
    pool.reap_idle();
    let snap = pool.snapshot();
    assert_eq!(snap.idle, 0, "idle reaper left sockets pooled: {snap:?}");
    assert_eq!(snap.open, 0, "sockets leaked past the idle reaper: {snap:?}");

    // The pool recovers transparently: next request dials fresh.
    client.get_object("data", "o").unwrap().read_body().unwrap();
    assert!(pool.snapshot().dials > snap.dials);
}

#[test]
fn mid_stream_reset_poisons_the_connection_instead_of_pooling_it() {
    // Every exchange RSTs mid-response (capped by max_consecutive, so
    // retries eventually land). The poisoned connections must be evicted,
    // never returned to the idle list.
    let plan = FaultPlan::quiet(seed(0x4E7)).with_wire_rst(1.0);
    let (cluster, client) = tcp_rig(Some(plan));
    let body = payload(50_000);
    client.put_object("data", "o", body.clone()).unwrap();

    let mut verified = 0;
    for _ in 0..12 {
        if let Ok(resp) = client.get_object("data", "o") {
            if let Ok(got) = resp.read_body() {
                assert_eq!(got, body, "reset mid-body produced wrong bytes");
                verified += 1;
            }
        }
    }
    assert!(verified > 0, "no GET ever survived the RST storm");

    let stats = cluster.fault_stats();
    assert!(stats.wire_rsts > 0, "no RST fired: {stats:?}");
    let snap = client.transport_pool().unwrap().snapshot();
    assert!(snap.evictions > 0, "poisoned connections were not evicted: {snap:?}");
    // Every socket a fault killed is gone; only clean keep-alives pool.
    assert!(
        snap.idle as i64 <= snap.open,
        "idle list holds closed sockets: {snap:?}"
    );
}

#[test]
fn every_wire_fault_class_fires_and_is_absorbed() {
    let plan = FaultPlan::quiet(seed(0x717E))
        .with_wire_rst(0.12)
        .with_wire_partial(0.12, Duration::from_millis(2))
        .with_wire_slowloris(0.12, Duration::from_micros(300))
        .with_wire_garbage(0.12)
        .with_wire_half_close(0.12);
    let (cluster, client) = tcp_rig(Some(plan));
    let body = payload(9_000);
    client.put_object("data", "o", body.clone()).unwrap();

    // Soak until every class has fired at least once. Each GET is verified
    // end to end: wire faults may fail a request loudly but never corrupt.
    for round in 0..400 {
        match client.get_object("data", "o").and_then(|r| r.read_body()) {
            Ok(got) => assert_eq!(got, body, "round {round}: wire fault corrupted bytes"),
            Err(e) => assert!(
                e.is_retryable() || e.kind() == "deadline",
                "round {round}: wire fault mapped outside the taxonomy: {e}"
            ),
        }
        let s = cluster.fault_stats();
        if s.wire_rsts > 0
            && s.wire_partials > 0
            && s.wire_slowloris > 0
            && s.wire_garbage > 0
            && s.wire_half_closes > 0
        {
            break;
        }
    }
    let stats = cluster.fault_stats();
    assert!(stats.wire_rsts > 0, "RST never fired: {stats:?}");
    assert!(stats.wire_partials > 0, "partial write never fired: {stats:?}");
    assert!(stats.wire_slowloris > 0, "slowloris never fired: {stats:?}");
    assert!(stats.wire_garbage > 0, "garbage frame never fired: {stats:?}");
    assert!(stats.wire_half_closes > 0, "half-close never fired: {stats:?}");
    assert!(stats.total_wire_faults() >= 5);
}

#[test]
fn puts_replayed_after_wire_faults_never_double_store() {
    // PUT failures under wire faults surface as retryable I/O; the client's
    // re-dispatch rides the x-upload-token dedup. The object must end up
    // stored exactly once with the final bytes, and listings stay sane.
    let plan = FaultPlan::quiet(seed(0x9D7)).with_wire_rst(0.3).with_wire_half_close(0.2);
    let (_cluster, client) = tcp_rig(Some(plan));
    let body = payload(12_345);
    let mut stored = 0;
    for i in 0..20 {
        if client.put_object("data", "p", body.clone()).is_ok() {
            stored += 1;
        }
        let _ = i;
    }
    assert!(stored > 0, "no PUT ever landed under wire faults");
    let records = client.list("data", None).unwrap();
    assert_eq!(records.len(), 1, "replayed PUTs multiplied the object");
    assert_eq!(records[0].size, body.len() as u64);
    // The verification GET itself runs under the fault plan: re-issue on
    // retryable wire errors, exactly like the connector's resuming reads.
    let mut reissues = 0;
    let got = loop {
        match client.get_object("data", "p").and_then(|r| r.read_body()) {
            Ok(got) => break got,
            Err(e) if e.is_retryable() && reissues < 16 => reissues += 1,
            Err(e) => panic!("verification GET failed beyond retry budget: {e}"),
        }
    };
    assert_eq!(got, body);
}

#[test]
fn deadline_expiry_mid_body_is_the_deadline_error_not_generic_io() {
    let (_cluster, client) = tcp_rig(None);
    client.put_object("data", "o", payload(300_000)).unwrap();

    // Pull one chunk inside budget, then let the budget lapse between
    // chunks: the next read must surface the *deadline* kind (non-retryable
    // fail-fast), not a generic I/O timeout that a retry loop would chew on.
    client.set_deadline(Deadline::within(Duration::from_millis(60)));
    let resp = client.get_object("data", "o").unwrap();
    let mut body = resp.body;
    let first = body.next().expect("body has at least one chunk").unwrap();
    assert!(!first.is_empty());
    std::thread::sleep(Duration::from_millis(90));
    let err = loop {
        match body.next() {
            Some(Ok(_)) => continue, // buffered chunks may still drain
            Some(Err(e)) => break e,
            None => panic!("body completed after its budget lapsed"),
        }
    };
    assert_eq!(err.kind(), "deadline", "mid-body expiry surfaced as: {err}");
    assert!(!err.is_retryable());
    client.set_deadline(Deadline::none());

    // And the poisoned mid-frame connection was not pooled for reuse.
    let snap = client.transport_pool().unwrap().snapshot();
    assert!(snap.evictions > 0, "mid-frame connection was pooled: {snap:?}");
}

/// Everything a client can be asked, by name — the table the transport
/// parity tests below walk. Each op reports what it observed as a string so
/// two transports can be compared line by line; the observability bodies
/// change from call to call, so only their presence is reported.
type Op = (&'static str, fn(&SwiftClient) -> scoop_common::Result<String>);

fn every_op() -> Vec<Op> {
    fn present(text: String) -> String {
        format!("non-empty: {}", !text.is_empty())
    }
    vec![
        ("create_container", |c| c.create_container("seam").map(|()| "created".into())),
        ("put_object", |c| {
            for name in ["a/1", "a/2", "b/1"] {
                c.put_object("seam", name, payload(3_000 + name.len()))?;
            }
            c.put_object("seam", "gone", payload(10)).map(|r| r.status.to_string())
        }),
        ("head_object", |c| {
            let head = c.head_object("seam", "a/1")?;
            Ok(format!("{} {:?}", head.status, head.headers.get("content-length")))
        }),
        ("get_object", |c| {
            let resp = c.get_object("seam", "a/1")?;
            let status = resp.status;
            Ok(format!("{status} {:?}", resp.read_body()?))
        }),
        ("delete_object", |c| c.delete_object("seam", "gone").map(|r| r.status.to_string())),
        ("list", |c| c.list("seam", None).map(|records| format!("{records:?}"))),
        ("list with prefix", |c| c.list("seam", Some("a/")).map(|records| format!("{records:?}"))),
        ("info", |c| {
            let info = c.info();
            let status = info.status;
            Ok(format!("{status} {}", present(format!("{:?}", info.read_body()?))))
        }),
        ("metrics_text", |c| c.metrics_text().map(present)),
        ("trace_json", |c| c.trace_json("t-seam").map(present)),
        ("events_json", |c| c.events_json().map(present)),
    ]
}

/// One cluster, one client per transport, each on its own account.
fn both_transports() -> (Arc<SwiftCluster>, [SwiftClient; 2]) {
    let cluster = SwiftCluster::new(SwiftConfig::default()).unwrap();
    let in_process = cluster.anonymous_client("AUTH_inproc");
    let tcp = cluster.anonymous_client("AUTH_tcp").over_tcp().unwrap();
    // Under SCOOP_TRANSPORT=tcp both are TCP clients; the parity claims
    // hold trivially then, and the suite's other legs cover in-process.
    assert!(tcp.is_tcp());
    (cluster, [in_process, tcp])
}

#[test]
fn every_op_answers_the_same_on_both_transports() {
    let (_cluster, clients) = both_transports();
    let [in_process, tcp] = clients.map(|client| {
        every_op()
            .into_iter()
            .map(|(name, op)| format!("{name}: {:?}", op(&client).map_err(|e| e.to_string())))
            .collect::<Vec<_>>()
    });
    assert_eq!(in_process, tcp);
    // And the answers are the interesting ones, not eleven equal errors.
    let line = |name: &str| tcp.iter().find(|l| l.starts_with(&format!("{name}: "))).unwrap();
    let expect = |name: &str, needle: &str| assert!(line(name).contains(needle), "{}", line(name));
    expect("create_container", "created");
    expect("put_object", "201");
    expect("get_object", "200");
    expect("list", "b/1");
    expect("list with prefix", "a/2");
    assert!(!line("list with prefix").contains("b/1"), "prefix ignored");
    for name in ["info", "metrics_text", "trace_json", "events_json"] {
        expect(name, "non-empty: true");
    }
    expect("info", "200");
}

#[test]
fn an_expired_deadline_fails_every_op_on_both_transports() {
    let (_cluster, clients) = both_transports();
    for client in clients {
        for (_, op) in every_op().into_iter().take(2) {
            op(&client).unwrap(); // fixture: container + objects exist
        }
        client.set_deadline(Deadline::at(std::time::Instant::now() - Duration::from_millis(1)));
        for (name, op) in every_op() {
            let transport = if client.is_tcp() { "tcp" } else { "in-process" };
            match op(&client) {
                // `info` is best-effort: its failure is a 503, not an error.
                Ok(seen) => {
                    assert!(name == "info" && seen.starts_with("503"), "{transport} {name}: {seen}")
                }
                Err(e) => assert_eq!(e.kind(), "deadline", "{transport} {name}: {e}"),
            }
        }
    }
}

#[test]
fn a_listing_on_a_connection_the_server_closed_redials_like_a_get() {
    // The server hangs up keep-alive connections after 40 ms idle; the pool
    // would keep them for 10 s. No retry policy: only the transport's own
    // stale-connection redial (idempotent GET/HEAD) can save the exchange.
    let cluster = SwiftCluster::new(SwiftConfig::default()).unwrap();
    let client = cluster
        .anonymous_client("AUTH_net")
        .with_retry(RetryPolicy::none())
        .over_tcp_with(
            NetOptions { idle_timeout: Duration::from_millis(40), ..NetOptions::default() },
            PoolConfig::default(),
        )
        .unwrap();
    client.create_container("data").unwrap();
    client.put_object("data", "o", payload(100)).unwrap();
    let pool = client.transport_pool().unwrap();
    let dials = || pool.snapshot().dials;

    let ops: [(&str, &dyn Fn() -> usize); 2] = [
        ("list", &|| client.list("data", None).unwrap().len()),
        ("get", &|| client.get_object("data", "o").unwrap().read_body().unwrap().len()),
    ];
    for (name, op) in ops {
        op();
        let before = dials();
        assert!(pool.snapshot().idle > 0, "{name}: nothing pooled to go stale");
        std::thread::sleep(Duration::from_millis(150));
        assert!(op() > 0, "{name} on a stale connection");
        assert_eq!(dials(), before + 1, "{name}: expected exactly one redial");
    }
    assert_eq!(client.retries(), 0, "the redial is the transport's, not the retry policy's");
}

/// Observability smoke over a chaos-seeded wire: traced GETs under active
/// wire faults must still merge server spans through the trailer, and the
/// live `/metrics`, `/trace/{id}` and `/events` endpoints must answer over
/// the same degraded transport — with the per-fault-class counters the
/// faults just incremented visible in the Prometheus text.
#[test]
fn observability_endpoints_serve_over_a_chaos_seeded_wire() {
    use scoop_common::telemetry;

    let plan = FaultPlan::quiet(seed(0x0B5E))
        .with_wire_rst(0.08)
        .with_wire_partial(0.08, Duration::from_millis(2))
        .with_wire_garbage(0.08);
    let (cluster, client) = tcp_rig(Some(plan));
    let body = payload(20_000);
    client.put_object("data", "obs", body.clone()).unwrap();

    let trace = telemetry::new_trace_id();
    client.set_trace(Some(trace.clone()));
    // Soak traced GETs until at least one wire fault has fired; each
    // success must still deliver exact bytes despite the chaos.
    for round in 0..200 {
        match client.get_object("data", "obs").and_then(|r| r.read_body()) {
            Ok(got) => assert_eq!(got, body, "round {round}: corrupted under chaos"),
            Err(e) => assert!(
                e.is_retryable() || e.kind() == "deadline",
                "round {round}: fault outside the taxonomy: {e}"
            ),
        }
        if round >= 20 && cluster.fault_stats().total_wire_faults() > 0 {
            break;
        }
    }
    assert!(cluster.fault_stats().total_wire_faults() > 0, "chaos never fired");

    // Server spans crossed back through the trailer and were merged into
    // the local store tagged remote — chaos must not unthread the trace.
    let spans = telemetry::trace_spans(&trace);
    assert!(
        spans.iter().any(|s| s.remote && s.layer == telemetry::layers::PROXY),
        "no remote proxy span survived the chaos soak: {spans:?}"
    );
    assert!(
        spans.iter().any(|s| s.remote && s.layer == telemetry::layers::OBJSERVER),
        "no remote objserver span survived the chaos soak: {spans:?}"
    );
    assert!(
        spans.iter().any(|s| !s.remote && s.layer == telemetry::layers::CLIENT),
        "no local client span recorded: {spans:?}"
    );

    // The endpoints ride the same faulty wire; a fetch may lose its own
    // connection to a fault, so each gets a few attempts.
    let fetch = |f: &dyn Fn() -> scoop_common::Result<String>| -> String {
        for _ in 0..20 {
            if let Ok(text) = f() {
                return text;
            }
        }
        panic!("endpoint never answered through the chaos");
    };
    let metrics = fetch(&|| client.metrics_text());
    let stats = cluster.fault_stats();
    for (count, name) in [
        (stats.wire_rsts, telemetry::names::NET_WIRE_FAULTS_RST),
        (stats.wire_partials, telemetry::names::NET_WIRE_FAULTS_PARTIAL),
        (stats.wire_garbage, telemetry::names::NET_WIRE_FAULTS_GARBAGE),
    ] {
        if count > 0 {
            assert!(
                metrics.contains(name),
                "/metrics missing fired fault-class series {name}"
            );
        }
    }
    for name in [
        telemetry::names::NET_WIRE_FAULTS,
        telemetry::names::NET_POOL_CHECKOUT_WAIT_US,
        telemetry::names::NET_POOL_IN_FLIGHT,
        telemetry::names::NET_SERVER_WORKERS,
    ] {
        assert!(metrics.contains(name), "/metrics missing {name}");
    }

    let trace_body = fetch(&|| client.trace_json(&trace));
    assert!(
        trace_body.contains(&trace),
        "/trace/{{id}} must echo the trace ID: {trace_body}"
    );
    assert!(
        trace_body.contains(telemetry::layers::OBJSERVER),
        "/trace/{{id}} must carry the server-side spans: {trace_body}"
    );
}

// ---- worker per live connection -------------------------------------------

/// A TCP client of `cluster` with its own connection pool.
fn pooled_client(cluster: &Arc<SwiftCluster>, opts: &NetOptions) -> SwiftClient {
    cluster
        .anonymous_client("AUTH_net")
        .over_tcp_with(opts.clone(), PoolConfig::default())
        .unwrap()
}

/// A cluster whose front end runs with `opts`, holding one small object;
/// the client that loaded it is gone, so its worker is idle.
fn front_end(opts: &NetOptions) -> (Arc<SwiftCluster>, Arc<scoop_objectstore::NetHandle>) {
    let cluster = SwiftCluster::new(SwiftConfig::default()).unwrap();
    let setup = pooled_client(&cluster, opts);
    setup.create_container("data").unwrap();
    setup.put_object("data", "o", payload(2_000)).unwrap();
    drop(setup);
    let handle = cluster.serve_net(opts.clone()).unwrap();
    // Let the worker see its peer hang up and return to idle.
    std::thread::sleep(Duration::from_millis(100));
    (cluster, handle)
}

#[test]
fn two_connections_dialed_back_to_back_beside_an_idle_worker_are_both_answered() {
    let opts = NetOptions { io_timeout: Duration::from_secs(2), ..NetOptions::default() };
    let (cluster, handle) = front_end(&opts);
    assert_eq!(handle.workers_started(), 1);
    // Both connections stay open in their pools: if the second one were
    // handed to the worker the first one holds, it would sit out that
    // connection's keep-alive window (5 s), well past io_timeout.
    let (a, b) = (pooled_client(&cluster, &opts), pooled_client(&cluster, &opts));
    for (name, client) in [("first", &a), ("second", &b)] {
        let asked = std::time::Instant::now();
        let got = client.get_object("data", "o").unwrap().read_body().unwrap();
        assert_eq!(got, payload(2_000));
        assert!(
            asked.elapsed() < opts.io_timeout / 4,
            "{name} connection answered after {:?}",
            asked.elapsed()
        );
    }
    assert_eq!(handle.workers_started(), 2, "one idle worker claimed, one started");
}

#[test]
fn a_connection_past_the_worker_cap_waits_for_a_worker_to_come_free() {
    let opts = NetOptions { workers: 2, ..NetOptions::default() };
    let (cluster, handle) = front_end(&opts);
    let (a, b) = (pooled_client(&cluster, &opts), pooled_client(&cluster, &opts));
    for client in [&a, &b] {
        client.get_object("data", "o").unwrap().read_body().unwrap();
    }
    assert_eq!(handle.workers_started(), 2);

    // Both workers are held by keep-alive connections: a third connection
    // queues, and is served once one of them closes.
    let third = pooled_client(&cluster, &opts);
    let (tx, rx) = std::sync::mpsc::channel();
    let waiter = std::thread::spawn(move || {
        let _ = tx.send(third.get_object("data", "o").and_then(|r| r.read_body()));
    });
    assert!(
        rx.recv_timeout(Duration::from_millis(300)).is_err(),
        "a third connection was served past a cap of 2 workers"
    );
    drop(a);
    let got = rx
        .recv_timeout(Duration::from_secs(2))
        .expect("the queued connection was not served once a worker came free");
    assert_eq!(got.unwrap(), payload(2_000));
    waiter.join().unwrap();
    assert_eq!(handle.workers_started(), 2, "the cap is a cap");
}

/// Threads of this process whose name is `name` (`/proc/self/task/*/comm`).
#[cfg(target_os = "linux")]
fn threads_named(name: &str) -> usize {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.trim_end() == name)
        .count()
}

#[cfg(target_os = "linux")]
#[test]
fn dropping_the_handle_joins_every_worker_it_started() {
    let opts = NetOptions::default();
    let (cluster, handle) = front_end(&opts);
    let port = handle.addr().port();
    // The front end's threads carry its port in their names, so threads of
    // concurrently running tests do not count.
    let (accept, worker) = (format!("net-acc-{port}"), format!("net-wrk-{port}"));
    let clients: Vec<SwiftClient> = (0..3).map(|_| pooled_client(&cluster, &opts)).collect();
    for client in &clients {
        client.get_object("data", "o").unwrap().read_body().unwrap();
    }
    let started = handle.workers_started();
    assert!((1..=3).contains(&started), "{started} workers for three live connections");
    assert_eq!(threads_named(&worker), started, "a started worker is not running");
    assert_eq!(threads_named(&accept), 1);

    drop(clients);
    drop(cluster);
    let handle = Arc::try_unwrap(handle).unwrap_or_else(|_| panic!("the handle is still shared"));
    drop(handle);
    // A joined thread may linger in /proc for a moment after its join.
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while threads_named(&worker) + threads_named(&accept) > 0 {
        assert!(std::time::Instant::now() < deadline, "front-end threads outlived the handle");
        std::thread::sleep(Duration::from_millis(5));
    }
}
