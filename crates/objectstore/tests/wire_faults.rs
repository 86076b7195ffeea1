//! What each wire fault class looks like from the client, exchange by
//! exchange: the error kind it surfaces as, and whether the connection it
//! hit is kept or closed. The table below was recorded before the server's
//! response path coalesced its writes (one `write` per 64 KiB of frames
//! instead of three per stream item); the faults act below that buffer, on
//! the same byte offsets, so the table must not move.

use bytes::Bytes;
use scoop_objectstore::{FaultPlan, SwiftCluster, SwiftConfig};
use std::time::Duration;

/// One GET, no client retries: `(outcome, dials so far, evictions so far,
/// connections idle in the pool afterwards)`.
type Observed = (String, u64, u64, usize);

/// Three GETs under `plan` at rate 1.0: the consecutive-fault cap (2) makes
/// them fault, fault, clean.
fn observe(plan: FaultPlan) -> Vec<Observed> {
    let cluster =
        SwiftCluster::new(SwiftConfig { fault_plan: Some(plan), ..SwiftConfig::default() }).unwrap();
    // Wire faults live on the wire: load the fixture in process.
    let setup = cluster.anonymous_client("AUTH_w");
    setup.create_container("c").unwrap();
    let body: Bytes = (0..50_000usize).map(|i| (i * 131 % 251) as u8).collect();
    setup.put_object("c", "o", body.clone()).unwrap();

    let client = cluster.anonymous_client("AUTH_w").over_tcp().unwrap();
    let pool = client.transport_pool().unwrap().clone();
    (0..3)
        .map(|_| {
            let outcome = match client.get_object("c", "o").and_then(|r| r.read_body()) {
                Ok(got) => {
                    assert_eq!(got, body, "a wire fault corrupted a body it let through");
                    "ok".to_string()
                }
                Err(e) => format!("{} retryable={}", e.kind(), e.is_retryable()),
            };
            let snap = pool.snapshot();
            (outcome, snap.dials, snap.evictions, snap.idle)
        })
        .collect()
}

fn row(outcome: &str, dials: u64, evictions: u64, idle: usize) -> Observed {
    (outcome.to_string(), dials, evictions, idle)
}

#[test]
fn rst_cuts_the_response_and_the_connection_is_not_kept() {
    assert_eq!(
        observe(FaultPlan::quiet(1).with_wire_rst(1.0)),
        // The head fits the prefix a reset lets through: the body dies, and
        // the pool evicts the connection it rode.
        [row("io retryable=true", 1, 1, 0), row("io retryable=true", 2, 2, 0), row("ok", 3, 2, 1)]
    );
}

#[test]
fn a_partial_write_stalls_then_dies_and_the_connection_is_not_kept() {
    assert_eq!(
        observe(FaultPlan::quiet(2).with_wire_partial(1.0, Duration::from_millis(2))),
        [row("io retryable=true", 1, 1, 0), row("io retryable=true", 2, 2, 0), row("ok", 3, 2, 1)]
    );
}

#[test]
fn garbage_fails_the_head_and_the_connection_is_not_kept() {
    assert_eq!(
        observe(FaultPlan::quiet(3).with_wire_garbage(1.0)),
        [row("io retryable=true", 1, 0, 0), row("io retryable=true", 2, 0, 0), row("ok", 3, 0, 1)]
    );
}

#[test]
fn a_half_close_is_eof_before_the_response_and_the_connection_is_not_kept() {
    assert_eq!(
        observe(FaultPlan::quiet(4).with_wire_half_close(1.0)),
        [row("io retryable=true", 1, 0, 0), row("io retryable=true", 2, 0, 0), row("ok", 3, 0, 1)]
    );
}

#[test]
fn slowloris_only_delays_the_request_and_the_connection_is_kept() {
    assert_eq!(
        observe(FaultPlan::quiet(5).with_wire_slowloris(1.0, Duration::from_micros(200))),
        [row("ok", 1, 0, 1), row("ok", 1, 0, 1), row("ok", 1, 0, 1)]
    );
}
