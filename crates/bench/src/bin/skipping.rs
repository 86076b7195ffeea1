//! Data-skipping gate: zone-map block pruning vs full scans.
//!
//! Uploads a clustered CSV object through the `zoneindex` PUT storlet, then
//! drives `csvfilter` pushdown GETs at three selectivities (fraction of
//! records the predicate filters OUT: 50%, 95%, 99.9%) and reports, per
//! configuration, the object bytes actually read, the skipped-vs-total
//! ratio, and the effective ingestion rate (logical object MB per second of
//! query wall time). The numbers gate the planner against both throughput
//! regressions and structural ones — the 99.9% arm must keep reading under
//! 10% of the object.
//!
//! ```text
//! cargo run -p scoop-bench --release --bin skipping                  # table
//! cargo run -p scoop-bench --release --bin skipping -- --write       # + BENCH_skipping.json
//! cargo run -p scoop-bench --release --bin skipping -- --quick --check BENCH_skipping.json
//! ```
//!
//! `--quick` trims the round count for CI smoke runs (the object is the
//! same, so skipped ratios are directly comparable to the recorded file).
//! `--check [FILE]` fails when any effective rate drops below 50% of the
//! recorded one, or when the 99.9%-selectivity arm reads 10% or more of the
//! object's bytes.

use bytes::Bytes;
use scoop_bench::{best_of, mbs, reads_under, Row, SKIPPING};
use scoop_common::headers as ch;
use scoop_csv::{Predicate, PushdownSpec, Value};
use scoop_objectstore::middleware::Pipeline;
use scoop_objectstore::{ObjectPath, SwiftCluster, SwiftConfig};
use scoop_storlets::middleware::encode_params;
use scoop_storlets::{headers, PolicyStore, StorletEngine, StorletMiddleware};
use std::collections::HashMap;
use std::sync::Arc;

/// Structural gate: the 99.9%-selectivity arm must read under this fraction
/// of the object.
const MAX_READ_FRACTION_999: f64 = 0.10;

const ROWS: usize = 60_000;
const BLOCK_BYTES: u64 = 64 * 1024;

fn main() {
    let args = SKIPPING.args();

    let (rounds, passes) = if args.quick { (4, 2) } else { (16, 3) };
    let (results, object_bytes) = run_benches(rounds, passes);

    println!(
        "data-skipping pushdown over a {:.1} MB zone-indexed object ({} mode):",
        object_bytes as f64 / 1e6,
        args.mode()
    );
    for r in &results {
        println!(
            "  {:<12} read {:>9} B  skipped {:>5.1}%  {:>8.1} MB/s effective",
            r.name,
            r.get("bytes_read").unwrap_or("?"),
            r.get("skipped_ratio").and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0) * 100.0,
            r.mb_per_s
        );
    }

    let structural = reads_under("sel_99_9", MAX_READ_FRACTION_999, object_bytes);
    SKIPPING.finish(&args, &[("object_bytes", object_bytes.to_string())], &results, structural);
}

// ---------------------------------------------------------------------------
// Bench
// ---------------------------------------------------------------------------

/// A clustered object: `k` ascends 0..ROWS, so range predicates over `k`
/// map to contiguous block runs — the shape zone maps are built for.
fn dataset() -> Vec<u8> {
    let mut out = Vec::with_capacity(ROWS * 64);
    out.extend_from_slice(b"k,vid,reading,city\n");
    for i in 0..ROWS {
        out.extend_from_slice(
            format!("{i},m{:05},{:.2},city{}\n", i % 977, (i % 400) as f64 * 0.25, i % 7)
                .as_bytes(),
        );
    }
    out
}

fn spec_for(selectivity: &str) -> PushdownSpec {
    // Selectivity = fraction of records filtered OUT.
    let predicate = match selectivity {
        "sel_50" => Predicate::Ge("k".into(), Value::Int(ROWS as i64 / 2)),
        "sel_95" => Predicate::Ge("k".into(), Value::Int((ROWS as i64 * 95) / 100)),
        _ => Predicate::Eq("k".into(), Value::Int((ROWS as i64 * 999) / 1000)),
    };
    PushdownSpec { columns: None, predicate: Some(predicate), has_header: true }
}

fn run_benches(rounds: usize, passes: usize) -> (Vec<Row>, u64) {
    let cluster = SwiftCluster::new(SwiftConfig::default()).expect("cluster");
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

    let client = cluster.anonymous_client("AUTH_bench");
    client.create_container("bench").expect("container");
    let data = dataset();
    let object_bytes = data.len() as u64;
    let mut params = HashMap::new();
    params.insert("schema".to_string(), "k,vid,reading,city".to_string());
    params.insert("header".to_string(), "1".to_string());
    params.insert("block".to_string(), BLOCK_BYTES.to_string());
    let put = scoop_objectstore::Request::put(
        ObjectPath::new("AUTH_bench", "bench", "clustered.csv").expect("path"),
        Bytes::from(data),
    )
    .with_header(headers::RUN_STORLET, "zoneindex")
    .with_header(headers::PARAMETERS, encode_params(&params));
    assert_eq!(client.request(put).expect("indexed PUT").status, 201);

    let mut results = Vec::new();
    for name in ["sel_50", "sel_95", "sel_99_9"] {
        let spec = spec_for(name);
        let mut q = HashMap::new();
        q.insert("spec".to_string(), spec.to_header());
        q.insert("schema".to_string(), "k,vid,reading,city".to_string());
        let enc = encode_params(&q);

        // One untimed query for scanned/skipped accounting and warmup.
        let (scanned, skipped) = query(&cluster, &enc);
        assert_eq!(scanned + skipped, object_bytes, "accounting must cover the object");

        let secs = best_of(passes, || (0..rounds).map(|_| query(&cluster, &enc).0).sum());
        let rate = mbs(rounds * object_bytes as usize, secs);
        let skipped_ratio = skipped as f64 / object_bytes as f64;
        let row = Row::new(name).with("bytes_read", scanned);
        results.push(row.with("skipped_ratio", format!("{skipped_ratio:.4}")).rate(rate));
    }
    (results, object_bytes)
}

/// One pushdown GET; returns `(scanned, skipped)` object bytes.
fn query(cluster: &Arc<SwiftCluster>, enc_params: &str) -> (u64, u64) {
    let client = cluster.anonymous_client("AUTH_bench");
    let req = scoop_objectstore::Request::get(
        ObjectPath::new("AUTH_bench", "bench", "clustered.csv").expect("path"),
    )
    .with_header(headers::RUN_STORLET, "csvfilter")
    .with_header(headers::PARAMETERS, enc_params);
    let resp = client.request(req).expect("pushdown GET");
    assert_eq!(resp.status, 200, "pushdown GET failed");
    let bytes = |header: &str| -> u64 {
        let value = resp.headers.get(header).and_then(|v| v.parse().ok());
        value.unwrap_or_else(|| panic!("planned GET must report {header}"))
    };
    let accounted = (bytes(ch::SCANNED_BYTES), bytes(ch::SKIPPED_BYTES));
    resp.read_body().expect("body");
    accounted
}
