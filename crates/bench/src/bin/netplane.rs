//! Concurrent-client throughput gate for the TCP data plane.
//!
//! Measures sustained GET throughput through the full network stack —
//! HTTP/1.1 framing, connection pooling, keep-alive reuse — at 1, 8 and 32
//! concurrent clients pulling a multi-megabyte object over loopback. The
//! numbers gate the wire codec and pool against throughput regressions the
//! same way `hotpath` gates the CSV scan. One more row gates the
//! per-request path the columnar arm lives on: back-to-back 64 KiB ranged
//! GETs on one keep-alive connection, where a request's fixed cost — not
//! the stream's bandwidth — sets the rate.
//!
//! ```text
//! cargo run -p scoop-bench --release --bin netplane                 # table
//! cargo run -p scoop-bench --release --bin netplane -- --write      # + BENCH_netplane.json
//! cargo run -p scoop-bench --release --bin netplane -- --quick --check BENCH_netplane.json
//! ```
//!
//! `--quick` shrinks the object and round count for CI smoke runs.
//! `--check FILE` fails when any current throughput drops below 50% of the
//! recorded number — the floor is looser than `hotpath`'s because loopback
//! scheduling noise dwarfs codec-level regressions on shared CI runners.
//! Throughputs are decimal MB/s of body bytes delivered to clients.

use bytes::Bytes;
use scoop_objectstore::request::{ByteRange, Request};
use scoop_objectstore::{ObjectPath, SwiftCluster, SwiftConfig};
use std::sync::Arc;
use std::time::Instant;

/// CI gate: fail when current throughput drops below 50% of the recorded one.
const REGRESSION_FLOOR: f64 = 0.5;

const DEFAULT_JSON: &str = "BENCH_netplane.json";
const CLIENTS: &[usize] = &[1, 8, 32];
/// Size of one ranged GET in the per-request row.
const RANGE_BYTES: usize = 64 * 1024;

struct BenchResult {
    name: String,
    bytes: u64,
    mb_per_s: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let write = args.iter().any(|a| a == "--write");
    let check = args
        .iter()
        .position(|a| a == "--check")
        .map(|i| args.get(i + 1).cloned().unwrap_or_else(|| DEFAULT_JSON.into()));

    // Total GETs per configuration and measurement passes; quick mode
    // trims the GET count, NOT the object size — MB/s depends on the
    // framing-overhead to body-bytes ratio, so a smaller quick object
    // would not be comparable against the recorded full-mode numbers. The
    // GET budget is per *configuration* (split across the clients) so
    // every timed window is long enough that one scheduler blip cannot
    // halve it, and each configuration reports the best of several passes
    // (hotpath's `best_of` discipline, applied per thread group).
    let object_bytes = 4 << 20;
    // Sized for a plane that moves ~2 GB/s: 128 GETs of 4 MiB keep a
    // quick window near 0.3 s (at 32 it had shrunk to 0.08 s once the plane
    // got five times faster, and one blip on a shared runner halved it).
    let (total_gets, passes) = if quick { (128, 2) } else { (384, 2) };
    let results = run_benches(object_bytes, total_gets, passes);

    println!("net-plane GET throughput ({} mode):", if quick { "quick" } else { "full" });
    for r in &results {
        println!("  {:<22} {:>8.1} MB/s", r.name, r.mb_per_s);
    }

    if write {
        let json = render_json(&results, quick, object_bytes);
        std::fs::write(DEFAULT_JSON, json).expect("write BENCH_netplane.json");
        println!("wrote {DEFAULT_JSON}");
    }

    if let Some(path) = check {
        match check_against(&results, &path) {
            Ok(msgs) => {
                for m in msgs {
                    println!("  {m}");
                }
                println!("bench-smoke: OK ({path})");
            }
            Err(e) => {
                eprintln!("bench-smoke: FAILED: {e}");
                std::process::exit(1);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Bench
// ---------------------------------------------------------------------------

/// A pseudo-random body large enough that framing overhead is noise.
fn payload(len: usize) -> Bytes {
    let mut v = Vec::with_capacity(len);
    let mut x: u64 = 0x5C00_93A7;
    for _ in 0..len {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        v.push(x as u8);
    }
    Bytes::from(v)
}

fn run_benches(object_bytes: usize, total_gets: usize, passes: usize) -> Vec<BenchResult> {
    let cluster = SwiftCluster::new(SwiftConfig::default()).expect("cluster");
    let seed_client = cluster.anonymous_client("AUTH_bench");
    seed_client.create_container("bench").expect("container");
    seed_client
        .put_object("bench", "blob", payload(object_bytes))
        .expect("upload");

    let mut results = Vec::new();
    for &n in CLIENTS {
        let rounds = (total_gets / n).max(2);
        let mbs = (0..passes.max(1))
            .map(|_| measure(&cluster, n, object_bytes, rounds))
            .fold(0.0f64, f64::max);
        results.push(BenchResult {
            name: format!("tcp_get_{n}_clients"),
            bytes: (n * rounds * object_bytes) as u64,
            mb_per_s: mbs,
        });
    }
    let mbs = (0..passes.max(1))
        .map(|_| measure_ranges(&cluster, object_bytes, total_gets))
        .fold(0.0f64, f64::max);
    results.push(BenchResult {
        name: "tcp_range64k_1_clients".to_string(),
        bytes: (total_gets * object_bytes) as u64,
        mb_per_s: mbs,
    });
    results
}

/// MB/s of one pooled TCP client walking the object `sweeps` times in
/// [`RANGE_BYTES`] ranged GETs, one after the other on one keep-alive
/// connection. One untimed GET warms the dial.
fn measure_ranges(cluster: &Arc<SwiftCluster>, object_bytes: usize, sweeps: usize) -> f64 {
    let client = cluster.anonymous_client("AUTH_bench").over_tcp().expect("tcp transport");
    let path = ObjectPath::new("AUTH_bench", "bench", "blob").expect("object path");
    let range = |at: usize| {
        let req = Request::get(path.clone())
            .with_range(ByteRange { start: at as u64, end: Some((at + RANGE_BYTES - 1) as u64) });
        let body = client.request(req).and_then(|r| r.read_body()).expect("ranged GET");
        assert_eq!(body.len(), RANGE_BYTES.min(object_bytes - at), "ranged body truncated");
        body.len()
    };
    range(0);

    let t0 = Instant::now();
    let mut delivered = 0usize;
    for _ in 0..sweeps {
        delivered += (0..object_bytes).step_by(RANGE_BYTES).map(range).sum::<usize>();
    }
    assert_eq!(delivered, sweeps * object_bytes, "bytes went missing");
    let pool = client.transport_pool().expect("tcp client has a pool").snapshot();
    assert_eq!(pool.dials, 1, "ranged GETs must ride one keep-alive connection: {pool:?}");
    delivered as f64 / 1e6 / t0.elapsed().as_secs_f64().max(1e-9)
}

/// Aggregate MB/s across `n` threads, each with its own pooled TCP client
/// GETting the object `rounds` times. One untimed GET per thread warms the
/// dial and the page cache, so the clock sees steady-state keep-alive reuse.
fn measure(cluster: &Arc<SwiftCluster>, n: usize, object_bytes: usize, rounds: usize) -> f64 {
    let clients: Vec<_> = (0..n)
        .map(|_| {
            let c = cluster
                .anonymous_client("AUTH_bench")
                .over_tcp()
                .expect("tcp transport");
            let body = c
                .get_object("bench", "blob")
                .and_then(|r| r.read_body())
                .expect("warmup GET");
            assert_eq!(body.len(), object_bytes, "warmup body truncated");
            c
        })
        .collect();

    let t0 = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter()
            .map(|c| {
                s.spawn(move || {
                    let mut total = 0u64;
                    for _ in 0..rounds {
                        let body = c
                            .get_object("bench", "blob")
                            .and_then(|r| r.read_body())
                            .expect("GET");
                        total += body.len() as u64;
                    }
                    total
                })
            })
            .collect();
        let delivered: u64 = handles.into_iter().map(|h| h.join().expect("client thread")).sum();
        assert_eq!(delivered, (n * rounds * object_bytes) as u64, "bytes went missing");
    });
    let secs = t0.elapsed().as_secs_f64().max(1e-9);
    (n * rounds * object_bytes) as f64 / 1e6 / secs
}

// ---------------------------------------------------------------------------
// Hand-rolled JSON (the workspace deliberately carries no serde_json)
// ---------------------------------------------------------------------------

fn render_json(results: &[BenchResult], quick: bool, object_bytes: usize) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema_version\": 1,\n");
    out.push_str(&format!("  \"mode\": \"{}\",\n", if quick { "quick" } else { "full" }));
    out.push_str(&format!("  \"object_bytes\": {object_bytes},\n"));
    out.push_str("  \"unit\": \"decimal MB/s\",\n");
    out.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"name\": \"{}\", \"bytes\": {}, \"mb_per_s\": {:.1} }}{}\n",
            r.name,
            r.bytes,
            r.mb_per_s,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Extract `(name, mb_per_s)` pairs from the one-result-per-line layout
/// `render_json` emits.
fn parse_results(text: &str) -> Result<Vec<(String, f64)>, String> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if !line.contains("\"name\"") {
            continue;
        }
        let name = extract_string(line, "\"name\"")
            .ok_or_else(|| format!("malformed result line: {line}"))?;
        let mbs = extract_number(line, "\"mb_per_s\"")
            .ok_or_else(|| format!("missing mb_per_s in: {line}"))?;
        out.push((name, mbs));
    }
    if out.is_empty() {
        return Err("no results found in JSON".to_string());
    }
    Ok(out)
}

fn extract_string(line: &str, key: &str) -> Option<String> {
    let rest = &line[line.find(key)? + key.len()..];
    let rest = rest.trim_start_matches([':', ' ']);
    let rest = rest.strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

fn extract_number(line: &str, key: &str) -> Option<f64> {
    let rest = &line[line.find(key)? + key.len()..];
    let rest = rest.trim_start_matches([':', ' ']);
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn check_against(results: &[BenchResult], path: &str) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let recorded = parse_results(&text)?;
    let mut msgs = Vec::new();
    for r in results {
        let Some(&(_, rec)) = recorded.iter().find(|(n, _)| *n == r.name) else {
            return Err(format!("bench '{}' missing from {path}", r.name));
        };
        if r.mb_per_s < rec * REGRESSION_FLOOR {
            return Err(format!(
                "'{}' regressed: {:.1} MB/s vs recorded {rec:.1} MB/s (floor {:.1})",
                r.name,
                r.mb_per_s,
                rec * REGRESSION_FLOOR
            ));
        }
        msgs.push(format!(
            "{:<22} {:>8.1} MB/s vs recorded {rec:.1} MB/s",
            r.name, r.mb_per_s
        ));
    }
    Ok(msgs)
}
