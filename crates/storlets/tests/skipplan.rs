//! Differential property tests for store-side data skipping.
//!
//! The block planner is an *optimization*, never a semantics change: for any
//! object, block size, predicate and read window, (1) every record the
//! predicate matches lies inside a surviving planned range, and (2) running
//! the CSV filter over the surviving ranges — exactly as the middleware
//! drives it — is byte-identical to the full scan. A third property checks
//! the end-to-end stale path: overwriting an indexed object must fall back
//! transparently with results computed over the new bytes.

use bytes::Bytes;
use proptest::prelude::*;
use scoop_common::stream;
use scoop_csv::filter::filter_buffer;
use scoop_csv::{Predicate, PushdownSpec, Value};
use scoop_storlets::filters::csv::CsvFilterStorlet;
use scoop_storlets::filters::index::{stats_from_context, ZoneIndexStorlet};
use scoop_storlets::planner::plan_ranges;
use scoop_storlets::{InvocationContext, Storlet};
use std::collections::HashMap;

const SCHEMA: &str = "vid,n,city";

const CITIES: [&str; 5] = ["Rotterdam", "Paris", "Nice", "", "Liège"];

fn make_csv(rows: &[(u32, Option<i32>, u8)]) -> Vec<u8> {
    let mut out = Vec::from(&b"vid,n,city\n"[..]);
    for (vid, n, city) in rows {
        let city = CITIES[*city as usize % CITIES.len()];
        let n = n.map(|n| n.to_string()).unwrap_or_default();
        out.extend_from_slice(format!("m{vid},{n},{city}\n").as_bytes());
    }
    out
}

/// A small deterministic generator driven by the proptest seed.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (self.0 >> 33) % n
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

fn literal(rng: &mut Lcg) -> Value {
    match rng.below(8) {
        0..=2 => Value::Int(*rng.pick(&[-50, -3, 0, 5, 12, 49])),
        3 => Value::Float(*rng.pick(&[-20.5, 0.0, 5.0, 49.5, f64::NAN])),
        // The cities, near misses, and text that spells a number.
        4..=6 => {
            let text = rng.pick(&["Paris", "Liège", "Liège", "Lie", "Liz", "Nice", "R", "5", "-3", ""]);
            Value::Str((*text).into())
        }
        _ => Value::Null,
    }
}

/// A random predicate over the schema, nested up to `depth`: every
/// `Predicate` variant on every column, so numeric literals meet `city` and
/// string literals meet `n`, and `LIKE` patterns hold `_` and `%`.
fn predicate(rng: &mut Lcg, depth: usize) -> Predicate {
    if depth > 0 && rng.below(3) == 0 {
        let a = Box::new(predicate(rng, depth - 1));
        return match rng.below(3) {
            0 => Predicate::And(a, Box::new(predicate(rng, depth - 1))),
            1 => Predicate::Or(a, Box::new(predicate(rng, depth - 1))),
            _ => Predicate::Not(a),
        };
    }
    let c = rng.pick(&["vid", "n", "city", "CITY"]).to_string();
    let text = |rng: &mut Lcg| rng.pick(&["Li", "Liè", "Liège", "è", "ge", "Ro", "ce", "m1", "1", "-", ""]).to_string();
    match rng.below(13) {
        0 => Predicate::Eq(c, literal(rng)),
        1 => Predicate::Ne(c, literal(rng)),
        2 => Predicate::Lt(c, literal(rng)),
        3 => Predicate::Le(c, literal(rng)),
        4 => Predicate::Gt(c, literal(rng)),
        5 => Predicate::Ge(c, literal(rng)),
        6 => {
            let patterns = ["Li_ge", "Liè%", "L%", "%e", "_a%", "N_c_", "Liège", "m_", "%è%", "1_", "-_%", "%"];
            Predicate::Like(c, rng.pick(&patterns).to_string())
        }
        7 => Predicate::StartsWith(c, text(rng)),
        8 => Predicate::EndsWith(c, text(rng)),
        9 => Predicate::Contains(c, text(rng)),
        10 => Predicate::In(c, (0..rng.below(4)).map(|_| literal(rng)).collect()),
        11 => Predicate::IsNull(c),
        _ => Predicate::IsNotNull(c),
    }
}

fn index(data: &[u8], block: u64) -> scoop_common::zonestats::ObjectStats {
    let mut params = HashMap::new();
    params.insert("schema".to_string(), SCHEMA.to_string());
    params.insert("header".to_string(), "1".to_string());
    params.insert("block".to_string(), block.to_string());
    let ctx = InvocationContext::new(params);
    let out = ZoneIndexStorlet
        .invoke(stream::once(Bytes::from(data.to_vec())), ctx.clone())
        .unwrap();
    stream::collect(out).unwrap();
    stats_from_context(&ctx).unwrap().expect("stats published")
}

/// Run `csvfilter` over one planned range exactly as the middleware does:
/// body is the ranged GET `[fetch_start, re)`, the range end is clipped to
/// the window, and `pre_aligned` marks mid-object ranges as starting on a
/// record boundary.
fn invoke_planned_range(
    data: &[u8],
    spec: &PushdownSpec,
    window_start: u64,
    window_end: Option<u64>,
    rs: u64,
    re: u64,
) -> Vec<u8> {
    let fetch_start = rs.max(window_start);
    let mut params = HashMap::new();
    params.insert("spec".to_string(), spec.to_header());
    params.insert("schema".to_string(), SCHEMA.to_string());
    let mut ctx = InvocationContext::new(params);
    ctx.range_start = fetch_start;
    ctx.range_end = Some(window_end.map_or(re - 1, |e| e.min(re - 1)));
    ctx.pre_aligned = fetch_start > window_start;
    let body = Bytes::from(data[fetch_start as usize..re as usize].to_vec());
    let out = CsvFilterStorlet.invoke(stream::chunked(body, 13), ctx).unwrap();
    stream::collect(out).unwrap().to_vec()
}

/// Classic (un-planned) ranged invocation, the reference the planned path
/// must match byte-for-byte.
fn invoke_classic(data: &[u8], spec: &PushdownSpec, start: u64, end_exclusive: u64) -> Vec<u8> {
    let mut params = HashMap::new();
    params.insert("spec".to_string(), spec.to_header());
    params.insert("schema".to_string(), SCHEMA.to_string());
    let mut ctx = InvocationContext::new(params);
    ctx.range_start = start;
    ctx.range_end = Some(end_exclusive.saturating_sub(1));
    let body = Bytes::from(data[start as usize..].to_vec());
    let out = CsvFilterStorlet.invoke(stream::chunked(body, 13), ctx).unwrap();
    stream::collect(out).unwrap().to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Full-object reads: the planner's surviving ranges cover every matching
    /// record, and filtering only those ranges equals the full scan.
    #[test]
    fn planned_scan_equals_full_scan(
        rows in proptest::collection::vec(
            (0u32..40, proptest::option::of(-50i32..50), 0u8..5),
            1..60,
        ),
        block in 8u64..120,
        seed in any::<u64>(),
    ) {
        let data = make_csv(&rows);
        let stats = index(&data, block);
        let pred = predicate(&mut Lcg(seed), 3);
        let spec = PushdownSpec {
            columns: None,
            predicate: Some(pred.clone()),
            has_header: true,
        };
        let header: Vec<String> = SCHEMA.split(',').map(str::to_string).collect();
        let plan = plan_ranges(&stats, Some(&pred), 0, None);

        // Soundness: every record the predicate matches starts inside a
        // surviving range.
        let single = PushdownSpec {
            columns: None,
            predicate: Some(pred.clone()),
            has_header: false,
        };
        let mut off = data.iter().position(|&b| b == b'\n').unwrap() as u64 + 1;
        for line in data[off as usize..].split_inclusive(|&b| b == b'\n') {
            let (matched, _) = filter_buffer(&single, &header, line, true).unwrap();
            if !matched.is_empty() {
                prop_assert!(
                    plan.ranges.iter().any(|&(rs, re)| rs <= off && off < re),
                    "matching record at {off} not covered by {:?}",
                    plan.ranges
                );
            }
            off += line.len() as u64;
        }

        // Differential: planned concatenation == full scan, byte for byte.
        let mut planned = Vec::new();
        for &(rs, re) in &plan.ranges {
            planned.extend_from_slice(&invoke_planned_range(&data, &spec, 0, None, rs, re));
        }
        let (whole, _) = filter_buffer(&spec, &header, &data, true).unwrap();
        prop_assert_eq!(
            String::from_utf8_lossy(&planned),
            String::from_utf8_lossy(&whole)
        );
    }

    /// Windowed reads (the Spark-split path): planning inside an arbitrary
    /// logical range must reproduce the classic ranged storlet exactly.
    #[test]
    fn planned_window_equals_classic_range(
        rows in proptest::collection::vec(
            (0u32..40, proptest::option::of(-50i32..50), 0u8..5),
            2..60,
        ),
        block in 8u64..120,
        seed in any::<u64>(),
        cut in (0u64..1000, 1u64..1000),
    ) {
        let data = make_csv(&rows);
        let len = data.len() as u64;
        let start = cut.0 % len;
        let end_exclusive = start + 1 + cut.1 % (len - start);
        let stats = index(&data, block);
        let pred = predicate(&mut Lcg(seed), 3);
        let spec = PushdownSpec {
            columns: Some(vec!["vid".into(), "n".into()]),
            predicate: Some(pred.clone()),
            has_header: true,
        };
        let plan = plan_ranges(&stats, Some(&pred), start, Some(end_exclusive - 1));
        let mut planned = Vec::new();
        for &(rs, re) in &plan.ranges {
            planned.extend_from_slice(&invoke_planned_range(
                &data,
                &spec,
                start,
                Some(end_exclusive - 1),
                rs,
                re,
            ));
        }
        let classic = invoke_classic(&data, &spec, start, end_exclusive);
        prop_assert_eq!(
            String::from_utf8_lossy(&planned),
            String::from_utf8_lossy(&classic),
            "window [{}, {})", start, end_exclusive
        );
    }
}

/// End-to-end stale path through a real cluster: after an indexed object is
/// overwritten (old stats destroyed or describing the old etag), pushdown
/// must fall back and return results over the NEW bytes.
mod stale {
    use super::*;
    use scoop_objectstore::middleware::Pipeline;
    use scoop_objectstore::{ObjectPath, SwiftCluster, SwiftConfig};
    use scoop_storlets::middleware::encode_params;
    use scoop_storlets::{headers, StorletEngine, StorletMiddleware};
    use std::sync::Arc;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn overwrite_falls_back_to_new_bytes(
            old_rows in proptest::collection::vec(
                (0u32..40, proptest::option::of(-50i32..50), 0u8..5), 1..30),
            new_rows in proptest::collection::vec(
                (0u32..40, proptest::option::of(-50i32..50), 0u8..5), 1..30),
            seed in any::<u64>(),
        ) {
            let cluster = SwiftCluster::new(SwiftConfig::default()).unwrap();
            let engine = Arc::new(StorletEngine::with_builtin_filters());
            let mut pipe = Pipeline::new();
            pipe.push(Arc::new(StorletMiddleware::new(engine.clone())));
            cluster.set_object_pipeline(pipe);
            let client = cluster.anonymous_client("AUTH_gp");
            client.create_container("meters").unwrap();
            let path = ObjectPath::new("AUTH_gp", "meters", "w.csv").unwrap();

            // Indexed PUT of the old bytes...
            let old = make_csv(&old_rows);
            let mut p = HashMap::new();
            p.insert("schema".to_string(), SCHEMA.to_string());
            p.insert("header".to_string(), "1".to_string());
            p.insert("block".to_string(), "32".to_string());
            let put = scoop_objectstore::Request::put(path.clone(), Bytes::from(old))
                .with_header(headers::RUN_STORLET, "zoneindex")
                .with_header(headers::PARAMETERS, encode_params(&p));
            prop_assert_eq!(client.request(put).unwrap().status, 201);

            // ...then a plain overwrite with new bytes (stats vanish).
            let new = make_csv(&new_rows);
            client
                .put_object("meters", "w.csv", Bytes::from(new.clone()))
                .unwrap();

            let spec = PushdownSpec {
                columns: None,
                predicate: Some(predicate(&mut Lcg(seed), 3)),
                has_header: true,
            };
            let mut q = HashMap::new();
            q.insert("spec".to_string(), spec.to_header());
            q.insert("schema".to_string(), SCHEMA.to_string());
            let req = scoop_objectstore::Request::get(path)
                .with_header(headers::RUN_STORLET, "csvfilter")
                .with_header(headers::PARAMETERS, encode_params(&q));
            let body = client.request(req).unwrap().read_body().unwrap();
            let header: Vec<String> = SCHEMA.split(',').map(str::to_string).collect();
            let (reference, _) = filter_buffer(&spec, &header, &new, true).unwrap();
            prop_assert_eq!(
                String::from_utf8_lossy(&body),
                String::from_utf8_lossy(&reference)
            );
        }
    }
}
