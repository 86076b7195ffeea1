//! Property-based full-stack transparency: random queries over real data in
//! the real store must return identical results with and without pushdown —
//! the system-level version of the `scoop-sql` unit property. Both arms
//! select with the store's raw-field filter, so each is also held against an
//! independent third: every record typed by `CsvReader`, then the query.

use bytes::Bytes;
use proptest::prelude::*;
use scoop_compute::{ExecutionMode, Session, TableFormat};
use scoop_connector::SwiftConnector;
use scoop_core::{EtlSpec, ScoopConfig, ScoopContext};
use scoop_csv::{CsvReader, Schema};
use scoop_integration::deploy;
use scoop_objectstore::net::wire::status_for_kind;
use scoop_objectstore::{ObjectPath, Request, SwiftCluster, SwiftConfig};
use scoop_sql::{execute, parse, ResultSet};
use scoop_storlets::middleware::{encode_params, headers};
use scoop_workload::generator::meter_schema;
use scoop_workload::{GeneratorConfig, MeterDataset};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

fn ctx() -> &'static Arc<ScoopContext> {
    static CTX: OnceLock<Arc<ScoopContext>> = OnceLock::new();
    CTX.get_or_init(|| deploy(30, 2, 1_200, 24 * 1024).0)
}

/// The table's objects in name order, and the schema the relation infers
/// from the first one (its first 256 KiB, 100 sample rows).
fn objects() -> &'static (Vec<Bytes>, Schema) {
    static OBJECTS: OnceLock<(Vec<Bytes>, Schema)> = OnceLock::new();
    OBJECTS.get_or_init(|| {
        let client = ctx().client();
        let mut names: Vec<String> =
            client.list("largemeter", None).unwrap().into_iter().map(|o| o.name).collect();
        names.sort();
        let bodies: Vec<Bytes> = names
            .iter()
            .map(|n| client.get_object("largemeter", n).unwrap().read_body().unwrap())
            .collect();
        let head = bodies[0].slice(..bodies[0].len().min(256 * 1024));
        let schema = scoop_csv::reader::infer_schema(&head, 100).unwrap();
        (bodies, schema)
    })
}

/// The query over every record of every object, typed and filtered by the
/// executor alone.
fn reference(sql: &str) -> ResultSet {
    let (bodies, schema) = objects();
    let rows = bodies.iter().flat_map(|body| {
        CsvReader::new(scoop_common::stream::once(body.clone()), schema.clone(), true)
    });
    execute(&parse(sql).unwrap(), schema, rows).unwrap()
}

fn where_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("city LIKE 'Rotterdam'".to_string()),
        Just("state IN ('FRA', 'NLD')".to_string()),
        Just("index > 1000".to_string()),
        Just("index <= 2500".to_string()),
        Just("date LIKE '2015-01-0_%'".to_string()),
        Just("vid < 'M00010'".to_string()),
        Just("NOT state LIKE 'U%'".to_string()),
        Just("SUBSTRING(date, 12, 2) = '00'".to_string()),
        Just("sumHC IS NOT NULL".to_string()),
        Just("lat >= 45.0 OR long < 4.0".to_string()),
        // Across types: a numeric column against text compares (and for
        // LIKE renders) the parsed number, never the `%.2f` spelling; a
        // text column never orders against a number.
        Just("index LIKE '%0'".to_string()),
        Just("sumHC LIKE '1%'".to_string()),
        Just("index <> 'x'".to_string()),
        Just("state IN ('FRA', 1)".to_string()),
        Just("vid > 5".to_string()),
    ]
}

fn select_strategy() -> impl Strategy<Value = (String, String)> {
    prop_oneof![
        Just(("vid, index, city".to_string(), String::new())),
        Just((
            "vid, sum(index) as s, count(*) as n".to_string(),
            " GROUP BY vid ORDER BY vid".to_string()
        )),
        Just((
            "city, min(index) as lo, max(index) as hi, avg(sumHP) as a".to_string(),
            " GROUP BY city ORDER BY city".to_string()
        )),
        Just((
            "SUBSTRING(date, 0, 10) as d, first_value(state) as st, sum(sumHC) as hc"
                .to_string(),
            " GROUP BY SUBSTRING(date, 0, 10) ORDER BY SUBSTRING(date, 0, 10)".to_string()
        )),
        Just(("count(*) as n".to_string(), String::new())),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn full_stack_pushdown_is_transparent(
        (sel, tail) in select_strategy(),
        w1 in where_strategy(),
        w2 in where_strategy(),
    ) {
        let sql = format!("SELECT {sel} FROM largemeter WHERE ({w1}) AND ({w2}){tail}");
        let ctx = ctx();
        let vanilla = ctx
            .query("largemeter", &sql, ExecutionMode::Vanilla)
            .unwrap();
        let pushed = ctx
            .query("largemeter", &sql, ExecutionMode::Pushdown)
            .unwrap();
        // Same partitioning in both arms → results should match exactly; use
        // a tight approx to stay robust to float summation order.
        prop_assert!(
            vanilla.result.approx_eq(&pushed.result, 1e-9),
            "mismatch for: {}\nvanilla: {:?}\npushdown: {:?}",
            sql,
            vanilla.result.rows.len(),
            pushed.result.rows.len()
        );
        let want = reference(&sql);
        prop_assert!(
            vanilla.result.approx_eq(&want, 1e-9),
            "vanilla differs from the typed reference for: {}\nvanilla: {:?}\nreference: {:?}",
            sql,
            vanilla.result.rows.len(),
            want.rows.len()
        );
        prop_assert!(
            pushed.metrics.bytes_transferred <= vanilla.metrics.bytes_transferred,
            "pushdown moved more data for: {}",
            sql
        );
    }
}

/// A pushdown header nested far past `MAX_PREDICATE_DEPTH` (5 000 `NOT`s,
/// under the wire's 64 KiB head cap) is a bad request: the store answers
/// 4xx instead of overflowing a worker's stack, and serves the next query.
#[test]
fn an_over_deep_pushdown_header_is_refused() {
    let ctx = ctx();
    let levels = 5_000;
    let spec = format!("hdr=1;cols=*;pred={}(eq city s:Paris){}", "(not ".repeat(levels), ")".repeat(levels));
    let (_, schema) = objects();
    let columns: Vec<&str> = schema.fields.iter().map(|f| f.name.as_str()).collect();
    let params = HashMap::from([("spec".to_string(), spec), ("schema".to_string(), columns.join(","))]);
    let params = encode_params(&params);
    assert!(params.len() < 60 * 1024, "{} bytes", params.len());
    let path = ObjectPath::new(&ctx.config().account, "largemeter", "part-00.csv").unwrap();
    let req = Request::get(path)
        .with_header(headers::RUN_STORLET, "csvfilter")
        .with_header(headers::PARAMETERS, params);
    // In process the error comes back as itself; over TCP as the 4xx
    // response it travelled as, which the client turns back into it.
    let status = match ctx.client().request(req) {
        Ok(resp) => resp.status,
        Err(e) => status_for_kind(e.kind()),
    };
    assert!((400..500).contains(&status), "status {status}");

    let sql = "SELECT vid, index FROM largemeter WHERE city = 'Paris' OR index > 2500";
    let pushed = ctx.query("largemeter", sql, ExecutionMode::Pushdown).unwrap();
    assert!(pushed.result.approx_eq(&reference(sql), 1e-9));
}

/// A WHERE too deep to push (200 `OR`ed equalities) stays on the compute
/// side whole, and returns what the vanilla arm returns.
#[test]
fn a_where_too_deep_to_push_is_still_transparent() {
    let ors: Vec<String> = (0..200).map(|i| format!("vid = 'M{i:05}'")).collect();
    let sql = format!("SELECT vid, index FROM largemeter WHERE {} ORDER BY vid, index", ors.join(" OR "));
    let ctx = ctx();
    let vanilla = ctx.query("largemeter", &sql, ExecutionMode::Vanilla).unwrap();
    let pushed = ctx.query("largemeter", &sql, ExecutionMode::Pushdown).unwrap();
    assert!(!vanilla.result.rows.is_empty());
    assert!(vanilla.result.approx_eq(&pushed.result, 1e-9));
    assert!(pushed.result.approx_eq(&reference(&sql), 1e-9));
}

/// A store with no active layer answers a pushdown GET with the whole
/// object. A pushdown session over it reads every split plain and returns
/// the vanilla answer.
#[test]
fn pushdown_over_a_store_without_storlets_is_vanilla() {
    let cluster = SwiftCluster::new(SwiftConfig::default()).unwrap();
    let client = cluster.anonymous_client("AUTH_bare");
    client.create_container("largemeter").unwrap();
    for (i, body) in objects().0.iter().enumerate() {
        client.put_object("largemeter", &format!("part-{i:02}.csv"), body.clone()).unwrap();
    }
    let session = |pushdown: bool| {
        let session = Session::new(SwiftConnector::new(client.clone()), 2)
            .with_chunk_size(16 * 1024)
            .with_pushdown(pushdown);
        session.register_table("largemeter", "largemeter", None, TableFormat::Csv { has_header: true }, None);
        session
    };
    let sql = "SELECT vid, sum(index) as s, count(*) as n FROM largemeter \
               WHERE city LIKE 'Rotterdam' GROUP BY vid ORDER BY vid";
    let vanilla = session(false).sql(sql).unwrap();
    let pushed = session(true).sql(sql).unwrap();
    assert_eq!(pushed.metrics.mode, ExecutionMode::Pushdown);
    assert!(pushed.metrics.tasks > 2, "{} tasks", pushed.metrics.tasks);
    assert!(!vanilla.result.rows.is_empty());
    assert!(pushed.result.approx_eq(&vanilla.result, 1e-9));
    assert!(pushed.result.approx_eq(&reference(sql), 1e-9));
}

/// The `date` of the record `at` (a fraction) of the way into a CSV object.
fn date_at(data: &[u8], at: f64) -> String {
    let lines: Vec<&[u8]> = data.split(|&b| b == b'\n').filter(|l| !l.is_empty()).collect();
    let line = std::str::from_utf8(lines[(lines.len() as f64 * at) as usize]).unwrap();
    line.split(',').nth(1).unwrap().to_string()
}

/// Discovery prunes only on zone maps that describe the listed bytes. One
/// pushdown session queries a zoned object, then the same name after a
/// plain PUT of other bytes, then after those bytes are re-indexed; every
/// answer equals the vanilla arm's, and no split is pruned while the object
/// has no index.
#[test]
fn discovery_pruning_follows_overwrites() {
    let ctx = ScoopContext::new(ScoopConfig { chunk_size: 32 * 1024, ..Default::default() }).unwrap();
    let mut gen = MeterDataset::new(&GeneratorConfig { meters: 10, interval_minutes: 60, ..Default::default() });
    // Time-major rows: the second object's dates follow the first's.
    let first = gen.csv_object(4_000);
    let second = gen.csv_object(4_000);
    let schema: Vec<String> = meter_schema().names().iter().map(|s| s.to_string()).collect();
    let zoneindex = EtlSpec {
        storlets: "zoneindex".to_string(),
        params: HashMap::from([
            ("schema".to_string(), schema.join(",")),
            ("header".to_string(), "1".to_string()),
            ("block".to_string(), "4096".to_string()),
        ]),
    };
    let put = |data: &Bytes, etl: Option<&EtlSpec>| {
        ctx.upload_csv("zoned", vec![("obj.csv".to_string(), data.clone())], etl).unwrap();
    };
    let pushdown = ctx.session("zoned", ExecutionMode::Pushdown);
    let vanilla = ctx.session("zoned", ExecutionMode::Vanilla);
    let queries: Vec<String> = [date_at(&first, 0.9), date_at(&second, 0.5)]
        .iter()
        .map(|d| format!("SELECT vid, index FROM zoned WHERE date = '{d}' ORDER BY vid, index"))
        .collect();
    // Each query's (rows, tasks) on both arms; results must agree.
    let run = |phase: &str| -> Vec<(usize, usize, usize)> {
        queries
            .iter()
            .map(|sql| {
                let want = vanilla.sql(sql).unwrap();
                let got = pushdown.sql(sql).unwrap();
                assert!(got.result.approx_eq(&want.result, 1e-9), "{phase}: {sql}");
                (want.result.rows.len(), got.metrics.tasks, want.metrics.tasks)
            })
            .collect()
    };

    put(&first, Some(&zoneindex));
    let zoned = run("zoned");
    // The first date matches, and its splits are a few of many; the second
    // date is not in these bytes at all (a block's bloom digest may still
    // keep a split).
    assert!(zoned[0].0 > 0 && zoned[0].1 < zoned[0].2, "{zoned:?}");
    assert!(zoned[1].0 == 0 && zoned[1].1 < zoned[1].2, "{zoned:?}");
    let plan = pushdown.explain(&queries[0]).unwrap();
    // The tasks are the surviving splits, cut at block starts only while
    // there are fewer of them than workers.
    let survived: usize = plan
        .split("zonemaps : ")
        .nth(1)
        .and_then(|line| line.split(' ').next()?.parse().ok())
        .expect("a zonemaps line");
    let (tasks, workers) = (zoned[0].1, ctx.config().workers);
    assert!(survived > 0 && survived <= tasks && (tasks == survived || tasks <= workers), "{plan}");
    assert!(plan.contains(&format!("{survived} of {} splits survive", zoned[0].2)), "{plan}");
    let cuts = tasks - survived;
    assert!(plan.contains(&format!("{tasks} task(s) for {workers} worker(s) ({cuts} cut(s)")), "{plan}");
    assert!(plan.contains("(0 object(s) without a fresh index)"), "{plan}");

    put(&second, None);
    let plain = run("overwritten");
    // The second date now matches. Stale maps would have pruned every
    // split; with no index, every split is scanned.
    assert!(plain[1].0 > 0, "{plain:?}");
    for (_, tasks, all) in &plain {
        assert_eq!(tasks, all, "a split was pruned on stale stats: {plain:?}");
    }
    assert!(pushdown.explain(&queries[1]).unwrap().contains("(1 object(s) without a fresh index)"));

    put(&second, Some(&zoneindex));
    let reindexed = run("re-indexed");
    assert_eq!(reindexed[1].0, plain[1].0);
}

/// A newline ends a record whatever the quotes, on every arm: the vanilla
/// scan, the storlet and the compute side's parse of its answer all split
/// `m1,"x` from `y",1`.
#[test]
fn a_quoted_newline_ends_the_record_on_every_arm() {
    let ctx = ScoopContext::new(ScoopConfig::default()).unwrap();
    let object = Bytes::from_static(b"a,b,c\nm1,\"x\ny\",1\nm2,z,2\n");
    ctx.upload_csv("quoted", vec![("obj.csv".to_string(), object)], None).unwrap();
    let sql = "SELECT a, b, c FROM quoted";
    let vanilla = ctx.query("quoted", sql, ExecutionMode::Vanilla).unwrap();
    let pushed = ctx.query("quoted", sql, ExecutionMode::Pushdown).unwrap();
    assert_eq!(
        format!("{:?}", vanilla.result.rows),
        r#"[[Str("m1"), Str("x"), Null], [Str("y\""), Str("1"), Null], [Str("m2"), Str("z"), Int(2)]]"#
    );
    assert!(pushed.result.approx_eq(&vanilla.result, 1e-9), "vanilla {:?}\npushdown {:?}", vanilla.result.rows, pushed.result.rows);
}

/// The zone index splits records as the readers do. Record 200 of a
/// zone-indexed object is `m200,"x` then `q5",5`: a block whose stats said
/// it holds no `a = 'q5"'` would be pruned, and pushdown would miss the row
/// vanilla counts.
#[test]
fn a_zone_index_sees_the_records_the_readers_see() {
    let ctx = ScoopContext::new(ScoopConfig { chunk_size: 2048, ..Default::default() }).unwrap();
    let mut object = b"a,b,c\n".to_vec();
    for i in 0..400 {
        let record = if i == 200 { "m200,\"x\nq5\",5\n".to_string() } else { format!("m{i},x{i},{}\n", i % 7) };
        object.extend_from_slice(record.as_bytes());
    }
    let object = Bytes::from(object);
    let zoneindex = EtlSpec {
        storlets: "zoneindex".to_string(),
        params: HashMap::from([
            ("schema".to_string(), "a,b,c".to_string()),
            ("header".to_string(), "1".to_string()),
            ("block".to_string(), "512".to_string()),
        ]),
    };
    let sql = "SELECT count(*) as n FROM zoned WHERE a = 'q5\"'";
    for etl in [Some(&zoneindex), None] {
        ctx.upload_csv("zoned", vec![("obj.csv".to_string(), object.clone())], etl).unwrap();
        let vanilla = ctx.query("zoned", sql, ExecutionMode::Vanilla).unwrap();
        let pushed = ctx.query("zoned", sql, ExecutionMode::Pushdown).unwrap();
        assert_eq!(format!("{:?}", vanilla.result.rows), "[[Int(1)]]");
        assert!(pushed.result.approx_eq(&vanilla.result, 1e-9), "indexed {}: {:?}", etl.is_some(), pushed.result.rows);
        // The index is in use: it prunes the splits that hold no `q5"`.
        let (pushed_tasks, all) = (pushed.metrics.tasks, vanilla.metrics.tasks);
        assert_eq!(pushed_tasks < all, etl.is_some(), "{pushed_tasks} of {all} splits scanned");
    }
}

/// A record that ends in `\r` is the same on every arm. The readers trim one
/// `\r` before a `\n`, so the record of `y\r\r\n` is `y\r`, and a line of
/// only `\r\r\n` is the record `\r`, not a blank line. The storlet passes a
/// record through whole when the query reads every column, and must ship
/// such a record with its whole ending.
#[test]
fn a_record_ending_in_cr_is_the_same_on_every_arm() {
    let ctx = ScoopContext::new(ScoopConfig::default()).unwrap();
    let cases: [(&str, &[u8], &str); 2] = [
        (
            "cr_field",
            b"a,b,c\nm1,x,y\r\r\nm2,z,2\n",
            r#"[[Str("m1"), Str("x"), Str("y\r")], [Str("m2"), Str("z"), Str("2")]]"#,
        ),
        (
            "cr_line",
            b"a,b,c\nm1,x,1\n\r\r\nm2,z,2\n",
            r#"[[Str("m1"), Str("x"), Int(1)], [Str("\r"), Null, Null], [Str("m2"), Str("z"), Int(2)]]"#,
        ),
    ];
    for (table, object, want) in cases {
        ctx.upload_csv(table, vec![("obj.csv".to_string(), Bytes::from_static(object))], None).unwrap();
        let sql = format!("SELECT a, b, c FROM {table}");
        let vanilla = ctx.query(table, &sql, ExecutionMode::Vanilla).unwrap();
        let pushed = ctx.query(table, &sql, ExecutionMode::Pushdown).unwrap();
        assert_eq!(format!("{:?}", vanilla.result.rows), want, "{table}");
        assert_eq!(pushed.result, vanilla.result, "{table}: pushdown {:?}", pushed.result.rows);
    }
}
