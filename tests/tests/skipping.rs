//! End-to-end data-skipping acceptance: a highly selective pushdown over a
//! zone-indexed object must read under 10% of the object's bytes, with
//! results byte-identical to both the full-scan reference and an un-indexed
//! twin of the same object. Partition discovery prunes with the store's own
//! planner: it keeps exactly the splits the store would scan, and an index
//! the client cannot read is "no index", asked for once. Cutting the
//! survivors for the workers moves no record and no block, even when the
//! maps the cuts came from have gone stale by the time the pieces are read.

use bytes::Bytes;
use proptest::prelude::*;
use scoop_common::telemetry::{self, layers};
use scoop_compute::csv_relation::CsvRelation;
use scoop_compute::datasource::{PrunedFilteredScan, TableScan};
use scoop_compute::ExecutionMode;
use scoop_connector::SwiftConnector;
use scoop_core::{EtlSpec, ScoopConfig, ScoopContext};
use scoop_csv::filter::filter_buffer;
use scoop_csv::{Predicate, PushdownSpec, Value};
use scoop_integration::Lcg;
use scoop_objectstore::request::ByteRange;
use scoop_objectstore::{ObjectPath, Request};
use scoop_storlets::middleware::{encode_params, headers};
use scoop_storlets::Tier;
use scoop_workload::generator::meter_schema;
use scoop_workload::{GeneratorConfig, MeterDataset};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

fn schema() -> Vec<String> {
    meter_schema().names().iter().map(|s| s.to_string()).collect()
}

fn zoneindex(block: u64) -> EtlSpec {
    EtlSpec {
        storlets: "zoneindex".to_string(),
        params: HashMap::from([
            ("schema".to_string(), schema().join(",")),
            ("header".to_string(), "1".to_string()),
            ("block".to_string(), block.to_string()),
        ]),
    }
}

/// The `date` of the record `at` (a fraction) of the way into a CSV object.
fn date_at(data: &[u8], at: f64) -> String {
    let lines: Vec<&[u8]> = data.split(|&b| b == b'\n').filter(|l| !l.is_empty()).collect();
    let line = std::str::from_utf8(lines[(lines.len() as f64 * at) as usize]).unwrap();
    line.split(',').nth(1).unwrap().to_string()
}

#[test]
fn selective_pushdown_reads_under_ten_percent() {
    let ctx = ScoopContext::new(ScoopConfig::default()).unwrap();
    let mut gen = MeterDataset::new(&GeneratorConfig {
        meters: 10,
        interval_minutes: 60,
        ..Default::default()
    });
    let data = gen.csv_object(10_000);

    // Ingest through the zone-map indexer: PUT-path ETL computes per-block
    // statistics as the bytes land.
    let schema: Vec<String> = meter_schema().names().iter().map(|s| s.to_string()).collect();
    let mut params = HashMap::new();
    params.insert("schema".to_string(), schema.join(","));
    params.insert("header".to_string(), "1".to_string());
    params.insert("block".to_string(), "4096".to_string());
    ctx.upload_csv(
        "largemeter",
        vec![("indexed.csv".to_string(), data.clone())],
        Some(&EtlSpec { storlets: "zoneindex".to_string(), params }),
    )
    .unwrap();
    // An un-indexed twin of the same bytes for the fallback arm.
    ctx.upload_csv(
        "largemeter",
        vec![("plain.csv".to_string(), data.clone())],
        None,
    )
    .unwrap();

    // Pick a timestamp ~90% into the time-major object: rows are clustered
    // by date, so the predicate selects a thin contiguous slice (10 of
    // 10,000 rows — 99.9% of records filtered out).
    let lines: Vec<&[u8]> = data.split(|&b| b == b'\n').collect();
    let probe = lines[lines.len() * 9 / 10];
    let date = std::str::from_utf8(probe)
        .unwrap()
        .split(',')
        .nth(1)
        .unwrap()
        .to_string();
    let spec = PushdownSpec {
        columns: None,
        predicate: Some(Predicate::Eq("date".into(), Value::Str(date.as_str().into()))),
        has_header: true,
    };
    let (reference, _) = filter_buffer(&spec, &schema, &data, true).unwrap();
    assert!(!reference.is_empty(), "probe date must match rows");

    let conn = SwiftConnector::new(
        ctx.cluster().anonymous_client(&ctx.config().account),
    );
    let out = scoop_common::stream::collect(
        conn.read_pushdown("largemeter", "indexed.csv", 0, None, &spec, &schema)
            .unwrap(),
    )
    .unwrap();
    assert_eq!(&out[..], &reference[..], "planned scan diverged from reference");

    // The acceptance bar: under 10% of the object's bytes were read.
    let len = data.len() as u64;
    let scanned = len - conn.bytes_skipped();
    assert!(
        scanned < len / 10,
        "scanned {scanned} of {len} bytes (skipped {})",
        conn.bytes_skipped()
    );
    let filter_bytes = ctx.engine().stats("csvfilter").bytes_in;
    assert!(
        filter_bytes < len / 10,
        "csvfilter consumed {filter_bytes} of {len} bytes"
    );

    // The un-indexed twin answers identically via a transparent full scan.
    let skipped_before = conn.bytes_skipped();
    let plain = scoop_common::stream::collect(
        conn.read_pushdown("largemeter", "plain.csv", 0, None, &spec, &schema)
            .unwrap(),
    )
    .unwrap();
    assert_eq!(&plain[..], &reference[..], "fallback diverged from reference");
    assert_eq!(conn.bytes_skipped(), skipped_before, "fallback must not claim skips");
}

/// Over TCP, the HEAD of a zoned object past ~10 MB carries more stats than
/// the wire's head cap admits. Discovery takes that as "no index": no error,
/// no retry loop, and no second HEAD for the same version on later
/// queries. The store, which HEADs in process, still prunes, and results
/// match the vanilla arm.
#[test]
fn an_index_too_large_for_a_head_is_no_index_asked_once() {
    let ctx = ScoopContext::new(ScoopConfig {
        transport_tcp: true,
        chunk_size: 2 << 20,
        ..Default::default()
    })
    .unwrap();
    let mut gen = MeterDataset::new(&GeneratorConfig { meters: 10, interval_minutes: 60, ..Default::default() });
    let data = gen.csv_object(130_000);
    assert!(data.len() > 10 << 20, "{} bytes", data.len());
    ctx.upload_csv("big", vec![("zoned.csv".to_string(), data.clone())], Some(&zoneindex(64 * 1024)))
        .unwrap();
    assert!(ctx.client().head_object("big", "zoned.csv").is_err(), "the head must outgrow the cap");

    let sql = format!(
        "SELECT vid, index FROM big WHERE date = '{}' ORDER BY vid, index",
        date_at(&data, 0.9)
    );
    let pushdown = ctx.session("big", ExecutionMode::Pushdown);
    let want = ctx.session("big", ExecutionMode::Vanilla).sql(&sql).unwrap();
    assert!(!want.result.rows.is_empty());
    let retries = ctx.client().retries();
    let pruned = ctx.engine().skip_stats().blocks_pruned();
    for round in 0..2 {
        let got = pushdown.sql(&sql).unwrap();
        assert_eq!(got.result, want.result, "round {round}");
        // No split was dropped at discovery, but the store pruned blocks.
        assert_eq!(got.metrics.tasks, want.metrics.tasks, "round {round}");
        let heads = telemetry::trace_spans(&got.metrics.trace)
            .iter()
            .filter(|s| s.layer == layers::CLIENT && s.detail.starts_with("Head "))
            .count();
        assert_eq!(heads, usize::from(round == 0), "round {round}: HEADs issued");
    }
    assert_eq!(ctx.client().retries(), retries, "the refused HEAD must not be retried");
    assert!(ctx.engine().skip_stats().blocks_pruned() > pruned);
    let plan = pushdown.explain(&sql).unwrap();
    assert!(plan.contains("(1 object(s) without a fresh index)"), "{plan}");
}

/// One deployment for the discovery property; each case gets a container.
fn small_ctx() -> &'static Arc<ScoopContext> {
    static CTX: OnceLock<Arc<ScoopContext>> = OnceLock::new();
    CTX.get_or_init(|| ScoopContext::new(ScoopConfig::default()).unwrap())
}

/// A predicate over the meter schema with literals drawn from `data`, so
/// it selects anything from nothing to everything.
fn meter_predicate(rng: &mut Lcg, data: &[u8], depth: usize) -> Predicate {
    if depth > 0 && rng.below(3) == 0 {
        let a = Box::new(meter_predicate(rng, data, depth - 1));
        return match rng.below(3) {
            0 => Predicate::And(a, Box::new(meter_predicate(rng, data, depth - 1))),
            1 => Predicate::Or(a, Box::new(meter_predicate(rng, data, depth - 1))),
            _ => Predicate::Not(a),
        };
    }
    let date = date_at(data, rng.below(1000) as f64 / 1000.0);
    let index = rng.below(300) as f64;
    match rng.below(9) {
        0 => Predicate::Eq("date".into(), Value::Str(date.as_str().into())),
        1 => Predicate::Lt("date".into(), Value::Str(date.as_str().into())),
        2 => Predicate::Ge("date".into(), Value::Str(date.as_str().into())),
        3 => Predicate::StartsWith("date".into(), date.get(..13).unwrap_or("").to_string()),
        4 => Predicate::Gt("index".into(), Value::Float(index)),
        5 => Predicate::Le("sumHP".into(), Value::Float(index)),
        6 => Predicate::Eq("vid".into(), Value::Str(format!("M{:05}", rng.below(12)).as_str().into())),
        7 => Predicate::Like("city".into(), rng.pick(&["Paris", "Rot%", "%e", "Nice"]).to_string()),
        _ => Predicate::IsNull("region".into()),
    }
}

/// What the store's planner makes of a ranged pushdown GET: whether it
/// scans any byte, read off the response it sends.
fn store_scans(ctx: &ScoopContext, container: &str, spec: &PushdownSpec, start: u64, end: u64) -> bool {
    let params = HashMap::from([
        ("spec".to_string(), spec.to_header()),
        ("schema".to_string(), schema().join(",")),
    ]);
    let path = ObjectPath::new(&ctx.config().account, container, "obj.csv").unwrap();
    let req = Request::get(path)
        .with_header(headers::RUN_STORLET, "csvfilter")
        .with_header(headers::PARAMETERS, encode_params(&params))
        .with_header(headers::STORLET_RANGE, ByteRange { start, end: Some(end - 1) }.to_header());
    let resp = ctx.client().request(req).unwrap();
    let scanned = resp.headers.get(scoop_common::headers::SCANNED_BYTES).expect("a stats plan");
    scanned.parse::<u64>().unwrap() > 0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Discovery keeps exactly the splits whose store-side plan has a range,
    /// and scanning only those returns the whole object's answer.
    #[test]
    fn discovery_keeps_exactly_the_splits_the_store_scans(
        seed in any::<u64>(),
        rows in 200usize..1200,
        block in prop_oneof![Just(256u64), Just(1024), Just(4096), Just(16384)],
        chunk in 700u64..24_000,
    ) {
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let ctx = small_ctx();
        let container = format!("disc{}", CASE.fetch_add(1, Ordering::Relaxed));
        let mut gen = MeterDataset::new(&GeneratorConfig { seed, meters: 12, interval_minutes: 30, ..Default::default() });
        let data = gen.csv_object(rows);
        ctx.upload_csv(&container, vec![("obj.csv".to_string(), data.clone())], Some(&zoneindex(block))).unwrap();
        let pred = meter_predicate(&mut Lcg(seed), &data, 2);
        let spec = PushdownSpec { columns: None, predicate: Some(pred.clone()), has_header: true };

        let conn = SwiftConnector::new(ctx.client().clone());
        let rel = CsvRelation::open(conn.clone(), &container, None, true, Some(meter_schema()), true).unwrap();
        let found = rel.partitions_for(chunk, Some(&pred)).unwrap();
        let kept: Vec<(u64, u64)> = found.partitions.iter().map(|p| (p.start, p.end)).collect();
        let all = rel.partitions(chunk).unwrap();
        let scanned: Vec<(u64, u64)> = all
            .iter()
            .map(|p| (p.start, p.end))
            .filter(|&(s, e)| store_scans(ctx, &container, &spec, s, e))
            .collect();
        prop_assert_eq!(&kept, &scanned, "{}", pred);
        prop_assert_eq!(found.pruned + kept.len(), all.len());
        prop_assert_eq!(found.unindexed_objects, 0);
        for (i, p) in found.partitions.iter().enumerate() {
            prop_assert_eq!(p.index, i);
        }

        let mut out = Vec::new();
        for p in &found.partitions {
            let body = conn.read_pushdown(&container, "obj.csv", p.start, Some(p.end), &spec, &schema()).unwrap();
            out.extend_from_slice(&scoop_common::stream::collect(body).unwrap());
        }
        let (want, _) = filter_buffer(&spec, &schema(), &data, true).unwrap();
        prop_assert_eq!(&out[..], &want[..], "{}", pred);
    }
}

/// One deployment for the cut property, apart from the discovery
/// property's, so the store's block counter moves for this test's GETs
/// alone.
fn cut_ctx() -> &'static Arc<ScoopContext> {
    static CTX: OnceLock<Arc<ScoopContext>> = OnceLock::new();
    CTX.get_or_init(|| ScoopContext::new(ScoopConfig::default()).unwrap())
}

/// The store's answer to a ranged pushdown GET of `[start, end)`: its body,
/// the blocks its plan scanned and the bytes it read for them.
fn store_get(ctx: &ScoopContext, container: &str, spec: &PushdownSpec, start: u64, end: u64) -> (Vec<u8>, u64, u64) {
    let params = HashMap::from([
        ("spec".to_string(), spec.to_header()),
        ("schema".to_string(), schema().join(",")),
    ]);
    let path = ObjectPath::new(&ctx.config().account, container, "obj.csv").unwrap();
    let req = Request::get(path)
        .with_header(headers::RUN_STORLET, "csvfilter")
        .with_header(headers::PARAMETERS, encode_params(&params))
        .with_header(headers::STORLET_RANGE, ByteRange { start, end: Some(end - 1) }.to_header());
    let blocks_before = ctx.engine().skip_stats().blocks_scanned();
    let resp = ctx.client().request(req).unwrap();
    let blocks = ctx.engine().skip_stats().blocks_scanned() - blocks_before;
    let scanned = resp.headers.get(scoop_common::headers::SCANNED_BYTES).expect("a stats plan");
    let scanned = scanned.parse::<u64>().unwrap();
    let body = scoop_common::stream::collect(resp.body).unwrap();
    (body.to_vec(), blocks, scanned)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Cutting the surviving splits for up to four tasks moves no record
    /// and no block: the pieces tile each split in object order, each
    /// piece's store plan keeps a block (when discovery read the index),
    /// and a split's pieces scan its blocks and bytes once and answer its
    /// body byte for byte.
    #[test]
    fn tasks_cut_splits_at_block_starts_and_move_nothing(
        seed in any::<u64>(),
        rows in 200usize..1200,
        block in prop_oneof![Just(256u64), Just(1024), Just(4096)],
        chunk in 2_000u64..150_000,
        tasks in 1usize..=4,
    ) {
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let ctx = cut_ctx();
        let container = format!("cut{}", CASE.fetch_add(1, Ordering::Relaxed));
        let mut gen = MeterDataset::new(&GeneratorConfig { seed, meters: 12, interval_minutes: 30, ..Default::default() });
        let data = gen.csv_object(rows);
        ctx.upload_csv(&container, vec![("obj.csv".to_string(), data.clone())], Some(&zoneindex(block))).unwrap();
        let pred = meter_predicate(&mut Lcg(seed), &data, 2);
        let spec = PushdownSpec { columns: None, predicate: Some(pred.clone()), has_header: true };

        let conn = SwiftConnector::new(ctx.client().clone());
        let rel = CsvRelation::open(conn, &container, None, true, Some(meter_schema()), true).unwrap();
        let splits = rel.partitions_for(chunk, Some(&pred)).unwrap();
        let cut = rel.tasks_for(chunk, Some(&pred), tasks).unwrap();
        prop_assert_eq!((cut.pruned, cut.unindexed_objects), (splits.pruned, splits.unindexed_objects));
        prop_assert_eq!(cut.partitions.len(), splits.partitions.len() + cut.cuts);
        prop_assert!(cut.partitions.len() <= splits.partitions.len().max(tasks), "{}", pred);
        if tasks == 1 {
            prop_assert_eq!(&cut.partitions, &splits.partitions);
        }
        for (i, p) in cut.partitions.iter().enumerate() {
            prop_assert_eq!(p.index, i);
            prop_assert!(!p.is_empty(), "{:?}", p);
        }

        let mut pieces = cut.partitions.iter().peekable();
        for split in &splits.partitions {
            let (body, blocks, scanned) = store_get(ctx, &container, &spec, split.start, split.end);
            let (mut piece_body, mut piece_blocks, mut piece_scanned) = (Vec::new(), 0, 0);
            let mut at = split.start;
            while let Some(piece) = pieces.next_if(|p| p.start < split.end) {
                prop_assert_eq!(&piece.object, &split.object);
                prop_assert_eq!(piece.start, at, "pieces out of order or apart");
                at = piece.end;
                let (b, n, s) = store_get(ctx, &container, &spec, piece.start, piece.end);
                // Over TCP the HEAD of a small-block index can outgrow the
                // wire's head cap: discovery then sees no index, keeps every
                // split uncut, and the store may still prune one whole.
                prop_assert!(n > 0 || splits.unindexed_objects > 0, "{:?} keeps no block for {}", piece, pred);
                piece_body.extend_from_slice(&b);
                piece_blocks += n;
                piece_scanned += s;
            }
            prop_assert_eq!(at, split.end, "the pieces do not tile {:?}", split);
            prop_assert_eq!(piece_blocks, blocks, "{}", pred);
            prop_assert_eq!(piece_scanned, scanned, "{}", pred);
            prop_assert_eq!(&piece_body[..], &body[..], "{}", pred);
        }
        prop_assert!(pieces.next().is_none());
    }
}

/// The pieces of a split cut from zone maps stay sound when the maps go
/// stale before the pieces are read — the object loses its index, or is
/// overwritten with other bytes of the same length — whether the store
/// answers each piece with a full-scan plan or, under a tier that declines
/// pushdown, with plain bytes the scan selects in the piece's own window:
/// the pieces return every record once, the vanilla answer over the bytes
/// stored now.
#[test]
fn pieces_cut_from_stale_maps_return_every_record_once() {
    let ctx = ScoopContext::new(ScoopConfig::default()).unwrap();
    let mut gen = MeterDataset::new(&GeneratorConfig { meters: 10, interval_minutes: 60, ..Default::default() });
    let data = gen.csv_object(4_000);
    // Other bytes, same length and record layout: every 3 and 4 swapped.
    let other = Bytes::from(
        data.iter()
            .map(|&b| match b {
                b'3' => b'4',
                b'4' => b'3',
                b => b,
            })
            .collect::<Vec<u8>>(),
    );
    let chunk = 1 << 30;
    let pred = Predicate::Lt("date".into(), Value::Str(date_at(&data, 0.4).as_str().into()));
    let put = |bytes: &Bytes, index: bool| {
        let etl = index.then(|| zoneindex(4096));
        ctx.upload_csv("stale", vec![("obj.csv".to_string(), bytes.clone())], etl.as_ref()).unwrap();
    };
    let relation = |pushdown: bool| {
        let conn = SwiftConnector::new(ctx.client().clone());
        CsvRelation::open(conn, "stale", None, true, Some(meter_schema()), pushdown).unwrap()
    };
    let scan = |rel: &CsvRelation, parts: &[scoop_compute::InputPartition], plain: bool| {
        let mut rows = Vec::new();
        for part in parts {
            let out = rel.scan_pruned_filtered(part, None, Some(&pred)).unwrap();
            assert_eq!(out.plain, plain, "{part:?}");
            rows.extend(out.rows.map(Result::unwrap));
        }
        rows
    };

    put(&data, true);
    let pushdown = relation(true);
    let cut = pushdown.tasks_for(chunk, Some(&pred), 4).unwrap();
    assert_eq!((cut.partitions.len(), cut.cuts), (4, 3), "one split, cut for four workers");
    let tier = |t: Tier| ctx.policy().set_tier(&ctx.config().account, t);
    for (phase, bytes, index) in [("index lost", &data, false), ("overwritten", &other, false), ("overwritten and re-indexed", &other, true)] {
        put(bytes, index);
        let vanilla = relation(false);
        let want = scan(&vanilla, &vanilla.partitions(chunk).unwrap(), false);
        assert!(!want.is_empty(), "{phase}");
        assert_eq!(scan(&pushdown, &cut.partitions, false), want, "{phase}: filtered by the store");
        tier(Tier::Bronze);
        assert_eq!(scan(&pushdown, &cut.partitions, true), want, "{phase}: plain, selected per piece");
        tier(Tier::Gold);
    }
}
