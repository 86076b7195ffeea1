//! The columnar scan's row selection against the SQL executor.
//!
//! `ColumnarReader::read_batches_selected` drops rows on the decoded column
//! arrays before they become `Value`s, and the session then applies the bound
//! WHERE to what is left. That is only transparent if the selection never
//! drops a row the WHERE would keep — for every predicate shape the filter
//! language has, on every chunk encoding, with NULLs, NaN and literals of the
//! wrong type. Random predicates over a file built to hold all of that:
//!
//! * selected read, then bound WHERE ≡ full read, then bound WHERE
//!   (so selection ⊇ SQL truth), with and without chunk-stats skipping;
//! * the selection does not depend on whether its columns are projected.
//!
//! And the arm end to end: `Session` over a columnar table returns what it
//! returns over the CSV the table was converted from, on the Table I queries,
//! over `MemoryConnector` and over the TCP transport.

use proptest::prelude::*;
use scoop_columnar::{ColumnarReader, ColumnarWriter};
use scoop_compute::connector::MemoryConnector;
use scoop_compute::{ExecutionMode, Session, TableFormat};
use scoop_core::{ScoopConfig, ScoopContext};
use scoop_csv::schema::{DataType, Field};
use scoop_csv::{ColumnBatch, CsvReader, Predicate, Schema, Value};
use scoop_integration::{to_expr, Lcg};
use scoop_sql::RowFilter;
use scoop_workload::{table1_queries, GeneratorConfig, MeterDataset};

const COLUMNS: [&str; 6] = ["tag", "name", "n", "x", "y", "m"];

fn schema() -> Schema {
    Schema::new(vec![
        Field::new("tag", DataType::Str),
        Field::new("name", DataType::Str),
        Field::new("n", DataType::Int),
        Field::new("x", DataType::Float),
        Field::new("y", DataType::Float),
        Field::new("m", DataType::Int),
    ])
}

/// 700 rows in groups of 320, every seventh cell or so NULL:
/// `tag` is a handful of strings (dictionary chunks); `name` is mostly
/// distinct (plain-string chunks in the full groups, a dictionary in the
/// short last one); `n` is delta-coded integers; `x` repeats and holds NaN
/// (float RLE); `y` is plain floats; `m` is integers with one string in the
/// second group, which the writer therefore stores as rendered strings.
fn file(seed: u64) -> bytes::Bytes {
    let mut rng = Lcg(seed);
    let mut w = ColumnarWriter::with_row_group_rows(schema(), 320);
    let tags = ["a", "ab", "b", "", "5", "Rotterdam"];
    let xs = [0.5, 1.0, 5.0, -2.0, f64::NAN];
    for i in 0..700i64 {
        let mut cell = |v: Value| if rng.below(7) == 0 { Value::Null } else { v };
        let x = xs[(i / 9) as usize % xs.len()];
        w.write_row(&[
            cell(Value::Str(tags[(i % 11) as usize % tags.len()].into())),
            cell(Value::Str(format!("n{}", i % 400).into())),
            cell(Value::Int(i % 13 - 3)),
            cell(Value::Float(x)),
            cell(Value::Float(i as f64 / 8.0 - 20.0)),
            if i == 400 { Value::Str("x7".into()) } else { cell(Value::Int(i % 9)) },
        ]);
    }
    w.finish()
}

fn literal(rng: &mut Lcg) -> Value {
    match rng.below(10) {
        0..=2 => Value::Int(*rng.pick(&[-1, 0, 1, 5, 7])),
        3..=5 => Value::Float(*rng.pick(&[0.5, 1.0, 5.0, -2.0, f64::NAN])),
        6..=8 => Value::Str((*rng.pick(&["a", "ab", "", "5", "1.0", "0.5", "x7", "n7", "n123"])).into()),
        _ => Value::Null,
    }
}

/// A random predicate over `COLUMNS`: every leaf kind on every column kind,
/// nested up to three deep. Text operands carry no wildcard, so each has an
/// exact `LIKE` spelling.
fn predicate(rng: &mut Lcg, depth: usize) -> Predicate {
    if depth > 0 && rng.below(3) == 0 {
        let a = Box::new(predicate(rng, depth - 1));
        return match rng.below(3) {
            0 => Predicate::And(a, Box::new(predicate(rng, depth - 1))),
            1 => Predicate::Or(a, Box::new(predicate(rng, depth - 1))),
            _ => Predicate::Not(a),
        };
    }
    let c = rng.pick(&COLUMNS).to_string();
    let text = |rng: &mut Lcg| rng.pick(&["a", "b", "n1", "5", ".0", "", "x", "Rot"]).to_string();
    match rng.below(13) {
        0 => Predicate::Eq(c, literal(rng)),
        1 => Predicate::Ne(c, literal(rng)),
        2 => Predicate::Lt(c, literal(rng)),
        3 => Predicate::Le(c, literal(rng)),
        4 => Predicate::Gt(c, literal(rng)),
        5 => Predicate::Ge(c, literal(rng)),
        6 => Predicate::Like(c, rng.pick(&["a%", "_", "n_2%", "%.5", "%", "n%7", "5"]).to_string()),
        7 => Predicate::StartsWith(c, text(rng)),
        8 => Predicate::EndsWith(c, text(rng)),
        9 => Predicate::Contains(c, text(rng)),
        10 => Predicate::In(c, (0..rng.below(4)).map(|_| literal(rng)).collect()),
        11 => Predicate::IsNull(c),
        _ => Predicate::IsNotNull(c),
    }
}

/// The rows the bound WHERE keeps, selected on one batch of them as the
/// session selects. NaN-proof row identity: `Value`'s own equality is total,
/// NaN included.
fn passing(rows: &[Vec<Value>], filter: &RowFilter) -> Vec<Vec<Value>> {
    let batch = ColumnBatch::from_rows(&schema(), rows.to_vec());
    filter.select(&batch).unwrap().rows().map(|i| rows[i].clone()).collect()
}

/// The rows a selected read returns, batch after batch.
fn read(
    reader: &ColumnarReader<'_>,
    columns: Option<&[String]>,
    pred: Option<&Predicate>,
    skip_groups: bool,
) -> Vec<Vec<Value>> {
    let batches = reader.read_batches_selected(columns, pred, skip_groups).unwrap();
    batches.iter().flat_map(ColumnBatch::to_rows).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn selection_keeps_every_row_the_where_keeps(seed in any::<u64>()) {
        let mut rng = Lcg(seed);
        let pred = predicate(&mut rng, 3);
        let schema = schema();
        let reader = ColumnarReader::open_bytes(file(seed % 5)).unwrap();
        let full = read(&reader, None, None, false);
        prop_assert_eq!(full.len(), 700);

        let selected = read(&reader, None, Some(&pred), false);
        let skipped = read(&reader, None, Some(&pred), true);
        prop_assert!(selected.len() <= full.len());
        for eq_as_like in [false, true] {
            let filter = RowFilter::bind(Some(&to_expr(&pred, eq_as_like)), &schema).unwrap();
            let want = passing(&full, &filter);
            prop_assert!(passing(&selected, &filter) == want, "{} (like: {})", pred, eq_as_like);
            prop_assert!(passing(&skipped, &filter) == want, "{} with stats (like: {})", pred, eq_as_like);
        }

        // The predicate's columns need not be projected.
        let tested = pred.columns();
        let others: Vec<String> = COLUMNS
            .iter()
            .filter(|c| !tested.contains(**c))
            .map(|c| c.to_string())
            .collect();
        let indices: Vec<usize> = others.iter().map(|c| schema.resolve(c).unwrap()).collect();
        let narrow = read(&reader, Some(&others), Some(&pred), false);
        let want: Vec<Vec<Value>> = selected
            .iter()
            .map(|row| indices.iter().map(|&i| row[i].clone()).collect())
            .collect();
        prop_assert!(narrow == want, "{} projected to {:?}", pred, others);
    }
}

/// The meter table as CSV objects and as the columnar objects converted from
/// them, behind one `MemoryConnector`.
fn memory_sessions() -> (Session, Session) {
    let conn = MemoryConnector::new();
    let meter = scoop_workload::generator::meter_schema();
    let mut gen = MeterDataset::new(&GeneratorConfig {
        meters: 40,
        interval_minutes: 12 * 60,
        ..Default::default()
    });
    for i in 0..2 {
        let csv = gen.csv_object(2_500);
        let mut w = ColumnarWriter::with_row_group_rows(meter.clone(), 700);
        for row in CsvReader::new(scoop_common::stream::once(csv.clone()), meter.clone(), true) {
            w.write_row(&row.unwrap());
        }
        conn.put("csv", &format!("part-{i}.csv"), csv);
        conn.put("col", &format!("part-{i}.scol"), w.finish());
    }
    let csv = Session::new(conn.clone(), 2).with_chunk_size(64 * 1024).with_pushdown(false);
    csv.register_table("largemeter", "csv", None, TableFormat::Csv { has_header: true }, None);
    let col = Session::new(conn, 2);
    col.register_table("largemeter", "col", None, TableFormat::Columnar, None);
    (csv, col)
}

#[test]
fn columnar_session_matches_csv_on_table1_in_memory() {
    let (csv, col) = memory_sessions();
    for q in table1_queries() {
        let want = csv.sql(&q.sql).unwrap_or_else(|e| panic!("{} csv: {e}", q.name));
        let got = col.sql(&q.sql).unwrap_or_else(|e| panic!("{} columnar: {e}", q.name));
        assert!(want.result.approx_eq(&got.result, 1e-9), "{} mismatch", q.name);
        assert!(!want.result.rows.is_empty(), "{} selects nothing", q.name);
        assert_eq!(got.metrics.mode, ExecutionMode::Columnar);
        // Both scans hand the executor their selection's survivors, and the
        // executor keeps the ones SQL keeps: every Table I predicate is
        // pushed whole, and none of its columns holds a NULL.
        assert_eq!(got.metrics.rows_after_filter, want.metrics.rows_after_filter, "{}", q.name);
        assert_eq!(got.metrics.rows_to_compute, got.metrics.rows_after_filter, "{}", q.name);
        assert_eq!(want.metrics.rows_to_compute, want.metrics.rows_after_filter, "{}", q.name);
        // What the columnar arm saves is bytes.
        assert!(got.metrics.bytes_transferred < want.metrics.bytes_transferred, "{}", q.name);
    }
}

#[test]
fn columnar_session_matches_csv_on_table1_over_tcp() {
    let ctx = ScoopContext::new(ScoopConfig {
        chunk_size: 64 * 1024,
        transport_tcp: true,
        ..Default::default()
    })
    .expect("deploy over TCP");
    let mut gen = MeterDataset::new(&GeneratorConfig {
        meters: 40,
        interval_minutes: 12 * 60,
        ..Default::default()
    });
    let objects = (0..2).map(|i| (format!("part-{i}.csv"), gen.csv_object(2_500))).collect();
    ctx.upload_csv("largemeter", objects, None).expect("upload");
    ctx.convert_to_columnar("largemeter", "colmeter", 700).expect("convert");
    let col = ctx.session_with_schema("colmeter", ExecutionMode::Columnar, None);
    col.register_table("largemeter", "colmeter", None, TableFormat::Columnar, None);
    for q in table1_queries() {
        let want = ctx
            .query("largemeter", &q.sql, ExecutionMode::Vanilla)
            .unwrap_or_else(|e| panic!("{} vanilla: {e}", q.name));
        let got = col.sql(&q.sql).unwrap_or_else(|e| panic!("{} columnar: {e}", q.name));
        assert!(want.result.approx_eq(&got.result, 1e-9), "{} mismatch over TCP", q.name);
        assert!(got.metrics.bytes_transferred < want.metrics.bytes_transferred, "{}", q.name);
    }
}
