//! The vanilla CSV scan's raw-field selection against the SQL executor.
//!
//! `CsvRelation`'s vanilla scan tests each record's raw field bytes with the
//! store's own evaluator (`CompiledSpec`) and types only the survivors; the
//! pushdown arm runs the same evaluator at the store. Either way the executor
//! applies only the residual WHERE, so both are transparent only if the
//! planner pushes nothing whose raw-field meaning differs from SQL's over the
//! typed column: the scan's selection must be exact. Random Data-Sources
//! predicates over `Str`, `Int` and `Float` columns whose fields hold the
//! spellings that tell the two apart — `2.50`, `007`, `1e3`, text in a numeric column, empty and
//! quoted fields, a quoted newline (which ends the record, as everywhere),
//! an unbalanced quote, short rows, CRLF and `\r\r\n` line endings, lines
//! of only `\r`, no final newline — and the ones that
//! tell raw bytes from their lossy text — `é`, invalid UTF-8 (`\xFF`, a
//! truncated `\xC3`), U+FFFD itself, in fields, literals and `LIKE`
//! patterns with `_` — cut into random splits and read in random chunk
//! sizes:
//!
//! * full typed scan (`CsvReader`, no `CompiledSpec` anywhere), then WHERE
//!   ≡ selected scan, then residual ≡ pushdown, then residual ≡ pushdown
//!   answered plain (the store shed or declined every split), then
//!   residual;
//! * with the WHERE fully pushed, the selection is exact: the scan yields
//!   exactly the rows SQL keeps.
//!
//! And, end to end through `Session`, the three queries on which the arms
//! disagreed while the planner pushed leaves without looking at column
//! types.

use bytes::Bytes;
use proptest::prelude::*;
use scoop_common::{stream, ByteStream, Result};
use scoop_compute::csv_relation::CsvRelation;
use scoop_compute::datasource::{PrunedFilteredScan, TableScan};
use scoop_compute::connector::SPLIT_SLACK;
use scoop_compute::{MemoryConnector, ObjectInfo, PushdownBody, Session, StorageConnector, TableFormat};
use scoop_csv::schema::{DataType, Field};
use scoop_csv::{CsvReader, Predicate, PushdownSpec, Schema, Value};
use scoop_integration::{to_expr, Lcg};
use scoop_sql::exec::{execute, execute_with_where};
use scoop_sql::{parse, plan_query, ResultSet};
use std::sync::Arc;

const COLUMNS: [&str; 4] = ["s", "t", "i", "f"];

fn schema() -> Schema {
    Schema::new(vec![
        Field::new("s", DataType::Str),
        Field::new("t", DataType::Str),
        Field::new("i", DataType::Int),
        Field::new("f", DataType::Float),
    ])
}

/// Field spellings per column type, as they stand in the file.
const STR_FIELDS: [&[u8]; 21] = [
    b"",
    b"a",
    b"ab",
    b"Rot",
    b"2.5",
    b"2.50",
    b"007",
    b"5",
    b"\"x,y\"",
    b"\"say \"\"hi\"\"\"",
    b"\"\"",
    b"\"a\"",
    b"\"x\ny\"",
    b"\"open",
    "é".as_bytes(),
    "café".as_bytes(),
    "\"é,\"".as_bytes(),
    "\u{FFFD}".as_bytes(),
    b"\xFF",
    b"caf\xC3",
    b"\xC3\xA9\xFF",
];
const INT_FIELDS: [&[u8]; 12] = [
    b"",
    b"2",
    b"007",
    b"-3",
    b"1000",
    b"2.50",
    b"1e3",
    b"abc",
    b"\"12\"",
    b"99999999999999999999",
    b"2\xFF",
    "é".as_bytes(),
];
const FLOAT_FIELDS: [&[u8]; 13] = [
    b"",
    b"2.5",
    b"2.50",
    b"1e3",
    b"1000",
    b"007",
    b"-0.5",
    b"abc",
    b"\"2.5\"",
    b"\"1,5\"",
    b"NaN",
    b"\xC3",
    "2.5\u{FFFD}".as_bytes(),
];

/// A CSV object with a header and up to 24 rows: mostly full, some short,
/// some with an extra field, `\n`, `\r\n` or `\r\r\n` per line (the
/// readers trim one `\r`, so the last leaves a record ending in `\r`), now
/// and then a line of only `\r`, and the last line's terminator sometimes
/// missing. A row with a quoted newline is two records, and every arm reads
/// it so.
fn object(rng: &mut Lcg) -> Bytes {
    let eol = |rng: &mut Lcg| -> &[u8] {
        match rng.below(6) {
            0 | 1 => b"\r\n",
            2 => b"\r\r\n",
            _ => b"\n",
        }
    };
    let mut out = b"s,t,i,f".to_vec();
    out.extend_from_slice(eol(rng));
    for _ in 0..rng.below(25) {
        if rng.below(12) == 0 {
            out.push(b'\r');
            out.extend_from_slice(eol(rng));
        }
        let mut fields = vec![
            *rng.pick(&STR_FIELDS),
            *rng.pick(&STR_FIELDS),
            *rng.pick(&INT_FIELDS),
            *rng.pick(&FLOAT_FIELDS),
        ];
        match rng.below(8) {
            0 => fields.truncate(1 + rng.below(3)),
            1 => fields.push(b"extra"),
            _ => {}
        }
        out.extend_from_slice(&fields.join(&b","[..]));
        out.extend_from_slice(eol(rng));
    }
    if rng.below(3) == 0 {
        while out.last().is_some_and(|b| matches!(b, b'\r' | b'\n')) {
            out.pop();
        }
    }
    Bytes::from(out)
}

fn literal(rng: &mut Lcg) -> Value {
    match rng.below(10) {
        0..=2 => Value::Int(*rng.pick(&[-3, 0, 2, 7, 1000])),
        3..=5 => Value::Float(*rng.pick(&[2.5, -0.5, 1000.0, 7.0, f64::NAN])),
        6..=8 => Value::Str(
            (*rng.pick(&[
                "", "a", "2.5", "2.50", "007", "1e3", "x,y", "Rot", "1000.0", "say \"hi\"", "é",
                "café", "\u{FFFD}", "caf\u{FFFD}", "é,",
            ]))
            .into(),
        ),
        _ => Value::Null,
    }
}

/// A random predicate over `COLUMNS`: every leaf kind on every column type,
/// nested up to `depth` deep.
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
    let text = |rng: &mut Lcg| {
        rng.pick(&["a", "2.5", "1", "0", "Rot", "x,y", "", "é", "caf", "\u{FFFD}"]).to_string()
    };
    match rng.below(13) {
        0 => Predicate::Eq(c, literal(rng)),
        1 => Predicate::Ne(c, literal(rng)),
        2 => Predicate::Lt(c, literal(rng)),
        3 => Predicate::Le(c, literal(rng)),
        4 => Predicate::Gt(c, literal(rng)),
        5 => Predicate::Ge(c, literal(rng)),
        6 => Predicate::Like(
            c,
            rng.pick(&[
                "2.5", "1000%", "%5", "a%", "_", "%", "2._0", "%0", "caf_", "%é", "_\u{FFFD}",
                "%\u{FFFD}%", "__", "é%",
            ])
            .to_string(),
        ),
        7 => Predicate::StartsWith(c, text(rng)),
        8 => Predicate::EndsWith(c, text(rng)),
        9 => Predicate::Contains(c, text(rng)),
        10 => Predicate::In(c, (0..1 + rng.below(3)).map(|_| literal(rng)).collect()),
        11 => Predicate::IsNull(c),
        _ => Predicate::IsNotNull(c),
    }
}

/// A connector that hands every read out in chunks of `read` bytes, so
/// records straddle chunk boundaries at random places. With `plain`, every
/// pushdown read answers the split's raw bytes, as a store that shed or
/// declined the pushdown does.
struct Rechunked {
    inner: Arc<MemoryConnector>,
    read: usize,
    plain: bool,
}

impl Rechunked {
    fn rechunk(&self, body: ByteStream) -> Result<ByteStream> {
        Ok(stream::chunked(stream::collect(body)?, self.read))
    }
}

impl StorageConnector for Rechunked {
    fn list(&self, location: &str, prefix: Option<&str>) -> Result<Vec<ObjectInfo>> {
        self.inner.list(location, prefix)
    }

    fn read_bounded(&self, location: &str, object: &str, start: u64, stop: u64) -> Result<ByteStream> {
        self.rechunk(self.inner.read_bounded(location, object, start, stop)?)
    }

    fn open_pushdown(
        &self,
        location: &str,
        object: &str,
        start: u64,
        end_exclusive: Option<u64>,
        spec: &PushdownSpec,
        file_schema: &[String],
    ) -> Result<PushdownBody> {
        let body = if self.plain {
            let stop = end_exclusive.map_or(u64::MAX, |end| end.saturating_add(SPLIT_SLACK));
            PushdownBody::Plain(self.inner.read_bounded(location, object, start, stop)?)
        } else {
            self.inner.open_pushdown(location, object, start, end_exclusive, spec, file_schema)?
        };
        Ok(match body {
            PushdownBody::Filtered(body) => PushdownBody::Filtered(self.rechunk(body)?),
            PushdownBody::Plain(body) => PushdownBody::Plain(self.rechunk(body)?),
        })
    }

    fn fetch_range(&self, location: &str, object: &str, start: u64, end: u64) -> Result<Bytes> {
        self.inner.fetch_range(location, object, start, end)
    }

    fn bytes_transferred(&self) -> u64 {
        self.inner.bytes_transferred()
    }

    fn reset_transfer_counter(&self) {
        self.inner.reset_transfer_counter()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn selected_scan_equals_typed_scan_equals_pushdown(seed in any::<u64>()) {
        let mut rng = Lcg(seed);
        let data = object(&mut rng);
        let pred = predicate(&mut rng, 2);
        let eq_as_like = rng.below(2) == 0;
        // `*` and every column by name push no projection: the store
        // passes a selected record through whole.
        let select = *rng.pick(&["*", "s, t, i, f", "s", "i, f", "f, s, t"]);
        let mut query = parse(&format!("SELECT {select} FROM t")).unwrap();
        query.where_clause = Some(to_expr(&pred, eq_as_like));
        let schema = schema();
        let plan = plan_query(&query, &schema, true).unwrap();

        // The reference: every record typed, then the WHERE.
        let typed = CsvReader::new(stream::once(data.clone()), schema.clone(), true);
        let want = execute(&query, &schema, typed).unwrap();

        let conn = MemoryConnector::with_pushdown();
        conn.put("t", "o.csv", data.clone());
        let read = 1 + rng.below(data.len() + 8);
        let conn = Arc::new(Rechunked { inner: conn, read, plain: false });
        let plain = Arc::new(Rechunked { inner: conn.inner.clone(), read, plain: true });
        let split = 1 + rng.below(data.len() + 8) as u64;
        let arm = |conn: &Arc<Rechunked>, pushdown: bool| -> (ResultSet, usize) {
            let rel = CsvRelation::open(conn.clone(), "t", None, true, Some(schema.clone()), pushdown)
                .unwrap();
            let mut rows = Vec::new();
            for part in rel.partitions(split).unwrap() {
                let out = rel
                    .scan_pruned_filtered(
                        &part,
                        plan.pushdown.columns.as_deref(),
                        plan.pushdown.predicate.as_ref(),
                    )
                    .unwrap();
                assert_eq!(out.plain, pushdown && conn.plain);
                rows.extend(out.rows.map(Result::unwrap));
            }
            let scanned = rows.len();
            let residual = plan.residual_where.as_ref();
            let got = execute_with_where(&query, &plan.scan_schema, residual, rows.into_iter().map(Ok))
                .unwrap();
            (got, scanned)
        };
        let where_text = query.where_clause.as_ref().map(ToString::to_string).unwrap_or_default();
        for (conn, pushdown) in [(&conn, false), (&conn, true), (&plain, true)] {
            let (got, scanned) = arm(conn, pushdown);
            prop_assert!(
                got == want,
                "pushdown={} plain={} split={} read={} WHERE {} pushed {:?}\ngot {:?}\nwant {:?}",
                pushdown, conn.plain, split, read, where_text, plan.pushdown.predicate, got.rows, want.rows
            );
            if plan.fully_pushed() {
                prop_assert_eq!(scanned, want.rows.len(), "exact selection, pushdown={} plain={}: {}", pushdown, conn.plain, where_text);
            }
        }
    }
}

/// A numeric column against text: SQL compares, and for `LIKE` renders, the
/// parsed number (`2.50` is `2.5`, `1e3` is `1000.0`); the store's raw
/// filter would see the spelling. None of these leaves may be pushed.
#[test]
fn numeric_column_against_text_agrees_on_every_arm() {
    let data = Bytes::from_static(b"vid,index\nm1,2.50\nm2,007\nm3,1e3\nm4,2.5\n");
    let schema = scoop_csv::reader::infer_schema(&data, 100).unwrap();
    assert_eq!(schema.fields[1].dtype, DataType::Float);
    let conn = MemoryConnector::with_pushdown();
    conn.put("meters", "a.csv", data.clone());
    let cases: [(&str, &[&str]); 3] = [
        ("index LIKE '2.5'", &["m1", "m4"]),
        ("index = '2.5'", &[]),
        ("index LIKE '1000%'", &["m3"]),
    ];
    for (clause, want) in cases {
        let sql = format!("SELECT vid FROM meters WHERE {clause}");
        let typed = CsvReader::new(stream::once(data.clone()), schema.clone(), true);
        let reference = execute(&parse(&sql).unwrap(), &schema, typed).unwrap();
        let want: Vec<Vec<Value>> = want.iter().map(|v| vec![Value::Str((*v).into())]).collect();
        assert_eq!(reference.rows, want, "reference: {clause}");
        for pushdown in [false, true] {
            let session = Session::new(conn.clone(), 2).with_chunk_size(16).with_pushdown(pushdown);
            session.register_table("meters", "meters", None, TableFormat::Csv { has_header: true }, None);
            let out = session.sql(&sql).unwrap();
            assert_eq!(out.result, reference, "{clause} (pushdown: {pushdown})");
            assert_eq!(out.metrics.pushed_conjuncts, 0, "{clause}");
        }
    }
}
