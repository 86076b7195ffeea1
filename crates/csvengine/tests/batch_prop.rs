//! The batch typer against the row-at-a-time reference: random CSV bytes
//! through `CsvReader::next_batch`, at random stream-chunk sizes, must give
//! exactly the rows `Schema::parse_row` makes record by record.

use bytes::Bytes;
use proptest::prelude::*;
use proptest::rng::TestRng;
use scoop_common::stream;
use scoop_csv::record::{parse_fields, write_record, RecordSplitter};
use scoop_csv::schema::{DataType, Field};
use scoop_csv::{Column, CsvReader, Schema, Value};

fn schema() -> Schema {
    Schema::new(vec![
        Field::new("vid", DataType::Str),
        Field::new("index", DataType::Float),
        Field::new("n", DataType::Int),
        Field::new("city", DataType::Str),
        Field::new("lat", DataType::Float),
    ])
}

/// One field's text: empty, numbers the fast parsers take and ones they
/// decline (`NaN`, `inf`, `-0.0`, exponents, overflow), unparsable text in a
/// numeric column, quoting material (commas, quotes, CR, and newlines, which
/// end the record whatever the quotes, on both sides) and non-ASCII text;
/// now and then long enough to straddle a feed slice.
fn gen_field(rng: &mut TestRng) -> String {
    const TEXT: [&str; 24] = [
        "",
        "M00042",
        "12.5",
        "-3",
        "0",
        "-0.0",
        "NaN",
        "inf",
        "-inf",
        "1e3",
        "12345678.25",
        "99999999999999999999",
        "not_a_number",
        "Rotterdam",
        "Zürich",
        "日本語",
        "a,b",
        "say \"hi\"",
        "two\nlines",
        "cr\r\nlf",
        " 7 ",
        "2015-01-03 10:20:00",
        "-",
        ".",
    ];
    match rng.below(40) {
        0 => "x".repeat(rng.usize_in(20, 300)),
        1 => "é".repeat(rng.usize_in(1, 40)),
        _ => TEXT[rng.usize_in(0, TEXT.len())].to_string(),
    }
}

/// CSV bytes: records of 0–7 fields (missing and extra fields), `\n` or
/// `\r\n` endings, blank lines, a last record with or without its newline,
/// and some invalid UTF-8 in unquoted fields.
struct Csv;

impl Strategy for Csv {
    type Value = (Vec<u8>, bool, usize);
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        let mut out = Vec::new();
        let has_header = rng.below(2) == 0;
        if has_header {
            write_record(&mut out, &["vid", "index", "n", "city", "lat"]);
        }
        let records = rng.usize_in(0, 4000);
        for r in 0..records {
            let width = match rng.below(10) {
                0 => rng.usize_in(0, 5),
                1 => rng.usize_in(6, 8),
                _ => 5,
            };
            let fields: Vec<String> = (0..width).map(|_| gen_field(rng)).collect();
            let refs: Vec<&str> = fields.iter().map(String::as_str).collect();
            let start = out.len();
            write_record(&mut out, &refs);
            if rng.below(50) == 0 && !out[start..].contains(&b'"') {
                // A stray invalid byte in an unquoted record.
                out.insert(start, 0xff);
            }
            if rng.below(3) == 0 && out.last() == Some(&b'\n') {
                out.pop();
                out.extend_from_slice(b"\r\n");
            }
            if rng.below(40) == 0 {
                out.push(b'\n');
            }
            if r + 1 == records && rng.below(2) == 0 {
                while matches!(out.last(), Some(b'\n' | b'\r')) {
                    out.pop();
                }
            }
        }
        let chunk = match rng.below(3) {
            0 => rng.usize_in(1, 64),
            1 => rng.usize_in(64, 5000),
            _ => rng.usize_in(5000, 200_000),
        };
        (out, has_header, chunk)
    }
}

/// `Schema::parse_row` of every record, the header dropped.
fn reference(schema: &Schema, csv: &[u8], has_header: bool) -> Vec<Vec<Value>> {
    let mut rows = Vec::new();
    let mut on_record = |r: &[u8]| {
        let fields: Vec<String> = parse_fields(r)
            .into_iter()
            .map(|c| c.into_owned())
            .collect();
        let refs: Vec<&str> = fields.iter().map(String::as_str).collect();
        rows.push(schema.parse_row(&refs));
    };
    let mut splitter = RecordSplitter::new();
    splitter.push(csv, &mut on_record).unwrap();
    splitter.finish(on_record);
    if has_header && !rows.is_empty() {
        rows.remove(0);
    }
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn batches_hold_exactly_the_rows_parse_row_makes((csv, has_header, chunk) in Csv) {
        let schema = schema();
        let want = reference(&schema, &csv, has_header);
        let mut reader =
            CsvReader::new(stream::chunked(Bytes::from(csv.clone()), chunk), schema.clone(), has_header);
        let mut got = Vec::new();
        while let Some(batch) = reader.next_batch().unwrap() {
            prop_assert!(batch.rows() > 0, "an empty batch");
            for c in 0..schema.len() {
                prop_assert_eq!(batch.column(c).map(|c| c.len()), Some(batch.rows()));
            }
            prop_assert!(batch.column(schema.len()).is_none());
            // The Float column falls back to values in exactly the batches
            // holding a cell that does not parse as a float.
            let rows: Vec<Vec<Value>> = batch.to_rows().collect();
            let untyped = rows.iter().any(|r| matches!(r[1], Value::Str(_)));
            match batch.column(1) {
                Some(Column::Values(_)) => prop_assert!(untyped),
                Some(Column::F64(_)) => prop_assert!(!untyped),
                other => prop_assert!(false, "index column {:?}", other),
            }
            got.extend(rows);
        }
        prop_assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            // Bitwise for floats: `Value`'s order is `f64::total_cmp`.
            prop_assert_eq!(g, w, "row {}", i);
        }
        // The row adapter yields the same rows.
        let rows: Vec<Vec<Value>> =
            CsvReader::new(stream::chunked(Bytes::from(csv), chunk), schema, has_header)
                .collect::<scoop_common::Result<_>>()
                .unwrap();
        prop_assert_eq!(rows, want);
    }
}
