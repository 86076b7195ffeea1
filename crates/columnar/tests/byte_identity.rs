//! The encoded object is a function of the rows alone: pinned hashes of two
//! fixed inputs, and a property that however the rows arrive — one batch,
//! batches cut at random rows, or a CSV stream read in random chunks — the
//! writer emits the same bytes.

use bytes::Bytes;
use proptest::prelude::*;
use scoop_columnar::ColumnarWriter;
use scoop_common::hash::hash64;
use scoop_common::stream;
use scoop_csv::batch::Column;
use scoop_csv::schema::{DataType, Field, Schema};
use scoop_csv::{ColumnBatch, CsvReader, Value};
use scoop_workload::{GeneratorConfig, MeterDataset};

/// Seed-42 meter readings: ~96-byte rows, so a 64 KiB input slice is a
/// batch of about 680 rows and 700-row groups cut inside batches.
fn meter_csv() -> Bytes {
    MeterDataset::new(&GeneratorConfig { seed: 42, meters: 100, ..Default::default() })
        .csv_object(2_000)
}

fn mixed_schema() -> Schema {
    Schema::new(vec![
        Field::new("name", DataType::Str),
        Field::new("n", DataType::Int),
        Field::new("none", DataType::Int),
        Field::new("x", DataType::Float),
        Field::new("whole", DataType::Float),
    ])
}

/// Two input slices of rows: `n` has unparsable cells in the first slice
/// only, so the group that spans the slices mixes a `Values` column and an
/// `I64` lane; `none` is NULL throughout; `name` holds non-ASCII and quoted
/// text; `x` holds `-0.0`, `NaN` and one unparsable cell; `whole` is a
/// `Float` column spelled as integers.
fn mixed_csv() -> Bytes {
    const NAMES: [&str; 5] = ["Zürich", "日本語", "plain", "\"São Paulo, BR\"", "naïve"];
    const XS: [&str; 6] = ["-0.0", "NaN", "1.5", "0.0", "", "-2250"];
    let mut csv = String::from("name,n,none,x,whole\n");
    for i in 0..3_000usize {
        let name = NAMES[i % NAMES.len()];
        let n = match i {
            500..=560 if i % 7 == 0 => "n/a".to_string(),
            _ if i % 23 == 0 => String::new(),
            _ => (i as i64 * 37 - 20_000).to_string(),
        };
        let x = if i == 2_500 { "x?" } else { XS[i % XS.len()] };
        csv.push_str(&format!("{name},{n},,{x},{}\n", i % 13));
    }
    Bytes::from(csv)
}

/// The columnar object of `csv`, read `chunk` bytes at a time.
fn convert(csv: Bytes, schema: &Schema, group_rows: usize, chunk: usize) -> Bytes {
    let mut reader = CsvReader::new(stream::chunked(csv, chunk), schema.clone(), true);
    let mut writer = ColumnarWriter::with_row_group_rows(schema.clone(), group_rows);
    while let Some(batch) = reader.next_batch().unwrap() {
        writer.write_batch(batch);
    }
    writer.finish()
}

fn fingerprint(data: &[u8]) -> (u64, usize) {
    (hash64(data), data.len())
}

#[test]
fn meter_object_bytes_are_pinned() {
    let csv = meter_csv();
    let schema = scoop_csv::reader::infer_schema(&csv, 200).unwrap();
    let data = convert(csv, &schema, 700, 1 << 20);
    assert_eq!(fingerprint(&data), (PINNED_METER_HASH, PINNED_METER_LEN));
}

#[test]
fn mixed_object_bytes_are_pinned() {
    let schema = mixed_schema();
    // The fixture holds what its doc says: `n` is a `Values` column in one
    // batch and a lane in another.
    let mut reader = CsvReader::new(stream::once(mixed_csv()), schema.clone(), true);
    let mut kinds = Vec::new();
    while let Some(batch) = reader.next_batch().unwrap() {
        kinds.push(matches!(batch.column(1), Some(Column::Values(_))));
    }
    assert_eq!(kinds, [true, false], "one Values batch of `n`, then one lane");
    let data = convert(mixed_csv(), &schema, 700, 4096);
    assert_eq!(fingerprint(&data), (PINNED_MIXED_HASH, PINNED_MIXED_LEN));
}

/// Recorded from the writer before it took column batches.
const PINNED_METER_HASH: u64 = 1_761_561_247_288_999_433;
const PINNED_METER_LEN: usize = 85_689;
const PINNED_MIXED_HASH: u64 = 761_989_661_064_034_527;
const PINNED_MIXED_LEN: usize = 55_891;

/// A CSV field of a `Str`, `Int` or `Float` column, parsable or not.
fn field() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        (-50i64..50).prop_map(|i| i.to_string()),
        (-1e4f64..1e4).prop_map(|f| f.to_string()),
        Just("-0.0".to_string()),
        Just("NaN".to_string()),
        Just("\"a, b\"".to_string()),
        "[a-zé日 ]{1,6}",
    ]
}

fn typed_rows(csv: &Bytes, schema: &Schema) -> Vec<Vec<Value>> {
    CsvReader::new(stream::once(csv.clone()), schema.clone(), true)
        .collect::<scoop_common::Result<_>>()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The same rows give one object whether they arrive as one batch, as
    /// batches cut at random rows, or as a CSV stream typed in random
    /// chunks.
    #[test]
    fn the_object_depends_on_the_rows_only(
        records in proptest::collection::vec(proptest::collection::vec(field(), 3), 0..60),
        group_rows in 1usize..20,
        cuts in proptest::collection::vec(0usize..60, 0..6),
        chunk in 1usize..64,
    ) {
        let schema = Schema::new(vec![
            Field::new("s", DataType::Str),
            Field::new("i", DataType::Int),
            Field::new("f", DataType::Float),
        ]);
        let mut csv = String::from("s,i,f\n");
        for record in &records {
            csv.push_str(&record.join(","));
            csv.push('\n');
        }
        let csv = Bytes::from(csv);
        let rows = typed_rows(&csv, &schema);
        prop_assert_eq!(rows.len(), records.len());

        let mut whole = ColumnarWriter::with_row_group_rows(schema.clone(), group_rows);
        whole.write_batch(ColumnBatch::from_rows(&schema, rows.clone()));
        let whole = whole.finish();

        let mut cut = ColumnarWriter::with_row_group_rows(schema.clone(), group_rows);
        let mut cuts: Vec<usize> = cuts.into_iter().filter(|&c| c < rows.len()).collect();
        cuts.sort_unstable();
        cuts.push(rows.len());
        let mut start = 0;
        for end in cuts {
            cut.write_batch(ColumnBatch::from_rows(&schema, rows[start..end].to_vec()));
            start = end;
        }
        prop_assert_eq!(&cut.finish(), &whole);

        prop_assert_eq!(&convert(csv, &schema, group_rows, chunk), &whole);
    }
}
