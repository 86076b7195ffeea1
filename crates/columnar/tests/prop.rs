//! Property tests: columnar encode∘decode = id; pruned reads match full reads;
//! batch evaluation and gathering match the cells the test wrote.

use proptest::prelude::*;
use scoop_columnar::encode::{decode_column_batch, encode_column, Cell, DecodedColumn};
use scoop_columnar::{ColumnarReader, ColumnarWriter};
use scoop_csv::schema::{DataType, Field, Schema};
use scoop_csv::{ColumnBatch, Value};

/// The chunk of `values`.
fn encode(values: &[Value]) -> Vec<u8> {
    let cells: Vec<Option<Cell<'_>>> = values.iter().map(Cell::of_value).collect();
    let mut out = Vec::new();
    encode_column(&cells, &mut out);
    out
}

/// The cells of `rows` of a decoded chunk, gathered as one batch column and
/// read back.
fn gathered(col: &DecodedColumn, rows: &[usize]) -> Vec<Value> {
    let column = col.gather_column(rows);
    (0..column.len()).map(|i| column.value(i)).collect()
}

/// The cells a chunk of `values` holds: a column with a string in it stores
/// every other cell rendered as text, and a numeric one with a float in it
/// stores its integers as floats. Columns are homogeneous, as Parquet's are.
fn stored(values: &[Value]) -> Vec<Value> {
    let strings = values.iter().any(|v| matches!(v, Value::Str(_)));
    let floats = values.iter().any(|v| matches!(v, Value::Float(_)));
    values
        .iter()
        .map(|v| match v {
            Value::Null | Value::Str(_) => v.clone(),
            v if strings => Value::Str(v.to_string()),
            Value::Int(i) if floats => Value::Float(*i as f64),
            v => v.clone(),
        })
        .collect()
}

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        (-1e6f64..1e6).prop_map(Value::Float),
        "[a-zA-Z0-9 ,%]{0,16}".prop_map(Value::Str),
    ]
}

/// Columns of a homogeneous kind (what the writer actually produces).
fn column_strategy() -> impl Strategy<Value = Vec<Value>> {
    prop_oneof![
        proptest::collection::vec(
            prop_oneof![Just(Value::Null), any::<i64>().prop_map(Value::Int)],
            0..200
        ),
        proptest::collection::vec(
            prop_oneof![
                Just(Value::Null),
                (-1e9f64..1e9).prop_map(Value::Float),
                Just(Value::Float(42.0)), // force repeats for RLE
            ],
            0..200
        ),
        proptest::collection::vec(
            prop_oneof![
                Just(Value::Null),
                Just(Value::Str("Rotterdam".into())),
                "[a-z]{0,10}".prop_map(Value::Str),
            ],
            0..200
        ),
        proptest::collection::vec(value_strategy(), 0..100),
    ]
}

proptest! {
    #[test]
    fn column_roundtrip(values in column_strategy()) {
        let col = decode_column_batch(&encode(&values)).unwrap();
        prop_assert_eq!(col.len(), values.len());
        let all: Vec<usize> = (0..values.len()).collect();
        prop_assert_eq!(gathered(&col, &all), stored(&values));
    }

    /// `test_rows` (once per dictionary entry, typed slices, borrowed
    /// strings) answers as the same test run on each cell the test wrote,
    /// and `gather_column` yields the written cells at the rows asked for.
    #[test]
    fn batch_evaluation_equals_per_cell(
        values in column_strategy(),
        needle in "[a-zR]{0,2}",
        bound in -50i64..50,
        stride in 1usize..7,
    ) {
        let col = decode_column_batch(&encode(&values)).unwrap();
        let cells = stored(&values);
        let flags = col.test_rows(|cell| match cell {
            Cell::Int(i) => i < bound,
            Cell::Float(f) => f < bound as f64,
            Cell::Str(s) => String::from_utf8_lossy(s).contains(needle.as_str()),
        }, false);
        let want: Vec<bool> = cells
            .iter()
            .map(|v| match v {
                Value::Null => false,
                Value::Int(i) => *i < bound,
                Value::Float(f) => *f < bound as f64,
                Value::Str(s) => s.contains(needle.as_str()),
            })
            .collect();
        prop_assert_eq!(flags, want);

        let rows: Vec<usize> = (0..cells.len()).step_by(stride).collect();
        let want: Vec<Value> = rows.iter().map(|&r| cells[r].clone()).collect();
        prop_assert_eq!(gathered(&col, &rows), want);
    }

    #[test]
    fn file_roundtrip_with_pruning(
        n_rows in 0usize..120,
        group_rows in 1usize..40,
        seed in any::<u64>(),
    ) {
        let schema = Schema::new(vec![
            Field::new("vid", DataType::Str),
            Field::new("index", DataType::Float),
            Field::new("n", DataType::Int),
        ]);
        let mut w = ColumnarWriter::with_row_group_rows(schema.clone(), group_rows);
        let mut rows = Vec::new();
        let mut rng = seed;
        for i in 0..n_rows {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
            let row = vec![
                Value::Str(format!("m{}", rng % 7)),
                if rng.is_multiple_of(5) { Value::Null } else { Value::Float((rng % 1000) as f64) },
                Value::Int(i as i64),
            ];
            rows.push(row);
        }
        w.write_batch(ColumnBatch::from_rows(&schema, rows.clone()));
        let data = w.finish();
        let r = ColumnarReader::open_bytes(data).unwrap();
        prop_assert_eq!(r.num_rows() as usize, n_rows);
        let read = |columns: Option<&[String]>| -> Vec<Vec<Value>> {
            let batches = r.read_batches_selected(columns, None, false).unwrap();
            batches.iter().flat_map(ColumnBatch::to_rows).collect()
        };
        let full = read(None);
        prop_assert_eq!(&full, &rows);
        let pruned = read(Some(&["n".to_string(), "vid".to_string()]));
        for (p, orig) in pruned.iter().zip(&rows) {
            prop_assert_eq!(&p[0], &orig[2]);
            prop_assert_eq!(&p[1], &orig[0]);
        }
    }
}
