//! Property test: distributed execution (any chunk size, any worker count,
//! pushdown on or off) equals the single-pass reference executor.

use proptest::prelude::*;
use scoop_compute::{MemoryConnector, Session, TableFormat};
use scoop_csv::schema::{DataType, Field};
use scoop_csv::{CsvWriter, Schema, Value};
use scoop_sql::exec::execute;
use scoop_sql::parse;

fn schema() -> Schema {
    Schema::new(vec![
        Field::new("vid", DataType::Str),
        Field::new("n", DataType::Int),
        Field::new("city", DataType::Str),
    ])
}

fn rows_strategy() -> impl Strategy<Value = Vec<Vec<Value>>> {
    let row = (0u32..20, -50i64..50, 0u8..3).prop_map(|(vid, n, city)| {
        vec![
            Value::Str(format!("m{vid:02}")),
            Value::Int(n),
            Value::Str(["Rotterdam", "Paris", "Nice"][city as usize].to_string()),
        ]
    });
    proptest::collection::vec(row, 0..80)
}

fn query_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("SELECT vid, sum(n) as s, count(*) as c FROM t GROUP BY vid ORDER BY vid".to_string()),
        Just("SELECT city, min(n) as lo, max(n) as hi FROM t WHERE n > 0 GROUP BY city ORDER BY city".to_string()),
        Just("SELECT vid, n FROM t WHERE city LIKE 'R%' ORDER BY vid, n".to_string()),
        Just("SELECT count(*) as c FROM t WHERE n >= 10".to_string()),
        Just("SELECT DISTINCT city FROM t ORDER BY city".to_string()),
        Just("SELECT vid, count(*) as c FROM t GROUP BY vid HAVING count(*) > 2 ORDER BY vid".to_string()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn distributed_equals_reference(
        rows in rows_strategy(),
        sql in query_strategy(),
        chunk in 8u64..400,
        workers in 1usize..6,
        n_objects in 1usize..4,
        pushdown in any::<bool>(),
    ) {
        // Reference: single-pass executor over all rows.
        let query = parse(&sql).unwrap();
        let reference = execute(&query, &schema(), rows.clone().into_iter().map(Ok)).unwrap();

        // Distributed: rows spread over objects, partitioned by `chunk`.
        let conn = MemoryConnector::with_pushdown();
        let per_object = rows.len().div_ceil(n_objects).max(1);
        for (i, slab) in rows.chunks(per_object).enumerate() {
            let mut w = CsvWriter::new();
            w.write_header(&schema());
            for r in slab {
                w.write_row(r);
            }
            conn.put("t", &format!("part-{i}.csv"), w.into_bytes());
        }
        if rows.is_empty() {
            // Still need one (empty-but-headered) object for schema inference.
            let mut w = CsvWriter::new();
            w.write_header(&schema());
            conn.put("t", "part-0.csv", w.into_bytes());
        }
        let session = Session::new(conn, workers)
            .with_chunk_size(chunk)
            .with_pushdown(pushdown);
        session.register_table("t", "t", None, TableFormat::Csv { has_header: true }, Some(schema()));
        let outcome = session.sql(&sql).unwrap();

        // ORDER BY queries: exact order; others compare as sorted multisets.
        let normalize = |rs: &scoop_sql::ResultSet| {
            let mut v: Vec<String> = rs
                .rows
                .iter()
                .map(|r| {
                    r.iter()
                        .map(|v| match v.as_f64() {
                            Some(f) => format!("{f:.6}"),
                            None => v.to_string(),
                        })
                        .collect::<Vec<_>>()
                        .join("|")
                })
                .collect();
            if query.order_by.is_empty() {
                v.sort();
            }
            v
        };
        prop_assert_eq!(
            normalize(&reference),
            normalize(&outcome.result),
            "sql={} chunk={} workers={} pushdown={}",
            sql, chunk, workers, pushdown
        );
    }
}
