//! Property tests for the transparency invariant: executing a query with
//! Catalyst-extracted pushdown (raw-field filtering at the "store" + residual
//! on typed rows) must equal executing the full query on typed rows.

use proptest::prelude::*;
use scoop_csv::filter::filter_buffer;
use scoop_csv::schema::{DataType, Field};
use scoop_csv::{CsvWriter, Schema, Value};
use scoop_sql::catalyst::plan_query;
use scoop_sql::exec::{execute, execute_with_where};
use scoop_sql::parser::parse;

fn schema() -> Schema {
    Schema::new(vec![
        Field::new("vid", DataType::Str),
        Field::new("date", DataType::Str),
        Field::new("index", DataType::Float),
        Field::new("city", DataType::Str),
        Field::new("state", DataType::Str),
    ])
}

/// Random typed rows over a constrained domain so predicates hit often.
fn rows_strategy() -> impl Strategy<Value = Vec<Vec<Value>>> {
    let cities = prop_oneof![
        Just("Rotterdam".to_string()),
        Just("Paris".to_string()),
        Just("Utrecht".to_string()),
        Just("Nice".to_string()),
    ];
    let states = prop_oneof![
        Just("NLD".to_string()),
        Just("FRA".to_string()),
        Just("USA".to_string()),
    ];
    let row = (
        0u32..50,
        1u32..13,
        proptest::option::of(-100.0f64..100.0),
        cities,
        states,
    )
        .prop_map(|(vid, month, index, city, state)| {
            vec![
                Value::Str(format!("m{vid}")),
                Value::Str(format!("2015-{month:02}-15 10:00:00")),
                index.map(|f| Value::Float((f * 10.0).round() / 10.0)).unwrap_or(Value::Null),
                Value::Str(city),
                Value::Str(state),
            ]
        });
    proptest::collection::vec(row, 0..60)
}

/// A pool of WHERE clauses mixing pushable and residual shapes.
fn where_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("date LIKE '2015-01%'".to_string()),
        Just("city LIKE 'Rotterdam'".to_string()),
        Just("index > 0".to_string()),
        Just("index <= 50".to_string()),
        Just("index IS NULL".to_string()),
        Just("index IS NOT NULL".to_string()),
        Just("state IN ('FRA', 'NLD')".to_string()),
        Just("city LIKE 'R%' OR state LIKE 'FRA'".to_string()),
        Just("SUBSTRING(date, 0, 7) = '2015-01'".to_string()),
        Just("index + 1 > 10".to_string()),
        Just("NOT city LIKE 'Paris'".to_string()),
        Just("index <> 0".to_string()),
        Just("date LIKE '2015-0_-15%'".to_string()),
    ]
}

/// (select list, GROUP BY expression or "" for global/non-aggregate).
fn select_strategy() -> impl Strategy<Value = (String, String)> {
    prop_oneof![
        Just(("vid, index, city".to_string(), String::new())),
        Just((
            "vid, sum(index) as total, count(*) as n".to_string(),
            "vid".to_string()
        )),
        Just((
            "SUBSTRING(date, 0, 7) as m, sum(index) as s, first_value(city) as c".to_string(),
            "SUBSTRING(date, 0, 7)".to_string()
        )),
        Just((
            "state, min(index) as lo, max(index) as hi, avg(index) as a".to_string(),
            "state".to_string()
        )),
        Just(("count(*) as n, sum(index) as s".to_string(), String::new())),
    ]
}

fn rows_to_csv(schema: &Schema, rows: &[Vec<Value>]) -> Vec<u8> {
    let mut w = CsvWriter::new();
    w.write_header(schema);
    for r in rows {
        w.write_row(r);
    }
    w.into_bytes().to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Vanilla execution == pushdown execution (store-side raw filter +
    /// residual WHERE on the projected rows), for random data and queries.
    #[test]
    fn pushdown_is_transparent(
        rows in rows_strategy(),
        wh in where_strategy(),
        wh2 in where_strategy(),
        (sel, group_expr) in select_strategy(),
    ) {
        let schema = schema();
        let group_clause = if group_expr.is_empty() {
            String::new()
        } else {
            format!(" GROUP BY {group_expr}")
        };
        let sql = format!(
            "SELECT {sel} FROM meters WHERE ({wh}) AND ({wh2}){group_clause}"
        );
        let query = parse(&sql).unwrap();

        // Vanilla: full typed execution.
        let vanilla = execute(&query, &schema, rows.clone().into_iter().map(Ok)).unwrap();

        // Pushdown: raw CSV filtered by the extracted spec, then residual.
        let plan = plan_query(&query, &schema, true).unwrap();
        let csv = rows_to_csv(&schema, &rows);
        let header: Vec<String> = schema.names().iter().map(|s| s.to_string()).collect();
        let (filtered, _) = filter_buffer(&plan.pushdown, &header, &csv, true).unwrap();
        let reader = scoop_csv::CsvReader::new(
            scoop_common::stream::once(filtered.into()),
            plan.scan_schema.clone(),
            false,
        );
        let pushed = execute_with_where(
            &query,
            &plan.scan_schema,
            plan.residual_where.as_ref(),
            reader,
        )
        .unwrap();

        // Compare as multisets of rendered rows (ORDER BY absent → order may
        // differ between the two paths).
        prop_assert_eq!(vanilla.columns.clone(), pushed.columns.clone());
        let render = |rs: &scoop_sql::ResultSet| {
            let mut v: Vec<String> = rs
                .rows
                .iter()
                .map(|r| {
                    r.iter()
                        .map(|v| match v {
                            // Compare numerics by value (Int(2) == Float(2.0)).
                            Value::Int(i) => format!("{:.4}", *i as f64),
                            Value::Float(f) => format!("{f:.4}"),
                            other => other.to_string(),
                        })
                        .collect::<Vec<_>>()
                        .join("|")
                })
                .collect();
            v.sort();
            v
        };
        prop_assert_eq!(render(&vanilla), render(&pushed), "sql: {}", sql);
    }
}
