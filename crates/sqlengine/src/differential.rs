//! Differential tests: the bound evaluator against the name-resolving walker
//! it replaced ([`crate::reference`]).
//!
//! Random expression trees over random rows must give the same value, the
//! same three-valued truth and fail on the same rows; whole queries, aggregate
//! or not, must give the same result set single-pass, folded by tasks from
//! column batches of random sizes into partials merged as a session merges
//! them, and through the reference; and `GROUP BY` keys written from lanes
//! by the key kernels must group, decode and order as the reference does,
//! over packed and CSV-typed batches. What the query itself gets wrong is
//! reported at bind time, as `ScoopError::Sql`, also over an empty input.

use crate::ast::{AggFunc, BinOp, Expr, Query};
use crate::bound::{bind, RowFilter};
use crate::exec::{execute_with_where, Executor, Partial, ResultSet};
use crate::functions::AggState;
use crate::parser::parse;
use crate::reference;
use proptest::prelude::*;
use proptest::rng::TestRng;
use scoop_common::ScoopError;
use scoop_csv::schema::{DataType, Field};
use scoop_csv::batch::Selection;
use scoop_csv::{ColumnBatch, Schema, Value};

fn pick<'a, T>(rng: &mut TestRng, from: &'a [T]) -> &'a T {
    &from[rng.usize_in(0, from.len())]
}

// ---------------------------------------------------------------------------
// Random expressions over random rows
// ---------------------------------------------------------------------------

const COLUMNS: [&str; 4] = ["a", "b", "c", "d"];

fn expr_schema() -> Schema {
    Schema::new(COLUMNS.iter().map(|c| Field::new(*c, DataType::Str)).collect())
}

/// NULL, Int/Float mixes (NaN, infinities, -0.0, values past 2^53) and
/// strings: dates, numerals, non-ASCII, LIKE metacharacters, empty.
fn gen_value(rng: &mut TestRng) -> Value {
    const TEXT: [&str; 12] = [
        "",
        "2015-01-03 10:20:00",
        "2015-02-01",
        "Rotterdam",
        "rotterdam",
        "café",
        "日本語テキスト",
        "😀é",
        "50%",
        "a_b",
        "12",
        "-3.5",
    ];
    const FLOATS: [f64; 8] =
        [0.0, -0.0, 1.5, -2.25, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300];
    match rng.below(8) {
        0 => Value::Null,
        1 | 2 => Value::Int(rng.below(9) as i64 - 4),
        3 => Value::Int(any::<i64>().generate(rng)),
        4 => Value::Float(*pick(rng, &FLOATS)),
        5 => Value::Float(any::<f64>().generate(rng)),
        _ => Value::Str((*pick(rng, &TEXT)).into()),
    }
}

/// A random tree. `unbindable` is set when it holds a node no row can be
/// evaluated on — `*`, or an aggregate call — wherever that node sits.
fn gen_expr(rng: &mut TestRng, depth: u32, unbindable: &mut bool) -> Expr {
    const PATTERNS: [&str; 12] = [
        "2015-01%",
        "%dam",
        "%tt%",
        "Rotterdam",
        "caf_",
        "%é",
        "_本%",
        "%",
        "",
        "2015-0_-%",
        "%_",
        "😀_",
    ];
    const FUNCS: [&str; 14] = [
        "substring",
        "substr",
        "upper",
        "lower",
        "length",
        "concat",
        "abs",
        "round",
        "coalesce",
        "year",
        "month",
        "day",
        "substring",
        "nope",
    ];
    const OPS: [BinOp; 13] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Mod,
        BinOp::Eq,
        BinOp::Ne,
        BinOp::Lt,
        BinOp::Le,
        BinOp::Gt,
        BinOp::Ge,
        BinOp::And,
        BinOp::Or,
    ];
    if depth == 0 || rng.below(4) == 0 {
        let column = |rng: &mut TestRng| Expr::Column((*pick(rng, &COLUMNS)).to_string());
        return match rng.below(40) {
            0 => {
                *unbindable = true;
                Expr::Star
            }
            1 => {
                *unbindable = true;
                let arg = (rng.below(2) == 0).then(|| Box::new(column(rng)));
                Expr::Agg { func: if arg.is_some() { AggFunc::Sum } else { AggFunc::Count }, arg }
            }
            2..=20 => column(rng),
            _ => Expr::Literal(gen_value(rng)),
        };
    }
    let mut sub = |rng: &mut TestRng| Box::new(gen_expr(rng, depth - 1, unbindable));
    match rng.below(7) {
        0 | 1 => Expr::Binary { op: *pick(rng, &OPS), left: sub(rng), right: sub(rng) },
        2 => Expr::Not(sub(rng)),
        3 => Expr::Like {
            expr: sub(rng),
            pattern: (*pick(rng, &PATTERNS)).to_string(),
            negated: rng.below(2) == 0,
        },
        4 => Expr::InList {
            expr: sub(rng),
            list: (0..rng.below(4)).map(|_| *sub(rng)).collect(),
            negated: rng.below(2) == 0,
        },
        5 => Expr::IsNull { expr: sub(rng), negated: rng.below(2) == 0 },
        _ => {
            let name = *pick(rng, &FUNCS);
            let args = if name.starts_with("subs") && rng.below(4) != 0 {
                // Literal bounds (the pre-parsed node), negative and zero
                // starts and lengths included; sometimes a NULL or a string.
                let bound = |rng: &mut TestRng| match rng.below(8) {
                    0 => Expr::Literal(gen_value(rng)),
                    _ => Expr::Literal(Value::Int(rng.below(25) as i64 - 8)),
                };
                vec![*sub(rng), bound(rng), bound(rng)]
            } else {
                (0..rng.below(4)).map(|_| *sub(rng)).collect()
            };
            Expr::Func { name: name.to_string(), args }
        }
    }
}

/// An expression tree of every node kind, and whether it is unbindable.
struct ExprTree;

impl Strategy for ExprTree {
    type Value = (Expr, bool);
    fn generate(&self, rng: &mut TestRng) -> (Expr, bool) {
        let mut unbindable = false;
        (gen_expr(rng, 4, &mut unbindable), unbindable)
    }
}

/// Rows of zero to five values under a four-column schema: a short row reads
/// NULL past its end, a long one has a value nothing names.
struct Rows;

impl Strategy for Rows {
    type Value = Vec<Vec<Value>>;
    fn generate(&self, rng: &mut TestRng) -> Vec<Vec<Value>> {
        (0..rng.usize_in(1, 7))
            .map(|_| (0..rng.usize_in(0, 6)).map(|_| gen_value(rng)).collect())
            .collect()
    }
}

/// Identity, not SQL equality: `Int(2)` is not `Float(2.0)`, `-0.0` is not
/// `0.0`. Any NaN is any other: Rust leaves the sign and payload of a NaN
/// that arithmetic makes unspecified, and they differ between builds.
fn same_value(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Null, Value::Null) => true,
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
        (Value::Str(x), Value::Str(y)) => x == y,
        _ => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    #[test]
    fn bound_evaluation_equals_the_reference_walker((expr, unbindable) in ExprTree, rows in Rows) {
        let schema = expr_schema();
        let bound = match bind(&expr, &schema) {
            Ok(bound) => bound,
            Err(e) => {
                prop_assert!(unbindable && matches!(e, ScoopError::Sql(_)), "{expr}: {e}");
                return Ok(());
            }
        };
        prop_assert!(!unbindable, "{expr} must not bind");
        for row in &rows {
            match (bound.eval(row, &[]), reference::eval(&expr, row, &schema)) {
                (Ok(got), Ok(want)) => prop_assert!(
                    same_value(&got, &want),
                    "{expr} on {row:?}: {got:?}, reference {want:?}"
                ),
                (Err(_), Err(_)) => {}
                (got, want) => prop_assert!(false, "{expr} on {row:?}: {got:?}, reference {want:?}"),
            }
            match (bound.test(row, &[]), reference::eval_pred(&expr, row, &schema)) {
                (Ok(got), Ok(want)) => prop_assert_eq!(got, want, "{} on {:?}", expr, row),
                (Err(_), Err(_)) => {}
                (got, want) => prop_assert!(false, "{expr} on {row:?}: {got:?}, reference {want:?}"),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Lane kernels ≡ the row path, value by value
// ---------------------------------------------------------------------------

/// One column's cells under a declared type: floats (NaN, infinities, -0.0
/// and 0.0), integers (past 2^53, where distinct values compare equal as
/// `f64`), strings (non-ASCII, empty), or a mix of everything, which packs
/// into a `Values` column; NULLs in every kind. Also yields a selection.
struct Cells;

impl Strategy for Cells {
    type Value = (DataType, Vec<Value>, Vec<bool>);
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        const FLOATS: [f64; 8] = [0.0, -0.0, 1.5, -2.25, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300];
        const INTS: [i64; 6] = [0, -4, 7, 1 << 53, (1 << 53) + 1, i64::MIN];
        const TEXT: [&str; 6] = ["", "2015-01-03", "2015-01-03 10:00:00", "Zürich", "a", "日本"];
        let kind = rng.below(4);
        let n = rng.usize_in(0, 40);
        let cells = (0..n)
            .map(|_| match (kind, rng.below(6)) {
                (_, 0) => Value::Null,
                (0, _) => Value::Float(*pick(rng, &FLOATS)),
                (1, _) => Value::Int(*pick(rng, &INTS)),
                (2, _) => Value::Str((*pick(rng, &TEXT)).into()),
                _ => gen_value(rng),
            })
            .collect();
        let dtype = [DataType::Float, DataType::Int, DataType::Str, DataType::Float][kind as usize];
        let keep = (0..n).map(|_| rng.below(3) != 0).collect();
        (dtype, cells, keep)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    #[test]
    fn lane_kernels_fold_as_the_row_path_does((dtype, cells, keep) in Cells) {
        let schema = Schema::new(vec![Field::new("x", dtype)]);
        let batch = ColumnBatch::from_rows(&schema, cells.iter().map(|v| vec![v.clone()]));
        let kept: Vec<usize> = (0..cells.len()).filter(|&i| keep[i]).collect();
        for selection in [Selection::All(cells.len()), Selection::Rows(kept)] {
            for func in [AggFunc::Count, AggFunc::Sum, AggFunc::Min, AggFunc::Max, AggFunc::Avg, AggFunc::First] {
                // A state that has already folded something, as after a
                // previous batch.
                for seed in [None, Some(Value::Int(0)), Some(Value::Str("b".into()))] {
                    let mut lanes = AggState::new(func);
                    let mut rows = AggState::new(func);
                    if let Some(v) = &seed {
                        lanes.update(v);
                        rows.update(v);
                    }
                    lanes.update_column(batch.column(0).unwrap(), &selection);
                    for i in selection.rows() {
                        rows.update(&cells[i]);
                    }
                    prop_assert!(
                        same_value(&lanes.finish(), &rows.finish()),
                        "{:?} over {:?} of {:?}: {:?}, rows {:?}",
                        func, selection, cells, lanes.finish(), rows.finish()
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Whole queries: single pass ≡ partial + merge ≡ reference
// ---------------------------------------------------------------------------

fn meter_schema() -> Schema {
    use DataType::{Float, Str};
    Schema::new(
        [
            ("vid", Str),
            ("date", Str),
            ("index", Float),
            ("sumHC", Float),
            ("sumHP", Float),
            ("lat", Float),
            ("long", Float),
            ("city", Str),
            ("state", Str),
            ("region", Str),
        ]
        .into_iter()
        .map(|(name, dtype)| Field::new(name, dtype))
        .collect(),
    )
}

/// The seven Table I shapes (`scoop_workload::table1_queries`, which this
/// crate cannot depend on), the ten-column low-selectivity aggregate,
/// aggregates in arithmetic, `HAVING` and `ORDER BY`, and queries that do
/// not aggregate: `DISTINCT`, a computed projection sorted on an expression
/// that is no output, `SELECT *` sorted, and an unsorted `LIMIT`.
const QUERIES: [&str; 15] = [
    "SELECT vid, sum(index) as max, first_value(lat) as lat, first_value(long) as long, \
     first_value(state) as state FROM largeMeter WHERE date LIKE '2015-01%' \
     GROUP BY SUBSTRING(date, 0, 7), vid ORDER BY SUBSTRING(date, 0, 7), vid",
    "SELECT vid, sum(index) as max, first_value(city) as city, first_value(lat) as lat, \
     first_value(long) as long, first_value(state) as state \
     FROM largeMeter WHERE date LIKE '2015-01%' \
     GROUP BY SUBSTRING(date, 0, 7), vid ORDER BY SUBSTRING(date, 0, 7), vid",
    "SELECT SUBSTRING(date, 0, 10) as sDate, sum(index) as max, first_value(lat) as lat, \
     first_value(long) as long FROM largeMeter WHERE date LIKE '2015-01%' \
     GROUP BY SUBSTRING(date, 0, 10), vid ORDER BY SUBSTRING(date, 0, 10), vid",
    "SELECT SUBSTRING(date, 0, 10) as sDate, sum(index) as max, vid \
     FROM largeMeter WHERE city LIKE 'Rotterdam' AND date LIKE '2015-01-%' \
     GROUP BY SUBSTRING(date, 0, 10), vid ORDER BY SUBSTRING(date, 0, 10), vid",
    "SELECT SUBSTRING(date, 0, 10) as sDate, state as vid, sum(index) as max \
     FROM largeMeter WHERE state LIKE 'U%' AND date LIKE '2015-01-%' \
     GROUP BY SUBSTRING(date, 0, 10), state ORDER BY SUBSTRING(date, 0, 10), state",
    "SELECT SUBSTRING(date, 0, 10) as sDate, vid, min(sumHC) as minHC, max(sumHC) as maxHC, \
     min(sumHP) as minHP, max(sumHP) as maxHP \
     FROM largeMeter WHERE state LIKE 'FRA' AND date LIKE '2015-01-%' \
     GROUP BY SUBSTRING(date, 0, 10), vid ORDER BY SUBSTRING(date, 0, 10), vid",
    "SELECT SUBSTRING(date, 0, 13) as sDate, sum(index) as max, vid \
     FROM largeMeter WHERE city LIKE 'Rotterdam' AND date LIKE '2015-01-%' \
     GROUP BY SUBSTRING(date, 0, 13), vid ORDER BY SUBSTRING(date, 0, 13), vid",
    "SELECT count(vid) as n, min(date) as d0, max(date) as d1, sum(index) as s_index, \
     sum(sumHC) as s_hc, sum(sumHP) as s_hp, min(lat) as lat0, max(long) as long1, \
     min(city) as city0, max(state) as state1, min(region) as region0 \
     FROM largeMeter WHERE vid < 'M00002'",
    "SELECT count(*) as n, avg(index) as mean, sum(index) / count(*) as mean2 FROM largeMeter",
    "SELECT vid, count(*) as n FROM largeMeter GROUP BY vid \
     HAVING sum(index) >= 0 ORDER BY max(index) DESC, vid",
    // `finalize` moves a key part out when one place reads it (`city`, a
    // sort key) and copies one that several do (`state`).
    "SELECT state, state as s2, upper(state) as u, count(*) as n FROM largeMeter \
     GROUP BY state, city ORDER BY city DESC, state",
    "SELECT DISTINCT state, upper(city) as c FROM largeMeter \
     WHERE index IS NOT NULL ORDER BY c, state LIMIT 5",
    "SELECT vid, index * 2 + 1 as i2, upper(city) as c FROM largeMeter \
     WHERE index > -50 ORDER BY SUBSTRING(date, 0, 10) DESC, sumHC LIMIT 17",
    "SELECT * FROM largeMeter WHERE city LIKE 'Rotterdam' ORDER BY date, index DESC",
    "SELECT vid, date, index FROM largeMeter WHERE index >= 0 LIMIT 7",
];

/// Meter-like rows, clustered so groups repeat. Every number is a multiple of
/// one half, so float sums are exact in any order and partial + merge can be
/// held to equality rather than to a tolerance.
fn meter_rows() -> impl Strategy<Value = Vec<Vec<Value>>> {
    let half = |range: std::ops::Range<i32>| {
        proptest::option::of(range).prop_map(|h| match h {
            Some(h) => Value::Float(f64::from(h) / 2.0),
            None => Value::Null,
        })
    };
    let place = prop_oneof![
        Just(("Rotterdam", "NLD")),
        Just(("Paris", "FRA")),
        Just(("Utica", "USA")),
        Just(("Zürich", "CHE")),
    ];
    let row = (0u32..4, (1u32..3, 1u32..4, 0u32..3), (half(-200..200), half(0..50)), place)
        .prop_map(|(vid, (month, day, hour), (index, small), (city, state))| {
            let s = |text: String| Value::Str(text);
            vec![
                s(format!("M{vid:05}")),
                s(format!("2015-{month:02}-{day:02} {hour:02}:00:00")),
                index,
                small.clone(),
                small,
                Value::Float(f64::from(vid) + 0.5),
                Value::Float(f64::from(vid) - 0.5),
                s(city.to_string()),
                s(state.to_string()),
                s("EU".to_string()),
            ]
        });
    proptest::collection::vec(row, 0..60)
}

/// Table-scale rows: up to 80 meters reporting hourly on up to 31 days, so
/// hundreds to a few thousand distinct `(SUBSTRING(date, 0, 10), vid)`
/// groups and a group index that grows several times. Everything but the
/// readings is a function of the meter, so partials merged in any order
/// agree on `first_value`. Meters 0–4 have awkward ids: NULL, NaN, `-0.0`,
/// zero as `Int(0)` or `Float(0.0)`, and two as `Int(2)` or `Float(2.0)`;
/// each equal pair is one group.
///
/// Also yields a chunk size and the order the chunks' partials merge in,
/// `None` standing for an empty partial: shuffled, with empty partials first
/// and in between, as a session's tasks may finish.
struct Table;

impl Strategy for Table {
    type Value = (Vec<Vec<Value>>, usize, Vec<Option<usize>>);
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        const PLACES: [(&str, &str); 4] =
            [("Rotterdam", "NLD"), ("Paris", "FRA"), ("Utica", "USA"), ("Zürich", "CHE")];
        let (meters, days) = (rng.usize_in(8, 81), rng.usize_in(10, 32));
        let reading = |rng: &mut TestRng| match rng.below(20) {
            0 => Value::Null,
            _ => Value::Float(rng.below(400) as f64 / 2.0 - 100.0),
        };
        let rows: Vec<Vec<Value>> = (0..rng.usize_in(200, 3001))
            .map(|_| {
                let m = rng.usize_in(0, meters);
                let vid = match m {
                    0 => Value::Null,
                    1 => Value::Float(f64::NAN),
                    2 => Value::Float(-0.0),
                    3 if rng.below(2) == 0 => Value::Int(0),
                    3 => Value::Float(0.0),
                    4 if rng.below(2) == 0 => Value::Int(2),
                    4 => Value::Float(2.0),
                    m => Value::Str(format!("M{m:05}")),
                };
                let month = 1 + u32::from(rng.below(8) == 0);
                let (day, hour) = (rng.usize_in(1, days + 1), rng.below(24));
                let (city, state) = PLACES[m % PLACES.len()];
                let s = |text: &str| Value::Str(text.into());
                vec![
                    vid,
                    s(&format!("2015-{month:02}-{day:02} {hour:02}:00:00")),
                    reading(rng),
                    reading(rng),
                    reading(rng),
                    Value::Float(m as f64 + 0.5),
                    Value::Float(m as f64 - 0.5),
                    s(city),
                    s(state),
                    s("EU"),
                ]
            })
            .collect();
        let chunk = rng.usize_in(50, 600);
        let mut chunks: Vec<usize> = (0..rows.len().div_ceil(chunk)).collect();
        for i in (1..chunks.len()).rev() {
            chunks.swap(i, rng.usize_in(0, i + 1));
        }
        let mut order = vec![None];
        for c in chunks {
            order.push(Some(c));
            if rng.below(3) == 0 {
                order.push(None);
            }
        }
        (rows, chunk, order)
    }
}

/// Batch sizes that fold each task's rows as one batch.
const WHOLE: &[usize] = &[usize::MAX];

/// WHERE, fold and merge per chunk, then finalize: what the compute session
/// does with one task per chunk. Each chunk's rows are packed into column
/// batches of `sizes` in turn and folded batch by batch, as a session task
/// folds its scan, an unsorted `LIMIT`'s selection cut to the quota the
/// tasks before left open. The partials merge in `order` (chunk numbers,
/// `None` an empty partial), or in chunk order.
fn two_phase(
    query: &Query,
    schema: &Schema,
    rows: &[Vec<Value>],
    chunk: usize,
    order: Option<&[Option<usize>]>,
    sizes: &[usize],
) -> ResultSet {
    let filter = RowFilter::bind(query.where_clause.as_ref(), schema).unwrap();
    let exec = Executor::new(query, schema).unwrap();
    let mut collected = 0;
    let mut partials: Vec<Option<Partial>> = rows
        .chunks(chunk)
        .map(|part| {
            let mut partial = exec.partial();
            let mut rest = part;
            for &size in sizes.iter().cycle() {
                if rest.is_empty() {
                    break;
                }
                let (batch, tail) = rest.split_at(size.min(rest.len()));
                rest = tail;
                let batch = ColumnBatch::from_rows(schema, batch.to_vec());
                let mut selection = filter.select(&batch).unwrap();
                if let Some(limit) = exec.early_limit() {
                    selection.truncate(limit - collected);
                    collected += selection.len();
                }
                exec.update_batch(&mut partial, &batch, &selection).unwrap();
            }
            Some(partial)
        })
        .collect();
    let in_turn: Vec<Option<usize>> = (0..partials.len()).map(Some).collect();
    let mut merged = exec.partial();
    for chunk in order.unwrap_or(&in_turn) {
        let partial = match chunk {
            Some(c) => partials[*c].take().unwrap(),
            None => exec.partial(),
        };
        exec.merge(&mut merged, partial);
    }
    exec.finalize(merged).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn single_pass_equals_two_phase_equals_reference(
        rows in meter_rows(),
        chunk in 1usize..20,
        (table, table_chunk, merge_order) in Table,
        sizes in proptest::collection::vec(1usize..300, 1..6),
    ) {
        let schema = meter_schema();
        // A session merges its tasks' partials in task order: the same
        // chunks and empty partials as `merge_order`, not shuffled.
        let mut next = 0;
        let in_task_order: Vec<Option<usize>> =
            merge_order.iter().map(|c| c.map(|_| { next += 1; next - 1 })).collect();
        for sql in QUERIES {
            let query = parse(sql).unwrap();
            let wh = query.where_clause.as_ref();
            // Only an aggregate's partials merge to the same result in any
            // order.
            let table_order = if query.is_aggregate() { &merge_order } else { &in_task_order };
            for (rows, chunk, order) in
                [(&rows, chunk, None), (&table, table_chunk, Some(table_order.as_slice()))]
            {
                let feed = || rows.clone().into_iter().map(Ok);
                let single = execute_with_where(&query, &schema, wh, feed()).unwrap();
                let want = reference::execute_with_where(&query, &schema, wh, feed()).unwrap();
                prop_assert_eq!(&single, &want, "{}", sql);
                let two = two_phase(&query, &schema, rows, chunk, order, WHOLE);
                prop_assert_eq!(&two, &want, "{}", sql);
                // The batch leg: one task over every batch, then a task per
                // chunk.
                let whole = rows.len().max(1);
                let single = two_phase(&query, &schema, rows, whole, None, &sizes);
                prop_assert_eq!(&single, &want, "batches {:?}: {}", sizes, sql);
                let two = two_phase(&query, &schema, rows, chunk, order, &sizes);
                prop_assert_eq!(&two, &want, "batches {:?}: {}", sizes, sql);
            }
        }
    }
}

#[test]
fn global_aggregate_over_zero_rows_agrees_everywhere() {
    let schema = meter_schema();
    for sql in QUERIES.iter().filter(|q| !q.contains("GROUP BY") && parse(q).unwrap().is_aggregate()) {
        let query = parse(sql).unwrap();
        let wh = query.where_clause.as_ref();
        let single = execute_with_where(&query, &schema, wh, std::iter::empty()).unwrap();
        let want = reference::execute_with_where(&query, &schema, wh, std::iter::empty()).unwrap();
        assert_eq!(single.rows.len(), 1, "{sql}");
        assert_eq!(single, want, "{sql}");
        assert_eq!(two_phase(&query, &schema, &[], 4, None, WHOLE), want, "{sql}");
        assert_eq!(two_phase(&query, &schema, &[], 4, None, &[3]), want, "{sql}");
    }
}

// ---------------------------------------------------------------------------
// GROUP BY keys from lanes ≡ a row iterator ≡ the reference
// ---------------------------------------------------------------------------

fn group_schema() -> Schema {
    use DataType::{Float, Str};
    Schema::new(
        [("k", Str), ("t", Str), ("n", Float), ("v", Float), ("u", Str)]
            .into_iter()
            .map(|(name, dtype)| Field::new(name, dtype))
            .collect(),
    )
}

/// Rows for the group leg: `k` a short key (empty, non-ASCII, NULL), `t`
/// text to cut (dates, non-ASCII, empty, NULL), `n` a number that mixes
/// `Int 2` with `Float 2.0`, `Int 0` with `0.0`, `-0.0`, NaN, NULL and the
/// odd string (so it packs into a `Values` column), `v` a reading in halves,
/// `u` text no key reads. Also yields a task size, batch sizes, the chunk
/// size the rows' CSV is read in, and literal `SUBSTRING` bounds.
struct Groups;

impl Strategy for Groups {
    type Value = (Vec<Vec<Value>>, usize, Vec<usize>, usize, (i64, i64));
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        const KEYS: [&str; 7] = ["", "a", "Zürich", "日本", "zürich", "M00001", "Rotterdam"];
        const TEXT: [&str; 7] =
            ["2015-01-03 10:00:00", "2015-01-04 11:00:00", "日本語テキスト", "Zürich 2015", "", "é", "abc"];
        const USERS: [&str; 3] = ["x", "Ünï", "y"];
        let s = |text: &str| Value::Str(text.into());
        let rows: Vec<Vec<Value>> = (0..rng.usize_in(0, 300))
            .map(|_| {
                let n = match rng.below(10) {
                    0 => Value::Null,
                    1 => Value::Int(2),
                    2 => Value::Float(2.0),
                    3 => Value::Int(0),
                    4 => Value::Float(0.0),
                    5 => Value::Float(-0.0),
                    6 => Value::Float(f64::NAN),
                    7 => s("2"),
                    _ => Value::Float(1.5),
                };
                vec![
                    if rng.below(8) == 0 { Value::Null } else { s(pick::<&str>(rng, &KEYS)) },
                    if rng.below(8) == 0 { Value::Null } else { s(pick::<&str>(rng, &TEXT)) },
                    n,
                    Value::Float(rng.below(20) as f64 / 2.0),
                    s(pick::<&str>(rng, &USERS)),
                ]
            })
            .collect();
        let sizes = (0..rng.usize_in(1, 4)).map(|_| rng.usize_in(1, 80)).collect();
        let bound = |rng: &mut TestRng| *pick(rng, &[-30, -3, -1, 0, 1, 2, 5, 40]);
        let bounds = (bound(rng), bound(rng));
        (rows, rng.usize_in(1, 120), sizes, rng.usize_in(1, 200), bounds)
    }
}

/// Identity of whole results: same columns, rows in the same order, every
/// value [`same_value`] (so an `Int` key stays an `Int`).
fn same_result(a: &ResultSet, b: &ResultSet) -> bool {
    a.columns == b.columns
        && a.rows.len() == b.rows.len()
        && a.rows.iter().zip(&b.rows).all(|(x, y)| {
            x.len() == y.len() && x.iter().zip(y).all(|(x, y)| same_value(x, y))
        })
}

/// The rows as CSV under [`group_schema`], and back: what a scan types
/// them to (`n`'s integers become floats, its string NULL).
fn as_csv(rows: &[Vec<Value>]) -> String {
    let mut csv = String::from("k,t,n,v,u\n");
    for row in rows {
        let fields: Vec<String> = row.iter().map(Value::to_string).collect();
        csv.push_str(&fields.join(","));
        csv.push('\n');
    }
    csv
}

/// Fold `batches` into one partial per task of `per_task` batches, merge
/// the partials in task order and finalize: a session's tasks, in order.
fn fold_batches(query: &Query, schema: &Schema, batches: &[ColumnBatch], per_task: usize) -> ResultSet {
    let exec = Executor::new(query, schema).unwrap();
    let filter = RowFilter::bind(query.where_clause.as_ref(), schema).unwrap();
    let mut merged = exec.partial();
    for task in batches.chunks(per_task.max(1)) {
        let mut partial = exec.partial();
        for batch in task {
            exec.update_batch(&mut partial, batch, &filter.select(batch).unwrap()).unwrap();
        }
        exec.merge(&mut merged, partial);
    }
    exec.finalize(merged).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn group_keys_from_lanes_equal_the_row_path_and_the_reference(
        (rows, task, sizes, read, (start, len)) in Groups,
    ) {
        let schema = group_schema();
        let queries = [
            // Column and SUBSTRING key kernels, on ASCII and non-ASCII text,
            // any bounds; NULL key parts.
            format!(
                "SELECT k, SUBSTRING(t, {start}, {len}) as p, count(*) as c, sum(v) as s FROM t \
                 GROUP BY k, SUBSTRING(t, {start}, {len}) ORDER BY k, p"
            ),
            // A number key: `-0.0` and `0.0` apart, `Int 2` and `Float 2.0`
            // together, output as the group's first row had it.
            "SELECT n, count(*) as c, min(v) as lo FROM t GROUP BY n ORDER BY n".to_string(),
            // A key the kernels do not cover, and a WHERE.
            format!(
                "SELECT upper(k) as uk, count(*) as c FROM t WHERE v > 2 \
                 GROUP BY upper(k), SUBSTRING(t, {start}, {len}) ORDER BY uk, max(t)"
            ),
            // An output that reads a column no key holds: representative rows.
            "SELECT SUBSTRING(t, 0, 4) as y, upper(u) as w, first_value(k) as f, count(*) as c \
             FROM t GROUP BY SUBSTRING(t, 0, 4) HAVING count(*) > 0 ORDER BY y"
                .to_string(),
        ];
        // Two scans of the same rows: packed (strings in the lanes' arenas,
        // `n` a `Values` column), and typed from CSV read in chunks of
        // `read` bytes (strings spanned in the input, or copied where a
        // record straddles two chunks).
        let csv = as_csv(&rows);
        let typed: Vec<Vec<Value>> = scoop_csv::CsvReader::new(scoop_common::stream::once(csv.clone().into()), schema.clone(), true)
            .map(Result::unwrap)
            .collect();
        let mut reader = scoop_csv::CsvReader::new(scoop_common::stream::chunked(csv.into(), read), schema.clone(), true);
        let mut read_batches = Vec::new();
        while let Some(batch) = reader.next_batch().unwrap() {
            read_batches.push(batch);
        }
        let mut packed = Vec::new();
        let mut rest = rows.as_slice();
        for &size in sizes.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (batch, tail) = rest.split_at(size.min(rest.len()));
            packed.push(ColumnBatch::from_rows(&schema, batch.to_vec()));
            rest = tail;
        }
        for sql in &queries {
            let query = parse(sql).unwrap();
            let wh = query.where_clause.as_ref();
            for (rows, batches) in [(&rows, &packed), (&typed, &read_batches)] {
                let feed = || rows.clone().into_iter().map(Ok);
                let want = reference::execute_with_where(&query, &schema, wh, feed()).unwrap();
                let single = execute_with_where(&query, &schema, wh, feed()).unwrap();
                prop_assert!(same_result(&single, &want), "{}\n{:?}\nreference {:?}", sql, single.rows, want.rows);
                let by_tasks = two_phase(&query, &schema, rows, task, None, WHOLE);
                prop_assert!(same_result(&by_tasks, &want), "tasks: {}\n{:?}\nreference {:?}", sql, by_tasks.rows, want.rows);
                let by_batches = fold_batches(&query, &schema, batches, 1 + task % 4);
                prop_assert!(same_result(&by_batches, &want), "batches: {}\n{:?}\nreference {:?}", sql, by_batches.rows, want.rows);
            }
        }
        // Ties on the ORDER BY keys come out in the order their groups were
        // first seen, whatever the scan and the task cuts.
        let query = parse("SELECT k, SUBSTRING(k, 2, 1) as s, count(*) as c FROM t GROUP BY k ORDER BY c").unwrap();
        let mut first_seen: Vec<&Value> = Vec::new();
        for row in &rows {
            if !first_seen.contains(&&row[0]) {
                first_seen.push(&row[0]);
            }
        }
        let mut want = reference::execute_with_where(&query, &schema, None, rows.clone().into_iter().map(Ok)).unwrap();
        want.rows.sort_by_key(|row| (row[2].as_f64().map(|c| c as u64), first_seen.iter().position(|k| **k == row[0])));
        for got in [
            execute_with_where(&query, &schema, None, rows.clone().into_iter().map(Ok)).unwrap(),
            two_phase(&query, &schema, &rows, task, None, WHOLE),
            fold_batches(&query, &schema, &packed, 1 + task % 4),
        ] {
            prop_assert!(same_result(&got, &want), "ties\n{:?}\nwant {:?}", got.rows, want.rows);
        }
    }
}

// ---------------------------------------------------------------------------
// Errors of the query itself: at bind, before the first row
// ---------------------------------------------------------------------------

#[test]
fn query_errors_surface_at_bind_as_sql_errors_even_over_no_rows() {
    let schema = meter_schema();
    let is_sql = |e: &ScoopError| matches!(e, ScoopError::Sql(_));
    for sql in [
        "SELECT ghost FROM t",
        "SELECT vid FROM t WHERE ghost > 1",
        "SELECT vid FROM t ORDER BY ghost",
        "SELECT vid, count(*) FROM t GROUP BY ghost",
        "SELECT sum(ghost) FROM t",
        "SELECT count(*) FROM t HAVING ghost > 1",
        "SELECT vid FROM t WHERE sum(index) > 1",
        "SELECT count(*) FROM t WHERE count(*) > 1",
        "SELECT sum(sum(index)) FROM t",
        "SELECT *, sum(index) FROM t",
    ] {
        let query = parse(sql).unwrap();
        let wh = query.where_clause.as_ref();
        let err = execute_with_where(&query, &schema, wh, std::iter::empty())
            .expect_err(&format!("{sql} must not execute"));
        assert!(is_sql(&err), "{sql}: {err}");
        // One row would have been enough for the reference to notice; it
        // took a row, and this does not.
        let row = vec![Value::Null; 10];
        assert!(
            reference::execute_with_where(&query, &schema, wh, std::iter::once(Ok(row))).is_err(),
            "{sql}"
        );
    }
    // `*` anywhere but a bare select item or COUNT(*).
    let star = Expr::Binary {
        op: BinOp::Add,
        left: Box::new(Expr::Star),
        right: Box::new(Expr::Literal(Value::Int(1))),
    };
    assert!(is_sql(&bind(&star, &schema).unwrap_err()));
    assert!(is_sql(&RowFilter::bind(Some(&star), &schema).unwrap_err()));
    // An aggregate in a per-row position, and one as another's argument.
    let agg = Expr::Agg { func: AggFunc::Sum, arg: Some(Box::new(Expr::Column("index".into()))) };
    assert!(is_sql(&RowFilter::bind(Some(&agg), &schema).unwrap_err()));
    let query = parse("SELECT vid FROM t WHERE vid IN ('a', ghost)").unwrap();
    assert!(is_sql(&RowFilter::bind(query.where_clause.as_ref(), &schema).unwrap_err()));
}
