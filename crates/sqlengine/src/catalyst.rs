//! Catalyst-style pushdown extraction.
//!
//! "Given a SQL query, the optimizer *extracts* the projection and selection
//! filters implied by the query. These extracted filters are then used by
//! Spark SQL with the customized flavors of the data source API." This module
//! is that optimizer: it turns a parsed [`Query`] into
//!
//! * a [`PushdownSpec`] — the projection (columns the query touches) and the
//!   WHERE conjuncts expressible in the Data-Sources filter language, and
//! * the **residual** predicate — conjuncts the store cannot evaluate, which
//!   stay on the compute side (`PrunedFilteredScan` semantics: the source
//!   fully handles the filters it accepts).
//!
//! A conjunct whose predicate would nest deeper than
//! [`MAX_PREDICATE_DEPTH`] (a long `OR` chain) stays residual: the store
//! rejects such a header.
//!
//! `NOT` is never pushed: the raw-field filter is two-valued while SQL is
//! three-valued, and they disagree on `NOT <null comparison>` (real Catalyst
//! has the same restriction on nullable columns).
//!
//! A leaf is pushed only where the store's raw-field semantics
//! (`scoop_csv::filter`) agree with SQL's over the *typed* column
//! (`crate::bound`), which the column's type decides:
//!
//! * a `Str` column with `Str` literals — both compare the text;
//! * a `Float` column with numeric literals — both parse the field as a
//!   number, and a field that does not parse fails both;
//! * `IS [NOT] NULL` on any column — both read an empty field as NULL.
//!
//! Everything else stays residual. A numeric column against a `Str`
//! literal, and `LIKE` on one, would compare the raw spelling (`2.50`,
//! `1e3`) where SQL compares, or renders, the parsed number (`2.5`,
//! `1000.0`). An `Int` column types a field such as `2.5` as a string,
//! which SQL never orders against a number while the store parses it as one.

use crate::ast::{BinOp, Expr, Query};
use scoop_common::Result;
use scoop_csv::pushdown::{LikePattern, MAX_PREDICATE_DEPTH};
use scoop_csv::{DataType, Predicate, PushdownSpec, Schema, Value};

/// A query analyzed for pushdown execution.
#[derive(Debug, Clone)]
pub struct PlannedQuery {
    /// The original query.
    pub query: Query,
    /// What the object store will execute (projection + pushed selection).
    pub pushdown: PushdownSpec,
    /// Conjuncts the compute side must still apply.
    pub residual_where: Option<Expr>,
    /// The schema of rows the scan produces under `pushdown` (projected).
    pub scan_schema: Schema,
    /// How many WHERE conjuncts were pushed (diagnostics).
    pub pushed_conjuncts: usize,
    /// How many stayed residual (diagnostics).
    pub residual_conjuncts: usize,
}

/// Analyze a query against a table schema.
pub fn plan_query(query: &Query, schema: &Schema, has_header: bool) -> Result<PlannedQuery> {
    // Validate every referenced column.
    if let Some(cols) = query.referenced_columns() {
        for c in &cols {
            schema.resolve(c)?;
        }
    }
    // Projection: the columns the query touches, in schema order for
    // deterministic wire format. SELECT * disables pruning.
    let columns = query.referenced_columns().map(|cols| {
        let mut ordered: Vec<String> = schema
            .fields
            .iter()
            .filter(|f| cols.iter().any(|c| f.name.eq_ignore_ascii_case(c)))
            .map(|f| f.name.clone())
            .collect();
        // A scan must produce at least one column (e.g. SELECT COUNT(*)).
        if ordered.is_empty() {
            if let Some(first) = schema.fields.first() {
                ordered.push(first.name.clone());
            }
        }
        ordered
    });

    // Selection: split the WHERE into conjuncts; push what converts, while
    // the pushed conjunction stays within what a pushdown header may carry.
    let mut pushed: Vec<Predicate> = Vec::new();
    let mut residual: Vec<Expr> = Vec::new();
    let mut depth = 0;
    if let Some(w) = &query.where_clause {
        for conjunct in split_conjuncts(w) {
            let Some(p) = to_predicate(&conjunct, schema) else {
                residual.push(conjunct);
                continue;
            };
            // `and_all` nests the conjunction so far one level under the
            // next conjunct's `And`.
            let deeper = if pushed.is_empty() { p.depth() } else { depth.max(p.depth()) + 1 };
            if deeper > MAX_PREDICATE_DEPTH {
                residual.push(conjunct);
            } else {
                depth = deeper;
                pushed.push(p);
            }
        }
    }
    let pushed_conjuncts = pushed.len();
    let residual_conjuncts = residual.len();
    let predicate = Predicate::and_all(pushed);
    let residual_where = residual
        .into_iter()
        .reduce(|a, b| Expr::Binary { op: BinOp::And, left: Box::new(a), right: Box::new(b) });

    let scan_schema = match &columns {
        None => schema.clone(),
        Some(cols) => schema.project(cols)?,
    };
    // All columns projected → None (no pruning benefit, keep wire identical).
    let columns = match columns {
        Some(cols) if cols.len() == schema.len() => None,
        other => other,
    };

    Ok(PlannedQuery {
        query: query.clone(),
        pushdown: PushdownSpec { columns, predicate, has_header },
        residual_where,
        scan_schema,
        pushed_conjuncts,
        residual_conjuncts,
    })
}

/// Split an expression into top-level AND conjuncts.
pub fn split_conjuncts(expr: &Expr) -> Vec<Expr> {
    match expr {
        Expr::Binary { op: BinOp::And, left, right } => {
            let mut out = split_conjuncts(left);
            out.extend(split_conjuncts(right));
            out
        }
        other => vec![other.clone()],
    }
}

/// The type of column `name` in `schema`.
fn column_type(schema: &Schema, name: &str) -> Option<DataType> {
    let i = schema.index_of(name)?;
    schema.fields.get(i).map(|f| f.dtype)
}

/// Whether the store compares column values of type `dtype` with `lit`
/// exactly as SQL does (module docs). A NULL literal never qualifies:
/// `col = NULL` is never true, and stays residual.
fn comparable(dtype: DataType, lit: &Value) -> bool {
    matches!(
        (dtype, lit),
        (DataType::Str, Value::Str(_)) | (DataType::Float, Value::Int(_) | Value::Float(_))
    )
}

/// Try to express an expression in the Data-Sources filter language, with
/// the store's semantics equal to SQL's over `schema`'s typed columns.
fn to_predicate(expr: &Expr, schema: &Schema) -> Option<Predicate> {
    match expr {
        Expr::Binary { op, left, right } => {
            match op {
                BinOp::And => Some(Predicate::And(
                    Box::new(to_predicate(left, schema)?),
                    Box::new(to_predicate(right, schema)?),
                )),
                BinOp::Or => Some(Predicate::Or(
                    Box::new(to_predicate(left, schema)?),
                    Box::new(to_predicate(right, schema)?),
                )),
                BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                    // column <op> literal, possibly flipped.
                    let (col, lit, op) = match (&**left, &**right) {
                        (Expr::Column(c), Expr::Literal(v)) => (c, v, *op),
                        (Expr::Literal(v), Expr::Column(c)) => (c, v, flip(*op)),
                        _ => return None,
                    };
                    if !comparable(column_type(schema, col)?, lit) {
                        return None;
                    }
                    Some(match op {
                        BinOp::Eq => Predicate::Eq(col.clone(), lit.clone()),
                        BinOp::Ne => Predicate::Ne(col.clone(), lit.clone()),
                        BinOp::Lt => Predicate::Lt(col.clone(), lit.clone()),
                        BinOp::Le => Predicate::Le(col.clone(), lit.clone()),
                        BinOp::Gt => Predicate::Gt(col.clone(), lit.clone()),
                        BinOp::Ge => Predicate::Ge(col.clone(), lit.clone()),
                        _ => unreachable!(),
                    })
                }
                _ => None,
            }
        }
        Expr::Like { expr, pattern, negated: false } => match &**expr {
            Expr::Column(c) if column_type(schema, c)? == DataType::Str => {
                // Anchored patterns become the Data-Sources filters Spark
                // emits for them (StringStartsWith and friends).
                Some(match LikePattern::new(pattern) {
                    LikePattern::Exact(s) => Predicate::Eq(c.clone(), Value::Str(s)),
                    LikePattern::Prefix(s) => Predicate::StartsWith(c.clone(), s),
                    LikePattern::Suffix(s) => Predicate::EndsWith(c.clone(), s),
                    LikePattern::Contains(s) => Predicate::Contains(c.clone(), s),
                    LikePattern::General(_) => Predicate::Like(c.clone(), pattern.clone()),
                })
            }
            _ => None,
        },
        Expr::InList { expr, list, negated: false } => match &**expr {
            Expr::Column(c) => {
                let dtype = column_type(schema, c)?;
                let mut values = Vec::with_capacity(list.len());
                for item in list {
                    match item {
                        Expr::Literal(v) if comparable(dtype, v) => values.push(v.clone()),
                        _ => return None,
                    }
                }
                Some(Predicate::In(c.clone(), values))
            }
            _ => None,
        },
        Expr::IsNull { expr, negated } => match &**expr {
            Expr::Column(c) => Some(if *negated {
                Predicate::IsNotNull(c.clone())
            } else {
                Predicate::IsNull(c.clone())
            }),
            _ => None,
        },
        _ => None,
    }
}

fn flip(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

/// Validate the plan's internal consistency (used by tests & debug builds):
/// every pushed/residual column must exist in the scan schema.
pub fn check_plan(plan: &PlannedQuery) -> Result<()> {
    if let Some(pred) = &plan.pushdown.predicate {
        for c in pred.columns() {
            plan.scan_schema.resolve(&c)?;
        }
    }
    if let Some(res) = &plan.residual_where {
        let mut cols = Vec::new();
        res.columns(&mut cols);
        for c in cols {
            plan.scan_schema.resolve(&c)?;
        }
    }
    Ok(())
}

impl PlannedQuery {
    /// True when the store does all the filtering (no residual WHERE).
    pub fn fully_pushed(&self) -> bool {
        self.residual_conjuncts == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use scoop_csv::schema::{DataType, Field};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("vid", DataType::Str),
            Field::new("date", DataType::Str),
            Field::new("index", DataType::Float),
            Field::new("city", DataType::Str),
            Field::new("state", DataType::Str),
            Field::new("lat", DataType::Float),
        ])
    }

    fn plan(sql: &str) -> PlannedQuery {
        let q = parse(sql).unwrap();
        let p = plan_query(&q, &schema(), true).unwrap();
        check_plan(&p).unwrap();
        p
    }

    #[test]
    fn showmapcons_fully_pushes() {
        let p = plan(
            "SELECT vid, sum(index) as max, first_value(lat) as lat FROM t \
             WHERE date LIKE '2015-01%' GROUP BY SUBSTRING(date, 0, 7), vid \
             ORDER BY SUBSTRING(date, 0, 7), vid",
        );
        assert!(p.fully_pushed());
        assert_eq!(p.pushed_conjuncts, 1);
        // Prefix LIKE specializes to StartsWith.
        assert_eq!(
            p.pushdown.predicate,
            Some(Predicate::StartsWith("date".into(), "2015-01".into()))
        );
        // Projection keeps only touched columns, in schema order.
        assert_eq!(
            p.pushdown.columns,
            Some(vec!["vid".into(), "date".into(), "index".into(), "lat".into()])
        );
        assert_eq!(p.scan_schema.len(), 4);
    }

    #[test]
    fn like_specializations() {
        assert_eq!(
            plan("SELECT vid FROM t WHERE city LIKE 'Rotterdam'").pushdown.predicate,
            Some(Predicate::Eq("city".into(), Value::Str("Rotterdam".into())))
        );
        assert_eq!(
            plan("SELECT vid FROM t WHERE state LIKE 'U%'").pushdown.predicate,
            Some(Predicate::StartsWith("state".into(), "U".into()))
        );
        assert_eq!(
            plan("SELECT vid FROM t WHERE city LIKE '%dam'").pushdown.predicate,
            Some(Predicate::EndsWith("city".into(), "dam".into()))
        );
        assert_eq!(
            plan("SELECT vid FROM t WHERE city LIKE '%tt%'").pushdown.predicate,
            Some(Predicate::Contains("city".into(), "tt".into()))
        );
        assert_eq!(
            plan("SELECT vid FROM t WHERE date LIKE '2015-01-__ 10%'").pushdown.predicate,
            Some(Predicate::Like("date".into(), "2015-01-__ 10%".into()))
        );
    }

    #[test]
    fn comparison_flip_and_mixed_residual() {
        let p = plan(
            "SELECT vid FROM t WHERE 100 <= index AND SUBSTRING(date, 0, 4) = '2015'",
        );
        assert_eq!(p.pushed_conjuncts, 1);
        assert_eq!(p.residual_conjuncts, 1);
        assert_eq!(
            p.pushdown.predicate,
            Some(Predicate::Ge("index".into(), Value::Float(100.0))),
        );
        assert!(p.residual_where.is_some());
        assert!(!p.fully_pushed());
    }

    #[test]
    fn or_pushes_only_when_both_sides_do() {
        let p = plan("SELECT vid FROM t WHERE city LIKE 'Paris' OR state IN ('FRA')");
        assert!(p.fully_pushed());
        assert!(matches!(p.pushdown.predicate, Some(Predicate::Or(_, _))));
        let p = plan(
            "SELECT vid FROM t WHERE city LIKE 'Paris' OR SUBSTRING(date,0,4) = '2015'",
        );
        assert_eq!(p.pushed_conjuncts, 0);
        assert_eq!(p.residual_conjuncts, 1);
    }

    #[test]
    fn not_and_negations_stay_residual() {
        for sql in [
            "SELECT vid FROM t WHERE NOT city LIKE 'Paris'",
            "SELECT vid FROM t WHERE city NOT LIKE 'Paris'",
            "SELECT vid FROM t WHERE state NOT IN ('FRA')",
            "SELECT vid FROM t WHERE index + 1 > 2",
            "SELECT vid FROM t WHERE index = NULL",
        ] {
            let p = plan(sql);
            assert_eq!(p.pushed_conjuncts, 0, "{sql}");
            assert_eq!(p.residual_conjuncts, 1, "{sql}");
        }
    }

    #[test]
    fn null_tests_push() {
        let p = plan("SELECT vid FROM t WHERE index IS NULL AND lat IS NOT NULL");
        assert!(p.fully_pushed());
        assert_eq!(p.pushed_conjuncts, 2);
    }

    #[test]
    fn pushes_only_where_raw_and_typed_semantics_agree() {
        let schema = Schema::new(vec![
            Field::new("vid", DataType::Str),
            Field::new("index", DataType::Float),
            Field::new("n", DataType::Int),
        ]);
        let pushed = |sql: &str| {
            let p = plan_query(&parse(sql).unwrap(), &schema, true).unwrap();
            assert_eq!(p.pushed_conjuncts + p.residual_conjuncts, 1, "{sql}");
            p.pushed_conjuncts == 1
        };
        for sql in [
            "SELECT vid FROM t WHERE vid = 'm1'",
            "SELECT vid FROM t WHERE vid >= 'm1'",
            "SELECT vid FROM t WHERE vid LIKE 'm_%'",
            "SELECT vid FROM t WHERE vid IN ('m1', 'm2')",
            "SELECT vid FROM t WHERE index > 2",
            "SELECT vid FROM t WHERE 2.5 <> index",
            "SELECT vid FROM t WHERE index IN (1, 2.5)",
            "SELECT vid FROM t WHERE n IS NULL",
            "SELECT vid FROM t WHERE index IS NOT NULL OR vid = 'm1'",
        ] {
            assert!(pushed(sql), "{sql} should push");
        }
        for sql in [
            // The store would compare the spelling; SQL the parsed number.
            "SELECT vid FROM t WHERE index = '2.5'",
            "SELECT vid FROM t WHERE index LIKE '2.5'",
            "SELECT vid FROM t WHERE index LIKE '1000%'",
            "SELECT vid FROM t WHERE index IN (2.5, '2.5')",
            // SQL never orders a string field against a number.
            "SELECT vid FROM t WHERE vid = 5",
            "SELECT vid FROM t WHERE vid IN ('m1', 5)",
            // An Int column holds `2.5` as a string; the store parses it.
            "SELECT vid FROM t WHERE n > 2",
            "SELECT vid FROM t WHERE n IN (1, 2)",
            "SELECT vid FROM t WHERE n LIKE '1%'",
            "SELECT vid FROM t WHERE vid = 'm1' OR index = '2.5'",
        ] {
            assert!(!pushed(sql), "{sql} should stay residual");
        }
    }

    #[test]
    fn select_star_disables_pruning() {
        let p = plan("SELECT * FROM t WHERE state LIKE 'FRA'");
        assert_eq!(p.pushdown.columns, None);
        assert_eq!(p.scan_schema.len(), 6);
    }

    #[test]
    fn all_columns_referenced_disables_pruning() {
        let p = plan("SELECT vid, date, index, city, state, lat FROM t");
        assert_eq!(p.pushdown.columns, None);
    }

    #[test]
    fn count_star_scans_one_column() {
        let p = plan("SELECT count(*) FROM t");
        assert_eq!(p.pushdown.columns, Some(vec!["vid".into()]));
        assert_eq!(p.scan_schema.len(), 1);
    }

    #[test]
    fn unknown_column_is_an_error() {
        let q = parse("SELECT ghost FROM t").unwrap();
        assert!(plan_query(&q, &schema(), true).is_err());
    }

    #[test]
    fn in_list_pushes_literals_only() {
        let p = plan("SELECT vid FROM t WHERE state IN ('FRA', 'NLD')");
        assert!(p.fully_pushed());
        let p = plan("SELECT vid FROM t WHERE state IN ('FRA', vid)");
        assert_eq!(p.pushed_conjuncts, 0);
    }

    #[test]
    fn conjunctions_past_the_header_depth_stay_residual() {
        let ors: Vec<String> = (0..200).map(|i| format!("vid = 'm{i}'")).collect();
        let p = plan(&format!("SELECT vid FROM t WHERE {}", ors.join(" OR ")));
        assert_eq!((p.pushed_conjuncts, p.residual_conjuncts), (0, 1));
        let ands: Vec<String> = (0..200).map(|i| format!("vid <> 'm{i}'")).collect();
        let p = plan(&format!("SELECT vid FROM t WHERE {}", ands.join(" AND ")));
        let depth = p.pushdown.predicate.as_ref().map_or(0, Predicate::depth);
        assert_eq!(depth, MAX_PREDICATE_DEPTH);
        assert_eq!((p.pushed_conjuncts, p.residual_conjuncts), (MAX_PREDICATE_DEPTH, 200 - MAX_PREDICATE_DEPTH));
    }
}
