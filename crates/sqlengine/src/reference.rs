//! The executor this crate shipped before expressions were bound: a
//! tree-walking interpreter that resolves every column by name for every row
//! and, for aggregates, rebuilds the output expressions per group.
//!
//! Test-only. It is the reference the differential tests in
//! [`crate::differential`] hold the bound evaluator ([`crate::bound`],
//! [`crate::exec`]) to, kept as it was with two exceptions: integer `%` uses
//! `wrapping_rem` (`i64::MIN % -1` panicked), and `SUBSTRING` carries its own
//! character walk, since [`crate::functions::eval_scalar`] now shares its
//! implementation with the bound evaluator.

use crate::ast::{BinOp, Expr, Query, SelectItem};
use crate::exec::ResultSet;
use crate::functions::AggState;
use scoop_common::{Result, ScoopError};
use scoop_csv::pushdown::like_match;
use scoop_csv::{Schema, Value};
use std::cmp::Ordering;
use std::collections::HashMap;

/// `eval_scalar` as it was: `SUBSTRING` collects a `Vec<char>`.
fn eval_scalar(name: &str, args: &[Value]) -> Result<Value> {
    if !matches!(name, "substring" | "substr") || args.len() != 3 {
        return crate::functions::eval_scalar(name, args);
    }
    let (s, start, len) = (&args[0], &args[1], &args[2]);
    if s.is_null() || start.is_null() || len.is_null() {
        return Ok(Value::Null);
    }
    let text = s.as_str().map_or_else(|| s.to_string(), str::to_string);
    let start = start
        .as_f64()
        .ok_or_else(|| ScoopError::Sql("substring start must be numeric".into()))?
        as i64;
    let len = len
        .as_f64()
        .ok_or_else(|| ScoopError::Sql("substring length must be numeric".into()))?
        as i64;
    let chars: Vec<char> = text.chars().collect();
    let n = chars.len() as i64;
    let begin = if start > 0 {
        start - 1
    } else if start == 0 {
        0
    } else {
        (n + start).max(0)
    };
    let begin = begin.clamp(0, n) as usize;
    let take = len.max(0) as usize;
    Ok(Value::Str(chars[begin..].iter().take(take).collect::<String>()))
}

// ---------------------------------------------------------------------------
// Expression evaluation
// ---------------------------------------------------------------------------

/// Evaluate a scalar expression against a row. Aggregate nodes are an error
/// here; aggregated queries substitute them before calling.
pub fn eval(expr: &Expr, row: &[Value], schema: &Schema) -> Result<Value> {
    match expr {
        Expr::Column(name) => {
            let idx = schema.resolve(name)?;
            Ok(row.get(idx).cloned().unwrap_or(Value::Null))
        }
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Star => Err(ScoopError::Sql("'*' outside COUNT(*)".into())),
        Expr::Agg { .. } => Err(ScoopError::Sql(
            "aggregate used outside aggregation context".into(),
        )),
        Expr::Func { name, args } => {
            let vals: Vec<Value> = args
                .iter()
                .map(|a| eval(a, row, schema))
                .collect::<Result<_>>()?;
            eval_scalar(name, &vals)
        }
        Expr::Binary { op, left, right } => match op {
            BinOp::And | BinOp::Or => Ok(tri_to_value(eval_pred(expr, row, schema)?)),
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                Ok(tri_to_value(eval_pred(expr, row, schema)?))
            }
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
                let l = eval(left, row, schema)?;
                let r = eval(right, row, schema)?;
                Ok(arith(*op, &l, &r))
            }
        },
        Expr::Not(_) | Expr::Like { .. } | Expr::InList { .. } | Expr::IsNull { .. } => {
            Ok(tri_to_value(eval_pred(expr, row, schema)?))
        }
    }
}

fn tri_to_value(t: Option<bool>) -> Value {
    match t {
        None => Value::Null,
        Some(true) => Value::Int(1),
        Some(false) => Value::Int(0),
    }
}

/// Arithmetic with SQL NULL propagation; non-numeric operands yield NULL
/// (matching Spark's permissive casts on semi-structured data).
fn arith(op: BinOp, l: &Value, r: &Value) -> Value {
    let (Some(a), Some(b)) = (l.as_f64(), r.as_f64()) else {
        return Value::Null;
    };
    let both_int = matches!(l, Value::Int(_)) && matches!(r, Value::Int(_));
    match op {
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Mod if both_int => {
            let (x, y) = (a as i64, b as i64);
            match op {
                BinOp::Add => Value::Int(x.wrapping_add(y)),
                BinOp::Sub => Value::Int(x.wrapping_sub(y)),
                BinOp::Mul => Value::Int(x.wrapping_mul(y)),
                BinOp::Mod => {
                    if y == 0 {
                        Value::Null
                    } else {
                        Value::Int(x.wrapping_rem(y))
                    }
                }
                _ => unreachable!(),
            }
        }
        BinOp::Add => Value::Float(a + b),
        BinOp::Sub => Value::Float(a - b),
        BinOp::Mul => Value::Float(a * b),
        BinOp::Div => {
            if b == 0.0 {
                Value::Null
            } else {
                Value::Float(a / b)
            }
        }
        BinOp::Mod => {
            if b == 0.0 {
                Value::Null
            } else {
                Value::Float(a % b)
            }
        }
        _ => unreachable!("arith called with comparison op"),
    }
}

/// Three-valued predicate evaluation (Kleene logic for AND/OR/NOT).
pub fn eval_pred(expr: &Expr, row: &[Value], schema: &Schema) -> Result<Option<bool>> {
    match expr {
        Expr::Binary { op: BinOp::And, left, right } => {
            let l = eval_pred(left, row, schema)?;
            let r = eval_pred(right, row, schema)?;
            Ok(match (l, r) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            })
        }
        Expr::Binary { op: BinOp::Or, left, right } => {
            let l = eval_pred(left, row, schema)?;
            let r = eval_pred(right, row, schema)?;
            Ok(match (l, r) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            })
        }
        Expr::Not(inner) => Ok(eval_pred(inner, row, schema)?.map(|b| !b)),
        Expr::Binary {
            op: op @ (BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge),
            left,
            right,
        } => {
            let l = eval(left, row, schema)?;
            let r = eval(right, row, schema)?;
            Ok(l.sql_cmp(&r).map(|ord| match op {
                BinOp::Eq => ord == Ordering::Equal,
                BinOp::Ne => ord != Ordering::Equal,
                BinOp::Lt => ord == Ordering::Less,
                BinOp::Le => ord != Ordering::Greater,
                BinOp::Gt => ord == Ordering::Greater,
                BinOp::Ge => ord != Ordering::Less,
                _ => unreachable!(),
            }))
        }
        Expr::Like { expr, pattern, negated } => {
            let v = eval(expr, row, schema)?;
            Ok(match v {
                Value::Null => None,
                other => {
                    let text = match &other {
                        Value::Str(s) => s.clone(),
                        v => v.to_string(),
                    };
                    Some(like_match(pattern, &text) != *negated)
                }
            })
        }
        Expr::InList { expr, list, negated } => {
            let v = eval(expr, row, schema)?;
            if v.is_null() {
                return Ok(None);
            }
            let mut saw_null = false;
            for item in list {
                let candidate = eval(item, row, schema)?;
                if candidate.is_null() {
                    saw_null = true;
                } else if v.sql_eq(&candidate) {
                    return Ok(Some(!negated));
                }
            }
            Ok(if saw_null { None } else { Some(*negated) })
        }
        Expr::IsNull { expr, negated } => {
            let v = eval(expr, row, schema)?;
            Ok(Some(v.is_null() != *negated))
        }
        other => {
            // Fallback: numeric truthiness of the evaluated value.
            let v = eval(other, row, schema)?;
            Ok(match v {
                Value::Null => None,
                v => v.as_f64().map(|f| f != 0.0),
            })
        }
    }
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

/// Per-group accumulated state.
#[derive(Debug, Clone)]
pub struct GroupState {
    /// One accumulator per collected aggregate call.
    pub states: Vec<AggState>,
    /// First row of the group — evaluates non-aggregate expressions
    /// (functionally dependent on the key in well-formed queries).
    pub rep_row: Vec<Value>,
}

/// Partial aggregation result (one worker's contribution).
#[derive(Debug, Clone, Default)]
pub struct PartialAgg {
    /// group key → state.
    pub groups: HashMap<Vec<Value>, GroupState>,
    /// Rows folded in (for accounting).
    pub rows_seen: u64,
}

/// Drives grouping + two-phase aggregation for one query.
pub struct Aggregator {
    query: Query,
    schema: Schema,
    /// Deduplicated aggregate calls appearing anywhere in the output/order.
    agg_calls: Vec<Expr>,
}

impl Aggregator {
    /// Prepare for a query (must be an aggregate query).
    pub fn new(query: &Query, schema: &Schema) -> Result<Aggregator> {
        if !query.is_aggregate() {
            return Err(ScoopError::Sql("query does not aggregate".into()));
        }
        if query.items.iter().any(|i| matches!(i.expr, Expr::Star)) {
            return Err(ScoopError::Sql("SELECT * cannot be aggregated".into()));
        }
        let mut agg_calls = Vec::new();
        for item in &query.items {
            collect_agg_calls(&item.expr, &mut agg_calls);
        }
        if let Some(h) = &query.having {
            collect_agg_calls(h, &mut agg_calls);
        }
        for o in &query.order_by {
            collect_agg_calls(&o.expr, &mut agg_calls);
        }
        Ok(Aggregator { query: query.clone(), schema: schema.clone(), agg_calls })
    }

    /// Fresh empty partial.
    pub fn make_partial(&self) -> PartialAgg {
        PartialAgg::default()
    }

    /// Fold one (already WHERE-filtered) row into a partial.
    pub fn update(&self, partial: &mut PartialAgg, row: &[Value]) -> Result<()> {
        partial.rows_seen += 1;
        let key: Vec<Value> = self
            .query
            .group_by
            .iter()
            .map(|g| eval(g, row, &self.schema))
            .collect::<Result<_>>()?;
        let entry = partial.groups.entry(key).or_insert_with(|| GroupState {
            states: self
                .agg_calls
                .iter()
                .map(|c| match c {
                    Expr::Agg { func, .. } => AggState::new(*func),
                    _ => unreachable!("agg_calls holds Agg nodes"),
                })
                .collect(),
            rep_row: row.to_vec(),
        });
        for (call, state) in self.agg_calls.iter().zip(entry.states.iter_mut()) {
            let Expr::Agg { arg, .. } = call else { unreachable!() };
            let v = match arg {
                None => Value::Int(1), // COUNT(*)
                Some(a) => eval(a, row, &self.schema)?,
            };
            state.update(&v);
        }
        Ok(())
    }

    /// Finalize: evaluate output expressions per group, sort, limit.
    pub fn finalize(&self, mut partial: PartialAgg) -> Result<ResultSet> {
        let columns: Vec<String> =
            self.query.items.iter().map(SelectItem::output_name).collect();
        // SQL: a global aggregate (no GROUP BY) over zero rows still yields
        // one row — COUNT is 0, the other aggregates NULL.
        if self.query.group_by.is_empty() && partial.groups.is_empty() {
            partial.groups.insert(
                Vec::new(),
                GroupState {
                    states: self
                        .agg_calls
                        .iter()
                        .map(|c| match c {
                            Expr::Agg { func, .. } => AggState::new(*func),
                            _ => unreachable!("agg_calls holds Agg nodes"),
                        })
                        .collect(),
                    rep_row: Vec::new(),
                },
            );
        }
        let mut keyed_rows: Vec<(Vec<Value>, Vec<Value>)> =
            Vec::with_capacity(partial.groups.len());
        for state in partial.groups.into_values() {
            let agg_values: Vec<Value> =
                state.states.iter().map(AggState::finish).collect();
            let out_row: Vec<Value> = self
                .query
                .items
                .iter()
                .map(|item| {
                    eval_with_aggs(
                        &item.expr,
                        &self.agg_calls,
                        &agg_values,
                        &state.rep_row,
                        &self.schema,
                    )
                })
                .collect::<Result<_>>()?;
            // HAVING: post-aggregation filter, evaluated with aggregates
            // substituted (truthy = keep).
            if let Some(h) = &self.query.having {
                let v = eval_with_aggs(h, &self.agg_calls, &agg_values, &state.rep_row, &self.schema)?;
                let keep = matches!(v.as_f64(), Some(f) if f != 0.0);
                if !keep {
                    continue;
                }
            }
            let sort_key: Vec<Value> = self
                .query
                .order_by
                .iter()
                .map(|o| {
                    self.order_value(&o.expr, &out_row, &state.rep_row, &agg_values)
                })
                .collect::<Result<_>>()?;
            keyed_rows.push((sort_key, out_row));
        }
        if self.query.distinct {
            dedup_rows(&mut keyed_rows);
        }
        sort_and_trim(&mut keyed_rows, &self.query);
        Ok(ResultSet { columns, rows: keyed_rows.into_iter().map(|(_, r)| r).collect() })
    }

    /// Resolve an ORDER BY expression for an aggregated query: alias or
    /// identical select expression first, else evaluate on the group's
    /// representative row (with aggregates substituted).
    fn order_value(
        &self,
        expr: &Expr,
        out_row: &[Value],
        rep_row: &[Value],
        agg_values: &[Value],
    ) -> Result<Value> {
        if let Expr::Column(name) = expr {
            if let Some(i) = self
                .query
                .items
                .iter()
                .position(|it| it.alias.as_deref() == Some(name.as_str()))
            {
                return Ok(out_row[i].clone());
            }
        }
        if let Some(i) = self.query.items.iter().position(|it| &it.expr == expr) {
            return Ok(out_row[i].clone());
        }
        eval_with_aggs(expr, &self.agg_calls, agg_values, rep_row, &self.schema)
    }
}

fn collect_agg_calls(expr: &Expr, out: &mut Vec<Expr>) {
    match expr {
        Expr::Agg { .. } => {
            if !out.contains(expr) {
                out.push(expr.clone());
            }
        }
        Expr::Binary { left, right, .. } => {
            collect_agg_calls(left, out);
            collect_agg_calls(right, out);
        }
        Expr::Not(e) | Expr::Like { expr: e, .. } | Expr::IsNull { expr: e, .. } => {
            collect_agg_calls(e, out)
        }
        Expr::InList { expr: e, list, .. } => {
            collect_agg_calls(e, out);
            for i in list {
                collect_agg_calls(i, out);
            }
        }
        Expr::Func { args, .. } => {
            for a in args {
                collect_agg_calls(a, out);
            }
        }
        Expr::Column(_) | Expr::Literal(_) | Expr::Star => {}
    }
}

/// Evaluate an expression substituting aggregate calls with finished values.
fn eval_with_aggs(
    expr: &Expr,
    agg_calls: &[Expr],
    agg_values: &[Value],
    rep_row: &[Value],
    schema: &Schema,
) -> Result<Value> {
    if let Some(i) = agg_calls.iter().position(|c| c == expr) {
        return Ok(agg_values[i].clone());
    }
    match expr {
        Expr::Binary { op, left, right } => {
            let substituted = Expr::Binary {
                op: *op,
                left: Box::new(substitute(left, agg_calls, agg_values)),
                right: Box::new(substitute(right, agg_calls, agg_values)),
            };
            eval(&substituted, rep_row, schema)
        }
        Expr::Func { name, args } => {
            let vals: Vec<Value> = args
                .iter()
                .map(|a| eval_with_aggs(a, agg_calls, agg_values, rep_row, schema))
                .collect::<Result<_>>()?;
            eval_scalar(name, &vals)
        }
        other => eval(other, rep_row, schema),
    }
}

/// Replace aggregate sub-expressions with literal finished values.
fn substitute(expr: &Expr, agg_calls: &[Expr], agg_values: &[Value]) -> Expr {
    if let Some(i) = agg_calls.iter().position(|c| c == expr) {
        return Expr::Literal(agg_values[i].clone());
    }
    match expr {
        Expr::Binary { op, left, right } => Expr::Binary {
            op: *op,
            left: Box::new(substitute(left, agg_calls, agg_values)),
            right: Box::new(substitute(right, agg_calls, agg_values)),
        },
        Expr::Func { name, args } => Expr::Func {
            name: name.clone(),
            args: args.iter().map(|a| substitute(a, agg_calls, agg_values)).collect(),
        },
        other => other.clone(),
    }
}

fn sort_and_trim(keyed_rows: &mut Vec<(Vec<Value>, Vec<Value>)>, query: &Query) {
    if !query.order_by.is_empty() {
        let descs: Vec<bool> = query.order_by.iter().map(|o| o.desc).collect();
        keyed_rows.sort_by(|(a, _), (b, _)| {
            for ((x, y), desc) in a.iter().zip(b.iter()).zip(&descs) {
                let ord = x.total_cmp(y);
                let ord = if *desc { ord.reverse() } else { ord };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        });
    }
    if let Some(n) = query.limit {
        keyed_rows.truncate(n);
    }
}

// ---------------------------------------------------------------------------
// Whole-query execution
// ---------------------------------------------------------------------------

/// Execute with an overridden WHERE (the *residual* predicate in pushdown
/// mode, where the store already applied the pushed conjuncts).
pub fn execute_with_where(
    query: &Query,
    schema: &Schema,
    where_clause: Option<&Expr>,
    rows: impl Iterator<Item = Result<Vec<Value>>>,
) -> Result<ResultSet> {
    if query.is_aggregate() {
        let agg = Aggregator::new(query, schema)?;
        let mut partial = agg.make_partial();
        for row in rows {
            let row = row?;
            if passes(where_clause, &row, schema)? {
                agg.update(&mut partial, &row)?;
            }
        }
        return agg.finalize(partial);
    }
    // Non-aggregate path.
    let has_star = query.items.iter().any(|i| matches!(i.expr, Expr::Star));
    let columns: Vec<String> = if has_star {
        schema.names().iter().map(|s| s.to_string()).collect()
    } else {
        query.items.iter().map(SelectItem::output_name).collect()
    };
    let mut keyed_rows: Vec<(Vec<Value>, Vec<Value>)> = Vec::new();
    for row in rows {
        let row = row?;
        if !passes(where_clause, &row, schema)? {
            continue;
        }
        let out_row: Vec<Value> = if has_star {
            row.clone()
        } else {
            query
                .items
                .iter()
                .map(|i| eval(&i.expr, &row, schema))
                .collect::<Result<_>>()?
        };
        let sort_key: Vec<Value> = query
            .order_by
            .iter()
            .map(|o| order_value_plain(query, &o.expr, &out_row, &row, schema))
            .collect::<Result<_>>()?;
        keyed_rows.push((sort_key, out_row));
    }
    if query.distinct {
        dedup_rows(&mut keyed_rows);
    }
    sort_and_trim(&mut keyed_rows, query);
    Ok(ResultSet { columns, rows: keyed_rows.into_iter().map(|(_, r)| r).collect() })
}

/// SELECT DISTINCT: keep the first occurrence of each output row.
fn dedup_rows(keyed_rows: &mut Vec<(Vec<Value>, Vec<Value>)>) {
    let mut seen: std::collections::HashSet<Vec<Value>> = std::collections::HashSet::new();
    keyed_rows.retain(|(_, row)| seen.insert(row.clone()));
}

fn order_value_plain(
    query: &Query,
    expr: &Expr,
    out_row: &[Value],
    row: &[Value],
    schema: &Schema,
) -> Result<Value> {
    if let Expr::Column(name) = expr {
        if let Some(i) = query
            .items
            .iter()
            .position(|it| it.alias.as_deref() == Some(name.as_str()))
        {
            return Ok(out_row[i].clone());
        }
    }
    eval(expr, row, schema)
}

fn passes(where_clause: Option<&Expr>, row: &[Value], schema: &Schema) -> Result<bool> {
    match where_clause {
        None => Ok(true),
        Some(w) => Ok(eval_pred(w, row, schema)? == Some(true)),
    }
}

