//! Bound expressions: an [`Expr`] resolved once against the scan schema, so
//! evaluating a row does no interpretation bookkeeping.
//!
//! Binding decides, once per query, everything that does not depend on the
//! row: column names become indices, `LIKE` patterns are classified
//! ([`LikePattern`]), `SUBSTRING` with literal bounds has them parsed,
//! comparison and arithmetic operators become their own node kinds, and — in
//! the output expressions of an aggregated query — each `GROUP BY`
//! expression and each aggregate call becomes a reference to a slot of the
//! group: its key part, or its accumulator's result. What a query can get
//! wrong by itself (an unknown column, `*` outside `COUNT(*)`, an aggregate
//! where none may stand) is therefore reported by `bind`, before the first
//! row.
//!
//! Evaluation borrows: a column or literal comes back as `Cow::Borrowed`
//! from the row or the node, and only computed values are owned. A row
//! shorter than the schema reads as NULL beyond its end.
//!
//! NULL handling is SQL three-valued logic (Kleene AND/OR/NOT), arranged to
//! agree exactly with the raw-field evaluation in `scoop_csv::filter` so
//! pushdown is transparent; comparisons coerce through [`Value::sql_cmp`].

use crate::ast::{AggFunc, BinOp, Expr};
use crate::functions::{eval_scalar, substring_of, text_of};
use scoop_common::{Result, ScoopError};
use scoop_csv::predicate::CmpOp;
use scoop_csv::pushdown::LikePattern;
use scoop_csv::batch::Selection;
use scoop_csv::{ColumnBatch, Schema, Value};
use std::borrow::Cow;

/// What an absent column reads as.
static NULL: Value = Value::Null;

/// `+ - * / %`
#[derive(Debug, Clone, Copy)]
pub(crate) enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

/// An expression bound to a schema.
#[derive(Debug, Clone)]
pub(crate) enum Bound {
    /// Column by index into the row.
    Col(usize),
    Lit(Value),
    /// One of a group's values: its key parts in `GROUP BY` order, then its
    /// finished aggregates in [`AggCalls`] order.
    Slot(usize),
    Arith(ArithOp, Box<Bound>, Box<Bound>),
    Cmp(CmpOp, Box<Bound>, Box<Bound>),
    And(Box<Bound>, Box<Bound>),
    Or(Box<Bound>, Box<Bound>),
    Not(Box<Bound>),
    Like {
        expr: Box<Bound>,
        pattern: LikePattern,
        negated: bool,
    },
    InList {
        expr: Box<Bound>,
        list: Vec<Bound>,
        negated: bool,
    },
    IsNull {
        expr: Box<Bound>,
        negated: bool,
    },
    /// `SUBSTRING(text, start, len)` with literal numeric bounds.
    Substr {
        text: Box<Bound>,
        start: i64,
        len: i64,
    },
    Func {
        name: String,
        args: Vec<Bound>,
    },
}

/// A group's slots: the `GROUP BY` expressions, then the distinct aggregate
/// calls of a query. Binding an output expression turns a `GROUP BY`
/// expression into its key's slot and adds the calls it finds; their
/// arguments are bound per row.
#[derive(Debug, Default)]
pub(crate) struct AggCalls {
    /// The `GROUP BY` expressions as written: slots `0..keys.len()`.
    pub keys: Vec<Expr>,
    /// The calls as written, to recognise a repeat (bind time only).
    seen: Vec<Expr>,
    /// Function and bound argument (`None` for `COUNT(*)`) of each slot.
    pub calls: Vec<(AggFunc, Option<Bound>)>,
}

/// Bind a per-row expression: an aggregate call is an error here.
pub(crate) fn bind(expr: &Expr, schema: &Schema) -> Result<Bound> {
    bind_in(expr, schema, None)
}

/// Bind an output expression of an aggregated query (select item, `HAVING`,
/// `ORDER BY`): a `GROUP BY` expression and an aggregate call become
/// [`Bound::Slot`]s into `aggs`, wherever they stand.
pub(crate) fn bind_output(expr: &Expr, schema: &Schema, aggs: &mut AggCalls) -> Result<Bound> {
    bind_in(expr, schema, Some(aggs))
}

fn bind_in(expr: &Expr, schema: &Schema, mut aggs: Option<&mut AggCalls>) -> Result<Bound> {
    if let Some(key) = aggs.as_ref().and_then(|aggs| aggs.keys.iter().position(|k| k == expr)) {
        return Ok(Bound::Slot(key));
    }
    let mut sub = |e: &Expr| bind_in(e, schema, aggs.as_deref_mut());
    Ok(match expr {
        Expr::Column(name) => Bound::Col(schema.resolve(name)?),
        Expr::Literal(v) => Bound::Lit(v.clone()),
        Expr::Star => return Err(ScoopError::Sql("'*' outside COUNT(*)".into())),
        Expr::Agg { func, arg } => {
            let Some(aggs) = aggs else {
                return Err(ScoopError::Sql("aggregate used outside aggregation context".into()));
            };
            let call = match aggs.seen.iter().position(|c| c == expr) {
                Some(call) => call,
                None => {
                    let arg = arg.as_deref().map(|a| bind(a, schema)).transpose()?;
                    aggs.seen.push(expr.clone());
                    aggs.calls.push((*func, arg));
                    aggs.calls.len() - 1
                }
            };
            Bound::Slot(aggs.keys.len() + call)
        }
        Expr::Binary { op, left, right } => {
            let (l, r) = (Box::new(sub(left)?), Box::new(sub(right)?));
            match op {
                BinOp::And => Bound::And(l, r),
                BinOp::Or => Bound::Or(l, r),
                BinOp::Eq => Bound::Cmp(CmpOp::Eq, l, r),
                BinOp::Ne => Bound::Cmp(CmpOp::Ne, l, r),
                BinOp::Lt => Bound::Cmp(CmpOp::Lt, l, r),
                BinOp::Le => Bound::Cmp(CmpOp::Le, l, r),
                BinOp::Gt => Bound::Cmp(CmpOp::Gt, l, r),
                BinOp::Ge => Bound::Cmp(CmpOp::Ge, l, r),
                BinOp::Add => Bound::Arith(ArithOp::Add, l, r),
                BinOp::Sub => Bound::Arith(ArithOp::Sub, l, r),
                BinOp::Mul => Bound::Arith(ArithOp::Mul, l, r),
                BinOp::Div => Bound::Arith(ArithOp::Div, l, r),
                BinOp::Mod => Bound::Arith(ArithOp::Mod, l, r),
            }
        }
        Expr::Not(e) => Bound::Not(Box::new(sub(e)?)),
        Expr::Like { expr, pattern, negated } => Bound::Like {
            expr: Box::new(sub(expr)?),
            pattern: LikePattern::new(pattern),
            negated: *negated,
        },
        Expr::InList { expr, list, negated } => Bound::InList {
            expr: Box::new(sub(expr)?),
            list: list.iter().map(&mut sub).collect::<Result<_>>()?,
            negated: *negated,
        },
        Expr::IsNull { expr, negated } => {
            Bound::IsNull { expr: Box::new(sub(expr)?), negated: *negated }
        }
        Expr::Func { name, args } => {
            let literal_bound = |e: &Expr| match e {
                Expr::Literal(v) => v.as_f64().map(|f| f as i64),
                _ => None,
            };
            if let ("substring" | "substr", [text, start, len]) = (name.as_str(), args.as_slice()) {
                if let (Some(start), Some(len)) = (literal_bound(start), literal_bound(len)) {
                    return Ok(Bound::Substr { text: Box::new(sub(text)?), start, len });
                }
            }
            Bound::Func {
                name: name.clone(),
                args: args.iter().map(&mut sub).collect::<Result<_>>()?,
            }
        }
    })
}

fn tri_to_value(t: Option<bool>) -> Value {
    match t {
        None => Value::Null,
        Some(true) => Value::Int(1),
        Some(false) => Value::Int(0),
    }
}

/// Arithmetic with SQL NULL propagation; non-numeric operands yield NULL
/// (matching Spark's permissive casts on semi-structured data). Two integers
/// stay integral except under `/`.
fn arith(op: ArithOp, l: &Value, r: &Value) -> Value {
    let (Some(a), Some(b)) = (l.as_f64(), r.as_f64()) else {
        return Value::Null;
    };
    if matches!((l, r), (Value::Int(_), Value::Int(_))) {
        let (x, y) = (a as i64, b as i64);
        match op {
            ArithOp::Add => return Value::Int(x.wrapping_add(y)),
            ArithOp::Sub => return Value::Int(x.wrapping_sub(y)),
            ArithOp::Mul => return Value::Int(x.wrapping_mul(y)),
            ArithOp::Mod if y == 0 => return Value::Null,
            ArithOp::Mod => return Value::Int(x.wrapping_rem(y)),
            ArithOp::Div => {}
        }
    }
    match op {
        ArithOp::Add => Value::Float(a + b),
        ArithOp::Sub => Value::Float(a - b),
        ArithOp::Mul => Value::Float(a * b),
        ArithOp::Div | ArithOp::Mod if b == 0.0 => Value::Null,
        ArithOp::Div => Value::Float(a / b),
        ArithOp::Mod => Value::Float(a % b),
    }
}

impl Bound {
    /// The expression's value on `row`. `slots` holds the group's key parts
    /// and finished aggregates when this is an output expression, and is
    /// empty otherwise.
    ///
    /// Inlined into its callers so that a column or literal operand — most
    /// operands — is a borrow in a register, not a call.
    #[inline]
    pub(crate) fn eval<'a>(
        &'a self,
        row: &'a [Value],
        slots: &'a [Value],
    ) -> Result<Cow<'a, Value>> {
        match self {
            Bound::Col(i) => Ok(Cow::Borrowed(row.get(*i).unwrap_or(&NULL))),
            Bound::Lit(v) => Ok(Cow::Borrowed(v)),
            Bound::Slot(i) => Ok(Cow::Borrowed(slots.get(*i).unwrap_or(&NULL))),
            computed => computed.compute(row, slots).map(Cow::Owned),
        }
    }

    fn compute(&self, row: &[Value], slots: &[Value]) -> Result<Value> {
        Ok(match self {
            Bound::Col(_) | Bound::Lit(_) | Bound::Slot(_) => self.eval(row, slots)?.into_owned(),
            Bound::Arith(op, l, r) => arith(*op, &*l.eval(row, slots)?, &*r.eval(row, slots)?),
            Bound::Substr { text, start, len } => substring_of(&*text.eval(row, slots)?, *start, *len),
            Bound::Func { name, args } => {
                let vals: Vec<Value> = args
                    .iter()
                    .map(|a| a.eval(row, slots).map(Cow::into_owned))
                    .collect::<Result<_>>()?;
                eval_scalar(name, &vals)?
            }
            Bound::Cmp(..)
            | Bound::And(..)
            | Bound::Or(..)
            | Bound::Not(_)
            | Bound::Like { .. }
            | Bound::InList { .. }
            | Bound::IsNull { .. } => tri_to_value(self.test(row, slots)?),
        })
    }

    /// Call `f` on each leaf of the expression (a column, literal or slot),
    /// left to right.
    pub(crate) fn leaves(&self, f: &mut impl FnMut(&Bound)) {
        match self {
            Bound::Col(_) | Bound::Lit(_) | Bound::Slot(_) => f(self),
            Bound::Arith(_, l, r) | Bound::Cmp(_, l, r) | Bound::And(l, r) | Bound::Or(l, r) => {
                l.leaves(f);
                r.leaves(f);
            }
            Bound::Not(e)
            | Bound::Like { expr: e, .. }
            | Bound::IsNull { expr: e, .. }
            | Bound::Substr { text: e, .. } => e.leaves(f),
            Bound::InList { expr, list, .. } => {
                std::iter::once(&**expr).chain(list).for_each(|e| e.leaves(f))
            }
            Bound::Func { args, .. } => args.iter().for_each(|e| e.leaves(f)),
        }
    }

    /// Three-valued predicate evaluation (Kleene logic for AND/OR/NOT).
    pub(crate) fn test(&self, row: &[Value], slots: &[Value]) -> Result<Option<bool>> {
        Ok(match self {
            Bound::And(l, r) => match (l.test(row, slots)?, r.test(row, slots)?) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            },
            Bound::Or(l, r) => match (l.test(row, slots)?, r.test(row, slots)?) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            },
            Bound::Not(inner) => inner.test(row, slots)?.map(|b| !b),
            Bound::Cmp(op, l, r) => {
                let (l, r) = (l.eval(row, slots)?, r.eval(row, slots)?);
                l.sql_cmp(&r).map(|ord| op.holds(ord))
            }
            Bound::Like { expr, pattern, negated } => match &*expr.eval(row, slots)? {
                Value::Null => None,
                v => Some(pattern.matches(&text_of(v)) != *negated),
            },
            Bound::InList { expr, list, negated } => {
                let v = expr.eval(row, slots)?;
                if v.is_null() {
                    return Ok(None);
                }
                let mut saw_null = false;
                for item in list {
                    let candidate = item.eval(row, slots)?;
                    if candidate.is_null() {
                        saw_null = true;
                    } else if v.sql_eq(&candidate) {
                        return Ok(Some(!negated));
                    }
                }
                if saw_null {
                    None
                } else {
                    Some(*negated)
                }
            }
            Bound::IsNull { expr, negated } => Some(expr.eval(row, slots)?.is_null() != *negated),
            // Any other value: numeric truthiness.
            other => match &*other.eval(row, slots)? {
                Value::Null => None,
                v => v.as_f64().map(|f| f != 0.0),
            },
        })
    }
}

/// The columns `exprs` read, ascending, once each.
pub(crate) fn columns_of<'a>(exprs: impl IntoIterator<Item = &'a Bound>) -> Vec<usize> {
    let mut columns = Vec::new();
    exprs.into_iter().for_each(|e| {
        e.leaves(&mut |leaf| {
            if let Bound::Col(i) = leaf {
                columns.push(*i)
            }
        })
    });
    columns.sort_unstable();
    columns.dedup();
    columns
}

/// A WHERE clause bound to the scan schema. No clause keeps every row.
#[derive(Debug, Clone)]
pub struct RowFilter {
    clause: Option<Bound>,
    /// The columns the clause reads: all a row view needs to hold.
    columns: Vec<usize>,
}

impl RowFilter {
    /// Bind `where_clause` (the query's own, or the residual a pushdown
    /// source leaves) against `schema`.
    pub fn bind(where_clause: Option<&Expr>, schema: &Schema) -> Result<RowFilter> {
        let clause = where_clause.map(|w| bind(w, schema)).transpose()?;
        Ok(RowFilter { columns: columns_of(&clause), clause })
    }

    /// The rows of `batch` that pass (SQL: only a definite TRUE keeps a
    /// row), each tested on a row view holding only the columns the clause
    /// reads. No clause selects every row without building one.
    pub fn select(&self, batch: &ColumnBatch) -> Result<Selection> {
        let Some(w) = &self.clause else {
            return Ok(Selection::All(batch.rows()));
        };
        let mut row = Vec::new();
        let mut kept = Vec::new();
        for i in 0..batch.rows() {
            batch.cells_into(i, &self.columns, &mut row);
            if w.test(&row, &[])? == Some(true) {
                kept.push(i);
            }
        }
        Ok(Selection::Rows(kept))
    }
}
