//! Scalar functions and aggregate accumulators.

use crate::ast::AggFunc;
use scoop_common::{Result, ScoopError};
use scoop_csv::batch::Selection;
use scoop_csv::{Column, Value};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::ops::Range;

/// Evaluate a scalar function.
///
/// Supported: `SUBSTRING(str, start, len)` (1-based like Spark SQL; a start of
/// 0 is treated as 1, which Table I's `SUBSTRING(date, 0, 7)` relies on),
/// `UPPER`, `LOWER`, `LENGTH`, `CONCAT`, `ABS`, `ROUND`, `COALESCE`,
/// `YEAR`/`MONTH`/`DAY` (on `YYYY-MM-DD...` strings).
pub fn eval_scalar(name: &str, args: &[Value]) -> Result<Value> {
    match name {
        "substring" | "substr" => {
            if args.len() != 3 {
                return Err(ScoopError::Sql(format!(
                    "{name} expects 3 arguments, got {}",
                    args.len()
                )));
            }
            let (s, start, len) = (&args[0], &args[1], &args[2]);
            if s.is_null() || start.is_null() || len.is_null() {
                return Ok(Value::Null);
            }
            let start = start
                .as_f64()
                .ok_or_else(|| ScoopError::Sql("substring start must be numeric".into()))?
                as i64;
            let len = len
                .as_f64()
                .ok_or_else(|| ScoopError::Sql("substring length must be numeric".into()))?
                as i64;
            Ok(substring(&text_of(s), start, len))
        }
        "upper" => unary_str(name, args, |s| s.to_uppercase()),
        "lower" => unary_str(name, args, |s| s.to_lowercase()),
        "length" => {
            let [v] = args else {
                return Err(ScoopError::Sql("length expects 1 argument".into()));
            };
            Ok(match v {
                Value::Null => Value::Null,
                Value::Str(s) => Value::Int(s.chars().count() as i64),
                other => Value::Int(other.to_string().chars().count() as i64),
            })
        }
        "concat" => {
            let mut out = String::new();
            for a in args {
                if a.is_null() {
                    return Ok(Value::Null);
                }
                out.push_str(&a.to_string());
            }
            Ok(Value::Str(out))
        }
        "abs" => {
            let [v] = args else {
                return Err(ScoopError::Sql("abs expects 1 argument".into()));
            };
            Ok(match v {
                Value::Null => Value::Null,
                Value::Int(i) => Value::Int(i.wrapping_abs()),
                Value::Float(f) => Value::Float(f.abs()),
                other => {
                    return Err(ScoopError::Sql(format!("abs on non-numeric {other}")))
                }
            })
        }
        "round" => {
            if args.is_empty() || args.len() > 2 {
                return Err(ScoopError::Sql("round expects 1 or 2 arguments".into()));
            }
            if args[0].is_null() {
                return Ok(Value::Null);
            }
            let v = args[0]
                .as_f64()
                .ok_or_else(|| ScoopError::Sql("round on non-numeric".into()))?;
            let digits = match args.get(1) {
                None => 0i32,
                Some(d) => d
                    .as_f64()
                    .ok_or_else(|| ScoopError::Sql("round digits must be numeric".into()))?
                    as i32,
            };
            let factor = 10f64.powi(digits);
            Ok(Value::Float((v * factor).round() / factor))
        }
        "coalesce" => Ok(args
            .iter()
            .find(|v| !v.is_null())
            .cloned()
            .unwrap_or(Value::Null)),
        "year" => date_part(args, 0, 4),
        "month" => date_part(args, 5, 2),
        "day" => date_part(args, 8, 2),
        other => Err(ScoopError::Sql(format!("unknown function '{other}'"))),
    }
}

/// The text a string function sees, as UTF-8 bytes: a string as it is
/// (borrowed, not re-validated), anything else as rendered.
pub(crate) fn text_of(v: &Value) -> Cow<'_, [u8]> {
    match v {
        Value::Str(s) => Cow::Borrowed(s.as_bytes()),
        other => Cow::Owned(other.to_string().into_bytes()),
    }
}

/// `SUBSTRING(text, start, len)` in characters. Spark: 1-based, start 0
/// behaves like 1, a negative start counts from the end.
pub(crate) fn substring(text: &[u8], start: i64, len: i64) -> Value {
    let piece = text.get(substring_range(text, start, len)).unwrap_or_default();
    Value::Str(String::from_utf8_lossy(piece).into_owned())
}

/// [`substring`] of a value: NULL stays NULL, anything else is cut from its
/// text.
pub(crate) fn substring_of(v: &Value, start: i64, len: i64) -> Value {
    match v {
        Value::Null => Value::Null,
        v => substring(&text_of(v), start, len),
    }
}

/// The bytes of `text` (valid UTF-8) that `SUBSTRING(text, start, len)`
/// keeps. On ASCII text characters are bytes, so this is span arithmetic;
/// otherwise characters are counted by their leading bytes.
pub(crate) fn substring_range(text: &[u8], start: i64, len: i64) -> Range<usize> {
    let ascii = text.is_ascii();
    let leading = |b: &u8| (b & 0xC0) != 0x80;
    let n = if ascii { text.len() } else { text.iter().filter(|b| leading(b)).count() } as i64;
    let begin = match start {
        1.. => start - 1,
        0 => 0,
        _ => (n + start).max(0),
    };
    let begin = begin.clamp(0, n);
    let end = begin.saturating_add(len.max(0)).min(n);
    let (begin, end) = (begin as usize, end as usize);
    if ascii {
        return begin..end;
    }
    // The byte offset of character `k`, or the end of the text.
    let at = |k: usize| {
        text.iter().enumerate().filter(|(_, b)| leading(b)).nth(k).map_or(text.len(), |(at, _)| at)
    };
    at(begin)..at(end)
}

fn unary_str(name: &str, args: &[Value], f: impl Fn(&str) -> String) -> Result<Value> {
    let [v] = args else {
        return Err(ScoopError::Sql(format!("{name} expects 1 argument")));
    };
    Ok(match v {
        Value::Null => Value::Null,
        Value::Str(s) => Value::Str(f(s)),
        other => Value::Str(f(&other.to_string())),
    })
}

fn date_part(args: &[Value], offset: usize, len: usize) -> Result<Value> {
    let [v] = args else {
        return Err(ScoopError::Sql("date function expects 1 argument".into()));
    };
    match v {
        Value::Null => Ok(Value::Null),
        Value::Str(s) => Ok(s
            .get(offset..offset + len)
            .and_then(|p| p.parse::<i64>().ok())
            .map(Value::Int)
            .unwrap_or(Value::Null)),
        _ => Ok(Value::Null),
    }
}

/// A mergeable aggregate accumulator — supports Spark-style two-phase
/// aggregation (partial on workers, merge + finish on the driver).
#[derive(Debug, Clone, PartialEq)]
pub enum AggState {
    /// Running sum and whether any non-null value was seen.
    Sum { total: f64, seen: bool },
    /// Row/value count.
    Count(u64),
    /// Running minimum.
    Min(Option<Value>),
    /// Running maximum.
    Max(Option<Value>),
    /// Sum + count for the average.
    Avg { total: f64, count: u64 },
    /// First value in encounter order.
    First(Option<Value>),
}

impl AggState {
    /// Fresh accumulator for a function.
    pub fn new(func: AggFunc) -> AggState {
        match func {
            AggFunc::Sum => AggState::Sum { total: 0.0, seen: false },
            AggFunc::Count => AggState::Count(0),
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
            AggFunc::Avg => AggState::Avg { total: 0.0, count: 0 },
            AggFunc::First => AggState::First(None),
        }
    }

    /// Fold one input value. For `COUNT(*)` pass `Value::Int(1)`; NULLs are
    /// ignored by all aggregates except `COUNT(*)` (per SQL semantics the
    /// caller passes non-null markers for `*`).
    pub fn update(&mut self, v: &Value) {
        match self {
            AggState::Count(c) => {
                if !v.is_null() {
                    *c += 1;
                }
            }
            AggState::Sum { total, seen } => {
                if let Some(x) = v.as_f64() {
                    *total += x;
                    *seen = true;
                }
            }
            AggState::Min(cur) => {
                if !v.is_null() && cur.as_ref().is_none_or(|c| v.total_cmp(c).is_lt()) {
                    *cur = Some(v.clone());
                }
            }
            AggState::Max(cur) => {
                if !v.is_null() && cur.as_ref().is_none_or(|c| v.total_cmp(c).is_gt()) {
                    *cur = Some(v.clone());
                }
            }
            AggState::Avg { total, count } => {
                if let Some(x) = v.as_f64() {
                    *total += x;
                    *count += 1;
                }
            }
            AggState::First(cur) => {
                if cur.is_none() && !v.is_null() {
                    *cur = Some(v.clone());
                }
            }
        }
    }

    /// Fold the cells of `column` the selection keeps, exactly as
    /// [`AggState::update`] on each of them in turn would. A lane is folded
    /// whole: COUNT counts its valid cells, SUM and AVG add in row order,
    /// MIN and MAX find the lane's first extreme (`f64::total_cmp` on
    /// numbers, byte order on strings) and fold only that one, FIRST takes
    /// the first valid cell. A [`Column::Values`] column is folded per value.
    pub fn update_column(&mut self, column: &Column, selection: &Selection) {
        match column {
            Column::F64(lane) => self.fold_f64(lane.cells(selection)),
            Column::I64(lane) => self.fold_i64(lane.cells(selection)),
            Column::Str(lane) => self.fold_str(lane.cells(selection)),
            Column::Values(values) => {
                for v in selection.rows().filter_map(|i| values.get(i)) {
                    self.update(v);
                }
            }
        }
    }

    /// [`AggState::update`] with row `i` of `column`, read from its lane; a
    /// FIRST that holds its value reads nothing.
    #[inline]
    pub fn update_cell(&mut self, column: &Column, i: usize) {
        if matches!(self, AggState::First(Some(_))) {
            return;
        }
        match column {
            Column::F64(lane) => self.fold_f64(std::iter::once(lane.get(i))),
            Column::I64(lane) => self.fold_i64(std::iter::once(lane.get(i))),
            Column::Str(lane) => self.fold_str(std::iter::once(lane.get(i))),
            Column::Values(values) => {
                if let Some(v) = values.get(i) {
                    self.update(v);
                }
            }
        }
    }

    #[inline]
    fn fold_f64(&mut self, cells: impl Iterator<Item = Option<f64>>) {
        self.fold_cells(cells, Some, f64::total_cmp, Value::Float)
    }

    #[inline]
    fn fold_i64(&mut self, cells: impl Iterator<Item = Option<i64>>) {
        self.fold_cells(cells, |v| Some(v as f64), |a, b| (*a as f64).total_cmp(&(*b as f64)), Value::Int)
    }

    #[inline]
    fn fold_str<'a>(&mut self, cells: impl Iterator<Item = Option<&'a [u8]>>) {
        self.fold_cells(cells, |_| None, |a, b| a.cmp(b), |s| Value::Str(String::from_utf8_lossy(s).into_owned()))
    }

    /// [`AggState::update_column`] over one lane's cells (`None` for NULL):
    /// `number` is a cell's numeric view, `cmp` the order `Value::total_cmp`
    /// gives two of them, `value` a cell as the row path holds it.
    fn fold_cells<C: Copy>(
        &mut self,
        cells: impl Iterator<Item = Option<C>>,
        number: impl Fn(C) -> Option<f64>,
        cmp: impl Fn(&C, &C) -> Ordering,
        value: impl Fn(C) -> Value,
    ) {
        let mut cells = cells.flatten();
        match self {
            AggState::Count(c) => *c += cells.count() as u64,
            AggState::Sum { total, seen } => {
                for x in cells.filter_map(number) {
                    *total += x;
                    *seen = true;
                }
            }
            AggState::Avg { total, count } => {
                for x in cells.filter_map(number) {
                    *total += x;
                    *count += 1;
                }
            }
            AggState::Min(_) | AggState::Max(_) => {
                let beats = if matches!(self, AggState::Min(_)) { Ordering::Less } else { Ordering::Greater };
                if let Some(m) = cells.reduce(|m, c| if cmp(&c, &m) == beats { c } else { m }) {
                    self.update(&value(m));
                }
            }
            AggState::First(cur) => {
                if cur.is_none() {
                    *cur = cells.next().map(value);
                }
            }
        }
    }

    /// Merge another partial accumulator of the same kind.
    pub fn merge(&mut self, other: &AggState) {
        match (self, other) {
            (AggState::Count(a), AggState::Count(b)) => *a += b,
            (
                AggState::Sum { total: ta, seen: sa },
                AggState::Sum { total: tb, seen: sb },
            ) => {
                *ta += tb;
                *sa |= sb;
            }
            (AggState::Min(a), AggState::Min(Some(b))) => {
                if a.as_ref().is_none_or(|c| b.total_cmp(c).is_lt()) {
                    *a = Some(b.clone());
                }
            }
            (AggState::Max(a), AggState::Max(Some(b))) => {
                if a.as_ref().is_none_or(|c| b.total_cmp(c).is_gt()) {
                    *a = Some(b.clone());
                }
            }
            (AggState::Min(_), AggState::Min(None))
            | (AggState::Max(_), AggState::Max(None)) => {}
            (
                AggState::Avg { total: ta, count: ca },
                AggState::Avg { total: tb, count: cb },
            ) => {
                *ta += tb;
                *ca += cb;
            }
            (AggState::First(a), AggState::First(b)) => {
                if a.is_none() {
                    *a = b.clone();
                }
            }
            (a, b) => panic!("merging mismatched aggregate states {a:?} / {b:?}"),
        }
    }

    /// Produce the final value.
    pub fn finish(&self) -> Value {
        match self {
            AggState::Count(c) => Value::Int(*c as i64),
            AggState::Sum { total, seen } => {
                if *seen {
                    Value::Float(*total)
                } else {
                    Value::Null
                }
            }
            AggState::Min(v) | AggState::Max(v) | AggState::First(v) => {
                v.clone().unwrap_or(Value::Null)
            }
            AggState::Avg { total, count } => {
                if *count > 0 {
                    Value::Float(*total / *count as f64)
                } else {
                    Value::Null
                }
            }
        }
    }
}

/// One aggregate call's accumulators, one per group, stored as the kind of
/// state its function keeps: a COUNT costs 8 bytes a group, a SUM 9, an AVG
/// 16, a MIN, MAX or FIRST one `Value` (NULL while it holds none). A state
/// is taken out as an [`AggState`], updated and put back, so what folding
/// means is written once, on `AggState`.
#[derive(Debug, Clone)]
pub(crate) enum AggColumn {
    Count(Vec<u64>),
    Sum(Vec<f64>, Vec<bool>),
    Avg(Vec<f64>, Vec<u64>),
    Held(AggFunc, Vec<Value>),
}

impl AggColumn {
    /// No groups yet, for `func`.
    pub(crate) fn new(func: AggFunc) -> AggColumn {
        match func {
            AggFunc::Count => AggColumn::Count(Vec::new()),
            AggFunc::Sum => AggColumn::Sum(Vec::new(), Vec::new()),
            AggFunc::Avg => AggColumn::Avg(Vec::new(), Vec::new()),
            AggFunc::Min | AggFunc::Max | AggFunc::First => AggColumn::Held(func, Vec::new()),
        }
    }

    /// Append a group whose state is `state` (of this column's function).
    pub(crate) fn push(&mut self, state: AggState) {
        match (self, state) {
            (AggColumn::Count(counts), AggState::Count(n)) => counts.push(n),
            (AggColumn::Sum(totals, seen), AggState::Sum { total, seen: s }) => {
                totals.push(total);
                seen.push(s);
            }
            (AggColumn::Avg(totals, counts), AggState::Avg { total, count }) => {
                totals.push(total);
                counts.push(count);
            }
            (AggColumn::Held(_, held), AggState::Min(v) | AggState::Max(v) | AggState::First(v)) => {
                held.push(v.unwrap_or(Value::Null))
            }
            // Another function's state: the group starts afresh.
            (column, _) => {
                let fresh = column.fresh();
                column.push(fresh);
            }
        }
    }

    /// A fresh state of this column's function.
    pub(crate) fn fresh(&self) -> AggState {
        match self {
            AggColumn::Count(_) => AggState::new(AggFunc::Count),
            AggColumn::Sum(..) => AggState::new(AggFunc::Sum),
            AggColumn::Avg(..) => AggState::new(AggFunc::Avg),
            AggColumn::Held(func, _) => AggState::new(*func),
        }
    }

    /// Group `g`'s state (a fresh one past the column).
    fn get(&self, g: usize) -> AggState {
        match self {
            AggColumn::Count(counts) => AggState::Count(counts.get(g).copied().unwrap_or(0)),
            AggColumn::Sum(totals, seen) => AggState::Sum {
                total: totals.get(g).copied().unwrap_or(0.0),
                seen: seen.get(g).copied().unwrap_or(false),
            },
            AggColumn::Avg(totals, counts) => AggState::Avg {
                total: totals.get(g).copied().unwrap_or(0.0),
                count: counts.get(g).copied().unwrap_or(0),
            },
            AggColumn::Held(func, held) => holding(*func, held.get(g).cloned()),
        }
    }

    /// Group `g`'s state, moved out: the column holds a fresh one until
    /// [`AggColumn::put`].
    pub(crate) fn take(&mut self, g: usize) -> AggState {
        match self {
            AggColumn::Held(func, held) => holding(*func, held.get_mut(g).map(std::mem::take)),
            numbers => numbers.get(g),
        }
    }

    /// Set group `g`'s state; nothing past the column.
    fn put(&mut self, g: usize, state: AggState) {
        match (self, state) {
            (AggColumn::Count(counts), AggState::Count(n)) => {
                if let Some(c) = counts.get_mut(g) {
                    *c = n;
                }
            }
            (AggColumn::Sum(totals, seen), AggState::Sum { total, seen: s }) => {
                if let (Some(t), Some(seen)) = (totals.get_mut(g), seen.get_mut(g)) {
                    (*t, *seen) = (total, s);
                }
            }
            (AggColumn::Avg(totals, counts), AggState::Avg { total, count }) => {
                if let (Some(t), Some(c)) = (totals.get_mut(g), counts.get_mut(g)) {
                    (*t, *c) = (total, count);
                }
            }
            (AggColumn::Held(_, held), AggState::Min(v) | AggState::Max(v) | AggState::First(v)) => {
                if let Some(h) = held.get_mut(g) {
                    *h = v.unwrap_or(Value::Null);
                }
            }
            _ => {}
        }
    }

    /// Update group `g`'s state with `f`.
    #[inline]
    pub(crate) fn update(&mut self, g: usize, f: impl FnOnce(&mut AggState)) {
        let mut state = self.take(g);
        f(&mut state);
        self.put(g, state);
    }

    /// Group `g`'s finished value, as [`AggState::finish`]; a held value is
    /// moved out, so each group is finished once.
    pub(crate) fn finish(&mut self, g: usize) -> Value {
        match self {
            AggColumn::Held(_, held) => held.get_mut(g).map(std::mem::take).unwrap_or(Value::Null),
            numbers => numbers.get(g).finish(),
        }
    }

    /// [`AggState::update`] of group `g` with `v`.
    #[inline]
    pub(crate) fn update_value(&mut self, g: usize, v: &Value) {
        let cell = (!v.is_null()).then(|| v.as_f64());
        if !self.fold_number(g, cell) {
            self.update(g, |state| state.update(v));
        }
    }

    /// [`AggState::update_cell`] of group `g` with row `i` of `column`: a
    /// number read from its lane, a FIRST that holds its value reads
    /// nothing.
    #[inline]
    pub(crate) fn update_cell(&mut self, g: usize, column: &Column, i: usize) {
        if let AggColumn::Held(AggFunc::First, held) = self {
            if held.get(g).is_some_and(|v| !v.is_null()) {
                return;
            }
        }
        let cell = match column {
            Column::F64(lane) => lane.get(i).map(Some),
            Column::I64(lane) => lane.get(i).map(|x| Some(x as f64)),
            Column::Str(lane) => lane.get(i).map(|_| None),
            Column::Values(values) => values.get(i).filter(|v| !v.is_null()).map(Value::as_f64),
        };
        if !self.fold_number(g, cell) {
            self.update(g, |state| state.update_cell(column, i));
        }
    }

    /// Fold a cell into group `g` of a COUNT, SUM or AVG, as
    /// [`AggState::update`] does: `cell` is `None` for NULL, else the
    /// cell's number if it has one. False for a MIN, MAX or FIRST.
    #[inline]
    fn fold_number(&mut self, g: usize, cell: Option<Option<f64>>) -> bool {
        match self {
            AggColumn::Count(counts) => {
                if let (Some(_), Some(c)) = (cell, counts.get_mut(g)) {
                    *c += 1;
                }
            }
            AggColumn::Sum(totals, seen) => {
                if let (Some(Some(x)), Some(t), Some(seen)) = (cell, totals.get_mut(g), seen.get_mut(g)) {
                    *t += x;
                    *seen = true;
                }
            }
            AggColumn::Avg(totals, counts) => {
                if let (Some(Some(x)), Some(t), Some(c)) = (cell, totals.get_mut(g), counts.get_mut(g)) {
                    *t += x;
                    *c += 1;
                }
            }
            AggColumn::Held(..) => return false,
        }
        true
    }
}

/// The state of a MIN, MAX or FIRST that holds `v` (NULL holds nothing).
fn holding(func: AggFunc, v: Option<Value>) -> AggState {
    let v = v.filter(|v| !v.is_null());
    match func {
        AggFunc::Min => AggState::Min(v),
        AggFunc::Max => AggState::Max(v),
        _ => AggState::First(v),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &str) -> Value {
        Value::Str(v.into())
    }

    #[test]
    fn substring_is_spark_compatible() {
        // Spark: SUBSTRING('2015-01-03', 0, 7) == SUBSTRING(.., 1, 7) == "2015-01".
        let d = s("2015-01-03 10:20:00");
        assert_eq!(
            eval_scalar("substring", &[d.clone(), Value::Int(0), Value::Int(7)]).unwrap(),
            s("2015-01")
        );
        assert_eq!(
            eval_scalar("substring", &[d.clone(), Value::Int(1), Value::Int(7)]).unwrap(),
            s("2015-01")
        );
        assert_eq!(
            eval_scalar("substring", &[d.clone(), Value::Int(0), Value::Int(10)]).unwrap(),
            s("2015-01-03")
        );
        assert_eq!(
            eval_scalar("substring", &[d.clone(), Value::Int(-5), Value::Int(5)]).unwrap(),
            s("20:00")
        );
        assert_eq!(
            eval_scalar("substring", &[Value::Null, Value::Int(1), Value::Int(2)]).unwrap(),
            Value::Null
        );
        assert_eq!(
            eval_scalar("substring", &[d, Value::Int(100), Value::Int(5)]).unwrap(),
            s("")
        );
    }

    #[test]
    fn misc_scalars() {
        assert_eq!(eval_scalar("upper", &[s("abc")]).unwrap(), s("ABC"));
        assert_eq!(eval_scalar("lower", &[s("AbC")]).unwrap(), s("abc"));
        assert_eq!(eval_scalar("length", &[s("héllo")]).unwrap(), Value::Int(5));
        assert_eq!(
            eval_scalar("concat", &[s("a"), Value::Int(1)]).unwrap(),
            s("a1")
        );
        assert_eq!(eval_scalar("abs", &[Value::Int(-4)]).unwrap(), Value::Int(4));
        assert_eq!(
            eval_scalar("round", &[Value::Float(2.567), Value::Int(1)]).unwrap(),
            Value::Float(2.6)
        );
        assert_eq!(
            eval_scalar("coalesce", &[Value::Null, Value::Int(7)]).unwrap(),
            Value::Int(7)
        );
        assert_eq!(eval_scalar("year", &[s("2015-01-03")]).unwrap(), Value::Int(2015));
        assert_eq!(eval_scalar("month", &[s("2015-01-03")]).unwrap(), Value::Int(1));
        assert_eq!(eval_scalar("day", &[s("2015-01-03")]).unwrap(), Value::Int(3));
        assert!(eval_scalar("nope", &[]).is_err());
        assert!(eval_scalar("substring", &[s("x")]).is_err());
    }

    #[test]
    fn agg_update_and_finish() {
        let mut sum = AggState::new(AggFunc::Sum);
        sum.update(&Value::Int(2));
        sum.update(&Value::Null);
        sum.update(&Value::Float(0.5));
        assert_eq!(sum.finish(), Value::Float(2.5));

        let mut count = AggState::new(AggFunc::Count);
        count.update(&Value::Int(1));
        count.update(&Value::Null);
        assert_eq!(count.finish(), Value::Int(1));

        let mut min = AggState::new(AggFunc::Min);
        min.update(&s("b"));
        min.update(&s("a"));
        assert_eq!(min.finish(), s("a"));

        let mut avg = AggState::new(AggFunc::Avg);
        avg.update(&Value::Int(1));
        avg.update(&Value::Int(3));
        assert_eq!(avg.finish(), Value::Float(2.0));

        let mut first = AggState::new(AggFunc::First);
        first.update(&Value::Null);
        first.update(&s("x"));
        first.update(&s("y"));
        assert_eq!(first.finish(), s("x"));

        assert_eq!(AggState::new(AggFunc::Sum).finish(), Value::Null);
        assert_eq!(AggState::new(AggFunc::Avg).finish(), Value::Null);
        assert_eq!(AggState::new(AggFunc::Count).finish(), Value::Int(0));
    }

    #[test]
    fn partial_merge_equals_single_pass() {
        let values: Vec<Value> = (0..100).map(Value::Int).collect();
        for func in [
            AggFunc::Sum,
            AggFunc::Count,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Avg,
            AggFunc::First,
        ] {
            let mut whole = AggState::new(func);
            for v in &values {
                whole.update(v);
            }
            // Split into 3 partials, merge.
            let mut merged = AggState::new(func);
            for chunk in values.chunks(34) {
                let mut partial = AggState::new(func);
                for v in chunk {
                    partial.update(v);
                }
                merged.merge(&partial);
            }
            assert_eq!(merged.finish(), whole.finish(), "{func:?}");
        }
    }
}
