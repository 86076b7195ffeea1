//! Query execution over typed column batches.
//!
//! Two entry points:
//!
//! * [`execute`] / [`execute_with_where`] — run a whole query on one row
//!   iterator (the driver-only path, used for correctness references); an
//!   aggregate packs the rows into batches and folds them as a worker does.
//! * [`Aggregator`] — Spark-style two-phase aggregation: workers fold their
//!   partition's batches into a [`PartialAgg`] (map-side combine), the
//!   driver merges partials and finalizes. The compute crate drives this.
//!
//! Both go through one evaluator: every expression is bound to the scan
//! schema once per query ([`crate::bound`]) and only evaluated per row. The
//! one exception is a global aggregate whose every call reads a bare column:
//! [`Aggregator::update_batch`] folds the batch's lanes directly
//! ([`AggState::update_column`]), and no row is built.

use crate::ast::{AggFunc, Expr, Query, SelectItem};
use crate::bound::{bind, bind_output, columns_of, AggCalls, Bound, RowFilter};
use crate::functions::AggState;
use scoop_common::{Result, ScoopError};
use scoop_csv::batch::{Selection, BATCH_ROWS};
use scoop_csv::{ColumnBatch, Schema, Value};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::hash_map::RandomState;
use std::collections::HashSet;
use std::hash::{BuildHasher, Hash, Hasher};
use std::mem;

/// A materialized query result.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    /// Output column names.
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Vec<Value>>,
}

impl ResultSet {
    /// Render as CSV (header + rows) — handy for result comparison and docs.
    pub fn to_csv(&self) -> String {
        let mut w = scoop_csv::CsvWriter::new();
        let refs: Vec<&str> = self.columns.iter().map(String::as_str).collect();
        w.write_strs(&refs);
        for row in &self.rows {
            w.write_row(row);
        }
        String::from_utf8_lossy(&w.into_bytes()).into_owned()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Structural equality with a relative tolerance on floats. Two-phase
    /// aggregation sums floats in partition order, so results from different
    /// partitionings of the same data can differ in the last ulps.
    pub fn approx_eq(&self, other: &ResultSet, rel_tol: f64) -> bool {
        if self.columns != other.columns || self.rows.len() != other.rows.len() {
            return false;
        }
        self.rows.iter().zip(&other.rows).all(|(a, b)| {
            a.len() == b.len()
                && a.iter().zip(b).all(|(x, y)| match (x.as_f64(), y.as_f64()) {
                    (Some(fx), Some(fy)) => {
                        let scale = fx.abs().max(fy.abs()).max(1.0);
                        (fx - fy).abs() <= rel_tol * scale
                    }
                    _ => x == y,
                })
        })
    }
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

/// What `COUNT(*)` folds in for every row.
static ONE: Value = Value::Int(1);


/// An index slot that holds no group.
const EMPTY: u32 = u32::MAX;


/// Partial aggregation result (one worker's contribution): a flat group
/// table.
///
/// Groups are numbered in the order their first row arrived. Group `g`'s
/// key, accumulators and representative row are the `g`th stride of
/// `keys`, `states` and `rows`; the [`Aggregator`] fixes the strides (the
/// `GROUP BY` arity, the number of aggregate calls, the scan-schema width).
/// A global aggregate has key arity 0 and one group, number 0.
#[derive(Debug, Clone, Default)]
pub struct PartialAgg {
    /// Each group's key hash, by group number.
    hashes: Vec<u64>,
    /// Group keys.
    keys: Vec<Value>,
    /// One accumulator per distinct aggregate call, per group.
    states: Vec<AggState>,
    /// Each group's first row, padded with NULL to the schema width: it
    /// evaluates the non-aggregate output expressions (functionally
    /// dependent on the key in well-formed queries).
    rows: Vec<Value>,
    /// Open addressing with linear probing: group numbers by hash, [`EMPTY`]
    /// where there is none. A power of two, at most half full.
    index: Vec<u32>,
    /// Scratch the current row's key is built in; it moves into `keys` only
    /// for a group's first row.
    key: Vec<Value>,
    /// Rows folded in (for accounting).
    pub rows_seen: u64,
}

impl PartialAgg {
    fn groups(&self) -> usize {
        self.hashes.len()
    }

    /// The group whose key is `key`, which hashes to `hash`.
    fn find(&self, hash: u64, key: &[Value]) -> Option<usize> {
        let mask = self.index.len().checked_sub(1)?;
        let mut slot = hash as usize & mask;
        loop {
            let g = match self.index[slot] {
                EMPTY => return None,
                g => g as usize,
            };
            if self.hashes[g] == hash && self.keys[g * key.len()..][..key.len()] == *key {
                return Some(g);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Number a new group and index it under `hash`. The caller appends its
    /// key, accumulators and row.
    fn push_group(&mut self, hash: u64) -> usize {
        let g = self.groups();
        if (g + 1) * 2 > self.index.len() {
            // Double the index and re-place every group by its stored hash.
            self.index = vec![EMPTY; (self.index.len() * 2).max(16)];
            for (g, &hash) in self.hashes.iter().enumerate() {
                place(&mut self.index, hash, g);
            }
        }
        self.hashes.push(hash);
        place(&mut self.index, hash, g);
        g
    }
}

/// Put group `g` in the first free slot from `hash` on.
fn place(index: &mut [u32], hash: u64, g: usize) {
    let mask = index.len() - 1;
    let mut slot = hash as usize & mask;
    while index[slot] != EMPTY {
        slot = (slot + 1) & mask;
    }
    index[slot] = g as u32;
}

/// Where an `ORDER BY` key comes from.
#[derive(Debug, Clone)]
enum OrderKey {
    /// A select item (named by alias, or the same expression): its output.
    Output(usize),
    /// Anything else: evaluated on the row (the group's representative row,
    /// with aggregates, for an aggregated query).
    Expr(Bound),
}

impl OrderKey {
    fn value(&self, out_row: &[Value], row: &[Value], slots: &[Value]) -> Result<Value> {
        match self {
            OrderKey::Output(i) => Ok(out_row.get(*i).cloned().unwrap_or(Value::Null)),
            OrderKey::Expr(e) => e.eval(row, slots).map(Cow::into_owned),
        }
    }
}

/// The select item an `ORDER BY` column names by alias.
fn aliased_item(query: &Query, expr: &Expr) -> Option<usize> {
    let Expr::Column(name) = expr else { return None };
    query.items.iter().position(|it| it.alias.as_deref() == Some(name.as_str()))
}

/// Drives grouping + two-phase aggregation for one query. Every expression
/// is bound here, once; `update` and `finalize` only evaluate.
pub struct Aggregator {
    query: Query,
    group_by: Vec<Bound>,
    /// Function and argument of each distinct aggregate call appearing
    /// anywhere in the output, `HAVING` or `ORDER BY`.
    calls: Vec<(AggFunc, Option<Bound>)>,
    items: Vec<Bound>,
    having: Option<Bound>,
    order_by: Vec<OrderKey>,
    /// For a global aggregate whose every call is `COUNT(*)` (`None`) or reads
    /// a bare column (its index): the lane each call folds.
    lanes: Option<Vec<Option<usize>>>,
    /// The columns the keys and computed arguments read: all a row view
    /// needs to find a row's group and fold it (a bare column argument is
    /// read from its lane).
    keyed: Vec<usize>,
    /// The other columns the outputs read, which a new group's
    /// representative row needs as well.
    rest: Vec<usize>,
    /// The scan schema's width: the stride of a representative row.
    width: usize,
    /// Hashes group keys for every partial this aggregator makes, so a merge
    /// finds a group by the hash its partial stored.
    hasher: RandomState,
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
        let mut aggs = AggCalls::default();
        let items: Vec<Bound> = query
            .items
            .iter()
            .map(|item| bind_output(&item.expr, schema, &mut aggs))
            .collect::<Result<_>>()?;
        let having =
            query.having.as_ref().map(|h| bind_output(h, schema, &mut aggs)).transpose()?;
        // ORDER BY: alias or identical select expression first, else
        // evaluated on the group's representative row.
        let order_by: Vec<OrderKey> = query
            .order_by
            .iter()
            .map(|o| {
                let item = aliased_item(query, &o.expr)
                    .or_else(|| query.items.iter().position(|it| it.expr == o.expr));
                Ok(match item {
                    Some(i) => OrderKey::Output(i),
                    None => OrderKey::Expr(bind_output(&o.expr, schema, &mut aggs)?),
                })
            })
            .collect::<Result<_>>()?;
        let group_by: Vec<Bound> =
            query.group_by.iter().map(|g| bind(g, schema)).collect::<Result<_>>()?;
        let lane = |(_, arg): &(AggFunc, Option<Bound>)| match arg {
            None => Some(None),
            Some(Bound::Col(i)) => Some(Some(*i)),
            Some(_) => None,
        };
        let lanes = if group_by.is_empty() { aggs.calls.iter().map(lane).collect() } else { None };
        let computed = aggs.calls.iter().filter_map(|(_, arg)| arg.as_ref()).filter(|a| !matches!(a, Bound::Col(_)));
        let keyed = columns_of(group_by.iter().chain(computed));
        let mut rest = columns_of(
            group_by
                .iter()
                .chain(aggs.calls.iter().filter_map(|(_, arg)| arg.as_ref()))
                .chain(items.iter().chain(&having))
                .chain(order_by.iter().filter_map(|o| if let OrderKey::Expr(e) = o { Some(e) } else { None })),
        );
        rest.retain(|c| !keyed.contains(c));
        Ok(Aggregator {
            query: query.clone(),
            group_by,
            calls: aggs.calls,
            items,
            having,
            order_by,
            lanes,
            keyed,
            rest,
            width: schema.len(),
            hasher: RandomState::new(),
        })
    }

    /// Fresh empty partial.
    pub fn make_partial(&self) -> PartialAgg {
        PartialAgg::default()
    }

    fn hash_key(&self, key: &[Value]) -> u64 {
        if key.is_empty() {
            // A global aggregate's one group: nothing to hash.
            return 0;
        }
        let mut h = self.hasher.build_hasher();
        for v in key {
            v.hash(&mut h);
        }
        h.finish()
    }

    /// Append a group keyed by `partial.key` (which it takes) with fresh
    /// accumulators and `row` as its representative.
    fn new_group(&self, partial: &mut PartialAgg, hash: u64, row: &[Value]) -> usize {
        let g = partial.push_group(hash);
        partial.keys.append(&mut partial.key);
        partial.states.extend(self.calls.iter().map(|(func, _)| AggState::new(*func)));
        let end = partial.rows.len() + self.width;
        partial.rows.extend(row.iter().take(self.width).cloned());
        partial.rows.resize(end, Value::Null);
        g
    }

    /// Fold one (already WHERE-filtered) row into a partial.
    pub fn update(&self, partial: &mut PartialAgg, row: &[Value]) -> Result<()> {
        let g = match self.find_group(partial, row)? {
            (_, Some(g)) => g,
            (hash, None) => self.new_group(partial, hash, row),
        };
        self.fold(partial, g, row, |state, c| state.update(row.get(c).unwrap_or(&Value::Null)))
    }

    /// Count a row in and build its key (in `partial.key`) from `row`: the
    /// key's hash, and its group if it has one.
    fn find_group(&self, partial: &mut PartialAgg, row: &[Value]) -> Result<(u64, Option<usize>)> {
        partial.rows_seen += 1;
        partial.key.clear();
        for g in &self.group_by {
            partial.key.push(g.eval(row, &[])?.into_owned());
        }
        let hash = self.hash_key(&partial.key);
        Ok((hash, partial.find(hash, &partial.key)))
    }

    /// Fold a row into group `g`'s accumulators: a computed argument is
    /// evaluated on `row`, a bare column `c` is handed to `column(state, c)`.
    fn fold(
        &self,
        partial: &mut PartialAgg,
        g: usize,
        row: &[Value],
        mut column: impl FnMut(&mut AggState, usize),
    ) -> Result<()> {
        let calls = self.calls.len();
        for ((_, arg), state) in self.calls.iter().zip(&mut partial.states[g * calls..][..calls]) {
            match arg {
                None => state.update(&ONE),
                Some(Bound::Col(c)) => column(state, *c),
                Some(a) => state.update(&*a.eval(row, &[])?),
            }
        }
        Ok(())
    }

    /// Fold the `selection` of a batch's rows into a partial, exactly as
    /// [`Aggregator::update`] on each selected row in turn would. A global
    /// aggregate over bare columns folds the batch's lanes. Anything else
    /// evaluates keys and computed arguments on each selected row's view,
    /// which holds only the cells they read, and folds a bare column argument
    /// from its lane; a new group's representative row also gets the cells
    /// the outputs read (the others stay NULL, and nothing evaluates them).
    pub fn update_batch(
        &self,
        partial: &mut PartialAgg,
        batch: &ColumnBatch,
        selection: &Selection,
    ) -> Result<()> {
        let mut row = Vec::new();
        let Some(lanes) = &self.lanes else {
            for i in selection.rows() {
                batch.cells_into(i, &self.keyed, &mut row);
                let g = match self.find_group(partial, &row)? {
                    (_, Some(g)) => g,
                    (hash, None) => {
                        batch.cells_into(i, &self.rest, &mut row);
                        self.new_group(partial, hash, &row)
                    }
                };
                self.fold(partial, g, &row, |state, c| {
                    batch.column(c).into_iter().for_each(|column| state.update_cell(column, i))
                })?;
            }
            return Ok(());
        };
        let Some(first) = selection.rows().next() else {
            return Ok(());
        };
        partial.rows_seen += selection.len() as u64;
        if partial.groups() == 0 {
            // The one group's representative row is its first row.
            batch.cells_into(first, &self.rest, &mut row);
            partial.key.clear();
            self.new_group(partial, self.hash_key(&[]), &row);
        }
        for (state, lane) in partial.states.iter_mut().zip(lanes) {
            match lane {
                None => (0..selection.len()).for_each(|_| state.update(&ONE)),
                Some(c) => batch.column(*c).into_iter().for_each(|col| state.update_column(col, selection)),
            }
        }
        Ok(())
    }

    /// Merge another partial of this aggregator into `into` (driver-side
    /// reduce). A group keeps the representative row it saw first; a group
    /// new to `into` is numbered after the ones it has.
    pub fn merge(&self, into: &mut PartialAgg, other: PartialAgg) {
        if into.groups() == 0 {
            // Nothing to merge with: take the other table as it is.
            let rows_seen = into.rows_seen;
            *into = other;
            into.rows_seen += rows_seen;
            return;
        }
        into.rows_seen += other.rows_seen;
        let (arity, calls, width) = (self.group_by.len(), self.calls.len(), self.width);
        let mut keys = other.keys.into_iter();
        let mut states = other.states.into_iter();
        let mut rows = other.rows.into_iter();
        for hash in other.hashes {
            match into.find(hash, &keys.as_slice()[..arity]) {
                Some(g) => {
                    keys.by_ref().take(arity).for_each(drop);
                    rows.by_ref().take(width).for_each(drop);
                    let dst = &mut into.states[g * calls..][..calls];
                    for (dst, src) in dst.iter_mut().zip(states.by_ref().take(calls)) {
                        dst.merge(&src);
                    }
                }
                None => {
                    into.push_group(hash);
                    into.keys.extend(keys.by_ref().take(arity));
                    into.states.extend(states.by_ref().take(calls));
                    into.rows.extend(rows.by_ref().take(width));
                }
            }
        }
    }

    /// Finalize: evaluate output expressions per group, then `DISTINCT`,
    /// `ORDER BY` and `LIMIT`. Rows that tie on the `ORDER BY` keys come out
    /// in group order, i.e. in the order their groups were first seen.
    pub fn finalize(&self, mut partial: PartialAgg) -> Result<ResultSet> {
        let columns: Vec<String> =
            self.query.items.iter().map(SelectItem::output_name).collect();
        // SQL: a global aggregate over zero rows still yields one row —
        // COUNT is 0, the other aggregates NULL.
        if self.group_by.is_empty() && partial.groups() == 0 {
            self.new_group(&mut partial, self.hash_key(&[]), &[]);
        }
        let (calls, width, n_items) = (self.calls.len(), self.width, self.items.len());
        let groups = partial.groups();
        // Output values and ORDER BY keys of the groups HAVING keeps, flat.
        let mut out: Vec<Value> = Vec::with_capacity(groups * n_items);
        let mut sort_keys: Vec<Value> = Vec::with_capacity(groups * self.order_by.len());
        let mut slots: Vec<Value> = Vec::with_capacity(calls);
        let mut kept = 0;
        for g in 0..groups {
            let row = &partial.rows[g * width..][..width];
            slots.clear();
            slots.extend(partial.states[g * calls..][..calls].iter().map(AggState::finish));
            // HAVING: post-aggregation filter (truthy = keep).
            if let Some(h) = &self.having {
                if !matches!(h.eval(row, &slots)?.as_f64(), Some(f) if f != 0.0) {
                    continue;
                }
            }
            let start = out.len();
            for item in &self.items {
                out.push(item.eval(row, &slots)?.into_owned());
            }
            for o in &self.order_by {
                sort_keys.push(o.value(&out[start..], row, &slots)?);
            }
            kept += 1;
        }
        let order = finish_order(&self.query, kept, &sort_keys, |i| &out[i * n_items..][..n_items]);
        let rows = order
            .into_iter()
            .map(|i| out[i as usize * n_items..][..n_items].iter_mut().map(mem::take).collect())
            .collect();
        Ok(ResultSet { columns, rows })
    }
}

/// DISTINCT, ORDER BY and LIMIT over result rows `0..n`, by number: `row(i)`
/// is row `i`'s output, and `sort_keys` holds its ORDER BY keys,
/// `query.order_by.len()` per row. Returns the numbers of the rows to emit,
/// in order. DISTINCT keeps a row's first occurrence and the sort is stable,
/// so ties keep row order.
fn finish_order<'a>(
    query: &Query,
    n: usize,
    sort_keys: &[Value],
    row: impl Fn(usize) -> &'a [Value],
) -> Vec<u32> {
    let mut order: Vec<u32> = (0..n as u32).collect();
    if query.distinct {
        let mut seen: HashSet<&[Value]> = HashSet::with_capacity(n);
        order.retain(|&i| seen.insert(row(i as usize)));
    }
    let width = query.order_by.len();
    if width > 0 {
        let key = |i: u32| &sort_keys[i as usize * width..][..width];
        order.sort_by(|&a, &b| {
            for ((x, y), o) in key(a).iter().zip(key(b)).zip(&query.order_by) {
                let ord = x.total_cmp(y);
                let ord = if o.desc { ord.reverse() } else { ord };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        });
    }
    if let Some(limit) = query.limit {
        order.truncate(limit);
    }
    order
}

// ---------------------------------------------------------------------------
// Whole-query execution
// ---------------------------------------------------------------------------

/// Execute a query applying its own WHERE clause.
pub fn execute(
    query: &Query,
    schema: &Schema,
    rows: impl Iterator<Item = Result<Vec<Value>>>,
) -> Result<ResultSet> {
    execute_with_where(query, schema, query.where_clause.as_ref(), rows)
}

/// Execute with an overridden WHERE (the *residual* predicate in pushdown
/// mode, where the store already applied the pushed conjuncts).
pub fn execute_with_where(
    query: &Query,
    schema: &Schema,
    where_clause: Option<&Expr>,
    rows: impl Iterator<Item = Result<Vec<Value>>>,
) -> Result<ResultSet> {
    let filter = RowFilter::bind(where_clause, schema)?;
    if query.is_aggregate() {
        let agg = Aggregator::new(query, schema)?;
        let mut partial = agg.make_partial();
        let mut fold = |pack: Vec<Vec<Value>>| -> Result<()> {
            let batch = ColumnBatch::from_rows(schema, pack);
            agg.update_batch(&mut partial, &batch, &filter.select(&batch)?)
        };
        let mut pack = Vec::with_capacity(BATCH_ROWS);
        for row in rows {
            pack.push(row?);
            if pack.len() == BATCH_ROWS {
                fold(mem::replace(&mut pack, Vec::with_capacity(BATCH_ROWS)))?;
            }
        }
        fold(pack)?;
        return agg.finalize(partial);
    }
    // Non-aggregate path. `SELECT *` hands the row through as it is.
    let has_star = query.items.iter().any(|i| matches!(i.expr, Expr::Star));
    let (columns, items): (Vec<String>, Option<Vec<Bound>>) = if has_star {
        (schema.names().iter().map(|s| s.to_string()).collect(), None)
    } else {
        (
            query.items.iter().map(SelectItem::output_name).collect(),
            Some(query.items.iter().map(|i| bind(&i.expr, schema)).collect::<Result<_>>()?),
        )
    };
    let order_by: Vec<OrderKey> = query
        .order_by
        .iter()
        .map(|o| {
            Ok(match aliased_item(query, &o.expr) {
                Some(i) => OrderKey::Output(i),
                None => OrderKey::Expr(bind(&o.expr, schema)?),
            })
        })
        .collect::<Result<_>>()?;
    let mut out: Vec<Vec<Value>> = Vec::new();
    let mut sort_keys: Vec<Value> = Vec::new();
    for row in rows {
        let row = row?;
        if !filter.passes(&row)? {
            continue;
        }
        let projected: Option<Vec<Value>> = items
            .as_ref()
            .map(|items| {
                items.iter().map(|i| i.eval(&row, &[]).map(Cow::into_owned)).collect()
            })
            .transpose()?;
        for o in &order_by {
            sort_keys.push(o.value(projected.as_deref().unwrap_or(&row), &row, &[])?);
        }
        out.push(projected.unwrap_or(row));
    }
    let order = finish_order(query, out.len(), &sort_keys, |i| &out[i]);
    let rows = order.into_iter().map(|i| mem::take(&mut out[i as usize])).collect();
    Ok(ResultSet { columns, rows })
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
        ])
    }

    fn rows() -> Vec<Vec<Value>> {
        let mk = |vid: &str, date: &str, idx: Option<f64>, city: &str, state: &str| {
            vec![
                Value::Str(vid.into()),
                Value::Str(date.into()),
                idx.map(Value::Float).unwrap_or(Value::Null),
                Value::Str(city.into()),
                Value::Str(state.into()),
            ]
        };
        vec![
            mk("m1", "2015-01-03 10:00:00", Some(10.0), "Rotterdam", "NLD"),
            mk("m1", "2015-01-04 11:00:00", Some(20.0), "Rotterdam", "NLD"),
            mk("m2", "2015-01-03 09:00:00", Some(5.0), "Paris", "FRA"),
            mk("m2", "2015-02-01 09:00:00", Some(7.0), "Paris", "FRA"),
            mk("m3", "2015-01-05 08:00:00", None, "Utrecht", "NLD"),
        ]
    }

    fn run(sql: &str) -> ResultSet {
        let q = parse(sql).unwrap();
        execute(&q, &schema(), rows().into_iter().map(Ok)).unwrap()
    }

    #[test]
    fn simple_projection_and_filter() {
        let rs = run("SELECT vid, index FROM t WHERE city LIKE 'Rotterdam' ORDER BY index DESC");
        assert_eq!(rs.columns, vec!["vid", "index"]);
        assert_eq!(rs.rows.len(), 2);
        assert_eq!(rs.rows[0][1], Value::Float(20.0));
    }

    #[test]
    fn select_star_and_limit() {
        let rs = run("SELECT * FROM t ORDER BY vid LIMIT 2");
        assert_eq!(rs.columns.len(), 5);
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn group_by_with_aliases_and_order() {
        let rs = run(
            "SELECT vid, sum(index) as total, count(*) as n FROM t \
             WHERE date LIKE '2015-01%' GROUP BY vid ORDER BY vid",
        );
        assert_eq!(rs.columns, vec!["vid", "total", "n"]);
        assert_eq!(rs.rows.len(), 3);
        assert_eq!(rs.rows[0], vec![Value::Str("m1".into()), Value::Float(30.0), Value::Int(2)]);
        assert_eq!(rs.rows[1], vec![Value::Str("m2".into()), Value::Float(5.0), Value::Int(1)]);
        // m3's index is NULL → SUM null, COUNT(*) still 1.
        assert_eq!(rs.rows[2][1], Value::Null);
        assert_eq!(rs.rows[2][2], Value::Int(1));
    }

    #[test]
    fn gridpocket_style_substring_group() {
        let rs = run(
            "SELECT SUBSTRING(date, 0, 7) as sDate, sum(index) as max FROM t \
             GROUP BY SUBSTRING(date, 0, 7) ORDER BY SUBSTRING(date, 0, 7)",
        );
        assert_eq!(rs.rows.len(), 2);
        assert_eq!(rs.rows[0][0], Value::Str("2015-01".into()));
        assert_eq!(rs.rows[0][1], Value::Float(35.0));
        assert_eq!(rs.rows[1][0], Value::Str("2015-02".into()));
    }

    #[test]
    fn first_value_and_min_max() {
        let rs = run(
            "SELECT vid, first_value(city) as city, min(index) as lo, max(index) as hi \
             FROM t GROUP BY vid ORDER BY vid",
        );
        assert_eq!(rs.rows[0][1], Value::Str("Rotterdam".into()));
        assert_eq!(rs.rows[0][2], Value::Float(10.0));
        assert_eq!(rs.rows[0][3], Value::Float(20.0));
    }

    #[test]
    fn global_aggregate_without_group_by() {
        let rs = run("SELECT count(*) as n, avg(index) as a FROM t");
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][0], Value::Int(5));
        assert_eq!(rs.rows[0][1], Value::Float(10.5));
    }

    #[test]
    fn arithmetic_in_select_and_where() {
        let rs = run("SELECT vid, index * 2 + 1 FROM t WHERE index / 5 >= 2 ORDER BY vid");
        assert_eq!(rs.rows.len(), 2);
        assert_eq!(rs.rows[0][1], Value::Float(21.0));
    }

    #[test]
    fn null_semantics_in_where() {
        // index > 0 is NULL for m3 → excluded; NOT (index > 0) also excludes.
        assert_eq!(run("SELECT vid FROM t WHERE index > 0").rows.len(), 4);
        assert_eq!(run("SELECT vid FROM t WHERE NOT index > 0").rows.len(), 0);
        assert_eq!(run("SELECT vid FROM t WHERE index IS NULL").rows.len(), 1);
        // OR with null: null OR true = true.
        assert_eq!(
            run("SELECT vid FROM t WHERE index > 0 OR city LIKE 'Utrecht'").rows.len(),
            5
        );
        // IN with null element: no match → NULL → excluded.
        assert_eq!(
            run("SELECT vid FROM t WHERE index IN (NULL, 999)").rows.len(),
            0
        );
    }

    #[test]
    fn in_list_and_not_like() {
        assert_eq!(
            run("SELECT vid FROM t WHERE state IN ('FRA', 'DEU')").rows.len(),
            2
        );
        assert_eq!(
            run("SELECT vid FROM t WHERE city NOT LIKE 'P%'").rows.len(),
            3
        );
    }

    #[test]
    fn division_by_zero_is_null() {
        assert_eq!(run("SELECT vid FROM t WHERE index / 0 > 0").rows.len(), 0);
        let rs = run("SELECT index / 0 FROM t LIMIT 1");
        assert_eq!(rs.rows[0][0], Value::Null);
    }

    #[test]
    fn two_phase_equals_single_pass() {
        let q = parse(
            "SELECT vid, sum(index) as total, count(*) as n, min(date) as d \
             FROM t WHERE date LIKE '2015%' GROUP BY vid ORDER BY vid",
        )
        .unwrap();
        let schema = schema();
        let single = execute(&q, &schema, rows().into_iter().map(Ok)).unwrap();

        let agg = Aggregator::new(&q, &schema).unwrap();
        let filter = RowFilter::bind(q.where_clause.as_ref(), &schema).unwrap();
        // Split rows into 2 partitions, update separately, merge, finalize.
        let all = rows();
        let mut merged = agg.make_partial();
        for part in all.chunks(2) {
            let mut partial = agg.make_partial();
            for row in part {
                // WHERE applied before partial agg, as workers do.
                if filter.passes(row).unwrap() {
                    agg.update(&mut partial, row).unwrap();
                }
            }
            agg.merge(&mut merged, partial);
        }
        let two_phase = agg.finalize(merged).unwrap();
        assert_eq!(two_phase, single);
    }

    #[test]
    fn ties_come_out_in_first_seen_order() {
        // Sixty meters first seen in a scrambled order; every third one
        // seen twice. ORDER BY n ties within each count.
        let schema = schema();
        let vids: Vec<String> = (0..60).map(|i| format!("m{:02}", i * 37 % 60)).collect();
        let rows: Vec<Vec<Value>> = vids
            .iter()
            .chain(vids.iter().step_by(3))
            .map(|vid| vec![Value::Str(vid.as_str().into())])
            .collect();
        let group = |vid: &String, n: i64| vec![Value::Str(vid.as_str().into()), Value::Int(n)];
        let once = vids.iter().enumerate().filter(|(i, _)| i % 3 != 0).map(|(_, v)| group(v, 1));
        let twice = vids.iter().step_by(3).map(|v| group(v, 2));
        let want: Vec<Vec<Value>> = once.chain(twice).collect();

        let q = parse("SELECT vid, count(*) as n FROM t GROUP BY vid ORDER BY n").unwrap();
        let single = execute(&q, &schema, rows.iter().cloned().map(Ok)).unwrap();
        assert_eq!(single.rows, want);
        // Two aggregators hash with different seeds; the order must not care,
        // nor how the rows are split into partials.
        for agg in [Aggregator::new(&q, &schema).unwrap(), Aggregator::new(&q, &schema).unwrap()] {
            for chunk in 1..=rows.len() {
                let mut merged = agg.make_partial();
                for part in rows.chunks(chunk) {
                    let mut partial = agg.make_partial();
                    for row in part {
                        agg.update(&mut partial, row).unwrap();
                    }
                    agg.merge(&mut merged, partial);
                }
                assert_eq!(agg.finalize(merged).unwrap(), single, "chunks of {chunk}");
            }
        }
    }

    #[test]
    fn aggregate_in_arithmetic() {
        let rs = run("SELECT vid, sum(index) / count(*) as mean FROM t GROUP BY vid ORDER BY vid");
        assert_eq!(rs.rows[0][1], Value::Float(15.0));
    }

    #[test]
    fn order_by_aggregate_value() {
        let rs = run("SELECT vid, sum(index) as s FROM t GROUP BY vid ORDER BY sum(index) DESC");
        assert_eq!(rs.rows[0][0], Value::Str("m1".into()));
    }

    #[test]
    fn errors_on_bad_queries() {
        let q = parse("SELECT ghost FROM t").unwrap();
        assert!(execute(&q, &schema(), rows().into_iter().map(Ok)).is_err());
        let q = parse("SELECT * , sum(index) FROM t").unwrap();
        assert!(execute(&q, &schema(), rows().into_iter().map(Ok)).is_err());
    }

    #[test]
    fn result_set_to_csv() {
        let rs = run("SELECT vid FROM t WHERE state LIKE 'FRA' ORDER BY date");
        let csv = rs.to_csv();
        assert!(csv.starts_with("vid\n"));
        assert_eq!(csv.matches("m2").count(), 2);
    }
}

#[cfg(test)]
mod distinct_having_tests {
    use super::*;
    use crate::parser::parse;
    use scoop_csv::schema::{DataType, Field};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("city", DataType::Str),
            Field::new("state", DataType::Str),
            Field::new("index", DataType::Float),
        ])
    }

    fn rows() -> Vec<Vec<Value>> {
        let mk = |city: &str, state: &str, idx: f64| {
            vec![
                Value::Str(city.into()),
                Value::Str(state.into()),
                Value::Float(idx),
            ]
        };
        vec![
            mk("Rotterdam", "NLD", 10.0),
            mk("Rotterdam", "NLD", 20.0),
            mk("Paris", "FRA", 5.0),
            mk("Paris", "FRA", 6.0),
            mk("Nice", "FRA", 1.0),
        ]
    }

    fn run(sql: &str) -> ResultSet {
        let q = parse(sql).unwrap();
        execute(&q, &schema(), rows().into_iter().map(Ok)).unwrap()
    }

    #[test]
    fn select_distinct_dedups() {
        let rs = run("SELECT DISTINCT state FROM t ORDER BY state");
        assert_eq!(rs.rows.len(), 2);
        assert_eq!(rs.rows[0][0], Value::Str("FRA".into()));
        let rs = run("SELECT DISTINCT city, state FROM t");
        assert_eq!(rs.rows.len(), 3);
        // Without DISTINCT all rows come through.
        assert_eq!(run("SELECT state FROM t").rows.len(), 5);
    }

    #[test]
    fn having_filters_groups() {
        let rs = run(
            "SELECT city, count(*) as n FROM t GROUP BY city \
             HAVING count(*) > 1 ORDER BY city",
        );
        assert_eq!(rs.rows.len(), 2);
        assert_eq!(rs.rows[0][0], Value::Str("Paris".into()));
        // HAVING may reference aggregates absent from the select list.
        let rs = run(
            "SELECT city FROM t GROUP BY city HAVING sum(index) >= 11 ORDER BY city",
        );
        assert_eq!(rs.rows.len(), 2); // Paris (11), Rotterdam (30)
    }

    #[test]
    fn having_with_group_key_predicate() {
        let rs = run(
            "SELECT state, sum(index) as s FROM t GROUP BY state \
             HAVING state LIKE 'F%' ORDER BY state",
        );
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][1], Value::Float(12.0));
    }

    #[test]
    fn distinct_on_aggregate_output() {
        // Two groups with equal aggregate values collapse under DISTINCT.
        let rs = run(
            "SELECT DISTINCT count(*) as n FROM t GROUP BY city ORDER BY n",
        );
        assert_eq!(rs.rows.len(), 2); // n=1 (Nice), n=2 (Paris, Rotterdam)
    }

    #[test]
    fn having_without_group_by_on_global_aggregate() {
        assert_eq!(
            run("SELECT count(*) as n FROM t HAVING count(*) > 10").rows.len(),
            0
        );
        assert_eq!(
            run("SELECT count(*) as n FROM t HAVING count(*) > 1").rows.len(),
            1
        );
    }
}

#[cfg(test)]
mod empty_aggregate_tests {
    use super::*;
    use crate::parser::parse;
    use scoop_csv::schema::{DataType, Field};

    #[test]
    fn global_aggregate_over_zero_rows_yields_one_row() {
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
        let q = parse("SELECT count(*) as n, sum(x) as s, min(x) as lo FROM t").unwrap();
        let rs = execute(&q, &schema, std::iter::empty()).unwrap();
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][0], Value::Int(0));
        assert!(rs.rows[0][1].is_null());
        assert!(rs.rows[0][2].is_null());
        // With GROUP BY, zero rows still mean zero groups.
        let q = parse("SELECT x, count(*) FROM t GROUP BY x").unwrap();
        let rs = execute(&q, &schema, std::iter::empty()).unwrap();
        assert!(rs.is_empty());
        // WHERE that excludes everything behaves the same.
        let q = parse("SELECT count(*) as n FROM t WHERE x > 100").unwrap();
        let rs = execute(&q, &schema, vec![Ok(vec![Value::Int(1)])].into_iter()).unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(0));
    }
}
