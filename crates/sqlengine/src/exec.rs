//! Query execution over typed column batches.
//!
//! One executor runs every query, Spark-stage style: [`Executor::new`] binds
//! the query once; each task folds its partition's batches into a
//! [`Partial`] ([`Executor::update_batch`], the map side); the driver merges
//! the tasks' partials in task order ([`Executor::merge`]) and finalizes
//! ([`Executor::finalize`]). Whether the query aggregates is decided here,
//! in `Executor::new`, and nowhere upstream: an aggregate's partial is a group
//! table (map-side combine), any other query's is its projected output rows
//! and their `ORDER BY` keys. [`execute`] / [`execute_with_where`] run a
//! whole query over one row iterator by packing it into batches and folding
//! them through the same executor.
//!
//! Every expression is bound to the scan schema once per query
//! ([`crate::bound`]) and only evaluated per row. Aggregation reads lanes
//! where it can. A global aggregate whose every call reads a bare column
//! folds the batch's lanes whole ([`AggState::update_column`]). A grouped one
//! finds each row's group by bytes: `Aggregator::new` compiles every `GROUP
//! BY` expression that is a column or `SUBSTRING(column, lit, lit)` into a
//! key kernel, which writes the key part straight from the cell's lane (a
//! substring of an ASCII string cell is span arithmetic); any other part is
//! evaluated on a row view and encoded the same way. The group table is one
//! byte arena of keys, hashed and compared as bytes, beside one accumulator
//! column per aggregate call, each as small as its function's state and
//! folded cell by cell from the lanes. Output, `HAVING` and `ORDER BY`
//! expressions read a `GROUP BY` expression as the group's decoded key
//! part, so a group keeps a representative row only when one of them reads
//! a column outside the keys and aggregates. A query that does not
//! aggregate evaluates its outputs and `ORDER BY` keys on a row view of the
//! columns they read; `SELECT *` hands the batch's row through.
//!
//! [`AggState::update_column`]: crate::functions::AggState::update_column

use crate::ast::{AggFunc, Expr, Query, SelectItem};
use crate::bound::{bind, bind_output, columns_of, AggCalls, Bound, RowFilter};
use crate::functions::{substring_of, substring_range, AggColumn};
use scoop_common::{Result, ScoopError};
use scoop_csv::batch::{Selection, BATCH_ROWS};
use scoop_csv::{Column, ColumnBatch, Schema, SmallStr, Value};
use std::cmp::Ordering;
use std::collections::hash_map::RandomState;
use std::collections::HashSet;
use std::hash::BuildHasher;
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

/// The tag byte each key part's encoding starts with.
const NULL_PART: u8 = 0;
const NUMBER_PART: u8 = 1;
const TEXT_PART: u8 = 2;

/// A row's group key as bytes, written part by part.
///
/// `key` is compared and hashed: two keys are equal exactly when their parts
/// are equal as `Value`s (`Value::total_cmp`). A part is a tag byte, then
/// nothing for NULL, the `f64` bits of a number (an `Int` as `f64`, the
/// coercion `Value`'s equality makes), or a string's length (`u32`) and
/// bytes. `exact` holds what `key` cannot: for each number in turn, whether
/// it is an `Int`, and if so its value (a large `Int` rounds as `f64`). A
/// group stores both, so its key decodes to the parts its first row had,
/// types included.
#[derive(Debug, Clone, Default)]
struct KeyBuf {
    key: Vec<u8>,
    exact: Vec<u8>,
}

impl KeyBuf {
    fn clear(&mut self) {
        self.key.clear();
        self.exact.clear();
    }

    fn null(&mut self) {
        self.key.push(NULL_PART);
    }

    #[inline]
    fn number(&mut self, x: f64, int: Option<i64>) {
        self.key.push(NUMBER_PART);
        self.key.extend_from_slice(&x.to_bits().to_le_bytes());
        match int {
            Some(i) => {
                self.exact.push(1);
                self.exact.extend_from_slice(&i.to_le_bytes());
            }
            None => self.exact.push(0),
        }
    }

    /// A string part. No cell reaches 4 GiB (a record is capped far below),
    /// so its length fits the `u32` prefix.
    #[inline]
    fn text(&mut self, text: &[u8]) {
        self.key.push(TEXT_PART);
        self.key.extend_from_slice(&(text.len() as u32).to_le_bytes());
        self.key.extend_from_slice(text);
    }

    fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.null(),
            Value::Int(i) => self.number(*i as f64, Some(*i)),
            Value::Float(x) => self.number(*x, None),
            Value::Str(s) => self.text(s.as_bytes()),
        }
    }

    /// Row `i`'s cell of `column` (NULL past the batch), from its lane.
    #[inline]
    fn cell(&mut self, column: Option<&Column>, i: usize) {
        match column {
            Some(Column::Str(lane)) => match lane.get(i) {
                Some(text) => self.text(text),
                None => self.null(),
            },
            Some(Column::F64(lane)) => match lane.get(i) {
                Some(x) => self.number(x, None),
                None => self.null(),
            },
            Some(Column::I64(lane)) => match lane.get(i) {
                Some(x) => self.number(x as f64, Some(x)),
                None => self.null(),
            },
            Some(Column::Values(values)) => self.value(values.get(i).unwrap_or(&Value::Null)),
            None => self.null(),
        }
    }
}

/// Append the parts of a key and its exact bytes to `out`, as `Value`s.
fn decode_key(mut key: &[u8], mut exact: &[u8], out: &mut Vec<Value>) {
    while let Some((&tag, rest)) = key.split_first() {
        key = rest;
        out.push(match tag {
            NUMBER_PART => {
                let bits = take::<8>(&mut key).map(u64::from_le_bytes);
                let int = match take::<1>(&mut exact) {
                    Some([1]) => take::<8>(&mut exact).map(i64::from_le_bytes),
                    _ => None,
                };
                match (int, bits) {
                    (Some(i), _) => Value::Int(i),
                    (None, Some(bits)) => Value::Float(f64::from_bits(bits)),
                    (None, None) => Value::Null,
                }
            }
            TEXT_PART => {
                let len = take::<4>(&mut key).map_or(0, u32::from_le_bytes) as usize;
                let (text, rest) = key.split_at(len.min(key.len()));
                key = rest;
                Value::Str(SmallStr::from_utf8_lossy(text))
            }
            _ => Value::Null,
        });
    }
}

/// The first `N` bytes of `bytes`, which then starts after them.
fn take<const N: usize>(bytes: &mut &[u8]) -> Option<[u8; N]> {
    let (head, rest) = bytes.split_first_chunk::<N>()?;
    *bytes = rest;
    Some(*head)
}

/// How a `GROUP BY` expression writes its part of a batch row's key.
#[derive(Debug, Clone, Copy)]
enum KeyPart {
    /// A bare column: the cell, from its lane.
    Column(usize),
    /// `SUBSTRING(column, start, len)` with literal bounds: on a string lane,
    /// the bytes of the cell it keeps.
    Substr { column: usize, start: i64, len: i64 },
    /// Anything else: the expression, evaluated on the row view.
    Row,
}

impl KeyPart {
    fn of(expr: &Bound) -> KeyPart {
        match expr {
            Bound::Col(c) => KeyPart::Column(*c),
            Bound::Substr { text, start, len } => match **text {
                Bound::Col(column) => KeyPart::Substr { column, start: *start, len: *len },
                _ => KeyPart::Row,
            },
            _ => KeyPart::Row,
        }
    }
}

/// An aggregate's share of a [`Partial`]: a flat group table keyed by bytes.
///
/// Groups are numbered in the order their first row arrived. Group `g`'s
/// key bytes, accumulators and representative row are the `g`th entry of
/// `keys` and of each call's `states`, and the `g`th stride of `rows`; the
/// [`Aggregator`] fixes the stride (the representative row's width, which
/// is 0 unless an output needs one). A global aggregate has an empty key and
/// one group, number 0.
#[derive(Debug, Clone, Default)]
struct PartialAgg {
    /// Each group's key hash, by group number.
    hashes: Vec<u64>,
    /// Where each group's key starts and ends in `arena`; its exact bytes
    /// (see `KeyBuf`) run from that end to the next group's start.
    keys: Vec<(usize, usize)>,
    /// Every group's key and exact bytes, in group order.
    arena: Vec<u8>,
    /// Per distinct aggregate call, its accumulators: a column per call,
    /// each as small as the call's state.
    states: Vec<AggColumn>,
    /// Each group's first row, padded with NULL to the schema width, when
    /// an output reads a column outside the keys and aggregates.
    rows: Vec<Value>,
    /// Open addressing with linear probing: group numbers by hash, [`EMPTY`]
    /// where there is none. A power of two, at most half full.
    index: Vec<u32>,
    /// Scratch the current row's key is written in; it is copied into
    /// `arena` only for a group's first row.
    scratch: KeyBuf,
}

/// Group `g`'s key bytes and exact bytes, from a table's `keys` and `arena`.
fn group_key<'a>(keys: &[(usize, usize)], arena: &'a [u8], g: usize) -> (&'a [u8], &'a [u8]) {
    let Some(&(start, end)) = keys.get(g) else {
        return (&[], &[]);
    };
    let next = keys.get(g + 1).map_or(arena.len(), |&(next, _)| next);
    (arena.get(start..end).unwrap_or_default(), arena.get(end..next).unwrap_or_default())
}

impl PartialAgg {
    fn groups(&self) -> usize {
        self.hashes.len()
    }

    /// The group whose key is `key`, which hashes to `hash`.
    #[inline]
    fn find(&self, hash: u64, key: &[u8]) -> Option<usize> {
        let mask = self.index.len().checked_sub(1)?;
        let mut slot = hash as usize & mask;
        loop {
            let g = match self.index[slot] {
                EMPTY => return None,
                g => g as usize,
            };
            if self.hashes[g] == hash {
                let (start, end) = self.keys[g];
                if self.arena[start..end] == *key {
                    return Some(g);
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Number a new group of key `key` and exact bytes `exact`, and index it
    /// under `hash`. The caller appends its accumulators and row.
    fn push_group(&mut self, hash: u64, key: &[u8], exact: &[u8]) -> usize {
        let g = self.groups();
        if (g + 1) * 2 > self.index.len() {
            // Double the index and re-place every group by its stored hash.
            self.index = vec![EMPTY; (self.index.len() * 2).max(16)];
            for (g, &hash) in self.hashes.iter().enumerate() {
                place(&mut self.index, hash, g);
            }
        }
        self.hashes.push(hash);
        let start = self.arena.len();
        self.arena.extend_from_slice(key);
        self.keys.push((start, self.arena.len()));
        self.arena.extend_from_slice(exact);
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
    /// Anything else: evaluated on the row (for an aggregated query, on the
    /// group's key parts, aggregates and representative row).
    Expr(Bound),
}

impl OrderKey {
    /// The key's value where it is not an output: `None` for an output.
    fn eval(&self, row: &[Value], slots: &[Value]) -> Result<Option<Value>> {
        match self {
            OrderKey::Output(_) => Ok(None),
            OrderKey::Expr(e) => e.eval(row, slots).map(|v| Some(v.into_owned())),
        }
    }
}

/// The select item an `ORDER BY` column names by alias.
fn aliased_item(query: &Query, expr: &Expr) -> Option<usize> {
    let Expr::Column(name) = expr else { return None };
    query.items.iter().position(|it| it.alias.as_deref() == Some(name.as_str()))
}

/// Drives grouping + two-phase aggregation for an aggregate query. Every
/// expression is bound here, once, and every key part compiled;
/// `update_batch` and `finalize` only evaluate.
struct Aggregator {
    query: Query,
    /// The `GROUP BY` expressions: what a row's key is made of.
    group_by: Vec<Bound>,
    /// How each of them writes its key part from a batch.
    parts: Vec<KeyPart>,
    /// Function and argument of each distinct aggregate call appearing
    /// anywhere in the output, `HAVING` or `ORDER BY`.
    calls: Vec<(AggFunc, Option<Bound>)>,
    /// Output expressions, in which a `GROUP BY` expression reads its key
    /// part ([`Bound::Slot`]).
    items: Vec<Bound>,
    having: Option<Bound>,
    order_by: Vec<OrderKey>,
    /// For a global aggregate whose every call is `COUNT(*)` (`None`) or reads
    /// a bare column (its index): the lane each call folds.
    lanes: Option<Vec<Option<usize>>>,
    /// The columns the row-evaluated key parts and computed arguments read:
    /// all a row view needs to find a row's group and fold it.
    view: Vec<usize>,
    /// The columns the outputs read outside the keys and aggregates, which
    /// a group's representative row holds.
    rest: Vec<usize>,
    /// The stride of a representative row: the scan schema's width, or 0
    /// when `rest` is empty and no group keeps one.
    width: usize,
    /// Hashes the keys of every partial this aggregator makes, so a merge
    /// finds a group by the hash its partial stored. Keys come from the
    /// data, so the hash is the standard library's seeded one.
    hasher: RandomState,
}

impl Aggregator {
    /// Prepare for an aggregate query.
    fn new(query: &Query, schema: &Schema) -> Result<Aggregator> {
        if query.items.iter().any(|i| matches!(i.expr, Expr::Star)) {
            return Err(ScoopError::Sql("SELECT * cannot be aggregated".into()));
        }
        let mut aggs = AggCalls::default();
        aggs.keys = query.group_by.clone();
        let items: Vec<Bound> = query
            .items
            .iter()
            .map(|item| bind_output(&item.expr, schema, &mut aggs))
            .collect::<Result<_>>()?;
        let having =
            query.having.as_ref().map(|h| bind_output(h, schema, &mut aggs)).transpose()?;
        // ORDER BY: alias or identical select expression first, else
        // evaluated on the group.
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
        let parts: Vec<KeyPart> = group_by.iter().map(KeyPart::of).collect();
        let lane = |(_, arg): &(AggFunc, Option<Bound>)| match arg {
            None => Some(None),
            Some(Bound::Col(i)) => Some(Some(*i)),
            Some(_) => None,
        };
        let lanes = if group_by.is_empty() { aggs.calls.iter().map(lane).collect() } else { None };
        let computed = aggs.calls.iter().filter_map(|(_, arg)| arg.as_ref()).filter(|a| !matches!(a, Bound::Col(_)));
        let row_parts = group_by.iter().zip(&parts).filter(|(_, p)| matches!(p, KeyPart::Row));
        let view = columns_of(row_parts.map(|(g, _)| g).chain(computed));
        let rest = columns_of(
            items
                .iter()
                .chain(&having)
                .chain(order_by.iter().filter_map(|o| if let OrderKey::Expr(e) = o { Some(e) } else { None })),
        );
        Ok(Aggregator {
            query: query.clone(),
            group_by,
            parts,
            calls: aggs.calls,
            items,
            having,
            order_by,
            lanes,
            view,
            width: if rest.is_empty() { 0 } else { schema.len() },
            rest,
            hasher: RandomState::new(),
        })
    }

    /// The group keyed `key`, and whether it is new: a new group starts
    /// with fresh accumulators, and [`Aggregator::keep_row`] comes next.
    #[inline]
    fn group(&self, partial: &mut PartialAgg, key: &KeyBuf) -> (usize, bool) {
        let hash = self.hasher.hash_one(&key.key[..]);
        if let Some(g) = partial.find(hash, &key.key) {
            return (g, false);
        }
        let g = partial.push_group(hash, &key.key, &key.exact);
        if partial.states.len() != self.calls.len() {
            partial.states = self.calls.iter().map(|(func, _)| AggColumn::new(*func)).collect();
        }
        for states in &mut partial.states {
            states.push(states.fresh());
        }
        (g, true)
    }

    /// Keep `row` as the newest group's representative row, when groups
    /// keep one.
    fn keep_row(&self, partial: &mut PartialAgg, row: &[Value]) {
        if self.width > 0 {
            let end = partial.rows.len() + self.width;
            partial.rows.extend(row.iter().take(self.width).cloned());
            partial.rows.resize(end, Value::Null);
        }
    }

    /// Write row `i`'s key into `key`: a key kernel reads the batch's lane,
    /// any other part is evaluated on `row`, the row's view.
    #[inline]
    fn batch_key(&self, key: &mut KeyBuf, batch: &ColumnBatch, i: usize, row: &[Value]) -> Result<()> {
        key.clear();
        for (part, expr) in self.parts.iter().zip(&self.group_by) {
            match *part {
                KeyPart::Column(c) => key.cell(batch.column(c), i),
                KeyPart::Substr { column, start, len } => match batch.column(column) {
                    Some(Column::Str(lane)) => match lane.get(i) {
                        Some(text) => key.text(text.get(substring_range(text, start, len)).unwrap_or_default()),
                        None => key.null(),
                    },
                    other => {
                        let cell = other.map_or(Value::Null, |c| c.value(i));
                        key.value(&substring_of(&cell, start, len))
                    }
                },
                KeyPart::Row => key.value(&*expr.eval(row, &[])?),
            }
        }
        Ok(())
    }

    /// Fold a row into group `g`'s accumulators: a computed argument is
    /// evaluated on `row`, a bare column `c` is folded by `column(states, c)`.
    #[inline]
    fn fold(
        &self,
        partial: &mut PartialAgg,
        g: usize,
        row: &[Value],
        mut column: impl FnMut(&mut AggColumn, usize),
    ) -> Result<()> {
        for ((_, arg), states) in self.calls.iter().zip(&mut partial.states) {
            match arg {
                None => states.update_value(g, &ONE),
                Some(Bound::Col(c)) => column(states, *c),
                Some(a) => states.update_value(g, &*a.eval(row, &[])?),
            }
        }
        Ok(())
    }

    /// Fold the `selection` of a batch's rows into a partial, in row order.
    /// A global aggregate over bare columns folds the batch's lanes. Otherwise each
    /// selected row's key is written from the lanes by the key kernels (a
    /// part without one is evaluated on the row's view, which holds only the
    /// cells such parts and computed arguments read), and a bare column
    /// argument is folded from its lane. A new group's representative row,
    /// when groups keep one, gets the cells the outputs read (the others
    /// stay NULL, and nothing evaluates them).
    fn update_batch(
        &self,
        partial: &mut PartialAgg,
        batch: &ColumnBatch,
        selection: &Selection,
    ) -> Result<()> {
        let mut row = Vec::new();
        let Some(lanes) = &self.lanes else {
            let mut key = mem::take(&mut partial.scratch);
            let folded = selection.rows().try_for_each(|i| {
                if !self.view.is_empty() {
                    batch.cells_into(i, &self.view, &mut row);
                }
                self.batch_key(&mut key, batch, i, &row)?;
                let (g, new) = self.group(partial, &key);
                if new {
                    batch.cells_into(i, &self.rest, &mut row);
                    self.keep_row(partial, &row);
                }
                self.fold(partial, g, &row, |states, c| {
                    batch.column(c).into_iter().for_each(|column| states.update_cell(g, column, i))
                })
            });
            partial.scratch = key;
            return folded;
        };
        let Some(first) = selection.rows().next() else {
            return Ok(());
        };
        if partial.groups() == 0 {
            // The one group's representative row is its first row.
            batch.cells_into(first, &self.rest, &mut row);
            self.group(partial, &KeyBuf::default());
            self.keep_row(partial, &row);
        }
        for (states, lane) in partial.states.iter_mut().zip(lanes) {
            states.update(0, |state| match lane {
                None => (0..selection.len()).for_each(|_| state.update(&ONE)),
                Some(c) => batch.column(*c).into_iter().for_each(|col| state.update_column(col, selection)),
            });
        }
        Ok(())
    }

    /// Merge another partial of this aggregator into `into` (driver-side
    /// reduce). A group keeps the key types and representative row it saw
    /// first; a group new to `into` is numbered after the ones it has.
    fn merge(&self, into: &mut PartialAgg, other: PartialAgg) {
        if into.groups() == 0 {
            // Nothing to merge with: take the other table as it is.
            *into = other;
            return;
        }
        let PartialAgg { hashes, keys, arena, states, rows, .. } = other;
        let width = self.width;
        let mut states = states;
        let mut rows = rows.into_iter();
        for (h, &hash) in hashes.iter().enumerate() {
            let (key, exact) = group_key(&keys, &arena, h);
            match into.find(hash, key) {
                Some(g) => {
                    rows.by_ref().take(width).for_each(drop);
                    for (dst, src) in into.states.iter_mut().zip(&mut states) {
                        let src = src.take(h);
                        dst.update(g, |dst| dst.merge(&src));
                    }
                }
                None => {
                    into.push_group(hash, key, exact);
                    for (dst, src) in into.states.iter_mut().zip(&mut states) {
                        dst.push(src.take(h));
                    }
                    into.rows.extend(rows.by_ref().take(width));
                }
            }
        }
    }

    /// Finalize: evaluate output expressions per group on its decoded key
    /// parts and finished aggregates (and representative row, if kept),
    /// then `DISTINCT`, `ORDER BY` and `LIMIT`. Rows that tie on the
    /// `ORDER BY` keys come out in group order, i.e. in the order their
    /// groups were first seen.
    fn finalize(&self, mut partial: PartialAgg) -> Result<ResultSet> {
        let columns: Vec<String> =
            self.query.items.iter().map(SelectItem::output_name).collect();
        // SQL: a global aggregate over zero rows still yields one row —
        // COUNT is 0, the other aggregates NULL.
        if self.group_by.is_empty() && partial.groups() == 0 {
            self.group(&mut partial, &KeyBuf::default());
            self.keep_row(&mut partial, &[]);
        }
        let (calls, width) = (self.calls.len(), self.width);
        let groups = partial.groups();
        // The output rows of the groups HAVING keeps, and their ORDER BY
        // keys that are not outputs, flat.
        let mut rows: Vec<Vec<Value>> = Vec::with_capacity(groups);
        let exprs = self.order_by.iter().filter(|o| matches!(o, OrderKey::Expr(_))).count();
        let mut sort_keys: Vec<Value> = Vec::with_capacity(groups * exprs);
        let mut slots: Vec<Value> = Vec::with_capacity(self.group_by.len() + calls);
        for g in 0..groups {
            let row = partial.rows.get(g * width..(g + 1) * width).unwrap_or_default();
            slots.clear();
            let (key, exact) = group_key(&partial.keys, &partial.arena, g);
            decode_key(key, exact, &mut slots);
            slots.extend(partial.states.iter().map(|states| states.finish(g)));
            // HAVING: post-aggregation filter (truthy = keep).
            if let Some(h) = &self.having {
                if !matches!(h.eval(row, &slots)?.as_f64(), Some(f) if f != 0.0) {
                    continue;
                }
            }
            let mut out = Vec::with_capacity(self.items.len());
            for item in &self.items {
                out.push(item.eval(row, &slots)?.into_owned());
            }
            rows.push(out);
            for o in &self.order_by {
                sort_keys.extend(o.eval(row, &slots)?);
            }
        }
        Ok(ResultSet { columns, rows: finish_order(&self.query, &self.order_by, rows, &sort_keys) })
    }
}

/// Projects the rows of a query that does not aggregate. Every expression
/// is bound here, once; `update_batch` only evaluates.
struct Projection {
    query: Query,
    /// Output column names.
    columns: Vec<String>,
    /// Output expressions; `None` for `SELECT *`, which hands a row through.
    items: Option<Vec<Bound>>,
    order_by: Vec<OrderKey>,
    /// The columns the outputs and `ORDER BY` keys read: all a row view
    /// needs.
    view: Vec<usize>,
}

impl Projection {
    fn new(query: &Query, schema: &Schema) -> Result<Projection> {
        let (columns, items) = if query.items.iter().any(|i| matches!(i.expr, Expr::Star)) {
            (schema.names().iter().map(|s| s.to_string()).collect(), None)
        } else {
            (
                query.items.iter().map(SelectItem::output_name).collect(),
                Some(query.items.iter().map(|i| bind(&i.expr, schema)).collect::<Result<Vec<_>>>()?),
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
        let keys = order_by.iter().filter_map(|o| if let OrderKey::Expr(e) = o { Some(e) } else { None });
        let view = columns_of(items.iter().flatten().chain(keys));
        Ok(Projection { query: query.clone(), columns, items, order_by, view })
    }

    /// Append the output row of each selected row, and its `ORDER BY` keys
    /// that are not outputs, in row order.
    fn update_batch(&self, partial: &mut Partial, batch: &ColumnBatch, selection: &Selection) -> Result<()> {
        let mut view = Vec::new();
        for i in selection.rows() {
            let out = match &self.items {
                None => batch.row(i).unwrap_or_default(),
                Some(items) => {
                    batch.cells_into(i, &self.view, &mut view);
                    let mut out = Vec::with_capacity(items.len());
                    for item in items {
                        out.push(item.eval(&view, &[])?.into_owned());
                    }
                    out
                }
            };
            // Under `SELECT *` the output is the whole row.
            let row = if self.items.is_some() { &view } else { &out };
            for o in &self.order_by {
                partial.sort_keys.extend(o.eval(row, &[])?);
            }
            partial.rows.push(out);
        }
        Ok(())
    }
}

/// One task's share of a query, folded by an [`Executor`]: for an
/// aggregate, its group table; for any other query, its projected output
/// rows and their `ORDER BY` keys, in scan order.
#[derive(Debug, Default)]
pub struct Partial {
    groups: PartialAgg,
    rows: Vec<Vec<Value>>,
    /// The `ORDER BY` keys of `rows` that are not outputs, flat, row by row.
    sort_keys: Vec<Value>,
}

/// How a query folds its rows.
enum Fold {
    Groups(Aggregator),
    Rows(Projection),
}

/// Runs one query as a Spark stage runs it: each task folds the batches it
/// scans into a [`Partial`] ([`Executor::update_batch`], map side), the
/// driver merges the tasks' partials in task order ([`Executor::merge`])
/// and finishes the query ([`Executor::finalize`]). Aggregate or not, a
/// caller drives it the same way.
pub struct Executor(Fold);

impl Executor {
    /// Bind `query` against `schema`, the schema of the batches it will
    /// fold. What the query itself gets wrong is reported here.
    pub fn new(query: &Query, schema: &Schema) -> Result<Executor> {
        Ok(Executor(if query.is_aggregate() {
            Fold::Groups(Aggregator::new(query, schema)?)
        } else {
            Fold::Rows(Projection::new(query, schema)?)
        }))
    }

    /// What the tasks and the driver do, as `EXPLAIN` prints it.
    pub fn stages(&self) -> &'static str {
        match self.0 {
            Fold::Groups(_) => "partial aggregation on workers → merge on driver",
            Fold::Rows(_) => "project on workers → sort/limit on driver",
        }
    }

    /// A fresh, empty partial.
    pub fn partial(&self) -> Partial {
        Partial::default()
    }

    /// CollectLimit: when the query is an unsorted, non-distinct `LIMIT n`
    /// that does not aggregate, any `n` rows the WHERE keeps are its
    /// answer, so a job may stop scanning once its tasks have folded `n`
    /// rows between them. `None` for any other query.
    pub fn early_limit(&self) -> Option<usize> {
        match &self.0 {
            Fold::Rows(p) if p.query.order_by.is_empty() && !p.query.distinct => p.query.limit,
            _ => None,
        }
    }

    /// Fold the `selection` of a batch's rows into `partial`, in row order.
    pub fn update_batch(&self, partial: &mut Partial, batch: &ColumnBatch, selection: &Selection) -> Result<()> {
        match &self.0 {
            Fold::Groups(agg) => agg.update_batch(&mut partial.groups, batch, selection),
            Fold::Rows(projection) => projection.update_batch(partial, batch, selection),
        }
    }

    /// Merge `other`, the partial of a later task, into `into` (driver-side
    /// reduce). Merging in task order keeps rows and groups in scan order,
    /// which is the order ties and an unsorted `LIMIT` come out in.
    pub fn merge(&self, into: &mut Partial, other: Partial) {
        match &self.0 {
            Fold::Groups(agg) => agg.merge(&mut into.groups, other.groups),
            Fold::Rows(_) => {
                into.rows.extend(other.rows);
                into.sort_keys.extend(other.sort_keys);
            }
        }
    }

    /// Finish the query: `HAVING` and the outputs per group for an
    /// aggregate, then `DISTINCT`, `ORDER BY` and `LIMIT`.
    pub fn finalize(&self, partial: Partial) -> Result<ResultSet> {
        match &self.0 {
            Fold::Groups(agg) => agg.finalize(partial.groups),
            Fold::Rows(p) => Ok(ResultSet {
                columns: p.columns.clone(),
                rows: finish_order(&p.query, &p.order_by, partial.rows, &partial.sort_keys),
            }),
        }
    }
}

/// DISTINCT, ORDER BY and LIMIT over result rows `rows`: the rows to emit,
/// in order. An `ORDER BY` key is the row's output it names, or the next of
/// the row's values in `sort_keys`, which holds the other keys in order, row
/// by row. DISTINCT keeps a row's first occurrence and the sort is stable,
/// so ties keep row order.
fn finish_order(query: &Query, order_by: &[OrderKey], mut rows: Vec<Vec<Value>>, sort_keys: &[Value]) -> Vec<Vec<Value>> {
    let mut order: Vec<u32> = (0..rows.len() as u32).collect();
    if query.distinct {
        let mut seen: HashSet<&[Value]> = HashSet::with_capacity(rows.len());
        order.retain(|&i| seen.insert(&rows[i as usize]));
    }
    if !order_by.is_empty() {
        // Where each key is: `Ok(output)`, or `Err(k)`, the kth of a row's
        // `stride` values in `sort_keys`.
        let mut stride = 0;
        let places: Vec<std::result::Result<usize, usize>> = order_by
            .iter()
            .map(|o| match o {
                OrderKey::Output(i) => Ok(*i),
                OrderKey::Expr(_) => {
                    stride += 1;
                    Err(stride - 1)
                }
            })
            .collect();
        let key = |i: u32, place: &std::result::Result<usize, usize>| {
            let i = i as usize;
            match *place {
                Ok(out) => rows.get(i).and_then(|row| row.get(out)),
                Err(k) => sort_keys.get(i * stride + k),
            }
            .unwrap_or(&Value::Null)
        };
        order.sort_by(|&a, &b| {
            for (place, o) in places.iter().zip(&query.order_by) {
                let ord = key(a, place).total_cmp(key(b, place));
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
    order.into_iter().map(|i| mem::take(&mut rows[i as usize])).collect()
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
/// mode, where the store already applied the pushed conjuncts): the rows
/// are packed into batches of [`BATCH_ROWS`] and folded by one task.
pub fn execute_with_where(
    query: &Query,
    schema: &Schema,
    where_clause: Option<&Expr>,
    rows: impl Iterator<Item = Result<Vec<Value>>>,
) -> Result<ResultSet> {
    let filter = RowFilter::bind(where_clause, schema)?;
    let exec = Executor::new(query, schema)?;
    let mut partial = exec.partial();
    let mut fold = |pack: Vec<Vec<Value>>| -> Result<()> {
        let batch = ColumnBatch::from_rows(schema, pack);
        exec.update_batch(&mut partial, &batch, &filter.select(&batch)?)
    };
    let mut pack = Vec::with_capacity(BATCH_ROWS);
    for row in rows {
        pack.push(row?);
        if pack.len() == BATCH_ROWS {
            fold(mem::replace(&mut pack, Vec::with_capacity(BATCH_ROWS)))?;
        }
    }
    fold(pack)?;
    exec.finalize(partial)
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

    /// Fold `rows` as a session does: a task per `chunk` rows, each folding
    /// its rows as one batch through the WHERE, the partials merged in task
    /// order.
    fn two_phase(exec: &Executor, q: &Query, schema: &Schema, rows: &[Vec<Value>], chunk: usize) -> ResultSet {
        let filter = RowFilter::bind(q.where_clause.as_ref(), schema).unwrap();
        let mut merged = exec.partial();
        for part in rows.chunks(chunk) {
            let mut partial = exec.partial();
            let batch = ColumnBatch::from_rows(schema, part.to_vec());
            exec.update_batch(&mut partial, &batch, &filter.select(&batch).unwrap()).unwrap();
            exec.merge(&mut merged, partial);
        }
        exec.finalize(merged).unwrap()
    }

    #[test]
    fn two_phase_equals_single_pass() {
        let schema = schema();
        for sql in [
            "SELECT vid, sum(index) as total, count(*) as n, min(date) as d \
             FROM t WHERE date LIKE '2015%' GROUP BY vid ORDER BY vid",
            "SELECT vid, index * 2 as twice FROM t WHERE index > 6 ORDER BY date DESC",
            "SELECT * FROM t WHERE city NOT LIKE 'Paris' LIMIT 2",
        ] {
            let q = parse(sql).unwrap();
            let single = execute(&q, &schema, rows().into_iter().map(Ok)).unwrap();
            let exec = Executor::new(&q, &schema).unwrap();
            assert_eq!(two_phase(&exec, &q, &schema, &rows(), 2), single, "{sql}");
        }
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
        // Two executors hash with different seeds; the order must not care,
        // nor how the rows are split into partials.
        for exec in [Executor::new(&q, &schema).unwrap(), Executor::new(&q, &schema).unwrap()] {
            for chunk in 1..=rows.len() {
                assert_eq!(two_phase(&exec, &q, &schema, &rows, chunk), single, "chunks of {chunk}");
            }
        }
    }

    #[test]
    fn table1_shapes_key_from_lanes_and_keep_no_row() {
        // Every part a key kernel, no row view, no representative row.
        for sql in [
            "SELECT vid, sum(index) as max, first_value(city) as city FROM t \
             WHERE date LIKE '2015-01%' GROUP BY SUBSTRING(date, 0, 7), vid \
             ORDER BY SUBSTRING(date, 0, 7), vid",
            "SELECT SUBSTRING(date, 0, 10) as sDate, state as vid, sum(index) as max FROM t \
             GROUP BY SUBSTRING(date, 0, 10), state ORDER BY SUBSTRING(date, 0, 10), state",
        ] {
            let agg = Aggregator::new(&parse(sql).unwrap(), &schema()).unwrap();
            assert!(agg.parts.iter().all(|p| !matches!(p, KeyPart::Row)), "{sql}");
            assert!(agg.view.is_empty() && agg.width == 0, "{sql}");
        }
        // An output that reads a column no key holds keeps one.
        let q = parse("SELECT upper(city) as c, count(*) FROM t GROUP BY vid").unwrap();
        assert_eq!(Aggregator::new(&q, &schema()).unwrap().width, 5);
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
