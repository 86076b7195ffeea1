//! Typed column batches: the unit every scan hands the SQL executor.
//!
//! A [`ColumnBatch`] holds a run of rows column by column. A numeric column
//! is an `f64` or `i64` [`Lane`] with a validity mask; a string column is a
//! lane of byte spans into the batch's input bytes (the CSV slice the rows
//! were split from), with a small side arena for the cells that are not a
//! plain sub-slice of it. A column whose cells do not all type to its lane —
//! an unparsable field in a `Float` column, a mixed column of a packed row
//! set — falls back to [`Column::Values`] for that batch only, so a batch
//! always holds exactly the [`Value`]s the row-at-a-time path would have
//! built. Aggregates fold whole lanes or single cells ([`Lane::get`],
//! [`StrLane::get`]), group keys are written from cell bytes; anything else
//! reads a row view ([`ColumnBatch::cells_into`]), which builds `Value`s on
//! demand.

use crate::schema::{DataType, Schema};
use crate::smallstr::SmallStr;
use crate::value::{parse_f64_window, Value};
use crate::view::RecordView;
use bytes::Bytes;
use scoop_common::Result;

/// Rows per batch where a producer chooses: a scan that keeps few of the
/// records it reads gathers survivors up to this many, and a row iterator
/// packed into batches is cut at it.
pub const BATCH_ROWS: usize = 1024;

/// A run of rows, column by column.
#[derive(Debug, Clone, Default)]
pub struct ColumnBatch {
    rows: usize,
    columns: Vec<Column>,
}

/// One column of a [`ColumnBatch`].
#[derive(Debug, Clone)]
pub enum Column {
    /// Floats.
    F64(Lane<f64>),
    /// Integers.
    I64(Lane<i64>),
    /// Strings as spans of valid UTF-8.
    Str(StrLane),
    /// A column that does not type to a lane in this batch.
    Values(Vec<Value>),
}

/// A numeric column: one value per row (the default under a NULL) and one
/// flag per row, false where the cell is NULL.
#[derive(Debug, Clone, Default)]
pub struct Lane<T> {
    /// One value per row.
    pub values: Vec<T>,
    /// One flag per row: true when the cell is not NULL.
    pub valid: Vec<bool>,
}

impl<T: Copy + Default> Lane<T> {
    /// Row `i`'s cell; `None` for NULL (or past the lane).
    #[inline]
    pub fn get(&self, i: usize) -> Option<T> {
        match (self.valid.get(i), self.values.get(i)) {
            (Some(true), Some(&v)) => Some(v),
            _ => None,
        }
    }

    /// The cells `selection` keeps, in order.
    pub fn cells<'a>(&'a self, selection: &'a Selection) -> impl Iterator<Item = Option<T>> + 'a {
        let all = self.values.iter().zip(&self.valid).map(|(&v, &ok)| ok.then_some(v));
        selection.pick(all, move |i| self.get(i))
    }

    fn push(&mut self, v: Option<T>) {
        self.values.push(v.unwrap_or_default());
        self.valid.push(v.is_some());
    }

}

/// A string column: one span per row, `None` for NULL. A span is a range of
/// one byte space: the batch's input bytes, then the lane's arena.
#[derive(Debug, Clone, Default)]
pub struct StrLane {
    input: Bytes,
    arena: Vec<u8>,
    spans: Vec<Option<(u32, u32)>>,
}

impl StrLane {
    /// The bytes of row `i`'s cell (valid UTF-8, borrowed from the lane);
    /// `None` for NULL (or past the lane).
    #[inline]
    pub fn get(&self, i: usize) -> Option<&[u8]> {
        self.text(*self.spans.get(i)?)
    }

    /// The cells `selection` keeps, in order.
    pub fn cells<'a>(&'a self, selection: &'a Selection) -> impl Iterator<Item = Option<&'a [u8]>> {
        selection.pick(self.spans.iter().map(|&span| self.text(span)), move |i| self.get(i))
    }

    /// The bytes a span covers.
    #[inline]
    fn text(&self, span: Option<(u32, u32)>) -> Option<&[u8]> {
        let (start, end) = span?;
        let (start, end) = (start as usize, end as usize);
        match start.checked_sub(self.input.len()) {
            None => self.input.get(start..end),
            Some(at) => self.arena.get(at..end.checked_sub(self.input.len())?),
        }
    }

    /// Row `i`'s cell as a [`Value`]: one fixed-size copy from the lane's
    /// bytes (see [`SmallStr::from_utf8_window`]).
    #[inline]
    fn value(&self, i: usize) -> Value {
        let Some(&Some((start, end))) = self.spans.get(i) else {
            return Value::Null;
        };
        let (start, len) = (start as usize, end.saturating_sub(start) as usize);
        let rest = match start.checked_sub(self.input.len()) {
            None => self.input.get(start..),
            Some(at) => self.arena.get(at..),
        };
        rest.map_or(Value::Null, |rest| Value::Str(SmallStr::from_utf8_window(rest, len)))
    }

    /// Append a cell of `text` (valid UTF-8) copied into the arena; false
    /// when the byte space no longer fits a `u32`.
    fn push_copy(&mut self, text: &[u8]) -> bool {
        let start = self.input.len().saturating_add(self.arena.len());
        match (u32::try_from(start), u32::try_from(start.saturating_add(text.len()))) {
            (Ok(start), Ok(end)) => {
                self.arena.extend_from_slice(text);
                self.spans.push(Some((start, end)));
                true
            }
            _ => false,
        }
    }
}

/// The rows of a batch a filter keeps, in row order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Selection {
    /// Every row of a batch of this many.
    All(usize),
    /// These rows, ascending.
    Rows(Vec<usize>),
}

impl Selection {
    /// Rows selected.
    pub fn len(&self) -> usize {
        match self {
            Selection::All(n) => *n,
            Selection::Rows(rows) => rows.len(),
        }
    }

    /// True when no row is selected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Keep only the first `n` selected rows.
    pub fn truncate(&mut self, n: usize) {
        match self {
            Selection::All(rows) if n < *rows => *self = Selection::Rows((0..n).collect()),
            Selection::All(_) => {}
            Selection::Rows(rows) => rows.truncate(n),
        }
    }

    /// The selected rows, ascending.
    pub fn rows(&self) -> impl Iterator<Item = usize> + '_ {
        self.pick(0..self.len(), |i| i)
    }

    /// The selected items: `all` in order for every row, `at(i)` for each
    /// selected row `i` otherwise.
    fn pick<'a, T>(
        &'a self,
        all: impl Iterator<Item = T> + 'a,
        at: impl Fn(usize) -> T + 'a,
    ) -> impl Iterator<Item = T> + 'a {
        let (all, rows) = match self {
            Selection::All(_) => (Some(all), &[][..]),
            Selection::Rows(rows) => (None, rows.as_slice()),
        };
        all.into_iter().flatten().chain(rows.iter().map(move |&i| at(i)))
    }
}

impl Column {
    /// An empty column of `dtype`; a string lane's spans index `input`.
    pub fn new(dtype: DataType, input: &Bytes) -> Column {
        match dtype {
            DataType::Float => Column::F64(Lane::default()),
            DataType::Int => Column::I64(Lane::default()),
            DataType::Str => Column::Str(StrLane { input: input.clone(), ..StrLane::default() }),
        }
    }

    /// Rows in the column.
    pub fn len(&self) -> usize {
        match self {
            Column::F64(lane) => lane.valid.len(),
            Column::I64(lane) => lane.valid.len(),
            Column::Str(lane) => lane.spans.len(),
            Column::Values(values) => values.len(),
        }
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row `i`'s cell as a [`Value`]; NULL past the column.
    #[inline]
    pub fn value(&self, i: usize) -> Value {
        match self {
            Column::F64(lane) => lane.get(i).map_or(Value::Null, Value::Float),
            Column::I64(lane) => lane.get(i).map_or(Value::Null, Value::Int),
            Column::Str(lane) => lane.value(i),
            Column::Values(values) => values.get(i).cloned().unwrap_or(Value::Null),
        }
    }

    /// Append a cell. One its lane cannot hold turns the column into
    /// [`Column::Values`], keeping the cells it had.
    #[inline]
    pub fn push(&mut self, v: Value) {
        match (&mut *self, v) {
            (Column::F64(lane), Value::Float(x)) => lane.push(Some(x)),
            (Column::F64(lane), Value::Null) => lane.push(None),
            (Column::I64(lane), Value::Int(x)) => lane.push(Some(x)),
            (Column::I64(lane), Value::Null) => lane.push(None),
            (Column::Str(lane), Value::Null) => lane.spans.push(None),
            (Column::Str(lane), Value::Str(s)) => {
                if !lane.push_copy(s.as_bytes()) {
                    self.spill_push(Value::Str(s));
                }
            }
            (Column::Values(values), v) => values.push(v),
            (_, v) => self.spill_push(v),
        }
    }

    #[cold]
    fn spill_push(&mut self, v: Value) {
        let mut values: Vec<Value> = (0..self.len()).map(|i| self.value(i)).collect();
        values.push(v);
        *self = Column::Values(values);
    }

    /// Append a raw CSV field with [`Value::parse_field_bytes`] semantics for
    /// `dtype`: empty is NULL, an unparsable number a string, invalid UTF-8
    /// lossily decoded.
    fn push_field(&mut self, field: &[u8], dtype: DataType) {
        match self {
            Column::Str(lane) if !field.is_empty() => {
                if !lane.push_copy(String::from_utf8_lossy(field).as_bytes()) {
                    self.push(Value::parse_field_bytes(field, dtype));
                }
            }
            _ => self.push(Value::parse_field_bytes(field, dtype)),
        }
    }

    /// Append field `start..end` of a record that lies at `at` in the input
    /// (`None` when it does not) and is ASCII when `ascii`.
    #[inline]
    fn push_record_field(
        &mut self,
        record: &[u8],
        (start, end): (usize, usize),
        at: Option<usize>,
        ascii: bool,
        dtype: DataType,
    ) {
        let field = record.get(start..end).unwrap_or_default();
        match self {
            Column::Str(lane) if field.is_empty() => lane.spans.push(None),
            Column::Str(lane) => match at.filter(|_| ascii || std::str::from_utf8(field).is_ok()) {
                // `offset_in` checked that the input fits `u32` spans.
                Some(at) => {
                    let span = (at.saturating_add(start) as u32, at.saturating_add(end) as u32);
                    lane.spans.push(Some(span));
                }
                None => self.push_field(field, dtype),
            },
            // Short floats parse from one over-read word; anything the
            // window parser declines takes the general path.
            Column::F64(lane) => {
                match parse_f64_window(record.get(start..).unwrap_or_default(), field.len()) {
                    Some(v) => lane.push(Some(v)),
                    None => self.push(Value::parse_field_bytes(field, dtype)),
                }
            }
            _ => self.push_field(field, dtype),
        }
    }

}

impl ColumnBatch {
    /// A batch of `rows` rows over `columns` (each `rows` long).
    pub fn new(rows: usize, columns: Vec<Column>) -> ColumnBatch {
        ColumnBatch { rows, columns }
    }

    /// Pack rows into a batch typed by `schema`: a column becomes a lane when
    /// its cells allow, [`Column::Values`] otherwise. A row shorter than the
    /// schema reads as NULL past its end; extra values are dropped.
    pub fn from_rows(schema: &Schema, rows: impl IntoIterator<Item = Vec<Value>>) -> ColumnBatch {
        let mut batch = BatchBuilder::new(schema, Bytes::new());
        for row in rows {
            let mut row = row.into_iter();
            batch.columns.iter_mut().for_each(|c| c.push(row.next().unwrap_or(Value::Null)));
            batch.rows = batch.rows.saturating_add(1);
        }
        batch.finish()
    }

    /// Rows in the batch.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column `i`.
    pub fn column(&self, i: usize) -> Option<&Column> {
        self.columns.get(i)
    }

    /// Write row `i`'s cells of `columns` into `out`, a row view an
    /// expression without a lane kernel evaluates on: `out` is first made
    /// as wide as the batch, and a column not listed keeps what it held
    /// (NULL in a fresh view), so a view reused across rows costs only the
    /// cells its reader needs.
    #[inline]
    pub fn cells_into(&self, i: usize, columns: &[usize], out: &mut Vec<Value>) {
        out.resize(self.columns.len(), Value::Null);
        for &c in columns {
            if let (Some(cell), Some(column)) = (out.get_mut(c), self.columns.get(c)) {
                *cell = column.value(i);
            }
        }
    }

    /// Row `i` as a fresh `Vec<Value>`; `None` past the batch.
    pub fn row(&self, i: usize) -> Option<Vec<Value>> {
        (i < self.rows).then(|| self.columns.iter().map(|c| c.value(i)).collect())
    }

    /// Every row, in order, one fresh `Vec<Value>` each.
    pub fn to_rows(&self) -> impl Iterator<Item = Vec<Value>> + '_ {
        (0..self.rows).filter_map(|i| self.row(i))
    }
}

/// Hands out the rows of a sequence of batches one `Vec<Value>` at a time:
/// the row adapter over a batch source.
#[derive(Debug, Default)]
pub struct RowCursor {
    batch: ColumnBatch,
    next: usize,
}

impl RowCursor {
    /// The next row, pulling a batch from `next_batch` when the current one
    /// is used up; `None` once it is exhausted.
    pub fn next_row(
        &mut self,
        mut next_batch: impl FnMut() -> Result<Option<ColumnBatch>>,
    ) -> Option<Result<Vec<Value>>> {
        loop {
            if let Some(row) = self.batch.row(self.next) {
                self.next = self.next.saturating_add(1);
                return Some(Ok(row));
            }
            match next_batch() {
                Ok(Some(batch)) => *self = RowCursor { batch, next: 0 },
                Ok(None) => return None,
                Err(e) => return Some(Err(e)),
            }
        }
    }
}

/// Types records into a [`ColumnBatch`] of a schema's columns.
#[derive(Debug)]
pub struct BatchBuilder {
    input: Bytes,
    /// The whole input is ASCII, so every record in it is.
    ascii: bool,
    dtypes: Vec<DataType>,
    columns: Vec<Column>,
    rows: usize,
}

impl BatchBuilder {
    /// An empty batch of `schema`'s columns whose string spans index `input`
    /// (the slice the records are split from, or empty).
    pub fn new(schema: &Schema, input: Bytes) -> BatchBuilder {
        let dtypes: Vec<DataType> = schema.fields.iter().map(|f| f.dtype).collect();
        let columns = dtypes.iter().map(|&d| Column::new(d, &input)).collect();
        // One word-at-a-time sweep per input slice licenses spanning every
        // string field of every record in it without a per-field validation.
        BatchBuilder { ascii: input.is_ascii(), input, dtypes, columns, rows: 0 }
    }

    /// Rows typed so far.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Type a quote-free record given its comma offsets, as produced by the
    /// fused scanner ([`crate::record::RecordSplitter::push_rows`]): field
    /// `i` is the byte range between comma `i-1` and comma `i`. Extra fields
    /// are dropped; missing fields are NULL. A record that is a slice of the
    /// input has its string cells spanned in place; any other is copied.
    pub fn push_commas(&mut self, record: &[u8], commas: &[u32]) {
        let at = offset_in(&self.input, record);
        let ascii = (self.ascii && at.is_some()) || record.is_ascii();
        let mut start = 0usize;
        for (i, (column, &dtype)) in self.columns.iter_mut().zip(&self.dtypes).enumerate() {
            if let Some(prev) = i.checked_sub(1) {
                match commas.get(prev) {
                    Some(&c) => start = (c as usize).saturating_add(1),
                    // Fewer commas than fields: this field is missing.
                    None => {
                        column.push(Value::Null);
                        continue;
                    }
                }
            }
            let end = commas.get(i).map_or(record.len(), |&c| c as usize);
            column.push_record_field(record, (start, end), at, ascii, dtype);
        }
        self.rows = self.rows.saturating_add(1);
    }

    /// Type the fields `fields` of a parsed record, in that order, one per
    /// column: the general path for quoted records, records that straddle
    /// an input slice, and projected scans. A field past the record is NULL.
    pub fn push_view(&mut self, view: &RecordView<'_, '_>, fields: impl IntoIterator<Item = usize>) {
        for ((column, &dtype), i) in self.columns.iter_mut().zip(&self.dtypes).zip(fields) {
            // Unquoted fields skip the Cow wrapper entirely.
            match view.plain_bytes(i) {
                Some(raw) => column.push_field(raw, dtype),
                None => match view.bytes(i) {
                    Some(raw) => column.push_field(&raw, dtype),
                    None => column.push(Value::Null),
                },
            }
        }
        self.rows = self.rows.saturating_add(1);
    }

    /// The finished batch.
    pub fn finish(self) -> ColumnBatch {
        ColumnBatch { rows: self.rows, columns: self.columns }
    }
}

/// Where `record` starts in `input`, when it is a slice of an input small
/// enough for `u32` spans.
fn offset_in(input: &[u8], record: &[u8]) -> Option<usize> {
    let at = (record.as_ptr() as usize).checked_sub(input.as_ptr() as usize)?;
    let fits = at.checked_add(record.len())? <= input.len() && u32::try_from(input.len()).is_ok();
    fits.then_some(at)
}
