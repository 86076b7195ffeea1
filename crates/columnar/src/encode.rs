//! Column encodings and low-level serialization primitives.

use bytes::Bytes;
use scoop_common::{Result, ScoopError};
use scoop_csv::predicate::Operand;
use scoop_csv::batch::Column;
use scoop_csv::{DataType, Value};
use std::borrow::Cow;
use std::cmp::Ordering;

// ---------------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------------

/// Append a u32 little-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a u64 little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a LEB128 varint.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

/// Append a length-prefixed byte string.
pub fn put_bytes(out: &mut Vec<u8>, data: &[u8]) {
    put_varint(out, data.len() as u64);
    out.extend_from_slice(data);
}

/// Zigzag-encode a signed integer.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Zigzag-decode.
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Sequential reader over an encoded buffer.
pub struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Wrap a buffer.
    pub fn new(data: &'a [u8]) -> Self {
        Cursor { data, pos: 0 }
    }

    /// Current offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Remaining byte count.
    pub fn remaining(&self) -> usize {
        self.data.len().saturating_sub(self.pos)
    }

    /// Read a single byte.
    pub fn bytes_one(&mut self) -> Result<u8> {
        self.take(1)?
            .first()
            .copied()
            .ok_or_else(|| ScoopError::Corrupt("unexpected end of buffer".into()))
    }

    /// Read exactly `n` raw bytes.
    pub fn take_pub(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or_else(|| ScoopError::Corrupt("length overflows buffer offset".into()))?;
        let s = self
            .data
            .get(self.pos..end)
            .ok_or_else(|| ScoopError::Corrupt("unexpected end of buffer".into()))?;
        self.pos = end;
        Ok(s)
    }

    /// Read the entry count of a list whose every entry takes at least one
    /// byte: a count the rest of the buffer cannot hold is corrupt, not an
    /// allocation to attempt.
    pub fn count(&mut self, what: &str) -> Result<usize> {
        let n = self.varint()?;
        match usize::try_from(n) {
            Ok(n) if n <= self.remaining() => Ok(n),
            _ => Err(ScoopError::Corrupt(format!("{what} count {n} exceeds the buffer"))),
        }
    }

    /// Read a u32.
    pub fn u32(&mut self) -> Result<u32> {
        let b: [u8; 4] = self
            .take(4)?
            .try_into()
            .map_err(|_| ScoopError::Corrupt("short u32".into()))?;
        Ok(u32::from_le_bytes(b))
    }

    /// Read a u64.
    pub fn u64(&mut self) -> Result<u64> {
        let b: [u8; 8] = self
            .take(8)?
            .try_into()
            .map_err(|_| ScoopError::Corrupt("short u64".into()))?;
        Ok(u64::from_le_bytes(b))
    }

    /// Read a little-endian f64.
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a varint.
    pub fn varint(&mut self) -> Result<u64> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = *self
                .data
                .get(self.pos)
                .ok_or_else(|| ScoopError::Columnar("truncated varint".into()))?;
            self.pos += 1;
            if shift >= 64 {
                return Err(ScoopError::Columnar("varint overflow".into()));
            }
            v |= ((byte & 0x7f) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Read a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.varint()? as usize;
        self.take(len)
    }
}

// ---------------------------------------------------------------------------
// Column chunk encodings
// ---------------------------------------------------------------------------

/// Encoding tag stored per chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encoding {
    /// Length-prefixed UTF-8 strings.
    PlainStr = 0,
    /// Dictionary of unique strings + RLE-run indices.
    DictRle = 1,
    /// Zigzag varint deltas from the previous value.
    DeltaInt = 2,
    /// Raw little-endian f64.
    PlainFloat = 3,
    /// Run-length encoded f64: `(run_len varint, f64)*` — meter readings and
    /// coordinates repeat heavily.
    FloatRle = 4,
}

impl Encoding {
    /// Decode a tag byte.
    pub fn from_tag(tag: u8) -> Result<Encoding> {
        Ok(match tag {
            0 => Encoding::PlainStr,
            1 => Encoding::DictRle,
            2 => Encoding::DeltaInt,
            3 => Encoding::PlainFloat,
            4 => Encoding::FloatRle,
            other => {
                return Err(ScoopError::Columnar(format!("unknown encoding tag {other}")))
            }
        })
    }
}

/// Append the chunk of one row group's column to `out`, one cell per row
/// (`None` for NULL), and return its minimum and maximum non-null cells
/// (NULL when there are none). NULLs are carried in a validity bitmap; the
/// payload holds only the non-null cells in row order.
///
/// Encode layout: `tag u8 | n_rows varint | validity bitmap | payload`.
pub fn encode_column(cells: &[Option<Cell<'_>>], out: &mut Vec<u8>) -> (Value, Value) {
    // One walk classifies the column, which picks the encoding, and finds
    // its min and max.
    let (mut has_int, mut has_float, mut has_str) = (false, false, false);
    let (mut min, mut max): (Option<Cell<'_>>, Option<Cell<'_>>) = (None, None);
    for &cell in cells.iter().flatten() {
        match cell {
            Cell::Int(_) => has_int = true,
            Cell::Float(_) => has_float = true,
            Cell::Str(_) => has_str = true,
        }
        if min.is_none_or(|m| cell.total_cmp(&m).is_lt()) {
            min = Some(cell);
        }
        if max.is_none_or(|m| cell.total_cmp(&m).is_gt()) {
            max = Some(cell);
        }
    }
    let non_null = cells.iter().flatten();
    if has_str {
        // Strings: dictionary if it pays off. A column mixing strings with
        // numerics is stored stringly, each number rendered as [`Value`]
        // renders it — columnar columns are homogeneous, mirroring
        // Parquet's typed columns.
        let strings: Vec<Cow<'_, [u8]>> = non_null.map(Operand::text).collect();
        let (mut dict, mut index_of) = (Vec::new(), std::collections::HashMap::new());
        let codes: Vec<usize> = strings
            .iter()
            .map(|s| {
                *index_of.entry(s.as_ref()).or_insert_with(|| {
                    dict.push(s.as_ref());
                    dict.len().saturating_sub(1)
                })
            })
            .collect();
        if dict.len() <= strings.len() / 2 || dict.len() <= 256 {
            write_header(out, Encoding::DictRle, cells);
            put_varint(out, dict.len() as u64);
            dict.iter().for_each(|s| put_bytes(out, s));
            // RLE over dictionary codes: (code, run length)*.
            for run in codes.chunk_by(|a, b| a == b) {
                put_varint(out, run.first().copied().unwrap_or_default() as u64);
                put_varint(out, run.len() as u64);
            }
        } else {
            write_header(out, Encoding::PlainStr, cells);
            strings.iter().for_each(|s| put_bytes(out, s));
        }
    } else if has_int && !has_float {
        write_header(out, Encoding::DeltaInt, cells);
        let mut prev = 0i64;
        for &cell in non_null {
            // Classification guarantees Int here.
            let Cell::Int(i) = cell else { continue };
            put_varint(out, zigzag(i.wrapping_sub(prev)));
            prev = i;
        }
    } else {
        // Floats (or mixed numeric, or all-null): RLE when repeats pay off.
        let bits: Vec<u64> = non_null.map(|cell| cell.number().to_bits()).collect();
        let runs = bits.chunk_by(|a, b| a == b);
        if runs.clone().count().saturating_mul(9) < bits.len().saturating_mul(8) {
            write_header(out, Encoding::FloatRle, cells);
            for run in runs {
                put_varint(out, run.len() as u64);
                out.extend_from_slice(&run.first().copied().unwrap_or_default().to_le_bytes());
            }
        } else {
            write_header(out, Encoding::PlainFloat, cells);
            bits.iter().for_each(|b| out.extend_from_slice(&b.to_le_bytes()));
        }
    }
    let stat = |cell: Option<Cell<'_>>| cell.map_or(Value::Null, Cell::to_value);
    (stat(min), stat(max))
}

/// Encoding tag, row count and validity bitmap (bit `i % 8` of byte `i / 8`
/// set when row `i` is not NULL).
fn write_header(out: &mut Vec<u8>, encoding: Encoding, cells: &[Option<Cell<'_>>]) {
    out.push(encoding as u8);
    put_varint(out, cells.len() as u64);
    let byte = |rows: &[Option<Cell<'_>>]| {
        rows.iter().rev().fold(0u8, |b, cell| b << 1 | u8::from(cell.is_some()))
    };
    out.extend(cells.chunks(8).map(byte));
}

/// Typed payload of a batch-decoded column chunk. Arrays are *dense* — they
/// hold only the non-null entries, in row order; NULL positions live in the
/// validity bitmap of the owning [`DecodedColumn`].
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// Decoded [`Encoding::DeltaInt`].
    Int(Vec<i64>),
    /// Decoded [`Encoding::PlainFloat`] or [`Encoding::FloatRle`].
    Float(Vec<f64>),
    /// Decoded [`Encoding::PlainStr`].
    Str(Vec<String>),
    /// Decoded [`Encoding::DictRle`]: the unique values plus one dictionary
    /// code per dense entry. Kept unmaterialized so equality predicates can
    /// compare codes instead of strings.
    Dict {
        /// Unique values in first-appearance order.
        dict: Vec<String>,
        /// One dictionary index per dense entry.
        codes: Vec<u32>,
    },
}

/// A column chunk decoded as a batch: typed arrays plus a validity bitmap,
/// instead of one boxed [`Value`] per cell.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedColumn {
    n_rows: usize,
    validity: Vec<u8>,
    data: ColumnData,
}

impl DecodedColumn {
    /// Logical row count, including NULLs.
    pub fn len(&self) -> usize {
        self.n_rows
    }

    /// True when the chunk holds no rows.
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// Whether row `row` is non-null.
    pub fn is_valid(&self, row: usize) -> bool {
        self.validity
            .get(row / 8)
            .is_some_and(|b| b & (1 << (row % 8)) != 0)
    }

    /// The typed dense payload.
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// The dense (non-null) entry at position `k`, borrowed.
    fn dense_cell(&self, k: usize) -> Option<Cell<'_>> {
        match &self.data {
            ColumnData::Int(v) => v.get(k).map(|&i| Cell::Int(i)),
            ColumnData::Float(v) => v.get(k).map(|&f| Cell::Float(f)),
            ColumnData::Str(v) => v.get(k).map(|s| Cell::Str(s.as_bytes())),
            ColumnData::Dict { dict, codes } => codes
                .get(k)
                .and_then(|&c| dict.get(c as usize))
                .map(|s| Cell::Str(s.as_bytes())),
        }
    }

    /// True when no row is NULL, so a row's index is its dense index.
    fn is_dense(&self) -> bool {
        let entries = match &self.data {
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Str(v) => v.len(),
            ColumnData::Dict { codes, .. } => codes.len(),
        };
        entries == self.n_rows
    }

    /// The cells of `rows` (ascending row indices), `None` for NULL,
    /// borrowed from the chunk; the dense cursor walks the validity bitmap
    /// between them.
    fn cells<'s>(
        &'s self,
        rows: impl IntoIterator<Item = usize> + 's,
    ) -> impl Iterator<Item = Option<Cell<'s>>> + 's {
        let dense = self.is_dense();
        // `k` counts the non-null rows before row `at`.
        let (mut at, mut k) = (0usize, 0usize);
        rows.into_iter().map(move |row| {
            if dense {
                return self.dense_cell(row);
            }
            while at < row {
                k += usize::from(self.is_valid(at));
                at += 1;
            }
            self.is_valid(row).then(|| self.dense_cell(k)).flatten()
        })
    }

    /// Materialize the cells of `rows` (ascending row indices), NULLs
    /// included. Only these cells become a [`Value`].
    pub fn gather<'s>(
        &'s self,
        rows: impl IntoIterator<Item = usize> + 's,
    ) -> impl Iterator<Item = Value> + 's {
        self.cells(rows).map(|cell| cell.map_or(Value::Null, Cell::to_value))
    }

    /// The cells of `rows` (ascending row indices) as one column of a
    /// [`ColumnBatch`](scoop_csv::ColumnBatch): numbers into a typed lane,
    /// strings copied from the chunk into the lane's arena. No cell becomes
    /// a [`Value`] that holds a string.
    pub fn gather_column(&self, rows: &[usize]) -> Column {
        let dtype = match &self.data {
            ColumnData::Int(_) => DataType::Int,
            ColumnData::Float(_) => DataType::Float,
            ColumnData::Str(_) | ColumnData::Dict { .. } => DataType::Str,
        };
        let mut column = Column::new(dtype, &Bytes::new());
        for cell in self.cells(rows.iter().copied()) {
            match cell {
                Some(Cell::Str(text)) => column.push_text(text),
                cell => column.push(cell.map_or(Value::Null, Cell::to_value)),
            }
        }
        column
    }

    /// One flag per row: `test` of the cell, `on_null` for a NULL. A
    /// dictionary chunk runs `test` once per dictionary entry and maps the
    /// answers through the codes; the other encodings run it on the typed
    /// slice, borrowing strings. No cell becomes a [`Value`].
    pub fn test_rows(&self, test: impl Fn(Cell<'_>) -> bool, on_null: bool) -> Vec<bool> {
        match &self.data {
            ColumnData::Int(v) => self.spread(v.iter().map(|&i| test(Cell::Int(i))), on_null),
            ColumnData::Float(v) => self.spread(v.iter().map(|&f| test(Cell::Float(f))), on_null),
            ColumnData::Str(v) => {
                self.spread(v.iter().map(|s| test(Cell::Str(s.as_bytes()))), on_null)
            }
            ColumnData::Dict { dict, codes } => {
                let hits: Vec<bool> = dict.iter().map(|s| test(Cell::Str(s.as_bytes()))).collect();
                if !hits.contains(&true) && !on_null {
                    return vec![false; self.n_rows];
                }
                let entries = codes.iter().map(|&c| hits.get(c as usize).copied().unwrap_or(false));
                self.spread(entries, on_null)
            }
        }
    }

    /// Re-interleave NULL rows, as `on_null`, into one flag per dense entry.
    fn spread(&self, mut entries: impl Iterator<Item = bool>, on_null: bool) -> Vec<bool> {
        if self.is_dense() {
            return entries.collect();
        }
        (0..self.n_rows)
            .map(|row| if self.is_valid(row) { entries.next().unwrap_or(false) } else { on_null })
            .collect()
    }

    /// Re-interleave NULLs and materialize every cell — the row-at-a-time
    /// compatibility shape.
    pub fn to_values(&self) -> Vec<Value> {
        self.gather(0..self.n_rows).collect()
    }
}

/// One non-null cell, borrowed: from a decoded chunk on the read side, from
/// a batch [`Column`] on the write side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cell<'a> {
    /// An integer.
    Int(i64),
    /// A float.
    Float(f64),
    /// A string's bytes (valid UTF-8).
    Str(&'a [u8]),
}

impl<'a> Cell<'a> {
    /// `value` borrowed; `None` for NULL.
    pub fn of_value(value: &'a Value) -> Option<Cell<'a>> {
        match value {
            Value::Null => None,
            Value::Int(i) => Some(Cell::Int(*i)),
            Value::Float(f) => Some(Cell::Float(*f)),
            Value::Str(s) => Some(Cell::Str(s.as_bytes())),
        }
    }

    /// Row `i` of a batch column, borrowed from its lane (or its
    /// [`Column::Values`] cell); `None` for NULL or past the column.
    #[inline]
    pub fn of_column(column: &'a Column, i: usize) -> Option<Cell<'a>> {
        match column {
            Column::F64(lane) => lane.get(i).map(Cell::Float),
            Column::I64(lane) => lane.get(i).map(Cell::Int),
            Column::Str(lane) => lane.get(i).map(Cell::Str),
            Column::Values(values) => values.get(i).and_then(Cell::of_value),
        }
    }

    /// The cell as an owned [`Value`].
    pub fn to_value(self) -> Value {
        match self {
            Cell::Int(i) => Value::Int(i),
            Cell::Float(f) => Value::Float(f),
            Cell::Str(s) => Value::Str(String::from_utf8_lossy(s).into_owned()),
        }
    }

    /// A number cell as `f64`, an integer coerced as [`Value::as_f64`] does;
    /// NaN for a string.
    fn number(&self) -> f64 {
        match *self {
            Cell::Int(i) => i as f64,
            Cell::Float(f) => f,
            Cell::Str(_) => f64::NAN,
        }
    }

    /// [`Value::total_cmp`] over borrowed cells: numbers by
    /// [`f64::total_cmp`], an integer as `f64`, all below strings, which
    /// order by their bytes.
    pub fn total_cmp(&self, other: &Cell<'_>) -> Ordering {
        match (self, other) {
            (Cell::Str(a), Cell::Str(b)) => a.cmp(b),
            (Cell::Str(_), _) => Ordering::Greater,
            (_, Cell::Str(_)) => Ordering::Less,
            (a, b) => a.number().total_cmp(&b.number()),
        }
    }
}

/// A cell as a predicate leaf sees it: strings in byte order, numbers as
/// `f64`, and as its text a string as it is, a number as [`Value`] renders
/// it.
impl Operand for Cell<'_> {
    fn cmp_num(&self, n: f64) -> Option<Ordering> {
        match *self {
            Cell::Int(i) => (i as f64).partial_cmp(&n),
            Cell::Float(f) => f.partial_cmp(&n),
            Cell::Str(_) => None,
        }
    }

    fn cmp_str(&self, s: &str) -> Option<Ordering> {
        match *self {
            Cell::Str(cell) => Some(cell.cmp(s.as_bytes())),
            Cell::Int(_) | Cell::Float(_) => None,
        }
    }

    fn text(&self) -> Cow<'_, [u8]> {
        match *self {
            Cell::Str(s) => Cow::Borrowed(s),
            Cell::Int(i) => Cow::Owned(Value::Int(i).to_string().into_bytes()),
            Cell::Float(f) => Cow::Owned(Value::Float(f).to_string().into_bytes()),
        }
    }
}

/// Decode a column chunk into typed arrays: one pass per value or run, no
/// per-cell [`Value`] boxing, RLE runs expanded with `resize` rather than a
/// per-row push.
pub fn decode_column_batch(data: &[u8]) -> Result<DecodedColumn> {
    let mut c = Cursor::new(data);
    if data.is_empty() {
        return Err(ScoopError::Columnar("empty chunk".into()));
    }
    let tag = Encoding::from_tag(c.bytes_one()?)?;
    let n = c.varint()? as usize;
    let bitmap_len = n.div_ceil(8);
    let validity = c.take(bitmap_len)?.to_vec();
    let is_valid =
        |i: usize| validity.get(i / 8).is_some_and(|b| b & (1 << (i % 8)) != 0);
    let n_valid = (0..n).filter(|&i| is_valid(i)).count();

    let data = match tag {
        Encoding::DeltaInt => {
            let mut vals = Vec::with_capacity(n_valid);
            let mut prev = 0i64;
            for _ in 0..n_valid {
                prev = prev.wrapping_add(unzigzag(c.varint()?));
                vals.push(prev);
            }
            ColumnData::Int(vals)
        }
        Encoding::PlainFloat => {
            let mut vals = Vec::with_capacity(n_valid);
            for _ in 0..n_valid {
                vals.push(c.f64()?);
            }
            ColumnData::Float(vals)
        }
        Encoding::FloatRle => {
            let mut vals = Vec::with_capacity(n_valid);
            while vals.len() < n_valid {
                let run = c.varint()? as usize;
                let v = c.f64()?;
                let new_len = vals.len().saturating_add(run);
                if run == 0 || new_len > n_valid {
                    return Err(ScoopError::Corrupt("float RLE run overflow".into()));
                }
                vals.resize(new_len, v);
            }
            ColumnData::Float(vals)
        }
        Encoding::DictRle => {
            let dict_len = c.count("dictionary")?;
            let mut dict = Vec::with_capacity(dict_len);
            for _ in 0..dict_len {
                dict.push(String::from_utf8_lossy(c.bytes()?).into_owned());
            }
            let mut codes: Vec<u32> = Vec::with_capacity(n_valid);
            while codes.len() < n_valid {
                let idx = c.varint()? as usize;
                let run = c.varint()? as usize;
                if idx >= dict.len() {
                    return Err(ScoopError::Corrupt("dict index out of range".into()));
                }
                let new_len = codes.len().saturating_add(run);
                if run == 0 || new_len > n_valid {
                    return Err(ScoopError::Corrupt("RLE run overflow".into()));
                }
                codes.resize(new_len, idx as u32);
            }
            ColumnData::Dict { dict, codes }
        }
        Encoding::PlainStr => {
            let mut vals = Vec::with_capacity(n_valid);
            for _ in 0..n_valid {
                vals.push(String::from_utf8_lossy(c.bytes()?).into_owned());
            }
            ColumnData::Str(vals)
        }
    };
    Ok(DecodedColumn { n_rows: n, validity, data })
}

/// Decode a column chunk back into row-ordered values (with NULLs).
pub fn decode_column(data: &[u8]) -> Result<Vec<Value>> {
    Ok(decode_column_batch(data)?.to_values())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The chunk of `values`.
    fn encode(values: &[Value]) -> Vec<u8> {
        let cells: Vec<Option<Cell<'_>>> = values.iter().map(Cell::of_value).collect();
        let mut out = Vec::new();
        encode_column(&cells, &mut out);
        out
    }

    fn roundtrip(values: Vec<Value>) {
        let enc = encode(&values);
        let dec = decode_column(&enc).unwrap();
        assert_eq!(dec, values);
    }

    #[test]
    fn varint_and_zigzag() {
        for v in [0u64, 1, 127, 128, 300, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert_eq!(Cursor::new(&buf).varint().unwrap(), v);
        }
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn int_column_roundtrip_and_compression() {
        let values: Vec<Value> = (0..1000).map(|i| Value::Int(1_000_000 + i)).collect();
        let enc = encode(&values);
        // Deltas of 1 → ~1 byte each plus header.
        assert!(enc.len() < 1500, "encoded {} bytes", enc.len());
        roundtrip(values);
    }

    #[test]
    fn string_dictionary_compresses_repeats() {
        let values: Vec<Value> = (0..1000)
            .map(|i| Value::Str(if i % 2 == 0 { "Rotterdam" } else { "Paris" }.into()))
            .collect();
        let enc = encode(&values);
        assert_eq!(enc[0], Encoding::DictRle as u8);
        assert!(enc.len() < 4200, "encoded {} bytes", enc.len());
        roundtrip(values);
    }

    #[test]
    fn float_and_null_roundtrip() {
        roundtrip(vec![
            Value::Float(1.5),
            Value::Null,
            Value::Float(-0.25),
            Value::Null,
        ]);
        roundtrip(vec![Value::Null, Value::Null]);
        roundtrip(vec![]);
    }

    #[test]
    fn mixed_numeric_column_uses_float() {
        let values = vec![Value::Int(1), Value::Float(2.5), Value::Null];
        let enc = encode(&values);
        assert_eq!(enc[0], Encoding::PlainFloat as u8);
        let dec = decode_column(&enc).unwrap();
        // Ints come back as floats — equal under numeric coercion.
        assert_eq!(dec[0], Value::Int(1));
        assert_eq!(dec[1], Value::Float(2.5));
        assert!(dec[2].is_null());
    }

    #[test]
    fn unique_strings_fall_back_to_plain_when_large() {
        let values: Vec<Value> =
            (0..600).map(|i| Value::Str(format!("unique-{i}"))).collect();
        let enc = encode(&values);
        // 600 unique of 600 → dict does not pay (dict > 256 and > half).
        assert_eq!(enc[0], Encoding::PlainStr as u8);
        roundtrip(values);
    }

    #[test]
    fn dict_batch_exposes_codes() {
        let values: Vec<Value> = ["a", "b", "a", "a", "c"]
            .iter()
            .map(|s| Value::Str(s.to_string()))
            .collect();
        let enc = encode(&values);
        assert_eq!(enc[0], Encoding::DictRle as u8);
        let col = decode_column_batch(&enc).unwrap();
        assert_eq!(col.len(), 5);
        let ColumnData::Dict { dict, codes } = col.data() else {
            panic!("not dictionary-decoded: {:?}", col.data());
        };
        assert_eq!(dict, &["a", "b", "c"]);
        assert_eq!(codes, &[0u32, 1, 0, 0, 2]);
        assert_eq!(col.to_values(), values);
    }

    #[test]
    fn batch_decode_matches_row_decode_with_nulls() {
        let cases: Vec<Vec<Value>> = vec![
            vec![Value::Int(7), Value::Null, Value::Int(9)],
            vec![Value::Float(1.0), Value::Float(1.0), Value::Null, Value::Float(2.5)],
            (0..40)
                .map(|i| {
                    if i % 5 == 0 {
                        Value::Null
                    } else {
                        Value::Str(format!("s{}", i % 3))
                    }
                })
                .collect(),
        ];
        for values in cases {
            let enc = encode(&values);
            let batch = decode_column_batch(&enc).unwrap();
            assert_eq!(batch.to_values(), decode_column(&enc).unwrap());
            assert_eq!(batch.to_values(), values);
        }
    }

    #[test]
    fn corrupt_chunks_error() {
        assert!(decode_column(&[]).is_err());
        assert!(decode_column(&[9, 1, 1]).is_err());
        let mut good = encode(&[Value::Int(5)]);
        good.truncate(good.len() - 1);
        assert!(decode_column(&good).is_err());
    }

    #[test]
    fn a_dictionary_larger_than_its_chunk_is_corrupt_not_an_allocation() {
        // DictRle, no rows, and a dictionary of 2^40 entries: 8 bytes.
        let mut chunk = vec![Encoding::DictRle as u8, 0];
        put_varint(&mut chunk, 1 << 40);
        assert!(matches!(decode_column_batch(&chunk), Err(ScoopError::Corrupt(_))));
    }
}

