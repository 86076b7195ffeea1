//! Columnar reader with column pruning and row-group skipping.
//!
//! The reader fetches through a range callback so the same code path serves
//! local buffers and ranged object-store GETs. It counts the bytes it
//! actually fetched — the quantity the Fig. 8 Scoop-vs-Parquet comparison
//! turns on (compressed, column-pruned transfer vs storlet-filtered CSV).
//!
//! Every read is the one group-at-a-time loop in `ColumnarReader::scan`:
//! plan the group's I/O from the footer, decode the predicate's columns,
//! build the row selection on the typed arrays, and gather only the surviving
//! rows' projected cells into one [`ColumnBatch`] per group. A predicate
//! decides what is *materialised*, never what is *fetched*: only chunk
//! statistics, when the caller asks for them, skip a group's bytes.
//! [`ColumnarReader::read_rows_filtered`] is a row adapter over those
//! batches, kept because the benchmark's decode probes (`queryplane`) call
//! it.

use crate::encode::{decode_column_batch, Cursor, DecodedColumn};
use crate::format::{ChunkMeta, Footer, RowGroupMeta, MAGIC};
use bytes::Bytes;
use scoop_common::zonestats::ColumnStats;
use scoop_common::{Result, ScoopError};
use scoop_csv::predicate::Tree;
use scoop_csv::{ColumnBatch, Predicate, Schema, Value};
use std::cell::Cell as Counter;

/// Fetch `[start, end)` of the underlying object.
pub type FetchFn<'a> = Box<dyn Fn(u64, u64) -> Result<Bytes> + 'a>;

/// A columnar file reader.
pub struct ColumnarReader<'a> {
    fetch: FetchFn<'a>,
    footer: Footer,
    bytes_fetched: Counter<u64>,
}

/// One ranged read that must deliver exactly `[start, end)`: a peer that
/// answers with fewer bytes (a truncated GET, an object shorter than its
/// footer claims) is an error here, not an out-of-bounds slice later.
fn fetch_exact(fetch: &FetchFn<'_>, start: u64, end: u64) -> Result<Bytes> {
    let data = fetch(start, end)?;
    if data.len() as u64 != end.saturating_sub(start) {
        return Err(ScoopError::Corrupt(format!(
            "ranged read [{start}, {end}) returned {} bytes",
            data.len()
        )));
    }
    Ok(data)
}

fn to_usize(v: u64) -> Result<usize> {
    usize::try_from(v).map_err(|_| ScoopError::Corrupt(format!("length {v} exceeds the address space")))
}

impl<'a> ColumnarReader<'a> {
    /// Open via a range-fetch callback over an object of `total_len` bytes.
    pub fn open(total_len: u64, fetch: FetchFn<'a>) -> Result<ColumnarReader<'a>> {
        let tail_at = total_len
            .checked_sub(8)
            .ok_or_else(|| ScoopError::Columnar("object too small".into()))?;
        let tail = fetch_exact(&fetch, tail_at, total_len)?;
        let mut trailer = Cursor::new(&tail);
        let footer_len = u64::from(trailer.u32()?);
        if trailer.take_pub(4)? != MAGIC {
            return Err(ScoopError::Columnar("missing SCOL magic".into()));
        }
        let footer_at = tail_at
            .checked_sub(footer_len)
            .ok_or_else(|| ScoopError::Columnar("footer length exceeds object".into()))?;
        let footer = Footer::decode(&fetch_exact(&fetch, footer_at, tail_at)?)?;
        let fetched = footer_len.saturating_add(8);
        Ok(ColumnarReader { fetch, footer, bytes_fetched: Counter::new(fetched) })
    }

    /// Open over an in-memory buffer.
    pub fn open_bytes(data: Bytes) -> Result<ColumnarReader<'static>> {
        let len = data.len() as u64;
        ColumnarReader::open(
            len,
            Box::new(move |s, e| {
                let s = (s.min(len)) as usize;
                let e = (e.min(len)) as usize;
                Ok(data.slice(s..e.max(s)))
            }),
        )
    }

    /// Parsed footer.
    pub fn footer(&self) -> &Footer {
        &self.footer
    }

    /// Logical schema.
    pub fn schema(&self) -> &Schema {
        &self.footer.schema
    }

    /// Total rows in the object.
    pub fn num_rows(&self) -> u64 {
        self.footer.num_rows()
    }

    /// Bytes fetched so far (footer + chunks).
    pub fn bytes_fetched(&self) -> u64 {
        self.bytes_fetched.get()
    }

    fn fetch_range(&self, start: u64, end: u64) -> Result<Bytes> {
        let data = fetch_exact(&self.fetch, start, end)?;
        self.bytes_fetched.set(self.bytes_fetched.get().saturating_add(data.len() as u64));
        Ok(data)
    }

    /// Rows in file order, pruned to `columns` when given (output column
    /// order follows the request), skipping row groups whose min/max
    /// statistics prove the predicate can never hold (the Parquet-style
    /// stats-pruning extension). Every row of a surviving group is
    /// returned. A row adapter the benchmark's decode probes (`queryplane`)
    /// call; a query reads [`ColumnarReader::read_batches_selected`].
    pub fn read_rows_filtered(
        &self,
        columns: Option<&[String]>,
        predicate: Option<&Predicate>,
    ) -> Result<Vec<Vec<Value>>> {
        Ok(rows_of(self.scan(columns, predicate, true, false)?))
    }

    /// What a query runs: every group's chunks are fetched, the predicate is
    /// evaluated on the batch-decoded columns, and only rows it may hold for
    /// are gathered, one batch per group that keeps any. The selection is
    /// two-valued (a comparison with NULL is false), a superset of the rows
    /// SQL's three-valued WHERE keeps, so the caller still applies its WHERE
    /// to what comes back. With `skip_groups`, chunk statistics also skip
    /// whole groups' bytes, as in [`ColumnarReader::read_rows_filtered`].
    pub fn read_batches_selected(
        &self,
        columns: Option<&[String]>,
        predicate: Option<&Predicate>,
        skip_groups: bool,
    ) -> Result<Vec<ColumnBatch>> {
        self.scan(columns, predicate, skip_groups, true)
    }

    /// The reader loop, one row group at a time. With `prune`, chunk
    /// statistics skip a group (and its bytes) the predicate cannot hold
    /// in; with `select`, rows of a fetched group it does not hold for are
    /// dropped before they are materialized.
    fn scan(
        &self,
        columns: Option<&[String]>,
        predicate: Option<&Predicate>,
        prune: bool,
        select: bool,
    ) -> Result<Vec<ColumnBatch>> {
        let schema = &self.footer.schema;
        let project: Vec<usize> = match columns {
            None => (0..schema.len()).collect(),
            Some(cols) => cols.iter().map(|c| schema.resolve(c)).collect::<Result<_>>()?,
        };
        let tree = predicate.map(|p| Tree::compile(p, &mut |name| schema.resolve(name))).transpose()?;
        let (prune, select) = (tree.as_ref().filter(|_| prune), tree.as_ref().filter(|_| select));
        let tested: Vec<usize> = match predicate.filter(|_| select.is_some()) {
            Some(p) => p.columns().iter().map(|c| schema.resolve(c)).collect::<Result<_>>()?,
            None => Vec::new(),
        };
        // The chunks a group is read for, by schema position: the projection
        // and whatever else the selection reads.
        let mut needed: Vec<usize> = project.iter().chain(&tested).copied().collect();
        needed.sort_unstable();
        needed.dedup();

        let mut batches = Vec::new();
        for group in &self.footer.row_groups {
            if let Some(tree) = prune {
                let stats: Vec<ColumnStats> = group.chunks.iter().map(chunk_stats).collect();
                if !tree.may_match(&|&column| stats.get(column)) {
                    continue;
                }
            }
            let n = to_usize(group.rows)?;
            let chunks = self.fetch_chunks(group, &needed)?;
            let decode = |chunk: &Bytes| -> Result<DecodedColumn> {
                let col = decode_column_batch(chunk)?;
                if col.len() != n {
                    return Err(ScoopError::Corrupt(format!(
                        "chunk of {} rows in a group of {n}",
                        col.len()
                    )));
                }
                Ok(col)
            };
            // The selection's columns first; the rest only for a survivor.
            let mut cols: Vec<Option<DecodedColumn>> = needed
                .iter()
                .zip(&chunks)
                .map(|(column, chunk)| tested.contains(column).then(|| decode(chunk)).transpose())
                .collect::<Result<_>>()?;
            let kept: Vec<usize> = match select {
                None => (0..n).collect(),
                Some(tree) => {
                    let flags = row_flags(tree, &|column| decoded(&needed, &cols, column))?;
                    flags.iter().enumerate().filter_map(|(row, &keep)| keep.then_some(row)).collect()
                }
            };
            if kept.is_empty() {
                continue;
            }
            for (col, chunk) in cols.iter_mut().zip(&chunks) {
                if col.is_none() {
                    *col = Some(decode(chunk)?);
                }
            }
            let columns = project
                .iter()
                .map(|&column| Ok(decoded(&needed, &cols, column)?.gather_column(&kept)))
                .collect::<Result<_>>()?;
            batches.push(ColumnBatch::new(kept.len(), columns));
        }
        Ok(batches)
    }

    /// One group's chunks for `columns` (schema positions), one `Bytes` per
    /// column in that order. The I/O is planned from the footer: the chunk
    /// ranges are sorted, *exactly* adjacent ones merged, and each merged run
    /// fetched once and handed out as zero-copy slices — the same bytes as a
    /// fetch per chunk, in fewer requests.
    fn fetch_chunks(&self, group: &RowGroupMeta, columns: &[usize]) -> Result<Vec<Bytes>> {
        let mut spans = columns
            .iter()
            .enumerate()
            .map(|(slot, &column)| {
                let chunk = group.chunks.get(column).ok_or_else(|| {
                    ScoopError::Corrupt(format!("row group has no chunk for column {column}"))
                })?;
                let end = chunk
                    .offset
                    .checked_add(chunk.length)
                    .ok_or_else(|| ScoopError::Corrupt("chunk range overflows".into()))?;
                Ok(Span { slot, start: chunk.offset, end })
            })
            .collect::<Result<Vec<Span>>>()?;
        spans.sort_unstable_by_key(|span| span.start);
        let mut runs: Vec<Run> = Vec::new();
        for span in spans {
            match runs.last_mut() {
                Some(run) if run.end == span.start => {
                    run.end = span.end;
                    run.members.push(span);
                }
                _ => runs.push(Run { start: span.start, end: span.end, members: vec![span] }),
            }
        }
        let mut chunks = vec![Bytes::new(); columns.len()];
        for run in runs {
            let data = self.fetch_range(run.start, run.end)?;
            for span in run.members {
                // A member lies inside its run and `data` is the whole run.
                let range = to_usize(span.start.saturating_sub(run.start))?
                    ..to_usize(span.end.saturating_sub(run.start))?;
                if let Some(chunk) = chunks.get_mut(span.slot) {
                    *chunk = data.slice(range);
                }
            }
        }
        Ok(chunks)
    }
}

/// The rows of `batches`, in order.
fn rows_of(batches: Vec<ColumnBatch>) -> Vec<Vec<Value>> {
    batches.iter().flat_map(ColumnBatch::to_rows).collect()
}

/// A group's decoded column by schema position: `cols` runs parallel to the
/// sorted `needed`, and holds `None` until the chunk is decoded.
fn decoded<'c>(
    needed: &[usize],
    cols: &'c [Option<DecodedColumn>],
    column: usize,
) -> Result<&'c DecodedColumn> {
    let slot = needed.binary_search(&column).ok();
    slot.and_then(|slot| cols.get(slot)?.as_ref())
        .ok_or_else(|| ScoopError::Internal(format!("column {column} not decoded")))
}

/// The byte range of one wanted chunk, and its place in the caller's order.
struct Span {
    slot: usize,
    start: u64,
    end: u64,
}

/// Chunks that follow one another without a gap: one ranged read.
struct Run {
    start: u64,
    end: u64,
    members: Vec<Span>,
}

/// One flag per row of a group: may the predicate hold for the row? Each
/// leaf's [`scoop_csv::predicate::Test`] runs on the decoded column
/// `column` hands out, two-valued: a leaf is false on a NULL cell, which
/// keeps every row SQL's three-valued logic keeps and some it does not
/// (`NOT (x < 1)` on a NULL `x`).
fn row_flags<'c>(
    tree: &Tree<usize>,
    column: &impl Fn(usize) -> Result<&'c DecodedColumn>,
) -> Result<Vec<bool>> {
    match tree {
        Tree::Leaf(c, test) => Ok(column(*c)?.test_rows(|cell| test.on(&cell), test.on_null())),
        Tree::And(a, b) => {
            let mut flags = row_flags(a, column)?;
            if flags.contains(&true) {
                for (flag, other) in flags.iter_mut().zip(row_flags(b, column)?) {
                    *flag &= other;
                }
            }
            Ok(flags)
        }
        Tree::Or(a, b) => {
            let mut flags = row_flags(a, column)?;
            for (flag, other) in flags.iter_mut().zip(row_flags(b, column)?) {
                *flag |= other;
            }
            Ok(flags)
        }
        Tree::Not(a) => Ok(row_flags(a, column)?.iter().map(|&flag| !flag).collect()),
    }
}

/// A chunk's min/max as zone-map evidence. Both NULL: every cell is NULL.
/// Both strings: every cell is a string within them. Both numbers: every
/// cell is a number within them, a NaN bound widened to ±∞ (NaN sorts above
/// every number in the writer's total order), and the text, its rendering,
/// unbounded. Otherwise the chunk stores its values rendered as strings:
/// none compares with a number, and the text is unbounded. Whether a cell
/// is NULL is not recorded, so it may be.
fn chunk_stats(chunk: &ChunkMeta) -> ColumnStats {
    let mut s = ColumnStats { has_null: true, has_value: true, ..ColumnStats::default() };
    match (&chunk.min, &chunk.max) {
        (Value::Null, Value::Null) => s.has_value = false,
        (Value::Str(lo), Value::Str(hi)) => {
            s.str_min = Some(lo.to_string());
            s.str_max = Some(hi.to_string());
        }
        (lo, hi) => {
            let widen = |v: Option<f64>, nan: f64| v.map(|v| if v.is_nan() { nan } else { v });
            let lo = widen(lo.as_f64(), f64::NEG_INFINITY);
            let hi = widen(hi.as_f64(), f64::INFINITY);
            s.num = lo.zip(hi);
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::ColumnarWriter;
    use scoop_csv::schema::{DataType, Field};

    /// What `read_batches_selected` returns, as rows.
    fn read(
        r: &ColumnarReader<'_>,
        columns: Option<&[String]>,
        predicate: Option<&Predicate>,
        skip_groups: bool,
    ) -> Result<Vec<Vec<Value>>> {
        Ok(rows_of(r.read_batches_selected(columns, predicate, skip_groups)?))
    }

    fn sample() -> Bytes {
        let schema = Schema::new(vec![
            Field::new("vid", DataType::Str),
            Field::new("date", DataType::Str),
            Field::new("index", DataType::Float),
        ]);
        let mut w = ColumnarWriter::with_row_group_rows(schema, 10);
        for i in 0..30 {
            w.write_row(&[
                Value::Str(format!("m{}", i % 4).into()),
                Value::Str(format!("2015-{:02}-01", i / 10 + 1).into()),
                Value::Float(i as f64),
            ]);
        }
        w.finish()
    }

    #[test]
    fn column_pruning_fetches_fewer_bytes() {
        let data = sample();
        let full = ColumnarReader::open_bytes(data.clone()).unwrap();
        let all = read(&full, None, None, false).unwrap();
        assert_eq!(all.len(), 30);
        let full_bytes = full.bytes_fetched();

        let pruned = ColumnarReader::open_bytes(data).unwrap();
        let only_vid = read(&pruned, Some(&["vid".to_string()]), None, false).unwrap();
        assert_eq!(only_vid.len(), 30);
        assert_eq!(only_vid[0].len(), 1);
        assert!(
            pruned.bytes_fetched() < full_bytes,
            "pruned {} vs full {full_bytes}",
            pruned.bytes_fetched()
        );
    }

    #[test]
    fn pruned_read_matches_full_read() {
        let data = sample();
        let r = ColumnarReader::open_bytes(data).unwrap();
        let full = read(&r, None, None, false).unwrap();
        let pruned = read(&r, Some(&["index".to_string(), "vid".to_string()]), None, false).unwrap();
        for (f, p) in full.iter().zip(&pruned) {
            assert_eq!(p[0], f[2]);
            assert_eq!(p[1], f[0]);
        }
    }

    #[test]
    fn stats_skip_row_groups() {
        let data = sample();
        let r = ColumnarReader::open_bytes(data).unwrap();
        // date '2015-03-01' only in the last group of 10.
        let pred = Predicate::Eq("date".into(), Value::Str("2015-03-01".into()));
        let rows = r
            .read_rows_filtered(Some(&["date".to_string()]), Some(&pred))
            .unwrap();
        // Skipping is group-granular: the matching group has 10 rows.
        assert_eq!(rows.len(), 10);
        assert!(rows.iter().all(|r| r[0] == Value::Str("2015-03-01".into())));

        // Numeric range that excludes everything.
        let pred = Predicate::Gt("index".into(), Value::Float(1e9));
        let rows = r.read_rows_filtered(None, Some(&pred)).unwrap();
        assert!(rows.is_empty());
    }

    #[test]
    fn prefix_skip() {
        let data = sample();
        let r = ColumnarReader::open_bytes(data).unwrap();
        let pred = Predicate::StartsWith("date".into(), "2019".into());
        assert!(r.read_rows_filtered(None, Some(&pred)).unwrap().is_empty());
        let pred = Predicate::StartsWith("date".into(), "2015-01".into());
        assert_eq!(r.read_rows_filtered(None, Some(&pred)).unwrap().len(), 10);
    }

    #[test]
    fn stats_skip_like_in_and_is_not_null() {
        // Three groups of ten: Amsterdam/Breda, Lyon/Nice, and no city.
        let schema = Schema::new(vec![Field::new("city", DataType::Str), Field::new("n", DataType::Int)]);
        let mut w = ColumnarWriter::with_row_group_rows(schema, 10);
        let cities = [Some("Amsterdam"), Some("Breda"), Some("Lyon"), Some("Nice"), None, None];
        for i in 0..30i64 {
            let city = cities[(i / 10 * 2 + i % 2) as usize];
            w.write_row(&[city.map_or(Value::Null, |c| Value::Str(c.into())), Value::Int(i)]);
        }
        let r = ColumnarReader::open_bytes(w.finish()).unwrap();
        let groups = |pred: Predicate| -> Vec<i64> {
            let rows = r.read_rows_filtered(None, Some(&pred)).unwrap();
            let mut groups: Vec<i64> = rows
                .iter()
                .map(|row| match row[1] {
                    Value::Int(i) => i / 10,
                    ref other => panic!("{other:?}"),
                })
                .collect();
            groups.dedup();
            groups
        };
        let text = |s: &str| Value::Str(s.into());
        assert_eq!(groups(Predicate::Like("city".into(), "Ly%".into())), [1]);
        assert_eq!(groups(Predicate::Like("city".into(), "Bre_a".into())), [0]);
        assert_eq!(groups(Predicate::In("city".into(), vec![text("Amsterdam"), text("Zwolle")])), [0]);
        assert_eq!(groups(Predicate::IsNotNull("city".into())), [0, 1]);
        // A selected read skips the same groups and keeps only their rows.
        let pred = Predicate::In("city".into(), vec![text("Nice")]);
        assert_eq!(read(&r, None, Some(&pred), true).unwrap().len(), 5);
    }

    #[test]
    fn selected_read_filters_rows_within_groups() {
        let r = ColumnarReader::open_bytes(sample()).unwrap();
        // vid cycles m0..m3: "m2" is dictionary-encoded in every group.
        let pred = Predicate::Eq("vid".into(), Value::Str("m2".into()));
        let cols = ["vid".to_string(), "index".to_string()];
        let rows = read(&r, Some(&cols), Some(&pred), false).unwrap();
        assert_eq!(rows.len(), 7);
        assert!(rows.iter().all(|row| row[0] == Value::Str("m2".into())));
        // A literal absent from every dictionary yields nothing.
        let pred = Predicate::Eq("vid".into(), Value::Str("ghost".into()));
        assert!(read(&r, None, Some(&pred), false).unwrap().is_empty());
        // Numeric comparison selects row-wise, not group-wise.
        let pred = Predicate::Gt("index".into(), Value::Float(24.5));
        let rows = read(&r, Some(&["index".to_string()]), Some(&pred), false).unwrap();
        assert_eq!(rows.len(), 5);
    }

    #[test]
    fn selected_matches_post_filtered_rows() {
        let r = ColumnarReader::open_bytes(sample()).unwrap();
        let pred = Predicate::Eq("date".into(), Value::Str("2015-02-01".into()));
        let coarse = r.read_rows_filtered(None, Some(&pred)).unwrap();
        let manual: Vec<Vec<Value>> = coarse
            .into_iter()
            .filter(|row| row[1] == Value::Str("2015-02-01".into()))
            .collect();
        let selected = read(&r, None, Some(&pred), true).unwrap();
        assert_eq!(selected, manual);
        assert_eq!(selected.len(), 10);
    }

    /// The meter table's ten columns over three row groups.
    fn meter_like() -> Bytes {
        let text = |name| Field::new(name, DataType::Str);
        let num = |name| Field::new(name, DataType::Float);
        let schema = Schema::new(vec![
            text("vid"),
            text("date"),
            num("index"),
            num("sumHC"),
            num("sumHP"),
            num("lat"),
            num("long"),
            text("city"),
            text("state"),
            text("region"),
        ]);
        let mut w = ColumnarWriter::with_row_group_rows(schema, 10);
        for i in 0..25 {
            let f = Value::Float(i as f64 / 4.0);
            w.write_row(&[
                Value::Str(format!("m{}", i % 4).into()),
                Value::Str(format!("2015-{:02}-01", i / 10 + 1).into()),
                f.clone(),
                f.clone(),
                f.clone(),
                Value::Float(51.9),
                Value::Float(4.5),
                Value::Str("Rotterdam".into()),
                Value::Str("NLD".into()),
                Value::Str("EU".into()),
            ]);
        }
        w.finish()
    }

    /// Open `data` through a fetch that records every call and answers it
    /// with `answer`.
    fn recording<'a>(
        data: &'a Bytes,
        calls: &'a std::cell::RefCell<Vec<(u64, u64)>>,
        answer: impl Fn(&Bytes, u64, u64) -> Bytes + 'a,
    ) -> Result<ColumnarReader<'a>> {
        ColumnarReader::open(
            data.len() as u64,
            Box::new(move |s, e| {
                calls.borrow_mut().push((s, e));
                Ok(answer(data, s, e))
            }),
        )
    }

    fn exact(data: &Bytes, s: u64, e: u64) -> Bytes {
        data.slice(s as usize..e as usize)
    }

    #[test]
    fn adjacent_chunks_are_fetched_in_one_request() {
        let data = meter_like();
        let calls = std::cell::RefCell::new(Vec::new());
        let reader = recording(&data, &calls, exact).unwrap();
        // ShowMapCons: vid, date, index | lat, long | state.
        let cols: Vec<String> =
            ["vid", "date", "index", "lat", "long", "state"].map(String::from).to_vec();
        let pred = Predicate::StartsWith("date".into(), "2015-01".into());
        let rows = read(&reader, Some(&cols), Some(&pred), false).unwrap();
        assert_eq!(rows.len(), 10);

        // Two reads to open, three merged runs in each of three groups.
        let calls = calls.borrow().clone();
        assert_eq!(calls.len(), 2 + 9, "{calls:?}");
        let mut ranges = calls.clone();
        ranges.sort_unstable();
        for pair in ranges.windows(2) {
            assert!(pair[0].1 <= pair[1].0, "overlap: {pair:?}");
        }
        assert!(ranges.iter().all(|&(s, e)| s < e && e <= data.len() as u64));

        // The same bytes as one fetch per chunk: trailer, footer, and the
        // projected chunks of every group — selection skipped none of them.
        let footer = reader.footer();
        let footer_len = u32::from_le_bytes(data[data.len() - 8..data.len() - 4].try_into().unwrap());
        let chunk_bytes: u64 = footer
            .row_groups
            .iter()
            .flat_map(|g| [0, 1, 2, 5, 6, 8].map(|c| g.chunks[c].length))
            .sum();
        assert_eq!(reader.bytes_fetched(), 8 + footer_len as u64 + chunk_bytes);
        assert_eq!(calls.iter().map(|(s, e)| e - s).sum::<u64>(), reader.bytes_fetched());

        // A full read is one run per group.
        let calls = std::cell::RefCell::new(Vec::new());
        let reader = recording(&data, &calls, exact).unwrap();
        assert_eq!(read(&reader, None, None, false).unwrap().len(), 25);
        assert_eq!(calls.borrow().len(), 2 + 3);
    }

    #[test]
    fn a_short_fetch_is_an_error_not_a_panic() {
        let data = meter_like();
        let len = data.len() as u64;
        // Truncate, in turn, the trailer, the footer and a chunk read.
        for victim in 0..3 {
            let calls = std::cell::RefCell::new(Vec::new());
            let seen = std::cell::Cell::new(0);
            let short = |data: &Bytes, s: u64, e: u64| {
                let n = seen.replace(seen.get() + 1);
                exact(data, s, if n == victim { e - 1 } else { e })
            };
            let read = recording(&data, &calls, short).and_then(|r| read(&r, None, None, false));
            assert!(matches!(read, Err(ScoopError::Corrupt(_))), "victim {victim}: {read:?}");
        }
        // A peer that answers every range with nothing.
        let empty = ColumnarReader::open(len, Box::new(|_, _| Ok(Bytes::new())));
        assert!(empty.is_err());
    }

    #[test]
    fn footer_offsets_are_checked() {
        use crate::format::ChunkMeta;
        let schema = Schema::new(vec![Field::new("n", DataType::Int)]);
        for (offset, length) in [(u64::MAX - 1, 10), (0, u64::MAX), (1 << 40, 16)] {
            let chunk = ChunkMeta { offset, length, min: Value::Null, max: Value::Null };
            let footer = Footer {
                schema: schema.clone(),
                row_groups: vec![RowGroupMeta { rows: 1, chunks: vec![chunk] }],
            };
            let mut file = vec![0u8; 32];
            footer.write_trailer(&mut file);
            let reader = ColumnarReader::open_bytes(Bytes::from(file)).unwrap();
            let read = read(&reader, None, None, false);
            assert!(matches!(read, Err(ScoopError::Corrupt(_))), "{offset}+{length}: {read:?}");
        }
        // A group with fewer chunks than the schema has columns. The footer
        // decoder reads one chunk per column, so this only arises in memory;
        // the stats lookup and the I/O plan still answer without indexing.
        let footer = Footer { schema, row_groups: vec![RowGroupMeta { rows: 1, chunks: vec![] }] };
        let pred = Predicate::Eq("n".into(), Value::Int(1));
        let reader = ColumnarReader {
            fetch: Box::new(|_, _| Ok(Bytes::new())),
            footer,
            bytes_fetched: Counter::new(0),
        };
        assert!(matches!(reader.read_rows_filtered(None, Some(&pred)), Err(ScoopError::Corrupt(_))));
    }

    #[test]
    fn open_rejects_non_columnar() {
        assert!(ColumnarReader::open_bytes(Bytes::from_static(b"short")).is_err());
        assert!(
            ColumnarReader::open_bytes(Bytes::from(vec![0u8; 64])).is_err()
        );
    }

    #[test]
    fn unknown_column_errors() {
        let r = ColumnarReader::open_bytes(sample()).unwrap();
        assert!(read(&r, Some(&["ghost".to_string()]), None, false).is_err());
    }
}
