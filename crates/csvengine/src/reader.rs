//! Streaming CSV reader: chunked byte stream → typed column batches.

use crate::batch::{BatchBuilder, ColumnBatch, RowCursor};
use crate::record::{parse_fields, RecordSplitter};
use crate::schema::Schema;
use crate::value::Value;
use crate::view::FieldBuf;
use bytes::Bytes;
use scoop_common::{ByteStream, Result};

/// How many input bytes of one stream chunk to type per refill: the most one
/// batch holds. 64 KiB of meter CSV is under a thousand rows, enough to
/// amortise a batch's fixed costs (a lane per column, a selection, one kernel
/// call per aggregate): typing and folding `pushdown_lowsel`'s 8 MB body took
/// ~4 % longer in 16 KiB batches, and 256 KiB batches gained under 1 % while
/// holding four times the lanes per task.
const FEED_CHUNK: usize = 64 * 1024;

/// Typed column batches over a chunked CSV byte stream.
///
/// This is the compute-side ingestion path: Spark workers pull the (possibly
/// storlet-filtered) GET body through one of these and hand the SQL executor
/// one [`ColumnBatch`] per input slice. Records end at the first `\n`,
/// whatever the quotes — the record rule of [`crate::record`], which the
/// storlet that filtered the body and the vanilla scan share. Rows are typed **inside the fused
/// scanner's callback**, straight off the borrowed record slice while its
/// bytes are still hot in cache: numbers land in their column's lane, and a
/// string cell is a span into the slice itself, so a quote-free record costs
/// no allocation at all. [`CsvReader::next_batch`] is the interface; the
/// `Iterator` of `Vec<Value>` rows is an adapter over it.
pub struct CsvReader {
    stream: ByteStream,
    /// The stream chunk being sliced, and how far.
    pending: Bytes,
    pending_off: usize,
    splitter: Option<RecordSplitter>,
    fields: FieldBuf,
    schema: Schema,
    skip_header: bool,
    /// The row adapter's place in the batches.
    cursor: RowCursor,
}

impl CsvReader {
    /// Create a reader. When `has_header` is true the first record of the
    /// stream is dropped.
    pub fn new(stream: ByteStream, schema: Schema, has_header: bool) -> Self {
        CsvReader {
            stream,
            pending: Bytes::new(),
            pending_off: 0,
            splitter: Some(RecordSplitter::new()),
            fields: FieldBuf::default(),
            schema,
            skip_header: has_header,
            cursor: RowCursor::default(),
        }
    }

    /// The next input slice of up to [`FEED_CHUNK`] bytes; `None` at EOF. A
    /// stream chunk that holds a whole slice is sliced without a copy;
    /// smaller pieces (a chunk's tail, the chunks of a body that arrives a
    /// few KiB at a time) are gathered into one buffer, so a batch is a
    /// slice's worth of rows whatever the stream's chunking.
    fn next_slice(&mut self) -> Result<Option<Bytes>> {
        let mut gathered: Vec<u8> = Vec::new();
        loop {
            let take = self
                .pending
                .len()
                .saturating_sub(self.pending_off)
                .min(FEED_CHUNK.saturating_sub(gathered.len()));
            if take == 0 {
                match self.stream.next() {
                    Some(chunk) => {
                        self.pending = chunk?;
                        self.pending_off = 0;
                        continue;
                    }
                    None if gathered.is_empty() => return Ok(None),
                    None => return Ok(Some(Bytes::from(gathered))),
                }
            }
            let end = self.pending_off.saturating_add(take);
            let piece = self.pending.slice(self.pending_off..end);
            self.pending_off = end;
            if take == FEED_CHUNK {
                return Ok(Some(piece));
            }
            gathered.extend_from_slice(&piece);
            if gathered.len() >= FEED_CHUNK {
                return Ok(Some(Bytes::from(gathered)));
            }
        }
    }

    /// The rows of the next input slice that completes any, typed as one
    /// batch; `None` once the stream is exhausted. Records that straddle a
    /// slice, or arrive from the splitter's buffer at the end, land in the
    /// batch of the slice that completes them.
    pub fn next_batch(&mut self) -> Result<Option<ColumnBatch>> {
        while self.splitter.is_some() {
            let slice = self.next_slice()?;
            let mut batch = BatchBuilder::new(&self.schema, slice.clone().unwrap_or_default());
            let fields = &mut self.fields;
            let skip_header = &mut self.skip_header;
            let width = self.schema.len();
            // Typing happens right here in the scanner callback, while the
            // record bytes and comma offsets are still in L1 — fusing the
            // scan and decode passes measured ~25% faster end to end than
            // recording row locations and typing them afterwards.
            let mut on_row = |r: &[u8], commas: Option<&[u32]>| {
                if std::mem::take(skip_header) {
                    return;
                }
                match commas {
                    Some(c) => batch.push_commas(r, c),
                    None => batch.push_view(&fields.parse_bounded(r, width), 0..width),
                }
            };
            match slice {
                Some(slice) => {
                    if let Some(sp) = self.splitter.as_mut() {
                        sp.push_rows(&slice, &mut on_row)?;
                    }
                }
                None => {
                    if let Some(sp) = self.splitter.take() {
                        sp.finish(|r| on_row(r, None));
                    }
                }
            }
            if batch.rows() > 0 {
                return Ok(Some(batch.finish()));
            }
        }
        Ok(None)
    }
}

/// Rows one at a time, over [`CsvReader::next_batch`].
impl Iterator for CsvReader {
    type Item = Result<Vec<Value>>;

    fn next(&mut self) -> Option<Self::Item> {
        let mut cursor = std::mem::take(&mut self.cursor);
        let row = cursor.next_row(|| self.next_batch());
        self.cursor = cursor;
        row
    }
}

/// Infer a schema by sampling up to `sample_rows` data records.
pub fn infer_schema(data: &[u8], sample_rows: usize) -> Result<Schema> {
    let mut records: Vec<Vec<u8>> = Vec::new();
    let mut splitter = RecordSplitter::new();
    for chunk in data.chunks(64 * 1024) {
        splitter.push(chunk, |r| {
            if records.len() <= sample_rows {
                records.push(r.to_vec());
            }
        })?;
        if records.len() > sample_rows {
            break;
        }
    }
    if records.len() <= sample_rows {
        splitter.finish(|r| records.push(r.to_vec()));
    }
    if records.is_empty() {
        return Err(scoop_common::ScoopError::Csv("empty CSV object".into()));
    }
    let header_fields = parse_fields(&records[0]);
    let header: Vec<&str> = header_fields.iter().map(|c| c.as_ref()).collect();
    let sample_owned: Vec<Vec<String>> = records[1..]
        .iter()
        .map(|r| parse_fields(r).into_iter().map(|c| c.into_owned()).collect())
        .collect();
    let samples: Vec<Vec<&str>> = sample_owned
        .iter()
        .map(|row| row.iter().map(String::as_str).collect())
        .collect();
    Ok(Schema::infer(&header, &samples))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DataType, Field};
    use scoop_common::stream;
    use bytes::Bytes;

    const DATA: &[u8] = b"vid,index,city\nm1,100.5,Rotterdam\nm2,7,Paris\nm3,,Nice\n";

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("vid", DataType::Str),
            Field::new("index", DataType::Float),
            Field::new("city", DataType::Str),
        ])
    }

    #[test]
    fn reads_typed_rows_skipping_header() {
        let s = stream::chunked(Bytes::copy_from_slice(DATA), 5);
        let rows: Vec<Vec<Value>> = CsvReader::new(s, schema(), true)
            .collect::<Result<_>>()
            .unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0][0], Value::Str("m1".into()));
        assert_eq!(rows[0][1], Value::Float(100.5));
        assert_eq!(rows[1][1], Value::Float(7.0));
        assert!(rows[2][1].is_null());
    }

    #[test]
    fn reads_headerless() {
        let s = stream::once(Bytes::from_static(b"m1,1.0,X\n"));
        let rows: Vec<Vec<Value>> = CsvReader::new(s, schema(), false)
            .collect::<Result<_>>()
            .unwrap();
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn propagates_stream_errors() {
        let s = stream::error(scoop_common::ScoopError::NotFound("x".into()));
        let mut r = CsvReader::new(s, schema(), false);
        assert!(r.next().unwrap().is_err());
    }

    #[test]
    fn header_and_inference() {
        let s = infer_schema(DATA, 10).unwrap();
        assert_eq!(s.names(), vec!["vid", "index", "city"]);
        assert_eq!(s.fields[0].dtype, DataType::Str);
        assert_eq!(s.fields[1].dtype, DataType::Float);
        assert_eq!(s.fields[2].dtype, DataType::Str);
        assert!(infer_schema(b"", 10).is_err());
        // Header-only object still infers (all Str).
        let s = infer_schema(b"a,b\n", 5).unwrap();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn quoted_and_wide_rows_parse_like_the_slow_path() {
        let data = b"\"m,1\",2,\"Rott\"\"erdam\",extra1,extra2\nm2,,Nice\n";
        let s = stream::chunked(Bytes::copy_from_slice(data), 3);
        let rows: Vec<Vec<Value>> = CsvReader::new(s, schema(), false)
            .collect::<Result<_>>()
            .unwrap();
        assert_eq!(rows[0][0], Value::Str("m,1".into()));
        assert_eq!(rows[0][1], Value::Float(2.0));
        assert_eq!(rows[0][2], Value::Str("Rott\"erdam".into()));
        assert_eq!(rows[0].len(), 3, "extra fields dropped");
        assert!(rows[1][1].is_null());
    }
}
