//! Columnar writer: column batches → encoded object bytes.

use crate::encode::{encode_column, Cell};
use crate::format::{ChunkMeta, Footer, RowGroupMeta};
use bytes::Bytes;
use scoop_csv::{ColumnBatch, Schema};
use std::ops::Range;

/// Default rows per row group (Parquet defaults to ~1M; smaller groups keep
/// laptop-scale experiments granular).
pub const DEFAULT_ROW_GROUP_ROWS: usize = 10_000;

/// Buffered columnar writer.
pub struct ColumnarWriter {
    schema: Schema,
    row_group_rows: usize,
    /// The batches of the row group being gathered, each with its rows not
    /// yet written: a batch that a group cut crosses stays, its range moved
    /// past the cut.
    pending: Vec<(ColumnBatch, Range<usize>)>,
    /// Rows across `pending`.
    pending_rows: usize,
    /// Encoded file body so far.
    body: Vec<u8>,
    groups: Vec<RowGroupMeta>,
}

impl ColumnarWriter {
    /// Create a writer with the default row-group size.
    pub fn new(schema: Schema) -> Self {
        Self::with_row_group_rows(schema, DEFAULT_ROW_GROUP_ROWS)
    }

    /// Create a writer with an explicit row-group size.
    pub fn with_row_group_rows(schema: Schema, row_group_rows: usize) -> Self {
        assert!(row_group_rows > 0, "row group size must be positive");
        ColumnarWriter {
            schema,
            row_group_rows,
            pending: Vec::new(),
            pending_rows: 0,
            body: Vec::new(),
            groups: Vec::new(),
        }
    }

    /// Append a batch's rows, its columns in schema order: a column past the
    /// batch's width reads as NULL, and columns past the schema's are
    /// dropped.
    pub fn write_batch(&mut self, batch: ColumnBatch) {
        let rows = batch.rows();
        if rows == 0 {
            return;
        }
        self.pending.push((batch, 0..rows));
        self.pending_rows = self.pending_rows.saturating_add(rows);
        while self.pending_rows >= self.row_group_rows {
            self.flush_group(self.row_group_rows);
        }
    }

    /// Encode the first `rows` pending rows as one row group.
    fn flush_group(&mut self, rows: usize) {
        if rows == 0 {
            return;
        }
        let mut chunks = Vec::with_capacity(self.schema.len());
        for c in 0..self.schema.len() {
            let cells: Vec<Option<Cell<'_>>> = self.pending.iter()
                .flat_map(|(batch, range)| {
                    let column = batch.column(c);
                    range.clone().map(move |i| column.and_then(|col| Cell::of_column(col, i)))
                })
                .take(rows)
                .collect();
            let offset = self.body.len();
            let (min, max) = encode_column(&cells, &mut self.body);
            let length = self.body.len().saturating_sub(offset) as u64;
            chunks.push(ChunkMeta { offset: offset as u64, length, min, max });
        }
        let mut left = rows;
        self.pending.retain_mut(|(_, range)| {
            let take = range.len().min(left);
            range.start = range.start.saturating_add(take);
            left = left.saturating_sub(take);
            range.start < range.end
        });
        self.pending_rows = self.pending_rows.saturating_sub(rows);
        self.groups.push(RowGroupMeta { rows: rows as u64, chunks });
    }

    /// Finish: flush the tail group, append footer + trailer, return bytes.
    pub fn finish(mut self) -> Bytes {
        self.flush_group(self.pending_rows);
        let footer = Footer { schema: self.schema, row_groups: self.groups };
        footer.write_trailer(&mut self.body);
        Bytes::from(self.body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::ColumnarReader;
    use scoop_csv::schema::{DataType, Field};
    use scoop_csv::Value;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("vid", DataType::Str),
            Field::new("index", DataType::Float),
            Field::new("n", DataType::Int),
        ])
    }

    #[test]
    fn write_read_roundtrip_across_row_groups() {
        let mut w = ColumnarWriter::with_row_group_rows(schema(), 7);
        let rows: Vec<Vec<Value>> = (0..25)
            .map(|i| {
                vec![
                    Value::Str(format!("m{}", i % 3)),
                    if i % 5 == 0 { Value::Null } else { Value::Float(i as f64 / 2.0) },
                    Value::Int(i),
                ]
            })
            .collect();
        w.write_batch(ColumnBatch::from_rows(&schema(), rows.clone()));
        let data = w.finish();
        let reader = ColumnarReader::open_bytes(data).unwrap();
        assert_eq!(reader.num_rows(), 25);
        assert_eq!(reader.footer().row_groups.len(), 4);
        let batches = reader.read_batches_selected(None, None, false).unwrap();
        let back: Vec<Vec<Value>> = batches.iter().flat_map(ColumnBatch::to_rows).collect();
        assert_eq!(back, rows);
    }

    #[test]
    fn empty_file_roundtrip() {
        let w = ColumnarWriter::new(schema());
        let data = w.finish();
        let reader = ColumnarReader::open_bytes(data).unwrap();
        assert_eq!(reader.num_rows(), 0);
        assert!(reader.read_batches_selected(None, None, false).unwrap().is_empty());
    }

    #[test]
    fn columnar_beats_csv_on_size() {
        // Repetitive data (like meter readings) compresses well.
        let mut w = ColumnarWriter::new(schema());
        let mut csv_len = 0usize;
        let rows = (0..5000).map(|i| {
            csv_len += format!("meter-{},100.0,{}\n", i % 10, i).len();
            vec![Value::Str(format!("meter-{}", i % 10)), Value::Float(100.0), Value::Int(i)]
        });
        w.write_batch(ColumnBatch::from_rows(&schema(), rows));
        let data = w.finish();
        assert!(
            data.len() < csv_len / 2,
            "columnar {} vs csv {csv_len}",
            data.len()
        );
    }

    /// Batches cut anywhere, narrower than the schema or empty, write the
    /// object that one batch of the same rows does, NULL-padded.
    #[test]
    fn batches_cut_anywhere_write_one_object() {
        let rows: Vec<Vec<Value>> = (0..23)
            .map(|i| vec![Value::Str(format!("m{}", i % 4)), Value::Float(i as f64)])
            .collect();
        let padded = rows.iter().map(|r| [r.clone(), vec![Value::Null]].concat());
        let mut whole = ColumnarWriter::with_row_group_rows(schema(), 5);
        whole.write_batch(ColumnBatch::from_rows(&schema(), padded));
        let whole = whole.finish();

        let narrow = Schema::new(schema().fields[..2].to_vec());
        let mut cut = ColumnarWriter::with_row_group_rows(schema(), 5);
        for piece in [&rows[..3], &rows[3..3], &rows[3..14], &rows[14..]] {
            let batch = ColumnBatch::from_rows(&narrow, piece.to_vec());
            assert!(batch.column(2).is_none());
            cut.write_batch(batch);
        }
        assert_eq!(cut.finish(), whole);

        // A batch wider than the schema has its extra columns dropped.
        let mut wide = ColumnarWriter::with_row_group_rows(narrow.clone(), 5);
        let three = rows.iter().map(|r| [r.clone(), vec![Value::Int(1)]].concat());
        wide.write_batch(ColumnBatch::from_rows(&schema(), three));
        let mut exact = ColumnarWriter::with_row_group_rows(narrow.clone(), 5);
        exact.write_batch(ColumnBatch::from_rows(&narrow, rows));
        assert_eq!(wide.finish(), exact.finish());
    }
}
