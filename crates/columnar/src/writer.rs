//! Columnar writer: typed rows → encoded object bytes.

use crate::encode::encode_column;
use crate::format::{column_stats, ChunkMeta, Footer, RowGroupMeta};
use bytes::Bytes;
use scoop_csv::{Schema, Value};

/// Default rows per row group (Parquet defaults to ~1M; smaller groups keep
/// laptop-scale experiments granular).
pub const DEFAULT_ROW_GROUP_ROWS: usize = 10_000;

/// Buffered columnar writer.
pub struct ColumnarWriter {
    schema: Schema,
    row_group_rows: usize,
    /// Column-major buffer of the current row group.
    pending: Vec<Vec<Value>>,
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
        let cols = schema.len();
        ColumnarWriter {
            schema,
            row_group_rows,
            pending: vec![Vec::new(); cols],
            body: Vec::new(),
            groups: Vec::new(),
        }
    }

    /// Append one typed row (padded/truncated to the schema width).
    pub fn write_row(&mut self, row: &[Value]) {
        for (i, col) in self.pending.iter_mut().enumerate() {
            col.push(row.get(i).cloned().unwrap_or(Value::Null));
        }
        if self.pending[0].len() >= self.row_group_rows {
            self.flush_group();
        }
    }

    fn flush_group(&mut self) {
        let rows = self.pending.first().map(Vec::len).unwrap_or(0);
        if rows == 0 {
            return;
        }
        let mut chunks = Vec::with_capacity(self.pending.len());
        for col in &mut self.pending {
            let (min, max) = column_stats(col);
            let encoded = encode_column(col);
            chunks.push(ChunkMeta {
                offset: self.body.len() as u64,
                length: encoded.len() as u64,
                min,
                max,
            });
            self.body.extend_from_slice(&encoded);
            col.clear();
        }
        self.groups.push(RowGroupMeta { rows: rows as u64, chunks });
    }

    /// Finish: flush the tail group, append footer + trailer, return bytes.
    pub fn finish(mut self) -> Bytes {
        self.flush_group();
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
    use scoop_csv::ColumnBatch;

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
                    Value::Str(format!("m{}", i % 3).into()),
                    if i % 5 == 0 { Value::Null } else { Value::Float(i as f64 / 2.0) },
                    Value::Int(i),
                ]
            })
            .collect();
        for r in &rows {
            w.write_row(r);
        }
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
        for i in 0..5000 {
            let row = vec![
                Value::Str(format!("meter-{}", i % 10).into()),
                Value::Float(100.0),
                Value::Int(i),
            ];
            csv_len += format!("meter-{},100.0,{}\n", i % 10, i).len();
            w.write_row(&row);
        }
        let data = w.finish();
        assert!(
            data.len() < csv_len / 2,
            "columnar {} vs csv {csv_len}",
            data.len()
        );
    }
}
