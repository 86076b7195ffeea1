//! The columnar relation — the Parquet arm of the Fig. 8 comparison.
//!
//! Column pruning happens at read time (only projected chunks are fetched);
//! selection filtering stays compute-side exactly as the paper describes for
//! Parquet ("Spark is in charge of carrying out the tasks of (de)compressing
//! data and discarding columns"): the pushed predicate is evaluated on the
//! decoded column arrays and decides which rows are gathered into the
//! scan's batches, never which bytes are fetched. Row-group stats skipping
//! is available as an opt-in extension. As on every arm, the executor then
//! applies only the residual WHERE.

use crate::connector::StorageConnector;
use crate::datasource::{PrunedFilteredScan, RowStream, ScanOutput, TableScan};
use crate::partition::{discover_whole_objects, InputPartition};
use scoop_columnar::ColumnarReader;
use scoop_common::{Result, ScoopError};
use scoop_csv::{Predicate, Schema};
use std::sync::Arc;

/// A columnar table: one encoded object per partition.
pub struct ColumnarRelation {
    connector: Arc<dyn StorageConnector>,
    location: String,
    prefix: Option<String>,
    schema: Schema,
    /// Opt-in row-group skipping on chunk min/max stats.
    stats_pruning: bool,
}

impl ColumnarRelation {
    /// Open a relation, inferring the schema from the first object's footer
    /// (one listing and two ranged reads).
    pub fn open(
        connector: Arc<dyn StorageConnector>,
        location: &str,
        prefix: Option<&str>,
        stats_pruning: bool,
    ) -> Result<ColumnarRelation> {
        let mut objects = connector.list(location, prefix)?;
        objects.sort_by(|a, b| a.name.cmp(&b.name));
        let first = objects
            .first()
            .ok_or_else(|| ScoopError::NotFound(format!("no objects under {location}")))?;
        let schema = {
            let conn = connector.clone();
            let loc = location.to_string();
            let name = first.name.clone();
            let reader = ColumnarReader::open(
                first.size,
                Box::new(move |s, e| conn.fetch_range(&loc, &name, s, e)),
            )?;
            reader.schema().clone()
        };
        Ok(Self::with_schema(connector, location, prefix, stats_pruning, schema))
    }

    /// A relation over a table whose schema is already known: no request is
    /// made until partitions are discovered.
    pub fn with_schema(
        connector: Arc<dyn StorageConnector>,
        location: &str,
        prefix: Option<&str>,
        stats_pruning: bool,
        schema: Schema,
    ) -> ColumnarRelation {
        ColumnarRelation {
            connector,
            location: location.to_string(),
            prefix: prefix.map(str::to_string),
            schema,
            stats_pruning,
        }
    }
}

impl TableScan for ColumnarRelation {
    fn schema(&self) -> Result<Schema> {
        Ok(self.schema.clone())
    }

    fn partitions(&self, _chunk_size: u64) -> Result<Vec<InputPartition>> {
        discover_whole_objects(
            self.connector.as_ref(),
            &self.location,
            self.prefix.as_deref(),
        )
    }
}

impl PrunedFilteredScan for ColumnarRelation {
    fn scan_pruned_filtered(
        &self,
        partition: &InputPartition,
        columns: Option<&[String]>,
        predicate: Option<&Predicate>,
    ) -> Result<ScanOutput> {
        let scan_schema = match columns {
            None => self.schema.clone(),
            Some(cols) => self.schema.project(cols)?,
        };
        let conn = self.connector.clone();
        let loc = self.location.clone();
        let name = partition.object.clone();
        let reader = ColumnarReader::open(
            partition.object_size,
            Box::new(move |s, e| conn.fetch_range(&loc, &name, s, e)),
        )?;
        let mut batches =
            reader.read_batches_selected(columns, predicate, self.stats_pruning)?.into_iter();
        Ok(ScanOutput {
            schema: scan_schema,
            rows: RowStream::new(move |_| Ok(batches.next())),
            plain: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connector::MemoryConnector;
    use scoop_columnar::ColumnarWriter;
    use scoop_csv::schema::{DataType, Field};
    use scoop_csv::{ColumnBatch, Value};

    fn setup() -> (Arc<MemoryConnector>, ColumnarRelation) {
        let schema = Schema::new(vec![
            Field::new("vid", DataType::Str),
            Field::new("index", DataType::Float),
        ]);
        let conn = MemoryConnector::new();
        for obj in 0..2 {
            let mut w = ColumnarWriter::with_row_group_rows(schema.clone(), 5);
            let rows = (0..12).map(|i| {
                vec![Value::Str(format!("m{obj}-{i}")), Value::Float((obj * 100 + i) as f64)]
            });
            w.write_batch(ColumnBatch::from_rows(&schema, rows));
            conn.put("cols", &format!("part-{obj}.scol"), w.finish());
        }
        let rel = ColumnarRelation::open(conn.clone(), "cols", None, true).unwrap();
        (conn, rel)
    }

    #[test]
    fn schema_from_footer_and_partitions() {
        let (_, rel) = setup();
        assert_eq!(rel.schema().unwrap().names(), vec!["vid", "index"]);
        let parts = rel.partitions(123).unwrap();
        assert_eq!(parts.len(), 2);
    }

    #[test]
    fn full_and_pruned_reads() {
        let (_, rel) = setup();
        let parts = rel.partitions(0).unwrap();
        let all: Vec<Vec<Value>> =
            rel.scan_pruned_filtered(&parts[0], None, None).unwrap().rows.collect::<Result<_>>().unwrap();
        assert_eq!(all.len(), 12);
        let pruned = rel
            .scan_pruned_filtered(&parts[1], Some(&["index".to_string()]), None)
            .unwrap();
        assert_eq!(pruned.schema.names(), vec!["index"]);
        let rows: Vec<Vec<Value>> = pruned.rows.collect::<Result<_>>().unwrap();
        assert_eq!(rows[0], vec![Value::Float(100.0)]);
    }

    #[test]
    fn pruning_reduces_transfer() {
        let (conn, rel) = setup();
        let parts = rel.partitions(0).unwrap();
        conn.reset_transfer_counter();
        let _: Vec<_> = rel.scan_pruned_filtered(&parts[0], None, None).unwrap().rows.collect();
        let full = conn.bytes_transferred();
        conn.reset_transfer_counter();
        let _: Vec<_> = rel
            .scan_pruned_filtered(&parts[0], Some(&["index".to_string()]), None)
            .unwrap()
            .rows
            .collect();
        assert!(conn.bytes_transferred() < full);
    }

    #[test]
    fn stats_pruning_and_selection_keep_exactly_the_matches() {
        let (_, rel) = setup();
        let parts = rel.partitions(0).unwrap();
        let rows = |pred: Predicate| -> Vec<Vec<Value>> {
            let out = rel.scan_pruned_filtered(&parts[1], None, Some(&pred)).unwrap();
            assert!(!out.plain);
            out.rows.collect::<Result<_>>().unwrap()
        };
        // Every group skipped on its statistics.
        assert!(rows(Predicate::Gt("index".into(), Value::Float(1e9))).is_empty());
        // The first group skipped, the rest selected row by row.
        let kept = rows(Predicate::Ge("index".into(), Value::Float(107.0)));
        let want: Vec<f64> = (107..112).map(f64::from).collect();
        assert_eq!(kept.iter().map(|r| r[1].as_f64().unwrap()).collect::<Vec<_>>(), want);
    }
}
