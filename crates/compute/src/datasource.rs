//! The Data Sources API.
//!
//! "The Data Sources API has several flavors. The simplest flavor is called
//! Scan ... Further, the PrunedFilteredScan API flavor takes both a
//! projection and selection filters" — Section V. Every relation here
//! implements the richest flavor, [`PrunedFilteredScan`], and that is the
//! only scan anything drives; [`TableScan`] holds what it builds on, the
//! schema and partition discovery. A full scan is
//! `scan_pruned_filtered(partition, None, None)`.

use crate::partition::InputPartition;
use scoop_common::Result;
use scoop_csv::batch::{RowCursor, BATCH_ROWS};
use scoop_csv::{ColumnBatch, Predicate, Schema, Value};

/// What one partition scan produces: typed column batches, pulled one at a
/// time with [`RowStream::next_batch`] — what the executor consumes.
///
/// The `Iterator` of `Vec<Value>` rows is an adapter over the batches for
/// callers that count or compare rows; mixing the two drops the rest of a
/// batch the row adapter has begun.
pub struct RowStream {
    batches: Box<dyn FnMut(usize) -> Result<Option<ColumnBatch>> + Send>,
    cursor: RowCursor,
}

impl RowStream {
    /// A stream over a batch source: `next_batch(rows)` yields `None` once
    /// done. A source that gathers rows over its input chunks stops
    /// gathering at the end of the chunk in which its batch holds `rows`
    /// (at least 1, at most [`BATCH_ROWS`]); any other source may ignore it.
    pub fn new(next_batch: impl FnMut(usize) -> Result<Option<ColumnBatch>> + Send + 'static) -> RowStream {
        RowStream { batches: Box::new(next_batch), cursor: RowCursor::default() }
    }

    /// The next batch; `None` once the scan is exhausted.
    pub fn next_batch(&mut self) -> Result<Option<ColumnBatch>> {
        (self.batches)(BATCH_ROWS)
    }

    /// [`RowStream::next_batch`] for a reader that wants only `rows` more
    /// rows (a LIMIT's open quota): a gathering source reads no further
    /// than the input chunk in which its batch holds that many.
    pub fn next_batch_of(&mut self, rows: usize) -> Result<Option<ColumnBatch>> {
        (self.batches)(rows.clamp(1, BATCH_ROWS))
    }
}

/// Rows one at a time, over [`RowStream::next_batch`].
impl Iterator for RowStream {
    type Item = Result<Vec<Value>>;

    fn next(&mut self) -> Option<Self::Item> {
        let batches = &mut self.batches;
        self.cursor.next_row(|| batches(BATCH_ROWS))
    }
}

/// The output of scanning one partition.
pub struct ScanOutput {
    /// Schema of the produced rows.
    pub schema: Schema,
    /// The rows.
    pub rows: RowStream,
    /// True when the store answered a pushdown read of the split unfiltered
    /// ([`crate::PushdownBody::Plain`]), so the scan selected it itself: a
    /// degradation the query's event counts.
    pub plain: bool,
}

/// The partitions one query scans, and what discovery learned choosing
/// them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Discovery {
    /// The partitions to scan, indexed densely from 0.
    pub partitions: Vec<InputPartition>,
    /// Splits dropped because the source's metadata proved they hold no
    /// match.
    pub pruned: usize,
    /// Objects whose splits metadata could not test: no index, a stale
    /// one, or one the reader cannot fetch.
    pub unindexed_objects: usize,
}

/// A relation: its schema and its partitions.
pub trait TableScan: Send + Sync {
    /// The relation's full schema.
    fn schema(&self) -> Result<Schema>;

    /// Discover the relation's partitions.
    fn partitions(&self, chunk_size: u64) -> Result<Vec<InputPartition>>;
}

/// Projection and selection pushdown — the flavor the paper's extended
/// Spark-CSV implements ("we augmented the Spark CSV library with the
/// PrunedFilteredScan Data Source API").
pub trait PrunedFilteredScan: TableScan {
    /// Scan with projection and selection. `columns == None` keeps all
    /// columns (otherwise output order follows the request). The scan
    /// applies `predicate`: it yields the rows for which it holds, each leaf
    /// false on NULL. For a predicate `plan_query` pushes (no `NOT`, literals
    /// of the column's type) that is exactly the rows SQL's WHERE keeps, so
    /// the caller applies only the residual WHERE.
    fn scan_pruned_filtered(
        &self,
        partition: &InputPartition,
        columns: Option<&[String]>,
        predicate: Option<&Predicate>,
    ) -> Result<ScanOutput>;

    /// Discover the partitions a scan under `predicate` must read. The
    /// default is every partition of [`TableScan::partitions`]; a source
    /// whose metadata proves a partition holds no match drops it here,
    /// before any task is spent on it.
    fn partitions_for(&self, chunk_size: u64, _predicate: Option<&Predicate>) -> Result<Discovery> {
        Ok(Discovery { partitions: self.partitions(chunk_size)?, ..Discovery::default() })
    }
}
