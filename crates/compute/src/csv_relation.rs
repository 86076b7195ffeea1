//! The CSV relation — the paper's extended Spark-CSV.
//!
//! Implements the `PrunedFilteredScan` Data Sources flavor. With pushdown enabled,
//! `scan_pruned_filtered` delegates projection+selection to the store (the
//! Scoop path); otherwise the partition's raw byte range is ingested,
//! record-aligned client-side, selected, parsed and pruned in the compute
//! tier (the vanilla ingest-then-compute path), as is a pushdown split the
//! store answers plain. Both paths produce rows under the same projected
//! schema so the executor upstream is oblivious, and both select with the
//! same raw-field evaluator: the scan applies the pushed predicate, and the
//! executor only the residual WHERE.
//!
//! Under pushdown, discovery also consults each object's zone maps and drops
//! the splits in which no block can match: the store would have planned
//! them with the same function and answered with an empty body. The vanilla
//! arm stays the paper's ingest-then-compute and reads every split.
//!
//! Pruning can leave fewer splits than the session has workers: a Table I
//! month over time-major objects keeps one 1 MiB split, one task, and the
//! other workers idle. So [`PrunedFilteredScan::tasks_for`] then cuts the
//! split with the most surviving bytes in two at a block start near their
//! midpoint, again and again, until there is a task per worker or no piece
//! keeps two blocks. The cut sits at `block.start − 1`: under the Hadoop
//! ownership rule (a window `[start, end)` owns the records that start in
//! `(start, end]`) the record at `block.start` goes to the later piece, so
//! no record and no block lies in two pieces, and the store scans the bytes
//! it scanned for the uncut split. A piece read plain — the store shed or
//! declined it, or its maps went stale — is selected in its own window by
//! the same rule. Pieces stay in object order, so the driver's merge sees
//! rows in the order it saw them uncut. On the `zoned_table1` benchmark
//! (2 workers, 2 vCPU) this made a round 14 tasks instead of 7 and its
//! median time 20.3 → 16.1 ms, with the store's scanned bytes unchanged.

use crate::connector::{ObjectInfo, PushdownBody, StorageConnector, SPLIT_SLACK};
use crate::datasource::{Discovery, PrunedFilteredScan, RowStream, ScanOutput, TableScan};
use crate::partition::{discover, discover_where, InputPartition};
use scoop_common::zonestats::ObjectStats;
use scoop_common::{ByteStream, Result, ScoopError};
use scoop_csv::blockplan::surviving_blocks;
use scoop_csv::split::RangedRecordStream;
use scoop_csv::batch::{BatchBuilder, BATCH_ROWS};
use scoop_csv::{ColumnBatch, CompiledSpec, CsvReader, FieldBuf, Predicate, PushdownSpec, Schema};
use bytes::Bytes;
use std::cmp::Reverse;
use std::sync::Arc;

/// The blocks the store scans for a split or piece, each `[start, end)`, in
/// object order.
type Blocks = Vec<(u64, u64)>;

/// How much of the first object schema inference samples.
const INFER_BYTES: u64 = 256 * 1024;

/// A CSV table stored as one or more objects under a location.
pub struct CsvRelation {
    connector: Arc<dyn StorageConnector>,
    location: String,
    prefix: Option<String>,
    has_header: bool,
    schema: Schema,
    /// Column names in file order (the storlet's `schema` parameter).
    file_columns: Vec<String>,
    /// Session-level toggle: true = Scoop pushdown, false = vanilla.
    pushdown_enabled: bool,
}

impl CsvRelation {
    /// Open a relation, inferring the schema from the first object when not
    /// provided.
    pub fn open(
        connector: Arc<dyn StorageConnector>,
        location: &str,
        prefix: Option<&str>,
        has_header: bool,
        schema: Option<Schema>,
        pushdown_enabled: bool,
    ) -> Result<CsvRelation> {
        let schema = match schema {
            Some(s) => s,
            None => {
                let mut objects = connector.list(location, prefix)?;
                objects.sort_by(|a, b| a.name.cmp(&b.name));
                let first = objects.first().ok_or_else(|| {
                    ScoopError::NotFound(format!("no objects under {location}"))
                })?;
                let head_len = first.size.min(INFER_BYTES);
                let head = connector.fetch_range(location, &first.name, 0, head_len)?;
                scoop_csv::reader::infer_schema(&head, 100)?
            }
        };
        let file_columns: Vec<String> =
            schema.names().iter().map(|s| s.to_string()).collect();
        Ok(CsvRelation {
            connector,
            location: location.to_string(),
            prefix: prefix.map(str::to_string),
            has_header,
            schema,
            file_columns,
            pushdown_enabled,
        })
    }

    /// The relation's location (diagnostics).
    pub fn location(&self) -> &str {
        &self.location
    }

    /// The listed version's zone maps, when they describe it under this
    /// relation's layout — the same check the store runs before it plans.
    fn fresh_stats(&self, obj: &ObjectInfo) -> Option<Arc<ObjectStats>> {
        let columns = self.file_columns.iter().map(String::as_str);
        self.connector
            .zone_stats(&self.location, &obj.name, &obj.etag)
            .filter(|stats| stats.describes(Some(&obj.etag), Some(obj.size), columns, self.has_header))
    }

    /// The pushdown discovery: the splits whose store-side plan keeps a
    /// block, each with the blocks it keeps ([`surviving_blocks`]; none for
    /// an object without fresh maps, whose splits all survive).
    fn surviving_splits(
        &self,
        chunk_size: u64,
        predicate: Option<&Predicate>,
    ) -> Result<(Discovery, Vec<Blocks>)> {
        let (mut pruned, mut unindexed_objects, mut blocks) = (0, 0, Vec::new());
        let select = |obj: &ObjectInfo, splits: Vec<(u64, u64)>| {
            if splits.is_empty() {
                return splits;
            }
            let Some(stats) = self.fresh_stats(obj) else {
                unindexed_objects += 1;
                blocks.resize(blocks.len().saturating_add(splits.len()), Vec::new());
                return splits;
            };
            let total = splits.len();
            let mut kept = Vec::with_capacity(total);
            for (start, end) in splits {
                let survivors = surviving_blocks(&stats, predicate, start, Some(end.saturating_sub(1)));
                if !survivors.is_empty() {
                    kept.push((start, end));
                    blocks.push(survivors);
                }
            }
            pruned += total.saturating_sub(kept.len());
            kept
        };
        let partitions = discover_where(
            self.connector.as_ref(),
            &self.location,
            self.prefix.as_deref(),
            chunk_size,
            select,
        )?;
        Ok((Discovery { partitions, pruned, unindexed_objects, cuts: 0 }, blocks))
    }

    fn projected_schema(&self, columns: Option<&[String]>) -> Result<Schema> {
        match columns {
            None => Ok(self.schema.clone()),
            Some(cols) => self.schema.project(cols),
        }
    }

    /// The vanilla path: full-range ingest, client-side alignment, selection
    /// and pruning. The read is bounded just past the split's end — the
    /// record reader stops there, and an open-ended GET abandoned mid-body
    /// would cost the connector its pooled connection.
    fn scan_vanilla(
        &self,
        partition: &InputPartition,
        columns: Option<&[String]>,
        predicate: Option<&Predicate>,
    ) -> Result<ScanOutput> {
        let stream = self.connector.read_bounded(
            &self.location,
            &partition.object,
            partition.start,
            partition.end.saturating_add(SPLIT_SLACK),
        )?;
        self.selected(stream, partition, columns, predicate)
    }

    /// The batches of a split's raw bytes (`stream` starts at the split's
    /// start). The pushed predicate selects on raw field bytes with the
    /// store's own evaluator ([`CompiledSpec`]), and only the survivors are
    /// typed — the late materialisation the columnar arm has.
    fn selected(
        &self,
        stream: ByteStream,
        partition: &InputPartition,
        columns: Option<&[String]>,
        predicate: Option<&Predicate>,
    ) -> Result<ScanOutput> {
        let scan_schema = self.projected_schema(columns)?;
        let projection: Vec<usize> = match columns {
            None => (0..self.schema.len()).collect(),
            Some(cols) => cols.iter().map(|c| self.schema.resolve(c)).collect::<Result<_>>()?,
        };
        // `select` tokenises survivors through the last typed column.
        let selection = CompiledSpec::selection(
            predicate,
            &self.file_columns,
            projection.iter().max().map_or(0, |&i| i.saturating_add(1)),
        )?;
        let mut selected = SelectedRows {
            records: RangedRecordStream::new(stream, partition.start, Some(partition.end)),
            selection,
            schema: scan_schema.clone(),
            projection,
            fields: FieldBuf::default(),
            skip_header: self.has_header && partition.start == 0,
        };
        let rows = RowStream::new(move |rows| selected.next_batch(rows));
        Ok(ScanOutput { schema: scan_schema, rows, plain: false })
    }

    /// The Scoop path: the store filters; we parse the projected records, or
    /// select a split it answers plain as a vanilla one.
    fn scan_pushdown(
        &self,
        partition: &InputPartition,
        columns: Option<&[String]>,
        predicate: Option<&Predicate>,
    ) -> Result<ScanOutput> {
        let scan_schema = self.projected_schema(columns)?;
        let spec = PushdownSpec {
            columns: columns.map(|c| c.to_vec()),
            predicate: predicate.cloned(),
            has_header: self.has_header,
        };
        let body = self.connector.open_pushdown(
            &self.location,
            &partition.object,
            partition.start,
            Some(partition.end),
            &spec,
            &self.file_columns,
        )?;
        let stream = match body {
            PushdownBody::Filtered(stream) => stream,
            PushdownBody::Plain(stream) => {
                let out = self.selected(stream, partition, columns, predicate)?;
                return Ok(ScanOutput { plain: true, ..out });
            }
        };
        // Pushdown responses carry pure data records (header consumed at the
        // store).
        let mut reader = CsvReader::new(stream, scan_schema.clone(), false);
        let rows = RowStream::new(move |_| reader.next_batch());
        Ok(ScanOutput { schema: scan_schema, rows, plain: false })
    }
}

/// The vanilla scan's batches: each input chunk's records selected on their
/// borrowed bytes ([`CompiledSpec::select`] tokenises a record only as far as
/// its verdict needs) and the survivors typed, gathered over chunks into
/// batches of up to [`BATCH_ROWS`], or of fewer when the reader asks.
struct SelectedRows {
    records: RangedRecordStream,
    selection: CompiledSpec,
    /// The projected schema the survivors are typed to.
    schema: Schema,
    /// The projected columns' positions in the file.
    projection: Vec<usize>,
    fields: FieldBuf,
    skip_header: bool,
}

impl SelectedRows {
    /// The next batch of survivors, gathered over input chunks until it
    /// holds `rows` (or [`BATCH_ROWS`]); `None` once the split has no more.
    fn next_batch(&mut self, rows: usize) -> Result<Option<ColumnBatch>> {
        let SelectedRows { records, selection, schema, projection, fields, skip_header } = self;
        let mut batch = BatchBuilder::new(schema, Bytes::new());
        while batch.rows() < rows.clamp(1, BATCH_ROWS) {
            let more = records.next_chunk(|record| {
                if std::mem::take(skip_header) {
                    return;
                }
                if let Some(view) = selection.select(record, fields) {
                    batch.push_view(&view, projection.iter().copied());
                }
            })?;
            if !more {
                break;
            }
        }
        Ok((batch.rows() > 0).then(|| batch.finish()))
    }
}

impl TableScan for CsvRelation {
    fn schema(&self) -> Result<Schema> {
        Ok(self.schema.clone())
    }

    fn partitions(&self, chunk_size: u64) -> Result<Vec<InputPartition>> {
        discover(
            self.connector.as_ref(),
            &self.location,
            self.prefix.as_deref(),
            chunk_size,
        )
    }
}

impl PrunedFilteredScan for CsvRelation {
    fn scan_pruned_filtered(
        &self,
        partition: &InputPartition,
        columns: Option<&[String]>,
        predicate: Option<&Predicate>,
    ) -> Result<ScanOutput> {
        if self.pushdown_enabled {
            self.scan_pushdown(partition, columns, predicate)
        } else {
            self.scan_vanilla(partition, columns, predicate)
        }
    }

    /// Under pushdown, a split survives when the store's plan for it —
    /// [`plan_ranges`](scoop_csv::blockplan::plan_ranges) over fresh zone
    /// maps, for the inclusive range a pushdown scan of the split sends —
    /// keeps at least one block. An object without fresh maps keeps every
    /// split.
    fn partitions_for(&self, chunk_size: u64, predicate: Option<&Predicate>) -> Result<Discovery> {
        if !self.pushdown_enabled {
            return Ok(Discovery { partitions: self.partitions(chunk_size)?, ..Discovery::default() });
        }
        Ok(self.surviving_splits(chunk_size, predicate)?.0)
    }

    /// Under pushdown, the surviving splits, the one with the most
    /// surviving bytes cut in two at a block start again and again until
    /// there is a task per worker or no piece keeps two blocks (see the
    /// module doc).
    fn tasks_for(
        &self,
        chunk_size: u64,
        predicate: Option<&Predicate>,
        workers: usize,
    ) -> Result<Discovery> {
        if !self.pushdown_enabled {
            return self.partitions_for(chunk_size, predicate);
        }
        let (discovery, blocks) = self.surviving_splits(chunk_size, predicate)?;
        let (partitions, cuts) = cut_for_workers(discovery.partitions, blocks, workers);
        Ok(Discovery { partitions, cuts, ..discovery })
    }
}

/// Cut `splits` (each with the blocks the store scans for it) until there is a piece per worker, or no piece holds two
/// blocks: the piece with the most surviving bytes, the first on a tie, is
/// cut in two at the block start nearest its surviving-bytes midpoint, at
/// `block.start − 1` (the module doc says why no record or block moves).
/// Returns the pieces, in object order and numbered densely, and the number
/// of cuts.
fn cut_for_workers(
    splits: Vec<InputPartition>,
    blocks: Vec<Blocks>,
    workers: usize,
) -> (Vec<InputPartition>, usize) {
    let mut pieces: Vec<(InputPartition, Blocks)> = splits.into_iter().zip(blocks).collect();
    let mut cuts = 0;
    while pieces.len() < workers {
        let widest = pieces
            .iter()
            .enumerate()
            .filter_map(|(i, (part, blocks))| Some((bytes_of(blocks), Reverse(i), cut_point(part.start, blocks)?)))
            .max();
        let Some((_, Reverse(i), at)) = widest else { break };
        let Some((part, blocks)) = pieces.get_mut(i) else { break };
        let later_blocks = blocks.split_off(at);
        let cut = later_blocks.first().map_or(part.end, |&(s, _)| s.saturating_sub(1));
        let later = InputPartition { start: cut, ..part.clone() };
        part.end = cut;
        pieces.insert(i.saturating_add(1), (later, later_blocks));
        cuts += 1;
    }
    let partitions = pieces
        .into_iter()
        .enumerate()
        .map(|(index, (part, _))| InputPartition { index, ..part })
        .collect();
    (partitions, cuts)
}

/// Where to cut a piece that starts at `start` and scans `blocks`: the index
/// of the later half's first block, the one whose start is nearest the
/// surviving-bytes midpoint among those that leave the earlier half a
/// non-empty window; `None` when no block but the first qualifies.
fn cut_point(start: u64, blocks: &[(u64, u64)]) -> Option<usize> {
    let total = bytes_of(blocks);
    let (mut before, mut best) = (0u64, None::<(u64, usize)>);
    for (k, &(s, e)) in blocks.iter().enumerate() {
        if k > 0 && s.saturating_sub(1) > start {
            let off = before.saturating_mul(2).abs_diff(total);
            if best.is_none_or(|(d, _)| off < d) {
                best = Some((off, k));
            }
        }
        before = before.saturating_add(e.saturating_sub(s));
    }
    best.map(|(_, k)| k)
}

/// The bytes of `blocks`.
fn bytes_of(blocks: &[(u64, u64)]) -> u64 {
    blocks.iter().map(|&(s, e)| e.saturating_sub(s)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connector::MemoryConnector;
    use bytes::Bytes;
    use scoop_csv::Value;

    const DATA: &[u8] = b"vid,index,city\n\
        m1,10.5,Rotterdam\n\
        m2,20.0,Paris\n\
        m3,7.5,Rotterdam\n";

    fn relation(pushdown: bool) -> (Arc<MemoryConnector>, CsvRelation) {
        let c = MemoryConnector::with_pushdown();
        c.put("meters", "jan.csv", Bytes::from_static(DATA));
        let rel =
            CsvRelation::open(c.clone(), "meters", None, true, None, pushdown).unwrap();
        (c, rel)
    }

    fn collect(out: ScanOutput) -> Vec<Vec<Value>> {
        out.rows.collect::<Result<_>>().unwrap()
    }

    #[test]
    fn schema_inference() {
        let (_, rel) = relation(false);
        let s = rel.schema().unwrap();
        assert_eq!(s.names(), vec!["vid", "index", "city"]);
        assert_eq!(s.fields[1].dtype, scoop_csv::DataType::Float);
    }

    #[test]
    fn vanilla_scan_reads_everything() {
        let (_, rel) = relation(false);
        let parts = rel.partitions(1 << 20).unwrap();
        assert_eq!(parts.len(), 1);
        let out = rel.scan_pruned_filtered(&parts[0], None, None).unwrap();
        assert!(!out.plain);
        let rows = collect(out);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0][0], Value::Str("m1".into()));
    }

    #[test]
    fn an_unterminated_record_past_the_cap_fails_the_vanilla_scan() {
        let mut body = b"vid,index,city\n".to_vec();
        body.resize(body.len() + scoop_csv::record::DEFAULT_MAX_RECORD_SIZE + 1, b'x');
        let c = MemoryConnector::new();
        c.put("meters", "big.csv", Bytes::from(body));
        let schema = relation(false).1.schema().unwrap();
        let rel = CsvRelation::open(c, "meters", None, true, Some(schema), false).unwrap();
        let parts = rel.partitions(1 << 20).unwrap();
        let err = rel.scan_pruned_filtered(&parts[0], None, None).unwrap().rows.collect::<Result<Vec<_>>>().unwrap_err();
        assert!(matches!(err, ScoopError::Csv(_)), "{err}");
    }

    #[test]
    fn pruned_scan_projects() {
        let (_, rel) = relation(false);
        let parts = rel.partitions(1 << 20).unwrap();
        let cols = ["city".to_string(), "vid".to_string()];
        let out = rel.scan_pruned_filtered(&parts[0], Some(&cols), None).unwrap();
        assert_eq!(out.schema.names(), vec!["city", "vid"]);
        let rows = collect(out);
        assert_eq!(rows[1], vec![Value::Str("Paris".into()), Value::Str("m2".into())]);
    }

    #[test]
    fn pushdown_and_vanilla_agree() {
        let pred = Predicate::Eq("city".into(), Value::Str("Rotterdam".into()));
        let cols = vec!["vid".to_string(), "index".to_string()];
        let (_, vanilla_rel) = relation(false);
        let (_, pushdown_rel) = relation(true);
        // A store without an active layer answers every pushdown read plain.
        let bare = MemoryConnector::new();
        bare.put("meters", "jan.csv", Bytes::from_static(DATA));
        let plain_rel = CsvRelation::open(bare, "meters", None, true, None, true).unwrap();
        for chunk in [8u64, 16, 30, 1000] {
            let vp = vanilla_rel.partitions(chunk).unwrap();
            let pp = pushdown_rel.partitions(chunk).unwrap();
            assert_eq!(vp.len(), pp.len());
            let mut vanilla_rows = Vec::new();
            let mut pushdown_rows = Vec::new();
            for (v, p) in vp.iter().zip(&pp) {
                let out = vanilla_rel
                    .scan_pruned_filtered(v, Some(&cols), Some(&pred))
                    .unwrap();
                // Vanilla selects on the raw fields, as the store does.
                assert!(!out.plain);
                let split_rows = collect(out);
                // A plain split is the vanilla scan of that split, and is
                // reported as the degradation it is.
                let out = plain_rel.scan_pruned_filtered(v, Some(&cols), Some(&pred)).unwrap();
                assert!(out.plain);
                assert_eq!(collect(out), split_rows, "chunk={chunk}");
                vanilla_rows.extend(split_rows);
                let out = pushdown_rel
                    .scan_pruned_filtered(p, Some(&cols), Some(&pred))
                    .unwrap();
                assert!(!out.plain);
                pushdown_rows.extend(collect(out));
            }
            assert_eq!(vanilla_rows, pushdown_rows, "chunk={chunk}");
            assert_eq!(pushdown_rows.len(), 2);
        }
    }

    #[test]
    fn vanilla_selection_and_projection_read_different_fields() {
        let (_, rel) = relation(false);
        let parts = rel.partitions(1 << 20).unwrap();
        // The predicate reads field 0 only; the projection reads on to 2.
        let pred = Predicate::StartsWith("vid".into(), "m3".into());
        let cols = vec!["city".to_string(), "index".to_string()];
        let out = rel.scan_pruned_filtered(&parts[0], Some(&cols), Some(&pred)).unwrap();
        assert_eq!(collect(out), vec![vec![Value::Str("Rotterdam".into()), Value::Float(7.5)]]);
        // The predicate reads past the projection.
        let pred = Predicate::Eq("city".into(), Value::Str("Paris".into()));
        let out = rel
            .scan_pruned_filtered(&parts[0], Some(&["vid".to_string()]), Some(&pred))
            .unwrap();
        assert_eq!(collect(out), vec![vec![Value::Str("m2".into())]]);
        // An unknown predicate column fails the scan, as it fails at the store.
        let ghost = Predicate::IsNull("ghost".into());
        assert!(rel.scan_pruned_filtered(&parts[0], None, Some(&ghost)).is_err());
    }

    #[test]
    fn pushdown_transfers_fewer_bytes() {
        let pred = Predicate::Eq("city".into(), Value::Str("Rotterdam".into()));
        let cols = vec!["vid".to_string()];
        let (conn, rel) = relation(true);
        let parts = rel.partitions(1 << 20).unwrap();
        conn.reset_transfer_counter();
        let out = rel
            .scan_pruned_filtered(&parts[0], Some(&cols), Some(&pred))
            .unwrap();
        let rows = collect(out);
        assert_eq!(rows.len(), 2);
        assert!(conn.bytes_transferred() < DATA.len() as u64 / 3);
    }

    #[test]
    fn cuts_halve_the_widest_piece_until_each_worker_has_one() {
        let split = |index, start, end| InputPartition { index, object: "o".into(), object_size: 1000, start, end };
        let windows = |parts: &[InputPartition]| -> Vec<(usize, u64, u64)> {
            parts.iter().map(|p| (p.index, p.start, p.end)).collect()
        };
        // Split 0 scans three blocks of 100 bytes, split 1 one of 400.
        let splits = vec![split(0, 0, 500), split(1, 500, 1000)];
        let blocks = vec![vec![(10, 110), (110, 210), (210, 310)], vec![(600, 1000)]];
        assert_eq!(cut_for_workers(splits.clone(), blocks.clone(), 2), (splits.clone(), 0));
        // Split 1 has one block and is never cut; split 0 is cut at its
        // midpoint (the first of two equally near), then its wider half.
        let (parts, cuts) = cut_for_workers(splits.clone(), blocks.clone(), 3);
        assert_eq!((windows(&parts), cuts), (vec![(0, 0, 109), (1, 109, 500), (2, 500, 1000)], 1));
        let (parts, cuts) = cut_for_workers(splits, blocks, 8);
        let want = vec![(0, 0, 109), (1, 109, 209), (2, 209, 500), (3, 500, 1000)];
        assert_eq!((windows(&parts), cuts), (want, 2));
        // A cut whose earlier piece would own no byte is not made.
        let tiny = vec![split(0, 0, 5)];
        assert_eq!(cut_for_workers(tiny.clone(), vec![vec![(0, 1), (1, 5)]], 2), (tiny, 0));
    }

    #[test]
    fn missing_location_errors() {
        let c = MemoryConnector::new();
        assert!(CsvRelation::open(c, "ghost", None, true, None, false).is_err());
    }
}
