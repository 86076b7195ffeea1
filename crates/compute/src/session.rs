//! The user-facing session: register tables, run SQL, get results + metrics.
//!
//! This is the "Spark client" of Fig. 4: it parses the query, lets Catalyst
//! extract the pushdown, discovers partitions, fans tasks out to the worker
//! pool (each task scanning one partition through the Data Sources API and
//! folding its typed column batches into one executor partial, aggregate or
//! not), then merges the partials in task order and finalizes on the
//! driver. The `pushdown` toggle is the with/without-Scoop experiment
//! switch.

use crate::columnar_relation::ColumnarRelation;
use crate::csv_relation::CsvRelation;
use crate::datasource::PrunedFilteredScan;
use crate::partition::DEFAULT_CHUNK_SIZE;
use crate::scheduler::{collect_ok, run_tasks_with_deadline, total_retries};
use parking_lot::RwLock;
use scoop_common::{Deadline, Result, ScoopError};
use scoop_csv::Schema;
use scoop_sql::catalyst::plan_query;
use scoop_sql::exec::Executor;
use scoop_sql::{parse, ResultSet, RowFilter};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::connector::StorageConnector;

/// Default total attempts per task (Spark ships `spark.task.maxFailures = 4`).
pub const DEFAULT_MAX_TASK_FAILURES: u32 = 4;

/// How a registered table is stored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableFormat {
    /// CSV objects (optionally with a header row).
    Csv {
        /// Whether objects start with a header record.
        has_header: bool,
    },
    /// Columnar objects (the Parquet-like format).
    Columnar,
}

/// Which execution arm a query ran under (reported in metrics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionMode {
    /// Ingest-then-compute: full objects transferred, filtered at compute.
    Vanilla,
    /// Scoop: projections/selections executed at the object store.
    Pushdown,
    /// Columnar with column pruning, compute-side selection.
    Columnar,
}

impl std::fmt::Display for ExecutionMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecutionMode::Vanilla => write!(f, "vanilla"),
            ExecutionMode::Pushdown => write!(f, "pushdown"),
            ExecutionMode::Columnar => write!(f, "columnar"),
        }
    }
}

#[derive(Debug, Clone)]
struct TableDef {
    location: String,
    prefix: Option<String>,
    format: TableFormat,
    schema: Option<Schema>,
}

/// Per-query accounting.
#[derive(Debug, Clone)]
pub struct JobMetrics {
    /// Execution arm.
    pub mode: ExecutionMode,
    /// Tasks executed: the partitions discovery kept. Under pushdown these
    /// are the splits that survived the zone maps, cut at block starts when
    /// fewer survived than the session has workers
    /// ([`PrunedFilteredScan::tasks_for`]).
    pub tasks: usize,
    /// Bytes that crossed the storage→compute boundary.
    pub bytes_transferred: u64,
    /// Rows handed to the SQL executor: exactly the rows of the batches the
    /// scans yielded, which on every arm is the survivors of the pushed
    /// predicate — selected by the store under pushdown, by the scan itself
    /// on the vanilla and columnar arms — not the records or rows the scan
    /// read. With the WHERE fully pushed it equals `rows_after_filter`.
    pub rows_to_compute: u64,
    /// Rows surviving compute-side filtering (input to agg/projection).
    pub rows_after_filter: u64,
    /// WHERE conjuncts pushed to the store.
    pub pushed_conjuncts: usize,
    /// WHERE conjuncts evaluated at the compute side.
    pub residual_conjuncts: usize,
    /// End-to-end wall time of the query.
    pub wall: Duration,
    /// Per-task wall times.
    pub task_durations: Vec<Duration>,
    /// Task re-executions after retryable failures (0 on a healthy run).
    pub task_retries: u64,
    /// Trace ID minted for this query; every storage hop records its span
    /// under it (query with [`scoop_common::telemetry::trace_spans`]).
    pub trace: String,
}

/// A finished query: result + metrics.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Rows and columns.
    pub result: ResultSet,
    /// Accounting.
    pub metrics: JobMetrics,
}

/// The Spark-like session.
pub struct Session {
    connector: Arc<dyn StorageConnector>,
    workers: usize,
    chunk_size: u64,
    pushdown: bool,
    max_task_failures: u32,
    time_budget: Option<Duration>,
    tables: RwLock<HashMap<String, TableDef>>,
}

impl Session {
    /// Create a session over a connector with the given worker-pool size.
    pub fn new(connector: Arc<dyn StorageConnector>, workers: usize) -> Session {
        Session {
            connector,
            workers: workers.max(1),
            chunk_size: DEFAULT_CHUNK_SIZE,
            pushdown: true,
            max_task_failures: DEFAULT_MAX_TASK_FAILURES,
            time_budget: None,
            tables: RwLock::new(HashMap::new()),
        }
    }

    /// Give every query a wall-clock budget: a [`Deadline`] is created at
    /// submission, propagated through the connector to every storage hop,
    /// and enforced by the scheduler — tasks stop being (re)started once the
    /// budget is gone and the query fails fast instead of hanging.
    pub fn with_time_budget(mut self, budget: Duration) -> Session {
        self.time_budget = Some(budget);
        self
    }

    /// Set the partition-discovery chunk size (builder style).
    pub fn with_chunk_size(mut self, chunk_size: u64) -> Session {
        self.chunk_size = chunk_size.max(1);
        self
    }

    /// Enable/disable pushdown (the with/without-Scoop switch).
    pub fn with_pushdown(mut self, enabled: bool) -> Session {
        self.pushdown = enabled;
        self
    }

    /// Spark's `spark.task.maxFailures`: total attempts a task gets before
    /// its retryable failure fails the job. `1` disables task retry.
    pub fn with_max_task_failures(mut self, max_failures: u32) -> Session {
        self.max_task_failures = max_failures.max(1);
        self
    }

    /// Whether pushdown is enabled.
    pub fn pushdown_enabled(&self) -> bool {
        self.pushdown
    }

    /// The session's connector.
    pub fn connector(&self) -> &Arc<dyn StorageConnector> {
        &self.connector
    }

    /// Register a table at a location. `schema == None` infers on first use.
    pub fn register_table(
        &self,
        name: &str,
        location: &str,
        prefix: Option<&str>,
        format: TableFormat,
        schema: Option<Schema>,
    ) {
        self.tables.write().insert(
            name.to_ascii_lowercase(),
            TableDef {
                location: location.to_string(),
                prefix: prefix.map(str::to_string),
                format,
                schema,
            },
        );
    }

    fn table(&self, name: &str) -> Result<TableDef> {
        self.tables
            .read()
            .get(&name.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| ScoopError::Sql(format!("unknown table '{name}'")))
    }

    /// The columnar relation of `def`: inferred from the first object's
    /// footer the first time, built from the cached schema — no request —
    /// afterwards, as the CSV arm does.
    fn columnar_relation(&self, def: &TableDef) -> Result<ColumnarRelation> {
        let (location, prefix) = (&def.location, def.prefix.as_deref());
        let connector = self.connector.clone();
        match &def.schema {
            Some(schema) => Ok(ColumnarRelation::with_schema(
                connector,
                location,
                prefix,
                false,
                schema.clone(),
            )),
            None => ColumnarRelation::open(connector, location, prefix, false),
        }
    }

    /// The relation a table definition scans, and the arm its scans run
    /// under.
    fn relation(&self, def: &TableDef) -> Result<(Arc<dyn PrunedFilteredScan>, ExecutionMode)> {
        match &def.format {
            TableFormat::Csv { has_header } => {
                let rel = CsvRelation::open(
                    self.connector.clone(),
                    &def.location,
                    def.prefix.as_deref(),
                    *has_header,
                    def.schema.clone(),
                    self.pushdown,
                )?;
                let mode = if self.pushdown { ExecutionMode::Pushdown } else { ExecutionMode::Vanilla };
                Ok((Arc::new(rel), mode))
            }
            TableFormat::Columnar => {
                Ok((Arc::new(self.columnar_relation(def)?), ExecutionMode::Columnar))
            }
        }
    }

    /// Explain how a query would execute, without running it: the extracted
    /// pushdown, the residual predicate, the scan schema and the partition
    /// plan — the reproduction's equivalent of `EXPLAIN` over a Spark plan.
    /// Under pushdown the partition plan is the one the query would run:
    /// discovery has consulted the zone maps, and the survivors were cut
    /// for the session's workers.
    pub fn explain(&self, text: &str) -> Result<String> {
        let query = parse(text)?;
        let def = self.table(&query.table)?;
        let (relation, mode) = self.relation(&def)?;
        let schema = relation.schema()?;
        let format_name = if def.format == TableFormat::Columnar { "columnar" } else { "csv" };
        let has_header = matches!(def.format, TableFormat::Csv { has_header: true });
        let plan = plan_query(&query, &schema, has_header)?;
        let discovery = relation.tasks_for(self.chunk_size, plan.pushdown.predicate.as_ref(), self.workers)?;
        let pushdown_active = mode == ExecutionMode::Pushdown;
        let mut out = String::new();
        out.push_str(&format!(
            "== plan for table '{}' ({format_name}, {} partitions) ==\n",
            query.table,
            discovery.partitions.len()
        ));
        out.push_str(&format!(
            "scan     : columns {}\n",
            match &plan.pushdown.columns {
                None => "* (no pruning)".to_string(),
                Some(c) => c.join(", "),
            }
        ));
        out.push_str(&format!(
            "pushdown : {} ({} conjunct(s) pushed{})\n",
            if pushdown_active { "at object store" } else { "disabled — compute-side" },
            plan.pushed_conjuncts,
            match &plan.pushdown.predicate {
                Some(p) => format!(": {p}"),
                None => String::new(),
            }
        ));
        if pushdown_active {
            let tasks = discovery.partitions.len();
            let survived = tasks.saturating_sub(discovery.cuts);
            out.push_str(&format!(
                "zonemaps : {survived} of {} splits survive zone maps ({} object(s) without a fresh index)\n",
                survived.saturating_add(discovery.pruned),
                discovery.unindexed_objects
            ));
            out.push_str(&format!(
                "tasks    : {tasks} task(s) for {} worker(s) ({} cut(s) at block starts)\n",
                self.workers, discovery.cuts
            ));
        }
        out.push_str(&format!(
            "residual : {}\n",
            match &plan.residual_where {
                Some(e) => e.to_string(),
                None => "none".to_string(),
            }
        ));
        out.push_str(&format!(
            "execute  : {}{}{}{}\n",
            Executor::new(&query, &plan.scan_schema)?.stages(),
            if query.distinct { " → DISTINCT" } else { "" },
            if query.having.is_some() { " → HAVING" } else { "" },
            match query.limit {
                Some(n) => format!(" → LIMIT {n}"),
                None => String::new(),
            }
        ));
        Ok(out)
    }

    /// Parse and execute a SQL query.
    pub fn sql(&self, text: &str) -> Result<QueryOutcome> {
        let started = std::time::Instant::now();
        // The query's time budget starts at submission and travels two ways:
        // down the storage path via the connector (stamped on every request)
        // and into the scheduler (gating task starts and retries).
        let deadline = match self.time_budget {
            Some(budget) => Deadline::within(budget),
            None => Deadline::none(),
        };
        self.connector.set_deadline(deadline);
        // Mint the query's trace ID. It travels the same road as the
        // deadline — stamped on every storage request as `x-scoop-trace` —
        // so one pushdown query yields one trace whose spans cover session,
        // scheduler, connector, client, proxy, object server and storlet.
        let trace = scoop_common::telemetry::new_trace_id();
        self.connector.set_trace(Some(trace.clone()));
        // Baselines for the query's wide event: global counters are sampled
        // before and after the run so the event carries *this* query's
        // hedges/retries (single-process delta attribution).
        use scoop_common::telemetry::{counter, names};
        let hedges_before = counter(names::PROXY_HEDGED_GETS).get();
        let retries_before = counter(names::CLIENT_RETRIES).get();
        let query = parse(text)?;
        let def = self.table(&query.table)?;
        let _query_span = scoop_common::telemetry::span(
            Some(&trace),
            scoop_common::telemetry::layers::SESSION,
            format!("sql {}", query.table),
        );

        // Build the relation (and cache the inferred schema).
        let (relation, mode) = self.relation(&def)?;
        let schema = relation.schema()?;
        if def.schema.is_none() {
            // The table was present when `def` was resolved; if it was
            // dropped concurrently, skipping the schema cache write is
            // harmless — the query proceeds on the resolved definition.
            if let Some(t) = self.tables.write().get_mut(&query.table) {
                t.schema = Some(schema.clone());
            }
        }

        // Catalyst: extract pushdown + residual.
        let has_header = matches!(def.format, TableFormat::Csv { has_header: true });
        let plan = plan_query(&query, &schema, has_header)?;
        // Discovery: under pushdown, splits the zone maps rule out never
        // become tasks, and the survivors are cut so every worker has one.
        let discovery = relation.tasks_for(self.chunk_size, plan.pushdown.predicate.as_ref(), self.workers)?;
        let partitions = discovery.partitions;

        let transferred_before = self.connector.bytes_transferred();

        // Bound once per query, not per task or per row: the executor and
        // the residual WHERE. The scan applies the pushed conjuncts.
        let exec = Executor::new(&query, &plan.scan_schema)?;
        let filter = RowFilter::bind(plan.residual_where.as_ref(), &plan.scan_schema)?;
        let columns = plan.pushdown.columns.clone();
        let predicate = plan.pushdown.predicate.clone();
        // CollectLimit: tasks stop scanning (and hence stop pulling bytes
        // off the lazy streams) once they have folded the job-wide quota.
        let limit = exec.early_limit();
        let collected = AtomicUsize::new(0);
        let _sched_span = scoop_common::telemetry::span(
            Some(&trace),
            scoop_common::telemetry::layers::SCHEDULER,
            format!("{} tasks over {} workers", partitions.len(), self.workers),
        );
        let results = run_tasks_with_deadline(self.workers, partitions.len(), self.max_task_failures, deadline, |i| {
            let part = partitions
                .get(i)
                .ok_or_else(|| ScoopError::Internal(format!("task {i} has no partition")))?;
            let out = relation.scan_pruned_filtered(
                part,
                columns.as_deref(),
                predicate.as_ref(),
            )?;
            let plain = out.plain;
            let mut scan = out.rows;
            let mut partial = exec.partial();
            let (mut rows_in, mut rows_kept, mut claimed) = (0u64, 0u64, 0usize);
            let scanned = (|| -> Result<()> {
                loop {
                    // The quota still open: a scan that gathers rows stops at
                    // the input chunk that fills it.
                    let open = limit.map_or(usize::MAX, |lim| lim.saturating_sub(collected.load(Ordering::Relaxed)));
                    if open == 0 {
                        return Ok(());
                    }
                    let Some(batch) = scan.next_batch_of(open)? else { return Ok(()) };
                    rows_in += batch.rows() as u64;
                    let mut selection = filter.select(&batch)?;
                    if let Some(lim) = limit {
                        // Claim what is left of the quota, up to this batch's
                        // survivors, in one step.
                        let wanted = selection.len();
                        let before = collected
                            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |c| {
                                Some(c.saturating_add(wanted.min(lim.saturating_sub(c))))
                            })
                            .unwrap_or_else(|c| c);
                        let claim = wanted.min(lim.saturating_sub(before));
                        claimed += claim;
                        selection.truncate(claim);
                    }
                    rows_kept += selection.len() as u64;
                    exec.update_batch(&mut partial, &batch, &selection)?;
                }
            })();
            if let Err(e) = scanned {
                // A failed attempt's rows are discarded, so release its
                // claim on the LIMIT quota — otherwise a task retry would
                // under-collect.
                collected.fetch_sub(claimed, Ordering::Relaxed);
                return Err(e);
            }
            Ok((partial, rows_in, rows_kept, plain))
        });
        drop(_sched_span);
        let task_retries = total_retries(&results);
        let (outputs, task_durations) = collect_ok(results)?;

        // A task whose pushdown split came back plain ran the vanilla
        // selection: the query's own degradations, shed or declined.
        let degradations = outputs.iter().filter(|(.., plain)| *plain).count() as u64;

        // Driver-side merge, in task order, and finalize.
        let (mut rows_to_compute, mut rows_after_filter) = (0u64, 0u64);
        let mut merged = exec.partial();
        for (partial, rows_in, kept, _) in outputs {
            rows_to_compute += rows_in;
            rows_after_filter += kept;
            exec.merge(&mut merged, partial);
        }
        let result = exec.finalize(merged)?;

        let bytes_transferred = self
            .connector
            .bytes_transferred()
            .saturating_sub(transferred_before);
        let wall = started.elapsed();

        // Close the session span *now* so the wide event's per-layer
        // durations include it (spans record on drop).
        drop(_query_span);
        let spans = scoop_common::telemetry::trace_spans(&trace);
        let mut layer_us: Vec<(&'static str, u64)> = Vec::new();
        for layer in scoop_common::telemetry::layers::ALL {
            let sum: u64 = spans
                .iter()
                .filter(|s| s.layer == *layer)
                .map(|s| s.duration_us)
                .sum();
            if sum > 0 {
                layer_us.push((layer, sum));
            }
        }
        scoop_common::telemetry::record_query_event(scoop_common::telemetry::QueryEvent {
            trace: trace.clone(),
            path: if degradations > 0 {
                "pushdown-fallback".to_string()
            } else {
                mode.to_string()
            },
            total_us: wall.as_micros() as u64,
            bytes: bytes_transferred,
            rows: rows_to_compute,
            retries: task_retries.saturating_add(
                counter(names::CLIENT_RETRIES).get().saturating_sub(retries_before),
            ),
            hedges: counter(names::PROXY_HEDGED_GETS).get().saturating_sub(hedges_before),
            degradations,
            splits_pruned: discovery.pruned as u64,
            layer_us,
            slow: false, // settled by record_query_event from the threshold
        });

        Ok(QueryOutcome {
            result,
            metrics: JobMetrics {
                mode,
                tasks: partitions.len(),
                bytes_transferred,
                rows_to_compute,
                rows_after_filter,
                pushed_conjuncts: plan.pushed_conjuncts,
                residual_conjuncts: plan.residual_conjuncts,
                wall,
                task_durations,
                task_retries,
                trace,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connector::MemoryConnector;
    use bytes::Bytes;
    use scoop_columnar::ColumnarWriter;
    use scoop_csv::schema::{DataType, Field};

    fn csv_data() -> Bytes {
        let mut out = String::from("vid,date,index,city\n");
        for i in 0..200 {
            out.push_str(&format!(
                "m{},2015-{:02}-10 00:00:00,{}.5,{}\n",
                i % 10,
                i % 12 + 1,
                i,
                if i % 4 == 0 { "Rotterdam" } else { "Paris" },
            ));
        }
        Bytes::from(out)
    }

    fn session(pushdown: bool) -> Session {
        let conn = MemoryConnector::with_pushdown();
        conn.put("meters", "part-0.csv", csv_data());
        let s = Session::new(conn, 4)
            .with_chunk_size(512)
            .with_pushdown(pushdown);
        s.register_table(
            "largemeter",
            "meters",
            None,
            TableFormat::Csv { has_header: true },
            None,
        );
        s
    }

    const QUERY: &str = "SELECT vid, sum(index) as total, count(*) as n \
        FROM largeMeter WHERE date LIKE '2015-01%' AND city LIKE 'Rotterdam' \
        GROUP BY vid ORDER BY vid";

    #[test]
    fn pushdown_and_vanilla_agree_on_results() {
        let vanilla = session(false).sql(QUERY).unwrap();
        let pushed = session(true).sql(QUERY).unwrap();
        assert_eq!(vanilla.result, pushed.result);
        assert_eq!(vanilla.metrics.mode, ExecutionMode::Vanilla);
        assert_eq!(pushed.metrics.mode, ExecutionMode::Pushdown);
        assert!(pushed.metrics.pushed_conjuncts == 2);
        // The whole point: pushdown transfers far less.
        assert!(
            pushed.metrics.bytes_transferred * 4 < vanilla.metrics.bytes_transferred,
            "pushdown {} vs vanilla {}",
            pushed.metrics.bytes_transferred,
            vanilla.metrics.bytes_transferred
        );
        // Both arms hand the executor the selection's survivors only; with
        // the WHERE fully pushed those are exactly the rows it keeps.
        for arm in [&vanilla, &pushed] {
            assert_eq!(arm.metrics.residual_conjuncts, 0);
            assert_eq!(arm.metrics.rows_to_compute, arm.metrics.rows_after_filter);
        }
        assert!(vanilla.metrics.tasks > 1);
    }

    #[test]
    fn non_aggregate_query_with_order_and_limit() {
        let s = session(true);
        let out = s
            .sql("SELECT vid, index FROM largemeter WHERE city LIKE 'Rotterdam' ORDER BY index DESC LIMIT 3")
            .unwrap();
        assert_eq!(out.result.rows.len(), 3);
        let v0 = out.result.rows[0][1].as_f64().unwrap();
        let v1 = out.result.rows[1][1].as_f64().unwrap();
        assert!(v0 >= v1);
    }

    #[test]
    fn residual_filters_are_applied_compute_side() {
        let s = session(true);
        let out = s
            .sql("SELECT count(*) as n FROM largemeter WHERE SUBSTRING(date, 0, 7) = '2015-01' AND city LIKE 'Rotterdam'")
            .unwrap();
        assert_eq!(out.metrics.pushed_conjuncts, 1);
        assert_eq!(out.metrics.residual_conjuncts, 1);
        let reference = session(false)
            .sql("SELECT count(*) as n FROM largemeter WHERE SUBSTRING(date, 0, 7) = '2015-01' AND city LIKE 'Rotterdam'")
            .unwrap();
        assert_eq!(out.result, reference.result);
    }

    #[test]
    fn columnar_table_agrees_with_csv() {
        // Same logical data in both formats.
        let conn = MemoryConnector::with_pushdown();
        conn.put("meters", "p.csv", csv_data());
        let schema = Schema::new(vec![
            Field::new("vid", DataType::Str),
            Field::new("date", DataType::Str),
            Field::new("index", DataType::Float),
            Field::new("city", DataType::Str),
        ]);
        let mut w = ColumnarWriter::with_row_group_rows(schema.clone(), 50);
        let mut reader = scoop_csv::CsvReader::new(
            scoop_common::stream::once(csv_data()),
            schema,
            true,
        );
        while let Some(batch) = reader.next_batch().unwrap() {
            w.write_batch(batch);
        }
        conn.put("meters-col", "p.scol", w.finish());

        let s = Session::new(conn, 2).with_chunk_size(512);
        s.register_table(
            "largemeter",
            "meters",
            None,
            TableFormat::Csv { has_header: true },
            None,
        );
        s.register_table("colmeter", "meters-col", None, TableFormat::Columnar, None);
        let a = s.sql(QUERY).unwrap();
        let b = s.sql(&QUERY.replace("largeMeter", "colmeter")).unwrap();
        assert_eq!(a.result, b.result);
        assert_eq!(b.metrics.mode, ExecutionMode::Columnar);
    }

    #[test]
    fn unknown_table_errors() {
        let s = session(true);
        assert!(s.sql("SELECT x FROM ghost").is_err());
    }

    #[test]
    fn schema_is_cached_after_first_query() {
        let s = session(true);
        s.sql("SELECT count(*) FROM largemeter").unwrap();
        let def = s.table("largemeter").unwrap();
        assert!(def.schema.is_some());
    }
}

#[cfg(test)]
mod retry_tests {
    use super::*;
    use crate::connector::{MemoryConnector, ObjectInfo, PushdownBody, StorageConnector};
    use bytes::Bytes;
    use scoop_common::ByteStream;
    use scoop_csv::{ColumnBatch, PushdownSpec, Value};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A connector whose reads fail with a retryable error the first
    /// `failures` times they are opened — the session should absorb those
    /// through task re-execution. It also counts listings and ranged reads.
    struct FlakyConnector {
        inner: Arc<MemoryConnector>,
        remaining: AtomicU64,
        faults: AtomicU64,
        lists: AtomicU64,
        fetches: AtomicU64,
    }

    impl FlakyConnector {
        fn new(inner: Arc<MemoryConnector>, failures: u64) -> Arc<FlakyConnector> {
            Arc::new(FlakyConnector {
                inner,
                remaining: AtomicU64::new(failures),
                faults: AtomicU64::new(0),
                lists: AtomicU64::new(0),
                fetches: AtomicU64::new(0),
            })
        }

        fn trip(&self) -> Result<()> {
            if self
                .remaining
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |r| r.checked_sub(1))
                .is_ok()
            {
                self.faults.fetch_add(1, Ordering::Relaxed);
                return Err(ScoopError::Io(std::io::Error::other(
                    "injected transient read failure",
                )));
            }
            Ok(())
        }
    }

    impl StorageConnector for FlakyConnector {
        fn list(&self, location: &str, prefix: Option<&str>) -> Result<Vec<ObjectInfo>> {
            self.lists.fetch_add(1, Ordering::Relaxed);
            self.inner.list(location, prefix)
        }

        fn read_from(&self, location: &str, object: &str, start: u64) -> Result<ByteStream> {
            self.trip()?;
            self.inner.read_from(location, object, start)
        }

        fn open_pushdown(
            &self,
            location: &str,
            object: &str,
            start: u64,
            end_exclusive: Option<u64>,
            spec: &PushdownSpec,
            file_schema: &[String],
        ) -> Result<PushdownBody> {
            self.trip()?;
            self.inner
                .open_pushdown(location, object, start, end_exclusive, spec, file_schema)
        }

        fn fetch_range(&self, location: &str, object: &str, start: u64, end: u64) -> Result<Bytes> {
            self.fetches.fetch_add(1, Ordering::Relaxed);
            self.inner.fetch_range(location, object, start, end)
        }

        fn bytes_transferred(&self) -> u64 {
            self.inner.bytes_transferred()
        }

        fn reset_transfer_counter(&self) {
            self.inner.reset_transfer_counter()
        }
    }

    fn flaky_session(failures: u64, max_task_failures: u32) -> (Session, Arc<FlakyConnector>) {
        let mem = MemoryConnector::with_pushdown();
        let mut data = String::from("vid,index\n");
        for i in 0..50 {
            data.push_str(&format!("m{},{}.0\n", i % 5, i));
        }
        mem.put("meters", "p.csv", Bytes::from(data));
        let conn = FlakyConnector::new(mem, failures);
        let s = Session::new(conn.clone(), 4)
            .with_chunk_size(128)
            .with_max_task_failures(max_task_failures);
        s.register_table(
            "largemeter",
            "meters",
            None,
            TableFormat::Csv { has_header: true },
            None,
        );
        (s, conn)
    }

    const QUERY: &str =
        "SELECT vid, sum(index) as total FROM largemeter GROUP BY vid ORDER BY vid";

    /// The first query on a columnar table infers its schema (a listing and
    /// the first object's trailer + footer); later ones build the relation
    /// from the cached schema: one listing, and only the scans' reads.
    #[test]
    fn columnar_queries_after_the_first_reuse_the_cached_schema() {
        let mem = MemoryConnector::new();
        let schema = Schema::new(vec![
            scoop_csv::schema::Field::new("vid", scoop_csv::schema::DataType::Str),
            scoop_csv::schema::Field::new("index", scoop_csv::schema::DataType::Float),
        ]);
        for obj in 0..2 {
            let mut w = scoop_columnar::ColumnarWriter::with_row_group_rows(schema.clone(), 20);
            let rows = (0..50).map(|i| vec![Value::Str(format!("m{}", i % 5)), Value::Float(i as f64)]);
            w.write_batch(ColumnBatch::from_rows(&schema, rows));
            mem.put("cols", &format!("part-{obj}.scol"), w.finish());
        }
        let conn = FlakyConnector::new(mem, 0);
        let s = Session::new(conn.clone(), 2);
        s.register_table("largemeter", "cols", None, TableFormat::Columnar, None);
        let calls = || (conn.lists.swap(0, Ordering::Relaxed), conn.fetches.swap(0, Ordering::Relaxed));

        let first = s.sql(QUERY).unwrap();
        // Per object: trailer, footer, and one run (both columns) in each of
        // three groups. The first query reads one footer twice.
        assert_eq!(calls(), (2, 2 + 2 * (2 + 3)));
        let second = s.sql(QUERY).unwrap();
        assert_eq!(calls(), (1, 2 * (2 + 3)));
        assert_eq!(first.result, second.result);
        assert!(s.explain(QUERY).unwrap().contains("2 partitions"));
        assert_eq!(calls(), (1, 0));
    }

    #[test]
    fn task_retry_recovers_transient_read_failures() {
        let (healthy, _) = flaky_session(0, DEFAULT_MAX_TASK_FAILURES);
        let reference = healthy.sql(QUERY).unwrap();
        assert_eq!(reference.metrics.task_retries, 0);

        let (flaky, conn) = flaky_session(3, DEFAULT_MAX_TASK_FAILURES);
        let out = flaky.sql(QUERY).unwrap();
        assert_eq!(out.result, reference.result, "retries must not change results");
        assert_eq!(conn.faults.load(Ordering::Relaxed), 3, "faults must actually fire");
        assert_eq!(out.metrics.task_retries, 3);
    }

    #[test]
    fn task_retry_disabled_fails_the_job() {
        let (flaky, _) = flaky_session(1, 1);
        assert!(flaky.sql(QUERY).is_err());
    }

    #[test]
    fn limit_is_exact_across_task_retries() {
        // A failed attempt must release its claim on the early-LIMIT quota.
        let (flaky, _) = flaky_session(2, DEFAULT_MAX_TASK_FAILURES);
        let out = flaky
            .sql("SELECT vid, index FROM largemeter LIMIT 10")
            .unwrap();
        assert_eq!(out.result.rows.len(), 10);
    }

    #[test]
    fn time_budget_fails_fast_and_generous_budget_changes_nothing() {
        // A generous budget is invisible: identical results, no retries.
        let (unbudgeted, _) = flaky_session(0, DEFAULT_MAX_TASK_FAILURES);
        let reference = unbudgeted.sql(QUERY).unwrap();
        let (roomy, _) = flaky_session(0, DEFAULT_MAX_TASK_FAILURES);
        let roomy = roomy.with_time_budget(Duration::from_secs(60));
        assert_eq!(roomy.sql(QUERY).unwrap().result, reference.result);

        // A zero budget expires before any task starts: the query fails
        // with a deadline error instead of running to completion.
        let (starved, conn) = flaky_session(0, DEFAULT_MAX_TASK_FAILURES);
        let starved = starved.with_time_budget(Duration::ZERO);
        let err = starved.sql(QUERY).unwrap_err();
        assert_eq!(err.kind(), "deadline", "{err}");
        assert_eq!(conn.faults.load(Ordering::Relaxed), 0);
    }
}

#[cfg(test)]
mod explain_tests {
    use super::*;
    use crate::connector::MemoryConnector;
    use bytes::Bytes;

    #[test]
    fn explain_reports_plan_shape() {
        let conn = MemoryConnector::with_pushdown();
        conn.put(
            "meters",
            "a.csv",
            Bytes::from_static(b"vid,date,index,city\nm1,2015-01-01,1.0,Paris\n"),
        );
        let s = Session::new(conn, 2).with_chunk_size(16);
        s.register_table(
            "largemeter",
            "meters",
            None,
            TableFormat::Csv { has_header: true },
            None,
        );
        let plan = s
            .explain(
                "SELECT vid, sum(index) as t FROM largemeter \
                 WHERE city LIKE 'Paris' AND index + 1 > 2 \
                 GROUP BY vid HAVING count(*) > 0 ORDER BY vid LIMIT 5",
            )
            .unwrap();
        assert!(plan.contains("at object store"), "{plan}");
        assert!(plan.contains("1 conjunct(s) pushed"), "{plan}");
        assert!(plan.contains("residual : "), "{plan}");
        assert!(plan.contains("index"), "{plan}");
        assert!(plan.contains("partial aggregation"), "{plan}");
        assert!(plan.contains("HAVING"), "{plan}");
        assert!(plan.contains("LIMIT 5"), "{plan}");

        // Vanilla session reports disabled pushdown.
        let conn = MemoryConnector::new();
        conn.put("meters", "a.csv", Bytes::from_static(b"vid,city\nm1,Paris\n"));
        let s = Session::new(conn, 2).with_pushdown(false);
        s.register_table(
            "largemeter",
            "meters",
            None,
            TableFormat::Csv { has_header: true },
            None,
        );
        let plan = s.explain("SELECT vid FROM largemeter").unwrap();
        assert!(plan.contains("disabled — compute-side"), "{plan}");
    }
}
