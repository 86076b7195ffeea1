//! The traced pass: per-layer numbers taken from outside the program.
//!
//! With one worker a query is a serial chain, so it can be *peeled*: run the
//! whole query, then repeat the same work one layer lower each time and time
//! each repetition as a span — `Session::sql`, the SQL plan, partition
//! discovery, then per partition the connector read, the client request over
//! TCP, the same request handled in-process, the storlet invoke over the same
//! bytes, the bare CSV filter, the compute-side parse (or columnar decode),
//! and finally the executor over the parsed rows. A layer's self time is its
//! span minus the span peeled out of it. Counts are read at the same
//! boundaries through the program's public accessors. No program code is
//! touched; the calls the probes make are listed in the README so a later
//! change knows which signatures this file depends on.

use crate::dataset::Deployment;
use crate::harness::{
    plain_put, query_failed, session_over, zoned_head, zoned_put, STATS_HEADER_0,
};
use crate::span::{SpanId, Tracer};
use crate::workloads::{Kind, Workload};
use bytes::Bytes;
use scoop_columnar::ColumnarReader;
use scoop_common::headers as common_headers;
use scoop_common::telemetry::{self, names};
use scoop_common::zonestats::ObjectStats;
use scoop_common::{stream, ByteStream, Result, ScoopError};
use scoop_compute::columnar_relation::ColumnarRelation;
use scoop_compute::csv_relation::CsvRelation;
use scoop_compute::datasource::{PrunedFilteredScan, TableScan};
use scoop_compute::{InputPartition, Session, StorageConnector};
use scoop_connector::{RunOn, SwiftConnector};
use scoop_core::{ExecutionMode, ScoopContext};
use scoop_csv::split::{aligned_range, RangedRecordStream};
use scoop_csv::{CsvReader, FieldBuf, PushdownSpec, Schema, Value};
use scoop_objectstore::request::ByteRange;
use scoop_objectstore::{ObjectPath, Request, SwiftClient};
use scoop_sql::catalyst::plan_query;
use scoop_sql::exec::execute_with_where;
use scoop_sql::{PlannedQuery, ResultSet};
use scoop_storlets::middleware::encode_params;
use scoop_storlets::planner::plan_ranges;
use scoop_storlets::{headers as storlet_headers, InvocationContext};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

/// The program's counters, read through its public accessors.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub storlet_invocations: u64,
    pub storlet_bytes_in: u64,
    pub storlet_bytes_out: u64,
    pub records_in: u64,
    pub records_out: u64,
    pub skip_plans: u64,
    pub plan_fallbacks: u64,
    pub blocks_pruned: u64,
    pub blocks_scanned: u64,
    pub admission_sheds: u64,
    pub pool_dials: u64,
    pub pool_reuses: u64,
    pub proxy_requests: u64,
    pub objserver_bytes_out: u64,
    pub hedged_gets: u64,
    pub replica_failovers: u64,
    pub pushdown_fallbacks: u64,
    pub stream_resumes: u64,
    pub client_retries: u64,
    /// Sum of the `x-scoop-skipped-bytes` headers the connector saw.
    pub bytes_skipped: u64,
}

impl Counters {
    fn read(ctx: &ScoopContext) -> Counters {
        let filter = ctx.engine().stats("csvfilter");
        let skip = ctx.engine().skip_stats();
        let pool = ctx.client().transport_pool().map(|p| p.snapshot());
        Counters {
            storlet_invocations: filter.invocations,
            storlet_bytes_in: filter.bytes_in,
            storlet_bytes_out: filter.bytes_out,
            records_in: filter.records_in,
            records_out: filter.records_out,
            skip_plans: skip.plans(),
            plan_fallbacks: skip.fallbacks(),
            blocks_pruned: skip.blocks_pruned(),
            blocks_scanned: skip.blocks_scanned(),
            admission_sheds: ctx.engine().admission_sheds(),
            pool_dials: pool.map_or(0, |p| p.dials),
            pool_reuses: pool.map_or(0, |p| p.reuses),
            proxy_requests: telemetry::counter(names::PROXY_REQUESTS).get(),
            objserver_bytes_out: telemetry::counter(names::OBJSERVER_BYTES_OUT).get(),
            hedged_gets: ctx.cluster().hedged_gets(),
            replica_failovers: ctx.cluster().replica_failovers(),
            pushdown_fallbacks: telemetry::counter(names::CONNECTOR_PUSHDOWN_FALLBACKS).get(),
            stream_resumes: telemetry::counter(names::CONNECTOR_STREAM_RESUMES).get(),
            client_retries: telemetry::counter(names::CLIENT_RETRIES).get(),
            bytes_skipped: telemetry::counter(names::CONNECTOR_BYTES_SKIPPED).get(),
        }
    }

    /// `self += after - before`, field by field.
    fn add_delta(&mut self, before: &Counters, after: &Counters) {
        macro_rules! fields {
            ($($f:ident),*) => { $( self.$f += after.$f.saturating_sub(before.$f); )* };
        }
        fields!(
            storlet_invocations,
            storlet_bytes_in,
            storlet_bytes_out,
            records_in,
            records_out,
            skip_plans,
            plan_fallbacks,
            blocks_pruned,
            blocks_scanned,
            admission_sheds,
            pool_dials,
            pool_reuses,
            proxy_requests,
            objserver_bytes_out,
            hedged_gets,
            replica_failovers,
            pushdown_fallbacks,
            stream_resumes,
            client_retries,
            bytes_skipped
        );
    }
}

/// What one traced round counted besides its spans.
#[derive(Debug, Clone, Default)]
pub struct RoundCounts {
    pub counters: Counters,
    pub tasks: u64,
    pub task_us_max: u64,
    pub task_retries: u64,
    pub rows_to_compute: u64,
    pub rows_after_filter: u64,
    pub pushed_conjuncts: u64,
    pub residual_conjuncts: u64,
    pub bytes_transferred: u64,
    /// The program's own `QueryEvent::layer_us`, summed over the queries.
    pub program_layer_us: HashMap<&'static str, u64>,
    /// Bytes the storlet probes were fed, and the bytes the parse / decode
    /// probes were fed.
    pub probe_scanned: u64,
    pub probe_parsed: u64,
    pub columnar_fetched: u64,
    pub stats_meta_bytes: u64,
    /// Operations whose peeled replay did not reproduce the query.
    pub mismatches: u64,
    pub attempted: u64,
    pub failed: u64,
}

/// Pull a body until at least `limit` bytes have arrived (all of it when
/// `None`), dropping each chunk as a scan does, then drop the body. Returns
/// the bytes pulled.
fn drain(body: ByteStream, limit: Option<u64>) -> Result<u64> {
    let mut seen = 0u64;
    for chunk in body {
        seen += chunk?.len() as u64;
        if limit.is_some_and(|l| seen >= l) {
            break;
        }
    }
    Ok(seen)
}

/// What compute is handed for one partition, rebuilt from bytes in memory.
enum ComputeInput {
    /// The raw object bytes a vanilla scan pulled, from its split start.
    Raw { part: InputPartition, bytes: Bytes },
    /// The filtered records a pushdown GET carried.
    Filtered(Vec<Bytes>),
    /// A whole columnar object, read through ranged fetches.
    Columnar(Bytes),
}

type RowIter<'a> = Box<dyn Iterator<Item = Result<Vec<Value>>> + 'a>;

fn ok_body(resp: scoop_objectstore::Response, what: &str) -> Result<ByteStream> {
    if resp.is_success() {
        Ok(resp.body)
    } else {
        Err(ScoopError::Internal(format!(
            "{what} answered status {}",
            resp.status
        )))
    }
}

/// A query workload's fixed context for the probes.
pub struct QueryProbe<'a> {
    dep: &'a Deployment,
    pub mode: ExecutionMode,
    pub container: &'static str,
    pub queries: Vec<String>,
    references: Vec<ResultSet>,
    /// Two workers: the root span of the traced pass.
    session2: Session,
    /// One worker: the serial chain that is peeled.
    session1: Session,
    connector: Arc<SwiftConnector>,
    client: SwiftClient,
    schema: Schema,
    file_columns: Vec<String>,
    /// Bytes of the objects the partitions name, for the storlet, filter and
    /// decode probes.
    object_bytes: HashMap<String, Bytes>,
    /// HEAD metadata per object (zone-map stats ride here).
    object_meta: HashMap<String, Vec<(String, String)>>,
    /// Per `(object, start)`: the bytes a vanilla scan pulls off its
    /// open-ended GET before it stops.
    vanilla_pull: HashMap<(String, u64), u64>,
}

impl<'a> QueryProbe<'a> {
    pub fn new(
        dep: &'a Deployment,
        workload: &Workload,
        queries: &[String],
        references: &[ResultSet],
    ) -> Result<QueryProbe<'a>> {
        let Kind::Query {
            mode, container, ..
        } = workload.kind
        else {
            return Err(ScoopError::Internal("not a query workload".into()));
        };
        let ctx = &dep.ctx;
        let (session2, _) = session_over(
            ctx,
            ctx.client().clone(),
            container,
            mode,
            ctx.config().workers,
        );
        let (session1, connector) = session_over(ctx, ctx.client().clone(), container, mode, 1);
        let client = ctx.client().clone();

        // The schema the session infers on first use, and the objects.
        let dyn_conn: Arc<dyn StorageConnector> = connector.clone();
        let schema = match mode {
            ExecutionMode::Columnar => {
                ColumnarRelation::open(dyn_conn.clone(), container, None, false)?.schema()?
            }
            _ => CsvRelation::open(
                dyn_conn.clone(),
                container,
                None,
                true,
                None,
                mode == ExecutionMode::Pushdown,
            )?
            .schema()?,
        };
        let file_columns: Vec<String> = schema.names().iter().map(|s| s.to_string()).collect();
        let mut object_bytes = HashMap::new();
        let mut object_meta = HashMap::new();
        for info in dyn_conn.list(container, None)? {
            let path = ObjectPath::new(ctx.config().account.clone(), container, info.name.clone())?;
            let body = ok_body(ctx.cluster().handle(Request::get(path.clone()))?, "GET")?;
            object_bytes.insert(info.name.clone(), stream::collect(body)?);
            let head = ctx.cluster().handle(Request::head(path))?;
            let meta = head
                .headers
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect();
            object_meta.insert(info.name, meta);
        }

        let mut probe = QueryProbe {
            dep,
            mode,
            container,
            queries: queries.to_vec(),
            references: references.to_vec(),
            session2,
            session1,
            connector,
            client,
            schema,
            file_columns,
            object_bytes,
            object_meta,
            vanilla_pull: HashMap::new(),
        };
        if mode == ExecutionMode::Vanilla {
            probe.learn_vanilla_pulls()?;
        }
        Ok(probe)
    }

    fn dyn_connector(&self) -> Arc<dyn StorageConnector> {
        self.connector.clone()
    }

    fn path(&self, object: &str) -> Result<ObjectPath> {
        ObjectPath::new(
            self.dep.ctx.config().account.clone(),
            self.container,
            object,
        )
    }

    /// What the session does between planning and scheduling: open the
    /// relation (the schema is cached by now) and discover its partitions.
    fn discover(&self) -> Result<(Arc<dyn PrunedFilteredScan>, Vec<InputPartition>)> {
        let relation: Arc<dyn PrunedFilteredScan> = match self.mode {
            ExecutionMode::Columnar => Arc::new(ColumnarRelation::open(
                self.dyn_connector(),
                self.container,
                None,
                false,
            )?),
            _ => Arc::new(CsvRelation::open(
                self.dyn_connector(),
                self.container,
                None,
                true,
                Some(self.schema.clone()),
                self.mode == ExecutionMode::Pushdown,
            )?),
        };
        let partitions = relation.partitions(self.dep.ctx.config().chunk_size)?;
        Ok((relation, partitions))
    }

    /// A vanilla scan opens a GET from its split start to the end of the
    /// object and stops pulling once the record reader is past the split
    /// end. Learn, once, how many bytes that is per partition, so the read
    /// probes can stop at the same chunk without running the record reader
    /// inside their spans.
    fn learn_vanilla_pulls(&mut self) -> Result<()> {
        for part in self.discover()?.1 {
            let body = self
                .connector
                .read_from(self.container, &part.object, part.start)?;
            let pulled = Arc::new(std::sync::atomic::AtomicU64::new(0));
            let counted = scoop_compute::connector::count_consumed(body, pulled.clone());
            for record in RangedRecordStream::new(counted, part.start, Some(part.end)) {
                record?;
            }
            let pulled = pulled.load(std::sync::atomic::Ordering::Relaxed);
            self.vanilla_pull
                .insert((part.object.clone(), part.start), pulled);
        }
        Ok(())
    }

    /// The GET the connector issues for one partition.
    fn partition_get(
        &self,
        part: &InputPartition,
        spec: &PushdownSpec,
        trace: &str,
    ) -> Result<Request> {
        let mut req =
            Request::get(self.path(&part.object)?).with_header(common_headers::TRACE, trace);
        match self.mode {
            ExecutionMode::Pushdown => {
                let mut params = HashMap::new();
                params.insert("spec".to_string(), spec.to_header());
                params.insert("schema".to_string(), self.file_columns.join(","));
                req = req
                    .with_header(storlet_headers::RUN_STORLET, "csvfilter")
                    .with_header(storlet_headers::PARAMETERS, encode_params(&params))
                    .with_header(
                        storlet_headers::STORLET_RANGE,
                        ByteRange {
                            start: part.start,
                            end: Some(part.end.saturating_sub(1)),
                        }
                        .to_header(),
                    );
                if self.dep.ctx.config().run_on == RunOn::Proxy {
                    req = req.with_header(storlet_headers::RUN_ON, "proxy");
                }
            }
            _ if part.start > 0 => {
                req = req.with_range(ByteRange {
                    start: part.start,
                    end: None,
                })
            }
            _ => {}
        }
        Ok(req)
    }

    /// One query of one traced round, peeled.
    pub fn peel(&self, t: &mut Tracer, qi: usize, counts: &mut RoundCounts) -> Result<()> {
        let ctx = &self.dep.ctx;
        let sql = &self.queries[qi];
        let reference = &self.references[qi];

        // The whole query: two workers, then one.
        let (_, out2) = t.time("compute.sql", None, || self.session2.sql(sql));
        let before = Counters::read(ctx);
        let (root, out1) = t.time("compute.sql_1w", None, || self.session1.sql(sql));
        counts.counters.add_delta(&before, &Counters::read(ctx));
        counts.attempted += 2;
        counts.failed +=
            u64::from(query_failed(&out2, reference)) + u64::from(query_failed(&out1, reference));
        let (out2, out1) = (out2?, out1?);
        counts.task_us_max += out2
            .metrics
            .task_durations
            .iter()
            .map(|d| d.as_micros() as u64)
            .max()
            .unwrap_or(0);
        let m = &out1.metrics;
        counts.tasks += m.tasks as u64;
        counts.task_retries += m.task_retries;
        counts.rows_to_compute += m.rows_to_compute;
        counts.rows_after_filter += m.rows_after_filter;
        counts.pushed_conjuncts += m.pushed_conjuncts as u64;
        counts.residual_conjuncts += m.residual_conjuncts as u64;
        counts.bytes_transferred += m.bytes_transferred;
        if let Some(event) = telemetry::query_events()
            .into_iter()
            .rev()
            .find(|e| e.trace == m.trace)
        {
            for (layer, us) in event.layer_us {
                *counts.program_layer_us.entry(layer).or_default() += us;
            }
        }

        // The probes carry a trace of their own, as every real request does.
        let trace = telemetry::new_trace_id();
        self.client.set_trace(Some(trace.clone()));

        let (_, plan) = t.time("sqlengine.plan", Some(root), || {
            plan_query(
                &scoop_sql::parse(sql)?,
                &self.schema,
                self.mode != ExecutionMode::Columnar,
            )
        });
        let plan = plan?;
        let (_, discovered) = t.time("compute.discover", Some(root), || self.discover());
        let (relation, parts) = discovered?;
        let spec = PushdownSpec {
            columns: plan.pushdown.columns.clone(),
            predicate: plan.pushdown.predicate.clone(),
            has_header: true,
        };

        // The storage side, partition by partition. Every body is dropped
        // chunk by chunk as the real scan drops it; what compute would have
        // been handed is rebuilt from the bytes held in memory.
        // The scan as the program fuses it: every partition read and parsed
        // in one stream, rows dropped as they come. It is a cross-check, not
        // part of the peel, so it hangs off no parent.
        let (_, scanned) = t.time("compute.scan", None, || {
            let mut rows = 0u64;
            for part in &parts {
                let mut out = relation.scan_pruned_filtered(
                    part,
                    plan.pushdown.columns.as_deref(),
                    plan.pushdown.predicate.as_ref(),
                )?;
                rows += out.rows.try_fold(0u64, |n, row| row.map(|_| n + 1))?;
            }
            Ok::<u64, ScoopError>(rows)
        });
        if scanned? != m.rows_to_compute {
            counts.mismatches += 1;
        }

        let mut inputs = Vec::new();
        for part in parts {
            let data = self
                .object_bytes
                .get(&part.object)
                .ok_or_else(|| ScoopError::Internal(format!("no bytes for {}", part.object)))?;
            let input = match self.mode {
                ExecutionMode::Columnar => {
                    self.peel_columnar(t, root, &part, data, &plan, &trace, counts)?
                }
                _ => self.peel_csv(t, root, part, data, &spec, &trace, counts)?,
            };
            inputs.push(input);
        }

        // The compute side: parse (or decode) and execute fused, as the
        // session streams rows from one into the other; then the parse
        // alone, peeled out of it. A source that handled the pushed filters
        // leaves only the residual predicate to apply.
        let filters_handled = self.mode == ExecutionMode::Pushdown;
        let effective = if filters_handled {
            plan.residual_where.as_ref()
        } else {
            plan.query.where_clause.as_ref()
        };
        let (exec, result) = t.time("sqlengine.exec", Some(root), || {
            let rows = inputs
                .iter()
                .flat_map(|input| match self.rows_of(input, &plan) {
                    Ok(rows) => rows,
                    Err(e) => Box::new(std::iter::once(Err(e))),
                });
            execute_with_where(&plan.query, &plan.scan_schema, effective, rows)
        });
        // The peel must add up to the query it took apart.
        if !result?.approx_eq(reference, crate::harness::RESULT_TOLERANCE) {
            counts.mismatches += 1;
        }
        let parse_span = if self.mode == ExecutionMode::Columnar {
            "columnar.decode"
        } else {
            "csvengine.parse"
        };
        for input in &inputs {
            let (_, parsed) = t.time(parse_span, Some(exec), || {
                self.rows_of(input, &plan)?
                    .try_fold(0u64, |n, row| row.map(|_| n + 1))
            });
            parsed?;
        }
        Ok(())
    }

    /// The rows compute makes of one partition's input, lazily, by the same
    /// calls the relations make.
    fn rows_of<'s>(
        &'s self,
        input: &'s ComputeInput,
        plan: &'s PlannedQuery,
    ) -> Result<RowIter<'s>> {
        Ok(match input {
            // Pushdown bodies are pure data records in the scan schema.
            ComputeInput::Filtered(chunks) => Box::new(CsvReader::new(
                stream::from_chunks(chunks.clone()),
                plan.scan_schema.clone(),
                false,
            )),
            ComputeInput::Raw { part, bytes } => self.vanilla_rows(
                stream::chunked(bytes.clone(), stream::DEFAULT_CHUNK),
                part,
                plan,
            )?,
            ComputeInput::Columnar(object) => {
                let reader = ColumnarReader::open_bytes(object.clone())?;
                Box::new(
                    reader
                        .read_rows_filtered(plan.pushdown.columns.as_deref(), None)?
                        .into_iter()
                        .map(Ok),
                )
            }
        })
    }

    /// What `CsvRelation`'s vanilla scan does with the raw bytes: align the
    /// records to the split, parse no further than the last referenced
    /// field, type the projected columns.
    fn vanilla_rows<'s>(
        &'s self,
        raw: ByteStream,
        part: &InputPartition,
        plan: &PlannedQuery,
    ) -> Result<RowIter<'s>> {
        let indices: Option<Vec<usize>> = match &plan.pushdown.columns {
            None => None,
            Some(cols) => Some(
                cols.iter()
                    .map(|c| self.schema.resolve(c))
                    .collect::<Result<_>>()?,
            ),
        };
        let bound = match &indices {
            None => self.schema.len(),
            Some(idx) => idx.iter().max().map_or(0, |&i| i + 1),
        };
        let mut fields = FieldBuf::default();
        let mut skip_header = part.start == 0;
        let schema = &self.schema;
        Ok(Box::new(
            RangedRecordStream::new(raw, part.start, Some(part.end)).filter_map(move |record| {
                let record = match record {
                    Ok(record) => record,
                    Err(e) => return Some(Err(e)),
                };
                if std::mem::take(&mut skip_header) {
                    return None;
                }
                let view = fields.parse_bounded(&record, bound);
                Some(Ok(match &indices {
                    None => schema.parse_view(&view),
                    Some(idx) => idx
                        .iter()
                        .map(|&i| match view.text(i) {
                            Some(raw) => Value::parse_typed(&raw, schema.fields[i].dtype),
                            None => Value::Null,
                        })
                        .collect(),
                }))
            }),
        ))
    }

    /// One CSV partition's storage side: the connector read, the same GET
    /// through the client over TCP, the same GET handled in-process, and for
    /// pushdown the store-side work under it.
    #[allow(clippy::too_many_arguments)]
    fn peel_csv(
        &self,
        t: &mut Tracer,
        root: SpanId,
        part: InputPartition,
        data: &Bytes,
        spec: &PushdownSpec,
        trace: &str,
        counts: &mut RoundCounts,
    ) -> Result<ComputeInput> {
        let ctx = &self.dep.ctx;
        let pushdown = self.mode == ExecutionMode::Pushdown;
        // A pushdown body ends where the storlet ends it; a vanilla one is
        // abandoned once the split's last record is in.
        let limit = if pushdown {
            None
        } else {
            self.vanilla_pull
                .get(&(part.object.clone(), part.start))
                .copied()
        };

        let (read, got) = t.time("connector.read", Some(root), || {
            let body = if pushdown {
                self.connector.read_pushdown(
                    self.container,
                    &part.object,
                    part.start,
                    Some(part.end),
                    spec,
                    &self.file_columns,
                )?
            } else {
                self.connector
                    .read_from(self.container, &part.object, part.start)?
            };
            drain(body, limit)
        });
        let reached_compute = got?;

        let request = self.partition_get(&part, spec, trace)?;
        let (client, got) = t.time("objectstore.client", Some(read), || {
            drain(
                ok_body(self.client.request(request.clone())?, "GET over TCP")?,
                limit,
            )
        });
        let over_tcp = got?;
        let (handle, got) = t.time("objectstore.handle", Some(client), || {
            drain(
                ok_body(ctx.cluster().handle(request)?, "GET in-process")?,
                limit,
            )
        });
        if over_tcp != reached_compute || got? != reached_compute {
            counts.mismatches += 1;
        }
        counts.probe_parsed += reached_compute;

        if pushdown {
            let filtered = self.peel_storlet(t, handle, &part, data, spec, counts)?;
            if filtered.iter().map(|c| c.len() as u64).sum::<u64>() != reached_compute {
                counts.mismatches += 1;
            }
            Ok(ComputeInput::Filtered(filtered))
        } else {
            let from = part.start as usize;
            let bytes = data.slice(from..from + reached_compute as usize);
            Ok(ComputeInput::Raw { part, bytes })
        }
    }

    /// The store-side work of one pushdown GET, outside the store: the block
    /// plan when the object carries zone maps, the `csvfilter` invoke over
    /// the surviving bytes, then the bare filter over the same bytes.
    /// Returns the filtered records, which are what the GET's body carried.
    fn peel_storlet(
        &self,
        t: &mut Tracer,
        handle: SpanId,
        part: &InputPartition,
        data: &Bytes,
        spec: &PushdownSpec,
        counts: &mut RoundCounts,
    ) -> Result<Vec<Bytes>> {
        let engine = self.dep.ctx.engine();
        let (start, end) = (part.start, part.end);
        let len = data.len() as u64;

        // `[from, to)` byte ranges to scan, with whether each begins on a
        // record the range owns. One open-ended range without zone maps.
        let meta = self
            .object_meta
            .get(&part.object)
            .map(Vec::as_slice)
            .unwrap_or(&[]);
        let ranges: Vec<(u64, u64, bool)> = if meta.iter().any(|(k, _)| k == STATS_HEADER_0) {
            let (_, stats) = t.time("common.zonestats_decode", Some(handle), || {
                ObjectStats::from_metadata(meta.iter().map(|(k, v)| (k.as_str(), v.as_str())))
            });
            let stats = stats?.ok_or_else(|| ScoopError::Internal("stats vanished".into()))?;
            let (_, plan) = t.time("storlets.plan_ranges", Some(handle), || {
                plan_ranges(
                    &stats,
                    spec.predicate.as_ref(),
                    start,
                    Some(end.saturating_sub(1)),
                )
            });
            plan.ranges
                .iter()
                .map(|&(rs, re)| (rs.max(start), re, rs.max(start) > start))
                .collect()
        } else {
            vec![(start, len, false)]
        };

        let mut params = HashMap::new();
        params.insert("spec".to_string(), spec.to_header());
        params.insert("schema".to_string(), self.file_columns.join(","));
        let last_owned = end.saturating_sub(1);

        let (invoke, produced) = t.time("storlets.invoke", Some(handle), || {
            let mut produced = 0u64;
            for &(from, to, pre_aligned) in &ranges {
                let input = stream::chunked(
                    data.slice(from as usize..to as usize),
                    stream::DEFAULT_CHUNK,
                );
                let invocation = InvocationContext {
                    range_start: from,
                    range_end: Some(last_owned.min(to.saturating_sub(1))),
                    pre_aligned,
                    ..InvocationContext::new(params.clone())
                };
                produced += drain(engine.invoke("csvfilter", input, invocation)?, None)?;
            }
            Ok::<u64, ScoopError>(produced)
        });
        let produced = produced?;

        // The bare filter over the records those invocations owned.
        let (_, filtered) = t.time("csvengine.filter", Some(invoke), || {
            let mut scanned = 0u64;
            let mut outputs = Vec::with_capacity(ranges.len());
            for &(from, to, pre_aligned) in &ranges {
                let window = &data[..to as usize];
                let (aligned, stop) = aligned_range(window, start, end);
                let begin = if pre_aligned { from as usize } else { aligned };
                let owned = &window[begin..stop.max(begin)];
                let (out, _) =
                    scoop_csv::filter::filter_buffer(spec, &self.file_columns, owned, begin == 0)?;
                scanned += owned.len() as u64;
                outputs.push(Bytes::from(out));
            }
            Ok::<_, ScoopError>((scanned, outputs))
        });
        let (scanned, outputs) = filtered?;
        if outputs.iter().map(|c| c.len() as u64).sum::<u64>() != produced {
            counts.mismatches += 1;
        }
        counts.probe_scanned += scanned;
        Ok(outputs)
    }

    /// One columnar object's storage side: the ranged reads the reader makes
    /// (tail, footer, one chunk per projected column and row group), through
    /// the connector, the client and the in-process handler.
    #[allow(clippy::too_many_arguments)]
    fn peel_columnar(
        &self,
        t: &mut Tracer,
        root: SpanId,
        part: &InputPartition,
        data: &Bytes,
        plan: &PlannedQuery,
        trace: &str,
        counts: &mut RoundCounts,
    ) -> Result<ComputeInput> {
        let ctx = &self.dep.ctx;

        // Learn the ranges from a dry run over the bytes held in memory.
        let asked: RefCell<Vec<(u64, u64)>> = RefCell::new(Vec::new());
        let reader_fetched = {
            let reader = ColumnarReader::open(
                part.object_size,
                Box::new(|s, e| {
                    asked.borrow_mut().push((s, e));
                    Ok(data.slice(s as usize..e as usize))
                }),
            )?;
            reader.read_rows_filtered(plan.pushdown.columns.as_deref(), None)?;
            reader.bytes_fetched()
        };
        let asked = asked.into_inner();

        let (read, fetched) = t.time("connector.read", Some(root), || {
            let mut fetched = 0u64;
            for &(s, e) in &asked {
                fetched += self
                    .connector
                    .fetch_range(self.container, &part.object, s, e)?
                    .len() as u64;
            }
            Ok::<u64, ScoopError>(fetched)
        });
        let fetched = fetched?;
        let path = self.path(&part.object)?;
        let requests: Vec<Request> = asked
            .iter()
            .filter(|(s, e)| e > s)
            .map(|&(s, e)| {
                Request::get(path.clone())
                    .with_header(common_headers::TRACE, trace)
                    .with_range(ByteRange {
                        start: s,
                        end: Some(e - 1),
                    })
            })
            .collect();
        let (client, got) = t.time("objectstore.client", Some(read), || {
            let mut seen = 0u64;
            for req in &requests {
                seen += drain(
                    ok_body(self.client.request(req.clone())?, "ranged GET over TCP")?,
                    None,
                )?;
            }
            Ok::<u64, ScoopError>(seen)
        });
        let over_tcp = got?;
        let (_, got) = t.time("objectstore.handle", Some(client), || {
            let mut seen = 0u64;
            for req in requests {
                seen += drain(
                    ok_body(ctx.cluster().handle(req)?, "ranged GET in-process")?,
                    None,
                )?;
            }
            Ok::<u64, ScoopError>(seen)
        });
        if over_tcp != fetched || got? != fetched || reader_fetched != fetched {
            counts.mismatches += 1;
        }
        counts.columnar_fetched += fetched;
        counts.probe_parsed += fetched;
        Ok(ComputeInput::Columnar(data.clone()))
    }

    pub fn stats_meta_bytes(&self) -> u64 {
        self.object_meta
            .values()
            .flatten()
            .filter(|(k, _)| k.starts_with(common_headers::SCOOP_STATS_PREFIX))
            .map(|(k, v)| (k.len() + v.len()) as u64)
            .sum()
    }
}

/// One traced ingest round: each PUT over TCP, the same PUT handled
/// in-process, and the `zoneindex` invoke over the same bytes.
pub fn peel_ingest(
    dep: &Deployment,
    t: &mut Tracer,
    round: u64,
    counts: &mut RoundCounts,
) -> Result<()> {
    let ctx = &dep.ctx;
    let name = crate::harness::ingest_name(round);
    let data = dep.objects[0].1.clone();
    let block = dep.scale.block_bytes;
    let trace = telemetry::new_trace_id();
    ctx.client().set_trace(Some(trace.clone()));
    let created = |resp: scoop_objectstore::Response| resp.status == 201;

    let before = Counters::read(ctx);
    let plain = plain_put(ctx, &name, data.clone())?;
    let (over_tcp, resp) = t.time("objectstore.client", None, || {
        ctx.client().request(plain.clone())
    });
    let mut failed = u64::from(!created(resp?));
    let zoned = zoned_put(ctx, &name, data.clone(), block)?;
    let (zoned_tcp, resp) = t.time("objectstore.client", None, || {
        ctx.client().request(zoned.clone())
    });
    failed += u64::from(!created(resp?));
    let (_, head) = t.time("objectstore.head", None, || {
        ctx.client().request(zoned_head(ctx, &name)?)
    });
    let head = head?;
    counts.counters.add_delta(&before, &Counters::read(ctx));
    counts.attempted += crate::harness::INGEST_OPS;
    counts.failed += failed;
    counts.bytes_transferred += crate::harness::INGEST_OPS * data.len() as u64;

    let traced = |req: Request| req.with_header(common_headers::TRACE, trace.as_str());
    let (_, resp) = t.time("objectstore.handle", Some(over_tcp), || {
        ctx.cluster().handle(traced(plain))
    });
    failed = u64::from(!created(resp?));
    let (zoned_handle, resp) = t.time("objectstore.handle", Some(zoned_tcp), || {
        ctx.cluster().handle(traced(zoned))
    });
    failed += u64::from(!created(resp?));
    counts.mismatches += failed;

    let (_, indexed) = t.time("storlets.zoneindex", Some(zoned_handle), || {
        let invocation = InvocationContext::new(crate::dataset::zoneindex_params(block));
        drain(
            ctx.engine()
                .invoke("zoneindex", stream::once(data.clone()), invocation)?,
            None,
        )
    });
    if indexed? != data.len() as u64 {
        counts.mismatches += 1;
    }
    counts.probe_scanned += data.len() as u64;

    let meta: Vec<(&str, &str)> = head.headers.iter().collect();
    let (_, stats) = t.time("common.zonestats_decode", None, || {
        ObjectStats::from_metadata(meta.iter().copied())
    });
    if !matches!(stats, Ok(Some(_))) {
        counts.mismatches += 1;
    }
    counts.stats_meta_bytes = head
        .headers
        .with_prefix(common_headers::SCOOP_STATS_PREFIX)
        .map(|(k, v)| (k.len() + v.len()) as u64)
        .sum();
    Ok(())
}
