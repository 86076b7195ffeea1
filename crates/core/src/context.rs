//! The assembled Scoop deployment: object store + storlet engine + analytics.

use bytes::Bytes;
use scoop_common::{Result, ScoopError};
use scoop_compute::{ExecutionMode, QueryOutcome, Session, StorageConnector, TableFormat};
use scoop_connector::{RunOn, SwiftConnector};
use scoop_csv::Schema;
use scoop_objectstore::middleware::Pipeline;
use scoop_objectstore::request::Request;
use scoop_objectstore::{ObjectPath, SwiftClient, SwiftCluster, SwiftConfig};
use scoop_storlets::middleware::{encode_params, headers};
use scoop_storlets::{PolicyStore, StorletEngine, StorletMiddleware};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Deployment configuration.
#[derive(Debug, Clone)]
pub struct ScoopConfig {
    /// Object-store shape.
    pub swift: SwiftConfig,
    /// Compute-side worker threads.
    pub workers: usize,
    /// Partition-discovery chunk size in bytes.
    pub chunk_size: u64,
    /// Tenant account.
    pub account: String,
    /// Storlet execution stage for pushdown GETs.
    pub run_on: RunOn,
    /// Route the assembled client over the TCP data plane (real HTTP/1.1
    /// frames on pooled loopback sockets) instead of in-process calls.
    /// Equivalent to `SCOOP_TRANSPORT=tcp`, but per-deployment rather than
    /// process-global, so parallel tests can mix transports.
    pub transport_tcp: bool,
}

impl Default for ScoopConfig {
    fn default() -> Self {
        ScoopConfig {
            swift: SwiftConfig::default(),
            workers: 4,
            chunk_size: 512 * 1024,
            account: "AUTH_gridpocket".to_string(),
            run_on: RunOn::ObjectNode,
            transport_tcp: false,
        }
    }
}

/// What a dataset upload did.
#[derive(Debug, Clone, Default)]
pub struct UploadReport {
    /// Objects stored.
    pub objects: usize,
    /// Raw bytes offered by the client.
    pub bytes_in: u64,
    /// Bytes actually stored (differs when a PUT-path ETL ran).
    pub bytes_stored: u64,
}

/// PUT-path ETL request (the paper's upload-time cleansing).
#[derive(Debug, Clone)]
pub struct EtlSpec {
    /// Storlet pipeline (e.g. `"etlcleanse"`).
    pub storlets: String,
    /// Invocation parameters.
    pub params: HashMap<String, String>,
}

/// The deployed system.
pub struct ScoopContext {
    cluster: Arc<SwiftCluster>,
    engine: Arc<StorletEngine>,
    policy: Arc<PolicyStore>,
    client: SwiftClient,
    config: ScoopConfig,
}

impl ScoopContext {
    /// Assemble the cluster, deploy the built-in storlets, install the
    /// storlet middleware on both tiers.
    pub fn new(config: ScoopConfig) -> Result<Arc<ScoopContext>> {
        let cluster = SwiftCluster::new(config.swift.clone())?;
        let engine = Arc::new(StorletEngine::with_builtin_filters());
        let policy = Arc::new(PolicyStore::new());
        let mut object_pipeline = Pipeline::new();
        object_pipeline.push(Arc::new(StorletMiddleware::new(engine.clone())));
        cluster.set_object_pipeline(object_pipeline);
        let mut proxy_pipeline = Pipeline::new();
        proxy_pipeline.push(Arc::new(StorletMiddleware::with_policy(
            engine.clone(),
            policy.clone(),
        )));
        cluster.set_proxy_pipeline(proxy_pipeline);
        let mut client = cluster.anonymous_client(&config.account);
        if config.transport_tcp {
            client = client.over_tcp()?;
        }
        Ok(Arc::new(ScoopContext { cluster, engine, policy, client, config }))
    }

    /// The underlying object-store cluster.
    pub fn cluster(&self) -> &Arc<SwiftCluster> {
        &self.cluster
    }

    /// The storlet engine (deploy custom filters, read stats).
    pub fn engine(&self) -> &Arc<StorletEngine> {
        &self.engine
    }

    /// The policy store (tiers, auto-apply rules).
    pub fn policy(&self) -> &Arc<PolicyStore> {
        &self.policy
    }

    /// An object-store client bound to the configured account.
    pub fn client(&self) -> &SwiftClient {
        &self.client
    }

    /// The configuration.
    pub fn config(&self) -> &ScoopConfig {
        &self.config
    }

    /// Upload CSV objects into a container, optionally through a PUT-path
    /// ETL storlet pipeline.
    pub fn upload_csv(
        &self,
        container: &str,
        objects: Vec<(String, Bytes)>,
        etl: Option<&EtlSpec>,
    ) -> Result<UploadReport> {
        self.client.create_container(container)?;
        let mut report = UploadReport::default();
        let mut names = HashSet::new();
        for (name, data) in objects {
            names.insert(name.clone());
            report.objects += 1;
            report.bytes_in += data.len() as u64;
            let path = ObjectPath::new(self.config.account.clone(), container, name)?;
            let mut req = Request::put(path, data);
            if let Some(etl) = etl {
                req = req
                    .with_header(headers::RUN_STORLET, etl.storlets.clone())
                    .with_header(headers::PARAMETERS, encode_params(&etl.params));
            }
            let resp = self.client.request(req)?;
            if !resp.is_success() {
                return Err(ScoopError::Io(std::io::Error::other(format!(
                    "PUT failed with status {}",
                    resp.status
                ))));
            }
        }
        // What this call stored, after any PUT-path ETL: the listed size of
        // each object it wrote.
        report.bytes_stored = self
            .client
            .list(container, None)?
            .iter()
            .filter(|o| names.contains(&o.name))
            .map(|o| o.size)
            .sum();
        Ok(report)
    }

    /// Build an analytics session in the given execution mode, with the
    /// table registered over `container`.
    pub fn session(&self, container: &str, mode: ExecutionMode) -> Session {
        self.session_with_schema(container, mode, None)
    }

    /// Like [`ScoopContext::session`], with an explicit table schema.
    pub fn session_with_schema(
        &self,
        container: &str,
        mode: ExecutionMode,
        schema: Option<Schema>,
    ) -> Session {
        let format = match mode {
            ExecutionMode::Vanilla | ExecutionMode::Pushdown => TableFormat::Csv { has_header: true },
            ExecutionMode::Columnar => TableFormat::Columnar,
        };
        let connector = SwiftConnector::with_run_on(self.client.clone(), self.config.run_on);
        let session = Session::new(connector, self.config.workers)
            .with_chunk_size(self.config.chunk_size)
            .with_pushdown(mode == ExecutionMode::Pushdown);
        session.register_table(container, container, None, format, schema);
        session
    }

    /// One-shot: run `sql` against the CSV (or columnar) data in `container`
    /// under the given mode. The table name in the query must match the
    /// container name.
    pub fn query(&self, container: &str, sql: &str, mode: ExecutionMode) -> Result<QueryOutcome> {
        self.session(container, mode).sql(sql)
    }

    /// Convert the CSV objects of `container` into columnar objects stored
    /// in `target` (one columnar object per CSV object), returning stored
    /// byte counts `(csv, columnar)` — the offline conversion the paper's
    /// Parquet comparison presupposes.
    pub fn convert_to_columnar(
        &self,
        container: &str,
        target: &str,
        row_group_rows: usize,
    ) -> Result<(u64, u64)> {
        let listing = self.client.list(container, None)?;
        if listing.is_empty() {
            return Err(ScoopError::NotFound(format!("container {container} empty")));
        }
        self.client.create_container(target)?;
        // Every object is written under the schema sampled from the first.
        let mut schema = None;
        let mut csv_bytes = 0u64;
        let mut col_bytes = 0u64;
        // Each object is read as a query reads it: resumed, length-checked.
        let connector = SwiftConnector::new(self.client.clone());
        for obj in listing {
            let body = connector.read_from(container, &obj.name, 0)?;
            let data = scoop_common::stream::collect_sized(body, obj.size as usize)?;
            csv_bytes += data.len() as u64;
            let schema = match &schema {
                Some(schema) => schema,
                None => schema.insert(scoop_csv::reader::infer_schema(&data, 200)?),
            };
            let mut writer =
                scoop_columnar::ColumnarWriter::with_row_group_rows(schema.clone(), row_group_rows);
            let mut reader = scoop_csv::CsvReader::new(
                scoop_common::stream::once(data),
                schema.clone(),
                true,
            );
            while let Some(batch) = reader.next_batch()? {
                writer.write_batch(batch);
            }
            let encoded = writer.finish();
            col_bytes += encoded.len() as u64;
            let name = format!("{}.scol", obj.name.trim_end_matches(".csv"));
            self.client.put_object(target, &name, encoded)?;
        }
        Ok((csv_bytes, col_bytes))
    }
}

impl std::fmt::Debug for ScoopContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScoopContext")
            .field("cluster", &self.cluster)
            .field("account", &self.config.account)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scoop_workload::{GeneratorConfig, MeterDataset};

    fn lab() -> (Arc<ScoopContext>, u64) {
        let ctx = ScoopContext::new(ScoopConfig {
            chunk_size: 16 * 1024,
            ..Default::default()
        })
        .unwrap();
        let mut gen = MeterDataset::new(&GeneratorConfig {
            meters: 40,
            interval_minutes: 24 * 60,
            ..Default::default()
        });
        let objects: Vec<(String, Bytes)> = (0..3)
            .map(|i| (format!("part-{i}.csv"), gen.csv_object(1500)))
            .collect();
        let report = ctx.upload_csv("meters", objects, None).unwrap();
        assert_eq!(report.objects, 3);
        (ctx, report.bytes_in)
    }

    const SQL: &str = "SELECT vid, sum(index) as total, count(*) as n FROM meters \
        WHERE city LIKE 'Rotterdam' AND date LIKE '2015-01%' GROUP BY vid ORDER BY vid";

    #[test]
    fn end_to_end_pushdown_equals_vanilla() {
        let (ctx, bytes) = lab();
        let vanilla = ctx.query("meters", SQL, ExecutionMode::Vanilla).unwrap();
        let pushed = ctx.query("meters", SQL, ExecutionMode::Pushdown).unwrap();
        assert_eq!(vanilla.result, pushed.result);
        assert!(!vanilla.result.is_empty());
        // Vanilla moved (roughly) the whole dataset; pushdown a sliver.
        assert!(vanilla.metrics.bytes_transferred >= bytes * 9 / 10);
        assert!(pushed.metrics.bytes_transferred < bytes / 5);
        // Storlet engine really ran, once per task.
        assert_eq!(
            ctx.engine().stats("csvfilter").invocations as usize,
            pushed.metrics.tasks
        );
    }

    #[test]
    fn columnar_mode_matches_too() {
        let (ctx, _) = lab();
        let (csv_bytes, col_bytes) = ctx.convert_to_columnar("meters", "meters-col", 500).unwrap();
        assert!(col_bytes < csv_bytes, "columnar {col_bytes} vs csv {csv_bytes}");
        let vanilla = ctx.query("meters", SQL, ExecutionMode::Vanilla).unwrap();
        let columnar = ctx
            .query("meters-col", &SQL.replace("FROM meters", "FROM meters-col"), ExecutionMode::Columnar);
        // Table names with '-' don't parse; use a session-registered alias.
        assert!(columnar.is_err());
        let session = ctx.session_with_schema("meters-col", ExecutionMode::Columnar, None);
        session.register_table("colmeters", "meters-col", None, TableFormat::Columnar, None);
        let columnar = session.sql(&SQL.replace("FROM meters", "FROM colmeters")).unwrap();
        // Different partitionings sum floats in different orders.
        assert!(vanilla.result.approx_eq(&columnar.result, 1e-9));
        assert!(columnar.metrics.bytes_transferred < vanilla.metrics.bytes_transferred);
    }

    #[test]
    fn conversion_gets_each_object_once() {
        let (ctx, _) = lab();
        let gets = || ctx.cluster().object_servers().iter().map(|s| s.stats().gets).sum::<u64>();
        let before = gets();
        ctx.convert_to_columnar("meters", "meters-col", 500).unwrap();
        assert_eq!(gets() - before, 3, "one GET per CSV object");
        ctx.client().create_container("empty").unwrap();
        let empty = ctx.convert_to_columnar("empty", "empty-col", 500);
        assert!(matches!(empty, Err(ScoopError::NotFound(_))), "{empty:?}");
    }

    #[test]
    fn etl_upload_cleanses() {
        let ctx = ScoopContext::new(ScoopConfig::default()).unwrap();
        let raw = Bytes::from_static(b"vid,index\n m1 , 5 \nbad,row,extra\nm2,6\n");
        let mut params = HashMap::new();
        params.insert("schema".to_string(), "vid,index".to_string());
        params.insert("header".to_string(), "1".to_string());
        let report = ctx
            .upload_csv(
                "raw",
                vec![("a.csv".to_string(), raw)],
                Some(&EtlSpec { storlets: "etlcleanse".into(), params }),
            )
            .unwrap();
        assert!(report.bytes_stored < report.bytes_in);
        let body = ctx
            .client()
            .get_object("raw", "a.csv")
            .unwrap()
            .read_body()
            .unwrap();
        assert_eq!(body, "vid,index\nm1,5\nm2,6\n");
    }

    #[test]
    fn upload_reports_only_its_own_bytes() {
        let ctx = ScoopContext::new(ScoopConfig::default()).unwrap();
        let first = Bytes::from_static(b"vid,index\nm1,5\nm2,6\n");
        let second = Bytes::from_static(b"vid,index\nm3,7\n");
        let report = ctx.upload_csv("a", vec![("x.csv".into(), first.clone())], None).unwrap();
        assert_eq!(report.bytes_stored, first.len() as u64);
        let report = ctx
            .upload_csv("b", vec![("x.csv".into(), second.clone()), ("y.csv".into(), second.clone())], None)
            .unwrap();
        assert_eq!(report.bytes_stored, 2 * second.len() as u64);
    }

    #[test]
    fn doc_example_quickstart() {
        // Mirrors the lib.rs doc example.
        let ctx = ScoopContext::new(ScoopConfig::default()).unwrap();
        let mut gen = MeterDataset::new(&GeneratorConfig { meters: 20, ..Default::default() });
        ctx.upload_csv("meters", vec![("jan.csv".into(), gen.csv_object(500))], None)
            .unwrap();
        let sql = "SELECT vid, sum(index) as total FROM meters \
                   WHERE city LIKE 'Rotterdam' GROUP BY vid ORDER BY vid";
        let vanilla = ctx.query("meters", sql, ExecutionMode::Vanilla).unwrap();
        let scoop = ctx.query("meters", sql, ExecutionMode::Pushdown).unwrap();
        assert_eq!(vanilla.result, scoop.result);
        assert!(scoop.metrics.bytes_transferred < vanilla.metrics.bytes_transferred);
    }
}
