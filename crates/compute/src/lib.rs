//! A Spark-like compute framework for Scoop's analytics side.
//!
//! Reproduces the pieces of the Spark stack the paper's flow (Fig. 4) walks
//! through:
//!
//! * [`connector`] — the Hadoop-FS-shaped storage abstraction the framework
//!   reads through, with an in-memory implementation for tests (the real
//!   Stocator-like connector over the object store lives in
//!   `scoop-connector`).
//! * [`partition`] — partition discovery: objects divided by the configured
//!   chunk size, each split becoming one task.
//! * [`datasource`] — the Data Sources API's `PrunedFilteredScan` flavor
//!   over a `TableScan`'s schema and partitions; plus the CSV relation
//!   ([`csv_relation`]) that, like the paper's extended Spark-CSV, "pushes
//!   down both SQL projection and selection" through the connector, and the
//!   columnar relation ([`columnar_relation`]) used by the Parquet
//!   comparison.
//! * [`scheduler`] — the driver's task runner: up to `workers` threads,
//!   started per call, executing one task per partition in parallel. A
//!   query runs on `min(workers, partitions)` of them, so discovery cuts a
//!   zone-pruned query's few surviving splits at block starts until each
//!   worker has a task ([`datasource::PrunedFilteredScan::tasks_for`]).
//! * [`session`] — the user-facing session: register a table, run SQL, get a
//!   result plus job metrics (bytes ingested, task times), with pushdown
//!   toggleable per session exactly like the with/without-Scoop experiment
//!   arms.

pub mod columnar_relation;
pub mod connector;
pub mod csv_relation;
pub mod datasource;
pub mod partition;
pub mod scheduler;
pub mod session;
pub mod storlet_rdd;

pub use connector::{MemoryConnector, ObjectInfo, PushdownBody, StorageConnector};
pub use datasource::ScanOutput;
pub use partition::InputPartition;
pub use session::{ExecutionMode, JobMetrics, QueryOutcome, Session, TableFormat};
pub use storlet_rdd::{StorletDataset, StorletPartitioning};
