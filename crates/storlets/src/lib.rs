//! The active-storage layer: Scoop's pushdown-filter framework.
//!
//! This crate is the Rust equivalent of the OpenStack Storlets framework the
//! paper extended: sandboxed computations ("storlets") that run on object
//! request streams inside the store, invoked via request metadata, with
//! *pipelining* and *staging control* (proxy vs object node) — the two
//! capabilities the paper contributed — plus byte-range execution at storage
//! nodes, which "was fundamental to match the natural operation of Spark
//! tasks".
//!
//! * [`api`] — the [`api::Storlet`] trait (the `IStorlet` interface from the
//!   paper's code snippet), invocation context, logger and metrics, and
//!   [`api::map_records`], the record loop every record storlet runs.
//! * [`engine`] — the registry + execution engine with sandbox-style resource
//!   accounting.
//! * [`middleware`] — the WSGI middleware that intercepts requests carrying
//!   `X-Run-Storlet` metadata on either tier.
//! * [`filters`] — the storlets shipped with Scoop: the CSV projection/
//!   selection filter (the paper's `CSVStorlet`), a line-grep filter, an RLE
//!   compressor, a storage-side aggregator, and the PUT-path ETL cleanser.
//! * [`policy`] — per-tenant/container enforcement policies, including the
//!   gold/bronze tiering sketched in the paper's discussion section.
//! * [`adaptive`] — the Section VII control process (the Crystal sketch):
//!   demote/restore tenants' pushdown based on storage load and an online
//!   selectivity model, plus admission limits for overload shedding.
//!
//! Under overload the engine sheds pushdown GETs with `503` and the
//! [`middleware::headers::DEGRADED`] marker; clients transparently fall
//! back to a plain ranged GET and filter locally.

pub mod adaptive;
pub mod api;
pub mod engine;
pub mod filters;
pub mod middleware;
pub mod planner;
pub mod policy;

pub use api::{InvocationContext, Storlet, StorletLogger};
pub use engine::{AdmissionPermit, EngineStats, StorletEngine};
pub use middleware::{headers, StorletMiddleware};
pub use adaptive::{AdaptiveController, AdaptivePolicy};
pub use policy::{PolicyStore, Tier};
