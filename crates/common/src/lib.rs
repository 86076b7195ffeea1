//! Shared primitives for the Scoop workspace.
//!
//! This crate deliberately stays tiny and dependency-light: everything in the
//! workspace (object store, storlets, SQL engine, compute framework, cluster
//! simulator) builds on the types defined here.
//!
//! * [`error`] — the workspace-wide [`ScoopError`] and [`Result`] alias.
//! * [`stream`] — chunked byte streams, the unit of data flow between the
//!   object store, the storlet engine and the compute layer.
//! * [`headers`] — every Scoop-specific `x-*` HTTP header name, in one place.
//! * [`percent`] — the percent escaping every text codec shares.
//! * [`hash`] — a fast, from-scratch 64/128-bit hash used by the consistent
//!   hash ring and object path hashing.
//! * [`bytesize`] — human-friendly byte quantities.
//! * [`timeseries`] — collectd-like metric recording for the cluster simulator.
//! * [`rng`] — deterministic seed derivation so every experiment is reproducible.
//! * [`retry`] — the shared retry/backoff policy used across the ingest path.
//! * [`deadline`] — query-scoped time budgets propagated through every layer.
//! * [`table`] — plain-text table rendering for the reproduction harness.
//! * [`telemetry`] — the process-wide metrics registry (counters, gauges,
//!   latency histograms) and request-scoped tracing spans.
//! * [`zonestats`] — per-block zone-map statistics (min/max, NULLs, bloom
//!   digests) and their object-metadata codec, powering store-side data
//!   skipping.

pub mod bytesize;
pub mod deadline;
pub mod error;
pub mod hash;
pub mod headers;
pub mod percent;
pub mod retry;
pub mod rng;
pub mod stream;
pub mod table;
pub mod telemetry;
pub mod timeseries;
pub mod zonestats;

pub use bytesize::ByteSize;
pub use deadline::Deadline;
pub use error::{ErrorClass, Result, ScoopError};
pub use retry::RetryPolicy;
pub use stream::ByteStream;
