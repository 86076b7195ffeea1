//! A Parquet-like columnar storage format, built from scratch.
//!
//! The paper's Section VI-C compares Scoop against Apache Parquet, whose two
//! relevant properties are: "Being columnar, it is possible to efficiently
//! perform column projection" and "Parquet stores highly optimized compressed
//! data, which reduces the volume of network transfers" — while selection
//! filtering still happens at the compute side ("Spark is in charge of
//! carrying out the tasks of (de)compressing data and discarding columns").
//! This crate reproduces exactly those properties:
//!
//! * [`mod@format`] — the on-disk layout: row groups of per-column chunks with a
//!   footer (schema, offsets, per-chunk min/max stats), Parquet-style.
//! * [`encode`] — column encodings: dictionary+RLE for strings, zigzag-varint
//!   delta for integers, raw little-endian for floats, validity bitmaps for
//!   NULLs.
//! * [`writer`] / [`reader`] — write column batches, read back with **column
//!   pruning** (only selected chunks are fetched — the reader works over a
//!   range-fetch callback so it composes with ranged object-store GETs, and
//!   adjacent chunks share one), row selection on the decoded arrays before
//!   any row is materialized, and optional row-group skipping on min/max
//!   stats.

pub mod encode;
pub mod format;
pub mod reader;
pub mod writer;

pub use reader::ColumnarReader;
pub use writer::ColumnarWriter;
