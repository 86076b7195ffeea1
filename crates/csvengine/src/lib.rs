//! Streaming CSV engine for Scoop.
//!
//! The paper's proof-of-concept pushes SQL projections and selections down to
//! raw CSV objects in the store. This crate implements everything both sides
//! of that pushdown need:
//!
//! * [`value`] / [`schema`] — the typed data model (rows of [`value::Value`]
//!   described by a [`schema::Schema`]).
//! * [`record`] — byte-level record splitting under the one record rule (a
//!   record ends at the first `\n`, whatever the quotes) and field parsing
//!   (RFC-4180 quoting and embedded delimiters inside a record).
//! * [`scan`] — SWAR (8-bytes-per-word) delimiter scanning primitives the
//!   record splitter and field parser are built on.
//! * [`view`] — zero-copy [`view::RecordView`] field spans with lazy typed
//!   access; the allocation-free fast path for predicate evaluation.
//! * [`batch`] — typed column batches ([`batch::ColumnBatch`]), the unit a
//!   scan hands the SQL executor.
//! * [`reader`] / [`writer`] — streaming readers and writers over
//!   [`scoop_common::ByteStream`] chunked bodies.
//! * [`split`] — record-aligned byte-range splits, matching Hadoop's
//!   `LineRecordReader` contract that the Storlet byte-range extension in the
//!   paper had to honour ("running Storlets at storage nodes for byte ranges").
//! * [`pushdown`] — the [`pushdown::PushdownSpec`] (projection + selection)
//!   exchanged between the analytics delegator and the CSV storlet, including
//!   its compact header serialization.
//! * [`predicate`] — what each pushed predicate leaf means, defined once for
//!   raw fields, columnar cells, zone maps and chunk statistics.
//! * [`blockplan`] — the zone-map block planner both tiers run: the store
//!   per ranged GET, the compute side per split at discovery.
//! * [`filter`] — evaluation of a compiled pushdown spec against raw records,
//!   and [`filter::FilterDriver`], the loop the CSV storlet runs at storage
//!   nodes.

pub mod batch;
pub mod blockplan;
pub mod filter;
pub mod predicate;
pub mod pushdown;
pub mod reader;
pub mod record;
pub mod scan;
pub mod schema;
pub mod split;
pub mod value;
pub mod view;
pub mod writer;

pub use batch::{Column, ColumnBatch};
pub use filter::CompiledSpec;
pub use pushdown::{Predicate, PushdownSpec};
pub use reader::CsvReader;
pub use schema::{DataType, Field, Schema};
pub use value::Value;
pub use view::{FieldBuf, RecordView};
pub use writer::CsvWriter;
