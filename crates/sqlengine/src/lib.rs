//! A Spark-SQL-shaped query engine with Catalyst-style pushdown extraction.
//!
//! Scoop's analytics side needs exactly three things from Spark SQL, all
//! reproduced here:
//!
//! 1. **SQL parsing** of the GridPocket query dialect (Table I): SELECT with
//!    expressions and aliases, WHERE, GROUP BY, ORDER BY, LIMIT, aggregates
//!    (`sum`, `min`, `max`, `count`, `avg`, `first_value`), `SUBSTRING`,
//!    `LIKE`, `IN`, `IS NULL` — [`lexer`], [`parser`], [`ast`].
//! 2. **Catalyst filter extraction**: "given a SQL query, the optimizer
//!    extracts the projection and selection filters implied by the query",
//!    which the Data Sources API hands to the scan — [`catalyst`] produces a
//!    [`scoop_csv::PushdownSpec`] plus the residual (non-pushable) predicate.
//! 3. **Execution** over typed column batches, including two-phase aggregation
//!    (worker-side partial + driver-side final merge) mirroring Spark's
//!    map-side combine — [`exec`], [`functions`] — with every expression
//!    bound to the scan schema once per query — [`bound`].
//!
//! The transparency invariant — pushdown + residual ≡ full query — is what
//! makes Scoop safe, and is property-tested across the workspace.

pub mod ast;
pub mod bound;
pub mod catalyst;
#[cfg(test)]
mod differential;
pub mod exec;
pub mod functions;
pub mod lexer;
pub mod parser;
#[cfg(test)]
mod reference;

pub use ast::{AggFunc, BinOp, Expr, OrderItem, Query, SelectItem};
pub use catalyst::{plan_query, PlannedQuery};
pub use bound::RowFilter;
pub use scoop_csv::batch::Selection;
pub use exec::{execute, ResultSet};
pub use parser::parse;
