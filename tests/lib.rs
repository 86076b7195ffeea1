//! Integration-test crate for the Scoop workspace.
//!
//! Shared fixtures live here; the actual cross-crate tests are under
//! `tests/` (`end_to_end.rs`, `failure_injection.rs`, `transparency.rs`).

use bytes::Bytes;
use scoop_core::{ScoopConfig, ScoopContext};
use scoop_csv::{Predicate, Value};
use scoop_sql::{BinOp, Expr};
use scoop_workload::{GeneratorConfig, MeterDataset};
use std::sync::Arc;

/// A small deterministic generator, so a failing case is its seed.
pub struct Lcg(pub u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// One of `items`.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// The SQL a Data-Sources predicate is pushed from. `Eq` against a string
/// has two spellings — `=` and a wildcard-free `LIKE` — chosen by
/// `eq_as_like`.
pub fn to_expr(p: &Predicate, eq_as_like: bool) -> Expr {
    let col = |c: &str| Box::new(Expr::Column(c.to_string()));
    let cmp = |op, c: &str, v: &Value| Expr::Binary {
        op,
        left: col(c),
        right: Box::new(Expr::Literal(v.clone())),
    };
    let like = |c: &str, pattern: String| Expr::Like { expr: col(c), pattern, negated: false };
    let both = |op, a: &Predicate, b: &Predicate| Expr::Binary {
        op,
        left: Box::new(to_expr(a, eq_as_like)),
        right: Box::new(to_expr(b, eq_as_like)),
    };
    match p {
        Predicate::Eq(c, Value::Str(s)) if eq_as_like && !s.contains(['%', '_']) => {
            like(c, s.to_string())
        }
        Predicate::Eq(c, v) => cmp(BinOp::Eq, c, v),
        Predicate::Ne(c, v) => cmp(BinOp::Ne, c, v),
        Predicate::Lt(c, v) => cmp(BinOp::Lt, c, v),
        Predicate::Le(c, v) => cmp(BinOp::Le, c, v),
        Predicate::Gt(c, v) => cmp(BinOp::Gt, c, v),
        Predicate::Ge(c, v) => cmp(BinOp::Ge, c, v),
        Predicate::Like(c, pattern) => like(c, pattern.clone()),
        Predicate::StartsWith(c, s) => like(c, format!("{s}%")),
        Predicate::EndsWith(c, s) => like(c, format!("%{s}")),
        Predicate::Contains(c, s) => like(c, format!("%{s}%")),
        Predicate::In(c, vs) => Expr::InList {
            expr: col(c),
            list: vs.iter().cloned().map(Expr::Literal).collect(),
            negated: false,
        },
        Predicate::IsNull(c) => Expr::IsNull { expr: col(c), negated: false },
        Predicate::IsNotNull(c) => Expr::IsNull { expr: col(c), negated: true },
        Predicate::And(a, b) => both(BinOp::And, a, b),
        Predicate::Or(a, b) => both(BinOp::Or, a, b),
        Predicate::Not(a) => Expr::Not(Box::new(to_expr(a, eq_as_like))),
    }
}

/// `base` perturbed by `SCOOP_CHAOS_SEED`, as the chaos suites mix it, so
/// each leg of the CI seed matrix replays a different fault sequence.
pub fn chaos_seed(base: u64) -> u64 {
    match std::env::var("SCOOP_CHAOS_SEED") {
        Ok(s) => {
            let mix: u64 = s.parse().expect("SCOOP_CHAOS_SEED must be a u64");
            base ^ mix.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        }
        Err(_) => base,
    }
}

/// A deployed system with `objects` uploaded CSV objects of `rows` readings
/// each, under the `largemeter` container/table.
pub fn deploy(
    meters: usize,
    objects: usize,
    rows: usize,
    chunk_size: u64,
) -> (Arc<ScoopContext>, u64) {
    let ctx = ScoopContext::new(ScoopConfig {
        chunk_size,
        ..Default::default()
    })
    .expect("deploy");
    let mut gen = MeterDataset::new(&GeneratorConfig {
        meters,
        interval_minutes: 12 * 60,
        ..Default::default()
    });
    let objs: Vec<(String, Bytes)> = (0..objects)
        .map(|i| (format!("part-{i:02}.csv"), gen.csv_object(rows)))
        .collect();
    let report = ctx.upload_csv("largemeter", objs, None).expect("upload");
    (ctx, report.bytes_in)
}
