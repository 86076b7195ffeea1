//! Pushdown predicate semantics, written once.
//!
//! A [`Predicate`] is tested on raw CSV fields (the store's filter, the
//! vanilla scan) and on typed columnar cells, and prunes zone-map blocks and
//! columnar row groups. Each caller walks the predicate its own way, but
//! what a leaf *means* is defined here: [`CmpOp`], the literal form [`Lit`],
//! and the leaf [`Test`] — its two-valued verdict on one non-NULL
//! [`Operand`] ([`Test::on`]) or on NULL ([`Test::on_null`]), and its
//! three-valued verdict on a block summarised by [`ColumnStats`], collapsed
//! to "may match" ([`Test::may_match`]). [`Tree::may_match`] is the one
//! pruner over zone maps and chunk statistics.
//!
//! ## Leaf semantics
//!
//! NULL, and a NULL literal, fail every comparison and string match. A
//! numeric literal compares with an operand that is a number (a CSV field
//! that parses as `f64`, an `Int`/`Float` cell); a string literal orders
//! byte-wise against an operand that is a string. Equality with a string
//! (`IN` too) is on the operand's text, which a number has: a wildcard-free
//! `LIKE 'lit'` is pushed as `Eq(col, Str(lit))`, and `LIKE` sees a number
//! as its text (SQL's `=` is unknown there, so either answer keeps every row
//! SQL keeps). String matches run the shared [`LikePattern`] on the text.
//!
//! ## Soundness inventory
//!
//! [`Test::may_match`] is `false` only when the statistics prove no value
//! of the block passes the leaf, from how they are built:
//!
//! * `has_value` is false only for an all-NULL block. `has_null` is true
//!   whenever a NULL may be present; chunk statistics do not record it.
//! * `num` covers every value that compares with a number: the fields that
//!   parse as `f64` (NaN excluded — no comparison selects it), or a numeric
//!   chunk's cells with a NaN bound widened to ±∞. `None`: no such value.
//! * `str_min` bounds every string value from below; a zone map may store a
//!   truncated *prefix* of the minimum, which only lowers it. `str_max`, when
//!   present, is exact (overlong maxima are dropped, never truncated).
//!   Absent bounds prove nothing, which is how a numeric chunk's rendered
//!   text is summarised. A bloom digest holds every distinct string.
//! * A `LIKE` match starts with the pattern's literal prefix; one without a
//!   wildcard is string equality.
//! * `NOT` is two-valued in every evaluator (a NULL row passes `NOT`), so
//!   inverting "may match" is not sound either way: [`Tree`] never prunes
//!   through it, nor on a column the statistics do not know.

use crate::pushdown::{LikePattern, Predicate};
use crate::value::Value;
use scoop_common::zonestats::{bloom_mask, ColumnStats};
use scoop_common::Result;
use std::borrow::Cow;
use std::cmp::Ordering;

/// `= <> < <= > >=`
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Does an operand that orders `ord` against the literal satisfy the
    /// comparison?
    #[inline]
    pub fn holds(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord.is_eq(),
            CmpOp::Ne => ord.is_ne(),
            CmpOp::Lt => ord.is_lt(),
            CmpOp::Le => ord.is_le(),
            CmpOp::Gt => ord.is_gt(),
            CmpOp::Ge => ord.is_ge(),
        }
    }
}

/// A literal in the form an operand is compared with.
#[derive(Debug, Clone)]
pub enum Lit {
    /// SQL NULL: every comparison with it is unknown, so false.
    Null,
    /// A number, compared as `f64`.
    Num(f64),
    /// A string, compared byte-wise (UTF-8 sorts as its bytes do).
    Str(String),
}

impl Lit {
    /// The literal form of `v`.
    pub fn new(v: &Value) -> Lit {
        match v {
            Value::Null => Lit::Null,
            Value::Int(_) | Value::Float(_) => v.as_f64().map_or(Lit::Null, Lit::Num),
            Value::Str(s) => Lit::Str(s.to_string()),
        }
    }
}

/// One non-NULL value a leaf tests.
pub trait Operand {
    /// How the value orders against a number; `None` when it is not a
    /// number, or either side is NaN.
    fn cmp_num(&self, n: f64) -> Option<Ordering>;
    /// How the value orders against a string; `None` when it is not one.
    fn cmp_str(&self, s: &str) -> Option<Ordering>;
    /// The text string matches and string equality see.
    fn text(&self) -> Cow<'_, [u8]>;
}

/// A CSV field's (non-empty) text. A number is parsed from it only if it is
/// UTF-8: lossy text that is not holds U+FFFD, which no float spelling has.
impl Operand for [u8] {
    #[inline]
    fn cmp_num(&self, n: f64) -> Option<Ordering> {
        std::str::from_utf8(self).ok()?.parse::<f64>().ok()?.partial_cmp(&n)
    }

    #[inline]
    fn cmp_str(&self, s: &str) -> Option<Ordering> {
        Some(self.cmp(s.as_bytes()))
    }

    #[inline]
    fn text(&self) -> Cow<'_, [u8]> {
        Cow::Borrowed(self)
    }
}

/// What a leaf asks of one value of its column.
#[derive(Debug, Clone)]
pub enum Test {
    /// `value <op> literal`.
    Cmp(CmpOp, Lit),
    /// `LIKE`; prefix, suffix and substring tests are the literal patterns
    /// they are.
    Like(LikePattern),
    /// `IN`: equal to one of the literals.
    In(Vec<Lit>),
    /// `IS NULL`
    IsNull,
    /// `IS NOT NULL`
    IsNotNull,
}

impl Test {
    /// The verdict on a NULL.
    #[inline]
    pub fn on_null(&self) -> bool {
        matches!(self, Test::IsNull)
    }

    /// The verdict on a non-NULL value.
    #[inline]
    pub fn on<O: Operand + ?Sized>(&self, v: &O) -> bool {
        match self {
            Test::Cmp(op, lit) => compare(*op, lit, v),
            Test::Like(p) => p.matches(&v.text()),
            Test::In(lits) => lits.iter().any(|lit| compare(CmpOp::Eq, lit, v)),
            Test::IsNull => false,
            Test::IsNotNull => true,
        }
    }

    /// May [`Test::on`] (or [`Test::on_null`]) hold for some value of a
    /// block summarised by `s`? `false` only when the statistics prove it
    /// cannot (module docs).
    pub fn may_match(&self, s: &ColumnStats) -> bool {
        match self {
            Test::IsNull => s.has_null,
            Test::IsNotNull => s.has_value,
            _ if !s.has_value => false,
            Test::Cmp(op, lit) => may_compare(s, *op, lit),
            Test::In(lits) => lits.iter().any(|lit| may_compare(s, CmpOp::Eq, lit)),
            Test::Like(LikePattern::Exact(lit)) => may_equal(s, lit),
            Test::Like(p) => may_have_prefix(s, literal_prefix(p)),
        }
    }
}

/// `v <op> lit` on a non-NULL value.
#[inline]
fn compare<O: Operand + ?Sized>(op: CmpOp, lit: &Lit, v: &O) -> bool {
    match (op, lit) {
        (_, Lit::Null) => false,
        (_, Lit::Num(n)) => v.cmp_num(*n).is_some_and(|o| op.holds(o)),
        (CmpOp::Eq, Lit::Str(s)) => *v.text() == *s.as_bytes(),
        (_, Lit::Str(s)) => v.cmp_str(s).is_some_and(|o| op.holds(o)),
    }
}

/// May `value <op> lit` hold for a value of a block that holds one?
fn may_compare(s: &ColumnStats, op: CmpOp, lit: &Lit) -> bool {
    let x = match lit {
        Lit::Null => return false,
        Lit::Str(lit) => return may_compare_str(s, op, lit),
        Lit::Num(x) => *x,
    };
    // No value of the block compares with a number.
    let Some((lo, hi)) = s.num else {
        return false;
    };
    match op {
        CmpOp::Eq => lo <= x && x <= hi,
        // Some value differs from x unless the block is pinned to it.
        CmpOp::Ne => !(lo == x && hi == x),
        CmpOp::Lt => lo < x,
        CmpOp::Le => lo <= x,
        CmpOp::Gt => hi > x,
        CmpOp::Ge => hi >= x,
    }
}

fn may_compare_str(s: &ColumnStats, op: CmpOp, lit: &str) -> bool {
    let (min, max) = (s.str_min.as_deref(), s.str_max.as_deref());
    match op {
        CmpOp::Eq => may_equal(s, lit),
        // Every value equals `lit` only when both bounds pin it (a min equal
        // to `lit` proves it was short enough to store verbatim).
        CmpOp::Ne => !(min == Some(lit) && max == Some(lit)),
        // A value below `lit` needs the lower bound below it...
        CmpOp::Lt => min.is_none_or(|m| m < lit),
        CmpOp::Le => min.is_none_or(|m| m <= lit),
        // ...and one above it an exact maximum above it.
        CmpOp::Gt => max.is_none_or(|m| m > lit),
        CmpOp::Ge => max.is_none_or(|m| m >= lit),
    }
}

/// May some value of a block that holds one have the text `lit`?
fn may_equal(s: &ColumnStats, lit: &str) -> bool {
    if s.str_min.as_deref().is_some_and(|m| lit < m) || s.str_max.as_deref().is_some_and(|m| lit > m) {
        return false;
    }
    let mask = bloom_mask(lit);
    s.bloom.is_none_or(|bloom| bloom & mask == mask)
}

/// May some value of a block that holds one start with `prefix`? Such
/// values lie in `[prefix, successor(prefix))`.
fn may_have_prefix(s: &ColumnStats, prefix: &str) -> bool {
    if prefix.is_empty() {
        return true;
    }
    // An exact maximum below the prefix rules them out, and so does a
    // minimum past it that does not carry it: every value is at least that.
    !(s.str_max.as_deref().is_some_and(|m| m < prefix)
        || s.str_min.as_deref().is_some_and(|m| m > prefix && !m.starts_with(prefix)))
}

/// The literal text every match of `p` starts with.
fn literal_prefix(p: &LikePattern) -> &str {
    match p {
        LikePattern::Exact(s) | LikePattern::Prefix(s) => s,
        LikePattern::Suffix(_) | LikePattern::Contains(_) => "",
        LikePattern::General(s) => s.split(['%', '_']).next().unwrap_or_default(),
    }
}

/// A predicate compiled for evaluation: columns resolved to handles of type
/// `C` (a field or schema position, or `None` for a column the statistics
/// do not know), leaves to [`Test`]s.
#[derive(Debug, Clone)]
pub enum Tree<C> {
    /// A test of one column.
    Leaf(C, Test),
    /// Conjunction.
    And(Box<Tree<C>>, Box<Tree<C>>),
    /// Disjunction.
    Or(Box<Tree<C>>, Box<Tree<C>>),
    /// Negation.
    Not(Box<Tree<C>>),
}

impl<C> Tree<C> {
    /// Compile `pred`, resolving each leaf's column with `resolve`.
    pub fn compile(pred: &Predicate, resolve: &mut impl FnMut(&str) -> Result<C>) -> Result<Tree<C>> {
        let mut leaf = |column: &str, test| Ok(Tree::Leaf(resolve(column)?, test));
        let cmp = |op, v: &Value| Test::Cmp(op, Lit::new(v));
        match pred {
            Predicate::Eq(c, v) => leaf(c, cmp(CmpOp::Eq, v)),
            Predicate::Ne(c, v) => leaf(c, cmp(CmpOp::Ne, v)),
            Predicate::Lt(c, v) => leaf(c, cmp(CmpOp::Lt, v)),
            Predicate::Le(c, v) => leaf(c, cmp(CmpOp::Le, v)),
            Predicate::Gt(c, v) => leaf(c, cmp(CmpOp::Gt, v)),
            Predicate::Ge(c, v) => leaf(c, cmp(CmpOp::Ge, v)),
            Predicate::Like(c, s) => leaf(c, Test::Like(LikePattern::new(s))),
            Predicate::StartsWith(c, s) => leaf(c, Test::Like(LikePattern::Prefix(s.clone()))),
            Predicate::EndsWith(c, s) => leaf(c, Test::Like(LikePattern::Suffix(s.clone()))),
            Predicate::Contains(c, s) => leaf(c, Test::Like(LikePattern::Contains(s.clone()))),
            Predicate::In(c, vs) => leaf(c, Test::In(vs.iter().map(Lit::new).collect())),
            Predicate::IsNull(c) => leaf(c, Test::IsNull),
            Predicate::IsNotNull(c) => leaf(c, Test::IsNotNull),
            Predicate::And(a, b) => Ok(Tree::And(
                Box::new(Tree::compile(a, resolve)?),
                Box::new(Tree::compile(b, resolve)?),
            )),
            Predicate::Or(a, b) => Ok(Tree::Or(
                Box::new(Tree::compile(a, resolve)?),
                Box::new(Tree::compile(b, resolve)?),
            )),
            Predicate::Not(a) => Ok(Tree::Not(Box::new(Tree::compile(a, resolve)?))),
        }
    }

    /// The pruner: may some row of a block hold? `stats` hands out a
    /// column's statistics over the block, `None` when there are none.
    /// `false` only when the statistics prove no row can.
    pub fn may_match<'s>(&self, stats: &impl Fn(&C) -> Option<&'s ColumnStats>) -> bool {
        match self {
            Tree::Leaf(c, test) => stats(c).is_none_or(|s| test.may_match(s)),
            Tree::And(a, b) => a.may_match(stats) && b.may_match(stats),
            Tree::Or(a, b) => a.may_match(stats) || b.may_match(stats),
            Tree::Not(_) => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(pred: Predicate) -> Test {
        match Tree::compile(&pred, &mut |_| Ok(())).unwrap() {
            Tree::Leaf((), test) => test,
            other => panic!("not a leaf: {other:?}"),
        }
    }

    fn text_stats(min: &str, max: &str) -> ColumnStats {
        ColumnStats {
            str_min: Some(min.into()),
            str_max: Some(max.into()),
            has_value: true,
            ..Default::default()
        }
    }

    #[test]
    fn pruning_leaves() {
        let s = text_stats("Lyon", "Rotterdam");
        let may = |p: Predicate| leaf(p).may_match(&s);
        let text = |v: &str| Value::Str(v.into());
        assert!(may(Predicate::Eq("c".into(), text("Paris"))));
        assert!(!may(Predicate::Eq("c".into(), text("Zwolle"))));
        assert!(!may(Predicate::Like("c".into(), "Zw%".into())));
        assert!(!may(Predicate::Like("c".into(), "Ams_erdam".into())));
        assert!(may(Predicate::Like("c".into(), "%dam".into())));
        assert!(!may(Predicate::In("c".into(), vec![text("Amsterdam"), text("Utrecht")])));
        assert!(may(Predicate::In("c".into(), vec![text("Amsterdam"), text("Nice")])));
        assert!(!may(Predicate::Gt("c".into(), text("Rotterdam"))));
        assert!(may(Predicate::Ge("c".into(), text("Rotterdam"))));
        // No value of the block is a number, and none is NULL.
        assert!(!may(Predicate::Lt("c".into(), Value::Int(3))));
        assert!(!may(Predicate::IsNull("c".into())));
        let empty = ColumnStats { has_null: true, ..Default::default() };
        assert!(!leaf(Predicate::IsNotNull("c".into())).may_match(&empty));
        assert!(!leaf(Predicate::Ne("c".into(), text("x"))).may_match(&empty));
    }

    #[test]
    fn pinned_and_unbounded_blocks() {
        let pinned = ColumnStats { num: Some((4.0, 4.0)), has_value: true, ..Default::default() };
        assert!(!leaf(Predicate::Ne("c".into(), Value::Int(4))).may_match(&pinned));
        assert!(leaf(Predicate::Ne("c".into(), Value::Int(5))).may_match(&pinned));
        let wide = ColumnStats {
            num: Some((f64::NEG_INFINITY, f64::INFINITY)),
            has_value: true,
            ..Default::default()
        };
        assert!(leaf(Predicate::Gt("c".into(), Value::Float(1e300))).may_match(&wide));
        assert!(leaf(Predicate::Eq("c".into(), Value::Str("7".into()))).may_match(&wide));
    }
}
