//! Block-range planner: turns per-block zone maps into a skip plan.
//!
//! Given an object's [`ObjectStats`] (built at PUT time by the `zoneindex`
//! storlet) and a pushdown [`Predicate`], the planner answers, per
//! record-aligned block, "can any record in this block match?" — three-valued
//! logic collapsed conservatively: only a definite *no* prunes a block, so an
//! unknown column, an absent statistic or a `NOT` never makes a query wrong,
//! only slower. Surviving adjacent blocks are merged into coalesced byte
//! ranges so the engine issues a few bounded ranged GETs instead of one
//! full-object scan.
//!
//! ## Soundness inventory
//!
//! The pruning rules lean on exactly how [`scoop_csv::filter`] evaluates
//! predicates and how [`scoop_common::zonestats`] builds stats:
//!
//! * NULL (empty field): every comparison and string match is false, so
//!   blocks with no non-empty value (`!has_value`) cannot satisfy them.
//! * Numeric literals compare only against fields that parse as `f64`; the
//!   numeric `(min, max)` covers all such fields (NaN excluded — NaN
//!   comparisons are always false).
//! * `str_min` may be a truncated *prefix* of the true minimum — still a
//!   lower bound, usable for `< / <= / =` pruning. `str_max`, when present,
//!   is exact (overlong maxima are dropped at build time, never truncated).
//! * `NOT` is two-valued in the filter; the planner does not push pruning
//!   through it and returns "may match".

use scoop_common::zonestats::{bloom_mask, BlockStats, ColumnStats, ObjectStats};
use scoop_csv::{Predicate, Value};

/// The outcome of planning one GET against an object's zone maps.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlockPlan {
    /// Surviving coalesced `[start, end)` byte ranges, in object order.
    pub ranges: Vec<(u64, u64)>,
    /// Blocks that must still be scanned.
    pub blocks_scanned: u64,
    /// Blocks eliminated (zone-map pruned or outside the request window).
    pub blocks_pruned: u64,
    /// Bytes of the request's own window `[start, end]` that lie in blocks
    /// this plan does not scan. The rest of such a block is another task's
    /// window to account for, so the tasks of one query over one object sum
    /// to its unscanned bytes once.
    pub bytes_skipped: u64,
}

/// Plan the blocks a ranged pushdown GET must scan.
///
/// `start`/`end` are the request's logical byte range (HTTP semantics:
/// `end` inclusive, `None` = to EOF). Record ownership follows the Hadoop
/// split rule the CSV filter implements: the range owns records starting at
/// offsets `p` with `start < p <= end + 1`, plus offset 0 when `start == 0`.
/// A block survives when it contains at least one owned record start *and*
/// the predicate may match it.
pub fn plan_ranges(
    stats: &ObjectStats,
    pred: Option<&Predicate>,
    start: u64,
    end: Option<u64>,
) -> BlockPlan {
    // Owned record starts form the interval [lo, hi].
    let lo = if start == 0 { 0 } else { start.saturating_add(1) };
    let hi = end.map(|e| e.saturating_add(1));
    let mut plan = BlockPlan::default();
    for b in &stats.blocks {
        let in_window = b.end > lo && hi.is_none_or(|h| b.start <= h);
        let survives = in_window && pred.is_none_or(|p| block_may_match(p, stats, b));
        if survives {
            plan.blocks_scanned += 1;
            match plan.ranges.last_mut() {
                Some(last) if last.1 == b.start => last.1 = b.end,
                _ => plan.ranges.push((b.start, b.end)),
            }
        } else {
            plan.blocks_pruned += 1;
            // Clipped to the window: nothing for a block outside it, and a
            // block that straddles two windows is split between them.
            let clip_end = hi.map_or(b.end, |h| b.end.min(h));
            plan.bytes_skipped += clip_end.saturating_sub(b.start.max(start));
        }
    }
    plan
}

/// Conservative test: can any record in `block` satisfy `pred`?
///
/// `true` means "maybe" — only provably-impossible blocks return `false`.
pub fn block_may_match(pred: &Predicate, stats: &ObjectStats, block: &BlockStats) -> bool {
    // Resolve a column name the same way the filter does (case-insensitive);
    // unknown columns yield no evidence.
    let col = |name: &str| -> Option<&ColumnStats> {
        stats
            .columns
            .iter()
            .position(|c| c.eq_ignore_ascii_case(name))
            .and_then(|i| block.columns.get(i))
    };
    match pred {
        Predicate::Eq(c, v) => col(c).is_none_or(|s| may_eq(s, v)),
        Predicate::Ne(c, v) => col(c).is_none_or(|s| may_ne(s, v)),
        Predicate::Lt(c, v) => col(c).is_none_or(|s| may_cmp(s, v, Cmp::Lt)),
        Predicate::Le(c, v) => col(c).is_none_or(|s| may_cmp(s, v, Cmp::Le)),
        Predicate::Gt(c, v) => col(c).is_none_or(|s| may_cmp(s, v, Cmp::Gt)),
        Predicate::Ge(c, v) => col(c).is_none_or(|s| may_cmp(s, v, Cmp::Ge)),
        Predicate::Like(c, pat) => col(c).is_none_or(|s| {
            // A LIKE match must begin with the pattern's literal prefix.
            let prefix: String = pat.chars().take_while(|&ch| ch != '%' && ch != '_').collect();
            may_start_with(s, &prefix)
        }),
        Predicate::StartsWith(c, p) => col(c).is_none_or(|s| may_start_with(s, p)),
        Predicate::EndsWith(c, _) | Predicate::Contains(c, _) => {
            col(c).is_none_or(|s| s.has_value)
        }
        Predicate::In(c, vs) => col(c).is_none_or(|s| vs.iter().any(|v| may_eq(s, v))),
        Predicate::IsNull(c) => col(c).is_none_or(|s| s.has_null),
        Predicate::IsNotNull(c) => col(c).is_none_or(|s| s.has_value),
        Predicate::And(a, b) => {
            block_may_match(a, stats, block) && block_may_match(b, stats, block)
        }
        Predicate::Or(a, b) => {
            block_may_match(a, stats, block) || block_may_match(b, stats, block)
        }
        // The filter's NOT is two-valued (NULL rows pass NOT); inverting a
        // block-level "maybe" is not sound either way, so never prune.
        Predicate::Not(_) => true,
    }
}

enum Cmp {
    Lt,
    Le,
    Gt,
    Ge,
}

/// Can `field = v` hold for some field summarized by `s`?
fn may_eq(s: &ColumnStats, v: &Value) -> bool {
    match v {
        // `field = NULL` is always false in the filter.
        Value::Null => false,
        Value::Int(_) | Value::Float(_) => match (v.as_f64(), s.num) {
            // No field in the block parses as a number: = can't hold.
            (Some(x), Some((lo, hi))) => x >= lo && x <= hi,
            (Some(_), None) => false,
            (None, _) => true,
        },
        Value::Str(lit) => {
            let lit = lit.as_str();
            if !s.has_value {
                return false;
            }
            // stored str_min <= true minimum (prefix truncation only lowers
            // it), so anything below it is absent.
            if s.str_min.as_deref().is_some_and(|m| lit < m) {
                return false;
            }
            // str_max, when stored, is the exact maximum.
            if s.str_max.as_deref().is_some_and(|m| lit > m) {
                return false;
            }
            if let Some(bloom) = s.bloom {
                let mask = bloom_mask(lit);
                if bloom & mask != mask {
                    return false;
                }
            }
            true
        }
    }
}

/// Can `field <> v` hold for some field summarized by `s`?
fn may_ne(s: &ColumnStats, v: &Value) -> bool {
    match v {
        Value::Null => false,
        Value::Int(_) | Value::Float(_) => match (v.as_f64(), s.num) {
            // Some numeric field differs from x unless the whole block is
            // pinned to exactly x.
            (Some(x), Some((lo, hi))) => !(lo == x && hi == x),
            (Some(_), None) => false,
            (None, _) => true,
        },
        Value::Str(lit) => {
            let lit = lit.as_str();
            if !s.has_value {
                return false;
            }
            // All values equal `lit` only when both exact bounds pin to it
            // (an un-truncated min: equality to the bound proves it was
            // short enough to store verbatim).
            !(s.str_min.as_deref() == Some(lit) && s.str_max.as_deref() == Some(lit))
        }
    }
}

/// Can `field <op> v` hold for some field summarized by `s`?
fn may_cmp(s: &ColumnStats, v: &Value, op: Cmp) -> bool {
    match v {
        Value::Null => false,
        Value::Int(_) | Value::Float(_) => match (v.as_f64(), s.num) {
            (Some(x), Some((lo, hi))) => match op {
                Cmp::Lt => lo < x,
                Cmp::Le => lo <= x,
                Cmp::Gt => hi > x,
                Cmp::Ge => hi >= x,
            },
            (Some(_), None) => false,
            (None, _) => true,
        },
        Value::Str(lit) => {
            let lit = lit.as_str();
            if !s.has_value {
                return false;
            }
            match op {
                // Needs a field below `lit`; stored min bounds all fields
                // from below.
                Cmp::Lt => s.str_min.as_deref().is_none_or(|m| m < lit),
                Cmp::Le => s.str_min.as_deref().is_none_or(|m| m <= lit),
                // Needs a field above `lit`; only an exact max disproves it.
                Cmp::Gt => s.str_max.as_deref().is_none_or(|m| m > lit),
                Cmp::Ge => s.str_max.as_deref().is_none_or(|m| m >= lit),
            }
        }
    }
}

/// Can some field summarized by `s` start with `prefix`?
fn may_start_with(s: &ColumnStats, prefix: &str) -> bool {
    if !s.has_value {
        return false;
    }
    if prefix.is_empty() {
        return true;
    }
    // Fields with this prefix live in [prefix, successor(prefix)).
    // An exact max below the prefix rules them out...
    if s.str_max.as_deref().is_some_and(|m| m < prefix) {
        return false;
    }
    // ...and a minimum already past the prefix's extension range does too:
    // every field is >= str_min, and str_min > prefix without carrying it
    // as a prefix means str_min sorts after every `prefix*` string.
    if s
        .str_min
        .as_deref()
        .is_some_and(|m| m > prefix && !m.starts_with(prefix))
    {
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use scoop_common::zonestats::StatsBuilder;
    use scoop_csv::Value;

    /// Three blocks over a clustered `index` column: [0,100), [100,200),
    /// [200,300) values; `city` cycles per block.
    fn stats() -> ObjectStats {
        let mut b = StatsBuilder::new(
            vec!["vid".into(), "index".into(), "city".into()],
            false,
            2, // tiny: cut after every record
        );
        b.record(["m1", "50", "Paris"], 10);
        b.record(["m2", "150", "Rotterdam"], 10);
        b.record(["m3", "250", ""], 10);
        b.finish("e".into())
    }

    fn pred_gt(col: &str, v: f64) -> Predicate {
        Predicate::Gt(col.into(), Value::Float(v))
    }

    #[test]
    fn numeric_pruning_keeps_only_covering_blocks() {
        let s = stats();
        assert_eq!(s.blocks.len(), 3);
        let plan = plan_ranges(&s, Some(&pred_gt("index", 200.0)), 0, None);
        assert_eq!(plan.ranges, vec![(20, 30)]);
        assert_eq!(plan.blocks_scanned, 1);
        assert_eq!(plan.blocks_pruned, 2);
        assert_eq!(plan.bytes_skipped, 20);

        // An unselective predicate keeps (and coalesces) everything.
        let plan = plan_ranges(&s, Some(&pred_gt("index", 0.0)), 0, None);
        assert_eq!(plan.ranges, vec![(0, 30)]);
        assert_eq!(plan.bytes_skipped, 0);
    }

    #[test]
    fn bytes_skipped_counts_each_pruned_byte_in_one_window_only() {
        // 40 ten-byte records, one block each; `index` = 0, 10, 20, ...
        let mut b = StatsBuilder::new(vec!["vid".into(), "index".into()], false, 2);
        for i in 0..40 {
            b.record(["m", &(i * 10).to_string()], 10);
        }
        let s = b.finish("e".into());
        let len = s.covered_len();
        assert_eq!(len, 400);
        let pred = pred_gt("index", 295.0); // prunes the first 30 blocks
        let whole = plan_ranges(&s, Some(&pred), 0, None);
        assert_eq!(whole.bytes_skipped, 300);
        // Eight tasks, windows that cut blocks in two (400 / 8 = 50, but a
        // window of 53 bytes never ends on a block boundary).
        for window in [50u64, 53, 7, 400] {
            let (mut skipped, mut kept, mut pruned_blocks) = (0, 0, 0);
            let mut start = 0;
            while start < len {
                let end = (start + window).min(len) - 1;
                let plan = plan_ranges(&s, Some(&pred), start, Some(end));
                skipped += plan.bytes_skipped;
                kept += plan
                    .ranges
                    .iter()
                    .map(|&(rs, re)| re.min(end + 1).saturating_sub(rs.max(start)))
                    .sum::<u64>();
                pruned_blocks += plan.blocks_pruned;
                start = end + 1;
            }
            assert_eq!(skipped + kept, len, "window {window}");
            // A surviving block's first byte may fall in the window before
            // the one that owns its records, which then skips that byte.
            let tasks = len.div_ceil(window);
            assert!(
                (whole.bytes_skipped..=whole.bytes_skipped + tasks).contains(&skipped),
                "window {window}: {skipped}"
            );
            // Blocks outside a window still count as pruned for that task.
            assert!(pruned_blocks >= whole.blocks_pruned, "window {window}");
        }
    }

    #[test]
    fn string_eq_uses_bounds_and_bloom() {
        let s = stats();
        let eq = |lit: &str| {
            Predicate::Eq("city".into(), Value::Str(lit.into()))
        };
        let plan = plan_ranges(&s, Some(&eq("Rotterdam")), 0, None);
        assert_eq!(plan.ranges, vec![(10, 20)]);
        // A value nobody stored is bloom-pruned everywhere.
        let plan = plan_ranges(&s, Some(&eq("Ghent")), 0, None);
        assert!(plan.ranges.is_empty());
        // NULL city only in block 3.
        let plan = plan_ranges(&s, Some(&Predicate::IsNull("city".into())), 0, None);
        assert_eq!(plan.ranges, vec![(20, 30)]);
    }

    #[test]
    fn unknown_column_and_not_never_prune() {
        let s = stats();
        let plan = plan_ranges(&s, Some(&pred_gt("ghost", 1e9)), 0, None);
        assert_eq!(plan.ranges, vec![(0, 30)]);
        let not = Predicate::Not(Box::new(pred_gt("index", 200.0)));
        let plan = plan_ranges(&s, Some(&not), 0, None);
        assert_eq!(plan.ranges, vec![(0, 30)]);
    }

    #[test]
    fn window_clips_blocks_by_record_ownership() {
        let s = stats();
        // Range [10, 19]: owns record starts in (10, 20] — block 2 only...
        // plus block 3's start offset 20 == end+1 (the split tail rule).
        let plan = plan_ranges(&s, None, 10, Some(19));
        assert_eq!(plan.ranges, vec![(10, 30)]);
        // Range [0, 9] owns starts [0, 10]: blocks 1 and 2.
        let plan = plan_ranges(&s, None, 0, Some(9));
        assert_eq!(plan.ranges, vec![(0, 20)]);
        // A mid-block start owns nothing before the next record boundary.
        let plan = plan_ranges(&s, None, 25, None);
        assert_eq!(plan.ranges, vec![(20, 30)]);
        // Saturation: end = u64::MAX must not overflow.
        let plan = plan_ranges(&s, None, 0, Some(u64::MAX));
        assert_eq!(plan.ranges, vec![(0, 30)]);
    }

    #[test]
    fn truncated_min_and_dropped_max_stay_sound() {
        let mut b = StatsBuilder::new(vec!["s".into()], false, u64::MAX);
        let long = "b".repeat(40); // overlong: max dropped, min truncated
        b.record([long.as_str()], 41);
        b.record(["bb"], 3);
        let s = b.finish("e".into());
        let block = &s.blocks[0];
        // Gt above any stored value: max is unknown, must NOT prune.
        let gt = Predicate::Gt("s".into(), Value::Str("zzzz".into()));
        assert!(block_may_match(&gt, &s, block));
        // Lt below the truncated min: sound to prune.
        let lt = Predicate::Lt("s".into(), Value::Str("a".into()));
        assert!(!block_may_match(&lt, &s, block));
        // Eq below min prunes; Eq above (unknown max) must not.
        let eq_lo = Predicate::Eq("s".into(), Value::Str("a".into()));
        assert!(!block_may_match(&eq_lo, &s, block));
    }

    #[test]
    fn like_prefix_and_startswith() {
        let s = stats();
        let like = Predicate::Like("city".into(), "Rot%".into());
        let plan = plan_ranges(&s, Some(&like), 0, None);
        assert_eq!(plan.ranges, vec![(10, 20)]);
        // A leading-% pattern gives no prefix evidence: only the NULL-only
        // block is pruned (string matches need a non-empty field).
        let any = Predicate::Like("city".into(), "%dam".into());
        let plan = plan_ranges(&s, Some(&any), 0, None);
        assert_eq!(plan.ranges, vec![(0, 20)]);
    }

    #[test]
    fn and_or_compose() {
        let s = stats();
        let and = Predicate::And(
            Box::new(pred_gt("index", 100.0)),
            Box::new(Predicate::Eq("city".into(), Value::Str("Paris".into()))),
        );
        // Paris only in block 1, index>100 only in 2..3: nothing survives.
        assert!(plan_ranges(&s, Some(&and), 0, None).ranges.is_empty());
        let or = Predicate::Or(
            Box::new(pred_gt("index", 200.0)),
            Box::new(Predicate::Eq("city".into(), Value::Str("Paris".into()))),
        );
        let plan = plan_ranges(&s, Some(&or), 0, None);
        assert_eq!(plan.ranges, vec![(0, 10), (20, 30)]);
    }
}
