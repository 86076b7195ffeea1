//! The block-range planner the middleware runs on a ranged pushdown GET.
//!
//! It lives in [`scoop_csv::blockplan`], next to the predicate it compiles,
//! because the compute side runs the same function at partition discovery;
//! this module re-exports it under the name the store has always used, and
//! holds its unit tests.

pub use scoop_csv::blockplan::{plan_ranges, BlockPlan};

#[cfg(test)]
mod tests {
    use super::*;
    use scoop_common::zonestats::{ObjectStats, StatsBuilder};
    use scoop_csv::{Predicate, Value};

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
        let survives = |p: Predicate| !plan_ranges(&s, Some(&p), 0, None).ranges.is_empty();
        // Gt above any stored value: max is unknown, must NOT prune.
        assert!(survives(Predicate::Gt("s".into(), Value::Str("zzzz".into()))));
        // Lt below the truncated min: sound to prune.
        assert!(!survives(Predicate::Lt("s".into(), Value::Str("a".into()))));
        // Eq below min prunes.
        assert!(!survives(Predicate::Eq("s".into(), Value::Str("a".into()))));
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
