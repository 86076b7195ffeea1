//! Block-range planner: turns per-block zone maps into a skip plan.
//!
//! Given an object's [`ObjectStats`] (built at PUT time by the `zoneindex`
//! storlet) and a pushdown [`Predicate`], the planner answers, per
//! record-aligned block, "can any record in this block match?" with the
//! shared pruner, [`Tree::may_match`]: three-valued logic collapsed
//! conservatively, so only a definite *no* prunes a block, and an unknown
//! column, an absent statistic or a `NOT` never makes a query wrong, only
//! slower. Why each rule is sound is [`crate::predicate`]'s soundness
//! inventory. Surviving adjacent blocks are merged into coalesced byte
//! ranges so the engine issues a few bounded ranged GETs instead of one
//! full-object scan.
//!
//! Both tiers plan with this one function. The store plans the blocks of a
//! ranged pushdown GET; the compute side plans each split of an object at
//! partition discovery and drops the splits whose plan is empty — the very
//! splits the store would have answered with an empty body — and cuts a
//! surviving split only between the blocks [`surviving_blocks`] lists.

use crate::predicate::Tree;
use crate::Predicate;
use scoop_common::zonestats::{BlockStats, ObjectStats};

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
    let hi = end.map(|e| e.saturating_add(1));
    let mut plan = BlockPlan::default();
    for (b, survives) in verdicts(stats, pred, start, end) {
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

/// The blocks [`plan_ranges`] keeps for the same request, each
/// `[start, end)`, in object order and uncoalesced — where a request can be
/// cut without cutting a block.
pub fn surviving_blocks(
    stats: &ObjectStats,
    pred: Option<&Predicate>,
    start: u64,
    end: Option<u64>,
) -> Vec<(u64, u64)> {
    verdicts(stats, pred, start, end)
        .filter(|&(_, survives)| survives)
        .map(|(b, _)| (b.start, b.end))
        .collect()
}

/// Every block of `stats`, in object order, with whether it survives the
/// request: it holds a record start the range owns, and the predicate may
/// match it.
fn verdicts<'a>(
    stats: &'a ObjectStats,
    pred: Option<&Predicate>,
    start: u64,
    end: Option<u64>,
) -> impl Iterator<Item = (&'a BlockStats, bool)> + 'a {
    // Owned record starts form the interval [lo, hi].
    let lo = if start == 0 { 0 } else { start.saturating_add(1) };
    let hi = end.map(|e| e.saturating_add(1));
    // Columns resolve as the filter resolves them (case-insensitive); an
    // unknown one is no evidence.
    let mut column = |name: &str| Ok(stats.columns.iter().position(|c| c.eq_ignore_ascii_case(name)));
    let tree = pred.and_then(|p| Tree::compile(p, &mut column).ok());
    stats.blocks.iter().map(move |b| {
        let in_window = b.end > lo && hi.is_none_or(|h| b.start <= h);
        let survives = in_window
            && tree.as_ref().is_none_or(|t| t.may_match(&|c: &Option<usize>| b.columns.get((*c)?)));
        (b, survives)
    })
}
