//! The end-to-end pass: set up, warm up, then run rounds closed-loop from one
//! client for the run's seconds, with the benchmark's tracing off.

use crate::dataset::{deploy, Deployment, Scale};
use crate::harness::{
    created, ingest_name, plain_put, queries_of, query_failed, reference_results, user_session,
    verify_ingest, zoned_head, zoned_put, INGEST_OPS,
};
use crate::stats::{median, p80, P80_MIN_SAMPLES};
use crate::workloads::{Kind, Workload};
use crate::RunResult;
use scoop_common::{Result, ScoopError};
use scoop_compute::Session;
use scoop_sql::ResultSet;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Untimed rounds run for this long before the clock starts. On this box a
/// process that turns multi-threaded gets its second core only after about a
/// second of load (rounds take twice as long until then), so one warm-up
/// round is not enough.
pub const WARM_UP_SECONDS: f64 = 2.0;

/// `logical_mb_s` is the median rate of this many consecutive windows of
/// rounds, so a stretch of the run that lost a core to a neighbour moves it
/// no more than it moves the median latency.
const RATE_WINDOWS: usize = 5;

/// A run that has not reached [`P80_MIN_SAMPLES`] rounds by now gives up
/// rather than overrun the driver's 180-second limit.
const HARD_CAP: Duration = Duration::from_secs(100);

/// How long a run measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Length {
    /// The driver's mode: warm up, then measure for this long and for at
    /// least fifty rounds.
    Seconds(f64),
    /// `--quick`: one warm-up round, then exactly this many rounds.
    Rounds(usize),
}

/// Everything one timed round produced.
#[derive(Debug, Clone, Copy, Default)]
pub struct Round {
    pub wall: Duration,
    pub attempted: u64,
    pub failed: u64,
    /// Bytes across the store↔client boundary.
    pub transferred: u64,
    /// Bytes of logical data answered (queries) or offered (PUTs).
    pub logical: u64,
}

/// What runs a workload's rounds over one deployment. Shared with the traced
/// pass, which measures its untraced baseline with it.
pub struct Driver<'a> {
    dep: &'a Deployment,
    plan: Plan,
}

enum Plan {
    Query {
        session: Session,
        sql: Vec<String>,
        references: Vec<ResultSet>,
    },
    Ingest,
}

impl<'a> Driver<'a> {
    pub fn new(dep: &'a Deployment, workload: &Workload) -> Result<Driver<'a>> {
        let plan = match workload.kind {
            Kind::Ingest => Plan::Ingest,
            Kind::Query {
                mode, container, ..
            } => {
                let queries = queries_of(workload, dep);
                let references = reference_results(dep, workload, &queries)?;
                Plan::Query {
                    session: user_session(&dep.ctx, container, mode),
                    sql: queries.into_iter().map(|q| q.sql).collect(),
                    references,
                }
            }
        };
        Ok(Driver { dep, plan })
    }

    /// The queries of a query workload with their reference results, so the
    /// traced pass does not compute the references a second time.
    pub fn queries(&self) -> Option<(&[String], &[ResultSet])> {
        match &self.plan {
            Plan::Query {
                sql, references, ..
            } => Some((sql, references)),
            Plan::Ingest => None,
        }
    }

    /// One round: the timed operations, then the untimed check of what they
    /// returned.
    pub fn round(&self, index: u64) -> Round {
        match &self.plan {
            Plan::Query {
                session,
                sql,
                references,
            } => {
                let started = Instant::now();
                let outcomes: Vec<_> = sql.iter().map(|q| session.sql(q)).collect();
                let wall = started.elapsed();
                let failed = outcomes
                    .iter()
                    .zip(references)
                    .filter(|(o, r)| query_failed(o, r))
                    .count();
                Round {
                    wall,
                    attempted: sql.len() as u64,
                    failed: failed as u64,
                    transferred: outcomes
                        .iter()
                        .flatten()
                        .map(|o| o.metrics.bytes_transferred)
                        .sum(),
                    logical: sql.len() as u64 * self.dep.dataset_bytes,
                }
            }
            Plan::Ingest => {
                let ctx = &self.dep.ctx;
                let name = ingest_name(index);
                let data = &self.dep.objects[0].1;
                let block = self.dep.scale.block_bytes;
                let requests = (|| {
                    Ok::<_, ScoopError>((
                        plain_put(ctx, &name, data.clone())?,
                        zoned_put(ctx, &name, data.clone(), block)?,
                        zoned_head(ctx, &name)?,
                    ))
                })();
                let Ok((plain, zoned, head)) = requests else {
                    return Round {
                        attempted: INGEST_OPS,
                        failed: INGEST_OPS,
                        ..Round::default()
                    };
                };
                let offered = INGEST_OPS * data.len() as u64;
                let started = Instant::now();
                let plain_ack = created(&ctx.client().request(plain));
                let zoned_ack = created(&ctx.client().request(zoned));
                let head = ctx.client().request(head);
                let wall = started.elapsed();
                Round {
                    wall,
                    attempted: INGEST_OPS,
                    failed: verify_ingest(ctx, &name, data, plain_ack, zoned_ack, &head),
                    // Request body bytes: a PUT moves what it offers.
                    transferred: offered,
                    logical: offered,
                }
            }
        }
    }
}

/// Peak resident set of this process so far (`VmHWM`), decimal MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024.0 / 1e6)
}

/// Set up again, `repeats` times, timing each and keeping none: one
/// deployment at a time, the store before it gone with its server threads
/// and sockets before the next is built.
fn extra_set_ups(workload: &Workload, scale: Scale, seed: u64, repeats: usize) -> Result<Vec<f64>> {
    (0..repeats)
        .map(|_| Ok(deploy(scale, seed, workload.needs())?.times.total_s))
        .collect()
}

/// Run rounds until `length` is met and, when it is a time, at least
/// `min_rounds` were made. Returns the rounds in order.
pub fn run_rounds(
    driver: &Driver<'_>,
    length: Length,
    min_rounds: usize,
    first_index: u64,
) -> Vec<Round> {
    let started = Instant::now();
    let mut rounds = Vec::new();
    loop {
        let done = match length {
            Length::Rounds(n) => rounds.len() >= n,
            Length::Seconds(s) => {
                let elapsed = started.elapsed();
                (elapsed.as_secs_f64() >= s && rounds.len() >= min_rounds) || elapsed >= HARD_CAP
            }
        };
        if done {
            return rounds;
        }
        rounds.push(driver.round(first_index + rounds.len() as u64));
    }
}

/// Untimed rounds before the clock starts: they dial the pool, infer and
/// cache the schema, fault in the store's pages and wake the second core.
/// Their operations are still checked.
pub fn warm_up(driver: &Driver<'_>, length: Length) -> Vec<Round> {
    let length = match length {
        Length::Seconds(_) => Length::Seconds(WARM_UP_SECONDS),
        Length::Rounds(_) => Length::Rounds(1),
    };
    run_rounds(driver, length, 1, 0)
}

/// Median over [`RATE_WINDOWS`] consecutive windows of logical MB per second
/// of timed wall.
fn windowed_mb_s(rounds: &[Round]) -> f64 {
    let window = rounds.len().div_ceil(RATE_WINDOWS).max(1);
    let rates: Vec<f64> = rounds
        .chunks(window)
        .map(|w| {
            let bytes: u64 = w.iter().map(|r| r.logical).sum();
            let wall: f64 = w.iter().map(|r| r.wall.as_secs_f64()).sum();
            bytes as f64 / 1e6 / wall
        })
        .collect();
    median(&rates)
}

/// The end-to-end metrics of one workload.
pub fn end_to_end(
    workload: &Workload,
    scale: Scale,
    seed: u64,
    length: Length,
) -> Result<RunResult> {
    let dep = deploy(scale, seed, workload.needs())?;
    let driver = Driver::new(&dep, workload)?;

    let warm = warm_up(&driver, length);
    let rounds = run_rounds(&driver, length, P80_MIN_SAMPLES, warm.len() as u64);

    let walls_ms: Vec<f64> = rounds.iter().map(|r| r.wall.as_secs_f64() * 1e3).collect();
    let wall_s: f64 = rounds.iter().map(|r| r.wall.as_secs_f64()).sum();
    let logical: u64 = rounds.iter().map(|r| r.logical).sum();
    let transferred: u64 = rounds.iter().map(|r| r.transferred).sum();
    let attempted: u64 = rounds.iter().map(|r| r.attempted).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    // A count: every round of one run moves the same bytes, or something in
    // the store is not deterministic.
    let steady = rounds
        .iter()
        .all(|r| r.transferred == rounds[0].transferred);
    if !steady {
        eprintln!(
            "note: {}: bytes transferred differ between rounds",
            workload.name
        );
    }

    let mut result = RunResult {
        correct: failed == 0 && warm.iter().all(|r| r.failed == 0) && attempted > 0,
        attempted,
        failed,
        metrics: Vec::new(),
    };
    // Memory is read here, so the peak is that of one set-up and its run;
    // the repeated set-ups that only steady `setup_s` come after.
    let peak_rss = peak_rss_mb();
    let (dataset_bytes, first_set_up) = (dep.dataset_bytes, dep.times.total_s);
    drop(driver);
    drop(dep);
    let repeats = if matches!(length, Length::Rounds(_)) {
        0
    } else {
        SETUP_REPEATS - 1
    };
    let mut set_ups = extra_set_ups(workload, scale, seed, repeats)?;
    set_ups.push(first_set_up);
    result.push("setup_s", median(&set_ups));
    result.push("logical_mb_s", windowed_mb_s(&rounds));
    result.push("round_ms_p50", median(&walls_ms));
    // Omitted, not faked, below fifty rounds (`--quick`, or a machine that
    // hit the hard cap); the driver then rejects the run.
    if let Some(tail) = p80(&walls_ms) {
        result.push("round_ms_p80", tail);
    }
    result.push("transfer_ratio", transferred as f64 / logical as f64);
    if let Some(rss) = peak_rss {
        result.push("peak_rss_mb", rss);
    }
    eprintln!(
        "{}: {} rounds, {} operations, {} failed, dataset {:.2} MB, {:.3} s timed",
        workload.name,
        rounds.len(),
        attempted,
        failed,
        dataset_bytes as f64 / 1e6,
        wall_s
    );
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::END_TO_END;
    use crate::workloads::WORKLOADS;

    /// `--quick` on every workload: correct, every metric but the tail (five
    /// rounds cannot carry an 80th percentile), and done in seconds.
    #[test]
    fn quick_runs_are_correct_omit_p80_and_finish_in_seconds() {
        let started = Instant::now();
        for workload in WORKLOADS {
            let result =
                end_to_end(workload, Scale::QUICK, 42, Length::Rounds(5)).expect(workload.name);
            assert!(result.correct, "{}: {result:?}", workload.name);
            assert_eq!(result.failed, 0, "{}", workload.name);
            let ops = match workload.kind {
                Kind::Ingest => INGEST_OPS,
                Kind::Query { queries, .. } => queries.queries(&Scale::QUICK).len() as u64,
            };
            assert_eq!(result.attempted, 5 * ops, "{}", workload.name);
            for m in END_TO_END {
                let value = result.get(m.name);
                if m.name == "round_ms_p80" {
                    assert_eq!(
                        value, None,
                        "{}: five rounds must not fake a tail",
                        workload.name
                    );
                } else {
                    assert!(
                        value.is_some_and(|v| v.is_finite() && v > 0.0),
                        "{}: {} = {value:?}",
                        workload.name,
                        m.name
                    );
                }
            }
        }
        assert!(
            started.elapsed() < Duration::from_secs(60),
            "quick runs took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn windowed_rate_is_the_median_window_not_the_mean() {
        let round = |ms: u64| Round {
            wall: Duration::from_millis(ms),
            logical: 1_000_000,
            ..Round::default()
        };
        // Ten rounds in five windows of two; one window ran four times slower.
        let mut rounds = vec![round(10); 10];
        rounds[4] = round(40);
        rounds[5] = round(40);
        assert!((windowed_mb_s(&rounds) - 100.0).abs() < 1e-9);
        assert!((windowed_mb_s(&[round(10)]) - 100.0).abs() < 1e-9);
    }
}
