//! The driver's task scheduler: each call starts up to `workers` scoped
//! threads that claim one task per partition until none are left, with
//! per-task timing — the in-process equivalent of Spark's stage execution
//! over its standalone cluster. The threads live for that call only; no
//! pool outlives it.

use scoop_common::{Deadline, Result};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Outcome of one task.
pub struct TaskResult<T> {
    /// Partition / task index.
    pub index: usize,
    /// The task's produced value or error.
    pub result: Result<T>,
    /// Wall time the task took (summed across attempts).
    pub duration: Duration,
    /// Executions of the task, including the successful (or final) one.
    pub attempts: u32,
}

/// Run `n_tasks` tasks on `min(workers, n_tasks)` scoped threads started
/// for this call and joined before it returns. `task_fn` is invoked with the
/// task index; tasks are claimed dynamically (work stealing by counter), like
/// Spark assigning tasks to free executor slots. Results arrive indexed.
/// Each task runs at most once; see [`run_tasks_with_retry`] for the
/// fault-tolerant variant.
pub fn run_tasks<T, F>(workers: usize, n_tasks: usize, task_fn: F) -> Vec<TaskResult<T>>
where
    T: Send,
    F: Fn(usize) -> Result<T> + Sync,
{
    run_tasks_with_retry(workers, n_tasks, 1, task_fn)
}

/// Like [`run_tasks`], but a task whose failure is retryable
/// ([`scoop_common::ScoopError::is_retryable`]) is re-executed on the same
/// worker up to `max_failures` total attempts — Spark's
/// `spark.task.maxFailures` model, where a lost stream or a flaky storage
/// node costs one task re-run, not the whole job. Panics count as retryable
/// compute failures. Non-retryable errors fail the task immediately.
pub fn run_tasks_with_retry<T, F>(
    workers: usize,
    n_tasks: usize,
    max_failures: u32,
    task_fn: F,
) -> Vec<TaskResult<T>>
where
    T: Send,
    F: Fn(usize) -> Result<T> + Sync,
{
    run_tasks_with_deadline(workers, n_tasks, max_failures, Deadline::none(), task_fn)
}

/// Like [`run_tasks_with_retry`], but bounded by a query [`Deadline`]:
/// a task is not *started* (or re-attempted) once the deadline has passed —
/// it fails with the deadline error (first attempt) or its own last error
/// (exhausted retries), so a query stops burning workers the moment its
/// budget is gone.
pub fn run_tasks_with_deadline<T, F>(
    workers: usize,
    n_tasks: usize,
    max_failures: u32,
    deadline: Deadline,
    task_fn: F,
) -> Vec<TaskResult<T>>
where
    T: Send,
    F: Fn(usize) -> Result<T> + Sync,
{
    let workers = workers.max(1);
    let max_failures = max_failures.max(1);
    let next = AtomicUsize::new(0);
    let results: parking_lot::Mutex<Vec<TaskResult<T>>> =
        parking_lot::Mutex::new(Vec::with_capacity(n_tasks));
    std::thread::scope(|scope| {
        for _ in 0..workers.min(n_tasks.max(1)) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n_tasks {
                    break;
                }
                let started = Instant::now();
                let mut attempts = 0u32;
                let result = loop {
                    if attempts == 0 {
                        // Budget already gone before the first attempt:
                        // fail fast without invoking the task at all.
                        if let Err(e) = deadline.check(&format!("task {i}")) {
                            break Err(e);
                        }
                    }
                    attempts += 1;
                    // A panicking task must fail its own task, not the job:
                    // the executor survives, like a Spark task failure.
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        task_fn(i)
                    }))
                    .unwrap_or_else(|payload| {
                        let msg = payload
                            .downcast_ref::<&str>()
                            .map(|s| s.to_string())
                            .or_else(|| payload.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "task panicked".to_string());
                        Err(scoop_common::ScoopError::Compute(format!(
                            "task {i} panicked: {msg}"
                        )))
                    });
                    match result {
                        // An expired deadline stops re-attempts; the task's
                        // own (real) error surfaces, not a synthetic one.
                        Err(e)
                            if e.is_retryable()
                                && attempts < max_failures
                                && !deadline.expired() =>
                        {
                            continue
                        }
                        other => break other,
                    }
                };
                results.lock().push(TaskResult {
                    index: i,
                    result,
                    duration: started.elapsed(),
                    attempts,
                });
            });
        }
    });
    let mut out = results.into_inner();
    out.sort_by_key(|r| r.index);
    out
}

/// Total task re-executions across a stage (0 when every task succeeded
/// first try).
pub fn total_retries<T>(results: &[TaskResult<T>]) -> u64 {
    results
        .iter()
        .map(|r| u64::from(r.attempts.saturating_sub(1)))
        .sum()
}

/// Collapse task results, propagating the first error.
pub fn collect_ok<T>(results: Vec<TaskResult<T>>) -> Result<(Vec<T>, Vec<Duration>)> {
    let mut values = Vec::with_capacity(results.len());
    let mut durations = Vec::with_capacity(results.len());
    for r in results {
        durations.push(r.duration);
        values.push(r.result?);
    }
    Ok((values, durations))
}

#[cfg(test)]
mod tests {
    use super::*;
    use scoop_common::ScoopError;

    #[test]
    fn runs_all_tasks_in_index_order() {
        let results = run_tasks(4, 100, |i| Ok(i * 2));
        assert_eq!(results.len(), 100);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.index, i);
            assert_eq!(*r.result.as_ref().unwrap(), i * 2);
        }
    }

    #[test]
    fn parallelism_actually_engages() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let threads: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
        run_tasks(4, 64, |_| {
            threads.lock().unwrap().insert(std::thread::current().id());
            std::thread::sleep(Duration::from_micros(200));
            Ok(())
        });
        assert!(threads.lock().unwrap().len() > 1);
    }

    #[test]
    fn zero_tasks_and_zero_workers() {
        let results = run_tasks::<(), _>(0, 0, |_| Ok(()));
        assert!(results.is_empty());
        let results = run_tasks(0, 3, Ok);
        assert_eq!(results.len(), 3);
    }

    #[test]
    fn retry_reruns_retryable_failures_up_to_max() {
        use std::sync::atomic::AtomicU32;
        // Task 2 fails transiently twice, then succeeds; task 4 always fails.
        let flaky = AtomicU32::new(0);
        let results = run_tasks_with_retry(2, 6, 4, |i| match i {
            2 => {
                if flaky.fetch_add(1, Ordering::Relaxed) < 2 {
                    Err(ScoopError::Io(std::io::Error::other("transient")))
                } else {
                    Ok(i)
                }
            }
            4 => Err(ScoopError::Io(std::io::Error::other("hard down"))),
            _ => Ok(i),
        });
        assert_eq!(*results[2].result.as_ref().unwrap(), 2);
        assert_eq!(results[2].attempts, 3);
        assert!(results[4].result.is_err());
        assert_eq!(results[4].attempts, 4);
        assert_eq!(results[0].attempts, 1);
        assert_eq!(total_retries(&results), 2 + 3);
    }

    #[test]
    fn retry_does_not_rerun_non_retryable_failures() {
        let results = run_tasks_with_retry(1, 1, 5, |_| {
            Err::<(), _>(ScoopError::NotFound("gone".into()))
        });
        assert_eq!(results[0].attempts, 1);
        assert!(results[0].result.is_err());
    }

    #[test]
    fn expired_deadline_fails_tasks_without_running_them() {
        use std::sync::atomic::AtomicU32;
        let calls = AtomicU32::new(0);
        let expired = Deadline::at(Instant::now() - Duration::from_millis(1));
        let results = run_tasks_with_deadline(2, 4, 5, expired, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            Ok(i)
        });
        assert_eq!(calls.load(Ordering::Relaxed), 0, "tasks must not start");
        for r in &results {
            assert_eq!(r.result.as_ref().unwrap_err().kind(), "deadline");
            assert_eq!(r.attempts, 0);
        }
    }

    #[test]
    fn deadline_expiry_mid_run_stops_retries_with_the_real_error() {
        // Generous-enough budget to start, but each attempt exhausts it:
        // the retry loop must stop early and surface the task's own error.
        let deadline = Deadline::within(Duration::from_millis(5));
        let results = run_tasks_with_deadline(1, 1, 100, deadline, |_| {
            std::thread::sleep(Duration::from_millis(10));
            Err::<(), _>(ScoopError::Io(std::io::Error::other("flaky node")))
        });
        let r = &results[0];
        assert_eq!(r.result.as_ref().unwrap_err().kind(), "io");
        assert!(r.attempts < 100, "retries must stop once the budget is gone");
    }

    #[test]
    fn collect_ok_propagates_errors() {
        let results = run_tasks(2, 5, |i| {
            if i == 3 {
                Err(ScoopError::Compute("task 3 exploded".into()))
            } else {
                Ok(i)
            }
        });
        assert!(collect_ok(results).is_err());
        let results = run_tasks(2, 5, Ok);
        let (vals, durs) = collect_ok(results).unwrap();
        assert_eq!(vals, vec![0, 1, 2, 3, 4]);
        assert_eq!(durs.len(), 5);
    }
}

#[cfg(test)]
mod panic_tests {
    use super::*;

    #[test]
    fn panicking_task_becomes_an_error_not_a_crash() {
        let results = run_tasks(3, 8, |i| {
            if i == 5 {
                panic!("boom in task {i}");
            }
            Ok(i)
        });
        assert_eq!(results.len(), 8);
        let err = results[5].result.as_ref().unwrap_err();
        assert_eq!(err.kind(), "compute");
        assert!(err.to_string().contains("boom in task 5"));
        // Other tasks completed normally.
        assert_eq!(*results[0].result.as_ref().unwrap(), 0);
        assert_eq!(*results[7].result.as_ref().unwrap(), 7);
    }
}
