//! Retry with exponential backoff and deterministic jitter.
//!
//! Every layer of the ingest path retries transient failures the same way:
//! the Swift client re-dispatches whole requests, the connector resumes
//! interrupted streams with ranged GETs, and the compute scheduler re-runs
//! failed tasks. All of them share this policy so the fault-injection suite
//! can reason about one retry budget end to end.
//!
//! Jitter is drawn from a [`XorShift64`] seeded per policy, so a chaos run
//! with a fixed master seed replays byte-identically.

use crate::deadline::Deadline;
use crate::error::{Result, ScoopError};
use crate::rng::XorShift64;
use std::time::Duration;

/// How to retry a retryable operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts including the first (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub base_delay: Duration,
    /// Upper bound on any single backoff delay.
    pub max_delay: Duration,
    /// Seed for the jitter stream (derive with [`crate::rng::derive_seed`]).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(50),
            seed: 0x5C00_95EE_D000_0001,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (attempt once, propagate the error).
    pub fn none() -> Self {
        RetryPolicy { max_attempts: 1, ..Default::default() }
    }

    /// Builder: set the attempt budget (clamped to at least 1).
    pub fn with_max_attempts(mut self, attempts: u32) -> Self {
        self.max_attempts = attempts.max(1);
        self
    }

    /// Builder: set the backoff before the first retry.
    pub fn with_base_delay(mut self, delay: Duration) -> Self {
        self.base_delay = delay;
        self
    }

    /// Builder: set the cap on any single backoff sleep.
    pub fn with_max_delay(mut self, delay: Duration) -> Self {
        self.max_delay = delay;
        self
    }

    /// Backoff before retry number `retry` (0-based): exponential growth
    /// capped at `max_delay`, scaled by a jitter factor in `[0.5, 1.0)` so
    /// concurrent retriers spread out instead of thundering together.
    ///
    /// Computed in 128-bit nanoseconds: `base << retry` overflows a u32
    /// multiplier at retry 32 and u64 nanos soon after, and a wrapped or
    /// saturated intermediate must never escape the `max_delay` cap.
    pub fn backoff(&self, retry: u32, rng: &mut XorShift64) -> Duration {
        let base = self.base_delay.as_nanos().max(1);
        let cap = self.max_delay.as_nanos();
        let exp = if retry >= 64 {
            cap
        } else {
            base.saturating_mul(1u128 << retry).min(cap)
        };
        let capped = Duration::from_nanos(u64::try_from(exp).unwrap_or(u64::MAX));
        capped.mul_f64(0.5 + rng.next_f64() / 2.0)
    }

    /// Run `op` until it succeeds, fails non-retryably, or the attempt budget
    /// is exhausted. Returns the value plus the number of retries performed
    /// (0 when the first attempt succeeded).
    pub fn run<T>(&self, op: impl FnMut() -> Result<T>) -> Result<(T, u32)> {
        self.run_with_deadline(Deadline::none(), "retry", op)
    }

    /// Like [`RetryPolicy::run`] but bounded by `deadline`: fails with a
    /// `deadline` error before the first attempt if the budget is already
    /// gone, stops retrying (surfacing the last real error) once it expires
    /// mid-loop, and clamps every backoff sleep to the remaining budget.
    pub fn run_with_deadline<T>(
        &self,
        deadline: Deadline,
        label: &str,
        mut op: impl FnMut() -> Result<T>,
    ) -> Result<(T, u32)> {
        deadline.check(label)?;
        let mut rng = XorShift64::new(self.seed);
        let mut retries = 0u32;
        loop {
            match op() {
                Ok(v) => return Ok((v, retries)),
                Err(e)
                    if e.is_retryable()
                        && retries + 1 < self.max_attempts
                        && !deadline.expired() =>
                {
                    std::thread::sleep(deadline.clamp_sleep(self.backoff(retries, &mut rng)));
                    retries += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// Like [`RetryPolicy::run`] but discards the retry count and wraps the final
/// failure with a context label.
pub fn retry<T>(
    policy: &RetryPolicy,
    label: &str,
    op: impl FnMut() -> Result<T>,
) -> Result<T> {
    policy.run(op).map(|(v, _)| v).map_err(|e| match e {
        ScoopError::Io(io) => {
            ScoopError::Io(std::io::Error::other(format!("{label}: {io}")))
        }
        other => other,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn flaky(fail_first: u32) -> impl FnMut() -> Result<u32> {
        let calls = AtomicU32::new(0);
        move || {
            let n = calls.fetch_add(1, Ordering::Relaxed);
            if n < fail_first {
                Err(ScoopError::Io(std::io::Error::other("transient")))
            } else {
                Ok(n)
            }
        }
    }

    #[test]
    fn succeeds_after_transient_failures() {
        let policy = RetryPolicy::default();
        let (v, retries) = policy.run(flaky(3)).unwrap();
        assert_eq!(v, 3);
        assert_eq!(retries, 3);
    }

    #[test]
    fn exhausts_attempt_budget() {
        let policy = RetryPolicy::default().with_max_attempts(2);
        assert!(policy.run(flaky(5)).is_err());
        let (_, retries) = policy.run(flaky(1)).unwrap();
        assert_eq!(retries, 1);
    }

    #[test]
    fn non_retryable_errors_fail_fast() {
        let policy = RetryPolicy::default();
        let mut calls = 0;
        let err = policy
            .run(|| -> Result<()> {
                calls += 1;
                Err(ScoopError::NotFound("gone".into()))
            })
            .unwrap_err();
        assert_eq!(err.kind(), "not_found");
        assert_eq!(calls, 1);
    }

    #[test]
    fn none_policy_attempts_once() {
        assert!(RetryPolicy::none().run(flaky(1)).is_err());
    }

    #[test]
    fn backoff_grows_and_caps() {
        let policy = RetryPolicy {
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(35),
            ..Default::default()
        };
        let mut rng = XorShift64::new(1);
        let d0 = policy.backoff(0, &mut rng);
        assert!(d0 >= Duration::from_millis(5) && d0 < Duration::from_millis(10));
        let d4 = policy.backoff(4, &mut rng);
        assert!(d4 <= Duration::from_millis(35));
        // Huge retry numbers must not overflow the shift.
        let _ = policy.backoff(63, &mut rng);
    }

    #[test]
    fn backoff_is_overflow_safe_and_capped_at_high_attempts() {
        // Regression: a u32-multiplier shift wraps at retry 32 and u64
        // nanos overflow shortly after; every high attempt count must stay
        // inside the configured cap (jitter keeps it in [cap/2, cap)).
        let policy = RetryPolicy::default()
            .with_base_delay(Duration::from_millis(3))
            .with_max_delay(Duration::from_millis(40));
        let mut rng = XorShift64::new(7);
        for retry in [32u32, 33, 63, 64, 65, 127, 128, u32::MAX] {
            let d = policy.backoff(retry, &mut rng);
            assert!(d <= Duration::from_millis(40), "retry {retry} escaped cap: {d:?}");
            assert!(d >= Duration::from_millis(20), "retry {retry} lost the backoff: {d:?}");
        }
        // A sub-nanosecond-free zero base still respects the cap.
        let zero = RetryPolicy::default()
            .with_base_delay(Duration::ZERO)
            .with_max_delay(Duration::from_millis(1));
        assert!(zero.backoff(40, &mut rng) <= Duration::from_millis(1));
    }

    #[test]
    fn expired_deadline_fails_before_first_attempt() {
        let policy = RetryPolicy::default();
        let deadline = Deadline::at(std::time::Instant::now() - Duration::from_millis(1));
        let mut calls = 0;
        let err = policy
            .run_with_deadline(deadline, "GET /c/o", || -> Result<()> {
                calls += 1;
                Ok(())
            })
            .unwrap_err();
        assert_eq!(err.kind(), "deadline");
        assert_eq!(calls, 0, "no attempt may start after the budget is gone");
    }

    #[test]
    fn deadline_expiry_mid_loop_surfaces_the_real_error() {
        // Tiny budget: the first attempt runs, the deadline lapses, and the
        // loop returns the underlying I/O error instead of retrying on.
        let policy = RetryPolicy::default().with_max_attempts(50);
        let deadline = Deadline::within(Duration::from_millis(2));
        let err = policy
            .run_with_deadline(deadline, "GET /c/o", || -> Result<()> {
                std::thread::sleep(Duration::from_millis(3));
                Err(ScoopError::Io(std::io::Error::other("slow replica")))
            })
            .unwrap_err();
        assert_eq!(err.kind(), "io", "mid-loop expiry keeps the causal error");
    }

    #[test]
    fn retry_helper_labels_io_errors() {
        let policy = RetryPolicy::none();
        let err = retry(&policy, "GET /c/o", || -> Result<()> {
            Err(ScoopError::Io(std::io::Error::other("stalled")))
        })
        .unwrap_err();
        assert!(err.to_string().contains("GET /c/o"), "{err}");
    }
}
