//! Model-checked concurrency suite: run with
//! `RUSTFLAGS="--cfg loom" cargo test -p scoop-objectstore --test loom`.
//!
//! Each test wraps a scenario in `loom::model`, which executes it under
//! *every* interleaving of the participating threads' synchronization
//! operations (sequentially-consistent memory model — see the vendored
//! `loom` crate docs for the model's limits). Two subsystems are covered:
//!
//! * the circuit breaker (`health::NodeHealth`) — concurrent failure
//!   recording, probe admission across the open→half-open boundary, and
//!   the probe-success/probe-failure race;
//! * the hedged-GET race (`hedge::race`) — both replicas finishing in
//!   either order, interleaved with the hedge timer firing or not;
//! * the connection pool's idle-list protocol (`net::pool::HttpPool`) —
//!   checkout and checkin racing the idle reaper. The real `Conn` owns a
//!   `TcpStream`, which cannot exist inside the model, so [`PoolModel`]
//!   mirrors `pool.rs`'s exact lock/gauge discipline (reap-then-pop under
//!   the idle mutex, `Drop`-settled `open`/`in_flight` counters) over
//!   plain ids; the invariants checked are the pool's: a connection is
//!   never both handed out and reaped, every eviction is counted exactly
//!   once, and `open == in_flight + idle` at quiescence;
//! * the TCP front end's worker claim (`net::server::WorkerClaims`) — an
//!   accept racing a worker that returns to idle, and two back-to-back
//!   accepts with one idle worker. [`ClaimModel`] drives the real claim
//!   type beside a ground-truth count of waiting workers; the invariants
//!   checked are the front end's: at most `cap` workers start, `idle`
//!   never underflows, and every sent stream has a worker that will take
//!   it.
#![cfg(loom)]

use loom::sync::atomic::{AtomicUsize, Ordering};
use loom::sync::Arc as LoomArc;
use loom::thread;
use scoop_common::{Deadline, ScoopError};
use scoop_objectstore::health::{BreakerConfig, NodeHealth};
use scoop_objectstore::hedge::{self, Attempt};
use std::time::{Duration, Instant};

fn io_err(msg: &str) -> ScoopError {
    ScoopError::Io(std::io::Error::other(msg.to_string()))
}

/// Two threads record failures concurrently against a threshold of 2: no
/// interleaving may lose an update — the breaker must end up open, and a
/// read arriving afterwards must be short-circuited with the retryable
/// error preserved.
#[test]
fn breaker_concurrent_failures_trip_exactly() {
    loom::model(|| {
        let health = NodeHealth::new(BreakerConfig {
            failure_threshold: 2,
            open_for: Duration::from_secs(5),
        });
        let t0 = Instant::now();
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let h = health.clone();
                thread::spawn(move || h.record_failure_at(7, t0, &io_err("replica down")))
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(
            health.is_open(7, t0 + Duration::from_secs(1)),
            "two concurrent failures at threshold 2 must trip the breaker"
        );
        assert!(!health.admit_at(7, t0 + Duration::from_secs(1)));
        let err = health.last_error(7).expect("open breaker remembers its error");
        assert!(err.is_retryable(), "remembered error must stay retryable");
    });
}

/// Closed→open→half-open under concurrent probes: once the open window
/// elapses, two concurrent readers race to probe. Every interleaving must
/// admit both (half-open does not limit probes here, and flipping
/// open→half-open must not deadlock or lose the state), and a subsequent
/// success must close the breaker.
#[test]
fn breaker_open_to_half_open_concurrent_probes() {
    loom::model(|| {
        let health = NodeHealth::new(BreakerConfig {
            failure_threshold: 1,
            open_for: Duration::from_secs(5),
        });
        let t0 = Instant::now();
        health.record_failure_at(3, t0, &io_err("replica down"));
        assert!(!health.admit_at(3, t0 + Duration::from_secs(1)));
        let probe_time = t0 + Duration::from_secs(6);
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let h = health.clone();
                thread::spawn(move || h.admit_at(3, probe_time))
            })
            .collect();
        for h in handles {
            assert!(
                h.join().unwrap(),
                "an elapsed open window must admit every probe"
            );
        }
        health.record_success(3);
        assert!(health.admit_at(3, probe_time));
        assert!(health.last_error(3).is_none());
    });
}

/// Half-open probe success races a concurrent failure: whichever order the
/// model picks, the breaker must land in a *consistent* state — closed
/// with no remembered error, or open with one — never a torn mix.
#[test]
fn breaker_probe_success_failure_race_is_consistent() {
    loom::model(|| {
        let health = NodeHealth::new(BreakerConfig {
            failure_threshold: 1,
            open_for: Duration::from_secs(5),
        });
        let t0 = Instant::now();
        health.record_failure_at(9, t0, &io_err("first failure"));
        let probe_time = t0 + Duration::from_secs(6);
        assert!(health.admit_at(9, probe_time));

        let ok = {
            let h = health.clone();
            thread::spawn(move || h.record_success(9))
        };
        let bad = {
            let h = health.clone();
            thread::spawn(move || h.record_failure_at(9, probe_time, &io_err("probe failed")))
        };
        ok.join().unwrap();
        bad.join().unwrap();

        let open = health.is_open(9, probe_time + Duration::from_secs(1));
        let remembered = health.last_error(9);
        if open {
            assert!(
                remembered.is_some(),
                "an open breaker must remember the error that tripped it"
            );
        } else {
            assert!(
                remembered.is_none(),
                "a closed breaker must not carry a stale error"
            );
            assert!(health.admit_at(9, probe_time + Duration::from_secs(1)));
        }
    });
}

/// Hedged GET with two successful replicas finishing in either order:
/// every interleaving (including the hedge timer firing before or after
/// the first result) must yield exactly one winner whose payload matches
/// its index, and both attempts must still run to completion (the loser
/// trains the breaker in the background).
#[test]
fn hedged_get_single_winner_either_order() {
    loom::model(|| {
        let completions = LoomArc::new(AtomicUsize::new(0));
        let attempts: Vec<Attempt<usize>> = (0..2usize)
            .map(|idx| {
                let completions = completions.clone();
                Box::new(move || {
                    completions.fetch_add(1, Ordering::SeqCst);
                    Ok(idx)
                }) as Attempt<usize>
            })
            .collect();
        let outcome = hedge::race(
            attempts,
            Duration::from_millis(1),
            Deadline::none(),
            "o1",
            None,
        );
        let (winner, value) = outcome.result.expect("two healthy replicas must produce a winner");
        assert_eq!(value, winner, "winner payload must come from the winning attempt");
        assert!(winner < 2);
        assert!(outcome.hedges_launched <= 1, "at most one hedge for two replicas");
        assert_eq!(outcome.failovers, 0);
        // The loser may still be running when race() returns; its
        // completion is only guaranteed once the model drains all threads,
        // which loom checks implicitly (no thread may be left blocked).
        assert!(completions.load(Ordering::SeqCst) >= 1);
    });
}

/// Hedged GET where the first replica fails retryably and the second
/// succeeds: in every interleaving the success must win (never be masked
/// by the earlier failure). Replica 1 is launched either by the hedge
/// timer or by the failover path — and if the winner returns before the
/// failure is drained, the failover is legitimately never counted.
#[test]
fn hedged_get_failure_never_masks_success() {
    loom::model(|| {
        let trained = LoomArc::new(AtomicUsize::new(0));
        let mut attempts: Vec<Attempt<usize>> = Vec::new();
        let t0 = trained.clone();
        attempts.push(Box::new(move || {
            t0.fetch_add(1, Ordering::SeqCst);
            Err(io_err("replica 0 down"))
        }));
        let t1 = trained.clone();
        attempts.push(Box::new(move || {
            t1.fetch_add(1, Ordering::SeqCst);
            Ok(41usize)
        }));
        let outcome = hedge::race(
            attempts,
            Duration::from_millis(1),
            Deadline::none(),
            "o2",
            None,
        );
        let (winner, value) = outcome.result.expect("the healthy replica must win");
        assert_eq!((winner, value), (1, 41));
        assert!(outcome.failovers <= 1, "one failed replica is at most one failover");
        assert!(outcome.hedges_launched <= 1);
        assert!(
            outcome.failovers + outcome.hedges_launched >= 1,
            "replica 1 must have been launched by the hedge timer or the failover path"
        );
    });
}

/// Both replicas fail retryably: the race must terminate in every
/// interleaving (no lost wake-up between the last failure and the
/// receiver) and surface a retryable error — never a fabricated 404 and
/// never a hang.
#[test]
fn hedged_get_all_failures_surface_retryable_error() {
    loom::model(|| {
        let attempts: Vec<Attempt<usize>> = (0..2)
            .map(|idx| {
                Box::new(move || Err(io_err(&format!("replica {idx} down")))) as Attempt<usize>
            })
            .collect();
        let outcome = hedge::race(
            attempts,
            Duration::from_millis(1),
            Deadline::none(),
            "o3",
            None,
        );
        let err = outcome.result.expect_err("all replicas failed");
        assert!(err.is_retryable(), "surviving error must stay retryable: {err}");
        assert_eq!(outcome.failovers, 2);
    });
}

// ---- connection-pool idle-list protocol ---------------------------------

use loom::sync::Mutex as LoomMutex;

/// Faithful model of `HttpPool`'s idle-list protocol: `(id, stale)` pairs
/// stand in for pooled `Conn`s, and the counters follow the same settle
/// points as the real pool (`dial` increments `open`, dropping a reaped or
/// evicted connection decrements it, `checkout`/`checkin` flip
/// `in_flight`).
struct PoolModel {
    idle: LoomMutex<Vec<(u64, bool)>>,
    open: AtomicUsize,
    in_flight: AtomicUsize,
    evictions: AtomicUsize,
    dials: AtomicUsize,
}

impl PoolModel {
    fn new(idle: Vec<(u64, bool)>) -> PoolModel {
        let open = idle.len();
        PoolModel {
            idle: LoomMutex::new(idle),
            open: AtomicUsize::new(open),
            in_flight: AtomicUsize::new(0),
            evictions: AtomicUsize::new(0),
            dials: AtomicUsize::new(0),
        }
    }

    /// `HttpPool::reap_idle`: drop stale idle connections under the lock.
    fn reap_idle(&self) {
        let mut idle = self.idle.lock();
        let before = idle.len();
        idle.retain(|(_, stale)| !*stale);
        let reaped = before - idle.len();
        if reaped > 0 {
            self.evictions.fetch_add(reaped, Ordering::SeqCst);
            // Conn::drop settles the open gauge for each reaped conn.
            self.open.fetch_sub(reaped, Ordering::SeqCst);
        }
    }

    /// `HttpPool::checkout`: reap, pop the freshest idle conn, else dial.
    fn checkout(&self) -> u64 {
        self.reap_idle();
        let popped = self.idle.lock().pop();
        let id = match popped {
            Some((id, _)) => id,
            None => {
                let n = self.dials.fetch_add(1, Ordering::SeqCst);
                self.open.fetch_add(1, Ordering::SeqCst);
                100 + n as u64
            }
        };
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        id
    }

    /// `HttpPool::checkin`: pool at a clean boundary, evict on overflow.
    fn checkin(&self, id: u64, max_idle: usize) {
        {
            let mut idle = self.idle.lock();
            if idle.len() < max_idle {
                self.in_flight.fetch_sub(1, Ordering::SeqCst);
                idle.push((id, false));
                return;
            }
        }
        // Overflow: evicted; Conn::drop settles both gauges.
        self.evictions.fetch_add(1, Ordering::SeqCst);
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
        self.open.fetch_sub(1, Ordering::SeqCst);
    }

    fn idle_len(&self) -> usize {
        self.idle.lock().len()
    }
}

/// Checkout races the idle reaper over one stale and one fresh idle conn:
/// in every interleaving the stale conn is reaped exactly once and never
/// handed out, the fresh conn is reused (no dial), and the gauges agree
/// (`open == in_flight + idle`).
#[test]
fn pool_checkout_races_idle_reaper() {
    loom::model(|| {
        let pool = LoomArc::new(PoolModel::new(vec![(1, true), (2, false)]));
        let a = {
            let p = pool.clone();
            thread::spawn(move || p.checkout())
        };
        let b = {
            let p = pool.clone();
            thread::spawn(move || p.reap_idle())
        };
        let got = a.join().unwrap();
        b.join().unwrap();

        assert_eq!(got, 2, "the stale conn must never be handed out");
        assert_eq!(pool.dials.load(Ordering::SeqCst), 0, "fresh idle conn must be reused");
        assert_eq!(pool.evictions.load(Ordering::SeqCst), 1, "stale conn reaped exactly once");
        assert_eq!(pool.in_flight.load(Ordering::SeqCst), 1);
        assert_eq!(pool.idle_len(), 0);
        assert_eq!(
            pool.open.load(Ordering::SeqCst),
            pool.in_flight.load(Ordering::SeqCst) + pool.idle_len(),
            "open gauge must equal in_flight + idle at quiescence"
        );
    });
}

/// Checkin races the idle reaper: the conn being returned is fresh and
/// must never be reaped, while the stale idle conn is reaped exactly once
/// — whichever side of the checkin the reap lands on.
#[test]
fn pool_checkin_races_idle_reaper() {
    loom::model(|| {
        let pool = LoomArc::new(PoolModel::new(vec![(8, true)]));
        // Conn 7 is in flight (dialed earlier).
        pool.open.fetch_add(1, Ordering::SeqCst);
        pool.in_flight.fetch_add(1, Ordering::SeqCst);

        let a = {
            let p = pool.clone();
            thread::spawn(move || p.checkin(7, 4))
        };
        let b = {
            let p = pool.clone();
            thread::spawn(move || p.reap_idle())
        };
        a.join().unwrap();
        b.join().unwrap();

        assert_eq!(pool.evictions.load(Ordering::SeqCst), 1, "only the stale conn is evicted");
        assert_eq!(pool.in_flight.load(Ordering::SeqCst), 0, "checkin must settle in_flight");
        let idle = pool.idle.lock();
        assert_eq!(&*idle, &[(7, false)], "the returned conn must survive the reaper");
        drop(idle);
        assert_eq!(pool.open.load(Ordering::SeqCst), 1);
    });
}

/// Two concurrent checkouts against a single idle conn: exactly one
/// reuses it and the other dials — no interleaving may hand the same conn
/// to both threads or lose a dial.
#[test]
fn pool_concurrent_checkouts_never_share_a_conn() {
    loom::model(|| {
        let pool = LoomArc::new(PoolModel::new(vec![(3, false)]));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let p = pool.clone();
                thread::spawn(move || p.checkout())
            })
            .collect();
        let ids: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();

        assert_ne!(ids[0], ids[1], "one conn handed to two checkouts");
        assert!(ids.contains(&3), "the idle conn must be reused by someone");
        assert_eq!(pool.dials.load(Ordering::SeqCst), 1, "the other checkout dials");
        assert_eq!(pool.in_flight.load(Ordering::SeqCst), 2);
        assert_eq!(pool.open.load(Ordering::SeqCst), 2);
        assert_eq!(pool.idle_len(), 0);
    });
}

// ---- server worker claim --------------------------------------------------

use scoop_objectstore::net::server::{Claim, WorkerClaims};

/// The TCP front end's accept thread and returning workers over the real
/// [`WorkerClaims`], with a ground-truth count beside it: `free` is the
/// number of workers really waiting for a stream that no claim has taken.
/// A worker bumps it just before it releases (as `server.rs`'s worker loop
/// releases just before it waits); a claimed idle worker takes it down.
struct ClaimModel {
    cap: usize,
    claims: WorkerClaims,
    free: AtomicUsize,
    /// Streams sent with no worker claimed or started for them.
    queued: AtomicUsize,
}

impl ClaimModel {
    /// Front end with one worker started and busy on its first connection.
    fn with_one_busy_worker(cap: usize) -> LoomArc<ClaimModel> {
        let claims = WorkerClaims::new(cap);
        assert_eq!(claims.claim(), Claim::Start, "the first stream starts a worker");
        LoomArc::new(ClaimModel {
            cap,
            claims,
            free: AtomicUsize::new(0),
            queued: AtomicUsize::new(0),
        })
    }

    /// The busy worker's connection closed: it returns to idle.
    fn worker_returns(&self) {
        self.free.fetch_add(1, Ordering::SeqCst);
        self.claims.release();
    }

    /// The accept thread's step for one stream, checked against the truth.
    fn accept(&self) {
        match self.claims.claim() {
            Claim::Idle => {
                let free = self.free.fetch_sub(1, Ordering::SeqCst);
                assert!(free >= 1, "claimed an idle worker that is not waiting");
            }
            Claim::Start => {
                assert!(self.claims.started() <= self.cap, "started past the cap");
            }
            Claim::Queue => {
                assert_eq!(self.claims.started(), self.cap, "queued below the cap");
                self.queued.fetch_add(1, Ordering::SeqCst);
            }
        }
    }

    /// At quiescence: every queued stream has a waiting worker to take it,
    /// and `idle` never underflowed and matches the truth.
    fn settled(&self) {
        let (free, queued) =
            (self.free.load(Ordering::SeqCst), self.queued.load(Ordering::SeqCst));
        assert!(free >= queued, "{queued} queued streams for {free} waiting workers");
        let idle = self.claims.idle();
        assert!(idle <= self.claims.started(), "idle underflowed: {idle}");
        assert_eq!(idle, free, "idle count drifted from the waiting workers");
    }
}

/// A worker finishing its connection races the accept of the next one:
/// whether the accept sees the release (claims the worker) or not (starts
/// a second), the new stream has a worker.
#[test]
fn server_claim_races_a_worker_returning_to_idle() {
    loom::model(|| {
        let fe = ClaimModel::with_one_busy_worker(2);
        let worker = {
            let fe = fe.clone();
            thread::spawn(move || fe.worker_returns())
        };
        fe.accept();
        worker.join().unwrap();
        fe.settled();
    });
}

/// Two streams accepted back to back while the one started worker returns
/// to idle: the idle worker is claimed at most once, the other stream
/// starts a worker or, at the cap, queues for the worker coming free.
#[test]
fn server_back_to_back_accepts_with_one_idle_worker() {
    loom::model(|| {
        let fe = ClaimModel::with_one_busy_worker(2);
        let worker = {
            let fe = fe.clone();
            thread::spawn(move || fe.worker_returns())
        };
        fe.accept();
        fe.accept();
        worker.join().unwrap();
        fe.settled();
    });
}
