//! Liveness of the spin → yield → park receive.
//!
//! A blocked receive polls before it parks, and a send wakes only a parked
//! receiver. Neither may cost progress or a deadline:
//!
//! * eight ranks — four per core on the reference machine, eight on one
//!   when CI pins this binary with `taskset -c 0` — complete 10⁴ rounds of
//!   a ring shift and of an all-to-all: a poll that never yields would
//!   starve the very rank it waits for, a lost wake-up would park one
//!   for good; a watchdog turns either into a failure instead of a hang;
//! * `recv_timeout` still expires within its deadline plus one poll
//!   interval;
//! * a cancelled world still unwinds within a poll interval plus the
//!   polling budget.

use agcm_mps::runtime::{run, run_with_faults, run_world, WorldOptions};
use agcm_mps::{CancelToken, Error, FailureKind, Op, Payload};
use std::sync::mpsc;
use std::time::{Duration, Instant};

const ROUNDS: usize = 10_000;
const RANKS: usize = 8;

/// The receive path's liveness-check interval (`comm::POLL_INTERVAL`).
const POLL_INTERVAL: Duration = Duration::from_millis(1);

/// Run `world` on its own thread and fail if it has not finished in two
/// minutes (a healthy run takes a second or two).
fn under_watchdog<R: Send + 'static>(what: &str, world: impl FnOnce() -> R + Send + 'static) -> R {
    let (done, finished) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = done.send(world());
    });
    finished
        .recv_timeout(Duration::from_secs(120))
        .unwrap_or_else(|_| panic!("{what} hung: a rank never woke up"))
}

#[test]
fn oversubscribed_ring_completes() {
    let sums = under_watchdog("ring", || {
        run(RANKS, |c| {
            let right = (c.rank() + 1) % c.size();
            let left = (c.rank() + c.size() - 1) % c.size();
            let mut token = c.rank() as i64;
            for _ in 0..ROUNDS {
                c.send(right, 1, Payload::I64(vec![token]));
                token = c.recv_i64(left, 1)[0];
            }
            token
        })
    });
    // 10⁴ shifts of an 8-ring bring every token home.
    assert_eq!(sums, (0..RANKS as i64).collect::<Vec<_>>());
}

#[test]
fn oversubscribed_all_to_all_completes() {
    let sums = under_watchdog("all-to-all", || {
        run(RANKS, |c| {
            let mut sum = 0i64;
            for round in 0..ROUNDS as i64 {
                for peer in (0..c.size()).filter(|&p| p != c.rank()) {
                    c.send(peer, 2, Payload::I64(vec![round + c.rank() as i64]));
                }
                for peer in (0..c.size()).filter(|&p| p != c.rank()) {
                    sum += c.recv_i64(peer, 2)[0] - round;
                }
            }
            // A collective on top: the same receive path under a tree.
            c.allreduce_i64(Op::Sum, &[sum])[0]
        })
    });
    let per_rank_per_round: i64 = (0..RANKS as i64).sum();
    let expect = (RANKS as i64 - 1) * per_rank_per_round * ROUNDS as i64;
    assert!(sums.iter().all(|&s| s == expect), "{sums:?} != {expect}");
}

#[test]
fn recv_timeout_expires_within_a_poll_interval_of_its_deadline() {
    let timeout = Duration::from_millis(20);
    let out = run_with_faults(2, None, |c| {
        if c.rank() == 0 {
            // Best of five: one late wake-up on a busy machine is the
            // scheduler's, five in a row would be ours.
            let late = (0..5)
                .map(|_| {
                    let started = Instant::now();
                    let got = c.recv_timeout(1, 9, timeout);
                    let took = started.elapsed();
                    assert_eq!(got.err(), Some(Error::Timeout));
                    assert!(took >= timeout, "expired early: {took:?}");
                    took - timeout
                })
                .min()
                .expect("five tries");
            c.send(1, 1, Payload::Empty);
            late
        } else {
            // Alive (blocked on its own receive) past every deadline.
            c.recv(0, 1);
            Duration::ZERO
        }
    });
    let late = *out.results[0].as_ref().expect("rank 0 completed");
    assert!(
        late <= POLL_INTERVAL,
        "Timeout came {late:?} after the deadline"
    );
}

#[test]
fn a_cancelled_receive_unwinds_within_a_poll_interval() {
    // Rank 0 blocks on a receive nobody satisfies; rank 1 cancels and
    // reports when. Rank 0 must be out one poll interval (plus the
    // polling budget, tens of µs) later; allow a scheduler quantum on top.
    let token = CancelToken::new();
    let controller = token.clone();
    let opts = WorldOptions {
        plan: None,
        cancel: Some(token),
        spans: None,
    };
    let (cancelled_at, reported) = mpsc::channel();
    let started = Instant::now();
    let out = under_watchdog("cancelled world", move || {
        let cancelled_at = std::sync::Mutex::new(cancelled_at);
        run_world(2, opts, |c| {
            if c.rank() == 0 {
                c.recv(1, 99);
            } else {
                std::thread::sleep(Duration::from_millis(5));
                controller.cancel();
                let _ = cancelled_at
                    .lock()
                    .expect("only rank 1 sends")
                    .send(Instant::now());
                c.begin_step(0);
            }
        })
    });
    let unwound = started.elapsed();
    assert_eq!(out.results[0], Err(FailureKind::Cancelled));
    let cancelled = reported.recv().expect("rank 1 cancelled") - started;
    let took = unwound - cancelled;
    assert!(
        took <= POLL_INTERVAL + Duration::from_millis(10),
        "the world took {took:?} to unwind after the cancel"
    );
}
