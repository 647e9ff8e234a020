//! Regression test for `runtime::silence_controlled_unwinds`.
//!
//! The silencer is a process-global panic hook that must swallow the
//! runtime's controlled unwind payloads (planned kills, comm aborts,
//! cancellation) but forward every *genuine* panic to whatever hook was
//! installed before it. That forwarding was previously untested: a bug
//! that dropped genuine panics would silently eat assertion failures from
//! every fault-aware run in the process.
//!
//! The whole scenario lives in ONE `#[test]` in its own integration-test
//! binary: the silencer captures the previous hook once (`Once`), so the
//! recording hook must be installed first, and no other test in this
//! process may race the installation order.

use agcm_mps::runtime::{run_world, silence_controlled_unwinds, WorldOptions};
use agcm_mps::{CancelToken, FailureKind, FaultPlan};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

#[test]
fn genuine_panics_reach_previous_hook_controlled_unwinds_do_not() {
    // 1. Install a recording hook, then the silencer on top of it.
    let seen: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let recorder = Arc::clone(&seen);
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| info.payload().downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "<non-string payload>".to_string());
        recorder.lock().unwrap().push(msg);
    }));
    silence_controlled_unwinds();

    // 2. A planned kill and the abort it cascades to are controlled
    //    unwinds: the previous hook must stay silent.
    let plan = FaultPlan::seeded(0).with_kill(1, 0);
    let planned = WorldOptions {
        plan: Some(plan),
        ..WorldOptions::default()
    };
    let out = run_world(2, planned, |c| {
        if c.rank() == 1 {
            c.begin_step(0);
        }
        if c.rank() == 0 {
            c.recv(1, 7);
        }
    });
    assert!(!out.all_ok());
    assert!(
        seen.lock().unwrap().is_empty(),
        "kill/abort unwinds must not reach the previous hook: {:?}",
        seen.lock().unwrap()
    );

    // 3. Cancellation is also a controlled unwind.
    let token = CancelToken::new();
    token.cancel();
    let out = run_world(
        2,
        WorldOptions {
            plan: None,
            cancel: Some(token),
            spans: None,
        },
        |c| c.begin_step(0),
    );
    assert_eq!(out.results[0], Err(FailureKind::Cancelled));
    assert!(
        seen.lock().unwrap().is_empty(),
        "cancellation unwinds must not reach the previous hook: {:?}",
        seen.lock().unwrap()
    );

    // 4. A genuine panic in a rank body (a model bug) must BOTH reach the
    //    previous hook at throw time and propagate out of the launcher.
    let propagated = catch_unwind(AssertUnwindSafe(|| {
        run_world(2, WorldOptions::default(), |c| {
            if c.rank() == 0 {
                panic!("genuine model bug");
            }
        });
    }));
    assert!(propagated.is_err(), "genuine panic must propagate");
    let recorded = seen.lock().unwrap();
    assert_eq!(
        recorded.as_slice(),
        &["genuine model bug".to_string()],
        "genuine panic must reach the previous hook exactly once"
    );
}
