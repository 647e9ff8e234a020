//! The runner threads every ensemble in the process shares.
//!
//! A dispatched job runs on a parked runner if one is idle, and on a new
//! runner only when every runner is busy. A runner never exits: like the
//! field storage recycled in `agcm_grid`, it outlives the ensemble that
//! first needed it, so a server that serves one job after another
//! creates no runner thread per job. The runners are few because a job hands its
//! runner back ([`Runner::park`]) before its ranks return to its
//! ensemble's budget: a process never holds more runners than the most
//! jobs its ensembles ran at once.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Mutex, PoisonError};

/// A job body, given the runner it runs on.
pub(crate) type Task = Box<dyn FnOnce(Runner) + Send>;

/// Idle runners, each waiting on its own channel. The one that parked
/// last takes the next task: it is the warmest.
static IDLE: Mutex<Vec<Sender<Task>>> = Mutex::new(Vec::new());

/// Run `task` on an idle runner, or on a new one if none is idle.
pub(crate) fn execute(task: Task) {
    // A push or pop cannot leave the list half-updated, so a poisoned lock
    // still guards a valid list.
    let idle = IDLE.lock().unwrap_or_else(PoisonError::into_inner).pop();
    if let Some(runner) = idle {
        runner.send(task).expect("a parked runner never exits");
        return;
    }
    let (tx, rx) = channel::<Task>();
    std::thread::Builder::new()
        .name("ensemble-runner".into())
        .spawn(move || {
            let mut task = task;
            loop {
                // A task's panic is its own; the runner parks again either
                // way (dropping the `Runner` parks it).
                let _ = catch_unwind(AssertUnwindSafe(|| task(Runner(tx.clone()))));
                task = rx.recv().expect("the runner holds a sender of its own");
            }
        })
        .expect("spawn ensemble runner");
}

/// The runner a task runs on. Dropping it parks the runner, putting it
/// back among the idle: a task handed to it meanwhile starts once the
/// current one returns.
pub(crate) struct Runner(Sender<Task>);

impl Runner {
    /// Park now, ahead of whatever the task still has to do.
    pub(crate) fn park(self) {
        drop(self);
    }
}

impl Drop for Runner {
    fn drop(&mut self) {
        let tx = self.0.clone();
        IDLE.lock().unwrap_or_else(PoisonError::into_inner).push(tx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_task_that_panics_leaves_its_runner_to_the_next() {
        // No other test in this binary uses the pool, so the runner that
        // parked last is the one that panicked.
        let (tx, rx) = channel();
        let first = tx.clone();
        execute(Box::new(move |runner| {
            runner.park();
            first.send(std::thread::current().id()).unwrap();
            panic!("a task that panics outside any catch_unwind");
        }));
        let panicked_on = rx.recv().unwrap();
        execute(Box::new(move |_| {
            tx.send(std::thread::current().id()).unwrap()
        }));
        assert_eq!(rx.recv().unwrap(), panicked_on);
    }
}
