//! The runner pool seen from outside: served jobs leave no thread stack
//! behind, sequential jobs reuse the same few runners, and a job run again
//! on a runner that has served others gives the same bits.
//!
//! The pool is process-wide and this binary is its only user, so each test
//! holds `ONE_AT_A_TIME`: the runners a test sees are then only the ones
//! its own jobs needed (or an earlier test's, parked).

use agcm_core::{run_model, AgcmConfig};
use agcm_ensemble::{Ensemble, EnsembleConfig, JobId, JobObserver, JobRecord, JobSpec, JobStatus};
use agcm_filtering::driver::FilterVariant;
use agcm_grid::latlon::GridSpec;
use agcm_mps::SpanObserver;
use agcm_telemetry::{RunSummary, TelemetrySink, Timeline};
use std::collections::HashSet;
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::ThreadId;

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// The `serve_small` grid, 24×12×2, on one rank.
fn tiny(name: &str, steps: usize) -> JobSpec {
    JobSpec::new(
        name,
        AgcmConfig::for_grid(GridSpec::new(24, 12, 2), 1, 1, FilterVariant::LbFft)
            .with_steps(steps),
    )
}

/// Sends each terminal job's id, so a test can run jobs one after another.
struct Terminals(mpsc::Sender<JobId>);

impl JobObserver for Terminals {
    fn on_terminal(&self, record: &JobRecord) {
        let _ = self.0.send(record.id);
    }
}

/// One ensemble, one job at a time: each call submits `spec` and returns
/// once its terminal record is committed.
struct Sequential {
    ensemble: Ensemble,
    done: mpsc::Receiver<JobId>,
}

impl Sequential {
    fn start(rank_budget: usize) -> Sequential {
        let (tx, done) = mpsc::channel();
        let ensemble = Ensemble::start_with_observer(
            EnsembleConfig {
                rank_budget,
                ..EnsembleConfig::default()
            },
            Arc::new(Terminals(tx)),
        );
        Sequential { ensemble, done }
    }

    fn run(&self, spec: JobSpec) -> JobId {
        let id = self.ensemble.submit(spec).expect("job admitted");
        assert_eq!(self.done.recv().expect("job ends"), id);
        id
    }
}

/// Records the thread each rank's live phases were timed on.
#[derive(Default)]
struct Threads(Mutex<HashSet<(usize, ThreadId)>>);

impl SpanObserver for Threads {
    fn phase_ended(&self, rank: usize, _: &'static str, _: f64) {
        let me = std::thread::current().id();
        self.0.lock().unwrap().insert((rank, me));
    }
}

impl TelemetrySink for Threads {
    fn record_finished(&self, _: &RunSummary, _: &Timeline, _: bool) {}
}

impl Threads {
    fn of_rank(&self, rank: usize) -> HashSet<ThreadId> {
        let seen = self.0.lock().unwrap();
        seen.iter()
            .filter(|(r, _)| *r == rank)
            .map(|(_, t)| *t)
            .collect()
    }
}

#[cfg(target_os = "linux")]
#[test]
fn sequential_jobs_leave_no_thread_stack_behind() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    let mappings = || {
        std::fs::read_to_string("/proc/self/maps")
            .expect("read /proc/self/maps")
            .lines()
            .count()
    };
    let jobs = Sequential::start(1);
    // Warm-up: a runner, field storage and allocator arenas exist after it.
    jobs.run(tiny("warm", 1));
    let before = mappings();
    for i in 0..2_000 {
        jobs.run(tiny(&format!("tiny-{i}"), 1));
    }
    let after = mappings();
    eprintln!("mappings: {before} after a warm-up job, {after} after 2,000 more");
    let records = jobs.ensemble.join();
    assert_eq!(records.len(), 2_001);
    assert!(records.iter().all(|r| r.status == JobStatus::Completed));
    // A thread kept per job costs two mappings (stack and guard page).
    assert!(
        after < before + 50,
        "2,000 jobs took the process from {before} to {after} mappings"
    );
}

#[test]
fn fifty_one_rank_jobs_run_on_at_most_budget_threads() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    let budget = 2;
    let ensemble = Ensemble::start(EnsembleConfig {
        rank_budget: budget,
        ..EnsembleConfig::default()
    });
    let threads = Arc::new(Threads::default());
    for i in 0..50 {
        let sink = Arc::clone(&threads) as Arc<dyn TelemetrySink>;
        ensemble
            .submit(tiny(&format!("tiny-{i}"), 4).with_sink(sink))
            .expect("job admitted");
    }
    let records = ensemble.join();
    assert!(records.iter().all(|r| r.status == JobStatus::Completed));
    let seen = threads.of_rank(0);
    assert!(
        !seen.is_empty() && seen.len() <= budget,
        "50 one-rank jobs on a budget of {budget} ran on {} threads",
        seen.len()
    );
}

#[test]
fn a_balanced_job_gives_the_same_bits_on_a_runner_that_served_others() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    // Balanced physics keeps per-thread state (forcing tables, column
    // buffers) from one pass to the next; on a pooled runner that state
    // also outlives the job, and a job of another grid replaces it.
    let balanced = |grid: GridSpec| {
        AgcmConfig::for_grid(grid, 1, 2, FilterVariant::LbFft)
            .with_physics_balancing()
            .with_steps(4)
    };
    let a = balanced(GridSpec::new(24, 12, 2));
    let b = balanced(GridSpec::new(32, 16, 3));
    let jobs = Sequential::start(2);
    let threads = Arc::new(Threads::default());
    let run = |name: &str, config: AgcmConfig| {
        let sink = Arc::clone(&threads) as Arc<dyn TelemetrySink>;
        jobs.run(JobSpec::new(name, config).with_sink(sink))
    };
    let ids = [run("a", a), run("b", b), run("a", a), run("a", a)];
    let records = jobs.ensemble.join();
    assert_eq!(records.iter().map(|r| r.id).collect::<Vec<_>>(), ids);
    assert_eq!(
        threads.of_rank(0).len(),
        1,
        "every rank 0 ran on the one runner"
    );
    let (solo_a, solo_b) = (run_model(a).ranks, run_model(b).ranks);
    for (record, solo) in records.iter().zip([&solo_a, &solo_b, &solo_a, &solo_a]) {
        assert_eq!(record.status, JobStatus::Completed, "job {}", record.id);
        assert_eq!(record.outcome.as_ref().unwrap(), solo, "job {}", record.id);
    }
}
