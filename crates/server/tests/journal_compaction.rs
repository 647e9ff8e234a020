//! The journal compacts while the server serves, and a compaction never
//! loses or duplicates a line appended beside it.
//!
//! - **Uptime fence.** One server serves 2,000 tiny jobs without a
//!   restart. The journal's compaction rule fires once the dead bytes
//!   pass both the live ones and `COMPACTION_FLOOR`, so with two jobs in
//!   flight the log holds at most the floor of dead history, one job's
//!   lines that tipped it over, the live lines and whatever the clients
//!   append before the journal thread takes the lock: `2 ×
//!   COMPACTION_FLOOR` (128 KiB) bounds it with a floor's worth of slack
//!   for that last part, about 160 jobs' lines where a compaction takes a
//!   few. A restart replays the file as it is, so it replays at most that
//!   many bytes, and since no journal line is shorter than a `watermark`
//!   line for a one-digit id (47 bytes), at most `BOUND / 47` lines.
//!   Before the server compacted, the log grew by about 0.4 KB a job
//!   (800 KB and 6,000 lines here) until the next restart.
//! - **Concurrency.** Threads append `submitted`, `dispatched` and
//!   terminal lines while another calls `compact` in a loop. The replay
//!   afterwards is the fold of every event appended.

use agcm_ckptstore::durable::COMPACTION_FLOOR;
use agcm_ensemble::{EnsembleConfig, JobObserver, JobRecord, JobStatus, Priority};
use agcm_server::client::{get, post_job};
use agcm_server::{AgcmServer, Journal, ServerConfig};
use agcm_telemetry::json::Value;
use std::collections::{BTreeMap, HashSet};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const JOBS: usize = 2_000;
const CLIENTS: usize = 2;
/// The most bytes the log may hold while the server is up.
const BOUND: u64 = 2 * COMPACTION_FLOOR;
/// The shortest line the journal writes: `<16 hex> {"event":"watermark","job":1}\n`.
const SHORTEST_LINE: u64 = 47;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("agcm-compaction-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(dir: &Path) -> ServerConfig {
    ServerConfig {
        journal_dir: dir.to_path_buf(),
        ensemble: EnsembleConfig {
            rank_budget: CLIENTS,
            ..EnsembleConfig::default()
        },
        ..ServerConfig::default()
    }
}

/// Submit a one-step job and poll its result until it completes.
fn run_job(addr: SocketAddr, name: &str) {
    let body = format!(
        "{{\"name\":\"{name}\",\"grid\":{{\"lon\":24,\"lat\":12,\"lev\":2}},\
         \"mesh\":{{\"lat\":1,\"lon\":1}},\"steps\":1}}"
    );
    let ack = post_job(addr, None, &body).unwrap();
    assert_eq!(ack.status, 202, "{}", ack.body);
    let id = ack.json().get("id").and_then(Value::as_f64).unwrap();
    let path = format!("/v1/jobs/{id}/result");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let resp = get(addr, &path).unwrap();
        if resp.status == 200 {
            let state = resp
                .json()
                .get("state")
                .and_then(Value::as_str)
                .map(str::to_string);
            assert_eq!(state.as_deref(), Some("completed"), "{}", resp.body);
            return;
        }
        assert_eq!(resp.status, 409, "{}", resp.body);
        assert!(Instant::now() < deadline, "job {id} never finished");
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn journal_gauge(addr: SocketAddr, name: &str) -> f64 {
    let health = get(addr, "/healthz").unwrap().json();
    let journal = health.get("journal").unwrap();
    journal.get(name).and_then(Value::as_f64).unwrap()
}

#[test]
fn a_server_that_stays_up_keeps_its_journal_bounded() {
    let dir = temp_dir("uptime");
    let server = AgcmServer::start(config(&dir)).unwrap();
    let addr = server.local_addr();
    let log = dir.join("jobs.log");
    let largest = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let log = &log;
                s.spawn(move || {
                    let mut largest = 0;
                    for j in 0..JOBS / CLIENTS {
                        run_job(addr, &format!("up-{c}-{j}"));
                        let size = std::fs::metadata(log).unwrap().len();
                        assert!(size <= BOUND, "after {j} jobs the log holds {size} bytes");
                        largest = largest.max(size);
                    }
                    largest
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().unwrap())
            .max()
            .unwrap()
    });
    let compactions = journal_gauge(addr, "compactions");
    let dead = journal_gauge(addr, "dead_bytes");
    let live = journal_gauge(addr, "live_jobs");
    println!(
        "{JOBS} jobs: log peaked at {largest} bytes (bound {BOUND}), \
         {compactions} compactions, {dead} dead bytes and {live} live jobs at the end"
    );
    assert!(compactions >= 1.0, "the server never compacted");
    assert_eq!(live, 0.0);
    let prom = get(addr, "/metrics").unwrap().body;
    for gauge in [
        "journal_compactions ",
        "journal_dead_bytes ",
        "journal_live_jobs 0",
    ] {
        assert!(
            prom.lines().any(|l| l.starts_with(gauge)),
            "{gauge}: {prom}"
        );
    }
    server.shutdown();

    let size = std::fs::metadata(&log).unwrap().len();
    let server = AgcmServer::start(config(&dir)).unwrap();
    let replayed = server.recovery().journal_lines as u64;
    println!("restart replayed {replayed} lines of a {size}-byte log");
    assert!(size <= BOUND, "{size} bytes at shutdown");
    assert!(
        replayed <= BOUND / SHORTEST_LINE,
        "restart replayed {replayed} lines (bound {})",
        BOUND / SHORTEST_LINE
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// What the events appended to one job leave for replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fate {
    dispatched: bool,
    terminal: bool,
}

fn terminal(tag: u64) -> JobRecord {
    JobRecord {
        id: tag,
        name: "c".into(),
        tenant: None,
        tag: Some(tag),
        ranks: 1,
        priority: Priority::Normal,
        status: JobStatus::Completed,
        attempts: 1,
        queue_seconds: 0.0,
        run_seconds: 0.0,
        lineage: None,
        resumed_from: None,
        outcome: None,
        summary: None,
    }
}

#[test]
fn appends_beside_a_compaction_loop_are_neither_lost_nor_duplicated() {
    const THREADS: u64 = 3;
    const PER_THREAD: u64 = 1_500;
    const SWAP_EVERY: u64 = 50;
    let dir = temp_dir("concurrent");
    let spec = Value::parse(r#"{"name":"c","steps":1}"#).unwrap();
    let (journal, _, _) = Journal::open(&dir).unwrap();
    let done = AtomicBool::new(false);
    let (fates, compactions) = std::thread::scope(|s| {
        let compactor = s.spawn(|| {
            let mut n = 0;
            while !done.load(Ordering::Relaxed) {
                journal.compact().unwrap();
                n += 1;
            }
            n
        });
        let appenders: Vec<_> = (0..THREADS)
            .map(|t| {
                let (journal, spec) = (&journal, &spec);
                s.spawn(move || {
                    let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ t;
                    let mut next = |n: u64| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        x % n
                    };
                    // Each thread owns the ids `t + 1 + k·THREADS` and
                    // keeps a few of its jobs open at a time, so events
                    // of different jobs interleave in the log.
                    let mut open: Vec<u64> = Vec::new();
                    let mut fates = BTreeMap::new();
                    for k in 0..PER_THREAD {
                        // Every so often, wait out a compaction, so that
                        // swaps land between this thread's events however
                        // fast it runs.
                        if k % SWAP_EVERY == 0 {
                            let before = journal.stats().compactions;
                            while journal.stats().compactions == before {
                                std::thread::yield_now();
                            }
                        }
                        let id = t + 1 + k * THREADS;
                        journal.submitted(id, None, None, spec);
                        fates.insert(
                            id,
                            Fate {
                                dispatched: false,
                                terminal: false,
                            },
                        );
                        open.push(id);
                        while open.len() > 4 || (!open.is_empty() && next(3) == 0) {
                            let id = open.swap_remove(next(open.len() as u64) as usize);
                            let fate = fates.get_mut(&id).unwrap();
                            if next(2) == 0 {
                                journal.on_dispatch(id, Some(id));
                                fate.dispatched = true;
                            }
                            match next(3) {
                                0 => {}
                                1 => {
                                    journal.on_terminal(&terminal(id));
                                    fate.terminal = true;
                                }
                                _ => {
                                    journal.rejected(id, "full");
                                    fate.terminal = true;
                                }
                            }
                        }
                    }
                    fates
                })
            })
            .collect();
        let mut fates = BTreeMap::new();
        for a in appenders {
            fates.extend(a.join().unwrap());
        }
        done.store(true, Ordering::Relaxed);
        (fates, compactor.join().unwrap())
    });
    assert!(compactions >= PER_THREAD / SWAP_EVERY);
    let stats = journal.stats();
    drop(journal);

    // No line is written twice: each (event, job) pair appears once.
    let text = std::fs::read_to_string(dir.join("jobs.log")).unwrap();
    let mut seen = HashSet::new();
    for line in text.lines() {
        let json = agcm_ckptstore::unframe_line(line).expect("every line intact");
        let value = Value::parse(json).unwrap();
        let event = value
            .get("event")
            .and_then(Value::as_str)
            .unwrap()
            .to_string();
        let job = value.get("job").and_then(Value::as_f64).unwrap() as u64;
        assert!(seen.insert((event, job)), "line written twice: {line}");
    }

    let (_, live, replay) = Journal::open(&dir).unwrap();
    let want: Vec<(u64, bool)> = fates
        .iter()
        .filter(|(_, fate)| !fate.terminal)
        .map(|(&id, fate)| (id, fate.dispatched))
        .collect();
    let mut got: Vec<(u64, bool)> = live.iter().map(|j| (j.id, j.dispatched)).collect();
    // Each thread's jobs replay in the order it submitted them.
    for t in 0..THREADS {
        let ids: Vec<u64> = got
            .iter()
            .map(|j| j.0)
            .filter(|id| (id - 1) % THREADS == t)
            .collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "thread {t}: {ids:?}");
    }
    got.sort_unstable();
    println!(
        "{} events from {THREADS} threads beside {compactions} compactions: \
         {} live jobs, {} replayed lines",
        stats.appended_lines,
        got.len(),
        replay.lines
    );
    assert_eq!(replay.corrupt, 0);
    assert_eq!(got, want, "replay differs from the fold of the events");
    assert_eq!(replay.max_id, THREADS * PER_THREAD);
    assert_eq!(stats.live_jobs, want.len());
    let _ = std::fs::remove_dir_all(&dir);
}
