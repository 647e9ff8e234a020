//! The server journal's bytes on disk, pinned. `tests/fixtures/journal/`
//! holds a `jobs.log` written by the commit before the journal's framing
//! moved to the shared checksummed-line codec (`frame_line` /
//! `unframe_line`) and its compaction to `write_atomic`, plus that
//! commit's compacted rewrite of it (`jobs.compacted.log`). Both were
//! produced by [`write_scenario`]'s event sequence. Never regenerate them
//! from the current tree.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use agcm_ensemble::{CancelReason, JobObserver, JobRecord, JobStatus, Priority};
use agcm_server::{Journal, LiveJob, ReplayStats};
use ucla_agcm_repro::telemetry::json::Value;

const TRACE_1: &str = "0000000000000000000000000000a11c-0000000000000001-0000000000000000";
const TRACE_5: &str = "00000000000000000000000000000e0e-0000000000000005-0000000000000000";
const SPEC_1: &str = r#"{"name":"sweep \"a\" α\n","grid":{"lon":48,"lat":24,"lev":3},"mesh":{"lat":1,"lon":2},"steps":4,"deadline_ms":2500.5,"priority":"high"}"#;
const SPEC_2: &str =
    r#"{"name":"b","grid":{"lon":24,"lat":12,"lev":2},"mesh":{"lat":1,"lon":1},"steps":1}"#;
const SPEC_3: &str = r#"{"name":"c","grid":{"lon":24,"lat":12,"lev":2},"mesh":{"lat":1,"lon":1},"steps":3,"max_restarts":2}"#;
const SPEC_4: &str =
    r#"{"name":"d","grid":{"lon":24,"lat":12,"lev":2},"mesh":{"lat":1,"lon":1},"steps":2}"#;
const SPEC_5: &str = r#"{"name":"e","grid":{"lon":24,"lat":12,"lev":2},"mesh":{"lat":2,"lon":1},"steps":5,"priority":"low"}"#;

fn scratch(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "agcm-journal-format-{tag}-{}-{n}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn fixture(name: &str) -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/journal")
        .join(name);
    fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn spec(text: &str) -> Value {
    Value::parse(text).unwrap()
}

fn terminal(tag: u64, status: JobStatus) -> JobRecord {
    JobRecord {
        id: 100 + tag,
        name: "j".into(),
        tenant: None,
        tag: Some(tag),
        ranks: 1,
        priority: Priority::Normal,
        status,
        attempts: 1,
        queue_seconds: 0.0,
        run_seconds: 0.0,
        lineage: None,
        resumed_from: None,
        outcome: None,
        summary: None,
    }
}

/// The events behind the fixture: three submissions, a reopen and a
/// compaction (so the log starts with its watermark; the commit that
/// wrote the fixture compacted at every reopen), then dispatches, a completed
/// and a cancelled terminal, a rejected submission, and an untagged
/// dispatch that is not journaled. Returns the log as it stood before
/// the final reopen.
fn write_scenario(dir: &Path) -> Vec<u8> {
    {
        let (j, _, _) = Journal::open(dir).unwrap();
        j.submitted(1, Some("alice"), Some(TRACE_1), &spec(SPEC_1));
        j.submitted(2, None, None, &spec(SPEC_2));
        j.submitted(3, Some("bob"), None, &spec(SPEC_3));
    }
    let (j, _, _) = Journal::open(dir).unwrap();
    j.compact().unwrap();
    j.on_dispatch(101, Some(1));
    j.on_dispatch(102, Some(2));
    j.on_terminal(&terminal(2, JobStatus::Completed));
    j.submitted(4, Some("carol"), None, &spec(SPEC_4));
    j.rejected(4, "tenant 'carol' is over its quota");
    j.submitted(5, None, Some(TRACE_5), &spec(SPEC_5));
    j.on_dispatch(105, Some(5));
    j.submitted(6, Some("bob"), None, &spec(SPEC_4));
    j.on_dispatch(106, Some(6));
    j.on_terminal(&terminal(6, JobStatus::Cancelled(CancelReason::Deadline)));
    j.on_dispatch(199, None);
    fs::read(j.path()).unwrap()
}

type JobView<'a> = (u64, Option<&'a str>, Option<&'a str>, bool, String);

fn view(live: &[LiveJob]) -> Vec<JobView<'_>> {
    live.iter()
        .map(|j| {
            (
                j.id,
                j.tenant.as_deref(),
                j.trace.as_deref(),
                j.dispatched,
                j.spec.to_string(),
            )
        })
        .collect()
}

/// Jobs 1 and 5 were running, 3 was queued; 2, 4 and 6 are terminal.
fn expected_live() -> Vec<JobView<'static>> {
    vec![
        (1, Some("alice"), Some(TRACE_1), true, SPEC_1.to_string()),
        (3, Some("bob"), None, false, SPEC_3.to_string()),
        (5, None, Some(TRACE_5), true, SPEC_5.to_string()),
    ]
}

fn assert_stats(stats: &ReplayStats, lines: usize, already_terminal: usize) {
    assert_eq!(stats.lines, lines, "checksum-valid lines");
    assert_eq!(stats.corrupt, 0);
    assert_eq!(stats.already_terminal, already_terminal);
    assert_eq!(stats.max_id, 6);
}

/// Open a journal over a copy of `log` and compact it; return what it
/// replayed and the bytes it compacted the log to. (A log this small is
/// far below the compaction floor, so the open itself leaves it as it
/// is; the commit that wrote the fixtures compacted at every open.)
fn open_copy(tag: &str, log: &[u8]) -> (Vec<LiveJob>, ReplayStats, Vec<u8>) {
    let dir = scratch(tag);
    fs::write(dir.join("jobs.log"), log).unwrap();
    let (journal, live, stats) = Journal::open(&dir).unwrap();
    assert_eq!(fs::read(journal.path()).unwrap(), log, "the open rewrote");
    journal.compact().unwrap();
    let compacted = fs::read(journal.path()).unwrap();
    drop(journal);
    let left: Vec<_> = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    assert_eq!(left, ["jobs.log"], "compaction leaves only the log");
    let _ = fs::remove_dir_all(&dir);
    (live, stats, compacted)
}

#[test]
fn parent_written_log_replays_and_compacts_to_the_parents_bytes() {
    let (live, stats, compacted) = open_copy("replay", &fixture("jobs.log"));
    assert_eq!(view(&live), expected_live());
    assert_stats(&stats, 14, 3);
    assert_eq!(
        compacted,
        fixture("jobs.compacted.log"),
        "compacted bytes changed"
    );
}

#[test]
fn parent_compacted_log_is_a_fixed_point() {
    let compacted = fixture("jobs.compacted.log");
    let (live, stats, again) = open_copy("fixed", &compacted);
    assert_eq!(view(&live), expected_live());
    assert_stats(&stats, 6, 0);
    assert_eq!(again, compacted, "recompaction changed the bytes");
}

#[test]
fn the_same_events_append_the_parents_bytes() {
    let dir = scratch("append");
    let log = write_scenario(&dir);
    let _ = fs::remove_dir_all(&dir);
    assert_eq!(
        String::from_utf8(log).unwrap(),
        String::from_utf8(fixture("jobs.log")).unwrap(),
        "appended bytes changed"
    );
}
