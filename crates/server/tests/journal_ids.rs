//! The journal's id rules, end to end: a log that names an id twice, and
//! the last id the server may hand out.

use agcm_ensemble::EnsembleConfig;
use agcm_server::client::{get, post_job};
use agcm_server::{AgcmServer, Journal, ServerConfig};
use agcm_telemetry::json::Value;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("agcm-journal-ids-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start(dir: &Path) -> AgcmServer {
    AgcmServer::start(ServerConfig {
        journal_dir: dir.to_path_buf(),
        ensemble: EnsembleConfig::default(),
        ..ServerConfig::default()
    })
    .unwrap()
}

fn job_body(name: &str) -> String {
    format!(
        "{{\"name\":\"{name}\",\"grid\":{{\"lon\":24,\"lat\":12,\"lev\":2}},\
         \"mesh\":{{\"lat\":1,\"lon\":1}},\"steps\":1}}"
    )
}

#[test]
fn a_second_submitted_line_for_an_id_stops_replay() {
    // Both lines used to replay as live jobs with one id: the server
    // resubmitted both, and compaction wrote both back at every restart.
    let dir = temp_dir("dup");
    let spec = Value::obj(vec![("name", Value::Str("j".into()))]);
    {
        let (journal, _, _) = Journal::open(&dir).unwrap();
        journal.submitted(3, Some("a"), None, &spec);
        journal.submitted(4, None, None, &spec);
        journal.submitted(3, Some("b"), None, &spec);
        journal.submitted(5, None, None, &spec);
    }
    let (journal, live, stats) = Journal::open(&dir).unwrap();
    let jobs: Vec<(u64, Option<&str>)> = live.iter().map(|j| (j.id, j.tenant.as_deref())).collect();
    assert_eq!(
        jobs,
        vec![(3, Some("a")), (4, None)],
        "replay stops at the second id 3"
    );
    assert_eq!((stats.lines, stats.corrupt, stats.max_id), (2, 1, 4));
    drop(journal);
    // The compacted log holds each id once, so the next open is clean.
    let (_, again, stats) = Journal::open(&dir).unwrap();
    assert_eq!(again, live);
    assert_eq!(stats.corrupt, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn no_job_id_is_handed_out_past_2_pow_53() {
    // 2^53 is the highest id a journal line carries exactly. A watermark
    // there used to seed the counter at 2^53 + 1, which the journal wrote
    // back as 2^53: the next job duplicated the highest id.
    const MAX: u64 = 1 << 53;
    let dir = temp_dir("max");
    let log = dir.join("jobs.log");
    let watermark = |id: u64| {
        let _ = std::fs::remove_dir_all(&dir);
        let (journal, _, _) = Journal::open(&dir).unwrap();
        journal.submitted(id, None, None, &Value::Null);
        journal.rejected(id, "seeded");
    };

    watermark(MAX);
    let server = start(&dir);
    let before = std::fs::read(&log).unwrap();
    let resp = post_job(server.local_addr(), None, &job_body("past")).unwrap();
    assert_eq!(resp.status, 503, "body: {}", resp.body);
    assert!(resp.body.contains("ids_exhausted"), "body: {}", resp.body);
    assert_eq!(
        std::fs::read(&log).unwrap(),
        before,
        "a refused id journals nothing"
    );
    server.shutdown();

    watermark(MAX - 1);
    let server = start(&dir);
    let addr = server.local_addr();
    let resp = post_job(addr, None, &job_body("last")).unwrap();
    assert_eq!(resp.status, 202, "body: {}", resp.body);
    let id = resp.json().get("id").unwrap().as_f64().unwrap() as u64;
    assert_eq!(id, MAX);
    let deadline = Instant::now() + Duration::from_secs(60);
    let state = || get(addr, &format!("/v1/jobs/{id}")).unwrap().json();
    while state().get("state").and_then(Value::as_str) != Some("completed") {
        assert!(Instant::now() < deadline, "job {id} never completed");
        std::thread::sleep(Duration::from_millis(5));
    }
    server.shutdown();
    let (_, _, stats) = Journal::open(&dir).unwrap();
    assert_eq!(
        (stats.max_id, stats.corrupt),
        (MAX, 0),
        "2^53 replays exactly"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
