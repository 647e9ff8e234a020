//! The durable job journal: an append-only, checksummed event log.
//!
//! Every serving-layer job writes three kinds of line, in order:
//! `submitted` (write-ahead, *before* the scheduler sees the job),
//! `dispatched`, and `terminal`. Each line is
//! `<16-hex FNV-1a of the JSON bytes> <JSON>\n` — the same checksum
//! discipline as `agcm-resilience`'s checkpoint shards. Replay verifies
//! every checksum and stops at the first bad or torn line, so a crash
//! mid-append costs at most the line being written, never the log behind
//! it. On open, the journal compacts: live (non-terminal) jobs are
//! rewritten to a fresh log via the resilience layer's atomic-commit
//! pattern (temp file + rename), and finished history is dropped. The
//! compacted log always begins with a `watermark` line carrying the
//! highest durable id ever seen, so dropping terminal history can never
//! rewind the server's id counter onto already-used ids (which would
//! let a new job resume from a dead job's stale checkpoint).
//!
//! Checkpoint directories (`<dir>/ckpt/job_<id>`) are deleted when
//! their job reaches a terminal state, and any directory left behind by
//! a crash (its job finished but the deletion never ran) is swept at
//! open — only live jobs keep their checkpoints. When a fleet
//! checkpoint store is attached ([`Journal::attach_store`]), terminal
//! cleanup additionally releases the job's lineage lease in the store:
//! reclamation is then the store's refcounted GC, not directory
//! removal, so chunks shared with a live same-lineage job are never
//! touched and a finished job's prefix stays cached for resubmission.
//!
//! Crash-consistency argument, per job state:
//! - crash before `submitted` committed → the client never got an ack;
//!   the job never existed.
//! - crash after `submitted`, before dispatch → replay finds no
//!   `terminal`: the job is **requeued** on restart.
//! - crash after `dispatched` → replay marks it dispatched: the job is
//!   **resumed** on restart, and because its checkpoint directory is
//!   derived from its durable id, `run_model_resilient` restarts from
//!   the last committed checkpoint rather than step 0.
//! - crash after `terminal` → compaction drops it; it is done.

use agcm_ckptstore::{fnv1a, Store};
use agcm_ensemble::{JobId, JobObserver, JobRecord};
use agcm_telemetry::json::Value;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A journaled job that has not reached a terminal state — the unit of
/// recovery.
#[derive(Debug, Clone)]
pub struct LiveJob {
    /// Durable (server-assigned) job id.
    pub id: u64,
    /// Tenant the job was admitted under.
    pub tenant: Option<String>,
    /// The original submission request, verbatim.
    pub spec: Value,
    /// Encoded trace context minted at submission
    /// ([`agcm_telemetry::TraceContext::encode`]); restart recovery
    /// re-attaches it so the job's trace id survives the crash.
    pub trace: Option<String>,
    /// Whether a `dispatched` line was journaled — distinguishes
    /// requeue (never started) from resume (was running at the crash).
    pub dispatched: bool,
}

/// What replay found in the log.
#[derive(Debug, Clone, Default)]
pub struct ReplayStats {
    /// Checksum-valid lines replayed.
    pub lines: usize,
    /// Lines dropped as corrupt or torn (replay stops at the first).
    pub corrupt: usize,
    /// Jobs that already held a terminal record (dropped at compaction).
    pub already_terminal: usize,
    /// Highest durable job id seen, terminal or not.
    pub max_id: u64,
}

struct Inner {
    writer: Option<BufWriter<File>>,
    detached: bool,
}

/// Point-in-time journal health, reported on `/healthz`.
#[derive(Debug, Clone, Default)]
pub struct JournalStats {
    /// Lines appended by this process (post-open).
    pub appended_lines: u64,
    /// Live jobs rewritten by the open-time compaction.
    pub compacted_live: usize,
    /// Terminal jobs dropped by the open-time compaction.
    pub dropped_terminal: usize,
}

/// The journal handle. Appends are serialized by an internal lock;
/// [`Journal::detach`] makes every subsequent append a no-op, which is
/// how a crash is simulated without tearing the file.
pub struct Journal {
    dir: PathBuf,
    path: PathBuf,
    inner: Mutex<Inner>,
    appended: AtomicU64,
    compacted_live: usize,
    dropped_terminal: usize,
    /// Fleet checkpoint store, when the server runs one. Terminal-job
    /// cleanup then goes through the store's refcounted lease/GC
    /// discipline instead of only deleting the per-job directory.
    store: Mutex<Option<Arc<Store>>>,
}

const LOG_NAME: &str = "jobs.log";

/// Where a job's checkpoints live: derived from the *durable* id so a
/// restarted server resumes the same shards.
pub fn checkpoint_dir(journal_dir: &Path, durable_id: u64) -> PathBuf {
    journal_dir.join("ckpt").join(format!("job_{durable_id}"))
}

/// Delete checkpoint directories under `dir/ckpt` whose job is not in
/// `live` — terminal jobs whose cleanup a crash skipped, and rejected
/// jobs that never ran.
fn sweep_checkpoints(dir: &Path, live: &[LiveJob]) {
    let Ok(entries) = std::fs::read_dir(dir.join("ckpt")) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(id) = name
            .to_str()
            .and_then(|n| n.strip_prefix("job_"))
            .and_then(|n| n.parse::<u64>().ok())
        else {
            continue;
        };
        if !live.iter().any(|job| job.id == id) {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
}

impl Journal {
    /// Open (or create) the journal under `dir`: replay the existing
    /// log, compact it down to the live jobs, and return those jobs plus
    /// replay statistics.
    pub fn open(dir: &Path) -> std::io::Result<(Journal, Vec<LiveJob>, ReplayStats)> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(LOG_NAME);
        let (live, stats) = replay(&path)?;

        // Compact via the atomic-commit pattern: write the surviving
        // records to a temp file, fsync, rename over the log. A crash
        // during compaction leaves either the old log or the new one —
        // never a mix.
        let tmp = dir.join(format!("{LOG_NAME}.tmp"));
        {
            let mut w = BufWriter::new(File::create(&tmp)?);
            // The id high-water mark must survive even when every job it
            // came from is terminal (and therefore dropped here) —
            // otherwise a restart after an idle restart reseeds the id
            // counter onto used ids and their stale checkpoints.
            if stats.max_id > 0 {
                write_line(&mut w, &event_value("watermark", stats.max_id))?;
            }
            for job in &live {
                write_line(
                    &mut w,
                    &submitted_value(
                        job.id,
                        job.tenant.as_deref(),
                        job.trace.as_deref(),
                        &job.spec,
                    ),
                )?;
                if job.dispatched {
                    write_line(&mut w, &event_value("dispatched", job.id))?;
                }
            }
            w.flush()?;
            w.get_ref().sync_all()?;
        }
        std::fs::rename(&tmp, &path)?;
        sweep_checkpoints(dir, &live);

        let writer = OpenOptions::new().append(true).open(&path)?;
        let journal = Journal {
            dir: dir.to_path_buf(),
            path,
            inner: Mutex::new(Inner {
                writer: Some(BufWriter::new(writer)),
                detached: false,
            }),
            appended: AtomicU64::new(0),
            compacted_live: live.len(),
            dropped_terminal: stats.already_terminal,
            store: Mutex::new(None),
        };
        Ok((journal, live, stats))
    }

    /// Path of the log file (for diagnostics and tests).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Point-in-time journal health.
    pub fn stats(&self) -> JournalStats {
        JournalStats {
            appended_lines: self.appended.load(Ordering::Relaxed),
            compacted_live: self.compacted_live,
            dropped_terminal: self.dropped_terminal,
        }
    }

    /// Route terminal-job checkpoint cleanup through `store`'s
    /// refcounted lease/GC discipline: on terminal, the job's lineage
    /// lease (keyed by its durable id) is released, leaving the
    /// committed prefix cached for a same-lineage resubmission until an
    /// explicit [`Store::gc`] sweeps unleased lineages.
    pub fn attach_store(&self, store: Arc<Store>) {
        *self.store.lock().unwrap() = Some(store);
    }

    /// Write-ahead record: the job exists, before the scheduler sees it.
    /// `trace` is the encoded trace context minted at submission.
    pub fn submitted(&self, id: u64, tenant: Option<&str>, trace: Option<&str>, spec: &Value) {
        self.append(&submitted_value(id, tenant, trace, spec));
    }

    /// Terminal record written by the *server* (admission rejections —
    /// the scheduler never saw the job, so no observer event will come).
    pub fn rejected(&self, id: u64, error: &str) {
        self.append(&Value::obj(vec![
            ("event", Value::Str("terminal".into())),
            ("job", Value::Num(id as f64)),
            ("status", Value::Str("rejected".into())),
            ("error", Value::Str(error.into())),
        ]));
    }

    /// Stop journaling. Subsequent appends (including observer events
    /// from a draining ensemble) are dropped — this is how the smoke
    /// scenario simulates a crash: the ensemble's teardown must not
    /// journal terminals for jobs the "crashed" server never finished.
    pub fn detach(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.detached = true;
        inner.writer = None;
    }

    fn append(&self, value: &Value) {
        let mut inner = self.inner.lock().unwrap();
        if inner.detached {
            return;
        }
        if let Some(w) = inner.writer.as_mut() {
            // An append failure must not take down the scheduler; the
            // journal simply stops being durable from here on.
            if write_line(w, value).and_then(|_| w.flush()).is_err() {
                inner.writer = None;
            } else {
                self.appended.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

impl JobObserver for Journal {
    fn on_dispatch(&self, _id: JobId, tag: Option<u64>) {
        if let Some(durable) = tag {
            self.append(&event_value("dispatched", durable));
        }
    }

    fn on_terminal(&self, record: &JobRecord) {
        if let Some(durable) = record.tag {
            self.append(&Value::obj(vec![
                ("event", Value::Str("terminal".into())),
                ("job", Value::Num(durable as f64)),
                ("status", Value::Str(record.status.label())),
            ]));
            // A terminal job's checkpoints are dead weight; reclaim them
            // now rather than letting the ckpt tree grow for the life of
            // the server. Gated on detach like the append: a simulated
            // crash must leave checkpoints for the restart to resume.
            if !self.inner.lock().unwrap().detached {
                let _ = std::fs::remove_dir_all(checkpoint_dir(&self.dir, durable));
                // Store-backed jobs keep nothing under the directory
                // above — their shards live in the fleet store. Release
                // the lineage lease (idempotent with the scheduler's own
                // release) so the next GC sweep can reclaim the chunks
                // once no live job shares the lineage. Deliberately no
                // eager `gc()` here: the committed prefix is the cache a
                // resubmitted or extended-horizon job resumes from.
                if let Some(lineage) = record.lineage {
                    if let Some(store) = self.store.lock().unwrap().as_ref() {
                        store.release(lineage, durable);
                    }
                }
            }
        }
    }
}

fn submitted_value(id: u64, tenant: Option<&str>, trace: Option<&str>, spec: &Value) -> Value {
    Value::obj(vec![
        ("event", Value::Str("submitted".into())),
        ("job", Value::Num(id as f64)),
        (
            "tenant",
            tenant.map_or(Value::Null, |t| Value::Str(t.to_string())),
        ),
        (
            "trace",
            trace.map_or(Value::Null, |t| Value::Str(t.to_string())),
        ),
        ("spec", spec.clone()),
    ])
}

fn event_value(event: &str, id: u64) -> Value {
    Value::obj(vec![
        ("event", Value::Str(event.into())),
        ("job", Value::Num(id as f64)),
    ])
}

fn write_line(w: &mut impl Write, value: &Value) -> std::io::Result<()> {
    let json = value.to_string();
    writeln!(w, "{:016x} {json}", fnv1a(json.as_bytes()))
}

/// Replay the log: verify checksums, fold events into per-job state,
/// stop at the first bad line (everything after a torn write is
/// untrusted).
fn replay(path: &Path) -> std::io::Result<(Vec<LiveJob>, ReplayStats)> {
    let mut stats = ReplayStats::default();
    // Insertion-ordered so recovered jobs resubmit in original order.
    let mut jobs: Vec<(u64, LiveJob, bool)> = Vec::new(); // (id, job, terminal)
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(e),
    };
    for line in text.lines() {
        let parsed = line.split_once(' ').and_then(|(crc, json)| {
            let expect = u64::from_str_radix(crc, 16).ok()?;
            (fnv1a(json.as_bytes()) == expect).then(|| Value::parse(json).ok())?
        });
        let Some(value) = parsed else {
            stats.corrupt += 1;
            break;
        };
        stats.lines += 1;
        let event = value.get("event").and_then(Value::as_str).unwrap_or("");
        let id = value.get("job").and_then(Value::as_f64).unwrap_or(0.0) as u64;
        stats.max_id = stats.max_id.max(id);
        match event {
            "submitted" => {
                let tenant = value
                    .get("tenant")
                    .and_then(Value::as_str)
                    .map(str::to_string);
                let trace = value
                    .get("trace")
                    .and_then(Value::as_str)
                    .map(str::to_string);
                let spec = value.get("spec").cloned().unwrap_or(Value::Null);
                jobs.push((
                    id,
                    LiveJob {
                        id,
                        tenant,
                        spec,
                        trace,
                        dispatched: false,
                    },
                    false,
                ));
            }
            "dispatched" => {
                if let Some((_, job, _)) = jobs.iter_mut().find(|(jid, _, _)| *jid == id) {
                    job.dispatched = true;
                }
            }
            "terminal" => {
                if let Some((_, _, terminal)) = jobs.iter_mut().find(|(jid, _, _)| *jid == id) {
                    *terminal = true;
                }
            }
            // A compaction watermark carries the pre-compaction max id
            // in its `job` field — already folded into `stats.max_id`.
            "watermark" => {}
            _ => {}
        }
    }
    let mut live = Vec::new();
    for (_, job, terminal) in jobs {
        if terminal {
            stats.already_terminal += 1;
        } else {
            live.push(job);
        }
    }
    Ok((live, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> Value {
        Value::obj(vec![("name", Value::Str("j".into()))])
    }

    #[test]
    fn round_trip_live_and_terminal_jobs() {
        let dir = std::env::temp_dir().join(format!("agcm-journal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let (journal, live, _) = Journal::open(&dir).unwrap();
            assert!(live.is_empty());
            journal.submitted(
                1,
                Some("alice"),
                Some("00000000000000000000000000000abc-0000000000000123-0000000000000000"),
                &spec(),
            );
            journal.submitted(2, None, None, &spec());
            journal.submitted(3, Some("bob"), None, &spec());
            // Job 1 ran to completion; job 2 dispatched then "crashed";
            // job 3 never dispatched.
            journal.on_dispatch(101, Some(1));
            journal.on_dispatch(102, Some(2));
            let rec = terminal_record(1);
            journal.on_terminal(&rec);
        }
        let (_, live, stats) = Journal::open(&dir).unwrap();
        assert_eq!(stats.corrupt, 0);
        assert_eq!(stats.already_terminal, 1);
        assert_eq!(stats.max_id, 3);
        assert_eq!(live.len(), 2);
        assert_eq!(live[0].id, 2);
        assert!(live[0].dispatched, "job 2 was running at the crash");
        assert_eq!(live[0].tenant, None);
        assert_eq!(live[1].id, 3);
        assert!(!live[1].dispatched, "job 3 was still queued");
        assert_eq!(live[1].tenant.as_deref(), Some("bob"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_dropped_but_the_log_behind_it_survives() {
        let dir = std::env::temp_dir().join(format!("agcm-journal-torn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let (journal, _, _) = Journal::open(&dir).unwrap();
            journal.submitted(1, None, None, &spec());
            journal.submitted(2, None, None, &spec());
        }
        // Tear the last line mid-byte, as a crash mid-append would.
        let path = dir.join(LOG_NAME);
        let text = std::fs::read_to_string(&path).unwrap();
        let truncated = &text[..text.len() - 10];
        std::fs::write(&path, truncated).unwrap();

        let (_, live, stats) = Journal::open(&dir).unwrap();
        assert_eq!(stats.corrupt, 1, "the torn line is counted and dropped");
        assert_eq!(live.len(), 1, "the intact prefix replays");
        assert_eq!(live[0].id, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn detach_drops_subsequent_appends() {
        let dir = std::env::temp_dir().join(format!("agcm-journal-det-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let (journal, _, _) = Journal::open(&dir).unwrap();
            journal.submitted(1, None, None, &spec());
            journal.detach();
            // Post-detach terminals (ensemble teardown) must not land.
            journal.on_terminal(&terminal_record(1));
        }
        let (_, live, stats) = Journal::open(&dir).unwrap();
        assert_eq!(stats.already_terminal, 0);
        assert_eq!(live.len(), 1, "job 1 resurrects: its terminal was dropped");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn max_id_survives_compaction_of_all_terminal_history() {
        let dir = std::env::temp_dir().join(format!("agcm-journal-wm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let (journal, _, _) = Journal::open(&dir).unwrap();
            journal.submitted(7, None, None, &spec());
            journal.on_terminal(&terminal_record(7));
        }
        // First restart: job 7 is terminal, so compaction drops it — but
        // the watermark must keep the high-water mark.
        let (_, live, stats) = Journal::open(&dir).unwrap();
        assert!(live.is_empty());
        assert_eq!(stats.max_id, 7);
        // Second restart with no intervening submissions: still 7. This
        // is the id-reuse regression — before the watermark, this replay
        // of an empty live set reported max_id 0.
        let (_, live, stats) = Journal::open(&dir).unwrap();
        assert!(live.is_empty());
        assert_eq!(stats.max_id, 7, "id high-water mark lost at compaction");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_survives_replay_and_compaction() {
        let dir = std::env::temp_dir().join(format!("agcm-journal-tr-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let encoded = "000000000000000000000000deadbeef-0000000000000007-0000000000000000";
        {
            let (journal, _, _) = Journal::open(&dir).unwrap();
            journal.submitted(1, Some("alice"), Some(encoded), &spec());
            journal.submitted(2, None, None, &spec());
        }
        // First reopen replays the appended lines; second reopen replays
        // the *compacted* rewrite — the trace must survive both forms.
        for _ in 0..2 {
            let (_, live, _) = Journal::open(&dir).unwrap();
            assert_eq!(live.len(), 2);
            assert_eq!(live[0].trace.as_deref(), Some(encoded));
            assert_eq!(live[1].trace, None);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_watermark_record_stops_replay_cleanly() {
        let dir = std::env::temp_dir().join(format!("agcm-journal-cwm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let (journal, _, _) = Journal::open(&dir).unwrap();
            journal.submitted(5, None, None, &spec());
        }
        // Reopen once so the log is the compacted form: watermark first,
        // then the live job. Then flip a byte inside the watermark line.
        let _ = Journal::open(&dir).unwrap();
        let path = dir.join(LOG_NAME);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.lines().next().unwrap().contains("watermark"));
        let mut corrupted = text.replace("watermark", "watermbrk");
        std::fs::write(&path, &corrupted).unwrap();
        // Replay must not panic: the bad line is counted, everything
        // after it (the live job) is untrusted and dropped, and the
        // journal still opens for writing.
        let (journal, live, stats) = Journal::open(&dir).unwrap();
        assert_eq!(stats.corrupt, 1, "corrupt watermark is counted");
        assert!(live.is_empty(), "replay stops at the first bad line");
        journal.submitted(9, None, None, &spec());
        assert_eq!(journal.stats().appended_lines, 1);
        drop(journal);

        // Truncated watermark (torn first write): same clean outcome.
        corrupted = text.lines().next().unwrap()[..20].to_string();
        std::fs::write(&path, &corrupted).unwrap();
        let (_, live, stats) = Journal::open(&dir).unwrap();
        assert_eq!(stats.corrupt, 1, "torn watermark is counted");
        assert!(live.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn terminal_jobs_lose_their_checkpoint_dirs() {
        let dir = std::env::temp_dir().join(format!("agcm-journal-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mk = |id: u64| {
            let d = checkpoint_dir(&dir, id);
            std::fs::create_dir_all(&d).unwrap();
            std::fs::write(d.join("shard_0"), b"x").unwrap();
            d
        };
        {
            let (journal, _, _) = Journal::open(&dir).unwrap();
            journal.submitted(1, None, None, &spec());
            journal.submitted(2, None, None, &spec());
            let (ck1, ck2, stray) = (mk(1), mk(2), mk(99));
            // Job 1 finishes normally: its checkpoints go immediately.
            journal.on_terminal(&terminal_record(1));
            assert!(!ck1.exists(), "terminal job keeps no checkpoints");
            assert!(ck2.exists() && stray.exists());
            // Crash: post-detach terminals must NOT delete checkpoints —
            // the restart needs them to resume.
            journal.detach();
            journal.on_terminal(&terminal_record(2));
            assert!(ck2.exists(), "detached journal must not delete checkpoints");
        }
        // Restart: job 2 is live (its terminal was dropped) and keeps its
        // checkpoints; the orphaned job_99 dir is swept.
        let (_, live, _) = Journal::open(&dir).unwrap();
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].id, 2);
        assert!(checkpoint_dir(&dir, 2).exists());
        assert!(
            !checkpoint_dir(&dir, 99).exists(),
            "stray checkpoint dir survives the open sweep"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn terminal_record(tag: u64) -> JobRecord {
        JobRecord {
            id: 100 + tag,
            name: "j".into(),
            tenant: None,
            tag: Some(tag),
            ranks: 1,
            priority: agcm_ensemble::Priority::Normal,
            status: agcm_ensemble::JobStatus::Completed,
            attempts: 1,
            queue_seconds: 0.0,
            run_seconds: 0.0,
            lineage: None,
            resumed_from: None,
            outcome: None,
            summary: None,
        }
    }
}
