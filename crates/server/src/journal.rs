//! The durable job journal: an append-only, checksummed event log.
//!
//! Every serving-layer job writes three kinds of line, in order:
//! `submitted` (write-ahead, *before* the scheduler sees the job),
//! `dispatched`, and `terminal`. Each line is
//! `<16-hex FNV-1a of the JSON bytes> <JSON>\n`, framed by the same
//! `frame_line` codec as the checkpoint store's index. Replay verifies
//! every checksum and stops at the first bad or torn line, so a crash
//! mid-append costs at most the line being written, never the log behind
//! it. Appends go through `durable::LineLog` (re-exported by the store
//! crate): one write per line, not fsynced.
//!
//! **Compaction.** Beside the file, the journal keeps each live job's
//! framed `submitted` line (the bytes it appended, or the ones replay
//! read) and whether it dispatched, and so knows how many of the file's
//! bytes are dead: every line compaction would drop, chiefly those of
//! finished jobs (a `terminal` line, `rejected` included, kills its
//! job's lines). [`Journal::compact`] publishes a `watermark` line and
//! then the live lines, in log order, through `LineLog::rewrite`
//! (`durable::write_atomic`: temp file, fsync, rename, fsync the
//! directory), under the append lock. The watermark carries the highest
//! durable id ever seen, so dropping terminal history can never rewind
//! the server's id counter onto already-used ids. Compaction runs when
//! `LineLog::compaction_due` holds, i.e. the dead bytes exceed both the
//! live ones and `durable::COMPACTION_FLOOR` (64 KiB, about what one
//! publish costs in replay; its doc has the measurement):
//! - at [`Journal::open`], which also rewrites a log whose replay
//!   stopped at a bad or torn line (a line appended behind it would never
//!   replay). Any other log is opened for append as it is;
//! - while a server serves, on the server's journal thread, which a
//!   terminal record wakes once the rule holds ([`Journal::compaction_due`]).
//!   Appends only count: a `Journal` on its own never compacts between
//!   opens, and a detached or degraded one never compacts.
//!
//! A restart of a server therefore replays at most the floor of dead
//! history, plus what the jobs finished since the thread last ran, plus
//! the live jobs, however long the server was up.
//!
//! Replay costs a checksum and one scan per line, plus a full parse
//! only for the jobs still live. Each line's JSON is validated by
//! [`walk_fields`], which builds no tree and reads only `event` and
//! `job`; a `submitted` line is kept as a slice of the log and its job
//! found through an id → position map. Only after the fold are the
//! `tenant`, `trace` and `spec` of each live job parsed. A `job` that is
//! not an exact integer in `0..=2^53` makes its line corrupt (a larger id
//! is not exact as a JSON number), and the server hands out no id past
//! that bound either. A second `submitted` line for an id is corrupt too:
//! the writer never journals an id twice. A restart over finished history
//! therefore allocates a fixed number of times however long the log is,
//! and costs time linear in it: an open takes about 1.1, 5.5 and 25 ms
//! on logs of 400, 4,000 and 16,000 finished jobs (two lines each, about
//! 280 bytes per job) in a release build on a 2-vCPU VM, where a `Value`
//! tree per line took 2.5, 20 and 80 ms. The checksums and the walk take
//! about equal shares; at 400 jobs the compaction's publish (two fsyncs)
//! is a third of it.
//!
//! A job's checkpoints live in the fleet checkpoint store, never under
//! the journal's directory. With the store attached
//! ([`Journal::attach_store`]), a terminal record also releases the
//! job's lineage lease: reclamation is the store's refcounted GC, so
//! chunks shared with a live same-lineage job are never touched and a
//! finished job's prefix stays cached for resubmission.
//!
//! Crash-consistency argument, per job state. A *process* crash loses
//! nothing appended: every line reached the kernel in one write before
//! the server acted on it. An *OS* crash or power loss may also lose the
//! unsynced tail of appends since the last compaction, acked
//! `submitted` lines included (syncing them before the ack is separate
//! work); the compacted log itself is durable.
//! - crash before `submitted` reached the log → the client never got an
//!   ack; the job never existed.
//! - crash after `submitted`, before dispatch → replay finds no
//!   `terminal`: the job is **requeued** on restart.
//! - crash after `dispatched` → replay marks it dispatched: the job is
//!   **resumed** on restart from its lineage's longest committed prefix
//!   in the store rather than step 0.
//! - crash after `terminal` → compaction drops it; it is done.
//!
//! A crash *during* a compaction while serving changes none of this. The
//! compaction holds the append lock from the moment it reads the live
//! set until the new file is open for append, so every line is either
//! in the old file before the snapshot (and folded into it) or appended
//! to the new file after it: none is lost or written twice across the
//! swap. The new file is fsynced before the rename, the rename is atomic
//! and the directory is fsynced after it, so a crash leaves either the
//! old log, with every line, or the new one, whose replay is the old
//! one's fold (the same live jobs, dispatched flags and highest id). At
//! worst a stale `jobs.log.tmp` stays behind, and the next publish
//! overwrites it. The new file also makes durable the appends it
//! folded, which were not synced before.

use agcm_ckptstore::durable::LineLog;
use agcm_ckptstore::{frame_line, unframe_line, Store};
use agcm_ensemble::{JobId, JobObserver, JobRecord};
use agcm_telemetry::json::{walk_fields, Field, ParseLimits, Value};
use std::borrow::Cow;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A journaled job that has not reached a terminal state — the unit of
/// recovery.
#[derive(Debug, Clone, PartialEq)]
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
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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

/// A live job as the journal keeps it for compaction.
struct Kept {
    /// Order of its `submitted` line in the log: compaction keeps it.
    seq: u64,
    /// Its framed `submitted` line, newline included.
    line: String,
    /// Bytes of its `dispatched` line; 0 before it dispatched.
    dispatched: u64,
}

impl Kept {
    /// Bytes of its lines in the log.
    fn bytes(&self) -> u64 {
        self.line.len() as u64 + self.dispatched
    }
}

/// The log and what compaction needs to know about it, under the append
/// lock.
struct Inner {
    log: LineLog,
    detached: bool,
    live: HashMap<u64, Kept>,
    /// Bytes of the log's live lines: every kept `submitted` line and
    /// the `dispatched` line of each job that has one.
    live_bytes: u64,
    next_seq: u64,
    max_id: u64,
}

impl Inner {
    /// Fold one appended line into the live set.
    fn apply(&mut self, id: u64, event: Event, line: String) {
        self.max_id = self.max_id.max(id);
        match event {
            Event::Submitted => {
                let kept = Kept {
                    seq: self.next_seq,
                    line,
                    dispatched: 0,
                };
                self.next_seq += 1;
                self.live_bytes += kept.bytes();
                self.live.insert(id, kept);
            }
            Event::Dispatched => {
                if let Some(job) = self.live.get_mut(&id).filter(|job| job.dispatched == 0) {
                    job.dispatched = line.len() as u64;
                    self.live_bytes += job.dispatched;
                }
            }
            Event::Terminal => {
                if let Some(job) = self.live.remove(&id) {
                    self.live_bytes -= job.bytes();
                }
            }
        }
    }
}

/// What an appended line does to its job.
#[derive(Clone, Copy)]
enum Event {
    Submitted,
    Dispatched,
    Terminal,
}

/// Point-in-time journal health, reported on `/healthz` and `/metrics`.
#[derive(Debug, Clone, Default)]
pub struct JournalStats {
    /// Lines appended by this process (post-open).
    pub appended_lines: u64,
    /// Live jobs the open's compaction rewrote (0 when the open left the
    /// log as it was).
    pub compacted_live: usize,
    /// Terminal jobs the open's compaction dropped (0 when the open left
    /// the log as it was).
    pub dropped_terminal: usize,
    /// Compactions this process ran, the open's included.
    pub compactions: u64,
    /// Bytes of the log that the next compaction would drop.
    pub dead_bytes: u64,
    /// Jobs journaled without a terminal record.
    pub live_jobs: usize,
    /// An append failed, so the log is closed: later records are lost
    /// while the server keeps acking.
    pub degraded: bool,
}

/// The journal handle. Appends are serialized by an internal lock;
/// [`Journal::detach`] makes every subsequent append a no-op, which is
/// how a crash is simulated without tearing the file.
pub struct Journal {
    path: PathBuf,
    inner: Mutex<Inner>,
    appended: AtomicU64,
    compactions: AtomicU64,
    /// Set when a terminal record makes the compaction rule hold, cleared
    /// by [`Journal::compact`].
    due: AtomicBool,
    compacted_live: usize,
    dropped_terminal: usize,
    /// Fleet checkpoint store, when the server runs one. Terminal-job
    /// cleanup then goes through the store's refcounted lease/GC
    /// discipline.
    store: Mutex<Option<Arc<Store>>>,
}

const LOG_NAME: &str = "jobs.log";

impl Journal {
    /// Open (or create) the journal under `dir`: replay the existing
    /// log, compact it if replay stopped at a bad line or the compaction
    /// rule holds, and return the live jobs plus replay statistics.
    pub fn open(dir: &Path) -> std::io::Result<(Journal, Vec<LiveJob>, ReplayStats)> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(LOG_NAME);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(e),
        };
        let (jobs, stats) = fold(&text);
        let mut inner = Inner {
            log: LineLog::open(&path)?,
            detached: false,
            live: HashMap::with_capacity(jobs.len()),
            live_bytes: 0,
            next_seq: 0,
            max_id: stats.max_id,
        };
        for job in &jobs {
            inner.apply(job.id, Event::Submitted, format!("{}\n", job.line));
            if job.dispatched {
                inner.apply(job.id, Event::Dispatched, dispatched_line(job.id));
            }
        }
        // A line appended behind a bad one, or onto a last line without
        // its newline, would never replay.
        let torn = stats.corrupt > 0 || !text.is_empty() && !text.ends_with('\n');
        let rewrite = torn || inner.log.compaction_due(inner.live_bytes);
        let mut journal = Journal {
            inner: Mutex::new(inner),
            path,
            appended: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            due: AtomicBool::new(false),
            compacted_live: 0,
            dropped_terminal: 0,
            store: Mutex::new(None),
        };
        if rewrite {
            journal.compact()?;
            journal.compacted_live = jobs.len();
            journal.dropped_terminal = stats.already_terminal;
        }
        let live = jobs.iter().map(live_job).collect();
        Ok((journal, live, stats))
    }

    /// Path of the log file (for diagnostics and tests).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Point-in-time journal health.
    pub fn stats(&self) -> JournalStats {
        let inner = self.inner.lock().unwrap();
        JournalStats {
            appended_lines: self.appended.load(Ordering::Relaxed),
            compacted_live: self.compacted_live,
            dropped_terminal: self.dropped_terminal,
            compactions: self.compactions.load(Ordering::Relaxed),
            dead_bytes: inner.log.written().saturating_sub(inner.live_bytes),
            live_jobs: inner.live.len(),
            degraded: inner.log.is_closed(),
        }
    }

    /// Whether a terminal record made the compaction rule hold since the
    /// last [`Journal::compact`]. One atomic load: cheap enough for the
    /// scheduler's terminal path, which then hands the compaction to a
    /// thread of its own.
    pub fn compaction_due(&self) -> bool {
        self.due.load(Ordering::Relaxed)
    }

    /// Publish the log as a `watermark` line plus the live jobs' lines,
    /// in log order, and append to the new file from then on. Appends
    /// wait for it. A detached journal is left as it is, and a degraded
    /// one too (with an error).
    pub fn compact(&self) -> std::io::Result<()> {
        let mut inner = self.inner.lock().unwrap();
        self.due.store(false, Ordering::Relaxed);
        if inner.detached {
            return Ok(());
        }
        let mut out = String::new();
        // The id high-water mark must survive even when every job it
        // came from is terminal (and therefore dropped here) — otherwise
        // a restart after an idle restart reseeds the id counter onto
        // used ids.
        if inner.max_id > 0 {
            push_line(&mut out, &event_value("watermark", inner.max_id));
        }
        let mut live: Vec<(&u64, &Kept)> = inner.live.iter().collect();
        live.sort_unstable_by_key(|(_, job)| job.seq);
        for (&id, job) in live {
            out.push_str(&job.line);
            if job.dispatched > 0 {
                push_line(&mut out, &event_value("dispatched", id));
            }
        }
        inner
            .log
            .rewrite(out.as_bytes())
            .map_err(std::io::Error::other)?;
        self.compactions.fetch_add(1, Ordering::Relaxed);
        Ok(())
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
        let value = submitted_value(id, tenant, trace, spec);
        self.append(id, Event::Submitted, &value);
    }

    /// Terminal record written by the *server* (admission rejections —
    /// the scheduler never saw the job, so no observer event will come).
    pub fn rejected(&self, id: u64, error: &str) {
        let value = Value::obj(vec![
            ("event", Value::Str("terminal".into())),
            ("job", Value::Num(id as f64)),
            ("status", Value::Str("rejected".into())),
            ("error", Value::Str(error.into())),
        ]);
        self.append(id, Event::Terminal, &value);
    }

    /// Stop journaling. Subsequent appends (including observer events
    /// from a draining ensemble) are dropped — this is how
    /// `AgcmServer::abort` simulates a crash: the ensemble's teardown must
    /// not journal terminals for jobs the "crashed" server never finished.
    pub fn detach(&self) {
        self.inner.lock().unwrap().detached = true;
    }

    /// An append failure must not take down the scheduler: the log
    /// closes, and [`JournalStats::degraded`] says so from then on.
    fn append(&self, id: u64, event: Event, value: &Value) {
        let mut line = String::new();
        push_line(&mut line, value);
        let mut inner = self.inner.lock().unwrap();
        if inner.detached || inner.log.append(&line).is_err() {
            return;
        }
        self.appended.fetch_add(1, Ordering::Relaxed);
        inner.apply(id, event, line);
        if matches!(event, Event::Terminal) && inner.log.compaction_due(inner.live_bytes) {
            self.due.store(true, Ordering::Relaxed);
        }
    }
}

impl JobObserver for Journal {
    fn on_dispatch(&self, _id: JobId, tag: Option<u64>) {
        if let Some(durable) = tag {
            self.append(
                durable,
                Event::Dispatched,
                &event_value("dispatched", durable),
            );
        }
    }

    fn on_terminal(&self, record: &JobRecord) {
        if let Some(durable) = record.tag {
            let value = Value::obj(vec![
                ("event", Value::Str("terminal".into())),
                ("job", Value::Num(durable as f64)),
                ("status", Value::Str(record.status.label())),
            ]);
            self.append(durable, Event::Terminal, &value);
            // Release the lineage lease (idempotent with the scheduler's
            // own release) so the next GC sweep can reclaim the chunks
            // once no live job shares the lineage. Gated on detach like
            // the append: after a simulated crash the journal must not act
            // on the store as if the job had finished. Deliberately no
            // eager `gc()` here: the committed prefix is the cache a
            // resubmitted or extended-horizon job resumes from.
            if !self.inner.lock().unwrap().detached {
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

/// The framed `dispatched` line of job `id`.
fn dispatched_line(id: u64) -> String {
    let mut line = String::new();
    push_line(&mut line, &event_value("dispatched", id));
    line
}

fn push_line(out: &mut String, value: &Value) {
    frame_line(out, &value.to_string());
}

/// The highest id a journal line may carry, and so the highest the server
/// hands out: every id up to it is exact as a JSON number.
pub(crate) const MAX_ID: u64 = 1 << 53;

/// A `submitted` line as the fold keeps it: the line, and whether a
/// later line dispatched or finished its job.
struct Submitted<'a> {
    line: &'a str,
    id: u64,
    dispatched: bool,
    terminal: bool,
}

/// Fold the log's events into per-job state: the jobs still live, in log
/// order, and the replay's statistics. Every line's frame is verified and
/// its JSON validated, but only `event` and `job` are read; a job's
/// `tenant`, `trace` and `spec` are parsed by [`live_job`].
fn fold(text: &str) -> (Vec<Submitted<'_>>, ReplayStats) {
    let mut stats = ReplayStats::default();
    // Sized by the line count, so replay allocates the same few times
    // however long the log is.
    let lines = text.lines().count();
    // In log order, so recovered jobs resubmit in original order, with
    // each id's position beside it.
    let mut jobs: Vec<Submitted> = Vec::with_capacity(lines);
    let mut by_id: HashMap<u64, usize> = HashMap::with_capacity(lines);
    for line in text.lines() {
        // Records are ordered events: after a torn or corrupt line, a
        // later `dispatched` or `terminal` could belong to a history the
        // log no longer shows, so replay stops at the first bad line.
        // The writer journals an id once: a second `submitted` is corrupt.
        let Some((event, id)) = unframe_line(line)
            .and_then(event_of)
            .filter(|(event, id)| !(event == "submitted" && by_id.contains_key(id)))
        else {
            stats.corrupt += 1;
            break;
        };
        stats.lines += 1;
        stats.max_id = stats.max_id.max(id);
        match &*event {
            "submitted" => {
                by_id.insert(id, jobs.len());
                jobs.push(Submitted {
                    line,
                    id,
                    dispatched: false,
                    terminal: false,
                });
            }
            "dispatched" => {
                if let Some(&at) = by_id.get(&id) {
                    jobs[at].dispatched = true;
                }
            }
            "terminal" => {
                if let Some(&at) = by_id.get(&id) {
                    jobs[at].terminal = true;
                }
            }
            // A compaction watermark carries the pre-compaction max id
            // in its `job` field — already folded into `stats.max_id`.
            _ => {}
        }
    }
    stats.already_terminal = jobs.iter().filter(|job| job.terminal).count();
    jobs.retain(|job| !job.terminal);
    (jobs, stats)
}

/// A line's `event` (empty when absent or not a string) and `job` (0 when
/// absent), each its first occurrence; `None` when the line is not valid
/// JSON or its `job` is not an exact integer in `0..=2^53`.
fn event_of(json: &str) -> Option<(Cow<'_, str>, u64)> {
    let (mut event, mut job) = (None, None);
    walk_fields(json, ParseLimits::default(), |field| match &*field.key {
        "event" if event.is_none() => event = Some(field),
        "job" if job.is_none() => job = Some(field),
        _ => {}
    })
    .ok()?;
    let id = match job {
        None => 0,
        Some(field) => {
            let n = field.as_f64()?;
            if n.fract() != 0.0 || !(0.0..=MAX_ID as f64).contains(&n) {
                return None;
            }
            n as u64
        }
    };
    let event = event.and_then(|field| field.as_str()).unwrap_or_default();
    Some((event, id))
}

/// The live job a `submitted` line describes: its first `tenant`, `trace`
/// and `spec`.
fn live_job(job: &Submitted) -> LiveJob {
    let (mut tenant, mut trace, mut spec) = (None, None, None);
    let json = unframe_line(job.line).expect("the fold verified this line");
    walk_fields(json, ParseLimits::default(), |field| {
        let slot = match &*field.key {
            "tenant" => &mut tenant,
            "trace" => &mut trace,
            "spec" => &mut spec,
            _ => return,
        };
        slot.get_or_insert(field);
    })
    .expect("the fold validated this line");
    let text = |field: Option<Field>| field.and_then(|f| f.as_str()).map(Cow::into_owned);
    LiveJob {
        id: job.id,
        tenant: text(tenant),
        spec: spec.map_or(Value::Null, |f| f.value()),
        trace: text(trace),
        dispatched: job.dispatched,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

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
        let (journal, live, stats) = Journal::open(&dir).unwrap();
        assert!(live.is_empty());
        assert_eq!(stats.max_id, 7);
        journal.compact().unwrap();
        drop(journal);
        // Second restart with no intervening submissions: still 7. This
        // is the id-reuse regression — before the watermark, this replay
        // of an empty live set reported max_id 0.
        let (_, live, stats) = Journal::open(&dir).unwrap();
        assert!(live.is_empty());
        assert_eq!(stats.max_id, 7, "id high-water mark lost at compaction");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_rewrites_the_log_only_when_compaction_changes_it() {
        use std::os::unix::fs::MetadataExt;
        let dir = std::env::temp_dir().join(format!("agcm-journal-cl-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join(LOG_NAME);
        let inode = || std::fs::metadata(&path).unwrap().ino();
        // An empty log stays empty, in place.
        drop(Journal::open(&dir).unwrap());
        let empty = inode();
        drop(Journal::open(&dir).unwrap());
        assert_eq!(inode(), empty, "an empty log is not rewritten");
        assert_eq!(std::fs::read(&path).unwrap(), b"");
        {
            let (journal, _, _) = Journal::open(&dir).unwrap();
            journal.submitted(1, None, None, &spec());
            journal.submitted(2, None, None, &spec());
            journal.on_dispatch(102, Some(2));
            journal.on_terminal(&terminal_record(1));
        }
        // One finished job is far below the floor: the open appends to
        // the log as it is.
        let before = std::fs::read(&path).unwrap();
        let (journal, live, _) = Journal::open(&dir).unwrap();
        assert_eq!(live.len(), 1);
        assert_eq!(inode(), empty, "a log under the floor is left as it is");
        assert_eq!(std::fs::read(&path).unwrap(), before);
        assert_eq!(journal.stats().compactions, 0);
        // Compacting drops the terminal history into a new file.
        journal.compact().unwrap();
        drop(journal);
        let compacted = std::fs::read(&path).unwrap();
        assert_ne!(compacted, before, "terminal history is dropped");
        assert_ne!(inode(), empty, "compaction publishes a new file");
        // A clean reopen of the compacted log keeps its inode and bytes.
        let written = inode();
        for _ in 0..2 {
            let (_, live, stats) = Journal::open(&dir).unwrap();
            assert_eq!((live.len(), stats.max_id), (1, 2));
            assert_eq!(inode(), written, "a compacted log is left as it is");
            assert_eq!(std::fs::read(&path).unwrap(), compacted);
        }
        // Compacting it again writes the same bytes.
        Journal::open(&dir).unwrap().0.compact().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), compacted);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_compacts_when_dead_bytes_pass_the_floor_or_the_tail_is_torn() {
        use agcm_ckptstore::durable::COMPACTION_FLOOR;
        let dir = std::env::temp_dir().join(format!("agcm-journal-rule-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join(LOG_NAME);
        let size = || std::fs::metadata(&path).unwrap().len();
        let (journal, _, _) = Journal::open(&dir).unwrap();
        journal.submitted(1, None, None, &spec());
        journal.on_dispatch(101, Some(1));
        let live = size();
        let mut id = 1;
        // A journal on its own only counts: finished jobs pile up past the
        // floor, and the rule says so.
        while size() - live <= COMPACTION_FLOOR {
            id += 1;
            journal.submitted(id, None, None, &spec());
            assert!(!journal.compaction_due());
            journal.rejected(id, "full");
        }
        assert!(journal.compaction_due());
        let stats = journal.stats();
        assert_eq!((stats.compactions, stats.live_jobs), (0, 1));
        assert_eq!(stats.dead_bytes, size() - live);
        drop(journal);
        // The open applies the rule: the log shrinks to the watermark and
        // the live job, and the open reports what it rewrote.
        let (journal, jobs, stats) = Journal::open(&dir).unwrap();
        assert_eq!(stats.lines as u64, 2 + 2 * (id - 1));
        assert_eq!((jobs.len(), jobs[0].id, jobs[0].dispatched), (1, 1, true));
        let j = journal.stats();
        assert_eq!((j.compactions, j.compacted_live), (1, 1));
        assert_eq!(j.dropped_terminal as u64, id - 1);
        assert!(!journal.compaction_due());
        let watermark = std::fs::read_to_string(&path).unwrap().lines().count();
        assert_eq!(watermark, 3, "watermark, submitted, dispatched");
        assert_eq!(j.dead_bytes, size() - live, "the watermark");
        // A last line without its newline is a torn tail: the open
        // rewrites it, so the next append starts a line of its own.
        journal.submitted(id + 1, None, None, &spec());
        drop(journal);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.trim_end()).unwrap();
        let (journal, jobs, stats) = Journal::open(&dir).unwrap();
        assert_eq!((jobs.len(), stats.corrupt), (2, 0));
        assert_eq!(journal.stats().compactions, 1);
        let rewritten = std::fs::read_to_string(&path).unwrap();
        assert!(rewritten.ends_with('\n'));
        assert!(rewritten.lines().skip(1).eq(text.lines().skip(1)));
        journal.submitted(id + 2, None, None, &spec());
        drop(journal);
        let (_, jobs, stats) = Journal::open(&dir).unwrap();
        assert_eq!((jobs.len(), stats.corrupt), (3, 0));
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
            let (journal, live, _) = Journal::open(&dir).unwrap();
            assert_eq!(live.len(), 2);
            assert_eq!(live[0].trace.as_deref(), Some(encoded));
            assert_eq!(live[1].trace, None);
            journal.compact().unwrap();
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
        // Compact once so the log is the compacted form: watermark first,
        // then the live job. Then flip a byte inside the watermark line.
        Journal::open(&dir).unwrap().0.compact().unwrap();
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
    fn a_job_id_that_is_not_an_exact_integer_up_to_2_pow_53_stops_replay() {
        // `1e20` used to fold to `u64::MAX`, and the server seeds its id
        // counter with `max_id + 1`: in release it wrapped to 0 and acked
        // ids already in the log, in debug the start panicked.
        let dir = std::env::temp_dir().join(format!("agcm-journal-id-{}", std::process::id()));
        for (job, corrupt, max_id) in [
            ("1e20", 1, 0),
            ("9007199254740994", 1, 0),
            ("-1", 1, 0),
            ("1.5", 1, 0),
            ("\"7\"", 1, 0),
            ("null", 1, 0),
            ("9007199254740992", 0, 1 << 53),
            ("7e0", 0, 7),
        ] {
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            let mut log = String::new();
            frame_line(
                &mut log,
                &format!("{{\"event\":\"watermark\",\"job\":{job}}}"),
            );
            push_line(&mut log, &submitted_value(3, None, None, &spec()));
            std::fs::write(dir.join(LOG_NAME), &log).unwrap();
            let (_, live, stats) = Journal::open(&dir).unwrap();
            assert_eq!(
                (stats.corrupt, stats.max_id),
                (corrupt, max_id),
                "job {job}"
            );
            assert_eq!(
                live.len(),
                1 - corrupt,
                "job {job}: replay stops at the line"
            );
        }
        // An absent `job` still reads as 0.
        assert_eq!(
            event_of("{\"event\":\"watermark\"}"),
            Some(("watermark".into(), 0))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Replay as it was before the field walk: every line parsed into a
    /// `Value` tree and folded, every `submitted` line's spec cloned. The
    /// oracle for [`fold`], with two rules added since, each making its
    /// line corrupt: a `job` that is present but not an exact integer in
    /// `0..=2^53`, and a second `submitted` line for one id.
    fn value_fold(text: &str) -> (Vec<LiveJob>, ReplayStats) {
        let bad_id = |value: &Value| {
            value.get("job").is_some_and(|job| {
                job.as_f64()
                    .is_none_or(|n| n.fract() != 0.0 || !(0.0..=MAX_ID as f64).contains(&n))
            })
        };
        let mut stats = ReplayStats::default();
        let mut jobs: Vec<(LiveJob, bool)> = Vec::new(); // (job, terminal)
        let mut by_id: HashMap<u64, usize> = HashMap::new();
        for line in text.lines() {
            let Some(value) = unframe_line(line)
                .and_then(|json| Value::parse(json).ok())
                .filter(|value| !bad_id(value))
            else {
                stats.corrupt += 1;
                break;
            };
            let event = value.get("event").and_then(Value::as_str).unwrap_or("");
            let id = value.get("job").and_then(Value::as_f64).unwrap_or(0.0) as u64;
            if event == "submitted" && by_id.contains_key(&id) {
                stats.corrupt += 1;
                break;
            }
            stats.lines += 1;
            stats.max_id = stats.max_id.max(id);
            match event {
                "submitted" => {
                    let text_of =
                        |k: &str| value.get(k).and_then(Value::as_str).map(str::to_string);
                    by_id.insert(id, jobs.len());
                    jobs.push((
                        LiveJob {
                            id,
                            tenant: text_of("tenant"),
                            spec: value.get("spec").cloned().unwrap_or(Value::Null),
                            trace: text_of("trace"),
                            dispatched: false,
                        },
                        false,
                    ));
                }
                "dispatched" => {
                    if let Some(&at) = by_id.get(&id) {
                        jobs[at].0.dispatched = true;
                    }
                }
                "terminal" => {
                    if let Some(&at) = by_id.get(&id) {
                        jobs[at].1 = true;
                    }
                }
                _ => {}
            }
        }
        let mut live = Vec::new();
        for (job, terminal) in jobs {
            if terminal {
                stats.already_terminal += 1;
            } else {
                live.push(job);
            }
        }
        (live, stats)
    }

    /// One journal line's JSON, drawn from what the writer emits and what
    /// it never does: reordered, duplicate and escaped keys, escaped
    /// values, whitespace, wrong types, bad ids, missing fields, documents
    /// that are not objects or not valid.
    fn mutant_line(next: &mut impl FnMut(usize) -> usize) -> String {
        fn pick<'a>(next: &mut impl FnMut(usize) -> usize, from: &[&'a str]) -> &'a str {
            from[next(from.len())]
        }
        if next(12) == 0 {
            return pick(
                next,
                &[
                    "[1,2]",
                    "\"submitted\"",
                    "42",
                    "null",
                    "{}",
                    "[]",
                    " {} ",
                    "{\"job\":3}x",
                ],
            )
            .to_string();
        }
        let event = pick(
            next,
            &[
                "\"submitted\"",
                "\"submitted\"",
                "\"submitted\"",
                "\"dispatched\"",
                "\"dispatched\"",
                "\"terminal\"",
                "\"terminal\"",
                "\"watermark\"",
                "\"submitt\\u0065d\"",
                "\"other\"",
                "5",
                "null",
            ],
        );
        let ids = ["0", "1", "2", "3", "4", "5", "6", "7", "3.0", "2e0", "-0"];
        let bad_ids = ["1e20", "-1", "1.5", "\"3\"", "true", "9007199254740994"];
        let job = if next(60) == 0 {
            pick(next, &bad_ids).to_string()
        } else if next(40) == 0 {
            "9007199254740992".to_string()
        } else {
            pick(next, &ids).to_string()
        };
        let text = [
            "\"alice\"",
            "\"b\\u00f6b\"",
            "\"é\"",
            "7",
            "null",
            "[]",
            "{\"x\":1}",
            "\"00000000000000000000000000000abc-0000000000000123-0000000000000000\"",
        ];
        let spec = [
            "{\"name\":\"j\",\"grid\":[24,12,2],\"steps\":4}",
            "{\"name\":\"k\",\"nested\":{\"a\":[true,false,null,-1.5e3]}}",
            "\"spec\"",
            "[]",
        ];
        let deep = format!("{}1{}", "[".repeat(520), "]".repeat(520));
        let bad_specs = ["1e999", "\"raw\ttab\"", "\"bad \\x escape\"", &deep];
        let mut members: Vec<(String, String)> = Vec::new();
        let key =
            |plain: &'static str, escaped: &'static str, next: &mut dyn FnMut(usize) -> usize| {
                if next(10) == 0 { escaped } else { plain }.to_string()
            };
        if next(20) != 0 {
            members.push((key("\"event\"", "\"\\u0065vent\"", next), event.to_string()));
        }
        if next(20) != 0 {
            members.push((key("\"job\"", "\"j\\u006fb\"", next), job));
        }
        for (name, values) in [("\"tenant\"", &text), ("\"trace\"", &text)] {
            if next(4) != 0 {
                members.push((name.to_string(), pick(next, values).to_string()));
            }
        }
        if next(6) != 0 {
            let value = match next(60) {
                0 => pick(next, &bad_specs).to_string(),
                _ => pick(next, &spec).to_string(),
            };
            members.push(("\"spec\"".to_string(), value));
        }
        if next(8) == 0 {
            members.push(("\"status\"".to_string(), "\"completed\"".to_string()));
        }
        // A duplicate of a present key, before or after the original.
        if !members.is_empty() && next(8) == 0 {
            let (k, _) = members[next(members.len())].clone();
            let v = match &*k {
                "\"event\"" => pick(next, &["\"terminal\"", "\"submitted\"", "1"]).to_string(),
                "\"job\"" => pick(next, &ids).to_string(),
                _ => pick(next, &text).to_string(),
            };
            let at = next(members.len() + 1);
            members.insert(at, (k, v));
        }
        if next(3) == 0 {
            for i in (1..members.len()).rev() {
                members.swap(i, next(i + 1));
            }
        }
        let ws = |next: &mut dyn FnMut(usize) -> usize| if next(6) == 0 { " " } else { "" };
        let mut json = String::from("{");
        for (i, (k, v)) in members.iter().enumerate() {
            if i > 0 {
                json.push(',');
            }
            json.push_str(ws(next));
            json.push_str(k);
            json.push_str(ws(next));
            json.push(':');
            json.push_str(ws(next));
            json.push_str(v);
        }
        json.push('}');
        json
    }

    #[test]
    fn replay_matches_the_value_fold_on_a_mutation_corpus() {
        let mut x = 0x243f_6a88_85a3_08d3u64;
        let mut next = |n: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % n as u64) as usize
        };
        let (mut lines, mut corrupt, mut live, mut terminal) = (0, 0, 0, 0);
        for case in 0..3_000 {
            let mut log = String::new();
            for _ in 0..next(24) {
                let mut json = mutant_line(&mut next);
                match next(40) {
                    // Broken JSON under a recomputed checksum: a character
                    // dropped, or one of the grammar's own bytes put in.
                    0 | 1 => {
                        const BYTES: &[u8] = b"{}[],:\"\\ 0e-.tx";
                        let at = json.char_indices().nth(next(json.chars().count()));
                        let at = at.unwrap().0;
                        if next(2) == 0 {
                            json.remove(at);
                        } else {
                            json.insert(at, BYTES[next(BYTES.len())] as char);
                        }
                        frame_line(&mut log, &json);
                    }
                    // Torn: a framed line cut short, the checksum kept.
                    2 => {
                        let mut framed = String::new();
                        frame_line(&mut framed, &json);
                        let cut = framed.char_indices().nth(next(framed.chars().count() - 1));
                        log.push_str(&framed[..cut.unwrap().0]);
                        log.push('\n');
                    }
                    _ => frame_line(&mut log, &json),
                }
            }
            let want = value_fold(&log);
            let (jobs, stats) = fold(&log);
            let got = (jobs.iter().map(live_job).collect::<Vec<_>>(), stats);
            assert_eq!(got, want, "case {case}:\n{log}");
            lines += got.1.lines;
            corrupt += got.1.corrupt;
            live += got.0.len();
            terminal += got.1.already_terminal;
        }
        println!("mutation corpus: {lines} lines replayed, {corrupt} corrupt, {live} live jobs, {terminal} terminal");
        assert!(lines > 10_000 && corrupt > 1_000 && live > 2_000 && terminal > 200);
    }

    /// A live job as the tests compare it: id, tenant, trace, dispatched
    /// and the spec's text.
    type Job = (u64, Option<String>, Option<String>, bool, String);

    /// Replay folded per id instead of per line: a job is the first
    /// `submitted` line of its id, and a `dispatched` or `terminal` line
    /// applies when it comes after that line.
    fn reference_fold(text: &str) -> (Vec<Job>, usize, u64) {
        let mut events: BTreeMap<u64, Vec<(usize, Value)>> = BTreeMap::new();
        let mut max_id = 0;
        for (at, line) in text.lines().enumerate() {
            let Some(value) = unframe_line(line).and_then(|json| Value::parse(json).ok()) else {
                break;
            };
            let id = value.get("job").and_then(Value::as_f64).unwrap() as u64;
            max_id = max_id.max(id);
            events.entry(id).or_default().push((at, value));
        }
        let mut live = Vec::new();
        let mut terminal = 0;
        for (id, evs) in &events {
            let kind = |v: &Value| v.get("event").and_then(Value::as_str).unwrap().to_string();
            let Some((born, sub)) = evs.iter().find(|(_, v)| kind(v) == "submitted") else {
                continue;
            };
            let after = |what: &str| evs.iter().any(|(at, v)| at > born && kind(v) == what);
            if after("terminal") {
                terminal += 1;
                continue;
            }
            let text_of = |k: &str| sub.get(k).and_then(Value::as_str).map(str::to_string);
            live.push((
                *born,
                (
                    *id,
                    text_of("tenant"),
                    text_of("trace"),
                    after("dispatched"),
                    sub.get("spec").unwrap().to_string(),
                ),
            ));
        }
        live.sort_by_key(|(born, _)| *born);
        (
            live.into_iter().map(|(_, job)| job).collect(),
            terminal,
            max_id,
        )
    }

    #[test]
    fn replay_at_scale_matches_a_per_id_fold() {
        const JOBS: u64 = 20_000;
        let dir = std::env::temp_dir().join(format!("agcm-journal-scale-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        let terminal = |id: u64| {
            Value::obj(vec![
                ("event", Value::Str("terminal".into())),
                ("job", Value::Num(id as f64)),
                ("status", Value::Str("completed".into())),
            ])
        };
        // Jobs are submitted in id order; their dispatches and terminals
        // land later in a shuffled order, a few before their submission.
        let mut log = String::new();
        let mut later: Vec<Value> = Vec::new();
        for id in 1..=JOBS {
            let spec = Value::obj(vec![("name", Value::Str(format!("job-{id}")))]);
            let tenant = ["alice", "bob"].get(next(3) as usize).copied();
            let trace = (next(2) == 0).then(|| format!("{id:032x}-{:016x}-0", id * 7));
            push_line(
                &mut log,
                &submitted_value(id, tenant, trace.as_deref(), &spec),
            );
            match next(4) {
                0 => {}
                1 => later.push(event_value("dispatched", id)),
                2 => later.push(terminal(id)),
                _ => {
                    later.push(event_value("dispatched", id));
                    later.push(terminal(id));
                }
            }
            if next(50) == 0 {
                push_line(&mut log, &event_value("dispatched", id + 1 + next(5)));
            }
            while !later.is_empty() && next(3) == 0 {
                let pick = next(later.len() as u64) as usize;
                push_line(&mut log, &later.swap_remove(pick));
            }
        }
        while !later.is_empty() {
            let pick = next(later.len() as u64) as usize;
            push_line(&mut log, &later.swap_remove(pick));
        }
        // A crash mid-append tears the last line.
        push_line(&mut log, &terminal(1));
        log.truncate(log.len() - 7);
        std::fs::write(dir.join(LOG_NAME), &log).unwrap();

        let (want_live, want_terminal, want_max) = reference_fold(&log);
        let started = std::time::Instant::now();
        let (_, live, stats) = Journal::open(&dir).unwrap();
        println!(
            "journal replay: {} lines, {} live jobs in {:.1} ms",
            stats.lines,
            live.len(),
            started.elapsed().as_secs_f64() * 1e3
        );
        let got: Vec<_> = live
            .iter()
            .map(|j| {
                (
                    j.id,
                    j.tenant.clone(),
                    j.trace.clone(),
                    j.dispatched,
                    j.spec.to_string(),
                )
            })
            .collect();
        assert_eq!(stats.corrupt, 1, "the torn line");
        assert_eq!(got, want_live);
        assert_eq!(stats.already_terminal, want_terminal);
        assert_eq!(stats.max_id, want_max);
        assert!(want_terminal > 0 && !want_live.is_empty());
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
