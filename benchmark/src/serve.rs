//! The serving workloads: `agcm-server` on a loopback socket, driven in
//! closed loops by two clients (one connection each at a time — the
//! machine has two cores, and an open loop would need more).
//!
//! A run is a sequence of *segments*; each segment starts a server, lets
//! the two clients work through their job lists, checks every job, and
//! stops the server; the next segment restarts it on the same journal.
//! Every metric is computed per segment.

use crate::calib::{describe_speed, speed, Calibrator};
use crate::inputs::{self, job_body, paper_grid, paper_lats};
use crate::report::Outcome;
use crate::spans::{Recorder, Span, Trace, BENCH};
use crate::stats::{exact, median, percentile, quiet, typical, Better};
use crate::{peak_rss_mb, Budget, Scratch};
use agcm_ensemble::EnsembleConfig;
use agcm_server::client::{get, post_job, ClientResponse};
use agcm_server::{AgcmServer, ServerConfig};
use agcm_telemetry::json::Value;
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;
/// Steps of a cold paper-grid job and the horizon an extension asks for.
const COLD_STEPS: usize = 20;
const EXTEND_STEPS: usize = 30;
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Tiny jobs: the HTTP codec, journal append, admission, dispatch and
    /// world spawn dominate.
    Small,
    /// Paper-grid jobs that compute every step and commit one checkpoint.
    PaperCold,
    /// A warm store: ten identical resubmissions per extension.
    PaperWarm,
}

/// One job a client will submit and wait for.
#[derive(Debug, Clone)]
struct Plan {
    kind: &'static str,
    body: String,
    steps: usize,
    /// The step the store must resume it from.
    resumed_from: Option<u64>,
}

/// A finished job as the client saw it.
#[derive(Debug)]
struct Sample {
    kind: &'static str,
    id: u64,
    steps: usize,
    resumed_from: Option<u64>,
    /// POST sent → 202 read: the durable ack.
    post_ms: f64,
    /// POST sent → 200 body of `/result` read.
    result_ms: f64,
    polls: usize,
    /// Steps the run behind the result computed, by its `summary`.
    computed: Option<u64>,
}

fn json_u64(v: &Value, key: &str) -> Option<u64> {
    v.get(key).and_then(Value::as_f64).map(|n| n as u64)
}

fn expect_status(resp: &ClientResponse, want: u16, what: &str) -> Result<(), String> {
    if resp.status == want {
        Ok(())
    } else {
        Err(format!(
            "{what}: expected {want}, got {} {}",
            resp.status, resp.body
        ))
    }
}

/// Submit one job and poll its result: every millisecond for the first
/// 50 ms (a tiny job or a store hit answers within a few), every 5 ms
/// after that (so polling a 700 ms job does not eat into its compute).
fn drive(addr: SocketAddr, plan: &Plan, rec: &mut Recorder) -> Result<Sample, String> {
    rec.span(BENCH, "job", |rec| {
        let sent = Instant::now();
        let ack = rec
            .span("server", "POST /v1/jobs", |_| {
                post_job(addr, None, &plan.body)
            })
            .map_err(|e| format!("POST: {e}"))?;
        let post_ms = sent.elapsed().as_secs_f64() * 1e3;
        expect_status(&ack, 202, "POST /v1/jobs")?;
        let id = json_u64(&ack.json(), "id").ok_or("202 without an id")?;
        let path = format!("/v1/jobs/{id}/result");
        let mut polls = 0;
        loop {
            polls += 1;
            let resp = rec
                .span("server", "GET /v1/jobs/{id}/result", |_| get(addr, &path))
                .map_err(|e| format!("GET result: {e}"))?;
            if resp.status == 200 {
                let result_ms = sent.elapsed().as_secs_f64() * 1e3;
                let body = resp.json();
                let state = body.get("state").and_then(Value::as_str).unwrap_or("");
                if state != "completed" {
                    return Err(format!("job {id} ended {state:?}"));
                }
                return Ok(Sample {
                    kind: plan.kind,
                    id,
                    steps: plan.steps,
                    resumed_from: plan.resumed_from,
                    post_ms,
                    result_ms,
                    polls,
                    computed: body.get("summary").and_then(|s| json_u64(s, "steps")),
                });
            }
            expect_status(&resp, 409, "GET result before the job finished")?;
            if sent.elapsed() > JOB_TIMEOUT {
                return Err(format!("job {id} timed out"));
            }
            let nap = if sent.elapsed() < Duration::from_millis(50) {
                1
            } else {
                5
            };
            rec.span("ensemble", "wait for the job", |_| {
                std::thread::sleep(Duration::from_millis(nap))
            });
        }
    })
}

/// What the two clients brought back from one phase of a segment.
#[derive(Default)]
struct Phase {
    wall: f64,
    samples: Vec<Sample>,
    errors: Vec<String>,
    spans: Vec<Vec<Span>>,
}

/// Run the clients' job lists to the end, each client in its own thread.
fn run_clients(addr: SocketAddr, lists: &[Vec<Plan>], epoch: Instant, traced: bool) -> Phase {
    let started = Instant::now();
    let per_client: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = lists
            .iter()
            .enumerate()
            .map(|(client, plans)| {
                scope.spawn(move || {
                    let mut rec = Recorder::new(epoch, client, traced);
                    let results: Vec<_> = plans.iter().map(|p| drive(addr, p, &mut rec)).collect();
                    (results, rec.into_spans())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut phase = Phase {
        wall: started.elapsed().as_secs_f64(),
        ..Phase::default()
    };
    for (results, spans) in per_client {
        for r in results {
            match r {
                Ok(s) => phase.samples.push(s),
                Err(e) => phase.errors.push(e),
            }
        }
        phase.spans.push(spans);
    }
    phase
}

/// The job lists of one segment: `[phase][client]`. Only the last phase is
/// measured; an earlier one populates the store.
fn plans(workload: Workload, seed: u64, segment: usize, smoke: bool) -> Vec<Vec<Vec<Plan>>> {
    match workload {
        Workload::Small => {
            let per_client = if smoke { 20 } else { 200 };
            let lists = inputs::small_jobs(seed, segment, CLIENTS, per_client)
                .into_iter()
                .map(|bodies| {
                    bodies
                        .into_iter()
                        .map(|body| Plan {
                            kind: "tiny",
                            body,
                            steps: inputs::TINY_STEPS,
                            resumed_from: None,
                        })
                        .collect()
                })
                .collect();
            vec![lists]
        }
        Workload::PaperCold | Workload::PaperWarm => {
            let lats = paper_lats(seed, segment);
            // A cold job commits once, at its horizon: with a second commit
            // the fsyncs outweigh the model and the disk's mood decides the
            // numbers. The warm store checkpoints every 10 steps, so an
            // extension to 30 commits what it computed.
            let checkpoint_every = if workload == Workload::PaperCold {
                COLD_STEPS
            } else {
                10
            };
            let job =
                |kind: &'static str, client: usize, n: usize, steps: usize, resumed_from| Plan {
                    kind,
                    body: job_body(
                        &format!("{kind}-{segment}-{client}-{n}"),
                        paper_grid(lats[client]),
                        steps,
                        checkpoint_every,
                    ),
                    steps,
                    resumed_from,
                };
            let cold: Vec<Vec<Plan>> = (0..CLIENTS)
                .map(|c| vec![job("cold", c, 0, COLD_STEPS, None)])
                .collect();
            if workload == Workload::PaperCold {
                return vec![cold];
            }
            let resubmits = if smoke { 2 } else { 10 };
            let at = Some(COLD_STEPS as u64);
            let warm = (0..CLIENTS)
                .map(|c| {
                    let mut list: Vec<Plan> = (0..resubmits)
                        .map(|n| job("resubmit", c, n, COLD_STEPS, at))
                        .collect();
                    list.push(job("extend", c, 0, EXTEND_STEPS, at));
                    list
                })
                .collect();
            vec![cold, warm]
        }
    }
}

/// Start a server on `dir` and wait for `/healthz`: the set-up a tenant
/// waits through (journal replay, store open, bind).
fn start_server(dir: &Path) -> Result<(AgcmServer, f64), String> {
    let started = Instant::now();
    let server = AgcmServer::start(ServerConfig {
        journal_dir: dir.to_path_buf(),
        ensemble: EnsembleConfig {
            rank_budget: CLIENTS,
            ..EnsembleConfig::default()
        },
        ..ServerConfig::default()
    })
    .map_err(|e| format!("server start: {e}"))?;
    loop {
        match get(server.local_addr(), "/healthz") {
            Ok(resp) if resp.status == 200 => break,
            _ if started.elapsed() > JOB_TIMEOUT => {
                return Err("server never became healthy".into())
            }
            _ => std::thread::sleep(Duration::from_millis(1)),
        }
    }
    Ok((server, started.elapsed().as_secs_f64()))
}

/// One job's scheduler record, read back after the measured phase.
struct Record {
    queue_ms: f64,
    run_ms: f64,
}

/// `GET /v1/jobs/{id}`: the job must be `completed` and resumed from where
/// its plan says.
fn verify(addr: SocketAddr, sample: &Sample, out: &mut Outcome) -> Option<Record> {
    let who = format!("{} job {}", sample.kind, sample.id);
    let view = match get(addr, &format!("/v1/jobs/{}", sample.id)) {
        Ok(resp) if resp.status == 200 => resp.json(),
        Ok(resp) => {
            out.check(false, || format!("{who}: status read gave {}", resp.status));
            return None;
        }
        Err(e) => {
            out.check(false, || format!("{who}: status read failed: {e}"));
            return None;
        }
    };
    let state = view.get("state").and_then(Value::as_str).unwrap_or("");
    out.check(state == "completed", || format!("{who}: ended {state:?}"));
    let resumed = json_u64(&view, "resumed_from");
    out.check(resumed == sample.resumed_from, || {
        format!(
            "{who}: resumed_from {resumed:?}, expected {:?}",
            sample.resumed_from
        )
    });
    let ms = |key: &str| view.get(key).and_then(Value::as_f64).unwrap_or(0.0) * 1e3;
    Some(Record {
        queue_ms: ms("queue_seconds"),
        run_ms: ms("run_seconds"),
    })
}

/// Numbers of one segment.
#[derive(Default)]
struct Segment {
    /// Machine speed around the timed phase (see `calib`).
    speed: f64,
    setup_s: f64,
    steps_per_s: f64,
    jobs_per_s: f64,
    result_ms: Vec<f64>,
    post_ms: Vec<f64>,
    polls: Vec<f64>,
    records: Vec<Record>,
    /// `result_ms` minus the record's queue and run time, per job.
    remainder_ms: Vec<f64>,
    prefix_hits: f64,
    prefix_lookups: f64,
}

/// What the segments of one run share.
struct Driver<'a> {
    workload: Workload,
    seed: u64,
    smoke: bool,
    scratch: &'a Scratch,
    calibrator: Calibrator,
}

/// Span recording of a traced segment: the run's epoch and where the spans
/// of the timed phase go.
type Tracing<'t> = Option<(Instant, &'t mut Trace)>;

impl<'a> Driver<'a> {
    fn new(workload: Workload, seed: u64, budget: &Budget, scratch: &'a Scratch) -> Driver<'a> {
        Driver {
            workload,
            seed,
            smoke: budget.smoke,
            scratch,
            calibrator: Calibrator::new(CLIENTS),
        }
    }

    /// Run segment `index`. Failed jobs and failed checks land in `out`.
    fn try_segment(
        &mut self,
        index: usize,
        tracing: Tracing,
        out: &mut Outcome,
    ) -> Result<Segment, String> {
        let workload = self.workload;
        // Every segment restarts the server on the run's one journal, so
        // set-up is a real restart: it replays and compacts the previous
        // segment's records, reopens the store and sweeps the lineages
        // whose jobs all finished — which is also what keeps a cold job
        // cold when the seed draws the same latitudes twice.
        let dir = &self.scratch.path().join("journal");
        let (server, setup_s) = start_server(dir)?;
        let addr = server.local_addr();
        let traced = tracing.is_some();
        let epoch = tracing.as_ref().map_or_else(Instant::now, |(e, _)| *e);

        let mut phases: Vec<Phase> = Vec::new();
        let mut before = 0.0;
        for lists in &plans(workload, self.seed, index, self.smoke) {
            // Only the last phase is timed; the calibration before it is the
            // one that counts.
            before = self.calibrator.seconds();
            phases.push(run_clients(addr, lists, epoch, traced));
        }
        let mut seg = Segment {
            speed: speed(before, self.calibrator.seconds()),
            setup_s,
            ..Segment::default()
        };

        // Every job of every phase is an operation; only the last phase is timed.
        let measured = phases.len() - 1;
        for (p, phase) in phases.iter().enumerate() {
            for e in &phase.errors {
                out.operation(|out| out.check(false, || e.clone()));
            }
            for s in &phase.samples {
                out.operation(|out| {
                    // A store hit computes only what lies past the resumed
                    // step: nothing for a resubmission, ten steps for an
                    // extension.
                    let expected = s.steps as u64 - s.resumed_from.unwrap_or(0);
                    out.check(s.computed == Some(expected), || {
                        format!(
                            "{} job {}: computed {:?} steps, expected {expected}",
                            s.kind, s.id, s.computed
                        )
                    });
                    // Reading 800 records back costs a fifth of a tiny-job
                    // segment, so the untraced run trusts the result body there.
                    let record = (traced || workload != Workload::Small)
                        .then(|| verify(addr, s, out))
                        .flatten();
                    if p == measured {
                        if let Some(r) = record {
                            seg.remainder_ms.push(s.result_ms - r.queue_ms - r.run_ms);
                            seg.records.push(r);
                        }
                    }
                });
            }
        }
        let last = &phases[measured];
        let steps: usize = last.samples.iter().map(|s| s.steps).sum();
        seg.steps_per_s = steps as f64 / last.wall;
        seg.jobs_per_s = last.samples.len() as f64 / last.wall;
        seg.result_ms = last.samples.iter().map(|s| s.result_ms).collect();
        seg.post_ms = last.samples.iter().map(|s| s.post_ms).collect();
        seg.polls = last.samples.iter().map(|s| s.polls as f64).collect();

        if let Some((_, trace)) = tracing {
            if let Ok(resp) = get(addr, "/v1/metrics") {
                let store = resp.json();
                let counter = |key| {
                    store
                        .get("store")
                        .and_then(|s| s.get(key))
                        .and_then(Value::as_f64)
                        .unwrap_or(0.0)
                };
                seg.prefix_hits = counter("prefix_hits");
                seg.prefix_lookups = seg.prefix_hits + counter("prefix_misses");
            }
            for spans in phases.pop().expect("measured phase").spans {
                trace.absorb(spans);
            }
        }
        server.shutdown();
        Ok(seg)
    }

    /// Run segment `index`; `None` if it could not start or completed no
    /// job (recorded in `out`).
    fn segment(&mut self, index: usize, tracing: Tracing, out: &mut Outcome) -> Option<Segment> {
        match self.try_segment(index, tracing, out) {
            Ok(seg) if !seg.result_ms.is_empty() => Some(seg),
            Ok(_) => None,
            Err(e) => {
                out.operation(|out| out.check(false, || e));
                None
            }
        }
    }
}

fn column(segments: &[Segment], f: impl Fn(&Segment) -> f64) -> Vec<f64> {
    segments.iter().map(f).collect()
}

fn describe(workload: Workload) -> &'static str {
    match workload {
        Workload::Small => "2 clients x tiny jobs (24x12x2, 4 steps)",
        Workload::PaperCold => {
            "2 clients x 1 cold job (144xLATx9, 20 steps, one checkpoint), swept store"
        }
        Workload::PaperWarm => {
            "2 clients x (resubmits of a stored 20-step run, then 1 extension to 30 steps)"
        }
    }
}

/// End-to-end metrics of a serving workload: segments until the budget is
/// spent.
pub fn end_to_end(workload: Workload, seed: u64, budget: &Budget, scratch: &Scratch) -> Outcome {
    let mut out = Outcome::default();
    let started = Instant::now();
    let mut driver = Driver::new(workload, seed, budget, scratch);
    let mut segments = Vec::new();
    let mut index = 0;
    while budget.wants_more(index, started) {
        segments.extend(driver.segment(index, None, &mut out));
        index += 1;
    }
    if segments.is_empty() {
        out.check(false, || "no segment completed".into());
        return out;
    }
    out.notes.push(format!(
        "{}; {} segments, {} jobs; {:.1} jobs/s",
        describe(workload),
        segments.len(),
        out.attempted,
        median(&column(&segments, |s| s.jobs_per_s))
    ));
    let speeds = column(&segments, |s| s.speed);
    out.notes.push(describe_speed(&speeds));
    out.extras.push((
        "unscaled.steps_per_s",
        median(&column(&segments, |s| s.steps_per_s)),
    ));
    out.extras.push(("machine_speed", median(&speeds)));
    // Times are scaled to the reference machine, segment by segment.
    out.put(
        "setup_s",
        typical(&column(&segments, |s| s.setup_s * s.speed)),
    );
    out.put(
        "steps_per_s",
        typical(&column(&segments, |s| s.steps_per_s / s.speed)),
    );
    out.put(
        "result_ms_p50",
        typical(&column(&segments, |s| median(&s.result_ms) * s.speed)),
    );
    out.put(
        "result_ms_p95",
        typical(&column(&segments, |s| {
            percentile(&s.result_ms, 95.0) * s.speed
        })),
    );
    out.put("peak_rss_mb", exact(peak_rss_mb()));
    out
}

/// The per-layer metrics only a serving workload produces.
const SERVE_ONLY: [&str; 9] = [
    "server.post_ms_p50",
    "server.poll_ms_p50",
    "server.polls_per_job",
    "server.http_overhead_ms",
    "server.jobs_per_s",
    "server.closure_err",
    "ensemble.queue_ms_p50",
    "ensemble.run_ms_p50",
    "ckptstore.prefix_hit_share",
];

/// A model workload never enters the serving layers: their workload-side
/// metrics read 0 there, which is the evidence that it bypasses them.
pub fn not_entered(out: &mut Outcome) {
    for name in SERVE_ONLY {
        out.put(name, exact(0.0));
    }
}

/// Per-layer metrics of a serving workload: untraced and traced segments
/// in turns, spans around the POST, every poll and every wait.
pub fn traced(
    workload: Workload,
    seed: u64,
    budget: &Budget,
    scratch: &Scratch,
    trace: &mut Trace,
) -> Outcome {
    let mut out = Outcome::default();
    let epoch = Instant::now();
    let (mut plain, mut spanned, mut closure) = (Vec::new(), Vec::new(), Vec::new());
    let mut layers = String::new();
    let mut driver = Driver::new(workload, seed, budget, scratch);
    for pair in 0..budget.pick(2, 1) {
        plain.extend(driver.segment(2 * pair, None, &mut out));
        let mut one = Trace::default();
        spanned.extend(driver.segment(2 * pair + 1, Some((epoch, &mut one)), &mut out));
        closure.push(one.closure_err(0));
        layers = one.describe_layers(0);
        trace.absorb(one.spans);
    }
    if plain.is_empty() || spanned.is_empty() {
        out.check(false, || "no traced segment completed".into());
        not_entered(&mut out);
        out.put_trace_overhead(exact(1.0), exact(0.0));
        return out;
    }

    let pooled = |f: fn(&Segment) -> &Vec<f64>| -> Vec<f64> {
        spanned.iter().flat_map(|s| f(s).iter().copied()).collect()
    };
    let polls = trace.durations("GET /v1/jobs/{id}/result");
    let records = |f: fn(&Record) -> f64| -> Vec<f64> {
        spanned
            .iter()
            .flat_map(|s| s.records.iter().map(f))
            .collect()
    };
    let untraced = quiet(&column(&plain, |s| s.steps_per_s), Better::Higher);
    let with_spans = quiet(&column(&spanned, |s| s.steps_per_s), Better::Higher);
    out.notes.push(format!(
        "traced: {}; {} untraced and {} traced segments",
        describe(workload),
        plain.len(),
        spanned.len()
    ));
    out.notes.push(format!("client 0, {layers}"));
    out.put_trace_overhead(untraced, with_spans);
    out.put("server.post_ms_p50", exact(median(&pooled(|s| &s.post_ms))));
    out.put("server.poll_ms_p50", exact(median(&polls) * 1e3));
    let per_job = pooled(|s| &s.polls);
    out.put(
        "server.polls_per_job",
        exact(per_job.iter().sum::<f64>() / per_job.len() as f64),
    );
    out.put(
        "server.http_overhead_ms",
        exact(median(&pooled(|s| &s.remainder_ms))),
    );
    out.put(
        "server.jobs_per_s",
        quiet(&column(&spanned, |s| s.jobs_per_s), Better::Higher),
    );
    out.put("server.closure_err", quiet(&closure, Better::Lower));
    out.put(
        "ensemble.queue_ms_p50",
        exact(median(&records(|r| r.queue_ms))),
    );
    out.put("ensemble.run_ms_p50", exact(median(&records(|r| r.run_ms))));
    let lookups: f64 = spanned.iter().map(|s| s.prefix_lookups).sum();
    let hits: f64 = spanned.iter().map(|s| s.prefix_hits).sum();
    out.put(
        "ckptstore.prefix_hit_share",
        exact(if lookups > 0.0 { hits / lookups } else { 0.0 }),
    );
    out
}
