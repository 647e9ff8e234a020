//! Chrome trace-event export.
//!
//! Serializes a [`Timeline`] in the Chrome trace-event JSON format, which
//! Perfetto (<https://ui.perfetto.dev>) and `chrome://tracing` load
//! directly. Layout:
//!
//! * **process 1 — "virtual (cost model)"**: one track (tid) per rank,
//!   spans positioned at cost-model virtual time. This is the paper's
//!   machine view: what the run looks like on a calibrated Paragon/T3D.
//! * **process 2 — "wall clock"**: the same spans at real wall time on
//!   the machine that recorded the trace, present when the trace carries
//!   wall stamps.
//!
//! All spans are "complete" events (`ph:"X"`) with microsecond `ts`/`dur`,
//! plus `M`-phase metadata records naming processes and threads.
//!
//! The *analyzed* export ([`to_chrome_json_analyzed`]) additionally emits:
//!
//! * **flow events** (`ph:"s"`/`ph:"f"` — Perfetto draws arrows) from
//!   every matched send to its receive on the virtual tracks;
//! * **counter tracks** (`ph:"C"`): global bytes-in-flight, and a per-rank
//!   0/1 load counter that drops during late-sender waits;
//! * **process 3 — "critical path"**: one track rendering the extracted
//!   critical path, each segment named by its phase and kind.

use crate::analysis::TraceAnalysis;
use crate::json::Value;
use crate::timeline::Timeline;

/// Process id of the virtual (cost-model) timeline.
pub const VIRTUAL_PID: usize = 1;
/// Process id of the wall-clock timeline.
pub const WALL_PID: usize = 2;
/// Process id of the critical-path track.
pub const CRITICAL_PID: usize = 3;

fn metadata(name: &str, pid: usize, tid: usize, value: &str) -> Value {
    Value::obj(vec![
        ("name", Value::Str(name.into())),
        ("ph", Value::Str("M".into())),
        ("pid", Value::Num(pid as f64)),
        ("tid", Value::Num(tid as f64)),
        ("args", Value::obj(vec![("name", Value::Str(value.into()))])),
    ])
}

fn complete(name: &str, pid: usize, tid: usize, ts_us: f64, dur_us: f64) -> Value {
    Value::obj(vec![
        ("name", Value::Str(name.into())),
        ("cat", Value::Str("phase".into())),
        ("ph", Value::Str("X".into())),
        ("ts", Value::Num(ts_us)),
        ("dur", Value::Num(dur_us)),
        ("pid", Value::Num(pid as f64)),
        ("tid", Value::Num(tid as f64)),
    ])
}

fn flow(ph: &str, id: usize, tid: usize, ts_us: f64, args: Vec<(&str, Value)>) -> Value {
    let mut pairs = vec![
        ("name", Value::Str("msg".into())),
        ("cat", Value::Str("msg".into())),
        ("ph", Value::Str(ph.into())),
        ("id", Value::Num(id as f64)),
        ("ts", Value::Num(ts_us)),
        ("pid", Value::Num(VIRTUAL_PID as f64)),
        ("tid", Value::Num(tid as f64)),
    ];
    if ph == "f" {
        // Bind to the enclosing slice so the arrow head lands on the span.
        pairs.push(("bp", Value::Str("e".into())));
    }
    if !args.is_empty() {
        pairs.push(("args", Value::obj(args)));
    }
    Value::obj(pairs)
}

fn counter(name: &str, tid: usize, ts_us: f64, key: &str, value: f64) -> Value {
    Value::obj(vec![
        ("name", Value::Str(name.into())),
        ("ph", Value::Str("C".into())),
        ("ts", Value::Num(ts_us)),
        ("pid", Value::Num(VIRTUAL_PID as f64)),
        ("tid", Value::Num(tid as f64)),
        ("args", Value::obj(vec![(key, Value::Num(value))])),
    ])
}

/// The span and metadata events shared by both exports.
fn base_events(timeline: &Timeline) -> Vec<Value> {
    let n_ranks = timeline.finish_times.len();
    let has_walls = timeline
        .spans
        .iter()
        .any(|s| s.wall_start.is_some() && s.wall_end.is_some());

    let mut events = Vec::new();
    events.push(metadata(
        "process_name",
        VIRTUAL_PID,
        0,
        "virtual (cost model)",
    ));
    for rank in 0..n_ranks {
        events.push(metadata(
            "thread_name",
            VIRTUAL_PID,
            rank,
            &format!("rank {rank}"),
        ));
    }
    if has_walls {
        events.push(metadata("process_name", WALL_PID, 0, "wall clock"));
        for rank in 0..n_ranks {
            events.push(metadata(
                "thread_name",
                WALL_PID,
                rank,
                &format!("rank {rank}"),
            ));
        }
    }

    for span in &timeline.spans {
        events.push(complete(
            span.name,
            VIRTUAL_PID,
            span.rank,
            span.virt_start * 1.0e6,
            span.virt_duration() * 1.0e6,
        ));
        if let (Some(w0), Some(w1)) = (span.wall_start, span.wall_end) {
            events.push(complete(
                span.name,
                WALL_PID,
                span.rank,
                w0 * 1.0e6,
                (w1 - w0) * 1.0e6,
            ));
        }
    }
    events
}

fn wrap(events: Vec<Value>) -> Value {
    Value::obj(vec![
        ("traceEvents", Value::Arr(events)),
        ("displayTimeUnit", Value::Str("ms".into())),
    ])
}

/// Build the trace document: `{"traceEvents": [...], "displayTimeUnit": "ms"}`.
pub fn to_chrome_json(timeline: &Timeline) -> Value {
    wrap(base_events(timeline))
}

/// Build the *analyzed* trace document: the plain export plus flow arrows
/// for every matched message, bytes-in-flight and per-rank load counters,
/// and the critical path as its own process.
pub fn to_chrome_json_analyzed(analysis: &TraceAnalysis) -> Value {
    let mut events = base_events(&analysis.timeline);
    let n_ranks = analysis.timeline.finish_times.len();

    // Flow arrows: start at the send's completion on the sender's track,
    // finish at the receive's completion on the receiver's track.
    for (id, f) in analysis.flows.iter().enumerate() {
        events.push(flow(
            "s",
            id,
            f.pair.src,
            f.send_end * 1.0e6,
            vec![
                ("bytes", Value::Num(f.pair.bytes as f64)),
                ("seq", Value::Num(f.pair.seq as f64)),
                ("wait_us", Value::Num(f.wait * 1.0e6)),
            ],
        ));
        events.push(flow("f", id, f.pair.dst, f.recv_end * 1.0e6, Vec::new()));
    }

    // Bytes-in-flight counter: +bytes when a message leaves the sender,
    // −bytes when its receive completes.
    let mut changes: Vec<(f64, f64)> = Vec::with_capacity(2 * analysis.flows.len());
    for f in &analysis.flows {
        changes.push((f.send_end, f.pair.bytes as f64));
        changes.push((f.recv_end, -(f.pair.bytes as f64)));
    }
    changes.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut in_flight = 0.0;
    for (ts, delta) in changes {
        in_flight += delta;
        events.push(counter(
            "bytes in flight",
            0,
            ts * 1.0e6,
            "bytes",
            in_flight,
        ));
    }

    // Per-rank load counters: 1 while busy, 0 during late-sender waits and
    // after the rank finishes.
    let mut idle_intervals: Vec<Vec<(f64, f64)>> = vec![Vec::new(); n_ranks];
    for f in &analysis.flows {
        if f.wait > 0.0 {
            idle_intervals[f.pair.dst].push((f.recv_end - f.wait, f.recv_end));
        }
    }
    for (rank, intervals) in idle_intervals.iter_mut().enumerate() {
        if analysis.schedule.times[rank].is_empty() {
            continue;
        }
        intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
        let name = format!("rank {rank} load");
        events.push(counter(&name, rank, 0.0, "busy", 1.0));
        for &(from, to) in intervals.iter() {
            events.push(counter(&name, rank, from * 1.0e6, "busy", 0.0));
            events.push(counter(&name, rank, to * 1.0e6, "busy", 1.0));
        }
        events.push(counter(
            &name,
            rank,
            analysis.schedule.finish_times[rank] * 1.0e6,
            "busy",
            0.0,
        ));
    }

    // The critical path as its own process, one span per segment.
    events.push(metadata("process_name", CRITICAL_PID, 0, "critical path"));
    events.push(metadata("thread_name", CRITICAL_PID, 0, "path"));
    for seg in &analysis.critical.segments {
        let name = match seg.phase {
            Some(p) => format!("{p} [{}] r{}", seg.kind.label(), seg.rank),
            None => format!("[{}] r{}", seg.kind.label(), seg.rank),
        };
        events.push(complete(
            &name,
            CRITICAL_PID,
            0,
            seg.start * 1.0e6,
            seg.duration() * 1.0e6,
        ));
    }

    wrap(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use agcm_costmodel::machine::MachineProfile;
    use agcm_mps::trace::{Event, WorldTrace};

    fn machine() -> MachineProfile {
        MachineProfile {
            name: "test",
            flops_per_sec: 1.0e6,
            latency_s: 1.0e-3,
            bytes_per_sec: 1.0e6,
            send_overhead_s: 0.0,
            recv_overhead_s: 0.0,
        }
    }

    #[test]
    fn exports_one_track_per_rank() {
        let trace = WorldTrace::from_ranks(vec![
            vec![
                Event::PhaseBegin("dynamics"),
                Event::Flops(1.0e6),
                Event::PhaseEnd("dynamics"),
            ],
            vec![
                Event::PhaseBegin("dynamics"),
                Event::Flops(2.0e6),
                Event::PhaseEnd("dynamics"),
            ],
        ]);
        let tl = Timeline::from_trace(&trace, &machine()).unwrap();
        let doc = to_chrome_json(&tl);
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        // 1 process_name + 2 thread_name + 2 complete events.
        assert_eq!(events.len(), 5);
        let spans: Vec<&Value> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("X"))
            .collect();
        assert_eq!(spans.len(), 2);
        let tids: Vec<f64> = spans
            .iter()
            .map(|e| e.get("tid").unwrap().as_f64().unwrap())
            .collect();
        assert_eq!(tids, vec![0.0, 1.0]);
        // Rank 1's dynamics runs 2 virtual seconds = 2e6 µs.
        assert_eq!(spans[1].get("dur").unwrap().as_f64(), Some(2.0e6));
    }

    #[test]
    fn analyzed_export_adds_flows_counters_and_critical_track() {
        let trace = WorldTrace::from_ranks(vec![
            vec![
                Event::PhaseBegin("produce"),
                Event::Flops(2.0e6),
                Event::Send {
                    to: 1,
                    bytes: 1000,
                    seq: 0,
                },
                Event::PhaseEnd("produce"),
            ],
            vec![
                Event::PhaseBegin("consume"),
                Event::Recv {
                    from: 0,
                    bytes: 1000,
                    seq: 0,
                },
                Event::PhaseEnd("consume"),
            ],
        ]);
        let analysis = crate::analysis::analyze(&trace, &machine()).unwrap();
        let doc = to_chrome_json_analyzed(&analysis);
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();

        let phs = |ph: &str| -> Vec<&Value> {
            events
                .iter()
                .filter(|e| e.get("ph").unwrap().as_str() == Some(ph))
                .collect()
        };
        // One matched message → one s/f flow pair, same id, src/dst tids.
        let starts = phs("s");
        let finishes = phs("f");
        assert_eq!(starts.len(), 1);
        assert_eq!(finishes.len(), 1);
        assert_eq!(
            starts[0].get("id").unwrap().as_f64(),
            finishes[0].get("id").unwrap().as_f64()
        );
        assert_eq!(starts[0].get("tid").unwrap().as_f64(), Some(0.0));
        assert_eq!(finishes[0].get("tid").unwrap().as_f64(), Some(1.0));
        assert_eq!(finishes[0].get("bp").unwrap().as_str(), Some("e"));

        // Counters: 2 bytes-in-flight changes + per-rank load edges
        // (rank 0: on/off; rank 1: on, wait-off/on, off).
        let counters = phs("C");
        let in_flight: Vec<&&Value> = counters
            .iter()
            .filter(|e| e.get("name").unwrap().as_str() == Some("bytes in flight"))
            .collect();
        assert_eq!(in_flight.len(), 2);
        assert_eq!(
            in_flight[0]
                .get("args")
                .unwrap()
                .get("bytes")
                .unwrap()
                .as_f64(),
            Some(1000.0)
        );
        assert_eq!(
            in_flight[1]
                .get("args")
                .unwrap()
                .get("bytes")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
        assert!(counters
            .iter()
            .any(|e| e.get("name").unwrap().as_str() == Some("rank 1 load")));

        // Critical-path process exists and its spans cover the makespan.
        let critical_spans: Vec<&Value> = events
            .iter()
            .filter(|e| {
                e.get("ph").unwrap().as_str() == Some("X")
                    && e.get("pid").unwrap().as_f64() == Some(CRITICAL_PID as f64)
            })
            .collect();
        assert!(!critical_spans.is_empty());
        let total_us: f64 = critical_spans
            .iter()
            .map(|e| e.get("dur").unwrap().as_f64().unwrap())
            .sum();
        assert!((total_us - analysis.waits.makespan * 1.0e6).abs() < 1e-3);
    }

    #[test]
    fn analyzed_export_preserves_plain_events() {
        let trace = WorldTrace::from_ranks(vec![vec![
            Event::PhaseBegin("step"),
            Event::Flops(1.0e6),
            Event::PhaseEnd("step"),
        ]]);
        let analysis = crate::analysis::analyze(&trace, &machine()).unwrap();
        let plain = to_chrome_json(&analysis.timeline);
        let analyzed = to_chrome_json_analyzed(&analysis);
        let plain_events = plain.get("traceEvents").unwrap().as_arr().unwrap();
        let analyzed_events = analyzed.get("traceEvents").unwrap().as_arr().unwrap();
        // The analyzed document starts with exactly the plain events.
        assert!(analyzed_events.len() > plain_events.len());
        for (a, b) in plain_events.iter().zip(analyzed_events) {
            assert_eq!(a.to_string(), b.to_string());
        }
    }

    #[test]
    fn wall_track_appears_only_with_stamps() {
        let mut trace = WorldTrace::from_ranks(vec![vec![
            Event::PhaseBegin("step"),
            Event::PhaseEnd("step"),
        ]]);
        let tl = Timeline::from_trace(&trace, &machine()).unwrap();
        let doc = to_chrome_json(&tl);
        let text = doc.to_string();
        assert!(!text.contains("wall clock"));

        trace.walls = vec![vec![0.5, 1.0]];
        let tl = Timeline::from_trace(&trace, &machine()).unwrap();
        let doc = to_chrome_json(&tl);
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let wall_spans: Vec<&Value> = events
            .iter()
            .filter(|e| {
                e.get("ph").unwrap().as_str() == Some("X")
                    && e.get("pid").unwrap().as_f64() == Some(WALL_PID as f64)
            })
            .collect();
        assert_eq!(wall_spans.len(), 1);
        assert_eq!(wall_spans[0].get("ts").unwrap().as_f64(), Some(0.5e6));
        assert_eq!(wall_spans[0].get("dur").unwrap().as_f64(), Some(0.5e6));
    }
}
