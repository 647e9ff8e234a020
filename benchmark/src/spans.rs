//! In-memory spans around every call the benchmark makes into a layer.
//!
//! A [`Recorder`] belongs to one thread (a rank or a client); spans nest by
//! a stack, so a span's parent is whatever was open when it began. The
//! recorders of a run are merged into one [`Trace`] at the end, written out
//! once, and reduced to per-layer self times: a span's self time is its
//! duration minus the part its direct children cover.

use agcm_telemetry::json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// Layer of the benchmark's own spans (the root of each tree and the
/// sleeps between polls).
pub const BENCH: &str = "bench";

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    /// Seconds since the run's epoch.
    pub start: f64,
    pub end: f64,
    /// Index of the parent span in the same trace.
    pub parent: Option<usize>,
    /// Rank or client that recorded it.
    pub thread: usize,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// One thread's span recorder. A disabled recorder records nothing, so the
/// untraced and the traced run share the driving code.
pub struct Recorder {
    epoch: Instant,
    thread: usize,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(epoch: Instant, thread: usize, enabled: bool) -> Recorder {
        Recorder {
            epoch,
            thread,
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span.
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            start: self.epoch.elapsed().as_secs_f64(),
            end: f64::NAN,
            parent: self.open.last().copied(),
            thread: self.thread,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.epoch.elapsed().as_secs_f64();
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// The merged spans of one traced workload.
#[derive(Debug, Default)]
pub struct Trace {
    pub spans: Vec<Span>,
}

impl Trace {
    /// Append one thread's spans, re-basing their parent indices.
    pub fn absorb(&mut self, spans: Vec<Span>) {
        let base = self.spans.len();
        self.spans.extend(spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time of every span: duration minus its direct children's.
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::duration).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.duration();
            }
        }
        own
    }

    /// Self seconds per layer, summed over the spans of `thread`.
    pub fn layer_self_seconds(&self, thread: usize) -> BTreeMap<&'static str, f64> {
        let mut by_layer = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            if s.thread == thread {
                *by_layer.entry(s.layer).or_insert(0.0) += own;
            }
        }
        by_layer
    }

    /// Where `thread`'s time went, for the reader of the report.
    pub fn describe_layers(&self, thread: usize) -> String {
        let by_layer = self.layer_self_seconds(thread);
        let total: f64 = by_layer.values().sum();
        let shares: Vec<String> = by_layer
            .iter()
            .map(|(layer, s)| format!("{layer} {:.1}%", s / total * 100.0))
            .collect();
        format!("self time by layer: {}", shares.join(", "))
    }

    /// Closure error on `thread`: how far the self times of the layer
    /// spans are from the wall of the root spans that contain them,
    /// as a share of that wall. What is missing is time the benchmark
    /// spent between its calls into the layers.
    pub fn closure_err(&self, thread: usize) -> f64 {
        let (mut wall, mut layers) = (0.0, 0.0);
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            if s.thread != thread {
                continue;
            }
            match s.parent {
                None => wall += s.duration(),
                Some(_) => layers += own,
            }
        }
        if wall == 0.0 {
            return 0.0;
        }
        (layers - wall).abs() / wall
    }

    /// Total duration of the spans called `name`, over all threads.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .collect()
    }

    pub fn to_json(&self, workload: &str) -> Value {
        let num = Value::Num;
        Value::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Value::obj(vec![
                        ("name", Value::Str(s.name.into())),
                        ("layer", Value::Str(s.layer.into())),
                        ("start", num(s.start)),
                        ("end", num(s.end)),
                        ("parent", s.parent.map_or(Value::Null, |p| num(p as f64))),
                        ("thread", num(s.thread as f64)),
                        ("workload", Value::Str(workload.into())),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name: layer,
            layer,
            start,
            end,
            parent,
            thread: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // root 0..10 ⊃ a 1..4 ⊃ b 2..3, and c 5..9.
        let trace = Trace {
            spans: vec![
                span(BENCH, 0.0, 10.0, None),
                span("a", 1.0, 4.0, Some(0)),
                span("b", 2.0, 3.0, Some(1)),
                span("c", 5.0, 9.0, Some(0)),
            ],
        };
        assert_eq!(trace.self_times(), vec![3.0, 2.0, 1.0, 4.0]);
        let by_layer = trace.layer_self_seconds(0);
        assert_eq!(by_layer["a"], 2.0);
        assert_eq!(by_layer["b"], 1.0);
        assert_eq!(by_layer["c"], 4.0);
        // The layers cover 7 of the root's 10 seconds.
        assert!((trace.closure_err(0) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn absorb_rebases_parents_and_recorder_nests() {
        let epoch = Instant::now();
        let mut a = Recorder::new(epoch, 0, true);
        a.span(BENCH, "root", |r| r.span("x", "leaf", |_| ()));
        let mut b = Recorder::new(epoch, 1, true);
        b.span(BENCH, "root", |r| r.span("y", "leaf", |_| ()));
        let mut trace = Trace::default();
        trace.absorb(a.into_spans());
        trace.absorb(b.into_spans());
        let parents: Vec<_> = trace.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), None, Some(2)]);
        assert!(trace.spans.iter().all(|s| s.end >= s.start));

        let mut off = Recorder::new(epoch, 0, false);
        assert_eq!(off.span(BENCH, "root", |_| 7), 7);
        assert!(off.into_spans().is_empty());
    }
}
