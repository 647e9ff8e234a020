//! Prometheus text exposition (format version 0.0.4) for the metrics
//! registry, plus a strict validator used by the smoke checks.
//!
//! The registry's dotted metric names (`http.requests.healthz`) map to
//! Prometheus metric names by sanitization: every character outside
//! `[a-zA-Z0-9_]` becomes `_`, and names that would not start with a
//! letter or underscore are prefixed. Counters get a `# TYPE ... counter`
//! line, gauges `gauge`, histograms `histogram` with the conventional
//! `_bucket{le=...}` / `_sum` / `_count` series. The registry's
//! histograms store sparse power-of-two buckets with *lower* bounds;
//! exposition converts them to the cumulative *upper*-bound form
//! Prometheus expects (each sparse bucket's `le` is the next bucket's
//! lower bound — every observation in `[lo, 2·lo)` is below it — and the
//! final bucket is `+Inf`).

use crate::metrics::MetricsSnapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Sanitize a dotted registry name into a Prometheus metric name.
pub fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, ch) in name.chars().enumerate() {
        let ok = ch.is_ascii_alphanumeric() || ch == '_';
        if i == 0 && ch.is_ascii_digit() {
            out.push('_');
        }
        out.push(if ok { ch } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escape `# HELP` text: backslash and newline only (no quotes here).
fn escape_help(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for ch in text.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            _ => out.push(ch),
        }
    }
    out
}

/// Format a float the way Prometheus text format expects (no exponent
/// surprises for the common cases; `+Inf`/`-Inf`/`NaN` spelled out).
fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Render a snapshot as Prometheus text exposition. Extra gauges (e.g.
/// fleet state or uptime, not owned by the registry) ride along.
pub fn render(snapshot: &MetricsSnapshot, extra_gauges: &[(String, f64)]) -> String {
    let mut out = String::new();
    for (name, value) in &snapshot.counters {
        let n = sanitize(name);
        let _ = writeln!(out, "# HELP {n} Total count of {}.", escape_help(name));
        let _ = writeln!(out, "# TYPE {n} counter");
        let _ = writeln!(out, "{n} {value}");
    }
    let mut gauges: Vec<(String, f64)> = snapshot.gauges.clone();
    gauges.extend(extra_gauges.iter().cloned());
    for (name, value) in &gauges {
        let n = sanitize(name);
        let _ = writeln!(out, "# HELP {n} Current value of {}.", escape_help(name));
        let _ = writeln!(out, "# TYPE {n} gauge");
        let _ = writeln!(out, "{n} {}", fmt_value(*value));
    }
    for (name, hist) in &snapshot.histograms {
        let n = sanitize(name);
        let _ = writeln!(out, "# HELP {n} Distribution of {}.", escape_help(name));
        let _ = writeln!(out, "# TYPE {n} histogram");
        let mut cumulative = 0u64;
        for (i, (_lo, count)) in hist.buckets.iter().enumerate() {
            cumulative += count;
            let le = match hist.buckets.get(i + 1) {
                Some((next_lo, _)) => fmt_value(*next_lo),
                None => "+Inf".to_string(),
            };
            let _ = writeln!(out, "{n}_bucket{{le=\"{le}\"}} {cumulative}");
        }
        if hist.buckets.is_empty() {
            let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} 0");
        }
        let _ = writeln!(out, "{n}_sum {}", fmt_value(hist.sum));
        let _ = writeln!(out, "{n}_count {}", hist.count);
    }
    out
}

/// What a validated exposition contained.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExpositionStats {
    /// Metric families declared `counter`.
    pub counters: usize,
    /// Metric families declared `gauge`.
    pub gauges: usize,
    /// Metric families declared `histogram`.
    pub histograms: usize,
    /// `# HELP` lines seen (one per documented family).
    pub helps: usize,
    /// Total sample lines.
    pub samples: usize,
}

impl ExpositionStats {
    /// Number of declared metric families.
    pub fn families(&self) -> usize {
        self.counters + self.gauges + self.histograms
    }

    /// Whether every declared family carried a `# HELP` line.
    pub fn fully_documented(&self) -> bool {
        self.helps == self.families()
    }
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.chars().enumerate().all(|(i, c)| {
            c.is_ascii_alphanumeric() && (i > 0 || !c.is_ascii_digit()) || c == '_' || c == ':'
        })
}

fn parse_sample_value(s: &str) -> Option<f64> {
    match s {
        "+Inf" => Some(f64::INFINITY),
        "-Inf" => Some(f64::NEG_INFINITY),
        "NaN" => Some(f64::NAN),
        _ => s.parse().ok(),
    }
}

/// Strictly validate a text exposition: every line is a well-formed
/// `# TYPE` / `# HELP` comment or a sample; sample names trace back to a
/// declared family; histogram families carry monotone `_bucket` series
/// ending at `le="+Inf"` whose final count equals `_count`. Returns what
/// was found, or the first violation.
pub fn validate(text: &str) -> Result<ExpositionStats, String> {
    let mut stats = ExpositionStats::default();
    // family -> (kind, bucket state: (last cumulative, saw +Inf, inf count))
    let mut families: BTreeMap<String, String> = BTreeMap::new();
    let mut buckets: BTreeMap<String, (f64, u64, Option<u64>)> = BTreeMap::new();
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        if line.trim().is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut parts = comment.trim_start().splitn(3, ' ');
            match parts.next() {
                Some("TYPE") => {
                    let name = parts
                        .next()
                        .ok_or_else(|| format!("line {n}: TYPE without metric name"))?;
                    let kind = parts
                        .next()
                        .ok_or_else(|| format!("line {n}: TYPE without kind"))?;
                    if !valid_name(name) {
                        return Err(format!("line {n}: invalid metric name {name:?}"));
                    }
                    if !matches!(
                        kind,
                        "counter" | "gauge" | "histogram" | "summary" | "untyped"
                    ) {
                        return Err(format!("line {n}: unknown TYPE kind {kind:?}"));
                    }
                    if families
                        .insert(name.to_string(), kind.to_string())
                        .is_some()
                    {
                        return Err(format!("line {n}: duplicate TYPE for {name}"));
                    }
                    match kind {
                        "counter" => stats.counters += 1,
                        "gauge" => stats.gauges += 1,
                        "histogram" => stats.histograms += 1,
                        _ => {}
                    }
                }
                Some("HELP") => {
                    let name = parts
                        .next()
                        .ok_or_else(|| format!("line {n}: HELP without metric name"))?;
                    if !valid_name(name) {
                        return Err(format!("line {n}: invalid metric name {name:?}"));
                    }
                    stats.helps += 1;
                }
                _ => return Err(format!("line {n}: malformed comment {line:?}")),
            }
            continue;
        }
        // Sample line: name[{labels}] value [timestamp]
        let (name_part, rest) = match line.find('{') {
            Some(brace) => {
                let close = line
                    .rfind('}')
                    .ok_or_else(|| format!("line {n}: unclosed label braces"))?;
                (&line[..brace], line[close + 1..].trim())
            }
            None => {
                let mut it = line.splitn(2, ' ');
                let name = it.next().unwrap_or("");
                (name, it.next().unwrap_or("").trim())
            }
        };
        if !valid_name(name_part) {
            return Err(format!("line {n}: invalid sample name {name_part:?}"));
        }
        let value_str = rest.split_whitespace().next().unwrap_or("");
        let value = parse_sample_value(value_str)
            .ok_or_else(|| format!("line {n}: unparseable value {value_str:?}"))?;
        stats.samples += 1;

        // Histogram bookkeeping.
        if let Some(family) = name_part.strip_suffix("_bucket") {
            if families.get(family).map(String::as_str) == Some("histogram") {
                let le = line
                    .split("le=\"")
                    .nth(1)
                    .and_then(|s| s.split('"').next())
                    .ok_or_else(|| format!("line {n}: histogram bucket without le label"))?;
                let le_v = parse_sample_value(le)
                    .ok_or_else(|| format!("line {n}: unparseable le {le:?}"))?;
                let entry =
                    buckets
                        .entry(family.to_string())
                        .or_insert((f64::NEG_INFINITY, 0, None));
                if le_v < entry.0 {
                    return Err(format!("line {n}: le values not increasing in {family}"));
                }
                if (value as u64) < entry.1 {
                    return Err(format!(
                        "line {n}: bucket counts not cumulative in {family}"
                    ));
                }
                entry.0 = le_v;
                entry.1 = value as u64;
                if le_v == f64::INFINITY {
                    entry.2 = Some(value as u64);
                }
            }
        } else if let Some(family) = name_part.strip_suffix("_count") {
            if families.get(family).map(String::as_str) == Some("histogram") {
                counts.insert(family.to_string(), value as u64);
            }
        }
    }
    for (family, kind) in &families {
        if kind == "histogram" {
            let (_, _, inf) = buckets
                .get(family)
                .ok_or_else(|| format!("histogram {family} has no buckets"))?;
            let inf = inf.ok_or_else(|| format!("histogram {family} missing le=\"+Inf\""))?;
            let count = counts
                .get(family)
                .ok_or_else(|| format!("histogram {family} missing _count"))?;
            if inf != *count {
                return Err(format!(
                    "histogram {family}: +Inf bucket {inf} != count {count}"
                ));
            }
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    #[test]
    fn sanitize_maps_dots_and_leading_digits() {
        assert_eq!(sanitize("http.requests.jobs"), "http_requests_jobs");
        assert_eq!(sanitize("9lives"), "_9lives");
        assert_eq!(sanitize("tenant.other/evil name"), "tenant_other_evil_name");
    }

    #[test]
    fn render_and_validate_round_trip() {
        let r = MetricsRegistry::new();
        r.counter("http.requests.jobs").add(3);
        r.counter("jobs.completed").add(2);
        r.gauge("fleet.ranks_busy").set(4.0);
        let h = r.histogram("http.latency_seconds.jobs");
        h.observe(0.002);
        h.observe(0.004);
        h.observe(3.0);
        let text = render(&r.snapshot(), &[("uptime_seconds".to_string(), 12.5)]);
        let stats = validate(&text).unwrap_or_else(|e| panic!("invalid exposition: {e}\n{text}"));
        assert_eq!(stats.counters, 2);
        assert_eq!(stats.gauges, 2);
        assert_eq!(stats.histograms, 1);
        assert!(stats.samples >= 7, "{stats:?}");
        assert!(text.contains("# TYPE http_requests_jobs counter"));
        assert!(text.contains("http_latency_seconds_jobs_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("http_latency_seconds_jobs_count 3"));
    }

    #[test]
    fn empty_histogram_still_exposes_inf_bucket() {
        let r = MetricsRegistry::new();
        let _ = r.histogram("empty.h");
        let text = render(&r.snapshot(), &[]);
        assert!(text.contains("empty_h_bucket{le=\"+Inf\"} 0"));
        validate(&text).unwrap();
    }

    #[test]
    fn validator_rejects_garbage() {
        for (bad, why) in [
            ("# TYPE bad-name counter\n", "invalid family name"),
            ("metric_without_value\n", "missing value"),
            ("m{le=\"0.1\" 1\n", "unclosed braces"),
            ("# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\n", "missing _count"),
            (
                "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 2\n",
                "non-cumulative buckets",
            ),
        ] {
            assert!(validate(bad).is_err(), "{why}: {bad:?}");
        }
    }

    #[test]
    fn cumulative_buckets_use_next_lower_bound_as_le() {
        let r = MetricsRegistry::new();
        let h = r.histogram("lat");
        h.observe(1.5); // bucket [1, 2)
        h.observe(4.0); // bucket [4, 8)
        let text = render(&r.snapshot(), &[]);
        // Sparse buckets: [1,·)=1 then [4,·)=1 → le="4" carries cumulative
        // 1, +Inf carries 2.
        assert!(text.contains("lat_bucket{le=\"4\"} 1"), "{text}");
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 2"), "{text}");
        validate(&text).unwrap();
    }
}
