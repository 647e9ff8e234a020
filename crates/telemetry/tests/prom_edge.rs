//! Edge-case coverage for the Prometheus text exposition: empty
//! histograms and `# HELP`/`# TYPE` presence for every exported family —
//! all pushed through the strict [`prom::validate`] parser, so the
//! renderer and the validator are held to the same spec.

use agcm_telemetry::metrics::MetricsRegistry;
use agcm_telemetry::prom::{render, sanitize, validate};

#[test]
fn empty_histogram_exposes_inf_bucket_zero_sum_and_count() {
    let r = MetricsRegistry::new();
    let _ = r.histogram("latency.empty");
    let text = render(&r.snapshot(), &[]);
    let stats = validate(&text).unwrap_or_else(|e| panic!("invalid exposition: {e}\n{text}"));
    assert_eq!(stats.histograms, 1);
    assert!(
        text.contains("latency_empty_bucket{le=\"+Inf\"} 0"),
        "{text}"
    );
    assert!(text.contains("latency_empty_sum 0"), "{text}");
    assert!(text.contains("latency_empty_count 0"), "{text}");
}

#[test]
fn every_exported_family_carries_help_and_type() {
    let r = MetricsRegistry::new();
    r.counter("http.requests.jobs").add(3);
    r.counter("jobs.completed").inc();
    r.gauge("fleet.ranks_busy").set(4.0);
    let h = r.histogram("http.latency_seconds.jobs");
    h.observe(0.002);
    h.observe(3.0);
    let text = render(&r.snapshot(), &[("uptime_seconds".to_string(), 12.5)]);
    let stats = validate(&text).unwrap_or_else(|e| panic!("invalid exposition: {e}\n{text}"));
    assert_eq!(stats.families(), 5, "{stats:?}");
    assert_eq!(stats.helps, 5, "{stats:?}");
    assert!(stats.fully_documented());
    // HELP precedes TYPE for each family, on the sanitized name.
    for dotted in [
        "http.requests.jobs",
        "jobs.completed",
        "fleet.ranks_busy",
        "http.latency_seconds.jobs",
        "uptime_seconds",
    ] {
        let n = sanitize(dotted);
        let help_at = text
            .find(&format!("# HELP {n} "))
            .unwrap_or_else(|| panic!("no HELP for {n}:\n{text}"));
        let type_at = text
            .find(&format!("# TYPE {n} "))
            .unwrap_or_else(|| panic!("no TYPE for {n}:\n{text}"));
        assert!(help_at < type_at, "HELP must precede TYPE for {n}");
    }
}

#[test]
fn validator_rejects_malformed_help_lines() {
    assert!(validate("# HELP\n").is_err(), "HELP without a name");
    assert!(
        validate("# HELP bad-name doc\n").is_err(),
        "HELP with an invalid name"
    );
    // HELP text containing escaped newline/backslash parses fine.
    validate("# HELP m doc with \\n and \\\\ inside\n# TYPE m counter\nm 1\n").unwrap();
}
