//! `run` / `trace`: every workload in its own child process, `--runs`
//! times with consecutive seeds, collected into one result file.
//! `compare`: two such files side by side, judged by the bounds of the
//! metric dictionary.

use crate::report::{definition, Kind, WORKLOADS};
use crate::stats::{median, spread, Better};
use crate::Budget;
use agcm_telemetry::json::Value;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, Stdio};

/// Values of one metric on one workload, one per invocation.
type Series = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Run one workload in a child, echo its report, return its result line
/// and the extras of its detail line.
fn child(
    workload: &str,
    seed: u64,
    budget: &Budget,
    traced: bool,
) -> Result<(Value, Value), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &budget.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if budget.smoke {
        cmd.arg("--smoke");
    }
    let mut proc = cmd.spawn().map_err(|e| format!("spawn {workload}: {e}"))?;
    let (mut last, mut detail) = (String::new(), String::new());
    for line in BufReader::new(proc.stdout.take().expect("piped")).lines() {
        let line = line.map_err(|e| format!("{workload}: {e}"))?;
        if line.starts_with('{') {
            last = line;
        } else if let Some(d) = line.strip_prefix("#detail ") {
            detail = d.to_string();
        } else {
            println!("{line}");
        }
    }
    let status = proc.wait().map_err(|e| format!("wait {workload}: {e}"))?;
    let result = Value::parse(&last)
        .map_err(|e| format!("{workload}: no result line ({e}); exit {status}"))?;
    if !status.success() {
        println!("  {workload}: exit {status}");
    }
    let extras = Value::parse(&detail)
        .ok()
        .and_then(|d| d.get("extras").cloned())
        .unwrap_or(Value::Null);
    Ok((result, extras))
}

/// The `run` and `trace` commands. Returns whether every check passed.
pub fn collect(
    traced: bool,
    seed0: u64,
    budget: &Budget,
    runs: usize,
    out: &Path,
) -> Result<bool, String> {
    let mut series = Series::new();
    let mut units: BTreeMap<String, String> = BTreeMap::new();
    let (mut attempted, mut failed, mut correct) = (0.0, 0.0, true);
    for run in 0..runs {
        // Workloads take turns within a run, so slow drift of the machine
        // spreads over all of them instead of landing on one.
        for workload in WORKLOADS {
            let (result, extras) = child(workload, seed0 + run as u64, budget, traced)?;
            for (name, v) in extras.as_obj().unwrap_or(&[]) {
                let slot = series
                    .entry(workload.into())
                    .or_default()
                    .entry(name.clone())
                    .or_default();
                slot.extend(v.as_f64());
                units.insert(name.clone(), String::new());
            }
            correct &= result.get("correct") == Some(&Value::Bool(true));
            attempted += result
                .get("attempted")
                .and_then(Value::as_f64)
                .unwrap_or(0.0);
            failed += result.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
            for (name, m) in result.get("metrics").and_then(Value::as_obj).unwrap_or(&[]) {
                let value = m
                    .get("value")
                    .and_then(Value::as_f64)
                    .ok_or(format!("{name}: no value"))?;
                series
                    .entry(workload.into())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(value);
                let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
                units.insert(name.clone(), unit.into());
            }
        }
    }
    if traced {
        merge_traces()?;
    }

    println!(
        "\n{} workloads x {runs} runs, seeds {seed0}..{}:",
        WORKLOADS.len(),
        seed0 + runs as u64 - 1
    );
    let mut workloads = Vec::new();
    for (workload, metrics) in &series {
        let mut rows = Vec::new();
        for (name, values) in metrics {
            println!(
                "  {workload:<17} {name:<30} median {:>14.6} {:<6} spread {:>6.3}  n {}",
                median(values),
                units[name],
                spread(values),
                values.len()
            );
            rows.push((
                name.as_str(),
                Value::obj(vec![
                    ("unit", Value::Str(units[name].clone())),
                    ("median", Value::Num(median(values))),
                    ("spread", Value::Num(spread(values))),
                    (
                        "values",
                        Value::Arr(values.iter().map(|v| Value::Num(*v)).collect()),
                    ),
                ]),
            ));
        }
        workloads.push((workload.as_str(), Value::obj(rows)));
    }
    println!(
        "attempted {attempted}, failed {failed}: {}",
        if correct {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        }
    );
    let doc = Value::obj(vec![
        (
            "mode",
            Value::Str(if traced { "trace" } else { "run" }.into()),
        ),
        ("seed", Value::Num(seed0 as f64)),
        ("runs", Value::Num(runs as f64)),
        ("seconds", Value::Num(budget.seconds)),
        ("smoke", Value::Bool(budget.smoke)),
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(attempted)),
        ("failed", Value::Num(failed)),
        ("workloads", Value::obj(workloads)),
    ]);
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(out, format!("{doc}\n")).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("results written to {}", out.display());
    Ok(correct)
}

/// Join the children's span files into `out/trace.json`.
fn merge_traces() -> Result<(), String> {
    let dir = crate::out_dir();
    let mut spans = Vec::new();
    for workload in WORKLOADS {
        let part = dir.join(format!("trace-{workload}.json"));
        let text =
            std::fs::read_to_string(&part).map_err(|e| format!("{}: {e}", part.display()))?;
        match Value::parse(&text) {
            Ok(Value::Arr(mut s)) => spans.append(&mut s),
            _ => return Err(format!("{}: not a span list", part.display())),
        }
        let _ = std::fs::remove_file(&part);
    }
    let path = dir.join("trace.json");
    let count = spans.len();
    std::fs::write(&path, Value::Arr(spans).to_string())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{count} spans written to {}", path.display());
    Ok(())
}

fn load(path: &Path) -> Result<Series, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Value::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut series = Series::new();
    for (workload, metrics) in doc.get("workloads").and_then(Value::as_obj).unwrap_or(&[]) {
        for (name, m) in metrics.as_obj().unwrap_or(&[]) {
            let values = m.get("values").and_then(Value::as_arr).unwrap_or(&[]);
            series.entry(workload.clone()).or_default().insert(
                name.clone(),
                values.iter().filter_map(Value::as_f64).collect(),
            );
        }
    }
    if series.is_empty() {
        return Err(format!("{}: no workloads in it", path.display()));
    }
    Ok(series)
}

/// The verdict on one (metric, workload) row.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regression,
    /// Within the bound, but a file's own spread exceeds it: the runs
    /// cannot tell.
    Unresolved,
    /// A count that differs between the files.
    Changed,
    /// A per-layer number without a bound: shown, not judged.
    Shown,
}

/// How much worse B is than A, as a share of A (negative = better).
fn worsening(a: f64, b: f64, better: Better) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

pub fn judge(name: &str, a: &[f64], b: &[f64]) -> Verdict {
    let Some(def) = definition(name) else {
        return Verdict::Shown;
    };
    match (def.bound, def.kind) {
        (Some(bound), _) => {
            if worsening(median(a), median(b), def.better) > bound {
                Verdict::Regression
            } else if spread(a) > bound || spread(b) > bound {
                Verdict::Unresolved
            } else {
                Verdict::Ok
            }
        }
        (None, Kind::Count | Kind::Computed)
            if median(a) != median(b) || spread(a) != 0.0 || spread(b) != 0.0 =>
        {
            Verdict::Changed
        }
        (None, Kind::Count | Kind::Computed) => Verdict::Ok,
        (None, _) => Verdict::Shown,
    }
}

/// The `compare` command. Returns false (exit 1) on any regression.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let (sa, sb) = (load(a)?, load(b)?);
    println!("A = {}\nB = {}", a.display(), b.display());
    println!(
        "{:<17} {:<30} {:>14} {:>14} {:>8} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "worse", "sprd A", "sprd B", "bound"
    );
    let mut tally: BTreeMap<&str, usize> = BTreeMap::new();
    for (workload, metrics) in &sa {
        for (name, va) in metrics {
            let Some(vb) = sb.get(workload).and_then(|m| m.get(name)) else {
                continue;
            };
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let def = definition(name);
            let verdict = judge(name, va, vb);
            let label = match verdict {
                Verdict::Ok => "ok",
                Verdict::Regression => "REGRESSION",
                Verdict::Unresolved => "unresolved",
                Verdict::Changed => "changed",
                Verdict::Shown => "-",
            };
            *tally.entry(label).or_default() += 1;
            println!(
                "{workload:<17} {name:<30} {:>14.6} {:>14.6} {:>+8.3} {:>7.3} {:>7.3} {:>6}  {label}",
                median(va),
                median(vb),
                worsening(median(va), median(vb), def.map_or(Better::Lower, |d| d.better)),
                spread(va),
                spread(vb),
                def.and_then(|d| d.bound).map_or("-".into(), |b| format!("{b:.2}")),
            );
        }
    }
    println!("{tally:?}");
    Ok(!tally.contains_key("REGRESSION"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let steady = |v: f64| vec![v, v * 1.01, v * 0.99, v * 1.005];
        // steps_per_s: higher is better, bound 0.25.
        assert_eq!(
            judge("steps_per_s", &steady(100.0), &steady(95.0)),
            Verdict::Ok
        );
        assert_eq!(
            judge("steps_per_s", &steady(100.0), &steady(70.0)),
            Verdict::Regression
        );
        assert_eq!(
            judge("steps_per_s", &steady(100.0), &steady(150.0)),
            Verdict::Ok
        );
        // result_ms_p50: lower is better, bound 0.25.
        assert_eq!(
            judge("result_ms_p50", &steady(10.0), &steady(13.0)),
            Verdict::Regression
        );
        assert_eq!(
            judge("result_ms_p50", &steady(10.0), &steady(7.0)),
            Verdict::Ok
        );
        // A file whose own spread exceeds the bound cannot resolve a row.
        let noisy = vec![60.0, 100.0, 140.0, 100.0, 70.0, 130.0];
        assert_eq!(
            judge("steps_per_s", &noisy, &steady(100.0)),
            Verdict::Unresolved
        );
        // Counts must repeat exactly; timed layer numbers are only shown.
        assert_eq!(
            judge("mps.msgs_per_step_1x2", &[42.0, 42.0], &[42.0, 42.0]),
            Verdict::Ok
        );
        assert_eq!(
            judge("mps.msgs_per_step_1x2", &[42.0, 42.0], &[44.0, 44.0]),
            Verdict::Changed
        );
        assert_eq!(judge("mps.pingpong_us", &[1.0], &[9.0]), Verdict::Shown);
    }
}
