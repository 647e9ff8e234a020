//! `agcm-benchmark`: the benchmark every later performance or simplicity
//! change to this repository is judged with. See `README.md` beside this
//! crate for the metric dictionary and the reasons behind each workload.
//!
//! ```text
//! agcm-benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke]
//! agcm-benchmark run     [--seed N] [--seconds S] [--runs K] [--smoke] [--out FILE]
//! agcm-benchmark trace   [--seed N] [--seconds S] [--runs K] [--smoke] [--out FILE]
//! agcm-benchmark compare A.json B.json
//! ```
//!
//! The first form runs one workload in this process and prints, as its last
//! line, the JSON result the driver reads. `run` and `trace` start that
//! form once per workload in child processes (so `peak_rss_mb` is each
//! workload's own) and collect the results into one file; `compare` lays
//! two such files side by side.

mod alloc;
mod calib;
mod compare;
mod inputs;
mod model;
mod phases;
mod probes;
mod report;
mod serve;
mod spans;
mod stats;

use report::{Outcome, END_TO_END, PER_LAYER, WORKLOADS};
use spans::Trace;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// How much a run measures.
pub struct Budget {
    /// Seconds of measurement of an end-to-end run.
    pub seconds: f64,
    /// Two repetitions of 20 steps / 40 jobs: checks the plumbing, not the
    /// machine.
    pub smoke: bool,
}

impl Budget {
    pub fn pick<T>(&self, full: T, smoke: T) -> T {
        if self.smoke {
            smoke
        } else {
            full
        }
    }

    /// Whether a workload that has made `done` repetitions since `started`
    /// makes another: until the seconds are spent and at least three times;
    /// exactly twice in a smoke run.
    pub fn wants_more(&self, done: usize, started: std::time::Instant) -> bool {
        if self.smoke {
            return done < 2;
        }
        done < 3 || started.elapsed().as_secs_f64() < self.seconds
    }
}

/// Where results and traces go (gitignored): `out/` in the benchmark's
/// directory of the checkout it was built in.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A directory for journals and stores, inside the checkout, removed when
/// the run ends — also when a check failed or a layer panicked — so the
/// next invocation starts cold and `git status` stays clean.
pub struct Scratch(PathBuf);

impl Scratch {
    fn new() -> std::io::Result<Scratch> {
        let dir = out_dir().join(format!("scratch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `VmHWM` of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1e3)
}

/// Parsed command line: `--key value` pairs, `--smoke`, and positionals.
struct Args {
    options: Vec<(String, String)>,
    smoke: bool,
    positional: Vec<String>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut args = Args {
            options: Vec::new(),
            smoke: false,
            positional: Vec::new(),
        };
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some("smoke") => args.smoke = true,
                Some(key) => {
                    let value = it.next().ok_or(format!("--{key} needs a value"))?;
                    args.options.push((key.into(), value.clone()));
                }
                None => args.positional.push(a.clone()),
            }
        }
        Ok(args)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.options
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key} {v}: not a number")),
        }
    }

    fn budget(&self) -> Result<Budget, String> {
        Ok(Budget {
            seconds: self.number("seconds", 20.0)?,
            smoke: self.smoke,
        })
    }
}

/// Run one workload in this process.
fn one_workload(
    workload: &str,
    seed: u64,
    budget: &Budget,
    traced: bool,
) -> Result<Outcome, String> {
    use serve::Workload::{PaperCold, PaperWarm, Small};
    let scratch = Scratch::new().map_err(|e| format!("scratch directory: {e}"))?;
    let serving = match workload {
        "model_1x1" | "model_1x2" => None,
        "serve_small" => Some(Small),
        "serve_paper_cold" => Some(PaperCold),
        "serve_paper_warm" => Some(PaperWarm),
        other => return Err(format!("unknown workload {other:?}; one of {WORKLOADS:?}")),
    };
    let mesh_lon = if workload == "model_1x2" { 2 } else { 1 };
    if !traced {
        return Ok(match serving {
            None => model::end_to_end(mesh_lon, budget),
            Some(kind) => serve::end_to_end(kind, seed, budget, &scratch),
        });
    }

    let mut trace = Trace::default();
    let mut out = probes::ladder(seed, budget, &scratch);
    match serving {
        None => {
            let cfg = model::paper_config(mesh_lon, budget.pick(model::STEPS, model::SMOKE_STEPS));
            let (layers, untraced, hand) = model::traced(cfg, budget.pick(5, 1), &mut trace);
            out.absorb(layers);
            out.put_trace_overhead(untraced, hand);
            serve::not_entered(&mut out);
        }
        Some(kind) => {
            // The model inside this workload's jobs, driven by hand.
            let (cfg, reps) = match kind {
                Small => (model::tiny_config(), budget.pick(50, 2)),
                _ => (
                    model::paper_config(1, model::SMOKE_STEPS),
                    budget.pick(3, 1),
                ),
            };
            out.absorb(model::traced(cfg, reps, &mut trace).0);
            out.absorb(serve::traced(kind, seed, budget, &scratch, &mut trace));
        }
    }
    let path = out_dir().join(format!("trace-{workload}.json"));
    std::fs::write(&path, trace.to_json(workload).to_string())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    out.notes.push(format!(
        "{} spans written to {}",
        trace.spans.len(),
        path.display()
    ));
    Ok(out)
}

fn usage() -> String {
    "usage: agcm-benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke]\n       \
     agcm-benchmark run|trace [--seed N] [--seconds S] [--runs K] [--smoke] [--out FILE]\n       \
     agcm-benchmark compare A.json B.json"
        .into()
}

fn dispatch(raw: &[String]) -> Result<bool, String> {
    let args = Args::parse(raw)?;
    let seed = args.number("seed", 1u64)?;
    let budget = args.budget()?;
    if let Some(workload) = args.get("workload") {
        let traced = args.number("trace", 0u8)? != 0;
        let out = one_workload(workload, seed, &budget, traced)?;
        println!("{workload} (seed {seed}, trace {})", u8::from(traced));
        out.print(workload, if traced { &PER_LAYER } else { &END_TO_END });
        return Ok(out.correct());
    }
    match args.positional.first().map(String::as_str) {
        Some(mode @ ("run" | "trace")) => {
            let out = args
                .get("out")
                .map_or_else(|| out_dir().join(format!("{mode}.json")), PathBuf::from);
            compare::collect(
                mode == "trace",
                seed,
                &budget,
                args.number("runs", 1usize)?,
                &out,
            )
        }
        Some("compare") => match args.positional.as_slice() {
            [_, a, b] => compare::compare(Path::new(a), Path::new(b)),
            _ => Err(usage()),
        },
        _ => Err(usage()),
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&raw) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
