//! `perfbench` — the mvq benchmark binary.
//!
//! ```text
//! perfbench --workload census_cold|synth_warm|serve_hits --seed N
//!           --seconds S --trace 0|1 [--work-dir DIR]
//! ```
//!
//! With `--trace 0` it runs the named workload for `S` seconds and
//! reports the end-to-end metrics; with `--trace 1` it runs the traced
//! breakdown of every workload (a third of `S` each) and reports the
//! per-layer metrics. Human-readable lines go first; the last line of
//! standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. See README.md.

mod census;
mod probe;
mod serve;
mod stats;
mod synth;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// The seed used when `--seed` is absent.
pub const DEFAULT_SEED: u64 = 1;
/// The seed kept out of tuning: a claimed gain must also hold here.
pub const HELD_OUT_SEED: u64 = 9001;

/// One run's result: op counts, the metrics it reports, and
/// informational lines (recorded, not gated) printed before the result.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Steady-state guards and checks outside single ops; any `false`
    /// makes the run incorrect.
    pub guards_ok: bool,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn new() -> Self {
        Self {
            guards_ok: true,
            ..Self::default()
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Reports a run's rounds: `latency_p50_ms` is the median over the
    /// rounds of each round's p50. Throughput and the tail percentiles,
    /// found the same way, are recorded, not gated (README.md says why).
    pub fn rounds(&mut self, rounds: &mut stats::Rounds) {
        self.note(format!(
            "rounds={} throughput_ops_s={:.3} latency_p90_ms={:.6} latency_p99_ms={:.6} \
             (median of rounds; recorded, not gated)",
            rounds.p50.len(),
            stats::median(&mut rounds.rate),
            stats::median(&mut rounds.p90),
            stats::median(&mut rounds.p99)
        ));
        self.metric("latency_p50_ms", stats::median(&mut rounds.p50), "ms");
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records a failed guard with its reason.
    pub fn guard(&mut self, ok: bool, what: &str) {
        if !ok {
            eprintln!("perfbench: guard failed: {what}");
            self.guards_ok = false;
        }
    }

    fn merge(&mut self, other: Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.guards_ok &= other.guards_ok;
        self.metrics.extend(other.metrics);
        self.notes.extend(other.notes);
    }

    fn correct(&self) -> bool {
        self.guards_ok
            && self.failed == 0
            && self.attempted > 0
            && self.metrics.iter().all(|(_, v, _)| v.is_finite())
    }

    fn print(&self) {
        for line in &self.notes {
            println!("# {line}");
        }
        let failed_frac = self.failed as f64 / self.attempted.max(1) as f64;
        println!("# {:<28} {failed_frac:>16} ratio", "failed_frac");
        for (name, value, unit) in &self.metrics {
            println!("# {name:<28} {value:>16.6} {unit}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { -1.0 };
                format!(r#""{name}": {{"value": {value}, "unit": "{unit}"}}"#)
            })
            .collect();
        println!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        work_dir: PathBuf::from(".bench_build/perfbench-work"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {flag} `{value}`: {what}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("expected seconds"))?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err(bad("must be positive"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--work-dir" => args.work_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["census_cold", "synth_warm", "serve_hits"].contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be census_cold, synth_warm or serve_hits (got `{}`)",
            args.workload
        ));
    }
    Ok(args)
}

/// Writes the cost-5 snapshot that `synth_warm` and `serve_hits` load,
/// in a child process so that building it counts toward neither the
/// workload's set-up time nor its peak memory.
fn make_snapshot_in_child(work_dir: &Path) -> Result<PathBuf, String> {
    std::fs::create_dir_all(work_dir).map_err(|e| format!("{}: {e}", work_dir.display()))?;
    let path = work_dir.join(format!("unit-cb{}.mvqs", synth::SNAPSHOT_CB));
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = std::process::Command::new(exe)
        .arg("make-snapshot")
        .arg(&path)
        .status()
        .map_err(|e| format!("spawning the snapshot writer: {e}"))?;
    if !status.success() {
        return Err(format!("the snapshot writer failed ({status})"));
    }
    Ok(path)
}

fn make_snapshot(path: &Path) -> Result<(), String> {
    let _ = std::fs::remove_file(path);
    let mut engine = mvq_core::SynthesisEngine::unit_cost();
    engine.expand_to_cost(synth::SNAPSHOT_CB);
    engine
        .save_snapshot(path)
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn run(args: &Args) -> Result<Report, String> {
    let threads = mvq_core::resolve_threads(None);
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let mut report = Report::new();
    report.note(format!(
        "workload={} seed={} seconds={} trace={} engine_threads={threads} nproc={nproc}",
        args.workload, args.seed, args.seconds, args.trace as u8
    ));
    let seconds = Duration::from_secs_f64(args.seconds);
    if args.trace {
        // The per-layer table spans every layer, so a traced run breaks
        // down all three workloads, a third of the time each.
        let snapshot = make_snapshot_in_child(&args.work_dir)?;
        let third = seconds / 3;
        report.merge(census::traced(third)?);
        report.merge(synth::traced(&snapshot, args.seed, third)?);
        report.merge(serve::traced(&snapshot, args.seed, third)?);
    } else {
        let workload = match args.workload.as_str() {
            "census_cold" => census::run(seconds)?,
            "synth_warm" => {
                synth::run(&make_snapshot_in_child(&args.work_dir)?, args.seed, seconds)?
            }
            _ => serve::run(&make_snapshot_in_child(&args.work_dir)?, args.seed, seconds)?,
        };
        report.merge(workload);
        report.metric("peak_rss_mb", stats::peak_rss_mb(), "MB");
    }
    Ok(report)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("make-snapshot") {
        let Some(path) = argv.get(1) else {
            eprintln!("usage: perfbench make-snapshot PATH");
            return ExitCode::from(2);
        };
        return match make_snapshot(Path::new(path)) {
            Ok(()) => ExitCode::SUCCESS,
            Err(err) => {
                eprintln!("perfbench: {err}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            report.print();
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("perfbench: {err}");
            ExitCode::FAILURE
        }
    }
}
