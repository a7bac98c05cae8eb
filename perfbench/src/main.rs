//! `ace-perfbench`: the repository's end-to-end and per-layer
//! benchmark.
//!
//! ```text
//! ace-perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each workload generates its inputs from `--seed`, sets up, then
//! runs timed iterations for `--seconds` and checks every answer
//! against an independent reference. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` runs traced and reports the
//! per-layer metrics, the tracing overhead and span coverage, and
//! writes the spans to `perfbench/out/`. The last line of standard
//! output is the result as one JSON object. `--workload all` runs
//! every workload, each in its own process.
//!
//! Run it through cargo from the repository root:
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- --workload all
//! ```

mod aced;
mod batch;
mod calib;
mod checks;
mod metrics;
mod signoff;
mod stats;
mod trace;

use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use calib::Paired;
use checks::Checks;
use metrics::Metrics;
use trace::SpanRec;

/// Every workload, in the order `--workload all` runs them.
const WORKLOADS: [&str; 4] = ["chip-extract", "mesh-dense", "chip-signoff", "aced-edit"];

/// The seed used when `--seed` is not given: it reproduces the
/// repository's standard chip proxies.
const DEFAULT_SEED: u64 = 0;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Children must cover at least this share of every iteration and
/// request span.
const MIN_COVERAGE: f64 = 0.95;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: ace-perfbench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: "all".to_string(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let value = iter.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        usage();
    }
    args
}

/// One figure a workload prints under its own name.
pub struct Line {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// The host-adjusted value of a timing (see [`calib`]).
    pub adjusted: Option<f64>,
}

/// What one workload tells the runner.
#[derive(Default)]
pub struct Outcome {
    /// Values by registry name (end-to-end or per-layer).
    pub metrics: Metrics,
    /// Every timed operation and whether its answer was right.
    pub checks: Checks,
    /// The workload's own figures, under the names the benchmark's
    /// README uses (`extract_1t_s`, `edit_p90_ms`, …).
    pub ledger: Vec<Line>,
    /// Spans of a traced run.
    pub spans: Vec<SpanRec>,
}

impl Outcome {
    pub fn ledger(&mut self, name: &str, unit: &'static str, value: f64) {
        self.ledger.push(Line {
            name: name.to_string(),
            unit,
            value,
            adjusted: None,
        });
    }

    pub fn ledger_adjusted(&mut self, name: &str, unit: &'static str, raw: f64, adjusted: f64) {
        self.ledger.push(Line {
            name: name.to_string(),
            unit,
            value: raw,
            adjusted: Some(adjusted),
        });
    }

    /// Records the tracing overhead: the median traced iteration (or
    /// round) minus the median plain one, in seconds.
    pub fn trace_overhead(&mut self, traced: &[f64], plain: &[f64]) {
        let overhead_ms =
            (stats::median(traced).unwrap_or(0.0) - stats::median(plain).unwrap_or(0.0)) * 1e3;
        self.metrics.set("trace.overhead_ms", overhead_ms);
        self.ledger("trace.overhead_ms", "ms", overhead_ms);
        self.ledger("traced_iterations", "count", traced.len() as f64);
    }

    /// Logs a timing's raw and host-adjusted medians, multiplied by
    /// `scale` into `unit`, and returns both in seconds.
    pub fn timing(
        &mut self,
        name: &str,
        unit: &'static str,
        scale: f64,
        samples: &[Paired],
    ) -> Result<(f64, f64), String> {
        let raw = calib::raw_median(samples).ok_or_else(|| format!("no {name} samples"))?;
        let adjusted = calib::adjusted_median(samples).expect("samples are present");
        self.ledger_adjusted(name, unit, raw * scale, adjusted * scale);
        Ok((raw, adjusted))
    }
}

/// How a workload is asked to run.
pub struct Run {
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

impl Run {
    /// Set-ups to make: several when `setup_s` is reported, one
    /// otherwise.
    pub fn setups(&self) -> usize {
        if self.trace {
            1
        } else {
            SETUPS
        }
    }

    /// Runs `step` until the run's time is up (at least once).
    pub fn until_deadline(&self, mut step: impl FnMut(u64)) {
        let start = Instant::now();
        let mut i = 0;
        while i == 0 || start.elapsed() < self.seconds {
            step(i);
            i += 1;
        }
    }
}

/// A 64-bit mix of `seed` and `salt` (splitmix64), for deriving one
/// generator seed per input from the workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn run_workload(args: &Args) -> Result<ExitCode, String> {
    let run = Run {
        seed: args.seed,
        seconds: Duration::from_secs_f64(args.seconds),
        trace: args.trace,
    };
    let mut outcome = match args.workload.as_str() {
        "chip-extract" => batch::run(batch::Input::chip(run.seed), &run)?,
        "mesh-dense" => batch::run(batch::Input::mesh(run.seed), &run)?,
        "chip-signoff" => signoff::run(&run)?,
        "aced-edit" => aced::run(&run)?,
        other => return Err(format!("unknown workload {other:?}")),
    };
    let checks = std::mem::take(&mut outcome.checks);
    let name = &args.workload;
    println!(
        "{name} seed={} seconds={} trace={}",
        args.seed, args.seconds, args.trace as u8
    );
    if !args.trace {
        let rss = peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
        outcome.metrics.set("peak_rss_mb", rss);
        outcome.ledger("peak_rss_mb", "MB", rss);
        outcome.ledger("failed_ratio", "ratio", checks.failed_ratio());
    }
    for line in &outcome.ledger {
        match line.adjusted {
            Some(adjusted) => println!(
                "  {} = {} {} (host-adjusted {} {})",
                line.name, line.value, line.unit, adjusted, line.unit
            ),
            None => println!("  {} = {} {}", line.name, line.value, line.unit),
        }
    }
    let mut correct = checks.failed == 0;
    let names: Vec<(String, &str)> = if args.trace {
        let (lowest, gaps) = trace::coverage(&outcome.spans, MIN_COVERAGE);
        outcome.metrics.set("trace.coverage_min", lowest);
        println!("  trace.coverage_min = {lowest} ratio");
        report_trace(name, args.seed, &outcome.spans)?;
        for gap in &gaps {
            println!(
                "  coverage gap: {} (iteration {}) is {:.1}% covered by its children",
                gap.name,
                gap.iter,
                gap.coverage * 100.0
            );
        }
        correct &= gaps.is_empty();
        metrics::per_layer()
    } else {
        metrics::END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    for failure in &checks.failures {
        println!("  FAILED {failure}");
    }
    let line = metrics::result_line(
        correct,
        checks.attempted,
        checks.failed,
        &names,
        &outcome.metrics,
        args.trace,
    )
    .map_err(|missing| format!("no value for {}", missing.join(", ")))?;
    println!("{line}");
    Ok(ExitCode::SUCCESS)
}

/// Prints self time per span name and writes the spans out.
fn report_trace(workload: &str, seed: u64, spans: &[SpanRec]) -> Result<(), String> {
    println!("  self time by span (spans, total ms):");
    for (name, (count, ns)) in trace::self_time_by_name(spans) {
        println!("    {name:<28} {count:>7} {:>12.3}", ns as f64 / 1e6);
    }
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
    let path = format!("{dir}/{workload}-seed{seed}.trace.jsonl");
    std::fs::write(&path, trace::to_json_lines(spans)).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "  wrote {} spans to perfbench/out/{workload}-seed{seed}.trace.jsonl",
        spans.len()
    );
    Ok(())
}

/// Runs every workload in a process of its own, relaying its output.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut ok = true;
    for workload in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stdin(Stdio::null())
            .status()
            .map_err(|e| format!("{workload}: {e}"))?;
        if !status.success() {
            eprintln!("ace-perfbench: {workload} exited with {status}");
            ok = false;
        }
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args = parse_args();
    let outcome = if args.workload == "all" {
        run_all(&args)
    } else {
        run_workload(&args)
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("ace-perfbench: {e}");
        ExitCode::FAILURE
    })
}
