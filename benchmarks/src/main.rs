//! Command line of the benchmark.
//!
//! ```text
//! cyclosa-perf --workload NAME --seed N --seconds S --trace 0|1 [--quick] [--record FILE] [--spans FILE]
//! cyclosa-perf suite [--workload NAME] [--seed N] [--runs N] [--seconds S] [--quick] [--out FILE]
//! cyclosa-perf compare A.json B.json [--benchmark BENCHMARK.json]
//! ```
//!
//! The first form is one run of one workload in this process; its last
//! line of output is the JSON object the benchmark's driver reads. It
//! exits non-zero when a correctness check fails.

use cyclosa_perf::compare::{compare, load_bounds, Verdict};
use cyclosa_perf::harness::{self, RunArgs};
use cyclosa_perf::record::Results;
use cyclosa_perf::suite::{self, SuiteArgs};
use cyclosa_util::json::ToJson;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  cyclosa-perf --workload NAME --seed N --seconds S --trace 0|1 [--quick] [--record FILE] [--spans FILE]
  cyclosa-perf suite [--workload NAME] [--seed N] [--runs N] [--seconds S] [--quick] [--out FILE]
  cyclosa-perf compare A.json B.json [--benchmark BENCHMARK.json]";

/// Flags shared by the single-run and `suite` forms, plus positionals.
#[derive(Debug, Default)]
struct Flags {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    runs: Option<usize>,
    quick: bool,
    record: Option<PathBuf>,
    spans: Option<PathBuf>,
    out: Option<PathBuf>,
    benchmark: Option<PathBuf>,
    positional: Vec<String>,
}

fn parse_flags(args: impl Iterator<Item = String>) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut args = args;
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => flags.workload = Some(value("--workload")?),
            "--seed" => flags.seed = Some(parse(&value("--seed")?, "--seed")?),
            "--seconds" => {
                let seconds: f64 = parse(&value("--seconds")?, "--seconds")?;
                if !(seconds.is_finite() && seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_owned());
                }
                flags.seconds = Some(seconds);
            }
            "--trace" => {
                flags.trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                });
            }
            "--runs" => flags.runs = Some(parse(&value("--runs")?, "--runs")?),
            "--quick" => flags.quick = true,
            "--record" => flags.record = Some(value("--record")?.into()),
            "--spans" => flags.spans = Some(value("--spans")?.into()),
            "--out" => flags.out = Some(value("--out")?.into()),
            "--benchmark" => flags.benchmark = Some(value("--benchmark")?.into()),
            "--help" | "-h" => return Err(USAGE.to_owned()),
            other if other.starts_with("--") => {
                return Err(format!("unknown flag {other:?}\n{USAGE}"))
            }
            _ => flags.positional.push(arg),
        }
    }
    Ok(flags)
}

fn parse<T: std::str::FromStr>(text: &str, name: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("bad value {text:?} for {name}"))
}

fn read(path: &std::path::Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))
}

/// One run of one workload; `Ok(false)` when a check failed.
fn run_one(flags: Flags) -> Result<bool, String> {
    let args = RunArgs {
        workload: flags
            .workload
            .ok_or(format!("--workload is required\n{USAGE}"))?,
        seed: flags.seed.unwrap_or(2018),
        seconds: flags.seconds.unwrap_or(15.0),
        trace: flags.trace.unwrap_or(false),
        quick: flags.quick,
        spans: flags.spans,
    };
    let (record, notes) = harness::run(&args)?;
    println!(
        "# {} seed {} digest {} ({} timed repetition(s), {} ops, {} failed)",
        record.workload, record.seed, record.digest, record.reps, record.attempted, record.failed
    );
    for note in notes {
        println!("# {note}");
    }
    for failure in &record.failures {
        println!("# FAILED: {failure}");
    }
    for metric in &record.metrics {
        println!("{} {} {}", metric.name, metric.value, metric.unit);
    }
    if let Some(path) = &flags.record {
        std::fs::write(path, record.to_json().pretty() + "\n")
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    println!("{}", record.driver_line());
    Ok(record.correct)
}

fn run_suite(flags: Flags) -> Result<bool, String> {
    let quick = flags.quick;
    suite::run(&SuiteArgs {
        workload: flags.workload,
        seed: flags.seed.unwrap_or(2018),
        runs: flags.runs.unwrap_or(if quick { 1 } else { 5 }),
        seconds: flags.seconds.unwrap_or(if quick { 0.2 } else { 15.0 }),
        quick,
        out: flags.out.unwrap_or_else(|| "results/latest.json".into()),
    })
}

/// `Ok(false)` when any metric is worse.
fn run_compare(flags: Flags) -> Result<bool, String> {
    let [_, a, b] = flags.positional.as_slice() else {
        return Err(format!("compare takes two results files\n{USAGE}"));
    };
    let benchmark = flags.benchmark.unwrap_or_else(|| "BENCHMARK.json".into());
    let bounds = load_bounds(&read(&benchmark)?)?;
    let a = Results::parse(&read(a.as_ref())?)?;
    let b = Results::parse(&read(b.as_ref())?)?;
    let (rows, changed) = compare(&a, &b, &bounds);
    println!(
        "{:<20} {:<18} {:>14} {:>14} {:>9} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "B", "worse by", "spread", "bound"
    );
    for row in &rows {
        println!(
            "{:<20} {:<18} {:>14.4} {:>14.4} {:>8.1}% {:>7.1}% {:>5.0}%  {}",
            row.workload,
            row.metric,
            row.a,
            row.b,
            100.0 * row.worse_by,
            100.0 * row.spread,
            100.0 * row.bound,
            row.verdict
        );
    }
    for line in &changed {
        println!("{line}");
    }
    let count = |verdict| rows.iter().filter(|row| row.verdict == verdict).count();
    println!(
        "{} same, {} better, {} worse, {} unresolved, {} workload(s) with changed simulated behaviour",
        count(Verdict::Same),
        count(Verdict::Better),
        count(Verdict::Worse),
        count(Verdict::Unresolved),
        changed.len()
    );
    Ok(count(Verdict::Worse) == 0)
}

fn main() -> ExitCode {
    let outcome = parse_flags(std::env::args().skip(1)).and_then(|flags| {
        match flags.positional.first().map(String::as_str) {
            None => run_one(flags),
            Some("suite") => run_suite(flags),
            Some("compare") => run_compare(flags),
            Some(other) => Err(format!("unknown command {other:?}\n{USAGE}")),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
