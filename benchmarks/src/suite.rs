//! `suite`: what `run.sh` runs after building. Every workload gets its own
//! fresh processes — several untraced runs, then one traced run — and the
//! records are merged into one results file under a host fingerprint.

use crate::record::{Results, RunRecord};
use crate::stats::{median, spread};
use crate::workloads::WORKLOADS;
use cyclosa_telemetry::check::parse_json;
use cyclosa_util::json::ToJson;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// What `suite` was asked to do.
#[derive(Debug, Clone)]
pub struct SuiteArgs {
    /// Only this workload (all six when `None`).
    pub workload: Option<String>,
    /// Seed handed to every run.
    pub seed: u64,
    /// Untraced runs per workload.
    pub runs: usize,
    /// `--seconds` of every untraced run.
    pub seconds: f64,
    /// Tiny sizes, one short run per workload.
    pub quick: bool,
    /// Where the merged results go.
    pub out: PathBuf,
}

fn first_line(command: &str, args: &[&str]) -> String {
    Command::new(command)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|output| output.status.success())
        .and_then(|output| String::from_utf8(output.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Where the numbers were measured: cores, CPU model, compiler, commit.
pub fn fingerprint() -> Vec<(String, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split(':').nth(1))
                .map(|model| model.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    vec![
        ("nproc".to_owned(), nproc.to_string()),
        ("cpu".to_owned(), cpu),
        ("rustc".to_owned(), first_line("rustc", &["-V"])),
        (
            "commit".to_owned(),
            first_line("git", &["rev-parse", "HEAD"]),
        ),
    ]
}

/// Runs one workload once in a fresh process and reads its record back.
fn run_child(
    args: &SuiteArgs,
    workload: &str,
    trace: bool,
    record: &Path,
) -> Result<RunRecord, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--record")
        .arg(record)
        .stdout(Stdio::null());
    if args.quick {
        command.arg("--quick");
    }
    // A failed check makes the child exit non-zero after writing its
    // record; the record says what failed, so only its absence is fatal.
    let status = command.status().map_err(|e| format!("spawn: {e}"))?;
    let text = std::fs::read_to_string(record)
        .map_err(|e| format!("{workload} left no record ({status}): {e}"))?;
    std::fs::remove_file(record).map_err(|e| format!("remove {}: {e}", record.display()))?;
    RunRecord::from_json(&parse_json(&text)?)
}

/// Runs the suite, writes the merged file and prints every metric as
/// `workload name value unit`. `Ok(false)` when any check failed.
pub fn run(args: &SuiteArgs) -> Result<bool, String> {
    let dir = args.out.parent().filter(|dir| !dir.as_os_str().is_empty());
    if let Some(dir) = dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    let scratch = args.out.with_extension("run.tmp");
    let workloads: Vec<&str> = match &args.workload {
        Some(one) => vec![one.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let mut results = Results {
        fingerprint: fingerprint(),
        runs: Vec::new(),
    };
    for (key, value) in &results.fingerprint {
        println!("# {key}: {value}");
    }
    let mut all_correct = true;
    for workload in workloads {
        let mut untraced = Vec::new();
        for _ in 0..args.runs {
            untraced.push(run_child(args, workload, false, &scratch)?);
        }
        let traced = run_child(args, workload, true, &scratch)?;
        println!("# {workload}: digest {}", untraced[0].digest);
        for metric in &untraced[0].metrics {
            let values: Vec<f64> = untraced
                .iter()
                .filter_map(|run| run.metric(&metric.name))
                .collect();
            println!(
                "{workload} {} {} {}  # median of {} runs, spread {:.1} %",
                metric.name,
                median(&values),
                metric.unit,
                values.len(),
                100.0 * spread(&values)
            );
        }
        for metric in &traced.metrics {
            println!(
                "{workload} {} {} {}",
                metric.name, metric.value, metric.unit
            );
        }
        for run in untraced.iter().chain([&traced]) {
            all_correct &= run.correct;
            for failure in &run.failures {
                println!("# {workload} FAILED: {failure}");
            }
        }
        results.runs.extend(untraced);
        results.runs.push(traced);
    }
    std::fs::write(&args.out, results.to_json().pretty() + "\n")
        .map_err(|e| format!("write {}: {e}", args.out.display()))?;
    println!("# results written to {}", args.out.display());
    Ok(all_correct)
}
