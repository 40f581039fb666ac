//! Runs one workload in this process and turns its repetitions into a
//! [`RunRecord`].
//!
//! Untraced run (`--trace 0`): one warm-up repetition, then timed
//! repetitions until `--seconds` have passed (at least [`MIN_REPS`]); the
//! end-to-end metrics are those of the best timed repetition, or of the
//! median one where shard wake-ups are most of the work. Traced run
//! (`--trace 1`): warm-up, one untraced and one traced repetition, then
//! the micro-probes; the per-layer metrics come from the traced
//! repetition and the difference between the two is the tracing overhead.

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::probes;
use crate::record::{Metric, RunRecord};
use crate::span::Span;
use crate::stats::{median, supported_percentile};
use crate::workloads::{workload, Rep, RepFn, Sizes, Trace};
use cyclosa_util::json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Fewest timed repetitions of an untraced run.
pub const MIN_REPS: usize = 3;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Seconds the timed repetitions should fill.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub trace: bool,
    /// Tiny sizes.
    pub quick: bool,
    /// Where a traced run writes its raw spans, one JSON object a line.
    pub spans: Option<PathBuf>,
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Writes the traced repetition's spans as JSON lines.
fn write_spans(path: &Path, spans: &[Span]) -> Result<(), String> {
    let mut out = String::new();
    for span in spans {
        let parent = span.parent.map_or(Json::Null, |p| Json::U64(u64::from(p)));
        let line = Json::Obj(vec![
            ("name".to_owned(), Json::Str(span.name.to_owned())),
            ("start_ns".to_owned(), Json::U64(span.start_ns)),
            ("end_ns".to_owned(), Json::U64(span.end_ns)),
            ("parent".to_owned(), parent),
            ("query".to_owned(), Json::U64(span.query)),
        ]);
        out.push_str(&line.compact());
        out.push('\n');
    }
    std::fs::write(path, out).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Every metric of `table`, with its value from `values` (0 where the
/// workload leaves a layer idle).
fn metrics_of(table: &[(&str, &str)], values: &BTreeMap<&'static str, f64>) -> Vec<Metric> {
    for name in values.keys() {
        assert!(
            table.iter().any(|(listed, _)| listed == name),
            "metric {name} is recorded but not listed in metrics.rs"
        );
    }
    table
        .iter()
        .map(|(name, unit)| Metric {
            name: (*name).to_owned(),
            value: values.get(name).copied().unwrap_or(0.0),
            unit: (*unit).to_owned(),
        })
        .collect()
}

/// Folds the checks of `reps` into `record`: every repetition must have
/// passed its own checks and simulated exactly what the first one did.
fn fold_checks(record: &mut RunRecord, reps: &[&Rep]) {
    let digest = reps[0].digest;
    record.digest = format!("{digest:016x}");
    for (index, rep) in reps.iter().enumerate() {
        record.failures.extend(rep.failures.iter().cloned());
        if rep.digest != digest {
            record.failures.push(format!(
                "repetition {index} simulated {:016x}, the first one {digest:016x}",
                rep.digest
            ));
        }
    }
    record.failures.truncate(8);
    record.correct = record.failures.is_empty() && reps.iter().all(|rep| rep.failed == 0);
}

/// Runs the workload named in `args`; returns its record and the lines of
/// the human-readable report. `Err` for an unknown workload.
pub fn run(args: &RunArgs) -> Result<(RunRecord, Vec<String>), String> {
    let sizes = if args.quick {
        Sizes::quick()
    } else {
        Sizes::full()
    };
    let mut rep = workload(&args.workload, sizes, args.seed)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    let mut record = RunRecord {
        workload: args.workload.clone(),
        seed: args.seed,
        trace: args.trace,
        ..RunRecord::default()
    };
    let warm_up = rep(&mut Trace::new(false));
    let notes = if args.trace {
        traced_run(args, sizes, &mut rep, warm_up, &mut record)?
    } else {
        untraced_run(args.seconds, &mut rep, warm_up, &mut record)
    };
    Ok((record, notes))
}

/// One untraced and one traced repetition, then the micro-probes: fills in
/// the per-layer metrics.
fn traced_run(
    args: &RunArgs,
    sizes: Sizes,
    rep: &mut RepFn,
    warm_up: Rep,
    record: &mut RunRecord,
) -> Result<Vec<String>, String> {
    let plain = rep(&mut Trace::new(false));
    let mut trace = Trace::new(true);
    let traced = rep(&mut trace);
    fold_checks(record, &[&warm_up, &plain, &traced]);
    record.attempted = traced.attempted;
    record.failed = warm_up.failed + plain.failed + traced.failed;
    record.reps = 1;

    let probe_start = Instant::now();
    probes::run_all(args.seed, sizes.scale, &mut trace.layers);
    let ops = traced.attempted as f64;
    let layers = &mut trace.layers;
    layers.insert("bench.probe_s", probe_start.elapsed().as_secs_f64());
    layers.insert("bench.traced_setup_s", traced.setup_s);
    layers.insert("bench.traced_work_s", traced.work_s);
    layers.insert("bench.untraced_work_s", plain.work_s);
    layers.insert("bench.traced_us_per_op", traced.work_s * 1e6 / ops);
    layers.insert("bench.untraced_us_per_op", plain.work_s * 1e6 / ops);
    layers.insert("bench.ops", ops);
    layers.insert("bench.failed_ops", record.failed as f64);
    layers.insert(
        "bench.trace_overhead_pct",
        100.0 * (traced.work_s - plain.work_s) / plain.work_s,
    );
    record.metrics = metrics_of(PER_LAYER, layers);
    if let Some(path) = &args.spans {
        write_spans(path, trace.tracer.spans())?;
    }
    Ok(trace.notes)
}

/// Timed repetitions until `seconds` have passed: fills in the end-to-end
/// metrics.
fn untraced_run(
    seconds: f64,
    rep: &mut RepFn,
    warm_up: Rep,
    record: &mut RunRecord,
) -> Vec<String> {
    let mut untraced = Trace::new(false);
    let window = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < MIN_REPS || window.elapsed().as_secs_f64() < seconds {
        reps.push(rep(&mut untraced));
    }
    let all: Vec<&Rep> = std::iter::once(&warm_up).chain(&reps).collect();
    fold_checks(record, &all);
    record.attempted = reps.iter().map(|r| r.attempted).sum();
    record.failed = all.iter().map(|r| r.failed).sum();
    record.reps = reps.len() as u64;

    // Every timing is taken per repetition, and the repetitions do
    // identical work. What disturbs that work on a shared host (a
    // neighbour's cache and memory traffic, a busy sibling core, frequency
    // changes) only ever slows it down, for seconds at a time, so the best
    // repetition is the undisturbed one. The exception is work that is
    // mostly shard threads waking each other (`wakeup_bound`): those
    // wake-ups are 2-3x *cheaper* for some seconds after the host was
    // idle, so the median repetition is reported there. Set-up is
    // single-threaded everywhere.
    let best = !reps[0].wakeup_bound;
    let fastest = |values: &[f64]| values.iter().copied().fold(f64::INFINITY, f64::min);
    let typical_time = |values: &[f64]| {
        if best {
            fastest(values)
        } else {
            median(values)
        }
    };
    let setup: Vec<f64> = all.iter().map(|r| r.setup_s).collect();
    let throughput: Vec<f64> = reps
        .iter()
        .map(|r| r.attempted.saturating_sub(r.failed) as f64 / r.work_s)
        .collect();
    // Where a caller waits on single operations (`op_us`), the percentiles
    // are over a repetition's operations. Elsewhere no caller waits on one
    // operation: the one sample is the repetition's mean host time per
    // operation, and both percentiles fall back to it.
    let mut tail = 50.0;
    let (p50, p99): (Vec<f64>, Vec<f64>) = reps
        .iter()
        .map(|r| {
            if r.op_us.is_empty() {
                let mean = r.work_s * 1e6 / r.attempted as f64;
                return (mean, mean);
            }
            let (percentile, value) = supported_percentile(&r.op_us, 99.0);
            tail = percentile;
            (median(&r.op_us), value)
        })
        .unzip();
    let typical_throughput = if best {
        throughput.iter().copied().fold(0.0, f64::max)
    } else {
        median(&throughput)
    };
    let values = BTreeMap::from([
        ("setup_s", fastest(&setup)),
        ("throughput_ops_s", typical_throughput),
        ("peak_rss_mb", peak_rss_mb()),
        ("query_host_us_p50", typical_time(&p50)),
        ("query_host_us_p99", typical_time(&p99)),
    ]);
    record.metrics = metrics_of(END_TO_END, &values);
    record.samples = vec![
        ("setup_s".to_owned(), setup),
        ("throughput_ops_s".to_owned(), throughput),
        ("query_host_us_p50".to_owned(), p50),
        ("query_host_us_p99".to_owned(), p99),
    ];
    vec![format!(
        "{} of {} repetitions; query_host_us_p99 is the p{tail} of one repetition's operations",
        if best { "best" } else { "median" },
        reps.len()
    )]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    #[test]
    fn every_workload_runs_clean_at_quick_sizes() {
        for workload in WORKLOADS {
            for trace in [false, true] {
                let args = RunArgs {
                    workload: workload.to_owned(),
                    seed: 9,
                    seconds: 0.0,
                    trace,
                    quick: true,
                    spans: None,
                };
                let (record, _) = run(&args).expect("known workload");
                assert!(
                    record.correct,
                    "{workload} trace {trace}: {:?}",
                    record.failures
                );
                assert_eq!(record.failed, 0);
                assert!(record.attempted > 0);
                let table = if trace { PER_LAYER } else { END_TO_END };
                let names: Vec<&str> = record.metrics.iter().map(|m| m.name.as_str()).collect();
                let listed: Vec<&str> = table.iter().map(|(name, _)| *name).collect();
                assert_eq!(names, listed);
                if !trace {
                    assert_eq!(record.reps as usize, MIN_REPS);
                    assert!(
                        record.metrics.iter().all(|m| m.value > 0.0),
                        "{workload}: {record:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn both_ping_engines_print_the_same_digest() {
        let digest = |workload: &str| {
            let args = RunArgs {
                workload: workload.to_owned(),
                seed: 4,
                seconds: 0.0,
                trace: false,
                quick: true,
                spans: None,
            };
            run(&args).expect("known workload").0.digest
        };
        assert_eq!(digest("ping_dense_seq"), digest("ping_dense_sharded"));
    }

    #[test]
    fn unknown_workloads_are_refused() {
        let args = RunArgs {
            workload: "nope".to_owned(),
            seed: 1,
            seconds: 0.0,
            trace: false,
            quick: true,
            spans: None,
        };
        assert!(run(&args).is_err());
    }
}
