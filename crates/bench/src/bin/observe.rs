//! `observe` — turn a trace export (and optional metrics snapshot) into
//! an analysis report.
//!
//! ```text
//! observe --trace PATH [--metrics PATH] [--out PATH] [--top N]
//!         [--window-s S] [--privacy-budget F] [--latency-budget-ms N]
//!         [--suspicion-budget F] [--gate-privacy]
//! ```
//!
//! Reads the JSONL trace at `--trace`, reconstructs per-query causal
//! timelines, decomposes every answered query's latency into its exact
//! critical path, runs the SLO burn-rate pass, and writes one report JSON
//! (default `OBSERVE_report.json`): per-component rollup sketches, the
//! top-N slowest queries with causal chains, SLO totals and alerts, and
//! the embedded `--metrics` snapshot when given.
//!
//! The report is a pure function of the input files, which are themselves
//! byte-identical across sequential and sharded runs of a seed — so CI
//! can diff reports across shard counts and gate on their contents.
//! `--gate-privacy` exits non-zero when the privacy SLO recorded any
//! violation (an answered query with `achieved_k < assessed_k`): the
//! failure-free baseline gate. Exit 1 is that gate (or a file that cannot
//! be read or written); exit 2 means the command line or the contents of
//! an input file could not be understood, so nothing was judged.

use cyclosa_bench::cli::{self, Stop};
use cyclosa_bench::observe::ObserveFlags;
use cyclosa_bench::report::{build_report, ReportOptions};
use cyclosa_net::time::SimTime;
use cyclosa_telemetry::analyze::parse_trace;
use cyclosa_telemetry::check::parse_json;
use cyclosa_util::json::Json;

struct Options {
    /// `--trace` (required) and `--metrics`: the two files to read.
    input: ObserveFlags,
    out: String,
    report: ReportOptions,
    gate_privacy: bool,
}

const USAGE: &str = "usage: observe --trace PATH [--metrics PATH] [--out PATH] [--top N] \
     [--window-s S] [--privacy-budget F] [--latency-budget-ms N] \
     [--suspicion-budget F] [--gate-privacy]";

/// The options and the `--trace` path they must carry.
fn read_options(argv: Vec<String>) -> Result<(String, Options), Stop> {
    let defaults = Options {
        input: ObserveFlags::default(),
        out: "OBSERVE_report.json".to_owned(),
        report: ReportOptions::default(),
        gate_privacy: false,
    };
    let options = cli::read(argv, defaults, |options, flag, args| {
        let slo = &mut options.report.slo;
        match flag {
            "--out" => options.out = args.value()?,
            "--top" => options.report.top = args.value()?,
            "--window-s" => slo.window = SimTime::from_secs(args.value()?),
            "--privacy-budget" => slo.privacy_budget = args.value()?,
            "--latency-budget-ms" => slo.latency_p99_budget = SimTime::from_millis(args.value()?),
            "--suspicion-budget" => slo.suspicion_budget = args.value()?,
            "--gate-privacy" => options.gate_privacy = true,
            _ => return args.observe(&mut options.input),
        }
        Ok(true)
    })?;
    let trace = options.input.trace.clone().ok_or("--trace is required")?;
    Ok((trace, options))
}

fn main() {
    let (trace, options) = cli::from_env(USAGE, read_options);
    // Unreadable contents exit 2: nothing was judged (see the module doc).
    let records = parse_trace(&cli::read_file(&trace))
        .unwrap_or_else(|message| cli::fail(2, format!("{trace}: {message}")));
    let metrics = match &options.input.metrics {
        Some(path) => parse_json(&cli::read_file(path))
            .unwrap_or_else(|message| cli::fail(2, format!("{path}: {message}"))),
        None => Json::Null,
    };
    let report = build_report(&records, metrics, &options.report);
    cli::write_file(&options.out, &(report.pretty() + "\n"));
    let (violations, alerts) = privacy_summary(&report);
    println!(
        "{trace}: {} events, {} privacy violation(s), {} slo alert(s); report at {}",
        records.len(),
        violations,
        alerts,
        options.out
    );
    if options.gate_privacy && violations > 0 {
        cli::fail(
            1,
            format!(
                "privacy SLO gate: {violations} answered query(ies) with achieved_k < assessed_k"
            ),
        );
    }
}

/// Pull (privacy_violations, total alert count) back out of the report.
fn privacy_summary(report: &Json) -> (u64, u64) {
    let Json::Obj(fields) = report else {
        return (0, 0);
    };
    let Some(Json::Obj(slo)) = fields.iter().find(|(k, _)| k == "slo").map(|(_, v)| v) else {
        return (0, 0);
    };
    let violations = match slo.iter().find(|(k, _)| k == "privacy_violations") {
        Some((_, Json::U64(count))) => *count,
        _ => 0,
    };
    let alerts = match slo.iter().find(|(k, _)| k == "alerts") {
        Some((_, Json::Arr(alerts))) => alerts.len() as u64,
        _ => 0,
    };
    (violations, alerts)
}
