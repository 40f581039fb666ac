//! `trace_check` — schema validation for exported trace artifacts.
//!
//! ```text
//! trace_check [--jsonl PATH]... [--chrome PATH]... [--require-event NAME]
//! ```
//!
//! Validates each `--jsonl` file as a trace-JSONL export (one object per
//! line, required keys, non-decreasing timestamps) and each `--chrome`
//! file as a Chrome trace-event export, using the parser-backed checks of
//! `cyclosa-telemetry`. With `--require-event NAME` the JSONL files must
//! together contain at least one event of that name — the CI smoke job
//! uses this to assert that a traced churn run actually recorded a
//! fault-annotated repair. Exits non-zero on the first violation, so CI
//! can gate on it directly.

use cyclosa_bench::cli::{self, Stop};
use cyclosa_telemetry::check::{parse_json, validate_chrome_trace, validate_trace_jsonl};
use cyclosa_util::json::Json;

#[derive(Default)]
struct Options {
    jsonl: Vec<String>,
    chrome: Vec<String>,
    require_events: Vec<String>,
}

const USAGE: &str =
    "usage: trace_check [--jsonl PATH]... [--chrome PATH]... [--require-event NAME]...";

fn read_options(argv: Vec<String>) -> Result<Options, Stop> {
    let options = cli::read(argv, Options::default(), |options, flag, args| {
        match flag {
            "--jsonl" => options.jsonl.push(args.value()?),
            "--chrome" => options.chrome.push(args.value()?),
            "--require-event" => options.require_events.push(args.value()?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    if options.jsonl.is_empty() && options.chrome.is_empty() {
        return Err("nothing to check; pass --jsonl and/or --chrome".into());
    }
    if !options.require_events.is_empty() && options.jsonl.is_empty() {
        return Err("--require-event needs at least one --jsonl file to search".into());
    }
    Ok(options)
}

/// Whether a validated JSONL line is an event named `name`.
fn line_has_name(line: &str, name: &str) -> bool {
    let Ok(Json::Obj(fields)) = parse_json(line) else {
        return false;
    };
    fields
        .iter()
        .any(|(key, value)| key == "name" && *value == Json::Str(name.to_owned()))
}

fn main() {
    let options = cli::from_env(USAGE, read_options);
    let mut jsonl_lines: Vec<String> = Vec::new();
    for path in &options.jsonl {
        let text = cli::read_file(path);
        match validate_trace_jsonl(&text) {
            Ok(count) => println!("{path}: {count} valid trace events"),
            Err(message) => cli::fail(1, format!("{path}: {message}")),
        }
        jsonl_lines.extend(text.lines().map(str::to_owned));
    }
    for path in &options.chrome {
        let text = cli::read_file(path);
        match validate_chrome_trace(&text) {
            Ok(count) => println!("{path}: {count} valid Chrome trace events"),
            Err(message) => cli::fail(1, format!("{path}: {message}")),
        }
    }
    for name in &options.require_events {
        let hits = jsonl_lines
            .iter()
            .filter(|line| line_has_name(line, name))
            .count();
        if hits == 0 {
            cli::fail(1, format!("no {name:?} event in any --jsonl file"));
        }
        println!("required event {name:?}: {hits} occurrence(s)");
    }
}
