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
//! fault-annotated repair. `NAME` must be a name of the closed trace
//! schema (`EventName`): a misspelt one is a usage error (exit 2) before
//! any file is read. Exits non-zero on the first violation, so CI can
//! gate on it directly.

use cyclosa_bench::cli::{self, Stop};
use cyclosa_telemetry::check::{parse_json, validate_chrome_trace, validate_trace_jsonl};
use cyclosa_telemetry::EventName;
use cyclosa_util::json::Json;

#[derive(Debug, Default)]
struct Options {
    jsonl: Vec<String>,
    chrome: Vec<String>,
    require_events: Vec<EventName>,
}

const USAGE: &str =
    "usage: trace_check [--jsonl PATH]... [--chrome PATH]... [--require-event NAME]...";

fn read_options(argv: Vec<String>) -> Result<Options, Stop> {
    let options = cli::read(argv, Options::default(), |options, flag, args| {
        match flag {
            "--jsonl" => options.jsonl.push(args.value()?),
            "--chrome" => options.chrome.push(args.value()?),
            "--require-event" => {
                let name: String = args.value()?;
                let event = EventName::parse(&name).ok_or_else(|| {
                    format!("bad --require-event value {name:?}: not a trace event name")
                })?;
                options.require_events.push(event);
            }
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

/// How many of `lines` are events of each of `names`, in `names`' order.
/// Each line is parsed once, however many names are asked for.
fn count_events<'a>(lines: &[String], names: &[&'a str]) -> Vec<(&'a str, usize)> {
    let mut counts = vec![0usize; names.len()];
    for line in lines {
        let Ok(Json::Obj(fields)) = parse_json(line) else {
            continue;
        };
        for (count, name) in counts.iter_mut().zip(names) {
            let named = |(key, value): &(String, Json)| {
                key == "name" && matches!(value, Json::Str(event) if event == name)
            };
            *count += usize::from(fields.iter().any(named));
        }
    }
    names.iter().copied().zip(counts).collect()
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
    let names: Vec<&str> = options.require_events.iter().map(|e| e.as_str()).collect();
    for (name, hits) in count_events(&jsonl_lines, &names) {
        if hits == 0 {
            cli::fail(1, format!("no {name:?} event in any --jsonl file"));
        }
        println!("required event {name:?}: {hits} occurrence(s)");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(args: &[&str]) -> Result<Options, Stop> {
        read_options(args.iter().map(|arg| arg.to_string()).collect())
    }

    #[test]
    fn required_events_parse_into_the_schema() {
        let options = read(&[
            "--jsonl",
            "trace.jsonl",
            "--require-event",
            "query.repair",
            "--require-event",
            "slo.privacy.burn",
        ])
        .unwrap();
        assert_eq!(
            options.require_events,
            [EventName::QueryRepair, EventName::SloPrivacyBurn]
        );
    }

    #[test]
    fn a_misspelt_required_event_is_a_usage_error() {
        for name in ["query.repiar", "query.", "hop", ""] {
            let args = ["--jsonl", "trace.jsonl", "--require-event", name];
            let Err(Stop::Bad(message)) = read(&args) else {
                panic!("{name:?} must be refused");
            };
            assert_eq!(
                message,
                format!("bad --require-event value {name:?}: not a trace event name")
            );
        }
    }

    #[test]
    fn one_pass_counts_every_required_event_as_a_scan_per_name_does() {
        // The former per-name scan, one parse of every line per name.
        fn line_has_name(line: &str, name: &str) -> bool {
            let Ok(Json::Obj(fields)) = parse_json(line) else {
                return false;
            };
            fields
                .iter()
                .any(|(key, value)| key == "name" && *value == Json::Str(name.to_owned()))
        }
        let lines: Vec<String> = [
            r#"{"at_ns":1,"actor":3,"name":"query.repair","fields":{}}"#,
            r#"{"at_ns":2,"actor":4,"name":"fault.leave","fields":{"name":"query.repair"}}"#,
            r#"{"at_ns":3,"actor":3,"name":"query.repair","fields":{}}"#,
            r#"{"at_ns":4,"actor":5,"name":"slo.privacy.burn","fields":{}}"#,
            "not json",
            r#"["name","query.repair"]"#,
        ]
        .map(str::to_owned)
        .into();
        let names = ["query.repair", "fault.leave", "fault.join"];
        let old: Vec<(&str, usize)> = names
            .iter()
            .map(|&name| {
                (
                    name,
                    lines.iter().filter(|l| line_has_name(l, name)).count(),
                )
            })
            .collect();
        assert_eq!(count_events(&lines, &names[..2]), old[..2]);
        assert_eq!(count_events(&lines, &names), old);
        assert_eq!(
            old,
            [("query.repair", 2), ("fault.leave", 1), ("fault.join", 0)]
        );
    }

    #[test]
    fn a_required_event_needs_a_jsonl_file() {
        let Err(Stop::Bad(message)) =
            read(&["--chrome", "t.json", "--require-event", "fault.leave"])
        else {
            panic!("--require-event without --jsonl must be refused");
        };
        assert!(message.contains("needs at least one --jsonl"), "{message}");
    }
}
