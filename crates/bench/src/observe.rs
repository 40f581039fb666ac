//! Shared `--trace` / `--metrics` plumbing of the bench bins.
//!
//! Every bin reads the two flags into an [`ObserveFlags`]
//! ([`crate::cli::Args::observe`]), builds sinks from it
//! ([`ObserveFlags::sink`], [`ObserveFlags::registry`]), runs its workload
//! observed, and hands the collected timeline and registry back to
//! [`ObserveFlags::write`]. Trace output lands twice: as JSONL at the
//! `--trace` path (one compact object per line, byte-identical across
//! engines and shard counts for a seed) and as a Chrome trace-event file
//! next to it (open it in Perfetto or `chrome://tracing`). The metrics
//! snapshot lands as pretty JSON at the `--metrics` path.

use crate::cli::write_file;
use cyclosa_telemetry::export::{to_chrome_trace, to_jsonl};
use cyclosa_telemetry::metrics::Registry;
use cyclosa_telemetry::TraceSink;
use cyclosa_util::json::ToJson;

/// The observability flags shared by the bench bins.
#[derive(Debug, Clone, Default)]
pub struct ObserveFlags {
    /// `--trace PATH`: write the merged timeline as JSONL to `PATH` and
    /// as a Chrome trace to `chrome_trace_path(PATH)`.
    pub trace: Option<String>,
    /// `--metrics PATH`: write the metrics-registry snapshot as JSON.
    pub metrics: Option<String>,
}

/// Where the Chrome-format twin of a JSONL trace at `path` goes: the
/// `.jsonl` extension is swapped for `.chrome.json`; any other name gets
/// `.chrome.json` appended.
pub(crate) fn chrome_trace_path(path: &str) -> String {
    match path.strip_suffix(".jsonl") {
        Some(stem) => format!("{stem}.chrome.json"),
        None => format!("{path}.chrome.json"),
    }
}

impl ObserveFlags {
    /// Whether either flag was given.
    pub fn enabled(&self) -> bool {
        self.trace.is_some() || self.metrics.is_some()
    }

    /// A trace sink: collecting when `--trace` was given, disabled (all
    /// emissions no-ops) otherwise.
    pub fn sink(&self) -> TraceSink {
        if self.trace.is_some() {
            TraceSink::enabled()
        } else {
            TraceSink::disabled()
        }
    }

    /// A metrics registry when `--metrics` was given.
    pub fn registry(&self) -> Option<Registry> {
        self.metrics.as_ref().map(|_| Registry::new())
    }

    /// Writes every requested output: the merged timeline from `sink`
    /// (JSONL + Chrome trace) and the snapshot of `registry`. Paths that
    /// were not requested are skipped. Errors are fatal.
    pub fn write(&self, sink: &TraceSink, registry: Option<&Registry>) {
        self.write_timeline(&sink.events(), registry)
    }

    /// [`ObserveFlags::write`] for an explicit, possibly enriched timeline
    /// — e.g. a run's merged trace with `slo.*` burn alerts spliced in
    /// ([`cyclosa_chaos::slo::SloOutcome::timeline`]). The slice must obey
    /// the `(at, actor)` sort invariant the exporters rely on.
    pub fn write_timeline(
        &self,
        events: &[cyclosa_telemetry::TraceEvent],
        registry: Option<&Registry>,
    ) {
        if let Some(path) = &self.trace {
            write_file(path, &to_jsonl(events));
            let chrome = chrome_trace_path(path);
            write_file(&chrome, &to_chrome_trace(events));
            eprintln!("# wrote {} events to {path} and {chrome}", events.len());
        }
        // `registry()` is `Some` exactly when `--metrics` was given.
        if let Some((path, registry)) = self.metrics.as_ref().zip(registry) {
            write_file(path, &(registry.snapshot().to_json().pretty() + "\n"));
            eprintln!("# wrote metrics snapshot to {path}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::Stop;

    #[test]
    fn chrome_path_swaps_the_jsonl_extension() {
        assert_eq!(chrome_trace_path("trace.jsonl"), "trace.chrome.json");
        assert_eq!(chrome_trace_path("out"), "out.chrome.json");
    }

    #[test]
    fn flags_build_matching_sinks() {
        let off = ObserveFlags::default();
        assert!(!off.enabled());
        assert!(!off.sink().is_enabled());
        assert!(off.registry().is_none());
        let on = ObserveFlags {
            trace: Some("t.jsonl".into()),
            metrics: Some("m.json".into()),
        };
        assert!(on.enabled());
        assert!(on.sink().is_enabled());
        assert!(on.registry().is_some());
    }

    #[test]
    fn parse_consumes_only_the_observe_flags() {
        let argv = |args: &[&str]| args.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let read = |args: &[&str]| {
            crate::cli::read(argv(args), ObserveFlags::default(), |flags, _, args| {
                args.observe(flags)
            })
        };
        let flags = read(&["--trace", "x.jsonl"]).unwrap();
        assert_eq!(flags.trace.as_deref(), Some("x.jsonl"));
        assert_eq!(flags.metrics, None);
        // Anything else is left to the bin's own arms (here: none).
        assert_eq!(
            read(&["--trace", "x.jsonl", "--seed", "1"]).unwrap_err(),
            Stop::Bad("unknown argument \"--seed\"".to_owned())
        );
        assert_eq!(
            read(&["--trace", "x.jsonl", "--metrics"]).unwrap_err(),
            Stop::Bad("--metrics needs a value".to_owned())
        );
    }
}
