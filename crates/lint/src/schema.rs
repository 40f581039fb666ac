//! Rule 3 — the trace-schema cross-check.
//!
//! `cyclosa-telemetry::check` validates exported traces against a *closed*
//! event-name schema; an emitter whose name drifts out of that schema
//! produces traces the checker rejects (or worse, silently ignores in
//! `--require-event` gates). The cross-check keeps both directions honest:
//!
//! 1. every family-shaped string literal emitted from an instrumented
//!    crate must appear in the schema registry, and
//! 2. every schema entry must have at least one production emitter.
//!
//! The schema itself is harvested from const blocks annotated
//! `// cyclosa-lint: schema-registry` (the source of truth lives in
//! `crates/telemetry/src/check.rs`). Entries ending in `.` declare a
//! *family prefix*; all other entries declare event names.
//!
//! Family-shaped literals appearing as *metric* names (`counter(...)`,
//! `histogram(...)`) are not emitters; the classifier picks
//! the nearest preceding keyword in the flattened code to tell the two
//! apart. Drift has no allow: register the name or remove the stale
//! entry.

use crate::scan::ScannedFile;
use crate::{Finding, Rule};
use std::collections::BTreeMap;

/// Crates whose sources emit trace events and are scanned for emitters.
pub(crate) const INSTRUMENTED_CRATES: [&str; 6] = [
    "core",
    "chaos",
    "peer-sampling",
    "runtime",
    "telemetry",
    "bench",
];

/// Keywords marking an event-emission context.
const EMITTER_KEYWORDS: [&str; 3] = ["event(", "TraceEvent::new(", "fn event_name"];
/// Keywords marking a metric-registration context (excluded).
const METRIC_KEYWORDS: [&str; 2] = ["counter(", "histogram("];
/// How far back (bytes of flattened code) the classifier looks.
const CONTEXT_WINDOW: usize = 400;

/// The harvested schema: family prefixes plus the closed name set (each
/// name mapped to its declaration site for error reporting).
#[derive(Debug, Default)]
pub(crate) struct Schema {
    /// Family prefixes, each ending in `.`.
    pub(crate) families: Vec<String>,
    /// Event name → (registry file, 1-based line).
    pub(crate) names: BTreeMap<String, (String, usize)>,
}

/// Whether `value` is a well-formed event name of one of `families`.
pub(crate) fn family_shaped<'a>(value: &str, families: &'a [String]) -> Option<&'a str> {
    let family = families.iter().find(|f| value.starts_with(f.as_str()))?;
    let shaped = value.len() > family.len()
        && !value.ends_with('.')
        && value
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_');
    shaped.then_some(family.as_str())
}

/// Harvests the schema from every `schema-registry` region in `files`.
pub(crate) fn collect_schema(files: &[&ScannedFile]) -> Schema {
    let mut schema = Schema::default();
    for file in files {
        for lit in &file.strings {
            if !file.in_registry[lit.line] {
                continue;
            }
            let value = &lit.value;
            let chars_ok = value
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_');
            if !chars_ok || !value.contains('.') {
                continue;
            }
            if value.ends_with('.') {
                if !schema.families.contains(value) {
                    schema.families.push(value.clone());
                }
            } else {
                schema
                    .names
                    .entry(value.clone())
                    .or_insert_with(|| (file.path.clone(), ScannedFile::display_line(lit.line)));
            }
        }
    }
    // Longest-prefix-first so `family_shaped` matches the most specific
    // family when prefixes nest.
    schema
        .families
        .sort_by(|a, b| b.len().cmp(&a.len()).then(a.cmp(b)));
    schema
}

/// Whether the literal at byte `pos` of `flat` sits in a metric context.
fn is_metric_context(flat: &str, pos: usize) -> bool {
    let mut start = pos.saturating_sub(CONTEXT_WINDOW);
    while !flat.is_char_boundary(start) {
        start -= 1;
    }
    let window = &flat[start..pos];
    let last_of = |keywords: &[&str]| keywords.iter().filter_map(|k| window.rfind(k)).max();
    match (last_of(&EMITTER_KEYWORDS), last_of(&METRIC_KEYWORDS)) {
        (Some(emit), Some(metric)) => metric > emit,
        (None, Some(_)) => true,
        _ => false,
    }
}

/// Runs both directions of the cross-check.
pub(crate) fn check(files: &[&ScannedFile], schema: &Schema, findings: &mut Vec<Finding>) {
    let mut emitted: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
    for file in files {
        let Some(crate_name) = file.crate_name() else {
            continue;
        };
        if !INSTRUMENTED_CRATES.contains(&crate_name) {
            continue;
        }
        for lit in &file.strings {
            if file.in_test[lit.line] || file.in_registry[lit.line] {
                continue;
            }
            if family_shaped(&lit.value, &schema.families).is_none() {
                continue;
            }
            if is_metric_context(&file.flat_code, lit.flat_pos) {
                continue;
            }
            emitted.insert(lit.value.as_str());
            if !schema.names.contains_key(&lit.value) {
                findings.push(Finding {
                    rule: Rule::TraceSchema,
                    path: file.path.clone(),
                    line: ScannedFile::display_line(lit.line),
                    message: format!(
                        "event name \"{}\" is not in the closed trace schema \
                         (crates/telemetry/src/check.rs TRACE_EVENT_NAMES): the trace checker \
                         will reject exports carrying it. Add it to the registry",
                        lit.value
                    ),
                });
            }
        }
    }
    for (name, (path, line)) in &schema.names {
        if !emitted.contains(name.as_str()) {
            findings.push(Finding {
                rule: Rule::TraceSchema,
                path: path.clone(),
                line: *line,
                message: format!(
                    "schema entry \"{name}\" has no production emitter in the instrumented \
                     crates: remove the stale entry or restore the emission site"
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::{scan_source, ScannedFile};

    const REGISTRY: &str = "// cyclosa-lint: schema-registry\n\
        pub const FAMILIES: [&str; 2] = [\"plan.\", \"mship.\"];\n\
        // cyclosa-lint: schema-registry\n\
        pub const NAMES: [&str; 2] = [\n    \"plan.assess\",\n    \"mship.dead\",\n];\n";

    fn run(srcs: &[(&str, &str)]) -> Vec<Finding> {
        let files: Vec<ScannedFile> = srcs
            .iter()
            .map(|(path, src)| scan_source(path, src))
            .collect();
        let refs: Vec<&ScannedFile> = files.iter().collect();
        let schema = collect_schema(&refs);
        let mut findings = Vec::new();
        check(&refs, &schema, &mut findings);
        findings
    }

    #[test]
    fn known_emitters_cover_the_schema() {
        let emitters = "fn f(t: &T) { t.event(\"plan.assess\"); t.event(\"mship.dead\"); }\n";
        let findings = run(&[
            ("crates/telemetry/src/check.rs", REGISTRY),
            ("crates/core/src/node.rs", emitters),
        ]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn unknown_event_name_is_flagged() {
        let emitters =
            "fn f(t: &T) { t.event(\"plan.assess\"); t.event(\"mship.dead\"); t.event(\"plan.bogus\"); }\n";
        let findings = run(&[
            ("crates/telemetry/src/check.rs", REGISTRY),
            ("crates/core/src/node.rs", emitters),
        ]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("plan.bogus"));
    }

    #[test]
    fn schema_entry_without_emitter_is_flagged() {
        let emitters = "fn f(t: &T) { t.event(\"plan.assess\"); }\n";
        let findings = run(&[
            ("crates/telemetry/src/check.rs", REGISTRY),
            ("crates/core/src/node.rs", emitters),
        ]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("mship.dead"));
        assert_eq!(findings[0].path, "crates/telemetry/src/check.rs");
    }

    #[test]
    fn metric_names_are_not_emitters() {
        let src = "fn f(r: &R, t: &T) {\n\
             let c = r.counter(\"plan.bogus_metric\");\n\
             t.event(\"plan.assess\"); t.event(\"mship.dead\");\n}\n";
        let findings = run(&[
            ("crates/telemetry/src/check.rs", REGISTRY),
            ("crates/core/src/node.rs", src),
        ]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn test_code_and_non_instrumented_crates_are_ignored() {
        let test_only =
            "#[cfg(test)]\nmod tests {\n    fn t(t: &T) { t.event(\"plan.phantom\"); }\n}\n";
        let outside = "fn f(t: &T) { t.event(\"plan.elsewhere\"); }\n";
        let emitters = "fn f(t: &T) { t.event(\"plan.assess\"); t.event(\"mship.dead\"); }\n";
        let findings = run(&[
            ("crates/telemetry/src/check.rs", REGISTRY),
            ("crates/core/src/node.rs", emitters),
            ("crates/core/src/cov.rs", test_only),
            ("crates/attack/src/sim.rs", outside),
        ]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn prefix_probe_literals_are_not_event_names() {
        // A bare family prefix (ends with '.') and a braced format string
        // are both shape-excluded.
        let src = "fn f(n: &str, t: &T) {\n\
             let is_plan = n.starts_with(\"plan.\");\n\
             let label = format!(\"plan.{n}\");\n\
             t.event(\"plan.assess\"); t.event(\"mship.dead\");\n}\n";
        let findings = run(&[
            ("crates/telemetry/src/check.rs", REGISTRY),
            ("crates/core/src/node.rs", src),
        ]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn allow_comments_suppress_neither_direction() {
        let emitters = "fn f(t: &T) {\n\
             t.event(\"plan.assess\");\n\
             // cyclosa-lint: allow(trace_schema, reason = \"experimental event behind a flag\")\n\
             t.event(\"plan.experimental\");\n}\n";
        let registry = REGISTRY.replace(
            "    \"mship.dead\",",
            "    // cyclosa-lint: allow(trace_schema, reason = \"emitted by a later change\")\n    \"mship.dead\",",
        );
        let findings = run(&[
            ("crates/telemetry/src/check.rs", registry.as_str()),
            ("crates/core/src/node.rs", emitters),
        ]);
        assert_eq!(findings.len(), 2, "{findings:?}");
        for name in ["mship.dead", "plan.experimental"] {
            assert!(
                findings.iter().any(|f| f.message.contains(name)),
                "{findings:?}"
            );
        }
    }

    #[test]
    fn fn_event_name_bodies_count_as_emitters() {
        let slo = "impl Kind {\n    pub fn event_name(&self) -> &'static str {\n\
             match self { Kind::A => \"plan.assess\", Kind::B => \"mship.dead\" }\n    }\n}\n";
        let findings = run(&[
            ("crates/telemetry/src/check.rs", REGISTRY),
            ("crates/telemetry/src/slo.rs", slo),
        ]);
        assert!(findings.is_empty(), "{findings:?}");
    }
}
