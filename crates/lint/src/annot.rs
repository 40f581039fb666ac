//! `cyclosa-lint:` source annotations.
//!
//! Grammar (inside any line comment):
//!
//! ```text
//! // cyclosa-lint: allow(<rule>, reason = "<non-empty text>")
//! // cyclosa-lint: schema-registry
//! ```
//!
//! An `allow` suppresses one rule on its *target line*: the line the
//! comment shares with code (trailing comment) or, for a comment on its
//! own line, the next line carrying code. Reason-less, empty-reason,
//! unknown-rule and unused allows are all findings of the
//! `allow-hygiene` rule — an allowlist only stays trustworthy when every
//! entry says why it exists and still suppresses something.

use crate::scan::ScannedFile;

/// The rule identifiers an `allow(...)` may name.
pub(crate) const KNOWN_RULES: [&str; 4] = [
    "wall_clock",
    "hash_collections",
    "rng_stream",
    "trace_schema",
];

/// One parsed `allow` annotation.
#[derive(Debug, Clone)]
pub(crate) struct Allow {
    /// 0-based line of the comment.
    pub(crate) line: usize,
    /// 0-based line the allow applies to.
    pub(crate) target: usize,
    /// Rule name as written.
    pub(crate) rule: String,
    /// The reason text, if present.
    pub(crate) reason: Option<String>,
}

/// Parse problems reported by the hygiene rule.
#[derive(Debug, Clone)]
pub(crate) struct Malformed {
    /// 0-based line of the comment.
    pub(crate) line: usize,
    /// What is wrong with it.
    pub(crate) message: String,
}

/// All annotations of one file.
#[derive(Debug, Default)]
pub struct Annotations {
    /// Well-formed allows (possibly with hygiene problems like an empty
    /// reason, which the hygiene rule reports separately).
    pub(crate) allows: Vec<Allow>,
    /// Unparsable `cyclosa-lint:` directives.
    pub(crate) malformed: Vec<Malformed>,
}

impl Annotations {
    /// Whether `rule` is allowed on 0-based `line`.
    pub(crate) fn allows_rule(&self, rule: &str, line: usize) -> bool {
        self.allows
            .iter()
            .any(|a| a.target == line && a.rule == rule && a.is_well_formed())
    }
}

impl Allow {
    /// An allow only suppresses when it names a known rule and carries a
    /// non-empty reason; otherwise it is itself a finding and must not
    /// silence anything.
    pub(crate) fn is_well_formed(&self) -> bool {
        KNOWN_RULES.contains(&self.rule.as_str())
            && self.reason.as_deref().is_some_and(|r| !r.trim().is_empty())
    }
}

/// The line an annotation written on `line` applies to: the same line if
/// it carries code, else the next line with code.
fn target_line(file: &ScannedFile, line: usize) -> usize {
    if !file.code_lines[line].trim().is_empty() {
        return line;
    }
    (line + 1..file.code_lines.len())
        .find(|&l| !file.code_lines[l].trim().is_empty())
        .unwrap_or(line)
}

/// Extracts every `cyclosa-lint:` annotation of `file`.
pub fn parse(file: &ScannedFile) -> Annotations {
    let mut out = Annotations::default();
    for (line, comment) in file.comments.iter().enumerate() {
        let Some(directive) = crate::scan::directive(comment) else {
            continue;
        };
        let directive = directive.trim();
        if directive.starts_with("schema-registry") {
            continue; // handled by the scanner's region pass
        }
        match parse_allow(directive) {
            Ok((rule, reason)) => out.allows.push(Allow {
                line,
                target: target_line(file, line),
                rule,
                reason,
            }),
            Err(message) => out.malformed.push(Malformed { line, message }),
        }
    }
    out
}

/// Parses `allow(<rule>, reason = "...")` (reason optional — its absence
/// is a hygiene finding, not a parse error).
fn parse_allow(directive: &str) -> Result<(String, Option<String>), String> {
    let rest = directive.strip_prefix("allow(").ok_or_else(|| {
        format!("unknown directive {directive:?} (expected `allow(...)` or `schema-registry`)")
    })?;
    let end = rest
        .rfind(')')
        .ok_or_else(|| "unterminated `allow(` annotation".to_owned())?;
    let body = &rest[..end];
    let (rule, tail) = match body.find(',') {
        Some(comma) => (body[..comma].trim(), body[comma + 1..].trim()),
        None => (body.trim(), ""),
    };
    if rule.is_empty() || !rule.chars().all(|c| c.is_ascii_lowercase() || c == '_') {
        return Err(format!("bad rule name {rule:?} in allow annotation"));
    }
    if tail.is_empty() {
        return Ok((rule.to_owned(), None));
    }
    let value = tail
        .strip_prefix("reason")
        .map(str::trim_start)
        .and_then(|t| t.strip_prefix('='))
        .map(str::trim_start)
        .ok_or_else(|| format!("expected `reason = \"...\"`, got {tail:?}"))?;
    let inner = value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .ok_or_else(|| format!("reason must be a double-quoted string, got {value:?}"))?;
    Ok((rule.to_owned(), Some(inner.to_owned())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan_source;

    #[test]
    fn trailing_and_standalone_allows_find_their_targets() {
        let file = scan_source(
            "x.rs",
            "use x::HashMap; // cyclosa-lint: allow(hash_collections, reason = \"keyed only\")\n\
             // cyclosa-lint: allow(wall_clock, reason = \"profiling\")\n\
             let t = Instant::now();\n",
        );
        let annots = parse(&file);
        assert_eq!(annots.allows.len(), 2);
        assert!(annots.allows_rule("hash_collections", 0));
        assert!(annots.allows_rule("wall_clock", 2));
        assert!(!annots.allows_rule("wall_clock", 1));
    }

    #[test]
    fn reasonless_or_empty_reason_allows_do_not_suppress() {
        let file = scan_source(
            "x.rs",
            "let a = 1; // cyclosa-lint: allow(hash_collections)\n\
             let b = 2; // cyclosa-lint: allow(hash_collections, reason = \"\")\n\
             let c = 3; // cyclosa-lint: allow(nonsense_rule, reason = \"x\")\n",
        );
        let annots = parse(&file);
        assert_eq!(annots.allows.len(), 3);
        assert!(!annots.allows_rule("hash_collections", 0));
        assert!(!annots.allows_rule("hash_collections", 1));
        assert!(!annots.allows_rule("nonsense_rule", 2));
    }

    #[test]
    fn malformed_directives_are_collected() {
        let file = scan_source(
            "x.rs",
            "// cyclosa-lint: allow(hash_collections\nlet a = 1;\n// cyclosa-lint: frobnicate\n",
        );
        let annots = parse(&file);
        assert_eq!(annots.malformed.len(), 2);
    }

    #[test]
    fn reasons_may_contain_commas_and_parens() {
        let file = scan_source(
            "x.rs",
            "let a = 1; // cyclosa-lint: allow(wall_clock, reason = \"profiling only (never traced), zero perturbation\")\n",
        );
        let annots = parse(&file);
        assert_eq!(
            annots.allows[0].reason.as_deref(),
            Some("profiling only (never traced), zero perturbation")
        );
        assert!(annots.allows_rule("wall_clock", 0));
    }
}
