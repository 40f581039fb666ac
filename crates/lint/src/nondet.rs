//! Rule 1 — the nondeterminism lint.
//!
//! Sharded runs are bit-identical to sequential only while no
//! determinism-critical crate draws entropy from the process: randomized
//! hash iteration (`std::collections::HashMap`/`HashSet` seed SipHash from
//! `RandomState`) and wall clocks (`Instant::now`, `SystemTime`) are the
//! two lexical fingerprints of that entropy. Both are banned in the
//! critical crates.
//!
//! A site is sanctioned by the attribute clippy's own `disallowed_*`
//! lints need there anyway, in the attribute block directly above the
//! flagged line (rustfmt may split it over several lines):
//!
//! ```text
//! #[expect(clippy::disallowed_methods, reason = "profiling-only stopwatch")]
//! let start = Instant::now();
//! ```
//!
//! The lint must be `clippy::disallowed_methods` or
//! `clippy::disallowed_types`, and the reason must be non-empty. An
//! `#[allow]`, a reason-less `#[expect]` or a comment sanctions nothing.
//! Clippy reports an expectation that no longer fires, so a sanction
//! cannot outlive its site.
//!
//! The sanctioned O(1) alternative for keyed hot-path state is
//! `cyclosa_util::det::{DetHashMap, DetHashSet}` (fixed-key FxHash);
//! order-observable state belongs in `BTreeMap`/`BTreeSet`.

use crate::scan::ScannedFile;
use crate::{Finding, Rule};

/// Crates whose event timelines must be bit-identical across shard
/// counts: randomized hash state is banned here.
pub(crate) const HASH_CRITICAL_CRATES: [&str; 6] = [
    "net",
    "runtime",
    "core",
    "chaos",
    "peer-sampling",
    "telemetry",
];

/// Crates where wall clocks are banned (the hash-critical set plus
/// `bench`, whose scalability driver has the one sanctioned stopwatch).
pub(crate) const WALL_CRITICAL_CRATES: [&str; 7] = [
    "net",
    "runtime",
    "core",
    "chaos",
    "peer-sampling",
    "telemetry",
    "bench",
];

/// Banned tokens of the `hash_collections` rule.
const HASH_TOKENS: [&str; 2] = ["HashMap", "HashSet"];
/// Banned tokens of the `wall_clock` rule.
const WALL_TOKENS: [&str; 2] = ["Instant::now", "SystemTime"];
/// The clippy lints whose expectation sanctions a site.
const SANCTIONING_LINTS: [&str; 2] = ["clippy::disallowed_methods", "clippy::disallowed_types"];

/// Whether `code[idx..]` starts a word-boundary occurrence of `token`.
fn word_at(code: &str, idx: usize, token: &str) -> bool {
    let before_ok = idx == 0
        || !code[..idx]
            .chars()
            .next_back()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
    let end = idx + token.len();
    let after_ok = end >= code.len()
        || !code[end..]
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
    before_ok && after_ok
}

/// Whether `code` holds a word-boundary occurrence of `token`.
fn has_word(code: &str, token: &str) -> bool {
    code.match_indices(token)
        .any(|(idx, _)| word_at(code, idx, token))
}

/// Whether the attribute block directly above 0-based `line` holds a
/// sanctioning `#[expect]` (see the module docs).
fn sanctioned(file: &ScannedFile, line: usize) -> bool {
    let start: usize = file.code_lines[..line].iter().map(|l| l.len() + 1).sum();
    let mut head = file.flat_code[..start].trim_end();
    // Walk the attributes upwards. String contents are blanked, so every
    // bracket here is code.
    while let Some(body) = head.strip_suffix(']') {
        let mut depth = 0usize;
        let mut open = None;
        for (i, c) in body.char_indices().rev() {
            match c {
                ']' => depth += 1,
                '[' if depth == 0 => {
                    open = Some(i);
                    break;
                }
                '[' => depth -= 1,
                _ => {}
            }
        }
        let Some(before) = open.and_then(|open| body[..open].strip_suffix('#')) else {
            return false;
        };
        let attr = &body[before.len() + 2..];
        if sanctions(file, before.len() + 2, attr) {
            return true;
        }
        head = before.trim_end();
    }
    false
}

/// Whether the attribute `attr` (the text between `#[` and `]`, at byte
/// `offset` of the flat code) expects a sanctioning lint with a
/// non-empty reason.
fn sanctions(file: &ScannedFile, offset: usize, attr: &str) -> bool {
    let Some(args) = attr
        .strip_prefix("expect")
        .map(str::trim_start)
        .and_then(|rest| rest.strip_prefix('('))
        .and_then(|rest| rest.trim_end().strip_suffix(')'))
    else {
        return false;
    };
    let names_lint = args
        .split(',')
        .any(|arg| SANCTIONING_LINTS.contains(&arg.trim()));
    let has_reason = args.split(',').any(|arg| {
        arg.trim()
            .strip_prefix("reason")
            .map(str::trim_start)
            .and_then(|rest| rest.strip_prefix('='))
            .is_some_and(|value| value.trim_start() == "\"\u{1}\"")
    });
    // The reason is the attribute's one string literal.
    let reason_said = file.strings.iter().any(|lit| {
        (offset..offset + attr.len()).contains(&lit.flat_pos) && !lit.value.trim().is_empty()
    });
    names_lint && has_reason && reason_said
}

/// Runs the nondeterminism rule over one scanned file.
pub(crate) fn check_file(file: &ScannedFile, findings: &mut Vec<Finding>) {
    let Some(crate_name) = file.crate_name() else {
        return;
    };
    let hash_on = HASH_CRITICAL_CRATES.contains(&crate_name);
    let wall_on = WALL_CRITICAL_CRATES.contains(&crate_name);
    if !hash_on && !wall_on {
        return;
    }
    for (line, code) in file.code_lines.iter().enumerate() {
        if file.in_test[line] {
            continue;
        }
        if hash_on {
            for token in HASH_TOKENS {
                if has_word(code, token) && !sanctioned(file, line) {
                    findings.push(Finding {
                        rule: Rule::HashCollections,
                        path: file.path.clone(),
                        line: ScannedFile::display_line(line),
                        message: format!(
                            "`{token}` in determinism-critical crate `{crate_name}`: randomized \
                             iteration order can leak into event order. Use BTreeMap/BTreeSet \
                             (order-observable state) or cyclosa_util::det::Det{token} (keyed \
                             hot-path state), or sanction the site with \
                             `#[expect(clippy::disallowed_types, reason = \"...\")]`"
                        ),
                    });
                }
            }
        }
        if wall_on {
            for token in WALL_TOKENS {
                if has_word(code, token) && !sanctioned(file, line) {
                    findings.push(Finding {
                        rule: Rule::WallClock,
                        path: file.path.clone(),
                        line: ScannedFile::display_line(line),
                        message: format!(
                            "`{token}` in determinism-critical crate `{crate_name}`: wall-clock \
                             reads are nondeterministic. Use simulated time (`SimTime`), or \
                             sanction the profiling site with \
                             `#[expect(clippy::disallowed_methods, reason = \"...\")]`"
                        ),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan_source;

    fn run(path: &str, src: &str) -> Vec<Finding> {
        let file = scan_source(path, src);
        let mut findings = Vec::new();
        check_file(&file, &mut findings);
        findings
    }

    const STOPWATCH: &str = "fn f() { let t = std::time::Instant::now(); }\n";

    #[test]
    fn bare_hashmap_in_critical_crate_is_flagged() {
        let findings = run(
            "crates/net/src/x.rs",
            "use std::collections::HashMap;\nfn f() { let m: HashMap<u8, u8> = HashMap::new(); }\n",
        );
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert_eq!(findings[0].line, 1);
    }

    #[test]
    fn non_critical_crates_are_exempt() {
        assert!(run("crates/nlp/src/x.rs", "use std::collections::HashMap;\n").is_empty());
        assert!(run("src/lib.rs", "use std::collections::HashMap;\n").is_empty());
    }

    #[test]
    fn matches_never_fire_in_strings_docs_or_comments() {
        let src = "/// Uses a HashMap internally; Instant::now is banned.\n\
                   // HashMap in a comment\n\
                   fn f() -> &'static str { \"HashMap and Instant::now inside a literal\" }\n";
        assert!(run("crates/net/src/x.rs", src).is_empty());
    }

    #[test]
    fn det_hash_map_is_not_a_match() {
        let src =
            "use cyclosa_util::det::{DetHashMap, DetHashSet};\nfn f(m: &DetHashMap<u8, u8>) {}\n";
        assert!(run("crates/net/src/x.rs", src).is_empty());
    }

    #[test]
    fn cfg_test_modules_are_exempt() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n    fn t() { let _ = std::time::Instant::now(); }\n}\n";
        assert!(run("crates/net/src/x.rs", src).is_empty());
    }

    #[test]
    fn wall_clock_flagged_and_allowed() {
        assert_eq!(run("crates/runtime/src/x.rs", STOPWATCH).len(), 1);
        let expected = format!(
            "#[expect(clippy::disallowed_methods, reason = \"profiling metric only\")]\n{STOPWATCH}"
        );
        assert!(run("crates/runtime/src/x.rs", &expected).is_empty());
        // An expectation with an empty reason must NOT sanction.
        let empty = format!("#[expect(clippy::disallowed_methods, reason = \"\")]\n{STOPWATCH}");
        assert_eq!(run("crates/runtime/src/x.rs", &empty).len(), 1);
    }

    #[test]
    fn an_expect_sanctions_only_the_line_below_it() {
        // rustfmt's split form, other attributes and comments in the block.
        let split = format!(
            "#[expect(\n    clippy::disallowed_methods,\n    reason = \"profiling\"\n)]\n\
             #[inline]\n// the stopwatch\n{STOPWATCH}"
        );
        assert!(run("crates/runtime/src/x.rs", &split).is_empty());
        let types = "#[expect(clippy::disallowed_types, reason = \"keyed only\")]\n\
                     use std::collections::HashMap;\n";
        assert!(run("crates/net/src/x.rs", types).is_empty());
        // One line further down is outside the sanction.
        let below = format!(
            "#[expect(clippy::disallowed_methods, reason = \"profiling\")]\nlet a = 1;\n{STOPWATCH}"
        );
        assert_eq!(run("crates/runtime/src/x.rs", &below).len(), 1);
    }

    #[test]
    fn reasonless_or_empty_reason_expects_do_not_sanction() {
        for attr in [
            "#[expect(clippy::disallowed_methods)]",
            "#[expect(clippy::disallowed_methods, reason = \"  \")]",
            "#[expect(clippy::disallowed_methods, reason)]",
            "#[allow(clippy::disallowed_methods, reason = \"profiling\")]",
            "#[expect(clippy::needless_range_loop, reason = \"profiling\")]",
            "// cyclosa-lint: allow(wall_clock, reason = \"profiling\")",
        ] {
            let src = format!("{attr}\n{STOPWATCH}");
            assert_eq!(run("crates/runtime/src/x.rs", &src).len(), 1, "{attr}");
        }
    }

    #[test]
    fn malformed_attributes_sanction_nothing() {
        for attr in [
            "#[expect(clippy::disallowed_methods, reason = \"profiling\"]",
            "#expect(clippy::disallowed_methods, reason = \"profiling\")]",
            "#[expect clippy::disallowed_methods, reason = \"profiling\"]",
            "]",
        ] {
            let src = format!("{attr}\n{STOPWATCH}");
            assert_eq!(run("crates/runtime/src/x.rs", &src).len(), 1, "{attr}");
        }
    }

    #[test]
    fn reasons_may_contain_commas_and_parens() {
        let src = format!(
            "#[expect(\n    clippy::disallowed_methods,\n    \
             reason = \"profiling only (never traced), zero [perturbation]\"\n)]\n{STOPWATCH}"
        );
        assert!(run("crates/runtime/src/x.rs", &src).is_empty());
    }

    #[test]
    fn system_time_is_banned_too() {
        let src = "fn f() { let _ = std::time::SystemTime::now(); }\n";
        assert_eq!(run("crates/telemetry/src/x.rs", src).len(), 1);
    }
}
