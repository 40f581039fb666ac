//! Rule 1 — the nondeterminism lint.
//!
//! Sharded runs are bit-identical to sequential only while no
//! determinism-critical crate draws entropy from the process: randomized
//! hash iteration (`std::collections::HashMap`/`HashSet` seed SipHash from
//! `RandomState`) and wall clocks (`Instant::now`, `SystemTime`) are the
//! two lexical fingerprints of that entropy. Both are banned in the
//! critical crates unless the site carries an
//! `allow(hash_collections | wall_clock, reason = "...")` annotation.
//!
//! The sanctioned O(1) alternative for keyed hot-path state is
//! `cyclosa_util::det::{DetHashMap, DetHashSet}` (fixed-key FxHash);
//! order-observable state belongs in `BTreeMap`/`BTreeSet`.

use crate::annot::Annotations;
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
pub(crate) const HASH_TOKENS: [&str; 2] = ["HashMap", "HashSet"];
/// Banned tokens of the `wall_clock` rule.
pub(crate) const WALL_TOKENS: [&str; 2] = ["Instant::now", "SystemTime"];

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

/// All word-boundary occurrences of `token` in `code`.
pub(crate) fn word_occurrences(code: &str, token: &str) -> impl Iterator<Item = usize> {
    code.match_indices(token)
        .map(|(idx, _)| idx)
        .filter(move |&idx| word_at(code, idx, token))
        .collect::<Vec<_>>()
        .into_iter()
}

/// Runs the nondeterminism rule over one scanned file.
pub(crate) fn check_file(file: &ScannedFile, annots: &Annotations, findings: &mut Vec<Finding>) {
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
                if word_occurrences(code, token).next().is_some()
                    && !annots.allows_rule("hash_collections", line)
                {
                    findings.push(Finding {
                        rule: Rule::HashCollections,
                        path: file.path.clone(),
                        line: ScannedFile::display_line(line),
                        message: format!(
                            "`{token}` in determinism-critical crate `{crate_name}`: randomized \
                             iteration order can leak into event order. Use BTreeMap/BTreeSet \
                             (order-observable state) or cyclosa_util::det::Det{token} (keyed \
                             hot-path state), or annotate with \
                             `// cyclosa-lint: allow(hash_collections, reason = \"...\")`"
                        ),
                    });
                }
            }
        }
        if wall_on {
            for token in WALL_TOKENS {
                if word_occurrences(code, token).next().is_some()
                    && !annots.allows_rule("wall_clock", line)
                {
                    findings.push(Finding {
                        rule: Rule::WallClock,
                        path: file.path.clone(),
                        line: ScannedFile::display_line(line),
                        message: format!(
                            "`{token}` in determinism-critical crate `{crate_name}`: wall-clock \
                             reads are nondeterministic. Use simulated time (`SimTime`), or \
                             annotate the sanctioned profiling site with \
                             `// cyclosa-lint: allow(wall_clock, reason = \"...\")`"
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
    use crate::annot;
    use crate::scan::scan_source;

    fn run(path: &str, src: &str) -> Vec<Finding> {
        let file = scan_source(path, src);
        let annots = annot::parse(&file);
        let mut findings = Vec::new();
        check_file(&file, &annots, &mut findings);
        findings
    }

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
        let bare = "fn f() { let t = std::time::Instant::now(); }\n";
        assert_eq!(run("crates/runtime/src/x.rs", bare).len(), 1);
        let allowed = "// cyclosa-lint: allow(wall_clock, reason = \"profiling metric only\")\n\
                       fn f() { let t = std::time::Instant::now(); }\n";
        assert!(run("crates/runtime/src/x.rs", allowed).is_empty());
        // An allow with an empty reason must NOT suppress.
        let empty = "// cyclosa-lint: allow(wall_clock, reason = \"\")\n\
                     fn f() { let t = std::time::Instant::now(); }\n";
        assert_eq!(run("crates/runtime/src/x.rs", empty).len(), 1);
    }

    #[test]
    fn system_time_is_banned_too() {
        let src = "fn f() { let _ = std::time::SystemTime::now(); }\n";
        assert_eq!(run("crates/telemetry/src/x.rs", src).len(), 1);
    }
}
