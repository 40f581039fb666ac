//! Rule 2 — the RNG-stream audit.
//!
//! Determinism across shard counts rests on *decorrelated, collision-free*
//! RNG streams: every forked stream is identified by an integer tag
//! (`rng.fork(0x70FF)`) and every churn stream by a `(model tag, entity)`
//! pair (`churn_stream(seed, TAG_BURSTS, node)`). Two different purposes
//! accidentally sharing a tag silently correlate their draws — the bug
//! reproduces only for specific seeds and is invisible in review.
//!
//! The audit harvests every *literal* stream constant:
//!
//! - `fork(<int>)` labels collide per **file** (forks in one file
//!   typically share a parent stream);
//! - `churn_stream(seed, <TAG>, ...)` model tags collide **globally**
//!   (they share the one `(seed, tag, entity)` mixing namespace), with
//!   `const NAME: u64 = <int>;` declarations resolved lexically.
//!
//! The harvest is also rendered as `RNG_STREAMS.md` at the repo root; a
//! committed registry that no longer matches the tree is itself a finding
//! (run `lint --write-registry` to refresh it).

use crate::annot::Annotations;
use crate::scan::ScannedFile;
use crate::{Finding, Rule};
use std::collections::{BTreeMap, BTreeSet};

/// One harvested stream constant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct StreamTag {
    /// Tag value.
    pub(crate) value: u64,
    /// The const name it came through, or `<literal>` for a bare literal.
    pub(crate) label: String,
    /// Repo-relative file.
    pub(crate) path: String,
    /// 1-based line of the call site.
    pub(crate) line: usize,
}

/// The full harvest of one workspace.
#[derive(Debug, Default)]
pub(crate) struct Harvest {
    /// `fork(<int>)` call sites.
    pub(crate) forks: Vec<StreamTag>,
    /// `churn_stream(seed, TAG, ...)` call sites.
    pub(crate) churn: Vec<StreamTag>,
    /// Call sites whose tag is not a compile-time literal (listed in the
    /// registry for completeness; exempt from collision checks).
    pub(crate) dynamic: Vec<(String, usize, String)>,
}

/// Parses an integer literal (decimal or `0x` hex, `_` separators).
fn parse_int(token: &str) -> Option<u64> {
    let token = token.trim().replace('_', "");
    if let Some(hex) = token
        .strip_prefix("0x")
        .or_else(|| token.strip_prefix("0X"))
    {
        u64::from_str_radix(hex, 16).ok()
    } else {
        token.parse().ok()
    }
}

/// Extracts the argument list region following `open` (the index just past
/// `(`), split at top-level commas.
fn split_args(code: &str, open: usize) -> Vec<String> {
    let mut depth = 0usize;
    let mut args = Vec::new();
    let mut current = String::new();
    for c in code[open..].chars() {
        match c {
            '(' | '[' | '<' => depth += 1,
            ')' | ']' | '>' if depth > 0 => depth -= 1,
            ')' => break,
            ',' if depth == 0 => {
                args.push(current.trim().to_owned());
                current.clear();
                continue;
            }
            _ => {}
        }
        current.push(c);
    }
    if !current.trim().is_empty() {
        args.push(current.trim().to_owned());
    }
    args
}

/// Collects `const NAME: u64 = <int>;` declarations per crate.
fn collect_consts(files: &[&ScannedFile]) -> BTreeMap<(String, String), u64> {
    let mut consts = BTreeMap::new();
    for file in files {
        let crate_name = file.crate_name().unwrap_or("<root>").to_owned();
        for code in &file.code_lines {
            let Some(at) = code.find("const ") else {
                continue;
            };
            let rest = &code[at + "const ".len()..];
            let Some((name, tail)) = rest.split_once(':') else {
                continue;
            };
            let name = name.trim();
            if name.is_empty()
                || !name
                    .chars()
                    .all(|c| c.is_ascii_uppercase() || c == '_' || c.is_ascii_digit())
            {
                continue;
            }
            let Some((ty, value)) = tail.split_once('=') else {
                continue;
            };
            if !matches!(ty.trim(), "u64" | "u32") {
                continue;
            }
            let Some(value) = parse_int(value.trim().trim_end_matches(';')) else {
                continue;
            };
            consts.insert((crate_name.clone(), name.to_owned()), value);
        }
    }
    consts
}

/// Harvests every stream-tag site in `files` (test regions excluded).
pub(crate) fn harvest(files: &[&ScannedFile]) -> Harvest {
    let consts = collect_consts(files);
    let mut out = Harvest::default();
    for file in files {
        let crate_name = file.crate_name().unwrap_or("<root>").to_owned();
        for (line, code) in file.code_lines.iter().enumerate() {
            if file.in_test[line] {
                continue;
            }
            for (idx, _) in code.match_indices("fork(") {
                // Skip definitions (`fn fork(`) and longer identifiers.
                let before = code[..idx].trim_end();
                if before.ends_with("fn")
                    || code[..idx]
                        .chars()
                        .next_back()
                        .is_some_and(|c| c.is_alphanumeric() || c == '_')
                {
                    continue;
                }
                let args = split_args(code, idx + "fork(".len());
                let Some(arg) = args.first() else { continue };
                match parse_int(arg) {
                    Some(value) => out.forks.push(StreamTag {
                        value,
                        label: "<literal>".to_owned(),
                        path: file.path.clone(),
                        line: ScannedFile::display_line(line),
                    }),
                    None => out.dynamic.push((
                        file.path.clone(),
                        ScannedFile::display_line(line),
                        format!("fork({arg})"),
                    )),
                }
            }
            for (idx, _) in code.match_indices("churn_stream(") {
                let before = code[..idx].trim_end();
                if before.ends_with("fn")
                    || code[..idx]
                        .chars()
                        .next_back()
                        .is_some_and(|c| c.is_alphanumeric() || c == '_')
                {
                    continue;
                }
                let args = split_args(code, idx + "churn_stream(".len());
                let Some(tag) = args.get(1) else { continue };
                let resolved = parse_int(tag).or_else(|| {
                    consts
                        .get(&(crate_name.clone(), tag.clone()))
                        .copied()
                        .or_else(|| {
                            // Fall back to any crate declaring the const
                            // (imported tags).
                            consts
                                .iter()
                                .find(|((_, name), _)| name == tag)
                                .map(|(_, &v)| v)
                        })
                });
                match resolved {
                    Some(value) => out.churn.push(StreamTag {
                        value,
                        label: if parse_int(tag).is_some() {
                            "<literal>".to_owned()
                        } else {
                            tag.clone()
                        },
                        path: file.path.clone(),
                        line: ScannedFile::display_line(line),
                    }),
                    None => out.dynamic.push((
                        file.path.clone(),
                        ScannedFile::display_line(line),
                        format!("churn_stream(_, {tag}, _)"),
                    )),
                }
            }
        }
    }
    out
}

/// Runs the collision checks over a harvest.
pub(crate) fn check(
    harvest: &Harvest,
    annots: &BTreeMap<String, Annotations>,
    findings: &mut Vec<Finding>,
) {
    let allowed = |site: &StreamTag| {
        annots
            .get(&site.path)
            .is_some_and(|a| a.allows_rule("rng_stream", site.line - 1))
    };
    // fork labels: collisions are per file.
    let mut by_file: BTreeMap<(&str, u64), Vec<&StreamTag>> = BTreeMap::new();
    for site in &harvest.forks {
        by_file
            .entry((site.path.as_str(), site.value))
            .or_default()
            .push(site);
    }
    for ((path, value), sites) in by_file {
        if sites.len() > 1 && !sites.iter().any(|s| allowed(s)) {
            let lines: Vec<String> = sites.iter().map(|s| s.line.to_string()).collect();
            findings.push(Finding {
                rule: Rule::RngStream,
                path: path.to_owned(),
                line: sites[1].line,
                message: format!(
                    "fork label {value:#X} used {} times in this file (lines {}): forks of one \
                     parent stream with equal labels produce correlated streams",
                    sites.len(),
                    lines.join(", ")
                ),
            });
        }
    }
    // churn_stream model tags: one global namespace; a value reached
    // through two different const names (or bare literals at different
    // sites) is a collision.
    let mut by_value: BTreeMap<u64, Vec<&StreamTag>> = BTreeMap::new();
    for site in &harvest.churn {
        by_value.entry(site.value).or_default().push(site);
    }
    for (value, sites) in by_value {
        let mut labels: Vec<&str> = sites
            .iter()
            .map(|s| s.label.as_str())
            .filter(|l| *l != "<literal>")
            .collect();
        labels.sort_unstable();
        labels.dedup();
        let literal_sites = sites.iter().filter(|s| s.label == "<literal>").count();
        let distinct = labels.len() + literal_sites;
        if distinct > 1 && !sites.iter().any(|s| allowed(s)) {
            let detail: Vec<String> = sites
                .iter()
                .map(|s| format!("{} ({}:{})", s.label, s.path, s.line))
                .collect();
            findings.push(Finding {
                rule: Rule::RngStream,
                path: sites[0].path.clone(),
                line: sites[0].line,
                message: format!(
                    "churn_stream model tag {value:#X} reached through {distinct} distinct \
                     constants/literals: {} — their streams are identical for equal entities",
                    detail.join(", ")
                ),
            });
        }
    }
}

/// Renders the registry document committed as `RNG_STREAMS.md`. It
/// records streams, not call sites: each row names a file, identical rows
/// are merged, and no line number appears, so moving code within a file
/// leaves the document unchanged (findings still carry their lines).
pub(crate) fn registry_doc(harvest: &Harvest) -> String {
    let mut doc = String::new();
    doc.push_str("# RNG stream registry\n\n");
    doc.push_str(
        "<!-- Generated by `cargo run --bin lint -- --write-registry`. Do not edit by hand;\n     the lint fails when this file no longer matches the tree. -->\n\n",
    );
    doc.push_str(
        "Every deterministic RNG stream in the workspace is identified by an integer\ntag. This registry is harvested lexically by `cyclosa-lint`'s RNG-stream audit,\nwhich fails the build on colliding tags (see ARCHITECTURE.md, Static analysis).\n\n",
    );
    doc.push_str("## `churn_stream(seed, tag, entity)` model tags — global namespace\n\n");
    doc.push_str("| tag | constant | file |\n|---|---|---|\n");
    let churn: BTreeSet<(u64, &str, &str)> = harvest
        .churn
        .iter()
        .map(|s| (s.value, s.label.as_str(), s.path.as_str()))
        .collect();
    for (value, label, path) in churn {
        doc.push_str(&format!("| `{value:#X}` | `{label}` | `{path}` |\n"));
    }
    doc.push_str("\n## `fork(label)` stream labels — per-file namespaces\n\n");
    doc.push_str("| file | label |\n|---|---|\n");
    let forks: BTreeSet<(&str, u64)> = harvest
        .forks
        .iter()
        .map(|s| (s.path.as_str(), s.value))
        .collect();
    for (path, value) in forks {
        doc.push_str(&format!("| `{path}` | `{value:#X}` |\n"));
    }
    if !harvest.dynamic.is_empty() {
        doc.push_str("\n## Dynamic tags (not collision-checked)\n\n");
        doc.push_str("| file | expression |\n|---|---|\n");
        let dynamic: BTreeSet<(&str, &str)> = harvest
            .dynamic
            .iter()
            .map(|(path, _, expr)| (path.as_str(), expr.as_str()))
            .collect();
        for (path, expr) in dynamic {
            doc.push_str(&format!("| `{path}` | `{expr}` |\n"));
        }
    }
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annot;
    use crate::scan::{scan_source, ScannedFile};

    fn run(srcs: &[(&str, &str)]) -> (Harvest, Vec<Finding>) {
        let files: Vec<ScannedFile> = srcs
            .iter()
            .map(|(path, src)| scan_source(path, src))
            .collect();
        let refs: Vec<&ScannedFile> = files.iter().collect();
        let harvest = harvest(&refs);
        let annots = files
            .iter()
            .map(|f| (f.path.clone(), annot::parse(f)))
            .collect();
        let mut findings = Vec::new();
        check(&harvest, &annots, &mut findings);
        (harvest, findings)
    }

    #[test]
    fn duplicate_fork_labels_in_one_file_collide() {
        let src = "fn f(rng: &mut R) { let a = rng.fork(0x70FF); let b = rng.fork(0x70FF); }\n";
        let (_, findings) = run(&[("crates/core/src/x.rs", src)]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("0x70FF"));
    }

    #[test]
    fn same_label_in_different_files_is_fine() {
        let (_, findings) = run(&[
            ("crates/core/src/a.rs", "fn f(r: &mut R) { r.fork(1); }\n"),
            ("crates/chaos/src/b.rs", "fn f(r: &mut R) { r.fork(1); }\n"),
        ]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn churn_tags_collide_globally_through_consts() {
        let a =
            "const TAG_SESSIONS: u64 = 3;\nfn f(s: u64) { churn_stream(s, TAG_SESSIONS, 0); }\n";
        let b = "const TAG_STORMS: u64 = 3;\nfn f(s: u64) { churn_stream(s, TAG_STORMS, 0); }\n";
        let (_, findings) = run(&[("crates/chaos/src/a.rs", a), ("crates/chaos/src/b.rs", b)]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("TAG_SESSIONS"));
        assert!(findings[0].message.contains("TAG_STORMS"));
    }

    #[test]
    fn one_const_used_at_many_sites_is_one_stream_family() {
        let src = "const TAG: u64 = 7;\nfn f(s: u64) { churn_stream(s, TAG, 0); churn_stream(s, TAG, 1); }\n";
        let (_, findings) = run(&[("crates/chaos/src/a.rs", src)]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn definitions_comments_and_tests_are_not_call_sites() {
        let src = "/// call fork(1) twice\npub fn fork(label: u64) {}\npub fn churn_stream(seed: u64, tag: u64, e: u64) {}\n#[cfg(test)]\nmod tests {\n    fn t(r: &mut R) { r.fork(1); r.fork(1); }\n}\n";
        let (harvest, findings) = run(&[("crates/util/src/rng.rs", src)]);
        assert!(harvest.forks.is_empty());
        assert!(harvest.churn.is_empty());
        assert!(findings.is_empty());
    }

    #[test]
    fn dynamic_tags_are_listed_not_checked() {
        let src = "fn f(r: &mut R, label: u64) { r.fork(label); }\n";
        let (harvest, findings) = run(&[("crates/bench/src/setup.rs", src)]);
        assert_eq!(harvest.dynamic.len(), 1);
        assert!(findings.is_empty());
    }

    #[test]
    fn registry_doc_is_deterministic_and_complete() {
        let src = "fn f(r: &mut R) { r.fork(0xFA4E); }\n";
        let (harvest, _) = run(&[("crates/core/src/x.rs", src)]);
        let doc = registry_doc(&harvest);
        assert!(doc.contains("0xFA4E"));
        assert_eq!(doc, registry_doc(&harvest));
    }

    #[test]
    fn registry_doc_ignores_line_numbers() {
        let src = "const TAG: u64 = 7;\nfn f(s: u64, r: &mut R, l: u64) {\n    churn_stream(s, TAG, 0);\n    r.fork(0xFA4E);\n    r.fork(l);\n}\n";
        let moved = src.replace("    r.fork(0xFA4E);", "\n    r.fork(0xFA4E);");
        let (before, _) = run(&[("crates/core/src/x.rs", src)]);
        let (after, _) = run(&[("crates/core/src/x.rs", moved.as_str())]);
        assert_ne!(before.forks[0].line, after.forks[0].line);
        assert_eq!(registry_doc(&before), registry_doc(&after));
    }

    #[test]
    fn registry_doc_lists_a_stream_once_per_file() {
        let src = "const TAG: u64 = 7;\nfn f(s: u64) { churn_stream(s, TAG, 0); churn_stream(s, TAG, 1); }\n";
        let (harvest, _) = run(&[("crates/chaos/src/a.rs", src)]);
        assert_eq!(harvest.churn.len(), 2);
        let doc = registry_doc(&harvest);
        assert_eq!(doc.matches("`TAG`").count(), 1, "{doc}");
    }
}
