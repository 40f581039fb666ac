//! `cyclosa-lint` — a dependency-free determinism & schema static-analysis
//! pass over the Cyclosa workspace.
//!
//! The simulator's headline invariant is that sharded runs are
//! bit-identical to sequential runs for any seed. Most regressions against
//! that invariant have a *lexical* fingerprint long before they have a
//! failing test: a `HashMap` whose randomized iteration order leaks into
//! event order, an `Instant::now()` feeding simulated state, two RNG
//! streams forked under the same tag, a trace event name drifting out of
//! the closed schema. This crate bans those fingerprints at the source
//! level and runs in CI on every push.
//!
//! Four rules (see each module's docs):
//!
//! | rule | module | defends |
//! |---|---|---|
//! | `wall_clock`, `hash_collections` | [`nondet`] | no process entropy in critical crates |
//! | `rng_stream` | [`rng`] | collision-free stream tags + `RNG_STREAMS.md` registry |
//! | `trace_schema` | [`schema`] | emitters ⊆ schema ∧ schema ⊆ emitters |
//! | `allow_hygiene` | here | every suppression is reasoned and still live |
//!
//! Sanctioned sites carry `// cyclosa-lint: allow(<rule>, reason = "...")`
//! annotations; reason-less, unknown-rule and unused allows are themselves
//! errors so the allowlist cannot rot.

pub mod annot;
pub mod nondet;
pub mod rng;
pub mod scan;
pub mod schema;

use scan::ScannedFile;
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The rule a finding belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Wall-clock reads in determinism-critical crates.
    WallClock,
    /// Randomized hash collections in determinism-critical crates.
    HashCollections,
    /// Colliding / unregistered RNG stream tags.
    RngStream,
    /// Trace event names drifting from the closed telemetry schema.
    TraceSchema,
    /// Malformed, reason-less or unused `allow` annotations.
    AllowHygiene,
}

impl Rule {
    /// Every rule, in reporting order.
    pub const ALL: [Rule; 5] = [
        Rule::WallClock,
        Rule::HashCollections,
        Rule::RngStream,
        Rule::TraceSchema,
        Rule::AllowHygiene,
    ];

    /// Stable identifier (matches the annotation grammar).
    pub fn name(self) -> &'static str {
        match self {
            Rule::WallClock => "wall_clock",
            Rule::HashCollections => "hash_collections",
            Rule::RngStream => "rng_stream",
            Rule::TraceSchema => "trace_schema",
            Rule::AllowHygiene => "allow_hygiene",
        }
    }

    /// Parses a `--only` argument (`trace-schema` and `trace_schema` both
    /// accepted; `nondet` selects both nondeterminism rules).
    pub fn from_arg(arg: &str) -> Option<Vec<Rule>> {
        match arg.replace('-', "_").as_str() {
            "wall_clock" => Some(vec![Rule::WallClock]),
            "hash_collections" => Some(vec![Rule::HashCollections]),
            "nondet" => Some(vec![Rule::WallClock, Rule::HashCollections]),
            "rng_stream" => Some(vec![Rule::RngStream]),
            "trace_schema" => Some(vec![Rule::TraceSchema]),
            "allow_hygiene" => Some(vec![Rule::AllowHygiene]),
            _ => None,
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One lint finding. Findings are errors: the bin exits non-zero if any
/// survive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule that fired.
    pub rule: Rule,
    /// Repo-relative path.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// Human-readable explanation with remediation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "error[{}]: {}:{}: {}",
            self.rule, self.path, self.line, self.message
        )
    }
}

/// The file name of the committed RNG-stream registry.
pub const RNG_REGISTRY_FILE: &str = "RNG_STREAMS.md";

/// A loaded workspace: every production `.rs` source under `crates/*/src`
/// plus the root package's `src/`, scanned and annotation-parsed.
pub struct Workspace {
    /// Workspace root.
    pub root: PathBuf,
    /// Scanned sources, sorted by path.
    pub files: Vec<ScannedFile>,
    /// Per-path parsed annotations.
    pub annots: BTreeMap<String, annot::Annotations>,
}

impl Workspace {
    /// Loads and scans the workspace rooted at `root`: each member's
    /// `src/` and the root package's. `target/`, `benchmarks/` and
    /// per-crate `tests/` directories are out of scope: the rules only
    /// police production sources.
    pub fn load(root: &Path) -> io::Result<Workspace> {
        let mut sources = Vec::new();
        let crates_dir = root.join("crates");
        if crates_dir.is_dir() {
            let mut members: Vec<PathBuf> = fs::read_dir(&crates_dir)?
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.join("src").is_dir())
                .collect();
            members.sort();
            for member in members {
                collect_rs(&member.join("src"), &mut sources)?;
            }
        }
        if root.join("src").is_dir() {
            collect_rs(&root.join("src"), &mut sources)?;
        }
        sources.sort();
        let mut files = Vec::with_capacity(sources.len());
        let mut annots = BTreeMap::new();
        for path in sources {
            let source = fs::read_to_string(&path)?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            let file = scan::scan_source(&rel, &source);
            annots.insert(rel, annot::parse(&file));
            files.push(file);
        }
        Ok(Workspace {
            root: root.to_owned(),
            files,
            annots,
        })
    }

    /// Runs `rules` and returns the findings, sorted by (path, line, rule).
    pub fn run(&self, rules: &[Rule]) -> Vec<Finding> {
        let refs: Vec<&ScannedFile> = self.files.iter().collect();
        let mut findings = Vec::new();
        if rules.contains(&Rule::WallClock) || rules.contains(&Rule::HashCollections) {
            for file in &refs {
                nondet::check_file(file, &self.annots[&file.path], &mut findings);
            }
            findings.retain(|f| rules.contains(&f.rule));
        }
        if rules.contains(&Rule::RngStream) {
            let harvest = rng::harvest(&refs);
            rng::check(&harvest, &self.annots, &mut findings);
            self.check_registry(&harvest, &mut findings);
        }
        if rules.contains(&Rule::TraceSchema) {
            let schema = schema::collect_schema(&refs);
            schema::check(&refs, &schema, &self.annots, &mut findings);
        }
        if rules.contains(&Rule::AllowHygiene) {
            let schema = schema::collect_schema(&refs);
            for file in &refs {
                check_hygiene(file, &self.annots[&file.path], &schema, &mut findings);
            }
        }
        findings.sort_by(|a, b| {
            (&a.path, a.line, a.rule, &a.message).cmp(&(&b.path, b.line, b.rule, &b.message))
        });
        findings.dedup();
        findings
    }

    /// The RNG registry document the current tree should carry.
    pub fn registry_doc(&self) -> String {
        let refs: Vec<&ScannedFile> = self.files.iter().collect();
        rng::registry_doc(&rng::harvest(&refs))
    }

    /// Compares the committed `RNG_STREAMS.md` against the tree's harvest.
    fn check_registry(&self, harvest: &rng::Harvest, findings: &mut Vec<Finding>) {
        let expected = rng::registry_doc(harvest);
        let on_disk = fs::read_to_string(self.root.join(RNG_REGISTRY_FILE)).unwrap_or_default();
        if on_disk != expected {
            findings.push(Finding {
                rule: Rule::RngStream,
                path: RNG_REGISTRY_FILE.to_owned(),
                line: 1,
                message: format!(
                    "{RNG_REGISTRY_FILE} is {} — run `cargo run --bin lint -- --write-registry` \
                     and commit the result",
                    if on_disk.is_empty() {
                        "missing"
                    } else {
                        "stale"
                    }
                ),
            });
        }
    }
}

/// Recursively collects `.rs` files under `dir` (sorted traversal).
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for entry in entries {
        if entry.is_dir() {
            collect_rs(&entry, out)?;
        } else if entry.extension().is_some_and(|e| e == "rs") {
            out.push(entry);
        }
    }
    Ok(())
}

/// Trigger tokens per rule, used to decide whether an allow still
/// suppresses anything on its target line.
fn allow_is_live(rule: &str, file: &ScannedFile, target: usize) -> bool {
    let code = &file.code_lines[target];
    match rule {
        "hash_collections" => nondet::HASH_TOKENS
            .iter()
            .any(|t| nondet::word_occurrences(code, t).next().is_some()),
        "wall_clock" => nondet::WALL_TOKENS
            .iter()
            .any(|t| nondet::word_occurrences(code, t).next().is_some()),
        "rng_stream" => code.contains("fork(") || code.contains("churn_stream("),
        // A trace-schema allow is live while its line still carries a
        // string literal (the event name).
        "trace_schema" => file.strings.iter().any(|s| s.line == target),
        _ => false,
    }
}

/// Rule 4 — allow-annotation hygiene for one file.
fn check_hygiene(
    file: &ScannedFile,
    annots: &annot::Annotations,
    _schema: &schema::Schema,
    findings: &mut Vec<Finding>,
) {
    for malformed in &annots.malformed {
        findings.push(Finding {
            rule: Rule::AllowHygiene,
            path: file.path.clone(),
            line: ScannedFile::display_line(malformed.line),
            message: format!("malformed cyclosa-lint annotation: {}", malformed.message),
        });
    }
    for allow in &annots.allows {
        if !annot::KNOWN_RULES.contains(&allow.rule.as_str()) {
            findings.push(Finding {
                rule: Rule::AllowHygiene,
                path: file.path.clone(),
                line: ScannedFile::display_line(allow.line),
                message: format!(
                    "allow names unknown rule `{}` (known: {})",
                    allow.rule,
                    annot::KNOWN_RULES.join(", ")
                ),
            });
            continue;
        }
        match allow.reason.as_deref() {
            None => findings.push(Finding {
                rule: Rule::AllowHygiene,
                path: file.path.clone(),
                line: ScannedFile::display_line(allow.line),
                message: format!(
                    "allow({}) has no reason — every suppression must say why: \
                     `allow({}, reason = \"...\")`",
                    allow.rule, allow.rule
                ),
            }),
            Some(reason) if reason.trim().is_empty() => findings.push(Finding {
                rule: Rule::AllowHygiene,
                path: file.path.clone(),
                line: ScannedFile::display_line(allow.line),
                message: format!("allow({}) has an empty reason", allow.rule),
            }),
            Some(_) => {
                if !allow_is_live(&allow.rule, file, allow.target) {
                    findings.push(Finding {
                        rule: Rule::AllowHygiene,
                        path: file.path.clone(),
                        line: ScannedFile::display_line(allow.line),
                        message: format!(
                            "unused allow({}): its target line no longer triggers the rule — \
                             delete the annotation",
                            allow.rule
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

    fn hygiene(path: &str, src: &str) -> Vec<Finding> {
        let file = scan_source(path, src);
        let annots = annot::parse(&file);
        let schema = schema::Schema::default();
        let mut findings = Vec::new();
        check_hygiene(&file, &annots, &schema, &mut findings);
        findings
    }

    #[test]
    fn reasonless_empty_and_unknown_allows_are_findings() {
        let src = "use x::HashMap; // cyclosa-lint: allow(hash_collections)\n\
                   use y::HashSet; // cyclosa-lint: allow(hash_collections, reason = \"\")\n\
                   let a = 1; // cyclosa-lint: allow(frobnicate, reason = \"x\")\n\
                   // cyclosa-lint: allow(wall_clock\nlet b = 2;\n";
        let findings = hygiene("crates/net/src/x.rs", src);
        assert_eq!(findings.len(), 4, "{findings:?}");
        assert!(findings.iter().all(|f| f.rule == Rule::AllowHygiene));
    }

    #[test]
    fn unused_allow_is_a_finding_live_allow_is_not() {
        let live = "use std::collections::HashMap; // cyclosa-lint: allow(hash_collections, reason = \"keyed only\")\n";
        assert!(hygiene("crates/net/src/x.rs", live).is_empty());
        let dead = "use std::collections::BTreeMap; // cyclosa-lint: allow(hash_collections, reason = \"keyed only\")\n";
        let findings = hygiene("crates/net/src/x.rs", dead);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("unused allow"));
    }

    #[test]
    fn rule_arg_parsing_accepts_both_spellings() {
        assert_eq!(
            Rule::from_arg("trace-schema"),
            Some(vec![Rule::TraceSchema])
        );
        assert_eq!(
            Rule::from_arg("trace_schema"),
            Some(vec![Rule::TraceSchema])
        );
        assert_eq!(
            Rule::from_arg("nondet"),
            Some(vec![Rule::WallClock, Rule::HashCollections])
        );
        assert_eq!(Rule::from_arg("bogus"), None);
    }
}
