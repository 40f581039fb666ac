//! `cyclosa-lint` — a dependency-free schema and stream static-analysis
//! pass over the Cyclosa workspace.
//!
//! The simulator's headline invariant is that sharded runs are
//! bit-identical to sequential runs for any seed. Some regressions against
//! that invariant have a *lexical* fingerprint long before they have a
//! failing test: two RNG streams forked under the same tag, a trace event
//! name drifting out of the closed schema. This crate bans those
//! fingerprints at the source level and runs in CI on every push. Wall
//! clocks and randomized hash collections are clippy's to ban
//! (`disallowed-methods`/`disallowed-types` in `clippy.toml`): it resolves
//! types, so it sees through aliases and re-exports, and polices every
//! crate, tests included.
//!
//! The rules (see each module's docs):
//!
//! | rule | module | defends |
//! |---|---|---|
//! | `rng_stream` | [`rng`] | collision-free stream tags + `RNG_STREAMS.md` registry |
//! | `trace_schema` | [`schema`] | emitters ⊆ schema ∧ schema ⊆ emitters |
//! | `dead_pub` | [`dead_pub`] | every `pub fn` has a caller outside its crate |
//!
//! None of them has a sanctioned site: a finding is fixed, never allowed.

pub mod dead_pub;
pub mod rng;
pub mod scan;
pub mod schema;

use scan::ScannedFile;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The rule a finding belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Colliding / unregistered RNG stream tags.
    RngStream,
    /// Trace event names drifting from the closed telemetry schema.
    TraceSchema,
    /// `pub fn`s that nothing outside their crate calls.
    DeadPub,
}

impl Rule {
    /// Every rule, in reporting order.
    pub const ALL: [Rule; 3] = [Rule::RngStream, Rule::TraceSchema, Rule::DeadPub];

    /// Stable identifier.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Rule::RngStream => "rng_stream",
            Rule::TraceSchema => "trace_schema",
            Rule::DeadPub => "dead_pub",
        }
    }

    /// Parses a `--only` argument (`trace-schema` and `trace_schema` both
    /// accepted).
    pub fn from_arg(arg: &str) -> Option<Rule> {
        match arg.replace('-', "_").as_str() {
            "rng_stream" => Some(Rule::RngStream),
            "trace_schema" => Some(Rule::TraceSchema),
            "dead_pub" => Some(Rule::DeadPub),
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
    pub(crate) line: usize,
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
/// plus the root package's `src/`, scanned, and the sources that only
/// call into them.
pub struct Workspace {
    /// Workspace root.
    pub(crate) root: PathBuf,
    /// Scanned sources, sorted by path.
    pub files: Vec<ScannedFile>,
    /// Scanned `tests/`, `examples/` and `benches/` of every package, and
    /// `benchmarks/src`: searched for callers by [`dead_pub`] (which skips
    /// a crate's own `tests/` when judging that crate), policed by no
    /// rule.
    callers: Vec<ScannedFile>,
}

impl Workspace {
    /// Loads and scans the workspace rooted at `root`: each member's
    /// `src/` and the root package's are policed; their `tests/`,
    /// `examples/` and `benches/` and `benchmarks/src` are only read for
    /// callers. `target/` is out of scope.
    pub fn load(root: &Path) -> io::Result<Workspace> {
        let mut packages = vec![root.to_owned()];
        let crates_dir = root.join("crates");
        if crates_dir.is_dir() {
            let mut members: Vec<PathBuf> = fs::read_dir(&crates_dir)?
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.join("src").is_dir())
                .collect();
            members.sort();
            packages.extend(members);
        }
        let (mut sources, mut callers) = (Vec::new(), Vec::new());
        for package in &packages {
            collect_rs(&package.join("src"), &mut sources)?;
            for dir in ["tests", "examples", "benches"] {
                collect_rs(&package.join(dir), &mut callers)?;
            }
        }
        collect_rs(&root.join("benchmarks/src"), &mut callers)?;
        sources.sort();
        callers.sort();
        let scan_file = |path: &PathBuf| -> io::Result<ScannedFile> {
            let source = fs::read_to_string(path)?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            Ok(scan::scan_source(&rel, &source))
        };
        Ok(Workspace {
            root: root.to_owned(),
            files: sources.iter().map(scan_file).collect::<io::Result<_>>()?,
            callers: callers.iter().map(scan_file).collect::<io::Result<_>>()?,
        })
    }

    /// Runs `rules` and returns the findings, sorted by (path, line, rule).
    pub fn run(&self, rules: &[Rule]) -> Vec<Finding> {
        let refs: Vec<&ScannedFile> = self.files.iter().collect();
        let mut findings = Vec::new();
        if rules.contains(&Rule::RngStream) {
            let harvest = rng::harvest(&refs);
            rng::check(&harvest, &mut findings);
            self.check_registry(&harvest, &mut findings);
        }
        if rules.contains(&Rule::TraceSchema) {
            let schema = schema::collect_schema(&refs);
            schema::check(&refs, &schema, &mut findings);
        }
        if rules.contains(&Rule::DeadPub) {
            dead_pub::check(&refs, &self.callers, &mut findings);
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

/// Recursively collects `.rs` files under `dir` (sorted traversal); a
/// missing `dir` holds none.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_arg_parsing_accepts_both_spellings() {
        assert_eq!(Rule::from_arg("trace-schema"), Some(Rule::TraceSchema));
        assert_eq!(Rule::from_arg("trace_schema"), Some(Rule::TraceSchema));
        assert_eq!(Rule::from_arg("bogus"), None);
        // Wall clocks and hash collections are clippy's: the names of the
        // lexical rules that banned them are usage errors, not no-ops.
        for retired in ["nondet", "wall-clock", "hash_collections"] {
            assert_eq!(Rule::from_arg(retired), None, "{retired}");
        }
    }
}
