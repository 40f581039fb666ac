//! `cyclosa-lint` — a dependency-free static-analysis pass over the
//! Cyclosa workspace, for what neither rustc nor clippy can see.
//!
//! The simulator's headline invariant is that sharded runs are
//! bit-identical to sequential runs for any seed; the compiler and clippy
//! guard what it rests on. Wall clocks and randomized hash collections
//! are banned by clippy (`disallowed-methods`/`disallowed-types` in
//! `clippy.toml`): it resolves types, so it sees through aliases and
//! re-exports, and polices every crate, tests included. Churn streams are
//! told apart by `ChurnTag` (`cyclosa-chaos`), a `#[repr(u64)]` enum whose
//! values rustc keeps distinct, and trace events are named by
//! `EventName` (`cyclosa-telemetry`), so an emitter outside the schema
//! does not compile; clippy bans `TraceEvent::new`, the one constructor
//! that takes a bare string.
//!
//! The one rule left here:
//!
//! | rule | module | defends |
//! |---|---|---|
//! | `dead_pub` | [`dead_pub`] | every `pub fn` has a caller outside its crate |
//!
//! It has no sanctioned site: a finding is fixed, never allowed.

pub mod dead_pub;
pub mod scan;

use scan::ScannedFile;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The rule a finding belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// `pub fn`s that nothing outside their crate calls.
    DeadPub,
}

impl Rule {
    /// Every rule, in reporting order.
    pub const ALL: [Rule; 1] = [Rule::DeadPub];

    /// Stable identifier.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Rule::DeadPub => "dead_pub",
        }
    }

    /// Parses a `--only` argument (`dead-pub` and `dead_pub` both
    /// accepted).
    pub fn from_arg(arg: &str) -> Option<Rule> {
        match arg.replace('-', "_").as_str() {
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

/// A loaded workspace: every production `.rs` source under `crates/*/src`
/// plus the root package's `src/`, scanned, and the sources that only
/// call into them.
pub struct Workspace {
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
            files: sources.iter().map(scan_file).collect::<io::Result<_>>()?,
            callers: callers.iter().map(scan_file).collect::<io::Result<_>>()?,
        })
    }

    /// Runs `rules` and returns the findings, sorted by (path, line, rule).
    pub fn run(&self, rules: &[Rule]) -> Vec<Finding> {
        let refs: Vec<&ScannedFile> = self.files.iter().collect();
        let mut findings = Vec::new();
        if rules.contains(&Rule::DeadPub) {
            dead_pub::check(&refs, &self.callers, &mut findings);
        }
        findings.sort_by(|a, b| {
            (&a.path, a.line, a.rule, &a.message).cmp(&(&b.path, b.line, b.rule, &b.message))
        });
        findings.dedup();
        findings
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
        assert_eq!(Rule::from_arg("dead-pub"), Some(Rule::DeadPub));
        assert_eq!(Rule::from_arg("dead_pub"), Some(Rule::DeadPub));
        assert_eq!(Rule::from_arg("bogus"), None);
        // Wall clocks and hash collections are clippy's, churn tags and
        // trace names the compiler's: the names of the lexical rules that
        // checked them are usage errors, not no-ops.
        for retired in [
            "nondet",
            "wall-clock",
            "hash_collections",
            "rng-stream",
            "rng_stream",
            "trace-schema",
            "trace_schema",
        ] {
            assert_eq!(Rule::from_arg(retired), None, "{retired}");
        }
    }
}
