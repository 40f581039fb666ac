//! Rule 5 — no `pub fn` without a caller.
//!
//! A `pub fn` under `crates/*/src` whose name appears on no other code
//! line of the workspace is API nobody uses, not even a test. Callers are
//! searched in every Rust source of the workspace: production sources
//! with their `#[cfg(test)]` modules, each package's `tests/`,
//! `examples/` and `benches/`, and `benchmarks/`. The scanner has blanked
//! comments and string literals, so a doc mention or a log line is not a
//! call, and a line that defines a function of the same name is not one
//! either. The fix is to delete the function, or narrow it to
//! `pub(crate)` so rustc's dead-code lint takes over; the rule has no
//! allow.

use crate::scan::ScannedFile;
use crate::{Finding, Rule};
use std::collections::BTreeSet;

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// The words of one code line, in order.
fn words(code: &str) -> impl Iterator<Item = &str> {
    code.split(|c: char| !is_ident_char(c))
        .filter(|w| !w.is_empty())
}

/// The name of the `pub fn` a code line declares, if any.
fn pub_fn_name(code: &str) -> Option<&str> {
    let mut rest = code.trim_start().strip_prefix("pub ")?;
    for qualifier in ["const ", "async ", "unsafe "] {
        rest = rest.strip_prefix(qualifier).unwrap_or(rest);
    }
    let name = rest.strip_prefix("fn ")?;
    let end = name.find(|c: char| !is_ident_char(c)).unwrap_or(name.len());
    Some(&name[..end]).filter(|name| !name.is_empty())
}

/// Every word that appears on a code line of `files` other than a line
/// defining a function of that name.
fn used_words<'a>(files: impl IntoIterator<Item = &'a ScannedFile>) -> BTreeSet<&'a str> {
    let mut used = BTreeSet::new();
    for code in files.into_iter().flat_map(|file| &file.code_lines) {
        let line: Vec<&str> = words(code).collect();
        let defined: Vec<&str> = line
            .windows(2)
            .filter(|pair| pair[0] == "fn")
            .map(|pair| pair[1])
            .collect();
        used.extend(line.into_iter().filter(|word| !defined.contains(word)));
    }
    used
}

/// Flags every `pub fn` of the `crates/*/src` files among `sources` whose
/// name no line of `sources` or `callers` uses.
pub fn check(sources: &[&ScannedFile], callers: &[ScannedFile], findings: &mut Vec<Finding>) {
    let used = used_words(sources.iter().copied().chain(callers));
    for file in sources.iter().filter(|file| file.crate_name().is_some()) {
        for (line, code) in file.code_lines.iter().enumerate() {
            let Some(name) = pub_fn_name(code).filter(|_| !file.in_test[line]) else {
                continue;
            };
            if !used.contains(name) {
                findings.push(Finding {
                    rule: Rule::DeadPub,
                    path: file.path.clone(),
                    line: ScannedFile::display_line(line),
                    message: format!(
                        "`pub fn {name}` has no caller anywhere in the workspace, tests and \
                         benchmarks included: delete it, or make it `pub(crate)`"
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan_source;

    fn run(sources: &[(&str, &str)], callers: &[(&str, &str)]) -> Vec<Finding> {
        let scan = |files: &[(&str, &str)]| -> Vec<ScannedFile> {
            files
                .iter()
                .map(|(path, src)| scan_source(path, src))
                .collect()
        };
        let (sources, callers) = (scan(sources), scan(callers));
        let mut findings = Vec::new();
        check(&sources.iter().collect::<Vec<_>>(), &callers, &mut findings);
        findings
    }

    #[test]
    fn declarations_are_recognised() {
        assert_eq!(pub_fn_name("    pub fn views(&self) {"), Some("views"));
        assert_eq!(pub_fn_name("pub const fn new<T>() -> Self {"), Some("new"));
        assert_eq!(pub_fn_name("pub unsafe fn raw("), Some("raw"));
        assert_eq!(pub_fn_name("pub(crate) fn lock("), None);
        assert_eq!(pub_fn_name("fn private() {"), None);
        assert_eq!(pub_fn_name("pub fn $name(&self) {"), None);
        assert_eq!(pub_fn_name("pub struct Fn;"), None);
    }

    #[test]
    fn an_orphan_is_flagged_and_any_caller_clears_it() {
        let lib = "pub fn orphan() {}\npub fn called() {}\nfn main() { called(); }\n";
        let findings = run(&[("crates/x/src/lib.rs", lib)], &[]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!((findings[0].rule, findings[0].line), (Rule::DeadPub, 1));
        // A test, an example or a benchmark is a caller.
        for path in [
            "tests/t.rs",
            "crates/x/examples/e.rs",
            "benchmarks/src/w.rs",
        ] {
            let caller = [(path, "fn t() { x::orphan(); }\n")];
            assert!(run(&[("crates/x/src/lib.rs", lib)], &caller).is_empty());
        }
        // So is a unit test of the defining crate.
        let tested = format!("{lib}#[cfg(test)]\nmod tests {{ fn t() {{ super::orphan(); }} }}\n");
        assert!(run(&[("crates/x/src/lib.rs", &tested)], &[]).is_empty());
    }

    #[test]
    fn comments_strings_and_same_name_definitions_are_not_callers() {
        let lib = "/// Call `orphan()` to do nothing.\npub fn orphan() {}\n\
                   fn log() { let _ = \"orphan\"; } // orphan\n\
                   impl T for S { fn orphan(&self) {} }\n";
        let findings = run(&[("crates/x/src/lib.rs", lib)], &[]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 2);
    }

    #[test]
    fn only_crate_sources_and_non_test_items_are_policed() {
        let orphan = "pub fn orphan() {}\n";
        assert!(run(&[("src/lib.rs", orphan)], &[]).is_empty());
        let in_test = "#[cfg(test)]\nmod tests {\n    pub fn helper() {}\n}\n";
        assert!(run(&[("crates/x/src/lib.rs", in_test)], &[]).is_empty());
    }
}
