//! Rule 5 — no `pub fn` without a caller outside its crate.
//!
//! A `pub fn` of a library crate (`crates/<x>/src`, its bins excepted)
//! must be named in a file outside that library: another crate's sources,
//! tests included, the crate's own `src/bin/*.rs` (each bin is a crate of
//! its own), the root package's `src/`, `tests/` and `examples/`, and
//! `benchmarks/src`. The crate's own `#[cfg(test)]` modules and its
//! `crates/<x>/tests/` are not callers: an item only they reach is not
//! API. The scanner has blanked comments and string literals, so a doc
//! mention or a log line is not a call, and a line that defines a
//! function of the same name is not one either. The fix is to narrow the
//! function to `pub(crate)`, after which rustc's dead-code lint judges
//! whether anything calls it at all; the rule has no allow.

use crate::scan::ScannedFile;
use crate::{Finding, Rule};
use std::collections::{BTreeMap, BTreeSet};

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

/// The library crate whose calls a file of `path` does not count for:
/// `x` for `crates/x/src` outside its bins, and for `crates/x/tests`.
/// `None` for every other file, whose calls count for every crate.
fn home(path: &str) -> Option<&str> {
    let (name, rest) = path.strip_prefix("crates/")?.split_once('/')?;
    let own =
        rest.starts_with("tests/") || rest.starts_with("src/") && !rest.starts_with("src/bin/");
    own.then_some(name)
}

/// For every word on a code line of `files` (other than a line defining
/// a function of that name), the homes of the files it appears in.
fn word_homes<'a>(
    files: impl IntoIterator<Item = &'a ScannedFile>,
) -> BTreeMap<&'a str, BTreeSet<Option<&'a str>>> {
    let mut homes: BTreeMap<&str, BTreeSet<Option<&str>>> = BTreeMap::new();
    for file in files {
        let file_home = home(&file.path);
        for code in &file.code_lines {
            let line: Vec<&str> = words(code).collect();
            let defined: Vec<&str> = line
                .windows(2)
                .filter(|pair| pair[0] == "fn")
                .map(|pair| pair[1])
                .collect();
            for word in line.into_iter().filter(|word| !defined.contains(word)) {
                homes.entry(word).or_default().insert(file_home);
            }
        }
    }
    homes
}

/// Flags every `pub fn` of the library files among `sources` whose name
/// no line of `sources` or `callers` outside that library uses.
pub(crate) fn check(
    sources: &[&ScannedFile],
    callers: &[ScannedFile],
    findings: &mut Vec<Finding>,
) {
    let homes = word_homes(sources.iter().copied().chain(callers));
    for file in sources {
        let Some(library) = home(&file.path).filter(|_| file.path.contains("/src/")) else {
            continue;
        };
        for (line, code) in file.code_lines.iter().enumerate() {
            let Some(name) = pub_fn_name(code).filter(|_| !file.in_test[line]) else {
                continue;
            };
            let called_outside = homes
                .get(name)
                .is_some_and(|homes| homes.iter().any(|home| *home != Some(library)));
            if !called_outside {
                findings.push(Finding {
                    rule: Rule::DeadPub,
                    path: file.path.clone(),
                    line: ScannedFile::display_line(line),
                    message: format!(
                        "`pub fn {name}` has no caller outside the `{library}` library, its \
                         unit tests and `tests/` aside: make it `pub(crate)`, or delete it"
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
        let lib = "pub fn orphan() {}\npub fn called() {}\n";
        let caller = [("src/lib.rs", "fn main() { x::called(); }\n")];
        let findings = run(&[("crates/x/src/lib.rs", lib)], &caller);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!((findings[0].rule, findings[0].line), (Rule::DeadPub, 1));
        // A root test, an example, a benchmark, another crate's code or
        // tests, and the crate's own bin are callers.
        for path in [
            "tests/t.rs",
            "examples/e.rs",
            "crates/x/examples/e.rs",
            "benchmarks/src/w.rs",
            "crates/y/src/lib.rs",
            "crates/y/tests/t.rs",
            "crates/x/src/bin/tool.rs",
        ] {
            let caller = [(path, "fn t() { x::orphan(); x::called(); }\n")];
            let findings = run(&[("crates/x/src/lib.rs", lib)], &caller);
            assert!(findings.is_empty(), "{path}: {findings:?}");
        }
    }

    #[test]
    fn the_crates_own_code_unit_tests_and_tests_dir_are_not_callers() {
        // A call from elsewhere in the library.
        let lib = "pub fn orphan() {}\nfn main() { orphan(); }\n";
        assert_eq!(run(&[("crates/x/src/lib.rs", lib)], &[]).len(), 1);
        let other_module = [("crates/x/src/other.rs", "fn f() { crate::orphan(); }\n")];
        let sources = [("crates/x/src/lib.rs", lib), other_module[0]];
        assert_eq!(run(&sources, &[]).len(), 1);
        // A call from the crate's own unit test.
        let tested = format!("{lib}#[cfg(test)]\nmod tests {{ fn t() {{ super::orphan(); }} }}\n");
        assert_eq!(run(&[("crates/x/src/lib.rs", &tested)], &[]).len(), 1);
        // A call from the crate's own `tests/`.
        let own_test = [("crates/x/tests/t.rs", "fn t() { x::orphan(); }\n")];
        assert_eq!(run(&[("crates/x/src/lib.rs", lib)], &own_test).len(), 1);
    }

    #[test]
    fn comments_strings_and_same_name_definitions_are_not_callers() {
        let lib = "/// Call `orphan()` to do nothing.\npub fn orphan() {}\n";
        let caller = "/// Calls `x::orphan()`.\n\
                      fn log() { let _ = \"orphan\"; } // orphan\n\
                      impl T for S { fn orphan(&self) {} }\n";
        let findings = run(&[("crates/x/src/lib.rs", lib)], &[("src/lib.rs", caller)]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 2);
    }

    #[test]
    fn only_crate_sources_and_non_test_items_are_policed() {
        let orphan = "pub fn orphan() {}\n";
        assert!(run(&[("src/lib.rs", orphan)], &[]).is_empty());
        assert!(run(&[("crates/x/src/bin/tool.rs", orphan)], &[]).is_empty());
        let in_test = "#[cfg(test)]\nmod tests {\n    pub fn helper() {}\n}\n";
        assert!(run(&[("crates/x/src/lib.rs", in_test)], &[]).is_empty());
    }
}
