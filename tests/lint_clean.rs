//! Meta-test: the shipped tree passes `cyclosa-lint`, and the lint still
//! has teeth — a seeded mutation of a production source (scanned in
//! memory, never written to disk) must produce a finding. Wall clocks and
//! hash collections are clippy's (`clippy.toml`), and so is the
//! string-named `TraceEvent::new`; CI seeds each into a source file and
//! requires its clippy run to fail. A trace name outside the schema does
//! not compile (the `compile_fail` doctest on `NodeTracer::event`).

use cyclosa_lint::{scan, Rule, Workspace};
use std::path::Path;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn load() -> Workspace {
    Workspace::load(repo_root()).expect("workspace loads")
}

/// Replaces one file of the loaded workspace with a mutated source,
/// re-scanning it, as if the mutation were on disk.
fn mutate(workspace: &mut Workspace, path: &str, append: &str) {
    let index = workspace
        .files
        .iter()
        .position(|f| f.path == path)
        .unwrap_or_else(|| panic!("{path} not in workspace"));
    let original = std::fs::read_to_string(repo_root().join(path)).expect("source readable");
    let mutated = format!("{original}\n{append}\n");
    workspace.files[index] = scan::scan_source(path, &mutated);
}

#[test]
fn shipped_tree_lints_clean() {
    let findings = load().run(&Rule::ALL);
    assert!(
        findings.is_empty(),
        "the shipped tree must lint clean:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn seeded_orphan_pub_fn_is_caught() {
    let mut workspace = load();
    mutate(
        &mut workspace,
        "crates/net/src/sim.rs",
        "/// Documented, never called.\npub fn sneaky_orphan_probe() -> u64 { 7 }",
    );
    let findings = workspace.run(&[Rule::DeadPub]);
    assert!(
        findings.iter().any(|f| f.rule == Rule::DeadPub
            && f.path == "crates/net/src/sim.rs"
            && f.message.contains("sneaky_orphan_probe")),
        "an uncalled pub fn must be flagged: {findings:?}"
    );
}

#[test]
fn retired_rule_names_are_usage_errors() {
    // Churn tags and trace names are types now, wall clocks and hash
    // collections clippy's: naming a retired rule must fail loudly (exit
    // 2), not lint nothing and pass.
    for retired in ["rng-stream", "trace-schema", "nondet"] {
        let status = std::process::Command::new(env!("CARGO_BIN_EXE_lint"))
            .args(["--only", retired])
            .stderr(std::process::Stdio::null())
            .status()
            .expect("lint runs");
        assert_eq!(status.code(), Some(2), "--only {retired}");
    }
}
