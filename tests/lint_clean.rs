//! Meta-test: the shipped tree passes `cyclosa-lint`, and the lint still
//! has teeth — seeded mutations of production sources (scanned in memory,
//! never written to disk) must each produce a finding of the right rule.

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
fn rng_registry_is_in_sync() {
    let expected = load().registry_doc();
    let on_disk = std::fs::read_to_string(repo_root().join(cyclosa_lint::RNG_REGISTRY_FILE))
        .expect("RNG_STREAMS.md committed");
    assert_eq!(
        on_disk, expected,
        "RNG_STREAMS.md is stale — run `cargo run --bin lint -- --write-registry`"
    );
}

#[test]
fn seeded_wall_clock_mutation_is_caught() {
    let mut workspace = load();
    mutate(
        &mut workspace,
        "crates/net/src/sim.rs",
        "fn sneaky_stopwatch() -> std::time::Instant { std::time::Instant::now() }",
    );
    let findings = workspace.run(&[Rule::WallClock]);
    assert!(
        findings
            .iter()
            .any(|f| f.rule == Rule::WallClock && f.path == "crates/net/src/sim.rs"),
        "bare Instant::now() in net/sim.rs must be flagged: {findings:?}"
    );
}

#[test]
fn seeded_hash_collection_mutation_is_caught() {
    let mut workspace = load();
    mutate(
        &mut workspace,
        "crates/net/src/sim.rs",
        "fn sneaky_state() -> std::collections::HashMap<u64, u64> { std::collections::HashMap::new() }",
    );
    let findings = workspace.run(&[Rule::HashCollections]);
    assert!(
        findings
            .iter()
            .any(|f| f.rule == Rule::HashCollections && f.path == "crates/net/src/sim.rs"),
        "bare HashMap in net/sim.rs must be flagged: {findings:?}"
    );
}

#[test]
fn seeded_schema_drift_is_caught() {
    let mut workspace = load();
    mutate(
        &mut workspace,
        "crates/core/src/node.rs",
        "fn sneaky_emit(t: &cyclosa_telemetry::TraceSink, e: cyclosa_telemetry::TraceEvent) { let _ = t; let _ = e.name; let _ = (\"x\", \"plan.zzz_unregistered\"); fn event(_: u8) {} event(1); let _ = \"plan.zzz_unregistered\"; }",
    );
    // The mutated file contains a family-shaped literal outside the schema.
    let findings = workspace.run(&[Rule::TraceSchema]);
    assert!(
        findings
            .iter()
            .any(|f| f.rule == Rule::TraceSchema && f.message.contains("plan.zzz_unregistered")),
        "unregistered event name must be flagged: {findings:?}"
    );
}

#[test]
fn seeded_rng_stream_collision_is_caught() {
    let mut workspace = load();
    // core/node.rs already forks label 0xFA4E once; a second fork with the
    // same label in the same file correlates the streams.
    mutate(
        &mut workspace,
        "crates/core/src/node.rs",
        "fn sneaky_fork(r: &mut cyclosa_util::rng::Xoshiro256StarStar) -> cyclosa_util::rng::Xoshiro256StarStar { r.fork(0xFA4E) }",
    );
    let findings = workspace.run(&[Rule::RngStream]);
    assert!(
        findings
            .iter()
            .any(|f| f.rule == Rule::RngStream && f.message.contains("fork label")),
        "duplicate fork label must be flagged: {findings:?}"
    );
}

#[test]
fn reasonless_allow_mutation_is_caught() {
    const SNEAKY: &str =
        "fn sneaky() -> std::collections::HashMap<u64, u64> { std::collections::HashMap::new() }";
    let flagged = |sanction: &str| {
        let mut workspace = load();
        mutate(
            &mut workspace,
            "crates/net/src/sim.rs",
            &format!("{sanction}\n{SNEAKY}"),
        );
        workspace
            .run(&Rule::ALL)
            .iter()
            .any(|f| f.rule == Rule::HashCollections && f.path == "crates/net/src/sim.rs")
    };
    // Each of these fails to sanction the HashMap.
    for sanction in [
        "#[expect(clippy::disallowed_types)]",
        "#[allow(clippy::disallowed_types)]",
        "#[allow(clippy::disallowed_types, reason = \"keyed lookups only\")]",
        "// cyclosa-lint: allow(hash_collections, reason = \"x\")",
    ] {
        assert!(
            flagged(sanction),
            "`{sanction}` must not sanction a HashMap"
        );
    }
    // A reasoned expectation does, also as rustfmt splits it.
    for sanction in [
        "#[expect(clippy::disallowed_types, reason = \"keyed lookups only\")]",
        "#[expect(\n    clippy::disallowed_types,\n    reason = \"keyed lookups only\"\n)]",
    ] {
        assert!(!flagged(sanction), "`{sanction}` must sanction a HashMap");
    }
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
