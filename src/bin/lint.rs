//! `cargo run --bin lint` — run the cyclosa-lint static-analysis pass.
//!
//! ```text
//! lint [--root <path>] [--only <rule>]... [--deny-all] [--write-registry]
//! ```
//!
//! - `--only <rule>` restricts the run (`wall-clock`, `hash-collections`,
//!   `nondet`, `rng-stream`, `trace-schema`, `dead-pub`); repeatable.
//! - `--write-registry` regenerates `RNG_STREAMS.md` instead of linting.
//! - `--deny-all` is the CI spelling: every finding is an error. Findings
//!   are always errors; the flag documents intent at the call site.
//! - `--root <path>` lints a tree other than the current directory.

use cyclosa_lint::{Rule, Workspace, RNG_REGISTRY_FILE};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut rules: Vec<Rule> = Vec::new();
    let mut write_registry = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(path) => root = PathBuf::from(path),
                None => return usage("--root needs a path"),
            },
            "--only" => match args.next().as_deref().and_then(Rule::from_arg) {
                Some(selected) => rules.extend(selected),
                None => return usage("--only needs a known rule name"),
            },
            "--deny-all" => {} // findings are always errors; accepted for CI clarity
            "--write-registry" => write_registry = true,
            "--help" | "-h" => return usage(""),
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }
    if rules.is_empty() {
        rules.extend(Rule::ALL);
    }

    let workspace = match Workspace::load(&root) {
        Ok(ws) => ws,
        Err(err) => {
            eprintln!("lint: cannot load workspace at {}: {err}", root.display());
            return ExitCode::FAILURE;
        }
    };

    if write_registry {
        let path = root.join(RNG_REGISTRY_FILE);
        if let Err(err) = std::fs::write(&path, workspace.registry_doc()) {
            eprintln!("lint: cannot write {}: {err}", path.display());
            return ExitCode::FAILURE;
        }
        println!("lint: wrote {}", path.display());
        return ExitCode::SUCCESS;
    }

    let findings = workspace.run(&rules);
    for finding in &findings {
        println!("{finding}");
    }
    if findings.is_empty() {
        println!(
            "lint: {} files clean across {} rule(s)",
            workspace.files.len(),
            rules.len()
        );
        ExitCode::SUCCESS
    } else {
        println!("lint: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}

fn usage(problem: &str) -> ExitCode {
    if !problem.is_empty() {
        eprintln!("lint: {problem}");
    }
    eprintln!(
        "usage: lint [--root <path>] [--only <rule>]... [--deny-all] [--write-registry]\n\
         rules: wall-clock, hash-collections, nondet, rng-stream, trace-schema, dead-pub"
    );
    if problem.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
