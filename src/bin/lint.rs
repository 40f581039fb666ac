//! `cargo run --bin lint` — run the cyclosa-lint static-analysis pass.
//!
//! ```text
//! lint [--root <path>] [--only <rule>]... [--deny-all]
//! ```
//!
//! - `--only <rule>` restricts the run (`dead-pub`, the one rule);
//!   repeatable. Wall clocks and hash collections are not rules here:
//!   clippy's `disallowed-methods`/`disallowed-types` (`clippy.toml`) ban
//!   them. Nor are churn stream tags and trace event names: they are types
//!   (`ChurnTag`, `EventName`) the compiler checks.
//! - `--deny-all` is the CI spelling: every finding is an error. Findings
//!   are always errors; the flag documents intent at the call site.
//! - `--root <path>` lints a tree other than the current directory.
//!
//! Exits 0 when clean, 1 on a finding or an unreadable tree, 2 on a usage
//! error (an unknown flag or rule name).

use cyclosa_lint::{Rule, Workspace};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut rules: Vec<Rule> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(path) => root = PathBuf::from(path),
                None => return usage("--root needs a path"),
            },
            "--only" => match args.next().as_deref().and_then(Rule::from_arg) {
                Some(rule) => rules.push(rule),
                None => return usage("--only needs a known rule name"),
            },
            "--deny-all" => {} // findings are always errors; accepted for CI clarity
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
        "usage: lint [--root <path>] [--only <rule>]... [--deny-all]\n\
         rules: dead-pub\n\
         (wall clocks and hash collections are clippy's: see clippy.toml;\n\
         churn tags and trace names are types: ChurnTag, EventName)"
    );
    if problem.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}
