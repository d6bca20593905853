//! CLI for `meda-lint`: lints the workspace and exits nonzero on any
//! finding or unused allowlist entry. Run as `cargo run -p meda-lint`
//! (optionally `-- --root DIR`).

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use meda_lint::{compiled_workspace_root, lint_workspace};

fn main() -> ExitCode {
    let mut root = compiled_workspace_root();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => {
                    eprintln!("--root requires a directory");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("usage: meda-lint [--root DIR]");
                println!("Lints every .rs file under DIR (default: this workspace).");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    let report = match lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("meda-lint: {e}");
            return ExitCode::from(2);
        }
    };

    for f in &report.findings {
        println!("{}:{}: [{}] {}", f.file, f.line, f.rule.name(), f.excerpt);
    }
    for e in &report.unused_allows {
        eprintln!(
            "error: unused allowlist entry: rule `{}` file `{}`{} — prune it",
            e.rule,
            e.file,
            e.pattern
                .as_deref()
                .map(|p| format!(" pattern `{p}`"))
                .unwrap_or_default()
        );
    }
    println!(
        "meda-lint: {} file(s), {} finding(s), {} suppressed by lint-allow.toml, {} unused \
         allowlist entries",
        report.files_scanned,
        report.findings.len(),
        report.suppressed,
        report.unused_allows.len()
    );
    if report.findings.is_empty() && report.unused_allows.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
