//! `meda-lint` — an in-tree lexical lint pass enforcing the MEDA
//! workspace's determinism and robustness invariants.
//!
//! The workspace promises bit-identical reproducibility (same seed, same
//! trace — DESIGN.md §2) and panic-free library code. Neither invariant is
//! expressible in clippy: they are *policy* about which std types and
//! idioms this particular codebase may use where. `meda-lint` walks every
//! `.rs` file in the workspace and enforces five rules ([`Rule`]):
//!
//! | rule | invariant |
//! |------|-----------|
//! | `no-unwrap` | no `.unwrap()` / `.expect(` in non-test library code |
//! | `hash-order` | no `HashMap` / `HashSet` where iteration order can leak into results |
//! | `wall-clock` | no `Instant` / `SystemTime` outside `perf.rs` / bench bins |
//! | `float-eq` | no `==` / `!=` against float literals |
//! | `forbid-unsafe` | `#![forbid(unsafe_code)]` in every crate root |
//!
//! Intentional exceptions live in `lint-allow.toml` at the workspace root
//! — each with a mandatory reason — rather than inline suppressions, so
//! the full exception surface is reviewable in one place.
//!
//! Run it as `cargo run -p meda-lint`; it exits nonzero on any finding,
//! and `scripts/ci.sh` runs it on every CI pass. There are no third-party
//! dependencies, per the workspace policy the lint itself protects.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod allow;
mod rules;
mod scan;

pub use allow::{apply_allowlist, parse_allowlist, AllowEntry};
pub use rules::{check_file, classify, Finding, Rule, Scope};
pub use scan::{scan, ScannedFile};

use std::path::{Path, PathBuf};

/// Directories never descended into.
const SKIP_DIRS: [&str; 3] = ["target", ".git", ".claude"];

/// The result of linting a workspace.
#[derive(Debug)]
pub struct LintReport {
    /// Findings that survived the allowlist, ordered by file then line.
    pub findings: Vec<Finding>,
    /// Number of findings suppressed by allowlist entries.
    pub suppressed: usize,
    /// Allowlist entries that matched nothing — stale, should be pruned.
    pub unused_allows: Vec<AllowEntry>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

/// Lints every `.rs` file under `root`, applying `root/lint-allow.toml`
/// when present.
///
/// # Errors
///
/// Returns an error when the tree cannot be read or the allowlist fails to
/// parse (a broken allowlist must fail the run, not allow everything).
pub fn lint_workspace(root: &Path) -> Result<LintReport, String> {
    let allow_path = root.join("lint-allow.toml");
    let entries = if allow_path.is_file() {
        let text = std::fs::read_to_string(&allow_path)
            .map_err(|e| format!("{}: {e}", allow_path.display()))?;
        parse_allowlist(&text)?
    } else {
        Vec::new()
    };

    let mut files = Vec::new();
    collect_rust_files(root, &mut files).map_err(|e| format!("walking {}: {e}", root.display()))?;
    files.sort();

    let mut findings = Vec::new();
    for file in &files {
        let rel = relative_path(root, file);
        let source =
            std::fs::read_to_string(file).map_err(|e| format!("{}: {e}", file.display()))?;
        let scanned = scan(&source);
        findings.extend(check_file(&rel, classify(&rel), &scanned, &source));
    }
    let (kept, suppressed, unused_allows) = apply_allowlist(findings, &entries);
    Ok(LintReport {
        findings: kept,
        suppressed,
        unused_allows,
        files_scanned: files.len(),
    })
}

/// Recursively collects `.rs` files, skipping [`SKIP_DIRS`].
fn collect_rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), std::io::Error> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                collect_rust_files(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Workspace-relative path with forward slashes (stable across platforms,
/// matches allowlist entries).
fn relative_path(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// The workspace root this crate was compiled in — `CARGO_MANIFEST_DIR` is
/// `crates/lint`, so the root is two levels up. Used by the CLI default
/// and the self-lint test, both of which run against this repo.
#[must_use]
pub fn compiled_workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_str(path: &str, source: &str) -> Vec<Finding> {
        let scanned = scan(source);
        check_file(path, classify(path), &scanned, source)
    }

    #[test]
    fn unwrap_in_lib_is_flagged() {
        let found = lint_str("crates/x/src/a.rs", "fn f() { g().unwrap(); }\n");
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, Rule::NoUnwrap);
        assert_eq!(found[0].line, 1);
    }

    #[test]
    fn expect_in_lib_is_flagged_with_raw_excerpt() {
        let found = lint_str(
            "crates/x/src/a.rs",
            "fn f() {\n    g().expect(\"the sky is falling\");\n}\n",
        );
        assert_eq!(found.len(), 1);
        assert!(found[0].excerpt.contains("the sky is falling"));
    }

    #[test]
    fn unwrap_in_tests_examples_and_cfg_test_is_exempt() {
        assert!(lint_str("crates/x/tests/a.rs", "fn f() { g().unwrap(); }\n").is_empty());
        assert!(lint_str("examples/a.rs", "fn f() { g().unwrap(); }\n").is_empty());
        let source = "fn ok() {}\n#[cfg(test)]\nmod tests {\n    fn f() { g().unwrap(); }\n}\n";
        assert!(lint_str("crates/x/src/a.rs", source).is_empty());
    }

    #[test]
    fn unwrap_after_cfg_test_module_is_still_flagged() {
        let source = "#[cfg(test)]\nmod tests {\n    fn f() { g().unwrap(); }\n}\nfn g() { h().unwrap(); }\n";
        let found = lint_str("crates/x/src/a.rs", source);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].line, 5);
    }

    #[test]
    fn unwrap_in_comments_and_strings_is_ignored() {
        let source = "// call .unwrap() here\nfn f() { let s = \".unwrap()\"; }\n";
        assert!(lint_str("crates/x/src/a.rs", source).is_empty());
    }

    #[test]
    fn unwrap_or_is_not_unwrap() {
        assert!(lint_str("crates/x/src/a.rs", "fn f() { g().unwrap_or(0); }\n").is_empty());
    }

    #[test]
    fn hash_map_flagged_in_lib_and_bin_but_not_bench_or_tests() {
        let count = |path, src: &str| {
            lint_str(path, src)
                .iter()
                .filter(|f| f.rule == Rule::HashOrder)
                .count()
        };
        let src = "use std::collections::HashMap;\n";
        assert_eq!(count("crates/x/src/a.rs", src), 1);
        assert_eq!(count("src/main.rs", src), 1);
        assert_eq!(count("crates/bench/src/bin/b.rs", src), 0);
        assert_eq!(count("crates/x/tests/a.rs", src), 0);
    }

    #[test]
    fn wall_clock_flagged_outside_perf() {
        let count = |path, src: &str| {
            lint_str(path, src)
                .iter()
                .filter(|f| f.rule == Rule::WallClock)
                .count()
        };
        let src = "use std::time::Instant;\n";
        assert_eq!(count("crates/x/src/a.rs", src), 1);
        assert_eq!(count("crates/x/src/perf.rs", src), 0);
        assert_eq!(count("crates/bench/src/bin/b.rs", src), 0);
    }

    #[test]
    fn lossy_cast_flagged_only_in_the_kernel_set() {
        let narrowing = "fn f(x: usize) -> u32 { x as u32 }\n";
        let found = lint_str("crates/core/src/mec.rs", narrowing);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, Rule::LossyCast);
        // Widening casts in a kernel file are fine.
        assert!(lint_str(
            "crates/core/src/mec.rs",
            "fn f(x: u32) -> usize { x as usize }\n"
        )
        .is_empty());
        assert!(lint_str(
            "crates/core/src/mec.rs",
            "fn f(x: u32) -> f64 { x as f64 }\n"
        )
        .is_empty());
        // The same narrowing cast outside the hot-path set is out of scope.
        assert!(lint_str("crates/grid/src/rect.rs", narrowing).is_empty());
        // An identifier merely starting with a target name is not a cast.
        assert!(lint_str(
            "crates/core/src/mec.rs",
            "fn f(x: U32x4) -> U32x4 { x as U32x4 }\n"
        )
        .is_empty());
    }

    #[test]
    fn unchecked_index_flagged_only_in_the_kernel_set() {
        let indexed = "fn f(xs: &[f64], i: usize) -> f64 { xs[i] }\n";
        let found = lint_str("crates/audit/src/bounds.rs", indexed);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, Rule::UncheckedIndex);
        // Attributes, macros, and slice types don't trip the detector.
        for benign in [
            "#[must_use]\n",
            "fn f() -> Vec<u32> { vec![1, 2] }\n",
            "fn f(xs: &[u32]) {}\n",
            "fn f(xs: &[f64], i: usize) -> Option<f64> { xs.get(i).copied() }\n",
        ] {
            assert!(
                lint_str("crates/audit/src/bounds.rs", benign).is_empty(),
                "false positive on {benign:?}"
            );
        }
        // Indexing outside the hot-path set is out of scope for this rule.
        assert!(lint_str("crates/grid/src/rect.rs", indexed).is_empty());
    }

    #[test]
    fn float_eq_against_literal_is_flagged() {
        assert_eq!(
            lint_str("crates/x/src/a.rs", "fn f(x: f64) -> bool { x == 0.0 }\n").len(),
            1
        );
        assert_eq!(
            lint_str("crates/x/src/a.rs", "fn f(x: f64) -> bool { 1e-6 != x }\n").len(),
            1
        );
        // Integer equality and ordering comparisons are fine.
        assert!(lint_str("crates/x/src/a.rs", "fn f(x: u32) -> bool { x == 3 }\n").is_empty());
        assert!(lint_str("crates/x/src/a.rs", "fn f(x: f64) -> bool { x <= 0.5 }\n").is_empty());
        // Variable-vs-variable is out of lexical scope, documented.
        assert!(lint_str(
            "crates/x/src/a.rs",
            "fn f(a: f64, b: f64) -> bool { a == b }\n"
        )
        .is_empty());
    }

    #[test]
    fn crate_root_without_forbid_unsafe_is_flagged() {
        let found = lint_str("crates/x/src/lib.rs", "pub fn f() {}\n");
        assert!(found.iter().any(|f| f.rule == Rule::ForbidUnsafe));
        let ok = lint_str(
            "crates/x/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn f() {}\n",
        );
        assert!(ok.is_empty());
        // Non-root files don't need the attribute.
        assert!(lint_str("crates/x/src/a.rs", "pub fn f() {}\n").is_empty());
    }

    #[test]
    fn allowlist_roundtrip() {
        let toml = "# comment\n[[allow]]\nrule = \"no-unwrap\"\nfile = \"crates/x/src/a.rs\"\npattern = \"four edges\"\nreason = \"fixed-size array\"\n";
        let entries = parse_allowlist(toml).unwrap();
        assert_eq!(entries.len(), 1);
        let f_hit = Finding {
            file: "crates/x/src/a.rs".into(),
            line: 3,
            rule: Rule::NoUnwrap,
            excerpt: ".expect(\"four edges\")".into(),
        };
        let f_miss = Finding {
            excerpt: ".expect(\"other\")".into(),
            ..f_hit.clone()
        };
        let (kept, suppressed, unused) = apply_allowlist(vec![f_hit, f_miss.clone()], &entries);
        assert_eq!(kept, vec![f_miss]);
        assert_eq!(suppressed, 1);
        assert!(unused.is_empty());
    }

    #[test]
    fn allowlist_requires_reason() {
        let toml = "[[allow]]\nrule = \"no-unwrap\"\nfile = \"a.rs\"\n";
        assert!(parse_allowlist(toml).is_err());
    }

    #[test]
    fn the_workspace_is_lint_clean() {
        // The acceptance bar for the whole repo: zero findings (after the
        // declared allowlist) and no stale allowlist entry, proven on every
        // `cargo test` run.
        let report = lint_workspace(&compiled_workspace_root()).unwrap();
        assert!(
            report.files_scanned > 20,
            "workspace walk found too few files"
        );
        assert!(
            report.findings.is_empty(),
            "lint findings:\n{}",
            report
                .findings
                .iter()
                .map(|f| format!("{}:{}: [{}] {}", f.file, f.line, f.rule.name(), f.excerpt))
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert!(
            report.unused_allows.is_empty(),
            "unused lint-allow.toml entries (prune them):\n{}",
            report
                .unused_allows
                .iter()
                .map(|e| format!("{} / {} / {:?}", e.rule, e.file, e.pattern))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
