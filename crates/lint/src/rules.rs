//! The lint rules and their scoping policy.

use crate::scan::ScannedFile;

/// The repo invariants `meda-lint` enforces — things clippy cannot express
/// because they are policy, not language misuse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// No `.unwrap()` / `.expect(` in non-test library code. Panics in the
    /// library layer take down whole simulation campaigns; errors must
    /// propagate (or carry a documented allowlist entry arguing why the
    /// invariant cannot fail).
    NoUnwrap,
    /// No `HashMap` / `HashSet` in code whose iteration order can feed
    /// simulation or export results: `std`'s `RandomState` hashing makes
    /// iteration order differ between runs, silently breaking the
    /// workspace's bit-identical reproducibility guarantee. Use
    /// `BTreeMap` / `BTreeSet` or sort before iterating.
    HashOrder,
    /// No `Instant` / `SystemTime` outside `perf.rs` and the bench
    /// harness: wall-clock readings must never influence simulation
    /// outputs, only observability metrics declared in the allowlist.
    WallClock,
    /// No `==` / `!=` against floating-point literals: exact comparison is
    /// almost always a masked tolerance bug. Sentinel comparisons (e.g. a
    /// degradation level of exactly `0.0` meaning "dead cell") must be
    /// declared in the allowlist.
    FloatEq,
    /// Every crate root (`lib.rs` / `main.rs` / `src/bin/*.rs`) carries
    /// `#![forbid(unsafe_code)]`.
    ForbidUnsafe,
    /// No bare `as` cast to a narrower numeric type (`f32`, or any
    /// integer of 32 bits or less) in the numeric-kernel hot-path set: a
    /// silently truncating or precision-dropping cast inside a solver or
    /// certification loop corrupts values instead of failing. Deliberate
    /// narrowing (the `u32` state address space, the priority-queue bucket
    /// tag) must carry an allowlist entry citing the invariant that makes
    /// it lossless.
    LossyCast,
    /// Bare slice indexing (`xs[i]`) in the numeric-kernel hot-path set:
    /// every kernel file whose unchecked indexing is justified (CSR
    /// offsets validated by `audit_model`, construction invariants) must
    /// appear in the allowlist with the argument spelled out — a new
    /// kernel file starts from checked access.
    UncheckedIndex,
}

impl Rule {
    /// Stable kebab-case rule name used in findings and the allowlist.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::NoUnwrap => "no-unwrap",
            Self::HashOrder => "hash-order",
            Self::WallClock => "wall-clock",
            Self::FloatEq => "float-eq",
            Self::ForbidUnsafe => "forbid-unsafe",
            Self::LossyCast => "lossy-cast",
            Self::UncheckedIndex => "unchecked-index",
        }
    }

    /// All rules, for reporting.
    pub const ALL: [Rule; 7] = [
        Self::NoUnwrap,
        Self::HashOrder,
        Self::WallClock,
        Self::FloatEq,
        Self::ForbidUnsafe,
        Self::LossyCast,
        Self::UncheckedIndex,
    ];
}

/// What kind of compilation target a file belongs to — rules scope on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Library code under some `src/` (excluding `src/bin/`): all rules.
    Lib,
    /// Binary targets (`src/main.rs`, `src/bin/*.rs`): determinism rules
    /// apply, panic rules don't (a CLI may die loudly).
    Bin,
    /// Integration tests, examples, benches: exempt from everything except
    /// the crate-root unsafety check (which never applies here anyway).
    TestLike,
}

/// Classifies a workspace-relative path (forward slashes).
#[must_use]
pub fn classify(path: &str) -> Scope {
    let in_dir = |d: &str| path.starts_with(&format!("{d}/")) || path.contains(&format!("/{d}/"));
    if in_dir("tests") || in_dir("examples") || in_dir("benches") {
        return Scope::TestLike;
    }
    if path.contains("/src/bin/") || path == "src/main.rs" || path.ends_with("/src/main.rs") {
        return Scope::Bin;
    }
    Scope::Lib
}

/// One rule finding at a specific source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The violated rule.
    pub rule: Rule,
    /// The offending raw source line, trimmed — allowlist patterns match
    /// against this, so they can cite e.g. an `expect` message verbatim.
    pub excerpt: String,
}

/// Runs every applicable rule over one scanned file. Rules match on the
/// sanitized text (so literals and comments can't trip or spoof them);
/// excerpts come from the raw source.
#[must_use]
pub fn check_file(path: &str, scope: Scope, scanned: &ScannedFile, raw: &str) -> Vec<Finding> {
    let raw_lines: Vec<&str> = raw.lines().collect();
    let mut findings = Vec::new();
    // The bench harness measures wall time and deliberately carries a
    // HashMap baseline for its library-vs-hash-map comparison; `perf.rs`
    // is the declared home of wall-clock instrumentation (DESIGN.md §7).
    let bench_exempt = path.starts_with("crates/bench/");
    let perf_exempt = path.ends_with("/perf.rs");
    let mut push = |rule: Rule, line: usize| {
        findings.push(Finding {
            file: path.to_string(),
            line: line + 1,
            rule,
            excerpt: raw_lines.get(line).map_or("", |l| l.trim()).to_string(),
        });
    };
    for (n, text, in_test) in scanned.lines() {
        if in_test {
            continue;
        }
        if scope == Scope::Lib && (contains_call(text, ".unwrap") || text.contains(".expect(")) {
            push(Rule::NoUnwrap, n);
        }
        if scope != Scope::TestLike
            && !bench_exempt
            && (contains_word(text, "HashMap") || contains_word(text, "HashSet"))
        {
            push(Rule::HashOrder, n);
        }
        if scope != Scope::TestLike
            && !bench_exempt
            && !perf_exempt
            && (contains_word(text, "Instant") || contains_word(text, "SystemTime"))
        {
            push(Rule::WallClock, n);
        }
        if scope == Scope::Lib && has_float_comparison(text) {
            push(Rule::FloatEq, n);
        }
        if is_numeric_kernel(path) && has_lossy_cast(text) {
            push(Rule::LossyCast, n);
        }
        if is_numeric_kernel(path) && has_bare_index(text) {
            push(Rule::UncheckedIndex, n);
        }
    }
    if is_crate_root(path) && !scanned.sanitized.contains("#![forbid(unsafe_code)]") {
        findings.push(Finding {
            file: path.to_string(),
            line: 1,
            rule: Rule::ForbidUnsafe,
            excerpt: "missing #![forbid(unsafe_code)]".to_string(),
        });
    }
    findings
}

/// The numeric-kernel hot-path set: the solver and certification inner
/// loops where `as` casts and bare indexing are performance-deliberate.
/// Files listed here are subject to [`Rule::LossyCast`] and
/// [`Rule::UncheckedIndex`]; their accepted sites must be argued in
/// `lint-allow.toml`.
fn is_numeric_kernel(path: &str) -> bool {
    matches!(
        path,
        "crates/synth/src/solver.rs"
            | "crates/core/src/mdp.rs"
            | "crates/core/src/mec.rs"
            | "crates/core/src/scc.rs"
            | "crates/audit/src/bounds.rs"
            | "crates/audit/src/eval.rs"
            | "crates/audit/src/certify.rs"
    )
}

/// Numeric types an `as` cast can narrow into on this workspace's 64-bit
/// value paths (`f64` values, `usize` indices): anything 32 bits or less.
const NARROWING_TARGETS: [&str; 7] = ["f32", "u32", "i32", "u16", "i16", "u8", "i8"];

/// Detects ` as <narrow>` casts. Lexical: the source type is unknowable
/// here, so widening casts spelled with a narrow target (e.g. `u8 as u32`
/// — which reads as a cast *to* `u32` and is fine) still need an allowlist
/// entry; in kernel code that trade is deliberate.
fn has_lossy_cast(text: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = text[from..].find(" as ") {
        let after = &text[from + pos + 4..];
        let target: String = after
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if NARROWING_TARGETS.contains(&target.as_str()) {
            return true;
        }
        from += pos + 4;
    }
    false
}

/// Detects bare indexing: `[` immediately preceded by an identifier
/// character, `)`, or `]` (so `xs[i]`, `f(x)[0]`, `m[r][c]` match while
/// attributes `#[...]`, macros `vec![...]`, and slice types `&[T]` don't).
/// Range slicing (`&xs[a..b]`) matches too — it panics just the same.
fn has_bare_index(text: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut prev = ' ';
    for c in text.chars() {
        if c == '[' && (ident(prev) || prev == ')' || prev == ']') {
            return true;
        }
        prev = c;
    }
    false
}

/// Whether `path` is a crate root that must forbid unsafe code.
fn is_crate_root(path: &str) -> bool {
    path.ends_with("/src/lib.rs")
        || path == "src/lib.rs"
        || path.ends_with("/src/main.rs")
        || path == "src/main.rs"
        || path.contains("/src/bin/")
}

/// `needle` present as a method call: followed by `(` (spaces allowed).
fn contains_call(text: &str, needle: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = text[from..].find(needle) {
        let after = &text[from + pos + needle.len()..];
        if after.trim_start().starts_with('(') {
            return true;
        }
        from += pos + needle.len();
    }
    false
}

/// `word` present with non-identifier characters (or boundaries) around it.
fn contains_word(text: &str, word: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let bytes = text.as_bytes();
    let mut from = 0;
    while let Some(pos) = text[from..].find(word) {
        let start = from + pos;
        let end = start + word.len();
        let before_ok = start == 0 || !ident(bytes[start - 1] as char);
        let after_ok = end == text.len() || !ident(bytes[end] as char);
        if before_ok && after_ok {
            return true;
        }
        from = end;
    }
    false
}

/// Detects `==` / `!=` where either operand is a floating-point literal or
/// an `f64::` / `f32::` associated constant. Variable-vs-variable float
/// comparisons are invisible to a lexical pass and out of scope.
fn has_float_comparison(text: &str) -> bool {
    let cs: Vec<char> = text.chars().collect();
    for i in 0..cs.len().saturating_sub(1) {
        let two: String = cs[i..i + 2].iter().collect();
        if two != "==" && two != "!=" {
            continue;
        }
        // Skip `<=`, `>=`, `===` (n/a), and the tail of a prior `==`.
        if i > 0 && matches!(cs[i - 1], '<' | '>' | '=' | '!') {
            continue;
        }
        if cs.get(i + 2) == Some(&'=') {
            continue;
        }
        let left = token_before(&cs, i);
        let right = token_after(&cs, i + 2);
        if is_float_token(&left) || is_float_token(&right) {
            return true;
        }
    }
    false
}

fn token_char(c: char) -> bool {
    c.is_alphanumeric() || matches!(c, '_' | '.' | ':')
}

fn token_before(cs: &[char], op: usize) -> String {
    let mut j = op;
    while j > 0 && cs[j - 1] == ' ' {
        j -= 1;
    }
    let end = j;
    loop {
        if j > 0 && token_char(cs[j - 1]) {
            j -= 1;
        } else if j > 1 && matches!(cs[j - 1], '-' | '+') && matches!(cs[j - 2], 'e' | 'E') {
            // Exponent sign inside a literal like `1e-6`.
            j -= 2;
        } else {
            break;
        }
    }
    cs[j..end].iter().collect()
}

fn token_after(cs: &[char], mut j: usize) -> String {
    while j < cs.len() && cs[j] == ' ' {
        j += 1;
    }
    let mut out = String::new();
    if cs.get(j) == Some(&'-') {
        out.push('-');
        j += 1;
    }
    while j < cs.len() && token_char(cs[j]) {
        out.push(cs[j]);
        j += 1;
    }
    out
}

/// Whether a token is a float literal (`0.0`, `1.`, `1e-6`, `2.5f64`) or
/// an `f64::` / `f32::` associated constant.
fn is_float_token(tok: &str) -> bool {
    let tok = tok.strip_prefix('-').unwrap_or(tok);
    if tok.starts_with("f64::") || tok.starts_with("f32::") {
        return true;
    }
    let body = tok
        .strip_suffix("f64")
        .or_else(|| tok.strip_suffix("f32"))
        .unwrap_or(tok);
    let mut chars = body.chars();
    if !chars.next().is_some_and(|c| c.is_ascii_digit()) {
        return false;
    }
    let rest: String = body.chars().skip(1).collect();
    let has_marker = rest.contains('.') || rest.contains('e') || rest.contains('E');
    let digits_only_otherwise = body
        .chars()
        .all(|c| c.is_ascii_digit() || matches!(c, '.' | 'e' | 'E' | '_' | '-' | '+'));
    digits_only_otherwise && (has_marker || body != tok)
}
