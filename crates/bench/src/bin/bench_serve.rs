//! Extension: synthesis-service latency — cold synthesis vs warm canonical
//! cache hits through the `meda serve` engine (DESIGN.md §16).
//!
//! Three assay-style request families (a PCR shuttle, a dilution sweep, and
//! a Pmax mix transport) are each issued at several force variants (cold:
//! every variant is a distinct canonical orbit, so each one pays a full
//! synthesis) and then replayed at many translated geometries (warm: every
//! translation collapses onto an already-cached orbit, so each one is a
//! memory-tier lookup plus materialization). Latency is measured per
//! request around [`ServeEngine::handle`].
//!
//! Emitted metrics (meda-bench/1):
//!
//! - `serve.cold_p50_ns` / `serve.cold_p95_ns` — cold-path request latency
//!   (canonicalize + synthesize + persist + respond);
//! - `serve.warm_p50_ns` / `serve.warm_p95_ns` — warm-path request latency
//!   (canonicalize + cache hit + materialize + respond);
//! - `serve.warm_hit_speedup` — cold p50 / warm p50;
//! - `serve.hit_rate` — warm-phase cache hits per warm request;
//! - `serve.warm_hit_rate_dominance` — the same ratio, which must stay 1.0
//!   (a translated repeat that misses the cache is a canonicalization
//!   regression, not a timing wobble);
//! - `serve.cold_requests` / `serve.warm_requests` — deterministic corpus
//!   sizes (any drift means the workload itself changed).
//!
//! In full (non-smoke) mode the bin also self-checks the headline claims —
//! every response is `ok`, the warm phase hits on every request, and the
//! warm hit is at least 10x faster than cold synthesis — and requires the
//! hit rates and corpus sizes to equal the committed `BENCH_serve.json`
//! exactly ([`BenchReport::drift`]; the latencies and the speedup are
//! wall-clock and only reported). It exits nonzero on any violation.
#![forbid(unsafe_code)]

use std::time::Instant;

use meda_bench::{banner, header, row, BenchReport};
use meda_synth::ServeEngine;

/// One request family: an assay-style routing job shape whose force
/// pattern is scaled per cold variant and whose geometry is translated per
/// warm repeat.
struct Family {
    name: &'static str,
    /// Bounds width/height (the job is anchored at (1, 1) and translated).
    dims: (i32, i32),
    /// Droplet size.
    droplet: (i32, i32),
    /// Start offset within bounds.
    start: (i32, i32),
    /// Goal offset within bounds.
    goal: (i32, i32),
    /// `"rmin"` or `"pmax"`.
    query: &'static str,
}

const FAMILIES: &[Family] = &[
    Family {
        name: "pcr_shuttle",
        dims: (24, 12),
        droplet: (2, 2),
        start: (0, 1),
        goal: (21, 9),
        query: "rmin",
    },
    Family {
        name: "dilution_sweep",
        dims: (20, 16),
        droplet: (3, 3),
        start: (1, 0),
        goal: (16, 12),
        query: "rmin",
    },
    Family {
        name: "mix_transport",
        dims: (16, 16),
        droplet: (1, 1),
        start: (0, 0),
        goal: (14, 14),
        query: "pmax",
    },
];

/// Deterministic per-cell force pattern in `[0.55, 0.95]`, scaled per cold
/// variant so each variant is its own canonical orbit. Row-major within
/// the family bounds, so every translation of the geometry carries the
/// *same* pattern and lands in the same orbit.
fn force_cells(family: &Family, scale: f64) -> Vec<f64> {
    let (w, h) = family.dims;
    let mut cells = Vec::with_capacity((w * h) as usize);
    for y in 0..h {
        for x in 0..w {
            let ripple = f64::from((x * 7 + y * 13) % 10) / 10.0;
            cells.push((0.55 + 0.4 * ripple) * scale);
        }
    }
    cells
}

fn request_line(family: &Family, scale: f64, dx: i32, dy: i32, id: &str) -> String {
    let (w, h) = family.dims;
    let (bw, bh) = (1 + dx, 1 + dy);
    let rect = |ox: i32, oy: i32, sw: i32, sh: i32| {
        format!(
            "[{},{},{},{}]",
            bw + ox,
            bh + oy,
            bw + ox + sw - 1,
            bh + oy + sh - 1
        )
    };
    let cells: Vec<String> = force_cells(family, scale)
        .iter()
        .map(|f| format!("{f:.6}"))
        .collect();
    format!(
        "{{\"id\":\"{id}\",\"bounds\":{},\"start\":{},\"goal\":{},\"query\":\"{}\",\"cells\":[{}]}}",
        rect(0, 0, w, h),
        rect(family.start.0, family.start.1, family.droplet.0, family.droplet.1),
        rect(family.goal.0, family.goal.1, family.droplet.0, family.droplet.1),
        family.query,
        cells.join(",")
    )
}

fn percentile(sorted_ns: &[u64], pct: usize) -> u64 {
    if sorted_ns.is_empty() {
        return 0;
    }
    sorted_ns[(sorted_ns.len() * pct / 100).min(sorted_ns.len() - 1)]
}

fn timed(engine: &mut ServeEngine, line: &str) -> (String, u64) {
    let t = Instant::now();
    let response = engine.handle(line);
    (response, t.elapsed().as_nanos() as u64)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let bless = std::env::args().any(|a| a == "--bless");

    banner(
        "Extension — serve latency, cold synthesis vs warm canonical cache",
        "Three assay-style request families at several force variants (cold \
         misses) and many translated geometries (warm hits), timed per \
         request through the meda serve engine. Translation and D4 symmetry \
         collapse every repeat onto a cached canonical orbit, so the warm \
         path is a lookup plus frame mapping instead of value iteration.",
    );

    // Distinct force scales per family → cold corpus; translations of the
    // base geometry → warm corpus (every one hits the scale-1.0 orbit and
    // the variants keep the memory tier warm for it).
    let (scales, translations): (&[f64], i32) = if smoke {
        (&[1.0], 2)
    } else {
        (&[1.0, 0.95, 0.9, 0.85], 12)
    };

    let dir = std::path::Path::new("target")
        .join("bench-serve-cache")
        .join(std::process::id().to_string());
    let _ = std::fs::remove_dir_all(&dir);
    let mut engine = ServeEngine::open(&dir, 256).expect("open serve cache");

    let mut violations: Vec<String> = Vec::new();
    let check_ok = |response: &str, what: &str, violations: &mut Vec<String>| {
        if !response.contains("\"status\":\"ok\"") {
            violations.push(format!("{what} request failed: {response}"));
        }
    };

    let mut cold_ns: Vec<u64> = Vec::new();
    for family in FAMILIES {
        for (v, &scale) in scales.iter().enumerate() {
            let line = request_line(family, scale, 0, 0, &format!("{}-cold-{v}", family.name));
            let (response, ns) = timed(&mut engine, &line);
            check_ok(&response, family.name, &mut violations);
            cold_ns.push(ns);
        }
    }
    let cold_misses = engine.stats().misses;

    let mut warm_ns: Vec<u64> = Vec::new();
    for family in FAMILIES {
        for t in 1..=translations {
            let line = request_line(
                family,
                1.0,
                t * 3,
                t % 4,
                &format!("{}-warm-{t}", family.name),
            );
            let (response, ns) = timed(&mut engine, &line);
            check_ok(&response, family.name, &mut violations);
            warm_ns.push(ns);
        }
    }
    let stats = engine.stats();
    let warm_requests = warm_ns.len() as u64;
    // The cold phase is all misses (self-checked below), so the total hit
    // count after the warm phase is the warm-phase hit count.
    let warm_hits = stats.hits();
    let hit_rate = warm_hits as f64 / warm_requests as f64;

    cold_ns.sort_unstable();
    warm_ns.sort_unstable();
    let cold_p50 = percentile(&cold_ns, 50);
    let cold_p95 = percentile(&cold_ns, 95);
    let warm_p50 = percentile(&warm_ns, 50);
    let warm_p95 = percentile(&warm_ns, 95);
    let speedup = cold_p50 as f64 / (warm_p50.max(1)) as f64;

    let widths = [8, 12, 12, 12];
    header(&["phase", "requests", "p50_us", "p95_us"], &widths);
    row(
        &[
            "cold".to_string(),
            cold_ns.len().to_string(),
            format!("{:.1}", cold_p50 as f64 / 1e3),
            format!("{:.1}", cold_p95 as f64 / 1e3),
        ],
        &widths,
    );
    row(
        &[
            "warm".to_string(),
            warm_ns.len().to_string(),
            format!("{:.1}", warm_p50 as f64 / 1e3),
            format!("{:.1}", warm_p95 as f64 / 1e3),
        ],
        &widths,
    );
    println!();
    println!(
        "Warm hit rate {:.2} ({warm_hits}/{warm_requests}); warm hit is {speedup:.1}x \
         faster than cold synthesis at p50.",
        hit_rate
    );

    let mode = if smoke { "smoke" } else { "full" };
    let mut report = BenchReport::new("serve", mode);
    report.note = "per-request serve latency: cold = canonicalize + synthesize + \
                   persist, warm = canonicalize + cache hit + materialize; the \
                   warm corpus is translated geometry only, so hit rate below \
                   1.0 means canonicalization stopped collapsing the orbit"
        .to_string();
    report.push("serve.cold_p50_ns", cold_p50 as f64);
    report.push("serve.cold_p95_ns", cold_p95 as f64);
    report.push("serve.warm_p50_ns", warm_p50 as f64);
    report.push("serve.warm_p95_ns", warm_p95 as f64);
    report.push("serve.warm_hit_speedup", speedup);
    report.push("serve.hit_rate", hit_rate);
    report.push("serve.warm_hit_rate_dominance", hit_rate);
    report.push("serve.cold_requests", cold_ns.len() as f64);
    report.push("serve.warm_requests", warm_ns.len() as f64);

    if !smoke {
        if cold_misses != cold_ns.len() as u64 {
            violations.push(format!(
                "cold phase expected {} misses, cache saw {cold_misses}",
                cold_ns.len()
            ));
        }
        if warm_hits != warm_requests {
            violations.push(format!(
                "warm phase expected {warm_requests} hits, cache saw {warm_hits}"
            ));
        }
        if speedup < 10.0 {
            violations.push(format!(
                "warm hit is only {speedup:.1}x faster than cold synthesis (need >= 10x)"
            ));
        }
    }

    let written = report.write(bless).expect("write bench report");
    violations.extend(report.baseline_drift(bless));
    println!();
    for path in written {
        println!("Wrote {}", path.display());
    }
    if !bless {
        println!("(baseline BENCH_serve.json untouched — pass --bless to refresh it)");
    }
    let _ = std::fs::remove_dir_all(&dir);
    if !violations.is_empty() {
        eprintln!("\nserve self-check FAILED:");
        for v in &violations {
            eprintln!("  - {v}");
        }
        std::process::exit(1);
    }
}
