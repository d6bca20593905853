//! Synthesis-performance benchmark: per-Table-V-cell model construction
//! and solve wall-clock, written to `target/bench/BENCH_synthesis.json`
//! (and, under `--bless`, to the committed repo-root baseline — see
//! EXPERIMENTS.md for the re-bless flow).
//!
//! Two builders are timed on identical inputs:
//!
//! * **hashmap** — a faithful reimplementation of the original
//!   `HashMap<Rect, usize>`-indexed, nested-`Vec` construction this
//!   workspace used before the dense-index/CSR rewrite (DESIGN.md §7);
//! * **csr** — the current [`meda_core::RoutingMdp`] builder (perfect
//!   dense state index + CSR transition arrays).
//!
//! On the solver side, each cell times two engines on the cold `Rmin`
//! query — the pre-PR whole-vector Gauss–Seidel baseline
//! ([`SolverMethod::GaussSeidel`]) and the structure-aware default
//! (topological value iteration over the SCC condensation) — and reports
//! `construct_solve_speedup`, the construct+solve wall-clock ratio of
//! baseline over default engine. A re-solve of the same geometry on a
//! degraded field times the mid-job re-synthesis, which runs the same cold
//! default engine.
//!
//! Run with `--smoke` for a single small cell (CI wiring); full mode
//! sweeps the paper-scale matrix (Table V geometries up to 90×90) and
//! self-checks it: on every 90-wide cell the baseline engine must need at
//! least 10x the default engine's sweeps (the ≥10x claim as a work ratio;
//! the wall-clock ratio is only reported), and every value that is not
//! wall-clock must equal the committed `BENCH_synthesis.json` exactly
//! ([`BenchReport::drift`]). It exits nonzero on any violation.
#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::time::Instant;

use meda_audit::{
    evaluate_strategy, strategy_bounds, verify_bounds, ModelArtifact, ValueKind,
    CERTIFICATE_EPSILON,
};
use meda_bench::{banner, header, row, BenchReport};
use meda_core::{
    frontier_set, mean_force, Action, ActionConfig, ForceProvider, HealthField, Outcome, RoutingMdp,
};
use meda_degradation::HealthLevel;
use meda_grid::{ChipDims, Grid, Rect};
use meda_synth::{min_expected_cycles, SolverMethod, SolverOptions};

/// The pre-rewrite outcome generation, kept verbatim for the baseline: a
/// fresh `Vec` per match arm plus a second one in `merge`. The in-tree
/// [`transitions`](meda_core::transitions) now fills a reusable buffer, so timing the baseline
/// against it would understate the original builder's allocation cost.
fn transitions_baseline(delta: Rect, action: Action, field: &dyn ForceProvider) -> Vec<Outcome> {
    let mean =
        |d: Rect, a: Action, dir| frontier_set(d, a, dir).map_or(0.0, |fr| mean_force(field, fr));
    let outcome = |droplet, probability| Outcome {
        droplet,
        probability,
    };
    if !action.is_applicable(delta) {
        return vec![outcome(delta, 1.0)];
    }
    let outcomes = match action {
        Action::Move(d) => {
            let p = mean(delta, action, d);
            vec![outcome(action.apply(delta), p), outcome(delta, 1.0 - p)]
        }
        Action::MoveDouble(d) => {
            let single = Action::Move(d);
            let intermediate = action
                .intermediate(delta)
                .expect("double step has an intermediate");
            let p1 = mean(delta, single, d);
            let p2 = mean(intermediate, single, d);
            vec![
                outcome(action.apply(delta), p1 * p2),
                outcome(intermediate, p1 * (1.0 - p2)),
                outcome(delta, 1.0 - p1),
            ]
        }
        Action::MoveOrdinal(o) => {
            let pd = mean(delta, action, o.vertical());
            let pd2 = mean(delta, action, o.horizontal());
            let (dx, dy) = o.delta();
            vec![
                outcome(delta.translate(dx, dy), pd * pd2),
                outcome(delta.translate(0, dy), pd * (1.0 - pd2)),
                outcome(delta.translate(dx, 0), (1.0 - pd) * pd2),
                outcome(delta, (1.0 - pd) * (1.0 - pd2)),
            ]
        }
        Action::Widen(o) => {
            let p = mean(delta, action, o.horizontal());
            vec![outcome(action.apply(delta), p), outcome(delta, 1.0 - p)]
        }
        Action::Heighten(o) => {
            let p = mean(delta, action, o.vertical());
            vec![outcome(action.apply(delta), p), outcome(delta, 1.0 - p)]
        }
    };
    let mut merged: Vec<Outcome> = Vec::with_capacity(outcomes.len());
    for o in outcomes {
        if let Some(existing) = merged.iter_mut().find(|m| m.droplet == o.droplet) {
            existing.probability += o.probability;
        } else {
            merged.push(o);
        }
    }
    merged
}

/// One state's choices in the baseline's nested-`Vec` transition layout.
type ChoiceRow = Vec<(Action, Vec<(usize, f64)>)>;

/// The original hash-map construction, kept verbatim as the timing
/// baseline (the checked-in builder no longer has this code path).
fn build_hashmap_baseline(
    start: Rect,
    goal: Rect,
    bounds: Rect,
    field: &dyn ForceProvider,
    config: &ActionConfig,
) -> (usize, usize, usize) {
    let mut states = vec![start];
    let mut index: HashMap<Rect, usize> = HashMap::new();
    index.insert(start, 0);
    let mut choices: Vec<ChoiceRow> = Vec::new();
    let mut goal_flags = vec![goal.contains_rect(start)];

    let mut frontier = 0;
    while frontier < states.len() {
        let delta = states[frontier];
        let mut row = Vec::new();
        if !goal_flags[frontier] {
            for action in Action::ALL {
                if !action.is_enabled(delta, bounds, config) {
                    continue;
                }
                let mut branch = Vec::new();
                for outcome in transitions_baseline(delta, action, field) {
                    if outcome.probability <= 0.0 {
                        continue;
                    }
                    let next = *index.entry(outcome.droplet).or_insert_with(|| {
                        states.push(outcome.droplet);
                        goal_flags.push(goal.contains_rect(outcome.droplet));
                        states.len() - 1
                    });
                    branch.push((next, outcome.probability));
                }
                if !branch.is_empty() {
                    row.push((action, branch));
                }
            }
        }
        choices.push(row);
        frontier += 1;
    }

    let n_choices: usize = choices.iter().map(Vec::len).sum();
    let n_transitions: usize = choices.iter().flatten().map(|(_, b)| b.len()).sum();
    (states.len(), n_choices, n_transitions)
}

/// Deterministic non-uniform health matrix — synthesis always plans on a
/// [`HealthField`], so that is the representative construction workload.
/// `wear` shifts every reading down one bin, modelling mid-job
/// degradation.
fn planning_field(area: (u32, u32), wear: u8) -> HealthField {
    const BITS: u8 = 3;
    // Two cells of margin so frontier lookups beyond the routing bounds
    // stay on-chip.
    let dims = ChipDims::new(area.0 + 2, area.1 + 2);
    let health = Grid::from_fn(dims, |c| {
        let spread = ((c.x * 7 + c.y * 13) % 3) as u8;
        HealthLevel::new(7 - spread - wear, BITS)
    });
    HealthField::new(health, BITS)
}

fn geometry(area: (u32, u32), droplet: (u32, u32)) -> (Rect, Rect, Rect) {
    let (aw, ah) = area;
    let (dw, dh) = droplet;
    let bounds = Rect::new(1, 1, aw as i32, ah as i32);
    let start = Rect::with_size(1, 1, dw, dh);
    let goal = Rect::with_size(aw as i32 - dw as i32 + 1, ah as i32 - dh as i32 + 1, dw, dh);
    (start, goal, bounds)
}

/// Wall-clock of the fastest of `reps` runs of `f` (first run included —
/// both builders touch freshly allocated memory either way).
fn best_of<T>(reps: u32, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let v = f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
        out = Some(v);
    }
    (best, out.unwrap())
}

struct CellResult {
    area: (u32, u32),
    droplet: (u32, u32),
    states: usize,
    choices: usize,
    transitions: usize,
    construct_hashmap_ms: f64,
    construct_csr_ms: f64,
    solve_gs_ms: f64,
    solve_gs_iterations: usize,
    solve_cold_ms: f64,
    solve_cold_iterations: usize,
    certify_ms: f64,
    certify_width: f64,
    certify_iterations: usize,
    construct_solve_speedup: f64,
    resolve_cold_ms: f64,
    resolve_cold_iterations: usize,
}

fn measure_cell(area: (u32, u32), droplet: (u32, u32), reps: u32) -> CellResult {
    let config = ActionConfig::moves_only();
    let healthy = planning_field(area, 0);
    let degraded = planning_field(area, 1);
    let (start, goal, bounds) = geometry(area, droplet);

    let (construct_hashmap_ms, baseline) = best_of(reps, || {
        build_hashmap_baseline(start, goal, bounds, &healthy, &config)
    });
    let (construct_csr_ms, mdp) = best_of(reps, || {
        RoutingMdp::build(start, goal, bounds, &healthy, &config).expect("consistent geometry")
    });
    let stats = mdp.stats();
    assert_eq!(
        (stats.states, stats.choices, stats.transitions),
        baseline,
        "builders disagree on model size"
    );

    // The pre-PR engine: plain whole-vector Gauss–Seidel sweeps.
    let gs_options = SolverOptions {
        method: SolverMethod::GaussSeidel,
        ..SolverOptions::default()
    };
    let (solve_gs_ms, gs) = best_of(reps, || min_expected_cycles(&mdp, gs_options.clone()));
    // The structure-aware default (topological value iteration).
    let (solve_cold_ms, cold) =
        best_of(reps, || min_expected_cycles(&mdp, SolverOptions::default()));
    assert!(
        cold.converged && gs.converged,
        "cold solves did not converge"
    );
    // The sound certification pass: the [lo, hi] certificate read off the
    // shipped strategy's exact value plus the from-scratch re-verification
    // — the full cost of turning the Rmin answer into a value claim
    // (DESIGN.md §14). Verification is timed too because `meda audit
    // --sound` always runs both.
    let artifact = ModelArtifact::from(&mdp);
    let (certify_ms, cert) = best_of(reps, || {
        let eval = evaluate_strategy(&artifact, &cold.choice, ValueKind::ExpectedCycles)
            .expect("the cold strategy evaluates");
        let cert = strategy_bounds(&eval, CERTIFICATE_EPSILON);
        assert!(
            verify_bounds(&artifact, &cert).is_empty(),
            "fresh bounds failed their own re-verification"
        );
        cert
    });
    assert!(
        cert.converged && cert.width <= 2.0 * CERTIFICATE_EPSILON,
        "bounds did not converge (width {})",
        cert.width
    );
    assert!(
        cert.contains(
            artifact.init,
            cold.values[artifact.init],
            CERTIFICATE_EPSILON
        ),
        "certified interval excludes the solver's init value"
    );
    // The acceptance ratio: end-to-end construct+solve, baseline engine
    // over the new default, on the shared CSR builder.
    let construct_solve_speedup =
        (construct_csr_ms + solve_gs_ms) / (construct_csr_ms + solve_cold_ms);

    // Mid-job re-synthesis: the same geometry on a degraded field.
    let mdp2 =
        RoutingMdp::build(start, goal, bounds, &degraded, &config).expect("consistent geometry");
    let (resolve_cold_ms, cold2) = best_of(reps, || {
        min_expected_cycles(&mdp2, SolverOptions::default())
    });
    assert!(cold2.converged, "degraded re-solve did not converge");

    CellResult {
        area,
        droplet,
        states: stats.states,
        choices: stats.choices,
        transitions: stats.transitions,
        construct_hashmap_ms,
        construct_csr_ms,
        solve_gs_ms,
        solve_gs_iterations: gs.iterations,
        solve_cold_ms,
        solve_cold_iterations: cold.iterations,
        certify_ms,
        certify_width: cert.width,
        certify_iterations: cert.iterations,
        construct_solve_speedup,
        resolve_cold_ms,
        resolve_cold_iterations: cold2.iterations,
    }
}

/// Flattens the per-cell results into the aggregated `meda-bench/1`
/// schema: one `c<area>_d<droplet>.<measure>` metric per value, timings
/// suffixed `_ms` so the exact baseline check skips them.
fn to_report(results: &[CellResult], mode: &str) -> BenchReport {
    let mut report = BenchReport::new("synthesis", mode);
    report.note = "construct_hashmap_ms is the pre-rewrite HashMap/nested-Vec builder \
                   reimplemented as a baseline; construct_csr_ms is the dense-index/CSR \
                   builder; solve_gs_ms is the whole-vector Gauss-Seidel engine the \
                   topological default replaced, solve_cold_ms that default; \
                   construct_solve_speedup = \
                   (construct_csr + solve_gs) / (construct_csr + solve_cold); \
                   certify_ms is the sound certification pass (the Rmin certificate \
                   read off the cold strategy's exact value plus from-scratch \
                   re-verification, DESIGN.md \u{a7}14) and certify_width the certified \
                   interval width; \
                   resolve_cold_* re-solve the same geometry on a degraded field with \
                   the default engine, as mid-job re-synthesis does"
        .to_string();
    for c in results {
        let cell = format!(
            "c{}x{}_d{}x{}",
            c.area.0, c.area.1, c.droplet.0, c.droplet.1
        );
        report.push(format!("{cell}.states"), c.states as f64);
        report.push(format!("{cell}.choices"), c.choices as f64);
        report.push(format!("{cell}.transitions"), c.transitions as f64);
        report.push(
            format!("{cell}.construct_hashmap_ms"),
            c.construct_hashmap_ms,
        );
        report.push(format!("{cell}.construct_csr_ms"), c.construct_csr_ms);
        report.push(format!("{cell}.solve_gs_ms"), c.solve_gs_ms);
        report.push(
            format!("{cell}.solve_gs_iterations"),
            c.solve_gs_iterations as f64,
        );
        report.push(format!("{cell}.solve_cold_ms"), c.solve_cold_ms);
        report.push(
            format!("{cell}.solve_cold_iterations"),
            c.solve_cold_iterations as f64,
        );
        report.push(format!("{cell}.certify_ms"), c.certify_ms);
        report.push(format!("{cell}.certify_width"), c.certify_width);
        report.push(
            format!("{cell}.certify_iterations"),
            c.certify_iterations as f64,
        );
        report.push(
            format!("{cell}.construct_solve_speedup"),
            c.construct_solve_speedup,
        );
        report.push(format!("{cell}.resolve_cold_ms"), c.resolve_cold_ms);
        report.push(
            format!("{cell}.resolve_cold_iterations"),
            c.resolve_cold_iterations as f64,
        );
    }
    report
}

/// One Table V cell: chip area (MCs) and droplet size (MCs).
type Cell = ((u32, u32), (u32, u32));

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let bless = std::env::args().any(|a| a == "--bless");
    banner(
        "Synthesis performance — HashMap baseline vs dense-index/CSR builder",
        "Per Table V cell: model size, construction time under both state\n\
         indexes, and cold Rmin solves. Fastest of N runs.",
    );

    // Paper-scale matrix (full mode): the Table V geometries scaled up to
    // the paper's 90×90 evaluation grids, multiple droplet sizes. Larger
    // models get fewer reps — their timings are far above clock noise.
    let cells: &[(Cell, u32)] = if smoke {
        &[(((10, 10), (3, 3)), 2)]
    } else {
        &[
            (((10, 10), (3, 3)), 5),
            (((20, 20), (4, 4)), 5),
            (((30, 30), (3, 3)), 5),
            (((30, 30), (6, 6)), 5),
            (((45, 45), (3, 3)), 3),
            (((60, 60), (6, 6)), 3),
            (((90, 45), (3, 3)), 3),
            (((90, 90), (3, 3)), 2),
            (((90, 90), (6, 6)), 2),
            (((90, 90), (12, 12)), 2),
        ]
    };

    let widths = [8, 8, 8, 11, 9, 10, 10, 9, 8, 11];
    header(
        &[
            "area",
            "droplet",
            "#states",
            "csr ms",
            "gs ms",
            "gs it",
            "topo ms",
            "topo it",
            "cert ms",
            "c+s speedup",
        ],
        &widths,
    );
    let mut results = Vec::new();
    for &((area, droplet), reps) in cells {
        let c = measure_cell(area, droplet, reps);
        row(
            &[
                format!("{}x{}", c.area.0, c.area.1),
                format!("{}x{}", c.droplet.0, c.droplet.1),
                format!("{}", c.states),
                format!("{:.3}", c.construct_csr_ms),
                format!("{:.3}", c.solve_gs_ms),
                format!("{}", c.solve_gs_iterations),
                format!("{:.3}", c.solve_cold_ms),
                format!("{}", c.solve_cold_iterations),
                format!("{:.3}", c.certify_ms),
                format!("{:.2}x", c.construct_solve_speedup),
            ],
            &widths,
        );
        results.push(c);
    }

    // The ≥10x claim, gated as deterministic work: sweeps of the baseline
    // engine over sweeps of the default one on the 90-wide cells.
    let mut violations: Vec<String> = results
        .iter()
        .filter(|c| c.area.0 == 90 && c.solve_gs_iterations < 10 * c.solve_cold_iterations)
        .map(|c| {
            format!(
                "{}x{} d{}x{}: Gauss-Seidel took {} sweeps, topological {} (need >= 10x)",
                c.area.0,
                c.area.1,
                c.droplet.0,
                c.droplet.1,
                c.solve_gs_iterations,
                c.solve_cold_iterations
            )
        })
        .collect();

    let report = to_report(&results, if smoke { "smoke" } else { "full" });
    let written = report.write(bless).expect("write bench report");
    violations.extend(report.baseline_drift(bless));
    println!();
    for path in written {
        println!("Wrote {}", path.display());
    }
    if !bless {
        println!("(baseline BENCH_synthesis.json untouched — pass --bless to refresh it)");
    }
    if !violations.is_empty() {
        eprintln!("\nsynthesis self-check FAILED:");
        for v in &violations {
            eprintln!("  - {v}");
        }
        std::process::exit(1);
    }
}
