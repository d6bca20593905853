//! Solver profiling harness: sweep/timing breakdown for the paper-scale
//! (90×90, 3×3 droplet) Rmin solve, comparing the Gauss–Seidel baseline
//! against the topological engine and dumping the solver telemetry
//! counters. Run with `cargo run --release -p meda-synth --example
//! profile_rmin` when tuning sweep-order heuristics — it is the
//! quick inner loop the full bench matrix is too slow for.
use std::time::Instant;

use meda_core::{ActionConfig, HealthField, RoutingMdp};
use meda_degradation::HealthLevel;
use meda_grid::{ChipDims, Grid, Rect};
use meda_synth::{max_reach_probability, min_expected_cycles, SolverMethod, SolverOptions};

fn main() {
    let (aw, ah) = (90u32, 90u32);
    let (dw, dh) = (3u32, 3u32);
    const BITS: u8 = 3;
    let dims = ChipDims::new(aw + 2, ah + 2);
    let health = Grid::from_fn(dims, |c| {
        let spread = ((c.x * 7 + c.y * 13) % 3) as u8;
        HealthLevel::new(7 - spread, BITS)
    });
    let field = HealthField::new(health, BITS);
    let bounds = Rect::new(1, 1, aw as i32, ah as i32);
    let start = Rect::with_size(1, 1, dw, dh);
    let goal = Rect::with_size(aw as i32 - dw as i32 + 1, ah as i32 - dh as i32 + 1, dw, dh);
    let config = ActionConfig::moves_only();
    let mdp = RoutingMdp::build(start, goal, bounds, &field, &config).unwrap();
    println!("states={}", mdp.len());

    for method in [SolverMethod::GaussSeidel, SolverMethod::Topological] {
        let opts = SolverOptions {
            method,
            ..SolverOptions::default()
        };
        let t0 = Instant::now();
        let reach = max_reach_probability(&mdp, opts.clone());
        let t_reach = t0.elapsed().as_secs_f64() * 1e3;
        let t1 = Instant::now();
        let r = min_expected_cycles(&mdp, opts);
        let t_rmin = t1.elapsed().as_secs_f64() * 1e3;
        let inf = r.values.iter().filter(|v| v.is_infinite()).count();
        println!(
            "{method:?}: reach {t_reach:.2}ms it={} | rmin(total incl reach) {t_rmin:.2}ms it={} v0={:.4} inf={inf} conv={}",
            reach.iterations, r.iterations, r.values[0], r.converged
        );
    }
    let summary = meda_telemetry::global().summary();
    for key in ["synth.solve.sweeps.greedy", "synth.solve.confirm.retries"] {
        println!("{key} = {:?}", summary.counter(key));
    }
}
