//! Extension: analytic vs simulated bounded probability of success.
//! `Pmax=? [ F≤k goal ]` via backward induction is the per-job analytic
//! counterpart of the paper's Fig. 15 PoS metric; this harness
//! cross-validates it against Monte-Carlo simulation of the very same
//! model — solver and simulator must agree within sampling error.
#![forbid(unsafe_code)]

use meda_bench::{banner, bar, header, row};
use meda_core::{mean_force, transitions, ActionConfig, RawField, RoutingMdp};
use meda_grid::{Cell, ChipDims, Grid, Rect};
use meda_rng::StdRng;
use meda_rng::{Rng, SeedableRng};
use meda_synth::bounded_reach_probability;

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let trials = if full { 40_000 } else { 8_000 };

    banner(
        "Extension — bounded PoS: analytic vs Monte-Carlo",
        "One 3×3 routing job across a 14×7 zone with a degraded band; the \
         backward-induction P[F≤k] must match the simulated completion \
         rate under the time-dependent optimal policy.",
    );
    println!("Monte-Carlo trials per budget: {trials}\n");

    // A field with a worn band across the middle.
    let dims = ChipDims::new(14, 7);
    let mut grid = Grid::new(dims, 0.95);
    for y in 3..=5 {
        for x in 6..=9 {
            grid[Cell::new(x, y)] = 0.35;
        }
    }
    let field = RawField::new(grid);
    let start = Rect::new(1, 3, 3, 5);
    let goal = Rect::new(12, 3, 14, 5);
    let bounds = Rect::new(1, 1, 14, 7);
    let mdp = RoutingMdp::build(start, goal, bounds, &field, &ActionConfig::moves_only())
        .expect("geometry is consistent");

    let horizon = 40;
    let table = bounded_reach_probability(&mdp, horizon);

    let widths = [8, 12, 12, 10, 22];
    header(&["budget", "analytic", "simulated", "abs err", ""], &widths);
    let mut rng = StdRng::seed_from_u64(4242);
    for budget in [6usize, 8, 10, 12, 16, 24, 40] {
        let analytic = table.at(mdp.init(), budget);
        // Simulate under the same time-dependent optimal policy.
        let mut successes = 0u32;
        for _ in 0..trials {
            let mut droplet = start;
            let mut left = budget;
            while left > 0 {
                let Some(i) = mdp.state_index(droplet) else {
                    break;
                };
                if mdp.is_goal(i) {
                    break;
                }
                let Some(action) = table.action_at(i, left) else {
                    break;
                };
                let outcomes = transitions(droplet, action, &field);
                let mut roll: f64 = rng.gen();
                for o in &outcomes {
                    if roll < o.probability {
                        droplet = o.droplet;
                        break;
                    }
                    roll -= o.probability;
                }
                left -= 1;
            }
            if mdp.state_index(droplet).is_some_and(|i| mdp.is_goal(i)) {
                successes += 1;
            }
        }
        let simulated = f64::from(successes) / f64::from(trials as u32);
        row(
            &[
                format!("{budget}"),
                format!("{analytic:.4}"),
                format!("{simulated:.4}"),
                format!("{:.4}", (analytic - simulated).abs()),
                bar(analytic, 20),
            ],
            &widths,
        );
    }

    let b99 = table.budget_for(mdp.init(), 0.99);
    println!(
        "\nbudget for 99% success: {} cycles (vs {} Manhattan distance)",
        b99.map_or("beyond horizon".into(), |b| b.to_string()),
        (goal.xa - start.xa).abs() + (goal.ya - start.ya).abs()
    );
    println!(
        "\nReading: analytic and simulated values agree to Monte-Carlo \
         noise (≈1/√trials), cross-validating the synthesis engine against \
         the simulator — and giving bioassay designers an exact answer to \
         the Fig. 15 question per routing job: how much budget buys how \
         much certainty. Field mean force: {:.2}.",
        mean_force(&field, bounds)
    );
}
