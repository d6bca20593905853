//! Property-style tests for the synthesis engine: Bellman-optimality
//! invariants, probability bounds, and strategy soundness on random
//! degradation fields, replayed over a deterministic seeded input space.
//! The degradation-monotonicity property runs under `meda-check`
//! (shrinking plus the shared failure corpus).

use meda_check::{arb, cases_from_env, check, choose_i32, default_corpus_dir, Config, Gen};
use meda_core::{
    ActionConfig, HazardHandling, HealthField, HealthInterpretation, RawField, RoutingMdp,
    UniformField,
};
use meda_degradation::quantize_health;
use meda_grid::{Cell, ChipDims, Grid, Rect};
use meda_rng::{Rng, SeedableRng, StdRng};
use meda_synth::{max_reach_probability, min_expected_cycles, synthesize, Query, SolverOptions};

const CASES: usize = 32;

/// A random force field over a 12×12 chip with forces bounded away from 0
/// so the goal stays almost-surely reachable.
fn arb_field(rng: &mut StdRng) -> RawField {
    let dims = ChipDims::new(12, 12);
    let values: Vec<f64> = (0..144).map(|_| rng.gen_range(0.2..1.0)).collect();
    let grid = Grid::from_fn(dims, |c: Cell| {
        values[(c.y as usize - 1) * 12 + (c.x as usize - 1)]
    });
    RawField::new(grid)
}

fn build(field: &RawField, config: &ActionConfig) -> RoutingMdp {
    RoutingMdp::build(
        Rect::new(1, 1, 3, 3),
        Rect::new(10, 10, 12, 12),
        Rect::new(1, 1, 12, 12),
        field,
        config,
    )
    .unwrap()
}

#[test]
fn reach_probabilities_lie_in_unit_interval() {
    let mut rng = StdRng::seed_from_u64(0x57E0);
    for _ in 0..CASES {
        let field = arb_field(&mut rng);
        let mdp = build(&field, &ActionConfig::cardinal_only());
        let r = max_reach_probability(&mdp, SolverOptions::default());
        assert!(r.converged);
        for (i, v) in r.values.iter().enumerate() {
            assert!((0.0..=1.0 + 1e-9).contains(v), "state {i}: {v}");
        }
        // With positive forces the goal is almost surely reachable.
        assert!(r.values[mdp.init()] > 1.0 - 1e-6);
    }
}

#[test]
fn expected_cycles_bounded_below_by_distance() {
    let mut rng = StdRng::seed_from_u64(0x57E1);
    for _ in 0..CASES {
        // Manhattan distance between start and goal anchors is a hard lower
        // bound on cycles when only single steps are available.
        let field = arb_field(&mut rng);
        let mdp = build(&field, &ActionConfig::cardinal_only());
        let r = min_expected_cycles(&mdp, SolverOptions::default());
        assert!(r.converged);
        let v0 = r.values[mdp.init()];
        assert!(v0 >= 18.0 - 1e-9, "v0 = {v0}"); // |10-1| + |10-1|
                                                 // And above by the all-worst-force bound: 18 steps at p ≥ 0.2.
        assert!(v0 <= 18.0 / 0.2 + 1e-6, "v0 = {v0}");
    }
}

#[test]
fn richer_action_sets_never_hurt() {
    let mut rng = StdRng::seed_from_u64(0x57E2);
    for _ in 0..CASES {
        let field = arb_field(&mut rng);
        let cardinal = build(&field, &ActionConfig::cardinal_only());
        let full = build(&field, &ActionConfig::default());
        let vc = min_expected_cycles(&cardinal, SolverOptions::default()).values[cardinal.init()];
        let vf = min_expected_cycles(&full, SolverOptions::default()).values[full.init()];
        assert!(vf <= vc + 1e-6, "full {vf} vs cardinal {vc}");
    }
}

#[test]
fn bellman_optimality_holds_at_the_fixed_point() {
    let mut rng = StdRng::seed_from_u64(0x57E3);
    for _ in 0..CASES {
        let field = arb_field(&mut rng);
        let mdp = build(&field, &ActionConfig::cardinal_only());
        let r = min_expected_cycles(&mdp, SolverOptions::default());
        for i in mdp.state_indices() {
            if mdp.is_goal(i) || r.values[i].is_infinite() {
                continue;
            }
            // v(i) = 1 + min_a Σ p v(s') (solving self-loops exactly).
            let mut best = f64::INFINITY;
            for (_, branch) in mdp.choices(i) {
                let mut p_self = 0.0;
                let mut rest = 0.0;
                for (j, p) in branch.iter() {
                    if j == i {
                        p_self += p;
                    } else {
                        rest += p * r.values[j];
                    }
                }
                if p_self < 1.0 - 1e-12 {
                    best = best.min((1.0 + rest) / (1.0 - p_self));
                }
            }
            assert!((r.values[i] - best).abs() < 1e-6, "state {i}");
        }
    }
}

#[test]
fn strategy_decisions_are_enabled_and_decrease_value() {
    let mut rng = StdRng::seed_from_u64(0x57E4);
    for _ in 0..CASES {
        let field = arb_field(&mut rng);
        let config = ActionConfig::cardinal_only();
        let mdp = build(&field, &config);
        let pi = synthesize(&mdp, Query::MinExpectedCycles).unwrap();
        for i in mdp.state_indices() {
            let droplet = mdp.state(i);
            if let Some(action) = pi.decide(droplet) {
                assert!(action.is_enabled(droplet, mdp.bounds(), &config));
                // The successful successor strictly improves the value.
                let succ = action.apply(droplet);
                let v_here = pi.value_at(droplet).unwrap();
                let v_succ = pi.value_at(succ).unwrap();
                assert!(v_succ < v_here, "{droplet}: {v_succ} !< {v_here}");
            }
        }
    }
}

#[test]
fn pmax_value_is_antitone_in_wall_strength() {
    let mut rng = StdRng::seed_from_u64(0x57E5);
    for case in 0..CASES {
        // A vertical wall of the given force: stronger wall ⇒ higher Pmax.
        // Exercise the zero-force wall on the first case, then random gaps.
        let gap_force = if case == 0 {
            0.0
        } else {
            rng.gen_range(0.0..0.9)
        };
        let dims = ChipDims::new(9, 3);
        let mut grid = Grid::new(dims, 1.0);
        for y in 1..=3 {
            grid[Cell::new(5, y)] = gap_force;
        }
        let field = RawField::new(grid);
        let mdp = RoutingMdp::build(
            Rect::new(1, 1, 1, 1),
            Rect::new(9, 1, 9, 1),
            Rect::new(1, 1, 9, 3),
            &field,
            &ActionConfig::cardinal_only(),
        )
        .unwrap();
        let p = max_reach_probability(&mdp, SolverOptions::default()).values[mdp.init()];
        if gap_force > 0.0 {
            assert!(p > 1.0 - 1e-6, "any positive force passes eventually: {p}");
        } else {
            assert!(p < 1e-9, "a zero-force wall is impassable: {p}");
        }
    }
}

/// Quantization bracketing: the optimistic/conservative readings of a
/// quantized health matrix bound the expected completion time computed
/// from the (hidden) true degradation — the guarantee that makes the
/// conservative default safe.
#[test]
fn interpretations_bracket_true_expected_cycles() {
    let mut rng = StdRng::seed_from_u64(0x57E6);
    for _ in 0..16 {
        let dims = ChipDims::new(12, 12);
        let values: Vec<f64> = (0..144).map(|_| rng.gen_range(0.3..1.0)).collect();
        let true_d = Grid::from_fn(dims, |c: Cell| {
            values[(c.y as usize - 1) * 12 + (c.x as usize - 1)]
        });
        let truth = meda_core::DegradationField::new(true_d.clone());
        let readings = true_d.map(|_, d| quantize_health(*d, 2));
        let conservative = HealthField::new(readings.clone(), 2);
        let optimistic =
            HealthField::with_interpretation(readings, 2, HealthInterpretation::Optimistic);

        let config = ActionConfig::cardinal_only();
        let geometry = (
            Rect::new(1, 1, 3, 3),
            Rect::new(10, 10, 12, 12),
            Rect::new(1, 1, 12, 12),
        );
        let solve = |field: &dyn meda_core::ForceProvider| {
            let mdp =
                RoutingMdp::build(geometry.0, geometry.1, geometry.2, field, &config).unwrap();
            min_expected_cycles(&mdp, SolverOptions::default()).values[mdp.init()]
        };
        let v_cons = solve(&conservative);
        let v_true = solve(&truth);
        let v_opt = solve(&optimistic);
        assert!(
            v_opt <= v_true + 1e-6,
            "optimistic {v_opt} !<= true {v_true}"
        );
        assert!(
            v_true <= v_cons + 1e-6,
            "true {v_true} !<= conservative {v_cons}"
        );
    }
}

/// DESIGN.md §5.1: guard-disable and absorbing-sink hazard encodings
/// yield identical optimal values (the optimizer never chooses a
/// sink-reaching action), so the smaller model is safe to use.
#[test]
fn hazard_encodings_agree_on_optimal_values() {
    let mut rng = StdRng::seed_from_u64(0x57E7);
    for _ in 0..16 {
        let field = arb_field(&mut rng);
        let config = ActionConfig::default();
        let args = (
            Rect::new(1, 1, 3, 3),
            Rect::new(10, 10, 12, 12),
            Rect::new(1, 1, 12, 12),
        );
        let guard = RoutingMdp::build_with(
            args.0,
            args.1,
            args.2,
            &field,
            &config,
            HazardHandling::GuardDisable,
        )
        .unwrap();
        let sink = RoutingMdp::build_with(
            args.0,
            args.1,
            args.2,
            &field,
            &config,
            HazardHandling::AbsorbingSink,
        )
        .unwrap();
        let opts = SolverOptions::default();
        let (rg, rs) = (
            min_expected_cycles(&guard, opts.clone()).values[guard.init()],
            min_expected_cycles(&sink, opts.clone()).values[sink.init()],
        );
        assert!((rg - rs).abs() < 1e-6, "Rmin: {rg} vs {rs}");
        let (pg, ps) = (
            max_reach_probability(&guard, opts.clone()).values[guard.init()],
            max_reach_probability(&sink, opts).values[sink.init()],
        );
        assert!((pg - ps).abs() < 1e-6, "Pmax: {pg} vs {ps}");
    }
}

#[test]
fn uniform_field_value_matches_closed_form() {
    // On a uniform field with force p the corridor value is distance / p.
    for p in [0.25, 0.5, 0.75, 1.0] {
        let mdp = RoutingMdp::build(
            Rect::new(1, 1, 1, 1),
            Rect::new(7, 1, 7, 1),
            Rect::new(1, 1, 7, 1),
            &UniformField::new(p),
            &ActionConfig::cardinal_only(),
        )
        .unwrap();
        let v = min_expected_cycles(&mdp, SolverOptions::default()).values[mdp.init()];
        assert!((v - 6.0 / p).abs() < 1e-6, "p = {p}: v = {v}");
    }
}

/// A chip with a strictly positive base field and a pointwise-degraded
/// copy, plus a routing job on it. Strict positivity keeps the reachable
/// state space identical across the two fields (the builder drops zero-
/// probability branches).
#[derive(Debug, Clone)]
struct DegradedPair {
    dims: ChipDims,
    healthy: Grid<f64>,
    degraded: Grid<f64>,
    start: Rect,
    goal: Rect,
}

fn degraded_pair() -> Gen<DegradedPair> {
    arb::dims(4, 8).flat_map(|&dims| {
        let bounds = dims.bounds();
        arb::droplet_in(bounds, 2)
            .flat_map(move |&start| {
                let (w, h) = (start.width(), start.height());
                choose_i32(bounds.xa, bounds.xb - w as i32 + 1)
                    .zip(choose_i32(bounds.ya, bounds.yb - h as i32 + 1))
                    .map(move |&(gx, gy)| (start, Rect::with_size(gx, gy, w, h)))
            })
            .zip(
                arb::degradation_matrix(dims, 0.3, 1.0)
                    .zip(arb::degradation_matrix(dims, 0.5, 1.0)),
            )
            .map(move |case| {
                let ((start, goal), (healthy, factor)) = case;
                let degraded = healthy.map(|c, v| v * factor[c]);
                DegradedPair {
                    dims,
                    healthy: healthy.clone(),
                    degraded,
                    start: *start,
                    goal: *goal,
                }
            })
    })
}

fn build_pair_side(pair: &DegradedPair, field: &Grid<f64>) -> Result<RoutingMdp, String> {
    RoutingMdp::build(
        pair.start,
        pair.goal,
        pair.dims.bounds(),
        &RawField::new(field.clone()),
        &ActionConfig::cardinal_only(),
    )
    .map_err(|e| format!("build failed: {e:?}"))
}

/// Cardinal-only models have no partial-move outcomes — every move either
/// succeeds or stays — so expected cycles are monotone nonincreasing in
/// the field: a healthier field's Rmin values lower-bound a degraded
/// field's values at every state.
#[test]
fn degradation_never_lowers_rmin_on_cardinal_models() {
    let config = Config::default()
        .with_cases(cases_from_env(48))
        .with_corpus(default_corpus_dir());
    check(
        "synth-degradation-monotone",
        &config,
        &degraded_pair(),
        |pair| {
            let healthy_mdp = build_pair_side(pair, &pair.healthy)?;
            let degraded_mdp = build_pair_side(pair, &pair.degraded)?;
            if healthy_mdp.stats().states != degraded_mdp.stats().states {
                return Err("state spaces diverged on positive fields".into());
            }
            let healthy = min_expected_cycles(&healthy_mdp, SolverOptions::default());
            let degraded = min_expected_cycles(&degraded_mdp, SolverOptions::default());
            if !(healthy.converged && degraded.converged) {
                return Err("a solve failed to converge".into());
            }
            for (i, (&h, &d)) in healthy.values.iter().zip(&degraded.values).enumerate() {
                if h.is_finite() != d.is_finite() {
                    return Err(format!("state {i}: finiteness diverged ({h}, {d})"));
                }
                if h.is_finite() && d < h - 1e-6 {
                    return Err(format!(
                        "state {i}: degraded value {d} below healthy value {h}"
                    ));
                }
            }
            Ok(())
        },
    );
}

/// The counterexample to monotonicity once ordinal moves are enabled.
///
/// On a 3×3 chip the goal (2,2) is gated by a nearly dead direct frontier
/// (force 0.05 at the goal cell), so the fast route from (2,1) is the
/// ordinal NE step whose *N-only partial* branch lands exactly on the
/// goal. Both of that branch's frontier cells read force `p` from cell
/// (3,2), so the branch fires with probability `p·(1−p)`: degrading `p`
/// from 0.9 to 0.5 raises it from 0.09 to 0.25, and the expected
/// completion time *drops* — the healthy values are not a lower bound for
/// the degraded fixed point.
#[test]
fn ordinal_partial_moves_break_degradation_monotonicity() {
    let dims = ChipDims::new(3, 3);
    let field_with = |p: f64| {
        let mut f = Grid::new(dims, p);
        f[Cell::new(2, 2)] = 0.05;
        RawField::new(f)
    };
    let build = |p: f64| {
        RoutingMdp::build(
            Rect::new(2, 1, 2, 1),
            Rect::new(2, 2, 2, 2),
            dims.bounds(),
            &field_with(p),
            &ActionConfig::moves_only(),
        )
        .expect("3x3 model builds")
    };
    let healthy = build(0.9);
    let degraded = build(0.5);
    assert_eq!(healthy.stats().states, degraded.stats().states);
    let v_healthy = min_expected_cycles(&healthy, SolverOptions::default());
    let v_degraded = min_expected_cycles(&degraded, SolverOptions::default());
    let (init_h, init_d) = (
        v_healthy.values[healthy.init()],
        v_degraded.values[degraded.init()],
    );
    assert!(
        init_d < init_h - 0.5,
        "expected the degraded chip to finish faster: healthy {init_h}, degraded {init_d}"
    );
}
