//! Cross-method solver agreement, meda-check style: topological value
//! iteration must land on the same `Pmax`/`Rmin` fixed points as the
//! baseline Gauss–Seidel engine across generated
//! chips, droplets, and degradation fields — with shrinking to a small
//! witness on disagreement.

use meda_check::oracle::{routing_scenario, RoutingScenario};
use meda_check::{cases_from_env, run_property, Config, Outcome};
use meda_core::{ActionConfig, RawField, RoutingMdp};
use meda_grid::{Cell, ChipDims, Grid, Rect};
use meda_synth::{max_reach_probability, min_expected_cycles, SolverMethod, SolverOptions};

fn with(method: SolverMethod) -> SolverOptions {
    SolverOptions {
        method,
        ..SolverOptions::default()
    }
}

/// Relative agreement with matching infinities. An ε-Bellman-residual only
/// bounds the *value* error by ε/(1−γ), where the per-sweep contraction γ
/// depends on the field, so the tolerance must sit above the residual
/// threshold: ~2e-7 relative at the default epsilon of 1e-9.
fn agree(a: &[f64], b: &[f64], rel: f64, what: &str) -> Result<(), String> {
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        if x.is_infinite() || y.is_infinite() {
            if x != y {
                return Err(format!("{what}: state {i} finite/infinite: {x} vs {y}"));
            }
        } else if (x - y).abs() > rel * f64::max(1.0, y.abs()) {
            return Err(format!("{what}: state {i}: {x} vs {y}"));
        }
    }
    Ok(())
}

fn check_methods(s: &RoutingScenario) -> Result<(), String> {
    let mdp = s.build().map_err(|e| format!("{e:?}"))?;
    let base_p = max_reach_probability(&mdp, with(SolverMethod::GaussSeidel));
    let base_r = min_expected_cycles(&mdp, with(SolverMethod::GaussSeidel));
    if !base_p.converged || !base_r.converged {
        return Err("baseline Gauss–Seidel did not converge".into());
    }
    let p = max_reach_probability(&mdp, SolverOptions::default());
    let r = min_expected_cycles(&mdp, SolverOptions::default());
    if !p.converged || !r.converged {
        return Err("Topological did not converge".into());
    }
    agree(&p.values, &base_p.values, 2e-7, "Topological Pmax")?;
    agree(&r.values, &base_r.values, 2e-7, "Topological Rmin")
}

#[test]
fn all_solver_methods_agree_on_generated_scenarios() {
    let gen = routing_scenario(4, 8);
    let config = Config::default().with_cases(cases_from_env(24));
    let out = run_property("solver-methods-agree", &config, &gen, check_methods);
    if let Outcome::Failed(f) = out {
        panic!("solver methods disagree:\n{}", f.report());
    }
}

/// A hand-seeded fixture whose condensation has exactly one non-trivial
/// component (reversible moves glue all non-goal states together), forcing
/// the topological engine's within-SCC iteration path rather than the
/// one-backup acyclic shortcut — and it must still match the baseline.
#[test]
fn cyclic_scc_fixture_forces_within_scc_iteration() {
    let dims = ChipDims::new(9, 9);
    let mut f = Grid::new(dims, 1.0);
    // A weak diagonal band keeps the field interesting without
    // disconnecting anything.
    for k in 2..=7 {
        f[Cell::new(k, k)] = 0.4;
    }
    let mdp = RoutingMdp::build(
        Rect::new(1, 1, 2, 2),
        Rect::new(8, 8, 9, 9),
        Rect::new(1, 1, 9, 9),
        &RawField::new(f),
        &ActionConfig::cardinal_only(),
    )
    .unwrap();
    let cond = mdp.condensation();
    assert_eq!(cond.nontrivial(), 1, "expected one big cyclic component");
    assert!(cond.largest() > 1);
    let topo = min_expected_cycles(&mdp, with(SolverMethod::Topological));
    let base = min_expected_cycles(&mdp, with(SolverMethod::GaussSeidel));
    assert!(topo.converged && base.converged);
    agree(&topo.values, &base.values, 2e-7, "cyclic fixture Rmin").unwrap();
}
