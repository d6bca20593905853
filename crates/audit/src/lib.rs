//! `meda-audit` — well-formedness verifier and value certificates for the
//! synthesis artifacts of *"Formal Synthesis of Adaptive Droplet Routing
//! for MEDA Biochips"* (DATE 2021).
//!
//! The paper's guarantees (`Pmax[◇goal]` reachability, `Rmin[◇goal]`
//! expected cycles, Table V probability-of-success) are statements about a
//! model — they hold only if the [`meda_core::RoutingMdp`] the solver
//! consumed is well-formed and the value vector it produced really is a
//! fixed point of the claimed Bellman operator. This crate re-checks both
//! from first principles, on an owned plain-old-data snapshot
//! ([`ModelArtifact`]), trusting neither the builder nor the solver:
//!
//! - [`audit_model`] — CSR structural integrity (monotone offsets, no
//!   dangling indices), stochasticity (each distribution sums to 1, no
//!   negative/NaN probabilities), goal/sink absorption, and a full
//!   reachability census (unreachable and dead states listed, not counted).
//! - [`audit_values`] / [`bellman_certificate`] — a one-backup
//!   ε-fixed-point *consistency* certificate, independent of solver
//!   trajectory. Note this is not a value guarantee: a vector stuck on an
//!   end-component fixed point has residual 0 while being far from `v*`.
//! - [`pmax_bounds`] / [`strategy_bounds`] / [`verify_bounds`] —
//!   **sound** certified `[lo, hi]` value bounds (`Pmax`: interval
//!   iteration over the maximal end-component quotient; `Rmin`: the
//!   shipped strategy's exact value, accepted only if it is optimal),
//!   with `hi − lo ≤ 2ε`; this is the pass that actually bounds the
//!   distance to the true value.
//! - [`audit_strategy`] — totality and closure of the synthesized
//!   memoryless strategy over the states it can actually reach.
//! - [`evaluate_strategy`] / [`audit_strategy_value`] — exact evaluation
//!   of the strategy's induced Markov chain (SCC-blocked sparse Gaussian
//!   elimination, each block re-checked on its own equations), proving
//!   the shipped strategy attains a value inside the certified interval.
//!
//! [`audit_solution`] bundles the structural, residual, and strategy
//! checks for the common case; [`audit_solution_sound`] layers the bounds
//! certificate, bracket check, and exact strategy evaluation on top. The
//! `meda audit` CLI subcommand and `scripts/ci.sh` drive both over
//! freshly synthesized models. In debug builds the builder and solver
//! also invoke these checks through `debug_assert!`-level hooks, so
//! corruption is caught at construction during development.
//!
//! # Examples
//!
//! ```
//! use meda_audit::{audit_model, ModelArtifact};
//! use meda_core::{ActionConfig, RoutingMdp, UniformField};
//! use meda_grid::Rect;
//!
//! let mdp = RoutingMdp::build(
//!     Rect::new(1, 1, 2, 2),
//!     Rect::new(4, 4, 5, 5),
//!     Rect::new(1, 1, 5, 5),
//!     &UniformField::pristine(),
//!     &ActionConfig::cardinal_only(),
//! )?;
//! let art = ModelArtifact::from(&mdp);
//! assert!(audit_model(&art).is_clean());
//! # Ok::<(), meda_core::BuildError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod artifact;
mod bounds;
mod certify;
mod eval;
mod model;
mod report;
mod strategy;

pub use artifact::ModelArtifact;
pub use bounds::{
    bracket_violations, pmax_bounds, prob1, strategy_bounds, unsound_vi_fixture, verify_bounds,
    BoundsCertificate, BOUNDS_MAX_ITERATIONS, BOUNDS_SLACK,
};
pub use certify::{audit_values, bellman_certificate, Certificate, ValueKind};
pub use eval::{audit_strategy_value, evaluate_strategy, StrategyEvaluation, MAX_CHAIN_BLOCK};
pub use model::{audit_model, census, MASS_EPSILON};
pub use report::{AuditReport, Census, Violation};
pub use strategy::audit_strategy;

use meda_core::Action;

/// Default ε for value certificates: well above the solver's default
/// convergence threshold (`1e-9` on the sweep delta) but far below any
/// quantity the simulator acts on.
pub const CERTIFICATE_EPSILON: f64 = 1e-6;

/// Audits a complete solution — model, value vector, and strategy — in one
/// pass, returning the merged report.
///
/// Value and strategy checks run only when the structural audit is clean
/// (they index the CSR arrays, which corrupted offsets make unsafe).
#[must_use]
pub fn audit_solution(
    art: &ModelArtifact,
    values: &[f64],
    choice: &[Option<Action>],
    kind: ValueKind,
    epsilon: f64,
) -> AuditReport {
    let mut report = audit_model(art);
    if !report.is_clean() {
        return report;
    }
    let (value_violations, _cert) = audit_values(art, values, kind, epsilon);
    let values_ok = value_violations.is_empty();
    report.violations.extend(value_violations);
    if values_ok {
        report
            .violations
            .extend(audit_strategy(art, choice, values, kind));
    }
    report
}

/// The sound certification pass: structural audit, certified `[lo, hi]`
/// bounds re-verified from scratch, a bracket check that the solver's
/// value vector lies inside the interval at every state, and an exact
/// evaluation of the shipped strategy's induced chain whose initial value
/// must also land inside the interval. `Pmax` bounds come from interval
/// iteration ([`pmax_bounds`]); `Rmin` bounds from that one evaluation
/// ([`strategy_bounds`]), which [`verify_bounds`] accepts only if the
/// strategy is optimal.
///
/// Returns the merged report plus the bounds certificate when the
/// structural audit (and, for `Rmin`, the evaluation) allowed the bounds
/// pass to run. Unlike
/// [`audit_solution`], a clean report here *does* bound the distance to
/// the true value: `|v_i − v*_i| ≤ 2ε` for every state and the strategy
/// provably attains a value inside `[lo, hi]` at init.
#[must_use]
pub fn audit_solution_sound(
    art: &ModelArtifact,
    values: &[f64],
    choice: &[Option<Action>],
    kind: ValueKind,
    epsilon: f64,
) -> (AuditReport, Option<BoundsCertificate>) {
    let mut report = audit_model(art);
    if !report.is_clean() {
        return (report, None);
    }
    let eval = evaluate_strategy(art, choice, kind);
    let cert = match (kind, &eval) {
        (ValueKind::Reachability, _) => pmax_bounds(art, epsilon, BOUNDS_MAX_ITERATIONS),
        (ValueKind::ExpectedCycles, Ok(eval)) => strategy_bounds(eval, epsilon),
        (ValueKind::ExpectedCycles, Err(violations)) => {
            report.violations.extend(violations.iter().cloned());
            return (report, None);
        }
    };
    report.violations.extend(verify_bounds(art, &cert));
    report
        .violations
        .extend(bracket_violations(&cert, values, epsilon));
    report.violations.extend(match eval {
        Ok(eval) => audit_strategy_value(art, &eval, &cert),
        Err(violations) => violations,
    });
    (report, Some(cert))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-built 3-state corridor: 0 →E→ 1 →E→ 2(goal), with a
    /// stay-in-place failure branch of mass 0.2 on each move.
    fn corridor() -> ModelArtifact {
        let east = Action::Move(meda_core::Dir::E);
        let west = Action::Move(meda_core::Dir::W);
        ModelArtifact {
            states: 3,
            init: 0,
            sink: None,
            goal_flags: vec![false, false, true],
            // state 0: {E}; state 1: {E, W}; state 2: goal, absorbing.
            state_choice_start: vec![0, 1, 3, 3],
            choice_action: vec![east, east, west],
            choice_branch_start: vec![0, 2, 4, 6],
            branch_target: vec![1, 0, 2, 1, 0, 1],
            branch_prob: vec![0.8, 0.2, 0.8, 0.2, 0.8, 0.2],
        }
    }

    /// Exact fixed-point values of the corridor under `Rmin` (each move
    /// succeeds with 0.8, so each cell costs 1/0.8 = 1.25 cycles).
    fn corridor_rmin() -> Vec<f64> {
        vec![2.5, 1.25, 0.0]
    }

    fn corridor_strategy() -> Vec<Option<Action>> {
        let east = Action::Move(meda_core::Dir::E);
        vec![Some(east), Some(east), None]
    }

    #[test]
    fn pristine_corridor_is_clean() {
        let art = corridor();
        let report = audit_model(&art);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.census.reachable, 3);
        assert!(report.census.unreachable.is_empty());
        assert!(report.census.dead_ends.is_empty());
    }

    #[test]
    fn full_solution_certifies() {
        let art = corridor();
        let report = audit_solution(
            &art,
            &corridor_rmin(),
            &corridor_strategy(),
            ValueKind::ExpectedCycles,
            CERTIFICATE_EPSILON,
        );
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn reachability_values_certify() {
        let art = corridor();
        let (v, cert) = audit_values(
            &art,
            &[1.0, 1.0, 1.0],
            ValueKind::Reachability,
            CERTIFICATE_EPSILON,
        );
        assert!(v.is_empty());
        assert_eq!(cert.max_residual, 0.0);
    }

    #[test]
    fn non_monotone_offset_is_flagged() {
        let mut art = corridor();
        art.state_choice_start[2] = 0;
        let report = audit_model(&art);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::NonMonotoneOffsets { .. })));
    }

    #[test]
    fn offset_overrunning_choices_is_flagged() {
        let mut art = corridor();
        art.state_choice_start[3] = 4;
        let report = audit_model(&art);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::OffsetOutOfRange { .. })));
    }

    #[test]
    fn negative_and_nan_probabilities_are_flagged() {
        for bad in [-0.2, f64::NAN, 0.0, 1.5] {
            let mut art = corridor();
            art.branch_prob[1] = bad;
            let report = audit_model(&art);
            assert!(
                report
                    .violations
                    .iter()
                    .any(|v| matches!(v, Violation::BadProbability { .. })),
                "probability {bad} not flagged"
            );
        }
    }

    #[test]
    fn mass_mismatch_is_flagged() {
        let mut art = corridor();
        art.branch_prob[0] = 0.85;
        let report = audit_model(&art);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::MassMismatch { choice: 0, .. })));
    }

    #[test]
    fn dangling_target_is_flagged() {
        let mut art = corridor();
        art.branch_target[2] = 7;
        let report = audit_model(&art);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::DanglingTarget { .. })));
    }

    #[test]
    fn goal_flag_corruption_is_flagged() {
        // Flipping the goal flag onto a state with choices breaks
        // absorption; flipping the real goal off leaves a dead end.
        let mut on = corridor();
        on.goal_flags[1] = true;
        assert!(audit_model(&on)
            .violations
            .iter()
            .any(|v| matches!(v, Violation::GoalNotAbsorbing { state: 1, .. })));

        let mut off = corridor();
        off.goal_flags[2] = false;
        let report = audit_model(&off);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::DeadEnd { state: 2 })));
        assert_eq!(report.census.dead_ends, vec![2]);
    }

    #[test]
    fn unreachable_state_is_listed() {
        // Retarget every branch into state 0's orbit so state 2 detaches:
        // send state 1's east-success to itself instead of the goal.
        let mut art = corridor();
        art.branch_target[2] = 0;
        let report = audit_model(&art);
        assert_eq!(report.census.unreachable, vec![2]);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::UnreachableState { state: 2 })));
    }

    #[test]
    fn wrong_values_fail_certificate() {
        let art = corridor();
        let mut values = corridor_rmin();
        values[0] += 0.5;
        let (violations, cert) = audit_values(
            &art,
            &values,
            ValueKind::ExpectedCycles,
            CERTIFICATE_EPSILON,
        );
        assert!(!violations.is_empty());
        assert!(cert.max_residual > 0.1);
    }

    #[test]
    fn inf_where_finite_expected_is_inconsistent() {
        let art = corridor();
        let mut values = corridor_rmin();
        values[1] = f64::INFINITY;
        let cert = bellman_certificate(&art, &values, ValueKind::ExpectedCycles);
        assert!(!cert.inconsistent.is_empty());
        assert!(!cert.certifies(CERTIFICATE_EPSILON));
    }

    #[test]
    fn out_of_range_reachability_is_flagged() {
        let art = corridor();
        let cert = bellman_certificate(&art, &[1.2, 1.0, 1.0], ValueKind::Reachability);
        assert_eq!(cert.out_of_range, vec![0]);
    }

    #[test]
    fn strategy_mutations_are_flagged() {
        let art = corridor();
        let values = corridor_rmin();

        let mut undecided = corridor_strategy();
        undecided[1] = None;
        assert!(
            audit_strategy(&art, &undecided, &values, ValueKind::ExpectedCycles)
                .iter()
                .any(|v| matches!(v, Violation::StrategyIncomplete { state: 1 }))
        );

        let mut disabled = corridor_strategy();
        disabled[0] = Some(Action::Move(meda_core::Dir::N));
        assert!(
            audit_strategy(&art, &disabled, &values, ValueKind::ExpectedCycles)
                .iter()
                .any(|v| matches!(v, Violation::StrategyInvalidAction { state: 0, .. }))
        );

        let mut at_goal = corridor_strategy();
        at_goal[2] = Some(Action::Move(meda_core::Dir::E));
        assert!(
            audit_strategy(&art, &at_goal, &values, ValueKind::ExpectedCycles)
                .iter()
                .any(|v| matches!(v, Violation::StrategyChoiceAtAbsorbing { state: 2 }))
        );
    }

    #[test]
    fn an_improper_strategy_is_rejected_where_the_backups_cannot_refute_it() {
        // States 0 and 1 can each gamble 50/50 between the goal (2) and the
        // other state (E), or hand over to the other state outright (W).
        // The strategy W, W shuttles forever: value ∞ at both, where the
        // truth is 2. Every choice at either state re-enters the pair, so
        // ∞ is a post-fixed point there and the certificate [∞, ∞] passes
        // the verifier's backups. The verifier must still reject `lo = ∞`
        // on these Prob1 states, and the improper-strategy check must
        // catch the strategy itself.
        let (east, west) = (
            Action::Move(meda_core::Dir::E),
            Action::Move(meda_core::Dir::W),
        );
        let art = ModelArtifact {
            states: 3,
            init: 0,
            sink: None,
            goal_flags: vec![false, false, true],
            state_choice_start: vec![0, 2, 4, 4],
            choice_action: vec![east, west, east, west],
            choice_branch_start: vec![0, 2, 3, 5, 6],
            branch_target: vec![2, 1, 1, 2, 0, 0],
            branch_prob: vec![0.5, 0.5, 1.0, 0.5, 0.5, 1.0],
        };
        assert!(audit_model(&art).is_clean());
        let shuttle = vec![Some(west), Some(west), None];
        let forged_values = vec![f64::INFINITY, f64::INFINITY, 0.0];
        let eval = evaluate_strategy(&art, &shuttle, ValueKind::ExpectedCycles).expect("evaluates");
        let cert = strategy_bounds(&eval, CERTIFICATE_EPSILON);
        let infinite_lo = |state| Violation::BoundUnsound {
            upper: false,
            state,
            value: f64::INFINITY,
            backup: f64::INFINITY,
        };
        assert_eq!(
            verify_bounds(&art, &cert),
            vec![infinite_lo(0), infinite_lo(1)]
        );
        let (report, _) = audit_solution_sound(
            &art,
            &forged_values,
            &shuttle,
            ValueKind::ExpectedCycles,
            CERTIFICATE_EPSILON,
        );
        assert_eq!(
            report.violations,
            vec![
                infinite_lo(0),
                infinite_lo(1),
                Violation::StrategyImproper { state: 0 }
            ]
        );
        // The gamble, E at both, is optimal and certifies.
        let gamble = vec![Some(east), Some(east), None];
        let (report, cert) = audit_solution_sound(
            &art,
            &[2.0, 2.0, 0.0],
            &gamble,
            ValueKind::ExpectedCycles,
            CERTIFICATE_EPSILON,
        );
        assert!(report.is_clean(), "{report}");
        assert!(cert.is_some_and(|c| c.contains(0, 2.0, 0.0)));
    }

    #[test]
    fn hopeless_states_may_be_undecided() {
        // Pmax = 0 everywhere: a strategy of all-None is total.
        let art = corridor();
        let zeros = vec![0.0, 0.0, 0.0];
        let none = vec![None, None, None];
        assert!(audit_strategy(&art, &none, &zeros, ValueKind::Reachability).is_empty());
    }
}
