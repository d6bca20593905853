//! Exact evaluation of the Markov chain a memoryless strategy induces.
//!
//! The residual certificate ([`crate::bellman_certificate`]) and the
//! `Pmax` interval bounds ([`crate::pmax_bounds`]) both speak about a
//! *value vector*; neither proves anything about the **strategy** the
//! solver ships. This pass closes that gap: walking the strategy over the
//! CSR graph yields a Markov chain (one choice per state), whose value is
//! a *linear* system — no max/min — and can therefore be solved exactly
//! rather than iterated (for `Rmin` it is also the certificate,
//! [`crate::strategy_bounds`]). The chain is condensed into strongly
//! connected components (the shared `meda-core` Tarjan pass); bottom
//! components are resolved structurally (a goal singleton is 1 / 0
//! cycles, any other recurrent class never reaches the goal: 0 / ∞);
//! transient components are processed in reverse topological order, each
//! solved by dense partially-pivoted Gaussian elimination over its
//! (typically tiny) block with sparse substitution of the already-solved
//! downstream values, then re-checked on its own equations. The result is
//! the exact (f64) value the shipped strategy attains, which
//! [`audit_strategy_value`] then requires to lie inside the certified
//! `[lo, hi]` interval.

use meda_core::{tarjan_scc, Action};

use crate::bounds::BOUNDS_SLACK;
use crate::{prob1, BoundsCertificate, ModelArtifact, ValueKind, Violation};

/// Dense blocks beyond this edge length are refused — a strategy chain
/// with a strongly connected component this large would need O(block²)
/// memory to eliminate. Routing chains are near-acyclic (self-loops are
/// diagonal entries, not components), so hitting this limit indicates a
/// degenerate strategy and is reported as a violation rather than solved.
pub const MAX_CHAIN_BLOCK: usize = 4096;

/// Largest accepted residual of a solved block's equation, relative to
/// `1 + b`: rounding leaves about 1e-7 at 10⁹ expected cycles, a
/// numerically singular block leaves residuals of order `b`.
const EVAL_RESIDUAL_TOLERANCE: f64 = 1e-6;

/// The outcome of exactly evaluating a strategy's induced chain.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyEvaluation {
    /// Operator the values belong to.
    pub kind: ValueKind,
    /// Exact per-state value of the induced chain (`Pmax`: reach
    /// probability; `Rmin`: expected cycles, `∞` where the chain never
    /// absorbs in the goal).
    pub values: Vec<f64>,
    /// Size of the largest dense block eliminated.
    pub largest_block: usize,
}

/// Exactly evaluates the chain induced by a memoryless strategy given as
/// one [`Action`] per state. Actions are resolved against the CSR choice
/// table; an action not enabled at its state yields
/// [`Violation::StrategyInvalidAction`]. The artifact must have passed
/// [`crate::audit_model`].
///
/// # Errors
///
/// Returns the violations that prevented evaluation: invalid length,
/// disabled action, a strongly connected block over [`MAX_CHAIN_BLOCK`],
/// or a block whose solution misses its own equations (or gives a
/// negative expected cost) — a numerically singular block, reported
/// rather than clamped into range.
pub fn evaluate_strategy(
    art: &ModelArtifact,
    choice: &[Option<Action>],
    kind: ValueKind,
) -> Result<StrategyEvaluation, Vec<Violation>> {
    if choice.len() != art.states {
        return Err(vec![Violation::StrategyLength {
            expected: art.states,
            found: choice.len(),
        }]);
    }
    let mut pick = vec![None; art.states];
    let mut violations = Vec::new();
    for (i, &action) in choice.iter().enumerate() {
        let Some(action) = action else { continue };
        match art
            .choice_range(i)
            .find(|&c| art.choice_action[c] == action)
        {
            Some(c) => pick[i] = Some(c),
            None => violations.push(Violation::StrategyInvalidAction { state: i, action }),
        }
    }
    if !violations.is_empty() {
        return Err(violations);
    }
    let telemetry = meda_telemetry::global();
    let _span = telemetry.span("audit.eval");
    let n = art.states;
    // SCC condensation of the induced chain: edges are the branches of
    // each state's picked choice only (self-loops are skipped — they are
    // diagonal entries of the dense block, never component-forming).
    let scc = tarjan_scc(
        n,
        |_| true,
        |v| {
            pick[v]
                .map_or(0..0, |c| art.branch_range(c))
                .map(|b| art.branch_target[b])
        },
    );
    let cost = match kind {
        ValueKind::Reachability => 0.0,
        ValueKind::ExpectedCycles => 1.0,
    };
    let mut values = vec![0.0_f64; n];
    let mut pos = vec![0u32; n]; // local index within the current block
    let mut largest_block = 0usize;

    // Component ids are Tarjan emission order = reverse topological:
    // processing them in increasing id visits every component only after
    // all components it can reach.
    for k in 0..scc.components() {
        let members = scc.members_of(k);
        let bottom = members.iter().all(|&u| {
            let u = u as usize;
            match pick[u] {
                None => true,
                Some(c) => art
                    .branch_range(c)
                    .all(|b| scc.component[art.branch_target[b] as usize] as usize == k),
            }
        });
        if bottom {
            // A recurrent class: the goal is absorbing, so a goal state is
            // always a singleton bottom; every other bottom class never
            // reaches the goal.
            let is_goal = members.len() == 1 && art.goal_flags[members[0] as usize];
            let v = match (kind, is_goal) {
                (ValueKind::Reachability, true) => 1.0,
                (ValueKind::Reachability, false) => 0.0,
                (ValueKind::ExpectedCycles, true) => 0.0,
                (ValueKind::ExpectedCycles, false) => f64::INFINITY,
            };
            for &u in members {
                values[u as usize] = v;
            }
            continue;
        }
        let m = members.len();
        if m > MAX_CHAIN_BLOCK {
            return Err(vec![Violation::StrategyChainBlockTooLarge {
                block: m,
                limit: MAX_CHAIN_BLOCK,
            }]);
        }
        largest_block = largest_block.max(m);
        for (local, &u) in members.iter().enumerate() {
            pos[u as usize] = u32::try_from(local).expect("block fits u32 by MAX_CHAIN_BLOCK");
        }
        // Assemble A = I − Q over the block and the constant term from
        // downstream (already solved) components.
        let mut a = vec![0.0_f64; m * m];
        let mut b = vec![0.0_f64; m];
        let mut touches_infinite = false;
        for (local, &u) in members.iter().enumerate() {
            a[local * m + local] = 1.0;
            b[local] = cost;
            let Some(c) = pick[u as usize] else {
                // Absorbing in a transient component is impossible: a
                // choice-less state has no out edge, so its component is
                // bottom. Unreachable after the bottom check above.
                continue;
            };
            for br in art.branch_range(c) {
                let t = art.branch_target[br] as usize;
                let p = art.branch_prob[br];
                if scc.component[t] as usize == k {
                    a[local * m + pos[t] as usize] -= p;
                } else if values[t].is_infinite() {
                    touches_infinite = true;
                } else {
                    b[local] += p * values[t];
                }
            }
        }
        if kind == ValueKind::ExpectedCycles && touches_infinite {
            // Positive probability of entering an infinite-cost region,
            // reachable from every member of the strongly connected block.
            for &u in members {
                values[u as usize] = f64::INFINITY;
            }
            continue;
        }
        let unsolved = |state, residual| {
            vec![Violation::StrategyChainUnsolved {
                state,
                block: m,
                residual,
            }]
        };
        let rhs = b.clone();
        let x = solve_dense(&mut a, &mut b, m)
            .ok_or_else(|| unsolved(members[0] as usize, f64::INFINITY))?;
        for (local, &u) in members.iter().enumerate() {
            values[u as usize] = x[local];
        }
        // Re-check `(I − Q)x = b` row by row over the CSR branches.
        for (local, &u) in members.iter().enumerate() {
            let u = u as usize;
            let Some(c) = pick[u] else { continue };
            let mut lhs = values[u];
            for br in art.branch_range(c) {
                let t = art.branch_target[br] as usize;
                if scc.component[t] as usize == k {
                    lhs -= art.branch_prob[br] * values[t];
                }
            }
            let residual = (lhs - rhs[local]).abs();
            let solved = residual <= EVAL_RESIDUAL_TOLERANCE * (1.0 + rhs[local]); // false on NaN
            if !solved || (kind == ValueKind::ExpectedCycles && values[u] < 0.0) {
                return Err(unsolved(u, residual));
            }
        }
        if kind == ValueKind::Reachability {
            for &u in members {
                values[u as usize] = values[u as usize].clamp(0.0, 1.0); // rounding only
            }
        }
    }
    telemetry.add("audit.eval.largest_block", largest_block as u64);
    Ok(StrategyEvaluation {
        kind,
        values,
        largest_block,
    })
}

/// Checks a strategy's exact evaluation against the certified interval —
/// the only check in the crate that verifies the *strategy*, not just the
/// value vector. The value at the initial state must lie inside the
/// interval; the tolerance allows the extracted-greedy gap of an
/// `ε`-converged solve plus the verification slack. And the strategy must
/// be proper wherever some strategy is: an infinite `Rmin` value on a
/// `Prob1` state is [`Violation::StrategyImproper`]. (A loop inside
/// `Prob1` whose every choice re-enters it certifies as `[∞, ∞]`;
/// [`crate::verify_bounds`] rejects that certificate's `lo = ∞`, and this
/// check names the strategy at fault.)
#[must_use]
pub fn audit_strategy_value(
    art: &ModelArtifact,
    eval: &StrategyEvaluation,
    cert: &BoundsCertificate,
) -> Vec<Violation> {
    let mut violations = Vec::new();
    if eval.values.iter().any(|v| v.is_infinite()) {
        let p1 = prob1(art);
        let improper = (0..art.states).find(|&i| p1[i] && eval.values[i].is_infinite());
        violations.extend(improper.map(|state| Violation::StrategyImproper { state }));
    }
    let i = art.init;
    if cert.lo.len() != art.states || cert.hi.len() != art.states {
        return violations; // already reported by verify_bounds
    }
    let value = eval.values[i];
    let scale = if value.is_finite() { value.abs() } else { 0.0 };
    let tol = 2.0 * cert.epsilon + BOUNDS_SLACK + 1e-9 * scale;
    if !cert.contains(i, value, tol) {
        violations.push(Violation::StrategyValueOutsideBounds {
            value,
            lo: cert.lo[i],
            hi: cert.hi[i],
        });
    }
    violations
}

/// Solves `A x = b` in place by Gaussian elimination with partial
/// pivoting; `a` is row-major `m × m`. Returns `None` if a pivot is
/// (numerically) zero — impossible for `I − Q` of a transient block, whose
/// spectral radius is below 1, but checked rather than assumed.
fn solve_dense(a: &mut [f64], b: &mut [f64], m: usize) -> Option<Vec<f64>> {
    for col in 0..m {
        let mut pivot_row = col;
        let mut pivot_abs = a[col * m + col].abs();
        for row in col + 1..m {
            let v = a[row * m + col].abs();
            if v > pivot_abs {
                pivot_abs = v;
                pivot_row = row;
            }
        }
        if pivot_abs <= f64::MIN_POSITIVE {
            return None;
        }
        if pivot_row != col {
            for j in col..m {
                a.swap(col * m + j, pivot_row * m + j);
            }
            b.swap(col, pivot_row);
        }
        let pivot = a[col * m + col];
        for row in col + 1..m {
            let factor = a[row * m + col] / pivot;
            if factor == 0.0 {
                continue;
            }
            a[row * m + col] = 0.0;
            for j in col + 1..m {
                a[row * m + j] -= factor * a[col * m + j];
            }
            b[row] -= factor * b[col];
        }
    }
    let mut x = vec![0.0_f64; m];
    for row in (0..m).rev() {
        let mut acc = b[row];
        for j in row + 1..m {
            acc -= a[row * m + j] * x[j];
        }
        x[row] = acc / a[row * m + row];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use meda_core::Dir;

    fn east() -> Action {
        Action::Move(Dir::E)
    }

    /// The 3-state corridor of `lib.rs` tests: 0 →E→ 1 →E→ 2(goal) with
    /// 0.2 stay-in-place failure mass.
    fn corridor() -> ModelArtifact {
        let west = Action::Move(Dir::W);
        ModelArtifact {
            states: 3,
            init: 0,
            sink: None,
            goal_flags: vec![false, false, true],
            state_choice_start: vec![0, 1, 3, 3],
            choice_action: vec![east(), east(), west],
            choice_branch_start: vec![0, 2, 4, 6],
            branch_target: vec![1, 0, 2, 1, 0, 1],
            branch_prob: vec![0.8, 0.2, 0.8, 0.2, 0.8, 0.2],
        }
    }

    #[test]
    fn corridor_strategy_evaluates_exactly() {
        let art = corridor();
        let strat = vec![Some(east()), Some(east()), None];
        let reach = evaluate_strategy(&art, &strat, ValueKind::Reachability).expect("evaluates");
        for v in &reach.values[..2] {
            assert!((v - 1.0).abs() < 1e-12, "reach {v} != 1");
        }
        let cycles = evaluate_strategy(&art, &strat, ValueKind::ExpectedCycles).expect("evaluates");
        // Failed moves stay in place: v1 = 1 + 0.2 v1 and
        // v0 = 1 + 0.2 v0 + 0.8 v1 — exact solution v1 = 1.25, v0 = 2.5.
        assert!((cycles.values[1] - 1.25).abs() < 1e-12);
        assert!((cycles.values[0] - 2.5).abs() < 1e-12);
        assert_eq!(cycles.values[2], 0.0);
    }

    #[test]
    fn off_policy_detour_is_measured_not_assumed() {
        // Route state 1 west (back toward 0) instead of east: the chain
        // cycles 0 ↔ 1 forever with stay-failures — a non-goal bottom
        // class once the goal edge is gone.
        let art = corridor();
        let strat = vec![Some(east()), Some(Action::Move(Dir::W)), None];
        let reach = evaluate_strategy(&art, &strat, ValueKind::Reachability).expect("evaluates");
        assert_eq!(reach.values[0], 0.0);
        assert_eq!(reach.values[1], 0.0);
        let cycles = evaluate_strategy(&art, &strat, ValueKind::ExpectedCycles).expect("evaluates");
        assert!(cycles.values[0].is_infinite());
    }

    #[test]
    fn undecided_state_is_chain_absorbing() {
        let art = corridor();
        let strat = vec![None, Some(east()), None];
        let reach = evaluate_strategy(&art, &strat, ValueKind::Reachability).expect("evaluates");
        assert_eq!(reach.values[0], 0.0, "absorbing non-goal start");
        assert!((reach.values[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn invalid_action_is_reported() {
        let art = corridor();
        let strat = vec![Some(Action::Move(Dir::N)), Some(east()), None];
        let err = evaluate_strategy(&art, &strat, ValueKind::Reachability).unwrap_err();
        assert!(err
            .iter()
            .any(|v| matches!(v, Violation::StrategyInvalidAction { state: 0, .. })));
    }

    /// A three-state ring, each state staying put with 0.995 and stepping
    /// on otherwise; state 0 also leaks `exit` to the goal (state 3).
    fn leaky_ring(exit: f64) -> ModelArtifact {
        ModelArtifact {
            states: 4,
            init: 0,
            sink: None,
            goal_flags: vec![false, false, false, true],
            state_choice_start: vec![0, 1, 2, 3, 3],
            choice_action: vec![east(); 3],
            choice_branch_start: vec![0, 3, 5, 7],
            branch_target: vec![0, 1, 3, 1, 2, 2, 0],
            branch_prob: vec![0.995, 0.005 - exit, exit, 0.995, 0.005, 0.995, 0.005],
        }
    }

    #[test]
    fn an_ill_conditioned_cyclic_block_is_a_typed_failure() {
        let strat = vec![Some(east()), Some(east()), Some(east()), None];
        // Escape mass 1e-3: a fifth of the steps out of state 0 reach the
        // goal, each state waits 200 cycles per step, so
        // v0 = 200 + 0.8 (400 + v0) = 2,600.
        let fine = evaluate_strategy(&leaky_ring(1e-3), &strat, ValueKind::ExpectedCycles)
            .expect("a well-conditioned block evaluates");
        assert!((fine.values[0] - 2_600.0).abs() < 1e-9, "{:?}", fine.values);
        // Escape mass 1e-16 is below the resolution of 1 − 0.995: the
        // block is numerically singular and elimination returns garbage,
        // which must come back as a typed failure.
        let err =
            evaluate_strategy(&leaky_ring(1e-16), &strat, ValueKind::ExpectedCycles).unwrap_err();
        assert!(
            matches!(
                err[..],
                [Violation::StrategyChainUnsolved { block: 3, residual, .. }] if residual > 1e-3
            ),
            "{err:?}"
        );
    }

    #[test]
    fn dense_solver_handles_a_cyclic_block() {
        // 2x2 system from a two-state shuttle with goal leak 0.5 each:
        // x_a = 1 + 0.5 x_b, x_b = 1 + 0.5 x_a → x = 2 each.
        let mut a = vec![1.0, -0.5, -0.5, 1.0];
        let mut b = vec![1.0, 1.0];
        let x = solve_dense(&mut a, &mut b, 2).expect("nonsingular");
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }
}
