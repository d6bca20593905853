//! Certified `[lo, hi]` value bounds (DESIGN.md §14): interval iteration
//! over the maximal-end-component quotient for `Pmax`, and the shipped
//! strategy's exact value for `Rmin`.
//!
//! The Bellman-residual certificate ([`crate::bellman_certificate`]) only
//! proves a vector is an ε-fixed-point — it says **nothing** about the
//! distance to the true value. The `Pmax` operator can have a whole family
//! of fixed points (one per end component the process can linger in;
//! Haddad & Monmège), so a solver can converge, residual-certify, and
//! still be arbitrarily wrong. This module computes *sound* bounds
//! instead:
//!
//! - `Pmax`: graph-only qualitative analysis pins the certain states
//!   (cannot-reach-goal → 0, almost-sure-reach → 1), the MEC
//!   decomposition from `meda-core` collapses every end component to one
//!   quotient state (in-component branches become analytically factored
//!   self-loops), and on the quotient the operator has a **unique** fixed
//!   point — so the 0-seeded ascent and 1-seeded descent converge to the
//!   same limit, squeezing `v*` inside `[lo, hi]`.
//!   Iteration stops when `hi − lo ≤ 2ε` everywhere.
//! - `Rmin`: no iteration. [`strategy_bounds`] reads the certificate off
//!   the exact value `v_π` of the strategy the solver ships
//!   ([`crate::evaluate_strategy`]): `[v_π·(1 − δ), v_π·(1 + δ)]`, `∞`
//!   kept as `∞`. Unit step costs make the `Prob1`-restricted operator's
//!   fixed point unique, so the two one-backup checks of [`verify_bounds`]
//!   decide it: `hi` is a pre-fixed point because `v_π` solves the
//!   strategy's own equations, and `lo` a post-fixed point only if no
//!   single-step deviation improves on `v_π` — that is, the strategy is
//!   optimal to within the verification slack. The one claim the backups
//!   cannot refute, `[∞, ∞]` on a loop inside `Prob1` whose every choice
//!   re-enters it, is rejected outright: the true value is finite on
//!   every `Prob1` state, so `lo = ∞` there is unsound. The solver's
//!   values are never read.
//!
//! Either way the certified width is at most `2ε`, so reporting the
//! midpoint is within `ε` of the truth — a claim about the *value*, not
//! the trajectory. [`verify_bounds`] re-checks a claimed certificate from
//! scratch via one monotone backup (Knaster–Tarski: a post-fixed point
//! bounds the least fixed point from below on the quotient, a pre-fixed
//! point bounds it from above), which is what the corruption corpus
//! attacks.

use meda_core::{mec_decomposition, Action, Dir, MecDecomposition, NO_MEC};

use crate::{ModelArtifact, StrategyEvaluation, ValueKind, Violation};

/// Absolute slack used when re-verifying a certificate's inequalities:
/// covers f64 rounding of the monotone backups without admitting any
/// mutation the corpus generates (those are ≥ 1e-3 off).
pub const BOUNDS_SLACK: f64 = 1e-7;

/// Iteration budget for [`pmax_bounds`] (matches the solver's default).
pub const BOUNDS_MAX_ITERATIONS: usize = 100_000;

/// Relative half-width of a [`strategy_bounds`] interval: `1e-9`,
/// narrowed to `ε / max v_π` on fields where that is smaller, so that the
/// widest interval stays at `2ε`.
const STRATEGY_HALF_WIDTH: f64 = 1e-9;

/// Sound per-state value bounds: `lo[i] ≤ v*(i) ≤ hi[i]` (up to f64
/// rounding of the monotone backups), produced by [`pmax_bounds`] or
/// [`strategy_bounds`] and re-checkable from scratch by [`verify_bounds`].
#[derive(Debug, Clone, PartialEq)]
pub struct BoundsCertificate {
    /// Operator the bounds certify.
    pub kind: ValueKind,
    /// Target half-width: the certificate claims `hi − lo ≤ 2ε`.
    pub epsilon: f64,
    /// Lower bound per state.
    pub lo: Vec<f64>,
    /// Upper bound per state (`∞` for `Rmin` states the strategy never
    /// takes to the goal).
    pub hi: Vec<f64>,
    /// Interval-iteration sweeps performed (each sweep advances both
    /// iterates once); 0 for a [`strategy_bounds`] certificate.
    pub iterations: usize,
    /// Whether the width target was met within the iteration budget.
    pub converged: bool,
    /// Largest finite `hi − lo` over the states at termination.
    pub width: f64,
    /// Number of maximal end components of the model (`Pmax` only).
    pub mecs: usize,
}

impl BoundsCertificate {
    /// The interval width at state `i`; two infinite endpoints agree
    /// exactly, so their width is 0.
    #[must_use]
    pub fn width_at(&self, i: usize) -> f64 {
        if self.lo[i].is_infinite() && self.hi[i].is_infinite() {
            0.0
        } else {
            self.hi[i] - self.lo[i]
        }
    }

    /// Whether `value` lies within `[lo − tol, hi + tol]` at state `i`.
    /// An infinite `value` needs an infinite upper bound.
    #[must_use]
    pub fn contains(&self, i: usize, value: f64, tol: f64) -> bool {
        if value.is_nan() {
            return false;
        }
        if value.is_infinite() {
            return self.hi[i].is_infinite();
        }
        self.lo[i] - tol <= value && value <= self.hi[i] + tol
    }
}

/// The `Rmin` certificate of a strategy's exact evaluation:
/// `[v·(1 − δ), v·(1 + δ)]` per state, `∞` kept as `∞`, with
/// `δ = min(1e-9, ε / max finite v)`. It passes [`verify_bounds`] only if
/// the strategy is optimal (see the module docs); nothing here checks
/// that.
#[must_use]
pub fn strategy_bounds(eval: &StrategyEvaluation, epsilon: f64) -> BoundsCertificate {
    let _span = meda_telemetry::global().span("audit.bounds");
    let finite = || eval.values.iter().filter(|v| v.is_finite());
    let delta = STRATEGY_HALF_WIDTH.min(epsilon / finite().fold(0.0_f64, |a, &v| a.max(v)));
    let (lo, hi): (Vec<f64>, Vec<f64>) = eval
        .values
        .iter()
        .map(|&v| (v * (1.0 - delta), v * (1.0 + delta)))
        .unzip();
    let width = finite().fold(0.0_f64, |a, &v| {
        a.max(v * (1.0 + delta) - v * (1.0 - delta))
    });
    BoundsCertificate {
        kind: eval.kind,
        epsilon,
        lo,
        hi,
        iterations: 0,
        converged: width <= 2.0 * epsilon,
        width,
        mecs: 0,
    }
}

/// Re-derives every soundness obligation of a claimed certificate from
/// scratch — qualitative sets, MEC quotient, and one monotone backup per
/// bound — so a corrupted `[lo, hi]` is caught even though it may be a
/// perfectly consistent-looking pair of vectors:
///
/// - both vectors sized, finite where required, `lo ≤ hi`;
/// - `Pmax`: the upper bound is a pre-fixed point of the plain operator
///   (`T(hi) ≤ hi` ⟹ `hi ≥ lfp = v*`), and the lower bound, projected
///   onto the MEC quotient, is a post-fixed point of the quotient
///   operator, whose fixed point is unique (`lo ≤ T_q(lo)` ⟹ `lo ≤ v*`);
/// - `Rmin`: `hi` must be `∞` exactly outside the `Prob1` set, and on it
///   `lo` must be finite and both bounds must satisfy the corresponding
///   inequality of the `Prob1`-restricted operator (unique fixed point
///   under unit costs);
/// - the final width must meet the `2ε` target.
#[must_use]
pub fn verify_bounds(art: &ModelArtifact, cert: &BoundsCertificate) -> Vec<Violation> {
    let n = art.states;
    let mut violations = Vec::new();
    for (which, v) in [("bounds.lo", &cert.lo), ("bounds.hi", &cert.hi)] {
        if v.len() != n {
            violations.push(Violation::BoundsLength {
                which,
                expected: n,
                found: v.len(),
            });
        }
    }
    if !violations.is_empty() {
        return violations;
    }
    for i in 0..n {
        let (lo, hi) = (cert.lo[i], cert.hi[i]);
        for v in [lo, hi] {
            let bad = v.is_nan()
                || match cert.kind {
                    ValueKind::Reachability => !(-BOUNDS_SLACK..=1.0 + BOUNDS_SLACK).contains(&v),
                    ValueKind::ExpectedCycles => v < -BOUNDS_SLACK,
                };
            if bad {
                violations.push(Violation::BoundOutOfRange { state: i, value: v });
            }
        }
        let slack = crossing_slack(lo, hi);
        if !(lo.is_infinite() && hi.is_infinite()) && lo > hi + slack {
            violations.push(Violation::BoundsCrossed { state: i, lo, hi });
        }
    }
    if !violations.is_empty() {
        return violations;
    }
    match cert.kind {
        ValueKind::Reachability => verify_pmax(art, cert, &mut violations),
        ValueKind::ExpectedCycles => verify_rmin(art, cert, &mut violations),
    }
    let width = (0..n).map(|i| cert.width_at(i)).fold(0.0_f64, f64::max);
    // NaN widths must also trip the violation, hence the explicit is_nan arm.
    if width.is_nan() || width > 2.0 * cert.epsilon + BOUNDS_SLACK {
        violations.push(Violation::BoundsNotConverged {
            width,
            epsilon: cert.epsilon,
        });
    }
    violations
}

/// Checks that a value vector lies inside the certified interval at every
/// state — the differential obligation between the (fast, unsound on its
/// own) solver and the (sound) bounds pass.
#[must_use]
pub fn bracket_violations(cert: &BoundsCertificate, values: &[f64], tol: f64) -> Vec<Violation> {
    if values.len() != cert.lo.len() || cert.lo.len() != cert.hi.len() {
        return vec![Violation::ValueLength {
            expected: cert.lo.len(),
            found: values.len(),
        }];
    }
    values
        .iter()
        .enumerate()
        .filter(|&(i, &v)| {
            let scale = if v.is_finite() { v.abs() } else { 0.0 };
            !cert.contains(i, v, tol + 1e-9 * scale)
        })
        .map(|(i, &v)| Violation::ValueOutsideBounds {
            state: i,
            value: v,
            lo: cert.lo[i],
            hi: cert.hi[i],
        })
        .collect()
}

fn crossing_slack(lo: f64, hi: f64) -> f64 {
    let scale = [lo, hi]
        .into_iter()
        .filter(|v| v.is_finite())
        .fold(0.0_f64, |a, v| a.max(v.abs()));
    BOUNDS_SLACK + 1e-9 * scale
}

// ---------------------------------------------------------------------------
// Qualitative (graph-only) analyses.
// ---------------------------------------------------------------------------

/// The predecessor lists of the branch relation in CSR form: the
/// distinct sources `s ≠ t` with a branch into `t` span
/// `pred[start[t]..start[t + 1]]`, in increasing order. Counted first, so
/// both arrays are allocated at their exact size.
fn predecessors(art: &ModelArtifact) -> (Vec<u32>, Vec<u32>) {
    let n = art.states;
    // The walk visits sources in increasing order, so a repeated
    // `(source, t)` edge arrives while `last[t]` — the latest source
    // recorded for `t` — still holds that source.
    let mut last = vec![u32::MAX; n];
    let mut start = vec![0u32; n + 1];
    let mut edges = |visit: &mut dyn FnMut(usize, u32)| {
        for i in 0..n {
            let src = u32::try_from(i).expect("state index exceeds the u32 address space");
            for c in art.choice_range(i) {
                for b in art.branch_range(c) {
                    let t = art.branch_target[b] as usize;
                    if t != i && last[t] != src {
                        last[t] = src;
                        visit(t, src);
                    }
                }
            }
        }
        last.fill(u32::MAX);
    };
    edges(&mut |t, _| start[t + 1] += 1);
    for k in 1..=n {
        start[k] += start[k - 1];
    }
    let mut cursor = start.clone();
    let mut pred = vec![0u32; start[n] as usize];
    edges(&mut |t, src| {
        pred[cursor[t] as usize] = src;
        cursor[t] += 1;
    });
    (start, pred)
}

/// States from which some path reaches a goal state — backward BFS over
/// the predecessor lists. The complement is the exact `Pmax = 0` set.
fn can_reach_goal(art: &ModelArtifact) -> Vec<bool> {
    let (start, pred) = predecessors(art);
    let mut reach = art.goal_flags.clone();
    let mut queue: Vec<usize> = (0..art.states).filter(|&i| reach[i]).collect();
    while let Some(t) = queue.pop() {
        for &s in &pred[start[t] as usize..start[t + 1] as usize] {
            if !reach[s as usize] {
                reach[s as usize] = true;
                queue.push(s as usize);
            }
        }
    }
    reach
}

/// The `Prob1` set — states with a strategy reaching the goal almost
/// surely — by the standard greatest/least double fixed point: a state
/// joins the inner set once some choice keeps all its branches inside the
/// outer set and reaches a state that joined earlier with positive
/// probability.
///
/// Returns the membership flags. The artifact must have passed
/// [`crate::audit_model`].
#[must_use]
pub fn prob1(art: &ModelArtifact) -> Vec<bool> {
    let n = art.states;
    let (pred_start, pred) = predecessors(art);
    let mut checks = 0u64;
    let mut u = vec![true; n];
    loop {
        let mut v = art.goal_flags.clone();
        // A check reads `u` (fixed for this inner fixed point) and `v` at
        // the state's successors, so a state that failed stays failed
        // until one of its successors joins `v`: only `dirty` states are
        // re-checked. Passes still run in index order, so every state
        // joins in the same pass as under a full re-check.
        let mut dirty = vec![true; n];
        loop {
            let mut changed = false;
            for i in 0..n {
                if !std::mem::take(&mut dirty[i]) || v[i] || !u[i] {
                    continue;
                }
                checks += 1;
                if !has_progress_choice(art, &u, &v, i) {
                    continue;
                }
                v[i] = true;
                changed = true;
                for &p in &pred[pred_start[i] as usize..pred_start[i + 1] as usize] {
                    dirty[p as usize] = true;
                }
            }
            if !changed {
                break;
            }
        }
        if v == u {
            meda_telemetry::global().add("audit.prob1.checks", checks);
            return v;
        }
        u = v;
    }
}

/// Whether some choice of state `i` has all its branches in `u` and one
/// of them in `v` — the step of the `Prob1` inner fixed point.
fn has_progress_choice(art: &ModelArtifact, u: &[bool], v: &[bool], i: usize) -> bool {
    art.choice_range(i).any(|c| {
        let mut some_in_v = false;
        for b in art.branch_range(c) {
            let t = art.branch_target[b] as usize;
            if !u[t] {
                return false;
            }
            some_in_v |= v[t];
        }
        some_in_v
    })
}

// ---------------------------------------------------------------------------
// Pmax: interval iteration on the MEC quotient.
// ---------------------------------------------------------------------------

/// Quotient bookkeeping: non-MEC states are singleton quotient states,
/// every MEC collapses to one. `pin` fixes the quotient states decided by
/// the qualitative analyses; only unpinned ones iterate.
struct PmaxQuotient {
    q_of: Vec<u32>,
    q_start: Vec<u32>,
    q_members: Vec<u32>,
    pin: Vec<Option<f64>>,
}

fn pmax_quotient(art: &ModelArtifact, mec: &MecDecomposition) -> PmaxQuotient {
    let n = art.states;
    let mut q_of = vec![0u32; n];
    let mut mec_q = vec![NO_MEC; mec.mecs()];
    let mut q_count = 0u32;
    for (i, q) in q_of.iter_mut().enumerate() {
        let m = mec.mec_of[i];
        if m == NO_MEC {
            *q = q_count;
            q_count += 1;
        } else if mec_q[m as usize] == NO_MEC {
            mec_q[m as usize] = q_count;
            *q = q_count;
            q_count += 1;
        } else {
            *q = mec_q[m as usize];
        }
    }
    let qn = q_count as usize;
    let mut q_start = vec![0u32; qn + 1];
    for &q in &q_of {
        q_start[q as usize + 1] += 1;
    }
    for k in 1..=qn {
        q_start[k] += q_start[k - 1];
    }
    let mut cursor = q_start.clone();
    let mut q_members = vec![0u32; n];
    for (i, &q) in q_of.iter().enumerate() {
        q_members[cursor[q as usize] as usize] =
            u32::try_from(i).expect("state index exceeds the u32 address space");
        cursor[q as usize] += 1;
    }
    // Qualitative pins: Pmax, being constant within a MEC (members are
    // mutually almost-surely reachable), is well-defined per quotient
    // state — derive it from the first member.
    let reach = can_reach_goal(art);
    let p1 = prob1(art);
    let mut pin = vec![None; qn];
    for (q, p) in pin.iter_mut().enumerate() {
        let first = q_members[q_start[q] as usize] as usize;
        if art.goal_flags[first] || p1[first] {
            *p = Some(1.0);
        } else if !reach[first] {
            *p = Some(0.0);
        }
    }
    PmaxQuotient {
        q_of,
        q_start,
        q_members,
        pin,
    }
}

/// One quotient backup of the `Pmax` operator at quotient state `q`,
/// evaluated simultaneously on both iterate vectors. Exiting choices only
/// (in-MEC choices are self-loops on the quotient and carry no
/// information); mass staying inside the quotient state is factored
/// analytically. A choice whose factored denominator vanishes to f64 zero
/// contributes the conservative `(0, 1)` pair.
fn pmax_quotient_backup(
    art: &ModelArtifact,
    mec: &MecDecomposition,
    quot: &PmaxQuotient,
    lo: &[f64],
    hi: &[f64],
    q: usize,
) -> (f64, f64) {
    let mut best_lo = 0.0_f64;
    let mut best_hi = 0.0_f64;
    let members = &quot.q_members[quot.q_start[q] as usize..quot.q_start[q + 1] as usize];
    for &i in members {
        let i = i as usize;
        for c in art.choice_range(i) {
            if mec.internal_choice[c] {
                continue;
            }
            let mut p_self = 0.0_f64;
            let mut sum_lo = 0.0_f64;
            let mut sum_hi = 0.0_f64;
            for b in art.branch_range(c) {
                let t = art.branch_target[b] as usize;
                let p = art.branch_prob[b];
                let qt = quot.q_of[t] as usize;
                if qt == q {
                    p_self += p;
                } else {
                    sum_lo += p * lo[qt];
                    sum_hi += p * hi[qt];
                }
            }
            let denom = 1.0 - p_self;
            let (vl, vh) = if denom <= 1e-12 {
                (0.0, 1.0)
            } else {
                (
                    (sum_lo / denom).clamp(0.0, 1.0),
                    (sum_hi / denom).clamp(0.0, 1.0),
                )
            };
            best_lo = best_lo.max(vl);
            best_hi = best_hi.max(vh);
        }
    }
    (best_lo, best_hi)
}

/// Computes a sound `Pmax` [`BoundsCertificate`] for the artifact by
/// interval iteration on the MEC quotient (see the module docs).
///
/// The artifact must have passed [`crate::audit_model`] — the qualitative
/// analyses and sweeps index the CSR arrays directly.
#[must_use]
pub fn pmax_bounds(art: &ModelArtifact, epsilon: f64, max_iterations: usize) -> BoundsCertificate {
    let telemetry = meda_telemetry::global();
    let _span = telemetry.span("audit.bounds");
    let mec = {
        let _mec_span = telemetry.span("audit.bounds.mec");
        mec_decomposition(
            &art.state_choice_start,
            &art.choice_branch_start,
            &art.branch_target,
        )
    };
    telemetry.add("audit.bounds.mecs", mec.mecs() as u64);
    let quot = pmax_quotient(art, &mec);
    let qn = quot.pin.len();
    let mut lo: Vec<f64> = quot.pin.iter().map(|p| p.unwrap_or(0.0)).collect();
    let mut hi: Vec<f64> = quot.pin.iter().map(|p| p.unwrap_or(1.0)).collect();
    let mut iterations = 0usize;
    let mut converged = false;
    let mut width = (0..qn)
        .filter(|&q| quot.pin[q].is_none())
        .map(|q| hi[q] - lo[q])
        .fold(0.0_f64, f64::max);
    if width <= 2.0 * epsilon {
        converged = true;
    }
    while !converged && iterations < max_iterations {
        iterations += 1;
        width = 0.0;
        for q in 0..qn {
            if quot.pin[q].is_some() {
                continue;
            }
            let (vl, vh) = pmax_quotient_backup(art, &mec, &quot, &lo, &hi, q);
            // Enforce monotone trajectories (sound: both new values are
            // valid bounds, and so were the old ones).
            lo[q] = lo[q].max(vl);
            hi[q] = hi[q].min(vh);
            width = width.max(hi[q] - lo[q]);
        }
        if width <= 2.0 * epsilon {
            converged = true;
        }
    }
    let unpinned = quot.pin.iter().filter(|p| p.is_none()).count();
    telemetry.add("audit.bounds.backups", (iterations * unpinned) as u64);
    telemetry.add("audit.bounds.iterations", iterations as u64);
    let lo_states: Vec<f64> = quot.q_of.iter().map(|&q| lo[q as usize]).collect();
    let hi_states: Vec<f64> = quot.q_of.iter().map(|&q| hi[q as usize]).collect();
    BoundsCertificate {
        kind: ValueKind::Reachability,
        epsilon,
        lo: lo_states,
        hi: hi_states,
        iterations,
        converged,
        width,
        mecs: mec.mecs(),
    }
}

fn verify_pmax(art: &ModelArtifact, cert: &BoundsCertificate, violations: &mut Vec<Violation>) {
    let n = art.states;
    // Upper bound: pre-fixed point of the plain operator on the original
    // graph — Knaster–Tarski gives `hi ≥ lfp = v*` directly.
    for i in 0..n {
        let t = crate::certify::backup(art, &cert.hi, ValueKind::Reachability, i);
        if t > cert.hi[i] + BOUNDS_SLACK {
            violations.push(Violation::BoundUnsound {
                upper: true,
                state: i,
                value: cert.hi[i],
                backup: t,
            });
        }
    }
    // Lower bound: post-fixed point on the MEC quotient, where the fixed
    // point is unique. Project by the tightest (largest) member value so a
    // per-state bound is covered by the quotient claim.
    let mec = mec_decomposition(
        &art.state_choice_start,
        &art.choice_branch_start,
        &art.branch_target,
    );
    let quot = pmax_quotient(art, &mec);
    let qn = quot.pin.len();
    let mut qlo = vec![0.0_f64; qn];
    for (i, &q) in quot.q_of.iter().enumerate() {
        qlo[q as usize] = qlo[q as usize].max(cert.lo[i]);
    }
    for q in 0..qn {
        let first = quot.q_members[quot.q_start[q] as usize] as usize;
        let t = if art.goal_flags[first] {
            1.0
        } else {
            // Under-approximating backup: vanished denominators contribute
            // 0, so acceptance is never granted generously.
            let mut best = 0.0_f64;
            let members = &quot.q_members[quot.q_start[q] as usize..quot.q_start[q + 1] as usize];
            for &i in members {
                let i = i as usize;
                for c in art.choice_range(i) {
                    if mec.internal_choice[c] {
                        continue;
                    }
                    let mut p_self = 0.0_f64;
                    let mut sum = 0.0_f64;
                    for b in art.branch_range(c) {
                        let t = art.branch_target[b] as usize;
                        let p = art.branch_prob[b];
                        if quot.q_of[t] as usize == q {
                            p_self += p;
                        } else {
                            sum += p * qlo[quot.q_of[t] as usize];
                        }
                    }
                    let denom = 1.0 - p_self;
                    if denom > 0.0 {
                        best = best.max(sum / denom);
                    }
                }
            }
            best
        };
        if qlo[q] > t + BOUNDS_SLACK {
            let worst = quot.q_members[quot.q_start[q] as usize..quot.q_start[q + 1] as usize]
                .iter()
                .map(|&i| i as usize)
                .max_by(|&a, &b| cert.lo[a].total_cmp(&cert.lo[b]))
                .unwrap_or(first);
            violations.push(Violation::BoundUnsound {
                upper: false,
                state: worst,
                value: qlo[q],
                backup: t,
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Rmin: one-backup checks on the Prob1-restricted domain.
// ---------------------------------------------------------------------------

/// The `Rmin` backup restricted to choices whose branches all stay inside
/// the `Prob1` set, with the self-loop mass factored analytically. Reads
/// `values` only at `Prob1` states. Returns `∞` when no restricted choice
/// remains or every denominator vanishes.
fn rmin_restricted_backup(art: &ModelArtifact, p1: &[bool], values: &[f64], i: usize) -> f64 {
    if art.goal_flags[i] {
        return 0.0;
    }
    let mut best = f64::INFINITY;
    'choices: for c in art.choice_range(i) {
        let mut p_self = 0.0_f64;
        let mut rest = 0.0_f64;
        for b in art.branch_range(c) {
            let t = art.branch_target[b] as usize;
            let p = art.branch_prob[b];
            if !p1[t] {
                continue 'choices;
            }
            if t == i {
                p_self += p;
            } else {
                rest += p * values[t];
            }
        }
        let denom = 1.0 - p_self;
        if denom > 0.0 {
            best = best.min((1.0 + rest) / denom);
        }
    }
    best
}

fn verify_rmin(art: &ModelArtifact, cert: &BoundsCertificate, violations: &mut Vec<Violation>) {
    let n = art.states;
    let p1 = prob1(art);
    for i in 0..n {
        if !p1[i] {
            // No almost-surely-reaching strategy exists: the true value is
            // ∞, so any finite upper bound under-claims it.
            if cert.hi[i].is_finite() {
                violations.push(Violation::BoundUnsound {
                    upper: true,
                    state: i,
                    value: cert.hi[i],
                    backup: f64::INFINITY,
                });
            }
            continue;
        }
        let slack = |v: f64| BOUNDS_SLACK + 1e-9 * if v.is_finite() { v.abs() } else { 0.0 };
        let t_hi = rmin_restricted_backup(art, &p1, &cert.hi, i);
        if t_hi > cert.hi[i] + slack(cert.hi[i]) {
            violations.push(Violation::BoundUnsound {
                upper: true,
                state: i,
                value: cert.hi[i],
                backup: t_hi,
            });
        }
        let t_lo = rmin_restricted_backup(art, &p1, &cert.lo, i);
        // The true value is finite on every `Prob1` state, so `lo = ∞`
        // over-claims it even where the backup cannot refute it: on a
        // loop inside `Prob1` whose every choice re-enters it, the backup
        // of `∞` is `∞` again.
        if cert.lo[i].is_infinite() || cert.lo[i] > t_lo + slack(cert.lo[i]) {
            violations.push(Violation::BoundUnsound {
                upper: false,
                state: i,
                value: cert.lo[i],
                backup: t_lo,
            });
        }
    }
}

/// The packaged unsoundness demonstration replayed by `meda audit
/// selftest-unsound` and the CI `audit-sound-selftest` stage.
///
/// Returns the end-component trap (Haddad–Monmège flavor): states 0 and 1
/// can shuttle probability between themselves forever, and state 1 can
/// also gamble 50/50 between the goal (2) and a dead state (3). True
/// `Pmax` is 0.5 from 0 and 1, but **any** constant `v0 = v1 = c ≥ 0.5`
/// is an *exact* fixed point of the plain operator — residual 0 — because
/// the shuttle end component reproduces whatever value it is assigned.
///
/// The returned value vector `(0.9, 0.9, 1, 0)` therefore passes
/// [`crate::bellman_certificate`] while sitting 0.4 above the truth, and
/// the returned strategy is greedy with respect to those bogus values (at
/// state 1 the shuttle backs up 0.9 while the gamble backs up 0.5), so it
/// loops forever and never reaches the goal. The plain
/// [`crate::audit_solution`] accepts the whole solution;
/// [`crate::audit_solution_sound`] must reject both the values and the
/// strategy.
#[must_use]
pub fn unsound_vi_fixture() -> (ModelArtifact, Vec<f64>, Vec<Option<Action>>) {
    let artifact = ModelArtifact {
        states: 4,
        init: 0,
        // State 3 is the dead side of the gamble: absorbing, non-goal,
        // declared as the sink so the structural audit stays clean.
        sink: Some(3),
        goal_flags: vec![false, false, true, false],
        // state 0: one choice {0.5→1, 0.5→0}; state 1: shuttle
        // {0.5→0, 0.5→1} and gamble {0.5→2, 0.5→3}; 2 goal, 3 dead.
        state_choice_start: vec![0, 1, 3, 3, 3],
        choice_action: vec![
            Action::Move(Dir::E),
            Action::Move(Dir::W),
            Action::Move(Dir::N),
        ],
        choice_branch_start: vec![0, 2, 4, 6],
        branch_target: vec![1, 0, 0, 1, 2, 3],
        branch_prob: vec![0.5; 6],
    };
    let bogus_values = vec![0.9, 0.9, 1.0, 0.0];
    let bogus_strategy = vec![
        Some(Action::Move(Dir::E)),
        Some(Action::Move(Dir::W)),
        None,
        None,
    ];
    (artifact, bogus_values, bogus_strategy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{evaluate_strategy, CERTIFICATE_EPSILON};
    use meda_check::{
        boolean, cases_from_env, check, choose_u32, choose_usize, default_corpus_dir, f64_range,
        vec_of, weighted, Config, Gen,
    };

    /// The full-pass `Prob1` that [`prob1`] replaced: every inner pass
    /// re-checks every candidate state.
    fn reference_prob1(art: &ModelArtifact) -> Vec<bool> {
        let n = art.states;
        let mut u = vec![true; n];
        loop {
            let mut v = vec![false; n];
            for (i, &goal) in art.goal_flags.iter().enumerate() {
                if goal {
                    v[i] = true;
                }
            }
            loop {
                let mut changed = false;
                for i in 0..n {
                    if v[i] || !u[i] {
                        continue;
                    }
                    for c in art.choice_range(i) {
                        let mut all_in_u = true;
                        let mut some_in_v = false;
                        for b in art.branch_range(c) {
                            let t = art.branch_target[b] as usize;
                            if !u[t] {
                                all_in_u = false;
                                break;
                            }
                            if v[t] {
                                some_in_v = true;
                            }
                        }
                        if all_in_u && some_in_v {
                            v[i] = true;
                            changed = true;
                            break;
                        }
                    }
                }
                if !changed {
                    break;
                }
            }
            if v == u {
                return v;
            }
            u = v;
        }
    }

    /// Builds an artifact from per-state choice lists of `(target,
    /// weight)` branches, weights normalized per choice. Goal states keep
    /// no choices (they are absorbing).
    fn artifact(goal_flags: Vec<bool>, choices: &[Vec<Vec<(u32, f64)>>]) -> ModelArtifact {
        let mut art = ModelArtifact {
            states: goal_flags.len(),
            init: 0,
            sink: None,
            goal_flags,
            state_choice_start: vec![0],
            choice_action: Vec::new(),
            choice_branch_start: vec![0],
            branch_target: Vec::new(),
            branch_prob: Vec::new(),
        };
        for (i, state) in choices.iter().enumerate() {
            if !art.goal_flags[i] {
                for choice in state {
                    let total: f64 = choice.iter().map(|&(_, w)| w).sum();
                    for &(t, w) in choice {
                        art.branch_target.push(t);
                        art.branch_prob.push(w / total);
                    }
                    art.choice_action.push(east());
                    art.choice_branch_start.push(art.branch_target.len() as u32);
                }
            }
            art.state_choice_start.push(art.choice_action.len() as u32);
        }
        art
    }

    /// Small random models: 1–9 states, about one in five a goal, up to
    /// three choices of 1–3 branches each (self-loops, repeated targets,
    /// all-self choices and goal-less models included).
    fn small_model() -> Gen<ModelArtifact> {
        choose_usize(1, 9).flat_map(|&n| {
            let branch = choose_u32(0, n as u32 - 1).zip(f64_range(0.05, 1.0));
            let choice = vec_of(branch, 1, 3);
            let goal = weighted(vec![(4, Gen::constant(false)), (1, boolean())]);
            vec_of(goal.zip(vec_of(choice, 0, 3)), n, n).map(|states| {
                let goals = states.iter().map(|(g, _)| *g).collect();
                let choices: Vec<_> = states.iter().map(|(_, c)| c.clone()).collect();
                artifact(goals, &choices)
            })
        })
    }

    #[test]
    fn dirty_prob1_matches_the_full_pass_reference() {
        let config = Config::default()
            .with_cases(cases_from_env(256))
            .with_corpus(default_corpus_dir());
        check("audit-prob1-dirty", &config, &small_model(), |art| {
            let (new, old) = (prob1(art), reference_prob1(art));
            if new == old {
                Ok(())
            } else {
                Err(format!("prob1 {new:?} != reference {old:?}"))
            }
        });
    }

    fn east() -> Action {
        Action::Move(Dir::E)
    }

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

    /// The `Rmin` certificate of the corridor's east-east strategy.
    fn corridor_rmin_certificate(art: &ModelArtifact) -> BoundsCertificate {
        let strategy = [Some(east()), Some(east()), None];
        let eval = evaluate_strategy(art, &strategy, ValueKind::ExpectedCycles)
            .expect("the corridor strategy evaluates");
        strategy_bounds(&eval, CERTIFICATE_EPSILON)
    }

    fn ec_trap() -> ModelArtifact {
        unsound_vi_fixture().0
    }

    #[test]
    fn corridor_pmax_bounds_converge_to_one() {
        let art = corridor();
        let cert = pmax_bounds(&art, CERTIFICATE_EPSILON, BOUNDS_MAX_ITERATIONS);
        assert!(cert.converged, "width {}", cert.width);
        for i in 0..3 {
            assert!(cert.lo[i] > 1.0 - 1e-9, "lo[{i}] = {}", cert.lo[i]);
            assert!((cert.hi[i] - 1.0).abs() < 1e-9);
        }
        assert!(verify_bounds(&art, &cert).is_empty());
    }

    #[test]
    fn corridor_rmin_bounds_bracket_the_exact_value() {
        let art = corridor();
        let cert = corridor_rmin_certificate(&art);
        assert!(cert.converged);
        assert!(
            cert.lo[0] <= 2.5 && 2.5 <= cert.hi[0],
            "[{}, {}]",
            cert.lo[0],
            cert.hi[0]
        );
        assert!(cert.lo[1] <= 1.25 && 1.25 <= cert.hi[1]);
        assert!(cert.width <= 2.0 * CERTIFICATE_EPSILON);
        assert!(verify_bounds(&art, &cert).is_empty());
    }

    #[test]
    fn ec_trap_bounds_find_the_true_half() {
        let art = ec_trap();
        let cert = pmax_bounds(&art, CERTIFICATE_EPSILON, BOUNDS_MAX_ITERATIONS);
        assert!(cert.converged);
        assert!(cert.mecs >= 1, "the shuttle must be detected as a MEC");
        assert!(
            cert.contains(0, 0.5, 1e-9),
            "[{}, {}]",
            cert.lo[0],
            cert.hi[0]
        );
        assert!(cert.hi[0] < 0.5 + 1e-6);
        assert!(verify_bounds(&art, &cert).is_empty());
    }

    #[test]
    fn ec_trap_spurious_fixed_point_certifies_residual_but_fails_bounds() {
        // The unsoundness demonstration the CI self-test stage replays:
        // v = (0.9, 0.9, 1, 0) has residual 0 — the plain certificate
        // accepts it — yet it is 0.4 above the truth. The sound pass must
        // reject it as a claimed certificate and as a bracketed value.
        let art = ec_trap();
        let bogus = vec![0.9, 0.9, 1.0, 0.0];
        let residual = crate::bellman_certificate(&art, &bogus, ValueKind::Reachability);
        assert!(
            residual.certifies(CERTIFICATE_EPSILON),
            "the residual certificate is fooled by the EC fixed point"
        );
        let cert = pmax_bounds(&art, CERTIFICATE_EPSILON, BOUNDS_MAX_ITERATIONS);
        let bracket = bracket_violations(&cert, &bogus, CERTIFICATE_EPSILON);
        assert!(
            bracket
                .iter()
                .any(|v| matches!(v, Violation::ValueOutsideBounds { .. })),
            "sound bounds must reject the spurious fixed point"
        );
        // And a forged certificate claiming [0.9, 0.9] as a lower bound is
        // caught by the quotient post-fixed-point check.
        let mut forged = cert.clone();
        forged.lo[0] = 0.9;
        forged.lo[1] = 0.9;
        forged.hi[0] = 0.9;
        forged.hi[1] = 0.9;
        assert!(verify_bounds(&art, &forged)
            .iter()
            .any(|v| matches!(v, Violation::BoundUnsound { upper: false, .. })));
    }

    #[test]
    fn rmin_hopeless_states_get_infinite_bounds() {
        // Cut the corridor's goal edge: state 1's east now stays forever.
        let mut art = corridor();
        art.branch_target[2] = 1;
        art.branch_prob[2] = 0.8;
        let cert = corridor_rmin_certificate(&art);
        assert!(cert.lo[0].is_infinite() && cert.hi[0].is_infinite());
        assert_eq!(cert.width_at(0), 0.0);
    }

    #[test]
    fn forged_rmin_bounds_are_rejected() {
        let art = corridor();
        let cert = corridor_rmin_certificate(&art);
        assert!(verify_bounds(&art, &cert).is_empty());

        let mut inflated = cert.clone();
        inflated.lo[0] += 0.5; // claims the strategy needs more cycles
        inflated.hi[0] += 0.5;
        assert!(verify_bounds(&art, &inflated)
            .iter()
            .any(|v| matches!(v, Violation::BoundUnsound { upper: false, .. })));

        let mut deflated = cert.clone();
        deflated.lo[0] -= 0.5;
        deflated.hi[0] -= 0.5; // claims the strategy is cheaper than possible
        assert!(verify_bounds(&art, &deflated)
            .iter()
            .any(|v| matches!(v, Violation::BoundUnsound { upper: true, .. })));

        let mut crossed = cert.clone();
        crossed.lo[0] = crossed.hi[0] + 1.0;
        assert!(verify_bounds(&art, &crossed)
            .iter()
            .any(|v| matches!(v, Violation::BoundsCrossed { .. })));
    }
}
