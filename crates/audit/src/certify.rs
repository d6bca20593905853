//! Bellman-residual certificates and strategy audits.
//!
//! A value-iteration result can be *checked* independently of how it was
//! produced: the certificate applies one exact backup of the claimed
//! Bellman operator `T` and reports `max_i |T(v)_i − v_i|` — a
//! Gauss–Seidel solve and a topological one take completely different
//! trajectories through value space and get the same residual.
//!
//! **Scope of the claim.** A small residual proves `v` is an
//! ε-*fixed-point* of `T`; it does **not** bound the distance to the true
//! value. The `Pmax` operator has one fixed point per end component the
//! process can linger in, so a vector can have residual exactly 0 and
//! still be arbitrarily wrong (Haddad–Monmège; see the `ec_trap` fixture
//! in `bounds.rs`). The residual certificate is a cheap consistency gate
//! — it catches corrupted vectors, mismatched operators, and divergent
//! solves. For a sound statement about the *value*, use a
//! [`crate::BoundsCertificate`] ([`crate::pmax_bounds`],
//! [`crate::strategy_bounds`]) that passes [`crate::verify_bounds`]: it
//! certifies `lo ≤ v* ≤ hi`.

use crate::{ModelArtifact, Violation};

/// Which Bellman operator a value vector claims to be a fixed point of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueKind {
    /// `Pmax[◇goal]` — maximal goal-reachability probability. Values lie
    /// in `[0, 1]`; goals are 1; the operator maximizes `Σ p·v` over
    /// choices (0 for states with none).
    Reachability,
    /// `Rmin[◇goal]` — minimum expected cycles to the goal. Goals are 0;
    /// states that cannot reach the goal almost surely are `∞`; the
    /// operator minimizes the self-loop-factored one-step equation
    /// `(1 + Σ_{j≠i} p_j·v_j) / (1 − p_self)` over choices whose
    /// successors are all finite.
    ExpectedCycles,
}

/// The outcome of a certificate check — see [`bellman_certificate`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Certificate {
    /// `max_i |T(v)_i − v_i|` over states where both sides are finite.
    pub max_residual: f64,
    /// State attaining [`Certificate::max_residual`], if any.
    pub worst_state: Option<usize>,
    /// States where exactly one of `v_i`, `T(v)_i` is infinite — a
    /// finite/infinite disagreement no residual can quantify.
    pub inconsistent: Vec<usize>,
    /// States whose value is NaN, or (for [`ValueKind::Reachability`])
    /// outside `[0, 1]` beyond tolerance.
    pub out_of_range: Vec<usize>,
}

impl Certificate {
    /// Whether the vector is an `epsilon`-fixed-point of the operator: the
    /// residual is within `epsilon` and there are no finite/infinite or
    /// range disagreements.
    ///
    /// This is a *consistency* property, **not** a value guarantee — an
    /// end-component fixed point passes with residual 0 while being far
    /// from the true value. Callers that need `|v − v*| ≤ ε` must check
    /// a verified [`crate::BoundsCertificate`] instead
    /// ([`crate::audit_solution_sound`]).
    #[must_use]
    pub fn certifies(&self, epsilon: f64) -> bool {
        self.max_residual <= epsilon && self.inconsistent.is_empty() && self.out_of_range.is_empty()
    }
}

/// Applies one exact Bellman backup of `kind` to `values` and reports the
/// residual. The artifact must have passed [`crate::audit_model`] — the
/// backup indexes the CSR arrays directly.
///
/// # Panics
///
/// Panics if `values.len()` differs from the artifact's state count; use
/// [`crate::audit_values`] for a non-panicking length check.
#[must_use]
pub fn bellman_certificate(art: &ModelArtifact, values: &[f64], kind: ValueKind) -> Certificate {
    assert_eq!(
        values.len(),
        art.states,
        "value vector does not match the artifact"
    );
    let mut cert = Certificate::default();
    let range_tol = 1e-9;
    for (i, &v) in values.iter().enumerate() {
        if v.is_nan() {
            cert.out_of_range.push(i);
            continue;
        }
        if kind == ValueKind::Reachability && !(-range_tol..=1.0 + range_tol).contains(&v) {
            cert.out_of_range.push(i);
            continue;
        }
        let t = backup(art, values, kind, i);
        match (v.is_infinite(), t.is_infinite()) {
            (false, false) => {
                let r = (t - v).abs();
                if r > cert.max_residual {
                    cert.max_residual = r;
                    cert.worst_state = Some(i);
                }
            }
            (true, true) => {}
            _ => cert.inconsistent.push(i),
        }
    }
    cert
}

/// One exact backup `T(v)_i` of the given operator. Also used by the
/// bounds pass as the plain (un-quotiented) operator for its pre-fixed
/// point check.
pub(crate) fn backup(art: &ModelArtifact, values: &[f64], kind: ValueKind, i: usize) -> f64 {
    if art.goal_flags[i] {
        return match kind {
            ValueKind::Reachability => 1.0,
            ValueKind::ExpectedCycles => 0.0,
        };
    }
    match kind {
        ValueKind::Reachability => {
            let mut best = 0.0_f64;
            for c in art.choice_range(i) {
                let mut sum = 0.0;
                for b in art.branch_range(c) {
                    sum += art.branch_prob[b] * values[art.branch_target[b] as usize];
                }
                best = best.max(sum);
            }
            best
        }
        ValueKind::ExpectedCycles => {
            let mut best = f64::INFINITY;
            'choices: for c in art.choice_range(i) {
                let mut p_self = 0.0;
                let mut rest = 0.0;
                for b in art.branch_range(c) {
                    let j = art.branch_target[b] as usize;
                    let p = art.branch_prob[b];
                    if j == i {
                        p_self += p;
                    } else if values[j].is_infinite() {
                        continue 'choices;
                    } else {
                        rest += p * values[j];
                    }
                }
                if p_self >= 1.0 - 1e-12 {
                    continue;
                }
                best = best.min((1.0 + rest) / (1.0 - p_self));
            }
            best
        }
    }
}

/// Length-checked wrapper around [`bellman_certificate`]: returns the
/// violations a value vector exhibits against the artifact, empty when the
/// vector is certified within `epsilon`.
#[must_use]
pub fn audit_values(
    art: &ModelArtifact,
    values: &[f64],
    kind: ValueKind,
    epsilon: f64,
) -> (Vec<Violation>, Certificate) {
    if values.len() != art.states {
        return (
            vec![Violation::ValueLength {
                expected: art.states,
                found: values.len(),
            }],
            Certificate::default(),
        );
    }
    let cert = bellman_certificate(art, values, kind);
    let mut violations = Vec::new();
    if !cert.certifies(epsilon) {
        violations.push(Violation::UncertifiedValues {
            max_residual: cert.max_residual,
            epsilon,
            worst_state: cert.worst_state,
            inconsistent: cert.inconsistent.len(),
            out_of_range: cert.out_of_range.len(),
        });
    }
    (violations, cert)
}
