//! Violation and report types shared by every audit pass.

use std::fmt;

use meda_core::Action;

/// One well-formedness violation found by the auditor.
///
/// Variants carry enough context to locate the defect without re-running
/// the audit; `Display` renders a one-line human-readable description.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// An artifact array has the wrong length relative to its companions
    /// (e.g. `state_choice_start` is not `states + 1` entries).
    ArrayLength {
        /// Name of the offending array.
        array: &'static str,
        /// Length the structure requires.
        expected: usize,
        /// Length actually found.
        found: usize,
    },
    /// A CSR offset array decreases, so a row would have negative extent.
    NonMonotoneOffsets {
        /// Name of the offset array.
        array: &'static str,
        /// Index at which the decrease occurs.
        index: usize,
        /// Offset preceding the decrease.
        prev: u32,
        /// The decreased offset.
        found: u32,
    },
    /// A CSR offset points past the end of the array it indexes into.
    OffsetOutOfRange {
        /// Name of the offset array.
        array: &'static str,
        /// Index of the out-of-range offset.
        index: usize,
        /// The offset value.
        found: u32,
        /// Exclusive upper bound the offset must respect.
        limit: usize,
    },
    /// A branch's successor index is not a valid state.
    DanglingTarget {
        /// Flat branch index.
        branch: usize,
        /// The invalid successor index.
        target: u32,
        /// Number of states in the artifact.
        states: usize,
    },
    /// A choice has an empty outcome distribution.
    EmptyBranch {
        /// Flat choice index.
        choice: usize,
        /// State owning the choice.
        state: usize,
    },
    /// A branch probability is NaN, non-positive, or above 1.
    BadProbability {
        /// Flat branch index.
        branch: usize,
        /// State owning the branch.
        state: usize,
        /// The offending probability.
        prob: f64,
    },
    /// A choice's outcome probabilities do not sum to 1 within tolerance.
    MassMismatch {
        /// Flat choice index.
        choice: usize,
        /// State owning the choice.
        state: usize,
        /// The distribution's actual mass.
        sum: f64,
    },
    /// A goal state has outgoing choices — goals must be absorbing.
    GoalNotAbsorbing {
        /// The goal state.
        state: usize,
        /// Number of choices it carries.
        choices: usize,
    },
    /// The hazard sink is flagged as a goal state.
    SinkIsGoal {
        /// The sink state.
        state: usize,
    },
    /// The hazard sink has outgoing choices — it must be absorbing.
    SinkNotAbsorbing {
        /// The sink state.
        state: usize,
        /// Number of choices it carries.
        choices: usize,
    },
    /// The hazard sink index is out of range.
    SinkOutOfRange {
        /// The sink index.
        sink: usize,
        /// Number of states.
        states: usize,
    },
    /// The initial state index is out of range.
    InitOutOfRange {
        /// The initial index.
        init: usize,
        /// Number of states.
        states: usize,
    },
    /// A state cannot be reached from the initial state — BFS construction
    /// never emits these, so their presence indicates corruption.
    UnreachableState {
        /// The unreachable state.
        state: usize,
    },
    /// A reachable non-goal, non-sink state with no choices: the droplet
    /// would deadlock there, so `Pmax[◇goal] = 0` through it.
    DeadEnd {
        /// The dead-end state.
        state: usize,
    },
    /// A value vector's length does not match the artifact.
    ValueLength {
        /// Length the artifact requires.
        expected: usize,
        /// Length actually found.
        found: usize,
    },
    /// A value vector failed its Bellman-residual certificate.
    UncertifiedValues {
        /// Largest residual `|T(v)_i − v_i|` over finite states.
        max_residual: f64,
        /// Tolerance the certificate required.
        epsilon: f64,
        /// State attaining the residual, if any.
        worst_state: Option<usize>,
        /// Number of finite/infinite disagreements.
        inconsistent: usize,
        /// Number of NaN or out-of-range values.
        out_of_range: usize,
    },
    /// The strategy's choice vector length does not match the artifact.
    StrategyLength {
        /// Length the artifact requires.
        expected: usize,
        /// Length actually found.
        found: usize,
    },
    /// The strategy leaves a reachable, still-hopeful state undecided.
    StrategyIncomplete {
        /// The undecided state.
        state: usize,
    },
    /// The strategy picks an action that is not enabled at that state.
    StrategyInvalidAction {
        /// The state with the bogus decision.
        state: usize,
        /// The action the strategy picked.
        action: Action,
    },
    /// The strategy decides at an absorbing (goal or sink) state, where no
    /// choice exists.
    StrategyChoiceAtAbsorbing {
        /// The absorbing state.
        state: usize,
    },
    /// Following the strategy escapes the artifact's state set.
    StrategyEscapes {
        /// The state whose chosen action escapes.
        state: usize,
        /// The out-of-range successor.
        target: u32,
    },
    /// A bounds-certificate vector has the wrong length.
    BoundsLength {
        /// Which vector (`"bounds.lo"` / `"bounds.hi"`).
        which: &'static str,
        /// Length the artifact requires.
        expected: usize,
        /// Length actually found.
        found: usize,
    },
    /// A bound is NaN or outside the operator's value range.
    BoundOutOfRange {
        /// The offending state.
        state: usize,
        /// The offending bound value.
        value: f64,
    },
    /// A certified interval is inverted: the lower bound exceeds the
    /// upper bound beyond tolerance.
    BoundsCrossed {
        /// The offending state.
        state: usize,
        /// The claimed lower bound.
        lo: f64,
        /// The claimed upper bound.
        hi: f64,
    },
    /// A claimed bound fails its monotone-backup soundness check: an
    /// upper bound must dominate one backup of itself (pre-fixed point),
    /// a lower bound must be dominated by one (post-fixed point, on the
    /// MEC quotient / Prob1 restriction where the fixed point is unique).
    BoundUnsound {
        /// `true` for the upper bound, `false` for the lower.
        upper: bool,
        /// The state (for quotient checks: the tightest member) at fault.
        state: usize,
        /// The claimed bound value.
        value: f64,
        /// The backup value that contradicts the claim.
        backup: f64,
    },
    /// The certified interval is wider than the advertised `2ε` target.
    BoundsNotConverged {
        /// Largest finite interval width.
        width: f64,
        /// The certificate's ε.
        epsilon: f64,
    },
    /// A value vector leaves the certified `[lo, hi]` interval — the
    /// solver's answer is provably not the true value.
    ValueOutsideBounds {
        /// The offending state.
        state: usize,
        /// The value claimed by the solver.
        value: f64,
        /// Certified lower bound at that state.
        lo: f64,
        /// Certified upper bound at that state.
        hi: f64,
    },
    /// The exact value attained by the shipped strategy at the initial
    /// state lies outside the certified interval.
    StrategyValueOutsideBounds {
        /// Exact induced-chain value at the initial state.
        value: f64,
        /// Certified lower bound at the initial state.
        lo: f64,
        /// Certified upper bound at the initial state.
        hi: f64,
    },
    /// The strategy's induced chain contains a strongly connected block
    /// too large to eliminate densely.
    StrategyChainBlockTooLarge {
        /// Size of the offending block.
        block: usize,
        /// The configured limit.
        limit: usize,
    },
    /// A solved block of the strategy's induced chain misses its own
    /// equations (or gives a negative expected cost): it is numerically
    /// singular.
    StrategyChainUnsolved {
        /// The first member whose equation fails.
        state: usize,
        /// Size of the block.
        block: usize,
        /// That equation's residual (`∞` on a zero pivot).
        residual: f64,
    },
    /// The strategy never reaches the goal from this state (the lowest
    /// such), although some strategy reaches it almost surely.
    StrategyImproper {
        /// The state.
        state: usize,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ArrayLength {
                array,
                expected,
                found,
            } => write!(f, "{array}: expected {expected} entries, found {found}"),
            Self::NonMonotoneOffsets {
                array,
                index,
                prev,
                found,
            } => write!(f, "{array}[{index}] = {found} decreases from {prev}"),
            Self::OffsetOutOfRange {
                array,
                index,
                found,
                limit,
            } => write!(f, "{array}[{index}] = {found} exceeds limit {limit}"),
            Self::DanglingTarget {
                branch,
                target,
                states,
            } => write!(
                f,
                "branch {branch} targets state {target} outside 0..{states}"
            ),
            Self::EmptyBranch { choice, state } => {
                write!(f, "choice {choice} of state {state} has no outcomes")
            }
            Self::BadProbability {
                branch,
                state,
                prob,
            } => write!(f, "branch {branch} of state {state} has probability {prob}"),
            Self::MassMismatch { choice, state, sum } => write!(
                f,
                "choice {choice} of state {state} has outcome mass {sum}, expected 1"
            ),
            Self::GoalNotAbsorbing { state, choices } => {
                write!(f, "goal state {state} has {choices} choices, expected 0")
            }
            Self::SinkIsGoal { state } => {
                write!(f, "hazard sink {state} is flagged as a goal state")
            }
            Self::SinkNotAbsorbing { state, choices } => {
                write!(f, "hazard sink {state} has {choices} choices, expected 0")
            }
            Self::SinkOutOfRange { sink, states } => {
                write!(f, "hazard sink {sink} outside 0..{states}")
            }
            Self::InitOutOfRange { init, states } => {
                write!(f, "initial state {init} outside 0..{states}")
            }
            Self::UnreachableState { state } => {
                write!(f, "state {state} is unreachable from the initial state")
            }
            Self::DeadEnd { state } => {
                write!(f, "state {state} is a non-goal dead end (no choices)")
            }
            Self::ValueLength { expected, found } => {
                write!(f, "value vector has {found} entries, expected {expected}")
            }
            Self::UncertifiedValues {
                max_residual,
                epsilon,
                worst_state,
                inconsistent,
                out_of_range,
            } => write!(
                f,
                "value vector is not an ε-fixed-point: residual {max_residual} > {epsilon} \
                 (worst state {worst_state:?}, {inconsistent} inconsistent, \
                 {out_of_range} out of range)"
            ),
            Self::StrategyLength { expected, found } => {
                write!(f, "strategy has {found} entries, expected {expected}")
            }
            Self::StrategyIncomplete { state } => {
                write!(
                    f,
                    "strategy is undecided at reachable hopeful state {state}"
                )
            }
            Self::StrategyInvalidAction { state, action } => {
                write!(
                    f,
                    "strategy picks disabled action {action:?} at state {state}"
                )
            }
            Self::StrategyChoiceAtAbsorbing { state } => {
                write!(f, "strategy decides at absorbing state {state}")
            }
            Self::StrategyEscapes { state, target } => write!(
                f,
                "strategy at state {state} reaches out-of-range successor {target}"
            ),
            Self::BoundsLength {
                which,
                expected,
                found,
            } => write!(f, "{which} has {found} entries, expected {expected}"),
            Self::BoundOutOfRange { state, value } => {
                write!(f, "bound at state {state} is out of range: {value}")
            }
            Self::BoundsCrossed { state, lo, hi } => {
                write!(f, "bounds at state {state} cross: lo {lo} exceeds hi {hi}")
            }
            Self::BoundUnsound {
                upper,
                state,
                value,
                backup,
            } => {
                let side = if *upper { "upper" } else { "lower" };
                if !*upper && value.is_infinite() {
                    return write!(
                        f,
                        "lower bound {value} at state {state} claims an infinite value \
                         where an almost-surely-reaching strategy exists"
                    );
                }
                write!(
                    f,
                    "{side} bound {value} at state {state} fails its monotone backup \
                     check (T = {backup})"
                )
            }
            Self::BoundsNotConverged { width, epsilon } => write!(
                f,
                "bounds width {width} exceeds the 2ε target (ε = {epsilon})"
            ),
            Self::ValueOutsideBounds {
                state,
                value,
                lo,
                hi,
            } => write!(
                f,
                "value {value} at state {state} leaves the certified interval [{lo}, {hi}]"
            ),
            Self::StrategyValueOutsideBounds { value, lo, hi } => write!(
                f,
                "exact strategy value {value} at the initial state leaves the certified \
                 interval [{lo}, {hi}]"
            ),
            Self::StrategyChainBlockTooLarge { block, limit } => write!(
                f,
                "strategy chain has a strongly connected block of {block} states \
                 (limit {limit})"
            ),
            Self::StrategyChainUnsolved {
                state,
                block,
                residual,
            } => write!(
                f,
                "strategy chain block of {block} states is unsolved: residual {residual} \
                 at state {state}"
            ),
            Self::StrategyImproper { state } => write!(
                f,
                "strategy never reaches the goal from state {state}, which can reach it \
                 almost surely"
            ),
        }
    }
}

/// Reachability census of an artifact: which states the initial state can
/// reach, and which reachable states deadlock. The lists are reported in
/// full — not just counted — so a corrupted model can be diagnosed from the
/// report alone.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Census {
    /// Number of states reachable from the initial state.
    pub reachable: usize,
    /// Every state the initial state cannot reach, ascending.
    pub unreachable: Vec<usize>,
    /// Every reachable non-goal, non-sink state with no choices, ascending.
    pub dead_ends: Vec<usize>,
}

/// The outcome of an audit pass: all violations found, plus the census.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AuditReport {
    /// Every violation found, in discovery order.
    pub violations: Vec<Violation>,
    /// Reachability census (empty if the structural audit failed too early
    /// to traverse the model safely).
    pub census: Census,
}

impl AuditReport {
    /// Whether the audit found no violations.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            write!(f, "clean ({} reachable states)", self.census.reachable)?;
        } else {
            writeln!(f, "{} violation(s):", self.violations.len())?;
            for v in &self.violations {
                writeln!(f, "  - {v}")?;
            }
            write!(f, "  census: {} reachable", self.census.reachable)?;
        }
        Ok(())
    }
}
