use std::fmt;

use meda_core::{Action, RoutingMdp};
use meda_grid::Rect;

use crate::{max_reach_probability, min_expected_cycles_with_reach, Query, SolverOptions};

/// A synthesized memoryless droplet-routing strategy `π : S₁ → 𝒜₁` together
/// with its optimal value — the `(π, k)` pair returned by Algorithm 2.
///
/// The strategy owns its MDP so it can be consulted by droplet location
/// (`π(δ)`) during execution.
#[derive(Debug, Clone)]
pub struct RoutingStrategy {
    mdp: RoutingMdp,
    choice: Vec<Option<Action>>,
    values: Vec<f64>,
    query: Query,
}

/// Error from strategy synthesis (Algorithm 2's `(∅, ∞)` outcome).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SynthesisError {
    /// No strategy reaches the goal from the initial state (for `φ_r`,
    /// `Pmax < 1`; for `φ_p`, `Pmax = 0`).
    NoStrategy {
        /// The maximal reachability probability that was achievable.
        reach_probability: f64,
    },
    /// Value iteration failed to converge within the iteration cap.
    NotConverged,
}

impl fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoStrategy { reach_probability } => write!(
                f,
                "no strategy reaches the goal (Pmax = {reach_probability:.4})"
            ),
            Self::NotConverged => write!(f, "value iteration did not converge"),
        }
    }
}

impl std::error::Error for SynthesisError {}

/// Synthesizes the optimal routing strategy for a routing-job MDP under the
/// given query — the `SYNTH` procedure of Algorithm 2 with default solver
/// options.
///
/// # Errors
///
/// Returns [`SynthesisError::NoStrategy`] when the goal is unreachable
/// (almost-surely for [`Query::MinExpectedCycles`], with any positive
/// probability for [`Query::MaxReachProbability`]), and
/// [`SynthesisError::NotConverged`] if the solver hits its iteration cap.
///
/// # Examples
///
/// ```
/// use meda_core::{ActionConfig, RoutingMdp, UniformField};
/// use meda_grid::Rect;
/// use meda_synth::{synthesize, Query};
///
/// let mdp = RoutingMdp::build(
///     Rect::new(1, 1, 2, 2),
///     Rect::new(6, 6, 8, 8),
///     Rect::new(1, 1, 8, 8),
///     &UniformField::pristine(),
///     &ActionConfig::default(),
/// )?;
/// let pi = synthesize(&mdp, Query::MinExpectedCycles)?;
/// let first = pi.decide(Rect::new(1, 1, 2, 2)).unwrap();
/// assert!(first.is_enabled(Rect::new(1, 1, 2, 2), mdp.bounds(), &ActionConfig::default()));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn synthesize(mdp: &RoutingMdp, query: Query) -> Result<RoutingStrategy, SynthesisError> {
    // Both queries need the Pmax fixed point (Rmin for its ∞-seeding, and
    // the NoStrategy diagnostics for the reported probability) — compute it
    // once and reuse it.
    let reach = max_reach_probability(mdp, SolverOptions::default());
    let reach_at_init = reach.values[mdp.init()];
    let result = match query {
        Query::MaxReachProbability => reach,
        Query::MinExpectedCycles => {
            min_expected_cycles_with_reach(mdp, SolverOptions::default(), &reach)
        }
    };
    if !result.converged {
        return Err(SynthesisError::NotConverged);
    }
    let v0 = result.values[mdp.init()];
    let feasible = match query {
        Query::MaxReachProbability => v0 > 0.0,
        Query::MinExpectedCycles => v0.is_finite(),
    };
    if !feasible && !mdp.is_goal(mdp.init()) {
        return Err(SynthesisError::NoStrategy {
            reach_probability: reach_at_init,
        });
    }
    Ok(RoutingStrategy {
        mdp: mdp.clone(),
        choice: result.choice,
        values: result.values,
        query,
    })
}

impl RoutingStrategy {
    /// Reassembles a strategy from its parts — the rehydration path of the
    /// persistent cache and the canonical-frame materializer. Returns
    /// `None` when the vectors do not match the model's state count; any
    /// deeper validation (totality/closure/value soundness) is the
    /// caller's job via `meda-audit` before trusting the result.
    #[must_use]
    pub fn from_parts(
        mdp: RoutingMdp,
        choice: Vec<Option<Action>>,
        values: Vec<f64>,
        query: Query,
    ) -> Option<Self> {
        if choice.len() != mdp.len() || values.len() != mdp.len() {
            return None;
        }
        Some(Self {
            mdp,
            choice,
            values,
            query,
        })
    }

    /// The action `π(δ)` for the droplet at `droplet`, or `None` if the
    /// location is a goal state, is hopeless, or was never enumerated.
    #[must_use]
    pub fn decide(&self, droplet: Rect) -> Option<Action> {
        self.mdp.state_index(droplet).and_then(|i| self.choice[i])
    }

    /// The optimal value at the initial state: the expected number of
    /// cycles `k` for `φ_r`, or the reachability probability for `φ_p`.
    #[must_use]
    pub fn value_at_init(&self) -> f64 {
        self.values[self.mdp.init()]
    }

    /// The optimal value at an arbitrary droplet location, if enumerated.
    #[must_use]
    pub fn value_at(&self, droplet: Rect) -> Option<f64> {
        self.mdp.state_index(droplet).map(|i| self.values[i])
    }

    /// Whether `droplet` satisfies the routing job's goal label.
    #[must_use]
    pub fn is_goal(&self, droplet: Rect) -> bool {
        self.mdp
            .state_index(droplet)
            .is_some_and(|i| self.mdp.is_goal(i))
    }

    /// The full value vector, indexed like the strategy's own MDP states.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The query this strategy optimizes.
    #[must_use]
    pub fn query(&self) -> Query {
        self.query
    }

    /// The underlying routing MDP.
    #[must_use]
    pub fn mdp(&self) -> &RoutingMdp {
        &self.mdp
    }

    /// The nominal trajectory: the droplet sequence when every commanded
    /// action succeeds, from the job's start until the strategy has no
    /// further action (normally the goal). Since optimal values strictly
    /// decrease along successful transitions, the walk always terminates.
    ///
    /// # Examples
    ///
    /// ```
    /// use meda_core::{ActionConfig, RoutingMdp, UniformField};
    /// use meda_grid::Rect;
    /// use meda_synth::{synthesize, Query};
    ///
    /// let mdp = RoutingMdp::build(
    ///     Rect::new(1, 1, 2, 2),
    ///     Rect::new(5, 1, 6, 2),
    ///     Rect::new(1, 1, 6, 2),
    ///     &UniformField::pristine(),
    ///     &ActionConfig::cardinal_only(),
    /// )?;
    /// let pi = synthesize(&mdp, Query::MinExpectedCycles)?;
    /// let path = pi.nominal_path();
    /// assert_eq!(path.len(), 5); // start + 4 east steps
    /// assert!(pi.is_goal(*path.last().unwrap()));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    #[must_use]
    pub fn nominal_path(&self) -> Vec<Rect> {
        let mut droplet = self.mdp.state(self.mdp.init());
        let mut path = vec![droplet];
        while let Some(action) = self.decide(droplet) {
            droplet = action.apply(droplet);
            path.push(droplet);
            // A Pmax-optimal policy may cycle among probability-1 states
            // (ties at 1.0 give it no reason to make progress), so the walk
            // must be bounded: any acyclic path visits each state at most
            // once. Truncating — rather than looping forever — keeps the
            // display usable for such policies.
            if path.len() > self.mdp.len() {
                break;
            }
        }
        path
    }

    /// Renders the policy as an ASCII map over the hazard bounds (north
    /// row first): for each position the droplet's *anchor* (south-west
    /// corner) can take at the start shape, the arrow of `π(δ)` —
    /// `^v<>` single steps, `NSEW` double steps, `/\\` diagonals,
    /// `+`/`-` morphs, `G` goal anchors, `.` unreachable anchors.
    ///
    /// # Examples
    ///
    /// ```
    /// use meda_core::{ActionConfig, RoutingMdp, UniformField};
    /// use meda_grid::Rect;
    /// use meda_synth::{synthesize, Query};
    ///
    /// let mdp = RoutingMdp::build(
    ///     Rect::new(1, 1, 2, 2),
    ///     Rect::new(5, 1, 6, 2),
    ///     Rect::new(1, 1, 6, 2),
    ///     &UniformField::pristine(),
    ///     &ActionConfig::cardinal_only(),
    /// )?;
    /// let pi = synthesize(&mdp, Query::MinExpectedCycles)?;
    /// // Top anchor row has no legal 2×2 placements; the bottom row runs
    /// // east to the goal.
    /// assert_eq!(pi.policy_map(), "......\n>>>>G.");
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    #[must_use]
    pub fn policy_map(&self) -> String {
        use meda_core::{Dir, Ordinal};
        let bounds = self.mdp.bounds();
        let start = self.mdp.state(self.mdp.init());
        let (w, h) = (start.width(), start.height());
        let mut lines = Vec::new();
        for ya in (bounds.ya..=bounds.yb).rev() {
            let mut line = String::new();
            for xa in bounds.xa..=bounds.xb {
                let Ok(rect) = Rect::try_new(xa, ya, xa + w as i32 - 1, ya + h as i32 - 1) else {
                    line.push('.');
                    continue;
                };
                let glyph = match self.mdp.state_index(rect) {
                    None => '.',
                    Some(i) if self.mdp.is_goal(i) => 'G',
                    Some(_) => match self.decide(rect) {
                        None => '?',
                        Some(Action::Move(Dir::N)) => '^',
                        Some(Action::Move(Dir::S)) => 'v',
                        Some(Action::Move(Dir::E)) => '>',
                        Some(Action::Move(Dir::W)) => '<',
                        Some(Action::MoveDouble(Dir::N)) => 'N',
                        Some(Action::MoveDouble(Dir::S)) => 'S',
                        Some(Action::MoveDouble(Dir::E)) => 'E',
                        Some(Action::MoveDouble(Dir::W)) => 'W',
                        Some(Action::MoveOrdinal(Ordinal::NE | Ordinal::SW)) => '/',
                        Some(Action::MoveOrdinal(Ordinal::NW | Ordinal::SE)) => '\\',
                        Some(Action::Widen(_)) => '-',
                        Some(Action::Heighten(_)) => '+',
                    },
                };
                line.push(glyph);
            }
            lines.push(line);
        }
        lines.join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meda_core::{ActionConfig, Dir, RawField, UniformField};
    use meda_grid::{Cell, ChipDims, Grid};

    fn simple_mdp() -> RoutingMdp {
        RoutingMdp::build(
            Rect::new(1, 1, 2, 2),
            Rect::new(7, 1, 8, 2),
            Rect::new(1, 1, 8, 4),
            &UniformField::pristine(),
            &ActionConfig::cardinal_only(),
        )
        .unwrap()
    }

    #[test]
    fn min_cycles_strategy_moves_toward_goal() {
        let pi = synthesize(&simple_mdp(), Query::MinExpectedCycles).unwrap();
        assert_eq!(pi.decide(Rect::new(1, 1, 2, 2)), Some(Action::Move(Dir::E)));
        assert_eq!(pi.value_at_init(), 6.0);
    }

    #[test]
    fn goal_state_has_no_action() {
        let pi = synthesize(&simple_mdp(), Query::MinExpectedCycles).unwrap();
        assert_eq!(pi.decide(Rect::new(7, 1, 8, 2)), None);
        assert!(pi.is_goal(Rect::new(7, 1, 8, 2)));
    }

    #[test]
    fn unknown_location_has_no_action() {
        let pi = synthesize(&simple_mdp(), Query::MinExpectedCycles).unwrap();
        assert_eq!(pi.decide(Rect::new(20, 20, 21, 21)), None);
    }

    #[test]
    fn value_decreases_along_optimal_path() {
        let pi = synthesize(&simple_mdp(), Query::MinExpectedCycles).unwrap();
        let mut droplet = Rect::new(1, 1, 2, 2);
        let mut prev = pi.value_at(droplet).unwrap();
        while let Some(a) = pi.decide(droplet) {
            droplet = a.apply(droplet);
            let v = pi.value_at(droplet).unwrap();
            assert!(v < prev);
            prev = v;
        }
        assert!(pi.is_goal(droplet));
    }

    #[test]
    fn probability_query_reports_probability() {
        let pi = synthesize(&simple_mdp(), Query::MaxReachProbability).unwrap();
        assert!((pi.value_at_init() - 1.0).abs() < 1e-6);
        assert_eq!(pi.query(), Query::MaxReachProbability);
    }

    #[test]
    fn policy_map_shows_goal_and_arrows() {
        let pi = synthesize(&simple_mdp(), Query::MinExpectedCycles).unwrap();
        let map = pi.policy_map();
        assert!(map.contains('G'), "goal marked:\n{map}");
        assert!(map.contains('>'), "eastward arrows:\n{map}");
        // One row per anchor row of the hazard bounds.
        assert_eq!(map.lines().count(), 4);
        assert!(map.lines().all(|l| l.chars().count() == 8));
    }

    #[test]
    fn blocked_job_returns_no_strategy() {
        let dims = ChipDims::new(5, 1);
        let mut f = Grid::new(dims, 1.0);
        f[Cell::new(3, 1)] = 0.0;
        let mdp = RoutingMdp::build(
            Rect::new(1, 1, 1, 1),
            Rect::new(5, 1, 5, 1),
            Rect::new(1, 1, 5, 1),
            &RawField::new(f),
            &ActionConfig::cardinal_only(),
        )
        .unwrap();
        match synthesize(&mdp, Query::MinExpectedCycles) {
            Err(SynthesisError::NoStrategy { reach_probability }) => {
                assert!(reach_probability < 1e-9);
            }
            other => panic!("expected NoStrategy, got {other:?}"),
        }
    }

    #[test]
    fn start_inside_goal_is_trivially_satisfied() {
        let mdp = RoutingMdp::build(
            Rect::new(3, 3, 4, 4),
            Rect::new(2, 2, 5, 5),
            Rect::new(1, 1, 8, 8),
            &UniformField::pristine(),
            &ActionConfig::default(),
        )
        .unwrap();
        let pi = synthesize(&mdp, Query::MinExpectedCycles).unwrap();
        assert_eq!(pi.value_at_init(), 0.0);
        assert_eq!(pi.decide(Rect::new(3, 3, 4, 4)), None);
    }
}
