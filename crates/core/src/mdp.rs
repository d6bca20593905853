use std::fmt;

use meda_grid::Rect;

use crate::transition::TransitionCache;
use crate::{Action, ActionConfig, Condensation, ForceProvider, Outcome};

/// Sentinel for "no entry" in the dense index and offset tables.
const EMPTY: u32 = u32::MAX;

/// A perfect dense index over droplet rectangles within the hazard
/// bounds: state lookup is two array reads, no hashing, no allocation on
/// the hot path.
///
/// Rectangles are keyed by `(width, height)` pages; each page holds one
/// slot per anchor position `(xa, ya)` that keeps the rectangle inside
/// the bounds. Pages are allocated lazily — a routing job only ever
/// visits a handful of shapes (morphing preserves the half-perimeter),
/// so the live footprint stays near the state count rather than the
/// full `O(n_x² n_y²)` rectangle space.
#[derive(Debug, Clone)]
struct DenseIndex {
    bounds: Rect,
    nx: usize,
    ny: usize,
    /// Per `(w, h)`: starting offset of that shape's page in `slots`,
    /// or [`EMPTY`] while unallocated. Indexed `(h-1)·nx + (w-1)`.
    page_offset: Vec<u32>,
    /// State index per anchor position, or [`EMPTY`].
    slots: Vec<u32>,
    /// Last shape inserted with its page base and row stride — without
    /// morphing every lookup hits one shape, skipping the page table.
    last_shape: (usize, usize),
    last_base: usize,
    last_stride: usize,
}

impl DenseIndex {
    fn new(bounds: Rect) -> Self {
        let nx = bounds.width() as usize;
        let ny = bounds.height() as usize;
        Self {
            bounds,
            nx,
            ny,
            page_offset: vec![EMPTY; nx * ny],
            slots: Vec::new(),
            last_shape: (0, 0),
            last_base: 0,
            last_stride: 0,
        }
    }

    /// The slot for `r`, allocating its `(w, h)` page on first use.
    /// `r` must lie within the bounds.
    fn slot_index(&mut self, r: Rect) -> usize {
        let w = r.width() as usize;
        let h = r.height() as usize;
        debug_assert!(self.bounds.contains_rect(r));
        let (base, stride) = if (w, h) == self.last_shape {
            (self.last_base, self.last_stride)
        } else {
            let key = (h - 1) * self.nx + (w - 1);
            let page_len = (self.nx - w + 1) * (self.ny - h + 1);
            let base = if self.page_offset[key] == EMPTY {
                let base = self.slots.len();
                self.page_offset[key] =
                    u32::try_from(base).expect("dense index exceeds u32 address space");
                self.slots.resize(base + page_len, EMPTY);
                base
            } else {
                self.page_offset[key] as usize
            };
            self.last_shape = (w, h);
            self.last_base = base;
            self.last_stride = self.nx - w + 1;
            (base, self.last_stride)
        };
        let dx = (r.xa - self.bounds.xa) as usize;
        let dy = (r.ya - self.bounds.ya) as usize;
        base + dy * stride + dx
    }

    /// O(1) lookup without allocation; `None` for rectangles outside the
    /// bounds or never inserted.
    fn get(&self, r: Rect) -> Option<usize> {
        if !self.bounds.contains_rect(r) {
            return None;
        }
        let w = r.width() as usize;
        let h = r.height() as usize;
        let base = self.page_offset[(h - 1) * self.nx + (w - 1)];
        if base == EMPTY {
            return None;
        }
        let dx = (r.xa - self.bounds.xa) as usize;
        let dy = (r.ya - self.bounds.ya) as usize;
        let v = self.slots[base as usize + dy * (self.nx - w + 1) + dx];
        (v != EMPTY).then_some(v as usize)
    }
}

/// The Markov decision process induced from the MEDA game for one routing
/// job (Section VI-C): the health matrix is frozen at its current value
/// (partial-order reduction over player ②'s moves) and the droplet is
/// confined to the hazard bounds `δ_h`, so states are droplet rectangles.
///
/// * **States** — droplet locations reachable from `start` under the
///   enabled actions, plus the absorbing goal states (droplets satisfying
///   the `goal` label `x_a ≥ x_ag ∧ y_a ≥ y_ag ∧ x_b ≤ x_bg ∧ y_b ≤ y_bg`).
/// * **Choices** — guard-enabled actions per non-goal state; actions whose
///   successful outcome would leave the hazard bounds are disabled, which
///   makes `□¬hazard` hold along every path (failed moves stay in place).
/// * **Transitions** — the Section V-B outcome distributions under the
///   frozen force field.
///
/// Transitions are stored in a CSR (compressed-sparse-row) layout — flat
/// successor/probability arrays with per-state choice and per-choice
/// branch offsets — so `meda-synth`'s value-iteration sweeps stream
/// through memory linearly without chasing per-state `Vec`s. State lookup
/// uses a perfect dense index over `(xa, ya, w, h)` instead of a hash
/// map.
///
/// # Examples
///
/// ```
/// use meda_core::{ActionConfig, RoutingMdp, UniformField};
/// use meda_grid::Rect;
///
/// let mdp = RoutingMdp::build(
///     Rect::new(1, 1, 3, 3),    // start
///     Rect::new(8, 8, 10, 10),  // goal
///     Rect::new(1, 1, 10, 10),  // hazard bounds
///     &UniformField::pristine(),
///     &ActionConfig::cardinal_only(),
/// )?;
/// // 8×8 droplet positions in a 10×10 area.
/// assert_eq!(mdp.stats().states, 64);
/// assert!(mdp.is_goal(mdp.state_index(Rect::new(8, 8, 10, 10)).unwrap()));
/// # Ok::<(), meda_core::BuildError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RoutingMdp {
    states: Vec<Rect>,
    index: DenseIndex,
    goal_flags: Vec<bool>,
    sink: Option<usize>,
    init: usize,
    goal: Rect,
    bounds: Rect,
    /// CSR row offsets: state `i`'s choices are
    /// `state_choice_start[i]..state_choice_start[i + 1]`.
    state_choice_start: Vec<u32>,
    /// Action of each choice, flat across all states.
    choice_action: Vec<Action>,
    /// CSR branch offsets: choice `c`'s branches are
    /// `choice_branch_start[c]..choice_branch_start[c + 1]`.
    choice_branch_start: Vec<u32>,
    /// Successor state of every probabilistic branch, flat.
    branch_target: Vec<u32>,
    /// Probability of every branch, parallel to `branch_target`.
    branch_prob: Vec<f64>,
}

/// One materialized choice: an action with its outcome distribution
/// (successor index, probability). The in-memory representation is CSR —
/// use [`Branch::to_vec`] to materialize a branch in this form.
pub type Choice = (Action, Vec<(usize, f64)>);

/// Borrowed view of one state's enabled choices in the CSR layout.
///
/// Iterates as `(Action, Branch)` pairs; `Copy`, so it can be consumed
/// by value in `for` loops like the former slice API.
#[derive(Debug, Clone, Copy)]
pub struct Choices<'a> {
    actions: &'a [Action],
    /// `actions.len() + 1` absolute offsets into `targets`/`probs`.
    branch_start: &'a [u32],
    targets: &'a [u32],
    probs: &'a [f64],
}

impl<'a> Choices<'a> {
    /// Number of enabled actions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// Whether the state has no enabled action (absorbing).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// The `k`-th choice.
    ///
    /// # Panics
    ///
    /// Panics if `k >= len()`.
    #[must_use]
    pub fn get(&self, k: usize) -> (Action, Branch<'a>) {
        let lo = self.branch_start[k] as usize;
        let hi = self.branch_start[k + 1] as usize;
        (
            self.actions[k],
            Branch {
                targets: &self.targets[lo..hi],
                probs: &self.probs[lo..hi],
            },
        )
    }

    /// Iterates over `(action, branch)` pairs.
    pub fn iter(&self) -> ChoicesIter<'a> {
        ChoicesIter {
            choices: *self,
            k: 0,
        }
    }
}

impl<'a> IntoIterator for Choices<'a> {
    type Item = (Action, Branch<'a>);
    type IntoIter = ChoicesIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        ChoicesIter {
            choices: self,
            k: 0,
        }
    }
}

/// Iterator over a state's choices.
#[derive(Debug, Clone)]
pub struct ChoicesIter<'a> {
    choices: Choices<'a>,
    k: usize,
}

impl<'a> Iterator for ChoicesIter<'a> {
    type Item = (Action, Branch<'a>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.k < self.choices.len() {
            let item = self.choices.get(self.k);
            self.k += 1;
            Some(item)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.choices.len() - self.k;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for ChoicesIter<'_> {}

/// Borrowed view of one choice's outcome distribution: parallel
/// successor/probability slices from the CSR arrays.
#[derive(Debug, Clone, Copy)]
pub struct Branch<'a> {
    targets: &'a [u32],
    probs: &'a [f64],
}

impl<'a> Branch<'a> {
    /// Number of probabilistic branches.
    #[must_use]
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// Whether the distribution is empty (never true for a stored choice).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// Iterates `(successor index, probability)` pairs by value.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (usize, f64)> + 'a {
        self.targets
            .iter()
            .zip(self.probs)
            .map(|(&t, &p)| (t as usize, p))
    }

    /// Materializes the distribution as a [`Choice`]-style vector.
    #[must_use]
    pub fn to_vec(&self) -> Vec<(usize, f64)> {
        self.iter().collect()
    }
}

/// Raw borrowed view of the CSR transition arrays — the representation
/// `meda-synth`'s value-iteration inner loops consume directly for
/// cache-linear, bounds-check-light sweeps.
#[derive(Debug, Clone, Copy)]
pub struct CsrView<'a> {
    /// `n + 1` offsets: state `i`'s choices span
    /// `state_choice_start[i]..state_choice_start[i + 1]`.
    pub state_choice_start: &'a [u32],
    /// Action per choice.
    pub choice_action: &'a [Action],
    /// `choices + 1` offsets into the branch arrays.
    pub choice_branch_start: &'a [u32],
    /// Successor state per branch.
    pub branch_target: &'a [u32],
    /// Probability per branch.
    pub branch_prob: &'a [f64],
}

/// How the `□¬hazard` part of the routing objective is encoded in the MDP
/// (DESIGN.md §5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum HazardHandling {
    /// Disable any action whose *successful* outcome would exit the hazard
    /// bounds. Because failed moves leave the droplet in place, this makes
    /// `□¬hazard` hold structurally along every path, and is the smaller
    /// model.
    #[default]
    GuardDisable,
    /// Keep those actions and route their out-of-bounds outcomes into an
    /// explicit absorbing (non-goal) hazard sink — closer to a literal
    /// PRISM encoding of the `hazard` label. Optimal values are identical
    /// (the optimizer simply never selects a sink-reaching action), at the
    /// cost of a larger model.
    AbsorbingSink,
}

/// Size statistics of a routing MDP — the quantities reported per row of
/// the paper's Table V.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MdpStats {
    /// Number of states.
    pub states: usize,
    /// Total number of probabilistic branches.
    pub transitions: usize,
    /// Total number of state–action pairs.
    pub choices: usize,
}

/// Error constructing a routing MDP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildError {
    /// The start droplet does not lie within the hazard bounds.
    StartOutsideBounds,
    /// The goal region does not lie within the hazard bounds.
    GoalOutsideBounds,
    /// The goal region is smaller than the start droplet and can never be
    /// satisfied by any reachable shape.
    GoalSmallerThanDroplet,
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::StartOutsideBounds => write!(f, "start droplet outside hazard bounds"),
            Self::GoalOutsideBounds => write!(f, "goal region outside hazard bounds"),
            Self::GoalSmallerThanDroplet => {
                write!(f, "goal region cannot contain the droplet")
            }
        }
    }
}

impl std::error::Error for BuildError {}

impl RoutingMdp {
    /// Builds the MDP for a routing job by breadth-first exploration from
    /// `start`, under the frozen force `field` and action `config`.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] if `start` or `goal` lies outside `bounds`,
    /// or the goal region is too small to ever contain the droplet.
    pub fn build(
        start: Rect,
        goal: Rect,
        bounds: Rect,
        field: &dyn ForceProvider,
        config: &ActionConfig,
    ) -> Result<Self, BuildError> {
        Self::build_with(
            start,
            goal,
            bounds,
            field,
            config,
            HazardHandling::GuardDisable,
        )
    }

    /// [`RoutingMdp::build`] with an explicit [`HazardHandling`] choice —
    /// used by the hazard-encoding ablation.
    ///
    /// # Errors
    ///
    /// Same as [`RoutingMdp::build`].
    pub fn build_with(
        start: Rect,
        goal: Rect,
        bounds: Rect,
        field: &dyn ForceProvider,
        config: &ActionConfig,
        hazard: HazardHandling,
    ) -> Result<Self, BuildError> {
        if !bounds.contains_rect(start) {
            return Err(BuildError::StartOutsideBounds);
        }
        if !bounds.contains_rect(goal) {
            return Err(BuildError::GoalOutsideBounds);
        }
        if goal.width() < start.width().min(start.height())
            || goal.height() < start.width().min(start.height())
        {
            // Even the most favourable morph keeps min-dimension ≥ 1, but
            // a goal thinner than any reachable shape is a planner bug;
            // conservative check on the smallest reachable extent.
            let s = start.width() + start.height();
            let min_extent = (s as f64 / (1.0 + config.aspect_ratio_max)).floor() as u32;
            if goal.width() < min_extent.max(1) || goal.height() < min_extent.max(1) {
                return Err(BuildError::GoalSmallerThanDroplet);
            }
        }

        // Observability only — the span/counters below never influence the
        // constructed model (DESIGN.md §11).
        let telemetry = meda_telemetry::global();
        let _build_span = telemetry.span("mdp.build");

        // Capacity hints from the translation-only page of the start shape;
        // morphing configs grow past this, but the estimate removes the
        // bulk of reallocation churn either way.
        let est_states = ((bounds.width() - start.width() + 1)
            * (bounds.height() - start.height() + 1)) as usize;

        let mut states = Vec::with_capacity(est_states);
        states.push(start);
        let mut index = DenseIndex::new(bounds);
        let start_slot = index.slot_index(start);
        index.slots[start_slot] = 0;
        let mut goal_flags = Vec::with_capacity(est_states);
        goal_flags.push(goal.contains_rect(start));
        let mut sink: Option<usize> = None;

        let mut state_choice_start: Vec<u32> = Vec::with_capacity(est_states + 1);
        state_choice_start.push(0);
        let mut choice_action: Vec<Action> = Vec::with_capacity(est_states * 4);
        let mut choice_branch_start: Vec<u32> = Vec::with_capacity(est_states * 4 + 1);
        choice_branch_start.push(0);
        let mut branch_target: Vec<u32> = Vec::with_capacity(est_states * 8);
        let mut branch_prob: Vec<f64> = Vec::with_capacity(est_states * 8);

        // One outcome buffer for the whole exploration (cleared and
        // refilled per action, so the hot loop never allocates), the
        // field's forces read once into a window around the bounds, and a
        // memo of cardinal frontier means — double-step and ordinal
        // frontiers revisit the same (rectangle, direction) pairs.
        let mut outcomes: Vec<Outcome> = Vec::with_capacity(4);
        let mut gen = TransitionCache::new(field, bounds);

        // The class part of the action guard depends on the droplet only
        // through its shape, so it is evaluated once per (w, h) here; the
        // per-state residue is just the hazard-bound check. AbsorbingSink
        // keeps bound-exiting actions (routed to the sink below) by
        // checking against expanded bounds.
        let guard_bounds = match hazard {
            HazardHandling::GuardDisable => bounds,
            HazardHandling::AbsorbingSink => bounds.expand(4),
        };
        let mut class_cache: Vec<((u32, u32), Vec<Action>)> = Vec::new();

        let mut frontier = 0usize;
        while frontier < states.len() {
            let delta = states[frontier];
            let is_sink = Some(frontier) == sink;
            if !goal_flags[frontier] && !is_sink {
                let shape = (delta.width(), delta.height());
                let ci = match class_cache.iter().position(|(s, _)| *s == shape) {
                    Some(k) => k,
                    None => {
                        let list: Vec<Action> = Action::ALL
                            .into_iter()
                            .filter(|a| a.class_enabled(delta, config))
                            .collect();
                        class_cache.push((shape, list));
                        class_cache.len() - 1
                    }
                };
                for &action in &class_cache[ci].1 {
                    if !guard_bounds.contains_rect(action.apply(delta)) {
                        continue;
                    }
                    // Append branches directly to the flat arrays; if the
                    // distribution turns out empty the arrays are untouched
                    // and the choice is simply not recorded.
                    let mark = branch_target.len();
                    gen.transitions_into(delta, action, &mut outcomes);
                    for &outcome in &outcomes {
                        if outcome.probability <= 0.0 {
                            continue;
                        }
                        let next = if bounds.contains_rect(outcome.droplet) {
                            let slot = index.slot_index(outcome.droplet);
                            let found = index.slots[slot];
                            if found == EMPTY {
                                let id = u32::try_from(states.len())
                                    .expect("state space exceeds u32 address space");
                                index.slots[slot] = id;
                                states.push(outcome.droplet);
                                goal_flags.push(goal.contains_rect(outcome.droplet));
                                id
                            } else {
                                found
                            }
                        } else {
                            // Out of the hazard bounds: only reachable with
                            // AbsorbingSink handling.
                            debug_assert_eq!(hazard, HazardHandling::AbsorbingSink);
                            *sink.get_or_insert_with(|| {
                                // The sink is keyed by a sentinel rectangle
                                // strictly outside the bounds so it cannot
                                // collide with a real droplet state.
                                let sentinel =
                                    bounds.translate(2 * (bounds.xb - bounds.xa + 10), 0);
                                states.push(sentinel);
                                goal_flags.push(false);
                                states.len() - 1
                            }) as u32
                        };
                        branch_target.push(next);
                        branch_prob.push(outcome.probability);
                    }
                    if branch_target.len() > mark {
                        choice_action.push(action);
                        choice_branch_start.push(branch_target.len() as u32);
                    }
                }
            }
            state_choice_start.push(choice_action.len() as u32);
            frontier += 1;
        }

        telemetry.add("core.mdp.builds", 1);
        telemetry.add("core.mdp.states", states.len() as u64);
        telemetry.add("core.mdp.choices", choice_action.len() as u64);
        telemetry.add("core.mdp.transitions", branch_target.len() as u64);
        telemetry.add(
            "core.mdp.index_pages",
            index.page_offset.iter().filter(|&&p| p != EMPTY).count() as u64,
        );
        telemetry.add("core.mdp.frontier_memo_hits", gen.memo.hits);
        telemetry.add("core.mdp.frontier_memo_misses", gen.memo.misses);

        let mdp = Self {
            states,
            index,
            goal_flags,
            sink,
            init: 0,
            goal,
            bounds,
            state_choice_start,
            choice_action,
            choice_branch_start,
            branch_target,
            branch_prob,
        };
        // Construction-time well-formedness hook: in dev builds every model
        // leaving the builder is structurally verified (the same invariants
        // `meda-audit` re-checks downstream; duplicated here because `core`
        // sits below the audit crate in the dependency graph).
        debug_assert_eq!(
            mdp.debug_well_formed(),
            Ok(()),
            "builder produced an ill-formed MDP"
        );
        Ok(mdp)
    }

    /// Structural self-check backing the builder's `debug_assert!` hook:
    /// CSR offsets monotone and covering, probabilities in `(0, 1]` with
    /// unit mass per choice, branch targets in range, goal states and the
    /// hazard sink absorbing.
    fn debug_well_formed(&self) -> Result<(), String> {
        let n = self.states.len();
        if self.state_choice_start.len() != n + 1 || self.goal_flags.len() != n {
            return Err("offset/flag arrays do not cover the state set".into());
        }
        if self.choice_branch_start.len() != self.choice_action.len() + 1
            || self.branch_prob.len() != self.branch_target.len()
        {
            return Err("choice/branch arrays are not parallel".into());
        }
        for w in self.state_choice_start.windows(2) {
            if w[1] < w[0] {
                return Err("state_choice_start is not monotone".into());
            }
        }
        for w in self.choice_branch_start.windows(2) {
            if w[1] < w[0] {
                return Err("choice_branch_start is not monotone".into());
            }
        }
        if self.state_choice_start.last().copied() != Some(self.choice_action.len() as u32)
            || self.choice_branch_start.last().copied() != Some(self.branch_target.len() as u32)
        {
            return Err("CSR offsets do not cover their arrays".into());
        }
        for c in 0..self.choice_action.len() {
            let lo = self.choice_branch_start[c] as usize;
            let hi = self.choice_branch_start[c + 1] as usize;
            if lo == hi {
                return Err(format!("choice {c} has an empty distribution"));
            }
            let mut mass = 0.0_f64;
            for b in lo..hi {
                let p = self.branch_prob[b];
                if p.is_nan() || p <= 0.0 || p > 1.0 + 1e-9 {
                    return Err(format!("branch {b} has probability {p}"));
                }
                if self.branch_target[b] as usize >= n {
                    return Err(format!("branch {b} targets a nonexistent state"));
                }
                mass += p;
            }
            if (mass - 1.0).abs() > 1e-9 {
                return Err(format!("choice {c} has outcome mass {mass}"));
            }
        }
        for (i, &g) in self.goal_flags.iter().enumerate() {
            let choices = self.state_choice_start[i + 1] - self.state_choice_start[i];
            if g && choices != 0 {
                return Err(format!("goal state {i} is not absorbing"));
            }
            if self.sink == Some(i) && (g || choices != 0) {
                return Err(format!("hazard sink {i} is not an absorbing non-goal"));
            }
        }
        Ok(())
    }

    /// The absorbing hazard-sink state, if this MDP was built with
    /// [`HazardHandling::AbsorbingSink`] and any action can exit the
    /// bounds.
    #[must_use]
    pub fn hazard_sink(&self) -> Option<usize> {
        self.sink
    }

    /// Number of states.
    #[must_use]
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether the MDP has no states (never true after a successful build).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The droplet rectangle of state `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn state(&self, i: usize) -> Rect {
        self.states[i]
    }

    /// The index of a droplet rectangle, if it is a state. O(1): two
    /// array reads in the dense index.
    #[must_use]
    pub fn state_index(&self, droplet: Rect) -> Option<usize> {
        if let Some(i) = self.index.get(droplet) {
            return Some(i);
        }
        // The hazard-sink sentinel lies outside the bounds and therefore
        // outside the dense index.
        self.sink.filter(|&s| self.states[s] == droplet)
    }

    /// The initial-state index (the start droplet).
    #[must_use]
    pub fn init(&self) -> usize {
        self.init
    }

    /// Whether state `i` satisfies the `goal` label. Goal states are
    /// absorbing (no choices).
    #[must_use]
    pub fn is_goal(&self, i: usize) -> bool {
        self.goal_flags[i]
    }

    /// The enabled actions and outcome distributions of state `i`, as a
    /// borrowed CSR view.
    #[must_use]
    pub fn choices(&self, i: usize) -> Choices<'_> {
        let lo = self.state_choice_start[i] as usize;
        let hi = self.state_choice_start[i + 1] as usize;
        Choices {
            actions: &self.choice_action[lo..hi],
            branch_start: &self.choice_branch_start[lo..=hi],
            targets: &self.branch_target,
            probs: &self.branch_prob,
        }
    }

    /// The raw CSR transition arrays, for allocation-free solver sweeps.
    #[must_use]
    pub fn csr(&self) -> CsrView<'_> {
        CsrView {
            state_choice_start: &self.state_choice_start,
            choice_action: &self.choice_action,
            choice_branch_start: &self.choice_branch_start,
            branch_target: &self.branch_target,
            branch_prob: &self.branch_prob,
        }
    }

    /// Computes the SCC condensation of the transition graph (edges: state
    /// → branch successor, over every choice) with the shared iterative
    /// Tarjan pass, [`crate::tarjan_scc`]. Roots are visited in state
    /// order, so the result is deterministic. `O(states + transitions)`.
    ///
    /// Self-loop branches are skipped — see [`Condensation`].
    #[must_use]
    pub fn condensation(&self) -> Condensation {
        let telemetry = meda_telemetry::global();
        let _span = telemetry.span("mdp.condense");
        let (scs, cbs, targets) = (
            &self.state_choice_start,
            &self.choice_branch_start,
            &self.branch_target,
        );
        // All of a state's successors, across every choice, are one
        // contiguous branch_target run — the per-state edge list is a
        // single slice of the CSR arrays.
        crate::tarjan_scc(
            self.states.len(),
            |_| true,
            move |i| {
                let lo = cbs[scs[i] as usize] as usize;
                let hi = cbs[scs[i + 1] as usize] as usize;
                targets[lo..hi].iter().copied()
            },
        )
    }

    /// Computes the maximal end components of this MDP's transition
    /// structure — see [`crate::mec_decomposition`]. Under
    /// [`HazardHandling::GuardDisable`] the non-goal wander region is
    /// typically one large MEC (failed moves hold position, so the region
    /// is closed and strongly connected); the quotient of this
    /// decomposition is what gives from-above value iteration a unique
    /// fixed point.
    #[must_use]
    pub fn maximal_end_components(&self) -> crate::MecDecomposition {
        let telemetry = meda_telemetry::global();
        let _span = telemetry.span("mdp.mec");
        crate::mec_decomposition(
            &self.state_choice_start,
            &self.choice_branch_start,
            &self.branch_target,
        )
    }

    /// The goal region `δ_g`.
    #[must_use]
    pub fn goal(&self) -> Rect {
        self.goal
    }

    /// The hazard bounds `δ_h`.
    #[must_use]
    pub fn bounds(&self) -> Rect {
        self.bounds
    }

    /// Iterates over all state indices.
    pub fn state_indices(&self) -> impl Iterator<Item = usize> + use<> {
        0..self.states.len()
    }

    /// Model-size statistics (Table V quantities) — O(1) reads off the
    /// CSR array lengths.
    #[must_use]
    pub fn stats(&self) -> MdpStats {
        MdpStats {
            states: self.len(),
            transitions: self.branch_target.len(),
            choices: self.choice_action.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UniformField;

    fn build_simple(config: &ActionConfig) -> RoutingMdp {
        RoutingMdp::build(
            Rect::new(1, 1, 3, 3),
            Rect::new(8, 8, 10, 10),
            Rect::new(1, 1, 10, 10),
            &UniformField::pristine(),
            config,
        )
        .unwrap()
    }

    #[test]
    fn cardinal_only_enumerates_all_positions() {
        let mdp = build_simple(&ActionConfig::cardinal_only());
        // A 3×3 droplet has 8×8 positions in a 10×10 area.
        assert_eq!(mdp.len(), 64);
    }

    #[test]
    fn goal_states_are_absorbing() {
        let mdp = build_simple(&ActionConfig::cardinal_only());
        let goal_idx = mdp.state_index(Rect::new(8, 8, 10, 10)).unwrap();
        assert!(mdp.is_goal(goal_idx));
        assert!(mdp.choices(goal_idx).is_empty());
    }

    #[test]
    fn transition_probabilities_sum_to_one_per_choice() {
        let mdp = build_simple(&ActionConfig::default());
        for i in mdp.state_indices() {
            for (a, branch) in mdp.choices(i) {
                let total: f64 = branch.iter().map(|(_, p)| p).sum();
                assert!((total - 1.0).abs() < 1e-9, "state {i} action {a}");
            }
        }
    }

    #[test]
    fn all_states_stay_within_bounds() {
        let mdp = build_simple(&ActionConfig::default());
        for i in mdp.state_indices() {
            assert!(mdp.bounds().contains_rect(mdp.state(i)));
        }
    }

    #[test]
    fn morphing_enlarges_the_state_space() {
        let without = build_simple(&ActionConfig::cardinal_only()).len();
        let with = build_simple(&ActionConfig::default()).len();
        assert!(with > without);
    }

    #[test]
    fn larger_droplets_make_smaller_models() {
        // Table V trend: for a fixed RJ area, model size shrinks as the
        // droplet grows.
        let config = ActionConfig::cardinal_only();
        let field = UniformField::pristine();
        let area = Rect::new(1, 1, 20, 20);
        let mut prev = usize::MAX;
        for size in 3..=6 {
            let start = Rect::with_size(1, 1, size, size);
            let goal = Rect::with_size(21 - size as i32, 21 - size as i32, size, size);
            let mdp = RoutingMdp::build(start, goal, area, &field, &config).unwrap();
            assert!(mdp.len() < prev, "size {size}");
            prev = mdp.len();
        }
    }

    #[test]
    fn errors_on_bad_geometry() {
        let field = UniformField::pristine();
        let config = ActionConfig::default();
        assert_eq!(
            RoutingMdp::build(
                Rect::new(0, 0, 2, 2),
                Rect::new(5, 5, 7, 7),
                Rect::new(1, 1, 10, 10),
                &field,
                &config,
            )
            .unwrap_err(),
            BuildError::StartOutsideBounds
        );
        assert_eq!(
            RoutingMdp::build(
                Rect::new(1, 1, 3, 3),
                Rect::new(9, 9, 11, 11),
                Rect::new(1, 1, 10, 10),
                &field,
                &config,
            )
            .unwrap_err(),
            BuildError::GoalOutsideBounds
        );
    }

    #[test]
    fn dead_zone_prunes_zero_probability_branches() {
        // A fully dead field: no movement has positive success probability,
        // so every action keeps only the stay-in-place branch.
        let mdp = RoutingMdp::build(
            Rect::new(1, 1, 3, 3),
            Rect::new(8, 8, 10, 10),
            Rect::new(1, 1, 10, 10),
            &UniformField::new(0.0),
            &ActionConfig::cardinal_only(),
        )
        .unwrap();
        assert_eq!(mdp.len(), 1, "no state beyond the start is reachable");
        for (_, branch) in mdp.choices(mdp.init()) {
            assert_eq!(branch.len(), 1);
            assert_eq!(branch.iter().next().unwrap().0, mdp.init());
        }
    }

    #[test]
    fn absorbing_sink_model_is_larger_but_reaches_same_states() {
        let field = UniformField::new(0.9);
        let config = ActionConfig::default();
        let args = (
            Rect::new(1, 1, 3, 3),
            Rect::new(8, 8, 10, 10),
            Rect::new(1, 1, 10, 10),
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
        assert!(guard.hazard_sink().is_none());
        assert!(sink.hazard_sink().is_some());
        assert_eq!(sink.len(), guard.len() + 1, "exactly the sink is added");
        let s = sink.stats();
        let g = guard.stats();
        assert!(s.choices > g.choices);
        assert!(s.transitions > g.transitions);
    }

    #[test]
    fn sink_state_is_absorbing_and_not_goal() {
        let mdp = RoutingMdp::build_with(
            Rect::new(1, 1, 3, 3),
            Rect::new(8, 8, 10, 10),
            Rect::new(1, 1, 10, 10),
            &UniformField::new(0.9),
            &ActionConfig::default(),
            HazardHandling::AbsorbingSink,
        )
        .unwrap();
        let sink = mdp.hazard_sink().unwrap();
        assert!(!mdp.is_goal(sink));
        assert!(mdp.choices(sink).is_empty());
        // The sentinel lies outside the hazard bounds.
        assert!(!mdp.bounds().contains_rect(mdp.state(sink)));
        // And it is still resolvable through `state_index`.
        assert_eq!(mdp.state_index(mdp.state(sink)), Some(sink));
    }

    #[test]
    fn condensation_partitions_states_in_reverse_topological_order() {
        let mdp = build_simple(&ActionConfig::default());
        let c = mdp.condensation();
        assert_eq!(c.component.len(), mdp.len());
        assert_eq!(c.members.len(), mdp.len());
        // Partition: every state appears exactly once in the member lists.
        let mut seen = vec![false; mdp.len()];
        for k in 0..c.components() {
            for &s in c.members_of(k) {
                assert!(!seen[s as usize], "state {s} grouped twice");
                seen[s as usize] = true;
                assert_eq!(c.component[s as usize] as usize, k);
            }
        }
        assert!(seen.iter().all(|&b| b));
        // Reverse topological: every cross-component edge points to a
        // smaller component id.
        for i in mdp.state_indices() {
            for (_, branch) in mdp.choices(i) {
                for (j, _) in branch.iter() {
                    if c.component[i] != c.component[j] {
                        assert!(
                            c.component[j] < c.component[i],
                            "edge {i} -> {j} goes forward in component order"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn condensation_goals_are_singletons_and_moves_are_one_scc() {
        // With reversible cardinal moves every non-goal state can return to
        // every other, so the non-goal region is one big SCC and each
        // absorbing goal state is its own singleton component.
        let mdp = build_simple(&ActionConfig::cardinal_only());
        let c = mdp.condensation();
        let goal_states = mdp.state_indices().filter(|&i| mdp.is_goal(i)).count();
        assert_eq!(c.components(), goal_states + 1);
        assert_eq!(c.nontrivial(), 1);
        assert_eq!(c.largest(), mdp.len() - goal_states);
        for i in mdp.state_indices().filter(|&i| mdp.is_goal(i)) {
            assert_eq!(c.members_of(c.component[i] as usize), [i as u32]);
        }
    }

    #[test]
    fn condensation_of_a_corridor_is_near_acyclic_under_one_way_flow() {
        // A 1-wide corridor with cardinal moves is still reversible, but a
        // fully dead field collapses the model to the start state alone —
        // exactly one (trivially acyclic) component, self-loop ignored.
        let mdp = RoutingMdp::build(
            Rect::new(1, 1, 3, 3),
            Rect::new(8, 8, 10, 10),
            Rect::new(1, 1, 10, 10),
            &UniformField::new(0.0),
            &ActionConfig::cardinal_only(),
        )
        .unwrap();
        let c = mdp.condensation();
        assert_eq!(c.components(), 1);
        assert_eq!(c.nontrivial(), 0);
    }

    #[test]
    fn stats_count_choices_and_transitions() {
        let mdp = build_simple(&ActionConfig::cardinal_only());
        let stats = mdp.stats();
        assert_eq!(stats.states, 64);
        // Interior states have 4 actions with 2 branches each.
        assert!(stats.choices > 0 && stats.transitions >= stats.choices);
        let recount: usize = mdp.state_indices().map(|i| mdp.choices(i).len()).sum();
        assert_eq!(stats.choices, recount);
    }

    #[test]
    fn state_index_is_a_bijection_over_states() {
        let mdp = build_simple(&ActionConfig::default());
        for i in mdp.state_indices() {
            assert_eq!(mdp.state_index(mdp.state(i)), Some(i));
        }
        // Rectangles outside the bounds or never reached resolve to None.
        assert_eq!(mdp.state_index(Rect::new(0, 0, 2, 2)), None);
        assert_eq!(mdp.state_index(Rect::new(1, 1, 10, 10)), None);
    }
}
