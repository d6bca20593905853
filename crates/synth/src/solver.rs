//! The value-iteration engine behind [`crate::synthesize`]:
//! structure-aware sweeps over the routing MDP's CSR arrays.
//!
//! Two sweep methods share one `f64` Bellman kernel:
//!
//! * [`SolverMethod::Topological`] — sweep the SCC condensation of the
//!   transition graph in reverse topological order. Acyclic stretches
//!   converge in exactly one backup per state; each cyclic component
//!   starts from above (`∞`) in choice-readiness order — so the first
//!   sweep collapses the `∞` wavefront and lands on an exact proper-
//!   policy evaluation — then re-sorts the sweep order by current value
//!   (ascending for `Rmin`, descending for `Pmax`) between passes.
//!   Value order is a label-correcting order: an optimal action's target
//!   is strictly closer to the goal than its source, so each sweep
//!   evaluates the current greedy policy near-exactly and the loop
//!   behaves like Howard policy iteration — a handful of sweeps at any
//!   scale — without materializing a policy graph (whose ordinal-move
//!   branches genuinely contain cycles).
//! * [`SolverMethod::GaussSeidel`] — the pre-condensation engine, kept
//!   verbatim (whole-vector sweeps, unfactored `Pmax` backup) as the
//!   reference oracle and the benchmark baseline.
//!
//! The structured methods additionally restrict numeric iteration to the
//! states that need it: a graph-only qualitative precomputation (the
//! classic Prob0/Prob1 split — see [`pmax_qualitative`]) pins `Pmax` to
//! exactly 0 or 1 wherever reachability is decided by structure alone, and
//! `Rmin`'s `∞`-seeded states never enter a sweep order. On a healthy
//! field — where every move has positive success probability — the entire
//! `Pmax` solve reduces to two graph traversals.
//!
//! Whatever the method, the engine only declares convergence after a
//! **confirmation sweep**: one full Jacobi pass against the frozen iterate
//! whose max delta is the true Bellman residual ([`SolverResult::residual`]).
//! In-place sweep deltas under-report the residual; the confirmation pass
//! turns "my bookkeeping says done" into a checkable ε-fixed-point claim,
//! which `meda-audit` re-verifies independently.

use meda_core::{Action, Condensation, RoutingMdp};
use meda_telemetry::Histogram;

/// Sweep-engine selection for the value-iteration solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverMethod {
    /// Whole-vector Gauss–Seidel sweeps in state order — the
    /// pre-condensation engine reproduced faithfully, including its
    /// unfactored `Pmax` backup (`v ← max_a Σ p·v` with self-loop mass
    /// recycled across sweeps) and no qualitative precomputation. Kept as
    /// the reference oracle and the benchmark baseline the structured
    /// methods are measured against.
    GaussSeidel,
    /// Topological value iteration over the SCC condensation
    /// ([`meda_core::RoutingMdp::condensation`]) — the default, which
    /// dominates on routing models whether they are near-acyclic (one
    /// backup per state) or one big cyclic component (goal-ordered
    /// sweeps).
    #[default]
    Topological,
}

/// Options for the value-iteration solver.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverOptions {
    /// Convergence threshold on the confirmed (frozen-iterate) residual.
    pub epsilon: f64,
    /// Hard cap on value-iteration work, in units of whole-vector sweeps:
    /// the engine stops once it has spent `max_iterations × states` state
    /// backups, wherever in a sweep that lands.
    pub max_iterations: usize,
    /// Which sweep engine to run. See [`SolverMethod`].
    pub method: SolverMethod,
}

impl Default for SolverOptions {
    fn default() -> Self {
        Self {
            epsilon: 1e-9,
            max_iterations: 100_000,
            method: SolverMethod::Topological,
        }
    }
}

/// The outcome of a value-iteration run: the per-state value vector and the
/// optimizing action per state (`None` for absorbing/hopeless states).
#[derive(Debug, Clone)]
pub struct SolverResult {
    /// Optimal value per state (probability, or expected cycles).
    pub values: Vec<f64>,
    /// Optimal memoryless deterministic choice per state.
    pub choice: Vec<Option<Action>>,
    /// Work performed, in whole-vector sweep equivalents (total state
    /// backups divided by the state count, rounded up).
    pub iterations: usize,
    /// Whether the run converged within the iteration budget.
    pub converged: bool,
    /// The confirmed residual: the max value change of one full Jacobi
    /// pass against the final frozen iterate. `< epsilon` whenever
    /// [`SolverResult::converged`]; infinite if the budget ran out before
    /// any confirmation pass completed.
    pub residual: f64,
    /// The sweep method that ran.
    pub method: SolverMethod,
}

// ---------------------------------------------------------------------------
// The kernel: one Bellman backup.
// ---------------------------------------------------------------------------

/// Which Bellman operator a solve runs.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Op {
    /// `Pmax[◇goal]` — maximize reach probability (least fixed point
    /// from 0).
    Pmax,
    /// `Rmin[◇goal]` — minimize expected cycles (stochastic shortest
    /// path; `∞` marks states that cannot reach the goal almost surely).
    Rmin,
}

/// The per-state Bellman backup over borrowed CSR arrays. Both operators
/// factor pure self-loop mass analytically —
/// `v = (r + Σ_{j≠i} p_j v_j) / (1 − p_self)` — so stay-in-place failure
/// branches converge exactly in one backup and singleton SCCs need no
/// iteration at all.
struct Kernel<'a> {
    op: Op,
    state_choice_start: &'a [u32],
    choice_action: &'a [Action],
    choice_branch_start: &'a [u32],
    branch_target: &'a [u32],
    probs: &'a [f64],
    goal: &'a [bool],
    /// Use the pre-condensation backup semantics so
    /// [`SolverMethod::GaussSeidel`] stays a faithful reproduction of the
    /// engine it benchmarks against: the unfactored `Pmax` backup, and
    /// "any `∞` value is a frozen seed" for `Rmin`.
    legacy: bool,
    /// States pinned at their init value (empty = none): the qualitative
    /// `Pmax` 0/1 states and the `Rmin` `∞` seeds. The structured `Rmin`
    /// engines iterate *active* states down from `∞`, so an `∞` value
    /// alone no longer marks a seed — this mask does.
    frozen: Vec<bool>,
}

/// "No choice picked" sentinel for the qualitative witness arrays.
const NO_PICK: u32 = u32::MAX;

impl Kernel<'_> {
    /// Full greedy backup: optimizes over every choice, returning the new
    /// value and the argbest action.
    fn eval(&self, i: usize, values: &[f64], choice: &[Option<Action>]) -> (f64, Option<Action>) {
        match self.op {
            Op::Pmax if self.legacy => self.eval_pmax_legacy(i, values),
            Op::Pmax => self.eval_pmax(i, values),
            Op::Rmin => self.eval_rmin(i, values, choice),
        }
    }

    /// `v(s) ← max_a (Σ_{s'≠s} p·v) / (1 − p_self)`. Factoring the
    /// self-loop renormalizes each action to its self-loop-free
    /// equivalent, which has the same reachability values; iteration from
    /// 0 stays monotone to the least fixed point.
    fn eval_pmax(&self, i: usize, values: &[f64]) -> (f64, Option<Action>) {
        if self.goal[i] {
            return (1.0, None);
        }
        let near_one = 1.0 - 1e-12;
        let mut best = 0.0;
        let mut best_action = None;
        let c_lo = self.state_choice_start[i] as usize;
        let c_hi = self.state_choice_start[i + 1] as usize;
        for c in c_lo..c_hi {
            let b_lo = self.choice_branch_start[c] as usize;
            let b_hi = self.choice_branch_start[c + 1] as usize;
            let mut p_self = 0.0;
            let mut rest = 0.0;
            for b in b_lo..b_hi {
                let j = self.branch_target[b] as usize;
                let p = self.probs[b];
                if j == i {
                    p_self += p;
                } else {
                    rest += p * values[j];
                }
            }
            // A (numerically) pure self-loop never reaches anything.
            if p_self >= near_one {
                continue;
            }
            let v = rest / (1.0 - p_self);
            if v > best {
                best = v;
                best_action = Some(self.choice_action[c]);
            }
        }
        (best, best_action)
    }

    /// The pre-condensation `Pmax` backup, kept verbatim for
    /// [`SolverMethod::GaussSeidel`]: plain `v(s) ← max_a Σ p·v` with the
    /// self-loop mass *not* factored out, so stay-in-place failure
    /// branches recycle value geometrically across sweeps instead of
    /// converging in one backup. Same least fixed point, slower route —
    /// exactly what the benchmark speedups are measured against.
    fn eval_pmax_legacy(&self, i: usize, values: &[f64]) -> (f64, Option<Action>) {
        if self.goal[i] {
            return (1.0, None);
        }
        let mut best = 0.0;
        let mut best_action = None;
        let c_lo = self.state_choice_start[i] as usize;
        let c_hi = self.state_choice_start[i + 1] as usize;
        for c in c_lo..c_hi {
            let b_lo = self.choice_branch_start[c] as usize;
            let b_hi = self.choice_branch_start[c + 1] as usize;
            let mut v = 0.0;
            for b in b_lo..b_hi {
                v += self.probs[b] * values[self.branch_target[b] as usize];
            }
            if v > best {
                best = v;
                best_action = Some(self.choice_action[c]);
            }
        }
        (best, best_action)
    }

    /// `v(s) ← min_a (1 + Σ_{s'≠s} p·v) / (1 − p_self)`, skipping actions
    /// with an `∞`-valued successor unless all are.
    fn eval_rmin(
        &self,
        i: usize,
        values: &[f64],
        choice: &[Option<Action>],
    ) -> (f64, Option<Action>) {
        if self.goal[i] {
            return (0.0, None);
        }
        let current = values[i];
        // A frozen `∞` seed (no almost-sure strategy) must stay `∞`. Under
        // the legacy engine every `∞` is a seed; the structured engines
        // start active states at `∞` too (from-above iteration) and rely
        // on the mask instead.
        if current.is_infinite() && (self.legacy || self.frozen.get(i) == Some(&true)) {
            return (current, None);
        }
        let near_one = 1.0 - 1e-12;
        let mut best = f64::INFINITY;
        let mut best_action = None;
        let c_lo = self.state_choice_start[i] as usize;
        let c_hi = self.state_choice_start[i + 1] as usize;
        'choices: for c in c_lo..c_hi {
            let mut p_self = 0.0;
            let mut rest = 0.0;
            let b_lo = self.choice_branch_start[c] as usize;
            let b_hi = self.choice_branch_start[c + 1] as usize;
            for b in b_lo..b_hi {
                let j = self.branch_target[b] as usize;
                let p = self.probs[b];
                if j == i {
                    p_self += p;
                } else if values[j].is_infinite() {
                    continue 'choices;
                } else {
                    rest += p * values[j];
                }
            }
            if p_self >= near_one {
                continue;
            }
            let v = (1.0 + rest) / (1.0 - p_self);
            if v < best {
                best = v;
                best_action = Some(self.choice_action[c]);
            }
        }
        if best.is_finite() {
            (best, best_action)
        } else {
            (current, choice[i])
        }
    }
}

// ---------------------------------------------------------------------------
// Graph scaffolding: predecessor lists and within-SCC sweep orders.
// ---------------------------------------------------------------------------

/// Predecessor CSR (the transpose of the per-state successor runs), with
/// self-edges dropped. Duplicate edges (several actions reaching the same
/// successor) are kept; every consumer tolerates them.
struct Preds {
    start: Vec<u32>,
    list: Vec<u32>,
}

impl Preds {
    fn build(
        state_choice_start: &[u32],
        choice_branch_start: &[u32],
        branch_target: &[u32],
    ) -> Self {
        let n = state_choice_start.len() - 1;
        // All of a state's successors, across every choice, are one
        // contiguous branch_target run.
        let edge_run = |i: usize| {
            let lo = choice_branch_start[state_choice_start[i] as usize] as usize;
            let hi = choice_branch_start[state_choice_start[i + 1] as usize] as usize;
            lo..hi
        };
        let mut start = vec![0u32; n + 1];
        for i in 0..n {
            for b in edge_run(i) {
                let j = branch_target[b] as usize;
                if j != i {
                    start[j + 1] += 1;
                }
            }
        }
        for j in 0..n {
            start[j + 1] += start[j];
        }
        let mut fill: Vec<u32> = start.clone();
        let mut list = vec![0u32; start[n] as usize];
        for i in 0..n {
            for b in edge_run(i) {
                let j = branch_target[b] as usize;
                if j != i {
                    list[fill[j] as usize] = i as u32;
                    fill[j] += 1;
                }
            }
        }
        Self { start, list }
    }

    fn of(&self, i: usize) -> &[u32] {
        &self.list[self.start[i] as usize..self.start[i + 1] as usize]
    }
}

/// Output of [`pmax_qualitative`]: the graph-decided `Pmax` regions.
struct Qualitative {
    /// States with *any* path to the goal. The complement has `Pmax`
    /// exactly 0 (zero-probability branches never enter the CSR, so every
    /// CSR edge is a real path).
    reach: Vec<bool>,
    /// States with a strategy reaching the goal almost surely (`Pmax`
    /// exactly 1).
    prob1: Vec<bool>,
    /// For each `prob1` state, a witness choice index ([`NO_PICK`] for
    /// goal states): an action that keeps every successor inside the
    /// winning region and steps toward the goal with positive probability,
    /// i.e. a memoryless almost-surely-winning strategy.
    witness: Vec<u32>,
}

/// Graph-only qualitative precomputation for `Pmax` — the classic
/// Prob0/Prob1E split from probabilistic model checking. `reach` is plain
/// backward reachability; `prob1` is the greatest fixed point
/// `νZ. μY. goal ∪ {s | ∃a: succ(s,a) ⊆ Z ∧ succ(s,a) ∩ Y ≠ ∅}`,
/// computed with a worklist-driven inner pass (each candidate re-checked
/// whenever one of its successors joins `Y`). Only states in neither
/// region need numeric iteration — typically none on a healthy field.
fn pmax_qualitative(
    state_choice_start: &[u32],
    choice_branch_start: &[u32],
    branch_target: &[u32],
    goal: &[bool],
    preds: &Preds,
) -> Qualitative {
    let n = goal.len();
    let goal_list = || (0..n as u32).filter(|&i| goal[i as usize]);
    let mut reach = goal.to_vec();
    let mut stack: Vec<u32> = goal_list().collect();
    while let Some(t) = stack.pop() {
        for &p in preds.of(t as usize) {
            let pi = p as usize;
            if !reach[pi] {
                reach[pi] = true;
                stack.push(p);
            }
        }
    }

    // νZ iteration, starting from the backward-reachable set (a valid
    // superset of Prob1) and shrinking to the fixed point. `witness` is
    // (re)recorded on each inner pass; the run that reaches `y == z`
    // leaves the certified strategy behind.
    let mut z = reach.clone();
    let mut y = vec![false; n];
    let mut witness = vec![NO_PICK; n];
    loop {
        for ((yi, &g), w) in y.iter_mut().zip(goal.iter()).zip(witness.iter_mut()) {
            *yi = g;
            *w = NO_PICK;
        }
        let mut work: Vec<u32> = goal_list().collect();
        while let Some(t) = work.pop() {
            for &p in preds.of(t as usize) {
                let pi = p as usize;
                if y[pi] || !z[pi] {
                    continue;
                }
                let c_lo = state_choice_start[pi] as usize;
                let c_hi = state_choice_start[pi + 1] as usize;
                let joined = (c_lo..c_hi).find(|&c| {
                    let b_lo = choice_branch_start[c] as usize;
                    let b_hi = choice_branch_start[c + 1] as usize;
                    let mut hits_y = false;
                    for &j in &branch_target[b_lo..b_hi] {
                        if !z[j as usize] {
                            return false;
                        }
                        hits_y |= y[j as usize];
                    }
                    hits_y
                });
                if let Some(c) = joined {
                    y[pi] = true;
                    witness[pi] = c as u32;
                    work.push(p);
                }
            }
        }
        if y == z {
            break;
        }
        std::mem::swap(&mut z, &mut y);
    }
    Qualitative {
        reach,
        prob1: z,
        witness,
    }
}

/// Reused per-component scratch for the topological phase.
struct TopoScratch {
    /// Backward-BFS level per state; `u32::MAX` = unvisited. Reset to the
    /// sentinel (only on touched entries) after every component.
    dist: Vec<u32>,
    /// The within-component sweep order.
    order: Vec<u32>,
}

// ---------------------------------------------------------------------------
// The sweep engine.
// ---------------------------------------------------------------------------

/// How a sweep phase ended.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// The phase's own convergence criterion was met.
    Done,
    /// The eval budget ran out mid-phase.
    Budget,
}

struct EngineOutcome {
    iterations: usize,
    converged: bool,
    residual: f64,
}

/// The query a solve answers, besides the numeric arrays and the
/// [`SolverOptions`].
struct SolveSpec<'a> {
    op: Op,
    goal: &'a [bool],
    /// The iteration domain, when restricted: `false` marks states whose
    /// value is already exact (qualitative `Pmax` regions, `Rmin`'s
    /// `∞`-seeded states) and which no sweep phase needs to touch. The
    /// confirmation pass still covers — and certifies — every state.
    /// `None` means all states iterate.
    active: Option<&'a [bool]>,
}

/// Method-specific state, built once per solve.
enum MethodState {
    GaussSeidel,
    Topological {
        cond: Condensation,
        preds: Preds,
        scratch: TopoScratch,
    },
}

struct Engine<'a> {
    kernel: Kernel<'a>,
    epsilon: f64,
    /// Total state-backup budget (`max_iterations × states`).
    budget: usize,
    evals: usize,
    /// Materialized [`SolveSpec::active`] mask (all-true when the domain is
    /// unrestricted).
    active: Vec<bool>,
    /// Full greedy (all-choice) sweeps, for telemetry.
    greedy_sweeps: u64,
    scratch_v: Vec<f64>,
    scratch_c: Vec<Option<Action>>,
}

impl Engine<'_> {
    /// Reserves `batch` state backups against the budget; `false` means
    /// the budget is exhausted and the phase must stop.
    fn try_charge(&mut self, batch: usize) -> bool {
        if self.evals.saturating_add(batch) > self.budget {
            return false;
        }
        self.evals += batch;
        true
    }

    /// One full Jacobi pass over every state against the frozen iterate:
    /// evaluates into scratch, then writes back, returning the max delta.
    fn jacobi_pass(&mut self, values: &mut [f64], choice: &mut [Option<Action>]) -> f64 {
        for (i, (sv, sc)) in self
            .scratch_v
            .iter_mut()
            .zip(&mut self.scratch_c)
            .enumerate()
        {
            (*sv, *sc) = self.kernel.eval(i, values, choice);
        }
        let mut delta = 0.0_f64;
        for (i, (&v, &a)) in self.scratch_v.iter().zip(&self.scratch_c).enumerate() {
            // `v == values[i]` also covers matching infinities, where the
            // subtraction would produce NaN.
            if v != values[i] {
                delta = delta.max((v - values[i]).abs());
            }
            values[i] = v;
            choice[i] = a;
        }
        delta
    }

    /// Classic whole-vector sweeps until the in-place delta drops below
    /// epsilon; the engine's confirmation pass then validates.
    fn gauss_seidel_phase(
        &mut self,
        all: &[u32],
        values: &mut [f64],
        choice: &mut [Option<Action>],
        residuals: &Histogram,
    ) -> Phase {
        // An empty domain (every state frozen at its exact value) has
        // nothing to sweep — without this the zero-charge loop below could
        // spin forever at `epsilon = 0`.
        if all.is_empty() {
            return Phase::Done;
        }
        loop {
            if !self.try_charge(all.len()) {
                return Phase::Budget;
            }
            let delta = gs_sweep(&self.kernel, all, values, choice);
            residuals.record(residual_p12(delta));
            if delta < self.epsilon {
                return Phase::Done;
            }
        }
    }

    /// Topological value iteration: components in reverse topological
    /// order (successors first — see
    /// [`meda_core::RoutingMdp::condensation`]). Singletons get exactly
    /// one (self-loop-factored, hence exact) backup. A cyclic component
    /// first sweeps in choice-readiness order — which collapses the
    /// from-above `∞` wavefront in one pass — then re-aligns the sweep
    /// order with the current greedy policy between sweeps: a backward BFS
    /// along argbest branches places every state after its policy
    /// successors, so each sweep evaluates the current policy (acyclic
    /// after self-loop factoring) essentially exactly while also taking
    /// the next greedy improvement. The loop is Howard policy iteration in
    /// sweep clothing and converges in a handful of rounds instead of the
    /// ~O(path length) sweeps a fixed order needs.
    fn topological_phase(
        &mut self,
        cond: &Condensation,
        preds: &Preds,
        scratch: &mut TopoScratch,
        values: &mut [f64],
        choice: &mut [Option<Action>],
        sweeps_hist: &Histogram,
    ) -> Phase {
        let TopoScratch { dist, order } = scratch;
        for k in 0..cond.components() {
            let members = cond.members_of(k);
            if members.len() == 1 {
                let i = members[0] as usize;
                if !self.active[i] {
                    continue;
                }
                if !self.try_charge(1) {
                    return Phase::Budget;
                }
                let (v, a) = self.kernel.eval(i, values, choice);
                values[i] = v;
                choice[i] = a;
                continue;
            }
            let comp = k as u32;
            order.clear();
            // Choice-readiness layering: a state joins the sweep order
            // once SOME choice has every non-self branch already ordered
            // or anchored outside the in-component iteration (goal states,
            // earlier components — and, for `Pmax`, frozen 0/1 states; a
            // frozen `∞` seed under `Rmin` disables the choice instead,
            // mirroring the backup's skip rule). Sweeping in this order
            // makes each state's witness choice fully evaluable the first
            // time it is reached, so one Gauss–Seidel pass collapses the
            // from-above `∞` wavefront that a plain backward BFS (whose
            // layers double-move edges compress) only advances one cell
            // ring per sweep. Seeds scan in ascending state id for
            // determinism.
            for &u in members {
                let ui = u as usize;
                if self.active[ui]
                    && has_ready_choice(&self.kernel, &self.active, cond, comp, dist, ui)
                {
                    dist[ui] = 0;
                    order.push(u);
                }
            }
            let mut head = 0;
            while head < order.len() {
                let u = order[head] as usize;
                head += 1;
                for &p in preds.of(u) {
                    let pi = p as usize;
                    if cond.component[pi] == comp
                        && self.active[pi]
                        && dist[pi] == u32::MAX
                        && has_ready_choice(&self.kernel, &self.active, cond, comp, dist, pi)
                    {
                        dist[pi] = 0;
                        order.push(p);
                    }
                }
            }
            // Anything the worklist could not anchor — trap components
            // with no exits, or members fenced off behind frozen states —
            // is appended in member order so every active state is swept.
            for &u in members {
                let ui = u as usize;
                if self.active[ui] && dist[ui] == u32::MAX {
                    dist[ui] = 0;
                    order.push(u);
                }
            }
            if order.is_empty() {
                continue;
            }
            let m = order.len();
            let mut sweeps = 0u64;
            // The readiness-ordered Gauss–Seidel sweep collapses the
            // from-above `∞` wavefront in one pass; until then the value
            // re-sort below would only scramble that order.
            let mut wave = order.iter().any(|&u| values[u as usize].is_infinite());
            let status = loop {
                if !self.try_charge(m) {
                    break Phase::Budget;
                }
                sweeps += 1;
                self.greedy_sweeps += 1;
                let delta = gs_sweep(&self.kernel, order, values, choice);
                if delta < self.epsilon {
                    break Phase::Done;
                }
                if wave {
                    // The sweep's delta is `∞` whenever any state went
                    // `∞ → finite`, so it cannot tell a collapsed
                    // wavefront from a live one — re-scan the values.
                    // Still-`∞` states (fenced behind frozen seeds) keep
                    // sweeping; the driver's restart net resolves them.
                    wave = order.iter().any(|&u| values[u as usize].is_infinite());
                    if wave {
                        continue;
                    }
                }
                // Re-order by value before the next sweep: an optimal
                // `Rmin` action's target is strictly cheaper than its
                // source (each step costs ≥ 1), and `Pmax` value decays
                // away from the goal — so sweeping cheapest-first (`Rmin`)
                // or highest-first (`Pmax`) puts nearly every policy
                // successor before its predecessors, and one Gauss–Seidel
                // pass evaluates the current greedy policy essentially
                // exactly (a label-correcting order, as in Dijkstra). A
                // policy-graph BFS cannot do this: ordinal moves couple
                // each state to three neighbors and adjacent states
                // picking different diagonals form real cycles. The rare
                // order-inconsistent edge (an ordinal intermediate worse
                // than its source) just costs an extra round. Ties break
                // by state id for determinism.
                order.sort_unstable_by(|&a, &b| {
                    let (va, vb) = (values[a as usize], values[b as usize]);
                    let ord = va.partial_cmp(&vb).unwrap_or(std::cmp::Ordering::Equal);
                    match self.kernel.op {
                        Op::Rmin => ord.then(a.cmp(&b)),
                        Op::Pmax => ord.reverse().then(a.cmp(&b)),
                    }
                });
            };
            sweeps_hist.record(sweeps);
            for &u in order.iter() {
                dist[u as usize] = u32::MAX;
            }
            if status == Phase::Budget {
                return Phase::Budget;
            }
        }
        Phase::Done
    }
}

/// True when some choice of `i` could be backed up right now with no
/// not-yet-ordered in-component operand: every non-self branch is either
/// already placed in the sweep order (`dist != MAX`), outside component
/// `comp` (converged in an earlier component, or a goal singleton), or a
/// frozen state with a usable final value — which under `Rmin` excludes
/// the `∞` seeds, exactly as [`Kernel::eval_rmin`]'s skip rule does.
/// Choices with no non-self branch (numerically pure self-loops) never
/// qualify; the backup skips those too.
fn has_ready_choice(
    kernel: &Kernel<'_>,
    active: &[bool],
    cond: &Condensation,
    comp: u32,
    dist: &[u32],
    i: usize,
) -> bool {
    let c_lo = kernel.state_choice_start[i] as usize;
    let c_hi = kernel.state_choice_start[i + 1] as usize;
    'choices: for c in c_lo..c_hi {
        let b_lo = kernel.choice_branch_start[c] as usize;
        let b_hi = kernel.choice_branch_start[c + 1] as usize;
        let mut moves = false;
        for &jt in &kernel.branch_target[b_lo..b_hi] {
            let j = jt as usize;
            if j == i {
                continue;
            }
            moves = true;
            if !active[j] {
                if kernel.op == Op::Rmin {
                    continue 'choices;
                }
                continue;
            }
            if cond.component[j] == comp && dist[j] == u32::MAX {
                continue 'choices;
            }
        }
        if moves {
            return true;
        }
    }
    false
}

/// One in-place greedy Gauss–Seidel sweep over `order`, returning the max
/// delta.
fn gs_sweep(
    kernel: &Kernel<'_>,
    order: &[u32],
    values: &mut [f64],
    choice: &mut [Option<Action>],
) -> f64 {
    let mut delta = 0.0_f64;
    for &iu in order {
        let i = iu as usize;
        let (v, a) = kernel.eval(i, values, choice);
        if v != values[i] {
            delta = delta.max((v - values[i]).abs());
        }
        values[i] = v;
        choice[i] = a;
    }
    delta
}

/// Scales a sweep residual into pico-units for the log2 trajectory
/// histogram; `∞` (an Rmin sweep touching an infinite state) saturates.
fn residual_p12(delta: f64) -> u64 {
    if delta <= 0.0 {
        0
    } else {
        (delta * 1e12) as u64
    }
}

/// Builds the method-specific state for a non-empty iteration domain:
/// condensation + backward-BFS scratch for the topological method.
fn build_method_state(mdp: &RoutingMdp, method: SolverMethod) -> MethodState {
    let telemetry = meda_telemetry::global();
    let csr = mdp.csr();
    let n = mdp.len();
    match method {
        SolverMethod::GaussSeidel => MethodState::GaussSeidel,
        SolverMethod::Topological => {
            let cond = mdp.condensation();
            telemetry.add("synth.solve.scc.components", cond.components() as u64);
            telemetry.add("synth.solve.scc.nontrivial", cond.nontrivial() as u64);
            let sizes = telemetry.histogram("synth.solve.scc_size");
            for k in 0..cond.components() {
                let m = cond.members_of(k).len();
                if m > 1 {
                    sizes.record(m as u64);
                }
            }
            let preds = Preds::build(
                csr.state_choice_start,
                csr.choice_branch_start,
                csr.branch_target,
            );
            MethodState::Topological {
                cond,
                preds,
                scratch: TopoScratch {
                    dist: vec![u32::MAX; n],
                    order: Vec::with_capacity(n),
                },
            }
        }
    }
}

/// Runs the selected sweep method to (confirmed) convergence or budget
/// exhaustion. See the module docs for the confirmation contract.
fn run_engine(
    mdp: &RoutingMdp,
    spec: &SolveSpec<'_>,
    options: &SolverOptions,
    values: &mut [f64],
    choice: &mut [Option<Action>],
) -> EngineOutcome {
    let telemetry = meda_telemetry::global();
    let csr = mdp.csr();
    let n = values.len();
    let kernel = Kernel {
        op: spec.op,
        state_choice_start: csr.state_choice_start,
        choice_action: csr.choice_action,
        choice_branch_start: csr.choice_branch_start,
        branch_target: csr.branch_target,
        probs: csr.branch_prob,
        goal: spec.goal,
        legacy: options.method == SolverMethod::GaussSeidel,
        frozen: spec
            .active
            .map_or_else(Vec::new, |a| a.iter().map(|&b| !b).collect()),
    };
    let active: Vec<bool> = spec.active.map_or_else(|| vec![true; n], <[bool]>::to_vec);
    let domain: Vec<u32> = (0..n as u32).filter(|&i| active[i as usize]).collect();
    let mut eng = Engine {
        kernel,
        epsilon: options.epsilon,
        budget: options.max_iterations.saturating_mul(n),
        evals: 0,
        active,
        greedy_sweeps: 0,
        scratch_v: vec![0.0; n],
        scratch_c: vec![None; n],
    };
    let residuals = telemetry.histogram("synth.solve.residual_p12");
    let scc_sweeps = telemetry.histogram("synth.solve.scc_sweeps");

    let mut state = if domain.is_empty() {
        // Every state is frozen at its exact value (e.g. `Pmax` fully
        // decided by the qualitative precomputation): no phase has work,
        // and the confirmation pass alone certifies and assigns choices.
        MethodState::GaussSeidel
    } else {
        build_method_state(mdp, options.method)
    };

    let mut converged = false;
    let mut residual = f64::INFINITY;
    let mut retries = 0u64;
    loop {
        let status = match &mut state {
            MethodState::GaussSeidel => eng.gauss_seidel_phase(&domain, values, choice, &residuals),
            MethodState::Topological {
                cond,
                preds,
                scratch,
            } => eng.topological_phase(cond, preds, scratch, values, choice, &scc_sweeps),
        };
        if status == Phase::Budget || !eng.try_charge(n) {
            break;
        }
        // Confirmation pass: the phase believes it is done; re-measure the
        // residual against the frozen iterate, where no in-place update can
        // hide outstanding error.
        let delta = eng.jacobi_pass(values, choice);
        residuals.record(residual_p12(delta));
        residual = delta;
        if delta < eng.epsilon {
            // From-above safety net: an active state still at `∞` after a
            // converged descent sits in a mutually-`∞` cluster the skip-∞
            // backup cannot enter (every choice disabled by an `∞`
            // branch). Restart exactly those states from 0 — the classic
            // ascent — so they settle to the same fixed point the legacy
            // engine reports.
            if spec.op == Op::Rmin && !eng.kernel.frozen.is_empty() {
                let stuck: Vec<u32> = (0..n as u32)
                    .filter(|&iu| {
                        let i = iu as usize;
                        eng.active[i] && !spec.goal[i] && values[i].is_infinite()
                    })
                    .collect();
                if !stuck.is_empty() {
                    telemetry.add("synth.solve.rmin.inf_restarts", stuck.len() as u64);
                    for &iu in &stuck {
                        values[iu as usize] = 0.0;
                    }
                    retries += 1;
                    continue;
                }
            }
            converged = true;
            break;
        }
        retries += 1;
    }
    if retries > 0 {
        telemetry.add("synth.solve.confirm.retries", retries);
    }
    if eng.greedy_sweeps > 0 {
        telemetry.add("synth.solve.sweeps.greedy", eng.greedy_sweeps);
    }
    EngineOutcome {
        iterations: eng.evals.div_ceil(n.max(1)),
        converged,
        residual,
    }
}

/// Dispatches one query through the engine: restricts the iteration
/// domain for the structured methods, runs the sweeps, and installs the
/// `Pmax` witness choices.
fn solve_query(
    mdp: &RoutingMdp,
    op: Op,
    goal: &[bool],
    init: &[f64],
    domain: Option<Vec<bool>>,
    options: &SolverOptions,
) -> SolverResult {
    let method = options.method;
    let csr = mdp.csr();
    let n = mdp.len();
    // The structured methods restrict numeric iteration to the states that
    // need it. For `Pmax` the qualitative precomputation overrides the
    // caller's init with the graph-decided exact values; for `Rmin` the
    // `∞`-seeded states are frozen. The Gauss–Seidel baseline keeps the
    // pre-optimization whole-vector behavior, caller init included.
    let (init, active, qual): (Vec<f64>, Option<Vec<bool>>, Option<Qualitative>) = if method
        == SolverMethod::GaussSeidel
    {
        (init.to_vec(), None, None)
    } else {
        match op {
            Op::Pmax => {
                let preds = Preds::build(
                    csr.state_choice_start,
                    csr.choice_branch_start,
                    csr.branch_target,
                );
                let q = pmax_qualitative(
                    csr.state_choice_start,
                    csr.choice_branch_start,
                    csr.branch_target,
                    goal,
                    &preds,
                );
                let telemetry = meda_telemetry::global();
                let prob1 = q.prob1.iter().filter(|&&b| b).count();
                let prob0 = q.reach.iter().filter(|&&b| !b).count();
                telemetry.add("synth.solve.pmax.prob1", prob1 as u64);
                telemetry.add("synth.solve.pmax.prob0", prob0 as u64);
                telemetry.add("synth.solve.pmax.maybe", (n - prob1 - prob0) as u64);
                let init = q
                    .prob1
                    .iter()
                    .map(|&one| if one { 1.0 } else { 0.0 })
                    .collect();
                let active = (0..n).map(|i| q.reach[i] && !q.prob1[i]).collect();
                (init, Some(active), Some(q))
            }
            Op::Rmin => {
                // The caller knows which `∞`-seeded states are frozen
                // (no a.s. strategy) versus merely *starting* at `∞`
                // for the from-above iteration; fall back to the
                // finite-init criterion when it does not say.
                let active = domain.unwrap_or_else(|| init.iter().map(|v| v.is_finite()).collect());
                (init.to_vec(), Some(active), None)
            }
        }
    };
    let mut values = init;
    let mut choice: Vec<Option<Action>> = vec![None; n];
    let spec = SolveSpec {
        op,
        goal,
        active: active.as_deref(),
    };
    let out = run_engine(mdp, &spec, options, &mut values, &mut choice);
    // A certified almost-surely-winning action beats the degenerate
    // first-of-equals tie break the confirmation sweep leaves on `Pmax = 1`
    // states (where every sensible action backs up to exactly 1).
    if let Some(q) = &qual {
        for (i, c) in q.witness.iter().enumerate() {
            if q.prob1[i] && !goal[i] && *c != NO_PICK {
                choice[i] = Some(csr.choice_action[*c as usize]);
            }
        }
    }
    SolverResult {
        values,
        choice,
        iterations: out.iterations,
        converged: out.converged,
        residual: out.residual,
        method,
    }
}

/// Computes `Pmax[◇goal]` over the routing MDP by value iteration on the
/// flat CSR transition arrays (hazard avoidance is structural — see
/// [`meda_core::RoutingMdp`]).
///
/// Values start at 1 on goal states and 0 elsewhere; the iteration is
/// monotone from below, so the fixed point is the least fixed point — the
/// correct maximal reachability probability.
///
/// The structured methods first run the graph-only [`pmax_qualitative`]
/// precomputation, pinning states to exactly 0 (no path to goal) or
/// exactly 1 (an almost-surely-winning strategy exists, whose witness
/// action becomes the state's choice) and iterating only the remainder —
/// none at all on a healthy field.
///
/// # Examples
///
/// ```
/// use meda_core::{ActionConfig, RoutingMdp, UniformField};
/// use meda_grid::Rect;
/// use meda_synth::{max_reach_probability, SolverOptions};
///
/// let mdp = RoutingMdp::build(
///     Rect::new(1, 1, 2, 2),
///     Rect::new(4, 4, 5, 5),
///     Rect::new(1, 1, 5, 5),
///     &UniformField::new(0.5),
///     &ActionConfig::cardinal_only(),
/// )?;
/// let result = max_reach_probability(&mdp, SolverOptions::default());
/// // Every move eventually succeeds, so the goal is reached almost surely.
/// assert!((result.values[mdp.init()] - 1.0).abs() < 1e-6);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[must_use]
pub fn max_reach_probability(mdp: &RoutingMdp, options: SolverOptions) -> SolverResult {
    let telemetry = meda_telemetry::global();
    let _solve_span = telemetry.span("solve.pmax");
    let n = mdp.len();
    let goal: Vec<bool> = (0..n).map(|i| mdp.is_goal(i)).collect();
    let init: Vec<f64> = goal.iter().map(|&g| if g { 1.0 } else { 0.0 }).collect();
    let result = solve_query(mdp, Op::Pmax, &goal, &init, None, &options);
    telemetry.add("synth.solve.pmax.count", 1);
    telemetry.add("synth.solve.pmax.iterations", result.iterations as u64);
    debug_certify(mdp, &result, meda_audit::ValueKind::Reachability, &options);
    result
}

/// Dev-build certification hook: every converged solve leaving this module
/// must pass `meda-audit`'s Bellman-residual certificate — one exact backup
/// of the claimed operator, independent of the solver's trajectory (any
/// method alike).
///
/// The engine's confirmation sweep guarantees the frozen-iterate residual
/// is below `epsilon` at convergence, and both operators are 1-Lipschitz,
/// so one further exact backup can move no value by more than that again —
/// the certificate gets a 4x allowance over `epsilon` (floored near f64
/// round-off) rather than the orders-of-magnitude slack the unconfirmed
/// in-place delta used to need.
///
/// Only the residual over finite states is asserted here: near the
/// `Pmax ≥ 1 − 1e-6` seeding threshold a heavily degraded field can make
/// the strict finite/infinite-consistency check disagree with the solver's
/// thresholded seeding by design, and the hook must never fail a sound
/// solve. The strict check runs in the audit CLI and the corpus tests,
/// where the fields are controlled.
#[allow(unused_variables)]
fn debug_certify(
    mdp: &RoutingMdp,
    result: &SolverResult,
    kind: meda_audit::ValueKind,
    options: &SolverOptions,
) {
    #[cfg(debug_assertions)]
    if result.converged {
        let artifact = meda_audit::ModelArtifact::from(mdp);
        let cert = meda_audit::bellman_certificate(&artifact, &result.values, kind);
        let tolerance = (options.epsilon * 4.0).max(1e-9);
        debug_assert!(
            cert.max_residual <= tolerance && cert.out_of_range.is_empty(),
            "converged {kind:?} solve failed its Bellman certificate: \
             residual {} > {tolerance} (worst state {:?}, {} out of range)",
            cert.max_residual,
            cert.worst_state,
            cert.out_of_range.len(),
        );
    }
}

/// Computes `Rmin[◇goal]` (minimum expected number of cycles to the goal)
/// by value iteration on the stochastic-shortest-path Bellman operator
/// `v(s) ← 1 + min_a Σ_s' p(s'|s,a) · v(s')` over the CSR arrays.
///
/// States from which the goal is not reachable with probability 1 under any
/// strategy keep the value `∞` (the `(π, k) = (∅, ∞)` case of Algorithm 2).
/// An action with an `∞`-valued successor is skipped unless all actions are,
/// and a pure self-loop contributes `∞` directly.
///
/// Computes the required `Pmax` reachability internally; callers that
/// already hold it should use [`min_expected_cycles_with_reach`].
#[must_use]
pub fn min_expected_cycles(mdp: &RoutingMdp, options: SolverOptions) -> SolverResult {
    let reach = max_reach_probability(mdp, options.clone());
    min_expected_cycles_with_reach(mdp, options, &reach)
}

/// [`min_expected_cycles`] reusing an already-computed
/// [`max_reach_probability`] result for the `Pmax = 1` pre-seeding, so the
/// reachability fixed point is not recomputed.
#[must_use]
pub fn min_expected_cycles_with_reach(
    mdp: &RoutingMdp,
    options: SolverOptions,
    reach: &SolverResult,
) -> SolverResult {
    let telemetry = meda_telemetry::global();
    let _solve_span = telemetry.span("solve.rmin");
    let n = mdp.len();
    assert_eq!(reach.values.len(), n, "reach result from a different MDP");
    let goal: Vec<bool> = (0..n).map(|i| mdp.is_goal(i)).collect();
    // Only states with Pmax = 1 admit finite expected time; seed the rest
    // with ∞ so the SSP iteration cannot cheat through them.
    //
    // The structured engines start the iterable states at ∞ too and
    // converge *from above*: every cycle costs at least one cycle per
    // step, so value iteration contracts to the unique fixed point from
    // any start, and from above it is monotone *descending*. In the
    // goal-backward sweep order the first sweep already evaluates a
    // proper policy exactly (an ∞-valued successor disables a choice, so
    // values turn finite layer by layer along real goal-reaching paths),
    // and the remaining sweeps only relax locally around degraded cells —
    // where the classic from-0 ascent instead creeps for hundreds of
    // sweeps as same-layer neighbors bootstrap off each other's
    // underestimates. The Gauss–Seidel baseline keeps the pre-optimization
    // from-0 ascent.
    let from_above = options.method != SolverMethod::GaussSeidel;
    let init: Vec<f64> = (0..n)
        .map(|i| {
            if goal[i] {
                0.0
            } else if reach.values[i] < 1.0 - 1e-6 || from_above {
                f64::INFINITY
            } else {
                0.0
            }
        })
        .collect();
    let domain: Option<Vec<bool>> = from_above.then(|| {
        (0..n)
            .map(|i| goal[i] || reach.values[i] >= 1.0 - 1e-6)
            .collect()
    });
    let result = solve_query(mdp, Op::Rmin, &goal, &init, domain, &options);
    telemetry.add("synth.solve.rmin.count", 1);
    telemetry.add("synth.solve.rmin.iterations", result.iterations as u64);

    debug_certify(
        mdp,
        &result,
        meda_audit::ValueKind::ExpectedCycles,
        &options,
    );
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use meda_core::{ActionConfig, RawField, UniformField};
    use meda_grid::{Cell, ChipDims, Grid, Rect};

    fn line_mdp(force: f64) -> RoutingMdp {
        // 1×1 droplet on a 1-row corridor of length 5.
        RoutingMdp::build(
            Rect::new(1, 1, 1, 1),
            Rect::new(5, 1, 5, 1),
            Rect::new(1, 1, 5, 1),
            &UniformField::new(force),
            &ActionConfig::cardinal_only(),
        )
        .unwrap()
    }

    fn area_mdp(force: f64) -> RoutingMdp {
        RoutingMdp::build(
            Rect::new(1, 1, 2, 2),
            Rect::new(9, 9, 10, 10),
            Rect::new(1, 1, 10, 10),
            &UniformField::new(force),
            &ActionConfig::cardinal_only(),
        )
        .unwrap()
    }

    #[test]
    fn pristine_corridor_reaches_in_distance_steps() {
        let mdp = line_mdp(1.0);
        let r = min_expected_cycles(&mdp, SolverOptions::default());
        assert!((r.values[mdp.init()] - 4.0).abs() < 1e-6);
        assert!(r.converged);
    }

    #[test]
    fn expected_cycles_scale_inversely_with_force() {
        // Per-step success probability p ⇒ expected steps per cell = 1/p.
        let mdp = line_mdp(0.5);
        let r = min_expected_cycles(&mdp, SolverOptions::default());
        assert!((r.values[mdp.init()] - 8.0).abs() < 1e-6);
    }

    #[test]
    fn reach_probability_is_one_with_positive_force() {
        let mdp = line_mdp(0.1);
        let r = max_reach_probability(&mdp, SolverOptions::default());
        assert!((r.values[mdp.init()] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn blocked_corridor_gives_zero_probability_and_infinite_cycles() {
        // Kill the middle cell of the corridor: the droplet can never pass.
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
        let p = max_reach_probability(&mdp, SolverOptions::default());
        assert!(p.values[mdp.init()] < 1e-9);
        let r = min_expected_cycles(&mdp, SolverOptions::default());
        assert!(r.values[mdp.init()].is_infinite());
        assert_eq!(r.choice[mdp.init()], None);
    }

    #[test]
    fn detour_chosen_around_degraded_column() {
        // 2D field with a weak column: the optimal strategy routes around
        // it when a healthy detour exists.
        let dims = ChipDims::new(7, 5);
        let mut f = Grid::new(dims, 1.0);
        for y in 1..=4 {
            f[Cell::new(4, y)] = 0.05; // weak wall with a gap at y = 5
        }
        let field = RawField::new(f);
        let mdp = RoutingMdp::build(
            Rect::new(1, 1, 1, 1),
            Rect::new(7, 1, 7, 1),
            Rect::new(1, 1, 7, 5),
            &field,
            &ActionConfig::cardinal_only(),
        )
        .unwrap();
        let r = min_expected_cycles(&mdp, SolverOptions::default());
        // Straight through: ~2·(1/0.05) = 40+ cycles. Detour via row 5:
        // 6 east + 8 vertical = 14 cycles.
        let v = r.values[mdp.init()];
        assert!(v < 20.0, "expected detour cost < 20, got {v}");
        // And the strategy's first move must not push into the wall.
        let a = r.choice[mdp.init()].unwrap();
        assert_ne!(a, Action::Move(meda_core::Dir::W));
    }

    #[test]
    fn goal_state_has_zero_cost_probability_one() {
        let mdp = line_mdp(0.9);
        let goal_idx = mdp.state_index(Rect::new(5, 1, 5, 1)).unwrap();
        let p = max_reach_probability(&mdp, SolverOptions::default());
        let r = min_expected_cycles(&mdp, SolverOptions::default());
        assert_eq!(p.values[goal_idx], 1.0);
        assert_eq!(r.values[goal_idx], 0.0);
    }

    #[test]
    fn iteration_cap_reported_as_unconverged() {
        let mdp = line_mdp(0.5);
        let r = min_expected_cycles(
            &mdp,
            SolverOptions {
                epsilon: 0.0,
                max_iterations: 2,
                ..SolverOptions::default()
            },
        );
        assert!(!r.converged);
        assert_eq!(r.iterations, 2);
    }

    #[test]
    fn with_reach_matches_recomputed_reach() {
        let mdp = area_mdp(0.6);
        let opts = SolverOptions::default();
        let reach = max_reach_probability(&mdp, opts.clone());
        let via = min_expected_cycles_with_reach(&mdp, opts.clone(), &reach);
        let direct = min_expected_cycles(&mdp, opts);
        assert_eq!(via.values, direct.values);
        assert_eq!(via.choice, direct.choice);
    }

    // -- structure-aware engine ---------------------------------------------

    fn detour_mdp() -> RoutingMdp {
        let dims = ChipDims::new(7, 5);
        let mut f = Grid::new(dims, 1.0);
        for y in 1..=4 {
            f[Cell::new(4, y)] = 0.05;
        }
        RoutingMdp::build(
            Rect::new(1, 1, 1, 1),
            Rect::new(7, 1, 7, 1),
            Rect::new(1, 1, 7, 5),
            &RawField::new(f),
            &ActionConfig::cardinal_only(),
        )
        .unwrap()
    }

    fn assert_close(a: &[f64], b: &[f64], tol: f64, what: &str) {
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            if x.is_infinite() || y.is_infinite() {
                assert_eq!(x, y, "{what}: state {i} finite/infinite mismatch");
            } else {
                assert!(
                    (x - y).abs() <= tol * f64::max(1.0, y.abs()),
                    "{what}: state {i}: {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn all_methods_agree_on_a_degraded_field() {
        let mdp = detour_mdp();
        let with = |method| SolverOptions {
            method,
            ..SolverOptions::default()
        };
        let base_p = max_reach_probability(&mdp, with(SolverMethod::GaussSeidel));
        let base_r = min_expected_cycles(&mdp, with(SolverMethod::GaussSeidel));
        assert_eq!(base_p.method, SolverMethod::GaussSeidel);
        let p = max_reach_probability(&mdp, with(SolverMethod::Topological));
        let r = min_expected_cycles(&mdp, with(SolverMethod::Topological));
        assert!(p.converged && r.converged, "Topological did not converge");
        assert_eq!(p.method, SolverMethod::Topological);
        assert_close(&p.values, &base_p.values, 1e-7, "Pmax");
        assert_close(&r.values, &base_r.values, 1e-7, "Rmin");
    }

    #[test]
    fn default_method_is_topological() {
        let mdp = line_mdp(0.5);
        let r = min_expected_cycles(&mdp, SolverOptions::default());
        assert_eq!(r.method, SolverMethod::Topological);
    }

    #[test]
    fn cyclic_scc_fixture_exercises_within_scc_iteration() {
        // Reversible cardinal moves glue every non-goal state into one big
        // SCC, so this fixture forces the within-component iteration path
        // (goal-anchored backward-BFS sweep order) rather than the
        // one-backup acyclic shortcut.
        let mdp = area_mdp(0.5);
        let cond = mdp.condensation();
        assert_eq!(cond.nontrivial(), 1);
        assert!(cond.largest() > 1);
        let with = |method| SolverOptions {
            method,
            ..SolverOptions::default()
        };
        let topo = min_expected_cycles(&mdp, with(SolverMethod::Topological));
        let gs = min_expected_cycles(&mdp, with(SolverMethod::GaussSeidel));
        assert!(topo.converged && gs.converged);
        assert_close(&topo.values, &gs.values, 1e-7, "cyclic Rmin");
    }

    #[test]
    fn convergence_is_confirmed_against_the_frozen_iterate() {
        // In-place sweep deltas are not Jacobi residuals; the old
        // convergence check took them at face value. The engine must instead confirm against the frozen
        // iterate, so a converged result carries a true Bellman residual
        // below epsilon — checkable by one exact audit backup, with no
        // orders-of-magnitude slack.
        let mdp = area_mdp(0.3);
        for method in [SolverMethod::GaussSeidel, SolverMethod::Topological] {
            let options = SolverOptions {
                epsilon: 1e-3,
                method,
                ..SolverOptions::default()
            };
            let r = min_expected_cycles(&mdp, options.clone());
            assert!(r.converged, "{method:?} did not converge");
            assert!(
                r.residual < options.epsilon,
                "{method:?}: confirmed residual {} not below epsilon",
                r.residual
            );
            let artifact = meda_audit::ModelArtifact::from(&mdp);
            let cert = meda_audit::bellman_certificate(
                &artifact,
                &r.values,
                meda_audit::ValueKind::ExpectedCycles,
            );
            // 1-Lipschitz: one exact backup after the confirmation write-
            // back moves values by at most the confirmed residual.
            assert!(
                cert.max_residual <= options.epsilon * 1.01,
                "{method:?}: audit residual {} exceeds epsilon",
                cert.max_residual
            );
        }
    }
}
