//! The differential oracles of the paper stack.
//!
//! Each oracle checks one *cross-layer agreement* the rest of the
//! workspace silently relies on:
//!
//! 1. [`sim_vs_mdp`] — the simulator's single-step sampler
//!    ([`meda_sim::sample_outcome`]) and the CSR transition structure
//!    exported to `meda-audit` must describe the *same* probabilistic
//!    semantics: identical enabled actions, identical successor sets,
//!    identical probabilities (exactly, per Section V-B), and empirical
//!    outcome frequencies within a Hoeffding concentration bound.
//! 2. [`sensing_round_trip`] — droplet cover → operational-cycle sensing →
//!    **Y** matrix → cluster reconstruction must be the identity on a
//!    pristine chip, and stay within one cell per edge under the stuck
//!    sensor bits the recovery logic is specified against.
//! 3. [`supervisor_dominance`] — on the same chip, fault plan, and seed,
//!    supervised execution must complete at least as many operations as
//!    the unsupervised runner, and must succeed whenever it does (the
//!    escalation ladder only engages after the shared prefix fails).
//! 4. [`reconfig_dominance`] — arming the supervisor's reconfiguration
//!    rung must dominate the plain ladder the same way: the rung only
//!    fires where supervised-only has already committed to aborting, so
//!    relocation can only add completions (one carve-out for a relocation
//!    eating the shared cycle budget).
//! 5. [`bounds_bracket_solver`] — for every generated routing model, the
//!    sound certification pass (`meda-audit`: interval iteration over the
//!    MEC quotient for `Pmax`, the shipped strategy's exact value for
//!    `Rmin`) must converge to width `≤ 2ε`, survive its own
//!    from-scratch re-verification, and bracket both the solver's value
//!    vectors and the exact induced-chain value of its strategy — for
//!    `Pmax` and `Rmin` alike.
//! 6. [`fleet_separation`] — concurrent fleet runs must never violate the
//!    static/dynamic fluidic separation rules in any cycle, and on a
//!    pristine chip concurrency must never cost a completion the serial
//!    fleet achieves (no mutual-blocking livelock).
//! 7. [`fleet_serial_equivalence`] — at width 1 the failure ladder must be
//!    inert on the failure-free path: whenever the plain serial run
//!    succeeds, the laddered run is bit-identical to it (status, cycles,
//!    every actuation pattern, chip wear, and RNG draw count).
//! 8. [`cache_transparency`] — the persistent canonical strategy cache
//!    must be value-transparent: a strategy persisted in the canonical
//!    frame, reloaded by a *fresh* cache instance (so it round-trips
//!    through disk and the load-time audit), and materialized back into
//!    the original frame must have the same exact induced-chain value
//!    (`meda-audit`'s exact evaluation) as cold synthesis.
//!
//! All are deterministic functions of their case (Monte-Carlo sub-checks
//! derive their stream from [`McParams::seed`]), so a failing
//! `(seed, case)` pair replayed from the corpus reproduces bit-for-bit.

use meda_audit::{
    audit_solution_sound, evaluate_strategy, ModelArtifact, ValueKind, CERTIFICATE_EPSILON,
};
use meda_bioassay::{benchmarks, BioassayPlan, RjHelper};
use meda_cell::{apply_stuck_bits, CellParams, OperationalCycle};
use meda_core::{transitions, Action, ActionConfig, BuildError, DegradationField, RoutingMdp};
use meda_grid::{Cell, ChipDims, Grid, Rect};
use meda_rng::{Rng, SeedableRng, StdRng};
use meda_sim::sensing::{locate_droplets, snap_to_size};
use meda_sim::{
    dependency_exemption, sample_outcome, AdaptiveConfig, AdaptivePool, AdaptiveRouter,
    BaselineRouter, BioassayRunner, Biochip, ClonePool, DegradationConfig, FaultPlan,
    FifoScheduler, FleetConfig, FleetRunner, Ladder, RunConfig, RunStatus, Supervisor,
    SupervisorConfig,
};
use meda_synth::{
    canonicalize, materialize, max_reach_probability, min_expected_cycles_with_reach, synthesize,
    PersistentCache, Query, SolverOptions,
};

use crate::arb;
use crate::gen::{boolean, choose, choose_i32, element, vec_of, Gen};
use crate::runner::{run_property, Config, Outcome};

// ---------------------------------------------------------------------------
// Oracle 1: simulator step semantics vs exported MDP structure.
// ---------------------------------------------------------------------------

/// One routing problem instance: a chip, its ground-truth degradation, a
/// start droplet, a start-sized goal region, and an action configuration.
///
/// This is the common input of the sim-vs-MDP oracle and the calibration
/// meta-tests; everything needed to rebuild the reference [`RoutingMdp`]
/// deterministically.
#[derive(Debug, Clone)]
pub struct RoutingScenario {
    /// Chip dimensions.
    pub dims: ChipDims,
    /// Ground-truth degradation matrix **D** (1 = pristine).
    pub degradation: Grid<f64>,
    /// Initial droplet rectangle.
    pub start: Rect,
    /// Goal region (start-sized, so the build precondition always holds).
    pub goal: Rect,
    /// Enabled action classes.
    pub config: ActionConfig,
}

impl RoutingScenario {
    /// The routing bounds: the whole chip.
    #[must_use]
    pub fn bounds(&self) -> Rect {
        self.dims.bounds()
    }

    /// The ground-truth force field the simulator samples from.
    #[must_use]
    pub fn field(&self) -> DegradationField {
        DegradationField::new(self.degradation.clone())
    }

    /// Builds the reference MDP for this scenario.
    ///
    /// # Errors
    ///
    /// Propagates [`BuildError`]; unreachable for generator-produced
    /// scenarios (start and goal are placed inside bounds, goal is
    /// start-sized).
    pub fn build(&self) -> Result<RoutingMdp, BuildError> {
        RoutingMdp::build(
            self.start,
            self.goal,
            self.bounds(),
            &self.field(),
            &self.config,
        )
    }
}

/// Generates routing scenarios on `lo..=hi`-sided chips: droplets up to
/// 2×2, start-sized goals, degradation in `[0.35, 1.0)`, and one of the
/// three action configurations. Shrinks toward a 1×1 droplet on the
/// smallest, weakest chip with cardinal-only actions.
#[must_use]
pub fn routing_scenario(lo: u32, hi: u32) -> Gen<RoutingScenario> {
    arb::dims(lo, hi).flat_map(move |&dims| {
        let bounds = dims.bounds();
        let parts = arb::degradation_matrix(dims, 0.35, 1.0)
            .zip(arb::droplet_in(bounds, 2))
            .zip(element(vec![
                ActionConfig::cardinal_only(),
                ActionConfig::moves_only(),
                ActionConfig::default(),
            ]));
        parts.flat_map(move |t| {
            let ((degradation, start), config) = t;
            let (degradation, start, config) = (degradation.clone(), *start, *config);
            let gx = choose_i32(bounds.xa, bounds.xb - start.width() as i32 + 1);
            let gy = choose_i32(bounds.ya, bounds.yb - start.height() as i32 + 1);
            gx.zip(gy).map(move |&(x, y)| RoutingScenario {
                dims,
                degradation: degradation.clone(),
                start,
                goal: Rect::with_size(x, y, start.width(), start.height()),
                config,
            })
        })
    })
}

/// Parameters of the Monte-Carlo frequency sub-check of [`sim_vs_mdp`].
#[derive(Debug, Clone, Copy)]
pub struct McParams {
    /// Samples drawn per probed `(state, action)` pair.
    pub samples: usize,
    /// Number of random `(state, action)` pairs probed.
    pub pairs: usize,
    /// Seed of the sampling stream (the oracle stays a deterministic
    /// function of its inputs).
    pub seed: u64,
    /// Two-sided failure probability budget per probed branch; the
    /// acceptance band is the Hoeffding radius
    /// `sqrt(ln(2/delta) / (2 * samples))`.
    pub delta: f64,
}

impl Default for McParams {
    fn default() -> Self {
        Self {
            samples: 2_048,
            pairs: 4,
            seed: 0x5EED_CA5E,
            delta: 1e-9,
        }
    }
}

impl McParams {
    /// The concentration radius: an empirical frequency further than this
    /// from its model probability is (with probability `1 - delta` per
    /// branch) a genuine semantic divergence, not sampling noise.
    #[must_use]
    pub fn radius(&self) -> f64 {
        ((2.0 / self.delta).ln() / (2.0 * self.samples as f64)).sqrt()
    }
}

/// Differential oracle 1: checks an exported model artifact (and
/// optionally a synthesized strategy) against the *simulator's* semantics
/// of the same scenario.
///
/// The reference is rebuilt from the scenario: state `i` of a faithful
/// artifact is the rectangle `mdp.state(i)`, its choices are exactly the
/// enabled actions with non-empty outcome distributions, and each branch
/// list equals [`meda_core::transitions`] with zero-probability outcomes
/// dropped. On top of the exact comparison, `mc.pairs` random
/// `(state, action)` pairs are sampled `mc.samples` times through
/// [`meda_sim::sample_outcome`] and the empirical frequencies are required
/// to sit within [`McParams::radius`] of the artifact's probabilities.
///
/// With a strategy, the induced Markov chain is walked from the initial
/// state (mirroring `meda-audit`'s totality/closure audit, with reference
/// reachability values deciding hopefulness): hopeful non-goal states must
/// carry a decision, decisions must name offered actions, and absorbing
/// states must stay undecided.
///
/// # Errors
///
/// Returns a description of the first divergence found.
pub fn sim_vs_mdp(
    scenario: &RoutingScenario,
    art: &ModelArtifact,
    strategy: Option<&[Option<Action>]>,
    mc: &McParams,
) -> Result<(), String> {
    let mdp = scenario
        .build()
        .map_err(|e| format!("reference model failed to build: {e:?}"))?;
    let n = mdp.len();

    // --- Structural agreement with the reference state space. ---
    if art.states != n {
        return Err(format!(
            "artifact has {} states, simulator reaches {n}",
            art.states
        ));
    }
    if art.init != mdp.init() {
        return Err(format!(
            "artifact init {} != reference {}",
            art.init,
            mdp.init()
        ));
    }
    if art.sink.is_some() {
        return Err("artifact declares a hazard sink under GuardDisable".into());
    }
    if art.goal_flags.len() != n {
        return Err(format!("goal_flags length {} != {n}", art.goal_flags.len()));
    }
    structural_csr(art)?;

    // --- Exact per-state semantics vs the simulator's transition law. ---
    let field = scenario.field();
    let bounds = scenario.bounds();
    for i in 0..n {
        let delta = mdp.state(i);
        let is_goal = scenario.goal.contains_rect(delta);
        if art.goal_flags[i] != is_goal {
            return Err(format!(
                "goal flag of state {i} ({delta}) is {}, simulator says {is_goal}",
                art.goal_flags[i]
            ));
        }
        let choices = art.choice_range(i);
        if is_goal {
            if !choices.is_empty() {
                return Err(format!(
                    "goal state {i} ({delta}) has {} choices",
                    choices.len()
                ));
            }
            continue;
        }
        // Enabled actions with non-empty distributions, in Action::ALL
        // order — exactly what the builder records.
        let mut expected: Vec<(Action, Vec<(u32, f64)>)> = Vec::new();
        for action in Action::ALL {
            if !action.is_enabled(delta, bounds, &scenario.config) {
                continue;
            }
            let mut branches: Vec<(u32, f64)> = Vec::new();
            for outcome in transitions(delta, action, &field) {
                if outcome.probability <= 0.0 {
                    continue;
                }
                let Some(t) = mdp.state_index(outcome.droplet) else {
                    return Err(format!(
                        "simulator outcome {} of {action:?} at {delta} is not a model state",
                        outcome.droplet
                    ));
                };
                branches.push((t as u32, outcome.probability));
            }
            if !branches.is_empty() {
                branches.sort_by_key(|a| a.0);
                expected.push((action, branches));
            }
        }
        if choices.len() != expected.len() {
            return Err(format!(
                "state {i} ({delta}): artifact offers {} choices, simulator has {}",
                choices.len(),
                expected.len()
            ));
        }
        for (c, (action, sim_branches)) in choices.zip(expected.iter()) {
            if art.choice_action[c] != *action {
                return Err(format!(
                    "state {i} ({delta}) choice {c}: artifact action {:?}, simulator {action:?}",
                    art.choice_action[c]
                ));
            }
            let mut art_branches: Vec<(u32, f64)> = art
                .branch_range(c)
                .map(|b| (art.branch_target[b], art.branch_prob[b]))
                .collect();
            art_branches.sort_by_key(|a| a.0);
            if art_branches.len() != sim_branches.len() {
                return Err(format!(
                    "state {i} ({delta}) action {action:?}: {} branches vs simulator's {}",
                    art_branches.len(),
                    sim_branches.len()
                ));
            }
            for (&(at, ap), &(st, sp)) in art_branches.iter().zip(sim_branches.iter()) {
                if at != st {
                    return Err(format!(
                        "state {i} ({delta}) action {action:?}: branch targets {at} vs {st}"
                    ));
                }
                if (ap - sp).abs() > 1e-12 {
                    return Err(format!(
                        "state {i} ({delta}) action {action:?} -> {at}: probability {ap} vs \
                         simulator's {sp}"
                    ));
                }
            }
        }
    }

    // --- Monte-Carlo frequency agreement through the live sampler. ---
    monte_carlo_frequencies(scenario, art, &mdp, mc)?;

    // --- Strategy totality and closure against the artifact. ---
    if let Some(choice) = strategy {
        strategy_closure_check(art, &mdp, choice)?;
    }
    Ok(())
}

/// CSR offset sanity: monotone rows, consistent lengths, finite positive
/// probability mass per choice.
fn structural_csr(art: &ModelArtifact) -> Result<(), String> {
    let n = art.states;
    if art.state_choice_start.len() != n + 1 {
        return Err(format!(
            "state_choice_start has {} entries for {n} states",
            art.state_choice_start.len()
        ));
    }
    if art.state_choice_start[0] != 0 {
        return Err("state_choice_start does not begin at 0".into());
    }
    if art.state_choice_start.windows(2).any(|w| w[0] > w[1]) {
        return Err("state_choice_start is not monotone".into());
    }
    let choices = art.choice_action.len();
    if art.state_choice_start[n] as usize != choices {
        return Err(format!(
            "state_choice_start ends at {}, but there are {choices} choices",
            art.state_choice_start[n]
        ));
    }
    if art.choice_branch_start.len() != choices + 1 || art.choice_branch_start.first() != Some(&0) {
        return Err("choice_branch_start has the wrong shape".into());
    }
    if art.choice_branch_start.windows(2).any(|w| w[0] > w[1]) {
        return Err("choice_branch_start is not monotone".into());
    }
    let branches = art.branch_target.len();
    if art.branch_prob.len() != branches || art.choice_branch_start[choices] as usize != branches {
        return Err("branch arrays disagree on length".into());
    }
    for (b, &p) in art.branch_prob.iter().enumerate() {
        if !p.is_finite() || p <= 0.0 || p > 1.0 + 1e-9 {
            return Err(format!("branch {b} has probability {p}"));
        }
    }
    for c in 0..choices {
        let mass: f64 = art.branch_range(c).map(|b| art.branch_prob[b]).sum();
        if (mass - 1.0).abs() > 1e-9 {
            return Err(format!("choice {c} has probability mass {mass}"));
        }
    }
    for (b, &t) in art.branch_target.iter().enumerate() {
        if t as usize >= n {
            return Err(format!("branch {b} targets state {t} of {n}"));
        }
    }
    Ok(())
}

/// Draws `mc.samples` live outcomes for `mc.pairs` random `(state,
/// action)` pairs and checks every branch frequency against the artifact.
fn monte_carlo_frequencies(
    scenario: &RoutingScenario,
    art: &ModelArtifact,
    mdp: &RoutingMdp,
    mc: &McParams,
) -> Result<(), String> {
    let eligible: Vec<usize> = (0..art.states)
        .filter(|&i| !art.choice_range(i).is_empty())
        .collect();
    if eligible.is_empty() || mc.pairs == 0 || mc.samples == 0 {
        return Ok(());
    }
    let field = scenario.field();
    let radius = mc.radius();
    let mut rng = StdRng::seed_from_u64(mc.seed);
    for _ in 0..mc.pairs {
        let i = eligible[rng.gen_range(0..eligible.len())];
        let choices = art.choice_range(i);
        let c = choices.start + rng.gen_range(0..choices.len());
        let action = art.choice_action[c];
        let delta = mdp.state(i);
        let targets: Vec<u32> = art.branch_range(c).map(|b| art.branch_target[b]).collect();
        let probs: Vec<f64> = art.branch_range(c).map(|b| art.branch_prob[b]).collect();
        let mut hits = vec![0usize; targets.len()];
        for _ in 0..mc.samples {
            let landed = sample_outcome(delta, action, &field, &mut rng);
            let Some(t) = mdp.state_index(landed) else {
                return Err(format!(
                    "sampled outcome {landed} of {action:?} at {delta} is not a model state"
                ));
            };
            match targets.iter().position(|&x| x as usize == t) {
                Some(k) => hits[k] += 1,
                None => {
                    return Err(format!(
                        "simulator reached state {t} from {delta} via {action:?}, which the \
                         artifact's branch set {targets:?} does not contain"
                    ));
                }
            }
        }
        for (k, &p) in probs.iter().enumerate() {
            let freq = hits[k] as f64 / mc.samples as f64;
            if (freq - p).abs() > radius {
                return Err(format!(
                    "state {i} ({delta}) action {action:?} -> {}: empirical frequency {freq:.4} \
                     vs model probability {p:.4} (radius {radius:.4}, {} samples)",
                    targets[k], mc.samples
                ));
            }
        }
    }
    Ok(())
}

/// Walks the strategy-induced chain from the initial state, mirroring the
/// audit's totality/closure rules with reference reachability values (from
/// a fresh solve of the rebuilt model) deciding hopefulness.
fn strategy_closure_check(
    art: &ModelArtifact,
    mdp: &RoutingMdp,
    choice: &[Option<Action>],
) -> Result<(), String> {
    let n = art.states;
    if choice.len() != n {
        return Err(format!(
            "strategy has {} entries for {n} states",
            choice.len()
        ));
    }
    let reach = max_reach_probability(mdp, SolverOptions::default());
    let mut seen = vec![false; n];
    let mut stack = vec![art.init];
    seen[art.init] = true;
    while let Some(i) = stack.pop() {
        if art.goal_flags[i] {
            if choice[i].is_some() {
                return Err(format!("strategy decides at absorbing state {i}"));
            }
            continue;
        }
        if reach.values[i] <= 1e-12 {
            continue; // Hopeless: legitimately undecided.
        }
        let Some(action) = choice[i] else {
            return Err(format!(
                "strategy is undecided at hopeful state {i} ({})",
                mdp.state(i)
            ));
        };
        let Some(c) = art
            .choice_range(i)
            .find(|&c| art.choice_action[c] == action)
        else {
            return Err(format!(
                "strategy picks {action:?} at state {i} ({}), which the artifact does not offer",
                mdp.state(i)
            ));
        };
        for b in art.branch_range(c) {
            let t = art.branch_target[b] as usize;
            if t >= n {
                return Err(format!("strategy-reachable branch {b} escapes to {t}"));
            }
            if !seen[t] {
                seen[t] = true;
                stack.push(t);
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Oracle 2: sensing round trip.
// ---------------------------------------------------------------------------

/// One sensing round-trip case: a droplet on a chip plus stuck sensor
/// bits concentrated around it (far-away faults are exercised too, but
/// rarely interact with the cluster).
#[derive(Debug, Clone)]
pub struct SensingCase {
    /// Chip dimensions.
    pub dims: ChipDims,
    /// Ground-truth droplet rectangle.
    pub droplet: Rect,
    /// Stuck location-sensing bits.
    pub stuck: Vec<meda_cell::StuckBit>,
}

/// Generates sensing cases on `lo..=hi`-sided chips: droplets up to 3×3
/// and up to 4 stuck bits placed within 2 cells of the droplet. Shrinks
/// toward a fault-free 1×1 droplet in the corner.
#[must_use]
pub fn sensing_case(lo: u32, hi: u32) -> Gen<SensingCase> {
    arb::dims(lo, hi).flat_map(move |&dims| {
        let bounds = dims.bounds();
        arb::droplet_in(bounds, 3).flat_map(move |&droplet| {
            let near = droplet.expand(2).intersection(bounds).map_or(bounds, |r| r);
            let cell = choose_i32(near.xa, near.xb)
                .zip(choose_i32(near.ya, near.yb))
                .map(|&(x, y)| Cell::new(x, y));
            let bit = cell
                .zip(boolean())
                .map(|&(cell, reads)| meda_cell::StuckBit { cell, reads });
            vec_of(bit, 0, 4).map(move |stuck| SensingCase {
                dims,
                droplet,
                stuck: stuck.clone(),
            })
        })
    })
}

/// Differential oracle 2: the droplet cover is pushed through the *cell
/// crate's* operational-cycle sensing (capacitance waveforms, dual-DFF
/// sampling), corrupted by the case's stuck bits, and reconstructed with
/// the *simulator's* cluster logic ([`locate_droplets`] +
/// [`snap_to_size`]). The contract:
///
/// * no effective faults — reconstruction is the **identity**;
/// * stuck-at-0 holes that keep the cover connected — still the identity
///   (the snap window prefers the true anchor, which always covers the
///   shrunken cluster);
/// * additionally stuck-at-1 phantoms 4-adjacent to surviving cover —
///   a same-size estimate within **one cell per edge**.
///
/// Fault patterns outside the contract (covers split in two, phantoms
/// floating free) are vacuously accepted: the engine handles those via
/// dead reckoning and failure statuses, not reconstruction.
///
/// # Errors
///
/// Returns a description of the first broken reconstruction guarantee.
pub fn sensing_round_trip(case: &SensingCase) -> Result<(), String> {
    let dims = case.dims;
    let params = CellParams::paper();
    let cycle = OperationalCycle::new(dims, params);
    let caps = Grid::new(dims, params.cap_healthy);
    let mut cover = Grid::new(dims, false);
    cover.fill_rect(case.droplet, true);

    let report = cycle.run(&Grid::new(dims, false), &caps, &cover);
    let mut y = report.locations;
    apply_stuck_bits(&mut y, &case.stuck);

    // Classify the effective corruption from the final Y matrix.
    let mut remaining: Vec<Cell> = Vec::new();
    let mut phantoms: Vec<Cell> = Vec::new();
    for (cell, &set) in y.iter() {
        let inside = case.droplet.contains_cell(cell);
        if inside && set {
            remaining.push(cell);
        }
        if !inside && set {
            phantoms.push(cell);
        }
    }
    let holes = case.droplet.area() as usize - remaining.len();

    if remaining.is_empty() {
        return Ok(()); // Droplet fully swallowed: dead-reckoning territory.
    }
    if !is_connected(&remaining) {
        return Ok(()); // Cover split: reconstruction is not specified.
    }
    let adjacent = |p: Cell, cells: &[Cell]| {
        cells
            .iter()
            .any(|&c| (c.x - p.x).abs() + (c.y - p.y).abs() == 1)
    };
    if !phantoms.iter().all(|&p| adjacent(p, &remaining)) {
        return Ok(()); // Free-floating phantom: separate cluster, not specified.
    }

    let clusters = locate_droplets(&y);
    if clusters.len() != 1 {
        return Err(format!(
            "expected one connected cluster, sensed {} (case {case:?})",
            clusters.len()
        ));
    }
    let estimate = snap_to_size(clusters[0].bounds, case.droplet);
    if estimate.width() != case.droplet.width() || estimate.height() != case.droplet.height() {
        return Err(format!(
            "estimate {estimate} does not preserve the droplet size of {}",
            case.droplet
        ));
    }
    if holes == 0 && phantoms.is_empty() && estimate != case.droplet {
        return Err(format!(
            "pristine round trip is not the identity: {} became {estimate}",
            case.droplet
        ));
    }
    if phantoms.is_empty() && estimate != case.droplet {
        return Err(format!(
            "connected holes must reconstruct exactly: {} became {estimate}",
            case.droplet
        ));
    }
    let d = case.droplet;
    let off = [
        estimate.xa - d.xa,
        estimate.ya - d.ya,
        estimate.xb - d.xb,
        estimate.yb - d.yb,
    ];
    if off.iter().any(|e| e.abs() > 1) {
        return Err(format!(
            "estimate {estimate} drifts more than one cell per edge from {d}"
        ));
    }
    Ok(())
}

/// 4-connectivity of a non-empty cell set.
fn is_connected(cells: &[Cell]) -> bool {
    let mut seen = vec![false; cells.len()];
    let mut stack = vec![0usize];
    seen[0] = true;
    let mut count = 1;
    while let Some(i) = stack.pop() {
        for (j, &c) in cells.iter().enumerate() {
            if !seen[j] && (c.x - cells[i].x).abs() + (c.y - cells[i].y).abs() == 1 {
                seen[j] = true;
                count += 1;
                stack.push(j);
            }
        }
    }
    count == cells.len()
}

// ---------------------------------------------------------------------------
// Oracle 3: supervised execution dominates unsupervised.
// ---------------------------------------------------------------------------

/// One dominance trial: a generated chip, a generated fault plan, and a
/// run seed, executed with and without the supervisor.
#[derive(Debug, Clone)]
pub struct DominanceCase {
    /// Seed of the chip's degradation landscape.
    pub chip_seed: u64,
    /// Seed of the execution randomness (shared by both runs).
    pub run_seed: u64,
    /// The chaos plan both runs face.
    pub faults: FaultPlan,
}

/// Cycle budget of both dominance runs.
const DOMINANCE_K_MAX: u64 = 1_200;

/// Generates dominance cases on the paper's 60×30 chip: seeds shrink
/// toward 0 and the fault plan toward [`FaultPlan::none`].
#[must_use]
pub fn dominance_case() -> Gen<DominanceCase> {
    choose(0, 1 << 20)
        .zip(choose(0, 1 << 20))
        .zip(arb::fault_plan(ChipDims::PAPER, DOMINANCE_K_MAX))
        .map(|t| {
            let ((chip_seed, run_seed), faults) = t;
            DominanceCase {
                chip_seed: chip_seed.unsigned_abs(),
                run_seed: run_seed.unsigned_abs(),
                faults: faults.clone(),
            }
        })
}

/// Differential oracle 3: on the same chip, fault plan, and seed, the
/// supervised stack must dominate the plain runner — succeed whenever it
/// succeeds and complete at least as many operations.
///
/// This is a per-seed theorem, not a statistical claim: supervised
/// execution is bit-identical to the plain runner until the first failure
/// (the escalation ladder exists only on the failure path), so the plain
/// run's completed prefix is always available to the supervisor, whose
/// retries can only add to it. The watchdog is disarmed
/// (`attempt_cycles = k_max`) so no attempt the plain runner would have
/// finished is preempted.
///
/// # Errors
///
/// Returns a description of the dominance violation.
pub fn supervisor_dominance(case: &DominanceCase) -> Result<(), String> {
    let plan = master_mix_plan()?;
    let run = RunConfig {
        k_max: DOMINANCE_K_MAX,
        record_actuation: false,
        sensed_feedback: true,
    };

    let chip = |seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        Biochip::generate(ChipDims::PAPER, &DegradationConfig::paper(), &mut rng)
    };

    let plain = {
        let mut chip = chip(case.chip_seed);
        let mut router = AdaptiveRouter::new(AdaptiveConfig::paper());
        let mut rng = StdRng::seed_from_u64(case.run_seed);
        BioassayRunner::new(run).run_with_chaos(
            &plan,
            &mut chip,
            &mut router,
            &mut FifoScheduler::new(),
            &case.faults,
            &mut rng,
        )
    };

    let supervised = {
        let mut chip = chip(case.chip_seed);
        let mut router = AdaptiveRouter::new(AdaptiveConfig::paper());
        let mut rng = StdRng::seed_from_u64(case.run_seed);
        Supervisor::new(SupervisorConfig {
            run,
            attempt_cycles: run.k_max,
            ..SupervisorConfig::default()
        })
        .run(&plan, &mut chip, &mut router, &case.faults, &mut rng)
    };

    if plain.is_success() && !supervised.is_success() {
        return Err(format!(
            "plain run succeeded but supervised ended {:?} after {} cycles",
            supervised.status, supervised.cycles
        ));
    }
    if supervised.completed_ops < plain.completed_ops {
        return Err(format!(
            "supervised completed {}/{} operations, plain completed {}/{}",
            supervised.completed_ops, supervised.total_ops, plain.completed_ops, plain.total_ops
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Oracle 4: the reconfiguration rung dominates the plain ladder.
// ---------------------------------------------------------------------------

/// Differential oracle 4: on the same chip, fault plan, and seed, the
/// supervised stack with the reconfiguration rung armed must dominate the
/// supervised-only stack — succeed whenever it succeeds and complete at
/// least as many operations.
///
/// Near-theorem, one principled carve-out: with the rung disarmed the two
/// stacks are byte-for-byte the same code path, and the rung only fires
/// where supervised-only has already committed to aborting the operation —
/// so relocation can only add completions. The exception is the shared
/// cycle budget: a relocation attempt burns cycles that supervised-only
/// would have spent executing later operations, so when the reconfiguring
/// run dies on [`RunStatus::CycleLimit`] the comparison is between
/// different-length prefixes and dominance is not claimed.
///
/// # Errors
///
/// Returns a description of the dominance violation.
pub fn reconfig_dominance(case: &DominanceCase) -> Result<(), String> {
    let plan = master_mix_plan()?;
    let run = RunConfig {
        k_max: DOMINANCE_K_MAX,
        record_actuation: false,
        sensed_feedback: true,
    };

    let chip = |seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        Biochip::generate(ChipDims::PAPER, &DegradationConfig::paper(), &mut rng)
    };
    let supervised_run = |reconfig_budget: u32| {
        let mut chip = chip(case.chip_seed);
        let mut router = AdaptiveRouter::new(AdaptiveConfig::paper());
        let mut rng = StdRng::seed_from_u64(case.run_seed);
        Supervisor::new(SupervisorConfig {
            run,
            attempt_cycles: run.k_max,
            reconfig_budget,
            ..SupervisorConfig::default()
        })
        .run(&plan, &mut chip, &mut router, &case.faults, &mut rng)
    };

    let plain_ladder = supervised_run(0);
    let reconfig = supervised_run(2);

    if reconfig.status == RunStatus::CycleLimit {
        // The relocation attempts ate the shared cycle budget; the two
        // prefixes are no longer comparable (see the doc carve-out).
        return Ok(());
    }
    if plain_ladder.is_success() && !reconfig.is_success() {
        return Err(format!(
            "supervised-only succeeded but reconfig ended {:?} after {} cycles ({} relocations)",
            reconfig.status, reconfig.cycles, reconfig.rungs.reconfig
        ));
    }
    if reconfig.completed_ops < plain_ladder.completed_ops {
        return Err(format!(
            "reconfig completed {}/{} operations ({} relocations), supervised-only completed {}/{}",
            reconfig.completed_ops,
            reconfig.total_ops,
            reconfig.rungs.reconfig,
            plain_ladder.completed_ops,
            plain_ladder.total_ops
        ));
    }
    Ok(())
}

/// The fixed bioassay both dominance runs execute.
fn master_mix_plan() -> Result<BioassayPlan, String> {
    RjHelper::new(ChipDims::PAPER)
        .plan(&benchmarks::master_mix())
        .map_err(|e| format!("master mix plan failed: {e:?}"))
}

// ---------------------------------------------------------------------------
// Oracle 6: concurrent fleet separation (and completion parity).
// ---------------------------------------------------------------------------

/// One concurrent-fleet trial: a generated chip, a fleet width, an assay,
/// and the execution seed.
#[derive(Debug, Clone)]
pub struct FleetCase {
    /// Seed of the chip's degradation landscape.
    pub chip_seed: u64,
    /// Seed of the execution randomness.
    pub run_seed: u64,
    /// Fleet width (`max_active`), 2–4; shrinks toward 2.
    pub width: usize,
    /// Run the parallel multiplex in-vitro panel instead of the (mostly
    /// sequential) master mix.
    pub multiplex: bool,
}

/// Generates fleet cases on the paper's 60×30 chip: seeds shrink toward 0,
/// the width toward 2, and the assay toward the master mix.
#[must_use]
pub fn fleet_case() -> Gen<FleetCase> {
    choose(0, 1 << 20)
        .zip(choose(0, 1 << 20))
        .zip(choose(2, 4))
        .zip(boolean())
        .map(|t| {
            let (((chip_seed, run_seed), width), ref multiplex) = t;
            FleetCase {
                chip_seed: chip_seed.unsigned_abs(),
                run_seed: run_seed.unsigned_abs(),
                width: width.unsigned_abs() as usize,
                multiplex: *multiplex,
            }
        })
}

/// The plan a fleet case executes.
fn fleet_plan(case: &FleetCase) -> Result<BioassayPlan, String> {
    let sg = if case.multiplex {
        benchmarks::multiplex_invitro((4, 4))
    } else {
        benchmarks::master_mix()
    };
    RjHelper::new(ChipDims::PAPER)
        .plan(&sg)
        .map_err(|e| format!("fleet plan failed: {e:?}"))
}

/// Oracle 6: concurrent fleet routing never violates the fluidic
/// separation rules, and concurrency never costs completions on a clean
/// chip.
///
/// Two claims per case. **Separation**: a concurrent run on the generated
/// degraded chip, with every in-flight position recorded, must pass the
/// static + dynamic [`meda_sim::FluidicConstraints`] audit (dependency
/// handoffs exempt — the same physical droplet changes MO id at a
/// producer→consumer boundary). **Completion parity**: on a pristine chip,
/// whenever the serial fleet completes the assay the concurrent fleet must
/// too — a mutual-blocking livelock that burns the cycle budget would
/// surface here as a `CycleLimit`.
///
/// # Errors
///
/// Returns a description of the separation violation or completion loss.
pub fn fleet_separation(case: &FleetCase) -> Result<(), String> {
    let plan = fleet_plan(case)?;
    let run = RunConfig {
        k_max: DOMINANCE_K_MAX,
        record_actuation: false,
        sensed_feedback: false,
    };
    let fleet_run = |width: usize, degradation: &DegradationConfig, movers: bool| {
        let mut rng = StdRng::seed_from_u64(case.chip_seed);
        let mut chip = Biochip::generate(ChipDims::PAPER, degradation, &mut rng);
        let mut rng = StdRng::seed_from_u64(case.run_seed);
        let mut pool = ClonePool::new(BaselineRouter::new());
        FleetRunner::new(FleetConfig {
            record_movers: movers,
            ..FleetConfig::concurrent(width, run)
        })
        .run(
            &plan,
            &mut chip,
            &mut pool,
            &mut FifoScheduler::new(),
            &FaultPlan::none(),
            &mut rng,
        )
    };

    let concurrent = fleet_run(case.width, &DegradationConfig::paper(), true);
    let log = concurrent.movers.as_deref().unwrap_or(&[]);
    if let Some(v) = FleetConfig::default()
        .constraints
        .audit_exempting(log, dependency_exemption(&plan))
    {
        return Err(format!(
            "fluidic separation violated at width {}: {v:?}",
            case.width
        ));
    }

    let serial = fleet_run(1, &DegradationConfig::pristine(), false);
    let clean = fleet_run(case.width, &DegradationConfig::pristine(), false);
    if serial.is_success() && !clean.is_success() {
        return Err(format!(
            "serial fleet succeeded in {} cycles but width {} ended {:?} ({}/{} ops) after {}",
            serial.cycles,
            case.width,
            clean.status,
            clean.completed_ops,
            clean.total_ops,
            clean.cycles
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Oracle 7: the width-1 failure ladder is inert until the first failure.
// ---------------------------------------------------------------------------

/// Differential oracle 7: on the same chip, fault plan, and seed, with
/// sensed feedback closed, a width-1 run under the full failure ladder
/// (default retries, two relocations, watchdog disarmed) must be
/// *bit-identical* to the plain serial run whenever the plain run
/// succeeds — same status, cycle count, per-cycle actuation patterns,
/// total electrode actuations, and number of RNG draws.
///
/// The ladder, the watchdog and the reconfiguration rung exist only on
/// the failure path, so none of them may perturb a run that never fails.
/// (Behaviour against the serial loop the fleet engine replaced is pinned
/// by `crates/sim/tests/engine_reference.rs`, a digest corpus recorded on
/// that loop.)
///
/// # Errors
///
/// Returns the first divergence between the two runs.
pub fn fleet_serial_equivalence(case: &DominanceCase) -> Result<(), String> {
    let plan = master_mix_plan()?;
    let run = RunConfig {
        k_max: DOMINANCE_K_MAX,
        record_actuation: true,
        sensed_feedback: true,
    };
    let chip = |seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        Biochip::generate(ChipDims::PAPER, &DegradationConfig::paper(), &mut rng)
    };

    let (serial, serial_wear, serial_draw) = {
        let mut chip = chip(case.chip_seed);
        let mut router = AdaptiveRouter::new(AdaptiveConfig::paper());
        let mut rng = StdRng::seed_from_u64(case.run_seed);
        let out = BioassayRunner::new(run).run_with_chaos(
            &plan,
            &mut chip,
            &mut router,
            &mut FifoScheduler::new(),
            &case.faults,
            &mut rng,
        );
        (out, chip.total_actuations(), rng.gen::<u64>())
    };
    if !serial.is_success() {
        return Ok(());
    }
    let (fleet, fleet_wear, fleet_draw) = {
        let mut chip = chip(case.chip_seed);
        let mut pool = AdaptivePool::new(AdaptiveConfig::paper());
        let mut rng = StdRng::seed_from_u64(case.run_seed);
        let laddered = FleetConfig {
            attempt_cycles: Some(run.k_max),
            ladder: Some(Ladder {
                reconfig_budget: 2,
                ..Ladder::default()
            }),
            ..FleetConfig::serial(run)
        };
        let out = FleetRunner::new(laddered).run(
            &plan,
            &mut chip,
            &mut pool,
            &mut FifoScheduler::new(),
            &case.faults,
            &mut rng,
        );
        (out, chip.total_actuations(), rng.gen::<u64>())
    };

    if (serial.status, serial.cycles, serial.completed_ops)
        != (fleet.status, fleet.cycles, fleet.completed_ops)
    {
        return Err(format!(
            "outcome diverged: plain {:?}/{} cycles/{} ops, laddered {:?}/{} cycles/{} ops",
            serial.status,
            serial.cycles,
            serial.completed_ops,
            fleet.status,
            fleet.cycles,
            fleet.completed_ops
        ));
    }
    let (st, ft) = (
        serial.trace.as_deref().unwrap_or(&[]),
        fleet.trace.as_deref().unwrap_or(&[]),
    );
    if st.len() != ft.len() {
        return Err(format!(
            "trace lengths diverged: plain {}, laddered {}",
            st.len(),
            ft.len()
        ));
    }
    if let Some(cycle) = st.iter().zip(ft).position(|(a, b)| a != b) {
        return Err(format!("actuation patterns diverged at cycle {cycle}"));
    }
    if serial_wear != fleet_wear {
        return Err(format!(
            "chip wear diverged: plain {serial_wear} actuations, laddered {fleet_wear}"
        ));
    }
    if serial_draw != fleet_draw {
        return Err("RNG streams diverged (different draw counts)".to_string());
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Suite driver (shared by `meda check` and the test harness).
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// Oracle 5: certified interval bounds vs the solver.
// ---------------------------------------------------------------------------

/// Oracle 5: the sound certification pass must bracket the solver.
///
/// Builds the scenario's reference MDP, solves `Pmax` and `Rmin`, and runs
/// [`audit_solution_sound`] on each solution: the certificate (`Pmax`
/// interval iteration; `Rmin` read off the shipped strategy's exact
/// value) must verify from scratch, the solver's values must lie inside
/// `[lo, hi]`, the exact induced-chain value of the shipped strategy must
/// too, and the certificate must have converged to width `≤ 2ε`. A
/// failure here means the solver and the certifier disagree about a value
/// — exactly the class of bug the Bellman-residual certificate is blind
/// to (see `meda-audit`'s `unsound_vi_fixture`).
///
/// # Errors
///
/// Returns the combined audit report (or the non-convergence diagnosis)
/// of the first query that fails.
pub fn bounds_bracket_solver(scenario: &RoutingScenario) -> Result<(), String> {
    let mdp = scenario
        .build()
        .map_err(|e| format!("model failed to build: {e:?}"))?;
    let art = ModelArtifact::from(&mdp);
    let reach = max_reach_probability(&mdp, SolverOptions::default());
    let cycles = min_expected_cycles_with_reach(&mdp, SolverOptions::default(), &reach);
    for (kind, result) in [
        (ValueKind::Reachability, &reach),
        (ValueKind::ExpectedCycles, &cycles),
    ] {
        let (report, cert) = audit_solution_sound(
            &art,
            &result.values,
            &result.choice,
            kind,
            CERTIFICATE_EPSILON,
        );
        if !report.is_clean() {
            return Err(format!(
                "[{kind:?}] sound audit rejected the solver's own solution:\n{report}"
            ));
        }
        let cert = cert.ok_or_else(|| format!("[{kind:?}] clean report without a certificate"))?;
        if !cert.converged {
            return Err(format!(
                "[{kind:?}] bounds did not converge: width {} after {} iterations",
                cert.width, cert.iterations
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Oracle 8: the persistent strategy cache is value-transparent.
// ---------------------------------------------------------------------------

/// Oracle 8: warm-cache routing must match cold synthesis exactly.
///
/// Synthesizes the scenario cold in its original frame and evaluates the
/// strategy's *exact* induced-chain value. Then drives the whole persistent
/// pipeline: canonicalize, synthesize in the canonical frame, persist to
/// disk, reload through a **fresh** [`PersistentCache`] instance (so the
/// entry round-trips through the serialized form and the load-time audit),
/// and materialize back into the original frame. The reloaded strategy's
/// exact value at the initial state must equal the cold value — the two
/// frames may pick different optimal actions and sum floats in different
/// orders, so equality is up to a `1e-6` relative tolerance, three orders
/// of magnitude above the solver's `1e-9` convergence threshold.
///
/// A failure here means the cache changed what gets routed — a broken
/// symmetry map, a lossy entry encoding, or a load-time audit that let a
/// wrong strategy through.
///
/// # Errors
///
/// Returns a description of the first divergence: a spurious cold hit, a
/// warm miss or rejection, a materialization failure, or a value mismatch.
pub fn cache_transparency(scenario: &RoutingScenario) -> Result<(), String> {
    let mdp = scenario
        .build()
        .map_err(|e| format!("model failed to build: {e:?}"))?;
    let Ok(cold) = synthesize(&mdp, Query::MinExpectedCycles) else {
        // Goal unreachable with certainty: nothing the cache could serve.
        return Ok(());
    };
    let art = ModelArtifact::from(&mdp);
    let cold_choice: Vec<Option<Action>> =
        (0..mdp.len()).map(|i| cold.decide(mdp.state(i))).collect();
    let cold_eval = evaluate_strategy(&art, &cold_choice, ValueKind::ExpectedCycles)
        .map_err(|v| format!("cold strategy failed exact evaluation: {v:?}"))?;
    let cold_value = cold_eval.values[art.init];

    let (cjob, transform) = canonicalize(
        scenario.start,
        scenario.goal,
        scenario.bounds(),
        &scenario.field(),
        &[],
        &scenario.config,
        Query::MinExpectedCycles,
    );
    let dir = std::path::PathBuf::from(format!(
        "target/check-cache/{}-{:016x}",
        std::process::id(),
        cjob.digest()
    ));
    let _ = std::fs::remove_dir_all(&dir);

    let outcome = (|| -> Result<(), String> {
        // Cold pass: miss, synthesize canonically, persist.
        let mut cache =
            PersistentCache::open(&dir, 8).map_err(|e| format!("cache open failed: {e}"))?;
        if cache.get(&cjob).is_some() {
            return Err("empty cache reported a hit before any insert".to_string());
        }
        let canon = cjob.synthesize().ok_or_else(|| {
            "canonical frame failed to synthesize where the original frame succeeded".to_string()
        })?;
        cache
            .insert(&cjob, canon)
            .map_err(|e| format!("cache insert failed: {e}"))?;
        drop(cache);

        // Warm pass: a fresh instance has an empty memory tier, so the hit
        // must come off disk, through the load-time audit.
        let mut warm =
            PersistentCache::open(&dir, 8).map_err(|e| format!("cache reopen failed: {e}"))?;
        let loaded = warm.get(&cjob).ok_or_else(|| {
            format!(
                "warm cache missed the persisted entry (rejected: {})",
                warm.stats().rejected
            )
        })?;
        if warm.stats().disk_hits != 1 {
            return Err(format!("expected one disk hit, stats: {:?}", warm.stats()));
        }
        let warm_strategy = materialize(&loaded, &transform, mdp).ok_or_else(|| {
            "loaded canonical strategy failed to materialize into the original frame".to_string()
        })?;
        let warm_choice: Vec<Option<Action>> = (0..warm_strategy.mdp().len())
            .map(|i| warm_strategy.decide(warm_strategy.mdp().state(i)))
            .collect();
        let warm_eval = evaluate_strategy(&art, &warm_choice, ValueKind::ExpectedCycles)
            .map_err(|v| format!("warm strategy failed exact evaluation: {v:?}"))?;
        let warm_value = warm_eval.values[art.init];

        if !cold_value.is_finite() || !warm_value.is_finite() {
            return if cold_value.is_finite() == warm_value.is_finite() {
                Ok(())
            } else {
                Err(format!(
                    "finiteness diverged: cold {cold_value}, warm {warm_value}"
                ))
            };
        }
        let scale = cold_value.abs().max(1.0);
        if (warm_value - cold_value).abs() > 1e-6 * scale {
            return Err(format!(
                "cache broke value transparency: cold {cold_value}, warm {warm_value}"
            ));
        }
        Ok(())
    })();
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

/// Outcome of one suite property, reduced to what the CLI reports.
#[derive(Debug, Clone)]
pub struct SuiteOutcome {
    /// Property name (the corpus key).
    pub name: &'static str,
    /// Whether every replayed and generated case passed.
    pub passed: bool,
    /// Random cases executed.
    pub cases: usize,
    /// Corpus entries replayed.
    pub replayed: usize,
    /// Full failure report when `passed` is false.
    pub report: Option<String>,
}

/// Reduces a typed outcome to a [`SuiteOutcome`].
fn summarize<T: std::fmt::Debug>(name: &'static str, outcome: &Outcome<T>) -> SuiteOutcome {
    match outcome {
        Outcome::Passed { cases, replayed } => SuiteOutcome {
            name,
            passed: true,
            cases: *cases,
            replayed: *replayed,
            report: None,
        },
        Outcome::Failed(f) => SuiteOutcome {
            name,
            passed: false,
            cases: f.case + 1,
            replayed: 0,
            report: Some(f.report()),
        },
    }
}

/// Runs oracle 1 over generated scenarios (artifact and strategy taken
/// from a fresh build + solve, so a pass certifies builder, exporter,
/// solver, and sampler agree).
#[must_use]
pub fn check_sim_vs_mdp(config: &Config) -> SuiteOutcome {
    let gen = routing_scenario(4, 8);
    let out = run_property("oracle-sim-vs-mdp", config, &gen, |s: &RoutingScenario| {
        let mdp = s
            .build()
            .map_err(|e| format!("model failed to build: {e:?}"))?;
        let art = ModelArtifact::from(&mdp);
        let reach = max_reach_probability(&mdp, SolverOptions::default());
        sim_vs_mdp(s, &art, Some(&reach.choice), &McParams::default())
    });
    summarize("oracle-sim-vs-mdp", &out)
}

/// Runs oracle 2 over generated sensing cases.
#[must_use]
pub fn check_sensing_round_trip(config: &Config) -> SuiteOutcome {
    let gen = sensing_case(6, 14);
    let out = run_property(
        "oracle-sensing-round-trip",
        config,
        &gen,
        sensing_round_trip,
    );
    summarize("oracle-sensing-round-trip", &out)
}

/// Runs oracle 3 over generated chips and fault plans. Each case executes
/// two full bioassays, so callers usually hand this a reduced budget (see
/// [`run_suite`]).
#[must_use]
pub fn check_supervisor_dominance(config: &Config) -> SuiteOutcome {
    let gen = dominance_case();
    let out = run_property(
        "oracle-supervisor-dominance",
        config,
        &gen,
        supervisor_dominance,
    );
    summarize("oracle-supervisor-dominance", &out)
}

/// Runs oracle 4 over generated chips and fault plans — like oracle 3,
/// two full bioassays per case, so it gets the same reduced budget.
#[must_use]
pub fn check_reconfig_dominance(config: &Config) -> SuiteOutcome {
    let gen = dominance_case();
    let out = run_property(
        "oracle-reconfig-dominance",
        config,
        &gen,
        reconfig_dominance,
    );
    summarize("oracle-reconfig-dominance", &out)
}

/// Runs oracle 5 over generated scenarios. Each case runs two solves plus
/// two certifications of the same model, so it gets a quarter of the case
/// budget (see [`run_suite`]).
#[must_use]
pub fn check_bounds_bracket_solver(config: &Config) -> SuiteOutcome {
    let gen = routing_scenario(4, 8);
    let out = run_property(
        "oracle-bounds-bracket-solver",
        config,
        &gen,
        bounds_bracket_solver,
    );
    summarize("oracle-bounds-bracket-solver", &out)
}

/// Runs oracle 6 over generated fleet cases — three fleet runs per case,
/// all with the fast baseline router, so it gets a quarter of the budget.
#[must_use]
pub fn check_fleet_separation(config: &Config) -> SuiteOutcome {
    let gen = fleet_case();
    let out = run_property("oracle-fleet-separation", config, &gen, fleet_separation);
    summarize("oracle-fleet-separation", &out)
}

/// Runs oracle 7 over generated chips and fault plans — up to two full
/// adaptive bioassays per case, so it gets the dominance oracles' reduced
/// budget.
#[must_use]
pub fn check_fleet_serial_equivalence(config: &Config) -> SuiteOutcome {
    let gen = dominance_case();
    let out = run_property(
        "oracle-fleet-serial-equivalence",
        config,
        &gen,
        fleet_serial_equivalence,
    );
    summarize("oracle-fleet-serial-equivalence", &out)
}

/// Runs oracle 8 over generated scenarios — two synthesis runs, two exact
/// strategy evaluations, and a disk round-trip per case, so it gets the
/// same quarter budget as oracle 5.
#[must_use]
pub fn check_cache_transparency(config: &Config) -> SuiteOutcome {
    let gen = routing_scenario(4, 8);
    let out = run_property(
        "oracle-cache-transparency",
        config,
        &gen,
        cache_transparency,
    );
    summarize("oracle-cache-transparency", &out)
}

/// Runs the full oracle suite. Oracles 3, 4, and 7 run at an eighth of the
/// case budget (each of their cases executes two complete bioassays);
/// oracles 5, 6, and 8 run at a quarter (two solves + two certifications,
/// three fleet runs, or two synthesis runs plus a disk round-trip, per
/// case).
#[must_use]
pub fn run_suite(config: &Config) -> Vec<SuiteOutcome> {
    let dominance = config.clone().with_cases((config.cases / 8).max(1));
    let bounds = config.clone().with_cases((config.cases / 4).max(1));
    vec![
        check_sim_vs_mdp(config),
        check_sensing_round_trip(config),
        check_supervisor_dominance(&dominance),
        check_reconfig_dominance(&dominance),
        check_bounds_bracket_solver(&bounds),
        check_fleet_separation(&bounds),
        check_fleet_serial_equivalence(&dominance),
        check_cache_transparency(&bounds),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_generator_always_builds() {
        let g = routing_scenario(4, 8);
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..20 {
            let t = g.generate(&mut rng);
            assert!(t.value().build().is_ok(), "{:?}", t.value());
            for c in t.children().into_iter().take(5) {
                assert!(c.value().build().is_ok(), "shrunk: {:?}", c.value());
            }
        }
    }

    #[test]
    fn hoeffding_radius_matches_the_formula() {
        let mc = McParams {
            samples: 2_048,
            ..McParams::default()
        };
        // sqrt(ln(2e9) / 4096)
        assert!((mc.radius() - 0.072_352).abs() < 1e-4);
    }

    #[test]
    fn is_connected_detects_splits() {
        let line = [Cell::new(1, 1), Cell::new(2, 1), Cell::new(3, 1)];
        assert!(is_connected(&line));
        let split = [Cell::new(1, 1), Cell::new(3, 1)];
        assert!(!is_connected(&split));
    }
}
