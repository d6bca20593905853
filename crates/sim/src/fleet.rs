//! The execution engine: the one cycle loop of Algorithm 3 (sense,
//! re-synthesize when **H** changes, actuate), for one operation in flight
//! or many.
//!
//! [`FleetRunner`] dispatches up to [`FleetConfig::max_active`]
//! *independent* operations (no data dependency between them) onto the
//! chip at once and interleaves their routing cycle by cycle, so a
//! COVID-PCR panel's parallel branches overlap instead of queueing. At
//! width 1 ([`FleetConfig::serial`]) it is the paper's serial execution:
//! [`BioassayRunner`](crate::BioassayRunner) and the
//! [`Supervisor`](crate::Supervisor) are width-1 runs of this loop. Three
//! mechanisms make concurrency safe, all inert at width 1:
//!
//! * **Fluidic separation** ([`FluidicConstraints`]): each cycle, every
//!   proposed move is screened against the other in-flight droplets'
//!   current and committed-next rectangles (static + dynamic rules). An
//!   inadmissible move becomes a *hold* — the droplet stalls in place under
//!   its own actuation pattern and retries next cycle.
//! * **Corridor hazards** ([`meda_synth::CorridorReservations`]): a
//!   dispatched operation reserves its jobs' hazard bounds as
//!   time-expanded soft [`HazardBox`]es. Peer routers see them through
//!   [`Router::set_hazards`], so strategy synthesis steers *around* busy
//!   corridors up front.
//! * **Stall escalation**: a droplet stalled past
//!   [`FleetConfig::stall_patience`] hardens the blocking peer's rectangle
//!   into a wall hazard and re-synthesizes a detour; the wall is dropped as
//!   soon as the droplet moves again.
//!
//! Failures follow one policy per task. The per-attempt watchdog
//! ([`FleetConfig::attempt_cycles`]) turns an attempt that burns its
//! allowance into [`RunStatus::Stalled`]. Without a [`Ladder`] the first
//! failure ends the run. With one, a failed routing job climbs re-sense →
//! re-synthesize with a widened corridor → detour through a fresh
//! [`RecoveryRouter`], resuming each retry from where the droplet really
//! is; then the reconfiguration rung relocates the operation onto spare
//! electrodes; then the operation is aborted, its dependents skipped, and
//! the rest of the plan runs on.
//!
//! Screening compares *commanded* rectangles. With sensed feedback off the
//! command tracks ground truth, and because droplets move at most two
//! cells per cycle while the interference ring is two cells wide, two
//! separated endpoints cannot tunnel through a ring mid-step — endpoint
//! screening is sufficient. Under sensed feedback with faulty sensors the
//! commanded and physical rectangles can drift apart; the engine screens
//! what the controller knows, which is the cyberphysical best available.

use meda_rng::Rng;

use meda_bioassay::{BioassayPlan, MoId, PlannedMo, RoutingJob};
use meda_core::{Action, Dir, HazardBox};
use meda_grid::{ChipDims, Grid, Rect};
use meda_synth::CorridorReservations;

use crate::engine::Exec;
use crate::supervisor::reconfigure;
use crate::{
    AdaptiveConfig, AdaptiveRouter, Biochip, FaultPlan, FluidicConstraints, MoFailure, MoScheduler,
    RecoveryRouter, Router, RunConfig, RunStatus, Rung, RungCounts,
};

/// Configuration of a concurrent fleet run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetConfig {
    /// The underlying per-cycle run configuration (budget, trace, sensing).
    pub run: RunConfig,
    /// Maximum micro-operations in flight at once. `1` is the paper's
    /// serial execution; the fleet machinery (hazards, screening, stalls)
    /// arms only above 1.
    pub max_active: usize,
    /// The droplet-separation rules enforced between concurrent movers.
    pub constraints: FluidicConstraints,
    /// Consecutive stalled cycles a mover tolerates before hardening the
    /// blocker's rectangle into a wall hazard and re-synthesizing a
    /// detour.
    pub stall_patience: u64,
    /// Force attenuation factor of a reserved peer corridor (soft hazard):
    /// synthesis sees the corridor's cells at this fraction of their true
    /// force, which prices detours around busy lanes without forbidding
    /// them.
    pub corridor_attenuation: f64,
    /// Record the per-cycle positions of every in-flight droplet (the
    /// separation oracle's input; costs memory).
    pub record_movers: bool,
    /// Watchdog: cycles one attempt (a dispense sweep, or one routed try)
    /// may burn before it fails as [`RunStatus::Stalled`], instead of
    /// silently eating the global budget — under hard chaos, a droplet on
    /// dead electrodes or held behind a stranded peer. `None` disarms it.
    pub attempt_cycles: Option<u64>,
    /// The failure ladder. `None`: the first failure ends the run.
    pub ladder: Option<Ladder>,
}

/// The per-task failure ladder: retry a failed routing job (re-sense,
/// re-synthesize with a widened corridor, detour), relocate the operation,
/// then abort it and skip its dependents while the rest of the plan runs
/// on. Zero budgets abort a failing operation at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ladder {
    /// Retries allowed per routing job beyond its first attempt. Each
    /// retry climbs one rung; retry 3 and beyond stay on the detour rung.
    pub retry_budget: u32,
    /// Stall patience of the [`RecoveryRouter`] used on the detour rung.
    pub detour_patience: u32,
    /// Relocations allowed per operation on the reconfiguration rung
    /// (0 disables the rung).
    pub reconfig_budget: u32,
}

impl Default for Ladder {
    fn default() -> Self {
        Self {
            retry_budget: 3,
            detour_patience: 4,
            reconfig_budget: 0,
        }
    }
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self::serial(RunConfig::default())
    }
}

impl FleetConfig {
    /// Serial mode: one operation in flight — the paper's execution, and
    /// [`BioassayRunner`](crate::BioassayRunner)'s configuration.
    #[must_use]
    pub fn serial(run: RunConfig) -> Self {
        Self {
            run,
            max_active: 1,
            constraints: FluidicConstraints::default(),
            stall_patience: 8,
            corridor_attenuation: 0.3,
            record_movers: false,
            attempt_cycles: None,
            ladder: None,
        }
    }

    /// Concurrent mode with up to `n` operations in flight.
    #[must_use]
    pub fn concurrent(n: usize, run: RunConfig) -> Self {
        Self {
            max_active: n.max(1),
            ..Self::serial(run)
        }
    }

    /// Whether the fleet machinery (hazards, screening, stalls) is armed.
    #[must_use]
    pub fn is_fleet(&self) -> bool {
        self.max_active > 1
    }
}

/// The outcome of a fleet run: the serial outcome fields plus fleet
/// observability (peak concurrency, stall pressure) and the failure
/// ladder's record.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// Total operational cycles consumed — the assay *makespan*.
    pub cycles: u64,
    /// Terminal status: [`RunStatus::Success`] when every operation
    /// completed; otherwise [`RunStatus::CycleLimit`] when the budget
    /// died, the first failure's status, or [`RunStatus::Deadlock`] for a
    /// malformed plan.
    pub status: RunStatus,
    /// Operations completed.
    pub completed_ops: usize,
    /// Operations in the plan.
    pub total_ops: usize,
    /// Per-cycle actuation matrices, when recording was enabled.
    pub trace: Option<Vec<Grid<bool>>>,
    /// Per-cycle in-flight droplet positions `(mo, rect)` — ground truth,
    /// post-move — when [`FleetConfig::record_movers`] was set.
    pub movers: Option<Vec<Vec<(MoId, Rect)>>>,
    /// Most operations ever simultaneously active.
    pub peak_active: usize,
    /// Total mover-cycles spent stalled behind a fluidic constraint.
    pub stall_cycles: u64,
    /// Every failed operation, in failure order (with a [`Ladder`], the
    /// aborted ones; without, the one that ended the run).
    pub failed: Vec<MoFailure>,
    /// Operations skipped because a (transitive) predecessor failed.
    pub skipped: Vec<MoId>,
    /// How often each ladder rung fired.
    pub rungs: RungCounts,
    /// For every completed operation, the highest rung it needed, in
    /// completion order.
    pub resolved_by: Vec<(MoId, Rung)>,
}

impl FleetOutcome {
    /// Whether the whole bioassay completed.
    #[must_use]
    pub fn is_success(&self) -> bool {
        self.status == RunStatus::Success
    }

    /// Fraction of the plan's operations that completed (1 for an empty
    /// plan).
    #[must_use]
    pub fn completion_fraction(&self) -> f64 {
        if self.total_ops == 0 {
            1.0
        } else {
            self.completed_ops as f64 / self.total_ops as f64
        }
    }
}

/// A per-slot router supply: the fleet engine needs one [`Router`] per
/// concurrently active operation (routers carry per-job state). Slots are
/// recycled lowest-free-first, so serial mode always uses slot 0 — one
/// router instance across the whole run.
pub trait RouterPool {
    /// The router bound to `slot` (slots are dense, `0..max_active`).
    fn router(&mut self, slot: usize) -> &mut dyn Router;
}

/// A [`RouterPool`] of [`AdaptiveRouter`]s grown on demand from one
/// configuration. Each slot keeps its own strategy library, warmed across
/// the operations that pass through it.
#[derive(Debug, Default)]
pub struct AdaptivePool {
    config: AdaptiveConfig,
    routers: Vec<AdaptiveRouter>,
}

impl AdaptivePool {
    /// Creates a pool synthesizing with `config`.
    #[must_use]
    pub fn new(config: AdaptiveConfig) -> Self {
        Self {
            config,
            routers: Vec::new(),
        }
    }
}

impl RouterPool for AdaptivePool {
    fn router(&mut self, slot: usize) -> &mut dyn Router {
        while self.routers.len() <= slot {
            self.routers.push(AdaptiveRouter::new(self.config));
        }
        &mut self.routers[slot]
    }
}

/// A [`RouterPool`] cloning a prototype router per slot — the natural pool
/// for stateless-per-job routers like
/// [`BaselineRouter`](crate::BaselineRouter).
#[derive(Debug)]
pub struct ClonePool<R: Router + Clone> {
    proto: R,
    routers: Vec<R>,
}

impl<R: Router + Clone> ClonePool<R> {
    /// Creates a pool cloning `proto` into each slot.
    pub fn new(proto: R) -> Self {
        Self {
            proto,
            routers: Vec::new(),
        }
    }
}

impl<R: Router + Clone> RouterPool for ClonePool<R> {
    fn router(&mut self, slot: usize) -> &mut dyn Router {
        while self.routers.len() <= slot {
            self.routers.push(self.proto.clone());
        }
        &mut self.routers[slot]
    }
}

/// Where one in-flight operation currently is in its lifecycle.
#[derive(Debug, Clone)]
enum Phase {
    /// Sweeping a dispensed droplet in from the nearest edge.
    Dispense { droplet: Rect, dir: Dir },
    /// Routing the current job's droplet under its slot router.
    Route { actual: Rect, sensed: Rect },
    /// Executing the module's in-place cycles (mixing loops, incubation).
    Module { remaining: u64 },
}

/// One active operation.
#[derive(Debug)]
struct Task {
    mo: MoId,
    slot: usize,
    job_idx: usize,
    phase: Phase,
    /// Goals reached by this operation's earlier jobs (held in place until
    /// the module phase begins).
    arrived: Vec<Rect>,
    /// Consecutive cycles this mover has been stalled.
    stalled_for: u64,
    /// Escalation walls (hardened blocker rectangles) feeding this task's
    /// router on top of the peer corridor reservations.
    walls: Vec<HazardBox>,
    /// The current attempt at the current job: the plan's job, or the
    /// ladder's re-sensed and widened retry of it.
    attempt: RoutingJob,
    /// Cycle the current attempt started (the watchdog's reference).
    attempt_start: u64,
    /// Ladder retries the current job has consumed.
    retries: u32,
    /// Highest rung any of this operation's jobs needed so far.
    rung: Rung,
    /// Ground-truth position left behind by a failed attempt, carried into
    /// the retry so it resumes from where the droplet really is.
    pending: Option<Rect>,
    /// The detour rung's fresh reactive router, replacing the slot router
    /// for the current attempt.
    detour: Option<RecoveryRouter>,
    /// This cycle's action, once asked for: a cycle restarted by a peer's
    /// failure reuses it instead of asking the router twice.
    planned: Option<Action>,
}

impl Task {
    fn new(mo: MoId, slot: usize) -> Self {
        Self {
            mo,
            slot,
            job_idx: 0,
            phase: Phase::Module { remaining: 0 }, // replaced by start_job
            arrived: Vec::new(),
            stalled_for: 0,
            walls: Vec::new(),
            attempt: RoutingJob::new(Rect::default(), Rect::default(), Rect::default()),
            attempt_start: 0,
            retries: 0,
            rung: Rung::FirstTry,
            pending: None,
            detour: None,
            planned: None,
        }
    }

    /// The in-flight droplet's ground-truth rectangle (`None` in the
    /// module phase — its droplets are parked outputs).
    fn physical(&self) -> Option<Rect> {
        match self.phase {
            Phase::Dispense { droplet, .. } => Some(droplet),
            Phase::Route { actual, .. } => Some(actual),
            Phase::Module { .. } => None,
        }
    }

    /// The controller's belief of the in-flight droplet (what hold
    /// commands are issued against).
    fn belief(&self) -> Option<Rect> {
        match self.phase {
            Phase::Dispense { droplet, .. } => Some(droplet),
            Phase::Route { sensed, .. } => Some(sensed),
            Phase::Module { .. } => None,
        }
    }
}

/// What a mover decided this cycle (used for peer screening).
#[derive(Debug, Clone, Copy)]
enum Decision {
    Move { action: Action, commanded: Rect },
    Hold,
}

/// The separation-audit exemption for a plan's producer→consumer droplet
/// handoffs: dependency-linked operations are never concurrently in
/// flight, but across the completion boundary the movers log shows the
/// same physical droplet under both MO ids (see
/// [`FluidicConstraints::audit_exempting`]).
pub fn dependency_exemption(plan: &BioassayPlan) -> impl Fn(MoId, MoId) -> bool + '_ {
    |a, b| plan.operations()[a].pre.contains(&b) || plan.operations()[b].pre.contains(&a)
}

/// The dispense entry point: the droplet materializes at the nearest chip
/// edge and is pushed perpendicular to it; each step still samples the
/// EWOD outcome, so a degraded dispense corridor slows entry. Dispense is
/// tracked by the dispenser hardware, not the location sensors, so sensed
/// feedback does not apply to it.
fn dispense_entry(goal: Rect, dims: ChipDims) -> (Rect, Dir) {
    let to_edges = [
        (goal.ya - 1, Dir::N),
        (dims.height as i32 - goal.yb, Dir::S),
        (goal.xa - 1, Dir::E),
        (dims.width as i32 - goal.xb, Dir::W),
    ];
    // Fold instead of `min_by_key(..).expect(..)`: strict `<` keeps the
    // first minimum, with no panic path.
    let (dist, dir) =
        to_edges[1..].iter().fold(
            to_edges[0],
            |best, &cand| if cand.0 < best.0 { cand } else { best },
        );
    let (dx, dy) = dir.delta();
    (goal.translate(-dx * dist, -dy * dist), dir)
}

/// Executes planned bioassays with up to [`FleetConfig::max_active`]
/// independent operations in flight at once.
///
/// # Examples
///
/// ```
/// use meda_bioassay::{benchmarks, RjHelper};
/// use meda_grid::ChipDims;
/// use meda_rng::SeedableRng;
/// use meda_sim::{
///     Biochip, ClonePool, BaselineRouter, DegradationConfig, FaultPlan, FifoScheduler,
///     FleetConfig, FleetRunner, RunConfig,
/// };
///
/// let mut rng = meda_rng::StdRng::seed_from_u64(1);
/// let plan = RjHelper::new(ChipDims::PAPER).plan(&benchmarks::master_mix())?;
/// let mut chip = Biochip::generate(ChipDims::PAPER, &DegradationConfig::pristine(), &mut rng);
/// let mut pool = ClonePool::new(BaselineRouter::new());
/// let outcome = FleetRunner::new(FleetConfig::concurrent(2, RunConfig::default())).run(
///     &plan,
///     &mut chip,
///     &mut pool,
///     &mut FifoScheduler::new(),
///     &FaultPlan::none(),
///     &mut rng,
/// );
/// assert!(outcome.is_success());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct FleetRunner {
    config: FleetConfig,
}

impl FleetRunner {
    /// Creates a fleet runner.
    #[must_use]
    pub fn new(config: FleetConfig) -> Self {
        Self { config }
    }

    /// Runs `plan` on `chip`. With [`FleetConfig::serial`] this is the
    /// paper's serial execution, driven by the slot-0 router.
    pub fn run(
        &self,
        plan: &BioassayPlan,
        chip: &mut Biochip,
        pool: &mut dyn RouterPool,
        scheduler: &mut dyn MoScheduler,
        chaos: &FaultPlan,
        rng: &mut impl Rng,
    ) -> FleetOutcome {
        let cfg = self.config;
        let total = plan.operations().len();
        let mut run = Run {
            cfg,
            plan,
            working: None,
            exec: Exec::new(cfg.run, chip, rng, chaos),
            pool,
            tasks: Vec::new(),
            done: vec![false; total],
            failed_mask: vec![false; total],
            reconfigs_left: vec![cfg.ladder.map_or(0, |l| l.reconfig_budget); total],
            completed: 0,
            failures: Vec::new(),
            skipped: Vec::new(),
            rungs: RungCounts::default(),
            resolved_by: Vec::new(),
            free_slots: (0..cfg.max_active).rev().collect(),
            reservations: CorridorReservations::new(),
            stall_cycles: 0,
            peak_active: 0,
            dispatches: 0,
        };
        let mut movers_log = cfg.record_movers.then(Vec::new);
        let status = loop {
            match run.step(scheduler) {
                Ok(cycled) => {
                    if let (true, Some(log)) = (cycled, movers_log.as_mut()) {
                        log.push(
                            run.tasks
                                .iter()
                                .filter_map(|t| t.physical().map(|r| (t.mo, r)))
                                .collect::<Vec<_>>(),
                        );
                    }
                }
                Err(status) => break status,
            }
        };

        let telemetry = meda_telemetry::global();
        telemetry.add("sim.fleet.runs", 1);
        telemetry.add("sim.fleet.dispatches", run.dispatches);
        telemetry.add("sim.fleet.stall_cycles", run.stall_cycles);
        telemetry.add("sim.fleet.peak_active", run.peak_active as u64);

        FleetOutcome {
            cycles: run.exec.cycles,
            status,
            completed_ops: run.completed,
            total_ops: total,
            trace: run.exec.trace.take(),
            movers: movers_log,
            peak_active: run.peak_active,
            stall_cycles: run.stall_cycles,
            failed: run.failures,
            skipped: run.skipped,
            rungs: run.rungs,
            resolved_by: run.resolved_by,
        }
    }
}

/// The state of one fleet run: the cycle loop lives in [`Run::step`], the
/// failure policy in [`Run::fail`].
struct Run<'a, 'p, R: Rng> {
    cfg: FleetConfig,
    plan: &'p BioassayPlan,
    /// The plan as the reconfiguration rung rewrote it (cloned on the first
    /// relocation; dependency topology never changes).
    working: Option<BioassayPlan>,
    exec: Exec<'a, R>,
    pool: &'a mut dyn RouterPool,
    /// Active operations, in `MoId` order.
    tasks: Vec<Task>,
    done: Vec<bool>,
    /// Aborted or skipped operations.
    failed_mask: Vec<bool>,
    reconfigs_left: Vec<u32>,
    completed: usize,
    failures: Vec<MoFailure>,
    skipped: Vec<MoId>,
    rungs: RungCounts,
    resolved_by: Vec<(MoId, Rung)>,
    free_slots: Vec<usize>,
    reservations: CorridorReservations,
    stall_cycles: u64,
    peak_active: usize,
    dispatches: u64,
}

impl<R: Rng> Run<'_, '_, R> {
    fn ops(&self) -> &[PlannedMo] {
        self.working.as_ref().unwrap_or(self.plan).operations()
    }

    /// One pass of the control loop (Algorithm 3: sense, re-synthesize on
    /// a changed **H**, actuate): settle and dispatch, then either end the
    /// run (`Err(status)`), restart the pass after a failure that cost no
    /// cycle (`Ok(false)`), or execute one cycle (`Ok(true)`).
    fn step(&mut self, scheduler: &mut dyn MoScheduler) -> Result<bool, RunStatus> {
        self.boundary(scheduler)?;
        if self.completed == self.done.len() {
            return Err(RunStatus::Success);
        }
        if self.tasks.is_empty() {
            // Nothing in flight and nothing admissible: either the
            // dependency graph is wedged, or every remaining operation
            // failed or was skipped.
            return Err(self
                .failures
                .first()
                .map_or(RunStatus::Deadlock, |f| f.status));
        }
        self.peak_active = self.peak_active.max(self.tasks.len());
        if self.exec.cycles >= self.cfg.run.k_max {
            for ti in 0..self.tasks.len() {
                let mo = &self.ops()[self.tasks[ti].mo];
                let at = self.tasks[ti]
                    .belief()
                    .unwrap_or_else(|| mo.outputs.first().copied().unwrap_or_default());
                self.record_failure(ti, RunStatus::CycleLimit, at);
            }
            return Err(RunStatus::CycleLimit);
        }

        // The watchdog: an attempt that has burnt its cycle allowance
        // without reaching its goal is stalled.
        if let Some(limit) = self.cfg.attempt_cycles {
            let cycles = self.exec.cycles;
            if let Some(ti) = self
                .tasks
                .iter()
                .position(|t| t.physical().is_some() && cycles - t.attempt_start >= limit)
            {
                let task = &mut self.tasks[ti];
                let at = task.belief().unwrap_or_default();
                task.pending = task.physical();
                self.fail(ti, RunStatus::Stalled, at)?;
                return Ok(false);
            }
        }

        // Ask every mover for this cycle's action, in MoId order.
        for ti in 0..self.tasks.len() {
            if self.tasks[ti].planned.is_some() {
                continue;
            }
            let action = match self.tasks[ti].phase {
                Phase::Module { .. } => continue,
                Phase::Dispense { dir, .. } => Action::Move(dir),
                Phase::Route { actual, sensed } => match self.ask_router(ti, sensed) {
                    Some(action) => action,
                    None => {
                        self.tasks[ti].pending = Some(actual);
                        self.fail(ti, RunStatus::NoRoute, sensed)?;
                        return Ok(false);
                    }
                },
            };
            self.tasks[ti].planned = Some(action);
        }

        let decisions = self.screen();
        self.actuate(&decisions);
        let failed = self.sample_and_sense(&decisions);
        for (ti, status, at) in failed.into_iter().rev() {
            self.fail(ti, status, at)?;
        }
        Ok(true)
    }

    /// The cycle boundary: advance every task whose stage is finished,
    /// skip the dependents of aborted operations, and dispatch ready
    /// operations into free slots — until nothing changes.
    fn boundary(&mut self, scheduler: &mut dyn MoScheduler) -> Result<(), RunStatus> {
        loop {
            let mut changed = false;
            let mut ti = 0;
            while ti < self.tasks.len() {
                let (advanced, present) = self.settle(ti)?;
                changed |= advanced;
                if present {
                    ti += 1;
                }
            }

            // Transitively skip dependents of failed operations (plan ids
            // are topological, one increasing pass suffices).
            for id in 0..self.done.len() {
                let pre = &self.plan.operations()[id].pre;
                if !self.done[id]
                    && !self.failed_mask[id]
                    && pre.iter().any(|&p| self.failed_mask[p])
                {
                    self.failed_mask[id] = true;
                    self.skipped.push(id);
                }
            }

            if self.tasks.len() < self.cfg.max_active {
                let ready: Vec<MoId> = self
                    .plan
                    .operations()
                    .iter()
                    .filter(|mo| {
                        !self.done[mo.id]
                            && !self.failed_mask[mo.id]
                            && !self.tasks.iter().any(|t| t.mo == mo.id)
                            && mo.pre.iter().all(|&p| self.done[p])
                    })
                    .map(|mo| mo.id)
                    .collect();
                if !ready.is_empty() {
                    let slots = self.cfg.max_active - self.tasks.len();
                    let picks =
                        scheduler.dispatch(&ready, self.plan, self.exec.chip.health_field(), slots);
                    for mo in picks {
                        changed |= self.admit(mo)?;
                    }
                    self.tasks.sort_by_key(|t| t.mo);
                }
            }

            if !changed {
                return Ok(());
            }
        }
    }

    /// Advances task `ti` through every stage already finished — a job can
    /// be zero-cycle (start inside goal), a module can have zero execution
    /// cycles. Returns `(changed, still active)`.
    fn settle(&mut self, ti: usize) -> Result<(bool, bool), RunStatus> {
        let mut changed = false;
        loop {
            let task = &self.tasks[ti];
            let mo = &self.ops()[task.mo];
            let landed = match task.phase {
                Phase::Dispense { droplet, .. } => {
                    (droplet == mo.jobs[task.job_idx].goal).then_some(droplet)
                }
                Phase::Route { sensed, .. } => mo.jobs[task.job_idx]
                    .goal
                    .contains_rect(sensed)
                    .then_some(sensed),
                Phase::Module { remaining } => {
                    if remaining > 0 {
                        return Ok((changed, true));
                    }
                    // The operation completes: outputs appear, the slot
                    // and corridor free up.
                    let outputs = mo.outputs.clone();
                    self.exec.resting.extend(outputs);
                    let task = self.tasks.remove(ti);
                    self.done[task.mo] = true;
                    self.completed += 1;
                    self.resolved_by.push((task.mo, task.rung));
                    self.release(&task);
                    return Ok((true, false));
                }
            };
            let Some(landed) = landed else {
                return Ok((changed, true));
            };
            changed = true;
            let task = &mut self.tasks[ti];
            task.rung = task.rung.max(match task.retries {
                0 => Rung::FirstTry,
                1 => Rung::Resense,
                2 => Rung::Resynth,
                _ => Rung::Detour,
            });
            task.pending = None;
            task.arrived.push(landed);
            task.job_idx += 1;
            if let Err(status) = self.start_job(ti) {
                let at = self.tasks[ti].attempt.start;
                if !self.fail(ti, status, at)? {
                    return Ok((true, false));
                }
            }
        }
    }

    /// Tries to admit `mo_id` into a free slot; `Ok(true)` when the
    /// operation started (or failed and went to the failure policy).
    /// Deferred this cycle (`Ok(false)`): separation against an in-flight
    /// peer, or the router declined under corridor hazards while peers are
    /// active — it will be retried.
    fn admit(&mut self, mo_id: MoId) -> Result<bool, RunStatus> {
        let cfg = self.cfg;
        // Admission separation: the first droplet must materialize clear of
        // every in-flight peer (vacuous in serial mode — the single slot is
        // only free when nothing is active).
        if let Some(first) = self.ops()[mo_id].jobs.first() {
            let entry = if first.is_dispense() {
                dispense_entry(first.goal, self.exec.chip.dims()).0
            } else {
                first.start
            };
            if cfg.constraints.is_enabled()
                && !self
                    .tasks
                    .iter()
                    .filter_map(Task::physical)
                    .all(|peer| cfg.constraints.separated(entry, peer))
            {
                return Ok(false);
            }
        }
        let Some(slot) = self.free_slots.pop() else {
            return Ok(false);
        };

        // Reserve the corridor first so peers of *this* operation see it
        // from their very next synthesis query.
        if cfg.is_fleet() {
            let boxes: Vec<HazardBox> = self.ops()[mo_id]
                .jobs
                .iter()
                .map(|j| HazardBox::soft(j.bounds, cfg.corridor_attenuation))
                .collect();
            self.reservations.reserve(mo_id, boxes);
        }

        self.tasks.push(Task::new(mo_id, slot));
        let ti = self.tasks.len() - 1;
        let started = self.start_job(ti);
        if started.is_err() && ti > 0 {
            let task = self.tasks.remove(ti);
            self.release(&task);
            return Ok(false);
        }
        // Inputs are consumed only once admission is certain.
        for input in self.ops()[mo_id].inputs.clone() {
            if let Some(pos) = self.exec.resting.iter().position(|r| *r == input) {
                self.exec.resting.swap_remove(pos);
            }
        }
        self.dispatches += 1;
        if let Err(status) = started {
            // Nothing else in flight and no hazard to blame: genuinely
            // infeasible, a failure like any other.
            let at = self.tasks[ti].attempt.start;
            self.fail(ti, status, at)?;
        }
        Ok(true)
    }

    /// Initializes task `ti` for its current `job_idx` (or enters the
    /// module phase when the jobs are exhausted).
    fn start_job(&mut self, ti: usize) -> Result<(), RunStatus> {
        let task = &self.tasks[ti];
        let mo = &self.ops()[task.mo];
        let Some(&job) = mo.jobs.get(task.job_idx) else {
            let remaining = mo.op.execution_cycles();
            let task = &mut self.tasks[ti];
            task.phase = Phase::Module { remaining };
            task.arrived.clear();
            return Ok(());
        };
        let task = &mut self.tasks[ti];
        task.retries = 0;
        task.detour = None;
        if job.is_dispense() {
            let (droplet, dir) = dispense_entry(job.goal, self.exec.chip.dims());
            task.phase = Phase::Dispense { droplet, dir };
            task.attempt = job;
            task.attempt_start = self.exec.cycles;
            return Ok(());
        }
        self.start_attempt(ti, job)
    }

    /// Starts one routed attempt: the droplet resumes from its true
    /// position (a failed attempt's, or the job's start), and the router
    /// prepares under the current corridor hazards in fleet mode.
    fn start_attempt(&mut self, ti: usize, attempt: RoutingJob) -> Result<(), RunStatus> {
        let task = &mut self.tasks[ti];
        task.attempt = attempt;
        task.planned = None;
        task.phase = Phase::Route {
            actual: task.pending.unwrap_or(attempt.start),
            sensed: attempt.start,
        };
        let health = self.exec.chip.health_field();
        let router: &mut dyn Router = match task.detour.as_mut() {
            Some(detour) => detour,
            None => self.pool.router(task.slot),
        };
        if self.cfg.is_fleet() {
            let mut boxes = self.reservations.boxes_excluding(task.mo);
            boxes.extend(task.walls.iter().copied());
            router.set_hazards(&boxes);
        }
        if !router.begin_job(&attempt, health) {
            // The failed droplet's true position stays pending for the
            // ladder's next attempt.
            return Err(RunStatus::NoRoute);
        }
        task.pending = None;
        task.attempt_start = self.exec.cycles;
        Ok(())
    }

    /// The routed task `ti`'s action from `sensed`, or `None` when its
    /// router has no move.
    fn ask_router(&mut self, ti: usize, sensed: Rect) -> Option<Action> {
        let task = &mut self.tasks[ti];
        let health = self.exec.chip.health_field();
        let router: &mut dyn Router = match task.detour.as_mut() {
            Some(detour) => detour,
            None => self.pool.router(task.slot),
        };
        if self.cfg.is_fleet() {
            let mut boxes = self.reservations.boxes_excluding(task.mo);
            boxes.extend(task.walls.iter().copied());
            router.set_hazards(&boxes);
        }
        match router.next_action(sensed, health) {
            Some(a) => Some(a),
            None if !task.walls.is_empty() => {
                // The escalation wall painted the job into a corner; drop
                // it and fall back to waiting.
                task.walls.clear();
                router.set_hazards(&self.reservations.boxes_excluding(task.mo));
                router.next_action(sensed, health)
            }
            None => None,
        }
    }

    /// Fluidic screening: every planned move is checked against the other
    /// in-flight droplets — peers already screened this cycle by their
    /// committed next rectangle, the rest by their current one. An
    /// inadmissible move becomes a hold.
    fn screen(&mut self) -> Vec<Option<Decision>> {
        let cfg = self.cfg;
        let mut decisions: Vec<Option<Decision>> = vec![None; self.tasks.len()];
        for ti in 0..self.tasks.len() {
            let Some(action) = self.tasks[ti].planned else {
                continue;
            };
            let Some(from) = self.tasks[ti].belief() else {
                continue;
            };
            let commanded = action.apply(from);
            let mut blocker: Option<Rect> = None;
            if cfg.constraints.is_enabled() {
                for (tj, peer) in self.tasks.iter().enumerate() {
                    if tj == ti {
                        continue;
                    }
                    let Some(peer_cur) = peer.physical() else {
                        continue;
                    };
                    let peer_next = match decisions[tj] {
                        Some(Decision::Move { commanded, .. }) => Some(commanded),
                        Some(Decision::Hold) => Some(peer_cur),
                        None => None,
                    };
                    if !cfg
                        .constraints
                        .admissible_against(commanded, peer_cur, peer_next)
                    {
                        blocker = Some(peer_cur);
                        break;
                    }
                }
            }
            let Some(block) = blocker else {
                decisions[ti] = Some(Decision::Move { action, commanded });
                continue;
            };
            decisions[ti] = Some(Decision::Hold);
            self.stall_cycles += 1;
            let goal = self.ops()[self.tasks[ti].mo].jobs[self.tasks[ti].job_idx].goal;
            let task = &mut self.tasks[ti];
            task.stalled_for += 1;
            if cfg.is_fleet() && task.stalled_for >= cfg.stall_patience && task.walls.is_empty() {
                // Patience exhausted: harden the blocker's current
                // footprint into a wall (unless that would wall off our
                // own goal) and let the digest shift force a detour
                // re-synthesis.
                let wall = block.expand(cfg.constraints.ring().max(0));
                if !wall.intersects(goal) {
                    task.walls.push(HazardBox::wall(wall));
                }
            }
        }
        decisions
    }

    /// Applies one cycle: the union of every commanded move, every hold,
    /// every task's parked droplets and every resting droplet.
    fn actuate(&mut self, decisions: &[Option<Decision>]) {
        let mut pattern = Grid::new(self.exec.chip.dims(), false);
        for (task, decision) in self.tasks.iter().zip(decisions) {
            match decision {
                Some(Decision::Move { commanded, .. }) => {
                    pattern.fill_rect(*commanded, true);
                }
                Some(Decision::Hold) => {
                    if let Some(cur) = task.belief() {
                        pattern.fill_rect(cur, true);
                    }
                }
                None => {}
            }
            self.for_each_parked(task, |r| {
                pattern.fill_rect(r, true);
            });
        }
        for r in &self.exec.resting {
            pattern.fill_rect(*r, true);
        }
        self.exec.apply_cycle(pattern);
        for task in &mut self.tasks {
            task.planned = None;
        }
    }

    /// Samples every committed mover's physical outcome in MoId order (one
    /// RNG draw per mover), then closes the sensing loop for routed movers.
    /// Returns the sensing failures `(task, status, last estimate)`.
    fn sample_and_sense(
        &mut self,
        decisions: &[Option<Decision>],
    ) -> Vec<(usize, RunStatus, Rect)> {
        for (ti, decision) in decisions.iter().enumerate() {
            let Some(Decision::Move { action, .. }) = *decision else {
                if let Phase::Module { ref mut remaining } = self.tasks[ti].phase {
                    *remaining -= 1;
                }
                continue;
            };
            let task = &mut self.tasks[ti];
            match &mut task.phase {
                Phase::Dispense { droplet, .. } => *droplet = self.exec.sample(*droplet, action),
                Phase::Route { actual, sensed } => {
                    *actual = self.exec.sample(*actual, action);
                    if !self.cfg.run.sensed_feedback {
                        // Open loop: the controller is handed ground truth.
                        *sensed = *actual;
                    }
                }
                Phase::Module { .. } => unreachable!("modules never commit moves"),
            }
            if task.stalled_for > 0 {
                meda_telemetry::global()
                    .histogram("sim.fleet.stall_streak")
                    .record(task.stalled_for);
                task.stalled_for = 0;
                task.walls.clear();
            }
        }

        let mut failed = Vec::new();
        if !self.cfg.run.sensed_feedback {
            return failed;
        }
        for (ti, decision) in decisions.iter().enumerate() {
            let Some(Decision::Move { action, .. }) = *decision else {
                continue;
            };
            let Phase::Route { actual, sensed } = self.tasks[ti].phase else {
                continue;
            };
            let held = self.held_for(ti);
            match self.exec.sense(actual, sensed, action.apply(sensed), &held) {
                Ok(estimate) => {
                    self.tasks[ti].phase = Phase::Route {
                        actual,
                        sensed: estimate,
                    }
                }
                Err(status) => {
                    self.tasks[ti].pending = Some(actual);
                    failed.push((ti, status, sensed));
                }
            }
        }
        failed
    }

    /// The droplets task `task` keeps parked: its module outputs, or its
    /// later jobs' starting droplets and its arrived partners.
    fn for_each_parked(&self, task: &Task, mut f: impl FnMut(Rect)) {
        let mo = &self.ops()[task.mo];
        if let Phase::Module { .. } = task.phase {
            mo.outputs.iter().copied().for_each(f);
            return;
        }
        for start in mo.jobs[task.job_idx + 1..].iter().map(|j| j.start) {
            if !start.is_off_chip_origin() {
                f(start);
            }
        }
        task.arrived.iter().copied().for_each(f);
    }

    /// Everything on the chip except task `ti`'s own moving droplet — the
    /// hold set its sensing subtraction uses. In serial mode: resting
    /// droplets, later job starts and arrived partners.
    fn held_for(&self, ti: usize) -> Vec<Rect> {
        let mut held = self.exec.resting.clone();
        for (tj, task) in self.tasks.iter().enumerate() {
            self.for_each_parked(task, |r| held.push(r));
            if tj != ti {
                held.extend(task.physical());
            }
        }
        held
    }

    /// Releases one task's fleet footprint (slot + corridor).
    fn release(&mut self, task: &Task) {
        self.free_slots.push(task.slot);
        self.free_slots.sort_unstable_by(|a, b| b.cmp(a)); // pop() yields the lowest
        self.reservations.release(task.mo);
    }

    fn record_failure(&mut self, ti: usize, status: RunStatus, at: Rect) {
        let task = &self.tasks[ti];
        let jobs = self.ops()[task.mo].jobs.len();
        self.failures.push(MoFailure {
            mo: task.mo,
            job: task.job_idx.min(jobs.saturating_sub(1)),
            status,
            last_position: at,
            retries: task.retries,
        });
    }

    /// The failure policy. Task `ti` failed with `status` at last estimate
    /// `at`. Without a ladder the run ends. With one, a routed job climbs
    /// re-sense → re-synthesize with a widened corridor → detour through a
    /// fresh [`RecoveryRouter`] while its retries last; then the operation
    /// is relocated onto spare electrodes while its reconfiguration budget
    /// lasts; then it is aborted and its dependents skipped. A cycle-budget
    /// failure is never retried. Returns whether the task is still active,
    /// or `Err` when the run ends.
    fn fail(&mut self, ti: usize, mut status: RunStatus, mut at: Rect) -> Result<bool, RunStatus> {
        loop {
            if status == RunStatus::Stalled {
                meda_telemetry::global().add("sim.supervisor.watchdog_fires", 1);
            }
            let Some(ladder) = self.cfg.ladder else {
                self.record_failure(ti, status, at);
                return Err(status);
            };
            let mo = self.tasks[ti].mo;
            let job = self.ops()[mo].jobs.get(self.tasks[ti].job_idx).copied();
            if let Some(job) = job.filter(|j| !j.is_dispense() && status != RunStatus::CycleLimit) {
                if self.tasks[ti].retries < ladder.retry_budget {
                    self.tasks[ti].retries += 1;
                    let retries = self.tasks[ti].retries;
                    let held = self.held_for(ti);
                    let actual = self.tasks[ti].pending.unwrap_or(at);
                    match self.exec.resense(actual, at, &held) {
                        Some(estimate) => {
                            let chip_bounds = self.exec.chip.dims().bounds();
                            let previous = self.tasks[ti].attempt.bounds;
                            // Rung 2 on: widening the corridor changes the
                            // synthesis query, so strategy-backed routers
                            // re-synthesize from the refreshed health
                            // matrix with more room to detour.
                            let widened = previous
                                .expand(2)
                                .intersection(chip_bounds)
                                .unwrap_or(chip_bounds);
                            let bounds = match retries {
                                1 => {
                                    self.rungs.resense += 1;
                                    previous
                                }
                                2 => {
                                    self.rungs.resynth += 1;
                                    widened
                                }
                                _ => {
                                    self.rungs.detour += 1;
                                    widened
                                }
                            };
                            self.tasks[ti].detour =
                                (retries >= 3).then(|| RecoveryRouter::new(ladder.detour_patience));
                            let attempt = RoutingJob::new(
                                estimate,
                                job.goal,
                                bounds.union(estimate).union(job.goal),
                            );
                            match self.start_attempt(ti, attempt) {
                                Ok(()) => return Ok(true),
                                Err(next) => {
                                    (status, at) = (next, attempt.start);
                                    continue;
                                }
                            }
                        }
                        // Nothing left on the sensors to retry from.
                        None => status = RunStatus::DropletLost,
                    }
                }
            }

            if status != RunStatus::CycleLimit
                && self.reconfigs_left[mo] > 0
                && self.reconfigure(ti, at)
            {
                self.reconfigs_left[mo] -= 1;
                self.rungs.reconfig += 1;
                let task = &mut self.tasks[ti];
                task.rung = Rung::Reconfig;
                task.job_idx = 0;
                task.arrived.clear();
                match self.start_job(ti) {
                    Ok(()) => return Ok(true),
                    Err(next) => {
                        (status, at) = (next, self.tasks[ti].attempt.start);
                        continue;
                    }
                }
            }

            self.record_failure(ti, status, at);
            let task = self.tasks.remove(ti);
            self.release(&task);
            if status == RunStatus::CycleLimit {
                return Err(status);
            }
            self.failed_mask[mo] = true;
            self.rungs.aborted_ops += 1;
            return Ok(false);
        }
    }

    /// The reconfiguration rung for task `ti` (last estimate `at`); see
    /// [`reconfigure`].
    fn reconfigure(&mut self, ti: usize, at: Rect) -> bool {
        let held = self.held_for(ti);
        let task = &mut self.tasks[ti];
        reconfigure(
            &mut self.exec,
            self.plan,
            &mut self.working,
            task.mo,
            task.job_idx,
            &task.arrived,
            at,
            &held,
            &mut task.pending,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BaselineRouter, DegradationConfig, FifoScheduler, HealthAwareScheduler};
    use meda_bioassay::{benchmarks, RjHelper};
    use meda_grid::ChipDims;
    use meda_rng::{SeedableRng, StdRng};

    fn plan(sg: &meda_bioassay::SequencingGraph) -> BioassayPlan {
        RjHelper::new(ChipDims::PAPER).plan(sg).unwrap()
    }

    #[test]
    fn concurrent_fleet_beats_serial_makespan_on_parallel_branches() {
        let p = plan(&benchmarks::multiplex_invitro((4, 4)));
        let go = |n: usize| {
            let mut rng = StdRng::seed_from_u64(3);
            let mut chip =
                Biochip::generate(ChipDims::PAPER, &DegradationConfig::pristine(), &mut rng);
            let mut pool = ClonePool::new(BaselineRouter::new());
            FleetRunner::new(FleetConfig::concurrent(n, RunConfig::default())).run(
                &p,
                &mut chip,
                &mut pool,
                &mut FifoScheduler::new(),
                &FaultPlan::none(),
                &mut rng,
            )
        };
        let serial = go(1);
        let fleet = go(4);
        assert!(serial.is_success(), "{:?}", serial.status);
        assert!(fleet.is_success(), "{:?}", fleet.status);
        assert!(
            fleet.cycles < serial.cycles,
            "concurrent makespan {} must beat serial {}",
            fleet.cycles,
            serial.cycles
        );
        assert!(fleet.peak_active >= 2, "never actually overlapped");
    }

    #[test]
    fn concurrent_movers_never_violate_separation() {
        let p = plan(&benchmarks::multiplex_invitro((4, 4)));
        let mut rng = StdRng::seed_from_u64(7);
        let mut chip = Biochip::generate(ChipDims::PAPER, &DegradationConfig::paper(), &mut rng);
        let mut pool = ClonePool::new(BaselineRouter::new());
        let cfg = FleetConfig {
            record_movers: true,
            ..FleetConfig::concurrent(4, RunConfig::default())
        };
        let outcome = FleetRunner::new(cfg).run(
            &p,
            &mut chip,
            &mut pool,
            &mut FifoScheduler::new(),
            &FaultPlan::none(),
            &mut rng,
        );
        assert!(outcome.is_success(), "{:?}", outcome.status);
        let log = outcome.movers.expect("recording enabled");
        assert_eq!(log.len() as u64, outcome.cycles);
        let v = cfg
            .constraints
            .audit_exempting(&log, dependency_exemption(&p));
        assert!(v.is_none(), "separation violated: {v:?}");
    }

    #[test]
    fn adaptive_pool_routes_a_concurrent_fleet_around_corridor_hazards() {
        let p = plan(&benchmarks::multiplex_invitro((4, 4)));
        let mut rng = StdRng::seed_from_u64(11);
        let mut chip = Biochip::generate(ChipDims::PAPER, &DegradationConfig::paper(), &mut rng);
        let mut pool = AdaptivePool::new(AdaptiveConfig::default());
        let outcome = FleetRunner::new(FleetConfig::concurrent(4, RunConfig::default())).run(
            &p,
            &mut chip,
            &mut pool,
            &mut HealthAwareScheduler::new(),
            &FaultPlan::none(),
            &mut rng,
        );
        assert!(outcome.is_success(), "{:?}", outcome.status);
        assert!(outcome.peak_active >= 2);
    }

    #[test]
    fn malformed_plan_reports_deadlock() {
        use meda_bioassay::{MoType, PlannedMo};
        let stuck = BioassayPlan::from_parts(
            "deadlocked",
            vec![PlannedMo {
                id: 0,
                op: MoType::Mix,
                pre: vec![0],
                inputs: vec![],
                jobs: vec![],
                outputs: vec![],
            }],
        );
        let mut rng = StdRng::seed_from_u64(5);
        let mut chip = Biochip::generate(ChipDims::PAPER, &DegradationConfig::pristine(), &mut rng);
        let mut pool = ClonePool::new(BaselineRouter::new());
        let outcome = FleetRunner::new(FleetConfig::concurrent(4, RunConfig::default())).run(
            &stuck,
            &mut chip,
            &mut pool,
            &mut FifoScheduler::new(),
            &FaultPlan::none(),
            &mut rng,
        );
        assert_eq!(outcome.status, RunStatus::Deadlock);
        assert_eq!(outcome.cycles, 0);
    }

    #[test]
    fn tiny_budget_reports_cycle_limit() {
        let p = plan(&benchmarks::master_mix());
        let mut rng = StdRng::seed_from_u64(6);
        let mut chip = Biochip::generate(ChipDims::PAPER, &DegradationConfig::pristine(), &mut rng);
        let mut pool = ClonePool::new(BaselineRouter::new());
        let outcome = FleetRunner::new(FleetConfig::concurrent(
            2,
            RunConfig {
                k_max: 3,
                ..RunConfig::default()
            },
        ))
        .run(
            &p,
            &mut chip,
            &mut pool,
            &mut FifoScheduler::new(),
            &FaultPlan::none(),
            &mut rng,
        );
        assert_eq!(outcome.status, RunStatus::CycleLimit);
        assert!(outcome.cycles <= 3);
    }
}
