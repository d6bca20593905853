//! The failure ladder: graceful degradation for the one execution loop.
//!
//! Without a [`Ladder`] a [`FleetRunner`](crate::FleetRunner) run is
//! all-or-nothing: the first failed routing job ends the whole bioassay.
//! Cyberphysical DMFB practice instead detects errors through the sensing
//! loop and re-executes bounded portions of the assay. With one
//! ([`FleetConfig::ladder`](crate::FleetConfig::ladder), preset by
//! [`FleetConfig::supervised`](crate::FleetConfig::supervised)) every
//! failed routing job climbs an escalation ladder — re-sense the droplet
//! and retry, re-synthesize with a widened corridor from the refreshed
//! health matrix, detour via the reactive
//! [`RecoveryRouter`](crate::RecoveryRouter) — and only when the retry
//! budget is exhausted is the operation aborted, its dependents skipped,
//! and the rest of the plan continued. The
//! [`FleetOutcome`](crate::FleetOutcome) then records what completed,
//! what was aborted and why ([`MoFailure`]), and how hard the ladder had
//! to work ([`RungCounts`], [`Rung`]).
//!
//! With [`Ladder::reconfig_budget`] above zero a further rung sits between
//! the detour and the abort: the *reconfiguration planner*
//! ([`reconfigure`]). When the whole per-job ladder fails, it scans the
//! quantized health matrix **H** for a healthy spare region large enough
//! for the failing operation's target zone, relocates the zone there
//! through the bioassay placer ([`RjHelper::relocate`] — the Algorithm-1
//! re-entry for the displaced subtree), rewrites the restart jobs from the
//! droplets' actual positions, and restarts the operation. Strategy-backed
//! routers see fresh start/goal/bounds keys and re-synthesize
//! automatically.

use meda_rng::Rng;

use meda_bioassay::{BioassayPlan, PlannedMo, RjHelper, RoutingJob};
use meda_core::ForceProvider;
use meda_grid::Rect;

use crate::engine::Exec;
use crate::RunStatus;

/// The per-task failure ladder: retry a failed routing job (re-sense,
/// re-synthesize with a widened corridor, detour), relocate the operation,
/// then abort it and skip its dependents while the rest of the plan runs
/// on. Zero budgets abort a failing operation at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ladder {
    /// Retries allowed per routing job beyond its first attempt. Each
    /// retry climbs one rung; retry 3 and beyond stay on the detour rung.
    pub retry_budget: u32,
    /// Stall patience of the [`RecoveryRouter`](crate::RecoveryRouter)
    /// used on the detour rung.
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

/// Minimum per-cell relative EWOD force for a cell to count as *spare* in
/// the reconfiguration scan — at least half-strength under the
/// conservative health interpretation (dead and nearly-dead cells are
/// excluded; a pristine 2-bit cell reads 0.5625).
const SPARE_MIN_FORCE: f64 = 0.25;

/// One aborted microfluidic operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MoFailure {
    /// The operation's id in the plan.
    pub mo: usize,
    /// Index of the routing job that exhausted its retries.
    pub job: usize,
    /// The failure class of the final attempt.
    pub status: RunStatus,
    /// Where the droplet was last believed to be.
    pub last_position: Rect,
    /// Retries consumed before giving up.
    pub retries: u32,
}

/// The highest escalation rung an operation needed before it completed —
/// the *winning* rung, as opposed to [`RungCounts`] which tallies attempts.
/// Ordered by severity, so `max` folds per-job outcomes into a per-MO one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rung {
    /// Every routing job landed on its first attempt.
    FirstTry,
    /// Rung 1: a global re-sense relocated the droplet.
    Resense,
    /// Rung 2: re-synthesis with a widened corridor.
    Resynth,
    /// Rung 3: a reactive detour.
    Detour,
    /// Rung 4: the operation was relocated onto spare electrodes.
    Reconfig,
}

/// How often each rung of the escalation ladder fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RungCounts {
    /// Rung 1: global re-sense, retry with the same router.
    pub resense: u64,
    /// Rung 2: re-synthesis from the refreshed health matrix with a
    /// widened routing corridor.
    pub resynth: u64,
    /// Rung 3: detour via a fresh reactive
    /// [`RecoveryRouter`](crate::RecoveryRouter).
    pub detour: u64,
    /// Rung 4: relocations onto spare electrodes by the reconfiguration
    /// planner.
    pub reconfig: u64,
    /// Rung 5: operations aborted after every budget ran out.
    pub aborted_ops: u64,
}

/// The reconfiguration rung: find a healthy spare region for the failing
/// operation `picked`'s target zone, relocate the zone there through the
/// bioassay placer (cloning `plan` into `working` on the first
/// relocation), and rewrite the restart jobs from the droplets' actual
/// positions. `held` is everything else physically on the chip;
/// `pending` the failed droplet's ground truth, kept for the restart only
/// when its job is the first to run again. Returns `true` when the
/// operation was relocated and should restart from its first job, `false`
/// when no spare region exists (the caller falls through to the abort).
#[allow(clippy::too_many_arguments)]
pub(crate) fn reconfigure<R: Rng>(
    exec: &mut Exec<'_, R>,
    plan: &BioassayPlan,
    working: &mut Option<BioassayPlan>,
    picked: usize,
    fail_job: usize,
    arrived: &[Rect],
    last_estimate: Rect,
    held: &[Rect],
    pending: &mut Option<Rect>,
) -> bool {
    let telemetry = meda_telemetry::global();
    let mo = working.as_ref().unwrap_or(plan).operations()[picked].clone();
    if mo.jobs.is_empty() {
        return false;
    }
    let failed_dispense = mo.jobs[fail_job].is_dispense();
    // The rung only helps against electrode *death*: when no cell of
    // the operation's working region — corridors and targets alike —
    // has failed outright, the failure is sensing- or
    // congestion-shaped, and a relocation would burn shared cycle
    // budget without fixing anything. Outright death (degradation
    // exactly 0) is distinguishable from deep wear, which decays
    // `τ^(n/c)` and never reaches 0 — in the fabricated design the
    // sudden drop is what the health telemetry flags. Dispense is
    // exempt from the gate: it has no sensing loop, so a stalled
    // dispense already implicates its (unsensed, off-region) entry
    // corridor.
    if !failed_dispense {
        let dims = exec.chip.dims();
        let mut region: Option<Rect> = None;
        for r in mo
            .jobs
            .iter()
            .map(|j| j.bounds)
            .chain(mo.outputs.iter().copied())
        {
            region = Some(region.map_or(r, |f| f.union(r)));
        }
        let no_dead_cells = region.is_none_or(|region| {
            region
                .cells()
                .filter(|&c| dims.contains(c))
                .all(|c| exec.chip.degradation_at(c) > 0.0)
        });
        if no_dead_cells {
            telemetry.add("sim.ladder.reconfig.skipped_healthy", 1);
            return false;
        }
    }
    // A chip-wide re-sense pins down the failed droplet; if it is
    // invisible (occluded / swallowed by stuck bits), restart from the
    // last estimate — the detour rungs already failed from there, so
    // there is nothing better. A failed dispense has no on-chip
    // droplet to find: the half-dispensed volume is written off and
    // the dispense restarts from the edge of the relocated zone.
    let estimate = if failed_dispense {
        last_estimate
    } else {
        exec.resense(pending.unwrap_or(last_estimate), last_estimate, held)
            .unwrap_or(last_estimate)
    };

    let displacement = {
        let _scan = telemetry.span("sim.ladder.reconfig.scan");
        find_spare_region(exec, &mo, held)
    };
    let Some((dx, dy)) = displacement else {
        telemetry.add("sim.ladder.reconfig.scan_misses", 1);
        return false;
    };

    let wp = working.get_or_insert_with(|| plan.clone());
    let dims = exec.chip.dims();
    if RjHelper::new(dims).relocate(wp, picked, dx, dy).is_err() {
        // The footprint fits, but a re-derived successor rectangle
        // (e.g. a recentered split source) left the chip: give up on
        // this relocation rather than commit half a plan.
        telemetry.add("sim.ladder.reconfig.scan_misses", 1);
        return false;
    }
    telemetry
        .histogram("sim.ladder.reconfig.distance")
        .record(u64::from(dx.unsigned_abs() + dy.unsigned_abs()));

    // Rewrite the restart jobs from where the droplets actually are:
    // already-arrived partners re-route from their (old) goals, the
    // failed droplet from its re-sensed position, later jobs keep the
    // starts the placer derived. Its inputs were consumed on the
    // first dispatch, so the restart consumes none.
    let mo = &mut wp.operations_mut()[picked];
    mo.inputs.clear();
    for (i, job) in mo.jobs.iter_mut().enumerate() {
        let start = match i.cmp(&fail_job) {
            std::cmp::Ordering::Less => arrived[i],
            // The relocated dispense keeps its off-chip start; the
            // placer already re-derived its entry zone.
            std::cmp::Ordering::Equal if failed_dispense => job.start,
            std::cmp::Ordering::Equal => estimate,
            std::cmp::Ordering::Greater => job.start,
        };
        if i <= fail_job && !start.is_off_chip_origin() {
            let bounds = meda_bioassay::zone(start, job.goal, dims);
            *job = RoutingJob::new(start, job.goal, bounds);
        }
    }
    // Physical continuity: the failed droplet's ground truth carries
    // into the restart only when it is the first job to run again;
    // otherwise an earlier restart job would wrongly inherit it. A
    // half-dispensed droplet never carries over — the restart
    // dispenses fresh volume from the edge.
    if fail_job != 0 || failed_dispense {
        *pending = None;
    }
    true
}

/// Scans the quantized health matrix for the nearest displacement
/// `(dx, dy)` that lands the operation's whole target footprint (goals
/// and outputs, plus a one-cell hazard rim) on spare electrodes —
/// every cell at least [`SPARE_MIN_FORCE`] — while keeping a two-cell
/// clearance from every held droplet.
fn find_spare_region<R: Rng>(
    exec: &Exec<'_, R>,
    mo: &PlannedMo,
    held: &[Rect],
) -> Option<(i32, i32)> {
    let mut footprint: Option<Rect> = None;
    for r in mo
        .jobs
        .iter()
        .map(|j| j.goal)
        .chain(mo.outputs.iter().copied())
    {
        footprint = Some(footprint.map_or(r, |f| f.union(r)));
    }
    let footprint = footprint?;
    let dims = exec.chip.dims();
    let health = exec.chip.health_field();
    let mut best: Option<(u32, i32, i32)> = None;
    for dx in (1 - footprint.xa)..=(dims.width as i32 - footprint.xb) {
        for dy in (1 - footprint.ya)..=(dims.height as i32 - footprint.yb) {
            if dx == 0 && dy == 0 {
                continue;
            }
            let dist = dx.unsigned_abs() + dy.unsigned_abs();
            if best.is_some_and(|(d, _, _)| d <= dist) {
                continue;
            }
            let target = footprint.translate(dx, dy);
            let clearance = target.expand(2);
            if held.iter().any(|r| clearance.intersection(*r).is_some()) {
                continue;
            }
            if target
                .expand(1)
                .cells()
                .filter(|&c| dims.contains(c))
                .all(|c| health.cell_force(c) >= SPARE_MIN_FORCE)
            {
                best = Some((dist, dx, dy));
            }
        }
    }
    best.map(|(_, dx, dy)| (dx, dy))
}
