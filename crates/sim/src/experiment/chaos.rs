use meda_rng::StdRng;
use meda_rng::{Rng, SeedableRng};

use meda_bioassay::BioassayPlan;
use meda_grid::{ChipDims, Rect};

use crate::{
    AdaptiveConfig, AdaptiveRouter, BaselineRouter, Biochip, DegradationConfig, FaultPlan,
    FifoScheduler, FleetConfig, FleetRunner, Ladder, OneRouter, RecoveryRouter, Router, RunConfig,
    RungCounts, SuddenDeath,
};

/// One control stack evaluated by the chaos sweep. The first three run
/// unsupervised (the first routing failure aborts the bioassay); the
/// supervised variants run the adaptive router under the escalation
/// [`Ladder`] and degrade gracefully instead — with or without the
/// reconfiguration rung armed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosVariant {
    /// Degradation-unaware shortest-path routing.
    Baseline,
    /// Reactive error recovery (re-route on stall).
    Recovery,
    /// The paper's formal-synthesis adaptive router.
    Adaptive,
    /// Adaptive routing under the retry ladder.
    SupervisedAdaptive,
    /// The full stack: the retry ladder plus the reconfiguration planner
    /// that relocates swallowed target zones onto spare electrodes.
    SupervisedReconfig,
}

impl ChaosVariant {
    /// All five variants, in presentation order.
    pub const ALL: [ChaosVariant; 5] = [
        ChaosVariant::Baseline,
        ChaosVariant::Recovery,
        ChaosVariant::Adaptive,
        ChaosVariant::SupervisedAdaptive,
        ChaosVariant::SupervisedReconfig,
    ];

    /// Human-readable variant name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ChaosVariant::Baseline => "baseline",
            ChaosVariant::Recovery => "recovery",
            ChaosVariant::Adaptive => "adaptive",
            ChaosVariant::SupervisedAdaptive => "supervised-adaptive",
            ChaosVariant::SupervisedReconfig => "supervised-reconfig",
        }
    }

    /// Runs one trial with sensed feedback closed over the chaos plan.
    /// Returns `(full success, completion fraction, ladder counts)` —
    /// unsupervised variants report zero ladder activity. The reactive
    /// router and the detour rung share the ladder's detour patience.
    fn run_one(
        self,
        plan: &BioassayPlan,
        chip: &mut Biochip,
        chaos: &FaultPlan,
        k_max: u64,
        rng: &mut impl Rng,
    ) -> (bool, f64, RungCounts) {
        let run = RunConfig {
            k_max,
            record_actuation: false,
            sensed_feedback: true,
        };
        let mut router: Box<dyn Router> = match self {
            ChaosVariant::Baseline => Box::new(BaselineRouter::new()),
            ChaosVariant::Recovery => {
                Box::new(RecoveryRouter::new(Ladder::default().detour_patience))
            }
            _ => Box::new(AdaptiveRouter::new(AdaptiveConfig::paper())),
        };
        let config = match self {
            ChaosVariant::SupervisedAdaptive => FleetConfig::supervised(run),
            ChaosVariant::SupervisedReconfig => FleetConfig {
                ladder: Some(Ladder {
                    reconfig_budget: 2,
                    ..Ladder::default()
                }),
                ..FleetConfig::supervised(run)
            },
            _ => FleetConfig::serial(run),
        };
        let outcome = FleetRunner::new(config).run(
            plan,
            chip,
            &mut OneRouter(router.as_mut()),
            &mut FifoScheduler::new(),
            chaos,
            rng,
        );
        (
            outcome.is_success(),
            outcome.completion_fraction(),
            outcome.rungs,
        )
    }
}

/// A hard-chaos fault class for the degradation-curve matrix. Each class
/// maps one *severity* knob in `[0, 1]` — roughly the fraction of the chip
/// the faults reach — onto a concrete [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// Stuck location-sensor bits at per-MC rate `severity` (the classic
    /// sweep; corrupts sensing only).
    StuckSensors,
    /// Clustered electrode death: `8 × 8` dead patches (clumped `2 × 2`
    /// clusters) covering `severity` of the chip.
    ClusterDeath,
    /// Whole-row electrode losses covering `severity` of the rows
    /// (rounded up — any positive severity kills at least one row).
    RowLoss,
    /// One growing defect front paced to reach a dead ball of `severity`
    /// of the chip area within roughly a third of the cycle budget.
    DefectFront,
}

impl FaultClass {
    /// All four classes, in presentation order.
    pub const ALL: [FaultClass; 4] = [
        FaultClass::StuckSensors,
        FaultClass::ClusterDeath,
        FaultClass::RowLoss,
        FaultClass::DefectFront,
    ];

    /// Short metric-key name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FaultClass::StuckSensors => "stuck",
            FaultClass::ClusterDeath => "cluster",
            FaultClass::RowLoss => "rowloss",
            FaultClass::DefectFront => "front",
        }
    }

    /// Inverse of [`FaultClass::name`] — parses a CLI/metric-key name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<FaultClass> {
        FaultClass::ALL.into_iter().find(|c| c.name() == name)
    }

    /// Builds the fault plan for one trial at the given severity. Severity
    /// 0 is the shared fault-free point of every class's curve.
    #[must_use]
    pub fn plan(self, dims: ChipDims, severity: f64, k_max: u64, rng: &mut impl Rng) -> FaultPlan {
        let severity = severity.clamp(0.0, 1.0);
        if severity == 0.0 {
            return FaultPlan::none();
        }
        let cells = dims.cell_count() as f64;
        // Deaths land early — within the first sixteenth of the budget,
        // well inside any assay's makespan — so the curve measures
        // recovery from damage, not luck about whether the assay finished
        // before the chip fell apart.
        let window = (1, (k_max / 16).max(1));
        match self {
            FaultClass::StuckSensors => FaultPlan::none().with_stuck_sensors(dims, severity, rng),
            FaultClass::ClusterDeath => {
                // Each site clumps the channel's 2 × 2 clusters into one
                // 8 × 8 dead patch — two droplet-widths on a side.
                // Scattered 2 × 2 blocks merely thin a 4 × 4 droplet's
                // frontier (the EWOD move still succeeds at reduced mean
                // force), and even a single droplet-sized 4 × 4 block
                // almost never lands *exactly* on a 4 × 4 landing zone —
                // the supervised ladder detours around anything smaller.
                // An 8 × 8 patch can swallow a target zone whole from any
                // interior alignment, the failure only relocation fixes.
                let sites = ((severity * cells / 64.0).round() as usize).max(1);
                let mut plan = FaultPlan::none();
                let max_x = (dims.width as i32 - 7).max(1);
                let max_y = (dims.height as i32 - 7).max(1);
                for _ in 0..sites {
                    let x = rng.gen_range(1..=max_x);
                    let y = rng.gen_range(1..=max_y);
                    let at_cycle = rng.gen_range(window.0..=window.1);
                    let block = Rect::new(
                        x,
                        y,
                        (x + 7).min(dims.width as i32),
                        (y + 7).min(dims.height as i32),
                    );
                    for cell in block.cells() {
                        plan.sudden_deaths.push(SuddenDeath { cell, at_cycle });
                    }
                }
                plan
            }
            FaultClass::RowLoss => {
                let rows = (severity * f64::from(dims.height)).ceil() as usize;
                FaultPlan::none().with_row_loss(dims, rows, window, rng)
            }
            FaultClass::DefectFront => {
                let radius = (severity * cells / 2.0).sqrt().max(1.0);
                let start = 32.min(k_max.max(1));
                let horizon = (k_max / 8).max(1) as f64;
                let period = ((horizon / radius).floor() as u64).max(1);
                FaultPlan::none().with_defect_fronts(dims, 1, (start, start), period, rng)
            }
        }
    }
}

/// One `(variant, severity index, trial)` sweep cell.
type ChaosCell = (ChaosVariant, usize, u32);
/// One trial's outcome: `(full success, completion fraction, ladder counts)`.
type ChaosOutcome = (bool, f64, RungCounts);

/// One aggregated point of the chaos sweep: a control stack facing one
/// fault class at one severity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosPoint {
    /// The control stack.
    pub variant: ChaosVariant,
    /// The fault class the trials faced.
    pub class: FaultClass,
    /// The class's severity knob (for [`FaultClass::StuckSensors`], the
    /// per-MC probability of a stuck sensor bit).
    pub severity: f64,
    /// Fraction of trials that completed the whole bioassay.
    pub pos: f64,
    /// Mean fraction of microfluidic operations completed per trial —
    /// the graceful-degradation headline number.
    pub mean_completion: f64,
    /// Ladder activity summed over all trials (supervised variants only).
    pub rungs: RungCounts,
}

/// The `ext_chaos` experiment: probability of success and mean completion
/// fraction under one fault class, for each `(variant, severity)` pair.
///
/// Every trial draws a fresh chip and a [`FaultPlan`] from the class's
/// severity knob; stuck bits corrupt the **Y** matrix behind
/// [`RunConfig::sensed_feedback`], electrode-death classes attack the
/// ground-truth chip itself — the run is otherwise the Section VII-B
/// reuse setup. Cells are independent and deterministically seeded, and
/// the severity axis is *coupled*: neither the variant nor the severity
/// enters the seed, so at a given trial every stack faces the identical
/// chip at every severity, and the fault plan is drawn from a dedicated
/// RNG stream whose draws nest across severities (the 2%-severity fault
/// set is a subset of the 8% one for every channel) — the degradation
/// curve measures the response to strictly growing damage, not
/// chip-to-chip luck. The sweep parallelizes across cores with results
/// identical to a serial loop.
///
/// # Panics
///
/// Panics if `trials == 0`.
#[allow(clippy::too_many_arguments)]
pub fn chaos_sweep(
    plan: &BioassayPlan,
    dims: ChipDims,
    degradation: &DegradationConfig,
    variants: &[ChaosVariant],
    class: FaultClass,
    severities: &[f64],
    trials: u32,
    k_max: u64,
    seed: u64,
) -> Vec<ChaosPoint> {
    assert!(trials > 0, "need at least one trial");

    let run_cell = |(variant, sev_idx, trial): ChaosCell| {
        let severity = severities[sev_idx];
        // Neither the variant nor the severity enters a seed: per trial,
        // every stack faces the same chip at every severity, with the
        // fault plan drawn from its own stream so the run randomness stays
        // aligned across severities and the fault sets nest.
        let trial_seed = seed ^ (u64::from(trial) << 8);
        let mut rng = StdRng::seed_from_u64(trial_seed);
        let mut chip = Biochip::generate(dims, degradation, &mut rng);
        let mut chaos_rng = StdRng::seed_from_u64(trial_seed ^ 0x9E37_79B9_7F4A_7C15);
        let chaos = class.plan(dims, severity, k_max, &mut chaos_rng);
        variant.run_one(plan, &mut chip, &chaos, k_max, &mut rng)
    };

    let cells: Vec<ChaosCell> = variants
        .iter()
        .flat_map(|&v| (0..severities.len()).flat_map(move |r| (0..trials).map(move |t| (v, r, t))))
        .collect();
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let chunk = cells.len().div_ceil(threads).max(1);
    let per_cell: Vec<(ChaosCell, ChaosOutcome)> = std::thread::scope(|scope| {
        let handles: Vec<_> = cells
            .chunks(chunk)
            .map(|batch| {
                let run_cell = &run_cell;
                scope.spawn(move || {
                    batch
                        .iter()
                        .map(|&cell| (cell, run_cell(cell)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("chaos sweep thread panicked"))
            .collect()
    });

    variants
        .iter()
        .flat_map(|&variant| {
            let per_cell = &per_cell;
            severities.iter().enumerate().map(move |(sev_idx, &sev)| {
                let mut successes = 0u32;
                let mut completion = 0.0f64;
                let mut rungs = RungCounts::default();
                for ((v, r, _), (ok, frac, counts)) in per_cell {
                    if *v == variant && *r == sev_idx {
                        successes += u32::from(*ok);
                        completion += frac;
                        rungs.resense += counts.resense;
                        rungs.resynth += counts.resynth;
                        rungs.detour += counts.detour;
                        rungs.reconfig += counts.reconfig;
                        rungs.aborted_ops += counts.aborted_ops;
                    }
                }
                ChaosPoint {
                    variant,
                    class,
                    severity: sev,
                    pos: f64::from(successes) / f64::from(trials),
                    mean_completion: completion / f64::from(trials),
                    rungs,
                }
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use meda_bioassay::{benchmarks, RjHelper};

    fn plan() -> BioassayPlan {
        RjHelper::new(ChipDims::PAPER)
            .plan(&benchmarks::master_mix())
            .unwrap()
    }

    #[test]
    fn clean_sensors_complete_for_every_variant() {
        let points = chaos_sweep(
            &plan(),
            ChipDims::PAPER,
            &DegradationConfig::pristine(),
            &ChaosVariant::ALL,
            FaultClass::StuckSensors,
            &[0.0],
            2,
            2_000,
            11,
        );
        for p in &points {
            assert_eq!(p.pos, 1.0, "{} failed with clean sensors", p.variant.name());
            assert_eq!(p.mean_completion, 1.0);
        }
    }

    #[test]
    fn fault_class_severity_zero_is_the_shared_clean_point() {
        let mut rng = StdRng::seed_from_u64(3);
        for class in FaultClass::ALL {
            assert!(class.plan(ChipDims::PAPER, 0.0, 2_000, &mut rng).is_none());
        }
    }

    #[test]
    fn fault_class_plans_are_on_chip_and_grow_with_severity() {
        let dims = ChipDims::PAPER;
        for class in FaultClass::ALL {
            let mut lo_rng = StdRng::seed_from_u64(17);
            let mut hi_rng = StdRng::seed_from_u64(17);
            let lo = class.plan(dims, 0.02, 2_000, &mut lo_rng);
            let hi = class.plan(dims, 0.08, 2_000, &mut hi_rng);
            for plan in [&lo, &hi] {
                assert!(plan.sudden_deaths.iter().all(|d| dims.contains(d.cell)));
                assert!(plan.stuck_sensors.iter().all(|s| dims.contains(s.cell)));
                assert!(plan.defect_fronts.iter().all(|f| dims.contains(f.seed)));
            }
            // More severity means more scheduled damage (for the front, a
            // faster spread — smaller period — instead of more seeds).
            match class {
                FaultClass::StuckSensors => {
                    assert!(hi.stuck_sensors.len() > lo.stuck_sensors.len());
                }
                FaultClass::ClusterDeath | FaultClass::RowLoss => {
                    assert!(hi.sudden_deaths.len() > lo.sudden_deaths.len());
                }
                FaultClass::DefectFront => {
                    assert_eq!(lo.defect_fronts.len(), 1);
                    assert_eq!(hi.defect_fronts.len(), 1);
                    assert!(hi.defect_fronts[0].period < lo.defect_fronts[0].period);
                }
            }
        }
    }

    #[test]
    fn supervised_adaptive_beats_unsupervised_under_sensor_faults() {
        // The acceptance bar: at >= 1% stuck sensor bits the supervised
        // stack completes strictly more operations than the unsupervised
        // adaptive stack facing the identical chips and fault plans. The
        // two-lane multiplex assay gives abort-and-continue something to
        // salvage: losing one lane must not cost the other.
        let p = RjHelper::new(ChipDims::PAPER)
            .plan(&benchmarks::multiplex_invitro((4, 4)))
            .unwrap();
        let points = chaos_sweep(
            &p,
            ChipDims::PAPER,
            &DegradationConfig::paper(),
            &[ChaosVariant::Adaptive, ChaosVariant::SupervisedAdaptive],
            FaultClass::StuckSensors,
            &[0.02],
            6,
            2_000,
            23,
        );
        let completion = |v: ChaosVariant| {
            points
                .iter()
                .find(|p| p.variant == v)
                .map(|p| p.mean_completion)
                .unwrap()
        };
        assert!(
            completion(ChaosVariant::SupervisedAdaptive) > completion(ChaosVariant::Adaptive),
            "supervised {} vs unsupervised {}",
            completion(ChaosVariant::SupervisedAdaptive),
            completion(ChaosVariant::Adaptive),
        );
    }
}
