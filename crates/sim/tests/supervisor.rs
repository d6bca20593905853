//! End-to-end tests of supervised execution: bit-identity with the plain
//! runner on the no-fault path, each escalation rung under the fault that
//! provokes it, and a seeded property sweep of random fault plans.

use meda_bioassay::{benchmarks, BioassayPlan, RjHelper};
use meda_grid::{Cell, ChipDims};
use meda_rng::{Rng, SeedableRng, StdRng};
use meda_sim::{
    AdaptiveConfig, AdaptiveRouter, BaselineRouter, BioassayRunner, Biochip, DegradationConfig,
    FaultPlan, FifoScheduler, FleetConfig, FleetOutcome, FleetRunner, Ladder, OneRouter, Router,
    RunConfig, RunStatus, Rung, SuddenDeath,
};

fn plan(sg: &meda_bioassay::SequencingGraph) -> BioassayPlan {
    RjHelper::new(ChipDims::PAPER).plan(sg).unwrap()
}

/// One width-1, plan-order run of `p` under `config`, driving `router`.
fn supervise(
    config: FleetConfig,
    p: &BioassayPlan,
    chip: &mut Biochip,
    router: &mut dyn Router,
    chaos: &FaultPlan,
    rng: &mut StdRng,
) -> FleetOutcome {
    FleetRunner::new(config).run(
        p,
        chip,
        &mut OneRouter(router),
        &mut FifoScheduler::new(),
        chaos,
        rng,
    )
}

/// [`FleetConfig::supervised`] with the reconfiguration rung armed (two
/// relocations per operation).
fn with_reconfig(run: RunConfig) -> FleetConfig {
    FleetConfig {
        ladder: Some(Ladder {
            reconfig_budget: 2,
            ..Ladder::default()
        }),
        ..FleetConfig::supervised(run)
    }
}

/// With no chaos and sensing off, supervision must be invisible: the
/// escalation ladder exists only on the failure path, so cycles, status,
/// wear, and the RNG stream position all match the plain runner on the
/// Fig 15/16 evaluation seeds.
#[test]
fn supervised_run_is_bit_identical_to_plain_runner_without_faults() {
    for (sg, seed) in [
        (benchmarks::master_mix(), 99u64),
        (benchmarks::covid_rat(), 1600u64),
    ] {
        let p = plan(&sg);
        let plain = {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut chip =
                Biochip::generate(ChipDims::PAPER, &DegradationConfig::paper(), &mut rng);
            let mut router = AdaptiveRouter::new(AdaptiveConfig::paper());
            let outcome =
                BioassayRunner::new(RunConfig::default()).run(&p, &mut chip, &mut router, &mut rng);
            (
                outcome.cycles,
                outcome.status,
                chip.total_actuations(),
                rng.gen::<u64>(),
            )
        };
        let supervised = {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut chip =
                Biochip::generate(ChipDims::PAPER, &DegradationConfig::paper(), &mut rng);
            let mut router = AdaptiveRouter::new(AdaptiveConfig::paper());
            let report = supervise(
                FleetConfig::supervised(RunConfig::default()),
                &p,
                &mut chip,
                &mut router,
                &FaultPlan::none(),
                &mut rng,
            );
            // No faults, no ladder: every operation must land first try.
            assert_eq!(report.resolved_by.len(), report.total_ops);
            assert!(
                report
                    .resolved_by
                    .iter()
                    .all(|&(_, rung)| rung == Rung::FirstTry),
                "fault-free run climbed the ladder: {:?}",
                report.resolved_by
            );
            (
                report.cycles,
                report.status,
                chip.total_actuations(),
                rng.gen::<u64>(),
            )
        };
        assert_eq!(plain, supervised, "{} seed {seed}", sg.name());
        assert_eq!(supervised.1, RunStatus::Success);
    }
}

/// Electrode death over a routing goal makes every attempt fail; the
/// ladder must climb all three recovery rungs (re-sense, re-synthesize,
/// detour) before the operation is finally aborted.
#[test]
fn electrode_death_climbs_to_the_detour_rung() {
    let p = plan(&benchmarks::master_mix());
    // Kill the first routed (non-dispense) job's goal region at cycle 5 —
    // no router can land the droplet on force-less electrodes.
    let victim = p
        .operations()
        .iter()
        .flat_map(|mo| mo.jobs.iter())
        .find(|job| !job.is_dispense())
        .expect("master mix has routed jobs")
        .goal;
    let mut chaos = FaultPlan::none();
    for cell in victim.cells() {
        chaos.sudden_deaths.push(SuddenDeath { cell, at_cycle: 5 });
    }

    let mut rng = StdRng::seed_from_u64(7);
    let mut chip = Biochip::generate(ChipDims::PAPER, &DegradationConfig::pristine(), &mut rng);
    let mut router = AdaptiveRouter::new(AdaptiveConfig::paper());
    let config = FleetConfig::supervised(RunConfig {
        // Room for all four watchdog-bounded attempts (4 x 256 cycles)
        // plus the rest of the assay — otherwise the global budget dies
        // first and the terminal CycleLimit masks the abort rung.
        k_max: 4_000,
        sensed_feedback: true,
        ..RunConfig::default()
    });
    let report = supervise(config, &p, &mut chip, &mut router, &chaos, &mut rng);

    let rungs = report.rungs;
    assert!(rungs.resense >= 1, "rung 1 never fired: {rungs:?}");
    assert!(rungs.resynth >= 1, "rung 2 never fired: {rungs:?}");
    assert!(rungs.detour >= 1, "rung 3 never fired: {rungs:?}");
    assert!(rungs.aborted_ops >= 1, "the dead goal must abort its MO");
    assert!(!report.is_success());
    assert!(
        !report.failed.is_empty() && report.failed[0].retries == Ladder::default().retry_budget,
        "the failing job must consume the whole retry budget"
    );
    // The winning-rung record covers exactly the completed operations, and
    // none of them needed the ladder — only the aborted MO was attacked.
    assert_eq!(report.resolved_by.len(), report.completed_ops);
    assert!(
        report
            .resolved_by
            .iter()
            .all(|&(_, rung)| rung == Rung::FirstTry),
        "an untouched operation climbed the ladder: {:?}",
        report.resolved_by
    );
}

/// Electrode death over a routing goal with the reconfiguration rung
/// armed: when all three recovery rungs fail, the planner must find a
/// spare region on the (otherwise pristine) chip, relocate the target
/// zone, and land the operation — no abort.
#[test]
fn reconfiguration_rung_relocates_a_dead_target_zone() {
    let p = plan(&benchmarks::master_mix());
    let victim = p
        .operations()
        .iter()
        .flat_map(|mo| mo.jobs.iter())
        .find(|job| !job.is_dispense())
        .expect("master mix has routed jobs")
        .goal;
    let mut chaos = FaultPlan::none();
    for cell in victim.cells() {
        chaos.sudden_deaths.push(SuddenDeath { cell, at_cycle: 5 });
    }

    let mut rng = StdRng::seed_from_u64(7);
    let mut chip = Biochip::generate(ChipDims::PAPER, &DegradationConfig::pristine(), &mut rng);
    let mut router = AdaptiveRouter::new(AdaptiveConfig::paper());
    let config = with_reconfig(RunConfig {
        // Room for the full ladder plus a relocated re-dispatch.
        k_max: 8_000,
        sensed_feedback: true,
        ..RunConfig::default()
    });
    let report = supervise(config, &p, &mut chip, &mut router, &chaos, &mut rng);

    assert!(
        report.rungs.reconfig >= 1,
        "the reconfiguration rung never fired: {report:?}"
    );
    assert_eq!(report.rungs.aborted_ops, 0, "abort despite a spare region");
    assert!(report.is_success(), "relocated run failed: {report:?}");
    assert!(
        report
            .resolved_by
            .iter()
            .any(|&(_, rung)| rung == Rung::Reconfig),
        "no operation credits the reconfiguration rung: {:?}",
        report.resolved_by
    );
}

/// A dispense whose target zone dies is invisible to the retry rungs (no
/// sensing loop), but the watchdog must still trip it and the
/// reconfiguration planner must relocate the entry zone onto live
/// electrodes.
#[test]
fn reconfiguration_rung_relocates_a_dead_dispense_zone() {
    let p = plan(&benchmarks::master_mix());
    // Master-mix entry zones sit one cell from the chip edge, so each
    // dispense lands within a couple of cycles. Kill the *last* dispense's
    // zone at cycle 1 — the death fires during the first operation's
    // dispense, guaranteed ahead of the victim's.
    let victim = p
        .operations()
        .iter()
        .flat_map(|mo| mo.jobs.iter())
        .rfind(|job| job.is_dispense())
        .expect("master mix has dispense jobs")
        .goal;
    let mut chaos = FaultPlan::none();
    for cell in victim.cells() {
        chaos.sudden_deaths.push(SuddenDeath { cell, at_cycle: 1 });
    }

    let mut rng = StdRng::seed_from_u64(11);
    let mut chip = Biochip::generate(ChipDims::PAPER, &DegradationConfig::pristine(), &mut rng);
    let mut router = AdaptiveRouter::new(AdaptiveConfig::paper());
    let config = with_reconfig(RunConfig {
        k_max: 8_000,
        sensed_feedback: true,
        ..RunConfig::default()
    });
    let report = supervise(config, &p, &mut chip, &mut router, &chaos, &mut rng);

    assert!(
        report.rungs.reconfig >= 1,
        "the dead dispense zone never triggered reconfiguration: {report:?}"
    );
    assert!(report.is_success(), "relocated dispense failed: {report:?}");
    assert!(
        report
            .resolved_by
            .iter()
            .any(|&(_, rung)| rung == Rung::Reconfig),
        "no operation credits the reconfiguration rung: {:?}",
        report.resolved_by
    );
}

/// Dense stuck-at-0 sensors over a goal region wedge the position
/// estimate: the watchdog must fire, the ladder must retry, and when the
/// retries run out the ladder must abort only that operation and keep
/// its independent lane alive.
#[test]
fn unrecoverable_operation_is_aborted_and_dependents_skipped() {
    let p = RjHelper::new(ChipDims::PAPER)
        .plan(&benchmarks::multiplex_invitro((4, 4)))
        .unwrap();
    // Blind the sensors over one lane's mix target: stuck-at-0 bits
    // swallow the droplet there, so the lane's mix can never confirm
    // arrival while the other lane's sensors stay honest.
    let victim = p
        .operations()
        .iter()
        .flat_map(|mo| mo.jobs.iter())
        .find(|job| !job.is_dispense())
        .expect("multiplex has routed jobs")
        .goal;
    let mut chaos = FaultPlan::none();
    for cell in victim.expand(2).cells() {
        chaos
            .stuck_sensors
            .push(meda_sim::StuckBit { cell, reads: false });
    }

    let mut rng = StdRng::seed_from_u64(3);
    let mut chip = Biochip::generate(ChipDims::PAPER, &DegradationConfig::pristine(), &mut rng);
    let mut router = AdaptiveRouter::new(AdaptiveConfig::paper());
    let config = FleetConfig::supervised(RunConfig {
        sensed_feedback: true,
        ..RunConfig::default()
    });
    let report = supervise(config, &p, &mut chip, &mut router, &chaos, &mut rng);

    // Graceful degradation: the poisoned lane is aborted and its
    // dependents skipped, while the honest lane still completes.
    assert!(report.rungs.aborted_ops >= 1, "no abort: {report:?}");
    assert!(report.completed_ops > 0, "nothing salvaged: {report:?}");
    assert!(!report.is_success());
    assert!(!report.failed.is_empty());
    assert!(
        !report.skipped.is_empty(),
        "dependents not skipped: {report:?}"
    );
    let failed_mos: Vec<usize> = report.failed.iter().map(|f| f.mo).collect();
    for &skipped in &report.skipped {
        let mo = &p.operations()[skipped];
        assert!(
            mo.pre
                .iter()
                .any(|pre| failed_mos.contains(pre) || report.skipped.contains(pre)),
            "MO {skipped} skipped without a failed ancestor"
        );
    }
}

/// Stuck sensor bits that perturb (but do not wedge) the estimate drive
/// the early rungs: across a seed sweep the resense rung must fire and
/// runs must still mostly complete.
#[test]
fn sensor_noise_drives_the_resense_rung() {
    let p = plan(&benchmarks::master_mix());
    let mut resensed = 0u64;
    let mut completed = 0u32;
    for seed in 0..10u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut chip = Biochip::generate(ChipDims::PAPER, &DegradationConfig::paper(), &mut rng);
        let mut router = AdaptiveRouter::new(AdaptiveConfig::paper());
        let chaos = FaultPlan::none().with_stuck_sensors(ChipDims::PAPER, 0.01, &mut rng);
        let config = FleetConfig::supervised(RunConfig {
            sensed_feedback: true,
            ..RunConfig::default()
        });
        let report = supervise(config, &p, &mut chip, &mut router, &chaos, &mut rng);
        resensed += report.rungs.resense;
        completed += u32::from(report.is_success());
    }
    assert!(resensed > 0, "no run ever re-sensed");
    assert!(completed >= 5, "only {completed}/10 runs completed");
}

/// Property sweep: any random fault plan yields a coherent report and
/// never panics — counts add up, fractions stay in range, failures name
/// real operations, and the ladder counters are consistent with the
/// number of retries consumed.
#[test]
fn random_fault_plans_never_panic_and_reports_stay_coherent() {
    let p = RjHelper::new(ChipDims::PAPER)
        .plan(&benchmarks::multiplex_invitro((4, 4)))
        .unwrap();
    let total = p.operations().len();
    let mut meta = StdRng::seed_from_u64(0xC4A05);
    for _ in 0..20 {
        let seed = meta.gen_range(0..10_000u64);
        let sensed = meta.gen::<bool>();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut chip = Biochip::generate(ChipDims::PAPER, &DegradationConfig::paper(), &mut rng);
        let mut router = BaselineRouter::new();
        let chaos = FaultPlan::random(ChipDims::PAPER, 2_000, &mut rng);
        let config = FleetConfig::supervised(RunConfig {
            sensed_feedback: sensed,
            ..RunConfig::default()
        });
        let report = supervise(config, &p, &mut chip, &mut router, &chaos, &mut rng);

        assert_eq!(report.total_ops, total);
        assert!(report.completed_ops <= total);
        assert!(
            report.completed_ops + report.failed.len() + report.skipped.len() <= total,
            "seed {seed}: accounting exceeds the plan"
        );
        let frac = report.completion_fraction();
        assert!((0.0..=1.0).contains(&frac), "seed {seed}: fraction {frac}");
        assert_eq!(report.is_success(), report.status == RunStatus::Success);
        for failure in &report.failed {
            assert!(failure.mo < total, "seed {seed}: failure names a ghost MO");
            assert!(
                failure.retries <= Ladder::default().retry_budget,
                "seed {seed}: retries over budget"
            );
            assert!(
                ChipDims::PAPER.bounds().contains_cell(Cell::new(
                    failure.last_position.xa,
                    failure.last_position.ya
                )),
                "seed {seed}: last position off-chip"
            );
        }
        for &skipped in &report.skipped {
            assert!(skipped < total, "seed {seed}: skipped a ghost MO");
        }
        if report.status == RunStatus::Success {
            assert!(report.failed.is_empty() && report.skipped.is_empty());
        }
    }
}
