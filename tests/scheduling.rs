//! Integration tests for the runtime MO-ordering extension and the
//! scheduling-scheme configurations of Section VI-D.

use meda::bioassay::{benchmarks, BioassayPlan, RjHelper};
use meda::core::HealthField;
use meda::degradation::HealthLevel;
use meda::grid::{ChipDims, Grid};
use meda::sim::{
    AdaptiveConfig, AdaptiveRouter, BaselineRouter, BioassayRunner, Biochip, DegradationConfig,
    FaultPlan, FifoScheduler, FleetConfig, FleetOutcome, FleetRunner, HealthAwareScheduler,
    MoScheduler, OneRouter, Router, RunConfig,
};
use meda_rng::SeedableRng;
use meda_rng::StdRng;

/// One chaos-free width-1 run of `plan` with `router`, ordered by
/// `scheduler`.
fn run_scheduled(
    run: RunConfig,
    plan: &BioassayPlan,
    chip: &mut Biochip,
    router: &mut dyn Router,
    scheduler: &mut dyn MoScheduler,
    rng: &mut StdRng,
) -> FleetOutcome {
    FleetRunner::new(FleetConfig::serial(run)).run(
        plan,
        chip,
        &mut OneRouter(router),
        scheduler,
        &FaultPlan::none(),
        rng,
    )
}

/// Both schedulers complete every benchmark bioassay on a pristine chip,
/// and FIFO reproduces `run` exactly.
#[test]
fn schedulers_complete_all_benchmarks() {
    let dims = ChipDims::PAPER;
    let helper = RjHelper::new(dims);
    let runner = BioassayRunner::new(RunConfig::default());
    for sg in benchmarks::evaluation_suite() {
        let plan = helper.plan(&sg).unwrap();

        let mut rng = StdRng::seed_from_u64(99);
        let mut chip = Biochip::generate(dims, &DegradationConfig::pristine(), &mut rng);
        let mut router = BaselineRouter::new();
        let plain = runner.run(&plan, &mut chip, &mut router, &mut rng);

        let mut rng = StdRng::seed_from_u64(99);
        let mut chip = Biochip::generate(dims, &DegradationConfig::pristine(), &mut rng);
        let mut router = BaselineRouter::new();
        let fifo = run_scheduled(
            RunConfig::default(),
            &plan,
            &mut chip,
            &mut router,
            &mut FifoScheduler::new(),
            &mut rng,
        );
        assert!(plain.is_success() && fifo.is_success(), "{}", sg.name());
        assert_eq!(
            plain.cycles,
            fifo.cycles,
            "{}: FIFO must equal plan order",
            sg.name()
        );

        let mut rng = StdRng::seed_from_u64(99);
        let mut chip = Biochip::generate(dims, &DegradationConfig::pristine(), &mut rng);
        let mut router = BaselineRouter::new();
        let health_aware = run_scheduled(
            RunConfig::default(),
            &plan,
            &mut chip,
            &mut router,
            &mut HealthAwareScheduler::new(),
            &mut rng,
        );
        assert!(health_aware.is_success(), "{}", sg.name());
    }
}

/// The health-aware scheduler respects dependencies: on a chip where one
/// lane is worn, it still finishes both lanes of the multiplex assay.
#[test]
fn health_aware_scheduler_respects_dependencies() {
    let dims = ChipDims::PAPER;
    let plan = RjHelper::new(dims)
        .plan(&benchmarks::multiplex_invitro((4, 4)))
        .unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let mut chip = Biochip::generate(dims, &DegradationConfig::paper(), &mut rng);
    // Pre-wear the south lane.
    let mut pattern = meda::grid::Grid::new(dims, false);
    pattern.fill_rect(meda::grid::Rect::new(5, 2, 55, 12), true);
    for _ in 0..300 {
        chip.apply_actuation(&pattern);
    }
    let mut router = AdaptiveRouter::new(AdaptiveConfig::paper());
    let outcome = run_scheduled(
        RunConfig {
            k_max: 3_000,
            record_actuation: false,
            sensed_feedback: false,
        },
        &plan,
        &mut chip,
        &mut router,
        &mut HealthAwareScheduler::new(),
        &mut rng,
    );
    assert!(outcome.is_success(), "{:?}", outcome.status);
}

/// Warm-up makes the first execution synthesis-free for repeated jobs, and
/// pure-online never builds a library.
#[test]
fn scheduling_schemes_have_expected_library_behaviour() {
    let dims = ChipDims::PAPER;
    let plan = RjHelper::new(dims).plan(&benchmarks::covid_rat()).unwrap();
    let pristine_health = HealthField::new(Grid::new(dims, HealthLevel::full(2)), 2);

    let mut warm = AdaptiveRouter::new(AdaptiveConfig::paper());
    let stored = warm.warm_up(&plan, &pristine_health);
    assert!(stored >= 3, "covid-rat has ≥3 routed jobs, stored {stored}");
    let offline = warm.synthesis_time();

    let mut rng = StdRng::seed_from_u64(13);
    let mut chip = Biochip::generate(dims, &DegradationConfig::pristine(), &mut rng);
    let runner = BioassayRunner::new(RunConfig::default());
    assert!(runner
        .run(&plan, &mut chip, &mut warm, &mut rng)
        .is_success());
    assert_eq!(
        warm.synthesis_time(),
        offline,
        "a pristine chip's first run must be served entirely from the warm library"
    );

    let mut online = AdaptiveRouter::new(AdaptiveConfig::pure_online());
    let mut rng = StdRng::seed_from_u64(13);
    let mut chip = Biochip::generate(dims, &DegradationConfig::pristine(), &mut rng);
    assert!(runner
        .run(&plan, &mut chip, &mut online, &mut rng)
        .is_success());
    assert!(online.library().is_empty());
    assert!(online.synthesis_time() > std::time::Duration::ZERO);
}
