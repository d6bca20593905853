//! Chaos interplay for the concurrent fleet engine: under the hard-chaos
//! fault classes (clustered electrode deaths, whole-row loss over an
//! operation's goal band), the supervised fleet (the failure [`Ladder`]
//! with zero retry and reconfiguration budgets: abort the failing
//! operation, skip its dependents, run on) must dominate the plain fleet
//! on completed operations, and the fluidic-separation audit must stay
//! green even while droplets detour around freshly dead regions.
//!
//! Why dominance is unconditional here: plain and supervised runs are
//! configured identically except for the failure policy — both arm the
//! same per-attempt watchdog, the one give-up detector — so they are
//! bit-identical up to the moment of the first failure. The plain run
//! freezes its completed count there; the supervised run carries that
//! same prefix forward and the count only grows. A chaos-stranded droplet
//! squatting on a peer's only detour corridor therefore affects *which*
//! extra operations the supervised run salvages — the watchdog eventually
//! fails the blocked peer too — but never pushes it below the plain run.

use meda_bioassay::{benchmarks, BioassayPlan, RjHelper};
use meda_grid::{Cell, ChipDims};
use meda_rng::{Rng, SeedableRng, StdRng};
use meda_sim::{
    dependency_exemption, AdaptiveConfig, AdaptivePool, Biochip, DegradationConfig, FaultPlan,
    FifoScheduler, FleetConfig, FleetOutcome, FleetRunner, Ladder, RunConfig, SuddenDeath,
};

/// Cycles one attempt may burn before the watchdog declares it stalled.
const WATCHDOG: u64 = 48;

/// The ladder with zero budgets: a failing operation is aborted at once.
const ABORT_ONLY: Ladder = Ladder {
    retry_budget: 0,
    detour_patience: 4,
    reconfig_budget: 0,
};

fn plan() -> BioassayPlan {
    RjHelper::new(ChipDims::PAPER)
        .plan(&benchmarks::multiplex_invitro((4, 4)))
        .unwrap()
}

/// Hard chaos aimed where it hurts: a whole-row loss across one random
/// operation's goal band (the shared-driver failure of Section VII-C —
/// droplets cannot creep across a multi-row dead band) plus clustered
/// `2 × 2` deaths as background noise.
fn hard_chaos(seed: u64, p: &BioassayPlan) -> FaultPlan {
    let mut rng = StdRng::seed_from_u64(seed);
    let victim = rng.gen_range(0..p.operations().len());
    let goal = p.operations()[victim]
        .jobs
        .last()
        .expect("planned MOs have jobs")
        .goal;
    let at_cycle = rng.gen_range(3..30);
    let mut chaos = FaultPlan::none().with_cluster_deaths(ChipDims::PAPER, 2, (3, 60), &mut rng);
    for y in goal.ya..=goal.yb {
        for x in 1..=ChipDims::PAPER.width as i32 {
            chaos.sudden_deaths.push(SuddenDeath {
                cell: Cell::new(x, y),
                at_cycle,
            });
        }
    }
    chaos
}

fn run_fleet(ladder: Option<Ladder>, seed: u64, chaos: &FaultPlan) -> FleetOutcome {
    let run = RunConfig {
        k_max: 1_200,
        ..RunConfig::default()
    };
    let cfg = FleetConfig {
        record_movers: true,
        attempt_cycles: Some(WATCHDOG),
        ladder,
        ..FleetConfig::concurrent(4, run)
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut chip = Biochip::generate(ChipDims::PAPER, &DegradationConfig::paper(), &mut rng);
    let mut pool = AdaptivePool::new(AdaptiveConfig::paper());
    FleetRunner::new(cfg).run(
        &plan(),
        &mut chip,
        &mut pool,
        &mut FifoScheduler::new(),
        chaos,
        &mut rng,
    )
}

/// Seeded sweep over the hard-chaos classes: the supervised fleet never
/// completes fewer operations than the plain fleet, succeeds whenever the
/// plain fleet succeeds, salvages strictly more on at least one
/// failure-path seed, and its movers log passes the separation audit
/// (with the producer→consumer handoff exemption) on every seed.
#[test]
fn supervised_fleet_dominates_plain_fleet_under_hard_chaos() {
    let p = plan();
    let exempt = dependency_exemption(&p);
    let mut failures = 0usize;
    let mut strict = 0usize;
    for seed in 0..12u64 {
        let chaos = hard_chaos(0xC4A0 + seed, &p);
        let plain = run_fleet(None, seed, &chaos);
        let supervised = run_fleet(Some(ABORT_ONLY), seed, &chaos);

        // Separation must hold on the supervised run even while the
        // survivors thread around dead regions and failed peers.
        let log = supervised.movers.as_ref().expect("recording enabled");
        let v = FleetConfig::default()
            .constraints
            .audit_exempting(log, &exempt);
        assert!(v.is_none(), "seed {seed}: separation violated: {v:?}");

        assert!(
            supervised.completed_ops >= plain.completed_ops,
            "seed {seed}: supervised completed {}/{} but plain completed {}/{} ({:?} vs {:?})",
            supervised.completed_ops,
            supervised.total_ops,
            plain.completed_ops,
            plain.total_ops,
            supervised.status,
            plain.status,
        );
        if plain.is_success() {
            // No operation ever failed, so supervision had nothing to do:
            // the runs are identical and the supervised one succeeds too.
            assert!(
                supervised.is_success(),
                "seed {seed}: plain succeeded but supervised ended {:?}",
                supervised.status
            );
        } else {
            failures += 1;
            if supervised.completed_ops > plain.completed_ops {
                strict += 1;
            }
        }
    }
    assert!(
        failures > 0,
        "chaos sweep never provoked a plain-fleet failure: the dominance \
         property was only tested on its trivial branch"
    );
    assert!(
        strict > 0,
        "supervision never salvaged extra operations across {failures} \
         failure-path seeds"
    );
}

/// A surgically lethal fault — every row of one chain's mix goal dies at
/// cycle 3 — aborts that operation once the watchdog fires. The plain fleet
/// gives up wholesale; the supervised fleet records the failure, skips the
/// dependents transitively, and still completes the untouched chain.
#[test]
fn supervised_fleet_completes_surviving_branches_after_a_lethal_row_loss() {
    let p = plan();
    // Kill the rows under the *last* operation's goal: its chain dies, the
    // other chain (disjoint rows on the paper chip) survives.
    let victim = p.operations().last().expect("non-empty plan");
    let goal = victim.jobs.last().expect("has jobs").goal;
    let mut chaos = FaultPlan::none();
    for y in goal.ya..=goal.yb {
        for x in 1..=ChipDims::PAPER.width as i32 {
            chaos.sudden_deaths.push(SuddenDeath {
                cell: Cell::new(x, y),
                at_cycle: 3,
            });
        }
    }

    let plain = run_fleet(None, 21, &chaos);
    let supervised = run_fleet(Some(ABORT_ONLY), 21, &chaos);

    assert!(
        !plain.is_success(),
        "row loss over {goal:?} should sink the plain fleet, got {:?}",
        plain.status
    );
    assert!(
        supervised.completed_ops > plain.completed_ops,
        "supervised fleet should finish surviving branches: {}/{} vs plain {}/{}",
        supervised.completed_ops,
        supervised.total_ops,
        plain.completed_ops,
        plain.total_ops,
    );
    assert!(
        !supervised.failed.is_empty(),
        "the lethal fault must surface in the failure report"
    );
    assert!(
        !supervised.skipped.is_empty(),
        "downstream dependents of the failed operation must be skipped"
    );
    // Partial completion is still fluidically sound.
    let log = supervised.movers.as_ref().expect("recording enabled");
    let v = FleetConfig::default()
        .constraints
        .audit_exempting(log, dependency_exemption(&p));
    assert!(v.is_none(), "separation violated: {v:?}");
}

/// The default ladder (retry budget 3) at N=4: retries resume from where
/// the droplet really is and the detour rung routes around dead regions,
/// all while the separation audit stays clean and nothing is lost against
/// the plain fleet.
#[test]
fn default_ladder_runs_at_width_four() {
    let p = plan();
    let chaos = hard_chaos(0xC4A0, &p);
    let plain = run_fleet(None, 0, &chaos);
    let supervised = run_fleet(Some(Ladder::default()), 0, &chaos);
    let log = supervised.movers.as_ref().expect("recording enabled");
    let v = FleetConfig::default()
        .constraints
        .audit_exempting(log, dependency_exemption(&p));
    assert!(v.is_none(), "separation violated: {v:?}");
    assert!(
        supervised.completed_ops >= plain.completed_ops,
        "laddered fleet completed {}/{} but plain completed {}/{}",
        supervised.completed_ops,
        supervised.total_ops,
        plain.completed_ops,
        plain.total_ops,
    );
}
