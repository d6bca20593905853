//! The two simulator workloads: repeated execution on faulty chips (the
//! paper's Fig. 16 setup) and concurrent fleet routing.
#![forbid(unsafe_code)]

use meda_bioassay::{benchmarks, BioassayPlan, RjHelper, SequencingGraph};
use meda_grid::ChipDims;
use meda_rng::{SeedableRng, StdRng};
use meda_sim::{
    dependency_exemption, AdaptiveConfig, AdaptiveRouter, BaselineRouter, BioassayRunner, Biochip,
    DegradationConfig, FaultMode, FaultPlan, FifoScheduler, FleetConfig, FleetOutcome, FleetRunner,
    RunConfig, RunStatus,
};

use crate::stats::{median_f64, percentile};
use crate::trace::{self, Snapshot};
use crate::workload::{derive, median_rate, run_passes, Fnv, Pass, Summary, Workload};
use crate::wrap::{record_router, TimedPool, TimedRouter, TimedScheduler};

/// Successful executions a Fig. 16 trial needs.
const TARGET_SUCCESSES: u64 = 5;
/// Share of faulty microelectrodes on a `reuse-faults` chip.
const FAULT_FRACTION: f64 = 0.10;
/// Cycle budget of one fleet run (as `bench_makespan`).
const FLEET_K_MAX: u64 = 6_000;
/// Operations in flight in `fleet-n4`.
const FLEET_N: usize = 4;
/// Chip sets generated during set-up: pass `p` runs on fresh copies of set
/// `p % CHIP_SETS`, with its own run randomness.
const CHIP_SETS: u64 = 16;

/// One chip per assay for each of [`CHIP_SETS`] passes, from `seed`.
fn chip_sets(seed: u64, assays: usize, config: &DegradationConfig) -> Vec<Vec<Biochip>> {
    (0..CHIP_SETS)
        .map(|set| {
            (0..assays as u64)
                .map(|a| {
                    let mut rng = StdRng::seed_from_u64(derive(seed, &[0xc41b, set, a]));
                    trace::timed("sim.chip", "sim.chip.generate", || {
                        Biochip::generate(ChipDims::PAPER, config, &mut rng)
                    })
                    .0
                })
                .collect()
        })
        .collect()
}

fn plan(helper: &RjHelper, sg: &SequencingGraph) -> BioassayPlan {
    trace::timed("bioassay", "bioassay.plan", || helper.plan(sg))
        .0
        .expect("benchmark assays plan cleanly")
}

fn status_code(status: RunStatus) -> u64 {
    match status {
        RunStatus::Success => 0,
        RunStatus::CycleLimit => 1,
        RunStatus::NoRoute => 2,
        RunStatus::Deadlock => 3,
        RunStatus::DropletLost => 4,
        RunStatus::DropletMerged => 5,
        RunStatus::Stalled => 6,
    }
}

/// Figures shared by both simulator workloads: throughput in bioassay
/// executions per second and latency of one controller call.
fn summarize_sim(snap: &Snapshot, passes: &[Pass]) -> Summary {
    let decide = snap.samples("decide");
    Summary {
        attempted: snap.count("attempted"),
        // A trial short of five successes or a fleet run that did not
        // complete is the simulator's answer for that chip, not an error.
        failed: 0,
        succeeded: snap.count("succeeded"),
        throughput: median_rate(passes),
        p50_ms: median_f64(&snap.group_medians("decide")).map(|ns| ns / 1e6),
        tail_ms: percentile(decide, 990).map(|ns| ns as f64 / 1e6),
    }
}

/// `reuse-faults`: closed loop, one client. Each pass runs one Fig. 16
/// trial per evaluation assay: a fresh copy of a paper-degraded chip with
/// 10 % clustered faulty microelectrodes and a fresh paper-configured
/// adaptive router, executing the assay until five successes or the cycle
/// cap `k_max = ⌈1.25 · 5 · nominal⌉`.
pub struct Reuse {
    seed: u64,
    assays: Vec<(BioassayPlan, u64)>,
    chips: Vec<Vec<Biochip>>,
    passes: Vec<Pass>,
}

impl Reuse {
    /// Runs one pass; returns its outcome digest and executions.
    fn pass(&self, pass: u64) -> (u64, u64) {
        let mut digest = Fnv::default();
        let mut executions = 0;
        for (a, (plan, k_max)) in self.assays.iter().enumerate() {
            trace::set_ctx(pass * 16 + a as u64 + 1, a);
            let mut rng = StdRng::seed_from_u64(derive(self.seed, &[pass, a as u64]));
            let mut chip = self.chips[(pass % CHIP_SETS) as usize][a].clone();
            let mut router = TimedRouter {
                inner: AdaptiveRouter::new(AdaptiveConfig::paper()),
            };
            let (mut spent, mut successes) = (0, 0);
            while successes < TARGET_SUCCESSES && spent < *k_max {
                let runner = BioassayRunner::new(RunConfig {
                    k_max: k_max - spent,
                    record_actuation: false,
                    sensed_feedback: false,
                });
                let outcome = trace::timed("sim.engine", "sim.engine.run", || {
                    runner.run(plan, &mut chip, &mut router, &mut rng)
                })
                .0;
                executions += 1;
                trace::count("executions", 1);
                trace::count("sim_cycles", outcome.cycles);
                digest.word(outcome.cycles);
                digest.word(status_code(outcome.status));
                spent += outcome.cycles;
                if !outcome.is_success() {
                    break;
                }
                successes += 1;
            }
            record_router(&router.inner);
            trace::count("attempted", 1);
            trace::count("succeeded", u64::from(successes == TARGET_SUCCESSES));
        }
        (digest.0, executions)
    }
}

impl Workload for Reuse {
    const UNITS_PER_SECOND: f64 = 1.05;

    fn setup(seed: u64, _units: u64) -> Self {
        let helper = RjHelper::new(ChipDims::PAPER);
        let assays: Vec<(BioassayPlan, u64)> = benchmarks::evaluation_suite()
            .iter()
            .map(|sg| {
                let plan = plan(&helper, sg);
                // Nominal length on a pristine chip, calibrated as
                // fig16_cycles does.
                let mut rng = StdRng::seed_from_u64(77);
                let mut chip =
                    Biochip::generate(ChipDims::PAPER, &DegradationConfig::pristine(), &mut rng);
                let nominal = BioassayRunner::new(RunConfig {
                    k_max: 100_000,
                    ..RunConfig::default()
                })
                .run(&plan, &mut chip, &mut BaselineRouter::new(), &mut rng)
                .cycles;
                let k_max = (nominal * TARGET_SUCCESSES * 5).div_ceil(4);
                (plan, k_max)
            })
            .collect();
        let config = DegradationConfig::paper_with_faults(FaultMode::Clustered, FAULT_FRACTION);
        Self {
            seed,
            chips: chip_sets(seed, assays.len(), &config),
            assays,
            passes: Vec::new(),
        }
    }

    fn measure(&mut self, units: u64) {
        self.passes = run_passes(units, |p| self.pass(p));
    }

    fn check(&mut self) -> Vec<String> {
        let (again, _) = self.pass(0);
        if again == self.digest() {
            Vec::new()
        } else {
            vec![format!(
                "reuse-faults: pass 0 replayed to digest {again:016x}, measured {:016x}",
                self.digest()
            )]
        }
    }

    fn summarize(&self, snap: &Snapshot) -> Summary {
        summarize_sim(snap, &self.passes)
    }

    fn digest(&self) -> u64 {
        self.passes.first().map_or(0, |p| p.digest)
    }
}

/// `fleet-n4`: closed loop, one client. Each pass runs CEP, COVID-PCR and
/// the 4×4 multiplex in-vitro assay once each on a fresh copy of a
/// paper-degraded chip without faults, four operations in flight, FIFO
/// dispatch.
pub struct Fleet {
    seed: u64,
    plans: Vec<BioassayPlan>,
    chips: Vec<Vec<Biochip>>,
    passes: Vec<Pass>,
}

impl Fleet {
    fn run(&self, pass: u64, a: usize, record_movers: bool) -> FleetOutcome {
        trace::set_ctx(pass * 16 + a as u64 + 1, a);
        let mut rng = StdRng::seed_from_u64(derive(self.seed, &[pass, a as u64]));
        let mut chip = self.chips[(pass % CHIP_SETS) as usize][a].clone();
        let config = FleetConfig {
            record_movers,
            ..FleetConfig::concurrent(
                FLEET_N,
                RunConfig {
                    k_max: FLEET_K_MAX,
                    ..RunConfig::default()
                },
            )
        };
        let mut pool = TimedPool::new(AdaptiveConfig::paper());
        let mut scheduler = TimedScheduler {
            inner: FifoScheduler::new(),
        };
        let outcome = trace::timed("sim.engine", "sim.engine.run", || {
            FleetRunner::new(config).run(
                &self.plans[a],
                &mut chip,
                &mut pool,
                &mut scheduler,
                &FaultPlan::none(),
                &mut rng,
            )
        })
        .0;
        for router in &pool.routers {
            record_router(&router.inner);
        }
        trace::count("executions", 1);
        trace::count("sim_cycles", outcome.cycles);
        trace::count("sim.fleet.stall_cycles", outcome.stall_cycles);
        trace::count_max("sim.fleet.peak_active", outcome.peak_active as u64);
        trace::count("attempted", 1);
        trace::count("succeeded", u64::from(outcome.is_success()));
        outcome
    }

    fn outcome_digest(outcomes: &[FleetOutcome]) -> u64 {
        let mut digest = Fnv::default();
        for o in outcomes {
            digest.word(o.cycles);
            digest.word(status_code(o.status));
            digest.word(o.completed_ops as u64);
        }
        digest.0
    }
}

impl Workload for Fleet {
    const UNITS_PER_SECOND: f64 = 12.5;

    fn setup(seed: u64, _units: u64) -> Self {
        let helper = RjHelper::new(ChipDims::PAPER);
        let plans: Vec<BioassayPlan> = [
            benchmarks::cep(),
            benchmarks::covid_pcr(),
            benchmarks::multiplex_invitro((4, 4)),
        ]
        .iter()
        .map(|sg| plan(&helper, sg))
        .collect();
        Self {
            seed,
            chips: chip_sets(seed, plans.len(), &DegradationConfig::paper()),
            plans,
            passes: Vec::new(),
        }
    }

    fn measure(&mut self, units: u64) {
        self.passes = run_passes(units, |p| {
            let outcomes: Vec<FleetOutcome> = (0..self.plans.len())
                .map(|a| self.run(p, a, false))
                .collect();
            (Self::outcome_digest(&outcomes), outcomes.len() as u64)
        });
    }

    /// Replays pass 0 recording movers: every run must complete, pass the
    /// separation audit, and reproduce the measured cycles and statuses.
    fn check(&mut self) -> Vec<String> {
        let mut problems = Vec::new();
        let outcomes: Vec<FleetOutcome> = (0..self.plans.len())
            .map(|a| self.run(0, a, true))
            .collect();
        for (a, outcome) in outcomes.iter().enumerate() {
            let name = self.plans[a].name();
            if !outcome.is_success() {
                problems.push(format!("fleet-n4: {name} ended {:?}", outcome.status));
            }
            let log = outcome.movers.as_deref().unwrap_or_default();
            let constraints = FleetConfig::default().constraints;
            if let Some(v) = constraints.audit_exempting(log, dependency_exemption(&self.plans[a]))
            {
                problems.push(format!("fleet-n4: {name} separation violated: {v:?}"));
            }
        }
        let again = Self::outcome_digest(&outcomes);
        if again != self.digest() {
            problems.push(format!(
                "fleet-n4: pass 0 replayed to digest {again:016x} (per-run cycles, status, \
                 completed operations), measured {:016x}",
                self.digest()
            ));
        }
        problems
    }

    fn summarize(&self, snap: &Snapshot) -> Summary {
        summarize_sim(snap, &self.passes)
    }

    fn digest(&self) -> u64 {
        self.passes.first().map_or(0, |p| p.digest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meda_grid::Grid;

    /// Wears a copy of each chip evenly, so its hidden per-cell parameters
    /// (and faults) show in the degradation it reports.
    fn fingerprint(sets: &[Vec<Biochip>]) -> Vec<u64> {
        let all = Grid::new(ChipDims::PAPER, true);
        sets.iter()
            .flatten()
            .map(|chip| {
                let mut worn = chip.clone();
                for _ in 0..250 {
                    worn.apply_actuation(&all);
                }
                let mut h = Fnv::default();
                for (cell, _) in all.iter() {
                    h.word(worn.degradation_at(cell).to_bits());
                }
                h.0
            })
            .collect()
    }

    #[test]
    fn one_seed_yields_one_set_of_chips_and_run_seeds() {
        let config = DegradationConfig::paper_with_faults(FaultMode::Clustered, FAULT_FRACTION);
        let a = fingerprint(&chip_sets(9, 2, &config));
        assert_eq!(a, fingerprint(&chip_sets(9, 2, &config)));
        assert_ne!(a, fingerprint(&chip_sets(10, 2, &config)));
        let distinct: std::collections::BTreeSet<u64> = a.iter().copied().collect();
        assert_eq!(distinct.len(), a.len(), "every chip differs");
        assert_eq!(derive(9, &[3, 1]), derive(9, &[3, 1]));
        assert_ne!(derive(9, &[3, 1]), derive(10, &[3, 1]));
    }
}
