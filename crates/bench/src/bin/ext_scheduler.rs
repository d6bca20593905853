//! Extension: runtime operation ordering (the paper-conclusion follow-up).
//! Compares FIFO (plan-order, the paper's behaviour) with the
//! health-aware scheduler that defers operations whose corridors are
//! currently degraded, on fault-injected chips.
#![forbid(unsafe_code)]

use meda_bench::{banner, header, row};
use meda_bioassay::{benchmarks, RjHelper};
use meda_grid::ChipDims;
use meda_rng::SeedableRng;
use meda_sim::{
    AdaptiveConfig, AdaptiveRouter, Biochip, DegradationConfig, FaultMode, FaultPlan,
    FifoScheduler, FleetConfig, FleetRunner, HealthAwareScheduler, MoScheduler, OneRouter,
    RunConfig,
};

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let trials = if full { 20 } else { 6 };

    banner(
        "Extension — runtime MO ordering (paper conclusion)",
        "Multiplex in-vitro has two independent lanes; with 10% clustered \
         faults the health-aware scheduler runs the healthier lane first.",
    );
    println!("trials per scheduler: {trials}\n");

    let dims = ChipDims::PAPER;
    let plan = RjHelper::new(dims)
        .plan(&benchmarks::multiplex_invitro((4, 4)))
        .expect("benchmark plans cleanly");
    let config = DegradationConfig::paper_with_faults(FaultMode::Clustered, 0.10);
    let runner = FleetRunner::new(FleetConfig::serial(RunConfig {
        k_max: 2_000,
        record_actuation: false,
        sensed_feedback: false,
    }));

    let widths = [16, 10, 10, 12];
    header(&["scheduler", "success", "mean k", "mean synth"], &widths);

    let compare = |name: &str, make: &mut dyn FnMut() -> Box<dyn MoScheduler>| {
        let mut successes = 0u32;
        let mut cycles_sum = 0u64;
        let mut resynth_sum = 0u64;
        for trial in 0..trials {
            let mut rng = meda_rng::StdRng::seed_from_u64(3_000 + trial);
            let mut chip = Biochip::generate(dims, &config, &mut rng);
            let mut router = AdaptiveRouter::new(AdaptiveConfig::paper());
            let mut scheduler = make();
            // Two back-to-back executions so wear from run 1 informs run 2.
            for _ in 0..2 {
                let outcome = runner.run(
                    &plan,
                    &mut chip,
                    &mut OneRouter(&mut router),
                    &mut *scheduler,
                    &FaultPlan::none(),
                    &mut rng,
                );
                if outcome.is_success() {
                    successes += 1;
                }
                cycles_sum += outcome.cycles;
            }
            resynth_sum += router.resynth_count();
        }
        row(
            &[
                name.to_string(),
                format!("{successes}/{}", 2 * trials),
                format!("{:.0}", cycles_sum as f64 / f64::from(2 * trials as u32)),
                format!("{:.1}", resynth_sum as f64 / f64::from(trials as u32)),
            ],
            &widths,
        );
    };
    compare("fifo", &mut || Box::new(FifoScheduler::new()));
    compare(
        "health-aware",
        &mut || Box::new(HealthAwareScheduler::new()),
    );

    println!(
        "\nReading: the schedulers agree on fresh chips (both lanes \
         healthy); the health-aware pick pays off as wear accumulates and \
         one lane degrades first — it converts re-synthesis churn into \
         deferred, cheaper routes."
    );
}
