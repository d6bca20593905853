//! The complete synthesis flow from an abstract protocol: describe a
//! bioassay with no coordinates, let the placer assign reservoir ports and
//! module slots, plan it into routing jobs, and execute it with the
//! health-aware runtime scheduler.
//!
//! ```sh
//! cargo run --release --example auto_placement
//! ```

use meda::bioassay::{AssaySpec, Placer, RjHelper};
use meda::grid::ChipDims;
use meda::sim::{
    AdaptiveConfig, AdaptiveRouter, Biochip, DegradationConfig, FaultMode, FaultPlan, FleetConfig,
    FleetRunner, HealthAwareScheduler, OneRouter, RunConfig,
};
use meda_rng::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Describe the protocol abstractly: a two-sample comparative assay.
    let mut spec = AssaySpec::new("comparative-assay");
    let sample_a = spec.dispense((4, 4));
    let sample_b = spec.dispense((4, 4));
    let reagent_a = spec.dispense((4, 4));
    let reagent_b = spec.dispense((4, 4));
    let mix_a = spec.mix(&[sample_a, reagent_a]);
    let mix_b = spec.mix(&[sample_b, reagent_b]);
    let read_a = spec.magnetic(mix_a);
    let read_b = spec.magnetic(mix_b);
    spec.output(read_a);
    spec.output(read_b);

    // 2. Place it on the paper's 60×30 chip.
    let dims = ChipDims::PAPER;
    let sg = Placer::new(dims).place(&spec)?;
    println!("placed '{}' ({} operations):", sg.name(), sg.len());
    for (id, op) in sg.iter() {
        println!(
            "  M{:<2} {:4} at ({:>4.1}, {:>4.1})",
            id + 1,
            op.op.to_string(),
            op.loc().0,
            op.loc().1
        );
    }

    // 3. Decompose into routing jobs.
    let plan = RjHelper::new(dims).plan(&sg)?;
    println!(
        "\nplan: {} routing jobs, {:.0} cells of transport (lower bound)",
        plan.total_jobs(),
        plan.total_transport()
    );

    // 4. Execute with clustered fault injection and the health-aware
    //    runtime scheduler (the independent A/B lanes can reorder).
    let mut rng = meda_rng::StdRng::seed_from_u64(31);
    let mut chip = Biochip::generate(
        dims,
        &DegradationConfig::paper_with_faults(FaultMode::Clustered, 0.05),
        &mut rng,
    );
    let mut router = AdaptiveRouter::new(AdaptiveConfig::paper());
    let mut scheduler = HealthAwareScheduler::new();
    let runner = FleetRunner::new(FleetConfig::serial(RunConfig {
        k_max: 2_000,
        record_actuation: false,
        sensed_feedback: false,
    }));
    for run in 1..=3 {
        let outcome = runner.run(
            &plan,
            &mut chip,
            &mut OneRouter(&mut router),
            &mut scheduler,
            &FaultPlan::none(),
            &mut rng,
        );
        println!(
            "run {run}: {:?} in {} cycles ({} re-syntheses so far, library {} hits / {} misses)",
            outcome.status,
            outcome.cycles,
            router.resynth_count(),
            router.library().hits(),
            router.library().misses()
        );
    }

    Ok(())
}
