//! Extension: full-assay makespan under concurrent fleet routing — the
//! headline throughput number the serial scheduler left on the table.
//!
//! For each evaluation assay (CEP and COVID-PCR, the two largest planned
//! benchmarks) the fleet engine runs the whole bioassay at N ∈ {1, 2, 4, 8}
//! concurrent micro-operations on the same paper-degraded 60×30 chip with
//! the same seeds. N = 1 is bit-identical to the serial
//! [`BioassayRunner`](meda_sim::BioassayRunner) path, so the N = 1 row *is*
//! the serial baseline; the higher-N rows route concurrently under the
//! fluidic-separation screen with peer corridors priced as soft hazards.
//!
//! Emitted metrics (meda-bench/1):
//!
//! - `{assay}.n{N}.makespan_cycles` — deterministic completion cycles
//!   (any drift is a behaviour change);
//! - `{assay}.n{N}.peak_active` — the concurrency the dispatcher actually
//!   achieved;
//! - `{assay}.n{N}.serial_vs_concurrent_makespan_dominance` — serial
//!   cycles / concurrent cycles for N ≥ 2.
//!
//! In full (non-smoke) mode the bin self-checks the claims: every cell
//! completes, every N ≥ 2 dominance ratio is strictly above 1.0 (the
//! concurrent makespan strictly beats the serial one), and every value
//! equals the committed `BENCH_makespan.json` exactly
//! ([`BenchReport::drift`]). It exits nonzero and names the claim or key
//! on any violation.
#![forbid(unsafe_code)]

use meda_bench::{banner, header, row, BenchReport};
use meda_bioassay::{benchmarks, RjHelper, SequencingGraph};
use meda_grid::ChipDims;
use meda_rng::{SeedableRng, StdRng};
use meda_sim::{
    AdaptiveConfig, AdaptivePool, Biochip, DegradationConfig, FaultPlan, FifoScheduler,
    FleetConfig, FleetRunner, RunConfig,
};

/// Cycle budget per run: generous — CEP serial completes well under 2 000
/// cycles; a cell that needs more than 6 000 is a regression worth failing.
const K_MAX: u64 = 6_000;

/// Chip/run seed shared by every cell so serial-vs-concurrent deltas are
/// routing effects, not landscape luck.
const SEED: u64 = 616;

fn assays(smoke: bool) -> Vec<SequencingGraph> {
    if smoke {
        vec![benchmarks::cep()]
    } else {
        vec![
            benchmarks::cep(),
            benchmarks::covid_pcr(),
            benchmarks::multiplex_invitro((4, 4)),
        ]
    }
}

fn fleet_sizes(smoke: bool) -> &'static [usize] {
    if smoke {
        &[1, 4]
    } else {
        &[1, 2, 4, 8]
    }
}

fn makespan(plan_sg: &SequencingGraph, n: usize) -> (u64, usize, bool) {
    let plan = RjHelper::new(ChipDims::PAPER)
        .plan(plan_sg)
        .expect("benchmark plans cleanly");
    let run = RunConfig {
        k_max: K_MAX,
        ..RunConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut chip = Biochip::generate(ChipDims::PAPER, &DegradationConfig::paper(), &mut rng);
    let mut pool = AdaptivePool::new(AdaptiveConfig::paper());
    let outcome = FleetRunner::new(FleetConfig::concurrent(n, run)).run(
        &plan,
        &mut chip,
        &mut pool,
        &mut FifoScheduler::new(),
        &FaultPlan::none(),
        &mut rng,
    );
    (outcome.cycles, outcome.peak_active, outcome.is_success())
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let bless = std::env::args().any(|a| a == "--bless");

    banner(
        "Extension — full-assay makespan, serial vs concurrent fleet",
        "Whole-bioassay completion cycles at N concurrent micro-operations \
         on the paper-degraded 60×30 chip. N=1 replays the serial engine \
         bit for bit; higher N dispatches independent operations together \
         under the fluidic-separation screen, with peer corridors priced \
         as soft hazards in each droplet's synthesis.",
    );

    let mode = if smoke { "smoke" } else { "full" };
    let mut report = BenchReport::new("makespan", mode);
    report.note = "full-assay makespan cycles per (assay, fleet size) plus \
                   serial-vs-concurrent dominance ratios for N >= 2; all runs are \
                   seeded and deterministic, so any cycle drift means routing \
                   behaviour changed"
        .to_string();

    let widths = [12, 4, 10, 8, 10, 9];
    header(
        &["assay", "N", "cycles", "peak", "speedup", "complete"],
        &widths,
    );

    let mut violations: Vec<String> = Vec::new();
    for sg in assays(smoke) {
        let name = sg.name().replace(['-', ' '], "_");
        let mut serial_cycles = 0u64;
        for &n in fleet_sizes(smoke) {
            let (cycles, peak, complete) = makespan(&sg, n);
            if n == 1 {
                serial_cycles = cycles;
            }
            let speedup = serial_cycles as f64 / cycles as f64;
            row(
                &[
                    name.clone(),
                    n.to_string(),
                    cycles.to_string(),
                    peak.to_string(),
                    format!("{speedup:.2}x"),
                    if complete { "yes" } else { "NO" }.to_string(),
                ],
                &widths,
            );

            report.push(format!("{name}.n{n}.makespan_cycles"), cycles as f64);
            report.push(format!("{name}.n{n}.peak_active"), peak as f64);
            if n > 1 {
                report.push(
                    format!("{name}.n{n}.serial_vs_concurrent_makespan_dominance"),
                    speedup,
                );
                if !smoke && speedup <= 1.0 {
                    violations.push(format!(
                        "{name}: N={n} makespan {cycles} does not beat serial {serial_cycles}"
                    ));
                }
            }
            if !complete {
                violations.push(format!(
                    "{name}: N={n} did not complete within {K_MAX} cycles"
                ));
            }
        }
        println!();
    }

    println!(
        "Reading: the serial scheduler pays the full sum of per-operation \
         routes; the fleet overlaps independent branches of the dependency \
         graph, so makespan drops as N grows until the chip's separation \
         ring and shared lanes bound the parallelism."
    );

    let written = report.write(bless).expect("write bench report");
    violations.extend(report.baseline_drift(bless));
    println!();
    for path in written {
        println!("Wrote {}", path.display());
    }
    if !bless {
        println!("(baseline BENCH_makespan.json untouched — pass --bless to refresh it)");
    }
    if !violations.is_empty() {
        eprintln!("\nmakespan self-check FAILED:");
        for v in &violations {
            eprintln!("  - {v}");
        }
        std::process::exit(1);
    }
}
