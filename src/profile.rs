//! The `meda profile` orchestration: run one benchmark assay end to end
//! under full telemetry capture and report where the time went.
//!
//! Library-level so the per-stage accounting is testable: the CLI wrapper
//! in `main.rs` only parses flags, prints [`render_table`], and writes the
//! export sinks. The stage tree is
//!
//! ```text
//! total
//! ├─ plan      MO → RJ decomposition of the assay
//! ├─ setup     chip generation (degradation sampling)
//! ├─ warmup    offline strategy-library pre-fill (synthesis)
//! └─ run       the simulated execution (synthesis-on-miss, sim cycles)
//! ```
//!
//! with the instrumented hot paths (`mdp.build`, `solve.pmax`,
//! `solve.rmin`, `synth.job`, …) appearing as nested children of whichever
//! stage invoked them. *Coverage* is the fraction of the root span
//! attributed to the four named stages — the acceptance bar for the
//! profiler is ≥ 90%.

use meda_bioassay::{benchmarks, BioassayPlan, RjHelper};
use meda_grid::ChipDims;
use meda_rng::SeedableRng;
use meda_sim::{
    AdaptiveConfig, AdaptiveRouter, Biochip, DegradationConfig, FaultPlan, FifoScheduler,
    FleetConfig, FleetRunner, OneRouter, RunConfig,
};
use meda_telemetry::{SpanEvent, Summary};

/// Knobs for one profiling run.
#[derive(Debug, Clone, Copy)]
pub struct ProfileOptions {
    /// Close the sensing loop, inject stuck sensor bits at
    /// [`ProfileOptions::stuck_rate`], and run under the failure ladder
    /// ([`FleetConfig::supervised`]).
    pub chaos: bool,
    /// Stuck-sensor rate used when [`ProfileOptions::chaos`] is on.
    pub stuck_rate: f64,
    /// RNG seed for chip generation and outcome sampling.
    pub seed: u64,
    /// Cycle budget for the simulated execution.
    pub k_max: u64,
}

impl Default for ProfileOptions {
    fn default() -> Self {
        Self {
            chaos: false,
            stuck_rate: 0.02,
            seed: 1,
            k_max: 2_000,
        }
    }
}

/// What [`profile_assay`] hands back: the full metric summary, the raw
/// span-event stream, and the derived per-stage accounting.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// Every span/counter/histogram recorded during the run.
    pub summary: Summary,
    /// Raw span events (for the JSONL sink).
    pub events: Vec<SpanEvent>,
    /// One-line human description of the simulated run's outcome.
    pub outcome: String,
    /// Total nanoseconds of the root `total` span.
    pub total_ns: u64,
    /// Fraction of `total` attributed to the named top-level stages.
    pub coverage: f64,
}

fn plan_by_name(name: &str) -> Result<BioassayPlan, String> {
    let sg = benchmarks::evaluation_suite()
        .into_iter()
        .find(|sg| sg.name() == name)
        .ok_or_else(|| format!("unknown assay '{name}' (see `meda list`)"))?;
    RjHelper::new(ChipDims::PAPER)
        .plan(&sg)
        .map_err(|e| e.to_string())
}

/// Profiles one assay: clears the global registry, executes
/// plan → setup → warmup → run under capture, and returns the accounting.
///
/// Uses the process-global registry, so concurrent profiling runs in one
/// process would interleave; callers (the CLI, the golden test) serialize.
///
/// # Errors
///
/// Unknown assay names and planning failures are reported as strings; a
/// failed simulated run is *not* an error (its status lands in
/// [`ProfileReport::outcome`] — slow failing runs are exactly what a
/// profiler is for).
pub fn profile_assay(name: &str, options: &ProfileOptions) -> Result<ProfileReport, String> {
    let registry = meda_telemetry::global();
    registry.clear();
    registry.set_capture(true);
    let outcome;
    {
        let _total = registry.span("total");

        let plan = {
            let _stage = registry.span("plan");
            plan_by_name(name)?
        };

        let mut rng = meda_rng::StdRng::seed_from_u64(options.seed);
        let (mut chip, chaos) = {
            let _stage = registry.span("setup");
            let chip = Biochip::generate(ChipDims::PAPER, &DegradationConfig::paper(), &mut rng);
            let chaos = if options.chaos {
                FaultPlan::none().with_stuck_sensors(ChipDims::PAPER, options.stuck_rate, &mut rng)
            } else {
                FaultPlan::none()
            };
            (chip, chaos)
        };

        let mut router = AdaptiveRouter::new(AdaptiveConfig::paper());
        {
            let _stage = registry.span("warmup");
            router.warm_up(&plan, chip.health_field());
        }

        let config = RunConfig {
            k_max: options.k_max,
            record_actuation: false,
            sensed_feedback: options.chaos,
        };
        {
            let _stage = registry.span("run");
            let fleet = if options.chaos {
                FleetConfig::supervised(config)
            } else {
                FleetConfig::serial(config)
            };
            let run = FleetRunner::new(fleet).run(
                &plan,
                &mut chip,
                &mut OneRouter(&mut router),
                &mut FifoScheduler::new(),
                &chaos,
                &mut rng,
            );
            let r = run.rungs;
            let ladder = if options.chaos {
                format!(
                    " (ladder {}/{}/{}/{})",
                    r.resense, r.resynth, r.detour, r.aborted_ops
                )
            } else {
                String::new()
            };
            outcome = format!(
                "{name}: {:?} in {} cycles — {}/{} ops{ladder}",
                run.status, run.cycles, run.completed_ops, run.total_ops
            );
        }
    }
    registry.set_capture(false);
    let summary = registry.summary();
    let events = registry.take_events();

    let total_ns = summary.span("total").map_or(0, |s| s.total_ns);
    let staged_ns: u64 = summary
        .spans
        .iter()
        .filter(|s| s.depth == 1)
        .map(|s| s.total_ns)
        .sum();
    let coverage = if total_ns == 0 {
        1.0
    } else {
        staged_ns as f64 / total_ns as f64
    };
    Ok(ProfileReport {
        summary,
        events,
        outcome,
        total_ns,
        coverage,
    })
}

/// Renders the per-stage time/percentage table plus the counter and
/// histogram readouts, ready for the terminal.
#[must_use]
pub fn render_table(report: &ProfileReport) -> String {
    let mut out = String::new();
    let total = report.total_ns.max(1) as f64;
    out.push_str(&format!(
        "{:<34} {:>8} {:>12} {:>8}\n",
        "stage", "count", "total ms", "%"
    ));
    for span in &report.summary.spans {
        let name = span.path.rsplit('/').next().unwrap_or(span.path.as_str());
        let label = format!("{}{}", "  ".repeat(span.depth), name);
        out.push_str(&format!(
            "{:<34} {:>8} {:>12.3} {:>7.1}%\n",
            label,
            span.count,
            span.total_ns as f64 / 1e6,
            100.0 * span.total_ns as f64 / total
        ));
    }
    out.push_str(&format!(
        "\nspan coverage at depth 1: {:.1}% of {:.3} ms total\n",
        100.0 * report.coverage,
        report.total_ns as f64 / 1e6
    ));
    if !report.summary.counters.is_empty() {
        out.push_str("\ncounters:\n");
        for c in &report.summary.counters {
            out.push_str(&format!("  {:<34} {:>12}\n", c.name, c.value));
        }
    }
    if !report.summary.histograms.is_empty() {
        out.push_str("\nhistograms (count / mean):\n");
        for h in &report.summary.histograms {
            let mean = h.snapshot.sum as f64 / h.snapshot.count.max(1) as f64;
            out.push_str(&format!(
                "  {:<34} {:>8} {:>14.1}\n",
                h.name, h.snapshot.count, mean
            ));
        }
    }
    out
}
