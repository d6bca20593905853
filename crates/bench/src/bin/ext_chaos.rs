//! Extension: closed sensing loop under hard chaos — the degradation
//! curve (probability of success and mean completion vs fault severity)
//! per fault class per control stack.
//!
//! Every run closes the loop ([`RunConfig::sensed_feedback`]): the router
//! is driven by droplet positions reconstructed from the sensed **Y**
//! matrix. Each [`FaultClass`] maps a severity knob onto a concrete
//! [`FaultPlan`] — stuck sensor bits, clustered `2 × 2` electrode death,
//! whole-row loss, or a growing defect front. Five control stacks face
//! identical chips and fault plans:
//!
//!   1. baseline: degradation-unaware shortest path,
//!   2. recovery: reactive stall-triggered re-route,
//!   3. adaptive: the paper's formal-synthesis router,
//!   4. supervised-adaptive: adaptive under the escalation [`Ladder`]
//!      (re-sense → re-synthesize → detour → abort the operation and
//!      continue),
//!   5. supervised-reconfig: the ladder plus the reconfiguration planner
//!      that relocates swallowed target zones onto spare electrodes.
//!
//! The headline: the curves degrade monotonically with severity instead of
//! cliff-dropping, and under the electrode-killing classes the
//! reconfiguring stack sits strictly above supervised-only — detours
//! cannot save an operation whose *target* is dead, relocation can.
//!
//! In full (non-smoke) mode the bin also self-checks the blessed claims —
//! ≥ 2 strict reconfig wins on the clustered and row-loss curves, weakly
//! monotone supervised degradation on at least 3 classes — and requires
//! every value to equal the committed `BENCH_chaos.json` exactly
//! ([`BenchReport::drift`]). It exits nonzero on any violation, naming
//! the claim or key, so the CI `chaos-full` stage is the curve's gate.
//!
//! [`RunConfig::sensed_feedback`]: meda_sim::RunConfig
//! [`FaultPlan`]: meda_sim::FaultPlan
//! [`FaultClass`]: meda_sim::experiment::FaultClass
//! [`Ladder`]: meda_sim::Ladder
#![forbid(unsafe_code)]

use meda_bench::{banner, header, row, BenchReport};
use meda_bioassay::{benchmarks, RjHelper};
use meda_grid::ChipDims;
use meda_sim::experiment::{chaos_sweep, ChaosVariant, FaultClass};
use meda_sim::DegradationConfig;

/// Severity grid for the sensing class (the per-MC stuck-bit rate:
/// {0, 1, 2, 4, 8}% — the classic sweep's grid).
const STUCK_SEVERITIES: [f64; 5] = [0.0, 0.01, 0.02, 0.04, 0.08];

/// Severity grid for the electrode-killing classes (the fraction of the
/// chip the damage reaches). Electrode death is survivable at rates where
/// stuck sensing already wrecks a run, so the grid reaches further to
/// where the curves actually separate.
const DEATH_SEVERITIES: [f64; 5] = [0.0, 0.02, 0.05, 0.10, 0.20];

/// The severity grid a class is swept over.
fn severities(class: FaultClass) -> &'static [f64; 5] {
    match class {
        FaultClass::StuckSensors => &STUCK_SEVERITIES,
        _ => &DEATH_SEVERITIES,
    }
}

/// Smoothing epsilon for the dominance ratios (severity points where both
/// stacks complete nothing must read as a tie, not 0/0).
const EPS: f64 = 1e-6;

/// Tolerance for the weak-monotonicity self-check: one extra completed
/// operation out of the 18-op multiplex assay across 2+ trials is sampling
/// texture, not a shape violation.
const MONO_TOLERANCE: f64 = 0.06;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let bless = std::env::args().any(|a| a == "--bless");
    let trials: u32 = if smoke { 2 } else { 6 };
    let classes: &[FaultClass] = if smoke {
        &[FaultClass::StuckSensors]
    } else {
        &FaultClass::ALL
    };

    banner(
        "Extension — hard-chaos degradation curves (reconfiguration rung)",
        "Sensed feedback on: routers see Y-matrix reconstructions, not \
         ground truth. Each fault class maps one severity knob onto a \
         concrete fault plan; every control stack faces identical chips \
         and plans. PoS counts fully-completed bioassays; 'compl' is the \
         mean fraction of microfluidic operations completed per trial.",
    );
    println!("trials per cell: {trials}\n");

    let dims = ChipDims::PAPER;
    let plan = RjHelper::new(dims)
        .plan(&benchmarks::multiplex_invitro((4, 4)))
        .expect("benchmark plans cleanly");
    let config = DegradationConfig::paper();

    let mode = if smoke { "smoke" } else { "full" };
    let mut report = BenchReport::new("chaos", mode);
    report.note = "hard-chaos degradation curves: PoS and mean completed-operation \
                   fraction per (fault class, severity, control stack), plus \
                   reconfig-vs-supervised dominance ratios and strict-win counts \
                   on the electrode-killing classes; all values are deterministic \
                   given the seeded RNG, so any drift means behaviour changed"
        .to_string();

    let widths = [14, 22, 6, 7, 30];
    let mut violations: Vec<String> = Vec::new();
    for &class in classes {
        println!("fault class: {}", class.name());
        header(
            &[
                "severity",
                "stack",
                "PoS",
                "compl",
                "ladder (rs/rsy/det/rec/abort)",
            ],
            &widths,
        );
        let sevs = severities(class);
        let points = chaos_sweep(
            &plan,
            dims,
            &config,
            &ChaosVariant::ALL,
            class,
            sevs,
            trials,
            2_000,
            616,
        );
        for &sev in sevs {
            for point in points
                .iter()
                .filter(|p| (p.severity - sev).abs() < f64::EPSILON)
            {
                let supervised = matches!(
                    point.variant,
                    ChaosVariant::SupervisedAdaptive | ChaosVariant::SupervisedReconfig
                );
                let ladder = if supervised {
                    format!(
                        "{}/{}/{}/{}/{}",
                        point.rungs.resense,
                        point.rungs.resynth,
                        point.rungs.detour,
                        point.rungs.reconfig,
                        point.rungs.aborted_ops
                    )
                } else {
                    "-".to_string()
                };
                row(
                    &[
                        format!("{:.0}%", sev * 100.0),
                        point.variant.name().to_string(),
                        format!("{:.2}", point.pos),
                        format!("{:.3}", point.mean_completion),
                        ladder,
                    ],
                    &widths,
                );
            }
            println!();
        }

        for point in &points {
            let prefix = format!(
                "{}{:.0}pct.{}",
                class.name(),
                point.severity * 100.0,
                point.variant.name().replace(['-', ' '], "_")
            );
            report.push(format!("{prefix}.pos"), point.pos);
            report.push(format!("{prefix}.mean_completion"), point.mean_completion);
        }

        let curve = |variant: ChaosVariant| -> Vec<f64> {
            sevs.iter()
                .map(|&sev| {
                    points
                        .iter()
                        .find(|p| p.variant == variant && (p.severity - sev).abs() < f64::EPSILON)
                        .map_or(0.0, |p| p.mean_completion)
                })
                .collect()
        };
        let supervised = curve(ChaosVariant::SupervisedAdaptive);
        let reconfig = curve(ChaosVariant::SupervisedReconfig);

        // Strict wins and the worst-case margin over the nonzero
        // severities — the electrode-killing classes gate both.
        let strict_wins = supervised
            .iter()
            .zip(&reconfig)
            .skip(1)
            .filter(|(s, r)| *r > *s)
            .count();
        let min_ratio = supervised
            .iter()
            .zip(&reconfig)
            .skip(1)
            .map(|(s, r)| (r + EPS) / (s + EPS))
            .fold(f64::INFINITY, f64::min);
        if class.gates_dominance() {
            report.push(
                format!("{}.reconfig_vs_supervised_dominance", class.name()),
                min_ratio,
            );
            report.push(
                format!("{}.reconfig_strict_wins_dominance", class.name()),
                strict_wins as f64,
            );
            if !smoke {
                if strict_wins < 2 {
                    violations.push(format!(
                        "{}: reconfig strictly above supervised at only {strict_wins} severity \
                         levels (need >= 2)",
                        class.name()
                    ));
                }
                if min_ratio < 1.0 {
                    violations.push(format!(
                        "{}: reconfig fell below supervised-only (min ratio {min_ratio:.4})",
                        class.name()
                    ));
                }
            }
        }

        // Weak monotonicity of the supervised curves: more severity must
        // not mean more completion (within sampling tolerance).
        let monotone = |c: &[f64]| c.windows(2).all(|w| w[1] <= w[0] + MONO_TOLERANCE);
        let class_monotone = monotone(&supervised) && monotone(&reconfig);
        report.push(
            format!("{}.curve_monotone", class.name()),
            f64::from(u8::from(class_monotone)),
        );
        if !class_monotone && !smoke {
            violations.push(format!(
                "{}: supervised degradation curve is not weakly monotone \
                 (supervised {supervised:?}, reconfig {reconfig:?})",
                class.name()
            ));
        }

        println!(
            "  {}: reconfig strict wins {strict_wins}/{}, min reconfig/supervised ratio {:.3}, \
             monotone {}",
            class.name(),
            sevs.len() - 1,
            min_ratio,
            class_monotone,
        );
        println!();
    }

    println!(
        "Reading: every curve degrades smoothly with severity instead of \
         cliff-dropping. Under clustered and row-loss electrode death the \
         reconfiguring stack dominates supervised-only — a detour cannot \
         save an operation whose target region is dead, relocating the \
         region onto spare electrodes can."
    );

    let written = report.write(bless).expect("write bench report");
    violations.extend(report.baseline_drift(bless));
    println!();
    for path in written {
        println!("Wrote {}", path.display());
    }
    if !bless {
        println!("(baseline BENCH_chaos.json untouched — pass --bless to refresh it)");
    }
    if !violations.is_empty() {
        eprintln!("\ndegradation-curve self-check FAILED:");
        for v in &violations {
            eprintln!("  - {v}");
        }
        std::process::exit(1);
    }
}

/// Which classes gate the reconfig-vs-supervised dominance claim. The
/// sensing-only and creeping-front classes are reported but not gated:
/// stuck sensors leave the electrodes healthy (nothing to relocate around)
/// and the front eventually swallows any spare region too.
trait GatesDominance {
    fn gates_dominance(self) -> bool;
}

impl GatesDominance for FaultClass {
    fn gates_dominance(self) -> bool {
        matches!(self, FaultClass::ClusterDeath | FaultClass::RowLoss)
    }
}
