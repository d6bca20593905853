//! Reference corpus for the execution engine.
//!
//! Each case runs the master-mix assay on the paper chip in the shape of
//! the fleet-equivalence oracle's cases (paper degradation, FIFO order,
//! `k_max = 1200`, a chip seed and a run seed) with the baseline router,
//! under [`FaultPlan::none`] or one hard-chaos [`FaultClass`] at severity
//! 0.5: once plain ([`BioassayRunner::run_with_chaos`]) and once supervised
//! with the reconfiguration budget at 0 and at 2, with sensed feedback on
//! and off. Across the corpus every rung of the supervisor's ladder fires. One line per case digests what the run did: status, cycles,
//! completed operations, an FNV-1a digest of the per-cell wear map (and,
//! for plain runs, of the whole actuation trace), the chip's total
//! actuations and the next draw of the run's RNG; supervised lines add
//! the failures, skipped operations, rung counts and winning rungs.
//!
//! The digest file was recorded on the engine that still ran the serial
//! loop and the supervisor's own loop; the test holds every later engine
//! to it. Regenerate only for an intended behaviour change:
//!
//! ```text
//! MEDA_BLESS=1 cargo test -p meda-sim --test engine_reference
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use meda_bioassay::{benchmarks, BioassayPlan, RjHelper};
use meda_grid::ChipDims;
use meda_rng::{Rng, SeedableRng, StdRng};
use meda_sim::experiment::FaultClass;
use meda_sim::{
    BaselineRouter, BioassayRunner, Biochip, DegradationConfig, FaultPlan, FifoScheduler,
    RunConfig, Supervisor, SupervisorConfig,
};

const K_MAX: u64 = 1_200;
/// Fault severity of every class (the hard-chaos matrix's mid-point).
const SEVERITY: f64 = 0.5;
/// Supervisor watchdog: short, so the detour rung's stall-triggered
/// re-solves stay few and the corpus stays fast in a debug build.
const ATTEMPT_CYCLES: u64 = 32;
/// `(chip seed, run seed)` pairs.
const SEEDS: [(u64, u64); 2] = [(1, 7), (2, 9)];

#[derive(Debug, Clone, Copy)]
enum Mode {
    Plain,
    Supervised { reconfig_budget: u32 },
}

const MODES: [Mode; 3] = [
    Mode::Plain,
    Mode::Supervised { reconfig_budget: 0 },
    Mode::Supervised { reconfig_budget: 2 },
];

fn digest_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("engine_reference.txt")
}

/// FNV-1a over a stream of words.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn wear_digest(chip: &Biochip) -> u64 {
    let mut h = Fnv::new();
    for cell in chip.dims().cells() {
        h.word(chip.actuation_count(cell));
    }
    h.0
}

fn fault_plan(class: Option<FaultClass>, chip_seed: u64) -> FaultPlan {
    match class {
        None => FaultPlan::none(),
        Some(class) => {
            let mut rng = StdRng::seed_from_u64(chip_seed ^ 0x9E37_79B9_7F4A_7C15);
            class.plan(ChipDims::PAPER, SEVERITY, K_MAX, &mut rng)
        }
    }
}

fn render_case(
    plan: &BioassayPlan,
    (chip_seed, run_seed): (u64, u64),
    class: Option<FaultClass>,
    sensed_feedback: bool,
    mode: Mode,
) -> String {
    let chaos = fault_plan(class, chip_seed);
    let mut chip = {
        let mut rng = StdRng::seed_from_u64(chip_seed);
        Biochip::generate(ChipDims::PAPER, &DegradationConfig::paper(), &mut rng)
    };
    let mut rng = StdRng::seed_from_u64(run_seed);
    let mut router = BaselineRouter::new();
    let run = RunConfig {
        k_max: K_MAX,
        record_actuation: true,
        sensed_feedback,
    };
    let mut line = format!(
        "chip={chip_seed} run={run_seed} faults={} sensed={} mode={}:",
        class.map_or("none", FaultClass::name),
        u8::from(sensed_feedback),
        match mode {
            Mode::Plain => "plain".to_string(),
            Mode::Supervised { reconfig_budget } => format!("supervised-r{reconfig_budget}"),
        }
    );
    match mode {
        Mode::Plain => {
            let out = BioassayRunner::new(run).run_with_chaos(
                plan,
                &mut chip,
                &mut router,
                &mut FifoScheduler::new(),
                &chaos,
                &mut rng,
            );
            let mut trace = Fnv::new();
            for pattern in out.trace.as_deref().unwrap_or_default() {
                for (_, bit) in pattern.iter() {
                    trace.word(u64::from(*bit));
                }
            }
            let _ = write!(
                line,
                " status={:?} cycles={} completed={}/{} trace={:016x}",
                out.status, out.cycles, out.completed_ops, out.total_ops, trace.0
            );
        }
        Mode::Supervised { reconfig_budget } => {
            let report = Supervisor::new(SupervisorConfig {
                run,
                attempt_cycles: ATTEMPT_CYCLES,
                reconfig_budget,
                ..SupervisorConfig::default()
            })
            .run(plan, &mut chip, &mut router, &chaos, &mut rng);
            let r = report.rungs;
            let _ = write!(
                line,
                " status={:?} cycles={} completed={}/{} rungs={}/{}/{}/{}/{} failures={:?} \
                 skipped={:?} resolved={:?}",
                report.status,
                report.cycles,
                report.completed_ops,
                report.total_ops,
                r.resense,
                r.resynth,
                r.detour,
                r.reconfig,
                r.aborted_ops,
                report
                    .failures
                    .iter()
                    .map(|f| (
                        f.mo,
                        f.job,
                        f.status,
                        f.last_position.to_string(),
                        f.retries
                    ))
                    .collect::<Vec<_>>(),
                report.skipped,
                report.resolved_by,
            );
        }
    }
    let _ = write!(
        line,
        " wear={:016x} actuations={} next_draw={:016x}",
        wear_digest(&chip),
        chip.total_actuations(),
        rng.gen::<u64>()
    );
    line
}

fn render_corpus() -> String {
    let plan = RjHelper::new(ChipDims::PAPER)
        .plan(&benchmarks::master_mix())
        .expect("master mix plans");
    let classes = std::iter::once(None).chain(FaultClass::ALL.into_iter().map(Some));
    let mut text = String::from(
        "# engine reference corpus: master-mix, paper chip, baseline router, k_max=1200, watchdog 32\n\
         # regenerate with: MEDA_BLESS=1 cargo test -p meda-sim --test engine_reference\n",
    );
    for class in classes {
        // The second seed pair's clustered-death supervised runs spend
        // ~38 s (release) in detour-rung Rmin re-solves; one pair covers
        // that class.
        let pairs = if class == Some(FaultClass::ClusterDeath) {
            &SEEDS[..1]
        } else {
            &SEEDS[..]
        };
        for &seeds in pairs {
            for sensed in [false, true] {
                for mode in MODES {
                    text.push_str(&render_case(&plan, seeds, class, sensed, mode));
                    text.push('\n');
                }
            }
        }
    }
    text
}

#[test]
fn engine_matches_the_reference_corpus() {
    let actual = render_corpus();
    let path = digest_path();
    if std::env::var_os("MEDA_BLESS").is_some() {
        std::fs::write(&path, &actual).expect("write the reference corpus");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing {} — record it with MEDA_BLESS=1 cargo test -p meda-sim --test engine_reference",
            path.display()
        )
    });
    for (i, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
        assert_eq!(a, e, "reference corpus diverged at line {}", i + 1);
    }
    assert_eq!(
        actual.lines().count(),
        expected.lines().count(),
        "reference corpus line counts differ"
    );
}
