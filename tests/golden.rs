//! Golden-trace regression for the deterministic execution pipeline.
//!
//! Each fixture runs a paper bioassay exactly as `meda run <assay>` does
//! (same seed, chip, router, and budget) with actuation recording on, and
//! digests the per-cycle actuation patterns into one line per cycle. The
//! digest is compared against a checked-in golden file, so any change to
//! the simulator, router, scheduler, RNG streams, or degradation physics
//! that shifts even one actuation pattern fails loudly.
//!
//! When a change is *intended* to alter the traces, regenerate the files:
//!
//! ```text
//! MEDA_BLESS=1 cargo test --test golden
//! ```
//!
//! then review the golden diff like any other code change.

use std::fmt::Write as _;
use std::path::PathBuf;

use meda::bioassay::RjHelper;
use meda::grid::{ChipDims, Grid};
use meda::sim::{
    AdaptiveConfig, AdaptiveRouter, BioassayRunner, Biochip, DegradationConfig, FifoScheduler,
    RunConfig,
};
use meda_rng::SeedableRng;

struct Fixture {
    assay: &'static str,
    seed: u64,
}

const FIXTURES: &[Fixture] = &[
    Fixture {
        assay: "master-mix",
        seed: 1,
    },
    Fixture {
        assay: "covid-rat",
        seed: 2,
    },
];

fn golden_path(assay: &str, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(format!("{assay}-seed{seed}.trace"))
}

/// FNV-1a over the row-major actuation bits.
fn pattern_hash(pattern: &Grid<bool>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for (_, bit) in pattern.iter() {
        hash = (hash ^ u64::from(*bit)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Runs the fixture through the same pipeline as `meda run` (adaptive
/// router, paper chip, FIFO scheduler) and renders the digest text.
fn render_trace(fixture: &Fixture) -> String {
    let plan = RjHelper::new(ChipDims::PAPER)
        .plan(
            &meda::bioassay::benchmarks::evaluation_suite()
                .into_iter()
                .find(|sg| sg.name() == fixture.assay)
                .expect("fixture assay exists"),
        )
        .expect("fixture assay plans");
    let mut rng = meda_rng::StdRng::seed_from_u64(fixture.seed);
    let mut chip = Biochip::generate(ChipDims::PAPER, &DegradationConfig::paper(), &mut rng);
    let mut router = AdaptiveRouter::new(AdaptiveConfig::paper());
    let outcome = BioassayRunner::new(RunConfig {
        k_max: 2_000,
        record_actuation: true,
        sensed_feedback: false,
    })
    .run(&plan, &mut chip, &mut router, &mut rng);

    let mut text = String::new();
    let _ = writeln!(
        text,
        "# golden trace: assay={} seed={} router=adaptive k_max=2000",
        fixture.assay, fixture.seed
    );
    let _ = writeln!(
        text,
        "# regenerate with: MEDA_BLESS=1 cargo test --test golden"
    );
    let _ = writeln!(
        text,
        "status={:?} cycles={} completed={}/{}",
        outcome.status, outcome.cycles, outcome.completed_ops, outcome.total_ops
    );
    let trace = outcome.trace.expect("recording was enabled");
    for (cycle, pattern) in trace.iter().enumerate() {
        let _ = writeln!(
            text,
            "cycle {cycle}: set={} hash={:016x}",
            pattern.count_set(),
            pattern_hash(pattern)
        );
    }
    text
}

#[test]
fn execution_traces_match_golden_files() {
    let bless = std::env::var_os("MEDA_BLESS").is_some();
    for fixture in FIXTURES {
        let path = golden_path(fixture.assay, fixture.seed);
        let actual = render_trace(fixture);
        if bless {
            std::fs::write(&path, &actual).expect("write golden file");
            continue;
        }
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
            panic!(
                "missing golden file {} — generate it with MEDA_BLESS=1 cargo test --test golden",
                path.display()
            )
        });
        if actual != expected {
            let divergence = actual
                .lines()
                .zip(expected.lines())
                .position(|(a, e)| a != e)
                .map_or_else(
                    || "line counts differ".to_string(),
                    |i| {
                        format!(
                            "first divergence at line {}:\n  golden: {}\n  actual: {}",
                            i + 1,
                            expected.lines().nth(i).unwrap_or(""),
                            actual.lines().nth(i).unwrap_or("")
                        )
                    },
                );
            panic!(
                "{} trace diverged from {} — {divergence}\n\
                 If the change is intended, re-bless with MEDA_BLESS=1 cargo test --test golden",
                fixture.assay,
                path.display()
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Fleet-engine golden traces.
// ---------------------------------------------------------------------------

use meda::sim::{AdaptivePool, FaultPlan, FleetConfig, FleetRunner};

/// Runs the master-mix fixture through the fleet engine and renders the
/// same digest body as [`render_trace`] (no header comments).
fn render_fleet_body(seed: u64, width: usize) -> String {
    let plan = RjHelper::new(ChipDims::PAPER)
        .plan(&meda::bioassay::benchmarks::master_mix())
        .expect("master mix plans");
    let mut rng = meda_rng::StdRng::seed_from_u64(seed);
    let mut chip = Biochip::generate(ChipDims::PAPER, &DegradationConfig::paper(), &mut rng);
    let mut pool = AdaptivePool::new(AdaptiveConfig::paper());
    let run = RunConfig {
        k_max: 2_000,
        record_actuation: true,
        sensed_feedback: false,
    };
    let outcome = FleetRunner::new(FleetConfig::concurrent(width, run)).run(
        &plan,
        &mut chip,
        &mut pool,
        &mut FifoScheduler::new(),
        &FaultPlan::none(),
        &mut rng,
    );

    let mut text = String::new();
    let _ = writeln!(
        text,
        "status={:?} cycles={} completed={}/{}",
        outcome.status, outcome.cycles, outcome.completed_ops, outcome.total_ops
    );
    let trace = outcome.trace.expect("recording was enabled");
    for (cycle, pattern) in trace.iter().enumerate() {
        let _ = writeln!(
            text,
            "cycle {cycle}: set={} hash={:016x}",
            pattern.count_set(),
            pattern_hash(pattern)
        );
    }
    text
}

/// The serial-equivalence pin: the fleet engine at width 1 must reproduce
/// the *checked-in* master-mix golden trace byte for byte (not merely
/// match a fresh serial run), so the serial path cannot drift under the
/// fleet refactor without failing a reviewed fixture.
#[test]
fn serial_fleet_reproduces_the_master_mix_golden_trace() {
    let path = golden_path("master-mix", 1);
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing golden file {} — generate it with MEDA_BLESS=1 cargo test --test golden",
            path.display()
        )
    });
    let golden_body: String = golden
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| format!("{l}\n"))
        .collect();
    let fleet_body = render_fleet_body(1, 1);
    assert_eq!(
        fleet_body, golden_body,
        "width-1 fleet trace diverged from the serial golden fixture"
    );
}

/// The concurrent fixture: master mix at fleet width 4, pinned like the
/// serial traces (re-bless with `MEDA_BLESS=1 cargo test --test golden`).
#[test]
fn concurrent_fleet_trace_matches_golden_file() {
    let path = golden_path("fleet-master-mix-n4", 1);
    let mut actual = String::new();
    let _ = writeln!(
        actual,
        "# golden trace: assay=master-mix seed=1 router=adaptive-pool fleet_width=4 k_max=2000"
    );
    let _ = writeln!(
        actual,
        "# regenerate with: MEDA_BLESS=1 cargo test --test golden"
    );
    actual.push_str(&render_fleet_body(1, 4));
    if std::env::var_os("MEDA_BLESS").is_some() {
        std::fs::write(&path, &actual).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing golden file {} — generate it with MEDA_BLESS=1 cargo test --test golden",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "fleet trace diverged — if intended, re-bless with MEDA_BLESS=1 cargo test --test golden"
    );
}
