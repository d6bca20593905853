//! `synth-paper`: closed loop, one client, over the paper-scale Table V
//! matrix of `bench_synthesis`. Each job builds the routing MDP, solves
//! Rmin cold and certifies the answer with the sound audit; no simulator,
//! cache or warm re-solve is involved.
#![forbid(unsafe_code)]

use meda_audit::{audit_solution_sound, ModelArtifact, ValueKind, CERTIFICATE_EPSILON};
use meda_core::{ActionConfig, HealthField, RoutingMdp};
use meda_degradation::HealthLevel;
use meda_grid::{ChipDims, Grid, Rect};
use meda_rng::{Rng, SeedableRng, StdRng};
use meda_synth::{synthesize, Query};

use crate::stats::median_f64;
use crate::trace::{self, Snapshot};
use crate::workload::{derive, Fnv, Summary, Workload};

/// Chip area and droplet size of each Table V cell, 10×10 up to 90×90.
const CELLS: [((u32, u32), (u32, u32)); 10] = [
    ((10, 10), (3, 3)),
    ((20, 20), (4, 4)),
    ((30, 30), (3, 3)),
    ((30, 30), (6, 6)),
    ((45, 45), (3, 3)),
    ((60, 60), (6, 6)),
    ((90, 45), (3, 3)),
    ((90, 90), (3, 3)),
    ((90, 90), (6, 6)),
    ((90, 90), (12, 12)),
];

/// Health bits of the planning field.
const BITS: u8 = 3;

struct Job {
    start: Rect,
    goal: Rect,
    bounds: Rect,
    field: HealthField,
}

pub struct Synth {
    jobs: Vec<Job>,
    digests: Vec<u64>,
    problems: Vec<String>,
}

impl Synth {
    /// One certified strategy: build, solve, audit. Returns the value at
    /// the initial state when the audit certifies it.
    fn job(&self, job: &Job) -> Result<f64, String> {
        let mdp = trace::timed("core.mdp", "core.mdp.build", || {
            RoutingMdp::build(
                job.start,
                job.goal,
                job.bounds,
                &job.field,
                &ActionConfig::moves_only(),
            )
        })
        .0
        .map_err(|e| e.to_string())?;
        let strategy = trace::timed("synth.solve", "synth.solve.rmin", || {
            synthesize(&mdp, Query::MinExpectedCycles)
        })
        .0
        .map_err(|e| e.to_string())?;
        let (report, certified) = trace::timed("audit", "audit.sound", || {
            let art = ModelArtifact::from(&mdp);
            let choice: Vec<_> = (0..mdp.len())
                .map(|i| strategy.decide(mdp.state(i)))
                .collect();
            let (report, cert) = audit_solution_sound(
                &art,
                strategy.values(),
                &choice,
                ValueKind::ExpectedCycles,
                CERTIFICATE_EPSILON,
            );
            let init = strategy.values()[art.init];
            let certified = cert.is_some_and(|c| c.contains(art.init, init, CERTIFICATE_EPSILON));
            (report, certified)
        })
        .0;
        if !report.is_clean() {
            return Err(format!("audit not clean: {report}"));
        }
        if !certified {
            return Err("certified interval excludes the solver's value".into());
        }
        Ok(strategy.value_at_init())
    }
}

impl Workload for Synth {
    const UNITS_PER_SECOND: f64 = 1.2;

    fn setup(seed: u64, _units: u64) -> Self {
        let jobs = CELLS
            .iter()
            .enumerate()
            .map(|(i, &((aw, ah), (dw, dh)))| {
                // Two cells of margin keep frontier lookups on-chip.
                let mut rng = StdRng::seed_from_u64(derive(seed, &[i as u64]));
                let dims = ChipDims::new(aw + 2, ah + 2);
                let grid = Grid::from_fn(dims, |_| {
                    HealthLevel::new(7 - rng.gen_range(0..3u32) as u8, BITS)
                });
                Job {
                    start: Rect::with_size(1, 1, dw, dh),
                    goal: Rect::with_size((aw - dw + 1) as i32, (ah - dh + 1) as i32, dw, dh),
                    bounds: Rect::new(1, 1, aw as i32, ah as i32),
                    field: HealthField::new(grid, BITS),
                }
            })
            .collect();
        Self {
            jobs,
            digests: Vec::new(),
            problems: Vec::new(),
        }
    }

    fn measure(&mut self, units: u64) {
        let mut digests = Vec::new();
        let mut problems = Vec::new();
        for p in 0..units {
            let mut digest = Fnv::default();
            for (i, job) in self.jobs.iter().enumerate() {
                trace::set_ctx(p * 16 + i as u64 + 1, i);
                let t0 = trace::now_ns();
                let result = self.job(job);
                let ns = trace::now_ns() - t0;
                trace::sample("job", ns);
                trace::count("jobs", 1);
                match result {
                    Ok(value) => digest.word(value.to_bits()),
                    Err(e) => {
                        trace::count("failed", 1);
                        problems.push(format!("synth-paper: cell {i}: {e}"));
                    }
                }
            }
            digests.push(digest.0);
        }
        self.digests = digests;
        self.problems = problems;
    }

    fn check(&mut self) -> Vec<String> {
        let mut problems = std::mem::take(&mut self.problems);
        if self.digests.windows(2).any(|w| w[0] != w[1]) {
            problems.push("synth-paper: passes over the same jobs disagree".into());
        }
        problems
    }

    fn summarize(&self, snap: &Snapshot) -> Summary {
        let jobs = snap.count("jobs");
        let failed = snap.count("failed");
        // Every figure comes from the per-cell medians: a pass over the
        // matrix at the median job time of each cell, the median job, and
        // the slowest cell. A slow spell of the host shifts a cell's median
        // only when it covers half of that cell's jobs.
        let cells = snap.group_medians("job");
        let pass_s: f64 = cells.iter().sum::<f64>() / 1e9;
        Summary {
            attempted: jobs,
            failed,
            succeeded: jobs - failed,
            throughput: if pass_s > 0.0 {
                cells.len() as f64 / pass_s
            } else {
                0.0
            },
            p50_ms: median_f64(&cells).map(|ns| ns / 1e6),
            tail_ms: cells.iter().copied().reduce(f64::max).map(|ns| ns / 1e6),
        }
    }

    fn digest(&self) -> u64 {
        self.digests.first().copied().unwrap_or(0)
    }
}
