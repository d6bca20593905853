//! Cycle-accurate MEDA biochip simulator, routers, and the experiment
//! harness behind the paper's evaluation (Section VII, Figs 14–16).
//!
//! The simulator is the *incomplete-information* twin of the MEDA game
//! (Section V-C): droplet-movement outcomes are sampled from the hidden
//! real-valued degradation matrix **D**, while routers only observe the
//! quantized health matrix **H** read out by the dual-DFF sensing design.
//!
//! * [`Biochip`] — per-MC `(τ, c)` degradation, actuation counting, sudden
//!   faults (uniform or clustered 2×2 injection, Section VII-C);
//! * [`Router`] — the control seam: [`BaselineRouter`] is the
//!   degradation-unaware shortest-path baseline, [`AdaptiveRouter`] the
//!   paper's hybrid-scheduled formal-synthesis router (Algorithms 2–3);
//! * [`FleetRunner`] — the one execution loop: executes a planned bioassay
//!   cycle by cycle with up to [`FleetConfig::max_active`] operations in
//!   flight; waiting droplets are held in place (and keep degrading their
//!   MCs), moving droplets follow their router, outcomes are sampled from
//!   **D**, and failures follow one per-task policy (the watchdog and the
//!   [`Ladder`]);
//! * [`BioassayRunner`] — the paper's serial execution: a width-1 fleet
//!   run over one router that ends at the first failure;
//! * [`experiment`] — the Fig 15 probability-of-success sweep, the Fig 16
//!   repeated-trial fault-injection study, and the Fig 3 actuation
//!   correlation analysis;
//! * [`Supervisor`] — supervised execution: a width-1 fleet run whose
//!   failure policy is the retry ladder (re-sense → re-synthesize → detour
//!   → reconfigure onto spare area → abort the operation), folded into a
//!   structured [`FailureReport`] for graceful partial completion;
//!   [`SupervisorConfig::reconfig_budget`] arms the reconfiguration rung,
//!   which relocates a failing operation's target zone onto healthy spare
//!   electrodes via the bioassay placer;
//! * [`FaultPlan`] — scripted chaos on top of placement-time faults:
//!   scheduled electrode death (isolated, clustered `2 × 2`, whole-row),
//!   growing [`DefectFront`]s, intermittent glitches, and stuck sensor
//!   bits corrupting the sensed **Y** matrix
//!   ([`RunConfig::sensed_feedback`] closes that loop);
//! * extras: [`RecoveryRouter`] (reactive error recovery, §II-C),
//!   [`MoScheduler`] runtime operation ordering (the paper-conclusion
//!   extension), [`sensing`] droplet-location reconstruction from the
//!   sensed **Y** matrix, [`analysis`] wear statistics, and [`render`]
//!   ASCII chip maps.
//!
//! # Examples
//!
//! ```
//! use meda_bioassay::{benchmarks, RjHelper};
//! use meda_grid::ChipDims;
//! use meda_sim::{AdaptiveRouter, BioassayRunner, Biochip, DegradationConfig, RunConfig};
//! use meda_rng::SeedableRng;
//!
//! let mut rng = meda_rng::StdRng::seed_from_u64(7);
//! let plan = RjHelper::new(ChipDims::PAPER).plan(&benchmarks::master_mix())?;
//! let mut chip = Biochip::generate(ChipDims::PAPER, &DegradationConfig::paper(), &mut rng);
//! let mut router = AdaptiveRouter::new(Default::default());
//! let outcome = BioassayRunner::new(RunConfig::default())
//!     .run(&plan, &mut chip, &mut router, &mut rng);
//! assert!(outcome.is_success());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adaptive;
pub mod analysis;
mod biochip;
mod constraints;
mod engine;
pub mod experiment;
mod fault;
mod fleet;
mod recovery;
pub mod render;
mod router;
mod scheduler;
pub mod sensing;
mod supervisor;

pub use adaptive::{AdaptiveConfig, AdaptiveRouter};
pub use biochip::{Biochip, DegradationConfig};
pub use constraints::{FluidicConstraints, SeparationViolation, ViolationKind};
pub use engine::{sample_outcome, BioassayRunner, RunConfig, RunOutcome, RunStatus};
pub use fault::{DefectFront, FaultMode, FaultPlan, IntermittentCell, SuddenDeath};
pub use fleet::{
    dependency_exemption, AdaptivePool, ClonePool, FleetConfig, FleetOutcome, FleetRunner, Ladder,
    RouterPool,
};
pub use meda_cell::StuckBit;
pub use recovery::RecoveryRouter;
pub use router::{BaselineRouter, Router};
pub use scheduler::{FifoScheduler, HealthAwareScheduler, MoScheduler};
pub use supervisor::{FailureReport, MoFailure, Rung, RungCounts, Supervisor, SupervisorConfig};
