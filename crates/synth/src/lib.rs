//! Formal synthesis of adaptive droplet-routing strategies — the
//! model-checking back end of Section VI of the paper.
//!
//! The paper feeds the per-routing-job MDP ([`meda_core::RoutingMdp`]) and a
//! reach-avoid query into PRISM-games. Both query types are supported here
//! by an explicit-state Gauss–Seidel value-iteration engine (see `DESIGN.md`
//! §3 for the substitution rationale):
//!
//! * `φ_p : Pmax=? [ □¬hazard ∧ ◇goal ]` — [`Query::MaxReachProbability`];
//! * `φ_r : Rmin=? [ □¬hazard ∧ ◇goal ]` — [`Query::MinExpectedCycles`]
//!   (the per-cycle reward `r_k` of Section VI-C).
//!
//! Because actions that could leave the hazard bounds are disabled in the
//! MDP itself, `□¬hazard` holds along every path and the queries reduce to
//! reachability. For this fragment memoryless deterministic strategies are
//! optimal, and [`synthesize`] (Algorithm 2) returns the optimal
//! [`RoutingStrategy`] `π` together with its value at the initial state
//! (the probability, or the expected number of cycles `k`).
//!
//! [`StrategyLibrary`] implements the offline/online *hybrid* scheduling
//! store of Section VI-D, keyed by the routing job and a digest of the
//! health matrix within its hazard bounds.
//!
//! # Examples
//!
//! ```
//! use meda_core::{ActionConfig, RoutingMdp, UniformField};
//! use meda_grid::Rect;
//! use meda_synth::{synthesize, Query};
//!
//! let mdp = RoutingMdp::build(
//!     Rect::new(1, 1, 3, 3),
//!     Rect::new(8, 8, 10, 10),
//!     Rect::new(1, 1, 10, 10),
//!     &UniformField::pristine(),
//!     &ActionConfig::cardinal_only(),
//! )?;
//! let strategy = synthesize(&mdp, Query::MinExpectedCycles)?;
//! // On a pristine chip the optimal route takes Manhattan-distance cycles.
//! assert_eq!(strategy.value_at_init().round() as u32, 14);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod canonical;
mod export;
mod game;
mod horizon;
mod library;
mod perf;
mod query;
mod reservations;
mod serve;
mod solver;
mod strategy;

pub use cache::{CacheStats, PersistentCache, CACHE_SCHEMA};
pub use canonical::{canonicalize, materialize, CanonicalJob, CanonicalJobKey, JobTransform, D4};
pub use export::{to_prism_explicit, PrismModel};
pub use game::{RobustGame, RobustValues};
pub use horizon::{bounded_reach_probability, HorizonValues};
pub use library::{LibraryKey, StrategyLibrary};
pub use perf::{measure_synthesis, PerfRecord};
pub use query::Query;
pub use reservations::CorridorReservations;
pub use serve::{
    parse_request, run_batch, run_stream, BatchOutcome, ServeEngine, ServeOp, ServeRequest,
};
pub use solver::{
    max_reach_probability, min_expected_cycles, min_expected_cycles_with_reach, SolverMethod,
    SolverOptions, SolverResult,
};
pub use strategy::{synthesize, RoutingStrategy, SynthesisError};
