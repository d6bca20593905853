//! Droplet, actuation, and stochastic-game models for MEDA biochips —
//! the core formalism of Sections V–VI of *"Formal Synthesis of Adaptive
//! Droplet Routing for MEDA Biochips"* (DATE 2021).
//!
//! A droplet is modeled by its rectangular actuation pattern
//! `δ = (x_a, y_a, x_b, y_b)` ([`meda_grid::Rect`]). The controller
//! manipulates it through 20 microfluidic [`Action`]s — single- and
//! double-step cardinal moves, ordinal moves, and shape-morphing
//! transformations — whose success depends on the health of the
//! microelectrodes in the action's *frontier set* (Table II). Degraded
//! frontier MCs weaken the EWOD pull, so each action induces a probability
//! distribution over outcomes (Section V-B), provided here by
//! [`transitions`] over any [`ForceProvider`].
//!
//! The full system is the stochastic multiplayer game [`MedaGame`]
//! (Section V-C) between the droplet controller (player ①) and chip
//! degradation (player ②). For synthesis, [`RoutingMdp`] applies the
//! paper's partial-order reduction (Section VI-C): within one routing job
//! the health matrix is frozen at its current value, reducing the game to a
//! Markov decision process over droplet positions inside the hazard bounds.
//!
//! # Examples
//!
//! Example 2/3 of the paper — frontier sets and transition probabilities of
//! the north-east move:
//!
//! ```
//! use meda_core::{frontier_set, Action, Dir, Ordinal};
//! use meda_grid::Rect;
//!
//! let delta = Rect::new(3, 2, 7, 5);
//! let fr_e = frontier_set(delta, Action::MoveOrdinal(Ordinal::NE), Dir::E).unwrap();
//! let fr_n = frontier_set(delta, Action::MoveOrdinal(Ordinal::NE), Dir::N).unwrap();
//! assert_eq!(fr_e, Rect::new(8, 3, 8, 6));
//! assert_eq!(fr_n, Rect::new(4, 6, 8, 6));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod action;
mod config;
mod force;
mod frontier;
mod hazard;
mod mdp;
mod mec;
mod scc;
mod smg;
mod transition;

pub use action::{Action, Dir, Ordinal};
pub use config::ActionConfig;
pub use force::{
    mean_force, DegradationField, ForceProvider, HealthField, HealthInterpretation, RawField,
    UniformField,
};
pub use frontier::frontier_set;
pub use hazard::{hazard_digest, HazardBox, HazardedField};
pub use mdp::{
    Branch, BuildError, Choice, Choices, ChoicesIter, CsrView, HazardHandling, MdpStats, RoutingMdp,
};
pub use mec::{mec_decomposition, MecDecomposition, NO_MEC};
pub use scc::{tarjan_scc, Condensation};
pub use smg::{DegradationMove, GameState, MedaGame, Player};
pub use transition::{transitions, transitions_into, Outcome};
