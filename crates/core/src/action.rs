use std::fmt;

use meda_grid::Rect;

use crate::ActionConfig;

/// A cardinal direction (north, south, east, west).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Dir {
    /// North: `y + 1`.
    N,
    /// South: `y − 1`.
    S,
    /// East: `x + 1`.
    E,
    /// West: `x − 1`.
    W,
}

impl Dir {
    /// All four cardinal directions.
    pub const ALL: [Dir; 4] = [Dir::N, Dir::S, Dir::E, Dir::W];

    /// Unit displacement `(dx, dy)` of the direction.
    #[must_use]
    pub const fn delta(self) -> (i32, i32) {
        match self {
            Dir::N => (0, 1),
            Dir::S => (0, -1),
            Dir::E => (1, 0),
            Dir::W => (-1, 0),
        }
    }

    /// Whether the direction is vertical (N or S).
    #[must_use]
    pub const fn is_vertical(self) -> bool {
        matches!(self, Dir::N | Dir::S)
    }
}

impl fmt::Display for Dir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Dir::N => "N",
            Dir::S => "S",
            Dir::E => "E",
            Dir::W => "W",
        };
        f.write_str(s)
    }
}

/// An ordinal (diagonal) direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Ordinal {
    /// North-east.
    NE,
    /// North-west.
    NW,
    /// South-east.
    SE,
    /// South-west.
    SW,
}

impl Ordinal {
    /// All four ordinal directions.
    pub const ALL: [Ordinal; 4] = [Ordinal::NE, Ordinal::NW, Ordinal::SE, Ordinal::SW];

    /// The vertical cardinal component (N or S).
    #[must_use]
    pub const fn vertical(self) -> Dir {
        match self {
            Ordinal::NE | Ordinal::NW => Dir::N,
            Ordinal::SE | Ordinal::SW => Dir::S,
        }
    }

    /// The horizontal cardinal component (E or W).
    #[must_use]
    pub const fn horizontal(self) -> Dir {
        match self {
            Ordinal::NE | Ordinal::SE => Dir::E,
            Ordinal::NW | Ordinal::SW => Dir::W,
        }
    }

    /// Unit displacement `(dx, dy)`.
    #[must_use]
    pub const fn delta(self) -> (i32, i32) {
        let (dx, _) = self.horizontal().delta();
        let (_, dy) = self.vertical().delta();
        (dx, dy)
    }
}

impl fmt::Display for Ordinal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Ordinal::NE => "NE",
            Ordinal::NW => "NW",
            Ordinal::SE => "SE",
            Ordinal::SW => "SW",
        };
        f.write_str(s)
    }
}

/// A microfluidic action of the controller (Section V-B):
/// `𝒜 = 𝒜_d ∪ 𝒜_dd ∪ 𝒜_dd' ∪ 𝒜_↓ ∪ 𝒜_↑`.
///
/// * [`Move`](Action::Move) — single-step cardinal movement (`a_N` …);
/// * [`MoveDouble`](Action::MoveDouble) — double-step cardinal movement
///   (`a_NN` …), guarded by droplet extent ≥ 4 along the movement axis;
/// * [`MoveOrdinal`](Action::MoveOrdinal) — diagonal movement (`a_NE` …);
/// * [`Widen`](Action::Widen) — morphing `a_↓·`: +1 width, −1 height,
///   growing toward the named corner;
/// * [`Heighten`](Action::Heighten) — morphing `a_↑·`: +1 height, −1 width.
///
/// Morphing preserves the droplet's half-perimeter `w + h`, so the set of
/// shapes reachable from a `w×h` droplet is `{(w', h') : w' + h' = w + h}`
/// clipped by the aspect-ratio guard.
///
/// # Examples
///
/// ```
/// use meda_core::{Action, Dir, Ordinal};
/// use meda_grid::Rect;
///
/// let d = Rect::new(3, 2, 7, 5);
/// assert_eq!(Action::Move(Dir::E).apply(d), Rect::new(4, 2, 8, 5));
/// assert_eq!(Action::MoveDouble(Dir::N).apply(d), Rect::new(3, 4, 7, 7));
/// // a_↓NE: widen toward the north-east.
/// let widened = Action::Widen(Ordinal::NE).apply(d);
/// assert_eq!(widened, Rect::new(3, 3, 8, 5));
/// assert_eq!(widened.width(), d.width() + 1);
/// assert_eq!(widened.height(), d.height() - 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Action {
    /// Single-step cardinal movement `a_d`.
    Move(Dir),
    /// Double-step cardinal movement `a_dd`.
    MoveDouble(Dir),
    /// Ordinal (diagonal) movement `a_dd'`.
    MoveOrdinal(Ordinal),
    /// Morphing `a_↓·`: increases width, decreases height.
    Widen(Ordinal),
    /// Morphing `a_↑·`: increases height, decreases width.
    Heighten(Ordinal),
}

impl Action {
    /// All 20 microfluidic actions in a stable order.
    pub const ALL: [Action; 20] = [
        Action::Move(Dir::N),
        Action::Move(Dir::S),
        Action::Move(Dir::E),
        Action::Move(Dir::W),
        Action::MoveDouble(Dir::N),
        Action::MoveDouble(Dir::S),
        Action::MoveDouble(Dir::E),
        Action::MoveDouble(Dir::W),
        Action::MoveOrdinal(Ordinal::NE),
        Action::MoveOrdinal(Ordinal::NW),
        Action::MoveOrdinal(Ordinal::SE),
        Action::MoveOrdinal(Ordinal::SW),
        Action::Widen(Ordinal::NE),
        Action::Widen(Ordinal::NW),
        Action::Widen(Ordinal::SE),
        Action::Widen(Ordinal::SW),
        Action::Heighten(Ordinal::NE),
        Action::Heighten(Ordinal::NW),
        Action::Heighten(Ordinal::SE),
        Action::Heighten(Ordinal::SW),
    ];

    /// The droplet location after *successful* execution, `a(δ)`.
    ///
    /// # Panics
    ///
    /// Panics if a morphing action is applied to a droplet too thin to
    /// morph (height/width 1); guard with [`Action::is_enabled`] first.
    #[must_use]
    #[inline]
    pub fn apply(self, delta: Rect) -> Rect {
        let Rect { xa, ya, xb, yb } = delta;
        match self {
            Action::Move(d) => {
                let (dx, dy) = d.delta();
                delta.translate(dx, dy)
            }
            Action::MoveDouble(d) => {
                let (dx, dy) = d.delta();
                delta.translate(2 * dx, 2 * dy)
            }
            Action::MoveOrdinal(o) => {
                let (dx, dy) = o.delta();
                delta.translate(dx, dy)
            }
            Action::Widen(o) => match o {
                Ordinal::NE => Rect::new(xa, ya + 1, xb + 1, yb),
                Ordinal::NW => Rect::new(xa - 1, ya + 1, xb, yb),
                Ordinal::SE => Rect::new(xa, ya, xb + 1, yb - 1),
                Ordinal::SW => Rect::new(xa - 1, ya, xb, yb - 1),
            },
            Action::Heighten(o) => match o {
                Ordinal::NE => Rect::new(xa + 1, ya, xb, yb + 1),
                Ordinal::NW => Rect::new(xa, ya, xb - 1, yb + 1),
                Ordinal::SE => Rect::new(xa + 1, ya - 1, xb, yb),
                Ordinal::SW => Rect::new(xa, ya - 1, xb - 1, yb),
            },
        }
    }

    /// Evaluates the action's guard (Section V-B) for droplet `delta` within
    /// `bounds` under `config`:
    ///
    /// * shape guards `g_↑ : (y_b−y_a+2)/(x_b−x_a) ≤ r` and
    ///   `g_↓ : (x_b−x_a+2)/(y_b−y_a) ≤ r`;
    /// * double-step guards `g_NN/g_SS : h ≥ 4`, `g_EE/g_WW : w ≥ 4`;
    /// * the successful outcome must stay inside `bounds` (the hazard-bound
    ///   guard — failed moves leave the droplet in place, so this implies
    ///   `□¬hazard` along every outcome);
    /// * the action class must be enabled in `config`.
    #[must_use]
    pub fn is_enabled(self, delta: Rect, bounds: Rect, config: &ActionConfig) -> bool {
        self.class_enabled(delta, config) && bounds.contains_rect(self.apply(delta))
    }

    /// The configuration- and shape-dependent part of the guard — all of
    /// [`Action::is_enabled`] except the hazard-bound check. Depends on
    /// `delta` only through its shape, so bulk consumers (the MDP builder)
    /// evaluate it once per `(width, height)` rather than per state.
    #[must_use]
    pub fn class_enabled(self, delta: Rect, config: &ActionConfig) -> bool {
        let w = (delta.xb - delta.xa) as f64 + 1.0;
        let h = (delta.yb - delta.ya) as f64 + 1.0;
        match self {
            Action::Move(_) => true,
            Action::MoveDouble(d) => {
                config.double_step && if d.is_vertical() { h >= 4.0 } else { w >= 4.0 }
            }
            Action::MoveOrdinal(_) => config.ordinal,
            Action::Widen(_) => {
                // g_↓: (x_b − x_a + 2) / (y_b − y_a) ≤ r; h = 1 disables.
                config.morphing && h > 1.0 && (w + 1.0) / (h - 1.0) <= config.aspect_ratio_max
            }
            Action::Heighten(_) => {
                config.morphing && w > 1.0 && (h + 1.0) / (w - 1.0) <= config.aspect_ratio_max
            }
        }
    }

    /// Whether the action is geometrically applicable to `delta` at all:
    /// morphing needs at least two cells along the shrinking axis. Unlike
    /// [`Action::is_enabled`], this ignores bounds, aspect-ratio, and
    /// double-step guards — it is the condition under which
    /// [`Action::apply`] is defined.
    #[must_use]
    #[inline]
    pub fn is_applicable(self, delta: Rect) -> bool {
        match self {
            Action::Widen(_) => delta.height() >= 2,
            Action::Heighten(_) => delta.width() >= 2,
            _ => true,
        }
    }

    /// The intermediate droplet of a double-step movement (shifted one
    /// step), `δ' = a_d(δ)`; `None` for other action classes.
    #[must_use]
    #[inline]
    pub fn intermediate(self, delta: Rect) -> Option<Rect> {
        match self {
            Action::MoveDouble(d) => Some(Action::Move(d).apply(delta)),
            _ => None,
        }
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Move(d) => write!(f, "a_{d}"),
            Action::MoveDouble(d) => write!(f, "a_{d}{d}"),
            Action::MoveOrdinal(o) => write!(f, "a_{o}"),
            Action::Widen(o) => write!(f, "a_v{o}"),
            Action::Heighten(o) => write!(f, "a_^{o}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const D: Rect = Rect {
        xa: 3,
        ya: 2,
        xb: 7,
        yb: 5,
    };

    #[test]
    fn moves_translate_without_reshaping() {
        for d in Dir::ALL {
            let moved = Action::Move(d).apply(D);
            assert_eq!(moved.width(), D.width());
            assert_eq!(moved.height(), D.height());
            let (dx, dy) = d.delta();
            assert_eq!(moved, D.translate(dx, dy));
        }
    }

    #[test]
    fn double_moves_translate_two_units() {
        assert_eq!(Action::MoveDouble(Dir::E).apply(D), D.translate(2, 0));
        assert_eq!(Action::MoveDouble(Dir::S).apply(D), D.translate(0, -2));
    }

    #[test]
    fn ordinal_moves_translate_diagonally() {
        assert_eq!(Action::MoveOrdinal(Ordinal::NE).apply(D), D.translate(1, 1));
        assert_eq!(
            Action::MoveOrdinal(Ordinal::SW).apply(D),
            D.translate(-1, -1)
        );
    }

    #[test]
    fn widen_increases_width_decreases_height() {
        for o in Ordinal::ALL {
            let m = Action::Widen(o).apply(D);
            assert_eq!(m.width(), D.width() + 1, "{o}");
            assert_eq!(m.height(), D.height() - 1, "{o}");
        }
    }

    #[test]
    fn heighten_increases_height_decreases_width() {
        for o in Ordinal::ALL {
            let m = Action::Heighten(o).apply(D);
            assert_eq!(m.width(), D.width() - 1, "{o}");
            assert_eq!(m.height(), D.height() + 1, "{o}");
        }
    }

    #[test]
    fn morphing_preserves_half_perimeter() {
        for o in Ordinal::ALL {
            for a in [Action::Widen(o), Action::Heighten(o)] {
                let m = a.apply(D);
                assert_eq!(m.width() + m.height(), D.width() + D.height());
            }
        }
    }

    #[test]
    fn paper_guard_example() {
        // For r = 3/2 and δ = (3,2,7,5): g_↑ = 1 while g_↓ = 0.
        let config = ActionConfig {
            aspect_ratio_max: 1.5,
            ..ActionConfig::default()
        };
        let bounds = Rect::new(-10, -10, 20, 20);
        assert!(Action::Heighten(Ordinal::NE).is_enabled(D, bounds, &config));
        assert!(!Action::Widen(Ordinal::NE).is_enabled(D, bounds, &config));
    }

    #[test]
    fn double_step_guard_requires_extent_4() {
        let config = ActionConfig::default();
        let bounds = Rect::new(-10, -10, 20, 20);
        let wide_flat = Rect::new(0, 0, 4, 1); // 5×2
        assert!(Action::MoveDouble(Dir::E).is_enabled(wide_flat, bounds, &config));
        assert!(!Action::MoveDouble(Dir::N).is_enabled(wide_flat, bounds, &config));
    }

    #[test]
    fn bounds_guard_disables_exit() {
        let config = ActionConfig::default();
        let bounds = Rect::new(1, 1, 10, 10);
        let at_edge = Rect::new(8, 4, 10, 6);
        assert!(!Action::Move(Dir::E).is_enabled(at_edge, bounds, &config));
        assert!(Action::Move(Dir::W).is_enabled(at_edge, bounds, &config));
        assert!(!Action::MoveOrdinal(Ordinal::NE).is_enabled(at_edge, bounds, &config));
    }

    #[test]
    fn thin_droplets_cannot_morph() {
        let config = ActionConfig {
            aspect_ratio_max: 100.0,
            ..ActionConfig::default()
        };
        let bounds = Rect::new(-10, -10, 20, 20);
        let flat = Rect::new(0, 0, 4, 0); // height 1
        assert!(!Action::Widen(Ordinal::NE).is_enabled(flat, bounds, &config));
        let thin = Rect::new(0, 0, 0, 4); // width 1
        assert!(!Action::Heighten(Ordinal::NE).is_enabled(thin, bounds, &config));
    }

    #[test]
    fn intermediate_only_for_double_steps() {
        assert_eq!(
            Action::MoveDouble(Dir::N).intermediate(D),
            Some(D.translate(0, 1))
        );
        assert_eq!(Action::Move(Dir::N).intermediate(D), None);
        assert_eq!(Action::Widen(Ordinal::NE).intermediate(D), None);
    }

    #[test]
    fn all_actions_unique_and_complete() {
        let mut set = std::collections::HashSet::new();
        for a in Action::ALL {
            assert!(set.insert(a));
        }
        assert_eq!(set.len(), 20);
    }

    #[test]
    fn display_names_follow_paper() {
        assert_eq!(Action::Move(Dir::N).to_string(), "a_N");
        assert_eq!(Action::MoveDouble(Dir::E).to_string(), "a_EE");
        assert_eq!(Action::MoveOrdinal(Ordinal::SW).to_string(), "a_SW");
    }
}
