use meda_grid::Rect;

use crate::{frontier_set, mean_force, Action, Dir, ForceProvider};

/// One probabilistic outcome of executing an action: the resulting droplet
/// location and its probability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    /// Droplet location after the event.
    pub droplet: Rect,
    /// Probability of the event.
    pub probability: f64,
}

/// The probability distribution over next droplet locations when `action`
/// is executed on `delta` under force field `field` (Section V-B).
///
/// Outcomes with probability 0 are kept (the paper's event spaces are
/// fixed). The outcomes of one action are pairwise distinct droplets:
/// every move translates by a nonzero offset and every morph changes the
/// shape. The probabilities always sum to 1.
///
/// * single-step `a_d`: succeeds with the mean frontier force, else stays;
/// * double-step `a_dd`: second step conditioned on the first;
/// * ordinal `a_dd'`: the two axes succeed independently, giving events
///   `{dd', d, d', ε}`;
/// * morphing `a_↓/a_↑`: succeeds with the mean force of its frontier.
///
/// # Examples
///
/// Example 3 of the paper:
///
/// ```
/// use meda_core::{transitions, Action, Ordinal, RawField};
/// use meda_grid::{ChipDims, Grid, Rect};
///
/// let dims = ChipDims::new(10, 8);
/// let mut f = Grid::new(dims, 1.0);
/// for (i, v) in [0.6, 0.5, 0.8, 0.9].iter().enumerate() {
///     f[meda_grid::Cell::new(8, 3 + i as i32)] = *v;
/// }
/// for (i, v) in [0.9, 0.4, 0.9, 0.7, 0.9].iter().enumerate() {
///     f[meda_grid::Cell::new(4 + i as i32, 6)] = *v;
/// }
/// let field = RawField::new(f);
/// let delta = Rect::new(3, 2, 7, 5);
/// let out = transitions(delta, Action::MoveOrdinal(Ordinal::NE), &field);
/// let p_ne = out
///     .iter()
///     .find(|o| o.droplet == delta.translate(1, 1))
///     .unwrap()
///     .probability;
/// assert!((p_ne - 0.532).abs() < 1e-9);
/// ```
#[must_use]
pub fn transitions(delta: Rect, action: Action, field: &dyn ForceProvider) -> Vec<Outcome> {
    let mut out = Vec::with_capacity(4);
    transitions_into(delta, action, field, &mut out);
    out
}

/// [`transitions`] writing into a caller-provided buffer (cleared first),
/// so a caller expanding many (state, action) pairs reuses one
/// allocation.
///
/// This is the plain path: every frontier mean reads
/// [`ForceProvider::cell_force`] cell by cell. The MDP builder computes
/// the same distributions from a per-build force window instead, and this
/// function is the independent reference it is tested against.
pub fn transitions_into(
    delta: Rect,
    action: Action,
    field: &dyn ForceProvider,
    out: &mut Vec<Outcome>,
) {
    expand_into(
        delta,
        action,
        |r, d| frontier_mean(r, Action::Move(d), d, field),
        |r, a, d| frontier_mean(r, a, d, field),
        out,
    );
}

/// The shared expansion core: outcome structure per action class, with the
/// frontier means supplied by the caller. `move_mean(r, d)` is the mean of
/// the single-step frontier `Fr(r; a_d, d)`; every move-class frontier of
/// Table II reduces to it on a (possibly shifted) same-shape rectangle,
/// which is what lets [`MoveMemo`] memoize them. Morphing frontiers
/// go through `morph_mean` uncached.
///
/// The outcomes are pushed without merging: they are pairwise distinct by
/// construction (nonzero translations; a morph changes the shape).
#[inline]
fn expand_into(
    delta: Rect,
    action: Action,
    mut move_mean: impl FnMut(Rect, Dir) -> f64,
    mut morph_mean: impl FnMut(Rect, Action, Dir) -> f64,
    out: &mut Vec<Outcome>,
) {
    out.clear();
    if !action.is_applicable(delta) {
        // Morphing a degenerate droplet has an empty frontier: no pull,
        // the droplet stays with certainty.
        push(out, delta, 1.0);
        return;
    }
    match action {
        Action::Move(d) => {
            let p = move_mean(delta, d);
            push(out, action.apply(delta), p);
            push(out, delta, 1.0 - p);
        }
        Action::MoveDouble(d) => {
            let intermediate = action
                .intermediate(delta)
                .expect("double step has an intermediate");
            let p1 = move_mean(delta, d);
            let p2 = move_mean(intermediate, d);
            push(out, action.apply(delta), p1 * p2);
            push(out, intermediate, p1 * (1.0 - p2));
            push(out, delta, 1.0 - p1);
        }
        Action::MoveOrdinal(o) => {
            let (dx, dy) = o.delta();
            // Fr(δ; a_dd', d) = Fr(δ shifted one cell along d'; a_d, d):
            // the ordinal frontier is the cardinal one, pre-shifted along
            // the other axis (Table II).
            let pd = move_mean(delta.translate(dx, 0), o.vertical());
            let pd2 = move_mean(delta.translate(0, dy), o.horizontal());
            push(out, delta.translate(dx, dy), pd * pd2);
            push(out, delta.translate(0, dy), pd * (1.0 - pd2));
            push(out, delta.translate(dx, 0), (1.0 - pd) * pd2);
            push(out, delta, (1.0 - pd) * (1.0 - pd2));
        }
        Action::Widen(o) => {
            let p = morph_mean(delta, action, o.horizontal());
            push(out, action.apply(delta), p);
            push(out, delta, 1.0 - p);
        }
        Action::Heighten(o) => {
            let p = morph_mean(delta, action, o.vertical());
            push(out, action.apply(delta), p);
            push(out, delta, 1.0 - p);
        }
    }
}

/// Sentinel for an unallocated [`MoveMemo`] shape page.
const UNALLOCATED: u32 = u32::MAX;

/// Per-build frontier means, the dominant cost of model construction: a
/// [`ForceWindow`] read once per build, and a [`MoveMemo`] of single-step
/// cardinal frontier means over it.
pub(crate) struct TransitionCache<'f> {
    window: ForceWindow<'f>,
    pub(crate) memo: MoveMemo,
}

impl<'f> TransitionCache<'f> {
    pub(crate) fn new(field: &'f dyn ForceProvider, bounds: Rect) -> Self {
        Self {
            window: ForceWindow::new(field, bounds.expand(2)),
            memo: MoveMemo::new(bounds),
        }
    }

    /// [`transitions_into`] with the frontier means read off the window
    /// and the cardinal ones memoized.
    #[inline]
    pub(crate) fn transitions_into(&mut self, delta: Rect, action: Action, out: &mut Vec<Outcome>) {
        let window = &self.window;
        let memo = &mut self.memo;
        expand_into(
            delta,
            action,
            |r, d| memo.mean(window, r, d),
            |r, a, d| frontier_set(r, a, d).map_or(0.0, |fr| window.mean(fr)),
            out,
        );
    }
}

/// `cell_force` of every cell of a rectangle, read once into a flat
/// row-major array. The builder's window is `bounds.expand(2)`, which
/// covers every frontier of an in-bounds state: a double step's second
/// frontier lies two cells past the droplet, every other frontier one.
/// A frontier mean sums its slice of the window in the row-major order of
/// [`mean_force`], so the bits equal the plain [`transitions_into`] path's.
struct ForceWindow<'f> {
    field: &'f dyn ForceProvider,
    rect: Rect,
    /// Row length of the window.
    stride: usize,
    /// `cell_force` per window cell, row-major from the south-west corner.
    forces: Vec<f64>,
}

impl<'f> ForceWindow<'f> {
    fn new(field: &'f dyn ForceProvider, rect: Rect) -> Self {
        // Sized exactly: `cells()` gives no size hint, and collecting it
        // would double the buffer up to twice the window.
        let mut forces = Vec::with_capacity(rect.area() as usize);
        forces.extend(rect.cells().map(|c| field.cell_force(c)));
        Self {
            field,
            rect,
            stride: rect.width() as usize,
            forces,
        }
    }

    /// [`mean_force`] over a frontier line, summed off the window in the
    /// same row-major order. A frontier outside the window (never one of
    /// an in-bounds state) reads the field directly.
    #[inline]
    fn mean(&self, fr: Rect) -> f64 {
        debug_assert!(
            fr.width() == 1 || fr.height() == 1,
            "frontier {fr} is not a line"
        );
        if !self.rect.contains_rect(fr) {
            return mean_force(self.field, fr);
        }
        let x = (fr.xa - self.rect.xa) as usize;
        let y = (fr.ya - self.rect.ya) as usize;
        let first = y * self.stride + x;
        let total: f64 = if fr.height() == 1 {
            self.forces[first..first + fr.width() as usize].iter().sum()
        } else {
            self.forces[first..]
                .iter()
                .step_by(self.stride)
                .take(fr.height() as usize)
                .sum()
        };
        total / fr.area() as f64
    }
}

/// Memo of single-step cardinal frontier means. Every move-class frontier
/// of Table II is the single-step frontier `Fr(r; a_d, d)` of a same-shape
/// rectangle: a double step evaluates it at `δ` and at the intermediate
/// rectangle, and an ordinal move at `δ` shifted one cell along the other
/// axis — rectangles the BFS also visits as states of their own.
/// Construction therefore evaluates each (rectangle, direction) mean up to
/// five times; the memo computes it once. Keyed like the builder's dense
/// state index: lazily allocated `(w, h)` shape pages over anchor
/// positions (extended one cell beyond the bounds for the shifted
/// lookups), four direction slots per anchor.
pub(crate) struct MoveMemo {
    /// Anchor-space origin: one cell outside the bounds corner.
    x0: i32,
    y0: i32,
    /// Anchor extents per page (bounds extent + 2).
    ax: usize,
    ay: usize,
    /// Shape extents (bounds width/height).
    nx: usize,
    ny: usize,
    /// Per `(w, h)`: offset of that shape's page in `means`, or
    /// [`UNALLOCATED`]. Indexed `(h-1)·nx + (w-1)`.
    page_offset: Vec<u32>,
    /// Four direction means per anchor slot; NaN marks "not yet computed".
    means: Vec<f64>,
    /// Last shape looked up and its page base — without morphing a job
    /// has exactly one shape, so this skips the page table entirely.
    last_shape: (usize, usize),
    last_base: usize,
    /// Memo effectiveness, flushed to telemetry by the builder.
    pub(crate) hits: u64,
    pub(crate) misses: u64,
}

impl MoveMemo {
    fn new(bounds: Rect) -> Self {
        let nx = bounds.width() as usize;
        let ny = bounds.height() as usize;
        Self {
            x0: bounds.xa - 1,
            y0: bounds.ya - 1,
            ax: nx + 2,
            ay: ny + 2,
            nx,
            ny,
            page_offset: vec![UNALLOCATED; nx * ny],
            means: Vec::new(),
            last_shape: (0, 0),
            last_base: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Memoized mean of the single-step frontier `Fr(r; a_d, d)`.
    #[inline]
    fn mean(&mut self, window: &ForceWindow<'_>, r: Rect, d: Dir) -> f64 {
        let w = r.width() as usize;
        let h = r.height() as usize;
        let ix = r.xa - self.x0;
        let iy = r.ya - self.y0;
        if w > self.nx
            || h > self.ny
            || ix < 0
            || iy < 0
            || ix as usize >= self.ax
            || iy as usize >= self.ay
        {
            // Outside the memo's anchor range (cannot arise from the
            // builder, which only expands in-bounds states).
            self.misses += 1;
            return window.mean(move_frontier(r, d));
        }
        let base = if (w, h) == self.last_shape {
            self.last_base
        } else {
            let key = (h - 1) * self.nx + (w - 1);
            let base = if self.page_offset[key] == UNALLOCATED {
                let base = self.means.len();
                self.page_offset[key] =
                    u32::try_from(base).expect("frontier cache exceeds u32 address space");
                self.means.resize(base + self.ax * self.ay * 4, f64::NAN);
                base
            } else {
                self.page_offset[key] as usize
            };
            self.last_shape = (w, h);
            self.last_base = base;
            base
        };
        let slot = base + (iy as usize * self.ax + ix as usize) * 4 + dir_slot(d);
        let cached = self.means[slot];
        if cached.is_nan() {
            self.misses += 1;
            let m = window.mean(move_frontier(r, d));
            self.means[slot] = m;
            m
        } else {
            self.hits += 1;
            cached
        }
    }
}

/// The single-step frontier `Fr(r; a_d, d)`, the full row or column facing
/// `d` — `frontier_set(r, Action::Move(d), d)` without the generic table
/// lookup.
#[inline]
fn move_frontier(r: Rect, d: Dir) -> Rect {
    let fr = match d {
        Dir::N => Rect {
            ya: r.yb + 1,
            yb: r.yb + 1,
            ..r
        },
        Dir::S => Rect {
            ya: r.ya - 1,
            yb: r.ya - 1,
            ..r
        },
        Dir::E => Rect {
            xa: r.xb + 1,
            xb: r.xb + 1,
            ..r
        },
        Dir::W => Rect {
            xa: r.xa - 1,
            xb: r.xa - 1,
            ..r
        },
    };
    debug_assert_eq!(Some(fr), frontier_set(r, Action::Move(d), d));
    fr
}

fn dir_slot(d: Dir) -> usize {
    match d {
        Dir::N => 0,
        Dir::S => 1,
        Dir::E => 2,
        Dir::W => 3,
    }
}

/// Mean force over the frontier of `action` in direction `dir`, or 0 if the
/// frontier is empty (the action cannot pull that way).
fn frontier_mean(delta: Rect, action: Action, dir: Dir, field: &dyn ForceProvider) -> f64 {
    frontier_set(delta, action, dir).map_or(0.0, |fr| mean_force(field, fr))
}

/// Appends one outcome; an action's outcomes never coincide, so no merging.
#[inline]
fn push(out: &mut Vec<Outcome>, droplet: Rect, probability: f64) {
    debug_assert!(
        out.iter().all(|o| o.droplet != droplet),
        "outcome {droplet} pushed twice"
    );
    out.push(Outcome {
        droplet,
        probability,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dir, Ordinal, RawField, UniformField};
    use meda_grid::{Cell, ChipDims, Grid};

    const D: Rect = Rect {
        xa: 3,
        ya: 2,
        xb: 7,
        yb: 5,
    };

    fn example3_field() -> RawField {
        let dims = ChipDims::new(12, 8);
        let mut f = Grid::new(dims, 1.0);
        // D_(8, 3:6) = (0.6, 0.5, 0.8, 0.9)
        for (i, v) in [0.6, 0.5, 0.8, 0.9].iter().enumerate() {
            f[Cell::new(8, 3 + i as i32)] = *v;
        }
        // D_(4:8, 6) = (0.9, 0.4, 0.9, 0.7, 0.9)
        for (i, v) in [0.9, 0.4, 0.9, 0.7, 0.9].iter().enumerate() {
            f[Cell::new(4 + i as i32, 6)] = *v;
        }
        RawField::new(f)
    }

    #[test]
    fn probabilities_sum_to_one_for_all_actions() {
        let field = UniformField::new(0.7);
        for a in Action::ALL {
            let total: f64 = transitions(D, a, &field)
                .iter()
                .map(|o| o.probability)
                .sum();
            assert!((total - 1.0).abs() < 1e-12, "{a}: sum {total}");
        }
    }

    #[test]
    fn paper_example_3_ne_probabilities() {
        let field = example3_field();
        let out = transitions(D, Action::MoveOrdinal(Ordinal::NE), &field);
        let p = |target: Rect| {
            out.iter()
                .find(|o| o.droplet == target)
                .map_or(0.0, |o| o.probability)
        };
        // p(NE) = 0.76 · 0.7 = 0.532
        assert!((p(D.translate(1, 1)) - 0.532).abs() < 1e-9);
        // Per the paper's own probability table, p(N) = p_N·(1−p_E) = 0.228
        // and p(E) = (1−p_N)·p_E = 0.168; Example 3's prose swaps the two
        // labels. We assert the table's formulas and that the residual-mass
        // pair is exactly {0.168, 0.228}.
        let p_north_only = p(D.translate(0, 1));
        let p_east_only = p(D.translate(1, 0));
        assert!((p_north_only - 0.76 * 0.3).abs() < 1e-9);
        assert!((p_east_only - 0.24 * 0.7).abs() < 1e-9);
        // Either pairing, the two residual masses are {0.228, 0.168}.
        let mut pair = [p_north_only, p_east_only];
        pair.sort_by(f64::total_cmp);
        assert!((pair[0] - 0.168).abs() < 1e-9);
        assert!((pair[1] - 0.228).abs() < 1e-9);
        // ε keeps the rest.
        assert!((p(D) - 0.24 * 0.3).abs() < 1e-9);
    }

    #[test]
    fn single_move_two_outcomes() {
        let field = UniformField::new(0.9);
        let out = transitions(D, Action::Move(Dir::N), &field);
        assert_eq!(out.len(), 2);
        assert!((out[0].probability - 0.9).abs() < 1e-12);
        assert_eq!(out[0].droplet, D.translate(0, 1));
        assert_eq!(out[1].droplet, D);
    }

    #[test]
    fn double_move_conditions_second_step() {
        let field = UniformField::new(0.8);
        let out = transitions(D, Action::MoveDouble(Dir::E), &field);
        let p = |target: Rect| {
            out.iter()
                .find(|o| o.droplet == target)
                .map_or(0.0, |o| o.probability)
        };
        assert!((p(D.translate(2, 0)) - 0.64).abs() < 1e-12);
        assert!((p(D.translate(1, 0)) - 0.8 * 0.2).abs() < 1e-12);
        assert!((p(D) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn pristine_chip_always_succeeds() {
        let field = UniformField::pristine();
        for a in Action::ALL {
            let out = transitions(D, a, &field);
            let success = out
                .iter()
                .find(|o| o.droplet == a.apply(D))
                .expect("success outcome present");
            assert!(
                (success.probability - 1.0).abs() < 1e-12,
                "{a} should be certain on a pristine chip"
            );
        }
    }

    #[test]
    fn dead_frontier_means_no_motion() {
        let dims = ChipDims::new(12, 8);
        let mut f = Grid::new(dims, 1.0);
        // Kill the column east of the droplet.
        for y in 1..=8 {
            f[Cell::new(8, y)] = 0.0;
        }
        let field = RawField::new(f);
        let out = transitions(D, Action::Move(Dir::E), &field);
        let stay = out.iter().find(|o| o.droplet == D).unwrap();
        assert!((stay.probability - 1.0).abs() < 1e-12);
    }

    #[test]
    fn morph_success_uses_partial_frontier() {
        // a_↓NE frontier on D is (8,3)-(8,5): 3 cells.
        let dims = ChipDims::new(12, 8);
        let mut f = Grid::new(dims, 0.0);
        f[Cell::new(8, 3)] = 0.9;
        f[Cell::new(8, 4)] = 0.6;
        f[Cell::new(8, 5)] = 0.3;
        let field = RawField::new(f);
        let out = transitions(D, Action::Widen(Ordinal::NE), &field);
        let success = out
            .iter()
            .find(|o| o.droplet == Action::Widen(Ordinal::NE).apply(D))
            .unwrap();
        assert!((success.probability - 0.6).abs() < 1e-12);
    }
}
