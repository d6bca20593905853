use std::fmt;

use crate::{Cell, Interval};

/// An axis-aligned rectangle of microelectrodes `(x_a, y_a, x_b, y_b)`.
///
/// This is the shape of both droplets (actuation patterns, Section V-A) and
/// hazard bounds (Section VI-B). The invariant `x_b ≥ x_a ∧ y_b ≥ y_a` is
/// enforced by [`Rect::try_new`]; [`Rect::new`] panics on violation.
///
/// The special value `(0, 0, 0, 0)` is used by the paper for the off-chip
/// start location of dispensing operations; it is a valid `Rect` here (a
/// single cell at the off-chip origin) and can be detected with
/// [`Rect::is_off_chip_origin`].
///
/// # Examples
///
/// Example 1 of the paper:
///
/// ```
/// use meda_grid::Rect;
///
/// let droplet = Rect::new(3, 2, 7, 5);
/// assert_eq!(droplet.width(), 5);
/// assert_eq!(droplet.height(), 4);
/// assert_eq!(droplet.area(), 20);
/// assert_eq!(droplet.aspect_ratio(), 5.0 / 4.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Rect {
    /// West (minimum) column of the rectangle.
    pub xa: i32,
    /// South (minimum) row of the rectangle.
    pub ya: i32,
    /// East (maximum) column of the rectangle.
    pub xb: i32,
    /// North (maximum) row of the rectangle.
    pub yb: i32,
}

/// Error constructing a [`Rect`] whose corners are out of order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RectError {
    corners: (i32, i32, i32, i32),
}

impl fmt::Display for RectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (xa, ya, xb, yb) = self.corners;
        write!(
            f,
            "rectangle corners out of order: ({xa}, {ya}, {xb}, {yb}) requires xb >= xa and yb >= ya"
        )
    }
}

impl std::error::Error for RectError {}

impl Rect {
    /// Creates the rectangle with lower-left corner `(xa, ya)` and
    /// upper-right corner `(xb, yb)`.
    ///
    /// # Panics
    ///
    /// Panics if `xb < xa` or `yb < ya`. Use [`Rect::try_new`] for a fallible
    /// constructor.
    #[must_use]
    #[inline]
    pub fn new(xa: i32, ya: i32, xb: i32, yb: i32) -> Self {
        Self::try_new(xa, ya, xb, yb).expect("rectangle corners out of order")
    }

    /// Fallible constructor enforcing `xb ≥ xa ∧ yb ≥ ya`.
    ///
    /// # Errors
    ///
    /// Returns [`RectError`] if the corners are out of order.
    #[inline]
    pub fn try_new(xa: i32, ya: i32, xb: i32, yb: i32) -> Result<Self, RectError> {
        if xb < xa || yb < ya {
            Err(RectError {
                corners: (xa, ya, xb, yb),
            })
        } else {
            Ok(Self { xa, ya, xb, yb })
        }
    }

    /// A `w × h` rectangle whose lower-left corner is `(xa, ya)`.
    ///
    /// # Panics
    ///
    /// Panics if `w == 0` or `h == 0`.
    #[must_use]
    pub fn with_size(xa: i32, ya: i32, w: u32, h: u32) -> Self {
        assert!(w > 0 && h > 0, "rectangle must be at least 1x1");
        Self::new(xa, ya, xa + w as i32 - 1, ya + h as i32 - 1)
    }

    /// A `w × h` rectangle centered (to the half-cell) on `(cx, cy)`, the
    /// convention used for module center locations `loc` in Section VI-A,
    /// where a 4×4 droplet at `(16, 1, 19, 4)` has center `(17.5, 2.5)`.
    #[must_use]
    pub fn centered_at(cx: f64, cy: f64, w: u32, h: u32) -> Self {
        let xa = (cx - (w as f64 - 1.0) / 2.0).round() as i32;
        let ya = (cy - (h as f64 - 1.0) / 2.0).round() as i32;
        Self::with_size(xa, ya, w, h)
    }

    /// The paper's off-chip dispensing start location `(0, 0, 0, 0)`.
    #[must_use]
    pub const fn off_chip_origin() -> Self {
        Self {
            xa: 0,
            ya: 0,
            xb: 0,
            yb: 0,
        }
    }

    /// Whether this is the off-chip origin `(0, 0, 0, 0)`.
    #[must_use]
    pub fn is_off_chip_origin(&self) -> bool {
        *self == Self::off_chip_origin()
    }

    /// Droplet width `w = x_b − x_a + 1`.
    #[must_use]
    pub const fn width(&self) -> u32 {
        (self.xb - self.xa) as u32 + 1
    }

    /// Droplet height `h = y_b − y_a + 1`.
    #[must_use]
    pub const fn height(&self) -> u32 {
        (self.yb - self.ya) as u32 + 1
    }

    /// Droplet area `A = w · h`.
    #[must_use]
    pub const fn area(&self) -> u32 {
        self.width() * self.height()
    }

    /// Droplet aspect ratio `AR = w / h`.
    #[must_use]
    pub fn aspect_ratio(&self) -> f64 {
        f64::from(self.width()) / f64::from(self.height())
    }

    /// Geometric center `(cx, cy)`, on the half-cell grid.
    #[must_use]
    pub fn center(&self) -> (f64, f64) {
        (
            f64::from(self.xa + self.xb) / 2.0,
            f64::from(self.ya + self.yb) / 2.0,
        )
    }

    /// The column interval `[[x_a, x_b]]`.
    #[must_use]
    pub const fn x_interval(&self) -> Interval {
        Interval::new(self.xa, self.xb)
    }

    /// The row interval `[[y_a, y_b]]`.
    #[must_use]
    pub const fn y_interval(&self) -> Interval {
        Interval::new(self.ya, self.yb)
    }

    /// Whether the cell lies within the rectangle.
    #[must_use]
    pub const fn contains_cell(&self, cell: Cell) -> bool {
        self.x_interval().contains(cell.x) && self.y_interval().contains(cell.y)
    }

    /// Whether `other` lies entirely within `self`.
    #[must_use]
    pub const fn contains_rect(&self, other: Rect) -> bool {
        self.xa <= other.xa && self.ya <= other.ya && self.xb >= other.xb && self.yb >= other.yb
    }

    /// Whether the two rectangles share at least one cell.
    #[must_use]
    pub const fn intersects(&self, other: Rect) -> bool {
        self.xa <= other.xb && other.xa <= self.xb && self.ya <= other.yb && other.ya <= self.yb
    }

    /// The intersection of the two rectangles, or `None` if disjoint.
    #[must_use]
    pub fn intersection(&self, other: Rect) -> Option<Rect> {
        if self.intersects(other) {
            Some(Rect::new(
                self.xa.max(other.xa),
                self.ya.max(other.ya),
                self.xb.min(other.xb),
                self.yb.min(other.yb),
            ))
        } else {
            None
        }
    }

    /// The smallest rectangle containing both `self` and `other`.
    #[must_use]
    pub fn union(&self, other: Rect) -> Rect {
        Rect::new(
            self.xa.min(other.xa),
            self.ya.min(other.ya),
            self.xb.max(other.xb),
            self.yb.max(other.yb),
        )
    }

    /// The rectangle grown by `margin` cells on all four sides.
    #[must_use]
    pub fn expand(&self, margin: i32) -> Rect {
        Rect::new(
            self.xa - margin,
            self.ya - margin,
            self.xb + margin,
            self.yb + margin,
        )
    }

    /// The rectangle translated by `(dx, dy)`.
    #[must_use]
    #[inline]
    pub fn translate(&self, dx: i32, dy: i32) -> Rect {
        Rect::new(self.xa + dx, self.ya + dy, self.xb + dx, self.yb + dy)
    }

    /// Minimum Manhattan distance between any cell of `self` and any cell of
    /// `other` (0 when they intersect). Used by the shortest-path baseline
    /// router and by merge-hazard checks.
    #[must_use]
    pub fn manhattan_gap(&self, other: Rect) -> u32 {
        let dx = if other.xa > self.xb {
            (other.xa - self.xb) as u32
        } else if self.xa > other.xb {
            (self.xa - other.xb) as u32
        } else {
            0
        };
        let dy = if other.ya > self.yb {
            (other.ya - self.yb) as u32
        } else if self.ya > other.yb {
            (self.ya - other.yb) as u32
        } else {
            0
        };
        dx + dy
    }

    /// Iterates over all cells of the rectangle in row-major order
    /// (south to north, west to east within a row).
    pub fn cells(&self) -> impl Iterator<Item = Cell> + use<> {
        let (xa, xb, ya, yb) = (self.xa, self.xb, self.ya, self.yb);
        (ya..=yb).flat_map(move |y| (xa..=xb).map(move |x| Cell::new(x, y)))
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {}, {})", self.xa, self.ya, self.xb, self.yb)
    }
}

impl From<(i32, i32, i32, i32)> for Rect {
    fn from((xa, ya, xb, yb): (i32, i32, i32, i32)) -> Self {
        Self::new(xa, ya, xb, yb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_1_geometry() {
        // Example 1: δ = (3, 2, 7, 5) ⇒ w = 5, h = 4, A = 20, AR = 5/4.
        let d = Rect::new(3, 2, 7, 5);
        assert_eq!(d.width(), 5);
        assert_eq!(d.height(), 4);
        assert_eq!(d.area(), 20);
        assert!((d.aspect_ratio() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn try_new_rejects_inverted_corners() {
        assert!(Rect::try_new(5, 1, 3, 2).is_err());
        assert!(Rect::try_new(1, 5, 2, 3).is_err());
        assert!(Rect::try_new(1, 1, 1, 1).is_ok());
    }

    #[test]
    #[should_panic(expected = "corners out of order")]
    fn new_panics_on_inverted_corners() {
        let _ = Rect::new(2, 2, 1, 3);
    }

    #[test]
    fn centered_at_matches_paper_example_4() {
        // M1 dispenses a 4×4 droplet at center (17.5, 2.5) ⇒ (16, 1, 19, 4).
        let r = Rect::centered_at(17.5, 2.5, 4, 4);
        assert_eq!(r, Rect::new(16, 1, 19, 4));
        assert_eq!(r.center(), (17.5, 2.5));
    }

    #[test]
    fn centered_at_odd_sizes() {
        let r = Rect::centered_at(10.0, 15.0, 3, 3);
        assert_eq!(r, Rect::new(9, 14, 11, 16));
        assert_eq!(r.center(), (10.0, 15.0));
    }

    #[test]
    fn cells_iterates_area_many_cells() {
        let r = Rect::new(2, 3, 4, 5);
        let cells: Vec<_> = r.cells().collect();
        assert_eq!(cells.len() as u32, r.area());
        assert_eq!(cells[0], Cell::new(2, 3));
        assert_eq!(*cells.last().unwrap(), Cell::new(4, 5));
        assert!(cells.iter().all(|&c| r.contains_cell(c)));
    }

    #[test]
    fn containment_and_intersection() {
        let outer = Rect::new(0, 0, 10, 10);
        let inner = Rect::new(2, 2, 4, 4);
        let other = Rect::new(4, 4, 12, 12);
        assert!(outer.contains_rect(inner));
        assert!(!inner.contains_rect(outer));
        assert!(inner.intersects(other));
        assert_eq!(inner.intersection(other), Some(Rect::new(4, 4, 4, 4)));
        assert_eq!(
            Rect::new(0, 0, 1, 1).intersection(Rect::new(3, 3, 4, 4)),
            None
        );
    }

    #[test]
    fn union_covers_both() {
        let a = Rect::new(1, 1, 2, 2);
        let b = Rect::new(5, 4, 6, 8);
        let u = a.union(b);
        assert!(u.contains_rect(a));
        assert!(u.contains_rect(b));
        assert_eq!(u, Rect::new(1, 1, 6, 8));
    }

    #[test]
    fn manhattan_gap_zero_when_overlapping() {
        let a = Rect::new(1, 1, 4, 4);
        assert_eq!(a.manhattan_gap(Rect::new(3, 3, 6, 6)), 0);
        assert_eq!(a.manhattan_gap(Rect::new(6, 1, 8, 4)), 2);
        assert_eq!(a.manhattan_gap(Rect::new(6, 6, 8, 8)), 4);
    }

    #[test]
    fn off_chip_origin_detection() {
        assert!(Rect::off_chip_origin().is_off_chip_origin());
        assert!(!Rect::new(0, 0, 1, 0).is_off_chip_origin());
    }

    #[test]
    fn translate_and_expand() {
        let r = Rect::new(3, 2, 7, 5);
        assert_eq!(r.translate(1, -1), Rect::new(4, 1, 8, 4));
        assert_eq!(r.expand(3), Rect::new(0, -1, 10, 8));
    }
}
