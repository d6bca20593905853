use std::sync::atomic::{AtomicU64, Ordering};

use meda_degradation::HealthLevel;
use meda_grid::{Cell, Grid, Rect};

/// Source of per-microelectrode relative EWOD force `F̄_ij` (Eq. 1–2).
///
/// Two implementations mirror the paper's two model fidelities
/// (Section V-C):
///
/// * [`HealthField`] — the controller's view: force estimated from the
///   quantized health matrix **H** (used for synthesis);
/// * [`DegradationField`] — ground truth: force from the real-valued
///   degradation matrix **D** (the simulated chip samples outcomes from
///   the same law, read lazily per cell).
///
/// Cells off the chip exert no force (they have no electrode), but still
/// count toward the frontier size `|Fr|`, so a frontier hanging off the chip
/// weakens the mean pull — matching the physical situation of a droplet at
/// the array edge.
///
/// `cell_force` is the only per-field hook: every frontier mean is
/// [`mean_force`] over it, so the MDP builder's per-build force window and
/// the plain [`transitions`](crate::transitions) path cannot disagree.
pub trait ForceProvider {
    /// Relative EWOD force `F̄_ij ∈ [0, 1]` of the microelectrode at `cell`
    /// (0 for off-chip cells).
    fn cell_force(&self, cell: Cell) -> f64;
}

/// Mean relative force of `field` over a frontier set,
/// `F̄(δ; a, d) / |Fr(δ; a, d)|` — the success probability contribution of
/// one direction (Section V-B). The cell forces are summed in row-major
/// order ([`Rect::cells`]); the MDP builder's force window sums in the same
/// order, so both give the same bits.
///
/// # Examples
///
/// ```
/// use meda_core::{mean_force, UniformField};
/// use meda_grid::Rect;
///
/// let field = UniformField::new(0.5);
/// assert_eq!(mean_force(&field, Rect::new(1, 1, 4, 1)), 0.5);
/// ```
#[must_use]
pub fn mean_force(field: &(impl ForceProvider + ?Sized), frontier: Rect) -> f64 {
    let count = frontier.area() as f64;
    let total: f64 = frontier.cells().map(|c| field.cell_force(c)).sum();
    total / count
}

/// How the controller turns a quantized health reading `H` into a
/// degradation estimate: the true `D` lies in the bin
/// `[H/2^b, (H+1)/2^b)`, so any planning value is bracketed by the two bin
/// edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum HealthInterpretation {
    /// Lower bin edge `H/2^b` — never over-estimates the force, so
    /// synthesized expected times are upper bounds on reality. The paper's
    /// (and this library's) default.
    #[default]
    Conservative,
    /// Upper bin edge `(H+1)/2^b` (clamped to 1) — never under-estimates,
    /// giving lower bounds. Useful for bracketing the true value.
    Optimistic,
    /// Bin midpoint `(H + ½)/2^b` — the minimum-expected-error point
    /// estimate.
    Midpoint,
}

impl HealthInterpretation {
    /// The degradation estimate for a reading under this interpretation.
    #[must_use]
    pub fn degradation(self, level: HealthLevel, bits: u8) -> f64 {
        let bins = f64::from(1u16 << bits);
        let h = f64::from(level.level());
        match self {
            Self::Conservative => h / bins,
            Self::Optimistic => ((h + 1.0) / bins).min(1.0),
            Self::Midpoint => (h + 0.5) / bins,
        }
    }
}

/// Controller-side force field derived from the quantized health matrix
/// **H** with a `bits`-bit sensor: `F̄_ij = D̂_ij²`, where `D̂` follows the
/// configured [`HealthInterpretation`] (conservative lower bin edge by
/// default).
///
/// # Examples
///
/// ```
/// use meda_core::{ForceProvider, HealthField};
/// use meda_degradation::HealthLevel;
/// use meda_grid::{Cell, ChipDims, Grid};
///
/// let dims = ChipDims::new(8, 8);
/// let field = HealthField::new(Grid::new(dims, HealthLevel::full(2)), 2);
/// // Full health at b = 2 reads H = 3 ⇒ F̄ = (3/4)² = 0.5625.
/// assert!((field.cell_force(Cell::new(1, 1)) - 0.5625).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct HealthField {
    health: Grid<HealthLevel>,
    bits: u8,
    interpretation: HealthInterpretation,
    /// See [`HealthField::stamp`].
    stamp: u64,
}

/// Source of [`HealthField::stamp`]s. A relaxed counter suffices: the
/// stamp only has to be unique, it publishes no other data.
static NEXT_STAMP: AtomicU64 = AtomicU64::new(0);

fn fresh_stamp() -> u64 {
    NEXT_STAMP.fetch_add(1, Ordering::Relaxed)
}

impl HealthField {
    /// Creates a force field from a health matrix with the conservative
    /// interpretation.
    #[must_use]
    pub fn new(health: Grid<HealthLevel>, bits: u8) -> Self {
        Self::with_interpretation(health, bits, HealthInterpretation::Conservative)
    }

    /// Creates a force field with an explicit reading interpretation.
    #[must_use]
    pub fn with_interpretation(
        health: Grid<HealthLevel>,
        bits: u8,
        interpretation: HealthInterpretation,
    ) -> Self {
        Self {
            health,
            bits,
            interpretation,
            stamp: fresh_stamp(),
        }
    }

    /// The same field under a different interpretation (cheap: grids are
    /// cloned, levels unchanged).
    #[must_use]
    pub fn reinterpret(&self, interpretation: HealthInterpretation) -> Self {
        Self {
            health: self.health.clone(),
            bits: self.bits,
            interpretation,
            stamp: self.stamp,
        }
    }

    /// The reading interpretation in use.
    #[must_use]
    pub fn interpretation(&self) -> HealthInterpretation {
        self.interpretation
    }

    /// The underlying health matrix.
    #[must_use]
    pub fn health(&self) -> &Grid<HealthLevel> {
        &self.health
    }

    /// The sensor resolution in bits.
    #[must_use]
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Overwrites one cell's reading in place — how an observer keeps **H**
    /// current as single microelectrodes wear, without rebuilding the grid.
    /// A reading that actually changes draws a fresh [`HealthField::stamp`].
    ///
    /// # Panics
    ///
    /// Panics if `cell` is off-chip.
    pub fn set_level(&mut self, cell: Cell, level: HealthLevel) {
        let slot = &mut self.health[cell];
        if *slot != level {
            *slot = level;
            self.stamp = fresh_stamp();
        }
    }

    /// An identity of the readings: two fields with equal stamps hold
    /// identical health levels. Every constructed field and every changed
    /// reading draws a process-unique stamp (clones and
    /// [`HealthField::reinterpret`] share their source's until either
    /// changes), so an observer can skip re-reading a field whose stamp it
    /// has already seen.
    #[must_use]
    pub fn stamp(&self) -> u64 {
        self.stamp
    }

    /// A digest of the health values inside `region`, used as a
    /// strategy-library key by the hybrid scheduler (Section VI-D).
    #[must_use]
    pub fn digest(&self, region: Rect) -> u64 {
        // FNV-1a over the in-region levels; cheap and deterministic.
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for cell in region.cells() {
            let lvl = self.health.get(cell).map_or(0xff, |h| h.level());
            hash ^= u64::from(lvl);
            hash = hash.wrapping_mul(0x1000_0000_01b3);
        }
        hash
    }
}

impl ForceProvider for HealthField {
    fn cell_force(&self, cell: Cell) -> f64 {
        self.health.get(cell).map_or(0.0, |h| {
            let d = self.interpretation.degradation(*h, self.bits);
            d * d
        })
    }
}

/// Ground-truth force field derived from the real-valued degradation matrix
/// **D**: `F̄_ij = D_ij²` (Eq. 1).
#[derive(Debug, Clone)]
pub struct DegradationField {
    degradation: Grid<f64>,
}

impl DegradationField {
    /// Creates a force field from a degradation matrix (values in `[0, 1]`).
    #[must_use]
    pub fn new(degradation: Grid<f64>) -> Self {
        Self { degradation }
    }

    /// The underlying degradation matrix.
    #[must_use]
    pub fn degradation(&self) -> &Grid<f64> {
        &self.degradation
    }
}

impl ForceProvider for DegradationField {
    fn cell_force(&self, cell: Cell) -> f64 {
        self.degradation.get(cell).map_or(0.0, |d| d * d)
    }
}

/// A uniform force field: every cell (on an infinite chip) exerts the same
/// relative force. Useful for tests and for the offline strategy library's
/// no-degradation baseline (Section VI-D).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UniformField {
    force: f64,
}

impl UniformField {
    /// Creates a uniform field with per-cell force `force ∈ [0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `force ∉ [0, 1]`.
    #[must_use]
    pub fn new(force: f64) -> Self {
        assert!((0.0..=1.0).contains(&force), "force must be in [0, 1]");
        Self { force }
    }

    /// The pristine-chip field (force 1 everywhere).
    #[must_use]
    pub fn pristine() -> Self {
        Self::new(1.0)
    }
}

impl ForceProvider for UniformField {
    fn cell_force(&self, _cell: Cell) -> f64 {
        self.force
    }
}

/// A force field backed by an explicit per-cell grid of `F̄_ij` values,
/// used to reproduce the paper's worked Example 3 where per-cell force
/// contributions are given directly.
#[derive(Debug, Clone)]
pub struct RawField {
    forces: Grid<f64>,
}

impl RawField {
    /// Creates a raw field from per-cell force values.
    #[must_use]
    pub fn new(forces: Grid<f64>) -> Self {
        Self { forces }
    }
}

impl ForceProvider for RawField {
    fn cell_force(&self, cell: Cell) -> f64 {
        self.forces.get(cell).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meda_degradation::quantize_health;
    use meda_grid::ChipDims;

    #[test]
    fn mean_force_averages_over_frontier() {
        let dims = ChipDims::new(10, 10);
        let mut forces = Grid::new(dims, 0.0);
        forces[Cell::new(2, 2)] = 1.0;
        forces[Cell::new(3, 2)] = 0.5;
        let field = RawField::new(forces);
        let fr = Rect::new(2, 2, 3, 2);
        assert!((mean_force(&field, fr) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn off_chip_cells_contribute_zero_but_count() {
        let dims = ChipDims::new(4, 4);
        let field = DegradationField::new(Grid::new(dims, 1.0));
        // Frontier half on-chip, half off: mean force halves.
        let fr = Rect::new(3, 4, 3, 5);
        assert!((mean_force(&field, fr) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn degradation_force_is_squared() {
        let dims = ChipDims::new(4, 4);
        let field = DegradationField::new(Grid::new(dims, 0.8));
        assert!((field.cell_force(Cell::new(2, 2)) - 0.64).abs() < 1e-12);
    }

    #[test]
    fn health_force_uses_quantized_levels() {
        let dims = ChipDims::new(4, 4);
        let health = Grid::from_fn(dims, |c| {
            quantize_health(if c.x == 1 { 1.0 } else { 0.3 }, 2)
        });
        let field = HealthField::new(health, 2);
        assert!((field.cell_force(Cell::new(1, 1)) - 0.5625).abs() < 1e-12); // (3/4)²
        assert!((field.cell_force(Cell::new(2, 1)) - 0.0625).abs() < 1e-12); // (1/4)²
    }

    #[test]
    fn uniform_pristine_field_is_one_everywhere() {
        let f = UniformField::pristine();
        assert_eq!(f.cell_force(Cell::new(-100, 100)), 1.0);
        assert_eq!(mean_force(&f, Rect::new(0, 0, 9, 9)), 1.0);
    }

    #[test]
    fn interpretations_bracket_the_bin() {
        use crate::HealthInterpretation as HI;
        for bits in 1..=3u8 {
            for lvl in 0..(1u8 << bits) {
                let h = HealthLevel::new(lvl, bits);
                let lo = HI::Conservative.degradation(h, bits);
                let mid = HI::Midpoint.degradation(h, bits);
                let hi = HI::Optimistic.degradation(h, bits);
                assert!(lo < mid && mid < hi, "b={bits} H={lvl}");
                assert!(hi <= 1.0);
                // The true D that produced this reading lies in [lo, hi).
                assert!((hi - lo - 1.0 / f64::from(1u16 << bits)).abs() < 1e-12 || hi == 1.0);
            }
        }
    }

    #[test]
    fn reinterpret_changes_force_not_readings() {
        use crate::HealthInterpretation as HI;
        let dims = ChipDims::new(4, 4);
        let health = Grid::from_fn(dims, |_| quantize_health(0.6, 2)); // H = 2
        let field = HealthField::new(health, 2);
        let optimistic = field.reinterpret(HI::Optimistic);
        assert_eq!(field.health(), optimistic.health());
        let c = Cell::new(2, 2);
        assert!((field.cell_force(c) - 0.25).abs() < 1e-12); // (2/4)²
        assert!((optimistic.cell_force(c) - 0.5625).abs() < 1e-12); // (3/4)²
        assert_eq!(
            field.digest(Rect::new(1, 1, 4, 4)),
            optimistic.digest(Rect::new(1, 1, 4, 4))
        );
    }

    #[test]
    fn digest_changes_with_health() {
        let dims = ChipDims::new(6, 6);
        let region = Rect::new(1, 1, 6, 6);
        let full = HealthField::new(Grid::new(dims, HealthLevel::full(2)), 2);
        let mut degraded_grid = Grid::new(dims, HealthLevel::full(2));
        degraded_grid[Cell::new(3, 3)] = HealthLevel::full(2).degraded_once();
        let degraded = HealthField::new(degraded_grid, 2);
        assert_ne!(full.digest(region), degraded.digest(region));
        assert_eq!(full.digest(region), full.digest(region));
    }

    #[test]
    fn set_level_updates_one_cell_and_the_stamp() {
        let dims = ChipDims::new(4, 4);
        let region = Rect::new(1, 1, 4, 4);
        let mut field = HealthField::new(Grid::new(dims, HealthLevel::full(2)), 2);
        let other = HealthField::new(Grid::new(dims, HealthLevel::full(2)), 2);
        assert_ne!(field.stamp(), other.stamp(), "every field starts unique");
        let clone = field.clone();
        assert_eq!(clone.stamp(), field.stamp());
        let (stamp, digest) = (field.stamp(), field.digest(region));
        field.set_level(Cell::new(2, 3), HealthLevel::full(2));
        assert_eq!(field.stamp(), stamp, "an unchanged reading keeps the stamp");
        field.set_level(Cell::new(2, 3), HealthLevel::new(1, 2));
        assert!((field.cell_force(Cell::new(2, 3)) - 0.0625).abs() < 1e-12); // (1/4)²
        assert!((field.cell_force(Cell::new(3, 2)) - 0.5625).abs() < 1e-12);
        assert_ne!(field.digest(region), digest);
        assert_ne!(field.stamp(), stamp);
        assert_eq!(clone.stamp(), stamp, "the clone kept its readings");
    }

    #[test]
    fn digest_is_region_scoped() {
        let dims = ChipDims::new(8, 8);
        let mut grid = Grid::new(dims, HealthLevel::full(2));
        grid[Cell::new(8, 8)] = HealthLevel::new(0, 2);
        let field = HealthField::new(grid, 2);
        let pristine = HealthField::new(Grid::new(dims, HealthLevel::full(2)), 2);
        // A change outside the region leaves the digest unchanged.
        let region = Rect::new(1, 1, 4, 4);
        assert_eq!(field.digest(region), pristine.digest(region));
    }
}
