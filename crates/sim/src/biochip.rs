use meda_rng::Rng;

use meda_core::{ForceProvider, HealthField};
use meda_degradation::{quantize_health, DegradationParams, HealthLevel, ParamDistribution};
use meda_grid::{Cell, ChipDims, Grid};

use crate::FaultMode;

/// Configuration of a simulated biochip's degradation behaviour
/// (Section VII-A/B).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradationConfig {
    /// Health-sensor resolution in bits (the fabricated design uses 2).
    pub bits: u8,
    /// `(τ, c)` distribution of normal MCs.
    pub normal: ParamDistribution,
    /// `(τ, c)` distribution of faulty MCs (they also fail suddenly).
    pub faulty: ParamDistribution,
    /// Fault-injection placement mode.
    pub fault_mode: FaultMode,
    /// Fraction of MCs that are faulty.
    pub fault_fraction: f64,
    /// Range of the sudden-failure actuation count `n_f ~ U(lo, hi)`:
    /// a faulty MC's degradation drops to 0 at its `n_f`-th actuation.
    pub fault_threshold: (u64, u64),
}

impl DegradationConfig {
    /// The Section VII-B setup: `c ~ U(200, 500)`, `τ ~ U(0.5, 0.9)`,
    /// no injected faults.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            bits: 2,
            normal: ParamDistribution::paper_normal(),
            faulty: ParamDistribution::paper_faulty(),
            fault_mode: FaultMode::None,
            fault_fraction: 0.0,
            fault_threshold: (20, 200),
        }
    }

    /// The Section VII-C fault-injection setup with the given mode and a
    /// `fraction` of faulty MCs.
    #[must_use]
    pub fn paper_with_faults(mode: FaultMode, fraction: f64) -> Self {
        Self {
            fault_mode: mode,
            fault_fraction: fraction,
            ..Self::paper()
        }
    }

    /// An idealized chip that never degrades — useful for tests and the
    /// Fig. 3 correlation study (which records actuation patterns only).
    #[must_use]
    pub fn pristine() -> Self {
        Self {
            bits: 2,
            normal: ParamDistribution::new((1.0, 1.0), (1.0, 1.0)),
            faulty: ParamDistribution::new((1.0, 1.0), (1.0, 1.0)),
            fault_mode: FaultMode::None,
            fault_fraction: 0.0,
            fault_threshold: (u64::MAX - 1, u64::MAX),
        }
    }
}

impl Default for DegradationConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// The simulated MEDA biochip: per-MC degradation constants, actuation
/// counts **N**, and sudden-fault thresholds.
///
/// The chip exposes the two model fidelities of Section V-C. Ground truth
/// **D** is read lazily, one cell at a time: [`Biochip::degradation_at`],
/// and the chip itself is a [`ForceProvider`] (`F̄ = D²`) the simulator
/// samples outcomes from. The quantized **H** — what the controller can
/// observe — is [`Biochip::health_field`], kept current in place as cells
/// are actuated or killed.
#[derive(Debug, Clone)]
pub struct Biochip {
    dims: ChipDims,
    bits: u8,
    params: Grid<DegradationParams>,
    actuations: Grid<u64>,
    fault_at: Grid<Option<u64>>,
    /// `quantize_health(degradation_at(c), bits)` for every cell.
    health: HealthField,
}

impl Biochip {
    /// Generates a chip: every MC samples `(τ, c)` from the configured
    /// distributions, and fault placement follows the configured mode.
    pub fn generate(dims: ChipDims, config: &DegradationConfig, rng: &mut impl Rng) -> Self {
        let bits = config.bits;
        let mut params = Grid::from_fn(dims, |_| config.normal.sample(rng));
        let mut fault_at: Grid<Option<u64>> = Grid::new(dims, None);
        // A fresh MC reads full health (`τ^0 = 1`) unless it is faulty with
        // a sudden-failure threshold of 0, so only faulty cells, written as
        // their thresholds are drawn, can differ from the fill value.
        let mut health = HealthField::new(Grid::new(dims, HealthLevel::full(bits)), bits);
        for cell in config.fault_mode.place(dims, config.fault_fraction, rng) {
            params[cell] = config.faulty.sample(rng);
            let (lo, hi) = config.fault_threshold;
            let nf = rng.gen_range(lo..=hi);
            fault_at[cell] = Some(nf);
            let d = if nf == 0 { 0.0 } else { 1.0 };
            health.set_level(cell, quantize_health(d, bits));
        }
        Self {
            dims,
            bits,
            params,
            actuations: Grid::new(dims, 0),
            fault_at,
            health,
        }
    }

    /// The chip dimensions.
    #[must_use]
    pub fn dims(&self) -> ChipDims {
        self.dims
    }

    /// The health-sensor resolution in bits.
    #[must_use]
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Number of actuations MC `cell` has undergone (the **N** matrix).
    ///
    /// # Panics
    ///
    /// Panics if `cell` is off-chip.
    #[must_use]
    pub fn actuation_count(&self, cell: Cell) -> u64 {
        self.actuations[cell]
    }

    /// Applies an actuation pattern **U**: every actuated MC's count
    /// increments (degrading it per its `(τ, c)` law) and its health
    /// reading is re-quantized. Returns the number of MCs actuated.
    pub fn apply_actuation(&mut self, pattern: &Grid<bool>) -> usize {
        assert_eq!(pattern.dims(), self.dims, "pattern dims mismatch");
        let mut count = 0;
        for (i, _) in pattern.as_slice().iter().enumerate().filter(|(_, &on)| on) {
            let cell = self.dims.cell_at(i);
            self.actuations[cell] += 1;
            self.refresh_health(cell);
            count += 1;
        }
        count
    }

    /// Re-reads one MC's health sensor after its degradation changed.
    fn refresh_health(&mut self, cell: Cell) {
        let level = quantize_health(self.degradation_at(cell), self.bits);
        self.health.set_level(cell, level);
    }

    /// Ground-truth degradation of one MC: `τ^(n/c)`, or 0 after a faulty
    /// MC's sudden-failure threshold.
    #[must_use]
    pub fn degradation_at(&self, cell: Cell) -> f64 {
        let n = self.actuations[cell];
        if let Some(nf) = self.fault_at[cell] {
            if n >= nf {
                return 0.0;
            }
        }
        self.params[cell].degradation(n)
    }

    /// The observable health matrix **H** (quantized **D**) as a force
    /// field — everything a router is allowed to see.
    #[must_use]
    pub fn health_field(&self) -> &HealthField {
        &self.health
    }

    /// Total actuations across the chip — a wear indicator used by the
    /// experiment harness.
    #[must_use]
    pub fn total_actuations(&self) -> u64 {
        self.actuations.iter().map(|(_, n)| *n).sum()
    }

    /// Kills one MC outright: its degradation drops to 0 from now on, as if
    /// a sudden-failure threshold already passed. Used by the chaos harness
    /// for scheduled mid-run electrode death. Off-chip cells are ignored.
    pub fn kill_cell(&mut self, cell: Cell) {
        if let Some(slot) = self.fault_at.get_mut(cell) {
            *slot = Some(0);
            self.refresh_health(cell);
        }
    }
}

/// The ground-truth force field `F̄ = D²` (Eq. 1), read lazily per cell —
/// the distribution the simulator samples droplet outcomes from. Off-chip
/// cells exert no force, exactly as in [`meda_core::DegradationField`].
impl ForceProvider for Biochip {
    fn cell_force(&self, cell: Cell) -> f64 {
        if self.dims.contains(cell) {
            let d = self.degradation_at(cell);
            d * d
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meda_grid::Rect;
    use meda_rng::SeedableRng;
    use meda_rng::StdRng;

    fn chip(config: &DegradationConfig, seed: u64) -> Biochip {
        let mut rng = StdRng::seed_from_u64(seed);
        Biochip::generate(ChipDims::new(20, 10), config, &mut rng)
    }

    #[test]
    fn fresh_chip_is_fully_healthy() {
        let chip = chip(&DegradationConfig::paper(), 1);
        for cell in chip.dims().cells() {
            assert_eq!(chip.degradation_at(cell), 1.0);
        }
        let h = chip.health_field();
        assert_eq!(h.cell_force(Cell::new(1, 1)), 0.5625); // (3/4)²
    }

    #[test]
    fn actuation_wears_only_actuated_cells() {
        let mut c = chip(&DegradationConfig::paper(), 2);
        let mut u = Grid::new(c.dims(), false);
        u.fill_rect(Rect::new(2, 2, 4, 4), true);
        for _ in 0..100 {
            c.apply_actuation(&u);
        }
        assert_eq!(c.actuation_count(Cell::new(3, 3)), 100);
        assert_eq!(c.actuation_count(Cell::new(10, 5)), 0);
        assert!(c.degradation_at(Cell::new(3, 3)) < 1.0);
        assert_eq!(c.degradation_at(Cell::new(10, 5)), 1.0);
    }

    #[test]
    fn faulty_cells_die_suddenly() {
        let config = DegradationConfig {
            fault_mode: FaultMode::Uniform,
            fault_fraction: 0.2,
            fault_threshold: (5, 10),
            ..DegradationConfig::paper()
        };
        let mut c = chip(&config, 3);
        let all_on = Grid::new(c.dims(), true);
        for _ in 0..10 {
            c.apply_actuation(&all_on);
        }
        let dead = c
            .dims()
            .cells()
            .filter(|&cell| c.degradation_at(cell) == 0.0)
            .count();
        assert_eq!(dead, (200.0 * 0.2) as usize);
    }

    #[test]
    fn pristine_chip_never_degrades() {
        let mut c = chip(&DegradationConfig::pristine(), 4);
        let all_on = Grid::new(c.dims(), true);
        for _ in 0..1000 {
            c.apply_actuation(&all_on);
        }
        assert!(c.dims().cells().all(|cell| c.degradation_at(cell) == 1.0));
        assert_eq!(c.total_actuations(), 1000 * 200);
    }

    #[test]
    fn health_quantizes_degradation() {
        let mut c = chip(&DegradationConfig::paper(), 5);
        let all_on = Grid::new(c.dims(), true);
        for _ in 0..2000 {
            c.apply_actuation(&all_on);
        }
        for cell in c.dims().cells() {
            let d = c.degradation_at(cell);
            let h = c.health_field().health()[cell];
            assert_eq!(h, meda_degradation::quantize_health(d, 2), "at {cell}");
        }
    }

    #[test]
    fn kill_cell_zeroes_degradation_immediately() {
        let mut c = chip(&DegradationConfig::pristine(), 6);
        let victim = Cell::new(4, 4);
        assert_eq!(c.degradation_at(victim), 1.0);
        c.kill_cell(victim);
        assert_eq!(c.degradation_at(victim), 0.0);
        assert_eq!(c.degradation_at(Cell::new(5, 5)), 1.0);
        // Off-chip kill is a no-op, not a panic.
        c.kill_cell(Cell::new(999, 999));
    }

    #[test]
    fn generation_is_seed_deterministic() {
        let a = chip(
            &DegradationConfig::paper_with_faults(FaultMode::Clustered, 0.1),
            7,
        );
        let b = chip(
            &DegradationConfig::paper_with_faults(FaultMode::Clustered, 0.1),
            7,
        );
        for cell in a.dims().cells() {
            assert_eq!(a.degradation_at(cell), b.degradation_at(cell));
        }
    }
}
