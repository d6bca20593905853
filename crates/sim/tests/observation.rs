//! Incremental chip observation: the health matrix **H** a chip keeps
//! current in place, and the ground truth **D** it serves lazily per cell,
//! must match whole-chip references rebuilt from scratch — under any
//! sequence of wear, kills and sudden faults, and for every droplet the
//! simulator samples, including droplets at the chip edge.

use meda_core::{transitions, Action, DegradationField, ForceProvider};
use meda_degradation::{quantize_health, ParamDistribution};
use meda_grid::{Cell, ChipDims, Grid, Rect};
use meda_rng::{Rng, SeedableRng, StdRng};
use meda_sim::{sample_outcome, Biochip, DegradationConfig, FaultMode};

/// A chip configuration that wears within tens of actuations and places
/// faulty cells with small sudden-failure thresholds — 0 (dead from the
/// start) included — so levels and deaths change mid-sequence.
fn fast_wearing_config(meta: &mut StdRng) -> DegradationConfig {
    let lo = meta.gen_range(0..3u64);
    let hi = lo + meta.gen_range(0..30u64);
    DegradationConfig {
        bits: meta.gen_range(1..=3u32) as u8,
        normal: ParamDistribution::new((0.3, 0.95), (5.0, 60.0)),
        faulty: ParamDistribution::new((0.2, 0.9), (2.0, 30.0)),
        fault_mode: if meta.gen_bool(0.5) {
            FaultMode::Uniform
        } else {
            FaultMode::Clustered
        },
        fault_fraction: meta.gen_range(0.0..0.4),
        fault_threshold: (lo, hi),
    }
}

/// A random cell within one ring of the chip (so some are off-chip).
fn random_cell(dims: ChipDims, meta: &mut StdRng) -> Cell {
    Cell::new(
        meta.gen_range(0..=dims.width as i32 + 1),
        meta.gen_range(0..=dims.height as i32 + 1),
    )
}

/// An actuation pattern of one to three random on-chip rectangles.
fn random_pattern(dims: ChipDims, meta: &mut StdRng) -> Grid<bool> {
    let mut pattern = Grid::new(dims, false);
    for _ in 0..meta.gen_range(1..=3) {
        let xa = meta.gen_range(1..=dims.width as i32);
        let ya = meta.gen_range(1..=dims.height as i32);
        let xb = (xa + meta.gen_range(0..4i32)).min(dims.width as i32);
        let yb = (ya + meta.gen_range(0..4i32)).min(dims.height as i32);
        pattern.fill_rect(Rect::new(xa, ya, xb, yb), true);
    }
    pattern
}

/// One random step: an actuation (most of the time) or a kill.
fn random_step(chip: &mut Biochip, meta: &mut StdRng) {
    if meta.gen_bool(0.85) {
        let pattern = random_pattern(chip.dims(), meta);
        chip.apply_actuation(&pattern);
    } else {
        let cell = random_cell(chip.dims(), meta);
        chip.kill_cell(cell);
    }
}

/// `chip.health_field()` equals `⌊2^b·D⌋` rebuilt for every cell.
fn assert_health_current(chip: &Biochip, context: &str) {
    let bits = chip.bits();
    let expected = Grid::from_fn(chip.dims(), |c| {
        quantize_health(chip.degradation_at(c), bits)
    });
    let health = chip.health_field();
    assert_eq!(health.bits(), bits, "{context}");
    for cell in chip.dims().cells() {
        assert_eq!(
            health.health()[cell],
            expected[cell],
            "{context}: at {cell}"
        );
    }
}

/// **H** kept current per actuated or killed cell equals a from-scratch
/// quantization of **D** after every step, and a cloned chip evolves
/// independently of its source.
#[test]
fn incremental_health_matches_from_scratch_quantization() {
    let mut meta = StdRng::seed_from_u64(0x0B5E);
    let mut dead_at_birth = 0;
    let mut died_mid_sequence = 0;
    for case in 0..40 {
        let config = fast_wearing_config(&mut meta);
        let dims = ChipDims::new(meta.gen_range(4..16), meta.gen_range(4..12));
        let mut rng = StdRng::seed_from_u64(meta.gen());
        let mut chip = Biochip::generate(dims, &config, &mut rng);
        assert_health_current(&chip, &format!("case {case}, fresh"));
        dead_at_birth += dims
            .cells()
            .filter(|&c| chip.degradation_at(c) == 0.0)
            .count();

        for step in 0..60 {
            let dead_before = dims
                .cells()
                .filter(|&c| chip.degradation_at(c) == 0.0)
                .count();
            random_step(&mut chip, &mut meta);
            assert_health_current(&chip, &format!("case {case}, step {step}"));
            let dead_after = dims
                .cells()
                .filter(|&c| chip.degradation_at(c) == 0.0)
                .count();
            died_mid_sequence += dead_after - dead_before;
        }

        // Fork: the clone and its source take different steps from here on.
        let mut twin = chip.clone();
        let source_health = chip.health_field().health().clone();
        let victim = dims
            .cells()
            .find(|&c| chip.degradation_at(c) > 0.0)
            .unwrap_or(Cell::new(1, 1));
        twin.kill_cell(victim);
        assert_eq!(
            chip.health_field().health(),
            &source_health,
            "case {case}: killing a cell on the clone changed the source"
        );
        for step in 0..30 {
            random_step(&mut chip, &mut meta);
            random_step(&mut twin, &mut meta);
            assert_health_current(&chip, &format!("case {case}, source step {step}"));
            assert_health_current(&twin, &format!("case {case}, clone step {step}"));
        }
    }
    assert!(dead_at_birth > 0, "no case had a threshold-0 faulty cell");
    assert!(
        died_mid_sequence > 0,
        "no cell crossed its threshold mid-sequence"
    );
}

/// A random on-chip droplet of up to 3 × 3 cells, touching a chip edge
/// about half of the time.
fn random_droplet(dims: ChipDims, meta: &mut StdRng) -> Rect {
    let w = meta.gen_range(1..=3i32);
    let h = meta.gen_range(1..=3i32);
    let (max_x, max_y) = (dims.width as i32 - w + 1, dims.height as i32 - h + 1);
    let xa = match meta.gen_range(0..4) {
        0 => 1,
        1 => max_x,
        _ => meta.gen_range(1..=max_x),
    };
    let ya = match meta.gen_range(0..4) {
        0 => 1,
        1 => max_y,
        _ => meta.gen_range(1..=max_y),
    };
    Rect::new(xa, ya, xa + w - 1, ya + h - 1)
}

/// Sampling from the chip itself — **D** read lazily per frontier cell —
/// yields exactly the outcome distribution, the outcome, and the RNG
/// draws of sampling from a whole-chip `DegradationField` snapshot.
#[test]
fn lazy_sampling_matches_whole_grid_reference() {
    let mut meta = StdRng::seed_from_u64(0x5A4D);
    let mut off_chip_frontiers = 0;
    for case in 0..30 {
        let config = fast_wearing_config(&mut meta);
        let dims = ChipDims::new(meta.gen_range(6..16), meta.gen_range(6..12));
        let mut rng = StdRng::seed_from_u64(meta.gen());
        let mut chip = Biochip::generate(dims, &config, &mut rng);
        for _ in 0..meta.gen_range(0..40) {
            random_step(&mut chip, &mut meta);
        }
        let reference = DegradationField::new(Grid::from_fn(dims, |c| chip.degradation_at(c)));

        for x in -1..=dims.width as i32 + 2 {
            for y in -1..=dims.height as i32 + 2 {
                let cell = Cell::new(x, y);
                assert_eq!(
                    chip.cell_force(cell).to_bits(),
                    reference.cell_force(cell).to_bits(),
                    "case {case}: force at {cell}"
                );
            }
        }

        for _ in 0..60 {
            let droplet = random_droplet(dims, &mut meta);
            let applicable: Vec<Action> = Action::ALL
                .into_iter()
                .filter(|a| a.is_applicable(droplet))
                .collect();
            let action = applicable[meta.gen_range(0..applicable.len())];
            if !dims.contains_rect(action.apply(droplet)) {
                off_chip_frontiers += 1;
            }
            assert_eq!(
                transitions(droplet, action, &chip),
                transitions(droplet, action, &reference),
                "case {case}: {droplet} {action:?}"
            );
            let mut lazy_rng = StdRng::seed_from_u64(meta.gen());
            let mut reference_rng = lazy_rng.clone();
            assert_eq!(
                sample_outcome(droplet, action, &chip, &mut lazy_rng),
                sample_outcome(droplet, action, &reference, &mut reference_rng),
                "case {case}: {droplet} {action:?}"
            );
            assert_eq!(lazy_rng, reference_rng, "case {case}: RNG draws diverged");
        }
    }
    assert!(off_chip_frontiers > 0, "no action reached off the chip");
}
