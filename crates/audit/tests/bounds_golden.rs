//! Bit-identity goldens for the sound bounds pass, one hash per output
//! over a fixed model set: the `Prob1` membership, the `Pmax`
//! interval-iteration certificate, and the `Rmin` certificate of the
//! solver's strategy. Each certificate hash covers the `lo`/`hi` bit
//! patterns, the sweep count, the convergence flag and the width; any
//! change to the arithmetic or the sweep order moves it.

use meda_audit::{
    evaluate_strategy, pmax_bounds, prob1, strategy_bounds, verify_bounds, BoundsCertificate,
    ModelArtifact, ValueKind, BOUNDS_MAX_ITERATIONS, CERTIFICATE_EPSILON,
};
use meda_core::{ActionConfig, HazardHandling, HealthField, RoutingMdp};
use meda_degradation::HealthLevel;
use meda_grid::{ChipDims, Grid, Rect};
use meda_rng::{Rng, SeedableRng, StdRng};
use meda_synth::{min_expected_cycles, SolverOptions};

/// Health bits of every planning field.
const BITS: u8 = 3;

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// A routing job from `(1, 1)` to the far corner of an `aw × ah` area,
/// on a field of random health levels `7 - [0, 3)` in which each cell is
/// dead (level 0) with probability `dead`; two cells of margin around the
/// area.
fn job(
    seed: u64,
    (aw, ah): (u32, u32),
    (dw, dh): (u32, u32),
    config: &ActionConfig,
    hazard: HazardHandling,
    dead: f64,
) -> RoutingMdp {
    let mut rng = StdRng::seed_from_u64(seed);
    let dims = ChipDims::new(aw + 2, ah + 2);
    let mut grid = Grid::from_fn(dims, |_| {
        HealthLevel::new(7 - rng.gen_range(0..3u32) as u8, BITS)
    });
    for y in 0..dims.height as i32 {
        for x in 0..dims.width as i32 {
            if rng.gen_bool(dead) {
                grid.fill_rect(Rect::new(x, y, x, y), HealthLevel::new(0, BITS));
            }
        }
    }
    RoutingMdp::build_with(
        Rect::with_size(1, 1, dw, dh),
        Rect::with_size((aw - dw + 1) as i32, (ah - dh + 1) as i32, dw, dh),
        Rect::new(1, 1, aw as i32, ah as i32),
        &HealthField::new(grid, BITS),
        config,
        hazard,
    )
    .expect("golden model builds")
}

/// The fixed model set: Table V cells at reduced size (the two smallest
/// as they are, the 90×45 and 90×90 cells at a third of their area and
/// droplet edges), then degraded fields — dead
/// cells at 20–35 % density, some with bound-exiting actions routed to an
/// absorbing sink — that leave states outside `Prob1` and `Prob1` states
/// with choices leaving it. The flag marks the degraded ones.
fn models() -> Vec<(&'static str, bool, RoutingMdp)> {
    let moves = ActionConfig::moves_only();
    let full = ActionConfig::default();
    let guard = HazardHandling::GuardDisable;
    let sink = HazardHandling::AbsorbingSink;
    vec![
        (
            "t5-10x10-3x3",
            false,
            job(1, (10, 10), (3, 3), &moves, guard, 0.0),
        ),
        (
            "t5-20x20-4x4",
            false,
            job(2, (20, 20), (4, 4), &moves, guard, 0.0),
        ),
        (
            "t5-30x15-3x3",
            false,
            job(3, (30, 15), (3, 3), &moves, guard, 0.0),
        ),
        (
            "t5-30x30-1x1",
            false,
            job(4, (30, 30), (1, 1), &moves, guard, 0.0),
        ),
        (
            "t5-30x30-2x2",
            false,
            job(5, (30, 30), (2, 2), &moves, guard, 0.0),
        ),
        (
            "t5-30x30-4x4",
            false,
            job(6, (30, 30), (4, 4), &moves, guard, 0.0),
        ),
        (
            "dead-12x12-1x1",
            true,
            job(25, (12, 12), (1, 1), &moves, guard, 0.35),
        ),
        (
            "sink-12x12-1x1",
            true,
            job(25, (12, 12), (1, 1), &moves, sink, 0.3),
        ),
        (
            "sink-12x12-1x1-b",
            true,
            job(13, (12, 12), (1, 1), &moves, sink, 0.3),
        ),
        (
            "sink-12x12-1x2-morph",
            true,
            job(25, (12, 12), (1, 2), &full, sink, 0.3),
        ),
        (
            "sink-14x14-2x2",
            true,
            job(10, (14, 14), (2, 2), &moves, sink, 0.2),
        ),
    ]
}

/// Prob1 membership over the model set, recorded before the `Rmin`
/// certificate moved to the shipped strategy's exact value.
const PROB1_GOLDEN: u64 = 0x2ee1_d857_56c1_81c4;

/// The `Pmax` interval-iteration certificate over the model set, recorded
/// at the same point.
const PMAX_GOLDEN: u64 = 0x50f9_d783_755f_4f29;

/// The `Rmin` certificate of the solver's strategy over the model set,
/// recorded when it replaced `Rmin` interval iteration. It also moves if
/// the solver ships a different strategy or the exact evaluation sums in
/// another order.
const RMIN_GOLDEN: u64 = 0x5751_f62d_da9c_d233;

fn hash_cert(h: &mut Fnv, cert: &BoundsCertificate) {
    for (lo, hi) in cert.lo.iter().zip(&cert.hi) {
        h.word(lo.to_bits());
        h.word(hi.to_bits());
    }
    h.word(cert.iterations as u64);
    h.word(u64::from(cert.converged));
    h.word(cert.width.to_bits());
}

#[test]
fn prob1_membership_is_bit_identical_to_the_recorded_golden() {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for (name, degraded, mdp) in models() {
        let art = ModelArtifact::from(&mdp);
        let p1 = prob1(&art);
        if degraded {
            // The set must exercise the restricted domain: states outside
            // Prob1 and Prob1 states with a choice that leaves it.
            assert!(p1.iter().any(|&m| !m), "{name}: every state is in Prob1");
            assert!(
                (0..art.states).any(|i| p1[i]
                    && art.choice_range(i).any(|c| art
                        .branch_range(c)
                        .any(|b| !p1[art.branch_target[b] as usize]))),
                "{name}: no Prob1 state has a leaving choice"
            );
        }
        for &m in &p1 {
            h.word(u64::from(m));
        }
    }
    assert_eq!(h.0, PROB1_GOLDEN, "golden {:#018x}", h.0);
}

#[test]
fn pmax_bounds_are_bit_identical_to_the_recorded_golden() {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for (name, _, mdp) in models() {
        let art = ModelArtifact::from(&mdp);
        let cert = pmax_bounds(&art, CERTIFICATE_EPSILON, BOUNDS_MAX_ITERATIONS);
        assert!(cert.converged, "{name}: width {}", cert.width);
        assert!(verify_bounds(&art, &cert).is_empty(), "{name}");
        hash_cert(&mut h, &cert);
    }
    assert_eq!(h.0, PMAX_GOLDEN, "golden {:#018x}", h.0);
}

#[test]
fn rmin_certificate_is_bit_identical_to_the_recorded_golden() {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for (name, _, mdp) in models() {
        let art = ModelArtifact::from(&mdp);
        let solved = min_expected_cycles(&mdp, SolverOptions::default());
        let eval = evaluate_strategy(&art, &solved.choice, ValueKind::ExpectedCycles)
            .unwrap_or_else(|v| panic!("{name}: {v:?}"));
        let cert = strategy_bounds(&eval, CERTIFICATE_EPSILON);
        assert!(cert.converged, "{name}: width {}", cert.width);
        assert!(verify_bounds(&art, &cert).is_empty(), "{name}");
        hash_cert(&mut h, &cert);
    }
    assert_eq!(h.0, RMIN_GOLDEN, "golden {:#018x}", h.0);
}
