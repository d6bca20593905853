//! Bit-identity golden for the sound bounds pass.
//!
//! Hashes everything [`compute_bounds`] and [`prob1`] produce — the
//! `lo`/`hi` bit patterns, the sweep count, the convergence flag and
//! width, the `Prob1` membership and every witness choice — over a fixed
//! model set, for both operators. The hash was recorded before the
//! interval sweep was rewritten for speed; any change to the arithmetic,
//! the sweep order or the witness choice moves it.

use meda_audit::{
    compute_bounds, prob1, verify_bounds, ModelArtifact, ValueKind, BOUNDS_MAX_ITERATIONS,
    CERTIFICATE_EPSILON,
};
use meda_core::{ActionConfig, HazardHandling, HealthField, RoutingMdp};
use meda_degradation::HealthLevel;
use meda_grid::{ChipDims, Grid, Rect};
use meda_rng::{Rng, SeedableRng, StdRng};

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
) -> ModelArtifact {
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
    let mdp = RoutingMdp::build_with(
        Rect::with_size(1, 1, dw, dh),
        Rect::with_size((aw - dw + 1) as i32, (ah - dh + 1) as i32, dw, dh),
        Rect::new(1, 1, aw as i32, ah as i32),
        &HealthField::new(grid, BITS),
        config,
        hazard,
    )
    .expect("golden model builds");
    ModelArtifact::from(&mdp)
}

/// The fixed model set: Table V cells at reduced size (the two smallest
/// as they are, the 90×45 and 90×90 cells at a third of their area and
/// droplet edges), then degraded fields — dead
/// cells at 20–35 % density, some with bound-exiting actions routed to an
/// absorbing sink — that leave states outside `Prob1` and `Prob1` states
/// with choices leaving it. The flag marks the degraded ones.
fn models() -> Vec<(&'static str, bool, ModelArtifact)> {
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

/// The hash of everything below, recorded before the sweep rewrite.
const GOLDEN: u64 = 0x5294_e2e4_87fc_12f5;

#[test]
fn bounds_and_prob1_are_bit_identical_to_the_recorded_golden() {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for (name, degraded, art) in models() {
        let (p1, witness) = prob1(&art);
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
        for (&m, w) in p1.iter().zip(&witness) {
            h.word(u64::from(m));
            h.word(w.map_or(u64::MAX, |c| c as u64));
        }
        for kind in [ValueKind::ExpectedCycles, ValueKind::Reachability] {
            let cert = compute_bounds(&art, kind, CERTIFICATE_EPSILON, BOUNDS_MAX_ITERATIONS);
            assert!(cert.converged, "{name} {kind:?}: width {}", cert.width);
            assert!(verify_bounds(&art, &cert).is_empty(), "{name} {kind:?}");
            for (lo, hi) in cert.lo.iter().zip(&cert.hi) {
                h.word(lo.to_bits());
                h.word(hi.to_bits());
            }
            h.word(cert.iterations as u64);
            h.word(u64::from(cert.converged));
            h.word(cert.width.to_bits());
        }
    }
    assert_eq!(h.0, GOLDEN, "golden {:#018x}", h.0);
}
