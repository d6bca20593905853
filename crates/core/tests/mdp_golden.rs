//! Bit-identity golden for the routing-MDP builder: one FNV-1a digest per
//! fixed model over everything `RoutingMdp::build_with` emits — the state
//! rectangles, the goal flags, the hazard sink, the CSR offsets, the
//! choice actions, the branch targets and the bit pattern of every branch
//! probability. A faster builder must leave every digest unchanged.
//!
//! The reference tests of `transitions()` share the expansion core with
//! the builder, so they cannot catch a change to it on their own; these
//! digests were recorded on the plain per-cell builder.

use meda_core::{
    Action, ActionConfig, DegradationField, ForceProvider, HazardBox, HazardHandling,
    HazardedField, HealthField, RoutingMdp,
};
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

    fn rect(&mut self, r: Rect) {
        for v in [r.xa, r.ya, r.xb, r.yb] {
            self.word(v as u64);
        }
    }
}

fn digest(mdp: &RoutingMdp) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.word(mdp.len() as u64);
    for i in mdp.state_indices() {
        h.rect(mdp.state(i));
        h.word(u64::from(mdp.is_goal(i)));
    }
    h.word(mdp.hazard_sink().map_or(u64::MAX, |s| s as u64));
    let csr = mdp.csr();
    for &o in csr.state_choice_start {
        h.word(u64::from(o));
    }
    for &a in csr.choice_action {
        let k = Action::ALL
            .iter()
            .position(|&b| b == a)
            .expect("known action");
        h.word(k as u64);
    }
    for &o in csr.choice_branch_start {
        h.word(u64::from(o));
    }
    for &t in csr.branch_target {
        h.word(u64::from(t));
    }
    for &p in csr.branch_prob {
        h.word(p.to_bits());
    }
    h.0
}

/// A `bits`-bit health field on a `dims` chip with every level drawn
/// uniformly from `[1, 2^bits)`.
fn random_health(seed: u64, dims: ChipDims) -> HealthField {
    let mut rng = StdRng::seed_from_u64(seed);
    let top = 1u32 << BITS;
    let grid = Grid::from_fn(dims, |_| {
        HealthLevel::new(rng.gen_range(1..top) as u8, BITS)
    });
    HealthField::new(grid, BITS)
}

/// [`random_health`] with square clusters of dead (level 0) cells.
fn clustered_health(seed: u64, dims: ChipDims, clusters: usize) -> HealthField {
    let mut rng = StdRng::seed_from_u64(seed);
    let top = 1u32 << BITS;
    let mut grid = Grid::from_fn(dims, |_| {
        HealthLevel::new(rng.gen_range(1..top) as u8, BITS)
    });
    for _ in 0..clusters {
        let x = rng.gen_range(1..=dims.width) as i32;
        let y = rng.gen_range(1..=dims.height) as i32;
        let r = rng.gen_range(0..3u32) as i32;
        grid.fill_rect(
            Rect::new(x - r, y - r, x + r, y + r),
            HealthLevel::new(0, BITS),
        );
    }
    HealthField::new(grid, BITS)
}

fn build(
    start: Rect,
    goal: Rect,
    bounds: Rect,
    field: &dyn ForceProvider,
    config: &ActionConfig,
    hazard: HazardHandling,
) -> RoutingMdp {
    RoutingMdp::build_with(start, goal, bounds, field, config, hazard).expect("golden model builds")
}

/// The fixed model set, each with its recorded digest.
fn models() -> Vec<(&'static str, RoutingMdp, u64)> {
    let moves = ActionConfig::moves_only();
    let full = ActionConfig::default();
    let cardinal = ActionConfig::cardinal_only();
    let guard = HazardHandling::GuardDisable;
    let sink = HazardHandling::AbsorbingSink;

    let h34 = random_health(1, ChipDims::new(34, 34));
    let h94 = random_health(2, ChipDims::new(94, 94));
    let paper = clustered_health(3, ChipDims::PAPER, 40);
    let base = random_health(4, ChipDims::new(24, 20));
    let boxes = [
        HazardBox::soft(Rect::new(8, 5, 13, 12), 0.25),
        HazardBox::wall(Rect::new(16, 1, 17, 14)),
    ];
    let hazarded = HazardedField::new(&base, &boxes);
    let h16 = clustered_health(5, ChipDims::new(16, 16), 4);
    let flush = clustered_health(6, ChipDims::new(20, 18), 6);
    let degraded = DegradationField::new(Grid::from_fn(ChipDims::new(14, 14), |c| {
        0.35 + 0.05 * f64::from(((c.x * 7 + c.y * 3) % 13) as u8)
    }));

    vec![
        (
            "30x30-d3-moves",
            build(
                Rect::with_size(3, 3, 3, 3),
                Rect::with_size(30, 30, 3, 3),
                Rect::new(3, 3, 32, 32),
                &h34,
                &moves,
                guard,
            ),
            0x7152_792a_850e_095d,
        ),
        (
            "90x90-d6-moves",
            build(
                Rect::with_size(3, 3, 6, 6),
                Rect::with_size(87, 87, 6, 6),
                Rect::new(3, 3, 92, 92),
                &h94,
                &moves,
                guard,
            ),
            0xd552_0242_f324_e884,
        ),
        (
            "60x30-clusters-morph",
            build(
                Rect::with_size(2, 2, 4, 4),
                Rect::with_size(52, 24, 6, 6),
                Rect::new(2, 2, 59, 29),
                &paper,
                &full,
                guard,
            ),
            0x2e59_d5cc_9620_b3b4,
        ),
        (
            "hazarded-soft-and-wall",
            build(
                Rect::with_size(2, 2, 3, 3),
                Rect::with_size(19, 15, 4, 4),
                Rect::new(2, 2, 23, 19),
                &hazarded,
                &full,
                guard,
            ),
            0x7cf7_b89b_5be8_dd6f,
        ),
        (
            "sink-edge-droplet",
            build(
                Rect::with_size(3, 6, 3, 2),
                Rect::with_size(10, 10, 4, 4),
                Rect::new(3, 3, 14, 14),
                &h16,
                &full,
                sink,
            ),
            0x7afb_be20_f4de_6e71,
        ),
        (
            "flush-with-chip-edge",
            build(
                Rect::with_size(1, 1, 4, 4),
                Rect::with_size(15, 13, 6, 6),
                Rect::new(1, 1, 20, 18),
                &flush,
                &full,
                guard,
            ),
            0x15db_4590_f1e0_3012,
        ),
        (
            "flush-sink-moves",
            build(
                Rect::with_size(1, 1, 2, 4),
                Rect::with_size(15, 11, 6, 8),
                Rect::new(1, 1, 20, 18),
                &flush,
                &moves,
                sink,
            ),
            0x884b_b3bf_05a3_7ba2,
        ),
        (
            "1x1-cardinal",
            build(
                Rect::with_size(2, 2, 1, 1),
                Rect::with_size(13, 13, 1, 1),
                Rect::new(2, 2, 13, 13),
                &degraded,
                &cardinal,
                guard,
            ),
            0x6796_9024_9632_5dc3,
        ),
    ]
}

#[test]
fn built_models_are_bit_identical_to_the_recorded_goldens() {
    let mut drifted = Vec::new();
    for (name, mdp, golden) in models() {
        let got = digest(&mdp);
        if got != golden {
            drifted.push(format!("{name}: {got:#018x} (golden {golden:#018x})"));
        }
    }
    assert!(
        drifted.is_empty(),
        "digests drifted:\n{}",
        drifted.join("\n")
    );
}

#[test]
fn the_model_set_covers_every_build_path() {
    let models = models();
    let any = |f: &dyn Fn(&RoutingMdp) -> bool| models.iter().any(|(_, m, _)| f(m));
    assert!(
        any(&|m| m.hazard_sink().is_some()),
        "no model reaches the sink"
    );
    assert!(
        any(&|m| m
            .csr()
            .choice_action
            .iter()
            .any(|a| matches!(a, Action::Widen(_) | Action::Heighten(_)))),
        "no model morphs"
    );
    assert!(
        any(&|m| m.bounds().xa == 1 && m.bounds().ya == 1),
        "no model's bounds sit on the chip edge"
    );
    assert!(
        any(&|m| m.state(m.init()).area() == 1),
        "no model routes a 1x1 droplet"
    );
    // Some branch was pruned at probability zero: a choice with fewer
    // branches than its action's event space.
    assert!(
        any(&|m| (0..m.len()).any(|i| m
            .choices(i)
            .iter()
            .any(|(a, b)| matches!(a, Action::Move(_)) && b.len() == 1))),
        "no model prunes a zero-probability branch"
    );
}
