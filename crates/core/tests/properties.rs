//! Property tests for the droplet/actuation model, driven by `meda-check`:
//! Table II frontier invariants, Section V-B probability laws, guard
//! soundness, and MDP structure. Failures shrink to minimal droplets and
//! persist to the shared corpus for replay-first on subsequent runs.

use std::collections::HashMap;

use meda_check::{
    boolean, cases_from_env, check, choose_u32, default_corpus_dir, element, f64_range, vec_of,
    weighted, Config, Gen,
};
use meda_core::{
    frontier_set, mean_force, transitions, Action, ActionConfig, Dir, ForceProvider,
    HazardHandling, RawField, RoutingMdp, UniformField,
};
use meda_grid::{ChipDims, Grid, Rect};

fn config() -> Config {
    Config::default()
        .with_cases(cases_from_env(256))
        .with_corpus(default_corpus_dir())
}

/// Droplets anchored well inside a notional chip, up to 8×8.
fn droplet() -> Gen<Rect> {
    let anchor = choose_u32(5, 29).zip(choose_u32(5, 29));
    let extent = choose_u32(0, 7).zip(choose_u32(0, 7));
    anchor.zip(extent).map(|&((xa, ya), (w, h))| {
        let (xa, ya) = (xa as i32, ya as i32);
        Rect::new(xa, ya, xa + w as i32, ya + h as i32)
    })
}

fn force() -> Gen<f64> {
    f64_range(0.0, 1.0)
}

fn action() -> Gen<Action> {
    element(Action::ALL.to_vec())
}

fn ensure(cond: bool, message: &str) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(message.into())
    }
}

/// Table II size formulas: cardinal frontiers span the full facing
/// edge; ordinal frontiers the shifted edge; morphing frontiers one
/// cell less.
#[test]
fn frontier_sizes_match_table_ii() {
    check("core-frontier-sizes", &config(), &droplet(), |&delta| {
        let w = delta.width();
        let h = delta.height();
        for action in Action::ALL {
            for dir in Dir::ALL {
                let Some(fr) = frontier_set(delta, action, dir) else {
                    continue;
                };
                let expected = match action {
                    Action::Move(_) | Action::MoveDouble(_) | Action::MoveOrdinal(_) => {
                        if dir.is_vertical() {
                            w
                        } else {
                            h
                        }
                    }
                    Action::Widen(_) => h - 1,
                    Action::Heighten(_) => w - 1,
                };
                ensure(fr.area() == expected, &format!("{action} {dir}: size"))?;
                // Frontiers are always a single row or column.
                ensure(
                    fr.width() == 1 || fr.height() == 1,
                    &format!("{action} {dir}: not a line"),
                )?;
                // And they never overlap the current droplet.
                ensure(
                    !fr.intersects(delta),
                    &format!("{action} {dir}: overlaps droplet"),
                )?;
            }
        }
        Ok(())
    });
}

/// The success outcome of an action always contains every frontier it
/// pulls with (the pulling MCs end up under the droplet) — except the
/// double step, whose first-step frontier lies under the intermediate.
#[test]
fn frontiers_end_up_under_the_droplet() {
    let gen = droplet().zip(action());
    check(
        "core-frontier-landing",
        &config(),
        &gen,
        |&(delta, action)| {
            if !action.is_applicable(delta) {
                return Ok(());
            }
            let target = match action {
                Action::MoveDouble(_) => action
                    .intermediate(delta)
                    .ok_or("double move without intermediate")?,
                _ => action.apply(delta),
            };
            for dir in Dir::ALL {
                if let Some(fr) = frontier_set(delta, action, dir) {
                    ensure(
                        target.contains_rect(fr),
                        &format!("{action} {dir}: frontier escapes target"),
                    )?;
                }
            }
            Ok(())
        },
    );
}

/// Probabilities over outcomes always form a distribution, for any
/// force field value.
#[test]
fn outcome_probabilities_form_a_distribution() {
    let gen = droplet().zip(force()).zip(action());
    check(
        "core-outcome-distribution",
        &config(),
        &gen,
        |&((delta, force), action)| {
            let field = UniformField::new(force);
            let outcomes = transitions(delta, action, &field);
            let total: f64 = outcomes.iter().map(|o| o.probability).sum();
            ensure((total - 1.0).abs() < 1e-9, "mass not 1")?;
            for o in &outcomes {
                ensure(
                    o.probability >= -1e-12 && o.probability <= 1.0 + 1e-12,
                    "probability out of range",
                )?;
                // Every outcome preserves droplet area except morphing.
                match action {
                    Action::Widen(_) | Action::Heighten(_) => {}
                    _ => ensure(o.droplet.area() == delta.area(), "area not preserved")?,
                }
            }
            Ok(())
        },
    );
}

/// Monotonicity: more force never decreases the success probability.
#[test]
fn success_probability_is_monotone_in_force() {
    let gen = droplet().zip(action()).zip(force().zip(force()));
    check(
        "core-success-monotone",
        &config(),
        &gen,
        |&((delta, action), (f1, f2))| {
            if !action.is_applicable(delta) {
                return Ok(());
            }
            let (lo, hi) = if f1 <= f2 { (f1, f2) } else { (f2, f1) };
            let p = |f: f64| {
                transitions(delta, action, &UniformField::new(f))
                    .iter()
                    .find(|o| o.droplet == action.apply(delta))
                    .map_or(0.0, |o| o.probability)
            };
            ensure(p(lo) <= p(hi) + 1e-12, "success probability decreased")
        },
    );
}

/// Guard soundness: an enabled action's successful outcome stays within
/// the bounds, and morphing preserves the half-perimeter and the aspect
/// limit.
#[test]
fn enabled_actions_respect_bounds_and_aspect() {
    let gen = droplet().zip(action()).zip(choose_u32(0, 5));
    check(
        "core-guard-soundness",
        &config(),
        &gen,
        |&((delta, action), margin)| {
            let bounds = delta.expand(margin as i32 + 2);
            let config = ActionConfig::default();
            if !action.is_enabled(delta, bounds, &config) {
                return Ok(());
            }
            let out = action.apply(delta);
            ensure(bounds.contains_rect(out), "outcome escapes bounds")?;
            match action {
                Action::Widen(_) | Action::Heighten(_) => {
                    ensure(
                        out.width() + out.height() == delta.width() + delta.height(),
                        "half-perimeter changed",
                    )?;
                    // The paper's guard is one-directional: it bounds the
                    // ratio in the direction the morph grows (so a morph
                    // may still *correct* an already-extreme droplet).
                    let grown = match action {
                        Action::Widen(_) => out.aspect_ratio(),
                        _ => 1.0 / out.aspect_ratio(),
                    };
                    ensure(
                        grown <= config.aspect_ratio_max + 1e-9,
                        "aspect guard violated",
                    )
                }
                Action::MoveDouble(d) => {
                    let extent = if d.is_vertical() {
                        delta.height()
                    } else {
                        delta.width()
                    };
                    ensure(extent >= 4, "double move on a thin droplet")
                }
                _ => Ok(()),
            }
        },
    );
}

/// The mean frontier force is the arithmetic mean of the per-cell
/// forces, with off-chip cells contributing zero.
#[test]
fn mean_force_is_clipped_average() {
    let gen = choose_u32(1, 11)
        .zip(choose_u32(1, 11))
        .zip(choose_u32(1, 5));
    check("core-mean-force", &config(), &gen, |&((xa, ya), len)| {
        let dims = ChipDims::new(10, 10);
        let field = RawField::new(Grid::new(dims, 0.8));
        let fr = Rect::with_size(xa as i32, ya as i32, 1, len);
        let on_chip = fr.intersection(dims.bounds()).map_or(0, |c| c.area());
        let expected = 0.8 * f64::from(on_chip) / f64::from(fr.area());
        ensure(
            (mean_force(&field, fr) - expected).abs() < 1e-12,
            "mean force != clipped average",
        )
    });
}

/// Routing MDPs are well-formed for arbitrary geometry: states within
/// bounds, distributions normalized, goal states absorbing.
#[test]
fn routing_mdp_is_well_formed() {
    let gen = choose_u32(6, 13)
        .zip(choose_u32(6, 13))
        .zip(choose_u32(2, 3).zip(f64_range(0.05, 1.0)));
    let small = config().with_cases(cases_from_env(24));
    check(
        "core-mdp-well-formed",
        &small,
        &gen,
        |&((w, h), (droplet, force))| {
            let bounds = Rect::new(1, 1, w as i32, h as i32);
            let start = Rect::with_size(1, 1, droplet, droplet);
            let goal = Rect::with_size(
                w as i32 - droplet as i32 + 1,
                h as i32 - droplet as i32 + 1,
                droplet,
                droplet,
            );
            let mdp = RoutingMdp::build(
                start,
                goal,
                bounds,
                &UniformField::new(force),
                &ActionConfig::default(),
            )
            .map_err(|e| format!("build failed: {e:?}"))?;
            for i in mdp.state_indices() {
                ensure(bounds.contains_rect(mdp.state(i)), "state escapes bounds")?;
                if mdp.is_goal(i) {
                    ensure(mdp.choices(i).is_empty(), "goal state not absorbing")?;
                }
                for (_, branch) in mdp.choices(i) {
                    let total: f64 = branch.iter().map(|(_, p)| p).sum();
                    ensure((total - 1.0).abs() < 1e-9, "distribution not normalized")?;
                }
            }
            let stats = mdp.stats();
            ensure(
                stats.transitions >= stats.choices,
                "fewer transitions than choices",
            )
        },
    );
}

/// A cell force in `[0, 1]`: exactly 0 one time in four (its branches are
/// pruned) and exactly 1 one time in ten.
fn raw_force() -> Gen<f64> {
    weighted(vec![
        (5, Gen::constant(0.0)),
        (2, Gen::constant(1.0)),
        (13, f64_range(0.0, 1.0)),
    ])
}

/// The builder's output restated by a plain breadth-first search: a
/// `HashMap` state index and the per-cell [`transitions`] path, with the
/// builder's exploration order, guards, zero-branch pruning and hazard
/// sink.
#[derive(Default)]
struct ReferenceMdp {
    states: Vec<Rect>,
    goal: Vec<bool>,
    sink: Option<usize>,
    state_choice_start: Vec<u32>,
    choice_action: Vec<Action>,
    choice_branch_start: Vec<u32>,
    branch_target: Vec<u32>,
    branch_prob: Vec<f64>,
}

fn reference_mdp(
    start: Rect,
    goal: Rect,
    bounds: Rect,
    field: &dyn ForceProvider,
    config: &ActionConfig,
    hazard: HazardHandling,
) -> ReferenceMdp {
    let guard = match hazard {
        HazardHandling::GuardDisable => bounds,
        HazardHandling::AbsorbingSink => bounds.expand(4),
    };
    // The builder's sink sentinel: a rectangle strictly outside the bounds.
    let sentinel = bounds.translate(2 * (bounds.xb - bounds.xa + 10), 0);
    let mut r = ReferenceMdp {
        states: vec![start],
        goal: vec![goal.contains_rect(start)],
        state_choice_start: vec![0],
        choice_branch_start: vec![0],
        ..ReferenceMdp::default()
    };
    let mut index = HashMap::from([(start, 0usize)]);
    let mut i = 0;
    while i < r.states.len() {
        let delta = r.states[i];
        if !r.goal[i] && r.sink != Some(i) {
            for action in Action::ALL {
                if !action.class_enabled(delta, config) || !guard.contains_rect(action.apply(delta))
                {
                    continue;
                }
                let mark = r.branch_target.len();
                for o in transitions(delta, action, field) {
                    if o.probability <= 0.0 {
                        continue;
                    }
                    let key = if bounds.contains_rect(o.droplet) {
                        o.droplet
                    } else {
                        sentinel
                    };
                    let next = *index.entry(key).or_insert_with(|| {
                        r.states.push(key);
                        r.goal.push(goal.contains_rect(key));
                        r.states.len() - 1
                    });
                    if key == sentinel {
                        r.sink = Some(next);
                    }
                    r.branch_target.push(next as u32);
                    r.branch_prob.push(o.probability);
                }
                if r.branch_target.len() > mark {
                    r.choice_action.push(action);
                    r.choice_branch_start.push(r.branch_target.len() as u32);
                }
            }
        }
        r.state_choice_start.push(r.choice_action.len() as u32);
        i += 1;
    }
    r
}

/// The builder's CSR arrays equal the reference search's bit for bit
/// (`f64::to_bits`) on random raw fields with exact zeros, droplets of 1–4
/// cells per axis, bounds flush with the chip edge or one cell inside it,
/// all four action configurations and both hazard encodings. On a uniform
/// field an indexing slip in the builder's force window or frontier memo
/// cannot show; here every cell differs.
#[test]
fn routing_mdp_matches_reference() {
    let field = choose_u32(4, 12)
        .zip(choose_u32(4, 12))
        .flat_map(|&(w, h)| {
            let n = (w * h) as usize;
            vec_of(raw_force(), n, n).map(move |forces| (w, h, forces.clone()))
        });
    let droplet = choose_u32(1, 4)
        .zip(choose_u32(1, 4))
        .zip(choose_u32(0, 11).zip(choose_u32(0, 11)));
    let mode = choose_u32(0, 3).zip(boolean().zip(boolean()));
    let gen = field.zip(droplet).zip(mode);
    let configs = [
        ActionConfig::cardinal_only(),
        ActionConfig::moves_only(),
        ActionConfig::default(),
        ActionConfig {
            double_step: false,
            ordinal: false,
            ..ActionConfig::default()
        },
    ];
    let cases = config().with_cases(cases_from_env(64));
    check(
        "core-mdp-matches-reference",
        &cases,
        &gen,
        |(((w, h, forces), ((dw, dh), (px, py))), (c, (sink, flush)))| {
            let dims = ChipDims::new(*w, *h);
            let mut values = forces.iter().copied();
            let field = RawField::new(Grid::from_fn(dims, |_| values.next().unwrap_or(0.0)));
            let bounds = if *flush {
                dims.bounds()
            } else {
                Rect::new(2, 2, *w as i32 - 1, *h as i32 - 1)
            };
            let (bw, bh) = (bounds.width(), bounds.height());
            let (dw, dh) = ((*dw).min(bw), (*dh).min(bh));
            let start = Rect::with_size(
                bounds.xa + (px % (bw - dw + 1)) as i32,
                bounds.ya + (py % (bh - dh + 1)) as i32,
                dw,
                dh,
            );
            let (gw, gh) = ((dw + 1).min(bw), (dh + 1).min(bh));
            let goal =
                Rect::with_size(bounds.xb - gw as i32 + 1, bounds.yb - gh as i32 + 1, gw, gh);
            let config = &configs[*c as usize];
            let hazard = if *sink {
                HazardHandling::AbsorbingSink
            } else {
                HazardHandling::GuardDisable
            };
            let mdp = RoutingMdp::build_with(start, goal, bounds, &field, config, hazard)
                .map_err(|e| format!("build failed: {e:?}"))?;
            let r = reference_mdp(start, goal, bounds, &field, config, hazard);
            ensure(mdp.len() == r.states.len(), "state count differs")?;
            for i in mdp.state_indices() {
                ensure(mdp.state(i) == r.states[i], &format!("state {i} differs"))?;
                ensure(
                    mdp.is_goal(i) == r.goal[i],
                    &format!("goal flag {i} differs"),
                )?;
            }
            ensure(mdp.hazard_sink() == r.sink, "hazard sink differs")?;
            let csr = mdp.csr();
            ensure(
                csr.state_choice_start == r.state_choice_start,
                "state offsets differ",
            )?;
            ensure(
                csr.choice_action == r.choice_action,
                "choice actions differ",
            )?;
            ensure(
                csr.choice_branch_start == r.choice_branch_start,
                "choice offsets differ",
            )?;
            ensure(
                csr.branch_target == r.branch_target,
                "branch targets differ",
            )?;
            for (b, (p, q)) in csr.branch_prob.iter().zip(&r.branch_prob).enumerate() {
                ensure(
                    p.to_bits() == q.to_bits(),
                    &format!("branch {b}: probability {p:e} != reference {q:e}"),
                )?;
            }
            Ok(())
        },
    );
}
