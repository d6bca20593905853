//! Property test for the shared Tarjan pass, [`meda_core::tarjan_scc`]:
//! on generated small CSR graphs its components must be exactly the
//! mutual-reachability classes of a brute-force reference, numbered in
//! reverse topological order — under each of the three edge walks the
//! workspace runs it with (every branch of a state, as in
//! `RoutingMdp::condensation`; `candidate`/`enabled`-restricted branches,
//! as in the MEC decomposition; one picked choice per state, as in
//! `meda-audit`'s strategy-chain evaluation).

use meda_check::{
    boolean, cases_from_env, check, choose_u32, choose_usize, default_corpus_dir, vec_of, Config,
    Gen,
};
use meda_core::{tarjan_scc, Condensation};

/// One state: its choices (branch targets plus an `enabled` flag), whether
/// it is a MEC `candidate`, and a pick slot (`Some(slot)` if `slot` names
/// one of its choices).
type State = ((Vec<(Vec<u32>, bool)>, bool), usize);

/// Up to 7 states with up to 3 choices of 1–3 branches each; targets may
/// repeat and self-loop.
fn graph() -> Gen<Vec<State>> {
    choose_usize(1, 7).flat_map(|&n| {
        let choice = vec_of(choose_u32(0, n as u32 - 1), 1, 3).zip(boolean());
        let state = vec_of(choice, 0, 3).zip(boolean()).zip(choose_usize(0, 3));
        vec_of(state, n, n)
    })
}

/// The edges one walk sees: `edges[u]` in walk order, self-loops included
/// (the pass must skip them), and whether `u` is a DFS root.
struct Walk {
    edges: Vec<Vec<u32>>,
    roots: Vec<bool>,
}

fn full_walk(g: &[State]) -> Walk {
    Walk {
        edges: g
            .iter()
            .map(|((choices, _), _)| choices.iter().flat_map(|(t, _)| t.clone()).collect())
            .collect(),
        roots: vec![true; g.len()],
    }
}

fn restricted_walk(g: &[State]) -> Walk {
    let candidate: Vec<bool> = g.iter().map(|((_, c), _)| *c).collect();
    Walk {
        edges: g
            .iter()
            .map(|((choices, _), _)| {
                choices
                    .iter()
                    .filter(|(_, enabled)| *enabled)
                    .flat_map(|(t, _)| t.iter().copied())
                    .filter(|&t| candidate[t as usize])
                    .collect()
            })
            .collect(),
        roots: candidate,
    }
}

fn picked_walk(g: &[State]) -> Walk {
    Walk {
        edges: g
            .iter()
            .map(|((choices, _), slot)| {
                choices.get(*slot).map_or_else(Vec::new, |(t, _)| t.clone())
            })
            .collect(),
        roots: vec![true; g.len()],
    }
}

/// Brute-force reachability closure (reflexive), by repeated relaxation.
fn reaches(edges: &[Vec<u32>]) -> Vec<Vec<bool>> {
    let n = edges.len();
    let mut r: Vec<Vec<bool>> = (0..n).map(|u| (0..n).map(|v| u == v).collect()).collect();
    for _ in 0..n {
        for (u, out) in edges.iter().enumerate() {
            for &v in out {
                let via = r[v as usize].clone();
                for (dst, src) in r[u].iter_mut().zip(via) {
                    *dst |= src;
                }
            }
        }
    }
    r
}

fn ensure(cond: bool, message: impl FnOnce() -> String) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(message())
    }
}

fn agrees_with_reference(walk: &Walk, scc: &Condensation, what: &str) -> Result<(), String> {
    const UNVISITED: u32 = u32::MAX;
    let r = reaches(&walk.edges);
    // Visited states are exactly those reachable from some root.
    for (v, &c) in scc.component.iter().enumerate() {
        let reached = r.iter().zip(&walk.roots).any(|(row, &root)| root && row[v]);
        ensure(reached == (c != UNVISITED), || {
            format!("{what}: state {v} visited = {}", !reached)
        })?;
    }
    // Same component exactly when mutually reachable.
    for (u, &cu) in scc.component.iter().enumerate() {
        for (v, &cv) in scc.component.iter().enumerate() {
            if cu == UNVISITED || cv == UNVISITED {
                continue;
            }
            ensure((cu == cv) == (r[u][v] && r[v][u]), || {
                format!("{what}: states {u}, {v} in components {cu}, {cv}")
            })?;
        }
    }
    // Reverse topological numbering: successors get smaller ids.
    for (u, out) in walk.edges.iter().enumerate() {
        for &v in out {
            let (cu, cv) = (scc.component[u], scc.component[v as usize]);
            if cu != UNVISITED && cu != cv {
                ensure(cv < cu, || {
                    format!("{what}: edge {u} -> {v} goes from component {cu} up to {cv}")
                })?;
            }
        }
    }
    // The member lists group exactly the visited states, ascending.
    let visited = scc.component.iter().filter(|&&c| c != UNVISITED).count();
    ensure(scc.members.len() == visited, || {
        format!(
            "{what}: {} members for {visited} visited states",
            scc.members.len()
        )
    })?;
    for k in 0..scc.components() {
        let members = scc.members_of(k);
        ensure(!members.is_empty(), || {
            format!("{what}: component {k} is empty")
        })?;
        ensure(members.windows(2).all(|w| w[0] < w[1]), || {
            format!("{what}: component {k} members {members:?} not ascending")
        })?;
        for &m in members {
            ensure(scc.component[m as usize] as usize == k, || {
                format!("{what}: member {m} listed under component {k}")
            })?;
        }
    }
    Ok(())
}

#[test]
fn tarjan_matches_brute_force_mutual_reachability() {
    let config = Config::default()
        .with_cases(cases_from_env(256))
        .with_corpus(default_corpus_dir());
    check("core-tarjan-scc", &config, &graph(), |g| {
        for (walk, what) in [
            (full_walk(g), "full"),
            (restricted_walk(g), "restricted"),
            (picked_walk(g), "picked"),
        ] {
            let scc = tarjan_scc(
                walk.edges.len(),
                |i| walk.roots[i],
                |v| walk.edges[v].iter().copied(),
            );
            agrees_with_reference(&walk, &scc, what)?;
        }
        Ok(())
    });
}
