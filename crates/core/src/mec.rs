//! Graph-only **maximal end-component** (MEC) decomposition over raw CSR
//! arrays (DESIGN.md §14).
//!
//! An *end component* of an MDP is a pair `(S', A')` of states and enabled
//! choices such that every branch of every kept choice stays inside `S'`
//! and the induced sub-graph is strongly connected — the regions a strategy
//! can keep the process inside forever. A *maximal* end component is one
//! not contained in any larger EC. MECs are exactly what break the
//! uniqueness of the Bellman fixed point for `Pmax`: inside a MEC every
//! constant vector is a fixed point of the restricted operator, so value
//! iteration *from above* can stall at a spurious value. Collapsing each
//! MEC to a single quotient state restores a unique fixed point and makes
//! interval iteration sound ([`meda-audit`'s `Pmax` bounds pass] consumes
//! this).
//!
//! The decomposition here is purely structural — it reads only the CSR
//! offset/target arrays, never probabilities or values — so `meda-audit`
//! can run it over an untrusted [`crate::RoutingMdp`] export without
//! sharing solver code. The algorithm is the standard iterative one
//! (de Alfaro): repeatedly (1) compute SCCs of the sub-graph restricted to
//! the still-enabled choices, (2) disable any choice with a branch leaving
//! its state's SCC, (3) drop states left without choices; at the fixpoint
//! the surviving SCCs are exactly the MECs. Absorbing states (no choices —
//! goals and the hazard sink in this codebase) are never MEC members.

use crate::tarjan_scc;

/// Sentinel for states outside every maximal end component.
pub const NO_MEC: u32 = u32::MAX;

/// Result of [`mec_decomposition`]: the maximal end components of a CSR
/// graph, numbered `0..mecs()` in a deterministic (first-member state
/// order) numbering.
#[derive(Debug, Clone)]
pub struct MecDecomposition {
    /// MEC id per state, or [`NO_MEC`] for states outside every MEC.
    pub mec_of: Vec<u32>,
    /// `mecs() + 1` offsets into [`MecDecomposition::members`].
    pub mec_start: Vec<u32>,
    /// State indices grouped by MEC, ids in increasing order; members of
    /// one MEC are sorted ascending.
    pub members: Vec<u32>,
    /// Per choice: whether the choice survived the decomposition as an
    /// *internal* choice of some MEC (every branch stays inside the MEC).
    /// Choices of non-MEC states and exiting choices of MEC states are
    /// `false`.
    pub internal_choice: Vec<bool>,
}

impl MecDecomposition {
    /// Number of maximal end components.
    #[must_use]
    pub fn mecs(&self) -> usize {
        self.mec_start.len() - 1
    }

    /// The member states of MEC `k`, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `k >= mecs()`.
    #[must_use]
    pub fn members_of(&self, k: usize) -> &[u32] {
        &self.members[self.mec_start[k] as usize..self.mec_start[k + 1] as usize]
    }

    /// Total number of states that belong to some MEC.
    #[must_use]
    pub fn states_in_mecs(&self) -> usize {
        self.members.len()
    }
}

/// Computes the maximal end components of the MDP described by the three
/// CSR arrays (`state_choice_start` has `n + 1` entries,
/// `choice_branch_start` has `choices + 1`, `branch_target` one entry per
/// branch). Probabilities are irrelevant: a branch is an edge iff its
/// probability is positive, and the CSR builders in this workspace never
/// emit zero-probability branches (meda-audit's structural pass rejects
/// them).
///
/// The caller must have validated the arrays (monotone offsets, targets
/// `< n`) — `RoutingMdp` guarantees this by construction and `meda-audit`
/// gates on its structural audit before calling in here.
///
/// Worst case `O(iterations · (states + branches))` with `iterations`
/// bounded by the number of choices ever disabled; on routing MDPs the
/// fixpoint is reached in a handful of rounds.
#[must_use]
pub fn mec_decomposition(
    state_choice_start: &[u32],
    choice_branch_start: &[u32],
    branch_target: &[u32],
) -> MecDecomposition {
    let n = state_choice_start.len().saturating_sub(1);
    let choices = choice_branch_start.len().saturating_sub(1);
    let mut enabled = vec![true; choices];
    // Candidate MEC members: states with at least one choice. Absorbing
    // states (goals, sink) have none and can never be in an EC.
    let mut candidate: Vec<bool> = (0..n)
        .map(|i| state_choice_start[i] < state_choice_start[i + 1])
        .collect();

    let scc = loop {
        // SCCs of the sub-graph of candidate states and enabled choices;
        // only candidates get numbered, and only their ids are compared.
        let (cand, en) = (&candidate, &enabled);
        let scc = tarjan_scc(
            n,
            |i| cand[i],
            move |v| {
                (state_choice_start[v] as usize..state_choice_start[v + 1] as usize)
                    .filter(move |&c| en[c])
                    .flat_map(move |c| &branch_target[branch_range(choice_branch_start, c)])
                    .copied()
                    .filter(move |&t| cand[t as usize])
            },
        );
        let mut changed = false;
        for i in 0..n {
            if !candidate[i] {
                continue;
            }
            let mut any_enabled = false;
            // `c` is a CSR choice id used both to index `enabled` and as the
            // branch-span key; an enumerate/skip/take chain would obscure that.
            #[allow(clippy::needless_range_loop)]
            for c in state_choice_start[i] as usize..state_choice_start[i + 1] as usize {
                if !enabled[c] {
                    continue;
                }
                let stays = branch_range(choice_branch_start, c).all(|b| {
                    let t = branch_target[b] as usize;
                    t == i || (candidate[t] && scc.component[t] == scc.component[i])
                });
                if stays {
                    any_enabled = true;
                } else {
                    enabled[c] = false;
                    changed = true;
                }
            }
            if !any_enabled {
                candidate[i] = false;
                changed = true;
            }
        }
        if !changed {
            break scc;
        }
    };

    // At the fixpoint every surviving candidate keeps >= 1 choice whose
    // branches all stay in its SCC, so each surviving SCC is a MEC.
    // Renumber deterministically by smallest member state.
    let mut mec_of = vec![NO_MEC; n];
    let mut mec_start = vec![0u32];
    let mut members: Vec<u32> = Vec::new();
    let mut scc_to_mec: Vec<u32> = vec![NO_MEC; n];
    let mut mec_count = 0u32;
    for i in 0..n {
        if !candidate[i] {
            continue;
        }
        let s = scc.component[i] as usize;
        if scc_to_mec[s] == NO_MEC {
            scc_to_mec[s] = mec_count;
            mec_count += 1;
        }
        mec_of[i] = scc_to_mec[s];
    }
    // Members grouped by MEC id; scanning states ascending keeps each
    // group sorted (MEC ids were assigned in first-member order).
    let mut counts = vec![0u32; mec_count as usize];
    for &m in mec_of.iter().filter(|&&m| m != NO_MEC) {
        counts[m as usize] += 1;
    }
    for &c in &counts {
        let last = *mec_start.last().expect("mec_start starts non-empty");
        mec_start.push(last + c);
    }
    members.resize(mec_of.iter().filter(|&&m| m != NO_MEC).count(), 0);
    let mut cursor: Vec<u32> = mec_start[..mec_count as usize].to_vec();
    for (i, &m) in mec_of.iter().enumerate() {
        if m != NO_MEC {
            members[cursor[m as usize] as usize] = to_u32(i);
            cursor[m as usize] += 1;
        }
    }
    let mut internal_choice = vec![false; choices];
    for (i, &m) in mec_of.iter().enumerate() {
        if m == NO_MEC {
            continue;
        }
        let span = state_choice_start[i] as usize..state_choice_start[i + 1] as usize;
        internal_choice[span.clone()].copy_from_slice(&enabled[span]);
    }
    MecDecomposition {
        mec_of,
        mec_start,
        members,
        internal_choice,
    }
}

fn branch_range(choice_branch_start: &[u32], c: usize) -> core::ops::Range<usize> {
    choice_branch_start[c] as usize..choice_branch_start[c + 1] as usize
}

fn to_u32(i: usize) -> u32 {
    u32::try_from(i).expect("state index exceeds the u32 address space")
}

#[cfg(test)]
mod tests {
    use super::*;

    // Tiny hand-built CSR helpers: `choices[i]` lists state i's choices,
    // each a list of branch targets (uniform probabilities are irrelevant).
    fn csr(choices: &[&[&[u32]]]) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
        let mut scs = vec![0u32];
        let mut cbs = vec![0u32];
        let mut targets = Vec::new();
        for state in choices {
            for choice in *state {
                for &t in *choice {
                    targets.push(t);
                }
                cbs.push(to_u32(targets.len()));
            }
            scs.push(to_u32(cbs.len() - 1));
        }
        (scs, cbs, targets)
    }

    #[test]
    fn absorbing_goal_is_never_a_mec_member() {
        // 0 -> 1 -> goal(2, no choices); no cycles at all.
        let (scs, cbs, tg) = csr(&[&[&[1]], &[&[2]], &[]]);
        let d = mec_decomposition(&scs, &cbs, &tg);
        assert_eq!(d.mecs(), 0);
        assert!(d.mec_of.iter().all(|&m| m == NO_MEC));
        assert!(d.internal_choice.iter().all(|&b| !b));
    }

    #[test]
    fn self_loop_only_choice_forms_a_singleton_mec() {
        // State 1 has one choice looping on itself; state 0 can enter it.
        let (scs, cbs, tg) = csr(&[&[&[1]], &[&[1]]]);
        let d = mec_decomposition(&scs, &cbs, &tg);
        assert_eq!(d.mecs(), 1);
        assert_eq!(d.members_of(0), &[1]);
        assert_eq!(d.mec_of, vec![NO_MEC, 0]);
        assert!(d.internal_choice[1]);
    }

    #[test]
    fn two_state_cycle_with_an_exit_choice_is_one_mec() {
        // 0 <-> 1 via dedicated choices; 1 also has an exiting choice to
        // goal 2. The exit does not break the EC — the strategy may simply
        // never take it — so {0, 1} is a MEC and the exit choice is not
        // internal.
        let (scs, cbs, tg) = csr(&[&[&[1]], &[&[0], &[2]], &[]]);
        let d = mec_decomposition(&scs, &cbs, &tg);
        assert_eq!(d.mecs(), 1);
        assert_eq!(d.members_of(0), &[0, 1]);
        assert!(d.internal_choice[0] && d.internal_choice[1]);
        assert!(!d.internal_choice[2]);
    }

    #[test]
    fn probabilistic_escape_dissolves_the_would_be_ec() {
        // 0's only choice branches to {0, 1}: mass leaks to 1 every trial,
        // and 1 is absorbing, so no strategy can stay in {0} forever.
        let (scs, cbs, tg) = csr(&[&[&[0, 1]], &[]]);
        let d = mec_decomposition(&scs, &cbs, &tg);
        assert_eq!(d.mecs(), 0);
    }

    #[test]
    fn nested_structure_finds_only_the_maximal_component() {
        // 0 <-> 1 and 1 <-> 2 (all dedicated choices): the whole {0,1,2}
        // is strongly connected and closed, a single MEC.
        let (scs, cbs, tg) = csr(&[&[&[1]], &[&[0], &[2]], &[&[1]]]);
        let d = mec_decomposition(&scs, &cbs, &tg);
        assert_eq!(d.mecs(), 1);
        assert_eq!(d.members_of(0), &[0, 1, 2]);
    }

    #[test]
    fn choice_with_a_leaking_branch_is_pruned_but_state_can_stay() {
        // 0 <-> 1; 0 has a second choice branching {1, 2} with 2 outside.
        // The leaking choice is pruned, the {0, 1} MEC survives without it.
        let (scs, cbs, tg) = csr(&[&[&[1], &[1, 2]], &[&[0]], &[]]);
        let d = mec_decomposition(&scs, &cbs, &tg);
        assert_eq!(d.mecs(), 1);
        assert_eq!(d.members_of(0), &[0, 1]);
        assert!(d.internal_choice[0]);
        assert!(!d.internal_choice[1]); // the {1,2} choice leaks to 2
    }

    #[test]
    fn two_disjoint_mecs_get_deterministic_ids_in_state_order() {
        // {0} self-loop and {2, 3} cycle; 1 transits between them.
        let (scs, cbs, tg) = csr(&[&[&[0]], &[&[0], &[2]], &[&[3]], &[&[2]]]);
        let d = mec_decomposition(&scs, &cbs, &tg);
        assert_eq!(d.mecs(), 2);
        assert_eq!(d.members_of(0), &[0]);
        assert_eq!(d.members_of(1), &[2, 3]);
        assert_eq!(d.mec_of[1], NO_MEC);
    }

    #[test]
    fn cascading_prune_reaches_the_fixpoint() {
        // 2 <-> 3 looks like an EC but 3's only choice leaks to 4
        // (absorbing): pruning 3 must then dissolve 2, then 1, then 0 in
        // later rounds — exercises the outer fixpoint loop.
        let (scs, cbs, tg) = csr(&[&[&[1]], &[&[2]], &[&[3]], &[&[2, 4]], &[]]);
        let d = mec_decomposition(&scs, &cbs, &tg);
        assert_eq!(d.mecs(), 0);
    }

    #[test]
    fn wander_region_of_a_guarded_routing_mdp_is_one_mec() {
        use crate::{HazardHandling, RoutingMdp, UniformField};
        use meda_grid::Rect;

        // A healthy guarded-corridor MDP: failed moves hold position, so
        // the whole non-goal region is mutually reachable and closed under
        // the hold branches — one big MEC, goals excluded.
        let mdp = RoutingMdp::build_with(
            Rect::new(0, 0, 1, 1),
            Rect::new(4, 4, 5, 5),
            Rect::new(0, 0, 5, 5),
            &UniformField::new(0.9),
            &crate::ActionConfig::default(),
            HazardHandling::GuardDisable,
        )
        .expect("valid corridor geometry");
        let d = mdp.maximal_end_components();
        assert!(d.mecs() >= 1, "guarded wander region should form a MEC");
        let csr = mdp.csr();
        for i in 0..mdp.stats().states {
            let absorbing = csr.state_choice_start[i] == csr.state_choice_start[i + 1];
            if absorbing {
                assert_eq!(d.mec_of[i], NO_MEC, "absorbing state {i} in a MEC");
            }
        }
    }
}
