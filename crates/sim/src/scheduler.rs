use meda_bioassay::{BioassayPlan, MoId};
use meda_core::{mean_force, HealthField};
use meda_grid::Rect;

/// Runtime microfluidic-operation scheduler: picks which *ready* operation
/// (all input droplets parked on chip) executes next.
///
/// The paper's evaluation executes operations in plan order; its conclusion
/// calls out "a scheduler that can optimize the order in which the
/// microfluidic operations are executed in runtime" as the natural next
/// step. [`FifoScheduler`] is the paper's behaviour;
/// [`HealthAwareScheduler`] is that extension.
pub trait MoScheduler {
    /// Short name for reports.
    fn name(&self) -> &str;

    /// Chooses one of `ready` (non-empty, ascending ids) to execute next.
    fn pick(&mut self, ready: &[MoId], plan: &BioassayPlan, health: &HealthField) -> MoId;

    /// Chooses up to `slots` of `ready` (non-empty, ascending ids) to
    /// dispatch concurrently, in priority order — the fleet engine fills
    /// its active queue from this set and keeps the rest pending (the
    /// stalled queue lives engine-side: a *dispatched* MO that cannot move
    /// this cycle holds in place, it is not returned to the scheduler).
    ///
    /// The default iterates [`MoScheduler::pick`] over the shrinking ready
    /// set, so a scheduler's serial preference order and its dispatch
    /// order can never disagree — which is what makes `FleetConfig`'s
    /// serial mode bit-identical to the serial engine.
    fn dispatch(
        &mut self,
        ready: &[MoId],
        plan: &BioassayPlan,
        health: &HealthField,
        slots: usize,
    ) -> Vec<MoId> {
        let mut remaining = ready.to_vec();
        let mut out = Vec::new();
        while out.len() < slots && !remaining.is_empty() {
            let mo = self.pick(&remaining, plan, health);
            remaining.retain(|&m| m != mo);
            out.push(mo);
        }
        out
    }
}

/// Plan-order scheduling: always the lowest-id ready operation — the
/// execution order of the paper's experiments.
#[derive(Debug, Clone, Copy, Default)]
pub struct FifoScheduler;

impl FifoScheduler {
    /// Creates the FIFO scheduler.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

impl MoScheduler for FifoScheduler {
    fn name(&self) -> &str {
        "fifo"
    }

    fn pick(&mut self, ready: &[MoId], _plan: &BioassayPlan, _health: &HealthField) -> MoId {
        ready[0]
    }
}

/// Health-aware scheduling (the paper's future-work extension): among the
/// ready operations, execute the one whose routing corridors are currently
/// healthiest, deferring work through degraded regions until they must run.
///
/// Deferral helps in two ways: an op scheduled later may find its corridor
/// re-planned around (the adaptive router sees fresher health), and
/// spreading execution across chip regions evens out wear between parallel
/// branches.
#[derive(Debug, Clone, Copy, Default)]
pub struct HealthAwareScheduler;

impl HealthAwareScheduler {
    /// Creates the health-aware scheduler.
    #[must_use]
    pub fn new() -> Self {
        Self
    }

    /// Mean per-cell relative force over the union of the operation's job
    /// corridors — the health score used for ordering.
    #[must_use]
    pub fn corridor_health(plan: &BioassayPlan, mo: MoId, health: &HealthField) -> f64 {
        let jobs = plan.jobs_for(mo);
        let mut total = 0.0;
        let mut count = 0u32;
        for job in jobs {
            let bounds: Rect = job.bounds;
            total += mean_force(health, bounds) * bounds.area() as f64;
            count += bounds.area();
        }
        if count == 0 {
            1.0
        } else {
            total / f64::from(count)
        }
    }
}

impl MoScheduler for HealthAwareScheduler {
    fn name(&self) -> &str {
        "health-aware"
    }

    fn pick(&mut self, ready: &[MoId], plan: &BioassayPlan, health: &HealthField) -> MoId {
        // Seed the scan with the first ready MO instead of unwrapping a
        // `max_by` — the engine's contract makes `ready` non-empty.
        // Strict `>` keeps the *first* maximum: equal-health corridors
        // resolve to the lowest MoId, a pure function of the tie set. (The
        // old `>=` kept the last maximum — the *slice-order* tail of the
        // ties, which under concurrent stalls depends on dispatch history:
        // the same tie set could order differently depending on which
        // peers happened to be in flight.)
        let mut best = ready[0];
        let mut best_health = Self::corridor_health(plan, best, health);
        for &mo in &ready[1..] {
            let h = Self::corridor_health(plan, mo, health);
            if h.total_cmp(&best_health).is_gt() {
                best = mo;
                best_health = h;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meda_bioassay::{benchmarks, RjHelper};
    use meda_degradation::HealthLevel;
    use meda_grid::{Cell, ChipDims, Grid};

    fn setup() -> (BioassayPlan, HealthField) {
        let dims = ChipDims::PAPER;
        let plan = RjHelper::new(dims)
            .plan(&benchmarks::multiplex_invitro((4, 4)))
            .unwrap();
        let health = HealthField::new(Grid::new(dims, HealthLevel::full(2)), 2);
        (plan, health)
    }

    #[test]
    fn fifo_picks_lowest_id() {
        let (plan, health) = setup();
        let mut s = FifoScheduler::new();
        assert_eq!(s.pick(&[2, 5, 7], &plan, &health), 2);
        assert_eq!(s.name(), "fifo");
    }

    #[test]
    fn health_aware_matches_fifo_on_a_uniform_chip() {
        // With identical corridor health the tie-break is the lowest MoId
        // — exactly FIFO's choice.
        let (plan, health) = setup();
        let mut s = HealthAwareScheduler::new();
        assert_eq!(s.pick(&[4, 5], &plan, &health), 4);
    }

    #[test]
    fn equal_health_ties_resolve_by_mo_id_not_slice_history() {
        // Regression for the concurrent-stall tie-break: under the fleet
        // engine the ready set's *contents* vary with which peers are in
        // flight, so the tie-break must be a pure function of the tie set
        // (lowest MoId), not of where a tie happens to sit in the slice.
        let (plan, health) = setup();
        let mut s = HealthAwareScheduler::new();
        // The multiplex assay's mixes 4 and 5 have equal corridor health
        // on a uniform chip.
        let h4 = HealthAwareScheduler::corridor_health(&plan, 4, &health);
        let h5 = HealthAwareScheduler::corridor_health(&plan, 5, &health);
        assert_eq!(h4.total_cmp(&h5), std::cmp::Ordering::Equal);
        // Whatever subset of the ties is ready, the lowest id wins …
        assert_eq!(s.pick(&[4, 5], &plan, &health), 4);
        assert_eq!(s.pick(&[5], &plan, &health), 5);
        // … and the dispatch set enumerates ties in id order.
        assert_eq!(s.dispatch(&[4, 5], &plan, &health, 2), vec![4, 5]);
    }

    #[test]
    fn default_dispatch_respects_slots_and_pick_order() {
        let (plan, health) = setup();
        let mut fifo = FifoScheduler::new();
        assert_eq!(fifo.dispatch(&[2, 5, 7], &plan, &health, 2), vec![2, 5]);
        assert_eq!(fifo.dispatch(&[2], &plan, &health, 4), vec![2]);
        assert!(fifo.dispatch(&[2, 5], &plan, &health, 0).is_empty());
    }

    #[test]
    fn health_aware_prefers_the_healthier_corridor() {
        let (plan, _) = setup();
        // The multiplex assay's two mixes (ids 4 and 5) run in the south
        // and north halves; degrade the south corridor.
        let dims = ChipDims::PAPER;
        let mut grid = Grid::new(dims, HealthLevel::full(2));
        for cell in plan.jobs_for(4)[0].bounds.cells() {
            grid[Cell::new(cell.x, cell.y)] = HealthLevel::new(1, 2);
        }
        let health = HealthField::new(grid, 2);
        let mut s = HealthAwareScheduler::new();
        assert_eq!(s.pick(&[4, 5], &plan, &health), 5);
        let h4 = HealthAwareScheduler::corridor_health(&plan, 4, &health);
        let h5 = HealthAwareScheduler::corridor_health(&plan, 5, &health);
        assert!(h4 < h5);
    }
}
