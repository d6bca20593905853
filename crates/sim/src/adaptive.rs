use std::sync::Arc;
use std::time::{Duration, Instant};

use meda_bioassay::{BioassayPlan, RoutingJob};
use meda_core::{
    hazard_digest, Action, ActionConfig, HazardBox, HazardedField, HealthField, RoutingMdp,
};
use meda_grid::Rect;
use meda_synth::{synthesize, LibraryKey, Query, RoutingStrategy, StrategyLibrary};

use crate::Router;

/// Configuration of the adaptive formal-synthesis router.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AdaptiveConfig {
    /// Microfluidic action classes available to synthesis.
    pub actions: ActionConfig,
    /// Primary synthesis query (Algorithm 2 uses `Rmin`).
    pub query: Query,
    /// Whether to re-synthesize when the health matrix changes within the
    /// job's hazard bounds (the hybrid scheduler of Section VI-D). With
    /// `false`, the strategy synthesized at job start is used throughout —
    /// the "static synthesis" ablation.
    pub resynthesize: bool,
    /// Whether to keep and consult the strategy library (Section VI-D's
    /// hybrid scheduling). With `false` every job synthesizes from scratch
    /// — the pure-online scheduling ablation.
    pub use_library: bool,
}

impl AdaptiveConfig {
    /// The paper's configuration: all action classes, `Rmin` query,
    /// re-synthesis on health change, hybrid library scheduling.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            actions: ActionConfig::default(),
            query: Query::MinExpectedCycles,
            resynthesize: true,
            use_library: true,
        }
    }

    /// The pure-online scheduling ablation: synthesize on demand for every
    /// job, never caching (Section VI-D's strawman).
    #[must_use]
    pub fn pure_online() -> Self {
        Self {
            use_library: false,
            ..Self::paper()
        }
    }
}

/// The adaptive router of Section VI: per routing job it induces the MDP
/// from the current health matrix, synthesizes an optimal strategy
/// (Algorithm 2), and follows it; when the sensed health within the hazard
/// bounds changes, it re-synthesizes (Algorithm 3's hybrid scheduling,
/// with the [`StrategyLibrary`] serving repeat jobs). Every synthesis, at
/// job start or mid-job, is the same cold solve on the current field:
/// nothing from the superseded strategy seeds it.
///
/// If the `Rmin` query is infeasible (the goal is not almost-surely
/// reachable, e.g. a fault cluster blocks the only corridor), the router
/// falls back to the `Pmax` strategy, which still maximizes the chance of
/// getting through; only `Pmax = 0` makes it give up.
#[derive(Debug)]
pub struct AdaptiveRouter {
    config: AdaptiveConfig,
    library: StrategyLibrary,
    job: Option<RoutingJob>,
    digest: u64,
    /// The last health digest computed, keyed by the field's
    /// [`HealthField::stamp`] and the bounds: most cycles change no reading
    /// in the bounds, and then the digest needs no re-read of the cells.
    health_digest: Option<((u64, Rect), u64)>,
    strategy: Option<Arc<RoutingStrategy>>,
    resynth_count: u64,
    synthesis_time: Duration,
    /// Fleet hazard zones (peer corridors). Empty on the serial path, in
    /// which case every digest and synthesis below reduces byte-identically
    /// to the hazard-free behaviour.
    hazards: Vec<HazardBox>,
}

impl AdaptiveRouter {
    /// Creates an adaptive router. `AdaptiveConfig::default()` disables
    /// re-synthesis and the library; pass [`AdaptiveConfig::paper`] for the
    /// paper's hybrid setup.
    #[must_use]
    pub fn new(config: AdaptiveConfig) -> Self {
        Self {
            config,
            library: StrategyLibrary::new(),
            job: None,
            digest: 0,
            health_digest: None,
            strategy: None,
            resynth_count: 0,
            synthesis_time: Duration::ZERO,
            hazards: Vec::new(),
        }
    }

    /// The combined health + hazard digest over `bounds` — the quantity
    /// whose change triggers a re-solve. With no hazard intersecting the
    /// bounds this is exactly the health digest, keeping the serial path
    /// bit-identical.
    fn scoped_digest(&mut self, health: &HealthField, bounds: Rect) -> u64 {
        let key = (health.stamp(), bounds);
        let digest = match self.health_digest {
            Some((seen, digest)) if seen == key => digest,
            _ => {
                let digest = health.digest(bounds);
                self.health_digest = Some((key, digest));
                digest
            }
        };
        digest ^ hazard_digest(&self.hazards, bounds)
    }

    /// Pre-populates the strategy library offline for every routed job of a
    /// planned bioassay, assuming a fully healthy chip — the offline half
    /// of the paper's hybrid scheduling (Section VI-D: "a library of
    /// pre-synthesized strategies is first created offline … assuming no
    /// degradation"). Returns the number of strategies stored.
    pub fn warm_up(&mut self, plan: &BioassayPlan, health: &HealthField) -> usize {
        let mut stored = 0;
        for mo in plan.operations() {
            for job in &mo.jobs {
                if job.is_dispense() || job.goal.contains_rect(job.start) {
                    continue;
                }
                if self.synthesize_for(job, job.start, health).is_some() {
                    stored += 1;
                }
            }
        }
        stored
    }

    /// Total wall-clock time spent in strategy synthesis (library hits are
    /// free) — the online overhead the hybrid scheduler exists to hide.
    #[must_use]
    pub fn synthesis_time(&self) -> Duration {
        self.synthesis_time
    }

    /// Number of mid-job re-syntheses triggered by health changes.
    #[must_use]
    pub fn resynth_count(&self) -> u64 {
        self.resynth_count
    }

    /// The strategy library (hit/miss statistics for the hybrid-scheduler
    /// ablation).
    #[must_use]
    pub fn library(&self) -> &StrategyLibrary {
        &self.library
    }

    fn synthesize_for(
        &mut self,
        job: &RoutingJob,
        start: Rect,
        health: &HealthField,
    ) -> Option<Arc<RoutingStrategy>> {
        // Peer-corridor hazards fold into the library key: a corridor
        // shift changes the digest exactly like a health change, so stale
        // strategies are never replayed against a moved hazard.
        let digest = self.scoped_digest(health, job.bounds);
        let key = LibraryKey {
            start,
            goal: job.goal,
            bounds: job.bounds,
            health_digest: digest,
        };
        let telemetry = meda_telemetry::global();
        if self.config.use_library {
            if let Some(hit) = self.library.get(&key) {
                telemetry.add("synth.library.hits", 1);
                return Some(hit);
            }
            telemetry.add("synth.library.misses", 1);
        }
        let _job_span = telemetry.span("synth.job");
        let t0 = Instant::now();
        let result = (|| {
            let hazarded;
            let field: &dyn meda_core::ForceProvider =
                if self.hazards.iter().any(|b| b.rect.intersects(job.bounds)) {
                    hazarded = HazardedField::new(health, &self.hazards);
                    &hazarded
                } else {
                    health
                };
            let mdp =
                RoutingMdp::build(start, job.goal, job.bounds, field, &self.config.actions).ok()?;
            let strategy = synthesize(&mdp, self.config.query)
                .or_else(|_| synthesize(&mdp, Query::MaxReachProbability))
                .ok()?;
            if strategy.query() == Query::MaxReachProbability && strategy.value_at_init() <= 0.0 {
                return None;
            }
            Some(strategy)
        })();
        self.synthesis_time += t0.elapsed();
        let strategy = result?;
        if self.config.use_library {
            Some(self.library.insert(key, strategy))
        } else {
            Some(Arc::new(strategy))
        }
    }
}

impl Router for AdaptiveRouter {
    fn name(&self) -> &str {
        "adaptive"
    }

    fn begin_job(&mut self, job: &RoutingJob, health: &HealthField) -> bool {
        self.digest = self.scoped_digest(health, job.bounds);
        self.strategy = self.synthesize_for(job, job.start, health);
        self.job = Some(*job);
        self.strategy.is_some()
    }

    fn next_action(&mut self, droplet: Rect, health: &HealthField) -> Option<Action> {
        let job = self.job?;
        if self.config.resynthesize {
            let digest = self.scoped_digest(health, job.bounds);
            if digest != self.digest {
                self.digest = digest;
                // Re-synthesize from the droplet's *current* location.
                if let Some(strategy) = self.synthesize_for(&job, droplet, health) {
                    self.strategy = Some(strategy);
                    self.resynth_count += 1;
                }
                // If re-synthesis fails, keep following the stale strategy:
                // worse than fresh, better than freezing.
            }
        }
        if let Some(action) = self.strategy.as_ref()?.decide(droplet) {
            return Some(action);
        }
        // The droplet drifted off the synthesized state set (e.g. a partial
        // ordinal move under a stale strategy); re-synthesize from here.
        let refreshed = self.synthesize_for(&job, droplet, health)?;
        let action = refreshed.decide(droplet);
        self.strategy = Some(refreshed);
        action
    }

    fn set_hazards(&mut self, boxes: &[HazardBox]) {
        self.hazards = boxes.to_vec();
        // The next `next_action` sees a changed scoped digest and re-solves
        // from the droplet's current position.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meda_degradation::HealthLevel;
    use meda_grid::{Cell, ChipDims, Grid};

    fn full_health(dims: ChipDims) -> HealthField {
        HealthField::new(Grid::new(dims, HealthLevel::full(2)), 2)
    }

    fn job() -> RoutingJob {
        RoutingJob::new(
            Rect::new(1, 1, 3, 3),
            Rect::new(12, 1, 14, 3),
            Rect::new(1, 1, 16, 8),
        )
    }

    #[test]
    fn follows_synthesized_strategy_to_goal() {
        let dims = ChipDims::new(20, 10);
        let health = full_health(dims);
        let mut r = AdaptiveRouter::new(AdaptiveConfig::paper());
        assert!(r.begin_job(&job(), &health));
        let mut droplet = Rect::new(1, 1, 3, 3);
        let mut steps = 0;
        while !job().goal.contains_rect(droplet) {
            let a = r.next_action(droplet, &health).expect("action available");
            droplet = a.apply(droplet);
            steps += 1;
            assert!(steps < 100, "router is cycling");
        }
        // Pristine chip: double steps make this ~⌈11/2⌉ cycles.
        assert!(steps <= 11);
    }

    #[test]
    fn avoids_dead_wall_when_gap_exists() {
        let dims = ChipDims::new(20, 10);
        let mut grid = Grid::new(dims, HealthLevel::full(2));
        for y in 1..=6 {
            grid[Cell::new(8, y)] = HealthLevel::new(0, 2);
        }
        let health = HealthField::new(grid, 2);
        let mut r = AdaptiveRouter::new(AdaptiveConfig::paper());
        assert!(r.begin_job(&job(), &health), "gap at rows 7-8 is routable");
        // March the droplet with *successful* outcomes; it must never be
        // commanded into the dead column.
        let mut droplet = Rect::new(1, 1, 3, 3);
        for _ in 0..100 {
            if job().goal.contains_rect(droplet) {
                return;
            }
            let a = r.next_action(droplet, &health).expect("action");
            droplet = a.apply(droplet);
        }
        panic!("never reached the goal");
    }

    #[test]
    fn fully_blocked_job_reports_infeasible() {
        let dims = ChipDims::new(20, 10);
        let mut grid = Grid::new(dims, HealthLevel::full(2));
        for y in 1..=10 {
            grid[Cell::new(8, y)] = HealthLevel::new(0, 2);
        }
        let health = HealthField::new(grid, 2);
        let mut r = AdaptiveRouter::new(AdaptiveConfig::paper());
        assert!(!r.begin_job(&job(), &health));
    }

    #[test]
    fn resynthesizes_on_health_change() {
        let dims = ChipDims::new(20, 10);
        let mut r = AdaptiveRouter::new(AdaptiveConfig::paper());
        assert!(r.begin_job(&job(), &full_health(dims)));
        // Degrade a cell inside the bounds mid-job.
        let mut grid = Grid::new(dims, HealthLevel::full(2));
        grid[Cell::new(6, 2)] = HealthLevel::new(1, 2);
        let mut changed = HealthField::new(grid, 2);
        let _ = r.next_action(Rect::new(2, 1, 4, 3), &changed);
        assert_eq!(r.resynth_count(), 1);
        let _ = r.next_action(Rect::new(2, 1, 4, 3), &changed);
        assert_eq!(r.resynth_count(), 1, "an unchanged field is no change");
        // The same field degraded in place (as a chip keeps its **H**): the
        // memoized digest must not hide the change.
        changed.set_level(Cell::new(7, 2), HealthLevel::new(1, 2));
        let _ = r.next_action(Rect::new(2, 1, 4, 3), &changed);
        assert_eq!(r.resynth_count(), 2);
    }

    #[test]
    fn static_config_never_resynthesizes() {
        let dims = ChipDims::new(20, 10);
        let mut r = AdaptiveRouter::new(AdaptiveConfig {
            resynthesize: false,
            ..AdaptiveConfig::paper()
        });
        assert!(r.begin_job(&job(), &full_health(dims)));
        let mut grid = Grid::new(dims, HealthLevel::full(2));
        grid[Cell::new(6, 2)] = HealthLevel::new(1, 2);
        let changed = HealthField::new(grid, 2);
        let _ = r.next_action(Rect::new(2, 1, 4, 3), &changed);
        assert_eq!(r.resynth_count(), 0);
    }

    #[test]
    fn warm_up_prefills_the_library() {
        let dims = ChipDims::new(60, 30);
        let plan = meda_bioassay::RjHelper::new(dims)
            .plan(&meda_bioassay::benchmarks::master_mix())
            .unwrap();
        let health = full_health(dims);
        let mut r = AdaptiveRouter::new(AdaptiveConfig::paper());
        let stored = r.warm_up(&plan, &health);
        assert!(stored > 0);
        assert_eq!(r.library().len(), stored);
        // The first real job on the still-healthy chip is a library hit.
        let job = plan
            .operations()
            .iter()
            .flat_map(|mo| mo.jobs.iter())
            .find(|j| !j.is_dispense() && !j.goal.contains_rect(j.start))
            .copied()
            .unwrap();
        let hits_before = r.library().hits();
        assert!(r.begin_job(&job, &health));
        assert!(r.library().hits() > hits_before);
    }

    #[test]
    fn pure_online_never_stores_strategies() {
        let dims = ChipDims::new(20, 10);
        let health = full_health(dims);
        let mut r = AdaptiveRouter::new(AdaptiveConfig::pure_online());
        assert!(r.begin_job(&job(), &health));
        assert!(r.begin_job(&job(), &health));
        assert!(r.library().is_empty());
        assert_eq!(r.library().hits(), 0);
        assert!(r.synthesis_time() > std::time::Duration::ZERO);
    }

    #[test]
    fn hazard_shift_triggers_resynthesis_like_a_health_change() {
        let dims = ChipDims::new(20, 10);
        let health = full_health(dims);
        let mut r = AdaptiveRouter::new(AdaptiveConfig::paper());
        assert!(r.begin_job(&job(), &health));
        // A peer corridor appears inside the bounds mid-job: the scoped
        // digest changes and the next action re-solves.
        r.set_hazards(&[meda_core::HazardBox::soft(Rect::new(6, 1, 9, 6), 0.3)]);
        let _ = r.next_action(Rect::new(2, 1, 4, 3), &health);
        assert_eq!(r.resynth_count(), 1);
        // Releasing the corridor is another shift.
        r.set_hazards(&[]);
        let _ = r.next_action(Rect::new(3, 1, 5, 3), &health);
        assert_eq!(r.resynth_count(), 2);
    }

    #[test]
    fn hazards_outside_the_bounds_do_not_perturb_the_job() {
        let dims = ChipDims::new(20, 10);
        let health = full_health(dims);
        let mut r = AdaptiveRouter::new(AdaptiveConfig::paper());
        assert!(r.begin_job(&job(), &health));
        r.set_hazards(&[meda_core::HazardBox::wall(Rect::new(18, 9, 19, 10))]);
        let _ = r.next_action(Rect::new(2, 1, 4, 3), &health);
        assert_eq!(r.resynth_count(), 0, "far-away hazard must be invisible");
    }

    #[test]
    fn hazard_wall_still_reaches_the_goal_through_the_gap() {
        let dims = ChipDims::new(20, 10);
        let health = full_health(dims);
        let mut r = AdaptiveRouter::new(AdaptiveConfig::paper());
        // Wall off rows 1..=6 of column 8 with a hazard instead of dead
        // cells: same detour behaviour as `avoids_dead_wall_when_gap_exists`
        // — the job stays feasible and completes via the row 7–8 gap.
        r.set_hazards(&[meda_core::HazardBox::wall(Rect::new(8, 1, 8, 6))]);
        assert!(r.begin_job(&job(), &health), "hazard must not kill the job");
        let mut droplet = Rect::new(1, 1, 3, 3);
        for _ in 0..100 {
            if job().goal.contains_rect(droplet) {
                return;
            }
            let a = r.next_action(droplet, &health).expect("action");
            droplet = a.apply(droplet);
        }
        panic!("never reached the goal");
    }

    #[test]
    fn library_serves_repeat_jobs() {
        let dims = ChipDims::new(20, 10);
        let health = full_health(dims);
        let mut r = AdaptiveRouter::new(AdaptiveConfig::paper());
        assert!(r.begin_job(&job(), &health));
        assert!(r.begin_job(&job(), &health));
        assert!(r.library().hits() >= 1);
    }
}
