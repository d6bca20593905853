//! Timing wrappers around the simulator's public seams: the controller
//! (`Router`), the per-slot router supply (`RouterPool`) and the operation
//! scheduler (`MoScheduler`). Each forwards every call unchanged, so runs
//! stay bit-identical to unwrapped ones.
#![forbid(unsafe_code)]

use meda_bioassay::{BioassayPlan, MoId, RoutingJob};
use meda_core::{Action, HazardBox, HealthField};
use meda_grid::Rect;
use meda_sim::{AdaptiveConfig, AdaptiveRouter, MoScheduler, Router, RouterPool};

use crate::trace;

/// A router whose every controller call is timed as one `sim.adaptive`
/// call and one `decide` latency sample.
pub struct TimedRouter<R> {
    pub inner: R,
}

fn decide<T>(op: &'static str, f: impl FnOnce() -> T) -> T {
    let (out, ns) = trace::timed("sim.adaptive", op, f);
    trace::sample("decide", ns);
    out
}

impl<R: Router> Router for TimedRouter<R> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn begin_job(&mut self, job: &RoutingJob, health: &HealthField) -> bool {
        decide("sim.adaptive.begin_job", || {
            self.inner.begin_job(job, health)
        })
    }

    fn next_action(&mut self, droplet: Rect, health: &HealthField) -> Option<Action> {
        decide("sim.adaptive.next_action", || {
            self.inner.next_action(droplet, health)
        })
    }

    fn set_hazards(&mut self, boxes: &[HazardBox]) {
        decide("sim.adaptive.set_hazards", || self.inner.set_hazards(boxes));
    }
}

/// Records the adaptive router's own work counts once its trial is over.
pub fn record_router(router: &AdaptiveRouter) {
    trace::count("sim.adaptive.resynth_count", router.resynth_count());
    trace::count(
        "sim.adaptive.synthesis_ns",
        u64::try_from(router.synthesis_time().as_nanos()).unwrap_or(u64::MAX),
    );
}

/// The fleet's router supply: one timed [`AdaptiveRouter`] per slot, grown
/// on demand like `meda_sim::AdaptivePool`.
pub struct TimedPool {
    config: AdaptiveConfig,
    pub routers: Vec<TimedRouter<AdaptiveRouter>>,
}

impl TimedPool {
    pub fn new(config: AdaptiveConfig) -> Self {
        Self {
            config,
            routers: Vec::new(),
        }
    }
}

impl RouterPool for TimedPool {
    fn router(&mut self, slot: usize) -> &mut dyn Router {
        while self.routers.len() <= slot {
            self.routers.push(TimedRouter {
                inner: AdaptiveRouter::new(self.config),
            });
        }
        &mut self.routers[slot]
    }
}

/// A scheduler whose dispatch decisions are timed as `sim.fleet.dispatch`.
pub struct TimedScheduler<S> {
    pub inner: S,
}

impl<S: MoScheduler> MoScheduler for TimedScheduler<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn pick(&mut self, ready: &[MoId], plan: &BioassayPlan, health: &HealthField) -> MoId {
        trace::timed("sim.fleet.dispatch", "sim.fleet.pick", || {
            self.inner.pick(ready, plan, health)
        })
        .0
    }

    fn dispatch(
        &mut self,
        ready: &[MoId],
        plan: &BioassayPlan,
        health: &HealthField,
        slots: usize,
    ) -> Vec<MoId> {
        trace::timed("sim.fleet.dispatch", "sim.fleet.dispatch", || {
            self.inner.dispatch(ready, plan, health, slots)
        })
        .0
    }
}
