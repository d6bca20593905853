use std::time::{Duration, Instant};

use meda_core::{ActionConfig, BuildError, ForceProvider, MdpStats, RoutingMdp};
use meda_grid::Rect;

use crate::{synthesize, Query};

/// One row of the Table V measurement: model size plus the wall-clock split
/// between model construction and strategy synthesis.
#[derive(Debug, Clone, Copy)]
pub struct PerfRecord {
    /// RJ-area edge lengths `(w_h, h_h)`.
    pub rj_area: (u32, u32),
    /// Droplet size `(w, h)`.
    pub droplet: (u32, u32),
    /// Model-size statistics (#states, #transitions, #choices).
    pub stats: MdpStats,
    /// Time to construct the MDP.
    pub construction: Duration,
    /// Time to run value iteration and extract the strategy.
    pub synthesis: Duration,
}

impl PerfRecord {
    /// Total time (construction + synthesis).
    #[must_use]
    pub fn total(&self) -> Duration {
        self.construction + self.synthesis
    }
}

/// Measures model construction and synthesis time for a routing job — the
/// harness behind the Table V reproduction.
///
/// The droplet starts in the south-west corner of the hazard area and must
/// reach the north-east corner, the worst case for state-space coverage.
///
/// # Errors
///
/// Propagates [`BuildError`] for inconsistent geometry.
pub fn measure_synthesis(
    area: (u32, u32),
    droplet: (u32, u32),
    field: &dyn ForceProvider,
    config: &ActionConfig,
    query: Query,
) -> Result<PerfRecord, BuildError> {
    let (aw, ah) = area;
    let (dw, dh) = droplet;
    let bounds = Rect::new(1, 1, aw as i32, ah as i32);
    let start = Rect::with_size(1, 1, dw, dh);
    let goal = Rect::with_size(aw as i32 - dw as i32 + 1, ah as i32 - dh as i32 + 1, dw, dh);

    let t0 = Instant::now();
    let mdp = RoutingMdp::build(start, goal, bounds, field, config)?;
    let construction = t0.elapsed();

    let t1 = Instant::now();
    // The timing target is the solve itself; infeasibility is a valid,
    // timed outcome (Algorithm 2's (∅, ∞)).
    let _ = synthesize(&mdp, query);
    let synthesis = t1.elapsed();

    Ok(PerfRecord {
        rj_area: area,
        droplet,
        stats: mdp.stats(),
        construction,
        synthesis,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use meda_core::UniformField;

    #[test]
    fn measures_a_table_v_cell() {
        let rec = measure_synthesis(
            (10, 10),
            (3, 3),
            &UniformField::new(0.9),
            &ActionConfig::cardinal_only(),
            Query::MinExpectedCycles,
        )
        .unwrap();
        assert_eq!(rec.stats.states, 64);
        assert!(rec.total() >= rec.construction);
    }

    #[test]
    fn smaller_droplet_bigger_model() {
        let field = UniformField::new(0.9);
        let config = ActionConfig::cardinal_only();
        let small =
            measure_synthesis((20, 20), (3, 3), &field, &config, Query::MinExpectedCycles).unwrap();
        let large =
            measure_synthesis((20, 20), (6, 6), &field, &config, Query::MinExpectedCycles).unwrap();
        assert!(small.stats.states > large.stats.states);
        assert!(small.stats.transitions > large.stats.transitions);
    }

    #[test]
    fn bad_geometry_propagates() {
        let field = UniformField::new(0.9);
        let config = ActionConfig::cardinal_only();
        // Droplet larger than the area.
        assert!(
            measure_synthesis((5, 5), (6, 6), &field, &config, Query::MinExpectedCycles).is_err()
        );
    }
}
