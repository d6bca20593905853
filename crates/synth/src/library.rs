use std::collections::BTreeMap;
use std::sync::Arc;

use meda_grid::Rect;

use crate::RoutingStrategy;

/// Key identifying a pre-synthesized strategy in the library: the routing
/// job geometry plus a digest of the health matrix within its hazard bounds
/// (Section VI-D).
///
/// Storing strategies for *all* health matrices is intractable (the paper
/// notes `|Ŝ| > 10^77` states for a modest chip), so the library keys on
/// the digest of the actually-observed **H** restricted to the job's hazard
/// bounds — health changes elsewhere on the chip don't invalidate the entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LibraryKey {
    /// Start droplet `δ_s`.
    pub start: Rect,
    /// Goal region `δ_g`.
    pub goal: Rect,
    /// Hazard bounds `δ_h`.
    pub bounds: Rect,
    /// Digest of the health matrix within `bounds`
    /// (see [`meda_core::HealthField::digest`]).
    pub health_digest: u64,
}

/// The offline/online hybrid strategy store of Section VI-D.
///
/// The scheduler first consults the library; on a miss it synthesizes
/// online, stores the result, and reuses it for identical future jobs.
/// When a health change is detected the digest changes, so stale strategies
/// are never returned — and since health levels only ever decrease, an
/// outdated entry can never become valid again, matching the paper's
/// replace-on-change policy.
///
/// # Examples
///
/// ```
/// use meda_grid::Rect;
/// use meda_synth::{LibraryKey, StrategyLibrary};
///
/// let mut lib = StrategyLibrary::new();
/// let key = LibraryKey {
///     start: Rect::new(1, 1, 3, 3),
///     goal: Rect::new(8, 8, 10, 10),
///     bounds: Rect::new(1, 1, 10, 10),
///     health_digest: 42,
/// };
/// assert!(lib.get(&key).is_none());
/// assert_eq!(lib.misses(), 1);
/// ```
#[derive(Debug, Default)]
pub struct StrategyLibrary {
    // BTreeMap rather than HashMap: any future iteration over the stored
    // strategies (exports, reports) must be deterministic — `RandomState`
    // hashing would order entries differently on every run.
    entries: BTreeMap<LibraryKey, Arc<RoutingStrategy>>,
    hits: u64,
    misses: u64,
}

impl StrategyLibrary {
    /// Creates an empty library.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up a strategy, counting a hit or miss.
    pub fn get(&mut self, key: &LibraryKey) -> Option<Arc<RoutingStrategy>> {
        match self.entries.get(key) {
            Some(strategy) => {
                self.hits += 1;
                Some(Arc::clone(strategy))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts (or replaces) a strategy. Replacement is the paper's policy:
    /// once **H** has changed, the old strategy can never become valid again
    /// because health never recovers.
    pub fn insert(&mut self, key: LibraryKey, strategy: RoutingStrategy) -> Arc<RoutingStrategy> {
        let arc = Arc::new(strategy);
        self.entries.insert(key, Arc::clone(&arc));
        arc
    }

    /// Number of stored strategies.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the library is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lookup hits so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookup misses so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{synthesize, Query};
    use meda_core::{ActionConfig, RoutingMdp, UniformField};

    fn strategy() -> RoutingStrategy {
        let mdp = RoutingMdp::build(
            Rect::new(1, 1, 2, 2),
            Rect::new(5, 5, 6, 6),
            Rect::new(1, 1, 6, 6),
            &UniformField::pristine(),
            &ActionConfig::cardinal_only(),
        )
        .unwrap();
        synthesize(&mdp, Query::MinExpectedCycles).unwrap()
    }

    fn key(digest: u64) -> LibraryKey {
        LibraryKey {
            start: Rect::new(1, 1, 2, 2),
            goal: Rect::new(5, 5, 6, 6),
            bounds: Rect::new(1, 1, 6, 6),
            health_digest: digest,
        }
    }

    #[test]
    fn hit_after_insert() {
        let mut lib = StrategyLibrary::new();
        lib.insert(key(1), strategy());
        assert!(lib.get(&key(1)).is_some());
        assert_eq!((lib.hits(), lib.misses()), (1, 0));
    }

    #[test]
    fn different_digest_misses() {
        let mut lib = StrategyLibrary::new();
        lib.insert(key(1), strategy());
        assert!(lib.get(&key(2)).is_none());
        assert_eq!((lib.hits(), lib.misses()), (0, 1));
    }

    #[test]
    fn insert_replaces_existing() {
        let mut lib = StrategyLibrary::new();
        lib.insert(key(1), strategy());
        lib.insert(key(1), strategy());
        assert_eq!(lib.len(), 1);
    }
}
