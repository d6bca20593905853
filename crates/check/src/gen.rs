//! Generator combinators over [`meda_rng`].
//!
//! A [`Gen<T>`] is a function from a seeded [`StdRng`] to a shrink
//! [`Tree<T>`]: generation and shrinking are one pipeline, so every
//! combinator — [`Gen::map`], [`Gen::flat_map`], [`choose`], [`vec_of`],
//! [`weighted`] — transports invariants onto shrunk candidates for free.
//!
//! Determinism: a generator consumes randomness only from the `StdRng` it
//! is handed, and [`Gen::flat_map`] freezes an inner seed drawn from the
//! outer stream, so the same seed always yields the same tree — the
//! foundation of the corpus replay in [`crate::runner`].

use std::rc::Rc;

use meda_rng::{Rng, SeedableRng, StdRng};

use crate::tree::{bind, int_tree, Tree};

/// How many regeneration attempts [`Gen::filter`] makes before giving up
/// and yielding the last candidate unfiltered (the property then sees a
/// value violating the predicate and should treat it as a skip).
const FILTER_RETRIES: usize = 100;

/// The boxed generation function inside a [`Gen`].
type RunFn<T> = Rc<dyn Fn(&mut StdRng) -> Tree<T>>;

/// A random generator of shrinkable `T` values.
pub struct Gen<T> {
    run: RunFn<T>,
}

impl<T> Clone for Gen<T> {
    fn clone(&self) -> Self {
        Self {
            run: Rc::clone(&self.run),
        }
    }
}

impl<T: Clone + 'static> Gen<T> {
    /// Wraps a raw tree-producing function.
    pub fn new(run: impl Fn(&mut StdRng) -> Tree<T> + 'static) -> Self {
        Self { run: Rc::new(run) }
    }

    /// A generator that always yields `value` (no shrinking).
    pub fn constant(value: T) -> Self {
        Self::new(move |_| Tree::leaf(value.clone()))
    }

    /// Generates one shrink tree from `rng`.
    #[must_use]
    pub fn generate(&self, rng: &mut StdRng) -> Tree<T> {
        (self.run)(rng)
    }

    /// Applies `f` to the generated value and to every shrink candidate.
    #[must_use]
    pub fn map<U: Clone + 'static>(self, f: impl Fn(&T) -> U + 'static) -> Gen<U> {
        let f: Rc<dyn Fn(&T) -> U> = Rc::new(f);
        Gen::new(move |rng| self.generate(rng).map(Rc::clone(&f)))
    }

    /// Monadic bind with integrated shrinking: the outer value shrinks
    /// first, regenerating the inner value from a frozen seed so the
    /// dependent structure stays consistent; then the inner value shrinks.
    #[must_use]
    pub fn flat_map<U: Clone + 'static>(self, k: impl Fn(&T) -> Gen<U> + 'static) -> Gen<U> {
        type Kleisli<T, U> = Rc<dyn Fn(&T) -> Gen<U>>;
        let k: Kleisli<T, U> = Rc::new(k);
        Gen::new(move |rng| {
            let outer = self.generate(rng);
            let inner_seed: u64 = rng.gen();
            let k = Rc::clone(&k);
            bind(
                &outer,
                Rc::new(move |v: &T| {
                    let mut inner_rng = StdRng::seed_from_u64(inner_seed);
                    k(v).generate(&mut inner_rng)
                }),
            )
        })
    }

    /// Pairs this generator with another; both components shrink.
    #[must_use]
    pub fn zip<U: Clone + 'static>(self, other: Gen<U>) -> Gen<(T, U)> {
        self.flat_map(move |a| {
            let a = a.clone();
            other.clone().map(move |b| (a.clone(), b.clone()))
        })
    }

    /// Keeps only values satisfying `keep`, regenerating up to
    /// `FILTER_RETRIES` (100) times; shrink candidates violating `keep` are
    /// pruned so shrinking cannot escape the predicate.
    #[must_use]
    pub fn filter(self, keep: impl Fn(&T) -> bool + 'static) -> Gen<T> {
        let keep: Rc<dyn Fn(&T) -> bool> = Rc::new(keep);
        Gen::new(move |rng| {
            let mut tree = self.generate(rng);
            for _ in 0..FILTER_RETRIES {
                if keep(tree.value()) {
                    break;
                }
                tree = self.generate(rng);
            }
            tree.prune(Rc::clone(&keep))
        })
    }
}

/// Uniform integer in `lo..=hi`, shrinking toward `lo` by binary halving.
///
/// # Panics
///
/// Panics if `lo > hi`.
#[must_use]
pub fn choose(lo: i64, hi: i64) -> Gen<i64> {
    assert!(lo <= hi, "choose: empty range {lo}..={hi}");
    Gen::new(move |rng| {
        let v = rng.gen_range(lo..=hi);
        int_tree(v, lo)
    })
}

/// [`choose`] cast to `u32` (for widths, sizes, counts).
#[must_use]
pub fn choose_u32(lo: u32, hi: u32) -> Gen<u32> {
    choose(i64::from(lo), i64::from(hi)).map(|&v| {
        debug_assert!(v >= 0);
        v.unsigned_abs() as u32
    })
}

/// [`choose`] cast to `i32` (for coordinates).
#[must_use]
pub fn choose_i32(lo: i32, hi: i32) -> Gen<i32> {
    choose(i64::from(lo), i64::from(hi)).map(|&v| v as i32)
}

/// [`choose`] cast to `usize` (for lengths and indices).
#[must_use]
pub fn choose_usize(lo: usize, hi: usize) -> Gen<usize> {
    choose(lo as i64, hi as i64).map(|&v| v.unsigned_abs() as usize)
}

/// Uniform `f64` in `[lo, hi)`, shrinking toward `lo` by halving the
/// distance (with a relative cutoff so float shrinking terminates).
///
/// # Panics
///
/// Panics if `lo >= hi` or either bound is not finite.
#[must_use]
pub fn f64_range(lo: f64, hi: f64) -> Gen<f64> {
    assert!(
        lo < hi && lo.is_finite() && hi.is_finite(),
        "f64_range: bad range"
    );
    let cutoff = (hi - lo) * 1e-3;
    Gen::new(move |rng| {
        let v = rng.gen_range(lo..hi);
        f64_tree(v, lo, cutoff)
    })
}

fn f64_tree(value: f64, origin: f64, cutoff: f64) -> Tree<f64> {
    Tree::with_children(value, move || {
        let mut out = Vec::new();
        let mut step = value - origin;
        while step > cutoff {
            out.push(f64_tree(value - step, origin, cutoff));
            step /= 2.0;
        }
        out
    })
}

/// Uniform boolean; `true` shrinks to `false`.
#[must_use]
pub fn boolean() -> Gen<bool> {
    Gen::new(|rng| {
        let v = rng.gen_bool(0.5);
        if v {
            Tree::with_children(true, || vec![Tree::leaf(false)])
        } else {
            Tree::leaf(false)
        }
    })
}

/// Picks one of `items` uniformly, shrinking toward the first element.
///
/// # Panics
///
/// Panics if `items` is empty.
#[must_use]
pub fn element<T: Clone + 'static>(items: Vec<T>) -> Gen<T> {
    assert!(!items.is_empty(), "element: empty choice list");
    choose_usize(0, items.len() - 1).map(move |&i| items[i].clone())
}

/// Runs one of `alternatives` uniformly at random; the *choice index*
/// shrinks toward 0, regenerating from the earlier alternative with the
/// same frozen seed, and the chosen value then shrinks normally.
///
/// # Panics
///
/// Panics if `alternatives` is empty.
#[must_use]
pub fn one_of<T: Clone + 'static>(alternatives: Vec<Gen<T>>) -> Gen<T> {
    assert!(!alternatives.is_empty(), "one_of: empty alternative list");
    choose_usize(0, alternatives.len() - 1).flat_map(move |&i| alternatives[i].clone())
}

/// Like [`one_of`] with non-negative integer weights; weight-0 entries are
/// never generated (but remain shrink targets if listed earlier).
///
/// # Panics
///
/// Panics if the total weight is zero.
#[must_use]
pub fn weighted<T: Clone + 'static>(entries: Vec<(u32, Gen<T>)>) -> Gen<T> {
    let total: u64 = entries.iter().map(|(w, _)| u64::from(*w)).sum();
    assert!(total > 0, "weighted: zero total weight");
    let gens: Vec<Gen<T>> = entries.iter().map(|(_, g)| g.clone()).collect();
    let weights: Vec<u64> = entries.iter().map(|(w, _)| u64::from(*w)).collect();
    Gen::new(move |rng| {
        let mut roll = rng.gen_range(0..total);
        let mut pick = 0usize;
        for (i, w) in weights.iter().enumerate() {
            if roll < *w {
                pick = i;
                break;
            }
            roll -= *w;
        }
        // Freeze a seed and delegate to the index-shrinking path so the
        // chosen alternative can fall back to earlier (lighter) entries.
        let seed: u64 = rng.gen();
        let tree = int_tree(pick as i64, 0);
        let gens = gens.clone();
        bind(
            &tree,
            Rc::new(move |&i: &i64| {
                let mut inner = StdRng::seed_from_u64(seed);
                gens[i.unsigned_abs() as usize].generate(&mut inner)
            }),
        )
    })
}

/// A vector of `lo..=hi` elements from `elem`. Shrinks by dropping
/// elements (never below `lo`) and by shrinking individual elements.
#[must_use]
pub fn vec_of<T: Clone + 'static>(elem: Gen<T>, lo: usize, hi: usize) -> Gen<Vec<T>> {
    assert!(lo <= hi, "vec_of: empty length range");
    Gen::new(move |rng| {
        let n = rng.gen_range(lo..=hi);
        let elems: Vec<Tree<T>> = (0..n).map(|_| elem.generate(rng)).collect();
        vec_tree(elems, lo)
    })
}

/// Shrink tree over a vector of element trees: candidate order is
/// element-removal (front to back), then per-element shrinks.
fn vec_tree<T: Clone + 'static>(elems: Vec<Tree<T>>, min_len: usize) -> Tree<Vec<T>> {
    let value: Vec<T> = elems.iter().map(|t| t.value().clone()).collect();
    Tree::with_children(value, move || {
        let mut out = Vec::new();
        if elems.len() > min_len {
            for skip in 0..elems.len() {
                let shorter: Vec<Tree<T>> = elems
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != skip)
                    .map(|(_, t)| t.clone())
                    .collect();
                out.push(vec_tree(shorter, min_len));
            }
        }
        for (i, t) in elems.iter().enumerate() {
            for candidate in t.children() {
                let mut next = elems.clone();
                next[i] = candidate;
                out.push(vec_tree(next, min_len));
            }
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn choose_stays_in_range_and_shrinks_to_lo() {
        let g = choose(3, 17);
        for _ in 0..200 {
            let t = g.generate(&mut rng());
            assert!((3..=17).contains(t.value()));
            if let Some(first) = t.children().first() {
                assert_eq!(*first.value(), 3);
            }
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let g = vec_of(choose(0, 100), 0, 10);
        let a = g.generate(&mut rng());
        let b = g.generate(&mut rng());
        assert_eq!(a.value(), b.value());
    }

    #[test]
    fn flat_map_preserves_dependency_under_shrinking() {
        // Pairs (n, v) with v < n must keep the invariant on every
        // candidate the shrinker can ever visit.
        let g = choose(1, 50).flat_map(|&n| choose(0, n - 1).map(move |&v| (n, v)));
        let mut r = rng();
        for _ in 0..50 {
            let t = g.generate(&mut r);
            let mut stack = vec![t];
            let mut visited = 0;
            while let Some(node) = stack.pop() {
                let (n, v) = *node.value();
                assert!(v < n, "invariant broken: ({n}, {v})");
                visited += 1;
                if visited > 200 {
                    break;
                }
                stack.extend(node.children());
            }
        }
    }

    #[test]
    fn filter_prunes_shrink_candidates() {
        let g = choose(0, 100).filter(|&v| v % 2 == 1);
        let mut r = rng();
        for _ in 0..50 {
            let t = g.generate(&mut r);
            assert!(*t.value() % 2 == 1);
            for c in t.children() {
                assert!(*c.value() % 2 == 1);
            }
        }
    }

    #[test]
    fn vec_shrinks_by_removal_and_respects_min_len() {
        let g = vec_of(choose(0, 9), 2, 6);
        let mut r = rng();
        for _ in 0..50 {
            let t = g.generate(&mut r);
            assert!((2..=6).contains(&t.value().len()));
            for c in t.children() {
                assert!(c.value().len() >= 2);
            }
        }
    }

    #[test]
    fn weighted_zero_weight_is_never_generated() {
        let g = weighted(vec![(0, Gen::constant(1u32)), (5, Gen::constant(2u32))]);
        let mut r = rng();
        for _ in 0..100 {
            assert_eq!(*g.generate(&mut r).value(), 2);
        }
    }
}
