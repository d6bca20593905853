//! What every workload provides, and the pieces they share: the amount of
//! work, seed derivation, and the outcome digest.
#![forbid(unsafe_code)]

use crate::stats::median_f64;
use crate::trace::{self, Snapshot};

/// End-to-end figures of one measured phase.
pub struct Summary {
    pub attempted: u64,
    /// Operations that ended in an error: an unusable answer, not a
    /// simulated chip that legitimately ran out of cycles or routes.
    pub failed: u64,
    /// Operations whose outcome was a success: a trial reaching its five
    /// executions, a completed fleet run, an `ok` response, a certified
    /// strategy.
    pub succeeded: u64,
    /// Work completed per second, in the workload's own unit.
    pub throughput: f64,
    /// Median latency of the workload's latency-critical call, ms.
    pub p50_ms: Option<f64>,
    /// Tail latency of that call, ms.
    pub tail_ms: Option<f64>,
}

/// A workload does a fixed amount of work, counted in units: passes, or
/// requests for `serve-mixed`. The amount depends only on the arguments,
/// never on how fast the code runs, so two commits run the same inputs and
/// their per-layer totals compare one to one.
pub trait Workload: Sized {
    /// Units the reference machine completes per second at the seed
    /// commit (a 2-vCPU x86-64 VM); `--seconds S` runs
    /// [`units_for`]`(S)` of them.
    const UNITS_PER_SECOND: f64;
    /// Builds the inputs for `units` units from `seed`: everything the
    /// measured phase needs that a user would prepare once.
    fn setup(seed: u64, units: u64) -> Self;
    /// The measured phase: exactly `units` units.
    fn measure(&mut self, units: u64);
    /// Output checks, run untimed after the measured phase; returns the
    /// problems found.
    fn check(&mut self) -> Vec<String>;
    /// End-to-end figures of the measured phase.
    fn summarize(&self, snap: &Snapshot) -> Summary;
    /// Digest of the outputs the exact-count ledger pins.
    fn digest(&self) -> u64;
}

/// The units of `W` that take about `seconds` on the reference machine, at
/// least one.
pub fn units_for<W: Workload>(seconds: f64) -> u64 {
    ((seconds * W::UNITS_PER_SECOND).round() as u64).max(1)
}

/// One timed pass of a closed-loop workload.
pub struct Pass {
    pub digest: u64,
    /// Operations the pass completed.
    pub work: u64,
    pub ns: u64,
}

/// Runs passes `0..units`, timing each; `one(pass)` returns the pass's
/// digest and the operations it completed.
pub fn run_passes(units: u64, mut one: impl FnMut(u64) -> (u64, u64)) -> Vec<Pass> {
    (0..units)
        .map(|p| {
            let start = trace::now_ns();
            let (digest, work) = one(p);
            Pass {
                digest,
                work,
                ns: trace::now_ns() - start,
            }
        })
        .collect()
}

/// Closed-loop throughput: the median over passes of each pass's
/// operations per second. A slow spell of the host that covers fewer than
/// half of the passes barely moves it, where the rate over the whole phase
/// would take all of it.
pub fn median_rate(passes: &[Pass]) -> f64 {
    let rates: Vec<f64> = passes
        .iter()
        .map(|p| p.work as f64 * 1e9 / p.ns.max(1) as f64)
        .collect();
    median_f64(&rates).unwrap_or(0.0)
}

/// A seed for one input, derived from the run seed and the input's
/// coordinates (pass, assay, …) by splitmix64 mixing.
pub fn derive(seed: u64, parts: &[u64]) -> u64 {
    let mix = |mut z: u64| {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    parts.iter().fold(mix(seed), |h, &p| mix(h ^ mix(p)))
}

/// FNV-1a over 64-bit words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

impl Summary {
    /// Share of attempted operations that succeeded.
    pub fn success_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.succeeded as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        assert_eq!(derive(1, &[0, 3]), derive(1, &[0, 3]));
        assert_ne!(derive(1, &[0, 3]), derive(2, &[0, 3]));
        assert_ne!(derive(1, &[0, 3]), derive(1, &[3, 0]));
        assert_ne!(derive(1, &[1]), derive(1, &[0, 1]));
    }

    #[test]
    fn a_slow_pass_leaves_the_rate_in_place() {
        let pass = |work, ns| Pass {
            digest: 0,
            work,
            ns,
        };
        let passes = [
            pass(10, 1_000_000_000),
            pass(20, 2_000_000_000),
            pass(10, 9_000_000_000),
        ];
        assert_eq!(median_rate(&passes), 10.0);
        assert_eq!(median_rate(&[]), 0.0);
    }
}
