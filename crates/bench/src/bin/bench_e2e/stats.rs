//! Order statistics under the benchmark's reporting rules.
#![forbid(unsafe_code)]

/// Samples that must lie strictly beyond a tail percentile before it is
/// reported: a p99 needs 1 000 samples, a p99.9 needs 10 000.
pub const MIN_BEYOND: usize = 10;

/// Median of ascending `sorted` (mean of the middle pair for even counts),
/// `None` when empty.
pub fn median(sorted: &[u64]) -> Option<f64> {
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2] as f64),
        _ => Some((sorted[n / 2 - 1] as f64 + sorted[n / 2] as f64) / 2.0),
    }
}

/// Nearest-rank tail percentile (`per_mille` = 990 for p99) of ascending
/// `sorted`, reported only when at least [`MIN_BEYOND`] samples lie beyond
/// it.
pub fn percentile(sorted: &[u64], per_mille: usize) -> Option<u64> {
    let n = sorted.len();
    let rank = (per_mille * n).div_ceil(1000).clamp(1, n.max(1));
    (n > 0 && n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Median of unsorted floats, `None` when empty.
pub fn median_f64(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartiles as Python's `statistics.quantiles(values,
/// n=4)` computes them (the default "exclusive" method), so spreads read
/// the same here as in any script that re-checks them. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentiles_need_ten_samples_beyond() {
        let sorted: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&sorted, 990), Some(990));
        assert_eq!(percentile(&sorted[..999], 990), None);
        assert_eq!(percentile(&sorted, 999), None);
        let many: Vec<u64> = (1..=10_000).collect();
        assert_eq!(percentile(&many, 999), Some(9990));
        assert_eq!(percentile(&sorted[..20], 500), Some(10));
        assert_eq!(percentile(&sorted[..19], 500), None);
        assert_eq!(percentile(&[], 500), None);
    }

    #[test]
    fn medians_need_no_tail() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[7]), Some(7.0));
        assert_eq!(median(&[1, 2, 3, 10]), Some(2.5));
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median_f64(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([4, 1, 3], n=4) == [1.0, 3.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0]), Some((1.0, 4.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
