//! Sample statistics: medians, nearest-rank percentiles and the tail rule.
//!
//! Percentiles are given in per-mille (`990` = p99) so every rank is an
//! exact integer computation.

/// Fewest samples that must lie strictly beyond a tail percentile for it
/// to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `permille` percentile in `n` samples.
pub fn rank(n: usize, permille: u32) -> usize {
    let r = (permille as usize * n).div_ceil(1000);
    r.clamp(1, n.max(1))
}

/// Samples strictly above the nearest-rank percentile in `n` samples.
pub fn beyond(n: usize, permille: u32) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, permille)
}

/// Fewest samples for which `permille` has [`TAIL_MIN_BEYOND`] samples
/// beyond it.
pub fn min_samples_for(permille: u32) -> usize {
    (1..)
        .find(|&n| beyond(n, permille) >= TAIL_MIN_BEYOND)
        .expect("unbounded search")
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of an unsorted, non-empty sample.
pub fn percentile(values: &[f64], permille: u32) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    sorted(values)[rank(values.len(), permille) - 1]
}

/// Median (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Arithmetic mean.
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of an empty sample");
    values.iter().sum::<f64>() / values.len() as f64
}

/// Failed share of attempted operations (0 when nothing was attempted).
pub fn failed_frac(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}
