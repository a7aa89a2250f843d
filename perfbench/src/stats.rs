//! Percentiles by the rule the benchmark reports them with.
//!
//! A percentile is taken by nearest rank on the sorted samples, and only
//! reported when at least [`MIN_BEYOND`] samples lie beyond it — fewer
//! than that and the value is set by a handful of outliers.

/// Samples a reported percentile must have beyond it.
pub const MIN_BEYOND: usize = 10;

/// The percentile ladder tried by [`highest_supported`].
const LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps float error (99.99 % of 100 000 = 99 990.000…1)
    // from pushing an exact rank up by one.
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Samples strictly beyond the rank of percentile `p` among `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p).min(n)
}

/// Whether `n` samples support reporting percentile `p`.
pub fn supports(n: usize, p: f64) -> bool {
    n > 0 && beyond(n, p) >= MIN_BEYOND
}

/// The highest percentile of the ladder that `n` samples support.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER.into_iter().rev().find(|&p| supports(n, p))
}

/// Nearest-rank percentile of ascending `sorted` samples (0 when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        sorted[rank(sorted.len(), p) - 1]
    }
}

/// Sort samples ascending.
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Median of unsorted samples (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples.to_vec()), 50.0)
}

/// Percentile `p` of each of `windows` consecutive, equal-count slices of
/// `samples` (in time order), and the median of those per-window values.
/// A slow spell of the host that covers fewer than half of the windows
/// does not move the result.
pub fn window_median(samples: &[f64], windows: usize, p: f64) -> (f64, Vec<f64>) {
    let windows = windows.clamp(1, samples.len().max(1));
    let per = samples.len() / windows;
    let values: Vec<f64> = (0..windows)
        .map(|w| {
            let end = if w + 1 == windows { samples.len() } else { (w + 1) * per };
            percentile(&sorted(samples[w * per..end].to_vec()), p)
        })
        .collect();
    (median(&values), values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert!(!supports(999, 99.0));
        assert_eq!(beyond(1000, 99.0), 10);
        assert!(supports(1000, 99.0));
        assert!(!supports(1000, 99.9));
    }

    #[test]
    fn highest_supported_percentile_climbs_with_samples() {
        assert_eq!(highest_supported(0), None);
        assert_eq!(highest_supported(15), None);
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(5_000), Some(99.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
        assert_eq!(highest_supported(100_000), Some(99.99));
    }

    #[test]
    fn nearest_rank_picks_observed_values() {
        let s = sorted((1..=100).rev().map(f64::from).collect());
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn window_median_ignores_a_minority_of_slow_windows() {
        let mut samples = vec![1.0; 5_000];
        samples[2_000..3_000].iter_mut().for_each(|s| *s = 100.0);
        let (p99, per_window) = window_median(&samples, 5, 99.0);
        assert_eq!(per_window, [1.0, 1.0, 100.0, 1.0, 1.0]);
        assert_eq!(p99, 1.0);
        assert_eq!(window_median(&samples, 1, 99.0).0, percentile(&sorted(samples), 99.0));
    }
}
