//! Order statistics over small samples of rep times.

/// Smallest value; `NaN` for an empty sample.
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NAN, f64::min)
}

/// Linear-interpolation quantile (`q` in `[0, 1]`) of an unsorted sample —
/// the "inclusive" method, so `quantile(xs, 0.5)` is the usual median.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of an unsorted sample.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Interquartile range as a percentage of the median.
pub fn iqr_pct(xs: &[f64]) -> f64 {
    let m = median(xs);
    if m == 0.0 || m.is_nan() {
        return 0.0;
    }
    100.0 * (quantile(xs, 0.75) - quantile(xs, 0.25)) / m
}

/// Nearest-rank percentile (`num/den`) of a sorted integer sample: the
/// smallest value with at least `num/den` of the sample at or below it —
/// the rule `smartssd_sim::LatencyStats` uses, so the two agree exactly.
pub fn nearest_rank(sorted: &[u64], num: usize, den: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[(sorted.len() * num).div_ceil(den).max(1) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_median_quartiles() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(min(&xs), 1.0);
        assert_eq!(median(&xs), 3.0);
        assert_eq!(quantile(&xs, 0.25), 2.0);
        assert_eq!(quantile(&xs, 0.75), 4.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert!((iqr_pct(&xs) - 100.0 * 2.0 / 3.0).abs() < 1e-9);
        assert!(min(&[]).is_nan() && median(&[]).is_nan());
        assert_eq!(iqr_pct(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_matches_latency_stats() {
        use smartssd_sim::{LatencyStats, SimTime};
        for n in [1usize, 2, 16, 40, 128, 1000] {
            let sample: Vec<u64> = (0..n as u64).map(|i| (i * 7919) % 1009).collect();
            let stats = LatencyStats::from_sample(
                &sample
                    .iter()
                    .map(|&v| SimTime::from_nanos(v))
                    .collect::<Vec<_>>(),
            );
            let mut sorted = sample.clone();
            sorted.sort_unstable();
            assert_eq!(
                nearest_rank(&sorted, 99, 100),
                stats.p99.as_nanos(),
                "n={n}"
            );
            assert_eq!(
                nearest_rank(&sorted, 50, 100),
                stats.p50.as_nanos(),
                "n={n}"
            );
        }
        assert_eq!(nearest_rank(&[], 99, 100), 0);
    }
}
