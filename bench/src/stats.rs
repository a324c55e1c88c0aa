//! Lap and percentile arithmetic.

/// Median of `values` (mean of the two middle values for an even
/// count); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in `(0, 1]`) of `values`: the smallest
/// sample with at least `p` of the samples at or below it. An observed
/// sample, never an interpolation. 0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Number of samples strictly beyond the nearest-rank percentile's
/// rank — the guide asks for at least ten beyond the highest reported
/// percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).clamp(1, n.max(1)).min(n)
}

/// Geometric mean of the positive entries; 0 when there are none.
pub fn geo_mean(values: &[f64]) -> f64 {
    let logs: Vec<f64> = values
        .iter()
        .filter(|v| **v > 0.0)
        .map(|v| v.ln())
        .collect();
    if logs.is_empty() {
        return 0.0;
    }
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn lap_median_ignores_one_slow_lap() {
        // Five laps' throughput with one hiccup: the median is a clean lap.
        assert_eq!(median(&[100.0, 101.0, 12.0, 99.0, 100.5]), 100.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 100.0);
        assert_eq!(percentile(&v, 0.95), 190.0);
        assert_eq!(percentile(&v, 1.0), 200.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        assert_eq!(percentile(&[], 0.95), 0.0);
    }

    #[test]
    fn two_hundred_samples_leave_ten_beyond_p95() {
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert_eq!(samples_beyond(27, 0.95), 1);
        assert_eq!(samples_beyond(0, 0.95), 0);
    }

    #[test]
    fn geo_mean_skips_non_positive() {
        assert!((geo_mean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!((geo_mean(&[0.0, 4.0, 9.0]) - 6.0).abs() < 1e-12);
        assert_eq!(geo_mean(&[]), 0.0);
    }
}
