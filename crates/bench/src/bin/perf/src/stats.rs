//! Order statistics for latency samples.

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of all samples at or below it. `0.0` for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Whether `n` samples support percentile `p`: at least ten samples must
/// lie beyond it, so p95 needs 200 samples and p50 needs 20.
pub fn supports(n: usize, p: f64) -> bool {
    (n as f64 * (100.0 - p) / 100.0).floor() >= 10.0
}

/// Nearest-rank median.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_an_actual_sample() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 100.0);
        assert_eq!(percentile(&v, 95.0), 190.0);
        assert_eq!(percentile(&v, 100.0), 200.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // Order of the input does not matter.
        let mut rev = v.clone();
        rev.reverse();
        assert_eq!(percentile(&rev, 95.0), 190.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn p95_needs_two_hundred_samples() {
        assert!(!supports(199, 95.0));
        assert!(supports(200, 95.0));
        assert!(!supports(19, 50.0));
        assert!(supports(20, 50.0));
        assert!(supports(1000, 99.0));
        assert!(!supports(999, 99.0));
    }
}
