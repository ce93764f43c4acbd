//! Latency statistics: nearest-rank percentiles and the rule for which
//! tail percentile a sample can support.

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `p` percent of the sample at or below it.
///
/// # Panics
///
/// Panics on an empty sample or `p` outside `(0, 100]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Number of samples strictly beyond the nearest-rank `p`-th percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    n - rank.clamp(1, n.max(1)).min(n)
}

/// The highest of p99 / p95 / p90 / p75 that has at least ten samples
/// beyond it, or `None` when even p75 does not (n < 40). A tail read off
/// fewer than ten samples is one scheduler hiccup, not a percentile.
pub fn supported_tail(n: usize) -> Option<f64> {
    [99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= 10)
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    v
}

pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 50.0)
}

pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 90.0), 9.0);
        assert_eq!(percentile(&s, 91.0), 10.0);
        assert_eq!(percentile(&s, 100.0), 10.0);
        assert_eq!(percentile(&s, 0.1), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        // 8000 samples: p99 is the 7920th, leaving 80 beyond.
        let big: Vec<f64> = (1..=8000).map(f64::from).collect();
        assert_eq!(percentile(&big, 99.0), 7920.0);
        assert_eq!(samples_beyond(8000, 99.0), 80);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(supported_tail(1000), Some(99.0));
        assert_eq!(supported_tail(999), Some(95.0));
        assert_eq!(samples_beyond(200, 95.0), 10);
        assert_eq!(supported_tail(200), Some(95.0));
        assert_eq!(supported_tail(199), Some(90.0));
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(40), Some(75.0));
        assert_eq!(supported_tail(39), None);
        assert_eq!(supported_tail(0), None);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0); // nearest rank, not interpolated
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
