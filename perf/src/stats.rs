//! Order statistics for latency samples and for the noise study.

/// Sorts samples ascending (NaN never occurs: every sample is a
/// difference of two clock readings).
pub fn sort(samples: &mut [f64]) {
    samples.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite sample"));
}

/// Nearest-rank quantile of an ascending slice; 0 when empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Median of values in any order.
pub fn median_of(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    median(&sorted)
}

/// The percentiles a report may quote, lowest first.
pub const TAILS: [f64; 4] = [0.9, 0.99, 0.999, 0.9999];

/// The highest of [`TAILS`] that still has at least ten samples beyond
/// it — a percentile resting on fewer is one or two slow requests, not
/// a property of the run. `None` when even p90 is unsupported.
pub fn highest_supported_tail(samples: usize) -> Option<f64> {
    TAILS
        .iter()
        .copied()
        .rfind(|q| samples as f64 * (1.0 - q) >= 10.0 - 1e-9)
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them —
/// the driver judges spreads with that function, so the noise study
/// must too. Needs at least two values.
pub fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let len = sorted.len();
    assert!(len >= 2, "quartiles need two values");
    let cut = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    let (q1, q3) = quartiles(&sorted);
    let mid = median(&sorted);
    if mid == 0.0 {
        0.0
    } else {
        (q3 - q1) / mid.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_tail(99), None);
        assert_eq!(highest_supported_tail(100), Some(0.9));
        assert_eq!(highest_supported_tail(999), Some(0.9));
        assert_eq!(highest_supported_tail(1_000), Some(0.99));
        assert_eq!(highest_supported_tail(9_999), Some(0.99));
        assert_eq!(highest_supported_tail(10_000), Some(0.999));
        assert_eq!(highest_supported_tail(100_000), Some(0.9999));
        assert_eq!(highest_supported_tail(10_000_000), Some(0.9999));
    }

    #[test]
    fn nearest_rank_quantiles() {
        let data: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&data, 0.5), 50.0);
        assert_eq!(quantile(&data, 0.9), 90.0);
        assert_eq!(quantile(&data, 0.99), 99.0);
        assert_eq!(quantile(&data, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
        assert_eq!(median_of(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), (1.5, 12.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
    }
}
