//! Order statistics the benchmark reports with.
//!
//! A timing is reported at a percentile only while at least
//! [`MIN_BEYOND`] samples lie beyond it, so a "p99" is never one outlier;
//! where a declared percentile has fewer, the run says so beside it. The
//! end-to-end timings are read at a run's quartile block
//! (`outcome::Pace`). The *fastest* block is kept for the layer probes,
//! whose fixed work has a shortest time that interference only adds to
//! (README, "Noise").

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Percentiles tried by [`highest_supported`], lowest first.
pub const LADDER: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// Zero-based nearest-rank index of percentile `p` among `n` sorted
/// samples.
fn rank(n: usize, p: f64) -> usize {
    // The small slack keeps 99.9 % of 10 000 at rank 9 990: in floating
    // point the product is a hair above it.
    let r = (p * n as f64 / 100.0 - 1e-9).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Nearest-rank percentile of an ascending slice.
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least one sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p)]
}

/// The highest rung of [`LADDER`] that still has [`MIN_BEYOND`] samples
/// beyond it among `n`, or `None` when even the median has not.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rfind(|&p| n > 0 && n - 1 - rank(n, p) >= MIN_BEYOND)
}

/// Sorts a copy ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The shortest of the blocks' times.
///
/// # Panics
///
/// Panics on no blocks, like [`percentile`].
pub fn fastest_time(blocks: &[f64]) -> f64 {
    assert!(!blocks.is_empty(), "fastest of no blocks");
    blocks.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The highest of the blocks' rates.
pub fn fastest_rate(blocks: &[f64]) -> f64 {
    assert!(!blocks.is_empty(), "fastest of no blocks");
    blocks.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Median of a slice (mean of the two middle values for even counts).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of no samples");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive
/// method), so `compare` judges spreads exactly as the driver does.
/// Fewer than two values have no spread: all three are the value.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    assert!(!v.is_empty(), "quartiles of no samples");
    if v.len() < 2 {
        return (v[0], v[0], v[0]);
    }
    let n = v.len();
    let cut = |i: usize| {
        // Position (n + 1) · i / 4 on a 1-based axis, clamped to the data.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile distance as a share of the median — the spread the
/// driver holds against a metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        return 0.0;
    }
    (q3 - q1).abs() / q2.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn highest_supported_needs_ten_samples_beyond() {
        assert_eq!(highest_supported(0), None);
        assert_eq!(highest_supported(19), None);
        // 20 samples: the median is index 9, ten lie beyond it.
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(99), Some(50.0));
        // p90 of 100 is index 89; ten samples (90..=99) lie beyond.
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(999), Some(90.0));
        assert_eq!(highest_supported(1000), Some(99.0));
        assert_eq!(highest_supported(9_999), Some(99.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q2 - 5.5).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn the_fastest_block_ignores_the_slow_ones() {
        let times = [10.3, 10.1, 10.2, 10.0, 15.0, 18.0, 25.0, 40.0];
        assert_eq!(fastest_time(&times), 10.0);
        let rates = [97.0, 99.0, 100.0, 98.0, 60.0, 50.0, 40.0, 30.0];
        assert_eq!(fastest_rate(&rates), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }
}
