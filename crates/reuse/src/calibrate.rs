//! Distance-threshold calibration.
//!
//! The hit test's distance threshold is the system's central knob: too
//! tight and reuse opportunities are wasted; too loose and wrong labels
//! are served. Deployments calibrate it from two empirical distance
//! samples — distances between keys of the *same* subject under small view
//! changes, and distances between keys of *different* classes — and pick
//! the cut that minimizes total classification error between the two
//! distributions.

use simcore::stats::percentile_sorted;

/// The result of a calibration run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// The chosen distance threshold.
    pub threshold: f64,
    /// Fraction of same-subject pairs that would be (correctly) accepted.
    pub same_acceptance: f64,
    /// Fraction of cross-class pairs that would be (wrongly) accepted.
    pub cross_acceptance: f64,
}

/// Picks the threshold minimizing `(rejected same) + (accepted cross)`
/// over a dense sweep of candidate cuts.
///
/// # Panics
///
/// Panics if either sample set is empty or contains non-finite values.
pub fn calibrate_threshold(same_subject: &[f64], cross_class: &[f64]) -> Calibration {
    assert!(
        !same_subject.is_empty() && !cross_class.is_empty(),
        "calibrate_threshold: both sample sets must be non-empty"
    );
    assert!(
        same_subject
            .iter()
            .chain(cross_class)
            .all(|d| d.is_finite() && *d >= 0.0),
        "calibrate_threshold: distances must be finite and non-negative"
    );
    let mut same = same_subject.to_vec();
    let mut cross = cross_class.to_vec();
    same.sort_by(f64::total_cmp);
    cross.sort_by(f64::total_cmp);

    // Candidate cuts: all observed distances (the error function only
    // changes at sample points) plus the midpoint between the supports.
    let mut candidates: Vec<f64> = same.iter().chain(cross.iter()).copied().collect();
    candidates.push((percentile_sorted(&same, 0.99) + percentile_sorted(&cross, 0.01)) / 2.0);
    candidates.sort_by(f64::total_cmp);
    candidates.dedup();

    let mut best = Calibration {
        // Non-empty by the asserts above; 0.0 is an inert fallback.
        threshold: candidates.first().copied().unwrap_or(0.0),
        same_acceptance: 0.0,
        cross_acceptance: 0.0,
    };
    let mut best_error = f64::INFINITY;
    for &cut in &candidates {
        let same_accepted = same.partition_point(|&d| d <= cut) as f64 / same.len() as f64;
        let cross_accepted = cross.partition_point(|&d| d <= cut) as f64 / cross.len() as f64;
        // Equal-weight error; a deployment could weight false accepts
        // higher, which only shifts the cut left.
        let error = (1.0 - same_accepted) + cross_accepted;
        if error < best_error {
            best_error = error;
            best = Calibration {
                threshold: cut,
                same_acceptance: same_accepted,
                cross_acceptance: cross_accepted,
            };
        }
    }
    // The error function is flat between consecutive sample points, so any
    // cut in [best, next sample) is equally optimal on the calibration
    // data. Centre the cut in that interval for robustness: fresh
    // same-subject pairs then have slack instead of sitting exactly at the
    // decision boundary.
    let next_sample = same
        .iter()
        .chain(cross.iter())
        .copied()
        .filter(|&d| d > best.threshold)
        .fold(f64::INFINITY, f64::min);
    if next_sample.is_finite() {
        best.threshold = (best.threshold + next_sample) / 2.0;
    }
    best
}

#[cfg(test)]
// Tests compare exactly-constructed floats; exact equality is intentional.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use simcore::SimRng;

    #[test]
    fn separable_distributions_get_a_clean_cut() {
        let mut rng = SimRng::seed(1);
        let same: Vec<f64> = (0..500).map(|_| rng.normal(0.5, 0.1).abs()).collect();
        let cross: Vec<f64> = (0..500).map(|_| rng.normal(5.0, 0.5).abs()).collect();
        let cal = calibrate_threshold(&same, &cross);
        assert!(
            cal.threshold > 0.8 && cal.threshold < 4.0,
            "threshold {}",
            cal.threshold
        );
        assert!(cal.same_acceptance > 0.99);
        assert!(cal.cross_acceptance < 0.01);
    }

    #[test]
    fn overlapping_distributions_balance_errors() {
        let mut rng = SimRng::seed(2);
        let same: Vec<f64> = (0..2000).map(|_| rng.normal(1.0, 0.3).abs()).collect();
        let cross: Vec<f64> = (0..2000).map(|_| rng.normal(2.0, 0.3).abs()).collect();
        let cal = calibrate_threshold(&same, &cross);
        // Optimal cut for equal-variance Gaussians is the midpoint.
        assert!(
            (cal.threshold - 1.5).abs() < 0.15,
            "threshold {}",
            cal.threshold
        );
        assert!(cal.same_acceptance > 0.9);
        assert!(cal.cross_acceptance < 0.1);
    }

    #[test]
    fn degenerate_single_points_work() {
        let cal = calibrate_threshold(&[1.0], &[3.0]);
        assert!(cal.threshold >= 1.0 && cal.threshold < 3.0);
        assert_eq!(cal.same_acceptance, 1.0);
        assert_eq!(cal.cross_acceptance, 0.0);
    }

    #[test]
    #[should_panic(expected = "must be non-empty")]
    fn empty_samples_rejected() {
        calibrate_threshold(&[], &[1.0]);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_distances_rejected() {
        calibrate_threshold(&[-1.0], &[1.0]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The calibrated threshold always lies within the combined sample
        /// range, and acceptance fractions are consistent with it.
        #[test]
        fn calibration_consistency(
            same in proptest::collection::vec(0.0f64..2.0, 1..100),
            cross in proptest::collection::vec(0.0f64..10.0, 1..100),
        ) {
            let cal = calibrate_threshold(&same, &cross);
            let lo = same.iter().chain(&cross).cloned().fold(f64::INFINITY, f64::min);
            let hi = same.iter().chain(&cross).cloned().fold(0.0f64, f64::max);
            prop_assert!(cal.threshold >= lo - 1e-9 && cal.threshold <= hi + 1e-9);
            let same_frac = same.iter().filter(|&&d| d <= cal.threshold).count() as f64
                / same.len() as f64;
            prop_assert!((same_frac - cal.same_acceptance).abs() < 1e-9);
        }
    }
}
