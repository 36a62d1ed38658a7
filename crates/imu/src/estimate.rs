//! On-device motion estimation from raw samples.
//!
//! This is the code a real deployment would run between camera frames: it
//! reduces the IMU window since the previous frame to a single
//! [`MotionEstimate`], whose [`motion_score`](MotionEstimate::motion_score)
//! the [`ImuGate`](crate::ImuGate) thresholds.

use serde::{Deserialize, Serialize};

use crate::sample::ImuSample;

/// Aggregate motion over one inter-frame window.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct MotionEstimate {
    /// Integrated rotation magnitude over the window, radians.
    pub rotation_rad: f64,
    /// RMS angular velocity, rad/s.
    pub gyro_rms: f64,
    /// RMS linear acceleration, m/s².
    pub accel_rms: f64,
    /// Window length, seconds.
    pub window_secs: f64,
    /// Number of samples the estimate is based on.
    pub sample_count: usize,
}

impl MotionEstimate {
    /// A single scalar "how much did the view change" score.
    ///
    /// Rotation dominates view change for a handheld camera (a 5° turn
    /// re-frames the scene; 5 cm of translation barely does), so the score
    /// is integrated rotation in degrees plus a translation proxy derived
    /// from acceleration.
    pub fn motion_score(&self) -> f64 {
        let rotation_deg = self.rotation_rad.to_degrees();
        // Double integration of RMS acceleration over the window gives a
        // crude displacement bound: ½·a·t².
        let displacement_proxy_m = 0.5 * self.accel_rms * self.window_secs.powi(2);
        rotation_deg + 20.0 * displacement_proxy_m
    }
}

/// Reduces sample windows to [`MotionEstimate`]s.
///
/// # Example
///
/// ```
/// use imu::{ImuSample, MotionEstimator};
/// use simcore::SimTime;
///
/// let samples: Vec<ImuSample> = (0..10).map(|i| ImuSample {
///     at: SimTime::from_millis(i * 10),
///     gyro: [0.0, 0.0, 0.1],
///     accel: [0.0; 3],
/// }).collect();
/// let est = MotionEstimator.estimate(&samples);
/// assert!(est.rotation_rad > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MotionEstimator;

impl MotionEstimator {
    /// Estimates motion over `window` (the samples since the last frame).
    ///
    /// An empty window yields a zero estimate — the gate treats "no
    /// information" as "no movement observed", matching what a real
    /// pipeline does when frames outpace the IMU.
    pub fn estimate(&self, window: &[ImuSample]) -> MotionEstimate {
        if window.is_empty() {
            return MotionEstimate::default();
        }
        let n = window.len() as f64;
        let window_secs = if window.len() >= 2 {
            window
                .last()
                .expect("non-empty")
                .at
                .saturating_duration_since(window[0].at)
                .as_secs_f64()
        } else {
            0.0
        };
        // Per-sample dt for the rotation integral: use the mean spacing.
        let dt = if window.len() >= 2 {
            window_secs / (window.len() - 1) as f64
        } else {
            0.0
        };
        let rotation_rad: f64 = window.iter().map(|s| s.gyro_magnitude() * dt).sum();
        let gyro_rms = (window
            .iter()
            .map(|s| s.gyro_magnitude().powi(2))
            .sum::<f64>()
            / n)
            .sqrt();
        let accel_rms = (window
            .iter()
            .map(|s| s.accel_magnitude().powi(2))
            .sum::<f64>()
            / n)
            .sqrt();
        MotionEstimate {
            rotation_rad,
            gyro_rms,
            accel_rms,
            window_secs,
            sample_count: window.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::MotionProfile;
    use crate::synth::ImuSynthesizer;
    use crate::trace::MotionTrace;
    use simcore::{SimDuration, SimRng, SimTime};

    fn constant_window(gyro_z: f64, accel_x: f64, count: usize) -> Vec<ImuSample> {
        (0..count)
            .map(|i| ImuSample {
                at: SimTime::from_millis(i as u64 * 10),
                gyro: [0.0, 0.0, gyro_z],
                accel: [accel_x, 0.0, 0.0],
            })
            .collect()
    }

    #[test]
    // Exact comparison is intentional: an empty window is exactly zero.
    #[allow(clippy::float_cmp)]
    fn empty_window_is_zero_motion() {
        let est = MotionEstimator.estimate(&[]);
        assert_eq!(est, MotionEstimate::default());
        assert_eq!(est.motion_score(), 0.0);
    }

    #[test]
    fn constant_rotation_integrates_correctly() {
        // 0.5 rad/s over 10 samples spanning 90 ms: the integral counts
        // every sample at the mean spacing (10 ms), so 10·0.5·0.01 rad.
        let est = MotionEstimator.estimate(&constant_window(0.5, 0.0, 10));
        assert!(
            (est.rotation_rad - 0.05).abs() < 1e-9,
            "{}",
            est.rotation_rad
        );
        assert!((est.gyro_rms - 0.5).abs() < 1e-9);
        assert_eq!(est.sample_count, 10);
        assert!((est.window_secs - 0.09).abs() < 1e-9);
    }

    #[test]
    fn accel_rms_is_magnitude() {
        let est = MotionEstimator.estimate(&constant_window(0.0, 2.0, 5));
        assert!((est.accel_rms - 2.0).abs() < 1e-9);
    }

    #[test]
    fn motion_score_increases_with_rotation_and_accel() {
        let estimator = MotionEstimator;
        let still = estimator.estimate(&constant_window(0.0, 0.0, 10));
        let turning = estimator.estimate(&constant_window(1.0, 0.0, 10));
        let shaking = estimator.estimate(&constant_window(0.0, 3.0, 10));
        assert!(still.motion_score() < turning.motion_score());
        assert!(still.motion_score() < shaking.motion_score());
    }

    #[test]
    // Exact comparison is intentional: one sample integrates exactly zero.
    #[allow(clippy::float_cmp)]
    fn single_sample_window_has_zero_duration() {
        let est = MotionEstimator.estimate(&constant_window(1.0, 1.0, 1));
        assert_eq!(est.window_secs, 0.0);
        assert_eq!(est.rotation_rad, 0.0);
        assert_eq!(est.sample_count, 1);
    }

    #[test]
    fn motion_score_is_monotone_in_each_axis() {
        // Larger gyro or accel magnitudes never decrease the score.
        let estimator = MotionEstimator;
        let mut last_gyro = -1.0f64;
        for step in 0..20 {
            let gyro = step as f64 * 0.1;
            let score = estimator
                .estimate(&constant_window(gyro, 0.0, 10))
                .motion_score();
            assert!(
                score >= last_gyro,
                "gyro step {step}: {score} < {last_gyro}"
            );
            last_gyro = score;
        }
        let mut last_accel = -1.0f64;
        for step in 0..20 {
            let accel = step as f64 * 0.2;
            let score = estimator
                .estimate(&constant_window(0.0, accel, 10))
                .motion_score();
            assert!(
                score >= last_accel,
                "accel step {step}: {score} < {last_accel}"
            );
            last_accel = score;
        }
    }

    #[test]
    fn separates_profiles_end_to_end() {
        // The whole point: stationary windows score far below walking ones.
        let mut rng = SimRng::seed(21);
        let estimator = MotionEstimator;
        let mut score = |profile| {
            let trace = MotionTrace::generate(profile, SimDuration::from_secs(5), 100.0, &mut rng);
            let samples = ImuSynthesizer::default().synthesize(&trace, &mut rng);
            // 100 ms windows at 10 fps.
            let mut scores = Vec::new();
            for chunk in samples.chunks(10) {
                scores.push(estimator.estimate(chunk).motion_score());
            }
            scores.iter().sum::<f64>() / scores.len() as f64
        };
        let still = score(MotionProfile::Stationary);
        let pan = score(MotionProfile::SlowPan { deg_per_sec: 10.0 });
        let walk = score(MotionProfile::Walking { speed_mps: 1.4 });
        assert!(still < pan, "still {still} < pan {pan}");
        assert!(pan < walk, "pan {pan} < walk {walk}");
    }
}
