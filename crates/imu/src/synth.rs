//! Sensor-noise synthesis: ground truth → what the IMU actually reports.

use serde::{Deserialize, Serialize};

use simcore::{SimRng, SimTime};

use crate::profile::MotionProfile;
use crate::sample::ImuSample;
use crate::trace::{MotionTrace, Pose};

/// Converts a ground-truth [`MotionTrace`] into noisy [`ImuSample`]s.
///
/// The noise model is the standard consumer-MEMS one: additive white noise
/// per axis plus a slowly drifting bias (random walk). Defaults match a
/// mid-range smartphone IMU (e.g. Bosch BMI160-class parts).
///
/// # Example
///
/// ```
/// use imu::{ImuSynthesizer, MotionProfile, MotionTrace};
/// use simcore::{SimDuration, SimRng};
///
/// let mut rng = SimRng::seed(1);
/// let trace = MotionTrace::generate(
///     MotionProfile::Stationary, SimDuration::from_secs(1), 100.0, &mut rng);
/// let samples = ImuSynthesizer::default().synthesize(&trace, &mut rng);
/// assert_eq!(samples.len(), trace.len());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ImuSynthesizer {
    /// Gyroscope white-noise standard deviation, rad/s per axis.
    pub gyro_noise: f64,
    /// Gyroscope bias random-walk step, rad/s per √sample.
    pub gyro_bias_walk: f64,
    /// Accelerometer white-noise standard deviation, m/s² per axis.
    pub accel_noise: f64,
    /// Accelerometer bias random-walk step, m/s² per √sample.
    pub accel_bias_walk: f64,
}

impl Default for ImuSynthesizer {
    fn default() -> Self {
        ImuSynthesizer {
            gyro_noise: 0.005,
            gyro_bias_walk: 1e-5,
            accel_noise: 0.03,
            accel_bias_walk: 1e-4,
        }
    }
}

impl ImuSynthesizer {
    /// A noiseless synthesizer — useful for isolating estimator behaviour
    /// in tests.
    pub fn noiseless() -> Self {
        ImuSynthesizer {
            gyro_noise: 0.0,
            gyro_bias_walk: 0.0,
            accel_noise: 0.0,
            accel_bias_walk: 0.0,
        }
    }

    /// Produces one noisy sample per trace pose: the synthesizer's
    /// cursor (the state [`DeviceStream`](crate::DeviceStream) streams
    /// from) stepped over the trace.
    pub fn synthesize(&self, trace: &MotionTrace, rng: &mut SimRng) -> Vec<ImuSample> {
        let mut cursor = ImuCursor::new(*self, trace.profile(), trace.rate_hz());
        trace
            .poses()
            .iter()
            .map(|pose| cursor.step_imu(pose, rng))
            .collect()
    }
}

/// The synthesizer as a state machine: turns a run's poses, fed one at a
/// time and in order, into its noisy samples, from O(1) state — the two
/// bias random walks, the last two poses and the sample index.
///
/// True angular velocity is differenced from consecutive poses (yaw
/// about z, pitch about y); true linear acceleration is the second
/// difference of position plus the profile's residual-acceleration
/// magnitude injected as body vibration.
#[derive(Debug, Clone)]
pub(crate) struct ImuCursor {
    synth: ImuSynthesizer,
    dt: f64,
    vibration: f64,
    tremor: f64,
    gyro_bias: [f64; 3],
    accel_bias: [f64; 3],
    /// Poses `index - 1` and `index - 2`, once there are any.
    prev: Pose,
    prev2: Pose,
    /// The index of the next sample.
    index: usize,
}

impl ImuCursor {
    /// A cursor at the first sample of a run under `profile` at
    /// `rate_hz`.
    pub(crate) fn new(synth: ImuSynthesizer, profile: MotionProfile, rate_hz: f64) -> ImuCursor {
        ImuCursor {
            synth,
            dt: 1.0 / rate_hz,
            vibration: profile.accel_rms(),
            tremor: profile.tremor_rad_per_sec(),
            gyro_bias: [0.0; 3],
            accel_bias: [0.0; 3],
            prev: Pose::default(),
            prev2: Pose::default(),
            index: 0,
        }
    }

    /// The index of the next sample (the number taken so far).
    pub(crate) fn index(&self) -> usize {
        self.index
    }

    /// The sample taken at `pose`, the run's pose number
    /// [`index`](Self::index), with its noise drawn from `rng`.
    pub(crate) fn step_imu(&mut self, pose: &Pose, rng: &mut SimRng) -> ImuSample {
        let i = self.index;
        let dt = self.dt;
        // True rates from central/one-sided differences.
        let (yaw_rate, pitch_rate) = if i == 0 {
            (0.0, 0.0)
        } else {
            (
                (pose.yaw - self.prev.yaw) / dt,
                (pose.pitch - self.prev.pitch) / dt,
            )
        };
        let (ax, ay) = if i < 2 {
            (0.0, 0.0)
        } else {
            let vx1 = (pose.x - self.prev.x) / dt;
            let vx0 = (self.prev.x - self.prev2.x) / dt;
            let vy1 = (pose.y - self.prev.y) / dt;
            let vy0 = (self.prev.y - self.prev2.y) / dt;
            ((vx1 - vx0) / dt, (vy1 - vy0) / dt)
        };

        let s = &self.synth;
        for b in &mut self.gyro_bias {
            *b += rng.normal(0.0, s.gyro_bias_walk);
        }
        for b in &mut self.accel_bias {
            *b += rng.normal(0.0, s.accel_bias_walk);
        }

        let (gyro_bias, accel_bias) = (self.gyro_bias, self.accel_bias);
        let (tremor, vibration) = (self.tremor, self.vibration);
        let gyro = [
            gyro_bias[0] + rng.normal(0.0, s.gyro_noise) + rng.normal(0.0, tremor),
            pitch_rate + gyro_bias[1] + rng.normal(0.0, s.gyro_noise) + rng.normal(0.0, tremor),
            yaw_rate + gyro_bias[2] + rng.normal(0.0, s.gyro_noise),
        ];
        let accel = [
            ax + accel_bias[0] + rng.normal(0.0, s.accel_noise) + rng.normal(0.0, vibration),
            ay + accel_bias[1] + rng.normal(0.0, s.accel_noise) + rng.normal(0.0, vibration),
            accel_bias[2] + rng.normal(0.0, s.accel_noise) + rng.normal(0.0, vibration),
        ];

        self.prev2 = self.prev;
        self.prev = *pose;
        self.index += 1;
        ImuSample {
            at: SimTime::from_nanos((i as f64 * dt * 1e9).round() as u64),
            gyro,
            accel,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimDuration;

    fn synth(profile: MotionProfile, noiseless: bool) -> Vec<ImuSample> {
        let mut rng = SimRng::seed(5);
        let trace = MotionTrace::generate(profile, SimDuration::from_secs(4), 100.0, &mut rng);
        let s = if noiseless {
            ImuSynthesizer::noiseless()
        } else {
            ImuSynthesizer::default()
        };
        s.synthesize(&trace, &mut rng)
    }

    fn mean_gyro_mag(samples: &[ImuSample]) -> f64 {
        samples.iter().map(|s| s.gyro_magnitude()).sum::<f64>() / samples.len() as f64
    }

    fn mean_accel_mag(samples: &[ImuSample]) -> f64 {
        samples.iter().map(|s| s.accel_magnitude()).sum::<f64>() / samples.len() as f64
    }

    #[test]
    fn one_sample_per_pose_with_monotone_timestamps() {
        let samples = synth(MotionProfile::Stationary, false);
        assert_eq!(samples.len(), 401);
        for w in samples.windows(2) {
            assert!(w[1].at > w[0].at);
        }
    }

    #[test]
    fn noiseless_slow_pan_recovers_true_yaw_rate() {
        let samples = synth(MotionProfile::SlowPan { deg_per_sec: 20.0 }, true);
        // Skip the zero-rate first sample; tremor is injected even in
        // "noiseless" mode only via profile? No: noiseless() zeroes sensor
        // noise but the synthesize() call still adds profile tremor to x/y
        // gyro axes, so check the z axis, which carries yaw.
        let mean_z: f64 =
            samples[1..].iter().map(|s| s.gyro[2]).sum::<f64>() / (samples.len() - 1) as f64;
        assert!(
            (mean_z.to_degrees() - 20.0).abs() < 1.0,
            "mean yaw rate {} deg/s",
            mean_z.to_degrees()
        );
    }

    #[test]
    fn walking_is_noisier_than_stationary() {
        let still = synth(MotionProfile::Stationary, false);
        let walk = synth(MotionProfile::Walking { speed_mps: 1.4 }, false);
        assert!(mean_gyro_mag(&walk) > 3.0 * mean_gyro_mag(&still));
        assert!(mean_accel_mag(&walk) > 3.0 * mean_accel_mag(&still));
    }

    #[test]
    fn stationary_noise_floor_is_small() {
        let still = synth(MotionProfile::Stationary, false);
        assert!(
            mean_gyro_mag(&still) < 0.05,
            "gyro {}",
            mean_gyro_mag(&still)
        );
        assert!(
            mean_accel_mag(&still) < 0.2,
            "accel {}",
            mean_accel_mag(&still)
        );
    }

    #[test]
    fn determinism_per_seed() {
        let a = synth(MotionProfile::HandheldJitter, false);
        let b = synth(MotionProfile::HandheldJitter, false);
        assert_eq!(a, b);
    }
}
