//! One device's sensor inputs, produced as the clock reaches them.
//!
//! A simulation loop asks each device two things per frame: where it is
//! now (to render the camera frame) and what the IMU reported since the
//! last frame (for the gate). [`DeviceStream`] answers both from a
//! [`MotionCursor`], the synthesizer's cursor and a few buffered poses
//! and samples, so a device's input state does not grow with the run's
//! length. Its answers are bit-identical to
//! [`MotionTrace::pose_at`](crate::MotionTrace::pose_at) and the
//! `(from, to]` slice of
//! [`ImuSynthesizer::synthesize`](crate::ImuSynthesizer::synthesize)'s
//! output over the same run.

use std::collections::VecDeque;

use simcore::{SimRng, SimTime};

use crate::sample::ImuSample;
use crate::synth::{ImuCursor, ImuSynthesizer};
use crate::trace::{bracket, interpolate, MotionCursor, Pose};

/// A device's ground-truth motion and noisy IMU samples, read forward in
/// time.
///
/// The stream is a forward reader: the `t` of [`pose_at`](Self::pose_at)
/// and the `to` of [`window`](Self::window) never go back past the
/// latest of them, and the `from` of `window` never goes back past an
/// earlier `from`. A simulation loop that asks for `pose_at(now)` and
/// `window(prev, now)` each frame keeps to this; a call that breaks it
/// panics. Between two frames `Δ` apart it holds at most
/// `⌈rate·Δ⌉ + 2` poses and `⌈rate·Δ⌉ + 1` samples.
///
/// # Example
///
/// ```
/// use imu::{DeviceStream, ImuSynthesizer, MotionCursor, MotionProfile};
/// use simcore::{SimDuration, SimRng, SimTime};
///
/// let motion = MotionCursor::new(
///     MotionProfile::Stationary, SimDuration::from_secs(2), 100.0, SimRng::seed(7));
/// let mut stream = DeviceStream::new(motion, ImuSynthesizer::default(), SimRng::seed(8));
/// let now = SimTime::from_millis(100);
/// let _pose = stream.pose_at(now);
/// // (0, 0.1 s] at 100 Hz: samples 1..=10.
/// assert_eq!(stream.window(SimTime::ZERO, now).len(), 10);
/// ```
#[derive(Debug, Clone)]
pub struct DeviceStream {
    motion: MotionCursor,
    imu: ImuCursor,
    imu_rng: SimRng,
    /// Poses made and still needed, oldest first: pose `ring_first` is
    /// `ring[0]`.
    ring: VecDeque<Pose>,
    ring_first: usize,
    /// Samples taken and still in reach of `window`: sample
    /// `samples_first` is `samples[0]`, the last is `imu.index() - 1`.
    samples: Vec<ImuSample>,
    samples_first: usize,
    /// The lowest pose index a later `pose_at` may ask for.
    clock_lo: usize,
}

impl DeviceStream {
    /// A stream at the start of `motion`'s run, whose IMU adds
    /// `synthesizer`'s noise drawn from `imu_rng`.
    pub fn new(motion: MotionCursor, synthesizer: ImuSynthesizer, imu_rng: SimRng) -> DeviceStream {
        let imu = ImuCursor::new(synthesizer, motion.profile(), motion.rate_hz());
        DeviceStream {
            motion,
            imu,
            imu_rng,
            ring: VecDeque::new(),
            ring_first: 0,
            samples: Vec::new(),
            samples_first: 0,
            clock_lo: 0,
        }
    }

    /// The pose at simulated time `t`, linearly interpolated between
    /// samples and clamped to the run's ends.
    ///
    /// # Panics
    ///
    /// Panics if `t` lies before an earlier call's time (see the type's
    /// docs).
    pub fn pose_at(&mut self, t: SimTime) -> Pose {
        let (lo, hi, frac) = bracket(t, self.motion.rate_hz(), self.motion.steps());
        self.advance_clock(lo);
        let a = self.pose(lo);
        let b = self.pose(hi);
        interpolate(&a, &b, frac)
    }

    /// The IMU samples strictly after `from` and at or before `to`.
    ///
    /// # Panics
    ///
    /// Panics if `from` lies before an earlier call's `from`, or `to`
    /// before an earlier call's time (see the type's docs).
    pub fn window(&mut self, from: SimTime, to: SimTime) -> &[ImuSample] {
        let rate_hz = self.motion.rate_hz();
        let len = self.motion.steps();
        let start = ((from.as_secs_f64() * rate_hz).floor() as usize + 1).min(len);
        let end = ((to.as_secs_f64() * rate_hz).floor() as usize + 1).min(len);
        self.advance_clock(end - 1);
        if start >= end {
            return &[];
        }
        self.fill_imu_window(start, end);
        &self.samples
    }

    /// Moves the clock to pose index `lo` and lets go of the poses that
    /// neither a later `pose_at` nor the IMU cursor can still need.
    fn advance_clock(&mut self, lo: usize) {
        assert!(
            lo >= self.clock_lo,
            "DeviceStream: time went backwards (pose {lo} after pose {})",
            self.clock_lo
        );
        self.clock_lo = lo;
        self.release_poses();
    }

    /// Drops the poses before both the clock and the IMU cursor.
    fn release_poses(&mut self) {
        let keep_from = self.clock_lo.min(self.imu.index());
        while self.ring_first < keep_from && self.ring.pop_front().is_some() {
            self.ring_first += 1;
        }
    }

    /// Pose `i` of the run, made now if the motion cursor has not reached
    /// it yet.
    fn pose(&mut self, i: usize) -> Pose {
        while self.motion.produced() <= i {
            let pose = self.motion.step_motion();
            self.ring.push_back(pose);
        }
        match i
            .checked_sub(self.ring_first)
            .and_then(|k| self.ring.get(k))
        {
            Some(&pose) => pose,
            None => unreachable!("DeviceStream: pose {i} was released"),
        }
    }

    /// Makes `samples` hold exactly `start..end`: drops the samples before
    /// `start`, then takes every sample up to `end` from the IMU cursor,
    /// discarding those before `start`.
    fn fill_imu_window(&mut self, start: usize, end: usize) {
        assert!(
            start >= self.samples_first,
            "DeviceStream: window starts at sample {start}, before sample {}",
            self.samples_first
        );
        let stale = (start - self.samples_first).min(self.samples.len());
        self.samples.drain(..stale);
        self.samples_first += stale;
        while self.imu.index() < end {
            let i = self.imu.index();
            let pose = self.pose(i);
            let sample = self.imu.step_imu(&pose, &mut self.imu_rng);
            if i < start {
                self.samples_first = i + 1;
            } else {
                self.samples.push(sample);
            }
        }
        self.release_poses();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::MotionProfile;
    use crate::trace::MotionTrace;
    use simcore::SimDuration;

    const PROFILES: [MotionProfile; 6] = [
        MotionProfile::Stationary,
        MotionProfile::HandheldJitter,
        MotionProfile::SlowPan { deg_per_sec: 20.0 },
        MotionProfile::Walking { speed_mps: 1.4 },
        MotionProfile::TurnAndLook {
            dwell_secs: 0.7,
            turn_deg: 45.0,
        },
        MotionProfile::Vehicle { speed_mps: 10.0 },
    ];

    fn pose_bits(p: &Pose) -> [u64; 4] {
        [
            p.x.to_bits(),
            p.y.to_bits(),
            p.yaw.to_bits(),
            p.pitch.to_bits(),
        ]
    }

    fn sample_bits(s: &ImuSample) -> (SimTime, [u64; 6]) {
        let [g0, g1, g2] = s.gyro;
        let [a0, a1, a2] = s.accel;
        (s.at, [g0, g1, g2, a0, a1, a2].map(f64::to_bits))
    }

    /// What the materialised form gives for one device: the whole trace,
    /// translated by `(dx, dy)` before the IMU sees it, and every sample.
    fn materialised(
        profile: MotionProfile,
        duration: SimDuration,
        rate_hz: f64,
        seed: u64,
        (dx, dy): (f64, f64),
    ) -> (MotionTrace, Vec<ImuSample>) {
        let trace = MotionTrace::generate(profile, duration, rate_hz, &mut SimRng::seed(seed));
        let poses = trace
            .poses()
            .iter()
            .map(|p| Pose {
                x: p.x + dx,
                y: p.y + dy,
                ..*p
            })
            .collect();
        let trace = MotionTrace::from_poses(profile, rate_hz, poses);
        let samples =
            ImuSynthesizer::default().synthesize(&trace, &mut SimRng::seed(seed ^ 0xABCD));
        (trace, samples)
    }

    fn streamed(
        profile: MotionProfile,
        duration: SimDuration,
        rate_hz: f64,
        seed: u64,
        (dx, dy): (f64, f64),
    ) -> DeviceStream {
        let motion =
            MotionCursor::new(profile, duration, rate_hz, SimRng::seed(seed)).with_offset(dx, dy);
        DeviceStream::new(
            motion,
            ImuSynthesizer::default(),
            SimRng::seed(seed ^ 0xABCD),
        )
    }

    /// The `(from, to]` slice of a whole-run sample vector.
    fn slice_of(samples: &[ImuSample], from: SimTime, to: SimTime, rate_hz: f64) -> &[ImuSample] {
        let start = ((from.as_secs_f64() * rate_hz).floor() as usize + 1).min(samples.len());
        let end = ((to.as_secs_f64() * rate_hz).floor() as usize + 1).min(samples.len());
        &samples[start.min(end)..end]
    }

    #[test]
    fn stream_matches_the_materialised_run_bit_for_bit() {
        let duration = SimDuration::from_millis(2_300);
        for profile in PROFILES {
            for seed in [1, 42, 9_001] {
                for rate_hz in [50.0, 100.0] {
                    for fps in [10.0, 30.0, 7.0] {
                        let offset = (seed as f64 * 1.5, -(seed as f64) * 0.25);
                        let (trace, samples) =
                            materialised(profile, duration, rate_hz, seed, offset);
                        let mut stream = streamed(profile, duration, rate_hz, seed, offset);
                        let interval = SimDuration::from_secs_f64(1.0 / fps);
                        // Half again the run's length: frames past its end
                        // see the clamped last pose and empty windows.
                        let frames = (duration.as_secs_f64() * fps * 1.5) as u64;
                        let mut prev = SimTime::ZERO;
                        for k in 1..=frames {
                            let now = SimTime::ZERO + interval * k;
                            assert_eq!(
                                pose_bits(&stream.pose_at(now)),
                                pose_bits(&trace.pose_at(now)),
                                "{profile:?} seed {seed} {rate_hz} Hz {fps} fps frame {k}"
                            );
                            let got: Vec<_> =
                                stream.window(prev, now).iter().map(sample_bits).collect();
                            let want: Vec<_> = slice_of(&samples, prev, now, rate_hz)
                                .iter()
                                .map(sample_bits)
                                .collect();
                            assert_eq!(
                                got, want,
                                "{profile:?} seed {seed} {rate_hz} Hz {fps} fps frame {k}"
                            );
                            prev = now;
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn generate_and_synthesize_are_the_cursors_run_out() {
        let duration = SimDuration::from_secs(2);
        for profile in PROFILES {
            let mut rng = SimRng::seed(5);
            let trace = MotionTrace::generate(profile, duration, 100.0, &mut rng);
            let mut cursor = MotionCursor::new(profile, duration, 100.0, SimRng::seed(5));
            let mut imu = ImuCursor::new(ImuSynthesizer::default(), profile, 100.0);
            let mut imu_rng = rng.clone();
            let samples = ImuSynthesizer::default().synthesize(&trace, &mut rng);
            assert_eq!(cursor.steps(), trace.len());
            for (pose, sample) in trace.poses().iter().zip(&samples) {
                let next = cursor.step_motion();
                assert_eq!(pose_bits(&next), pose_bits(pose));
                let taken = imu.step_imu(&next, &mut imu_rng);
                assert_eq!(sample_bits(&taken), sample_bits(sample));
            }
            // `generate` left `rng` where the cursor's copy ended, so the
            // IMU noise drawn after it is the same.
            assert_eq!(
                rand::RngCore::next_u64(&mut rng),
                rand::RngCore::next_u64(&mut imu_rng)
            );
        }
    }

    #[test]
    fn window_selects_interval() {
        let mut stream = streamed(
            MotionProfile::Stationary,
            SimDuration::from_millis(990),
            100.0,
            3,
            (0.0, 0.0),
        );
        // (0, 0.1] at 100 Hz → samples 1..=10.
        let w = stream.window(SimTime::ZERO, SimTime::from_millis(100));
        assert_eq!(w.len(), 10);
        assert_eq!(w[0].at, SimTime::from_millis(10));
        let w1 = stream.window(SimTime::from_millis(100), SimTime::from_millis(200));
        assert_eq!(w1.len(), 10);
        assert!(w1[0].at > SimTime::from_millis(100));
        // Empty window.
        let w2 = stream.window(SimTime::from_millis(500), SimTime::from_millis(500));
        assert!(w2.is_empty());
        // A window past the run's 100 samples clamps at its last.
        let w3 = stream.window(SimTime::from_millis(900), SimTime::from_secs(5));
        assert_eq!(w3.len(), 9);
        assert_eq!(w3[8].at, SimTime::from_millis(990));
    }

    #[test]
    fn state_stays_bounded_over_a_long_run() {
        let (rate_hz, fps) = (100.0f64, 10.0f64);
        let per_frame = (rate_hz / fps).ceil() as usize;
        let mut stream = streamed(
            MotionProfile::Walking { speed_mps: 1.4 },
            SimDuration::from_secs(600),
            rate_hz,
            7,
            (0.0, 0.0),
        );
        let interval = SimDuration::from_secs_f64(1.0 / fps);
        let mut prev = SimTime::ZERO;
        let (mut most_poses, mut most_samples) = (0, 0);
        for k in 1..=6_000u64 {
            let now = SimTime::ZERO + interval * k;
            stream.pose_at(now);
            most_poses = most_poses.max(stream.ring.len());
            assert!(stream.window(prev, now).len() <= per_frame + 1);
            most_poses = most_poses.max(stream.ring.len());
            most_samples = most_samples.max(stream.samples.len());
            prev = now;
        }
        assert!(most_poses <= per_frame + 2, "held {most_poses} poses");
        assert!(most_samples <= per_frame + 1, "held {most_samples} samples");
        // The buffers never grow past their first frames' size.
        assert!(stream.ring.capacity() <= 2 * (per_frame + 2));
        assert!(stream.samples.capacity() <= 2 * (per_frame + 2));
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn rejects_a_clock_that_goes_back() {
        let mut stream = streamed(
            MotionProfile::Stationary,
            SimDuration::from_secs(1),
            100.0,
            1,
            (0.0, 0.0),
        );
        stream.pose_at(SimTime::from_millis(500));
        stream.pose_at(SimTime::from_millis(200));
    }
}
