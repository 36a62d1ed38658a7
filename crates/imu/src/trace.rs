//! Ground-truth pose trajectories.
//!
//! A [`MotionTrace`] is the *true* motion of the device, sampled at the IMU
//! rate. Two consumers read it: [`ImuSynthesizer`](crate::ImuSynthesizer)
//! adds sensor noise to produce what the pipeline *measures*, and the
//! `scene` crate renders camera frames from the poses so that synthetic
//! video and synthetic IMU data describe the same physical motion.

use serde::{Deserialize, Serialize};

use simcore::{SimDuration, SimRng, SimTime};

use crate::profile::MotionProfile;

/// The device's pose at one instant: planar position plus orientation.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Pose {
    /// East position, metres.
    pub x: f64,
    /// North position, metres.
    pub y: f64,
    /// Heading, radians (unwrapped — accumulates across full turns).
    pub yaw: f64,
    /// Elevation of the camera axis, radians.
    pub pitch: f64,
}

impl Pose {
    /// Euclidean distance travelled between two poses, metres.
    pub fn distance_to(&self, other: &Pose) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }

    /// Total angular change between two poses, radians (|Δyaw| + |Δpitch|).
    pub fn angular_change_to(&self, other: &Pose) -> f64 {
        (self.yaw - other.yaw).abs() + (self.pitch - other.pitch).abs()
    }
}

/// A pose trajectory at fixed sample rate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MotionTrace {
    profile: MotionProfile,
    rate_hz: f64,
    poses: Vec<Pose>,
}

impl MotionTrace {
    /// Generates a trajectory of `duration` under `profile`, sampled at
    /// `rate_hz` (typical smartphone IMU rates are 50–200 Hz): a
    /// [`MotionCursor`] run to its end, leaving `rng` where the cursor's
    /// copy of it ended.
    ///
    /// # Panics
    ///
    /// Panics if `rate_hz <= 0`, or the combination of duration and rate
    /// yields fewer than two samples.
    pub fn generate(
        profile: MotionProfile,
        duration: SimDuration,
        rate_hz: f64,
        rng: &mut SimRng,
    ) -> MotionTrace {
        let mut cursor = MotionCursor::new(profile, duration, rate_hz, rng.clone());
        let trace = cursor.collect_rest();
        *rng = cursor.rng;
        trace
    }

    /// A trace of the given poses, for tests that build a reference by
    /// hand.
    #[cfg(test)]
    pub(crate) fn from_poses(
        profile: MotionProfile,
        rate_hz: f64,
        poses: Vec<Pose>,
    ) -> MotionTrace {
        MotionTrace {
            profile,
            rate_hz,
            poses,
        }
    }

    /// The profile this trace was generated from.
    pub fn profile(&self) -> MotionProfile {
        self.profile
    }

    /// Sample rate in Hz.
    pub fn rate_hz(&self) -> f64 {
        self.rate_hz
    }

    /// Number of pose samples.
    pub fn len(&self) -> usize {
        self.poses.len()
    }

    /// True if the trace holds no samples (never produced by `generate`).
    pub fn is_empty(&self) -> bool {
        self.poses.is_empty()
    }

    /// Total trace duration.
    pub fn duration(&self) -> SimDuration {
        SimDuration::from_secs_f64((self.poses.len().saturating_sub(1)) as f64 / self.rate_hz)
    }

    /// The pose samples in time order.
    pub fn poses(&self) -> &[Pose] {
        &self.poses
    }

    /// The pose at simulated time `t`, linearly interpolated between
    /// samples and clamped to the trace's ends.
    pub fn pose_at(&self, t: SimTime) -> Pose {
        let (lo, hi, frac) = bracket(t, self.rate_hz, self.poses.len());
        interpolate(&self.poses[lo], &self.poses[hi], frac)
    }

    /// The pose samples that fall in the half-open window `(from, to]` —
    /// the window an estimator inspects between two frames.
    pub fn window(&self, from: SimTime, to: SimTime) -> &[Pose] {
        let start =
            ((from.as_secs_f64() * self.rate_hz).floor() as usize + 1).min(self.poses.len());
        let end = ((to.as_secs_f64() * self.rate_hz).floor() as usize + 1).min(self.poses.len());
        &self.poses[start.min(end)..end]
    }
}

/// The sample indices bracketing `t` in a run of `len` poses at
/// `rate_hz`, and how far `t` lies between them; clamped to the run's
/// ends.
pub(crate) fn bracket(t: SimTime, rate_hz: f64, len: usize) -> (usize, usize, f64) {
    let idx_f = t.as_secs_f64() * rate_hz;
    let lo = (idx_f.floor() as usize).min(len - 1);
    let hi = (lo + 1).min(len - 1);
    let frac = (idx_f - lo as f64).clamp(0.0, 1.0);
    (lo, hi, frac)
}

/// The pose `frac` of the way from `a` to `b`.
pub(crate) fn interpolate(a: &Pose, b: &Pose, frac: f64) -> Pose {
    Pose {
        x: a.x + (b.x - a.x) * frac,
        y: a.y + (b.y - a.y) * frac,
        yaw: a.yaw + (b.yaw - a.yaw) * frac,
        pitch: a.pitch + (b.pitch - a.pitch) * frac,
    }
}

/// A ground-truth trajectory produced one pose at a time: the state of
/// the generator behind [`MotionTrace::generate`], which is this cursor
/// run to its end.
///
/// The state is O(1) — a pose, a wander rate, the turn-and-look phase,
/// the step count and the cursor's own random stream — so a device can
/// walk a run of any length without holding it.
///
/// # Example
///
/// ```
/// use imu::{MotionCursor, MotionProfile, MotionTrace};
/// use simcore::{SimDuration, SimRng};
///
/// let duration = SimDuration::from_secs(1);
/// let trace = MotionTrace::generate(
///     MotionProfile::Stationary, duration, 50.0, &mut SimRng::seed(3));
/// let mut cursor = MotionCursor::new(
///     MotionProfile::Stationary, duration, 50.0, SimRng::seed(3));
/// assert_eq!(cursor.steps(), trace.len());
/// assert_eq!(cursor.step_motion(), trace.poses()[0]);
/// assert_eq!(cursor.step_motion(), trace.poses()[1]);
/// ```
#[derive(Debug, Clone)]
pub struct MotionCursor {
    profile: MotionProfile,
    rate_hz: f64,
    steps: usize,
    /// Poses yielded so far; the index of the next one.
    step: usize,
    /// The next pose, before the offset.
    pose: Pose,
    /// Slowly varying wander term shared by several profiles.
    yaw_wander_rate: f64,
    /// TurnAndLook phase machinery.
    dwell_remaining: f64,
    turn_remaining_rad: f64,
    /// Added to every yielded position: the device's spawn point.
    offset: (f64, f64),
    rng: SimRng,
}

impl MotionCursor {
    /// A cursor at the start of a run of `duration` under `profile`,
    /// sampled at `rate_hz`, drawing from `rng`.
    ///
    /// # Panics
    ///
    /// Panics if `rate_hz <= 0`, or the combination of duration and rate
    /// yields fewer than two samples.
    pub fn new(
        profile: MotionProfile,
        duration: SimDuration,
        rate_hz: f64,
        rng: SimRng,
    ) -> MotionCursor {
        assert!(rate_hz > 0.0, "MotionCursor: rate_hz must be positive");
        let steps = (duration.as_secs_f64() * rate_hz).ceil() as usize + 1;
        assert!(
            steps >= 2,
            "MotionCursor: need at least 2 samples, got {steps}"
        );
        MotionCursor {
            profile,
            rate_hz,
            steps,
            step: 0,
            pose: Pose::default(),
            yaw_wander_rate: 0.0,
            dwell_remaining: match profile {
                MotionProfile::TurnAndLook { dwell_secs, .. } => dwell_secs,
                _ => 0.0,
            },
            turn_remaining_rad: 0.0,
            offset: (0.0, 0.0),
            rng,
        }
    }

    /// The same run rigidly translated by `(dx, dy)` metres — how a
    /// multi-device scenario gives each device its own spawn point while
    /// keeping the shared motion profile. Orientation and timing are
    /// untouched.
    pub fn with_offset(mut self, dx: f64, dy: f64) -> MotionCursor {
        self.offset = (dx, dy);
        self
    }

    /// The profile this run follows.
    pub(crate) fn profile(&self) -> MotionProfile {
        self.profile
    }

    /// Sample rate in Hz.
    pub(crate) fn rate_hz(&self) -> f64 {
        self.rate_hz
    }

    /// Number of poses in the whole run.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Number of poses yielded so far: the index of the next one.
    pub(crate) fn produced(&self) -> usize {
        self.step
    }

    /// Yields the next pose and advances the state one sample. Past the
    /// run's last pose the motion simply continues.
    pub fn step_motion(&mut self) -> Pose {
        let out = Pose {
            x: self.pose.x + self.offset.0,
            y: self.pose.y + self.offset.1,
            ..self.pose
        };
        let dt = 1.0 / self.rate_hz;
        let t = self.step as f64 * dt;
        let rng = &mut self.rng;
        let pose = &mut self.pose;
        match self.profile {
            MotionProfile::Stationary => {
                // Pure tremor handled by the synthesizer; true pose
                // drifts only microscopically.
                pose.yaw += rng.normal(0.0, 0.02f64.to_radians()) * dt;
                pose.pitch += rng.normal(0.0, 0.02f64.to_radians()) * dt;
            }
            MotionProfile::HandheldJitter => {
                // Ornstein–Uhlenbeck wander around the initial heading.
                self.yaw_wander_rate +=
                    (-0.8 * self.yaw_wander_rate + rng.normal(0.0, 2.0f64.to_radians())) * dt;
                pose.yaw += self.yaw_wander_rate * dt;
                pose.pitch += rng.normal(0.0, 0.3f64.to_radians()) * dt;
            }
            MotionProfile::SlowPan { deg_per_sec } => {
                pose.yaw += deg_per_sec.to_radians() * dt;
                pose.pitch += rng.normal(0.0, 0.2f64.to_radians()) * dt;
            }
            MotionProfile::Walking { speed_mps } => {
                // Heading wanders; position integrates heading; gait
                // bobs pitch at ~2 Hz.
                self.yaw_wander_rate +=
                    (-0.5 * self.yaw_wander_rate + rng.normal(0.0, 6.0f64.to_radians())) * dt;
                pose.yaw += self.yaw_wander_rate * dt;
                pose.x += speed_mps * pose.yaw.cos() * dt;
                pose.y += speed_mps * pose.yaw.sin() * dt;
                pose.pitch = 2.0f64.to_radians() * (std::f64::consts::TAU * 2.0 * t).sin();
            }
            MotionProfile::TurnAndLook {
                dwell_secs,
                turn_deg,
            } => {
                if self.turn_remaining_rad > 0.0 {
                    // Mid-turn: rotate at 120°/s until the turn is done.
                    let step_rad = (120.0f64.to_radians() * dt).min(self.turn_remaining_rad);
                    pose.yaw += step_rad;
                    self.turn_remaining_rad -= step_rad;
                    if self.turn_remaining_rad <= 0.0 {
                        self.dwell_remaining = dwell_secs;
                    }
                } else {
                    pose.yaw += rng.normal(0.0, 0.05f64.to_radians()) * dt;
                    self.dwell_remaining -= dt;
                    if self.dwell_remaining <= 0.0 {
                        self.turn_remaining_rad = turn_deg.to_radians();
                    }
                }
            }
            MotionProfile::Vehicle { speed_mps } => {
                self.yaw_wander_rate +=
                    (-self.yaw_wander_rate + rng.normal(0.0, 1.0f64.to_radians())) * dt;
                pose.yaw += self.yaw_wander_rate * dt;
                pose.x += speed_mps * pose.yaw.cos() * dt;
                pose.y += speed_mps * pose.yaw.sin() * dt;
                pose.pitch += rng.normal(0.0, 0.1f64.to_radians()) * dt;
            }
        }
        self.step += 1;
        out
    }

    /// The whole run as a [`MotionTrace`].
    ///
    /// # Panics
    ///
    /// Panics if the cursor has already yielded a pose.
    pub fn into_trace(mut self) -> MotionTrace {
        assert_eq!(self.step, 0, "into_trace: the cursor has already moved");
        self.collect_rest()
    }

    /// The poses not yet yielded, as a trace.
    fn collect_rest(&mut self) -> MotionTrace {
        let poses = (self.step..self.steps)
            .map(|_| self.step_motion())
            .collect();
        MotionTrace {
            profile: self.profile,
            rate_hz: self.rate_hz,
            poses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen(profile: MotionProfile, secs: u64) -> MotionTrace {
        let mut rng = SimRng::seed(11);
        MotionTrace::generate(profile, SimDuration::from_secs(secs), 100.0, &mut rng)
    }

    #[test]
    // Exact comparison is intentional: the rate accessor round-trips.
    #[allow(clippy::float_cmp)]
    fn sample_count_matches_duration_and_rate() {
        let t = gen(MotionProfile::Stationary, 2);
        assert_eq!(t.len(), 201);
        assert!((t.duration().as_secs_f64() - 2.0).abs() < 1e-9);
        assert_eq!(t.rate_hz(), 100.0);
        assert!(!t.is_empty());
    }

    #[test]
    fn stationary_barely_moves() {
        let t = gen(MotionProfile::Stationary, 10);
        let first = t.poses()[0];
        let last = *t.poses().last().unwrap();
        assert!(first.distance_to(&last) < 0.01);
        assert!(first.angular_change_to(&last) < 0.05);
    }

    #[test]
    fn slow_pan_accumulates_yaw_linearly() {
        let t = gen(MotionProfile::SlowPan { deg_per_sec: 10.0 }, 9);
        let total_yaw = t.poses().last().unwrap().yaw - t.poses()[0].yaw;
        assert!(
            (total_yaw.to_degrees() - 90.0).abs() < 5.0,
            "yaw {total_yaw}"
        );
    }

    #[test]
    fn walking_covers_distance() {
        let t = gen(MotionProfile::Walking { speed_mps: 1.4 }, 10);
        let dist = t.poses()[0].distance_to(t.poses().last().unwrap());
        // Wandering heading means net displacement ≤ path length (14 m)
        // but a walker still gets well away from the start.
        assert!(dist > 3.0, "dist {dist}");
        assert!(dist <= 14.5, "dist {dist}");
    }

    #[test]
    fn turn_and_look_alternates_phases() {
        let t = gen(
            MotionProfile::TurnAndLook {
                dwell_secs: 2.0,
                turn_deg: 45.0,
            },
            9,
        );
        // Roughly: dwell 2 s, turn 0.375 s, … over 9 s ≈ 3–4 turns.
        let total_yaw_deg = (t.poses().last().unwrap().yaw - t.poses()[0].yaw).to_degrees();
        assert!(total_yaw_deg > 90.0, "total yaw {total_yaw_deg}");
        assert!(total_yaw_deg < 225.0, "total yaw {total_yaw_deg}");
    }

    #[test]
    fn vehicle_travels_fast_and_straight() {
        let t = gen(MotionProfile::Vehicle { speed_mps: 10.0 }, 10);
        let dist = t.poses()[0].distance_to(t.poses().last().unwrap());
        assert!(dist > 80.0, "dist {dist}");
    }

    #[test]
    fn pose_at_interpolates_and_clamps() {
        let t = gen(MotionProfile::SlowPan { deg_per_sec: 10.0 }, 2);
        let p0 = t.pose_at(SimTime::ZERO);
        assert_eq!(p0, t.poses()[0]);
        let beyond = t.pose_at(SimTime::from_secs(100));
        assert_eq!(beyond, *t.poses().last().unwrap());
        let mid = t.pose_at(SimTime::from_millis(1_000));
        assert!((mid.yaw.to_degrees() - 10.0).abs() < 2.0);
    }

    #[test]
    fn window_selects_half_open_interval() {
        let t = gen(MotionProfile::Stationary, 1);
        // (0, 0.1] at 100 Hz → samples 1..=10.
        let w = t.window(SimTime::ZERO, SimTime::from_millis(100));
        assert_eq!(w.len(), 10);
        // Empty window.
        let w2 = t.window(SimTime::from_millis(500), SimTime::from_millis(500));
        assert!(w2.is_empty());
        // Window past the end clamps.
        let w3 = t.window(SimTime::from_millis(900), SimTime::from_secs(5));
        assert!(w3.len() <= t.len());
    }

    #[test]
    fn determinism_per_seed() {
        let mut r1 = SimRng::seed(3);
        let mut r2 = SimRng::seed(3);
        let a = MotionTrace::generate(
            MotionProfile::Walking { speed_mps: 1.0 },
            SimDuration::from_secs(1),
            50.0,
            &mut r1,
        );
        let b = MotionTrace::generate(
            MotionProfile::Walking { speed_mps: 1.0 },
            SimDuration::from_secs(1),
            50.0,
            &mut r2,
        );
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "rate_hz must be positive")]
    fn rejects_zero_rate() {
        let mut rng = SimRng::seed(0);
        MotionTrace::generate(
            MotionProfile::Stationary,
            SimDuration::from_secs(1),
            0.0,
            &mut rng,
        );
    }
}
