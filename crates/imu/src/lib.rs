//! Inertial-measurement substrate for approximate caching.
//!
//! The paper's first reuse signal is "the inertial movement of
//! smartphones": when the IMU says the device has not moved since the last
//! frame, the previous recognition result can be reused without touching
//! the camera frame at all, and when it says the device has swung to a new
//! view, a local cache lookup is likely hopeless and can be skipped.
//!
//! This crate provides the full path from *motion* to *decision*:
//!
//! - [`MotionProfile`] — parametric device-motion regimes (stationary,
//!   handheld jitter, slow pan, walking, turn-and-look, vehicle).
//! - [`MotionTrace`] — a ground-truth pose trajectory generated from a
//!   profile; the `scene` crate renders camera frames from the *same*
//!   trace, so synthetic IMU data and synthetic video agree.
//! - [`ImuSynthesizer`] — converts ground-truth motion into noisy 6-axis
//!   samples (gyro + linear accelerometer) with bias and white noise.
//! - [`MotionCursor`] and [`DeviceStream`] — the motion generator as a
//!   state machine, and a device's poses and noisy samples produced as a
//!   simulation loop's clock reaches them instead of held for the whole
//!   run.
//! - [`MotionEstimator`] — what the pipeline runs on-device: integrates a
//!   window of samples into a scalar [`MotionEstimate`].
//! - [`ImuGate`] — the reuse policy: maps an estimate to
//!   [`GateDecision::ReusePrevious`], [`GateDecision::LookupLocal`] or
//!   [`GateDecision::SkipLocal`].
//!
//! # Example
//!
//! ```
//! use imu::{GateDecision, ImuGate, ImuSynthesizer, MotionEstimator, MotionProfile, MotionTrace};
//! use simcore::{SimDuration, SimRng};
//!
//! let mut rng = SimRng::seed(7);
//! let trace = MotionTrace::generate(
//!     MotionProfile::Stationary,
//!     SimDuration::from_secs(2),
//!     100.0,
//!     &mut rng,
//! );
//! let samples = ImuSynthesizer::default().synthesize(&trace, &mut rng);
//! // Estimate over one inter-frame window (100 ms at 100 Hz = 10 samples).
//! let estimate = MotionEstimator::default().estimate(&samples[..10]);
//! let gate = ImuGate::default();
//! assert_eq!(gate.decide(&estimate), GateDecision::ReusePrevious);
//! ```

pub mod estimate;
pub mod gate;
pub mod profile;
pub mod sample;
pub mod stream;
pub mod synth;
pub mod trace;

pub use estimate::{MotionEstimate, MotionEstimator};
pub use gate::{GateDecision, ImuGate};
pub use profile::MotionProfile;
pub use sample::ImuSample;
pub use stream::DeviceStream;
pub use synth::ImuSynthesizer;
pub use trace::{MotionCursor, MotionTrace, Pose};
