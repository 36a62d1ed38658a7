//! The inertial reuse gate.
//!
//! Given a [`MotionEstimate`] for the window since the previous frame, the
//! gate picks one of three actions *before any image work happens*:
//!
//! - [`GateDecision::ReusePrevious`] — the device has barely moved; the
//!   previous frame's recognition result is almost certainly still valid,
//!   so return it without even extracting features (~zero cost).
//! - [`GateDecision::LookupLocal`] — moderate motion; the view changed,
//!   but plausibly onto something seen recently, so run the approximate
//!   cache lookup.
//! - [`GateDecision::SkipLocal`] — violent motion; the local lookup is
//!   near-certain to miss, so skip straight to peers / full inference and
//!   save the lookup cost.

use serde::{Deserialize, Serialize};

use simcore::SimDuration;

use crate::estimate::MotionEstimate;

/// What the pipeline should do with the current frame, decided from IMU
/// data alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GateDecision {
    /// Return the previous frame's result without any image processing.
    ReusePrevious,
    /// Extract features and query the local approximate cache.
    LookupLocal,
    /// Skip the local lookup (the view moved too far) and fall through to
    /// the next tier (peers, then full inference).
    SkipLocal,
}

impl std::fmt::Display for GateDecision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            GateDecision::ReusePrevious => "reuse-previous",
            GateDecision::LookupLocal => "lookup-local",
            GateDecision::SkipLocal => "skip-local",
        };
        f.write_str(s)
    }
}

/// Threshold policy mapping motion scores to decisions.
///
/// The two thresholds partition the score axis:
/// `score < still_threshold` → reuse; `score > skip_threshold` → skip;
/// otherwise → lookup. [`max_reuse_age`](ImuGate::max_reuse_age) bounds how
/// long the fast path may keep echoing one result even if the device never
/// moves, so scene changes under a stationary camera are eventually
/// noticed.
///
/// # Example
///
/// ```
/// use imu::{GateDecision, ImuGate, MotionEstimate};
///
/// let gate = ImuGate::default();
/// let still = MotionEstimate::default(); // zero motion
/// assert_eq!(gate.decide(&still), GateDecision::ReusePrevious);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ImuGate {
    /// Scores below this (degrees-of-view-change equivalent) take the
    /// reuse-previous fast path.
    pub still_threshold: f64,
    /// Scores above this skip the local lookup entirely.
    pub skip_threshold: f64,
    /// Maximum age of the previous result for the fast path to fire.
    pub max_reuse_age: SimDuration,
}

impl Default for ImuGate {
    fn default() -> Self {
        ImuGate {
            still_threshold: 1.0,
            skip_threshold: 25.0,
            max_reuse_age: SimDuration::from_millis(2_000),
        }
    }
}

impl ImuGate {
    /// Creates a gate with explicit thresholds and the default reuse age.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= still_threshold <= skip_threshold`.
    pub fn new(still_threshold: f64, skip_threshold: f64) -> ImuGate {
        assert!(
            still_threshold >= 0.0 && still_threshold <= skip_threshold,
            "ImuGate: need 0 <= still ({still_threshold}) <= skip ({skip_threshold})"
        );
        ImuGate {
            still_threshold,
            skip_threshold,
            max_reuse_age: ImuGate::default().max_reuse_age,
        }
    }

    /// A gate that never takes the fast path and never skips — disables
    /// the IMU mechanism (used by the no-IMU ablation).
    pub fn disabled() -> ImuGate {
        ImuGate {
            still_threshold: 0.0,
            skip_threshold: f64::INFINITY,
            max_reuse_age: SimDuration::ZERO,
        }
    }

    /// Decision from motion alone (assumes the previous result is fresh).
    pub fn decide(&self, estimate: &MotionEstimate) -> GateDecision {
        let score = estimate.motion_score();
        if score < self.still_threshold {
            GateDecision::ReusePrevious
        } else if score > self.skip_threshold {
            GateDecision::SkipLocal
        } else {
            GateDecision::LookupLocal
        }
    }

    /// The full production decision rule. The fast path requires the
    /// *cumulative* motion since the previous result was validated to stay
    /// below the still threshold — a device that turned 45° and stopped is
    /// instantaneously still, but its previous result describes a view 45°
    /// away and must not be echoed. The skip decision remains based on
    /// instantaneous motion (is the camera swinging *right now*?).
    ///
    /// `cumulative_motion` is the sum of per-window motion scores since
    /// the last validated (non-fast-path) result; `previous_age` is the
    /// time since that result, or `None` if there is none.
    pub fn decide_with_history(
        &self,
        estimate: &MotionEstimate,
        cumulative_motion: f64,
        previous_age: Option<SimDuration>,
    ) -> GateDecision {
        let instantaneous = estimate.motion_score();
        if instantaneous > self.skip_threshold {
            return GateDecision::SkipLocal;
        }
        let fresh = matches!(previous_age, Some(age) if age <= self.max_reuse_age);
        if fresh && cumulative_motion < self.still_threshold {
            GateDecision::ReusePrevious
        } else {
            GateDecision::LookupLocal
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn estimate_with_score(rotation_deg: f64) -> MotionEstimate {
        MotionEstimate {
            rotation_rad: rotation_deg.to_radians(),
            ..MotionEstimate::default()
        }
    }

    #[test]
    fn partitions_score_axis() {
        let gate = ImuGate::new(1.0, 20.0);
        assert_eq!(
            gate.decide(&estimate_with_score(0.5)),
            GateDecision::ReusePrevious
        );
        assert_eq!(
            gate.decide(&estimate_with_score(5.0)),
            GateDecision::LookupLocal
        );
        assert_eq!(
            gate.decide(&estimate_with_score(30.0)),
            GateDecision::SkipLocal
        );
    }

    #[test]
    fn boundaries_go_to_lookup() {
        let gate = ImuGate::new(1.0, 20.0);
        assert_eq!(
            gate.decide(&estimate_with_score(1.0)),
            GateDecision::LookupLocal
        );
        assert_eq!(
            gate.decide(&estimate_with_score(20.0)),
            GateDecision::LookupLocal
        );
    }

    #[test]
    fn disabled_gate_always_looks_up() {
        let gate = ImuGate::disabled();
        assert_eq!(
            gate.decide_with_history(&estimate_with_score(0.0), 0.0, Some(SimDuration::ZERO)),
            GateDecision::LookupLocal
        );
        assert_eq!(
            gate.decide(&estimate_with_score(1e9)),
            GateDecision::LookupLocal
        );
    }

    #[test]
    #[should_panic(expected = "need 0 <= still")]
    fn constructor_validates_ordering() {
        ImuGate::new(5.0, 1.0);
    }

    #[test]
    fn history_rule_blocks_turned_and_stopped_reuse() {
        // Device turned 45° (cumulative) then froze (instantaneous ≈ 0):
        // the previous result describes the old view and must not be
        // echoed.
        let gate = ImuGate::default();
        let still = estimate_with_score(0.1);
        let fresh = Some(SimDuration::from_millis(100));
        assert_eq!(
            gate.decide_with_history(&still, 45.0, fresh),
            GateDecision::LookupLocal
        );
        // Genuinely unmoved since validation: fast path.
        assert_eq!(
            gate.decide_with_history(&still, 0.3, fresh),
            GateDecision::ReusePrevious
        );
    }

    #[test]
    fn history_rule_still_skips_on_violent_instantaneous_motion() {
        let gate = ImuGate::default();
        let swinging = estimate_with_score(50.0);
        assert_eq!(
            gate.decide_with_history(&swinging, 0.0, Some(SimDuration::ZERO)),
            GateDecision::SkipLocal
        );
    }

    #[test]
    fn history_rule_respects_age_and_absence() {
        let gate = ImuGate::default();
        let still = estimate_with_score(0.0);
        assert_eq!(
            gate.decide_with_history(&still, 0.0, None),
            GateDecision::LookupLocal
        );
        assert_eq!(
            gate.decide_with_history(&still, 0.0, Some(SimDuration::from_secs(60))),
            GateDecision::LookupLocal
        );
    }

    #[test]
    fn display_names() {
        assert_eq!(GateDecision::ReusePrevious.to_string(), "reuse-previous");
        assert_eq!(GateDecision::LookupLocal.to_string(), "lookup-local");
        assert_eq!(GateDecision::SkipLocal.to_string(), "skip-local");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Every score maps to exactly one decision and the mapping is
        /// monotone: raising the score never moves the decision "backwards"
        /// (reuse < lookup < skip).
        #[test]
        fn decision_is_monotone_in_score(
            a in 0.0f64..100.0,
            b in 0.0f64..100.0,
            still in 0.0f64..10.0,
            extra in 0.0f64..50.0,
        ) {
            fn rank(d: GateDecision) -> u8 {
                match d {
                    GateDecision::ReusePrevious => 0,
                    GateDecision::LookupLocal => 1,
                    GateDecision::SkipLocal => 2,
                }
            }
            let gate = ImuGate::new(still, still + extra);
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let lo_est = MotionEstimate { rotation_rad: lo.to_radians(), ..Default::default() };
            let hi_est = MotionEstimate { rotation_rad: hi.to_radians(), ..Default::default() };
            prop_assert!(rank(gate.decide(&lo_est)) <= rank(gate.decide(&hi_est)));
        }
    }
}
