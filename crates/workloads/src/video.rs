//! Standard single-device video scenarios.
//!
//! These are the workloads the paper's intro motivates: a phone propped on
//! a stand (stationary), deliberately scanning a scene (slow pan), carried
//! through an environment (walking tour), inspecting exhibits
//! (turn-and-look), and a static camera over a changing scene (object
//! churn). Durations default to 30 simulated seconds at 10 fps; the
//! experiments stretch them as needed.

use approxcache::{ChurnSpec, Scenario};
use imu::MotionProfile;
use simcore::SimDuration;

/// Phone propped still: the IMU fast path's best case.
pub fn stationary() -> Scenario {
    Scenario::single_device(MotionProfile::Stationary)
}

/// Smooth 10°/s scan across a scene: temporal locality with a steadily
/// advancing view.
pub fn slow_pan() -> Scenario {
    Scenario::single_device(MotionProfile::SlowPan { deg_per_sec: 10.0 }).with_name("slow-pan")
}

/// Walking at 1.4 m/s through the world: frequent subject changes, strong
/// motion — the hardest single-device case.
pub fn walking_tour() -> Scenario {
    Scenario::single_device(MotionProfile::Walking { speed_mps: 1.4 }).with_name("walking-tour")
}

/// Dwell on an exhibit for three seconds, then swing 45° to the next.
pub fn turn_and_look() -> Scenario {
    Scenario::single_device(MotionProfile::TurnAndLook {
        dwell_secs: 3.0,
        turn_deg: 45.0,
    })
    .with_name("turn-and-look")
}

/// Stationary camera over a scene where a quarter of the objects are
/// replaced every five seconds: bounds how long cached results stay valid.
pub fn object_churn() -> Scenario {
    Scenario::single_device(MotionProfile::Stationary)
        .with_name("object-churn")
        .with_churn(ChurnSpec {
            interval: SimDuration::from_secs(5),
            fraction: 0.25,
        })
}

/// The four scenarios of the headline experiment, easiest first.
pub fn headline_set() -> Vec<Scenario> {
    vec![stationary(), slow_pan(), turn_and_look(), walking_tour()]
}

/// Every named single-device scenario.
pub fn all() -> Vec<Scenario> {
    vec![
        stationary(),
        slow_pan(),
        turn_and_look(),
        walking_tour(),
        object_churn(),
    ]
}

#[cfg(test)]
// Tests compare exactly-constructed floats; exact equality is intentional.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_validate_and_have_unique_names() {
        let scenarios = all();
        let mut names: Vec<&str> = scenarios.iter().map(|s| s.name.as_str()).collect();
        for s in &scenarios {
            s.validate().expect("scenario validates");
            assert_eq!(s.devices, 1);
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 5);
    }

    #[test]
    fn churn_scenario_churns() {
        let s = object_churn();
        let churn = s.churn.expect("churn configured");
        assert_eq!(churn.fraction, 0.25);
        assert_eq!(churn.interval, SimDuration::from_secs(5));
        assert!(stationary().churn.is_none());
    }

    #[test]
    fn headline_set_is_a_subset_of_all() {
        let all_names: Vec<String> = all().into_iter().map(|s| s.name).collect();
        for s in headline_set() {
            assert!(all_names.contains(&s.name), "{} missing", s.name);
        }
    }
}
