//! Shared-world multi-device scenarios.

use approxcache::Scenario;
use imu::MotionProfile;
use scene::SceneConfig;

/// A museum gallery: `devices` visitors inspecting exhibits in one room
/// (turn-and-look motion, spawn points a few metres apart, well within
/// WiFi-Direct range). The canonical peer-collaboration scenario — every
/// visitor looks at the same exhibits, so one visitor's inference serves
/// the others.
pub fn museum(devices: usize) -> Scenario {
    Scenario::multi_device(
        MotionProfile::TurnAndLook {
            dwell_secs: 3.0,
            turn_deg: 45.0,
        },
        devices,
    )
    .with_name(&format!("museum-x{devices}"))
    .with_scene(SceneConfig {
        // A denser, smaller room: more shared subjects.
        num_objects: 40,
        world_extent: 12.0,
        ..SceneConfig::default()
    })
}

/// A campus walk: `devices` pedestrians walking independently across a
/// large area. Peers drift in and out of range; collaboration helps less
/// than in the museum — the contrast the peer-scaling experiment shows.
pub fn campus(devices: usize) -> Scenario {
    let mut scenario = Scenario::multi_device(MotionProfile::Walking { speed_mps: 1.4 }, devices)
        .with_name(&format!("campus-x{devices}"))
        .with_scene(SceneConfig {
            num_objects: 120,
            world_extent: 60.0,
            ..SceneConfig::default()
        });
    scenario.spawn_spacing = 15.0;
    scenario
}

#[cfg(test)]
// Tests compare exactly-constructed floats; exact equality is intentional.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn museum_is_dense_and_collaborative() {
        let s = museum(8);
        s.validate().expect("scenario validates");
        assert_eq!(s.devices, 8);
        assert_eq!(s.scene.world_extent, 12.0);
        assert!(s.name.contains("x8"));
        // All spawn points must be within WiFi-Direct range (30 m) of the
        // origin neighbourhood.
        for d in 0..8 {
            let (x, y) = approxcache::config::spawn_position(d, 8, s.spawn_spacing);
            assert!((x * x + y * y).sqrt() < 30.0, "device {d} out of range");
        }
    }

    #[test]
    fn campus_is_spread_out() {
        let s = campus(4);
        s.validate().expect("scenario validates");
        assert!(s.spawn_spacing > museum(4).spawn_spacing);
        assert!(s.scene.world_extent > museum(4).scene.world_extent);
    }
}
