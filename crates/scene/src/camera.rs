//! View resolution: which object is the camera looking at?

use serde::{Deserialize, Serialize};

use imu::Pose;

use crate::config::SceneConfig;
use crate::world::{World, WorldObject};

/// Geometry of one resolved view.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ViewGeometry {
    /// Bearing from camera to subject minus camera yaw, radians, wrapped
    /// to `(-π, π]`. Zero means dead centre.
    pub bearing_offset: f64,
    /// Distance to the subject, metres.
    pub distance: f64,
}

/// Resolves poses to viewed objects under a pinhole-ish model: the subject
/// is the object closest to the view axis within the field of view and
/// range; if none qualifies, the object closest to the view axis overall
/// (something is always in frame — a far wall, a shelf edge).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Camera {
    fov: f64,
    max_distance: f64,
}

impl Camera {
    /// A camera using `config`'s field of view and range.
    pub fn new(config: &SceneConfig) -> Camera {
        config.validate();
        Camera {
            fov: config.fov,
            max_distance: config.max_view_distance,
        }
    }

    /// Field of view, radians.
    pub fn fov(&self) -> f64 {
        self.fov
    }

    /// Maximum preferred subject distance, metres.
    pub fn max_distance(&self) -> f64 {
        self.max_distance
    }

    /// The object the camera at `pose` is looking at, with its view
    /// geometry. Returns `None` only for an empty world.
    pub fn subject<'w>(
        &self,
        world: &'w World,
        pose: &Pose,
    ) -> Option<(&'w WorldObject, ViewGeometry)> {
        let mut best_in_fov: Option<(&WorldObject, ViewGeometry, f64)> = None;
        let mut best_any: Option<(&WorldObject, ViewGeometry, f64)> = None;
        for obj in world.objects() {
            let dx = obj.x - pose.x;
            let dy = obj.y - pose.y;
            let distance = (dx * dx + dy * dy).sqrt();
            let bearing = dy.atan2(dx);
            let bearing_offset = wrap_angle(bearing - pose.yaw);
            let geometry = ViewGeometry {
                bearing_offset,
                distance,
            };
            // Score: angular offset dominates; nearer objects win ties.
            let score = bearing_offset.abs() + 0.01 * distance;
            if bearing_offset.abs() <= self.fov / 2.0
                && distance <= self.max_distance
                && best_in_fov.as_ref().is_none_or(|(_, _, s)| score < *s)
            {
                best_in_fov = Some((obj, geometry, score));
            }
            if best_any.as_ref().is_none_or(|(_, _, s)| score < *s) {
                best_any = Some((obj, geometry, score));
            }
        }
        best_in_fov
            .or(best_any)
            .map(|(obj, geometry, _)| (obj, geometry))
    }
}

/// Wraps an angle to `(-π, π]`.
pub fn wrap_angle(angle: f64) -> f64 {
    let mut a = angle % std::f64::consts::TAU;
    if a <= -std::f64::consts::PI {
        a += std::f64::consts::TAU;
    } else if a > std::f64::consts::PI {
        a -= std::f64::consts::TAU;
    }
    a
}

#[cfg(test)]
// Tests compare exactly-constructed floats; exact equality is intentional.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use crate::classes::ClassUniverse;
    use simcore::SimRng;
    use std::f64::consts::{FRAC_PI_2, PI};

    fn world_with_objects(positions: &[(f64, f64)]) -> World {
        let mut rng = SimRng::seed(1);
        let config = SceneConfig {
            num_objects: positions.len(),
            ..SceneConfig::default()
        };
        let universe = ClassUniverse::generate(&config, &mut rng);
        let world = World::generate(&universe, &config, &mut rng);
        // Re-pin positions deterministically for the test.
        let objects: Vec<_> = world
            .objects()
            .iter()
            .cloned()
            .zip(positions)
            .map(|(mut o, &(x, y))| {
                o.x = x;
                o.y = y;
                o
            })
            .collect();
        world.with_objects(objects)
    }

    #[test]
    fn wrap_angle_stays_in_range() {
        for mult in -8i32..=8 {
            let a = wrap_angle(mult as f64 * 1.7);
            assert!(a > -PI - 1e-12 && a <= PI + 1e-12);
        }
        assert!((wrap_angle(3.0 * PI) - PI).abs() < 1e-12);
        assert!((wrap_angle(-3.0 * PI) - PI).abs() < 1e-12);
    }

    #[test]
    fn picks_object_on_view_axis() {
        // Object A straight ahead (east), object B to the north.
        let world = world_with_objects(&[(5.0, 0.0), (0.0, 5.0)]);
        let camera = Camera::new(world.config());
        let east = Pose::default(); // yaw 0 = facing +x
        let (subject, geometry) = camera.subject(&world, &east).unwrap();
        assert_eq!(subject.x, 5.0);
        assert!(geometry.bearing_offset.abs() < 1e-9);
        assert!((geometry.distance - 5.0).abs() < 1e-9);

        let north = Pose {
            yaw: FRAC_PI_2,
            ..Pose::default()
        };
        let (subject, _) = camera.subject(&world, &north).unwrap();
        assert_eq!(subject.y, 5.0);
    }

    #[test]
    fn nearer_object_wins_equal_bearing() {
        let world = world_with_objects(&[(5.0, 0.0), (10.0, 0.0)]);
        let camera = Camera::new(world.config());
        let (subject, _) = camera.subject(&world, &Pose::default()).unwrap();
        assert_eq!(subject.x, 5.0);
    }

    #[test]
    fn falls_back_to_nearest_bearing_outside_fov() {
        // Single object behind the camera: still resolved via fallback.
        let world = world_with_objects(&[(-5.0, 0.0)]);
        let camera = Camera::new(world.config());
        let (subject, geometry) = camera.subject(&world, &Pose::default()).unwrap();
        assert_eq!(subject.x, -5.0);
        assert!((geometry.bearing_offset.abs() - PI).abs() < 1e-9);
    }

    #[test]
    fn distant_object_prefers_in_range_one() {
        // One object in view but beyond max distance, one slightly off-axis
        // but close: the close, in-FOV one is preferred.
        let world = world_with_objects(&[(100.0, 0.0), (5.0, 1.0)]);
        let camera = Camera::new(world.config());
        let (subject, _) = camera.subject(&world, &Pose::default()).unwrap();
        assert_eq!(subject.x, 5.0);
    }

    #[test]
    fn small_pose_change_keeps_subject() {
        // Temporal locality: a half-degree turn does not switch subjects.
        let world = world_with_objects(&[(8.0, 0.0), (0.0, 8.0), (-8.0, 0.0)]);
        let camera = Camera::new(world.config());
        let before = camera.subject(&world, &Pose::default()).unwrap().0.id;
        let nudged = Pose {
            yaw: 0.5f64.to_radians(),
            ..Pose::default()
        };
        let after = camera.subject(&world, &nudged).unwrap().0.id;
        assert_eq!(before, after);
    }

    #[test]
    fn accessors() {
        let config = SceneConfig::default();
        let camera = Camera::new(&config);
        assert_eq!(camera.fov(), config.fov);
        assert_eq!(camera.max_distance(), config.max_view_distance);
    }
}
