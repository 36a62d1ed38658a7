//! Frame rendering: pose → descriptor + ground truth.
//!
//! The descriptor of a frame looking at object `o` from geometry `g` is
//!
//! ```text
//! descriptor = center(o.class)            // which class it is
//!            + o.offset                   // which instance it is
//!            + view(o, g)                 // smooth view-dependent term
//!            + sensor noise               // fresh per shot
//! ```
//!
//! The view term is a linear combination of per-object random basis
//! vectors weighted by smooth functions of the bearing offset and
//! distance, so consecutive frames of a slowly moving camera produce
//! near-identical descriptors — the temporal locality approximate caching
//! feeds on — while a different vantage point of the *same* object still
//! drifts away gradually.

use features::FeatureVector;
use simcore::{SimRng, SimTime};

use crate::camera::{Camera, ViewGeometry};
use crate::config::SceneConfig;
use crate::frame::Frame;
use crate::world::{World, WorldObject};

/// Renders frames from poses.
///
/// # Example
///
/// ```
/// use scene::{ClassUniverse, FrameRenderer, SceneConfig, World};
/// use imu::Pose;
/// use simcore::{SimRng, SimTime};
///
/// let mut rng = SimRng::seed(5);
/// let config = SceneConfig::default();
/// let universe = ClassUniverse::generate(&config, &mut rng);
/// let world = World::generate(&universe, &config, &mut rng);
/// let renderer = FrameRenderer::new(&config);
/// let frame = renderer.render(&world, &Pose::default(), SimTime::ZERO, &mut rng);
/// assert!((frame.truth.as_index()) < config.num_classes);
/// ```
#[derive(Debug, Clone)]
pub struct FrameRenderer {
    camera: Camera,
    view_dependence: f64,
    sensor_noise_std: f64,
    /// Number of appearance basis vectors per object.
    basis_count: usize,
    /// Global lighting-drift term: `direction · rate · t` is added to
    /// every frame. The direction is a fixed pseudo-random unit vector, so
    /// all devices (and re-runs) drift identically.
    drift_rate: f64,
    /// The drift direction, drawn once; `None` when `drift_rate` is 0.
    drift_direction: Option<FeatureVector>,
    /// Fraction of time an occluder blocks the view (see
    /// [`SceneConfig::occlusion_fraction`]).
    occlusion_fraction: f64,
    /// Std of the occluder instance's appearance offset.
    object_offset_std: f64,
}

impl FrameRenderer {
    /// Creates a renderer for worlds generated with `config`.
    pub fn new(config: &SceneConfig) -> FrameRenderer {
        config.validate();
        FrameRenderer {
            camera: Camera::new(config),
            view_dependence: config.view_dependence,
            sensor_noise_std: config.sensor_noise_std,
            basis_count: 4,
            drift_rate: config.drift_rate,
            drift_direction: (config.drift_rate > 0.0)
                .then(|| drift_direction(config.descriptor_dim)),
            occlusion_fraction: config.occlusion_fraction,
            object_offset_std: config.object_offset_std,
        }
    }

    /// The camera model in use.
    pub fn camera(&self) -> &Camera {
        &self.camera
    }

    /// Renders the frame seen from `pose` at instant `at`.
    ///
    /// `rng` supplies only the per-shot sensor noise; everything else is a
    /// pure function of world and pose, so two devices at the same pose see
    /// (noise apart) the same frame.
    ///
    /// # Panics
    ///
    /// Panics if the world has no objects (cannot happen for worlds from
    /// [`World::generate`]).
    pub fn render(&self, world: &World, pose: &imu::Pose, at: SimTime, rng: &mut SimRng) -> Frame {
        if let Some(frame) = self.render_occlusion(world, pose, at, rng) {
            return frame;
        }
        let (subject, geometry) = self
            .camera
            .subject(world, pose)
            .expect("render: world must contain at least one object");
        let dim = world.config().descriptor_dim;
        let mut descriptor = world.universe().center(subject.class).clone();
        descriptor = descriptor.add(&subject.offset).expect("matching dims");
        descriptor = descriptor
            .add(&self.view_component(subject, &geometry, dim))
            .expect("matching dims");
        if let Some(direction) = &self.drift_direction {
            let magnitude = self.drift_rate * at.as_secs_f64();
            descriptor = descriptor
                .add(&direction.scale(magnitude as f32))
                .expect("matching dims");
        }
        if self.sensor_noise_std > 0.0 {
            let noise: Vec<f32> = (0..dim)
                .map(|_| rng.normal(0.0, self.sensor_noise_std) as f32)
                .collect();
            descriptor = descriptor
                .add(&FeatureVector::from_vec(noise).expect("finite noise"))
                .expect("matching dims");
        }
        Frame {
            at,
            descriptor,
            truth: subject.class,
            subject: subject.id,
            geometry,
        }
    }

    /// The occluded frame for this instant, if an occlusion episode is in
    /// progress at this viewer's position. Episodes are a deterministic
    /// function of (time bucket, coarse position), so consecutive frames
    /// of one viewer share an episode while distant viewers have
    /// independent ones.
    fn render_occlusion(
        &self,
        world: &World,
        pose: &imu::Pose,
        at: SimTime,
        rng: &mut SimRng,
    ) -> Option<Frame> {
        if self.occlusion_fraction <= 0.0 {
            return None;
        }
        let bucket = (at.as_secs_f64() / crate::config::OCCLUSION_EPISODE_SECS).floor() as u64;
        // Coarse viewer cell so co-located devices share the occluder but
        // distant ones do not.
        let cell = ((pose.x / 2.0).round() as i64, (pose.y / 2.0).round() as i64);
        let mut episode_rng = SimRng::seed(0x0cc1)
            .split_index("occlusion-bucket", bucket)
            .split_index("cell-x", cell.0 as u64)
            .split_index("cell-y", cell.1 as u64);
        if !episode_rng.chance(self.occlusion_fraction) {
            return None;
        }
        let universe = world.universe();
        let class = crate::classes::ClassId(episode_rng.index(universe.len()) as u32);
        let dim = world.config().descriptor_dim;
        // The occluder is a fresh instance of its class, filling the frame.
        let offset: Vec<f32> = (0..dim)
            .map(|_| episode_rng.normal(0.0, self.object_offset_std) as f32)
            .collect();
        let mut descriptor = universe
            .center(class)
            .add(&FeatureVector::from_vec(offset).expect("finite offset"))
            .expect("matching dims");
        if self.sensor_noise_std > 0.0 {
            let noise: Vec<f32> = (0..dim)
                .map(|_| rng.normal(0.0, self.sensor_noise_std) as f32)
                .collect();
            descriptor = descriptor
                .add(&FeatureVector::from_vec(noise).expect("finite noise"))
                .expect("matching dims");
        }
        Some(Frame {
            at,
            descriptor,
            truth: class,
            // Synthetic instance id derived from the episode; never
            // collides with world object ids (which count up from 0).
            subject: crate::world::ObjectId(u64::MAX - bucket),
            geometry: ViewGeometry {
                bearing_offset: 0.0,
                distance: 0.5,
            },
        })
    }

    /// The smooth view-dependent appearance term.
    fn view_component(
        &self,
        subject: &WorldObject,
        geometry: &ViewGeometry,
        dim: usize,
    ) -> FeatureVector {
        // Per-object deterministic basis from its appearance seed.
        let mut basis_rng = SimRng::seed(subject.appearance_seed);
        // Smooth scalar weights of the view geometry. Bounded, slowly
        // varying, and distinct per basis vector.
        let b = geometry.bearing_offset;
        let d = geometry.distance;
        let weights = [
            b.sin(),
            b.cos() - 1.0,           // 0 when dead-centre
            (d / 10.0).tanh() - 0.5, // distance attenuation
            (2.0 * b).sin() * (d / 20.0).tanh(),
        ];
        let mut component = FeatureVector::zeros(dim);
        for weight in weights.iter().take(self.basis_count) {
            let v: Vec<f32> = (0..dim)
                .map(|_| basis_rng.normal(0.0, 1.0 / (dim as f64).sqrt()) as f32)
                .collect();
            let basis = FeatureVector::from_vec(v).expect("finite basis");
            component = component
                .add(&basis.scale((self.view_dependence * weight) as f32))
                .expect("matching dims");
        }
        component
    }
}

/// The fixed unit direction of global lighting drift (deterministic for a
/// given dimension, shared by all renderers).
fn drift_direction(dim: usize) -> FeatureVector {
    let mut rng = SimRng::seed(0x00d1_21f7).split("lighting-drift");
    let v = rng.unit_vector(dim);
    FeatureVector::from_vec(v.into_iter().map(|c| c as f32).collect()).expect("finite unit vector")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::ClassUniverse;
    use features::distance::euclidean;
    use imu::Pose;

    struct Fixture {
        world: World,
        renderer: FrameRenderer,
        rng: SimRng,
    }

    fn fixture(seed: u64) -> Fixture {
        let mut rng = SimRng::seed(seed);
        let config = SceneConfig::default();
        let universe = ClassUniverse::generate(&config, &mut rng);
        let world = World::generate(&universe, &config, &mut rng);
        let renderer = FrameRenderer::new(&config);
        Fixture {
            world,
            renderer,
            rng,
        }
    }

    #[test]
    fn ground_truth_matches_camera_subject() {
        let mut fx = fixture(1);
        let pose = Pose::default();
        let frame = fx
            .renderer
            .render(&fx.world, &pose, SimTime::ZERO, &mut fx.rng);
        let (subject, _) = fx.renderer.camera().subject(&fx.world, &pose).unwrap();
        assert_eq!(frame.truth, subject.class);
        assert_eq!(frame.subject, subject.id);
    }

    #[test]
    fn same_pose_same_frame_up_to_sensor_noise() {
        let mut fx = fixture(2);
        let pose = Pose::default();
        let a = fx
            .renderer
            .render(&fx.world, &pose, SimTime::ZERO, &mut fx.rng);
        let b = fx
            .renderer
            .render(&fx.world, &pose, SimTime::from_millis(33), &mut fx.rng);
        let d = euclidean(&a.descriptor, &b.descriptor);
        // Two fresh noise draws of std 0.25 in 256 dims: distance ≈
        // 0.25·√2·√256 ≈ 5.7 — far below the class spread of 10·√2 ≈ 14.
        assert!(d < 8.0, "noise-only distance {d}");
        assert_eq!(a.truth, b.truth);
    }

    #[test]
    fn small_turn_moves_descriptor_smoothly() {
        let mut fx = fixture(3);
        let base = fx
            .renderer
            .render(&fx.world, &Pose::default(), SimTime::ZERO, &mut fx.rng);
        let small = Pose {
            yaw: 1.0f64.to_radians(),
            ..Pose::default()
        };
        let frame_small = fx
            .renderer
            .render(&fx.world, &small, SimTime::ZERO, &mut fx.rng);
        if frame_small.subject == base.subject {
            let d = euclidean(&base.descriptor, &frame_small.descriptor);
            assert!(d < 9.0, "1° turn moved descriptor by {d}");
        }
    }

    #[test]
    fn different_classes_are_far_apart() {
        // Render every object head-on; frames of different classes must be
        // far apart relative to same-subject re-renders.
        let mut fx = fixture(4);
        let mut frames = Vec::new();
        let objects: Vec<_> = fx.world.objects().to_vec();
        for obj in objects.iter().take(20) {
            let pose = Pose {
                x: obj.x - 3.0,
                y: obj.y,
                yaw: 0.0,
                pitch: 0.0,
            };
            // Only keep it if the camera actually resolves this object.
            let frame = fx
                .renderer
                .render(&fx.world, &pose, SimTime::ZERO, &mut fx.rng);
            if frame.subject == obj.id {
                frames.push(frame);
            }
        }
        assert!(frames.len() >= 5, "need a few clean views");
        for i in 0..frames.len() {
            for j in (i + 1)..frames.len() {
                if frames[i].truth != frames[j].truth {
                    let d = euclidean(&frames[i].descriptor, &frames[j].descriptor);
                    assert!(d > 8.0, "cross-class distance only {d}");
                }
            }
        }
    }

    #[test]
    fn noiseless_render_is_deterministic() {
        let mut rng = SimRng::seed(5);
        let config = SceneConfig {
            sensor_noise_std: 0.0,
            ..SceneConfig::default()
        };
        let universe = ClassUniverse::generate(&config, &mut rng);
        let world = World::generate(&universe, &config, &mut rng);
        let renderer = FrameRenderer::new(&config);
        let pose = Pose {
            x: 1.0,
            y: -2.0,
            yaw: 0.3,
            pitch: 0.0,
        };
        let mut r1 = SimRng::seed(6);
        let mut r2 = SimRng::seed(99);
        let a = renderer.render(&world, &pose, SimTime::ZERO, &mut r1);
        let b = renderer.render(&world, &pose, SimTime::ZERO, &mut r2);
        assert_eq!(a.descriptor, b.descriptor, "no noise ⇒ rng must not matter");
    }

    #[test]
    fn drift_separates_frames_linearly_in_time() {
        let mut rng = SimRng::seed(41);
        let config = SceneConfig {
            sensor_noise_std: 0.0,
            drift_rate: 0.5,
            ..SceneConfig::default()
        };
        let universe = ClassUniverse::generate(&config, &mut rng);
        let world = World::generate(&universe, &config, &mut rng);
        let renderer = FrameRenderer::new(&config);
        let pose = Pose::default();
        let t0 = renderer.render(&world, &pose, SimTime::ZERO, &mut rng);
        let t10 = renderer.render(&world, &pose, SimTime::from_secs(10), &mut rng);
        let t20 = renderer.render(&world, &pose, SimTime::from_secs(20), &mut rng);
        let d10 = euclidean(&t0.descriptor, &t10.descriptor);
        let d20 = euclidean(&t0.descriptor, &t20.descriptor);
        assert!(
            (d10 - 5.0).abs() < 1e-3,
            "10 s at 0.5/s should be 5.0, got {d10}"
        );
        assert!(
            (d20 - 10.0).abs() < 1e-3,
            "20 s at 0.5/s should be 10.0, got {d20}"
        );
        assert_eq!(t0.truth, t20.truth, "drift must not change ground truth");
    }

    #[test]
    fn occlusions_hit_the_configured_fraction_in_episodes() {
        let mut rng = SimRng::seed(51);
        let config = SceneConfig {
            occlusion_fraction: 0.3,
            ..SceneConfig::default()
        };
        let universe = ClassUniverse::generate(&config, &mut rng);
        let world = World::generate(&universe, &config, &mut rng);
        let renderer = FrameRenderer::new(&config);
        let pose = Pose::default();
        // 10 fps over 200 s; occluded frames carry the synthetic subject.
        let mut occluded = 0;
        let mut transitions = 0;
        let mut prev_occluded = false;
        let total = 2_000;
        for i in 1..=total {
            let frame = renderer.render(&world, &pose, SimTime::from_millis(i * 100), &mut rng);
            let is_occluded = frame.subject.0 > u64::MAX / 2;
            if is_occluded {
                occluded += 1;
            }
            if is_occluded != prev_occluded {
                transitions += 1;
            }
            prev_occluded = is_occluded;
        }
        let fraction = occluded as f64 / total as f64;
        assert!(
            (fraction - 0.3).abs() < 0.06,
            "occluded fraction {fraction}"
        );
        // Episodes are ~0.7 s = 7 frames: transition count must be far
        // below what per-frame independence (~2·0.3·0.7·N ≈ 840) gives.
        assert!(
            transitions < 400,
            "occlusions flicker instead of forming episodes: {transitions} transitions"
        );
    }

    #[test]
    fn occluded_frames_change_ground_truth_and_classify_consistently() {
        let mut rng = SimRng::seed(52);
        let config = SceneConfig {
            occlusion_fraction: 1.0, // always occluded
            ..SceneConfig::default()
        };
        let universe = ClassUniverse::generate(&config, &mut rng);
        let world = World::generate(&universe, &config, &mut rng);
        let renderer = FrameRenderer::new(&config);
        let frame = renderer.render(&world, &Pose::default(), SimTime::from_secs(1), &mut rng);
        assert!(frame.subject.0 > u64::MAX / 2, "synthetic occluder id");
        // The descriptor classifies to the occluder's class.
        assert_eq!(universe.nearest_class(&frame.descriptor), frame.truth);
    }

    #[test]
    fn zero_occlusion_fraction_changes_nothing() {
        let mut rng1 = SimRng::seed(53);
        let mut rng2 = SimRng::seed(53);
        let config = SceneConfig::default();
        let universe = ClassUniverse::generate(&config, &mut rng1);
        let _ = ClassUniverse::generate(&config, &mut rng2);
        let world = World::generate(&universe, &config, &mut rng1);
        let world2 = World::generate(&universe, &config, &mut rng2);
        let a = FrameRenderer::new(&config).render(
            &world,
            &Pose::default(),
            SimTime::from_secs(3),
            &mut rng1,
        );
        let b = FrameRenderer::new(&config).render(
            &world2,
            &Pose::default(),
            SimTime::from_secs(3),
            &mut rng2,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn zero_drift_is_time_invariant() {
        let mut rng = SimRng::seed(42);
        let config = SceneConfig {
            sensor_noise_std: 0.0,
            ..SceneConfig::default()
        };
        let universe = ClassUniverse::generate(&config, &mut rng);
        let world = World::generate(&universe, &config, &mut rng);
        let renderer = FrameRenderer::new(&config);
        let pose = Pose::default();
        let a = renderer.render(&world, &pose, SimTime::ZERO, &mut rng);
        let b = renderer.render(&world, &pose, SimTime::from_secs(100), &mut rng);
        assert_eq!(a.descriptor, b.descriptor);
    }

    #[test]
    fn ideal_classifier_recovers_truth_mostly() {
        // The nearest-class rule on rendered descriptors should be right
        // nearly always under default settings (it is the DNN's ceiling).
        let mut fx = fixture(7);
        let mut correct = 0;
        let mut total = 0;
        let poses: Vec<Pose> = (0..100)
            .map(|i| Pose {
                x: (i % 10) as f64 * 4.0 - 20.0,
                y: (i / 10) as f64 * 4.0 - 20.0,
                yaw: (i as f64) * 0.7,
                pitch: 0.0,
            })
            .collect();
        for pose in &poses {
            let frame = fx
                .renderer
                .render(&fx.world, pose, SimTime::ZERO, &mut fx.rng);
            total += 1;
            if fx.world.universe().nearest_class(&frame.descriptor) == frame.truth {
                correct += 1;
            }
        }
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.9, "ideal accuracy only {acc}");
    }
}
