//! Object placement and churn.

use serde::{Deserialize, Serialize};

use features::FeatureVector;
use simcore::SimRng;

use crate::classes::{ClassId, ClassUniverse};
use crate::config::SceneConfig;

/// Identifier of an object instance in the world. Monotonically assigned;
/// churn retires old ids and mints new ones, so an id seen twice always
/// denotes the same physical object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ObjectId(pub u64);

impl std::fmt::Display for ObjectId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "obj-{}", self.0)
    }
}

/// One recognizable object instance.
#[derive(Debug, Clone, PartialEq)]
pub struct WorldObject {
    /// Stable instance identifier.
    pub id: ObjectId,
    /// Ground-truth class.
    pub class: ClassId,
    /// East position, metres.
    pub x: f64,
    /// North position, metres.
    pub y: f64,
    /// This instance's descriptor offset from its class centre (instances
    /// of one class look similar, not identical).
    pub offset: FeatureVector,
    /// Seed for this instance's view-dependent appearance basis.
    pub appearance_seed: u64,
}

/// The environment a device (or several devices) observes: a set of
/// objects in a square arena, with optional churn.
///
/// # Example
///
/// ```
/// use scene::{ClassUniverse, SceneConfig, World};
/// use simcore::SimRng;
///
/// let mut rng = SimRng::seed(3);
/// let config = SceneConfig::default();
/// let universe = ClassUniverse::generate(&config, &mut rng);
/// let mut world = World::generate(&universe, &config, &mut rng);
/// let before: Vec<_> = world.objects().iter().map(|o| o.id).collect();
/// world.churn(0.5, &mut rng);
/// let after: Vec<_> = world.objects().iter().map(|o| o.id).collect();
/// assert_eq!(before.len(), after.len());
/// assert_ne!(before, after);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct World {
    objects: Vec<WorldObject>,
    universe: ClassUniverse,
    config: SceneConfig,
    next_id: u64,
}

impl World {
    /// Places `config.num_objects` objects uniformly in the arena with
    /// classes drawn uniformly from `universe`.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid.
    pub fn generate(universe: &ClassUniverse, config: &SceneConfig, rng: &mut SimRng) -> World {
        config.validate();
        let mut world = World {
            objects: Vec::with_capacity(config.num_objects),
            universe: universe.clone(),
            config: config.clone(),
            next_id: 0,
        };
        let mut place_rng = rng.split("world-placement");
        for _ in 0..config.num_objects {
            let obj = world.new_object(&mut place_rng);
            world.objects.push(obj);
        }
        world
    }

    fn new_object(&mut self, rng: &mut SimRng) -> WorldObject {
        let id = ObjectId(self.next_id);
        self.next_id += 1;
        let class = ClassId(rng.index(self.universe.len()) as u32);
        let e = self.config.world_extent;
        let offset: Vec<f32> = (0..self.config.descriptor_dim)
            .map(|_| rng.normal(0.0, self.config.object_offset_std) as f32)
            .collect();
        WorldObject {
            id,
            class,
            x: rng.uniform(-e, e),
            y: rng.uniform(-e, e),
            offset: FeatureVector::from_vec(offset).expect("finite normal draws"),
            appearance_seed: rng.split_index("appearance", id.0).seed_value(),
        }
    }

    /// The objects currently in the world.
    pub fn objects(&self) -> &[WorldObject] {
        &self.objects
    }

    /// The class universe the world draws from.
    pub fn universe(&self) -> &ClassUniverse {
        &self.universe
    }

    /// The configuration the world was generated with.
    pub fn config(&self) -> &SceneConfig {
        &self.config
    }

    /// Replaces a uniformly chosen `fraction` of objects with fresh ones
    /// (new identity, class, position and appearance) — the "object churn"
    /// workload ingredient that ages cached results.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `[0, 1]`.
    pub fn churn(&mut self, fraction: f64, rng: &mut SimRng) {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "churn: fraction must be in [0, 1], got {fraction}"
        );
        let n = ((self.objects.len() as f64) * fraction).round() as usize;
        let mut indices: Vec<usize> = (0..self.objects.len()).collect();
        rng.shuffle(&mut indices);
        for &i in indices.iter().take(n) {
            self.objects[i] = self.new_object(rng);
        }
    }

    /// Looks up an object by id.
    pub fn object(&self, id: ObjectId) -> Option<&WorldObject> {
        self.objects.iter().find(|o| o.id == id)
    }

    /// This world with `objects` in place of its own, for tests that pin
    /// the positions of the objects it generated.
    #[cfg(test)]
    pub(crate) fn with_objects(self, objects: Vec<WorldObject>) -> World {
        World { objects, ..self }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make_world(seed: u64) -> World {
        let mut rng = SimRng::seed(seed);
        let config = SceneConfig::default();
        let universe = ClassUniverse::generate(&config, &mut rng);
        World::generate(&universe, &config, &mut rng)
    }

    #[test]
    fn generates_requested_objects_in_bounds() {
        let w = make_world(1);
        assert_eq!(w.objects().len(), 60);
        for o in w.objects() {
            assert!(o.x.abs() <= 25.0 && o.y.abs() <= 25.0);
            assert!((o.class.as_index()) < w.universe().len());
            assert_eq!(o.offset.dim(), 256);
        }
    }

    #[test]
    fn object_ids_are_unique() {
        let w = make_world(2);
        let mut ids: Vec<u64> = w.objects().iter().map(|o| o.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 60);
    }

    #[test]
    fn churn_replaces_exactly_the_requested_fraction() {
        let mut w = make_world(3);
        let before: std::collections::HashSet<u64> = w.objects().iter().map(|o| o.id.0).collect();
        let mut rng = SimRng::seed(4);
        w.churn(0.25, &mut rng);
        let after: std::collections::HashSet<u64> = w.objects().iter().map(|o| o.id.0).collect();
        let surviving = before.intersection(&after).count();
        assert_eq!(surviving, 45); // 60 - 15
        assert_eq!(after.len(), 60);
    }

    #[test]
    fn churn_zero_is_identity_churn_one_replaces_all() {
        let mut w = make_world(5);
        let snapshot = w.clone();
        let mut rng = SimRng::seed(6);
        w.churn(0.0, &mut rng);
        assert_eq!(w, snapshot);
        w.churn(1.0, &mut rng);
        let before: std::collections::HashSet<u64> =
            snapshot.objects().iter().map(|o| o.id.0).collect();
        assert!(w.objects().iter().all(|o| !before.contains(&o.id.0)));
    }

    #[test]
    #[should_panic(expected = "fraction must be in [0, 1]")]
    fn churn_validates_fraction() {
        let mut w = make_world(7);
        let mut rng = SimRng::seed(8);
        w.churn(1.5, &mut rng);
    }

    #[test]
    fn new_ids_keep_increasing_across_churn() {
        let mut w = make_world(9);
        let max_before = w.objects().iter().map(|o| o.id.0).max().unwrap();
        let mut rng = SimRng::seed(10);
        w.churn(0.5, &mut rng);
        let fresh: Vec<u64> = w
            .objects()
            .iter()
            .map(|o| o.id.0)
            .filter(|&id| id > max_before)
            .collect();
        assert_eq!(fresh.len(), 30);
    }

    #[test]
    fn object_lookup_by_id() {
        let w = make_world(11);
        let first = &w.objects()[0];
        assert_eq!(w.object(first.id), Some(first));
        assert!(w.object(ObjectId(u64::MAX)).is_none());
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(make_world(12), make_world(12));
    }
}
