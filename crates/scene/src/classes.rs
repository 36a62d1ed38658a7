//! Recognition classes as clusters in descriptor space.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use features::FeatureVector;
use simcore::SimRng;

use crate::config::SceneConfig;

/// Identifier of a recognition class (0-based, dense).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ClassId(pub u32);

impl ClassId {
    /// The class index as a usize, for table lookups.
    pub fn as_index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ClassId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "class-{}", self.0)
    }
}

/// The set of classes a deployment recognizes, with each class's centre in
/// descriptor space.
///
/// Centres are drawn as `class_spread · u` for a uniformly random unit
/// vector `u`, giving pairwise distances concentrated around
/// `√2 · class_spread` in high dimension — well separated relative to the
/// intra-class scales in [`SceneConfig`].
///
/// A universe is a handle on one shared class table, built once by
/// [`ClassUniverse::generate`]: cloning it bumps a reference count, so
/// every world and classifier of a run reads the same centres and
/// confusion rows.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassUniverse {
    table: Arc<ClassTable>,
}

/// What a [`ClassUniverse`] shares among its clones.
#[derive(Debug, PartialEq)]
struct ClassTable {
    centers: Vec<FeatureVector>,
    spread: f64,
    /// Row `i` (`len − 1` ids from `i · (len − 1)`): the classes other
    /// than `i`, nearest centre first.
    confusions: Vec<ClassId>,
    /// `0.5^r` for each confusion rank `r`.
    confusion_weights: Vec<f64>,
}

impl ClassUniverse {
    /// Generates `config.num_classes` class centres of dimension
    /// `config.descriptor_dim`, and each class's confusion row.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid (see [`SceneConfig::validate`]).
    pub fn generate(config: &SceneConfig, rng: &mut SimRng) -> ClassUniverse {
        config.validate();
        let mut class_rng = rng.split("class-universe");
        let centers: Vec<FeatureVector> = (0..config.num_classes)
            .map(|_| {
                let u = class_rng.unit_vector(config.descriptor_dim);
                let scaled: Vec<f32> = u
                    .into_iter()
                    .map(|c| (c * config.class_spread) as f32)
                    .collect();
                FeatureVector::from_vec(scaled).expect("finite scaled unit vector")
            })
            .collect();
        let others = centers.len().saturating_sub(1);
        let mut confusions = Vec::with_capacity(centers.len() * others);
        let mut row: Vec<(ClassId, f64)> = Vec::with_capacity(others);
        for (i, center) in centers.iter().enumerate() {
            row.clear();
            row.extend(
                centers
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(j, other)| {
                        (
                            ClassId(j as u32),
                            features::distance::squared_euclidean(other, center),
                        )
                    }),
            );
            // Stable: equidistant classes keep ascending id order.
            row.sort_by(|a, b| a.1.total_cmp(&b.1));
            confusions.extend(row.iter().map(|&(c, _)| c));
        }
        // Geometric weight over distance rank: nearest classes soak up
        // most of the confusion mass.
        let confusion_weights = (0..others).map(|r| 0.5f64.powi(r as i32)).collect();
        ClassUniverse {
            table: Arc::new(ClassTable {
                centers,
                spread: config.class_spread,
                confusions,
                confusion_weights,
            }),
        }
    }

    /// Number of classes.
    pub fn len(&self) -> usize {
        self.table.centers.len()
    }

    /// True if the universe has no classes (never produced by `generate`).
    pub fn is_empty(&self) -> bool {
        self.table.centers.is_empty()
    }

    /// The centre of class `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn center(&self, id: ClassId) -> &FeatureVector {
        &self.table.centers[id.as_index()]
    }

    /// Iterates over all class ids.
    pub fn ids(&self) -> impl Iterator<Item = ClassId> + '_ {
        (0..self.len() as u32).map(ClassId)
    }

    /// The configured spread (distance scale of the centres).
    pub fn spread(&self) -> f64 {
        self.table.spread
    }

    /// The class whose centre is nearest to `descriptor` — the "ideal
    /// classifier" the DNN simulator perturbs.
    pub fn nearest_class(&self, descriptor: &FeatureVector) -> ClassId {
        let (best, _) = self
            .table
            .centers
            .iter()
            .enumerate()
            .map(|(i, c)| (i, features::distance::squared_euclidean(c, descriptor)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("universe is non-empty");
        ClassId(best as u32)
    }

    /// For class `id`, the other classes ordered by centre distance —
    /// the "confusable classes" the stochastic classifier prefers when it
    /// errs. Empty in a single-class universe.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn confusable(&self, id: ClassId) -> &[ClassId] {
        assert!(id.as_index() < self.len(), "confusable: {id} out of range");
        let others = self.table.confusion_weights.len();
        let start = id.as_index() * others;
        &self.table.confusions[start..start + others]
    }

    /// The weight of each rank of a [`confusable`](Self::confusable) row,
    /// `0.5^r` for rank `r`: the error distribution of the stochastic
    /// classifier.
    pub fn confusion_weights(&self) -> &[f64] {
        &self.table.confusion_weights
    }
}

#[cfg(test)]
// Tests compare exactly-constructed floats; exact equality is intentional.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use features::distance::{euclidean, squared_euclidean};

    fn universe(seed: u64) -> ClassUniverse {
        let mut rng = SimRng::seed(seed);
        ClassUniverse::generate(&SceneConfig::default(), &mut rng)
    }

    #[test]
    fn generates_requested_count_and_dim() {
        let u = universe(1);
        assert_eq!(u.len(), 20);
        assert!(!u.is_empty());
        assert_eq!(u.center(ClassId(0)).dim(), 256);
        assert_eq!(u.ids().count(), 20);
        assert_eq!(u.spread(), 10.0);
    }

    #[test]
    fn centers_lie_on_spread_sphere() {
        let u = universe(2);
        for id in u.ids() {
            let norm = u.center(id).l2_norm();
            assert!((norm - 10.0).abs() < 0.01, "norm {norm}");
        }
    }

    #[test]
    fn centers_are_well_separated() {
        let u = universe(3);
        let ids: Vec<ClassId> = u.ids().collect();
        let expected = 10.0 * 2.0f64.sqrt();
        for i in 0..ids.len() {
            for j in (i + 1)..ids.len() {
                let d = euclidean(u.center(ids[i]), u.center(ids[j]));
                assert!(
                    d > expected * 0.6,
                    "classes {i} and {j} too close: {d} (expected ≈ {expected})"
                );
            }
        }
    }

    #[test]
    fn nearest_class_recovers_center() {
        let u = universe(4);
        for id in u.ids() {
            assert_eq!(u.nearest_class(u.center(id)), id);
        }
    }

    #[test]
    fn nearest_class_tolerates_small_perturbation() {
        let u = universe(5);
        let mut rng = SimRng::seed(6);
        for id in u.ids().take(5) {
            let noise: Vec<f32> = (0..256).map(|_| rng.normal(0.0, 0.3) as f32).collect();
            let perturbed = u
                .center(id)
                .add(&FeatureVector::from_vec(noise).unwrap())
                .unwrap();
            assert_eq!(u.nearest_class(&perturbed), id);
        }
    }

    #[test]
    fn confusable_is_sorted_and_excludes_self() {
        let u = universe(7);
        let id = ClassId(3);
        let conf = u.confusable(id);
        assert_eq!(conf.len(), 19);
        assert!(!conf.contains(&id));
        let d = |c: &ClassId| euclidean(u.center(*c), u.center(id));
        for w in conf.windows(2) {
            assert!(d(&w[0]) <= d(&w[1]));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(universe(8), universe(8));
    }

    #[test]
    fn clones_share_one_table() {
        let u = universe(9);
        let v = u.clone();
        for id in u.ids() {
            assert!(std::ptr::eq(u.center(id), v.center(id)));
            assert!(std::ptr::eq(
                u.confusable(id).as_ptr(),
                v.confusable(id).as_ptr()
            ));
        }
        assert!(std::ptr::eq(
            u.confusion_weights().as_ptr(),
            v.confusion_weights().as_ptr()
        ));
    }

    #[test]
    fn confusion_rows_match_a_stable_distance_sort() {
        for (seed, num_classes) in [(10, 20), (11, 2), (12, 7), (13, 33), (14, 1)] {
            let config = SceneConfig {
                num_classes,
                ..SceneConfig::default()
            };
            let u = ClassUniverse::generate(&config, &mut SimRng::seed(seed));
            for id in u.ids() {
                let mut reference: Vec<ClassId> = u.ids().filter(|&c| c != id).collect();
                reference.sort_by(|&a, &b| {
                    let da = squared_euclidean(u.center(a), u.center(id));
                    let db = squared_euclidean(u.center(b), u.center(id));
                    da.partial_cmp(&db).unwrap()
                });
                assert_eq!(u.confusable(id), reference.as_slice(), "seed {seed}, {id}");
            }
            let weights: Vec<f64> = (0..num_classes - 1)
                .map(|r| 0.5f64.powi(r as i32))
                .collect();
            assert_eq!(u.confusion_weights(), weights.as_slice());
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn confusable_rejects_an_unknown_class() {
        let config = SceneConfig {
            num_classes: 1,
            ..SceneConfig::default()
        };
        let u = ClassUniverse::generate(&config, &mut SimRng::seed(15));
        assert!(u.confusable(ClassId(0)).is_empty());
        let _ = u.confusable(ClassId(1));
    }

    #[test]
    fn class_id_display_and_index() {
        assert_eq!(ClassId(4).to_string(), "class-4");
        assert_eq!(ClassId(4).as_index(), 4);
    }
}
