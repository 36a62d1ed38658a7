//! The ground-truth-aware stochastic classifier.
//!
//! A real network is right on roughly `top1_accuracy` of inputs, and when
//! it errs it confuses the subject with a *similar-looking* class, not a
//! uniformly random one. The simulator reproduces both properties: it
//! starts from the ideal nearest-centre label and, with probability
//! `1 − top1`, flips it to a class sampled with weight decaying in
//! centre-distance rank.

use features::FeatureVector;
use scene::{ClassId, ClassUniverse};
use serde::{Deserialize, Serialize};
use simcore::SimRng;

use crate::zoo::ModelProfile;

/// One classification outcome.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Prediction {
    /// The predicted class.
    pub label: ClassId,
    /// Softmax-style confidence in `[0, 1]`. Correct predictions
    /// concentrate high, errors lower — so confidence is usable as a cache
    /// admission signal.
    pub confidence: f64,
}

/// Stochastic classifier for one model over one class universe.
///
/// It holds a handle on the universe's shared class table, not a copy:
/// building one is O(1), and the classifiers of a whole fleet read the
/// same centres and confusion rows.
#[derive(Debug, Clone)]
pub struct DnnClassifier {
    top1: f64,
    universe: ClassUniverse,
}

impl DnnClassifier {
    /// Builds the classifier for `profile` over `universe`.
    ///
    /// # Panics
    ///
    /// Panics if the profile is invalid.
    pub fn new(profile: &ModelProfile, universe: &ClassUniverse) -> DnnClassifier {
        profile.validate();
        DnnClassifier {
            top1: profile.top1_accuracy,
            universe: universe.clone(),
        }
    }

    /// The model's top-1 accuracy.
    pub fn top1_accuracy(&self) -> f64 {
        self.top1
    }

    /// Classifies `descriptor`. Allocation-free: an error draws its label
    /// from the universe's shared confusion row and rank weights.
    pub fn predict(&self, descriptor: &FeatureVector, rng: &mut SimRng) -> Prediction {
        let ideal = self.universe.nearest_class(descriptor);
        if rng.chance(self.top1) {
            Prediction {
                label: ideal,
                // Correct predictions: confidence high, mildly dispersed.
                confidence: (0.9 + rng.normal(0.0, 0.05)).clamp(0.5, 1.0),
            }
        } else {
            let candidates = self.universe.confusable(ideal);
            let label = if candidates.is_empty() {
                ideal // single-class universe: nothing to confuse with
            } else {
                candidates[rng.weighted_index(self.universe.confusion_weights())]
            };
            Prediction {
                label,
                confidence: (0.55 + rng.normal(0.0, 0.1)).clamp(0.1, 0.85),
            }
        }
    }
}

#[cfg(test)]
// Tests compare exactly-constructed floats; exact equality is intentional.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use crate::{zoo, DeviceClass};
    use scene::SceneConfig;

    fn fixture() -> (ClassUniverse, DnnClassifier, SimRng) {
        let mut rng = SimRng::seed(1);
        let universe = ClassUniverse::generate(&SceneConfig::default(), &mut rng);
        let classifier = DnnClassifier::new(&zoo::mobilenet_v2(), &universe);
        (universe, classifier, rng)
    }

    #[test]
    fn accuracy_on_clean_centres_matches_top1() {
        let (universe, classifier, mut rng) = fixture();
        let trials = 4_000;
        let mut correct = 0;
        for i in 0..trials {
            let truth = ClassId((i % universe.len()) as u32);
            let p = classifier.predict(universe.center(truth), &mut rng);
            if p.label == truth {
                correct += 1;
            }
        }
        let acc = correct as f64 / trials as f64;
        assert!((acc - 0.718).abs() < 0.03, "acc {acc}");
    }

    #[test]
    fn errors_prefer_confusable_classes() {
        let (universe, classifier, mut rng) = fixture();
        let truth = ClassId(0);
        let confusable = universe.confusable(truth);
        let near: std::collections::HashSet<u32> = confusable.iter().take(3).map(|c| c.0).collect();
        let mut near_errors = 0;
        let mut far_errors = 0;
        for _ in 0..20_000 {
            let p = classifier.predict(universe.center(truth), &mut rng);
            if p.label != truth {
                if near.contains(&p.label.0) {
                    near_errors += 1;
                } else {
                    far_errors += 1;
                }
            }
        }
        // 3 of 19 wrong classes carry weight 1 + 1/2 + 1/4 of a total
        // ≈ 2: they should take the lion's share of errors.
        assert!(
            near_errors > far_errors * 3,
            "near {near_errors}, far {far_errors}"
        );
    }

    #[test]
    fn confidence_separates_correct_from_wrong() {
        let (universe, classifier, mut rng) = fixture();
        let mut correct_conf = Vec::new();
        let mut wrong_conf = Vec::new();
        for i in 0..4_000 {
            let truth = ClassId((i % universe.len()) as u32);
            let p = classifier.predict(universe.center(truth), &mut rng);
            if p.label == truth {
                correct_conf.push(p.confidence);
            } else {
                wrong_conf.push(p.confidence);
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(mean(&correct_conf) > mean(&wrong_conf) + 0.2);
        assert!(correct_conf
            .iter()
            .chain(&wrong_conf)
            .all(|&c| (0.0..=1.0).contains(&c)));
    }

    #[test]
    fn perturbed_descriptor_classifies_to_nearest_centre() {
        let (universe, classifier, mut rng) = fixture();
        // Strong perturbation towards another class should change the
        // *ideal* label the classifier perturbs around.
        let a = ClassId(0);
        let b = universe.confusable(a)[0];
        let towards_b = universe
            .center(a)
            .scale(0.2)
            .add(&universe.center(b).scale(0.8))
            .unwrap();
        let mut b_wins = 0;
        for _ in 0..200 {
            if classifier.predict(&towards_b, &mut rng).label == b {
                b_wins += 1;
            }
        }
        assert!(b_wins > 100, "b won only {b_wins}/200");
    }

    #[test]
    fn models_of_one_universe_read_one_confusion_row() {
        let (universe, _, _) = fixture();
        let a = crate::DnnModel::new(zoo::mobilenet_v2(), DeviceClass::MidRange, &universe);
        let b = crate::DnnModel::new(zoo::resnet50(), DeviceClass::Flagship, &universe);
        for id in universe.ids() {
            let row = universe.confusable(id).as_ptr();
            for model in [&a, &b] {
                let read = model.classifier.universe.confusable(id).as_ptr();
                assert!(std::ptr::eq(read, row), "{id}");
            }
        }
    }

    #[test]
    fn exposes_top1() {
        let (_, classifier, _) = fixture();
        assert_eq!(classifier.top1_accuracy(), 0.718);
    }
}
