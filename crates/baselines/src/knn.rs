//! k-nearest-neighbour baseline with quantized exemplar storage
//! (LookNN-flavoured — the paper's network configurations reference
//! multiplication-free lookup classification).
//!
//! Unlike the parametric baselines, kNN's "model" *is* its stored training
//! exemplars; attacking the memory corrupts the reference points
//! themselves. Robustness-wise it sits in interesting territory: each
//! exemplar is 8-bit fixed point (MSB flips hurl points across feature
//! space), but a prediction consults `k` neighbours, so a corrupted
//! exemplar only sways queries it lands near.

use crate::classifier::{BitStoredModel, Classifier};
use crate::storage::QuantizedTensor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use synthdata::Sample;

/// Hyperparameters of the kNN baseline.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct KnnConfig {
    /// Neighbours consulted per query.
    pub k: usize,
    /// Maximum stored exemplars (subsamples the training set when
    /// exceeded; 0 = keep everything).
    pub max_exemplars: usize,
    /// Subsampling seed.
    pub seed: u64,
}

impl Default for KnnConfig {
    fn default() -> Self {
        Self {
            k: 5,
            max_exemplars: 2_000,
            seed: 0,
        }
    }
}

/// kNN over 8-bit quantized exemplars.
///
/// # Example
///
/// ```
/// use baselines::{accuracy, Knn, KnnConfig};
/// use synthdata::{DatasetSpec, GeneratorConfig};
///
/// let data = GeneratorConfig::new(4).generate(&DatasetSpec::pecan().with_sizes(150, 60));
/// let model = Knn::fit(&KnnConfig::default(), &data.train);
/// assert!(accuracy(&model, &data.test) > 0.8);
/// ```
#[derive(Debug, Clone)]
pub struct Knn {
    /// All exemplar features, row-major `[exemplar][feature]`, quantized.
    exemplars: QuantizedTensor,
    labels: Vec<usize>,
    features: usize,
    classes: usize,
    k: usize,
}

impl Knn {
    /// Stores (a subsample of) the training set as quantized exemplars.
    ///
    /// # Panics
    ///
    /// Panics if `train` is empty, `k` is zero, or feature counts are
    /// inconsistent.
    pub fn fit(config: &KnnConfig, train: &[Sample]) -> Self {
        assert!(!train.is_empty(), "training set must not be empty");
        assert!(config.k > 0, "k must be positive");
        let features = train[0].features.len();
        assert!(
            train.iter().all(|s| s.features.len() == features),
            "inconsistent feature counts in training data"
        );
        let classes = train.iter().map(|s| s.label).max().expect("nonempty") + 1;

        // A seeded shuffle avoids aliasing against any periodic label
        // layout (an even stride would sample one class of round-robin
        // data).
        let keep: Vec<&Sample> = if config.max_exemplars > 0 && train.len() > config.max_exemplars {
            let mut indices: Vec<usize> = (0..train.len()).collect();
            indices.shuffle(&mut StdRng::seed_from_u64(config.seed));
            indices.truncate(config.max_exemplars);
            indices.into_iter().map(|i| &train[i]).collect()
        } else {
            train.iter().collect()
        };

        let mut flat = Vec::with_capacity(keep.len() * features);
        let mut labels = Vec::with_capacity(keep.len());
        for sample in keep {
            flat.extend_from_slice(&sample.features);
            labels.push(sample.label);
        }
        Self {
            exemplars: QuantizedTensor::quantize(&flat),
            labels,
            features,
            classes,
            k: config.k,
        }
    }

    /// Number of stored exemplars.
    fn exemplar_count(&self) -> usize {
        self.labels.len()
    }

    /// Squared Euclidean distance from `features` to stored exemplar `row`.
    fn distance2(&self, row: usize, features: &[f64]) -> f64 {
        let base = row * self.features;
        features
            .iter()
            .enumerate()
            .map(|(j, &x)| {
                let e = self.exemplars.get(base + j);
                (x - e) * (x - e)
            })
            .sum()
    }
}

impl Classifier for Knn {
    fn predict(&self, features: &[f64]) -> usize {
        assert_eq!(
            features.len(),
            self.features,
            "expected {} features, got {}",
            self.features,
            features.len()
        );
        // Collect the k nearest by a partial selection.
        let mut scored: Vec<(f64, usize)> = (0..self.exemplar_count())
            .map(|row| (self.distance2(row, features), self.labels[row]))
            .collect();
        let k = self.k.min(scored.len());
        scored.select_nth_unstable_by(k - 1, |a, b| {
            a.0.partial_cmp(&b.0).expect("finite distances")
        });
        let mut votes = vec![0usize; self.classes];
        for &(_, label) in scored.iter().take(k) {
            votes[label] += 1;
        }
        votes
            .iter()
            .enumerate()
            .max_by_key(|&(i, &v)| (v, std::cmp::Reverse(i)))
            .map(|(i, _)| i)
            .expect("at least one class")
    }

    fn num_classes(&self) -> usize {
        self.classes
    }
}

impl BitStoredModel for Knn {
    fn to_image(&self) -> Vec<u64> {
        self.exemplars.to_words()
    }

    fn bit_len(&self) -> usize {
        self.exemplars.bit_len()
    }

    fn load_image(&mut self, image: &[u64]) {
        self.exemplars.load_words(image);
    }

    fn field_bits(&self) -> usize {
        8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::accuracy;
    use synthdata::{DatasetSpec, GeneratorConfig};

    fn small_data() -> synthdata::Dataset {
        GeneratorConfig::new(9).generate(&DatasetSpec::pecan().with_sizes(180, 90))
    }

    #[test]
    fn learns_separable_data() {
        let data = small_data();
        let model = Knn::fit(&KnnConfig::default(), &data.train);
        let acc = accuracy(&model, &data.test);
        assert!(acc > 0.85, "kNN accuracy only {acc}");
    }

    #[test]
    fn subsampling_caps_exemplars_and_keeps_classes() {
        let data = small_data();
        let model = Knn::fit(
            &KnnConfig {
                k: 3,
                max_exemplars: 60,
                seed: 1,
            },
            &data.train,
        );
        assert_eq!(model.exemplar_count(), 60);
        let mut classes_present = vec![false; model.num_classes()];
        for &l in &model.labels {
            classes_present[l] = true;
        }
        assert!(classes_present.iter().all(|&p| p));
    }

    #[test]
    fn image_roundtrip_preserves_predictions() {
        let data = small_data();
        let mut model = Knn::fit(&KnnConfig::default(), &data.train);
        let image = model.to_image();
        let before: Vec<usize> = data
            .test
            .iter()
            .map(|s| model.predict(&s.features))
            .collect();
        model.load_image(&image);
        let after: Vec<usize> = data
            .test
            .iter()
            .map(|s| model.predict(&s.features))
            .collect();
        assert_eq!(before, after);
    }

    #[test]
    fn knn_is_middling_under_random_attack() {
        // The k-vote gives kNN meaningful robustness: a 6% random attack
        // should cost it far less than the single-path DNN loses (compare
        // Table 3), but it still degrades measurably at heavy rates.
        use faultsim::Attacker;
        let data = small_data();
        let model = Knn::fit(&KnnConfig::default(), &data.train);
        let clean = accuracy(&model, &data.test);
        let attacked_at = |rate: f64| {
            let mut image = model.to_image();
            Attacker::seed_from(3).random_flips(&mut image, model.bit_len(), rate);
            let mut m = model.clone();
            m.load_image(&image);
            accuracy(&m, &data.test)
        };
        let mild = clean - attacked_at(0.06);
        let heavy = clean - attacked_at(0.4);
        assert!(mild < 0.15, "6% attack cost kNN {mild}");
        assert!(heavy > mild, "heavier attack should cost more");
    }

    #[test]
    fn k_one_matches_nearest_exemplar() {
        let data = small_data();
        let model = Knn::fit(
            &KnnConfig {
                k: 1,
                max_exemplars: 0,
                seed: 0,
            },
            &data.train,
        );
        // A training point must classify as its own label under k=1.
        for s in data.train.iter().take(20) {
            assert_eq!(model.predict(&s.features), s.label);
        }
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let data = small_data();
        Knn::fit(
            &KnnConfig {
                k: 0,
                max_exemplars: 0,
                seed: 0,
            },
            &data.train,
        );
    }
}
