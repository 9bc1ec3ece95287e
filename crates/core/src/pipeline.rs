use crate::batch::BatchEngine;
use crate::config::HdcConfig;
use crate::encoding::{Encoder, RecordEncoder};
use crate::model::TrainedModel;

/// Minimal view of a labelled sample so the pipeline does not depend on the
/// dataset crate. `synthdata::Sample` satisfies it structurally via the
/// blanket conversion below.
mod synthdata_like {
    /// Anything that exposes normalized features and a label.
    pub trait Labeled {
        /// Feature vector in `[0, 1]`.
        fn features(&self) -> &[f64];
        /// Class label.
        fn label(&self) -> usize;
    }

    impl Labeled for (Vec<f64>, usize) {
        fn features(&self) -> &[f64] {
            &self.0
        }
        fn label(&self) -> usize {
            self.1
        }
    }

    impl Labeled for synthdata::Sample {
        fn features(&self) -> &[f64] {
            &self.features
        }
        fn label(&self) -> usize {
            self.label
        }
    }
}

pub use synthdata_like::Labeled;

/// End-to-end HDC classifier: record encoder + trained binary model.
///
/// This is the convenience entry point used by the examples; experiments
/// that attack or recover the model work with the parts
/// ([`crate::RecordEncoder`], [`crate::TrainedModel`],
/// [`crate::RecoveryEngine`]) directly.
///
/// # Example
///
/// ```
/// use robusthd::{HdcClassifier, HdcConfig};
/// use synthdata::{DatasetSpec, GeneratorConfig};
///
/// # fn main() -> Result<(), robusthd::ConfigError> {
/// let data = GeneratorConfig::new(2).generate(&DatasetSpec::pecan().with_sizes(120, 60));
/// let config = HdcConfig::builder().dimension(2048).build()?;
/// let classifier = HdcClassifier::fit(&config, &data.train);
/// assert!(classifier.accuracy(&data.test) > 0.7);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct HdcClassifier {
    encoder: RecordEncoder,
    model: TrainedModel,
    num_classes: usize,
    batch: BatchEngine,
}

impl HdcClassifier {
    /// Encodes and trains on labelled samples.
    ///
    /// # Panics
    ///
    /// Panics if `train` is empty or samples disagree on feature count.
    pub fn fit<S: Labeled>(config: &HdcConfig, train: &[S]) -> Self {
        assert!(!train.is_empty(), "training set must not be empty");
        let features = train[0].features().len();
        let num_classes = train.iter().map(|s| s.label()).max().expect("nonempty") + 1;
        let encoder = RecordEncoder::new(config, features);
        let batch = BatchEngine::from_env();
        // Collect feature views first so the encoding shards over the batch
        // engine without requiring `S: Sync`.
        let rows: Vec<&[f64]> = train.iter().map(|s| s.features()).collect();
        let encoded = batch.encode_batch(&encoder, &rows);
        let labels: Vec<_> = train.iter().map(|s| s.label()).collect();
        let model = TrainedModel::train_with(&encoded, &labels, num_classes, config, &batch);
        Self {
            encoder,
            model,
            num_classes,
            batch,
        }
    }

    /// Predicts the label of one raw feature vector.
    ///
    /// # Panics
    ///
    /// Panics if the feature count differs from the training data.
    pub fn predict(&self, features: &[f64]) -> usize {
        self.model.predict(&self.encoder.encode(features))
    }

    /// Predicts labels for a batch of raw feature vectors through the
    /// fused encode→score path of the sharded [`BatchEngine`] — no
    /// intermediate `Vec<BinaryHypervector>` is materialized.
    /// Bit-identical to mapping [`Self::predict`] over the batch, at any
    /// thread count.
    ///
    /// # Panics
    ///
    /// Panics if any feature count differs from the training data.
    pub fn predict_batch(&self, features_batch: &[Vec<f64>]) -> Vec<usize> {
        let rows: Vec<&[f64]> = features_batch.iter().map(Vec::as_slice).collect();
        self.batch
            .predict_raw_batch(&self.encoder, &self.model, &rows)
    }

    /// Fused raw-features → prediction over borrowed feature slices
    /// (avoids cloning rows out of columnar or arena-backed storage).
    ///
    /// # Panics
    ///
    /// Panics if any feature count differs from the training data.
    pub fn predict_raw_batch(&self, rows: &[&[f64]]) -> Vec<usize> {
        self.batch
            .predict_raw_batch(&self.encoder, &self.model, rows)
    }

    /// Accuracy over labelled samples, scored through the fused batch
    /// path.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn accuracy<S: Labeled>(&self, samples: &[S]) -> f64 {
        assert!(!samples.is_empty(), "cannot score an empty evaluation set");
        let rows: Vec<&[f64]> = samples.iter().map(|s| s.features()).collect();
        let predictions = self
            .batch
            .predict_raw_batch(&self.encoder, &self.model, &rows);
        let correct = predictions
            .iter()
            .zip(samples.iter())
            .filter(|(p, s)| **p == s.label())
            .count();
        correct as f64 / samples.len() as f64
    }

    /// The batch engine used for batched prediction and scoring.
    pub fn batch_engine(&self) -> &BatchEngine {
        &self.batch
    }

    /// Replaces the batch engine's tuning (thread count, shard size).
    pub fn set_batch_config(&mut self, config: crate::BatchConfig) {
        self.batch.set_config(config);
    }

    /// The encoder (shared by training and inference).
    pub fn encoder(&self) -> &RecordEncoder {
        &self.encoder
    }

    /// The trained model.
    pub fn model(&self) -> &TrainedModel {
        &self.model
    }

    /// Mutable model access for attack/recovery experiments.
    pub fn model_mut(&mut self) -> &mut TrainedModel {
        &mut self.model
    }

    /// Number of classes seen at fit time.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_and_predict_on_tuples() {
        // A separable toy problem in raw feature space.
        let train: Vec<(Vec<f64>, usize)> = (0..40)
            .map(|i| {
                let label = i % 2;
                let base = if label == 0 { 0.2 } else { 0.8 };
                let features = (0..6).map(|j| base + 0.01 * ((i + j) % 5) as f64).collect();
                (features, label)
            })
            .collect();
        let config = HdcConfig::builder()
            .dimension(2048)
            .seed(3)
            .build()
            .expect("valid");
        let clf = HdcClassifier::fit(&config, &train);
        assert_eq!(clf.num_classes(), 2);
        assert!(clf.accuracy(&train) > 0.95);
        assert_eq!(clf.predict(&[0.2; 6]), 0);
        assert_eq!(clf.predict(&[0.8; 6]), 1);
    }

    #[test]
    fn batched_prediction_matches_sequential() {
        let train: Vec<(Vec<f64>, usize)> = (0..40)
            .map(|i| {
                let label = i % 2;
                let base = if label == 0 { 0.2 } else { 0.8 };
                let features = (0..6).map(|j| base + 0.01 * ((i + j) % 5) as f64).collect();
                (features, label)
            })
            .collect();
        let config = HdcConfig::builder()
            .dimension(2048)
            .seed(11)
            .build()
            .expect("valid");
        let mut clf = HdcClassifier::fit(&config, &train);
        let queries: Vec<Vec<f64>> = train.iter().map(|(f, _)| f.clone()).collect();
        let sequential: Vec<usize> = queries.iter().map(|f| clf.predict(f)).collect();
        for threads in [1, 4] {
            clf.set_batch_config(
                crate::BatchConfig::builder()
                    .threads(threads)
                    .shard_size(5)
                    .build()
                    .expect("valid"),
            );
            assert_eq!(clf.predict_batch(&queries), sequential);
        }
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_training_set_panics() {
        let config = HdcConfig::default();
        HdcClassifier::fit::<(Vec<f64>, usize)>(&config, &[]);
    }
}
