//! Accuracy and quality-loss metrics used by every experiment.

use crate::model::TrainedModel;
use hypervector::BinaryHypervector;

/// Classification accuracy of `model` over encoded queries with known
/// labels.
///
/// # Panics
///
/// Panics if the slices have different lengths or are empty.
///
/// # Example
///
/// ```
/// use hypervector::random::HypervectorSampler;
/// use robusthd::{accuracy, HdcConfig, TrainedModel};
///
/// # fn main() -> Result<(), robusthd::ConfigError> {
/// let mut sampler = HypervectorSampler::seed_from(0);
/// let protos = [sampler.binary(2048), sampler.binary(2048)];
/// let queries: Vec<_> = (0..20)
///     .map(|i| sampler.flip_noise(&protos[i % 2], 0.1))
///     .collect();
/// let labels: Vec<_> = (0..20).map(|i| i % 2).collect();
/// let config = HdcConfig::builder().dimension(2048).build()?;
/// let model = TrainedModel::train(&queries, &labels, 2, &config);
/// assert_eq!(accuracy(&model, &queries, &labels), 1.0);
/// # Ok(())
/// # }
/// ```
pub fn accuracy(model: &TrainedModel, queries: &[BinaryHypervector], labels: &[usize]) -> f64 {
    assert_eq!(queries.len(), labels.len(), "queries and labels must align");
    assert!(!queries.is_empty(), "cannot score an empty evaluation set");
    let correct = queries
        .iter()
        .zip(labels)
        .filter(|(q, &l)| model.predict(q) == l)
        .count();
    correct as f64 / queries.len() as f64
}

/// Quality loss as reported throughout the paper's tables: the accuracy of
/// the clean model minus the accuracy of the faulty model, floored at zero
/// (a faulty model that happens to score higher reports zero loss).
///
/// # Example
///
/// ```
/// use robusthd::quality_loss;
///
/// assert!((quality_loss(0.95, 0.92) - 0.03).abs() < 1e-12);
/// assert_eq!(quality_loss(0.95, 0.96), 0.0);
/// ```
pub fn quality_loss(clean_accuracy: f64, faulty_accuracy: f64) -> f64 {
    (clean_accuracy - faulty_accuracy).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HdcConfig;
    use hypervector::random::HypervectorSampler;

    #[test]
    fn accuracy_counts_correct_fraction() {
        let mut sampler = HypervectorSampler::seed_from(1);
        let protos = [sampler.binary(1024), sampler.binary(1024)];
        let model = TrainedModel::from_classes(protos.to_vec());
        let queries = vec![
            sampler.flip_noise(&protos[0], 0.05),
            sampler.flip_noise(&protos[1], 0.05),
        ];
        assert_eq!(accuracy(&model, &queries, &[0, 1]), 1.0);
        assert_eq!(accuracy(&model, &queries, &[1, 0]), 0.0);
        assert_eq!(accuracy(&model, &queries, &[0, 0]), 0.5);
    }

    #[test]
    #[should_panic(expected = "must align")]
    fn mismatched_lengths_panic() {
        let model = TrainedModel::from_classes(vec![BinaryHypervector::zeros(8)]);
        accuracy(&model, &[BinaryHypervector::zeros(8)], &[]);
    }

    #[test]
    #[should_panic(expected = "empty evaluation set")]
    fn empty_set_panics() {
        let model = TrainedModel::from_classes(vec![BinaryHypervector::zeros(8)]);
        accuracy(&model, &[], &[]);
    }

    #[test]
    fn quality_loss_floors_at_zero() {
        assert_eq!(quality_loss(0.9, 0.95), 0.0);
        assert!((quality_loss(0.9, 0.85) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn trained_model_has_low_loss_under_mild_attack() {
        // Miniature version of the paper's core claim wired through the
        // metrics: a binary HDC model barely degrades at 5% bit flips.
        let mut sampler = HypervectorSampler::seed_from(2);
        let protos: Vec<_> = (0..4).map(|_| sampler.binary(8192)).collect();
        let mut queries = Vec::new();
        let mut labels = Vec::new();
        for i in 0..80 {
            queries.push(sampler.flip_noise(&protos[i % 4], 0.15));
            labels.push(i % 4);
        }
        let cfg = HdcConfig::builder().dimension(8192).build().expect("valid");
        let mut model = TrainedModel::train(&queries, &labels, 4, &cfg);
        let clean = accuracy(&model, &queries, &labels);
        for c in 0..4 {
            let noisy = sampler.flip_noise(model.class(c), 0.05);
            *model.class_mut(c) = noisy;
        }
        let faulty = accuracy(&model, &queries, &labels);
        assert!(quality_loss(clean, faulty) < 0.05);
    }
}
