//! Prediction confidence (§4.1 of the paper).
//!
//! RobustHD passes the per-class Hamming similarities through a sharpened
//! softmax. The resulting top probability reflects both how similar the
//! query is to the winning class *and* its margin over the runner-up — a
//! query equally close to two classes gets low confidence even if both
//! similarities are high. Only predictions whose confidence clears the
//! threshold `T_C` are trusted as pseudo-labels for recovery.

use crate::model::TrainedModel;
use hypervector::similarity::softmax_with_temperature;
use hypervector::BinaryHypervector;
use serde::{Deserialize, Serialize};

/// The confidence assessment of one prediction.
///
/// # Example
///
/// ```
/// use robusthd::Confidence;
///
/// // A clear winner vs an ambiguous pair, at inverse temperature 64.
/// let clear = Confidence::from_similarities(&[0.75, 0.52, 0.50], 64.0);
/// let ambiguous = Confidence::from_similarities(&[0.62, 0.61, 0.50], 64.0);
/// assert_eq!(clear.label, 0);
/// assert!(clear.confidence > ambiguous.confidence);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Confidence {
    /// Predicted label (argmax similarity).
    pub label: usize,
    /// Softmax probability of the predicted label — the confidence value
    /// compared against `T_C`.
    pub confidence: f64,
    /// Margin between the top similarity and the runner-up similarity (raw,
    /// pre-softmax). Zero for single-class models.
    pub margin: f64,
    /// Full softmax distribution over classes.
    pub probabilities: Vec<f64>,
}

impl Confidence {
    /// Computes prediction confidence from raw per-class similarities.
    ///
    /// The margin is the difference of the two highest similarities (in
    /// `f64::total_cmp` order), found in one scan without a sorted copy.
    ///
    /// # Panics
    ///
    /// Panics if `similarities` is empty or `beta` is not positive and
    /// finite.
    pub fn from_similarities(similarities: &[f64], beta: f64) -> Self {
        assert!(!similarities.is_empty(), "need at least one class");
        assert!(
            beta.is_finite() && beta > 0.0,
            "softmax beta {beta} must be positive and finite"
        );
        let probabilities = softmax_with_temperature(similarities, beta);
        let label = probabilities
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .expect("nonempty"); // audit:allow(panic): similarities asserted non-empty at entry
        let mut rest = similarities.iter().copied();
        let mut top = rest.next().expect("nonempty"); // audit:allow(panic): similarities asserted non-empty at entry
        let mut runner_up = None::<f64>;
        for s in rest {
            if s.total_cmp(&top).is_gt() {
                runner_up = Some(top);
                top = s;
            } else if runner_up.is_none_or(|r| s.total_cmp(&r).is_gt()) {
                runner_up = Some(s);
            }
        }
        let margin = runner_up.map_or(0.0, |r| top - r);
        Self {
            label,
            confidence: probabilities[label], // audit:allow(panic): label indexes the same-length probabilities
            margin,
            probabilities,
        }
    }

    /// Evaluates a query against a model and scores the prediction.
    ///
    /// # Panics
    ///
    /// Panics if the query dimension differs from the model's or `beta` is
    /// invalid.
    pub fn evaluate(model: &TrainedModel, query: &BinaryHypervector, beta: f64) -> Self {
        Self::from_similarities(&model.similarities(query), beta)
    }

    /// Whether this prediction clears the trust threshold `T_C`.
    pub fn is_trusted(&self, threshold: f64) -> bool {
        self.confidence >= threshold
    }

    /// The runner-up label: the class with the second-highest softmax
    /// probability, or `None` for single-class models.
    ///
    /// The margin-guided attack search uses this as the natural flip
    /// target — the rival the query is already closest to — so the search
    /// needs only blackbox probabilities, never model internals.
    pub fn runner_up(&self) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (i, &p) in self.probabilities.iter().enumerate() {
            if i == self.label {
                continue;
            }
            match best {
                Some((_, bp)) if p <= bp => {}
                _ => best = Some((i, p)),
            }
        }
        best.map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HdcConfig;
    use crate::model::TrainedModel;
    use hypervector::random::HypervectorSampler;

    #[test]
    fn probabilities_sum_to_one() {
        let c = Confidence::from_similarities(&[0.6, 0.5, 0.55, 0.52], 64.0);
        let sum: f64 = c.probabilities.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn label_is_argmax_similarity() {
        let c = Confidence::from_similarities(&[0.50, 0.71, 0.60], 64.0);
        assert_eq!(c.label, 1);
        assert!((c.margin - 0.11).abs() < 1e-12);
    }

    #[test]
    fn larger_margin_gives_higher_confidence() {
        let wide = Confidence::from_similarities(&[0.8, 0.5], 64.0);
        let narrow = Confidence::from_similarities(&[0.8, 0.78], 64.0);
        assert!(wide.confidence > narrow.confidence);
    }

    #[test]
    fn single_class_has_full_confidence_and_zero_margin() {
        let c = Confidence::from_similarities(&[0.9], 64.0);
        assert_eq!(c.label, 0);
        assert!((c.confidence - 1.0).abs() < 1e-12);
        assert_eq!(c.margin, 0.0);
    }

    #[test]
    fn trust_threshold_is_inclusive() {
        let c = Confidence::from_similarities(&[0.9], 64.0);
        assert!(c.is_trusted(1.0));
        assert!(!c.is_trusted(1.0 + 1e-9));
    }

    #[test]
    fn runner_up_is_second_best_class() {
        let c = Confidence::from_similarities(&[0.50, 0.71, 0.60], 64.0);
        assert_eq!(c.label, 1);
        assert_eq!(c.runner_up(), Some(2));
        let single = Confidence::from_similarities(&[0.9], 64.0);
        assert_eq!(single.runner_up(), None);
        let pair = Confidence::from_similarities(&[0.55, 0.72], 64.0);
        assert_eq!(pair.runner_up(), Some(0));
    }

    #[test]
    #[should_panic(expected = "at least one class")]
    fn empty_similarities_panic() {
        Confidence::from_similarities(&[], 64.0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_beta_panics() {
        Confidence::from_similarities(&[0.5], 0.0);
    }

    #[test]
    fn margin_matches_the_sorting_definition() {
        // The one-scan margin against the difference of the two leading
        // entries of a sorted copy, to the bit, including ties and signed
        // zeros.
        let cases: [&[f64]; 6] = [
            &[0.9],
            &[0.5, 0.5],
            &[0.2, 0.7, 0.7, 0.1],
            &[0.0, -0.0, 0.3],
            &[0.61, 0.75, 0.52, 0.75, 0.74],
            &[
                0.1, 0.9, 0.3, 0.2, 0.85, 0.11, 0.6, 0.6, 0.59, 0.4, 0.45, 0.05,
            ],
        ];
        for similarities in cases {
            let c = Confidence::from_similarities(similarities, 64.0);
            let mut sorted = similarities.to_vec();
            sorted.sort_by(|a, b| b.total_cmp(a));
            let margin = if sorted.len() >= 2 {
                sorted[0] - sorted[1]
            } else {
                0.0
            };
            assert_eq!(c.margin.to_bits(), margin.to_bits(), "{similarities:?}");
        }
    }

    #[test]
    fn evaluate_agrees_with_model_predict() {
        let mut sampler = HypervectorSampler::seed_from(10);
        let protos = [sampler.binary(2048), sampler.binary(2048)];
        let mut encoded = Vec::new();
        let mut labels = Vec::new();
        for i in 0..30 {
            encoded.push(sampler.flip_noise(&protos[i % 2], 0.2));
            labels.push(i % 2);
        }
        let cfg = HdcConfig::builder().dimension(2048).build().expect("valid");
        let model = TrainedModel::train(&encoded, &labels, 2, &cfg);
        for hv in encoded.iter().take(10) {
            let c = Confidence::evaluate(&model, hv, cfg.softmax_beta);
            assert_eq!(c.label, model.predict(hv));
        }
    }

    #[test]
    fn in_cluster_queries_are_more_confident_than_random() {
        let mut sampler = HypervectorSampler::seed_from(11);
        let protos = [sampler.binary(4096), sampler.binary(4096)];
        let mut encoded = Vec::new();
        let mut labels = Vec::new();
        for i in 0..40 {
            encoded.push(sampler.flip_noise(&protos[i % 2], 0.15));
            labels.push(i % 2);
        }
        let cfg = HdcConfig::builder().dimension(4096).build().expect("valid");
        let model = TrainedModel::train(&encoded, &labels, 2, &cfg);
        let member = Confidence::evaluate(&model, &encoded[0], cfg.softmax_beta);
        let stranger = Confidence::evaluate(&model, &sampler.binary(4096), cfg.softmax_beta);
        assert!(member.confidence > stranger.confidence);
    }
}
