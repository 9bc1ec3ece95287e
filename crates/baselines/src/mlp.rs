use crate::classifier::{BitStoredModel, Classifier};
use crate::storage::QuantizedTensor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use synthdata::Sample;

/// Hyperparameters of the DNN baseline.
///
/// The defaults (one 128-unit ReLU hidden layer, SGD with momentum) follow
/// the LookNN-style configurations the paper's DNN baselines use: small
/// dense networks appropriate for the tabular evaluation datasets.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MlpConfig {
    /// Hidden-layer width.
    pub hidden: usize,
    /// Training epochs.
    pub epochs: usize,
    /// SGD learning rate.
    pub learning_rate: f64,
    /// SGD momentum coefficient.
    pub momentum: f64,
    /// Mini-batch size.
    pub batch: usize,
    /// Weight-initialization / shuffling seed.
    pub seed: u64,
}

impl Default for MlpConfig {
    fn default() -> Self {
        Self {
            hidden: 128,
            epochs: 30,
            learning_rate: 0.05,
            momentum: 0.9,
            batch: 16,
            seed: 0,
        }
    }
}

/// One-hidden-layer ReLU network, trained in `f64` and deployed with 8-bit
/// fixed-point weights.
///
/// The deployed (quantized) weights are what [`Mlp::predict`] uses and what
/// [`BitStoredModel`] exposes to fault injection — exactly the threat model
/// of the paper: the trained model sits in unreliable memory, inference
/// reads it in place.
///
/// # Example
///
/// ```
/// use baselines::{accuracy, Mlp, MlpConfig};
/// use synthdata::{DatasetSpec, GeneratorConfig};
///
/// let data = GeneratorConfig::new(1).generate(&DatasetSpec::pecan().with_sizes(150, 60));
/// let model = Mlp::fit(&MlpConfig { epochs: 20, ..MlpConfig::default() }, &data.train);
/// assert!(accuracy(&model, &data.test) > 0.7);
/// ```
#[derive(Debug, Clone)]
pub struct Mlp {
    // Deployed quantized parameters.
    w1: QuantizedTensor,
    b1: QuantizedTensor,
    w2: QuantizedTensor,
    b2: QuantizedTensor,
    features: usize,
    hidden: usize,
    classes: usize,
}

impl Mlp {
    /// Trains on labelled samples and quantizes the result for deployment.
    ///
    /// # Panics
    ///
    /// Panics if `train` is empty, a sample has an inconsistent feature
    /// count, or the config has a zero-sized hidden layer or batch.
    pub fn fit(config: &MlpConfig, train: &[Sample]) -> Self {
        assert!(!train.is_empty(), "training set must not be empty");
        assert!(config.hidden > 0, "hidden layer must not be empty");
        assert!(config.batch > 0, "batch size must be positive");
        let features = train[0].features.len();
        assert!(
            train.iter().all(|s| s.features.len() == features),
            "inconsistent feature counts in training data"
        );
        let classes = train.iter().map(|s| s.label).max().expect("nonempty") + 1;
        let hidden = config.hidden;

        let mut rng = StdRng::seed_from_u64(config.seed);
        // He initialization for the ReLU layer, Xavier-ish for the output.
        let mut w1: Vec<f64> = (0..features * hidden)
            .map(|_| normal(&mut rng) * (2.0 / features as f64).sqrt())
            .collect();
        let mut b1 = vec![0.0f64; hidden];
        let mut w2: Vec<f64> = (0..hidden * classes)
            .map(|_| normal(&mut rng) * (1.0 / hidden as f64).sqrt())
            .collect();
        let mut b2 = vec![0.0f64; classes];
        let mut v_w1 = vec![0.0f64; w1.len()];
        let mut v_b1 = vec![0.0f64; b1.len()];
        let mut v_w2 = vec![0.0f64; w2.len()];
        let mut v_b2 = vec![0.0f64; b2.len()];

        let mut order: Vec<usize> = (0..train.len()).collect();
        for _ in 0..config.epochs {
            order.shuffle(&mut rng);
            for batch in order.chunks(config.batch) {
                let mut g_w1 = vec![0.0f64; w1.len()];
                let mut g_b1 = vec![0.0f64; b1.len()];
                let mut g_w2 = vec![0.0f64; w2.len()];
                let mut g_b2 = vec![0.0f64; b2.len()];
                for &idx in batch {
                    let sample = &train[idx];
                    // Forward.
                    let mut h = vec![0.0f64; hidden];
                    for (j, hj) in h.iter_mut().enumerate() {
                        let mut sum = b1[j];
                        for (i, &x) in sample.features.iter().enumerate() {
                            sum += w1[i * hidden + j] * x;
                        }
                        *hj = sum.max(0.0);
                    }
                    let mut logits = vec![0.0f64; classes];
                    for (c, logit) in logits.iter_mut().enumerate() {
                        let mut sum = b2[c];
                        for (j, &hj) in h.iter().enumerate() {
                            sum += w2[j * classes + c] * hj;
                        }
                        *logit = sum;
                    }
                    let probs = softmax(&logits);
                    // Backward (cross-entropy).
                    let mut d_logits = probs;
                    d_logits[sample.label] -= 1.0;
                    let mut d_h = vec![0.0f64; hidden];
                    for (c, &dl) in d_logits.iter().enumerate() {
                        g_b2[c] += dl;
                        for (j, &hj) in h.iter().enumerate() {
                            g_w2[j * classes + c] += dl * hj;
                            d_h[j] += dl * w2[j * classes + c];
                        }
                    }
                    for (j, &dh) in d_h.iter().enumerate() {
                        if h[j] > 0.0 {
                            g_b1[j] += dh;
                            for (i, &x) in sample.features.iter().enumerate() {
                                g_w1[i * hidden + j] += dh * x;
                            }
                        }
                    }
                }
                let lr = config.learning_rate / batch.len() as f64;
                let mu = config.momentum;
                sgd_step(&mut w1, &mut v_w1, &g_w1, lr, mu);
                sgd_step(&mut b1, &mut v_b1, &g_b1, lr, mu);
                sgd_step(&mut w2, &mut v_w2, &g_w2, lr, mu);
                sgd_step(&mut b2, &mut v_b2, &g_b2, lr, mu);
            }
        }

        Self {
            w1: QuantizedTensor::quantize(&w1),
            b1: QuantizedTensor::quantize(&b1),
            w2: QuantizedTensor::quantize(&w2),
            b2: QuantizedTensor::quantize(&b2),
            features,
            hidden,
            classes,
        }
    }

    /// Per-class logits with the deployed quantized weights.
    ///
    /// # Panics
    ///
    /// Panics if the feature count differs from training.
    fn logits(&self, features: &[f64]) -> Vec<f64> {
        assert_eq!(
            features.len(),
            self.features,
            "expected {} features, got {}",
            self.features,
            features.len()
        );
        let w1 = self.w1.dequantize();
        let b1 = self.b1.dequantize();
        let w2 = self.w2.dequantize();
        let b2 = self.b2.dequantize();
        let mut h = vec![0.0f64; self.hidden];
        for (j, hj) in h.iter_mut().enumerate() {
            let mut sum = b1[j];
            for (i, &x) in features.iter().enumerate() {
                sum += w1[i * self.hidden + j] * x;
            }
            *hj = sum.max(0.0);
        }
        let mut logits = vec![0.0f64; self.classes];
        for (c, logit) in logits.iter_mut().enumerate() {
            let mut sum = b2[c];
            for (j, &hj) in h.iter().enumerate() {
                sum += w2[j * self.classes + c] * hj;
            }
            *logit = sum;
        }
        logits
    }

    /// Total number of deployed weights.
    pub fn parameter_count(&self) -> usize {
        self.w1.len() + self.b1.len() + self.w2.len() + self.b2.len()
    }
}

impl Classifier for Mlp {
    fn predict(&self, features: &[f64]) -> usize {
        argmax(&self.logits(features))
    }

    fn num_classes(&self) -> usize {
        self.classes
    }
}

impl BitStoredModel for Mlp {
    fn to_image(&self) -> Vec<u64> {
        pack_tensors(&[&self.w1, &self.b1, &self.w2, &self.b2])
    }

    fn bit_len(&self) -> usize {
        self.parameter_count() * 8
    }

    fn load_image(&mut self, image: &[u64]) {
        unpack_tensors(
            image,
            [&mut self.w1, &mut self.b1, &mut self.w2, &mut self.b2],
        );
    }

    fn field_bits(&self) -> usize {
        8
    }
}

/// Concatenates tensors byte-contiguously into one word image.
pub(crate) fn pack_tensors(tensors: &[&QuantizedTensor]) -> Vec<u64> {
    let total: usize = tensors.iter().map(|t| t.len()).sum();
    let mut bytes = Vec::with_capacity(total);
    for t in tensors {
        let words = t.to_words();
        for i in 0..t.len() {
            bytes.push(((words[i / 8] >> ((i % 8) * 8)) & 0xff) as u8);
        }
    }
    let mut image = vec![0u64; total.div_ceil(8)];
    for (i, &b) in bytes.iter().enumerate() {
        image[i / 8] |= (b as u64) << ((i % 8) * 8);
    }
    image
}

/// Splits a concatenated byte image back into the tensors.
///
/// # Panics
///
/// Panics if the image is too short.
pub(crate) fn unpack_tensors<const N: usize>(image: &[u64], tensors: [&mut QuantizedTensor; N]) {
    let total: usize = tensors.iter().map(|t| t.len()).sum();
    assert!(
        image.len() * 8 >= total,
        "image has {} bytes, need {total}",
        image.len() * 8
    );
    let mut offset = 0usize;
    for t in tensors {
        let len = t.len();
        let mut words = vec![0u64; len.div_ceil(8)];
        for i in 0..len {
            let byte = (image[(offset + i) / 8] >> (((offset + i) % 8) * 8)) & 0xff;
            words[i / 8] |= byte << ((i % 8) * 8);
        }
        t.load_words(&words);
        offset += len;
    }
}

pub(crate) fn softmax(logits: &[f64]) -> Vec<f64> {
    let max = logits.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = logits.iter().map(|&l| (l - max).exp()).collect();
    let sum: f64 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

pub(crate) fn argmax(values: &[f64]) -> usize {
    values
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite values"))
        .map(|(i, _)| i)
        .expect("nonempty")
}

fn normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

fn sgd_step(params: &mut [f64], velocity: &mut [f64], grads: &[f64], lr: f64, momentum: f64) {
    for ((p, v), g) in params.iter_mut().zip(velocity).zip(grads) {
        *v = momentum * *v - lr * g;
        *p += *v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::accuracy;
    use synthdata::{DatasetSpec, GeneratorConfig};

    fn small_data() -> synthdata::Dataset {
        GeneratorConfig::new(3).generate(&DatasetSpec::pecan().with_sizes(180, 90))
    }

    fn quick_config() -> MlpConfig {
        MlpConfig {
            hidden: 32,
            epochs: 15,
            ..MlpConfig::default()
        }
    }

    #[test]
    fn learns_separable_data() {
        let data = small_data();
        let model = Mlp::fit(&quick_config(), &data.train);
        let acc = accuracy(&model, &data.test);
        assert!(acc > 0.8, "MLP accuracy only {acc}");
    }

    #[test]
    fn training_is_deterministic() {
        let data = small_data();
        let a = Mlp::fit(&quick_config(), &data.train);
        let b = Mlp::fit(&quick_config(), &data.train);
        assert_eq!(a.to_image(), b.to_image());
    }

    #[test]
    fn image_roundtrips() {
        let data = small_data();
        let mut model = Mlp::fit(&quick_config(), &data.train);
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
    fn bit_len_matches_parameters() {
        let data = small_data();
        let model = Mlp::fit(&quick_config(), &data.train);
        let expected = (data.spec.features * 32 + 32 + 32 * 3 + 3) * 8;
        assert_eq!(model.bit_len(), expected);
        assert_eq!(model.field_bits(), 8);
        assert!(model.to_image().len() * 64 >= model.bit_len());
    }

    #[test]
    fn corrupting_image_changes_predictions_eventually() {
        let data = small_data();
        let mut model = Mlp::fit(&quick_config(), &data.train);
        let clean_acc = accuracy(&model, &data.test);
        let mut image = model.to_image();
        // Flip every stored sign bit — a worst-case wipeout.
        for (i, word) in image.iter_mut().enumerate() {
            if i * 64 < model.bit_len() {
                *word ^= 0x8080_8080_8080_8080;
            }
        }
        model.load_image(&image);
        let corrupted_acc = accuracy(&model, &data.test);
        assert!(
            corrupted_acc < clean_acc,
            "sign wipeout did not hurt: {clean_acc} -> {corrupted_acc}"
        );
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_training_panics() {
        Mlp::fit(&MlpConfig::default(), &[]);
    }

    #[test]
    #[should_panic(expected = "expected")]
    fn wrong_feature_count_panics() {
        let data = small_data();
        let model = Mlp::fit(&quick_config(), &data.train);
        model.predict(&[0.0]);
    }
}
