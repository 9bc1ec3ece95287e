//! Time-series classification: the natural extension of RobustHD to the
//! paper's streaming datasets (PAMAP's IMU traces are windows of a sensor
//! stream).
//!
//! A scalar stream is quantized into a small symbol alphabet, n-gram
//! encoded with permutation binding ([`hypervector::SequenceEncoder`]), and
//! classified by the same class-hypervector model as the tabular pipeline —
//! so the stream classifier inherits every robustness and recovery property
//! of [`crate::TrainedModel`] unchanged: its stored form is binary class
//! hypervectors that can be attacked through
//! [`crate::TrainedModel::to_memory_image`] and repaired by
//! [`crate::RecoveryEngine`].

use crate::batch::BatchEngine;
use crate::config::{BatchConfig, HdcConfig};
use crate::model::TrainedModel;
use hypervector::random::HypervectorSampler;
use hypervector::{BinaryHypervector, SequenceEncoder};

/// HDC classifier over scalar time series.
///
/// # Example
///
/// ```
/// use robusthd::{HdcConfig, StreamClassifier};
///
/// # fn main() -> Result<(), robusthd::ConfigError> {
/// // Two waveform classes: a slow ramp and a fast alternation.
/// let ramp: Vec<f64> = (0..64).map(|i| (i % 16) as f64 / 16.0).collect();
/// let alternating: Vec<f64> = (0..64).map(|i| (i % 2) as f64).collect();
/// let streams = vec![(ramp.clone(), 0usize), (alternating.clone(), 1)];
///
/// let config = HdcConfig::builder().dimension(4096).seed(3).build()?;
/// let classifier = StreamClassifier::fit(&config, 8, 3, &streams);
/// assert_eq!(classifier.predict(&ramp), 0);
/// assert_eq!(classifier.predict(&alternating), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct StreamClassifier {
    encoder: SequenceEncoder,
    model: TrainedModel,
    alphabet: usize,
    num_classes: usize,
    batch: BatchEngine,
}

impl StreamClassifier {
    /// Quantizes a value in `[0, 1]` into one of `alphabet` symbols
    /// (clamping out-of-range values).
    fn symbol(value: f64, alphabet: usize) -> usize {
        let clamped = value.clamp(0.0, 1.0);
        ((clamped * alphabet as f64) as usize).min(alphabet - 1)
    }

    fn quantize(stream: &[f64], alphabet: usize) -> Vec<usize> {
        stream.iter().map(|&v| Self::symbol(v, alphabet)).collect()
    }

    /// Fits a classifier on labelled streams: values in `[0, 1]`,
    /// quantized into `alphabet` symbols and encoded with `ngram`-sized
    /// windows.
    ///
    /// # Panics
    ///
    /// Panics if `streams` is empty, `alphabet` or `ngram` is zero, or any
    /// stream is shorter than one n-gram.
    pub fn fit(
        config: &HdcConfig,
        alphabet: usize,
        ngram: usize,
        streams: &[(Vec<f64>, usize)],
    ) -> Self {
        assert!(!streams.is_empty(), "training set must not be empty");
        assert!(alphabet > 0, "alphabet must not be empty");
        let mut sampler = HypervectorSampler::seed_from(config.seed ^ STREAM_SEED_MIX);
        let symbols = sampler.base_set(alphabet, config.dimension);
        let encoder = SequenceEncoder::new(symbols, ngram);
        let encoded: Vec<BinaryHypervector> = streams
            .iter()
            .map(|(stream, _)| encoder.encode(&Self::quantize(stream, alphabet)))
            .collect();
        let labels: Vec<usize> = streams.iter().map(|(_, l)| *l).collect();
        let num_classes = labels.iter().copied().max().expect("non-empty") + 1;
        let batch = BatchEngine::from_env();
        let model = TrainedModel::train_with(&encoded, &labels, num_classes, config, &batch);
        Self {
            encoder,
            model,
            alphabet,
            num_classes,
            batch,
        }
    }

    /// Encodes a stream into hyperspace (quantize + n-gram bundle).
    ///
    /// # Panics
    ///
    /// Panics if the stream is shorter than one n-gram.
    pub fn encode(&self, stream: &[f64]) -> BinaryHypervector {
        self.encoder.encode(&Self::quantize(stream, self.alphabet))
    }

    /// Predicts the class of a stream.
    ///
    /// # Panics
    ///
    /// Panics if the stream is shorter than one n-gram.
    pub fn predict(&self, stream: &[f64]) -> usize {
        self.model.predict(&self.encode(stream))
    }

    /// Predicts the classes of a batch of streams through the fused
    /// encode→score path of the sharded [`BatchEngine`] (no intermediate
    /// `Vec<BinaryHypervector>`) — bit-identical to mapping
    /// [`Self::predict`] over the batch at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if any stream is shorter than one n-gram.
    pub fn predict_batch(&self, streams: &[Vec<f64>]) -> Vec<usize> {
        self.batch
            .predict_fused(&self.model, streams, |s| self.encode(s))
    }

    /// Accuracy over labelled streams, scored through the fused batch
    /// path.
    ///
    /// # Panics
    ///
    /// Panics if `streams` is empty or any stream is too short.
    pub fn accuracy(&self, streams: &[(Vec<f64>, usize)]) -> f64 {
        assert!(!streams.is_empty(), "cannot score an empty evaluation set");
        let predictions = self
            .batch
            .predict_fused(&self.model, streams, |(stream, _)| self.encode(stream));
        let correct = predictions
            .iter()
            .zip(streams.iter())
            .filter(|(p, (_, label))| *p == label)
            .count();
        correct as f64 / streams.len() as f64
    }

    /// Replaces the batch engine's tuning (thread count, shard size).
    pub fn set_batch_config(&mut self, config: BatchConfig) {
        self.batch.set_config(config);
    }

    /// The trained model (same attack/recovery surface as the tabular
    /// pipeline).
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

    /// Symbol alphabet size.
    pub fn alphabet(&self) -> usize {
        self.alphabet
    }
}

/// Seed-mix constant keeping the stream codebook independent of the tabular
/// encoder codebooks built from the same config seed.
const STREAM_SEED_MIX: u64 = 0x0f1e_2d3c_4b5a_6978;

/// HDC classifier over multichannel time series (e.g. the paper's PAMAP
/// IMU traces: many synchronized sensor channels per recording).
///
/// Each channel owns a base hypervector; a time step binds every channel's
/// quantized symbol to its channel base and bundles them, and the per-step
/// vectors feed the same n-gram sequence encoding as the scalar
/// classifier. The deployed model remains a plain [`TrainedModel`] with the
/// full attack/recovery surface.
///
/// # Example
///
/// ```
/// use robusthd::{HdcConfig, MultichannelStreamClassifier};
///
/// # fn main() -> Result<(), robusthd::ConfigError> {
/// // Two 2-channel gestures: channels moving together vs in opposition.
/// let together: Vec<Vec<f64>> = (0..32)
///     .map(|t| {
///         let v = (t % 8) as f64 / 8.0;
///         vec![v, v]
///     })
///     .collect();
/// let opposed: Vec<Vec<f64>> = (0..32)
///     .map(|t| {
///         let v = (t % 8) as f64 / 8.0;
///         vec![v, 1.0 - v]
///     })
///     .collect();
/// let streams = vec![(together.clone(), 0usize), (opposed.clone(), 1)];
///
/// let config = HdcConfig::builder().dimension(4096).seed(9).build()?;
/// let classifier = MultichannelStreamClassifier::fit(&config, 8, 3, &streams);
/// assert_eq!(classifier.predict(&together), 0);
/// assert_eq!(classifier.predict(&opposed), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MultichannelStreamClassifier {
    channel_bases: Vec<BinaryHypervector>,
    symbols: Vec<BinaryHypervector>,
    model: TrainedModel,
    alphabet: usize,
    ngram: usize,
    num_classes: usize,
    batch: BatchEngine,
}

impl MultichannelStreamClassifier {
    /// Fits on labelled multichannel streams: each stream is a sequence of
    /// time steps, each time step a vector of per-channel values in
    /// `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `streams` is empty, channels are inconsistent, `alphabet`
    /// or `ngram` is zero, or any stream is shorter than one n-gram.
    pub fn fit(
        config: &HdcConfig,
        alphabet: usize,
        ngram: usize,
        streams: &[(Vec<Vec<f64>>, usize)],
    ) -> Self {
        assert!(!streams.is_empty(), "training set must not be empty");
        assert!(alphabet > 0, "alphabet must not be empty");
        assert!(ngram > 0, "n-gram size must be positive");
        let channels = streams[0].0.first().map(Vec::len).unwrap_or(0);
        assert!(channels > 0, "streams must have at least one channel");
        assert!(
            streams
                .iter()
                .flat_map(|(s, _)| s.iter())
                .all(|step| step.len() == channels),
            "all time steps must have the same channel count"
        );

        let mut sampler = HypervectorSampler::seed_from(config.seed ^ STREAM_SEED_MIX ^ 0x9d2c);
        let channel_bases = sampler.base_set(channels, config.dimension);
        let symbols = sampler.base_set(alphabet, config.dimension);

        let mut this = Self {
            channel_bases,
            symbols,
            // Placeholder; replaced below once encodings exist.
            model: TrainedModel::from_classes(vec![BinaryHypervector::zeros(config.dimension)]),
            alphabet,
            ngram,
            num_classes: 1,
            batch: BatchEngine::from_env(),
        };
        let encoded: Vec<BinaryHypervector> = streams
            .iter()
            .map(|(stream, _)| this.encode(stream))
            .collect();
        let labels: Vec<usize> = streams.iter().map(|(_, l)| *l).collect();
        let num_classes = labels.iter().copied().max().expect("non-empty") + 1;
        this.model = TrainedModel::train_with(&encoded, &labels, num_classes, config, &this.batch);
        this.num_classes = num_classes;
        this
    }

    /// Encodes one time step: bundle over channels of
    /// `channel_base ⊕ symbol(value)`, through the fused XOR+carry-save
    /// kernel (no per-channel bind allocation; bit-identical to the scalar
    /// accumulator — see `hypervector/tests/bitslice_props.rs`).
    // audit:allow(panic): channel count asserted at entry; symbol() clamps to the alphabet
    fn encode_step(&self, step: &[f64]) -> BinaryHypervector {
        assert_eq!(
            step.len(),
            self.channel_bases.len(),
            "expected {} channels, got {}",
            self.channel_bases.len(),
            step.len()
        );
        let dim = self.channel_bases[0].dim();
        let mut acc = hypervector::CarrySaveMajority::new(dim);
        for (channel, &value) in step.iter().enumerate() {
            let symbol = StreamClassifier::symbol(value, self.alphabet);
            acc.add_xor_words(
                self.channel_bases[channel].bits().words(),
                self.symbols[symbol].bits().words(),
            );
        }
        acc.to_binary()
    }

    /// Encodes a multichannel stream: per-step channel bundles, combined
    /// across time by rotation-bound n-grams.
    ///
    /// # Panics
    ///
    /// Panics if the stream is shorter than one n-gram or a step has the
    /// wrong channel count.
    pub fn encode(&self, stream: &[Vec<f64>]) -> BinaryHypervector {
        assert!(
            stream.len() >= self.ngram,
            "stream of {} steps shorter than the {}-gram window",
            stream.len(),
            self.ngram
        );
        let steps: Vec<BinaryHypervector> =
            stream.iter().map(|step| self.encode_step(step)).collect();
        let dim = steps[0].dim(); // audit:allow(panic): stream asserted >= ngram, so steps is non-empty
        let mut acc = hypervector::BundleAccumulator::new(dim);
        for window in steps.windows(self.ngram) {
            let mut gram = BinaryHypervector::zeros(dim);
            for (offset, step) in window.iter().enumerate() {
                gram.bind_assign(&step.permute(self.ngram - 1 - offset));
            }
            acc.add(&gram);
        }
        acc.to_binary()
    }

    /// Predicts the class of a stream.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as
    /// [`MultichannelStreamClassifier::encode`].
    pub fn predict(&self, stream: &[Vec<f64>]) -> usize {
        self.model.predict(&self.encode(stream))
    }

    /// Predicts the classes of a batch of multichannel streams through the
    /// fused encode→score path of the sharded [`BatchEngine`] —
    /// bit-identical to mapping [`Self::predict`] over the batch at any
    /// thread count.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as
    /// [`MultichannelStreamClassifier::encode`].
    pub fn predict_batch(&self, streams: &[Vec<Vec<f64>>]) -> Vec<usize> {
        self.batch
            .predict_fused(&self.model, streams, |s| self.encode(s))
    }

    /// Accuracy over labelled streams, scored through the fused batch
    /// path.
    ///
    /// # Panics
    ///
    /// Panics if `streams` is empty or any stream is invalid.
    pub fn accuracy(&self, streams: &[(Vec<Vec<f64>>, usize)]) -> f64 {
        assert!(!streams.is_empty(), "cannot score an empty evaluation set");
        let predictions = self
            .batch
            .predict_fused(&self.model, streams, |(stream, _)| self.encode(stream));
        let correct = predictions
            .iter()
            .zip(streams.iter())
            .filter(|(p, (_, label))| *p == label)
            .count();
        correct as f64 / streams.len() as f64
    }

    /// Replaces the batch engine's tuning (thread count, shard size).
    pub fn set_batch_config(&mut self, config: BatchConfig) {
        self.batch.set_config(config);
    }

    /// The trained model.
    pub fn model(&self) -> &TrainedModel {
        &self.model
    }

    /// Mutable model access for attack/recovery experiments.
    pub fn model_mut(&mut self) -> &mut TrainedModel {
        &mut self.model
    }

    /// Number of channels expected per time step.
    pub fn channels(&self) -> usize {
        self.channel_bases.len()
    }

    /// Number of classes seen at fit time.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Three synthetic waveform classes with per-sample jitter.
    fn waveform(class: usize, rng: &mut StdRng) -> Vec<f64> {
        let phase: usize = rng.random_range(0..8);
        (0..96)
            .map(|i| {
                let t = i + phase;
                let base = match class {
                    0 => (t % 12) as f64 / 12.0, // ramp
                    1 => {
                        if (t / 6).is_multiple_of(2) {
                            0.15
                        } else {
                            0.85
                        }
                    } // square
                    _ => 0.5 + 0.4 * ((t as f64) * 0.7).sin(), // sine
                };
                (base + rng.random_range(-0.04..0.04)).clamp(0.0, 1.0)
            })
            .collect()
    }

    fn waveform_set(count: usize, seed: u64) -> Vec<(Vec<f64>, usize)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|i| {
                let class = i % 3;
                (waveform(class, &mut rng), class)
            })
            .collect()
    }

    fn config() -> HdcConfig {
        HdcConfig::builder()
            .dimension(4096)
            .seed(6)
            .build()
            .expect("valid")
    }

    #[test]
    fn classifies_waveforms() {
        let train = waveform_set(60, 1);
        let test = waveform_set(30, 2);
        let classifier = StreamClassifier::fit(&config(), 8, 3, &train);
        let acc = classifier.accuracy(&test);
        assert!(acc > 0.9, "stream accuracy only {acc}");
    }

    #[test]
    fn stream_model_is_bit_flip_robust() {
        let train = waveform_set(60, 3);
        let test = waveform_set(30, 4);
        let mut classifier = StreamClassifier::fit(&config(), 8, 3, &train);
        let clean = classifier.accuracy(&test);
        // 10% random flips on the stored class hypervectors.
        let mut image = classifier.model().to_memory_image();
        let bits = image.len();
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut flipped = 0;
        while flipped < bits / 10 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let pos = (state >> 16) as usize % bits;
            image.flip(pos);
            flipped += 1;
        }
        classifier.model_mut().load_memory_image(&image);
        let attacked = classifier.accuracy(&test);
        assert!(
            clean - attacked < 0.1,
            "stream model too fragile: {clean} -> {attacked}"
        );
    }

    #[test]
    fn quantizer_covers_alphabet() {
        assert_eq!(StreamClassifier::symbol(0.0, 8), 0);
        assert_eq!(StreamClassifier::symbol(1.0, 8), 7);
        assert_eq!(StreamClassifier::symbol(-0.5, 8), 0);
        assert_eq!(StreamClassifier::symbol(2.0, 8), 7);
    }

    #[test]
    fn accessors_report_fit_parameters() {
        let train = waveform_set(12, 5);
        let classifier = StreamClassifier::fit(&config(), 6, 2, &train);
        assert_eq!(classifier.alphabet(), 6);
        assert_eq!(classifier.num_classes(), 3);
        assert_eq!(classifier.model().dim(), 4096);
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_training_panics() {
        StreamClassifier::fit(&config(), 4, 2, &[]);
    }

    /// Two-channel gestures whose per-channel marginals are identical —
    /// only the cross-channel relationship distinguishes the classes.
    fn gesture(class: usize, rng: &mut StdRng) -> Vec<Vec<f64>> {
        let phase: usize = rng.random_range(0..6);
        (0..48)
            .map(|i| {
                let v = ((i + phase) % 12) as f64 / 12.0;
                let jitter = rng.random_range(-0.03..0.03);
                match class {
                    0 => vec![(v + jitter).clamp(0.0, 1.0), (v - jitter).clamp(0.0, 1.0)],
                    _ => vec![
                        (v + jitter).clamp(0.0, 1.0),
                        (1.0 - v + jitter).clamp(0.0, 1.0),
                    ],
                }
            })
            .collect()
    }

    fn gesture_set(count: usize, seed: u64) -> Vec<(Vec<Vec<f64>>, usize)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|i| {
                let class = i % 2;
                (gesture(class, &mut rng), class)
            })
            .collect()
    }

    #[test]
    fn multichannel_separates_cross_channel_structure() {
        let train = gesture_set(40, 7);
        let test = gesture_set(20, 8);
        let classifier = MultichannelStreamClassifier::fit(&config(), 8, 3, &train);
        let acc = classifier.accuracy(&test);
        assert!(acc > 0.9, "multichannel accuracy only {acc}");
        assert_eq!(classifier.channels(), 2);
        assert_eq!(classifier.num_classes(), 2);
    }

    #[test]
    fn stream_batched_prediction_matches_sequential() {
        let train = waveform_set(30, 10);
        let mut classifier = StreamClassifier::fit(&config(), 8, 3, &train);
        let queries: Vec<Vec<f64>> = train.iter().map(|(s, _)| s.clone()).collect();
        let sequential: Vec<usize> = queries.iter().map(|s| classifier.predict(s)).collect();
        for threads in [1, 4] {
            classifier.set_batch_config(
                BatchConfig::builder()
                    .threads(threads)
                    .shard_size(4)
                    .build()
                    .expect("valid"),
            );
            assert_eq!(classifier.predict_batch(&queries), sequential);
        }
    }

    #[test]
    fn multichannel_batched_prediction_matches_sequential() {
        let train = gesture_set(20, 11);
        let mut classifier = MultichannelStreamClassifier::fit(&config(), 8, 3, &train);
        let queries: Vec<Vec<Vec<f64>>> = train.iter().map(|(s, _)| s.clone()).collect();
        let sequential: Vec<usize> = queries.iter().map(|s| classifier.predict(s)).collect();
        classifier.set_batch_config(
            BatchConfig::builder()
                .threads(4)
                .shard_size(3)
                .build()
                .expect("valid"),
        );
        assert_eq!(classifier.predict_batch(&queries), sequential);
    }

    #[test]
    fn multichannel_encoding_is_deterministic() {
        let train = gesture_set(10, 9);
        let classifier = MultichannelStreamClassifier::fit(&config(), 8, 2, &train);
        let stream = &train[0].0;
        assert_eq!(classifier.encode(stream), classifier.encode(stream));
    }

    #[test]
    #[should_panic(expected = "same channel count")]
    fn ragged_channels_panic() {
        let bad = vec![(vec![vec![0.1, 0.2], vec![0.3]], 0usize)];
        MultichannelStreamClassifier::fit(&config(), 4, 1, &bad);
    }
}
