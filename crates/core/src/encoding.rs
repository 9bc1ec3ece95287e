//! Encoders mapping raw feature vectors into binary hyperspace.
//!
//! The paper's encoder (§3.1) is **record-based**: each feature position `k`
//! owns a random base hypervector `B_k`, each quantized feature value owns a
//! *level* hypervector `L(f_k)` from a correlated chain, and the encoding is
//! the majority bundle of the bound pairs `B_k ⊕ L(f_k)`. Nearby inputs map
//! to nearby hypervectors while the identity of each feature is preserved by
//! its (near-orthogonal) base vector.
//!
//! [`RandomProjectionEncoder`] is an alternative sign-of-projection encoder
//! used by the encoder ablation.
//!
//! # The encoding fast path
//!
//! Encoding dominated the raw-features→prediction cost once scoring went
//! word-parallel (DESIGN.md §11), so [`RecordEncoder`] encodes through a
//! fast path with a bit-identical scalar oracle beside it:
//!
//! * **fast** ([`Encoder::encode`]): each feature's bind happens inside
//!   the bundle. The bit-sliced carry-save majority kernel
//!   ([`hypervector::CarrySaveMajority::add_xor_words`]) adds
//!   `B_k ⊕ L(f_k)` word by word without materializing the bound vector,
//!   so nothing but the two codebooks is stored and no feature allocates.
//!   That is amortized `O(F)` word ops per 64-dimension word instead of
//!   the scalar loop's `O(64·F)`.
//! * **reference** ([`RecordEncoder::encode_reference`]): the original
//!   per-feature bind into a scalar [`BundleAccumulator`], kept as the
//!   semantic definition the differential suite compares against.

use crate::config::HdcConfig;
use hypervector::random::HypervectorSampler;
use hypervector::{BinaryHypervector, BundleAccumulator, CarrySaveMajority, PackedBits};

/// A mapping from raw features in `[0, 1]^n` to binary hypervectors.
///
/// Implementations must be deterministic: the same features always produce
/// the same hypervector (training and inference must agree).
pub trait Encoder {
    /// Hypervector dimensionality produced by this encoder.
    fn dim(&self) -> usize;

    /// Number of input features expected.
    fn features(&self) -> usize;

    /// Encodes one feature vector.
    ///
    /// # Panics
    ///
    /// Implementations panic if `features.len() != self.features()`.
    fn encode(&self, features: &[f64]) -> BinaryHypervector;

    /// Encodes a batch of borrowed feature slices — the allocation-friendly
    /// entry point: callers holding columnar or arena-backed features can
    /// pass views without materializing `Vec<Vec<f64>>`.
    fn encode_batch_refs(&self, batch: &[&[f64]]) -> Vec<BinaryHypervector> {
        batch.iter().map(|f| self.encode(f)).collect()
    }

    /// Encodes a batch of owned feature vectors (delegates to
    /// [`Encoder::encode_batch_refs`]).
    fn encode_batch(&self, batch: &[Vec<f64>]) -> Vec<BinaryHypervector> {
        let refs: Vec<&[f64]> = batch.iter().map(Vec::as_slice).collect();
        self.encode_batch_refs(&refs)
    }
}

/// The paper's record-based encoder: `H = majority_k( B_k ⊕ L(q(f_k)) )`,
/// bound and bundled in one pass over the base and level codebooks.
///
/// # Example
///
/// ```
/// use robusthd::{Encoder, HdcConfig, RecordEncoder};
///
/// let config = HdcConfig::builder().dimension(2048).seed(3).build()?;
/// let encoder = RecordEncoder::new(&config, 4);
/// let a = encoder.encode(&[0.1, 0.5, 0.9, 0.0]);
/// let b = encoder.encode(&[0.1, 0.5, 0.9, 0.05]);
/// let c = encoder.encode(&[0.9, 0.0, 0.2, 1.0]);
/// // Similar inputs stay similar, dissimilar inputs decorrelate.
/// assert!(a.similarity(&b) > a.similarity(&c));
/// # Ok::<(), robusthd::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RecordEncoder {
    bases: Vec<BinaryHypervector>,
    levels: Vec<BinaryHypervector>,
    dim: usize,
}

impl RecordEncoder {
    /// Builds the encoder's base and level hypervector codebooks for
    /// `features` input features, using the default *locally correlated*
    /// level chain (distant values near-orthogonal — see DESIGN.md §8,
    /// finding 3).
    ///
    /// # Panics
    ///
    /// Panics if `features` is zero.
    pub fn new(config: &HdcConfig, features: usize) -> Self {
        assert!(features > 0, "encoder needs at least one feature");
        let mut sampler = HypervectorSampler::seed_from(config.seed);
        let bases = sampler.base_set(features, config.dimension);
        let levels = sampler.level_set(config.levels, config.dimension, config.level_correlation);
        Self {
            bases,
            levels,
            dim: config.dimension,
        }
    }

    /// Builds the encoder with the classic *linear* (thermometer) level
    /// chain instead: distance between level hypervectors grows linearly
    /// with level separation and the extremes are orthogonal.
    ///
    /// Kept for the level-codebook ablation: the linear chain leaves a
    /// large ambient correlation between encodings of different classes,
    /// which destabilizes recovery (DESIGN.md §8, finding 3).
    ///
    /// # Panics
    ///
    /// Panics if `features` is zero.
    pub fn with_linear_levels(config: &HdcConfig, features: usize) -> Self {
        assert!(features > 0, "encoder needs at least one feature");
        let mut sampler = HypervectorSampler::seed_from(config.seed);
        let bases = sampler.base_set(features, config.dimension);
        let levels = sampler.level_set_linear(config.levels, config.dimension);
        Self {
            bases,
            levels,
            dim: config.dimension,
        }
    }

    /// The scalar reference encoding: per-feature bind into a
    /// [`BundleAccumulator`]. Bit-identical to [`Encoder::encode`]; kept as
    /// the oracle the differential suites and benchmarks compare against.
    ///
    /// # Panics
    ///
    /// Panics if `features.len() != self.features()`.
    pub fn encode_reference(&self, features: &[f64]) -> BinaryHypervector {
        self.check_features(features);
        let mut acc = BundleAccumulator::new(self.dim);
        let mut bound = BinaryHypervector::zeros(self.dim);
        for (k, &value) in features.iter().enumerate() {
            let level = &self.levels[self.level_index(value)];
            self.bases[k].bind_into(level, &mut bound);
            acc.add(&bound);
        }
        acc.to_binary()
    }

    fn check_features(&self, features: &[f64]) {
        assert_eq!(
            features.len(),
            self.bases.len(),
            "expected {} features, got {}",
            self.bases.len(),
            features.len()
        );
    }

    /// Quantizes a normalized feature into a level index, clamping
    /// out-of-range values.
    fn level_index(&self, value: f64) -> usize {
        let steps = self.levels.len();
        ((value.clamp(0.0, 1.0) * steps as f64) as usize).min(steps - 1)
    }
}

impl Encoder for RecordEncoder {
    fn dim(&self) -> usize {
        self.dim
    }

    fn features(&self) -> usize {
        self.bases.len()
    }

    // audit:allow(panic): level_index is clamped to the level table
    fn encode(&self, features: &[f64]) -> BinaryHypervector {
        self.check_features(features);
        // One fused bind + carry-save add per feature: no bound vector, no
        // per-feature allocation.
        let mut acc = CarrySaveMajority::new(self.dim);
        for (base, &value) in self.bases.iter().zip(features) {
            let level = &self.levels[self.level_index(value)];
            acc.add_xor_words(base.bits().words(), level.bits().words());
        }
        acc.to_binary()
    }
}

/// Sign-of-random-projection encoder: each output bit is the sign of a
/// sparse ±1 projection of the input.
///
/// Cheaper than the record encoder but loses the per-feature base-vector
/// structure; kept as the ablation comparator for DESIGN.md §5.
#[derive(Debug, Clone)]
pub struct RandomProjectionEncoder {
    /// For each output dimension, the list of (feature index, sign) taps.
    taps: Vec<Vec<(usize, f64)>>,
    features: usize,
    dim: usize,
}

impl RandomProjectionEncoder {
    /// Builds a projection with `taps_per_dim` random ±1 taps per output
    /// bit.
    ///
    /// # Panics
    ///
    /// Panics if `features` or `taps_per_dim` is zero.
    pub fn new(config: &HdcConfig, features: usize, taps_per_dim: usize) -> Self {
        use rand::Rng;
        assert!(features > 0, "encoder needs at least one feature");
        assert!(taps_per_dim > 0, "need at least one tap per dimension");
        let mut sampler = HypervectorSampler::seed_from(config.seed ^ 0x5f37_2a1b);
        let rng = sampler.rng_mut();
        let taps = (0..config.dimension)
            .map(|_| {
                (0..taps_per_dim)
                    .map(|_| {
                        let feature = rng.random_range(0..features);
                        let sign = if rng.random_bool(0.5) { 1.0 } else { -1.0 };
                        (feature, sign)
                    })
                    .collect()
            })
            .collect();
        Self {
            taps,
            features,
            dim: config.dimension,
        }
    }
}

impl Encoder for RandomProjectionEncoder {
    fn dim(&self) -> usize {
        self.dim
    }

    fn features(&self) -> usize {
        self.features
    }

    // audit:allow(panic): taps are built over the feature count at construction
    fn encode(&self, features: &[f64]) -> BinaryHypervector {
        assert_eq!(
            features.len(),
            self.features,
            "expected {} features, got {}",
            self.features,
            features.len()
        );
        // Build packed words directly instead of per-bit `from_fn`: one
        // 64-bit accumulator per word, committed in bulk.
        let mut bits = PackedBits::zeros(self.dim);
        for (word_idx, word) in bits.words_mut().iter_mut().enumerate() {
            let base = word_idx * 64;
            let span = 64.min(self.dim - base);
            let mut acc = 0u64;
            for (j, taps) in self.taps[base..base + span].iter().enumerate() {
                let sum: f64 = taps
                    .iter()
                    // Center features at zero so the signs are balanced.
                    .map(|&(f, sign)| sign * (features[f] - 0.5))
                    .sum();
                acc |= u64::from(sum > 0.0) << j;
            }
            *word = acc;
        }
        bits.mask_tail();
        BinaryHypervector::from_bits(bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(dim: usize) -> HdcConfig {
        HdcConfig::builder()
            .dimension(dim)
            .seed(7)
            .build()
            .expect("valid")
    }

    #[test]
    fn record_encoding_is_deterministic() {
        let enc = RecordEncoder::new(&config(2048), 8);
        let f = vec![0.3; 8];
        assert_eq!(enc.encode(&f), enc.encode(&f));
    }

    #[test]
    fn record_encoding_preserves_locality() {
        let enc = RecordEncoder::new(&config(8192), 16);
        let base: Vec<f64> = (0..16).map(|i| i as f64 / 16.0).collect();
        let mut near = base.clone();
        near[0] += 0.02;
        let far: Vec<f64> = base.iter().map(|f| 1.0 - f).collect();
        let h = enc.encode(&base);
        assert!(h.similarity(&enc.encode(&near)) > h.similarity(&enc.encode(&far)));
        assert!(h.similarity(&enc.encode(&near)) > 0.9);
    }

    #[test]
    fn different_inputs_decorrelate() {
        let enc = RecordEncoder::new(&config(8192), 16);
        let a = enc.encode(&[0.1; 16]);
        let b = enc.encode(&[0.9; 16]);
        let sim = a.similarity(&b);
        assert!(sim < 0.75, "dissimilar inputs too similar: {sim}");
    }

    #[test]
    fn out_of_range_features_clamp() {
        let enc = RecordEncoder::new(&config(1024), 2);
        let clamped = enc.encode(&[-0.5, 1.5]);
        let edge = enc.encode(&[0.0, 1.0]);
        assert_eq!(clamped, edge);
    }

    #[test]
    #[should_panic(expected = "expected 4 features")]
    fn wrong_feature_count_panics() {
        RecordEncoder::new(&config(512), 4).encode(&[0.0; 3]);
    }

    #[test]
    fn level_index_spans_codebook() {
        let enc = RecordEncoder::new(&config(512), 1);
        assert_eq!(enc.level_index(0.0), 0);
        assert_eq!(enc.level_index(1.0), enc.levels.len() - 1);
        assert_eq!(enc.level_index(-0.5), 0);
        assert_eq!(enc.level_index(2.0), enc.levels.len() - 1);
    }

    #[test]
    fn encode_batch_matches_single() {
        let enc = RecordEncoder::new(&config(512), 3);
        let batch = vec![vec![0.2, 0.4, 0.6], vec![0.9, 0.1, 0.5]];
        let encoded = enc.encode_batch(&batch);
        assert_eq!(encoded[0], enc.encode(&batch[0]));
        assert_eq!(encoded[1], enc.encode(&batch[1]));
    }

    #[test]
    fn projection_encoder_is_deterministic_and_local() {
        let cfg = config(4096);
        let enc = RandomProjectionEncoder::new(&cfg, 16, 8);
        let base: Vec<f64> = (0..16).map(|i| i as f64 / 15.0).collect();
        let mut near = base.clone();
        near[3] += 0.01;
        let far: Vec<f64> = base.iter().map(|f| 1.0 - f).collect();
        let h = enc.encode(&base);
        assert_eq!(h, enc.encode(&base));
        assert!(h.similarity(&enc.encode(&near)) > h.similarity(&enc.encode(&far)));
    }

    #[test]
    fn linear_levels_raise_ambient_similarity() {
        // The ablation's premise, at the encoder level: with the linear
        // thermometer chain, two *unrelated* inputs encode far more
        // similarly than with the locally-correlated chain.
        let cfg = config(4096);
        let local = RecordEncoder::new(&cfg, 32);
        let linear = RecordEncoder::with_linear_levels(&cfg, 32);
        let a: Vec<f64> = (0..32).map(|i| (i as f64 * 0.37) % 1.0).collect();
        let b: Vec<f64> = (0..32).map(|i| (i as f64 * 0.61 + 0.5) % 1.0).collect();
        let ambient_local = local.encode(&a).similarity(&local.encode(&b));
        let ambient_linear = linear.encode(&a).similarity(&linear.encode(&b));
        assert!(
            ambient_linear > ambient_local + 0.05,
            "linear {ambient_linear} should exceed local {ambient_local}"
        );
    }

    #[test]
    fn linear_encoder_still_preserves_locality() {
        let enc = RecordEncoder::with_linear_levels(&config(4096), 16);
        let base: Vec<f64> = (0..16).map(|i| i as f64 / 16.0).collect();
        let mut near = base.clone();
        near[0] += 0.02;
        let far: Vec<f64> = base.iter().map(|f| 1.0 - f).collect();
        let h = enc.encode(&base);
        assert!(h.similarity(&enc.encode(&near)) > h.similarity(&enc.encode(&far)));
    }

    #[test]
    fn fast_path_matches_reference_bit_for_bit() {
        // Non-multiple-of-64 dimension on purpose.
        let cfg = config(1000);
        let enc = RecordEncoder::new(&cfg, 7);
        let inputs = [
            vec![0.0; 7],
            vec![1.0; 7],
            vec![0.5; 7],
            (0..7).map(|i| i as f64 / 6.0).collect::<Vec<_>>(),
            vec![-0.2, 1.3, 0.01, 0.99, 0.49, 0.51, 0.33],
        ];
        for f in &inputs {
            assert_eq!(enc.encode(f), enc.encode_reference(f), "features {f:?}");
        }
    }

    #[test]
    fn encode_batch_refs_matches_owned_batch() {
        let enc = RecordEncoder::new(&config(512), 3);
        let batch = vec![vec![0.2, 0.4, 0.6], vec![0.9, 0.1, 0.5]];
        let refs: Vec<&[f64]> = batch.iter().map(Vec::as_slice).collect();
        assert_eq!(enc.encode_batch_refs(&refs), enc.encode_batch(&batch));
    }

    #[test]
    fn projection_encoder_even_feature_count_tie_cases() {
        // All-0.5 features make every projection sum exactly 0.0 — the
        // packed-word rewrite must keep the strict `> 0.0` threshold.
        let cfg = config(130);
        let enc = RandomProjectionEncoder::new(&cfg, 6, 4);
        let h = enc.encode(&[0.5; 6]);
        assert_eq!(h, BinaryHypervector::zeros(130));
    }

    #[test]
    fn codebook_dimensions_match_config() {
        let enc = RecordEncoder::new(&config(1000), 5);
        assert_eq!(enc.dim(), 1000);
        assert_eq!(enc.features(), 5);
        assert_eq!(enc.bases.len(), 5);
        assert!(enc.bases.iter().all(|b| b.dim() == 1000));
    }
}
