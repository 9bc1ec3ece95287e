//! Class-hypervector models: one-shot bundling, retraining, prediction, and
//! the raw memory image that fault injection targets.

use crate::batch::BatchEngine;
use crate::config::HdcConfig;
use hypervector::similarity::PackedClasses;
use hypervector::{BinaryHypervector, BundleAccumulator, IntHypervector, PackedBits, Precision};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::OnceLock;

/// A trained binary HDC model: one class hypervector per label.
///
/// This is the model RobustHD deploys — the paper always uses the binary
/// (1-bit) model in production because it maximizes robustness (§3.2).
///
/// The model exposes its packed memory image
/// ([`TrainedModel::to_memory_image`] /
/// [`TrainedModel::load_memory_image`]) so fault injectors can attack the
/// stored bits exactly as a memory attack would.
///
/// # Example
///
/// ```
/// use hypervector::random::HypervectorSampler;
/// use robusthd::{HdcConfig, TrainedModel};
///
/// // Two well-separated synthetic classes in hyperspace.
/// let mut sampler = HypervectorSampler::seed_from(1);
/// let protos = [sampler.binary(2048), sampler.binary(2048)];
/// let mut encoded = Vec::new();
/// let mut labels = Vec::new();
/// for i in 0..40 {
///     let class = i % 2;
///     encoded.push(sampler.flip_noise(&protos[class], 0.15));
///     labels.push(class);
/// }
/// let config = HdcConfig::builder().dimension(2048).build()?;
/// let model = TrainedModel::train(&encoded, &labels, 2, &config);
/// assert_eq!(model.predict(&encoded[0]), 0);
/// assert_eq!(model.predict(&encoded[1]), 1);
/// # Ok::<(), robusthd::ConfigError>(())
/// ```
#[derive(Clone, Serialize, Deserialize)]
pub struct TrainedModel {
    classes: Vec<BinaryHypervector>,
    dim: usize,
    /// Lazily built class-major packed copy of the model, shared by
    /// [`TrainedModel::predict`] / [`TrainedModel::similarities`] and the
    /// batch engine's scoring paths. Dropped whenever a class mutates
    /// ([`TrainedModel::class_mut`], [`TrainedModel::load_memory_image`])
    /// and never serialized — the stored form stays `classes` + `dim`.
    #[serde(skip)]
    packed: OnceLock<PackedClasses>,
}

impl PartialEq for TrainedModel {
    fn eq(&self, other: &Self) -> bool {
        // The packed cache is derived state; equality is the classes.
        self.classes == other.classes && self.dim == other.dim
    }
}

impl Eq for TrainedModel {}

impl fmt::Debug for TrainedModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TrainedModel")
            .field("classes", &self.classes)
            .field("dim", &self.dim)
            .finish()
    }
}

impl TrainedModel {
    /// Trains a binary model: one-shot bundling of every encoded sample into
    /// its class accumulator, followed by `config.retrain_epochs` perceptron
    /// passes (mispredicted samples are added to their true class and
    /// subtracted from the predicted one).
    ///
    /// Runs through the parallel bit-sliced training engine
    /// ([`crate::train`]) configured from the environment
    /// (`ROBUSTHD_THREADS`); the result is bit-identical at any setting.
    ///
    /// # Panics
    ///
    /// Panics if the inputs are empty, lengths differ, a label is out of
    /// range, or an encoded vector has the wrong dimension.
    pub fn train(
        encoded: &[BinaryHypervector],
        labels: &[usize],
        num_classes: usize,
        config: &HdcConfig,
    ) -> Self {
        Self::train_with(
            encoded,
            labels,
            num_classes,
            config,
            &BatchEngine::from_env(),
        )
    }

    /// [`TrainedModel::train`] with an explicit batch engine — the entry
    /// point for callers that already hold an engine (the pipeline) and
    /// for differential tests pinning thread counts.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`TrainedModel::train`].
    pub fn train_with(
        encoded: &[BinaryHypervector],
        labels: &[usize],
        num_classes: usize,
        config: &HdcConfig,
        engine: &BatchEngine,
    ) -> Self {
        let accumulators =
            crate::train::train_accumulators(encoded, labels, num_classes, config, engine);
        Self::from_accumulators(&accumulators)
    }

    /// Thresholds trained accumulators into a binary model.
    ///
    /// # Panics
    ///
    /// Panics if `accumulators` is empty.
    pub fn from_accumulators(accumulators: &[BundleAccumulator]) -> Self {
        assert!(!accumulators.is_empty(), "need at least one class");
        let classes: Vec<BinaryHypervector> = accumulators.iter().map(|a| a.to_binary()).collect();
        let dim = classes[0].dim();
        Self {
            classes,
            dim,
            packed: OnceLock::new(),
        }
    }

    /// Builds a model directly from class hypervectors.
    ///
    /// # Panics
    ///
    /// Panics if `classes` is empty or dimensions are inconsistent.
    pub fn from_classes(classes: Vec<BinaryHypervector>) -> Self {
        assert!(!classes.is_empty(), "need at least one class");
        let dim = classes[0].dim(); // audit:allow(panic): non-emptiness asserted above
        assert!(
            classes.iter().all(|c| c.dim() == dim),
            "class hypervectors must share one dimension"
        );
        Self {
            classes,
            dim,
            packed: OnceLock::new(),
        }
    }

    /// Hypervector dimensionality `D`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of classes `k`.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// All class hypervectors.
    pub fn classes(&self) -> &[BinaryHypervector] {
        &self.classes
    }

    /// One class hypervector.
    ///
    /// # Panics
    ///
    /// Panics if `label` is out of range.
    pub fn class(&self, label: usize) -> &BinaryHypervector {
        &self.classes[label] // audit:allow(panic): documented panic: label out of range
    }

    /// Mutable access to one class hypervector (used by the recovery engine
    /// and by direct fault injection).
    ///
    /// # Panics
    ///
    /// Panics if `label` is out of range.
    pub fn class_mut(&mut self, label: usize) -> &mut BinaryHypervector {
        // The caller may rewrite stored bits; the packed scoring copy is
        // stale the moment they do.
        self.packed.take();
        &mut self.classes[label] // audit:allow(panic): documented panic: label out of range
    }

    /// The class-major packed copy of the model used by the fused scoring
    /// kernel ([`PackedClasses::hamming_all_into`]), built on first use and
    /// cached until a class mutates.
    pub fn packed(&self) -> &PackedClasses {
        self.packed
            .get_or_init(|| PackedClasses::from_classes(&self.classes))
    }

    /// Normalized similarity of `query` to every class, in class order —
    /// computed from one fused pass over the packed classes, with the same
    /// float expression as [`BinaryHypervector::similarity`].
    ///
    /// # Panics
    ///
    /// Panics if the query dimension differs from the model's.
    pub fn similarities(&self, query: &BinaryHypervector) -> Vec<f64> {
        let mut distances = Vec::with_capacity(self.classes.len());
        self.packed().hamming_all_into(query, &mut distances);
        distances
            .iter()
            .map(|&d| {
                if self.dim == 0 {
                    1.0
                } else {
                    1.0 - d as f64 / self.dim as f64
                }
            })
            .collect()
    }

    /// Predicted label: the class with the highest Hamming similarity (ties
    /// resolve to the lowest label), scored through the fused
    /// [`PackedClasses::hamming_all_into`] kernel.
    ///
    /// # Panics
    ///
    /// Panics if the query dimension differs from the model's.
    pub fn predict(&self, query: &BinaryHypervector) -> usize {
        let mut distances = Vec::with_capacity(self.classes.len());
        self.packed().hamming_all_into(query, &mut distances);
        argmin_first(&distances)
    }

    /// Serializes the model into its stored form: the bit-concatenation of
    /// all class hypervectors (`k × D` bits). This is the image a memory
    /// attack corrupts. Each class is spliced in with a word-level copy
    /// ([`PackedBits::write_bits`]), not bit by bit.
    pub fn to_memory_image(&self) -> PackedBits {
        let mut image = PackedBits::zeros(self.num_classes() * self.dim);
        for (c, class) in self.classes.iter().enumerate() {
            image.write_bits(c * self.dim, class.bits());
        }
        image
    }

    /// Replaces the model contents from a (possibly corrupted) memory image
    /// produced by [`TrainedModel::to_memory_image`], extracting each class
    /// with a word-level copy ([`PackedBits::extract_bits`]).
    ///
    /// # Panics
    ///
    /// Panics if the image size does not equal `num_classes × dim` bits.
    pub fn load_memory_image(&mut self, image: &PackedBits) {
        assert_eq!(
            image.len(),
            self.num_classes() * self.dim,
            "memory image has {} bits, expected {}",
            image.len(),
            self.num_classes() * self.dim
        );
        self.packed.take();
        for (c, class) in self.classes.iter_mut().enumerate() {
            *class = BinaryHypervector::from_bits(image.extract_bits(c * self.dim, self.dim));
        }
    }
}

/// First index of the minimum value — [`Iterator::min_by_key`]'s tie-break,
/// and therefore the lowest-label rule every prediction path shares.
pub(crate) fn argmin_first(distances: &[usize]) -> usize {
    let mut best = 0;
    for (i, &d) in distances.iter().enumerate().skip(1) {
        // audit:allow(panic): best is a prior index of the same slice
        if d < distances[best] {
            best = i;
        }
    }
    best
}

/// A low-precision integer HDC model (the 2-bit rows of Table 1).
///
/// Stores `b`-bit signed elements per dimension; similarity is the bipolar
/// dot product. Less robust than [`TrainedModel`] because a flip of a stored
/// high-order bit moves an element by a large magnitude.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IntModel {
    classes: Vec<IntHypervector>,
    dim: usize,
    precision: Precision,
}

impl IntModel {
    /// Trains an integer model at the given element precision using the same
    /// bundling + retraining procedure as [`TrainedModel::train`].
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`TrainedModel::train`].
    pub fn train(
        encoded: &[BinaryHypervector],
        labels: &[usize],
        num_classes: usize,
        config: &HdcConfig,
        precision: Precision,
    ) -> Self {
        Self::train_with(
            encoded,
            labels,
            num_classes,
            config,
            precision,
            &BatchEngine::from_env(),
        )
    }

    /// [`IntModel::train`] with an explicit batch engine (see
    /// [`TrainedModel::train_with`]).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`TrainedModel::train`].
    pub fn train_with(
        encoded: &[BinaryHypervector],
        labels: &[usize],
        num_classes: usize,
        config: &HdcConfig,
        precision: Precision,
        engine: &BatchEngine,
    ) -> Self {
        let accumulators =
            crate::train::train_accumulators(encoded, labels, num_classes, config, engine);
        let classes: Vec<IntHypervector> =
            accumulators.iter().map(|a| a.to_int(precision)).collect();
        let dim = classes[0].dim();
        Self {
            classes,
            dim,
            precision,
        }
    }

    /// Hypervector dimensionality `D`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Element precision.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// All class hypervectors.
    pub fn classes(&self) -> &[IntHypervector] {
        &self.classes
    }

    /// Predicted label by bipolar dot product (ties resolve to the lowest
    /// label).
    ///
    /// # Panics
    ///
    /// Panics if the query dimension differs from the model's.
    pub fn predict(&self, query: &BinaryHypervector) -> usize {
        self.classes
            .iter()
            .enumerate()
            .max_by_key(|(i, c)| (c.dot_binary(query), std::cmp::Reverse(*i)))
            .map(|(i, _)| i)
            .expect("model has at least one class") // audit:allow(panic): construction asserts at least one class
    }

    /// Serializes the model's stored form: `k × D × b` bits of packed
    /// `b`-bit fields, each class spliced in with a word-level copy
    /// ([`PackedBits::write_bits`]).
    pub fn to_memory_image(&self) -> PackedBits {
        let bits_per_class = self.dim * self.precision.bits() as usize;
        let mut image = PackedBits::zeros(self.num_classes() * bits_per_class);
        for (c, class) in self.classes.iter().enumerate() {
            image.write_bits(c * bits_per_class, &class.pack());
        }
        image
    }

    /// Replaces the model from a (possibly corrupted) image produced by
    /// [`IntModel::to_memory_image`], extracting each class's packed fields
    /// with a word-level copy ([`PackedBits::extract_bits`]).
    ///
    /// # Panics
    ///
    /// Panics if the image size does not match.
    pub fn load_memory_image(&mut self, image: &PackedBits) {
        let bits_per_class = self.dim * self.precision.bits() as usize;
        assert_eq!(
            image.len(),
            self.num_classes() * bits_per_class,
            "memory image size mismatch"
        );
        for (c, class) in self.classes.iter_mut().enumerate() {
            let packed = image.extract_bits(c * bits_per_class, bits_per_class);
            *class = IntHypervector::from_packed(&packed, self.dim, self.precision);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypervector::random::HypervectorSampler;

    /// Builds a toy hyperspace task: `k` noisy clusters around random
    /// prototypes.
    fn toy_task(
        k: usize,
        per_class: usize,
        dim: usize,
        noise: f64,
        seed: u64,
    ) -> (Vec<BinaryHypervector>, Vec<usize>) {
        let mut sampler = HypervectorSampler::seed_from(seed);
        let protos: Vec<_> = (0..k).map(|_| sampler.binary(dim)).collect();
        let mut encoded = Vec::new();
        let mut labels = Vec::new();
        for i in 0..k * per_class {
            let class = i % k;
            encoded.push(sampler.flip_noise(&protos[class], noise));
            labels.push(class);
        }
        (encoded, labels)
    }

    fn config(dim: usize) -> HdcConfig {
        HdcConfig::builder().dimension(dim).build().expect("valid")
    }

    #[test]
    fn one_shot_model_classifies_separable_task() {
        let (encoded, labels) = toy_task(4, 20, 4096, 0.2, 1);
        let cfg = HdcConfig::builder()
            .dimension(4096)
            .retrain_epochs(0)
            .build()
            .expect("valid");
        let model = TrainedModel::train(&encoded, &labels, 4, &cfg);
        let correct = encoded
            .iter()
            .zip(&labels)
            .filter(|(hv, &l)| model.predict(hv) == l)
            .count();
        assert_eq!(correct, encoded.len(), "separable task must be learned");
    }

    #[test]
    fn retraining_does_not_hurt() {
        let (encoded, labels) = toy_task(6, 15, 2048, 0.3, 2);
        let acc = |epochs: usize| {
            let cfg = HdcConfig::builder()
                .dimension(2048)
                .retrain_epochs(epochs)
                .build()
                .expect("valid");
            let model = TrainedModel::train(&encoded, &labels, 6, &cfg);
            encoded
                .iter()
                .zip(&labels)
                .filter(|(hv, &l)| model.predict(hv) == l)
                .count()
        };
        assert!(acc(3) >= acc(0));
    }

    #[test]
    fn memory_image_roundtrips() {
        let (encoded, labels) = toy_task(3, 10, 1000, 0.2, 3);
        let model = TrainedModel::train(&encoded, &labels, 3, &config(1000));
        let image = model.to_memory_image();
        assert_eq!(image.len(), 3000);
        let mut copy = model.clone();
        copy.load_memory_image(&image);
        assert_eq!(copy, model);
    }

    #[test]
    fn corrupted_image_changes_model() {
        let (encoded, labels) = toy_task(2, 10, 512, 0.2, 4);
        let model = TrainedModel::train(&encoded, &labels, 2, &config(512));
        let mut image = model.to_memory_image();
        image.flip(0);
        image.flip(700);
        let mut corrupted = model.clone();
        corrupted.load_memory_image(&image);
        assert_eq!(corrupted.class(0).hamming_distance(model.class(0)), 1);
        assert_eq!(corrupted.class(1).hamming_distance(model.class(1)), 1);
    }

    #[test]
    fn predict_breaks_ties_to_lowest_label() {
        let zero = BinaryHypervector::zeros(64);
        let model = TrainedModel::from_classes(vec![zero.clone(), zero.clone()]);
        assert_eq!(model.predict(&zero), 0);
    }

    #[test]
    fn fused_predict_ties_match_per_class_reference() {
        // Equidistant and duplicate classes: the fused kernel must keep
        // min_by_key's first-minimum tie-break exactly.
        let mut sampler = HypervectorSampler::seed_from(40);
        let a = sampler.binary(130);
        let classes = vec![a.clone(), a.clone(), sampler.binary(130), a.clone()];
        let model = TrainedModel::from_classes(classes.clone());
        for _ in 0..50 {
            let query = sampler.binary(130);
            let reference = classes
                .iter()
                .enumerate()
                .min_by_key(|(_, c)| c.hamming_distance(&query))
                .map(|(i, _)| i)
                .expect("nonempty");
            assert_eq!(model.predict(&query), reference);
        }
    }

    #[test]
    fn fused_similarities_match_per_class_reference_bitwise() {
        let (encoded, labels) = toy_task(4, 10, 193, 0.25, 41);
        let model = TrainedModel::train(&encoded, &labels, 4, &config(193));
        for hv in encoded.iter().take(10) {
            let fused = model.similarities(hv);
            let reference: Vec<f64> = model.classes().iter().map(|c| c.similarity(hv)).collect();
            assert_eq!(fused.len(), reference.len());
            for (f, r) in fused.iter().zip(&reference) {
                assert_eq!(f.to_bits(), r.to_bits());
            }
        }
    }

    #[test]
    fn packed_cache_invalidates_on_mutation() {
        let mut sampler = HypervectorSampler::seed_from(42);
        let classes: Vec<_> = (0..2).map(|_| sampler.binary(256)).collect();
        let query = classes[1].clone();
        let mut model = TrainedModel::from_classes(classes);
        assert_eq!(model.predict(&query), 1); // builds the packed cache
        *model.class_mut(0) = query.clone(); // must drop it
        assert_eq!(model.predict(&query), 0, "stale packed cache survived");
        let image =
            TrainedModel::from_classes(vec![query.clone(), sampler.binary(256)]).to_memory_image();
        model.load_memory_image(&image); // must drop it again
        assert_eq!(model.predict(&query), 0);
    }

    #[test]
    fn unaligned_memory_image_roundtrips_and_localizes_attacks() {
        // dim % 64 != 0 puts every class after the first at an unaligned
        // image offset — the hard case for the word-level splicing.
        let (encoded, labels) = toy_task(3, 8, 193, 0.2, 43);
        let model = TrainedModel::train(&encoded, &labels, 3, &config(193));
        let image = model.to_memory_image();
        assert_eq!(image.len(), 3 * 193);
        // The image must equal the bit-by-bit concatenation.
        for c in 0..3 {
            for i in 0..193 {
                assert_eq!(image.get(c * 193 + i), model.class(c).get(i), "c={c} i={i}");
            }
        }
        let mut copy = model.clone();
        copy.load_memory_image(&image);
        assert_eq!(copy, model);
        // An attacked bit lands in exactly the right class and dimension.
        let mut attacked = image.clone();
        attacked.flip(193 + 64); // class 1, dimension 64
        let mut corrupted = model.clone();
        corrupted.load_memory_image(&attacked);
        assert_eq!(corrupted.class(0), model.class(0));
        assert_eq!(corrupted.class(2), model.class(2));
        assert_eq!(corrupted.class(1).hamming_distance(model.class(1)), 1);
        assert_ne!(corrupted.class(1).get(64), model.class(1).get(64));
    }

    #[test]
    fn similarities_align_with_prediction() {
        let (encoded, labels) = toy_task(5, 10, 2048, 0.25, 5);
        let model = TrainedModel::train(&encoded, &labels, 5, &config(2048));
        for hv in encoded.iter().take(10) {
            let sims = model.similarities(hv);
            let argmax = sims
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
                .map(|(i, _)| i)
                .expect("nonempty");
            assert_eq!(model.predict(hv), argmax);
        }
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn training_on_empty_set_panics() {
        TrainedModel::train(&[], &[], 2, &config(64));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_label_panics() {
        let hv = BinaryHypervector::zeros(64);
        TrainedModel::train(&[hv], &[5], 2, &config(64));
    }

    #[test]
    fn int_model_learns_and_roundtrips_image() {
        let (encoded, labels) = toy_task(3, 15, 1024, 0.2, 6);
        let p = Precision::new(2).expect("valid");
        let model = IntModel::train(&encoded, &labels, 3, &config(1024), p);
        let correct = encoded
            .iter()
            .zip(&labels)
            .filter(|(hv, &l)| model.predict(hv) == l)
            .count();
        assert!(correct >= encoded.len() * 9 / 10);

        let image = model.to_memory_image();
        assert_eq!(image.len(), 3 * 1024 * 2);
        let mut copy = model.clone();
        copy.load_memory_image(&image);
        assert_eq!(copy, model);
    }

    #[test]
    fn int_model_msb_corruption_perturbs_elements() {
        let (encoded, labels) = toy_task(2, 10, 256, 0.2, 7);
        let p = Precision::new(4).expect("valid");
        let model = IntModel::train(&encoded, &labels, 2, &config(256), p);
        let mut image = model.to_memory_image();
        image.flip(3); // MSB of element 0 of class 0
        let mut corrupted = model.clone();
        corrupted.load_memory_image(&image);
        let delta = (corrupted.classes()[0].values()[0] - model.classes()[0].values()[0]).abs();
        assert_eq!(delta, 8, "MSB flip must move a 4-bit element by 2^3");
    }

    #[test]
    fn int_model_unaligned_image_roundtrips_and_localizes_attacks() {
        // 193 dims × 2 bits = 386 bits per class: every class boundary in
        // the image is unaligned.
        let (encoded, labels) = toy_task(3, 8, 193, 0.2, 44);
        let p = Precision::new(2).expect("valid");
        let model = IntModel::train(&encoded, &labels, 3, &config(193), p);
        let image = model.to_memory_image();
        assert_eq!(image.len(), 3 * 386);
        for (c, class) in model.classes().iter().enumerate() {
            let packed = class.pack();
            for i in 0..386 {
                assert_eq!(image.get(c * 386 + i), packed.get(i), "c={c} i={i}");
            }
        }
        let mut copy = model.clone();
        copy.load_memory_image(&image);
        assert_eq!(copy, model);
        let mut attacked = image.clone();
        attacked.flip(386 + 2); // class 1, element 1's low bit
        let mut corrupted = model.clone();
        corrupted.load_memory_image(&attacked);
        assert_eq!(corrupted.classes()[0], model.classes()[0]);
        assert_eq!(corrupted.classes()[2], model.classes()[2]);
        assert_ne!(corrupted.classes()[1], model.classes()[1]);
    }

    #[test]
    fn binary_and_int1_models_predict_identically() {
        let (encoded, labels) = toy_task(4, 10, 2048, 0.25, 8);
        let cfg = config(2048);
        let binary = TrainedModel::train(&encoded, &labels, 4, &cfg);
        let int1 = IntModel::train(&encoded, &labels, 4, &cfg, Precision::BINARY);
        for hv in encoded.iter().take(20) {
            assert_eq!(binary.predict(hv), int1.predict(hv));
        }
    }
}
