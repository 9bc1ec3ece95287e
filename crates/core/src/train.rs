//! Parallel bit-sliced training engine.
//!
//! Training a RobustHD model (paper §3) is one-shot bundling — add every
//! encoded sample into its class accumulator — followed by perceptron
//! retraining epochs that predict each sample against a *frozen* binary
//! snapshot of the accumulators and add/subtract mispredicted samples.
//! Both stages parallelize without changing a single bit:
//!
//! * **Bundling** is integer addition, which commutes: shard the samples
//!   across the [`BatchEngine`]'s scoped workers, let each worker fold its
//!   shards into per-class [`CarrySaveMajority`] bit-plane counters (a
//!   sample costs amortized `O(1)` word operations per 64 dimensions
//!   instead of 64 scalar counter updates), then fold every worker's
//!   planes back into the signed [`BundleAccumulator`] counters in
//!   worker-index order. Which worker claimed which shard is
//!   scheduling-dependent, but the merged totals are not — each class
//!   count is the same sum of the same terms.
//! * **Retraining** already predicts the whole epoch against a snapshot
//!   that never changes mid-epoch, so the epoch's predictions can be
//!   batch-scored in parallel through [`BatchEngine::predict_batch`]
//!   (itself bit-identical to sequential [`TrainedModel::predict`]); the
//!   add/subtract updates are then applied sequentially in shuffle order —
//!   identical mistakes, identical counts, identical early-exit, at any
//!   thread count. The shuffle RNG is consumed identically on both paths
//!   (one shuffle per epoch, drawn before the early-exit check).
//!
//! [`train_accumulators_reference`] keeps the sequential scalar trainer as
//! the oracle: the differential suite
//! (`crates/core/tests/train_differential.rs`) pins the two equal down to
//! the raw `i64` accumulator counts across thread counts, epochs, and
//! dimensions straddling word boundaries.

use crate::batch::BatchEngine;
use crate::config::HdcConfig;
use crate::model::TrainedModel;
use hypervector::{BinaryHypervector, BundleAccumulator, CarrySaveMajority};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Shared training core: one-shot bundling plus perceptron retraining over
/// the accumulators, through the parallel bit-sliced engine. The returned
/// accumulators are bit-identical to [`train_accumulators_reference`] at
/// any thread count.
///
/// Public so the differential suite can compare raw accumulator counts,
/// not just the thresholded models.
///
/// # Panics
///
/// Panics if the inputs are empty, lengths differ, a label is out of
/// range, or an encoded vector has the wrong dimension.
pub fn train_accumulators(
    encoded: &[BinaryHypervector],
    labels: &[usize],
    num_classes: usize,
    config: &HdcConfig,
    engine: &BatchEngine,
) -> Vec<BundleAccumulator> {
    let dim = check_inputs(encoded, labels, num_classes);
    let accumulators = bundle_sharded(encoded, labels, num_classes, dim, engine);
    // The snapshot is frozen for the whole epoch, so each sample's
    // prediction is independent of the epoch's updates: score the entire
    // epoch in parallel up front.
    retrain(accumulators, encoded, labels, config, |snapshot| {
        engine.predict_batch(snapshot, encoded)
    })
}

/// The sequential scalar reference trainer: one [`BundleAccumulator::add`]
/// per sample, then one [`TrainedModel::predict`] per sample per epoch.
/// The oracle [`train_accumulators`] is compared against.
///
/// # Panics
///
/// Same conditions as [`train_accumulators`].
pub fn train_accumulators_reference(
    encoded: &[BinaryHypervector],
    labels: &[usize],
    num_classes: usize,
    config: &HdcConfig,
) -> Vec<BundleAccumulator> {
    let dim = check_inputs(encoded, labels, num_classes);
    let accumulators = bundle_reference(encoded, labels, num_classes, dim);
    retrain(accumulators, encoded, labels, config, |snapshot| {
        encoded.iter().map(|hv| snapshot.predict(hv)).collect()
    })
}

/// Validates the training inputs and returns their common dimension.
fn check_inputs(encoded: &[BinaryHypervector], labels: &[usize], num_classes: usize) -> usize {
    assert!(!encoded.is_empty(), "training set must not be empty");
    assert_eq!(
        encoded.len(),
        labels.len(),
        "encoded samples and labels must align"
    );
    assert!(num_classes > 0, "need at least one class");
    let dim = encoded[0].dim();
    for (i, hv) in encoded.iter().enumerate() {
        assert_eq!(hv.dim(), dim, "sample {i} has dimension {}", hv.dim());
    }
    for (i, &l) in labels.iter().enumerate() {
        assert!(l < num_classes, "label {l} of sample {i} out of range");
    }
    dim
}

/// Perceptron-style retraining against a per-epoch binary snapshot:
/// `predict_epoch` scores every sample against the frozen snapshot, then
/// the add/subtract updates apply sequentially in the epoch's shuffle
/// order.
fn retrain(
    mut accumulators: Vec<BundleAccumulator>,
    encoded: &[BinaryHypervector],
    labels: &[usize],
    config: &HdcConfig,
    predict_epoch: impl Fn(&TrainedModel) -> Vec<usize>,
) -> Vec<BundleAccumulator> {
    let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(0x9e37_79b9));
    let mut order: Vec<usize> = (0..encoded.len()).collect();
    for _ in 0..config.retrain_epochs {
        let snapshot = TrainedModel::from_accumulators(&accumulators);
        order.shuffle(&mut rng);
        let predictions = predict_epoch(&snapshot);
        let mut mistakes = 0usize;
        for &idx in &order {
            let predicted = predictions[idx];
            let truth = labels[idx];
            if predicted != truth {
                accumulators[truth].add(&encoded[idx]);
                accumulators[predicted].subtract(&encoded[idx]);
                mistakes += 1;
            }
        }
        if mistakes == 0 {
            break;
        }
    }
    accumulators
}

/// The scalar reference bundling loop: one [`BundleAccumulator::add`] per
/// sample.
fn bundle_reference(
    encoded: &[BinaryHypervector],
    labels: &[usize],
    num_classes: usize,
    dim: usize,
) -> Vec<BundleAccumulator> {
    let mut accumulators: Vec<BundleAccumulator> = (0..num_classes)
        .map(|_| BundleAccumulator::new(dim))
        .collect();
    for (hv, &label) in encoded.iter().zip(labels) {
        accumulators[label].add(hv);
    }
    accumulators
}

/// Sharded carry-save bundling: per-worker bit-plane partials folded back
/// into signed counters in worker-index order. Counts are identical to
/// [`bundle_reference`] because bundling is commutative integer addition.
fn bundle_sharded(
    encoded: &[BinaryHypervector],
    labels: &[usize],
    num_classes: usize,
    dim: usize,
    engine: &BatchEngine,
) -> Vec<BundleAccumulator> {
    let items: Vec<(usize, &BinaryHypervector)> =
        labels.iter().copied().zip(encoded.iter()).collect();
    let partials = engine.fold_shards(
        &items,
        || -> Vec<CarrySaveMajority> {
            (0..num_classes)
                .map(|_| CarrySaveMajority::new(dim))
                .collect()
        },
        |state, shard| {
            for &(label, hv) in shard {
                state[label].add(hv);
            }
        },
    );
    let mut accumulators: Vec<BundleAccumulator> = (0..num_classes)
        .map(|_| BundleAccumulator::new(dim))
        .collect();
    for partial in &partials {
        for (accumulator, planes) in accumulators.iter_mut().zip(partial) {
            accumulator.absorb(planes);
        }
    }
    accumulators
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BatchConfig;
    use hypervector::random::HypervectorSampler;

    fn toy(k: usize, n: usize, dim: usize, seed: u64) -> (Vec<BinaryHypervector>, Vec<usize>) {
        let mut sampler = HypervectorSampler::seed_from(seed);
        let protos: Vec<_> = (0..k).map(|_| sampler.binary(dim)).collect();
        let mut encoded = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let class = i % k;
            encoded.push(sampler.flip_noise(&protos[class], 0.3));
            labels.push(class);
        }
        (encoded, labels)
    }

    #[test]
    fn fast_equals_reference_for_small_smoke() {
        let (encoded, labels) = toy(3, 50, 193, 21);
        let config = HdcConfig::builder()
            .dimension(193)
            .retrain_epochs(2)
            .build()
            .expect("valid");
        let reference = train_accumulators_reference(&encoded, &labels, 3, &config);
        for threads in [1, 4] {
            let engine = BatchEngine::new(
                BatchConfig::builder()
                    .threads(threads)
                    .shard_size(7)
                    .build()
                    .expect("valid"),
            );
            let fast = train_accumulators(&encoded, &labels, 3, &config, &engine);
            assert_eq!(fast, reference, "threads={threads}");
        }
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_training_set_panics() {
        train_accumulators(&[], &[], 1, &HdcConfig::default(), &BatchEngine::from_env());
    }
}
