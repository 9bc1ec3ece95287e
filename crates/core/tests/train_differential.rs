//! Differential suite for the parallel bit-sliced training engine: the
//! fast path (`train_accumulators`) must equal the sequential scalar
//! oracle (`train_accumulators_reference`) **bit for bit** — not just
//! the thresholded model, but the raw `i64` accumulator counts — across
//! thread counts, shard sizes, retrain epochs, and dimensions straddling
//! word boundaries.
//!
//! This is what lets `ROBUSTHD_THREADS` be a pure throughput knob: the CI
//! matrix runs this whole suite under several `ROBUSTHD_THREADS` values
//! and every assertion must hold unchanged.

use hypervector::random::HypervectorSampler;
use hypervector::{BinaryHypervector, Precision};
use robusthd::train::{train_accumulators, train_accumulators_reference};
use robusthd::{BatchConfig, BatchEngine, HdcClassifier, HdcConfig, IntModel, TrainedModel};

/// Dimensions deliberately straddling 64-bit word boundaries.
const DIMS: &[usize] = &[127, 192, 193, 1000];

/// Builds a noisy clustered task; `noise` controls how separable it is.
fn toy_task(
    k: usize,
    n: usize,
    dim: usize,
    noise: f64,
    seed: u64,
) -> (Vec<BinaryHypervector>, Vec<usize>) {
    let mut sampler = HypervectorSampler::seed_from(seed);
    let protos: Vec<_> = (0..k).map(|_| sampler.binary(dim)).collect();
    let mut encoded = Vec::new();
    let mut labels = Vec::new();
    for i in 0..n {
        let class = i % k;
        encoded.push(sampler.flip_noise(&protos[class], noise));
        labels.push(class);
    }
    (encoded, labels)
}

fn config(dim: usize, epochs: usize, seed: u64) -> HdcConfig {
    HdcConfig::builder()
        .dimension(dim)
        .retrain_epochs(epochs)
        .seed(seed)
        .build()
        .expect("valid")
}

fn engine(threads: usize, shard_size: usize) -> BatchEngine {
    BatchEngine::new(
        BatchConfig::builder()
            .threads(threads)
            .shard_size(shard_size)
            .build()
            .expect("valid"),
    )
}

#[test]
fn accumulators_match_across_threads_epochs_and_dims() {
    for &dim in DIMS {
        // Hard task (high noise) so retraining epochs keep making mistakes
        // and the add/subtract path stays exercised.
        let (encoded, labels) = toy_task(4, 60, dim, 0.42, dim as u64);
        for epochs in [0usize, 1, 5] {
            let cfg = config(dim, epochs, 7);
            let reference = train_accumulators_reference(&encoded, &labels, 4, &cfg);
            for threads in [1usize, 2, 4, 8] {
                let fast = train_accumulators(&encoded, &labels, 4, &cfg, &engine(threads, 7));
                assert_eq!(
                    fast.len(),
                    reference.len(),
                    "dim={dim} epochs={epochs} threads={threads}"
                );
                for (c, (f, r)) in fast.iter().zip(&reference).enumerate() {
                    // Explicit raw-counter equality, then full equality
                    // (counts + added) through PartialEq.
                    assert_eq!(
                        f.counts(),
                        r.counts(),
                        "class {c} counts diverged: dim={dim} epochs={epochs} threads={threads}"
                    );
                    assert_eq!(
                        f, r,
                        "class {c} diverged: dim={dim} epochs={epochs} threads={threads}"
                    );
                }
            }
        }
    }
}

#[test]
fn trained_models_are_bit_identical() {
    for &dim in &[193usize, 1000] {
        let (encoded, labels) = toy_task(3, 45, dim, 0.4, 100 + dim as u64);
        for epochs in [0usize, 1, 5] {
            let cfg = config(dim, epochs, 3);
            let reference = TrainedModel::from_accumulators(&train_accumulators_reference(
                &encoded, &labels, 3, &cfg,
            ));
            for threads in [1usize, 4] {
                let fast =
                    TrainedModel::train_with(&encoded, &labels, 3, &cfg, &engine(threads, 8));
                assert_eq!(
                    fast, reference,
                    "dim={dim} epochs={epochs} threads={threads}"
                );
                for c in 0..3 {
                    assert_eq!(
                        fast.class(c).hamming_distance(reference.class(c)),
                        0,
                        "class {c} bits diverged"
                    );
                }
            }
        }
    }
}

#[test]
fn int_models_are_bit_identical() {
    let (encoded, labels) = toy_task(3, 36, 193, 0.4, 55);
    for &bits in &[1u8, 2, 4] {
        let p = Precision::new(bits).expect("valid");
        let cfg = config(193, 3, 9);
        let reference: Vec<_> = train_accumulators_reference(&encoded, &labels, 3, &cfg)
            .iter()
            .map(|a| a.to_int(p))
            .collect();
        for threads in [1usize, 4] {
            let fast = IntModel::train_with(&encoded, &labels, 3, &cfg, p, &engine(threads, 5));
            assert_eq!(fast.classes(), reference, "bits={bits} threads={threads}");
        }
    }
}

#[test]
fn epoch_early_exit_fires_identically_on_both_paths() {
    // A separable task converges: once an epoch has zero mistakes both
    // paths must stop updating, so any epoch budget at or past convergence
    // yields the same accumulators — on each path and across paths. If the
    // fast path's early-exit fired on a different epoch, the extra (or
    // missing) shuffles and updates would show up as diverging counts.
    let (encoded, labels) = toy_task(3, 30, 192, 0.08, 77);
    let budgets = [1usize, 5, 50];
    let mut per_budget = Vec::new();
    for &epochs in &budgets {
        let cfg = config(192, epochs, 13);
        let reference = train_accumulators_reference(&encoded, &labels, 3, &cfg);
        for threads in [1usize, 4] {
            let fast = train_accumulators(&encoded, &labels, 3, &cfg, &engine(threads, 4));
            assert_eq!(fast, reference, "epochs={epochs} threads={threads}");
        }
        per_budget.push(reference);
    }
    // Convergence before 5 epochs means budgets 5 and 50 are identical
    // (the early exit, not the budget, terminated training).
    assert_eq!(
        per_budget[1], per_budget[2],
        "early exit did not pin the result"
    );
}

#[test]
fn training_is_deterministic_across_engine_tunings() {
    // Thread count and shard size are pure throughput knobs for the fast
    // path: every tuning must produce the same accumulators.
    let (encoded, labels) = toy_task(5, 70, 257, 0.35, 31);
    let cfg = config(257, 2, 17);
    let baseline = train_accumulators(&encoded, &labels, 5, &cfg, &engine(1, 32));
    for threads in [2usize, 3, 8] {
        for shard in [1usize, 13, 64, 500] {
            let other = train_accumulators(&encoded, &labels, 5, &cfg, &engine(threads, shard));
            assert_eq!(other, baseline, "threads={threads} shard={shard}");
        }
    }
}

#[test]
fn pipeline_fit_matches_explicit_reference_train() {
    // End to end: HdcClassifier::fit (which routes through the engine
    // configured from the environment — the CI matrix varies
    // ROBUSTHD_THREADS over this very test) must equal an explicit
    // reference-oracle retrain of the same encodings.
    let train: Vec<(Vec<f64>, usize)> = (0..48)
        .map(|i| {
            let label = i % 3;
            let base = 0.15 + 0.3 * label as f64;
            let features = (0..6).map(|j| base + 0.01 * ((i + j) % 7) as f64).collect();
            (features, label)
        })
        .collect();
    let cfg = HdcConfig::builder()
        .dimension(1000)
        .retrain_epochs(2)
        .seed(5)
        .build()
        .expect("valid");
    let clf = HdcClassifier::fit(&cfg, &train);
    let rows: Vec<&[f64]> = train.iter().map(|(f, _)| f.as_slice()).collect();
    let encoded = engine(1, 32).encode_batch(clf.encoder(), &rows);
    let labels: Vec<usize> = train.iter().map(|(_, l)| *l).collect();
    let reference =
        TrainedModel::from_accumulators(&train_accumulators_reference(&encoded, &labels, 3, &cfg));
    assert_eq!(clf.model(), &reference);
}
