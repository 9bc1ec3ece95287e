//! Parallel batched inference engine.
//!
//! RobustHD's serving hot path — Hamming distance of a query against every
//! class hypervector — is embarrassingly parallel across queries, classes,
//! and 64-bit words. [`BatchEngine`] exploits the query axis: a batch is
//! split into fixed-size shards and scoped `std::thread` workers claim
//! shards from a shared atomic counter, each computing its queries against
//! a class-major packed copy of the model
//! ([`hypervector::similarity::PackedClasses`]).
//!
//! **Results are bit-identical to the sequential path by construction**,
//! not by tolerance:
//!
//! * per-query work is read-only on the model and independent of every
//!   other query, so shard assignment cannot influence any result;
//! * each result is written at its query's position, so worker scheduling
//!   cannot influence output order;
//! * distances are exact integer popcounts over the same packed words, and
//!   the float pipeline (similarity → sharpened softmax → margin) evaluates
//!   the same expressions in the same order as
//!   [`TrainedModel::similarities`] + [`Confidence::from_similarities`].
//!
//! The differential suite (`tests/batch_differential.rs`) enforces this
//! across thread counts, shard sizes, and degraded model states.
//!
//! Anything RNG-driven — probabilistic substitution, majority voting —
//! stays strictly sequential in the [`crate::recovery::RecoveryEngine`];
//! only the read-only parts (prediction, confidence, chunk-fault
//! localization) route through the engine.

use crate::confidence::Confidence;
use crate::config::BatchConfig;
use crate::encoding::Encoder;
use crate::model::{argmin_first, TrainedModel};
use hypervector::similarity::{chunked_hamming, chunked_hamming_into};
use hypervector::tier::hamming_words;
use hypervector::BinaryHypervector;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Everything the serving loop needs about one query, computed from a
/// single pass over the class distances.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchScore {
    /// Predicted label, with [`TrainedModel::predict`]'s tie-break (ties
    /// resolve to the lowest label).
    pub predicted: usize,
    /// The confidence assessment, bit-identical to
    /// [`Confidence::evaluate`] on the same query.
    pub confidence: Confidence,
}

/// Result of chunk-fault localization for one query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultScan {
    /// Indices of chunks where another class beats the predicted class by
    /// more than the statistical margin.
    pub faulty: Vec<usize>,
    /// Number of non-empty chunks examined.
    pub inspected: usize,
}

/// Bit range `[start, end)` of chunk `index` when a `dim`-bit vector is
/// split into `chunks` spans, splitting as evenly as integer arithmetic
/// allows. More chunks than dimensions yields empty ranges.
pub fn chunk_bounds(dim: usize, chunks: usize, index: usize) -> (usize, usize) {
    (index * dim / chunks, (index + 1) * dim / chunks)
}

/// The statistical margin of a `len`-bit chunk: `round(fault_margin ·
/// √len)` bits. A rival must beat the predicted class on the chunk by more
/// than this for [`chunk_is_faulty`] to flag it.
pub(crate) fn margin_bits(fault_margin: f64, len: usize) -> usize {
    hypervector::cast::round_to_usize(fault_margin * (len as f64).sqrt())
}

/// The §4.2 fault rule for one non-empty chunk: the closest rival's chunk
/// distance plus the margin is still below the predicted class's.
///
/// `saturating_add` keeps the `usize::MAX` "no rival" sentinel of a
/// single-class model out of overflow; real distances are at most the
/// dimension, far from saturation.
pub(crate) fn chunk_is_faulty(predicted: usize, rival_best: usize, margin_bits: usize) -> bool {
    rival_best.saturating_add(margin_bits) < predicted
}

/// Chunk-fault localization (§4.2 of the paper): a chunk is faulty when
/// some other class beats the predicted class on that chunk by more than
/// `fault_margin * sqrt(d)` bits.
///
/// This is the straightforward form, kept as the oracle of the
/// [`crate::recovery::RecoveryEngine`]'s fused pass
/// (`RecoveryEngine::observe_reference` runs it): every call splits each
/// class with the fused
/// [`chunked_hamming`](hypervector::similarity::chunked_hamming) kernel (one
/// XOR pass per class instead of one per class×chunk) and works out each
/// chunk's margin again. The decision itself ([`chunk_is_faulty`]) is the
/// one copy of the rule both paths share.
///
/// # Panics
///
/// Panics if the query dimension differs from the model's, `predicted` is
/// out of range, or `chunks` is zero.
pub fn scan_chunk_faults(
    model: &TrainedModel,
    query: &BinaryHypervector,
    predicted: usize,
    chunks: usize,
    fault_margin: f64,
) -> FaultScan {
    assert!(chunks > 0, "need at least one chunk");
    let dim = model.dim();
    let predicted_dists = chunked_hamming(model.class(predicted), query, chunks);
    // Stream the rivals through one reused scratch buffer, folding them
    // into the per-chunk best (minimum) rival distance: "some rival beats
    // the predicted class by more than the margin" depends only on the
    // closest rival, so this is decision-identical to keeping every
    // rival's distances.
    let mut rival_best = vec![usize::MAX; chunks];
    let mut scratch = Vec::with_capacity(chunks);
    for c in (0..model.num_classes()).filter(|&c| c != predicted) {
        chunked_hamming_into(model.class(c), query, chunks, &mut scratch);
        for (best, &d) in rival_best.iter_mut().zip(&scratch) {
            *best = (*best).min(d);
        }
    }
    let mut faulty = Vec::new();
    let mut inspected = 0usize;
    for chunk in 0..chunks {
        let (start, end) = chunk_bounds(dim, chunks, chunk);
        if start == end {
            continue;
        }
        inspected += 1;
        let margin = margin_bits(fault_margin, end - start);
        // audit:allow(panic): predicted_dists and rival_best have one entry per chunk
        if chunk_is_faulty(predicted_dists[chunk], rival_best[chunk], margin) {
            faulty.push(chunk);
        }
    }
    FaultScan { faulty, inspected }
}

/// Similarity derived from a Hamming distance exactly as
/// [`hypervector::BinaryHypervector::similarity`] computes it.
pub(crate) fn similarity_from_distance(distance: usize, dim: usize) -> f64 {
    if dim == 0 {
        1.0
    } else {
        1.0 - distance as f64 / dim as f64
    }
}

/// [`similarity_from_distance`] for every class, in class order, into
/// `out` (cleared first) — the float inputs
/// [`Confidence::from_similarities`] expects, in a buffer reused across a
/// shard's queries.
fn similarities_from_distances(distances: &[usize], dim: usize, out: &mut Vec<f64>) {
    out.clear();
    out.extend(distances.iter().map(|&d| similarity_from_distance(d, dim)));
}

/// `(predicted, margin)` from one query's class distances, bit-identical
/// to [`BatchScore::predicted`] and [`Confidence::margin`] of the same
/// distances. The similarity is non-increasing in the distance, so the two
/// highest similarities are those of the two lowest distances: the argmin
/// and the lowest distance among the other classes.
///
/// This is what the supervisor's canary probe reads of each canary.
pub fn predicted_margin(distances: &[usize], dim: usize) -> (usize, f64) {
    let predicted = argmin_first(distances);
    let runner_up = distances
        .iter()
        .enumerate()
        .filter(|&(c, _)| c != predicted)
        .map(|(_, &d)| d)
        .min();
    let margin = runner_up.map_or(0.0, |d| {
        // audit:allow(panic): predicted is an index of distances
        similarity_from_distance(distances[predicted], dim) - similarity_from_distance(d, dim)
    });
    (predicted, margin)
}

/// The parallel batched inference engine.
///
/// # Example
///
/// ```
/// use hypervector::random::HypervectorSampler;
/// use robusthd::{BatchConfig, BatchEngine, TrainedModel};
///
/// let mut sampler = HypervectorSampler::seed_from(3);
/// let classes: Vec<_> = (0..4).map(|_| sampler.binary(2048)).collect();
/// let queries: Vec<_> = (0..100)
///     .map(|i| sampler.flip_noise(&classes[i % 4], 0.2))
///     .collect();
/// let model = TrainedModel::from_classes(classes);
///
/// let engine = BatchEngine::new(BatchConfig::builder().threads(4).build()?);
/// let batched = engine.predict_batch(&model, &queries);
/// let sequential: Vec<_> = queries.iter().map(|q| model.predict(q)).collect();
/// assert_eq!(batched, sequential);
/// # Ok::<(), robusthd::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct BatchEngine {
    config: BatchConfig,
}

impl BatchEngine {
    /// Creates an engine with the given tuning.
    pub fn new(config: BatchConfig) -> Self {
        Self { config }
    }

    /// Creates an engine tuned from the environment
    /// ([`BatchConfig::from_env`], honouring `ROBUSTHD_THREADS`), and
    /// installs the process-wide kernel tier from `ROBUSTHD_KERNEL_TIER`
    /// ([`crate::config::KernelConfig::from_env`]). Tier installation is
    /// first-caller-wins and results are bit-identical across tiers, so the
    /// ordering relative to other engines is immaterial.
    pub fn from_env() -> Self {
        crate::config::KernelConfig::from_env().install();
        Self::new(BatchConfig::from_env())
    }

    /// The engine's tuning.
    pub fn config(&self) -> &BatchConfig {
        &self.config
    }

    /// Replaces the engine's tuning (results are unaffected; see the module
    /// docs).
    pub fn set_config(&mut self, config: BatchConfig) {
        self.config = config;
    }

    /// Applies a pure per-shard function to `inputs`, fanned out across the
    /// configured worker threads, and returns the per-item results in input
    /// order.
    ///
    /// `f` maps one shard (a slice of consecutive inputs) to its results
    /// (the same number per input) and may keep per-shard scratch. Workers
    /// claim shard indices from an atomic counter; each shard's results are
    /// placed by shard index, so scheduling cannot reorder or alter
    /// anything. With one thread (or one shard's worth of work) everything
    /// runs inline on the caller's thread.
    fn map_shards<Q, R, F>(&self, inputs: &[Q], f: F) -> Vec<R>
    where
        Q: Sync,
        R: Send,
        F: Fn(&[Q]) -> Vec<R> + Sync,
    {
        let shard_size = self.config.shard_size;
        let num_shards = inputs.len().div_ceil(shard_size);
        let threads = self.config.threads.min(num_shards);
        if threads <= 1 {
            let mut out = Vec::with_capacity(inputs.len());
            for shard in inputs.chunks(shard_size) {
                out.extend(f(shard));
            }
            return out;
        }

        let next = AtomicUsize::new(0);
        let mut by_shard: Vec<(usize, Vec<R>)> = Vec::with_capacity(num_shards);
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local = Vec::new();
                        loop {
                            let shard = next.fetch_add(1, Ordering::Relaxed);
                            if shard >= num_shards {
                                break;
                            }
                            let lo = shard * shard_size;
                            let hi = (lo + shard_size).min(inputs.len());
                            local.push((shard, f(&inputs[lo..hi]))); // audit:allow(panic): hi is clamped to inputs.len()
                        }
                        local
                    })
                })
                .collect();
            for worker in workers {
                // Re-raise a worker panic on the caller's thread instead of
                // `expect`ing: the original payload and message survive.
                by_shard.extend(
                    worker
                        .join()
                        .unwrap_or_else(|payload| std::panic::resume_unwind(payload)),
                );
            }
        });
        by_shard.sort_unstable_by_key(|(shard, _)| *shard);
        by_shard
            .into_iter()
            .flat_map(|(_, results)| results)
            .collect()
    }

    /// Folds `inputs` into per-worker partial states, fanned out across the
    /// configured worker threads, and returns the states in worker-index
    /// order.
    ///
    /// Each worker starts from `init()` and calls `fold(&mut state, shard)`
    /// for every shard it claims from the shared atomic counter. Which
    /// shards land in which state is scheduling-dependent, so this is only
    /// deterministic for *commutative, associative* folds (integer
    /// accumulation, counting) whose merged total is independent of the
    /// partition — exactly the shape of one-shot bundling in
    /// [`crate::train`]. With one thread (or at most one shard of work)
    /// everything runs inline and a single state is returned.
    pub fn fold_shards<Q, S, I, F>(&self, inputs: &[Q], init: I, fold: F) -> Vec<S>
    where
        Q: Sync,
        S: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, &[Q]) + Sync,
    {
        let shard_size = self.config.shard_size;
        let num_shards = inputs.len().div_ceil(shard_size);
        let threads = self.config.threads.min(num_shards);
        if threads <= 1 {
            let mut state = init();
            for shard in inputs.chunks(shard_size) {
                fold(&mut state, shard);
            }
            return vec![state];
        }

        let next = AtomicUsize::new(0);
        let mut states: Vec<S> = Vec::with_capacity(threads);
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut state = init();
                        loop {
                            let shard = next.fetch_add(1, Ordering::Relaxed);
                            if shard >= num_shards {
                                break;
                            }
                            let lo = shard * shard_size;
                            let hi = (lo + shard_size).min(inputs.len());
                            fold(&mut state, &inputs[lo..hi]);
                        }
                        state
                    })
                })
                .collect();
            for worker in workers {
                states.push(
                    worker
                        .join()
                        .unwrap_or_else(|payload| std::panic::resume_unwind(payload)),
                );
            }
        });
        states
    }

    /// Predicted label for every query, bit-identical to calling
    /// [`TrainedModel::predict`] per query (ties resolve to the lowest
    /// label).
    ///
    /// # Panics
    ///
    /// Panics if any query dimension differs from the model's.
    pub fn predict_batch(&self, model: &TrainedModel, queries: &[BinaryHypervector]) -> Vec<usize> {
        let packed = model.packed();
        self.map_shards(queries, |shard| {
            let mut distances = Vec::new();
            shard
                .iter()
                .map(|query| {
                    packed.hamming_all_into(query, &mut distances);
                    argmin_first(&distances)
                })
                .collect()
        })
    }

    /// Prediction plus confidence for every query: `predicted` is
    /// bit-identical to [`TrainedModel::predict`], `confidence` to
    /// [`Confidence::evaluate`], both computed from one distance pass per
    /// query.
    ///
    /// # Panics
    ///
    /// Panics if any query dimension differs from the model's, or `beta` is
    /// not positive and finite.
    pub fn evaluate_batch(
        &self,
        model: &TrainedModel,
        queries: &[BinaryHypervector],
        beta: f64,
    ) -> Vec<BatchScore> {
        let packed = model.packed();
        let dim = model.dim();
        self.map_shards(queries, |shard| {
            let (mut distances, mut similarities) = (Vec::new(), Vec::new());
            shard
                .iter()
                .map(|query| {
                    packed.hamming_all_into(query, &mut distances);
                    similarities_from_distances(&distances, dim, &mut similarities);
                    BatchScore {
                        predicted: argmin_first(&distances),
                        confidence: Confidence::from_similarities(&similarities, beta),
                    }
                })
                .collect()
        })
    }

    /// Hamming distance of every query to each packed class row in `rows`,
    /// query-major: query 0's distances in `rows` order, then query 1's,
    /// and so on. Each distance is the active tier's
    /// [`hamming_words`](hypervector::tier::hamming_words) over the row and
    /// the query words, exactly the integer the full scoring pass computes.
    /// Queries are sharded across the worker threads with by-index
    /// placement, so the result is the same at every tuning.
    ///
    /// This is the supervisor's canary re-score: `rows` are the classes
    /// whose words changed since its last probe.
    ///
    /// # Panics
    ///
    /// Panics if a row and a query differ in word count.
    pub fn row_distances(&self, rows: &[&[u64]], queries: &[BinaryHypervector]) -> Vec<usize> {
        let tier = hypervector::tier::active();
        self.map_shards(queries, |shard| {
            shard
                .iter()
                .flat_map(|query| {
                    rows.iter()
                        .map(|row| hamming_words(tier, row, query.bits().words()))
                })
                .collect()
        })
    }

    /// Encodes a batch of feature slices, sharded across the worker
    /// threads with index-stable placement — bit-identical to calling
    /// [`Encoder::encode`] per row, in row order.
    ///
    /// Encoding is deterministic and read-only on the encoder, so the
    /// bit-exactness argument in the module docs applies unchanged.
    ///
    /// # Panics
    ///
    /// Panics if any row's length differs from `encoder.features()`.
    pub fn encode_batch<E: Encoder + Sync + ?Sized>(
        &self,
        encoder: &E,
        batch: &[&[f64]],
    ) -> Vec<BinaryHypervector> {
        self.map_shards(batch, |shard| encoder.encode_batch_refs(shard))
    }

    /// Fused raw-features → prediction: each worker encodes a row and
    /// immediately scores it against the packed model, so no batch-wide
    /// `Vec<BinaryHypervector>` is ever materialized. Bit-identical to
    /// `model.predict(&encoder.encode(row))` per row, in row order.
    ///
    /// # Panics
    ///
    /// Panics if any row's length differs from `encoder.features()`, or the
    /// encoder dimension differs from the model's.
    pub fn predict_raw_batch<E: Encoder + Sync + ?Sized>(
        &self,
        encoder: &E,
        model: &TrainedModel,
        batch: &[&[f64]],
    ) -> Vec<usize> {
        let packed = model.packed();
        self.map_shards(batch, |shard| {
            let mut distances = Vec::new();
            shard
                .iter()
                .map(|row| {
                    let query = encoder.encode(row);
                    packed.hamming_all_into(&query, &mut distances);
                    argmin_first(&distances)
                })
                .collect()
        })
    }

    /// Fused raw-features → prediction + confidence, the raw-features
    /// analogue of [`BatchEngine::evaluate_batch`]. Bit-identical (down to
    /// `f64::to_bits`) to encoding each row and evaluating it sequentially.
    ///
    /// # Panics
    ///
    /// Panics if any row's length differs from `encoder.features()`, the
    /// encoder dimension differs from the model's, or `beta` is not
    /// positive and finite.
    pub fn evaluate_raw_batch<E: Encoder + Sync + ?Sized>(
        &self,
        encoder: &E,
        model: &TrainedModel,
        batch: &[&[f64]],
        beta: f64,
    ) -> Vec<BatchScore> {
        let packed = model.packed();
        let dim = model.dim();
        self.map_shards(batch, |shard| {
            let (mut distances, mut similarities) = (Vec::new(), Vec::new());
            shard
                .iter()
                .map(|features| {
                    let query = encoder.encode(features);
                    packed.hamming_all_into(&query, &mut distances);
                    similarities_from_distances(&distances, dim, &mut similarities);
                    BatchScore {
                        predicted: argmin_first(&distances),
                        confidence: Confidence::from_similarities(&similarities, beta),
                    }
                })
                .collect()
        })
    }
}

impl Default for BatchEngine {
    /// An engine tuned from the environment, like [`BatchEngine::from_env`].
    fn default() -> Self {
        Self::from_env()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HdcConfig;
    use hypervector::random::HypervectorSampler;

    const DIM: usize = 2048;

    fn setup(seed: u64, classes: usize, queries: usize) -> (TrainedModel, Vec<BinaryHypervector>) {
        let mut sampler = HypervectorSampler::seed_from(seed);
        let protos: Vec<_> = (0..classes).map(|_| sampler.binary(DIM)).collect();
        let qs: Vec<_> = (0..queries)
            .map(|i| sampler.flip_noise(&protos[i % classes], 0.25))
            .collect();
        (TrainedModel::from_classes(protos), qs)
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
    fn predictions_match_sequential_for_every_tuning() {
        let (model, queries) = setup(1, 5, 97);
        let sequential: Vec<_> = queries.iter().map(|q| model.predict(q)).collect();
        for threads in [1, 2, 4, 8] {
            for shard_size in [1, 7, 32, 200] {
                assert_eq!(
                    engine(threads, shard_size).predict_batch(&model, &queries),
                    sequential,
                    "threads={threads} shard={shard_size}"
                );
            }
        }
    }

    #[test]
    fn scores_match_sequential_bit_for_bit() {
        let (model, queries) = setup(2, 4, 61);
        let beta = HdcConfig::default().softmax_beta;
        for threads in [1, 4] {
            let scores = engine(threads, 8).evaluate_batch(&model, &queries, beta);
            for (query, score) in queries.iter().zip(&scores) {
                let reference = Confidence::evaluate(&model, query, beta);
                assert_eq!(score.confidence, reference);
                assert_eq!(
                    score.confidence.confidence.to_bits(),
                    reference.confidence.to_bits()
                );
                assert_eq!(score.predicted, model.predict(query));
            }
        }
    }

    #[test]
    fn argmin_breaks_ties_to_first() {
        assert_eq!(argmin_first(&[3, 1, 1, 2]), 1);
        assert_eq!(argmin_first(&[0, 0]), 0);
        assert_eq!(argmin_first(&[9]), 0);
    }

    #[test]
    fn empty_batch_yields_empty_results() {
        let (model, _) = setup(3, 2, 0);
        assert!(engine(4, 8).predict_batch(&model, &[]).is_empty());
        assert!(engine(4, 8).evaluate_batch(&model, &[], 64.0).is_empty());
    }

    #[test]
    fn fault_scan_matches_chunk_arithmetic() {
        let (mut model, queries) = setup(4, 3, 30);
        // Annihilate chunk 5 of class 0 so class-0 queries flag it.
        let m = 16;
        let (start, end) = chunk_bounds(DIM, m, 5);
        for i in start..end {
            model.class_mut(0).flip(i);
        }
        let query = &queries[0];
        assert_eq!(model.predict(query), 0);
        let scan = scan_chunk_faults(&model, query, 0, m, 1.0);
        assert_eq!(scan.inspected, m);
        assert!(scan.faulty.contains(&5), "faulty: {:?}", scan.faulty);
    }

    #[test]
    fn more_chunks_than_dimensions_is_tolerated() {
        let (model, queries) = setup(6, 2, 4);
        let scan = scan_chunk_faults(&model, &queries[0], 0, 3 * DIM, 1.0);
        assert_eq!(scan.inspected, DIM, "empty chunks are skipped");
    }

    #[test]
    fn raw_batch_paths_match_encode_then_score() {
        use crate::encoding::{Encoder, RecordEncoder};
        let cfg = HdcConfig::builder()
            .dimension(1000)
            .seed(11)
            .build()
            .expect("valid");
        let encoder = RecordEncoder::new(&cfg, 6);
        let rows: Vec<Vec<f64>> = (0..37)
            .map(|i| {
                (0..6)
                    .map(|k| ((i * 7 + k * 3) % 10) as f64 / 9.0)
                    .collect()
            })
            .collect();
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let encoded: Vec<_> = refs.iter().map(|r| encoder.encode(r)).collect();
        let model = TrainedModel::from_classes(encoded[..3].to_vec());
        let beta = HdcConfig::default().softmax_beta;

        let seq_pred: Vec<_> = encoded.iter().map(|q| model.predict(q)).collect();
        let seq_scores: Vec<_> = encoded
            .iter()
            .map(|q| Confidence::evaluate(&model, q, beta))
            .collect();

        for threads in [1, 4] {
            let eng = engine(threads, 5);
            assert_eq!(eng.encode_batch(&encoder, &refs), encoded);
            assert_eq!(eng.predict_raw_batch(&encoder, &model, &refs), seq_pred);
            let scores = eng.evaluate_raw_batch(&encoder, &model, &refs, beta);
            for (score, reference) in scores.iter().zip(&seq_scores) {
                assert_eq!(score.confidence, *reference);
                assert_eq!(
                    score.confidence.confidence.to_bits(),
                    reference.confidence.to_bits()
                );
            }
        }
    }

    #[test]
    fn fold_shards_totals_are_partition_independent() {
        let inputs: Vec<u64> = (1..=1000).collect();
        let expected: u64 = inputs.iter().sum();
        for threads in [1, 2, 4, 8] {
            for shard_size in [1, 7, 32, 2000] {
                let partials = engine(threads, shard_size).fold_shards(
                    &inputs,
                    || 0u64,
                    |state, shard| *state += shard.iter().sum::<u64>(),
                );
                assert!(partials.len() <= threads.max(1));
                assert_eq!(
                    partials.iter().sum::<u64>(),
                    expected,
                    "threads={threads} shard={shard_size}"
                );
            }
        }
    }

    #[test]
    fn fold_shards_on_empty_input_returns_one_untouched_state() {
        let partials = engine(4, 8).fold_shards(&[] as &[u64], || 7u64, |_, _| unreachable!());
        assert_eq!(partials, vec![7]);
    }

    #[test]
    fn threads_beyond_shards_are_harmless() {
        let (model, queries) = setup(7, 3, 5);
        let sequential: Vec<_> = queries.iter().map(|q| model.predict(q)).collect();
        assert_eq!(
            engine(64, 2).predict_batch(&model, &queries),
            sequential,
            "more threads than shards"
        );
    }
}
