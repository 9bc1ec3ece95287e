//! Adaptive neural recovery (§4 of the paper).
//!
//! The recovery framework consumes **unlabeled inference traffic** and uses
//! it to repair a class-hypervector model that is being corrupted in memory,
//! without any clean model copy and without training data:
//!
//! 1. Each query is classified; the softmax confidence of the prediction is
//!    compared against the trust threshold `T_C` ([`crate::confidence`]).
//! 2. For a trusted query, the query and the predicted class hypervector are
//!    split into `m` chunks. Each chunk votes independently: if the chunk of
//!    the predicted class is *not* the nearest among all classes' chunks,
//!    that chunk is flagged **faulty** — corrupted bits made it disagree
//!    with the global consensus.
//! 3. Faulty chunks are regenerated by *probabilistic substitution*: each
//!    class bit in the chunk is replaced by the query's bit with probability
//!    `S`. Because a trusted query is statistically aligned with the clean
//!    class vector, substitution pulls corrupted bits back toward their
//!    pre-attack majority values while leaving healthy bits mostly intact.

use crate::batch::{
    chunk_bounds, chunk_is_faulty, margin_bits, scan_chunk_faults, similarity_from_distance,
    FaultScan,
};
use crate::confidence::Confidence;
use crate::config::{RecoveryConfig, SubstitutionMode};
use crate::model::TrainedModel;
use hypervector::similarity::ChunkedHamming;
use hypervector::BinaryHypervector;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Counters accumulated across every query a [`RecoveryEngine`] observes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryStats {
    /// Total queries observed.
    pub samples_seen: usize,
    /// Queries whose prediction confidence cleared `T_C`.
    pub samples_trusted: usize,
    /// Chunks examined across all trusted queries.
    pub chunks_inspected: usize,
    /// Chunks flagged faulty.
    pub chunks_faulty: usize,
    /// Bit positions where substitution was applied (query bit copied in).
    pub bits_substituted: usize,
    /// Substituted positions whose stored value actually changed.
    pub bits_changed: usize,
}

impl RecoveryStats {
    /// Fraction of observed queries that were trusted.
    pub fn trust_rate(&self) -> f64 {
        if self.samples_seen == 0 {
            0.0
        } else {
            self.samples_trusted as f64 / self.samples_seen as f64
        }
    }

    /// Fraction of inspected chunks flagged faulty.
    pub fn fault_rate(&self) -> f64 {
        if self.chunks_inspected == 0 {
            0.0
        } else {
            self.chunks_faulty as f64 / self.chunks_inspected as f64
        }
    }
}

/// What the engine decided about a single query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Observation {
    /// The prediction and its confidence assessment.
    pub confidence: Confidence,
    /// Whether the prediction was trusted (and therefore used for repair).
    pub trusted: bool,
    /// Indices of chunks flagged faulty (empty when untrusted).
    pub faulty_chunks: Vec<usize>,
    /// Bits whose stored value changed during substitution.
    pub bits_changed: usize,
}

/// The runtime recovery engine of RobustHD.
///
/// # Example
///
/// End-to-end repair of an attacked model (small scale; Table 4 runs the
/// full version):
///
/// ```
/// use hypervector::random::HypervectorSampler;
/// use robusthd::{HdcConfig, RecoveryConfig, RecoveryEngine, TrainedModel};
///
/// # fn main() -> Result<(), robusthd::ConfigError> {
/// let dim = 4096;
/// let mut sampler = HypervectorSampler::seed_from(5);
/// // Correlated class prototypes, as encoded real data produces.
/// let common = sampler.binary(dim);
/// let protos = [sampler.flip_noise(&common, 0.1), sampler.flip_noise(&common, 0.1)];
/// let samples: Vec<_> = (0..60)
///     .map(|i| (sampler.flip_noise(&protos[i % 2], 0.08), i % 2))
///     .collect();
/// let encoded: Vec<_> = samples.iter().map(|(h, _)| h.clone()).collect();
/// let labels: Vec<_> = samples.iter().map(|(_, l)| *l).collect();
/// let config = HdcConfig::builder().dimension(dim).build()?;
/// let mut model = TrainedModel::train(&encoded, &labels, 2, &config);
///
/// // A memory attack wipes out one whole chunk of class 0 (bits 0..204).
/// let clean_class0 = model.class(0).clone();
/// for i in 0..dim / 20 {
///     model.class_mut(0).flip(i);
/// }
///
/// // Stream unlabeled queries through the recovery engine.
/// let recovery = RecoveryConfig::builder()
///     .substitution_rate(0.5)
///     .confidence_threshold(0.5)
///     .build()?;
/// let mut engine = RecoveryEngine::new(recovery, config.softmax_beta);
/// let before = model.class(0).hamming_distance(&clean_class0);
/// for _ in 0..3 {
///     for (query, _) in &samples {
///         engine.observe(&mut model, query);
///     }
/// }
/// let after = model.class(0).hamming_distance(&clean_class0);
/// assert!(after < before / 2, "recovery must repair the chunk: {after} !< {before}/2");
/// # Ok(())
/// # }
/// ```
pub struct RecoveryEngine {
    config: RecoveryConfig,
    softmax_beta: f64,
    rng: StdRng,
    stats: RecoveryStats,
    /// Per-(class, dimension) saturating vote counters, allocated lazily on
    /// first use when running in majority-counter mode.
    counters: Vec<Vec<i8>>,
    /// Per-word flip masks of the substitution in progress, reused across
    /// calls so substitution allocates nothing.
    flips: Vec<u64>,
    /// The runtime path's chunk split, margins and per-query buffers,
    /// built on first use and rebuilt when the split changes.
    fused: Option<FusedScan>,
}

/// Which implementation [`RecoveryEngine`] runs its RNG-driven steps with.
#[derive(Clone, Copy)]
enum Path {
    /// One fused pass for confidence and chunk faults, the vectorised
    /// vote and word-parallel substitution (the runtime path).
    Words,
    /// One bit at a time (the oracle).
    Bits,
}

impl RecoveryEngine {
    /// Creates an engine with the given recovery parameters and the
    /// confidence softmax temperature of the deployed model.
    ///
    /// # Panics
    ///
    /// Panics if `softmax_beta` is not positive and finite.
    pub fn new(config: RecoveryConfig, softmax_beta: f64) -> Self {
        assert!(
            softmax_beta.is_finite() && softmax_beta > 0.0,
            "softmax beta must be positive and finite"
        );
        let seed = config.seed;
        Self {
            config,
            softmax_beta,
            rng: StdRng::seed_from_u64(seed ^ SUBSTITUTION_SEED_MIX),
            stats: RecoveryStats::default(),
            counters: Vec::new(),
            flips: Vec::new(),
            fused: None,
        }
    }

    /// The engine's recovery parameters.
    pub fn config(&self) -> &RecoveryConfig {
        &self.config
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &RecoveryStats {
        &self.stats
    }

    /// Replaces the recovery parameters in place, preserving the accumulated
    /// statistics, the majority counters, and the substitution RNG stream.
    ///
    /// This is how the resilience supervisor walks its escalation ladder:
    /// the engine keeps everything it has learned from past traffic while
    /// `S`, `m`, and `T_C` move to the new operating point.
    pub fn reconfigure(&mut self, config: RecoveryConfig) {
        self.config = config;
    }

    /// Processes one unlabeled query: predicts, and if the prediction is
    /// trusted, detects faulty chunks and repairs them in `model`.
    ///
    /// One pass over `model.classes()` splits every class into its chunk
    /// distances to the query; their row sums give the confidence and the
    /// fault decision reads the same distances, so the model's packed
    /// scoring copy is never needed (nor rebuilt after a repair). Apart from
    /// the returned [`Observation`], a query allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if the query dimension differs from the model's.
    pub fn observe(&mut self, model: &mut TrainedModel, query: &BinaryHypervector) -> Observation {
        self.observe_on(Path::Words, model, query)
    }

    /// The per-bit reference form of [`RecoveryEngine::observe`]: every
    /// vote and substitution draws and decides one bit at a time. Consumes
    /// the same RNG stream and leaves the same model bits, counters and
    /// statistics as `observe`; kept as the oracle the recovery
    /// differential suite compares against.
    ///
    /// # Panics
    ///
    /// Panics if the query dimension differs from the model's.
    pub fn observe_reference(
        &mut self,
        model: &mut TrainedModel,
        query: &BinaryHypervector,
    ) -> Observation {
        self.observe_on(Path::Bits, model, query)
    }

    fn observe_on(
        &mut self,
        path: Path,
        model: &mut TrainedModel,
        query: &BinaryHypervector,
    ) -> Observation {
        assert_eq!(
            query.dim(),
            model.dim(),
            "query dimension {} does not match model {}",
            query.dim(),
            model.dim()
        );
        self.stats.samples_seen += 1;
        let confidence = match path {
            Path::Words => {
                let beta = self.softmax_beta;
                let scan = self.fused_scan(model.dim());
                scan.score(model, query);
                Confidence::from_similarities(&scan.similarities, beta)
            }
            Path::Bits => Confidence::evaluate(model, query, self.softmax_beta),
        };
        if !confidence.is_trusted(self.config.confidence_threshold) {
            return Observation {
                confidence,
                trusted: false,
                faulty_chunks: Vec::new(),
                bits_changed: 0,
            };
        }
        self.stats.samples_trusted += 1;
        let predicted = confidence.label;

        // Majority mode learns from *every* trusted query, unconditionally.
        // Gating the votes on fault detection would bias each chunk's
        // counters toward exactly the queries that disagree with it (the
        // flagged ones), creating an anti-centroid feedback loop; voting
        // unconditionally keeps the counters an unbiased majority of the
        // trusted traffic, while *writing* stays gated by detection.
        if let SubstitutionMode::MajorityCounter { saturation } = self.config.substitution {
            if self.counters.is_empty() {
                self.counters = vec![vec![0i8; model.dim()]; model.num_classes()];
            }
            match path {
                Path::Words => self.vote(predicted, query, saturation),
                Path::Bits => self.vote_per_bit(predicted, query, saturation),
            }
        }

        let faulty_chunks = self.detect_faulty_chunks(path, model, query, predicted);
        let mut substitute = |engine: &mut Self, start: usize, end: usize| match path {
            Path::Words => engine.substitute(model, predicted, query, start, end),
            Path::Bits => engine.substitute_per_bit(model, predicted, query, start, end),
        };
        let bits_changed = if self.config.faulty_chunks_only {
            let mut changed = 0;
            for &chunk in &faulty_chunks {
                let (start, end) = self.chunk_bounds(query.dim(), chunk);
                changed += substitute(self, start, end);
            }
            changed
        } else if faulty_chunks.is_empty() {
            0
        } else {
            // Whole-vector substitution (the pQ|(1-p)C form of §4.3),
            // triggered whenever any chunk disagrees.
            substitute(self, 0, query.dim())
        };
        self.stats.bits_changed += bits_changed;

        Observation {
            confidence,
            trusted: true,
            faulty_chunks,
            bits_changed,
        }
    }

    /// Streams a batch of unlabeled queries through
    /// [`RecoveryEngine::observe`], returning the number of bits changed in
    /// total.
    pub fn run_stream(&mut self, model: &mut TrainedModel, queries: &[BinaryHypervector]) -> usize {
        queries
            .iter()
            .map(|q| self.observe(model, q).bits_changed)
            .sum()
    }

    /// Bit range `[start, end)` of chunk `index` for a model of dimension
    /// `dim`, splitting as evenly as integer arithmetic allows.
    fn chunk_bounds(&self, dim: usize, index: usize) -> (usize, usize) {
        chunk_bounds(dim, self.config.chunks, index)
    }

    /// The fused-pass state for a model of dimension `dim` at the current
    /// `chunks` and `fault_margin`, rebuilt when any of the three differs
    /// from the cached one (the supervisor's ladder changes `chunks` on
    /// every climb).
    fn fused_scan(&mut self, dim: usize) -> &mut FusedScan {
        let (chunks, margin) = (self.config.chunks, self.config.fault_margin);
        if self
            .fused
            .as_ref()
            .is_some_and(|scan| !scan.is_for(dim, chunks, margin))
        {
            self.fused = None;
        }
        self.fused
            .get_or_insert_with(|| FusedScan::new(dim, chunks, margin))
    }

    /// §4.2: each chunk acts as an independent `d`-dimensional HDC model;
    /// a chunk is faulty when some other class beats the trusted class on
    /// that chunk by more than the statistical margin.
    ///
    /// The margin matters: chunk-level Hamming distances fluctuate with
    /// standard deviation `O(sqrt(d))`, so requiring a plain win would flag
    /// a large fraction of *healthy* chunks on any realistically tight
    /// dataset, and substituting into healthy chunks slowly erodes the
    /// bundled class structure. Requiring the deficit to exceed
    /// `fault_margin * sqrt(d)` keeps detection quiet on healthy models
    /// while still firing on chunks whose stored bits were actually
    /// corrupted (corruption shifts the chunk distance by `O(d)`).
    ///
    /// The runtime path reads the chunk distances the confidence pass of
    /// the same query already filled ([`FusedScan`]), so detection costs
    /// one min-fold over the classes and one compare per chunk. The oracle
    /// runs [`scan_chunk_faults`](crate::batch::scan_chunk_faults), which
    /// splits every class again. Both apply the one fault rule,
    /// [`chunk_is_faulty`](crate::batch::chunk_is_faulty), and only the
    /// result is folded into the engine's counters here.
    fn detect_faulty_chunks(
        &mut self,
        path: Path,
        model: &TrainedModel,
        query: &BinaryHypervector,
        predicted: usize,
    ) -> Vec<usize> {
        let scan = match path {
            Path::Words => self.fused_scan(model.dim()).faults(predicted),
            Path::Bits => scan_chunk_faults(
                model,
                query,
                predicted,
                self.config.chunks,
                self.config.fault_margin,
            ),
        };
        self.stats.chunks_inspected += scan.inspected;
        self.stats.chunks_faulty += scan.faulty.len();
        scan.faulty
    }

    /// Accumulates a trusted query's votes into the predicted class's
    /// saturating counters (majority-counter mode only). Each dimension
    /// votes with probability `S`.
    ///
    /// Vectorised: per 64-bit word of the query, the 64 Bernoulli draws
    /// are taken in bit order straight into byte lanes (`-1` where the
    /// draw hit, [`draw_hit_lanes`]), the query word is spread into byte
    /// lanes by a 256-entry table ([`SPREAD`]), and the word's 64 `i8`
    /// counters step in one loop over the lanes that the compiler
    /// vectorises ([`step_counters`]). A counter whose draw missed keeps
    /// its value, even beyond a lowered saturation. Bit-identical to
    /// [`RecoveryEngine::vote_per_bit`], RNG stream included: what is left
    /// is mostly the draws themselves.
    fn vote(&mut self, label: usize, query: &BinaryHypervector, saturation: u8) {
        let sat = i8::try_from(saturation).unwrap_or(i8::MAX);
        let threshold = hit_threshold(self.config.substitution_rate);
        // audit:allow(panic): counters has one row per class, sized in observe_on
        let counters = &mut self.counters[label];
        let mut hits = [0i8; 64];
        let mut ups = [0i8; 64];
        for (counters, &word) in counters.chunks_mut(64).zip(query.bits().words()) {
            draw_hit_lanes(&mut self.rng, threshold, &mut hits, counters.len());
            for (lanes, byte) in ups.chunks_exact_mut(8).zip(word.to_le_bytes()) {
                // audit:allow(panic): SPREAD has one entry per byte value
                lanes.copy_from_slice(&SPREAD[usize::from(byte)]);
            }
            step_counters(counters, &hits, &ups, sat);
        }
    }

    /// The per-bit form of [`RecoveryEngine::vote`] behind
    /// [`RecoveryEngine::observe_reference`]: one `random_bool` per
    /// dimension.
    fn vote_per_bit(&mut self, label: usize, query: &BinaryHypervector, saturation: u8) {
        let sat = i8::try_from(saturation).unwrap_or(i8::MAX);
        let rate = self.config.substitution_rate;
        // audit:allow(panic): counters has one row per class, sized in observe_on
        for (i, counter) in self.counters[label].iter_mut().enumerate() {
            if self.rng.random_bool(rate) {
                let delta = if query.get(i) { 1 } else { -1 };
                *counter = counter.saturating_add(delta).clamp(-sat, sat);
            }
        }
    }

    /// §4.3: probabilistic substitution over `[start, end)`. In
    /// [`SubstitutionMode::Overwrite`] each selected class bit becomes the
    /// query bit; in [`SubstitutionMode::MajorityCounter`] the class bits
    /// are regenerated from the accumulated majority counters. Returns how
    /// many stored bits changed.
    ///
    /// Word-parallel: each word of the range yields a mask of selected
    /// positions and a mask of the bits that change, and the class is
    /// borrowed mutably — which drops the model's packed scoring copy —
    /// only when some stored bit actually changes. Bit-identical to
    /// [`RecoveryEngine::substitute_per_bit`], RNG stream included.
    // audit:allow(panic): word indices lie in start / 64 ..= (end - 1) / 64 and end <= dim
    fn substitute(
        &mut self,
        model: &mut TrainedModel,
        label: usize,
        query: &BinaryHypervector,
        start: usize,
        end: usize,
    ) -> usize {
        if start >= end {
            return 0;
        }
        let (first, last) = (start / 64, (end - 1) / 64);
        let span = |w: usize| {
            let lo = if w == first { start % 64 } else { 0 };
            let hi = if w == last { (end - 1) % 64 + 1 } else { 64 };
            (lo, hi)
        };
        let query_words = query.bits().words();
        let class_words = model.class(label).bits().words();
        self.flips.clear();
        let mut selected = 0usize;
        match self.config.substitution {
            SubstitutionMode::Overwrite => {
                let threshold = hit_threshold(self.config.substitution_rate);
                for w in first..=last {
                    let (lo, hi) = span(w);
                    let hits = draw_hits(&mut self.rng, threshold, hi - lo) << lo;
                    selected += hits.count_ones() as usize;
                    self.flips.push((class_words[w] ^ query_words[w]) & hits);
                }
            }
            SubstitutionMode::MajorityCounter { saturation } => {
                // Only fully saturated counters may write (see
                // `substitute_per_bit`).
                let sat = i8::try_from(saturation).unwrap_or(i8::MAX);
                let counters = &self.counters[label];
                for w in first..=last {
                    let (lo, hi) = span(w);
                    let (mut saturated, mut target) = (0u64, 0u64);
                    for (j, &counter) in counters[w * 64 + lo..w * 64 + hi].iter().enumerate() {
                        saturated |= u64::from(counter.abs() >= sat) << (lo + j);
                        target |= u64::from(counter > 0) << (lo + j);
                    }
                    selected += saturated.count_ones() as usize;
                    self.flips.push((class_words[w] ^ target) & saturated);
                }
            }
        }
        self.stats.bits_substituted += selected;
        let changed: usize = self.flips.iter().map(|f| f.count_ones() as usize).sum();
        if changed > 0 {
            let words = model.class_mut(label).bits_mut().words_mut();
            for (word, flip) in words[first..=last].iter_mut().zip(&self.flips) {
                *word ^= flip;
            }
        }
        changed
    }

    /// The per-bit form of [`RecoveryEngine::substitute`] behind
    /// [`RecoveryEngine::observe_reference`].
    fn substitute_per_bit(
        &mut self,
        model: &mut TrainedModel,
        label: usize,
        query: &BinaryHypervector,
        start: usize,
        end: usize,
    ) -> usize {
        let rate = self.config.substitution_rate;
        let mode = self.config.substitution;
        let mut changed = 0;
        match mode {
            SubstitutionMode::Overwrite => {
                let class = model.class_mut(label);
                for i in start..end {
                    if self.rng.random_bool(rate) {
                        self.stats.bits_substituted += 1;
                        let bit = query.get(i);
                        if class.get(i) != bit {
                            class.set(i, bit);
                            changed += 1;
                        }
                    }
                }
            }
            SubstitutionMode::MajorityCounter { saturation } => {
                // Only fully saturated counters may write: an immature
                // counter holds one or two queries' bits (as noisy as a
                // plain overwrite), while a saturated one holds a genuine
                // majority of the trusted traffic.
                let sat = i8::try_from(saturation).unwrap_or(i8::MAX);
                let class = model.class_mut(label);
                for i in start..end {
                    let counter = self.counters[label][i]; // audit:allow(panic): counters rows span model.dim(), sized at vote time
                    if counter.abs() >= sat {
                        self.stats.bits_substituted += 1;
                        let target = counter > 0;
                        if class.get(i) != target {
                            class.set(i, target);
                            changed += 1;
                        }
                    }
                }
            }
        }
        changed
    }
}

/// `2^53`: [`RngCore::next_f64`] is `(u >> 11) · 2^-53` for a raw draw `u`.
const TWO_POW_53: f64 = (1u64 << 53) as f64;

/// The raw-draw threshold equivalent to `random_bool(rate)`:
/// `next_f64() < rate` holds exactly when `(u >> 11) < ceil(rate · 2^53)`,
/// because `u >> 11` is an integer and scaling by a power of two is exact.
/// A rate of 1.0 gives `2^53`, which every draw is below.
///
/// # Panics
///
/// Panics if `rate` lies outside `[0, 1]`, as `random_bool` does.
fn hit_threshold(rate: f64) -> u64 {
    assert!(
        (0.0..=1.0).contains(&rate),
        "p={rate} is outside range [0.0, 1.0]"
    );
    hypervector::cast::round_to_usize((rate * TWO_POW_53).ceil()) as u64
}

/// Draws `bits` (at most 64) Bernoulli trials in order, one raw RNG value
/// each — the same draws `random_bool` would take — and returns them as a
/// mask: bit `j` is set when trial `j` hit.
fn draw_hits(rng: &mut StdRng, threshold: u64, bits: usize) -> u64 {
    let mut hits = 0u64;
    for j in 0..bits {
        hits |= u64::from((rng.next_u64() >> 11) < threshold) << j;
    }
    hits
}

/// Draws the first `lanes` (at most 64) Bernoulli trials of a word in
/// order — the same raw draws as [`draw_hits`] — into byte lanes: lane `j`
/// is `-1` (all ones) when trial `j` hit and `0` when it missed.
// audit:allow(panic): lanes is at most 64, the length of hits
fn draw_hit_lanes(rng: &mut StdRng, threshold: u64, hits: &mut [i8; 64], lanes: usize) {
    for hit in &mut hits[..lanes] {
        *hit = -i8::from((rng.next_u64() >> 11) < threshold);
    }
}

/// `SPREAD[b]` spreads the byte `b` into 8 lanes: lane `i` is `-1` (all
/// ones) when bit `i` of `b` is set and `0` otherwise.
const SPREAD: [[i8; 8]; 256] = {
    let mut table = [[0i8; 8]; 256];
    let mut byte = 0;
    while byte < 256 {
        let mut bit = 0;
        while bit < 8 {
            if (byte >> bit) & 1 == 1 {
                table[byte][bit] = -1;
            }
            bit += 1;
        }
        byte += 1;
    }
    table
};

/// One vote step over a word's counters: where `hits` is `-1`, the counter
/// moves one step toward its query bit (`+1` where `ups` is `-1`, `-1`
/// where it is `0`), saturating and then clamped to `±sat`; where `hits`
/// is `0`, it keeps its value. Branch-free over `i8` lanes, so the loop
/// vectorises.
fn step_counters(counters: &mut [i8], hits: &[i8; 64], ups: &[i8; 64], sat: i8) {
    for ((counter, &hit), &up) in counters.iter_mut().zip(hits).zip(ups) {
        let step = !up | 1;
        let voted = counter.saturating_add(step).max(-sat).min(sat);
        *counter = (voted & hit) | (*counter & !hit);
    }
}

/// The runtime path's one pass over the classes (see
/// [`RecoveryEngine::observe`]): every class's chunk distances to the
/// query go into a `classes × chunks` buffer, the row sums — each class's
/// exact Hamming distance — give the similarities the confidence is
/// computed from, and the fault decision reads the same buffer. The chunk
/// split and each chunk's margin are cached for one `(dim, chunks,
/// fault_margin)`, so a query allocates nothing here.
#[derive(Debug)]
struct FusedScan {
    split: ChunkedHamming,
    /// The `fault_margin` the per-chunk margins were derived from.
    fault_margin: f64,
    /// Margin bits per chunk; `None` for an empty chunk, which is never
    /// inspected.
    margins: Vec<Option<usize>>,
    /// Non-empty chunks.
    inspected: usize,
    /// Class-major chunk distances of the last scored query.
    distances: Vec<usize>,
    /// Per-class similarities of the last scored query.
    similarities: Vec<f64>,
    /// Scratch: the closest rival's distance per chunk.
    rival_best: Vec<usize>,
}

impl FusedScan {
    fn new(dim: usize, chunks: usize, fault_margin: f64) -> Self {
        let margins: Vec<Option<usize>> = (0..chunks)
            .map(|chunk| {
                let (start, end) = chunk_bounds(dim, chunks, chunk);
                (start < end).then(|| margin_bits(fault_margin, end - start))
            })
            .collect();
        Self {
            split: ChunkedHamming::new(dim, chunks),
            fault_margin,
            inspected: margins.iter().flatten().count(),
            margins,
            distances: Vec::new(),
            similarities: Vec::new(),
            rival_best: Vec::new(),
        }
    }

    /// Whether the cached split and margins are those of `(dim, chunks,
    /// fault_margin)`.
    fn is_for(&self, dim: usize, chunks: usize, fault_margin: f64) -> bool {
        self.split.dim() == dim
            && self.split.chunks() == chunks
            && self.fault_margin.to_bits() == fault_margin.to_bits()
    }

    /// Fills the chunk distances and the similarities of `query` against
    /// every class of `model`. A similarity is `1 − d/D` of the row sum,
    /// the same float expression as [`TrainedModel::similarities`].
    fn score(&mut self, model: &TrainedModel, query: &BinaryHypervector) {
        let chunks = self.split.chunks();
        let dim = model.dim();
        self.distances.resize(model.num_classes() * chunks, 0);
        self.similarities.clear();
        for (class, row) in model
            .classes()
            .iter()
            .zip(self.distances.chunks_exact_mut(chunks))
        {
            self.split.distances_into(class, query, row);
            let distance: usize = row.iter().sum();
            self.similarities
                .push(similarity_from_distance(distance, dim));
        }
    }

    /// The faulty chunks of the last scored query for the trusted class
    /// `predicted`.
    fn faults(&mut self, predicted: usize) -> FaultScan {
        let chunks = self.margins.len();
        self.rival_best.clear();
        self.rival_best.resize(chunks, usize::MAX);
        let mut own: &[usize] = &[];
        for (class, row) in self.distances.chunks_exact(chunks).enumerate() {
            if class == predicted {
                own = row;
                continue;
            }
            for (best, &d) in self.rival_best.iter_mut().zip(row) {
                *best = (*best).min(d);
            }
        }
        let faulty = own
            .iter()
            .zip(&self.rival_best)
            .zip(&self.margins)
            .enumerate()
            .filter_map(|(chunk, ((&own, &rival), margin))| {
                margin
                    .is_some_and(|margin| chunk_is_faulty(own, rival, margin))
                    .then_some(chunk)
            })
            .collect();
        FaultScan {
            faulty,
            inspected: self.inspected,
        }
    }
}

/// Mixed into the user seed so the substitution RNG decorrelates from other
/// seeded components sharing the same experiment seed.
const SUBSTITUTION_SEED_MIX: u64 = 0x1357_9bdf_2468_ace0;

impl fmt::Debug for RecoveryEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RecoveryEngine")
            .field("config", &self.config)
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{HdcConfig, RecoveryConfig};
    use hypervector::random::HypervectorSampler;

    const DIM: usize = 4096;

    /// Builds a trained 3-class model plus a stream of noisy member queries.
    fn trained_setup(seed: u64) -> (TrainedModel, Vec<BinaryHypervector>, Vec<usize>) {
        let mut sampler = HypervectorSampler::seed_from(seed);
        let protos: Vec<_> = (0..3).map(|_| sampler.binary(DIM)).collect();
        let mut encoded = Vec::new();
        let mut labels = Vec::new();
        for i in 0..90 {
            let class = i % 3;
            encoded.push(sampler.flip_noise(&protos[class], 0.15));
            labels.push(class);
        }
        let cfg = HdcConfig::builder().dimension(DIM).build().expect("valid");
        let model = TrainedModel::train(&encoded, &labels, 3, &cfg);
        (model, encoded, labels)
    }

    fn engine(config: RecoveryConfig) -> RecoveryEngine {
        RecoveryEngine::new(config, 64.0)
    }

    #[test]
    fn corrupted_chunk_is_detected() {
        let (mut model, encoded, labels) = trained_setup(1);
        let m = 16;
        // Annihilate chunk 5 of class 0 (flip every bit in its range).
        let (start, end) = (5 * DIM / m, 6 * DIM / m);
        for i in start..end {
            model.class_mut(0).flip(i);
        }
        let config = RecoveryConfig::builder()
            .chunks(m)
            .confidence_threshold(0.0)
            .substitution_rate(0.0)
            .build()
            .expect("valid");
        let mut eng = engine(config);
        // Use a class-0 query; global prediction survives (only 1/16 of bits
        // corrupted) but the corrupted chunk must vote against it.
        let idx = labels.iter().position(|&l| l == 0).expect("has class 0");
        let obs = eng.observe(&mut model, &encoded[idx]);
        assert!(obs.trusted);
        assert_eq!(obs.confidence.label, 0);
        assert!(
            obs.faulty_chunks.contains(&5),
            "chunk 5 not flagged: {:?}",
            obs.faulty_chunks
        );
    }

    #[test]
    fn untrusted_queries_do_not_touch_the_model() {
        let (mut model, encoded, _) = trained_setup(2);
        let before = model.clone();
        let config = RecoveryConfig::builder()
            .confidence_threshold(1.0)
            .substitution_rate(1.0)
            .build()
            .expect("valid");
        let mut eng = engine(config);
        // With 3 classes and beta 64, no real query reaches confidence 1.0.
        for q in encoded.iter().take(20) {
            let obs = eng.observe(&mut model, q);
            assert!(!obs.trusted);
        }
        assert_eq!(model, before);
        assert_eq!(eng.stats().samples_trusted, 0);
        assert_eq!(eng.stats().samples_seen, 20);
    }

    #[test]
    fn zero_substitution_rate_detects_but_never_writes() {
        let (mut model, encoded, _) = trained_setup(3);
        let clean = model.clone();
        // Wipe out one whole chunk per class so detectable faults exist.
        let m = 20;
        for c in 0..3 {
            for i in (c * DIM / m)..((c + 1) * DIM / m) {
                model.class_mut(c).flip(i);
            }
        }
        let attacked = model.clone();
        let config = RecoveryConfig::builder()
            .confidence_threshold(0.0)
            .substitution_rate(0.0)
            .build()
            .expect("valid");
        let mut eng = engine(config);
        eng.run_stream(&mut model, &encoded);
        assert_eq!(model, attacked);
        assert!(eng.stats().chunks_faulty > 0, "faults should be detected");
        assert_eq!(eng.stats().bits_substituted, 0);
        drop(clean);
    }

    #[test]
    fn recovery_pulls_attacked_class_back_toward_clean() {
        let (mut model, encoded, _) = trained_setup(4);
        let clean = model.clone();
        // Wipe out three whole chunks of class 0 — the concentrated
        // corruption pattern (e.g. a row failure) the detector targets.
        let m = 20;
        for chunk in [2usize, 7, 11] {
            for i in (chunk * DIM / m)..((chunk + 1) * DIM / m) {
                model.class_mut(0).flip(i);
            }
        }
        let before = model.class(0).hamming_distance(clean.class(0));
        let config = RecoveryConfig::builder()
            .confidence_threshold(0.4)
            .substitution_rate(0.5)
            .build()
            .expect("valid");
        let mut eng = engine(config);
        for _ in 0..3 {
            eng.run_stream(&mut model, &encoded);
        }
        let after = model.class(0).hamming_distance(clean.class(0));
        assert!(after < before / 2, "recovery too weak: {before} -> {after}");
    }

    #[test]
    fn healthy_model_is_left_essentially_intact() {
        let (mut model, encoded, _) = trained_setup(5);
        let clean = model.clone();
        let config = RecoveryConfig::builder()
            .confidence_threshold(0.4)
            .substitution_rate(0.5)
            .build()
            .expect("valid");
        let mut eng = engine(config);
        eng.run_stream(&mut model, &encoded);
        let drift: usize = (0..3)
            .map(|c| model.class(c).hamming_distance(clean.class(c)))
            .sum();
        // A clean model has few faulty chunk votes, so substitution barely
        // fires; allow a small drift budget out of 3 x 4096 bits.
        assert!(drift < 3 * DIM / 50, "healthy model drifted by {drift}");
    }

    #[test]
    fn substitution_volume_tracks_rate() {
        let (mut model, encoded, labels) = trained_setup(6);
        // Corrupt one chunk completely so it is always faulty.
        let m = 8;
        for i in 0..DIM / m {
            model.class_mut(1).flip(i);
        }
        let config = RecoveryConfig::builder()
            .chunks(m)
            .confidence_threshold(0.0)
            .substitution_rate(0.5)
            .build()
            .expect("valid");
        let mut eng = engine(config);
        let idx = labels.iter().position(|&l| l == 1).expect("has class 1");
        let obs = eng.observe(&mut model, &encoded[idx]);
        assert!(obs.faulty_chunks.contains(&0));
        let subs = eng.stats().bits_substituted;
        let expected = (DIM / m) as f64 * 0.5 * obs.faulty_chunks.len() as f64;
        assert!(
            (subs as f64) > expected * 0.7 && (subs as f64) < expected * 1.3,
            "substituted {subs}, expected about {expected}"
        );
    }

    #[test]
    fn whole_vector_mode_touches_all_chunks() {
        let (mut model, encoded, labels) = trained_setup(7);
        let m = 8;
        for i in 0..DIM / m {
            model.class_mut(2).flip(i);
        }
        let config = RecoveryConfig::builder()
            .chunks(m)
            .confidence_threshold(0.0)
            .substitution_rate(1.0)
            .faulty_chunks_only(false)
            .build()
            .expect("valid");
        let mut eng = engine(config);
        let idx = labels.iter().position(|&l| l == 2).expect("has class 2");
        let obs = eng.observe(&mut model, &encoded[idx]);
        assert!(obs.trusted);
        // Rate 1.0 over the whole vector: the class becomes the query.
        assert_eq!(model.class(2), &encoded[idx]);
    }

    #[test]
    fn stats_rates_are_consistent() {
        let (mut model, encoded, _) = trained_setup(8);
        let config = RecoveryConfig::builder()
            .confidence_threshold(0.5)
            .build()
            .expect("valid");
        let mut eng = engine(config);
        eng.run_stream(&mut model, &encoded);
        let stats = *eng.stats();
        assert_eq!(stats.samples_seen, encoded.len());
        assert!(stats.trust_rate() <= 1.0);
        assert!(stats.fault_rate() <= 1.0);
        assert!(stats.bits_changed <= stats.bits_substituted);
    }

    #[test]
    fn engine_is_deterministic_per_seed() {
        let run = || {
            let (mut model, encoded, _) = trained_setup(9);
            let mut sampler = HypervectorSampler::seed_from(13);
            for c in 0..3 {
                let noisy = sampler.flip_noise(model.class(c), 0.08);
                *model.class_mut(c) = noisy;
            }
            let config = RecoveryConfig::builder()
                .seed(77)
                .confidence_threshold(0.4)
                .substitution_rate(0.3)
                .build()
                .expect("valid");
            let mut eng = engine(config);
            eng.run_stream(&mut model, &encoded);
            (model, *eng.stats())
        };
        let (m1, s1) = run();
        let (m2, s2) = run();
        assert_eq!(m1, m2);
        assert_eq!(s1, s2);
    }

    #[test]
    fn clean_model_sees_almost_no_writes() {
        // On an undamaged model the engine must be a near no-op: chunk-fault
        // detection stays quiet, so bits_changed stays far below the model
        // size even with an aggressive substitution rate.
        let (mut model, encoded, _) = trained_setup(12);
        let config = RecoveryConfig::builder()
            .confidence_threshold(0.4)
            .substitution_rate(0.5)
            .build()
            .expect("valid");
        let mut eng = engine(config);
        for _ in 0..3 {
            eng.run_stream(&mut model, &encoded);
        }
        let total_bits = 3 * DIM;
        assert!(
            eng.stats().bits_changed < total_bits / 50,
            "clean model saw {} bit writes out of {total_bits}",
            eng.stats().bits_changed
        );
    }

    #[test]
    fn reconfigure_preserves_stats_and_counters() {
        let (mut model, encoded, _) = trained_setup(13);
        let config = RecoveryConfig::builder()
            .confidence_threshold(0.4)
            .substitution_rate(0.5)
            .substitution(SubstitutionMode::MajorityCounter { saturation: 3 })
            .build()
            .expect("valid");
        let mut eng = engine(config);
        eng.run_stream(&mut model, &encoded);
        let stats_before = *eng.stats();
        assert!(stats_before.samples_trusted > 0);
        let escalated = RecoveryConfig::builder()
            .chunks(40)
            .confidence_threshold(0.3)
            .substitution_rate(1.0)
            .substitution(SubstitutionMode::MajorityCounter { saturation: 3 })
            .build()
            .expect("valid");
        eng.reconfigure(escalated.clone());
        assert_eq!(eng.config(), &escalated);
        assert_eq!(*eng.stats(), stats_before, "stats survive reconfigure");
        // The preserved counters keep voting under the new parameters.
        eng.run_stream(&mut model, &encoded);
        assert!(eng.stats().samples_seen > stats_before.samples_seen);
    }

    #[test]
    #[should_panic(expected = "does not match model")]
    fn dimension_mismatch_panics() {
        let (mut model, _, _) = trained_setup(10);
        let config = RecoveryConfig::default();
        let mut eng = engine(config);
        eng.observe(&mut model, &BinaryHypervector::zeros(8));
    }

    #[test]
    fn more_chunks_than_dimensions_is_tolerated() {
        let mut sampler = HypervectorSampler::seed_from(11);
        let protos = [sampler.binary(16), sampler.binary(16)];
        let model_src: Vec<_> = (0..10)
            .map(|i| sampler.flip_noise(&protos[i % 2], 0.1))
            .collect();
        let labels: Vec<_> = (0..10).map(|i| i % 2).collect();
        let cfg = HdcConfig::builder().dimension(16).build().expect("valid");
        let mut model = TrainedModel::train(&model_src, &labels, 2, &cfg);
        let config = RecoveryConfig::builder()
            .chunks(64)
            .confidence_threshold(0.0)
            .build()
            .expect("valid");
        let mut eng = engine(config);
        eng.observe(&mut model, &model_src[0]); // must not panic
    }
}
