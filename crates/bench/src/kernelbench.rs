//! Extension — execution-tier kernel throughput: the portable wide-lane
//! kernels ([`hypervector::tier`]) against the scalar reference tier, per
//! kernel family, plus end-to-end scoring throughput through whichever tier
//! `ROBUSTHD_KERNEL_TIER` installed.
//!
//! The sweep times both tiers *tier-explicitly* (the tier kernels are free
//! functions taking the tier as an argument), so one process reports the
//! reference/wide ratio for every kernel regardless of which tier the
//! process-wide dispatch resolved to; only the end-to-end row depends on
//! the installed tier. Before any timing, every kernel family is
//! cross-checked bit-exact across tiers — integer counts with `assert_eq`
//! and similarity floats down to `f64::to_bits` — and the sweep panics
//! rather than report throughput for a divergent kernel.

use crate::timing::best_seconds;
use crate::workload::EncodedWorkload;
use hypervector::random::HypervectorSampler;
use hypervector::similarity::{chunked_hamming, PackedClasses};
use hypervector::tier::{self, KernelTier};
use hypervector::BinaryHypervector;
use robusthd::BatchEngine;
use std::fmt::Write as _;
use std::hint::black_box;
use synthdata::DatasetSpec;

const BYTES_PER_WORD: usize = 8;
const WORD_BITS: usize = 64;

/// Ties every kernel bit-breaking check in this module back to the parity
/// tie-break the majority kernel uses (`bitslice::CarrySaveMajority`).
const TIE_PARITY: u64 = 0x5555_5555_5555_5555;

/// One kernel family, timed on both tiers.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelBenchRow {
    /// Kernel family name.
    pub kernel: String,
    /// Bytes of operand traffic per timed pass (same for both tiers).
    pub bytes: usize,
    /// Reference (scalar) tier throughput, GiB of operand traffic per second.
    pub reference_gib_s: f64,
    /// Wide (8-word block) tier throughput, GiB per second.
    pub wide_gib_s: f64,
    /// Wide over reference throughput ratio, both tiers' bests taken
    /// over the same interleaved rounds.
    pub speedup: f64,
    /// Whether tier parity (speedup ≈ 1) is the *designed* outcome for
    /// this family rather than a regression: kernels whose operand spans
    /// are short enough that the wide path routes to scalar by design
    /// (e.g. `chunked_hamming`'s sub-64-word chunk spans). CI gates read
    /// this instead of hard-coding kernel names.
    pub parity_expected: bool,
}

/// Kernel families whose wide path intentionally matches the reference
/// tier's throughput on bench-shaped operands: the `chunked_hamming` row
/// times the masked-range kernel (`tier::hamming_range_words`) over
/// chunk-sized spans shorter than one 8-word block, which the wide tier
/// hands to the scalar loop by design. (`similarity::chunked_hamming`
/// itself is a single untiered pass; the row keeps its name because the
/// kernel gate reads it.)
const PARITY_BY_DESIGN: &[&str] = &["chunked_hamming"];

/// The full kernel sweep for one dataset geometry.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelBenchOutcome {
    /// Dataset name (geometry source for the scoring workload).
    pub name: String,
    /// Hypervector dimensionality.
    pub dim: usize,
    /// Number of classes scored against.
    pub classes: usize,
    /// Queries in the end-to-end batch.
    pub queries: usize,
    /// Timed rounds per kernel, each timing both tiers once.
    pub repeats: usize,
    /// Operand and workload seed.
    pub seed: u64,
    /// The process-wide installed tier (what `ROBUSTHD_KERNEL_TIER` chose).
    pub kernel_tier: String,
    /// Batch-engine worker threads for the end-to-end row.
    pub threads: usize,
    /// One row per kernel family.
    pub rows: Vec<KernelBenchRow>,
    /// Wide/reference ratio on the class-major scoring kernel
    /// (`hamming_all`) — the serving hot loop, and the gate CI enforces.
    pub scoring_speedup: f64,
    /// End-to-end queries scored per second through the installed tier
    /// (encode excluded; batch predict over the packed classes).
    pub predict_qps: f64,
}

impl KernelBenchOutcome {
    /// Hand-written JSON rendering (no serializer dependency), stable field
    /// order for diffable CI artifacts.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"dataset\": \"{}\", \"dim\": {}, \"classes\": {}, \"queries\": {}, \
             \"repeats\": {}, \"seed\": {}, \"kernel_tier\": \"{}\", \"threads\": {}, \
             \"bit_exact\": true, \"kernels\": [",
            self.name,
            self.dim,
            self.classes,
            self.queries,
            self.repeats,
            self.seed,
            self.kernel_tier,
            self.threads
        );
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"kernel\": \"{}\", \"bytes\": {}, \"reference_gib_s\": {:.2}, \
                 \"wide_gib_s\": {:.2}, \"speedup\": {:.3}, \"parity_expected\": {}}}",
                row.kernel,
                row.bytes,
                row.reference_gib_s,
                row.wide_gib_s,
                row.speedup,
                row.parity_expected
            );
        }
        let _ = write!(
            out,
            "], \"scoring_speedup\": {:.3}, \"predict_qps\": {:.1}}}",
            self.scoring_speedup, self.predict_qps
        );
        out
    }
}

/// The synthetic operand set every kernel row runs against.
struct Operands {
    words: usize,
    pairs: Vec<(BinaryHypervector, BinaryHypervector)>,
    classes: Vec<BinaryHypervector>,
    packed: PackedClasses,
    queries: Vec<BinaryHypervector>,
}

impl Operands {
    fn build(dim: usize, classes: usize, seed: u64) -> Self {
        let mut sampler = HypervectorSampler::seed_from(seed);
        let pairs: Vec<_> = (0..16)
            .map(|_| {
                let a = sampler.binary(dim);
                let b = sampler.flip_noise(&a, 0.3);
                (a, b)
            })
            .collect();
        let class_vecs: Vec<_> = (0..classes).map(|_| sampler.binary(dim)).collect();
        let packed = PackedClasses::from_classes(&class_vecs);
        let queries: Vec<_> = (0..32)
            .map(|i| sampler.flip_noise(&class_vecs[i % classes], 0.2))
            .collect();
        Self {
            words: dim.div_ceil(WORD_BITS),
            pairs,
            classes: class_vecs,
            packed,
            queries,
        }
    }

    /// The operand pairs as word slices, the record kernel's input shape.
    fn pair_words(&self) -> Vec<(&[u64], &[u64])> {
        self.pairs
            .iter()
            .map(|(a, b)| (a.bits().words(), b.bits().words()))
            .collect()
    }
}

/// Panics unless every kernel family is bit-identical across tiers on the
/// bench operands — integer counts exactly, similarity floats to the bit.
fn cross_check(ops: &Operands, dim: usize) {
    for (a, b) in &ops.pairs {
        let aw = a.bits().words();
        let bw = b.bits().words();
        let reference = tier::hamming_words(KernelTier::Reference, aw, bw);
        assert_eq!(
            tier::hamming_words(KernelTier::Wide, aw, bw),
            reference,
            "wide hamming diverges from reference"
        );
        for chunks in [7usize, 8] {
            let fused = chunked_hamming(a, b, chunks);
            let total: usize = fused.iter().sum();
            assert_eq!(total, reference, "chunked hamming does not sum to hamming");
            for (i, &d) in fused.iter().enumerate() {
                let (s, e) = (i * dim / chunks, (i + 1) * dim / chunks);
                for t in KernelTier::ALL {
                    assert_eq!(
                        tier::hamming_range_words(t, aw, bw, s, e),
                        d,
                        "range kernel diverges on tier {}",
                        t.name()
                    );
                }
            }
        }
    }

    for query in &ops.queries {
        let fused = ops.packed.hamming_all(query);
        for (c, class) in ops.classes.iter().enumerate() {
            let d = tier::hamming_words(
                KernelTier::Reference,
                class.bits().words(),
                query.bits().words(),
            );
            assert_eq!(fused[c], d, "hamming_all diverges at class {c}");
            // The float the model layer derives from the distance must be
            // bit-for-bit what the reference distance produces.
            let sim = 1.0 - fused[c] as f64 / dim as f64;
            let expected = 1.0 - d as f64 / dim as f64;
            assert_eq!(
                sim.to_bits(),
                expected.to_bits(),
                "similarity float diverges at class {c}"
            );
        }
    }

    // Majority family: ripple planes, bipolar counts, threshold words.
    let inputs: Vec<&BinaryHypervector> = ops.queries.iter().collect();
    let mut planes_ref = vec![vec![0u64; ops.words]; 8];
    let mut planes_wide = vec![vec![0u64; ops.words]; 8];
    for hv in &inputs {
        tier::ripple_add(KernelTier::Reference, &mut planes_ref, hv.bits().words());
        tier::ripple_add(KernelTier::Wide, &mut planes_wide, hv.bits().words());
    }
    assert_eq!(
        planes_wide, planes_ref,
        "wide ripple diverges from reference"
    );
    // Fused bind+bundle (the record-encoding kernel), on an even pair
    // count (parity ties) and an odd one (an unpaired last feature).
    let words = ops.pair_words();
    for count in [words.len(), words.len() - 1] {
        let tie_mask = if count.is_multiple_of(2) {
            TIE_PARITY
        } else {
            0
        };
        let mut bound_ref = vec![0u64; ops.words];
        let mut bound_wide = vec![0u64; ops.words];
        tier::bind_majority_words(
            KernelTier::Reference,
            &words[..count],
            tie_mask,
            &mut bound_ref,
        );
        tier::bind_majority_words(KernelTier::Wide, &words[..count], tie_mask, &mut bound_wide);
        assert_eq!(
            bound_wide, bound_ref,
            "wide bind_majority diverges from reference at {count} pairs"
        );
    }
    let added = inputs.len() as i64;
    let mut counts_ref = vec![0i64; dim];
    let mut counts_wide = vec![0i64; dim];
    tier::bipolar_accumulate(KernelTier::Reference, &planes_ref, added, &mut counts_ref);
    tier::bipolar_accumulate(KernelTier::Wide, &planes_ref, added, &mut counts_wide);
    assert_eq!(
        counts_wide, counts_ref,
        "wide bipolar diverges from reference"
    );
    let half = inputs.len() as u64 / 2;
    let mut thr_ref = vec![0u64; ops.words];
    let mut thr_wide = vec![0u64; ops.words];
    tier::threshold_words(
        KernelTier::Reference,
        &planes_ref,
        half,
        TIE_PARITY,
        &mut thr_ref,
    );
    tier::threshold_words(
        KernelTier::Wide,
        &planes_ref,
        half,
        TIE_PARITY,
        &mut thr_wide,
    );
    assert_eq!(thr_wide, thr_ref, "wide threshold diverges from reference");
}

/// Times one kernel closure on both tiers and assembles the row.
///
/// The tiers are timed interleaved: every round times one pass of each,
/// back to back, and the tier that goes first alternates between rounds.
/// Each tier's throughput is its best round, so both bests are drawn from
/// the same span of wall time. On a shared host, a neighbour's load slows
/// the wide tier more than the scalar one; the best rounds are the least
/// disturbed, and their ratio is what the code itself achieves.
fn row(
    kernel: &str,
    bytes: usize,
    repeats: usize,
    mut pass: impl FnMut(KernelTier) -> u64,
) -> KernelBenchRow {
    let gib = bytes as f64 / (1024.0 * 1024.0 * 1024.0);
    let (mut ref_s, mut wide_s) = (f64::INFINITY, f64::INFINITY);
    let mut time = |tier| best_seconds(1, || black_box(pass(tier)));
    for round in 0..repeats {
        if round % 2 == 0 {
            ref_s = ref_s.min(time(KernelTier::Reference));
            wide_s = wide_s.min(time(KernelTier::Wide));
        } else {
            wide_s = wide_s.min(time(KernelTier::Wide));
            ref_s = ref_s.min(time(KernelTier::Reference));
        }
    }
    KernelBenchRow {
        kernel: kernel.to_string(),
        bytes,
        reference_gib_s: gib / ref_s,
        wide_gib_s: gib / wide_s,
        speedup: ref_s / wide_s,
        parity_expected: PARITY_BY_DESIGN.contains(&kernel),
    }
}

/// Runs the kernel sweep on one dataset geometry.
///
/// `dim` and the dataset's class count size the synthetic operand set for
/// the per-kernel rows, each timed pass moving about `pass_bytes` of
/// operand traffic; the end-to-end row scores `queries` encoded test rows
/// of the dataset through a [`BatchEngine::from_env`] engine (which
/// installs the process-wide kernel tier from `ROBUSTHD_KERNEL_TIER` and
/// reads `ROBUSTHD_THREADS`).
///
/// # Panics
///
/// Panics if any wide kernel diverges bit-for-bit from the reference tier —
/// the sweep refuses to report throughput for a non-bit-exact kernel.
pub fn run(
    spec: &DatasetSpec,
    dim: usize,
    queries: usize,
    seed: u64,
    repeats: usize,
    pass_bytes: usize,
) -> KernelBenchOutcome {
    assert!(repeats > 0 && pass_bytes > 0, "tuning must be positive");
    let classes = spec.classes;
    let engine = BatchEngine::from_env();
    let ops = Operands::build(dim, classes, seed);
    cross_check(&ops, dim);

    let words = ops.words;
    let mut rows = Vec::new();

    // Pairwise XOR+popcount distance.
    let pair_bytes = 2 * words * BYTES_PER_WORD;
    let sweeps = (pass_bytes / (pair_bytes * ops.pairs.len())).max(1);
    rows.push(row(
        "hamming",
        sweeps * ops.pairs.len() * pair_bytes,
        repeats,
        |t| {
            let mut acc = 0u64;
            for _ in 0..sweeps {
                for (a, b) in &ops.pairs {
                    acc =
                        acc.wrapping_add(
                            tier::hamming_words(t, a.bits().words(), b.bits().words()) as u64,
                        );
                }
            }
            acc
        },
    ));

    // Masked-range distance (chunk-fault localization shape).
    let chunks = 8usize;
    rows.push(row(
        "chunked_hamming",
        sweeps * ops.pairs.len() * pair_bytes,
        repeats,
        |t| {
            let mut acc = 0u64;
            for _ in 0..sweeps {
                for (a, b) in &ops.pairs {
                    for i in 0..chunks {
                        let (s, e) = (i * dim / chunks, (i + 1) * dim / chunks);
                        acc = acc.wrapping_add(tier::hamming_range_words(
                            t,
                            a.bits().words(),
                            b.bits().words(),
                            s,
                            e,
                        ) as u64);
                    }
                }
            }
            acc
        },
    ));

    // Class-major scoring: the serving hot loop.
    let score_bytes = (classes + 1) * words * BYTES_PER_WORD;
    let score_sweeps = (pass_bytes / (score_bytes * ops.queries.len())).max(1);
    let mut scratch = Vec::with_capacity(classes);
    rows.push(row(
        "hamming_all",
        score_sweeps * ops.queries.len() * score_bytes,
        repeats,
        |t| {
            let mut acc = 0u64;
            for _ in 0..score_sweeps {
                for query in &ops.queries {
                    tier::hamming_all_into_words(
                        t,
                        ops.packed.words(),
                        ops.packed.words_per_class(),
                        classes,
                        query.bits().words(),
                        &mut scratch,
                    );
                    acc = acc.wrapping_add(scratch[0] as u64);
                }
            }
            acc
        },
    ));

    // Carry-save majority ripple: bundle the query pool into bit-planes.
    let bundle_bytes = ops.queries.len() * words * BYTES_PER_WORD;
    let bundle_sweeps = (pass_bytes / (4 * bundle_bytes)).max(1);
    rows.push(row(
        "majority_ripple",
        bundle_sweeps * bundle_bytes,
        repeats,
        |t| {
            let mut acc = 0u64;
            for _ in 0..bundle_sweeps {
                let mut planes = vec![vec![0u64; words]; 8];
                for hv in &ops.queries {
                    tier::ripple_add(t, &mut planes, hv.bits().words());
                }
                acc = acc.wrapping_add(planes[0][0]);
            }
            acc
        },
    ));

    // Bipolar count extraction + threshold extraction over fixed planes.
    let mut planes = vec![vec![0u64; words]; 8];
    for hv in &ops.queries {
        tier::ripple_add(KernelTier::Reference, &mut planes, hv.bits().words());
    }
    let plane_bytes = planes.len() * words * BYTES_PER_WORD;
    let bip_sweeps = (pass_bytes / (8 * plane_bytes)).max(1);
    let added = ops.queries.len() as i64;
    let mut counts = vec![0i64; dim];
    rows.push(row(
        "bipolar_counts",
        bip_sweeps * plane_bytes,
        repeats,
        |t| {
            let mut acc = 0u64;
            for _ in 0..bip_sweeps {
                tier::bipolar_accumulate(t, &planes, added, &mut counts);
                acc = acc.wrapping_add(counts[0].unsigned_abs());
            }
            acc
        },
    ));
    let half = ops.queries.len() as u64 / 2;
    let mut thr = vec![0u64; words];
    let thr_sweeps = (pass_bytes / plane_bytes).max(1);
    rows.push(row("threshold", thr_sweeps * plane_bytes, repeats, |t| {
        let mut acc = 0u64;
        for _ in 0..thr_sweeps {
            tier::threshold_words(t, &planes, half, TIE_PARITY, &mut thr);
            acc = acc.wrapping_add(thr[0]);
        }
        acc
    }));

    // Fused bind+bundle (the record-encoding kernel): the majority of the
    // XOR of every operand pair, one record of 16 features per call.
    let pair_words = ops.pair_words();
    let bound_bytes = ops.pairs.len() * pair_bytes;
    let bound_sweeps = (pass_bytes / (4 * bound_bytes)).max(1);
    let mut bound = vec![0u64; words];
    rows.push(row(
        "bind_majority",
        bound_sweeps * bound_bytes,
        repeats,
        |t| {
            let mut acc = 0u64;
            for _ in 0..bound_sweeps {
                tier::bind_majority_words(t, &pair_words, TIE_PARITY, &mut bound);
                acc = acc.wrapping_add(bound[0]);
            }
            acc
        },
    ));

    let scoring_speedup = rows
        .iter()
        .find(|r| r.kernel == "hamming_all")
        .map_or(1.0, |r| r.speedup);

    // End-to-end: batch scoring of the dataset's encoded test split through
    // the installed tier. Cross-checked against the reference tier's
    // per-query argmin before timing.
    let workload = EncodedWorkload::for_queries(spec, queries, dim, seed);
    let queries = &workload.test_encoded;
    let model = &workload.model;
    let batched = engine.predict_batch(model, queries);
    for (q, (query, &got)) in queries.iter().zip(&batched).enumerate() {
        let mut best = usize::MAX;
        let mut best_class = 0usize;
        for c in 0..model.num_classes() {
            let d = tier::hamming_words(
                KernelTier::Reference,
                model.class(c).bits().words(),
                query.bits().words(),
            );
            if d < best {
                best = d;
                best_class = c;
            }
        }
        assert_eq!(
            got, best_class,
            "batched prediction diverges from the reference tier at query {q}"
        );
    }
    let predict_seconds = best_seconds(repeats, || engine.predict_batch(model, queries));
    let predict_qps = queries.len() as f64 / predict_seconds;

    KernelBenchOutcome {
        name: spec.name.to_string(),
        dim,
        classes,
        queries: queries.len(),
        repeats,
        seed,
        kernel_tier: tier::active().name().to_string(),
        threads: engine.config().threads,
        rows,
        scoring_speedup,
        predict_qps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_produces_one_row_per_kernel_family() {
        let o = run(&DatasetSpec::pecan(), 1024, 40, 3, 1, 1 << 20);
        let kernels: Vec<&str> = o.rows.iter().map(|r| r.kernel.as_str()).collect();
        assert_eq!(
            kernels,
            [
                "hamming",
                "chunked_hamming",
                "hamming_all",
                "majority_ripple",
                "bipolar_counts",
                "threshold",
                "bind_majority"
            ]
        );
        assert!(o.rows.iter().all(|r| {
            r.bytes > 0 && r.reference_gib_s > 0.0 && r.wide_gib_s > 0.0 && r.speedup > 0.0
        }));
        let parity_tagged: Vec<&str> = o
            .rows
            .iter()
            .filter(|r| r.parity_expected)
            .map(|r| r.kernel.as_str())
            .collect();
        assert_eq!(
            parity_tagged,
            ["chunked_hamming"],
            "only the sub-block-span kernel is parity by design"
        );
        assert!(o.scoring_speedup > 0.0);
        assert!(o.predict_qps > 0.0);
        assert_eq!(o.queries, 40);
        assert!(!o.kernel_tier.is_empty());
    }

    #[test]
    fn json_rendering_is_stable() {
        let o = KernelBenchOutcome {
            name: "ucihar".into(),
            dim: 8192,
            classes: 6,
            queries: 600,
            repeats: 3,
            seed: 1,
            kernel_tier: "wide".into(),
            threads: 1,
            rows: vec![KernelBenchRow {
                kernel: "hamming_all".into(),
                bytes: 1048576,
                reference_gib_s: 3.25,
                wide_gib_s: 6.5,
                speedup: 2.0,
                parity_expected: false,
            }],
            scoring_speedup: 2.0,
            predict_qps: 125000.0,
        };
        assert_eq!(
            o.to_json(),
            "{\"dataset\": \"ucihar\", \"dim\": 8192, \"classes\": 6, \"queries\": 600, \
             \"repeats\": 3, \"seed\": 1, \"kernel_tier\": \"wide\", \"threads\": 1, \
             \"bit_exact\": true, \
             \"kernels\": [{\"kernel\": \"hamming_all\", \"bytes\": 1048576, \
             \"reference_gib_s\": 3.25, \"wide_gib_s\": 6.50, \"speedup\": 2.000, \
             \"parity_expected\": false}], \
             \"scoring_speedup\": 2.000, \"predict_qps\": 125000.0}"
        );
    }
}
