//! Differential suite pinning the Wide execution tier bit-identical to the
//! Reference tier across every kernel family it re-routes — XOR+popcount
//! distances (pairwise, masked ranges, class-major scoring), the carry-save
//! majority ripple kernels (including the fused bind+bundle every record
//! encoding runs), bipolar count extraction and threshold extraction —
//! plus the [`KernelConfig`] flag surface (`ROBUSTHD_KERNEL_TIER`) that
//! selects between them.
//!
//! Dimensions deliberately straddle both the 64-bit word boundary
//! (63/64/65) and the 8-word wide-block boundary (511/512/513), because
//! those are exactly the seams where a wide kernel's full-block path hands
//! off to its scalar tail.

use hypervector::random::HypervectorSampler;
use hypervector::similarity::{chunked_hamming, PackedClasses};
use hypervector::tier::{self, KernelTier};
use hypervector::{BinaryHypervector, BundleAccumulator};
use robusthd::{KernelConfig, TrainedModel};

/// Dimensions straddling the word boundary and the 8-word block boundary.
const DIMS: &[usize] = &[
    1, 63, 64, 65, 127, 128, 129, 511, 512, 513, 1000, 1024, 1025,
];

const WORD_BITS: usize = 64;

fn words_for(dim: usize) -> usize {
    dim.div_ceil(WORD_BITS)
}

/// Bit-by-bit Hamming distance over a range — the slowest, most obviously
/// correct oracle, independent of every word-level kernel under test.
fn bitwise_hamming_range(
    a: &BinaryHypervector,
    b: &BinaryHypervector,
    start: usize,
    end: usize,
) -> usize {
    (start..end).filter(|&i| a.get(i) != b.get(i)).count()
}

#[test]
fn tiers_agree_on_pairwise_hamming_across_block_boundaries() {
    let mut sampler = HypervectorSampler::seed_from(801);
    for &dim in DIMS {
        let a = sampler.binary(dim);
        let b = sampler.flip_noise(&a, 0.3);
        let aw = a.bits().words();
        let bw = b.bits().words();
        let reference = tier::hamming_words(KernelTier::Reference, aw, bw);
        let wide = tier::hamming_words(KernelTier::Wide, aw, bw);
        assert_eq!(wide, reference, "dim={dim}");
        assert_eq!(
            reference,
            bitwise_hamming_range(&a, &b, 0, dim),
            "dim={dim}"
        );
        assert_eq!(a.hamming_distance(&b), reference, "dim={dim} (active tier)");
    }
}

#[test]
fn tiers_agree_on_masked_ranges_at_word_boundaries() {
    // Satellite: the shared masked-range helper behind both
    // `hamming_distance_range` and `chunked_hamming`, probed at every
    // word-boundary seam of the small (63/64/65) and block-boundary
    // (511/512/513) dimensions.
    let mut sampler = HypervectorSampler::seed_from(802);
    for &dim in &[63usize, 64, 65, 511, 512, 513] {
        let a = sampler.binary(dim);
        let b = sampler.flip_noise(&a, 0.4);
        let aw = a.bits().words();
        let bw = b.bits().words();
        let mut marks: Vec<usize> = vec![0, 1, 62, 63, 64, 65, 127, 128, 129, 448, 511, 512, 513]
            .into_iter()
            .filter(|&m| m <= dim)
            .collect();
        marks.push(dim);
        marks.dedup();
        for &start in &marks {
            for &end in marks.iter().filter(|&&e| e >= start) {
                let oracle = bitwise_hamming_range(&a, &b, start, end);
                for tier in KernelTier::ALL {
                    let got = tier::hamming_range_words(tier, aw, bw, start, end);
                    assert_eq!(
                        got,
                        oracle,
                        "dim={dim} range=({start},{end}) tier={}",
                        tier.name()
                    );
                }
                assert_eq!(a.hamming_distance_range(&b, start, end), oracle);
            }
        }
    }
}

#[test]
fn tiers_agree_on_class_major_scoring() {
    let mut sampler = HypervectorSampler::seed_from(803);
    for &dim in &[65usize, 511, 512, 513, 1025] {
        let classes: Vec<_> = (0..7).map(|_| sampler.binary(dim)).collect();
        let query = sampler.flip_noise(&classes[2], 0.2);
        let packed = PackedClasses::from_classes(&classes);
        let fused = packed.hamming_all(&query);
        for tier in KernelTier::ALL {
            let per_class: Vec<usize> = classes
                .iter()
                .map(|c| tier::hamming_words(tier, c.bits().words(), query.bits().words()))
                .collect();
            assert_eq!(fused, per_class, "dim={dim} tier={}", tier.name());
        }
    }
}

#[test]
fn chunked_hamming_matches_reference_tier_per_chunk() {
    let mut sampler = HypervectorSampler::seed_from(804);
    for &dim in &[63usize, 65, 511, 512, 513, 1000] {
        let a = sampler.binary(dim);
        let b = sampler.flip_noise(&a, 0.25);
        for chunks in [1usize, 2, 7, 8, 16] {
            let fused = chunked_hamming(&a, &b, chunks);
            let per_chunk: Vec<usize> = (0..chunks)
                .map(|i| {
                    let start = i * dim / chunks;
                    let end = (i + 1) * dim / chunks;
                    tier::hamming_range_words(
                        KernelTier::Reference,
                        a.bits().words(),
                        b.bits().words(),
                        start,
                        end,
                    )
                })
                .collect();
            assert_eq!(fused, per_chunk, "dim={dim} chunks={chunks}");
            let total: usize = fused.iter().sum();
            assert_eq!(total, a.hamming_distance(&b), "dim={dim} chunks={chunks}");
        }
    }
}

#[test]
fn similarities_are_float_bit_exact_against_reference_tier() {
    // The acceptance bar: not "close", identical down to `f64::to_bits`.
    // Both tiers produce the same exact integer distances, and the float
    // expression applied to them is the same, so the similarity floats must
    // be indistinguishable.
    let mut sampler = HypervectorSampler::seed_from(805);
    for &dim in &[511usize, 512, 513, 1024] {
        let classes: Vec<_> = (0..5).map(|_| sampler.binary(dim)).collect();
        let query = sampler.flip_noise(&classes[0], 0.15);
        let model = TrainedModel::from_classes(classes.clone());
        let sims = model.similarities(&query);
        for (c, class) in classes.iter().enumerate() {
            let d = tier::hamming_words(
                KernelTier::Reference,
                class.bits().words(),
                query.bits().words(),
            );
            let expected = 1.0 - d as f64 / dim as f64;
            assert_eq!(sims[c].to_bits(), expected.to_bits(), "dim={dim} class={c}");
        }
    }
}

/// Builds majority bit-planes through the tier-explicit ripple kernels.
fn planes_via(tier: KernelTier, inputs: &[BinaryHypervector], words: usize) -> Vec<Vec<u64>> {
    let mut planes = vec![vec![0u64; words]; 12];
    for hv in inputs {
        tier::ripple_add(tier, &mut planes, hv.bits().words());
    }
    planes
}

#[test]
fn tiers_agree_on_majority_ripple_planes() {
    const TIE_PARITY: u64 = 0x5555_5555_5555_5555;
    let mut sampler = HypervectorSampler::seed_from(807);
    for &dim in &[63usize, 65, 511, 512, 513, 1025] {
        for count in [1usize, 2, 7, 64, 129] {
            let inputs: Vec<_> = (0..count).map(|_| sampler.binary(dim)).collect();
            let words = words_for(dim);
            let reference = planes_via(KernelTier::Reference, &inputs, words);
            let wide = planes_via(KernelTier::Wide, &inputs, words);
            assert_eq!(wide, reference, "dim={dim} count={count}");

            // Word-major fused bind+bundle: bind each input to a key and
            // take the majority in one call, checked against binding and
            // bundling one vector at a time.
            let key = sampler.binary(dim);
            let pairs: Vec<(&[u64], &[u64])> = inputs
                .iter()
                .map(|hv| (hv.bits().words(), key.bits().words()))
                .collect();
            let tie_mask = if count.is_multiple_of(2) {
                TIE_PARITY
            } else {
                0
            };
            let mut ref_bound = vec![0u64; words];
            let mut wide_bound = vec![0u64; words];
            tier::bind_majority_words(KernelTier::Reference, &pairs, tie_mask, &mut ref_bound);
            tier::bind_majority_words(KernelTier::Wide, &pairs, tie_mask, &mut wide_bound);
            assert_eq!(wide_bound, ref_bound, "bind dim={dim} count={count}");
            let mut oracle = BundleAccumulator::new(dim);
            for hv in &inputs {
                oracle.add(&hv.bind(&key));
            }
            assert_eq!(
                ref_bound,
                oracle.to_binary().bits().words(),
                "bind dim={dim} count={count}"
            );
        }
    }
}

#[test]
fn tiers_agree_on_bipolar_counts_and_threshold() {
    let mut sampler = HypervectorSampler::seed_from(808);
    const TIE_PARITY: u64 = 0x5555_5555_5555_5555;
    for &dim in &[65usize, 511, 512, 513] {
        for count in [2usize, 8, 57, 128] {
            let inputs: Vec<_> = (0..count).map(|_| sampler.binary(dim)).collect();
            let words = words_for(dim);
            let planes = planes_via(KernelTier::Reference, &inputs, words);
            let added = count as i64;

            let mut ref_counts = vec![0i64; dim];
            let mut wide_counts = vec![0i64; dim];
            tier::bipolar_accumulate(KernelTier::Reference, &planes, added, &mut ref_counts);
            tier::bipolar_accumulate(KernelTier::Wide, &planes, added, &mut wide_counts);
            assert_eq!(wide_counts, ref_counts, "counts dim={dim} count={count}");
            for (i, &c) in ref_counts.iter().enumerate() {
                let ones = inputs.iter().filter(|hv| hv.get(i)).count() as i64;
                assert_eq!(
                    c,
                    2 * ones - added,
                    "oracle dim={dim} count={count} bit {i}"
                );
            }

            let half = (count as u64) / 2;
            for tie_mask in [0u64, TIE_PARITY] {
                let mut reference = vec![0u64; words];
                let mut wide = vec![0u64; words];
                tier::threshold_words(
                    KernelTier::Reference,
                    &planes,
                    half,
                    tie_mask,
                    &mut reference,
                );
                tier::threshold_words(KernelTier::Wide, &planes, half, tie_mask, &mut wide);
                assert_eq!(
                    wide, reference,
                    "threshold dim={dim} count={count} tie_mask={tie_mask:#x}"
                );
            }
        }
    }
}

#[test]
fn kernel_config_selects_and_installs_tiers() {
    // `KernelConfig` is the registered owner of `ROBUSTHD_KERNEL_TIER`: the
    // default is the wide tier, `reference()` is the scalar opt-out, and
    // installation is first-caller-wins and sticky for the process.
    assert_eq!(KernelConfig::default(), KernelConfig::wide());
    assert_eq!(KernelConfig::wide().tier, KernelTier::Wide);
    assert_eq!(KernelConfig::reference().tier, KernelTier::Reference);
    assert_eq!(KernelConfig::wide().tier.name(), "wide");
    assert_eq!(KernelConfig::reference().tier.name(), "reference");

    // Whichever install wins the race (another test in this binary may have
    // resolved the tier already), repeat installs return the same winner.
    let first = KernelConfig::wide().install();
    let second = KernelConfig::reference().install();
    let third = KernelConfig::from_env().install();
    assert_eq!(first, second);
    assert_eq!(second, third);
}
