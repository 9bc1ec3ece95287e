//! Differential + property suite proving the bit-sliced carry-save majority
//! kernel ([`CarrySaveMajority`]) equals the scalar [`BundleAccumulator`]
//! reference bit for bit: across non-multiple-of-64 dimensions, feature
//! counts 1..=257, and adversarial tie patterns.

use hypervector::random::HypervectorSampler;
use hypervector::similarity::PackedClasses;
use hypervector::tier::{self, KernelTier};
use hypervector::{bitslice, BinaryHypervector, BundleAccumulator, CarrySaveMajority};

/// Dimensions straddling word boundaries, deliberately including
/// non-multiples of 64.
const DIMS: &[usize] = &[1, 2, 63, 64, 65, 127, 128, 130, 191, 257, 1000];

fn bundle_both(dim: usize, inputs: &[BinaryHypervector]) -> (BinaryHypervector, BinaryHypervector) {
    let mut reference = BundleAccumulator::new(dim);
    let mut fast = CarrySaveMajority::new(dim);
    for hv in inputs {
        reference.add(hv);
        fast.add(hv);
    }
    assert_eq!(fast.added(), inputs.len() as u64);
    (reference.to_binary(), fast.to_binary())
}

#[test]
fn every_feature_count_up_to_257_matches_reference() {
    // The full range the record encoder sees across the paper's datasets
    // (largest feature count is 617 for ISOLET, but 1..=257 crosses every
    // plane-growth boundary: 1, 2, 4, ..., 256).
    let mut sampler = HypervectorSampler::seed_from(101);
    let dim = 193;
    let pool: Vec<_> = (0..257).map(|_| sampler.binary(dim)).collect();
    for count in 1..=257usize {
        let (reference, fast) = bundle_both(dim, &pool[..count]);
        assert_eq!(fast, reference, "diverged at feature count {count}");
    }
}

#[test]
fn random_bundles_match_across_dimensions() {
    let mut sampler = HypervectorSampler::seed_from(102);
    for &dim in DIMS {
        for count in [1usize, 2, 3, 5, 16, 31, 64, 100] {
            let inputs: Vec<_> = (0..count).map(|_| sampler.binary(dim)).collect();
            let (reference, fast) = bundle_both(dim, &inputs);
            assert_eq!(fast, reference, "dim={dim} count={count}");
        }
    }
}

#[test]
fn correlated_bundles_match() {
    // Noisy copies of one prototype: counts pile up near the extremes,
    // exercising the high planes rather than the balanced middle.
    let mut sampler = HypervectorSampler::seed_from(103);
    for &dim in &[65usize, 130, 1000] {
        let proto = sampler.binary(dim);
        for count in [2usize, 9, 32, 57] {
            let inputs: Vec<_> = (0..count)
                .map(|_| sampler.flip_noise(&proto, 0.3))
                .collect();
            let (reference, fast) = bundle_both(dim, &inputs);
            assert_eq!(fast, reference, "dim={dim} count={count}");
        }
    }
}

#[test]
fn all_tie_bundle_matches_parity_tie_break() {
    // Complement pairs force an exact tie in every dimension — the
    // hardest case for threshold extraction.
    for &dim in DIMS {
        for pairs in [1usize, 2, 5] {
            let mut sampler = HypervectorSampler::seed_from(104 + pairs as u64);
            let mut inputs = Vec::new();
            for _ in 0..pairs {
                let a = sampler.binary(dim);
                let b = BinaryHypervector::from_fn(dim, |i| !a.get(i));
                inputs.push(a);
                inputs.push(b);
            }
            let (reference, fast) = bundle_both(dim, &inputs);
            assert_eq!(fast, reference, "dim={dim} pairs={pairs}");
            for i in 0..dim {
                assert_eq!(fast.get(i), i % 2 == 0, "dim={dim} bit {i}");
            }
        }
    }
}

#[test]
fn partial_tie_patterns_match() {
    // Structured inputs where some dimensions tie and others do not.
    for &dim in &[64usize, 100, 130] {
        for count in [2usize, 4, 6, 8] {
            let inputs: Vec<_> = (0..count)
                .map(|v| BinaryHypervector::from_fn(dim, |i| (i + v) % (count / 2 + 1) == 0))
                .collect();
            let (reference, fast) = bundle_both(dim, &inputs);
            assert_eq!(fast, reference, "dim={dim} count={count}");
        }
    }
}

#[test]
fn extreme_inputs_match() {
    for &dim in &[63usize, 64, 65] {
        for count in [1usize, 2, 3, 4] {
            let ones = vec![BinaryHypervector::ones(dim); count];
            let (reference, fast) = bundle_both(dim, &ones);
            assert_eq!(fast, reference, "all-ones dim={dim} count={count}");
            assert_eq!(fast, BinaryHypervector::ones(dim));

            let zeros = vec![BinaryHypervector::zeros(dim); count];
            let (reference, fast) = bundle_both(dim, &zeros);
            assert_eq!(fast, reference, "all-zeros dim={dim} count={count}");
            assert_eq!(fast, BinaryHypervector::zeros(dim));
        }
    }
}

/// Word slices of bound pairs, the shape `bitslice::bind_majority` takes.
fn pair_words(pairs: &[(BinaryHypervector, BinaryHypervector)]) -> Vec<(&[u64], &[u64])> {
    pairs
        .iter()
        .map(|(a, b)| (a.bits().words(), b.bits().words()))
        .collect()
}

/// Runs the word-major kernel on both tiers and the one-shot entry point,
/// checks all three agree, and returns the entry point's result.
fn bind_majority_all_tiers(dim: usize, pairs: &[(&[u64], &[u64])]) -> BinaryHypervector {
    let fused = bitslice::bind_majority(dim, pairs);
    let tie_mask = if pairs.len().is_multiple_of(2) {
        0x5555_5555_5555_5555
    } else {
        0
    };
    for t in KernelTier::ALL {
        let mut out = vec![0u64; dim.div_ceil(64)];
        tier::bind_majority_words(t, pairs, tie_mask, &mut out);
        // Ghost lanes count 0, below any nonzero half: only an empty
        // pair list can set them.
        if !pairs.is_empty() {
            assert_eq!(out, fused.bits().words(), "tier {} dim={dim}", t.name());
        }
    }
    fused
}

#[test]
fn fused_bind_majority_equals_bind_then_add() {
    // Every feature count 1..=257 — odd counts leave the last pair out of
    // the carry-save tree, even counts tie — on a dimension with one full
    // 8-word block, a partial last block and a partial last word.
    let dim = 8 * 64 + 2 * 64 + 5;
    let mut sampler = HypervectorSampler::seed_from(105);
    let pool: Vec<_> = (0..257)
        .map(|_| (sampler.binary(dim), sampler.binary(dim)))
        .collect();
    let words = pair_words(&pool);
    let mut reference = BundleAccumulator::new(dim);
    for (count, (a, b)) in (1..).zip(&pool) {
        reference.add(&a.bind(b));
        assert_eq!(
            bind_majority_all_tiers(dim, &words[..count]),
            reference.to_binary(),
            "count={count}"
        );
    }
}

#[test]
fn fused_bind_majority_matches_across_dimensions() {
    let mut sampler = HypervectorSampler::seed_from(108);
    for &dim in DIMS {
        for count in [0usize, 1, 2, 7, 8, 9, 16, 33] {
            let pairs: Vec<_> = (0..count)
                .map(|_| (sampler.binary(dim), sampler.binary(dim)))
                .collect();
            let mut reference = BundleAccumulator::new(dim);
            for (a, b) in &pairs {
                reference.add(&a.bind(b));
            }
            assert_eq!(
                bind_majority_all_tiers(dim, &pair_words(&pairs)),
                reference.to_binary(),
                "dim={dim} count={count}"
            );
        }
    }
}

#[test]
fn fused_bind_majority_all_ties_break_by_parity() {
    // Each key bound to a value and to its complement: the two bound
    // vectors are complements, so every dimension ties.
    let mut sampler = HypervectorSampler::seed_from(109);
    for &dim in &[65usize, 577, 1000] {
        for ties in [1usize, 4, 5] {
            let mut pairs = Vec::new();
            for _ in 0..ties {
                let key = sampler.binary(dim);
                let value = sampler.binary(dim);
                let flipped = BinaryHypervector::from_fn(dim, |i| !value.get(i));
                pairs.push((key.clone(), value));
                pairs.push((key, flipped));
            }
            let fused = bind_majority_all_tiers(dim, &pair_words(&pairs));
            for i in 0..dim {
                assert_eq!(fused.get(i), i % 2 == 0, "dim={dim} ties={ties} bit {i}");
            }
        }
    }
}

#[test]
fn majority_helper_equals_reference() {
    let mut sampler = HypervectorSampler::seed_from(106);
    let inputs: Vec<_> = (0..13).map(|_| sampler.binary(257)).collect();
    let refs: Vec<&BinaryHypervector> = inputs.iter().collect();
    let (reference, _) = bundle_both(257, &inputs);
    assert_eq!(bitslice::majority(&refs), reference);
}

#[test]
fn accumulate_bipolar_recovers_exact_counts() {
    // Absorbing the planes into a fresh accumulator must reproduce the
    // scalar accumulator's signed counters exactly — the invariant the
    // bit-sliced training engine rests on.
    let mut sampler = HypervectorSampler::seed_from(108);
    for &dim in DIMS {
        for count in [1usize, 2, 63, 64, 65, 129] {
            let inputs: Vec<_> = (0..count).map(|_| sampler.binary(dim)).collect();
            let mut reference = BundleAccumulator::new(dim);
            let mut planes = CarrySaveMajority::new(dim);
            for hv in &inputs {
                reference.add(hv);
                planes.add(hv);
            }
            let mut absorbed = BundleAccumulator::new(dim);
            absorbed.absorb(&planes);
            assert_eq!(absorbed, reference, "dim={dim} count={count}");
        }
    }
}

#[test]
fn add_batch_equals_per_sample_adds() {
    let mut sampler = HypervectorSampler::seed_from(109);
    for &dim in &[1usize, 65, 127, 128, 193, 1000] {
        for count in [0usize, 1, 5, 64, 100] {
            let inputs: Vec<_> = (0..count).map(|_| sampler.binary(dim)).collect();
            let mut reference = BundleAccumulator::new(dim);
            for hv in &inputs {
                reference.add(hv);
            }
            let mut batched = BundleAccumulator::new(dim);
            batched.add_batch(&inputs);
            assert_eq!(batched, reference, "dim={dim} count={count}");
        }
    }
}

#[test]
fn add_batch_composes_with_prior_and_later_adds() {
    // A batch landing in a non-empty accumulator, followed by scalar
    // retraining-style updates, must equal the fully scalar history.
    let mut sampler = HypervectorSampler::seed_from(110);
    let dim = 130;
    let before: Vec<_> = (0..7).map(|_| sampler.binary(dim)).collect();
    let batch: Vec<_> = (0..40).map(|_| sampler.binary(dim)).collect();
    let after: Vec<_> = (0..3).map(|_| sampler.binary(dim)).collect();
    let mut reference = BundleAccumulator::new(dim);
    let mut fast = BundleAccumulator::new(dim);
    for hv in &before {
        reference.add(hv);
        fast.add(hv);
    }
    for hv in &batch {
        reference.add(hv);
    }
    fast.add_batch(&batch);
    for hv in &after {
        reference.add(hv);
        reference.subtract(&before[0]);
        fast.add(hv);
        fast.subtract(&before[0]);
    }
    assert_eq!(fast, reference);
}

#[test]
fn merge_equals_sequential_adds() {
    // Sharded bundling: partial accumulators merged in any order equal
    // one accumulator fed every sample (integer addition commutes).
    let mut sampler = HypervectorSampler::seed_from(111);
    let dim = 257;
    let inputs: Vec<_> = (0..90).map(|_| sampler.binary(dim)).collect();
    let mut reference = BundleAccumulator::new(dim);
    for hv in &inputs {
        reference.add(hv);
    }
    let mut partials: Vec<BundleAccumulator> = Vec::new();
    for shard in inputs.chunks(32) {
        let mut partial = BundleAccumulator::new(dim);
        partial.add_batch(shard);
        partials.push(partial);
    }
    let mut merged = BundleAccumulator::new(dim);
    for partial in &partials {
        merged.merge(partial);
    }
    assert_eq!(merged, reference);
    // Reverse merge order: identical result.
    let mut reversed = BundleAccumulator::new(dim);
    for partial in partials.iter().rev() {
        reversed.merge(partial);
    }
    assert_eq!(reversed, reference);
}

#[test]
#[should_panic(expected = "dimension mismatch")]
fn merge_with_mismatched_dim_panics() {
    let mut a = BundleAccumulator::new(64);
    let b = BundleAccumulator::new(65);
    a.merge(&b);
}

#[test]
#[should_panic(expected = "dimension mismatch")]
fn absorb_with_mismatched_dim_panics() {
    let mut a = BundleAccumulator::new(64);
    let planes = CarrySaveMajority::new(65);
    a.absorb(&planes);
}

/// Dimensions straddling the Wide tier's 8-word (512-bit) block boundary.
const BLOCK_DIMS: &[usize] = &[447, 448, 449, 511, 512, 513, 575, 576, 1025];

#[test]
fn all_tie_bundles_match_across_tiers_at_block_boundaries() {
    // Tier-crossed version of the all-tie case: every tier x dimensions
    // straddling the 512-bit wide-block boundary x complement pairs. The
    // planes are driven through the tier-explicit ripple kernels (the
    // high-level `CarrySaveMajority` dispatches on the process-wide active
    // tier, which a test binary can only resolve once), and the extracted
    // majority must equal the scalar accumulator's bit for bit.
    const TIE_PARITY: u64 = 0x5555_5555_5555_5555;
    for tier in KernelTier::ALL {
        for &dim in BLOCK_DIMS {
            for pairs in [1usize, 3, 6] {
                let mut sampler = HypervectorSampler::seed_from(900 + pairs as u64);
                let mut reference = BundleAccumulator::new(dim);
                let words = dim.div_ceil(64);
                let mut planes = vec![vec![0u64; words]; 6];
                let mut added = 0u64;
                for _ in 0..pairs {
                    let a = sampler.binary(dim);
                    let b = BinaryHypervector::from_fn(dim, |i| !a.get(i));
                    for hv in [&a, &b] {
                        reference.add(hv);
                        tier::ripple_add(tier, &mut planes, hv.bits().words());
                        added += 1;
                    }
                }
                let mut out = vec![0u64; words];
                tier::threshold_words(tier, &planes, added / 2, TIE_PARITY, &mut out);
                if dim % 64 != 0 {
                    let keep = (1u64 << (dim % 64)) - 1;
                    if let Some(last) = out.last_mut() {
                        *last &= keep;
                    }
                }
                let expected = reference.to_binary();
                assert_eq!(
                    &out[..],
                    expected.bits().words(),
                    "tier={} dim={dim} pairs={pairs}",
                    tier.name()
                );
                // Every dimension ties, so parity alone decides each bit.
                for i in 0..dim {
                    assert_eq!(expected.get(i), i % 2 == 0, "dim={dim} bit {i}");
                }
            }
        }
    }
}

#[test]
fn block_permutation_never_changes_hamming_all() {
    // Metamorphic check on the class-major scoring kernel: permuting
    // whole 512-bit blocks of the query and of every class *by the same
    // permutation* must leave every distance — and hence their sum —
    // unchanged, because Hamming distance is a sum over independent bit
    // positions. A wide kernel that mixed state across block boundaries
    // would break this.
    const BLOCK_BITS: usize = 512;
    let dim = 4 * BLOCK_BITS;
    let perm = [2usize, 0, 3, 1];
    let permute = |hv: &BinaryHypervector| {
        BinaryHypervector::from_fn(dim, |i| {
            let (block, offset) = (i / BLOCK_BITS, i % BLOCK_BITS);
            hv.get(perm[block] * BLOCK_BITS + offset)
        })
    };
    let mut sampler = HypervectorSampler::seed_from(910);
    let classes: Vec<_> = (0..6).map(|_| sampler.binary(dim)).collect();
    let query = sampler.flip_noise(&classes[3], 0.2);

    let original = PackedClasses::from_classes(&classes).hamming_all(&query);
    let shuffled_classes: Vec<_> = classes.iter().map(&permute).collect();
    let shuffled = PackedClasses::from_classes(&shuffled_classes).hamming_all(&permute(&query));
    assert_eq!(shuffled, original);
    assert_eq!(
        shuffled.iter().sum::<usize>(),
        original.iter().sum::<usize>()
    );
}

#[test]
fn bind_majority_against_zero_keys_equals_add() {
    // Binding to an all-zero key is the identity, so the one-shot fused
    // kernel and the incremental bundler must agree on the same inputs.
    let mut sampler = HypervectorSampler::seed_from(107);
    let unbound = BinaryHypervector::zeros(130);
    for count in [1usize, 2, 8, 21] {
        let inputs: Vec<_> = (0..count).map(|_| sampler.binary(130)).collect();
        let mut fast = CarrySaveMajority::new(130);
        for hv in &inputs {
            fast.add(hv);
        }
        let pairs: Vec<(&[u64], &[u64])> = inputs
            .iter()
            .map(|hv| (hv.bits().words(), unbound.bits().words()))
            .collect();
        assert_eq!(
            bitslice::bind_majority(130, &pairs),
            fast.to_binary(),
            "count={count}"
        );
    }
}
