//! Property-based tests of the hypervector algebra.

use hypervector::random::HypervectorSampler;
use hypervector::{
    BinaryHypervector, BundleAccumulator, IntHypervector, PackedBits, PackedClasses, Precision,
};
use proptest::prelude::*;

fn hv(bits: &[bool]) -> BinaryHypervector {
    BinaryHypervector::from_fn(bits.len(), |i| bits[i])
}

proptest! {
    /// Range Hamming distances over a partition sum to the total distance,
    /// for arbitrary partition points.
    #[test]
    fn range_distance_partitions(
        a in prop::collection::vec(any::<bool>(), 100),
        b in prop::collection::vec(any::<bool>(), 100),
        cut in 0usize..=100,
    ) {
        let (ha, hb) = (hv(&a), hv(&b));
        let left = ha.hamming_distance_range(&hb, 0, cut);
        let right = ha.hamming_distance_range(&hb, cut, 100);
        prop_assert_eq!(left + right, ha.hamming_distance(&hb));
    }

    /// copy_range_from makes the range identical and leaves the rest alone.
    #[test]
    fn copy_range_semantics(
        a in prop::collection::vec(any::<bool>(), 80),
        b in prop::collection::vec(any::<bool>(), 80),
        bounds in (0usize..=80, 0usize..=80),
    ) {
        let (lo, hi) = (bounds.0.min(bounds.1), bounds.0.max(bounds.1));
        let mut dst = PackedBits::from_bools(&a);
        let src = PackedBits::from_bools(&b);
        dst.copy_range_from(&src, lo, hi);
        for i in 0..80 {
            let expected = if (lo..hi).contains(&i) { b[i] } else { a[i] };
            prop_assert_eq!(dst.get(i), expected, "bit {}", i);
        }
    }

    /// Bundling then subtracting every vector returns the accumulator to
    /// its empty state.
    #[test]
    fn bundle_subtract_cancels(
        rows in prop::collection::vec(prop::collection::vec(any::<bool>(), 48), 1..6),
    ) {
        let mut acc = BundleAccumulator::new(48);
        for row in &rows {
            acc.add(&hv(row));
        }
        for row in &rows {
            acc.subtract(&hv(row));
        }
        prop_assert!(acc.counts().iter().all(|&c| c == 0));
        prop_assert_eq!(acc.added(), 0);
    }

    /// Metamorphic: XOR-binding both operands with the same hypervector is
    /// a distance-preserving isometry of Hamming space.
    #[test]
    fn binding_both_sides_preserves_hamming(
        a in prop::collection::vec(any::<bool>(), 1..200),
        seed in 0u64..1000,
    ) {
        let mut sampler = HypervectorSampler::seed_from(seed);
        let ha = hv(&a);
        let hb = sampler.binary(a.len());
        let key = sampler.binary(a.len());
        prop_assert_eq!(
            ha.bind(&key).hamming_distance(&hb.bind(&key)),
            ha.hamming_distance(&hb)
        );
    }

    /// Metamorphic: complementing every bit of both operands (binding with
    /// the all-ones vector) preserves Hamming distance exactly.
    #[test]
    fn complement_preserves_hamming(
        a in prop::collection::vec(any::<bool>(), 1..200),
        b_seed in 0u64..1000,
    ) {
        let ha = hv(&a);
        let hb = HypervectorSampler::seed_from(b_seed).binary(a.len());
        let ones = BinaryHypervector::ones(a.len());
        prop_assert_eq!(
            ha.bind(&ones).hamming_distance(&hb.bind(&ones)),
            ha.hamming_distance(&hb)
        );
    }

    /// The fused all-classes kernel agrees with pairwise Hamming distance
    /// for every class, at arbitrary dimensions and class counts.
    #[test]
    fn fused_hamming_all_matches_pairwise(
        dim in 1usize..300,
        classes in 1usize..8,
        seed in 0u64..1000,
    ) {
        let mut sampler = HypervectorSampler::seed_from(seed);
        let class_hvs: Vec<_> = (0..classes).map(|_| sampler.binary(dim)).collect();
        let query = sampler.binary(dim);
        let packed = PackedClasses::from_classes(&class_hvs);
        let fused = packed.hamming_all(&query);
        for (i, class) in class_hvs.iter().enumerate() {
            prop_assert_eq!(fused[i], query.hamming_distance(class), "class {}", i);
        }
    }

    /// The fused chunked kernel agrees with per-range Hamming distance for
    /// every chunk of the standard partition, and the chunks sum to the
    /// total distance: at small chunk counts, at the escalation ladder's
    /// 20 and 40, and at counts above the dimension (some chunks empty).
    #[test]
    fn fused_chunked_hamming_matches_ranges(
        a in prop::collection::vec(any::<bool>(), 1..260),
        pick in 0usize..16,
        extra in 1usize..70,
        b_seed in 0u64..1000,
    ) {
        let ha = hv(&a);
        let hb = HypervectorSampler::seed_from(b_seed).binary(a.len());
        let dim = a.len();
        let chunks = match pick {
            0..=11 => pick + 1,
            12 => 20,
            13 => 40,
            _ => dim + extra,
        };
        let per_chunk = hypervector::similarity::chunked_hamming(&ha, &hb, chunks);
        prop_assert_eq!(per_chunk.len(), chunks);
        for (i, &d) in per_chunk.iter().enumerate() {
            let (start, end) = (i * dim / chunks, (i + 1) * dim / chunks);
            prop_assert_eq!(d, ha.hamming_distance_range(&hb, start, end), "chunk {}", i);
        }
        prop_assert_eq!(per_chunk.iter().sum::<usize>(), ha.hamming_distance(&hb));
    }

    /// Multibit quantization roundtrip is lossless: any vector of in-range
    /// element values survives pack → from_packed bit-exactly, at every
    /// precision.
    #[test]
    fn multibit_pack_roundtrip_lossless(
        bits in 1u8..=8,
        raw in prop::collection::vec(-128i32..=127, 1..64),
    ) {
        let precision = Precision::new(bits).expect("valid");
        // Project arbitrary values into the precision's range; 1-bit
        // precision stores signs only, so zero is not representable.
        let values: Vec<i32> = if bits == 1 {
            raw.iter().map(|&v| if v >= 0 { 1 } else { -1 }).collect()
        } else {
            raw.iter()
                .map(|&v| v.clamp(precision.min_value(), precision.max_value()))
                .collect()
        };
        let original = IntHypervector::from_values(values, precision);
        let decoded =
            IntHypervector::from_packed(&original.pack(), original.dim(), precision);
        prop_assert_eq!(decoded.values(), original.values());
    }
}
