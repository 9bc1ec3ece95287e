//! Bit-sliced carry-save majority bundling.
//!
//! [`crate::BundleAccumulator`] is the *reference* bundler: one signed
//! `i64` counter per dimension, updated one bit at a time — `O(64)` scalar
//! operations per 64-dimension word per bundled vector. That exactness is
//! worth keeping as the semantic definition, but it is far more machinery
//! than a majority vote needs: bundling `F` vectors only ever has to
//! distinguish counts in `0..=F`, which fit in `ceil(log2(F + 1))` bits.
//!
//! [`CarrySaveMajority`] keeps those count bits *transposed* into
//! bit-planes: plane `j` is a packed word array holding bit `j` of every
//! dimension's ones-count. Adding a vector is then a word-parallel
//! ripple-carry increment across the planes — 64 dimensions advance per
//! bitwise operation, and because a binary counter increment touches
//! amortized `O(1)` planes, bundling `F` vectors costs amortized `O(F)`
//! word operations per word (worst case `O(F log F)`), against the scalar
//! path's `O(64 F)`.
//!
//! The majority threshold is extracted without ever materializing the
//! counts: a word-parallel magnitude comparison against `F / 2` yields
//! `count > F/2` and `count == F/2` masks per word, and the tie mask is
//! resolved by index parity — reproducing
//! [`BundleAccumulator::to_binary`](crate::BundleAccumulator::to_binary)'s
//! deterministic tie-break bit for bit.
//! The property suite (`tests/bitslice_props.rs`) proves the equivalence
//! across dimensions, feature counts, and tie patterns.
//!
//! [`CarrySaveMajority`] is the *incremental* form — it keeps whole-vector
//! planes between adds, which training's bundles need. When every input
//! is known up front, as the bound pairs `B_k ⊕ L(f_k)` of one record
//! encoding are, [`bind_majority`] is the *one-shot* form: it binds and
//! counts every pair of one 8-word block into a stack-resident counter and
//! thresholds the block at once (word-major), so no plane is allocated and
//! the counts never leave L1.
//!
//! # Example
//!
//! ```
//! use hypervector::{BundleAccumulator, CarrySaveMajority, random::HypervectorSampler};
//!
//! let mut sampler = HypervectorSampler::seed_from(11);
//! let inputs: Vec<_> = (0..10).map(|_| sampler.binary(777)).collect();
//!
//! let mut reference = BundleAccumulator::new(777);
//! let mut fast = CarrySaveMajority::new(777);
//! for hv in &inputs {
//!     reference.add(hv);
//!     fast.add(hv);
//! }
//! // Bit-for-bit identical, including the even-count tie-break.
//! assert_eq!(fast.to_binary(), reference.to_binary());
//! ```

use crate::binary::BinaryHypervector;
use crate::bitvec::PackedBits;
use std::fmt;

const WORD_BITS: usize = 64;

/// Mask of the bits at even in-word offsets. Words start at bit `w * 64`
/// (always even), so an even in-word offset is exactly an even global
/// dimension index — the positions [`BundleAccumulator::to_binary`] breaks
/// ties toward one.
///
/// [`BundleAccumulator::to_binary`]: crate::BundleAccumulator::to_binary
const TIE_PARITY: u64 = 0x5555_5555_5555_5555;

/// Word-parallel majority bundler over bit-sliced population counts.
///
/// Semantically identical to adding the same vectors to a
/// [`crate::BundleAccumulator`] and thresholding with `to_binary`; see the
/// [module docs](self) for the representation.
#[derive(Clone, PartialEq, Eq)]
pub struct CarrySaveMajority {
    /// `planes[j][w]` holds bit `j` of the ones-count of every dimension in
    /// word `w`. Planes grow on demand: with `n` vectors added there are
    /// exactly `bit_length(n)` planes, enough to represent counts `0..=n`.
    planes: Vec<Vec<u64>>,
    dim: usize,
    words: usize,
    added: u64,
}

impl CarrySaveMajority {
    /// Creates an empty bundler of dimension `dim`.
    pub fn new(dim: usize) -> Self {
        Self {
            planes: Vec::new(),
            dim,
            words: dim.div_ceil(WORD_BITS),
            added: 0,
        }
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of hypervectors bundled so far.
    pub fn added(&self) -> u64 {
        self.added
    }

    /// Number of bit-planes currently allocated
    /// (`bit_length(added)` — the counter width the counts require).
    pub fn planes(&self) -> usize {
        self.planes.len()
    }

    /// Ensures the planes can represent counts up to `added + 1`, then
    /// bumps `added`.
    fn grow_for_add(&mut self) {
        self.added += 1;
        // `m` planes represent counts 0..=2^m - 1; grow while the new
        // maximum count needs another bit.
        while (self.added >> self.planes.len()) != 0 {
            self.planes.push(vec![0; self.words]);
        }
    }

    /// Bundles `hv` (+1 to every dimension where `hv` has a one-bit).
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn add(&mut self, hv: &BinaryHypervector) {
        assert_eq!(self.dim, hv.dim(), "dimension mismatch in add");
        self.grow_for_add();
        crate::tier::ripple_add(crate::tier::active(), &mut self.planes, hv.bits().words());
    }

    /// Adds each dimension's *bipolar* count — `2·ones − added`, i.e. +1
    /// per bundled one-bit and −1 per bundled zero-bit — into `counts`.
    ///
    /// This is the bridge from the bit-sliced representation back to the
    /// exact signed counters of [`crate::BundleAccumulator`]: bundling a
    /// set of vectors here and accumulating into zeroed counts yields
    /// *exactly* the accumulator's `counts()`, because the per-dimension
    /// ones-count is recovered losslessly from the planes and the bipolar
    /// identity is plain integer arithmetic. The reconstruction costs
    /// `O(planes)` word reads per word — amortized `O(log F)` per
    /// dimension after bundling `F` vectors — so it is a rounding error
    /// next to the adds it summarizes.
    ///
    /// # Panics
    ///
    /// Panics if `counts.len() != dim()`.
    pub fn accumulate_bipolar(&self, counts: &mut [i64]) {
        assert_eq!(
            counts.len(),
            self.dim,
            "count buffer length mismatch in accumulate_bipolar"
        );
        let added = self.added as i64;
        crate::tier::bipolar_accumulate(crate::tier::active(), &self.planes, added, counts);
    }

    /// Majority threshold, bit-identical to
    /// [`crate::BundleAccumulator::to_binary`] over the same inputs: a
    /// dimension becomes 1 when its ones-count exceeds half the vectors
    /// added; exact ties (even counts only) resolve to the dimension's
    /// index parity.
    pub fn to_binary(&self) -> BinaryHypervector {
        // A dimension's bipolar count is `2*ones - added`, so
        //   bipolar > 0  ⇔  ones > added / 2   (integer half works for both
        //   parities: odd `added` makes `ones > (added-1)/2` ⇔ `2*ones >=
        //   added + 1`), and
        //   bipolar == 0 ⇔  `added` even and ones == added / 2.
        let half = self.added / 2;
        let tie_mask = if self.added.is_multiple_of(2) {
            TIE_PARITY
        } else {
            0
        };
        let mut bits = PackedBits::zeros(self.dim);
        crate::tier::threshold_words(
            crate::tier::active(),
            &self.planes,
            half,
            tie_mask,
            bits.words_mut(),
        );
        // The tie mask sets ghost bits past `dim` in the last word (their
        // count is 0 == half when nothing was added); clear them.
        bits.mask_tail();
        BinaryHypervector::from_bits(bits)
    }
}

/// Majority-bundles a non-empty set of hypervectors in one call,
/// bit-identical to the [`crate::BundleAccumulator`] reference.
///
/// # Panics
///
/// Panics if `inputs` is empty or dimensions disagree.
///
/// # Example
///
/// ```
/// use hypervector::{bitslice, random::HypervectorSampler};
///
/// let mut sampler = HypervectorSampler::seed_from(3);
/// let proto = sampler.binary(4096);
/// let noisy: Vec<_> = (0..9).map(|_| sampler.flip_noise(&proto, 0.2)).collect();
/// let refs: Vec<_> = noisy.iter().collect();
/// assert!(bitslice::majority(&refs).similarity(&proto) > 0.8);
/// ```
pub fn majority(inputs: &[&BinaryHypervector]) -> BinaryHypervector {
    let Some(first) = inputs.first() else {
        panic!("majority of an empty set");
    };
    let mut acc = CarrySaveMajority::new(first.dim());
    for hv in inputs {
        acc.add(hv);
    }
    acc.to_binary()
}

/// Majority-bundles the bound pairs `a_k ⊕ b_k` of packed word images in
/// one word-major pass, bit-identical to adding every `a_k.bind(b_k)` to a
/// [`crate::BundleAccumulator`] and thresholding with `to_binary` — the
/// one-shot fused bind+bundle every record encoding runs
/// (`robusthd::RecordEncoder::encode`).
///
/// Unlike [`CarrySaveMajority`], nothing is kept between calls: the
/// kernel ([`crate::tier::bind_majority_words`]) counts every pair of one
/// 8-word block into a stack-resident counter and thresholds the block at
/// once, so the output vector is the only allocation.
///
/// # Panics
///
/// Panics if any slice does not hold exactly `dim.div_ceil(64)` words.
///
/// # Example
///
/// ```
/// use hypervector::{bitslice, BundleAccumulator, random::HypervectorSampler};
///
/// let mut sampler = HypervectorSampler::seed_from(5);
/// let keys: Vec<_> = (0..6).map(|_| sampler.binary(300)).collect();
/// let values: Vec<_> = (0..6).map(|_| sampler.binary(300)).collect();
/// let pairs: Vec<(&[u64], &[u64])> = keys
///     .iter()
///     .zip(&values)
///     .map(|(k, v)| (k.bits().words(), v.bits().words()))
///     .collect();
///
/// let mut reference = BundleAccumulator::new(300);
/// for (k, v) in keys.iter().zip(&values) {
///     reference.add(&k.bind(v));
/// }
/// assert_eq!(bitslice::bind_majority(300, &pairs), reference.to_binary());
/// ```
pub fn bind_majority(dim: usize, pairs: &[(&[u64], &[u64])]) -> BinaryHypervector {
    let tie_mask = if pairs.len().is_multiple_of(2) {
        TIE_PARITY
    } else {
        0
    };
    let mut bits = PackedBits::zeros(dim);
    crate::tier::bind_majority_words(crate::tier::active(), pairs, tie_mask, bits.words_mut());
    // An empty pair list ties every dimension, ghost bits included.
    bits.mask_tail();
    BinaryHypervector::from_bits(bits)
}

impl fmt::Debug for CarrySaveMajority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CarrySaveMajority(dim={}, added={}, planes={})",
            self.dim,
            self.added,
            self.planes.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accumulator::BundleAccumulator;
    use crate::random::HypervectorSampler;

    fn both(dim: usize, inputs: &[BinaryHypervector]) -> (BinaryHypervector, BinaryHypervector) {
        let mut reference = BundleAccumulator::new(dim);
        let mut fast = CarrySaveMajority::new(dim);
        for hv in inputs {
            reference.add(hv);
            fast.add(hv);
        }
        (reference.to_binary(), fast.to_binary())
    }

    #[test]
    fn empty_bundle_matches_reference_parity_pattern() {
        let (reference, fast) = both(130, &[]);
        assert_eq!(fast, reference);
        assert!(fast.get(0) && !fast.get(1), "ties break to even indices");
    }

    #[test]
    fn single_vector_is_identity() {
        let mut s = HypervectorSampler::seed_from(1);
        let hv = s.binary(257);
        let (reference, fast) = both(257, std::slice::from_ref(&hv));
        assert_eq!(fast, hv);
        assert_eq!(fast, reference);
    }

    #[test]
    fn matches_reference_across_feature_counts() {
        let mut s = HypervectorSampler::seed_from(2);
        let dim = 193; // non-multiple of 64
        for count in [2usize, 3, 4, 5, 8, 16, 17, 64, 65] {
            let inputs: Vec<_> = (0..count).map(|_| s.binary(dim)).collect();
            let (reference, fast) = both(dim, &inputs);
            assert_eq!(fast, reference, "count={count}");
        }
    }

    #[test]
    fn even_count_ties_resolve_by_parity() {
        // A vector and its complement: every dimension ties at ones == 1.
        let a = BinaryHypervector::from_fn(100, |i| i % 3 == 0);
        let b = BinaryHypervector::from_fn(100, |i| i % 3 != 0);
        let (reference, fast) = both(100, &[a, b]);
        assert_eq!(fast, reference);
        for i in 0..100 {
            assert_eq!(fast.get(i), i % 2 == 0, "dim {i}");
        }
    }

    #[test]
    fn bind_majority_fuses_bind() {
        let mut s = HypervectorSampler::seed_from(4);
        for count in [0usize, 1, 2, 9, 10] {
            let pairs: Vec<_> = (0..count).map(|_| (s.binary(200), s.binary(200))).collect();
            let words: Vec<(&[u64], &[u64])> = pairs
                .iter()
                .map(|(a, b)| (a.bits().words(), b.bits().words()))
                .collect();
            let mut reference = BundleAccumulator::new(200);
            for (a, b) in &pairs {
                reference.add(&a.bind(b));
            }
            assert_eq!(
                bind_majority(200, &words),
                reference.to_binary(),
                "count={count}"
            );
        }
    }

    #[test]
    fn plane_count_tracks_bit_length() {
        let mut s = HypervectorSampler::seed_from(5);
        let mut acc = CarrySaveMajority::new(64);
        for expect_planes in [1usize, 2, 2, 3, 3, 3, 3, 4] {
            acc.add(&s.binary(64));
            assert_eq!(acc.planes(), expect_planes, "after {} adds", acc.added());
        }
    }

    #[test]
    fn majority_helper_matches_accumulator() {
        let mut s = HypervectorSampler::seed_from(6);
        let inputs: Vec<_> = (0..6).map(|_| s.binary(129)).collect();
        let refs: Vec<_> = inputs.iter().collect();
        let (reference, _) = both(129, &inputs);
        assert_eq!(majority(&refs), reference);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn add_rejects_mismatched_dim() {
        CarrySaveMajority::new(64).add(&BinaryHypervector::zeros(65));
    }

    #[test]
    #[should_panic(expected = "word count mismatch")]
    fn bind_majority_rejects_short_slice() {
        bind_majority(130, &[(&[0u64; 3][..], &[0u64; 2][..])]);
    }
}
