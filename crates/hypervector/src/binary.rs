use crate::bitvec::PackedBits;
use crate::error::DimensionMismatchError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A binary hypervector in `{0,1}^D`.
///
/// Binary hypervectors are the data representation RobustHD computes with:
/// information is spread holographically across all `D` dimensions, so any
/// single bit carries negligible information and bit flips degrade similarity
/// gracefully instead of exploding values the way fixed-point weights do.
///
/// The two HDC operators the record encoder needs are provided:
///
/// * **binding** ([`BinaryHypervector::bind`]) — element-wise XOR; associates
///   two vectors into one dissimilar to both; self-inverse.
/// * **bundling** — superposition by majority, via
///   [`crate::BundleAccumulator`].
///
/// # Example
///
/// ```
/// use hypervector::{BinaryHypervector, random::HypervectorSampler};
///
/// let mut sampler = HypervectorSampler::seed_from(42);
/// let position = sampler.binary(4096);
/// let value = sampler.binary(4096);
/// let bound = position.bind(&value);
/// // Binding produces a vector dissimilar to both inputs...
/// assert!(bound.hamming_distance(&position) > 1500);
/// // ...and unbinding recovers the other operand exactly.
/// assert_eq!(bound.bind(&position), value);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BinaryHypervector {
    bits: PackedBits,
}

impl BinaryHypervector {
    /// The all-zeros hypervector of dimension `dim`.
    pub fn zeros(dim: usize) -> Self {
        Self {
            bits: PackedBits::zeros(dim),
        }
    }

    /// The all-ones hypervector of dimension `dim`.
    pub fn ones(dim: usize) -> Self {
        Self {
            bits: PackedBits::ones(dim),
        }
    }

    /// Builds a hypervector from a bit predicate.
    pub fn from_fn<F: FnMut(usize) -> bool>(dim: usize, f: F) -> Self {
        Self {
            bits: PackedBits::from_fn(dim, f),
        }
    }

    /// Wraps an existing bit buffer.
    pub fn from_bits(bits: PackedBits) -> Self {
        Self { bits }
    }

    /// Dimensionality `D`.
    pub fn dim(&self) -> usize {
        self.bits.len()
    }

    /// Reads one component.
    ///
    /// # Panics
    ///
    /// Panics if `index >= dim()`.
    pub fn get(&self, index: usize) -> bool {
        self.bits.get(index)
    }

    /// Writes one component.
    ///
    /// # Panics
    ///
    /// Panics if `index >= dim()`.
    pub fn set(&mut self, index: usize, value: bool) {
        self.bits.set(index, value);
    }

    /// Flips one component (models a single bit-flip fault).
    ///
    /// # Panics
    ///
    /// Panics if `index >= dim()`.
    pub fn flip(&mut self, index: usize) {
        self.bits.flip(index);
    }

    /// Number of set components.
    pub fn count_ones(&self) -> usize {
        self.bits.count_ones()
    }

    /// Binding: element-wise XOR. Self-inverse, distance-preserving.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ; see [`BinaryHypervector::try_bind`] for a
    /// fallible variant.
    pub fn bind(&self, other: &Self) -> Self {
        let mut out = self.clone();
        out.bits.xor_assign(&other.bits);
        out
    }

    /// Fallible binding.
    ///
    /// # Errors
    ///
    /// Returns [`DimensionMismatchError`] if the dimensions differ.
    pub fn try_bind(&self, other: &Self) -> Result<Self, DimensionMismatchError> {
        if self.dim() != other.dim() {
            return Err(DimensionMismatchError::new(self.dim(), other.dim()));
        }
        Ok(self.bind(other))
    }

    /// Binding into a caller-provided scratch vector: `out = self ⊕ other`
    /// with no allocation. The scalar reference encoder reuses one scratch
    /// vector per encoding instead of allocating a fresh bind per feature.
    ///
    /// # Panics
    ///
    /// Panics if the three dimensions differ.
    pub fn bind_into(&self, other: &Self, out: &mut Self) {
        out.bits.xor_from(&self.bits, &other.bits);
    }

    /// Hamming distance to `other` (number of differing components).
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn hamming_distance(&self, other: &Self) -> usize {
        self.bits.hamming(&other.bits)
    }

    /// Hamming distance restricted to components `start..end`.
    ///
    /// This is the chunk-level score used by RobustHD's noisy-chunk
    /// detection.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ or the range is invalid.
    pub fn hamming_distance_range(&self, other: &Self, start: usize, end: usize) -> usize {
        self.bits.hamming_range(&other.bits, start, end)
    }

    /// Normalized similarity in `[0, 1]`: `1 - hamming/D`.
    ///
    /// Identical vectors score 1.0; complementary vectors 0.0; unrelated
    /// random vectors ≈ 0.5.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn similarity(&self, other: &Self) -> f64 {
        if self.dim() == 0 {
            return 1.0;
        }
        1.0 - self.hamming_distance(other) as f64 / self.dim() as f64
    }

    /// Borrows the underlying bit buffer.
    pub fn bits(&self) -> &PackedBits {
        &self.bits
    }

    /// Mutably borrows the underlying bit buffer (raw memory image used by
    /// fault injection).
    pub fn bits_mut(&mut self) -> &mut PackedBits {
        &mut self.bits
    }

    /// Consumes the hypervector, returning its bit buffer.
    pub fn into_bits(self) -> PackedBits {
        self.bits
    }
}

impl fmt::Debug for BinaryHypervector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "BinaryHypervector(dim={}, ones={})",
            self.dim(),
            self.count_ones()
        )
    }
}

impl From<PackedBits> for BinaryHypervector {
    fn from(bits: PackedBits) -> Self {
        Self::from_bits(bits)
    }
}

impl FromIterator<bool> for BinaryHypervector {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        Self::from_bits(iter.into_iter().collect())
    }
}

impl BinaryHypervector {
    /// Iterates over the components as booleans.
    ///
    /// # Example
    ///
    /// ```
    /// use hypervector::BinaryHypervector;
    ///
    /// let hv = BinaryHypervector::from_fn(4, |i| i % 2 == 0);
    /// let bits: Vec<bool> = hv.iter().collect();
    /// assert_eq!(bits, [true, false, true, false]);
    /// ```
    pub fn iter(&self) -> crate::bitvec::Iter<'_> {
        self.bits.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::HypervectorSampler;

    #[test]
    fn bind_is_self_inverse() {
        let mut sampler = HypervectorSampler::seed_from(1);
        let a = sampler.binary(1000);
        let b = sampler.binary(1000);
        assert_eq!(a.bind(&b).bind(&b), a);
    }

    #[test]
    fn bind_is_commutative() {
        let mut sampler = HypervectorSampler::seed_from(2);
        let a = sampler.binary(512);
        let b = sampler.binary(512);
        assert_eq!(a.bind(&b), b.bind(&a));
    }

    #[test]
    fn bind_preserves_distance() {
        let mut sampler = HypervectorSampler::seed_from(3);
        let a = sampler.binary(2048);
        let b = sampler.binary(2048);
        let k = sampler.binary(2048);
        assert_eq!(
            a.hamming_distance(&b),
            a.bind(&k).hamming_distance(&b.bind(&k))
        );
    }

    #[test]
    fn try_bind_rejects_mismatched_dims() {
        let a = BinaryHypervector::zeros(10);
        let b = BinaryHypervector::zeros(11);
        assert!(a.try_bind(&b).is_err());
        assert!(a.try_bind(&a).is_ok());
    }

    #[test]
    fn similarity_bounds() {
        let a = BinaryHypervector::zeros(100);
        let b = BinaryHypervector::ones(100);
        assert_eq!(a.similarity(&a), 1.0);
        assert_eq!(a.similarity(&b), 0.0);
    }

    #[test]
    fn similarity_of_empty_is_one() {
        let a = BinaryHypervector::zeros(0);
        assert_eq!(a.similarity(&a), 1.0);
    }

    #[test]
    fn range_distance_sums_to_total() {
        let mut sampler = HypervectorSampler::seed_from(5);
        let a = sampler.binary(1000);
        let b = sampler.binary(1000);
        let partial: usize = (0..10)
            .map(|c| a.hamming_distance_range(&b, c * 100, (c + 1) * 100))
            .sum();
        assert_eq!(partial, a.hamming_distance(&b));
    }

    #[test]
    fn flip_changes_exactly_one_bit() {
        let mut sampler = HypervectorSampler::seed_from(6);
        let a = sampler.binary(256);
        let mut flipped = a.clone();
        flipped.flip(200);
        assert_eq!(a.hamming_distance(&flipped), 1);
    }

    #[test]
    fn collect_and_iter_roundtrip() {
        let mut sampler = HypervectorSampler::seed_from(8);
        let hv = sampler.binary(200);
        let copy: BinaryHypervector = hv.iter().collect();
        assert_eq!(copy, hv);
    }
}
