use serde::{Deserialize, Serialize};
use std::fmt;

const WORD_BITS: usize = 64;

/// A dense, bit-addressable buffer backed by `u64` words.
///
/// `PackedBits` is the storage layer under [`crate::BinaryHypervector`]. It
/// exposes its raw words ([`PackedBits::words`] / [`PackedBits::words_mut`])
/// so that fault injectors can flip arbitrary stored bits, exactly as a
/// memory attack would on real hardware.
///
/// Bits beyond `len()` in the last word are kept at zero; every mutating
/// method restores this invariant so `count_ones` and Hamming distances never
/// see ghost bits.
///
/// # Example
///
/// ```
/// use hypervector::PackedBits;
///
/// let mut bits = PackedBits::zeros(130);
/// bits.set(0, true);
/// bits.set(129, true);
/// assert_eq!(bits.count_ones(), 2);
/// bits.flip(129);
/// assert_eq!(bits.count_ones(), 1);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PackedBits {
    words: Vec<u64>,
    len: usize,
}

impl PackedBits {
    /// Creates a buffer of `len` zero bits.
    pub fn zeros(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(WORD_BITS)],
            len,
        }
    }

    /// Creates a buffer of `len` one bits.
    pub fn ones(len: usize) -> Self {
        let mut bits = Self {
            words: vec![u64::MAX; len.div_ceil(WORD_BITS)],
            len,
        };
        bits.mask_tail();
        bits
    }

    /// Builds a buffer from a predicate over bit indices.
    ///
    /// # Example
    ///
    /// ```
    /// use hypervector::PackedBits;
    ///
    /// let even = PackedBits::from_fn(8, |i| i % 2 == 0);
    /// assert_eq!(even.count_ones(), 4);
    /// ```
    pub fn from_fn<F: FnMut(usize) -> bool>(len: usize, mut f: F) -> Self {
        let mut bits = Self::zeros(len);
        for i in 0..len {
            if f(i) {
                bits.set(i, true);
            }
        }
        bits
    }

    /// Builds a buffer from a slice of booleans.
    pub fn from_bools(bools: &[bool]) -> Self {
        Self::from_fn(bools.len(), |i| bools[i])
    }

    /// Number of bits stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the buffer holds zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads the bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    pub fn get(&self, index: usize) -> bool {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        (self.words[index / WORD_BITS] >> (index % WORD_BITS)) & 1 == 1 // audit:allow(panic): index asserted in range above
    }

    /// Writes the bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    pub fn set(&mut self, index: usize, value: bool) {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        let mask = 1u64 << (index % WORD_BITS);
        if value {
            self.words[index / WORD_BITS] |= mask; // audit:allow(panic): index asserted in range above
        } else {
            self.words[index / WORD_BITS] &= !mask; // audit:allow(panic): index asserted in range above
        }
    }

    /// Inverts the bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    pub fn flip(&mut self, index: usize) {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        self.words[index / WORD_BITS] ^= 1u64 << (index % WORD_BITS); // audit:allow(panic): index asserted in range above
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// XORs `other` into `self`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn xor_assign(&mut self, other: &Self) {
        assert_eq!(self.len, other.len, "length mismatch in xor_assign");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a ^= *b;
        }
    }

    /// Overwrites `self` with `a ^ b` without allocating — the scratch-reuse
    /// primitive under [`crate::BinaryHypervector::bind_into`].
    ///
    /// # Panics
    ///
    /// Panics if the three lengths differ.
    pub fn xor_from(&mut self, a: &Self, b: &Self) {
        assert_eq!(self.len, a.len, "length mismatch in xor_from");
        assert_eq!(self.len, b.len, "length mismatch in xor_from");
        for ((o, x), y) in self.words.iter_mut().zip(&a.words).zip(&b.words) {
            *o = x ^ y;
        }
    }

    /// Number of positions where `self` and `other` differ, computed by the
    /// active execution tier's XOR+popcount kernel
    /// ([`crate::tier::hamming_words`]).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn hamming(&self, other: &Self) -> usize {
        assert_eq!(self.len, other.len, "length mismatch in hamming");
        crate::tier::hamming_words(crate::tier::active(), &self.words, &other.words)
    }

    /// Number of differing positions restricted to the bit range
    /// `start..end`, through the tier-dispatched masked-range kernel
    /// ([`crate::tier::hamming_range_words`]).
    ///
    /// Used by the RobustHD recovery framework to score individual chunks of
    /// a class hypervector without materialising sub-vectors.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ or `start > end` or `end > len()`.
    pub fn hamming_range(&self, other: &Self, start: usize, end: usize) -> usize {
        assert_eq!(self.len, other.len, "length mismatch in hamming_range");
        assert!(
            start <= end && end <= self.len,
            "invalid range {start}..{end}"
        );
        crate::tier::hamming_range_words(
            crate::tier::active(),
            &self.words,
            &other.words,
            start,
            end,
        )
    }

    /// Copies the bit range `start..end` from `src` into `self`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ or the range is invalid.
    pub fn copy_range_from(&mut self, src: &Self, start: usize, end: usize) {
        assert_eq!(self.len, src.len, "length mismatch in copy_range_from");
        assert!(
            start <= end && end <= self.len,
            "invalid range {start}..{end}"
        );
        for i in start..end {
            self.set(i, src.get(i));
        }
    }

    /// Writes all of `src`'s bits into `self` starting at bit `offset`,
    /// using word-level shifts instead of per-bit copies.
    ///
    /// Bits outside `offset..offset + src.len()` are untouched. This is the
    /// splicing primitive under the word-level memory-image writers: a class
    /// hypervector lands at an arbitrary (often unaligned) bit offset of the
    /// image in `O(words)` operations.
    ///
    /// # Panics
    ///
    /// Panics if `offset + src.len() > self.len()`.
    pub fn write_bits(&mut self, offset: usize, src: &Self) {
        assert!(
            offset + src.len <= self.len,
            "write_bits range {offset}..{} out of range {}",
            offset + src.len,
            self.len
        );
        if src.len == 0 {
            return;
        }
        // Clear the destination range, then OR in the shifted source words.
        // Source ghost bits past `src.len()` are zero by invariant, so the
        // OR never spills outside the cleared range.
        let end = offset + src.len;
        let mut i = offset;
        while i < end {
            let word = i / WORD_BITS;
            let bit = i % WORD_BITS;
            let span = (WORD_BITS - bit).min(end - i);
            let mask = if span == WORD_BITS {
                u64::MAX
            } else {
                ((1u64 << span) - 1) << bit
            };
            self.words[word] &= !mask;
            i += span;
        }
        let w0 = offset / WORD_BITS;
        let shift = offset % WORD_BITS;
        if shift == 0 {
            for (i, &w) in src.words.iter().enumerate() {
                self.words[w0 + i] |= w;
            }
        } else {
            for (i, &w) in src.words.iter().enumerate() {
                self.words[w0 + i] |= w << shift;
                let spill = w >> (WORD_BITS - shift);
                if spill != 0 {
                    self.words[w0 + i + 1] |= spill;
                }
            }
        }
    }

    /// Extracts the bit range `start..start + len` into a new buffer, using
    /// word-level shifts instead of per-bit copies.
    ///
    /// Inverse of [`PackedBits::write_bits`]; the memory-image readers use
    /// it to slice class hypervectors back out of a packed image.
    ///
    /// # Panics
    ///
    /// Panics if `start + len > self.len()`.
    pub fn extract_bits(&self, start: usize, len: usize) -> Self {
        assert!(
            start + len <= self.len,
            "extract_bits range {start}..{} out of range {}",
            start + len,
            self.len
        );
        let mut out = Self::zeros(len);
        if len == 0 {
            return out;
        }
        let w0 = start / WORD_BITS;
        let shift = start % WORD_BITS;
        let out_words = out.words.len();
        if shift == 0 {
            out.words.copy_from_slice(&self.words[w0..w0 + out_words]);
        } else {
            for (j, out_word) in out.words.iter_mut().enumerate() {
                let lo = self.words[w0 + j] >> shift;
                let hi = match self.words.get(w0 + j + 1) {
                    Some(&w) => w << (WORD_BITS - shift),
                    None => 0,
                };
                *out_word = lo | hi;
            }
        }
        out.mask_tail();
        out
    }

    /// Borrows the backing words.
    ///
    /// Trailing bits of the final word beyond `len()` are always zero.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mutably borrows the backing words so callers (e.g. fault injectors)
    /// can flip stored bits in place.
    ///
    /// Callers that set bits beyond `len()` must not rely on them: the next
    /// mutating call through the typed API may clear them. Prefer flipping
    /// only bits below [`PackedBits::len`].
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Re-zeros any bits at positions `>= len()` in the last word.
    ///
    /// Call after writing through [`PackedBits::words_mut`] if out-of-range
    /// bits may have been touched.
    pub fn mask_tail(&mut self) {
        let tail = self.len % WORD_BITS;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Iterates over the bits as booleans.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            bits: self,
            next: 0,
        }
    }
}

impl fmt::Debug for PackedBits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PackedBits(len={}, ones={})",
            self.len,
            self.count_ones()
        )
    }
}

/// Iterator over the bits of a [`PackedBits`], produced by
/// [`PackedBits::iter`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    bits: &'a PackedBits,
    next: usize,
}

impl Iterator for Iter<'_> {
    type Item = bool;

    fn next(&mut self) -> Option<bool> {
        if self.next >= self.bits.len() {
            return None;
        }
        let bit = self.bits.get(self.next);
        self.next += 1;
        Some(bit)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.bits.len() - self.next;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl FromIterator<bool> for PackedBits {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let bools: Vec<bool> = iter.into_iter().collect();
        Self::from_bools(&bools)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_no_ones() {
        let bits = PackedBits::zeros(200);
        assert_eq!(bits.len(), 200);
        assert_eq!(bits.count_ones(), 0);
        assert!(!bits.is_empty());
    }

    #[test]
    fn ones_masks_tail() {
        let bits = PackedBits::ones(70);
        assert_eq!(bits.count_ones(), 70);
        // The backing store must not contain ghost bits past len.
        assert_eq!(bits.words()[1].count_ones(), 6);
    }

    #[test]
    fn set_get_flip_roundtrip() {
        let mut bits = PackedBits::zeros(100);
        bits.set(63, true);
        bits.set(64, true);
        assert!(bits.get(63));
        assert!(bits.get(64));
        assert!(!bits.get(65));
        bits.flip(63);
        assert!(!bits.get(63));
        assert_eq!(bits.count_ones(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        PackedBits::zeros(10).get(10);
    }

    #[test]
    fn xor_assign_is_bitwise() {
        let a = PackedBits::from_fn(130, |i| i % 2 == 0);
        let b = PackedBits::from_fn(130, |i| i % 3 == 0);
        let mut c = a.clone();
        c.xor_assign(&b);
        for i in 0..130 {
            assert_eq!(c.get(i), a.get(i) ^ b.get(i), "bit {i}");
        }
    }

    #[test]
    fn hamming_counts_differences() {
        let a = PackedBits::from_fn(128, |i| i < 64);
        let b = PackedBits::from_fn(128, |i| i < 32);
        assert_eq!(a.hamming(&b), 32);
        assert_eq!(a.hamming(&a), 0);
    }

    #[test]
    fn hamming_range_matches_bitwise_count() {
        let a = PackedBits::from_fn(300, |i| i % 5 == 0);
        let b = PackedBits::from_fn(300, |i| i % 7 == 0);
        for &(s, e) in &[
            (0usize, 300usize),
            (10, 200),
            (63, 65),
            (64, 128),
            (299, 300),
            (50, 50),
        ] {
            let expected = (s..e).filter(|&i| a.get(i) != b.get(i)).count();
            assert_eq!(a.hamming_range(&b, s, e), expected, "range {s}..{e}");
        }
    }

    #[test]
    fn copy_range_from_copies_only_range() {
        let src = PackedBits::ones(100);
        let mut dst = PackedBits::zeros(100);
        dst.copy_range_from(&src, 20, 40);
        assert_eq!(dst.count_ones(), 20);
        assert!(dst.get(20) && dst.get(39));
        assert!(!dst.get(19) && !dst.get(40));
    }

    #[test]
    fn from_iterator_collects() {
        let bits: PackedBits = (0..10).map(|i| i >= 5).collect();
        assert_eq!(bits.len(), 10);
        assert_eq!(bits.count_ones(), 5);
    }

    #[test]
    fn iter_roundtrips() {
        let bits = PackedBits::from_fn(77, |i| i % 3 == 1);
        let collected: PackedBits = bits.iter().collect();
        assert_eq!(collected, bits);
        assert_eq!(bits.iter().len(), 77);
    }

    #[test]
    fn mask_tail_clears_ghost_bits() {
        let mut bits = PackedBits::zeros(65);
        bits.words_mut()[1] = u64::MAX;
        bits.mask_tail();
        assert_eq!(bits.count_ones(), 1);
        assert!(bits.get(64));
    }

    #[test]
    fn write_extract_roundtrip_at_any_alignment() {
        let src = PackedBits::from_fn(100, |i| i % 3 == 0);
        for &offset in &[0usize, 1, 37, 63, 64, 65, 127, 200] {
            let mut dst = PackedBits::ones(300);
            dst.write_bits(offset, &src);
            assert_eq!(dst.extract_bits(offset, 100), src, "offset {offset}");
            for i in 0..300 {
                let expected = if i < offset || i >= offset + 100 {
                    true
                } else {
                    src.get(i - offset)
                };
                assert_eq!(dst.get(i), expected, "bit {i} at offset {offset}");
            }
        }
    }

    #[test]
    fn write_bits_matches_per_bit_sets() {
        let src = PackedBits::from_fn(193, |i| i % 7 < 3);
        let mut fast = PackedBits::from_fn(500, |i| i % 2 == 0);
        let mut slow = fast.clone();
        fast.write_bits(131, &src);
        for i in 0..193 {
            slow.set(131 + i, src.get(i));
        }
        assert_eq!(fast, slow);
    }

    #[test]
    fn write_bits_keeps_tail_invariant() {
        let mut dst = PackedBits::zeros(130);
        dst.write_bits(65, &PackedBits::ones(65));
        assert_eq!(dst.count_ones(), 65);
        assert_eq!(dst.words()[2] >> 2, 0, "ghost bits past len must stay 0");
    }

    #[test]
    fn extract_bits_of_zero_length_is_empty() {
        let bits = PackedBits::ones(64);
        assert!(bits.extract_bits(10, 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn write_bits_out_of_range_panics() {
        let mut dst = PackedBits::zeros(64);
        dst.write_bits(1, &PackedBits::zeros(64));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn extract_bits_out_of_range_panics() {
        PackedBits::zeros(64).extract_bits(1, 64);
    }

    #[test]
    fn debug_is_nonempty() {
        let repr = format!("{:?}", PackedBits::zeros(8));
        assert!(repr.contains("PackedBits"));
    }
}
