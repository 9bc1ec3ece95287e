//! Similarity kernels shared across the workspace.
//!
//! Binary hypervectors compare by Hamming distance; integer hypervectors by
//! bipolar dot product; real-valued vectors (used by the baselines) by dot
//! and cosine. All kernels are plain functions so callers can compose them
//! with any storage.

use crate::binary::BinaryHypervector;

/// Class hypervectors packed into one contiguous class-major word buffer.
///
/// The inference hot path — Hamming distance of a query against every class
/// vector — walks the words of each class in turn. Storing all classes in a
/// single allocation (class 0's words, then class 1's, ...) keeps that walk
/// sequential in memory, so [`PackedClasses::hamming_all_into`] streams
/// through the buffer in one pass instead of chasing one heap allocation
/// per class.
///
/// Distances are exact integer popcounts over the same packed words the
/// per-pair [`BinaryHypervector::hamming_distance`] reads, so results are
/// bit-identical to calling it per class.
///
/// # Example
///
/// ```
/// use hypervector::{similarity::PackedClasses, BinaryHypervector};
///
/// let classes = [BinaryHypervector::zeros(8), BinaryHypervector::ones(8)];
/// let packed = PackedClasses::from_classes(&classes);
/// let query = BinaryHypervector::from_fn(8, |i| i < 3);
/// assert_eq!(packed.hamming_all(&query), vec![3, 5]);
/// ```
#[derive(Debug, Clone)]
pub struct PackedClasses {
    words: Vec<u64>,
    words_per_class: usize,
    num_classes: usize,
    dim: usize,
}

impl PackedClasses {
    /// Packs class hypervectors (all of the same dimension) class-major.
    ///
    /// # Panics
    ///
    /// Panics if `classes` is empty or the dimensions disagree.
    pub fn from_classes(classes: &[BinaryHypervector]) -> Self {
        assert!(
            !classes.is_empty(),
            "PackedClasses needs at least one class"
        );
        let dim = classes[0].dim(); // audit:allow(panic): non-emptiness asserted above
        let words_per_class = classes[0].bits().words().len(); // audit:allow(panic): words() length is uniform across classes
        let mut words = Vec::with_capacity(words_per_class * classes.len());
        for class in classes {
            assert_eq!(class.dim(), dim, "dimension mismatch in PackedClasses");
            words.extend_from_slice(class.bits().words());
        }
        Self {
            words,
            words_per_class,
            num_classes: classes.len(),
            dim,
        }
    }

    /// Dimension of every packed class.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of packed classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Words per packed class (each class occupies this many contiguous
    /// words of [`Self::words`]).
    pub fn words_per_class(&self) -> usize {
        self.words_per_class
    }

    /// The class-major word buffer: class 0's words, then class 1's, and so
    /// on — the exact layout the tier scoring kernel
    /// ([`crate::tier::hamming_all_into_words`]) streams through. Exposed
    /// for benchmarks and differential harnesses that drive the kernel
    /// directly.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Hamming distance of `query` to every class, written into `out`
    /// (cleared first) in class order, through the active execution tier's
    /// class-major scoring kernel
    /// ([`crate::tier::hamming_all_into_words`]): the query words stay
    /// L1-resident while the class buffer streams through once.
    ///
    /// Reusing one `out` buffer across queries keeps the per-query cost to
    /// a single pass over the packed words with no allocation.
    ///
    /// # Panics
    ///
    /// Panics if the query dimension differs from the packed dimension.
    pub fn hamming_all_into(&self, query: &BinaryHypervector, out: &mut Vec<usize>) {
        assert_eq!(
            query.dim(),
            self.dim,
            "dimension mismatch in hamming_all_into"
        );
        crate::tier::hamming_all_into_words(
            crate::tier::active(),
            &self.words,
            self.words_per_class,
            self.num_classes,
            query.bits().words(),
            out,
        );
    }

    /// Hamming distance of `query` to every class, in class order.
    ///
    /// # Panics
    ///
    /// Panics if the query dimension differs from the packed dimension.
    pub fn hamming_all(&self, query: &BinaryHypervector) -> Vec<usize> {
        let mut out = Vec::new();
        self.hamming_all_into(query, &mut out);
        out
    }
}

/// Per-chunk Hamming distances of `a` vs `b` for `chunks` equal spans, all
/// from a single pass over the packed words.
///
/// Chunk `i` covers bits `[i*dim/chunks, (i+1)*dim/chunks)` — the same
/// bounds RobustHD's chunk-fault localization uses — and the result is
/// bit-identical to calling
/// [`BinaryHypervector::hamming_distance_range`] once per chunk: both are
/// exact popcounts of `a ^ b` over the same bit positions.
///
/// # Panics
///
/// Panics if the dimensions differ or `chunks` is zero.
///
/// # Example
///
/// ```
/// use hypervector::{similarity::chunked_hamming, BinaryHypervector};
///
/// let a = BinaryHypervector::from_fn(10, |i| i < 4);
/// let b = BinaryHypervector::zeros(10);
/// assert_eq!(chunked_hamming(&a, &b, 2), vec![4, 0]);
/// ```
pub fn chunked_hamming(a: &BinaryHypervector, b: &BinaryHypervector, chunks: usize) -> Vec<usize> {
    let mut out = Vec::new();
    chunked_hamming_into(a, b, chunks, &mut out);
    out
}

/// [`chunked_hamming`] into a caller-owned buffer (cleared first) — the
/// scratch-reuse form for one-off scans such as the chunk-fault oracle
/// `robusthd::batch::scan_chunk_faults`.
///
/// One pass: every word is XORed and popcounted once into a running
/// prefix count, and each chunk boundary reads that prefix plus one masked
/// popcount of the word it falls inside. A chunk's distance is the
/// difference of the prefixes at its two boundaries. Every call derives
/// the boundaries again (one integer division each); a caller that scans
/// many vectors at one split uses [`ChunkedHamming`], which caches them.
///
/// # Panics
///
/// Panics if the dimensions differ or `chunks` is zero.
// audit:allow(panic): a boundary's word index is below the word count whenever its in-word offset is nonzero
pub fn chunked_hamming_into(
    a: &BinaryHypervector,
    b: &BinaryHypervector,
    chunks: usize,
    out: &mut Vec<usize>,
) {
    assert_eq!(a.dim(), b.dim(), "dimension mismatch in chunked_hamming");
    assert!(chunks > 0, "chunked_hamming needs at least one chunk");
    let dim = a.dim();
    let a_words = a.bits().words();
    let b_words = b.bits().words();
    out.clear();
    out.reserve(chunks);
    // `counted` is the popcount of `a ^ b` over words `0..word`.
    let mut word = 0;
    let mut counted = 0usize;
    let mut previous = 0usize;
    for chunk in 0..chunks {
        let end = (chunk + 1) * dim / chunks;
        let end_word = end / 64;
        while word < end_word {
            counted += (a_words[word] ^ b_words[word]).count_ones() as usize;
            word += 1;
        }
        let offset = end % 64;
        let prefix = if offset == 0 {
            counted
        } else {
            let mask = (1u64 << offset) - 1;
            counted + ((a_words[end_word] ^ b_words[end_word]) & mask).count_ones() as usize
        };
        out.push(prefix - previous);
        previous = prefix;
    }
}

/// [`chunked_hamming`] at one fixed `(dim, chunks)` split, with the chunk
/// boundaries worked out once instead of on every call.
///
/// Each boundary is cached as the word it falls in plus the mask of the
/// bits below it in that word. A call popcounts every word of `a ^ b`
/// into a reused buffer (a plain loop the compiler vectorises), takes the
/// running prefix, and reads each chunk's distance as the difference of
/// the prefixes at its two boundaries, each boundary adding one masked
/// popcount of the word it falls in — the same exact integers as
/// [`chunked_hamming_into`], with no division and no allocation.
///
/// # Example
///
/// ```
/// use hypervector::{similarity::{chunked_hamming, ChunkedHamming}, BinaryHypervector};
///
/// let a = BinaryHypervector::from_fn(100, |i| i % 3 == 0);
/// let b = BinaryHypervector::zeros(100);
/// let mut split = ChunkedHamming::new(100, 7);
/// let mut out = [0; 7];
/// split.distances_into(&a, &b, &mut out);
/// assert_eq!(out.to_vec(), chunked_hamming(&a, &b, 7));
/// ```
#[derive(Debug, Clone)]
pub struct ChunkedHamming {
    dim: usize,
    /// Per chunk, its end boundary: the word the boundary falls in and
    /// the mask of the bits below it there (zero on a word edge).
    ends: Vec<(usize, u64)>,
    /// Scratch: the popcount of `a ^ b` per word, then the running prefix
    /// (`prefix[w]` counts words `0..w`).
    popcounts: Vec<u32>,
    prefix: Vec<usize>,
}

impl ChunkedHamming {
    /// Caches the boundaries of `chunks` spans over `dim` bits — chunk `i`
    /// covers `[i*dim/chunks, (i+1)*dim/chunks)`, as in [`chunked_hamming`].
    ///
    /// # Panics
    ///
    /// Panics if `chunks` is zero.
    pub fn new(dim: usize, chunks: usize) -> Self {
        assert!(chunks > 0, "chunked_hamming needs at least one chunk");
        let ends = (1..=chunks)
            .map(|chunk| {
                let end = chunk * dim / chunks;
                (end / 64, (1u64 << (end % 64)) - 1)
            })
            .collect();
        let words = dim.div_ceil(64);
        Self {
            dim,
            ends,
            popcounts: vec![0; words],
            prefix: vec![0; words + 1],
        }
    }

    /// The dimension the split is for.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The number of chunks.
    pub fn chunks(&self) -> usize {
        self.ends.len()
    }

    /// Per-chunk Hamming distances of `a` and `b`, written to `out` in
    /// chunk order. Equal to [`chunked_hamming_into`] on the same vectors.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is not of the split's dimension, or `out` is not
    /// `chunks` long.
    // audit:allow(panic): a boundary with a nonzero mask lies inside the dimension's word count
    pub fn distances_into(
        &mut self,
        a: &BinaryHypervector,
        b: &BinaryHypervector,
        out: &mut [usize],
    ) {
        assert!(
            a.dim() == self.dim && b.dim() == self.dim,
            "dimension mismatch in chunked_hamming"
        );
        assert_eq!(out.len(), self.ends.len(), "one distance per chunk");
        let (a, b) = (a.bits().words(), b.bits().words());
        for ((count, &x), &y) in self.popcounts.iter_mut().zip(a).zip(b) {
            *count = (x ^ y).count_ones();
        }
        let mut running = 0usize;
        for (prefix, &count) in self.prefix[1..].iter_mut().zip(&self.popcounts) {
            running += count as usize;
            *prefix = running;
        }
        let mut previous = 0usize;
        for (distance, &(word, mask)) in out.iter_mut().zip(&self.ends) {
            let mut at = self.prefix[word];
            if mask != 0 {
                at += ((a[word] ^ b[word]) & mask).count_ones() as usize;
            }
            *distance = at - previous;
            previous = at;
        }
    }
}

/// Hamming distance between two binary hypervectors.
///
/// Convenience re-export of [`BinaryHypervector::hamming_distance`] in
/// function form for use with iterator pipelines.
///
/// # Panics
///
/// Panics if the dimensions differ.
///
/// # Example
///
/// ```
/// use hypervector::{similarity, BinaryHypervector};
///
/// let a = BinaryHypervector::zeros(8);
/// let b = BinaryHypervector::ones(8);
/// assert_eq!(similarity::hamming(&a, &b), 8);
/// ```
pub fn hamming(a: &BinaryHypervector, b: &BinaryHypervector) -> usize {
    a.hamming_distance(b)
}

/// Normalized Hamming similarity in `[0, 1]`; see
/// [`BinaryHypervector::similarity`].
///
/// # Panics
///
/// Panics if the dimensions differ.
pub fn normalized(a: &BinaryHypervector, b: &BinaryHypervector) -> f64 {
    a.similarity(b)
}

/// Dot product of two real vectors.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "length mismatch in dot");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Cosine similarity of two real vectors; zero vectors score 0.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn cosine(a: &[f64], b: &[f64]) -> f64 {
    let denom = dot(a, a).sqrt() * dot(b, b).sqrt();
    // Strict `> 0.0` instead of a float `==` guard: it rejects the exact
    // zero of an all-zero vector and any NaN denominator in one branch.
    if denom > 0.0 {
        dot(a, b) / denom
    } else {
        0.0
    }
}

/// Softmax normalization of raw scores, returning a probability vector.
///
/// Used by RobustHD's prediction-confidence block to turn per-class
/// similarities into a confidence distribution. Numerically stabilized by
/// subtracting the maximum score. An empty input returns an empty vector.
///
/// # Example
///
/// ```
/// use hypervector::similarity::softmax;
///
/// let probs = softmax(&[1.0, 1.0]);
/// assert!((probs[0] - 0.5).abs() < 1e-12);
/// let sum: f64 = softmax(&[3.0, -1.0, 0.5]).iter().sum();
/// assert!((sum - 1.0).abs() < 1e-12);
/// ```
pub fn softmax(scores: &[f64]) -> Vec<f64> {
    let mut probabilities = scores.to_vec();
    softmax_in_place(&mut probabilities);
    probabilities
}

/// Softmax with inverse temperature `beta` (`beta = 1.0` is plain softmax;
/// larger `beta` sharpens the distribution).
///
/// RobustHD's confidence threshold is calibrated on sharpened similarities
/// because raw Hamming similarities of high-dimensional data cluster near
/// 0.5. The scaled scores go into the one vector that is returned.
pub fn softmax_with_temperature(scores: &[f64], beta: f64) -> Vec<f64> {
    let mut probabilities: Vec<f64> = scores.iter().map(|&s| s * beta).collect();
    softmax_in_place(&mut probabilities);
    probabilities
}

/// Replaces `scores` by their softmax: subtract the maximum, exponentiate,
/// divide by the sum. Empty input stays empty.
fn softmax_in_place(scores: &mut [f64]) {
    let Some(max) = scores.iter().copied().reduce(f64::max) else {
        return;
    };
    for s in scores.iter_mut() {
        *s = (*s - max).exp();
    }
    let sum: f64 = scores.iter().sum();
    for s in scores.iter_mut() {
        *s /= sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hamming_and_normalized_agree() {
        let a = BinaryHypervector::from_fn(10, |i| i < 5);
        let b = BinaryHypervector::zeros(10);
        assert_eq!(hamming(&a, &b), 5);
        assert!((normalized(&a, &b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn dot_matches_manual() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn cosine_of_parallel_is_one() {
        let a = [1.0, 2.0];
        let b = [2.0, 4.0];
        assert!((cosine(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_of_orthogonal_is_zero() {
        assert!(cosine(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-12);
    }

    #[test]
    fn cosine_of_zero_vector_is_zero() {
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn softmax_sums_to_one() {
        let probs = softmax(&[0.1, 0.9, 0.3, 0.2]);
        let sum: f64 = probs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn softmax_is_monotone() {
        let probs = softmax(&[0.1, 0.9, 0.3]);
        assert!(probs[1] > probs[2] && probs[2] > probs[0]);
    }

    #[test]
    fn softmax_handles_extreme_scores() {
        let probs = softmax(&[1000.0, -1000.0]);
        assert!(probs[0] > 0.999);
        assert!(probs.iter().all(|p| p.is_finite()));
    }

    #[test]
    fn softmax_empty_is_empty() {
        assert!(softmax(&[]).is_empty());
    }

    #[test]
    fn packed_classes_match_pairwise_hamming() {
        let classes: Vec<BinaryHypervector> = (0..5)
            .map(|c| BinaryHypervector::from_fn(130, |i| (i * 7 + c * 13) % 11 < 4))
            .collect();
        let packed = PackedClasses::from_classes(&classes);
        assert_eq!(packed.dim(), 130);
        assert_eq!(packed.num_classes(), 5);
        let query = BinaryHypervector::from_fn(130, |i| i % 3 == 0);
        let fused = packed.hamming_all(&query);
        let pairwise: Vec<usize> = classes.iter().map(|c| c.hamming_distance(&query)).collect();
        assert_eq!(fused, pairwise);
    }

    #[test]
    fn packed_classes_reuse_buffer() {
        let classes = [BinaryHypervector::zeros(64), BinaryHypervector::ones(64)];
        let packed = PackedClasses::from_classes(&classes);
        let mut out = vec![99, 99, 99];
        packed.hamming_all_into(&BinaryHypervector::zeros(64), &mut out);
        assert_eq!(out, vec![0, 64]);
    }

    #[test]
    fn packed_classes_handle_zero_dim() {
        let classes = [BinaryHypervector::zeros(0), BinaryHypervector::zeros(0)];
        let packed = PackedClasses::from_classes(&classes);
        assert_eq!(packed.hamming_all(&BinaryHypervector::zeros(0)), vec![0, 0]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn packed_classes_reject_mixed_dims() {
        let _ = PackedClasses::from_classes(&[
            BinaryHypervector::zeros(8),
            BinaryHypervector::zeros(9),
        ]);
    }

    #[test]
    fn chunked_hamming_matches_ranged_distances() {
        let a = BinaryHypervector::from_fn(257, |i| i % 5 < 2);
        let b = BinaryHypervector::from_fn(257, |i| i % 7 < 3);
        for chunks in [1, 2, 3, 20, 64, 257, 300] {
            let fused = chunked_hamming(&a, &b, chunks);
            assert_eq!(fused.len(), chunks);
            for (chunk, &distance) in fused.iter().enumerate() {
                let start = chunk * 257 / chunks;
                let end = (chunk + 1) * 257 / chunks;
                assert_eq!(
                    distance,
                    a.hamming_distance_range(&b, start, end),
                    "chunk {chunk} of {chunks}"
                );
            }
            assert_eq!(fused.iter().sum::<usize>(), a.hamming_distance(&b));
        }
    }

    #[test]
    fn cached_chunk_split_matches_chunked_hamming() {
        for dim in [0, 1, 63, 64, 65, 257, 2048] {
            let a = BinaryHypervector::from_fn(dim, |i| i % 5 < 2);
            let b = BinaryHypervector::from_fn(dim, |i| (i * i) % 7 < 3);
            for chunks in [1, 2, 3, 20, 32, 40, 64, 300] {
                let mut split = ChunkedHamming::new(dim, chunks);
                assert_eq!((split.dim(), split.chunks()), (dim, chunks));
                let mut out = vec![usize::MAX; chunks];
                // Twice: the scratch of the first call must not leak.
                for _ in 0..2 {
                    split.distances_into(&a, &b, &mut out);
                    assert_eq!(out, chunked_hamming(&a, &b, chunks), "{chunks} of {dim}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn cached_chunk_split_rejects_another_dimension_of_the_same_word_count() {
        // 100 and 127 bits both pack into two words.
        let mut split = ChunkedHamming::new(127, 4);
        let a = BinaryHypervector::zeros(100);
        let mut out = [0; 4];
        split.distances_into(&a, &a, &mut out);
    }

    #[test]
    fn temperature_sharpens() {
        let soft = softmax_with_temperature(&[0.6, 0.4], 1.0);
        let sharp = softmax_with_temperature(&[0.6, 0.4], 50.0);
        assert!(sharp[0] > soft[0]);
    }
}
