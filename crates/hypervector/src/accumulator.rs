use crate::binary::BinaryHypervector;
use crate::bitslice::CarrySaveMajority;
use crate::multibit::{IntHypervector, Precision};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Element-wise counters used to bundle (superpose) binary hypervectors.
///
/// Bundling in HDC is component-wise addition followed by a majority
/// threshold: the class hypervector `C_l = Σ_j H_j^l` of the paper. The
/// accumulator keeps the exact counts so a model can be thresholded to a
/// 1-bit binary vector ([`BundleAccumulator::to_binary`]) or quantized to a
/// low-precision integer vector ([`BundleAccumulator::to_int`]) — the two
/// model precisions studied in Table 1.
///
/// Counts are signed so retraining can *remove* a mispredicted sample with
/// [`BundleAccumulator::subtract`].
///
/// # Example
///
/// ```
/// use hypervector::{BundleAccumulator, random::HypervectorSampler};
///
/// let mut sampler = HypervectorSampler::seed_from(5);
/// let proto = sampler.binary(4096);
/// let mut acc = BundleAccumulator::new(4096);
/// for _ in 0..9 {
///     acc.add(&sampler.flip_noise(&proto, 0.2));
/// }
/// // The majority vote recovers something close to the prototype.
/// let bundled = acc.to_binary();
/// assert!(bundled.similarity(&proto) > 0.8);
/// ```
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BundleAccumulator {
    /// Per-dimension bipolar counts: +1 per bundled one-bit, -1 per zero-bit.
    counts: Vec<i64>,
    added: u64,
}

impl BundleAccumulator {
    /// Creates an empty accumulator of dimension `dim`.
    pub fn new(dim: usize) -> Self {
        Self {
            counts: vec![0; dim],
            added: 0,
        }
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.counts.len()
    }

    /// Number of hypervectors added minus those subtracted.
    pub fn added(&self) -> u64 {
        self.added
    }

    /// Bundles `hv` into the accumulator (+1 per one-bit, -1 per zero-bit).
    ///
    /// This is the encoder's hot loop, so it walks the packed words
    /// directly instead of querying bits through the typed API.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn add(&mut self, hv: &BinaryHypervector) {
        assert_eq!(self.dim(), hv.dim(), "dimension mismatch in add");
        self.apply_bipolar(hv, 1);
        self.added += 1;
    }

    /// Removes a previously bundled hypervector (used by retraining when a
    /// sample was attributed to the wrong class).
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn subtract(&mut self, hv: &BinaryHypervector) {
        assert_eq!(self.dim(), hv.dim(), "dimension mismatch in subtract");
        self.apply_bipolar(hv, -1);
        self.added = self.added.saturating_sub(1);
    }

    /// Bundles a whole batch of hypervectors in one bit-sliced pass,
    /// with counts identical to calling [`BundleAccumulator::add`] once
    /// per vector (in any order — bundling is integer addition).
    ///
    /// The batch is routed through a [`CarrySaveMajority`] plane counter:
    /// each vector costs amortized `O(1)` word operations per 64
    /// dimensions instead of the scalar path's 64 counter updates, and the
    /// plane counts are folded back into the signed counters once at the
    /// end via [`CarrySaveMajority::accumulate_bipolar`]. This is the
    /// one-shot bundling kernel of the parallel training engine.
    ///
    /// # Panics
    ///
    /// Panics if any dimension differs.
    pub fn add_batch<'a, I>(&mut self, hvs: I)
    where
        I: IntoIterator<Item = &'a BinaryHypervector>,
    {
        let mut planes = CarrySaveMajority::new(self.dim());
        for hv in hvs {
            planes.add(hv);
        }
        self.absorb(&planes);
    }

    /// Folds a bit-sliced partial bundle into the signed counters:
    /// equivalent to having [`BundleAccumulator::add`]ed every vector the
    /// planes bundled. Used to merge per-worker partial accumulators after
    /// a sharded one-shot bundling pass.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn absorb(&mut self, planes: &CarrySaveMajority) {
        assert_eq!(self.dim(), planes.dim(), "dimension mismatch in absorb");
        planes.accumulate_bipolar(&mut self.counts);
        self.added += planes.added();
    }

    /// Merges another accumulator's counts into this one, as if every
    /// vector bundled into `other` had been bundled here.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(self.dim(), other.dim(), "dimension mismatch in merge");
        for (c, &o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.added += other.added;
    }

    /// Adds `weight` to every one-bit's counter and `-weight` to every
    /// zero-bit's, walking the packed words.
    fn apply_bipolar(&mut self, hv: &BinaryHypervector, weight: i64) {
        let dim = self.counts.len();
        for (word_idx, &word) in hv.bits().words().iter().enumerate() {
            let base = word_idx * 64;
            let span = 64.min(dim - base);
            let counts = &mut self.counts[base..base + span]; // audit:allow(panic): span is clamped to dim - base
            let mut bits = word;
            for c in counts.iter_mut() {
                // +weight for a one, -weight for a zero.
                *c += if bits & 1 == 1 { weight } else { -weight };
                bits >>= 1;
            }
        }
    }

    /// Majority threshold to a 1-bit binary hypervector.
    ///
    /// A component becomes 1 when its bipolar count is positive; exact ties
    /// (possible with an even number of bundled vectors) resolve to the
    /// component's parity so the result is deterministic without an RNG.
    ///
    /// This threshold — including the parity tie-break — is the contract
    /// the bit-sliced fast path ([`crate::CarrySaveMajority::to_binary`])
    /// reproduces bit for bit; the accumulator remains the reference
    /// implementation the differential suite compares against.
    pub fn to_binary(&self) -> BinaryHypervector {
        BinaryHypervector::from_fn(self.dim(), |i| {
            let c = self.counts[i]; // audit:allow(panic): from_fn yields i < dim = counts.len()
            if c != 0 {
                c > 0
            } else {
                i % 2 == 0
            }
        })
    }

    /// Quantizes the counts to a `precision`-bit signed integer hypervector.
    ///
    /// For 1-bit precision this is the sign of each count (ties resolve by
    /// index parity, matching [`BundleAccumulator::to_binary`]). For wider
    /// precisions, counts are linearly rescaled so the largest magnitude
    /// maps to the extreme representable value; an all-zero accumulator maps
    /// to zero.
    pub fn to_int(&self, precision: Precision) -> IntHypervector {
        if precision.bits() == 1 {
            let values = self
                .counts
                .iter()
                .enumerate()
                .map(|(i, &c)| match c.cmp(&0) {
                    std::cmp::Ordering::Greater => 1,
                    std::cmp::Ordering::Less => -1,
                    std::cmp::Ordering::Equal => {
                        if i % 2 == 0 {
                            1
                        } else {
                            -1
                        }
                    }
                })
                .collect();
            return IntHypervector::from_values(values, precision);
        }
        let max_mag = self
            .counts
            .iter()
            .map(|c| c.unsigned_abs())
            .max()
            .unwrap_or(0);
        let hi = precision.max_value() as f64;
        let values: Vec<i32> = if max_mag == 0 {
            vec![0; self.dim()]
        } else {
            self.counts
                .iter()
                .map(|&c| {
                    let scaled = crate::cast::round_to_i32(c as f64 / max_mag as f64 * hi);
                    scaled.clamp(precision.min_value(), precision.max_value())
                })
                .collect()
        };
        IntHypervector::from_values(values, precision)
    }

    /// Raw per-dimension bipolar counts.
    pub fn counts(&self) -> &[i64] {
        &self.counts
    }
}

impl fmt::Debug for BundleAccumulator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "BundleAccumulator(dim={}, added={})",
            self.dim(),
            self.added
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::HypervectorSampler;

    #[test]
    fn single_vector_thresholds_to_itself() {
        let mut s = HypervectorSampler::seed_from(1);
        let hv = s.binary(777);
        let mut acc = BundleAccumulator::new(777);
        acc.add(&hv);
        assert_eq!(acc.to_binary(), hv);
        assert_eq!(acc.added(), 1);
    }

    #[test]
    fn add_then_subtract_is_identity() {
        let mut s = HypervectorSampler::seed_from(2);
        let a = s.binary(256);
        let b = s.binary(256);
        let mut acc = BundleAccumulator::new(256);
        acc.add(&a);
        acc.add(&b);
        acc.subtract(&b);
        assert_eq!(acc.to_binary(), a);
        assert_eq!(acc.added(), 1);
    }

    #[test]
    fn majority_recovers_prototype_from_noisy_copies() {
        let mut s = HypervectorSampler::seed_from(3);
        let proto = s.binary(8192);
        let mut acc = BundleAccumulator::new(8192);
        for _ in 0..15 {
            acc.add(&s.flip_noise(&proto, 0.25));
        }
        let sim = acc.to_binary().similarity(&proto);
        assert!(sim > 0.9, "majority vote too weak: {sim}");
    }

    #[test]
    fn bundle_is_similar_to_all_inputs() {
        let mut s = HypervectorSampler::seed_from(4);
        let inputs: Vec<_> = (0..5).map(|_| s.binary(8192)).collect();
        let mut acc = BundleAccumulator::new(8192);
        for hv in &inputs {
            acc.add(hv);
        }
        let bundle = acc.to_binary();
        for (i, hv) in inputs.iter().enumerate() {
            let sim = bundle.similarity(hv);
            assert!(sim > 0.6, "input {i} similarity {sim} too low");
        }
    }

    #[test]
    fn tie_break_is_deterministic() {
        let mut acc = BundleAccumulator::new(4);
        let a = BinaryHypervector::from_fn(4, |_| true);
        let b = BinaryHypervector::from_fn(4, |_| false);
        acc.add(&a);
        acc.add(&b);
        assert_eq!(acc.to_binary(), acc.to_binary());
    }

    #[test]
    fn to_int_uses_full_range() {
        let mut s = HypervectorSampler::seed_from(6);
        let hv = s.binary(1024);
        let mut acc = BundleAccumulator::new(1024);
        for _ in 0..7 {
            acc.add(&hv);
        }
        let q = acc.to_int(Precision::new(2).unwrap());
        // All counts are ±7, so quantized values are all ±1 (2-bit max).
        assert!(q.values().iter().all(|&v| v == 1 || v == -1));
    }

    #[test]
    fn to_int_of_empty_accumulator_is_zero() {
        let acc = BundleAccumulator::new(64);
        let q = acc.to_int(Precision::new(4).unwrap());
        assert!(q.values().iter().all(|&v| v == 0));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn add_rejects_mismatched_dim() {
        let mut acc = BundleAccumulator::new(8);
        acc.add(&BinaryHypervector::zeros(9));
    }
}
