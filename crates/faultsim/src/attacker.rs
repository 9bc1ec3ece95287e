use crate::report::AttackReport;
use crate::sampling::distinct_indices;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;

/// Seeded bit-flip injector implementing the paper's fault models.
///
/// All methods operate on a raw word image (`&mut [u64]` plus a bit length),
/// flipping **exactly** `round(rate × bit_len)` distinct bits so an
/// experiment at "10% error" is 10% by construction, not in expectation.
///
/// # Example
///
/// ```
/// use faultsim::Attacker;
///
/// let mut attacker = Attacker::seed_from(99);
/// // Attack an 8-bit fixed-point weight image, worst case: MSBs first.
/// let mut weights = vec![0u64; 16]; // 128 8-bit fields
/// let report = attacker.targeted_flips(&mut weights, 1024, 0.05, 8);
/// assert_eq!(report.flipped_bits, 51);
/// ```
pub struct Attacker {
    rng: StdRng,
}

impl Attacker {
    /// Creates an attacker from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// *Random attack*: flips `round(rate × bit_len)` uniformly chosen
    /// distinct bits. Models technology noise and untargeted Row Hammer
    /// disturbance.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]` or `bit_len` exceeds the image
    /// capacity.
    pub fn random_flips(&mut self, image: &mut [u64], bit_len: usize, rate: f64) -> AttackReport {
        validate(image, bit_len, rate);
        let count = (rate * bit_len as f64).round() as usize;
        let positions = distinct_indices(&mut self.rng, bit_len, count);
        for &pos in &positions {
            flip(image, pos);
        }
        AttackReport {
            requested_rate: rate,
            flipped_bits: positions.len(),
            bit_len,
        }
    }

    /// *Targeted attack*: the worst-case adversary of the paper, which
    /// concentrates the same flip budget on the **most significant bits** of
    /// each stored field.
    ///
    /// The image is interpreted as contiguous `field_bits`-wide fields (e.g.
    /// 8 for the 8-bit fixed-point baselines, 1 for a binary HDC model —
    /// where targeted degenerates to random, exactly the paper's
    /// observation). The budget is spent on the MSB of randomly chosen
    /// distinct fields; only if every field's MSB is already flipped does
    /// the attack descend to the next-most-significant bit.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]`, `field_bits` is zero, or
    /// `bit_len` exceeds the image capacity.
    pub fn targeted_flips(
        &mut self,
        image: &mut [u64],
        bit_len: usize,
        rate: f64,
        field_bits: usize,
    ) -> AttackReport {
        validate(image, bit_len, rate);
        assert!(field_bits > 0, "field_bits must be positive");
        let mut budget = (rate * bit_len as f64).round() as usize;
        let fields = bit_len / field_bits;
        let mut flipped = 0usize;
        // Spend the budget from the MSB (bit field_bits-1) downwards.
        for sig in (0..field_bits).rev() {
            if budget == 0 || fields == 0 {
                break;
            }
            let take = budget.min(fields);
            let chosen = distinct_indices(&mut self.rng, fields, take);
            for field in chosen {
                let pos = field * field_bits + sig;
                if pos < bit_len {
                    flip(image, pos);
                    flipped += 1;
                }
            }
            budget -= take;
        }
        AttackReport {
            requested_rate: rate,
            flipped_bits: flipped,
            bit_len,
        }
    }

    /// *Row burst*: flips every bit of `rows` randomly chosen aligned rows
    /// of `row_bits` bits — a Row-Hammer-style disturbance that corrupts
    /// physically adjacent cells together.
    ///
    /// # Panics
    ///
    /// Panics if `row_bits` is zero or `bit_len` exceeds the image capacity.
    pub fn row_burst(
        &mut self,
        image: &mut [u64],
        bit_len: usize,
        row_bits: usize,
        rows: usize,
    ) -> AttackReport {
        assert!(row_bits > 0, "row_bits must be positive");
        assert!(bit_len <= image.len() * 64, "bit_len exceeds image");
        let total_rows = bit_len.div_ceil(row_bits);
        let chosen = distinct_indices(&mut self.rng, total_rows, rows);
        let mut flipped = 0usize;
        for row in chosen {
            let start = row * row_bits;
            let end = (start + row_bits).min(bit_len);
            for pos in start..end {
                flip(image, pos);
                flipped += 1;
            }
        }
        AttackReport {
            requested_rate: flipped as f64 / bit_len.max(1) as f64,
            flipped_bits: flipped,
            bit_len,
        }
    }

    /// *Stuck-at fault*: forces `round(rate × bit_len)` distinct cells to a
    /// fixed `value`, modelling worn-out NVM cells that no longer switch.
    ///
    /// The report counts *changed* bits (a cell already at `value` is stuck
    /// but unchanged).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]` or `bit_len` exceeds the image
    /// capacity.
    pub fn stuck_at(
        &mut self,
        image: &mut [u64],
        bit_len: usize,
        rate: f64,
        value: bool,
    ) -> AttackReport {
        validate(image, bit_len, rate);
        let count = (rate * bit_len as f64).round() as usize;
        let positions = distinct_indices(&mut self.rng, bit_len, count);
        let mut flipped = 0usize;
        for &pos in &positions {
            if get(image, pos) != value {
                flip(image, pos);
                flipped += 1;
            }
        }
        AttackReport {
            requested_rate: rate,
            flipped_bits: flipped,
            bit_len,
        }
    }
}

impl fmt::Debug for Attacker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Attacker(StdRng)")
    }
}

fn validate(image: &[u64], bit_len: usize, rate: f64) {
    assert!(
        (0.0..=1.0).contains(&rate),
        "error rate {rate} outside [0, 1]"
    );
    assert!(
        bit_len <= image.len() * 64,
        "bit_len {bit_len} exceeds image capacity {}",
        image.len() * 64
    );
}

fn flip(image: &mut [u64], pos: usize) {
    image[pos / 64] ^= 1u64 << (pos % 64);
}

fn get(image: &[u64], pos: usize) -> bool {
    (image[pos / 64] >> (pos % 64)) & 1 == 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ones(image: &[u64]) -> usize {
        image.iter().map(|w| w.count_ones() as usize).sum()
    }

    #[test]
    fn random_flips_exact_count() {
        let mut image = vec![0u64; 100];
        let report = Attacker::seed_from(1).random_flips(&mut image, 6400, 0.1);
        assert_eq!(report.flipped_bits, 640);
        assert_eq!(ones(&image), 640);
    }

    #[test]
    fn random_flips_zero_rate_is_noop() {
        let mut image = vec![u64::MAX; 4];
        let report = Attacker::seed_from(2).random_flips(&mut image, 256, 0.0);
        assert_eq!(report.flipped_bits, 0);
        assert_eq!(ones(&image), 256);
    }

    #[test]
    fn random_flips_full_rate_flips_everything() {
        let mut image = vec![0u64; 4];
        Attacker::seed_from(3).random_flips(&mut image, 256, 1.0);
        assert_eq!(ones(&image), 256);
    }

    #[test]
    fn random_flips_respect_bit_len_boundary() {
        // Only the first 100 bits are in-bounds; the rest must stay zero.
        let mut image = vec![0u64; 4];
        Attacker::seed_from(4).random_flips(&mut image, 100, 1.0);
        assert_eq!(ones(&image), 100);
        assert_eq!(image[2], 0);
        assert_eq!(image[3], 0);
    }

    #[test]
    fn targeted_hits_msbs_first() {
        // 32 fields of 8 bits; 5% of 256 bits = 13 flips < 32 fields,
        // so every flip must land on an MSB (bit 7 of a field).
        let mut image = vec![0u64; 4];
        let report = Attacker::seed_from(5).targeted_flips(&mut image, 256, 0.05, 8);
        assert_eq!(report.flipped_bits, 13);
        for field in 0..32 {
            for bit in 0..8 {
                let pos = field * 8 + bit;
                if get(&image, pos) {
                    assert_eq!(bit, 7, "non-MSB bit {bit} of field {field} flipped");
                }
            }
        }
    }

    #[test]
    fn targeted_descends_after_msbs_exhausted() {
        // 4 fields of 8 bits, budget 6 > 4 MSBs: 4 MSBs + 2 second bits.
        let mut image = vec![0u64; 1];
        let report = Attacker::seed_from(6).targeted_flips(&mut image, 32, 6.0 / 32.0, 8);
        assert_eq!(report.flipped_bits, 6);
        let msbs = (0..4).filter(|f| get(&image, f * 8 + 7)).count();
        assert_eq!(msbs, 4, "all MSBs must be flipped before descending");
        let second = (0..4).filter(|f| get(&image, f * 8 + 6)).count();
        assert_eq!(second, 2);
    }

    #[test]
    fn targeted_on_one_bit_fields_equals_random_budget() {
        let mut image = vec![0u64; 16];
        let report = Attacker::seed_from(7).targeted_flips(&mut image, 1024, 0.1, 1);
        assert_eq!(report.flipped_bits, 102);
        assert_eq!(ones(&image), 102);
    }

    #[test]
    fn row_burst_flips_whole_rows() {
        let mut image = vec![0u64; 8];
        let report = Attacker::seed_from(8).row_burst(&mut image, 512, 64, 3);
        assert_eq!(report.flipped_bits, 192);
        // Each touched word is fully flipped because rows align with words.
        let full_words = image.iter().filter(|&&w| w == u64::MAX).count();
        assert_eq!(full_words, 3);
    }

    #[test]
    fn row_burst_is_deterministic_per_seed() {
        let mut a = vec![0u64; 8];
        let mut b = vec![0u64; 8];
        Attacker::seed_from(77).row_burst(&mut a, 512, 32, 5);
        Attacker::seed_from(77).row_burst(&mut b, 512, 32, 5);
        assert_eq!(a, b);
        let mut c = vec![0u64; 8];
        Attacker::seed_from(78).row_burst(&mut c, 512, 32, 5);
        assert_ne!(a, c, "different seeds must pick different rows");
    }

    #[test]
    fn row_burst_truncates_the_tail_row_at_bit_len() {
        // bit_len 100 with 64-bit rows: row 0 is full, row 1 holds only
        // bits 64..100. Bursting both rows flips exactly 100 bits and
        // never writes past the boundary.
        let mut image = vec![0u64; 4];
        let report = Attacker::seed_from(11).row_burst(&mut image, 100, 64, 2);
        assert_eq!(report.flipped_bits, 100);
        assert_eq!(ones(&image), 100);
        assert_eq!(image[0], u64::MAX);
        assert_eq!(image[1], (1u64 << 36) - 1);
        assert_eq!(image[2], 0);
        assert_eq!(image[3], 0);
        assert!((report.requested_rate - 1.0).abs() < 1e-12);
    }

    #[test]
    fn row_burst_single_bit_tail_row() {
        // bit_len 65: the second row is a single bit. Whichever rows are
        // chosen, no position at or above 65 may flip.
        for seed in 0..16 {
            let mut image = vec![0u64; 2];
            let report = Attacker::seed_from(seed).row_burst(&mut image, 65, 64, 1);
            assert!(report.flipped_bits == 64 || report.flipped_bits == 1);
            assert_eq!(ones(&image), report.flipped_bits);
            assert_eq!(image[1] & !1, 0, "bits above 65 flipped (seed {seed})");
        }
    }

    #[test]
    fn row_burst_caps_rows_at_available() {
        // Asking for more rows than exist flips the entire image, once.
        let mut image = vec![0u64; 2];
        let report = Attacker::seed_from(12).row_burst(&mut image, 128, 32, 100);
        assert_eq!(report.flipped_bits, 128);
        assert_eq!(ones(&image), 128);
    }

    #[test]
    fn stuck_at_is_deterministic_per_seed() {
        let mut a: Vec<u64> = (0..8).map(|i| 0xA5A5_5A5A_u64.rotate_left(i)).collect();
        let mut b = a.clone();
        Attacker::seed_from(91).stuck_at(&mut a, 512, 0.3, false);
        Attacker::seed_from(91).stuck_at(&mut b, 512, 0.3, false);
        assert_eq!(a, b);
    }

    #[test]
    fn stuck_at_exact_change_accounting() {
        // Alternating bits, full coverage, stuck at one: exactly the
        // zero half changes and the image saturates.
        let mut image = vec![0x5555_5555_5555_5555u64; 2];
        let report = Attacker::seed_from(13).stuck_at(&mut image, 128, 1.0, true);
        assert_eq!(report.flipped_bits, 64);
        assert_eq!(ones(&image), 128);
    }

    #[test]
    fn stuck_at_respects_bit_len_boundary() {
        // Sticking 100 of 256 capacity bits at one must leave everything
        // from bit 100 upward untouched.
        let mut image = vec![0u64; 4];
        let report = Attacker::seed_from(14).stuck_at(&mut image, 100, 1.0, true);
        assert_eq!(report.flipped_bits, 100);
        assert_eq!(ones(&image), 100);
        assert_eq!(image[1] >> 36, 0);
        assert_eq!(image[2], 0);
        assert_eq!(image[3], 0);
    }

    #[test]
    fn stuck_at_counts_only_changes() {
        let mut image = vec![u64::MAX; 2];
        let report = Attacker::seed_from(9).stuck_at(&mut image, 128, 0.5, true);
        // All bits were already one; sticking at one changes nothing.
        assert_eq!(report.flipped_bits, 0);
        assert_eq!(ones(&image), 128);
        let report = Attacker::seed_from(9).stuck_at(&mut image, 128, 0.5, false);
        assert_eq!(report.flipped_bits, 64);
        assert_eq!(ones(&image), 64);
    }

    #[test]
    fn attacks_are_deterministic_per_seed() {
        let mut a = vec![0u64; 10];
        let mut b = vec![0u64; 10];
        Attacker::seed_from(42).random_flips(&mut a, 640, 0.2);
        Attacker::seed_from(42).random_flips(&mut b, 640, 0.2);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn rate_above_one_panics() {
        Attacker::seed_from(0).random_flips(&mut [0u64; 1], 64, 1.5);
    }

    #[test]
    #[should_panic(expected = "exceeds image capacity")]
    fn bit_len_beyond_image_panics() {
        Attacker::seed_from(0).random_flips(&mut [0u64; 1], 65, 0.1);
    }
}
