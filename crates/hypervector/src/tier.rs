//! Execution-tier kernels: runtime-dispatched scalar and wide-lane paths
//! for the two hot kernel families.
//!
//! The paper's DPIM argument is that HDC wins when the hardware executes
//! wide bitwise operations in parallel; this module is the software half
//! of that claim. Every hot kernel — XOR+popcount distance (family 1) and
//! the carry-save majority ripple that encoding binds and bundles through
//! (family 2) — exists in two *bit-identical* execution tiers:
//!
//! * [`KernelTier::Reference`] — the scalar one-`u64`-at-a-time loops the
//!   rest of the crate documents. These are the semantic definition.
//! * [`KernelTier::Wide`] — the same arithmetic restructured over
//!   [`BLOCK_WORDS`]-word (512-bit) blocks of straight-line bitwise ops
//!   with no data-dependent branches inside a block, the shape LLVM's
//!   autovectorizer lifts to whatever SIMD width the target offers. The
//!   popcount blocks additionally run a carry-save-adder compression that
//!   replaces eight per-word popcounts with four, which pays even on
//!   targets whose `count_ones` is a multi-op software sequence.
//!
//! Both tiers are safe Rust (the workspace forbids `unsafe`; a
//! target-feature intrinsics tier is explicitly out of scope) and both
//! compute *exact integer* results, so equality is structural, not
//! approximate: `tests/tier_differential.rs` in `robusthd` pins every
//! kernel of every tier to the `Reference` tier bit for bit.
//!
//! # Dispatch
//!
//! The active tier is a process-wide [`OnceLock`]: the first call to
//! [`install`] wins (the `ROBUSTHD_KERNEL_TIER` flag, parsed by
//! `robusthd::KernelConfig`, is injected here — this crate never reads
//! the environment), and [`active`] defaults to [`KernelTier::Wide`]
//! when nothing was installed. Because the tiers are bit-identical, a
//! missed install is a performance choice, never a correctness one.
//!
//! Every kernel also takes its tier explicitly, so tests and benches can
//! compare tiers side by side without touching global state.

use std::sync::OnceLock;

const WORD_BITS: usize = 64;

/// Words per wide-lane block: 8 × `u64` = 512 bits, one AVX-512 register
/// or two AVX2 / four NEON registers — wide enough to keep the
/// autovectorizer busy, small enough that a query block plus a class
/// block plus the CSA temporaries stay resident in registers.
pub const BLOCK_WORDS: usize = 8;

/// An execution tier: which implementation strategy the kernels use.
///
/// Tiers never differ in results — only in instruction count and shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelTier {
    /// Scalar one-word-at-a-time loops; the semantic reference.
    Reference,
    /// Portable wide-lane loops over [`BLOCK_WORDS`]-word blocks.
    Wide,
}

impl KernelTier {
    /// Both tiers, `Reference` first — the iteration order the
    /// differential suites and `kernelbench` sweep.
    pub const ALL: [KernelTier; 2] = [KernelTier::Reference, KernelTier::Wide];

    /// Stable lowercase name (`"reference"` / `"wide"`), the vocabulary
    /// of the `ROBUSTHD_KERNEL_TIER` flag and the bench JSON.
    pub fn name(self) -> &'static str {
        match self {
            KernelTier::Reference => "reference",
            KernelTier::Wide => "wide",
        }
    }
}

static ACTIVE: OnceLock<KernelTier> = OnceLock::new();

/// Installs `tier` as the process-wide dispatch tier. The first caller
/// wins; later calls (and races) keep the installed value. Returns the
/// tier that is actually active after the call.
pub fn install(tier: KernelTier) -> KernelTier {
    *ACTIVE.get_or_init(|| tier)
}

/// The process-wide dispatch tier; [`KernelTier::Wide`] unless
/// [`install`] selected otherwise first.
pub fn active() -> KernelTier {
    *ACTIVE.get_or_init(|| KernelTier::Wide)
}

/// One carry-save adder step: compresses three addends into a partial
/// sum and a carry, per bit lane (`a + b + c == sum + 2·carry`).
#[inline]
fn csa(a: u64, b: u64, c: u64) -> (u64, u64) {
    let partial = a ^ b;
    (partial ^ c, (a & b) | (partial & c))
}

/// Population count of one [`BLOCK_WORDS`]-word block via carry-save
/// compression: two CSA layers reduce eight words to four popcounts
/// (`pop(x0..x7) = pop(s2) + pop(x7) + 2·pop(s3) + 4·pop(c3)`), exact
/// integer arithmetic throughout.
#[inline]
// audit:allow(panic): fixed-size 8-word block: indices are constants
fn block_popcount(x: &[u64; BLOCK_WORDS]) -> usize {
    let (s0, c0) = csa(x[0], x[1], x[2]);
    let (s1, c1) = csa(x[3], x[4], x[5]);
    let (s2, c2) = csa(s0, s1, x[6]);
    let (s3, c3) = csa(c0, c1, c2);
    (s2.count_ones() as usize)
        + (x[7].count_ones() as usize)
        + 2 * (s3.count_ones() as usize)
        + 4 * (c3.count_ones() as usize)
}

/// XOR+popcount over whole word slices in the `Reference` tier.
fn hamming_reference(a: &[u64], b: &[u64]) -> usize {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x ^ y).count_ones() as usize)
        .sum()
}

/// SIMD-width lane count for the wide Harley–Seal accumulator: each
/// carry-save "word" is a bundle of four `u64` lanes, so every CSA step
/// is a straight-line lane-wise loop the compiler can keep in vector
/// registers. Four lanes (256 bits) map to two SSE2 registers or one
/// AVX2 register without requiring either.
const HS_LANES: usize = 4;

/// Lane-wise carry-save adder over [`HS_LANES`]-lane bundles: applies
/// [`csa`] independently per lane, returning `(sum, carry)` bundles.
#[inline]
// audit:allow(panic): lane ids range over the fixed HS_LANES arrays
fn csa_lanes(
    a: &[u64; HS_LANES],
    b: &[u64; HS_LANES],
    c: &[u64; HS_LANES],
) -> ([u64; HS_LANES], [u64; HS_LANES]) {
    let mut sum = [0u64; HS_LANES];
    let mut carry = [0u64; HS_LANES];
    for lane in 0..HS_LANES {
        let partial = a[lane] ^ b[lane];
        sum[lane] = partial ^ c[lane];
        carry[lane] = (a[lane] & b[lane]) | (partial & c[lane]);
    }
    (sum, carry)
}

/// XOR+popcount over whole word slices in the `Wide` tier.
///
/// A lane-parallel Harley–Seal carry-save accumulator: sixteen
/// [`HS_LANES`]-lane bundles (64 words) run through fifteen CSA
/// compressions per iteration, with the running `ones`/`twos`/`fours`
/// state itself held as lane bundles. Keeping [`HS_LANES`] independent
/// carry-save chains side by side breaks the serial dependency through
/// the `ones` accumulator that limits a scalar Harley–Seal loop, and
/// every CSA step is a straight-line lane-wise loop the compiler
/// vectorizes; only the weight-8 carry bundles are popcounted inside the
/// loop. Trailing [`BLOCK_WORDS`]-word blocks go through the two-layer
/// CSA compressor; the word tail through the scalar loop. Exact integer
/// arithmetic throughout — the total is bit-identical to the reference
/// tier.
// audit:allow(panic): chunks_exact groups and constant lane ids bound every index
fn hamming_wide(a: &[u64], b: &[u64]) -> usize {
    const STEP: usize = 16 * HS_LANES;
    // Below one full lane group the carry-save machinery cannot engage
    // and its setup costs more than the scalar loop saves (visible on
    // the few-word spans a chunk-sized `hamming_range` scores), so short
    // slices take the reference path — same exact total either way.
    if a.len() < STEP {
        return hamming_reference(a, b);
    }
    let full_groups = a.len() - a.len() % STEP;
    let mut ones = [0u64; HS_LANES];
    let mut twos = [0u64; HS_LANES];
    let mut fours = [0u64; HS_LANES];
    let mut eight_units = 0usize;
    for (ca, cb) in a[..full_groups]
        .chunks_exact(STEP)
        .zip(b[..full_groups].chunks_exact(STEP))
    {
        let mut x = [[0u64; HS_LANES]; 16];
        for (group, bundle) in x.iter_mut().enumerate() {
            for (lane, slot) in bundle.iter_mut().enumerate() {
                let word = group * HS_LANES + lane;
                *slot = ca[word] ^ cb[word];
            }
        }
        let (o, twos_a) = csa_lanes(&ones, &x[0], &x[1]);
        let (o, twos_b) = csa_lanes(&o, &x[2], &x[3]);
        let (t, fours_a) = csa_lanes(&twos, &twos_a, &twos_b);
        let (o, twos_a) = csa_lanes(&o, &x[4], &x[5]);
        let (o, twos_b) = csa_lanes(&o, &x[6], &x[7]);
        let (t, fours_b) = csa_lanes(&t, &twos_a, &twos_b);
        let (f, eights_a) = csa_lanes(&fours, &fours_a, &fours_b);
        let (o, twos_a) = csa_lanes(&o, &x[8], &x[9]);
        let (o, twos_b) = csa_lanes(&o, &x[10], &x[11]);
        let (t, fours_a) = csa_lanes(&t, &twos_a, &twos_b);
        let (o, twos_a) = csa_lanes(&o, &x[12], &x[13]);
        let (o, twos_b) = csa_lanes(&o, &x[14], &x[15]);
        let (t, fours_b) = csa_lanes(&t, &twos_a, &twos_b);
        let (f, eights_b) = csa_lanes(&f, &fours_a, &fours_b);
        // Resolve the two weight-8 carry bundles immediately (one
        // weight-8 sum plus a weight-16 carry, counted in units of
        // eight) so no cross-iteration eights state is needed.
        let (eights_sum, sixteens) = csa_lanes(&eights_a, &eights_b, &[0u64; HS_LANES]);
        ones = o;
        twos = t;
        fours = f;
        for lane in 0..HS_LANES {
            eight_units += (eights_sum[lane].count_ones() as usize)
                + 2 * (sixteens[lane].count_ones() as usize);
        }
    }
    let mut total = 8 * eight_units;
    for lane in 0..HS_LANES {
        total += 4 * (fours[lane].count_ones() as usize)
            + 2 * (twos[lane].count_ones() as usize)
            + (ones[lane].count_ones() as usize);
    }
    let full = a.len() - (a.len() - full_groups) % BLOCK_WORDS;
    let mut blk = [0u64; BLOCK_WORDS];
    for (ca, cb) in a[full_groups..full]
        .chunks_exact(BLOCK_WORDS)
        .zip(b[full_groups..full].chunks_exact(BLOCK_WORDS))
    {
        for ((lane, &wa), &wb) in blk.iter_mut().zip(ca).zip(cb) {
            *lane = wa ^ wb;
        }
        total += block_popcount(&blk);
    }
    total + hamming_reference(&a[full..], &b[full..])
}

/// Hamming distance between two equal-length word slices (kernel family
/// 1: XOR+popcount). Ghost bits past the logical dimension must already
/// be zero in both slices, as [`crate::PackedBits`] guarantees.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn hamming_words(tier: KernelTier, a: &[u64], b: &[u64]) -> usize {
    assert_eq!(a.len(), b.len(), "word count mismatch in hamming_words");
    match tier {
        KernelTier::Reference => hamming_reference(a, b),
        KernelTier::Wide => hamming_wide(a, b),
    }
}

/// Mask selecting in-word bits `bit..bit + span` (callers keep
/// `bit + span <= 64` and `span >= 1`).
#[inline]
fn span_mask(bit: usize, span: usize) -> u64 {
    if span == WORD_BITS {
        u64::MAX
    } else {
        ((1u64 << span) - 1) << bit
    }
}

/// Hamming distance restricted to bit positions `start..end` — the
/// masked-range kernel under `PackedBits::hamming_range`: partial head and
/// tail words are masked scalar popcounts; the full middle words go
/// through [`hamming_words`] in the requested tier.
/// `similarity::chunked_hamming` does not call it: it scores every chunk
/// of a vector from one running prefix count instead of one span each.
///
/// # Panics
///
/// Panics if the slice lengths differ or the range exceeds the slices'
/// bit capacity (`start > end` ranges are rejected by callers).
// audit:allow(panic): first/last words derive from the caller-checked bit range
pub fn hamming_range_words(
    tier: KernelTier,
    a: &[u64],
    b: &[u64],
    start: usize,
    end: usize,
) -> usize {
    assert_eq!(
        a.len(),
        b.len(),
        "word count mismatch in hamming_range_words"
    );
    if start >= end {
        return 0;
    }
    let first = start / WORD_BITS;
    let last = (end - 1) / WORD_BITS;
    let head_bit = start % WORD_BITS;
    let tail_span = end - last * WORD_BITS;
    if first == last {
        let mask = span_mask(head_bit, end - start);
        return ((a[first] ^ b[first]) & mask).count_ones() as usize;
    }
    let head_mask = span_mask(head_bit, WORD_BITS - head_bit);
    let mut total = ((a[first] ^ b[first]) & head_mask).count_ones() as usize;
    total += hamming_words(tier, &a[first + 1..last], &b[first + 1..last]);
    total + ((a[last] ^ b[last]) & span_mask(0, tail_span)).count_ones() as usize
}

/// Hamming distance of `query` against every row of a class-major packed
/// buffer, pushed into `out` (cleared first) in class order — the fused
/// scoring kernel under `PackedClasses::hamming_all_into`.
///
/// The blocking is class-major: the query words stay L1-resident across
/// all classes while the class buffer streams through sequentially once,
/// each row compressed block-by-block through the wide CSA popcount.
///
/// # Panics
///
/// Panics if `query.len() != words_per_class` (when `words_per_class` is
/// nonzero) or `classes.len() != num_classes * words_per_class`.
pub fn hamming_all_into_words(
    tier: KernelTier,
    classes: &[u64],
    words_per_class: usize,
    num_classes: usize,
    query: &[u64],
    out: &mut Vec<usize>,
) {
    assert_eq!(
        classes.len(),
        num_classes * words_per_class,
        "class buffer size mismatch in hamming_all_into_words"
    );
    out.clear();
    out.reserve(num_classes);
    if words_per_class == 0 {
        // Zero-width vectors pack no words at all; every distance is 0.
        out.resize(num_classes, 0);
        return;
    }
    for class_words in classes.chunks_exact(words_per_class) {
        out.push(hamming_words(tier, class_words, query));
    }
}

/// Scalar ripple-carry increment of the bit-sliced planes at word `w` by
/// the carry word `carry`.
#[inline]
// audit:allow(panic): documented panic: planes must cover word w
fn ripple_word(planes: &mut [Vec<u64>], w: usize, mut carry: u64) {
    for plane in planes.iter_mut() {
        if carry == 0 {
            break;
        }
        let t = plane[w];
        plane[w] = t ^ carry;
        carry &= t;
    }
    debug_assert_eq!(carry, 0, "carry overflow: planes undersized");
}

/// Wide ripple-carry increment of one [`BLOCK_WORDS`]-word block of the
/// planes starting at word `base`, carrying all lanes in lockstep. A
/// lane whose carry is exhausted rides along as a no-op (`t ^ 0 == t`),
/// so the block early-outs only when *every* lane's carry is spent —
/// bit-identical to rippling each lane independently.
#[inline]
// audit:allow(panic): documented panic: planes must cover the block span
fn ripple_block(planes: &mut [Vec<u64>], base: usize, carry: &mut [u64; BLOCK_WORDS]) {
    for plane in planes.iter_mut() {
        let mut any = 0u64;
        for &c in carry.iter() {
            any |= c;
        }
        if any == 0 {
            break;
        }
        let lane = &mut plane[base..base + BLOCK_WORDS];
        for (c, t) in carry.iter_mut().zip(lane.iter_mut()) {
            let prev = *t;
            *t = prev ^ *c;
            *c &= prev;
        }
    }
    debug_assert!(
        carry.iter().all(|&c| c == 0),
        "carry overflow: planes undersized"
    );
}

/// Word-parallel ripple-carry increment of bit-sliced count planes by a
/// packed word image (kernel family 2: the `CarrySaveMajority` add).
/// Callers guarantee the planes are deep enough for the new counts, as
/// `CarrySaveMajority::grow_for_add` does.
// audit:allow(panic): block bases come from chunks_exact over src
pub fn ripple_add(tier: KernelTier, planes: &mut [Vec<u64>], src: &[u64]) {
    match tier {
        KernelTier::Reference => {
            for (w, &word) in src.iter().enumerate() {
                ripple_word(planes, w, word);
            }
        }
        KernelTier::Wide => {
            let full = src.len() - src.len() % BLOCK_WORDS;
            let mut carry = [0u64; BLOCK_WORDS];
            for (blk, chunk) in src[..full].chunks_exact(BLOCK_WORDS).enumerate() {
                carry.copy_from_slice(chunk);
                ripple_block(planes, blk * BLOCK_WORDS, &mut carry);
            }
            for (w, &word) in src.iter().enumerate().skip(full) {
                ripple_word(planes, w, word);
            }
        }
    }
}

/// [`ripple_add`] of `a ^ b` without materializing the bound vector
/// (kernel family 2: the fused bind+bundle under
/// `CarrySaveMajority::add_xor_words`, which every record encoding runs
/// once per feature).
///
/// # Panics
///
/// Panics if the slice lengths differ.
// audit:allow(panic): block bases come from chunks_exact over the xored input
pub fn ripple_add_xor(tier: KernelTier, planes: &mut [Vec<u64>], a: &[u64], b: &[u64]) {
    assert_eq!(a.len(), b.len(), "word count mismatch in ripple_add_xor");
    match tier {
        KernelTier::Reference => {
            for (w, (&x, &y)) in a.iter().zip(b).enumerate() {
                ripple_word(planes, w, x ^ y);
            }
        }
        KernelTier::Wide => {
            let full = a.len() - a.len() % BLOCK_WORDS;
            let mut carry = [0u64; BLOCK_WORDS];
            for (blk, (ca, cb)) in a[..full]
                .chunks_exact(BLOCK_WORDS)
                .zip(b[..full].chunks_exact(BLOCK_WORDS))
                .enumerate()
            {
                for ((c, &x), &y) in carry.iter_mut().zip(ca).zip(cb) {
                    *c = x ^ y;
                }
                ripple_block(planes, blk * BLOCK_WORDS, &mut carry);
            }
            for (w, (&x, &y)) in a.iter().zip(b).enumerate().skip(full) {
                ripple_word(planes, w, x ^ y);
            }
        }
    }
}

/// Adds each dimension's bipolar count (`2·ones − added`) recovered from
/// the bit-sliced planes into `counts` (kernel family 2: the bridge from
/// `CarrySaveMajority` back to exact signed counters).
///
/// The `Reference` tier reconstructs dimension by dimension with the
/// plane loop innermost; the `Wide` tier hoists the plane loop outside a
/// word-wide lane buffer (skipping all-zero plane words), which is the
/// same `|=` accumulation in a different order — bit-identical because
/// the planes are disjoint bit positions of the same counter.
///
/// # Panics
///
/// Panics if any plane holds fewer words than `counts` spans.
// audit:allow(panic): spans clamped to counts.len(); documented panic on short planes
pub fn bipolar_accumulate(tier: KernelTier, planes: &[Vec<u64>], added: i64, counts: &mut [i64]) {
    let dim = counts.len();
    let words = dim.div_ceil(WORD_BITS);
    for w in 0..words {
        let base = w * WORD_BITS;
        let span = WORD_BITS.min(dim - base);
        let slot = &mut counts[base..base + span];
        match tier {
            KernelTier::Reference => {
                for (d, c) in slot.iter_mut().enumerate() {
                    let mut ones = 0i64;
                    for (j, plane) in planes.iter().enumerate() {
                        ones |= (((plane[w] >> d) & 1) as i64) << j;
                    }
                    *c += 2 * ones - added;
                }
            }
            KernelTier::Wide => {
                let mut ones = [0i64; WORD_BITS];
                for (j, plane) in planes.iter().enumerate() {
                    let word = plane[w];
                    if word == 0 {
                        continue;
                    }
                    for (d, lane) in ones.iter_mut().enumerate().take(span) {
                        *lane |= (((word >> d) & 1) as i64) << j;
                    }
                }
                for (c, &lane) in slot.iter_mut().zip(ones.iter()) {
                    *c += 2 * lane - added;
                }
            }
        }
    }
}

/// Word-parallel majority threshold of bit-sliced count planes against
/// the constant `half`, most significant plane first (kernel family 2:
/// the compare under `CarrySaveMajority::to_binary`). Each output word
/// becomes `gt | (eq & tie_mask)` where `gt`/`eq` mark dimensions whose
/// count exceeds/equals `half`; callers pass the parity tie mask (or 0)
/// and re-mask the tail themselves.
///
/// # Panics
///
/// Panics if any plane holds fewer words than `out`.
// audit:allow(panic): plane spans follow out.len(); documented panic on short planes
pub fn threshold_words(
    tier: KernelTier,
    planes: &[Vec<u64>],
    half: u64,
    tie_mask: u64,
    out: &mut [u64],
) {
    match tier {
        KernelTier::Reference => {
            for (w, o) in out.iter_mut().enumerate() {
                let mut gt = 0u64;
                let mut eq = !0u64;
                for j in (0..planes.len()).rev() {
                    let plane = planes[j][w];
                    let threshold_bit = if (half >> j) & 1 == 1 { !0u64 } else { 0u64 };
                    gt |= eq & plane & !threshold_bit;
                    eq &= !(plane ^ threshold_bit);
                }
                *o = gt | (eq & tie_mask);
            }
        }
        KernelTier::Wide => {
            let full = out.len() - out.len() % BLOCK_WORDS;
            for (blk, chunk) in out[..full].chunks_exact_mut(BLOCK_WORDS).enumerate() {
                let base = blk * BLOCK_WORDS;
                let mut gt = [0u64; BLOCK_WORDS];
                let mut eq = [!0u64; BLOCK_WORDS];
                for j in (0..planes.len()).rev() {
                    let plane = &planes[j][base..base + BLOCK_WORDS];
                    let threshold_bit = if (half >> j) & 1 == 1 { !0u64 } else { 0u64 };
                    for k in 0..BLOCK_WORDS {
                        gt[k] |= eq[k] & plane[k] & !threshold_bit;
                        eq[k] &= !(plane[k] ^ threshold_bit);
                    }
                }
                for (k, o) in chunk.iter_mut().enumerate() {
                    *o = gt[k] | (eq[k] & tie_mask);
                }
            }
            for (w, o) in out.iter_mut().enumerate().skip(full) {
                let mut gt = 0u64;
                let mut eq = !0u64;
                for j in (0..planes.len()).rev() {
                    let plane = planes[j][w];
                    let threshold_bit = if (half >> j) & 1 == 1 { !0u64 } else { 0u64 };
                    gt |= eq & plane & !threshold_bit;
                    eq &= !(plane ^ threshold_bit);
                }
                *o = gt | (eq & tie_mask);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words_from(seed: u64, n: usize) -> Vec<u64> {
        // Deterministic pseudo-random words (splitmix64).
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state.wrapping_add(0x9e3779b97f4a7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
                z ^ (z >> 31)
            })
            .collect()
    }

    #[test]
    fn block_popcount_is_exact() {
        for seed in 0..32u64 {
            let w = words_from(seed, BLOCK_WORDS);
            let mut x = [0u64; BLOCK_WORDS];
            x.copy_from_slice(&w);
            let expected: usize = w.iter().map(|v| v.count_ones() as usize).sum();
            assert_eq!(block_popcount(&x), expected, "seed {seed}");
        }
    }

    #[test]
    fn tiers_agree_on_hamming_across_lengths() {
        for n in [0usize, 1, 7, 8, 9, 15, 16, 17, 31, 64] {
            let a = words_from(1, n);
            let b = words_from(2, n);
            assert_eq!(
                hamming_words(KernelTier::Reference, &a, &b),
                hamming_words(KernelTier::Wide, &a, &b),
                "n={n}"
            );
        }
    }

    #[test]
    fn tiers_agree_on_ranges_across_boundaries() {
        let n = 20;
        let a = words_from(3, n);
        let b = words_from(4, n);
        for &(s, e) in &[
            (0usize, n * 64),
            (0, 63),
            (0, 64),
            (0, 65),
            (63, 65),
            (64, 128),
            (100, 100),
            (511, 513),
            (512, 1024),
            (1, n * 64 - 1),
        ] {
            let reference = hamming_range_words(KernelTier::Reference, &a, &b, s, e);
            assert_eq!(
                hamming_range_words(KernelTier::Wide, &a, &b, s, e),
                reference,
                "range {s}..{e}"
            );
            let bitwise = (s..e)
                .filter(|&i| (a[i / 64] >> (i % 64)) & 1 != (b[i / 64] >> (i % 64)) & 1)
                .count();
            assert_eq!(reference, bitwise, "range {s}..{e}");
        }
    }

    #[test]
    fn install_is_first_wins_and_sticky() {
        let first = install(KernelTier::Wide);
        assert_eq!(install(KernelTier::Reference), first);
        assert_eq!(active(), first);
    }

    #[test]
    fn tier_names_are_stable() {
        assert_eq!(KernelTier::Reference.name(), "reference");
        assert_eq!(KernelTier::Wide.name(), "wide");
        assert_eq!(KernelTier::ALL.len(), 2);
    }
}
