//! Execution-tier kernels: runtime-dispatched scalar and wide-lane paths
//! for the two hot kernel families.
//!
//! The paper's DPIM argument is that HDC wins when the hardware executes
//! wide bitwise operations in parallel; this module is the software half
//! of that claim. Every hot kernel — XOR+popcount distance (family 1) and
//! the carry-save majority that training bundles through and record
//! encoding binds and bundles through (family 2) — exists in two
//! *bit-identical* execution tiers:
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

/// Lane-wise carry-save adder over `N`-lane bundles: applies [`csa`]
/// independently per lane, returning `(sum, carry)` bundles.
#[inline]
// audit:allow(panic): lane ids range over the fixed N-lane arrays
fn csa_lanes<const N: usize>(a: &[u64; N], b: &[u64; N], c: &[u64; N]) -> ([u64; N], [u64; N]) {
    let mut sum = [0u64; N];
    let mut carry = [0u64; N];
    for lane in 0..N {
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

/// Ripple-carry increment of one `N`-word counter group by `carry`, all
/// lanes in lockstep: `planes` yields the counter's bit-plane groups,
/// least significant first. A lane whose carry is exhausted rides along
/// as a no-op (`t ^ 0 == t`), so the group early-outs only when *every*
/// lane's carry is spent — bit-identical to rippling each lane
/// independently. `N = 1` is the `Reference` tier's scalar ripple;
/// `N = BLOCK_WORDS` the `Wide` tier's block ripple.
#[inline]
fn ripple_lanes<'a, const N: usize>(
    planes: impl IntoIterator<Item = &'a mut [u64; N]>,
    carry: &mut [u64; N],
) {
    for lane in planes {
        if carry.iter().fold(0, |any, &c| any | c) == 0 {
            break;
        }
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
///
/// # Panics
///
/// Panics if any plane holds fewer words than `src`.
// audit:allow(panic): documented panic: every plane must cover src
pub fn ripple_add(tier: KernelTier, planes: &mut [Vec<u64>], src: &[u64]) {
    let full = match tier {
        KernelTier::Reference => 0,
        KernelTier::Wide => src.len() - src.len() % BLOCK_WORDS,
    };
    let (head, tail) = src.split_at(full);
    for (blk, chunk) in head.as_chunks::<BLOCK_WORDS>().0.iter().enumerate() {
        let mut carry = *chunk;
        ripple_lanes(
            planes.iter_mut().map(|p| &mut p.as_chunks_mut().0[blk]),
            &mut carry,
        );
    }
    for (w, &word) in tail.iter().enumerate() {
        ripple_lanes(
            planes
                .iter_mut()
                .map(|p| &mut p.as_chunks_mut().0[full + w]),
            &mut [word],
        );
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

/// MSB-first magnitude comparison of one `N`-word counter group against
/// the constant `half`, all lanes in lockstep: `planes` yields the
/// counter's bit-plane groups, least significant first. Each result word
/// is `gt | (eq & tie_mask)`, where `gt`/`eq` mark the lanes whose count
/// exceeds/equals `half`.
#[inline]
// audit:allow(panic): lane ids range over the fixed N-word arrays
fn threshold_lanes<'a, const N: usize>(
    planes: impl DoubleEndedIterator<Item = &'a [u64; N]> + ExactSizeIterator,
    half: u64,
    tie_mask: u64,
) -> [u64; N] {
    let mut gt = [0u64; N];
    let mut eq = [!0u64; N];
    for (j, plane) in planes.enumerate().rev() {
        let threshold_bit = if (half >> j) & 1 == 1 { !0u64 } else { 0u64 };
        for k in 0..N {
            gt[k] |= eq[k] & plane[k] & !threshold_bit;
            eq[k] &= !(plane[k] ^ threshold_bit);
        }
    }
    std::array::from_fn(|k| gt[k] | (eq[k] & tie_mask))
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
// audit:allow(panic): documented panic: every plane must cover out
pub fn threshold_words(
    tier: KernelTier,
    planes: &[Vec<u64>],
    half: u64,
    tie_mask: u64,
    out: &mut [u64],
) {
    let full = match tier {
        KernelTier::Reference => 0,
        KernelTier::Wide => out.len() - out.len() % BLOCK_WORDS,
    };
    let (head, tail) = out.split_at_mut(full);
    for (blk, o) in head.as_chunks_mut().0.iter_mut().enumerate() {
        *o = threshold_lanes::<BLOCK_WORDS>(
            planes.iter().map(|p| &p.as_chunks().0[blk]),
            half,
            tie_mask,
        );
    }
    for (w, o) in tail.iter_mut().enumerate() {
        [*o] = threshold_lanes::<1>(
            planes.iter().map(|p| &p.as_chunks().0[full + w]),
            half,
            tie_mask,
        );
    }
}

/// Counter planes the word-major record kernel can ever need: counts up
/// to `usize::MAX` fit in `usize::BITS` bits.
const MAX_PLANES: usize = usize::BITS as usize;

/// Counter planes that cover every record of up to 65 535 features: the
/// kernel zeroes a counter of this depth on the stack, and only a larger
/// record pays to zero one of [`MAX_PLANES`].
const COMMON_PLANES: usize = 16;

/// One bound pair `(a_k, b_k)` of packed word images.
type BoundPair<'a> = (&'a [u64], &'a [u64]);

/// Binds, counts and thresholds the `N`-word group `at` (words
/// `at·N .. at·N + N`) of every bound pair — one step of
/// [`bind_majority_words`]. `planes` is the stack-resident counter, of
/// `bit_length(pairs.len())` planes; it is zeroed first.
///
/// Eight pairs at a time go through a Harley–Seal carry-save tree into
/// the three lowest planes (`ones`, `twos`, `fours`), and the tree's
/// weight-8 carry ripples into the planes above; the last
/// `pairs.len() % 8` pairs ripple in one at a time.
#[inline]
// audit:allow(panic): callers check every operand covers group at; tree ids are constants
fn bind_majority_lanes<const N: usize>(
    pairs: &[BoundPair<'_>],
    at: usize,
    planes: &mut [[u64; N]],
    half: u64,
    tie_mask: u64,
) -> [u64; N] {
    let bound = |(a, b): &BoundPair<'_>| -> [u64; N] {
        let (a, b) = (&a.as_chunks::<N>().0[at], &b.as_chunks::<N>().0[at]);
        std::array::from_fn(|k| a[k] ^ b[k])
    };
    planes.fill([0; N]);
    let (octets, rest) = pairs.as_chunks::<8>();
    if let [ones, twos, fours, upper @ ..] = planes {
        for octet in octets {
            let x = octet.each_ref().map(bound);
            let (o, twos_a) = csa_lanes(ones, &x[0], &x[1]);
            let (o, twos_b) = csa_lanes(&o, &x[2], &x[3]);
            let (t, fours_a) = csa_lanes(twos, &twos_a, &twos_b);
            let (o, twos_a) = csa_lanes(&o, &x[4], &x[5]);
            let (o, twos_b) = csa_lanes(&o, &x[6], &x[7]);
            let (t, fours_b) = csa_lanes(&t, &twos_a, &twos_b);
            let (f, mut eights) = csa_lanes(fours, &fours_a, &fours_b);
            (*ones, *twos, *fours) = (o, t, f);
            ripple_lanes(upper.iter_mut(), &mut eights);
        }
    }
    for pair in rest {
        ripple_lanes(planes.iter_mut(), &mut bound(pair));
    }
    threshold_lanes(planes.iter(), half, tie_mask)
}

/// Fused bind + majority bundle of a whole record (kernel family 2: the
/// record encoder, under `bitslice::bind_majority`). Output word `w` is
/// the lane-wise majority of `a_k[w] ^ b_k[w]` over every pair
/// `(a_k, b_k)`: a lane becomes 1 when its count exceeds
/// `pairs.len() / 2`, and an exact tie (even pair counts only) takes
/// `tie_mask`'s bit. Callers pass the parity tie mask (or 0) and re-mask
/// the tail themselves, as for [`threshold_words`].
///
/// The loop is *word-major*: for each [`BLOCK_WORDS`]-word block (in the
/// `Reference` tier, each word) every pair is XORed and counted into a
/// stack-resident bit-sliced counter of `bit_length(pairs.len())` planes
/// — eight pairs at a time through a carry-save tree, whose carry ripples
/// up with the all-lanes early-out — and the block is thresholded before
/// the next one starts. Nothing is allocated and the counter never leaves
/// L1. The `Wide` tier runs the same steps over whole blocks; a partial
/// last block goes word by word.
///
/// # Panics
///
/// Panics if any operand's length differs from `out.len()`.
// audit:allow(panic): depth is bit_length(pairs.len()), at most MAX_PLANES
pub fn bind_majority_words(
    tier: KernelTier,
    pairs: &[(&[u64], &[u64])],
    tie_mask: u64,
    out: &mut [u64],
) {
    for (a, b) in pairs {
        assert!(
            a.len() == out.len() && b.len() == out.len(),
            "word count mismatch in bind_majority_words"
        );
    }
    let depth = (usize::BITS - pairs.len().leading_zeros()) as usize;
    let half = pairs.len() as u64 / 2;
    let full = match tier {
        KernelTier::Reference => 0,
        KernelTier::Wide => out.len() - out.len() % BLOCK_WORDS,
    };
    let (head, tail) = out.split_at_mut(full);
    let mut common = [[0u64; BLOCK_WORDS]; COMMON_PLANES];
    let mut deep;
    let planes = if depth <= COMMON_PLANES {
        &mut common[..depth]
    } else {
        deep = [[0u64; BLOCK_WORDS]; MAX_PLANES];
        &mut deep[..depth]
    };
    for (blk, o) in head.as_chunks_mut().0.iter_mut().enumerate() {
        *o = bind_majority_lanes(pairs, blk, planes, half, tie_mask);
    }
    let mut planes = [[0u64; 1]; MAX_PLANES];
    for (w, o) in tail.iter_mut().enumerate() {
        [*o] = bind_majority_lanes(pairs, full + w, &mut planes[..depth], half, tie_mask);
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
