//! Bit-packed hypervectors and the hyperdimensional-computing operator algebra.
//!
//! This crate is the numeric substrate of the RobustHD reproduction. It
//! provides:
//!
//! * [`PackedBits`] — a dense, bit-addressable buffer backed by `u64` words,
//!   with constant-time word access so fault injectors can flip raw bits.
//! * [`BinaryHypervector`] — a `{0,1}^D` hypervector supporting binding
//!   (XOR) and Hamming-distance similarity.
//! * [`IntHypervector`] — a low-precision integer hypervector used for the
//!   multi-bit model-precision study (Table 1 of the paper).
//! * [`BundleAccumulator`] — element-wise counters used to bundle (add) many
//!   binary hypervectors and threshold them back to a binary model.
//! * [`CarrySaveMajority`] ([`bitslice`]) — the word-parallel bit-sliced
//!   majority kernel behind the encoding fast path, bit-identical to the
//!   accumulator's threshold including its tie-break.
//! * [`random`] — seeded generators for base, level, and orthogonal
//!   hypervector sets.
//! * [`similarity`] — Hamming / normalized / dot / cosine similarity kernels,
//!   plus the fused all-classes and per-chunk popcount kernels
//!   ([`PackedClasses`], [`similarity::chunked_hamming`],
//!   [`similarity::ChunkedHamming`]) behind the batched inference engine
//!   and the recovery loop.
//! * [`tier`] — the execution-tier kernel subsystem: every hot kernel in a
//!   scalar `Reference` and a portable wide-lane `Wide` tier
//!   ([`KernelTier`]), runtime-dispatched and bit-identical by
//!   construction.
//!
//! # Example
//!
//! ```
//! use hypervector::{BinaryHypervector, random::HypervectorSampler};
//!
//! let mut sampler = HypervectorSampler::seed_from(7);
//! let a = sampler.binary(10_000);
//! let b = sampler.binary(10_000);
//! // Random hypervectors are nearly orthogonal: distance ~ D/2.
//! let d = a.hamming_distance(&b);
//! assert!((4_500..5_500).contains(&d));
//! // Binding is self-inverse.
//! let bound = a.bind(&b);
//! assert_eq!(bound.bind(&b), a);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod accumulator;
mod binary;
pub mod bitslice;
mod bitvec;
pub mod cast;
mod error;
mod multibit;
pub mod random;
pub mod similarity;
pub mod tier;

pub use accumulator::BundleAccumulator;
pub use binary::BinaryHypervector;
pub use bitslice::CarrySaveMajority;
pub use bitvec::PackedBits;
pub use error::DimensionMismatchError;
pub use multibit::{IntHypervector, Precision};
pub use similarity::PackedClasses;
pub use tier::KernelTier;
