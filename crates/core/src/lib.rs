//! RobustHD: hyperdimensional learning with adaptive, unsupervised fault
//! recovery.
//!
//! This crate implements the primary contribution of *"Adaptive Neural
//! Recovery for Highly Robust Brain-like Representation"* (DAC 2022):
//!
//! 1. **Hyperdimensional classification** — raw feature vectors are encoded
//!    into binary hypervectors ([`encoding`]), bundled into per-class
//!    hypervectors and refined by retraining ([`model`]), and classified by
//!    Hamming-distance search. Because the representation is holographic,
//!    every stored bit has the same (negligible) influence, which is the
//!    source of HDC's robustness to bit flips.
//! 2. **Prediction confidence** — per-class similarities pass through a
//!    sharpened softmax ([`confidence`]); predictions whose top probability
//!    clears a threshold `T_C` are trusted as pseudo-labels.
//! 3. **Adaptive neural recovery** — the class hypervectors are split into
//!    chunks; chunks that vote against a trusted prediction are flagged
//!    faulty and regenerated by probabilistically substituting query bits
//!    into the class vector ([`recovery`]). The process is unsupervised: it
//!    consumes only unlabeled inference traffic, never training data and
//!    never a clean model copy.
//! 4. **Closed-loop resilience** — a serving-time supervisor
//!    ([`supervisor`]) wires health monitoring, an escalating recovery
//!    ladder, checksummed checkpoints with rollback, and per-class
//!    quarantine into one self-healing runtime loop.
//! 5. **Parallel batched inference** — a sharded, scoped-thread batch
//!    engine ([`batch`]) that serves query batches through fused popcount
//!    kernels with results bit-identical to the sequential path.
//! 6. **Bit-sliced encoding fast path** — the carry-save majority kernel
//!    ([`hypervector::CarrySaveMajority`]) binds each feature inside the
//!    bundle, making encoding word-parallel, and the engine's fused raw-features entry
//!    points (`predict_raw_batch`, `evaluate_raw_batch`,
//!    [`supervisor::ResilienceSupervisor::serve_raw_batch`]) run
//!    encode→score end to end without materializing intermediate
//!    hypervector batches. Results are bit-identical to the scalar
//!    oracle [`RecordEncoder::encode_reference`].
//! 7. **Parallel bit-sliced training** — one-shot bundling shards samples
//!    across the batch engine's workers into carry-save bit-plane partials
//!    and retraining epochs batch-score against the frozen per-epoch
//!    snapshot ([`train`]); every `fit`/`train` entry point routes through
//!    it. The trained model — down to the raw accumulator counts — is
//!    bit-identical to the sequential oracle
//!    [`train::train_accumulators_reference`], at any thread count.
//! 8. **Network serving** — the `robusthd-serve` crate wraps
//!    [`supervisor::ResilienceSupervisor::serve_raw_batch_with_scores`] in
//!    a TCP daemon whose request coalescer micro-batches concurrent
//!    single-query traffic ([`ServeConfig`]: window, batch ceiling, and
//!    admission-queue depth, set through its builder or the daemon's
//!    command-line options); answers are bit-identical to solo serving at
//!    any coalescing configuration.
//!
//! # Quickstart
//!
//! ```
//! use robusthd::{HdcClassifier, HdcConfig};
//! use synthdata::{DatasetSpec, GeneratorConfig};
//!
//! # fn main() {
//! let data = GeneratorConfig::new(1).generate(&DatasetSpec::pecan().with_sizes(150, 60));
//! let config = HdcConfig::builder().dimension(2048).seed(7).build().expect("valid config");
//! let classifier = HdcClassifier::fit(&config, &data.train);
//! let accuracy = classifier.accuracy(&data.test);
//! assert!(accuracy > 0.8);
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod batch;
pub mod confidence;
mod config;
pub mod diagnostics;
pub mod encoding;
pub mod fleet;
pub mod metrics;
pub mod model;
pub mod persist;
pub mod recovery;
pub mod supervisor;
pub mod train;

mod pipeline;

pub use batch::{BatchEngine, BatchScore};
pub use confidence::Confidence;
pub use config::{
    BatchConfig, BatchConfigBuilder, ConfigError, EscalationLevel, FlagInfo, FlagRegistry,
    FleetConfig, FleetConfigBuilder, HdcConfig, HdcConfigBuilder, KernelConfig, RecoveryConfig,
    RecoveryConfigBuilder, ServeConfig, ServeConfigBuilder, SubstitutionMode, SupervisorConfig,
    SupervisorConfigBuilder, KERNEL_TIER_ENV_VAR, THREADS_ENV_VAR,
};
pub use encoding::{Encoder, RandomProjectionEncoder, RecordEncoder};
pub use fleet::{FleetAnswer, FleetError, FleetStats, LogHdModel, ModelRegistry};
pub use metrics::{accuracy, quality_loss};
pub use model::{IntModel, TrainedModel};
pub use pipeline::HdcClassifier;
pub use recovery::{RecoveryEngine, RecoveryStats};
pub use supervisor::{run_soak, BatchReport, ResilienceSupervisor, SoakReport, SoakStep};
