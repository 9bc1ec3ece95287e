use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Error returned when an [`HdcConfig`] or [`RecoveryConfig`] builder is
/// given an invalid parameter combination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    message: String,
}

impl ConfigError {
    fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid configuration: {}", self.message)
    }
}

impl Error for ConfigError {}

/// How substitution writes trusted-query bits into a faulty chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SubstitutionMode {
    /// The paper's §4.3 operator: the class bit is *overwritten* by the
    /// query bit. Arithmetic-free, but the repaired bits inherit the
    /// query's disagreement with the clean class, so the repair floor
    /// equals the trusted-query error rate — effective against
    /// concentrated corruption (dead rows, bursts), neutral against
    /// diffuse corruption at or below that floor.
    Overwrite,
    /// Reproduction extension (documented in DESIGN.md): a small saturating
    /// counter per dimension accumulates the trusted queries' votes and the
    /// class bit follows the counter's sign — an unsupervised re-bundling
    /// of the faulty dimensions from inference traffic. Repairs diffuse
    /// corruption to near-zero residual error because the majority of
    /// several trusted queries is far more accurate than any single one.
    MajorityCounter {
        /// Counter saturation magnitude (e.g. 3 for a 3-bit up/down
        /// counter).
        saturation: u8,
    },
}

/// Hyperparameters of the HDC learning pipeline.
///
/// Construct through [`HdcConfig::builder`]; defaults follow the paper
/// (`D = 10_000`, binary model, a small number of retraining epochs).
///
/// # Example
///
/// ```
/// use robusthd::HdcConfig;
///
/// let config = HdcConfig::builder()
///     .dimension(4_096)
///     .levels(32)
///     .retrain_epochs(3)
///     .seed(11)
///     .build()?;
/// assert_eq!(config.dimension, 4_096);
/// # Ok::<(), robusthd::ConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HdcConfig {
    /// Hypervector dimensionality `D` (the paper uses 4k–10k).
    pub dimension: usize,
    /// Number of quantization levels for scalar features.
    pub levels: usize,
    /// Correlation length of the level codebook, in levels: values within
    /// this many levels stay similar in hyperspace, values further apart
    /// are near-orthogonal. Small values decorrelate classes more.
    pub level_correlation: usize,
    /// Retraining passes after the initial one-shot bundling.
    pub retrain_epochs: usize,
    /// Seed controlling base/level hypervector generation and retraining
    /// order.
    pub seed: u64,
    /// Inverse temperature of the confidence softmax (larger sharpens; see
    /// [`crate::confidence`]).
    pub softmax_beta: f64,
}

impl HdcConfig {
    /// Starts a builder pre-loaded with the paper's defaults.
    pub fn builder() -> HdcConfigBuilder {
        HdcConfigBuilder::new()
    }
}

impl Default for HdcConfig {
    fn default() -> Self {
        Self::builder().build().expect("defaults are valid") // audit:allow(panic): builder defaults are statically valid
    }
}

/// Builder for [`HdcConfig`].
#[derive(Debug, Clone)]
pub struct HdcConfigBuilder {
    dimension: usize,
    levels: usize,
    level_correlation: usize,
    retrain_epochs: usize,
    seed: u64,
    softmax_beta: f64,
}

impl HdcConfigBuilder {
    fn new() -> Self {
        Self {
            dimension: 10_000,
            levels: 64,
            level_correlation: 4,
            retrain_epochs: 0,
            seed: 0,
            softmax_beta: 128.0,
        }
    }

    /// Sets hypervector dimensionality `D`.
    pub fn dimension(mut self, dimension: usize) -> Self {
        self.dimension = dimension;
        self
    }

    /// Sets the number of feature quantization levels.
    pub fn levels(mut self, levels: usize) -> Self {
        self.levels = levels;
        self
    }

    /// Sets the level-codebook correlation length (in levels).
    pub fn level_correlation(mut self, level_correlation: usize) -> Self {
        self.level_correlation = level_correlation;
        self
    }

    /// Sets the number of retraining epochs.
    pub fn retrain_epochs(mut self, retrain_epochs: usize) -> Self {
        self.retrain_epochs = retrain_epochs;
        self
    }

    /// Sets the generation seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the softmax inverse temperature used for confidence.
    pub fn softmax_beta(mut self, softmax_beta: f64) -> Self {
        self.softmax_beta = softmax_beta;
        self
    }

    /// Validates and builds the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the dimension or level count is zero, or
    /// the softmax temperature is not positive and finite.
    pub fn build(self) -> Result<HdcConfig, ConfigError> {
        if self.dimension == 0 {
            return Err(ConfigError::new("dimension must be positive"));
        }
        if self.levels == 0 {
            return Err(ConfigError::new("levels must be positive"));
        }
        if self.level_correlation == 0 {
            return Err(ConfigError::new("level_correlation must be positive"));
        }
        if !(self.softmax_beta.is_finite() && self.softmax_beta > 0.0) {
            return Err(ConfigError::new("softmax_beta must be positive and finite"));
        }
        Ok(HdcConfig {
            dimension: self.dimension,
            levels: self.levels,
            level_correlation: self.level_correlation,
            retrain_epochs: self.retrain_epochs,
            seed: self.seed,
            softmax_beta: self.softmax_beta,
        })
    }
}

/// Hyperparameters of the adaptive recovery framework (§4 of the paper).
///
/// # Example
///
/// ```
/// use robusthd::RecoveryConfig;
///
/// let config = RecoveryConfig::builder()
///     .chunks(20)
///     .confidence_threshold(0.6)
///     .substitution_rate(0.3)
///     .build()?;
/// assert_eq!(config.chunks, 20);
/// # Ok::<(), robusthd::ConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryConfig {
    /// Number of chunks `m` the hypervectors are split into (`d = D / m`
    /// dimensions per chunk).
    pub chunks: usize,
    /// Confidence threshold `T_C`: only predictions whose softmax confidence
    /// exceeds this are trusted as pseudo-labels.
    pub confidence_threshold: f64,
    /// Substitution rate `S`: probability that a class-vector bit inside a
    /// faulty chunk is replaced by the query bit.
    pub substitution_rate: f64,
    /// How substitution writes query bits into faulty chunks.
    pub substitution: SubstitutionMode,
    /// Statistical margin (in units of `sqrt(d)` for chunk size `d`)
    /// a competing class must win by before a chunk is flagged faulty.
    /// Hamming distances over a chunk fluctuate with standard deviation
    /// `O(sqrt(d))`; requiring a deficit beyond that keeps the false-positive
    /// rate low so healthy chunks are not churned by substitution.
    pub fault_margin: f64,
    /// When `true` (paper behaviour) substitution is restricted to chunks
    /// that voted against the trusted prediction; when `false` the whole
    /// class vector is eligible (the `pQ|(1-p)C` form of §4.3).
    pub faulty_chunks_only: bool,
    /// Seed for the stochastic substitution.
    pub seed: u64,
}

impl RecoveryConfig {
    /// Starts a builder pre-loaded with defaults matching the paper's
    /// operating point.
    pub fn builder() -> RecoveryConfigBuilder {
        RecoveryConfigBuilder::new()
    }
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        Self::builder().build().expect("defaults are valid") // audit:allow(panic): builder defaults are statically valid
    }
}

/// Builder for [`RecoveryConfig`].
#[derive(Debug, Clone)]
pub struct RecoveryConfigBuilder {
    chunks: usize,
    confidence_threshold: f64,
    substitution_rate: f64,
    substitution: SubstitutionMode,
    fault_margin: f64,
    faulty_chunks_only: bool,
    seed: u64,
}

impl RecoveryConfigBuilder {
    fn new() -> Self {
        Self {
            chunks: 20,
            confidence_threshold: 0.85,
            substitution_rate: 0.25,
            substitution: SubstitutionMode::Overwrite,
            fault_margin: 1.0,
            faulty_chunks_only: true,
            seed: 0,
        }
    }

    /// Sets the chunk count `m`.
    pub fn chunks(mut self, chunks: usize) -> Self {
        self.chunks = chunks;
        self
    }

    /// Sets the confidence threshold `T_C`.
    pub fn confidence_threshold(mut self, confidence_threshold: f64) -> Self {
        self.confidence_threshold = confidence_threshold;
        self
    }

    /// Sets the substitution rate `S`.
    pub fn substitution_rate(mut self, substitution_rate: f64) -> Self {
        self.substitution_rate = substitution_rate;
        self
    }

    /// Sets the statistical fault-detection margin (in units of `sqrt(d)`).
    pub fn fault_margin(mut self, fault_margin: f64) -> Self {
        self.fault_margin = fault_margin;
        self
    }

    /// Chooses the substitution operator (paper-literal overwrite, or the
    /// majority-counter extension).
    pub fn substitution(mut self, substitution: SubstitutionMode) -> Self {
        self.substitution = substitution;
        self
    }

    /// Chooses between per-chunk substitution (paper behaviour, `true`) and
    /// whole-vector substitution (`false`).
    pub fn faulty_chunks_only(mut self, faulty_chunks_only: bool) -> Self {
        self.faulty_chunks_only = faulty_chunks_only;
        self
    }

    /// Sets the substitution RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validates and builds the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `chunks` is zero, or either rate parameter
    /// lies outside `[0, 1]`.
    pub fn build(self) -> Result<RecoveryConfig, ConfigError> {
        if self.chunks == 0 {
            return Err(ConfigError::new("chunks must be positive"));
        }
        if !(0.0..=1.0).contains(&self.confidence_threshold) {
            return Err(ConfigError::new("confidence_threshold must lie in [0, 1]"));
        }
        if !(0.0..=1.0).contains(&self.substitution_rate) {
            return Err(ConfigError::new("substitution_rate must lie in [0, 1]"));
        }
        if !(self.fault_margin.is_finite() && self.fault_margin >= 0.0) {
            return Err(ConfigError::new(
                "fault_margin must be non-negative and finite",
            ));
        }
        if let SubstitutionMode::MajorityCounter { saturation } = self.substitution {
            if saturation == 0 {
                return Err(ConfigError::new("counter saturation must be positive"));
            }
        }
        Ok(RecoveryConfig {
            chunks: self.chunks,
            confidence_threshold: self.confidence_threshold,
            substitution_rate: self.substitution_rate,
            substitution: self.substitution,
            fault_margin: self.fault_margin,
            faulty_chunks_only: self.faulty_chunks_only,
            seed: self.seed,
        })
    }
}

/// One rung of the resilience supervisor's escalation ladder: the recovery
/// operating point used while the model is degraded at that escalation
/// level.
///
/// Escalating raises the repair aggressiveness — more substitution, finer
/// chunking, more passes — and, at the deepest rungs, *temporarily* lowers
/// the trust threshold `T_C` so a heavily damaged class that produces no
/// high-confidence traffic can still attract repair, but never below the
/// supervisor's fixed floor of 0.4.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EscalationLevel {
    /// Substitution rate `S` at this level.
    pub substitution_rate: f64,
    /// Chunk count `m` at this level.
    pub chunks: usize,
    /// Trust threshold `T_C` at this level (never below the floor).
    pub confidence_threshold: f64,
    /// Recovery passes over the degraded batch at this level — the bounded
    /// backoff: deeper levels retry harder, but never unboundedly.
    pub rounds: usize,
}

/// Policy of the closed-loop resilience supervisor
/// ([`crate::supervisor::ResilienceSupervisor`]).
///
/// # Example
///
/// ```
/// use robusthd::SupervisorConfig;
///
/// let config = SupervisorConfig::builder()
///     .window(48)
///     .rollback_after(2)
///     .build()?;
/// assert_eq!(config.window, 48);
/// # Ok::<(), robusthd::ConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SupervisorConfig {
    /// Sliding-window size of the health monitor.
    pub window: usize,
    /// Monitor alarm sensitivity (see [`crate::diagnostics::HealthMonitor`]).
    pub sensitivity: f64,
    /// Healthy batches between checkpoints.
    pub checkpoint_interval: usize,
    /// Consecutive failed recovery rounds before rolling back to the last
    /// healthy checkpoint.
    pub rollback_after: usize,
    /// Per-class chunk-fault rate above which the class hypervector is
    /// quarantined (its predictions reported unreliable).
    pub quarantine_fault_ceiling: f64,
    /// Minimum chunks inspected for a class before its quarantine state may
    /// change — below this, the fault-rate estimate is too noisy to act on.
    pub quarantine_min_chunks: usize,
}

impl SupervisorConfig {
    /// Starts a builder pre-loaded with defaults.
    pub fn builder() -> SupervisorConfigBuilder {
        SupervisorConfigBuilder::new()
    }
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self::builder().build().expect("defaults are valid") // audit:allow(panic): builder defaults are statically valid
    }
}

/// Builder for [`SupervisorConfig`].
#[derive(Debug, Clone)]
pub struct SupervisorConfigBuilder {
    window: usize,
    sensitivity: f64,
    checkpoint_interval: usize,
    rollback_after: usize,
    quarantine_fault_ceiling: f64,
    quarantine_min_chunks: usize,
}

impl SupervisorConfigBuilder {
    fn new() -> Self {
        Self {
            window: 64,
            sensitivity: 0.7,
            checkpoint_interval: 1,
            rollback_after: 3,
            quarantine_fault_ceiling: 0.5,
            quarantine_min_chunks: 40,
        }
    }

    /// Sets the health-monitor window.
    pub fn window(mut self, window: usize) -> Self {
        self.window = window;
        self
    }

    /// Sets the monitor alarm sensitivity.
    pub fn sensitivity(mut self, sensitivity: f64) -> Self {
        self.sensitivity = sensitivity;
        self
    }

    /// Sets the healthy-batch checkpoint interval.
    pub fn checkpoint_interval(mut self, checkpoint_interval: usize) -> Self {
        self.checkpoint_interval = checkpoint_interval;
        self
    }

    /// Sets the failed-round count that triggers rollback.
    pub fn rollback_after(mut self, rollback_after: usize) -> Self {
        self.rollback_after = rollback_after;
        self
    }

    /// Sets the quarantine chunk-fault-rate ceiling.
    pub fn quarantine_fault_ceiling(mut self, ceiling: f64) -> Self {
        self.quarantine_fault_ceiling = ceiling;
        self
    }

    /// Sets the minimum inspected chunks before quarantine decisions.
    pub fn quarantine_min_chunks(mut self, min_chunks: usize) -> Self {
        self.quarantine_min_chunks = min_chunks;
        self
    }

    /// Validates and builds the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if any count is zero or a rate lies outside
    /// its range.
    pub fn build(self) -> Result<SupervisorConfig, ConfigError> {
        if self.window == 0 {
            return Err(ConfigError::new("window must be positive"));
        }
        if !(self.sensitivity > 0.0 && self.sensitivity <= 1.0) {
            return Err(ConfigError::new("sensitivity must lie in (0, 1]"));
        }
        if self.checkpoint_interval == 0 {
            return Err(ConfigError::new("checkpoint_interval must be positive"));
        }
        if self.rollback_after == 0 {
            return Err(ConfigError::new("rollback_after must be positive"));
        }
        if !(self.quarantine_fault_ceiling > 0.0 && self.quarantine_fault_ceiling <= 1.0) {
            return Err(ConfigError::new(
                "quarantine_fault_ceiling must lie in (0, 1]",
            ));
        }
        if self.quarantine_min_chunks == 0 {
            return Err(ConfigError::new("quarantine_min_chunks must be positive"));
        }
        Ok(SupervisorConfig {
            window: self.window,
            sensitivity: self.sensitivity,
            checkpoint_interval: self.checkpoint_interval,
            rollback_after: self.rollback_after,
            quarantine_fault_ceiling: self.quarantine_fault_ceiling,
            quarantine_min_chunks: self.quarantine_min_chunks,
        })
    }
}

/// Environment variable read by [`BatchConfig::from_env`] for the worker
/// thread count of the batched inference engine.
pub const THREADS_ENV_VAR: &str = "ROBUSTHD_THREADS";

/// Environment variable read by [`KernelConfig::from_env`]: set to
/// `reference`, `ref`, or `scalar` (case-insensitive) to pin the
/// execution-tier kernels ([`hypervector::tier`]) to the scalar reference
/// tier; anything else — including the variable being unset — selects the
/// portable wide-lane tier.
pub const KERNEL_TIER_ENV_VAR: &str = "ROBUSTHD_KERNEL_TIER";

/// Selection of the execution-tier kernel implementation
/// ([`hypervector::tier`]): the scalar `Reference` tier or the portable
/// wide-lane `Wide` tier behind both kernel families — XOR + popcount
/// Hamming distance, and the carry-save majority (training's incremental
/// ripple, and the word-major fused bind+bundle that record encoding runs
/// once per row: one word at a time in `Reference`, one 8-word block at a
/// time in `Wide`).
///
/// Like [`BatchConfig`], this is a pure throughput knob: both tiers
/// compute exact integer popcounts and identical bit patterns, which the
/// differential suite
/// (`crates/core/tests/tier_differential.rs`) pins kernel by kernel — so
/// the flag can never change a prediction, a similarity, or a trained
/// model, only how fast they are produced.
///
/// The tier is installed process-wide (first install wins, see
/// [`hypervector::tier::install`]); [`crate::BatchEngine::from_env`]
/// installs it on construction so every engine-driven path respects the
/// flag without further plumbing.
///
/// # Example
///
/// ```
/// use hypervector::KernelTier;
/// use robusthd::KernelConfig;
///
/// assert_eq!(KernelConfig::default().tier, KernelTier::Wide);
/// assert_eq!(KernelConfig::reference().tier, KernelTier::Reference);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelConfig {
    /// The execution tier the kernels should dispatch to.
    pub tier: hypervector::KernelTier,
}

impl KernelConfig {
    /// The wide-lane tier (default): 8-word blocked loops with carry-save
    /// popcount compression.
    pub fn wide() -> Self {
        Self {
            tier: hypervector::KernelTier::Wide,
        }
    }

    /// The scalar reference tier: one-word-at-a-time loops, the semantic
    /// definition every other tier is pinned against.
    pub fn reference() -> Self {
        Self {
            tier: hypervector::KernelTier::Reference,
        }
    }

    /// The default (wide) configuration, overridden by the
    /// `ROBUSTHD_KERNEL_TIER` environment variable: `reference` / `ref` /
    /// `scalar` (case-insensitive) select the scalar tier, anything else —
    /// including the variable being unset — selects the wide tier.
    pub fn from_env() -> Self {
        Self {
            tier: parse_kernel_tier(std::env::var(KERNEL_TIER_ENV_VAR).ok().as_deref()),
        }
    }

    /// Installs this configuration's tier as the process-wide dispatch
    /// tier (first install wins), returning the tier actually active
    /// afterwards. Because the tiers are bit-identical, losing the race
    /// affects throughput only, never results.
    pub fn install(self) -> hypervector::KernelTier {
        hypervector::tier::install(self.tier)
    }
}

impl Default for KernelConfig {
    fn default() -> Self {
        Self::wide()
    }
}

/// Parses a `ROBUSTHD_KERNEL_TIER` value; only an explicit opt-out
/// (`reference` / `ref` / `scalar`, case-insensitive) selects the scalar
/// tier.
pub fn parse_kernel_tier(raw: Option<&str>) -> hypervector::KernelTier {
    match raw.map(|v| v.trim().to_ascii_lowercase()).as_deref() {
        Some("reference") | Some("ref") | Some("scalar") => hypervector::KernelTier::Reference,
        _ => hypervector::KernelTier::Wide,
    }
}

/// Tuning of the batched inference engine
/// ([`crate::batch::BatchEngine`]): worker thread count and shard size.
///
/// Neither knob can change any result — the engine computes the same exact
/// integer popcounts and the same float expressions as the sequential path
/// and writes per-query outputs by position — so both are pure throughput
/// parameters.
///
/// # Example
///
/// ```
/// use robusthd::BatchConfig;
///
/// let config = BatchConfig::builder().threads(4).shard_size(16).build()?;
/// assert_eq!(config.threads, 4);
/// # Ok::<(), robusthd::ConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchConfig {
    /// Worker threads sharing the batch. `1` runs inline on the caller's
    /// thread with no spawning at all.
    pub threads: usize,
    /// Queries per shard — the unit of work a thread claims at a time.
    /// Small shards balance better across threads; large shards amortize
    /// the (tiny) claim overhead.
    pub shard_size: usize,
}

impl BatchConfig {
    /// Starts a builder pre-loaded with defaults (threads = available
    /// hardware parallelism, shard size 32).
    pub fn builder() -> BatchConfigBuilder {
        BatchConfigBuilder::new()
    }

    /// Builds the default configuration with the thread count overridden by
    /// the `ROBUSTHD_THREADS` environment variable when it is set to a
    /// positive integer (anything else falls back to the hardware default).
    pub fn from_env() -> Self {
        let threads = parse_threads(std::env::var(THREADS_ENV_VAR).ok().as_deref())
            .unwrap_or_else(default_threads);
        Self::builder()
            .threads(threads)
            .build()
            .expect("env-derived batch config is valid") // audit:allow(panic): startup-time config build, not a serving-path failure
    }
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self::builder().build().expect("defaults are valid") // audit:allow(panic): builder defaults are statically valid
    }
}

/// Parses a `ROBUSTHD_THREADS`-style value; `None` when absent or not a
/// positive integer.
fn parse_threads(raw: Option<&str>) -> Option<usize> {
    raw.and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&t| t > 0)
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Tuning of the multi-tenant model fleet registry ([`crate::fleet`]): the
/// resident-memory budget that bounds how many hydrated models (class
/// vectors + fused `PackedClasses` arenas) stay hot at once, and the
/// opt-in LogHD compressed representation.
///
/// The budget is a capacity knob, not a correctness knob: evicting a model
/// serializes any repairs back into its RHD2 image, and rehydrating
/// restores the exact same bits, so answers are `f64::to_bits`-identical
/// at any budget (pinned by `crates/core/tests/fleet_differential.rs`).
/// LogHD is the exception — it is lossy by construction and therefore
/// opt-in.
///
/// # Example
///
/// ```
/// use robusthd::FleetConfig;
///
/// let config = FleetConfig::builder()
///     .budget_bytes(8 * 1024 * 1024)
///     .build()?;
/// assert_eq!(config.budget_bytes, 8 * 1024 * 1024);
/// assert!(!config.loghd);
/// # Ok::<(), robusthd::ConfigError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Resident-memory budget in bytes for hydrated models. A single model
    /// larger than the budget still hydrates (the fleet could not serve it
    /// otherwise) but becomes the first eviction candidate.
    pub budget_bytes: usize,
    /// Serve plain-routed queries through the LogHD compressed
    /// representation (O(log C) composite class vectors) instead of the
    /// full class set. Lossy; off by default.
    pub loghd: bool,
}

impl FleetConfig {
    /// Starts a builder pre-loaded with the defaults (64 MiB budget,
    /// LogHD off).
    pub fn builder() -> FleetConfigBuilder {
        FleetConfigBuilder::new()
    }
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self::builder().build().expect("defaults are valid") // audit:allow(panic): builder defaults are statically valid
    }
}

/// Builder for [`FleetConfig`].
#[derive(Debug, Clone)]
pub struct FleetConfigBuilder {
    budget_bytes: usize,
    loghd: bool,
}

impl FleetConfigBuilder {
    fn new() -> Self {
        Self {
            budget_bytes: 64 * 1024 * 1024,
            loghd: false,
        }
    }

    /// Sets the resident-memory budget in bytes.
    pub fn budget_bytes(mut self, budget_bytes: usize) -> Self {
        self.budget_bytes = budget_bytes;
        self
    }

    /// Enables or disables the LogHD compressed representation.
    pub fn loghd(mut self, loghd: bool) -> Self {
        self.loghd = loghd;
        self
    }

    /// Validates and builds the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `budget_bytes` is zero.
    pub fn build(self) -> Result<FleetConfig, ConfigError> {
        if self.budget_bytes == 0 {
            return Err(ConfigError::new("budget_bytes must be positive"));
        }
        Ok(FleetConfig {
            budget_bytes: self.budget_bytes,
            loghd: self.loghd,
        })
    }
}

/// Tuning of the serving daemon's request coalescer (the `robusthd-serve`
/// crate): how long a micro-batch may wait for company, how large it may
/// grow, and how many queries the admission queue holds before shedding
/// load.
///
/// Like [`BatchConfig`], these are pure latency/throughput knobs — a query
/// served through a coalesced batch produces the same answer bits as the
/// same query served alone, which the serving differential suite
/// (`crates/serve/tests/serve_differential.rs`) pins to `f64::to_bits`
/// through the wire protocol. What the knobs trade is *when* answers
/// arrive: wider windows and deeper batches amortize the per-batch
/// supervisor overhead (canary probe, checkpointing) across more queries,
/// at up to one window of added queueing latency.
///
/// # Example
///
/// ```
/// use robusthd::ServeConfig;
///
/// let config = ServeConfig::builder()
///     .window_us(500)
///     .max_batch(128)
///     .queue_depth(2048)
///     .build()?;
/// assert_eq!(config.max_batch, 128);
/// # Ok::<(), robusthd::ConfigError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeConfig {
    /// Coalescing window in microseconds: how long the drain loop waits
    /// after a batch's first query for more to arrive. `0` drains
    /// immediately.
    pub window_us: u64,
    /// Maximum queries per coalesced micro-batch (one fused engine pass).
    pub max_batch: usize,
    /// Bounded admission-queue depth; arrivals beyond it are refused with
    /// an `overloaded` response (load shedding, never silent drops).
    pub queue_depth: usize,
}

impl ServeConfig {
    /// Starts a builder pre-loaded with the defaults (1 ms window, 64-query
    /// batches, 1024-query queue).
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder::new()
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self::builder().build().expect("defaults are valid") // audit:allow(panic): builder defaults are statically valid
    }
}

/// Builder for [`ServeConfig`].
#[derive(Debug, Clone)]
pub struct ServeConfigBuilder {
    window_us: u64,
    max_batch: usize,
    queue_depth: usize,
}

impl ServeConfigBuilder {
    fn new() -> Self {
        Self {
            window_us: 1_000,
            max_batch: 64,
            queue_depth: 1_024,
        }
    }

    /// Sets the coalescing window in microseconds (`0` drains immediately).
    pub fn window_us(mut self, window_us: u64) -> Self {
        self.window_us = window_us;
        self
    }

    /// Sets the maximum queries per coalesced micro-batch.
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch;
        self
    }

    /// Sets the bounded admission-queue depth.
    pub fn queue_depth(mut self, queue_depth: usize) -> Self {
        self.queue_depth = queue_depth;
        self
    }

    /// Validates and builds the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `max_batch` or `queue_depth` is zero.
    pub fn build(self) -> Result<ServeConfig, ConfigError> {
        if self.max_batch == 0 {
            return Err(ConfigError::new("max_batch must be positive"));
        }
        if self.queue_depth == 0 {
            return Err(ConfigError::new("queue_depth must be positive"));
        }
        Ok(ServeConfig {
            window_us: self.window_us,
            max_batch: self.max_batch,
            queue_depth: self.queue_depth,
        })
    }
}

/// One registered `ROBUSTHD_*` environment flag: its name, owner, default,
/// the raw environment value (if set), and the value the owning config
/// actually parsed from it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlagInfo {
    /// Environment variable name (`ROBUSTHD_*`).
    pub name: &'static str,
    /// Config struct whose `from_env` reads the flag.
    pub owner: &'static str,
    /// Human-readable default when the variable is unset.
    pub default: &'static str,
    /// One-line semantics of the flag.
    pub doc: &'static str,
    /// The raw environment value, if the variable is currently set.
    pub raw: Option<String>,
    /// The effective parsed value the owning config resolves to right now.
    pub effective: String,
}

/// Central registry of every `ROBUSTHD_*` environment flag.
///
/// This is the one place a runtime flag may be born: each entry names the
/// variable, the config struct whose `from_env` consumes it, its default,
/// and its currently-effective parsed value. The repo-native lints
/// (`cargo xtask lint`) enforce that every `*_ENV_VAR` constant in this
/// module is registered here, that `README.md` documents exactly the
/// registered set, and that no other module reads a `ROBUSTHD_*` variable
/// directly — so the registry, the docs, and the `robusthd flags` CLI
/// output cannot drift apart in any direction.
///
/// # Example
///
/// ```
/// use robusthd::FlagRegistry;
///
/// let flags = FlagRegistry::flags();
/// assert!(flags.iter().any(|f| f.name == "ROBUSTHD_THREADS"));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct FlagRegistry;

impl FlagRegistry {
    /// Every registered flag, with its current raw and effective values.
    pub fn flags() -> Vec<FlagInfo> {
        vec![
            FlagInfo {
                name: THREADS_ENV_VAR,
                owner: "BatchConfig",
                default: "available hardware parallelism",
                doc: "Worker thread count of the batched inference/training engine; \
                      a pure throughput knob, results are bit-identical at any value.",
                raw: std::env::var(THREADS_ENV_VAR).ok(),
                effective: BatchConfig::from_env().threads.to_string(),
            },
            FlagInfo {
                name: KERNEL_TIER_ENV_VAR,
                owner: "KernelConfig",
                default: "wide",
                doc: "Set to reference/ref/scalar to pin the execution-tier \
                      kernels (XOR + popcount hamming; carry-save majority, \
                      the word-major record encoding kernel included) to the scalar \
                      reference tier instead of the wide-lane tier; both tiers \
                      are bit-identical.",
                raw: std::env::var(KERNEL_TIER_ENV_VAR).ok(),
                effective: KernelConfig::from_env().tier.name().to_owned(),
            },
        ]
    }
}

/// Builder for [`BatchConfig`].
#[derive(Debug, Clone)]
pub struct BatchConfigBuilder {
    threads: usize,
    shard_size: usize,
}

impl BatchConfigBuilder {
    fn new() -> Self {
        Self {
            threads: default_threads(),
            shard_size: 32,
        }
    }

    /// Sets the worker thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the shard size (queries claimed per unit of work).
    pub fn shard_size(mut self, shard_size: usize) -> Self {
        self.shard_size = shard_size;
        self
    }

    /// Validates and builds the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if either count is zero.
    pub fn build(self) -> Result<BatchConfig, ConfigError> {
        if self.threads == 0 {
            return Err(ConfigError::new("threads must be positive"));
        }
        if self.shard_size == 0 {
            return Err(ConfigError::new("shard_size must be positive"));
        }
        Ok(BatchConfig {
            threads: self.threads,
            shard_size: self.shard_size,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_hdc_config_matches_paper() {
        let c = HdcConfig::default();
        assert_eq!(c.dimension, 10_000);
        assert!(c.levels > 0);
    }

    #[test]
    fn builder_overrides_fields() {
        let c = HdcConfig::builder()
            .dimension(5_000)
            .levels(16)
            .retrain_epochs(0)
            .seed(9)
            .softmax_beta(32.0)
            .build()
            .expect("valid");
        assert_eq!(
            (c.dimension, c.levels, c.retrain_epochs, c.seed),
            (5_000, 16, 0, 9)
        );
        assert_eq!(c.softmax_beta, 32.0);
    }

    #[test]
    fn zero_dimension_rejected() {
        let err = HdcConfig::builder().dimension(0).build().unwrap_err();
        assert!(err.to_string().contains("dimension"));
    }

    #[test]
    fn zero_levels_rejected() {
        assert!(HdcConfig::builder().levels(0).build().is_err());
    }

    #[test]
    fn negative_beta_rejected() {
        assert!(HdcConfig::builder().softmax_beta(-1.0).build().is_err());
    }

    #[test]
    fn recovery_defaults_are_valid() {
        let c = RecoveryConfig::default();
        assert!(c.chunks > 0);
        assert!(c.faulty_chunks_only);
    }

    #[test]
    fn recovery_validation() {
        assert!(RecoveryConfig::builder().chunks(0).build().is_err());
        assert!(RecoveryConfig::builder()
            .confidence_threshold(1.2)
            .build()
            .is_err());
        assert!(RecoveryConfig::builder()
            .substitution_rate(-0.1)
            .build()
            .is_err());
    }

    #[test]
    fn supervisor_defaults_are_valid() {
        let c = SupervisorConfig::default();
        assert!(c.window > 0);
    }

    #[test]
    fn supervisor_validation() {
        assert!(SupervisorConfig::builder().window(0).build().is_err());
        assert!(SupervisorConfig::builder()
            .sensitivity(0.0)
            .build()
            .is_err());
        assert!(SupervisorConfig::builder()
            .rollback_after(0)
            .build()
            .is_err());
        assert!(SupervisorConfig::builder()
            .quarantine_fault_ceiling(1.5)
            .build()
            .is_err());
    }

    #[test]
    fn default_ladder_escalates_monotonically() {
        let base = RecoveryConfig::default();
        let ladder = EscalationLevel::default_ladder(&base);
        assert!(ladder.len() >= 2);
        for pair in ladder.windows(2) {
            assert!(pair[1].substitution_rate >= pair[0].substitution_rate);
            assert!(pair[1].chunks >= pair[0].chunks);
            assert!(pair[1].confidence_threshold <= pair[0].confidence_threshold);
            assert!(pair[1].rounds >= pair[0].rounds);
        }
        assert!(ladder.last().expect("non-empty").confidence_threshold >= 0.4 - 1e-12);
    }

    #[test]
    fn batch_defaults_are_valid() {
        let c = BatchConfig::default();
        assert!(c.threads >= 1);
        assert!(c.shard_size >= 1);
    }

    #[test]
    fn batch_validation() {
        assert!(BatchConfig::builder().threads(0).build().is_err());
        assert!(BatchConfig::builder().shard_size(0).build().is_err());
        let c = BatchConfig::builder()
            .threads(8)
            .shard_size(4)
            .build()
            .expect("valid");
        assert_eq!((c.threads, c.shard_size), (8, 4));
    }

    #[test]
    fn thread_env_values_parse_or_fall_back() {
        assert_eq!(parse_threads(Some("4")), Some(4));
        assert_eq!(parse_threads(Some(" 2 ")), Some(2));
        assert_eq!(parse_threads(Some("0")), None);
        assert_eq!(parse_threads(Some("-3")), None);
        assert_eq!(parse_threads(Some("many")), None);
        assert_eq!(parse_threads(Some("")), None);
        assert_eq!(parse_threads(None), None);
        // from_env always yields something buildable.
        assert!(BatchConfig::from_env().threads >= 1);
    }

    #[test]
    fn flag_registry_covers_every_env_var_const() {
        let flags = FlagRegistry::flags();
        let names: Vec<&str> = flags.iter().map(|f| f.name).collect();
        for expected in [THREADS_ENV_VAR, KERNEL_TIER_ENV_VAR] {
            assert!(names.contains(&expected), "{expected} not registered");
        }
        assert_eq!(names.len(), 2, "new flags must be registered exactly once");
    }

    #[test]
    fn fleet_config_defaults_and_validation() {
        let c = FleetConfig::default();
        assert_eq!(c.budget_bytes, 64 * 1024 * 1024);
        assert!(!c.loghd);
        assert!(FleetConfig::builder().budget_bytes(0).build().is_err());
        assert!(
            FleetConfig::builder()
                .loghd(true)
                .build()
                .expect("valid")
                .loghd
        );
    }

    #[test]
    fn kernel_tier_env_values_parse_as_opt_out() {
        use hypervector::KernelTier;
        assert_eq!(parse_kernel_tier(Some("reference")), KernelTier::Reference);
        assert_eq!(parse_kernel_tier(Some(" REF ")), KernelTier::Reference);
        assert_eq!(parse_kernel_tier(Some("scalar")), KernelTier::Reference);
        assert_eq!(parse_kernel_tier(Some("wide")), KernelTier::Wide);
        assert_eq!(parse_kernel_tier(Some("anything")), KernelTier::Wide);
        assert_eq!(parse_kernel_tier(None), KernelTier::Wide);
        assert_eq!(KernelConfig::default(), KernelConfig::wide());
        assert_eq!(KernelConfig::reference().tier, KernelTier::Reference);
    }

    #[test]
    fn flag_registry_entries_are_well_formed() {
        for flag in FlagRegistry::flags() {
            assert!(flag.name.starts_with("ROBUSTHD_"), "{}", flag.name);
            assert!(flag.owner.ends_with("Config"), "{}", flag.owner);
            assert!(!flag.default.is_empty());
            assert!(!flag.doc.is_empty());
            assert!(!flag.effective.is_empty());
        }
    }

    #[test]
    fn serve_config_defaults_and_validation() {
        let c = ServeConfig::default();
        assert_eq!(
            (c.window_us, c.max_batch, c.queue_depth),
            (1_000, 64, 1_024)
        );
        assert!(ServeConfig::builder().max_batch(0).build().is_err());
        assert!(ServeConfig::builder().queue_depth(0).build().is_err());
        // A zero window is valid: it means "drain immediately".
        let zero = ServeConfig::builder().window_us(0).build().expect("valid");
        assert_eq!(zero.window_us, 0);
    }

    #[test]
    fn config_error_is_std_error() {
        fn assert_error<E: std::error::Error + Send + Sync>() {}
        assert_error::<ConfigError>();
    }
}
