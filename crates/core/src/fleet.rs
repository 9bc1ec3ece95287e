//! Multi-tenant model fleet: a memory-budgeted registry of trained models
//! with copy-on-write RHD2 checkpoint lineage, fleet-aware batch routing,
//! and the opt-in LogHD compressed model representation.
//!
//! "Millions of users" means many personalized classifiers served side by
//! side, not one resident model. The [`ModelRegistry`] holds N tenants
//! under a byte budget ([`FleetConfig::budget_bytes`]): every tenant always
//! keeps its cold RHD2 checkpoint bytes (CRC-verified, deduplicated across
//! tenants that share a parent image), while the *hot* state — the class
//! hypervectors plus the fused [`PackedClasses`] scoring arena — is an LRU
//! cache. Over budget, the least-recently-used model is evicted back to
//! bytes; if the supervisor repaired it since hydration, eviction first
//! serializes the repairs into a fresh image (copy-on-write: siblings
//! still sharing the parent keep the old `Arc`). Rehydration is a
//! deterministic decode + encoder regeneration — never retraining — so a
//! model's answers are `f64::to_bits`-identical across any number of
//! eviction/rehydration cycles (pinned by
//! `crates/core/tests/fleet_differential.rs`).
//!
//! Routing ([`ModelRegistry::route_batch`],
//! [`ModelRegistry::serve_supervised`]) takes a mixed stream of
//! `(model_id, query)` pairs, groups it by tenant, and drains each group
//! through one [`BatchEngine`] pass — amortizing encode and keeping the
//! class-major `hamming_all_into` kernel hot instead of thrashing
//! per-request. Per-tenant supervisor state (quarantine, rollback, health
//! verdicts) rides on the registry and survives eviction of the model it
//! supervises.
//!
//! The LogHD representation ([`LogHdModel`], after arXiv 2511.03938)
//! compresses the class axis: instead of C class hypervectors it stores
//! ceil(log2(C)) composite hypervectors. Every class participates in every
//! composite with an orientation given by its binary codeword — bundled
//! directly for a 1-bit, complemented for a 0-bit — and scoring decodes by
//! agreement between the signed query/composite similarities and the
//! codeword bits. It is lossy — and therefore opt-in via
//! `FleetConfig::builder().loghd(true)` — with the accuracy delta
//! quantified by the fleet differential suite and `fleetbench`.

use crate::batch::BatchEngine;
use crate::confidence::Confidence;
use crate::config::{BatchConfig, FleetConfig, HdcConfig, RecoveryConfig, SupervisorConfig};
use crate::encoding::RecordEncoder;
use crate::model::{argmin_first, TrainedModel};
use crate::persist::{self, LoadModelError};
use crate::supervisor::ResilienceSupervisor;
use hypervector::{BinaryHypervector, BundleAccumulator, PackedClasses};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Tenant id used by callers that don't name a model (e.g. a `classify`
/// request without a `model` field on the serving daemon's wire protocol).
pub const DEFAULT_TENANT: &str = "default";

/// Error raised by the fleet registry.
#[derive(Debug)]
pub enum FleetError {
    /// No tenant registered under this id.
    UnknownModel(String),
    /// A tenant is already registered under this id.
    DuplicateModel(String),
    /// The tenant has no calibrated supervisor but a supervised entry
    /// point was used.
    NotCalibrated(String),
    /// A query row's feature count does not match the tenant's encoder.
    FeatureMismatch {
        /// Tenant whose encoder rejected the row.
        model: String,
        /// Feature count the tenant's encoder expects.
        expected: usize,
        /// Feature count the query row actually has.
        got: usize,
    },
    /// The tenant's RHD2 image failed to decode (corrupt lineage).
    Image(LoadModelError),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::UnknownModel(id) => write!(f, "unknown model {id:?}"),
            FleetError::DuplicateModel(id) => write!(f, "model {id:?} is already registered"),
            FleetError::NotCalibrated(id) => {
                write!(f, "model {id:?} has no calibrated supervisor")
            }
            FleetError::FeatureMismatch {
                model,
                expected,
                got,
            } => write!(
                f,
                "model {model:?} expects {expected} features, query has {got}"
            ),
            FleetError::Image(e) => write!(f, "model image failed to load: {e}"),
        }
    }
}

impl Error for FleetError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FleetError::Image(e) => Some(e),
            _ => None,
        }
    }
}

#[doc(hidden)]
impl From<LoadModelError> for FleetError {
    fn from(e: LoadModelError) -> Self {
        FleetError::Image(e)
    }
}

/// One fleet answer: the (possibly quarantine-gated) label and the softmax
/// confidence of the prediction. Mirrors the serving daemon's per-query
/// answer shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetAnswer {
    /// Predicted class, or `None` when the supervised path withheld the
    /// answer (predicted class quarantined).
    pub label: Option<usize>,
    /// Softmax probability of the predicted class.
    pub confidence: f64,
}

/// LogHD compressed model representation (arXiv 2511.03938): logarithmic
/// class-axis reduction.
///
/// Each class `i` is assigned the binary codeword `i` over
/// `L = ceil(log2(C))` bits. Composite hypervector `G_j` is the majority
/// bundle of **all** `C` class hypervectors, each oriented by bit `j` of
/// its codeword: bundled directly when the bit is 1, complemented
/// (bipolar-negated) when it is 0. The model stores `L` vectors instead of
/// `C`, a `C / L` compression of the class axis.
///
/// Orientation is what makes the decode discriminate: in bipolar terms the
/// signed similarity `a_j = dim - 2·d(q, G_j)` carries the sign of the
/// query class's bit `j`, so the codeword dot `sum_j s_ij · a_j` peaks at
/// the true class and drops by `~2·a` per codeword Hamming-distance unit.
/// (A one-sided bundle — only the 1-bit classes — fails here: a codeword
/// that is a strict superset of another ties with it in expectation.)
///
/// Decode-at-score: for a query `q`, compute the `L` Hamming distances
/// `d_j = d(q, G_j)` in one fused [`PackedClasses`] pass, then score class
/// `i` as `sum_j (codeword_i[j] ? d_j : dim - d_j)` — the affine image of
/// the bipolar codeword dot above, so argmin of it is argmax of the dot.
/// The predicted class is the argmin (ties to the lowest label, matching
/// the full model's convention).
#[derive(Debug, Clone)]
pub struct LogHdModel {
    composites: PackedClasses,
    codewords: Vec<u64>,
    num_classes: usize,
    dim: usize,
}

impl LogHdModel {
    /// Compresses a trained model's class axis into composite vectors.
    ///
    /// # Panics
    ///
    /// Panics if the model has no classes or a zero dimension.
    pub fn encode(model: &TrainedModel) -> Self {
        let num_classes = model.num_classes();
        let dim = model.dim();
        assert!(num_classes > 0, "LogHD needs at least one class");
        assert!(dim > 0, "LogHD needs a positive dimension");
        let slots = codeword_bits(num_classes);
        let codewords: Vec<u64> = (0..num_classes).map(|i| i as u64).collect();
        let mut composites = Vec::with_capacity(slots);
        for slot in 0..slots {
            let mut bundle = BundleAccumulator::new(dim);
            for (class, &word) in codewords.iter().enumerate() {
                if word >> slot & 1 == 1 {
                    bundle.add(model.class(class));
                } else {
                    bundle.subtract(model.class(class));
                }
            }
            composites.push(bundle.to_binary());
        }
        Self {
            composites: PackedClasses::from_classes(&composites),
            codewords,
            num_classes,
            dim,
        }
    }

    /// Number of composite hypervectors (`ceil(log2(C))`, min 1).
    pub fn slots(&self) -> usize {
        self.composites.num_classes()
    }

    /// Classes the compressed model distinguishes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Hypervector dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Class-axis compression ratio `C / L` (how many times fewer vectors
    /// are stored than the full representation).
    pub fn compression_ratio(&self) -> f64 {
        self.num_classes as f64 / self.slots().max(1) as f64
    }

    /// Resident bytes of the compressed representation (composite arena +
    /// codeword table).
    pub fn bytes(&self) -> usize {
        self.composites.words().len() * 8 + self.codewords.len() * 8
    }

    /// Per-class aggregate scores (lower = closer): one fused pass over
    /// the composite arena, then the codeword decode. `scratch` is reused
    /// across calls to avoid re-allocating the distance buffer.
    pub fn scores_into(&self, query: &BinaryHypervector, scratch: &mut Vec<usize>) -> Vec<usize> {
        self.composites.hamming_all_into(query, scratch);
        let mut scores = Vec::with_capacity(self.num_classes);
        for &word in &self.codewords {
            let mut score = 0usize;
            for (slot, &d) in scratch.iter().enumerate() {
                if word >> slot & 1 == 1 {
                    score += d;
                } else {
                    score += self.dim - d;
                }
            }
            scores.push(score);
        }
        scores
    }

    /// Predicts the class of an encoded query (argmin of the decoded
    /// scores, ties to the lowest label).
    pub fn predict(&self, query: &BinaryHypervector) -> usize {
        let mut scratch = Vec::new();
        argmin_first(&self.scores_into(query, &mut scratch))
    }

    /// Scores a query like the full model's evaluate path: decoded scores
    /// normalized to similarities in `[0, 1]`, then the sharpened softmax.
    pub fn evaluate(&self, query: &BinaryHypervector, beta: f64) -> Confidence {
        let mut scratch = Vec::new();
        let scores = self.scores_into(query, &mut scratch);
        let sims = self.similarities_of(&scores);
        Confidence::from_similarities(&sims, beta)
    }

    fn similarities_of(&self, scores: &[usize]) -> Vec<f64> {
        let span = (self.slots() * self.dim).max(1);
        scores
            .iter()
            .map(|&s| 1.0 - s as f64 / span as f64)
            .collect()
    }
}

/// Bits needed for the codewords `0..classes` (at least one slot so a
/// single-class model still has a composite to score against).
fn codeword_bits(classes: usize) -> usize {
    let distinct = classes.saturating_sub(1) as u64;
    ((u64::BITS - distinct.leading_zeros()) as usize).max(1)
}

/// Key under which deterministically-regenerable encoders are shared
/// between tenants: two tenants whose pipelines agree on these values use
/// the exact same codebooks, so the registry keeps one copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct EncoderKey {
    dimension: usize,
    levels: usize,
    level_correlation: usize,
    seed: u64,
    features: usize,
}

impl EncoderKey {
    fn of(config: &HdcConfig, features: usize) -> Self {
        Self {
            dimension: config.dimension,
            levels: config.levels,
            level_correlation: config.level_correlation,
            seed: config.seed,
            features,
        }
    }
}

/// Hot (hydrated) state of one tenant: the decoded model with its fused
/// scoring arena primed, the shared encoder, and the optional LogHD
/// compressed representation.
#[derive(Debug)]
struct HotModel {
    encoder: Arc<RecordEncoder>,
    model: TrainedModel,
    loghd: Option<LogHdModel>,
    bytes: usize,
}

/// One registered tenant.
#[derive(Debug)]
struct Tenant {
    /// Cold RHD2 checkpoint bytes; `Arc`-shared with every sibling tenant
    /// registered from the same image (copy-on-write lineage).
    image: Arc<Vec<u8>>,
    hdc: HdcConfig,
    features: usize,
    num_classes: usize,
    hot: Option<HotModel>,
    /// Per-tenant supervisor (quarantine, rollback, health window); stays
    /// resident across evictions of the model it supervises.
    supervisor: Option<ResilienceSupervisor>,
    /// The hot model diverged from `image` (supervisor repairs/rollbacks);
    /// eviction must serialize before dropping it.
    dirty: bool,
    last_used: u64,
    hydrated_before: bool,
}

/// Point-in-time capacity counters of a [`ModelRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetStats {
    /// Registered tenants.
    pub tenants: usize,
    /// Tenants currently hydrated.
    pub resident_models: usize,
    /// Bytes of hydrated hot state currently held.
    pub resident_bytes: usize,
    /// The configured budget.
    pub budget_bytes: usize,
    /// Bytes of unique cold images (after deduplication).
    pub cold_bytes: usize,
    /// Distinct cold images backing the fleet.
    pub unique_images: usize,
    /// Registrations that shared an existing image instead of storing a
    /// copy.
    pub dedup_hits: u64,
    /// Models evicted back to bytes.
    pub evictions: u64,
    /// Total hydrations (first-time and repeat).
    pub hydrations: u64,
    /// Hydrations of a previously-evicted model (decode from bytes, no
    /// retraining).
    pub rehydrations: u64,
    /// Distinct shared encoders kept hot.
    pub shared_encoders: usize,
}

/// Memory-budgeted multi-tenant model registry with fleet batch routing.
///
/// See the [module docs](self) for the design. Typical lifecycle:
///
/// ```
/// use robusthd::fleet::ModelRegistry;
/// use robusthd::{Encoder, FleetConfig, HdcConfig, RecordEncoder, TrainedModel};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let config = HdcConfig::builder().dimension(256).build()?;
/// let encoder = RecordEncoder::new(&config, 4);
/// let rows: Vec<Vec<f64>> = (0..8).map(|i| vec![f64::from(i) / 8.0; 4]).collect();
/// let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
/// let encoded = encoder.encode_batch_refs(&refs);
/// let labels: Vec<usize> = (0..8).map(|i| i % 2).collect();
/// let model = TrainedModel::train(&encoded, &labels, 2, &config);
///
/// let mut fleet = ModelRegistry::new(FleetConfig::default());
/// fleet.register_trained("tenant-a", &config, 4, &model)?;
/// let answers = fleet.route_batch(&[("tenant-a", rows[0].as_slice())])?;
/// assert_eq!(answers.len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ModelRegistry {
    config: FleetConfig,
    engine: BatchEngine,
    tenants: HashMap<String, Tenant>,
    /// Image dedup index: candidates under `(crc32, len)`; byte-compared
    /// on hit so a CRC collision can never alias two different models.
    images: HashMap<(u32, usize), Vec<Arc<Vec<u8>>>>,
    encoders: HashMap<EncoderKey, Arc<RecordEncoder>>,
    clock: u64,
    resident_bytes: usize,
    dedup_hits: u64,
    evictions: u64,
    hydrations: u64,
    rehydrations: u64,
}

impl ModelRegistry {
    /// An empty registry under the given budget/representation config,
    /// with the batch engine configured from the environment.
    pub fn new(config: FleetConfig) -> Self {
        Self {
            config,
            engine: BatchEngine::from_env(),
            tenants: HashMap::new(),
            images: HashMap::new(),
            encoders: HashMap::new(),
            clock: 0,
            resident_bytes: 0,
            dedup_hits: 0,
            evictions: 0,
            hydrations: 0,
            rehydrations: 0,
        }
    }

    /// The registry's fleet configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Reconfigures the routing batch engine and every calibrated
    /// tenant supervisor's engine.
    pub fn set_batch_config(&mut self, config: BatchConfig) {
        self.engine.set_config(config.clone());
        for tenant in self.tenants.values_mut() {
            if let Some(supervisor) = tenant.supervisor.as_mut() {
                supervisor.set_batch_config(config.clone());
            }
        }
    }

    /// Registers a tenant from an in-memory trained model by serializing
    /// it through the RHD2 checkpoint format (the image becomes the
    /// tenant's cold lineage root).
    ///
    /// # Errors
    ///
    /// [`FleetError::DuplicateModel`] if `id` is taken; [`FleetError::Image`]
    /// if the serialized image fails validation (cannot happen for a
    /// well-formed model).
    pub fn register_trained(
        &mut self,
        id: &str,
        config: &HdcConfig,
        features: usize,
        model: &TrainedModel,
    ) -> Result<(), FleetError> {
        let mut bytes = Vec::new();
        persist::save_model(&mut bytes, config, features.max(1), model)
            .map_err(|e| FleetError::Image(LoadModelError::Io(e)))?;
        self.register_image(id, bytes)
    }

    /// Registers a tenant from RHD2 checkpoint bytes. The image is
    /// CRC-validated immediately (corrupt lineage fails loudly at
    /// registration, not at first query) and deduplicated: a byte-identical
    /// image already backing another tenant is shared, not copied.
    ///
    /// # Errors
    ///
    /// [`FleetError::DuplicateModel`] if `id` is taken; [`FleetError::Image`]
    /// if the bytes are not a valid RHD2/RHD1 image.
    fn register_image(&mut self, id: &str, bytes: Vec<u8>) -> Result<(), FleetError> {
        if self.tenants.contains_key(id) {
            return Err(FleetError::DuplicateModel(id.to_owned()));
        }
        let saved = persist::decode_model(&bytes)?;
        let image = self.intern_image(bytes);
        self.clock += 1;
        self.tenants.insert(
            id.to_owned(),
            Tenant {
                image,
                hdc: saved.config,
                features: saved.features,
                num_classes: saved.model.num_classes(),
                hot: None,
                supervisor: None,
                dirty: false,
                last_used: self.clock,
                hydrated_before: false,
            },
        );
        Ok(())
    }

    /// Builds and calibrates the tenant's resilience supervisor: the
    /// per-tenant closed loop (health verdicts, quarantine, checkpoints,
    /// rollback) that [`ModelRegistry::serve_supervised`] drives. The
    /// supervisor stays resident when its model is evicted.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownModel`] for an unregistered id, or any
    /// hydration error.
    pub fn calibrate(
        &mut self,
        id: &str,
        recovery: RecoveryConfig,
        policy: SupervisorConfig,
        canaries: &[BinaryHypervector],
    ) -> Result<(), FleetError> {
        self.ensure_hot(id)?;
        let batch_config = self.engine.config().clone();
        let Some(tenant) = self.tenants.get_mut(id) else {
            return Err(FleetError::UnknownModel(id.to_owned()));
        };
        let Some(hot) = tenant.hot.as_ref() else {
            return Err(FleetError::UnknownModel(id.to_owned()));
        };
        let mut supervisor =
            ResilienceSupervisor::new(&tenant.hdc, recovery, policy, tenant.features);
        supervisor.set_batch_config(batch_config);
        supervisor.calibrate(&hot.model, canaries);
        tenant.supervisor = Some(supervisor);
        Ok(())
    }

    /// Whether a tenant is registered under `id`.
    pub fn contains(&self, id: &str) -> bool {
        self.tenants.contains_key(id)
    }

    /// Registered tenant count.
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// Whether the registry has no tenants.
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    /// Registered tenant ids, sorted.
    pub fn tenant_ids(&self) -> Vec<&str> {
        let mut ids: Vec<&str> = self.tenants.keys().map(String::as_str).collect();
        ids.sort_unstable();
        ids
    }

    /// Feature count a tenant's encoder expects, if registered.
    pub fn features(&self, id: &str) -> Option<usize> {
        self.tenants.get(id).map(|t| t.features)
    }

    /// Class count of a tenant's model, if registered.
    pub fn num_classes(&self, id: &str) -> Option<usize> {
        self.tenants.get(id).map(|t| t.num_classes)
    }

    /// Whether a tenant's model is currently hydrated.
    pub fn is_resident(&self, id: &str) -> bool {
        self.tenants.get(id).is_some_and(|t| t.hot.is_some())
    }

    /// Whether a tenant has a calibrated supervisor.
    pub fn is_calibrated(&self, id: &str) -> bool {
        self.tenants.get(id).is_some_and(|t| t.supervisor.is_some())
    }

    /// A tenant's supervisor, if calibrated.
    pub fn supervisor(&self, id: &str) -> Option<&ResilienceSupervisor> {
        self.tenants.get(id).and_then(|t| t.supervisor.as_ref())
    }

    /// Mutable access to a tenant's supervisor (operator controls:
    /// [`ResilienceSupervisor::set_quarantine`] etc.).
    pub fn supervisor_mut(&mut self, id: &str) -> Option<&mut ResilienceSupervisor> {
        self.tenants.get_mut(id).and_then(|t| t.supervisor.as_mut())
    }

    /// Supervision summary over every calibrated tenant: the worst
    /// escalation level and the total quarantined class count. One pass
    /// over the registry, no allocation.
    pub fn supervision_summary(&self) -> (usize, usize) {
        self.tenants
            .values()
            .filter_map(|t| t.supervisor.as_ref())
            .fold((0, 0), |(level, quarantined), s| {
                (level.max(s.level()), quarantined + s.quarantined_count())
            })
    }

    /// Bytes of hydrated hot state currently held.
    pub fn resident_bytes(&self) -> usize {
        self.resident_bytes
    }

    /// Point-in-time capacity counters.
    pub fn stats(&self) -> FleetStats {
        let mut unique: Vec<*const Vec<u8>> = self
            .tenants
            .values()
            .map(|t| Arc::as_ptr(&t.image))
            .collect();
        unique.sort_unstable();
        unique.dedup();
        let cold_bytes = self
            .tenants
            .values()
            .map(|t| (Arc::as_ptr(&t.image), t.image.len()))
            .collect::<HashMap<_, _>>()
            .values()
            .sum();
        FleetStats {
            tenants: self.tenants.len(),
            resident_models: self.tenants.values().filter(|t| t.hot.is_some()).count(),
            resident_bytes: self.resident_bytes,
            budget_bytes: self.config.budget_bytes,
            cold_bytes,
            unique_images: unique.len(),
            dedup_hits: self.dedup_hits,
            evictions: self.evictions,
            hydrations: self.hydrations,
            rehydrations: self.rehydrations,
            shared_encoders: self.encoders.len(),
        }
    }

    /// Evicts a tenant's hot state back to its RHD2 bytes, serializing any
    /// supervisor repairs first (copy-on-write: siblings sharing the old
    /// image keep it). A no-op for unknown or already-cold tenants.
    ///
    /// # Errors
    ///
    /// [`FleetError::Image`] if serializing a dirty model fails (cannot
    /// happen when writing to memory).
    pub fn evict(&mut self, id: &str) -> Result<(), FleetError> {
        let Some(tenant) = self.tenants.get_mut(id) else {
            return Ok(());
        };
        let Some(hot) = tenant.hot.take() else {
            return Ok(());
        };
        let dirty = tenant.dirty;
        let hdc = tenant.hdc.clone();
        let features = tenant.features;
        if dirty {
            let mut bytes = Vec::new();
            persist::save_model(&mut bytes, &hdc, features.max(1), &hot.model)
                .map_err(|e| FleetError::Image(LoadModelError::Io(e)))?;
            let image = self.intern_image(bytes);
            if let Some(tenant) = self.tenants.get_mut(id) {
                tenant.image = image;
                tenant.dirty = false;
            }
        }
        self.resident_bytes -= hot.bytes;
        self.evictions += 1;
        Ok(())
    }

    /// Routes a mixed `(model_id, features)` stream through the plain
    /// (unsupervised) scoring path: queries are grouped by tenant in
    /// first-appearance order and each group drains through one fused
    /// [`BatchEngine`] pass; answers come back in input order. With
    /// [`FleetConfig::loghd`] set, scoring goes through each tenant's
    /// LogHD composites (decode-at-score) instead of the full class arena.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownModel`] / [`FleetError::FeatureMismatch`] on a
    /// bad query (the whole batch is refused — validation happens before
    /// any scoring), or any hydration error.
    // audit:allow(panic): indices come from group_and_validate over these queries
    pub fn route_batch(
        &mut self,
        queries: &[(&str, &[f64])],
    ) -> Result<Vec<FleetAnswer>, FleetError> {
        let groups = self.group_and_validate(queries)?;
        let mut answers = vec![
            FleetAnswer {
                label: None,
                confidence: 0.0,
            };
            queries.len()
        ];
        for (id, indices) in groups {
            self.ensure_hot(&id)?;
            let Some(tenant) = self.tenants.get_mut(&id) else {
                return Err(FleetError::UnknownModel(id));
            };
            let beta = tenant.hdc.softmax_beta;
            let Some(hot) = tenant.hot.as_mut() else {
                return Err(FleetError::UnknownModel(id));
            };
            if self.config.loghd && hot.loghd.is_none() {
                // Repairs dropped the composites; rebuild from the
                // repaired model (same class count, same footprint).
                hot.loghd = Some(LogHdModel::encode(&hot.model));
            }
            let rows: Vec<&[f64]> = indices.iter().map(|&i| queries[i].1).collect();
            if let (true, Some(loghd)) = (self.config.loghd, hot.loghd.as_ref()) {
                let encoded = self.engine.encode_batch(hot.encoder.as_ref(), &rows);
                let mut scratch = Vec::new();
                for (&index, query) in indices.iter().zip(&encoded) {
                    let scores = loghd.scores_into(query, &mut scratch);
                    let predicted = argmin_first(&scores);
                    let sims = loghd.similarities_of(&scores);
                    let confidence = Confidence::from_similarities(&sims, beta);
                    answers[index] = FleetAnswer {
                        label: Some(predicted),
                        confidence: confidence.confidence,
                    };
                }
            } else {
                let scores =
                    self.engine
                        .evaluate_raw_batch(hot.encoder.as_ref(), &hot.model, &rows, beta);
                for (&index, score) in indices.iter().zip(&scores) {
                    answers[index] = FleetAnswer {
                        label: Some(score.predicted),
                        confidence: score.confidence.confidence,
                    };
                }
            }
        }
        Ok(answers)
    }

    /// Serves a mixed `(model_id, features)` stream through each tenant's
    /// calibrated supervisor — the same closed loop (health verdict,
    /// repair, quarantine gating, checkpoint/rollback) the solo serving
    /// daemon drives, isolated per model. Grouping and answer placement
    /// match [`ModelRegistry::route_batch`].
    ///
    /// # Errors
    ///
    /// Everything [`ModelRegistry::route_batch`] raises, plus
    /// [`FleetError::NotCalibrated`] for a tenant without a supervisor.
    // audit:allow(panic): indices come from group_and_validate over these queries
    pub fn serve_supervised(
        &mut self,
        queries: &[(&str, &[f64])],
    ) -> Result<Vec<FleetAnswer>, FleetError> {
        let groups = self.group_and_validate(queries)?;
        for (id, _) in &groups {
            if !self.is_calibrated(id) {
                return Err(FleetError::NotCalibrated(id.clone()));
            }
        }
        let mut answers = vec![
            FleetAnswer {
                label: None,
                confidence: 0.0,
            };
            queries.len()
        ];
        for (id, indices) in groups {
            self.ensure_hot(&id)?;
            let Some(tenant) = self.tenants.get_mut(&id) else {
                return Err(FleetError::UnknownModel(id));
            };
            let (Some(hot), Some(supervisor)) = (tenant.hot.as_mut(), tenant.supervisor.as_mut())
            else {
                return Err(FleetError::NotCalibrated(id));
            };
            let rows: Vec<&[f64]> = indices.iter().map(|&i| queries[i].1).collect();
            let encoder = Arc::clone(&hot.encoder);
            let (report, scores) =
                supervisor.serve_raw_batch_with_scores(encoder.as_ref(), &mut hot.model, &rows);
            if report.bits_repaired > 0 || report.rolled_back {
                // The model diverged from its image: remember to serialize
                // on eviction, and invalidate the LogHD composites.
                tenant.dirty = true;
                hot.loghd = None;
            }
            for ((&index, label), score) in indices.iter().zip(&report.answers).zip(&scores) {
                answers[index] = FleetAnswer {
                    label: *label,
                    confidence: score.confidence.confidence,
                };
            }
        }
        Ok(answers)
    }

    /// Groups query indices by tenant in first-appearance order, after
    /// validating every row against its tenant's feature count.
    fn group_and_validate(
        &self,
        queries: &[(&str, &[f64])],
    ) -> Result<Vec<(String, Vec<usize>)>, FleetError> {
        let mut order: Vec<(String, Vec<usize>)> = Vec::new();
        let mut slots: HashMap<&str, usize> = HashMap::new();
        for (index, (id, row)) in queries.iter().enumerate() {
            let Some(tenant) = self.tenants.get(*id) else {
                return Err(FleetError::UnknownModel((*id).to_owned()));
            };
            if row.len() != tenant.features {
                return Err(FleetError::FeatureMismatch {
                    model: (*id).to_owned(),
                    expected: tenant.features,
                    got: row.len(),
                });
            }
            match slots.get(id) {
                Some(&slot) => order[slot].1.push(index), // audit:allow(panic): slot was produced from positions in order
                None => {
                    slots.insert(id, order.len());
                    order.push(((*id).to_owned(), vec![index]));
                }
            }
        }
        Ok(order)
    }

    /// Hydrates a tenant (decode RHD2 bytes, regenerate/share the encoder,
    /// prime the fused arena, optionally build LogHD composites), bumps its
    /// LRU stamp, and enforces the budget by evicting other tenants in LRU
    /// order.
    fn ensure_hot(&mut self, id: &str) -> Result<(), FleetError> {
        if !self.tenants.contains_key(id) {
            return Err(FleetError::UnknownModel(id.to_owned()));
        }
        self.clock += 1;
        let clock = self.clock;
        let needs_hydration = {
            let Some(tenant) = self.tenants.get_mut(id) else {
                return Err(FleetError::UnknownModel(id.to_owned()));
            };
            tenant.last_used = clock;
            tenant.hot.is_none()
        };
        if needs_hydration {
            let (image, hdc, features) = {
                let Some(tenant) = self.tenants.get(id) else {
                    return Err(FleetError::UnknownModel(id.to_owned()));
                };
                (
                    Arc::clone(&tenant.image),
                    tenant.hdc.clone(),
                    tenant.features,
                )
            };
            let saved = persist::decode_model(&image)?;
            let encoder = self.encoder_for(&hdc, features);
            let model = saved.model;
            // Prime the fused class-major arena now so the first query
            // scores at full kernel throughput.
            let _ = model.packed();
            let loghd = if self.config.loghd {
                Some(LogHdModel::encode(&model))
            } else {
                None
            };
            let bytes = hot_cost(&model, loghd.as_ref());
            self.hydrations += 1;
            let Some(tenant) = self.tenants.get_mut(id) else {
                return Err(FleetError::UnknownModel(id.to_owned()));
            };
            if tenant.hydrated_before {
                self.rehydrations += 1;
            }
            tenant.hydrated_before = true;
            tenant.hot = Some(HotModel {
                encoder,
                model,
                loghd,
                bytes,
            });
            self.resident_bytes += bytes;
        }
        self.enforce_budget(id)
    }

    /// Evicts least-recently-used hot tenants (never `keep`) until the
    /// resident set fits the budget. A single over-budget model is allowed
    /// to stay — the fleet could not serve it otherwise — and becomes the
    /// first candidate once anything else is hot.
    fn enforce_budget(&mut self, keep: &str) -> Result<(), FleetError> {
        while self.resident_bytes > self.config.budget_bytes {
            let victim = self
                .tenants
                .iter()
                .filter(|(id, t)| t.hot.is_some() && id.as_str() != keep)
                .min_by_key(|(_, t)| t.last_used)
                .map(|(id, _)| id.clone());
            let Some(victim) = victim else { break };
            self.evict(&victim)?;
        }
        Ok(())
    }

    /// Returns the shared encoder for `(config, features)`, building it
    /// once: tenants with identical codebook parameters share one encoder.
    fn encoder_for(&mut self, config: &HdcConfig, features: usize) -> Arc<RecordEncoder> {
        let key = EncoderKey::of(config, features);
        if let Some(encoder) = self.encoders.get(&key) {
            return Arc::clone(encoder);
        }
        let encoder = Arc::new(RecordEncoder::new(config, features));
        self.encoders.insert(key, Arc::clone(&encoder));
        encoder
    }

    /// Interns an image: byte-identical images already backing a tenant
    /// are shared (`dedup_hits`), new content is indexed for future
    /// sharing.
    fn intern_image(&mut self, bytes: Vec<u8>) -> Arc<Vec<u8>> {
        let key = (persist::crc32(&bytes), bytes.len());
        let candidates = self.images.entry(key).or_default();
        for candidate in candidates.iter() {
            if candidate.as_slice() == bytes.as_slice() {
                self.dedup_hits += 1;
                return Arc::clone(candidate);
            }
        }
        let image = Arc::new(bytes);
        candidates.push(Arc::clone(&image));
        image
    }
}

/// Resident cost of one hydrated model: the class hypervectors plus the
/// fused class-major arena (both `classes * words_per_class * 8` bytes),
/// plus the LogHD composites when built.
fn hot_cost(model: &TrainedModel, loghd: Option<&LogHdModel>) -> usize {
    let words_per_class = model.dim().div_ceil(64);
    let class_bytes = model.num_classes() * words_per_class * 8;
    2 * class_bytes + loghd.map_or(0, LogHdModel::bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::Encoder;

    fn small_pipeline(seed: u64) -> (HdcConfig, RecordEncoder, TrainedModel, Vec<Vec<f64>>) {
        let config = HdcConfig::builder()
            .dimension(512)
            .seed(seed)
            .build()
            .expect("valid config");
        let features = 6;
        let encoder = RecordEncoder::new(&config, features);
        let rows: Vec<Vec<f64>> = (0..24usize)
            .map(|i| {
                (0..features)
                    .map(|f| ((i * 7 + f * 3) % 13) as f64 / 13.0)
                    .collect()
            })
            .collect();
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let encoded = encoder.encode_batch_refs(&refs);
        let labels: Vec<usize> = (0..24).map(|i| i % 3).collect();
        let model = TrainedModel::train(&encoded, &labels, 3, &config);
        (config, encoder, model, rows)
    }

    #[test]
    fn register_route_matches_solo_scoring() {
        let (config, encoder, model, rows) = small_pipeline(1);
        let mut fleet = ModelRegistry::new(FleetConfig::default());
        fleet
            .register_trained("a", &config, 6, &model)
            .expect("register");
        let queries: Vec<(&str, &[f64])> = rows.iter().map(|r| ("a", r.as_slice())).collect();
        let answers = fleet.route_batch(&queries).expect("route");
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let engine = BatchEngine::from_env();
        let solo = engine.evaluate_raw_batch(&encoder, &model, &refs, config.softmax_beta);
        for (answer, score) in answers.iter().zip(&solo) {
            assert_eq!(answer.label, Some(score.predicted));
            assert_eq!(
                answer.confidence.to_bits(),
                score.confidence.confidence.to_bits()
            );
        }
    }

    #[test]
    fn duplicate_and_unknown_models_are_refused() {
        let (config, _, model, rows) = small_pipeline(2);
        let mut fleet = ModelRegistry::new(FleetConfig::default());
        fleet
            .register_trained("a", &config, 6, &model)
            .expect("register");
        assert!(matches!(
            fleet.register_trained("a", &config, 6, &model),
            Err(FleetError::DuplicateModel(_))
        ));
        assert!(matches!(
            fleet.route_batch(&[("ghost", rows[0].as_slice())]),
            Err(FleetError::UnknownModel(_))
        ));
        let short = [0.0f64; 2];
        assert!(matches!(
            fleet.route_batch(&[("a", &short[..])]),
            Err(FleetError::FeatureMismatch { .. })
        ));
    }

    #[test]
    fn shared_images_are_deduplicated() {
        let (config, _, model, _) = small_pipeline(3);
        let mut bytes = Vec::new();
        persist::save_model(&mut bytes, &config, 6, &model).expect("serialize");
        let mut fleet = ModelRegistry::new(FleetConfig::default());
        for i in 0..5 {
            fleet
                .register_image(&format!("t{i}"), bytes.clone())
                .expect("register");
        }
        let stats = fleet.stats();
        assert_eq!(stats.tenants, 5);
        assert_eq!(stats.unique_images, 1, "parent image must be shared");
        assert_eq!(stats.dedup_hits, 4);
        assert_eq!(stats.cold_bytes, bytes.len());
    }

    #[test]
    fn budget_evicts_lru_and_rehydration_is_bit_exact() {
        let (config, _, model, rows) = small_pipeline(4);
        // Budget fits roughly one hydrated model (3 classes × 8 words × 8
        // bytes × 2 arenas = 384 bytes) so every tenant switch evicts.
        let fleet_config = FleetConfig::builder()
            .budget_bytes(500)
            .build()
            .expect("valid");
        let mut fleet = ModelRegistry::new(fleet_config);
        for id in ["a", "b", "c"] {
            fleet
                .register_trained(id, &config, 6, &model)
                .expect("register");
        }
        let q: &[f64] = rows[0].as_slice();
        let first = fleet.route_batch(&[("a", q)]).expect("route a");
        fleet.route_batch(&[("b", q)]).expect("route b");
        fleet.route_batch(&[("c", q)]).expect("route c");
        let stats = fleet.stats();
        assert!(stats.evictions >= 2, "budget never bound: {stats:?}");
        assert!(stats.resident_bytes <= 500);
        // Back to the first tenant: a rehydration, and bit-identical.
        let again = fleet.route_batch(&[("a", q)]).expect("route a again");
        assert!(fleet.stats().rehydrations >= 1);
        assert_eq!(first[0].label, again[0].label);
        assert_eq!(first[0].confidence.to_bits(), again[0].confidence.to_bits());
    }

    #[test]
    fn mixed_stream_groups_by_tenant_and_places_answers_in_order() {
        let (config, encoder, model_a, rows) = small_pipeline(5);
        let (config_b, encoder_b, model_b, _) = small_pipeline(99);
        let mut fleet = ModelRegistry::new(FleetConfig::default());
        fleet
            .register_trained("a", &config, 6, &model_a)
            .expect("register a");
        fleet
            .register_trained("b", &config_b, 6, &model_b)
            .expect("register b");
        let stream: Vec<(&str, &[f64])> = rows
            .iter()
            .enumerate()
            .map(|(i, r)| (if i % 2 == 0 { "a" } else { "b" }, r.as_slice()))
            .collect();
        let answers = fleet.route_batch(&stream).expect("route");
        let engine = BatchEngine::from_env();
        for (i, row) in rows.iter().enumerate() {
            let (enc, model, beta) = if i % 2 == 0 {
                (&encoder, &model_a, config.softmax_beta)
            } else {
                (&encoder_b, &model_b, config_b.softmax_beta)
            };
            let solo = engine.evaluate_raw_batch(enc, model, &[row.as_slice()], beta);
            assert_eq!(answers[i].label, Some(solo[0].predicted));
            assert_eq!(
                answers[i].confidence.to_bits(),
                solo[0].confidence.confidence.to_bits()
            );
        }
    }

    /// Rows clustered tightly around per-class centers, so class
    /// hypervectors are meaningful prototypes (the regime LogHD targets)
    /// rather than bundles of unrelated patterns.
    fn clustered_pipeline(
        seed: u64,
        classes: usize,
    ) -> (HdcConfig, RecordEncoder, TrainedModel, Vec<Vec<f64>>) {
        let config = HdcConfig::builder()
            .dimension(2048)
            .seed(seed)
            .build()
            .expect("valid config");
        let features = 8;
        let encoder = RecordEncoder::new(&config, features);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for c in 0..classes {
            for s in 0..6usize {
                rows.push(
                    (0..features)
                        .map(|f| {
                            let center = ((c * 31 + f * 17) % 97) as f64 / 97.0;
                            let jitter = ((s * 13 + f * 7) % 5) as f64 / 500.0;
                            (center + jitter).min(1.0)
                        })
                        .collect::<Vec<f64>>(),
                );
                labels.push(c);
            }
        }
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let encoded = encoder.encode_batch_refs(&refs);
        let model = TrainedModel::train(&encoded, &labels, classes, &config);
        (config, encoder, model, rows)
    }

    #[test]
    fn loghd_compresses_and_mostly_agrees() {
        let (config, encoder, model, rows) = clustered_pipeline(6, 8);
        let loghd = LogHdModel::encode(&model);
        assert_eq!(loghd.slots(), 3, "8 classes → codewords 0..8 → 3 bits");
        assert!(loghd.compression_ratio() > 1.0);
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let encoded = encoder.encode_batch_refs(&refs);
        let agree = encoded
            .iter()
            .filter(|q| loghd.predict(q) == model.predict(q))
            .count();
        // Lossy, but on clustered traffic the compressed model should agree
        // with the full model far above chance (1/8 here).
        assert!(
            agree * 4 >= encoded.len() * 3,
            "LogHD agreed on only {agree}/{} rows",
            encoded.len()
        );
        let conf = loghd.evaluate(&encoded[0], config.softmax_beta);
        assert!(conf.confidence > 0.0 && conf.confidence <= 1.0);
    }

    #[test]
    fn loghd_flag_routes_through_composites() {
        let (config, _, model, rows) = small_pipeline(7);
        let fleet_config = FleetConfig::builder().loghd(true).build().expect("valid");
        let mut fleet = ModelRegistry::new(fleet_config);
        fleet
            .register_trained("a", &config, 6, &model)
            .expect("register");
        let queries: Vec<(&str, &[f64])> = rows.iter().map(|r| ("a", r.as_slice())).collect();
        let answers = fleet.route_batch(&queries).expect("route");
        // The compressed path must produce the LogHD decode answers.
        let encoder = RecordEncoder::new(&config, 6);
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let encoded = encoder.encode_batch_refs(&refs);
        let loghd = LogHdModel::encode(&model);
        for (answer, q) in answers.iter().zip(&encoded) {
            assert_eq!(answer.label, Some(loghd.predict(q)));
        }
    }

    #[test]
    fn codeword_bits_covers_class_counts() {
        assert_eq!(codeword_bits(1), 1);
        assert_eq!(codeword_bits(2), 1);
        assert_eq!(codeword_bits(3), 2);
        assert_eq!(codeword_bits(4), 2);
        assert_eq!(codeword_bits(5), 3);
        assert_eq!(codeword_bits(100), 7, "100 classes fit in 7-bit codewords");
    }

    /// A fleet of `ids`, each registered from `small_pipeline(seed)`'s
    /// model and calibrated on its rows; returns the fleet and the rows.
    fn calibrated_fleet(
        seed: u64,
        ids: &[&str],
        fleet_config: FleetConfig,
    ) -> (ModelRegistry, Vec<Vec<f64>>) {
        let (config, encoder, model, rows) = small_pipeline(seed);
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let canaries = encoder.encode_batch_refs(&refs);
        let recovery = RecoveryConfig::builder()
            .confidence_threshold(0.45)
            .substitution_rate(0.5)
            .build()
            .expect("valid recovery");
        let policy = SupervisorConfig::builder()
            .window(8)
            .build()
            .expect("valid policy");
        let mut fleet = ModelRegistry::new(fleet_config);
        for &id in ids {
            fleet
                .register_trained(id, &config, 6, &model)
                .expect("register");
            fleet
                .calibrate(id, recovery.clone(), policy.clone(), &canaries)
                .expect("calibrate");
        }
        (fleet, rows)
    }

    #[test]
    fn supervised_serving_isolates_tenants() {
        let (mut fleet, rows) = calibrated_fleet(8, &["a", "b"], FleetConfig::default());
        // Quarantine class 0 on tenant a only; b must be unaffected.
        fleet
            .supervisor_mut("a")
            .expect("calibrated")
            .set_quarantine(0, true);
        let stream: Vec<(&str, &[f64])> = rows
            .iter()
            .flat_map(|r| [("a", r.as_slice()), ("b", r.as_slice())])
            .collect();
        let answers = fleet.serve_supervised(&stream).expect("serve");
        let mut gated_a = 0;
        let mut gated_b = 0;
        for (i, answer) in answers.iter().enumerate() {
            if answer.label.is_none() {
                if i % 2 == 0 {
                    gated_a += 1;
                } else {
                    gated_b += 1;
                }
            }
        }
        assert!(gated_a > 0, "tenant a's quarantine must gate its answers");
        assert_eq!(gated_b, 0, "tenant b must not inherit a's quarantine");
        assert!(matches!(
            fleet.serve_supervised(&[("ghost", rows[0].as_slice())]),
            Err(FleetError::UnknownModel(_))
        ));
    }

    #[test]
    fn rehydration_reverifies_the_cold_image() {
        // The budget fits one hydrated model (384 bytes), so calibrating
        // "b" evicts "a" back to its image.
        let fleet_config = FleetConfig::builder()
            .budget_bytes(500)
            .build()
            .expect("valid");
        let (mut fleet, rows) = calibrated_fleet(10, &["a", "b"], fleet_config);
        assert!(!fleet.is_resident("a"));
        let tenant = fleet.tenants.get_mut("a").expect("registered");
        let mut image = tenant.image.as_ref().clone();
        let middle = image.len() / 2;
        image[middle] ^= 0x08;
        tenant.image = Arc::new(image);
        let hydrations = fleet.stats().hydrations;
        let err = fleet
            .serve_supervised(&[("a", rows[0].as_slice())])
            .unwrap_err();
        assert!(
            matches!(
                err,
                FleetError::Image(LoadModelError::ChecksumMismatch { .. })
            ),
            "expected a checksum mismatch, got {err}"
        );
        assert!(!fleet.is_resident("a"), "a corrupt image must not serve");
        assert_eq!(fleet.stats().hydrations, hydrations);
    }

    #[test]
    fn supervision_summary_is_the_worst_level_and_the_summed_quarantine() {
        let (mut fleet, rows) = calibrated_fleet(11, &["a", "b", "c"], FleetConfig::default());
        assert_eq!(fleet.supervision_summary(), (0, 0));
        fleet
            .supervisor_mut("a")
            .expect("calibrated")
            .set_quarantine(0, true);
        let b = fleet.supervisor_mut("b").expect("calibrated");
        b.set_quarantine(1, true);
        b.set_quarantine(2, true);
        // Replace two of c's class vectors with noise so its supervisor
        // climbs the escalation ladder.
        let mut sampler = hypervector::random::HypervectorSampler::seed_from(5);
        let hot = fleet
            .tenants
            .get_mut("c")
            .and_then(|t| t.hot.as_mut())
            .expect("hot");
        *hot.model.class_mut(1) = sampler.binary(512);
        *hot.model.class_mut(2) = sampler.binary(512);
        let stream: Vec<(&str, &[f64])> = rows.iter().map(|r| ("c", r.as_slice())).collect();
        for _ in 0..8 {
            fleet.serve_supervised(&stream).expect("serve");
            if fleet.supervisor("c").expect("calibrated").level() > 0 {
                break;
            }
        }
        let c = fleet.supervisor("c").expect("calibrated");
        assert!(c.level() > 0, "tenant c never escalated");
        assert_eq!(
            fleet.supervision_summary(),
            (c.level(), 3 + c.quarantined_classes().len())
        );
    }

    #[test]
    fn encoders_are_shared_across_same_cohort_tenants() {
        let (config, _, model, rows) = small_pipeline(9);
        let mut fleet = ModelRegistry::new(FleetConfig::default());
        for i in 0..4 {
            fleet
                .register_trained(&format!("t{i}"), &config, 6, &model)
                .expect("register");
        }
        let ids: Vec<String> = (0..4).map(|i| format!("t{i}")).collect();
        let queries: Vec<(&str, &[f64])> = ids
            .iter()
            .map(|id| (id.as_str(), rows[0].as_slice()))
            .collect();
        fleet.route_batch(&queries).expect("route");
        assert_eq!(
            fleet.stats().shared_encoders,
            1,
            "same (config, features) cohort must share one encoder"
        );
    }
}
