//! The daemon's serving core: deployments consumed a micro-batch at a
//! time, behind the [`DrainEngine`] abstraction the drain thread serves
//! through.
//!
//! [`ServeEngine`] is deliberately thin: it owns the pieces in-process
//! callers already use ([`RecordEncoder`], [`TrainedModel`],
//! [`ResilienceSupervisor`]) and funnels every drained micro-batch through
//! [`ResilienceSupervisor::serve_raw_batch_with_scores`] — the same fused
//! encode→score path, the same health monitoring, escalation, checkpoint,
//! rollback, and quarantine behaviour as solo serving. The daemon adds
//! batching and a wire format around it; it never adds numerics, which is
//! what makes the serving differential suite's `f64::to_bits` comparisons
//! possible.
//!
//! [`FleetEngine`] is the multi-tenant counterpart: it wraps a
//! [`ModelRegistry`] and drains each micro-batch through
//! [`ModelRegistry::serve_supervised`] — the mixed batch is grouped by
//! tenant, each group runs its own supervisor's closed loop, and answers
//! come back in request order. Per-model answers are bit-exact with solo
//! serving; the fleet differential suite pins that with `f64::to_bits`.

use crate::coalescer::PendingQuery;
use robusthd::fleet::DEFAULT_TENANT;
use robusthd::supervisor::ResilienceSupervisor;
use robusthd::{BatchConfig, Encoder, ModelRegistry, RecordEncoder, TrainedModel};
use std::collections::HashMap;

/// The per-query slice of a served micro-batch: what one wire `result`
/// response carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryAnswer {
    /// Predicted label, or `None` when the predicted class is quarantined
    /// (served as unreliable instead of silently wrong).
    pub label: Option<usize>,
    /// Softmax confidence of the (pre-quarantine) prediction.
    pub confidence: f64,
}

/// One model deployment behind the daemon: encoder, mutable model, and the
/// resilience supervisor that serves (and repairs) it.
#[derive(Debug)]
pub struct ServeEngine {
    encoder: RecordEncoder,
    model: TrainedModel,
    supervisor: ResilienceSupervisor,
}

impl ServeEngine {
    /// Wraps a calibrated deployment. The supervisor must already have been
    /// [`ResilienceSupervisor::calibrate`]d against `model`.
    pub fn new(
        encoder: RecordEncoder,
        model: TrainedModel,
        supervisor: ResilienceSupervisor,
    ) -> Self {
        Self {
            encoder,
            model,
            supervisor,
        }
    }

    /// Feature count every classify request must supply.
    pub fn features(&self) -> usize {
        self.encoder.features()
    }

    /// Hypervector dimensionality of the deployment.
    pub fn dim(&self) -> usize {
        self.encoder.dim()
    }

    /// Class count of the deployed model.
    pub fn num_classes(&self) -> usize {
        self.model.num_classes()
    }

    /// Current supervisor escalation level.
    pub fn level(&self) -> usize {
        self.supervisor.level()
    }

    /// Classes currently quarantined.
    pub fn quarantined(&self) -> Vec<usize> {
        self.supervisor.quarantined_classes()
    }

    /// The supervisor, for state inspection or operator overrides
    /// ([`ResilienceSupervisor::set_quarantine`]).
    pub fn supervisor_mut(&mut self) -> &mut ResilienceSupervisor {
        &mut self.supervisor
    }

    /// Replaces the batch engine tuning (thread count, shard size) — a
    /// pure throughput knob, answers are bit-identical at any value.
    pub fn set_batch_config(&mut self, config: BatchConfig) {
        self.supervisor.set_batch_config(config);
    }

    /// Serves one micro-batch of raw feature rows through the full closed
    /// loop, returning one answer per row in row order.
    ///
    /// # Panics
    ///
    /// Panics if a row's length differs from [`ServeEngine::features`] —
    /// the daemon validates lengths at admission, so a panic here means a
    /// coalescer bug, not a client mistake.
    pub fn serve(&mut self, rows: &[&[f64]]) -> Vec<QueryAnswer> {
        if rows.is_empty() {
            return Vec::new();
        }
        let (report, scores) =
            self.supervisor
                .serve_raw_batch_with_scores(&self.encoder, &mut self.model, rows);
        report
            .answers
            .iter()
            .zip(&scores)
            .map(|(answer, score)| QueryAnswer {
                label: *answer,
                confidence: score.confidence.confidence,
            })
            .collect()
    }
}

/// What the reader threads check before admitting a classify request: the
/// routable tenants and the feature count each expects. Snapshotted from
/// the engine at startup so admission never contends with the drain
/// thread for the engine.
#[derive(Debug, Clone)]
pub enum AdmissionPolicy {
    /// A single-model daemon: only the default tenant is routable.
    Solo {
        /// Feature count every classify request must supply.
        features: usize,
    },
    /// A fleet daemon: one entry per servable (calibrated) tenant.
    Fleet {
        /// Feature count by tenant id.
        features: HashMap<String, usize>,
    },
}

impl AdmissionPolicy {
    /// Validates one classify admission (tenant routing + feature count).
    ///
    /// # Errors
    ///
    /// A human-readable message for the wire `error` response: unknown
    /// tenant, or a feature-count mismatch.
    pub fn check(&self, model: Option<&str>, got: usize) -> Result<(), String> {
        match self {
            AdmissionPolicy::Solo { features } => {
                match model {
                    None => {}
                    Some(m) if m == DEFAULT_TENANT => {}
                    Some(other) => {
                        return Err(format!(
                            "unknown model `{other}`: this daemon serves a single model"
                        ))
                    }
                }
                if got != *features {
                    return Err(format!("expected {features} features, got {got}"));
                }
                Ok(())
            }
            AdmissionPolicy::Fleet { features } => {
                let id = model.unwrap_or(DEFAULT_TENANT);
                let Some(&expected) = features.get(id) else {
                    return Err(format!("unknown model `{id}`"));
                };
                if got != expected {
                    return Err(format!(
                        "model `{id}` expects {expected} features, got {got}"
                    ));
                }
                Ok(())
            }
        }
    }
}

/// What the daemon's drain thread serves through: a solo deployment
/// ([`ServeEngine`]) or a multi-tenant fleet ([`FleetEngine`]). The drain
/// loop is generic over this, so both daemons share the accept/reader/
/// writer/coalescer machinery — and the bit-exactness argument.
pub trait DrainEngine: Send + 'static {
    /// Admission policy snapshot, taken once at daemon startup.
    fn admission(&self) -> AdmissionPolicy;

    /// Serves one drained micro-batch, one answer per query in batch
    /// order. Admission already validated routing and feature counts.
    fn serve_pending(&mut self, batch: &[PendingQuery]) -> Vec<QueryAnswer>;

    /// Supervisor escalation level to report in `stats` (for a fleet, the
    /// worst tenant's).
    fn stats_level(&self) -> usize;

    /// Quarantined class count to report in `stats` (for a fleet, summed
    /// over tenants).
    fn stats_quarantined(&self) -> usize;
}

impl DrainEngine for ServeEngine {
    fn admission(&self) -> AdmissionPolicy {
        AdmissionPolicy::Solo {
            features: self.features(),
        }
    }

    fn serve_pending(&mut self, batch: &[PendingQuery]) -> Vec<QueryAnswer> {
        let rows: Vec<&[f64]> = batch.iter().map(|q| q.features.as_slice()).collect();
        self.serve(&rows)
    }

    fn stats_level(&self) -> usize {
        self.level()
    }

    fn stats_quarantined(&self) -> usize {
        self.quarantined().len()
    }
}

/// The multi-tenant serving core: a [`ModelRegistry`] whose calibrated
/// tenants the daemon routes between on the wire `model` field.
///
/// Every drained micro-batch goes through
/// [`ModelRegistry::serve_supervised`]: grouped by tenant, each group
/// served by that tenant's own resilience supervisor (health verdicts,
/// repair, quarantine, rollback isolated per model), under the registry's
/// memory budget (LRU eviction to RHD2 bytes, rehydration on demand).
#[derive(Debug)]
pub struct FleetEngine {
    registry: ModelRegistry,
}

impl FleetEngine {
    /// Wraps a registry. Only tenants that are already
    /// [`ModelRegistry::calibrate`]d are admitted for serving; register
    /// and calibrate the fleet before starting the daemon.
    pub fn new(registry: ModelRegistry) -> Self {
        Self { registry }
    }

    /// The underlying registry.
    pub fn registry(&self) -> &ModelRegistry {
        &self.registry
    }

    /// Unwraps the registry (post-shutdown state inspection).
    pub fn into_registry(self) -> ModelRegistry {
        self.registry
    }
}

impl DrainEngine for FleetEngine {
    fn admission(&self) -> AdmissionPolicy {
        let features = self
            .registry
            .tenant_ids()
            .into_iter()
            .filter(|id| self.registry.is_calibrated(id))
            .filter_map(|id| self.registry.features(id).map(|f| (id.to_owned(), f)))
            .collect();
        AdmissionPolicy::Fleet { features }
    }

    fn serve_pending(&mut self, batch: &[PendingQuery]) -> Vec<QueryAnswer> {
        let pairs: Vec<(&str, &[f64])> = batch
            .iter()
            .map(|q| {
                (
                    q.model.as_deref().unwrap_or(DEFAULT_TENANT),
                    q.features.as_slice(),
                )
            })
            .collect();
        // Admission validated every tenant and feature count, so serving
        // can only fail on a registry bug. The daemon must not die on
        // one mid-drain: the whole batch degrades to the quarantine
        // shape (unreliable, zero confidence) instead — every accepted
        // query still gets its answer and the drain loop stays alive.
        match self.registry.serve_supervised(&pairs) {
            Ok(answers) => answers
                .into_iter()
                .map(|answer| QueryAnswer {
                    label: answer.label,
                    confidence: answer.confidence,
                })
                .collect(),
            Err(_) => batch
                .iter()
                .map(|_| QueryAnswer {
                    label: None,
                    confidence: 0.0,
                })
                .collect(),
        }
    }

    fn stats_level(&self) -> usize {
        self.registry
            .tenant_ids()
            .into_iter()
            .filter_map(|id| self.registry.supervisor(id))
            .map(robusthd::supervisor::ResilienceSupervisor::level)
            .max()
            .unwrap_or(0)
    }

    fn stats_quarantined(&self) -> usize {
        self.registry
            .tenant_ids()
            .into_iter()
            .filter_map(|id| self.registry.supervisor(id))
            .map(|s| s.quarantined_classes().len())
            .sum()
    }
}
