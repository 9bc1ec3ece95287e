//! `fleetbench`: the multi-tenant fleet benchmark behind `BENCH_fleet.json`.
//!
//! Four phases over a synthetic fleet of clustered per-tenant workloads:
//!
//! 1. **Fleet-vs-solo bit-exactness** — a mixed, eviction-churning stream
//!    is served through [`ModelRegistry::serve_supervised`] and, per
//!    tenant, through an identically calibrated standalone
//!    [`ResilienceSupervisor`] fed the same per-batch row groups; labels
//!    must match and confidences must be [`f64::to_bits`]-identical. The
//!    remaining phases refuse to run if this fails.
//! 2. **Wire capacity** — every tenant is registered and calibrated under
//!    the memory budget, the daemon is started with [`serve_fleet`], and a
//!    Zipf [`TenantMix`] drives mixed-tenant classify traffic through the
//!    wire; the registry's capacity counters (evictions, rehydrations,
//!    dedup, resident bytes vs budget) are the result.
//! 3. **LogHD accuracy delta** — for a sample of tenants, accuracy of the
//!    full class-vector model vs its [`LogHdModel`] compression on the
//!    tenant's own labeled rows: the quantified cost of `C → ceil(log2 C)`
//!    class-axis compression.
//! 4. **Routing throughput** — the same mixed stream served through
//!    grouped [`ModelRegistry::route_batch`] drains vs one query at a
//!    time; the speedup is what fleet-aware batching buys over per-request
//!    thrash.
//!
//! The emitted JSON is the `BENCH_fleet.json` body; CI gates on
//! `bit_exact`, `models >= 100`, `budget_ok`, and eviction churn.

use crate::engine::FleetEngine;
use crate::json::Json;
use crate::loadgen::{run_loadgen_mixed, LoadOptions, LoadReport, TenantMix};
use crate::server::serve_fleet;
use hypervector::BinaryHypervector;
use robusthd::supervisor::ResilienceSupervisor;
use robusthd::{
    BatchConfig, Encoder, FleetConfig, HdcConfig, LogHdModel, ModelRegistry, RecordEncoder,
    RecoveryConfig, ServeConfig, SubstitutionMode, SupervisorConfig, TrainedModel,
};
use std::collections::HashMap;
use std::io;
use std::time::Instant;

/// Fleet benchmark shape.
#[derive(Debug, Clone)]
pub struct FleetBenchOptions {
    /// Tenants to register (the acceptance run uses >= 100).
    pub models: usize,
    /// Distinct encoder cohorts: tenants within a cohort share codebook
    /// parameters, so the registry keeps one encoder per cohort.
    pub cohorts: usize,
    /// Hypervector dimensionality of every tenant.
    pub dim: usize,
    /// Feature count of every tenant (the wire mixer requires one shape).
    pub features: usize,
    /// Classes per tenant model.
    pub classes: usize,
    /// Training/query rows per class per tenant.
    pub rows_per_class: usize,
    /// Memory budget expressed in resident models (converted to bytes from
    /// the actual per-model hot cost).
    pub budget_models: usize,
    /// Workload seed.
    pub seed: u64,
    /// Daemon coalescer tuning for the wire phase.
    pub config: ServeConfig,
    /// Batch-engine tuning (threads echoed into the report).
    pub batch: BatchConfig,
    /// Concurrent wire clients.
    pub clients: usize,
    /// Classify requests per wire client.
    pub requests_per_client: usize,
    /// Requests in flight per wire client.
    pub pipeline: usize,
    /// Zipf exponent of the tenant mixer (1.0 = classic skew).
    pub zipf_exponent: f64,
}

impl Default for FleetBenchOptions {
    fn default() -> Self {
        Self {
            models: 120,
            cohorts: 8,
            dim: 2048,
            features: 16,
            classes: 6,
            rows_per_class: 8,
            budget_models: 16,
            seed: 0,
            config: ServeConfig::default(),
            batch: BatchConfig::from_env(),
            clients: 16,
            requests_per_client: 64,
            pipeline: 4,
            zipf_exponent: 1.0,
        }
    }
}

/// One synthetic tenant: its pipeline parameters, trained model, and the
/// labeled rows both benchmark phases and supervisors draw from.
#[derive(Debug, Clone)]
pub struct FleetTenant {
    /// Registry id.
    pub id: String,
    /// Pipeline config (cohort seed decides encoder sharing).
    pub config: HdcConfig,
    /// Trained class-vector model.
    pub model: TrainedModel,
    /// Raw labeled query rows (also the training set).
    pub rows: Vec<Vec<f64>>,
    /// Ground-truth labels aligned with `rows`.
    pub labels: Vec<usize>,
    /// Encoded calibration canaries for the supervisor.
    pub canaries: Vec<BinaryHypervector>,
}

/// Builds the synthetic fleet: per-tenant clustered workloads (separable
/// classes, so LogHD's accuracy delta is meaningful), `cohorts` encoder
/// cohorts, and every 10th tenant a byte-identical clone of an earlier
/// one so image deduplication is exercised.
pub fn build_fleet_tenants(opts: &FleetBenchOptions) -> Vec<FleetTenant> {
    let mut tenants: Vec<FleetTenant> = Vec::with_capacity(opts.models);
    for t in 0..opts.models {
        if t % 10 == 9 && t >= 9 {
            // A clone tenant: identical model bytes, distinct identity —
            // the registry should share one image between them.
            let source = tenants[t - 9].clone();
            tenants.push(FleetTenant {
                id: format!("tenant-{t:04}"),
                ..source
            });
            continue;
        }
        let config = HdcConfig::builder()
            .dimension(opts.dim)
            .seed(opts.seed + (t % opts.cohorts.max(1)) as u64)
            .build()
            .expect("valid tenant config");
        let encoder = RecordEncoder::new(&config, opts.features);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for c in 0..opts.classes {
            for s in 0..opts.rows_per_class {
                rows.push(
                    (0..opts.features)
                        .map(|f| {
                            let center = ((c * 31 + f * 17 + t * 7) % 97) as f64 / 97.0;
                            let jitter = ((s * 13 + f * 7 + t * 3) % 5) as f64 / 500.0;
                            (center + jitter).min(1.0)
                        })
                        .collect::<Vec<f64>>(),
                );
                labels.push(c);
            }
        }
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let encoded = encoder.encode_batch_refs(&refs);
        let model = TrainedModel::train(&encoded, &labels, opts.classes, &config);
        let canaries = encoded;
        tenants.push(FleetTenant {
            id: format!("tenant-{t:04}"),
            config,
            model,
            rows,
            labels,
            canaries,
        });
    }
    tenants
}

/// Capacity-phase results: wire load report + registry counters.
#[derive(Debug, Clone)]
pub struct CapacityOutcome {
    /// Wire load report of the Zipf-mixed run.
    pub load: LoadReport,
    /// Mean queries per drained daemon micro-batch.
    pub mean_batch: f64,
    /// Tenants hydrated when the daemon drained.
    pub resident_models: usize,
    /// Hot bytes held at drain (must fit the budget).
    pub resident_bytes: usize,
    /// The configured budget in bytes.
    pub budget_bytes: usize,
    /// Bytes of deduplicated cold images.
    pub cold_bytes: usize,
    /// Distinct cold images backing the fleet.
    pub unique_images: usize,
    /// Registrations that shared an existing image.
    pub dedup_hits: u64,
    /// Models evicted back to bytes during the run.
    pub evictions: u64,
    /// Hydrations of previously evicted models (no retraining).
    pub rehydrations: u64,
    /// Distinct encoders shared across cohorts.
    pub shared_encoders: usize,
    /// Whether the resident set respected the budget at drain.
    pub budget_ok: bool,
}

/// LogHD phase results (means over the sampled tenants).
#[derive(Debug, Clone)]
pub struct LogHdOutcome {
    /// Tenants sampled.
    pub tenants: usize,
    /// Mean accuracy of the full class-vector models.
    pub accuracy_full: f64,
    /// Mean accuracy of the LogHD-compressed models.
    pub accuracy_loghd: f64,
    /// `accuracy_full - accuracy_loghd` (positive = compression costs).
    pub delta: f64,
    /// Fraction of rows where LogHD agrees with the full model.
    pub agreement: f64,
    /// Mean class-axis compression ratio `C / ceil(log2 C)`.
    pub compression_ratio: f64,
}

/// Routing phase results.
#[derive(Debug, Clone)]
pub struct RoutingOutcome {
    /// Queries in the mixed stream.
    pub queries: usize,
    /// Queries/second through grouped fleet batches.
    pub routed_qps: f64,
    /// Queries/second one query at a time.
    pub perquery_qps: f64,
    /// `routed_qps / perquery_qps`.
    pub speedup: f64,
}

/// The full `BENCH_fleet.json` payload.
#[derive(Debug, Clone)]
pub struct FleetBenchOutcome {
    /// Registered tenants.
    pub models: usize,
    /// Hypervector dimensionality.
    pub dim: usize,
    /// Features per query.
    pub features: usize,
    /// Classes per tenant.
    pub classes: usize,
    /// Batch-engine worker threads.
    pub threads: usize,
    /// Whether fleet answers matched solo serving bit-for-bit.
    pub bit_exact: bool,
    /// Evictions observed during the bit-exactness stream (> 0 proves the
    /// comparison covered rehydration, not just resident tenants).
    pub bit_exact_evictions: u64,
    /// Wire capacity phase.
    pub capacity: CapacityOutcome,
    /// LogHD compression phase.
    pub loghd: LogHdOutcome,
    /// Routing throughput phase.
    pub routing: RoutingOutcome,
}

impl FleetBenchOutcome {
    /// Serialises the outcome as the single-line `BENCH_fleet.json` body.
    pub fn to_json(&self) -> String {
        Json::Object(vec![
            ("models".to_owned(), Json::Number(self.models as f64)),
            ("dim".to_owned(), Json::Number(self.dim as f64)),
            ("features".to_owned(), Json::Number(self.features as f64)),
            ("classes".to_owned(), Json::Number(self.classes as f64)),
            ("threads".to_owned(), Json::Number(self.threads as f64)),
            ("bit_exact".to_owned(), Json::Bool(self.bit_exact)),
            (
                "bit_exact_evictions".to_owned(),
                Json::Number(self.bit_exact_evictions as f64),
            ),
            (
                "capacity".to_owned(),
                Json::Object(vec![
                    (
                        "sent".to_owned(),
                        Json::Number(self.capacity.load.sent as f64),
                    ),
                    (
                        "results".to_owned(),
                        Json::Number(self.capacity.load.results as f64),
                    ),
                    (
                        "errors".to_owned(),
                        Json::Number(self.capacity.load.errors as f64),
                    ),
                    (
                        "overloaded".to_owned(),
                        Json::Number(self.capacity.load.overloaded as f64),
                    ),
                    ("qps".to_owned(), Json::Number(self.capacity.load.qps)),
                    ("p50_ms".to_owned(), Json::Number(self.capacity.load.p50_ms)),
                    ("p95_ms".to_owned(), Json::Number(self.capacity.load.p95_ms)),
                    (
                        "mean_batch".to_owned(),
                        Json::Number(self.capacity.mean_batch),
                    ),
                    (
                        "resident_models".to_owned(),
                        Json::Number(self.capacity.resident_models as f64),
                    ),
                    (
                        "resident_bytes".to_owned(),
                        Json::Number(self.capacity.resident_bytes as f64),
                    ),
                    (
                        "budget_bytes".to_owned(),
                        Json::Number(self.capacity.budget_bytes as f64),
                    ),
                    (
                        "cold_bytes".to_owned(),
                        Json::Number(self.capacity.cold_bytes as f64),
                    ),
                    (
                        "unique_images".to_owned(),
                        Json::Number(self.capacity.unique_images as f64),
                    ),
                    (
                        "dedup_hits".to_owned(),
                        Json::Number(self.capacity.dedup_hits as f64),
                    ),
                    (
                        "evictions".to_owned(),
                        Json::Number(self.capacity.evictions as f64),
                    ),
                    (
                        "rehydrations".to_owned(),
                        Json::Number(self.capacity.rehydrations as f64),
                    ),
                    (
                        "shared_encoders".to_owned(),
                        Json::Number(self.capacity.shared_encoders as f64),
                    ),
                    ("budget_ok".to_owned(), Json::Bool(self.capacity.budget_ok)),
                ]),
            ),
            (
                "loghd".to_owned(),
                Json::Object(vec![
                    (
                        "tenants".to_owned(),
                        Json::Number(self.loghd.tenants as f64),
                    ),
                    (
                        "accuracy_full".to_owned(),
                        Json::Number(self.loghd.accuracy_full),
                    ),
                    (
                        "accuracy_loghd".to_owned(),
                        Json::Number(self.loghd.accuracy_loghd),
                    ),
                    ("delta".to_owned(), Json::Number(self.loghd.delta)),
                    ("agreement".to_owned(), Json::Number(self.loghd.agreement)),
                    (
                        "compression_ratio".to_owned(),
                        Json::Number(self.loghd.compression_ratio),
                    ),
                ]),
            ),
            (
                "routing".to_owned(),
                Json::Object(vec![
                    (
                        "queries".to_owned(),
                        Json::Number(self.routing.queries as f64),
                    ),
                    (
                        "routed_qps".to_owned(),
                        Json::Number(self.routing.routed_qps),
                    ),
                    (
                        "perquery_qps".to_owned(),
                        Json::Number(self.routing.perquery_qps),
                    ),
                    ("speedup".to_owned(), Json::Number(self.routing.speedup)),
                ]),
            ),
        ])
        .to_string_compact()
    }
}

/// The supervisor policy both the fleet and the solo references calibrate
/// with — identical construction is what makes phase 1's bit-exactness
/// comparison meaningful.
fn supervision(seed: u64) -> (RecoveryConfig, SupervisorConfig) {
    let recovery = RecoveryConfig::builder()
        .confidence_threshold(0.45)
        .substitution_rate(0.5)
        .substitution(SubstitutionMode::MajorityCounter { saturation: 3 })
        .seed(seed ^ 0x5EE4)
        .build()
        .expect("valid recovery config");
    let policy = SupervisorConfig::builder()
        .window(64)
        .checkpoint_interval(16)
        .build()
        .expect("valid supervisor config");
    (recovery, policy)
}

/// Per-model resident bytes for the fleet's uniform tenant shape (class
/// vectors + fused arena), mirroring the registry's accounting.
fn model_hot_bytes(dim: usize, classes: usize) -> usize {
    2 * classes * dim.div_ceil(64) * 8
}

/// Builds a registry with every tenant registered and calibrated.
fn build_registry(
    tenants: &[FleetTenant],
    opts: &FleetBenchOptions,
    loghd: bool,
) -> io::Result<ModelRegistry> {
    let budget = opts.budget_models.max(1) * model_hot_bytes(opts.dim, opts.classes);
    let fleet_config = FleetConfig::builder()
        .budget_bytes(budget)
        .loghd(loghd)
        .build()
        .map_err(io::Error::other)?;
    let mut registry = ModelRegistry::new(fleet_config);
    registry.set_batch_config(opts.batch.clone());
    let (recovery, policy) = supervision(opts.seed);
    for tenant in tenants {
        registry
            .register_trained(&tenant.id, &tenant.config, opts.features, &tenant.model)
            .map_err(io::Error::other)?;
    }
    for tenant in tenants {
        registry
            .calibrate(
                &tenant.id,
                recovery.clone(),
                policy.clone(),
                &tenant.canaries,
            )
            .map_err(io::Error::other)?;
    }
    Ok(registry)
}

/// A deterministic mixed `(tenant, row)` stream: `queries` draws from the
/// Zipf mixer, each paired with one of the tenant's rows round-robin.
fn mixed_stream<'a>(
    tenants: &'a [FleetTenant],
    mix: &TenantMix,
    queries: usize,
) -> Vec<(&'a str, &'a [f64])> {
    let by_id: HashMap<&str, &FleetTenant> = tenants.iter().map(|t| (t.id.as_str(), t)).collect();
    let mut cursors: HashMap<&str, usize> = HashMap::new();
    (0..queries)
        .map(|i| {
            let id = mix.pick(i as u64);
            let tenant = by_id[id];
            let cursor = cursors.entry(tenant.id.as_str()).or_insert(0);
            let row = tenant.rows[*cursor % tenant.rows.len()].as_slice();
            *cursor += 1;
            (tenant.id.as_str(), row)
        })
        .collect()
}

/// Phase 1: fleet serving vs per-tenant solo supervisors, bit for bit,
/// under eviction churn. Returns the evictions observed (the churn proof).
///
/// # Errors
///
/// An [`io::Error`] describing the first divergence, if any.
fn check_bit_exactness(tenants: &[FleetTenant], opts: &FleetBenchOptions) -> io::Result<u64> {
    // A small cross-section keeps this phase fast while still spanning
    // several eviction cycles: more tenants than the budget admits.
    let sample: Vec<&FleetTenant> = tenants
        .iter()
        .take((opts.budget_models * 3).clamp(6, tenants.len()))
        .collect();
    let sampled: Vec<FleetTenant> = sample.iter().map(|&t| t.clone()).collect();
    let mut registry = build_registry(&sampled, opts, false)?;
    let evictions_before = registry.stats().evictions;

    // Identically calibrated solo references.
    let (recovery, policy) = supervision(opts.seed);
    let mut solo: HashMap<&str, (RecordEncoder, TrainedModel, ResilienceSupervisor)> =
        HashMap::new();
    for tenant in &sampled {
        let encoder = RecordEncoder::new(&tenant.config, opts.features);
        let model = tenant.model.clone();
        let mut supervisor = ResilienceSupervisor::new(
            &tenant.config,
            recovery.clone(),
            policy.clone(),
            opts.features,
        );
        supervisor.set_batch_config(opts.batch.clone());
        supervisor.calibrate(&model, &tenant.canaries);
        solo.insert(tenant.id.as_str(), (encoder, model, supervisor));
    }

    let mix = TenantMix::zipf(
        sampled.iter().map(|t| t.id.clone()).collect(),
        opts.zipf_exponent,
        opts.seed,
    );
    let stream = mixed_stream(&sampled, &mix, sampled.len() * 8);
    for (round, batch) in stream.chunks(24).enumerate() {
        let fleet_answers = registry.serve_supervised(batch).map_err(io::Error::other)?;
        // Mirror the registry's grouping: per tenant, first-appearance
        // order, so the solo supervisors see identical sub-batches.
        let mut groups: Vec<(&str, Vec<usize>)> = Vec::new();
        for (index, (id, _)) in batch.iter().enumerate() {
            match groups.iter_mut().find(|(gid, _)| gid == id) {
                Some((_, indices)) => indices.push(index),
                None => groups.push((id, vec![index])),
            }
        }
        for (id, indices) in groups {
            let rows: Vec<&[f64]> = indices.iter().map(|&i| batch[i].1).collect();
            let (encoder, model, supervisor) =
                solo.get_mut(id).expect("sampled tenant has a reference");
            let (report, scores) = supervisor.serve_raw_batch_with_scores(encoder, model, &rows);
            for ((&index, label), score) in indices.iter().zip(&report.answers).zip(&scores) {
                let fleet = fleet_answers[index];
                if fleet.label != *label
                    || fleet.confidence.to_bits() != score.confidence.confidence.to_bits()
                {
                    return Err(io::Error::other(format!(
                        "fleet/solo divergence: round {round}, tenant {id}, query {index}: \
                         fleet ({:?}, {:#018x}) vs solo ({label:?}, {:#018x})",
                        fleet.label,
                        fleet.confidence.to_bits(),
                        score.confidence.confidence.to_bits(),
                    )));
                }
            }
        }
    }
    Ok(registry.stats().evictions - evictions_before)
}

/// Phase 2: Zipf-mixed wire traffic against a [`serve_fleet`] daemon.
fn run_capacity(tenants: &[FleetTenant], opts: &FleetBenchOptions) -> io::Result<CapacityOutcome> {
    let registry = build_registry(tenants, opts, false)?;
    let handle = serve_fleet(("127.0.0.1", 0), opts.config, FleetEngine::new(registry))?;
    let mix = TenantMix::zipf(
        tenants.iter().map(|t| t.id.clone()).collect(),
        opts.zipf_exponent,
        opts.seed,
    );
    // All tenants share the feature count, so any tenant's rows work as
    // wire payloads.
    let rows: Vec<Vec<f64>> = tenants[0].rows.clone();
    let load = run_loadgen_mixed(
        handle.addr(),
        &rows,
        LoadOptions {
            clients: opts.clients,
            requests_per_client: opts.requests_per_client,
            pipeline: opts.pipeline,
        },
        Some(&mix),
    )?;
    let (engine, wire_stats) = handle.shutdown();
    let engine = engine.ok_or_else(|| io::Error::other("daemon drain thread panicked"))?;
    let stats = engine.registry().stats();
    let mean_batch = if wire_stats.batches == 0 {
        0.0
    } else {
        wire_stats.coalesced as f64 / wire_stats.batches as f64
    };
    Ok(CapacityOutcome {
        load,
        mean_batch,
        resident_models: stats.resident_models,
        resident_bytes: stats.resident_bytes,
        budget_bytes: stats.budget_bytes,
        cold_bytes: stats.cold_bytes,
        unique_images: stats.unique_images,
        dedup_hits: stats.dedup_hits,
        evictions: stats.evictions,
        rehydrations: stats.rehydrations,
        shared_encoders: stats.shared_encoders,
        budget_ok: stats.resident_bytes <= stats.budget_bytes || stats.resident_models <= 1,
    })
}

/// Phase 3: accuracy of full vs LogHD-compressed models on each sampled
/// tenant's labeled rows.
fn run_loghd(tenants: &[FleetTenant], opts: &FleetBenchOptions) -> LogHdOutcome {
    let sample: Vec<&FleetTenant> = tenants.iter().take(16.min(tenants.len())).collect();
    let mut full_sum = 0.0;
    let mut loghd_sum = 0.0;
    let mut ratio_sum = 0.0;
    let mut agree = 0usize;
    let mut total = 0usize;
    for tenant in &sample {
        let encoder = RecordEncoder::new(&tenant.config, opts.features);
        let refs: Vec<&[f64]> = tenant.rows.iter().map(Vec::as_slice).collect();
        let encoded = encoder.encode_batch_refs(&refs);
        let loghd = LogHdModel::encode(&tenant.model);
        let mut full_ok = 0usize;
        let mut loghd_ok = 0usize;
        for (query, &label) in encoded.iter().zip(&tenant.labels) {
            let full = tenant.model.predict(query);
            let compressed = loghd.predict(query);
            full_ok += usize::from(full == label);
            loghd_ok += usize::from(compressed == label);
            agree += usize::from(full == compressed);
            total += 1;
        }
        full_sum += full_ok as f64 / encoded.len() as f64;
        loghd_sum += loghd_ok as f64 / encoded.len() as f64;
        ratio_sum += loghd.compression_ratio();
    }
    let n = sample.len() as f64;
    let accuracy_full = full_sum / n;
    let accuracy_loghd = loghd_sum / n;
    LogHdOutcome {
        tenants: sample.len(),
        accuracy_full,
        accuracy_loghd,
        delta: accuracy_full - accuracy_loghd,
        agreement: agree as f64 / total.max(1) as f64,
        compression_ratio: ratio_sum / n,
    }
}

/// Phase 4: grouped fleet drains vs one query at a time, same stream.
fn run_routing(tenants: &[FleetTenant], opts: &FleetBenchOptions) -> io::Result<RoutingOutcome> {
    let mut registry = build_registry(tenants, opts, false)?;
    let mix = TenantMix::zipf(
        tenants.iter().map(|t| t.id.clone()).collect(),
        opts.zipf_exponent,
        opts.seed ^ 0xF1EE7,
    );
    let queries = (opts.clients * opts.requests_per_client).max(256);
    let stream = mixed_stream(tenants, &mix, queries);

    // Warm both paths identically (hydrations priced out of the timing).
    registry
        .route_batch(&stream[..stream.len().min(64)])
        .map_err(io::Error::other)?;

    let start = Instant::now();
    for chunk in stream.chunks(256) {
        registry.route_batch(chunk).map_err(io::Error::other)?;
    }
    let routed = start.elapsed().as_secs_f64().max(1e-9);

    let start = Instant::now();
    for query in &stream {
        registry
            .route_batch(std::slice::from_ref(query))
            .map_err(io::Error::other)?;
    }
    let perquery = start.elapsed().as_secs_f64().max(1e-9);

    let routed_qps = stream.len() as f64 / routed;
    let perquery_qps = stream.len() as f64 / perquery;
    Ok(RoutingOutcome {
        queries: stream.len(),
        routed_qps,
        perquery_qps,
        speedup: routed_qps / perquery_qps,
    })
}

/// Runs the four-phase fleet benchmark.
///
/// # Errors
///
/// Returns an error if the bit-exactness phase finds any fleet/solo
/// divergence (surfaced as an error, not a timed result), or if the
/// loopback daemon cannot be bound or driven.
///
/// # Panics
///
/// Panics if `opts.models` is zero.
pub fn run_fleetbench(opts: &FleetBenchOptions) -> io::Result<FleetBenchOutcome> {
    assert!(opts.models > 0, "fleetbench needs at least one tenant");
    let tenants = build_fleet_tenants(opts);
    let bit_exact_evictions = check_bit_exactness(&tenants, opts)?;
    let capacity = run_capacity(&tenants, opts)?;
    let loghd = run_loghd(&tenants, opts);
    let routing = run_routing(&tenants, opts)?;
    Ok(FleetBenchOutcome {
        models: tenants.len(),
        dim: opts.dim,
        features: opts.features,
        classes: opts.classes,
        threads: opts.batch.threads,
        bit_exact: true,
        bit_exact_evictions,
        capacity,
        loghd,
        routing,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts() -> FleetBenchOptions {
        FleetBenchOptions {
            models: 24,
            cohorts: 4,
            dim: 512,
            features: 8,
            classes: 4,
            rows_per_class: 4,
            budget_models: 4,
            clients: 4,
            requests_per_client: 8,
            ..FleetBenchOptions::default()
        }
    }

    #[test]
    fn quick_fleetbench_is_bit_exact_under_churn() {
        let o = run_fleetbench(&quick_opts()).expect("fleetbench runs");
        assert!(o.bit_exact);
        assert!(
            o.bit_exact_evictions > 0,
            "bit-exactness phase must churn the budget"
        );
        assert_eq!(o.models, 24);
        assert_eq!(o.capacity.load.errors, 0, "wire run must be clean");
        assert_eq!(o.capacity.load.results, o.capacity.load.sent);
        assert!(o.capacity.budget_ok);
        assert!(o.capacity.dedup_hits > 0, "clone tenants must dedup");
        assert!(o.capacity.evictions > 0, "capacity run must churn");
        assert!(o.loghd.compression_ratio > 1.0);
        assert!(o.loghd.accuracy_full > 0.9, "clustered workloads separate");
        assert!(o.routing.routed_qps > 0.0 && o.routing.perquery_qps > 0.0);
        let json = o.to_json();
        assert!(json.contains("\"bit_exact\":true"), "{json}");
        assert!(json.contains("\"budget_ok\":true"), "{json}");
        assert!(json.contains("\"compression_ratio\""), "{json}");
    }
}
