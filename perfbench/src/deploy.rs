//! The deployments the workloads serve, and the set-up users pay for them:
//! train → calibrate (→ register tenants) → the daemon answers `ping`.
//!
//! Dataset synthesis is input generation and stays outside every timing.
//! The datasets are generated from fixed seeds, so `setup_s` and
//! `accuracy` measure the same deployment on every run; `--seed` drives
//! the traffic.

use hypervector::BinaryHypervector;
use robusthd::supervisor::ResilienceSupervisor;
use robusthd::{
    BatchConfig, Encoder, FleetConfig, HdcConfig, ModelRegistry, RecordEncoder, RecoveryConfig,
    ServeConfig, SubstitutionMode, SupervisorConfig, TrainedModel,
};
use robusthd_serve::protocol::{self, Request, Response};
use robusthd_serve::{serve, serve_fleet, FleetEngine, ServeEngine, ServerHandle};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;
use synthdata::{DatasetSpec, GeneratorConfig};

/// Batch-engine worker threads. Pinned (never read from the environment)
/// so the engine does not spawn scoped workers on a host-dependent count.
pub const THREADS: usize = 1;
/// Hypervector dimensionality of every deployment.
pub const DIM: usize = 2048;
/// Calibration canaries of the ucihar deployment.
pub const CANARIES: usize = 128;
/// Distinct ucihar query rows traffic cycles through.
pub const POOL: usize = 256;
const TRAIN_ROWS: usize = 1200;
const DATA_SEED: u64 = 0x0BE7_C4A2;

/// Fleet shape: tenants, features, classes, resident-model budget, encoder
/// cohorts and the Zipf exponent of tenant popularity.
pub const TENANTS: usize = 120;
pub const FLEET_FEATURES: usize = 16;
pub const FLEET_CLASSES: usize = 6;
pub const BUDGET_MODELS: usize = 16;
const COHORTS: usize = 8;
pub const ZIPF: f64 = 1.0;
const TENANT_TRAIN: usize = 48;
const TENANT_POOL: usize = 32;

pub fn batch_config() -> BatchConfig {
    BatchConfig::builder()
        .threads(THREADS)
        .build()
        .expect("valid batch config")
}

/// Coalescer tuning of both daemons: 1 ms window, 64-query batches.
pub fn serve_config() -> ServeConfig {
    ServeConfig::builder()
        .window_us(1_000)
        .max_batch(64)
        .queue_depth(1_024)
        .build()
        .expect("valid serve config")
}

/// The recovery operating point and supervisor policy of every deployment.
pub fn supervision() -> (RecoveryConfig, SupervisorConfig) {
    let recovery = RecoveryConfig::builder()
        .confidence_threshold(0.45)
        .substitution_rate(0.5)
        .substitution(SubstitutionMode::MajorityCounter { saturation: 3 })
        .seed(DATA_SEED ^ 0x5EE4)
        .build()
        .expect("valid recovery config");
    let policy = SupervisorConfig::builder()
        .window(64)
        .checkpoint_interval(16)
        .build()
        .expect("valid supervisor config");
    (recovery, policy)
}

/// Wall time of each set-up stage, seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimings {
    /// Encoding the training rows.
    pub encode_s: f64,
    /// `TrainedModel::train`.
    pub fit_s: f64,
    /// Canary encoding + supervisor calibration (+ tenant registration).
    pub calibrate_s: f64,
    /// `serve` → first `pong`.
    pub ready_s: f64,
    /// The whole set-up.
    pub total_s: f64,
}

/// The ucihar-shaped corpus: 561 features, 12 classes.
#[derive(Debug)]
pub struct Ucihar {
    pub config: HdcConfig,
    pub train_rows: Vec<Vec<f64>>,
    pub train_labels: Vec<usize>,
    pub canary_rows: Vec<Vec<f64>>,
    pub pool_rows: Vec<Vec<f64>>,
    pub pool_labels: Vec<usize>,
}

impl Ucihar {
    pub fn generate() -> Self {
        let spec = DatasetSpec::ucihar().with_sizes(TRAIN_ROWS, CANARIES + POOL);
        let data = GeneratorConfig::new(DATA_SEED).generate(&spec);
        let config = HdcConfig::builder()
            .dimension(DIM)
            .seed(DATA_SEED ^ 0xABCD)
            .build()
            .expect("valid HDC config");
        let (canaries, pool) = data.test.split_at(CANARIES);
        Self {
            config,
            train_rows: data.train.iter().map(|s| s.features.clone()).collect(),
            train_labels: data.train.iter().map(|s| s.label).collect(),
            canary_rows: canaries.iter().map(|s| s.features.clone()).collect(),
            pool_rows: pool.iter().map(|s| s.features.clone()).collect(),
            pool_labels: pool.iter().map(|s| s.label).collect(),
        }
    }

    pub fn features(&self) -> usize {
        self.train_rows[0].len()
    }

    pub fn classes(&self) -> usize {
        DatasetSpec::ucihar().classes
    }

    /// A fresh supervisor calibrated on `canaries` against `model`.
    pub fn supervisor(
        &self,
        model: &TrainedModel,
        canaries: &[BinaryHypervector],
    ) -> ResilienceSupervisor {
        let (recovery, policy) = supervision();
        let mut supervisor =
            ResilienceSupervisor::new(&self.config, recovery, policy, self.features());
        supervisor.set_batch_config(batch_config());
        supervisor.calibrate(model, canaries);
        supervisor
    }
}

pub fn refs(rows: &[Vec<f64>]) -> Vec<&[f64]> {
    rows.iter().map(Vec::as_slice).collect()
}

/// A trained, calibrated ucihar deployment (not yet served).
#[derive(Debug)]
pub struct Deployment {
    pub encoder: RecordEncoder,
    pub model: TrainedModel,
    pub supervisor: ResilienceSupervisor,
    pub timings: SetupTimings,
}

pub fn deploy_ucihar(data: &Ucihar) -> Deployment {
    let start = Instant::now();
    let encoder = RecordEncoder::new(&data.config, data.features());
    let encoded = encoder.encode_batch_refs(&refs(&data.train_rows));
    let encode_s = start.elapsed().as_secs_f64();
    let fit = Instant::now();
    let model = TrainedModel::train(&encoded, &data.train_labels, data.classes(), &data.config);
    let fit_s = fit.elapsed().as_secs_f64();
    let calibrate = Instant::now();
    let canaries = encoder.encode_batch_refs(&refs(&data.canary_rows));
    let supervisor = data.supervisor(&model, &canaries);
    let calibrate_s = calibrate.elapsed().as_secs_f64();
    Deployment {
        encoder,
        model,
        supervisor,
        timings: SetupTimings {
            encode_s,
            fit_s,
            calibrate_s,
            ready_s: 0.0,
            total_s: start.elapsed().as_secs_f64(),
        },
    }
}

/// Sends one `ping` and waits for its `pong`.
pub fn ping(addr: SocketAddr) -> io::Result<()> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut line = protocol::encode_request(&Request::Ping);
    line.push('\n');
    (&stream).write_all(line.as_bytes())?;
    let mut reply = String::new();
    BufReader::new(&stream).read_line(&mut reply)?;
    match protocol::decode_response(reply.trim_end()) {
        Ok(Response::Pong) => Ok(()),
        _ => Err(io::Error::other(format!("expected pong, got {reply:?}"))),
    }
}

fn start_daemon<T>(
    started: Instant,
    mut timings: SetupTimings,
    launch: impl FnOnce() -> io::Result<ServerHandle<T>>,
) -> io::Result<(ServerHandle<T>, SetupTimings)>
where
    T: robusthd_serve::DrainEngine,
{
    let ready = Instant::now();
    let handle = launch()?;
    ping(handle.addr())?;
    timings.ready_s = ready.elapsed().as_secs_f64();
    timings.total_s = started.elapsed().as_secs_f64();
    Ok((handle, timings))
}

/// Set-up of the solo daemon, from training to the first `pong`.
pub fn start_solo(data: &Ucihar) -> io::Result<(ServerHandle, SetupTimings)> {
    let started = Instant::now();
    let d = deploy_ucihar(data);
    let mut engine = ServeEngine::new(d.encoder, d.model, d.supervisor);
    engine.set_batch_config(batch_config());
    start_daemon(started, d.timings, || {
        serve(("127.0.0.1", 0), serve_config(), engine)
    })
}

/// One fleet tenant's corpus and pipeline parameters.
#[derive(Debug)]
pub struct Tenant {
    pub id: String,
    pub config: HdcConfig,
    pub train_rows: Vec<Vec<f64>>,
    pub train_labels: Vec<usize>,
    /// Held-out rows: the tenant's traffic and also its canaries, so a
    /// supervisor window over healthy traffic matches its calibration.
    pub pool_rows: Vec<Vec<f64>>,
    pub pool_labels: Vec<usize>,
}

/// 120 small tenants (16 features, 6 classes) in 8 encoder cohorts.
pub fn fleet_tenants() -> Vec<Tenant> {
    let spec = DatasetSpec {
        name: "tenant".to_owned(),
        features: FLEET_FEATURES,
        classes: FLEET_CLASSES,
        train_size: TENANT_TRAIN,
        test_size: TENANT_POOL,
        feature_snr: 10.0,
        informative_fraction: 1.0,
        ambiguity: 0.0,
        subclusters: 1,
        latent_dim: 2,
    };
    (0..TENANTS)
        .map(|t| {
            let data = GeneratorConfig::new(DATA_SEED ^ (t as u64 * 0x9E37)).generate(&spec);
            let config = HdcConfig::builder()
                .dimension(DIM)
                .seed(DATA_SEED + (t % COHORTS) as u64)
                .build()
                .expect("valid tenant config");
            Tenant {
                id: format!("tenant-{t:03}"),
                config,
                train_rows: data.train.iter().map(|s| s.features.clone()).collect(),
                train_labels: data.train.iter().map(|s| s.label).collect(),
                pool_rows: data.test.iter().map(|s| s.features.clone()).collect(),
                pool_labels: data.test.iter().map(|s| s.label).collect(),
            }
        })
        .collect()
}

/// Per-model hot bytes of the uniform tenant shape (class vectors plus the
/// fused scoring arena), the unit the registry budget is counted in.
pub fn model_hot_bytes() -> usize {
    2 * FLEET_CLASSES * DIM.div_ceil(64) * 8
}

/// Trains every tenant and registers and calibrates it under the budget.
/// Also returns each tenant's model and encoded canaries.
pub fn deploy_fleet(
    tenants: &[Tenant],
) -> (
    ModelRegistry,
    Vec<(TrainedModel, Vec<BinaryHypervector>)>,
    SetupTimings,
) {
    let start = Instant::now();
    let mut timings = SetupTimings::default();
    let mut trained = Vec::with_capacity(tenants.len());
    for tenant in tenants {
        let t = Instant::now();
        let encoder = RecordEncoder::new(&tenant.config, FLEET_FEATURES);
        let encoded = encoder.encode_batch_refs(&refs(&tenant.train_rows));
        timings.encode_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let model = TrainedModel::train(
            &encoded,
            &tenant.train_labels,
            FLEET_CLASSES,
            &tenant.config,
        );
        timings.fit_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let canaries = encoder.encode_batch_refs(&refs(&tenant.pool_rows));
        timings.calibrate_s += t.elapsed().as_secs_f64();
        trained.push((model, canaries));
    }
    let t = Instant::now();
    let fleet_config = FleetConfig::builder()
        .budget_bytes(BUDGET_MODELS * model_hot_bytes())
        .loghd(false)
        .build()
        .expect("valid fleet config");
    let mut registry = ModelRegistry::new(fleet_config);
    registry.set_batch_config(batch_config());
    for (tenant, (model, _)) in tenants.iter().zip(&trained) {
        registry
            .register_trained(&tenant.id, &tenant.config, FLEET_FEATURES, model)
            .expect("tenant registers");
    }
    let (recovery, policy) = supervision();
    for (tenant, (_, canaries)) in tenants.iter().zip(&trained) {
        registry
            .calibrate(&tenant.id, recovery.clone(), policy.clone(), canaries)
            .expect("tenant calibrates");
    }
    timings.calibrate_s += t.elapsed().as_secs_f64();
    timings.total_s = start.elapsed().as_secs_f64();
    (registry, trained, timings)
}

/// Set-up of the fleet daemon, from training to the first `pong`.
pub fn start_fleet(
    tenants: &[Tenant],
) -> io::Result<(
    ServerHandle<FleetEngine>,
    SetupTimings,
    robusthd::FleetStats,
)> {
    let started = Instant::now();
    let (registry, _, timings) = deploy_fleet(tenants);
    let stats = registry.stats();
    let (handle, timings) = start_daemon(started, timings, || {
        serve_fleet(("127.0.0.1", 0), serve_config(), FleetEngine::new(registry))
    })?;
    Ok((handle, timings, stats))
}
