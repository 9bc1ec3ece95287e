//! Extension — coalesced vs sequential serving throughput of the
//! `robusthdd` daemon on loopback.
//!
//! Builds one workload, deploys it behind fresh identically-calibrated
//! daemons, and delegates to [`robusthd_serve::run_servebench`]'s three
//! phases: a wire bit-exactness cross-check (labels and `f64::to_bits`
//! confidences through the JSON roundtrip), a one-lockstep-client
//! sequential baseline where every query pays the supervisor's canary
//! probe and checkpoint cadence alone, and the coalesced phase where
//! pipelined clients let the micro-batcher amortise that per-batch
//! overhead. The emitted JSON is the `BENCH_serve.json` body.

use crate::soak::soak_recovery;
use crate::workload::{EncodedWorkload, Scale};
use robusthd::supervisor::ResilienceSupervisor;
use robusthd::{BatchConfig, SupervisorConfig};
use robusthd_serve::{BenchOptions, ServeBenchOutcome, ServeEngine};
use std::io;
use synthdata::DatasetSpec;

/// Tuning for one serving benchmark run.
#[derive(Debug, Clone)]
pub struct ServeBenchParams {
    /// Hypervector dimensionality.
    pub dim: usize,
    /// Workload seed.
    pub seed: u64,
    /// Concurrent clients in the coalesced phase.
    pub concurrency: usize,
    /// Classify requests per client in the coalesced phase.
    pub requests_per_client: usize,
    /// Max requests in flight per client.
    pub pipeline: usize,
    /// Supervisor health-verdict window.
    pub monitor_window: usize,
    /// Checkpoint every N healthy batches.
    pub checkpoint: usize,
    /// Test rows withheld as supervisor canaries (the benchmark rows are
    /// never also calibration data).
    pub canaries: usize,
    /// Daemon coalescer tuning (window, max batch, queue depth).
    pub config: robusthd::ServeConfig,
    /// Batch-engine tuning for the deployment.
    pub batch: BatchConfig,
}

impl Default for ServeBenchParams {
    fn default() -> Self {
        Self {
            dim: 2048,
            seed: 0,
            concurrency: 32,
            requests_per_client: 32,
            pipeline: 4,
            monitor_window: 64,
            checkpoint: 16,
            canaries: 128,
            config: robusthd::ServeConfig::default(),
            batch: BatchConfig::from_env(),
        }
    }
}

/// Builds one calibrated [`ServeEngine`] deployment from the workload:
/// fresh supervisor, recovery policy at the soak defaults, canaries =
/// the first `canaries` encoded test queries.
fn build_engine(workload: &EncodedWorkload, params: &ServeBenchParams) -> ServeEngine {
    let base = soak_recovery(params.seed ^ 0x5EE4);
    let policy = SupervisorConfig::builder()
        .window(params.monitor_window)
        .checkpoint_interval(params.checkpoint)
        .build()
        .expect("valid supervisor config");
    let features = workload.data.train[0].features.len();
    let mut supervisor = ResilienceSupervisor::new(&workload.config, base, policy, features);
    let model = workload.model.clone();
    supervisor.calibrate(&model, &workload.test_encoded[..params.canaries]);
    let mut engine = ServeEngine::new(workload.encoder.clone(), model, supervisor);
    engine.set_batch_config(params.batch.clone());
    engine
}

/// Runs the three-phase serving benchmark on one dataset.
///
/// # Errors
///
/// Returns the underlying I/O error if a loopback daemon cannot be bound
/// or driven — including the bit-exactness cross-check failing, which
/// surfaces as an error rather than a timed result.
///
/// # Panics
///
/// Panics if the scaled dataset leaves no benchmark rows beyond the
/// canary reservation.
pub fn run(
    spec: &DatasetSpec,
    scale: Scale,
    params: &ServeBenchParams,
) -> io::Result<ServeBenchOutcome> {
    let workload = EncodedWorkload::build(spec, scale, params.dim, params.seed);
    assert!(
        workload.data.test.len() > params.canaries,
        "scale leaves no benchmark rows beyond the {} canaries",
        params.canaries
    );
    let rows: Vec<Vec<f64>> = workload.data.test[params.canaries..]
        .iter()
        .map(|s| s.features.clone())
        .collect();
    let mk_engine = || build_engine(&workload, params);
    robusthd_serve::run_servebench(
        &mk_engine,
        &rows,
        &BenchOptions {
            dataset: spec.name.to_string(),
            concurrency: params.concurrency,
            requests_per_client: params.requests_per_client,
            pipeline: params.pipeline,
            config: params.config,
            threads: params.batch.threads,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_bench_is_bit_exact_and_reports_both_phases() {
        let params = ServeBenchParams {
            dim: 512,
            concurrency: 4,
            requests_per_client: 4,
            canaries: 16,
            ..ServeBenchParams::default()
        };
        let o = run(&DatasetSpec::pecan(), Scale::Quick, &params).expect("bench runs");
        assert!(o.bit_exact);
        assert_eq!(o.concurrency, 4);
        assert!(o.sequential.qps > 0.0 && o.coalesced.qps > 0.0);
        assert!(o.speedup > 0.0);
        let json = o.to_json();
        assert!(json.contains("\"bit_exact\":true"), "{json}");
        assert!(json.contains("\"speedup\""), "{json}");
    }
}
