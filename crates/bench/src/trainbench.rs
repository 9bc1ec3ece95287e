//! Extension — training throughput of the parallel bit-sliced training
//! engine across thread counts, split into the two phases that compose a
//! fit:
//!
//! * **bundle** — one-shot bundling of the encoded training set into
//!   per-class accumulators (carry-save bit-plane partials sharded across
//!   the [`BatchEngine`]'s workers);
//! * **retrain** — perceptron refinement epochs, each batch-scored against
//!   the frozen per-epoch snapshot through the engine's fused popcount
//!   kernels.
//!
//! Before any timing, the sweep cross-checks the fast training path
//! against the sequential scalar reference at every thread count — down to
//! the raw `i64` accumulator counts, not just the thresholded model — so
//! the reported rates always describe the bit-exact engine. The reference
//! trainer ([`train_accumulators_reference`]) is also timed once, which is
//! inherently single-threaded, so one run reports what the fast path buys.

use crate::timing::best_seconds;
use crate::workload::EncodedWorkload;
use robusthd::train::{train_accumulators, train_accumulators_reference};
use robusthd::{BatchConfig, BatchEngine, TrainedModel};
use std::fmt::Write as _;
use synthdata::DatasetSpec;

/// One timed point of the thread sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainBenchRow {
    /// Worker thread count used by the batch engine.
    pub threads: usize,
    /// Training samples bundled per second (one-shot phase, best repeat).
    pub bundle_qps: f64,
    /// Sample-updates applied per second across the retraining epochs
    /// (budgeted epochs × samples over the retraining wall-clock; an
    /// epoch early-exit on a separable task makes this an underestimate
    /// of the per-epoch rate). Zero when the epoch budget is zero.
    pub retrain_qps: f64,
    /// Full fit wall-clock in seconds (bundle + retrain, best repeat).
    pub fit_seconds: f64,
    /// Bundling speedup relative to the first (baseline) thread count in
    /// the sweep.
    pub speedup: f64,
}

/// The full sweep result for one dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainBenchOutcome {
    /// Dataset name.
    pub name: String,
    /// Hypervector dimensionality.
    pub dim: usize,
    /// Training samples per fit.
    pub samples: usize,
    /// Number of classes.
    pub classes: usize,
    /// Retraining epoch budget.
    pub epochs: usize,
    /// Shard size in samples.
    pub shard_size: usize,
    /// Timed repetitions per thread count (best wins).
    pub repeats: usize,
    /// Workload seed.
    pub seed: u64,
    /// The sequential scalar reference trainer, timed once (one thread;
    /// `speedup` is relative to the sweep's baseline row).
    pub reference: TrainBenchRow,
    /// One row per thread count, in sweep order.
    pub rows: Vec<TrainBenchRow>,
}

impl TrainBenchOutcome {
    /// Hand-written JSON rendering (no serializer dependency), stable field
    /// order for diffable CI artifacts.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"dataset\": \"{}\", \"dim\": {}, \"samples\": {}, \"classes\": {}, \
             \"epochs\": {}, \"shard_size\": {}, \"repeats\": {}, \"seed\": {}, \
             \"bit_exact\": true, \"reference\": ",
            self.name,
            self.dim,
            self.samples,
            self.classes,
            self.epochs,
            self.shard_size,
            self.repeats,
            self.seed
        );
        self.reference.write_json(&mut out);
        out.push_str(", \"sweep\": [");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            row.write_json(&mut out);
        }
        out.push_str("]}");
        out
    }
}

impl TrainBenchRow {
    fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"threads\": {}, \"bundle_qps\": {:.1}, \"retrain_qps\": {:.1}, \
             \"fit_seconds\": {:.4}, \"speedup\": {:.3}}}",
            self.threads, self.bundle_qps, self.retrain_qps, self.fit_seconds, self.speedup
        );
    }
}

/// Times one training path: best-of-`repeats` bundling (`fit(0)`, zero
/// epochs) and full fit (`fit(epochs)`), as a sweep row with `speedup`
/// left at 1.
fn time_fit<T>(
    threads: usize,
    samples: usize,
    epochs: usize,
    repeats: usize,
    mut fit: impl FnMut(usize) -> T,
) -> TrainBenchRow {
    let bundle_seconds = best_seconds(repeats, || fit(0));
    let fit_seconds = best_seconds(repeats, || fit(epochs));
    let retrain_seconds = fit_seconds - bundle_seconds;
    let retrain_qps = if epochs == 0 || retrain_seconds <= 0.0 {
        0.0
    } else {
        (samples * epochs) as f64 / retrain_seconds
    };
    TrainBenchRow {
        threads,
        bundle_qps: samples as f64 / bundle_seconds,
        retrain_qps,
        fit_seconds,
        speedup: 1.0,
    }
}

/// Runs the training thread sweep on one dataset, fitting `samples`
/// training rows with an `epochs` retraining budget.
///
/// # Panics
///
/// Panics if the fast training path ever diverges from the sequential
/// scalar reference — the sweep refuses to report throughput for a
/// non-bit-exact configuration.
pub fn run(
    spec: &DatasetSpec,
    samples: usize,
    dim: usize,
    seed: u64,
    epochs: usize,
    threads: &[usize],
    shard_size: usize,
    repeats: usize,
) -> TrainBenchOutcome {
    assert!(!threads.is_empty(), "thread sweep must not be empty");
    assert!(shard_size > 0 && repeats > 0, "tuning must be positive");
    let workload = EncodedWorkload::with_sizes(spec, samples, 1, dim, seed);
    let encoded = &workload.train_encoded;
    let labels = &workload.train_labels;
    let classes = spec.classes;
    let config_for = |epochs: usize| {
        let mut config = workload.config.clone();
        config.retrain_epochs = epochs;
        config
    };
    let cfg_fit = config_for(epochs);

    // Cross-check: the fast path at every swept thread count against one
    // sequential scalar-reference fit — raw accumulator counts and the
    // thresholded model both.
    let reference = train_accumulators_reference(encoded, labels, classes, &cfg_fit);
    let reference_model = TrainedModel::from_accumulators(&reference);
    let mut engine = BatchEngine::from_env();
    let batch_config = |t: usize| {
        BatchConfig::builder()
            .threads(t)
            .shard_size(shard_size)
            .build()
            .expect("valid batch config")
    };
    for &t in threads {
        engine.set_config(batch_config(t));
        let fast = train_accumulators(encoded, labels, classes, &cfg_fit, &engine);
        for (c, (f, r)) in fast.iter().zip(&reference).enumerate() {
            assert_eq!(
                f.counts(),
                r.counts(),
                "class {c} accumulator counts at {t} threads diverge from the reference path"
            );
            assert_eq!(
                f, r,
                "class {c} accumulator at {t} threads diverges from the reference path"
            );
        }
        assert_eq!(
            TrainedModel::from_accumulators(&fast),
            reference_model,
            "trained model at {t} threads diverges from the reference path"
        );
    }

    let mut out_rows: Vec<TrainBenchRow> = Vec::with_capacity(threads.len());
    for &t in threads {
        engine.set_config(batch_config(t));
        let mut row = time_fit(t, encoded.len(), epochs, repeats, |epochs| {
            train_accumulators(encoded, labels, classes, &config_for(epochs), &engine)
        });
        row.speedup = row.bundle_qps / out_rows.first().map_or(row.bundle_qps, |b| b.bundle_qps);
        out_rows.push(row);
    }
    let mut reference = time_fit(1, encoded.len(), epochs, repeats, |epochs| {
        train_accumulators_reference(encoded, labels, classes, &config_for(epochs))
    });
    reference.speedup = reference.bundle_qps / out_rows[0].bundle_qps;
    TrainBenchOutcome {
        name: spec.name.to_string(),
        dim,
        samples: encoded.len(),
        classes,
        epochs,
        shard_size,
        repeats,
        seed,
        reference,
        rows: out_rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_produces_one_row_per_thread_count() {
        let o = run(&DatasetSpec::pecan(), 90, 1024, 3, 1, &[1, 2], 16, 1);
        assert_eq!(o.rows.len(), 2);
        assert_eq!(o.reference.threads, 1);
        assert!(o.reference.bundle_qps > 0.0 && o.reference.fit_seconds > 0.0);
        assert_eq!(o.rows[0].threads, 1);
        assert!((o.rows[0].speedup - 1.0).abs() < 1e-12);
        assert!(o
            .rows
            .iter()
            .all(|r| r.bundle_qps > 0.0 && r.fit_seconds > 0.0));
        assert_eq!(o.epochs, 1);
        assert_eq!(o.samples, 90);
    }

    #[test]
    fn json_rendering_is_stable() {
        let o = TrainBenchOutcome {
            name: "ucihar".into(),
            dim: 8192,
            samples: 400,
            classes: 6,
            epochs: 2,
            shard_size: 32,
            repeats: 3,
            seed: 4,
            reference: TrainBenchRow {
                threads: 1,
                bundle_qps: 1000.0,
                retrain_qps: 1100.0,
                fit_seconds: 0.5,
                speedup: 0.4,
            },
            rows: vec![TrainBenchRow {
                threads: 1,
                bundle_qps: 2500.0,
                retrain_qps: 1200.5,
                fit_seconds: 0.25,
                speedup: 1.0,
            }],
        };
        assert_eq!(
            o.to_json(),
            "{\"dataset\": \"ucihar\", \"dim\": 8192, \"samples\": 400, \"classes\": 6, \
             \"epochs\": 2, \"shard_size\": 32, \"repeats\": 3, \"seed\": 4, \
             \"bit_exact\": true, \"reference\": {\"threads\": 1, \"bundle_qps\": 1000.0, \
             \"retrain_qps\": 1100.0, \"fit_seconds\": 0.5000, \"speedup\": 0.400}, \
             \"sweep\": [{\"threads\": 1, \"bundle_qps\": 2500.0, \
             \"retrain_qps\": 1200.5, \"fit_seconds\": 0.2500, \"speedup\": 1.000}]}"
        );
    }
}
