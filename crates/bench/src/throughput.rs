//! Extension — serving throughput of the parallel [`BatchEngine`] across
//! thread counts, split into the three phases that actually compose the
//! serving path:
//!
//! * **encode** — raw feature rows → binary hypervectors
//!   ([`BatchEngine::encode_batch`], bound-pair + carry-save fast path);
//! * **score** — pre-encoded hypervectors → predictions
//!   ([`BatchEngine::predict_batch`], fused popcount kernels);
//! * **end-to-end** — raw feature rows → predictions in one fused pass
//!   ([`BatchEngine::predict_raw_batch`], no intermediate hypervector
//!   batch).
//!
//! Earlier revisions timed only the score phase and reported it as
//! "throughput", which flattered the system: on real serving traffic the
//! queries arrive as raw features and encoding dominates. The three rates
//! are now reported as separate JSON fields so no phase can masquerade as
//! the whole pipeline.
//!
//! Before any timing, the sweep cross-checks (a) the fast-path encoder
//! against the scalar reference encoder
//! ([`robusthd::RecordEncoder::encode_reference`]) and (b) the engine's
//! batched and fused predictions against the sequential
//! `TrainedModel::predict` path — the reported rates always describe the
//! bit-exact engine, never a faster approximation. The reference encoder
//! is also timed once, single-threaded, so one run reports what the fast
//! path buys.

use crate::timing::best_seconds;
use crate::workload::EncodedWorkload;
use robusthd::{BatchConfig, BatchEngine};
use std::fmt::Write as _;
use synthdata::DatasetSpec;

/// One timed point of the thread sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputRow {
    /// Worker thread count used by the batch engine.
    pub threads: usize,
    /// Raw rows encoded per second (best repeat).
    pub encode_qps: f64,
    /// Pre-encoded queries scored per second (best repeat).
    pub score_qps: f64,
    /// Raw rows served end to end (encode→score, fused) per second (best
    /// repeat).
    pub end_to_end_qps: f64,
    /// End-to-end speedup relative to the first (baseline) thread count in
    /// the sweep.
    pub speedup: f64,
}

/// The full sweep result for one dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputOutcome {
    /// Dataset name.
    pub name: String,
    /// Hypervector dimensionality.
    pub dim: usize,
    /// Queries per timed batch.
    pub queries: usize,
    /// Shard size in queries.
    pub shard_size: usize,
    /// Timed repetitions per thread count (best wins).
    pub repeats: usize,
    /// Workload seed.
    pub seed: u64,
    /// Raw rows encoded per second by the scalar reference encoder, one
    /// thread (best repeat).
    pub reference_encode_qps: f64,
    /// One row per thread count, in sweep order.
    pub rows: Vec<ThroughputRow>,
}

impl ThroughputOutcome {
    /// Hand-written JSON rendering (no serializer dependency), stable field
    /// order for diffable CI artifacts.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"dataset\": \"{}\", \"dim\": {}, \"queries\": {}, \"shard_size\": {}, \
             \"repeats\": {}, \"seed\": {}, \"bit_exact\": true, \
             \"reference_encode_qps\": {:.1}, \"sweep\": [",
            self.name,
            self.dim,
            self.queries,
            self.shard_size,
            self.repeats,
            self.seed,
            self.reference_encode_qps
        );
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"threads\": {}, \"encode_qps\": {:.1}, \"score_qps\": {:.1}, \
                 \"end_to_end_qps\": {:.1}, \"speedup\": {:.3}}}",
                row.threads, row.encode_qps, row.score_qps, row.end_to_end_qps, row.speedup
            );
        }
        out.push_str("]}");
        out
    }
}

/// Best wall-clock rate (items per second) of `f` over `repeats` runs.
fn best_rate<T>(items: usize, repeats: usize, f: impl FnMut() -> T) -> f64 {
    items as f64 / best_seconds(repeats, f)
}

/// Runs the thread sweep on one dataset, serving `queries` raw rows per
/// timed batch.
///
/// # Panics
///
/// Panics if the fast-path encoder or the engine's predictions ever diverge
/// from the sequential reference path — the sweep refuses to report
/// throughput for a non-bit-exact configuration.
pub fn run(
    spec: &DatasetSpec,
    queries: usize,
    dim: usize,
    seed: u64,
    threads: &[usize],
    shard_size: usize,
    repeats: usize,
) -> ThroughputOutcome {
    assert!(!threads.is_empty(), "thread sweep must not be empty");
    assert!(shard_size > 0 && repeats > 0, "tuning must be positive");
    let workload = EncodedWorkload::for_queries(spec, queries, dim, seed);
    let rows = workload.test_rows();

    // Cross-check 1: the fast-path encodings against the scalar reference.
    let reference = |row: &&[f64]| workload.encoder.encode_reference(row);
    for (row, encoded) in rows.iter().zip(&workload.test_encoded) {
        assert_eq!(
            reference(row),
            *encoded,
            "fast-path encoding diverges from the scalar reference"
        );
    }
    let reference_encode_qps = best_rate(rows.len(), repeats, || {
        rows.iter().map(reference).collect::<Vec<_>>()
    });

    // Cross-check 2: batched and fused predictions against the sequential
    // model path.
    let sequential: Vec<usize> = workload
        .test_encoded
        .iter()
        .map(|q| workload.model.predict(q))
        .collect();

    let mut engine = BatchEngine::from_env();
    let mut out_rows = Vec::with_capacity(threads.len());
    let mut baseline = None;
    for &t in threads {
        engine.set_config(
            BatchConfig::builder()
                .threads(t)
                .shard_size(shard_size)
                .build()
                .expect("valid batch config"),
        );
        assert_eq!(
            engine.predict_batch(&workload.model, &workload.test_encoded),
            sequential,
            "batched predictions at {t} threads diverge from the sequential path"
        );
        assert_eq!(
            engine.predict_raw_batch(&workload.encoder, &workload.model, &rows),
            sequential,
            "fused raw predictions at {t} threads diverge from the sequential path"
        );

        let encode_qps = best_rate(rows.len(), repeats, || {
            engine.encode_batch(&workload.encoder, &rows)
        });
        let score_qps = best_rate(rows.len(), repeats, || {
            engine.predict_batch(&workload.model, &workload.test_encoded)
        });
        let end_to_end_qps = best_rate(rows.len(), repeats, || {
            engine.predict_raw_batch(&workload.encoder, &workload.model, &rows)
        });
        let base = *baseline.get_or_insert(end_to_end_qps);
        out_rows.push(ThroughputRow {
            threads: t,
            encode_qps,
            score_qps,
            end_to_end_qps,
            speedup: end_to_end_qps / base,
        });
    }
    ThroughputOutcome {
        name: spec.name.to_string(),
        dim,
        queries: rows.len(),
        shard_size,
        repeats,
        seed,
        reference_encode_qps,
        rows: out_rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_produces_one_row_per_thread_count() {
        let o = run(&DatasetSpec::pecan(), 120, 2048, 3, &[1, 2], 16, 1);
        assert_eq!(o.rows.len(), 2);
        assert_eq!(o.queries, 120);
        assert!(o.reference_encode_qps > 0.0);
        assert_eq!(o.rows[0].threads, 1);
        assert!((o.rows[0].speedup - 1.0).abs() < 1e-12);
        assert!(o
            .rows
            .iter()
            .all(|r| r.encode_qps > 0.0 && r.score_qps > 0.0 && r.end_to_end_qps > 0.0));
    }

    #[test]
    fn json_rendering_is_stable() {
        let o = ThroughputOutcome {
            name: "pecan".into(),
            dim: 2048,
            queries: 10,
            shard_size: 4,
            repeats: 1,
            seed: 3,
            reference_encode_qps: 300.0,
            rows: vec![ThroughputRow {
                threads: 1,
                encode_qps: 1500.0,
                score_qps: 80000.0,
                end_to_end_qps: 1400.0,
                speedup: 1.0,
            }],
        };
        assert_eq!(
            o.to_json(),
            "{\"dataset\": \"pecan\", \"dim\": 2048, \"queries\": 10, \"shard_size\": 4, \
             \"repeats\": 1, \"seed\": 3, \"bit_exact\": true, \
             \"reference_encode_qps\": 300.0, \"sweep\": [\
             {\"threads\": 1, \"encode_qps\": 1500.0, \"score_qps\": 80000.0, \
             \"end_to_end_qps\": 1400.0, \"speedup\": 1.000}]}"
        );
    }
}
