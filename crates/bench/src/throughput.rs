//! Extension — serving throughput of the parallel [`BatchEngine`] across
//! thread counts, split into the three phases that actually compose the
//! serving path:
//!
//! * **encode** — raw feature rows → binary hypervectors
//!   ([`BatchEngine::encode_batch`], fused bind+bundle carry-save fast path);
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
//!
//! One more layer sits beside the sweep: the **repair** rate of the
//! recovery engine, in trusted-query observations per second of
//! [`RecoveryEngine::observe`] (`repair_qps`) and of its per-bit oracle
//! [`RecoveryEngine::observe_reference`] (`reference_repair_qps`), on the
//! run's model with [`REPAIR_ATTACK_RATE`] of its bits flipped, at the
//! operating point of perfbench's `recovery_soak` (`m` = 20, `S` = 0.5,
//! majority saturation 3, `T_C` = 0.45). Twin engines first run the same
//! stream through both and must agree to the bit. The two paths are then
//! timed interleaved, one pass of each per round, and each rate is the
//! median over the rounds: one pass takes only ~10 ms at 1000 queries, and
//! best-of-N blocks timed one after the other drifted with host load.

use crate::attack::attack_hdc;
use crate::timing::best_seconds;
use crate::workload::EncodedWorkload;
use hypervector::BinaryHypervector;
use robusthd::{
    BatchConfig, BatchEngine, RecoveryConfig, RecoveryEngine, SubstitutionMode, TrainedModel,
};
use std::fmt::Write as _;
use std::time::Instant;
use synthdata::DatasetSpec;

/// Share of the model's stored bits flipped before the repair rates are
/// timed: the peak diffuse corruption of perfbench's `recovery_soak`.
pub const REPAIR_ATTACK_RATE: f64 = 0.08;

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
    /// Trusted-query observations per second of
    /// [`RecoveryEngine::observe`] on the attacked model (median round).
    pub repair_qps: f64,
    /// The same rate for [`RecoveryEngine::observe_reference`], timed in
    /// the same rounds.
    pub reference_repair_qps: f64,
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
             \"reference_encode_qps\": {:.1}, \"repair_qps\": {:.1}, \
             \"reference_repair_qps\": {:.1}, \"sweep\": [",
            self.name,
            self.dim,
            self.queries,
            self.shard_size,
            self.repeats,
            self.seed,
            self.reference_encode_qps,
            self.repair_qps,
            self.reference_repair_qps
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

/// The recovery operating point of perfbench's `recovery_soak` (its
/// ladder's first rung).
fn repair_config(seed: u64) -> RecoveryConfig {
    RecoveryConfig::builder()
        .chunks(20)
        .substitution_rate(0.5)
        .substitution(SubstitutionMode::MajorityCounter { saturation: 3 })
        .confidence_threshold(0.45)
        .seed(seed)
        .build()
        .expect("valid recovery config")
}

/// Runs `queries` through twin engines and twin copies of `model`, one by
/// [`RecoveryEngine::observe`] and one by its per-bit oracle, and asserts
/// that every observation, the statistics and the model bits agree.
fn assert_repair_bit_exact(
    model: &TrainedModel,
    queries: &[BinaryHypervector],
    config: &RecoveryConfig,
    beta: f64,
) {
    let (mut fast_model, mut reference_model) = (model.clone(), model.clone());
    let mut fast = RecoveryEngine::new(config.clone(), beta);
    let mut reference = RecoveryEngine::new(config.clone(), beta);
    for (i, query) in queries.iter().enumerate() {
        let got = fast.observe(&mut fast_model, query);
        let want = reference.observe_reference(&mut reference_model, query);
        assert!(
            got == want
                && got.confidence.confidence.to_bits() == want.confidence.confidence.to_bits(),
            "repair observation {i} diverges from the per-bit oracle"
        );
    }
    assert_eq!(fast.stats(), reference.stats(), "repair statistics diverge");
    assert!(fast_model == reference_model, "repaired model bits diverge");
}

/// Trusted-query observations per second of [`RecoveryEngine::observe`]
/// and of [`RecoveryEngine::observe_reference`] over `queries`, as the
/// median of `rounds` per-round rates (the upper middle for an even
/// count). Every round times one pass of each, back to back, and the path
/// that goes first alternates between rounds, so both medians are drawn
/// from the same span of wall time. Every pass starts from a copy of
/// `model` and a fresh engine, made outside the timed span.
fn repair_rates(
    model: &TrainedModel,
    queries: &[BinaryHypervector],
    config: &RecoveryConfig,
    beta: f64,
    rounds: usize,
) -> (f64, f64) {
    let pass = |oracle: bool| {
        let mut model = model.clone();
        let mut engine = RecoveryEngine::new(config.clone(), beta);
        let start = Instant::now();
        for query in queries {
            if oracle {
                engine.observe_reference(&mut model, query);
            } else {
                engine.observe(&mut model, query);
            }
        }
        engine.stats().samples_trusted as f64 / start.elapsed().as_secs_f64()
    };
    let (mut fast, mut oracle) = (Vec::with_capacity(rounds), Vec::with_capacity(rounds));
    for round in 0..rounds {
        if round % 2 == 0 {
            fast.push(pass(false));
            oracle.push(pass(true));
        } else {
            oracle.push(pass(true));
            fast.push(pass(false));
        }
    }
    let median = |rates: &mut Vec<f64>| {
        rates.sort_by(f64::total_cmp);
        rates[rates.len() / 2]
    };
    (median(&mut fast), median(&mut oracle))
}

/// Runs the thread sweep on one dataset, serving `queries` raw rows per
/// timed batch, and times the repair rates on the same model and queries.
///
/// # Panics
///
/// Panics if the fast-path encoder, the engine's predictions or the
/// recovery engine ever diverge from their reference paths — the sweep
/// refuses to report throughput for a non-bit-exact configuration.
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

    // Cross-check 3: the recovery engine against its per-bit oracle, on
    // the attacked model the repair rates are timed on.
    let attacked = attack_hdc(&workload.model, REPAIR_ATTACK_RATE, seed);
    let repair = repair_config(seed);
    let beta = workload.config.softmax_beta;
    let stream = &workload.test_encoded;
    assert_repair_bit_exact(&attacked, stream, &repair, beta);
    let (repair_qps, reference_repair_qps) =
        repair_rates(&attacked, stream, &repair, beta, repeats);

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
        repair_qps,
        reference_repair_qps,
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
        assert!(o.repair_qps > 0.0 && o.reference_repair_qps > 0.0);
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
            repair_qps: 70000.0,
            reference_repair_qps: 9000.0,
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
             \"reference_encode_qps\": 300.0, \"repair_qps\": 70000.0, \
             \"reference_repair_qps\": 9000.0, \"sweep\": [\
             {\"threads\": 1, \"encode_qps\": 1500.0, \"score_qps\": 80000.0, \
             \"end_to_end_qps\": 1400.0, \"speedup\": 1.000}]}"
        );
    }
}
