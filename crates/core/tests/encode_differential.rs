//! Differential suite for the encoding fast path: the fused bind+bundle
//! carry-save majority kernel must reproduce the scalar reference encoder
//! (`RecordEncoder::encode_reference`) bit for bit — through encodings,
//! trained models, fused batch serving (down to `f64::to_bits` on every
//! confidence), and the resilience supervisor's raw-serving loop — across
//! thread counts and non-multiple-of-64 dimensions. A golden hash pins the
//! record encodings to their recorded bits.

use robusthd::supervisor::ResilienceSupervisor;
use robusthd::{
    BatchConfig, BatchEngine, Encoder, HdcConfig, RecordEncoder, RecoveryConfig, SubstitutionMode,
    SupervisorConfig, TrainedModel,
};

/// Deterministic pseudo-random feature rows in `[0, 1]`, including exact
/// 0.0/1.0 extremes and out-of-range values (which must clamp).
fn feature_rows(count: usize, features: usize, salt: u64) -> Vec<Vec<f64>> {
    (0..count)
        .map(|i| {
            (0..features)
                .map(|k| {
                    let mix = (i as u64)
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        .wrapping_add(k as u64)
                        .wrapping_mul(salt | 1);
                    match mix % 11 {
                        0 => 0.0,
                        1 => 1.0,
                        2 => -0.25,
                        3 => 1.75,
                        _ => (mix % 1000) as f64 / 999.0,
                    }
                })
                .collect()
        })
        .collect()
}

fn config(dim: usize, seed: u64) -> HdcConfig {
    HdcConfig::builder()
        .dimension(dim)
        .seed(seed)
        .build()
        .expect("valid")
}

/// The encoder under both level chains: the default locally correlated
/// one and the linear (thermometer) one the ablation uses.
fn encoders(dim: usize, features: usize, seed: u64) -> [RecordEncoder; 2] {
    let cfg = config(dim, seed);
    [
        RecordEncoder::new(&cfg, features),
        RecordEncoder::with_linear_levels(&cfg, features),
    ]
}

fn assert_encodings_agree(encoder: &RecordEncoder, row: &[f64], context: &str) {
    assert_eq!(
        encoder.encode(row),
        encoder.encode_reference(row),
        "{context} row={row:?}"
    );
}

fn engine(threads: usize) -> BatchEngine {
    BatchEngine::new(
        BatchConfig::builder()
            .threads(threads)
            .shard_size(7)
            .build()
            .expect("valid"),
    )
}

#[test]
fn encodings_agree_across_dims_and_feature_counts() {
    // Dimensions straddle word boundaries; feature counts cross every
    // carry-save plane-growth boundary and include even counts (tie
    // cases in the majority threshold).
    for &dim in &[63usize, 64, 65, 1000, 2113] {
        for &features in &[1usize, 2, 4, 5, 64, 129] {
            for (chain, encoder) in encoders(dim, features, 42).iter().enumerate() {
                for row in feature_rows(8, features, dim as u64) {
                    let context = format!("dim={dim} features={features} chain={chain}");
                    assert_encodings_agree(encoder, &row, &context);
                }
            }
        }
    }
}

#[test]
fn tie_heavy_even_feature_counts_agree() {
    // With an even number of bundled pairs, exact ties occur and resolve
    // by index parity — the hardest contract for the word-parallel
    // threshold. Constant rows maximize repeated level vectors.
    for &features in &[2usize, 4, 6, 64, 256] {
        let encoder = RecordEncoder::new(&config(193, 7), features);
        for value in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let row = vec![value; features];
            assert_encodings_agree(&encoder, &row, &format!("features={features}"));
        }
    }
}

#[test]
fn fused_serving_is_float_identical_across_threads() {
    let dim = 1000; // deliberately not a multiple of 64
    let features = 13;
    let cfg = config(dim, 3);
    let encoder = RecordEncoder::new(&cfg, features);
    let rows = feature_rows(150, features, 9);
    let row_refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();

    let reference_encoded: Vec<_> = row_refs
        .iter()
        .map(|r| encoder.encode_reference(r))
        .collect();
    let labels: Vec<usize> = (0..rows.len()).map(|i| i % 4).collect();
    let model = TrainedModel::train(&reference_encoded, &labels, 4, &cfg);
    let beta = cfg.softmax_beta;

    let baseline = engine(1).evaluate_batch(&model, &reference_encoded, beta);
    for threads in [1usize, 4] {
        let batch = engine(threads);
        for scores in [
            batch.evaluate_raw_batch(&encoder, &model, &row_refs, beta),
            batch.evaluate_batch(&model, &reference_encoded, beta),
        ] {
            assert_eq!(scores.len(), baseline.len());
            for (score, reference_score) in scores.iter().zip(&baseline) {
                assert_eq!(score.predicted, reference_score.predicted);
                assert_eq!(
                    score.confidence.confidence.to_bits(),
                    reference_score.confidence.confidence.to_bits(),
                    "threads={threads}"
                );
                assert_eq!(
                    score.confidence.margin.to_bits(),
                    reference_score.confidence.margin.to_bits(),
                    "threads={threads}"
                );
                for (p, q) in score
                    .confidence
                    .probabilities
                    .iter()
                    .zip(&reference_score.confidence.probabilities)
                {
                    assert_eq!(p.to_bits(), q.to_bits(), "threads={threads}");
                }
            }
        }
    }
}

#[test]
fn trained_models_are_identical_whichever_path_encoded_them() {
    let cfg = config(1000, 11);
    let encoder = RecordEncoder::new(&cfg, 9);
    let rows = feature_rows(120, 9, 13);
    let row_refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
    let labels: Vec<usize> = (0..rows.len()).map(|i| i % 3).collect();
    let reference_encoded: Vec<_> = row_refs
        .iter()
        .map(|r| encoder.encode_reference(r))
        .collect();
    let from_reference = TrainedModel::train(&reference_encoded, &labels, 3, &cfg);

    for threads in [1usize, 4] {
        let from_fast = TrainedModel::train(
            &engine(threads).encode_batch(&encoder, &row_refs),
            &labels,
            3,
            &cfg,
        );
        assert_eq!(
            from_fast.to_memory_image().words(),
            from_reference.to_memory_image().words(),
            "threads={threads}"
        );
    }
}

fn supervisor_for(cfg: &HdcConfig) -> ResilienceSupervisor {
    let base = RecoveryConfig::builder()
        .confidence_threshold(0.45)
        .substitution_rate(0.5)
        .substitution(SubstitutionMode::MajorityCounter { saturation: 3 })
        .seed(1)
        .build()
        .expect("valid");
    let policy = SupervisorConfig::builder()
        .window(30)
        .sensitivity(0.6)
        .build()
        .expect("valid");
    ResilienceSupervisor::new(cfg, base, policy, 0)
}

#[test]
fn supervisor_raw_serving_matches_encoded_serving() {
    let dim = 1000;
    let features = 10;
    let cfg = config(dim, 21);
    let encoder = RecordEncoder::new(&cfg, features);
    let rows = feature_rows(90, features, 17);
    let row_refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
    let encoded = encoder.encode_batch_refs(&row_refs);
    let labels: Vec<usize> = (0..rows.len()).map(|i| i % 3).collect();
    let clean = TrainedModel::train(&encoded, &labels, 3, &cfg);

    // Two identical supervisors serve the same traffic — one pre-encoded,
    // one raw — through healthy batches and a degraded episode (class 1
    // vector corrupted so the lazy encode in the raw path actually runs).
    let mut model_a = clean.clone();
    let mut model_b = clean.clone();
    let mut sup_a = supervisor_for(&cfg);
    let mut sup_b = supervisor_for(&cfg);
    sup_a.calibrate(&model_a, &encoded);
    sup_b.calibrate(&model_b, &encoded);

    let mut saw_degraded = false;
    for round in 0..4 {
        if round == 2 {
            for i in (0..dim).step_by(2) {
                model_a.class_mut(1).flip(i);
                model_b.class_mut(1).flip(i);
            }
        }
        let report_a = sup_a.serve_batch(&mut model_a, &encoded);
        let report_b = sup_b.serve_raw_batch(&encoder, &mut model_b, &row_refs);
        saw_degraded |= report_a.verdict == robusthd::diagnostics::HealthVerdict::Degraded;
        assert_eq!(report_a, report_b, "round {round}");
        assert_eq!(
            model_a.to_memory_image().words(),
            model_b.to_memory_image().words(),
            "round {round}: models diverged after serving"
        );
    }
    assert!(
        saw_degraded,
        "corruption never tripped the monitor — the raw path's lazy encode went unexercised"
    );
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Golden encodings: the record encoder under both level chains, at
/// dimensions straddling the word and the 8-word block boundaries, must
/// reproduce the recorded output bits. The differential tests pin the fast
/// encoder to its oracle; this constant pins the oracle itself, so a change
/// that moves both together still fails here. Regenerate it only for a
/// change that is meant to alter encodings, and say so.
#[test]
fn encoder_outputs_match_the_golden_hash() {
    let mut words: Vec<u64> = Vec::new();
    for &dim in &[63usize, 64, 65, 511, 512, 513, 1000] {
        for &features in &[1usize, 2, 5, 64] {
            for encoder in encoders(dim, features, 5) {
                for row in feature_rows(6, features, dim as u64 ^ 0x51) {
                    words.extend_from_slice(encoder.encode(&row).bits().words());
                }
            }
        }
    }
    let hash = fnv1a(words.iter().flat_map(|w| w.to_le_bytes()));
    assert_eq!(hash, GOLDEN_ENCODER_HASH);
}

const GOLDEN_ENCODER_HASH: u64 = 3_593_072_394_849_749_423;
