//! Differential tests: the runtime recovery engine
//! ([`RecoveryEngine::observe`]: one fused pass for confidence and chunk
//! distances, vectorised vote, word-parallel substitution) must be
//! bit-identical to its per-bit oracle
//! ([`RecoveryEngine::observe_reference`]: `Confidence::evaluate`,
//! `scan_chunk_faults`, one draw and one decision per bit). Twin engines
//! with the same seed consume the same query stream against twin models;
//! after every query the model bits, the `Observation` (confidence floats
//! to the bit) and the `RecoveryStats` must agree. Any divergence in the
//! RNG stream shows up as a divergence in a later query's repair.
//!
//! The dimensions put the last chunk boundary at both edges of a word
//! (63, 65) and on one (64, 2048); the chunk counts include word-aligned
//! boundaries (32 at D = 2048) and the escalated rung (40).

use hypervector::random::HypervectorSampler;
use hypervector::BinaryHypervector;
use robusthd::batch::chunk_bounds;
use robusthd::{RecoveryConfig, RecoveryEngine, SubstitutionMode, TrainedModel};

const BETA: f64 = 64.0;
const RATES: [f64; 5] = [0.0, 0.3, 0.5, 0.75, 1.0];
const DIMS: [usize; 6] = [63, 64, 65, 100, 2047, 2048];
const MODES: [SubstitutionMode; 4] = [
    SubstitutionMode::Overwrite,
    SubstitutionMode::MajorityCounter { saturation: 1 },
    SubstitutionMode::MajorityCounter { saturation: 3 },
    SubstitutionMode::MajorityCounter { saturation: 255 },
];

/// Three correlated classes with whole chunks of two of them flipped, and
/// noisy member queries: enough faulty chunks that substitution fires.
fn attacked_setup(dim: usize, seed: u64) -> (TrainedModel, Vec<BinaryHypervector>) {
    let mut sampler = HypervectorSampler::seed_from(seed);
    let common = sampler.binary(dim);
    let protos: Vec<_> = (0..3).map(|_| sampler.flip_noise(&common, 0.3)).collect();
    let queries = (0..18)
        .map(|i| sampler.flip_noise(&protos[i % 3], 0.1))
        .collect();
    let mut model = TrainedModel::from_classes(protos);
    for (class, chunk) in [(0, 1), (1, 3), (1, 4)] {
        let (start, end) = chunk_bounds(dim, 8, chunk);
        for i in start..end {
            model.class_mut(class).flip(i);
        }
    }
    (model, queries)
}

fn config(rate: f64, mode: SubstitutionMode, chunks: usize, only: bool) -> RecoveryConfig {
    config_with_margin(rate, mode, chunks, only, 1.0)
}

fn config_with_margin(
    rate: f64,
    mode: SubstitutionMode,
    chunks: usize,
    only: bool,
    fault_margin: f64,
) -> RecoveryConfig {
    RecoveryConfig::builder()
        .chunks(chunks)
        .fault_margin(fault_margin)
        .confidence_threshold(0.0)
        .substitution_rate(rate)
        .substitution(mode)
        .faulty_chunks_only(only)
        .seed(17)
        .build()
        .expect("valid recovery config")
}

/// Runs two passes of `queries` through twin engines and asserts they
/// agree after every query. Returns the fast engine's bits changed.
fn assert_twins_agree(
    model: &TrainedModel,
    queries: &[BinaryHypervector],
    config: &RecoveryConfig,
) -> usize {
    let mut fast_model = model.clone();
    let mut reference_model = model.clone();
    let mut fast = RecoveryEngine::new(config.clone(), BETA);
    let mut reference = RecoveryEngine::new(config.clone(), BETA);
    for (i, query) in queries.iter().chain(queries).enumerate() {
        let got = fast.observe(&mut fast_model, query);
        let want = reference.observe_reference(&mut reference_model, query);
        let context = format!("query {i} under {config:?}");
        assert_eq!(got, want, "observation diverges at {context}");
        assert_eq!(
            got.confidence.confidence.to_bits(),
            want.confidence.confidence.to_bits(),
            "confidence bits diverge at {context}"
        );
        assert_eq!(
            fast.stats(),
            reference.stats(),
            "stats diverge at {context}"
        );
        assert_eq!(
            fast_model, reference_model,
            "model bits diverge at {context}"
        );
    }
    fast.stats().bits_changed
}

#[test]
fn word_parallel_recovery_matches_the_per_bit_oracle() {
    for (d, &dim) in DIMS.iter().enumerate() {
        let (model, queries) = attacked_setup(dim, 40 + d as u64);
        let mut changed = [0usize; MODES.len()];
        for chunks in [1, 7, 20, 32, 40, dim + 3] {
            for &rate in &RATES {
                for (m, mode) in MODES.into_iter().enumerate() {
                    for only in [true, false] {
                        let config = config(rate, mode, chunks, only);
                        changed[m] += assert_twins_agree(&model, &queries, &config);
                    }
                }
            }
        }
        // Saturation 255 never matures within two passes; every other mode
        // must have written bits, or the comparison proved nothing.
        assert!(
            changed[..3].iter().all(|&c| c > 0),
            "dim {dim}: a substitution mode never wrote a bit: {changed:?}"
        );
    }
}

#[test]
fn every_chunk_count_from_one_past_the_dimension_matches() {
    let dim = 100;
    let (model, queries) = attacked_setup(dim, 7);
    for chunks in 1..=dim + 5 {
        for mode in [MODES[0], MODES[2]] {
            let config = config(0.5, mode, chunks, true);
            assert_twins_agree(&model, &queries[..6], &config);
        }
    }
}

#[test]
fn reconfigured_engines_keep_agreeing() {
    // The supervisor's ladder reconfigures the engine between rounds: the
    // counters and the RNG stream carry over to the new operating point.
    // Lowering the saturation leaves counters beyond the new bound, which
    // only a vote may clamp: a counter whose draw missed keeps its value.
    // The fault margin moves too, with and without the chunk count, so a
    // split cached for the old margin would flag the wrong chunks.
    let (model, queries) = attacked_setup(2047, 3);
    let mut fast_model = model.clone();
    let mut reference_model = model;
    let majority = |saturation| SubstitutionMode::MajorityCounter { saturation };
    let mut fast = RecoveryEngine::new(config(0.3, majority(3), 20, true), BETA);
    let mut reference = RecoveryEngine::new(config(0.3, majority(3), 20, true), BETA);
    let mut faulty_by_step = Vec::new();
    for (rate, chunks, saturation, margin) in [
        (0.3, 20, 3, 0.0),
        (0.3, 20, 3, 2.5),
        (0.75, 40, 1, 1.0),
        (1.0, 40, 2, 0.25),
        (0.5, 20, 3, 1.0),
    ] {
        let step = config_with_margin(rate, majority(saturation), chunks, true, margin);
        fast.reconfigure(step.clone());
        reference.reconfigure(step);
        let before = fast.stats().chunks_faulty;
        for query in &queries {
            let got = fast.observe(&mut fast_model, query);
            assert_eq!(
                got,
                reference.observe_reference(&mut reference_model, query)
            );
            assert_eq!(fast.stats(), reference.stats());
            assert_eq!(fast_model, reference_model);
        }
        faulty_by_step.push(fast.stats().chunks_faulty - before);
    }
    assert!(fast.stats().bits_changed > 0);
    // The first two steps differ only in the margin; it must have changed
    // the decisions, or a stale margin would pass unnoticed.
    assert!(
        faulty_by_step[0] > faulty_by_step[1],
        "fault counts did not move with the margin: {faulty_by_step:?}"
    );
}

#[test]
fn one_engine_alternating_between_dimensions_matches() {
    // The cached split is keyed on the dimension: an engine that serves
    // models of two dimensions in turn must re-split on every switch. The
    // first pair shares a word count, so a stale split would read the
    // right words at the wrong bounds.
    for (small, large) in [(100, 127), (65, 2048)] {
        let (small_model, small_queries) = attacked_setup(small, 21);
        let (large_model, large_queries) = attacked_setup(large, 22);
        let mut fast_models = [small_model.clone(), large_model.clone()];
        let mut reference_models = [small_model, large_model];
        let streams = [small_queries, large_queries];
        let config = config(0.5, SubstitutionMode::Overwrite, 20, true);
        let mut fast = RecoveryEngine::new(config.clone(), BETA);
        let mut reference = RecoveryEngine::new(config, BETA);
        for i in 0..streams[0].len().min(streams[1].len()) {
            for which in [0, 1, 1, 0] {
                let query = &streams[which][i];
                let got = fast.observe(&mut fast_models[which], query);
                let want = reference.observe_reference(&mut reference_models[which], query);
                let context = format!("query {i} of model {which} ({small} / {large})");
                assert_eq!(got, want, "observation diverges at {context}");
                assert_eq!(
                    fast.stats(),
                    reference.stats(),
                    "stats diverge at {context}"
                );
                assert_eq!(fast_models, reference_models, "models diverge at {context}");
            }
        }
        assert!(
            fast.stats().bits_changed > 0,
            "{small} / {large} never repaired"
        );
    }
}

#[test]
#[should_panic(expected = "outside range")]
fn a_rate_outside_the_unit_interval_still_panics() {
    let (mut model, queries) = attacked_setup(64, 1);
    let mut config = config(0.5, SubstitutionMode::Overwrite, 8, true);
    config.substitution_rate = 1.5;
    RecoveryEngine::new(config, BETA).run_stream(&mut model, &queries);
}
