//! Differential tests: the word-parallel recovery engine
//! ([`RecoveryEngine::observe`]) must be bit-identical to its per-bit
//! oracle ([`RecoveryEngine::observe_reference`]). Twin engines with the
//! same seed consume the same query stream against twin models; after
//! every query the model bits, the `Observation` (confidence floats to the
//! bit) and the `RecoveryStats` must agree. Any divergence in the RNG
//! stream shows up as a divergence in a later query's repair.

use hypervector::random::HypervectorSampler;
use hypervector::BinaryHypervector;
use robusthd::batch::chunk_bounds;
use robusthd::{RecoveryConfig, RecoveryEngine, SubstitutionMode, TrainedModel};

const BETA: f64 = 64.0;
const RATES: [f64; 5] = [0.0, 0.3, 0.5, 0.75, 1.0];
const DIMS: [usize; 4] = [64, 100, 2047, 2048];
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
    RecoveryConfig::builder()
        .chunks(chunks)
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
        for chunks in [1, 7, 20, dim + 3] {
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
    let (model, queries) = attacked_setup(2047, 3);
    let mut fast_model = model.clone();
    let mut reference_model = model;
    let majority = |saturation| SubstitutionMode::MajorityCounter { saturation };
    let mut fast = RecoveryEngine::new(config(0.3, majority(3), 20, true), BETA);
    let mut reference = RecoveryEngine::new(config(0.3, majority(3), 20, true), BETA);
    for (rate, chunks, saturation) in [(0.3, 20, 3), (0.75, 40, 1), (1.0, 40, 2), (0.5, 20, 3)] {
        fast.reconfigure(config(rate, majority(saturation), chunks, true));
        reference.reconfigure(config(rate, majority(saturation), chunks, true));
        for query in &queries {
            let got = fast.observe(&mut fast_model, query);
            assert_eq!(
                got,
                reference.observe_reference(&mut reference_model, query)
            );
            assert_eq!(fast.stats(), reference.stats());
            assert_eq!(fast_model, reference_model);
        }
    }
    assert!(fast.stats().bits_changed > 0);
}

#[test]
#[should_panic(expected = "outside range")]
fn a_rate_outside_the_unit_interval_still_panics() {
    let (mut model, queries) = attacked_setup(64, 1);
    let mut config = config(0.5, SubstitutionMode::Overwrite, 8, true);
    config.substitution_rate = 1.5;
    RecoveryEngine::new(config, BETA).run_stream(&mut model, &queries);
}
