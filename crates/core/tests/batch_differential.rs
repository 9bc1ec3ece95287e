//! Differential tests: the parallel batch engine must be bit-identical to
//! the sequential inference path for every thread count and batch size, on
//! every model state a deployment can reach — clean, attacked,
//! mid-recovery, and with classes under active quarantine.

use faultsim::Attacker;
use hypervector::random::HypervectorSampler;
use hypervector::BinaryHypervector;
use robusthd::batch::predicted_margin;
use robusthd::supervisor::ResilienceSupervisor;
use robusthd::{
    BatchConfig, BatchEngine, Confidence, HdcConfig, RecoveryConfig, RecoveryEngine,
    SubstitutionMode, SupervisorConfig, TrainedModel,
};

const DIM: usize = 2048;
const BETA: f64 = 128.0;

/// Synthetic deployment: class prototypes plus noisy queries drawn around
/// them, so predictions exercise real (non-degenerate) margins.
fn setup(seed: u64, classes: usize, queries: usize) -> (TrainedModel, Vec<BinaryHypervector>) {
    let mut sampler = HypervectorSampler::seed_from(seed);
    let protos: Vec<_> = (0..classes).map(|_| sampler.binary(DIM)).collect();
    let queries = (0..queries)
        .map(|i| sampler.flip_noise(&protos[i % classes], 0.25))
        .collect();
    (TrainedModel::from_classes(protos), queries)
}

fn engine(threads: usize, shard_size: usize) -> BatchEngine {
    let mut engine = BatchEngine::from_env();
    engine.set_config(
        BatchConfig::builder()
            .threads(threads)
            .shard_size(shard_size)
            .build()
            .expect("valid tuning"),
    );
    engine
}

fn attack(model: &TrainedModel, rate: f64, seed: u64) -> TrainedModel {
    let mut image = model.to_memory_image();
    let bits = image.len();
    Attacker::seed_from(seed).random_flips(image.words_mut(), bits, rate);
    image.mask_tail();
    let mut attacked = model.clone();
    attacked.load_memory_image(&image);
    attacked
}

/// Asserts the engine output is bit-identical to the sequential path on
/// this exact model state: same predictions, and `f64::to_bits`-equal
/// confidence, margin, and per-class probabilities.
fn assert_bit_identical(model: &TrainedModel, queries: &[BinaryHypervector], engine: &BatchEngine) {
    let sequential_predictions: Vec<usize> = queries.iter().map(|q| model.predict(q)).collect();
    assert_eq!(
        engine.predict_batch(model, queries),
        sequential_predictions,
        "predictions diverge"
    );
    let scores = engine.evaluate_batch(model, queries, BETA);
    assert_eq!(scores.len(), queries.len());
    for (score, query) in scores.iter().zip(queries) {
        let reference = Confidence::evaluate(model, query, BETA);
        assert_eq!(score.confidence.label, reference.label, "label diverges");
        assert_eq!(
            score.confidence.confidence.to_bits(),
            reference.confidence.to_bits(),
            "confidence not bit-identical"
        );
        assert_eq!(
            score.confidence.margin.to_bits(),
            reference.margin.to_bits(),
            "margin not bit-identical"
        );
        assert_eq!(
            score.confidence.probabilities.len(),
            reference.probabilities.len()
        );
        for (got, want) in score
            .confidence
            .probabilities
            .iter()
            .zip(&reference.probabilities)
        {
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "probability not bit-identical"
            );
        }
    }
}

#[test]
fn clean_models_are_bit_identical_across_the_tuning_grid() {
    for seed in [1u64, 42, 977] {
        for &batch in &[1usize, 7, 33, 96] {
            let (model, queries) = setup(seed, 5, batch);
            for &threads in &[1usize, 2, 4, 8] {
                assert_bit_identical(&model, &queries, &engine(threads, 13));
            }
        }
    }
}

#[test]
fn attacked_models_are_bit_identical_at_every_thread_count() {
    let (clean, queries) = setup(7, 6, 64);
    for &rate in &[0.05f64, 0.2, 0.45] {
        let attacked = attack(&clean, rate, 0xBAD ^ rate.to_bits());
        for &threads in &[1usize, 2, 4, 8] {
            assert_bit_identical(&attacked, &queries, &engine(threads, 8));
        }
    }
}

#[test]
fn mid_recovery_model_states_are_bit_identical() {
    let (clean, queries) = setup(13, 4, 48);
    let mut model = attack(&clean, 0.3, 0x5EED);
    let config = RecoveryConfig::builder()
        .confidence_threshold(0.3)
        .substitution_rate(0.5)
        .substitution(SubstitutionMode::MajorityCounter { saturation: 3 })
        .seed(99)
        .build()
        .expect("valid recovery config");
    let mut recovery = RecoveryEngine::new(config, BETA);
    // Interleave repair work with differential checks so the engine is
    // exercised against genuinely half-repaired models, not just the
    // endpoints.
    for round in 0..6 {
        for query in queries.iter().skip(round).step_by(3) {
            recovery.observe(&mut model, query);
        }
        for &threads in &[1usize, 4, 8] {
            assert_bit_identical(&model, &queries, &engine(threads, 7));
        }
    }
}

/// Builds a calibrated supervisor over the given thread count; everything
/// except the batch tuning is identical across calls.
fn supervised_deployment(
    threads: usize,
    model: &TrainedModel,
    canaries: &[BinaryHypervector],
) -> ResilienceSupervisor {
    let hdc = HdcConfig::builder()
        .dimension(DIM)
        .seed(5)
        .build()
        .expect("valid");
    let base = RecoveryConfig::builder()
        .confidence_threshold(0.45)
        .substitution_rate(0.5)
        .substitution(SubstitutionMode::MajorityCounter { saturation: 3 })
        .seed(21)
        .build()
        .expect("valid");
    let policy = SupervisorConfig::builder()
        .window(32)
        .sensitivity(0.9)
        .quarantine_min_chunks(1)
        .quarantine_fault_ceiling(0.01)
        .build()
        .expect("valid");
    let mut supervisor = ResilienceSupervisor::new(&hdc, base, policy, 0);
    supervisor.set_batch_config(
        BatchConfig::builder()
            .threads(threads)
            .shard_size(9)
            .build()
            .expect("valid"),
    );
    supervisor.calibrate(model, canaries);
    supervisor
}

#[test]
fn supervised_serving_is_bit_identical_including_under_quarantine() {
    let (clean, all_queries) = setup(31, 4, 128);
    let (canaries, served) = all_queries.split_at(64);

    let mut reports_by_threads = Vec::new();
    let mut quarantine_seen = false;
    for &threads in &[1usize, 4] {
        let mut supervisor = supervised_deployment(threads, &clean, canaries);
        let mut model = clean.clone();
        let mut reports = Vec::new();
        for step in 0..4 {
            // Corrupt between batches: diffuse background flips plus a
            // concentrated burst on class 0's leading chunks, so the loop
            // walks through degraded verdicts, repair, and active per-class
            // quarantine — the full state space the engine serves under.
            if step > 0 {
                model = attack(&model, 0.05, 0xC0DE + step as u64);
                let mut image = model.to_memory_image();
                for word in image.words_mut()[..6].iter_mut() {
                    *word = !*word;
                }
                image.mask_tail();
                model.load_memory_image(&image);
            }
            let report = supervisor.serve_batch(&mut model, served);
            quarantine_seen |= !report.quarantined.is_empty();
            reports.push(report);
        }
        reports_by_threads.push(reports);
    }
    assert_eq!(
        reports_by_threads[0], reports_by_threads[1],
        "supervised serving diverges between 1 and 4 threads"
    );
    assert!(
        quarantine_seen,
        "scenario never quarantined a class; differential coverage is incomplete"
    );
}

/// The canary probe's `(predicted, margin)` — `predicted_margin` over the
/// class distances, the distances from the sharded `row_distances` — must
/// equal `(predicted, confidence.margin)` of the full scoring pass to the
/// bit.
fn assert_probe_matches_scores(model: &TrainedModel, queries: &[BinaryHypervector], context: &str) {
    let want: Vec<(usize, u64)> = engine(1, 1)
        .evaluate_batch(model, queries, BETA)
        .iter()
        .map(|s| (s.predicted, s.confidence.margin.to_bits()))
        .collect();
    let packed = model.packed();
    let width = packed.words_per_class();
    let rows: Vec<&[u64]> = (0..packed.num_classes())
        .map(|c| &packed.words()[c * width..(c + 1) * width])
        .collect();
    for &threads in &[1usize, 2, 8] {
        let distances = engine(threads, 3).row_distances(&rows, queries);
        let got: Vec<(usize, u64)> = distances
            .chunks_exact(rows.len())
            .map(|d| {
                let (predicted, margin) = predicted_margin(d, model.dim());
                (predicted, margin.to_bits())
            })
            .collect();
        assert_eq!(got, want, "{context}, {threads} threads");
    }
}

#[test]
fn canary_probe_matches_full_scores_on_clean_and_attacked_models() {
    let (clean, queries) = setup(21, 12, 70);
    assert_probe_matches_scores(&clean, &queries, "clean");
    let attacked = attack(&clean, 0.3, 0xC0FE);
    assert_probe_matches_scores(&attacked, &queries, "attacked");
    let single = TrainedModel::from_classes(vec![clean.class(0).clone()]);
    assert_probe_matches_scores(&single, &queries, "single class");
}

#[test]
fn canary_probe_matches_full_scores_on_tie_heavy_small_models() {
    // At a handful of dimensions most queries sit at equal distance from
    // several classes, so argmin tie-breaks and zero margins dominate.
    let mut sampler = HypervectorSampler::seed_from(23);
    for dim in [0usize, 1, 2, 3, 5, 8] {
        for classes in [1usize, 2, 3, 6] {
            let model =
                TrainedModel::from_classes((0..classes).map(|_| sampler.binary(dim)).collect());
            let mut queries: Vec<_> = (0..40).map(|_| sampler.binary(dim)).collect();
            queries.extend((0..classes).map(|c| model.class(c).clone()));
            assert_probe_matches_scores(&model, &queries, &format!("dim {dim}, {classes} classes"));
        }
    }
}
