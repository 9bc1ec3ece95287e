//! Differential tests: the incremental canary probe
//! (`ResilienceSupervisor::canary_probe`), which re-scores only the classes
//! whose words changed since its last run, must give exactly what the full
//! re-score (`ResilienceSupervisor::canary_probe_reference`) gives — each
//! canary's predicted class and margin down to `f64::to_bits`, and the
//! `(verdict, canary_alarm)` pair — after every kind of change a deployment
//! can make to the model between two probes, at every tail-word shape and
//! at one and several worker threads.

use hypervector::random::HypervectorSampler;
use hypervector::BinaryHypervector;
use rand::Rng;
use robusthd::diagnostics::HealthVerdict;
use robusthd::persist;
use robusthd::supervisor::ResilienceSupervisor;
use robusthd::{
    BatchConfig, BatchEngine, HdcConfig, RecoveryConfig, SupervisorConfig, TrainedModel,
};

const CLASSES: usize = 6;
const CANARIES: usize = 48;
/// Dimensions around the word boundary plus the serving shape.
const DIMS: [usize; 5] = [63, 64, 65, 1000, 2048];
const THREADS: [usize; 2] = [1, 4];

/// A trained deployment and a disjoint canary set drawn around the same
/// prototypes.
fn deployment(dim: usize, seed: u64) -> (TrainedModel, Vec<BinaryHypervector>, HdcConfig) {
    let mut sampler = HypervectorSampler::seed_from(seed);
    let protos: Vec<_> = (0..CLASSES).map(|_| sampler.binary(dim)).collect();
    let train: Vec<_> = (0..120)
        .map(|i| sampler.flip_noise(&protos[i % CLASSES], 0.2))
        .collect();
    let labels: Vec<_> = (0..120).map(|i| i % CLASSES).collect();
    let canaries = (0..CANARIES)
        .map(|i| sampler.flip_noise(&protos[i % CLASSES], 0.2))
        .collect();
    let config = HdcConfig::builder()
        .dimension(dim)
        .seed(seed)
        .build()
        .expect("valid config");
    let model = TrainedModel::train(&train, &labels, CLASSES, &config);
    (model, canaries, config)
}

fn supervisor(config: &HdcConfig, threads: usize) -> ResilienceSupervisor {
    let policy = SupervisorConfig::builder()
        .window(32)
        .sensitivity(0.6)
        .build()
        .expect("valid policy");
    let mut sup = ResilienceSupervisor::new(config, RecoveryConfig::default(), policy, 0);
    // Small shards so the re-score really fans out at 4 threads.
    sup.set_batch_config(
        BatchConfig::builder()
            .threads(threads)
            .shard_size(5)
            .build()
            .expect("valid tuning"),
    );
    sup
}

fn bits(scores: &[(usize, f64)]) -> Vec<(usize, u64)> {
    scores.iter().map(|&(p, m)| (p, m.to_bits())).collect()
}

/// Probes incrementally and against the oracle; both must agree bit for
/// bit. Returns the verdict and the classes this probe re-scored.
fn assert_probe_matches(
    sup: &mut ResilienceSupervisor,
    model: &TrainedModel,
    context: &str,
) -> ((HealthVerdict, bool), usize) {
    let before = sup.probe_rescored_classes();
    let fast = sup.canary_probe(model);
    let rescored = sup.probe_rescored_classes() - before;
    let (scores, reference) = sup.canary_probe_reference(model);
    assert_eq!(fast, reference, "verdict diverges: {context}");
    assert_eq!(
        bits(&sup.canary_scores()),
        bits(&scores),
        "canary scores diverge: {context}"
    );
    (fast, rescored)
}

fn flip_random(
    model: &mut TrainedModel,
    class: usize,
    count: usize,
    sampler: &mut HypervectorSampler,
) {
    let dim = model.dim();
    for _ in 0..count {
        let bit = sampler.rng_mut().random_range(0..dim);
        model.class_mut(class).flip(bit);
    }
}

#[test]
fn incremental_probe_matches_the_full_rescore_after_every_change() {
    for dim in DIMS {
        for threads in THREADS {
            let ctx = |what: &str| format!("{what}, D = {dim}, {threads} threads");
            let (mut model, canaries, config) = deployment(dim, 11);
            let mut sup = supervisor(&config, threads);
            sup.calibrate(&model, &canaries);
            let mut sampler = HypervectorSampler::seed_from(dim as u64 * 7 + threads as u64);

            let (verdict, rescored) = assert_probe_matches(&mut sup, &model, &ctx("first"));
            assert_eq!(verdict, (HealthVerdict::Healthy, false), "{}", ctx("clean"));
            assert_eq!(rescored, CLASSES, "{}", ctx("first probe scores all"));
            let (_, rescored) = assert_probe_matches(&mut sup, &model, &ctx("unchanged"));
            assert_eq!(rescored, 0, "{}", ctx("unchanged model"));

            flip_random(&mut model, 2, dim / 10 + 1, &mut sampler);
            let (_, rescored) = assert_probe_matches(&mut sup, &model, &ctx("one class"));
            assert_eq!(rescored, 1, "{}", ctx("flips in one class"));

            for class in 0..CLASSES {
                flip_random(&mut model, class, dim / 20 + 1, &mut sampler);
            }
            assert_probe_matches(&mut sup, &model, &ctx("all classes"));

            // The last bit of the last word: the tail word at D = 63/65.
            model.class_mut(4).flip(dim - 1);
            model.class_mut(4).flip(dim - 1);
            let (_, rescored) = assert_probe_matches(&mut sup, &model, &ctx("flip undone"));
            assert_eq!(rescored, 0, "{}", ctx("a flip and its undo"));
            model.class_mut(4).flip(dim - 1);
            let (_, rescored) = assert_probe_matches(&mut sup, &model, &ctx("tail bit"));
            assert_eq!(rescored, 1, "{}", ctx("tail bit"));

            // Heavy damage degrades the canaries; the unchanged re-probe
            // must return the cached degraded verdict.
            for class in 0..CLASSES {
                flip_random(&mut model, class, dim, &mut sampler);
            }
            let (verdict, _) = assert_probe_matches(&mut sup, &model, &ctx("heavy damage"));
            assert_eq!(
                verdict,
                (HealthVerdict::Degraded, true),
                "{}",
                ctx("damage")
            );
            let (verdict, rescored) = assert_probe_matches(&mut sup, &model, &ctx("cached"));
            assert_eq!(
                (verdict, rescored),
                ((HealthVerdict::Degraded, true), 0),
                "{}",
                ctx("cached degraded verdict")
            );

            let checkpoint = sup.checkpoint_bytes().expect("calibration checkpoints");
            model = persist::load_model(checkpoint)
                .expect("valid checkpoint")
                .model;
            let (verdict, _) = assert_probe_matches(&mut sup, &model, &ctx("rollback"));
            assert_eq!(
                verdict,
                (HealthVerdict::Healthy, false),
                "{}",
                ctx("restored")
            );

            let (other, _, _) = deployment(dim, 12);
            assert_probe_matches(&mut sup, &other, &ctx("another model"));
            assert_probe_matches(&mut sup, &model, &ctx("back to the first model"));
        }
    }
}

#[test]
fn incremental_probe_matches_through_the_closed_loop() {
    // The supervisor's own repairs, checkpoints and rollbacks change the
    // model between probes too; each served batch probes internally, and
    // an explicit probe afterwards must still equal the oracle.
    for dim in [65, 2048] {
        for threads in THREADS {
            let (mut model, canaries, config) = deployment(dim, 21);
            let mut sup = supervisor(&config, threads);
            sup.calibrate(&model, &canaries);
            let traffic = deployment(dim, 21).1;
            let mut sampler = HypervectorSampler::seed_from(5);
            let mut rolled_back = false;
            for step in 0..12 {
                let damage = if step == 4 { dim / 2 } else { dim / 40 };
                for class in 0..CLASSES {
                    flip_random(&mut model, class, damage, &mut sampler);
                }
                let report = sup.serve_batch(&mut model, &traffic);
                rolled_back |= report.rolled_back;
                let context = format!("step {step}, D = {dim}, {threads} threads");
                assert_probe_matches(&mut sup, &model, &context);
            }
            assert!(
                sup.escalations() > 0,
                "the loop never escalated at D = {dim}"
            );
            assert!(rolled_back, "the loop never rolled back at D = {dim}");
        }
    }
}

#[test]
fn reference_probe_matches_the_full_scoring_pass() {
    let (model, canaries, config) = deployment(2048, 31);
    let mut sup = supervisor(&config, 1);
    sup.calibrate(&model, &canaries);
    let want: Vec<(usize, u64)> = BatchEngine::from_env()
        .evaluate_batch(&model, &canaries, config.softmax_beta)
        .iter()
        .map(|s| (s.predicted, s.confidence.margin.to_bits()))
        .collect();
    assert_eq!(bits(&sup.canary_probe_reference(&model).0), want);
}
