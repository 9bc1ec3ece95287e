//! Chaos soak of the closed-loop resilience supervisor: a deterministic
//! attack campaign accumulates corruption (with a catastrophic concentrated
//! burst in the middle) while the supervisor monitors, repairs, escalates,
//! checkpoints, and rolls back. The run must hold serving accuracy within
//! five points of the clean baseline even though the cumulative injected
//! corruption exceeds 10% of the model image.

use faultsim::{AttackCampaign, ErrorRateSchedule};
use hypervector::BinaryHypervector;
use robusthd::diagnostics::{HealthMonitor, HealthVerdict};
use robusthd::supervisor::{run_soak, ResilienceSupervisor, SoakReport};
use robusthd::{
    Encoder, HdcConfig, RecordEncoder, RecoveryConfig, SubstitutionMode, SupervisorConfig,
    TrainedModel,
};
use synthdata::{DatasetSpec, GeneratorConfig};

struct Deployment {
    queries: Vec<BinaryHypervector>,
    labels: Vec<usize>,
    model: TrainedModel,
    config: HdcConfig,
    features: usize,
}

fn deploy(seed: u64) -> Deployment {
    deploy_at(seed, 4096, 600, 300)
}

fn deploy_at(seed: u64, dim: usize, train: usize, test: usize) -> Deployment {
    let spec = DatasetSpec::ucihar().with_sizes(train, test);
    let data = GeneratorConfig::new(seed).generate(&spec);
    let config = HdcConfig::builder()
        .dimension(dim)
        .seed(seed)
        .build()
        .expect("valid config");
    let encoder = RecordEncoder::new(&config, spec.features);
    let train: Vec<_> = data
        .train
        .iter()
        .map(|s| encoder.encode(&s.features))
        .collect();
    let train_labels: Vec<_> = data.train.iter().map(|s| s.label).collect();
    let queries: Vec<_> = data
        .test
        .iter()
        .map(|s| encoder.encode(&s.features))
        .collect();
    let labels: Vec<_> = data.test.iter().map(|s| s.label).collect();
    let model = TrainedModel::train(&train, &train_labels, spec.classes, &config);
    Deployment {
        queries,
        labels,
        model,
        config,
        features: spec.features,
    }
}

fn soak_recovery(seed: u64) -> RecoveryConfig {
    RecoveryConfig::builder()
        .confidence_threshold(0.45)
        .substitution_rate(0.5)
        .substitution(SubstitutionMode::MajorityCounter { saturation: 3 })
        .seed(seed)
        .build()
        .expect("valid recovery config")
}

/// The chaos soak shared by the survival test and the golden trace:
/// calibrate on one half of the traffic, serve the other half while a
/// seeded campaign accumulates diffuse corruption to 12% with a
/// catastrophic burst at step 6.
fn chaos_soak(d: &mut Deployment) -> SoakReport {
    let model_bits = d.model.num_classes() * d.model.dim();

    // Calibrate (and keep as canaries) one half of the traffic, serve the
    // other half — disjoint, as in a real deployment, so a repair that
    // merely overfits the served batch cannot fool the canary probe.
    let half = d.queries.len() / 2;
    let (canaries, served) = d.queries.split_at(half);
    let served_labels = &d.labels[half..];

    // Window = batch size so every verdict judges exactly the served batch
    // against the calibration mean — deterministic, no sampling skew.
    let policy = SupervisorConfig::builder()
        .window(served.len())
        .sensitivity(0.9)
        .rollback_after(3)
        .checkpoint_interval(1)
        .build()
        .expect("valid policy");
    let mut sup = ResilienceSupervisor::new(&d.config, soak_recovery(1), policy, d.features);
    sup.calibrate(&d.model, canaries);

    // Diffuse accumulation to 9% before the burst, 12% total after it.
    let schedule = ErrorRateSchedule::from_cumulative(vec![
        0.015, 0.03, 0.045, 0.06, 0.075, 0.09, 0.10, 0.11, 0.12,
    ]);
    let mut campaign = AttackCampaign::new(schedule, model_bits, 5);
    run_soak(
        &mut sup,
        &mut d.model,
        served,
        served_labels,
        |model, step| {
            if step == 6 {
                // Catastrophic burst: half of every stored word flipped.
                // All similarities collapse toward 0.5, so margins crater
                // (detectable) and no query clears any rung's confidence
                // threshold (unrecoverable) — the loop must escalate and
                // ultimately roll back to the last healthy checkpoint.
                let mut image = model.to_memory_image();
                for word in image.words_mut() {
                    *word ^= 0xAAAA_AAAA_AAAA_AAAA;
                }
                image.mask_tail();
                model.load_memory_image(&image);
                return Some(model_bits / 2);
            }
            let mut image = model.to_memory_image();
            let flipped = campaign.advance(image.words_mut())?;
            image.mask_tail();
            model.load_memory_image(&image);
            Some(flipped)
        },
    )
}

#[test]
fn chaos_soak_survives_accumulation_and_a_catastrophic_burst() {
    let mut d = deploy(41);
    let report = chaos_soak(&mut d);
    let json = report.to_json();

    // ≥ 10% of the model image corrupted over the run.
    assert!(
        report.peak_error_rate() >= 0.10,
        "cumulative corruption too low: {} \ntrace: {json}",
        report.peak_error_rate()
    );
    // The ladder climbed and the loop rolled back at least once.
    assert!(
        report.escalations() >= 1,
        "no escalation exercised\ntrace: {json}"
    );
    assert!(
        report.rollbacks() >= 1,
        "no rollback exercised\ntrace: {json}"
    );
    // A healthy-batch checkpoint was written at some point.
    assert!(
        report.steps.iter().any(|s| s.report.checkpointed),
        "no checkpoint written\ntrace: {json}"
    );
    // Accuracy at the end of the soak stays within 5 points of clean.
    assert!(
        report.clean_accuracy - report.final_accuracy() < 0.05,
        "soak lost too much accuracy: clean {}, final {}\ntrace: {json}",
        report.clean_accuracy,
        report.final_accuracy()
    );
    // The JSON trace records every verdict/escalation/rollback transition.
    // 9 campaign steps plus the injected burst step.
    assert_eq!(report.steps.len(), 10);
    for marker in [
        "\"verdict\":\"healthy\"",
        "\"verdict\":\"degraded\"",
        "\"escalated\":true",
        "\"rolled_back\":true",
        "\"checkpointed\":true",
    ] {
        assert!(json.contains(marker), "trace missing {marker}: {json}");
    }
    // Determinism spot check: the trace length and transition counts are a
    // pure function of the seeds above, so rollback/escalation totals in
    // the JSON header must match the per-step records.
    assert!(json.contains(&format!("\"rollbacks\":{}", report.rollbacks())));
    assert!(json.contains(&format!("\"escalations\":{}", report.escalations())));

    // Visible under --nocapture: the headline soak numbers.
    eprintln!(
        "soak summary: clean {:.4}, final {:.4} at peak error rate {:.4}, \
         {} escalations, {} rollbacks",
        report.clean_accuracy,
        report.final_accuracy(),
        report.peak_error_rate(),
        report.escalations(),
        report.rollbacks()
    );
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Golden trace: the seeded chaos soak at a dimension with a partial tail
/// word, with majority-counter recovery, must reproduce the recorded JSON
/// trace and final model bits exactly. Run-to-run determinism alone cannot
/// catch a deterministic drift in a rewritten repair or scoring path; this
/// constant can. Regenerate it only for a change that is meant to alter
/// the supervisor's decisions, and say so.
#[test]
fn chaos_soak_trace_and_model_match_the_golden_hash() {
    let mut d = deploy_at(43, 2000, 600, 300);
    let report = chaos_soak(&mut d);
    let max_level = report.steps.iter().map(|s| s.report.level).max();
    assert!(max_level >= Some(2), "ladder never reached rung 2");
    assert!(report.rollbacks() >= 1, "no rollback exercised");
    assert!(
        report.steps.iter().any(|s| s.report.checkpointed),
        "no healthy checkpoint exercised"
    );
    let words: Vec<u64> = (0..d.model.num_classes())
        .flat_map(|c| d.model.class(c).bits().words().to_vec())
        .collect();
    let hash = fnv1a(
        report
            .to_json()
            .into_bytes()
            .into_iter()
            .chain(words.iter().flat_map(|w| w.to_le_bytes())),
    );
    assert_eq!(hash, GOLDEN_SOAK_HASH, "trace: {}", report.to_json());
}

const GOLDEN_SOAK_HASH: u64 = 4_231_931_122_519_607_110;

#[test]
fn monitor_degrades_under_msb_targeted_campaign_at_paper_rates() {
    // The paper's Table 4 error rates (2%, 6%, 10%) driven as an
    // MSB-targeted campaign over the stored words: the health monitor must
    // hold Healthy at 2% and flag Degraded by 10%.
    let mut d = deploy(42);
    let model_bits = d.model.num_classes() * d.model.dim();
    let schedule = ErrorRateSchedule::from_cumulative(vec![0.02, 0.06, 0.10]);
    let mut campaign = AttackCampaign::new(schedule, model_bits, 9);

    let mut monitor = HealthMonitor::new(d.queries.len(), 0.9);
    monitor.calibrate(&d.model, &d.queries, d.config.softmax_beta);

    let mut verdicts = Vec::new();
    loop {
        let mut image = d.model.to_memory_image();
        if campaign.advance_targeted(image.words_mut(), 64).is_none() {
            break;
        }
        image.mask_tail();
        d.model.load_memory_image(&image);
        for q in &d.queries {
            monitor.observe(&d.model, q, d.config.softmax_beta);
        }
        verdicts.push(monitor.verdict());
    }
    assert_eq!(verdicts.len(), 3);
    assert_eq!(
        verdicts[0],
        HealthVerdict::Healthy,
        "2% must stay healthy: {verdicts:?}"
    );
    assert_eq!(
        verdicts[2],
        HealthVerdict::Degraded,
        "10% must degrade: {verdicts:?}"
    );
}
