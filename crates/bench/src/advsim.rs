//! Extension — the adversarial scenario engine at bench scale: the
//! attack-success-vs-budget curve of the blackbox input-space attacker,
//! an HDXplore-style disagreement hunt across model variants, and the
//! joint memory + input attack soak through the resilience supervisor.
//!
//! Three questions, one workload:
//!
//! 1. **What does a Hamming budget buy the adversary?**
//!    [`::advsim::budget_curve`] sweeps the attacker's radius against the
//!    clean model and reports success, detection (final confidence below
//!    the trust gate), and blackbox queries spent per radius.
//! 2. **Where do the model variants disagree?** The hunter evolves raw
//!    feature rows until the one-shot model, its retrained refinement,
//!    and a memory-attacked copy return different labels; the corpus is
//!    replayed fast-vs-reference before being reported, so every case in
//!    the artifact is bit-exact reproducible.
//! 3. **Does the confidence gate catch input attacks the way the health
//!    monitor catches bit-rot?** [`::advsim::run_adv_soak`] serves
//!    adversarially-mixed traffic through the closed loop while a
//!    [`faultsim::AttackCampaign`] corrupts the model image underneath.

use crate::soak::soak_recovery;
use crate::workload::{EncodedWorkload, Scale};
use ::advsim::{
    budget_curve, run_adv_soak, AdvSoakConfig, AdvSoakReport, AttackBudget, BudgetPoint,
    DisagreementCorpus, DisagreementHunter, HuntBudget,
};
use faultsim::{Attacker, ErrorRateSchedule};
use robusthd::supervisor::ResilienceSupervisor;
use robusthd::{BatchEngine, SupervisorConfig, TrainedModel};
use std::fmt::Write as _;
use synthdata::DatasetSpec;

/// Queries drawn from the test split for the budget-curve sweep.
const CURVE_QUERIES: usize = 48;
/// Seed rows handed to the disagreement hunter.
const HUNT_ROWS: usize = 32;
/// Memory corruption applied to the hunt's "attacked" model variant.
const HUNT_ATTACK_RATE: f64 = 0.05;

/// Full adversarial-scenario result for one dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct AdvOutcome {
    /// Dataset name.
    pub name: String,
    /// Hypervector dimensionality.
    pub dim: usize,
    /// Clean test accuracy of the unattacked model.
    pub clean_accuracy: f64,
    /// Attack success vs Hamming budget, one point per swept radius.
    pub curve: Vec<BudgetPoint>,
    /// The disagreement corpus the hunter found (one-shot vs retrained vs
    /// memory-attacked variants).
    pub corpus: DisagreementCorpus,
    /// Whether the corpus replayed bit-exactly (fast vs reference
    /// encoders, batched vs sequential scoring, recorded verdicts).
    pub replay_clean: bool,
    /// The joint memory + input attack soak trace.
    pub soak: AdvSoakReport,
}

impl AdvOutcome {
    /// Hand-written JSON rendering (no serializer dependency), stable
    /// field order for diffable CI artifacts.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"dataset\": \"{}\", \"dim\": {}, \"clean_accuracy\": {:.4}, \"curve\": [",
            self.name, self.dim, self.clean_accuracy
        );
        for (i, p) in self.curve.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"radius\": {}, \"attacks\": {}, \"successes\": {}, \"detected\": {}, \
                 \"mean_flips\": {:.2}, \"mean_queries\": {:.1}}}",
                p.radius, p.attacks, p.successes, p.detected, p.mean_flips, p.mean_queries
            );
        }
        let _ = write!(
            out,
            "], \"corpus_cases\": {}, \"replay_clean\": {}, \"soak\": {}}}",
            self.corpus.cases.len(),
            self.replay_clean,
            self.soak.to_json()
        );
        out
    }
}

/// Runs the full adversarial scenario on one dataset: budget curve
/// against the clean model, disagreement hunt with bit-exact replay, and
/// the joint soak (`steps` campaign steps ramping linearly to `peak`
/// cumulative memory corruption while `attack_fraction` of the traffic is
/// adversarial).
///
/// # Panics
///
/// Panics if `radii` is empty, `steps` is zero, or the corpus replay is
/// not bit-exact (the harness refuses to report a non-reproducible
/// artifact).
#[allow(clippy::too_many_arguments)]
pub fn run(
    spec: &DatasetSpec,
    scale: Scale,
    dim: usize,
    seed: u64,
    radii: &[usize],
    steps: usize,
    peak: f64,
    attack_fraction: f64,
    trust_threshold: f64,
) -> AdvOutcome {
    assert!(!radii.is_empty(), "need at least one radius");
    assert!(steps > 0, "need at least one soak step");
    let w = EncodedWorkload::build(spec, scale, dim, seed);
    let engine = BatchEngine::from_env();
    let beta = w.config.softmax_beta;
    let classes = w.data.spec.classes;
    let features = w.data.spec.features;

    // 1. Attack success vs Hamming budget, clean model.
    let curve_queries = &w.test_encoded[..w.test_encoded.len().min(CURVE_QUERIES)];
    let budget = AttackBudget::new(0)
        .with_candidates(32)
        .with_seed(seed ^ 0xAD);
    let curve = budget_curve(
        &engine,
        &w.model,
        curve_queries,
        beta,
        radii,
        &budget,
        trust_threshold,
    );

    // 2. Disagreement hunt: one-shot vs retrained vs memory-attacked.
    let mut refined_cfg = w.config.clone();
    refined_cfg.retrain_epochs = 2;
    let retrained = TrainedModel::train(&w.train_encoded, &w.train_labels, classes, &refined_cfg);
    let mut attacked = w.model.clone();
    let mut image = attacked.to_memory_image();
    Attacker::seed_from(seed ^ 0xBAD).random_flips(
        image.words_mut(),
        attacked.num_classes() * attacked.dim(),
        HUNT_ATTACK_RATE,
    );
    image.mask_tail();
    attacked.load_memory_image(&image);
    let variants = [
        ("one-shot", &w.model),
        ("retrained", &retrained),
        ("attacked", &attacked),
    ];
    let rows: Vec<Vec<f64>> = w
        .data
        .test
        .iter()
        .take(HUNT_ROWS)
        .map(|s| s.features.clone())
        .collect();
    let hunter = DisagreementHunter::new(HuntBudget::new(6, 12).with_seed(seed));
    let corpus = hunter.hunt(&engine, &w.encoder, &variants, &rows, beta);

    // Replay the corpus through both encoder paths before reporting it:
    // an artifact that does not reproduce bit-exactly is a harness bug,
    // not a finding.
    let replay = corpus.replay(&engine, &w.encoder, &variants, beta);
    assert!(replay.is_clean(), "corpus replay not bit-exact: {replay:?}");

    // 3. Joint memory + input attack soak through the closed loop.
    let half = (w.test_encoded.len() / 2).max(1);
    let (canaries, served) = w.test_encoded.split_at(half);
    let served_labels = &w.test_labels[half..];
    let policy = SupervisorConfig::builder()
        .window(served.len())
        .sensitivity(0.9)
        .build()
        .expect("valid policy");
    let mut supervisor =
        ResilienceSupervisor::new(&w.config, soak_recovery(seed ^ 0x50AC), policy, features);
    let mut model = w.model.clone();
    supervisor.calibrate(&model, canaries);
    let schedule = ErrorRateSchedule::from_cumulative(
        (1..=steps)
            .map(|i| peak * i as f64 / steps as f64)
            .collect(),
    );
    let soak_radius = radii.last().copied().unwrap_or(dim / 64);
    let soak_cfg = AdvSoakConfig {
        schedule,
        budget: AttackBudget::new(soak_radius)
            .with_candidates(32)
            .with_seed(seed ^ 0x5030),
        attack_fraction,
        trust_threshold,
    };
    let soak = run_adv_soak(
        &mut supervisor,
        &mut model,
        served,
        served_labels,
        &soak_cfg,
    );

    AdvOutcome {
        name: w.data.spec.name.clone(),
        dim,
        clean_accuracy: w.clean_accuracy(),
        curve,
        corpus,
        replay_clean: replay.is_clean(),
        soak,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_adv_scenario_is_coherent() {
        let o = run(
            &DatasetSpec::pecan(),
            Scale::Quick,
            1024,
            5,
            &[0, 64],
            2,
            0.04,
            0.2,
            0.3,
        );
        assert_eq!(o.curve.len(), 2);
        assert_eq!(o.curve[0].successes, 0, "zero radius flips nothing");
        assert_eq!(o.soak.steps.len(), 2);
        assert!(o.replay_clean);
        assert!(o.soak.steps.iter().all(|s| s.attacked > 0));
        let json = o.to_json();
        assert!(json.contains("\"curve\": ["));
        assert!(json.contains("\"soak\": {"));
    }
}
