//! Extension — the adversarial scenario engine: the attack-success-vs-budget
//! curve of the blackbox input-space attacker, an HDXplore-style
//! disagreement hunt across model variants, and the joint memory + input
//! attack soak through the resilience supervisor.
//!
//! Three questions, one workload:
//!
//! 1. **What does a Hamming budget buy the adversary?**
//!    [`::advsim::budget_curve`] sweeps the attacker's radius against the
//!    clean model and reports success, detection (final confidence below
//!    the trust gate), and blackbox queries spent per radius.
//! 2. **Where do the model variants disagree?** The hunter evolves raw
//!    feature rows until the one-shot model, its retrained refinement,
//!    and a memory-attacked copy return different labels. The variants
//!    are rebuilt deterministically, so `robusthd advsoak --replay` can
//!    replay a persisted corpus fast-vs-reference in a fresh process.
//! 3. **Does the confidence gate catch input attacks the way the health
//!    monitor catches bit-rot?** [`::advsim::run_adv_soak`] serves
//!    adversarially-mixed traffic through the closed loop while a
//!    [`faultsim::AttackCampaign`] corrupts the model image underneath.
//!
//! `robusthd advsoak` runs this harness on a pipeline trained from CSV
//! files.

use crate::soak::{ClosedLoop, SoakTraffic};
use ::advsim::{
    budget_curve, run_adv_soak, AdvSoakConfig, AdvSoakReport, AttackBudget, BudgetPoint,
    DisagreementCorpus, DisagreementHunter, HuntBudget,
};
use hypervector::BinaryHypervector;
use robusthd::{BatchEngine, HdcConfig, RecordEncoder, TrainedModel};
use synthdata::Sample;

/// Hamming radii the budget curve sweeps.
pub const CURVE_RADII: [usize; 4] = [0, 16, 64, 256];
/// Candidate bits the budget curve's attacker scores per greedy round.
const CURVE_CANDIDATES: usize = 32;
/// Queries drawn from the traffic for the budget-curve sweep.
const CURVE_QUERIES: usize = 48;
/// Traffic rows handed to the disagreement hunter as seeds.
const HUNT_ROWS: usize = 32;
/// Memory corruption applied to the hunt's "attacked" model variant.
const HUNT_ATTACK_RATE: f64 = 0.05;

/// The disagreement hunt's model variants: the one-shot model, its
/// 2-epoch retrained refinement, and a copy with 5% of its bits flipped.
/// They are rebuilt deterministically from the pipeline and the seed, so
/// a corpus hunted in one process replays in another.
#[derive(Debug)]
pub struct Variants<'a> {
    one_shot: &'a TrainedModel,
    retrained: TrainedModel,
    attacked: TrainedModel,
}

impl<'a> Variants<'a> {
    /// Builds the variants of `model`, retraining on the encoded training
    /// split.
    pub fn build(
        config: &HdcConfig,
        model: &'a TrainedModel,
        train: &[BinaryHypervector],
        train_labels: &[usize],
        seed: u64,
    ) -> Self {
        let mut refined = config.clone();
        refined.retrain_epochs = 2;
        let retrained = TrainedModel::train(train, train_labels, model.num_classes(), &refined);
        let attacked = crate::attack::attack_hdc(model, HUNT_ATTACK_RATE, seed ^ 0xBAD);
        Self {
            one_shot: model,
            retrained,
            attacked,
        }
    }

    /// The variants with the names a disagreement corpus records.
    pub fn named(&self) -> [(&'static str, &TrainedModel); 3] {
        [
            ("one-shot", self.one_shot),
            ("retrained", &self.retrained),
            ("attacked", &self.attacked),
        ]
    }
}

/// Outcome of one adversarial scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct AdvOutcome {
    /// Queries the supervisor calibrated on and keeps as canaries.
    pub canaries: usize,
    /// Queries served at every soak step.
    pub served: usize,
    /// Attack success vs Hamming budget, one point per radius in
    /// [`CURVE_RADII`].
    pub curve: Vec<BudgetPoint>,
    /// The disagreement corpus the hunter found across the variants.
    pub corpus: DisagreementCorpus,
    /// The joint memory + input attack soak trace.
    pub soak: AdvSoakReport,
}

/// Runs the full adversarial scenario on `traffic`: the budget curve
/// against the clean model, a disagreement hunt across `variants` seeded
/// from the first raw traffic rows in `samples`, and the joint soak that
/// `config` describes.
///
/// # Errors
///
/// Returns a message when the traffic is too small to split into
/// canaries and served queries.
pub fn run(
    traffic: &SoakTraffic<'_>,
    encoder: &RecordEncoder,
    variants: &Variants<'_>,
    samples: &[Sample],
    seed: u64,
    config: &AdvSoakConfig,
) -> Result<AdvOutcome, String> {
    let engine = BatchEngine::from_env();
    let beta = traffic.config.softmax_beta;

    // 1. Attack success vs Hamming budget, clean model.
    let curve_queries = &traffic.queries[..traffic.queries.len().min(CURVE_QUERIES)];
    let budget = AttackBudget::new(0)
        .with_candidates(CURVE_CANDIDATES)
        .with_seed(seed ^ 0xAD);
    let curve = budget_curve(
        &engine,
        traffic.model,
        curve_queries,
        beta,
        &CURVE_RADII,
        &budget,
        config.trust_threshold,
    );

    // 2. Disagreement hunt: one-shot vs retrained vs memory-attacked.
    let rows: Vec<Vec<f64>> = samples
        .iter()
        .take(HUNT_ROWS)
        .map(|s| s.features.clone())
        .collect();
    let hunter = DisagreementHunter::new(HuntBudget::new(6, 12).with_seed(seed));
    let corpus = hunter.hunt(&engine, encoder, &variants.named(), &rows, beta);

    // 3. Joint memory + input attack soak through the closed loop.
    let ClosedLoop {
        mut supervisor,
        mut model,
        canaries,
        served,
        served_labels,
    } = traffic.calibrate(seed)?;
    let soak = run_adv_soak(&mut supervisor, &mut model, served, served_labels, config);

    Ok(AdvOutcome {
        canaries,
        served: served.len(),
        curve,
        corpus,
        soak,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{EncodedWorkload, Scale};
    use faultsim::ErrorRateSchedule;
    use synthdata::DatasetSpec;

    #[test]
    fn quick_adv_scenario_is_coherent() {
        let w = EncodedWorkload::build(&DatasetSpec::pecan(), Scale::Quick, 1024, 5);
        let variants = Variants::build(&w.config, &w.model, &w.train_encoded, &w.train_labels, 5);
        let config = AdvSoakConfig {
            schedule: ErrorRateSchedule::linear(0.0, 0.04, 2),
            budget: AttackBudget::new(64).with_candidates(32).with_seed(5),
            attack_fraction: 0.2,
            trust_threshold: 0.3,
        };
        let o = run(
            &w.traffic(),
            &w.encoder,
            &variants,
            &w.data.test,
            5,
            &config,
        )
        .expect("traffic splits");
        assert_eq!(
            o.curve.len(),
            CURVE_RADII.len(),
            "the budget curve is present"
        );
        assert_eq!(o.curve[0].successes, 0, "zero radius flips nothing");
        assert!(o.curve.iter().all(|p| p.attacks == CURVE_QUERIES));
        assert_eq!(o.soak.steps.len(), 2);
        assert!(o.soak.steps.iter().all(|s| s.attacked > 0));
        let replay = o.corpus.replay(
            &BatchEngine::from_env(),
            &w.encoder,
            &variants.named(),
            w.config.softmax_beta,
        );
        assert!(replay.is_clean(), "corpus replay not bit-exact: {replay:?}");
    }
}
