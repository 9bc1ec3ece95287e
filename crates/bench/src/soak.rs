//! Chaos soak — the closed-loop resilience supervisor under a sustained
//! attack campaign with a catastrophic mid-run burst.
//!
//! Not a paper artifact: this exercises the serving-runtime extension
//! (DESIGN.md, "Closed-loop recovery") at bench scale. The campaign
//! accumulates diffuse corruption the escalating recovery ladder can
//! repair in place; the optional burst flips half of every stored word —
//! damage no rung can undo — forcing escalation and a rollback to the
//! last healthy checkpoint.

use crate::workload::{EncodedWorkload, Scale};
use faultsim::{AttackCampaign, ErrorRateSchedule};
use robusthd::supervisor::{run_soak, ResilienceSupervisor, SoakReport};
use robusthd::{RecoveryConfig, SupervisorConfig};
use synthdata::DatasetSpec;

/// Outcome of one chaos-soak run.
#[derive(Debug)]
pub struct SoakOutcome {
    /// Dataset name.
    pub name: String,
    /// Clean accuracy on the served split.
    pub clean_accuracy: f64,
    /// Accuracy at the last soak step.
    pub final_accuracy: f64,
    /// Cumulative injected corruption at the end, as a fraction of the
    /// model image.
    pub peak_error_rate: f64,
    /// Ladder climbs over the run.
    pub escalations: usize,
    /// Checkpoint rollbacks over the run.
    pub rollbacks: usize,
    /// The full per-step trace.
    pub report: SoakReport,
}

/// The soak's recovery operating point (Table 4's, plus the supervisor's
/// escalation ladder derived from it).
pub fn soak_recovery(seed: u64) -> RecoveryConfig {
    crate::table4::recovery_operating_point(seed)
}

/// Runs one chaos soak: `steps` campaign steps ramping linearly to a
/// cumulative corruption of `peak`, with (when `burst` is set) half of
/// every stored word flipped at the midpoint.
pub fn run(
    spec: &DatasetSpec,
    scale: Scale,
    dim: usize,
    seed: u64,
    steps: usize,
    peak: f64,
    burst: bool,
) -> SoakOutcome {
    assert!(steps > 0, "need at least one campaign step");
    let w = EncodedWorkload::build(spec, scale, dim, seed);
    let half = (w.test_encoded.len() / 2).max(1);
    let (canaries, served) = w.test_encoded.split_at(half);
    let served_labels = &w.test_labels[half..];

    let policy = SupervisorConfig::builder()
        .window(served.len())
        .sensitivity(0.9)
        .build()
        .expect("valid policy");
    let mut supervisor = ResilienceSupervisor::new(
        &w.config,
        soak_recovery(seed ^ 0x50AC),
        policy,
        w.data.spec.features,
    );
    let mut model = w.model.clone();
    supervisor.calibrate(&model, canaries);

    let model_bits = model.num_classes() * model.dim();
    let schedule = ErrorRateSchedule::from_cumulative(
        (1..=steps)
            .map(|i| peak * i as f64 / steps as f64)
            .collect(),
    );
    let mut campaign = AttackCampaign::new(schedule, model_bits, seed ^ 0xCA);
    let burst_at = steps / 2;
    let report = run_soak(
        &mut supervisor,
        &mut model,
        served,
        served_labels,
        |model, step| {
            let mut image = model.to_memory_image();
            let flipped = if burst && step == burst_at {
                for word in image.words_mut() {
                    *word ^= 0xAAAA_AAAA_AAAA_AAAA;
                }
                model_bits / 2
            } else {
                campaign.advance(image.words_mut())?
            };
            image.mask_tail();
            model.load_memory_image(&image);
            Some(flipped)
        },
    );

    SoakOutcome {
        name: w.data.spec.name.clone(),
        clean_accuracy: report.clean_accuracy,
        final_accuracy: report.final_accuracy(),
        peak_error_rate: report.peak_error_rate(),
        escalations: report.escalations(),
        rollbacks: report.rollbacks(),
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_soak_holds_accuracy_without_burst() {
        let outcome = run(&DatasetSpec::pecan(), Scale::Quick, 2048, 7, 3, 0.06, false);
        assert_eq!(outcome.report.steps.len(), 3);
        assert!(
            outcome.clean_accuracy - outcome.final_accuracy < 0.1,
            "clean {} vs final {}",
            outcome.clean_accuracy,
            outcome.final_accuracy
        );
    }
}
