//! Chaos soak — the closed-loop resilience supervisor under a sustained
//! attack campaign with a catastrophic mid-run burst.
//!
//! Not a paper artifact: this exercises the serving-runtime extension
//! (DESIGN.md, "Closed-loop recovery"). The campaign
//! accumulates diffuse corruption the escalating recovery ladder can
//! repair in place; the optional burst flips half of every stored word —
//! damage no rung can undo — forcing escalation and a rollback to the
//! last healthy checkpoint.
//!
//! `robusthd soak` runs this harness on a pipeline trained from CSV files.

use faultsim::{AttackCampaign, ErrorRateSchedule};
use hypervector::BinaryHypervector;
use robusthd::supervisor::{run_soak, ResilienceSupervisor, SoakReport};
use robusthd::{HdcConfig, RecoveryConfig, SupervisorConfig, TrainedModel};

/// A trained pipeline and the encoded traffic a soak serves. The first
/// half of the traffic calibrates the supervisor and stays with it as its
/// canaries; the second half is served at every step.
#[derive(Debug, Clone, Copy)]
pub struct SoakTraffic<'a> {
    /// The pipeline's configuration.
    pub config: &'a HdcConfig,
    /// Raw features per sample.
    pub features: usize,
    /// The clean trained model; a soak corrupts its own copy.
    pub model: &'a TrainedModel,
    /// The encoded traffic.
    pub queries: &'a [BinaryHypervector],
    /// The traffic's labels, used only to report accuracy.
    pub labels: &'a [usize],
}

/// A supervisor calibrated on the traffic's canaries, with the model copy
/// it guards and the queries it serves.
pub(crate) struct ClosedLoop<'a> {
    pub(crate) supervisor: ResilienceSupervisor,
    pub(crate) model: TrainedModel,
    pub(crate) canaries: usize,
    pub(crate) served: &'a [BinaryHypervector],
    pub(crate) served_labels: &'a [usize],
}

impl<'a> SoakTraffic<'a> {
    /// Splits the traffic into canaries and served queries and calibrates
    /// a supervisor at the soak's recovery operating point on the
    /// canaries.
    pub(crate) fn calibrate(&self, seed: u64) -> Result<ClosedLoop<'a>, String> {
        if self.queries.len() < 2 {
            return Err(
                "traffic file too small to split into canaries and served queries".to_owned(),
            );
        }
        let half = self.queries.len() / 2;
        let (canaries, served) = self.queries.split_at(half);
        let policy = SupervisorConfig::builder()
            .window(served.len())
            .sensitivity(0.9)
            .build()
            .map_err(|e| e.to_string())?;
        let mut supervisor = ResilienceSupervisor::new(
            self.config,
            soak_recovery(seed ^ 0x50AC),
            policy,
            self.features,
        );
        let model = self.model.clone();
        supervisor.calibrate(&model, canaries);
        Ok(ClosedLoop {
            supervisor,
            model,
            canaries: canaries.len(),
            served,
            served_labels: &self.labels[half..],
        })
    }
}

/// Outcome of one chaos soak.
#[derive(Debug)]
pub struct SoakOutcome {
    /// Queries the supervisor calibrated on and keeps as canaries.
    pub canaries: usize,
    /// Queries served at every step.
    pub served: usize,
    /// The per-step trace.
    pub report: SoakReport,
}

/// The soak's recovery operating point (Table 4's, plus the supervisor's
/// escalation ladder derived from it).
pub fn soak_recovery(seed: u64) -> RecoveryConfig {
    crate::table4::recovery_operating_point(seed)
}

/// Runs one chaos soak over `traffic`: `steps` campaign steps ramping
/// linearly to a cumulative corruption of `peak` (spent on stored-word
/// MSBs first when `targeted` is set), with half of every stored word
/// flipped at the midpoint step instead when `burst` is set.
///
/// # Errors
///
/// Returns a message when the traffic is too small to split into
/// canaries and served queries.
///
/// # Panics
///
/// Panics if `steps` is zero or `peak` is outside `[0, 1]`.
pub fn run(
    traffic: &SoakTraffic<'_>,
    seed: u64,
    steps: usize,
    peak: f64,
    burst: bool,
    targeted: bool,
) -> Result<SoakOutcome, String> {
    let ClosedLoop {
        mut supervisor,
        mut model,
        canaries,
        served,
        served_labels,
    } = traffic.calibrate(seed)?;
    let model_bits = model.num_classes() * model.dim();
    let schedule = ErrorRateSchedule::linear(0.0, peak, steps);
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
            } else if targeted {
                campaign.advance_targeted(image.words_mut(), 64)?
            } else {
                campaign.advance(image.words_mut())?
            };
            image.mask_tail();
            model.load_memory_image(&image);
            Some(flipped)
        },
    );
    Ok(SoakOutcome {
        canaries,
        served: served.len(),
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{EncodedWorkload, Scale};
    use synthdata::DatasetSpec;

    #[test]
    fn quick_soak_holds_accuracy_without_burst() {
        let w = EncodedWorkload::build(&DatasetSpec::pecan(), Scale::Quick, 2048, 7);
        let outcome = run(&w.traffic(), 7, 3, 0.06, false, false).expect("traffic splits");
        let report = &outcome.report;
        assert_eq!(report.steps.len(), 3);
        assert_eq!(outcome.canaries + outcome.served, w.test_encoded.len());
        assert!(
            report.clean_accuracy - report.final_accuracy() < 0.1,
            "clean {} vs final {}",
            report.clean_accuracy,
            report.final_accuracy()
        );
    }

    #[test]
    fn one_query_cannot_be_split() {
        let w = EncodedWorkload::build(&DatasetSpec::pecan(), Scale::Quick, 512, 7);
        let traffic = SoakTraffic {
            queries: &w.test_encoded[..1],
            labels: &w.test_labels[..1],
            ..w.traffic()
        };
        let err = run(&traffic, 7, 2, 0.04, false, false).unwrap_err();
        assert!(err.contains("too small"), "{err}");
    }
}
