//! Unsupervised model-health monitoring: detecting that the deployed model
//! is under attack, without labels.
//!
//! The recovery framework (§4) *repairs* damage; this module *notices* it.
//! The same signals recovery relies on — prediction confidence and
//! chunk-vote agreement — shift measurably when stored bits corrupt, so a
//! monitor that tracks their moving averages against a calibration baseline
//! raises an alarm as corruption accumulates. This is the runtime-detection
//! extension the paper's framework implies (its Figure 1 pipeline computes
//! every needed quantity already; the monitor only adds the statistics).

use crate::confidence::Confidence;
use crate::model::TrainedModel;
use hypervector::BinaryHypervector;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;

/// Health statistics over a window of observed queries.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HealthSnapshot {
    /// Queries in the window.
    pub window: usize,
    /// Mean top-class confidence.
    pub mean_confidence: f64,
    /// Mean raw similarity margin between the top two classes.
    pub mean_margin: f64,
    /// Median raw similarity margin between the top two classes.
    ///
    /// The median is the robust twin of [`HealthSnapshot::mean_margin`]: a
    /// handful of queries with inflated margins (for example traffic a
    /// misdirected repair overfitted to) can drag the mean back into the
    /// healthy band while the bulk of the window is still broken, but they
    /// cannot move the median.
    pub median_margin: f64,
}

/// Verdict of a health check against the calibration baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HealthVerdict {
    /// Statistics within the calibrated band.
    Healthy,
    /// Confidence/margin depressed beyond the alarm threshold —
    /// corruption (or distribution shift) likely.
    Degraded,
    /// Not enough traffic observed to judge.
    InsufficientTraffic,
}

/// Sliding-window health monitor for a deployed model.
///
/// Calibrate on known-good traffic once ([`HealthMonitor::calibrate`]),
/// then feed production queries ([`HealthMonitor::observe`]) and poll
/// [`HealthMonitor::verdict`].
///
/// # Example
///
/// ```
/// use hypervector::random::HypervectorSampler;
/// use robusthd::diagnostics::{HealthMonitor, HealthVerdict};
/// use robusthd::{HdcConfig, TrainedModel};
///
/// # fn main() -> Result<(), robusthd::ConfigError> {
/// let dim = 4096;
/// let mut sampler = HypervectorSampler::seed_from(2);
/// let common = sampler.binary(dim);
/// let protos = [sampler.flip_noise(&common, 0.2), sampler.flip_noise(&common, 0.2)];
/// let queries: Vec<_> = (0..60)
///     .map(|i| sampler.flip_noise(&protos[i % 2], 0.05))
///     .collect();
/// let labels: Vec<_> = (0..60).map(|i| i % 2).collect();
/// let config = HdcConfig::builder().dimension(dim).build()?;
/// let mut model = TrainedModel::train(&queries, &labels, 2, &config);
///
/// let mut monitor = HealthMonitor::new(32, 0.5);
/// monitor.calibrate(&model, &queries, config.softmax_beta);
///
/// // Healthy traffic keeps the verdict clean...
/// for q in &queries {
///     monitor.observe(&model, q, config.softmax_beta);
/// }
/// assert_eq!(monitor.verdict(), HealthVerdict::Healthy);
///
/// // ...then a heavy attack depresses margins and trips the alarm.
/// let corrupted = sampler.flip_noise(model.class(0), 0.4);
/// *model.class_mut(0) = corrupted;
/// let corrupted = sampler.flip_noise(model.class(1), 0.4);
/// *model.class_mut(1) = corrupted;
/// for q in &queries {
///     monitor.observe(&model, q, config.softmax_beta);
/// }
/// assert_eq!(monitor.verdict(), HealthVerdict::Degraded);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Serialize, Deserialize)]
pub struct HealthMonitor {
    window: usize,
    /// Alarm when the windowed margin falls below `sensitivity` times the
    /// calibrated margin.
    sensitivity: f64,
    baseline: Option<HealthSnapshot>,
    confidences: VecDeque<f64>,
    margins: VecDeque<f64>,
}

impl HealthMonitor {
    /// Creates a monitor with the given sliding-window size and alarm
    /// sensitivity (fraction of the calibrated margin below which the
    /// verdict degrades; e.g. `0.5` alarms when margins halve).
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero or `sensitivity` is not in `(0, 1]`.
    pub fn new(window: usize, sensitivity: f64) -> Self {
        assert!(window > 0, "window must be positive");
        assert!(
            sensitivity > 0.0 && sensitivity <= 1.0,
            "sensitivity must lie in (0, 1]"
        );
        Self {
            window,
            sensitivity,
            baseline: None,
            confidences: VecDeque::with_capacity(window),
            margins: VecDeque::with_capacity(window),
        }
    }

    /// Establishes the healthy baseline from known-good traffic.
    ///
    /// # Panics
    ///
    /// Panics if `queries` is empty.
    pub fn calibrate(
        &mut self,
        model: &TrainedModel,
        queries: &[BinaryHypervector],
        softmax_beta: f64,
    ) {
        let assessments: Vec<Confidence> = queries
            .iter()
            .map(|q| Confidence::evaluate(model, q, softmax_beta))
            .collect();
        self.calibrate_from(&assessments);
    }

    /// Establishes the healthy baseline from already-computed confidence
    /// assessments (for example a batch the
    /// [`crate::batch::BatchEngine`] scored).
    ///
    /// # Panics
    ///
    /// Panics if `assessments` is empty.
    pub fn calibrate_from(&mut self, assessments: &[Confidence]) {
        assert!(
            !assessments.is_empty(),
            "calibration traffic must not be empty"
        );
        let confidence_sum: f64 = assessments.iter().map(|c| c.confidence).sum();
        let mut margins: Vec<f64> = assessments.iter().map(|c| c.margin).collect();
        self.baseline = Some(HealthSnapshot {
            window: assessments.len(),
            mean_confidence: confidence_sum / assessments.len() as f64,
            mean_margin: margins.iter().sum::<f64>() / assessments.len() as f64,
            median_margin: median(&mut margins),
        });
    }

    /// The calibrated baseline, if any.
    pub fn baseline(&self) -> Option<HealthSnapshot> {
        self.baseline
    }

    /// Feeds one production query into the window.
    pub fn observe(&mut self, model: &TrainedModel, query: &BinaryHypervector, softmax_beta: f64) {
        let c = Confidence::evaluate(model, query, softmax_beta);
        self.record(&c);
    }

    /// Feeds one already-computed confidence assessment into the window —
    /// the batch-serving entry point: the supervisor scores a whole batch
    /// through the [`crate::batch::BatchEngine`] and records each result
    /// here, in query order, with exactly the statistics
    /// [`HealthMonitor::observe`] would have pushed.
    pub fn record(&mut self, assessment: &Confidence) {
        if self.confidences.len() == self.window {
            self.confidences.pop_front();
            self.margins.pop_front();
        }
        self.confidences.push_back(assessment.confidence);
        self.margins.push_back(assessment.margin);
    }

    /// Current window statistics (`None` until any traffic arrives).
    pub fn snapshot(&self) -> Option<HealthSnapshot> {
        if self.confidences.is_empty() {
            return None;
        }
        let n = self.confidences.len() as f64;
        let mut margins: Vec<f64> = self.margins.iter().copied().collect();
        Some(HealthSnapshot {
            window: self.confidences.len(),
            mean_confidence: self.confidences.iter().sum::<f64>() / n,
            mean_margin: margins.iter().sum::<f64>() / n,
            median_margin: median(&mut margins),
        })
    }

    /// Configured sliding-window size.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Discards every buffered observation, keeping the calibration
    /// baseline. Used after a model rollback: the buffered statistics
    /// describe the pre-rollback model and would poison the next verdict.
    pub fn reset_window(&mut self) {
        self.confidences.clear();
        self.margins.clear();
    }

    /// Judges the current window against the calibration.
    ///
    /// The verdict degrades when either the windowed *mean* or the
    /// windowed *median* margin falls below `sensitivity` times its
    /// calibrated counterpart. The mean reacts to diffuse damage spread
    /// thinly over every query; the median resists being whitewashed by a
    /// few outlier queries with artificially inflated margins (the
    /// signature of a repair loop overfitting garbage traffic).
    ///
    /// # Panics
    ///
    /// Panics if the monitor was never calibrated.
    pub fn verdict(&self) -> HealthVerdict {
        let baseline = self.baseline.expect("monitor must be calibrated first"); // audit:allow(panic): documented precondition: calibrate before verdict
        let Some(current) = self.snapshot() else {
            return HealthVerdict::InsufficientTraffic;
        };
        if current.window < self.window {
            return HealthVerdict::InsufficientTraffic;
        }
        if current.mean_margin < baseline.mean_margin * self.sensitivity
            || current.median_margin < baseline.median_margin * self.sensitivity
        {
            HealthVerdict::Degraded
        } else {
            HealthVerdict::Healthy
        }
    }

    /// Judges a set of already-computed raw margins against the calibrated
    /// baseline, without touching the sliding window.
    ///
    /// This is the *canary probe*: the supervisor re-scores retained
    /// known-good traffic that live serving (and any repair loop feeding
    /// on it) has never seen, and judges those margins here. A repair that
    /// merely overfits the live window restores the windowed statistics
    /// but not the canaries', so probing catches whitewashed damage that
    /// [`HealthMonitor::verdict`] alone would miss. The margins are
    /// consumed: the median is selected in place.
    ///
    /// Returns [`HealthVerdict::InsufficientTraffic`] for an empty set.
    ///
    /// # Panics
    ///
    /// Panics if the monitor was never calibrated.
    pub fn judge_margins(&self, mut margins: Vec<f64>) -> HealthVerdict {
        let baseline = self.baseline.expect("monitor must be calibrated first"); // audit:allow(panic): documented precondition: calibrate before verdict
        if margins.is_empty() {
            return HealthVerdict::InsufficientTraffic;
        }
        let mean = margins.iter().sum::<f64>() / margins.len() as f64;
        if mean < baseline.mean_margin * self.sensitivity
            || median(&mut margins) < baseline.median_margin * self.sensitivity
        {
            HealthVerdict::Degraded
        } else {
            HealthVerdict::Healthy
        }
    }
}

/// Median of a non-empty sample (mean of the two middle elements when the
/// length is even), in [`f64::total_cmp`] order. Selects in place instead
/// of sorting, so `sample` is left reordered.
fn median(sample: &mut [f64]) -> f64 {
    let mid = sample.len() / 2;
    let odd = sample.len() % 2 == 1;
    let (below, &mut upper, _) = sample.select_nth_unstable_by(mid, f64::total_cmp);
    if odd {
        return upper;
    }
    // Even length: the lower middle is the largest element below `mid`.
    let lower = below
        .iter()
        .copied()
        .max_by(f64::total_cmp)
        .unwrap_or(upper);
    (lower + upper) / 2.0
}

impl fmt::Debug for HealthMonitor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HealthMonitor")
            .field("window", &self.window)
            .field("sensitivity", &self.sensitivity)
            .field("calibrated", &self.baseline.is_some())
            .field("observed", &self.confidences.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HdcConfig;
    use hypervector::random::HypervectorSampler;

    #[test]
    fn median_handles_odd_even_and_outliers() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut [7.0]), 7.0);
        assert_eq!(median(&mut [2.0, 1.0]), 1.5);
        // A single huge outlier moves the mean but not the median.
        assert_eq!(median(&mut [0.01, 0.01, 0.01, 0.01, 100.0]), 0.01);
    }

    fn setup() -> (TrainedModel, Vec<BinaryHypervector>, f64) {
        let dim = 4096;
        let mut sampler = HypervectorSampler::seed_from(3);
        let common = sampler.binary(dim);
        let protos: Vec<_> = (0..3).map(|_| sampler.flip_noise(&common, 0.15)).collect();
        let queries: Vec<_> = (0..90)
            .map(|i| sampler.flip_noise(&protos[i % 3], 0.05))
            .collect();
        let labels: Vec<_> = (0..90).map(|i| i % 3).collect();
        let config = HdcConfig::builder().dimension(dim).build().expect("valid");
        let model = TrainedModel::train(&queries, &labels, 3, &config);
        (model, queries, config.softmax_beta)
    }

    #[test]
    fn healthy_traffic_stays_healthy() {
        let (model, queries, beta) = setup();
        let mut monitor = HealthMonitor::new(30, 0.5);
        monitor.calibrate(&model, &queries, beta);
        for q in &queries {
            monitor.observe(&model, q, beta);
        }
        assert_eq!(monitor.verdict(), HealthVerdict::Healthy);
    }

    #[test]
    fn heavy_corruption_degrades_verdict() {
        let (mut model, queries, beta) = setup();
        let mut monitor = HealthMonitor::new(30, 0.5);
        monitor.calibrate(&model, &queries, beta);
        let mut sampler = HypervectorSampler::seed_from(9);
        for c in 0..3 {
            let corrupted = sampler.flip_noise(model.class(c), 0.4);
            *model.class_mut(c) = corrupted;
        }
        for q in &queries {
            monitor.observe(&model, q, beta);
        }
        assert_eq!(monitor.verdict(), HealthVerdict::Degraded);
    }

    #[test]
    fn short_traffic_is_insufficient() {
        let (model, queries, beta) = setup();
        let mut monitor = HealthMonitor::new(50, 0.5);
        monitor.calibrate(&model, &queries, beta);
        assert_eq!(monitor.verdict(), HealthVerdict::InsufficientTraffic);
        for q in queries.iter().take(10) {
            monitor.observe(&model, q, beta);
        }
        assert_eq!(monitor.verdict(), HealthVerdict::InsufficientTraffic);
    }

    #[test]
    fn window_slides() {
        let (model, queries, beta) = setup();
        let mut monitor = HealthMonitor::new(20, 0.5);
        monitor.calibrate(&model, &queries, beta);
        for q in &queries {
            monitor.observe(&model, q, beta);
        }
        let snap = monitor.snapshot().expect("has traffic");
        assert_eq!(snap.window, 20);
    }

    #[test]
    fn mild_corruption_does_not_false_alarm() {
        // 2% flips barely move margins; sensitivity 0.5 must not trip.
        let (mut model, queries, beta) = setup();
        let mut monitor = HealthMonitor::new(30, 0.5);
        monitor.calibrate(&model, &queries, beta);
        let mut sampler = HypervectorSampler::seed_from(11);
        for c in 0..3 {
            let corrupted = sampler.flip_noise(model.class(c), 0.02);
            *model.class_mut(c) = corrupted;
        }
        for q in &queries {
            monitor.observe(&model, q, beta);
        }
        assert_eq!(monitor.verdict(), HealthVerdict::Healthy);
    }

    #[test]
    fn reset_window_clears_traffic_but_not_baseline() {
        let (model, queries, beta) = setup();
        let mut monitor = HealthMonitor::new(30, 0.5);
        monitor.calibrate(&model, &queries, beta);
        for q in &queries {
            monitor.observe(&model, q, beta);
        }
        assert_eq!(monitor.verdict(), HealthVerdict::Healthy);
        monitor.reset_window();
        assert_eq!(monitor.verdict(), HealthVerdict::InsufficientTraffic);
        assert!(monitor.snapshot().is_none());
        assert!(monitor.baseline().is_some());
    }

    #[test]
    #[should_panic(expected = "calibrated first")]
    fn verdict_without_calibration_panics() {
        HealthMonitor::new(10, 0.5).verdict();
    }

    #[test]
    #[should_panic(expected = "sensitivity")]
    fn invalid_sensitivity_panics() {
        HealthMonitor::new(10, 0.0);
    }
}
