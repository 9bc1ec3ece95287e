//! Figure 4b — DRAM refresh-cycle relaxation: energy saved vs the bit
//! errors the relaxed refresh introduces, and what those errors cost each
//! model family.
//!
//! The DRAM retention/energy trade comes from [`pimsim::DramModel`]
//! (calibrated to the paper's 4%→14% / 6%→22% operating points); the
//! accuracy impact of the resulting stored-bit errors is read off the same
//! *measured* robustness curves as Figure 4a.

use crate::fig4a::{dnn_robustness, hdc_robustness, RobustnessCurve};
use crate::workload::Scale;
use pimsim::DramModel;
use robusthd::quality_loss;

/// One row of the sweep.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Refresh interval in milliseconds.
    pub refresh_ms: f64,
    /// Stored-bit error rate at this interval.
    pub error_rate: f64,
    /// DRAM energy improvement over the nominal 64 ms refresh.
    pub energy_improvement: f64,
    /// HDC quality loss at this error rate.
    pub hdc_loss: f64,
    /// DNN quality loss at this error rate.
    pub dnn_loss: f64,
}

/// Default refresh intervals swept (ms).
pub const INTERVALS_MS: [f64; 8] = [64.0, 80.0, 96.0, 112.0, 128.0, 160.0, 224.0, 320.0];

/// Runs the Figure 4b sweep.
pub fn run(scale: Scale, seed: u64) -> Vec<SweepRow> {
    let dram = DramModel::default();
    let hdc = hdc_robustness(scale, 10_000, seed);
    let dnn = dnn_robustness(scale, false, seed);
    sweep_with_curves(&dram, &hdc, &dnn)
}

/// The sweep over already-measured robustness curves.
fn sweep_with_curves(
    dram: &DramModel,
    hdc: &RobustnessCurve,
    dnn: &RobustnessCurve,
) -> Vec<SweepRow> {
    let hdc_clean = hdc.accuracy_at(0.0);
    let dnn_clean = dnn.accuracy_at(0.0);
    INTERVALS_MS
        .iter()
        .map(|&refresh_ms| {
            let error_rate = dram.error_rate(refresh_ms);
            SweepRow {
                refresh_ms,
                error_rate,
                energy_improvement: dram.energy_improvement(refresh_ms),
                hdc_loss: quality_loss(hdc_clean, hdc.accuracy_at(error_rate)),
                dnn_loss: quality_loss(dnn_clean, dnn.accuracy_at(error_rate)),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure4b_shape_holds() {
        let dram = DramModel::default();
        // Synthetic but representative curves: HDC flat, DNN steep.
        let hdc = RobustnessCurve::new(vec![(0.0, 0.96), (0.06, 0.95), (0.3, 0.90)]);
        let dnn = RobustnessCurve::new(vec![(0.0, 0.96), (0.06, 0.80), (0.3, 0.30)]);
        let rows = sweep_with_curves(&dram, &hdc, &dnn);
        assert_eq!(rows.len(), INTERVALS_MS.len());
        // Nominal interval: no savings, no loss.
        assert_eq!(rows[0].energy_improvement, 0.0);
        assert!(rows[0].hdc_loss < 0.01);
        // Relaxed intervals: energy improves monotonically...
        for w in rows.windows(2) {
            assert!(w[1].energy_improvement >= w[0].energy_improvement);
            assert!(w[1].error_rate >= w[0].error_rate);
        }
        // ...and at every relaxed point HDC loses less than the DNN.
        for row in rows.iter().filter(|r| r.error_rate > 0.02) {
            assert!(
                row.hdc_loss < row.dnn_loss,
                "at {} ms: HDC {} vs DNN {}",
                row.refresh_ms,
                row.hdc_loss,
                row.dnn_loss
            );
        }
        // Some swept point buys double-digit percent energy.
        assert!(rows.iter().any(|r| r.energy_improvement > 0.10));
    }
}
