use serde::{Deserialize, Serialize};

/// A sweep of cumulative error rates for lifetime-style experiments.
///
/// Lifetime simulations (Figure 4a of the paper) inject *additional* faults
/// at each time step so that the total corruption grows over time. The
/// schedule converts a sequence of cumulative target rates into per-step
/// increments, clamping to the achievable range.
///
/// # Example
///
/// ```
/// use faultsim::ErrorRateSchedule;
///
/// let schedule = ErrorRateSchedule::linear(0.0, 0.10, 5);
/// let rates = schedule.cumulative_rates();
/// assert_eq!(rates.len(), 5);
/// assert!((rates[4] - 0.10).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorRateSchedule {
    cumulative: Vec<f64>,
}

impl ErrorRateSchedule {
    /// Builds a schedule from explicit cumulative rates.
    ///
    /// # Panics
    ///
    /// Panics if any rate is outside `[0, 1]` or the sequence decreases.
    pub fn from_cumulative(cumulative: Vec<f64>) -> Self {
        let mut prev = 0.0;
        for (i, &r) in cumulative.iter().enumerate() {
            assert!(
                (0.0..=1.0).contains(&r),
                "rate {r} at step {i} outside [0,1]"
            );
            assert!(
                r >= prev,
                "cumulative rates must be non-decreasing at step {i}"
            );
            prev = r;
        }
        Self { cumulative }
    }

    /// Linear ramp from `start` to `end` over `steps` steps (the final step
    /// reaches `end` exactly).
    ///
    /// # Panics
    ///
    /// Panics if `steps == 0`, rates are outside `[0, 1]`, or `end < start`.
    pub fn linear(start: f64, end: f64, steps: usize) -> Self {
        assert!(steps > 0, "schedule needs at least one step");
        assert!(end >= start, "end rate must not be below start rate");
        let cumulative = (1..=steps)
            .map(|i| start + (end - start) * i as f64 / steps as f64)
            .collect();
        Self::from_cumulative(cumulative)
    }

    /// The cumulative error rate at each step.
    pub fn cumulative_rates(&self) -> &[f64] {
        &self.cumulative
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// Returns `true` if the schedule has no steps.
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_schedule_endpoints() {
        let s = ErrorRateSchedule::linear(0.0, 0.12, 6);
        assert_eq!(s.len(), 6);
        assert!((s.cumulative_rates()[0] - 0.02).abs() < 1e-12);
        assert!((s.cumulative_rates()[5] - 0.12).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn decreasing_schedule_panics() {
        ErrorRateSchedule::from_cumulative(vec![0.1, 0.05]);
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn out_of_range_rate_panics() {
        ErrorRateSchedule::from_cumulative(vec![1.5]);
    }

    #[test]
    #[should_panic(expected = "at least one step")]
    fn zero_steps_panics() {
        ErrorRateSchedule::linear(0.0, 0.1, 0);
    }

    #[test]
    fn empty_schedule_properties() {
        let s = ErrorRateSchedule::from_cumulative(vec![]);
        assert!(s.is_empty());
    }
}
