//! The best-of-N wall-clock timer every thread-sweep harness shares.

use std::time::Instant;

/// Best wall-clock seconds of `f` over `repeats` runs. Each run's output
/// is dropped outside the timed span.
pub fn best_seconds<T>(repeats: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..repeats {
        let start = Instant::now();
        let out = f();
        let elapsed = start.elapsed().as_secs_f64();
        drop(out);
        best = best.min(elapsed);
    }
    best
}
