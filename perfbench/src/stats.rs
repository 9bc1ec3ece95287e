//! Seeded randomness, arrival schedules, percentiles and host readings.
//!
//! Everything here is the benchmark's own code: the program under test
//! receives only the inputs these functions generate.

use robusthd_serve::TenantMix;
use std::collections::HashMap;
use std::time::Duration;

/// SplitMix64: a tiny, fully specified generator, so a seed names the same
/// stream on every platform and in every version of the program.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Arrival offsets (nanoseconds from the phase start) of a Poisson process
/// at `rate_hz` over `duration`: exponential gaps drawn from `seed`.
pub fn poisson_schedule(seed: u64, rate_hz: f64, duration: Duration) -> Vec<u64> {
    assert!(rate_hz > 0.0, "arrival rate must be positive");
    let mut rng = SplitMix64::new(seed);
    let end = duration.as_secs_f64();
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        t += -(1.0 - rng.next_f64()).ln() / rate_hz;
        if t >= end {
            return out;
        }
        out.push((t * 1e9) as u64);
    }
}

/// Which pool entry each request carries. The pool is split into groups,
/// one per tenant; the tenant is drawn from a Zipf law over tenant rank
/// (`TenantMix`, the serving crate's own load mix), and each group cycles
/// through its entries in a seeded order that is reshuffled every cycle,
/// so any stretch of traffic covers the pool evenly. `Clone` gives the
/// receiving side an identical copy of the stream to check answers
/// against.
#[derive(Debug, Clone)]
pub struct Picker {
    mix: TenantMix,
    draws: u64,
    /// Tenant id → group index.
    group_of: HashMap<String, usize>,
    rng: SplitMix64,
    starts: Vec<u32>,
    orders: Vec<Vec<u32>>,
    cursors: Vec<usize>,
}

impl Picker {
    /// `groups` holds `(tenant id, first pool index, entries)` per tenant
    /// in rank order; `zipf` is the exponent (`0` = uniform over tenants).
    pub fn new(seed: u64, groups: &[(String, u32, u32)], zipf: f64) -> Self {
        assert!(groups.iter().all(|&(_, _, n)| n > 0));
        let ids: Vec<String> = groups.iter().map(|(id, _, _)| id.clone()).collect();
        let group_of = ids.iter().cloned().zip(0..).collect();
        Self {
            mix: TenantMix::zipf(ids, zipf, seed),
            draws: 0,
            group_of,
            // Its own stream: the mix hashes `seed` with the draw count.
            rng: SplitMix64::new(!seed),
            starts: groups.iter().map(|&(_, start, _)| start).collect(),
            orders: groups.iter().map(|&(_, _, n)| (0..n).collect()).collect(),
            cursors: vec![0; groups.len()],
        }
    }

    pub fn next_index(&mut self) -> u32 {
        let g = self.group_of[self.mix.pick(self.draws)];
        self.draws += 1;
        if self.cursors[g] == 0 {
            let mut order = std::mem::take(&mut self.orders[g]);
            self.rng.shuffle(&mut order);
            self.orders[g] = order;
        }
        let entry = self.orders[g][self.cursors[g]];
        self.cursors[g] = (self.cursors[g] + 1) % self.orders[g].len();
        self.starts[g] + entry
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly above the nearest-rank `p`th percentile.
pub fn beyond(sorted: &[f64], p: f64) -> usize {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted.len() - rank.clamp(1, sorted.len())
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `part / whole`, with an empty whole reading as 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Share of sent requests that did not come back as a result: refused
/// (`overloaded`), failed (`error`) or never answered.
pub fn failed_share(sent: u64, results: u64) -> f64 {
    ratio(sent.saturating_sub(results) as f64, sent as f64)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Aggregate CPU jiffies from `/proc/stat`: `(steal, total)`.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.len() == 8).then(|| (fields[7], fields.iter().sum()))
}

/// Share of CPU time stolen by the hypervisor between two readings.
pub fn steal_share(start: Option<(u64, u64)>, end: Option<(u64, u64)>) -> f64 {
    match (start, end) {
        (Some((s0, t0)), Some((s1, t1))) => ratio((s1 - s0) as f64, (t1 - t0) as f64),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let a = poisson_schedule(7, 500.0, Duration::from_secs(2));
        let b = poisson_schedule(7, 500.0, Duration::from_secs(2));
        let c = poisson_schedule(8, 500.0, Duration::from_secs(2));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(*a.last().unwrap() < 2_000_000_000);
        // About rate × duration arrivals.
        assert!((900..1100).contains(&a.len()), "{}", a.len());
    }

    #[test]
    fn picker_is_deterministic_and_covers_each_group() {
        let groups = vec![("a".to_owned(), 0, 5), ("b".to_owned(), 5, 3)];
        let mut a = Picker::new(3, &groups, 1.0);
        let mut b = Picker::new(3, &groups, 1.0);
        let xs: Vec<u32> = (0..200).map(|_| a.next_index()).collect();
        let ys: Vec<u32> = (0..200).map(|_| b.next_index()).collect();
        assert_eq!(xs, ys);
        assert!(xs.iter().all(|&x| x < 8));
        // A single group cycles: every entry once per cycle.
        let mut solo = Picker::new(9, &[(String::new(), 10, 4)], 1.0);
        let mut cycle: Vec<u32> = (0..4).map(|_| solo.next_index()).collect();
        cycle.sort_unstable();
        assert_eq!(cycle, vec![10, 11, 12, 13]);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(beyond(&v, 99.0), 1);
        assert_eq!(percentile(&[4.0], 99.0), 4.0);
        let w = [1.0, 2.0, 3.0];
        assert_eq!(percentile(&w, 50.0), 2.0);
        assert_eq!(percentile(&w, 34.0), 2.0);
        assert_eq!(percentile(&w, 33.0), 1.0);
    }

    #[test]
    fn failed_share_counts_unanswered_requests() {
        // 10 sent, 7 results: the 3 missing answers (shed, errors or never
        // answered alike) are failures.
        assert_eq!(failed_share(10, 7), 0.3);
        assert_eq!(failed_share(10, 10), 0.0);
        assert_eq!(failed_share(0, 0), 0.0);
    }
}
