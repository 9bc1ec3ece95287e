//! `recovery_soak`: pre-encoded ucihar queries served in-process through
//! `ResilienceSupervisor::serve_batch_with_scores` while a seeded fault
//! campaign flips bits in the class memory.
//!
//! Traffic runs in *laps* of [`LAP_BATCHES`] batches. Each lap starts from
//! the clean model and a freshly calibrated supervisor and replays the same
//! queries and the same faults, so every lap must end with the same repair
//! counts, answers and accuracy — the run's correctness gate — and
//! `accuracy` (taken over whole laps) is identical on every run. The
//! `--seed` sets only the phase of the evenly spaced arrivals.

use crate::deploy::{Deployment, Ucihar};
use crate::stats::SplitMix64;
use faultsim::{AttackCampaign, Attacker, ErrorRateSchedule};
use hypervector::BinaryHypervector;
use robusthd::diagnostics::HealthVerdict;
use robusthd::supervisor::{BatchReport, ResilienceSupervisor};
use robusthd::{BatchEngine, Encoder, TrainedModel};
use std::time::{Duration, Instant};

/// Queries per served batch.
pub const BATCH: usize = 64;
/// Batches per lap.
pub const LAP_BATCHES: usize = 48;
/// A campaign step lands before every `STEP_EVERY`th batch...
const STEP_EVERY: usize = 3;
/// ...ramping the cumulative diffuse corruption to `PEAK` over the lap.
const PEAK: f64 = 0.08;
/// Bursts of `BURST_RATE` random flips land before these batches.
const BURSTS: [usize; 2] = [20, 40];
const BURST_RATE: f64 = 0.04;
const CAMPAIGN_SEED: u64 = 0x0CA4_FA11;
const BURST_SEED: u64 = 0xB0257;

/// Everything a lap replays: the clean model, its canaries and the fixed
/// batches with their labels.
#[derive(Debug)]
pub struct Soak {
    pub data: Ucihar,
    pub model: TrainedModel,
    canaries: Vec<BinaryHypervector>,
    pub batches: Vec<Vec<BinaryHypervector>>,
    labels: Vec<Vec<usize>>,
    /// The clean model's `(label, confidence bits)` for batch 0, scored by a
    /// bare batch engine: the supervisor must serve exactly these.
    reference: Vec<(usize, u64)>,
}

impl Soak {
    pub fn new(data: Ucihar, deployment: Deployment) -> Self {
        let encoder = deployment.encoder;
        let canaries = encoder.encode_batch_refs(&crate::deploy::refs(&data.canary_rows));
        let pool = encoder.encode_batch_refs(&crate::deploy::refs(&data.pool_rows));
        let n = pool.len();
        let (batches, labels): (Vec<Vec<_>>, Vec<Vec<_>>) = (0..LAP_BATCHES)
            .map(|b| {
                (0..BATCH)
                    .map(|q| {
                        let i = (b * BATCH + q) % n;
                        (pool[i].clone(), data.pool_labels[i])
                    })
                    .unzip()
            })
            .unzip();
        let reference = BatchEngine::new(crate::deploy::batch_config())
            .evaluate_batch(&deployment.model, &batches[0], data.config.softmax_beta)
            .iter()
            .map(|s| (s.predicted, s.confidence.confidence.to_bits()))
            .collect();
        Self {
            data,
            model: deployment.model,
            canaries,
            batches,
            labels,
            reference,
        }
    }

    /// A fresh lap: clean model, freshly calibrated supervisor, campaign at
    /// its first step.
    pub fn lap(&self) -> Lap<'_> {
        let model = self.model.clone();
        let supervisor = self.data.supervisor(&model, &self.canaries);
        let bits = model.num_classes() * model.dim();
        let steps = LAP_BATCHES / STEP_EVERY;
        let schedule = ErrorRateSchedule::from_cumulative(
            (1..=steps)
                .map(|i| PEAK * i as f64 / steps as f64)
                .collect(),
        );
        Lap {
            soak: self,
            model,
            supervisor,
            campaign: AttackCampaign::new(schedule, bits, CAMPAIGN_SEED),
            attacker: Attacker::seed_from(BURST_SEED),
            next: 0,
            tally: LapTally::default(),
        }
    }
}

/// What one lap did; equal on every lap of every run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LapTally {
    pub served: u64,
    pub correct: u64,
    pub degraded: u64,
    pub escalations: u64,
    pub rollbacks: u64,
    pub checkpoints: u64,
    pub bits_repaired: u64,
    pub bits_flipped: u64,
    /// Batch 0 answers that differ from the bare engine's.
    pub mismatches: u64,
    /// FNV-1a over every answer and confidence bit pattern.
    pub hash: u64,
}

/// One lap in progress.
pub struct Lap<'a> {
    soak: &'a Soak,
    pub model: TrainedModel,
    pub supervisor: ResilienceSupervisor,
    campaign: AttackCampaign,
    attacker: Attacker,
    pub next: usize,
    pub tally: LapTally,
}

impl Lap<'_> {
    pub fn done(&self) -> bool {
        self.next == LAP_BATCHES
    }

    /// The faults due before the next batch, if any.
    pub fn inject(&mut self) {
        let b = self.next;
        let burst = BURSTS.contains(&b);
        if !burst && (b == 0 || !b.is_multiple_of(STEP_EVERY)) {
            return;
        }
        let bits = self.model.num_classes() * self.model.dim();
        let mut image = self.model.to_memory_image();
        let flipped = if burst {
            self.attacker
                .random_flips(image.words_mut(), bits, BURST_RATE)
                .flipped_bits
        } else {
            self.campaign.advance(image.words_mut()).unwrap_or(0)
        };
        image.mask_tail();
        self.model.load_memory_image(&image);
        self.tally.bits_flipped += flipped as u64;
    }

    /// Serves the next batch through the supervisor.
    pub fn serve(&mut self) -> BatchReport {
        let b = self.next;
        let (report, scores) = self
            .supervisor
            .serve_batch_with_scores(&mut self.model, &self.soak.batches[b]);
        self.account(b, &report, &scores);
        self.next += 1;
        report
    }

    fn account(&mut self, b: usize, report: &BatchReport, scores: &[robusthd::BatchScore]) {
        let t = &mut self.tally;
        t.served += report.answers.len() as u64;
        for (i, (answer, score)) in report.answers.iter().zip(scores).enumerate() {
            t.correct += u64::from(*answer == Some(self.soak.labels[b][i]));
            let bits = score.confidence.confidence.to_bits();
            if b == 0
                && (*answer, bits) != (Some(self.soak.reference[i].0), self.soak.reference[i].1)
            {
                t.mismatches += 1;
            }
            for word in [answer.map_or(u64::MAX, |l| l as u64), bits] {
                t.hash = (t.hash ^ word).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        t.degraded += u64::from(report.verdict == HealthVerdict::Degraded);
        t.escalations += u64::from(report.escalated);
        t.rollbacks += u64::from(report.rolled_back);
        t.checkpoints += u64::from(report.checkpointed);
        t.bits_repaired += report.bits_repaired as u64;
    }
}

/// Outcome of a paced phase.
#[derive(Debug, Default)]
pub struct Paced {
    /// Intended arrival → batch served, milliseconds, ascending.
    pub latency_ms: Vec<f64>,
    /// How late the pacer woke for a batch it had to wait for, ms, ascending.
    pub late_ms: Vec<f64>,
    pub laps: Vec<LapTally>,
    /// `(serve start, serve end)` of every batch: the spans a traced run
    /// records.
    pub spans: Vec<(Instant, Instant)>,
}

/// Batches arrive every `1 / rate_hz` seconds from a seeded phase offset;
/// each waits for the previous one, as in a single-threaded server. Runs
/// whole laps until `duration` of phase time has passed; lap set-up pauses
/// the arrival clock.
///
/// Arrivals are evenly spaced rather than Poisson: every lap then meets the
/// same queue behind its repair batches, so the per-batch latencies measure
/// the supervisor, not the luck of the draw around its slowest batches.
pub fn paced(soak: &Soak, rate_hz: f64, duration: Duration, seed: u64, trace: bool) -> Paced {
    let interval = 1.0 / rate_hz;
    let mut next = SplitMix64::new(seed).next_f64() * interval;
    let mut out = Paced::default();
    let mut origin = Instant::now();
    loop {
        let reset = Instant::now();
        let mut lap = soak.lap();
        origin += reset.elapsed();
        while !lap.done() {
            lap.inject();
            let due = origin + Duration::from_secs_f64(next);
            next += interval;
            let now = Instant::now();
            if due > now {
                wait_until(due);
                out.late_ms
                    .push(Instant::now().duration_since(due).as_secs_f64() * 1e3);
            }
            let start = Instant::now();
            lap.serve();
            let end = Instant::now();
            out.latency_ms
                .push(end.saturating_duration_since(due).as_secs_f64() * 1e3);
            if trace {
                out.spans.push((start, end));
            }
        }
        out.laps.push(lap.tally);
        if origin.elapsed() >= duration {
            break;
        }
    }
    out.latency_ms.sort_by(f64::total_cmp);
    out.late_ms.sort_by(f64::total_cmp);
    out
}

/// How long before an arrival the pacer stops sleeping and spins.
const SPIN: Duration = Duration::from_micros(300);

/// Waits for `due`: sleeps, then spins the last [`SPIN`]. The pacer is the
/// serving thread itself, so the spin takes no time from serving, and it
/// keeps the sleep's wake-up overshoot out of the measured latency.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// Serves whole laps back to back for at least `duration` of serving time;
/// returns queries per second of serving time and the lap tallies.
pub fn back_to_back(soak: &Soak, duration: Duration) -> (f64, Vec<LapTally>) {
    let mut busy = Duration::ZERO;
    let mut served = 0u64;
    let mut laps = Vec::new();
    while busy < duration {
        let mut lap = soak.lap();
        while !lap.done() {
            lap.inject();
            let start = Instant::now();
            lap.serve();
            busy += start.elapsed();
        }
        served += lap.tally.served;
        laps.push(lap.tally);
    }
    (served as f64 / busy.as_secs_f64(), laps)
}
