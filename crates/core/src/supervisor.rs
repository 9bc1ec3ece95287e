//! Closed-loop resilience supervision: a self-healing serving runtime.
//!
//! The other modules provide the parts — detection
//! ([`crate::diagnostics`]), repair ([`crate::recovery`]), durable
//! checkpoints ([`crate::persist`]) — and this module closes the loop
//! around a deployed model:
//!
//! 1. **Monitor.** Every served query feeds the [`HealthMonitor`]; the
//!    windowed verdict decides whether the loop intervenes at all. A
//!    healthy-looking window is additionally cross-checked by a *canary
//!    probe* ([`HealthMonitor::judge_margins`] plus golden-answer
//!    agreement) over the retained calibration traffic: live statistics
//!    can be whitewashed by a repair loop overfitting the very queries it
//!    feeds on, but a disjoint canary set cannot. The probe is
//!    incremental ([`ResilienceSupervisor::canary_probe`]): it keeps a
//!    shadow of the class words and every canary's distance to every
//!    class, re-scores only the classes whose words changed since the last
//!    probe, and reuses the last verdict when none did.
//! 2. **Escalate.** On a [`HealthVerdict::Degraded`] batch the
//!    [`RecoveryEngine`] runs at the current rung of an escalation ladder
//!    ([`EscalationLevel`]). Each failed round climbs one rung: higher
//!    substitution rate `S`, finer chunking `m`, more passes (bounded
//!    backoff), and finally a *temporary* trust-threshold cut down to a
//!    fixed floor — the only way a class so damaged that it produces
//!    no high-confidence traffic can attract repair again. De-escalation
//!    needs a hysteresis of consecutive healthy batches, so the ladder does
//!    not flap at the alarm boundary.
//! 3. **Checkpoint / roll back.** Healthy batches periodically serialize
//!    the model through the checksummed [`crate::persist`] format into an
//!    in-memory checkpoint. When `rollback_after` consecutive recovery
//!    rounds fail, the supervisor restores the last healthy checkpoint —
//!    verifying its CRC on the way in — and resets the ladder.
//! 4. **Quarantine.** A class whose chunk-fault rate stays above a ceiling
//!    is quarantined: its predictions are reported as unreliable
//!    (`None`) instead of silently misclassifying, until repair or
//!    rollback clears the evidence.
//!
//! [`run_soak`] drives the whole loop against a caller-supplied corruption
//! process (e.g. a `faultsim` attack campaign) and emits a JSON trace of
//! every verdict, escalation, checkpoint, and rollback.

use crate::batch::{predicted_margin, BatchEngine};
use crate::config::{BatchConfig, EscalationLevel, HdcConfig, RecoveryConfig, SupervisorConfig};
use crate::diagnostics::{HealthMonitor, HealthVerdict};
use crate::encoding::Encoder;
use crate::model::TrainedModel;
use crate::persist;
use crate::recovery::{RecoveryEngine, RecoveryStats};
use hypervector::BinaryHypervector;
use std::borrow::Cow;
use std::fmt;
use std::fmt::Write as _;

/// Hard floor under every temporary `T_C` cut in the escalation ladder.
const THRESHOLD_FLOOR: f64 = 0.4;

/// Consecutive healthy batches required before de-escalating one level, so
/// the ladder does not flap at the alarm boundary.
const HYSTERESIS: usize = 2;

/// Minimum fraction of canary queries whose current prediction must match
/// the answer recorded at calibration for the model to count as healthy.
/// Margin statistics alone cannot tell a healthy model from one whose
/// classes were rewritten into a confident label permutation (for example
/// by a repair loop feeding on misrouted traffic); golden answers can.
const CANARY_AGREEMENT_FLOOR: f64 = 0.75;

impl EscalationLevel {
    /// Builds the supervisor's four-rung ladder from a base recovery
    /// configuration: the base operating point, then raised `S` and doubled
    /// `m`, then a half-way `T_C` cut, then `T_C` at the floor (0.4).
    pub fn default_ladder(base: &RecoveryConfig) -> Vec<EscalationLevel> {
        let t = base.confidence_threshold.max(THRESHOLD_FLOOR);
        vec![
            EscalationLevel {
                substitution_rate: base.substitution_rate,
                chunks: base.chunks,
                confidence_threshold: t,
                rounds: 1,
            },
            EscalationLevel {
                substitution_rate: (base.substitution_rate * 1.5).min(1.0),
                chunks: base.chunks * 2,
                confidence_threshold: t,
                rounds: 2,
            },
            EscalationLevel {
                substitution_rate: (base.substitution_rate * 2.0).min(1.0),
                chunks: base.chunks * 2,
                confidence_threshold: THRESHOLD_FLOOR + (t - THRESHOLD_FLOOR) / 2.0,
                rounds: 3,
            },
            EscalationLevel {
                substitution_rate: (base.substitution_rate * 2.0).min(1.0),
                chunks: base.chunks * 2,
                confidence_threshold: THRESHOLD_FLOOR,
                rounds: 4,
            },
        ]
    }
}

/// What the supervisor did with one batch of queries.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// 1-based index of this batch.
    pub step: usize,
    /// Verdict on the traffic as served (before any repair this batch).
    pub verdict: HealthVerdict,
    /// Verdict after repair (equals `verdict` when no repair ran).
    pub post_verdict: HealthVerdict,
    /// Whether the canary probe degraded a window that looked healthy —
    /// the signature of damage (or an overfitting repair) that the live
    /// traffic statistics alone would have whitewashed.
    pub canary_alarm: bool,
    /// Escalation level after this batch.
    pub level: usize,
    /// Whether this batch climbed the escalation ladder.
    pub escalated: bool,
    /// Whether this batch descended the escalation ladder.
    pub deescalated: bool,
    /// Whether a checkpoint was written this batch.
    pub checkpointed: bool,
    /// Whether the model was rolled back this batch.
    pub rolled_back: bool,
    /// Stored bits changed by recovery this batch.
    pub bits_repaired: usize,
    /// Queries answered `None` because their class is quarantined.
    pub unreliable: usize,
    /// Classes currently quarantined.
    pub quarantined: Vec<usize>,
    /// Per-query answers: `Some(label)` or `None` when the predicted class
    /// is quarantined (the graceful-degradation path).
    pub answers: Vec<Option<usize>>,
}

/// The closed-loop resilience supervisor.
///
/// # Example
///
/// ```
/// use hypervector::random::HypervectorSampler;
/// use robusthd::supervisor::ResilienceSupervisor;
/// use robusthd::{HdcConfig, RecoveryConfig, SupervisorConfig, TrainedModel};
///
/// # fn main() -> Result<(), robusthd::ConfigError> {
/// let dim = 2048;
/// let mut sampler = HypervectorSampler::seed_from(3);
/// let protos = [sampler.binary(dim), sampler.binary(dim)];
/// let queries: Vec<_> = (0..60)
///     .map(|i| sampler.flip_noise(&protos[i % 2], 0.1))
///     .collect();
/// let labels: Vec<_> = (0..60).map(|i| i % 2).collect();
/// let config = HdcConfig::builder().dimension(dim).build()?;
/// let mut model = TrainedModel::train(&queries, &labels, 2, &config);
///
/// let policy = SupervisorConfig::builder().window(32).build()?;
/// let mut supervisor =
///     ResilienceSupervisor::new(&config, RecoveryConfig::default(), policy, 0);
/// supervisor.calibrate(&model, &queries);
/// let report = supervisor.serve_batch(&mut model, &queries);
/// assert!(report.answers.iter().all(|a| a.is_some()));
/// # Ok(())
/// # }
/// ```
pub struct ResilienceSupervisor {
    policy: SupervisorConfig,
    hdc: HdcConfig,
    features: usize,
    monitor: HealthMonitor,
    canaries: Vec<BinaryHypervector>,
    canary_answers: Vec<usize>,
    probe: ProbeCache,
    engine: RecoveryEngine,
    batch: BatchEngine,
    ladder: Vec<EscalationLevel>,
    level: usize,
    healthy_streak: usize,
    failed_rounds: usize,
    healthy_since_checkpoint: usize,
    checkpoint: Option<Vec<u8>>,
    quarantined: Vec<bool>,
    step: usize,
    total_rollbacks: usize,
    total_escalations: usize,
}

impl ResilienceSupervisor {
    /// Creates a supervisor for a deployment described by `hdc` (the model's
    /// training configuration) serving `features`-dimensional inputs.
    ///
    /// `base` is the level-0 recovery operating point; the escalation
    /// ladder is [`EscalationLevel::default_ladder`] derived from it.
    pub fn new(
        hdc: &HdcConfig,
        base: RecoveryConfig,
        policy: SupervisorConfig,
        features: usize,
    ) -> Self {
        let ladder = EscalationLevel::default_ladder(&base);
        let monitor = HealthMonitor::new(policy.window, policy.sensitivity);
        let engine = RecoveryEngine::new(base, hdc.softmax_beta);
        Self {
            policy,
            hdc: hdc.clone(),
            features,
            monitor,
            canaries: Vec::new(),
            canary_answers: Vec::new(),
            probe: ProbeCache::default(),
            engine,
            batch: BatchEngine::from_env(),
            ladder,
            level: 0,
            healthy_streak: 0,
            failed_rounds: 0,
            healthy_since_checkpoint: 0,
            checkpoint: None,
            quarantined: Vec::new(),
            step: 0,
            total_rollbacks: 0,
            total_escalations: 0,
        }
    }

    /// Calibrates the health monitor on known-good traffic, retains that
    /// traffic as the canary set, and takes the initial checkpoint. Must be
    /// called once before serving.
    ///
    /// Every healthy window is cross-checked by probing the canaries against
    /// the model ([`ResilienceSupervisor::canary_probe`]). The probe
    /// re-scores only the classes whose words changed since its last run,
    /// so an unchanged model costs one compare of the class words, and a
    /// changed class costs one distance per canary. The probe keeps
    /// `classes × D / 8` bytes of class-word shadow plus `canaries ×
    /// classes` distances (8 bytes each) per supervisor. Calibrating again
    /// drops that cache. For the probe to add protection beyond the live
    /// window, calibrate on traffic that will *not* be served again: a
    /// repair loop can overfit the queries it feeds on, but not a disjoint
    /// canary set.
    ///
    /// # Panics
    ///
    /// Panics if `clean_queries` is empty.
    pub fn calibrate(&mut self, model: &TrainedModel, clean_queries: &[BinaryHypervector]) {
        let scores = self
            .batch
            .evaluate_batch(model, clean_queries, self.hdc.softmax_beta);
        let assessments: Vec<_> = scores.iter().map(|s| s.confidence.clone()).collect();
        self.monitor.calibrate_from(&assessments);
        self.canaries = clean_queries.to_vec();
        // Golden answers: the healthy model's own predictions, the
        // self-supervised reference that catches a model whose margins look
        // fine but whose classes were rewritten into a label permutation.
        self.canary_answers = scores.iter().map(|s| s.predicted).collect();
        self.probe = ProbeCache::default();
        self.quarantined = vec![false; model.num_classes()];
        self.checkpoint = Some(self.encode_checkpoint(model));
    }

    /// Current escalation level (0 = base operating point).
    pub fn level(&self) -> usize {
        self.level
    }

    /// The escalation ladder in use.
    pub fn ladder(&self) -> &[EscalationLevel] {
        &self.ladder
    }

    /// Total rollbacks performed.
    pub fn rollbacks(&self) -> usize {
        self.total_rollbacks
    }

    /// Total ladder climbs performed.
    pub fn escalations(&self) -> usize {
        self.total_escalations
    }

    /// Classes currently quarantined.
    pub fn quarantined_classes(&self) -> Vec<usize> {
        self.quarantined
            .iter()
            .enumerate()
            .filter_map(|(c, &q)| q.then_some(c))
            .collect()
    }

    /// Number of classes currently quarantined, without listing them.
    pub fn quarantined_count(&self) -> usize {
        self.quarantined.iter().filter(|&&q| q).count()
    }

    /// The health monitor (e.g. for inspecting the baseline).
    pub fn monitor(&self) -> &HealthMonitor {
        &self.monitor
    }

    /// The batched inference engine serving this supervisor.
    pub fn batch_engine(&self) -> &BatchEngine {
        &self.batch
    }

    /// The HDC hyperparameters this supervisor serves with (e.g. the
    /// confidence softmax `beta` external harnesses must score with to
    /// stay bit-identical to the serving path).
    pub fn hdc_config(&self) -> &HdcConfig {
        &self.hdc
    }

    /// Replaces the batch engine's tuning (thread count, shard size).
    /// Pure throughput knobs: every served result is bit-identical across
    /// tunings (see [`crate::batch`]).
    pub fn set_batch_config(&mut self, config: BatchConfig) {
        self.batch.set_config(config);
    }

    /// Cumulative statistics of the embedded recovery engine.
    pub fn recovery_stats(&self) -> &RecoveryStats {
        self.engine.stats()
    }

    /// Classes the canary probe has re-scored since calibration. A probe
    /// re-scores every class the first time, then only the classes whose
    /// words differ from those it last scored; a probe of an unchanged
    /// model adds nothing.
    pub fn probe_rescored_classes(&self) -> usize {
        self.probe.rescored
    }

    /// The last healthy checkpoint, as checksummed `RHD2` bytes.
    pub fn checkpoint_bytes(&self) -> Option<&[u8]> {
        self.checkpoint.as_deref()
    }

    /// Serves one batch of queries through the full closed loop: monitor,
    /// answer (with quarantine), and — on a degraded verdict — repair,
    /// escalate, checkpoint, or roll back as the policy dictates.
    ///
    /// For the post-repair verdict to reflect the repaired model, batches
    /// should hold at least `policy.window` queries.
    ///
    /// # Panics
    ///
    /// Panics if [`ResilienceSupervisor::calibrate`] was never called, or a
    /// rollback checkpoint fails its CRC (memory corruption reached the
    /// checkpoint itself — there is nothing sane left to restore).
    pub fn serve_batch(
        &mut self,
        model: &mut TrainedModel,
        queries: &[BinaryHypervector],
    ) -> BatchReport {
        let beta = self.hdc.softmax_beta;
        // One engine pass scores the whole batch (sharded across worker
        // threads); each result then feeds the monitor window and the
        // quarantine gate in query order, exactly as per-query serving did.
        let scores = self.batch.evaluate_batch(model, queries, beta);
        self.serve_scored(model, &scores, || Cow::Borrowed(queries))
    }

    /// Serves one batch exactly like [`ResilienceSupervisor::serve_batch`]
    /// and additionally returns the per-query [`crate::batch::BatchScore`]s
    /// the closed loop acted on (the scores of the *pre-repair* model, in
    /// query order).
    ///
    /// The adversarial soak harness (`advsim`) uses the scores to measure
    /// the confidence gate as a detector: an adversarial query counts as
    /// *detected* when its served confidence fails
    /// [`crate::Confidence::is_trusted`] at the supervisor's trust
    /// threshold — the input-space analogue of the health monitor flagging
    /// bit-rot.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as
    /// [`ResilienceSupervisor::serve_batch`].
    pub fn serve_batch_with_scores(
        &mut self,
        model: &mut TrainedModel,
        queries: &[BinaryHypervector],
    ) -> (BatchReport, Vec<crate::batch::BatchScore>) {
        let beta = self.hdc.softmax_beta;
        let scores = self.batch.evaluate_batch(model, queries, beta);
        let report = self.serve_scored(model, &scores, || Cow::Borrowed(queries));
        (report, scores)
    }

    /// Serves one batch of *raw feature rows* through the same closed loop
    /// as [`ResilienceSupervisor::serve_batch`], via the fused
    /// encode→score path: on the healthy hot path no intermediate
    /// `Vec<BinaryHypervector>` is ever materialized. Only a degraded
    /// verdict — where the repair engine needs the encoded queries —
    /// triggers a (sharded) encoding pass.
    ///
    /// Bit-identical to encoding `rows` yourself and calling
    /// [`ResilienceSupervisor::serve_batch`], at any thread count.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as
    /// [`ResilienceSupervisor::serve_batch`], or if any row's length
    /// differs from `encoder.features()`.
    pub fn serve_raw_batch<E: Encoder + Sync + ?Sized>(
        &mut self,
        encoder: &E,
        model: &mut TrainedModel,
        rows: &[&[f64]],
    ) -> BatchReport {
        let beta = self.hdc.softmax_beta;
        let scores = self.batch.evaluate_raw_batch(encoder, model, rows, beta);
        // Clone the engine (config-only) so the lazy encode closure does
        // not borrow `self` across the `&mut self` call below.
        let batch = self.batch.clone();
        self.serve_scored(model, &scores, move || {
            Cow::Owned(batch.encode_batch(encoder, rows))
        })
    }

    /// Serves one batch of raw feature rows exactly like
    /// [`ResilienceSupervisor::serve_raw_batch`] and additionally returns
    /// the per-query [`crate::batch::BatchScore`]s the closed loop acted on
    /// (the scores of the *pre-repair* model, in query order).
    ///
    /// This is the serving daemon's entry point: the coalescer needs both
    /// the quarantine-gated answers (from the [`BatchReport`]) and the
    /// per-query confidences (from the scores) to fill one wire response
    /// per query.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as
    /// [`ResilienceSupervisor::serve_raw_batch`].
    pub fn serve_raw_batch_with_scores<E: Encoder + Sync + ?Sized>(
        &mut self,
        encoder: &E,
        model: &mut TrainedModel,
        rows: &[&[f64]],
    ) -> (BatchReport, Vec<crate::batch::BatchScore>) {
        let beta = self.hdc.softmax_beta;
        let scores = self.batch.evaluate_raw_batch(encoder, model, rows, beta);
        let batch = self.batch.clone();
        let report = self.serve_scored(model, &scores, move || {
            Cow::Owned(batch.encode_batch(encoder, rows))
        });
        (report, scores)
    }

    /// Operator override: quarantines `class` (or clears its quarantine)
    /// directly, without waiting for the fault-evidence loop to reach the
    /// same conclusion. Serving daemons expose this as an admin control —
    /// e.g. fencing a class whose upstream labels are known-bad — and the
    /// serving differential suite uses it to pin a quarantined state.
    ///
    /// The flag obeys the same lifecycle as evidence-driven quarantine:
    /// a healthy verdict, a rollback, or contrary fault evidence clears it.
    ///
    /// # Panics
    ///
    /// Panics if [`ResilienceSupervisor::calibrate`] was never called or
    /// `class` is out of range for the calibrated model.
    pub fn set_quarantine(&mut self, class: usize, quarantined: bool) {
        assert!(
            class < self.quarantined.len(),
            "class {class} out of range for the calibrated model"
        );
        self.quarantined[class] = quarantined;
    }

    /// The closed loop shared by [`ResilienceSupervisor::serve_batch`] and
    /// [`ResilienceSupervisor::serve_raw_batch`]: `scores` is the batch's
    /// engine pass, `encoded` lazily produces the encoded queries and is
    /// invoked only on a degraded verdict.
    fn serve_scored<'q>(
        &mut self,
        model: &mut TrainedModel,
        scores: &[crate::batch::BatchScore],
        encoded: impl FnOnce() -> Cow<'q, [BinaryHypervector]>,
    ) -> BatchReport {
        assert!(
            self.monitor.baseline().is_some(),
            "supervisor must be calibrated before serving"
        );
        assert_eq!(
            self.quarantined.len(),
            model.num_classes(),
            "model class count changed after calibration"
        );
        self.step += 1;
        let mut answers = Vec::with_capacity(scores.len());
        let mut unreliable = 0usize;
        for score in scores {
            self.monitor.record(&score.confidence);
            // audit:allow(panic): predicted is an argmin over the class axis
            if self.quarantined[score.predicted] {
                unreliable += 1;
                answers.push(None);
            } else {
                answers.push(Some(score.predicted));
            }
        }
        let (verdict, canary_alarm) = self.judged_verdict(model);
        let mut report = BatchReport {
            step: self.step,
            verdict,
            post_verdict: verdict,
            canary_alarm,
            level: self.level,
            escalated: false,
            deescalated: false,
            checkpointed: false,
            rolled_back: false,
            bits_repaired: 0,
            unreliable,
            quarantined: Vec::new(),
            answers,
        };
        match verdict {
            HealthVerdict::Healthy => self.handle_healthy(model, &mut report),
            HealthVerdict::Degraded => {
                let queries = encoded();
                self.handle_degraded(model, &queries, &mut report);
            }
            HealthVerdict::InsufficientTraffic => {}
        }
        report.level = self.level;
        report.quarantined = self.quarantined_classes();
        report
    }

    /// Healthy batch: reset failure tracking, walk back down the ladder
    /// after the hysteresis, checkpoint on schedule, and release any
    /// quarantine — traffic inside the calibration band means the model as
    /// a whole serves correctly again.
    fn handle_healthy(&mut self, model: &TrainedModel, report: &mut BatchReport) {
        self.failed_rounds = 0;
        self.healthy_streak += 1;
        if self.level > 0 && self.healthy_streak >= HYSTERESIS {
            self.level -= 1;
            self.healthy_streak = 0;
            report.deescalated = true;
        }
        self.healthy_since_checkpoint += 1;
        if self.healthy_since_checkpoint >= self.policy.checkpoint_interval {
            self.checkpoint = Some(self.encode_checkpoint(model));
            self.healthy_since_checkpoint = 0;
            report.checkpointed = true;
        }
        for q in &mut self.quarantined {
            *q = false;
        }
    }

    /// Degraded batch: repair at the current rung, update quarantine from
    /// the per-class fault evidence, re-judge, and escalate or roll back on
    /// failure.
    // audit:allow(panic): labels and rung levels are bounded by the class count and ladder length
    fn handle_degraded(
        &mut self,
        model: &mut TrainedModel,
        queries: &[BinaryHypervector],
        report: &mut BatchReport,
    ) {
        self.healthy_streak = 0;
        let rung = self.ladder[self.level];
        self.engine
            .reconfigure(recovery_config_at(&self.engine, rung));
        let classes = model.num_classes();
        let mut inspected = vec![0usize; classes];
        let mut faulty = vec![0usize; classes];
        let mut bits = 0usize;
        for _ in 0..rung.rounds {
            for query in queries {
                let obs = self.engine.observe(model, query);
                if obs.trusted {
                    inspected[obs.confidence.label] += rung.chunks;
                    faulty[obs.confidence.label] += obs.faulty_chunks.len();
                    bits += obs.bits_changed;
                }
            }
        }
        report.bits_repaired = bits;
        for c in 0..classes {
            if inspected[c] >= self.policy.quarantine_min_chunks {
                self.quarantined[c] =
                    faulty[c] as f64 / inspected[c] as f64 > self.policy.quarantine_fault_ceiling;
            }
        }

        // Re-judge on the repaired model: refill the window with
        // post-repair observations of the same traffic, then require the
        // canaries to agree — a repair that only overfitted this batch
        // restores the window but not the canaries, and must count as a
        // failed round rather than a recovery.
        for score in self
            .batch
            .evaluate_batch(model, queries, self.hdc.softmax_beta)
        {
            self.monitor.record(&score.confidence);
        }
        let (post, canary_alarm) = self.judged_verdict(model);
        report.post_verdict = post;
        report.canary_alarm |= canary_alarm;
        if post == HealthVerdict::Degraded {
            self.failed_rounds += 1;
            if self.level + 1 < self.ladder.len() {
                self.level += 1;
                self.total_escalations += 1;
                report.escalated = true;
            }
            if self.failed_rounds >= self.policy.rollback_after && self.checkpoint.is_some() {
                self.roll_back(model);
                report.rolled_back = true;
            }
        } else {
            self.failed_rounds = 0;
        }
    }

    /// The live window verdict hardened by the canary probe: a window that
    /// looks healthy is only trusted when the canary probe agrees. Returns
    /// the combined verdict and whether a canary check raised the alarm on
    /// an otherwise-clean window.
    fn judged_verdict(&mut self, model: &TrainedModel) -> (HealthVerdict, bool) {
        let live = self.monitor.verdict();
        if live != HealthVerdict::Healthy {
            return (live, false);
        }
        self.canary_probe(model)
    }

    /// Probes the retained known-good canaries against `model`: both their
    /// margin statistics ([`HealthMonitor::judge_margins`]) and their
    /// golden-answer agreement must hold. The latter is the only check
    /// that catches a model whose classes were confidently rewritten into a
    /// label permutation: margins recover, answers do not. Returns
    /// `(Degraded, true)` when a canary check fails and `(Healthy, false)`
    /// otherwise.
    ///
    /// The probe is incremental. It compares the model's class words with
    /// a shadow of the words it last scored and re-scores, against every
    /// canary, only the classes that differ (sharded across the batch
    /// engine's workers). When no class differs, it returns the last
    /// verdict. Distances are exact integers and the verdict is derived
    /// exactly as [`ResilienceSupervisor::canary_probe_reference`] derives
    /// it, so the answer is bit-identical to re-scoring everything. The
    /// compare sees every change however it reached the model: an
    /// external bit flip, a repair, a rollback or a different model.
    ///
    /// # Panics
    ///
    /// Panics if [`ResilienceSupervisor::calibrate`] was never called or a
    /// canary's dimension differs from the model's.
    // Out of line on purpose: both verdicts of a batch call it, and two
    // inlined copies of the re-score in the serving loop slowed the repair
    // batches by up to a quarter (perfbench `recovery_soak` p90).
    #[inline(never)]
    pub fn canary_probe(&mut self, model: &TrainedModel) -> (HealthVerdict, bool) {
        let packed = model.packed();
        let classes = packed.num_classes();
        let cache = &mut self.probe;
        let fresh =
            cache.verdict.is_none() || (cache.dim, cache.classes) != (packed.dim(), classes);
        if fresh {
            assert!(
                self.canaries.iter().all(|q| q.dim() == packed.dim()),
                "dimension mismatch in canary probe"
            );
            cache.dim = packed.dim();
            cache.classes = classes;
            cache.shadow.clear();
            cache.shadow.resize(packed.words().len(), 0);
            cache.distances.clear();
            cache.distances.resize(self.canaries.len() * classes, 0);
            cache.verdict = None;
        }
        // Zero-width classes pack no words; their distances stay 0.
        let width = packed.words_per_class().max(1);
        let mut changed = Vec::new();
        let mut rows = Vec::new();
        for (class, (now, seen)) in packed
            .words()
            .chunks_exact(width)
            .zip(cache.shadow.chunks_exact_mut(width))
            .enumerate()
        {
            if fresh || now != seen {
                seen.copy_from_slice(now);
                changed.push(class);
                rows.push(now);
            }
        }
        if let (true, Some(verdict)) = (changed.is_empty(), cache.verdict) {
            return verdict;
        }
        if !rows.is_empty() {
            let fresh_distances = self.batch.row_distances(&rows, &self.canaries);
            for (all, new) in cache
                .distances
                .chunks_exact_mut(classes)
                .zip(fresh_distances.chunks_exact(rows.len()))
            {
                for (&class, &d) in changed.iter().zip(new) {
                    if let Some(slot) = all.get_mut(class) {
                        *slot = d;
                    }
                }
            }
            cache.rescored += changed.len();
        }
        let scores = self.canary_scores();
        let verdict = self.judge_canaries(&scores);
        self.probe.verdict = Some(verdict);
        verdict
    }

    /// The canary probe with no cache: every canary re-scored against
    /// every class. This is the oracle
    /// [`ResilienceSupervisor::canary_probe`] is pinned to. Returns each
    /// canary's `(predicted, margin)` and the probe's verdict.
    ///
    /// # Panics
    ///
    /// Panics if [`ResilienceSupervisor::calibrate`] was never called or a
    /// canary's dimension differs from the model's.
    pub fn canary_probe_reference(
        &self,
        model: &TrainedModel,
    ) -> (Vec<(usize, f64)>, (HealthVerdict, bool)) {
        let packed = model.packed();
        let mut distances = Vec::new();
        let scores: Vec<(usize, f64)> = self
            .canaries
            .iter()
            .map(|canary| {
                packed.hamming_all_into(canary, &mut distances);
                predicted_margin(&distances, packed.dim())
            })
            .collect();
        let verdict = self.judge_canaries(&scores);
        (scores, verdict)
    }

    /// Each canary's `(predicted, margin)` as of the last
    /// [`ResilienceSupervisor::canary_probe`], derived from its cached
    /// distances (empty before the first probe).
    pub fn canary_scores(&self) -> Vec<(usize, f64)> {
        self.probe
            .distances
            .chunks_exact(self.probe.classes.max(1))
            .map(|distances| predicted_margin(distances, self.probe.dim))
            .collect()
    }

    /// The canary verdict on each canary's `(predicted, margin)`: the
    /// margins must pass [`HealthMonitor::judge_margins`] and the answers
    /// must agree with the golden answers often enough.
    fn judge_canaries(&self, scores: &[(usize, f64)]) -> (HealthVerdict, bool) {
        let margins: Vec<f64> = scores.iter().map(|&(_, margin)| margin).collect();
        if self.monitor.judge_margins(margins) == HealthVerdict::Degraded {
            return (HealthVerdict::Degraded, true);
        }
        let agreeing = scores
            .iter()
            .zip(&self.canary_answers)
            .filter(|(&(predicted, _), &golden)| predicted == golden)
            .count();
        let agreement = agreeing as f64 / self.canary_answers.len().max(1) as f64;
        if agreement < CANARY_AGREEMENT_FLOOR {
            (HealthVerdict::Degraded, true)
        } else {
            (HealthVerdict::Healthy, false)
        }
    }

    /// Restores the last healthy checkpoint and resets the loop state.
    fn roll_back(&mut self, model: &mut TrainedModel) {
        let bytes = self
            .checkpoint
            .as_ref()
            .expect("rollback needs a checkpoint"); // audit:allow(panic): the supervisor checkpoints before any rollback
        let saved = persist::decode_model(bytes)
            .expect("healthy checkpoint failed its checksum — checkpoint memory corrupted"); // audit:allow(panic): corrupted checkpoint memory is unrecoverable by design
        *model = saved.model;
        self.failed_rounds = 0;
        self.healthy_streak = 0;
        self.level = 0;
        for q in &mut self.quarantined {
            *q = false;
        }
        // The buffered window statistics describe the pre-rollback model;
        // drop them so the next verdict judges the restored one.
        self.monitor.reset_window();
        self.total_rollbacks += 1;
    }

    /// Serializes the model through the checksummed persist format. The
    /// feature count is checkpoint metadata only; encoder-less deployments
    /// (which pass 0) are clamped to 1 so the checkpoint stays loadable
    /// under the format's plausibility guards.
    fn encode_checkpoint(&self, model: &TrainedModel) -> Vec<u8> {
        let mut bytes = Vec::new();
        persist::save_model(&mut bytes, &self.hdc, self.features.max(1), model)
            .expect("writing to a Vec cannot fail"); // audit:allow(panic): io::Write for Vec is infallible
        bytes
    }
}

/// What the last canary probe saw, so the next one re-scores only the
/// classes whose words changed since. Emptied by calibration.
#[derive(Debug, Default)]
struct ProbeCache {
    /// Dimension of the model the distances were measured against.
    dim: usize,
    /// Class count of that model.
    classes: usize,
    /// Its class-major packed words.
    shadow: Vec<u64>,
    /// Each canary's exact Hamming distance to each class, canary-major.
    distances: Vec<usize>,
    /// The last probe's `(verdict, canary_alarm)`; `None` until the first
    /// probe after calibration.
    verdict: Option<(HealthVerdict, bool)>,
    /// Classes re-scored since calibration.
    rescored: usize,
}

/// Applies an escalation rung on top of the engine's current configuration
/// (substitution mode, fault margin, seed, and chunk gating are preserved).
fn recovery_config_at(engine: &RecoveryEngine, rung: EscalationLevel) -> RecoveryConfig {
    let base = engine.config();
    RecoveryConfig::builder()
        .chunks(rung.chunks)
        .confidence_threshold(rung.confidence_threshold)
        .substitution_rate(rung.substitution_rate)
        .substitution(base.substitution)
        .fault_margin(base.fault_margin)
        .faulty_chunks_only(base.faulty_chunks_only)
        .seed(base.seed)
        .build()
        .expect("the ladder derives from a validated base config") // audit:allow(panic): every rung of the default ladder of a validated base config is valid
}

impl fmt::Debug for ResilienceSupervisor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ResilienceSupervisor")
            .field("level", &self.level)
            .field("failed_rounds", &self.failed_rounds)
            .field("rollbacks", &self.total_rollbacks)
            .field("escalations", &self.total_escalations)
            .field("checkpointed", &self.checkpoint.is_some())
            .field("quarantined", &self.quarantined_classes())
            .finish()
    }
}

/// One step of a soak run: corruption injected, then a batch served.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakStep {
    /// 1-based soak step.
    pub step: usize,
    /// Bits flipped into the model image this step.
    pub bits_flipped: usize,
    /// Cumulative injected corruption as a fraction of the model image
    /// (repair does not subtract — this tracks what the attacker did).
    pub cumulative_error_rate: f64,
    /// Accuracy over the batch, counting unreliable answers as wrong.
    pub accuracy: f64,
    /// The supervisor's batch report.
    pub report: BatchReport,
}

/// Full trace of a soak run.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakReport {
    /// Accuracy of the clean model on the soak traffic.
    pub clean_accuracy: f64,
    /// Per-step trace.
    pub steps: Vec<SoakStep>,
}

impl SoakReport {
    /// Accuracy at the last step (the clean accuracy when no steps ran).
    pub fn final_accuracy(&self) -> f64 {
        self.steps
            .last()
            .map_or(self.clean_accuracy, |s| s.accuracy)
    }

    /// Highest cumulative injected error rate reached.
    pub fn peak_error_rate(&self) -> f64 {
        self.steps
            .iter()
            .map(|s| s.cumulative_error_rate)
            .fold(0.0, f64::max)
    }

    /// Total rollbacks across the run.
    pub fn rollbacks(&self) -> usize {
        self.steps.iter().filter(|s| s.report.rolled_back).count()
    }

    /// Total ladder climbs across the run.
    pub fn escalations(&self) -> usize {
        self.steps.iter().filter(|s| s.report.escalated).count()
    }

    /// Serializes the trace as a single JSON object with a `steps` array
    /// recording every verdict, escalation, checkpoint, and rollback
    /// transition. Written by hand so the trace format is identical with or
    /// without external serialization crates.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"clean_accuracy\":{},\"final_accuracy\":{},\"peak_error_rate\":{},\
             \"rollbacks\":{},\"escalations\":{},\"steps\":[",
            self.clean_accuracy,
            self.final_accuracy(),
            self.peak_error_rate(),
            self.rollbacks(),
            self.escalations()
        );
        for (i, s) in self.steps.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let quarantined = s
                .report
                .quarantined
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join(",");
            let _ = write!(
                out,
                "{{\"step\":{},\"bits_flipped\":{},\"cumulative_error_rate\":{},\
                 \"accuracy\":{},\"verdict\":\"{}\",\"post_verdict\":\"{}\",\
                 \"canary_alarm\":{},\"level\":{},\"escalated\":{},\"deescalated\":{},\
                 \"checkpointed\":{},\"rolled_back\":{},\"bits_repaired\":{},\
                 \"unreliable\":{},\"quarantined\":[{}]}}",
                s.step,
                s.bits_flipped,
                s.cumulative_error_rate,
                s.accuracy,
                verdict_str(s.report.verdict),
                verdict_str(s.report.post_verdict),
                s.report.canary_alarm,
                s.report.level,
                s.report.escalated,
                s.report.deescalated,
                s.report.checkpointed,
                s.report.rolled_back,
                s.report.bits_repaired,
                s.report.unreliable,
                quarantined,
            );
        }
        out.push_str("]}");
        out
    }
}

fn verdict_str(v: HealthVerdict) -> &'static str {
    match v {
        HealthVerdict::Healthy => "healthy",
        HealthVerdict::Degraded => "degraded",
        HealthVerdict::InsufficientTraffic => "insufficient_traffic",
    }
}

/// Drives the closed loop against a corruption process: each step, `corrupt`
/// mutates the model (returning the number of bits it flipped, or `None`
/// when its schedule is exhausted — which ends the soak), then the
/// supervisor serves the full query batch.
///
/// The corruption callback keeps this crate free of a fault-injector
/// dependency; the `faultsim` attack campaigns plug in from the outside.
///
/// # Panics
///
/// Panics if `queries` and `labels` lengths differ, or the supervisor is
/// uncalibrated.
pub fn run_soak<F>(
    supervisor: &mut ResilienceSupervisor,
    model: &mut TrainedModel,
    queries: &[BinaryHypervector],
    labels: &[usize],
    mut corrupt: F,
) -> SoakReport
where
    F: FnMut(&mut TrainedModel, usize) -> Option<usize>,
{
    assert_eq!(queries.len(), labels.len(), "queries and labels must align");
    let clean_accuracy = crate::metrics::accuracy(model, queries, labels);
    let model_bits = (model.num_classes() * model.dim()) as f64;
    let mut steps = Vec::new();
    let mut injected = 0usize;
    let mut step = 0usize;
    while let Some(bits_flipped) = corrupt(model, step) {
        step += 1;
        injected += bits_flipped;
        let report = supervisor.serve_batch(model, queries);
        let correct = report
            .answers
            .iter()
            .zip(labels)
            .filter(|(answer, label)| **answer == Some(**label))
            .count();
        steps.push(SoakStep {
            step,
            bits_flipped,
            cumulative_error_rate: injected as f64 / model_bits,
            accuracy: correct as f64 / labels.len() as f64,
            report,
        });
    }
    SoakReport {
        clean_accuracy,
        steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{HdcConfig, SubstitutionMode};
    use hypervector::random::HypervectorSampler;

    const DIM: usize = 2048;

    fn trained_setup(seed: u64) -> (TrainedModel, Vec<BinaryHypervector>, Vec<usize>, HdcConfig) {
        let mut sampler = HypervectorSampler::seed_from(seed);
        let protos: Vec<_> = (0..3).map(|_| sampler.binary(DIM)).collect();
        let mut encoded = Vec::new();
        let mut labels = Vec::new();
        for i in 0..90 {
            let class = i % 3;
            encoded.push(sampler.flip_noise(&protos[class], 0.15));
            labels.push(class);
        }
        let cfg = HdcConfig::builder().dimension(DIM).build().expect("valid");
        let model = TrainedModel::train(&encoded, &labels, 3, &cfg);
        (model, encoded, labels, cfg)
    }

    fn base_recovery() -> RecoveryConfig {
        RecoveryConfig::builder()
            .confidence_threshold(0.45)
            .substitution_rate(0.5)
            .substitution(SubstitutionMode::MajorityCounter { saturation: 3 })
            .seed(1)
            .build()
            .expect("valid")
    }

    fn supervisor(policy: SupervisorConfig, cfg: &HdcConfig) -> ResilienceSupervisor {
        ResilienceSupervisor::new(cfg, base_recovery(), policy, 0)
    }

    #[test]
    fn healthy_traffic_checkpoints_and_stays_at_level_zero() {
        let (mut model, queries, _, cfg) = trained_setup(1);
        let policy = SupervisorConfig::builder()
            .window(30)
            .sensitivity(0.6)
            .build()
            .expect("valid");
        let mut sup = supervisor(policy, &cfg);
        sup.calibrate(&model, &queries);
        let report = sup.serve_batch(&mut model, &queries);
        assert_eq!(report.verdict, HealthVerdict::Healthy);
        assert!(report.checkpointed);
        assert!(!report.escalated && !report.rolled_back);
        assert_eq!(sup.level(), 0);
        assert_eq!(report.unreliable, 0);
        assert!(report.answers.iter().all(|a| a.is_some()));
        assert!(sup
            .checkpoint_bytes()
            .expect("checkpointed")
            .starts_with(b"RHD2"));
    }

    #[test]
    fn unrecoverable_damage_escalates_then_rolls_back() {
        let (mut model, queries, labels, cfg) = trained_setup(2);
        let clean = model.clone();
        let policy = SupervisorConfig::builder()
            .window(30)
            .sensitivity(0.6)
            .rollback_after(3)
            .build()
            .expect("valid");
        let mut sup = supervisor(policy, &cfg);
        sup.calibrate(&model, &queries);

        // Replace two of three class vectors with pure noise: no recovery
        // rung can rebuild them (their queries no longer produce trusted
        // traffic predicted into them), so the loop must climb the ladder
        // and finally restore the checkpoint.
        let mut sampler = HypervectorSampler::seed_from(5);
        *model.class_mut(1) = sampler.binary(DIM);
        *model.class_mut(2) = sampler.binary(DIM);

        let mut escalated = false;
        let mut rolled_back = false;
        for _ in 0..6 {
            let report = sup.serve_batch(&mut model, &queries);
            escalated |= report.escalated;
            if report.rolled_back {
                rolled_back = true;
                break;
            }
            assert_eq!(report.verdict, HealthVerdict::Degraded);
        }
        assert!(escalated, "ladder never climbed");
        assert!(rolled_back, "rollback never triggered");
        assert_eq!(sup.level(), 0, "rollback resets the ladder");
        assert_eq!(model, clean, "rollback must restore the checkpoint bits");
        let acc = crate::metrics::accuracy(&model, &queries, &labels);
        assert!(acc > 0.95, "restored model must serve correctly: {acc}");
    }

    #[test]
    fn concentrated_class_damage_is_quarantined_until_healthy() {
        let (mut model, queries, _, cfg) = trained_setup(3);
        let policy = SupervisorConfig::builder()
            .window(30)
            .sensitivity(0.85)
            // Repair starts fixing the dead chunks mid-batch, which dilutes
            // the averaged fault rate; a low ceiling still separates the
            // damaged class (~0.1) from healthy ones (~0).
            .quarantine_fault_ceiling(0.05)
            .quarantine_min_chunks(20)
            .rollback_after(10)
            .build()
            .expect("valid");
        let mut sup = supervisor(policy, &cfg);
        sup.calibrate(&model, &queries);

        // Annihilate 8 of 20 chunks of class 0: its queries still reach it
        // (margins depressed, verdict degrades) and every trusted one flags
        // the dead chunks, pushing the class fault rate over the ceiling.
        let m = base_recovery().chunks;
        for chunk in 0..8 {
            for i in (chunk * DIM / m)..((chunk + 1) * DIM / m) {
                model.class_mut(0).flip(i);
            }
        }

        let first = sup.serve_batch(&mut model, &queries);
        assert_eq!(first.verdict, HealthVerdict::Degraded);
        assert!(
            first.quarantined.contains(&0),
            "class 0 not quarantined: {:?}",
            first.quarantined
        );
        // Keep serving: quarantined answers are reported unreliable, and
        // once repair brings the verdict back to healthy the quarantine
        // lifts.
        let mut saw_unreliable = false;
        let mut released = false;
        for _ in 0..8 {
            let report = sup.serve_batch(&mut model, &queries);
            saw_unreliable |= report.unreliable > 0;
            if report.verdict == HealthVerdict::Healthy && report.quarantined.is_empty() {
                released = true;
                break;
            }
        }
        assert!(
            saw_unreliable,
            "quarantine never produced unreliable answers"
        );
        assert!(released, "quarantine never released after repair");
    }

    #[test]
    fn soak_report_json_records_transitions() {
        let (mut model, queries, labels, cfg) = trained_setup(4);
        let policy = SupervisorConfig::builder()
            .window(30)
            .sensitivity(0.6)
            .build()
            .expect("valid");
        let mut sup = supervisor(policy, &cfg);
        sup.calibrate(&model, &queries);
        let mut sampler = HypervectorSampler::seed_from(7);
        let report = run_soak(&mut sup, &mut model, &queries, &labels, |model, step| {
            match step {
                0 => Some(0),
                1 => {
                    // Light diffuse noise on one class.
                    let noisy = sampler.flip_noise(model.class(0), 0.05);
                    *model.class_mut(0) = noisy;
                    Some(DIM / 20)
                }
                _ => None,
            }
        });
        assert_eq!(report.steps.len(), 2);
        assert!(report.clean_accuracy > 0.9);
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        for key in [
            "\"clean_accuracy\":",
            "\"steps\":[",
            "\"verdict\":\"healthy\"",
            "\"level\":",
            "\"rolled_back\":",
            "\"cumulative_error_rate\":",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn supervisor_loop_is_deterministic() {
        let run = || {
            let (mut model, queries, labels, cfg) = trained_setup(5);
            let policy = SupervisorConfig::builder()
                .window(30)
                .sensitivity(0.6)
                .build()
                .expect("valid");
            let mut sup = supervisor(policy, &cfg);
            sup.calibrate(&model, &queries);
            let mut sampler = HypervectorSampler::seed_from(9);
            let report = run_soak(&mut sup, &mut model, &queries, &labels, |model, step| {
                if step >= 4 {
                    return None;
                }
                for c in 0..3 {
                    let noisy = sampler.flip_noise(model.class(c), 0.04);
                    *model.class_mut(c) = noisy;
                }
                Some(3 * DIM / 25)
            });
            (model, report.to_json())
        };
        let (m1, j1) = run();
        let (m2, j2) = run();
        assert_eq!(m1, m2);
        assert_eq!(j1, j2);
    }

    #[test]
    fn canary_probe_rescores_only_changed_classes() {
        let mut sampler = HypervectorSampler::seed_from(8);
        let protos: Vec<_> = (0..5).map(|_| sampler.binary(DIM)).collect();
        let canaries: Vec<_> = (0..40)
            .map(|i| sampler.flip_noise(&protos[i % 5], 0.15))
            .collect();
        let cfg = HdcConfig::builder().dimension(DIM).build().expect("valid");
        let mut model = TrainedModel::from_classes(protos);
        let mut sup = supervisor(SupervisorConfig::default(), &cfg);
        sup.calibrate(&model, &canaries);
        let probe = |sup: &mut ResilienceSupervisor, model: &TrainedModel| {
            let before = sup.probe_rescored_classes();
            let verdict = sup.canary_probe(model);
            assert_eq!(verdict, sup.canary_probe_reference(model).1);
            sup.probe_rescored_classes() - before
        };
        assert_eq!(probe(&mut sup, &model), 5, "first probe scores every class");
        assert_eq!(probe(&mut sup, &model), 0, "unchanged model");
        model.class_mut(3).flip(17);
        assert_eq!(probe(&mut sup, &model), 1, "one bit flipped in class 3");
        model.class_mut(3).flip(99);
        model.class_mut(3).flip(99);
        assert_eq!(probe(&mut sup, &model), 0, "flip undone before the probe");
        sup.calibrate(&model, &canaries);
        assert_eq!(
            sup.probe_rescored_classes(),
            0,
            "calibration drops the cache"
        );
        assert_eq!(probe(&mut sup, &model), 5);
    }

    #[test]
    #[should_panic(expected = "calibrated before serving")]
    fn serving_uncalibrated_panics() {
        let (mut model, queries, _, cfg) = trained_setup(6);
        let mut sup = supervisor(SupervisorConfig::default(), &cfg);
        sup.serve_batch(&mut model, &queries);
    }
}
