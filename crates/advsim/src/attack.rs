//! Gradient-free query-space attack synthesis.
//!
//! The attacker model follows adversarial attacks on HDC classifiers
//! (Yang & Ren, arXiv 2006.05594): the adversary holds an encoded query,
//! may flip at most `radius` of its bits (a hard Hamming ball), and
//! observes nothing but the classifier's blackbox output — the per-class
//! softmax probabilities and margin of [`robusthd::Confidence`]. No
//! gradients exist (the model is binary) and none are needed: because
//! every stored bit contributes one Hamming vote, the margin responds
//! almost linearly to single-bit flips, so a greedy coordinate descent on
//! the margin is close to the strongest attack this query model admits.
//!
//! Each search round samples a batch of fresh candidate positions, scores
//! *all* of them in one [`robusthd::BatchEngine`] pass (the serving fast
//! path — the attack is as parallel as the defender), keeps the flip that
//! shrinks the margin most, and stops on label flip, budget exhaustion,
//! or stall. Positions are never revisited, so the output's Hamming
//! distance from the input always equals the number of accepted flips —
//! the metamorphic budget property pinned by `tests/advsim_props.rs`.

use hypervector::BinaryHypervector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use robusthd::{BatchEngine, TrainedModel};

/// Odd 64-bit multiplier decorrelating per-query search streams from the
/// campaign's base seed (golden-ratio constant, as in SplitMix64).
const SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// The attacker's resources: a hard Hamming-ball radius, the candidate
/// batch width per greedy round, and the base seed.
///
/// # Example
///
/// ```
/// use advsim::AttackBudget;
///
/// let budget = AttackBudget::new(32).with_candidates(16).with_seed(9);
/// assert_eq!((budget.radius, budget.candidates, budget.seed), (32, 16, 9));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttackBudget {
    /// Maximum bits the adversary may flip per query (the Hamming-ball
    /// radius — never exceeded, enforced structurally by the search).
    pub radius: usize,
    /// Candidate positions scored per greedy round, in one batched engine
    /// pass.
    pub candidates: usize,
    /// Base seed; per-query streams derive from it and the query index.
    pub seed: u64,
}

impl AttackBudget {
    /// A budget of `radius` bit flips with the default search tuning: 64
    /// candidates per greedy round and base seed 0.
    pub fn new(radius: usize) -> Self {
        Self {
            radius,
            candidates: 64,
            seed: 0,
        }
    }

    /// Replaces the candidate batch width (clamped to at least 1).
    pub fn with_candidates(mut self, candidates: usize) -> Self {
        self.candidates = candidates.max(1);
        self
    }

    /// Replaces the base seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// The outcome of attacking one query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryAttack {
    /// The perturbed query (within `radius` Hamming of the original).
    pub adversarial: BinaryHypervector,
    /// Accepted flip positions, in acceptance order. Its length *is* the
    /// Hamming distance to the original — positions are never revisited.
    pub flipped_bits: Vec<usize>,
    /// Whether the predicted label changed.
    pub success: bool,
    /// The clean model prediction on the unperturbed query.
    pub original_label: usize,
    /// The prediction on the adversarial query (equals `original_label`
    /// when the attack failed).
    pub adversarial_label: usize,
    /// The runner-up class of the clean prediction — the natural flip
    /// target the greedy descent drifts toward (`None` for single-class
    /// models).
    pub target_label: Option<usize>,
    /// Blackbox queries spent: every candidate scored, plus the baseline.
    pub queries_spent: usize,
    /// Raw similarity margin of the clean prediction.
    pub margin_before: f64,
    /// Raw similarity margin of the final adversarial prediction.
    pub margin_after: f64,
    /// Softmax confidence of the final adversarial prediction — what the
    /// supervisor's trust gate sees.
    pub confidence_after: f64,
}

impl QueryAttack {
    /// Whether the supervisor's confidence gate at threshold `t_c` would
    /// refuse to trust the adversarial prediction (the detection event the
    /// soak harness counts).
    pub fn is_detected(&self, t_c: f64) -> bool {
        self.confidence_after < t_c
    }
}

/// Greedy margin-guided bit-flip attacker (see the module docs).
///
/// Deterministic: for a fixed budget, the attack on query index `i` is a
/// pure function of `(model, query, beta, i)` — candidate scoring goes
/// through the bit-identical batch engine, candidate positions come from
/// a per-query seeded stream, and ties break toward the lowest position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MarginAttacker {
    budget: AttackBudget,
}

impl MarginAttacker {
    /// Creates an attacker with the given budget.
    pub fn new(budget: AttackBudget) -> Self {
        Self { budget }
    }

    /// The attacker's budget.
    pub fn budget(&self) -> &AttackBudget {
        &self.budget
    }

    /// Attacks one query: greedy margin descent inside the Hamming ball.
    ///
    /// `index` is the query's position in its campaign, decorrelating the
    /// per-query search streams; `beta` is the confidence softmax inverse
    /// temperature (use the model's `HdcConfig::softmax_beta`).
    ///
    /// # Panics
    ///
    /// Panics if the query dimension is zero or differs from the model's,
    /// or `beta` is not positive and finite.
    pub fn attack(
        &self,
        engine: &BatchEngine,
        model: &TrainedModel,
        query: &BinaryHypervector,
        beta: f64,
        index: usize,
    ) -> QueryAttack {
        let dim = query.dim();
        assert!(dim > 0, "cannot attack a zero-dimensional query");
        // Score the baseline through the engine so the label carries
        // `TrainedModel::predict`'s tie-break (lowest label), exactly as
        // the serving path will see it.
        let Some(baseline) = engine
            .evaluate_batch(model, std::slice::from_ref(query), beta)
            .pop()
        else {
            unreachable!("one query in, one score out");
        };
        let original_label = baseline.predicted;
        let target_label = baseline.confidence.runner_up();
        let margin_before = baseline.confidence.margin;

        let mut rng =
            StdRng::seed_from_u64(self.budget.seed ^ (index as u64).wrapping_mul(SEED_STRIDE));
        let mut adversarial = query.clone();
        let mut flipped_bits: Vec<usize> = Vec::new();
        let mut touched = vec![false; dim];
        let mut predicted = baseline.predicted;
        let mut current = baseline.confidence;
        let mut queries_spent = 1usize; // the baseline observation

        while flipped_bits.len() < self.budget.radius && predicted == original_label {
            let fresh = dim - flipped_bits.len();
            let width = self.budget.candidates.min(fresh);
            if width == 0 {
                break;
            }
            // Sample `width` distinct untouched positions, then sort them so
            // the strict-improvement fold below breaks ties toward the
            // lowest position — the search stays order-deterministic.
            let mut positions = Vec::with_capacity(width);
            let mut staged = vec![false; dim];
            while positions.len() < width {
                let pos = rng.random_range(0..dim);
                if !touched[pos] && !staged[pos] {
                    staged[pos] = true;
                    positions.push(pos);
                }
            }
            positions.sort_unstable();

            let candidates: Vec<BinaryHypervector> = positions
                .iter()
                .map(|&pos| {
                    let mut cand = adversarial.clone();
                    cand.flip(pos);
                    cand
                })
                .collect();
            let scores = engine.evaluate_batch(model, &candidates, beta);
            queries_spent += scores.len();

            let current_objective = attack_objective(predicted, current.margin, original_label);
            let mut best: Option<(usize, f64)> = None;
            for (i, score) in scores.iter().enumerate() {
                let objective =
                    attack_objective(score.predicted, score.confidence.margin, original_label);
                let improves = match best {
                    None => objective < current_objective,
                    Some((_, so_far)) => objective < so_far,
                };
                if improves {
                    best = Some((i, objective));
                }
            }
            let Some((chosen, _)) = best else {
                break; // stalled: no candidate strictly shrinks the margin
            };
            let pos = positions[chosen];
            adversarial.flip(pos);
            touched[pos] = true;
            flipped_bits.push(pos);
            predicted = scores[chosen].predicted;
            current = scores[chosen].confidence.clone();
        }

        let success = predicted != original_label;
        QueryAttack {
            adversarial,
            flipped_bits,
            success,
            original_label,
            adversarial_label: predicted,
            target_label,
            queries_spent,
            margin_before,
            margin_after: current.margin,
            confidence_after: current.confidence,
        }
    }

    /// Attacks every query in a batch, threading the query index into each
    /// per-query seed stream. Results are in query order.
    pub fn attack_batch(
        &self,
        engine: &BatchEngine,
        model: &TrainedModel,
        queries: &[BinaryHypervector],
        beta: f64,
    ) -> Vec<QueryAttack> {
        queries
            .iter()
            .enumerate()
            .map(|(i, q)| self.attack(engine, model, q, beta, i))
            .collect()
    }
}

/// The quantity the greedy descent minimizes: the signed margin — positive
/// while the original label still wins (shrink it), negative once the
/// label flipped (deepen the flip). Strictly decreasing this can only move
/// the query toward, then across, the decision boundary.
fn attack_objective(predicted: usize, margin: f64, original_label: usize) -> f64 {
    if predicted == original_label {
        margin
    } else {
        -margin
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypervector::random::HypervectorSampler;

    fn fixture(dim: usize) -> (TrainedModel, Vec<BinaryHypervector>) {
        let mut sampler = HypervectorSampler::seed_from(41);
        let classes: Vec<_> = (0..4).map(|_| sampler.binary(dim)).collect();
        let queries: Vec<_> = (0..12)
            .map(|i| sampler.flip_noise(&classes[i % 4], 0.25))
            .collect();
        (TrainedModel::from_classes(classes), queries)
    }

    #[test]
    fn attack_never_exceeds_budget_and_distance_equals_flips() {
        let (model, queries) = fixture(1024);
        let engine = BatchEngine::from_env();
        let attacker = MarginAttacker::new(AttackBudget::new(24).with_candidates(16).with_seed(3));
        for (i, q) in queries.iter().enumerate() {
            let attack = attacker.attack(&engine, &model, q, 64.0, i);
            assert!(attack.flipped_bits.len() <= 24);
            assert_eq!(
                q.hamming_distance(&attack.adversarial),
                attack.flipped_bits.len()
            );
        }
    }

    #[test]
    fn attack_is_deterministic_per_seed_and_index() {
        let (model, queries) = fixture(512);
        let engine = BatchEngine::from_env();
        let attacker = MarginAttacker::new(AttackBudget::new(16).with_candidates(8).with_seed(5));
        let a = attacker.attack(&engine, &model, &queries[0], 64.0, 0);
        let b = attacker.attack(&engine, &model, &queries[0], 64.0, 0);
        assert_eq!(a, b);
        let c = attacker.attack(&engine, &model, &queries[0], 64.0, 1);
        assert_ne!(a.flipped_bits, c.flipped_bits, "index decorrelates streams");
    }

    #[test]
    fn successful_attack_changes_the_model_prediction() {
        let (model, queries) = fixture(512);
        let engine = BatchEngine::from_env();
        // A huge budget on a small model flips essentially every query.
        let attacker = MarginAttacker::new(AttackBudget::new(256).with_candidates(32).with_seed(7));
        let attacks = attacker.attack_batch(&engine, &model, &queries, 64.0);
        let successes = attacks.iter().filter(|a| a.success).count();
        assert!(successes * 2 > attacks.len(), "{successes}/12 succeeded");
        for attack in attacks.iter().filter(|a| a.success) {
            assert_eq!(model.predict(&attack.adversarial), attack.adversarial_label);
            assert_ne!(attack.adversarial_label, attack.original_label);
        }
    }

    #[test]
    fn zero_radius_spends_no_flips() {
        let (model, queries) = fixture(256);
        let engine = BatchEngine::from_env();
        let attacker = MarginAttacker::new(AttackBudget::new(0).with_seed(1));
        let attack = attacker.attack(&engine, &model, &queries[0], 64.0, 0);
        assert!(attack.flipped_bits.is_empty());
        assert!(!attack.success);
        assert_eq!(attack.adversarial, queries[0]);
        assert_eq!(attack.queries_spent, 1);
    }

    #[test]
    fn single_class_model_cannot_be_flipped() {
        let mut sampler = HypervectorSampler::seed_from(9);
        let model = TrainedModel::from_classes(vec![sampler.binary(256)]);
        let query = sampler.binary(256);
        let engine = BatchEngine::from_env();
        let attacker = MarginAttacker::new(AttackBudget::new(64).with_seed(2));
        let attack = attacker.attack(&engine, &model, &query, 64.0, 0);
        assert!(!attack.success);
        assert_eq!(attack.target_label, None);
        assert!(attack.flipped_bits.is_empty(), "zero margin cannot shrink");
    }

    #[test]
    fn detection_gate_matches_confidence_threshold() {
        let (model, queries) = fixture(512);
        let engine = BatchEngine::from_env();
        let attacker = MarginAttacker::new(AttackBudget::new(64).with_seed(11));
        let attack = attacker.attack(&engine, &model, &queries[2], 64.0, 2);
        assert!(attack.is_detected(attack.confidence_after + 1e-9));
        assert!(!attack.is_detected(attack.confidence_after - 1e-9));
    }
}
