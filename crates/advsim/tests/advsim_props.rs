//! Property suite for the adversarial scenario engine, pinning the
//! [`advsim::AttackBudget`]-governed attacker to its contract: the hard
//! Hamming budget (metamorphic — the adversarial output never leaves the
//! ball, at any radius), seeded determinism at any engine thread count,
//! and lossless corpus text round-tripping.

use advsim::{
    AttackBudget, DisagreementCase, DisagreementCorpus, DisagreementHunter, HuntBudget,
    MarginAttacker,
};
use hypervector::random::HypervectorSampler;
use hypervector::BinaryHypervector;
use proptest::prelude::*;
use robusthd::{BatchConfig, BatchEngine, Encoder, HdcConfig, RecordEncoder, TrainedModel};

fn engine(threads: usize) -> BatchEngine {
    BatchEngine::new(
        BatchConfig::builder()
            .threads(threads)
            .shard_size(5)
            .build()
            .expect("valid"),
    )
}

fn fixture(dim: usize) -> (TrainedModel, Vec<BinaryHypervector>) {
    let mut sampler = HypervectorSampler::seed_from(17);
    let classes: Vec<_> = (0..3).map(|_| sampler.binary(dim)).collect();
    let queries: Vec<_> = (0..6)
        .map(|i| sampler.flip_noise(&classes[i % 3], 0.25))
        .collect();
    (TrainedModel::from_classes(classes), queries)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Metamorphic budget property: whatever the radius, candidate width,
    /// or seed — all fed through [`AttackBudget`] — the adversarial query
    /// stays inside the Hamming ball, its distance from the original is
    /// exactly the accepted flip count, and no position is flipped twice or
    /// lands out of range. Dimension 250 exercises a non-word-aligned tail.
    #[test]
    fn attack_never_leaves_the_hamming_ball(
        radius in 0usize..48,
        candidates in 1usize..24,
        seed in any::<u64>(),
    ) {
        let (model, queries) = fixture(250);
        let engine = engine(2);
        let budget = AttackBudget::new(radius).with_candidates(candidates).with_seed(seed);
        let attacker = MarginAttacker::new(budget);
        for (i, q) in queries.iter().take(3).enumerate() {
            let attack = attacker.attack(&engine, &model, q, 64.0, i);
            prop_assert!(attack.flipped_bits.len() <= radius);
            prop_assert_eq!(
                q.hamming_distance(&attack.adversarial),
                attack.flipped_bits.len()
            );
            let mut sorted = attack.flipped_bits.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), attack.flipped_bits.len(), "revisited a position");
            prop_assert!(attack.flipped_bits.iter().all(|&p| p < 250));
        }
    }

    /// The ADVC1 corpus text format round-trips bit-exactly: every f64 row
    /// value survives via its raw bits, verdicts and provenance verbatim.
    /// Each feature is drawn from a mix of uniform values and adversarial
    /// literals (exact bounds, `0.1 + 0.2`, the smallest positive normal).
    #[test]
    fn corpus_text_roundtrips(
        rows in prop::collection::vec(
            prop::collection::vec((0u8..5, 0.0f64..=1.0), 3),
            0..6,
        ),
        verdict in 0usize..4,
    ) {
        let mut corpus = DisagreementCorpus::new(vec!["a".to_owned(), "b".to_owned()]);
        for (i, row) in rows.iter().enumerate() {
            let row: Vec<f64> = row
                .iter()
                .map(|&(pick, uniform)| match pick {
                    0 => 0.0,
                    1 => 1.0,
                    2 => 0.1f64 + 0.2f64,
                    3 => f64::MIN_POSITIVE,
                    _ => uniform,
                })
                .collect();
            corpus.cases.push(DisagreementCase {
                seed_index: i,
                round: i % 3,
                row,
                verdicts: vec![verdict, (verdict + 1) % 4],
            });
        }
        let parsed = DisagreementCorpus::from_text(&corpus.to_text()).expect("well-formed");
        prop_assert_eq!(parsed, corpus);
    }
}

/// The attack is a pure function of `(budget, model, query, beta, index)`:
/// the engine's thread count must not leak into any field, down to the
/// `f64` margins the greedy search descends on.
#[test]
fn attack_is_identical_across_thread_counts() {
    let (model, queries) = fixture(512);
    let budget = AttackBudget::new(32).with_seed(13);
    let attacker = MarginAttacker::new(budget);
    let single = attacker.attack_batch(&engine(1), &model, &queries, 64.0);
    let parallel = attacker.attack_batch(&engine(4), &model, &queries, 64.0);
    assert_eq!(single.len(), parallel.len());
    for (a, b) in single.iter().zip(&parallel) {
        assert_eq!(a, b, "thread count leaked into the attack");
        assert_eq!(a.margin_after.to_bits(), b.margin_after.to_bits());
        assert_eq!(a.confidence_after.to_bits(), b.confidence_after.to_bits());
    }
}

/// The disagreement hunt is likewise thread-count invariant: the corpus it
/// produces (rows, rounds, verdicts) is identical at 1 and 4 workers.
#[test]
fn hunt_is_identical_across_thread_counts() {
    let config = HdcConfig::builder()
        .dimension(1024)
        .seed(29)
        .build()
        .expect("valid");
    let refined = HdcConfig::builder()
        .dimension(1024)
        .seed(29)
        .retrain_epochs(3)
        .build()
        .expect("valid");
    let encoder = RecordEncoder::new(&config, 5);
    let rows: Vec<Vec<f64>> = (0..24)
        .map(|i| {
            let base = if i % 2 == 0 { 0.3 } else { 0.7 };
            (0..5).map(|f| base + 0.03 * f as f64).collect()
        })
        .collect();
    let labels: Vec<usize> = (0..24).map(|i| i % 2).collect();
    let encoded = encoder.encode_batch(&rows);
    let one_shot = TrainedModel::train(&encoded, &labels, 2, &config);
    let retrained = TrainedModel::train(&encoded, &labels, 2, &refined);
    let variants = [("one-shot", &one_shot), ("retrained", &retrained)];
    let hunter = DisagreementHunter::new(HuntBudget::new(5, 10));
    let a = hunter.hunt(&engine(1), &encoder, &variants, &rows, config.softmax_beta);
    let b = hunter.hunt(&engine(4), &encoder, &variants, &rows, config.softmax_beta);
    assert_eq!(a, b, "thread count leaked into the hunt");
}

/// `AttackBudget::new` keeps the documented search defaults: 64
/// candidates per round and base seed 0.
#[test]
fn default_budget_uses_64_candidates_and_seed_0() {
    let budget = AttackBudget::new(7);
    assert_eq!((budget.radius, budget.candidates, budget.seed), (7, 64, 0));
}
