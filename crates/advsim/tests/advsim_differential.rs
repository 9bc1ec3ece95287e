//! Differential suite for the adversarial scenario engine: a persisted
//! disagreement corpus must replay **bit-identically** — the fast encoder
//! against the scalar reference encoder, batched scoring against
//! sequential [`robusthd::Confidence::evaluate`] (down to `f64::to_bits`
//! on every confidence and margin), and recorded verdicts against live
//! models — at any engine thread count. The attacker's tuning flows
//! through [`robusthd::AdvConfig`]; its serving-path purity is what makes
//! "replayable" a theorem rather than a hope.

use advsim::{DisagreementCorpus, DisagreementHunter, HuntBudget};
use faultsim::Attacker;
use robusthd::{
    AdvConfig, BatchConfig, BatchEngine, Encoder, HdcConfig, RecordEncoder, TrainedModel,
};

fn engine(threads: usize) -> BatchEngine {
    BatchEngine::new(
        BatchConfig::builder()
            .threads(threads)
            .shard_size(7)
            .build()
            .expect("valid"),
    )
}

struct Fixture {
    config: HdcConfig,
    encoder: RecordEncoder,
    one_shot: TrainedModel,
    attacked: TrainedModel,
    rows: Vec<Vec<f64>>,
}

/// A workload guaranteed to yield disagreements: the one-shot model vs a
/// memory-corrupted copy of itself. Dimension 1000 leaves a 40-bit word
/// tail, so the replay also covers mask handling.
fn fixture() -> Fixture {
    let config = HdcConfig::builder()
        .dimension(1000)
        .seed(47)
        .build()
        .expect("valid");
    let encoder = RecordEncoder::new(&config, 6);
    let rows: Vec<Vec<f64>> = (0..32)
        .map(|i| {
            let base = if i % 2 == 0 { 0.25 } else { 0.75 };
            (0..6)
                .map(|f| base + 0.02 * f as f64 * if i % 3 == 0 { 1.0 } else { -1.0 })
                .collect()
        })
        .collect();
    let labels: Vec<usize> = (0..32).map(|i| i % 2).collect();
    let encoded = encoder.encode_batch(&rows);
    let one_shot = TrainedModel::train(&encoded, &labels, 2, &config);
    let mut attacked = one_shot.clone();
    let mut image = attacked.to_memory_image();
    let bits = attacked.num_classes() * attacked.dim();
    Attacker::seed_from(3).random_flips(image.words_mut(), bits, 0.3);
    image.mask_tail();
    attacked.load_memory_image(&image);
    Fixture {
        config,
        encoder,
        one_shot,
        attacked,
        rows,
    }
}

/// Hunt → persist → parse → replay: the round-tripped corpus replays
/// clean (no encode, score, or verdict mismatches) through the fast and
/// reference encoder pair, and the replay verdict is the same at 1 and 4
/// engine threads.
#[test]
fn persisted_corpus_replays_bit_identically() {
    let f = fixture();
    let beta = f.config.softmax_beta;
    let variants = [("one-shot", &f.one_shot), ("attacked", &f.attacked)];
    let hunter = DisagreementHunter::new(
        HuntBudget::new(6, 12)
            .with_feature_step(0.15)
            .with_seed(AdvConfig::default().seed),
    );
    let corpus = hunter.hunt(&engine(3), &f.encoder, &variants, &f.rows, beta);
    assert!(
        !corpus.cases.is_empty(),
        "a 30%-corrupted copy must disagree somewhere"
    );

    let parsed = DisagreementCorpus::from_text(&corpus.to_text()).expect("well-formed");
    assert_eq!(parsed, corpus, "text round trip must be lossless");

    for threads in [1usize, 4] {
        let report = parsed.replay(&engine(threads), &f.encoder, &variants, beta);
        assert_eq!(report.cases, corpus.cases.len());
        assert!(
            report.is_clean(),
            "replay at {threads} threads not bit-exact: {report:?}"
        );
    }
}

/// The corpus's recorded verdicts match what each live variant predicts on
/// the reference (sequential, scalar) path — the recorded disagreements
/// are properties of the models, not artifacts of the batched search.
#[test]
fn recorded_verdicts_hold_on_the_reference_path() {
    let f = fixture();
    let beta = f.config.softmax_beta;
    let variants = [("one-shot", &f.one_shot), ("attacked", &f.attacked)];
    let hunter =
        DisagreementHunter::new(HuntBudget::new(6, 12).with_feature_step(0.15).with_seed(11));
    let corpus = hunter.hunt(&engine(2), &f.encoder, &variants, &f.rows, beta);
    assert!(!corpus.cases.is_empty(), "hunt came up empty");
    for case in &corpus.cases {
        let hv = f.encoder.encode_reference(&case.row);
        assert_eq!(f.one_shot.predict(&hv), case.verdicts[0]);
        assert_eq!(f.attacked.predict(&hv), case.verdicts[1]);
        assert_ne!(case.verdicts[0], case.verdicts[1], "not a disagreement");
    }
}
