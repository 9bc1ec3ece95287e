//! Persisted, replayable disagreement corpora.
//!
//! A disagreement found by the [`crate::DisagreementHunter`] is only
//! useful if it can be *replayed* — re-run later (after a fix, on another
//! machine, in CI) and produce exactly the same verdicts. That demands
//! exact feature values: a decimal round-trip that perturbs one ULP can
//! move a feature across a quantization-level boundary and silently
//! change the encoded hypervector. The `ADVC1` text format therefore
//! stores every feature as the hexadecimal of its [`f64::to_bits`], and
//! [`DisagreementCorpus::replay`] checks the round trip all the way down:
//! the fast encoder and its scalar oracle
//! ([`RecordEncoder::encode_reference`]) must produce identical
//! hypervectors, the
//! batched engine must match sequential scoring to the bit
//! ([`f64::to_bits`] on confidence and margin), and every variant must
//! reproduce its recorded verdict.

use robusthd::{BatchEngine, Confidence, RecordEncoder, TrainedModel};
use std::error::Error;
use std::fmt;

/// Magic first line of the corpus text format.
const MAGIC: &str = "ADVC1";

/// One input on which the model variants disagreed.
#[derive(Debug, Clone, PartialEq)]
pub struct DisagreementCase {
    /// Index of the seed row the hunt started from.
    pub seed_index: usize,
    /// Hill-climb round that produced the disagreement (0 = the seed row
    /// itself already disagreed).
    pub round: usize,
    /// The raw feature row (exact `f64` values).
    pub row: Vec<f64>,
    /// Predicted label per variant, in corpus variant order. Not all
    /// equal — that is what makes it a disagreement.
    pub verdicts: Vec<usize>,
}

/// A set of disagreement cases plus the variant names they refer to.
///
/// # Example
///
/// ```
/// use advsim::DisagreementCorpus;
///
/// let corpus = DisagreementCorpus::new(vec!["one-shot".into(), "retrained".into()]);
/// let text = corpus.to_text();
/// let parsed = DisagreementCorpus::from_text(&text).expect("round trip");
/// assert_eq!(corpus, parsed);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DisagreementCorpus {
    /// Names of the model variants, in verdict order. Names must be free
    /// of whitespace (they are space-separated in the text format).
    pub variants: Vec<String>,
    /// The recorded disagreements.
    pub cases: Vec<DisagreementCase>,
}

/// Error parsing a corpus from its text form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusError {
    message: String,
}

impl CorpusError {
    fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for CorpusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed disagreement corpus: {}", self.message)
    }
}

impl Error for CorpusError {}

impl DisagreementCorpus {
    /// An empty corpus over the given variant names.
    ///
    /// # Panics
    ///
    /// Panics if any variant name contains whitespace or is empty.
    pub fn new(variants: Vec<String>) -> Self {
        for name in &variants {
            assert!(
                !name.is_empty() && !name.chars().any(char::is_whitespace),
                "variant name {name:?} must be non-empty and whitespace-free"
            );
        }
        Self {
            variants,
            cases: Vec::new(),
        }
    }

    /// Serializes to the `ADVC1` text format (exact `f64` bits, one case
    /// per 3-line record). Stable across platforms and rust versions.
    pub fn to_text(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        out.push_str(MAGIC);
        out.push('\n');
        out.push_str("variants");
        for name in &self.variants {
            out.push(' ');
            out.push_str(name);
        }
        out.push('\n');
        for case in &self.cases {
            let _ = writeln!(out, "case {} {}", case.seed_index, case.round);
            out.push_str("row");
            for &value in &case.row {
                let _ = write!(out, " {:016x}", value.to_bits());
            }
            out.push('\n');
            out.push_str("verdicts");
            for &v in &case.verdicts {
                let _ = write!(out, " {v}");
            }
            out.push('\n');
        }
        out
    }

    /// Parses the `ADVC1` text format.
    ///
    /// # Errors
    ///
    /// Returns [`CorpusError`] on a missing magic line, a malformed
    /// record, or a case whose verdict count differs from the variant
    /// count.
    pub fn from_text(text: &str) -> Result<Self, CorpusError> {
        let mut lines = text.lines();
        match lines.next() {
            Some(MAGIC) => {}
            other => {
                return Err(CorpusError::new(format!(
                    "expected magic line {MAGIC:?}, found {other:?}"
                )))
            }
        }
        let variants: Vec<String> = match lines.next() {
            Some(line) if line.starts_with("variants") => {
                line.split_whitespace().skip(1).map(str::to_owned).collect()
            }
            other => {
                return Err(CorpusError::new(format!(
                    "expected variants line, found {other:?}"
                )))
            }
        };
        let mut corpus = Self {
            variants,
            cases: Vec::new(),
        };
        while let Some(case_line) = lines.next() {
            if case_line.trim().is_empty() {
                continue;
            }
            let mut head = case_line.split_whitespace();
            if head.next() != Some("case") {
                return Err(CorpusError::new(format!(
                    "expected case line, found {case_line:?}"
                )));
            }
            let seed_index = parse_usize(head.next(), "case seed index")?;
            let round = parse_usize(head.next(), "case round")?;

            let row_line = lines
                .next()
                .ok_or_else(|| CorpusError::new("truncated record: missing row line"))?;
            let mut row_parts = row_line.split_whitespace();
            if row_parts.next() != Some("row") {
                return Err(CorpusError::new(format!(
                    "expected row line, found {row_line:?}"
                )));
            }
            let row: Vec<f64> = row_parts
                .map(|hex| {
                    u64::from_str_radix(hex, 16)
                        .map(f64::from_bits)
                        .map_err(|_| CorpusError::new(format!("bad f64 bits {hex:?}")))
                })
                .collect::<Result<_, _>>()?;

            let verdict_line = lines
                .next()
                .ok_or_else(|| CorpusError::new("truncated record: missing verdicts line"))?;
            let mut verdict_parts = verdict_line.split_whitespace();
            if verdict_parts.next() != Some("verdicts") {
                return Err(CorpusError::new(format!(
                    "expected verdicts line, found {verdict_line:?}"
                )));
            }
            let verdicts: Vec<usize> = verdict_parts
                .map(|v| parse_usize(Some(v), "verdict"))
                .collect::<Result<_, _>>()?;
            if verdicts.len() != corpus.variants.len() {
                return Err(CorpusError::new(format!(
                    "case has {} verdicts for {} variants",
                    verdicts.len(),
                    corpus.variants.len()
                )));
            }
            corpus.cases.push(DisagreementCase {
                seed_index,
                round,
                row,
                verdicts,
            });
        }
        Ok(corpus)
    }

    /// Replays every case against live models and both of `encoder`'s
    /// paths (the engine's fast encode and the scalar
    /// [`RecordEncoder::encode_reference`]), counting exactness violations
    /// (see the module docs). `variants` must match the corpus's recorded
    /// variant order.
    ///
    /// # Panics
    ///
    /// Panics if `variants` names differ from the corpus's.
    pub fn replay(
        &self,
        engine: &BatchEngine,
        encoder: &RecordEncoder,
        variants: &[(&str, &TrainedModel)],
        beta: f64,
    ) -> ReplayReport {
        assert_eq!(
            variants.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
            self.variants.iter().map(String::as_str).collect::<Vec<_>>(),
            "replay variants must match the corpus's"
        );
        let mut report = ReplayReport {
            cases: self.cases.len(),
            encode_mismatches: 0,
            score_mismatches: 0,
            verdict_mismatches: 0,
        };
        for case in &self.cases {
            let row: &[f64] = &case.row;
            let fast_hv = engine.encode_batch(encoder, &[row]).remove(0);
            let reference_hv = encoder.encode_reference(row);
            if fast_hv != reference_hv {
                report.encode_mismatches += 1;
            }
            for ((_, model), &recorded) in variants.iter().zip(&case.verdicts) {
                let batched = engine
                    .evaluate_batch(model, std::slice::from_ref(&fast_hv), beta)
                    .remove(0);
                let sequential = Confidence::evaluate(model, &fast_hv, beta);
                // Compare like for like: `BatchScore::predicted` breaks
                // similarity ties toward the lowest label while
                // `Confidence::label` keeps the last maximum, so the
                // bit-identity check pins the batched confidence against
                // the sequential one, not across the two tie-break rules.
                let bit_identical = batched.confidence.confidence.to_bits()
                    == sequential.confidence.to_bits()
                    && batched.confidence.margin.to_bits() == sequential.margin.to_bits()
                    && batched.confidence.label == sequential.label;
                if !bit_identical {
                    report.score_mismatches += 1;
                }
                if batched.predicted != recorded {
                    report.verdict_mismatches += 1;
                }
            }
        }
        report
    }
}

/// Outcome of a corpus replay: how many cases were checked and how many
/// exactness violations of each kind were found. A clean replay has all
/// three mismatch counters at zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayReport {
    /// Cases replayed.
    pub cases: usize,
    /// Cases where the fast and reference encoders diverged.
    pub encode_mismatches: usize,
    /// (case, variant) pairs where batched and sequential scoring were
    /// not bit-identical.
    pub score_mismatches: usize,
    /// (case, variant) pairs whose live verdict differed from the
    /// recorded one.
    pub verdict_mismatches: usize,
}

impl ReplayReport {
    /// Whether the replay reproduced everything exactly.
    pub fn is_clean(&self) -> bool {
        self.encode_mismatches == 0 && self.score_mismatches == 0 && self.verdict_mismatches == 0
    }
}

fn parse_usize(token: Option<&str>, what: &str) -> Result<usize, CorpusError> {
    token
        .and_then(|t| t.parse::<usize>().ok())
        .ok_or_else(|| CorpusError::new(format!("bad or missing {what}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_corpus() -> DisagreementCorpus {
        let mut corpus = DisagreementCorpus::new(vec!["one-shot".into(), "retrained".into()]);
        corpus.cases.push(DisagreementCase {
            seed_index: 4,
            round: 2,
            row: vec![0.1, 0.2 + 1e-17, f64::MIN_POSITIVE, 1.0],
            verdicts: vec![1, 0],
        });
        corpus.cases.push(DisagreementCase {
            seed_index: 9,
            round: 0,
            row: vec![0.0, 0.5, 0.999999999999, 0.25],
            verdicts: vec![0, 2],
        });
        corpus
    }

    #[test]
    fn text_round_trip_is_bit_exact() {
        let corpus = sample_corpus();
        let parsed = DisagreementCorpus::from_text(&corpus.to_text()).expect("parses");
        assert_eq!(parsed, corpus);
        for (a, b) in parsed.cases[0].row.iter().zip(&corpus.cases[0].row) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn empty_corpus_round_trips() {
        let corpus = DisagreementCorpus::new(vec!["fast".into(), "reference".into()]);
        let parsed = DisagreementCorpus::from_text(&corpus.to_text()).expect("parses");
        assert!(parsed.cases.is_empty());
        assert_eq!(parsed.variants, corpus.variants);
    }

    #[test]
    fn bad_magic_rejected() {
        let err = DisagreementCorpus::from_text("NOPE\nvariants a b\n").unwrap_err();
        assert!(err.to_string().contains("magic"));
    }

    #[test]
    fn verdict_count_mismatch_rejected() {
        let text = "ADVC1\nvariants a b\ncase 0 0\nrow 3fe0000000000000\nverdicts 1\n";
        let err = DisagreementCorpus::from_text(text).unwrap_err();
        assert!(err.to_string().contains("verdicts"));
    }

    #[test]
    fn truncated_record_rejected() {
        let text = "ADVC1\nvariants a b\ncase 0 0\n";
        assert!(DisagreementCorpus::from_text(text).is_err());
    }

    #[test]
    #[should_panic(expected = "whitespace-free")]
    fn whitespace_variant_name_panics() {
        DisagreementCorpus::new(vec!["one shot".into()]);
    }
}
