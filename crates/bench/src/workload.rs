//! Workload construction shared by every experiment: generate a dataset,
//! encode it, train the HDC model.

use robusthd::{Encoder, HdcConfig, RecordEncoder, TrainedModel};
use synthdata::{Dataset, DatasetSpec, GeneratorConfig};

use hypervector::BinaryHypervector;

/// Experiment scale: how much of each dataset's split sizes to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Fast subsample for benches and smoke runs (≤600 train samples).
    Quick,
    /// The default experiment scale (≈1200 train / 600 test).
    Standard,
    /// Larger splits for tighter quality-loss estimates.
    Full,
}

impl Scale {
    /// Train/test sizes for a dataset under this scale (capped by the
    /// paper's real split sizes).
    ///
    /// Sizes grow with the class count so that per-class statistics stay
    /// comparable across datasets: the recovery framework regenerates a
    /// class from the majority of its unlabeled traffic, whose fidelity is
    /// set by the *per-class* sample count.
    pub fn sizes(&self, spec: &DatasetSpec) -> (usize, usize) {
        let k = spec.classes;
        let (train, test) = match self {
            Scale::Quick => (400.max(k * 30), 300.max(k * 25)),
            Scale::Standard => (1200.max(k * 80), 600.max(k * 50)),
            Scale::Full => (4000.max(k * 160), 2000.max(k * 100)),
        };
        (train.min(spec.train_size), test.min(spec.test_size))
    }
}

/// A dataset encoded into hyperspace with its trained HDC model.
#[derive(Debug)]
pub struct EncodedWorkload {
    /// The generated corpus.
    pub data: Dataset,
    /// The encoder (shared by train and test).
    pub encoder: RecordEncoder,
    /// Encoded training queries.
    pub train_encoded: Vec<BinaryHypervector>,
    /// Training labels.
    pub train_labels: Vec<usize>,
    /// Encoded test queries.
    pub test_encoded: Vec<BinaryHypervector>,
    /// Test labels.
    pub test_labels: Vec<usize>,
    /// The trained (clean) binary model.
    pub model: TrainedModel,
    /// The HDC configuration used.
    pub config: HdcConfig,
}

impl EncodedWorkload {
    /// Builds the workload: generate → encode → train.
    pub fn build(spec: &DatasetSpec, scale: Scale, dim: usize, seed: u64) -> Self {
        let (train_size, test_size) = scale.sizes(spec);
        Self::with_sizes(spec, train_size, test_size, dim, seed)
    }

    /// A workload serving `queries` test rows from a model trained on the
    /// [`Scale::Quick`] training split: for harnesses that time serving
    /// and only need *a* trained model.
    pub fn for_queries(spec: &DatasetSpec, queries: usize, dim: usize, seed: u64) -> Self {
        let (train_size, _) = Scale::Quick.sizes(spec);
        Self::with_sizes(spec, train_size, queries, dim, seed)
    }

    /// Builds the workload with explicit train/test split sizes.
    pub fn with_sizes(
        spec: &DatasetSpec,
        train_size: usize,
        test_size: usize,
        dim: usize,
        seed: u64,
    ) -> Self {
        let spec = spec.with_sizes(train_size, test_size);
        let data = GeneratorConfig::new(seed).generate(&spec);
        let config = HdcConfig::builder()
            .dimension(dim)
            .seed(seed ^ 0xabcd)
            .build()
            .expect("valid HDC config");
        let encoder = RecordEncoder::new(&config, spec.features);
        let train_rows: Vec<&[f64]> = data.train.iter().map(|s| s.features.as_slice()).collect();
        let train_encoded = encoder.encode_batch_refs(&train_rows);
        let train_labels: Vec<_> = data.train.iter().map(|s| s.label).collect();
        let test_rows: Vec<&[f64]> = data.test.iter().map(|s| s.features.as_slice()).collect();
        let test_encoded = encoder.encode_batch_refs(&test_rows);
        let test_labels: Vec<_> = data.test.iter().map(|s| s.label).collect();
        let model = TrainedModel::train(&train_encoded, &train_labels, spec.classes, &config);
        Self {
            data,
            encoder,
            train_encoded,
            train_labels,
            test_encoded,
            test_labels,
            model,
            config,
        }
    }

    /// Test accuracy of the clean model.
    pub fn clean_accuracy(&self) -> f64 {
        robusthd::accuracy(&self.model, &self.test_encoded, &self.test_labels)
    }

    /// Borrowed raw test-feature rows (the input of the fused
    /// encode→score serving path).
    pub fn test_rows(&self) -> Vec<&[f64]> {
        self.data
            .test
            .iter()
            .map(|s| s.features.as_slice())
            .collect()
    }
}
