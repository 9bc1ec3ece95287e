use serde::{Deserialize, Serialize};

/// Shape of one evaluation dataset, mirroring Table 2 of the paper.
///
/// The six constructors ([`DatasetSpec::mnist`] …) carry the paper's feature
/// counts, class counts, and split sizes. [`DatasetSpec::scaled`] shrinks
/// the splits proportionally so experiments run at laptop scale while the
/// geometry (features, classes, class balance) is untouched.
///
/// # Example
///
/// ```
/// use synthdata::DatasetSpec;
///
/// let spec = DatasetSpec::mnist();
/// assert_eq!((spec.features, spec.classes), (784, 10));
/// let small = spec.scaled(0.01);
/// assert_eq!(small.train_size, 600);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetSpec {
    /// Short dataset name as used in the paper's tables.
    pub name: String,
    /// Feature count `n`.
    pub features: usize,
    /// Class count `k`.
    pub classes: usize,
    /// Number of training samples.
    pub train_size: usize,
    /// Number of test samples.
    pub test_size: usize,
    /// Per-feature signal-to-noise ratio: the expected class-mean gap of an
    /// informative feature divided by the within-class standard deviation.
    /// Larger values make the task easier. Calibrated per dataset so the
    /// fault-free baseline accuracies land near the paper's.
    pub feature_snr: f64,
    /// Fraction of features that carry class signal (the rest are noise
    /// features sharing one mean across classes, as real sensor data has).
    pub informative_fraction: f64,
    /// Fraction of samples drawn near a class boundary (interpolated toward
    /// another class), producing the residual error real datasets exhibit.
    pub ambiguity: f64,
    /// Number of Gaussian sub-clusters composing each class (adds intra-class
    /// structure so the task is not linearly trivial).
    pub subclusters: usize,
    /// Intrinsic dimensionality of the within-class variation. Real sensor
    /// and image data varies along a few latent factors, not independently
    /// per feature; holographic encoders are sensitive to this (independent
    /// per-feature noise is amplified by bundling, low-rank noise is not).
    pub latent_dim: usize,
}

impl DatasetSpec {
    /// Handwritten-digit stand-in (paper: MNIST, 784 features, 10 classes).
    pub fn mnist() -> Self {
        Self {
            name: "MNIST".to_owned(),
            features: 784,
            classes: 10,
            train_size: 60_000,
            test_size: 10_000,
            feature_snr: 4.5,
            informative_fraction: 0.85,
            ambiguity: 0.03,
            subclusters: 3,
            latent_dim: 12,
        }
    }

    /// Smartphone activity-recognition stand-in (paper: UCI HAR, 561
    /// features, 12 classes).
    pub fn ucihar() -> Self {
        Self {
            name: "UCI HAR".to_owned(),
            features: 561,
            classes: 12,
            train_size: 6_213,
            test_size: 1_554,
            feature_snr: 4.0,
            informative_fraction: 0.80,
            ambiguity: 0.04,
            subclusters: 2,
            latent_dim: 8,
        }
    }

    /// Voice-recognition stand-in (paper: ISOLET, 617 features, 26 classes).
    pub fn isolet() -> Self {
        Self {
            name: "ISOLET".to_owned(),
            features: 617,
            classes: 26,
            train_size: 6_238,
            test_size: 1_559,
            feature_snr: 4.2,
            informative_fraction: 0.80,
            ambiguity: 0.05,
            subclusters: 2,
            latent_dim: 10,
        }
    }

    /// Face-recognition stand-in (paper: FACE, 608 features, 2 classes).
    pub fn face() -> Self {
        Self {
            name: "FACE".to_owned(),
            features: 608,
            classes: 2,
            train_size: 522_441,
            test_size: 2_494,
            feature_snr: 3.6,
            informative_fraction: 0.70,
            ambiguity: 0.04,
            subclusters: 4,
            latent_dim: 10,
        }
    }

    /// IMU activity-recognition stand-in (paper: PAMAP, 75 features, 5
    /// classes).
    pub fn pamap() -> Self {
        Self {
            name: "PAMAP".to_owned(),
            features: 75,
            classes: 5,
            train_size: 611_142,
            test_size: 101_582,
            feature_snr: 4.8,
            informative_fraction: 0.90,
            ambiguity: 0.05,
            subclusters: 3,
            latent_dim: 6,
        }
    }

    /// Urban electricity-prediction stand-in (paper: PECAN, 312 features, 3
    /// classes).
    pub fn pecan() -> Self {
        Self {
            name: "PECAN".to_owned(),
            features: 312,
            classes: 3,
            train_size: 22_290,
            test_size: 5_574,
            feature_snr: 3.4,
            informative_fraction: 0.75,
            ambiguity: 0.08,
            subclusters: 3,
            latent_dim: 8,
        }
    }

    /// All six paper datasets in table order.
    pub fn all() -> Vec<Self> {
        vec![
            Self::mnist(),
            Self::ucihar(),
            Self::isolet(),
            Self::face(),
            Self::pamap(),
            Self::pecan(),
        ]
    }

    /// Returns a copy with both splits scaled by `factor` (each split keeps
    /// at least one sample per class).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive and finite.
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "scale factor {factor} must be positive"
        );
        let scale = |n: usize| ((n as f64 * factor).round() as usize).max(self.classes);
        Self {
            train_size: scale(self.train_size),
            test_size: scale(self.test_size),
            ..self.clone()
        }
    }

    /// Returns a copy with explicit split sizes (geometry unchanged).
    pub fn with_sizes(&self, train_size: usize, test_size: usize) -> Self {
        Self {
            train_size,
            test_size,
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_match_paper_table2() {
        let expect = [
            ("MNIST", 784, 10, 60_000, 10_000),
            ("UCI HAR", 561, 12, 6_213, 1_554),
            ("ISOLET", 617, 26, 6_238, 1_559),
            ("FACE", 608, 2, 522_441, 2_494),
            ("PAMAP", 75, 5, 611_142, 101_582),
            ("PECAN", 312, 3, 22_290, 5_574),
        ];
        for (spec, (name, n, k, tr, te)) in DatasetSpec::all().iter().zip(expect) {
            assert_eq!(spec.name, name);
            assert_eq!(spec.features, n);
            assert_eq!(spec.classes, k);
            assert_eq!(spec.train_size, tr);
            assert_eq!(spec.test_size, te);
        }
    }

    #[test]
    fn scaled_preserves_geometry() {
        let s = DatasetSpec::isolet().scaled(0.1);
        assert_eq!(s.features, 617);
        assert_eq!(s.classes, 26);
        assert_eq!(s.train_size, 624);
    }

    #[test]
    fn scaled_keeps_one_sample_per_class() {
        let s = DatasetSpec::isolet().scaled(1e-9);
        assert!(s.train_size >= 26);
        assert!(s.test_size >= 26);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn scaled_rejects_zero() {
        DatasetSpec::mnist().scaled(0.0);
    }

    #[test]
    fn with_sizes_overrides() {
        let s = DatasetSpec::pecan().with_sizes(100, 50);
        assert_eq!((s.train_size, s.test_size), (100, 50));
    }
}
