//! Model persistence: a small, versioned, dependency-free binary format
//! for trained RobustHD pipelines.
//!
//! A saved file carries everything needed to rebuild the deployed pipeline:
//! the [`HdcConfig`] (from which the encoder's codebooks regenerate
//! deterministically), the input feature count, and the class
//! hypervectors' raw words. Layout (all integers little-endian):
//!
//! ```text
//! magic  b"RHD2"
//! u32    feature count
//! u64    dimension          u64  levels
//! u64    level_correlation  u64  retrain_epochs
//! u64    seed               f64  softmax_beta
//! u32    classes
//! u64 × classes × ceil(dimension / 64)   class hypervector words
//! u32    CRC32 (IEEE) over every byte between magic and checksum
//! ```
//!
//! The trailing checksum makes checkpoints self-verifying: a rollback
//! target that was itself hit by the memory attack fails loudly at load
//! ([`LoadModelError::ChecksumMismatch`]) instead of silently restoring a
//! corrupted model. Legacy `RHD1` files (the same layout without the
//! checksum) still load.

use crate::config::HdcConfig;
use crate::model::TrainedModel;
use hypervector::{BinaryHypervector, PackedBits};
use std::error::Error;
use std::fmt;
use std::io::{self, Read, Write};

const MAGIC_V2: &[u8; 4] = b"RHD2";
const MAGIC_V1: &[u8; 4] = b"RHD1";

/// Error loading a persisted model.
#[derive(Debug)]
pub enum LoadModelError {
    /// The stream starts with neither the `RHD2` nor the `RHD1` magic.
    BadMagic,
    /// The stored CRC32 does not match the file contents: the checkpoint
    /// was corrupted after it was written.
    ChecksumMismatch {
        /// Checksum recorded in the file.
        stored: u32,
        /// Checksum recomputed from the file's bytes.
        computed: u32,
    },
    /// Structurally invalid contents (zero dims, impossible sizes, bad
    /// config values).
    Corrupt(String),
    /// Underlying I/O failure.
    Io(io::Error),
}

impl fmt::Display for LoadModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadModelError::BadMagic => f.write_str("not a RobustHD model file (bad magic)"),
            LoadModelError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checkpoint checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            LoadModelError::Corrupt(msg) => write!(f, "corrupt model file: {msg}"),
            LoadModelError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl Error for LoadModelError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            LoadModelError::Io(e) => Some(e),
            _ => None,
        }
    }
}

#[doc(hidden)]
impl From<io::Error> for LoadModelError {
    fn from(e: io::Error) -> Self {
        LoadModelError::Io(e)
    }
}

/// A deserialized pipeline: the pieces needed to serve predictions (the
/// encoder regenerates from `config` + `features`).
#[derive(Debug, Clone)]
pub struct SavedPipeline {
    /// The HDC configuration the pipeline was trained with.
    pub config: HdcConfig,
    /// Input feature count the encoder expects.
    pub features: usize,
    /// The trained class-hypervector model.
    pub model: TrainedModel,
}

/// Serializes a trained pipeline.
///
/// A `&mut` reference can be passed as the writer.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
///
/// # Example
///
/// ```
/// use hypervector::random::HypervectorSampler;
/// use robusthd::{persist, HdcConfig, TrainedModel};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut sampler = HypervectorSampler::seed_from(1);
/// let model = TrainedModel::from_classes(vec![sampler.binary(256), sampler.binary(256)]);
/// let config = HdcConfig::builder().dimension(256).build()?;
///
/// let mut buffer = Vec::new();
/// persist::save_model(&mut buffer, &config, 16, &model)?;
/// let loaded = persist::load_model(buffer.as_slice())?;
/// assert_eq!(loaded.model, model);
/// assert_eq!(loaded.features, 16);
/// # Ok(())
/// # }
/// ```
pub fn save_model<W: Write>(
    mut writer: W,
    config: &HdcConfig,
    features: usize,
    model: &TrainedModel,
) -> io::Result<()> {
    let body = encode_body(config, features, model);
    writer.write_all(MAGIC_V2)?;
    writer.write_all(&body)?;
    writer.write_all(&crc32(&body).to_le_bytes())?;
    Ok(())
}

/// Serializes the header + class words shared by both format versions.
fn encode_body(config: &HdcConfig, features: usize, model: &TrainedModel) -> Vec<u8> {
    let words = model.num_classes() * config.dimension.div_ceil(64);
    let mut body = Vec::with_capacity(56 + words * 8);
    body.extend_from_slice(&(features as u32).to_le_bytes()); // audit:allow(panic): feature counts sit far below the u32 format field
    body.extend_from_slice(&(config.dimension as u64).to_le_bytes());
    body.extend_from_slice(&(config.levels as u64).to_le_bytes());
    body.extend_from_slice(&(config.level_correlation as u64).to_le_bytes());
    body.extend_from_slice(&(config.retrain_epochs as u64).to_le_bytes());
    body.extend_from_slice(&config.seed.to_le_bytes());
    body.extend_from_slice(&config.softmax_beta.to_le_bytes());
    body.extend_from_slice(&(model.num_classes() as u32).to_le_bytes()); // audit:allow(panic): class counts sit far below the u32 format field
    for class in model.classes() {
        for &word in class.bits().words() {
            body.extend_from_slice(&word.to_le_bytes());
        }
    }
    body
}

/// Slicing-by-16 tables for [`crc32`]: `CRC_TABLES[0]` is the classic
/// bytewise table of the reflected IEEE polynomial, and `CRC_TABLES[k][b]`
/// is the CRC register after byte `b` followed by `k` zero bytes. Built at
/// compile time into one 16 KiB `static`.
static CRC_TABLES: [[u32; 256]; 16] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC32 (IEEE 802.3, reflected polynomial `0xEDB88320`) of `bytes`.
///
/// Slicing-by-16: each step folds 16 input bytes through the 16 tables of
/// `CRC_TABLES` with independent lookups, and the last `len % 16` bytes
/// go through the bytewise table. The value is the bytewise CRC's for
/// every input.
// audit:allow(panic): constant indices 0..16 into a 16-byte block; table indices are bytes or masked to 8 bits, and every table has 256 entries
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = u32::MAX;
    let (blocks, tail) = bytes.as_chunks::<16>();
    for b in blocks {
        let x = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        crc = t[15][(x & 0xFF) as usize]
            ^ t[14][((x >> 8) & 0xFF) as usize]
            ^ t[13][((x >> 16) & 0xFF) as usize]
            ^ t[12][(x >> 24) as usize]
            ^ t[11][usize::from(b[4])]
            ^ t[10][usize::from(b[5])]
            ^ t[9][usize::from(b[6])]
            ^ t[8][usize::from(b[7])]
            ^ t[7][usize::from(b[8])]
            ^ t[6][usize::from(b[9])]
            ^ t[5][usize::from(b[10])]
            ^ t[4][usize::from(b[11])]
            ^ t[3][usize::from(b[12])]
            ^ t[2][usize::from(b[13])]
            ^ t[1][usize::from(b[14])]
            ^ t[0][usize::from(b[15])];
    }
    for &byte in tail {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

/// Deserializes a pipeline saved by [`save_model`] from a reader: reads
/// the whole image, then decodes it with [`decode_model`].
///
/// A `&mut` reference can be passed as the reader. Callers that already
/// hold the bytes should call [`decode_model`] and skip the copy.
///
/// # Errors
///
/// Returns [`LoadModelError`] on bad magic, checksum mismatch, truncated
/// or structurally invalid contents, or I/O failure.
pub fn load_model<R: Read>(mut reader: R) -> Result<SavedPipeline, LoadModelError> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    decode_model(&bytes)
}

/// Decodes a pipeline image saved by [`save_model`] from borrowed bytes.
///
/// For `RHD2` images the trailing CRC32 is verified over the whole body
/// *before* any field is interpreted, so a corrupted checkpoint always
/// surfaces as [`LoadModelError::ChecksumMismatch`] rather than as a
/// downstream parse error. Legacy `RHD1` images carry no checksum and are
/// parsed as-is.
///
/// # Errors
///
/// Returns [`LoadModelError`] on bad magic, checksum mismatch, or
/// truncated or structurally invalid contents (a truncated legacy image
/// or a missing magic is an [`io::ErrorKind::UnexpectedEof`] error).
pub fn decode_model(bytes: &[u8]) -> Result<SavedPipeline, LoadModelError> {
    let mut rest = bytes;
    let magic = take::<4>(&mut rest)?;
    if &magic == MAGIC_V1 {
        return parse_body(&mut rest);
    }
    if &magic != MAGIC_V2 {
        return Err(LoadModelError::BadMagic);
    }
    let Some((mut body, crc_bytes)) = rest.split_last_chunk::<4>() else {
        return Err(LoadModelError::Corrupt(
            "file too short to hold a checksum".to_string(),
        ));
    };
    let stored = u32::from_le_bytes(*crc_bytes);
    let computed = crc32(body);
    if stored != computed {
        return Err(LoadModelError::ChecksumMismatch { stored, computed });
    }
    let pipeline = parse_body(&mut body)?;
    if !body.is_empty() {
        return Err(LoadModelError::Corrupt(format!(
            "{} trailing bytes after class vectors",
            body.len()
        )));
    }
    Ok(pipeline)
}

/// Splits the first `N` bytes off `cursor`.
fn take<const N: usize>(cursor: &mut &[u8]) -> Result<[u8; N], LoadModelError> {
    let Some((head, rest)) = cursor.split_first_chunk::<N>() else {
        return Err(io::Error::from(io::ErrorKind::UnexpectedEof).into());
    };
    *cursor = rest;
    Ok(*head)
}

fn take_u32(cursor: &mut &[u8]) -> Result<u32, LoadModelError> {
    take(cursor).map(u32::from_le_bytes)
}

fn take_u64(cursor: &mut &[u8]) -> Result<u64, LoadModelError> {
    take(cursor).map(u64::from_le_bytes)
}

/// Parses the version-independent header + class words off `cursor`.
fn parse_body(cursor: &mut &[u8]) -> Result<SavedPipeline, LoadModelError> {
    let features = take_u32(cursor)? as usize;
    let dimension = take_u64(cursor)? as usize;
    let levels = take_u64(cursor)? as usize;
    let level_correlation = take_u64(cursor)? as usize;
    let retrain_epochs = take_u64(cursor)? as usize;
    let seed = take_u64(cursor)?;
    let softmax_beta = f64::from_le_bytes(take(cursor)?);
    // Guard against absurd sizes before allocating.
    if features == 0 || features > 1 << 24 {
        return Err(LoadModelError::Corrupt(format!(
            "implausible feature count {features}"
        )));
    }
    if dimension == 0 || dimension > 1 << 26 {
        return Err(LoadModelError::Corrupt(format!(
            "implausible dimension {dimension}"
        )));
    }
    let config = HdcConfig::builder()
        .dimension(dimension)
        .levels(levels)
        .level_correlation(level_correlation)
        .retrain_epochs(retrain_epochs)
        .seed(seed)
        .softmax_beta(softmax_beta)
        .build()
        .map_err(|e| LoadModelError::Corrupt(e.to_string()))?;
    let classes = take_u32(cursor)? as usize;
    if classes == 0 || classes > 1 << 16 {
        return Err(LoadModelError::Corrupt(format!(
            "implausible class count {classes}"
        )));
    }
    let class_bytes = dimension.div_ceil(64) * 8;
    let Some((words, rest)) = cursor.split_at_checked(classes * class_bytes) else {
        return Err(io::Error::from(io::ErrorKind::UnexpectedEof).into());
    };
    *cursor = rest;
    let class_vectors = words
        .chunks_exact(class_bytes)
        .map(|class| {
            let mut bits = PackedBits::zeros(dimension);
            for (word, le) in bits.words_mut().iter_mut().zip(class.as_chunks::<8>().0) {
                *word = u64::from_le_bytes(*le);
            }
            bits.mask_tail();
            BinaryHypervector::from_bits(bits)
        })
        .collect();
    Ok(SavedPipeline {
        config,
        features,
        model: TrainedModel::from_classes(class_vectors),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::{Encoder, RecordEncoder};
    use hypervector::random::HypervectorSampler;

    fn toy_pipeline() -> (HdcConfig, usize, TrainedModel) {
        let config = HdcConfig::builder()
            .dimension(500)
            .levels(16)
            .seed(77)
            .build()
            .expect("valid");
        let mut sampler = HypervectorSampler::seed_from(4);
        let model = TrainedModel::from_classes(vec![
            sampler.binary(500),
            sampler.binary(500),
            sampler.binary(500),
        ]);
        (config, 12, model)
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let (config, features, model) = toy_pipeline();
        let mut buffer = Vec::new();
        save_model(&mut buffer, &config, features, &model).expect("save");
        let loaded = load_model(buffer.as_slice()).expect("load");
        assert_eq!(loaded.config, config);
        assert_eq!(loaded.features, features);
        assert_eq!(loaded.model, model);
    }

    #[test]
    fn encoder_rebuilt_from_loaded_config_matches_original() {
        let (config, features, model) = toy_pipeline();
        let mut buffer = Vec::new();
        save_model(&mut buffer, &config, features, &model).expect("save");
        let loaded = load_model(buffer.as_slice()).expect("load");
        let original = RecordEncoder::new(&config, features);
        let rebuilt = RecordEncoder::new(&loaded.config, loaded.features);
        let input: Vec<f64> = (0..features).map(|i| i as f64 / features as f64).collect();
        assert_eq!(original.encode(&input), rebuilt.encode(&input));
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = load_model(&b"NOPE...."[..]).unwrap_err();
        assert!(matches!(err, LoadModelError::BadMagic));
        assert!(err.to_string().contains("magic"));
    }

    #[test]
    fn truncated_v2_file_fails_the_checksum() {
        let (config, features, model) = toy_pipeline();
        let mut buffer = Vec::new();
        save_model(&mut buffer, &config, features, &model).expect("save");
        buffer.truncate(buffer.len() - 10);
        let err = load_model(buffer.as_slice()).unwrap_err();
        assert!(
            matches!(err, LoadModelError::ChecksumMismatch { .. }),
            "expected checksum mismatch, got {err}"
        );
    }

    #[test]
    fn truncated_legacy_file_is_an_io_error() {
        let (config, features, model) = toy_pipeline();
        let mut v1 = Vec::new();
        v1.extend_from_slice(MAGIC_V1);
        v1.extend_from_slice(&encode_body(&config, features, &model));
        v1.truncate(v1.len() - 10);
        let err = load_model(v1.as_slice()).unwrap_err();
        assert!(matches!(err, LoadModelError::Io(_)));
    }

    #[test]
    fn implausible_header_is_corrupt() {
        let mut buffer = Vec::new();
        buffer.extend_from_slice(MAGIC_V1);
        buffer.extend_from_slice(&0u32.to_le_bytes()); // zero features
        buffer.extend_from_slice(&[0u8; 48]);
        buffer.extend_from_slice(&1u32.to_le_bytes());
        let err = load_model(buffer.as_slice()).unwrap_err();
        assert!(err.to_string().contains("feature count"));
    }

    #[test]
    fn non_word_aligned_dimension_roundtrips() {
        let config = HdcConfig::builder().dimension(100).build().expect("valid");
        let mut sampler = HypervectorSampler::seed_from(8);
        let model = TrainedModel::from_classes(vec![sampler.binary(100), sampler.binary(100)]);
        let mut buffer = Vec::new();
        save_model(&mut buffer, &config, 3, &model).expect("save");
        let loaded = load_model(buffer.as_slice()).expect("load");
        assert_eq!(loaded.model, model);
    }

    #[test]
    fn saved_files_carry_the_v2_magic_and_checksum() {
        let (config, features, model) = toy_pipeline();
        let mut buffer = Vec::new();
        save_model(&mut buffer, &config, features, &model).expect("save");
        assert_eq!(&buffer[..4], MAGIC_V2);
        let stored = u32::from_le_bytes(buffer[buffer.len() - 4..].try_into().expect("4"));
        assert_eq!(stored, crc32(&buffer[4..buffer.len() - 4]));
    }

    #[test]
    fn any_flipped_bit_fails_the_checksum() {
        let (config, features, model) = toy_pipeline();
        let mut clean = Vec::new();
        save_model(&mut clean, &config, features, &model).expect("save");
        // Every bit of the post-magic region: header, class words, and
        // the checksum itself.
        for bit in 0..(clean.len() - 4) * 8 {
            let mut corrupted = clean.clone();
            corrupted[4 + bit / 8] ^= 1 << (bit % 8);
            let err = load_model(corrupted.as_slice()).unwrap_err();
            assert!(
                matches!(err, LoadModelError::ChecksumMismatch { .. }),
                "bit {bit}: expected checksum mismatch, got {err}"
            );
        }
    }

    #[test]
    fn legacy_rhd1_files_still_load() {
        let (config, features, model) = toy_pipeline();
        let mut v1 = Vec::new();
        v1.extend_from_slice(MAGIC_V1);
        v1.extend_from_slice(&encode_body(&config, features, &model));
        let loaded = load_model(v1.as_slice()).expect("legacy load");
        assert_eq!(loaded.config, config);
        assert_eq!(loaded.features, features);
        assert_eq!(loaded.model, model);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Reference values of the IEEE polynomial ("check" value of the
        // catalogue entry, plus the empty string).
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    /// The CRC by its definition: one polynomial step per input bit.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = u32::MAX;
        for &byte in bytes {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                crc = if crc & 1 == 1 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_the_bitwise_definition() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x0C5C_3200);
        let buffer: Vec<u8> = (0..4096 + 16).map(|_| rng.random()).collect();
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
        // Every length through five 16-byte blocks and their tails, at
        // every start offset inside one buffer (unaligned slices).
        for start in 0..16 {
            for len in 0..=80 {
                let bytes = &buffer[start..start + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bitwise(bytes),
                    "start {start}, len {len}"
                );
            }
        }
        for _ in 0..64 {
            let start = rng.random_range(0..16usize);
            let len = rng.random_range(0..=4096usize);
            let bytes = &buffer[start..start + len];
            assert_eq!(
                crc32(bytes),
                crc32_bitwise(bytes),
                "start {start}, len {len}"
            );
        }
    }
}
