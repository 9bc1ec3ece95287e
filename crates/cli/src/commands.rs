//! The four subcommands, each a pure function from argv to a text report.

use crate::args::ParsedArgs;
use advsim::{
    run_adv_soak, AdvSoakConfig, AttackBudget, DisagreementCorpus, DisagreementHunter, HuntBudget,
};
use baselines::{BitStoredModel, Mlp, MlpConfig};
use faultsim::{AttackCampaign, Attacker, ErrorRateSchedule};
use robusthd::diagnostics::{HealthMonitor, HealthVerdict};
use robusthd::persist;
use robusthd::supervisor::{run_soak, ResilienceSupervisor};
use robusthd::{
    accuracy, BatchConfig, BatchEngine, Encoder, HdcConfig, RecordEncoder, RecoveryEngine,
    SupervisorConfig, TrainedModel,
};
use robusthd_bench::soak::soak_recovery;
use robusthd_serve::json::Json;
use std::fmt::Write as _;
use std::fs::File;
use std::io::Write as _;
use std::path::Path;
use synthdata::{csv, DatasetSpec, GeneratorConfig, Sample};

fn load_samples(path: &str) -> Result<Vec<Sample>, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let samples = csv::read_samples(file).map_err(|e| format!("{path}: {e}"))?;
    if samples.is_empty() {
        return Err(format!("{path}: dataset is empty"));
    }
    Ok(samples)
}

/// Replaces the file at `path` only once its new contents are complete:
/// `write` fills a temporary file beside it, which is synced and renamed
/// over `path`. If anything fails, an earlier file at `path` is left as it
/// was and the temporary file is removed.
fn write_atomically(
    path: &str,
    write: impl FnOnce(&mut File) -> Result<(), String>,
) -> Result<(), String> {
    let tmp = format!("{path}.{}.tmp", std::process::id());
    let written = File::create(&tmp)
        .map_err(|e| format!("cannot create {path}: {e}"))
        .and_then(|mut file| {
            write(&mut file)?;
            file.sync_all().map_err(|e| format!("writing {path}: {e}"))
        })
        .and_then(|()| std::fs::rename(&tmp, path).map_err(|e| format!("writing {path}: {e}")));
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

struct TrainedPipeline {
    model: TrainedModel,
    encoder: RecordEncoder,
    queries: Vec<hypervector::BinaryHypervector>,
    labels: Vec<usize>,
    config: HdcConfig,
    clean_accuracy: f64,
}

fn train_pipeline(
    train: &[Sample],
    test: &[Sample],
    dim: usize,
    seed: u64,
) -> Result<TrainedPipeline, String> {
    let features = train[0].features.len();
    if test
        .iter()
        .chain(train)
        .any(|s| s.features.len() != features)
    {
        return Err("train and test feature counts disagree".to_owned());
    }
    let classes = train
        .iter()
        .chain(test)
        .map(|s| s.label)
        .max()
        .expect("non-empty")
        + 1;
    let config = HdcConfig::builder()
        .dimension(dim)
        .seed(seed)
        .build()
        .map_err(|e| e.to_string())?;
    let encoder = RecordEncoder::new(&config, features);
    let train_rows: Vec<&[f64]> = train.iter().map(|s| s.features.as_slice()).collect();
    let encoded_train = encoder.encode_batch_refs(&train_rows);
    let train_labels: Vec<_> = train.iter().map(|s| s.label).collect();
    let test_rows: Vec<&[f64]> = test.iter().map(|s| s.features.as_slice()).collect();
    let queries = encoder.encode_batch_refs(&test_rows);
    let labels: Vec<_> = test.iter().map(|s| s.label).collect();
    let model = TrainedModel::train(&encoded_train, &train_labels, classes, &config);
    let clean_accuracy = accuracy(&model, &queries, &labels);
    Ok(TrainedPipeline {
        model,
        encoder,
        queries,
        labels,
        config,
        clean_accuracy,
    })
}

fn attack_model(model: &TrainedModel, rate: f64, seed: u64) -> TrainedModel {
    let mut image = model.to_memory_image();
    let bits = image.len();
    Attacker::seed_from(seed).random_flips(image.words_mut(), bits, rate);
    image.mask_tail();
    let mut attacked = model.clone();
    attacked.load_memory_image(&image);
    attacked
}

const GENERATE_HELP: &str = "\
robusthd generate — write a synthetic stand-in dataset to CSV

OPTIONS:
    --dataset <NAME>     mnist | ucihar | isolet | face | pamap | pecan (default ucihar)
    --train <PATH>       output CSV for the training split (required)
    --test <PATH>        output CSV for the test split (required)
    --train-size <N>     samples in the training split (default 1200)
    --test-size <N>      samples in the test split (default 600)
    --seed <N>           generation seed (default 1)";

/// `robusthd generate` — synthesize a dataset and write both splits as CSV.
pub fn generate(argv: &[String]) -> Result<String, String> {
    let args = ParsedArgs::parse(
        argv,
        &[
            "dataset",
            "train",
            "test",
            "train-size",
            "test-size",
            "seed",
            "help",
        ],
    )
    .map_err(|e| e.to_string())?;
    if args.flag("help") {
        return Ok(GENERATE_HELP.to_owned());
    }
    let name = args.get("dataset").unwrap_or("ucihar").to_lowercase();
    let spec = match name.as_str() {
        "mnist" => DatasetSpec::mnist(),
        "ucihar" | "uci-har" | "har" => DatasetSpec::ucihar(),
        "isolet" => DatasetSpec::isolet(),
        "face" => DatasetSpec::face(),
        "pamap" => DatasetSpec::pamap(),
        "pecan" => DatasetSpec::pecan(),
        other => return Err(format!("unknown dataset `{other}`")),
    };
    let train_size = args
        .get_parsed_or("train-size", 1200usize)
        .map_err(|e| e.to_string())?;
    let test_size = args
        .get_parsed_or("test-size", 600usize)
        .map_err(|e| e.to_string())?;
    let seed = args
        .get_parsed_or("seed", 1u64)
        .map_err(|e| e.to_string())?;
    let train_path = args.require("train").map_err(|e| e.to_string())?;
    let test_path = args.require("test").map_err(|e| e.to_string())?;

    let spec = spec.with_sizes(train_size, test_size);
    let data = GeneratorConfig::new(seed).generate(&spec);
    let write = |path: &str, samples: &[Sample]| {
        write_atomically(path, |file| {
            csv::write_samples(file, samples).map_err(|e| format!("writing {path}: {e}"))
        })
    };
    write(train_path, &data.train)?;
    write(test_path, &data.test)?;
    Ok(format!(
        "wrote {} ({} samples) and {} ({} samples): {} features, {} classes",
        train_path,
        data.train.len(),
        test_path,
        data.test.len(),
        spec.features,
        spec.classes
    ))
}

const EVALUATE_HELP: &str = "\
robusthd evaluate — train an HDC classifier on CSV data and report accuracy

OPTIONS:
    --train <PATH>   training CSV (features..., integer label) (required)
    --test <PATH>    test CSV (required)
    --dim <N>        hypervector dimensionality (default 10000)
    --seed <N>       pipeline seed (default 0)";

/// `robusthd evaluate` — train on one CSV, score on another.
pub fn evaluate(argv: &[String]) -> Result<String, String> {
    let args = ParsedArgs::parse(argv, &["train", "test", "dim", "seed", "help"])
        .map_err(|e| e.to_string())?;
    if args.flag("help") {
        return Ok(EVALUATE_HELP.to_owned());
    }
    let train = load_samples(args.require("train").map_err(|e| e.to_string())?)?;
    let test = load_samples(args.require("test").map_err(|e| e.to_string())?)?;
    let dim = args
        .get_parsed_or("dim", 10_000usize)
        .map_err(|e| e.to_string())?;
    let seed = args
        .get_parsed_or("seed", 0u64)
        .map_err(|e| e.to_string())?;
    let pipeline = train_pipeline(&train, &test, dim, seed)?;
    Ok(format!(
        "trained on {} samples, tested on {}: accuracy {:.2}% (D = {dim})",
        train.len(),
        test.len(),
        pipeline.clean_accuracy * 100.0
    ))
}

const ATTACK_HELP: &str = "\
robusthd attack — compare HDC and an 8-bit DNN under random bit-flip attack

OPTIONS:
    --train <PATH>   training CSV (required)
    --test <PATH>    test CSV (required)
    --rate <F>       fraction of stored model bits to flip (default 0.1)
    --dim <N>        HDC dimensionality (default 10000)
    --seed <N>       pipeline/attack seed (default 0)";

/// `robusthd attack` — HDC vs DNN quality loss at one attack rate.
pub fn attack(argv: &[String]) -> Result<String, String> {
    let args = ParsedArgs::parse(argv, &["train", "test", "rate", "dim", "seed", "help"])
        .map_err(|e| e.to_string())?;
    if args.flag("help") {
        return Ok(ATTACK_HELP.to_owned());
    }
    let train = load_samples(args.require("train").map_err(|e| e.to_string())?)?;
    let test = load_samples(args.require("test").map_err(|e| e.to_string())?)?;
    let rate = args
        .get_parsed_or("rate", 0.1f64)
        .map_err(|e| e.to_string())?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!("--rate {rate} outside [0, 1]"));
    }
    let dim = args
        .get_parsed_or("dim", 10_000usize)
        .map_err(|e| e.to_string())?;
    let seed = args
        .get_parsed_or("seed", 0u64)
        .map_err(|e| e.to_string())?;

    let pipeline = train_pipeline(&train, &test, dim, seed)?;
    let attacked = attack_model(&pipeline.model, rate, seed ^ 0xa77);
    let hdc_attacked = accuracy(&attacked, &pipeline.queries, &pipeline.labels);

    let mlp = Mlp::fit(&MlpConfig::default(), &train);
    let dnn_clean = baselines::accuracy(&mlp, &test);
    let mut image = mlp.to_image();
    Attacker::seed_from(seed ^ 0xa77).random_flips(&mut image, mlp.bit_len(), rate);
    let mut dnn_attacked_model = mlp.clone();
    dnn_attacked_model.load_image(&image);
    let dnn_attacked = baselines::accuracy(&dnn_attacked_model, &test);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "attack rate: {:.1}% of stored model bits",
        rate * 100.0
    );
    let _ = writeln!(
        out,
        "HDC  (D={dim}): clean {:.2}%  attacked {:.2}%  loss {:.2}%",
        pipeline.clean_accuracy * 100.0,
        hdc_attacked * 100.0,
        (pipeline.clean_accuracy - hdc_attacked).max(0.0) * 100.0
    );
    let _ = write!(
        out,
        "DNN  (8-bit): clean {:.2}%  attacked {:.2}%  loss {:.2}%",
        dnn_clean * 100.0,
        dnn_attacked * 100.0,
        (dnn_clean - dnn_attacked).max(0.0) * 100.0
    );
    Ok(out)
}

const RECOVER_HELP: &str = "\
robusthd recover — attack an HDC model, then repair it from unlabeled traffic

OPTIONS:
    --train <PATH>     training CSV (required)
    --test <PATH>      test CSV; also serves as the unlabeled traffic (required)
    --rate <F>         fraction of stored model bits to flip (default 0.1)
    --dim <N>          HDC dimensionality (default 4096)
    --passes <N>       recovery passes over the traffic (default 16)
    --seed <N>         pipeline/attack seed (default 0)";

/// `robusthd recover` — the full attack → unsupervised-repair loop.
pub fn recover(argv: &[String]) -> Result<String, String> {
    let args = ParsedArgs::parse(
        argv,
        &["train", "test", "rate", "dim", "passes", "seed", "help"],
    )
    .map_err(|e| e.to_string())?;
    if args.flag("help") {
        return Ok(RECOVER_HELP.to_owned());
    }
    let train = load_samples(args.require("train").map_err(|e| e.to_string())?)?;
    let test = load_samples(args.require("test").map_err(|e| e.to_string())?)?;
    let rate = args
        .get_parsed_or("rate", 0.1f64)
        .map_err(|e| e.to_string())?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!("--rate {rate} outside [0, 1]"));
    }
    let dim = args
        .get_parsed_or("dim", 4096usize)
        .map_err(|e| e.to_string())?;
    let passes = args
        .get_parsed_or("passes", 16usize)
        .map_err(|e| e.to_string())?;
    let seed = args
        .get_parsed_or("seed", 0u64)
        .map_err(|e| e.to_string())?;

    let pipeline = train_pipeline(&train, &test, dim, seed)?;
    let mut model = attack_model(&pipeline.model, rate, seed ^ 0xa77);
    let attacked = accuracy(&model, &pipeline.queries, &pipeline.labels);

    let mut engine = RecoveryEngine::new(soak_recovery(seed), pipeline.config.softmax_beta);
    for _ in 0..passes {
        engine.run_stream(&mut model, &pipeline.queries);
    }
    let recovered = accuracy(&model, &pipeline.queries, &pipeline.labels);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "clean accuracy:     {:.2}%",
        pipeline.clean_accuracy * 100.0
    );
    let _ = writeln!(
        out,
        "after {:.1}% attack:  {:.2}%  (loss {:.2}%)",
        rate * 100.0,
        attacked * 100.0,
        (pipeline.clean_accuracy - attacked).max(0.0) * 100.0
    );
    let _ = writeln!(
        out,
        "after recovery:     {:.2}%  (loss {:.2}%)",
        recovered * 100.0,
        (pipeline.clean_accuracy - recovered).max(0.0) * 100.0
    );
    let _ = write!(
        out,
        "trusted {:.0}% of the unlabeled traffic, rewrote {} stored bits",
        engine.stats().trust_rate() * 100.0,
        engine.stats().bits_changed
    );
    Ok(out)
}

const TRAIN_HELP: &str = "\
robusthd train — train an HDC pipeline on CSV data and save it

OPTIONS:
    --train <PATH>   training CSV (features..., integer label) (required)
    --model <PATH>   output model file (required)
    --dim <N>        hypervector dimensionality (default 10000)
    --seed <N>       pipeline seed (default 0)";

/// `robusthd train` — fit a pipeline and persist it.
pub fn train(argv: &[String]) -> Result<String, String> {
    let args = ParsedArgs::parse(argv, &["train", "model", "dim", "seed", "help"])
        .map_err(|e| e.to_string())?;
    if args.flag("help") {
        return Ok(TRAIN_HELP.to_owned());
    }
    let train_samples = load_samples(args.require("train").map_err(|e| e.to_string())?)?;
    let model_path = args.require("model").map_err(|e| e.to_string())?;
    let dim = args
        .get_parsed_or("dim", 10_000usize)
        .map_err(|e| e.to_string())?;
    let seed = args
        .get_parsed_or("seed", 0u64)
        .map_err(|e| e.to_string())?;

    let features = train_samples[0].features.len();
    let classes = train_samples
        .iter()
        .map(|s| s.label)
        .max()
        .expect("non-empty")
        + 1;
    let config = HdcConfig::builder()
        .dimension(dim)
        .seed(seed)
        .build()
        .map_err(|e| e.to_string())?;
    let encoder = RecordEncoder::new(&config, features);
    let encoded: Vec<_> = train_samples
        .iter()
        .map(|s| encoder.encode(&s.features))
        .collect();
    let labels: Vec<_> = train_samples.iter().map(|s| s.label).collect();
    let model = TrainedModel::train(&encoded, &labels, classes, &config);

    write_atomically(model_path, |file| {
        persist::save_model(file, &config, features, &model)
            .map_err(|e| format!("writing {model_path}: {e}"))
    })?;
    Ok(format!(
        "trained on {} samples ({features} features, {classes} classes, D = {dim}); saved to {model_path}",
        train_samples.len()
    ))
}

const INFER_HELP: &str = "\
robusthd infer — load a saved pipeline and classify CSV samples

OPTIONS:
    --model <PATH>   saved model file from `robusthd train` (required)
    --input <PATH>   CSV with features (and a label column, used for scoring) (required)
    --predictions    also print one predicted label per line";

/// `robusthd infer` — serve predictions from a persisted pipeline.
pub fn infer(argv: &[String]) -> Result<String, String> {
    let args = ParsedArgs::parse(argv, &["model", "input", "predictions", "help"])
        .map_err(|e| e.to_string())?;
    if args.flag("help") {
        return Ok(INFER_HELP.to_owned());
    }
    let model_path = args.require("model").map_err(|e| e.to_string())?;
    let input = load_samples(args.require("input").map_err(|e| e.to_string())?)?;
    let file =
        File::open(Path::new(model_path)).map_err(|e| format!("cannot open {model_path}: {e}"))?;
    let saved = persist::load_model(file).map_err(|e| format!("{model_path}: {e}"))?;
    if input[0].features.len() != saved.features {
        return Err(format!(
            "model expects {} features, input has {}",
            saved.features,
            input[0].features.len()
        ));
    }
    let encoder = RecordEncoder::new(&saved.config, saved.features);
    let predictions: Vec<usize> = input
        .iter()
        .map(|s| saved.model.predict(&encoder.encode(&s.features)))
        .collect();
    let correct = predictions
        .iter()
        .zip(&input)
        .filter(|(&p, s)| p == s.label)
        .count();
    let mut out = format!(
        "classified {} samples: accuracy {:.2}% against the label column",
        input.len(),
        correct as f64 / input.len() as f64 * 100.0
    );
    if args.flag("predictions") {
        for p in &predictions {
            let _ = write!(out, "\n{p}");
        }
    }
    Ok(out)
}

const MONITOR_HELP: &str = "\
robusthd monitor — judge a model's health from unlabeled traffic

Calibrates on the clean model, re-plays the traffic against an attacked
copy, and reports the monitor's verdict at each corruption step.

OPTIONS:
    --train <PATH>   training CSV (required)
    --traffic <PATH> unlabeled traffic CSV (label column present but unused) (required)
    --rate <F>       per-step corruption increment (default 0.05)
    --steps <N>      corruption steps to simulate (default 5)
    --dim <N>        HDC dimensionality (default 4096)
    --seed <N>       pipeline/attack seed (default 0)";

/// `robusthd monitor` — unsupervised degradation detection demo.
pub fn monitor(argv: &[String]) -> Result<String, String> {
    let args = ParsedArgs::parse(
        argv,
        &["train", "traffic", "rate", "steps", "dim", "seed", "help"],
    )
    .map_err(|e| e.to_string())?;
    if args.flag("help") {
        return Ok(MONITOR_HELP.to_owned());
    }
    let train = load_samples(args.require("train").map_err(|e| e.to_string())?)?;
    let traffic = load_samples(args.require("traffic").map_err(|e| e.to_string())?)?;
    let rate = args
        .get_parsed_or("rate", 0.05f64)
        .map_err(|e| e.to_string())?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!("--rate {rate} outside [0, 1]"));
    }
    let steps = args
        .get_parsed_or("steps", 5usize)
        .map_err(|e| e.to_string())?;
    let dim = args
        .get_parsed_or("dim", 4096usize)
        .map_err(|e| e.to_string())?;
    let seed = args
        .get_parsed_or("seed", 0u64)
        .map_err(|e| e.to_string())?;

    let pipeline = train_pipeline(&train, &traffic, dim, seed)?;
    let mut model = pipeline.model.clone();
    let window = (pipeline.queries.len() / 2).max(1);
    let mut health = HealthMonitor::new(window, 0.6);
    health.calibrate(&model, &pipeline.queries, pipeline.config.softmax_beta);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "calibrated on {} clean queries",
        pipeline.queries.len()
    );
    for step in 1..=steps {
        model = attack_model(&model, rate, seed ^ (step as u64) << 4);
        for q in &pipeline.queries {
            health.observe(&model, q, pipeline.config.softmax_beta);
        }
        let verdict = match health.verdict() {
            HealthVerdict::Healthy => "healthy",
            HealthVerdict::Degraded => "DEGRADED",
            HealthVerdict::InsufficientTraffic => "insufficient traffic",
        };
        let _ = writeln!(
            out,
            "step {step}: +{:.1}% corruption, accuracy {:.2}%, verdict {verdict}",
            rate * 100.0,
            accuracy(&model, &pipeline.queries, &pipeline.labels) * 100.0
        );
    }
    out.pop();
    Ok(out)
}

const SOAK_HELP: &str = "\
robusthd soak — chaos-soak the self-healing serving runtime

Trains a pipeline, calibrates the resilience supervisor on the first half
of the traffic (retained as canaries), then serves the second half while
an attack campaign corrupts the stored model between batches. The
supervisor monitors, repairs at an escalating ladder, checkpoints healthy
states, and rolls back when recovery keeps failing.

OPTIONS:
    --train <PATH>   training CSV (required)
    --traffic <PATH> traffic CSV (labels used only to report accuracy) (required)
    --steps <N>      attack-campaign steps (default 8)
    --peak <F>       cumulative corruption rate at the last step (default 0.12)
    --burst          also flip half of every stored word at the midpoint
                     (a catastrophe that forces escalation and rollback)
    --targeted       spend the campaign budget on stored-word MSBs first
    --dim <N>        HDC dimensionality (default 4096)
    --seed <N>       pipeline/campaign seed (default 0)
    --json           emit the full JSON soak trace instead of a text report";

/// `robusthd soak` — closed-loop resilience soak with fault injection.
pub fn soak(argv: &[String]) -> Result<String, String> {
    let args = ParsedArgs::parse(
        argv,
        &[
            "train", "traffic", "steps", "peak", "burst", "targeted", "dim", "seed", "json", "help",
        ],
    )
    .map_err(|e| e.to_string())?;
    if args.flag("help") {
        return Ok(SOAK_HELP.to_owned());
    }
    let train = load_samples(args.require("train").map_err(|e| e.to_string())?)?;
    let traffic = load_samples(args.require("traffic").map_err(|e| e.to_string())?)?;
    let steps = args
        .get_parsed_or("steps", 8usize)
        .map_err(|e| e.to_string())?;
    if steps == 0 {
        return Err("--steps must be positive".to_owned());
    }
    let peak = args
        .get_parsed_or("peak", 0.12f64)
        .map_err(|e| e.to_string())?;
    if !(0.0..=1.0).contains(&peak) {
        return Err(format!("--peak {peak} outside [0, 1]"));
    }
    let dim = args
        .get_parsed_or("dim", 4096usize)
        .map_err(|e| e.to_string())?;
    let seed = args
        .get_parsed_or("seed", 0u64)
        .map_err(|e| e.to_string())?;
    let burst = args.flag("burst");
    let targeted = args.flag("targeted");

    let pipeline = train_pipeline(&train, &traffic, dim, seed)?;
    let features = train[0].features.len();
    let half = (pipeline.queries.len() / 2).max(1);
    let (canaries, served) = pipeline.queries.split_at(half);
    let served_labels = &pipeline.labels[half..];
    if served.is_empty() {
        return Err("traffic file too small to split into canaries and served queries".to_owned());
    }

    let base = soak_recovery(seed ^ 0x50AC);
    let policy = SupervisorConfig::builder()
        .window(served.len())
        .sensitivity(0.9)
        .build()
        .map_err(|e| e.to_string())?;
    let mut supervisor = ResilienceSupervisor::new(&pipeline.config, base, policy, features);
    let mut model = pipeline.model.clone();
    supervisor.calibrate(&model, canaries);

    let model_bits = model.num_classes() * model.dim();
    let schedule = ErrorRateSchedule::from_cumulative(
        (1..=steps)
            .map(|i| peak * i as f64 / steps as f64)
            .collect(),
    );
    let mut campaign = AttackCampaign::new(schedule, model_bits, seed ^ 0xCA);
    let burst_at = steps / 2;
    let report = run_soak(
        &mut supervisor,
        &mut model,
        served,
        served_labels,
        |model, step| {
            let mut image = model.to_memory_image();
            let flipped = if burst && step == burst_at {
                for word in image.words_mut() {
                    *word ^= 0xAAAA_AAAA_AAAA_AAAA;
                }
                model_bits / 2
            } else if targeted {
                campaign.advance_targeted(image.words_mut(), 64)?
            } else {
                campaign.advance(image.words_mut())?
            };
            image.mask_tail();
            model.load_memory_image(&image);
            Some(flipped)
        },
    );

    if args.flag("json") {
        return Ok(report.to_json());
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "calibrated on {} canaries, serving {} queries per batch",
        canaries.len(),
        served.len()
    );
    for s in &report.steps {
        let _ = writeln!(
            out,
            "step {}: +{} flips ({:.1}% cumulative), accuracy {:.2}%, level {}{}{}{}",
            s.step,
            s.bits_flipped,
            s.cumulative_error_rate * 100.0,
            s.accuracy * 100.0,
            s.report.level,
            if s.report.escalated {
                ", ESCALATED"
            } else {
                ""
            },
            if s.report.rolled_back {
                ", ROLLED BACK"
            } else {
                ""
            },
            if s.report.checkpointed {
                ", checkpointed"
            } else {
                ""
            },
        );
    }
    let _ = write!(
        out,
        "soak: clean {:.2}% -> final {:.2}% at {:.1}% peak corruption, \
         {} escalations, {} rollbacks",
        report.clean_accuracy * 100.0,
        report.final_accuracy() * 100.0,
        report.peak_error_rate() * 100.0,
        report.escalations(),
        report.rollbacks()
    );
    Ok(out)
}

const ADVSOAK_HELP: &str = "\
robusthd advsoak — joint memory + input adversarial soak

Trains a pipeline, calibrates the resilience supervisor on the first half
of the traffic (canaries), then serves the second half while an attack
campaign corrupts stored memory AND a blackbox margin-guided attacker
perturbs a fraction of the queries inside a hard Hamming budget. Reports
whether the confidence gate detects the adversarial queries. Also hunts a
disagreement corpus across model variants (one-shot vs retrained vs
memory-attacked) that can be persisted and later replayed bit-exactly.

OPTIONS:
    --train <PATH>     training CSV (required)
    --traffic <PATH>   traffic CSV (labels used only to report accuracy) (required)
    --steps <N>        attack-campaign steps (default 6)
    --peak <F>         cumulative memory corruption at the last step (default 0.08)
    --tcam             derive the memory-corruption schedule from the FeFET/TCAM
                       retention model (Vth drift) instead of the linear ramp
    --horizon <F>      TCAM retention horizon in seconds (default 1e8)
    --radius <N>       input-attack Hamming budget per query (default 64)
    --candidates <N>   candidate bits scored per attack round (default 64)
    --attack-frac <F>  fraction of served queries attacked per step (default 0.15)
    --trust <F>        confidence trust threshold T_C (default 0.45)
    --corpus <PATH>    persist the disagreement corpus (ADVC1 text) here
    --replay <PATH>    replay a saved corpus against the rebuilt pipeline and
                       report exactness instead of running the soak
    --dim <N>          HDC dimensionality (default 4096)
    --seed <N>         pipeline/attack seed (default 0)
    --json             emit the full JSON report instead of a text report";

/// Rebuilds the hunt's model variants deterministically from a pipeline:
/// the one-shot model, a 2-epoch retrained refinement, and a 5%
/// memory-attacked copy.
fn adv_variants(
    pipeline: &TrainedPipeline,
    train: &[Sample],
    seed: u64,
) -> (TrainedModel, TrainedModel) {
    let train_rows: Vec<&[f64]> = train.iter().map(|s| s.features.as_slice()).collect();
    let encoded_train = pipeline.encoder.encode_batch_refs(&train_rows);
    let train_labels: Vec<_> = train.iter().map(|s| s.label).collect();
    let classes = pipeline.model.num_classes();
    let mut refined = pipeline.config.clone();
    refined.retrain_epochs = 2;
    let retrained = TrainedModel::train(&encoded_train, &train_labels, classes, &refined);
    let attacked = attack_model(&pipeline.model, 0.05, seed ^ 0xBAD);
    (retrained, attacked)
}

/// `robusthd advsoak` — adversarial scenario soak (input + memory attacks).
pub fn advsoak(argv: &[String]) -> Result<String, String> {
    let args = ParsedArgs::parse(
        argv,
        &[
            "train",
            "traffic",
            "steps",
            "peak",
            "tcam",
            "horizon",
            "radius",
            "candidates",
            "attack-frac",
            "trust",
            "corpus",
            "replay",
            "dim",
            "seed",
            "json",
            "help",
        ],
    )
    .map_err(|e| e.to_string())?;
    if args.flag("help") {
        return Ok(ADVSOAK_HELP.to_owned());
    }
    let train = load_samples(args.require("train").map_err(|e| e.to_string())?)?;
    let traffic = load_samples(args.require("traffic").map_err(|e| e.to_string())?)?;
    let steps = args
        .get_parsed_or("steps", 6usize)
        .map_err(|e| e.to_string())?;
    if steps == 0 {
        return Err("--steps must be positive".to_owned());
    }
    let peak = args
        .get_parsed_or("peak", 0.08f64)
        .map_err(|e| e.to_string())?;
    if !(0.0..=1.0).contains(&peak) {
        return Err(format!("--peak {peak} outside [0, 1]"));
    }
    let horizon = args
        .get_parsed_or("horizon", 1e8f64)
        .map_err(|e| e.to_string())?;
    let defaults = AttackBudget::new(0);
    let radius = args
        .get_parsed_or("radius", 64usize)
        .map_err(|e| e.to_string())?;
    let candidates = args
        .get_parsed_or("candidates", defaults.candidates)
        .map_err(|e| e.to_string())?;
    let attack_frac = args
        .get_parsed_or("attack-frac", 0.15f64)
        .map_err(|e| e.to_string())?;
    if !(0.0..=1.0).contains(&attack_frac) {
        return Err(format!("--attack-frac {attack_frac} outside [0, 1]"));
    }
    let trust = args
        .get_parsed_or("trust", 0.45f64)
        .map_err(|e| e.to_string())?;
    let dim = args
        .get_parsed_or("dim", 4096usize)
        .map_err(|e| e.to_string())?;
    let seed = args
        .get_parsed_or("seed", defaults.seed)
        .map_err(|e| e.to_string())?;

    let pipeline = train_pipeline(&train, &traffic, dim, seed)?;
    let features = train[0].features.len();
    let engine = BatchEngine::from_env();
    let beta = pipeline.config.softmax_beta;
    let (retrained, attacked) = adv_variants(&pipeline, &train, seed);
    let variants = [
        ("one-shot", &pipeline.model),
        ("retrained", &retrained),
        ("attacked", &attacked),
    ];

    // Replay mode: verify a previously persisted corpus bit-exactly
    // against the rebuilt pipeline, then stop.
    if let Some(path) = args.get("replay") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let corpus = DisagreementCorpus::from_text(&text).map_err(|e| format!("{path}: {e}"))?;
        let report = corpus.replay(&engine, &pipeline.encoder, &variants, beta);
        if args.flag("json") {
            let count = |n: usize| Json::Number(n as f64);
            return Ok(json_object(vec![
                ("cases", count(report.cases)),
                ("encode_mismatches", count(report.encode_mismatches)),
                ("score_mismatches", count(report.score_mismatches)),
                ("verdict_mismatches", count(report.verdict_mismatches)),
                ("clean", Json::Bool(report.is_clean())),
            ])
            .to_string_compact());
        }
        return Ok(format!(
            "replayed {} cases: {} encode, {} score, {} verdict mismatches — {}",
            report.cases,
            report.encode_mismatches,
            report.score_mismatches,
            report.verdict_mismatches,
            if report.is_clean() {
                "bit-exact"
            } else {
                "NOT REPRODUCIBLE"
            }
        ));
    }

    // Disagreement hunt over the traffic's raw feature rows.
    let hunt_rows: Vec<Vec<f64>> = traffic
        .iter()
        .take(32)
        .map(|s| s.features.clone())
        .collect();
    let hunter = DisagreementHunter::new(HuntBudget::new(6, 12).with_seed(seed));
    let corpus = hunter.hunt(&engine, &pipeline.encoder, &variants, &hunt_rows, beta);
    let mut corpus_note = format!("{} disagreements", corpus.cases.len());
    if let Some(path) = args.get("corpus") {
        write_atomically(path, |file| {
            file.write_all(corpus.to_text().as_bytes())
                .map_err(|e| format!("cannot write {path}: {e}"))
        })?;
        let _ = write!(corpus_note, " (persisted to {path})");
    }

    // Joint soak: memory campaign + input attacks through the closed loop.
    let half = (pipeline.queries.len() / 2).max(1);
    let (canaries, served) = pipeline.queries.split_at(half);
    let served_labels = &pipeline.labels[half..];
    if served.is_empty() {
        return Err("traffic file too small to split into canaries and served queries".to_owned());
    }
    let base = soak_recovery(seed ^ 0x50AC);
    let policy = SupervisorConfig::builder()
        .window(served.len())
        .sensitivity(0.9)
        .build()
        .map_err(|e| e.to_string())?;
    let mut supervisor = ResilienceSupervisor::new(&pipeline.config, base, policy, features);
    let mut model = pipeline.model.clone();
    supervisor.calibrate(&model, canaries);

    let schedule = if args.flag("tcam") {
        if !(horizon.is_finite() && horizon >= 0.0) {
            return Err(format!(
                "--horizon {horizon} must be non-negative and finite"
            ));
        }
        ErrorRateSchedule::from_cumulative(
            pimsim::TcamBerModel::default().cumulative_rates(steps, horizon),
        )
    } else {
        ErrorRateSchedule::from_cumulative(
            (1..=steps)
                .map(|i| peak * i as f64 / steps as f64)
                .collect(),
        )
    };
    let config = AdvSoakConfig {
        schedule,
        budget: AttackBudget::new(radius)
            .with_candidates(candidates)
            .with_seed(seed ^ 0xADF0),
        attack_fraction: attack_frac,
        trust_threshold: trust,
    };
    let report = run_adv_soak(&mut supervisor, &mut model, served, served_labels, &config);

    if args.flag("json") {
        return Ok(format!(
            "{{\"corpus_cases\":{},\"radius\":{},\"soak\":{}}}",
            corpus.cases.len(),
            radius,
            report.to_json()
        ));
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "calibrated on {} canaries, serving {} queries per step",
        canaries.len(),
        served.len()
    );
    let _ = writeln!(out, "hunt: {corpus_note}");
    for s in &report.steps {
        let _ = writeln!(
            out,
            "step {}: +{} memory flips ({:.1}% cumulative), {}/{} attacks succeeded \
             ({} caught), {} false alarms, accuracy {:.2}%, level {}{}{}",
            s.step,
            s.memory_bits_flipped,
            s.cumulative_error_rate * 100.0,
            s.attack_successes,
            s.attacked,
            s.detected_successes,
            s.clean_false_alarms,
            s.accuracy * 100.0,
            s.level,
            if s.escalated { ", ESCALATED" } else { "" },
            if s.rolled_back { ", ROLLED BACK" } else { "" },
        );
    }
    let _ = write!(
        out,
        "advsoak: clean {:.2}% -> final {:.2}%, attack success {:.1}%, \
         detection {:.1}%, false alarms {:.1}%",
        report.clean_accuracy * 100.0,
        report.final_accuracy() * 100.0,
        report.attack_success_rate() * 100.0,
        report.detection_rate() * 100.0,
        report.false_alarm_rate() * 100.0
    );
    Ok(out)
}

const FLAGS_HELP: &str = "\
robusthd flags — print the ROBUSTHD_* environment-flag registry as JSON

Every runtime flag the suite reads is registered centrally in
robusthd::FlagRegistry; this command dumps that registry, so the output
is definitionally complete: a flag that does not appear here does not
exist (the repo lints fail any environment read that bypasses the
registry). Per flag: the variable name, the config struct that parses
it, its default, whether it is currently set, the raw value, and the
effective parsed value.

OPTIONS:
    --help             show this help";

/// A JSON object from `(key, value)` pairs, in order.
fn json_object(fields: Vec<(&str, Json)>) -> Json {
    Json::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// `robusthd flags` — the flag registry as one JSON object.
pub fn flags(argv: &[String]) -> Result<String, String> {
    let args = ParsedArgs::parse(argv, &["help"]).map_err(|e| e.to_string())?;
    if args.flag("help") {
        return Ok(FLAGS_HELP.to_owned());
    }
    let text = |s: &str| Json::String(s.to_owned());
    let entries = robusthd::FlagRegistry::flags()
        .into_iter()
        .map(|flag| {
            json_object(vec![
                ("name", text(flag.name)),
                ("owner", text(flag.owner)),
                ("default", text(flag.default)),
                ("set", Json::Bool(flag.raw.is_some())),
                ("raw", flag.raw.map_or(Json::Null, Json::String)),
                ("effective", Json::String(flag.effective)),
                ("doc", text(flag.doc)),
            ])
        })
        .collect();
    Ok(json_object(vec![("flags", Json::Array(entries))]).to_string_compact())
}

const THROUGHPUT_HELP: &str = "\
robusthd throughput — measure serving throughput by phase (queries/sec)

Synthesizes a dataset in-process, trains an HDC pipeline, then times the
parallel batch engine at each requested thread count, reporting three
rates per point:

    encode_qps       raw feature rows -> hypervectors
    score_qps        pre-encoded hypervectors -> predictions
    end_to_end_qps   raw rows -> predictions, fused (no intermediate batch)

Before timing, the encoder is cross-checked against the scalar reference
encoder and the engine's predictions against the sequential path at every
thread count, so the reported rates always describe the bit-exact engine.
The reference encoder is timed once, single-threaded, as
reference_encode_qps.

The recovery engine is timed beside the sweep, single-threaded, on the
trained model with 8% of its bits flipped, at the recovery_soak operating
point (m = 20, S = 0.5, majority saturation 3, T_C = 0.45):

    repair_qps             trusted-query observations/s of observe
    reference_repair_qps   the same for the per-bit oracle observe_reference

Twin engines first run the query stream through both and must agree to
the bit. The two are then timed interleaved, one pass of each per round,
and each rate is the median over --repeats rounds. Emits one JSON object
to stdout.

OPTIONS:
    --dataset <NAME>   mnist | ucihar | isolet | face | pamap | pecan (default ucihar)
    --queries <N>      queries per timed batch (default 2000)
    --dim <N>          HDC dimensionality (default 4096)
    --threads <LIST>   comma-separated thread counts (default 1,2,4,8)
    --shard <N>        shard size in queries (default 32)
    --repeats <N>      timed repetitions per thread count; best rate wins (default 3)
    --seed <N>         pipeline seed (default 0)";

/// `robusthd throughput` — queries/sec sweep over thread counts
/// ([`robusthd_bench::throughput::run`]).
pub fn throughput(argv: &[String]) -> Result<String, String> {
    let args = ParsedArgs::parse(
        argv,
        &[
            "dataset", "queries", "dim", "threads", "shard", "repeats", "seed", "help",
        ],
    )
    .map_err(|e| e.to_string())?;
    if args.flag("help") {
        return Ok(THROUGHPUT_HELP.to_owned());
    }
    let spec = dataset_spec(&args.get("dataset").unwrap_or("ucihar").to_lowercase())?;
    let queries = args
        .get_parsed_or("queries", 2000usize)
        .map_err(|e| e.to_string())?;
    let dim = args
        .get_parsed_or("dim", 4096usize)
        .map_err(|e| e.to_string())?;
    if queries == 0 || dim == 0 {
        return Err("--queries and --dim must be positive".to_owned());
    }
    let seed = args
        .get_parsed_or("seed", 0u64)
        .map_err(|e| e.to_string())?;
    let (threads, shard, repeats) = sweep_args(&args)?;
    let outcome =
        robusthd_bench::throughput::run(&spec, queries, dim, seed, &threads, shard, repeats);
    Ok(outcome.to_json())
}

const TRAINBENCH_HELP: &str = "\
robusthd trainbench — measure training throughput by phase (samples/sec)

Synthesizes a dataset in-process, encodes its training split, then times
the bit-sliced training engine at each requested thread count, reporting
three figures per point:

    bundle_qps       samples bundled/sec (one-shot carry-save bundling)
    retrain_qps      sample-updates/sec across the retraining epochs
    fit_seconds      full fit wall-clock (bundle + retrain)

Before timing, the fast training path is cross-checked against the
sequential scalar reference at every thread count — raw accumulator
counts included — so the reported rates always describe the bit-exact
engine. The reference trainer is timed once, single-threaded, as the
`reference` row. Emits one JSON object to stdout.

OPTIONS:
    --dataset <NAME>   mnist | ucihar | isolet | face | pamap | pecan (default ucihar)
    --samples <N>      training samples per fit (default 400)
    --dim <N>          HDC dimensionality (default 4096)
    --epochs <N>       retraining epoch budget (default 2)
    --threads <LIST>   comma-separated thread counts (default 1,2,4,8)
    --shard <N>        shard size in samples (default 32)
    --repeats <N>      timed repetitions per thread count; best time wins (default 3)
    --seed <N>         pipeline seed (default 0)";

/// `robusthd trainbench` — training samples/sec sweep over thread counts
/// ([`robusthd_bench::trainbench::run`]).
pub fn trainbench(argv: &[String]) -> Result<String, String> {
    let args = ParsedArgs::parse(
        argv,
        &[
            "dataset", "samples", "dim", "epochs", "threads", "shard", "repeats", "seed", "help",
        ],
    )
    .map_err(|e| e.to_string())?;
    if args.flag("help") {
        return Ok(TRAINBENCH_HELP.to_owned());
    }
    let spec = dataset_spec(&args.get("dataset").unwrap_or("ucihar").to_lowercase())?;
    let samples = args
        .get_parsed_or("samples", 400usize)
        .map_err(|e| e.to_string())?;
    let dim = args
        .get_parsed_or("dim", 4096usize)
        .map_err(|e| e.to_string())?;
    if samples == 0 || dim == 0 {
        return Err("--samples and --dim must be positive".to_owned());
    }
    let epochs = args
        .get_parsed_or("epochs", 2usize)
        .map_err(|e| e.to_string())?;
    let seed = args
        .get_parsed_or("seed", 0u64)
        .map_err(|e| e.to_string())?;
    let (threads, shard, repeats) = sweep_args(&args)?;
    let outcome = robusthd_bench::trainbench::run(
        &spec, samples, dim, seed, epochs, &threads, shard, repeats,
    );
    Ok(outcome.to_json())
}

/// Parses and validates the thread-sweep tuning shared by `throughput`
/// and `trainbench` — `--threads`, `--shard`, `--repeats` — so a bad value
/// is an error here rather than an assertion in the bench harness.
fn sweep_args(args: &ParsedArgs) -> Result<(Vec<usize>, usize, usize), String> {
    let shard = args
        .get_parsed_or("shard", 32usize)
        .map_err(|e| e.to_string())?;
    let repeats = args
        .get_parsed_or("repeats", 3usize)
        .map_err(|e| e.to_string())?;
    if shard == 0 || repeats == 0 {
        return Err("--shard and --repeats must be positive".to_owned());
    }
    let threads = args
        .get("threads")
        .unwrap_or("1,2,4,8")
        .split(',')
        .map(|t| {
            t.trim()
                .parse::<usize>()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| format!("--threads entry `{t}` is not a positive integer"))
        })
        .collect::<Result<_, _>>()?;
    Ok((threads, shard, repeats))
}

const KERNELBENCH_HELP: &str = "\
robusthd kernelbench — measure execution-tier kernel throughput (GiB/s)

Times every kernel family the execution tiers re-route — pairwise and
masked-range Hamming distance, class-major scoring, the carry-save
majority ripple, bipolar count extraction, threshold extraction, and the
fused bind+bundle ripple that record encoding runs per feature — on
seeded operands shaped like the dataset (dimension, class count), on
BOTH tiers (reference scalar and wide lane-parallel), reporting GiB/s
of operand traffic per tier and the wide/reference speedup. Each round
times one pass of each tier back to back, alternating which goes first,
and each tier reports its best round: both bests come from the same
span of time, so host load cannot favour one tier by landing while
only the other is timed. The tiers are timed tier-explicitly, so the ratios
are reported no matter which tier ROBUSTHD_KERNEL_TIER installed; only
the end-to-end predict_qps row — a trained model scoring the dataset's
encoded queries — runs through the installed tier (and honours
ROBUSTHD_THREADS).

Before timing, every kernel is cross-checked bit-exact across tiers —
integer counts exactly, similarity floats down to f64::to_bits — and a
divergence fails the command. Emits one JSON object to stdout.

OPTIONS:
    --dataset <NAME>   mnist | ucihar | isolet | face | pamap | pecan (default ucihar)
    --dim <N>          HDC dimensionality (default 8192)
    --queries <N>      end-to-end query batch size (default 400)
    --repeats <N>      timed rounds per kernel, each timing both tiers once; the best
                       round wins, as it does for predict_qps (default 3)
    --seed <N>         pipeline seed (default 0)";

/// Operand traffic per timed kernel pass, so each repeat takes
/// milliseconds.
const KERNEL_PASS_BYTES: usize = 64 * 1024 * 1024;

/// `robusthd kernelbench` — execution-tier kernel GiB/s sweep
/// (reference vs wide), bit-exactness gated
/// ([`robusthd_bench::kernelbench::run`]).
pub fn kernelbench(argv: &[String]) -> Result<String, String> {
    let args = ParsedArgs::parse(
        argv,
        &["dataset", "dim", "queries", "repeats", "seed", "help"],
    )
    .map_err(|e| e.to_string())?;
    if args.flag("help") {
        return Ok(KERNELBENCH_HELP.to_owned());
    }
    let spec = dataset_spec(&args.get("dataset").unwrap_or("ucihar").to_lowercase())?;
    let dim = args
        .get_parsed_or("dim", 8192usize)
        .map_err(|e| e.to_string())?;
    let queries = args
        .get_parsed_or("queries", 400usize)
        .map_err(|e| e.to_string())?;
    let repeats = args
        .get_parsed_or("repeats", 3usize)
        .map_err(|e| e.to_string())?;
    if dim == 0 || queries == 0 || repeats == 0 {
        return Err("--dim, --queries and --repeats must be positive".to_owned());
    }
    let seed = args
        .get_parsed_or("seed", 0u64)
        .map_err(|e| e.to_string())?;
    let outcome =
        robusthd_bench::kernelbench::run(&spec, dim, queries, seed, repeats, KERNEL_PASS_BYTES);
    Ok(outcome.to_json())
}

/// Resolves a dataset name to its synthetic spec.
fn dataset_spec(name: &str) -> Result<DatasetSpec, String> {
    match name {
        "mnist" => Ok(DatasetSpec::mnist()),
        "ucihar" | "uci-har" | "har" => Ok(DatasetSpec::ucihar()),
        "isolet" => Ok(DatasetSpec::isolet()),
        "face" => Ok(DatasetSpec::face()),
        "pamap" => Ok(DatasetSpec::pamap()),
        "pecan" => Ok(DatasetSpec::pecan()),
        other => Err(format!("unknown dataset `{other}`")),
    }
}

/// The daemon tuning shared by `serve`, `servebench` and `fleetbench`:
/// each knob starts from [`robusthd::ServeConfig::default`] and may be
/// overridden on the command line.
fn serve_config_from(args: &ParsedArgs) -> Result<robusthd::ServeConfig, String> {
    let defaults = robusthd::ServeConfig::default();
    let window_us = args
        .get_parsed_or("window-us", defaults.window_us)
        .map_err(|e| e.to_string())?;
    let max_batch = args
        .get_parsed_or("max-batch", defaults.max_batch)
        .map_err(|e| e.to_string())?;
    let queue_depth = args
        .get_parsed_or("queue-depth", defaults.queue_depth)
        .map_err(|e| e.to_string())?;
    robusthd::ServeConfig::builder()
        .window_us(window_us)
        .max_batch(max_batch)
        .queue_depth(queue_depth)
        .build()
        .map_err(|e| e.to_string())
}

/// Renders the daemon's counter snapshot as the serve/loadgen report body.
fn stats_lines(stats: &robusthd_serve::StatsSnapshot) -> String {
    let mean_batch = if stats.batches == 0 {
        0.0
    } else {
        stats.coalesced as f64 / stats.batches as f64
    };
    format!(
        "connections {}, results {}, overloaded {}, errors {}\n\
         batches {}, mean batch {:.2}, max batch {}, final level {}, quarantined {}",
        stats.connections,
        stats.results,
        stats.overloaded,
        stats.errors,
        stats.batches,
        mean_batch,
        stats.max_batch,
        stats.level,
        stats.quarantined,
    )
}

const SERVE_HELP: &str = "\
robusthd serve — run robusthdd, the network serving daemon

Trains a pipeline from CSV, calibrates the resilience supervisor on the
traffic file (its rows become the retained canaries), then listens for
newline-delimited JSON requests. Concurrent classify requests coalesce
into micro-batches that drain through the fused batch engine under the
supervisor — bit-exact with in-process serving. The daemon announces its
address on stderr, blocks until a client sends {\"type\":\"shutdown\"},
drains gracefully (every accepted query is answered), and prints the
final counters.

Protocol (one JSON object per line, unknown fields ignored):
    {\"type\":\"classify\",\"id\":1,\"features\":[...]}  -> result | overloaded
    {\"type\":\"stats\"} | {\"type\":\"health\"} | {\"type\":\"ping\"} | {\"type\":\"shutdown\"}

OPTIONS:
    --train <PATH>        training CSV (required)
    --traffic <PATH>      calibration/canary CSV (required)
    --addr <ADDR>         listen address (default 127.0.0.1:7878)
    --dim <N>             HDC dimensionality (default 4096)
    --seed <N>            pipeline seed (default 0)
    --window-us <N>       coalescing window, µs (default 1000)
    --max-batch <N>       micro-batch ceiling (default 64)
    --queue-depth <N>     admission queue bound (default 1024)
    --monitor-window <N>  supervisor verdict window in queries (default 64)
    --checkpoint <N>      checkpoint every N healthy batches (default 16)
    --threads <N>         batch-engine worker threads (default ROBUSTHD_THREADS)
    --shard <N>           batch-engine shard size (default 32)";

/// `robusthd serve` — run the serving daemon until a protocol shutdown.
pub fn serve(argv: &[String]) -> Result<String, String> {
    let args = ParsedArgs::parse(
        argv,
        &[
            "train",
            "traffic",
            "addr",
            "dim",
            "seed",
            "window-us",
            "max-batch",
            "queue-depth",
            "monitor-window",
            "checkpoint",
            "threads",
            "shard",
            "help",
        ],
    )
    .map_err(|e| e.to_string())?;
    if args.flag("help") {
        return Ok(SERVE_HELP.to_owned());
    }
    let train = load_samples(args.require("train").map_err(|e| e.to_string())?)?;
    let traffic = load_samples(args.require("traffic").map_err(|e| e.to_string())?)?;
    let addr = args.get("addr").unwrap_or("127.0.0.1:7878").to_owned();
    let dim = args
        .get_parsed_or("dim", 4096usize)
        .map_err(|e| e.to_string())?;
    let seed = args
        .get_parsed_or("seed", 0u64)
        .map_err(|e| e.to_string())?;
    let monitor_window = args
        .get_parsed_or("monitor-window", 64usize)
        .map_err(|e| e.to_string())?;
    let checkpoint = args
        .get_parsed_or("checkpoint", 16usize)
        .map_err(|e| e.to_string())?;
    let config = serve_config_from(&args)?;

    let pipeline = train_pipeline(&train, &traffic, dim, seed)?;
    let features = train[0].features.len();
    let engine = build_serve_engine(
        &pipeline,
        features,
        seed,
        monitor_window,
        checkpoint,
        batch_config_from(&args)?,
    )?;

    let handle = robusthd_serve::serve(addr.as_str(), config, engine)
        .map_err(|e| format!("cannot bind {addr}: {e}"))?;
    // The banner goes to stderr while the daemon runs; the returned report
    // (stdout) only exists once the drain completes.
    eprintln!(
        "robusthdd listening on {} ({} features, {} classes, dim {}, window {}us, \
         max batch {}, queue {})",
        handle.addr(),
        features,
        pipeline.model.num_classes(),
        dim,
        config.window_us,
        config.max_batch,
        config.queue_depth,
    );
    let (engine, stats) = handle.wait();
    let level = engine.map_or_else(
        || "unknown (drain thread panicked)".to_owned(),
        |e| e.level().to_string(),
    );
    Ok(format!(
        "robusthdd drained: clean accuracy {:.2}%, final level {level}\n{}",
        pipeline.clean_accuracy * 100.0,
        stats_lines(&stats)
    ))
}

/// Optional `--threads`/`--shard` overrides on top of the environment's
/// batch-engine tuning.
fn batch_config_from(args: &ParsedArgs) -> Result<Option<BatchConfig>, String> {
    if args.get("threads").is_none() && args.get("shard").is_none() {
        return Ok(None);
    }
    let env = BatchConfig::from_env();
    let threads = args
        .get_parsed_or("threads", env.threads)
        .map_err(|e| e.to_string())?;
    let shard = args
        .get_parsed_or("shard", env.shard_size)
        .map_err(|e| e.to_string())?;
    BatchConfig::builder()
        .threads(threads)
        .shard_size(shard)
        .build()
        .map(Some)
        .map_err(|e| e.to_string())
}

/// Builds one calibrated [`robusthd_serve::ServeEngine`] deployment from a
/// trained pipeline: fresh supervisor, recovery policy at the soak
/// defaults, canaries = the pipeline's (traffic) queries.
fn build_serve_engine(
    pipeline: &TrainedPipeline,
    features: usize,
    seed: u64,
    monitor_window: usize,
    checkpoint: usize,
    batch: Option<BatchConfig>,
) -> Result<robusthd_serve::ServeEngine, String> {
    let base = soak_recovery(seed ^ 0x5EE4);
    let policy = SupervisorConfig::builder()
        .window(monitor_window)
        .checkpoint_interval(checkpoint)
        .build()
        .map_err(|e| e.to_string())?;
    let mut supervisor = ResilienceSupervisor::new(&pipeline.config, base, policy, features);
    let model = pipeline.model.clone();
    supervisor.calibrate(&model, &pipeline.queries);
    let mut engine = robusthd_serve::ServeEngine::new(pipeline.encoder.clone(), model, supervisor);
    if let Some(batch) = batch {
        engine.set_batch_config(batch);
    }
    Ok(engine)
}

const LOADGEN_HELP: &str = "\
robusthd loadgen — drive concurrent classify load at a running robusthdd

Connects --clients concurrent NDJSON connections to the daemon, each
sending --requests classify requests (cycling through the traffic CSV's
feature rows) with up to --pipeline in flight, and reports latency
percentiles and throughput. overloaded responses are tallied, not fatal.

OPTIONS:
    --addr <ADDR>      daemon address (required)
    --traffic <PATH>   CSV whose feature rows become query payloads (required)
    --clients <N>      concurrent connections (default 8)
    --requests <N>     classify requests per connection (default 64)
    --pipeline <N>     max requests in flight per connection (default 4)
    --json             emit one JSON object instead of text";

/// `robusthd loadgen` — pipelined load against a running daemon.
pub fn loadgen(argv: &[String]) -> Result<String, String> {
    let args = ParsedArgs::parse(
        argv,
        &[
            "addr", "traffic", "clients", "requests", "pipeline", "json", "help",
        ],
    )
    .map_err(|e| e.to_string())?;
    if args.flag("help") {
        return Ok(LOADGEN_HELP.to_owned());
    }
    let addr_raw = args.require("addr").map_err(|e| e.to_string())?;
    let addr = std::net::ToSocketAddrs::to_socket_addrs(addr_raw)
        .map_err(|e| format!("cannot resolve {addr_raw}: {e}"))?
        .next()
        .ok_or_else(|| format!("{addr_raw} resolves to no address"))?;
    let traffic = load_samples(args.require("traffic").map_err(|e| e.to_string())?)?;
    let clients = args
        .get_parsed_or("clients", 8usize)
        .map_err(|e| e.to_string())?;
    let requests = args
        .get_parsed_or("requests", 64usize)
        .map_err(|e| e.to_string())?;
    let pipeline = args
        .get_parsed_or("pipeline", 4usize)
        .map_err(|e| e.to_string())?;
    if clients == 0 || requests == 0 || pipeline == 0 {
        return Err("--clients, --requests, and --pipeline must be positive".to_owned());
    }
    let rows: Vec<Vec<f64>> = traffic.iter().map(|s| s.features.clone()).collect();
    let report = robusthd_serve::run_loadgen(
        addr,
        &rows,
        robusthd_serve::LoadOptions {
            clients,
            requests_per_client: requests,
            pipeline,
        },
    )
    .map_err(|e| format!("loadgen against {addr}: {e}"))?;
    if args.flag("json") {
        return Ok(json_object(vec![
            ("clients", Json::Number(clients as f64)),
            ("requests_per_client", Json::Number(requests as f64)),
            ("pipeline", Json::Number(pipeline as f64)),
            ("sent", Json::Number(report.sent as f64)),
            ("results", Json::Number(report.results as f64)),
            ("overloaded", Json::Number(report.overloaded as f64)),
            ("errors", Json::Number(report.errors as f64)),
            ("elapsed_s", Json::Number(report.elapsed_s)),
            ("qps", Json::Number(report.qps)),
            ("p50_ms", Json::Number(report.p50_ms)),
            ("p95_ms", Json::Number(report.p95_ms)),
            ("p99_ms", Json::Number(report.p99_ms)),
            ("mean_ms", Json::Number(report.mean_ms)),
            ("max_ms", Json::Number(report.max_ms)),
        ])
        .to_string_compact());
    }
    Ok(format!(
        "{} clients x {} requests (pipeline {}): {} results, {} overloaded, {} errors\n\
         {:.1} q/s over {:.2}s; latency p50 {:.2}ms p95 {:.2}ms p99 {:.2}ms mean {:.2}ms max {:.2}ms",
        clients,
        requests,
        pipeline,
        report.results,
        report.overloaded,
        report.errors,
        report.qps,
        report.elapsed_s,
        report.p50_ms,
        report.p95_ms,
        report.p99_ms,
        report.mean_ms,
        report.max_ms,
    ))
}

const SERVEBENCH_HELP: &str = "\
robusthd servebench — coalesced vs sequential serving benchmark (JSON)

Synthesizes a dataset in-process, trains a pipeline, then runs three
phases against fresh identically-calibrated daemons on loopback:

    1. bit-exactness  every row served over the wire must match the
                      reference engine label-for-label and confidence
                      bit-for-bit (f64::to_bits through the JSON roundtrip)
    2. sequential     one lockstep client, concurrency*requests queries:
                      every query pays the canary probe and checkpoint
                      cadence alone
    3. coalesced      --concurrency pipelined clients; the coalescer
                      amortises that per-batch overhead

Emits one JSON object (the BENCH_serve.json body); `speedup` is
coalesced qps over sequential qps.

OPTIONS:
    --dataset <NAME>      mnist | ucihar | isolet | face | pamap | pecan (default ucihar)
    --queries <N>         distinct benchmark rows (default 256)
    --dim <N>             HDC dimensionality (default 2048)
    --seed <N>            pipeline seed (default 0)
    --concurrency <N>     clients in the coalesced phase (default 32)
    --requests <N>        requests per client in the coalesced phase (default 32)
    --pipeline <N>        max in flight per client (default 4)
    --window-us <N>       coalescing window, µs (default 1000)
    --max-batch <N>       micro-batch ceiling (default 64)
    --queue-depth <N>     admission queue bound (default 1024)
    --monitor-window <N>  supervisor verdict window (default 64)
    --checkpoint <N>      checkpoint every N healthy batches (default 16)
    --canaries <N>        retained canary queries (default 128)
    --threads <N>         batch-engine worker threads (default ROBUSTHD_THREADS)
    --shard <N>           batch-engine shard size (default 32)";

/// `robusthd servebench` — the three-phase serving benchmark.
pub fn servebench(argv: &[String]) -> Result<String, String> {
    let args = ParsedArgs::parse(
        argv,
        &[
            "dataset",
            "queries",
            "dim",
            "seed",
            "concurrency",
            "requests",
            "pipeline",
            "window-us",
            "max-batch",
            "queue-depth",
            "monitor-window",
            "checkpoint",
            "canaries",
            "threads",
            "shard",
            "help",
        ],
    )
    .map_err(|e| e.to_string())?;
    if args.flag("help") {
        return Ok(SERVEBENCH_HELP.to_owned());
    }
    let name = args.get("dataset").unwrap_or("ucihar").to_lowercase();
    let spec = dataset_spec(&name)?;
    let queries = args
        .get_parsed_or("queries", 256usize)
        .map_err(|e| e.to_string())?;
    let dim = args
        .get_parsed_or("dim", 2048usize)
        .map_err(|e| e.to_string())?;
    let seed = args
        .get_parsed_or("seed", 0u64)
        .map_err(|e| e.to_string())?;
    let concurrency = args
        .get_parsed_or("concurrency", 32usize)
        .map_err(|e| e.to_string())?;
    let requests = args
        .get_parsed_or("requests", 32usize)
        .map_err(|e| e.to_string())?;
    let pipeline_depth = args
        .get_parsed_or("pipeline", 4usize)
        .map_err(|e| e.to_string())?;
    let monitor_window = args
        .get_parsed_or("monitor-window", 64usize)
        .map_err(|e| e.to_string())?;
    let checkpoint = args
        .get_parsed_or("checkpoint", 16usize)
        .map_err(|e| e.to_string())?;
    let canaries = args
        .get_parsed_or("canaries", 128usize)
        .map_err(|e| e.to_string())?;
    if queries == 0 || concurrency == 0 || requests == 0 || pipeline_depth == 0 || canaries == 0 {
        return Err(
            "--queries, --concurrency, --requests, --pipeline, and --canaries must be positive"
                .to_owned(),
        );
    }
    let config = serve_config_from(&args)?;
    let batch = batch_config_from(&args)?;

    // The canaries ride along as extra test rows so the benchmark rows
    // themselves are never also calibration data.
    let spec = spec.with_sizes(400, queries + canaries);
    let data = GeneratorConfig::new(seed).generate(&spec);
    let pipeline = train_pipeline(&data.train, &data.test, dim, seed)?;
    let features = data.train[0].features.len();
    let canary_queries: Vec<hypervector::BinaryHypervector> = pipeline.queries[queries..].to_vec();
    let rows: Vec<Vec<f64>> = data.test[..queries]
        .iter()
        .map(|s| s.features.clone())
        .collect();

    let threads_label = batch.clone().unwrap_or_else(BatchConfig::from_env).threads;
    let mk_engine = || -> robusthd_serve::ServeEngine {
        let calibration = TrainedPipeline {
            model: pipeline.model.clone(),
            encoder: pipeline.encoder.clone(),
            queries: canary_queries.clone(),
            labels: Vec::new(),
            config: pipeline.config.clone(),
            clean_accuracy: pipeline.clean_accuracy,
        };
        build_serve_engine(
            &calibration,
            features,
            seed,
            monitor_window,
            checkpoint,
            batch.clone(),
        )
        .expect("engine construction is deterministic and already validated")
    };

    let outcome = robusthd_serve::run_servebench(
        &mk_engine,
        &rows,
        &robusthd_serve::BenchOptions {
            dataset: name,
            concurrency,
            requests_per_client: requests,
            pipeline: pipeline_depth,
            config,
            threads: threads_label,
        },
    )
    .map_err(|e| e.to_string())?;
    Ok(outcome.to_json())
}

const FLEETBENCH_HELP: &str = "\
robusthd fleetbench — multi-tenant fleet serving benchmark (JSON)

Builds a synthetic fleet of per-tenant models in-process and runs four
phases against a memory-budgeted model registry:

    1. bit-exactness  a mixed-tenant stream under eviction churn must
                      match per-tenant solo serving label-for-label and
                      confidence bit-for-bit (f64::to_bits)
    2. capacity       a robusthdd fleet daemon serves Zipf-mixed classify
                      traffic over every model id inside the budget
    3. loghd          accuracy of the full models vs their LogHD
                      class-axis compression (C -> ceil(log2 C))
    4. routing        grouped cross-model batches vs one query at a time

Emits one JSON object (the BENCH_fleet.json body).

OPTIONS:
    --models <N>          tenants to register (default 120)
    --cohorts <N>         encoder cohorts sharing codebooks (default 8)
    --dim <N>             HDC dimensionality (default 2048)
    --features <N>        features per query (default 16)
    --classes <N>         classes per tenant model (default 6)
    --rows <N>            rows per class per tenant (default 8)
    --budget-models <N>   memory budget in resident models (default 16)
    --seed <N>            workload seed (default 0)
    --clients <N>         wire-phase clients (default 16)
    --requests <N>        requests per wire client (default 64)
    --pipeline <N>        max in flight per client (default 4)
    --zipf <S>            tenant-mix Zipf exponent (default 1.0)
    --window-us <N>       coalescing window, µs (default 1000)
    --max-batch <N>       micro-batch ceiling (default 64)
    --queue-depth <N>     admission queue bound (default 1024)
    --threads <N>         batch-engine worker threads (default ROBUSTHD_THREADS)
    --shard <N>           batch-engine shard size (default 32)";

/// `robusthd fleetbench` — the four-phase fleet serving benchmark.
pub fn fleetbench(argv: &[String]) -> Result<String, String> {
    let args = ParsedArgs::parse(
        argv,
        &[
            "models",
            "cohorts",
            "dim",
            "features",
            "classes",
            "rows",
            "budget-models",
            "seed",
            "clients",
            "requests",
            "pipeline",
            "zipf",
            "window-us",
            "max-batch",
            "queue-depth",
            "threads",
            "shard",
            "help",
        ],
    )
    .map_err(|e| e.to_string())?;
    if args.flag("help") {
        return Ok(FLEETBENCH_HELP.to_owned());
    }
    let defaults = robusthd_serve::FleetBenchOptions::default();
    let opts = robusthd_serve::FleetBenchOptions {
        models: args
            .get_parsed_or("models", defaults.models)
            .map_err(|e| e.to_string())?,
        cohorts: args
            .get_parsed_or("cohorts", defaults.cohorts)
            .map_err(|e| e.to_string())?,
        dim: args
            .get_parsed_or("dim", defaults.dim)
            .map_err(|e| e.to_string())?,
        features: args
            .get_parsed_or("features", defaults.features)
            .map_err(|e| e.to_string())?,
        classes: args
            .get_parsed_or("classes", defaults.classes)
            .map_err(|e| e.to_string())?,
        rows_per_class: args
            .get_parsed_or("rows", defaults.rows_per_class)
            .map_err(|e| e.to_string())?,
        budget_models: args
            .get_parsed_or("budget-models", defaults.budget_models)
            .map_err(|e| e.to_string())?,
        seed: args
            .get_parsed_or("seed", defaults.seed)
            .map_err(|e| e.to_string())?,
        config: serve_config_from(&args)?,
        batch: batch_config_from(&args)?.unwrap_or_else(BatchConfig::from_env),
        clients: args
            .get_parsed_or("clients", defaults.clients)
            .map_err(|e| e.to_string())?,
        requests_per_client: args
            .get_parsed_or("requests", defaults.requests_per_client)
            .map_err(|e| e.to_string())?,
        pipeline: args
            .get_parsed_or("pipeline", defaults.pipeline)
            .map_err(|e| e.to_string())?,
        zipf_exponent: args
            .get_parsed_or("zipf", defaults.zipf_exponent)
            .map_err(|e| e.to_string())?,
    };
    if opts.models == 0
        || opts.dim == 0
        || opts.features == 0
        || opts.classes == 0
        || opts.rows_per_class == 0
        || opts.budget_models == 0
        || opts.clients == 0
        || opts.requests_per_client == 0
        || opts.pipeline == 0
    {
        return Err("fleetbench counts must all be positive".to_owned());
    }
    let outcome = robusthd_serve::run_fleetbench(&opts).map_err(|e| e.to_string())?;
    Ok(outcome.to_json())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    fn temp_dir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("robusthd-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    fn generate_then_evaluate_roundtrip() {
        let dir = temp_dir();
        let train = dir.join("train.csv");
        let test = dir.join("test.csv");
        let report = generate(&argv(&[
            "--dataset",
            "pecan",
            "--train",
            train.to_str().expect("utf8"),
            "--test",
            test.to_str().expect("utf8"),
            "--train-size",
            "150",
            "--test-size",
            "60",
            "--seed",
            "5",
        ]))
        .expect("generate succeeds");
        assert!(report.contains("150 samples"));

        let report = evaluate(&argv(&[
            "--train",
            train.to_str().expect("utf8"),
            "--test",
            test.to_str().expect("utf8"),
            "--dim",
            "2048",
        ]))
        .expect("evaluate succeeds");
        assert!(report.contains("accuracy"), "report: {report}");
    }

    #[test]
    fn failed_write_keeps_the_earlier_file_and_leaves_no_temp_file() {
        let dir = temp_dir().join("atomic-write");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let target = dir.join("model.rhd");
        let path = target.to_str().expect("utf8");
        let put = |bytes: &'static [u8], fail: bool| {
            write_atomically(path, |file| {
                file.write_all(bytes).map_err(|e| e.to_string())?;
                if fail {
                    Err("disk full".to_owned())
                } else {
                    Ok(())
                }
            })
        };
        put(b"earlier contents", false).expect("first write succeeds");
        assert_eq!(put(b"half of the new", true), Err("disk full".to_owned()));
        assert_eq!(std::fs::read(&target).expect("read"), b"earlier contents");
        let entries: Vec<_> = std::fs::read_dir(&dir)
            .expect("list")
            .map(|e| e.expect("entry").file_name())
            .collect();
        assert_eq!(entries, ["model.rhd"], "temporary file left behind");
        put(b"new contents", false).expect("a complete write replaces the file");
        assert_eq!(std::fs::read(&target).expect("read"), b"new contents");
    }

    #[test]
    fn flags_prints_every_registered_flag() {
        let report = flags(&argv(&[])).expect("flags succeeds");
        for flag in robusthd::FlagRegistry::flags() {
            assert!(
                report.contains(&format!("\"name\":\"{}\"", flag.name)),
                "registry flag {} missing from `robusthd flags` output: {report}",
                flag.name
            );
            assert!(
                report.contains(&format!("\"owner\":\"{}\"", flag.owner)),
                "owner {} missing: {report}",
                flag.owner
            );
        }
        assert!(report.contains("\"effective\""));
    }

    #[test]
    fn flags_help_and_option_validation() {
        let help = flags(&argv(&["--help"])).expect("help");
        assert!(help.contains("FlagRegistry"));
        assert!(flags(&argv(&["--bogus", "1"])).is_err());
    }

    #[test]
    fn recover_runs_end_to_end() {
        let dir = temp_dir();
        let train = dir.join("rec_train.csv");
        let test = dir.join("rec_test.csv");
        generate(&argv(&[
            "--dataset",
            "pecan",
            "--train",
            train.to_str().expect("utf8"),
            "--test",
            test.to_str().expect("utf8"),
            "--train-size",
            "150",
            "--test-size",
            "90",
        ]))
        .expect("generate succeeds");
        let report = recover(&argv(&[
            "--train",
            train.to_str().expect("utf8"),
            "--test",
            test.to_str().expect("utf8"),
            "--dim",
            "2048",
            "--rate",
            "0.08",
            "--passes",
            "6",
        ]))
        .expect("recover succeeds");
        assert!(report.contains("after recovery"), "report: {report}");
    }

    #[test]
    fn train_then_infer_roundtrip() {
        let dir = temp_dir();
        let train_csv = dir.join("ti_train.csv");
        let test_csv = dir.join("ti_test.csv");
        let model_path = dir.join("model.rhd");
        generate(&argv(&[
            "--dataset",
            "pecan",
            "--train",
            train_csv.to_str().expect("utf8"),
            "--test",
            test_csv.to_str().expect("utf8"),
            "--train-size",
            "150",
            "--test-size",
            "60",
        ]))
        .expect("generate succeeds");
        let report = train(&argv(&[
            "--train",
            train_csv.to_str().expect("utf8"),
            "--model",
            model_path.to_str().expect("utf8"),
            "--dim",
            "2048",
        ]))
        .expect("train succeeds");
        assert!(report.contains("saved to"), "report: {report}");
        let report = infer(&argv(&[
            "--model",
            model_path.to_str().expect("utf8"),
            "--input",
            test_csv.to_str().expect("utf8"),
        ]))
        .expect("infer succeeds");
        assert!(report.contains("accuracy"), "report: {report}");
    }

    #[test]
    fn monitor_reports_verdicts() {
        let dir = temp_dir();
        let train_csv = dir.join("mon_train.csv");
        let traffic_csv = dir.join("mon_traffic.csv");
        generate(&argv(&[
            "--dataset",
            "pecan",
            "--train",
            train_csv.to_str().expect("utf8"),
            "--test",
            traffic_csv.to_str().expect("utf8"),
            "--train-size",
            "150",
            "--test-size",
            "90",
        ]))
        .expect("generate succeeds");
        let report = monitor(&argv(&[
            "--train",
            train_csv.to_str().expect("utf8"),
            "--traffic",
            traffic_csv.to_str().expect("utf8"),
            "--dim",
            "2048",
            "--rate",
            "0.1",
            "--steps",
            "4",
        ]))
        .expect("monitor succeeds");
        assert!(report.contains("step 4"), "report: {report}");
        assert!(
            report.contains("healthy") || report.contains("DEGRADED"),
            "report: {report}"
        );
    }

    #[test]
    fn soak_reports_summary_and_json_trace() {
        let dir = temp_dir();
        let train_csv = dir.join("soak_train.csv");
        let traffic_csv = dir.join("soak_traffic.csv");
        generate(&argv(&[
            "--dataset",
            "pecan",
            "--train",
            train_csv.to_str().expect("utf8"),
            "--test",
            traffic_csv.to_str().expect("utf8"),
            "--train-size",
            "150",
            "--test-size",
            "90",
        ]))
        .expect("generate succeeds");
        let base = [
            "--train",
            train_csv.to_str().expect("utf8"),
            "--traffic",
            traffic_csv.to_str().expect("utf8"),
            "--dim",
            "2048",
            "--steps",
            "3",
            "--peak",
            "0.06",
        ];
        let report = soak(&argv(&base)).expect("soak succeeds");
        assert!(report.contains("step 3"), "report: {report}");
        assert!(report.contains("rollbacks"), "report: {report}");

        let mut json_args = base.to_vec();
        json_args.push("--json");
        let trace = soak(&argv(&json_args)).expect("soak --json succeeds");
        assert!(trace.starts_with('{'), "trace: {trace}");
        assert!(trace.contains("\"verdict\""), "trace: {trace}");
    }

    #[test]
    fn soak_json_trace_is_deterministic() {
        let dir = temp_dir();
        let train_csv = dir.join("det_train.csv");
        let traffic_csv = dir.join("det_traffic.csv");
        generate(&argv(&[
            "--dataset",
            "pecan",
            "--train",
            train_csv.to_str().expect("utf8"),
            "--test",
            traffic_csv.to_str().expect("utf8"),
            "--train-size",
            "150",
            "--test-size",
            "90",
        ]))
        .expect("generate succeeds");
        let soak_args = argv(&[
            "--train",
            train_csv.to_str().expect("utf8"),
            "--traffic",
            traffic_csv.to_str().expect("utf8"),
            "--dim",
            "2048",
            "--steps",
            "3",
            "--peak",
            "0.06",
            "--seed",
            "17",
            "--json",
        ]);
        let first = soak(&soak_args).expect("first soak succeeds");
        let second = soak(&soak_args).expect("second soak succeeds");
        assert_eq!(
            first, second,
            "same-seed soak traces must be byte-identical"
        );
    }

    #[test]
    fn throughput_emits_bit_exact_sweep_json() {
        let report = throughput(&argv(&[
            "--dataset",
            "pecan",
            "--queries",
            "120",
            "--dim",
            "2048",
            "--threads",
            "1,2",
            "--repeats",
            "1",
        ]))
        .expect("throughput succeeds");
        assert!(report.starts_with('{'), "report: {report}");
        assert!(report.contains("\"bit_exact\": true"), "report: {report}");
        assert!(
            report.contains("\"reference_encode_qps\": "),
            "report: {report}"
        );
        assert!(report.contains("\"threads\": 2"), "report: {report}");
        assert!(report.contains("encode_qps"), "report: {report}");
        assert!(report.contains("score_qps"), "report: {report}");
        assert!(report.contains("end_to_end_qps"), "report: {report}");
        assert!(report.contains("\"repair_qps\": "), "report: {report}");
        assert!(
            report.contains("\"reference_repair_qps\": "),
            "report: {report}"
        );
    }

    #[test]
    fn throughput_rejects_bad_thread_list() {
        let err = throughput(&argv(&["--threads", "1,zero"])).unwrap_err();
        assert!(err.contains("not a positive integer"), "err: {err}");
        for bad in [["--shard", "0"], ["--repeats", "0"]] {
            let err = throughput(&argv(&bad)).unwrap_err();
            assert!(err.contains("must be positive"), "{bad:?} err: {err}");
        }
    }

    #[test]
    fn trainbench_emits_bit_exact_sweep_json() {
        let report = trainbench(&argv(&[
            "--dataset",
            "pecan",
            "--samples",
            "90",
            "--dim",
            "2048",
            "--epochs",
            "1",
            "--threads",
            "1,2",
            "--repeats",
            "1",
        ]))
        .expect("trainbench succeeds");
        assert!(report.starts_with('{'), "report: {report}");
        assert!(report.contains("\"bit_exact\": true"), "report: {report}");
        assert!(report.contains("\"reference\": {"), "report: {report}");
        assert!(report.contains("\"threads\": 2"), "report: {report}");
        assert!(report.contains("bundle_qps"), "report: {report}");
        assert!(report.contains("retrain_qps"), "report: {report}");
        assert!(report.contains("fit_seconds"), "report: {report}");
    }

    #[test]
    fn trainbench_rejects_bad_thread_list() {
        let err = trainbench(&argv(&["--threads", "1,zero"])).unwrap_err();
        assert!(err.contains("not a positive integer"), "err: {err}");
        for bad in [["--shard", "0"], ["--repeats", "0"]] {
            let err = trainbench(&argv(&bad)).unwrap_err();
            assert!(err.contains("must be positive"), "{bad:?} err: {err}");
        }
    }

    #[test]
    fn kernelbench_emits_the_keys_the_kernel_gate_reads() {
        let report = kernelbench(&argv(&[
            "--dataset",
            "pecan",
            "--dim",
            "512",
            "--queries",
            "16",
            "--repeats",
            "1",
        ]))
        .expect("kernelbench succeeds");
        assert!(report.starts_with('{'), "report: {report}");
        for key in [
            "\"bit_exact\": true",
            "\"kernel_tier\": \"",
            "\"scoring_speedup\": ",
            "\"parity_expected\": ",
            "\"kernel\": \"hamming_all\"",
        ] {
            assert!(report.contains(key), "missing {key}: {report}");
        }
    }

    #[test]
    fn servebench_is_bit_exact_and_emits_the_keys_the_serve_gate_reads() {
        let report = servebench(&argv(&[
            "--dataset",
            "pecan",
            "--dim",
            "512",
            "--concurrency",
            "4",
            "--requests",
            "4",
            "--canaries",
            "16",
            "--queries",
            "32",
        ]))
        .expect("servebench succeeds");
        assert!(report.contains("\"bit_exact\":true"), "report: {report}");
        assert!(report.contains("\"p99_ms\""), "report: {report}");
        let json = robusthd_serve::json::parse(&report).expect("valid JSON");
        assert_eq!(json.get("concurrency").and_then(Json::as_usize), Some(4));
        let speedup = json.get("speedup").and_then(Json::as_f64);
        assert!(speedup.is_some_and(|s| s > 0.0), "report: {report}");
        for phase in ["sequential", "coalesced"] {
            let qps = json.get(phase).and_then(|p| p.get("qps"));
            assert!(
                qps.and_then(Json::as_f64).is_some_and(|q| q > 0.0),
                "{phase} qps missing: {report}"
            );
        }
    }

    #[test]
    fn fleetbench_defaults_meet_the_acceptance_floor() {
        // `robusthd fleetbench` with no options is the acceptance run: it
        // must serve >= 100 models, and over-subscribe the budget at least
        // two to one so eviction churn is structural, not incidental.
        let opts = robusthd_serve::FleetBenchOptions::default();
        assert!(opts.models >= 100, "{opts:?}");
        assert!(opts.budget_models * 2 <= opts.models, "{opts:?}");
    }

    #[test]
    fn fleetbench_is_bit_exact_and_emits_the_keys_the_fleet_gate_reads() {
        let report = fleetbench(&argv(&[
            "--models",
            "24",
            "--cohorts",
            "4",
            "--dim",
            "512",
            "--features",
            "8",
            "--classes",
            "4",
            "--rows",
            "4",
            "--budget-models",
            "4",
            "--clients",
            "4",
            "--requests",
            "8",
        ]))
        .expect("fleetbench succeeds");
        let json = robusthd_serve::json::parse(&report).expect("valid JSON");
        assert_eq!(json.get("bit_exact").and_then(Json::as_bool), Some(true));
        assert!(
            json.get("bit_exact_evictions")
                .and_then(Json::as_usize)
                .is_some_and(|n| n > 0),
            "report: {report}"
        );
        assert_eq!(json.get("models").and_then(Json::as_usize), Some(24));
        let cap = json.get("capacity").expect("capacity object");
        let count = |key: &str| cap.get(key).and_then(Json::as_usize);
        assert_eq!(cap.get("budget_ok").and_then(Json::as_bool), Some(true));
        assert_eq!(count("errors"), Some(0), "report: {report}");
        assert_eq!(count("overloaded"), Some(0), "report: {report}");
        assert_eq!(count("results"), count("sent"), "report: {report}");
        for key in ["evictions", "rehydrations", "dedup_hits"] {
            assert!(count(key).is_some_and(|n| n > 0), "{key}: {report}");
        }
        for key in ["resident_bytes", "budget_bytes"] {
            assert!(count(key).is_some(), "{key} missing: {report}");
        }
        let loghd = json.get("loghd").expect("loghd object");
        let ratio = loghd.get("compression_ratio").and_then(Json::as_f64);
        assert!(ratio.is_some_and(|r| r > 1.0), "report: {report}");
        assert!(loghd.get("delta").is_some(), "report: {report}");
    }

    #[test]
    fn help_flags_short_circuit() {
        for cmd in [
            generate,
            evaluate,
            attack,
            recover,
            train,
            infer,
            monitor,
            soak,
            throughput,
            trainbench,
            kernelbench,
            servebench,
            fleetbench,
        ] {
            let text = cmd(&argv(&["--help"])).expect("help is ok");
            assert!(text.contains("OPTIONS"));
        }
    }

    #[test]
    fn missing_files_are_reported() {
        let err = evaluate(&argv(&[
            "--train",
            "/nonexistent/t.csv",
            "--test",
            "/nonexistent/e.csv",
        ]))
        .unwrap_err();
        assert!(err.contains("cannot open"));
    }

    #[test]
    fn invalid_rate_is_rejected() {
        let dir = temp_dir();
        let train = dir.join("r_train.csv");
        let test = dir.join("r_test.csv");
        generate(&argv(&[
            "--train",
            train.to_str().expect("utf8"),
            "--test",
            test.to_str().expect("utf8"),
            "--dataset",
            "pecan",
            "--train-size",
            "30",
            "--test-size",
            "9",
        ]))
        .expect("generate succeeds");
        let err = attack(&argv(&[
            "--train",
            train.to_str().expect("utf8"),
            "--test",
            test.to_str().expect("utf8"),
            "--rate",
            "1.5",
        ]))
        .unwrap_err();
        assert!(err.contains("outside [0, 1]"));
    }

    #[test]
    fn unknown_dataset_is_rejected() {
        let err = generate(&argv(&[
            "--dataset",
            "imagenet",
            "--train",
            "/tmp/x.csv",
            "--test",
            "/tmp/y.csv",
        ]))
        .unwrap_err();
        assert!(err.contains("unknown dataset"));
    }
}
