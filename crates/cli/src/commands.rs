//! The command table ([`COMMANDS`]) and its subcommands, each a pure
//! function from parsed options to a text report.

use crate::args::Opt::{Defaulted, Flag, Optional, Required};
use crate::args::{Args, Command, Opt};
use advsim::{AdvSoakConfig, AttackBudget, DisagreementCorpus};
use baselines::{BitStoredModel, Mlp, MlpConfig};
use faultsim::{Attacker, ErrorRateSchedule};
use robusthd::diagnostics::{HealthMonitor, HealthVerdict};
use robusthd::persist;
use robusthd::supervisor::ResilienceSupervisor;
use robusthd::{
    accuracy, BatchConfig, BatchEngine, Encoder, HdcConfig, RecordEncoder, RecoveryEngine,
    SupervisorConfig, TrainedModel,
};
use robusthd_bench::advsim::Variants;
use robusthd_bench::attack::attack_hdc;
use robusthd_bench::soak::{soak_recovery, SoakTraffic};
use robusthd_bench::Scale;
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

impl TrainedPipeline {
    /// The encoded test split as the traffic a soak serves.
    fn traffic(&self, features: usize) -> SoakTraffic<'_> {
        SoakTraffic {
            config: &self.config,
            features,
            model: &self.model,
            queries: &self.queries,
            labels: &self.labels,
        }
    }
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

/// The command table, in usage-list order: every subcommand and every
/// option it accepts, one line per option.
#[rustfmt::skip]
pub static COMMANDS: &[Command] = &[
    Command {
        name: "generate",
        summary: "Write a synthetic stand-in dataset to CSV",
        about: "write a synthetic stand-in dataset to CSV",
        options: &[&[
            DATASET,
            Required("train", "PATH", "output CSV for the training split"),
            Required("test", "PATH", "output CSV for the test split"),
            Defaulted("train-size", "N", "1200", "samples in the training split"),
            Defaulted("test-size", "N", "600", "samples in the test split"),
            Defaulted("seed", "N", "1", "generation seed"),
        ]],
        run: generate,
    },
    Command {
        name: "evaluate",
        summary: "Train an HDC classifier and report test accuracy",
        about: "train an HDC classifier on CSV data and report accuracy",
        options: &[&[
            Required("train", "PATH", "training CSV (features..., integer label)"),
            Required("test", "PATH", "test CSV"),
            Defaulted("dim", "N", "10000", "hypervector dimensionality"),
            Defaulted("seed", "N", "0", "pipeline seed"),
        ]],
        run: evaluate,
    },
    Command {
        name: "train",
        summary: "Train an HDC pipeline and save it to a model file",
        about: "train an HDC pipeline on CSV data and save it",
        options: &[&[
            Required("train", "PATH", "training CSV (features..., integer label)"),
            Required("model", "PATH", "output model file"),
            Defaulted("dim", "N", "10000", "hypervector dimensionality"),
            Defaulted("seed", "N", "0", "pipeline seed"),
        ]],
        run: train,
    },
    Command {
        name: "infer",
        summary: "Classify CSV samples with a saved model file",
        about: "load a saved pipeline and classify CSV samples",
        options: &[&[
            Required("model", "PATH", "saved model file from `robusthd train`"),
            Required("input", "PATH", "CSV with features (and a label column, used for scoring)"),
            Flag("predictions", "also print one predicted label per line"),
        ]],
        run: infer,
    },
    Command {
        name: "attack",
        summary: "Compare HDC and an 8-bit DNN under bit-flip attack",
        about: "compare HDC and an 8-bit DNN under random bit-flip attack",
        options: &[&[
            Required("train", "PATH", "training CSV"),
            Required("test", "PATH", "test CSV"),
            Defaulted("rate", "F", "0.1", "fraction of stored model bits to flip"),
            Defaulted("dim", "N", "10000", "HDC dimensionality"),
            Defaulted("seed", "N", "0", "pipeline/attack seed"),
        ]],
        run: attack,
    },
    Command {
        name: "recover",
        summary: "Attack an HDC model, then repair it from unlabeled traffic",
        about: "attack an HDC model, then repair it from unlabeled traffic",
        options: &[&[
            Required("train", "PATH", "training CSV"),
            Required("test", "PATH", "test CSV; also serves as the unlabeled traffic"),
            Defaulted("rate", "F", "0.1", "fraction of stored model bits to flip"),
            Defaulted("dim", "N", "4096", "HDC dimensionality"),
            Defaulted("passes", "N", "16", "recovery passes over the traffic"),
            Defaulted("seed", "N", "0", "pipeline/attack seed"),
        ]],
        run: recover,
    },
    Command {
        name: "monitor",
        summary: "Judge a model's health from unlabeled traffic as it corrupts",
        about: "\
judge a model's health from unlabeled traffic

Calibrates on the clean model, re-plays the traffic against an attacked
copy, and reports the monitor's verdict at each corruption step.",
        options: &[&[
            Required("train", "PATH", "training CSV"),
            Required("traffic", "PATH", "unlabeled traffic CSV (label column present but unused)"),
            Defaulted("rate", "F", "0.05", "per-step corruption increment"),
            Defaulted("steps", "N", "5", "corruption steps to simulate"),
            Defaulted("dim", "N", "4096", "HDC dimensionality"),
            Defaulted("seed", "N", "0", "pipeline/attack seed"),
        ]],
        run: monitor,
    },
    Command {
        name: "soak",
        summary: "Chaos-soak the self-healing serving runtime under an attack campaign",
        about: "\
chaos-soak the self-healing serving runtime

Trains a pipeline, calibrates the resilience supervisor on the first half
of the traffic (retained as canaries), then serves the second half while
an attack campaign corrupts the stored model between batches. The
supervisor monitors, repairs at an escalating ladder, checkpoints healthy
states, and rolls back when recovery keeps failing.",
        options: &[&[
            Required("train", "PATH", "training CSV"),
            Required("traffic", "PATH", "traffic CSV (labels used only to report accuracy)"),
            Defaulted("steps", "N", "8", "attack-campaign steps"),
            Defaulted("peak", "F", "0.12", "cumulative corruption rate at the last step"),
            Flag("burst", "also flip half of every stored word at the midpoint\n\
                           (a catastrophe that forces escalation and rollback)"),
            Flag("targeted", "spend the campaign budget on stored-word MSBs first"),
            Defaulted("dim", "N", "4096", "HDC dimensionality"),
            Defaulted("seed", "N", "0", "pipeline/campaign seed"),
            Flag("json", "emit the full JSON soak trace instead of a text report"),
        ]],
        run: soak,
    },
    Command {
        name: "advsoak",
        summary: "Joint memory + input adversarial soak with disagreement hunting",
        about: "\
joint memory + input adversarial soak

Trains a pipeline, calibrates the resilience supervisor on the first half
of the traffic (canaries), then serves the second half while an attack
campaign corrupts stored memory AND a blackbox margin-guided attacker
perturbs a fraction of the queries inside a hard Hamming budget. Reports
whether the confidence gate detects the adversarial queries. Also hunts a
disagreement corpus across model variants (one-shot vs retrained vs
memory-attacked) that can be persisted and later replayed bit-exactly,
and sweeps the attacker's Hamming budget (radius 0, 16, 64 and 256,
candidate width 32) against the clean model on the first 48 traffic
queries: attack success, detection and blackbox queries per radius.",
        options: &[&[
            Required("train", "PATH", "training CSV"),
            Required("traffic", "PATH", "traffic CSV (labels used only to report accuracy)"),
            Defaulted("steps", "N", "6", "attack-campaign steps"),
            Defaulted("peak", "F", "0.08", "cumulative memory corruption at the last step"),
            Flag("tcam", "derive the memory-corruption schedule from the FeFET/TCAM\n\
                          retention model (Vth drift) instead of the linear ramp"),
            Defaulted("horizon", "F", "1e8", "TCAM retention horizon in seconds"),
            Defaulted("radius", "N", "64", "input-attack Hamming budget per query"),
            Defaulted("candidates", "N", "64", "candidate bits scored per attack round"),
            Defaulted("attack-frac", "F", "0.15", "fraction of served queries attacked per step"),
            Defaulted("trust", "F", "0.45", "confidence trust threshold T_C"),
            Optional("corpus", "PATH", "persist the disagreement corpus (ADVC1 text) here"),
            Optional("replay", "PATH", "replay a saved corpus against the rebuilt pipeline and\n\
                                        report exactness instead of running the soak"),
            Defaulted("dim", "N", "4096", "HDC dimensionality"),
            Defaulted("seed", "N", "0", "pipeline/attack seed"),
            Flag("json", "emit the full JSON report instead of a text report"),
        ]],
        run: advsoak,
    },
    Command {
        name: "paper",
        summary: "Regenerate the paper's tables and figures (results_standard.txt)",
        about: "\
regenerate the paper's tables and figures

Runs the experiment behind each of the paper's artifacts on the synthetic
stand-in datasets and prints its table under a `== … ==` heading, in the
layout and order of results_standard.txt, so
`robusthd paper > results_standard.txt` regenerates the committed record.
Every experiment is seeded, so the same scale prints the same text.",
        options: &[&[
            Optional("only", "NAME", "print one artifact: \
                                      table1 | table3 | table4 | fig2 | fig3 |\n\
                                      fig4a | fig4b | ablation (default: all of them)"),
            Defaulted("scale", "NAME", "standard", "quick | standard | full"),
        ]],
        run: paper,
    },
    Command {
        name: "serve",
        summary: "Run robusthdd, the coalescing NDJSON serving daemon",
        about: "\
run robusthdd, the network serving daemon

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
    {\"type\":\"stats\"} | {\"type\":\"health\"} | {\"type\":\"ping\"} | {\"type\":\"shutdown\"}",
        options: &[
            &[
                Required("train", "PATH", "training CSV"),
                Required("traffic", "PATH", "calibration/canary CSV"),
                Defaulted("addr", "ADDR", "127.0.0.1:7878", "listen address"),
                Defaulted("dim", "N", "4096", "HDC dimensionality"),
                Defaulted("seed", "N", "0", "pipeline seed"),
            ],
            DAEMON,
            &[
                Defaulted("monitor-window", "N", "64", "supervisor verdict window in queries"),
                Defaulted("checkpoint", "N", "16", "checkpoint every N healthy batches"),
            ],
            ENGINE,
        ],
        run: serve,
    },
    Command {
        name: "loadgen",
        summary: "Drive concurrent classify load at a running robusthdd",
        about: "\
drive concurrent classify load at a running robusthdd

Connects --clients concurrent NDJSON connections to the daemon, each
sending --requests classify requests (cycling through the traffic CSV's
feature rows) with up to --pipeline in flight, and reports latency
percentiles and throughput. overloaded responses are tallied, not fatal.",
        options: &[&[
            Required("addr", "ADDR", "daemon address"),
            Required("traffic", "PATH", "CSV whose feature rows become query payloads"),
            Defaulted("clients", "N", "8", "concurrent connections"),
            Defaulted("requests", "N", "64", "classify requests per connection"),
            Defaulted("pipeline", "N", "4", "max requests in flight per connection"),
            Flag("json", "emit one JSON object instead of text"),
        ]],
        run: loadgen,
    },
    Command {
        name: "servebench",
        summary: "Benchmark coalesced vs sequential daemon serving (JSON)",
        about: "\
coalesced vs sequential serving benchmark (JSON)

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
coalesced qps over sequential qps.",
        options: &[
            &[
                DATASET,
                Defaulted("queries", "N", "256", "distinct benchmark rows"),
                Defaulted("dim", "N", "2048", "HDC dimensionality"),
                Defaulted("seed", "N", "0", "pipeline seed"),
                Defaulted("concurrency", "N", "32", "clients in the coalesced phase"),
                Defaulted("requests", "N", "32", "requests per client in the coalesced phase"),
                Defaulted("pipeline", "N", "4", "max in flight per client"),
            ],
            DAEMON,
            &[
                Defaulted("monitor-window", "N", "64", "supervisor verdict window"),
                Defaulted("checkpoint", "N", "16", "checkpoint every N healthy batches"),
                Defaulted("canaries", "N", "128", "retained canary queries"),
            ],
            ENGINE,
        ],
        run: servebench,
    },
    Command {
        name: "fleetbench",
        summary: "Benchmark multi-tenant fleet serving under a memory budget (JSON)",
        about: "\
multi-tenant fleet serving benchmark (JSON)

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

Emits one JSON object (the BENCH_fleet.json body).",
        options: &[
            &[
                Defaulted("models", "N", "120", "tenants to register"),
                Defaulted("cohorts", "N", "8", "encoder cohorts sharing codebooks"),
                Defaulted("dim", "N", "2048", "HDC dimensionality"),
                Defaulted("features", "N", "16", "features per query"),
                Defaulted("classes", "N", "6", "classes per tenant model"),
                Defaulted("rows", "N", "8", "rows per class per tenant"),
                Defaulted("budget-models", "N", "16", "memory budget in resident models"),
                Defaulted("seed", "N", "0", "workload seed"),
                Defaulted("clients", "N", "16", "wire-phase clients"),
                Defaulted("requests", "N", "64", "requests per wire client"),
                Defaulted("pipeline", "N", "4", "max in flight per client"),
                Defaulted("zipf", "S", "1.0", "tenant-mix Zipf exponent"),
            ],
            DAEMON,
            ENGINE,
        ],
        run: fleetbench,
    },
    Command {
        name: "throughput",
        summary: "Benchmark batched inference across thread counts (JSON)",
        about: "\
measure serving throughput by phase (queries/sec)

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
to stdout.",
        options: &[&[
            DATASET,
            Defaulted("queries", "N", "2000", "queries per timed batch"),
            Defaulted("dim", "N", "4096", "HDC dimensionality"),
            Defaulted("threads", "LIST", "1,2,4,8", "comma-separated thread counts"),
            Defaulted("shard", "N", "32", "shard size in queries"),
            Defaulted("repeats", "N", "3", "timed repetitions per thread count; \
                                            best rate wins"),
            Defaulted("seed", "N", "0", "pipeline seed"),
        ]],
        run: throughput,
    },
    Command {
        name: "trainbench",
        summary: "Benchmark bit-sliced training (bundle/retrain) across thread counts (JSON)",
        about: "\
measure training throughput by phase (samples/sec)

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
`reference` row. Emits one JSON object to stdout.",
        options: &[&[
            DATASET,
            Defaulted("samples", "N", "400", "training samples per fit"),
            Defaulted("dim", "N", "4096", "HDC dimensionality"),
            Defaulted("epochs", "N", "2", "retraining epoch budget"),
            Defaulted("threads", "LIST", "1,2,4,8", "comma-separated thread counts"),
            Defaulted("shard", "N", "32", "shard size in samples"),
            Defaulted("repeats", "N", "3", "timed repetitions per thread count; \
                                            best time wins"),
            Defaulted("seed", "N", "0", "pipeline seed"),
        ]],
        run: trainbench,
    },
    Command {
        name: "kernelbench",
        summary: "Benchmark execution-tier kernels (reference vs wide GiB/s) (JSON)",
        about: "\
measure execution-tier kernel throughput (GiB/s)

Times every kernel family the execution tiers re-route — pairwise and
masked-range Hamming distance, class-major scoring, the carry-save
majority ripple, bipolar count extraction, threshold extraction, and the
word-major fused bind+bundle that record encoding runs once per row — on
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
divergence fails the command. Emits one JSON object to stdout.",
        options: &[&[
            DATASET,
            Defaulted("dim", "N", "8192", "HDC dimensionality"),
            Defaulted("queries", "N", "400", "end-to-end query batch size"),
            Defaulted("repeats", "N", "3", "timed rounds per kernel, \
                                            each timing both tiers once; the best\n\
                                            round wins, as it does for predict_qps"),
            Defaulted("seed", "N", "0", "pipeline seed"),
        ]],
        run: kernelbench,
    },
    Command {
        name: "flags",
        summary: "Print the ROBUSTHD_* environment-flag registry (JSON)",
        about: "\
print the ROBUSTHD_* environment-flag registry as JSON

Every runtime flag the suite reads is registered centrally in
robusthd::FlagRegistry; this command dumps that registry, so the output
is definitionally complete: a flag that does not appear here does not
exist (the repo lints fail any environment read that bypasses the
registry). Per flag: the variable name, the config struct that parses
it, its default, whether it is currently set, the raw value, and the
effective parsed value.",
        options: &[],
        run: |_| Ok(flags()),
    },
];

/// `--dataset`, for the commands that synthesize their data.
const DATASET: Opt = Defaulted(
    "dataset",
    "NAME",
    "ucihar",
    "mnist | ucihar | isolet | face | pamap | pecan",
);

/// The daemon tuning shared by `serve`, `servebench` and `fleetbench`; the
/// defaults are [`robusthd::ServeConfig::default`]'s.
const DAEMON: &[Opt] = &[
    Defaulted("window-us", "N", "1000", "coalescing window, µs"),
    Defaulted("max-batch", "N", "64", "micro-batch ceiling"),
    Defaulted("queue-depth", "N", "1024", "admission queue bound"),
];

/// The batch-engine overrides shared by `serve`, `servebench` and
/// `fleetbench`; one left out keeps the environment's value.
const ENGINE: &[Opt] = &[
    Optional(
        "threads",
        "N",
        "batch-engine worker threads (default ROBUSTHD_THREADS)",
    ),
    Optional("shard", "N", "batch-engine shard size (default 32)"),
];

/// `robusthd generate` — synthesize a dataset and write both splits as CSV.
fn generate(args: &Args) -> Result<String, String> {
    let spec = dataset_spec(args)?;
    let train_size = args.get("train-size")?;
    let test_size = args.get("test-size")?;
    let seed = args.get("seed")?;
    let train_path: String = args.get("train")?;
    let test_path: String = args.get("test")?;

    let spec = spec.with_sizes(train_size, test_size);
    let data = GeneratorConfig::new(seed).generate(&spec);
    let write = |path: &str, samples: &[Sample]| {
        write_atomically(path, |file| {
            csv::write_samples(file, samples).map_err(|e| format!("writing {path}: {e}"))
        })
    };
    write(&train_path, &data.train)?;
    write(&test_path, &data.test)?;
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

/// `robusthd evaluate` — train on one CSV, score on another.
fn evaluate(args: &Args) -> Result<String, String> {
    let train = load_samples(&args.get::<String>("train")?)?;
    let test = load_samples(&args.get::<String>("test")?)?;
    let dim = args.get("dim")?;
    let seed = args.get("seed")?;
    let pipeline = train_pipeline(&train, &test, dim, seed)?;
    Ok(format!(
        "trained on {} samples, tested on {}: accuracy {:.2}% (D = {dim})",
        train.len(),
        test.len(),
        pipeline.clean_accuracy * 100.0
    ))
}

/// A fraction option's value, checked to lie in `[0, 1]`.
fn fraction(args: &Args, name: &str) -> Result<f64, String> {
    let value = args.get(name)?;
    if (0.0..=1.0).contains(&value) {
        Ok(value)
    } else {
        Err(format!("--{name} {value} outside [0, 1]"))
    }
}

/// `--steps`, checked to be positive.
fn positive_steps(args: &Args) -> Result<usize, String> {
    match args.get("steps")? {
        0 => Err("--steps must be positive".to_owned()),
        steps => Ok(steps),
    }
}

/// `robusthd attack` — HDC vs DNN quality loss at one attack rate.
fn attack(args: &Args) -> Result<String, String> {
    let train = load_samples(&args.get::<String>("train")?)?;
    let test = load_samples(&args.get::<String>("test")?)?;
    let rate = fraction(args, "rate")?;
    let dim = args.get("dim")?;
    let seed: u64 = args.get("seed")?;

    let pipeline = train_pipeline(&train, &test, dim, seed)?;
    let attacked = attack_hdc(&pipeline.model, rate, seed ^ 0xa77);
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

/// `robusthd recover` — the full attack → unsupervised-repair loop.
fn recover(args: &Args) -> Result<String, String> {
    let train = load_samples(&args.get::<String>("train")?)?;
    let test = load_samples(&args.get::<String>("test")?)?;
    let rate = fraction(args, "rate")?;
    let dim = args.get("dim")?;
    let passes = args.get("passes")?;
    let seed: u64 = args.get("seed")?;

    let pipeline = train_pipeline(&train, &test, dim, seed)?;
    let mut model = attack_hdc(&pipeline.model, rate, seed ^ 0xa77);
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

/// `robusthd train` — fit a pipeline and persist it.
fn train(args: &Args) -> Result<String, String> {
    let train_samples = load_samples(&args.get::<String>("train")?)?;
    let model_path: String = args.get("model")?;
    let dim = args.get("dim")?;
    let seed = args.get("seed")?;

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

    write_atomically(&model_path, |file| {
        persist::save_model(file, &config, features, &model)
            .map_err(|e| format!("writing {model_path}: {e}"))
    })?;
    Ok(format!(
        "trained on {} samples ({features} features, {classes} classes, D = {dim}); saved to {model_path}",
        train_samples.len()
    ))
}

/// `robusthd infer` — serve predictions from a persisted pipeline.
fn infer(args: &Args) -> Result<String, String> {
    let model_path: String = args.get("model")?;
    let input = load_samples(&args.get::<String>("input")?)?;
    let file =
        File::open(Path::new(&model_path)).map_err(|e| format!("cannot open {model_path}: {e}"))?;
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

/// `robusthd monitor` — unsupervised degradation detection demo.
fn monitor(args: &Args) -> Result<String, String> {
    let train = load_samples(&args.get::<String>("train")?)?;
    let traffic = load_samples(&args.get::<String>("traffic")?)?;
    let rate = fraction(args, "rate")?;
    let steps = args.get("steps")?;
    let dim = args.get("dim")?;
    let seed: u64 = args.get("seed")?;

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
        model = attack_hdc(&model, rate, seed ^ (step as u64) << 4);
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

/// `robusthd soak` — closed-loop resilience soak with fault injection.
fn soak(args: &Args) -> Result<String, String> {
    let train = load_samples(&args.get::<String>("train")?)?;
    let traffic = load_samples(&args.get::<String>("traffic")?)?;
    let steps = positive_steps(args)?;
    let peak = fraction(args, "peak")?;
    let dim = args.get("dim")?;
    let seed = args.get("seed")?;
    let burst = args.flag("burst");
    let targeted = args.flag("targeted");

    let pipeline = train_pipeline(&train, &traffic, dim, seed)?;
    let soak = robusthd_bench::soak::run(
        &pipeline.traffic(train[0].features.len()),
        seed,
        steps,
        peak,
        burst,
        targeted,
    )?;
    let report = soak.report;

    if args.flag("json") {
        return Ok(report.to_json());
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "calibrated on {} canaries, serving {} queries per batch",
        soak.canaries, soak.served
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

/// `robusthd advsoak` — adversarial scenario soak (input + memory attacks).
fn advsoak(args: &Args) -> Result<String, String> {
    let train = load_samples(&args.get::<String>("train")?)?;
    let traffic = load_samples(&args.get::<String>("traffic")?)?;
    let steps = positive_steps(args)?;
    let peak = fraction(args, "peak")?;
    let horizon: f64 = args.get("horizon")?;
    let radius = args.get("radius")?;
    let candidates = args.get("candidates")?;
    let attack_frac = fraction(args, "attack-frac")?;
    let trust = args.get("trust")?;
    let dim = args.get("dim")?;
    let seed: u64 = args.get("seed")?;

    let pipeline = train_pipeline(&train, &traffic, dim, seed)?;
    let train_rows: Vec<&[f64]> = train.iter().map(|s| s.features.as_slice()).collect();
    let train_labels: Vec<_> = train.iter().map(|s| s.label).collect();
    let variants = Variants::build(
        &pipeline.config,
        &pipeline.model,
        &pipeline.encoder.encode_batch_refs(&train_rows),
        &train_labels,
        seed,
    );

    // Replay mode: verify a previously persisted corpus bit-exactly
    // against the rebuilt pipeline, then stop.
    if let Some(path) = args.opt::<String>("replay")? {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let corpus = DisagreementCorpus::from_text(&text).map_err(|e| format!("{path}: {e}"))?;
        let report = corpus.replay(
            &BatchEngine::from_env(),
            &pipeline.encoder,
            &variants.named(),
            pipeline.config.softmax_beta,
        );
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
        ErrorRateSchedule::linear(0.0, peak, steps)
    };
    let config = AdvSoakConfig {
        schedule,
        budget: AttackBudget::new(radius)
            .with_candidates(candidates)
            .with_seed(seed ^ 0xADF0),
        attack_fraction: attack_frac,
        trust_threshold: trust,
    };
    let outcome = robusthd_bench::advsim::run(
        &pipeline.traffic(train[0].features.len()),
        &pipeline.encoder,
        &variants,
        &traffic,
        seed,
        &config,
    )?;
    let (corpus, report) = (&outcome.corpus, &outcome.soak);
    let mut corpus_note = format!("{} disagreements", corpus.cases.len());
    if let Some(path) = args.opt::<String>("corpus")? {
        write_atomically(&path, |file| {
            file.write_all(corpus.to_text().as_bytes())
                .map_err(|e| format!("cannot write {path}: {e}"))
        })?;
        let _ = write!(corpus_note, " (persisted to {path})");
    }

    if args.flag("json") {
        let curve: Vec<String> = outcome
            .curve
            .iter()
            .map(|p| {
                format!(
                    "{{\"radius\":{},\"attacks\":{},\"successes\":{},\"detected\":{},\
                     \"mean_flips\":{},\"mean_queries\":{}}}",
                    p.radius, p.attacks, p.successes, p.detected, p.mean_flips, p.mean_queries
                )
            })
            .collect();
        return Ok(format!(
            "{{\"corpus_cases\":{},\"radius\":{},\"soak\":{},\"curve\":[{}]}}",
            corpus.cases.len(),
            radius,
            report.to_json(),
            curve.join(",")
        ));
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "calibrated on {} canaries, serving {} queries per step",
        outcome.canaries, outcome.served
    );
    let _ = writeln!(out, "hunt: {corpus_note}");
    for p in &outcome.curve {
        let _ = writeln!(
            out,
            "budget {}: {}/{} attacks succeeded ({} caught), {:.1} flips and {:.0} queries per attack",
            p.radius, p.successes, p.attacks, p.detected, p.mean_flips, p.mean_queries
        );
    }
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

/// `robusthd paper` — the paper's tables and figures
/// ([`robusthd_bench::paper::render`]).
fn paper(args: &Args) -> Result<String, String> {
    let scale = match args.get::<String>("scale")?.as_str() {
        "quick" => Scale::Quick,
        "standard" => Scale::Standard,
        "full" => Scale::Full,
        other => {
            return Err(format!(
                "unknown scale `{other}` (expected quick, standard or full)"
            ))
        }
    };
    let only = args.opt::<String>("only")?;
    let mut text = robusthd_bench::paper::render(only.as_deref(), scale).ok_or_else(|| {
        let names: Vec<_> = robusthd_bench::paper::names().collect();
        format!(
            "unknown artifact `{}` (expected one of: {})",
            only.unwrap_or_default(),
            names.join(", ")
        )
    })?;
    text.pop();
    Ok(text)
}

/// A JSON object from `(key, value)` pairs, in order.
fn json_object(fields: Vec<(&str, Json)>) -> Json {
    Json::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// The flag registry as one JSON object: what `robusthd flags` prints.
pub fn flags() -> String {
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
    json_object(vec![("flags", Json::Array(entries))]).to_string_compact()
}

/// `robusthd throughput` — queries/sec sweep over thread counts
/// ([`robusthd_bench::throughput::run`]).
fn throughput(args: &Args) -> Result<String, String> {
    let spec = dataset_spec(args)?;
    let queries = args.get("queries")?;
    let dim = args.get("dim")?;
    if queries == 0 || dim == 0 {
        return Err("--queries and --dim must be positive".to_owned());
    }
    let seed = args.get("seed")?;
    let (threads, shard, repeats) = sweep_args(args)?;
    let outcome =
        robusthd_bench::throughput::run(&spec, queries, dim, seed, &threads, shard, repeats);
    Ok(outcome.to_json())
}

/// `robusthd trainbench` — training samples/sec sweep over thread counts
/// ([`robusthd_bench::trainbench::run`]).
fn trainbench(args: &Args) -> Result<String, String> {
    let spec = dataset_spec(args)?;
    let samples = args.get("samples")?;
    let dim = args.get("dim")?;
    if samples == 0 || dim == 0 {
        return Err("--samples and --dim must be positive".to_owned());
    }
    let epochs = args.get("epochs")?;
    let seed = args.get("seed")?;
    let (threads, shard, repeats) = sweep_args(args)?;
    let outcome = robusthd_bench::trainbench::run(
        &spec, samples, dim, seed, epochs, &threads, shard, repeats,
    );
    Ok(outcome.to_json())
}

/// Parses and validates the thread-sweep tuning shared by `throughput`
/// and `trainbench` — `--threads`, `--shard`, `--repeats` — so a bad value
/// is an error here rather than an assertion in the bench harness.
fn sweep_args(args: &Args) -> Result<(Vec<usize>, usize, usize), String> {
    let shard = args.get("shard")?;
    let repeats = args.get("repeats")?;
    if shard == 0 || repeats == 0 {
        return Err("--shard and --repeats must be positive".to_owned());
    }
    let threads = args
        .get::<String>("threads")?
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

/// Operand traffic per timed kernel pass, so each repeat takes
/// milliseconds.
const KERNEL_PASS_BYTES: usize = 64 * 1024 * 1024;

/// `robusthd kernelbench` — execution-tier kernel GiB/s sweep
/// (reference vs wide), bit-exactness gated
/// ([`robusthd_bench::kernelbench::run`]).
fn kernelbench(args: &Args) -> Result<String, String> {
    let spec = dataset_spec(args)?;
    let dim = args.get("dim")?;
    let queries = args.get("queries")?;
    let repeats = args.get("repeats")?;
    if dim == 0 || queries == 0 || repeats == 0 {
        return Err("--dim, --queries and --repeats must be positive".to_owned());
    }
    let seed = args.get("seed")?;
    let outcome =
        robusthd_bench::kernelbench::run(&spec, dim, queries, seed, repeats, KERNEL_PASS_BYTES);
    Ok(outcome.to_json())
}

/// Resolves `--dataset` to its synthetic spec.
fn dataset_spec(args: &Args) -> Result<DatasetSpec, String> {
    match args.get::<String>("dataset")?.to_lowercase().as_str() {
        "mnist" => Ok(DatasetSpec::mnist()),
        "ucihar" | "uci-har" | "har" => Ok(DatasetSpec::ucihar()),
        "isolet" => Ok(DatasetSpec::isolet()),
        "face" => Ok(DatasetSpec::face()),
        "pamap" => Ok(DatasetSpec::pamap()),
        "pecan" => Ok(DatasetSpec::pecan()),
        other => Err(format!("unknown dataset `{other}`")),
    }
}

/// The daemon tuning ([`DAEMON`]) as a validated serve configuration.
fn serve_config_from(args: &Args) -> Result<robusthd::ServeConfig, String> {
    robusthd::ServeConfig::builder()
        .window_us(args.get("window-us")?)
        .max_batch(args.get("max-batch")?)
        .queue_depth(args.get("queue-depth")?)
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

/// `robusthd serve` — run the serving daemon until a protocol shutdown.
fn serve(args: &Args) -> Result<String, String> {
    let train = load_samples(&args.get::<String>("train")?)?;
    let traffic = load_samples(&args.get::<String>("traffic")?)?;
    let addr: String = args.get("addr")?;
    let dim = args.get("dim")?;
    let seed = args.get("seed")?;
    let monitor_window = args.get("monitor-window")?;
    let checkpoint = args.get("checkpoint")?;
    let config = serve_config_from(args)?;

    let pipeline = train_pipeline(&train, &traffic, dim, seed)?;
    let features = train[0].features.len();
    let engine = build_serve_engine(
        &pipeline,
        features,
        seed,
        monitor_window,
        checkpoint,
        batch_config_from(args)?,
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

/// The batch-engine overrides ([`ENGINE`]) on top of the environment's
/// tuning, or `None` when neither is given.
fn batch_config_from(args: &Args) -> Result<Option<BatchConfig>, String> {
    let (threads, shard) = (args.opt("threads")?, args.opt("shard")?);
    if threads.is_none() && shard.is_none() {
        return Ok(None);
    }
    let env = BatchConfig::from_env();
    BatchConfig::builder()
        .threads(threads.unwrap_or(env.threads))
        .shard_size(shard.unwrap_or(env.shard_size))
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

/// `robusthd loadgen` — pipelined load against a running daemon.
fn loadgen(args: &Args) -> Result<String, String> {
    let addr_raw: String = args.get("addr")?;
    let addr = std::net::ToSocketAddrs::to_socket_addrs(&addr_raw)
        .map_err(|e| format!("cannot resolve {addr_raw}: {e}"))?
        .next()
        .ok_or_else(|| format!("{addr_raw} resolves to no address"))?;
    let traffic = load_samples(&args.get::<String>("traffic")?)?;
    let clients = args.get("clients")?;
    let requests = args.get("requests")?;
    let pipeline = args.get("pipeline")?;
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

/// `robusthd servebench` — the three-phase serving benchmark.
fn servebench(args: &Args) -> Result<String, String> {
    let spec = dataset_spec(args)?;
    let queries = args.get("queries")?;
    let dim = args.get("dim")?;
    let seed = args.get("seed")?;
    let concurrency = args.get("concurrency")?;
    let requests = args.get("requests")?;
    let pipeline_depth = args.get("pipeline")?;
    let monitor_window = args.get("monitor-window")?;
    let checkpoint = args.get("checkpoint")?;
    let canaries: usize = args.get("canaries")?;
    if queries == 0 || concurrency == 0 || requests == 0 || pipeline_depth == 0 || canaries == 0 {
        return Err(
            "--queries, --concurrency, --requests, --pipeline, and --canaries must be positive"
                .to_owned(),
        );
    }
    let config = serve_config_from(args)?;
    let batch = batch_config_from(args)?;

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
            dataset: args.get::<String>("dataset")?.to_lowercase(),
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

/// `robusthd fleetbench` — the four-phase fleet serving benchmark.
fn fleetbench(args: &Args) -> Result<String, String> {
    let opts = robusthd_serve::FleetBenchOptions {
        models: args.get("models")?,
        cohorts: args.get("cohorts")?,
        dim: args.get("dim")?,
        features: args.get("features")?,
        classes: args.get("classes")?,
        rows_per_class: args.get("rows")?,
        budget_models: args.get("budget-models")?,
        seed: args.get("seed")?,
        config: serve_config_from(args)?,
        batch: batch_config_from(args)?.unwrap_or_else(BatchConfig::from_env),
        clients: args.get("clients")?,
        requests_per_client: args.get("requests")?,
        pipeline: args.get("pipeline")?,
        zipf_exponent: args.get("zipf")?,
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

    /// Runs `robusthd <parts>` through the command table.
    fn cli(parts: &[&str]) -> Result<String, String> {
        crate::run(&argv(parts))
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
        let report = cli(&[
            "generate",
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
        ])
        .expect("generate succeeds");
        assert!(report.contains("150 samples"));

        let report = cli(&[
            "evaluate",
            "--train",
            train.to_str().expect("utf8"),
            "--test",
            test.to_str().expect("utf8"),
            "--dim",
            "2048",
        ])
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
        let report = cli(&["flags"]).expect("flags succeeds");
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
        let help = cli(&["flags", "--help"]).expect("help");
        assert!(help.contains("FlagRegistry"));
        assert!(cli(&["flags", "--bogus", "1"]).is_err());
    }

    #[test]
    fn recover_runs_end_to_end() {
        let dir = temp_dir();
        let train = dir.join("rec_train.csv");
        let test = dir.join("rec_test.csv");
        cli(&[
            "generate",
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
        ])
        .expect("generate succeeds");
        let report = cli(&[
            "recover",
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
        ])
        .expect("recover succeeds");
        assert!(report.contains("after recovery"), "report: {report}");
    }

    #[test]
    fn train_then_infer_roundtrip() {
        let dir = temp_dir();
        let train_csv = dir.join("ti_train.csv");
        let test_csv = dir.join("ti_test.csv");
        let model_path = dir.join("model.rhd");
        cli(&[
            "generate",
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
        ])
        .expect("generate succeeds");
        let report = cli(&[
            "train",
            "--train",
            train_csv.to_str().expect("utf8"),
            "--model",
            model_path.to_str().expect("utf8"),
            "--dim",
            "2048",
        ])
        .expect("train succeeds");
        assert!(report.contains("saved to"), "report: {report}");
        let report = cli(&[
            "infer",
            "--model",
            model_path.to_str().expect("utf8"),
            "--input",
            test_csv.to_str().expect("utf8"),
        ])
        .expect("infer succeeds");
        assert!(report.contains("accuracy"), "report: {report}");
    }

    #[test]
    fn monitor_reports_verdicts() {
        let dir = temp_dir();
        let train_csv = dir.join("mon_train.csv");
        let traffic_csv = dir.join("mon_traffic.csv");
        cli(&[
            "generate",
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
        ])
        .expect("generate succeeds");
        let report = cli(&[
            "monitor",
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
        ])
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
        cli(&[
            "generate",
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
        ])
        .expect("generate succeeds");
        let base = [
            "soak",
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
        let report = cli(&base).expect("soak succeeds");
        assert!(report.contains("step 3"), "report: {report}");
        assert!(report.contains("rollbacks"), "report: {report}");

        let mut json_args = base.to_vec();
        json_args.push("--json");
        let trace = cli(&json_args).expect("soak --json succeeds");
        assert!(trace.starts_with('{'), "trace: {trace}");
        assert!(trace.contains("\"verdict\""), "trace: {trace}");
    }

    #[test]
    fn soak_json_trace_is_deterministic() {
        let dir = temp_dir();
        let train_csv = dir.join("det_train.csv");
        let traffic_csv = dir.join("det_traffic.csv");
        cli(&[
            "generate",
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
        ])
        .expect("generate succeeds");
        let soak_args = [
            "soak",
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
        ];
        let first = cli(&soak_args).expect("first soak succeeds");
        let second = cli(&soak_args).expect("second soak succeeds");
        assert_eq!(
            first, second,
            "same-seed soak traces must be byte-identical"
        );
    }

    #[test]
    fn advsoak_json_reports_the_budget_curve_after_the_soak() {
        let dir = temp_dir();
        let train_csv = dir.join("adv_train.csv");
        let traffic_csv = dir.join("adv_traffic.csv");
        cli(&[
            "generate",
            "--dataset",
            "pecan",
            "--train",
            train_csv.to_str().expect("utf8"),
            "--test",
            traffic_csv.to_str().expect("utf8"),
            "--train-size",
            "150",
            "--test-size",
            "60",
        ])
        .expect("generate succeeds");
        let json = cli(&[
            "advsoak",
            "--train",
            train_csv.to_str().expect("utf8"),
            "--traffic",
            traffic_csv.to_str().expect("utf8"),
            "--dim",
            "1024",
            "--steps",
            "2",
            "--json",
        ])
        .expect("advsoak succeeds");
        assert!(json.starts_with("{\"corpus_cases\":"), "{json}");
        assert!(json.contains(",\"radius\":64,\"soak\":{"), "{json}");
        assert!(json.contains("\"detection_rate\""), "{json}");
        let curve = json
            .find("},\"curve\":[{\"radius\":0,")
            .expect("curve follows the soak");
        let radii = json[curve..].matches("{\"radius\":").count();
        assert_eq!(radii, robusthd_bench::advsim::CURVE_RADII.len(), "{json}");
        assert!(json.ends_with("}]}"), "{json}");
    }

    #[test]
    fn paper_fig2_matches_the_committed_record() {
        let record = include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../results_standard.txt"
        ));
        let start = record.find("== FIG 2 ==").expect("record has Fig. 2");
        let len = record[start..].find("\n\n== ").expect("Fig. 2 is not last");
        let fig2 = cli(&["paper", "--only", "fig2"]).expect("fig2 renders");
        assert_eq!(fig2, record[start..start + len]);
    }

    #[test]
    fn paper_rejects_unknown_artifact_and_scale() {
        let err = cli(&["paper", "--only", "table2"]).unwrap_err();
        assert!(err.contains("unknown artifact `table2`"), "{err}");
        assert!(err.contains("table1, table3"), "{err}");
        let err = cli(&["paper", "--scale", "huge"]).unwrap_err();
        assert!(err.contains("unknown scale `huge`"), "{err}");
        let err = cli(&["paper", "--dim", "64"]).unwrap_err();
        assert!(err.contains("unknown option `--dim`"), "{err}");
    }

    #[test]
    fn value_option_without_its_value_fails() {
        let err = cli(&["paper", "--only"]).unwrap_err();
        assert_eq!(err, "`--only` needs a value");
        let err = cli(&[
            "generate",
            "--dataset",
            "--train",
            "t.csv",
            "--test",
            "e.csv",
        ])
        .unwrap_err();
        assert_eq!(err, "`--dataset` needs a value");
        let err = crate::run(&argv(&["soak", "--json", "--steps"])).unwrap_err();
        assert!(err.contains("`--steps` needs a value"), "{err}");
    }

    #[test]
    fn throughput_emits_bit_exact_sweep_json() {
        let report = cli(&[
            "throughput",
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
        ])
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
        let err = cli(&["throughput", "--threads", "1,zero"]).unwrap_err();
        assert!(err.contains("not a positive integer"), "err: {err}");
        for bad in [
            ["throughput", "--shard", "0"],
            ["throughput", "--repeats", "0"],
        ] {
            let err = cli(&bad).unwrap_err();
            assert!(err.contains("must be positive"), "{bad:?} err: {err}");
        }
    }

    #[test]
    fn trainbench_emits_bit_exact_sweep_json() {
        let report = cli(&[
            "trainbench",
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
        ])
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
        let err = cli(&["trainbench", "--threads", "1,zero"]).unwrap_err();
        assert!(err.contains("not a positive integer"), "err: {err}");
        for bad in [
            ["trainbench", "--shard", "0"],
            ["trainbench", "--repeats", "0"],
        ] {
            let err = cli(&bad).unwrap_err();
            assert!(err.contains("must be positive"), "{bad:?} err: {err}");
        }
    }

    #[test]
    fn kernelbench_emits_the_keys_the_kernel_gate_reads() {
        let report = cli(&[
            "kernelbench",
            "--dataset",
            "pecan",
            "--dim",
            "512",
            "--queries",
            "16",
            "--repeats",
            "1",
        ])
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
        let report = cli(&[
            "servebench",
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
        ])
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
        let report = cli(&[
            "fleetbench",
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
        ])
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
        for command in COMMANDS {
            let text = cli(&[command.name, "--help"]).expect("help is ok");
            assert!(text.contains("OPTIONS"));
        }
    }

    #[test]
    fn every_help_names_each_declared_option_once() {
        for command in COMMANDS {
            let help = cli(&[command.name, "--help"]).expect("help is ok");
            let (_, options) = help.split_once("\nOPTIONS:\n").expect("an OPTIONS block");
            // `--train` must not count the `--train` inside `--train-size`.
            let names = |line: &str| -> Vec<String> {
                line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                    .filter_map(|word| word.strip_prefix("--"))
                    .map(str::to_owned)
                    .collect()
            };
            let named: Vec<String> = options.lines().flat_map(names).collect();
            let declared: Vec<&str> = command.opts().map(Opt::name).collect();
            for name in &declared {
                let count = named.iter().filter(|n| n == name).count();
                assert_eq!(count, 1, "`robusthd {}` --{name}:\n{help}", command.name);
            }
            if declared.is_empty() {
                assert_eq!(named, ["help"], "{help}");
            }
        }
    }

    #[test]
    fn library_backed_defaults_match_the_library() {
        let default = |command: &str, option: &str| -> &'static str {
            let command = COMMANDS
                .iter()
                .find(|c| c.name == command)
                .expect("a command");
            match command.opts().find(|o| o.name() == option) {
                Some(Opt::Defaulted(_, _, default, _)) => default,
                kind => panic!("`robusthd {}` --{option}: {kind:?}", command.name),
            }
        };
        let fleet = robusthd_serve::FleetBenchOptions::default();
        for (option, value) in [
            ("models", fleet.models),
            ("cohorts", fleet.cohorts),
            ("dim", fleet.dim),
            ("features", fleet.features),
            ("classes", fleet.classes),
            ("rows", fleet.rows_per_class),
            ("budget-models", fleet.budget_models),
            ("clients", fleet.clients),
            ("requests", fleet.requests_per_client),
            ("pipeline", fleet.pipeline),
        ] {
            assert_eq!(default("fleetbench", option).parse(), Ok(value), "{option}");
        }
        assert_eq!(default("fleetbench", "seed").parse(), Ok(fleet.seed));
        assert_eq!(
            default("fleetbench", "zipf").parse(),
            Ok(fleet.zipf_exponent)
        );
        assert_eq!(fleet.config, robusthd::ServeConfig::default());
        let serve = robusthd::ServeConfig::default();
        for command in ["serve", "servebench", "fleetbench"] {
            assert_eq!(default(command, "window-us").parse(), Ok(serve.window_us));
            assert_eq!(default(command, "max-batch").parse(), Ok(serve.max_batch));
            assert_eq!(
                default(command, "queue-depth").parse(),
                Ok(serve.queue_depth)
            );
        }
        let budget = AttackBudget::new(0);
        assert_eq!(
            default("advsoak", "candidates").parse(),
            Ok(budget.candidates)
        );
        assert_eq!(default("advsoak", "seed").parse(), Ok(budget.seed));
    }

    #[test]
    fn missing_files_are_reported() {
        let err = cli(&[
            "evaluate",
            "--train",
            "/nonexistent/t.csv",
            "--test",
            "/nonexistent/e.csv",
        ])
        .unwrap_err();
        assert!(err.contains("cannot open"));
    }

    #[test]
    fn invalid_rate_is_rejected() {
        let dir = temp_dir();
        let train = dir.join("r_train.csv");
        let test = dir.join("r_test.csv");
        cli(&[
            "generate",
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
        ])
        .expect("generate succeeds");
        let err = cli(&[
            "attack",
            "--train",
            train.to_str().expect("utf8"),
            "--test",
            test.to_str().expect("utf8"),
            "--rate",
            "1.5",
        ])
        .unwrap_err();
        assert!(err.contains("outside [0, 1]"));
    }

    #[test]
    fn unknown_dataset_is_rejected() {
        let err = cli(&[
            "generate",
            "--dataset",
            "imagenet",
            "--train",
            "/tmp/x.csv",
            "--test",
            "/tmp/y.csv",
        ])
        .unwrap_err();
        assert!(err.contains("unknown dataset"));
    }
}
