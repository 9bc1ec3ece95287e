//! Library half of the `robusthd` command-line tool.
//!
//! Each subcommand is a pure function from parsed options to a text report,
//! so the whole tool is unit-testable without spawning processes. The
//! binary (`src/main.rs`) only parses `std::env::args` and prints.
//!
//! Datasets move through the CSV convention of [`synthdata::csv`]: features
//! first, integer label last, optional header.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod args;
pub mod commands;

pub use args::{ArgError, ParsedArgs};

/// Top-level usage text.
pub const USAGE: &str = "\
robusthd — RobustHD (DAC 2022) pipeline on CSV datasets

USAGE:
    robusthd <COMMAND> [OPTIONS]

COMMANDS:
    generate    Write a synthetic stand-in dataset to CSV
    evaluate    Train an HDC classifier and report test accuracy
    train       Train an HDC pipeline and save it to a model file
    infer       Classify CSV samples with a saved model file
    attack      Compare HDC and an 8-bit DNN under bit-flip attack
    recover     Attack an HDC model, then repair it from unlabeled traffic
    monitor     Judge a model's health from unlabeled traffic as it corrupts
    soak        Chaos-soak the self-healing serving runtime under an attack campaign
    advsoak     Joint memory + input adversarial soak with disagreement hunting
    paper       Regenerate the paper's tables and figures (results_standard.txt)
    serve       Run robusthdd, the coalescing NDJSON serving daemon
    loadgen     Drive concurrent classify load at a running robusthdd
    servebench  Benchmark coalesced vs sequential daemon serving (JSON)
    fleetbench  Benchmark multi-tenant fleet serving under a memory budget (JSON)
    throughput  Benchmark batched inference across thread counts (JSON)
    trainbench  Benchmark bit-sliced training (bundle/retrain) across thread counts (JSON)
    kernelbench Benchmark execution-tier kernels (reference vs wide GiB/s) (JSON)
    flags       Print the ROBUSTHD_* environment-flag registry (JSON)

Run `robusthd <COMMAND> --help` for per-command options.";

/// Dispatches a full argument vector (excluding the program name) to the
/// matching subcommand, returning the report to print.
///
/// # Errors
///
/// Returns a human-readable error string for unknown commands, bad
/// arguments, unreadable files, or malformed CSV.
pub fn run(argv: &[String]) -> Result<String, String> {
    let Some((command, rest)) = argv.split_first() else {
        return Err(USAGE.to_owned());
    };
    match command.as_str() {
        "generate" => commands::generate(rest),
        "evaluate" => commands::evaluate(rest),
        "train" => commands::train(rest),
        "infer" => commands::infer(rest),
        "attack" => commands::attack(rest),
        "recover" => commands::recover(rest),
        "monitor" => commands::monitor(rest),
        "soak" => commands::soak(rest),
        "advsoak" => commands::advsoak(rest),
        "paper" => commands::paper(rest),
        "serve" => commands::serve(rest),
        "loadgen" => commands::loadgen(rest),
        "servebench" => commands::servebench(rest),
        "fleetbench" => commands::fleetbench(rest),
        "throughput" => commands::throughput(rest),
        "trainbench" => commands::trainbench(rest),
        "kernelbench" => commands::kernelbench(rest),
        "flags" => commands::flags(rest),
        "--help" | "-h" | "help" => Ok(USAGE.to_owned()),
        other => Err(format!("unknown command `{other}`\n\n{USAGE}")),
    }
}
