//! The repository benchmark. Run from the repository root:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --rates solo_ucihar=<q/s>,fleet_zipf=<q/s>,recovery_soak=<q/s> \
//!     --workload fleet_zipf --seed 1 --seconds 50 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object: the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). A run
//! whose answers fail a check prints its reason on standard error, no
//! numbers, and exits with status 1. See `perfbench/README.md`.

mod deploy;
mod report;
mod soak;
mod stats;
mod timed;
mod trace;
mod wire;

use std::process::ExitCode;

/// The workloads this program runs. `BENCHMARK.json` names the ones the
/// bounded comparison uses; see `README.md` for why `solo_ucihar` is not
/// among them.
pub const WORKLOADS: [&str; 3] = ["solo_ucihar", "fleet_zipf", "recovery_soak"];

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// The workload's fixed offered rate, queries per second.
    pub rate: f64,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut rates = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                });
            }
            "--rates" => rates = Some(value.clone()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let rate = rates
        .ok_or("--rates is required")?
        .split(',')
        .filter_map(|pair| pair.split_once('='))
        .find(|(name, _)| *name == workload)
        .ok_or(format!("--rates names no rate for {workload}"))?
        .1
        .parse::<f64>()
        .map_err(|e| format!("--rates: {e}"))?;
    let seconds = seconds.ok_or("--seconds is required")?;
    if rate <= 0.0 || seconds < 2 {
        return Err("the rate must be positive and --seconds at least 2".to_owned());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        rate,
    })
}

/// Clears every `ROBUSTHD_*` knob the environment might carry, then pins
/// the batch-engine thread count, so each run measures the same program
/// configuration whatever the caller's environment holds.
fn pin_environment() {
    for (key, _) in std::env::vars() {
        if key.starts_with("ROBUSTHD_") {
            std::env::remove_var(key);
        }
    }
    std::env::set_var("ROBUSTHD_THREADS", deploy::THREADS.to_string());
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    pin_environment();
    let result = match (args.workload.as_str(), args.trace) {
        ("solo_ucihar", false) => timed::solo(&args),
        ("fleet_zipf", false) => timed::fleet(&args),
        ("recovery_soak", false) => timed::recovery_soak(&args),
        ("solo_ucihar", true) => trace::solo(&args),
        ("fleet_zipf", true) => trace::fleet(&args),
        (_, true) => trace::recovery_soak(&args),
        _ => unreachable!("workload validated by parse_args"),
    };
    let table = if args.trace {
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    match result.and_then(|outcome| outcome.render(table)) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn rates_are_read_per_workload() {
        let a = parse_args(&argv(
            "--rates solo_ucihar=600,fleet_zipf=4000 --workload fleet_zipf --seed 3 --seconds 20 --trace 1",
        ))
        .expect("parses");
        assert_eq!(a.rate, 4000.0);
        assert!(a.trace);
        assert_eq!((a.seed, a.seconds), (3, 20));
        assert!(parse_args(&argv(
            "--rates solo_ucihar=600 --workload fleet_zipf --seed 3 --seconds 20 --trace 0"
        ))
        .is_err());
        assert!(parse_args(&argv(
            "--rates x=1 --workload nope --seed 3 --seconds 20 --trace 0"
        ))
        .is_err());
    }
}
