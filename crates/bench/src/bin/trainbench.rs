//! Training throughput sweep of the parallel bit-sliced training engine,
//! split into one-shot bundling and perceptron retraining.
//!
//! Usage: `cargo run --release -p robusthd-bench --bin trainbench
//! [quick|standard|full]`
//!
//! Prints a human-readable table, then one JSON line per dataset on stdout
//! (prefixed `json:`) for machine consumption in CI artifacts.

use robusthd_bench::format::print_header;
use robusthd_bench::format::print_row;
use robusthd_bench::{trainbench, Scale};
use synthdata::DatasetSpec;

fn scale_from_args() -> Scale {
    match std::env::args().nth(1).as_deref() {
        Some("quick") => Scale::Quick,
        Some("full") => Scale::Full,
        _ => Scale::Standard,
    }
}

fn main() {
    let scale = scale_from_args();
    let threads = [1usize, 2, 4, 8];
    println!("Training throughput by phase (D=4096, 2 retrain epochs, shard=32, best of 3)");
    println!("(fast path cross-checked bit-exact against the scalar reference, counts included;");
    println!(" the `ref` row times that reference trainer)\n");
    let widths = [10usize, 9, 12, 12, 13, 9];
    print_header(
        &[
            "dataset",
            "threads",
            "bundle s/s",
            "retrain u/s",
            "fit seconds",
            "speedup",
        ],
        &widths,
    );
    let mut json_lines = Vec::new();
    for spec in DatasetSpec::all() {
        let (samples, _) = scale.sizes(&spec);
        let o = trainbench::run(&spec, samples, 4096, 1, 2, &threads, 32, 3);
        let labelled = o.rows.iter().map(|r| (r.threads.to_string(), r));
        for (label, row) in labelled.chain([("ref".to_owned(), &o.reference)]) {
            print_row(
                &[
                    o.name.clone(),
                    label,
                    format!("{:.0}", row.bundle_qps),
                    format!("{:.0}", row.retrain_qps),
                    format!("{:.4}", row.fit_seconds),
                    format!("{:.2}x", row.speedup),
                ],
                &widths,
            );
        }
        json_lines.push(o.to_json());
    }
    println!();
    for line in json_lines {
        println!("json: {line}");
    }
}
