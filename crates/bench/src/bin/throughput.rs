//! Serving throughput sweep of the parallel batch engine, split into
//! encode / score / end-to-end phases.
//!
//! Usage: `cargo run --release -p robusthd-bench --bin throughput
//! [quick|standard|full]`
//!
//! Prints a human-readable table, then one JSON line per dataset on stdout
//! (prefixed `json:`) for machine consumption in CI artifacts.

use robusthd_bench::format::print_header;
use robusthd_bench::format::print_row;
use robusthd_bench::{throughput, Scale};
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
    println!("Serving throughput by phase (D=4096, shard=32, best of 3)");
    println!("(encoder and predictions cross-checked bit-exact against the reference path;");
    println!(" the `ref` row times the scalar reference encoder)\n");
    let widths = [10usize, 9, 12, 12, 14, 9];
    print_header(
        &[
            "dataset",
            "threads",
            "encode q/s",
            "score q/s",
            "end-to-end q/s",
            "speedup",
        ],
        &widths,
    );
    let mut json_lines = Vec::new();
    for spec in DatasetSpec::all() {
        let (_, queries) = scale.sizes(&spec);
        let o = throughput::run(&spec, queries, 4096, 1, &threads, 32, 3);
        for row in &o.rows {
            print_row(
                &[
                    o.name.clone(),
                    row.threads.to_string(),
                    format!("{:.0}", row.encode_qps),
                    format!("{:.0}", row.score_qps),
                    format!("{:.0}", row.end_to_end_qps),
                    format!("{:.2}x", row.speedup),
                ],
                &widths,
            );
        }
        print_row(
            &[
                o.name.clone(),
                "ref".to_owned(),
                format!("{:.0}", o.reference_encode_qps),
                "-".to_owned(),
                "-".to_owned(),
                "-".to_owned(),
            ],
            &widths,
        );
        json_lines.push(o.to_json());
    }
    println!();
    for line in json_lines {
        println!("json: {line}");
    }
}
