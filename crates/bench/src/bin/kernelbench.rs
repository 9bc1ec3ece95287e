//! Execution-tier kernel throughput sweep: reference (scalar) vs wide
//! (8-word block) tier, per kernel family, plus end-to-end scoring
//! throughput through whichever tier `ROBUSTHD_KERNEL_TIER` installed.
//!
//! Usage: `cargo run --release -p robusthd-bench --bin kernelbench
//! [quick|standard|full]`
//!
//! Prints a human-readable table, then one JSON line on stdout (prefixed
//! `json:`) for machine consumption in CI artifacts. Every kernel is
//! cross-checked bit-exact across tiers before any timing.

use robusthd_bench::format::print_header;
use robusthd_bench::format::print_row;
use robusthd_bench::{kernelbench, Scale};
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
    // Operand traffic per timed pass: milliseconds per repeat at Standard
    // scale and above; at Quick scale correctness, not a stable rate, is
    // the point.
    let pass_bytes = match scale {
        Scale::Quick => 1 << 20,
        Scale::Standard => 256 << 20,
        Scale::Full => 1 << 30,
    };
    let spec = DatasetSpec::ucihar();
    let (_, queries) = scale.sizes(&spec);
    println!("Execution-tier kernel throughput (D=8192, 12 classes, best of 3)");
    println!("(every kernel cross-checked bit-exact across tiers before timing)\n");
    let widths = [16usize, 12, 13, 13, 9];
    print_header(
        &["kernel", "MiB/pass", "ref GiB/s", "wide GiB/s", "speedup"],
        &widths,
    );
    let o = kernelbench::run(&spec, 8192, queries, 1, 3, pass_bytes);
    for row in &o.rows {
        print_row(
            &[
                row.kernel.clone(),
                format!("{:.1}", row.bytes as f64 / (1024.0 * 1024.0)),
                format!("{:.2}", row.reference_gib_s),
                format!("{:.2}", row.wide_gib_s),
                format!("{:.2}x", row.speedup),
            ],
            &widths,
        );
    }
    println!();
    println!(
        "scoring kernel (hamming_all): {:.2}x wide over reference",
        o.scoring_speedup
    );
    println!(
        "end-to-end predict: {:.0} q/s through the '{}' tier at {} thread(s)",
        o.predict_qps, o.kernel_tier, o.threads
    );
    println!();
    println!("json: {}", o.to_json());
}
