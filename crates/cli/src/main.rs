//! The `robusthd` binary: parse `std::env::args`, dispatch, print.

#![forbid(unsafe_code)]

use std::io::{self, Write as _};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let report = match robusthd_cli::run(&argv) {
        Ok(report) => report,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(1);
        }
    };
    let mut stdout = io::stdout().lock();
    match writeln!(stdout, "{report}").and_then(|()| stdout.flush()) {
        // A reader that closed the pipe early (`robusthd paper | head`)
        // wanted no more output: that is not a failure.
        Err(e) if e.kind() != io::ErrorKind::BrokenPipe => {
            eprintln!("cannot write the report: {e}");
            std::process::exit(1);
        }
        _ => {}
    }
}
