//! Library half of the `robusthd` command-line tool.
//!
//! Each subcommand is one entry of the command table (`COMMANDS` in
//! `commands.rs`): its options, their defaults, its `--help` and its
//! handler, a pure function from parsed options to a text report, so the
//! whole tool is unit-testable without spawning processes. The binary
//! (`src/main.rs`) only passes `std::env::args` to [`run`] and prints.
//!
//! Datasets move through the CSV convention of [`synthdata::csv`]: features
//! first, integer label last, optional header.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod args;
mod commands;

pub use commands::flags;
use commands::COMMANDS;

/// The top-level usage text: every command with its summary.
fn usage() -> String {
    args::usage(COMMANDS)
}

/// Dispatches a full argument vector (excluding the program name) to the
/// matching subcommand, returning the report to print.
///
/// # Errors
///
/// Returns a human-readable error string for unknown commands, bad
/// arguments, unreadable files, or malformed CSV.
pub fn run(argv: &[String]) -> Result<String, String> {
    let Some((name, rest)) = argv.split_first() else {
        return Err(usage());
    };
    if matches!(name.as_str(), "--help" | "-h" | "help") {
        return Ok(usage());
    }
    let command = COMMANDS
        .iter()
        .find(|command| command.name == name)
        .ok_or_else(|| format!("unknown command `{name}`\n\n{}", usage()))?;
    command.invoke(rest)
}
