//! Each fixture under `tests/fixtures/` is a miniature workspace with
//! exactly one deliberate violation (or none, for `clean`); every lint
//! must fire exactly once, on the right file and line, and nowhere else.
//! The final test runs the full engine over the real workspace — the
//! merge gate: `cargo xtask lint` must be green on the actual repo.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use xtask::{run_all, Diagnostic};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn lint_fixture(name: &str) -> Vec<Diagnostic> {
    run_all(&fixture(name)).expect("fixture workspace must load")
}

/// Asserts the fixture yields exactly one diagnostic and returns it.
fn single(name: &str) -> Diagnostic {
    let diagnostics = lint_fixture(name);
    assert_eq!(
        diagnostics.len(),
        1,
        "fixture `{name}` must fire exactly one diagnostic, got: {diagnostics:#?}"
    );
    diagnostics.into_iter().next().expect("len checked above")
}

#[test]
fn clean_fixture_is_silent() {
    let diagnostics = lint_fixture("clean");
    assert!(
        diagnostics.is_empty(),
        "clean fixture must produce no diagnostics, got: {diagnostics:#?}"
    );
}

#[test]
fn unsafe_block_fires_unsafe_code() {
    let d = single("unsafe_block");
    assert_eq!(d.lint, "unsafe-code");
    assert_eq!(d.file, Path::new("src/lib.rs"));
    assert_eq!(
        d.line, 7,
        "must point at the `unsafe` block, not the forbid"
    );
    assert_eq!(d.to_string().lines().count(), 1);
    assert!(d
        .to_string()
        .starts_with("error[unsafe-code]: src/lib.rs:7: "));
}

#[test]
fn missing_forbid_fires_unsafe_forbid() {
    let d = single("missing_forbid");
    assert_eq!(d.lint, "unsafe-forbid");
    assert_eq!(d.file, Path::new("src/lib.rs"));
    assert_eq!(d.line, 1);
}

#[test]
fn unregistered_flag_fires_env_read() {
    let d = single("unregistered_flag");
    assert_eq!(d.lint, "flag-env-read");
    assert_eq!(d.file, Path::new("src/lib.rs"));
    assert_eq!(d.line, 7, "must point at the std::env::var call");
    assert!(
        d.message.contains("config.rs"),
        "message names the flag module"
    );
}

#[test]
fn readme_drift_fires_on_the_stale_row() {
    let d = single("readme_drift");
    assert_eq!(d.lint, "flag-readme");
    assert_eq!(d.file, Path::new("README.md"));
    assert_eq!(d.line, 6, "must point at the ROBUSTHD_GHOST row");
    assert!(d.message.contains("ROBUSTHD_GHOST"));
}

#[test]
fn stale_flag_mention_fires_on_the_help_line() {
    let d = single("stale_flag_mention");
    assert_eq!(d.lint, "flag-unknown");
    assert_eq!(d.file, Path::new("crates/cli/src/help.rs"));
    assert_eq!(d.line, 5, "must point at the ROBUSTHD_GADGETS help line");
    assert!(d.message.contains("ROBUSTHD_GADGETS"));
}

#[test]
fn undocumented_fast_path_fires_duality() {
    let d = single("undocumented_fast_path");
    assert_eq!(d.lint, "fast-duality");
    assert_eq!(d.file, Path::new("crates/core/src/config.rs"));
    assert_eq!(d.line, 4, "must point at the FooConfig declaration");
    assert!(d.message.contains("FooConfig"));
}

#[test]
fn unpinned_oracle_fires_duality() {
    let d = single("unpinned_oracle");
    assert_eq!(d.lint, "fast-duality");
    assert_eq!(d.file, Path::new("crates/core/src/encoding.rs"));
    assert_eq!(d.line, 11, "must point at the encode_reference declaration");
    assert!(d.message.contains("encode_reference"));
}

#[test]
fn float_eq_in_kernel_fires() {
    let d = single("float_eq_kernel");
    assert_eq!(d.lint, "kernel-float-eq");
    assert_eq!(d.file, Path::new("crates/core/src/batch.rs"));
    assert_eq!(d.line, 4);
}

#[test]
fn kernel_unwrap_fires_outside_tests_only() {
    let d = single("kernel_unwrap");
    assert_eq!(d.lint, "kernel-unwrap");
    assert_eq!(d.file, Path::new("crates/hypervector/src/similarity.rs"));
    assert_eq!(d.line, 5, "the unwrap inside #[cfg(test)] must NOT fire");
}

#[test]
fn kernel_cast_fires_on_truncating_round() {
    let d = single("kernel_cast");
    assert_eq!(d.lint, "kernel-cast");
    assert_eq!(d.file, Path::new("crates/core/src/train.rs"));
    assert_eq!(d.line, 5);
    assert!(
        d.message.contains("round_to_"),
        "message points at the checked API"
    );
}

#[test]
fn kernel_bit_loop_fires() {
    let d = single("kernel_bit_loop");
    assert_eq!(d.lint, "kernel-bit-loop");
    assert_eq!(d.file, Path::new("crates/hypervector/src/bitvec.rs"));
    assert_eq!(d.line, 7);
}

#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let diagnostics = run_all(&root).expect("workspace must load");
    assert!(
        diagnostics.is_empty(),
        "the real workspace must pass its own lints:\n{}",
        diagnostics
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
