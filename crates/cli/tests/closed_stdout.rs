//! A reader that closes stdout early (`robusthd flags | head -c0`) is not
//! an error: the binary exits 0 and writes nothing to stderr.

#![forbid(unsafe_code)]

use std::process::{Command, Stdio};

fn run_into_closed_pipe(args: &[&str]) -> std::process::Output {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    Command::new(env!("CARGO_BIN_EXE_robusthd"))
        .args(args)
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("robusthd runs")
}

#[test]
fn closed_stdout_is_a_clean_exit() {
    for args in [&["--help"][..], &["flags"], &["paper", "--only", "fig2"]] {
        let out = run_into_closed_pipe(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(stderr.is_empty(), "{args:?}: {stderr}");
    }
}
