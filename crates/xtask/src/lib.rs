//! Repo-native static analysis for the RobustHD workspace.
//!
//! `cargo xtask lint` walks the workspace sources (no `syn`, no network —
//! a position-preserving comment/string-blanking scanner, see [`scan`])
//! and enforces the invariants the test suites rely on by *convention*
//! as hard CI failures:
//!
//! 1. **No unsafe, ever** ([`lint_unsafe`]) — every crate root carries
//!    `#![forbid(unsafe_code)]` and the token `unsafe` appears nowhere in
//!    workspace code, including integration tests that a crate-root
//!    `forbid` would not cover.
//! 2. **One birthplace for runtime flags** ([`lint_flags`]) — every
//!    `ROBUSTHD_*` environment read lives in `crates/core/src/config.rs`
//!    (the `FlagRegistry` module); every `*_ENV_VAR`
//!    constant is registered in `FlagRegistry::flags`; `README.md`
//!    documents exactly the registered set (drift in either direction
//!    fails); every `ROBUSTHD_*` token in workspace source (comments and
//!    string literals included) names a registered flag; and the
//!    `robusthd flags` subcommand is wired to print the registry.
//! 3. **Fast/reference duality** ([`lint_duality`]) — every config
//!    toggle in `config.rs` that owns a fast path (a `fast_path` field or
//!    a `from_env` reader) is named by at least one `*_differential.rs`
//!    or `*_props.rs` test, and every public reference oracle
//!    (`pub fn <fast>_reference`) is named *together with its fast `<fast>`
//!    fn* by one such suite, so neither an execution-path switch nor an
//!    oracle can exist without a bit-exactness suite pinning it.
//! 4. **Hot-path hygiene** ([`lint_hygiene`]) — inside the kernel
//!    modules ([`KERNEL_MODULES`]) and outside `#[cfg(test)]`: no
//!    `.unwrap()` / `.expect(`, no bit-at-a-time `.get_bit(` /
//!    `.set_bit(`, no float `==` / `!=`, and no truncating `as` casts
//!    (float→integer, or any cast to a ≤32-bit numeric type) — checked
//!    conversions go through `hypervector::cast`.
//!
//! The `vendor/` tree is exempt: those crates are API-compatible
//! stand-ins for external dependencies, not code this repo authors.
//! Anything under a `fixtures/` directory is exempt too — that is where
//! this crate's own deliberately-violating test inputs live.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod audit;
pub mod scan;

use scan::{collect_rust_files, SourceFile};
use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// The hot-path kernel modules under hot-path hygiene (workspace-relative).
pub const KERNEL_MODULES: &[&str] = &[
    "crates/hypervector/src/tier.rs",
    "crates/hypervector/src/bitvec.rs",
    "crates/hypervector/src/bitslice.rs",
    "crates/hypervector/src/similarity.rs",
    "crates/hypervector/src/accumulator.rs",
    "crates/core/src/batch.rs",
    "crates/core/src/train.rs",
    "crates/core/src/fleet.rs",
    "crates/advsim/src/attack.rs",
    "crates/serve/src/coalescer.rs",
    "crates/serve/src/engine.rs",
    "crates/serve/src/server.rs",
];

/// The one module allowed to read `ROBUSTHD_*` environment variables.
pub const FLAG_MODULE: &str = "crates/core/src/config.rs";

/// One lint violation, addressable as `file:line`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable lint identifier (e.g. `unsafe-code`, `kernel-float-eq`).
    pub lint: &'static str,
    /// Workspace-relative path of the offending file.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "error[{}]: {}:{}: {}",
            self.lint,
            self.file.display(),
            self.line,
            self.message
        )
    }
}

/// A loaded workspace: every authored `.rs` file, scanned, with paths
/// relative to `root`.
#[derive(Debug)]
pub struct Workspace {
    /// The workspace root directory.
    pub root: PathBuf,
    /// Scanned source files, workspace-relative paths, sorted.
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Loads every authored `.rs` file under `root` (root `src/`,
    /// `tests/`, `examples/`, and the whole `crates/` tree; `vendor/`,
    /// `target/`, and `fixtures/` are exempt).
    ///
    /// # Errors
    ///
    /// Returns a message naming any unreadable file.
    pub fn load(root: &Path) -> Result<Self, String> {
        let mut files = Vec::new();
        for sub in ["src", "tests", "examples", "benches", "crates"] {
            let dir = root.join(sub);
            if !dir.is_dir() {
                continue;
            }
            for path in collect_rust_files(&dir) {
                let mut file = SourceFile::load(&path)
                    .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
                file.path = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
                files.push(file);
            }
        }
        Ok(Self {
            root: root.to_path_buf(),
            files,
        })
    }

    /// The scanned file at a workspace-relative path, if present.
    pub fn file(&self, rel: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.path == Path::new(rel))
    }

    fn crate_roots(&self) -> Vec<&SourceFile> {
        self.files
            .iter()
            .filter(|f| {
                let p = f.path.to_string_lossy().replace('\\', "/");
                p == "src/lib.rs"
                    || p == "src/main.rs"
                    || (p.starts_with("crates/")
                        && (p.ends_with("/src/lib.rs") || p.ends_with("/src/main.rs")))
            })
            .collect()
    }
}

/// Runs every lint pass over the workspace at `root`.
///
/// # Errors
///
/// Returns a message when the workspace cannot be loaded.
pub fn run_all(root: &Path) -> Result<Vec<Diagnostic>, String> {
    let ws = Workspace::load(root)?;
    let mut diagnostics = Vec::new();
    diagnostics.extend(lint_unsafe(&ws));
    diagnostics.extend(lint_flags(&ws));
    diagnostics.extend(lint_duality(&ws));
    diagnostics.extend(lint_hygiene(&ws));
    diagnostics.sort_by(|a, b| (&a.file, a.line, a.lint).cmp(&(&b.file, b.line, b.lint)));
    Ok(diagnostics)
}

pub(crate) fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Byte offsets of whole-word occurrences of `word` in `text`.
pub(crate) fn word_occurrences(text: &str, word: &str) -> Vec<usize> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = text[from..].find(word) {
        let at = from + pos;
        let before_ok = at == 0 || !is_ident_byte(bytes[at - 1]);
        let end = at + word.len();
        let after_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if before_ok && after_ok {
            out.push(at);
        }
        from = at + word.len().max(1);
    }
    out
}

/// Invariant 1: `#![forbid(unsafe_code)]` in every crate root, no
/// `unsafe` token anywhere in workspace code.
pub fn lint_unsafe(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for root_file in ws.crate_roots() {
        if !root_file.code.contains("#![forbid(unsafe_code)]") {
            out.push(Diagnostic {
                lint: "unsafe-forbid",
                file: root_file.path.clone(),
                line: 1,
                message: "crate root must carry #![forbid(unsafe_code)]".to_owned(),
            });
        }
    }
    for file in &ws.files {
        for at in word_occurrences(&file.code, "unsafe") {
            out.push(Diagnostic {
                lint: "unsafe-code",
                file: file.path.clone(),
                line: file.line_of(at),
                message: "`unsafe` is banned workspace-wide (including tests); \
                          model bits can only degrade gracefully if the code \
                          touching them has no undefined behaviour to offer"
                    .to_owned(),
            });
        }
    }
    out
}

/// The `"ROBUSTHD_X"` string literals of `pub const <NAME>_ENV_VAR`
/// declarations in the flag module, with their const names and lines.
fn registered_flags(config: &SourceFile) -> Vec<(String, String, usize)> {
    let mut out = Vec::new();
    for (idx, line) in config.nocomment.lines().enumerate() {
        let trimmed = line.trim_start();
        if !trimmed.starts_with("pub const ") {
            continue;
        }
        let Some(rest) = trimmed.strip_prefix("pub const ") else {
            continue;
        };
        let name: String = rest
            .bytes()
            .take_while(|&b| is_ident_byte(b))
            .map(char::from)
            .collect();
        if !name.ends_with("_ENV_VAR") {
            continue;
        }
        if let Some(value) = line
            .split('"')
            .nth(1)
            .filter(|v| v.starts_with("ROBUSTHD_"))
        {
            out.push((name, value.to_owned(), idx + 1));
        }
    }
    out
}

/// `ROBUSTHD_[A-Z0-9_]+` tokens in arbitrary text, with 1-based lines.
fn flag_tokens(text: &str) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let mut from = 0;
        while let Some(pos) = line[from..].find("ROBUSTHD_") {
            let at = from + pos;
            let suffix: String = line[at + "ROBUSTHD_".len()..]
                .bytes()
                .take_while(|&b| b.is_ascii_uppercase() || b.is_ascii_digit() || b == b'_')
                .map(char::from)
                .collect();
            if !suffix.is_empty() {
                out.push((format!("ROBUSTHD_{suffix}"), idx + 1));
            }
            from = at + "ROBUSTHD_".len();
        }
    }
    out
}

/// Brace-matched body span (byte range of the code view) starting at the
/// first `{` at or after `open_from`.
pub(crate) fn brace_span(code: &str, open_from: usize) -> Option<(usize, usize)> {
    let bytes = code.as_bytes();
    let open = code[open_from..].find('{')? + open_from;
    let mut depth = 0i64;
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some((open, i + 1));
                }
            }
            _ => {}
        }
    }
    None
}

/// Invariant 2: central flag registry, no stray environment reads, no
/// README drift, `robusthd flags` wired.
pub fn lint_flags(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    // 2a. Environment reads outside the flag module (test code exempt;
    // the lint engine itself exempt — it quotes these patterns).
    for file in &ws.files {
        let rel = file.path.to_string_lossy().replace('\\', "/");
        if rel == FLAG_MODULE || rel.starts_with("crates/xtask/") {
            continue;
        }
        let in_test_dir = rel.contains("/tests/") || rel.starts_with("tests/");
        for (idx, line) in file.nocomment.lines().enumerate() {
            let lineno = idx + 1;
            if in_test_dir || file.line_in_test(lineno) {
                continue;
            }
            if line.contains("env::var") || line.contains("env::var_os") {
                out.push(Diagnostic {
                    lint: "flag-env-read",
                    file: file.path.clone(),
                    line: lineno,
                    message: format!(
                        "environment reads must go through {FLAG_MODULE} \
                         (FlagRegistry), not ad-hoc env::var"
                    ),
                });
            }
        }
    }

    let Some(config) = ws.file(FLAG_MODULE) else {
        return out; // fixture workspaces without a flag module
    };
    let registered = registered_flags(config);

    // 2b. Every *_ENV_VAR const is registered in FlagRegistry::flags.
    if let Some(impl_at) = config.code.find("impl FlagRegistry") {
        if let Some((open, close)) = brace_span(&config.code, impl_at) {
            let body = &config.nocomment[open..close];
            for (const_name, flag_name, line) in &registered {
                if word_occurrences(body, const_name).is_empty() {
                    out.push(Diagnostic {
                        lint: "flag-registry",
                        file: config.path.clone(),
                        line: *line,
                        message: format!(
                            "{flag_name} ({const_name}) is not registered in \
                             FlagRegistry::flags — every flag must have exactly \
                             one registry entry"
                        ),
                    });
                }
            }
        }
    } else if !registered.is_empty() {
        out.push(Diagnostic {
            lint: "flag-registry",
            file: config.path.clone(),
            line: registered[0].2,
            message: "flag constants exist but no `impl FlagRegistry` block \
                      registers them"
                .to_owned(),
        });
    }

    let known: BTreeSet<String> = registered
        .iter()
        .map(|(_, flag_name, _)| flag_name.clone())
        .collect();

    // 2c. README drift, both directions.
    let readme_path = ws.root.join("README.md");
    if let Ok(readme) = fs::read_to_string(&readme_path) {
        let documented: BTreeSet<String> = flag_tokens(&readme)
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        for (_, flag_name, line) in &registered {
            if !documented.contains(flag_name) {
                out.push(Diagnostic {
                    lint: "flag-readme",
                    file: config.path.clone(),
                    line: *line,
                    message: format!(
                        "{flag_name} is registered but undocumented — add it to \
                         the README runtime-flags table"
                    ),
                });
            }
        }
        for (token, line) in flag_tokens(&readme) {
            if !known.contains(&token) {
                out.push(Diagnostic {
                    lint: "flag-readme",
                    file: PathBuf::from("README.md"),
                    line,
                    message: format!(
                        "{token} is documented but not registered in FlagRegistry — \
                         stale docs or an unregistered flag"
                    ),
                });
            }
        }
    }

    // 2d. Every `ROBUSTHD_*` token in workspace source — doc comments,
    // help text and string literals included — names a registered flag
    // (the lint engine exempt — it quotes made-up names).
    for file in &ws.files {
        if file.path.starts_with("crates/xtask") {
            continue;
        }
        for (token, line) in flag_tokens(&file.raw) {
            if !known.contains(&token) {
                out.push(Diagnostic {
                    lint: "flag-unknown",
                    file: file.path.clone(),
                    line,
                    message: format!(
                        "{token} is not registered in FlagRegistry — stale docs or \
                         help text, or an unregistered flag"
                    ),
                });
            }
        }
    }

    // 2e. The `robusthd flags` subcommand prints the registry.
    if !registered.is_empty() {
        if let Some(commands) = ws.file("crates/cli/src/commands.rs") {
            if !commands.code.contains("FlagRegistry") {
                out.push(Diagnostic {
                    lint: "flag-cli",
                    file: commands.path.clone(),
                    line: 1,
                    message: "cli commands must print the FlagRegistry (the \
                              `flags` subcommand) so `robusthd flags` cannot \
                              drift from the registry"
                        .to_owned(),
                });
            }
        }
        if let Some(cli) = ws.file("crates/cli/src/lib.rs") {
            if !cli.code.contains("commands::flags") {
                out.push(Diagnostic {
                    lint: "flag-cli",
                    file: cli.path.clone(),
                    line: 1,
                    message: "cli dispatch must route a `flags` subcommand to \
                              commands::flags"
                        .to_owned(),
                });
            }
        }
    }
    out
}

/// Invariant 3: every fast-path/config toggle is pinned by a
/// differential or property test referencing it by name, and every public
/// `<fast>_reference` oracle by a suite naming both it and `<fast>`.
pub fn lint_duality(ws: &Workspace) -> Vec<Diagnostic> {
    let suites: Vec<&SourceFile> = ws
        .files
        .iter()
        .filter(|f| {
            let p = f.path.to_string_lossy().replace('\\', "/");
            p.contains("/tests/") && (p.ends_with("_differential.rs") || p.ends_with("_props.rs"))
        })
        .collect();
    let names = |f: &SourceFile, word: &str| !word_occurrences(&f.nocomment, word).is_empty();
    let mut out = Vec::new();
    for file in &ws.files {
        let p = file.path.to_string_lossy().replace('\\', "/");
        if !p.contains("/src/") {
            continue;
        }
        for at in word_occurrences(&file.code, "pub fn") {
            let name: String = file.code[at + "pub fn".len()..]
                .trim_start()
                .bytes()
                .take_while(|&b| is_ident_byte(b))
                .map(char::from)
                .collect();
            let Some(fast) = name.strip_suffix("_reference").filter(|f| !f.is_empty()) else {
                continue;
            };
            if !suites.iter().any(|f| names(f, &name) && names(f, fast)) {
                out.push(Diagnostic {
                    lint: "fast-duality",
                    file: file.path.clone(),
                    line: file.line_of(at),
                    message: format!(
                        "{name} is a reference oracle but no *_differential.rs or \
                         *_props.rs test names it together with `{fast}` — every \
                         oracle must be compared against its fast path"
                    ),
                });
            }
        }
    }
    let Some(config) = ws.file(FLAG_MODULE) else {
        return out;
    };
    let mut toggles: Vec<(String, usize)> = Vec::new();
    for at in word_occurrences(&config.code, "struct") {
        let rest = &config.code[at + "struct".len()..];
        let name: String = rest
            .trim_start()
            .bytes()
            .take_while(|&b| is_ident_byte(b))
            .map(char::from)
            .collect();
        if !name.ends_with("Config") || name.is_empty() {
            continue;
        }
        let body_is_toggle = brace_span(&config.code, at)
            .is_some_and(|(open, close)| config.code[open..close].contains("fast_path"));
        let has_from_env = word_occurrences(&config.code, &format!("impl {name}"))
            .iter()
            .any(|&impl_at| {
                brace_span(&config.code, impl_at)
                    .is_some_and(|(open, close)| config.code[open..close].contains("fn from_env"))
            });
        if body_is_toggle || has_from_env {
            toggles.push((name, config.line_of(at)));
        }
    }
    for (name, line) in toggles {
        if !suites.iter().any(|f| names(f, &name)) {
            out.push(Diagnostic {
                lint: "fast-duality",
                file: config.path.clone(),
                line,
                message: format!(
                    "{name} selects an execution path but no *_differential.rs or \
                     *_props.rs test references it — every fast path needs a \
                     bit-exactness suite pinning it to the reference path"
                ),
            });
        }
    }
    out
}

pub(crate) const NARROW_TARGETS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32", "f32"];
pub(crate) const WIDE_INT_TARGETS: &[&str] = &["usize", "isize", "u64", "i64", "u128", "i128"];
pub(crate) const FLOAT_RESULT_METHODS: &[&str] = &[".round()", ".ceil()", ".floor()", ".trunc()"];

/// Whether a token (stripped of a leading `-`) is a float literal.
fn is_float_literal(token: &str) -> bool {
    let tok = token.strip_prefix('-').unwrap_or(token);
    let tok = tok
        .strip_suffix("f64")
        .or_else(|| tok.strip_suffix("f32"))
        .map_or(tok, |t| t.strip_suffix('_').unwrap_or(t));
    !tok.is_empty()
        && tok.bytes().next().is_some_and(|b| b.is_ascii_digit())
        && tok.contains('.')
        && tok
            .bytes()
            .all(|b| b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'_')
}

/// The last operand-ish token before byte `end` of `line`.
pub(crate) fn token_before(line: &str, end: usize) -> &str {
    let upto = line[..end].trim_end();
    let start = upto
        .rfind(|c: char| !(c.is_ascii_alphanumeric() || c == '.' || c == '_' || c == '-'))
        .map_or(0, |i| i + 1);
    &upto[start..]
}

/// The first operand-ish token after byte `start` of `line`.
pub(crate) fn token_after(line: &str, start: usize) -> &str {
    let from = line[start..].trim_start();
    let end = from
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '.' || c == '_' || c == '-'))
        .unwrap_or(from.len());
    &from[..end]
}

/// Invariant 4: hot-path hygiene inside the kernel modules.
pub fn lint_hygiene(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for rel in KERNEL_MODULES {
        let Some(file) = ws.file(rel) else { continue };
        for (idx, line) in file.code.lines().enumerate() {
            let lineno = idx + 1;
            if file.line_in_test(lineno) {
                continue;
            }
            for (needle, what) in [(".unwrap()", "unwrap()"), (".expect(", "expect()")] {
                if line.contains(needle) {
                    out.push(Diagnostic {
                        lint: "kernel-unwrap",
                        file: file.path.clone(),
                        line: lineno,
                        message: format!(
                            "{what} in a kernel hot path — match on the failure or \
                             propagate it; panics here take down serving workers"
                        ),
                    });
                }
            }
            for needle in [".get_bit(", ".set_bit("] {
                if line.contains(needle) {
                    out.push(Diagnostic {
                        lint: "kernel-bit-loop",
                        file: file.path.clone(),
                        line: lineno,
                        message: format!(
                            "bit-at-a-time {needle}..) in a kernel module — use the \
                             word-level kernels (write_bits/extract_bits, fused \
                             popcounts) instead"
                        ),
                    });
                }
            }
            out.extend(float_eq_diagnostics(file, line, lineno));
            out.extend(cast_diagnostics(file, line, lineno));
        }
    }
    out
}

fn float_eq_diagnostics(file: &SourceFile, line: &str, lineno: usize) -> Vec<Diagnostic> {
    let bytes = line.as_bytes();
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = line[from..].find("==").map(|p| p + from).or_else(|| {
        line[from..]
            .find("!=")
            .map(|p| p + from)
            .filter(|&p| bytes.get(p + 1) == Some(&b'='))
    }) {
        let op_ok = (pos == 0 || !matches!(bytes[pos - 1], b'=' | b'!' | b'<' | b'>'))
            && bytes.get(pos + 2) != Some(&b'=');
        if op_ok {
            let lhs = token_before(line, pos);
            let rhs = token_after(line, pos + 2);
            if is_float_literal(lhs) || is_float_literal(rhs) {
                out.push(Diagnostic {
                    lint: "kernel-float-eq",
                    file: file.path.clone(),
                    line: lineno,
                    message: "float equality in a kernel module — compare with an \
                              explicit ordering or tolerance instead"
                        .to_owned(),
                });
            }
        }
        from = pos + 2;
    }
    out
}

fn cast_diagnostics(file: &SourceFile, line: &str, lineno: usize) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for at in word_occurrences(line, "as") {
        let target = token_after(line, at + 2);
        let before = line[..at].trim_end();
        if NARROW_TARGETS.contains(&target) {
            out.push(Diagnostic {
                lint: "kernel-cast",
                file: file.path.clone(),
                line: lineno,
                message: format!(
                    "truncating `as {target}` in a kernel module — route the \
                     conversion through hypervector::cast (checked) instead"
                ),
            });
        } else if let Some(method) = WIDE_INT_TARGETS
            .contains(&target)
            .then(|| FLOAT_RESULT_METHODS.iter().find(|m| before.ends_with(**m)))
            .flatten()
        {
            out.push(Diagnostic {
                lint: "kernel-cast",
                file: file.path.clone(),
                line: lineno,
                message: format!(
                    "float→integer `{method} as {target}` in a kernel module — \
                     use hypervector::cast::round_to_* (checked) instead"
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_occurrences_respects_boundaries() {
        assert_eq!(
            word_occurrences("unsafe unsafely un_safe", "unsafe"),
            vec![0]
        );
        assert_eq!(word_occurrences("x as u8", "as").len(), 1);
        assert!(word_occurrences("alias", "as").is_empty());
    }

    #[test]
    fn float_literals_are_recognized() {
        assert!(is_float_literal("0.0"));
        assert!(is_float_literal("-1.5"));
        assert!(is_float_literal("1.0e3"));
        assert!(!is_float_literal("10"));
        assert!(!is_float_literal("x"));
        assert!(!is_float_literal(""));
    }

    #[test]
    fn tokens_around_operators() {
        let line = "if denom == 0.0 {";
        let pos = line.find("==").unwrap();
        assert_eq!(token_before(line, pos), "denom");
        assert_eq!(token_after(line, pos + 2), "0.0");
    }

    #[test]
    fn brace_span_matches_nesting() {
        let code = "impl X { fn a() { b(); } }";
        let (open, close) = brace_span(code, 0).unwrap();
        assert_eq!(&code[open..=open], "{");
        assert_eq!(close, code.len());
    }

    #[test]
    fn flag_tokens_extract_names() {
        let text = "set ROBUSTHD_THREADS=4 or ROBUSTHD_KERNEL_TIER; ROBUSTHD_* is prose";
        let tokens: Vec<String> = flag_tokens(text).into_iter().map(|(n, _)| n).collect();
        assert_eq!(tokens, vec!["ROBUSTHD_THREADS", "ROBUSTHD_KERNEL_TIER"]);
    }
}
