//! `cargo xtask audit` — the hot-path panic-surface and lock-discipline
//! auditor.
//!
//! Where `cargo xtask lint` enforces *local* hygiene (no `unwrap` inside
//! a kernel module), the audit is *global*: it parses the workspace into
//! a function-level call graph ([`graph`]) and asks reachability
//! questions from designated hot-path roots — the functions a serving
//! daemon cannot afford to lose to a panic. Two hard-fail families:
//!
//! 1. **panic-surface** ([`panics`]): any `unwrap`/`expect`/panicking
//!    macro/indexing `[]`/truncating `as` cast in a function
//!    transitively reachable from a hot-path root is an error, unless
//!    annotated `// audit:allow(panic): <reason>`.
//! 2. **lock-discipline** ([`locks`]): every `Mutex`/`RwLock`/`OnceLock`
//!    acquisition is extracted per function, a lock-order graph is built
//!    across the serving crates, and the audit fails on order cycles, on
//!    locks held across `BatchEngine`/supervisor calls or blocking I/O,
//!    and on a `Condvar::wait` outside a predicate loop.
//!
//! The analyses are deliberately syntactic (built on the same
//! position-preserving [`crate::scan`] views as the lints — no rustc, no
//! proc macros) and resolve calls by *simple name*: a call site reaches
//! every workspace function of that name. That over-approximates
//! reachability (safe for the panic pass: extra findings, never missed
//! ones) and is documented with its limits in `DESIGN.md` §18.
//!
//! Stale annotations are themselves findings: an `audit:allow` that no
//! longer covers any site fails the audit, so the allow inventory cannot
//! rot as code moves.

pub mod graph;
pub mod locks;
pub mod panics;

use crate::Diagnostic;
use crate::Workspace;
use graph::Graph;
use std::fmt::Write as _;
use std::path::Path;

/// Hot-path roots: `(file suffix, function name)` pairs. A root is every
/// function with that name declared in that file. Missing roots are
/// tolerated (fixture workspaces model a subset of the hot path).
pub const ROOTS: &[(&str, &str)] = &[
    // The coalescer's admission and drain protocol.
    ("crates/serve/src/coalescer.rs", "submit"),
    ("crates/serve/src/coalescer.rs", "submit_routed"),
    ("crates/serve/src/coalescer.rs", "next_batch"),
    // The daemon's drain thread and both engines behind it.
    ("crates/serve/src/server.rs", "drain_loop"),
    ("crates/serve/src/engine.rs", "serve"),
    ("crates/serve/src/engine.rs", "serve_pending"),
    // The fleet registry's routing, serving, and rehydration paths.
    ("crates/core/src/fleet.rs", "route_batch"),
    ("crates/core/src/fleet.rs", "serve_supervised"),
    ("crates/core/src/fleet.rs", "ensure_hot"),
    // The execution-tier kernel families every score goes through.
    ("crates/hypervector/src/tier.rs", "hamming_words"),
    ("crates/hypervector/src/tier.rs", "hamming_range_words"),
    ("crates/hypervector/src/tier.rs", "hamming_all_into_words"),
    ("crates/hypervector/src/tier.rs", "ripple_add"),
    ("crates/hypervector/src/tier.rs", "bind_majority_words"),
    ("crates/hypervector/src/tier.rs", "bipolar_accumulate"),
    ("crates/hypervector/src/tier.rs", "threshold_words"),
];

/// One resolved hot-path root, for the report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RootInfo {
    /// The root function's name.
    pub name: String,
    /// Workspace-relative file declaring it.
    pub file: String,
    /// 1-based declaration line.
    pub line: usize,
}

/// The full audit outcome: resolved roots, findings, and how many
/// `audit:allow` annotations are currently suppressing a site.
#[derive(Debug)]
pub struct AuditReport {
    /// Hot-path roots that resolved in this workspace.
    pub roots: Vec<RootInfo>,
    /// Hard-fail findings, sorted by `(file, line, lint)`.
    pub findings: Vec<Diagnostic>,
    /// Honored `audit:allow` annotations (each covering ≥ 1 site).
    pub allows: usize,
}

impl AuditReport {
    /// Machine-readable report (`cargo xtask audit --json`): roots, one
    /// record per finding, and the allow count — so future changes can
    /// gate on audit-surface growth.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"roots\": [");
        for (i, root) in self.roots.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"name\": {}, \"file\": {}, \"line\": {}}}",
                json_string(&root.name),
                json_string(&root.file),
                root.line
            );
        }
        out.push_str("\n  ],\n  \"findings\": [");
        for (i, d) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"kind\": {}, \"file\": {}, \"line\": {}, \"message\": {}}}",
                json_string(d.lint),
                json_string(&d.file.display().to_string()),
                d.line,
                json_string(&d.message)
            );
        }
        let _ = write!(
            out,
            "\n  ],\n  \"allow_count\": {},\n  \"finding_count\": {}\n}}",
            self.allows,
            self.findings.len()
        );
        out
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Runs both audit families over the workspace at `root`.
///
/// # Errors
///
/// Returns a message when the workspace cannot be loaded.
pub fn run(root: &Path) -> Result<AuditReport, String> {
    let ws = Workspace::load(root)?;
    Ok(run_on(&ws))
}

/// Runs both audit families over an already-loaded workspace.
pub fn run_on(ws: &Workspace) -> AuditReport {
    let graph = Graph::build(ws);
    let roots = graph.resolve_roots(ROOTS);
    let allows = graph.collect_allows();

    let mut findings = Vec::new();
    let mut honored = vec![false; allows.len()];
    findings.extend(panics::check(&graph, &roots, &allows, &mut honored));
    findings.extend(locks::check(&graph, &allows, &mut honored));

    // A suppression that suppresses nothing is drift: the site it
    // covered was fixed or moved, and the annotation now only misleads.
    for (allow, honored) in allows.iter().zip(&honored) {
        if !honored {
            findings.push(Diagnostic {
                lint: "audit-stale-allow",
                file: graph.files[allow.file].path.clone(),
                line: allow.line,
                message: format!(
                    "stale `audit:allow({})` — no {} site is covered by this \
                     annotation any more; delete it (or move it next to the \
                     site it justifies)",
                    allow.kind.as_str(),
                    allow.kind.as_str(),
                ),
            });
        }
    }

    findings.sort_by(|a, b| (&a.file, a.line, a.lint).cmp(&(&b.file, b.line, b.lint)));
    // Several sites on one line (e.g. `a[i] ^ b[i]`) produce identical
    // diagnostics; one line-granular finding is enough to act on.
    findings.dedup_by(|a, b| {
        a.lint == b.lint && a.file == b.file && a.line == b.line && a.message == b.message
    });
    let root_infos = roots
        .iter()
        .map(|&f| {
            let func = &graph.functions[f];
            RootInfo {
                name: func.name.clone(),
                file: graph.files[func.file].path.display().to_string(),
                line: func.decl_line,
            }
        })
        .collect();
    AuditReport {
        roots: root_infos,
        findings,
        allows: honored.iter().filter(|&&h| h).count(),
    }
}
