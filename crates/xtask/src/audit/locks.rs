//! The lock-discipline pass: acquisition extraction, lock-order cycles,
//! holds across engine calls or blocking I/O, and naked `Condvar::wait`.
//!
//! Acquisitions are recognized syntactically:
//!
//! * `recv.lock()`, `recv.read()`, `recv.write()` (no-argument forms
//!   only, so `io::Read::read(buf)` does not count), and
//!   `recv.get_or_init(…)` — the lock's identity is the receiver's last
//!   field/identifier (`self.state.lock()` is lock `state`);
//! * calls to guard-returning helpers named `lock_<name>` — the
//!   workspace convention for poison-recovering wrappers
//!   (`lock_conns()` is lock `conns`), which keeps wrapper-mediated
//!   holds visible to an analysis that cannot see types.
//!
//! A guard's held region is approximated intraprocedurally: a
//! `let`-bound guard is held to the end of its enclosing block (or to an
//! explicit `drop(guard)`); a temporary guard is held to the end of its
//! statement (including a trailing block, so `for x in m.lock_…()` holds
//! through the loop body). Guards returned to a caller are *not*
//! tracked across the return — which is why helpers must follow the
//! `lock_*` naming convention.
//!
//! Findings:
//!
//! * `audit-lock-cycle` — the lock-order graph (nested acquisitions,
//!   plus locks transitively acquired by calls made while holding) has
//!   a cycle: an ABBA deadlock waiting for the right schedule;
//! * `audit-lock-engine` — a `BatchEngine`/supervisor call (a call
//!   resolving only into `core/src/batch.rs` or
//!   `core/src/supervisor.rs`) made while holding a lock: serving work
//!   stalls every thread contending for that lock;
//! * `audit-lock-blocking` — blocking I/O (`write_all`, `flush`,
//!   `accept`, `recv`, `join`, `sleep`, …) while holding a lock;
//! * `audit-condvar-wait` — a `Condvar::wait`/`wait_timeout` outside a
//!   `loop`/`while` predicate loop: wakeups are permitted to be spurious
//!   or stale, so every wait must revalidate its predicate.

use super::graph::{Allow, AllowKind, Graph};
use crate::{is_ident_byte, word_occurrences, Diagnostic};
use std::collections::{BTreeMap, BTreeSet};

/// Method-shaped acquisition patterns (receiver-derived lock name).
const ACQUIRE_METHODS: &[&str] = &[".lock()", ".read()", ".write()", ".get_or_init("];

/// Blocking-call tokens that must not run under a lock. `Condvar::wait`
/// is deliberately absent: it releases the guard while parked.
const BLOCKING: &[&str] = &[
    ".write_all(",
    ".flush(",
    ".fill_buf(",
    ".read_to_end(",
    ".read_line(",
    ".read_exact(",
    ".accept(",
    ".recv(",
    ".recv_timeout(",
    ".join(",
    "sleep(",
];

/// One lock acquisition with its approximated held region.
#[derive(Debug)]
struct Acquisition {
    /// Lock identity (receiver field name or `lock_*` suffix).
    name: String,
    /// Absolute code-view offset where the acquisition starts.
    at: usize,
    /// Absolute offset where the held region ends.
    end: usize,
    /// 1-based line of the acquisition.
    line: usize,
}

/// Brace pair spans `(open, close_exclusive)` inside `code[open..close]`.
fn block_spans(code: &str, open: usize, close: usize) -> Vec<(usize, usize)> {
    let bytes = code.as_bytes();
    let mut stack = Vec::new();
    let mut out = Vec::new();
    for i in open..close {
        match bytes[i] {
            b'{' => stack.push(i),
            b'}' => {
                if let Some(start) = stack.pop() {
                    out.push((start, i + 1));
                }
            }
            _ => {}
        }
    }
    out
}

/// The innermost block span containing `at`.
fn enclosing_block(spans: &[(usize, usize)], at: usize) -> Option<(usize, usize)> {
    spans
        .iter()
        .filter(|(open, close)| at > *open && at < *close)
        .min_by_key(|(open, close)| close - open)
        .copied()
}

/// How a lock acquisition's guard is held.
enum Binding {
    /// Not a `let` initializer: a temporary, held to the end of its
    /// statement.
    Temporary,
    /// Bound to a pattern: held to block end, drop untrackable.
    Pattern,
    /// Bound to a named variable, which an explicit `drop` may release
    /// before block end.
    Named(String),
}

/// Walks back from `at` to the start of the enclosing statement and
/// reports how the acquisition's guard is bound.
fn let_binding(code: &str, at: usize) -> Binding {
    let stmt_start = code[..at].rfind([';', '{', '}']).map_or(0, |i| i + 1);
    let stmt = &code[stmt_start..at];
    let Some(let_at) = word_occurrences(stmt, "let").into_iter().next_back() else {
        return Binding::Temporary;
    };
    let after = stmt[let_at + 3..].trim_start();
    let after = after.strip_prefix("mut ").unwrap_or(after).trim_start();
    let var: String = after
        .bytes()
        .take_while(|&b| is_ident_byte(b))
        .map(char::from)
        .collect();
    if var.is_empty() || !after[var.len()..].trim_start().starts_with('=') {
        Binding::Pattern
    } else {
        Binding::Named(var)
    }
}

/// End of the statement a temporary guard lives for: the first `;` at
/// relative brace depth 0, the close of the first brace group opened at
/// depth 0 (a `for`/`if`/`match` body consuming the temporary), or the
/// end of the enclosing block.
fn statement_end(code: &str, from: usize, block_close: usize) -> usize {
    let bytes = code.as_bytes();
    let mut depth = 0i64;
    let mut i = from;
    while i < block_close {
        match bytes[i] {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
                if depth < 0 {
                    return i;
                }
            }
            b';' if depth == 0 => return i + 1,
            _ => {}
        }
        i += 1;
    }
    block_close
}

/// The last identifier of the receiver expression ending at `dot`
/// (exclusive): `self.state.lock()` → `state`; `inner().lock()` →
/// `inner`; unresolvable receivers collapse to `"<expr>"`.
fn receiver_name(code: &str, dot: usize) -> String {
    let bytes = code.as_bytes();
    let mut i = dot;
    if i > 0 && bytes[i - 1] == b')' {
        // Walk back over a call's parens to its name.
        let mut depth = 0i64;
        while i > 0 {
            i -= 1;
            match bytes[i] {
                b')' => depth += 1,
                b'(' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
        }
    }
    let end = i;
    let start = (0..end)
        .rev()
        .take_while(|&j| is_ident_byte(bytes[j]))
        .last();
    match start {
        Some(s) if s < end => code[s..end].to_owned(),
        _ => "<expr>".to_owned(),
    }
}

/// Extracts every acquisition in one function body.
fn acquisitions(graph: &Graph<'_>, func: usize) -> Vec<Acquisition> {
    let f = &graph.functions[func];
    let Some((open, close)) = f.body else {
        return Vec::new();
    };
    let file = graph.files[f.file];
    let code = &file.code;
    let spans = block_spans(code, open, close);
    let mut out = Vec::new();

    let mut record = |name: String, at: usize| {
        let line = file.line_of(at);
        if file.line_in_test(line) {
            return;
        }
        let (_, block_close) = enclosing_block(&spans, at).unwrap_or((open, close));
        let end = match let_binding(code, at) {
            Binding::Temporary => statement_end(code, at, block_close),
            Binding::Pattern => block_close,
            Binding::Named(var) => {
                let mut end = block_close;
                // An explicit drop shortens the held region.
                for drop_at in word_occurrences(&code[at..block_close], "drop") {
                    let after =
                        &code[at + drop_at + 4..block_close.min(at + drop_at + 4 + var.len() + 8)];
                    let after = after.trim_start();
                    if let Some(rest) = after.strip_prefix('(') {
                        if rest.trim_start().starts_with(&var) {
                            end = at + drop_at;
                            break;
                        }
                    }
                }
                end
            }
        };
        out.push(Acquisition {
            name,
            at,
            end,
            line,
        });
    };

    for pattern in ACQUIRE_METHODS {
        let mut from = open;
        while let Some(pos) = code[from..close].find(pattern) {
            let at = from + pos;
            from = at + pattern.len();
            record(receiver_name(code, at), at);
        }
    }
    for call in &f.calls {
        if let Some(suffix) = call.name.strip_prefix("lock_") {
            if !suffix.is_empty() {
                record(suffix.to_owned(), call.at);
            }
        }
    }
    out.sort_by_key(|a| a.at);
    out
}

/// Fixpoint of the lock names each function (transitively) acquires.
fn transitive_acquires(graph: &Graph<'_>, direct: &[Vec<Acquisition>]) -> Vec<BTreeSet<String>> {
    let mut sets: Vec<BTreeSet<String>> = direct
        .iter()
        .map(|acqs| acqs.iter().map(|a| a.name.clone()).collect())
        .collect();
    loop {
        let mut changed = false;
        for idx in 0..graph.functions.len() {
            let mut additions: Vec<String> = Vec::new();
            for call in &graph.functions[idx].calls {
                if let Some(callees) = graph.by_name.get(&call.name) {
                    for &callee in callees {
                        for name in &sets[callee] {
                            if !sets[idx].contains(name) {
                                additions.push(name.clone());
                            }
                        }
                    }
                }
            }
            for name in additions {
                changed |= sets[idx].insert(name);
            }
        }
        if !changed {
            return sets;
        }
    }
}

/// Whether every resolution candidate of `name` lives in an engine file
/// (`core/src/batch.rs` / `core/src/supervisor.rs`). Exclusive
/// resolution keeps ubiquitous names (`new`, `len`) from turning every
/// constructor call under a lock into a finding.
fn resolves_only_into_engine(graph: &Graph<'_>, name: &str) -> bool {
    let Some(callees) = graph.by_name.get(name) else {
        return false;
    };
    !callees.is_empty()
        && callees.iter().all(|&callee| {
            let rel = graph.files[graph.functions[callee].file]
                .path
                .to_string_lossy()
                .replace('\\', "/");
            rel.ends_with("core/src/batch.rs") || rel.ends_with("core/src/supervisor.rs")
        })
}

/// Runs the lock-discipline pass. `honored[i]` is set when `allows[i]`
/// (of kind `lock`) suppressed at least one finding.
#[allow(clippy::too_many_lines)]
pub fn check(graph: &Graph<'_>, allows: &[Allow], honored: &mut [bool]) -> Vec<Diagnostic> {
    let direct: Vec<Vec<Acquisition>> = (0..graph.functions.len())
        .map(|idx| acquisitions(graph, idx))
        .collect();
    let transitive = transitive_acquires(graph, &direct);

    let mut out = Vec::new();
    let suppress = |out: &mut Vec<Diagnostic>, honored: &mut [bool], func: usize, d: Diagnostic| {
        let mut allowed = false;
        for (i, allow) in allows.iter().enumerate() {
            if allow.covers(
                AllowKind::Lock,
                graph.functions[func].file,
                d.line,
                Some(func),
            ) {
                honored[i] = true;
                allowed = true;
            }
        }
        if !allowed {
            out.push(d);
        }
    };

    // Lock-order edges: (from, to) → representative (file, line).
    let mut edges: BTreeMap<(String, String), (usize, usize)> = BTreeMap::new();
    for (idx, func) in graph.functions.iter().enumerate() {
        let file = graph.files[func.file];
        for acq in &direct[idx] {
            // Nested direct acquisitions.
            for inner in &direct[idx] {
                if inner.at > acq.at && inner.at < acq.end && inner.name != acq.name {
                    edges
                        .entry((acq.name.clone(), inner.name.clone()))
                        .or_insert((func.file, inner.line));
                }
            }
            // Locks acquired by calls made while holding.
            for call in &func.calls {
                if call.at <= acq.at || call.at >= acq.end {
                    continue;
                }
                if let Some(callees) = graph.by_name.get(&call.name) {
                    for &callee in callees {
                        for name in &transitive[callee] {
                            if *name != acq.name {
                                edges
                                    .entry((acq.name.clone(), name.clone()))
                                    .or_insert((func.file, file.line_of(call.at)));
                            }
                        }
                    }
                }
            }

            // Engine calls and blocking I/O inside the held region.
            let code = &file.code;
            for call in &func.calls {
                if call.at > acq.at
                    && call.at < acq.end
                    && resolves_only_into_engine(graph, &call.name)
                {
                    let d = Diagnostic {
                        lint: "audit-lock-engine",
                        file: file.path.clone(),
                        line: file.line_of(call.at),
                        message: format!(
                            "`{}` (BatchEngine/supervisor work) called while \
                             holding lock `{}` (acquired line {}) — serving \
                             work under a lock stalls every contending thread; \
                             copy what you need out of the guard first",
                            call.name, acq.name, acq.line
                        ),
                    };
                    suppress(&mut out, honored, idx, d);
                }
            }
            for token in BLOCKING {
                let mut from = acq.at;
                while let Some(pos) = code[from..acq.end].find(token) {
                    let at = from + pos;
                    from = at + token.len();
                    let d = Diagnostic {
                        lint: "audit-lock-blocking",
                        file: file.path.clone(),
                        line: file.line_of(at),
                        message: format!(
                            "blocking call `{}…)` while holding lock `{}` \
                             (acquired line {}) — I/O latency becomes lock \
                             hold time for every contending thread",
                            token.trim_start_matches('.'),
                            acq.name,
                            acq.line
                        ),
                    };
                    suppress(&mut out, honored, idx, d);
                }
            }
        }

        // Naked Condvar waits: every wait must sit inside a predicate
        // loop that revalidates its condition on wakeup.
        if let Some((open, close)) = func.body {
            let code = &file.code;
            let mut loops: Vec<(usize, usize)> = Vec::new();
            for keyword in ["loop", "while"] {
                for at in word_occurrences(&code[open..close], keyword) {
                    if let Some(span) = crate::brace_span(code, open + at) {
                        if span.0 < close {
                            loops.push(span);
                        }
                    }
                }
            }
            for pattern in [".wait(", ".wait_timeout("] {
                let mut from = open;
                while let Some(pos) = code[from..close].find(pattern) {
                    let at = from + pos;
                    from = at + pattern.len();
                    let line = file.line_of(at);
                    if file.line_in_test(line) {
                        continue;
                    }
                    if !loops.iter().any(|(o, c)| at > *o && at < *c) {
                        let d = Diagnostic {
                            lint: "audit-condvar-wait",
                            file: file.path.clone(),
                            line,
                            message: format!(
                                "`{}…)` outside a `loop`/`while` predicate loop \
                                 in `{}` — wakeups may be spurious or stale, so \
                                 the predicate must be revalidated after every \
                                 wait",
                                pattern.trim_start_matches('.'),
                                func.name
                            ),
                        };
                        suppress(&mut out, honored, idx, d);
                    }
                }
            }
        }
    }

    // Cycle detection on the lock-order graph: a strongly connected
    // component of ≥ 2 locks is an ABBA deadlock waiting for the right
    // schedule. One diagnostic per component, at its smallest edge site.
    for component in strongly_connected(&edges) {
        let mut members: Vec<&str> = component.iter().map(String::as_str).collect();
        members.sort_unstable();
        let site = edges
            .iter()
            .filter(|((a, b), _)| component.contains(a) && component.contains(b))
            .map(|(_, site)| *site)
            .min();
        if let Some((file_idx, line)) = site {
            out.push(Diagnostic {
                lint: "audit-lock-cycle",
                file: graph.files[file_idx].path.clone(),
                line,
                message: format!(
                    "lock-order cycle between {{{}}} — two threads taking \
                     these locks in opposite orders deadlock; pick one \
                     global order and release before re-acquiring",
                    members.join(", ")
                ),
            });
        }
    }

    out
}

/// Strongly connected components of ≥ 2 nodes in the lock-order graph
/// (iterative Tarjan, deterministic over the sorted edge map).
fn strongly_connected(edges: &BTreeMap<(String, String), (usize, usize)>) -> Vec<BTreeSet<String>> {
    let mut nodes: BTreeSet<&str> = BTreeSet::new();
    for (a, b) in edges.keys() {
        nodes.insert(a);
        nodes.insert(b);
    }
    let index_of: BTreeMap<&str, usize> = nodes.iter().enumerate().map(|(i, &n)| (n, i)).collect();
    let names: Vec<&str> = nodes.into_iter().collect();
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); names.len()];
    for (a, b) in edges.keys() {
        succ[index_of[a.as_str()]].push(index_of[b.as_str()]);
    }

    let n = names.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0;
    let mut components = Vec::new();

    // Iterative Tarjan: (node, child cursor) frames.
    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        let mut frames: Vec<(usize, usize)> = vec![(start, 0)];
        while let Some(&mut (v, ref mut cursor)) = frames.last_mut() {
            if *cursor == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = succ[v].get(*cursor) {
                *cursor += 1;
                if index[w] == usize::MAX {
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                if low[v] == index[v] {
                    let mut component = BTreeSet::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        component.insert(names[w].to_owned());
                        if w == v {
                            break;
                        }
                    }
                    if component.len() >= 2 {
                        components.push(component);
                    }
                }
                frames.pop();
                if let Some(&mut (parent, _)) = frames.last_mut() {
                    low[parent] = low[parent].min(low[v]);
                }
            }
        }
    }
    components
}
