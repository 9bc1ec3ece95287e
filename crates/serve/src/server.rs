//! `robusthdd`: the TCP serving daemon.
//!
//! Everything is `std::net` + `std::thread` — no async runtime, no
//! network dependencies, zero `unsafe` — matching the workspace posture
//! the xtask lints enforce.
//!
//! # Thread topology
//!
//! ```text
//! accept thread ──spawns──► reader thread ──ordered channel──► writer thread
//!                               │  submit()                        ▲
//!                               ▼                                  │ answers
//!                        ┌────────────┐    next_batch()    ┌───────────────┐
//!                        │ Coalescer  │ ◄───────────────── │  drain thread │
//!                        │ (bounded)  │ ─────batches─────► │ (owns engine) │
//!                        └────────────┘                    └───────────────┘
//! ```
//!
//! * One **accept thread** polls a non-blocking listener and spawns a
//!   reader/writer pair per connection; it exits (dropping the listener,
//!   so new connections are refused) as soon as a drain begins.
//! * Each **reader thread** decodes NDJSON requests. Classify requests are
//!   validated (feature count) and submitted to the coalescer; everything
//!   the connection must answer — immediate replies and pending answers
//!   alike — flows through an ordered channel to the **writer thread**, so
//!   responses leave in request order even though answers resolve out of
//!   band. Malformed, unknown, or oversized lines produce structured
//!   `error` responses and the connection stays usable.
//! * The single **drain thread** owns the [`ServeEngine`] (model,
//!   supervisor, recovery state are single-owner by construction — no
//!   locks around the model) and loops on [`Coalescer::next_batch`],
//!   serving each micro-batch in one fused pass.
//!
//! # Graceful drain
//!
//! A `shutdown` request (or [`ServerHandle::shutdown`]) flips the
//! coalescer into draining: new connections are refused, new classify
//! requests answer with a `draining` error, queued queries are flushed
//! through the engine, and every already-accepted query receives its
//! answer before the drain thread exits and hands the engine back. The
//! drain thread then shuts down the read half of every established
//! connection — parked readers observe EOF, writers flush their ordered
//! streams, and peers see a clean close after their final response.

use crate::coalescer::{Coalescer, SubmitError};
use crate::engine::{AdmissionPolicy, DrainEngine, FleetEngine, QueryAnswer, ServeEngine};
use crate::protocol::{self, encode_response, Request, Response, StatsSnapshot, MAX_LINE_BYTES};
use robusthd::ServeConfig;
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::Duration;

/// Monotonic serving counters, updated lock-free and snapshotted by
/// `stats` requests. Relaxed ordering everywhere: these are statistics,
/// not synchronization.
#[derive(Debug, Default)]
pub struct ServeStats {
    connections: AtomicU64,
    results: AtomicU64,
    overloaded: AtomicU64,
    errors: AtomicU64,
    batches: AtomicU64,
    coalesced: AtomicU64,
    max_batch: AtomicU64,
    level: AtomicU64,
    quarantined: AtomicU64,
}

impl ServeStats {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn observe_batch(&self, size: usize, level: usize, quarantined: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.coalesced.fetch_add(size as u64, Ordering::Relaxed);
        self.max_batch.fetch_max(size as u64, Ordering::Relaxed);
        self.level.store(level as u64, Ordering::Relaxed);
        self.quarantined
            .store(quarantined as u64, Ordering::Relaxed);
    }

    fn snapshot(&self, queue: usize) -> StatsSnapshot {
        StatsSnapshot {
            connections: self.connections.load(Ordering::Relaxed),
            results: self.results.load(Ordering::Relaxed),
            overloaded: self.overloaded.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            max_batch: self.max_batch.load(Ordering::Relaxed),
            queue: queue as u64,
            level: self.level.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
        }
    }
}

/// State shared by every daemon thread.
#[derive(Debug)]
struct Shared {
    coalescer: Coalescer,
    stats: ServeStats,
    /// Routing + feature-count policy classify requests must pass
    /// (validated at admission so the engine can assert instead of panic
    /// on client mistakes).
    admission: AdmissionPolicy,
    /// Read-half clones of every live connection, keyed by connection id,
    /// so the drain thread can unblock parked readers once the queue is
    /// flushed. Readers deregister themselves on exit.
    conns: Mutex<HashMap<u64, TcpStream>>,
    /// Set once the drain thread has swept `conns`; connections that
    /// register after the sweep close their own read half immediately.
    swept: AtomicBool,
}

impl Shared {
    /// Unblocks one connection's reader by shutting down the socket's read
    /// half: its blocked `fill_buf` returns EOF, the reader exits, the
    /// writer flushes the remaining ordered stream, and the peer sees a
    /// clean close after its final response. The write half is untouched
    /// so no queued response is lost.
    fn close_reader(stream: &TcpStream) {
        let _ = stream.shutdown(Shutdown::Read);
    }

    /// Acquires the connection map, recovering from poison: the map's
    /// insert/remove mutations cannot be observed half-applied under the
    /// lock, and abandoning it would leak parked readers past a drain —
    /// a panicking connection thread must not wedge every other one.
    fn lock_conns(&self) -> std::sync::MutexGuard<'_, HashMap<u64, TcpStream>> {
        self.conns
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// A running daemon: its bound address and the handles to stop it.
///
/// Generic over the engine behind the drain thread — [`ServeEngine`] (the
/// default, what [`serve`] starts) or [`FleetEngine`] (what
/// [`serve_fleet`] starts).
#[derive(Debug)]
pub struct ServerHandle<E: DrainEngine = ServeEngine> {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<thread::JoinHandle<()>>,
    drain_thread: Option<thread::JoinHandle<E>>,
}

/// Starts the daemon on `addr` (use port 0 for an OS-assigned port) and
/// returns immediately; serving happens on background threads until a
/// `shutdown` request arrives or [`ServerHandle::shutdown`] is called.
///
/// # Errors
///
/// Returns any I/O error from binding the listener.
pub fn serve(
    addr: impl ToSocketAddrs,
    config: ServeConfig,
    engine: ServeEngine,
) -> io::Result<ServerHandle> {
    serve_with(addr, config, engine)
}

/// Starts a multi-tenant fleet daemon: identical thread topology and wire
/// protocol, with classify requests routed between the registry's
/// calibrated tenants on the optional `model` field (absent = default
/// tenant, so single-model clients work unchanged).
///
/// # Errors
///
/// Returns any I/O error from binding the listener.
pub fn serve_fleet(
    addr: impl ToSocketAddrs,
    config: ServeConfig,
    engine: FleetEngine,
) -> io::Result<ServerHandle<FleetEngine>> {
    serve_with(addr, config, engine)
}

fn serve_with<E: DrainEngine>(
    addr: impl ToSocketAddrs,
    config: ServeConfig,
    engine: E,
) -> io::Result<ServerHandle<E>> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        coalescer: Coalescer::new(config),
        stats: ServeStats::default(),
        admission: engine.admission(),
        conns: Mutex::new(HashMap::new()),
        swept: AtomicBool::new(false),
    });

    let drain_shared = Arc::clone(&shared);
    let drain_thread = thread::Builder::new()
        .name("robusthdd-drain".to_owned())
        .spawn(move || drain_loop(&drain_shared, engine))?;

    let accept_shared = Arc::clone(&shared);
    let accept_thread = thread::Builder::new()
        .name("robusthdd-accept".to_owned())
        .spawn(move || accept_loop(&listener, &accept_shared))?;

    Ok(ServerHandle {
        addr,
        shared,
        accept_thread: Some(accept_thread),
        drain_thread: Some(drain_thread),
    })
}

impl<E: DrainEngine> ServerHandle<E> {
    /// The daemon's bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A point-in-time snapshot of the serving counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot(self.shared.coalescer.len())
    }

    /// Whether a graceful drain has begun.
    pub fn is_draining(&self) -> bool {
        self.shared.coalescer.is_draining()
    }

    /// Begins a graceful drain and blocks until it completes: new
    /// connections refused, queued queries flushed, every accepted query
    /// answered. Returns the engine (with its post-traffic supervisor
    /// state) and the final counter snapshot. The engine is `None` only
    /// if the drain thread itself panicked — the per-batch serve path is
    /// already panic-contained, so that means a daemon bug, and the
    /// caller gets the stats and a clean teardown instead of a re-panic.
    pub fn shutdown(mut self) -> (Option<E>, StatsSnapshot) {
        self.shared.coalescer.begin_drain();
        let engine = self.join();
        let stats = self.shared.stats.snapshot(self.shared.coalescer.len());
        (engine, stats)
    }

    /// Blocks until the daemon drains — via a protocol `shutdown` request
    /// or a concurrent [`ServerHandle::shutdown`] — and returns the engine
    /// (see [`ServerHandle::shutdown`] for when it is `None`) plus the
    /// final counter snapshot. This is what `robusthd serve` blocks on.
    pub fn wait(mut self) -> (Option<E>, StatsSnapshot) {
        let engine = self.join();
        let stats = self.shared.stats.snapshot(self.shared.coalescer.len());
        (engine, stats)
    }

    fn join(&mut self) -> Option<E> {
        // `join` is called from `shutdown`/`wait` (which consume the
        // handle) and from `Drop`; the `take()`s make the second call a
        // no-op rather than a panic.
        let engine = self
            .drain_thread
            .take()
            .and_then(|thread| thread.join().ok());
        if let Some(accept) = self.accept_thread.take() {
            // An accept-thread panic is a daemon bug, but the drain has
            // already completed by now — don't re-panic during teardown.
            let _ = accept.join();
        }
        engine
    }
}

impl<E: DrainEngine> Drop for ServerHandle<E> {
    fn drop(&mut self) {
        // A dropped handle still tears the daemon down cleanly.
        if self.drain_thread.is_some() {
            self.shared.coalescer.begin_drain();
            let _ = self.join();
        }
    }
}

/// How often the non-blocking accept loop re-checks the drain flag.
const ACCEPT_POLL: Duration = Duration::from_millis(2);

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        if shared.coalescer.is_draining() {
            return; // drops the listener: new connections are refused
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let conn_id = shared.stats.connections.fetch_add(1, Ordering::Relaxed);
                if let Ok(read_half) = stream.try_clone() {
                    shared.lock_conns().insert(conn_id, read_half);
                    // The drain sweep may have already run; late arrivals
                    // close their own read half (responses still flush).
                    if shared.swept.load(Ordering::Acquire) {
                        Shared::close_reader(&stream);
                    }
                }
                let conn_shared = Arc::clone(shared);
                let spawned = thread::Builder::new()
                    .name("robusthdd-conn".to_owned())
                    .spawn(move || connection_reader(stream, &conn_shared, conn_id));
                // Out of threads: shed the connection rather than die.
                if spawned.is_err() {
                    shared.lock_conns().remove(&conn_id);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(ACCEPT_POLL),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            // Transient accept errors (e.g. the peer vanished between
            // SYN and accept) must not kill the daemon.
            Err(_) => thread::sleep(ACCEPT_POLL),
        }
    }
}

fn drain_loop<E: DrainEngine>(shared: &Arc<Shared>, mut engine: E) -> E {
    while let Some(batch) = shared.coalescer.next_batch() {
        if batch.is_empty() {
            continue;
        }
        // An engine panic mid-batch must not kill the drain thread: the
        // accepted⇒answered guarantee is the daemon's contract, and a
        // dead drain thread would strand every parked reader. Contain
        // the panic and degrade the batch to the quarantine shape
        // (unreliable, zero confidence) — clients see honest "don't
        // trust this" answers, the loop keeps serving, and the failure
        // is visible in the `errors` counter.
        let served = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let answers = engine.serve_pending(&batch);
            let (level, quarantined) = engine.stats_summary();
            (answers, level, quarantined)
        }));
        let answers = match served {
            Ok((answers, level, quarantined)) => {
                shared.stats.observe_batch(batch.len(), level, quarantined);
                answers
            }
            Err(_) => {
                shared
                    .stats
                    .errors
                    .fetch_add(batch.len() as u64, Ordering::Relaxed);
                batch
                    .iter()
                    .map(|_| QueryAnswer {
                        label: None,
                        confidence: 0.0,
                    })
                    .collect()
            }
        };
        shared
            .stats
            .results
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        for (query, answer) in batch.into_iter().zip(answers) {
            // A receiver may have vanished with its connection; the
            // answer is simply discarded then.
            let _ = query.answer_tx.send(answer);
        }
    }
    // Drain complete: every accepted query has its answer in flight. Close
    // established connections' read halves so parked readers observe EOF
    // and the sockets wind down once their writers finish flushing.
    shared.swept.store(true, Ordering::Release);
    for stream in shared.lock_conns().values() {
        Shared::close_reader(stream);
    }
    engine
}

/// One unit of the per-connection ordered response stream.
enum Outgoing {
    /// A response that is ready to write now.
    Ready(Response),
    /// A coalesced query's answer: resolve (blocking) then write.
    Pending(u64, mpsc::Receiver<QueryAnswer>),
}

/// Reads requests off one connection, submitting work and queueing
/// responses (in request order) for the writer thread.
fn connection_reader(stream: TcpStream, shared: &Arc<Shared>, conn_id: u64) {
    let Ok(write_half) = stream.try_clone() else {
        shared.lock_conns().remove(&conn_id);
        return;
    };
    let (out_tx, out_rx) = mpsc::channel::<Outgoing>();
    let writer = thread::Builder::new()
        .name("robusthdd-write".to_owned())
        .spawn(move || connection_writer(write_half, &out_rx));
    let Ok(writer) = writer else { return };

    let mut reader = BufReader::new(stream);
    loop {
        let outgoing = match read_bounded_line(&mut reader, MAX_LINE_BYTES) {
            LineRead::Line(line) => {
                if line.trim().is_empty() {
                    continue; // tolerate blank keep-alive lines
                }
                match protocol::decode_request(&line) {
                    Ok(request) => handle_request(request, shared),
                    Err(error) => {
                        ServeStats::bump(&shared.stats.errors);
                        Outgoing::Ready(Response::Error {
                            message: error.message,
                            id: error.id,
                        })
                    }
                }
            }
            LineRead::Oversized => {
                ServeStats::bump(&shared.stats.errors);
                Outgoing::Ready(Response::Error {
                    message: format!("line exceeds {MAX_LINE_BYTES} bytes"),
                    id: None,
                })
            }
            LineRead::Eof | LineRead::Failed => break,
        };
        if out_tx.send(outgoing).is_err() {
            break; // writer died (peer closed): stop reading
        }
    }
    drop(out_tx); // writer flushes the remaining ordered stream, then exits
    let _ = writer.join();
    shared.lock_conns().remove(&conn_id);
}

/// Turns one decoded request into its ordered-stream entry; every request
/// produces exactly one response.
fn handle_request(request: Request, shared: &Arc<Shared>) -> Outgoing {
    match request {
        Request::Classify {
            id,
            model,
            features,
        } => {
            if let Err(message) = shared.admission.check(model.as_deref(), features.len()) {
                ServeStats::bump(&shared.stats.errors);
                return Outgoing::Ready(Response::Error {
                    message,
                    id: Some(id),
                });
            }
            match shared.coalescer.submit_routed(model, features) {
                Ok(answer_rx) => Outgoing::Pending(id, answer_rx),
                Err(SubmitError::Overloaded) => {
                    ServeStats::bump(&shared.stats.overloaded);
                    Outgoing::Ready(Response::Overloaded { id })
                }
                Err(SubmitError::Draining) => {
                    ServeStats::bump(&shared.stats.errors);
                    Outgoing::Ready(Response::Error {
                        message: "daemon is draining".to_owned(),
                        id: Some(id),
                    })
                }
            }
        }
        Request::Stats => Outgoing::Ready(Response::Stats(
            shared.stats.snapshot(shared.coalescer.len()),
        )),
        Request::Health => Outgoing::Ready(Response::Health {
            draining: shared.coalescer.is_draining(),
            queue: shared.coalescer.len(),
        }),
        Request::Ping => Outgoing::Ready(Response::Pong),
        Request::Shutdown => {
            shared.coalescer.begin_drain();
            Outgoing::Ready(Response::ShuttingDown)
        }
    }
}

/// Writes the ordered response stream for one connection.
fn connection_writer(stream: TcpStream, out_rx: &mpsc::Receiver<Outgoing>) {
    let mut writer = BufWriter::new(stream);
    for outgoing in out_rx.iter() {
        let response = match outgoing {
            Outgoing::Ready(response) => response,
            Outgoing::Pending(id, answer_rx) => match answer_rx.recv() {
                Ok(answer) => Response::Result {
                    id,
                    label: answer.label,
                    confidence: answer.confidence,
                },
                // Unreachable while the drain loop honours its
                // every-accepted-query-answered contract; degrade to a
                // structured error rather than wedging the connection.
                Err(_) => Response::Error {
                    message: "query was accepted but never served".to_owned(),
                    id: Some(id),
                },
            },
        };
        let mut line = encode_response(&response);
        line.push('\n');
        if writer.write_all(line.as_bytes()).is_err() || writer.flush().is_err() {
            return; // peer is gone; reader will notice on its next read
        }
    }
}

/// Outcome of one bounded line read.
enum LineRead {
    /// A complete line (newline stripped), within the size bound.
    Line(String),
    /// The line exceeded the bound; its bytes were discarded through the
    /// terminating newline (or EOF), and the stream is positioned at the
    /// next line.
    Oversized,
    /// Clean end of stream.
    Eof,
    /// The connection failed mid-read.
    Failed,
}

/// Reads one `\n`-terminated line with a hard byte bound, never buffering
/// more than the bound. A final unterminated fragment (truncated line at
/// EOF) is returned as a `Line` so it gets a structured decode error
/// before the EOF is observed.
fn read_bounded_line(reader: &mut impl BufRead, bound: usize) -> LineRead {
    let mut buf: Vec<u8> = Vec::new();
    let mut oversized = false;
    loop {
        let (consumed, done) = {
            let chunk = match reader.fill_buf() {
                Ok(chunk) => chunk,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return LineRead::Failed,
            };
            if chunk.is_empty() {
                // EOF: a clean boundary, a truncated fragment, or the tail
                // of an oversized line.
                if oversized {
                    return LineRead::Oversized;
                }
                if buf.is_empty() {
                    return LineRead::Eof;
                }
                (0, true)
            } else if let Some(nl) = chunk.iter().position(|&b| b == b'\n') {
                if !oversized {
                    if buf.len() + nl > bound {
                        oversized = true;
                    } else {
                        buf.extend_from_slice(&chunk[..nl]); // audit:allow(panic): nl is a position() index inside chunk
                    }
                }
                (nl + 1, true)
            } else {
                if !oversized {
                    if buf.len() + chunk.len() > bound {
                        oversized = true;
                        buf.clear();
                    } else {
                        buf.extend_from_slice(chunk);
                    }
                }
                (chunk.len(), false)
            }
        };
        reader.consume(consumed);
        if done {
            if oversized {
                return LineRead::Oversized;
            }
            // Strip an optional carriage return for telnet-style clients.
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
            return match String::from_utf8(buf) {
                Ok(line) => LineRead::Line(line),
                // Not UTF-8: surface as an (empty-decode) error line.
                Err(_) => LineRead::Line("\u{fffd}".to_owned()),
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn read_all(input: &[u8], bound: usize) -> Vec<String> {
        let mut reader = BufReader::new(Cursor::new(input.to_vec()));
        let mut out = Vec::new();
        loop {
            match read_bounded_line(&mut reader, bound) {
                LineRead::Line(l) => out.push(l),
                LineRead::Oversized => out.push("<oversized>".to_owned()),
                LineRead::Eof => return out,
                LineRead::Failed => {
                    out.push("<failed>".to_owned());
                    return out;
                }
            }
        }
    }

    #[test]
    fn bounded_lines_split_and_strip() {
        assert_eq!(read_all(b"a\nbb\r\n\nccc", 10), ["a", "bb", "", "ccc"]);
    }

    #[test]
    fn oversized_line_is_skipped_not_wedged() {
        let mut input = vec![b'x'; 50];
        input.push(b'\n');
        input.extend_from_slice(b"ok\n");
        assert_eq!(read_all(&input, 8), ["<oversized>", "ok"]);
        // Oversized final fragment without a newline.
        assert_eq!(read_all(&[b'y'; 50], 8), ["<oversized>"]);
    }

    #[test]
    fn exact_bound_is_not_oversized() {
        assert_eq!(read_all(b"12345678\n", 8), ["12345678"]);
        assert_eq!(read_all(b"123456789\n", 8), ["<oversized>"]);
    }
}
