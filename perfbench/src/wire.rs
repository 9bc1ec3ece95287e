//! The benchmark's own load generator: one sending connection, one
//! receiving thread, request lines serialized before any timing starts.
//!
//! * [`open_loop`] sends each request at its scheduled (seeded Poisson)
//!   time whether or not earlier ones were answered, and times each answer
//!   from the request's *intended* send time, so a stall in the daemon
//!   charges every request queued behind it.
//! * [`fixed_depth`] keeps a fixed number of requests in flight. At twice
//!   the daemon's `max_batch` every drained batch is full, which makes the
//!   saturated throughput a property of the daemon rather than of how the
//!   client happens to pipeline.
//!
//! One sending connection keeps admission order deterministic. Every
//! answer is checked as it arrives: ids must come back in request order,
//! and label and `f64::to_bits` confidence must equal the in-process
//! reference engine's answer for that pool entry.

use crate::stats::Picker;
use robusthd_serve::protocol::{self, Request, Response};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

/// How long answers may trail the last request before the rest count as
/// never answered.
const TAIL: Duration = Duration::from_secs(20);
/// Receive poll interval (bounds how late the receiver notices the end).
const POLL: Duration = Duration::from_millis(20);
/// Ping cadence of a traced phase.
const PING_EVERY: Duration = Duration::from_millis(10);

/// Pre-serialized requests plus what each must be answered with.
#[derive(Debug)]
pub struct Pool {
    /// One complete request line (with `\n`) per entry; the request id is
    /// the entry's index, so every answer names the entry it answers.
    pub lines: Vec<Vec<u8>>,
    /// Ground-truth label per entry.
    pub truth: Vec<usize>,
    /// The in-process reference engine's `(label, confidence bits)`.
    pub reference: Vec<(Option<usize>, u64)>,
}

impl Pool {
    pub fn new(
        rows: &[(Option<String>, &[f64])],
        truth: Vec<usize>,
        reference: Vec<(Option<usize>, u64)>,
    ) -> Self {
        assert_eq!(rows.len(), truth.len());
        assert_eq!(rows.len(), reference.len());
        let lines = rows
            .iter()
            .enumerate()
            .map(|(id, (model, features))| {
                let mut line = protocol::encode_request(&Request::Classify {
                    id: id as u64,
                    model: model.clone(),
                    features: features.to_vec(),
                });
                line.push('\n');
                line.into_bytes()
            })
            .collect();
        Self {
            lines,
            truth,
            reference,
        }
    }
}

/// Per-phase request accounting.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub sent: u64,
    pub results: u64,
    pub overloaded: u64,
    pub errors: u64,
    /// Results whose label is the ground truth.
    pub correct: u64,
    /// Results that differ from the reference engine (label or bits).
    pub mismatches: u64,
    /// Responses whose id is not the next request's.
    pub out_of_order: u64,
}

impl Tally {
    pub fn add(&mut self, other: &Tally) {
        self.sent += other.sent;
        self.results += other.results;
        self.overloaded += other.overloaded;
        self.errors += other.errors;
        self.correct += other.correct;
        self.mismatches += other.mismatches;
        self.out_of_order += other.out_of_order;
    }

    /// Records one response line to the request for pool entry `expected`;
    /// returns whether it was a result.
    fn observe(&mut self, pool: &Pool, expected: u32, line: &str) -> bool {
        match protocol::decode_response(line.trim_end()) {
            Ok(Response::Result {
                id,
                label,
                confidence,
            }) => {
                self.results += 1;
                if id != u64::from(expected) {
                    self.out_of_order += 1;
                    return true;
                }
                let e = expected as usize;
                if pool.reference[e] != (label, confidence.to_bits()) {
                    self.mismatches += 1;
                }
                if label == Some(pool.truth[e]) {
                    self.correct += 1;
                }
                true
            }
            Ok(Response::Overloaded { .. }) => {
                self.overloaded += 1;
                false
            }
            _ => {
                self.errors += 1;
                false
            }
        }
    }
}

/// Outcome of an open-loop phase.
#[derive(Debug, Default)]
pub struct OpenLoop {
    pub tally: Tally,
    /// Intended-send → answer, milliseconds, ascending (results only).
    pub latency_ms: Vec<f64>,
    /// Actual − intended send time, milliseconds, ascending.
    pub late_ms: Vec<f64>,
    /// Ping round trips on a second connection, ms (traced phases only).
    pub ping_ms: Vec<f64>,
}

/// Reads response lines until `done` says every request is accounted for
/// or `deadline` passes. A timed-out read keeps its partial line.
fn receive(
    stream: &TcpStream,
    deadline: impl Fn() -> Option<Instant>,
    done: impl Fn(u64) -> bool,
    mut on_line: impl FnMut(&str),
) -> io::Result<()> {
    stream.set_read_timeout(Some(POLL))?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let mut received = 0u64;
    while !done(received) {
        match reader.read_line(&mut line) {
            Ok(0) => return Ok(()),
            Ok(_) if line.ends_with('\n') => {
                on_line(&line);
                received += 1;
                line.clear();
            }
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if deadline().is_some_and(|d| Instant::now() > d) {
                    return Ok(());
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Pings every [`PING_EVERY`] on its own connection while `running`.
fn ping_while(addr: SocketAddr, running: &AtomicBool) -> io::Result<Vec<f64>> {
    let stream = connect(addr)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut request = protocol::encode_request(&Request::Ping);
    request.push('\n');
    let mut rtts = Vec::new();
    let mut reply = String::new();
    while running.load(Ordering::Acquire) {
        let start = Instant::now();
        (&stream).write_all(request.as_bytes())?;
        reply.clear();
        reader.read_line(&mut reply)?;
        rtts.push(ms(start.elapsed()));
        thread::sleep(PING_EVERY);
    }
    Ok(rtts)
}

/// Sends `schedule` (`(offset ns, pool entry)`, ascending) open loop.
/// With `trace`, a second connection pings the daemon throughout.
pub fn open_loop(
    addr: SocketAddr,
    pool: &Pool,
    schedule: &[(u64, u32)],
    trace: bool,
) -> io::Result<OpenLoop> {
    let stream = connect(addr)?;
    let read_half = stream.try_clone()?;
    let n = schedule.len() as u64;
    let t0 = Instant::now() + Duration::from_millis(20);
    let last = Duration::from_nanos(schedule.last().map_or(0, |&(at, _)| at));
    let deadline = t0 + last + TAIL;
    let sending = AtomicBool::new(true);
    thread::scope(|s| {
        let sender = s.spawn(|| {
            let result = (|| {
                let mut late = Vec::with_capacity(schedule.len());
                for &(at, entry) in schedule {
                    let due = t0 + Duration::from_nanos(at);
                    let now = Instant::now();
                    if due > now {
                        thread::sleep(due - now);
                    }
                    late.push(ms(Instant::now().saturating_duration_since(due)));
                    (&stream).write_all(&pool.lines[entry as usize])?;
                }
                Ok::<_, io::Error>(late)
            })();
            sending.store(false, Ordering::Release);
            result
        });
        let receiver = s.spawn(|| {
            let mut tally = Tally::default();
            let mut latency = Vec::with_capacity(schedule.len());
            let mut k = 0usize;
            receive(
                &read_half,
                || Some(deadline),
                |received| received == n,
                |line| {
                    let (at, entry) = schedule[k];
                    let now = Instant::now();
                    if tally.observe(pool, entry, line) {
                        latency.push(ms(
                            now.saturating_duration_since(t0 + Duration::from_nanos(at))
                        ));
                    }
                    k += 1;
                },
            )?;
            Ok::<_, io::Error>((tally, latency))
        });
        let ping_ms = if trace {
            ping_while(addr, &sending)?
        } else {
            Vec::new()
        };
        let mut late_ms = sender.join().expect("sender thread panicked")?;
        let (mut tally, mut latency_ms) = receiver.join().expect("receiver thread panicked")?;
        tally.sent = n;
        late_ms.sort_by(f64::total_cmp);
        latency_ms.sort_by(f64::total_cmp);
        Ok(OpenLoop {
            tally,
            latency_ms,
            late_ms,
            ping_ms,
        })
    })
}

/// Outcome of a fixed-depth phase.
#[derive(Debug, Default)]
pub struct Capacity {
    pub tally: Tally,
    /// Answers received within the phase, per second of the phase.
    pub qps: f64,
}

/// Keeps `depth` requests in flight for `duration`, drawing entries from
/// `picker`; the answers still in flight at the end are awaited (and
/// checked) but not counted towards the rate.
pub fn fixed_depth(
    addr: SocketAddr,
    pool: &Pool,
    picker: &Picker,
    depth: usize,
    duration: Duration,
) -> io::Result<Capacity> {
    let stream = connect(addr)?;
    let read_half = stream.try_clone()?;
    let (credit_tx, credit_rx) = mpsc::channel::<()>();
    let total = AtomicU64::new(u64::MAX);
    let t0 = Instant::now();
    let end = t0 + duration;
    thread::scope(|s| {
        let total = &total;
        let sender = s.spawn(move || {
            let mut picks = picker.clone();
            let mut sent = 0u64;
            let result = (|| loop {
                if sent >= depth as u64 {
                    let now = Instant::now();
                    if now >= end || credit_rx.recv_timeout(end - now).is_err() {
                        return Ok::<_, io::Error>(());
                    }
                }
                (&stream).write_all(&pool.lines[picks.next_index() as usize])?;
                sent += 1;
            })();
            total.store(sent, Ordering::Release);
            result.map(|()| sent)
        });
        let receiver = s.spawn(move || {
            let mut picks = picker.clone();
            let mut tally = Tally::default();
            let mut in_window = 0u64;
            receive(
                &read_half,
                || {
                    let sent = total.load(Ordering::Acquire);
                    (sent != u64::MAX).then(|| end + TAIL)
                },
                |received| received == total.load(Ordering::Acquire),
                |line| {
                    tally.observe(pool, picks.next_index(), line);
                    if Instant::now() <= end {
                        in_window += 1;
                    }
                    let _ = credit_tx.send(());
                },
            )?;
            Ok::<_, io::Error>((tally, in_window))
        });
        let sent = sender.join().expect("sender thread panicked")?;
        let (mut tally, in_window) = receiver.join().expect("receiver thread panicked")?;
        tally.sent = sent;
        Ok(Capacity {
            tally,
            qps: in_window as f64 / duration.as_secs_f64(),
        })
    })
}
