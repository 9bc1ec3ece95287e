//! The request coalescer: concurrent single-query requests queue into a
//! time/size-bounded micro-batch and drain in one fused engine pass.
//!
//! # State machine
//!
//! The queue has three regimes, governed by [`robusthd::ServeConfig`]:
//!
//! * **Empty** — the drain loop sleeps on a condvar until a query arrives
//!   (or a drain begins).
//! * **Filling** — the first query in the queue starts a window of
//!   `window_us`; the drain loop sleeps until the window expires, the
//!   queue reaches `max_batch`, or a drain begins — whichever comes first
//!   — then takes up to `max_batch` queries FIFO.
//! * **Shedding** — a query arriving while `queue_depth` are already
//!   waiting is refused with [`SubmitError::Overloaded`]; the caller turns
//!   that into a structured wire response. Load is shed at admission,
//!   never silently dropped after being accepted.
//!
//! Once a query is accepted, its answer is guaranteed: on graceful drain
//! the loop keeps taking batches until the queue is empty, and only then
//! reports exhaustion. Accepted-but-unanswered is not a reachable state
//! (short of the process dying).
//!
//! # Poison recovery
//!
//! A thread that panics while holding the queue lock poisons it. The
//! coalescer never propagates that panic: every acquisition recovers the
//! guard with [`PoisonError::into_inner`] (a `VecDeque` mutation cannot
//! be observed half-applied under the lock, so the state is structurally
//! sound) and latches a `poisoned` flag. A poisoned coalescer degrades
//! like a forced drain with shedding semantics: new submissions are
//! refused as [`SubmitError::Overloaded`], already-accepted queries are
//! still flushed and answered, and [`Coalescer::next_batch`] then
//! reports exhaustion so the drain loop shuts down structurally instead
//! of the daemon thread dying on an `expect`.
//!
//! FIFO order within a batch is load-bearing for determinism: a batch's
//! composition depends on arrival timing, but each query's *answer* does
//! not (the engine computes per-query results), so coalescing is invisible
//! in the response bits — the property `serve_differential.rs` pins.

use crate::engine::QueryAnswer;
use robusthd::ServeConfig;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Why a submission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The admission queue is at `queue_depth`; the query was shed.
    Overloaded,
    /// A graceful drain is in progress; new work is refused.
    Draining,
}

/// One accepted query waiting for its micro-batch: the routing key, the
/// feature row, and the channel its answer travels back on.
#[derive(Debug)]
pub struct PendingQuery {
    /// Fleet tenant the query routes to; `None` is the default tenant.
    /// Solo deployments carry `None` throughout, so the key never changes
    /// batch composition there — fleet drains group by it instead of
    /// splitting the micro-batch.
    pub model: Option<String>,
    /// The raw feature row to serve.
    pub features: Vec<f64>,
    /// Where the drain loop sends the answer.
    pub answer_tx: mpsc::Sender<QueryAnswer>,
}

#[derive(Debug)]
struct QueueState {
    queue: VecDeque<(PendingQuery, Instant)>,
    draining: bool,
}

/// The bounded, windowed admission queue between connection threads and
/// the drain loop.
#[derive(Debug)]
pub struct Coalescer {
    state: Mutex<QueueState>,
    arrived: Condvar,
    config: ServeConfig,
    /// Latched when any acquisition observes the lock poisoned; from
    /// then on the coalescer sheds new work and flushes the rest (see
    /// the module docs on poison recovery).
    poisoned: AtomicBool,
}

impl Coalescer {
    /// Creates an empty coalescer with the given tuning.
    pub fn new(config: ServeConfig) -> Self {
        Self {
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                draining: false,
            }),
            arrived: Condvar::new(),
            config,
            poisoned: AtomicBool::new(false),
        }
    }

    /// Recovers a guard from a possibly-poisoned acquisition: latches
    /// the poison flag and wakes the drain loop (which treats poison as
    /// a drain trigger) rather than propagating a panic into whichever
    /// thread touched the queue next.
    fn recover<G>(&self, result: Result<G, PoisonError<G>>) -> G {
        match result {
            Ok(guard) => guard,
            Err(recovered) => {
                self.poisoned.store(true, Ordering::Release);
                self.arrived.notify_all();
                recovered.into_inner()
            }
        }
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, QueueState> {
        self.recover(self.state.lock())
    }

    /// The tuning in effect.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Whether a poisoned acquisition has been observed (the coalescer
    /// is in shed-and-flush degradation).
    fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// Queries currently waiting.
    pub fn len(&self) -> usize {
        self.lock_state().queue.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether a graceful drain has begun.
    pub fn is_draining(&self) -> bool {
        self.lock_state().draining
    }

    /// Submits one query for coalesced serving. On acceptance, returns the
    /// receiver its answer will arrive on (exactly one answer is
    /// guaranteed, even across a graceful drain).
    ///
    /// # Errors
    ///
    /// [`SubmitError::Overloaded`] when `queue_depth` queries are already
    /// waiting, [`SubmitError::Draining`] once a drain has begun.
    pub fn submit(&self, features: Vec<f64>) -> Result<mpsc::Receiver<QueryAnswer>, SubmitError> {
        self.submit_routed(None, features)
    }

    /// [`Coalescer::submit`] with an explicit fleet routing key: queries
    /// for different tenants share one admission queue and coalesce into
    /// the same micro-batches (the fleet drain groups them by tenant).
    ///
    /// # Errors
    ///
    /// Same as [`Coalescer::submit`].
    pub fn submit_routed(
        &self,
        model: Option<String>,
        features: Vec<f64>,
    ) -> Result<mpsc::Receiver<QueryAnswer>, SubmitError> {
        let mut state = self.lock_state();
        if self.is_poisoned() {
            return Err(SubmitError::Overloaded);
        }
        if state.draining {
            return Err(SubmitError::Draining);
        }
        if state.queue.len() >= self.config.queue_depth {
            return Err(SubmitError::Overloaded);
        }
        let (answer_tx, answer_rx) = mpsc::channel();
        state.queue.push_back((
            PendingQuery {
                model,
                features,
                answer_tx,
            },
            Instant::now(),
        ));
        drop(state);
        self.arrived.notify_all();
        Ok(answer_rx)
    }

    /// Begins a graceful drain: subsequent [`Coalescer::submit`] calls are
    /// refused, and [`Coalescer::next_batch`] flushes the remaining queue
    /// (in `max_batch` chunks, ignoring the window) before reporting
    /// exhaustion. Idempotent.
    pub fn begin_drain(&self) {
        self.lock_state().draining = true;
        self.arrived.notify_all();
    }

    /// Blocks until a micro-batch is ready and takes it (up to `max_batch`
    /// queries, FIFO). Returns `None` only when a drain has begun (or the
    /// coalescer is poisoned) *and* the queue is empty — the drain loop's
    /// exit condition.
    pub fn next_batch(&self) -> Option<Vec<PendingQuery>> {
        let window = Duration::from_micros(self.config.window_us);
        let mut state = self.lock_state();
        loop {
            // Poison degrades like a forced drain: flush what was
            // accepted, skip the batching window, then exhaust.
            let draining = state.draining || self.is_poisoned();
            if state.queue.is_empty() {
                if draining {
                    return None;
                }
                state = self.recover(self.arrived.wait(state));
                continue;
            }
            // Filling: leave as soon as the batch is full, the window has
            // expired for the oldest query, or a drain flushes everything.
            if state.queue.len() >= self.config.max_batch || draining {
                break;
            }
            let deadline = match state.queue.front() {
                Some(&(_, admitted)) => admitted + window,
                // Unreachable (the queue was non-empty above and only
                // this thread drains it); re-running the loop re-checks
                // every exit condition without a panic site.
                None => continue,
            };
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            state = match self.arrived.wait_timeout(state, deadline - now) {
                Ok((reacquired, _timeout)) => reacquired,
                Err(recovered) => self.recover(Err(recovered)).0,
            };
        }
        let take = state.queue.len().min(self.config.max_batch);
        Some(state.queue.drain(..take).map(|(q, _)| q).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(window_us: u64, max_batch: usize, queue_depth: usize) -> ServeConfig {
        ServeConfig::builder()
            .window_us(window_us)
            .max_batch(max_batch)
            .queue_depth(queue_depth)
            .build()
            .expect("valid")
    }

    #[test]
    fn full_batch_drains_without_waiting_for_the_window() {
        // A very long window must not delay a full batch.
        let c = Coalescer::new(config(60_000_000, 2, 8));
        let _a = c.submit(vec![0.0]).expect("accepted");
        let _b = c.submit(vec![1.0]).expect("accepted");
        let start = Instant::now();
        let batch = c.next_batch().expect("not draining");
        assert_eq!(batch.len(), 2);
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "waited the window"
        );
        // FIFO composition.
        assert_eq!(batch[0].features, vec![0.0]);
        assert_eq!(batch[1].features, vec![1.0]);
    }

    #[test]
    fn window_expiry_drains_a_partial_batch() {
        let c = Coalescer::new(config(1_000, 64, 8));
        let _a = c.submit(vec![0.5]).expect("accepted");
        let batch = c.next_batch().expect("not draining");
        assert_eq!(batch.len(), 1);
    }

    #[test]
    fn overload_is_refused_at_admission() {
        let c = Coalescer::new(config(1_000, 4, 2));
        let _a = c.submit(vec![0.0]).expect("accepted");
        let _b = c.submit(vec![1.0]).expect("accepted");
        assert_eq!(c.submit(vec![2.0]).unwrap_err(), SubmitError::Overloaded);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn poison_sheds_new_work_flushes_accepted_then_exhausts() {
        let c = std::sync::Arc::new(Coalescer::new(config(60_000_000, 2, 8)));
        let accepted = c.submit(vec![1.0]).expect("accepted");
        // Poison the queue lock: a thread panics while holding it.
        let poisoner = std::sync::Arc::clone(&c);
        let result = std::thread::spawn(move || {
            let _guard = poisoner.state.lock().expect("not yet poisoned");
            panic!("deliberate poison");
        })
        .join();
        assert!(result.is_err(), "poisoner must have panicked");
        // New work is shed with a structured overload, not a panic...
        assert_eq!(c.submit(vec![2.0]).unwrap_err(), SubmitError::Overloaded);
        assert!(c.is_poisoned());
        // ...the accepted query still flushes (ignoring the window)...
        let batch = c.next_batch().expect("accepted work must flush");
        assert_eq!(batch.len(), 1);
        batch[0]
            .answer_tx
            .send(QueryAnswer {
                label: Some(3),
                confidence: 0.5,
            })
            .expect("receiver alive");
        assert!(accepted.recv().is_ok(), "accepted ⇒ answered held");
        // ...and the drain loop then exits structurally.
        assert!(c.next_batch().is_none());
    }

    #[test]
    fn drain_flushes_in_chunks_then_exhausts() {
        let c = Coalescer::new(config(60_000_000, 2, 8));
        let rxs: Vec<_> = (0..5)
            .map(|i| c.submit(vec![f64::from(i)]).expect("accepted"))
            .collect();
        c.begin_drain();
        assert_eq!(c.submit(vec![9.0]).unwrap_err(), SubmitError::Draining);
        let mut sizes = Vec::new();
        while let Some(batch) = c.next_batch() {
            sizes.push(batch.len());
            for q in batch {
                q.answer_tx
                    .send(QueryAnswer {
                        label: Some(0),
                        confidence: 1.0,
                    })
                    .expect("receiver alive");
            }
        }
        assert_eq!(sizes, vec![2, 2, 1], "max_batch chunks, ignoring window");
        for rx in rxs {
            assert!(rx.recv().is_ok(), "every accepted query was answered");
        }
    }
}
