//! The traced runs that produce the per-layer metrics.
//!
//! A traced run is separate from the timed run. It sets the deployment up
//! as the timed run starts ([`timed::SETUPS`] times), then runs the rated phase twice at the same
//! fixed rate: untraced, and traced (a second connection pings the daemon
//! throughout; in-process, every batch's span is recorded). Their p50
//! ratio is `trace.overhead`. Finally it replays the same seeded inputs
//! through each layer's public functions, at the batch size the untraced
//! phase drained, timing each call from this file: spans come from the
//! benchmark's own code only.
//!
//! `trace.coverage` is the sum of the per-query layer times on the
//! blocking path divided by the untraced phase's mean latency. A layer the
//! workload's serving path does not run reads 0.

use crate::deploy::{self, SetupTimings, Tenant, Ucihar};
use crate::report::Outcome;
use crate::soak;
use crate::stats::{self, Picker};
use crate::timed;
use crate::wire::{self, OpenLoop, Pool};
use crate::Args;
use hypervector::BinaryHypervector;
use robusthd::diagnostics::HealthVerdict;
use robusthd::persist;
use robusthd::supervisor::ResilienceSupervisor;
use robusthd::{BatchEngine, HdcConfig, ModelRegistry, RecordEncoder, RecoveryStats, TrainedModel};
use robusthd_serve::protocol::{self, Response, StatsSnapshot};
use robusthd_serve::{Coalescer, DrainEngine, PendingQuery, ServerHandle};
use std::hint::black_box;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Requests replayed through the wire codec.
const CODEC_REPLAY: usize = 2_000;
/// Batches replayed through the engine, encoder, scorer and supervisor.
const BATCH_REPLAY: usize = 200;
/// Longest stretch of the arrival schedule replayed through a coalescer.
const COALESCER_REPLAY: Duration = Duration::from_secs(2);
/// Save/load round trips timed through `persist`.
const PERSIST_REPLAY: usize = 50;
/// Seed salt, so the traced phase draws its own stream from `--seed`.
const SALT_TRACED: u64 = 0x007D_ACED;

fn io(e: std::io::Error) -> String {
    format!("i/o: {e}")
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Times `f` once.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// What every traced run reports from its set-ups and host readings.
fn common(out: &mut Outcome, timings: &[SetupTimings], jiffies: Option<(u64, u64)>) {
    out.set(
        "encoding.train_s",
        timed::setup_median(timings, |t| t.encode_s),
    );
    out.set("train.fit_s", timed::setup_median(timings, |t| t.fit_s));
    out.set(
        "supervisor.calibrate_s",
        timed::setup_median(timings, |t| t.calibrate_s),
    );
    out.set(
        "host.steal_share",
        stats::steal_share(jiffies, stats::cpu_jiffies()),
    );
    out.set(
        "host.cores",
        std::thread::available_parallelism().map_or(1, |n| n.get()) as f64,
    );
    out.set("batch.threads", deploy::THREADS as f64);
}

/// `persist` round trips of one model.
fn persist_replay(out: &mut Outcome, config: &HdcConfig, features: usize, model: &TrainedModel) {
    let mut bytes = Vec::new();
    let (_, save) = timed(|| {
        for _ in 0..PERSIST_REPLAY {
            bytes.clear();
            persist::save_model(&mut bytes, config, features, model).expect("save to memory");
        }
    });
    let (_, load) = timed(|| {
        for _ in 0..PERSIST_REPLAY {
            black_box(persist::load_model(bytes.as_slice()).expect("checkpoint loads"));
        }
    });
    out.set("persist.checkpoint_us", us(save) / PERSIST_REPLAY as f64);
    out.set("persist.decode_us", us(load) / PERSIST_REPLAY as f64);
}

/// Recovery counters summed over supervisors.
fn recovery<'a>(out: &mut Outcome, all: impl Iterator<Item = &'a RecoveryStats>) {
    let mut sum = RecoveryStats::default();
    for s in all {
        sum.samples_seen += s.samples_seen;
        sum.samples_trusted += s.samples_trusted;
        sum.chunks_inspected += s.chunks_inspected;
        sum.chunks_faulty += s.chunks_faulty;
        sum.bits_changed += s.bits_changed;
    }
    out.set(
        "recovery.chunks_faulty_share",
        stats::ratio(sum.chunks_faulty as f64, sum.chunks_inspected as f64),
    );
    out.set(
        "recovery.trust_rate",
        stats::ratio(sum.samples_trusted as f64, sum.samples_seen as f64),
    );
    out.set("recovery.bits_changed", sum.bits_changed as f64);
}

fn zero(out: &mut Outcome, names: &[&'static str]) {
    for name in names {
        out.set(name, 0.0);
    }
}

/// The untraced and traced rated phases against a running daemon.
struct WirePhases {
    untraced: OpenLoop,
    traced: OpenLoop,
    /// Daemon counters over the untraced phase.
    drained: StatsSnapshot,
    /// The untraced phase's `(offset ns, pool entry)` schedule.
    schedule: Vec<(u64, u32)>,
}

fn wire_phases<E: DrainEngine>(
    handle: &ServerHandle<E>,
    pool: &Pool,
    args: &Args,
    picker: impl Fn(u64) -> Picker,
) -> Result<WirePhases, String> {
    let half = Duration::from_secs(args.seconds) / 2;
    let schedule = timed::schedule(args.seed, args.rate, half, picker(args.seed));
    let before = handle.stats();
    let untraced = wire::open_loop(handle.addr(), pool, &schedule, false).map_err(io)?;
    let after = handle.stats();
    let seed = args.seed ^ SALT_TRACED;
    let traced_plan = timed::schedule(seed, args.rate, half, picker(seed));
    let traced = wire::open_loop(handle.addr(), pool, &traced_plan, true).map_err(io)?;
    timed::check_tally("untraced phase", &untraced.tally)?;
    timed::check_tally("traced phase", &traced.tally)?;
    timed::check_tail(&untraced.latency_ms)?;
    timed::check_tail(&traced.latency_ms)?;
    let drained = StatsSnapshot {
        batches: after.batches - before.batches,
        coalesced: after.coalesced - before.coalesced,
        overloaded: after.overloaded - before.overloaded,
        ..StatsSnapshot::default()
    };
    Ok(WirePhases {
        untraced,
        traced,
        drained,
        schedule,
    })
}

impl WirePhases {
    /// Queries per drained batch, rounded, at least 1.
    fn batch_size(&self) -> usize {
        (stats::ratio(self.drained.coalesced as f64, self.drained.batches as f64).round() as usize)
            .max(1)
    }

    /// The untraced phase's entries cut into drained-size batches.
    fn batches(&self) -> Vec<Vec<u32>> {
        let size = self.batch_size();
        self.schedule
            .chunks(size)
            .filter(|c| c.len() == size)
            .take(BATCH_REPLAY)
            .map(|c| c.iter().map(|&(_, e)| e).collect())
            .collect()
    }

    /// Load generator, daemon counter and ping metrics, plus the codec
    /// and coalescer replays; returns the per-query times (ms) of those
    /// stages for `trace.coverage`.
    fn report(&self, out: &mut Outcome, pool: &Pool) -> f64 {
        let a = &self.untraced;
        let b = &self.traced;
        out.set("loadgen.p99_ms", stats::percentile(&a.latency_ms, 99.0));
        out.set("loadgen.late_ms_p99", stats::percentile(&a.late_ms, 99.0));
        out.set("loadgen.sent", (a.tally.sent + b.tally.sent) as f64);
        out.set(
            "trace.overhead",
            stats::percentile(&b.latency_ms, 50.0) / stats::percentile(&a.latency_ms, 50.0),
        );
        let ping_p50 = if b.ping_ms.is_empty() {
            0.0
        } else {
            stats::median(&b.ping_ms)
        };
        out.set("server.ping_p50_ms", ping_p50);
        out.set(
            "coalescer.batch_mean",
            stats::ratio(self.drained.coalesced as f64, self.drained.batches as f64),
        );
        out.set("coalescer.batches", self.drained.batches as f64);
        out.set("coalescer.shed", self.drained.overloaded as f64);

        // Wire codec: the daemon decodes each request and encodes its result.
        let entries: Vec<usize> = self
            .schedule
            .iter()
            .take(CODEC_REPLAY)
            .map(|&(_, e)| e as usize)
            .collect();
        let lines: Vec<&str> = entries
            .iter()
            .map(|&e| {
                std::str::from_utf8(&pool.lines[e])
                    .expect("ASCII request")
                    .trim_end()
            })
            .collect();
        let (_, decode) = timed(|| {
            for line in &lines {
                black_box(protocol::decode_request(line).expect("request decodes"));
            }
        });
        let responses: Vec<Response> = entries
            .iter()
            .map(|&e| Response::Result {
                id: e as u64,
                label: pool.reference[e].0,
                confidence: f64::from_bits(pool.reference[e].1),
            })
            .collect();
        let (_, encode) = timed(|| {
            for r in &responses {
                black_box(protocol::encode_response(r));
            }
        });
        let n = entries.len() as f64;
        let decode_us = us(decode) / n;
        let encode_us = us(encode) / n;
        out.set("protocol.decode_us", decode_us);
        out.set("protocol.encode_us", encode_us);
        out.set(
            "protocol.request_bytes",
            lines.iter().map(|l| l.len() + 1).sum::<usize>() as f64 / n,
        );

        let (wait_p50, wait_mean) = replay_coalescer(&self.schedule);
        out.set("coalescer.wait_ms_p50", wait_p50);
        (decode_us + encode_us) / 1e3 + wait_mean + stats::mean(&b.ping_ms)
    }
}

/// Replays the arrival schedule through a bare [`Coalescer`] with the
/// daemon's tuning: one thread submits on schedule, this one drains.
/// Returns the p50 and mean submit-to-drain wait, ms.
fn replay_coalescer(schedule: &[(u64, u32)]) -> (f64, f64) {
    let limit = COALESCER_REPLAY.as_nanos() as u64;
    let arrivals: Vec<u64> = schedule
        .iter()
        .map(|&(at, _)| at)
        .take_while(|&at| at < limit)
        .collect();
    let coalescer = Coalescer::new(deploy::serve_config());
    let t0 = Instant::now() + Duration::from_millis(10);
    let mut waits = Vec::with_capacity(arrivals.len());
    std::thread::scope(|s| {
        s.spawn(|| {
            for (i, &at) in arrivals.iter().enumerate() {
                let due = t0 + Duration::from_nanos(at);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let _ = coalescer.submit(vec![i as f64]);
            }
            coalescer.begin_drain();
        });
        while let Some(batch) = coalescer.next_batch() {
            let now = Instant::now();
            for q in batch {
                let due = t0 + Duration::from_nanos(arrivals[q.features[0] as usize]);
                waits.push(ms(now.saturating_duration_since(due)));
            }
        }
    });
    waits.sort_by(f64::total_cmp);
    if waits.is_empty() {
        return (0.0, 0.0);
    }
    (stats::percentile(&waits, 50.0), stats::mean(&waits))
}

/// Replays batches through `DrainEngine::serve_pending`; returns per-batch
/// times.
fn engine_replay<E: DrainEngine>(
    engine: &mut E,
    batches: &[Vec<u32>],
    query: impl Fn(u32) -> (Option<String>, Vec<f64>),
) -> Vec<Duration> {
    batches
        .iter()
        .map(|batch| {
            let (tx, _rx) = mpsc::channel();
            let pending: Vec<PendingQuery> = batch
                .iter()
                .map(|&e| {
                    let (model, features) = query(e);
                    PendingQuery {
                        model,
                        features,
                        answer_tx: tx.clone(),
                    }
                })
                .collect();
            timed(|| black_box(engine.serve_pending(&pending))).1
        })
        .collect()
}

fn engine_metrics(out: &mut Outcome, times: &[Duration], per_batch: usize) -> f64 {
    let batch_ms: Vec<f64> = times.iter().map(|&d| ms(d)).collect();
    out.set("engine.batch_ms_p50", stats::median(&batch_ms));
    out.set(
        "engine.us_per_query",
        stats::mean(&batch_ms) * 1e3 / per_batch as f64,
    );
    stats::mean(&batch_ms)
}

/// Encodes, scores and supervises one group of rows (one tenant's share of
/// a batch): returns the encode, score and supervisor-own times and the
/// verdict.
fn layer_replay(
    batch: &BatchEngine,
    encoder: &RecordEncoder,
    model: &mut TrainedModel,
    supervisor: &mut ResilienceSupervisor,
    beta: f64,
    rows: &[&[f64]],
) -> (Duration, Duration, Duration, HealthVerdict) {
    let (encoded, encode) = timed(|| batch.encode_batch(encoder, rows));
    let (_, score) = timed(|| black_box(batch.evaluate_batch(model, &encoded, beta)));
    let (report, serve) = timed(|| supervisor.serve_raw_batch(encoder, model, rows));
    // The supervisor's own share: its serve call minus the fused scoring
    // of the same rows.
    let (_, fused) = timed(|| black_box(batch.evaluate_raw_batch(encoder, model, rows, beta)));
    (encode, score, serve.saturating_sub(fused), report.verdict)
}

/// Sums of [`layer_replay`] over a run's batches.
#[derive(Default)]
struct Layers {
    queries: usize,
    batches: usize,
    groups: usize,
    degraded: usize,
    encode: Duration,
    score: Duration,
    supervisor: Duration,
}

impl Layers {
    fn add(
        &mut self,
        (encode, score, supervisor, verdict): (Duration, Duration, Duration, HealthVerdict),
        rows: usize,
    ) {
        self.queries += rows;
        self.groups += 1;
        self.degraded += usize::from(verdict == HealthVerdict::Degraded);
        self.encode += encode;
        self.score += score;
        self.supervisor += supervisor;
    }

    fn report(&self, out: &mut Outcome, classes: usize) {
        let q = self.queries.max(1) as f64;
        out.set("encoding.us_per_query", us(self.encode) / q);
        out.set("similarity.us_per_query", us(self.score) / q);
        // Computed, not measured: every class vector is read once per query.
        out.set(
            "similarity.bytes_per_query",
            (classes * deploy::DIM / 8) as f64,
        );
        out.set(
            "supervisor.self_us_per_batch",
            us(self.supervisor) / self.batches.max(1) as f64,
        );
        out.set(
            "supervisor.degraded_share",
            stats::ratio(self.degraded as f64, self.groups as f64),
        );
    }
}

pub fn solo(args: &Args) -> Result<Outcome, String> {
    let jiffies = stats::cpu_jiffies();
    let data = Ucihar::generate();
    let (handle, timings, pool) = timed::solo_setups(&data)?;
    let phases = wire_phases(&handle, &pool, args, timed::solo_picker)?;
    let (engine, _) = handle.shutdown();
    let mut engine = engine.ok_or("the daemon's drain thread panicked")?;
    let mut out = Outcome {
        attempted: phases.untraced.tally.sent + phases.traced.tally.sent,
        failed: 0,
        metrics: Vec::new(),
    };
    common(&mut out, &timings, jiffies);
    out.set(
        "server.ready_s",
        timed::setup_median(&timings, |t| t.ready_s),
    );
    let front = phases.report(&mut out, &pool);

    let batches = phases.batches();
    let size = phases.batch_size();
    let rows = |e: u32| data.pool_rows[e as usize].clone();
    let times = engine_replay(&mut engine, &batches, |e| (None, rows(e)));
    let engine_ms = engine_metrics(&mut out, &times, size);
    let supervisor = engine.supervisor_mut();
    out.set("supervisor.escalations", supervisor.escalations() as f64);
    out.set("supervisor.rollbacks", supervisor.rollbacks() as f64);
    recovery(&mut out, std::iter::once(supervisor.recovery_stats()));

    let mut d = deploy::deploy_ucihar(&data);
    let batch = BatchEngine::new(deploy::batch_config());
    let beta = data.config.softmax_beta;
    let mut layers = Layers::default();
    for entries in &batches {
        let rows: Vec<&[f64]> = entries
            .iter()
            .map(|&e| data.pool_rows[e as usize].as_slice())
            .collect();
        let spans = layer_replay(
            &batch,
            &d.encoder,
            &mut d.model,
            &mut d.supervisor,
            beta,
            &rows,
        );
        layers.add(spans, rows.len());
        layers.batches += 1;
    }
    layers.report(&mut out, data.classes());
    persist_replay(&mut out, &data.config, data.features(), &d.model);
    zero(
        &mut out,
        &[
            "fleet.rehydrations_per_kq",
            "fleet.evictions_per_kq",
            "fleet.hit_ratio",
            "fleet.route_us_per_query",
            "fleet.resident_bytes",
        ],
    );
    out.set(
        "trace.coverage",
        (front + engine_ms) / stats::mean(&phases.untraced.latency_ms),
    );
    Ok(out)
}

/// A standalone replica of one tenant's supervised path, as the fleet
/// differential suite builds it.
struct Replica {
    encoder: RecordEncoder,
    model: TrainedModel,
    supervisor: ResilienceSupervisor,
    beta: f64,
}

fn replicas(
    tenants: &[Tenant],
    trained: Vec<(TrainedModel, Vec<BinaryHypervector>)>,
) -> Vec<Replica> {
    tenants
        .iter()
        .zip(trained)
        .map(|(tenant, (model, canaries))| {
            let (recovery, policy) = deploy::supervision();
            let mut supervisor =
                ResilienceSupervisor::new(&tenant.config, recovery, policy, deploy::FLEET_FEATURES);
            supervisor.set_batch_config(deploy::batch_config());
            supervisor.calibrate(&model, &canaries);
            Replica {
                encoder: RecordEncoder::new(&tenant.config, deploy::FLEET_FEATURES),
                model,
                supervisor,
                beta: tenant.config.softmax_beta,
            }
        })
        .collect()
}

pub fn fleet(args: &Args) -> Result<Outcome, String> {
    let jiffies = stats::cpu_jiffies();
    let tenants = deploy::fleet_tenants();
    let (handle, timings, pool, at_start) = timed::fleet_setups(&tenants)?;
    let phases = wire_phases(&handle, &pool, args, |seed| {
        timed::fleet_picker(seed, &tenants)
    })?;
    let (engine, _) = handle.shutdown();
    let mut engine = engine.ok_or("the daemon's drain thread panicked")?;
    let mut out = Outcome {
        attempted: phases.untraced.tally.sent + phases.traced.tally.sent,
        failed: 0,
        metrics: Vec::new(),
    };
    common(&mut out, &timings, jiffies);
    out.set(
        "server.ready_s",
        timed::setup_median(&timings, |t| t.ready_s),
    );
    let front = phases.report(&mut out, &pool);

    // Pool entry → (tenant index, row index).
    let per_tenant = tenants[0].pool_rows.len();
    let locate = |e: u32| (e as usize / per_tenant, e as usize % per_tenant);
    let batches = phases.batches();
    let size = phases.batch_size();
    let times = engine_replay(&mut engine, &batches, |e| {
        let (t, r) = locate(e);
        (Some(tenants[t].id.clone()), tenants[t].pool_rows[r].clone())
    });
    let engine_ms = engine_metrics(&mut out, &times, size);

    let mut registry: ModelRegistry = engine.into_registry();
    let end = registry.stats();
    let served = (phases.untraced.tally.results + phases.traced.tally.results) as f64;
    out.set(
        "fleet.rehydrations_per_kq",
        (end.rehydrations - at_start.rehydrations) as f64 * 1e3 / served,
    );
    out.set(
        "fleet.evictions_per_kq",
        (end.evictions - at_start.evictions) as f64 * 1e3 / served,
    );
    out.set("fleet.resident_bytes", end.resident_bytes as f64);
    let ids: Vec<String> = registry
        .tenant_ids()
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
    out.set(
        "supervisor.escalations",
        ids.iter()
            .filter_map(|id| registry.supervisor(id))
            .map(|s| s.escalations())
            .sum::<usize>() as f64,
    );
    out.set(
        "supervisor.rollbacks",
        ids.iter()
            .filter_map(|id| registry.supervisor(id))
            .map(|s| s.rollbacks())
            .sum::<usize>() as f64,
    );
    recovery(
        &mut out,
        ids.iter()
            .filter_map(|id| registry.supervisor(id))
            .map(ResilienceSupervisor::recovery_stats),
    );

    // Routing and residency, replayed on the daemon's own registry.
    let mut hits = 0usize;
    let mut accesses = 0usize;
    let mut route = Duration::ZERO;
    for entries in &batches {
        let queries: Vec<(&str, &[f64])> = entries
            .iter()
            .map(|&e| {
                let (t, r) = locate(e);
                (tenants[t].id.as_str(), tenants[t].pool_rows[r].as_slice())
            })
            .collect();
        let mut distinct: Vec<&str> = queries.iter().map(|&(id, _)| id).collect();
        distinct.sort_unstable();
        distinct.dedup();
        accesses += distinct.len();
        hits += distinct
            .iter()
            .filter(|id| registry.is_resident(id))
            .count();
        let (answers, took) = timed(|| registry.route_batch(&queries));
        answers.map_err(|e| e.to_string())?;
        route += took;
    }
    out.set(
        "fleet.hit_ratio",
        stats::ratio(hits as f64, accesses as f64),
    );
    out.set(
        "fleet.route_us_per_query",
        us(route) / (batches.len() * size).max(1) as f64,
    );

    // Encode, score and supervise each batch's tenant groups on replicas.
    let (_, trained, _) = deploy::deploy_fleet(&tenants);
    persist_replay(
        &mut out,
        &tenants[0].config,
        deploy::FLEET_FEATURES,
        &trained[0].0,
    );
    let mut replicas = replicas(&tenants, trained);
    let batch = BatchEngine::new(deploy::batch_config());
    let mut layers = Layers::default();
    for entries in &batches {
        let mut groups: Vec<(usize, Vec<&[f64]>)> = Vec::new();
        for &e in entries {
            let (t, r) = locate(e);
            let row = tenants[t].pool_rows[r].as_slice();
            match groups.iter_mut().find(|(g, _)| *g == t) {
                Some((_, rows)) => rows.push(row),
                None => groups.push((t, vec![row])),
            }
        }
        for (t, rows) in groups {
            let r = &mut replicas[t];
            let spans = layer_replay(
                &batch,
                &r.encoder,
                &mut r.model,
                &mut r.supervisor,
                r.beta,
                &rows,
            );
            layers.add(spans, rows.len());
        }
        layers.batches += 1;
    }
    layers.report(&mut out, deploy::FLEET_CLASSES);
    out.set(
        "trace.coverage",
        (front + engine_ms) / stats::mean(&phases.untraced.latency_ms),
    );
    Ok(out)
}

pub fn recovery_soak(args: &Args) -> Result<Outcome, String> {
    let jiffies = stats::cpu_jiffies();
    let (soak, timings) = timed::soak_setups();
    let half = Duration::from_secs(args.seconds) / 2;
    let rate = args.rate / soak::BATCH as f64;
    let untraced = soak::paced(&soak, rate, half, args.seed, false);
    let traced = soak::paced(&soak, rate, half, args.seed ^ SALT_TRACED, true);
    let laps: Vec<_> = untraced.laps.iter().chain(&traced.laps).cloned().collect();
    timed::check_laps(&laps)?;
    timed::check_tail(&untraced.latency_ms)?;
    let mut out = Outcome {
        attempted: laps.iter().map(|l| l.served).sum(),
        failed: 0,
        metrics: Vec::new(),
    };
    common(&mut out, &timings, jiffies);
    out.set(
        "loadgen.late_ms_p99",
        if untraced.late_ms.is_empty() {
            0.0
        } else {
            stats::percentile(&untraced.late_ms, 99.0)
        },
    );
    out.set(
        "loadgen.p99_ms",
        stats::percentile(&untraced.latency_ms, 99.0),
    );
    out.set("loadgen.sent", out.attempted as f64);
    out.set(
        "trace.overhead",
        stats::percentile(&traced.latency_ms, 50.0) / stats::percentile(&untraced.latency_ms, 50.0),
    );

    // One lap replayed with the scoring pass timed apart from the serve.
    let beta = soak.data.config.softmax_beta;
    let mut lap = soak.lap();
    let mut score = Duration::ZERO;
    let mut serve = Duration::ZERO;
    while !lap.done() {
        lap.inject();
        let queries = &soak.batches[lap.next];
        let (_, s) = timed(|| {
            black_box(
                lap.supervisor
                    .batch_engine()
                    .evaluate_batch(&lap.model, queries, beta),
            )
        });
        score += s;
        serve += timed(|| lap.serve()).1;
    }
    let batches = soak::LAP_BATCHES as f64;
    let score_us = us(score) / batches;
    let self_us = us(serve.saturating_sub(score)) / batches;
    out.set("similarity.us_per_query", score_us / soak::BATCH as f64);
    out.set(
        "similarity.bytes_per_query",
        (soak.data.classes() * deploy::DIM / 8) as f64,
    );
    out.set("supervisor.self_us_per_batch", self_us);
    out.set(
        "supervisor.degraded_share",
        lap.tally.degraded as f64 / batches,
    );
    out.set("supervisor.escalations", lap.tally.escalations as f64);
    out.set("supervisor.rollbacks", lap.tally.rollbacks as f64);
    recovery(&mut out, std::iter::once(lap.supervisor.recovery_stats()));
    persist_replay(
        &mut out,
        &soak.data.config,
        soak.data.features(),
        &soak.model,
    );
    // The traced phase's serve spans cover both layers of this path.
    let served_ms: Vec<f64> = traced.spans.iter().map(|&(s, e)| ms(e - s)).collect();
    out.set(
        "trace.coverage",
        stats::mean(&served_ms) / stats::mean(&untraced.latency_ms),
    );
    // Pre-encoded and in-process: no wire, daemon, coalescer, drain
    // engine, query encoding or fleet on this path.
    zero(
        &mut out,
        &[
            "protocol.decode_us",
            "protocol.encode_us",
            "protocol.request_bytes",
            "server.ping_p50_ms",
            "server.ready_s",
            "coalescer.wait_ms_p50",
            "coalescer.batch_mean",
            "coalescer.batches",
            "coalescer.shed",
            "engine.batch_ms_p50",
            "engine.us_per_query",
            "encoding.us_per_query",
            "fleet.rehydrations_per_kq",
            "fleet.evictions_per_kq",
            "fleet.hit_ratio",
            "fleet.route_us_per_query",
            "fleet.resident_bytes",
        ],
    );
    Ok(out)
}
