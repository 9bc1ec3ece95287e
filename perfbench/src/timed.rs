//! The untraced runs that produce the end-to-end metrics.
//!
//! Every run sets its deployment up [`SETUPS`] times, then runs [`ROUNDS`]
//! rounds, each a rated sub-phase (open loop at the workload's fixed rate:
//! `p50_ms`, `p90_ms`) followed by a saturated one (`capacity_qps`) and one
//! more set-up of a deployment that is then dropped. `setup_s` is the
//! median over all set-ups, so they sample the host over the whole run,
//! as the rounds do. Answers are checked throughout; a failed check ends
//! the run with an error and no numbers.

use crate::deploy::{self, SetupTimings, Tenant, Ucihar};
use crate::report::Outcome;
use crate::soak::{self, LapTally, Soak};
use crate::stats::{self, Picker};
use crate::wire::{self, Pool};
use crate::Args;
use robusthd_serve::{FleetEngine, ServeEngine, ServerHandle};
use std::time::Duration;

/// Set-ups at the start of a run; the first deployment becomes the
/// reference engine, the last serves the run.
pub const SETUPS: usize = 3;
/// Requests in flight in the saturated wire phase: twice `max_batch`, so
/// every drained batch is full.
pub const DEPTH: usize = 128;
/// The tail percentile reported as `p90_ms`, and the samples each rated
/// sub-phase must leave beyond it.
pub const TAIL: f64 = 90.0;
const TAIL_SAMPLES: usize = 10;

/// Seed salt, so the saturated sub-phases draw their own stream from
/// `--seed`.
const SALT_CAPACITY: u64 = 0xCA9A_C17E;

pub fn setup_median(timings: &[SetupTimings], stage: fn(&SetupTimings) -> f64) -> f64 {
    stats::median(&timings.iter().map(stage).collect::<Vec<_>>())
}

fn io(e: std::io::Error) -> String {
    format!("i/o: {e}")
}

/// The rated open-loop schedule: Poisson arrivals at `rate` q/s, entries
/// from `picker`.
pub fn schedule(seed: u64, rate: f64, duration: Duration, mut picker: Picker) -> Vec<(u64, u32)> {
    stats::poisson_schedule(seed, rate, duration)
        .into_iter()
        .map(|at| (at, picker.next_index()))
        .collect()
}

/// Solo: [`SETUPS`] daemons; all but the last are shut down, the first's
/// engine answers the reference queries (between set-ups, then dropped),
/// the last serves the run.
pub fn solo_setups(data: &Ucihar) -> Result<(ServerHandle, Vec<SetupTimings>, Pool), String> {
    let mut timings = Vec::new();
    let mut pool = None;
    loop {
        let (handle, t) = deploy::start_solo(data).map_err(io)?;
        timings.push(t);
        if timings.len() == SETUPS {
            return Ok((handle, timings, pool.ok_or("no reference engine")?));
        }
        let (engine, _) = handle.shutdown();
        if pool.is_none() {
            let mut engine = engine.ok_or("a set-up daemon's drain thread panicked")?;
            pool = Some(solo_pool(data, &mut engine));
        }
    }
}

fn solo_pool(data: &Ucihar, reference: &mut ServeEngine) -> Pool {
    let rows: Vec<(Option<String>, &[f64])> = data
        .pool_rows
        .iter()
        .map(|r| (None, r.as_slice()))
        .collect();
    let answers: Vec<_> = deploy::refs(&data.pool_rows)
        .chunks(64)
        .flat_map(|chunk| reference.serve(chunk))
        .map(|a| (a.label, a.confidence.to_bits()))
        .collect();
    Pool::new(&rows, data.pool_labels.clone(), answers)
}

pub fn solo_picker(seed: u64) -> Picker {
    Picker::new(seed, &[(String::new(), 0, deploy::POOL as u32)], 0.0)
}

/// Fleet: as [`solo_setups`]; the reference answers come from the first
/// registry's plain scoring path (`ModelRegistry::route_batch`).
pub fn fleet_setups(
    tenants: &[Tenant],
) -> Result<
    (
        ServerHandle<FleetEngine>,
        Vec<SetupTimings>,
        Pool,
        robusthd::FleetStats,
    ),
    String,
> {
    let mut timings = Vec::new();
    let mut pool = None;
    loop {
        let (handle, t, stats) = deploy::start_fleet(tenants).map_err(io)?;
        timings.push(t);
        if timings.len() == SETUPS {
            return Ok((handle, timings, pool.ok_or("no reference engine")?, stats));
        }
        let (engine, _) = handle.shutdown();
        if pool.is_none() {
            let engine = engine.ok_or("a set-up daemon's drain thread panicked")?;
            pool = Some(fleet_pool(tenants, engine)?);
        }
    }
}

fn fleet_pool(tenants: &[Tenant], reference: FleetEngine) -> Result<Pool, String> {
    let mut registry = reference.into_registry();
    let rows: Vec<(Option<String>, &[f64])> = tenants
        .iter()
        .flat_map(|t| {
            t.pool_rows
                .iter()
                .map(|r| (Some(t.id.clone()), r.as_slice()))
        })
        .collect();
    let truth = tenants
        .iter()
        .flat_map(|t| t.pool_labels.iter().copied())
        .collect();
    let mut answers = Vec::with_capacity(rows.len());
    for chunk in rows.chunks(64) {
        let queries: Vec<(&str, &[f64])> = chunk
            .iter()
            .map(|(id, r)| (id.as_deref().unwrap_or_default(), *r))
            .collect();
        let routed = registry.route_batch(&queries).map_err(|e| e.to_string())?;
        answers.extend(routed.iter().map(|a| (a.label, a.confidence.to_bits())));
    }
    Ok(Pool::new(&rows, truth, answers))
}

pub fn fleet_picker(seed: u64, tenants: &[Tenant]) -> Picker {
    let mut start = 0u32;
    let groups: Vec<_> = tenants
        .iter()
        .map(|t| {
            let entries = t.pool_rows.len() as u32;
            start += entries;
            (t.id.clone(), start - entries, entries)
        })
        .collect();
    Picker::new(seed, &groups, deploy::ZIPF)
}

/// Checks a wire tally: answers in order, every answer equal to the
/// reference engine's.
pub fn check_tally(phase: &str, tally: &wire::Tally) -> Result<(), String> {
    if tally.out_of_order > 0 {
        return Err(format!(
            "{phase}: {} answers out of order",
            tally.out_of_order
        ));
    }
    if tally.mismatches > 0 {
        return Err(format!(
            "{phase}: {} answers differ from the reference engine",
            tally.mismatches
        ));
    }
    Ok(())
}

/// A rated phase must leave at least ten samples beyond its tail
/// percentile.
pub fn check_tail(latency_ms: &[f64]) -> Result<(), String> {
    if latency_ms.is_empty() || stats::beyond(latency_ms, TAIL) < TAIL_SAMPLES {
        return Err(format!(
            "{} latency samples leave fewer than {TAIL_SAMPLES} beyond p{TAIL}",
            latency_ms.len()
        ));
    }
    Ok(())
}

/// Accuracy must stay well above chance, or the deployment is broken.
fn check_accuracy(accuracy: f64, floor: f64) -> Result<(), String> {
    if accuracy < floor {
        return Err(format!("accuracy {accuracy} is below {floor}"));
    }
    Ok(())
}

/// Rated and saturated sub-phases alternate, half a round each, so both
/// sample the host over the whole run; each metric is the median over the
/// rounds, which a burst of host noise shorter than a round cannot move.
pub const ROUNDS: u32 = 16;

/// Length of each sub-phase.
fn slice(seconds: u64) -> Duration {
    Duration::from_secs(seconds) / (2 * ROUNDS)
}

/// The `round`th sub-phase's seed.
fn round_seed(seed: u64, round: u64) -> u64 {
    seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Per-phase request counts, on standard error.
fn report_phase(phase: &str, tally: &wire::Tally) {
    eprintln!(
        "{phase} phase: sent {} answered {} failed {} (overloaded {}, error {}, never answered {})",
        tally.sent,
        tally.results,
        tally.sent - tally.results,
        tally.overloaded,
        tally.errors,
        tally.sent - tally.results - tally.overloaded - tally.errors,
    );
}

/// A set-up between rounds: a second daemon started (alongside the idle
/// one serving the run), pinged, and shut down.
fn extra_setup<E: robusthd_serve::DrainEngine>(
    start: impl FnOnce() -> std::io::Result<(ServerHandle<E>, SetupTimings)>,
) -> Result<SetupTimings, String> {
    let (handle, timings) = start().map_err(io)?;
    handle
        .shutdown()
        .0
        .ok_or("a set-up daemon's drain thread panicked")?;
    Ok(timings)
}

/// Median over rounds of each rated round's nearest-rank percentile.
fn median_percentile(rounds: &[Vec<f64>], p: f64) -> f64 {
    let per_round: Vec<f64> = rounds.iter().map(|l| stats::percentile(l, p)).collect();
    stats::median(&per_round)
}

fn wire_run<E: robusthd_serve::DrainEngine>(
    handle: &ServerHandle<E>,
    pool: &Pool,
    args: &Args,
    mut timings: Vec<SetupTimings>,
    picker: impl Fn(u64) -> Picker,
    setup: impl Fn() -> Result<SetupTimings, String>,
) -> Result<Outcome, String> {
    let slice = slice(args.seconds);
    let mut rated_total = wire::Tally::default();
    let mut saturated_total = wire::Tally::default();
    let mut latencies = Vec::new();
    let mut capacities = Vec::new();
    for round in 0..u64::from(ROUNDS) {
        let seed = round_seed(args.seed, round);
        let plan = schedule(seed, args.rate, slice, picker(seed));
        let rated = wire::open_loop(handle.addr(), pool, &plan, false).map_err(io)?;
        check_tally("rated phase", &rated.tally)?;
        check_tail(&rated.latency_ms)?;
        let seed = seed ^ SALT_CAPACITY;
        let capacity =
            wire::fixed_depth(handle.addr(), pool, &picker(seed), DEPTH, slice).map_err(io)?;
        check_tally("saturated phase", &capacity.tally)?;
        rated_total.add(&rated.tally);
        saturated_total.add(&capacity.tally);
        latencies.push(rated.latency_ms);
        capacities.push(capacity.qps);
        timings.push(setup()?);
    }
    report_phase("rated", &rated_total);
    report_phase("saturated", &saturated_total);
    let mut total = rated_total;
    total.add(&saturated_total);
    let accuracy = stats::ratio(total.correct as f64, total.sent as f64);
    check_accuracy(accuracy, 0.5)?;
    let mut out = Outcome {
        attempted: total.sent,
        failed: total.sent - total.results,
        metrics: Vec::new(),
    };
    out.set("setup_s", setup_median(&timings, |t| t.total_s));
    out.set("p50_ms", median_percentile(&latencies, 50.0));
    out.set("p90_ms", median_percentile(&latencies, TAIL));
    out.set("capacity_qps", stats::median(&capacities));
    out.set("accuracy", accuracy);
    out.set(
        "answered_share",
        1.0 - stats::failed_share(total.sent, total.results),
    );
    out.set(
        "peak_rss_mb",
        stats::peak_rss_mb().ok_or("no /proc/self/status")?,
    );
    Ok(out)
}

pub fn solo(args: &Args) -> Result<Outcome, String> {
    let data = Ucihar::generate();
    let (handle, timings, pool) = solo_setups(&data)?;
    let out = wire_run(&handle, &pool, args, timings, solo_picker, || {
        extra_setup(|| deploy::start_solo(&data))
    });
    drop(handle.shutdown());
    out
}

pub fn fleet(args: &Args) -> Result<Outcome, String> {
    let tenants = deploy::fleet_tenants();
    let (handle, timings, pool, _) = fleet_setups(&tenants)?;
    let out = wire_run(
        &handle,
        &pool,
        args,
        timings,
        |seed| fleet_picker(seed, &tenants),
        || extra_setup(|| deploy::start_fleet(&tenants).map(|(h, t, _)| (h, t))),
    );
    drop(handle.shutdown());
    out
}

/// Soak set-up: [`SETUPS`] trained and calibrated deployments.
pub fn soak_setups() -> (Soak, Vec<SetupTimings>) {
    let data = Ucihar::generate();
    let mut timings = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        // Drop the previous deployment first: one is alive at a time, as
        // in a process that starts once.
        drop(last.take());
        let deployment = deploy::deploy_ucihar(&data);
        timings.push(deployment.timings);
        last = Some(deployment);
    }
    let last = last.expect("at least one set-up");
    (Soak::new(data, last), timings)
}

/// Every lap must repeat the first exactly, and batch 0 must match the
/// bare engine.
pub fn check_laps(laps: &[LapTally]) -> Result<(), String> {
    let first = laps.first().ok_or("no lap completed")?;
    if first.mismatches > 0 {
        return Err(format!(
            "{} clean-model answers differ from the bare engine",
            first.mismatches
        ));
    }
    if let Some(lap) = laps.iter().find(|l| *l != first) {
        return Err(format!("laps diverged: {first:?} then {lap:?}"));
    }
    Ok(())
}

pub fn recovery_soak(args: &Args) -> Result<Outcome, String> {
    let (soak, mut timings) = soak_setups();
    let batches_hz = args.rate / soak::BATCH as f64;
    let slice = slice(args.seconds);
    let mut laps = Vec::new();
    let mut latencies = Vec::new();
    let mut capacities = Vec::new();
    for round in 0..u64::from(ROUNDS) {
        let seed = round_seed(args.seed, round);
        let rated = soak::paced(&soak, batches_hz, slice, seed, false);
        check_tail(&rated.latency_ms)?;
        let (qps, capacity_laps) = soak::back_to_back(&soak, slice);
        laps.extend(rated.laps);
        laps.extend(capacity_laps);
        latencies.push(rated.latency_ms);
        capacities.push(qps);
        timings.push(deploy::deploy_ucihar(&soak.data).timings);
    }
    check_laps(&laps)?;
    let lap = &laps[0];
    let per_lap = soak::LAP_BATCHES * soak::BATCH;
    let accuracy = stats::ratio(lap.correct as f64, per_lap as f64);
    check_accuracy(accuracy, 0.3)?;
    let queries = (laps.len() * per_lap) as u64;
    let served: u64 = laps.iter().map(|l| l.served).sum();
    let mut out = Outcome {
        attempted: queries,
        failed: queries.saturating_sub(served),
        metrics: Vec::new(),
    };
    out.set("setup_s", setup_median(&timings, |t| t.total_s));
    out.set("p50_ms", median_percentile(&latencies, 50.0));
    out.set("p90_ms", median_percentile(&latencies, TAIL));
    out.set("capacity_qps", stats::median(&capacities));
    out.set("accuracy", accuracy);
    out.set(
        "answered_share",
        stats::ratio(served as f64, queries as f64),
    );
    out.set(
        "peak_rss_mb",
        stats::peak_rss_mb().ok_or("no /proc/self/status")?,
    );
    Ok(out)
}
