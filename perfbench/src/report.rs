//! Metric names, units and the one-line JSON result.
//!
//! The two tables below are the benchmark's contract with
//! `BENCHMARK.json`; a test keeps them equal.

use std::fmt::Write as _;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("capacity_qps", "q/s"),
    ("accuracy", "ratio"),
    ("answered_share", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run. A layer the workload's
/// serving path does not run reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("protocol.decode_us", "us"),
    ("protocol.encode_us", "us"),
    ("protocol.request_bytes", "bytes"),
    ("server.ping_p50_ms", "ms"),
    ("server.ready_s", "s"),
    ("coalescer.wait_ms_p50", "ms"),
    ("coalescer.batch_mean", "queries"),
    ("coalescer.batches", "count"),
    ("coalescer.shed", "count"),
    ("engine.batch_ms_p50", "ms"),
    ("engine.us_per_query", "us"),
    ("encoding.us_per_query", "us"),
    ("encoding.train_s", "s"),
    ("similarity.us_per_query", "us"),
    ("similarity.bytes_per_query", "bytes"),
    ("supervisor.self_us_per_batch", "us"),
    ("supervisor.degraded_share", "ratio"),
    ("supervisor.escalations", "count"),
    ("supervisor.rollbacks", "count"),
    ("supervisor.calibrate_s", "s"),
    ("recovery.chunks_faulty_share", "ratio"),
    ("recovery.trust_rate", "ratio"),
    ("recovery.bits_changed", "count"),
    ("fleet.rehydrations_per_kq", "1/kq"),
    ("fleet.evictions_per_kq", "1/kq"),
    ("fleet.hit_ratio", "ratio"),
    ("fleet.route_us_per_query", "us"),
    ("fleet.resident_bytes", "bytes"),
    ("persist.decode_us", "us"),
    ("persist.checkpoint_us", "us"),
    ("train.fit_s", "s"),
    ("loadgen.p99_ms", "ms"),
    ("loadgen.late_ms_p99", "ms"),
    ("loadgen.sent", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
    ("host.steal_share", "ratio"),
    ("host.cores", "count"),
    ("batch.threads", "count"),
];

/// A run that passed its correctness gate.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// The result line: every metric of `table` by name with its unit.
    ///
    /// # Errors
    ///
    /// A metric of the table that the run did not produce, produced twice,
    /// or produced as a non-finite number.
    pub fn render(&self, table: &[(&str, &str)]) -> Result<String, String> {
        if self.attempted == 0 {
            return Err("no request was attempted".to_owned());
        }
        let mut out = format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, (name, unit)) in table.iter().enumerate() {
            let mut values = self.metrics.iter().filter(|(n, _)| n == name);
            let value = match (values.next(), values.next()) {
                (Some(&(_, v)), None) if v.is_finite() => v,
                (None, _) => return Err(format!("metric {name} was not measured")),
                (Some(&(_, v)), None) => return Err(format!("metric {name} is {v}")),
                (Some(_), Some(_)) => return Err(format!("metric {name} was measured twice")),
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use robusthd_serve::json::{self, Json};

    fn names_units(table: &Json) -> Vec<(String, String)> {
        table
            .as_array()
            .expect("metric table is an array")
            .iter()
            .map(|m| {
                (
                    m.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_owned(),
                    m.get("unit")
                        .and_then(Json::as_str)
                        .expect("unit")
                        .to_owned(),
                )
            })
            .collect()
    }

    fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect()
    }

    #[test]
    fn tables_match_benchmark_json() {
        let spec = json::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let e2e = spec.get("end_to_end").expect("end_to_end");
        let layers = spec.get("per_layer").expect("per_layer");
        assert_eq!(names_units(e2e), owned(END_TO_END));
        assert_eq!(names_units(layers), owned(PER_LAYER));
        let workloads = spec
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads");
        assert!(workloads.len() >= 2);
        for w in workloads {
            let name = w.get("name").and_then(Json::as_str).expect("name");
            assert!(crate::WORKLOADS.contains(&name), "{name} is not a workload");
        }
    }

    #[test]
    fn every_metric_is_printed_with_its_unit() {
        for table in [END_TO_END, PER_LAYER] {
            let mut outcome = Outcome {
                attempted: 10,
                failed: 1,
                metrics: Vec::new(),
            };
            for (i, (name, _)) in table.iter().enumerate() {
                outcome.set(name, i as f64 + 0.5);
            }
            let line = outcome.render(table).expect("renders");
            let parsed = json::parse(&line).expect("result line is JSON");
            assert_eq!(parsed.get("attempted").and_then(Json::as_u64), Some(10));
            assert_eq!(parsed.get("failed").and_then(Json::as_u64), Some(1));
            assert_eq!(parsed.get("correct").and_then(Json::as_bool), Some(true));
            let metrics = parsed.get("metrics").expect("metrics");
            for (i, (name, unit)) in table.iter().enumerate() {
                let m = metrics.get(name).expect("metric printed");
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit));
                assert_eq!(m.get("value").and_then(Json::as_f64), Some(i as f64 + 0.5));
            }
        }
    }

    #[test]
    fn a_missing_or_doubled_metric_is_refused() {
        let mut outcome = Outcome {
            attempted: 1,
            failed: 0,
            metrics: vec![("setup_s", 1.0)],
        };
        assert!(outcome.render(END_TO_END).is_err());
        for (name, _) in END_TO_END {
            outcome.set(name, 1.0);
        }
        assert!(outcome.render(END_TO_END).unwrap_err().contains("twice"));
    }
}
