//! The metric vocabulary (every name the benchmark prints, with its
//! unit), the result line, and the small statistics the workloads share.
//!
//! `BENCHMARK.json` declares the same names; a self-test keeps the two
//! in step.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")];

/// The six protocols' per-protocol execute metrics, in report order.
pub const EXECUTE_BY_PROTOCOL: [&str; 6] = [
    "pn_runtime.execute.port-one_s",
    "pn_runtime.execute.regular-odd_s",
    "pn_runtime.execute.bounded-degree_s",
    "pn_runtime.execute.vertex-cover_s",
    "pn_runtime.execute.id-matching_s",
    "pn_runtime.execute.rand-matching_s",
];

/// Per-layer metrics, printed by every traced run (`--trace 1`). A
/// layer the workload never reaches reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("pn_graph.build_s", "s"),
    ("pn_runtime.setup_s", "s"),
    ("pn_runtime.execute_s", "s"),
    (EXECUTE_BY_PROTOCOL[0], "s"),
    (EXECUTE_BY_PROTOCOL[1], "s"),
    (EXECUTE_BY_PROTOCOL[2], "s"),
    (EXECUTE_BY_PROTOCOL[3], "s"),
    (EXECUTE_BY_PROTOCOL[4], "s"),
    (EXECUTE_BY_PROTOCOL[5], "s"),
    ("pn_runtime.rounds_s", "s"),
    ("pn_runtime.extract_s", "s"),
    ("pn_runtime.rounds", "count"),
    ("pn_runtime.messages", "count"),
    ("pn_runtime.msgs_per_s", "1/s"),
    ("pn_runtime.barrier_waits", "count"),
    ("eds_verify.check_s", "s"),
    ("bounds.provider_s", "s"),
    ("eds_lp.solve_s", "s"),
    ("eds_lp.cert_verify_s", "s"),
    ("bounds.exact_s", "s"),
    ("bounds.fallback_frac", "ratio"),
    ("bounds.lp_tighter_frac", "ratio"),
    ("session.critical_path_s", "s"),
    ("session.shard_util", "ratio"),
    ("sink.emit_s", "s"),
    ("sink.bytes", "bytes"),
    ("churn.materialize_s", "s"),
    ("churn.run_s", "s"),
    ("churn.recovery_rounds", "count"),
    ("churn.repair_messages", "count"),
    ("churn.escalations", "count"),
    ("churn.repair_only_frac", "ratio"),
    ("churn.audits", "count"),
    ("serve.canonical_ms_p50", "ms"),
    ("serve.solve_ms_p50", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.batch_jobs_mean", "count"),
    ("serve.frame_bytes_mean", "bytes"),
    ("serve.http_p50_ms", "ms"),
    ("serve.unix_p50_ms", "ms"),
    ("serve.req_per_s", "1/s"),
    ("serve.latency_p50_ms", "ms"),
    ("serve.latency_tail_ms", "ms"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.miss_p50_ms", "ms"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
];

/// What one run found: the operation counts and the measured values.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.values.entry(name).or_insert(0.0) += value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Counts one failed operation and says why on stderr.
    pub fn fail(&mut self, why: impl AsRef<str>) {
        self.failed += 1;
        eprintln!("perfbench: FAILED: {}", why.as_ref());
    }

    /// The result line: exactly the `declared` metrics (missing values
    /// read 0), each with its unit and every digit as measured.
    pub fn render(&self, declared: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = declared
            .iter()
            .map(|&(name, unit)| {
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    number(self.get(name))
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives.
fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_owned()
    }
}

/// The median of a sample (the mean of the middle pair when even);
/// 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The mean of a sample; 0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// The nearest-rank `p`-th percentile of a sample (0 when empty).
pub fn percentile(values: &[f64], p: usize) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len()).div_ceil(100).clamp(1, v.len());
    v[rank - 1]
}

/// The highest whole percentile that still leaves at least ten samples
/// above it — the tail the choosing-metrics rule allows a sample of
/// `n` to report. `None` below 20 samples, where not even the median
/// qualifies.
pub fn tail_percentile(n: usize) -> Option<usize> {
    (50..=99).rev().find(|&p| n - (p * n).div_ceil(100) >= 10)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
    }

    #[test]
    fn metric_names_and_units_are_well_formed_and_unique() {
        let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER).collect();
        for &&(name, unit) in &all {
            assert!(valid_name(name), "bad metric name {name:?}");
            assert!(valid_unit(unit), "bad unit {unit:?} on {name}");
        }
        let mut names: Vec<&str> = all.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "a metric name is declared twice");
    }

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(500), Some(98));
        assert_eq!(tail_percentile(1000), Some(99));
        for n in 20..3000 {
            let p = tail_percentile(n).unwrap();
            let rank = (p * n).div_ceil(100);
            assert!(n - rank >= 10, "n = {n}: p{p} leaves {} beyond", n - rank);
            if p < 99 {
                let next = ((p + 1) * n).div_ceil(100);
                assert!(n - next < 10, "n = {n}: p{} also qualifies", p + 1);
            }
        }
    }

    #[test]
    fn percentiles_and_medians() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 98), 98.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[4.0, 1.0, 1.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn result_line_has_exactly_the_declared_metrics() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.set("wall_s", 1.25);
        let line = o.render(END_TO_END);
        let v = crate::json::Json::parse(&line).unwrap();
        let crate::json::Json::Obj(top) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let crate::json::Json::Obj(metrics) = &top["metrics"] else {
            panic!("metrics is not an object")
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(
            metrics["wall_s"].get("value"),
            Some(&crate::json::Json::Num(1.25))
        );
        assert_eq!(
            metrics["wall_s"].get("unit").and_then(|u| u.as_str()),
            Some("s")
        );
    }

    #[test]
    fn every_printed_name_is_declared_in_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let spec = crate::json::Json::parse(&text).expect("BENCHMARK.json parses");
        let declared = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(|m| m.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(|n| n.as_str()).unwrap().to_owned(),
                        m.get("unit").and_then(|u| u.as_str()).unwrap().to_owned(),
                    )
                })
                .collect()
        };
        let printed = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_owned(), u.to_owned()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), printed(END_TO_END));
        assert_eq!(declared("per_layer"), printed(PER_LAYER));
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(|w| w.as_array())
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(|n| n.as_str()).unwrap())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }
}
