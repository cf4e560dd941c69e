//! Process facts the benchmark reads from the host: peak resident
//! memory and the library's global telemetry counters.

/// Peak resident set (`VmHWM`) of `pid`, or of this process, in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_owned(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// The value of an unlabelled series in a Prometheus text exposition.
pub fn prometheus_value(text: &str, series: &str) -> Option<f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| l.strip_prefix(series)?.strip_prefix(' '))
        .and_then(|v| v.trim().parse().ok())
}

/// A counter of the process-global `eds-telemetry` registry (0 until the
/// library registers it).
pub fn global_counter(name: &str) -> u64 {
    prometheus_value(&eds_telemetry::global().render(), name).map_or(0, |v| v as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_series_and_memory() {
        let text = "# TYPE a_total counter\na_total 7\nb_total{kind=\"ok\"} 3\nb_sum 2.5\n";
        assert_eq!(prometheus_value(text, "a_total"), Some(7.0));
        assert_eq!(prometheus_value(text, "b_total{kind=\"ok\"}"), Some(3.0));
        assert_eq!(prometheus_value(text, "b_sum"), Some(2.5));
        assert_eq!(prometheus_value(text, "b"), None);
        assert!(peak_rss_mb(None).is_some_and(|mb| mb > 0.0));
    }
}
