//! `bench_diff`: compare two `BENCH_scenarios.json` quality reports and
//! fail on approximation-ratio drift — or, with `--perf`, two builds'
//! `perfbench` runs and fail on a slowdown.
//!
//! Usage:
//!
//! ```text
//! bench_diff BASELINE CURRENT [--tolerance T] [--stats]
//! bench_diff --perf BASE_1,...,BASE_N HEAD_1,...,HEAD_N [--tolerance T]
//! ```
//!
//! Both files are JSON-lines reports written by `scenario_sweep` (one
//! record per line, a trailing summary line). Records are matched by
//! `(scenario, protocol)`; for each pair the *quality measure* is the
//! empirical ratio `size / optimum` when the optimum is known, else
//! `size / lower_bound`. The exit code is non-zero when any of:
//!
//! * a matched record's measure grew by more than the tolerance
//!   (default 0.05) — the approximation quality regressed;
//! * a record present in the baseline is missing from the current
//!   report — coverage regressed;
//! * a record is unclean (feasibility violation or proven bound
//!   violation) in the current report but clean in the baseline;
//! * a matched record's certified `lower_bound` **decreased** — bound
//!   tightness regressed (exact integers, no tolerance): the LP
//!   provider must never certify less than the baseline did. Increases
//!   are reported as tightening, never as failures;
//! * a matched churn record's `escalations` count or `recovery_tier`
//!   **increased** — the same scenario now escalates past repair-only
//!   recovery more (or higher) than it used to, so the incremental
//!   repair path regressed (exact integers, no tolerance). Records
//!   missing the fields on either side — static records, pre-recovery
//!   baselines — are skipped, never failed;
//! * a matched record's `rounds` or `messages` **increased** — the
//!   protocol now runs longer or sends more on the same instance (exact
//!   integers, no tolerance). Both counts are deterministic and are the
//!   paper's cost model. Decreases are counted, never failed.
//!
//! Records only present in the current report (new scenario families,
//! new protocols) are reported but never fail the diff, so the gate
//! stays quiet when coverage grows. CI runs this against the committed
//! baseline, turning silent quality drift into a red build — the trend
//! tracking the ROADMAP asks for.
//!
//! `--stats` publishes the diff tallies (records compared, drift,
//! improvements, bound moves, cost moves, failures) as `bench_diff_*`
//! series in the process-global telemetry registry and dumps it to
//! stderr in the same Prometheus text format `eds-serve` exposes on
//! `/metrics`, so a CI wrapper can scrape the diff outcome without
//! parsing the prose.
//!
//! # `--perf`: the perf-regression gate
//!
//! CI builds the base commit and HEAD on one runner and runs
//! `python3 perfbench/run.py --workload batch_mixed --seed i` on both in
//! N alternating pairs: both runs of pair `i` use seed `i`, and the side
//! that runs first alternates from pair to pair. Each file holds one
//! run's standard output: the `host` line and, last, the result object.
//! `BASE_i` and `HEAD_i` form pair `i`.
//!
//! The gate fails (exit 1) when the median over pairs of HEAD/base
//! `wall_s` exceeds 1 + the tolerance (default 0.06), or when any HEAD
//! run reports `failed > 0`. The median of per-pair ratios, not the best
//! run of each side, is what separates a 25% slower round loop from an
//! unchanged build on a shared 2-core host whose speed drifts between
//! runs (the calibration is in CHANGES.md).
//!
//! Runs that cannot be compared exit 2: a base run that failed its
//! checks, lists of unequal length, or `host` lines that differ in
//! `nproc` or `cpu_model`. Wall time means nothing across hosts, so a
//! mismatch is an error, not a pass.

use std::collections::BTreeMap;
use std::process::ExitCode;

/// Extracts the raw value of `key` from a single-line JSON object
/// written by `SweepRecord::to_json_line`. String values are returned
/// still escaped (`\"`, `\\`, ...), which is fine for the diff: both
/// reports use the same writer, so keys compare consistently.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let start = line.find(&needle)? + needle.len();
    // JSON-lines records put no space after the colon; the host line
    // of a perfbench run puts one.
    let rest = line[start..].trim_start();
    if let Some(quoted) = rest.strip_prefix('"') {
        // Scan to the closing quote, skipping backslash escapes.
        let bytes = quoted.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            match bytes[i] {
                b'\\' => i += 2,
                b'"' => return Some(&quoted[..i]),
                _ => i += 1,
            }
        }
        None
    } else {
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim())
    }
}

#[derive(Clone, Debug)]
struct Record {
    size: f64,
    optimum: Option<f64>,
    lower_bound: f64,
    clean: bool,
    /// The paper bound as an exact fraction (`bound_num`/`bound_den`),
    /// when the report carries the exact fields (reports predating them
    /// parse with `None`). Compared verbatim — the float `bound` field
    /// is rounded to 4 decimals and cannot distinguish large
    /// certificates.
    bound_exact: Option<(u128, u128)>,
    /// Churn bursts escalated past repair-only recovery; `None` on
    /// static records and reports predating the recovery fields.
    escalations: Option<u64>,
    /// Highest recovery rung reached (0 none … 3 full re-stabilisation);
    /// `None` with the same tolerance as `escalations`.
    recovery_tier: Option<u64>,
    /// The protocol run's rounds and messages: the paper's cost model.
    rounds: u64,
    messages: u64,
}

impl Record {
    /// The quality measure compared across reports.
    fn measure(&self) -> Option<f64> {
        match self.optimum {
            Some(opt) if opt > 0.0 => Some(self.size / opt),
            Some(_) => None,
            None if self.lower_bound > 0.0 => Some(self.size / self.lower_bound),
            None => None,
        }
    }
}

/// Parses a JSON-lines quality report, diagnosing truncation.
///
/// `scenario_sweep` writes reports crash-safely (tmp + rename), but a
/// report produced by other means — a copy truncated mid-transfer, a
/// sweep on a pre-atomic version killed mid-write — can end without the
/// trailing summary line or mid-record. Every such shape gets a clear
/// diagnostic naming the file and the fix, instead of a panic or a
/// silently confusing `MISSING`-everything diff.
fn parse_report(path: &str) -> Result<BTreeMap<(String, String), Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut records = BTreeMap::new();
    let mut record_lines = 0usize;
    let mut summary: Option<(usize, usize)> = None; // (lineno, declared record count)
    let lines: Vec<(usize, &str)> = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i, l.trim()))
        .filter(|(_, l)| !l.is_empty())
        .collect();
    let last_lineno = lines.last().map(|&(i, _)| i);
    for &(lineno, line) in &lines {
        if field(line, "benchmark").is_some() {
            if let Some((first, _)) = summary {
                return Err(format!(
                    "{path}:{}: second summary line (first at line {}) — \
                     concatenated or corrupt report",
                    lineno + 1,
                    first + 1
                ));
            }
            let declared = field(line, "records")
                .and_then(|v| v.parse::<usize>().ok())
                .ok_or_else(|| {
                    format!("{path}:{}: summary line has no record count", lineno + 1)
                })?;
            summary = Some((lineno, declared));
            continue;
        }
        if let Some((summary_lineno, _)) = summary {
            return Err(format!(
                "{path}:{}: record after the summary line (line {}) — \
                 the summary must be last; concatenated or corrupt report",
                lineno + 1,
                summary_lineno + 1
            ));
        }
        let parse = || -> Option<((String, String), Record)> {
            let scenario = field(line, "scenario")?.to_owned();
            let protocol = field(line, "protocol")?.to_owned();
            let size: f64 = field(line, "size")?.parse().ok()?;
            let optimum = match field(line, "optimum")? {
                "null" => None,
                v => Some(v.parse().ok()?),
            };
            let lower_bound: f64 = field(line, "lower_bound")?.parse().ok()?;
            let clean =
                field(line, "violation")? == "null" && field(line, "within_bound")? != "false";
            // Optional: reports predating the exact fields lack them.
            let bound_exact = match (field(line, "bound_num"), field(line, "bound_den")) {
                (Some(num), Some(den)) if num != "null" && den != "null" => {
                    Some((num.parse().ok()?, den.parse().ok()?))
                }
                _ => None,
            };
            // Optional churn-recovery accounting: static records and
            // pre-recovery reports simply lack the keys.
            let escalations = field(line, "escalations").and_then(|v| v.parse().ok());
            let recovery_tier = field(line, "recovery_tier").and_then(|v| v.parse().ok());
            let rounds = field(line, "rounds")?.parse().ok()?;
            let messages = field(line, "messages")?.parse().ok()?;
            Some((
                (scenario, protocol),
                Record {
                    size,
                    optimum,
                    lower_bound,
                    clean,
                    bound_exact,
                    escalations,
                    recovery_tier,
                    rounds,
                    messages,
                },
            ))
        };
        match parse() {
            Some((key, record)) => {
                record_lines += 1;
                records.insert(key, record);
            }
            None if Some(lineno) == last_lineno => {
                return Err(format!(
                    "{path}:{}: unparseable final line — the report looks cut \
                     mid-record (writer killed mid-line?); regenerate it with \
                     scenario_sweep",
                    lineno + 1
                ))
            }
            None => {
                return Err(format!(
                    "{path}:{}: not a scenario_sweep record line",
                    lineno + 1
                ))
            }
        }
    }
    let Some((_, declared)) = summary else {
        return Err(format!(
            "{path}: missing the trailing summary line — the report is \
             truncated (sweep killed mid-write?); regenerate it with \
             scenario_sweep"
        ));
    };
    if declared != record_lines {
        return Err(format!(
            "{path}: summary declares {declared} records but the file holds \
             {record_lines} — truncated or corrupt report; regenerate it with \
             scenario_sweep"
        ));
    }
    if records.is_empty() {
        return Err(format!("{path}: no records found"));
    }
    Ok(records)
}

/// One `perfbench` run: the host facts the comparison needs and the
/// figures of its result line.
#[derive(Clone, Debug)]
struct PerfRun {
    /// `nproc` and `cpu_model` from the host line.
    host: (String, String),
    failed: u64,
    wall_s: f64,
}

/// Parses the standard output of one `perfbench/run.py` run: its `host`
/// line and, last, its result object.
fn parse_perf_run(text: &str) -> Result<PerfRun, String> {
    let host = text
        .lines()
        .find_map(|l| l.strip_prefix("host "))
        .ok_or("no host line")?;
    let result = text.lines().rev().find(|l| !l.trim().is_empty());
    let result = result
        .filter(|l| field(l, "correct").is_some())
        .ok_or("the last line is not a perfbench result (run cut short?)")?;
    let wall_s = result
        .find("\"wall_s\":")
        .and_then(|at| field(&result[at..], "value"))
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|&v| v > 0.0)
        .ok_or("the result has no positive wall_s")?;
    let failed = field(result, "failed")
        .and_then(|v| v.parse().ok())
        .ok_or("the result has no failed count")?;
    let fact = |key| {
        field(host, key)
            .map(str::to_owned)
            .ok_or(format!("the host line has no {key}"))
    };
    Ok(PerfRun {
        host: (fact("nproc")?, fact("cpu_model")?),
        failed,
        wall_s,
    })
}

/// The `--perf` verdict on runs that can be compared.
#[derive(Debug)]
struct PerfDiff {
    /// HEAD/base `wall_s` of each pair, in run order.
    ratios: Vec<f64>,
    median: f64,
    /// Why the gate fails; empty when it passes.
    failures: Vec<String>,
}

/// The `--perf` comparison proper, separated from I/O and exit codes for
/// testability: `Err` when the runs cannot be compared (exit 2), else
/// the verdict (exit 1 when it has failures). Run `i` of one side pairs
/// with run `i` of the other.
fn perf_diff(base: &[PerfRun], head: &[PerfRun], tolerance: f64) -> Result<PerfDiff, String> {
    if base.len() != head.len() {
        return Err(format!(
            "{} base runs but {} HEAD runs: the runs must come in pairs",
            base.len(),
            head.len()
        ));
    }
    let first = base.first().ok_or("no runs given")?;
    for run in base.iter().chain(head) {
        if run.host != first.host {
            return Err(format!(
                "host mismatch ({:?} vs {:?}): wall time is not comparable across hosts",
                first.host, run.host
            ));
        }
    }
    if let Some(i) = base.iter().position(|r| r.failed > 0) {
        return Err(format!(
            "base run {} reports {} failed checks: the base build gives no reference",
            i + 1,
            base[i].failed
        ));
    }
    let ratios: Vec<f64> = base
        .iter()
        .zip(head)
        .map(|(b, h)| h.wall_s / b.wall_s)
        .collect();
    let mut sorted = ratios.clone();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    let median = if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    };
    let mut failures: Vec<String> = head
        .iter()
        .enumerate()
        .filter(|(_, r)| r.failed > 0)
        .map(|(i, r)| format!("FAILED   HEAD run {}: {} failed checks", i + 1, r.failed))
        .collect();
    if median > 1.0 + tolerance {
        failures.push(format!(
            "SLOWER   median HEAD/base wall_s {median:.3} > {:.3}",
            1.0 + tolerance
        ));
    }
    Ok(PerfDiff {
        ratios,
        median,
        failures,
    })
}

fn run_perf_mode(base_paths: &str, head_paths: &str, tolerance: f64) -> ExitCode {
    let load = |paths: &str| -> Result<Vec<PerfRun>, String> {
        paths
            .split(',')
            .map(|path| {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read {path}: {e}"))?;
                parse_perf_run(&text).map_err(|e| format!("{path}: {e}"))
            })
            .collect()
    };
    let diff = load(base_paths).and_then(|base| perf_diff(&base, &load(head_paths)?, tolerance));
    let diff = match diff {
        Ok(diff) => diff,
        Err(e) => {
            eprintln!("perf diff: {e} — not comparable");
            return ExitCode::from(2);
        }
    };
    for (i, ratio) in diff.ratios.iter().enumerate() {
        eprintln!("perf diff: pair {}: HEAD/base wall_s {ratio:.3}", i + 1);
    }
    for f in &diff.failures {
        eprintln!("{f}");
    }
    eprintln!(
        "perf diff: median HEAD/base wall_s over {} pairs {:.3} (band {:.0}%): {} failures",
        diff.ratios.len(),
        diff.median,
        tolerance * 100.0,
        diff.failures.len()
    );
    if diff.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("HEAD is slower than the band allows or failed its checks — failing");
        ExitCode::from(1)
    }
}

/// The outcome of one quality diff: the findings in baseline key order
/// and the tallies `--stats` publishes.
#[derive(Debug, Default)]
struct QualityDiff {
    /// One line per gate failure, plus the exact-bound notices that
    /// never fail.
    lines: Vec<String>,
    failures: usize,
    missing: usize,
    added: usize,
    drifted: usize,
    improved: usize,
    loosened: usize,
    tightened: usize,
    escalated: usize,
    /// Records whose rounds or messages grew.
    costlier: usize,
    /// Records whose rounds or messages shrank and neither grew.
    cheaper: usize,
}

/// The quality comparison proper, separated from I/O and exit codes for
/// testability. See the [module docs](self) for the gates.
fn quality_diff(
    baseline: &BTreeMap<(String, String), Record>,
    current: &BTreeMap<(String, String), Record>,
    tolerance: f64,
) -> QualityDiff {
    let mut diff = QualityDiff::default();
    for (key, base) in baseline {
        let Some(cur) = current.get(key) else {
            diff.lines.push(format!(
                "MISSING  {}/{}: record dropped from current report",
                key.0, key.1
            ));
            diff.failures += 1;
            diff.missing += 1;
            continue;
        };
        if base.clean && !cur.clean {
            diff.lines.push(format!(
                "UNCLEAN  {}/{}: violation introduced",
                key.0, key.1
            ));
            diff.failures += 1;
        }
        // Certified lower bounds are exact integers: any decrease is a
        // tightness regression, gated without tolerance.
        if cur.lower_bound < base.lower_bound {
            diff.lines.push(format!(
                "LOOSER   {}/{}: certified lower bound {} -> {}",
                key.0, key.1, base.lower_bound, cur.lower_bound
            ));
            diff.failures += 1;
            diff.loosened += 1;
        } else if cur.lower_bound > base.lower_bound {
            diff.tightened += 1;
        }
        // Exact paper-bound fractions, compared verbatim: a change means
        // protocol/bound semantics shifted. Reported (the float field
        // rounds to 4 decimals and can hide it) but never failed — the
        // drift and within_bound gates own correctness.
        if let (Some(b), Some(c)) = (base.bound_exact, cur.bound_exact) {
            if b != c {
                diff.lines.push(format!(
                    "BOUND    {}/{}: exact paper bound {}/{} -> {}/{}",
                    key.0, key.1, b.0, b.1, c.0, c.1
                ));
            }
        }
        // Churn-recovery accounting, exact integers: the same scenario
        // escalating past repair-only recovery more often (or to a
        // higher rung) than the baseline means the incremental repair
        // path regressed. Absent fields — static records, pre-recovery
        // baselines — never gate.
        if let (Some(b), Some(c)) = (base.escalations, cur.escalations) {
            if c > b {
                diff.lines.push(format!(
                    "ESCALATE {}/{}: churn escalations {b} -> {c}",
                    key.0, key.1
                ));
                diff.failures += 1;
                diff.escalated += 1;
            }
        }
        if let (Some(b), Some(c)) = (base.recovery_tier, cur.recovery_tier) {
            if c > b {
                diff.lines.push(format!(
                    "TIER     {}/{}: worst recovery tier {b} -> {c}",
                    key.0, key.1
                ));
                diff.failures += 1;
                diff.escalated += 1;
            }
        }
        // Rounds and messages are deterministic and the paper's cost
        // model: a rise means the protocol now runs longer on the same
        // instance, gated as exact integers with no tolerance.
        if cur.rounds > base.rounds || cur.messages > base.messages {
            diff.lines.push(format!(
                "COSTLIER {}/{}: rounds {} -> {}, messages {} -> {}",
                key.0, key.1, base.rounds, cur.rounds, base.messages, cur.messages
            ));
            diff.failures += 1;
            diff.costlier += 1;
        } else if cur.rounds < base.rounds || cur.messages < base.messages {
            diff.cheaper += 1;
        }
        let (Some(b), Some(c)) = (base.measure(), cur.measure()) else {
            continue;
        };
        if c > b + tolerance {
            diff.lines.push(format!(
                "DRIFT    {}/{}: ratio {b:.4} -> {c:.4} (+{:.4} > tolerance {tolerance})",
                key.0,
                key.1,
                c - b
            ));
            diff.failures += 1;
            diff.drifted += 1;
        } else if c < b - tolerance {
            diff.improved += 1;
        }
    }
    diff.added = current
        .keys()
        .filter(|k| !baseline.contains_key(*k))
        .count();
    diff
}

const USAGE: &str = "usage: bench_diff BASELINE CURRENT [--tolerance T] [--stats]\n       \
     bench_diff --perf BASE_1,...,BASE_N HEAD_1,...,HEAD_N [--tolerance T]";

fn main() -> ExitCode {
    let mut tolerance: Option<f64> = None;
    let mut stats = false;
    let mut perf = false;
    let mut files: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--tolerance" => match args.next().and_then(|v| v.parse().ok()) {
                Some(t) => tolerance = Some(t),
                None => {
                    eprintln!("--tolerance requires a number");
                    return ExitCode::from(2);
                }
            },
            "--stats" => stats = true,
            "--perf" => perf = true,
            other if other.starts_with('-') => {
                eprintln!("unknown option: {other}");
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            }
            path => files.push(path.to_owned()),
        }
    }
    let [baseline_path, current_path] = files.as_slice() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    if perf {
        return run_perf_mode(baseline_path, current_path, tolerance.unwrap_or(0.06));
    }
    let tolerance = tolerance.unwrap_or(0.05);

    let (baseline, current) = match (parse_report(baseline_path), parse_report(current_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };

    let diff = quality_diff(&baseline, &current, tolerance);
    for line in &diff.lines {
        eprintln!("{line}");
    }
    eprintln!(
        "compared {} baseline records against {} current ({} new): \
         {} drifted, {} improved, bounds {} tightened / {} loosened, \
         {} recovery regressions, costs {} rose / {} fell, {} failures",
        baseline.len(),
        current.len(),
        diff.added,
        diff.drifted,
        diff.improved,
        diff.tightened,
        diff.loosened,
        diff.escalated,
        diff.costlier,
        diff.cheaper,
        diff.failures,
    );
    if stats {
        let registry = eds_telemetry::global();
        let tally = |name, help, value: usize| {
            registry.counter(name, help).add(value as u64);
        };
        tally(
            "bench_diff_records_compared_total",
            "Baseline records matched against the current report.",
            baseline.len(),
        );
        tally(
            "bench_diff_records_added_total",
            "Records only present in the current report.",
            diff.added,
        );
        tally(
            "bench_diff_records_missing_total",
            "Baseline records dropped from the current report.",
            diff.missing,
        );
        tally(
            "bench_diff_drifted_total",
            "Records whose quality measure grew beyond the tolerance.",
            diff.drifted,
        );
        tally(
            "bench_diff_improved_total",
            "Records whose quality measure shrank beyond the tolerance.",
            diff.improved,
        );
        tally(
            "bench_diff_bounds_tightened_total",
            "Records whose certified lower bound increased.",
            diff.tightened,
        );
        tally(
            "bench_diff_bounds_loosened_total",
            "Records whose certified lower bound decreased.",
            diff.loosened,
        );
        tally(
            "bench_diff_recovery_regressions_total",
            "Churn records whose escalation count or recovery tier grew.",
            diff.escalated,
        );
        tally(
            "bench_diff_cost_rises_total",
            "Records whose rounds or messages grew.",
            diff.costlier,
        );
        tally(
            "bench_diff_cost_falls_total",
            "Records whose rounds or messages shrank and neither grew.",
            diff.cheaper,
        );
        tally(
            "bench_diff_failures_total",
            "Gate failures across all categories.",
            diff.failures,
        );
        eprint!("{}", registry.render());
    }
    if diff.failures > 0 {
        eprintln!("quality or cost regression (ratio tolerance {tolerance}) — failing");
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: &str = "{\"scenario\":\"petersen/shuffled/s0\",\"family\":\"petersen\",\
        \"policy\":\"shuffled\",\"seed\":0,\"nodes\":10,\"edges\":15,\"protocol\":\"port-one\",\
        \"rounds\":2,\"messages\":60,\"size\":6,\"optimum\":3,\"lower_bound\":3,\
        \"bounds\":\"lp\",\"bound\":3.3333,\
        \"ratio\":2.0000,\"within_bound\":true,\"violation\":null}";

    #[test]
    fn field_extraction() {
        assert_eq!(field(LINE, "scenario"), Some("petersen/shuffled/s0"));
        assert_eq!(field(LINE, "protocol"), Some("port-one"));
        assert_eq!(field(LINE, "size"), Some("6"));
        assert_eq!(field(LINE, "optimum"), Some("3"));
        assert_eq!(field(LINE, "lower_bound"), Some("3"));
        assert_eq!(field(LINE, "bounds"), Some("lp"));
        assert_eq!(field(LINE, "violation"), Some("null"));
        assert_eq!(field(LINE, "missing"), None);
        // Escaped quotes inside string values (external scenario names)
        // do not truncate the extracted key.
        let escaped = "{\"scenario\":\"my\\\"file\\\\x/as-given/s0\",\"size\":1}";
        assert_eq!(
            field(escaped, "scenario"),
            Some("my\\\"file\\\\x/as-given/s0")
        );
        let unterminated = "{\"scenario\":\"oops";
        assert_eq!(field(unterminated, "scenario"), None);
    }

    /// A dynamic-scenario record: same prefix as a static record plus
    /// the flat churn accounting fields.
    const CHURN_LINE: &str = "{\"scenario\":\"churn(petersen)-b3e2c1/shuffled/s0\",\
        \"family\":\"churn\",\"policy\":\"shuffled\",\"seed\":0,\"nodes\":12,\"edges\":12,\
        \"protocol\":\"bounded-degree\",\"rounds\":24,\"messages\":700,\"size\":5,\
        \"optimum\":4,\"lower_bound\":4,\"bounds\":\"lp\",\"bound\":3.5000,\
        \"ratio\":1.2500,\"within_bound\":true,\"violation\":null,\
        \"events_applied\":9,\"recovery_rounds\":2,\"max_transient_violation\":3,\
        \"repair_messages\":35,\"recovery_tier\":1,\"frontier_nodes\":4,\"escalations\":0}";

    #[test]
    fn churn_fields_do_not_confuse_extraction() {
        // The added fields are extractable...
        assert_eq!(field(CHURN_LINE, "events_applied"), Some("9"));
        assert_eq!(field(CHURN_LINE, "repair_messages"), Some("35"));
        assert_eq!(field(CHURN_LINE, "recovery_tier"), Some("1"));
        assert_eq!(field(CHURN_LINE, "escalations"), Some("0"));
        // ...and never shadow the legacy keys the diff relies on:
        // "recovery_rounds" must not satisfy a "rounds" lookup, nor
        // "max_transient_violation" a "violation" lookup.
        assert_eq!(field(CHURN_LINE, "rounds"), Some("24"));
        assert_eq!(field(CHURN_LINE, "violation"), Some("null"));
        assert_eq!(field(CHURN_LINE, "messages"), Some("700"));
    }

    #[test]
    fn mixed_legacy_and_churn_reports_parse() {
        // A current report may mix static (legacy-shaped) and churn
        // records; both shapes parse, so diffing against a pre-churn
        // baseline keeps working.
        let path = std::env::temp_dir().join("bench_diff_test_mixed.json");
        let summary = "{\"benchmark\":\"scenario_sweep\",\"families\":2,\"protocols\":2,\
            \"records\":2,\"violations\":0}";
        std::fs::write(&path, format!("{LINE}\n{CHURN_LINE}\n{summary}\n")).unwrap();
        let report = parse_report(path.to_str().unwrap()).unwrap();
        assert_eq!(report.len(), 2);
        let churn = &report[&(
            "churn(petersen)-b3e2c1/shuffled/s0".to_owned(),
            "bounded-degree".to_owned(),
        )];
        assert!(churn.clean);
        assert_eq!(churn.measure(), Some(1.25));
        // Recovery fields parse on churn records and stay absent —
        // never defaulted — on static ones, so the gate can't fire
        // against a pre-recovery baseline.
        assert_eq!(churn.escalations, Some(0));
        assert_eq!(churn.recovery_tier, Some(1));
        let static_record = &report[&("petersen/shuffled/s0".to_owned(), "port-one".to_owned())];
        assert_eq!(static_record.escalations, None);
        assert_eq!(static_record.recovery_tier, None);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn measure_prefers_the_optimum() {
        let r = Record {
            size: 6.0,
            optimum: Some(3.0),
            lower_bound: 2.0,
            clean: true,
            bound_exact: None,
            escalations: None,
            recovery_tier: None,
            rounds: 2,
            messages: 60,
        };
        assert_eq!(r.measure(), Some(2.0));
        let lb = Record { optimum: None, ..r };
        assert_eq!(lb.measure(), Some(3.0));
    }

    #[test]
    fn parse_report_round_trip() {
        let path = std::env::temp_dir().join("bench_diff_test_report.json");
        let summary = "{\"benchmark\":\"scenario_sweep\",\"families\":1,\"protocols\":1,\
            \"records\":1,\"violations\":0}";
        std::fs::write(&path, format!("{LINE}\n{summary}\n")).unwrap();
        let report = parse_report(path.to_str().unwrap()).unwrap();
        assert_eq!(report.len(), 1);
        let record = &report[&("petersen/shuffled/s0".to_owned(), "port-one".to_owned())];
        assert!(record.clean);
        assert_eq!(record.measure(), Some(2.0));
        // A pre-exact-fields baseline parses with no exact bound.
        assert_eq!(record.bound_exact, None);
        assert_eq!((record.rounds, record.messages), (2, 60));
        std::fs::remove_file(&path).ok();
    }

    /// A one-record report of `CHURN_LINE`'s values with `edit` applied.
    fn churn_report(edit: impl FnOnce(&mut Record)) -> BTreeMap<(String, String), Record> {
        let mut record = Record {
            size: 5.0,
            optimum: Some(4.0),
            lower_bound: 4.0,
            clean: true,
            bound_exact: None,
            escalations: Some(0),
            recovery_tier: Some(1),
            rounds: 24,
            messages: 700,
        };
        edit(&mut record);
        let key = (
            "churn(petersen)-b3e2c1/shuffled/s0".to_owned(),
            "bounded-degree".to_owned(),
        );
        BTreeMap::from([(key, record)])
    }

    #[test]
    fn recovery_escalations_fail_the_diff() {
        let base = churn_report(|_| {});
        let clean = quality_diff(&base, &churn_report(|_| {}), 0.05);
        assert_eq!(clean.failures, 0, "{:?}", clean.lines);
        let escalated = quality_diff(&base, &churn_report(|r| r.escalations = Some(1)), 0.05);
        assert_eq!((escalated.failures, escalated.escalated), (1, 1));
        assert!(
            escalated.lines[0].starts_with("ESCALATE"),
            "{:?}",
            escalated.lines
        );
        let higher = quality_diff(&base, &churn_report(|r| r.recovery_tier = Some(3)), 0.05);
        assert_eq!((higher.failures, higher.escalated), (1, 1));
        assert!(higher.lines[0].starts_with("TIER"), "{:?}", higher.lines);
        // Fewer escalations pass, and a record without the fields (a
        // pre-recovery baseline) never gates.
        let fewer = churn_report(|r| r.escalations = Some(0));
        let more = churn_report(|r| r.escalations = Some(2));
        assert_eq!(quality_diff(&more, &fewer, 0.05).failures, 0);
        let legacy = churn_report(|r| (r.escalations, r.recovery_tier) = (None, None));
        assert_eq!(quality_diff(&legacy, &more, 0.05).failures, 0);
    }

    #[test]
    fn cost_rises_fail_the_diff_and_falls_are_counted() {
        let base = churn_report(|_| {});
        let same = quality_diff(&base, &churn_report(|_| {}), 0.05);
        assert_eq!((same.failures, same.costlier, same.cheaper), (0, 0, 0));
        // One more round or one more message fails, with no tolerance.
        for rise in [
            churn_report(|r| r.rounds = 25),
            churn_report(|r| r.messages = 701),
            churn_report(|r| (r.rounds, r.messages) = (12, 701)),
        ] {
            let diff = quality_diff(&base, &rise, 0.05);
            assert_eq!((diff.failures, diff.costlier, diff.cheaper), (1, 1, 0));
            assert_eq!(
                diff.lines,
                [format!(
                    "COSTLIER churn(petersen)-b3e2c1/shuffled/s0/bounded-degree: \
                     rounds 24 -> {}, messages 700 -> {}",
                    rise.values().next().unwrap().rounds,
                    rise.values().next().unwrap().messages
                )]
            );
        }
        // Falls are counted and never fail.
        for fall in [
            churn_report(|r| r.rounds = 12),
            churn_report(|r| (r.rounds, r.messages) = (12, 90)),
        ] {
            let diff = quality_diff(&base, &fall, 0.05);
            assert_eq!((diff.failures, diff.costlier, diff.cheaper), (0, 0, 1));
        }
    }

    /// A `SweepRecord` with a bound fraction the 4-decimal float cannot
    /// represent survives the full writer -> report -> `bench_diff`
    /// parser round trip exactly.
    #[test]
    fn exact_bounds_round_trip_through_the_report() {
        use edge_dominating_sets::scenarios::SweepRecord;
        let record = SweepRecord {
            scenario: "big/canonical/s0".to_owned(),
            family: "big",
            policy: "canonical",
            seed: 0,
            nodes: 4,
            edges: 3,
            protocol: "vertex-cover",
            rounds: 1,
            messages: 6,
            size: 2,
            optimum: Some(1),
            lower_bound: 1,
            bounds: "exact",
            bound: Some((u64::MAX, u64::MAX - 2)),
            ratio: Some(2.0),
            within_bound: Some(true),
            violation: None,
            churn: None,
        };
        let path = std::env::temp_dir().join("bench_diff_test_exact.json");
        let summary = "{\"benchmark\":\"scenario_sweep\",\"families\":1,\"protocols\":1,\
            \"records\":1,\"violations\":0}";
        std::fs::write(&path, format!("{}\n{summary}\n", record.to_json_line())).unwrap();
        let report = parse_report(path.to_str().unwrap()).unwrap();
        let parsed = &report[&("big/canonical/s0".to_owned(), "vertex-cover".to_owned())];
        // u64::MAX and u64::MAX - 2 both round to the same f64; only the
        // exact fields can distinguish them — and they do.
        assert_eq!(
            parsed.bound_exact,
            Some((u128::from(u64::MAX), u128::from(u64::MAX) - 2))
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn summaryless_report_is_diagnosed_as_truncated() {
        let path = std::env::temp_dir().join("bench_diff_test_nosummary.json");
        std::fs::write(&path, format!("{LINE}\n")).unwrap();
        let err = parse_report(path.to_str().unwrap()).unwrap_err();
        assert!(err.contains("missing the trailing summary line"), "{err}");
        assert!(err.contains("truncated"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn record_count_mismatch_is_diagnosed_as_truncated() {
        let path = std::env::temp_dir().join("bench_diff_test_count.json");
        let summary = "{\"benchmark\":\"scenario_sweep\",\"families\":3,\"protocols\":3,\
            \"records\":3,\"violations\":0}";
        // Summary claims 3 records; the file holds 1 (lines lost).
        std::fs::write(&path, format!("{LINE}\n{summary}\n")).unwrap();
        let err = parse_report(path.to_str().unwrap()).unwrap_err();
        assert!(err.contains("declares 3 records"), "{err}");
        assert!(err.contains("holds 1"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mid_record_cut_is_diagnosed() {
        let path = std::env::temp_dir().join("bench_diff_test_cut.json");
        // The writer died mid-line: the final record is cut short.
        let cut = &LINE[..60];
        std::fs::write(&path, format!("{LINE}\n{cut}")).unwrap();
        let err = parse_report(path.to_str().unwrap()).unwrap_err();
        assert!(err.contains("cut mid-record"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    /// One run's standard output as `perfbench/run.py` prints it.
    fn perf_text(nproc: u32, failed: u64, wall_s: f64) -> String {
        format!(
            "host {{\"workload\": \"batch_mixed\", \"seed\": 1, \"nproc\": {nproc}, \
             \"cpu_model\": \"Intel(R) Xeon(R) Processor\", \"git_commit\": null}}\n\
             {{\"correct\":{},\"attempted\":682,\"failed\":{failed},\"metrics\":{{\
             \"setup_s\":{{\"value\":0.0015,\"unit\":\"s\"}},\
             \"wall_s\":{{\"value\":{wall_s},\"unit\":\"s\"}},\
             \"peak_rss_mb\":{{\"value\":48.9,\"unit\":\"MB\"}}}}}}\n",
            failed == 0
        )
    }

    fn perf_runs(walls: &[f64]) -> Vec<PerfRun> {
        walls
            .iter()
            .map(|&w| parse_perf_run(&perf_text(2, 0, w)).unwrap())
            .collect()
    }

    #[test]
    fn perf_gate_takes_the_median_of_per_pair_ratios() {
        // Odd N: the middle ratio. One noisy pair does not move it.
        let base = perf_runs(&[4.0, 4.0, 4.0]);
        let diff = perf_diff(&base, &perf_runs(&[4.2, 6.0, 3.8]), 0.06).unwrap();
        assert_eq!(diff.ratios, [1.05, 1.5, 0.95]);
        assert_eq!(diff.median, 1.05);
        assert!(diff.failures.is_empty(), "{:?}", diff.failures);
        // Even N: the mean of the middle pair, here (1.05 + 1.1) / 2.
        let base = perf_runs(&[4.0, 5.0, 4.0, 5.0]);
        let diff = perf_diff(&base, &perf_runs(&[4.0, 5.25, 4.4, 6.0]), 0.06).unwrap();
        assert!((diff.median - 1.075).abs() < 1e-12, "{}", diff.median);
        assert_eq!(diff.failures.len(), 1, "{:?}", diff.failures);
    }

    #[test]
    fn perf_gate_fails_a_slower_or_failing_head() {
        let base = perf_runs(&[4.0, 4.4, 4.2]);
        let slower = perf_runs(&[4.5, 5.0, 4.8]);
        let diff = perf_diff(&base, &slower, 0.06).unwrap();
        assert!(
            diff.failures[0].starts_with("SLOWER"),
            "{:?}",
            diff.failures
        );
        // The same runs pass a wider band.
        assert!(perf_diff(&base, &slower, 0.2).unwrap().failures.is_empty());
        // A HEAD run that failed a check fails the gate even when HEAD
        // is as fast as the base.
        let mut failing = base.clone();
        failing[1] = parse_perf_run(&perf_text(2, 2, 4.4)).unwrap();
        let diff = perf_diff(&base, &failing, 0.06).unwrap();
        assert_eq!(diff.median, 1.0);
        assert_eq!(diff.failures, ["FAILED   HEAD run 2: 2 failed checks"]);
    }

    #[test]
    fn perf_runs_that_cannot_be_compared_are_rejected() {
        let base = perf_runs(&[4.0, 4.0]);
        // A base run that failed its checks gives no reference.
        let mut failed_base = base.clone();
        failed_base[0] = parse_perf_run(&perf_text(2, 1, 4.0)).unwrap();
        let err = perf_diff(&failed_base, &base, 0.06).unwrap_err();
        assert!(err.contains("base run 1"), "{err}");
        // A host mismatch, on either side.
        let mut other_host = base.clone();
        other_host[1] = parse_perf_run(&perf_text(4, 0, 4.0)).unwrap();
        let err = perf_diff(&base, &other_host, 0.06).unwrap_err();
        assert!(err.contains("host mismatch"), "{err}");
        let mut other_cpu = base.clone();
        other_cpu[1].host.1 = "AMD EPYC".to_owned();
        assert!(perf_diff(&other_cpu, &base, 0.06).is_err());
        // Lists of unequal length do not form pairs.
        let err = perf_diff(&base, &perf_runs(&[4.0]), 0.06).unwrap_err();
        assert!(err.contains("in pairs"), "{err}");
        // A run cut short before its result line cannot be judged.
        let host_only = perf_text(2, 0, 4.0).lines().next().unwrap().to_owned();
        let err = parse_perf_run(&host_only).unwrap_err();
        assert!(err.contains("cut short"), "{err}");
    }

    #[test]
    fn record_after_summary_is_diagnosed() {
        let path = std::env::temp_dir().join("bench_diff_test_after.json");
        let summary = "{\"benchmark\":\"scenario_sweep\",\"families\":1,\"protocols\":1,\
            \"records\":1,\"violations\":0}";
        std::fs::write(&path, format!("{summary}\n{LINE}\n")).unwrap();
        let err = parse_report(path.to_str().unwrap()).unwrap_err();
        assert!(err.contains("record after the summary"), "{err}");
        std::fs::remove_file(&path).ok();
    }
}
