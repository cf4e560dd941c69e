//! `bench_diff`: compare two `BENCH_scenarios.json` quality reports and
//! fail on approximation-ratio drift — or, with `--sim`, two
//! `BENCH_sim.json` throughput reports and fail on perf regression.
//!
//! Usage:
//!
//! ```text
//! bench_diff BASELINE CURRENT [--tolerance T] [--stats]
//! bench_diff --sim BASELINE[,BASELINE...] CURRENT[,CURRENT...] [--tolerance T]
//! ```
//!
//! # `--sim`: the perf-regression gate
//!
//! Compares `sim_benchmark` reports workload by workload. Each side is
//! one report or a comma-separated list of reports: CI builds the base
//! commit and HEAD on one runner, runs them alternately three times
//! each, and passes each build's three reports as one side. Per
//! workload, a side's measure is its **best**
//! `sequential_rounds_per_sec`, which discounts runs slowed by other
//! load on a shared host. The gate
//! fails (exit 1) when the current side's best drops below the
//! baseline side's best by more than the tolerance (default 0.15: more
//! than 15% slower). Parallel fields are never gated — they measure pool
//! overhead on small hosts and `--check-parallel` owns the break-even
//! floor. Workloads only in the baseline are skipped with a notice,
//! never failed: a `--reduced` run may be diffed against a full report
//! (perf gate, not coverage gate).
//!
//! Reports from different worlds are not comparable: when `host_threads`
//! or `protocol_rounds` differ — between the sides or within one — or
//! the `benchmark` kinds differ, the diff says so and exits 2. Absolute
//! throughput means nothing across hosts, so the gate compares builds
//! measured on the same host, and a mismatch is an error, not a pass.
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

use std::collections::BTreeMap;
use std::process::ExitCode;

/// Extracts the raw value of `key` from a single-line JSON object
/// written by `SweepRecord::to_json_line`. String values are returned
/// still escaped (`\"`, `\\`, ...), which is fine for the diff: both
/// reports use the same writer, so keys compare consistently.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let start = line.find(&needle)? + needle.len();
    // JSON-lines records put no space after the colon; the
    // pretty-printed sim report puts one.
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

/// One workload's gated metrics from a `BENCH_sim.json` report.
#[derive(Clone, Debug, Default, PartialEq)]
struct SimWorkload {
    sequential_rps: f64,
}

/// A parsed `BENCH_sim.json` throughput report, or the best of several
/// (see [`best_of`]).
#[derive(Clone, Debug)]
struct SimReport {
    benchmark: String,
    protocol_rounds: u64,
    host_threads: u64,
    /// Workloads in file order, keyed by name.
    workloads: Vec<(String, SimWorkload)>,
}

/// Parses the pretty-printed (one field per line) `sim_benchmark`
/// report. Line-based like the JSON-lines parser: a `"name"` line opens
/// a workload, metric lines attach to the last opened one.
fn parse_sim_report(path: &str) -> Result<SimReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut benchmark = None;
    let mut protocol_rounds = None;
    let mut host_threads = None;
    let mut workloads: Vec<(String, SimWorkload)> = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if let Some(v) = field(line, "benchmark") {
            benchmark = Some(v.to_owned());
        } else if let Some(v) = field(line, "protocol_rounds") {
            protocol_rounds = v.parse().ok();
        } else if let Some(v) = field(line, "host_threads") {
            host_threads = v.parse().ok();
        } else if let Some(v) = field(line, "name") {
            workloads.push((v.to_owned(), SimWorkload::default()));
        } else if let Some((_, w)) = workloads.last_mut() {
            if let Some(v) = field(line, "sequential_rounds_per_sec") {
                w.sequential_rps = v
                    .parse()
                    .map_err(|_| format!("{path}: bad sequential_rounds_per_sec: {v}"))?;
            }
        }
    }
    let benchmark = benchmark.ok_or_else(|| format!("{path}: no \"benchmark\" field"))?;
    if workloads.is_empty() {
        return Err(format!("{path}: no workloads found"));
    }
    if let Some((name, _)) = workloads.iter().find(|(_, w)| w.sequential_rps <= 0.0) {
        return Err(format!(
            "{path}: workload {name} has no sequential_rounds_per_sec"
        ));
    }
    Ok(SimReport {
        benchmark,
        protocol_rounds: protocol_rounds
            .ok_or_else(|| format!("{path}: no \"protocol_rounds\" field"))?,
        host_threads: host_threads.ok_or_else(|| format!("{path}: no \"host_threads\" field"))?,
        workloads,
    })
}

/// `Err` with the reason when two reports measure different things
/// (benchmark kind, host parallelism or protocol rounds).
fn comparable(a: &SimReport, b: &SimReport) -> Result<(), String> {
    if a.benchmark != b.benchmark {
        return Err(format!(
            "benchmark kind mismatch ({} vs {})",
            a.benchmark, b.benchmark
        ));
    }
    if a.host_threads != b.host_threads {
        return Err(format!(
            "host_threads mismatch ({} vs {}): throughput is not comparable across hosts",
            a.host_threads, b.host_threads
        ));
    }
    if a.protocol_rounds != b.protocol_rounds {
        return Err(format!(
            "protocol_rounds mismatch ({} vs {})",
            a.protocol_rounds, b.protocol_rounds
        ));
    }
    Ok(())
}

/// One side of the gate: the reports must be mutually comparable, and
/// each workload keeps its best `sequential_rounds_per_sec` (workloads
/// in first-seen order).
fn best_of(reports: Vec<SimReport>) -> Result<SimReport, String> {
    let mut reports = reports.into_iter();
    let mut best = reports.next().ok_or("no reports given")?;
    for report in reports {
        comparable(&best, &report)?;
        for (name, w) in report.workloads {
            match best.workloads.iter_mut().find(|(n, _)| *n == name) {
                Some((_, b)) => b.sequential_rps = b.sequential_rps.max(w.sequential_rps),
                None => best.workloads.push((name, w)),
            }
        }
    }
    Ok(best)
}

/// Parses one side's comma-separated report list into its best-of
/// report.
fn load_side(paths: &str) -> Result<SimReport, String> {
    let reports = paths
        .split(',')
        .map(parse_sim_report)
        .collect::<Result<Vec<_>, _>>()?;
    best_of(reports).map_err(|e| format!("{paths}: {e}"))
}

/// The `--sim` comparison proper: failure messages (empty = gate
/// passes) plus the improvement count, separated from I/O and exit
/// codes for testability. Workloads only in the baseline are skipped
/// with a notice, not failed: a `--reduced` run may be diffed against a
/// full report — this is a perf gate, not a coverage gate.
fn sim_diff(baseline: &SimReport, current: &SimReport, tolerance: f64) -> (Vec<String>, usize) {
    let mut failures = Vec::new();
    let mut improved = 0usize;
    for (name, base) in &baseline.workloads {
        let Some((_, cur)) = current.workloads.iter().find(|(n, _)| n == name) else {
            eprintln!("sim diff: {name} not in the current report — skipped (reduced run?)");
            continue;
        };
        let mut gate = |metric: &str, b: f64, c: f64| {
            if c < b * (1.0 - tolerance) {
                failures.push(format!(
                    "SLOWER   {name}: {metric} {b:.1} -> {c:.1} ({:+.1}% > tolerance {:.0}%)",
                    (c / b - 1.0) * 100.0,
                    tolerance * 100.0
                ));
            } else if c > b * (1.0 + tolerance) {
                improved += 1;
            }
        };
        gate(
            "sequential_rounds_per_sec",
            base.sequential_rps,
            cur.sequential_rps,
        );
    }
    (failures, improved)
}

fn run_sim_mode(baseline_paths: &str, current_paths: &str, tolerance: f64) -> ExitCode {
    let (baseline, current) = match (load_side(baseline_paths), load_side(current_paths)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("sim diff: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = comparable(&baseline, &current) {
        eprintln!("sim diff: {e} — not comparable");
        return ExitCode::from(2);
    }
    for (name, base) in &baseline.workloads {
        if let Some((_, cur)) = current.workloads.iter().find(|(n, _)| n == name) {
            eprintln!(
                "sim diff: {name}: best sequential rounds/sec {:.1} -> {:.1} ({:+.1}%)",
                base.sequential_rps,
                cur.sequential_rps,
                (cur.sequential_rps / base.sequential_rps - 1.0) * 100.0
            );
        }
    }
    let (failures, improved) = sim_diff(&baseline, &current, tolerance);
    for f in &failures {
        eprintln!("{f}");
    }
    eprintln!(
        "sim diff: compared {} workloads at tolerance {:.0}%: {} regressions, \
         {improved} improvements",
        baseline.workloads.len(),
        tolerance * 100.0,
        failures.len(),
    );
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("throughput regressed beyond tolerance — failing");
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
     bench_diff --sim BASELINE[,BASELINE...] CURRENT[,CURRENT...] [--tolerance T]";

fn main() -> ExitCode {
    let mut tolerance: Option<f64> = None;
    let mut stats = false;
    let mut sim = false;
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
            "--sim" => sim = true,
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
    if sim {
        return run_sim_mode(baseline_path, current_path, tolerance.unwrap_or(0.15));
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

    /// A miniature pretty-printed `sim_benchmark` report.
    fn sim_report_text(seq: f64) -> String {
        format!(
            "{{\n  \"benchmark\": \"sim_throughput\",\n  \"protocol_rounds\": 16,\n  \
             \"host_threads\": 1,\n  \"parallel_fields_overhead_only\": true,\n  \
             \"workloads\": [\n    {{\n      \"name\": \"cycle_100k\",\n      \
             \"nodes\": 100000,\n      \"rounds\": 16,\n      \
             \"sequential_rounds_per_sec\": {seq:.1},\n      \
             \"parallel1_rounds_per_sec\": 500.0\n    }}\n  ]\n}}\n"
        )
    }

    fn parse_sim_text(text: &str, tag: &str) -> SimReport {
        let path = std::env::temp_dir().join(format!("bench_diff_test_sim_{tag}.json"));
        std::fs::write(&path, text).unwrap();
        let report = parse_sim_report(path.to_str().unwrap()).unwrap();
        std::fs::remove_file(&path).ok();
        report
    }

    #[test]
    fn sim_report_parses_pretty_printed_fields() {
        let report = parse_sim_text(&sim_report_text(550.0), "parse");
        assert_eq!(report.benchmark, "sim_throughput");
        assert_eq!(report.protocol_rounds, 16);
        assert_eq!(report.host_threads, 1);
        assert_eq!(report.workloads.len(), 1);
        let (name, w) = &report.workloads[0];
        assert_eq!(name, "cycle_100k");
        assert_eq!(w.sequential_rps, 550.0);
    }

    #[test]
    fn sim_diff_gates_drops_and_tolerates_noise() {
        let base = parse_sim_text(&sim_report_text(550.0), "base");
        // Within 15%: no failure.
        let ok = parse_sim_text(&sim_report_text(500.0), "ok");
        let (failures, improved) = sim_diff(&base, &ok, 0.15);
        assert!(failures.is_empty(), "{failures:?}");
        assert_eq!(improved, 0);
        // A >15% gain counts as improvement.
        let fast = parse_sim_text(&sim_report_text(700.0), "fast");
        let (failures, improved) = sim_diff(&base, &fast, 0.15);
        assert!(failures.is_empty(), "{failures:?}");
        assert_eq!(improved, 1);
        // A >15% sequential drop fails.
        let slow = parse_sim_text(&sim_report_text(400.0), "slow");
        let (failures, _) = sim_diff(&base, &slow, 0.15);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("sequential_rounds_per_sec"));
        // A workload missing from the current report is skipped, not
        // failed: the CI gate runs the --reduced subset against the
        // full committed baseline.
        let mut dropped = slow.clone();
        dropped.workloads.clear();
        dropped
            .workloads
            .push(("other".to_owned(), SimWorkload::default()));
        let (failures, _) = sim_diff(&base, &dropped, 0.15);
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn sim_sides_gate_on_each_workloads_best_run() {
        let runs = |values: &[f64], tag: &str| {
            values
                .iter()
                .enumerate()
                .map(|(i, &v)| parse_sim_text(&sim_report_text(v), &format!("{tag}{i}")))
                .collect::<Vec<_>>()
        };
        let base = best_of(runs(&[520.0, 600.0, 480.0], "base")).unwrap();
        assert_eq!(base.workloads.len(), 1);
        assert_eq!(base.workloads[0].1.sequential_rps, 600.0);
        // One noisy slow run on the current side does not fail the gate
        // while its best run keeps up.
        let noisy = best_of(runs(&[400.0, 590.0, 560.0], "noisy")).unwrap();
        assert!(sim_diff(&base, &noisy, 0.15).0.is_empty());
        // A build whose best run is 25% slower fails.
        let slow = best_of(runs(&[450.0, 440.0, 430.0], "slow")).unwrap();
        assert_eq!(sim_diff(&base, &slow, 0.15).0.len(), 1);
    }

    #[test]
    fn sim_reports_from_different_worlds_are_not_comparable() {
        let one = parse_sim_text(&sim_report_text(550.0), "world1");
        let other_host = parse_sim_text(
            &sim_report_text(550.0).replace("\"host_threads\": 1", "\"host_threads\": 4"),
            "world4",
        );
        let other_rounds = parse_sim_text(
            &sim_report_text(550.0).replace("\"protocol_rounds\": 16", "\"protocol_rounds\": 8"),
            "world8",
        );
        assert_eq!(other_host.host_threads, 4);
        assert_eq!(other_rounds.protocol_rounds, 8);
        assert!(comparable(&one, &one).is_ok());
        let err = comparable(&one, &other_host).unwrap_err();
        assert!(err.contains("host_threads"), "{err}");
        let err = comparable(&one, &other_rounds).unwrap_err();
        assert!(err.contains("protocol_rounds"), "{err}");
        // Within one side too: a side mixing hosts is rejected.
        let err = best_of(vec![one.clone(), other_host]).unwrap_err();
        assert!(err.contains("host_threads"), "{err}");
        assert!(best_of(Vec::new()).is_err());
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
