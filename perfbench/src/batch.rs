//! The batch workload (`batch_mixed`): a fixed job of `Session` sweeps
//! streaming JSON lines to disk, the way `scenario_sweep` runs them.

use std::fs::File;
use std::io::BufWriter;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use eds_baselines::{exact, two_approx};
use eds_lp::{dual_certificate, CertificateSource, DualObjective, LpBudget};
use eds_scenarios::{
    Family, JsonLinesSink, Protocol, Scenario, Session, SweepConfig, SweepRecord, Tee, VecSink,
};

use crate::metrics::{mean, median, Outcome, EXECUTE_BY_PROTOCOL};
use crate::pipeline::{replay_scenario, Hashing, Provider, ReplayCounts};
use crate::sys;
use crate::trace::Tracer;
use crate::workloads::{self, SweepPlan};

/// Set-up repetitions before each pass; `setup_s` is the median over
/// the run, so that like `wall_s` it samples the host across the whole
/// run rather than in its first second.
const SETUP_REPS_PER_PASS: usize = 4;

/// A plan's session, on one shard: on a shared host a second shard
/// measures the scheduler as much as the program.
fn session(plan: &SweepPlan) -> Session {
    plan.provider
        .install(Session::new().specs(plan.specs.clone()))
        .recovery_policy(plan.policy)
        .sequential()
}

/// Set-up: building the input list and the sessions.
pub fn setup(seed: u64) -> (Vec<SweepPlan>, Vec<Session>) {
    let plans = workloads::batch_mixed(seed);
    let sessions = plans.iter().map(session).collect();
    (plans, sessions)
}

/// Checks one plan's records: clean, and — under repair-first recovery,
/// as the churn-scale gate demands — no escalation past repair.
fn check_records(plan: &SweepPlan, records: &[SweepRecord], out: &mut Outcome) {
    out.attempted += records.len() as u64;
    let repair_first = plan.policy.repair_frontier_fraction >= 1.0;
    for r in records {
        if !r.is_clean() {
            out.fail(format!(
                "{}/{}: violation {:?}, within bound {:?}",
                r.scenario, r.protocol, r.violation, r.within_bound
            ));
        } else if repair_first && r.churn.is_some_and(|c| c.escalations > 0) {
            out.fail(format!(
                "{}/{}: repair-first run escalated",
                r.scenario, r.protocol
            ));
        }
    }
}

/// One pass of the fixed job; returns each sweep's report digest.
fn run_job(
    workload: &str,
    plans: &[SweepPlan],
    sessions: &[Session],
    out_dir: &Path,
    out: &mut Outcome,
) -> Vec<u64> {
    let mut digests = Vec::new();
    for (i, (plan, session)) in plans.iter().zip(sessions).enumerate() {
        let path = out_dir.join(format!("{workload}-{i}.jsonl"));
        let file = match File::create(&path) {
            Ok(f) => f,
            Err(e) => {
                out.fail(format!("cannot create {}: {e}", path.display()));
                continue;
            }
        };
        let mut sink = Tee::new(
            JsonLinesSink::new(Hashing::new(BufWriter::new(file))),
            VecSink::new(),
        );
        if let Err(e) = session.run(&mut sink) {
            out.fail(format!("{workload} sweep {i} failed: {e}"));
            continue;
        }
        match sink.first.finish() {
            Ok(w) => digests.push(w.digest),
            Err(e) => out.fail(format!("cannot write {}: {e}", path.display())),
        }
        check_records(plan, &sink.second.records, out);
    }
    digests
}

/// Times set-up as a user meets it: a fresh `perfbench` process that builds
/// the input list and the sessions, then exits.
fn time_setup(workload: &str, seed: u64, reps: usize, out: &mut Outcome) -> Vec<f64> {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            out.fail(format!("cannot locate the perfbench binary: {e}"));
            return Vec::new();
        }
    };
    let mut times = Vec::new();
    for _ in 0..reps {
        let t0 = Instant::now();
        let status = Command::new(&exe)
            .args(["--workload", workload, "--seed", &seed.to_string()])
            .args(["--setup-only", "1"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .status();
        times.push(t0.elapsed().as_secs_f64());
        if !status.as_ref().is_ok_and(|s| s.success()) {
            out.fail(format!("set-up process failed: {status:?}"));
        }
    }
    times
}

/// The untraced run: the fixed job repeated, each pass after a few timed
/// set-ups, while the next pass is expected to end by `seconds` (give or
/// take half a pass; at least once).
///
/// `wall_s` is the mean pass. On a shared host the speed of a core
/// switches between a fast and a slow level every few seconds; the median
/// of a run's passes lands on one level or the other, while the mean over
/// the whole run averages the switches out.
pub fn run(workload: &str, seed: u64, seconds: f64, out_dir: &Path) -> Outcome {
    let mut out = Outcome::default();
    let (plans, sessions) = setup(seed);
    let divergence_before = sys::global_counter("eds_repair_audit_divergence_total");

    let started = Instant::now();
    let mut setup_s = Vec::new();
    let mut walls = Vec::new();
    let mut first_digests: Option<Vec<u64>> = None;
    while walls.is_empty() || started.elapsed().as_secs_f64() + mean(&walls) / 2.0 <= seconds {
        setup_s.extend(time_setup(workload, seed, SETUP_REPS_PER_PASS, &mut out));
        let t0 = Instant::now();
        let digests = run_job(workload, &plans, &sessions, out_dir, &mut out);
        walls.push(t0.elapsed().as_secs_f64());
        eprintln!(
            "perfbench: {workload} pass {}: {:.4} s",
            walls.len(),
            walls[walls.len() - 1]
        );
        match &first_digests {
            None => first_digests = Some(digests),
            Some(first) if *first != digests => {
                out.fail("the JSON-lines report differs between passes of one seed")
            }
            Some(_) => {}
        }
    }
    for plan in &plans {
        if plan.provider.infeasible_certificates() > 0 {
            out.fail("an LP certificate failed its independent check");
        }
    }
    if sys::global_counter("eds_repair_audit_divergence_total") > divergence_before {
        out.fail("a churn audit diverged");
    }
    out.set("setup_s", median(&setup_s));
    out.set("wall_s", mean(&walls));
    out.set("peak_rss_mb", sys::peak_rss_mb(None).unwrap_or(0.0));
    out
}

/// The traced run: the untraced sweep once as the reference, then the
/// same inputs replayed one public call at a time on this thread; the
/// replay's report must equal the reference byte for byte.
pub fn run_traced(workload: &str, seed: u64, out_dir: &Path) -> Outcome {
    let mut out = Outcome::default();
    let (plans, sessions) = setup(seed);

    let t0 = Instant::now();
    let mut reference = Vec::new();
    for (i, session) in sessions.iter().enumerate() {
        let mut sink = JsonLinesSink::new(Vec::new());
        if let Err(e) = session.run(&mut sink) {
            out.fail(format!("{workload} sweep {i} failed: {e}"));
        }
        reference.push(sink.finish().unwrap_or_default());
    }
    let untraced_wall = t0.elapsed().as_secs_f64();

    let barrier_before = sys::global_counter("eds_runtime_barrier_waits_total");
    let audits_before = sys::global_counter("eds_repair_audits_total");
    let mut t = Tracer::new();
    let mut counts = ReplayCounts::default();
    let mut churn_records = Vec::new();
    let mut bytes = 0u64;
    let replay_started = Instant::now();
    for (i, plan) in plans.iter().enumerate() {
        let mut sink = JsonLinesSink::new(Hashing::new(Vec::new()));
        for spec in &plan.specs {
            let label = spec.name();
            let root = t.open("scenario", &label, None);
            let built = t.time("pn_graph.build", &label, Some(root), || spec.build());
            let replayed = built.map_err(Into::into).and_then(|scenario| {
                replay_scenario(
                    &mut t,
                    root,
                    &scenario,
                    &Protocol::ALL,
                    &plan.provider,
                    &plan.policy,
                    &mut counts,
                )
            });
            match replayed {
                Ok(records) => {
                    for (record, _) in records {
                        out.attempted += 1;
                        if record.churn.is_some() {
                            churn_records.push(record.clone());
                        }
                        t.time("sink.emit", record.protocol, Some(root), || {
                            eds_scenarios::RecordSink::record(&mut sink, record)
                        });
                    }
                }
                Err(e) => out.fail(format!("replay of {label} failed: {e}")),
            }
            t.close(root);
        }
        match sink.finish() {
            Ok(w) => {
                bytes += w.bytes;
                if reference.get(i) != Some(&w.inner) {
                    out.fail(format!(
                        "{workload} sweep {i}: traced records differ from the session's"
                    ));
                }
            }
            Err(e) => out.fail(format!("replay sink failed: {e}")),
        }
    }
    let replay_wall = replay_started.elapsed().as_secs_f64();
    if counts.mismatches > 0 {
        out.fail(format!(
            "{} replayed extractions or checks disagreed with the protocol runs",
            counts.mismatches
        ));
    }
    let barrier_waits = sys::global_counter("eds_runtime_barrier_waits_total") - barrier_before;
    let audits = sys::global_counter("eds_repair_audits_total") - audits_before;

    // The bound provider's pieces, timed in a pass of their own (so it
    // is excluded from the reconciliation above).
    let mut pass = BoundsPass::default();
    for plan in &plans {
        for spec in &plan.specs {
            if matches!(spec.family, Family::Churn { .. }) {
                continue;
            }
            match spec.build() {
                Ok(scenario) => pass.measure(&mut t, &scenario, &plan.provider),
                Err(e) => out.fail(format!("build of {} failed: {e}", spec.name())),
            }
        }
    }

    layer_metrics(&t, &mut out);
    let scenario_busy = t.durations("scenario");
    let busy: f64 = scenario_busy.iter().sum();
    out.set(
        "session.critical_path_s",
        scenario_busy.iter().copied().fold(0.0, f64::max),
    );
    out.set("session.shard_util", busy / untraced_wall);
    out.set("pn_runtime.rounds", counts.rounds as f64);
    out.set("pn_runtime.messages", counts.messages as f64);
    out.set(
        "pn_runtime.msgs_per_s",
        counts.messages as f64 / out.get("pn_runtime.execute_s").max(1e-9),
    );
    out.set("pn_runtime.barrier_waits", barrier_waits as f64);
    out.set("sink.bytes", bytes as f64);
    pass.report(&mut out);
    churn_metrics(&churn_records, audits, &mut out);
    out.set("trace.spans", t.spans().len() as f64);
    out.set("trace.overhead_s", (replay_wall - busy).max(0.0));
    let path = out_dir.join(format!("trace-{workload}-{seed}.jsonl"));
    if let Err(e) = t.write(&path) {
        out.fail(format!("cannot write {}: {e}", path.display()));
    }
    out
}

/// Per-layer self times shared by every traced run.
pub fn layer_metrics(t: &Tracer, out: &mut Outcome) {
    let own = t.self_seconds();
    let get = |name: &str| own.get(name).copied().unwrap_or(0.0);
    out.set("pn_graph.build_s", get("pn_graph.build"));
    out.set("pn_runtime.setup_s", get("pn_runtime.setup"));
    out.set("pn_runtime.execute_s", get("pn_runtime.execute"));
    for (metric, protocol) in EXECUTE_BY_PROTOCOL.iter().zip(Protocol::ALL) {
        out.set(
            metric,
            t.labelled_seconds("pn_runtime.execute", protocol.name()),
        );
    }
    // `execute_with` builds its own simulator and extracts its own
    // output; the separately timed copies of those calls estimate the
    // share of the rounds themselves.
    out.set(
        "pn_runtime.rounds_s",
        (get("pn_runtime.execute") - get("pn_runtime.setup") - get("pn_runtime.extract")).max(0.0),
    );
    out.set("pn_runtime.extract_s", get("pn_runtime.extract"));
    out.set("eds_verify.check_s", get("eds_verify.check"));
    out.set("bounds.provider_s", get("bounds.provider"));
    out.set("sink.emit_s", get("sink.emit"));
    out.set("churn.materialize_s", get("churn.materialize"));
    out.set("churn.run_s", get("churn.run"));
    out.set("eds_lp.solve_s", get("eds_lp.solve"));
    out.set("eds_lp.cert_verify_s", get("eds_lp.cert_verify"));
    out.set("bounds.exact_s", get("bounds.exact"));
}

fn churn_metrics(records: &[SweepRecord], audits: u64, out: &mut Outcome) {
    let stats: Vec<_> = records.iter().filter_map(|r| r.churn).collect();
    let sum = |f: fn(&eds_scenarios::ChurnStats) -> usize| -> f64 {
        stats.iter().map(f).sum::<usize>() as f64
    };
    out.set("churn.recovery_rounds", sum(|c| c.recovery_rounds));
    out.set("churn.repair_messages", sum(|c| c.repair_messages));
    out.set("churn.escalations", sum(|c| c.escalations));
    if !stats.is_empty() {
        let repair_only = stats.iter().filter(|c| c.recovery_tier <= 1).count();
        out.set(
            "churn.repair_only_frac",
            repair_only as f64 / stats.len() as f64,
        );
    }
    out.set("churn.audits", audits as f64);
}

/// The bound provider's pieces on each static scenario: the exact EDS
/// solver within its budget, otherwise the LP dual certificate and its
/// independent check (LP provider) or the matching fallback.
#[derive(Default)]
struct BoundsPass {
    queries: u64,
    fallbacks: u64,
    lp_bounds: u64,
    lp_tighter: u64,
    /// Certificates that failed their independent check.
    invalid: u64,
}

impl BoundsPass {
    fn measure(&mut self, t: &mut Tracer, scenario: &Scenario, provider: &Provider) {
        let g = &scenario.simple;
        if g.is_edgeless() {
            return;
        }
        let limits = SweepConfig::default();
        let label = scenario.name();
        for objective in [DualObjective::EdgeDomination, DualObjective::VertexCover] {
            self.queries += 1;
            let within_exact = match objective {
                DualObjective::EdgeDomination => g.edge_count() <= limits.exact_edge_limit,
                DualObjective::VertexCover => g.node_count() <= limits.exact_vc_node_limit,
            };
            if within_exact {
                if objective == DualObjective::EdgeDomination {
                    t.time("bounds.exact", &label, None, || exact::minimum_eds_size(g));
                }
                continue;
            }
            if !matches!(provider, Provider::Lp(_)) {
                self.fallbacks += 1;
                continue;
            }
            let cert = t.time("eds_lp.solve", &label, None, || {
                dual_certificate(g, objective, &LpBudget::default())
            });
            if t.time("eds_lp.cert_verify", &label, None, || cert.verify(g))
                .is_err()
            {
                self.invalid += 1;
            }
            let matching = two_approx::two_approximation(g).len();
            let folklore = match objective {
                DualObjective::EdgeDomination => matching.div_ceil(2),
                DualObjective::VertexCover => matching,
            };
            self.lp_bounds += 1;
            if cert.source == CertificateSource::MatchingSeed {
                self.fallbacks += 1;
            }
            if cert.bound > folklore {
                self.lp_tighter += 1;
            }
        }
    }

    fn report(&self, out: &mut Outcome) {
        if self.invalid > 0 {
            out.fail(format!(
                "{} LP certificates failed their independent check",
                self.invalid
            ));
        }
        if self.queries > 0 {
            out.set(
                "bounds.fallback_frac",
                self.fallbacks as f64 / self.queries as f64,
            );
        }
        if self.lp_bounds > 0 {
            out.set(
                "bounds.lp_tighter_frac",
                self.lp_tighter as f64 / self.lp_bounds as f64,
            );
        }
    }
}
