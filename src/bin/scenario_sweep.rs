//! `scenario_sweep`: run every protocol across the scenario registry and
//! stream a JSON-lines quality report (`BENCH_scenarios.json`), which
//! `bench_diff` gates against the committed baseline.
//!
//! Usage:
//!
//! ```text
//! scenario_sweep [--smoke | --churn | --churn-scale [N]]
//!                [--out PATH] [--threads N] [--sequential]
//!                [--simulator-threads N] [--bounds exact|lp|mm] [--stats]
//! ```
//!
//! * `--smoke` sweeps the fast CI registry instead of the full matrix;
//! * `--churn` sweeps the dynamic-scenario gate ([`Registry::churn`]):
//!   every protocol survives edge churn, crashes, joins and adversarial
//!   state corruption, and the run fails if any record carries a
//!   violation — i.e. if any protocol failed to re-converge to a
//!   feasible solution at some quiescence point (the CI `churn-smoke`
//!   contract);
//! * `--churn-scale [N]` sweeps the streamed-tier churn gate
//!   ([`Registry::churn_scale`], default `N` = 1,000,000 nodes) under
//!   the repair-first recovery policy with every epoch audited against a
//!   full re-stabilisation. Beyond the violation gate, the run fails if
//!   any burst escalated past repair-only recovery or reached the full
//!   re-stabilisation rung — on the streamed tier, local witness repair
//!   is the contract, not a fast path (the CI `churn-scale-smoke`
//!   contract);
//! * `--out PATH` overrides the output path (default
//!   `BENCH_scenarios.json` in the current directory);
//! * `--threads N` sets the shard count (default: all cores);
//! * `--sequential` disables sharding (output is byte-identical either
//!   way — the sharded executor merges deterministically);
//! * `--simulator-threads N` routes every protocol run through the
//!   parallel simulator engine on `N` pool workers (`1` forces the
//!   sequential engine). By default each workload decides for itself:
//!   the registry's million-node specs carry scaled execution defaults,
//!   everything else runs sequentially;
//! * `--bounds` selects the reference bound provider: `lp` (exact
//!   optima within budget, certified LP-relaxation dual bounds beyond,
//!   each backed by an independently verified `DualCertificate` — the
//!   default, and the provider of the committed `BENCH_scenarios.json`
//!   baseline, so regenerate-and-diff works with no flags), `exact`
//!   (branch and bound within budget, folklore matching bounds
//!   beyond), or `mm` (matching bounds only, constant cost). Every
//!   record names its provider in the `bounds` JSON field;
//! * `--stats` dumps the process-global telemetry registry (simulator
//!   rounds and messages, session scenario/fallback counters) to stderr
//!   after the summary, in the same Prometheus text format `eds-serve`
//!   exposes on `/metrics`.
//!
//! Under `--bounds lp` two extra gates arm: the process exits non-zero
//! if any dual certificate fails the independent feasibility check, or
//! if any record carries a certified lower bound above its exact
//! optimum (either would be a bound-provider bug — this is the CI
//! `lp-bounds-smoke` contract). The inversion gate is active for every
//! provider.
//!
//! Nested-parallelism guidance: `--threads` shards *scenarios* across a
//! session's workers while `--simulator-threads` shards the *nodes* of
//! one scenario across the simulator's pool — don't multiply both. For
//! registry sweeps keep the default (scenario sharding); when measuring
//! a single huge instance, pass `--sequential --simulator-threads N` so
//! the simulator gets the cores. Either way the output is bit-identical
//! to the fully sequential run.
//!
//! The sweep runs through the [`eds_scenarios::Session`] solver service
//! with two sinks: a streaming [`JsonLinesSink`] writing each record to
//! disk as it completes (no in-memory record accumulation), and an
//! [`AggregateSink`] producing the per-protocol stderr summary. The
//! process exits non-zero if any record is unclean (an infeasible
//! solution or a proven approximation-bound violation), so CI can gate
//! on quality regressions exactly like on test failures.
//!
//! The report is written crash-safely: records stream into `PATH.tmp`,
//! which is fsynced and atomically renamed onto `PATH` only after the
//! sweep finishes. A sweep killed mid-run (or failing its gates) leaves
//! any previously committed report untouched, so `bench_diff` never
//! sees a truncated baseline. Targets that can't be atomically replaced
//! (`--out /dev/stdout`, FIFOs, other non-regular files) are written
//! straight through instead — renaming over a device node would replace
//! the device, not the report.

use std::io::BufWriter;
use std::process::ExitCode;

use edge_dominating_sets::algorithms::repair::RecoveryPolicy;
use edge_dominating_sets::scenarios::{
    AggregateSink, BoundsMode, JsonLinesSink, RecordSink, Registry, Session, SweepRecord, Tee,
};

/// Tracks the churn-recovery fields that gate `--churn-scale`: the
/// streamed tier must recover by local repair alone.
#[derive(Default)]
struct ScaleGate {
    escalations: usize,
    worst_tier: usize,
}

impl RecordSink for ScaleGate {
    fn record(&mut self, record: SweepRecord) {
        if let Some(c) = &record.churn {
            self.escalations += c.escalations;
            self.worst_tier = self.worst_tier.max(c.recovery_tier);
        }
    }
}

fn main() -> ExitCode {
    let mut smoke = false;
    let mut churn = false;
    let mut churn_scale: Option<usize> = None;
    let mut stats = false;
    let mut out = "BENCH_scenarios.json".to_owned();
    let mut threads: Option<usize> = None;
    let mut simulator_threads: Option<usize> = None;
    // The committed baseline is generated with the LP provider, so the
    // no-flags sweep regenerates it compatibly.
    let mut bounds = BoundsMode::Lp;
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--churn" => churn = true,
            "--churn-scale" => {
                // The node count is optional: `--churn-scale 131072`
                // shrinks the tier for CI; bare `--churn-scale` runs the
                // full million.
                let n = args.peek().and_then(|v| v.parse::<usize>().ok());
                if n.is_some() {
                    args.next();
                }
                churn_scale = Some(n.unwrap_or(1_000_000));
            }
            "--stats" => stats = true,
            "--sequential" => threads = Some(1),
            "--bounds" => match args.next() {
                Some(mode) => match BoundsMode::parse(&mode) {
                    Some(m) => bounds = m,
                    None => {
                        eprintln!(
                            "unknown --bounds mode {mode:?} (expected one of {})",
                            BoundsMode::NAMES.join(", ")
                        );
                        return ExitCode::from(2);
                    }
                },
                None => {
                    eprintln!(
                        "--bounds requires a mode ({})",
                        BoundsMode::NAMES.join(", ")
                    );
                    return ExitCode::from(2);
                }
            },
            "--threads" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => threads = Some(n),
                None => {
                    eprintln!("--threads requires a number");
                    return ExitCode::from(2);
                }
            },
            "--simulator-threads" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => simulator_threads = Some(n),
                None => {
                    eprintln!("--simulator-threads requires a number");
                    return ExitCode::from(2);
                }
            },
            "--out" => match args.next() {
                Some(path) => out = path,
                None => {
                    eprintln!("--out requires a path");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: scenario_sweep [--smoke | --churn | --churn-scale [N]] \
                     [--out PATH] [--threads N] [--sequential] [--simulator-threads N] \
                     [--bounds exact|lp|mm] [--stats]"
                );
                return ExitCode::from(2);
            }
        }
    }
    if usize::from(smoke) + usize::from(churn) + usize::from(churn_scale.is_some()) > 1 {
        eprintln!(
            "--smoke, --churn and --churn-scale select different registries; pass at most one"
        );
        return ExitCode::from(2);
    }

    let (registry, label) = if let Some(n) = churn_scale {
        (Registry::churn_scale(n), "churn-scale")
    } else if churn {
        (Registry::churn(), "churn")
    } else if smoke {
        (Registry::smoke(), "smoke")
    } else {
        (Registry::full(), "full")
    };
    eprintln!(
        "sweeping {} scenarios across {} families ({label})",
        registry.len(),
        registry.family_keys().len(),
    );

    // Stream into a sibling temp file; the committed report is replaced
    // only by the atomic rename after a fully successful sweep. Streams
    // and devices (`--out /dev/stdout`, FIFOs) can't be atomically
    // replaced — and renaming over them would swap out the node itself —
    // so anything that isn't a regular file is written straight through.
    let atomic = match std::fs::symlink_metadata(&out) {
        Ok(meta) => meta.is_file(),
        Err(_) => true,
    };
    let tmp = if atomic {
        format!("{out}.tmp")
    } else {
        out.clone()
    };
    let file = match std::fs::File::create(&tmp) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cannot create {tmp}: {e}");
            return ExitCode::from(1);
        }
    };
    let mut sink = Tee::new(
        JsonLinesSink::new(BufWriter::new(file)),
        Tee::new(AggregateSink::new(), ScaleGate::default()),
    );

    // In LP mode the returned handle shares the provider's
    // infeasible-certificate counter, which gates the exit code below.
    let (mut session, lp) = bounds.install(Session::over(registry));
    if churn_scale.is_some() {
        // The streamed tier runs repair-first with every epoch audited:
        // any escalation or audit divergence fails the run below.
        session = session.recovery_policy(RecoveryPolicy::repair_first());
    }
    if let Some(n) = threads {
        session = session.threads(n);
    }
    if let Some(n) = simulator_threads {
        session = session.simulator_threads(n);
    }
    if let Err(e) = session.run(&mut sink) {
        eprintln!("sweep failed: {e}");
        if atomic {
            let _ = std::fs::remove_file(&tmp);
        }
        return ExitCode::from(1);
    }

    let aggregate = sink.second.first;
    let gate = sink.second.second;
    // Flush the summary line, fsync, and only then swap the report in.
    let committed = sink
        .first
        .finish()
        .and_then(|w| w.into_inner().map_err(|e| e.into_error()))
        .and_then(|f| if atomic { f.sync_all() } else { Ok(()) })
        .and_then(|()| {
            if atomic {
                std::fs::rename(&tmp, &out)
            } else {
                Ok(())
            }
        });
    if let Err(e) = committed {
        eprintln!("cannot write {out}: {e}");
        if atomic {
            let _ = std::fs::remove_file(&tmp);
        }
        return ExitCode::from(1);
    }

    // Per-protocol summary on stderr: worst certified ratio and bound
    // compliance, in the spirit of the paper's Table 1.
    eprint!("{}", aggregate.render_table());
    eprintln!(
        "{} records over {} families (bounds: {}) -> {out}",
        aggregate.records(),
        aggregate.families().len(),
        aggregate.bound_providers().join("+"),
    );
    if stats {
        // The runtime and the session publish into the process-global
        // registry as the sweep runs; render the snapshot in the same
        // Prometheus text format `eds-serve` exposes on `/metrics`.
        eprint!("{}", eds_telemetry::global().render());
    }

    let mut failed = false;
    if churn_scale.is_some() && (gate.escalations > 0 || gate.worst_tier >= 3) {
        eprintln!(
            "streamed churn escalated past repair-only recovery \
             ({} escalations, worst tier {}) — failing",
            gate.escalations, gate.worst_tier
        );
        failed = true;
    }
    if aggregate.violations() > 0 {
        eprintln!("{} unclean records — failing", aggregate.violations());
        failed = true;
    }
    if aggregate.bound_inversions() > 0 {
        eprintln!(
            "{} records with lower_bound > optimum (bound-provider bug) — failing",
            aggregate.bound_inversions()
        );
        failed = true;
    }
    if let Some(lp) = &lp {
        if lp.infeasible_certificates() > 0 {
            eprintln!(
                "{} dual certificates failed independent verification — failing",
                lp.infeasible_certificates()
            );
            failed = true;
        }
    }
    if failed {
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
