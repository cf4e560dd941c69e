//! Integration test: the recovery gate for dynamic scenarios.
//!
//! The churn harness promises three things, asserted here end to end
//! through the solver service:
//!
//! 1. **Safety after recovery** — on every [`Registry::churn`] workload,
//!    every protocol re-converges to a feasible solution at every
//!    quiescence point (no record carries a violation, none falls
//!    outside its bound), despite edge churn, crashes, joins and
//!    corruptions that wipe the maintained witness at a node.
//! 2. **Bounded recovery** — recovery work is local: the worst-burst
//!    recovery rounds never exceed the full run, and incremental repair
//!    touches only the damage frontier (message counts stay far below
//!    the protocol's own message total).
//! 3. **Determinism** — churn records are bit-identical across session
//!    shardings, and an empty schedule reproduces the static engine
//!    exactly.

use edge_dominating_sets::algorithms::repair::RecoveryPolicy;
use edge_dominating_sets::runtime::CancelToken;
use edge_dominating_sets::scenarios::{
    ChurnPlan, Family, PortPolicy, Registry, Scenario, ScenarioSpec, Session, SweepRecord,
};

/// The records of a session over `registry` on `threads` workers.
fn collect(registry: Registry, threads: usize) -> Vec<SweepRecord> {
    Session::over(registry)
        .threads(threads)
        .collect()
        .expect("churn session runs")
}

#[test]
fn churn_registry_reconverges_cleanly() {
    let records = collect(Registry::churn(), 1);
    assert!(!records.is_empty());
    for r in &records {
        assert!(
            r.is_clean(),
            "{} / {}: {:?}",
            r.scenario,
            r.protocol,
            r.violation
        );
        let churn = r.churn.expect("dynamic records carry churn stats");
        assert!(
            churn.events_applied > 0,
            "{}: no events applied",
            r.scenario
        );
        // Recovery is bounded by the run itself; repair is local, so its
        // message count stays below the protocol's own total.
        assert!(churn.recovery_rounds <= r.rounds, "{}", r.scenario);
        assert!(churn.repair_messages <= r.messages, "{}", r.scenario);
    }
    // The regular-odd protocol must not appear: churn breaks regularity.
    assert!(records.iter().all(|r| r.protocol != "regular-odd"));
}

/// A sharded session runs a churn scenario's protocols on different
/// workers, which share one drawn schedule and one projection of the
/// final topology; the records must equal the sequential ones.
#[test]
fn churn_records_are_bit_identical_across_shardings() {
    let baseline = collect(Registry::churn(), 1);
    for threads in [2usize, 4] {
        let records = collect(Registry::churn(), threads);
        assert_eq!(records.len(), baseline.len());
        for (a, b) in records.iter().zip(&baseline) {
            assert_eq!(a.to_json_line(), b.to_json_line(), "threads = {threads}");
        }
    }
}

#[test]
fn empty_schedule_reproduces_the_static_engine() {
    let base = Family::Petersen;
    let churn_spec = ScenarioSpec::new(
        Family::Churn {
            base: Box::new(base.clone()),
            plan: ChurnPlan::new(0, 0, 0),
        },
        0,
        PortPolicy::Shuffled,
    );
    let static_spec = ScenarioSpec::new(base, 0, PortPolicy::Shuffled);
    let churned = Session::new()
        .specs(vec![churn_spec])
        .sequential()
        .collect()
        .unwrap();
    let statics = Session::new()
        .specs(vec![static_spec])
        .sequential()
        .collect()
        .unwrap();
    // Regular-odd runs on static Petersen but is excluded under churn.
    let statics: Vec<_> = statics
        .into_iter()
        .filter(|r| r.protocol != "regular-odd")
        .collect();
    assert_eq!(churned.len(), statics.len());
    for (c, s) in churned.iter().zip(&statics) {
        assert_eq!(c.protocol, s.protocol);
        assert_eq!(c.rounds, s.rounds, "{}", c.protocol);
        assert_eq!(c.messages, s.messages, "{}", c.protocol);
        assert_eq!(c.size, s.size, "{}", c.protocol);
        assert_eq!(c.nodes, s.nodes);
        assert_eq!(c.edges, s.edges);
        assert_eq!(c.churn, Some(Default::default()));
        assert_eq!(s.churn, None);
        assert!(c.is_clean() && s.is_clean());
    }
}

#[test]
fn final_topology_is_shared_across_protocols() {
    // The event schedule depends only on the spec, so every protocol's
    // record reports the same final topology.
    let records = collect(Registry::churn(), 1);
    let mut by_scenario: std::collections::BTreeMap<&str, (usize, usize)> =
        std::collections::BTreeMap::new();
    for r in &records {
        let entry = by_scenario
            .entry(r.scenario.as_str())
            .or_insert((r.nodes, r.edges));
        assert_eq!(
            *entry,
            (r.nodes, r.edges),
            "{} / {}",
            r.scenario,
            r.protocol
        );
    }
}

#[test]
fn repair_first_recovery_survives_full_audits() {
    // Repair-first policy with every epoch audited: each burst recovers
    // by local witness repair, then a full re-stabilisation runs anyway
    // and the repaired witness must agree — feasible, and within the
    // paper bound of the fresh solution. Any divergence surfaces as a
    // record violation, so `is_clean` is the zero-divergence assertion
    // (audit fraction 1.0). The repair rules restore feasibility on every
    // damage frontier the runner builds, so no burst may escalate to a
    // full re-stabilisation: checked over 64 seeds of every registry base,
    // under its own plan and a heavier one.
    let heavier = ChurnPlan::new(6, 4, 2);
    let mut specs = Vec::new();
    for spec in Registry::churn().specs() {
        let Family::Churn { base, plan } = &spec.family else {
            panic!("{}: not a churn spec", spec.name());
        };
        for plan in [*plan, heavier] {
            for seed in 0..64 {
                let family = Family::Churn {
                    base: base.clone(),
                    plan,
                };
                specs.push(ScenarioSpec::new(family, seed, spec.policy));
            }
        }
    }
    let records = Session::new()
        .specs(specs)
        .sequential()
        .recovery_policy(RecoveryPolicy::repair_first())
        .collect()
        .expect("repair-first churn session runs");
    assert!(!records.is_empty());
    let mut repaired = 0usize;
    for r in &records {
        assert!(
            r.is_clean(),
            "{} / {}: {:?}",
            r.scenario,
            r.protocol,
            r.violation
        );
        let churn = r.churn.expect("dynamic records carry churn stats");
        assert!(
            churn.escalations == 0 && churn.recovery_tier <= 1,
            "{} / {}: escalated (tier {}, {} escalations)",
            r.scenario,
            r.protocol,
            churn.recovery_tier,
            churn.escalations
        );
        if churn.recovery_tier == 1 {
            repaired += 1;
            assert!(
                churn.frontier_nodes > 0,
                "{} / {}: recovery without a damage frontier",
                r.scenario,
                r.protocol
            );
        }
    }
    // The registry's schedules always damage something, so repair-first
    // actually exercises the repair rung somewhere.
    assert!(repaired > 0, "no record engaged the repair rung");
}

#[test]
fn cancelled_session_aborts_churn_runs() {
    let token = CancelToken::new();
    token.cancel();
    let result = Session::over(Registry::churn())
        .sequential()
        .cancel_token(token)
        .collect();
    assert!(result.is_err(), "pre-cancelled session must not complete");
}

#[test]
fn churn_scenarios_build_to_the_base_topology() {
    for spec in Registry::churn().specs() {
        let scenario: Scenario = spec.build().expect("churn spec builds");
        // The built graph is the *initial* topology; churn is applied by
        // the runner, not the builder.
        assert!(scenario.simple.node_count() > 0);
        assert!(spec.name().contains("churn("));
    }
}
