//! Integration test: the streamed-tier churn gate.
//!
//! [`Registry::churn_scale`] runs churn over the million-node streamed
//! bases through [`DynamicTopology`], which overlays the event schedule
//! on the borrowed base graph instead of materialising a second full
//! copy. Under the repair-first recovery policy every burst must
//! recover by local witness repair — escalation to a full
//! re-stabilisation fails the gate — and every epoch is audited
//! against a fresh full re-stabilisation with zero divergences.
//!
//! The debug-profile test keeps the tier at a CI-friendly size; the
//! release-only test runs the full million-node acceptance check,
//! including the headline ratio: repair messages at most 1% of the full
//! re-stabilisation message volume.

use edge_dominating_sets::algorithms::repair::RecoveryPolicy;
use edge_dominating_sets::scenarios::{Protocol, Registry, Session, SweepRecord};

fn sweep_scale(n: usize, protocols: &[Protocol]) -> Vec<SweepRecord> {
    Session::over(Registry::churn_scale(n))
        .sequential()
        .protocols(protocols)
        .recovery_policy(RecoveryPolicy::repair_first())
        .collect()
        .expect("streamed churn session runs")
}

fn assert_repair_only(records: &[SweepRecord], max_message_fraction: Option<usize>) {
    assert!(!records.is_empty());
    for r in records {
        assert!(
            r.is_clean(),
            "{} / {}: {:?}",
            r.scenario,
            r.protocol,
            r.violation
        );
        let churn = r.churn.expect("dynamic records carry churn stats");
        assert!(churn.events_applied > 0, "{}: no events", r.scenario);
        // The streamed tier must never leave the repair rung: tier 0
        // (untouched) or 1 (repair), zero escalations.
        assert!(
            churn.escalations == 0 && churn.recovery_tier <= 1,
            "{} / {}: escalated (tier {}, {} escalations)",
            r.scenario,
            r.protocol,
            churn.recovery_tier,
            churn.escalations
        );
        if let Some(denom) = max_message_fraction {
            // Repair locality: frontier-confined repair traffic is a
            // vanishing fraction of the full re-stabilisation volume the
            // audits measure on the same epochs.
            assert!(
                churn.repair_messages <= r.messages / denom,
                "{} / {}: repair {} vs full {}",
                r.scenario,
                r.protocol,
                churn.repair_messages,
                r.messages
            );
        }
    }
}

#[test]
fn streamed_churn_recovers_by_repair_alone() {
    // Debug-profile tier: large enough that the damage frontier is a
    // vanishing fraction of n (so the ladder genuinely chooses repair),
    // small enough for the unoptimised build.
    let records = sweep_scale(32_768, &[Protocol::PortOne, Protocol::VertexCover]);
    assert_repair_only(&records, Some(100));
}

/// The full acceptance run: a million-node streamed base, repair-first,
/// every epoch audited, repair messages ≤ 1% of the full volume. Debug
/// builds skip it — the unoptimised simulator would dominate CI time.
#[cfg(not(debug_assertions))]
#[test]
fn million_node_streamed_churn_meets_the_repair_budget() {
    let records = sweep_scale(1_000_000, &[Protocol::PortOne]);
    assert_repair_only(&records, Some(100));
}
