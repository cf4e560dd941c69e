//! The session layer's global-registry telemetry series.
//!
//! Counters here describe solver-service work — scenarios measured,
//! records emitted, reference-bound queries — and live in the
//! process-global [`eds_telemetry::global`] registry next to the
//! runtime's series. The serve daemon's per-server request counters
//! deliberately do *not* live here: see `serve::ServerMetrics`.

use std::sync::{Arc, OnceLock};

use eds_telemetry::{Counter, Histogram};

/// Handles to the session series in the global registry.
pub(crate) struct SessionMetrics {
    /// `eds_session_scenarios_total`.
    pub scenarios: Arc<Counter>,
    /// `eds_session_records_total`.
    pub records: Arc<Counter>,
    /// `eds_session_bound_calls_total`.
    pub bound_calls: Arc<Counter>,
    /// `eds_session_bound_fallbacks_total`.
    pub bound_fallbacks: Arc<Counter>,
}

/// The one-time-registered handle set.
pub(crate) fn session_metrics() -> &'static SessionMetrics {
    static METRICS: OnceLock<SessionMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = eds_telemetry::global();
        SessionMetrics {
            scenarios: registry.counter(
                "eds_session_scenarios_total",
                "Scenarios measured by solver sessions.",
            ),
            records: registry.counter(
                "eds_session_records_total",
                "Sweep records emitted to sinks.",
            ),
            bound_calls: registry.counter(
                "eds_session_bound_calls_total",
                "Reference-bound provider queries (per objective per scenario).",
            ),
            bound_fallbacks: registry.counter(
                "eds_session_bound_fallbacks_total",
                "Bound queries answered without an exact optimum (folklore fallback).",
            ),
        }
    })
}

/// Handles to the churn-recovery repair series in the global registry.
pub(crate) struct RepairMetrics {
    /// `eds_repair_frontier_nodes` — damage-frontier size per burst.
    pub frontier_nodes: Arc<Histogram>,
    /// `eds_repair_rounds` — local repair passes per burst.
    pub repair_rounds: Arc<Histogram>,
    /// `eds_repair_escalations_total` — bursts escalated past the
    /// repair-only rung to a full re-stabilisation.
    pub escalations: Arc<Counter>,
    /// `eds_repair_audits_total` — sampled-epoch audits executed.
    pub audits: Arc<Counter>,
    /// `eds_repair_audit_divergence_total` — audits where the repaired
    /// witness diverged from the full re-stabilisation contract.
    pub divergences: Arc<Counter>,
}

/// The one-time-registered repair handle set.
pub(crate) fn repair_metrics() -> &'static RepairMetrics {
    static METRICS: OnceLock<RepairMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = eds_telemetry::global();
        RepairMetrics {
            frontier_nodes: registry.histogram(
                "eds_repair_frontier_nodes",
                "Damage-frontier sizes (nodes) per churn burst.",
            ),
            repair_rounds: registry.histogram(
                "eds_repair_rounds",
                "Local witness-repair passes per churn burst.",
            ),
            escalations: registry.counter(
                "eds_repair_escalations_total",
                "Churn bursts escalated past repair-only recovery.",
            ),
            audits: registry.counter(
                "eds_repair_audits_total",
                "Sampled-epoch audits executed against full re-stabilisation.",
            ),
            divergences: registry.counter(
                "eds_repair_audit_divergence_total",
                "Sampled-epoch audits where the repaired witness diverged.",
            ),
        }
    })
}
