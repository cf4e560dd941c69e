//! The LP solver's global-registry telemetry series.
//!
//! [`record_solve`] folds one [`maximise`](crate::maximise) call into
//! the process-global [`eds_telemetry::global`] registry: a handful of
//! atomic adds per solve, none per pivot. The counters tell an aborted
//! solve (whose certificate silently degrades to the matching seed)
//! apart from a completed one, and a slow solve's pivot count apart
//! from its per-pivot cost. They render wherever the global registry
//! does (`scenario_sweep --stats`, `eds-serve`'s `/metrics`) and never
//! enter a record.

use std::sync::{Arc, OnceLock};

use eds_telemetry::Counter;

/// Handles to the solver series in the global registry.
struct LpMetrics {
    /// `eds_lp_solves_total`.
    solves: Arc<Counter>,
    /// `eds_lp_pivots_total`.
    pivots: Arc<Counter>,
    /// `eds_lp_aborts_total`.
    aborts: Arc<Counter>,
}

/// The one-time-registered handle set.
fn metrics() -> &'static LpMetrics {
    static METRICS: OnceLock<LpMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = eds_telemetry::global();
        LpMetrics {
            solves: registry.counter(
                "eds_lp_solves_total",
                "Exact simplex solves started (packing LPs).",
            ),
            pivots: registry.counter(
                "eds_lp_pivots_total",
                "Simplex pivots performed across all solves, aborted ones included.",
            ),
            aborts: registry.counter(
                "eds_lp_aborts_total",
                "Simplex solves abandoned (overflow, pivot budget or unbounded).",
            ),
        }
    })
}

/// Folds one finished solve — `pivots` performed, `aborted` or not —
/// into the global registry.
pub(crate) fn record_solve(pivots: usize, aborted: bool) {
    let m = metrics();
    m.solves.inc();
    if pivots > 0 {
        m.pivots.add(pivots as u64);
    }
    if aborted {
        m.aborts.inc();
    }
}
