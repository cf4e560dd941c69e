//! The runtime's global-registry telemetry series.
//!
//! Everything here aggregates **per run**, not per message: the round
//! loops accumulate into plain locals (see [`RunFlush`]) and fold them
//! into the process-global [`eds_telemetry::global`] registry exactly
//! once, when the run ends — on any exit path, including errors, via
//! `Drop`. The steady-state cost added to a round is a handful of
//! integer adds; the per-message cost is zero atomics.

use std::sync::{Arc, OnceLock};

use eds_telemetry::{Counter, Histogram, LocalHistogram};

/// Handles to the runtime's series in the global registry.
pub(crate) struct RuntimeMetrics {
    /// `eds_runtime_runs_total`.
    pub runs: Arc<Counter>,
    /// `eds_runtime_rounds_total`.
    pub rounds: Arc<Counter>,
    /// `eds_runtime_messages_total`.
    pub messages: Arc<Counter>,
    /// `eds_runtime_frontier_nodes` — active-frontier size observed at
    /// the top of each round.
    pub frontier: Arc<Histogram>,
    /// `eds_runtime_churn_epochs_total`.
    pub churn_epochs: Arc<Counter>,
}

/// The one-time-registered handle set.
pub(crate) fn metrics() -> &'static RuntimeMetrics {
    static METRICS: OnceLock<RuntimeMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = eds_telemetry::global();
        RuntimeMetrics {
            runs: registry.counter("eds_runtime_runs_total", "Simulation runs started."),
            rounds: registry.counter(
                "eds_runtime_rounds_total",
                "Communication rounds executed across all runs.",
            ),
            messages: registry.counter(
                "eds_runtime_messages_total",
                "Messages routed across all runs.",
            ),
            frontier: registry.histogram(
                "eds_runtime_frontier_nodes",
                "Active-node frontier size at the top of each round.",
            ),
            churn_epochs: registry.counter(
                "eds_runtime_churn_epochs_total",
                "Churn epochs stabilized by the dynamic-graph driver.",
            ),
        }
    })
}

/// Per-run local aggregates, flushed to the global registry on drop —
/// one atomic add per non-zero field per run, whatever the exit path.
pub(crate) struct RunFlush {
    pub rounds: u64,
    pub messages: u64,
    pub frontier: LocalHistogram,
}

impl RunFlush {
    /// A fresh aggregate for one run.
    pub fn new() -> Self {
        RunFlush {
            rounds: 0,
            messages: 0,
            frontier: LocalHistogram::new(),
        }
    }
}

impl Drop for RunFlush {
    fn drop(&mut self) {
        let m = metrics();
        m.runs.inc();
        if self.rounds > 0 {
            m.rounds.add(self.rounds);
        }
        if self.messages > 0 {
            m.messages.add(self.messages);
        }
        self.frontier.flush(&m.frontier);
    }
}
