//! Scenario sweep subsystem: one registry of workloads, one solver
//! service that runs every protocol across it and streams scored
//! results into pluggable sinks.
//!
//! The paper's theorems (3–5, the vertex-cover reduction, and the
//! identifier/randomised matching baselines) each promise a quality
//! bound on *every* port-numbered graph in their class. This crate turns
//! that promise into infrastructure:
//!
//! * [`scenario`] — the unified [`Scenario`] model: graph family × size
//!   × seed × port-numbering policy, covering every generator in
//!   `pn-graph` (classic, random, geometric, power-law), the
//!   covering-map lifts of Section 2.3, simple covers of multigraphs,
//!   and externally supplied instances ([`Scenario::external`]);
//! * [`registry`] — iterator-based scenario sets: [`Registry::full`]
//!   for sweeps, [`Registry::smoke`] for CI, [`Registry::conformance`]
//!   for the integration test matrix;
//! * [`protocol`] — the six distributed protocols behind one interface
//!   ([`Protocol::ALL`]), all executed through the zero-allocation
//!   `pn-runtime` engine;
//! * [`churn`] — dynamic scenarios: deterministic fault injection
//!   ([`ChurnPlan`]), epoch-barrier re-stabilisation on the runtime's
//!   churn simulator, and incremental witness repair with recovery
//!   accounting ([`ChurnStats`]);
//! * [`session`] — the solver service: a builder-style [`Session`]
//!   wiring scenario source × protocol portfolio × exact-solver budgets
//!   × pluggable [`BoundProvider`], its (scenario, protocol) cells
//!   sharded across threads by default with a deterministic in-order
//!   merge;
//! * [`bounds`] — the additional bound providers: [`LpBounds`]
//!   (certified, independently checked LP-relaxation dual bounds from
//!   `eds-lp`, never looser than the folklore matching bounds) and
//!   [`MmBounds`] (matching bounds only, constant cost);
//! * [`sink`] — where measurements go: [`RecordSink`] implementations
//!   for in-memory collection ([`VecSink`]), streaming JSON-lines
//!   reports ([`JsonLinesSink`]), constant-memory aggregation
//!   ([`AggregateSink`]) and fan-out ([`Tee`]);
//! * [`sweep`] — the shared vocabulary: [`SweepRecord`],
//!   [`sweep::paper_bound`], [`SweepConfig`];
//! * [`small`] — exhaustive enumeration of all connected graphs with
//!   `n ≤ 6` (one representative per isomorphism class), the substrate
//!   of the conformance suite.
//!
//! # Example
//!
//! Sweep the smoke registry and confirm the bounds hold everywhere:
//!
//! ```
//! use eds_scenarios::{Registry, Session, VecSink};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut sink = VecSink::new();
//! Session::over(Registry::smoke()).run(&mut sink)?;
//! assert!(sink.records.iter().all(|r| r.is_clean()));
//! # Ok(())
//! # }
//! ```
//!
//! # Adding a graph family
//!
//! 1. Add a variant to [`scenario::Family`] and wire its generator into
//!    `Family::simple` (or `ScenarioSpec::build` for covering-style
//!    constructions), `Family::key` and `Family::label`.
//! 2. List specs for it in [`Registry::full`] (and
//!    [`Registry::smoke`]/[`Registry::conformance`] if appropriate).
//!
//! Every consumer — the `scenario_sweep` binary, `eds-serve`, the
//! `perfbench` workloads and the integration tests — iterates the
//! registry through a [`Session`], so no other code changes.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bounds;
pub mod churn;
mod http;
mod metrics;
pub mod protocol;
pub mod registry;
pub mod scenario;
pub mod serve;
pub mod session;
pub mod sink;
pub mod small;
pub mod sweep;

pub use bounds::{BoundsMode, LpBounds, MmBounds};
pub use churn::{
    materialize, materialize_streamed, run_churn_with, ChurnPlan, ChurnRun, MaterializedChurn,
};
pub use protocol::{ExecOptions, Protocol, ProtocolRun, Solution, SweepError};
pub use registry::Registry;
pub use scenario::{relabel_nodes, Family, PortPolicy, Scenario, ScenarioSpec};
pub use serve::{canonical_form, CanonicalForm, ServeConfig, Server, StatsSnapshot};
pub use session::{BoundProvider, Bounds, ExactBounds, Session};
pub use sink::{AggregateSink, JsonLinesSink, RecordSink, Tee, VecSink};
pub use sweep::{ChurnStats, SweepConfig, SweepRecord};
