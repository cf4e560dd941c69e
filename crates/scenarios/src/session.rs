//! The solver service: a builder-style [`Session`] that wires a scenario
//! source, a protocol portfolio, exact-solver budgets and a pluggable
//! [`BoundProvider`] together, and streams every measurement through a
//! [`RecordSink`](crate::sink::RecordSink).
//!
//! # The execution model
//!
//! A session enumerates its scenario source in order; for each scenario
//! it runs every applicable protocol of the portfolio and assembles one
//! [`SweepRecord`] per run. Records are pushed into the sink — never
//! collected — so the memory footprint of a sweep is the sink's, not the
//! session's.
//!
//! By default the session is **sharded**. Its unit of work is a
//! (scenario, protocol) *cell*, one simulator run: scoped worker threads
//! claim cells scenario by scenario, and the first worker to reach a
//! scenario builds it for all its cells. The cells share the built
//! graph, its reference bounds and, for churn, the drawn schedule and
//! the projection of the final topology; the last cell to finish drops
//! them. A deterministic in-order merge feeds the sink on the calling
//! thread. It emits whole scenarios strictly in source order and each
//! scenario's records in portfolio order, so the sink observes
//! **exactly** the sequential stream — the sharded and sequential paths
//! are byte-identical, a property the test suite asserts on every
//! registry. Back-pressure bounds the merge buffer: workers stall once
//! they reach a few scenarios ahead of the emitter. Each run itself is
//! sequential; parallelism comes only from running cells side by side.
//!
//! # Bound providers
//!
//! Reference optima and certified lower bounds come from a
//! [`BoundProvider`]. The default, [`ExactBounds`], runs the exact
//! branch-and-bound solvers within the [`SweepConfig`] budgets and falls
//! back to the maximal-matching folklore bounds (`⌈|MM|/2⌉` for edge
//! dominating sets, `|MM|` for vertex covers). Plugging in a different
//! provider — an LP relaxation, a cached optimum table — changes every
//! consumer at once without touching the drivers.
//!
//! # Example
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

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use eds_baselines::exact;
use eds_baselines::two_approx;
use pn_runtime::CancelToken;

use crate::churn::{materialize_scenario, run_materialized, MaterializedChurn};
use crate::metrics::session_metrics;
use crate::protocol::{ExecOptions, Protocol, ProtocolRun, Solution, SweepError};
use crate::registry::Registry;
use crate::scenario::{Family, Scenario, ScenarioSpec};
use crate::sink::RecordSink;
use crate::sweep::{paper_bound, SweepConfig, SweepRecord};
use eds_core::repair::RecoveryPolicy;

/// Reference bounds for one objective on one scenario.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Bounds {
    /// The exact optimum, when the provider can afford it.
    pub optimum: Option<usize>,
    /// A certified lower bound on the optimum (equal to the optimum
    /// when it is known).
    pub lower_bound: usize,
}

/// Supplies reference optima and certified lower bounds for the two
/// objectives the portfolio optimises. Implementations must be
/// thread-safe: the sharded executor calls them from worker threads.
pub trait BoundProvider: Send + Sync {
    /// Bounds for the minimum edge dominating set objective.
    fn eds_bounds(&self, scenario: &Scenario) -> Bounds;
    /// Bounds for the minimum vertex cover objective.
    fn vc_bounds(&self, scenario: &Scenario) -> Bounds;
    /// A short stable name recorded in every [`SweepRecord`] this
    /// provider scores (`"exact"`, `"lp"`, `"mm"`, ...), so reports are
    /// self-describing about where their reference bounds came from.
    fn name(&self) -> &'static str {
        "custom"
    }
}

/// The default provider: exact branch-and-bound within the
/// [`SweepConfig`] budgets, maximal-matching lower bounds beyond them.
///
/// A maximal matching `MM` is both an EDS witness (`|MM| ≤ 2·OPT_eds`,
/// so `OPT_eds ≥ ⌈|MM|/2⌉`) and a VC witness (`OPT_vc ≥ |MM|`) — the
/// LP-relaxation folklore bounds.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExactBounds {
    /// Budgets for the exact solvers.
    pub config: SweepConfig,
}

impl ExactBounds {
    /// A provider with explicit budgets.
    pub fn new(config: SweepConfig) -> Self {
        ExactBounds { config }
    }
}

impl BoundProvider for ExactBounds {
    fn eds_bounds(&self, scenario: &Scenario) -> Bounds {
        let optimum = (scenario.simple.edge_count() <= self.config.exact_edge_limit)
            .then(|| exact::minimum_eds_size(&scenario.simple));
        let lower_bound = optimum.unwrap_or_else(|| {
            two_approx::two_approximation(&scenario.simple)
                .len()
                .div_ceil(2)
        });
        Bounds {
            optimum,
            lower_bound,
        }
    }

    fn vc_bounds(&self, scenario: &Scenario) -> Bounds {
        let optimum = (scenario.simple.node_count() <= self.config.exact_vc_node_limit)
            .then(|| exact_min_vertex_cover(scenario));
        let lower_bound =
            optimum.unwrap_or_else(|| two_approx::two_approximation(&scenario.simple).len());
        Bounds {
            optimum,
            lower_bound,
        }
    }

    fn name(&self) -> &'static str {
        "exact"
    }
}

/// Exact minimum vertex cover size by subset enumeration (small `n`).
pub(crate) fn exact_min_vertex_cover(scenario: &Scenario) -> usize {
    let g = &scenario.simple;
    let n = g.node_count();
    assert!(
        n <= 24,
        "exact VC enumerates 2^n subsets; n = {n} is too big"
    );
    (0u64..(1 << n))
        .filter(|mask| {
            g.edges()
                .all(|(_, u, v)| mask & (1 << u.index()) != 0 || mask & (1 << v.index()) != 0)
        })
        .map(|mask| mask.count_ones() as usize)
        .min()
        .unwrap_or(0)
}

/// One completed measurement: the record plus the raw solution (handed
/// to [`RecordSink::solution`], then dropped).
struct Measurement {
    record: SweepRecord,
    solution: Solution,
}

/// Lazily memoised per-scenario reference bounds. A scenario's bounds
/// are protocol-independent, so a session queries its provider at most
/// once per objective per scenario — not once per record — which
/// matters when the provider runs an exact solver or the LP simplex.
/// Cells on different workers share one instance; a cell that needs a
/// bound another cell is computing waits for it.
struct ScenarioBounds<'a> {
    provider: &'a dyn BoundProvider,
    eds: OnceLock<Bounds>,
    vc: OnceLock<Bounds>,
}

impl<'a> ScenarioBounds<'a> {
    fn new(provider: &'a dyn BoundProvider) -> Self {
        ScenarioBounds {
            provider,
            eds: OnceLock::new(),
            vc: OnceLock::new(),
        }
    }

    fn eds(&self, scenario: &Scenario) -> Bounds {
        *self
            .eds
            .get_or_init(|| Self::counted(self.provider.eds_bounds(scenario)))
    }

    fn vc(&self, scenario: &Scenario) -> Bounds {
        *self
            .vc
            .get_or_init(|| Self::counted(self.provider.vc_bounds(scenario)))
    }

    /// Telemetry tap on each provider query: every call counts, and a
    /// query the provider could not answer with an exact optimum counts
    /// as a fallback to the certified lower bound.
    fn counted(bounds: Bounds) -> Bounds {
        let metrics = session_metrics();
        metrics.bound_calls.inc();
        if bounds.optimum.is_none() {
            metrics.bound_fallbacks.inc();
        }
        bounds
    }
}

/// One scenario as its cells share it: built once, scored against one
/// set of reference bounds and, for churn, driven through one drawn
/// schedule and scored on one projection of the final topology.
struct Prepared<'a> {
    scenario: Cow<'a, Scenario>,
    bounds: ScenarioBounds<'a>,
    /// A churn scenario's event schedule, drawn by its first cell.
    schedule: OnceLock<Result<MaterializedChurn, SweepError>>,
    /// A churn scenario's final topology and its projection, built by
    /// the first cell to finish its run. The schedule alone fixes the
    /// final graph, so every cell would build the same one.
    scored: OnceLock<Result<Scenario, SweepError>>,
}

/// A scenario's place in the sharded executor: its prepared state
/// (or build error) once a cell reaches it, and the count of its cells
/// still running or unclaimed.
struct Slot<'a> {
    prepared: Option<Result<Arc<Prepared<'a>>, SweepError>>,
    pending: usize,
}

/// What a session enumerates.
enum Source {
    /// Cheap specs, each materialised by the first worker that claims
    /// one of its cells.
    Specs(Vec<ScenarioSpec>),
    /// Pre-built scenarios (external instances, hand-crafted numberings).
    Built(Vec<Scenario>),
}

impl Source {
    fn len(&self) -> usize {
        match self {
            Source::Specs(s) => s.len(),
            Source::Built(s) => s.len(),
        }
    }
}

/// The builder-style solver service; see the [module docs](self).
pub struct Session {
    source: Source,
    protocols: Vec<Protocol>,
    bounds: Arc<dyn BoundProvider>,
    threads: usize,
    /// Session-level execution overrides. `None` defers to each spec's
    /// own [`ScenarioSpec::exec`] defaults (and to [`ExecOptions::default`]
    /// beyond that); `Some` wins over both.
    delta: Option<usize>,
    cancel: Option<CancelToken>,
    recovery: RecoveryPolicy,
}

impl Default for Session {
    fn default() -> Self {
        Session::new()
    }
}

impl Session {
    /// An empty session: no scenarios, the full [`Protocol::ALL`]
    /// portfolio, default budgets, sharding across all available cores.
    pub fn new() -> Self {
        Session {
            source: Source::Specs(Vec::new()),
            protocols: Protocol::ALL.to_vec(),
            bounds: Arc::new(ExactBounds::default()),
            threads: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
            delta: None,
            cancel: None,
            recovery: RecoveryPolicy::default(),
        }
    }

    /// A session over a registry — the common entry point.
    pub fn over(registry: Registry) -> Self {
        Session::new().registry(registry)
    }

    /// Replaces the scenario source with a registry's specs.
    pub fn registry(mut self, registry: Registry) -> Self {
        self.source = Source::Specs(registry.specs().to_vec());
        self
    }

    /// Replaces the scenario source with explicit specs.
    pub fn specs(mut self, specs: Vec<ScenarioSpec>) -> Self {
        self.source = Source::Specs(specs);
        self
    }

    /// Replaces the scenario source with pre-built scenarios (external
    /// instances, hand-crafted numberings).
    pub fn scenarios(mut self, scenarios: Vec<Scenario>) -> Self {
        self.source = Source::Built(scenarios);
        self
    }

    /// Restricts the protocol portfolio (default: [`Protocol::ALL`]).
    pub fn protocols(mut self, protocols: &[Protocol]) -> Self {
        self.protocols = protocols.to_vec();
        self
    }

    /// Sets the exact-solver budgets for the default [`ExactBounds`]
    /// provider (no effect on a custom provider installed *before* this
    /// call — install budgets first, then the provider).
    pub fn config(mut self, config: SweepConfig) -> Self {
        self.bounds = Arc::new(ExactBounds::new(config));
        self
    }

    /// Installs a custom reference-bound provider (LP bounds, cached
    /// optima, ...).
    pub fn bounds(mut self, provider: impl BoundProvider + 'static) -> Self {
        self.bounds = Arc::new(provider);
        self
    }

    /// Sets the number of worker threads that run (scenario, protocol)
    /// cells side by side (default: all available cores). `1` runs fully
    /// sequentially on the calling thread.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Forces the sequential path — shorthand for `threads(1)`.
    pub fn sequential(self) -> Self {
        self.threads(1)
    }

    /// Overrides the claimed degree bound handed to the `Δ`-parametrised
    /// protocols (default: each instance's maximum degree).
    pub fn delta_hint(mut self, delta: usize) -> Self {
        self.delta = Some(delta);
        self
    }

    /// Installs a cooperative cancellation token: every protocol run the
    /// session drives polls it between simulator rounds and aborts with
    /// a [`SweepError::Runtime`] carrying
    /// [`pn_runtime::RuntimeError::Cancelled`] once it fires — so a
    /// caller-side deadline stops a solve mid-run instead of merely
    /// gating admission.
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Sets the churn-recovery escalation policy for every dynamic
    /// scenario the session drives (default: [`RecoveryPolicy::default`]
    /// — repair when the frontier stays under a quarter of the graph,
    /// audit a quarter of the repaired epochs). Static scenarios ignore
    /// it.
    pub fn recovery_policy(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = policy;
        self
    }

    /// The effective execution knobs for one scenario: session-level
    /// overrides win, then the spec's own defaults, then
    /// [`ExecOptions::default`].
    fn exec_for(&self, scenario: &Scenario) -> ExecOptions {
        let spec = scenario.spec.exec.unwrap_or_default();
        ExecOptions {
            delta: self.delta.or(spec.delta),
        }
    }

    /// Measures one protocol on one scenario with this session's
    /// configuration, returning the record directly (no sink). This is
    /// the one-off entry point for tests and tools that assemble their
    /// own scenarios.
    ///
    /// # Errors
    ///
    /// Propagates execution errors; none occur when
    /// [`Protocol::applicable`] holds.
    pub fn measure(
        &self,
        scenario: &Scenario,
        protocol: Protocol,
    ) -> Result<SweepRecord, SweepError> {
        let bounds = ScenarioBounds::new(self.bounds.as_ref());
        self.measure_one(scenario, protocol, &bounds)
            .map(|m| m.record)
    }

    /// Runs the session, streaming every measurement into `sink` in
    /// deterministic source order. Sharded by default; the sink always
    /// observes the exact sequential stream.
    ///
    /// # Errors
    ///
    /// Propagates the first scenario build or execution error, in source
    /// order (records of earlier scenarios are still delivered, none of
    /// the failing scenario's).
    pub fn run<S: RecordSink + ?Sized>(&self, sink: &mut S) -> Result<(), SweepError> {
        let total = self.source.len();
        let workers = self.threads.min(total * self.protocols.len());
        if workers > 1 {
            return self.run_sharded(sink, total, workers);
        }
        for index in 0..total {
            let prepared = self.prepare(index)?;
            let mut batch = Vec::new();
            for &protocol in &self.protocols {
                batch.extend(self.measure_cell(&prepared, protocol)?);
            }
            emit(sink, batch);
        }
        Ok(())
    }

    /// Convenience wrapper: runs the session into a fresh
    /// [`crate::sink::VecSink`] and returns the collected records.
    ///
    /// # Errors
    ///
    /// Same as [`Session::run`].
    pub fn collect(&self) -> Result<Vec<SweepRecord>, SweepError> {
        let mut sink = crate::sink::VecSink::new();
        self.run(&mut sink)?;
        Ok(sink.into_records())
    }

    /// The order in which workers claim a scenario's cells, as positions
    /// in the portfolio: the identifier-model matching first, then the
    /// rest in portfolio order. On the million-node graphs it is the
    /// longest run, about 2 s on the cycle and 4 s on the cubic graph;
    /// claimed fifth, in portfolio order, it would start late and run on
    /// alone while the other workers idle.
    fn claim_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.protocols.len()).collect();
        order.sort_by_key(|&i| self.protocols[i] != Protocol::IdMatching);
        order
    }

    /// The sharded executor: workers claim (scenario, protocol) cells
    /// from an atomic cursor, scenario by scenario and in
    /// [`Session::claim_order`] within each, measure them, and publish
    /// into an ordered merge buffer. The calling thread waits for every
    /// cell of the next scenario and feeds the whole scenario to the sink
    /// in portfolio order. Back-pressure (workers stall on a cell
    /// `2 × workers` scenarios ahead of the emitter) bounds the buffer.
    fn run_sharded<S: RecordSink + ?Sized>(
        &self,
        sink: &mut S,
        total: usize,
        workers: usize,
    ) -> Result<(), SweepError> {
        type Cell = Result<Option<Measurement>, SweepError>;
        struct Merge {
            /// Finished cells of scenarios not yet emitted, by scenario,
            /// each vector indexed by portfolio position.
            done: BTreeMap<usize, Vec<Option<Cell>>>,
            emitted: usize,
            abort: bool,
        }
        let width = self.protocols.len();
        let claim = self.claim_order();
        let slots: Vec<Mutex<Slot<'_>>> = (0..total)
            .map(|_| {
                Mutex::new(Slot {
                    prepared: None,
                    pending: width,
                })
            })
            .collect();
        let cursor = AtomicUsize::new(0);
        let merge = Mutex::new(Merge {
            done: BTreeMap::new(),
            emitted: 0,
            abort: false,
        });
        let ready = Condvar::new();
        let inflight_cap = 2 * workers;

        let mut outcome: Result<(), SweepError> = Ok(());
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let claimed = cursor.fetch_add(1, Ordering::Relaxed);
                    if claimed >= total * width {
                        return;
                    }
                    let (index, position) = (claimed / width, claim[claimed % width]);
                    // Back-pressure: stay within the merge window.
                    {
                        let mut st = merge.lock().expect("merge lock");
                        while !st.abort && index >= st.emitted + inflight_cap {
                            st = ready.wait(st).expect("merge lock");
                        }
                        if st.abort {
                            return;
                        }
                    }
                    let result = self.run_cell(&slots[index], index, self.protocols[position]);
                    let mut st = merge.lock().expect("merge lock");
                    let abort = st.abort;
                    st.done
                        .entry(index)
                        .or_insert_with(|| (0..width).map(|_| None).collect())[position] =
                        Some(result);
                    drop(st);
                    ready.notify_all();
                    if abort {
                        return;
                    }
                });
            }

            // The emitter: this thread owns the sink.
            for expected in 0..total {
                let cells = {
                    let mut st = merge.lock().expect("merge lock");
                    loop {
                        let complete = st
                            .done
                            .get(&expected)
                            .is_some_and(|cells| cells.iter().all(Option::is_some));
                        if complete {
                            st.emitted = expected + 1;
                            break st.done.remove(&expected).expect("complete");
                        }
                        st = ready.wait(st).expect("merge lock");
                    }
                };
                ready.notify_all();
                let batch: Result<Vec<Measurement>, SweepError> = cells
                    .into_iter()
                    .filter_map(|cell| cell.expect("complete").transpose())
                    .collect();
                match batch {
                    Ok(batch) => emit(sink, batch),
                    Err(e) => {
                        let mut st = merge.lock().expect("merge lock");
                        st.abort = true;
                        drop(st);
                        ready.notify_all();
                        outcome = Err(e);
                        break;
                    }
                }
            }
        });
        outcome
    }

    /// Measures one claimed cell. The first cell to reach the scenario
    /// prepares it (or records its build error for every cell), and the
    /// last one to finish drops it.
    fn run_cell<'s>(
        &'s self,
        slot: &Mutex<Slot<'s>>,
        index: usize,
        protocol: Protocol,
    ) -> Result<Option<Measurement>, SweepError> {
        let prepared = slot
            .lock()
            .expect("slot lock")
            .prepared
            .get_or_insert_with(|| self.prepare(index).map(Arc::new))
            .clone();
        let result = prepared.and_then(|p| self.measure_cell(&p, protocol));
        let mut slot = slot.lock().expect("slot lock");
        slot.pending -= 1;
        if slot.pending == 0 {
            slot.prepared = None;
        }
        result
    }

    /// Builds (if needed) the `index`-th scenario of the source for its
    /// cells to share.
    fn prepare(&self, index: usize) -> Result<Prepared<'_>, SweepError> {
        let scenario = match &self.source {
            Source::Specs(specs) => Cow::Owned(specs[index].build()?),
            Source::Built(scenarios) => Cow::Borrowed(&scenarios[index]),
        };
        session_metrics().scenarios.inc();
        Ok(Prepared {
            scenario,
            bounds: ScenarioBounds::new(self.bounds.as_ref()),
            schedule: OnceLock::new(),
            scored: OnceLock::new(),
        })
    }

    /// Measures one cell: `protocol` on a prepared scenario, or `None`
    /// when the protocol does not apply to it.
    fn measure_cell(
        &self,
        prepared: &Prepared<'_>,
        protocol: Protocol,
    ) -> Result<Option<Measurement>, SweepError> {
        let scenario = prepared.scenario.as_ref();
        if !protocol.applicable(scenario) {
            return Ok(None);
        }
        if matches!(scenario.spec.family, Family::Churn { .. }) {
            return self.measure_churn(prepared, protocol).map(Some);
        }
        self.measure_one(scenario, protocol, &prepared.bounds)
            .map(Some)
    }

    /// Measures a protocol on a dynamic scenario: it survives the
    /// scenario's materialised event schedule (which depends only on the
    /// spec, not the protocol, so it is drawn once for all cells), and
    /// the final quiescent solution is scored on the final topology
    /// exactly like a static record — plus the flat churn accounting
    /// fields.
    fn measure_churn(
        &self,
        prepared: &Prepared<'_>,
        protocol: Protocol,
    ) -> Result<Measurement, SweepError> {
        let scenario = prepared.scenario.as_ref();
        let mat = prepared
            .schedule
            .get_or_init(|| materialize_scenario(scenario))
            .as_ref()
            .map_err(Clone::clone)?;
        let run = run_materialized(
            scenario,
            mat,
            protocol,
            &self.exec_for(scenario),
            &self.recovery,
            self.cancel.as_ref(),
        )?;
        // The schedule is protocol-independent, so the final graph is
        // too; the first finished cell projects it, once.
        let final_graph = run.final_graph;
        let scored = prepared
            .scored
            .get_or_init(|| {
                Ok(Scenario {
                    spec: scenario.spec.clone(),
                    simple: final_graph.to_simple()?,
                    graph: final_graph,
                })
            })
            .as_ref()
            .map_err(Clone::clone)?;
        let bound = match protocol {
            // The protocol was parametrised with the schedule's degree
            // cap; A(Δ)'s theorem holds for that claim.
            Protocol::BoundedDegree => Some(eds_core::bounded_degree::bounded_degree_ratio(
                run.claimed_delta,
            )),
            _ => paper_bound(protocol, scored),
        };
        let finished = ProtocolRun {
            solution: run.solution,
            rounds: run.rounds,
            messages: run.messages,
        };
        let mut measurement = self.score(
            scored,
            &prepared.bounds,
            protocol,
            bound,
            finished,
            run.violation,
        );
        measurement.record.churn = Some(run.stats);
        Ok(measurement)
    }

    fn measure_one(
        &self,
        scenario: &Scenario,
        protocol: Protocol,
        bounds: &ScenarioBounds<'_>,
    ) -> Result<Measurement, SweepError> {
        let exec = self.exec_for(scenario);
        let run = protocol.execute_with_cancel(scenario, &exec, self.cancel.as_ref())?;
        // Score the run against the bound for the Δ the protocol was
        // actually parametrised with: a delta hint above the instance
        // maximum loosens A(Δ)'s theorem to 4 - 1/⌊Δ'/2⌋ (hints below
        // the maximum are raised to it by the executor, so the default
        // bound applies there).
        let bound = match (protocol, exec.delta) {
            (Protocol::BoundedDegree, Some(claimed)) => {
                let effective = claimed.max(scenario.simple.max_degree());
                (effective >= 1).then(|| eds_core::bounded_degree::bounded_degree_ratio(effective))
            }
            _ => paper_bound(protocol, scenario),
        };
        let violation = protocol.violation(&scenario.simple, &run.solution);
        Ok(self.score(scenario, bounds, protocol, bound, run, violation))
    }

    /// Scores a finished run on `scored` (the scenario itself, or a churn
    /// scenario's final topology) and builds its record without churn
    /// fields: the reference bounds of the solution's objective, the
    /// empirical ratio, and the verdict against the paper `bound`. Static
    /// and churn records share this, so the two kinds cannot be scored
    /// differently.
    fn score(
        &self,
        scored: &Scenario,
        bounds: &ScenarioBounds<'_>,
        protocol: Protocol,
        bound: Option<(u64, u64)>,
        run: ProtocolRun,
        violation: Option<String>,
    ) -> Measurement {
        let size = run.solution.len();
        let reference = match &run.solution {
            Solution::Edges(_) => bounds.eds(scored),
            Solution::Nodes(_) => bounds.vc(scored),
        };
        let ratio = reference
            .optimum
            .filter(|&opt| opt > 0)
            .map(|opt| size as f64 / opt as f64);
        let within_bound = bound.and_then(|(num, den)| match reference.optimum {
            Some(opt) => Some(size as u64 * den <= num * opt as u64),
            // Without the exact optimum the lower bound can only certify
            // success, never a violation.
            None => (size as u64 * den <= num * reference.lower_bound as u64).then_some(true),
        });
        Measurement {
            record: SweepRecord {
                scenario: scored.name(),
                family: scored.spec.family.key(),
                policy: scored.spec.policy.name(),
                seed: scored.spec.seed,
                nodes: scored.simple.node_count(),
                edges: scored.simple.edge_count(),
                protocol: protocol.name(),
                rounds: run.rounds,
                messages: run.messages,
                size,
                optimum: reference.optimum,
                lower_bound: reference.lower_bound,
                bounds: self.bounds.name(),
                bound,
                ratio,
                within_bound,
                violation,
                churn: None,
            },
            solution: run.solution,
        }
    }
}

/// Feeds one scenario's measurements into the sink, firing the optional
/// hooks in the documented order.
fn emit<S: RecordSink + ?Sized>(sink: &mut S, batch: Vec<Measurement>) {
    session_metrics().records.add(batch.len() as u64);
    for m in batch {
        sink.solution(&m.record, &m.solution);
        if !m.record.is_clean() {
            sink.violation(&m.record);
        }
        sink.record(m.record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Family, PortPolicy, ScenarioSpec};
    use crate::sink::VecSink;

    #[test]
    fn session_on_petersen_is_clean_and_bounded() {
        let s = ScenarioSpec::new(Family::Petersen, 1, PortPolicy::Shuffled);
        let records = Session::new()
            .specs(vec![s])
            .sequential()
            .collect()
            .unwrap();
        // All six protocols apply to the 3-regular Petersen graph.
        assert_eq!(records.len(), 6);
        for r in &records {
            assert!(r.is_clean(), "{}: {:?}", r.protocol, r.violation);
            // Edge protocols score against the EDS optimum (3 on
            // Petersen); the vertex-cover sibling against the VC optimum
            // (6 on Petersen).
            let expected_opt = if r.protocol == "vertex-cover" { 6 } else { 3 };
            assert_eq!(r.optimum, Some(expected_opt), "{}", r.protocol);
            assert_eq!(r.within_bound, Some(true), "{}", r.protocol);
            assert!(r.rounds >= 1);
            assert!(r.messages > 0);
        }
    }

    #[test]
    fn lower_bound_fallback_on_large_instances() {
        let s = ScenarioSpec::new(Family::Torus(5, 5), 0, PortPolicy::Shuffled)
            .build()
            .unwrap();
        // 50 edges: beyond the default exact budget.
        let r = Session::new().measure(&s, Protocol::BoundedDegree).unwrap();
        assert_eq!(r.optimum, None);
        assert!(r.lower_bound >= 1);
        assert!(r.violation.is_none());
        // The A(Δ) output on a 4-regular torus is well within 7/2 of the
        // matching-based lower bound, so the session certifies it.
        assert_eq!(r.within_bound, Some(true));
    }

    #[test]
    fn sharded_run_matches_sequential_run() {
        let session = Session::over(Registry::smoke());
        let sequential = session.threads(1).collect().unwrap();
        for threads in [2usize, 3, 8] {
            let sharded = Session::over(Registry::smoke())
                .threads(threads)
                .collect()
                .unwrap();
            assert_eq!(sharded, sequential, "threads = {threads}");
        }
    }

    #[test]
    fn delta_hint_adjusts_the_scored_bound() {
        let s = ScenarioSpec::new(Family::Path(6), 0, PortPolicy::Canonical)
            .build()
            .unwrap();
        // Δ = 2 on a path; claiming Δ' = 9 runs A(9), whose theorem
        // promises only 4 - 1/4 — the record must carry that bound, not
        // the instance-Δ bound of 3.
        let loose = Session::new().delta_hint(9);
        let r = loose.measure(&s, Protocol::BoundedDegree).unwrap();
        assert_eq!(
            r.bound,
            Some(eds_core::bounded_degree::bounded_degree_ratio(9))
        );
        assert!(r.is_clean(), "{:?}", r.within_bound);
        // A claim below the true maximum is raised to it (the node
        // algorithm requires Δ' ≥ every degree), so the default bound
        // applies — and the run matches the unhinted one exactly.
        let under = Session::new().delta_hint(1);
        let r = under.measure(&s, Protocol::BoundedDegree).unwrap();
        let plain = Session::new().measure(&s, Protocol::BoundedDegree).unwrap();
        assert_eq!(r, plain);
    }

    #[test]
    fn custom_bound_provider_is_consulted() {
        struct Constant;
        impl BoundProvider for Constant {
            fn eds_bounds(&self, _s: &Scenario) -> Bounds {
                Bounds {
                    optimum: Some(1),
                    lower_bound: 1,
                }
            }
            fn vc_bounds(&self, _s: &Scenario) -> Bounds {
                Bounds {
                    optimum: Some(1),
                    lower_bound: 1,
                }
            }
        }
        let records = Session::new()
            .specs(vec![ScenarioSpec::new(
                Family::Petersen,
                0,
                PortPolicy::Canonical,
            )])
            .bounds(Constant)
            .sequential()
            .collect()
            .unwrap();
        assert!(records.iter().all(|r| r.optimum == Some(1)));
        // A claimed optimum of 1 proves every protocol out of bounds —
        // the provider's verdict, not the checker's.
        assert!(records.iter().any(|r| r.within_bound == Some(false)));
    }

    #[test]
    fn provider_is_queried_once_per_objective_per_scenario() {
        // Bounds are protocol-independent: however many protocols run
        // on a scenario, and on however many workers, the provider pays
        // for each objective once.
        #[derive(Clone, Default)]
        struct Counting {
            eds: Arc<AtomicUsize>,
            vc: Arc<AtomicUsize>,
        }
        impl BoundProvider for Counting {
            fn eds_bounds(&self, _s: &Scenario) -> Bounds {
                self.eds.fetch_add(1, Ordering::Relaxed);
                Bounds {
                    optimum: None,
                    lower_bound: 1,
                }
            }
            fn vc_bounds(&self, _s: &Scenario) -> Bounds {
                self.vc.fetch_add(1, Ordering::Relaxed);
                Bounds {
                    optimum: None,
                    lower_bound: 1,
                }
            }
        }
        for threads in [1usize, 2, 4] {
            let counting = Counting::default();
            let records = Session::new()
                .specs(vec![ScenarioSpec::new(
                    Family::Petersen,
                    0,
                    PortPolicy::Canonical,
                )])
                .bounds(counting.clone())
                .threads(threads)
                .collect()
                .unwrap();
            // All six protocols ran (five edge objectives, one vertex
            // cover) but each objective's bounds were computed once.
            assert_eq!(records.len(), 6, "threads = {threads}");
            assert_eq!(
                counting.eds.load(Ordering::Relaxed),
                1,
                "threads = {threads}"
            );
            assert_eq!(
                counting.vc.load(Ordering::Relaxed),
                1,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn sink_hooks_fire_in_order() {
        #[derive(Default)]
        struct Journal {
            events: Vec<String>,
        }
        impl RecordSink for Journal {
            fn record(&mut self, r: SweepRecord) {
                self.events.push(format!("record:{}", r.protocol));
            }
            fn violation(&mut self, r: &SweepRecord) {
                self.events.push(format!("violation:{}", r.protocol));
            }
            fn solution(&mut self, r: &SweepRecord, s: &Solution) {
                self.events
                    .push(format!("solution:{}:{}", r.protocol, s.len()));
            }
        }
        let mut journal = Journal::default();
        Session::new()
            .specs(vec![ScenarioSpec::new(
                Family::Cycle(6),
                0,
                PortPolicy::Canonical,
            )])
            .protocols(&[Protocol::PortOne])
            .sequential()
            .run(&mut journal)
            .unwrap();
        assert_eq!(journal.events.len(), 2, "{:?}", journal.events);
        assert!(journal.events[0].starts_with("solution:port-one:"));
        assert_eq!(journal.events[1], "record:port-one");
    }

    #[test]
    fn build_errors_propagate_in_source_order() {
        // Petersen is 3-regular: the 2-factor policy fails to build.
        let specs = vec![
            ScenarioSpec::new(Family::Cycle(5), 0, PortPolicy::Canonical),
            ScenarioSpec::new(Family::Petersen, 0, PortPolicy::TwoFactor),
            ScenarioSpec::new(Family::Cycle(7), 0, PortPolicy::Canonical),
        ];
        // Every protocol: at two or more threads, several cells wait on
        // the one failed build.
        for threads in [1usize, 2, 4] {
            let mut sink = VecSink::new();
            let err = Session::new()
                .specs(specs.clone())
                .threads(threads)
                .run(&mut sink)
                .unwrap_err();
            assert!(matches!(err, SweepError::Graph(_)), "threads = {threads}");
            // Every record of the scenario before the failure was still
            // delivered, and none of the failed one's.
            assert_eq!(sink.records.len(), 5, "threads = {threads}");
            assert!(
                sink.records.iter().all(|r| r.family == "cycle"),
                "threads = {threads}"
            );
        }
    }
}
