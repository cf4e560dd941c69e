//! The dynamic-scenario runner: deterministic fault injection, epoch
//! re-stabilisation, and incremental witness repair.
//!
//! A [`crate::Family::Churn`] workload evolves its base topology through
//! a seeded [`EventSchedule`] (edge inserts/deletes, crashes, joins) and
//! corrupts a few nodes per burst. A corruption wipes the witness
//! entries stored at its node and nothing else: every protocol epoch
//! starts from factory-fresh states. Between bursts a cheap *witness* —
//! the maintained matching / dominating set / cover — is repaired
//! locally with the [`eds_core::repair`] rules instead of being
//! recomputed; when repair does not apply, or an epoch is audited, the
//! protocol re-runs to quiescence on the [`pn_runtime::ChurnSimulator`].
//! Feasibility is re-checked at every quiescence point.
//!
//! Everything is deterministic: the schedule is materialised from the
//! scenario seed with the same SplitMix64 stream the runtime exposes
//! ([`pn_runtime::entropy_stream`]), so churn records are reproducible
//! bit for bit — the property the `churn-smoke` gate asserts.

use std::collections::BTreeSet;

use eds_baselines::distributed_mm::IdMatchingNode;
use eds_baselines::randomized_mm::{randomized_matching_phases, RandMatchingNode};
use eds_core::distributed::BoundedDegreeNode;
use eds_core::port_one::PortOneNode;
use eds_core::repair::{
    self, edge_key, is_cover_witness, is_dominating_witness, is_matching_witness,
    is_maximal_witness, AdjacencyView, EdgeWitness, NodeWitness, RecoveryPolicy, RecoveryTier,
    RepairOutcome,
};
use eds_core::vertex_cover::VertexCoverNode;
use pn_graph::{DynamicTopology, GraphError, NodeId, PortNumberedGraph, SimpleGraph};
use pn_runtime::{
    edge_set_from_outputs, entropy_stream, CancelToken, ChurnError, ChurnEvent, ChurnSimulator,
    EventSchedule, NodeAlgorithm, PortSet, RuntimeError,
};

use crate::metrics::repair_metrics;
use crate::protocol::{node_identifiers, node_seeds, ExecOptions, Protocol, Solution, SweepError};
use crate::scenario::{Family, Scenario};
use crate::sweep::ChurnStats;

/// Domain separator for the event-materialisation entropy stream, so
/// schedules never correlate with the port shuffles or node seeds that
/// share the scenario seed.
const CHURN_SALT: u64 = 0x6368_7572_6e5f_6576; // "churn_ev"

/// Domain separator for the sampled-epoch audit stream — audit decisions
/// never correlate with the event draws above.
const AUDIT_SALT: u64 = 0x6175_6469_745f_6570; // "audit_ep"

/// How many candidate draws an event gets before it is skipped (the
/// topology may have no room left, e.g. no insertable pair under the
/// degree cap).
const EVENT_TRIES: usize = 16;

/// A deterministic fault-injection plan: `bursts` quiescence-separated
/// event bursts, each with up to `edge_events` topology events and
/// `corruptions` witness corruptions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChurnPlan {
    /// Number of event bursts (each followed by re-stabilisation).
    pub bursts: usize,
    /// Topology events (insert/delete/crash/join) attempted per burst.
    pub edge_events: usize,
    /// Nodes corrupted per burst. A corruption wipes the node's entries
    /// from the maintained witness, which local repair then heals; it
    /// never reaches protocol state, and it counts toward
    /// [`ChurnStats::events_applied`].
    pub corruptions: usize,
}

impl ChurnPlan {
    /// Creates a plan.
    pub fn new(bursts: usize, edge_events: usize, corruptions: usize) -> Self {
        ChurnPlan {
            bursts,
            edge_events,
            corruptions,
        }
    }

    /// The label fragment used in scenario names (`b3e2c1`).
    pub fn tag(&self) -> String {
        format!("b{}e{}c{}", self.bursts, self.edge_events, self.corruptions)
    }
}

/// A materialised schedule: the concrete events, the per-burst damage
/// frontiers, and the topology bookkeeping the factories need.
pub struct MaterializedChurn {
    /// The event bursts, ready for [`ChurnSimulator::apply_burst`].
    pub schedule: EventSchedule,
    /// Per burst: the nodes whose neighbourhood an event touched
    /// (endpoints of inserted/deleted edges, crashed nodes plus their
    /// ex-neighbours, joined nodes plus their attachment targets).
    pub touched: Vec<BTreeSet<usize>>,
    /// Per burst: the corrupted nodes, whose witness entries the burst
    /// wipes. They are not events of [`MaterializedChurn::schedule`].
    pub corrupted: Vec<Vec<usize>>,
    /// The largest degree any node reaches at any point of the schedule;
    /// the `Δ`-parametrised protocols are instantiated with (at least)
    /// this claim.
    pub degree_cap: usize,
    /// The node count after all joins — identifier and seed tables are
    /// sized to this.
    pub max_nodes: usize,
}

/// Materialises the plan into concrete events against the evolving
/// topology, deterministically from `seed`. Events that find no valid
/// target within a bounded number of draws are skipped (e.g. no
/// insertable pair under the degree cap), so the realised
/// [`EventSchedule::event_count`] may be below the plan's nominal count.
///
/// The whole schedule is drawn up front, because its final node count
/// sizes the identifier and seed tables of every epoch. The drawing
/// topology is a [`DynamicTopology`] overlay on `base`, so it costs
/// memory proportional to the events, not the graph.
///
/// # Errors
///
/// [`GraphError::NotSimple`] if `base` has loops or parallel links.
pub fn materialize(
    base: &PortNumberedGraph,
    plan: &ChurnPlan,
    seed: u64,
) -> Result<MaterializedChurn, GraphError> {
    let mut topo = DynamicTopology::new(base)?;
    let mut crashed = vec![false; base.node_count()];
    let cap = base.max_degree().max(2);
    let base_edges = base.edge_count();
    let mut next = entropy_stream(seed ^ CHURN_SALT);
    let mut schedule = EventSchedule::new();
    let mut touched_per_burst = Vec::with_capacity(plan.bursts);
    let mut corrupted_per_burst = Vec::with_capacity(plan.bursts);

    for _ in 0..plan.bursts {
        let mut burst = Vec::new();
        let mut touched = BTreeSet::new();
        let mut corrupted = Vec::new();
        for _ in 0..plan.edge_events {
            for _ in 0..EVENT_TRIES {
                let n = topo.node_count() as u64;
                match next() % 8 {
                    // Inserts get the largest share so the graph does not
                    // drain to edgeless under long schedules.
                    0..=2 => {
                        let u = NodeId::new((next() % n) as usize);
                        let v = NodeId::new((next() % n) as usize);
                        if u != v
                            && !topo.has_edge(u, v)
                            && topo.degree(u) < cap
                            && topo.degree(v) < cap
                        {
                            topo.insert_edge(u, v)?;
                            crashed[u.index()] = false;
                            crashed[v.index()] = false;
                            touched.insert(u.index());
                            touched.insert(v.index());
                            burst.push(ChurnEvent::InsertEdge { u, v });
                            break;
                        }
                    }
                    3..=4 => {
                        let u = NodeId::new((next() % n) as usize);
                        let d = topo.degree(u);
                        if d > 0 && topo.edge_count() > 1 {
                            let v = topo.nth_neighbor(u, (next() % d as u64) as usize);
                            topo.delete_edge(u, v)?;
                            touched.insert(u.index());
                            touched.insert(v.index());
                            burst.push(ChurnEvent::DeleteEdge { u, v });
                            break;
                        }
                    }
                    5 => {
                        let v = NodeId::new((next() % n) as usize);
                        // Crash only while the graph can afford it.
                        if topo.degree(v) > 0 && topo.edge_count() > base_edges / 2 {
                            let gone = topo.isolate(v)?;
                            crashed[v.index()] = true;
                            touched.insert(v.index());
                            touched.extend(gone.iter().map(|u| u.index()));
                            burst.push(ChurnEvent::Crash { v });
                            break;
                        }
                    }
                    _ => {
                        // Join: a fresh node attaching to 1–2 targets
                        // with headroom under the cap.
                        let want = 1 + (next() % 2) as usize;
                        let mut attach = Vec::new();
                        for _ in 0..EVENT_TRIES {
                            let t = NodeId::new((next() % n) as usize);
                            if topo.degree(t) < cap && !crashed[t.index()] && !attach.contains(&t) {
                                attach.push(t);
                                if attach.len() == want {
                                    break;
                                }
                            }
                        }
                        if !attach.is_empty() {
                            let fresh = topo.add_node();
                            crashed.push(false);
                            for &t in &attach {
                                topo.insert_edge(fresh, t)?;
                            }
                            touched.insert(fresh.index());
                            touched.extend(attach.iter().map(|u| u.index()));
                            burst.push(ChurnEvent::Join { attach });
                            break;
                        }
                    }
                }
            }
        }
        for _ in 0..plan.corruptions {
            let v = (next() % topo.node_count() as u64) as usize;
            // A second word is drawn and dropped: the schedules behind
            // the committed churn baselines depend on the draw order.
            next();
            touched.insert(v);
            corrupted.push(v);
        }
        schedule.push_burst(burst);
        touched_per_burst.push(touched);
        corrupted_per_burst.push(corrupted);
    }

    Ok(MaterializedChurn {
        degree_cap: cap,
        max_nodes: topo.node_count(),
        schedule,
        touched: touched_per_burst,
        corrupted: corrupted_per_burst,
    })
}

/// An alias of [`materialize`] with no logic of its own, kept because
/// existing callers still use this name.
pub use self::materialize as materialize_streamed;

/// The witness family a protocol's output maintains under churn.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum WitnessKind {
    /// A maximal matching (identifier/randomised baselines).
    Matching,
    /// An edge dominating set (port-one, `A(Δ)`).
    Dominating,
    /// A vertex cover.
    Cover,
}

impl WitnessKind {
    fn of(protocol: Protocol) -> WitnessKind {
        match protocol {
            Protocol::IdMatching | Protocol::RandMatching => WitnessKind::Matching,
            Protocol::VertexCover => WitnessKind::Cover,
            _ => WitnessKind::Dominating,
        }
    }
}

/// The maintained witness: node-pair edges or a node set.
enum Witness {
    Edges(EdgeWitness),
    Cover(NodeWitness),
}

impl Witness {
    fn from_solution(g: &PortNumberedGraph, solution: &Solution) -> Witness {
        match solution {
            Solution::Edges(edges) => Witness::Edges(
                edges
                    .iter()
                    .map(|&e| {
                        let (u, v) = g.edge(e).nodes();
                        edge_key(u.index(), v.index())
                    })
                    .collect(),
            ),
            Solution::Nodes(cover) => Witness::Cover(cover.iter().map(|v| v.index()).collect()),
        }
    }

    /// Corruption wipes the witness entries stored at `v`; every freed
    /// partner joins the repair frontier per the repair contract.
    fn scramble_at(&mut self, v: usize, touched: &mut BTreeSet<usize>) {
        touched.insert(v);
        match self {
            Witness::Edges(w) => {
                w.retain(|&(a, b)| {
                    let hit = a == v || b == v;
                    if hit {
                        touched.insert(a);
                        touched.insert(b);
                    }
                    !hit
                });
            }
            Witness::Cover(c) => {
                c.remove(&v);
            }
        }
    }

    fn repair<V: AdjacencyView + ?Sized>(
        &mut self,
        view: &V,
        touched: &BTreeSet<usize>,
        kind: WitnessKind,
    ) -> RepairOutcome {
        match (self, kind) {
            (Witness::Edges(w), WitnessKind::Matching) => {
                repair::repair_maximal_matching(view, w, touched)
            }
            (Witness::Edges(w), WitnessKind::Dominating) => {
                repair::repair_edge_dominating(view, w, touched)
            }
            (Witness::Cover(c), _) => repair::repair_vertex_cover(view, c, touched),
            (Witness::Edges(_), WitnessKind::Cover) => unreachable!("edge witness for cover"),
        }
    }

    fn feasible<V: AdjacencyView + ?Sized>(&self, view: &V, kind: WitnessKind) -> bool {
        match (self, kind) {
            (Witness::Edges(w), WitnessKind::Matching) => {
                is_matching_witness(view, w) && is_maximal_witness(view, w)
            }
            (Witness::Edges(w), WitnessKind::Dominating) => is_dominating_witness(view, w),
            (Witness::Cover(c), _) => is_cover_witness(view, c),
            (Witness::Edges(_), WitnessKind::Cover) => false,
        }
    }

    /// Projects the witness back onto a concrete graph as a [`Solution`]
    /// — the final artifact of a repair-first run whose last burst never
    /// re-stabilised. Edge pairs are resolved to [`pn_graph::EdgeId`]s by
    /// one pass over the graph's edge list.
    fn to_solution(&self, g: &PortNumberedGraph) -> Solution {
        match self {
            Witness::Edges(w) => Solution::Edges(
                g.edges()
                    .filter(|(_, shape)| {
                        let (u, v) = shape.nodes();
                        w.contains(&edge_key(u.index(), v.index()))
                    })
                    .map(|(e, _)| e)
                    .collect(),
            ),
            Witness::Cover(c) => Solution::Nodes(c.iter().map(|&v| NodeId::new(v)).collect()),
        }
    }

    fn len(&self) -> usize {
        match self {
            Witness::Edges(w) => w.len(),
            Witness::Cover(c) => c.len(),
        }
    }
}

/// The outcome of one protocol surviving one churn schedule.
pub struct ChurnRun {
    /// The final quiescent solution (on [`ChurnRun::final_graph`]).
    pub solution: Solution,
    /// Rounds across every epoch, recovery epochs included.
    pub rounds: usize,
    /// Messages across every epoch.
    pub messages: usize,
    /// Fault-injection accounting for the record.
    pub stats: ChurnStats,
    /// First feasibility violation that survived repair and recovery;
    /// `None` means every quiescence point verified clean.
    pub violation: Option<String>,
    /// The topology after the last burst.
    pub final_graph: PortNumberedGraph,
    /// Its simple projection. Only [`run_churn_with`] fills it, once per
    /// call; a [`crate::Session`] projects each churn scenario's final
    /// graph once for all its protocols instead.
    pub final_simple: SimpleGraph,
    /// The `Δ` claim the parametrised protocols actually ran with.
    pub claimed_delta: usize,
}

/// A [`ChurnRun`] before its final graph is projected: what
/// [`run_materialized`] returns. The final graph depends only on the
/// schedule, so a session projects it once per scenario, not once per
/// protocol.
pub(crate) struct DrivenRun {
    pub(crate) solution: Solution,
    pub(crate) rounds: usize,
    pub(crate) messages: usize,
    pub(crate) stats: ChurnStats,
    pub(crate) violation: Option<String>,
    pub(crate) final_graph: PortNumberedGraph,
    pub(crate) claimed_delta: usize,
}

fn churn_err(e: ChurnError) -> SweepError {
    match e {
        ChurnError::Graph(e) => SweepError::Graph(e),
        ChurnError::Runtime(e) => SweepError::Runtime(e),
    }
}

/// Runs `protocol` through the scenario's churn schedule under a
/// recovery policy: initial stabilisation, then per burst the recovery
/// ladder — local witness repair of the events and the corruptions when
/// the damage frontier is small and the repaired witness is feasible,
/// otherwise a full re-stabilisation from factory-fresh states. A
/// seeded fraction of epochs is *audited*: the full re-stabilisation
/// runs anyway and the repaired witness must be feasible,
/// port-consistent, and within the protocol's paper bound of the fresh
/// output — any divergence fails the run with a structured report.
///
/// Every family churns through a [`DynamicTopology`] overlay on the
/// scenario graph. Each full epoch freezes one port-numbered copy of the
/// current topology, which the protocol runs on and which is verified in
/// place, never projected to a [`SimpleGraph`]; only the final graph is
/// projected, once, into [`ChurnRun::final_simple`]. A repair-only burst
/// runs no protocol epoch and freezes nothing, but it is not
/// frontier-sized: the repair rules scan the whole witness, and the
/// feasibility check that accepts the repair is a whole-graph pass over
/// the overlay.
///
/// `cancel` is polled at every epoch barrier and once per round inside
/// full epochs; a deadline firing mid-run yields a structured
/// [`RuntimeError::Cancelled`].
///
/// # Errors
///
/// Returns [`SweepError`] for non-churn scenarios, inapplicable
/// protocols, cancellation, and propagated simulator errors.
pub fn run_churn_with(
    scenario: &Scenario,
    protocol: Protocol,
    exec: &ExecOptions,
    policy: &RecoveryPolicy,
    cancel: Option<&CancelToken>,
) -> Result<ChurnRun, SweepError> {
    let mat = materialize_scenario(scenario)?;
    let run = run_materialized(scenario, &mat, protocol, exec, policy, cancel)?;
    Ok(ChurnRun {
        final_simple: run.final_graph.to_simple()?,
        solution: run.solution,
        rounds: run.rounds,
        messages: run.messages,
        stats: run.stats,
        violation: run.violation,
        final_graph: run.final_graph,
        claimed_delta: run.claimed_delta,
    })
}

/// Materialises a churn scenario's event schedule. It depends only on
/// the spec, so one schedule serves every protocol of the scenario.
///
/// # Errors
///
/// Returns [`SweepError`] for non-churn scenarios and for a base graph
/// that [`materialize`] rejects.
pub(crate) fn materialize_scenario(scenario: &Scenario) -> Result<MaterializedChurn, SweepError> {
    let Family::Churn { plan, .. } = &scenario.spec.family else {
        return Err(SweepError::Graph(GraphError::InvalidParameter {
            detail: format!("{} is not a churn scenario", scenario.name()),
        }));
    };
    Ok(materialize(&scenario.graph, plan, scenario.spec.seed)?)
}

/// [`run_churn_with`] on a schedule already drawn by
/// [`materialize_scenario`] from the same scenario, without projecting
/// the final graph.
pub(crate) fn run_materialized(
    scenario: &Scenario,
    mat: &MaterializedChurn,
    protocol: Protocol,
    exec: &ExecOptions,
    policy: &RecoveryPolicy,
    cancel: Option<&CancelToken>,
) -> Result<DrivenRun, SweepError> {
    let graph = &scenario.graph;
    let delta = exec.delta.unwrap_or(0).max(mat.degree_cap);
    let seed = scenario.spec.seed;
    let ctx = |bound: Option<(u64, u64)>| RecoveryCtx {
        policy,
        cancel,
        bound,
        seed,
    };

    let edges_of = |g: &PortNumberedGraph, outputs: &[PortSet]| {
        edge_set_from_outputs(g, outputs).map(Solution::Edges)
    };
    match protocol {
        Protocol::PortOne => drive(
            graph,
            mat,
            |_, d| PortOneNode::new(d),
            delta,
            protocol,
            &ctx(None),
            edges_of,
        ),
        Protocol::BoundedDegree => drive(
            graph,
            mat,
            |_, d| BoundedDegreeNode::new(delta, d),
            delta,
            protocol,
            &ctx(Some(eds_core::bounded_degree::bounded_degree_ratio(delta))),
            edges_of,
        ),
        Protocol::VertexCover => drive(
            graph,
            mat,
            |_, d| VertexCoverNode::new(delta, d),
            delta,
            protocol,
            &ctx(Some((3, 1))),
            |g: &PortNumberedGraph, outputs: &[bool]| {
                Ok(Solution::Nodes(
                    g.nodes().filter(|v| outputs[v.index()]).collect(),
                ))
            },
        ),
        Protocol::IdMatching => {
            let ids = node_identifiers(mat.max_nodes, seed);
            drive(
                graph,
                mat,
                move |v: NodeId, d| IdMatchingNode::new(delta, d, ids[v.index()]),
                delta,
                protocol,
                &ctx(Some((2, 1))),
                edges_of,
            )
        }
        Protocol::RandMatching => {
            let seeds = node_seeds(mat.max_nodes, seed);
            // The phase cap is fixed up front for the largest node count
            // the schedule can reach, so every epoch runs under the same
            // deterministic schedule.
            let phases = randomized_matching_phases(mat.max_nodes);
            drive(
                graph,
                mat,
                move |v: NodeId, d| RandMatchingNode::new(d, seeds[v.index()], phases),
                delta,
                protocol,
                &ctx(Some((2, 1))),
                edges_of,
            )
        }
        Protocol::RegularOdd => Err(SweepError::Graph(GraphError::InvalidParameter {
            detail: "regular-odd requires a static odd-regular graph; churn breaks regularity"
                .to_owned(),
        })),
    }
}

/// Recovery context threaded through the epoch loop.
struct RecoveryCtx<'a> {
    policy: &'a RecoveryPolicy,
    cancel: Option<&'a CancelToken>,
    /// The paper-bound ratio `(num, den)` the audit holds the repaired
    /// witness to, against the freshly re-stabilised size (sound because
    /// the optimum is never larger than the fresh solution). `None`
    /// where no per-instance ratio exists (port-one needs regularity,
    /// which churn breaks).
    bound: Option<(u64, u64)>,
    seed: u64,
}

/// One verified full epoch: the frozen graph, its quiescent solution and
/// verdict, and the cost of its run.
struct VerifiedEpoch {
    graph: PortNumberedGraph,
    solution: Solution,
    violation: Option<String>,
    rounds: usize,
    messages: usize,
}

/// Stabilises the current topology from factory-fresh states, then
/// extracts the quiescent output and checks its feasibility on the frozen
/// graph the epoch ran on, which is never projected to a [`SimpleGraph`].
fn stabilize_verified<A, F, S>(
    sim: &mut ChurnSimulator<'_, A, F>,
    to_solution: &S,
    protocol: Protocol,
) -> Result<VerifiedEpoch, SweepError>
where
    A: NodeAlgorithm,
    F: Fn(NodeId, usize) -> A,
    S: Fn(&PortNumberedGraph, &[A::Output]) -> Result<Solution, RuntimeError>,
{
    let epoch = sim.stabilize().map_err(churn_err)?;
    // `DynamicTopology` keeps every mutation simple; this re-checks it
    // on what the epoch actually ran on.
    if !epoch.graph.is_simple() {
        return Err(SweepError::Graph(GraphError::NotSimple {
            detail: "a churn epoch froze a loop or a parallel link".to_owned(),
        }));
    }
    let solution = to_solution(&epoch.graph, &epoch.outputs).map_err(SweepError::Runtime)?;
    Ok(VerifiedEpoch {
        violation: protocol.violation(&epoch.graph, &solution),
        graph: epoch.graph,
        solution,
        rounds: epoch.rounds,
        messages: epoch.messages,
    })
}

/// The generic epoch loop shared by every protocol: the recovery ladder
/// with sampled-epoch audits, over an overlay on `graph`.
fn drive<A, F, S>(
    graph: &PortNumberedGraph,
    mat: &MaterializedChurn,
    factory: F,
    claimed_delta: usize,
    protocol: Protocol,
    ctx: &RecoveryCtx<'_>,
    to_solution: S,
) -> Result<DrivenRun, SweepError>
where
    A: NodeAlgorithm,
    F: Fn(NodeId, usize) -> A,
    S: Fn(&PortNumberedGraph, &[A::Output]) -> Result<Solution, RuntimeError>,
{
    let kind = WitnessKind::of(protocol);
    let mut sim = ChurnSimulator::new(graph, factory)?;
    if let Some(token) = ctx.cancel {
        sim = sim.cancel_token(token.clone());
    }
    let mut rounds = 0;
    let mut messages = 0;
    let corruptions: usize = mat.corrupted.iter().map(Vec::len).sum();
    let mut stats = ChurnStats {
        events_applied: mat.schedule.event_count() + corruptions,
        ..ChurnStats::default()
    };
    // The audit stream advances once per burst regardless of outcome, so
    // audit decisions are independent of recovery-tier history.
    let mut audit_next = entropy_stream(ctx.seed ^ AUDIT_SALT);

    // Epoch 0: the churn-free baseline (always a full stabilisation).
    let initial = stabilize_verified(&mut sim, &to_solution, protocol)?;
    rounds += initial.rounds;
    messages += initial.messages;
    let mut violation = initial.violation.map(|v| format!("epoch 0: {v}"));
    let mut witness = Witness::from_solution(&initial.graph, &initial.solution);
    let mut solution = initial.solution;
    // Whether `solution` is a quiescent protocol output on the *current*
    // topology (false once a burst recovers without re-stabilising).
    let mut solution_current = true;

    for (b, burst) in mat.schedule.bursts().iter().enumerate() {
        if let Some(token) = ctx.cancel {
            if token.check() {
                return Err(SweepError::Runtime(RuntimeError::Cancelled {
                    after_rounds: rounds,
                    still_running: sim.topology().node_count(),
                }));
            }
        }
        sim.apply_burst(burst).map_err(churn_err)?;
        let audit = ctx.policy.audits_epoch(audit_next());

        // Damage frontier: event-adjacent nodes plus corruption fallout
        // (scrambling frees witness partners, which must be rescanned).
        let mut touched = mat.touched[b].clone();
        for &v in &mat.corrupted[b] {
            witness.scramble_at(v, &mut touched);
        }
        let frontier_nodes = touched.len();
        let n_now = sim.topology().node_count();
        repair_metrics()
            .frontier_nodes
            .observe(frontier_nodes as u64);

        // Rung 1: local witness repair, always attempted first — even an
        // escalated burst reuses the re-legalised entries.
        let outcome = witness.repair(sim.topology(), &touched, kind);
        stats.repair_messages += outcome.messages;
        repair_metrics()
            .repair_rounds
            .observe(outcome.rounds as u64);
        let mut burst_violations = outcome.transient_violations;
        let mut burst_recovery = outcome.rounds;

        // Repair restores feasibility whenever the frontier holds every
        // event endpoint and freed partner, which `materialize` and
        // `scramble_at` guarantee; residual damage would escalate
        // straight to a full re-stabilisation.
        let tier = if ctx.policy.repair_applies(frontier_nodes, n_now)
            && witness.feasible(sim.topology(), kind)
        {
            RecoveryTier::Repair
        } else {
            RecoveryTier::Full
        };

        if tier == RecoveryTier::Full {
            // Full re-stabilisation, the last resort.
            let ep = stabilize_verified(&mut sim, &to_solution, protocol)?;
            stats.escalations += 1;
            repair_metrics().escalations.inc();
            rounds += ep.rounds;
            messages += ep.messages;
            burst_recovery += ep.rounds;
            if violation.is_none() {
                violation = ep.violation.map(|v| format!("burst {b}: {v}"));
            }
            if !witness.feasible(sim.topology(), kind) {
                // The incremental witness is beyond local repair: re-seed
                // it from the fresh quiescent output.
                burst_violations += 1;
                witness = Witness::from_solution(&ep.graph, &ep.solution);
            }
            solution = ep.solution;
            solution_current = true;
        } else if audit {
            // Trust-but-verify: run the full re-stabilisation anyway and
            // hold the repaired witness to the same contract. Audit cost
            // counts toward run totals but never toward recovery rounds —
            // it is instrumentation, not recovery.
            repair_metrics().audits.inc();
            let ep = stabilize_verified(&mut sim, &to_solution, protocol)?;
            rounds += ep.rounds;
            messages += ep.messages;
            if violation.is_none() {
                violation = ep.violation.map(|v| format!("burst {b}: {v}"));
            }
            let divergence = if !witness.feasible(sim.topology(), kind) {
                Some("repaired witness infeasible on the frozen epoch graph".to_owned())
            } else if let Some((num, den)) = ctx.bound {
                let w = witness.len() as u64;
                let f = ep.solution.len() as u64;
                (w * den > num * f).then(|| {
                    format!(
                        "repaired witness size {w} outside {num}/{den} of the \
                         re-stabilised size {f}"
                    )
                })
            } else {
                None
            };
            if let Some(d) = divergence {
                repair_metrics().divergences.inc();
                if violation.is_none() {
                    violation = Some(format!("burst {b}: audit divergence: {d}"));
                }
            }
            solution = ep.solution;
            solution_current = true;
        } else {
            // Repair-only epoch accepted: the protocol never re-ran on
            // the full topology.
            solution_current = false;
        }

        stats.recovery_tier = stats.recovery_tier.max(tier.index());
        stats.frontier_nodes = stats.frontier_nodes.max(frontier_nodes);
        stats.recovery_rounds = stats.recovery_rounds.max(burst_recovery);
        stats.max_transient_violation = stats.max_transient_violation.max(burst_violations);
    }

    let final_graph = sim.topology().freeze()?;
    if !solution_current {
        // The last burst recovered without re-stabilising: the witness
        // *is* the live artifact; project it back onto the final graph.
        solution = witness.to_solution(&final_graph);
    }
    if violation.is_none() {
        violation = protocol
            .violation(&final_graph, &solution)
            .map(|v| format!("final: {v}"));
    }

    Ok(DrivenRun {
        solution,
        rounds,
        messages,
        stats,
        violation,
        final_graph,
        claimed_delta,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{PortPolicy, ScenarioSpec};

    /// [`run_churn_with`] under the default policy, uncancelled.
    fn default_churn(
        scenario: &Scenario,
        protocol: Protocol,
        exec: &ExecOptions,
    ) -> Result<ChurnRun, SweepError> {
        run_churn_with(scenario, protocol, exec, &RecoveryPolicy::default(), None)
    }

    fn churn_spec(base: Family, plan: ChurnPlan, seed: u64) -> ScenarioSpec {
        ScenarioSpec::new(
            Family::Churn {
                base: Box::new(base),
                plan,
            },
            seed,
            PortPolicy::Shuffled,
        )
    }

    #[test]
    fn materialization_is_deterministic_and_capped() {
        let scenario = churn_spec(Family::Petersen, ChurnPlan::new(4, 3, 2), 7)
            .build()
            .unwrap();
        let a = materialize(&scenario.graph, &ChurnPlan::new(4, 3, 2), 7).unwrap();
        let b = materialize(&scenario.graph, &ChurnPlan::new(4, 3, 2), 7).unwrap();
        assert_eq!(a.schedule.bursts(), b.schedule.bursts());
        assert_eq!(a.touched, b.touched);
        assert!(a.schedule.event_count() > 0);
        assert_eq!(a.schedule.len(), 4);
        let run =
            default_churn(&scenario, Protocol::BoundedDegree, &ExecOptions::default()).unwrap();
        assert!(run.final_graph.max_degree() <= a.degree_cap);
        assert!(a.max_nodes >= 10);
    }

    #[test]
    fn the_overlay_stays_sparse_on_a_dense_family() {
        let plan = ChurnPlan::new(3, 3, 2);
        let scenario = churn_spec(Family::RandomRegular { n: 4000, d: 3 }, plan, 2)
            .build()
            .unwrap();
        let mat = materialize(&scenario.graph, &plan, 2).unwrap();
        let mut sim = ChurnSimulator::new(&scenario.graph, |_, d| PortOneNode::new(d)).unwrap();
        for burst in mat.schedule.bursts() {
            sim.apply_burst(burst).unwrap();
        }
        let touched: BTreeSet<usize> = mat.touched.iter().flatten().copied().collect();
        let rows = sim.topology().overlay_rows();
        assert!(rows > 0, "the schedule mutated nothing");
        assert!(
            rows <= touched.len() * (mat.degree_cap + 1),
            "{rows} overlay rows for {} touched nodes",
            touched.len()
        );
    }

    #[test]
    fn empty_plan_is_the_static_run() {
        let spec = churn_spec(Family::Petersen, ChurnPlan::new(0, 0, 0), 1);
        let scenario = spec.build().unwrap();
        let run =
            default_churn(&scenario, Protocol::BoundedDegree, &ExecOptions::default()).unwrap();
        let static_run = Protocol::BoundedDegree.execute(&scenario).unwrap();
        assert_eq!(run.solution, static_run.solution);
        assert_eq!(run.rounds, static_run.rounds);
        assert_eq!(run.messages, static_run.messages);
        assert_eq!(run.stats, ChurnStats::default());
        assert_eq!(run.violation, None);
        assert_eq!(run.final_graph, scenario.graph);
    }

    #[test]
    fn every_quiescence_point_is_feasible_and_recovery_is_bounded() {
        for (base, seed) in [
            (Family::Petersen, 0u64),
            (Family::Grid(3, 4), 1),
            (
                Family::RandomBoundedDegree {
                    n: 16,
                    delta: 4,
                    density: 0.8,
                },
                2,
            ),
        ] {
            let scenario = churn_spec(base, ChurnPlan::new(4, 3, 2), seed)
                .build()
                .unwrap();
            for protocol in [
                Protocol::PortOne,
                Protocol::BoundedDegree,
                Protocol::VertexCover,
                Protocol::IdMatching,
                Protocol::RandMatching,
            ] {
                let run = default_churn(&scenario, protocol, &ExecOptions::default())
                    .unwrap_or_else(|e| panic!("{}: {e}", protocol.name()));
                assert_eq!(run.violation, None, "{}", protocol.name());
                assert!(run.stats.events_applied > 0);
                // Incremental repair is local: at most two passes per
                // burst, plus one full epoch when the burst escalates.
                let epoch_bound = run.rounds; // recovery is never more than the whole run
                assert!(
                    run.stats.recovery_rounds <= epoch_bound,
                    "{}",
                    protocol.name()
                );
                assert!(!run.solution.is_empty(), "{}", protocol.name());
            }
        }
    }

    #[test]
    fn corruption_alone_keeps_the_topology_static() {
        let scenario = churn_spec(Family::Petersen, ChurnPlan::new(2, 0, 3), 9)
            .build()
            .unwrap();
        let run = default_churn(&scenario, Protocol::VertexCover, &ExecOptions::default()).unwrap();
        assert_eq!(run.final_graph, scenario.graph);
        assert_eq!(run.violation, None);
        assert_eq!(run.stats.events_applied, 6);
    }

    #[test]
    fn regular_odd_is_rejected_and_inapplicable() {
        let spec = churn_spec(Family::Petersen, ChurnPlan::new(1, 1, 0), 0);
        let scenario = spec.build().unwrap();
        assert!(!Protocol::RegularOdd.applicable(&scenario));
        assert!(default_churn(&scenario, Protocol::RegularOdd, &ExecOptions::default()).is_err());
    }

    #[test]
    fn a_corrupt_event_never_reaches_node_state() {
        // `repair_first` audits every burst with a full epoch, so a
        // corruption-only run is three fresh runs on the static graph.
        for (base, seed) in [
            (Family::Petersen, 9u64),
            (Family::Grid(3, 4), 1),
            (Family::RandomRegular { n: 40, d: 3 }, 3),
        ] {
            let scenario = churn_spec(base, ChurnPlan::new(2, 0, 3), seed)
                .build()
                .unwrap();
            for protocol in [
                Protocol::PortOne,
                Protocol::BoundedDegree,
                Protocol::VertexCover,
                Protocol::IdMatching,
                Protocol::RandMatching,
            ] {
                let what = format!("{} on {}", protocol.name(), scenario.name());
                let run = run_churn_with(
                    &scenario,
                    protocol,
                    &ExecOptions::default(),
                    &RecoveryPolicy::repair_first(),
                    None,
                )
                .unwrap_or_else(|e| panic!("{what}: {e}"));
                let fresh = protocol.execute(&scenario).unwrap();
                assert_eq!(
                    (run.rounds, run.messages),
                    (3 * fresh.rounds, 3 * fresh.messages),
                    "{what}"
                );
                assert_eq!(run.solution, fresh.solution, "{what}");
                assert_eq!(run.stats.events_applied, 6, "{what}");
                assert_eq!(run.stats.escalations, 0, "{what}");
            }
        }
    }

    /// Port-one that cancels `token` inside its first `receive` and stays
    /// running, so the deadline fires inside the epoch.
    struct CancelsMidEpoch {
        port_one: PortOneNode,
        token: CancelToken,
    }

    impl NodeAlgorithm for CancelsMidEpoch {
        type Message = <PortOneNode as NodeAlgorithm>::Message;
        type Output = PortSet;

        fn send_into(&mut self, round: usize, outbox: &mut [Option<Self::Message>]) {
            self.port_one.send_into(round, outbox);
        }

        fn receive(&mut self, round: usize, inbox: &[Option<Self::Message>]) -> Option<PortSet> {
            if round == 0 {
                self.token.cancel();
                return None;
            }
            self.port_one.receive(round, inbox)
        }
    }

    #[test]
    fn a_deadline_inside_an_epoch_cancels_it() {
        let g = pn_graph::ports::canonical_ports(&pn_graph::generators::petersen()).unwrap();
        let to_solution = |g: &PortNumberedGraph, outputs: &[PortSet]| {
            edge_set_from_outputs(g, outputs).map(Solution::Edges)
        };
        let token = CancelToken::new();
        let node_token = token.clone();
        let mut sim = ChurnSimulator::new(&g, move |_, d| CancelsMidEpoch {
            port_one: PortOneNode::new(d),
            token: node_token.clone(),
        })
        .unwrap()
        .cancel_token(token);
        let err = stabilize_verified(&mut sim, &to_solution, Protocol::PortOne).err();
        assert!(
            matches!(
                err,
                Some(SweepError::Runtime(RuntimeError::Cancelled { after_rounds, .. }))
                    if after_rounds > 0
            ),
            "{err:?}"
        );
    }
}
