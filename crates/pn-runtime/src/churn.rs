//! Fault injection for dynamic-graph runs: event schedules, epochs, and
//! the churn simulator.
//!
//! The static [`crate::Simulator`] runs one protocol to quiescence on a
//! frozen graph. This module adds the adversary: an [`EventSchedule`] of
//! **bursts** — edge insertions/deletions, node crashes and joins — that
//! the [`ChurnSimulator`] applies between protocol **epochs**.
//!
//! # Epoch semantics
//!
//! Events are applied only at *quiescence barriers*: every node has
//! halted, the burst mutates the topology (a [`pn_graph::DynamicTopology`]
//! overlay on the starting graph), and the protocol then re-runs to
//! quiescence on the frozen snapshot. Events are never interleaved with
//! the send/route/receive phases of a round — the paper's protocols are
//! driven by rigid round schedules derived from `Δ` and the port
//! numbering, both of which a topology change invalidates, so the honest
//! dynamic model is *re-stabilization*: a churn event restarts the
//! affected protocol from its initial states on the new topology, and
//! recovery is measured in the rounds of that re-run. Every epoch starts
//! from factory-fresh states.
//!
//! Within an epoch the engine is the unmodified static
//! [`crate::Simulator`], under the [`RunOptions`] set through
//! [`ChurnSimulator::options`]. Bursts apply only at epoch barriers, so
//! a whole churn run is deterministic, and a run with an **empty**
//! schedule is exactly one static run.

use pn_graph::{DynamicTopology, GraphError, NodeId, PortNumberedGraph};

use crate::cancel::CancelToken;
use crate::{NodeAlgorithm, RunOptions, RuntimeError, Simulator};

/// One fault-injection event, applied at an epoch barrier.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChurnEvent {
    /// Insert the edge `{u, v}` (appending a fresh highest port at both
    /// endpoints). Inserting an edge at a crashed node revives it.
    InsertEdge {
        /// One endpoint.
        u: NodeId,
        /// The other endpoint.
        v: NodeId,
    },
    /// Delete the edge `{u, v}` (the surviving ports of both endpoints
    /// are densely renumbered — an adversarial renumbering, see
    /// [`pn_graph::dynamic`]).
    DeleteEdge {
        /// One endpoint.
        u: NodeId,
        /// The other endpoint.
        v: NodeId,
    },
    /// Crash `v`: every incident edge disappears and the node sits out
    /// subsequent epochs at degree 0 until an insertion revives it.
    Crash {
        /// The crashing node.
        v: NodeId,
    },
    /// A fresh node joins, wired to the listed existing nodes.
    Join {
        /// Nodes the newcomer attaches to (distinct, non-crashed).
        attach: Vec<NodeId>,
    },
}

/// A deterministic fault schedule: bursts of events, one burst per
/// epoch barrier.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EventSchedule {
    bursts: Vec<Vec<ChurnEvent>>,
}

impl EventSchedule {
    /// The empty schedule (a run under it is exactly one static run).
    pub fn new() -> Self {
        EventSchedule::default()
    }

    /// Appends one burst, consumed at the next epoch barrier.
    pub fn push_burst(&mut self, burst: Vec<ChurnEvent>) -> &mut Self {
        self.bursts.push(burst);
        self
    }

    /// The scheduled bursts in application order.
    pub fn bursts(&self) -> &[Vec<ChurnEvent>] {
        &self.bursts
    }

    /// Number of scheduled bursts.
    pub fn len(&self) -> usize {
        self.bursts.len()
    }

    /// Whether no burst is scheduled.
    pub fn is_empty(&self) -> bool {
        self.bursts.is_empty()
    }

    /// Total number of events across all bursts.
    pub fn event_count(&self) -> usize {
        self.bursts.iter().map(Vec::len).sum()
    }
}

/// An error from a churn run: either a topology mutation was invalid or
/// a protocol epoch failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChurnError {
    /// A topology event was structurally invalid (unknown node, missing
    /// edge, duplicate edge, ...).
    Graph(GraphError),
    /// A protocol epoch failed.
    Runtime(RuntimeError),
}

impl std::fmt::Display for ChurnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChurnError::Graph(e) => write!(f, "churn event failed: {e}"),
            ChurnError::Runtime(e) => write!(f, "churn epoch failed: {e}"),
        }
    }
}

impl std::error::Error for ChurnError {}

impl From<GraphError> for ChurnError {
    fn from(e: GraphError) -> Self {
        ChurnError::Graph(e)
    }
}

impl From<RuntimeError> for ChurnError {
    fn from(e: RuntimeError) -> Self {
        ChurnError::Runtime(e)
    }
}

/// The result of one protocol epoch (one re-stabilization).
#[derive(Clone, Debug)]
pub struct Epoch<O> {
    /// The frozen topology the epoch ran on (outputs index into it).
    pub graph: PortNumberedGraph,
    /// Per-node outputs at quiescence.
    pub outputs: Vec<O>,
    /// Rounds until every node halted — the recovery cost of the burst
    /// that preceded this epoch.
    pub rounds: usize,
    /// Messages delivered during the epoch.
    pub messages: usize,
}

/// Runs a node algorithm across churn epochs over a mutable topology.
///
/// The factory receives `(node, degree)` so identifier- and seed-keyed
/// protocols can look up per-node inputs; anonymous protocols ignore the
/// node id. Nodes created by [`ChurnEvent::Join`] get fresh ids past the
/// original range — factories must be total over them.
///
/// The topology borrows the starting graph and overlays only the port
/// rows the events touch, so even million-node graphs churn without a
/// second full copy.
pub struct ChurnSimulator<'g, A, F>
where
    F: Fn(NodeId, usize) -> A,
{
    topo: DynamicTopology<'g>,
    factory: F,
    options: RunOptions,
    cancel: Option<CancelToken>,
}

impl<'g, A, F> ChurnSimulator<'g, A, F>
where
    A: NodeAlgorithm,
    F: Fn(NodeId, usize) -> A,
{
    /// A churn simulator over the wiring of `g` with default options.
    ///
    /// # Errors
    ///
    /// [`GraphError::NotSimple`] if `g` has loops or parallel links — the
    /// dynamic layer maintains simple topologies only.
    pub fn new(g: &'g PortNumberedGraph, factory: F) -> Result<Self, GraphError> {
        Ok(ChurnSimulator {
            topo: DynamicTopology::new(g)?,
            factory,
            options: RunOptions::default(),
            cancel: None,
        })
    }

    /// Overrides the per-epoch run options.
    pub fn options(mut self, options: RunOptions) -> Self {
        self.options = options;
        self
    }

    /// Polls `token` at every epoch barrier and once per round inside
    /// each epoch. A deadline firing mid-epoch aborts the run at the
    /// next round boundary with a structured
    /// [`RuntimeError::Cancelled`].
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// The current (mutable) topology.
    pub fn topology(&self) -> &DynamicTopology<'g> {
        &self.topo
    }

    /// Applies one burst of events to the topology at the current epoch
    /// barrier. Returns the number of events applied.
    ///
    /// # Errors
    ///
    /// [`ChurnError::Graph`] on a structurally invalid event; prior
    /// events of the burst stay applied (the schedule generator is
    /// expected to emit valid bursts).
    pub fn apply_burst(&mut self, burst: &[ChurnEvent]) -> Result<usize, ChurnError> {
        for event in burst {
            match event {
                ChurnEvent::InsertEdge { u, v } => {
                    self.topo.insert_edge(*u, *v)?;
                }
                ChurnEvent::DeleteEdge { u, v } => {
                    self.topo.delete_edge(*u, *v)?;
                }
                ChurnEvent::Crash { v } => {
                    self.topo.isolate(*v)?;
                }
                ChurnEvent::Join { attach } => {
                    let newcomer = self.topo.add_node();
                    for &u in attach {
                        self.topo.insert_edge(newcomer, u)?;
                    }
                }
            }
        }
        Ok(burst.len())
    }

    /// Runs the protocol to quiescence on the current topology from
    /// factory-fresh states.
    ///
    /// # Errors
    ///
    /// [`ChurnError::Runtime`] if the epoch fails; a token that fired at
    /// the barrier runs nothing.
    pub fn stabilize(&mut self) -> Result<Epoch<A::Output>, ChurnError> {
        crate::metrics::metrics().churn_epochs.inc();
        if let Some(token) = &self.cancel {
            if token.check() {
                // The deadline fired at the barrier: nothing ran yet.
                return Err(RuntimeError::Cancelled {
                    after_rounds: 0,
                    still_running: self.topo.node_count(),
                }
                .into());
            }
        }
        let g = self.topo.freeze()?;
        let mut sim = Simulator::with_options(&g, self.options);
        if let Some(token) = &self.cancel {
            sim = sim.cancel_token(token.clone());
        }
        let run = sim.run(&self.factory)?;
        drop(sim);
        Ok(Epoch {
            graph: g,
            outputs: run.outputs,
            rounds: run.rounds,
            messages: run.messages,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pn_graph::{generators, ports, Endpoint, Port};

    /// A one-round echo protocol: nodes exchange a token and output
    /// `token + smallest neighbour token`. A node holding the token
    /// `u64::MAX` never halts, so under a small `max_rounds` its epoch
    /// fails outright.
    #[derive(Clone, Debug)]
    struct Echo {
        token: u64,
    }

    impl NodeAlgorithm for Echo {
        type Message = u64;
        type Output = u64;

        fn send_into(&mut self, _round: usize, outbox: &mut [Option<u64>]) {
            outbox.fill(Some(self.token));
        }

        fn receive(&mut self, _round: usize, inbox: &[Option<u64>]) -> Option<u64> {
            let min = inbox.iter().flatten().min().copied().unwrap_or(0);
            (self.token != u64::MAX).then(|| self.token.saturating_add(min))
        }
    }

    fn cycle6() -> PortNumberedGraph {
        ports::canonical_ports(&generators::cycle(6).unwrap()).unwrap()
    }

    fn sim(g: &PortNumberedGraph) -> ChurnSimulator<'_, Echo, impl Fn(NodeId, usize) -> Echo> {
        ChurnSimulator::new(g, |_, _| Echo { token: 1 }).unwrap()
    }

    /// Runs a whole schedule the way the scenario runner drives it: an
    /// initial epoch on the starting topology, then one epoch per burst.
    fn run_schedule<F>(
        mut s: ChurnSimulator<'_, Echo, F>,
        schedule: &EventSchedule,
    ) -> Vec<Epoch<u64>>
    where
        F: Fn(NodeId, usize) -> Echo,
    {
        let mut epochs = vec![s.stabilize().unwrap()];
        for burst in schedule.bursts() {
            s.apply_burst(burst).unwrap();
            epochs.push(s.stabilize().unwrap());
        }
        epochs
    }

    #[test]
    fn empty_schedule_is_one_static_run() {
        let g = cycle6();
        let baseline = Simulator::new(&g).run(|_, _| Echo { token: 1 }).unwrap();
        let epochs = run_schedule(sim(&g), &EventSchedule::new());
        assert_eq!(epochs.len(), 1);
        assert_eq!(epochs[0].outputs, baseline.outputs);
        assert_eq!(epochs[0].rounds, baseline.rounds);
        assert_eq!(epochs[0].messages, baseline.messages);
        assert_eq!(epochs[0].graph, g);
    }

    #[test]
    fn crash_isolates_and_insert_revives() {
        let g = cycle6();
        let mut s = sim(&g);
        s.apply_burst(&[ChurnEvent::Crash { v: NodeId::new(2) }])
            .unwrap();
        let epoch = s.stabilize().unwrap();
        assert_eq!(epoch.graph.degree(NodeId::new(2)), 0);
        s.apply_burst(&[ChurnEvent::InsertEdge {
            u: NodeId::new(2),
            v: NodeId::new(5),
        }])
        .unwrap();
        assert_eq!(s.stabilize().unwrap().graph.degree(NodeId::new(2)), 1);
    }

    #[test]
    fn uncorrupted_failure_propagates() {
        let g = ports::canonical_ports(&generators::cycle(4).unwrap()).unwrap();
        let mut s = ChurnSimulator::new(&g, |_, _| Echo { token: u64::MAX })
            .unwrap()
            .options(RunOptions {
                max_rounds: 4,
                ..RunOptions::default()
            });
        assert!(matches!(
            s.stabilize(),
            Err(ChurnError::Runtime(RuntimeError::RoundLimitExceeded { .. }))
        ));
    }

    #[test]
    fn cancelled_barrier_yields_structured_timeout() {
        let g = cycle6();
        let token = CancelToken::new();
        token.cancel();
        let mut s = sim(&g).cancel_token(token);
        match s.stabilize() {
            Err(ChurnError::Runtime(RuntimeError::Cancelled {
                after_rounds,
                still_running,
            })) => {
                assert_eq!(after_rounds, 0);
                assert_eq!(still_running, 6);
            }
            other => panic!("expected a cancelled epoch, got {other:?}"),
        }
    }

    #[test]
    fn non_simple_graphs_are_rejected() {
        let at = |v: usize, p: u32| Endpoint::new(NodeId::new(v), Port::new(p));
        let half_loop = PortNumberedGraph::from_involution(vec![1], vec![at(0, 1)]).unwrap();
        let parallel = PortNumberedGraph::from_involution(
            vec![2, 2],
            vec![at(1, 1), at(1, 2), at(0, 1), at(0, 2)],
        )
        .unwrap();
        for g in [&half_loop, &parallel] {
            let s = ChurnSimulator::new(g, |_, _| Echo { token: 1 });
            assert!(matches!(s, Err(GraphError::NotSimple { .. })));
        }
    }

    #[test]
    fn invalid_events_surface_structured_errors() {
        let g = cycle6();
        let mut s = sim(&g);
        assert!(matches!(
            s.apply_burst(&[ChurnEvent::DeleteEdge {
                u: NodeId::new(0),
                v: NodeId::new(3),
            }]),
            Err(ChurnError::Graph(GraphError::InvalidParameter { .. }))
        ));
        assert!(matches!(
            s.apply_burst(&[ChurnEvent::Crash { v: NodeId::new(99) }]),
            Err(ChurnError::Graph(GraphError::NodeOutOfRange { .. }))
        ));
    }
}
