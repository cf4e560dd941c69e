//! The protocol portfolio: every distributed algorithm in the workspace
//! behind one uniform interface, so sweeps and conformance tests can
//! iterate over "all protocols on all scenarios" without knowing each
//! crate's entry points.
//!
//! All six protocols run through the zero-allocation
//! [`pn_runtime::Simulator`], so every record carries honest round and
//! message counts in addition to the solution.

use eds_baselines::distributed_mm::IdMatchingNode;
use eds_baselines::randomized_mm::{randomized_matching_phases, RandMatchingNode};
use eds_core::distributed::{BoundedDegreeNode, RegularOddNode};
use eds_core::port_one::PortOneNode;
use eds_core::vertex_cover::VertexCoverNode;
use eds_verify::{check_edge_dominating_set, check_maximal_matching};
use pn_graph::{EdgeId, EdgeView, GraphError, NodeId};
use pn_runtime::{edge_set_from_outputs, CancelToken, PortSet, Run, RuntimeError, Simulator};

use crate::scenario::Scenario;

/// Errors surfaced while executing a protocol on a scenario.
#[derive(Clone, Debug)]
pub enum SweepError {
    /// Graph construction or parameter error.
    Graph(GraphError),
    /// Simulator execution or output-consistency error.
    Runtime(RuntimeError),
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Graph(e) => write!(f, "graph error: {e}"),
            SweepError::Runtime(e) => write!(f, "runtime error: {e}"),
        }
    }
}

impl std::error::Error for SweepError {}

impl From<GraphError> for SweepError {
    fn from(e: GraphError) -> Self {
        SweepError::Graph(e)
    }
}

impl From<RuntimeError> for SweepError {
    fn from(e: RuntimeError) -> Self {
        SweepError::Runtime(e)
    }
}

/// The six distributed protocols of the reproduction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// Theorem 3: the one-round anonymous "port 1" algorithm.
    PortOne,
    /// Theorem 4: the anonymous protocol for odd-regular graphs.
    RegularOdd,
    /// Theorem 5: the anonymous `A(Δ)` protocol for bounded degree.
    BoundedDegree,
    /// The Polishchuk–Suomela 3-approximate vertex cover sibling.
    VertexCover,
    /// The identifier-model greedy maximal matching baseline.
    IdMatching,
    /// The randomised maximal matching baseline.
    RandMatching,
}

/// A protocol's solution: an edge set (the five edge-problem protocols)
/// or a node set (the vertex-cover sibling).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Solution {
    /// Selected edges.
    Edges(Vec<EdgeId>),
    /// Selected nodes.
    Nodes(Vec<NodeId>),
}

impl Solution {
    /// Number of selected elements.
    pub fn len(&self) -> usize {
        match self {
            Solution::Edges(e) => e.len(),
            Solution::Nodes(v) => v.len(),
        }
    }

    /// Returns `true` if nothing was selected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The edge set, if this is an edge solution.
    pub fn edges(&self) -> Option<&[EdgeId]> {
        match self {
            Solution::Edges(e) => Some(e),
            Solution::Nodes(_) => None,
        }
    }
}

/// The outcome of one protocol execution on one scenario.
#[derive(Clone, Debug)]
pub struct ProtocolRun {
    /// The solution produced.
    pub solution: Solution,
    /// Rounds until the last node halted.
    pub rounds: usize,
    /// Total messages delivered.
    pub messages: usize,
}

/// Execution knobs for a single protocol run; the defaults reproduce
/// [`Protocol::execute`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecOptions {
    /// Claimed degree bound handed to the `Δ`-parametrised protocols
    /// (`A(Δ)`, the vertex-cover sibling, the identifier matching);
    /// `None` uses the instance maximum degree. The protocols require
    /// the claim to cover every node, so values below the instance
    /// maximum are raised to it.
    pub delta: Option<usize>,
}

impl ExecOptions {
    /// The same as [`ExecOptions::default`]. Every run executes on one
    /// thread, so a huge instance needs no knobs of its own; the name is
    /// kept because existing callers still use it.
    pub fn scaled() -> Self {
        ExecOptions::default()
    }
}

impl Protocol {
    /// All six protocols, in report order.
    pub const ALL: [Protocol; 6] = [
        Protocol::PortOne,
        Protocol::RegularOdd,
        Protocol::BoundedDegree,
        Protocol::VertexCover,
        Protocol::IdMatching,
        Protocol::RandMatching,
    ];

    /// A short stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Protocol::PortOne => "port-one",
            Protocol::RegularOdd => "regular-odd",
            Protocol::BoundedDegree => "bounded-degree",
            Protocol::VertexCover => "vertex-cover",
            Protocol::IdMatching => "id-matching",
            Protocol::RandMatching => "rand-matching",
        }
    }

    /// Returns `true` if the protocol's preconditions hold on the
    /// scenario: every protocol needs at least one edge, and Theorem 4
    /// additionally needs an odd-regular graph.
    pub fn applicable(self, scenario: &Scenario) -> bool {
        if scenario.simple.is_edgeless() {
            return false;
        }
        // Churn breaks regularity as soon as an edge event fires, so
        // Theorem 4's precondition cannot survive the schedule.
        if matches!(scenario.spec.family, crate::scenario::Family::Churn { .. })
            && self == Protocol::RegularOdd
        {
            return false;
        }
        match self {
            Protocol::RegularOdd => scenario.graph.regular_degree().is_some_and(|d| d % 2 == 1),
            _ => true,
        }
    }

    /// The feasibility verdict on this protocol's `solution` over `g`,
    /// a simple graph or a simple port-numbered graph read in place: the
    /// first `eds-verify` violation, or `None`. The matching baselines
    /// must output a maximal matching, the other edge protocols an edge
    /// dominating set, and a node solution must cover every edge.
    pub(crate) fn violation<G: EdgeView + ?Sized>(
        self,
        g: &G,
        solution: &Solution,
    ) -> Option<String> {
        match solution {
            Solution::Edges(edges) => match self {
                Protocol::IdMatching | Protocol::RandMatching => {
                    check_maximal_matching(g, edges).err()
                }
                _ => check_edge_dominating_set(g, edges).err(),
            }
            .map(|v| v.to_string()),
            Solution::Nodes(cover) => {
                let mut in_cover = vec![false; g.node_count()];
                for &v in cover {
                    in_cover[v.index()] = true;
                }
                g.endpoint_pairs()
                    .find(|&(_, u, v)| !in_cover[u.index()] && !in_cover[v.index()])
                    .map(|(e, u, v)| {
                        format!("edge {e} = {{{u}, {v}}} has no endpoint in the cover")
                    })
            }
        }
    }

    /// Executes the protocol on the scenario through the simulator with
    /// default [`ExecOptions`].
    ///
    /// Identifier and randomised baselines derive their per-node inputs
    /// deterministically from the scenario seed, so sweeps are
    /// reproducible bit for bit.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors and output-consistency violations;
    /// neither occurs when [`Protocol::applicable`] holds.
    pub fn execute(self, scenario: &Scenario) -> Result<ProtocolRun, SweepError> {
        self.execute_with(scenario, &ExecOptions::default())
    }

    /// Executes the protocol with explicit execution knobs (the claimed
    /// `Δ`).
    ///
    /// # Errors
    ///
    /// Same as [`Protocol::execute`].
    pub fn execute_with(
        self,
        scenario: &Scenario,
        opts: &ExecOptions,
    ) -> Result<ProtocolRun, SweepError> {
        self.execute_with_cancel(scenario, opts, None)
    }

    /// [`Protocol::execute_with`] plus a cooperative [`CancelToken`]:
    /// the simulator polls the token between rounds and aborts with
    /// [`RuntimeError::Cancelled`] once it fires, so a caller-side
    /// timeout interrupts a solve mid-run.
    ///
    /// # Errors
    ///
    /// Same as [`Protocol::execute`], plus the cancellation error.
    pub fn execute_with_cancel(
        self,
        scenario: &Scenario,
        opts: &ExecOptions,
        cancel: Option<&CancelToken>,
    ) -> Result<ProtocolRun, SweepError> {
        let g = &scenario.graph;
        let mut sim = Simulator::new(g);
        if let Some(token) = cancel {
            sim = sim.cancel_token(token.clone());
        }
        // A claimed Δ below the true maximum would violate the node
        // algorithms' contract (every degree must be ≤ Δ); raise it.
        let delta = opts.delta.unwrap_or(0).max(g.max_degree());
        let edges = |run: Run<PortSet>| -> Result<ProtocolRun, SweepError> {
            Ok(ProtocolRun {
                solution: Solution::Edges(edge_set_from_outputs(g, &run.outputs)?),
                rounds: run.rounds,
                messages: run.messages,
            })
        };

        match self {
            Protocol::PortOne => edges(sim.run(|_, d| PortOneNode::new(d))?),
            Protocol::RegularOdd => edges(sim.run(|_, d| RegularOddNode::new(d))?),
            Protocol::BoundedDegree => edges(sim.run(|_, d| BoundedDegreeNode::new(delta, d))?),
            Protocol::VertexCover => {
                let run = sim.run(|_, d| VertexCoverNode::new(delta, d))?;
                Ok(ProtocolRun {
                    solution: Solution::Nodes(
                        g.nodes().filter(|v| run.outputs[v.index()]).collect(),
                    ),
                    rounds: run.rounds,
                    messages: run.messages,
                })
            }
            Protocol::IdMatching => {
                let ids = node_identifiers(g.node_count(), scenario.spec.seed);
                edges(sim.run(|v, d| IdMatchingNode::new(delta, d, ids[v.index()]))?)
            }
            Protocol::RandMatching => {
                let seeds = node_seeds(g.node_count(), scenario.spec.seed);
                let phases = randomized_matching_phases(g.node_count());
                edges(sim.run(|v, d| RandMatchingNode::new(d, seeds[v.index()], phases))?)
            }
        }
    }
}

/// Distinct node identifiers for the identifier-model baseline, derived
/// deterministically from the scenario seed (SplitMix64 over the index
/// would risk collisions; an affine map cannot collide).
pub fn node_identifiers(n: usize, seed: u64) -> Vec<u64> {
    let offset = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    (0..n as u64).map(|i| i.wrapping_add(offset)).collect()
}

/// Per-node randomness seeds for the randomised baseline, derived
/// deterministically from the scenario seed.
pub fn node_seeds(n: usize, seed: u64) -> Vec<u64> {
    (0..n as u64)
        .map(|i| {
            let mut z = i
                .wrapping_add(seed.wrapping_mul(0xbf58_476d_1ce4_e5b9))
                .wrapping_add(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Family, PortPolicy, ScenarioSpec};

    #[test]
    fn applicability_rules() {
        let petersen = ScenarioSpec::new(Family::Petersen, 0, PortPolicy::Canonical)
            .build()
            .unwrap();
        // Petersen is 3-regular: everything applies.
        for p in Protocol::ALL {
            assert!(p.applicable(&petersen), "{}", p.name());
        }
        let torus = ScenarioSpec::new(Family::Torus(3, 3), 0, PortPolicy::Canonical)
            .build()
            .unwrap();
        assert!(!Protocol::RegularOdd.applicable(&torus), "4-regular");
        assert!(Protocol::PortOne.applicable(&torus));
        let edgeless = ScenarioSpec::new(Family::Gnp { n: 5, p: 0.0 }, 0, PortPolicy::Canonical)
            .build()
            .unwrap();
        for p in Protocol::ALL {
            assert!(!p.applicable(&edgeless), "{}", p.name());
        }
    }

    #[test]
    fn all_protocols_run_on_petersen() {
        let s = ScenarioSpec::new(Family::Petersen, 3, PortPolicy::Shuffled)
            .build()
            .unwrap();
        for p in Protocol::ALL {
            let run = p
                .execute(&s)
                .unwrap_or_else(|e| panic!("{}: {e}", p.name()));
            assert!(!run.solution.is_empty(), "{}", p.name());
            assert!(run.rounds >= 1, "{}", p.name());
        }
    }

    /// Every protocol's message is a plain value that fits one engine
    /// slot of at most 16 bytes: a heap payload (a `Vec` per port, say)
    /// fails to compile here, and a wider one fails the size check. The
    /// Theorem 4 and `A(Δ)` messages are one word each, so their slots
    /// take 8 bytes.
    #[test]
    fn messages_are_word_sized() {
        fn slot_bytes<A: pn_runtime::NodeAlgorithm>() -> usize
        where
            A::Message: Copy,
        {
            std::mem::size_of::<Option<A::Message>>()
        }
        for (node, bytes, limit) in [
            ("PortOneNode", slot_bytes::<PortOneNode>(), 16),
            ("RegularOddNode", slot_bytes::<RegularOddNode>(), 8),
            ("BoundedDegreeNode", slot_bytes::<BoundedDegreeNode>(), 8),
            ("VertexCoverNode", slot_bytes::<VertexCoverNode>(), 16),
            ("IdMatchingNode", slot_bytes::<IdMatchingNode>(), 16),
            ("RandMatchingNode", slot_bytes::<RandMatchingNode>(), 16),
        ] {
            assert!(bytes <= limit, "{node}: {bytes} bytes per message slot");
        }
    }

    #[test]
    fn identifiers_are_distinct() {
        for seed in [0u64, 1, 0xdead_beef] {
            let ids = node_identifiers(100, seed);
            let mut sorted = ids.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), ids.len());
        }
    }

    #[test]
    fn delta_override_reaches_the_parametrised_protocols() {
        let s = ScenarioSpec::new(Family::Path(6), 0, PortPolicy::Canonical)
            .build()
            .unwrap();
        // Claiming a looser Δ than the true maximum degree is legal and
        // changes the protocol's phase schedule (more rounds).
        let tight = Protocol::BoundedDegree.execute(&s).unwrap();
        let loose = Protocol::BoundedDegree
            .execute_with(&s, &ExecOptions { delta: Some(5) })
            .unwrap();
        assert!(loose.rounds > tight.rounds);
    }

    /// `violation` reads a port-numbered graph in place exactly as it
    /// reads the graph's `to_simple()` projection: the same verdict and
    /// the same message, on every protocol's output and on that output
    /// damaged.
    #[test]
    fn violation_reads_a_port_numbered_graph_like_its_projection() {
        let mut next = pn_runtime::entropy_stream(0x7669_6577);
        let (mut clean, mut damaged) = (0usize, 0usize);
        for seed in 0..8u64 {
            for family in [
                Family::Gnp { n: 24, p: 0.15 },
                Family::PowerLaw { n: 30, m: 2 },
                Family::RandomRegular { n: 20, d: 3 },
            ] {
                let s = ScenarioSpec::new(family, seed, PortPolicy::Shuffled)
                    .build()
                    .unwrap();
                let simple = s.graph.to_simple().unwrap();
                let m = s.graph.edge_count();
                for p in Protocol::ALL.into_iter().filter(|p| p.applicable(&s)) {
                    let mut solutions = vec![p.execute(&s).unwrap().solution];
                    solutions.push(match &solutions[0] {
                        Solution::Edges(e) if !e.is_empty() => Solution::Edges(e[1..].to_vec()),
                        Solution::Edges(_) => Solution::Edges(vec![EdgeId::new(0)]),
                        Solution::Nodes(c) => Solution::Nodes(c[1..].to_vec()),
                    });
                    if let Solution::Edges(e) = &solutions[0] {
                        let extra = EdgeId::new((next() % m as u64) as usize);
                        solutions.push(Solution::Edges([&e[..], &[extra]].concat()));
                        solutions.push(Solution::Edges(vec![EdgeId::new(m)]));
                    }
                    for solution in &solutions {
                        let verdict = p.violation(&s.graph, solution);
                        assert_eq!(
                            verdict,
                            p.violation(&simple, solution),
                            "{} on {}",
                            p.name(),
                            s.name()
                        );
                        match verdict {
                            Some(_) => damaged += 1,
                            None => clean += 1,
                        }
                    }
                }
            }
        }
        assert!(
            clean >= 100 && damaged >= 100,
            "{clean} clean, {damaged} damaged"
        );
    }

    #[test]
    fn executions_are_deterministic() {
        let s = ScenarioSpec::new(
            Family::RandomRegular { n: 12, d: 3 },
            5,
            PortPolicy::Shuffled,
        )
        .build()
        .unwrap();
        for p in Protocol::ALL {
            let a = p.execute(&s).unwrap();
            let b = p.execute(&s).unwrap();
            assert_eq!(a.solution, b.solution, "{}", p.name());
            assert_eq!(a.rounds, b.rounds);
            assert_eq!(a.messages, b.messages);
        }
    }
}
