//! The Polishchuk–Suomela local 3-approximation for **vertex cover**
//! (paper reference \[21\]) — the algorithm whose 2-matching machinery
//! Phase III of Theorem 5 reuses.
//!
//! The algorithm computes a 2-matching `P` that dominates every edge
//! (via the bipartite-double-cover proposal scheme,
//! [`crate::proposals::double_cover_two_matching`]) and outputs the set
//! of `P`-covered nodes. Since `P` dominates all edges, the covered
//! nodes form a vertex cover; since the subgraph induced by a 2-matching
//! consists of paths and cycles, each matched optimal-cover node
//! accounts for at most 3 output nodes, giving a factor 3.
//!
//! Included because the paper leans on it twice: as the Phase III
//! subroutine and as the prototype of "node-based covering problems in
//! the port-numbering model" that Section 1.4 contrasts with the
//! edge-based problem.

use pn_graph::{NodeId, Port, PortNumberedGraph};
use pn_runtime::{NodeAlgorithm, PortSet, RuntimeError, Simulator};

use crate::proposals::double_cover_two_matching;

/// Centralised reference: the 3-approximate vertex cover from the
/// edge-dominating 2-matching.
///
/// # Examples
///
/// ```
/// use pn_graph::{generators, ports};
/// use eds_core::vertex_cover::vertex_cover_reference;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = ports::canonical_ports(&generators::star(5)?)?;
/// let cover = vertex_cover_reference(&g);
/// assert!(!cover.is_empty());
/// # Ok(())
/// # }
/// ```
pub fn vertex_cover_reference(g: &PortNumberedGraph) -> Vec<NodeId> {
    let eligible = vec![true; g.edge_count()];
    let p = double_cover_two_matching(g, &eligible);
    let mut covered = vec![false; g.node_count()];
    for &e in &p {
        let (u, v) = g.edge(e).nodes();
        covered[u.index()] = true;
        covered[v.index()] = true;
    }
    g.nodes().filter(|v| covered[v.index()]).collect()
}

/// Messages of the distributed 2-matching / vertex cover protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VcMsg {
    /// An offer along an edge (proposer role).
    Propose,
    /// Accept/reject answer to an offer received in the previous round.
    Response(bool),
    /// Filler for silent ports.
    Nothing,
}

/// Distributed implementation: the standalone double-cover proposal
/// protocol. Each node plays a proposer and an acceptor role, one
/// propose/respond round pair per port; within `2·Δ` rounds it outputs
/// whether it is covered by the 2-matching.
///
/// The family is parametrised by `Δ` (an upper bound on the degrees)
/// because anonymous nodes cannot otherwise know when all proposals have
/// settled; `2·Δ` is a cap. A node halts, with the output it would give
/// at the cap, at the end of
///
/// * a respond round after which it has accepted an offer and its own
///   proposing is over (its offer was accepted, or every port has been
///   tried): it will neither propose nor accept again, so its `None`
///   reads as "no proposal" in a propose round and as "not accepted" in
///   a respond round, which is what it would send;
/// * a round in which no port delivered a message: every running node
///   sends on every port, so all its neighbours have halted, and no
///   offer can reach it or be accepted by one of them.
#[derive(Clone, Debug)]
pub struct VertexCoverNode {
    delta: usize,
    degree: usize,
    cursor: usize,
    pending: Option<usize>,
    /// The ports a proposal arrived on in the last propose round.
    incoming: PortSet,
    proposer_done: bool,
    acceptor_done: bool,
}

impl VertexCoverNode {
    /// Creates the state machine for degree bound `delta` at a node of
    /// degree `degree`.
    ///
    /// # Panics
    ///
    /// Panics if `degree > delta`.
    pub fn new(delta: usize, degree: usize) -> Self {
        assert!(degree <= delta, "node degree exceeds Δ");
        VertexCoverNode {
            delta,
            degree,
            cursor: 0,
            pending: None,
            incoming: PortSet::new(),
            proposer_done: false,
            acceptor_done: false,
        }
    }

    /// The node is covered by the 2-matching: its offer was accepted, or
    /// it accepted one.
    fn covered(&self) -> bool {
        self.proposer_done || self.acceptor_done
    }
}

impl NodeAlgorithm for VertexCoverNode {
    type Message = VcMsg;
    /// `true` iff the node belongs to the vertex cover.
    type Output = bool;

    fn send_into(&mut self, round: usize, outbox: &mut [Option<VcMsg>]) {
        outbox.fill(Some(VcMsg::Nothing));
        if round.is_multiple_of(2) {
            // Propose round.
            self.pending = None;
            if !self.proposer_done && self.cursor < self.degree {
                let q = self.cursor;
                self.cursor += 1;
                self.pending = Some(q);
                outbox[q] = Some(VcMsg::Propose);
            }
        } else {
            // Respond round.
            let incoming = std::mem::take(&mut self.incoming);
            for p in incoming.iter() {
                outbox[p.index()] = Some(VcMsg::Response(false));
            }
            if !self.acceptor_done {
                if let Some(best) = incoming.iter().next() {
                    outbox[best.index()] = Some(VcMsg::Response(true));
                    self.acceptor_done = true;
                }
            }
        }
    }

    fn receive(&mut self, round: usize, inbox: &[Option<VcMsg>]) -> Option<bool> {
        if self.degree == 0 {
            return Some(false);
        }
        let silent = inbox.iter().all(Option::is_none);
        let done = if round.is_multiple_of(2) {
            self.incoming = inbox
                .iter()
                .enumerate()
                .filter(|(_, m)| **m == Some(VcMsg::Propose))
                .map(|(q, _)| Port::from_index(q))
                .collect();
            false
        } else {
            if let Some(q) = self.pending.take() {
                if inbox[q] == Some(VcMsg::Response(true)) {
                    self.proposer_done = true;
                }
            }
            let proposing_over = self.proposer_done || self.cursor >= self.degree;
            (self.acceptor_done && proposing_over) || round + 1 >= 2 * self.delta.max(1)
        };
        (done || silent).then(|| self.covered())
    }
}

/// Runs the distributed protocol and returns the cover.
///
/// # Errors
///
/// Propagates simulator errors (none occur for `max_degree(g) <= delta`).
pub fn vertex_cover_distributed(
    g: &PortNumberedGraph,
    delta: usize,
) -> Result<Vec<NodeId>, RuntimeError> {
    let run = Simulator::new(g).run(|_, d| VertexCoverNode::new(delta, d))?;
    Ok(g.nodes().filter(|v| run.outputs[v.index()]).collect())
}

/// Checks that `cover` is a vertex cover of the underlying graph.
pub fn is_vertex_cover(g: &PortNumberedGraph, cover: &[NodeId]) -> bool {
    let mut in_cover = vec![false; g.node_count()];
    for &v in cover {
        in_cover[v.index()] = true;
    }
    g.edges().all(|(_, shape)| {
        let (u, v) = shape.nodes();
        in_cover[u.index()] || in_cover[v.index()]
    })
}

/// The node before it halted early: every node runs the whole `2·Δ`
/// schedule and keeps one flag per port. Kept verbatim as the oracle
/// whose outputs the halting node must match run for run.
#[cfg(test)]
mod reference {
    use super::VcMsg;
    use pn_runtime::NodeAlgorithm;

    #[derive(Clone, Debug)]
    pub(super) struct FixedNode {
        delta: usize,
        degree: usize,
        cursor: usize,
        pending: Option<usize>,
        incoming: Vec<usize>,
        proposer_done: bool,
        acceptor_done: bool,
        in_p: Vec<bool>,
    }

    impl FixedNode {
        pub(super) fn new(delta: usize, degree: usize) -> Self {
            assert!(degree <= delta, "node degree exceeds Δ");
            FixedNode {
                delta,
                degree,
                cursor: 0,
                pending: None,
                incoming: Vec::new(),
                proposer_done: false,
                acceptor_done: false,
                in_p: vec![false; degree],
            }
        }
    }

    impl NodeAlgorithm for FixedNode {
        type Message = VcMsg;
        type Output = bool;

        fn send_into(&mut self, round: usize, outbox: &mut [Option<VcMsg>]) {
            outbox.fill(Some(VcMsg::Nothing));
            if round.is_multiple_of(2) {
                // Propose round.
                self.pending = None;
                if !self.proposer_done && self.cursor < self.degree {
                    let q = self.cursor;
                    self.cursor += 1;
                    self.pending = Some(q);
                    outbox[q] = Some(VcMsg::Propose);
                }
            } else {
                // Respond round.
                let incoming = std::mem::take(&mut self.incoming);
                for &q in &incoming {
                    outbox[q] = Some(VcMsg::Response(false));
                }
                if !self.acceptor_done {
                    if let Some(&best) = incoming.iter().min() {
                        outbox[best] = Some(VcMsg::Response(true));
                        self.acceptor_done = true;
                        self.in_p[best] = true;
                    }
                }
            }
        }

        fn receive(&mut self, round: usize, inbox: &[Option<VcMsg>]) -> Option<bool> {
            if self.degree == 0 {
                return Some(false);
            }
            if round.is_multiple_of(2) {
                self.incoming.clear();
                for (q, m) in inbox.iter().enumerate() {
                    if m == &Some(VcMsg::Propose) {
                        self.incoming.push(q);
                    }
                }
                None
            } else {
                if let Some(q) = self.pending.take() {
                    if inbox[q] == Some(VcMsg::Response(true)) {
                        self.proposer_done = true;
                        self.in_p[q] = true;
                    }
                }
                if round + 1 >= 2 * self.delta.max(1) {
                    Some(self.in_p.iter().any(|&b| b))
                } else {
                    None
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pn_graph::{generators, ports};

    /// Exact minimum vertex cover by brute force (small graphs).
    fn minimum_vc_size(g: &PortNumberedGraph) -> usize {
        let simple = g.to_simple().unwrap();
        let n = simple.node_count();
        assert!(n <= 20, "brute force only");
        (0u32..(1 << n))
            .filter(|mask| {
                simple
                    .edges()
                    .all(|(_, u, v)| mask & (1 << u.index()) != 0 || mask & (1 << v.index()) != 0)
            })
            .map(u32::count_ones)
            .min()
            .unwrap_or(0) as usize
    }

    #[test]
    fn cover_is_feasible_and_within_factor_3() {
        for seed in 0..8 {
            let g = generators::gnp(10, 0.4, seed).unwrap();
            if g.is_edgeless() {
                continue;
            }
            let pg = ports::shuffled_ports(&g, seed).unwrap();
            let cover = vertex_cover_reference(&pg);
            assert!(is_vertex_cover(&pg, &cover), "seed {seed}");
            let opt = minimum_vc_size(&pg);
            assert!(
                cover.len() <= 3 * opt,
                "seed {seed}: {} > 3 * {opt}",
                cover.len()
            );
        }
    }

    #[test]
    fn distributed_matches_reference() {
        for seed in 0..6 {
            let g = generators::random_bounded_degree(16, 4, 0.8, seed).unwrap();
            let pg = ports::shuffled_ports(&g, seed + 9).unwrap();
            let reference = vertex_cover_reference(&pg);
            let distributed = vertex_cover_distributed(&pg, 4).unwrap();
            assert_eq!(reference, distributed, "seed {seed}");
        }
    }

    #[test]
    fn round_count_is_2_delta() {
        let g = generators::random_regular(12, 4, 3).unwrap();
        let pg = ports::shuffled_ports(&g, 3).unwrap();
        let run = Simulator::new(&pg)
            .run(|_, d| VertexCoverNode::new(4, d))
            .unwrap();
        // Nodes 0 and 1 are adjacent, and each is covered by an offer
        // accepted elsewhere but never receives a proposal: neither
        // halting rule fires while each hears the other's fillers, so
        // both run to the cap.
        assert_eq!(run.rounds, 8);
        assert_eq!((run.halted_at[0], run.halted_at[1]), (8, 8));
        let fixed = Simulator::new(&pg)
            .run(|_, d| reference::FixedNode::new(4, d))
            .unwrap();
        assert_eq!(fixed.rounds, 8);
    }

    /// Message counts summed over a suite of runs, for the halting node
    /// and for the fixed schedule.
    #[derive(Debug, Default)]
    struct Totals {
        instances: usize,
        messages: usize,
        fixed_messages: usize,
    }

    /// The halting node against the fixed schedule, from the same fresh
    /// states: equal outputs, and no node halting later, no more rounds
    /// and no more messages than in the fixed schedule.
    fn assert_matches_fixed_schedule(
        pg: &PortNumberedGraph,
        delta: usize,
        what: &str,
        totals: &mut Totals,
    ) {
        let run = Simulator::new(pg)
            .run(|_, d| VertexCoverNode::new(delta, d))
            .unwrap();
        let fixed = Simulator::new(pg)
            .run(|_, d| reference::FixedNode::new(delta, d))
            .unwrap();
        let what = format!("{what} Δ={delta}");
        assert_eq!(run.outputs, fixed.outputs, "{what}");
        for (v, (at, cap)) in run.halted_at.iter().zip(&fixed.halted_at).enumerate() {
            assert!(at <= cap, "{what}: node {v} halted at {at}, after {cap}");
        }
        assert!(run.rounds <= fixed.rounds, "{what}");
        assert!(run.messages <= fixed.messages, "{what}");
        totals.instances += 1;
        totals.messages += run.messages;
        totals.fixed_messages += fixed.messages;
    }

    #[test]
    fn halting_run_matches_the_fixed_schedule() {
        let mut totals = Totals::default();
        for salt in 0..36u64 {
            let families = [
                ("gnp-24", generators::gnp(24, 0.2, salt).unwrap()),
                (
                    "bounded-degree-30-D5",
                    generators::random_bounded_degree(30, 5, 0.8, salt).unwrap(),
                ),
                (
                    "power-law-30",
                    generators::preferential_attachment(30, 2, salt).unwrap(),
                ),
                ("tree-30", generators::random_tree(30, salt).unwrap()),
                (
                    "regular-20",
                    generators::random_regular(20, 1 + salt as usize % 6, salt).unwrap(),
                ),
            ];
            for (name, g) in families {
                for shuffled in [false, true] {
                    let pg = if shuffled {
                        ports::shuffled_ports(&g, salt).unwrap()
                    } else {
                        ports::canonical_ports(&g).unwrap()
                    };
                    // The true maximum degree, and claims above it.
                    let max = pg.max_degree();
                    for delta in [max, max + 1, max + 2 + salt as usize % 5] {
                        let what = format!("{name} salt={salt} shuffled={shuffled}");
                        assert_matches_fixed_schedule(&pg, delta, &what, &mut totals);
                    }
                }
            }
        }
        assert_eq!(totals.instances, 36 * 5 * 2 * 3);
        assert!(
            3 * totals.messages < totals.fixed_messages,
            "halting saved too little: {totals:?}"
        );
    }

    #[test]
    fn star_cover_is_small() {
        // On a star the cover is the hub plus one leaf (the accepted
        // proposal pair): within factor 3 of OPT = 1.
        let g = ports::canonical_ports(&generators::star(6).unwrap()).unwrap();
        let cover = vertex_cover_reference(&g);
        assert!(is_vertex_cover(&g, &cover));
        assert!(cover.len() <= 3);
    }

    #[test]
    fn edgeless_graph_empty_cover() {
        let g = ports::canonical_ports(&pn_graph::SimpleGraph::new(4)).unwrap();
        assert!(vertex_cover_reference(&g).is_empty());
        assert!(vertex_cover_distributed(&g, 3).unwrap().is_empty());
    }
}
