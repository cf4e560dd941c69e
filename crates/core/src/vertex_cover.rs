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

use pn_graph::{NodeId, PortNumberedGraph};
use pn_runtime::{NodeAlgorithm, RuntimeError, Simulator};

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
/// protocol. Each node plays a proposer and an acceptor role; after
/// `2·Δ` rounds it outputs whether it is covered by the 2-matching.
///
/// The family is parametrised by `Δ` (an upper bound on the degrees)
/// because anonymous nodes cannot otherwise know when all proposals have
/// settled.
#[derive(Clone, Debug)]
pub struct VertexCoverNode {
    delta: usize,
    degree: usize,
    cursor: usize,
    pending: Option<usize>,
    incoming: Vec<usize>,
    proposer_done: bool,
    acceptor_done: bool,
    in_p: Vec<bool>,
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
            incoming: Vec::new(),
            proposer_done: false,
            acceptor_done: false,
            in_p: vec![false; degree],
        }
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
        assert_eq!(run.rounds, 8);
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
