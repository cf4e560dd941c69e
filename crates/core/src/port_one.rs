//! Theorem 3: the `O(1)`-time factor `4 - 2/d` algorithm for `d`-regular
//! graphs.
//!
//! *"The algorithm outputs all edges that are connected to a port with
//! port number 1."*
//!
//! Analysis (paper Section 6): the output `D` covers every node (each node
//! contributes its port-1 edge), hence dominates every edge; `|D| ≤ |V|`;
//! and any edge dominates at most `2d - 1` edges, so
//! `|E| ≤ (2d-1) |D*|`. With `d |V| = 2 |E|` the ratio is
//! `|D| / |D*| ≤ 4 - 2/d`, which Theorem 1 shows is optimal for even `d`.

use pn_graph::{EdgeId, Endpoint, NodeId, Port, PortNumberedGraph};
use pn_runtime::{NodeAlgorithm, PortSet};

/// Centralised reference implementation: all edges touching a port 1.
///
/// Works on any port-numbered graph (the approximation guarantee is for
/// `d`-regular graphs, but the output is a feasible edge dominating set
/// whenever every node has degree at least 1).
///
/// # Examples
///
/// ```
/// use pn_graph::{generators, ports};
/// use eds_core::port_one::port_one_reference;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = ports::canonical_ports(&generators::cycle(6)?)?;
/// let d = port_one_reference(&g);
/// assert!(!d.is_empty());
/// # Ok(())
/// # }
/// ```
pub fn port_one_reference(g: &PortNumberedGraph) -> Vec<EdgeId> {
    let mut selected = vec![false; g.edge_count()];
    for v in g.nodes() {
        if g.degree(v) >= 1 {
            let e = g.edge_at(Endpoint::new(v, Port::new(1)));
            selected[e.index()] = true;
        }
    }
    (0..g.edge_count())
        .map(EdgeId::new)
        .filter(|e| selected[e.index()])
        .collect()
}

/// Message of the distributed port-one algorithm: "my end of this link is
/// port number 1".
pub type PortOneMessage = bool;

/// Distributed implementation of Theorem 3 as a [`NodeAlgorithm`].
///
/// One communication round: every node announces on each port whether that
/// port is its port 1; a node selects its own port 1 plus every port on
/// which the neighbour announced a port 1. Output consistency is immediate.
#[derive(Clone, Debug)]
pub struct PortOneNode {
    degree: usize,
}

impl PortOneNode {
    /// Creates the node state machine for a node of degree `degree`.
    pub fn new(degree: usize) -> Self {
        PortOneNode { degree }
    }
}

impl NodeAlgorithm for PortOneNode {
    type Message = PortOneMessage;
    type Output = PortSet;

    fn send_into(&mut self, _round: usize, outbox: &mut [Option<Self::Message>]) {
        for (i, slot) in outbox.iter_mut().enumerate() {
            *slot = Some(i == 0);
        }
    }

    fn receive(&mut self, _round: usize, inbox: &[Option<Self::Message>]) -> Option<Self::Output> {
        let mut x = PortSet::new();
        if self.degree >= 1 {
            x.insert(Port::new(1));
        }
        for (i, m) in inbox.iter().enumerate() {
            if m == &Some(true) {
                x.insert(Port::from_index(i));
            }
        }
        Some(x)
    }
}

/// The worst-case approximation ratio of Theorem 3 on `d`-regular graphs,
/// as an exact fraction `(numerator, denominator)`: `4 - 2/d = (4d-2)/d`.
///
/// # Panics
///
/// Panics if `d == 0`.
pub fn port_one_ratio(d: usize) -> (u64, u64) {
    assert!(d >= 1, "ratio defined for d >= 1");
    (4 * d as u64 - 2, d as u64)
}

/// Counts how many nodes are covered by the edge set (sanity helper for
/// the Theorem 3 analysis: the output always covers all nodes).
pub fn covers_all_nodes(g: &PortNumberedGraph, edges: &[EdgeId]) -> bool {
    let mut covered = vec![false; g.node_count()];
    for &e in edges {
        let (u, v) = g.edge(e).nodes();
        covered[u.index()] = true;
        covered[v.index()] = true;
    }
    g.nodes().all(|v| covered[v.index()] || g.degree(v) == 0)
}

/// Runs the distributed algorithm on `g` and returns the selected edges,
/// checking output consistency.
///
/// # Errors
///
/// Propagates simulator and consistency errors; neither occurs on valid
/// inputs.
pub fn port_one_distributed(
    g: &PortNumberedGraph,
) -> Result<Vec<EdgeId>, pn_runtime::RuntimeError> {
    let run = pn_runtime::Simulator::new(g).run(|_, d| PortOneNode::new(d))?;
    pn_runtime::edge_set_from_outputs(g, &run.outputs)
}

/// The node that owns the cheapest port of an edge — used in tests to
/// predict the output of the reference algorithm.
pub fn min_port_endpoint(g: &PortNumberedGraph, e: EdgeId) -> NodeId {
    let (a, b) = g.edge_endpoints(e);
    if a.port <= b.port {
        a.node
    } else {
        b.node
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pn_graph::{generators, ports};

    #[test]
    fn reference_and_distributed_agree() {
        for seed in 0..5 {
            let g = generators::random_regular(10, 4, seed).unwrap();
            let pg = ports::shuffled_ports(&g, seed).unwrap();
            let reference = port_one_reference(&pg);
            let distributed = port_one_distributed(&pg).unwrap();
            assert_eq!(reference, distributed);
        }
    }

    #[test]
    fn output_covers_all_nodes() {
        for seed in 0..5 {
            let g = generators::random_regular(12, 3, seed).unwrap();
            let pg = ports::shuffled_ports(&g, seed + 100).unwrap();
            let d = port_one_reference(&pg);
            assert!(covers_all_nodes(&pg, &d));
        }
    }

    #[test]
    fn one_round_only() {
        let g = ports::canonical_ports(&generators::torus(4, 4).unwrap()).unwrap();
        let run = pn_runtime::Simulator::new(&g)
            .run(|_, d| PortOneNode::new(d))
            .unwrap();
        assert_eq!(run.rounds, 1);
    }

    #[test]
    fn size_at_most_node_count() {
        let g = ports::shuffled_ports(&generators::complete(7).unwrap(), 5).unwrap();
        let d = port_one_reference(&g);
        assert!(d.len() <= g.node_count());
    }

    #[test]
    fn ratio_values() {
        assert_eq!(port_one_ratio(2), (6, 2)); // 3
        assert_eq!(port_one_ratio(4), (14, 4)); // 3.5
        assert_eq!(port_one_ratio(6), (22, 6)); // 11/3
    }

    #[test]
    fn perfect_matching_graph_gets_all_edges() {
        // d = 1: every node's port 1 is its only edge; D = all edges,
        // which is optimal (ratio 4 - 2/1 = 2 is pessimistic here).
        let g = generators::disjoint_union(&[
            generators::path(2).unwrap(),
            generators::path(2).unwrap(),
        ]);
        let pg = ports::canonical_ports(&g).unwrap();
        let d = port_one_reference(&pg);
        assert_eq!(d.len(), 2);
    }
}
