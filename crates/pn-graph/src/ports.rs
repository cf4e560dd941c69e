//! Port-assignment strategies: turning a [`SimpleGraph`] into a
//! [`PortNumberedGraph`].
//!
//! A distributed algorithm in the port-numbering model has no control over
//! how ports are assigned — the assignment is part of the input, chosen by
//! an adversary in the lower bounds. Three strategies are provided:
//!
//! * [`canonical_ports`] — ports follow adjacency-list insertion order;
//! * [`shuffled_ports`] — a seeded random permutation per node;
//! * [`two_factor_ports`] — the adversarial numbering of the paper's lower
//!   bounds, threading ports `2i-1`/`2i` along the oriented cycles of the
//!   `i`-th 2-factor (only for `2k`-regular graphs).

use rand::seq::SliceRandom;
use rand::{rngs::StdRng, SeedableRng};

use crate::factorization::two_factorize_simple;
use crate::{
    EdgeId, Endpoint, GraphError, NodeId, PnGraphBuilder, Port, PortNumberedGraph, SimpleGraph,
};

/// Assigns ports in adjacency-list order: the `i`-th neighbour added to `v`
/// is reached through port `i`.
///
/// # Errors
///
/// Propagates builder errors; these cannot occur for a well-formed
/// [`SimpleGraph`].
///
/// # Examples
///
/// ```
/// use pn_graph::{SimpleGraph, ports::canonical_ports, NodeId, Port};
/// # fn main() -> Result<(), pn_graph::GraphError> {
/// let mut g = SimpleGraph::new(3);
/// g.add_edge_ids(0, 1)?;
/// g.add_edge_ids(0, 2)?;
/// let pg = canonical_ports(&g)?;
/// assert_eq!(pg.neighbor_through(NodeId::new(0), Port::new(1)), NodeId::new(1));
/// assert_eq!(pg.neighbor_through(NodeId::new(0), Port::new(2)), NodeId::new(2));
/// # Ok(())
/// # }
/// ```
pub fn canonical_ports(g: &SimpleGraph) -> Result<PortNumberedGraph, GraphError> {
    let orders: Vec<Vec<EdgeId>> = g.nodes().map(|v| g.incident_edges(v).collect()).collect();
    ports_from_orders(g, &orders)
}

/// Assigns ports by a seeded random permutation of each node's incident
/// edges. Deterministic for a fixed seed.
///
/// # Errors
///
/// Propagates builder errors; these cannot occur for a well-formed
/// [`SimpleGraph`].
pub fn shuffled_ports(g: &SimpleGraph, seed: u64) -> Result<PortNumberedGraph, GraphError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let orders: Vec<Vec<EdgeId>> = g
        .nodes()
        .map(|v| {
            let mut inc: Vec<EdgeId> = g.incident_edges(v).collect();
            inc.shuffle(&mut rng);
            inc
        })
        .collect();
    ports_from_orders(g, &orders)
}

/// Assigns ports from explicit per-node edge orders: `orders[v]` lists the
/// incident edges of `v` in the desired port order (`orders[v][0]` gets
/// port 1, and so on).
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `orders[v]` is not a
/// permutation of the incident edges of `v`.
pub fn ports_from_orders(
    g: &SimpleGraph,
    orders: &[Vec<EdgeId>],
) -> Result<PortNumberedGraph, GraphError> {
    if orders.len() != g.node_count() {
        return Err(GraphError::InvalidParameter {
            detail: format!(
                "orders has {} entries for a graph with {} nodes",
                orders.len(),
                g.node_count()
            ),
        });
    }
    // port_of[slot in edge] -> port of each endpoint. Only `v` writes its
    // own side of an edge, so a side already set means `v` listed the
    // edge twice.
    let mut port_of_u: Vec<Option<Port>> = vec![None; g.edge_count()];
    let mut port_of_v: Vec<Option<Port>> = vec![None; g.edge_count()];
    for v in g.nodes() {
        let order = &orders[v.index()];
        if order.len() != g.degree(v) {
            return Err(GraphError::InvalidParameter {
                detail: format!(
                    "order of node {v} has {} entries but degree is {}",
                    order.len(),
                    g.degree(v)
                ),
            });
        }
        let not_a_permutation = || GraphError::InvalidParameter {
            detail: format!("order of node {v} is not a permutation of its incident edges"),
        };
        for (i, &e) in order.iter().enumerate() {
            if e.index() >= g.edge_count() {
                return Err(not_a_permutation());
            }
            let (a, b) = g.endpoints(e);
            let side = if a == v {
                &mut port_of_u[e.index()]
            } else if b == v {
                &mut port_of_v[e.index()]
            } else {
                return Err(not_a_permutation());
            };
            if side.replace(Port::from_index(i)).is_some() {
                return Err(not_a_permutation());
            }
        }
    }
    let mut b = PnGraphBuilder::new();
    for v in g.nodes() {
        b.add_node(g.degree(v));
    }
    for (e, u, v) in g.edges() {
        let pu = port_of_u[e.index()].ok_or_else(|| GraphError::InvalidParameter {
            detail: format!("edge {e} missing from order of node {u}"),
        })?;
        let pv = port_of_v[e.index()].ok_or_else(|| GraphError::InvalidParameter {
            detail: format!("edge {e} missing from order of node {v}"),
        })?;
        b.connect(Endpoint::new(u, pu), Endpoint::new(v, pv))?;
    }
    let pg = b.finish()?;
    debug_assert_eq!(pg.edge_count(), g.edge_count());
    Ok(pg)
}

/// The adversarial 2-factorised port numbering used in the lower bounds
/// (paper Sections 3.2 and 4.1).
///
/// Requires a `2k`-regular graph. The graph is split into `k` oriented
/// 2-factors; for each arc `u → v` of factor `i`, port `2i-1` of `u` is
/// wired to port `2i` of `v`. Every node then uses each port exactly once,
/// and *every* node sees the identical local wiring pattern — the source of
/// the indistinguishability in the lower-bound proofs.
///
/// # Errors
///
/// Returns [`GraphError::NotRegular`]/[`GraphError::OddDegree`] if the
/// graph is not `2k`-regular.
pub fn two_factor_ports(g: &SimpleGraph) -> Result<PortNumberedGraph, GraphError> {
    let factors = two_factorize_simple(g)?;
    let mut b = PnGraphBuilder::new();
    for v in g.nodes() {
        b.add_node(g.degree(v));
    }
    for (i, f) in factors.iter().enumerate() {
        let (out_port, in_port) = factor_ports(i);
        for (u, v, _e) in f.arcs() {
            b.connect(Endpoint::new(u, out_port), Endpoint::new(v, in_port))?;
        }
    }
    b.finish()
}

/// The pair of ports `(2i-1, 2i)` assigned to (0-based) factor `i` by the
/// paper's numbering scheme.
pub fn factor_ports(i: usize) -> (Port, Port) {
    (Port::new(2 * i as u32 + 1), Port::new(2 * i as u32 + 2))
}

/// Verifies that the port-numbered graph `pg` realises the simple graph
/// `g`: same node count, same degrees, and every edge of `g` appears as a
/// link of `pg` (and nothing else).
pub fn realizes(pg: &PortNumberedGraph, g: &SimpleGraph) -> bool {
    if pg.node_count() != g.node_count() || pg.edge_count() != g.edge_count() {
        return false;
    }
    if !pg.is_simple() {
        return false;
    }
    for (_, shape) in pg.edges() {
        let (u, v) = shape.nodes();
        if !g.has_edge(u, v) {
            return false;
        }
    }
    g.nodes().all(|v| pg.degree(v) == g.degree(v))
}

/// Enumerates *all* port numberings of a small simple graph, as explicit
/// per-node edge orders. The count is `Π_v d(v)!`, so use only on tiny
/// graphs (tests, exhaustive lower-bound checks).
pub fn all_port_orders(g: &SimpleGraph) -> Vec<Vec<Vec<EdgeId>>> {
    fn permutations(items: &[EdgeId]) -> Vec<Vec<EdgeId>> {
        if items.is_empty() {
            return vec![Vec::new()];
        }
        let mut out = Vec::new();
        for i in 0..items.len() {
            let mut rest = items.to_vec();
            let x = rest.remove(i);
            for mut tail in permutations(&rest) {
                let mut perm = vec![x];
                perm.append(&mut tail);
                out.push(perm);
            }
        }
        out
    }
    let per_node: Vec<Vec<Vec<EdgeId>>> = g
        .nodes()
        .map(|v| permutations(&g.incident_edges(v).collect::<Vec<_>>()))
        .collect();
    let mut results: Vec<Vec<Vec<EdgeId>>> = vec![Vec::new()];
    for options in per_node {
        let mut next = Vec::with_capacity(results.len() * options.len());
        for prefix in &results {
            for opt in &options {
                let mut row = prefix.clone();
                row.push(opt.clone());
                next.push(row);
            }
        }
        results = next;
    }
    results
}

/// Convenience: the node each port of `v` leads to, in port order.
pub fn neighbor_list(pg: &PortNumberedGraph, v: NodeId) -> Vec<NodeId> {
    pg.ports(v).map(|p| pg.neighbor_through(v, p)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn canonical_round_trip() {
        let g = generators::cycle(6).unwrap();
        let pg = canonical_ports(&g).unwrap();
        assert!(realizes(&pg, &g));
        let back = pg.to_simple().unwrap();
        assert_eq!(back.edge_count(), g.edge_count());
    }

    #[test]
    fn shuffled_is_deterministic_and_valid() {
        let g = generators::complete(5).unwrap();
        let a = shuffled_ports(&g, 42).unwrap();
        let b = shuffled_ports(&g, 42).unwrap();
        let c = shuffled_ports(&g, 43).unwrap();
        assert_eq!(a, b);
        assert!(realizes(&a, &g));
        assert!(realizes(&c, &g));
    }

    #[test]
    fn two_factor_ports_structure() {
        // C6 is 2-regular: one factor, ports 1 and 2.
        let g = generators::cycle(6).unwrap();
        let pg = two_factor_ports(&g).unwrap();
        assert!(realizes(&pg, &g));
        for v in pg.nodes() {
            // Port 1 leads "forward", port 2 "backward": the wiring must be
            // port 1 -> port 2 everywhere.
            let out = pg.connection(Endpoint::new(v, Port::new(1)));
            assert_eq!(out.port, Port::new(2));
            let inn = pg.connection(Endpoint::new(v, Port::new(2)));
            assert_eq!(inn.port, Port::new(1));
        }
    }

    #[test]
    fn two_factor_ports_k5() {
        let g = generators::complete(5).unwrap();
        let pg = two_factor_ports(&g).unwrap();
        assert!(realizes(&pg, &g));
        // Every odd port wires to the next even port.
        for v in pg.nodes() {
            for i in 0..2 {
                let (po, pi) = factor_ports(i);
                assert_eq!(pg.connection(Endpoint::new(v, po)).port, pi);
                assert_eq!(pg.connection(Endpoint::new(v, pi)).port, po);
            }
        }
    }

    #[test]
    fn two_factor_ports_rejects_odd_regular() {
        let g = generators::complete(4).unwrap(); // 3-regular
        assert!(two_factor_ports(&g).is_err());
    }

    #[test]
    fn orders_validation() {
        let mut g = SimpleGraph::new(2);
        let e = g.add_edge_ids(0, 1).unwrap();
        // Wrong length.
        assert!(ports_from_orders(&g, &[vec![e]]).is_err());
        // Edge not incident.
        let bad = vec![vec![e], vec![EdgeId::new(0)]];
        assert!(ports_from_orders(&g, &bad).is_ok()); // e is incident to both
        let mut g2 = SimpleGraph::new(3);
        let e0 = g2.add_edge_ids(0, 1).unwrap();
        let e1 = g2.add_edge_ids(1, 2).unwrap();
        let bad2 = vec![vec![e1], vec![e0, e1], vec![e1]];
        assert!(ports_from_orders(&g2, &bad2).is_err()); // e1 not incident to node 0

        // A repeated edge, at either endpoint side, and an out-of-range
        // id (an error, not a panic) are caught in node 1's own order.
        let not_a_permutation = |orders: &[Vec<EdgeId>]| match ports_from_orders(&g2, orders) {
            Err(GraphError::InvalidParameter { detail }) => {
                detail == "order of node 1 is not a permutation of its incident edges"
            }
            _ => false,
        };
        assert!(not_a_permutation(&[vec![e0], vec![e1, e1], vec![e1]]));
        assert!(not_a_permutation(&[vec![e0], vec![e0, e0], vec![e1]]));
        assert!(not_a_permutation(&[
            vec![e0],
            vec![e0, EdgeId::new(7)],
            vec![e1]
        ]));
    }

    #[test]
    fn all_port_orders_count() {
        // Path on 3 nodes: degrees 1, 2, 1 -> 1! * 2! * 1! = 2 numberings.
        let g = generators::path(3).unwrap();
        let all = all_port_orders(&g);
        assert_eq!(all.len(), 2);
        for orders in &all {
            let pg = ports_from_orders(&g, orders).unwrap();
            assert!(realizes(&pg, &g));
        }
    }

    #[test]
    fn neighbor_list_matches_ports() {
        let g = generators::star(3).unwrap();
        let pg = canonical_ports(&g).unwrap();
        let hub = NodeId::new(0);
        let nl = neighbor_list(&pg, hub);
        assert_eq!(nl.len(), 3);
    }
}
