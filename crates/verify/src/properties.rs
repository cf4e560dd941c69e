//! Structural property checkers for edge subsets.
//!
//! Each checker returns `Ok(())` or a [`Violation`] pinpointing the first
//! counterexample — far more useful in test failures than a bare `false`.
//!
//! Every checker reads its graph through [`EdgeView`], so it runs on a
//! [`pn_graph::SimpleGraph`] or in place on a simple
//! [`pn_graph::PortNumberedGraph`]. Edge ids and endpoint pairs agree
//! between a port-numbered graph and its `to_simple()` projection, so
//! both give the same verdict and the same [`Violation`].

use std::error::Error;
use std::fmt;

use pn_graph::{EdgeId, EdgeView, NodeId};

/// A failed property check, with the witness that breaks it.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum Violation {
    /// An edge is not dominated by the candidate set.
    UndominatedEdge {
        /// The undominated edge.
        edge: EdgeId,
        /// Its endpoints.
        endpoints: (NodeId, NodeId),
    },
    /// A node is not covered by the candidate set.
    UncoveredNode {
        /// The uncovered node.
        node: NodeId,
    },
    /// A node has more incident set edges than allowed.
    DegreeExceeded {
        /// The overloaded node.
        node: NodeId,
        /// Number of incident set edges.
        found: usize,
        /// The allowed maximum.
        allowed: usize,
    },
    /// The set is a matching but not maximal: this edge could be added.
    NotMaximal {
        /// An addable edge.
        edge: EdgeId,
    },
    /// The edge subgraph contains a cycle.
    ContainsCycle,
    /// The edge subgraph contains a path of three edges (not a star
    /// forest).
    ThreeEdgePath {
        /// The middle edge of the offending path.
        middle: EdgeId,
    },
    /// An edge id is out of range for the graph.
    UnknownEdge {
        /// The offending id.
        edge: EdgeId,
    },
    /// An edge appears twice in the candidate list.
    DuplicateEdge {
        /// The duplicated id.
        edge: EdgeId,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::UndominatedEdge { edge, endpoints } => write!(
                f,
                "edge {edge} = {{{}, {}}} is not dominated",
                endpoints.0, endpoints.1
            ),
            Violation::UncoveredNode { node } => write!(f, "node {node} is not covered"),
            Violation::DegreeExceeded {
                node,
                found,
                allowed,
            } => write!(
                f,
                "node {node} has {found} incident set edges, allowed {allowed}"
            ),
            Violation::NotMaximal { edge } => {
                write!(f, "matching is not maximal: edge {edge} can be added")
            }
            Violation::ContainsCycle => write!(f, "edge subgraph contains a cycle"),
            Violation::ThreeEdgePath { middle } => write!(
                f,
                "edge subgraph contains a three-edge path with middle edge {middle}"
            ),
            Violation::UnknownEdge { edge } => write!(f, "edge {edge} is out of range"),
            Violation::DuplicateEdge { edge } => write!(f, "edge {edge} listed twice"),
        }
    }
}

impl Error for Violation {}

fn validate_ids<G: EdgeView + ?Sized>(g: &G, edges: &[EdgeId]) -> Result<(), Violation> {
    let mut seen = vec![false; g.edge_count()];
    for &e in edges {
        if e.index() >= g.edge_count() {
            return Err(Violation::UnknownEdge { edge: e });
        }
        if seen[e.index()] {
            return Err(Violation::DuplicateEdge { edge: e });
        }
        seen[e.index()] = true;
    }
    Ok(())
}

fn set_degrees<G: EdgeView + ?Sized>(g: &G, edges: &[EdgeId]) -> Vec<usize> {
    let mut deg = vec![0usize; g.node_count()];
    for &e in edges {
        let (u, v) = g.endpoints(e);
        deg[u.index()] += 1;
        deg[v.index()] += 1;
    }
    deg
}

/// Checks that `edges` dominates every edge of `g` (paper Section 2:
/// every edge is in the set or adjacent to a set edge).
pub fn check_edge_dominating_set<G: EdgeView + ?Sized>(
    g: &G,
    edges: &[EdgeId],
) -> Result<(), Violation> {
    validate_ids(g, edges)?;
    let deg = set_degrees(g, edges);
    for (e, u, v) in g.endpoint_pairs() {
        if deg[u.index()] == 0 && deg[v.index()] == 0 {
            return Err(Violation::UndominatedEdge {
                edge: e,
                endpoints: (u, v),
            });
        }
    }
    Ok(())
}

/// Checks that `edges` covers every node of `g` that has at least one
/// incident edge (isolated nodes cannot be covered and are exempt).
pub fn check_edge_cover<G: EdgeView + ?Sized>(g: &G, edges: &[EdgeId]) -> Result<(), Violation> {
    validate_ids(g, edges)?;
    let deg = set_degrees(g, edges);
    let mut isolated = vec![true; g.node_count()];
    for (_, u, v) in g.endpoint_pairs() {
        isolated[u.index()] = false;
        isolated[v.index()] = false;
    }
    match (0..g.node_count()).find(|&v| !isolated[v] && deg[v] == 0) {
        Some(v) => Err(Violation::UncoveredNode {
            node: NodeId::new(v),
        }),
        None => Ok(()),
    }
}

/// Checks that `edges` is a `k`-matching: every node has at most `k`
/// incident set edges.
pub fn check_k_matching<G: EdgeView + ?Sized>(
    g: &G,
    edges: &[EdgeId],
    k: usize,
) -> Result<(), Violation> {
    validate_ids(g, edges)?;
    let deg = set_degrees(g, edges);
    match deg.iter().position(|&d| d > k) {
        Some(v) => Err(Violation::DegreeExceeded {
            node: NodeId::new(v),
            found: deg[v],
            allowed: k,
        }),
        None => Ok(()),
    }
}

/// Checks that `edges` is a matching (a 1-matching).
pub fn check_matching<G: EdgeView + ?Sized>(g: &G, edges: &[EdgeId]) -> Result<(), Violation> {
    check_k_matching(g, edges, 1)
}

/// Checks that `edges` is a *maximal* matching: a matching to which no
/// edge of `g` can be added.
pub fn check_maximal_matching<G: EdgeView + ?Sized>(
    g: &G,
    edges: &[EdgeId],
) -> Result<(), Violation> {
    check_matching(g, edges)?;
    let deg = set_degrees(g, edges);
    for (e, u, v) in g.endpoint_pairs() {
        if deg[u.index()] == 0 && deg[v.index()] == 0 {
            return Err(Violation::NotMaximal { edge: e });
        }
    }
    Ok(())
}

/// Checks that the subgraph induced by `edges` is a forest.
pub fn check_forest<G: EdgeView + ?Sized>(g: &G, edges: &[EdgeId]) -> Result<(), Violation> {
    validate_ids(g, edges)?;
    // Union-find over endpoints.
    let mut parent: Vec<usize> = (0..g.node_count()).collect();
    fn find(parent: &mut Vec<usize>, x: usize) -> usize {
        if parent[x] != x {
            let root = find(parent, parent[x]);
            parent[x] = root;
        }
        parent[x]
    }
    for &e in edges {
        let (u, v) = g.endpoints(e);
        let (ru, rv) = (find(&mut parent, u.index()), find(&mut parent, v.index()));
        if ru == rv {
            return Err(Violation::ContainsCycle);
        }
        parent[ru] = rv;
    }
    Ok(())
}

/// Checks that the subgraph induced by `edges` is a forest of
/// node-disjoint stars (equivalently: no path of three edges; every edge
/// has an endpoint of subgraph-degree 1).
pub fn check_star_forest<G: EdgeView + ?Sized>(g: &G, edges: &[EdgeId]) -> Result<(), Violation> {
    check_forest(g, edges)?;
    let deg = set_degrees(g, edges);
    for &e in edges {
        let (u, v) = g.endpoints(e);
        if deg[u.index()] >= 2 && deg[v.index()] >= 2 {
            return Err(Violation::ThreeEdgePath { middle: e });
        }
    }
    Ok(())
}

/// Checks the paper's Section 2 structural claim for 2-matchings: the
/// subgraph induced by a 2-matching consists of node-disjoint paths and
/// cycles (equivalently, it is a 2-matching — every node has degree at
/// most 2 in it; this checker additionally reports the component shape).
///
/// Returns the number of path components and cycle components.
///
/// # Errors
///
/// Returns a [`Violation`] if the set is not a 2-matching.
pub fn check_paths_and_cycles<G: EdgeView + ?Sized>(
    g: &G,
    edges: &[EdgeId],
) -> Result<(usize, usize), Violation> {
    check_k_matching(g, edges, 2)?;
    // Build the induced subgraph's adjacency among involved nodes.
    let deg = set_degrees(g, edges);
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); g.node_count()];
    for &e in edges {
        let (u, v) = g.endpoints(e);
        adj[u.index()].push(v.index());
        adj[v.index()].push(u.index());
    }
    let mut seen = vec![false; g.node_count()];
    let mut paths = 0;
    let mut cycles = 0;
    for start in 0..g.node_count() {
        if seen[start] || deg[start] == 0 {
            continue;
        }
        // Walk the component, counting nodes and edges.
        let mut stack = vec![start];
        let mut nodes = 0usize;
        let mut degree_sum = 0usize;
        while let Some(v) = stack.pop() {
            if seen[v] {
                continue;
            }
            seen[v] = true;
            nodes += 1;
            degree_sum += adj[v].len();
            for &u in &adj[v] {
                if !seen[u] {
                    stack.push(u);
                }
            }
        }
        let component_edges = degree_sum / 2;
        if component_edges == nodes {
            cycles += 1; // every node degree 2: a cycle
        } else {
            paths += 1; // a tree with max degree 2: a path
        }
    }
    Ok((paths, cycles))
}

/// Checks that two edge sets are node-disjoint (no node incident to edges
/// of both).
pub fn check_node_disjoint<G: EdgeView + ?Sized>(
    g: &G,
    a: &[EdgeId],
    b: &[EdgeId],
) -> Result<(), Violation> {
    let da = set_degrees(g, a);
    let db = set_degrees(g, b);
    match (0..g.node_count()).find(|&v| da[v] > 0 && db[v] > 0) {
        Some(v) => Err(Violation::DegreeExceeded {
            node: NodeId::new(v),
            found: da[v] + db[v],
            allowed: 0,
        }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pn_graph::generators;

    fn ids(xs: &[usize]) -> Vec<EdgeId> {
        xs.iter().map(|&x| EdgeId::new(x)).collect()
    }

    #[test]
    fn dominating_set_checks() {
        let g = generators::path(5).unwrap(); // edges 0..3 along the path
        assert!(check_edge_dominating_set(&g, &ids(&[1, 2])).is_ok());
        let err = check_edge_dominating_set(&g, &ids(&[0])).unwrap_err();
        assert!(matches!(err, Violation::UndominatedEdge { .. }));
    }

    #[test]
    fn cover_checks() {
        let g = generators::cycle(4).unwrap();
        assert!(check_edge_cover(&g, &ids(&[0, 2])).is_ok());
        assert!(matches!(
            check_edge_cover(&g, &ids(&[0])),
            Err(Violation::UncoveredNode { .. })
        ));
    }

    #[test]
    fn isolated_nodes_exempt_from_cover() {
        let mut g = generators::path(2).unwrap();
        g.add_node();
        assert!(check_edge_cover(&g, &ids(&[0])).is_ok());
    }

    #[test]
    fn matching_checks() {
        let g = generators::path(4).unwrap();
        assert!(check_matching(&g, &ids(&[0, 2])).is_ok());
        assert!(matches!(
            check_matching(&g, &ids(&[0, 1])),
            Err(Violation::DegreeExceeded { .. })
        ));
        assert!(check_k_matching(&g, &ids(&[0, 1]), 2).is_ok());
    }

    #[test]
    fn maximal_matching_checks() {
        let g = generators::path(5).unwrap();
        assert!(check_maximal_matching(&g, &ids(&[0, 2])).is_ok());
        assert!(matches!(
            check_maximal_matching(&g, &ids(&[1])),
            Err(Violation::NotMaximal { .. })
        ));
    }

    #[test]
    fn forest_checks() {
        let g = generators::cycle(4).unwrap();
        assert!(check_forest(&g, &ids(&[0, 1, 2])).is_ok());
        assert!(matches!(
            check_forest(&g, &ids(&[0, 1, 2, 3])),
            Err(Violation::ContainsCycle)
        ));
    }

    #[test]
    fn star_forest_checks() {
        let g = generators::path(6).unwrap(); // 5 edges
        assert!(check_star_forest(&g, &ids(&[0, 1])).is_ok()); // star at node 1
        assert!(matches!(
            check_star_forest(&g, &ids(&[0, 1, 2])),
            Err(Violation::ThreeEdgePath { .. })
        ));
    }

    #[test]
    fn paths_and_cycles_checks() {
        // C6: taking all edges is a 2-matching forming one cycle.
        let g = generators::cycle(6).unwrap();
        let all: Vec<EdgeId> = g.edges().map(|(e, _, _)| e).collect();
        assert_eq!(check_paths_and_cycles(&g, &all), Ok((0, 1)));
        // Dropping one edge leaves one path.
        assert_eq!(check_paths_and_cycles(&g, &all[1..]), Ok((1, 0)));
        // Two disjoint edges: two paths.
        assert_eq!(check_paths_and_cycles(&g, &ids(&[0, 3])), Ok((2, 0)));
        // Empty set: nothing.
        assert_eq!(check_paths_and_cycles(&g, &[]), Ok((0, 0)));
        // A claw is not a 2-matching.
        let s = generators::star(3).unwrap();
        let claw: Vec<EdgeId> = s.edges().map(|(e, _, _)| e).collect();
        assert!(check_paths_and_cycles(&s, &claw).is_err());
    }

    #[test]
    fn node_disjoint_checks() {
        let g = generators::path(6).unwrap();
        assert!(check_node_disjoint(&g, &ids(&[0]), &ids(&[2])).is_ok());
        assert!(check_node_disjoint(&g, &ids(&[0]), &ids(&[1])).is_err());
    }

    #[test]
    fn id_validation() {
        let g = generators::path(3).unwrap();
        assert!(matches!(
            check_matching(&g, &ids(&[7])),
            Err(Violation::UnknownEdge { .. })
        ));
        assert!(matches!(
            check_matching(&g, &ids(&[0, 0])),
            Err(Violation::DuplicateEdge { .. })
        ));
    }

    /// Every checker gives a port-numbered graph read in place the
    /// verdict, and the message, it gives the graph's `to_simple()`
    /// projection: on random graphs with shuffled ports, over feasible
    /// sets and the same sets damaged.
    #[test]
    fn port_numbered_graphs_read_like_their_projections() {
        use pn_graph::{matching, ports};
        use rand::{rngs::StdRng, Rng, SeedableRng};

        /// Each checker's verdict: `Ok` carries what it returns.
        fn verdicts<G: EdgeView + ?Sized>(
            g: &G,
            a: &[EdgeId],
            b: &[EdgeId],
        ) -> Vec<Result<String, Violation>> {
            let unit = |r: Result<(), Violation>| r.map(|()| String::new());
            let mut out = vec![
                unit(check_edge_dominating_set(g, a)),
                unit(check_edge_cover(g, a)),
                unit(check_k_matching(g, a, 2)),
                unit(check_matching(g, a)),
                unit(check_maximal_matching(g, a)),
                unit(check_forest(g, a)),
                unit(check_star_forest(g, a)),
                check_paths_and_cycles(g, a).map(|pc| format!("{pc:?}")),
            ];
            // The one checker that does not validate ids first.
            if a.iter().chain(b).all(|e| e.index() < g.edge_count()) {
                out.push(unit(check_node_disjoint(g, a, b)));
            }
            out
        }

        let mut kinds = std::collections::HashSet::new();
        for seed in 0..60u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(2usize..30);
            let g = generators::gnp(n, rng.gen_range(0.05..0.5), seed).unwrap();
            let pg = ports::shuffled_ports(&g, seed).unwrap();
            let simple = pg.to_simple().unwrap();
            let m = simple.edge_count();
            let maximal = matching::greedy_maximal_matching(&simple);
            let all: Vec<EdgeId> = (0..m).map(EdgeId::new).collect();
            let mut sets = vec![maximal.clone(), Vec::new(), all.clone()];
            if let Some(&first) = maximal.first() {
                let extra = EdgeId::new(rng.gen_range(0..m));
                let random = all.iter().copied().filter(|_| rng.gen_bool(0.3)).collect();
                sets.extend([
                    maximal[1..].to_vec(),
                    [&maximal[..], &[extra]].concat(),
                    [&maximal[..], &[first]].concat(),
                    random,
                    vec![EdgeId::new(m)],
                ]);
            }
            for a in &sets {
                for b in &sets {
                    let on_pn = verdicts(&pg, a, b);
                    let on_simple = verdicts(&simple, a, b);
                    assert_eq!(on_pn, on_simple, "seed {seed}: {a:?} / {b:?}");
                    let shown = |vs: &[Result<String, Violation>]| -> Vec<String> {
                        vs.iter()
                            .map(|r| r.as_ref().map_or_else(ToString::to_string, Clone::clone))
                            .collect()
                    };
                    assert_eq!(shown(&on_pn), shown(&on_simple), "seed {seed}");
                    kinds.extend(
                        on_pn
                            .iter()
                            .filter_map(|r| r.as_ref().err())
                            .map(std::mem::discriminant),
                    );
                }
            }
        }
        // The damaged sets reach all eight kinds of violation.
        assert_eq!(kinds.len(), 8);
    }

    #[test]
    fn violations_display() {
        let v = Violation::UncoveredNode {
            node: NodeId::new(3),
        };
        assert!(v.to_string().contains("3"));
        let v = Violation::ContainsCycle;
        assert!(!v.to_string().is_empty());
    }
}
