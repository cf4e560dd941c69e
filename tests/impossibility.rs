//! Executable impossibility arguments (paper Section 1.4: "classical
//! packing problems such as matchings and independent sets are typically
//! unsolvable for trivial reasons" in the port-numbering model).
//!
//! The structure of the argument, fully machine-checked:
//!
//! 1. the symmetric cycle `C_{2k}` covers the one-node multigraph `M`
//!    (verified by [`pn_graph::CoveringMap::verify`]);
//! 2. by the covering lemma — which `pn-runtime` tests establish for the
//!    simulator — every deterministic algorithm outputs the *same* port
//!    set `X` at every node;
//! 3. enumerating all four possible uniform `X ⊆ {1, 2}` shows the only
//!    internally consistent outputs select either *no* edges or *all*
//!    edges;
//! 4. neither is a maximal matching (or any nontrivial matching), so no
//!    deterministic distributed algorithm computes one on this family.

use edge_dominating_sets::prelude::*;
use edge_dominating_sets::runtime::outputs_from_edge_set;
use edge_dominating_sets::verify::check_maximal_matching;
use pn_graph::CoveringMap;

/// The symmetric cycle: port 1 of `v` wired to port 2 of `v + 1`.
fn symmetric_cycle(n: usize) -> PortNumberedGraph {
    let mut b = PnGraphBuilder::new();
    for _ in 0..n {
        b.add_node(2);
    }
    for v in 0..n {
        b.connect(
            Endpoint::new(NodeId::new(v), Port::new(1)),
            Endpoint::new(NodeId::new((v + 1) % n), Port::new(2)),
        )
        .unwrap();
    }
    b.finish().unwrap()
}

/// The quotient: one node whose port 1 is wired to its own port 2.
fn one_node_quotient() -> PortNumberedGraph {
    let mut b = PnGraphBuilder::new();
    let x = b.add_node(2);
    b.connect(
        Endpoint::new(x, Port::new(1)),
        Endpoint::new(x, Port::new(2)),
    )
    .unwrap();
    b.finish().unwrap()
}

#[test]
fn symmetric_cycles_cover_the_one_node_multigraph() {
    let m = one_node_quotient();
    for n in [4usize, 6, 8, 10] {
        let c = symmetric_cycle(n);
        let f = CoveringMap::constant(n, NodeId::new(0));
        f.verify(&c, &m).expect("covering map");
    }
}

#[test]
fn uniform_outputs_select_nothing_or_everything() {
    // Step 3 of the argument: enumerate all uniform outputs.
    for n in [4usize, 6, 8] {
        let c = symmetric_cycle(n);
        let candidates: [&[u32]; 4] = [&[], &[1], &[2], &[1, 2]];
        let mut consistent_edge_counts = Vec::new();
        for ports in candidates {
            let x: PortSet = ports.iter().map(|&p| Port::new(p)).collect();
            let outputs = vec![x; n];
            match edge_set_from_outputs(&c, &outputs) {
                Ok(edges) => consistent_edge_counts.push(edges.len()),
                Err(_) => {
                    // {1} and {2} alone are internally inconsistent: the
                    // far side of a selected port never selects back.
                    assert!(ports.len() == 1, "only the singletons are inconsistent");
                }
            }
        }
        // Only the empty set and the full edge set survive.
        consistent_edge_counts.sort_unstable();
        assert_eq!(consistent_edge_counts, vec![0, n]);
    }
}

#[test]
fn neither_survivor_is_a_maximal_matching() {
    for n in [4usize, 6, 8] {
        let c = symmetric_cycle(n);
        let simple = c.to_simple().unwrap();
        // No edges: not maximal (any edge can be added).
        assert!(check_maximal_matching(&simple, &[]).is_err());
        // All edges: not a matching at all (degree 2 everywhere).
        let all: Vec<EdgeId> = simple.edges().map(|(e, _, _)| e).collect();
        assert!(check_maximal_matching(&simple, &all).is_err());
        // Yet a perfect matching exists (n is even): solvable
        // centralised, unsolvable anonymously.
        let mm = edge_dominating_sets::baselines::mmm::minimum_maximal_matching(&simple);
        assert!(check_maximal_matching(&simple, &mm).is_ok());
    }
}

#[test]
fn our_protocols_obey_the_impossibility() {
    // Concrete instance of step 2: every protocol we implement outputs a
    // uniform port set on the symmetric cycle, hence all-or-nothing edge
    // sets.
    use edge_dominating_sets::algorithms::distributed::BoundedDegreeNode;
    use edge_dominating_sets::algorithms::port_one::PortOneNode;
    for n in [4usize, 6, 8] {
        let c = symmetric_cycle(n);

        let run = Simulator::new(&c).run(|_, d| PortOneNode::new(d)).unwrap();
        assert!(
            run.outputs.windows(2).all(|w| w[0] == w[1]),
            "uniform outputs"
        );
        let edges = edge_set_from_outputs(&c, &run.outputs).unwrap();
        assert!(edges.len() == n, "port-1 selects every edge here");

        let run = Simulator::new(&c)
            .run(|_, d| BoundedDegreeNode::new(2, d))
            .unwrap();
        assert!(
            run.outputs.windows(2).all(|w| w[0] == w[1]),
            "uniform outputs"
        );
        let edges = edge_set_from_outputs(&c, &run.outputs).unwrap();
        assert!(
            edges.is_empty() || edges.len() == n,
            "all-or-nothing on the symmetric cycle"
        );
        // A(2) must still dominate everything: it takes all edges.
        assert_eq!(edges.len(), n);
    }
}

#[test]
fn asymmetric_numbering_breaks_the_symmetry() {
    // The impossibility is about the *numbering*, not the cycle: with
    // canonical ports a maximal-matching-sized EDS becomes reachable.
    let g = generators::cycle(6).unwrap();
    let pg = ports::canonical_ports(&g).unwrap();
    let result =
        edge_dominating_sets::algorithms::bounded_degree::bounded_degree_reference(&pg, 2).unwrap();
    // Strictly between 0 and all edges: symmetry broken.
    assert!(!result.dominating_set.is_empty());
    assert!(result.dominating_set.len() < pg.edge_count());
}

#[test]
fn round_trip_outputs_from_edge_sets_are_consistent() {
    // outputs_from_edge_set always produces consistent outputs, even on
    // the symmetric cycle — the impossibility is about what uniform
    // outputs can express, not a defect of the encoding.
    let c = symmetric_cycle(6);
    let all: Vec<EdgeId> = c.edges().map(|(e, _)| e).collect();
    let outputs = outputs_from_edge_set(&c, &all);
    let back = edge_set_from_outputs(&c, &outputs).unwrap();
    assert_eq!(back, all);
}
