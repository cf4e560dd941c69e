//! Integration test: the Section 2.3 covering-map lemma, executed.
//!
//! A deterministic algorithm run on a covering graph `H` of `G` must
//! produce, at every node `v`, exactly the output of `f(v)` in `G`. We
//! check this for all three protocols across lifts and the lower-bound
//! quotients — this is the mechanism every lower bound in the paper rests
//! on.

use edge_dominating_sets::algorithms::distributed::{BoundedDegreeNode, RegularOddNode};
use edge_dominating_sets::algorithms::port_one::PortOneNode;
use edge_dominating_sets::graph::covering::cyclic_lift;
use edge_dominating_sets::lower_bounds::{even, odd};
use edge_dominating_sets::prelude::*;
use edge_dominating_sets::runtime::fiber_agreement;

fn check_all_protocols(
    h: &PortNumberedGraph,
    g: &PortNumberedGraph,
    map: &edge_dominating_sets::graph::CoveringMap,
) {
    map.verify(h, g).expect("valid covering map");
    let fibers = map.fibers(g.node_count());
    let delta = g.max_degree().max(h.max_degree());

    // Port-one protocol.
    let on_h = Simulator::new(h).run(|_, d| PortOneNode::new(d)).unwrap();
    let on_g = Simulator::new(g).run(|_, d| PortOneNode::new(d)).unwrap();
    fiber_agreement(&fibers, &on_h.outputs).expect("port-one fibres agree");
    for (x, fiber) in fibers.iter().enumerate() {
        for &v in fiber {
            assert_eq!(on_h.outputs[v.index()], on_g.outputs[x], "port-one");
        }
    }

    // Theorem 4 protocol (runs on any graph; regular inputs here).
    let on_h = Simulator::new(h)
        .run(|_, d| RegularOddNode::new(d))
        .unwrap();
    let on_g = Simulator::new(g)
        .run(|_, d| RegularOddNode::new(d))
        .unwrap();
    for (x, fiber) in fibers.iter().enumerate() {
        for &v in fiber {
            assert_eq!(on_h.outputs[v.index()], on_g.outputs[x], "thm4");
        }
    }

    // Theorem 5 protocol.
    let on_h = Simulator::new(h)
        .run(|_, d| BoundedDegreeNode::new(delta, d))
        .unwrap();
    let on_g = Simulator::new(g)
        .run(|_, d| BoundedDegreeNode::new(delta, d))
        .unwrap();
    for (x, fiber) in fibers.iter().enumerate() {
        for &v in fiber {
            assert_eq!(on_h.outputs[v.index()], on_g.outputs[x], "thm5");
        }
    }
}

#[test]
fn lifts_of_regular_graphs() {
    for (n, d, seed) in [(6usize, 3usize, 1u64), (8, 4, 2), (10, 5, 3)] {
        let g = generators::random_regular(n, d, seed).unwrap();
        let pg = ports::shuffled_ports(&g, seed).unwrap();
        for layers in [2usize, 3] {
            let (h, map) = cyclic_lift(&pg, layers);
            check_all_protocols(&h, &pg, &map);
        }
    }
}

#[test]
fn theorem1_quotient() {
    for d in [2usize, 4, 6] {
        let inst = even::build(d).unwrap();
        check_all_protocols(&inst.graph, &inst.target, &inst.covering);
    }
}

#[test]
fn theorem2_quotient() {
    for d in [1usize, 3, 5] {
        let inst = odd::build(d).unwrap();
        check_all_protocols(&inst.graph, &inst.target, &inst.covering);
    }
}

#[test]
fn composed_covers() {
    // A lift of a lift still covers the base: composition of covering
    // maps is a covering map.
    let g = ports::canonical_ports(&generators::cycle(4).unwrap()).unwrap();
    let (h1, f1) = cyclic_lift(&g, 2);
    let (h2, f2) = cyclic_lift(&h1, 3);
    let composed = edge_dominating_sets::graph::CoveringMap::new(
        h2.nodes().map(|v| f1.apply(f2.apply(v))).collect(),
    );
    check_all_protocols(&h2, &g, &composed);
}

#[test]
fn lift_preserves_simplicity_of_simple_base() {
    let g = ports::canonical_ports(&generators::petersen()).unwrap();
    let (h, map) = cyclic_lift(&g, 4);
    assert!(h.is_simple());
    map.verify(&h, &g).unwrap();
    assert_eq!(h.node_count(), 40);
    assert_eq!(h.edge_count(), 60);
}

#[test]
fn simple_lifts_of_lower_bound_quotients() {
    // The quotient multigraphs of the lower-bound constructions have
    // their own simple covers via the shifted lift; protocols cannot
    // tell those apart from the quotients either. (The paper's G is one
    // particular simple cover; this shows the machinery generates
    // others.)
    use edge_dominating_sets::graph::covering::simple_lift;
    for d in [2usize, 4] {
        let inst = even::build(d).unwrap();
        let (h, map) = simple_lift(&inst.target, 2 * d).unwrap();
        assert!(h.is_simple(), "d = {d}");
        check_all_protocols(&h, &inst.target, &map);
    }
    let inst = odd::build(3).unwrap();
    let (h, map) = simple_lift(&inst.target, 8).unwrap();
    assert!(h.is_simple());
    check_all_protocols(&h, &inst.target, &map);
}
