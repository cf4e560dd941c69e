//! Regenerates **Figures 4–7** of the paper: the lower-bound
//! constructions of Theorems 1 and 2, their port numberings, optimal
//! solutions, target multigraphs and covering maps — and demonstrates the
//! covering-map indistinguishability *executably* by running the
//! distributed protocols on both the construction `G` and its quotient
//! multigraph `M` and comparing outputs along the fibres.
//!
//! Run with: `cargo run -p eds-bench --bin lower_bounds [d_even] [d_odd]`

use eds_core::distributed::{BoundedDegreeNode, RegularOddNode};
use eds_lower_bounds::{even, odd};
use pn_runtime::{fiber_agreement, Simulator};

fn main() {
    let d_even: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(6);
    let d_odd: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(5);

    figure4(d_even);
    println!();
    figures5to7(d_odd);
}

/// Figure 4: the Theorem 1 graph for even `d` (paper shows d = 6).
fn figure4(d: usize) {
    println!("=== Figure 4: Theorem 1 construction, d = {d} (even) ===");
    let inst = even::build(d).expect("even d >= 2");
    let g = &inst.graph;
    println!(
        "G: {} nodes (A = {}, B = {}), {} edges, {}-regular: {}",
        g.node_count(),
        d,
        d - 1,
        g.edge_count(),
        d,
        g.regular_degree() == Some(d),
    );
    println!(
        "optimal EDS S: {} edges; |E| = (2d-1)|S|: {}",
        inst.optimal_size(),
        g.edge_count() == (2 * d - 1) * inst.optimal_size(),
    );
    println!(
        "port numbering: ports 2i-1 -> 2i along {} oriented 2-factors",
        d / 2
    );
    println!(
        "covering map onto the 1-node multigraph M: verified = {}",
        inst.covering.verify(g, &inst.target).is_ok()
    );

    // Executable indistinguishability: the A(d+1) protocol cannot tell
    // the 2d-1 nodes of G from the single node of M.
    let delta = d + 1;
    let on_g = Simulator::new(g)
        .run(|_, deg| BoundedDegreeNode::new(delta, deg))
        .expect("protocol runs on G");
    let on_m = Simulator::new(&inst.target)
        .run(|_, deg| BoundedDegreeNode::new(delta, deg))
        .expect("protocol runs on M");
    let fibers = inst.covering.fibers(inst.target.node_count());
    let agree =
        fiber_agreement(&fibers, &on_g.outputs).is_ok() && on_g.outputs[0] == on_m.outputs[0];
    println!(
        "indistinguishability: all {} nodes of G output exactly what the \
         single node of M outputs: {}",
        g.node_count(),
        agree
    );
    assert!(agree, "covering-map lemma violated");
}

/// Figures 5–7: the Theorem 2 construction for odd `d` (paper shows
/// d = 5), component structure, hubs, optimum and quotient multigraph.
fn figures5to7(d: usize) {
    println!("=== Figures 5-7: Theorem 2 construction, d = {d} (odd) ===");
    let inst = odd::build(d).expect("odd d >= 1");
    let k = (d - 1) / 2;
    let g = &inst.graph;
    println!(
        "G: {} nodes = {} components H(l) of {} nodes + {} hubs (P: {}, Q: {})",
        g.node_count(),
        d,
        4 * k + 1,
        d + 2 * k,
        d,
        2 * k,
    );
    println!(
        "{}-regular: {}; edges: {}",
        d,
        g.regular_degree() == Some(d),
        g.edge_count()
    );
    println!(
        "each H(l): star R(l) ({} edges) + matching S(l) ({} edges) + crown T(l) ({} edges)",
        2 * k,
        k,
        2 * k * (2 * k).saturating_sub(1),
    );
    println!(
        "optimal EDS D* = Y ∪ ⋃S(l): {} edges = (k+1)d with k = {k}",
        inst.optimal_size()
    );
    println!(
        "target multigraph M: {} nodes (x_1..x_{d}, y); covering map verified = {}",
        inst.target.node_count(),
        inst.covering.verify(g, &inst.target).is_ok()
    );

    // Executable indistinguishability with the Theorem 4 protocol: every
    // node of component H(l) answers exactly like the quotient node x_l,
    // and every hub like y.
    let on_g = Simulator::new(g)
        .run(|_, d| RegularOddNode::new(d))
        .expect("protocol runs on G");
    let on_m = Simulator::new(&inst.target)
        .run(|_, d| RegularOddNode::new(d))
        .expect("protocol runs on M");
    let fibers = inst.covering.fibers(inst.target.node_count());
    let mut agree = fiber_agreement(&fibers, &on_g.outputs).is_ok();
    for (x, fiber) in fibers.iter().enumerate() {
        if let Some(&v) = fiber.first() {
            agree &= on_g.outputs[v.index()] == on_m.outputs[x];
        }
    }
    println!("indistinguishability: fibre outputs on G match the quotient M: {agree}");
    assert!(agree, "covering-map lemma violated");

    // The forced cost: the Theorem 4 protocol on this instance pays
    // exactly (2d-1) d edges.
    let edges = pn_runtime::edge_set_from_outputs(g, &on_g.outputs).expect("consistent");
    println!(
        "protocol output on G: {} edges (theory forces (2d-1)d = {}), ratio {:.4} \
         = 4 - 6/(d+1) = {:.4}",
        edges.len(),
        (2 * d - 1) * d,
        edges.len() as f64 / inst.optimal_size() as f64,
        4.0 - 6.0 / (d as f64 + 1.0),
    );
}
