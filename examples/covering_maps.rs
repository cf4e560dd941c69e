//! Paper Figures 2–3 and Section 2.3: port-numbered multigraphs,
//! covering maps, and why anonymous algorithms cannot tell covered nodes
//! apart.
//!
//! Builds the Figure 2 multigraph `M`, a finite covering graph of it, and
//! runs a distributed protocol on both — the outputs along each fibre
//! coincide with the quotient node's output, *exactly* as the paper's
//! Section 2.3 lemma demands.
//!
//! Run with: `cargo run --example covering_maps`

use edge_dominating_sets::graph::covering::simple_lift;
use edge_dominating_sets::prelude::*;
use edge_dominating_sets::runtime::fiber_agreement;

/// A small protocol: every node floods a digest of what it has seen for
/// `r` rounds and outputs the final digest — enough to distinguish nodes
/// if anything local could.
struct Digest {
    state: u64,
    rounds_left: usize,
}

impl NodeAlgorithm for Digest {
    type Message = u64;
    type Output = u64;

    fn send_into(&mut self, _round: usize, outbox: &mut [Option<u64>]) {
        // One message per port; include the port number so the digest is
        // sensitive to the wiring.
        for (q, slot) in outbox.iter_mut().enumerate() {
            *slot = Some(self.state.wrapping_mul(31).wrapping_add(q as u64));
        }
    }

    fn receive(&mut self, _round: usize, inbox: &[Option<u64>]) -> Option<u64> {
        for (q, m) in inbox.iter().enumerate() {
            let v = m.expect("synchronised protocol");
            self.state = self
                .state
                .rotate_left(7)
                .wrapping_add(v)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(q as u64);
        }
        self.rounds_left -= 1;
        if self.rounds_left == 0 {
            Some(self.state)
        } else {
            None
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The multigraph M of Figure 2: V = {s, t}, d(s) = 3, d(t) = 4,
    // p: (s,1)<->(t,2), (s,2)<->(t,1), (s,3) fixed, (t,3)<->(t,4).
    let mut b = PnGraphBuilder::new();
    let s = b.add_node(3);
    let t = b.add_node(4);
    b.connect(
        Endpoint::new(s, Port::new(1)),
        Endpoint::new(t, Port::new(2)),
    )?;
    b.connect(
        Endpoint::new(s, Port::new(2)),
        Endpoint::new(t, Port::new(1)),
    )?;
    b.connect(
        Endpoint::new(s, Port::new(3)),
        Endpoint::new(s, Port::new(3)),
    )?;
    b.connect(
        Endpoint::new(t, Port::new(3)),
        Endpoint::new(t, Port::new(4)),
    )?;
    let m = b.finish()?;
    println!(
        "Figure 2 multigraph M: {} nodes, {} edges (2 parallel links, \
         1 directed loop, 1 link loop), simple = {}",
        m.node_count(),
        m.edge_count(),
        m.is_simple()
    );

    // A covering graph exactly as in Figure 3: a 4-fold lift with
    // per-edge layer shifts, which makes the cover a *simple* graph.
    let (c, f) = simple_lift(&m, 4)?;
    f.verify(&c, &m)?;
    assert!(c.is_simple(), "Figure 3's cover is simple");
    println!(
        "covering graph C (4-fold shifted lift): {} nodes, {} edges, simple = {}",
        c.node_count(),
        c.edge_count(),
        c.is_simple()
    );

    // Run the same deterministic protocol on both graphs.
    let rounds = 8;
    let factory = |_, d: usize| Digest {
        state: d as u64,
        rounds_left: rounds,
    };
    let on_m = Simulator::new(&m).run(factory)?;
    let on_c = Simulator::new(&c).run(factory)?;

    // Section 2.3: every node of C outputs exactly what its image in M
    // outputs.
    let fibers = f.fibers(m.node_count());
    fiber_agreement(&fibers, &on_c.outputs).expect("fibres agree");
    for (x, fiber) in fibers.iter().enumerate() {
        for &v in fiber {
            assert_eq!(on_c.outputs[v.index()], on_m.outputs[x]);
        }
        println!(
            "fibre of node {x}: {} covering nodes, all output {:#018x}",
            fiber.len(),
            on_m.outputs[x]
        );
    }
    println!();
    println!(
        "indistinguishability confirmed: after {rounds} rounds no node of C \
         has learned anything that separates it from its quotient node in M"
    );
    Ok(())
}
