//! Watch a distributed protocol run, message by message.
//!
//! Runs the Theorem 4 protocol on a tiny 1-regular graph and the port-one
//! protocol on a triangle with full tracing enabled, printing the
//! complete transcript: every message on every link in every round, and
//! each node's halting output. It exits non-zero if a transcript misses
//! a counted message or Theorem 4 overruns its `2 + 2d²` round cap.
//!
//! Run with: `cargo run --example protocol_trace`

use edge_dominating_sets::algorithms::distributed::{regular_odd_rounds, RegularOddNode};
use edge_dominating_sets::algorithms::port_one::PortOneNode;
use edge_dominating_sets::prelude::*;
use edge_dominating_sets::runtime::{RunOptions, Simulator};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- The port-one protocol on a triangle: one round. ---
    let g = ports::canonical_ports(&generators::cycle(3)?)?;
    let sim = Simulator::with_options(
        &g,
        RunOptions {
            record_trace: true,
            ..RunOptions::default()
        },
    );
    let run = sim.run(|_, d| PortOneNode::new(d))?;
    let trace = run.trace.as_ref().expect("trace requested");
    assert_eq!(trace.message_count(), run.messages);
    println!("=== port-one protocol on a triangle ===");
    println!("{}", trace.render());
    let edges = edge_set_from_outputs(&g, &run.outputs)?;
    println!(
        "selected edges: {:?} ({} rounds, {} messages)",
        edges, run.rounds, run.messages
    );

    // --- The Theorem 4 protocol on two disjoint edges (d = 1). ---
    let g = ports::canonical_ports(&generators::disjoint_union(&[
        generators::path(2)?,
        generators::path(2)?,
    ]))?;
    let sim = Simulator::with_options(
        &g,
        RunOptions {
            record_trace: true,
            ..RunOptions::default()
        },
    );
    let run = sim.run(|_, d| RegularOddNode::new(d))?;
    let trace = run.trace.as_ref().expect("trace requested");
    assert_eq!(trace.message_count(), run.messages);
    // Nodes halt once their D-edges are final, within the 2 + 2d² cap.
    assert!(run.rounds <= regular_odd_rounds(1));
    println!();
    println!("=== Theorem 4 protocol on two disjoint edges (d = 1) ===");
    println!("{}", trace.render());
    let edges = edge_set_from_outputs(&g, &run.outputs)?;
    println!(
        "dominating set: {:?} ({} rounds, cap 2 + 2d² = {}; {} messages)",
        edges,
        run.rounds,
        regular_odd_rounds(1),
        run.messages
    );
    Ok(())
}
