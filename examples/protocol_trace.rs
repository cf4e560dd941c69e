//! Watch a distributed protocol run, message by message.
//!
//! Runs the Theorem 4 protocol on a tiny 1-regular graph and the port-one
//! protocol on a triangle with full tracing enabled, printing the
//! complete transcript: every message on every link in every round, and
//! each node's halting output.
//!
//! Run with: `cargo run --example protocol_trace`

use edge_dominating_sets::algorithms::distributed::RegularOddNode;
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
    println!("=== port-one protocol on a triangle ===");
    println!("{}", run.trace.as_ref().expect("trace requested").render());
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
    println!();
    println!("=== Theorem 4 protocol on two disjoint edges (d = 1) ===");
    println!("{}", run.trace.as_ref().expect("trace requested").render());
    let edges = edge_set_from_outputs(&g, &run.outputs)?;
    println!(
        "dominating set: {:?} ({} rounds = 2 + 2d², {} messages)",
        edges, run.rounds, run.messages
    );
    Ok(())
}
